"""One check for every pinned outcome stream.

A pinned stream is a generator of ``(bucket, row)`` pairs: ``row`` is one
line of text and ``bucket`` names the part of the stream it belongs to,
such as the corpus order and goal.  A :class:`Pin` holds the row count
and SHA-256 of every row in stream order, and a table of each bucket's
row count and digest prefix.  :func:`check_pin` requires the whole pin;
on a mismatch it names every bucket whose rows changed, appeared or went
missing, so the bucket digests only locate a change that the full digest
detects.

Run as a script to see one stream::

    PYTHONPATH=src python tests/pins.py oracle           # its pin, as source
    PYTHONPATH=src python tests/pins.py oracle "5 cover" # one bucket's rows

so a change that alters outcomes can diff a bucket against its parent and
paste the new pin.
"""

import hashlib
import importlib
import json
import sys
from dataclasses import dataclass
from typing import Iterable

BUCKET_DIGEST = 12  # hex digits kept of each bucket's SHA-256

# Stream name -> (test module, zero-argument function yielding the pairs).
STREAMS = {
    "oracle": ("test_solver", "oracle_outcomes"),
    "oracle-work": ("test_solver", "oracle_work"),
    "scan": ("test_solver", "scan_outcomes"),
    "scan-work": ("test_solver", "scan_work"),
    "targets": ("test_solver", "targets_outcomes"),
    "outcomes": ("test_constructive", "outcomes"),
    "outcomes-diam2-order6": ("test_constructive", "outcomes_diam2_order6"),
    "diamd": ("test_constructive", "diamd_outcomes"),
    "spread": ("test_constructive", "spread_outcomes"),
}


@dataclass(frozen=True)
class Pin:
    count: int
    sha256: str
    buckets: dict[str, tuple[int, str]]  # bucket -> (rows, digest prefix)


def digest(pairs: Iterable[tuple[str, str]]) -> Pin:
    """The pin of a stream of ``(bucket, row)`` pairs."""
    overall, count, buckets = hashlib.sha256(), 0, {}
    for bucket, row in pairs:
        data = row.encode()
        overall.update(data)
        count += 1
        if bucket not in buckets:
            buckets[bucket] = [0, hashlib.sha256()]
        buckets[bucket][0] += 1
        buckets[bucket][1].update(data)
    return Pin(count, overall.hexdigest(),
               {bucket: (rows, h.hexdigest()[:BUCKET_DIGEST])
                for bucket, (rows, h) in buckets.items()})


def changed_buckets(got: Pin, pin: Pin) -> list[str]:
    """One line per bucket of ``got`` or ``pin`` whose entries differ."""
    lines = []
    for bucket in {**pin.buckets, **got.buckets}:
        new, old = got.buckets.get(bucket), pin.buckets.get(bucket)
        if new == old:
            continue
        if old is None:
            lines.append(f"{bucket!r}: new, {new[0]} rows {new[1]}")
        elif new is None:
            lines.append(f"{bucket!r}: missing, pinned {old[0]} rows {old[1]}")
        else:
            lines.append(f"{bucket!r}: {new[0]} rows {new[1]}, "
                         f"pinned {old[0]} rows {old[1]}")
    return lines


def check_pin(pairs: Iterable[tuple[str, str]], pin: Pin) -> None:
    """Assert that the stream's overall count and SHA-256 and its bucket
    table equal ``pin``; the failure lists every bucket that changed."""
    got = digest(pairs)
    if got == pin:
        return
    if (got.count, got.sha256) == (pin.count, pin.sha256):
        head = "rows unchanged, bucket table out of date"
    else:
        head = (f"{got.count} rows {got.sha256}, "
                f"pinned {pin.count} rows {pin.sha256}")
    raise AssertionError("\n".join([head, "changed buckets:",
                                    *changed_buckets(got, pin)]))


def pin_source(pin: Pin) -> str:
    """``pin`` as the ``Pin(...)`` expression a test module holds."""
    lines = ["Pin(", f'    {pin.count}, "{pin.sha256}",', "    {"]
    lines += [f'        {json.dumps(bucket)}: ({rows}, "{prefix}"),'
              for bucket, (rows, prefix) in pin.buckets.items()]
    return "\n".join(lines + ["    })"])


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2) or argv[0] not in STREAMS:
        print(f"usage: pins.py {{{'|'.join(STREAMS)}}} [BUCKET]",
              file=sys.stderr)
        return 2
    module, name = STREAMS[argv[0]]
    pairs = getattr(importlib.import_module(module), name)()
    if len(argv) == 1:
        print(pin_source(digest(pairs)))
        return 0
    rows = [row for bucket, row in pairs if bucket == argv[1]]
    if not rows:
        print(f"no bucket {argv[1]!r} in {argv[0]}", file=sys.stderr)
        return 2
    sys.stdout.writelines(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
