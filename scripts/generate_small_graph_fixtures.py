#!/usr/bin/env python3
"""Regenerate src/dcpebble/data/connected_{n}.g6 for every order n in
``dcpebble.fixtures.CONNECTED_COUNTS``.

Every connected graph has a vertex whose removal leaves it connected, so
each order-n class is an order-(n-1) class plus one new vertex joined to a
non-empty subset of the old ones.  The new vertex is vertex 0: with edges
indexed in ``combinations(range(n), 2)`` order, its edges take the low n-1
bits and the old graph's mask moves up by n-1.  One representative per
isomorphism class is kept: the edge bitmask that is minimal over all
vertex permutations.

Lines are ordered by (edge count, canonical mask).
"""

from __future__ import annotations

import sys
from itertools import combinations, permutations
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DATA_DIR = SRC / "dcpebble" / "data"
sys.path.insert(0, str(SRC))

from dcpebble.fixtures import CONNECTED_COUNTS  # noqa: E402
from dcpebble.graphs import build_graph, emit_graph6  # noqa: E402


def extend(n: int, smaller: list[int]) -> list[int]:
    """Canonical masks of the connected order-n graphs, from those of
    order n-1."""
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    remaps = [[index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
              for perm in permutations(range(n))]

    def canonical(mask: int) -> int:
        bits = [i for i in range(len(pairs)) if mask >> i & 1]
        return min(sum(1 << remap[i] for i in bits) for remap in remaps)

    found = {canonical(old << (n - 1) | joined)
             for old in smaller for joined in range(1, 1 << (n - 1))}
    return sorted(found, key=lambda m: (m.bit_count(), m))


def corpus():
    """Yield (n, the text of connected_{n}.g6) for every order n in
    ``CONNECTED_COUNTS``, ascending."""
    masks = [0]  # order 1: one vertex, no edges
    for n in sorted(CONNECTED_COUNTS):
        if n > 1:
            masks = extend(n, masks)
        if len(masks) != CONNECTED_COUNTS[n]:
            raise SystemExit(f"order {n}: {len(masks)} classes, "
                             f"expected {CONNECTED_COUNTS[n]}")
        pairs = list(combinations(range(n), 2))
        lines = []
        for mask in masks:
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            lines.append(emit_graph6(build_graph(n, edges)))
        yield n, "\n".join(lines) + "\n"


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for n, text in corpus():
        (DATA_DIR / f"connected_{n}.g6").write_text(text)
        print(f"n={n}: {CONNECTED_COUNTS[n]} graphs")


if __name__ == "__main__":
    main()
