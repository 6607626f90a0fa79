"""Self-test of the benchmark.

    python3 perfbench/selftest.py

A trimmed smoke run of every workload, untraced and traced, must report
exactly the metrics BENCHMARK.json names, each with its unit, and pass its
correctness check; a run of each workload against a mutated reference must
fail it.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

# Items per smoke run (per algorithm on solve).
LIMITS = {"sweep": 6, "families": 2, "solve": 3}


def smoke(name, trace, load_reference=run.read_reference, log=print):
    return run.run_benchmark(name, seed=1, seconds=0, trace=trace,
                             load_reference=load_reference,
                             limit=LIMITS[name], setups=1, log=log)


def mutate(name: str, ref: dict) -> None:
    """Make every pinned answer wrong."""
    if name == "sweep":
        for rec in ref["records"].values():
            rec["psi"] += 1
    elif name == "families":
        for item in ref["items"].values():
            item["value"] += 1
    else:
        flip = {"S": "U", "U": "S"}
        for key in ref["entries"]:
            ref["entries"][key] = [
                ":".join([d, flip.get(t, t), s]) for d, t, s in
                (e.split(":") for e in ref["entries"][key])]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in ("sweep", "families", "solve"):
        for trace in (False, True):
            res = smoke(name, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{name} trace={trace}: metrics {got} "
                                f"differ from BENCHMARK.json")
            if not res["correct"] or res["attempted"] < 1:
                problems.append(f"{name} trace={trace}: smoke run failed "
                                f"its correctness check")

        def load_mutated(wl, name=name):
            ref = run.read_reference(wl)
            mutate(name, ref)
            return ref

        res = smoke(name, False, load_mutated, log=lambda *a: None)
        if res["correct"]:
            problems.append(f"{name}: a mutated reference went unnoticed")
        else:
            print(f"{name}: mutated reference rejected, as it must be")
    for msg in problems:
        print(f"SELFTEST FAILED: {msg}")
    if not problems:
        print("selftest passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
