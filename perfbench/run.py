"""Benchmark of the dcpebble exact engine, end to end and per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep|families|solve --seed N \
        --seconds S --trace 0|1

One process, no threads, no worker pool.  Set-up (import, corpus read and
parse, family and request generation, reference load) runs SETUP_REPEATS
times, then once more ahead of each untraced pass; its median is
``setup_s``.  The workload's fixed item list runs again and again, each
item starting when the previous one returns, until the next pass would end
after ``--seconds``; at least one pass always runs.  Times are scaled by an
adjacent calibration and each item's median over the passes is used (see
:class:`Passes`).  Every outcome of every pass is checked against
``reference/<workload>.json``.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` the first half of the time runs untraced and the second half
traced, and the last line reports the per-layer metrics (per traced pass)
plus the tracing overhead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 4
CALIBRATE_EVERY = 0.25          # seconds of workload between calibrations
NOMINAL_CALIBRATION = 0.005     # seconds calibrate() takes at nominal speed

# The benchmark's own modules sit beside this file.
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import MAKE_WORKLOAD, Outcome  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "item_p50_ms": "ms", "item_p90_ms": "ms",
                    "decided_frac": "ratio", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def fresh_import():
    """Import the package from scratch, as a new process would (standard
    library modules it pulls in stay cached after the first time)."""
    for name in [m for m in sys.modules
                 if m == "dcpebble" or m.startswith("dcpebble.")]:
        del sys.modules[name]
    return workloads.import_api(importlib.import_module("dcpebble"))


def read_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def set_up(name: str, seed: int, load_reference, limit):
    api = fresh_import()
    return api, MAKE_WORKLOAD[name](api, seed, load_reference(name), limit)


def run_item(item) -> Outcome:
    """Run one item; a failure is recorded with its kind, never raised."""
    try:
        return item.run()
    except RecursionError:
        return Outcome("RecursionError")
    except Exception as exc:  # any other failure of the program
        return Outcome(type(exc).__name__, detail=repr(exc))


def calibrate() -> float:
    """Time a fixed piece of pure-Python work shaped like the level scans
    (tuples into a set, then probed); it uses nothing from the package."""
    t0 = perf_counter()
    seen = set()
    for i in range(6000):
        seen.add((i & 7, i >> 3, i % 5, 1))
    hits = 0
    for i in range(12000):
        hits += (i & 7, i >> 4, i % 5, 1) in seen
    return perf_counter() - t0


class Passes:
    """Timings of repeated passes over one workload's item list.

    ``times[i]`` holds item i's time in every pass; the pass's finishing
    step (``emit_csv`` on sweep) is one more step at the end.  Between
    items, at most every CALIBRATE_EVERY seconds, :func:`calibrate` runs
    untimed; ``scaled[i]`` holds each time multiplied by
    NOMINAL_CALIBRATION over the mean of the calibrations just before and
    just after it: the time the item would take at the speed where
    :func:`calibrate` takes NOMINAL_CALIBRATION seconds.

    On the shared 2-core VM this was tuned on, the same work ran up to
    1.8x slower in phases lasting seconds to minutes, with no steal time.
    Scaling by the adjacent calibrations cancels most of that; the median
    of the scaled repetitions was the steadiest estimate tried.
    """

    def __init__(self, steps: int) -> None:
        self.walls: list[float] = []
        self.times: list[list[float]] = [[] for _ in range(steps)]
        self.scaled: list[list[float]] = [[] for _ in range(steps)]
        self.outcomes: list[Outcome] = []
        # Per item, every status ("ok" or a failure kind) it ended with.
        self.kinds: list[set[str]] = [set() for _ in range(steps)]
        self._cal_at = -1e9
        self._cal = calibrate()
        self._open: list[tuple[int, float]] = []   # tries awaiting scaling

    def maybe_calibrate(self, force: bool = False) -> None:
        if not force and perf_counter() - self._cal_at < CALIBRATE_EVERY:
            return
        cal = calibrate()
        factor = NOMINAL_CALIBRATION / ((self._cal + cal) / 2)
        for step, t in self._open:
            self.scaled[step].append(t * factor)
        self._open = []
        self._cal, self._cal_at = cal, perf_counter()

    def record(self, step: int, t: float) -> None:
        self.times[step].append(t)
        self._open.append((step, t))

    def medians(self, scaled: bool = True) -> list[float]:
        """Per step (items, then the finishing step if any), the median of
        its scaled (or raw) times."""
        return [statistics.median(t)
                for t in (self.scaled if scaled else self.times) if t]


def run_passes(wl, seconds: float, wrong: list[str],
               before_pass=None) -> Passes:
    """Closed loop over the item list, each item starting when the previous
    one returns, until the next pass would end after ``seconds``.
    ``before_pass`` runs, untimed, ahead of every pass."""
    res = Passes(len(wl.items) + 1)
    start = perf_counter()
    while True:
        gc.unfreeze()
        if before_pass is not None:
            before_pass()
        gc.collect()
        # Keep the benchmark's own objects out of the collector's view, as
        # in a process that serves one request; the program's garbage is
        # still collected, inside the items.
        gc.freeze()
        res.maybe_calibrate(force=True)
        t_pass = perf_counter()
        outcomes = []
        for i, item in enumerate(wl.items):
            res.maybe_calibrate()
            t0 = perf_counter()
            out = run_item(item)
            res.record(i, perf_counter() - t0)
            res.kinds[i].add(out.status)
            if out.value is not None:
                msg = item.check(out)
                if msg:
                    wrong.append(msg)
                if wl.finish is None:
                    # Drop the result now, so that peak RSS reflects the
                    # program rather than results the benchmark keeps.
                    out = Outcome(out.status, detail=out.detail)
            outcomes.append(out)
        if wl.finish is not None:
            res.maybe_calibrate()
            t0 = perf_counter()
            try:
                msg = wl.finish(outcomes)
            except Exception as exc:
                msg = f"finishing the pass raised {exc!r}"
            res.record(len(wl.items), perf_counter() - t0)
            if msg:
                wrong.append(msg)
        res.maybe_calibrate(force=True)
        res.walls.append(perf_counter() - t_pass)
        res.outcomes = outcomes
        elapsed = perf_counter() - start
        if elapsed + statistics.median(res.walls) > seconds:
            gc.unfreeze()
            return res


def traced_items(wl, tracer: tracing.Tracer):
    """The same workload with every item and the pass finish as root spans;
    an item span records the item's outcome."""
    def status(args, kwargs, out):
        return {"status": out.status}

    items = [workloads.Item(i.label, i.order,
                            tracer.span(f"item.{wl.name}", i.run, status),
                            i.check, i.meta) for i in wl.items]
    finish = (tracer.span(f"finish.{wl.name}", wl.finish)
              if wl.finish else None)
    return workloads.Workload(wl.name, items, finish, wl.mix)


def per_layer(tracer: tracing.Tracer, setup_totals: dict, passes: int
              ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced pass (set-up layers per set-up)."""
    tot = tracer.totals()
    hot = tracer.hot
    out: dict[str, tuple[float, str]] = {}

    def span(layer, *extra, src=tot, div=passes):
        t = src.get(layer, {})
        out[f"{layer}.calls"] = (t.get("calls", 0) / div, "count")
        out[f"{layer}.s"] = (t.get("s", 0.0) / div, "s")
        for key, unit in extra:
            out[f"{layer}.{key}"] = (t.get(key, 0) / div, unit)

    def hot_layer(layer):
        calls, secs, trues, _yielded = hot.get(layer, [0, 0.0, 0, 0])
        out[f"{layer}.calls"] = (calls / passes, "count")
        out[f"{layer}.s"] = (secs / passes, "s")
        return calls, trues

    span("graphs.parse")
    hot_layer("graphs.support")
    hot_layer("graphs.undom")
    calls, trues = hot_layer("pebbling.goal")
    out["pebbling.goal.true_frac"] = (trues / calls if calls else 0.0,
                                      "ratio")
    for kind in ("domination", "subversion", "cover"):
        span(f"solver.scan.{kind}", ("self_s", "s"), ("checked", "count"))
    _calls, secs, _trues, configs = hot.get("solver.enum", [0, 0.0, 0, 0])
    out["solver.enum.configs"] = (configs / passes, "count")
    out["solver.enum.s"] = (secs / passes, "s")
    dfs = tot.get("solver.dfs", {})
    span("solver.dfs", ("states", "count"))
    out["solver.dfs.decided_frac"] = (
        dfs.get("decided", 0) / dfs["calls"] if dfs.get("calls") else 0.0,
        "ratio")
    out["solver.dfs.errors"] = (
        sum(v for k, v in dfs.items() if k.startswith("error:")) / passes,
        "count")
    span("solver.stacking")
    for algo in ("diam2", "spread", "diamd", "diamd_noinv", "subv2"):
        span(f"constructive.{algo}", ("moves", "count"))
    span("constructive.invariants")
    span("constructive.verify", ("moves", "count"), ("rejects", "count"))
    span("harness.analyze")
    span("harness.emit")
    span("setup.fixtures", src=setup_totals, div=1)
    span("setup.families", src=setup_totals, div=1)
    t = setup_totals.get("graphs.parse", {})
    out["setup.parse.calls"] = (t.get("calls", 0), "count")
    out["setup.parse.s"] = (t.get("s", 0.0), "s")
    return out


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  load_reference=read_reference, limit: int | None = None,
                  setups: int = SETUP_REPEATS, log=print) -> dict:
    """Run one workload; returns the result object printed last.

    Set-up runs ``setups`` times before the first pass and once more ahead
    of each untraced pass, so that its median samples the same stretch of
    time as the passes do."""
    setup_times = []
    raw_setup = []

    def timed_setup():
        cal = calibrate()
        t0 = perf_counter()
        made = set_up(name, seed, load_reference, limit)
        t = perf_counter() - t0
        raw_setup.append(t)
        setup_times.append(t * NOMINAL_CALIBRATION
                           / ((cal + calibrate()) / 2))
        gc.collect()
        return made

    _api, wl = timed_setup()
    for _ in range(setups - 1):
        timed_setup()

    log(f"workload {name}  seed {seed}  items {len(wl.items)}")
    for key, value in wl.mix.items():
        log(f"  mix {key}: {value}")

    wrong: list[str] = []
    untraced_s = seconds / 2 if trace else seconds
    plain = run_passes(wl, untraced_s, wrong, timed_setup)
    npass = len(plain.walls)
    # Each item counts once, however many passes fit the time: it failed if
    # it failed in any pass.  So attempted and failed depend on the seed's
    # inputs only, not on the machine's speed.
    kinds = plain.kinds
    varied = [item.label for item, k in zip(wl.items, kinds) if len(k) > 1]

    failures: dict[str, list[str]] = {}
    for item, out in zip(wl.items, plain.outcomes):
        if out.status != "ok":
            failures.setdefault(out.status, []).append(
                f"{item.label} {out.detail}".rstrip())
    for kind, labels in sorted(failures.items()):
        log(f"  failed ({kind}): {len(labels)}")
        for label in labels:
            log(f"    {label}")
    for label in varied:
        log(f"  outcome varied between passes: {label}")
    attempted = len(wl.items)
    failed = sum(k != {"ok"} for k in kinds[:attempted])
    log(f"  failed_frac: {failed / attempted:.6f} "
        f"({failed} of {attempted} items)")
    log(f"  untraced passes: {npass}  wall per pass: "
        f"{', '.join(f'{w:.4f}' for w in plain.walls)} s")

    log(f"  unscaled: wall_s {sum(plain.medians(False)):.6g} s, setup_s "
        f"{statistics.median(raw_setup):.6g} s")
    if not trace:
        medians = plain.medians()
        item_ms = [t * 1e3 for t in medians[:len(wl.items)]]
        metrics = {
            "wall_s": sum(medians),
            "item_p50_ms": statistics.median(item_ms),
            "item_p90_ms": statistics.quantiles(item_ms, n=10,
                                                 method="inclusive")[-1],
            "decided_frac": 1 - failed / attempted,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {k: END_TO_END_UNITS[k] for k in metrics}
    else:
        tracer = tracing.Tracer()
        api = fresh_import()
        undo = tracing.install(tracer, api)
        try:
            wl = MAKE_WORKLOAD[name](api, seed, load_reference(name), limit)
            setup_totals = tracer.totals()
            tracer.reset()
            traced = run_passes(traced_items(wl, tracer),
                                seconds - untraced_s, wrong)
        finally:
            tracing.uninstall(undo)
        ntraced = len(traced.walls)
        failed = sum(k != {"ok"} or t != {"ok"} for k, t in
                     zip(kinds[:attempted], traced.kinds))
        layer = per_layer(tracer, setup_totals, ntraced)
        layer["trace.overhead_s"] = (
            sum(traced.medians()) - sum(plain.medians()), "s")
        log(f"  traced passes: {ntraced}  wall per pass: "
            f"{', '.join(f'{w:.4f}' for w in traced.walls)} s")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(path, {"workload": name, "seed": seed,
                            "traced_passes": ntraced})
        log(f"  spans written to {path.relative_to(ROOT)}")
        metrics = {k: v for k, (v, _u) in layer.items()}
        units = {k: u for k, (_v, u) in layer.items()}

    for msg in wrong[:20]:
        log(f"  WRONG: {msg}")
    if len(wrong) > 20:
        log(f"  WRONG: ... {len(wrong) - 20} more")
    for key, value in metrics.items():
        log(f"  {key} = {value:.6g} {units[key]}")
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(MAKE_WORKLOAD))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "dcpebble" / "__init__.py").is_file():
        print(f"error: package sources not found at {SRC}", file=sys.stderr)
        return 2
    reference = REFERENCE_DIR / f"{args.workload}.json"
    if not reference.is_file():
        print(f"error: reference not found at {reference}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
