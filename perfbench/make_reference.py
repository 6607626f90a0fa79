"""Regenerate reference/<workload>.json, the answers every benchmark run
is checked against.

    python3 perfbench/make_reference.py [--only sweep|families|solve]

Run it on the commit whose answers are to be pinned.  Values come from the
package and are confirmed by an independent implementation in this file:

* an upper-shadow level scan (a size-k configuration can be unsolvable only
  if every one-pebble-smaller one is), which also gives psi of path(8),
  beyond the reach of the package's full enumeration;
* for every solve request, a weight-function test (a move never raises
  sum_v c_v 2^-dist(v,T), and a goal that forces a pebble onto T needs 1)
  and an explicit-stack search with a larger state budget.

A solve entry is ``digest:truth:answer`` where ``truth`` is S (solvable),
U (unsolvable) or ? (neither the package nor the independent search decided
it) and ``answer`` is what the package answered when the reference was
made: S, U, B (state budget exhausted), R (RecursionError) or E (other
error).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402
from workloads import (FAMILY_ITEMS, SWEEP_OMEGAS, SWEEP_ORDERS,  # noqa: E402
                       STATE_BUDGET, VARIANTS)

# State budget of the independent search that settles what the package
# leaves undecided.
CONFIRM_BUDGET = 50_000


class Mismatch(RuntimeError):
    """The package and the independent code disagree."""


def confirm(ok: bool, *what) -> None:
    if not ok:
        raise Mismatch(" ".join(map(str, what)))


# ---------------------------------------------------------------------------
# independent goal predicates and searches
# ---------------------------------------------------------------------------

def goal_predicate(g, goal_name: str):
    n = g.n
    closed = [{v, *g.adj[v]} for v in range(n)]
    if goal_name == "cover":
        return lambda c: min(c) >= 1
    omega = 0 if goal_name == "domination" else int(goal_name[10:])

    def ok(c):
        dom = set()
        for v in range(n):
            if c[v]:
                dom |= closed[v]
        left = set(range(n)) - dom
        while left:
            todo = [left.pop()]
            size = 1
            while todo:
                u = todo.pop()
                for w in g.adj[u]:
                    if w in left:
                        left.discard(w)
                        todo.append(w)
                        size += 1
            if size > omega:
                return False
        return True
    return ok


def forced_targets(g, goal_name: str) -> list[set]:
    """Vertex sets the goal forces to receive a pebble."""
    closed = [{v, *g.adj[v]} for v in range(g.n)]
    if goal_name == "cover":
        return [{v} for v in range(g.n)]
    if goal_name == "domination":
        return closed
    if goal_name == "subversion1":
        return [closed[u] | closed[v] for u in range(g.n) for v in g.adj[u]
                if u < v]
    return []


def weight_proves_unsolvable(g, c, goal_name: str) -> bool:
    top = g.n  # distances are below n, so 2^(top - d) is an integer
    for target in forced_targets(g, goal_name):
        pot = sum(k << (top - min(g.dist[v][t] for t in target))
                  for v, k in enumerate(c) if k)
        if pot < 1 << top:
            return True
    return False


def search(g, c, sat, budget: int):
    """True/False, or None past ``budget`` states; explicit stack."""
    start = tuple(c)
    if sat(start):
        return True
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for u in range(g.n):
            if cur[u] >= 2:
                for v in g.adj[u]:
                    nxt = list(cur)
                    nxt[u] -= 2
                    nxt[v] += 1
                    nxt = tuple(nxt)
                    if nxt in seen:
                        continue
                    if sat(nxt):
                        return True
                    if len(seen) >= budget:
                        return None
                    seen.add(nxt)
                    stack.append(nxt)
    return False


def shadow_value(g, goal_name: str):
    """Exact value and colex-largest maximum unsolvable configuration."""
    n = g.n
    sat = goal_predicate(g, goal_name)
    zero = (0,) * n
    if sat(zero):
        return 0, None
    prev = {zero}
    k = 0
    while True:
        k += 1
        cur = set()
        for base in prev:
            for v in range(n):
                c = base[:v] + (base[v] + 1,) + base[v + 1:]
                if c in cur:
                    continue
                if any(c[w] and c[:w] + (c[w] - 1,) + c[w + 1:] not in prev
                       for w in range(n)):
                    continue
                if sat(c):
                    continue
                if all(_move(c, u, w) in prev
                       for u in range(n) if c[u] >= 2 for w in g.adj[u]):
                    cur.add(c)
        if not cur:
            return k, max(prev, key=lambda c: c[::-1])
        prev = cur


def _move(c, u, w):
    x = list(c)
    x[u] -= 2
    x[w] += 1
    return tuple(x)


# ---------------------------------------------------------------------------
# the three sections
# ---------------------------------------------------------------------------

def sweep_section(api) -> dict:
    records = {}
    for n in SWEEP_ORDERS:
        for line in api.fixtures.connected_graph6_lines(n):
            rec = api.harness.analyze_graph(line, SWEEP_OMEGAS)
            confirm(rec.status == "ok" and not rec.violations, line)
            g = api.graphs.parse_graph6(line)
            for name, got, wit in (
                    ("domination", rec.psi, rec.psi_witness),
                    ("subversion1", rec.omega_values[1], None),
                    ("subversion2", rec.omega_values[2], None)):
                value, witness = shadow_value(g, name)
                confirm(value == got, line, name, value, got)
                if wit is not None:
                    confirm(",".join(map(str, witness)) == wit, line, witness)
            records[line] = {
                "psi": rec.psi, "psi_witness": rec.psi_witness,
                "lambda": rec.lam,
                "omega": {str(k): v for k, v in rec.omega_values.items()},
                "findings": rec.findings}
    return {"records": records}


def families_section(api) -> dict:
    items = {}
    for label, kind, params, goal_name, budget in FAMILY_ITEMS:
        g = api.families.generate(api.families.FamilySpec(kind, params))
        goal = workloads.make_goal(api, goal_name)
        rep = api.solver.pebbling_value(g, goal, budget=budget)
        value, witness = shadow_value(g, goal_name)
        if rep.status == "exact":
            confirm((rep.value, rep.witness) == (value, witness), label)
        else:
            confirm(rep.value <= value, label)
        items[label] = {"value": value, "witness": list(witness),
                        "status_when_pinned": rep.status}
        print(f"families {label}: {value} {rep.status}", file=sys.stderr)
    return {"items": items}


def solve_section(api) -> dict:
    corpus6, graphs = workloads.solve_graphs(api)
    slots = workloads.solve_slots(api, corpus6)
    entries = {}
    tally: Counter = Counter()
    t_start = perf_counter()
    for slot in slots:
        g = graphs[slot.graph_id]
        row = []
        for v in range(VARIANTS):
            config = workloads.make_request(api, slot, g, v)
            answer = _package_answer(api, slot, g, config)
            truth = _independent_answer(g, config, slot, answer)
            tally[answer + truth] += 1
            row.append(f"{workloads.request_digest(slot, config)}:"
                       f"{truth}:{answer}")
        entries[slot.key] = row
    print(f"solve: {len(slots)} slots x {VARIANTS} variants in "
          f"{perf_counter() - t_start:.1f} s; package answer + truth: "
          f"{dict(tally)}",
          file=sys.stderr)
    return {"state_budget": STATE_BUDGET, "entries": entries}


def _package_answer(api, slot, g, config) -> str:
    item = workloads.solve_item(api, slot, g, config, "?")
    try:
        out = item.run()
    except RecursionError:
        return "R"
    except Exception:
        return "E"
    if out.status == "budget":
        return "B"
    verdict, cert, verification = out.value
    if verdict == "S":
        confirm(verification.ok, slot.key)
        confirm(goal_predicate(g, slot.goal)(replay(g, config, cert)),
                slot.key)
    return verdict


def replay(g, config, cert) -> tuple:
    """Final configuration of a certificate, replayed independently."""
    counts = list(config)
    for u, v in cert.moves:
        confirm(v in g.adj[u] and counts[u] >= 2, "illegal move", u, v)
        counts[u] -= 2
        counts[v] += 1
    return tuple(counts)


def _independent_answer(g, config, slot, answer: str) -> str:
    if answer == "S":
        return "S"  # the certificate was replayed by replay()
    if slot.algorithm != "oracle":
        return "?"
    if weight_proves_unsolvable(g, config, slot.goal):
        verdict = "U"
    else:
        found = search(g, config, goal_predicate(g, slot.goal),
                       CONFIRM_BUDGET)
        verdict = {True: "S", False: "U", None: "?"}[found]
    if answer == "U":
        confirm(verdict in "U?", slot.key, config, verdict)
        return "U"
    return verdict


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--only", choices=("sweep", "families", "solve"))
    args = p.parse_args(argv)
    import dcpebble
    api = workloads.import_api(dcpebble)
    (BENCH_DIR / "reference").mkdir(exist_ok=True)
    for name, build in (("sweep", sweep_section),
                        ("families", families_section),
                        ("solve", solve_section)):
        if args.only in (None, name):
            path = BENCH_DIR / "reference" / f"{name}.json"
            path.write_text(json.dumps(build(api), indent=1, sort_keys=True)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
