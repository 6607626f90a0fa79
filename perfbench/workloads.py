"""Inputs, item runners and correctness checks of the three workloads.

Every item calls the package through module attributes looked up at call
time (``api.solver.is_solvable`` and so on), so the traced run sees the
wrappers that :mod:`tracing` installs in those module namespaces.

An item's ``run`` returns an :class:`Outcome`.  Outcomes that are not
``ok`` are failures: they are counted and kept, never raised.  ``check``
compares an outcome that carries a result with the pinned reference and
returns a message for a wrong answer, which fails the whole run.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import random
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable

SWEEP_ORDERS = (5, 6)
SWEEP_OMEGAS = (1, 2)

# psi of path(8) (= 73) runs under this configuration budget.  A full colex
# enumeration up to level 73 needs about 2.9e10 configurations and stops at
# it; an upper-shadow scan needs fewer than 750,000 candidates however they
# are counted, so such a scan finishes the item.
PATH8_BUDGET = 1_000_000

# State budget of every is_solvable request in the solve workload.
STATE_BUDGET = 2_500
# Pinned variants per solve slot; --seed picks one variant per slot.
VARIANTS = 8


@dataclass
class Outcome:
    status: str                 # "ok" or a failure kind
    value: Any = None           # the program's result, if it returned one
    detail: str = ""            # the exception, for a failure that raised


@dataclass
class Item:
    label: str
    order: int
    run: Callable[[], Outcome]
    check: Callable[[Outcome], str | None]
    meta: dict = field(default_factory=dict)    # goal, algorithm


@dataclass
class Workload:
    name: str
    items: list[Item]
    # Called once per pass with the outcomes of the pass, inside the timed
    # region; returns a message for a wrong answer or None.
    finish: Callable[[list[Outcome]], str | None] | None = None
    mix: dict = field(default_factory=dict)


def order_band(n: int) -> str:
    return "<=6" if n <= 6 else ("7-9" if n <= 9 else ">=10")


def import_api(module) -> SimpleNamespace:
    """Module objects of the package, as the items use them."""
    names = ("graphs", "pebbling", "solver", "constructive", "families",
             "fixtures", "harness")
    return SimpleNamespace(
        root=module,
        **{n: importlib.import_module(f"dcpebble.{n}") for n in names})


# ---------------------------------------------------------------------------
# sweep: the shipped order-5 and order-6 corpora through analyze_graph
# ---------------------------------------------------------------------------

def build_sweep(api, seed: int, ref: dict, limit: int | None = None
                ) -> Workload:
    lines = []
    for n in SWEEP_ORDERS:
        lines.extend(api.fixtures.connected_graph6_lines(n))
    if limit is not None:
        lines = lines[:limit]
    records_ref = ref["records"]
    items = []
    for line in lines:
        expect = records_ref[line]

        def run(line=line):
            rec = api.harness.analyze_graph(line, SWEEP_OMEGAS)
            return Outcome(rec.status, rec)  # "ok" or "unknown"

        def check(out, line=line, expect=expect):
            rec = out.value
            if rec.violations:
                return f"{line}: proven-bound violation {rec.violations}"
            if out.status != "ok":
                return None
            got = {"psi": rec.psi, "psi_witness": rec.psi_witness,
                   "lambda": rec.lam,
                   "omega": {str(k): v for k, v in rec.omega_values.items()},
                   "findings": rec.findings}
            if got != expect:
                return f"{line}: got {got}, reference {expect}"
            return None

        order = api.graphs.parse_graph6(line).n
        items.append(Item(line, order, run, check))

    def finish(outcomes: list[Outcome]) -> str | None:
        records = [o.value for o in outcomes if o.value is not None]
        text = api.harness.emit_csv(records, SWEEP_OMEGAS)
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != len(records):
            return (f"emit_csv wrote {len(rows)} rows for {len(records)} "
                    "records")
        for row, rec in zip(rows, records):
            want = {"graph": rec.graph_id, "psi": _cell(rec.psi),
                    "omega_1": _cell(rec.omega_values.get(1)),
                    "omega_2": _cell(rec.omega_values.get(2))}
            if {k: row.get(k) for k in want} != want:
                return f"emit_csv row {row} disagrees with record {want}"
        return None

    return Workload("sweep", items, finish,
                    {"graphs": len(items),
                     "per order band": _count(order_band(i.order)
                                              for i in items)})


def _cell(v) -> str:
    return "" if v is None else str(v)


# ---------------------------------------------------------------------------
# families: exact values of the hard named families
# ---------------------------------------------------------------------------

# (label, family kind, params, goal, budget)
FAMILY_ITEMS = (
    ("psi binary-tree 2", "binary-tree", (2,), "domination", None),
    ("psi path 6", "path", (6,), "domination", None),
    ("psi tail-clique 2 4", "tail-clique", (2, 4), "domination", None),
    ("lambda-brute tail-clique 2 3", "tail-clique", (2, 3), "cover", None),
    ("psi path 8 (budget)", "path", (8,), "domination", PATH8_BUDGET),
)


def build_families(api, seed: int, ref: dict, limit: int | None = None
                   ) -> Workload:
    items = []
    specs = FAMILY_ITEMS if limit is None else FAMILY_ITEMS[:limit]
    for label, kind, params, goal_name, budget in specs:
        g = api.families.generate(api.families.FamilySpec(kind, params))
        goal = make_goal(api, goal_name)
        expect = ref["items"][label]

        def run(g=g, goal=goal, budget=budget):
            rep = api.solver.pebbling_value(g, goal, budget=budget)
            return Outcome("ok" if rep.status == "exact" else rep.status, rep)

        def check(out, label=label, expect=expect):
            rep = out.value
            if out.status != "ok":
                # A scan stopped by its budget or cap still reports a
                # lower bound, which must be sound.
                if rep.value > expect["value"]:
                    return (f"{label}: lower bound {rep.value} exceeds the "
                            f"exact value {expect['value']}")
                return None
            got = [rep.value, list(rep.witness) if rep.witness else None]
            if got != [expect["value"], expect["witness"]]:
                return f"{label}: got {got}, reference {expect}"
            return None

        items.append(Item(label, g.n, run, check, {"goal": goal_name}))
    return Workload("families", items, None,
                    {"items": len(items),
                     "per goal": _count(i.meta["goal"] for i in items)})


# ---------------------------------------------------------------------------
# solve: seeded single requests, as `dcpebble solve` serves them
# ---------------------------------------------------------------------------

ORACLE_GOALS = ("domination", "subversion1", "cover")
# Families of order 7..15 queried by the oracle.
ORACLE_FAMILIES = (
    ("path", (7,)), ("path", (11,)), ("cycle", (9,)), ("cycle", (13,)),
    ("binary-tree", (2,)), ("binary-tree", (3,)), ("tail-clique", (2, 4)),
    ("tail-clique", (3, 3)), ("apex-pendant-clique", (9, 1)),
    ("star-leaf-path", (10, 2)), ("wheel", (8,)), ("multipartite", (2, 3, 4)),
)
# Size bands per (graph, goal): each band is one slot drawing its size from
# its share of [cap/4, cap], so every seed gets the same spread of sizes.
CORPUS_BANDS = 4
FAMILY_BANDS = 16
CONSTRUCTIVE_REPS = 2
DIAM2_FAMILIES = (
    ("star", (8,)), ("wheel", (9,)), ("multipartite", (2, 3, 4)),
    ("star-leaf-path", (12, 2)), ("complete", (10,)), ("star", (24,)),
    ("wheel", (20,)), ("multipartite", (6, 6, 6)),
    ("star-leaf-path", (20, 3)), ("complete", (16,)),
)
# Diameter-2 families whose minimum degree exceeds ceil((n-1)/2).
SPREAD_FAMILIES = (
    ("complete", (10,)), ("complete", (16,)), ("multipartite", (2, 3, 4)),
    ("multipartite", (6, 6, 6)), ("multipartite", (3, 3, 3, 3)),
)
DIAMD_FAMILIES = (
    ("tail-clique", (2, 4)), ("tail-clique", (4, 5)), ("tail-clique", (8, 4)),
    ("tail-clique", (10, 3)), ("path", (10,)), ("path", (14,)),
    ("cycle", (12,)), ("cycle", (20,)), ("binary-tree", (3,)),
    ("apex-pendant-clique", (20, 2)),
)


def make_goal(api, name: str):
    p = api.pebbling
    if name == "domination":
        return p.DOMINATION
    if name == "cover":
        return p.FULL_COVER
    if name.startswith("subversion"):
        return p.subversion(int(name[len("subversion"):]))
    raise ValueError(name)


@dataclass(frozen=True)
class Slot:
    key: str            # stable name, also the reference key
    algorithm: str      # oracle, diam2, spread, subv2, diamd, diamd_noinv
    goal: str           # goal the answer is checked against
    graph_id: str       # graph6 line or "kind p1 p2"
    stacked: bool       # pebbles stacked on 1-3 vertices, else dropped
    band: int = 0       # oracle size band, of ``bands``
    bands: int = 1


def solve_slots(api, corpus6: list) -> list[Slot]:
    """The fixed request list.  Its composition does not depend on the
    seed; the seed only picks among pinned variants of each slot."""
    slots = []

    def oracle(graph_id: str, bands: int) -> None:
        for goal in ORACLE_GOALS:
            for j in range(bands):
                slots.append(Slot(f"oracle/{graph_id}/{goal}/{j}", "oracle",
                                  goal, graph_id, True, j, bands))

    def constructive(algo: str, goal: str, fams, reps: int) -> None:
        for j in range(reps):
            for kind, params in fams:
                fam = _fam_id(kind, params)
                slots.append(Slot(f"{algo}/{fam}/{goal}/{j}", algo, goal,
                                  fam, j % 2 == 0))

    for g in corpus6:
        if g.diameter >= 3:
            oracle(api.graphs.emit_graph6(g), CORPUS_BANDS)
    for kind, params in ORACLE_FAMILIES:
        oracle(_fam_id(kind, params), FAMILY_BANDS)
    r = CONSTRUCTIVE_REPS
    constructive("diam2", "domination", DIAM2_FAMILIES, 3 * r)
    constructive("spread", "domination", SPREAD_FAMILIES, 4 * r)
    for omega in (1, 2):
        constructive("subv2", f"subversion{omega}", DIAM2_FAMILIES, 2 * r)
    constructive("diamd", "domination", DIAMD_FAMILIES, 3 * r)
    constructive("diamd_noinv", "domination", DIAMD_FAMILIES, 3 * r)
    return slots


def _fam_id(kind: str, params: tuple) -> str:
    return " ".join([kind, *map(str, params)])


def _threshold(slot: Slot, g) -> int:
    """Smallest size the constructive solver of ``slot`` guarantees."""
    if slot.algorithm == "diam2":
        return g.n - 1
    if slot.algorithm == "spread":
        return (4 * g.n - 2 * g.min_degree() - 3) // 3
    if slot.algorithm == "subv2":
        return g.n - 1 - int(slot.goal[len("subversion"):])
    return (1 << (g.diameter - 2)) * (g.n - 2) + 1


def make_request(api, slot: Slot, g, variant: int) -> tuple:
    """The configuration of one pinned variant of ``slot`` on ``g``."""
    rng = random.Random(f"{slot.key}/{variant}")
    if slot.algorithm == "oracle":
        cap = api.solver.default_cap(g, make_goal(api, slot.goal))
        lo = max(1, cap // 4)
        width = cap - lo
        size = rng.randint(lo + slot.band * width // slot.bands,
                           lo + (slot.band + 1) * width // slot.bands)
    else:
        size = _threshold(slot, g) + rng.randint(0, 3)
    if not slot.stacked:
        return api.families.random_configuration(g.n, size, rng)
    stacks = rng.sample(range(g.n), rng.randint(1, min(3, g.n)))
    cuts = sorted(rng.randint(0, size) for _ in range(len(stacks) - 1))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, size])]
    counts = [0] * g.n
    for v, k in zip(stacks, parts):
        counts[v] = k
    return tuple(counts)


def request_digest(slot: Slot, config: tuple) -> str:
    text = f"{slot.key}|{','.join(map(str, config))}"
    return hashlib.sha1(text.encode()).hexdigest()[:8]


def solve_graphs(api) -> tuple[list, dict]:
    """Order-6 corpus graphs and every family graph the slots name."""
    corpus6 = [api.graphs.parse_graph6(line)
               for line in api.fixtures.connected_graph6_lines(6)]
    graphs = {api.graphs.emit_graph6(g): g for g in corpus6}
    for kind, params in {*ORACLE_FAMILIES, *DIAM2_FAMILIES,
                         *SPREAD_FAMILIES, *DIAMD_FAMILIES}:
        graphs[_fam_id(kind, params)] = api.families.generate(
            api.families.FamilySpec(kind, params))
    return corpus6, graphs


def pick_variants(seed: int, nslots: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(VARIANTS) for _ in range(nslots)]


def build_solve(api, seed: int, ref: dict, limit: int | None = None
                ) -> Workload:
    corpus6, graphs = solve_graphs(api)
    slots = solve_slots(api, corpus6)
    variants = pick_variants(seed, len(slots))
    picked = list(zip(slots, variants))
    if limit is not None:
        # Trimmed runs keep every algorithm: the first slots of each.
        kept: Counter = Counter()
        trimmed = []
        for slot, v in picked:
            kept[slot.algorithm] += 1
            if kept[slot.algorithm] <= limit:
                trimmed.append((slot, v))
        picked = trimmed
    items = []
    for slot, v in picked:
        g = graphs[slot.graph_id]
        config = make_request(api, slot, g, v)
        digest, truth = ref["entries"][slot.key][v].split(":")[:2]
        if digest != request_digest(slot, config):
            raise RuntimeError(
                f"request {slot.key}/{v} differs from the pinned reference")
        items.append(solve_item(api, slot, g, config, truth))
    return Workload("solve", items, None, _solve_mix(items))


def solve_item(api, slot: Slot, g, config: tuple, truth: str) -> Item:
    goal = make_goal(api, slot.goal)
    algo = slot.algorithm

    def run():
        if algo == "oracle":
            res = api.solver.is_solvable(g, config, goal,
                                         budget=STATE_BUDGET)
            if res.solvable is None:
                return Outcome("budget")
            if not res.solvable:
                return Outcome("ok", ("U", None, None))
            cert = res.certificate
        else:
            c = api.constructive
            if algo == "diam2":
                cert = c.solve_diameter2(g, config)
            elif algo == "spread":
                cert = c.spread_diameter2(g, config)
            elif algo == "subv2":
                cert = c.solve_subversion_diameter2(g, config, goal.omega)
            else:
                cert = c.solve_diameter_d(
                    g, config, check_invariants=algo == "diamd")
        verdict = api.constructive.verify_certificate(g, cert, goal)
        return Outcome("ok", ("S", cert, verdict))

    def check(out):
        if out.status != "ok":
            return None
        verdict, _cert, verification = out.value
        if verification is not None and not verification.ok:
            return (f"{slot.key}: certificate rejected "
                    f"({verification.reason})")
        if truth != "?" and verdict != truth:
            return f"{slot.key}: verdict {verdict}, reference {truth}"
        return None

    return Item(f"{slot.key} [{','.join(map(str, config))}]", g.n, run,
                check, {"algorithm": algo, "goal": slot.goal})


def _solve_mix(items: list[Item]) -> dict:
    return {
        "requests": len(items),
        "per algorithm": _count(i.meta["algorithm"] for i in items),
        "oracle per goal": _count(i.meta["goal"] for i in items
                                  if i.meta["algorithm"] == "oracle"),
        "per order band": _count(order_band(i.order) for i in items),
    }


def _count(keys) -> dict:
    return dict(sorted(Counter(keys).items()))


MAKE_WORKLOAD = {"sweep": build_sweep, "families": build_families,
            "solve": build_solve}
