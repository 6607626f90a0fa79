"""Ground-truth oracles: solvability by exhaustive search and exact
pebbling values by quantifying over all configurations of a given size.

These are deliberately simple and independent of the constructive solvers;
they are the reference every other computation is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .graphs import Graph, max_undominated_component
from .pebbling import (
    Certificate,
    Configuration,
    Goal,
    check_sized,
    satisfies_mask,
    support_mask,
)

DEFAULT_STATE_BUDGET = 10_000_000


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solvability query.

    ``solvable`` is True/False for a decided query and None when the state
    budget ran out or the search went deeper than the interpreter's
    recursion limit (an explicitly unknown outcome, never reported as
    unsolvable).  ``certificate`` is present exactly when solvable.
    """

    solvable: bool | None
    certificate: Certificate | None
    states_explored: int

    @property
    def unknown(self) -> bool:
        return self.solvable is None


@dataclass(frozen=True)
class NumberReport:
    """An exact pebbling value, or a proven lower bound.

    ``status`` is ``"exact"`` when the scan finished, ``"cap"`` when the
    size cap was reached with unsolvable configurations still present, and
    ``"budget"`` when the work budget ran out; in the last two cases
    ``value`` is a lower bound.  ``witness`` is a maximum-size unsolvable
    configuration found (size ``value - 1`` when exact).
    """

    value: int
    witness: Configuration | None
    status: str = "exact"
    checked: int = 0


# ---------------------------------------------------------------------------
# configuration enumeration (colexicographic)
# ---------------------------------------------------------------------------

def configurations(n: int, size: int) -> Iterator[Configuration]:
    """All configurations of ``size`` pebbles on ``n`` vertices.

    Enumerated as multisets in colexicographic order, i.e. the count of the
    highest vertex varies slowest.
    """
    counts = [size] + [0] * (n - 1)
    while True:
        yield tuple(counts)
        if counts[-1] == size:
            return
        f = 0
        while not counts[f]:
            f += 1
        # Colex successor: the lowest stack passes one pebble up to the
        # next vertex and drops the rest back onto vertex 0.
        rest = counts[f] - 1
        counts[f] = 0
        counts[0] = rest
        counts[f + 1] += 1


# ---------------------------------------------------------------------------
# single-configuration solvability
# ---------------------------------------------------------------------------

def is_solvable(g: Graph, c: Sequence[int], goal: Goal,
                budget: int = DEFAULT_STATE_BUDGET) -> SolveResult:
    """Decide whether some configuration reachable from ``c`` (including
    ``c`` itself) satisfies ``goal``.

    Depth-first search over the reachability DAG (every move burns one
    pebble, so depth is at most the configuration size) with a memo set of
    visited configurations.  The verdict is independent of exploration
    order; the certificate uses fixed lowest-index move ordering and is
    therefore deterministic.
    """
    check_sized(g, c)
    initial = tuple(int(k) for k in c)
    visited: set[Configuration] = set()
    adj = g.adj
    n = g.n
    over = False

    def dfs(counts: Configuration) -> list[tuple[int, int]] | None:
        nonlocal over
        if satisfies_mask(g, support_mask(counts), goal):
            return []
        if len(visited) >= budget:
            over = True
            return None
        visited.add(counts)
        work = list(counts)
        for u in range(n):
            if work[u] >= 2:
                for v in adj[u]:
                    work[u] -= 2
                    work[v] += 1
                    child = tuple(work)
                    work[u] += 2
                    work[v] -= 1
                    if child not in visited:
                        sub = dfs(child)
                        if sub is not None:
                            sub.append((u, v))
                            return sub
                        if over:
                            return None
        return None

    try:
        moves_rev = dfs(initial)
    except RecursionError:
        # Deeper than the interpreter's stack allows: undecided, like a
        # spent budget.
        return SolveResult(None, None, len(visited))
    states = len(visited)
    if moves_rev is not None:
        cert = Certificate(initial, tuple(reversed(moves_rev)))
        return SolveResult(True, cert, states)
    if over:
        return SolveResult(None, None, states)
    return SolveResult(False, None, states)


# ---------------------------------------------------------------------------
# exact values by ascending size scan
# ---------------------------------------------------------------------------

def default_cap(g: Graph, goal: Goal) -> int:
    """Structural size cap for the ascending scan.

    Domination and subversion use the proven diameter bound on the
    domination cover pebbling number (a subversion solve is never harder
    than a domination solve); full cover uses the stacking value.  A scan
    that exceeds a proven cap has disproved a theorem, which the harness
    treats as a suite failure.
    """
    if goal.kind == "cover":
        return lambda_stacking(g).value
    if g.diameter <= 2:
        return max(g.n - 1, 1)
    return (1 << (g.diameter - 2)) * (g.n - 2) + 1


def pebbling_values(g: Graph, goals: Sequence[Goal], cap: int | None = None,
                    budget: int | None = None) -> list[NumberReport]:
    """Exact values of goals that differ only in omega, from one ascending
    scan over the configurations of each size in colex order.

    A configuration's score is the least deficit reachable from it: the
    largest undominated component, or for cover 1 while some vertex is
    bare.  It is the minimum of its support's score and the scores of the
    configurations one move away, which the previous level holds.  A level
    keeps only scores above the smallest requested omega, so one missing
    from it scores at most that omega.  A configuration is unsolvable for a
    goal iff it scores above the goal's omega: the value is the first size
    with no such configuration, and the witness the colex-last one of the
    size before.

    Adding a pebble never raises the score, so a configuration can be kept
    only if removing any one of its pebbles leaves a kept configuration of
    the previous level.  Only those candidates (the upper shadow of the
    previous level) are scored; every other configuration scores at most
    the smallest omega, so the kept levels equal those of a scan over all
    configurations.

    Domination and subversion goals share a scan; cover scans alone.
    ``checked`` counts scored candidates.  Once it exceeds ``budget`` every
    goal still open gets a ``"budget"`` report, and past ``cap`` (default
    :func:`default_cap`) a ``"cap"`` report.
    """
    if len({goal.kind == "cover" for goal in goals}) != 1:
        raise ValueError("cover goals cannot share a scan with other goals")
    if cap is None:
        cap = default_cap(g, goals[0])
    if cap < 0:
        raise ValueError("cap must be >= 0")
    cover = goals[0].kind == "cover"
    floor = min(goal.omega for goal in goals)
    adj = g.adj
    support_scores: dict[int, int] = {}
    reports: list[NumberReport | None] = [None] * len(goals)
    prev: dict[Configuration, int] = {}
    checked = 0

    def settle(value: int, status: str, most: int = -1) -> list:
        """Report every open goal whose omega is at least ``most``."""
        for i, goal in enumerate(goals):
            if reports[i] is None and goal.omega >= most:
                witness = next((c for c, s in reversed(prev.items())
                                if s > goal.omega), None)
                reports[i] = NumberReport(value, witness, status, checked)
        return reports

    for k in range(cap + 1):
        level: dict[Configuration, int] = {}
        for counts in _upper_shadow(prev, g.n) if k else [(0,) * g.n]:
            checked += 1
            if budget is not None and checked > budget:
                return settle(k, "budget")
            mask = support_mask(counts)
            score = support_scores.get(mask)
            if score is None:
                score = support_scores[mask] = (
                    int(mask != g.full_mask) if cover
                    else max_undominated_component(g, mask))
            # Probe moves by lowest source, then adjacency order, until one
            # leaves the kept set.
            work = list(counts)
            for u, targets in enumerate(adj):
                if score <= floor:
                    break
                if work[u] >= 2:
                    work[u] -= 2
                    for v in targets:
                        work[v] += 1
                        child = prev.get(tuple(work), floor)
                        work[v] -= 1
                        if child < score:
                            score = child
                            if score <= floor:
                                break
                    work[u] += 2
            if score > floor:
                level[counts] = score
        settle(k, "exact", max(level.values(), default=floor))
        if not level:
            return reports
        prev = level
    return settle(cap + 1, "cap")


def _upper_shadow(prev: dict[Configuration, int], n: int
                  ) -> Iterator[Configuration]:
    """Configurations one pebble larger than ``prev`` whose every
    one-pebble-smaller neighbour lies in ``prev``, in colex order.

    Each is built once, from the parent that lacks one pebble on its
    highest occupied vertex v.  ``prev`` is in colex order, so the parents
    whose highest occupied vertex is at most v form a prefix of it, and a
    pebble added at v keeps their order.
    """
    for v in range(n):
        for c in prev:
            if any(c[v + 1:]):
                break
            work = list(c)
            work[v] += 1
            for u in range(v):
                if work[u]:
                    work[u] -= 1
                    below = tuple(work) in prev
                    work[u] += 1
                    if not below:
                        break
            else:
                yield tuple(work)


def pebbling_value(g: Graph, goal: Goal, cap: int | None = None,
                   budget: int | None = None) -> NumberReport:
    """Smallest k such that every configuration of k pebbles solves ``g``
    (see :func:`pebbling_values`)."""
    return pebbling_values(g, (goal,), cap, budget)[0]


# ---------------------------------------------------------------------------
# cover pebbling via the stacking rule
# ---------------------------------------------------------------------------

def stacking_value(g: Graph, target: int) -> int:
    """Cost of covering the whole graph from one stack at ``target``:
    sum over vertices u of 2^dist(u, target)."""
    row = g.dist[target]
    return sum(1 << d for d in row)


def lambda_stacking(g: Graph) -> NumberReport:
    """Cover pebbling number via the stacking rule: the worst initial
    configuration is a single stack, so the value is the maximum over
    vertices v of sum_u 2^dist(u, v).

    The witness is the stack of value-1 pebbles on the maximizing vertex
    (smallest index on ties).  Cross-checked against the brute-force
    oracle at desk scale by the test suite.
    """
    best_v = 0
    best = stacking_value(g, 0)
    for v in range(1, g.n):
        s = stacking_value(g, v)
        if s > best:
            best, best_v = s, v
    witness = tuple(best - 1 if v == best_v else 0 for v in range(g.n))
    return NumberReport(best, witness, "exact", 0)
