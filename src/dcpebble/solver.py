"""Ground-truth oracles: solvability by exhaustive search and exact
pebbling values by quantifying over all configurations of a given size.

These are deliberately simple and independent of the constructive solvers;
they are the reference every other computation is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .graphs import Graph, dominated_mask, max_undominated_component
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
    budget ran out (an explicitly unknown outcome, never reported as
    unsolvable).  ``certificate`` is present exactly when solvable.
    ``states_explored`` counts the configurations the search stored: those
    it expanded and those a weight bound pruned.
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

    Depth-first search over the reachability DAG with an explicit stack
    and a set of visited configurations.  Moves are tried by lowest source,
    then adjacency order, and the search descends into the first unvisited
    child, so the certificate is deterministic.  A child whose weight
    bound (see :func:`_potential`) proves it unsolvable is stored as
    visited but not expanded: every configuration reachable from it fails
    the bound too, and every goal configuration meets it, so pruning
    changes neither the verdict nor the first solution found.
    ``states_explored`` counts the stored configurations, pruned ones
    included, and the budget caps it.
    """
    check_sized(g, c)
    initial = tuple(int(k) for k in c)
    if satisfies_mask(g, support_mask(initial), goal):
        return SolveResult(True, Certificate(initial), 0)
    if budget <= 0:
        return SolveResult(None, None, 0)
    pot, guard, deltas = _potential(g, initial, goal)
    visited = {initial}
    if pot & guard != guard:
        return SolveResult(False, None, 1)
    adj = g.adj
    stack = [_children(list(initial), pot, adj, deltas)]
    moves: list[tuple[int, int]] = []  # the move into each stack frame
    while stack:
        for child, pot, u, v in stack[-1]:
            if child in visited:
                continue
            live = pot & guard == guard
            if live and satisfies_mask(g, support_mask(child), goal):
                moves.append((u, v))
                return SolveResult(True, Certificate(initial, tuple(moves)),
                                   len(visited))
            if len(visited) >= budget:
                return SolveResult(None, None, len(visited))
            visited.add(child)
            if live:
                moves.append((u, v))
                stack.append(_children(list(child), pot, adj, deltas))
                break
        else:
            stack.pop()
            if moves:
                moves.pop()
    return SolveResult(False, None, len(visited))


def _children(work: list[int], pot: int, adj, deltas
              ) -> Iterator[tuple[Configuration, int, int, int]]:
    """Each configuration one move from ``work``, with its packed potential
    and the move (u, v), by lowest source, then adjacency order."""
    for u, targets in enumerate(adj):
        if work[u] >= 2:
            work[u] -= 2
            for v, delta in zip(targets, deltas[u]):
                work[v] += 1
                yield tuple(work), pot + delta, u, v
                work[v] -= 1
            work[u] += 2


# Connected sets counted before a subversion goal is left without a bound.
_MAX_TARGET_SETS = 1024


def _targets(g: Graph, goal: Goal) -> list[tuple[list[int], int]]:
    """Vertex weights 2^(diam - dist(v, T)) and need of each target T.

    Weight function lemma: a move never raises sum_v c_v 2^-dist(v, T), so
    a configuration whose sum is below what every goal configuration has
    is unsolvable.  Domination and subversion(omega) need a pebble on the
    closed neighbourhood of every connected (omega + 1)-set, which would
    otherwise be undominated (only the inclusion-minimal ones are kept);
    cover needs a pebble on every vertex, so target {t} needs the sum over
    all vertices.
    """
    top = g.diameter
    if goal.kind == "cover":
        rows = [[1 << (top - d) for d in g.dist[t]] for t in range(g.n)]
        return [(row, sum(row)) for row in rows]
    sets = {1 << v for v in range(g.n)}
    for _ in range(goal.omega):
        grown = set()
        for s in sets:
            rim = dominated_mask(g, s) & ~s
            while rim:
                low = rim & -rim
                grown.add(s | low)
                rim ^= low
        if len(grown) > _MAX_TARGET_SETS:
            return []
        sets = grown
    minimal: list[int] = []
    for mask in sorted({dominated_mask(g, s) for s in sets},
                       key=lambda m: (m.bit_count(), m)):
        if all(m & mask != m for m in minimal):
            minimal.append(mask)
    return [([1 << (top - min(d for t, d in enumerate(g.dist[v])
                              if mask >> t & 1))
              for v in range(g.n)], 1 << top)
            for mask in minimal]


# The width grows with the configuration size, so a graph and goal take a
# few entries; this holds a few hundred graph-goal pairs without eviction.
@lru_cache(maxsize=1024)
def _packed_weights(g: Graph, goal: Goal, w: int
                    ) -> tuple[tuple[int, ...], int, int,
                               tuple[tuple[int, ...], ...]]:
    """Every target's weights packed into one int, ``w`` bits a target.

    Returns per-vertex weights, the base (2^(w-1) - need in each field),
    the guard (bit w-1 of each field) and the potential change of each
    move, indexed like ``g.adj``.
    """
    half = 1 << (w - 1)
    weights = [0] * g.n
    base = guard = 0
    for i, (row, need) in enumerate(_targets(g, goal)):
        shift = w * i
        base += (half - need) << shift
        guard |= half << shift
        for v, x in enumerate(row):
            weights[v] += x << shift
    deltas = tuple(tuple(weights[v] - 2 * weights[u] for v in targets)
                   for u, targets in enumerate(g.adj))
    return tuple(weights), base, guard, deltas


def _potential(g: Graph, c: Configuration, goal: Goal
               ) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """Packed slack (potential minus need) of ``c`` for every target of
    ``goal``, the guard bits and the per-move deltas.

    Each field holds slack + 2^(w-1), and ``w`` leaves room for any slack
    of a configuration of at most ``c``'s size, so no field borrows from or
    carries into its neighbour, and its top bit is set exactly when the
    slack is non-negative: the bound proves ``c`` unsolvable iff
    ``pot & guard != guard``.
    """
    w = ((max(sum(c), g.n) + 2) << g.diameter).bit_length() + 1
    weights, pot, guard, deltas = _packed_weights(g, goal, w)
    for k, x in zip(c, weights):
        if k:
            pot += k * x
    return pot, guard, deltas


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
