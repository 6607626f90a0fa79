"""Ground-truth oracles: solvability by exhaustive search and exact
pebbling values by quantifying over all configurations of a given size.

These are deliberately simple and independent of the constructive solvers;
they are the reference every other computation is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .families import psi_upper_bound
from .graphs import Graph, dominated_mask, max_undominated_component
from .pebbling import (
    Certificate,
    Configuration,
    Goal,
    PebblingMove,
    check_configuration,
    satisfies_mask,
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
    of (configuration, iterator over its legal steps) and a set of visited
    configurations.  Each configuration is one int that also carries the
    slack of every weight bound (see :class:`_Packing` and
    :func:`_targets`), so a move is one addition; the visited set keeps
    only the count fields, as the slacks follow from the counts, and the
    goal test and the legal steps read those fields alone.  The goal
    verdict is kept per pattern of occupied fields: cover holds iff every
    field is occupied, so it reads the occupied bits, and the other goals
    test the support mask.  A
    configuration's legal steps come from the packing's move
    table, keyed by which sources hold two pebbles: one dict lookup per
    expanded configuration once its pattern has been seen.  A step is a
    pair ``(delta, (u, v))`` whose move tuple the table builds once, so
    the path's moves share it and the search builds no move.  Moves are
    tried by lowest source, then adjacency order, and the search descends
    into the first unvisited child, so the certificate is deterministic.
    A child whose weight bound proves it unsolvable is stored as visited,
    with no goal test, and not expanded: every configuration reachable from it fails the
    bound too, and every goal configuration meets it, so pruning changes
    neither the verdict nor the first solution found.  ``states_explored``
    counts the stored configurations, pruned ones included, and the
    budget caps it.  ``c`` may be any iterable of counts; one that is not
    a non-negative int raises :class:`PebblingError`.
    """
    initial = check_configuration(g, c)
    p = _packing(g, goal, sum(initial).bit_length())
    guard, low, high, two = p.guard, p.low, p.high, p.two
    counts, cover = high | low, goal.kind == "cover"
    met: dict[int, bool] = {}  # goal verdict by occupied count fields
    legal: dict[int, tuple] = {}  # legal steps by sources holding two
    visited: set[int] = set()  # count fields: the slacks follow from them
    moves: list[PebblingMove] = []  # the path's moves, dummy first
    # The root enters from 0 by a dummy step and is handled like any child.
    stack = [(0, iter(((p.pack(initial), (-1, -1)),)))]
    while stack:
        parent, steps = stack[-1]
        for delta, move in steps:
            x = parent + delta
            key = x & counts
            if key in visited:
                continue
            if x & guard != guard:  # pruned: stored, never expanded
                if len(visited) >= budget:
                    return SolveResult(None, None, len(visited))
                visited.add(key)
                continue
            occupied = ((key & low) + low | key) & high
            meets = met.get(occupied)
            if meets is None:
                meets = met[occupied] = (
                    occupied == high if cover
                    else satisfies_mask(g, p.support(key), goal))
            if meets:
                solution = Certificate(initial, (*moves, move)[1:])
                return SolveResult(True, solution, len(visited))
            if len(visited) >= budget:
                return SolveResult(None, None, len(visited))
            visited.add(key)
            moves.append(move)
            t = key & two
            sources = ((t & low) + low | t) & high
            row = legal.get(sources)
            if row is None:
                row = legal[sources] = p.legal(sources)
            stack.append((x, iter(row)))
            break
        else:
            stack.pop()
            if moves:
                moves.pop()
    return SolveResult(False, None, len(visited))


# Connected sets counted before a subversion goal is left without a bound.
_MAX_TARGET_SETS = 1024
# Work on exact needs per graph and goal, in requirement sets visited (see
# _targets); past it a target keeps its greedy need.
_MAX_HIT_WORK = 50_000


def _targets(g: Graph, goal: Goal) -> list[tuple[list[int], int]]:
    """Vertex weights 2^(diam - dist(v, T)) and need of each target T.

    Weight function lemma: w(v) <= 2 w(u) on every edge, so a move never
    raises sum_v c_v w(v), and a configuration whose sum is below what
    every goal configuration has is unsolvable.  A goal configuration
    weighs at least its support, a vertex set that meets the goal, so the
    need is the least weight sum_{v in S} w(v) of a vertex set S that
    meets the goal.  A checker re-derives it as that minimum over the
    goal-meeting vertex sets, and a greedy need (below) is at most that
    minimum.  The goal-meeting sets are the sets S that meet every
    requirement set: the closed neighbourhood of each connected
    (omega + 1)-set, which would otherwise be undominated (only the
    inclusion-minimal ones are kept; domination has omega 0), or {v} for
    every vertex v under cover, where the need is the sum of all weights.
    With no connected (omega + 1)-set, every support meets the goal and
    there is no target.

    Otherwise a branch and bound finds the need (see ``need`` below).
    Its lower bound is the greedy packing: the lightest weights of
    pairwise disjoint requirement sets, taken heaviest first, added up,
    which no goal-meeting set undercuts.  The search gets
    ``_MAX_HIT_WORK`` per graph and goal; a target reached after that is
    spent keeps its greedy need, which is sound but may be lower.

    The targets are the requirement sets; every far side {v : dist(a, v)
    >= r} of a vertex a, for r = 1 .. diam; and, under cover, every pair
    of vertices at least max(2, diam - 1) apart, the union of two
    requirement sets that far apart.  The other goals have no such union:
    each of their requirement sets holds a closed neighbourhood N[x], and
    N[x] and N[y] lie within max(0, dist(x, y) - 2) <= diam - 2 <
    max(2, diam - 1) of each other.
    """
    n, top = g.n, g.diameter
    if goal.kind == "cover":
        required = [1 << v for v in range(n)]
    else:
        sets = {1 << v for v in range(n)}
        for _ in range(goal.omega):
            grown = set()
            for s in sets:
                rim = dominated_mask(g, s) & ~s
                while rim:
                    low = rim & -rim
                    grown.add(s | low)
                    rim ^= low
            if not grown or len(grown) > _MAX_TARGET_SETS:
                return []
            sets = grown
        required = []
        for mask in sorted({dominated_mask(g, s) for s in sets},
                           key=lambda m: (m.bit_count(), m)):
            if all(m & mask != m for m in required):
                required.append(mask)

    targets = dict.fromkeys(required)
    for dist in g.dist:
        for r in range(1, max(dist) + 1):
            targets[sum(1 << v for v, d in enumerate(dist) if d >= r)] = None
    if goal.kind == "cover":
        gap = max(2, top - 1)
        for a, dist in enumerate(g.dist):
            for b in range(a + 1, n):
                if dist[b] >= gap:
                    targets[1 << a | 1 << b] = None

    # Each requirement set as (mask, the bit of its index, its vertices);
    # hits[v] has the bits of the sets holding v.
    every, indexed, hits = (1 << len(required)) - 1, [], [0] * n
    for i, m in enumerate(required):
        vs = [v for v in range(n) if m >> v & 1]
        indexed.append((m, 1 << i, vs))
        for v in vs:
            hits[v] |= 1 << i
    work = _MAX_HIT_WORK

    def need(row: list[int]) -> int:
        """Least weight of a vertex set meeting every requirement set, or
        the greedy packing once the work limit is spent.

        The packing takes the sets heaviest first (by lightest weight, then
        index) and adds the lightest weight of each one disjoint from those
        taken.  A greedy hitting set, where each unmet set in that order
        takes its vertex meeting the most unmet sets per weight, is the
        first upper bound.  A search node (weight spent, unmet sets,
        allowed vertices) is bounded below by the spent weight plus the
        packing of its unmet sets on the allowed vertices, in the same
        order: at the root, the greedy need.  It branches on the unmet set
        with the fewest allowed vertices, b of them, lightest vertex first,
        each later branch barring the vertices taken before it, so in the
        i-th child every unmet set keeps b - i + 1 >= 1 allowed vertices
        and none runs out.  The upper bound and each node cost
        ``len(required)`` of the work.  The search ends when the upper
        bound meets the greedy need.
        """
        nonlocal work
        weigh = row.__getitem__
        order = sorted([(min(map(weigh, vs)), m, bit, vs)
                        for m, bit, vs in indexed], key=lambda s: -s[0])
        greedy = used = 0
        for light, m, _, _ in order:
            if not m & used:
                greedy += light
                used |= m
        if work <= 0:
            return greedy
        work -= len(order)
        best, unmet = 0, every
        for _, _, bit, vs in order:
            if unmet & bit:
                v = max(vs, key=lambda v: (hits[v] & unmet).bit_count()
                        / row[v])
                best += row[v]
                unmet &= ~hits[v]
        stack = [(0, every, g.full_mask)]
        while stack and best > greedy:
            if work <= 0:
                return greedy
            work -= len(order)
            spent, unmet, allowed = stack.pop()
            bound, used, fewest, branch = spent, 0, n + 1, ()
            for light, m, bit, vs in order:
                if unmet & bit:
                    s = m & allowed
                    if s != m:
                        vs = [v for v in vs if allowed >> v & 1]
                        light = min(map(weigh, vs))
                    if len(vs) < fewest:
                        fewest, branch = len(vs), vs
                    if not s & used:
                        used |= s
                        bound += light
                        if bound >= best:
                            break
            if bound >= best:
                continue
            if not unmet:
                best = spent
                continue
            children, barred = [], 0
            for v in sorted(branch, key=weigh):
                children.append((spent + row[v], unmet & ~hits[v],
                                 allowed & ~barred))
                barred |= 1 << v
            stack.extend(reversed(children))
        return best

    built = []
    for mask in targets:
        # Ring by ring from T: a vertex at distance d weighs 2^(diam - d),
        # and the rings stop growing at weight 1.
        row, near, ring, weight = [0] * n, mask, mask, 1 << top
        while ring:
            rim = ring
            while rim:
                low = rim & -rim
                row[low.bit_length() - 1] = weight
                rim ^= low
            weight >>= 1
            ring = dominated_mask(g, ring) & ~near if weight else 0
            near |= ring
        built.append((row, sum(row) if goal.kind == "cover" else need(row)))
    return built


class _Packing:
    """Configurations of fewer than 2^bits pebbles on ``g`` as one int.

    ``fields[v]`` is (unit, mask, 1 << v) of vertex v's count field, which
    is ``bits`` bits wide (at least 1).  Above the counts, each target of
    ``goal`` (see :func:`_targets`; none for ``None``) has an s-bit field
    holding its slack + 2^(s-1), where the slack is the weight sum minus
    the need: the least weight of a vertex set that meets the goal, found
    by branch and bound, or, where the search's work limit ran out, the
    greedy packing of disjoint requirement sets that bounds it below; a
    checker re-derives the least weight over the goal-meeting vertex sets
    and finds the need at or below it.  A weight is at most 2^diam and a
    need at most n*2^diam, so slacks lie at or above -n*2^diam and below
    2^bits*2^diam, no field over- or underflows, and the bounds prove
    ``x`` unsolvable iff ``x & guard != guard``.  A pebble on v adds
    ``weights[v]``.

    The top bit of every non-zero count field is set in ``occupied =
    ((x & low) + low | x) & high``.  The same carry on ``t = x & two``,
    the count bits worth 2 or more, gives ``sources = ((t & low) + low |
    t) & high``: the top bit of every field holding two pebbles or more,
    so of every vertex that can fire (none when fields are 1 bit wide, as
    ``two`` is then 0).  The move table ``steps`` holds, for each vertex
    u, the top bit of u's field and a step ``(delta, (u, v))`` for each v
    in ``g.adj[u]``, where ``delta`` is what the move u -> v adds to
    ``x``; the move tuple ``(u, v)`` is built once, here.
    :meth:`legal` lists the steps of one ``sources`` pattern; callers
    keep the tuples it builds in a dict by pattern, so a configuration
    finds its legal moves with one lookup.

    Two callers share a packing through :func:`_packing`:
    :func:`is_solvable` stores a configuration that fails the guard and
    never expands it, and the level scan of :func:`pebbling_values` over
    goals of one omega keeps such a candidate with no move probed.
    """

    def __init__(self, g: Graph, goal: Goal | None, bits: int):
        n, w = g.n, max(bits, 1)
        s = max(bits, n.bit_length()) + g.diameter + 1
        self.fields = tuple((1 << w * v, ((1 << w) - 1) << w * v, 1 << v)
                            for v in range(n))
        weights = [unit for unit, _, _ in self.fields]
        base = guard = 0
        for i, (row, need) in enumerate(_targets(g, goal) if goal else ()):
            shift = w * n + s * i
            base += ((1 << s - 1) - need) << shift
            guard |= 1 << shift + s - 1
            for v, x in enumerate(row):
                weights[v] += x << shift
        self.weights, self.base, self.guard = tuple(weights), base, guard
        ones = sum(unit for unit, _, _ in self.fields)
        self.high = ones << w - 1
        self.low = self.high - ones
        self.two = ones * ((1 << w) - 2)
        self.steps = tuple(
            (unit << w - 1, tuple((weights[v] - 2 * weights[u], (u, v))
                                  for v in g.adj[u]))
            for u, (unit, _, _) in enumerate(self.fields))

    def legal(self, sources: int) -> tuple[tuple[int, PebblingMove], ...]:
        """The steps of every source whose top count bit is in ``sources``,
        by lowest source, then adjacency."""
        legal: tuple[tuple[int, PebblingMove], ...] = ()
        for top, row in self.steps:
            if sources & top:
                legal += row
        return legal

    def support(self, x: int) -> int:
        """Bitmask of the vertices that hold a pebble in ``x``."""
        mask = 0
        for _, field, bit in self.fields:
            if x & field:
                mask |= bit
        return mask

    def pack(self, c: Sequence[int]) -> int:
        return self.base + sum(k * x for k, x in zip(c, self.weights) if k)

    def unpack(self, x: int) -> Configuration:
        return tuple((x & field) // unit for unit, field, _ in self.fields)


# The widths grow with the configuration size, so a graph and goal take a
# few entries; this holds a few hundred graph-goal pairs without eviction.
_packing = lru_cache(maxsize=1024)(_Packing)


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
    return psi_upper_bound(g.n, g.diameter) if g.n > 1 else 1


def pebbling_values(g: Graph, goals: Sequence[Goal], cap: int | None = None,
                    budget: int | None = None) -> list[NumberReport]:
    """Exact values of goals that differ only in omega, from one ascending
    scan over the configurations of each size.

    A configuration's score is the least deficit reachable from it: the
    largest undominated component, or for cover 1 while some vertex is
    bare; it is the minimum of its support's score and the scores one move
    away, in the previous level.  A level keeps the scores above the least
    omega asked for, and a goal's value is the first size with none above
    its omega; its witness is the colex-last one of the size before, the
    one with the largest count fields (see :class:`_Packing`).

    The candidates of level k are c + e_v for a kept c of level k - 1 and
    v at or above c's highest occupied vertex, each configuration once.
    Their move probes decide them.  No configuration is missed: a pebble
    never raises a score, so one that scores above the floor has its
    colex parent x - e_top (one pebble fewer on its highest occupied
    vertex) among the kept, and the score recurrence is exact by itself.

    When every goal asks for the same omega, a kept score is only ever
    compared with that omega, so the kept configurations of a level are
    exactly its unsolvable ones, and a candidate is kept iff its support
    score is above omega and every child is unsolvable.  Such a scan
    packs with its goal's weight bounds, in the oracle's layout
    (:func:`_packing`), and ``x & guard != guard`` proves ``x``
    unsolvable: a move never raises a weight sum, and a configuration
    that meets the goal weighs at least each target's need.  So a
    candidate that fails a bound is kept with no move probed.  ``prev``
    holds only the kept configurations that pass every bound, with their
    support scores, so a child ``y`` is unsolvable iff it fails a bound
    or is in ``prev``; each other candidate probes its moves that way,
    up to the first solvable child.  Both tests are exact, so the kept
    set, ``checked`` and every budget trip are those of the same scan
    with no bound.  A level's emptiness and its witness come from its
    pattern lists, which hold every kept configuration; the empty
    configuration is ``p.base``.  A scan of several omegas packs no
    bound: its candidates compare the children's scores.

    Kept configurations are filed by pattern, ``occupied | sources << n``:
    the mask of the vertices holding a pebble and the top count bits of
    those holding two.  A candidate's pattern is c's with v added to the
    occupied vertices if v is above c's top, or to the sources if v is
    the top.  So two rows, each built once per scan and fetched once per
    pattern and v, serve all its candidates: the support score, by
    occupied mask, and the legal moves, by sources (:meth:`_Packing.legal`).

    Domination and subversion goals share a scan; cover scans alone.
    ``checked`` counts every enumerated candidate: 1 for the empty
    configuration plus, for each kept c, the n - top(c) candidates c + e_v.
    Once it exceeds ``budget`` every goal still open gets a ``"budget"``
    report with ``checked = budget + 1``, and past ``cap`` (default
    :func:`default_cap`) a ``"cap"`` report.
    """
    if not goals:
        raise ValueError("pebbling_values needs at least one goal")
    if len({goal.kind == "cover" for goal in goals}) != 1:
        raise ValueError("cover goals cannot share a scan with other goals")
    if cap is None:
        cap = default_cap(g, goals[0])
    if cap < 0:
        raise ValueError("cap must be >= 0")
    cover = goals[0].kind == "cover"
    floor = min(goal.omega for goal in goals)
    single = all(goal.omega == floor for goal in goals)
    n, full = g.n, g.full_mask
    p = _packing(g, goals[0] if single else None, cap.bit_length())
    guard, counts = p.guard, p.high | p.low
    legal: dict[int, tuple] = {}  # legal steps by sources holding two
    reports: list[NumberReport | None] = [None] * len(goals)
    prev: dict[int, int] = {}
    filed: dict[int, list[int]] = {}

    def settle(value: int, status: str, most: int = -1) -> list:
        """Report every open goal whose omega is at least ``most``."""
        for i, goal in enumerate(goals):
            if reports[i] is None and goal.omega >= most:
                kept = ((x & counts for group in filed.values() for x in group)
                        if single else
                        (x for x, s in prev.items() if s > goal.omega))
                last = max(kept, default=None)
                witness = None if last is None else p.unpack(last)
                reports[i] = NumberReport(value, witness, status, checked)
        return reports

    checked = 1  # level 0: the empty configuration, which has no moves
    if budget is not None and budget < 1:
        return settle(0, "budget")
    score, x = 1 if cover else n, p.base  # g is one undominated component
    # kept configurations by pattern; support scores by occupied mask
    groups = {0: [x]} if score > floor else {}
    level = {x: score} if groups and x & guard == guard else {}
    scores = {0: score}
    for k in range(1, cap + 2):
        if not groups:
            return settle(k - 1, "exact")
        if not single:
            settle(k - 1, "exact", max(level.values()))
        prev, filed, level, groups = level, groups, {}, {}
        if k > cap:
            break
        for pattern, group in filed.items():
            occ, src = pattern & full, pattern >> n
            for v in range(max(occ.bit_length() - 1, 0), n):
                checked += len(group)
                if budget is not None and checked > budget:
                    checked = budget + 1
                    return settle(k, "budget")
                bit = 1 << v
                if occ & bit:  # v is the top and becomes a source
                    occupied, sources = occ, src | p.steps[v][0]
                else:  # v joins the occupied vertices
                    occupied, sources = occ | bit, src
                base = scores.get(occupied)
                if base is None:
                    base = scores[occupied] = (
                        int(occupied != full) if cover else
                        max_undominated_component(g, occupied))
                if base <= floor:
                    continue
                row = legal.get(sources)
                if row is None:
                    row = legal[sources] = p.legal(sources)
                unit, members = p.weights[v], None
                # Probe moves by lowest source, then adjacency order,
                # until one leaves the kept set.
                if single:
                    for c in group:
                        x = c + unit
                        if x & guard == guard:  # the bounds leave x open
                            for delta, _ in row:
                                y = x + delta
                                if y & guard == guard and y not in prev:
                                    break
                            else:
                                level[x] = base
                                if members is None:
                                    members = groups.setdefault(
                                        occupied | sources << n, [])
                                members.append(x)
                            continue
                        # the bounds prove x unsolvable: kept unprobed
                        if members is None:
                            members = groups.setdefault(
                                occupied | sources << n, [])
                        members.append(x)
                else:
                    for c in group:
                        x = c + unit
                        score = base
                        for delta, _ in row:
                            child = prev.get(x + delta, floor)
                            if child < score:
                                score = child
                                if score <= floor:
                                    break
                        if score > floor:
                            level[x] = score
                            if members is None:
                                members = groups.setdefault(
                                    occupied | sources << n, [])
                            members.append(x)
    return settle(cap + 1, "cap")


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
    values = [stacking_value(g, v) for v in range(g.n)]
    best = max(values)
    best_v = values.index(best)
    witness = tuple(best - 1 if v == best_v else 0 for v in range(g.n))
    return NumberReport(best, witness, "exact", 0)
