"""Ground-truth oracles: solvability by exhaustive search and exact
pebbling values by quantifying over all configurations of a given size.

These are deliberately simple and independent of the constructive solvers;
they are the reference every other computation is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
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
# What a reverse move costs the box scan against a colex child (see
# pebbling_values).
_REVERSE_COST = 4


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
    the target's need.  A weight is at most 2^diam and a need at most
    n*2^diam, so slacks lie at or above -n*2^diam and below 2^bits*2^diam,
    no field over- or underflows, and the bounds prove ``x`` unsolvable
    iff ``x & guard != guard``.  A pebble on v adds ``weights[v]``.

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
    goals of one omega keeps such a candidate with no move probed, and
    keeps its box's data in ``box`` (:meth:`box_scan`).
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
        # Set here: the scans' hot loops read ``weights`` and ``steps`` per
        # pattern and vertex, and a cached_property, which writes __dict__,
        # made every single-omega scan 3-7% slower on CPython 3.11.
        self.box = None

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

    def targets(self) -> list[tuple[list[int], int]]:
        """Each target's ``(row, need)``, read back off ``weights`` and
        ``base``: the slack fields start where the count fields end, and
        the lowest guard bit is the first one's top bit."""
        if not self.guard:
            return []
        shift = self.high.bit_length()
        s = (self.guard & -self.guard).bit_length() - shift
        mask, built = (1 << s) - 1, []
        for _ in range(self.guard.bit_count()):
            built.append(([x >> shift & mask for x in self.weights],
                          (1 << s - 1) - (self.base >> shift & mask)))
            shift += s
        return built

    def box_scan(self, g: Graph) -> tuple:
        """The box scan's data (:func:`pebbling_values`) for this packing of
        ``g``, which has a target, built on the first call: ``top`` = max_T
        ceil(need_T / mu_T), mu_T being T's least weight; the targets; for
        each vertex w the deltas 2 weights[u] - weights[w], u adjacent to w,
        of the reverse moves y - e_w + 2 e_u; and a dict in which scans file
        :func:`_limits` by size.  The box test needs no masks: one addition
        on the whole int carries out of a count field iff x leaves the box,
        a field's carry-in being the carry out of the one below."""
        if self.box is None:
            targets = self.targets()
            top = max(-(-need // min(row)) for row, need in targets)
            w = self.weights
            into = tuple(tuple(2 * w[u] - w[v] for u in g.adj[v])
                         for v in range(g.n))
            self.box = top, targets, into, {}
        return self.box

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


def _tight_caps(g: Graph, targets: list[tuple[list[int], int]],
                k: int) -> list[float]:
    """M_k(u) for each vertex u: the most pebbles u can hold in a tight
    configuration of k pebbles, one that meets every target's need while
    each legal move's child falls below one (``inf`` if unbounded).

    A move u -> v can drop T's weight sum below its need only if 2 w(u) >
    w(v), and then only from a sum below need + 2 w(u) - w(v).  With m
    pebbles on u and the other k - m weighing at least T's least weight
    mu each, that needs m (w(u) - mu) < need + 2 w(u) - w(v) - k mu; a T
    with w(u) = mu and a positive right-hand side leaves m unbounded.  So
    u holds at most 1 pebble, or for every neighbour v the largest m that
    some such T allows.  Each term falls as k grows, and an unbounded one
    ends once its right-hand side is no longer positive.
    """
    inf, caps = float("inf"), []
    bounds = [(row, need, min(row)) for row, need in targets]
    for u in range(g.n):
        most_u = inf
        for v in g.adj[u]:
            # The largest m that some target allows for the move u -> v.
            # Once it reaches most_u, v cannot lower the minimum.
            most_v = -1
            for row, need, low in bounds:
                w = row[u]
                gap = 2 * w - row[v]
                if gap > 0:
                    room = need + gap - k * low
                    if w > low:
                        m = (room - 1) // (w - low)
                        if m > most_v:
                            most_v = m
                            if m >= most_u:
                                break
                    elif room > 0:
                        most_v = inf
                        break
            if most_v < most_u:
                most_u = most_v
                if most_u <= 1:
                    break
        caps.append(max(1, most_u))
    return caps


def _limits(g: Graph, p: _Packing, k: int) -> tuple[int, int]:
    """Box_k of a packing, the configurations with x_u <= m_u on every
    vertex u, m_u being M_k(u) (:func:`_tight_caps`) cut to a field's
    largest count ``most``: ``(lift, least)``, ``lift`` holding most - m_u
    in u's count field and ``least`` the least m_u.  x lies outside iff
    ``(x + lift ^ x ^ lift) & ends`` is non-zero, ``ends = p.high << 1``
    being the bottom bit of the field above each count field: the carry
    into it is the carry out of the field below, whatever that field
    holds, so the lowest field with x_u > m_u carries, and none carries
    while none is over."""
    lift, cut = 0, []
    caps = _tight_caps(g, p.box_scan(g)[1], k)
    for v, (unit, field, _) in enumerate(p.fields):
        most = field // unit
        cut.append(min(caps[v], most))
        lift += (most - cut[v]) * unit
    return lift, min(cut)


def _last_refuted(targets: list[tuple[list[int], int]], n: int,
                  size: int) -> Configuration:
    """The colex-last configuration of ``size`` pebbles that some target's
    need refutes, found greedily from vertex n - 1: each vertex takes the
    most pebbles that still leave some target refuted by its cheapest
    completion, the rest of the pebbles on its lightest vertex below.
    Such a configuration exists when size * mu < need for some target."""
    counts, spent, rest = [0] * n, [0] * len(targets), size
    for u in range(n - 1, 0, -1):
        if not rest:
            break
        most = 0
        for i, (row, need) in enumerate(targets):
            below = min(row[:u])
            # m pebbles on u are refuted iff m * step < room
            step, room = row[u] - below, need - spent[i] - rest * below
            if rest * step < room:
                most = rest
                break
            if step > 0 and room > 0:
                most = max(most, (room - 1) // step)
        counts[u] = most
        rest -= most
        for i, (row, _) in enumerate(targets):
            spent[i] += most * row[u]
    counts[0] = rest
    return tuple(counts)


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
    occupied vertices, so a child ``y`` is unsolvable iff it fails a bound
    or is in ``prev``; each other candidate probes its moves that way,
    up to the first solvable child.  Both tests are exact, so up to the
    level where it switches to its box (below), the kept set, ``checked``
    and every budget trip are those of the same scan with no bound.  A
    level's emptiness and its witness come from its pattern lists, which
    hold every kept configuration; the empty configuration is ``p.base``.
    A scan of several omegas packs no bound: its candidates compare the
    children's scores.

    Past level n, such a scan may drop most of what the bounds prove.  Let
    U_k be the unsolvable configurations of k pebbles, R_k those that pass
    every bound (``prev``'s level), and Box_k those with x_u <= M_k(u) on
    every vertex u, M being :func:`_tight_caps` of the same bounds.  Call
    a configuration tight if it passes every bound while each legal move's
    child fails one.  A member x of R_k is tight, or has a child that
    passes every bound; that child is unsolvable, so x is a reverse move y
    - e_w + 2 e_u of some y in R_k-1, w occupied in y and u adjacent to w.
    A tight configuration of k pebbles lies in Box_k, and no M_k(u) rises
    with k, so the colex parent of a member of U_k in Box_k is a member of
    U_k-1 in Box_k, as removing a pebble keeps a configuration unsolvable.
    So from a switch level on, the box scan keeps only R_k, and U_k in
    Box_k filed by pattern, and by induction misses none of either.  Its
    candidates at level k are the colex children of the filed members in
    Box_k (:func:`_inside` drops the others at the level's start), through
    the loop above, and the reverse moves of R_k-1 outside Box_k, each
    once, through a per-candidate path: the occupied bits give the support
    score and ``sources`` the legal row.  A reverse move never lowers a
    weight sum, so it passes every bound.  One in Box_k needs no test: its
    colex parent is filed if unsolvable, so the loop has it, and it is
    solvable otherwise.  A member c with c_v = M_k(v) on its top vertex v
    has one colex child outside Box_k, c + e_v, decided like the others;
    if it is also a reverse move of R_k-1, the path examines it again.
    The box test is one addition on the whole packed int: x lies outside
    Box_k iff ``(x + lift ^ x ^ lift) & ends``, the carry out of each
    count field, is non-zero, as a field's bottom bit takes the carry out
    of the field below, whatever that field holds (:func:`_limits`).

    The scan decides once per level k > n, cheapest test first, and never
    switches back, as the configurations dropped cannot come back.  It
    does not switch for a packing without targets.  With alpha =
    ``_REVERSE_COST``, it switches when some M_k(u) < k - 1, so that a
    member of U_k-1 can lie outside Box_k; alpha |R_k-1| sum_u deg(u) < n
    |U_k-1|; and alpha times the reverse moves of R_k-1 plus the colex
    children of its filed members in Box_k is below the candidates of the
    scan without its box, sum_c n - top(c) over U_k-1.  A reverse move,
    duplicates and moves into the box included, cost 1.0 to 1.7 colex
    children, measured on brute lambda of tail_clique(2, 3) and path(7)
    and psi of tail_clique(2, 4), path(8) and path(9); alpha = 4 is set
    above that as a switch commits every later level to the reverse
    moves.  Of alpha from 1 to 8, 4 was the fastest or within 2% of it on
    perfbench's families scans, and 6% slower than 1 on psi of path(9).
    With R_k-1 empty and no filed member in Box_k there are no candidates,
    so the scan switches and ends there: nothing is kept from level k on,
    and every unsolvable configuration of k pebbles or more fails a bound.
    Some configuration of j pebbles fails target T's bound iff j mu_T <
    need_T, mu_T being T's least weight, so the value is the larger of
    top = max_T ceil(need_T / mu_T) and 1 + the last level that kept
    anything, or ``cap + 1`` with status ``"cap"`` when that exceeds
    ``cap``.  The witness at j pebbles is the colex-larger of the
    colex-last member kept at level j and, when j < top, the colex-last
    configuration of j pebbles that fails a bound (:func:`_last_refuted`):
    the colex-last member of U_j, as every unsolvable configuration the
    box dropped fails a bound, and before the switch nothing is dropped.

    Kept configurations are filed by pattern, ``occupied | sources << n``:
    the mask of the vertices holding a pebble and the top count bits of
    those holding two.  A candidate's pattern is c's with v added to the
    occupied vertices if v is above c's top, or to the sources if v is
    the top.  So two rows, each built once per scan and fetched once per
    pattern and v, serve all its candidates: the support score, by
    occupied mask, and the legal moves, by sources (:meth:`_Packing.legal`).

    Domination and subversion goals share a scan; cover scans alone.
    ``checked`` counts the candidates the scan examines: 1 for the empty
    configuration plus, for each filed c of a level below the last one
    enumerated, its candidates c + e_v, n - top(c) of them, and in its
    box each reverse move that reaches the per-candidate path.  Once it
    exceeds ``budget`` every goal still open gets a ``"budget"`` report
    with ``checked = budget + 1``, and past ``cap`` (default
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
    box = None  # Box_k's limits once the scan has switched to it
    top = 0  # some configuration of each size below top fails a bound

    def score(occupied: int) -> int:
        """The support score of ``occupied``, on a miss in ``scores``."""
        return (int(occupied != g.full_mask) if cover
                else max_undominated_component(g, occupied))

    def settle(value: int, status: str, most: int = -1) -> list:
        """Report every open goal whose omega is at least ``most``."""
        for i, goal in enumerate(goals):
            if reports[i] is None and goal.omega >= most:
                if single:
                    # The colex-last of value - 1 pebbles that fails a
                    # bound: filed before the switch, maybe dropped after.
                    dropped = ([p.pack(_last_refuted(targets, n, value - 1))]
                               if 0 < value <= top else [])
                    kept = (x & counts
                            for x in chain(prev, *filed.values(), dropped))
                else:
                    kept = (x for x, s in prev.items() if s > goal.omega)
                last = max(kept, default=None)
                witness = None if last is None else p.unpack(last)
                reports[i] = NumberReport(value, witness, status, checked)
        return reports

    checked = 1  # level 0: the empty configuration, which has no moves
    if budget is not None and budget < 1:
        return settle(0, "budget")
    base, x = score(0), p.base  # the empty configuration
    scores = {0: base}  # support scores by occupied mask
    groups = {0: [x]} if base > floor else {}  # kept configurations by pattern
    level = {x: base} if groups and x & guard == guard else {}
    if single and guard:
        top, targets, into, sizes = p.box_scan(g)
        low, high, two, ends = p.low, p.high, p.two, p.high << 1
        masks: dict[int, int] = {}  # occupied vertices by their top count bits
        backs: dict[int, tuple] = {}  # reverse-move deltas by occupied mask
        degrees = _REVERSE_COST * 2 * len(g.edges)  # alpha sum_u deg(u)
    for k in range(1, cap + 2):
        if not groups and box is None:
            return settle(k - 1, "exact")
        if not single:
            settle(k - 1, "exact", max(level.values()))
        elif guard and k > n and (box or degrees * len(level) < n * sum(
                map(len, groups.values()))):
            limits = sizes.get(k)
            if limits is None:
                limits = sizes[k] = _limits(g, p, k)
            lift, least = limits
            switch, boxed = box is not None, None
            if not switch and least < k - 1:
                cost = 0
                for occ in level.values():
                    row = backs.get(occ)
                    if row is None:
                        row = backs[occ] = _reverse(into, occ)
                    cost += _REVERSE_COST * len(row)
                today = _width(n, groups)
                if cost < today:
                    boxed = _inside(groups, lift, ends)
                    switch = cost + _width(n, boxed) < today
            if switch:
                box = limits
                if boxed is None:
                    boxed = _inside(groups, lift, ends)
                if not level and not boxed:
                    # Nothing is kept from here on: the value and witness
                    # come from the last level that kept anything.
                    last = k - 1 if groups else k - 2
                    value = min(max(top, last + 1), cap + 1)
                    if value > last + 1:
                        prev, filed = {}, {}
                    elif groups:
                        prev, filed = level, groups
                    return settle(value, "exact" if value <= cap else "cap")
                groups = boxed
        prev, filed, level, groups = level, groups, {}, {}
        if k > cap:
            break
        # Filed members take their children c + e_v from v = top(c) on,
        # the empty configuration from v = 0.
        for pattern, group in filed.items():
            occ, src = pattern & full, pattern >> n
            for v in range((occ.bit_length() or 1) - 1, n):
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
                    base = scores[occupied] = score(occupied)
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
                                level[x] = occupied
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
                        least = base
                        for delta, _ in row:
                            child = prev.get(x + delta, floor)
                            if child < least:
                                least = child
                                if least <= floor:
                                    break
                        if least > floor:
                            level[x] = least
                            if members is None:
                                members = groups.setdefault(
                                    occupied | sources << n, [])
                            members.append(x)
        if not box:
            continue
        # The reverse moves of prev's members outside the box, each once,
        # one candidate at a time; no bound refutes one (see above).
        seen: set[int] = set()
        for y, occ in prev.items():
            row = backs.get(occ)
            if row is None:
                row = backs[occ] = _reverse(into, occ)
            for delta in row:
                x = y + delta
                if x in seen or not (x + lift ^ x ^ lift) & ends:
                    continue
                seen.add(x)
                checked += 1
                if budget is not None and checked > budget:
                    checked = budget + 1
                    return settle(k, "budget")
                key = x & counts
                lit = ((key & low) + low | key) & high
                occupied = masks.get(lit)
                if occupied is None:
                    occupied = masks[lit] = p.support(key)
                base = scores.get(occupied)
                if base is None:
                    base = scores[occupied] = score(occupied)
                if base <= floor:
                    continue
                t = key & two
                sources = ((t & low) + low | t) & high
                moves = legal.get(sources)
                if moves is None:
                    moves = legal[sources] = p.legal(sources)
                for step, _ in moves:
                    z = x + step
                    if z & guard == guard and z not in prev:
                        break
                else:
                    level[x] = occupied
    return settle(cap + 1, "cap")


def _inside(groups: dict[int, list[int]], lift: int,
            ends: int) -> dict[int, list[int]]:
    """The members c of ``groups`` in Box_k, by pattern: no count field
    carries out, ``(c + lift ^ c ^ lift) & ends`` is zero; exact as each
    field's carry-in is the carry out of the one below (:func:`_limits`)."""
    kept = {pattern: [c for c in group if not (c + lift ^ c ^ lift) & ends]
            for pattern, group in groups.items()}
    return {pattern: group for pattern, group in kept.items() if group}


def _width(n: int, groups: dict[int, list[int]]) -> int:
    """The colex children of the members c of ``groups``, n - top(c) each."""
    occupied = (1 << n) - 1
    return sum(len(group) * (n + 1 - (pattern & occupied).bit_length())
               for pattern, group in groups.items())


def _reverse(into: tuple, occupied: int) -> tuple[int, ...]:
    """The reverse-move deltas of :meth:`_Packing.box_scan`'s ``into`` of
    every vertex in ``occupied``."""
    return tuple(d for w, deltas in enumerate(into) if occupied >> w & 1
                 for d in deltas)


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
