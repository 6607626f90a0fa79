"""Constructive solvers with certificate output.

Each solver realizes one of the structural arguments behind the diameter
bounds as an executable algorithm: it takes a configuration at or above the
relevant size threshold and emits an explicit move sequence whose terminal
support meets the goal.  Every "choose some vertex" step is resolved with
lowest-index tie-breaking so certificates are reproducible.  Before any
precondition, each solver passes its configuration through the gate that
``is_solvable`` uses, :func:`~dcpebble.pebbling.check_configuration`: a
wrong length, or a count that is not an int or is negative, raises
PebblingError.  One diameter-2 engine serves both domination and
subversion: it runs on the whole graph and, for subversion, sets the
omega lowest-indexed remote vertices aside itself.

The diameter-d solver carries its full bookkeeping state and can assert the
eight running invariants that make its accounting sound; a violation is an
implementation bug and is surfaced loudly, never papered over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, dominated_mask, support_mask
from .pebbling import (
    Certificate,
    Configuration,
    Goal,
    PebblingMove,
    check_configuration,
    clumping_number,
    replay_moves,
    satisfies_mask,
)


class PreconditionError(ValueError):
    """A solver was called outside its guaranteed regime."""


class InvariantViolation(RuntimeError):
    """The solver's internal accounting broke: an implementation bug."""


# ---------------------------------------------------------------------------
# cover partition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverPartition:
    """Three-way split of the vertices relative to a configuration.

    ``covered`` holds at least one pebble; ``fringe`` is uncovered but
    adjacent to a covered vertex; ``remote`` is everything else.  The
    remote set is exactly the set of undominated vertices.
    """

    covered: frozenset[int]
    fringe: frozenset[int]
    remote: frozenset[int]


def partition_covered(g: Graph, c: Sequence[int]) -> CoverPartition:
    return CoverPartition(*map(frozenset,
                               _split(g, check_configuration(g, c))))


def _split(g: Graph, counts: Sequence[int]
           ) -> tuple[list[int], list[int], list[int]]:
    """The covered, fringe and remote vertices of ``counts``, each
    ascending."""
    cov = support_mask(counts)
    dom = dominated_mask(g, cov)
    return (_members(g, cov), _members(g, dom & ~cov),
            _members(g, g.full_mask & ~dom))


def _members(g: Graph, mask: int) -> list[int]:
    """The vertices of ``mask``, ascending."""
    return [v for v in range(g.n) if mask >> v & 1]


# ---------------------------------------------------------------------------
# certificate verification (independent of all solvers)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failed_step: int | None = None
    reason: str = "ok"
    final: Configuration | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(g: Graph, cert: Certificate,
                       goal: Goal) -> VerificationResult:
    """Replay a certificate move by move and check the terminal goal.

    The moves are replayed by :func:`~dcpebble.pebbling.replay_moves`,
    which shares no code with the solvers.  Never raises for an invalid
    certificate of the right size: an illegal move yields a failed result
    carrying the offending step index.
    """
    counts = list(check_configuration(g, cert.initial))
    illegal = replay_moves(g, counts, cert.moves)
    if illegal is not None:
        return VerificationResult(False, illegal[0], "illegal-move")
    final = tuple(counts)
    if not satisfies_mask(g, support_mask(final), goal):
        return VerificationResult(False, None, "goal-not-met", final)
    return VerificationResult(True, None, "ok", final)


# ---------------------------------------------------------------------------
# diameter <= 2: direct domination
# ---------------------------------------------------------------------------

def _require_diameter2(g: Graph) -> None:
    if g.diameter > 2:
        raise PreconditionError(
            f"graph has diameter {g.diameter}, needs at most 2")


def _require_pebbles(c: Configuration, need: int, formula: str) -> None:
    size = sum(c)
    if size < need:
        raise PreconditionError(
            f"needs at least {formula} = {need} pebbles, got {size}")


def _is_dominated(g: Graph, counts: list[int], v: int) -> bool:
    return bool(support_mask(counts) & g.closed_masks[v])


def _move(g: Graph, counts: list[int], moves: list[PebblingMove],
          src: int, dst: int) -> None:
    if counts[src] < 2 or not g.is_edge(src, dst):
        raise InvariantViolation(f"illegal internal move {src}->{dst}")
    counts[src] -= 2
    counts[dst] += 1
    moves.append((src, dst))


def _relay(g: Graph, counts: list[int], moves: list[PebblingMove],
           covered: list[int], z: int, least: int = 2) -> None:
    """Dominate z, which has no pebble in its closed neighbourhood, by
    spending a pair from the first covered source holding at least
    ``least`` pebbles (at least 2 if none holds that many) onto that
    source's lowest common neighbour with z.  On diameter at most 2 every
    such source is exactly 2 away from z."""
    srcs = [w for w in covered if counts[w] >= 2]
    if not srcs:
        raise InvariantViolation(
            f"no pair left to dominate vertex {z}; accounting is wrong")
    w = next((w for w in srcs if counts[w] >= least), srcs[0])
    if g.dist[w][z] != 2:
        raise InvariantViolation(
            f"source {w} at distance {g.dist[w][z]} from {z}; expected 2")
    _move(g, counts, moves, w, min(g.adj_sets[w] & g.adj_sets[z]))


def _dominate_core(g: Graph, counts: list[int],
                   omega: int = 0) -> list[PebblingMove]:
    """Shared engine of the diameter-2 bounds: drive ``counts`` to a
    configuration whose support dominates every vertex of ``g`` except
    the ``omega`` lowest-indexed undominated (remote) vertices, which it
    sets aside.

    A set-aside vertex is adjacent to no covered vertex, so it is never a
    source, a target or a middle vertex, and no distance the engine
    measures (from an originally covered vertex, at most 2) runs through
    it.
    """
    covered, fringe, remote = _split(g, counts)
    aside = sum(1 << v for v in remote[:omega])
    remote = remote[omega:]
    moves: list[PebblingMove] = []
    if not remote:
        return moves

    if len(fringe) <= len(remote):
        # Cover fringe vertices one pair each from adjacent sources while
        # pairs are within reach.
        for v in fringe:
            srcs = [w for w in g.adj[v] if counts[w] >= 2]
            if srcs:
                _move(g, counts, moves, min(srcs), v)
    else:
        # Dominate each remote vertex by covering a vertex between it and
        # a source, spending pairs from 3-or-more stacks first so sources
        # stay covered as long as possible.
        for v in remote:
            if not _is_dominated(g, counts, v):
                _relay(g, counts, moves, covered, v, least=3)
    # Leftover fringe vertices, and any whose source went dark, sit at
    # distance 2 from every remaining pair; one pair each dominates them.
    for z in fringe:
        if not _is_dominated(g, counts, z):
            _relay(g, counts, moves, covered, z)

    if dominated_mask(g, support_mask(counts)) | aside != g.full_mask:
        raise InvariantViolation("terminal support fails to dominate")
    return moves


def solve_diameter2(g: Graph, c: Sequence[int]) -> Certificate:
    """Dominating certificate for any configuration of at least n-1 pebbles
    on a graph of diameter at most 2 (order at least 2).

    Splits on whether the fringe or the remote side is larger and spends
    the guaranteed spare pairs accordingly; empty certificate when the
    input already dominates.
    """
    initial = check_configuration(g, c)
    if g.n < 2:
        raise PreconditionError("needs at least 2 vertices")
    _require_diameter2(g)
    _require_pebbles(initial, g.n - 1, "n-1")
    moves = _dominate_core(g, list(initial))
    return Certificate(initial, tuple(moves))


def spread_diameter2(g: Graph, c: Sequence[int]) -> Certificate:
    """Greedy spreading certificate for dense diameter-2 graphs.

    While some vertex holds at least three pebbles and has an unoccupied
    neighbor, moves one pair there (lowest-index source, then lowest-index
    target).  With minimum degree above ceil((n-1)/2) and at least
    floor((4n-2m-3)/3) pebbles the terminal support dominates.
    """
    initial = check_configuration(g, c)
    _require_diameter2(g)
    n = g.n
    m = g.min_degree()
    if not m > -(-(n - 1) // 2):
        raise PreconditionError(
            f"minimum degree {m} not above ceil((n-1)/2) = {-(-(n - 1) // 2)}")
    _require_pebbles(initial, (4 * n - 2 * m - 3) // 3, "floor((4n-2m-3)/3)")
    counts = list(initial)
    moves: list[PebblingMove] = []
    while True:
        step = None
        for u in range(n):
            if counts[u] >= 3:
                for v in g.adj[u]:
                    if counts[v] == 0:
                        step = (u, v)
                        break
                if step:
                    break
        if step is None:
            break
        _move(g, counts, moves, *step)
    if dominated_mask(g, support_mask(counts)) != g.full_mask:
        raise InvariantViolation("spread terminated without dominating")
    return Certificate(initial, tuple(moves))


# ---------------------------------------------------------------------------
# diameter d >= 3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverState:
    """Snapshot of the diameter-d solver after ``step`` iterations.

    ``covered`` holds the pebbled vertices, ``heavy`` those with at least
    2^(d-2)+1 pebbles (enough to ship a pebble anywhere within distance
    d-2 and stay covered), ``pending`` the uncovered vertices still under
    consideration and ``retired`` the uncovered vertices already dominated
    and parked at full distance d from every heavy vertex.
    """

    counts: Configuration
    covered: frozenset[int]
    heavy: frozenset[int]
    pending: frozenset[int]
    retired: frozenset[int]
    step: int


def check_solver_state(g: Graph, state: SolverState, initial: Configuration,
                       moves: Sequence[PebblingMove],
                       initial_pending: int) -> None:
    """Assert the eight running invariants of the diameter-d solver.

    Raises :class:`InvariantViolation` naming every failed condition:

    1. pending and retired vertices hold no pebbles, covered ones do;
    2. clumping potential covers the pending deficit:
       chi(counts) >= 2^(d-2) * (|pending| - 1);
    3. |pending| <= initial_pending - step;
    4. heavy is exactly the set of vertices with >= 2^(d-2)+1 pebbles;
    5. retired vertices sit at distance d from every heavy vertex, and
       some vertex realizes distance d from the retired set;
    6. covered, pending, retired partition the vertex set;
    7. every retired vertex is dominated;
    8. the move log replays legally (every vertex in range, endpoints
       adjacent, two pebbles at each source) from the initial
       configuration to counts.
    """
    d = g.diameter
    clump = 1 << (d - 2)
    counts = state.counts
    failed: list[str] = []

    if not all(counts[v] == 0 for v in state.pending | state.retired) or \
            not all(counts[v] > 0 for v in state.covered):
        failed.append("1 (pebble placement)")
    if clumping_number(counts, d) < clump * (len(state.pending) - 1):
        failed.append("2 (clumping potential)")
    if len(state.pending) > initial_pending - state.step:
        failed.append("3 (pending shrinks each step)")
    if state.heavy != frozenset(v for v in range(g.n)
                                if counts[v] >= clump + 1):
        failed.append("4 (heavy set definition)")
    if state.retired:
        if state.heavy:
            dist_hr = min(g.dist[u][v]
                          for u in state.heavy for v in state.retired)
            if dist_hr != d:
                failed.append("5 (heavy-retired distance)")
        if max(min(g.dist[v][w] for w in state.retired)
               for v in range(g.n)) != d:
            failed.append("5 (retired eccentricity)")
    sets = (state.covered, state.pending, state.retired)
    union = state.covered | state.pending | state.retired
    if union != frozenset(range(g.n)) or \
            sum(len(s) for s in sets) != g.n:
        failed.append("6 (partition)")
    dominated = dominated_mask(g, support_mask(counts))
    if any(not dominated >> v & 1 for v in state.retired):
        failed.append("7 (retired dominated)")
    replay = list(initial)
    if len(replay) != g.n or replay_moves(g, replay, moves) is not None \
            or tuple(replay) != counts:
        failed.append("8 (reachability by replay)")

    if failed:
        raise InvariantViolation(
            f"solver state invalid at step {state.step}: "
            + "; ".join(failed))


def _lex_shortest_path(g: Graph, src: int, dst: int) -> list[int]:
    """Lexicographically smallest shortest path, built greedily: from each
    vertex step to its lowest-index neighbor closer to the target."""
    path = [src]
    cur = src
    while cur != dst:
        r = g.dist[cur][dst]
        nxt = min(w for w in g.adj[cur] if g.dist[w][dst] == r - 1)
        path.append(nxt)
        cur = nxt
    return path


def _cascade(g: Graph, counts: list[int], moves: list[PebblingMove],
             path: list[int]) -> None:
    """Ship 2^(len(path)-1) pebbles from the head of ``path``, delivering
    exactly one at the tail.  Intermediate vertices end with no net change."""
    hops = len(path) - 1
    for i in range(hops):
        for _ in range(1 << (hops - 1 - i)):
            _move(g, counts, moves, path[i], path[i + 1])


def solve_diameter_d(g: Graph, c: Sequence[int],
                     check_invariants: bool = True) -> Certificate:
    """Dominating certificate for a configuration of at least
    2^(d-2)*(n-2)+1 pebbles on a graph of diameter d >= 3.

    Repeatedly spends one clump of 2^(d-2) pebbles from a heavy vertex:
    directly onto a pending vertex within distance d-2 when one exists,
    otherwise relayed to distance d-2 along a full-length path and then
    split onto a neighbor of the far pending vertex, which is thereby
    dominated and retired.  With ``check_invariants`` the eight conditions
    of :func:`check_solver_state` are asserted after every iteration.
    """
    initial = check_configuration(g, c)
    d = g.diameter
    if d < 3:
        raise PreconditionError(f"graph has diameter {d}, needs at least 3")
    clump = 1 << (d - 2)
    _require_pebbles(initial, clump * (g.n - 2) + 1, "2^(d-2)*(n-2)+1")

    counts = list(initial)
    moves: list[PebblingMove] = []
    covered = set(v for v in range(g.n) if counts[v] > 0)
    pending = set(range(g.n)) - covered
    retired: set[int] = set()
    initial_pending = len(pending)
    step = 0

    def heavy_set() -> set[int]:
        return set(v for v in range(g.n) if counts[v] >= clump + 1)

    heavy = heavy_set()

    def snapshot() -> SolverState:
        return SolverState(tuple(counts), frozenset(covered),
                           frozenset(heavy), frozenset(pending),
                           frozenset(retired), step)

    if check_invariants:
        check_solver_state(g, snapshot(), initial, moves, initial_pending)

    while True:
        undominated = [w for w in sorted(pending)
                       if not _is_dominated(g, counts, w)]
        if not undominated:
            break
        step += 1
        if step > initial_pending:
            raise InvariantViolation("solver failed to terminate in time")
        if len(pending) < 2:
            raise InvariantViolation(
                "a single pending vertex should already be dominated")
        if not heavy:
            raise InvariantViolation("no heavy vertex despite pending work")

        near = None
        for vp in sorted(heavy):
            for wp in sorted(pending):
                if g.dist[vp][wp] <= d - 2:
                    near = (vp, wp)
                    break
            if near:
                break

        if near is not None:
            vp, wp = near
            _cascade(g, counts, moves, _lex_shortest_path(g, vp, wp))
            pending.discard(wp)
            covered.add(wp)
        else:
            wp = undominated[0]
            if min(g.dist[vp][wp] for vp in heavy) != d:
                raise InvariantViolation(
                    f"undominated vertex {wp} not at full distance from heavy set")
            vp = min(heavy)
            path = _lex_shortest_path(g, vp, wp)
            vstar, wside = path[d - 2], path[d - 1]
            if counts[vstar] <= 0 or vstar in heavy:
                raise InvariantViolation(
                    f"relay vertex {vstar} must be covered but not heavy")
            if counts[wside] != 0 or wside not in pending:
                raise InvariantViolation(
                    f"split target {wside} must be uncovered and pending")
            _cascade(g, counts, moves, path[:d - 1])
            _move(g, counts, moves, vstar, wside)
            retired.add(wp)
            pending.discard(wp)
            covered.add(wside)
            pending.discard(wside)
            if counts[vstar] == 0:
                covered.discard(vstar)
                pending.add(vstar)

        heavy = heavy_set()
        if check_invariants:
            check_solver_state(g, snapshot(), initial, moves, initial_pending)

    if dominated_mask(g, support_mask(counts)) != g.full_mask:
        raise InvariantViolation("terminal support fails to dominate")
    return Certificate(initial, tuple(moves))


# ---------------------------------------------------------------------------
# subversion on diameter <= 2
# ---------------------------------------------------------------------------

def solve_subversion_diameter2(g: Graph, c: Sequence[int],
                               omega: int) -> Certificate:
    """Certificate leaving at most ``omega`` undominated vertices in total
    (so no undominated component exceeds ``omega``) from any configuration
    of at least n-1-omega pebbles on a graph of diameter at most 2.

    The diameter-2 domination engine sets aside the omega lowest-indexed
    undominated (remote) vertices itself and dominates every other vertex
    of ``g``: the n-1-omega pebbles are the n'-1 it needs on the
    n' = n-omega vertices that remain.  With at most omega vertices
    undominated already, it needs no moves.
    """
    initial = check_configuration(g, c)
    _require_diameter2(g)
    if omega < 1:
        raise PreconditionError("omega must be at least 1")
    if omega > g.n - 2:
        raise PreconditionError(
            f"omega={omega} leaves fewer than one pebble on {g.n} vertices; "
            "the bound n-1-omega is only meaningful for omega <= n-2")
    _require_pebbles(initial, g.n - 1 - omega, "n-1-omega")

    return Certificate(initial, tuple(_dominate_core(g, list(initial), omega)))
