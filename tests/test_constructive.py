import hashlib
import random

import pytest

from dcpebble import (
    DOMINATION,
    Certificate,
    InvariantViolation,
    PebblingError,
    PreconditionError,
    SolverState,
    check_solver_state,
    complete,
    connected_graph6_lines,
    connected_graphs,
    cycle,
    dominated_vertices,
    partition_covered,
    path,
    random_configuration,
    random_connected_graph,
    solve_diameter2,
    solve_diameter_d,
    solve_subversion_diameter2,
    spread_diameter2,
    star,
    star_with_leaf_path,
    subversion,
    support,
    tail_clique,
    tail_clique_far_end,
    verify_certificate,
)
from dcpebble.solver import configurations


P4 = path(4)
STAR5 = star(5)


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------

def test_partition_star_stack_on_leaf():
    part = partition_covered(STAR5, (0, 4, 0, 0, 0))
    assert part.covered == {1}
    assert part.fringe == {0}
    assert part.remote == {2, 3, 4}


def test_partition_p4_alternating():
    part = partition_covered(P4, (0, 1, 0, 1))
    assert part.covered == {1, 3}
    assert part.fringe == {0, 2}
    assert part.remote == set()


def test_partition_full_support():
    part = partition_covered(P4, (1, 1, 1, 1))
    assert part.covered == {0, 1, 2, 3}
    assert part.fringe == set() and part.remote == set()


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_rejects_nonadjacent_move():
    cert = Certificate((4, 0, 0, 0), ((0, 2),))
    res = verify_certificate(P4, cert, DOMINATION)
    assert not res.ok and res.failed_step == 0 and res.reason == "illegal-move"


def test_verify_rejects_underflow_mid_sequence():
    cert = Certificate((2, 0, 0, 0), ((0, 1), (0, 1)))
    res = verify_certificate(P4, cert, DOMINATION)
    assert not res.ok and res.failed_step == 1


def test_verify_empty_certificate_against_goal():
    res = verify_certificate(P4, Certificate((1, 0, 0, 0)), DOMINATION)
    assert not res.ok and res.failed_step is None
    assert res.reason == "goal-not-met"
    res = verify_certificate(P4, Certificate((0, 1, 0, 1)), DOMINATION)
    assert res.ok and res.final == (0, 1, 0, 1)


# ---------------------------------------------------------------------------
# diameter <= 2 solver
# ---------------------------------------------------------------------------

def test_diameter2_star_stack():
    cert = solve_diameter2(STAR5, (0, 4, 0, 0, 0))
    assert cert.moves == ((1, 0),)
    final = cert.replay(STAR5)
    assert dominated_vertices(STAR5, support(final)) == frozenset(range(5))


def test_diameter2_already_dominating_is_empty():
    cert = solve_diameter2(path(3), (0, 2, 0))
    assert cert.moves == ()
    cert = solve_diameter2(STAR5, (4, 0, 0, 0, 0))
    assert cert.moves == ()


def test_diameter2_preconditions():
    with pytest.raises(PreconditionError):
        solve_diameter2(P4, (5, 0, 0, 0))  # diameter 3
    with pytest.raises(PreconditionError):
        solve_diameter2(STAR5, (1, 1, 1, 0, 0))  # below n-1


def test_diameter2_exhaustive_order_up_to_5(diam2_upto5):
    for g in diam2_upto5:
        for c in configurations(g.n, g.n - 1):
            cert = solve_diameter2(g, c)
            assert verify_certificate(g, cert, DOMINATION).ok, (g, c)


def test_diameter2_handles_extra_pebbles(diam2_upto5):
    for g in diam2_upto5[:8]:
        for c in configurations(g.n, g.n + 1):
            cert = solve_diameter2(g, c)
            assert verify_certificate(g, cert, DOMINATION).ok


def test_diameter2_deterministic():
    c = (0, 0, 2, 1, 1)
    assert solve_diameter2(STAR5, c) == solve_diameter2(STAR5, c)


# ---------------------------------------------------------------------------
# spreading solver
# ---------------------------------------------------------------------------

def test_spread_k5_stack():
    k5 = complete(5)
    cert = spread_diameter2(k5, (4, 0, 0, 0, 0))
    assert verify_certificate(k5, cert, DOMINATION).ok


def test_spread_rejects_sparse_graph():
    with pytest.raises(PreconditionError):
        spread_diameter2(cycle(5), (1, 1, 1, 1, 1))  # min degree 2 = ceil(4/2)


def test_spread_rejects_small_configuration():
    k5 = complete(5)
    with pytest.raises(PreconditionError):
        spread_diameter2(k5, (2, 0, 0, 0, 0))  # threshold is 3


def test_spread_exhaustive_small(diam2_upto6):
    checked = 0
    for g in diam2_upto6:
        m = g.min_degree()
        if not m > -(-(g.n - 1) // 2):
            continue
        threshold = (4 * g.n - 2 * m - 3) // 3
        for c in configurations(g.n, threshold):
            cert = spread_diameter2(g, c)
            assert verify_certificate(g, cert, DOMINATION).ok, (g, c)
            checked += 1
    assert checked > 300


# ---------------------------------------------------------------------------
# diameter d >= 3 solver
# ---------------------------------------------------------------------------

def test_diamd_p4_exhaustive_with_invariants():
    for c in configurations(4, 5):
        cert = solve_diameter_d(P4, c, check_invariants=True)
        assert verify_certificate(P4, cert, DOMINATION).ok, c
        assert len(cert.moves) <= 5


def test_diamd_tail_clique_stack():
    g = tail_clique(2, 3)
    far = tail_clique_far_end(2, 3)
    c = tuple(9 if v == far else 0 for v in range(g.n))
    cert = solve_diameter_d(g, c)
    assert verify_certificate(g, cert, DOMINATION).ok


def test_diamd_preconditions():
    with pytest.raises(PreconditionError):
        solve_diameter_d(STAR5, (4, 0, 0, 0, 0))  # diameter 2
    with pytest.raises(PreconditionError):
        solve_diameter_d(P4, (4, 0, 0, 0))  # below 2^(d-2)(n-2)+1 = 5


def test_diamd_deterministic():
    c = (5, 0, 0, 0)
    assert solve_diameter_d(P4, c) == solve_diameter_d(P4, c)


def test_diamd_randomized_suite():
    rng = random.Random(20240917)
    graphs = [random_connected_graph(order, rng, diameter_range=(3, 4))
              for order in (6, 7, 8) for _ in range(4)]
    assert len(graphs) >= 12
    for g in graphs:
        threshold = (1 << (g.diameter - 2)) * (g.n - 2) + 1
        for _ in range(25):
            c = random_configuration(g.n, threshold, rng)
            cert = solve_diameter_d(g, c, check_invariants=True)
            assert verify_certificate(g, cert, DOMINATION).ok, (g, c)


def test_state_checker_flags_corruption():
    # P5 has diameter 4, clump size 4, threshold 13; the initial state of
    # a run on a full stack is consistent, and each corruption below
    # breaks exactly the condition named in the error
    g = path(5)
    counts = (13, 0, 0, 0, 0)
    cov, heavy = frozenset({0}), frozenset({0})
    pending, none = frozenset({1, 2, 3, 4}), frozenset()
    check_solver_state(
        g, SolverState(counts, cov, heavy, pending, none, 0),
        counts, (), 4)

    def failing(state, initial=counts, moves=(), pending0=4, graph=g):
        with pytest.raises(InvariantViolation) as err:
            check_solver_state(graph, state, initial, moves, pending0)
        return str(err.value)

    msg = failing(SolverState(counts, frozenset({0, 1}), heavy,
                              frozenset({2, 3, 4}), none, 0))
    assert "1 (" in msg  # covered vertex without a pebble

    thin = (5, 0, 0, 0, 0)
    msg = failing(SolverState(thin, cov, heavy, pending, none, 0),
                  initial=thin)
    assert "2 (" in msg  # clumping potential below the pending deficit

    msg = failing(SolverState(counts, cov, heavy, pending, none, 1))
    assert "3 (" in msg  # pending set failed to shrink

    msg = failing(SolverState(counts, cov, frozenset(), pending, none, 0))
    assert "4 (" in msg  # heavy set out of sync with counts

    msg = failing(SolverState(counts, cov, heavy, frozenset({1, 2, 3}),
                              none, 0))
    assert "6 (" in msg  # not a partition of the vertices

    msg = failing(SolverState(counts, cov, heavy, frozenset({1, 2, 3}),
                              frozenset({4}), 0))
    assert "7 (" in msg  # retired vertex is not dominated

    msg = failing(SolverState(counts, cov, heavy, pending, none, 0),
                  initial=(9, 0, 0, 0, 0))
    assert "8 (" in msg  # move log does not replay to counts

    # One step into a run on P4 (clump size 2): the log (3, 2) replays, but
    # vertex -1 must not wrap around to vertex 3, nor vertex 4 overrun, nor
    # a three-entry initial configuration overrun.
    start = (0, 0, 0, 5)
    state = SolverState((0, 0, 1, 3), frozenset({2, 3}), frozenset({3}),
                        frozenset({0, 1}), none, 1)
    check_solver_state(P4, state, start, ((3, 2),), 3)
    for initial, log in ((start, ((-1, 2),)), (start, ((4, 2),)),
                         (start[:3], ((3, 2),))):
        msg = failing(state, initial, log, 3, P4)
        assert "8 (" in msg, (initial, log)


# ---------------------------------------------------------------------------
# subversion solver
# ---------------------------------------------------------------------------

def test_subversion_no_moves_needed():
    h = star_with_leaf_path(6, 1)
    # config dominating all but the linked pair already
    c = (1, 0, 0, 1, 1, 1)
    cert = solve_subversion_diameter2(h, c, 2)
    assert cert.moves == ()


def test_subversion_preconditions():
    h = star_with_leaf_path(6, 1)
    with pytest.raises(PreconditionError):
        solve_subversion_diameter2(h, (1,) * 6, 0)
    with pytest.raises(PreconditionError):
        solve_subversion_diameter2(h, (0,) * 6, 1)  # below n-1-omega
    with pytest.raises(PreconditionError):
        solve_subversion_diameter2(h, (1,) * 6, 5)  # omega > n-2
    with pytest.raises(PreconditionError):
        solve_subversion_diameter2(P4, (1, 1, 1, 0), 1)  # diameter 3


def test_subversion_exhaustive_small(diam2_upto5):
    for g in diam2_upto5:
        for omega in (1, 2):
            if omega > g.n - 2:
                continue
            for c in configurations(g.n, g.n - 1 - omega):
                cert = solve_subversion_diameter2(g, c, omega)
                final = cert.replay(g)
                undominated = g.n - len(dominated_vertices(g, support(final)))
                assert undominated <= omega, (g, omega, c)
                assert verify_certificate(g, cert, subversion(omega)).ok


def test_subversion_linked_star_tight():
    # the linked-leaf star needs every one of its n-1-omega pebbles
    h = star_with_leaf_path(9, 1)
    for c in list(configurations(9, 7))[:500]:
        cert = solve_subversion_diameter2(h, c, 1)
        final = cert.replay(h)
        assert h.n - len(dominated_vertices(h, support(final))) <= 1


# ---------------------------------------------------------------------------
# certificates pinned across refactors
# ---------------------------------------------------------------------------

PINNED_OUTCOMES = (
    58284, "2197b31de999ac5e080dd5b2530980c363f7832adf6738b92cba33130d3f5cf5")

PINNED_OUTCOMES_DIAM2_ORDER6 = (
    215040, "e12adb32ccc7be34686ce6245ea19f19af06a87e10a09ee1542510b6062a69ac")

SOLVERS = (
    ("diam2", solve_diameter2),
    ("spread", spread_diameter2),
    ("diamd", solve_diameter_d),
    ("diamd_noinv", lambda g, c: solve_diameter_d(g, c, False)),
    ("subv1", lambda g, c: solve_subversion_diameter2(g, c, 1)),
    ("subv2", lambda g, c: solve_subversion_diameter2(g, c, 2)),
)
DIAM2_SOLVERS = tuple(s for s in SOLVERS
                      if s[0] in ("diam2", "spread", "subv1", "subv2"))


def solver_outcomes(orders, solvers, max_diameter=None):
    """Every outcome of ``solvers`` on the corpus graphs of the given
    orders (of diameter at most ``max_diameter``, if given): the
    certificate's ``(initial, moves)``, or the exception's type and
    message.  Each solver runs at every size in n-1, n, n-1-omega
    (omega = 1, 2) and 2^(d-2)(n-2)+1, so precondition failures are pinned
    too."""
    for n in orders:
        for line, g in zip(connected_graph6_lines(n), connected_graphs(n)):
            if max_diameter is not None and g.diameter > max_diameter:
                continue
            sizes = {n - 1, n, n - 2, n - 3}
            if g.diameter >= 2:
                sizes.add((1 << (g.diameter - 2)) * (n - 2) + 1)
            for size in sorted(s for s in sizes if s >= 0):
                for c in configurations(n, size):
                    for name, solve in solvers:
                        try:
                            cert = solve(g, c)
                            out = (cert.initial, cert.moves)
                        except (PebblingError, PreconditionError,
                                InvariantViolation) as exc:
                            out = (type(exc).__name__, str(exc))
                        yield f"{name} {line} {c} {out}\n"


def _digest(rows):
    digest = hashlib.sha256()
    calls = 0
    for row in rows:
        digest.update(row.encode())
        calls += 1
    return calls, digest.hexdigest()


def test_solver_outcomes_pinned():
    assert _digest(solver_outcomes(range(1, 6), SOLVERS)) == PINNED_OUTCOMES


def test_solver_outcomes_pinned_diameter2_order6():
    # order 6 reaches the remote branch's already-dominated skip
    assert _digest(solver_outcomes((6,), DIAM2_SOLVERS, max_diameter=2)) \
        == PINNED_OUTCOMES_DIAM2_ORDER6
