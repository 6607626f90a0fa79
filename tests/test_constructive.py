import random
from dataclasses import replace

import pytest

from dcpebble import (
    DOMINATION,
    Certificate,
    FamilySpec,
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
    emit_graph6,
    generate,
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
from dcpebble import constructive
from dcpebble.graphs import dominated_mask, support_mask
from dcpebble.pebbling import replay_moves
from dcpebble.solver import configurations
from pins import Pin, check_pin


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


# ---------------------------------------------------------------------------
# diameter d >= 3 solver
# ---------------------------------------------------------------------------

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


def random_diamd_graphs(rng):
    """Twelve seeded random graphs of orders 6-8 and diameter 3 or 4."""
    return [random_connected_graph(order, rng, diameter_range=(3, 4))
            for order in (6, 7, 8) for _ in range(4)]


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

    near = (0, 0, 0, 13, 0)
    msg = failing(SolverState(near, frozenset({3}), frozenset({3}),
                              frozenset({0, 1, 2}), frozenset({4}), 0),
                  initial=near)
    assert msg.endswith(": 5 (heavy-retired distance)")  # heavy 3 is 1 away

    spread = (1, 1, 0, 1, 0)
    msg = failing(SolverState(spread, frozenset({0, 1, 3}), none,
                              frozenset({4}), frozenset({2}), 0),
                  initial=spread)
    assert msg.endswith(": 5 (retired eccentricity)")  # no vertex 4 away

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


def stacked_threshold_configurations(g, count, rng):
    """``count`` configurations of the diameter-d threshold size, each
    dropped uniformly on one to three seeded vertices."""
    threshold = (1 << (g.diameter - 2)) * (g.n - 2) + 1
    for _ in range(count):
        counts = [0] * g.n
        stacks = rng.sample(range(g.n), rng.randint(1, 3))
        for _ in range(threshold):
            counts[rng.choice(stacks)] += 1
        yield tuple(counts)


def test_invariant_replay_is_linear(monkeypatch):
    # Invariant 8 replays each move of a run once: a check replays only
    # the moves after the point the check before it verified.  Replaying
    # the whole log at every check took 48,118 and 24,559 moves here.
    replayed = []

    def counting(g, counts, moves):
        moves = list(moves)
        replayed.append(len(moves))
        return replay_moves(g, counts, moves)

    monkeypatch.setattr(constructive, "replay_moves", counting)
    for g, total in ((cycle(20), 6027), (path(14), 8418)):
        replayed.clear()
        certs = [solve_diameter_d(g, c, check_invariants=True) for c in
                 stacked_threshold_configurations(g, 5, random.Random(20))]
        assert sum(len(cert.moves) for cert in certs) == total
        assert sum(replayed) == total


def test_invariant_replay_catches_rewritten_prefix(monkeypatch):
    # Between two checks, an already-checked move of the log is rewritten:
    # the replay from the verified point must not take the rest on trust.
    steps = []

    def rewriting(g, state, initial, moves, initial_pending):
        steps.append(state.step)
        if state.step == 2:
            u, v = moves[0]
            moves[0] = (v, u)
        check(g, state, initial, moves, initial_pending)

    check = constructive.check_solver_state
    monkeypatch.setattr(constructive, "check_solver_state", rewriting)
    c = (0,) * 13 + ((1 << 11) * 12 + 1,)  # the threshold on one end of P14
    with pytest.raises(InvariantViolation) as err:
        solve_diameter_d(path(14), c)
    assert str(err.value) == \
        "solver state invalid at step 2: 8 (reachability by replay)"
    assert steps == [0, 1, 2]


def test_state_checker_replays_from_verified_point():
    # One step into a run on P4 (clump size 2), checked with a replay point:
    # the log must begin with the point's moves, and the moves after them
    # must replay from the point's counts to the state's.
    start, log = (0, 0, 0, 5), ((3, 2),)
    state = SolverState((0, 0, 1, 3), frozenset({2, 3}), frozenset({3}),
                        frozenset({0, 1}), frozenset(), 1)
    for point in (((), start), (log, state.counts)):
        check_solver_state(P4, replace(state, verified=point), start, log, 3)
    for point in ((((2, 3),), (0, 0, 0, 5)),  # the log does not begin so
                  (log + ((2, 1),), state.counts),  # the log is shorter
                  ((), (0, 0, 0, 6)),  # the moves do not reach the counts
                  ((), (0, 0, 5))):  # the point is no configuration of P4
        with pytest.raises(InvariantViolation) as err:
            check_solver_state(P4, replace(state, verified=point), start,
                               log, 3)
        assert str(err.value).endswith(": 8 (reachability by replay)"), point


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

PINNED_OUTCOMES = Pin(
    58284, "2197b31de999ac5e080dd5b2530980c363f7832adf6738b92cba33130d3f5cf5",
    {
        "diam2 1": (2, "f78ff5a034af"),
        "spread 1": (2, "d976471c86ad"),
        "diamd 1": (2, "10c3efc6a9e5"),
        "diamd_noinv 1": (2, "9b2d59e841cc"),
        "subv1 1": (2, "94d3fce818b5"),
        "subv2 1": (2, "4431447e98c2"),
        "diam2 2": (6, "8f2b4a687007"),
        "spread 2": (6, "84edf887b60d"),
        "diamd 2": (6, "451c39f2692e"),
        "diamd_noinv 2": (6, "ab4605185a0e"),
        "subv1 2": (6, "7a237195828c"),
        "subv2 2": (6, "79ad399c5f6e"),
        "diam2 3": (40, "306de2b42d66"),
        "spread 3": (40, "1f32789c875a"),
        "diamd 3": (40, "2efc7a29c6ed"),
        "diamd_noinv 3": (40, "bdad157360cd"),
        "subv1 3": (40, "0846432d3958"),
        "subv2 3": (40, "8079a0ce64f5"),
        "diam2 4": (470, "ddf30b3b4176"),
        "spread 4": (470, "0773aa010e27"),
        "diamd 4": (470, "58165a903039"),
        "diamd_noinv 4": (470, "cd72c6fb0f29"),
        "subv1 4": (470, "5aa59364723c"),
        "subv2 4": (470, "6774e5c512d6"),
        "diam2 5": (9196, "f0eb6434b98d"),
        "spread 5": (9196, "b260aa451ca7"),
        "diamd 5": (9196, "3d8f66ac582e"),
        "diamd_noinv 5": (9196, "08c60e56100c"),
        "subv1 5": (9196, "f1cb073d8799"),
        "subv2 5": (9196, "49f1ee2a9187"),
    })

PINNED_OUTCOMES_DIAM2_ORDER6 = Pin(
    215040, "e12adb32ccc7be34686ce6245ea19f19af06a87e10a09ee1542510b6062a69ac",
    {
        "diam2 6": (53760, "05c1181086c9"),
        "spread 6": (53760, "10a9d1a25f63"),
        "subv1 6": (53760, "848753d4fa36"),
        "subv2 6": (53760, "5cd1cec05373"),
    })

# Each solver with the goal its certificates must meet.
SOLVERS = (
    ("diam2", solve_diameter2, DOMINATION),
    ("spread", spread_diameter2, DOMINATION),
    ("diamd", solve_diameter_d, DOMINATION),
    ("diamd_noinv", lambda g, c: solve_diameter_d(g, c, False), DOMINATION),
    ("subv1", lambda g, c: solve_subversion_diameter2(g, c, 1),
     subversion(1)),
    ("subv2", lambda g, c: solve_subversion_diameter2(g, c, 2),
     subversion(2)),
)
DIAM2_SOLVERS = tuple(s for s in SOLVERS
                      if s[0] in ("diam2", "spread", "subv1", "subv2"))


def check_certificate(g, cert, goal, name):
    """Assert that the independent verifier accepts ``cert`` for ``goal``
    on ``g``, and that a subversion certificate leaves at most
    ``goal.omega`` vertices undominated in all: the subversion solver's
    promise, stronger than its goal.  A failure names ``g`` by ``name``."""
    res = verify_certificate(g, cert, goal)
    assert res.ok, (name, cert.initial, res.reason, res.failed_step)
    if goal.omega:
        dominated = dominated_mask(g, support_mask(res.final)).bit_count()
        assert g.n - dominated <= goal.omega, (name, cert.initial, dominated)


def solver_outcomes(orders, solvers, max_diameter=None):
    """Every outcome of ``solvers`` on the corpus graphs of the given
    orders (of diameter at most ``max_diameter``, if given): the
    certificate's ``(initial, moves)``, each checked by
    :func:`check_certificate`, or the exception's type and message.  Each
    solver runs at every size in n-1, n, n-1-omega (omega = 1, 2) and
    2^(d-2)(n-2)+1, so precondition failures are pinned too.  Bucketed by
    solver and order."""
    for n in orders:
        for line, g in zip(connected_graph6_lines(n), connected_graphs(n)):
            if max_diameter is not None and g.diameter > max_diameter:
                continue
            sizes = {n - 1, n, n - 2, n - 3}
            if g.diameter >= 2:
                sizes.add((1 << (g.diameter - 2)) * (n - 2) + 1)
            for size in sorted(s for s in sizes if s >= 0):
                for c in configurations(n, size):
                    for name, solve, goal in solvers:
                        try:
                            cert = solve(g, c)
                        except (PebblingError, PreconditionError,
                                InvariantViolation) as exc:
                            out = (type(exc).__name__, str(exc))
                        else:
                            check_certificate(g, cert, goal, line)
                            out = (cert.initial, cert.moves)
                        yield f"{name} {n}", f"{name} {line} {c} {out}\n"


def outcomes():
    return solver_outcomes(range(1, 6), SOLVERS)


def outcomes_diam2_order6():
    # order 6 reaches the remote branch's already-dominated skip
    return solver_outcomes((6,), DIAM2_SOLVERS, max_diameter=2)


def test_solver_outcomes_pinned():
    check_pin(outcomes(), PINNED_OUTCOMES)


def test_solver_outcomes_pinned_diameter2_order6():
    check_pin(outcomes_diam2_order6(), PINNED_OUTCOMES_DIAM2_ORDER6)


# Pinned before the diameter-d solver lost its hand-kept ``covered`` set:
# every certificate, and every state handed to the invariant checker.
PINNED_DIAMD_OUTCOMES = Pin(
    1687, "2ec11bcfae73f493def92ae7dc32e7e371752e1bd5150e81389eb9465f4bd827",
    {
        "random 0": (75, "afdd6a573119"),
        "random 1": (76, "900c0fe3bbf2"),
        "random 2": (76, "99776a431ab1"),
        "random 3": (82, "c30ae5ba7803"),
        "random 4": (75, "6f760b3db579"),
        "random 5": (75, "bf94b5973497"),
        "random 6": (75, "47c4704e8924"),
        "random 7": (75, "ce6afbba4b61"),
        "random 8": (75, "042894a817f9"),
        "random 9": (77, "c77aed670d7a"),
        "random 10": (75, "6a21c15306d7"),
        "random 11": (76, "32c5fc1116fb"),
        "tail-clique 2 4": (75, "9e09c74dfeaf"),
        "tail-clique 4 5": (75, "a24910d4a9fb"),
        "tail-clique 8 4": (75, "d7a3ebe79052"),
        "tail-clique 10 3": (92, "7365d150fdf0"),
        "path 10": (75, "911bbefca5c8"),
        "path 14": (75, "872ca5fb8237"),
        "cycle 12": (75, "db7787f48f28"),
        "cycle 20": (75, "331271a8317a"),
        "binary-tree 3": (75, "64eeb97194b8"),
        "apex-pendant-clique 20 2": (83, "315aa9fdc0bf"),
    })

DIAMD_FAMILIES = (
    ("tail-clique", (2, 4)), ("tail-clique", (4, 5)), ("tail-clique", (8, 4)),
    ("tail-clique", (10, 3)), ("path", (10,)), ("path", (14,)),
    ("cycle", (12,)), ("cycle", (20,)), ("binary-tree", (3,)),
    ("apex-pendant-clique", (20, 2)),
)


def diamd_outcomes():
    """Rows for 25 seeded threshold configurations on each of the random
    diameter-d graphs and the named diameter-d families, solved with and
    without invariants, bucketed by graph: "random" and its index, or the
    family.  Sets are written sorted: equal frozensets built in different
    orders can repr differently."""
    rows = []

    def recording(g, state, initial, moves, initial_pending):
        rows.append((label, f"state {state.counts} {sorted(state.covered)} "
                            f"{sorted(state.heavy)} {sorted(state.pending)} "
                            f"{sorted(state.retired)} {state.step} "
                            f"{initial_pending}\n"))
        check(g, state, initial, moves, initial_pending)

    check = constructive.check_solver_state
    graphs = [(f"random {i}", g) for i, g in
              enumerate(random_diamd_graphs(random.Random(20240917)))]
    graphs += [(f"{kind} {' '.join(map(str, params))}",
                generate(FamilySpec(kind, params)))
               for kind, params in DIAMD_FAMILIES]
    rng = random.Random(14)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructive, "check_solver_state", recording)
        for label, g in graphs:
            threshold = (1 << (g.diameter - 2)) * (g.n - 2) + 1
            for _ in range(25):
                c = random_configuration(g.n, threshold, rng)
                for invariants in (True, False):
                    cert = solve_diameter_d(g, c, invariants)
                    check_certificate(g, cert, DOMINATION, label)
                    rows.append((label, f"cert {emit_graph6(g)} {invariants} "
                                        f"{cert.initial} {cert.moves}\n"))
    return rows


def test_diamd_outcomes_pinned():
    check_pin(diamd_outcomes(), PINNED_DIAMD_OUTCOMES)


# Pinned before the spreading solver became one ascending pass.
PINNED_SPREAD_OUTCOMES = Pin(
    400, "8bf4f47ea7d148c840b89a6923bcd85b3fc90bfff91cd6884a43c2a9587a8ac1",
    {
        "complete 10": (80, "d232072881a7"),
        "complete 16": (80, "008099bd615b"),
        "multipartite 2 3 4": (80, "71d52e53b969"),
        "multipartite 6 6 6": (80, "47b8878fcfbd"),
        "multipartite 3 3 3 3": (80, "c79c8b74a731"),
    })

SPREAD_FAMILIES = (
    ("complete", (10,)), ("complete", (16,)), ("multipartite", (2, 3, 4)),
    ("multipartite", (6, 6, 6)), ("multipartite", (3, 3, 3, 3)),
)


def spread_outcomes():
    """Rows for seeded configurations of every size from the spreading
    threshold to the threshold + 3 on the dense named families, each size
    both dropped uniformly and stacked on one to three vertices, bucketed
    by family."""
    rng = random.Random(15)
    for kind, params in SPREAD_FAMILIES:
        family = f"{kind} {' '.join(map(str, params))}"
        g = generate(FamilySpec(kind, params))
        threshold = (4 * g.n - 2 * g.min_degree() - 3) // 3
        for size in range(threshold, threshold + 4):
            for _ in range(10):
                stacks = rng.sample(range(g.n), rng.randint(1, 3))
                stacked = [0] * g.n
                for _ in range(size):
                    stacked[rng.choice(stacks)] += 1
                for c in (random_configuration(g.n, size, rng),
                          tuple(stacked)):
                    cert = spread_diameter2(g, c)
                    check_certificate(g, cert, DOMINATION, family)
                    yield family, (f"{emit_graph6(g)} {cert.initial} "
                                   f"{cert.moves}\n")


def test_spread_outcomes_pinned():
    check_pin(spread_outcomes(), PINNED_SPREAD_OUTCOMES)
