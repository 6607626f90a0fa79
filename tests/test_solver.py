import hashlib
import sys
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from dcpebble import (
    DOMINATION,
    FULL_COVER,
    FamilySpec,
    binary_tree,
    build_graph,
    complete,
    connected_graph6_lines,
    connected_graphs,
    cycle,
    emit_graph6,
    generate,
    is_solvable,
    lambda_stacking,
    path,
    pebbling_value,
    pebbling_values,
    satisfies,
    star,
    stacking_value,
    subversion,
    tail_clique,
    verify_certificate,
    wheel,
)
from dcpebble import solver
from dcpebble.graphs import dominated_mask
from dcpebble.pebbling import satisfies_mask
from dcpebble.solver import _packing, _targets, configurations, default_cap


P4 = path(4)
STAR5 = star(5)


# ---------------------------------------------------------------------------
# configuration enumeration
# ---------------------------------------------------------------------------

def test_configurations_colex_order():
    got = list(configurations(3, 2))
    assert got == [(2, 0, 0), (1, 1, 0), (0, 2, 0),
                   (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert got == sorted(got, key=lambda c: c[::-1])


@pytest.mark.parametrize("n,k", [(1, 5), (3, 0), (4, 6), (6, 3)])
def test_configurations_count(n, k):
    seen = list(configurations(n, k))
    assert len(seen) == len(set(seen)) == comb(k + n - 1, n - 1)
    assert all(sum(c) == k and len(c) == n for c in seen)


# ---------------------------------------------------------------------------
# single-configuration solvability
# ---------------------------------------------------------------------------

def test_p4_five_pebble_stacks_solvable():
    for c in ((5, 0, 0, 0), (0, 0, 0, 5)):
        res = is_solvable(P4, c, DOMINATION)
        assert res.solvable
        assert verify_certificate(P4, res.certificate, DOMINATION).ok


def test_binary_tree_examples():
    b2 = binary_tree(2)
    # leftmost and rightmost bottom leaves carry 1 and 10 pebbles
    res = is_solvable(b2, (0, 0, 0, 1, 0, 0, 10), DOMINATION)
    assert res.solvable
    assert verify_certificate(b2, res.certificate, DOMINATION).ok
    assert is_solvable(b2, (4, 0, 0, 1, 0, 0, 0), DOMINATION).solvable


def test_star_three_leaves_unsolvable():
    res = is_solvable(STAR5, (0, 1, 1, 1, 0), DOMINATION)
    assert res.solvable is False
    assert res.certificate is None


def test_already_satisfying_gives_empty_certificate():
    res = is_solvable(P4, (0, 1, 0, 1), DOMINATION)
    assert res.solvable and res.certificate.moves == ()


def test_is_solvable_deterministic():
    a = is_solvable(P4, (5, 0, 0, 0), DOMINATION)
    b = is_solvable(P4, (5, 0, 0, 0), DOMINATION)
    assert a.certificate == b.certificate
    assert a.states_explored == b.states_explored


def test_budget_reports_unknown_not_false():
    # generously solvable and plainly unsolvable queries both come back
    # unknown when the budget is too small to decide
    res = is_solvable(P4, (40, 0, 0, 0), DOMINATION, budget=2)
    assert res.unknown and res.solvable is None
    res = is_solvable(path(6), (4, 0, 0, 0, 0, 1), DOMINATION)
    assert res.solvable is False and res.states_explored > 2
    res = is_solvable(path(6), (4, 0, 0, 0, 0, 1), DOMINATION, budget=2)
    assert res.unknown and res.solvable is None
    # a 250-pebble stack whose search outgrows the budget is unknown, not a
    # crash and not "unsolvable"
    res = is_solvable(cycle(15), (250,) + (0,) * 14, DOMINATION,
                      budget=100_000)
    assert res.unknown and res.solvable is None
    assert res.states_explored == 100_000


def test_search_result_independent_of_stack_depth():
    # The search keeps its own stack: the caller's depth and the
    # interpreter's recursion limit change nothing, for a search that
    # ends at its budget and for one whose certificate is 1,496 moves long.
    cases = ((cycle(13), (176,) + (0,) * 12), (path(12), (1500,) + (0,) * 11))

    def search():
        return [is_solvable(g, c, DOMINATION, budget=5000) for g, c in cases]

    top = search()
    assert top[0].unknown and top[0].states_explored == 5000
    assert top[1].solvable and len(top[1].certificate.moves) == 1496

    def nested(depth):
        if depth:
            return nested(depth - 1)
        return search()

    assert nested(200) == top
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        assert search() == top
    finally:
        sys.setrecursionlimit(limit)


def test_weight_bound_decides_at_the_root():
    # 500 pebbles on an end of path(12) weigh 500/1024 on N[11] = {10, 11}
    res = is_solvable(path(12), (500,) + (0,) * 11, DOMINATION)
    assert res.solvable is False and res.states_explored == 1
    # cover needs 1 + 2 + 4 = 7 on {2} of path(3), one pebble a vertex
    res = is_solvable(path(3), (6, 0, 0), FULL_COVER)
    assert res.solvable is False and res.states_explored == 1


@pytest.mark.parametrize("n,psi", [(8, 73), (9, 146)])
def test_weight_bound_tight_on_path_end_stacks(n, psi):
    # psi - 1 pebbles on an end fail a weight bound at the root, and psi
    # pebbles solve
    g = path(n)
    res = is_solvable(g, (psi - 1,) + (0,) * (n - 1), DOMINATION)
    assert res.solvable is False and res.states_explored == 1
    res = is_solvable(g, (psi,) + (0,) * (n - 1), DOMINATION)
    assert res.solvable
    assert verify_certificate(g, res.certificate, DOMINATION).ok


def test_deep_path_stacks_decided_within_small_budgets():
    g = path(12)
    res = is_solvable(g, (1500,) + (0,) * 11, DOMINATION, budget=5000)
    assert res.solvable
    assert verify_certificate(g, res.certificate, DOMINATION).ok
    res = is_solvable(path(10), (300,) + (0,) * 9, DOMINATION, budget=1000)
    assert res.solvable


def test_is_solvable_relabeling_invariant():
    g = star(5)
    perm = (4, 0, 2, 3, 1)  # relabel star: 0->4, 1->0, ...
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    h = build_graph(5, edges)
    for c in configurations(5, 3):
        c_perm = tuple(c[perm.index(v)] for v in range(5))
        assert is_solvable(g, c, DOMINATION).solvable == \
            is_solvable(h, c_perm, DOMINATION).solvable


# ---------------------------------------------------------------------------
# the search against a recursive, unpruned reference
# ---------------------------------------------------------------------------

def reference_moves(g, c, goal):
    """First solution of a recursive depth-first search without any
    bound, in the same move order as is_solvable; None if unsolvable."""
    visited = set()

    def dfs(counts):
        if satisfies(g, counts, goal):
            return []
        visited.add(counts)
        for u in range(g.n):
            if counts[u] >= 2:
                for v in g.adj[u]:
                    child = list(counts)
                    child[u] -= 2
                    child[v] += 1
                    child = tuple(child)
                    if child not in visited:
                        sub = dfs(child)
                        if sub is not None:
                            sub.append((u, v))
                            return sub
        return None

    moves = dfs(tuple(c))
    return None if moves is None else tuple(reversed(moves))


def refuted(g, c, goal):
    p = _packing(g, goal, sum(c).bit_length())
    return p.pack(c) & p.guard != p.guard


ALL_GOALS = (DOMINATION, subversion(1), subversion(2), FULL_COVER)


@pytest.mark.parametrize("goal", ALL_GOALS, ids=lambda goal: goal.describe())
def test_search_matches_unpruned_reference(goal):
    cases = [(g, c) for n in range(1, 6) for g in connected_graphs(n)
             for size in range(min(default_cap(g, goal), 8) + 1)
             for c in configurations(n, size)]
    # single stacks on either side of the 4-, 5- and 6-bit count fields
    cases += [(g, tuple(size * (u == v) for u in range(n)))
              for n in (4, 5) for g in connected_graphs(n)
              for size in (15, 16, 31, 32) for v in range(n)]
    for g, c in cases:
        res = is_solvable(g, c, goal)
        want = reference_moves(g, c, goal)
        assert res.solvable == (want is not None), (g, c)
        if want is not None:
            assert res.certificate.moves == want, (g, c)


# ---------------------------------------------------------------------------
# search outcomes pinned across refactors
# ---------------------------------------------------------------------------

PINNED_ORACLE = (
    78594, "3402b7a1cbdd40b6722e49c6c36badb4d1627aa3e681706f4b15bf8a86d3bce7")


def oracle_outcomes():
    """``(solvable, certificate moves, states_explored)`` of is_solvable on
    every configuration of at most min(cap, 6) pebbles on the corpus up to
    order 5, at the default budget and at budgets 3 and 40; then on single
    stacks of cap // 4, cap // 2 and cap - 1 pebbles on every vertex of
    four named families, at budget 5,000."""
    def outcome(res):
        moves = None if res.certificate is None else res.certificate.moves
        return res.solvable, moves, res.states_explored

    for n in range(1, 6):
        for line, g in zip(connected_graph6_lines(n), connected_graphs(n)):
            for goal in ALL_GOALS:
                for size in range(min(default_cap(g, goal), 6) + 1):
                    for c in configurations(n, size):
                        for budget in (None, 3, 40):
                            res = (is_solvable(g, c, goal) if budget is None
                                   else is_solvable(g, c, goal, budget))
                            yield (f"{line} {goal.describe()} {budget} {c} "
                                   f"{outcome(res)}\n")
    named = (("path 7", path(7)), ("cycle 9", cycle(9)),
             ("binary-tree 2", binary_tree(2)),
             ("tail-clique 2 4", tail_clique(2, 4)))
    for name, g in named:
        for goal in ALL_GOALS:
            cap = default_cap(g, goal)
            for size in (cap // 4, cap // 2, cap - 1):
                for v in range(g.n):
                    c = tuple(size * (u == v) for u in range(g.n))
                    res = is_solvable(g, c, goal, 5000)
                    yield f"{name} {goal.describe()} {c} {outcome(res)}\n"


def test_oracle_outcomes_pinned():
    digest = hashlib.sha256()
    calls = 0
    for row in oracle_outcomes():
        digest.update(row.encode())
        calls += 1
    assert (calls, digest.hexdigest()) == PINNED_ORACLE


@st.composite
def graph_configuration_goal(draw):
    n = draw(st.integers(1, 6))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=8))
                 if pairs else [])
    g = build_graph(n, edges)
    counts = [0] * n
    for v, k in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(1, 12)), max_size=3)):
        counts[v] += k
    c = tuple(counts)
    goal = draw(st.sampled_from(ALL_GOALS + (subversion(3),)))
    return g, c, goal


@settings(max_examples=400, deadline=None)
@given(graph_configuration_goal())
def test_weight_bound_is_sound(case):
    g, c, goal = case
    if refuted(g, c, goal):
        assert reference_moves(g, c, goal) is None
    if satisfies(g, c, goal):
        assert not refuted(g, c, goal)


@pytest.mark.parametrize("goal", ALL_GOALS + (subversion(3),),
                         ids=lambda goal: goal.describe())
def test_targets_sound(goal):
    # Every target's weights at most double along an edge, so no move
    # raises a weight sum, and every vertex set that meets the goal (one
    # pebble a vertex) weighs at least the target's need.
    for n in range(1, 6):
        for g in connected_graphs(n):
            meets = [s for s in range(1 << n) if satisfies_mask(g, s, goal)]
            for row, need in _targets(g, goal):
                for u, v in g.edges:
                    assert row[v] <= 2 * row[u] and row[u] <= 2 * row[v]
                for s in meets:
                    weight = sum(x for v, x in enumerate(row) if s >> v & 1)
                    assert weight >= need, (g, row, need, s)


# The oracle graphs of the perfbench solve workload up to 13 vertices.
SOLVE_ORACLE_FAMILIES = (
    ("path", (7,)), ("path", (11,)), ("cycle", (9,)), ("cycle", (13,)),
    ("binary-tree", (2,)), ("tail-clique", (2, 4)), ("tail-clique", (3, 3)),
    ("apex-pendant-clique", (9, 1)), ("star-leaf-path", (10, 2)),
    ("wheel", (8,)), ("multipartite", (2, 3, 4)),
)
NEED_GOALS = (DOMINATION, subversion(1), subversion(2), FULL_COVER)


def need_graphs():
    for n in range(1, 7):
        yield from connected_graphs(n)
    for kind, params in SOLVE_ORACLE_FAMILIES:
        yield generate(FamilySpec(kind, params))


def weigh(row, s):
    return sum(x for v, x in enumerate(row) if s >> v & 1)


@pytest.mark.parametrize("goal", NEED_GOALS, ids=lambda goal: goal.describe())
def test_targets_need_least_goal_meeting_weight(goal):
    # A target's need is the least weight of any goal-meeting vertex set;
    # weights are positive, so an inclusion-minimal one attains it.
    for g in need_graphs():
        meets = {s for s in range(1 << g.n) if satisfies_mask(g, s, goal)}
        minimal = [s for s in meets
                   if all(s & ~(1 << v) not in meets for v in range(g.n)
                          if s >> v & 1)]
        for row, need in _targets(g, goal):
            assert need == min(weigh(row, s) for s in minimal), (g, row)


def greedy_need(g, goal, row):
    """The lightest weights of pairwise disjoint requirement sets, taken
    heaviest first: the inclusion-minimal closed neighbourhoods of the
    connected (omega + 1)-sets, or the singletons under cover, in order of
    size, then mask."""
    if goal.kind == "cover":
        return sum(row)

    def connected(c):
        seen = c & -c
        while True:
            grown = seen | dominated_mask(g, seen) & c
            if grown == seen:
                return seen == c
            seen = grown

    sets = {dominated_mask(g, c) for c in range(1 << g.n)
            if c.bit_count() == goal.omega + 1 and connected(c)}
    required = sorted((m for m in sets
                       if not any(o != m and o & m == o for o in sets)),
                      key=lambda m: (m.bit_count(), m))
    need = used = 0
    for light, m in sorted(((min(x for v, x in enumerate(row) if m >> v & 1),
                             m) for m in required),
                           key=lambda pair: -pair[0]):
        if not m & used:
            need, used = need + light, used | m
    return need


@pytest.mark.parametrize("goal", NEED_GOALS, ids=lambda goal: goal.describe())
def test_targets_keep_greedy_need_past_work_limit(goal, monkeypatch):
    monkeypatch.setattr(solver, "_MAX_HIT_WORK", 0)
    for g in need_graphs():
        for row, need in _targets(g, goal):
            assert need == greedy_need(g, goal, row), (g, row)


def test_goal_with_too_many_connected_sets_is_searched_unpruned():
    # complete(16) has C(16, 8) connected 8-sets: subversion(7) gets no
    # bound, and the search still decides
    g, empty = complete(16), (0,) * 16
    assert not refuted(g, empty, subversion(7))
    assert is_solvable(g, empty, subversion(7)).solvable is False


# ---------------------------------------------------------------------------
# exact values
# ---------------------------------------------------------------------------

def test_psi_k2():
    rep = pebbling_value(complete(2), DOMINATION)
    assert rep.value == 1 and rep.status == "exact"
    assert rep.witness == (0, 0)  # the empty configuration


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_psi_star(k):
    rep = pebbling_value(star(k + 1), DOMINATION)
    assert rep.value == k
    # witness: one pebble on each of k-1 leaves, center empty
    assert rep.witness[0] == 0
    assert sorted(rep.witness[1:]) == [0] + [1] * (k - 1)
    assert is_solvable(star(k + 1), rep.witness, DOMINATION).solvable is False


def test_psi_p4_derived():
    rep = pebbling_value(P4, DOMINATION)
    assert rep.value == 5
    assert rep.witness == (0, 0, 0, 4)


def test_cap_gives_lower_bound():
    rep = pebbling_value(STAR5, DOMINATION, cap=2)
    assert rep.status == "cap" and rep.value == 3
    assert sum(rep.witness) == 2
    with pytest.raises(ValueError):
        pebbling_value(P4, DOMINATION, cap=-1)


def test_budget_gives_partial():
    rep = pebbling_value(STAR5, DOMINATION, budget=3)
    assert rep.status == "budget"


def test_omega_zero_equals_psi_small():
    for n in range(2, 5):
        for g in connected_graphs(n):
            assert pebbling_value(g, subversion(0)).value == \
                pebbling_value(g, DOMINATION).value


def test_subversion_value_zero_when_omega_covers_graph():
    g = complete(3)
    assert pebbling_value(g, subversion(3)).value == 0
    assert pebbling_value(g, subversion(3)).witness is None


# ---------------------------------------------------------------------------
# stacking
# ---------------------------------------------------------------------------

def test_lambda_stacking_values():
    assert lambda_stacking(complete(2)).value == 3
    assert lambda_stacking(path(3)).value == 7  # 1 + 2 + 4 from an endpoint
    assert lambda_stacking(STAR5).value == 15  # 1 + 2 + 4 + 4 + 4 at a leaf


def test_lambda_stacking_witness_is_single_stack():
    rep = lambda_stacking(path(3))
    assert rep.witness in ((6, 0, 0), (0, 0, 6))
    assert rep.witness == (6, 0, 0)  # ties break to the smallest index
    assert stacking_value(path(3), 0) == 7


def test_lambda_stacking_matches_bruteforce_small():
    for n in range(1, 6):
        for g in connected_graphs(n):
            assert lambda_stacking(g).value == \
                pebbling_value(g, FULL_COVER).value


def test_lambda_stacking_witness_unsolvable():
    for g in (path(3), STAR5):
        rep = lambda_stacking(g)
        assert is_solvable(g, rep.witness, FULL_COVER).solvable is False


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_witness_wheel_subversion():
    w8 = wheel(8)
    # single pebbles on three consecutive rim vertices are unsolvable
    consecutive = tuple(1 if v in (1, 2, 3) else 0 for v in range(9))
    assert is_solvable(w8, consecutive, subversion(1)).solvable is False


# ---------------------------------------------------------------------------
# reference oracle for the level scan
# ---------------------------------------------------------------------------

def reference_levels(g, goal):
    """Unsolvable configurations of each size, in colex order, classified
    one by one with the single-query search, up to and including the
    first level where every configuration is solvable."""
    levels = []
    while not levels or levels[-1]:
        levels.append([c for c in configurations(g.n, len(levels))
                       if not is_solvable(g, c, goal).solvable])
    return levels


REFERENCE_CASES = [
    (g, goal)
    for goal, top in ((DOMINATION, 5), (subversion(1), 5), (subversion(2), 5),
                      (FULL_COVER, 4))
    for n in range(1, top + 1) for g in connected_graphs(n)
]


@pytest.mark.parametrize(
    "g,goal", REFERENCE_CASES,
    ids=[f"{emit_graph6(g)}-{goal.describe()}" for g, goal in REFERENCE_CASES])
def test_level_scan_matches_reference(g, goal):
    levels = reference_levels(g, goal)
    value = len(levels) - 1
    witness = levels[-2][-1] if value else None
    rep = pebbling_value(g, goal)
    assert (rep.value, rep.witness, rep.status) == (value, witness, "exact")
    for k in range(value):
        capped = pebbling_value(g, goal, cap=k)
        assert (capped.value, capped.witness, capped.status) == \
            (k + 1, levels[k][-1], "cap")


# ---------------------------------------------------------------------------
# one scan for several goals
# ---------------------------------------------------------------------------

def _verdict(rep):
    return rep.value, rep.witness, rep.status


def test_pebbling_values_match_single_goal_scans():
    # The candidates of a shared scan depend on its smallest omega, so
    # only the verdicts agree with the one-goal scans, not ``checked``.
    goals = (DOMINATION, subversion(1), subversion(2))
    for n in range(1, 7):
        for g in connected_graphs(n):
            shared = pebbling_values(g, goals)
            single = [pebbling_value(g, goal) for goal in goals]
            assert list(map(_verdict, shared)) == list(map(_verdict, single))
            for budget in (0, 1, 5, 37, 200):
                pairs = zip(
                    shared + single,
                    pebbling_values(g, goals, budget=budget)
                    + [pebbling_value(g, goal, budget=budget)
                       for goal in goals])
                for exact, rep in pairs:
                    if rep.status == "exact":
                        assert rep == exact
                    else:
                        assert rep.status == "budget"
                        assert rep.checked == budget + 1
                        assert rep.value <= exact.value
    with pytest.raises(ValueError, match="cannot share"):  # cover scans alone
        pebbling_values(P4, (DOMINATION, FULL_COVER))
    with pytest.raises(ValueError, match="at least one goal"):
        pebbling_values(P4, ())


# ---------------------------------------------------------------------------
# scan outcomes pinned across refactors
# ---------------------------------------------------------------------------

PINNED_SCAN = (
    1853, "f12662250d481e4fff5b4ffb812eedff083f10bc0dd0bd07a9d622f05cc1784f")


def scan_outcomes():
    """``(value, witness, status, checked)`` of pebbling_values on the
    corpus up to order 6 for domination and omega = 1, 2 in one scan, and
    up to order 5 for cover, unlimited, at budgets 7 and 40 and at cap 3;
    then the shared scan of four named families and brute lambda of
    tail-clique 2 3."""
    def outcome(rep):
        return rep.value, rep.witness, rep.status, rep.checked

    shared = (DOMINATION, subversion(1), subversion(2))
    limits = ((None, None), (None, 7), (None, 40), (3, None))
    for n in range(1, 7):
        for line, g in zip(connected_graph6_lines(n), connected_graphs(n)):
            for goals in (shared, (FULL_COVER,)) if n <= 5 else (shared,):
                for cap, budget in limits:
                    reps = pebbling_values(g, goals, cap, budget)
                    for goal, rep in zip(goals, reps):
                        yield (f"{line} {goal.describe()} {cap} {budget} "
                               f"{outcome(rep)}\n")
    named = (("path 7", path(7)), ("binary-tree 2", binary_tree(2)),
             ("tail-clique 2 4", tail_clique(2, 4)), ("cycle 9", cycle(9)))
    for name, g in named:
        for goal, rep in zip(shared, pebbling_values(g, shared)):
            yield f"{name} {goal.describe()} {outcome(rep)}\n"
    rep = pebbling_value(tail_clique(2, 3), FULL_COVER)
    yield f"tail-clique 2 3 {FULL_COVER.describe()} {outcome(rep)}\n"


def test_scan_outcomes_pinned():
    digest = hashlib.sha256()
    calls = 0
    for row in scan_outcomes():
        digest.update(row.encode())
        calls += 1
    assert (calls, digest.hexdigest()) == PINNED_SCAN


def test_psi_path8_exact_within_budget():
    rep = pebbling_value(path(8), DOMINATION, budget=1_000_000)
    assert _verdict(rep) == (73, (0,) * 7 + (72,), "exact")


def test_full_enumeration_budget_suffices():
    # ``checked`` counts candidates, never more than every configuration
    # of sizes 0..value.
    for n in range(1, 6):
        for g in connected_graphs(n):
            for goal in (DOMINATION, subversion(1), FULL_COVER):
                rep = pebbling_value(g, goal)
                full = sum(comb(k + n - 1, n - 1)
                           for k in range(rep.value + 1))
                assert rep.checked <= full
                assert pebbling_value(g, goal, budget=full) == rep


# ---------------------------------------------------------------------------
# pointwise monotonicity
# ---------------------------------------------------------------------------

def test_pointwise_monotonicity_small():
    goals = [DOMINATION, FULL_COVER, subversion(1), subversion(2)]
    for n in range(2, 5):
        for g in connected_graphs(n):
            for goal in goals:
                solvable = {}
                for size in range(6):
                    for c in configurations(g.n, size):
                        solvable[c] = is_solvable(g, c, goal).solvable
                for c, ok in solvable.items():
                    if not ok or sum(c) >= 5:
                        continue
                    for v in range(g.n):
                        bumped = tuple(c[i] + (i == v) for i in range(g.n))
                        assert solvable[bumped], (g, goal, c, v)
