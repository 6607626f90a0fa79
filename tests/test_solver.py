import sys
from functools import lru_cache
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
from dcpebble.solver import (
    _inside,
    _limits,
    _packing,
    _targets,
    _tight_caps,
    configurations,
    default_cap,
)
from pins import Pin, check_pin


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

PINNED_ORACLE = Pin(
    26078, "b1788986b433610be5866eb41c10b3221c9d7f7f553e3981fcba34431df3454d",
    {
        "1 domination": (2, "169538971190"),
        "1 subversion(omega=1)": (2, "024976483daa"),
        "1 subversion(omega=2)": (2, "a92ecd79a09b"),
        "1 cover": (2, "2dfd88ebf414"),
        "2 domination": (3, "49a3d9aa80d9"),
        "2 subversion(omega=1)": (3, "c6320edf2100"),
        "2 subversion(omega=2)": (3, "7e4b59d51886"),
        "2 cover": (10, "7b342b8a77a8"),
        "3 domination": (20, "142299d07cce"),
        "3 subversion(omega=1)": (20, "066148632f67"),
        "3 subversion(omega=2)": (20, "a0f1c3522965"),
        "3 cover": (140, "194936f06987"),
        "4 domination": (301, "d7988225f629"),
        "4 subversion(omega=1)": (301, "b9ae10ee60d1"),
        "4 subversion(omega=2)": (301, "55539fe96613"),
        "4 cover": (1260, "ccdd82926bbe"),
        "5 domination": (4662, "1794d1735eeb"),
        "5 subversion(omega=1)": (4662, "10e991fe83b7"),
        "5 subversion(omega=2)": (4662, "3684e9424f99"),
        "5 cover": (9702, "8d88cf91f66c"),
    })

PINNED_ORACLE_WORK = Pin(
    78594, "52ec008c606b4be497a2ccff11b44888ea950a6001bbe483cec59a37e71201c9",
    {
        "1 domination": (6, "1e23ab2dcb18"),
        "1 subversion(omega=1)": (6, "7f25554cc180"),
        "1 subversion(omega=2)": (6, "be6971de1599"),
        "1 cover": (6, "42d8b4178590"),
        "2 domination": (9, "574b9679eba0"),
        "2 subversion(omega=1)": (9, "08947f40027d"),
        "2 subversion(omega=2)": (9, "6ecb65e96791"),
        "2 cover": (30, "1688fb5dc101"),
        "3 domination": (60, "007756937272"),
        "3 subversion(omega=1)": (60, "9cbed4651ece"),
        "3 subversion(omega=2)": (60, "f1b03209f711"),
        "3 cover": (420, "38debf6b1b70"),
        "4 domination": (903, "87b2c94f4cc4"),
        "4 subversion(omega=1)": (903, "24c40f39f32c"),
        "4 subversion(omega=2)": (903, "8670b1d13db7"),
        "4 cover": (3780, "96d015f0c452"),
        "5 domination": (13986, "45c22e3e8935"),
        "5 subversion(omega=1)": (13986, "d7eadde399df"),
        "5 subversion(omega=2)": (13986, "eeb5df5d4675"),
        "5 cover": (29106, "bc364e16562c"),
        "path 7 domination": (21, "83beb6016f71"),
        "path 7 subversion(omega=1)": (21, "4f2c849c627a"),
        "path 7 subversion(omega=2)": (21, "bdaa199fcbc4"),
        "path 7 cover": (21, "eced44e13b4d"),
        "cycle 9 domination": (27, "46010209e03c"),
        "cycle 9 subversion(omega=1)": (27, "1232eeb66784"),
        "cycle 9 subversion(omega=2)": (27, "1c1cb967daf4"),
        "cycle 9 cover": (27, "a08939a719e4"),
        "binary-tree 2 domination": (21, "f26eb44ab960"),
        "binary-tree 2 subversion(omega=1)": (21, "804b869c6d7a"),
        "binary-tree 2 subversion(omega=2)": (21, "e38d5c89ea8e"),
        "binary-tree 2 cover": (21, "9928ffcbed04"),
        "tail-clique 2 4 domination": (21, "212427053fc2"),
        "tail-clique 2 4 subversion(omega=1)": (21, "6762e0b74a03"),
        "tail-clique 2 4 subversion(omega=2)": (21, "8b33d3509222"),
        "tail-clique 2 4 cover": (21, "15a8e379ccee"),
    })


@lru_cache(maxsize=1)
def oracle_reports():
    """``(bucket, label, budget, result)`` of is_solvable on every
    configuration of at most min(cap, 6) pebbles on the corpus up to
    order 5, at the default budget (``None``) and at budgets 3 and 40;
    then on single stacks of cap // 4, cap // 2 and cap - 1 pebbles on
    every vertex of four named families, at budget 5,000.  Bucketed by
    corpus order or family, and goal.  Computed once for the two streams
    below."""
    rows = []
    for n in range(1, 6):
        for line, g in zip(connected_graph6_lines(n), connected_graphs(n)):
            for goal in ALL_GOALS:
                for size in range(min(default_cap(g, goal), 6) + 1):
                    for c in configurations(n, size):
                        for budget in (None, 3, 40):
                            res = (is_solvable(g, c, goal) if budget is None
                                   else is_solvable(g, c, goal, budget))
                            rows.append((f"{n} {goal.describe()}",
                                         f"{line} {goal.describe()} {budget} "
                                         f"{c}", budget, res))
    named = (("path 7", path(7)), ("cycle 9", cycle(9)),
             ("binary-tree 2", binary_tree(2)),
             ("tail-clique 2 4", tail_clique(2, 4)))
    for name, g in named:
        for goal in ALL_GOALS:
            cap = default_cap(g, goal)
            for size in (cap // 4, cap // 2, cap - 1):
                for v in range(g.n):
                    c = tuple(size * (u == v) for u in range(g.n))
                    rows.append((f"{name} {goal.describe()}",
                                 f"{name} {goal.describe()} {c}", 5000,
                                 is_solvable(g, c, goal, 5000)))
    return rows


def _answer(res):
    moves = None if res.certificate is None else res.certificate.moves
    return res.solvable, moves


def oracle_outcomes():
    """The answers, ``(solvable, certificate moves)``, of every
    default-budget row of :func:`oracle_reports`: they do not depend on
    how many states the search stores."""
    for bucket, label, budget, res in oracle_reports():
        if budget is None:
            yield bucket, f"{label} {_answer(res)}\n"


def oracle_work():
    """The work: ``states_explored`` of the rows :func:`oracle_outcomes`
    holds, and every budgeted row in full, as where a budget trips decides
    its verdict."""
    for bucket, label, budget, res in oracle_reports():
        work = (res.states_explored if budget is None
                else (*_answer(res), res.states_explored))
        yield bucket, f"{label} {work}\n"


def test_oracle_outcomes_pinned():
    check_pin(oracle_outcomes(), PINNED_ORACLE)


def test_oracle_work_pinned():
    check_pin(oracle_work(), PINNED_ORACLE_WORK)


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


# The oracle graphs of the perfbench solve workload up to 13 vertices.
SOLVE_ORACLE_FAMILIES = (
    ("path", (7,)), ("path", (11,)), ("cycle", (9,)), ("cycle", (13,)),
    ("binary-tree", (2,)), ("tail-clique", (2, 4)), ("tail-clique", (3, 3)),
    ("apex-pendant-clique", (9, 1)), ("star-leaf-path", (10, 2)),
    ("wheel", (8,)), ("multipartite", (2, 3, 4)),
)
NEED_GOALS = ALL_GOALS + (subversion(3),)


def need_graphs():
    for n in range(1, 7):
        yield from connected_graphs(n)
    for kind, params in SOLVE_ORACLE_FAMILIES:
        yield generate(FamilySpec(kind, params))


# The graphs of the perfbench families workload.
FAMILIES_WORKLOAD = (
    ("binary-tree", (2,)), ("path", (6,)), ("tail-clique", (2, 4)),
    ("tail-clique", (2, 3)), ("path", (8,)),
)


PINNED_TARGETS = Pin(
    785, "5213dfc078b44ab0decea8e143671425a80275f553a9e06833264b519a2e53d2",
    {
        "1 domination": (1, "1257887eec41"),
        "1 subversion(omega=1)": (1, "281e3a7ea0ef"),
        "1 subversion(omega=2)": (1, "f6ee97025b45"),
        "1 cover": (1, "bdcb92ae8e3e"),
        "1 subversion(omega=3)": (1, "e9e3d135a8c7"),
        "2 domination": (1, "a0a2192ffb4a"),
        "2 subversion(omega=1)": (1, "f1f3d91721a5"),
        "2 subversion(omega=2)": (1, "7234011e8622"),
        "2 cover": (1, "4baee072632a"),
        "2 subversion(omega=3)": (1, "6358bacd8949"),
        "3 domination": (2, "0941e479256d"),
        "3 subversion(omega=1)": (2, "4dfbceb77c71"),
        "3 subversion(omega=2)": (2, "11f835d08fb6"),
        "3 cover": (2, "9abf77b3ebfa"),
        "3 subversion(omega=3)": (2, "844762b6d009"),
        "4 domination": (6, "394975e3347d"),
        "4 subversion(omega=1)": (6, "80b7ebee6206"),
        "4 subversion(omega=2)": (6, "6bec91c7ee52"),
        "4 cover": (6, "617d771dbcf3"),
        "4 subversion(omega=3)": (6, "9216bcca81f3"),
        "5 domination": (21, "fc23a63153b4"),
        "5 subversion(omega=1)": (21, "9a3885097eb7"),
        "5 subversion(omega=2)": (21, "df27689c8b0b"),
        "5 cover": (21, "0c168f886c17"),
        "5 subversion(omega=3)": (21, "0bd59cd4eae6"),
        "6 domination": (112, "b682a1790d98"),
        "6 subversion(omega=1)": (112, "3aabbcf2dac6"),
        "6 subversion(omega=2)": (112, "f42beb9d7d44"),
        "6 cover": (112, "78e09feb6f0f"),
        "6 subversion(omega=3)": (112, "fc73d901f5b0"),
        "path 7 domination": (1, "e3a472c85f7b"),
        "path 7 subversion(omega=1)": (1, "3a0ac7135777"),
        "path 7 subversion(omega=2)": (1, "b30a98b89e4e"),
        "path 7 cover": (1, "130b51d58166"),
        "path 7 subversion(omega=3)": (1, "541d31fbe274"),
        "path 11 domination": (1, "21714ed59e35"),
        "path 11 subversion(omega=1)": (1, "d54ba7f5cfa0"),
        "path 11 subversion(omega=2)": (1, "5ad07a4d9388"),
        "path 11 cover": (1, "5efa4880d77a"),
        "path 11 subversion(omega=3)": (1, "8dc8cbc7e346"),
        "cycle 9 domination": (1, "5bbb9d268794"),
        "cycle 9 subversion(omega=1)": (1, "7b8a3bdaa783"),
        "cycle 9 subversion(omega=2)": (1, "d0d8b2304492"),
        "cycle 9 cover": (1, "385aeeadb95a"),
        "cycle 9 subversion(omega=3)": (1, "e60f0f6c068a"),
        "cycle 13 domination": (1, "2f151289a22b"),
        "cycle 13 subversion(omega=1)": (1, "da45f13ba964"),
        "cycle 13 subversion(omega=2)": (1, "16db1ca5e182"),
        "cycle 13 cover": (1, "f6df542d37a1"),
        "cycle 13 subversion(omega=3)": (1, "d753294fbe5f"),
        "binary-tree 2 domination": (1, "b55e60370269"),
        "binary-tree 2 subversion(omega=1)": (1, "3d62a6f9e5e9"),
        "binary-tree 2 subversion(omega=2)": (1, "ecc715cae12b"),
        "binary-tree 2 cover": (1, "a1161b622720"),
        "binary-tree 2 subversion(omega=3)": (1, "87d841d53108"),
        "tail-clique 2 4 domination": (1, "a92d016fd027"),
        "tail-clique 2 4 subversion(omega=1)": (1, "0d0caca64f57"),
        "tail-clique 2 4 subversion(omega=2)": (1, "bdad1e970010"),
        "tail-clique 2 4 cover": (1, "24448c0e9c15"),
        "tail-clique 2 4 subversion(omega=3)": (1, "380ea29e19eb"),
        "tail-clique 3 3 domination": (1, "9dc74eac84da"),
        "tail-clique 3 3 subversion(omega=1)": (1, "8a901565122e"),
        "tail-clique 3 3 subversion(omega=2)": (1, "0d687fb94a5b"),
        "tail-clique 3 3 cover": (1, "352c78ece130"),
        "tail-clique 3 3 subversion(omega=3)": (1, "8889bfc2d298"),
        "apex-pendant-clique 9 1 domination": (1, "30a7ecd6e010"),
        "apex-pendant-clique 9 1 subversion(omega=1)": (1, "a0544fc91bc1"),
        "apex-pendant-clique 9 1 subversion(omega=2)": (1, "de3cd0e78e4d"),
        "apex-pendant-clique 9 1 cover": (1, "001bc681a74a"),
        "apex-pendant-clique 9 1 subversion(omega=3)": (1, "616d9ac18e10"),
        "star-leaf-path 10 2 domination": (1, "1bac8b0ab8be"),
        "star-leaf-path 10 2 subversion(omega=1)": (1, "d5492947a8ce"),
        "star-leaf-path 10 2 subversion(omega=2)": (1, "f7c98945d4c1"),
        "star-leaf-path 10 2 cover": (1, "ee7d65bf7c4d"),
        "star-leaf-path 10 2 subversion(omega=3)": (1, "1b34ee4eae50"),
        "wheel 8 domination": (1, "eeb03b42d852"),
        "wheel 8 subversion(omega=1)": (1, "8d163422aca6"),
        "wheel 8 subversion(omega=2)": (1, "85bd27963e36"),
        "wheel 8 cover": (1, "e038ef4b4917"),
        "wheel 8 subversion(omega=3)": (1, "6fd249f443f3"),
        "multipartite 2 3 4 domination": (1, "60df5505d77a"),
        "multipartite 2 3 4 subversion(omega=1)": (1, "f6cf2321edfa"),
        "multipartite 2 3 4 subversion(omega=2)": (1, "4d7726bd605d"),
        "multipartite 2 3 4 cover": (1, "2610a2f427a5"),
        "multipartite 2 3 4 subversion(omega=3)": (1, "61d0781d4a85"),
        "path 6 domination": (1, "d670782b7f56"),
        "path 6 subversion(omega=1)": (1, "1af215200c12"),
        "path 6 subversion(omega=2)": (1, "4fe5c4de3930"),
        "path 6 cover": (1, "a7468f4b9db9"),
        "path 6 subversion(omega=3)": (1, "c29e22bc7f3e"),
        "tail-clique 2 3 domination": (1, "f04432d977bd"),
        "tail-clique 2 3 subversion(omega=1)": (1, "720bd2a9bf2a"),
        "tail-clique 2 3 subversion(omega=2)": (1, "b0021c79733f"),
        "tail-clique 2 3 cover": (1, "e079ef9f5703"),
        "tail-clique 2 3 subversion(omega=3)": (1, "57259d7d0a63"),
        "path 8 domination": (1, "443c9a048b8c"),
        "path 8 subversion(omega=1)": (1, "f98647341180"),
        "path 8 subversion(omega=2)": (1, "2fb07ccebe3c"),
        "path 8 cover": (1, "fe8444f119f8"),
        "path 8 subversion(omega=3)": (1, "9b0c02a863cf"),
    })


def targets_outcomes():
    """``(row, need)`` of every target of ``_targets`` for each goal of
    ``NEED_GOALS`` on the corpus up to order 6, the families of
    ``need_graphs`` and the graphs of perfbench's ``families``, one row a
    graph and goal.  Bucketed by corpus order or family, and goal."""
    graphs = [(str(n), line, g) for n in range(1, 7)
              for line, g in zip(connected_graph6_lines(n),
                                 connected_graphs(n))]
    for kind, params in dict.fromkeys(SOLVE_ORACLE_FAMILIES
                                      + FAMILIES_WORKLOAD):
        name = " ".join((kind, *map(str, params)))
        graphs.append((name, name, generate(FamilySpec(kind, params))))
    for where, name, g in graphs:
        for goal in NEED_GOALS:
            yield (f"{where} {goal.describe()}",
                   f"{name} {goal.describe()} {_targets(g, goal)}\n")


def test_targets_outcomes_pinned():
    check_pin(targets_outcomes(), PINNED_TARGETS)


def weigh(row, s):
    return sum(x for v, x in enumerate(row) if s >> v & 1)


def requirement_sets(g, goal):
    """The inclusion-minimal closed neighbourhoods of the connected
    (omega + 1)-sets, or the singletons under cover, in order of size,
    then mask, derived from every vertex subset."""
    if goal.kind == "cover":
        return [1 << v for v in range(g.n)]

    def connected(c):
        seen = c & -c
        while True:
            grown = seen | dominated_mask(g, seen) & c
            if grown == seen:
                return seen == c
            seen = grown

    sets = {dominated_mask(g, c) for c in range(1 << g.n)
            if c.bit_count() == goal.omega + 1 and connected(c)}
    return sorted((m for m in sets
                   if not any(o != m and o & m == o for o in sets)),
                  key=lambda m: (m.bit_count(), m))


@pytest.mark.parametrize("goal", NEED_GOALS, ids=lambda goal: goal.describe())
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
                    assert weigh(row, s) >= need, (g, row, need, s)
    if goal.kind == "cover":
        return
    # Only cover has unions of requirement sets among its targets: for the
    # other goals no two requirement sets are max(2, diam - 1) apart.
    for g in need_graphs():
        gap, sets = max(2, g.diameter - 1), requirement_sets(g, goal)
        for i, a in enumerate(sets):
            near = 0
            for u in range(g.n):
                if a >> u & 1:
                    near |= sum(1 << v for v, d in enumerate(g.dist[u])
                                if d < gap)
            assert all(b & near for b in sets[i + 1:]), (g, a)


@pytest.mark.parametrize("goal", NEED_GOALS, ids=lambda goal: goal.describe())
def test_targets_need_least_goal_meeting_weight(goal):
    # A target's need is the least weight of any goal-meeting vertex set
    # (one pebble a vertex); weights are positive, so an inclusion-minimal
    # one attains it.
    for g in need_graphs():
        meets = {s for s in range(1 << g.n) if satisfies_mask(g, s, goal)}
        minimal = [s for s in meets
                   if all(s & ~(1 << v) not in meets for v in range(g.n)
                          if s >> v & 1)]
        for row, need in _targets(g, goal):
            assert min(row) > 0, (g, row)
            assert need == min(weigh(row, s) for s in minimal), (g, row)


def greedy_need(g, goal, row):
    """The lightest weights of pairwise disjoint requirement sets, taken
    heaviest first."""
    need = used = 0
    for light, m in sorted(((min(x for v, x in enumerate(row) if m >> v & 1),
                             m) for m in requirement_sets(g, goal)),
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


@pytest.mark.parametrize("goal", (DOMINATION, subversion(1)),
                         ids=lambda goal: goal.describe())
def test_targets_keep_greedy_need_when_work_runs_out_mid_search(
        goal, monkeypatch):
    # On cycle(17) the default work limit runs out inside one target's
    # search, and every later target keeps its greedy need too.
    g = cycle(17)
    needs = [need for _, need in _targets(g, goal)]
    monkeypatch.setattr(solver, "_MAX_HIT_WORK", 10**12)
    fell_back = 0
    for need, (row, least) in zip(needs, _targets(g, goal), strict=True):
        if need != least:
            assert need == greedy_need(g, goal, row) < least, (row, need)
            fell_back += 1
    assert fell_back


def test_omega_past_the_order_has_no_target():
    # No connected (omega + 1)-set exists, so every configuration meets the
    # goal: nothing to bound, however large omega is.
    assert _targets(P4, subversion(3))
    assert _targets(P4, subversion(4)) == []
    res = is_solvable(P4, (3, 0, 0, 0), subversion(10**20))
    assert res.solvable and res.certificate.moves == ()
    assert res.states_explored == 0


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
    # A scan that enumerated every level below the value would examine the
    # empty configuration, then c + e_v for every unsolvable c of those
    # levels and v at or above c's top vertex (0 for the empty one).  The
    # scan examines at most that: it stops early, or drops the
    # configurations outside its box where that costs fewer candidates.
    def top(c):
        return max((v for v, k in enumerate(c) if k), default=0)
    assert rep.checked <= 1 + sum(g.n - top(c) for level in levels[:value]
                                  for c in level)
    for k in range(value):
        capped = pebbling_value(g, goal, cap=k)
        assert (capped.value, capped.witness, capped.status) == \
            (k + 1, levels[k][-1], "cap")


def tight_configurations(g, targets, k):
    """Every configuration of k pebbles that meets every target's need
    while each legal move's child falls below some need, found depth first
    from vertex n - 1 down.  A branch ends once some need is out of reach
    with the pebbles left, or once a vertex holding two pebbles has a move
    that no target could still refute, even with the pebbles left on the
    lightest vertex below."""
    n = g.n
    lightest = [[min(row[:u], default=0) for u in range(n)]
                for row, _ in targets]
    heaviest = [[max(row[:u], default=0) for u in range(n)]
                for row, _ in targets]
    counts = [0] * n

    def refutable(spent, rest, u, v):
        return any(s + rest * light[u] < need + 2 * row[u] - row[v]
                   for s, light, (row, need) in zip(spent, lightest, targets))

    def search(u, rest, spent):
        for m in range(rest + 1) if u else (rest,):
            got = [s + m * row[u] for s, (row, _) in zip(spent, targets)]
            left = rest - m
            if any(s + left * heavy[u] < need for s, heavy, (_, need)
                   in zip(got, heaviest, targets)):
                continue
            if m >= 2 and not all(refutable(got, left, u, v)
                                  for v in g.adj[u]):
                continue
            counts[u] = m
            if u:
                yield from search(u - 1, left, got)
            elif all(refutable(got, 0, a, b) for a in range(n)
                     if counts[a] >= 2 for b in g.adj[a]):
                yield tuple(counts)
        counts[u] = 0

    yield from search(n - 1, k, [0] * len(targets))


@pytest.mark.parametrize("goal", (DOMINATION, subversion(1), FULL_COVER),
                         ids=lambda goal: goal.describe())
def test_tight_caps_sound(goal):
    # A tight configuration of k pebbles, one that passes every bound while
    # each legal move's child fails one, holds at most M_k(u) pebbles on
    # each vertex u, and no M_k(u) rises with k: the premise of the
    # single-omega scan's box, as the colex parent of an unsolvable member
    # of Box_k then lies in Box_k-1.  The scan switches at k > n only, and
    # past top = max ceil(need / least weight) every child passes every
    # bound, so n < k <= top covers every size with a tight configuration.
    # The graphs: the
    # corpus (cover to order 5), and those of perfbench's families but
    # path(8), whose psi sizes 9..73 this search does not finish in 20 s;
    # for cover, only tail-clique(2, 3), the one families scans for cover.
    cover = goal.kind == "cover"
    graphs = [g for n in range(1, 6 if cover else 7)
              for g in connected_graphs(n)]
    graphs += [generate(FamilySpec(kind, params))
               for kind, params in FAMILIES_WORKLOAD
               if (kind == "tail-clique" and params == (2, 3)
                   or not cover and params != (8,))]
    found = 0
    for g in graphs:
        targets = _targets(g, goal)
        if not targets:
            continue
        top = max(-(-need // min(row)) for row, need in targets)
        last = [float("inf")] * g.n
        for k in range(g.n + 1, top + 1):
            caps = _tight_caps(g, targets, k)
            assert all(m <= was for m, was in zip(caps, last)), (g, k)
            last = caps
            for c in tight_configurations(g, targets, k):
                assert all(x <= m for x, m in zip(c, caps)), (g, c, caps)
                found += 1
    if cover:  # psi and Omega_1 have no tight configuration here
        assert found
    if goal == DOMINATION:
        # But psi has tight configurations past n pebbles elsewhere: two of
        # 11 on path(10).  Each passes every bound, is unsolvable, and lies
        # in the box.
        g = path(10)
        caps = _tight_caps(g, _targets(g, goal), 11)
        for c in ((0, 0, 0, 7, 1, 1, 1, 1, 0, 0),
                  (0, 0, 1, 1, 1, 1, 7, 0, 0, 0)):
            assert not refuted(g, c, goal)
            assert is_solvable(g, c, goal).solvable is False
            assert all(x <= m for x, m in zip(c, caps)), (c, caps)


def test_box_filter_is_the_cap_test():
    # _inside keeps exactly the configurations of k - 1 pebbles with c_u <=
    # min(M_k(u), the field's largest count) on every vertex u, packed with
    # their slack fields, in the narrowest packing that holds k - 1 pebbles
    # and in one twice as wide.  Some case has a field maximum of k - 1 and
    # lift 0 in that field, so a stack fills it, and some configuration
    # overflows two adjacent fields.
    filled = adjacent = 0
    for g in (path(5), star(5), cycle(5), tail_clique(1, 3)):
        for goal in (DOMINATION, subversion(1), FULL_COVER):
            targets = _targets(g, goal)
            if not targets:
                continue
            top = max(-(-need // min(row)) for row, need in targets)
            for k in range(g.n + 1, min(top, g.n + 6) + 1):
                caps = _tight_caps(g, targets, k)
                for bits in ((k - 1).bit_length(), 2 * (k - 1).bit_length()):
                    p = _packing(g, goal, bits)
                    lift, least = _limits(g, p, k)
                    most = (1 << bits) - 1
                    cut = [min(m, most) for m in caps]
                    assert least == min(cut)
                    filled += most == k - 1 and most in cut
                    box, packed = [], []
                    for c in configurations(g.n, k - 1):
                        packed.append(p.pack(c))
                        over = [x > m for x, m in zip(c, cut)]
                        adjacent += any(a and b for a, b in zip(over, over[1:]))
                        if not any(over):
                            box.append(packed[-1])
                    got = _inside({0: packed}, lift, p.high << 1)
                    assert got == ({0: box} if box else {}), (g, goal, k)
    assert filled and adjacent


def test_box_scan_values_of_long_paths():
    # Checked against the scan without its box, which examines 3,069,020
    # candidates for path(9) and 189,093,066 for path(10).
    for n, psi in ((9, 146), (10, 293)):
        rep = pebbling_value(path(n), DOMINATION)
        assert _verdict(rep) == (psi, (0,) * (n - 1) + (psi - 1,), "exact")


# ---------------------------------------------------------------------------
# one scan for several goals
# ---------------------------------------------------------------------------

def _verdict(rep):
    return rep.value, rep.witness, rep.status


def test_pebbling_values_match_single_goal_scans():
    # The candidates of a shared scan depend on its smallest omega, so
    # only the verdicts agree with the one-goal scans, not ``checked``.
    goals = (DOMINATION, subversion(1), subversion(2))
    twin = (DOMINATION, subversion(0))
    for n in range(1, 7):
        for g in connected_graphs(n):
            shared = pebbling_values(g, goals)
            single = [pebbling_value(g, goal) for goal in goals]
            assert list(map(_verdict, shared)) == list(map(_verdict, single))
            for budget in (None, 0, 1, 5, 37, 200):
                assert pebbling_values(g, twin, budget=budget) == [
                    pebbling_value(g, goal, budget=budget) for goal in twin]
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
    # The smallest omega is psi's, so psi's one-goal scan has the shared
    # scan's candidates up to the level where it switches to its box,
    # which the shared scan, packing no bound, never does.  So the psi
    # reports agree in verdict, and in full at every budget that trips
    # below that level; a later trip still reports a sound lower bound
    # with an unsolvable witness.  binary_tree(2) never switches.
    for kind, params, switch in (("path", (6,), 7),
                                 ("binary-tree", (2,), None),
                                 ("tail-clique", (2, 4), 14)):
        g = generate(FamilySpec(kind, params))
        full = pebbling_value(g, DOMINATION)
        assert _verdict(full) == _verdict(pebbling_values(g, goals)[0])
        for budget in (0, 1, 5, 37, 200, full.checked - 1):
            one = pebbling_value(g, DOMINATION, budget=budget)
            assert one.status == "budget" and one.checked == budget + 1
            if switch is None or one.value < switch:
                assert one == pebbling_values(g, goals, budget=budget)[0]
            else:
                assert one.value <= full.value
                assert sum(one.witness) == one.value - 1
                assert not is_solvable(g, one.witness, DOMINATION).solvable
    with pytest.raises(ValueError, match="cannot share"):  # cover scans alone
        pebbling_values(P4, (DOMINATION, FULL_COVER))
    with pytest.raises(ValueError, match="at least one goal"):
        pebbling_values(P4, ())


# ---------------------------------------------------------------------------
# scan outcomes pinned across refactors
# ---------------------------------------------------------------------------

PINNED_SCAN = Pin(
    3537, "e9ead88f5d212f62c1a7e680d016e68591a4bfd5092cf7c095d73152ff618d57",
    {
        "1 domination": (2, "6e9b723f1592"),
        "1 subversion(omega=1)": (2, "be1279527279"),
        "1 subversion(omega=2)": (2, "de15f9f2eb93"),
        "1 cover": (2, "1bf056b38e9b"),
        "2 domination": (2, "59b5d9d23adf"),
        "2 subversion(omega=1)": (2, "530a9ce9a0d7"),
        "2 subversion(omega=2)": (2, "e3362b905e64"),
        "2 cover": (2, "4daf1df79025"),
        "3 domination": (4, "66263d85d977"),
        "3 subversion(omega=1)": (4, "5124268ffa72"),
        "3 subversion(omega=2)": (4, "a8a65e4e315d"),
        "3 cover": (4, "387979b93570"),
        "4 domination": (12, "b697453501dd"),
        "4 subversion(omega=1)": (12, "4134ade7d140"),
        "4 subversion(omega=2)": (12, "558d3d9ed35d"),
        "4 cover": (12, "44b16e828c50"),
        "5 domination": (42, "53e3cfb77f6d"),
        "5 subversion(omega=1)": (42, "724c95aaa043"),
        "5 subversion(omega=2)": (42, "18481664ddb6"),
        "5 cover": (42, "273a730bdfb6"),
        "6 domination": (224, "1ea368dc3a0f"),
        "6 subversion(omega=1)": (224, "551597472114"),
        "6 subversion(omega=2)": (224, "f18551839940"),
        "path 7 domination": (1, "2dadbfe30b2f"),
        "path 7 subversion(omega=1)": (1, "dd20a73e94b9"),
        "path 7 subversion(omega=2)": (1, "42afbe7cd638"),
        "binary-tree 2 domination": (1, "b1adaeeeebca"),
        "binary-tree 2 subversion(omega=1)": (1, "7574dcbc5339"),
        "binary-tree 2 subversion(omega=2)": (1, "31a75a78736d"),
        "tail-clique 2 4 domination": (1, "ba421c3ed309"),
        "tail-clique 2 4 subversion(omega=1)": (1, "ce143f3f217f"),
        "tail-clique 2 4 subversion(omega=2)": (1, "8140837c5601"),
        "cycle 9 domination": (1, "02f9d6a2263a"),
        "cycle 9 subversion(omega=1)": (1, "323cc859f470"),
        "cycle 9 subversion(omega=2)": (1, "76d08155d2c6"),
        "tail-clique 2 3 cover": (1, "a207160f1158"),
        "single 1 domination": (6, "47c83441d0f9"),
        "single 1 subversion(omega=1)": (6, "c05e96c60155"),
        "single 1 cover": (6, "7703f4c421d6"),
        "single 2 domination": (6, "4652db1260f7"),
        "single 2 subversion(omega=1)": (6, "13ae7d3c81fb"),
        "single 2 cover": (6, "31ddccd41c6f"),
        "single 3 domination": (12, "a18d81734cf2"),
        "single 3 subversion(omega=1)": (12, "8cdb0be29ebc"),
        "single 3 cover": (12, "56cb8e030f1e"),
        "single 4 domination": (36, "93e5b59b70f2"),
        "single 4 subversion(omega=1)": (36, "e3125aec5244"),
        "single 4 cover": (36, "5aece37d7f08"),
        "single 5 domination": (126, "ca2510640a7c"),
        "single 5 subversion(omega=1)": (126, "1137a0144d93"),
        "single 5 cover": (126, "a1f5a0d7c70b"),
        "single 6 domination": (672, "9292f94da3cf"),
        "single 6 subversion(omega=1)": (672, "f9c822652810"),
        "single 6 cover": (672, "ebe2319a486b"),
        "single binary-tree 2 domination": (6, "6bdaae282afb"),
        "single path 6 domination": (6, "febce5ef27a5"),
        "single tail-clique 2 4 domination": (6, "830ff8c32c65"),
        "single tail-clique 2 3 cover": (6, "cce208fcbff3"),
        "single path 8 domination": (6, "af35409052c0"),
    })

PINNED_SCAN_WORK = Pin(
    6193, "af27951a7e8bee08e4ec9d38349b8f63e046c135eafdd1bc8b6a38255a0c8b42",
    {
        "1 domination": (4, "deb618fee627"),
        "1 subversion(omega=1)": (4, "28de60fdf945"),
        "1 subversion(omega=2)": (4, "3989ce1a3bbc"),
        "1 cover": (4, "17ab16a5e33e"),
        "2 domination": (4, "d454c646d9cf"),
        "2 subversion(omega=1)": (4, "98fedf944f6f"),
        "2 subversion(omega=2)": (4, "a6c540e7106d"),
        "2 cover": (4, "9031cee49b29"),
        "3 domination": (8, "560e0006b8b9"),
        "3 subversion(omega=1)": (8, "9babf648b0ee"),
        "3 subversion(omega=2)": (8, "da15d70b76fc"),
        "3 cover": (8, "1c2a086cc2f5"),
        "4 domination": (24, "7e943974bd4e"),
        "4 subversion(omega=1)": (24, "d8e9e229f38d"),
        "4 subversion(omega=2)": (24, "68b51399a11f"),
        "4 cover": (24, "c02aad07c107"),
        "5 domination": (84, "6d8cb14c5d8c"),
        "5 subversion(omega=1)": (84, "9d6a7adfdfca"),
        "5 subversion(omega=2)": (84, "b64782e8afa9"),
        "5 cover": (84, "f560a247d979"),
        "6 domination": (448, "1f5cc74120ec"),
        "6 subversion(omega=1)": (448, "c4925aaee4a5"),
        "6 subversion(omega=2)": (448, "a3416904bde8"),
        "path 7 domination": (1, "23f7f0c872e0"),
        "path 7 subversion(omega=1)": (1, "bdaa47a7259e"),
        "path 7 subversion(omega=2)": (1, "4b55538bee59"),
        "binary-tree 2 domination": (1, "da17d64f0c93"),
        "binary-tree 2 subversion(omega=1)": (1, "40c07a319490"),
        "binary-tree 2 subversion(omega=2)": (1, "cfbd093e92e2"),
        "tail-clique 2 4 domination": (1, "a0453bf1691f"),
        "tail-clique 2 4 subversion(omega=1)": (1, "8be061df80dc"),
        "tail-clique 2 4 subversion(omega=2)": (1, "f90030c6dcc7"),
        "cycle 9 domination": (1, "f31bc96f4b78"),
        "cycle 9 subversion(omega=1)": (1, "6cd43a5a719f"),
        "cycle 9 subversion(omega=2)": (1, "5a2d8425156a"),
        "tail-clique 2 3 cover": (1, "e67ba4c9698a"),
        "single 1 domination": (10, "7ebf4ae14e60"),
        "single 1 subversion(omega=1)": (10, "801eb3382ecd"),
        "single 1 cover": (10, "cd43a2568ded"),
        "single 2 domination": (10, "0d4496cc6485"),
        "single 2 subversion(omega=1)": (10, "d85f59635f62"),
        "single 2 cover": (10, "8c9f5b8ad67e"),
        "single 3 domination": (20, "5966bc5c7916"),
        "single 3 subversion(omega=1)": (20, "7c408aa8db06"),
        "single 3 cover": (20, "0bcb6a5e8c92"),
        "single 4 domination": (60, "f272938daffb"),
        "single 4 subversion(omega=1)": (60, "69ff2f535734"),
        "single 4 cover": (60, "c748079f3ef2"),
        "single 5 domination": (210, "3a490aba1341"),
        "single 5 subversion(omega=1)": (210, "ce5cb270a2b1"),
        "single 5 cover": (210, "b9832bfda9dc"),
        "single 6 domination": (1120, "6a4a3de55dbe"),
        "single 6 subversion(omega=1)": (1120, "4aca9dfd9cf3"),
        "single 6 cover": (1120, "b571ff81dcc8"),
        "single binary-tree 2 domination": (10, "63ad8dba4d0d"),
        "single path 6 domination": (10, "955de00a70a4"),
        "single tail-clique 2 4 domination": (10, "178e111adb72"),
        "single tail-clique 2 3 cover": (10, "d6c77a195ef9"),
        "single path 8 domination": (10, "4eb73cebc71c"),
    })


@lru_cache(maxsize=1)
def scan_reports():
    """``(bucket, label, budget, report)`` of pebbling_values on the corpus
    up to order 6 for domination and omega = 1, 2 in one scan, and up to
    order 5 for cover, unlimited, at budgets 7 and 40 and at cap 3; then
    the shared scan of four named families and brute lambda of
    tail-clique 2 3.  Bucketed by corpus order or family, and goal.
    Last, in buckets named ``single ...``, the one-goal scans that pack
    with their goal's weight bounds: psi, Omega_1 and brute lambda on the
    corpus up to order 6, and the five graphs of perfbench's ``families``,
    unlimited, at budgets 0, 5, 37 and 200 and at caps 0, 1, 3, 25 and 60
    (the last two past where psi of path(8) stops).  Computed once for
    the two streams below."""
    rows = []
    shared = (DOMINATION, subversion(1), subversion(2))
    limits = ((None, None), (None, 7), (None, 40), (3, None))
    for n in range(1, 7):
        for line, g in zip(connected_graph6_lines(n), connected_graphs(n)):
            for goals in (shared, (FULL_COVER,)) if n <= 5 else (shared,):
                for cap, budget in limits:
                    reps = pebbling_values(g, goals, cap, budget)
                    for goal, rep in zip(goals, reps):
                        rows.append((f"{n} {goal.describe()}",
                                     f"{line} {goal.describe()} {cap} "
                                     f"{budget}", budget, rep))
    named = (("path 7", path(7)), ("binary-tree 2", binary_tree(2)),
             ("tail-clique 2 4", tail_clique(2, 4)), ("cycle 9", cycle(9)))
    for name, g in named:
        for goal, rep in zip(shared, pebbling_values(g, shared)):
            label = f"{name} {goal.describe()}"
            rows.append((label, label, None, rep))
    label = f"tail-clique 2 3 {FULL_COVER.describe()}"
    rows.append((label, label, None,
                 pebbling_value(tail_clique(2, 3), FULL_COVER)))
    singles = [(n, line, g, goal) for n in range(1, 7)
               for line, g in zip(connected_graph6_lines(n),
                                  connected_graphs(n))
               for goal in (DOMINATION, subversion(1), FULL_COVER)]
    singles += [(name, name, g, goal) for name, g, goal in (
        ("binary-tree 2", binary_tree(2), DOMINATION),
        ("path 6", path(6), DOMINATION),
        ("tail-clique 2 4", tail_clique(2, 4), DOMINATION),
        ("tail-clique 2 3", tail_clique(2, 3), FULL_COVER),
        ("path 8", path(8), DOMINATION))]
    limits = ([(None, budget) for budget in (None, 0, 5, 37, 200)]
              + [(cap, None) for cap in (0, 1, 3, 25, 60)])
    for where, name, g, goal in singles:
        for cap, budget in limits:
            rows.append((f"single {where} {goal.describe()}",
                         f"{name} {goal.describe()} {cap} {budget}", budget,
                         pebbling_value(g, goal, cap, budget)))
    return rows


def scan_outcomes():
    """The answers, ``(value, witness, status)``, of every unbudgeted and
    capped row of :func:`scan_reports`: they do not depend on which
    candidates the scan examines."""
    for bucket, label, budget, rep in scan_reports():
        if budget is None:
            yield bucket, f"{label} {_verdict(rep)}\n"


def scan_work():
    """The work: ``checked`` of the rows :func:`scan_outcomes` holds, and
    every budgeted row in full, as where a budget trips decides its status
    and witness."""
    for bucket, label, budget, rep in scan_reports():
        work = rep.checked if budget is None else (*_verdict(rep), rep.checked)
        yield bucket, f"{label} {work}\n"


def test_scan_outcomes_pinned():
    check_pin(scan_outcomes(), PINNED_SCAN)


def test_scan_work_pinned():
    check_pin(scan_work(), PINNED_SCAN_WORK)


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
