import random
import sys
import tracemalloc

import pytest

from dcpebble import (
    FamilySpec,
    apex_pendant_clique,
    apex_pendant_clique_witness,
    binary_tree,
    complete,
    complete_multipartite,
    cycle,
    generate,
    omega_formula,
    path,
    psi_upper_bound,
    random_configuration,
    random_connected_graph,
    star,
    star_with_leaf_path,
    star_with_leaf_path_witness,
    subversion_bounds,
    tail_clique,
    tail_clique_far_end,
    tail_clique_psi_lower_bound,
    tail_clique_witness,
    wheel,
)
from dcpebble.families import FAMILY_KINDS


# ---------------------------------------------------------------------------
# elementary generators
# ---------------------------------------------------------------------------

def test_path_cycle_complete():
    assert path(4).diameter == 3
    assert cycle(5).diameter == 2
    assert cycle(6).diameter == 3
    assert complete(6).diameter == 1
    assert len(complete(6).edges) == 15
    for make, n in ((path, 0), (cycle, 2), (complete, 0)):
        with pytest.raises(ValueError):
            make(n)


def test_star_shape():
    g = star(5)
    assert g.degree(0) == 4
    assert all(g.degree(v) == 1 for v in range(1, 5))


def test_wheel_shape():
    g = wheel(6)
    assert g.n == 7  # hub plus 6 rim vertices
    assert g.degree(0) == 6
    assert all(g.degree(v) == 3 for v in range(1, 7))
    assert g.diameter == 2
    with pytest.raises(ValueError):
        wheel(3)


def test_multipartite_shape():
    g = complete_multipartite((3, 2))
    assert g.n == 5 and len(g.edges) == 6
    assert g.diameter == 2
    assert complete_multipartite((1, 1, 1)) == complete(3)
    for parts in ((4,), (2, 0)):
        with pytest.raises(ValueError):
            complete_multipartite(parts)


def test_binary_tree_shape():
    g = binary_tree(2)
    assert g.n == 7
    assert g.degree(0) == 2 and g.degree(3) == 1
    assert g.diameter == 4
    with pytest.raises(ValueError):
        binary_tree(0)


# ---------------------------------------------------------------------------
# tail clique
# ---------------------------------------------------------------------------

def test_tail_clique_m1_is_path():
    assert tail_clique(1, 3) == path(4)
    assert tail_clique(1, 4) == path(5)
    # m = 1 is the smallest clique side and d = 3 the shortest tail
    for make, m, d in ((tail_clique, 0, 3), (tail_clique, 2, 2),
                       (tail_clique_psi_lower_bound, 0, 3)):
        with pytest.raises(ValueError):
            make(m, d)


@pytest.mark.parametrize("m,d", [(1, 3), (2, 3), (3, 3), (2, 4), (1, 5)])
def test_tail_clique_shape(m, d):
    g = tail_clique(m, d)
    assert g.n == 2 * m + d - 1
    assert g.diameter == d
    far = tail_clique_far_end(m, d)
    assert far == g.n - 1
    # pendant leaf i hangs off clique vertex m+i
    for i in range(m):
        assert g.adj[i] == (m + i,)


@pytest.mark.parametrize("m,d,value", [(2, 3, 8), (1, 3, 4), (3, 4, 24)])
def test_tail_clique_lower_bound(m, d, value):
    assert tail_clique_psi_lower_bound(m, d) == value


def test_tail_clique_witness_shape():
    wit = tail_clique_witness(2, 3)
    assert sum(wit) == 7
    assert wit[tail_clique_far_end(2, 3)] == 7


# ---------------------------------------------------------------------------
# star with linked leaves
# ---------------------------------------------------------------------------

def test_star_with_leaf_path_shape():
    g = star_with_leaf_path(9, 1)
    assert g.n == 9 and g.diameter == 2
    assert g.degree(0) == 8
    assert g.is_edge(1, 2)  # the one extra edge
    assert len(g.edges) == 9
    wit = star_with_leaf_path_witness(9, 1)
    assert sum(wit) == 6 and wit[0] == wit[1] == wit[2] == 0


def test_star_with_leaf_path_bounds():
    with pytest.raises(ValueError):
        star_with_leaf_path(4, 2)  # needs n >= omega + 3
    with pytest.raises(ValueError):
        star_with_leaf_path(6, 0)
    # the witness refuses the same parameters as its graph
    for n, omega in ((3, 5), (4, 2), (6, 0)):
        with pytest.raises(ValueError):
            star_with_leaf_path_witness(n, omega)


# ---------------------------------------------------------------------------
# apex construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,omega", [(7, 1), (8, 1), (7, 2), (9, 2)])
def test_apex_pendant_clique_shape(n, omega):
    g = apex_pendant_clique(n, omega)
    assert g.n == n
    assert g.diameter == 3
    # the small clique plus apex is complete
    for u in range(omega + 1):
        assert g.is_edge(u, omega + 1)


def test_apex_pendant_clique_degenerate():
    g = apex_pendant_clique(4, 1)  # n = omega + 3: no pendants
    assert g.diameter == 2
    # below it, or with omega 0, there is no construction
    for make, n, omega in ((apex_pendant_clique, 5, 0),
                           (apex_pendant_clique, 3, 1),
                           (apex_pendant_clique_witness, 3, 1)):
        with pytest.raises(ValueError):
            make(n, omega)


@pytest.mark.parametrize("n,omega,total", [(7, 1, 6), (8, 1, 7), (7, 2, 4)])
def test_apex_witness_totals(n, omega, total):
    wit = apex_pendant_clique_witness(n, omega)
    assert sum(wit) == total == (3 * (n - 2 - omega)) // 2


def test_apex_witness_odd_case_marks_bare_core_vertex():
    # n - omega - 2 = 5 is odd: core occupies 3,4,5 with pendants 6 and 7
    # hanging off 3 and 4, so the bare core vertex 5 gets the extra pebble
    wit = apex_pendant_clique_witness(8, 1)
    assert wit == (0, 0, 0, 0, 0, 1, 3, 3)
    g = apex_pendant_clique(8, 1)
    assert g.adj[6] == (3,) and g.adj[7] == (4,)


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,d,value", [(5, 2, 4), (4, 3, 5), (10, 4, 33),
                                       (2, 1, 1), (6, 2, 5)])
def test_psi_upper_bound(n, d, value):
    assert psi_upper_bound(n, d) == value


def test_psi_upper_bound_domain():
    with pytest.raises(ValueError):
        psi_upper_bound(1, 2)
    with pytest.raises(ValueError):
        psi_upper_bound(4, 0)


@pytest.mark.parametrize("n,omega,expect", [(9, 1, (7, 10)), (5, 2, (2, 2)),
                                            (7, 1, (5, 7))])
def test_subversion_bounds(n, omega, expect):
    assert subversion_bounds(n, omega) == expect


def test_omega_formula_values():
    assert omega_formula(FamilySpec("complete", (6,)), 2) == 1
    assert omega_formula(FamilySpec("wheel", (7,)), 1) == 4
    assert omega_formula(FamilySpec("multipartite", (3, 2)), 1) == 1


def test_omega_formula_domain():
    with pytest.raises(ValueError):
        omega_formula(FamilySpec("complete", (2,)), 2)  # omega >= n
    with pytest.raises(ValueError):
        omega_formula(FamilySpec("wheel", (4,)), 2)  # n < omega + 3
    with pytest.raises(ValueError):
        omega_formula(FamilySpec("multipartite", (2, 1)), 0)
    with pytest.raises(ValueError):
        omega_formula(FamilySpec("path", (5,)), 1)
    # subversion_bounds: the theorem's domain 1 <= omega <= n-2; the
    # conjectured bound is None below n = omega + 3
    assert subversion_bounds(3, 1) == (1, None)
    for n, omega in ((5, 0), (2, 1)):
        with pytest.raises(ValueError):
            subversion_bounds(n, omega)


# ---------------------------------------------------------------------------
# dispatch and random sampling
# ---------------------------------------------------------------------------

def test_generate_dispatch():
    assert generate(FamilySpec("star", (5,))) == star(5)
    assert generate(FamilySpec("tail-clique", (2, 3))) == tail_clique(2, 3)
    assert generate(FamilySpec("multipartite", (2, 2, 1))) == \
        complete_multipartite((2, 2, 1))
    with pytest.raises(ValueError):
        generate(FamilySpec("moebius", (5,)))
    with pytest.raises(ValueError):
        generate(FamilySpec("star", (5, 2)))


ORDER_CASES = {
    "path": [(1,), (7,)], "cycle": [(3,), (8,)], "complete": [(1,), (6,)],
    "star": [(2,), (6,)], "wheel": [(4,), (7,)],
    "multipartite": [(1, 1), (2, 3, 4)], "binary-tree": [(1,), (4,)],
    "tail-clique": [(1, 3), (3, 5)], "star-leaf-path": [(4, 1), (9, 2)],
    "apex-pendant-clique": [(4, 1), (10, 3)],
}


def test_family_order_is_the_generated_order():
    assert set(ORDER_CASES) == set(FAMILY_KINDS)
    for kind, cases in ORDER_CASES.items():
        for params in cases:
            spec = FamilySpec(kind, params)
            assert spec.order == generate(spec).n, spec
    # a tree taller than any list can index reads as sys.maxsize
    assert FamilySpec("binary-tree", (62,)).order == sys.maxsize
    for spec, message in ((FamilySpec("moebius", (5,)), "unknown family"),
                          (FamilySpec("path", ()), "wrong parameter count"),
                          (FamilySpec("tail-clique", (2,)),
                           "wrong parameter count"),
                          (FamilySpec("path", ("3",)), "must be ints"),
                          (FamilySpec("path", (2.5,)), "must be ints"),
                          (FamilySpec("star", (True,)), "must be ints")):
        with pytest.raises(ValueError, match=message):
            spec.order
        with pytest.raises(ValueError, match=message):
            generate(spec)


def test_family_order_builds_nothing_that_grows():
    # Huge parameters: an order formula that built a list, or a 2^h int,
    # would allocate megabytes here.
    huge = 10 ** 7
    tracemalloc.start()
    try:
        orders = [FamilySpec(kind, (huge,) * len(cases[0])).order
                  for kind, cases in ORDER_CASES.items()]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert min(orders) >= huge


def test_random_connected_graph_deterministic():
    a = random_connected_graph(7, random.Random(11), diameter_range=(3, 4))
    b = random_connected_graph(7, random.Random(11), diameter_range=(3, 4))
    assert a == b
    assert 3 <= a.diameter <= 4


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_random_configuration_matches_randrange(seed):
    # One randrange(n) a pebble, the same draws and the same generator
    # state afterwards, powers of two (the most rejections) included.
    for n in range(1, 41):
        for size in (0, 1, 2, 5, 64, 3000):
            rng, ref = random.Random(seed + n), random.Random(seed + n)
            counts = [0] * n
            for _ in range(size):
                counts[ref.randrange(n)] += 1
            assert random_configuration(n, size, rng) == tuple(counts)
            assert rng.random() == ref.random()
    assert random_configuration(0, 0, random.Random(seed)) == ()
    with pytest.raises(ValueError):
        random_configuration(0, 1, random.Random(seed))
