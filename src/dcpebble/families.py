"""Named graph families, extremal constructions and closed-form bounds.

Every generator documents its vertex labeling and asserts the diameter its
construction is supposed to have, so downstream code can address special
vertices (hub, apex, tail end, ...) by stable indices.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from itertools import combinations

from .graphs import DisconnectedGraphError, Graph, build_graph
from .pebbling import Configuration


# ---------------------------------------------------------------------------
# elementary families
# ---------------------------------------------------------------------------

def path(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return build_graph(n, combinations(range(n), 2))


def star(n: int) -> Graph:
    """Star of order n: center 0, leaves 1..n-1."""
    if n < 2:
        raise ValueError("star needs at least 2 vertices")
    g = build_graph(n, [(0, v) for v in range(1, n)])
    assert g.diameter == (2 if n >= 3 else 1)
    return g


def wheel(n: int) -> Graph:
    """Wheel with n rim vertices: hub 0 adjacent to the rim cycle
    1-2-...-n-1 (order n+1, every rim vertex of degree 3).

    The rim count is the parameter that the exact subversion formula
    n-2-omega is stated in; see :func:`omega_formula`.
    """
    if n < 4:
        raise ValueError("wheel needs at least 4 rim vertices")
    edges = [(0, v) for v in range(1, n + 1)]
    edges += [(v, v + 1) for v in range(1, n)]
    edges.append((n, 1))
    g = build_graph(n + 1, edges)
    assert g.diameter == 2
    return g


def complete_multipartite(parts: list[int] | tuple[int, ...]) -> Graph:
    """Complete multipartite graph; class i occupies the next parts[i]
    indices, classes listed in the given order."""
    parts = tuple(int(p) for p in parts)
    if len(parts) < 2:
        raise ValueError("need at least 2 classes for a connected graph")
    if any(p < 1 for p in parts):
        raise ValueError("every class needs at least 1 vertex")
    label = [i for i, p in enumerate(parts) for _ in range(p)]  # v's class
    edges = [(u, v) for u, v in combinations(range(len(label)), 2)
             if label[u] != label[v]]
    g = build_graph(len(label), edges)
    assert g.diameter <= 2
    return g


def binary_tree(height: int) -> Graph:
    """Complete binary tree in breadth-first labeling: root 0, children of
    i at 2i+1 and 2i+2.  The bottom-level leaves run from 2^height - 1
    (leftmost) to 2^(height+1) - 2 (rightmost)."""
    if height < 1:
        raise ValueError("binary tree needs height >= 1")
    n = (1 << (height + 1)) - 1
    edges = []
    for i in range(n):
        for child in (2 * i + 1, 2 * i + 2):
            if child < n:
                edges.append((i, child))
    g = build_graph(n, edges)
    assert g.diameter == 2 * height
    return g


# ---------------------------------------------------------------------------
# clique with pendant leaves and a tail: the high-DCP construction
# ---------------------------------------------------------------------------

def tail_clique(m: int, d: int) -> Graph:
    """Clique of size m with one pendant leaf per clique vertex, plus a
    path of d-2 further vertices hanging off a hub adjacent to the whole
    clique.  Diameter exactly d; order 2m + d - 1.

    Labeling: pendant leaves 0..m-1 (leaf i attached to clique vertex
    m+i), clique m..2m-1, tail 2m..2m+d-2 with the hub at 2m and the far
    end at 2m+d-2 (see :func:`tail_clique_far_end`).

    Dominating the pendant leaves from a stack at the far end is maximally
    expensive, which pushes the domination cover pebbling number close to
    the diameter-d upper bound.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if d < 3:
        raise ValueError("need d >= 3")
    edges = []
    for i in range(m):
        edges.append((i, m + i))
    edges.extend(combinations(range(m, 2 * m), 2))
    hub = 2 * m
    for i in range(m):
        edges.append((m + i, hub))
    for j in range(d - 2):
        edges.append((2 * m + j, 2 * m + j + 1))
    g = build_graph(2 * m + d - 1, edges)
    assert g.diameter == d
    return g


def tail_clique_far_end(m: int, d: int) -> int:
    """Index of the tail vertex farthest from the clique."""
    return 2 * m + d - 2


def tail_clique_psi_lower_bound(m: int, d: int) -> int:
    """Lower bound 2^(d-1) * m on the domination cover pebbling number of
    :func:`tail_clique`: each pendant leaf needs a pebble on itself or its
    clique neighbor, both at distance at least d-1 from the far tail end."""
    if m < 1 or d < 3:
        raise ValueError("need m >= 1 and d >= 3")
    return (1 << (d - 1)) * m


def tail_clique_witness(m: int, d: int) -> Configuration:
    """Unsolvable stack realizing the lower bound: 2^(d-1)*m - 1 pebbles
    on the far tail end."""
    n = 2 * m + d - 1
    stack = tail_clique_psi_lower_bound(m, d) - 1
    far = tail_clique_far_end(m, d)
    return tuple(stack if v == far else 0 for v in range(n))


# ---------------------------------------------------------------------------
# star with a linked leaf cluster: subversion sharpness on diameter 2
# ---------------------------------------------------------------------------

def star_with_leaf_path(n: int, omega: int) -> Graph:
    """Star of order n with omega extra edges joining leaves 1..omega+1
    into a path, so those omega+1 leaves induce a connected subgraph.
    Center 0; the linked leaves are 1..omega+1; plain leaves are
    omega+2..n-1.  Diameter 2.

    One pebble on each plain leaf leaves the linked cluster as a connected
    undominated set of omega+1 vertices, which makes the diameter-2
    subversion bound n-1-omega sharp.
    """
    if omega < 1:
        raise ValueError("need omega >= 1")
    if n < omega + 3:
        raise ValueError("need n >= omega + 3")
    edges = [(0, v) for v in range(1, n)]
    edges += [(v, v + 1) for v in range(1, omega + 1)]
    g = build_graph(n, edges)
    assert g.diameter == 2
    return g


def star_with_leaf_path_witness(n: int, omega: int) -> Configuration:
    """One pebble on each plain leaf: n-2-omega pebbles that cannot break
    the linked cluster."""
    if omega < 1 or n < omega + 3:
        raise ValueError("need omega >= 1 and n >= omega + 3")
    return tuple(1 if v >= omega + 2 else 0 for v in range(n))


# ---------------------------------------------------------------------------
# apex construction: subversion lower bound at diameter 3
# ---------------------------------------------------------------------------

def apex_pendant_clique(n: int, omega: int) -> Graph:
    """Connected order-n graph witnessing the conjectured diameter-3
    subversion bound: a clique of omega+1 vertices, every one attached to
    an apex, the apex attached to a core clique of ceil((n-omega-2)/2)
    vertices, and the remaining floor((n-omega-2)/2) vertices pendant to
    distinct core vertices.

    Labeling: isolated-cluster clique 0..omega, apex omega+1, core clique
    omega+2..omega+1+h with h = ceil((n-omega-2)/2), pendants
    omega+2+h..n-1 with pendant j attached to core vertex omega+2+j.

    Diameter 3 whenever at least one pendant exists (n >= omega+4); the
    degenerate n = omega+3 case has no pendants and diameter 2.
    """
    if omega < 1:
        raise ValueError("need omega >= 1")
    if n < omega + 3:
        raise ValueError("need n >= omega + 3")
    rest = n - omega - 2
    h = (rest + 1) // 2
    t = rest // 2
    apex = omega + 1
    core = list(range(omega + 2, omega + 2 + h))
    edges = list(combinations(range(omega + 1), 2))
    edges += [(v, apex) for v in range(omega + 1)]
    edges += [(apex, w) for w in core]
    edges += list(combinations(core, 2))
    for j in range(t):
        edges.append((core[j], omega + 2 + h + j))
    g = build_graph(n, edges)
    assert g.diameter == (3 if t >= 1 else 2)
    return g


def apex_pendant_clique_witness(n: int, omega: int) -> Configuration:
    """Configuration that cannot subvert :func:`apex_pendant_clique`:
    three pebbles on every pendant vertex, plus one on the pendant-free
    core vertex when n-omega-2 is odd.  Total floor(3(n-2-omega)/2)."""
    if omega < 1 or n < omega + 3:
        raise ValueError("need omega >= 1 and n >= omega + 3")
    rest = n - omega - 2
    h = (rest + 1) // 2
    t = rest // 2
    counts = [0] * n
    for j in range(t):
        counts[omega + 2 + h + j] = 3
    if rest % 2 == 1:
        counts[omega + 1 + h] = 1
    total = sum(counts)
    assert total == (3 * (n - 2 - omega)) // 2
    return tuple(counts)


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------

def psi_upper_bound(n: int, d: int) -> int:
    """Proven upper bound on the domination cover pebbling number by order
    and diameter: n-1 for diameter at most 2, else 2^(d-2)*(n-2)+1."""
    if n < 2:
        raise ValueError("need n >= 2")
    if d < 1:
        raise ValueError("need d >= 1")
    if d <= 2:
        return n - 1
    return (1 << (d - 2)) * (n - 2) + 1


def subversion_bounds(n: int, omega: int) -> tuple[int, int | None]:
    """(proven diameter-2 upper bound, conjectured diameter-3 upper bound)
    for the omega-subversion number with 1 <= omega <= n-2: n-1-omega and
    floor(3(n-2-omega)/2) + 1, the second None when n < omega + 3, outside
    the conjecture's domain.  The second value is conjectural and is
    reported as a finding, never asserted."""
    if omega < 1:
        raise ValueError("need omega >= 1")
    if n < omega + 2:
        raise ValueError("need n >= omega + 2")
    conjectured = (3 * (n - 2 - omega)) // 2 + 1 if n >= omega + 3 else None
    return n - 1 - omega, conjectured


# ---------------------------------------------------------------------------
# family specs (CLI surface) and exact subversion formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """A named family instance, e.g. FamilySpec("wheel", (7,))."""

    kind: str
    params: tuple[int, ...]

    @property
    def order(self) -> int:
        """Order of the graph :func:`generate` builds; nothing is built."""
        return _apply(self, 1)


# kind -> (generator, order of the graph it builds), both on the parameters;
# no order formula builds anything that grows with a parameter.
_FAMILIES = {
    "path": (path, lambda n: n),
    "cycle": (cycle, lambda n: n),
    "complete": (complete, lambda n: n),
    "star": (star, lambda n: n),
    "wheel": (wheel, lambda n: n + 1),
    "multipartite": (lambda *parts: complete_multipartite(parts),
                     lambda *parts: sum(parts)),
    # 2^(h+1) - 1, read as sys.maxsize (no list is longer) when larger
    "binary-tree": (binary_tree, lambda h: (
        1 << max(0, min(h + 1, sys.maxsize.bit_length()))) - 1),
    "tail-clique": (tail_clique, lambda m, d: 2 * m + d - 1),
    "star-leaf-path": (star_with_leaf_path, lambda n, omega: n),
    "apex-pendant-clique": (apex_pendant_clique, lambda n, omega: n),
}

FAMILY_KINDS = tuple(sorted(_FAMILIES))


def _apply(spec: FamilySpec, column: int):
    if spec.kind not in _FAMILIES:
        raise ValueError(f"unknown family kind {spec.kind!r}")
    if any(type(x) is not int for x in spec.params):  # bool is refused too
        raise ValueError(
            f"family {spec.kind!r} parameters must be ints: {spec.params}")
    try:
        return _FAMILIES[spec.kind][column](*spec.params)
    except TypeError as exc:
        raise ValueError(
            f"wrong parameter count for family {spec.kind!r}: {spec.params}") from exc


def generate(spec: FamilySpec) -> Graph:
    return _apply(spec, 0)


def omega_formula(spec: FamilySpec, omega: int) -> int:
    """Exact omega-subversion number for the families where a closed form
    is known: 1 for complete and complete multipartite graphs, n-2-omega
    for wheels.  Raises outside the regime where the formula is claimed."""
    if spec.kind == "complete":
        (n,) = spec.params
        if omega < 0 or n <= omega:
            raise ValueError(
                f"no formula for complete graph of order {n} with omega={omega}")
        return 1
    if spec.kind == "multipartite":
        n = sum(spec.params)
        if omega < 1 or n <= omega or len(spec.params) < 2:
            raise ValueError(
                f"no formula for multipartite {spec.params} with omega={omega}")
        return 1
    if spec.kind == "wheel":
        (n,) = spec.params  # rim count, order n+1
        if omega < 1 or n < omega + 3:
            raise ValueError(
                f"no formula for wheel with {n} rim vertices and omega={omega}")
        return n - 2 - omega
    raise ValueError(f"no subversion formula for family {spec.kind!r}")


# ---------------------------------------------------------------------------
# random connected graphs (test corpora only)
# ---------------------------------------------------------------------------

def random_connected_graph(order: int, rng: random.Random,
                           diameter_range: tuple[int, int] | None = None
                           ) -> Graph:
    """Rejection-sample a connected graph, optionally constrained to a
    diameter range.  Deterministic for a seeded ``rng``."""
    if order < 2:
        raise ValueError("need order >= 2")
    if diameter_range is not None:
        lo, hi = diameter_range
        if lo > hi or hi < 1 or lo > order - 1:
            raise ValueError(f"no graph of order {order} has diameter in "
                             f"{lo}..{hi}")
    pairs = list(combinations(range(order), 2))
    for _ in range(100_000):
        p = rng.uniform(0.2, 0.6)
        edges = [e for e in pairs if rng.random() < p]
        try:
            g = build_graph(order, edges)
        except DisconnectedGraphError:
            continue
        if diameter_range is not None and not lo <= g.diameter <= hi:
            continue
        return g
    raise RuntimeError(
        f"no graph of order {order} with diameter in {diameter_range} "
        "found in 100000 tries")


def random_configuration(n: int, size: int, rng: random.Random) -> Configuration:
    """Drop ``size`` pebbles independently and uniformly on ``n`` vertices.

    Each vertex is drawn by ``rng.randrange(n)``'s own rule, inlined: draw
    n.bit_length() bits until they are below n.  So the counts and the
    generator's state afterwards are those of one randrange call a pebble.
    """
    if n < 1 and size:
        raise ValueError("no vertex to drop a pebble on")
    counts, bits, draw = [0] * n, n.bit_length(), rng.getrandbits
    for _ in range(size):
        v = draw(bits)
        while v >= n:
            v = draw(bits)
        counts[v] += 1
    return tuple(counts)
