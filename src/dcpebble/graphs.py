"""Simple undirected connected graphs with precomputed metric data.

Vertices are dense integer indices 0..n-1.  Every graph is validated at
construction: simple, loop-free, connected.  The all-pairs distance matrix
and the diameter are computed eagerly because the graphs handled here are
tiny and metric queries are hot.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Invalid graph input (bad vertex, malformed encoding, ...)."""


class DisconnectedGraphError(GraphError):
    """Disconnected input.  Pebbling values of disconnected graphs are
    undefined here: a component that can never receive a pebble makes
    every covering goal unreachable."""


class Graph6FormatError(GraphError):
    """Malformed graph6 text."""


class Graph:
    """Immutable simple connected graph.

    Attributes:
        n: number of vertices.
        edges: frozenset of (u, v) pairs with u < v.
        adj: per-vertex sorted neighbor tuples.
        dist: all-pairs hop distances, ``dist[u][v]``.
        diameter: max entry of ``dist``.
    """

    __slots__ = ("n", "edges", "adj", "adj_sets", "dist", "diameter",
                 "closed_masks", "full_mask", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise GraphError(f"graph order must be >= 1, got {n}")
        norm = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for order {n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            norm.add((u, v) if u < v else (v, u))
        if len(norm) < n - 1:  # refused before any per-vertex table
            raise DisconnectedGraphError(
                f"graph on {n} vertices is not connected")
        self.n = n
        self.edges = frozenset(norm)

        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in norm:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.adj = tuple(tuple(sorted(a)) for a in nbrs)
        self.adj_sets = tuple(frozenset(a) for a in self.adj)

        first = self._bfs(0)
        if -1 in first:  # the search from vertex 0 decides connectivity
            raise DisconnectedGraphError(
                f"graph on {n} vertices is not connected")
        self.dist = (first, *map(self._bfs, range(1, n)))
        self.diameter = max(max(row) for row in self.dist)

        # closed_masks[v] covers v and its neighbors; used by hot
        # domination checks on support bitmasks.
        masks = []
        for v in range(n):
            m = 1 << v
            for w in self.adj[v]:
                m |= 1 << w
            masks.append(m)
        self.closed_masks = tuple(masks)
        self.full_mask = (1 << n) - 1
        self._hash = hash((n, self.edges))

    def _bfs(self, source: int) -> tuple[int, ...]:
        dist = [-1] * self.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self.adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return tuple(dist)

    def is_edge(self, u: int, v: int) -> bool:
        return v in self.adj_sets[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def min_degree(self) -> int:
        return min(len(a) for a in self.adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)}, diameter={self.diameter})"


def build_graph(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated graph; duplicate edges collapse, disconnected input
    and out-of-range or loop edges are rejected."""
    return Graph(order, edges)


# ---------------------------------------------------------------------------
# domination predicates
# ---------------------------------------------------------------------------

def support_mask(counts: Sequence[int]) -> int:
    mask = 0
    for v, c in enumerate(counts):
        if c > 0:
            mask |= 1 << v
    return mask


def dominated_mask(g: Graph, covered_mask: int) -> int:
    """Bitmask of vertices covered by or adjacent to ``covered_mask``."""
    out = 0
    m = covered_mask
    while m:
        low = m & -m
        out |= g.closed_masks[low.bit_length() - 1]
        m ^= low
    return out


def _vertex_mask(g: Graph, vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range")
        mask |= 1 << v
    return mask


def dominated_vertices(g: Graph, covered: Iterable[int]) -> frozenset[int]:
    """Closed neighborhood of ``covered``: every vertex that is covered or
    adjacent to a covered vertex."""
    mask = dominated_mask(g, _vertex_mask(g, covered))
    return frozenset(v for v in range(g.n) if mask >> v & 1)


def undominated_components(g: Graph, covered: Iterable[int]) -> list[int]:
    """Orders of the connected components of the subgraph induced by the
    vertices left undominated by ``covered``.  Sorted descending; empty
    when everything is dominated."""
    undom = g.full_mask & ~dominated_mask(g, _vertex_mask(g, covered))
    sizes = []
    seen = 0
    while undom & ~seen:
        rem = undom & ~seen
        comp = frontier = rem & -rem
        while frontier:
            frontier = dominated_mask(g, frontier) & undom & ~comp
            comp |= frontier
        sizes.append(comp.bit_count())
        seen |= comp
    sizes.sort(reverse=True)
    return sizes


def max_undominated_component(g: Graph, covered_mask: int) -> int:
    """Largest undominated component order, 0 when fully dominated (hot
    path).  Components are grown one at a time, keeping the largest; the
    search stops once the undominated vertices left over cannot beat it.
    Each component grows from its lowest vertex by the closed
    neighbourhoods of its last rim, as in :func:`dominated_mask`."""
    closed = g.closed_masks
    undom = g.full_mask & ~dominated_mask(g, covered_mask)
    best = 0
    while undom.bit_count() > best:
        comp = rim = undom & -undom
        while rim:
            grown = 0
            while rim:
                low = rim & -rim
                grown |= closed[low.bit_length() - 1]
                rim ^= low
            rim = grown & undom & ~comp
            comp |= rim
        if comp.bit_count() > best:
            best = comp.bit_count()
        undom ^= comp
    return best


# ---------------------------------------------------------------------------
# graph6 encoding (orders up to 62, which is far beyond desk scale here)
# ---------------------------------------------------------------------------

GRAPH6_MAX_ORDER = 62  # the one-byte order field; the long forms are not read


def check_graph6_order(n: int) -> None:
    """Refuse an order above GRAPH6_MAX_ORDER, before any graph is built."""
    if n > GRAPH6_MAX_ORDER:
        raise Graph6FormatError(
            f"graph6 orders above {GRAPH6_MAX_ORDER} are not supported")


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 line into a connected :class:`Graph`.

    Raises :class:`Graph6FormatError` for malformed text and
    :class:`DisconnectedGraphError` for well-formed but disconnected input.
    """
    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise Graph6FormatError("empty graph6 line")
    data = [ord(ch) - 63 for ch in line]
    if any(b < 0 or b > 63 for b in data):
        raise Graph6FormatError(f"character out of graph6 range in {line!r}")
    n = data[0]
    check_graph6_order(n)
    body = data[1:]
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise Graph6FormatError(
            f"graph6 body has {len(body)} characters, expected {expect} for order {n}")
    bits = []
    for b in body:
        for shift in range(5, -1, -1):
            bits.append(b >> shift & 1)
    if any(bits[nbits:]):
        raise Graph6FormatError("nonzero padding bits in graph6 body")
    edges = []
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k]:
                edges.append((u, v))
            k += 1
    return build_graph(n, edges)


def emit_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (inverse of :func:`parse_graph6`)."""
    check_graph6_order(g.n)
    bits = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if g.is_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = val << 1 | b
        chars.append(chr(val + 63))
    return "".join(chars)


# ---------------------------------------------------------------------------
# edge-list text format: "n m" header, then m lines "u v"
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    return build_graph(*read_edge_list(text))


def read_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Declared order and edges of edge-list text, checked for syntax only."""
    rows = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln]
    if not rows:
        raise GraphError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise GraphError(f"edge-list header must be 'n m', got {rows[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphError(f"bad edge-list header {rows[0]!r}") from exc
    if len(rows) - 1 != m:
        raise GraphError(f"edge-list declares {m} edges but has {len(rows) - 1} lines")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphError(f"bad edge line {ln!r}") from exc
    return n, edges


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"

