import runpy
from pathlib import Path

import pytest

from dcpebble import (
    DisconnectedGraphError,
    Graph6FormatError,
    GraphError,
    build_graph,
    complete,
    connected_graph6_lines,
    connected_graphs,
    dominated_vertices,
    emit_edge_list,
    emit_graph6,
    parse_edge_list,
    parse_graph6,
    path,
    star,
    star_with_leaf_path,
    undominated_components,
    wheel,
)
from dcpebble.fixtures import CONNECTED_COUNTS
from dcpebble.graphs import GRAPH6_MAX_ORDER, max_undominated_component


def test_build_p4():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.diameter == 3
    assert g.dist[0] == (0, 1, 2, 3)


def test_build_k2_and_star():
    assert build_graph(2, [(0, 1)]).diameter == 1
    g = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert g.diameter == 2
    assert g == star(5)


def test_duplicate_edges_collapse():
    g = build_graph(3, [(0, 1), (1, 0), (1, 2), (1, 2)])
    assert len(g.edges) == 2


@pytest.mark.parametrize("edges", [[(0, 0)], [(0, 3)], [(-1, 0)]])
def test_bad_edges_rejected(edges):
    with pytest.raises(GraphError):
        build_graph(3, edges)


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        build_graph(2, [])
    # fewer than n - 1 distinct edges fail before any table is built, so a
    # huge order with no edges fails at once
    for make in (lambda: build_graph(3, [(0, 1), (1, 0)]),
                 lambda: parse_edge_list("1000000000 0\n")):
        with pytest.raises(DisconnectedGraphError, match="is not connected"):
            make()
    with pytest.raises(GraphError, match="order must be >= 1"):
        build_graph(0, [])


def test_dominated_vertices_star_center():
    assert dominated_vertices(star(5), {0}) == frozenset(range(5))


def test_dominated_vertices_p4():
    g = path(4)
    assert dominated_vertices(g, {0}) == {0, 1}
    # first and third vertices dominate the whole path
    assert dominated_vertices(g, {0, 2}) == {0, 1, 2, 3}
    with pytest.raises(GraphError):
        dominated_vertices(g, [9])


def test_dominated_vertices_monotone():
    for g in connected_graphs(4):
        for mask in range(1 << g.n):
            cov = {v for v in range(g.n) if mask >> v & 1}
            dom = dominated_vertices(g, cov)
            for extra in range(g.n):
                assert dom <= dominated_vertices(g, cov | {extra})


def test_undominated_components_wheel():
    # hub + 6-cycle: two adjacent covered rim vertices leave a 2-arc
    assert undominated_components(wheel(6), {1, 2}) == [2]
    # hub + 7-cycle: the leftover arc has 3 vertices
    assert undominated_components(wheel(7), {1, 2}) == [3]


def test_undominated_components_linked_star():
    # star of order 9 with one leaf pair joined: covering the 6 plain
    # leaves leaves the joined pair as one undominated component
    h9 = star_with_leaf_path(9, 1)
    assert undominated_components(h9, {3, 4, 5, 6, 7, 8}) == [2]


def test_undominated_sizes_sum():
    for g in connected_graphs(5):
        for mask in range(1 << g.n):
            cov = {v for v in range(g.n) if mask >> v & 1}
            sizes = undominated_components(g, cov)
            assert sum(sizes) == g.n - len(dominated_vertices(g, cov))


def test_max_undominated_component_is_largest_component():
    for n in range(1, 7):
        for g in connected_graphs(n):
            for mask in range(1 << g.n):
                cov = [v for v in range(g.n) if mask >> v & 1]
                assert max_undominated_component(g, mask) == max(
                    undominated_components(g, cov), default=0)


def test_parse_graph6_k4():
    assert parse_graph6("C~") == complete(4)


def test_parse_graph6_star():
    # order 5, upper-triangle bits 1101001000 -> chars 's' and '_'
    assert parse_graph6("Ds_") == star(5)


def test_graph6_roundtrip_p4():
    g = path(4)
    assert parse_graph6(emit_graph6(g)) == g
    with pytest.raises(Graph6FormatError):
        emit_graph6(path(63))
    assert parse_graph6(emit_graph6(path(GRAPH6_MAX_ORDER))) \
        == path(GRAPH6_MAX_ORDER)


def test_graph6_roundtrip_all_fixture_graphs():
    for n in range(1, 7):
        for line in connected_graph6_lines(n):
            g = parse_graph6(line)
            assert emit_graph6(g) == line
            assert parse_graph6(emit_graph6(g)) == g


def test_shipped_corpus_equals_its_generator():
    # Compared in memory, byte for byte: the test writes nothing.
    script = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts"
                                / "generate_small_graph_fixtures.py"))
    texts = dict(script["corpus"]())
    assert list(texts) == sorted(CONNECTED_COUNTS)
    for n, text in texts.items():
        shipped = script["DATA_DIR"] / f"connected_{n}.g6"
        assert shipped.read_bytes() == text.encode(), n


def test_fixture_counts():
    for n, count in CONNECTED_COUNTS.items():
        assert len(connected_graphs(n)) == count
    for n in (0, max(CONNECTED_COUNTS) + 1):
        with pytest.raises(ValueError):
            connected_graph6_lines(n)


@pytest.mark.parametrize(
    "bad",
    ["",      # no content
     "C",     # truncated body
     "C~~",   # oversized body
     "D!!",   # characters outside the graph6 range
     "D?A",   # nonzero padding bits
     "~??~"])  # the long-order form (orders above 62)
def test_graph6_malformed(bad):
    with pytest.raises(Graph6FormatError):
        parse_graph6(bad)


def test_graph6_disconnected_distinct_error():
    # "A?" is two vertices, no edges: well-formed but disconnected
    with pytest.raises(DisconnectedGraphError):
        parse_graph6("A?")


def test_graph6_header_prefix():
    assert parse_graph6(">>graph6<<C~") == complete(4)


def test_edge_list_roundtrip():
    g = wheel(5)
    assert parse_edge_list(emit_edge_list(g)) == g


def test_edge_list_errors():
    for text in ("",
                 "3\n0 1\n1 2\n",
                 "3 2\n0 1\n",  # declared 2 edges, got 1
                 "a b\n",
                 "2 1\n0 1 2\n",
                 "2 1\n0 x\n"):
        with pytest.raises(GraphError):
            parse_edge_list(text)
