"""Pre-generated corpus of all connected graphs of order up to 6.

One graph6 line per isomorphism class, shipped as package data so the test
suite and sweeps are self-contained.  Regenerate with
``scripts/generate_small_graph_fixtures.py``; the expected class counts are
1, 1, 2, 6, 21, 112 for orders 1 through 6.
"""

from __future__ import annotations

from importlib import resources

from .graphs import Graph, parse_graph6

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}

MAX_FIXTURE_ORDER = max(CONNECTED_COUNTS)


def connected_graph6_lines(n: int) -> list[str]:
    """graph6 lines for every connected graph of order ``n`` up to
    isomorphism, in a fixed order."""
    if not 1 <= n <= MAX_FIXTURE_ORDER:
        raise ValueError(
            f"fixtures cover orders 1..{MAX_FIXTURE_ORDER}, got {n}")
    text = (resources.files("dcpebble") / "data" /
            f"connected_{n}.g6").read_text()
    return [ln for ln in (row.strip() for row in text.splitlines()) if ln]


def connected_graphs(n: int) -> list[Graph]:
    return [parse_graph6(line) for line in connected_graph6_lines(n)]
