"""Pebble configurations, moves, goal predicates and potential functions.

A configuration is a plain tuple of non-negative per-vertex pebble counts;
:func:`check_configuration` is the one gate that decides it.
A pebbling move removes two pebbles from a vertex and places one on an
adjacent vertex.  Operations are pure, except that :func:`replay_moves`
updates the count list it is given.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .graphs import (
    Graph,
    dominated_mask,
    max_undominated_component,
    support_mask,
)

Configuration = tuple[int, ...]
PebblingMove = tuple[int, int]  # (source, target), endpoints adjacent


class PebblingError(ValueError):
    """Illegal pebbling operation (bad move, size mismatch, bad count)."""


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

def support(c: Sequence[int]) -> frozenset[int]:
    """Covered vertices: those holding at least one pebble."""
    return frozenset(v for v, k in enumerate(c) if k > 0)


def parse_configuration(text: str) -> tuple[int, ...]:
    """The ints of the comma-separated text form, e.g. ``"5,0,0,0"``;
    :func:`check_configuration` decides whether they are a configuration."""
    try:
        return tuple(int(p.strip()) for p in text.split(","))
    except ValueError as exc:
        raise PebblingError(f"bad configuration text {text!r}") from exc


def format_configuration(c: Sequence[int]) -> str:
    return ",".join(str(k) for k in c)


def check_configuration(g: Graph, c: Iterable[int]) -> Configuration:
    """The configuration gate: ``c`` as a tuple, or PebblingError unless it
    has one count per vertex of ``g`` and each is a non-negative int."""
    counts = tuple(c)
    if len(counts) != g.n:
        raise PebblingError(f"configuration has {len(counts)} entries, "
                            f"graph has {g.n} vertices")
    return _check_counts(counts, "configuration counts must be integers")


def _check_counts(counts: Configuration, not_int: str) -> Configuration:
    # Exactly int: a bool or a float would pass an int() coercion.
    negative = False
    for k in counts:
        if type(k) is not int:
            raise PebblingError(not_int)
        if k < 0:
            negative = True
    if negative:
        raise PebblingError(f"negative pebble count in {counts}")
    return counts


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------

def apply_move(g: Graph, c: Sequence[int], move: PebblingMove) -> Configuration:
    """Apply one pebbling move, returning the new configuration.

    Requires at least two pebbles at the source and adjacent endpoints;
    raises PebblingError otherwise, or when ``c`` is not a configuration
    of ``g``.  The rule is checked by :func:`replay_moves`.
    """
    return Certificate(c, (move,)).replay(g)


# ---------------------------------------------------------------------------
# goal predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Goal:
    """When does a configuration solve the graph?

    ``domination``: every vertex covered or adjacent to a covered vertex.
    ``cover``: every vertex holds at least one pebble.
    ``subversion``: no undominated connected component has more than
    ``omega`` vertices (``omega=0`` coincides with domination).
    """

    kind: str
    omega: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("domination", "cover", "subversion"):
            raise ValueError(f"unknown goal kind {self.kind!r}")
        if type(self.omega) is not int:  # as _check_counts: no bool, no float
            raise ValueError(f"omega must be an int, got {self.omega!r}")
        if self.omega < 0:
            raise ValueError("omega must be non-negative")
        if self.kind != "subversion" and self.omega != 0:
            raise ValueError(f"goal {self.kind!r} takes no omega")

    def describe(self) -> str:
        if self.kind == "subversion":
            return f"subversion(omega={self.omega})"
        return self.kind


DOMINATION = Goal("domination")
FULL_COVER = Goal("cover")


def subversion(omega: int) -> Goal:
    return Goal("subversion", omega)


def satisfies(g: Graph, c: Sequence[int], goal: Goal) -> bool:
    """Does ``c`` already satisfy ``goal`` on ``g`` (no moves made)?"""
    return satisfies_mask(g, support_mask(check_configuration(g, c)), goal)


def satisfies_mask(g: Graph, covered_mask: int, goal: Goal) -> bool:
    """Goal check on a covered-vertex bitmask (hot path).

    Every goal depends only on which vertices are covered: full cover
    holds exactly when all of them are.
    """
    if goal.kind == "cover":
        return covered_mask == g.full_mask
    if goal.omega == 0:
        return dominated_mask(g, covered_mask) == g.full_mask
    return max_undominated_component(g, covered_mask) <= goal.omega


# ---------------------------------------------------------------------------
# potential functions
# ---------------------------------------------------------------------------

def pairing_number(c: Sequence[int]) -> Fraction:
    """Half-integer count of spare pebble pairs.

    Sum over vertices of max(0, (count-1)/2), kept exact: equivalently
    (size - |support|) / 2.  Its ceiling lower-bounds the number of
    disjoint pairs of pebbles available for moves.
    """
    twice = sum(k - 1 for k in c if k >= 1)
    return Fraction(twice, 2)


def clumping_number(c: Sequence[int], d: int) -> int:
    """Potential for diameter-``d`` graphs, ``d >= 3``.

    Counts pebbles sitting in disjoint clumps of 2^(d-2) on single
    vertices, ignoring one pebble per occupied vertex.  Always divisible
    by 2^(d-2).
    """
    if d < 3:
        raise ValueError(f"clumping number needs diameter >= 3, got {d}")
    clump = 1 << (d - 2)
    total = 0
    for k in c:
        if k > clump:
            total += clump * ((k - 1) // clump)
    return total


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Replayable move sequence witnessing solvability from ``initial``."""

    initial: Configuration
    moves: tuple[PebblingMove, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        initial = tuple(self.initial)
        # Every move is unpacked as a pair before any vertex is type-checked;
        # a move that is already a tuple is kept as it is.
        moves = tuple([m if type(m) is tuple else (a, b)
                       for m in self.moves for a, b in (m,)])
        not_int = "certificate counts and vertices must be integers"
        for a, b in moves:
            if type(a) is not int or type(b) is not int:
                raise PebblingError(not_int)
        object.__setattr__(self, "initial", _check_counts(initial, not_int))
        object.__setattr__(self, "moves", moves)

    def replay(self, g: Graph) -> Configuration:
        """Final configuration after all moves; raises PebblingError on a
        size mismatch or on the first illegal move (see
        :func:`replay_moves`)."""
        counts = list(check_configuration(g, self.initial))
        illegal = replay_moves(g, counts, self.moves)
        if illegal is not None:
            raise PebblingError(illegal[1])
        return tuple(counts)

    def to_json(self) -> str:
        return json.dumps(
            {"initial": list(self.initial),
             "moves": [list(mv) for mv in self.moves]})

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            data = json.loads(text)
            return cls(data["initial"], data["moves"])
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise PebblingError(f"bad certificate JSON: {exc}") from exc


def replay_moves(g: Graph, counts: list[int],
                 moves: Iterable[PebblingMove]) -> tuple[int, str] | None:
    """Apply ``moves`` to ``counts`` in place: the move rule of every checker.

    A move needs both endpoints in range, adjacent, and two pebbles at the
    source.  Returns ``None`` when all are legal (``counts`` is then the
    final configuration), else the index and reason of the first illegal
    move (``counts`` as it stood before it).  The solvers move pebbles with
    code of their own, so a checker never shares the rule it checks.
    """
    n, adj = g.n, g.adj_sets
    for i, (src, dst) in enumerate(moves):
        if not (0 <= src < n and 0 <= dst < n):
            return i, f"move {src}->{dst}: vertex out of range"
        if dst not in adj[src]:
            return i, f"move {src}->{dst}: endpoints not adjacent"
        if counts[src] < 2:
            return i, (f"move {src}->{dst}: needs 2 pebbles at source, "
                       f"found {counts[src]}")
        counts[src] -= 2
        counts[dst] += 1
    return None
