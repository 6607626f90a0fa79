from fractions import Fraction

import pytest

from dcpebble import (
    DOMINATION,
    FULL_COVER,
    Certificate,
    Goal,
    PebblingError,
    apply_move,
    clumping_number,
    complete,
    connected_graphs,
    cycle,
    format_configuration,
    is_solvable,
    pairing_number,
    parse_configuration,
    partition_covered,
    path,
    satisfies,
    solve_diameter2,
    solve_diameter_d,
    solve_subversion_diameter2,
    spread_diameter2,
    star,
    subversion,
    support,
)
from dcpebble.pebbling import check_configuration, replay_moves, satisfies_mask
from dcpebble.solver import configurations


P4 = path(4)
K2 = complete(2)
STAR5 = star(5)


def test_apply_move_basic():
    c = (5, 0, 0, 0)
    assert apply_move(P4, c, (0, 1)) == (3, 1, 0, 0)
    assert c == (5, 0, 0, 0)  # value semantics
    assert apply_move(K2, (2, 0), (0, 1)) == (0, 1)


def test_apply_move_errors():
    with pytest.raises(PebblingError):
        apply_move(P4, (1, 0, 0, 0), (0, 1))  # insufficient pebbles
    with pytest.raises(PebblingError):
        apply_move(P4, (5, 0, 0, 0), (0, 2))  # not adjacent
    with pytest.raises(PebblingError):
        apply_move(P4, (5, 0, 0), (0, 1))  # size mismatch
    with pytest.raises(PebblingError):
        apply_move(cycle(5), (0, 0, 0, 0, 3), (-1, 0))  # negative vertex
    with pytest.raises(PebblingError):
        apply_move(P4, (0, 0, 0, 5), (4, 3))  # vertex past the end


def test_satisfies_examples():
    assert satisfies(P4, (0, 1, 0, 1), DOMINATION)
    assert not satisfies(STAR5, (0, 1, 1, 1, 0), DOMINATION)
    assert satisfies(STAR5, (1, 1, 1, 1, 1), FULL_COVER)
    assert not satisfies(STAR5, (2, 1, 1, 1, 0), FULL_COVER)
    assert satisfies_mask(STAR5, 0b11111, FULL_COVER)
    assert not satisfies_mask(STAR5, 0b01111, FULL_COVER)


def test_goal_validation():
    with pytest.raises(ValueError):
        Goal("nonsense")
    with pytest.raises(ValueError):
        Goal("domination", omega=1)
    with pytest.raises(ValueError):
        subversion(-1)
    for omega in (1.5, 1.0, True):
        with pytest.raises(ValueError):
            Goal("subversion", omega)


def test_subversion_zero_is_domination():
    # exhaustive over all supports of all connected graphs of order <= 6
    for n in range(1, 7):
        for g in connected_graphs(n):
            for mask in range(1 << g.n):
                c = tuple(1 if mask >> v & 1 else 0 for v in range(g.n))
                assert satisfies(g, c, subversion(0)) == \
                    satisfies(g, c, DOMINATION)


def test_subversion_monotone_in_omega():
    for g in connected_graphs(5):
        for mask in range(1 << g.n):
            c = tuple(1 if mask >> v & 1 else 0 for v in range(g.n))
            prev = satisfies(g, c, subversion(0))
            for om in range(1, g.n + 1):
                cur = satisfies(g, c, subversion(om))
                assert cur or not prev
                prev = cur


def test_pairing_number_values():
    assert pairing_number((5, 0, 0, 0)) == 2
    assert pairing_number((1, 1, 0, 1)) == 0
    assert pairing_number((2, 2)) == 1
    assert pairing_number((4, 3)) == Fraction(5, 2)


def test_pairing_number_partition_identity(diam2_upto5):
    # with exactly n-1 pebbles, the pairing number equals (a+b-1)/2 where
    # a and b count the fringe and remote parts of the cover partition
    for g in diam2_upto5:
        for c in configurations(g.n, g.n - 1):
            part = partition_covered(g, c)
            a, b = len(part.fringe), len(part.remote)
            assert pairing_number(c) == Fraction(a + b - 1, 2)


def test_pairing_number_partition_inequality(diam2_upto5):
    # above n-1 pebbles the identity relaxes to >=
    for g in diam2_upto5[:6]:
        for c in configurations(g.n, g.n + 1):
            part = partition_covered(g, c)
            a, b = len(part.fringe), len(part.remote)
            assert pairing_number(c) >= Fraction(a + b - 1, 2)


def test_clumping_number_values():
    assert clumping_number((5, 0, 0, 0), 3) == 4
    assert clumping_number((9,), 4) == 8
    assert clumping_number((2, 2, 2, 1), 3) == 0  # all counts <= 2^(d-2)
    assert clumping_number((0, 0), 5) == 0


def test_clumping_number_divisibility():
    for d in (3, 4, 5):
        for c in configurations(3, 9):
            assert clumping_number(c, d) % (1 << (d - 2)) == 0


def test_clumping_number_rejects_small_diameter():
    with pytest.raises(ValueError):
        clumping_number((5, 0), 2)


def test_single_move_potential_drops():
    # one move burns one pebble, costs at most 1 of pairing number and at
    # most one clump of clumping number
    g = path(5)
    d = g.diameter
    for c in configurations(5, 6):
        for u in range(5):
            if c[u] >= 2:
                for v in g.adj[u]:
                    c2 = apply_move(g, c, (u, v))
                    assert sum(c2) == sum(c) - 1
                    assert pairing_number(c) - pairing_number(c2) <= 1
                    assert clumping_number(c, d) - clumping_number(c2, d) \
                        <= 1 << (d - 2)


def test_certificate_replay_and_json():
    cert = Certificate((5, 0, 0, 0), ((0, 1), (0, 1), (1, 2)))
    assert cert.replay(P4) == (1, 0, 1, 0)
    again = Certificate.from_json(cert.to_json())
    assert again == cert
    assert again.replay(P4) == (1, 0, 1, 0)


def test_certificate_replay_illegal():
    cert = Certificate((1, 0, 0, 0), ((0, 1),))
    with pytest.raises(PebblingError):
        cert.replay(P4)
    with pytest.raises(PebblingError):
        Certificate((0, 0, 0, 5), ((4, 3),)).replay(P4)


def test_certificate_rejects_non_integers():
    cert_not_int = "^certificate counts and vertices must be integers$"
    for initial, moves, message in (
            ((3, 0), ((0.5, 1),), cert_not_int),
            ((2.5, 0), ((0, 1),), cert_not_int),
            ((True, 0), (), cert_not_int),
            ((2, 0), ((0, True),), cert_not_int),
            ((-1, 0), (), "negative")):
        with pytest.raises(PebblingError, match=message):
            Certificate(initial, moves)
    # satisfies and partition_covered pass through the same gate, which
    # speaks of configurations, not certificates
    not_int = "^configuration counts must be integers$"
    for bad, message in (((-1, 1, 0, 1), "negative"),
                         ((0.5, 1, 0, 1), not_int),
                         ((True, 1, 0, 1), not_int)):
        with pytest.raises(PebblingError, match=message):
            satisfies(P4, bad, DOMINATION)
    for bad in ((-3, 0, 0, 1), (1.0, 0, 0, 1), (0, False, 0, 1)):
        with pytest.raises(PebblingError):
            partition_covered(P4, bad)
    # is_solvable checks its configuration with the same rule
    for g, c, message in ((path(3), (-1, 0, 0), "negative"),
                          (path(3), (2.7, 0, 0), not_int),
                          (star(4), (5, -3, 0, 0), "negative")):
        with pytest.raises(PebblingError, match=message):
            is_solvable(g, c, DOMINATION)
    # and so does each constructive solver, before any precondition,
    # instead of certifying a truncated copy
    for solve, g in ((solve_diameter2, STAR5),
                     (spread_diameter2, complete(5)),
                     (solve_diameter_d, P4),
                     (lambda g, c: solve_subversion_diameter2(g, c, 1), STAR5)):
        for bad in (5.7, True, -1):
            with pytest.raises(PebblingError):
                solve(g, (bad, 6) + (0,) * (g.n - 2))


def test_iterator_counts_equal_tuple():
    # the gate takes any iterable of counts, as Certificate does
    for c in ((1, 0, 0, 1), (1, 0, 0, 0), (5, 0, 0, 0), (0, 0, 3, 0)):
        assert satisfies(P4, iter(c), DOMINATION) == \
            satisfies(P4, c, DOMINATION)
        assert is_solvable(P4, iter(c), DOMINATION) == \
            is_solvable(P4, c, DOMINATION)
        assert is_solvable(P4, (k for k in c), FULL_COVER) == \
            is_solvable(P4, c, FULL_COVER)
    with pytest.raises(PebblingError, match="has 3 entries"):
        satisfies(P4, iter((1, 0, 1)), DOMINATION)


def test_certificate_bad_json():
    with pytest.raises(PebblingError):
        Certificate.from_json('{"moves": []}')
    with pytest.raises(PebblingError):
        Certificate.from_json("not json")
    for text in ('{"initial": [3, 0], "moves": [[0.5, 1]]}',
                 '{"initial": [1.5, 0], "moves": []}',
                 '{"initial": ["3", 0], "moves": []}',
                 '{"initial": [true, 0], "moves": []}'):
        with pytest.raises(PebblingError):
            Certificate.from_json(text)


NOT_INT = "certificate counts and vertices must be integers"


def unpack_error(m):
    """The exception type and message of a plain two-name unpack of ``m``,
    in this interpreter's words."""
    try:
        a, b = m
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    raise AssertionError(f"{m!r} unpacks")


# (initial, moves, JSON of both or None, the moves kept or the exception
# type and message).  Every move is unpacked before any vertex is checked
# for int, and the moves before the initial counts.
CERTIFICATE_GATE = (
    ([3, 0], [[0, 1], [1, 0]],
     '{"initial": [3, 0], "moves": [[0, 1], [1, 0]]}', ((0, 1), (1, 0))),
    ((3, 0), ((0, 1), [1, 0]), None, ((0, 1), (1, 0))),
    ((3, 0), [[0, 1, 2]], '{"initial": [3, 0], "moves": [[0, 1, 2]]}',
     unpack_error([0, 1, 2])),
    ((3, 0), [[0]], '{"initial": [3, 0], "moves": [[0]]}',
     unpack_error([0])),
    ((3, 0), [5], '{"initial": [3, 0], "moves": [5]}', unpack_error(5)),
    ((3, 0), [[0.0, 1]], '{"initial": [3, 0], "moves": [[0.0, 1]]}',
     (PebblingError, NOT_INT)),
    ((3, 0), [[0, True]], '{"initial": [3, 0], "moves": [[0, true]]}',
     (PebblingError, NOT_INT)),
    ((3, 0), [[0.5, 1], [0]], '{"initial": [3, 0], "moves": [[0.5, 1], [0]]}',
     unpack_error([0])),
    ((-1, 0), [[0.5, 1]], '{"initial": [-1, 0], "moves": [[0.5, 1]]}',
     (PebblingError, NOT_INT)),
    ((-1, 0), [[0, 1]], '{"initial": [-1, 0], "moves": [[0, 1]]}',
     (PebblingError, "negative pebble count in (-1, 0)")),
    (5, [[0]], '{"initial": 5, "moves": [[0]]}',
     (TypeError, "'int' object is not iterable")),
)


@pytest.mark.parametrize("initial,moves,text,expected", CERTIFICATE_GATE)
def test_certificate_gate_pinned(initial, moves, text, expected):
    # Pinned against the gate before it stopped rebuilding every move; the
    # from_json message is what `dcpebble verify` prints, with exit 64.
    if isinstance(expected[0], type):
        kind, message = expected
        with pytest.raises(kind) as err:
            Certificate(initial, moves)
        assert type(err.value) is kind and str(err.value) == message
        if text is not None:
            with pytest.raises(PebblingError) as err:
                Certificate.from_json(text)
            assert str(err.value) == f"bad certificate JSON: {message}"
        return
    cert = Certificate(initial, moves)
    assert cert.initial == tuple(initial) and cert.moves == expected
    assert Certificate(initial, (m for m in moves)) == cert  # a generator
    if text is not None:
        assert Certificate.from_json(text) == cert


def test_replay_moves_reasons_pinned():
    # From (3, 1, 0, 0) on P4: each illegal move is reported with its index
    # and reason, the counts left as they stood before it.
    for moves, expected, left in (
            ([(0, 1), (-1, 0)], (1, "move -1->0: vertex out of range"),
             [1, 2, 0, 0]),
            ([(0, -1)], (0, "move 0->-1: vertex out of range"), [3, 1, 0, 0]),
            ([(0, 1), (3, 4)], (1, "move 3->4: vertex out of range"),
             [1, 2, 0, 0]),
            ([(4, 3)], (0, "move 4->3: vertex out of range"), [3, 1, 0, 0]),
            ([(0, 2)], (0, "move 0->2: endpoints not adjacent"),
             [3, 1, 0, 0]),
            ([(1, 2)], (0, "move 1->2: needs 2 pebbles at source, found 1"),
             [3, 1, 0, 0]),
            ([(0, 1), (1, 2)], None, [1, 0, 1, 0])):
        counts = [3, 1, 0, 0]
        assert replay_moves(P4, counts, moves) == expected, moves
        assert counts == left, moves


def test_configuration_text_forms():
    assert parse_configuration("5,0,0,0") == (5, 0, 0, 0)
    assert parse_configuration(" 1 , -2 ") == (1, -2)
    assert format_configuration((5, 0, 0, 0)) == "5,0,0,0"
    with pytest.raises(PebblingError, match="bad configuration text"):
        parse_configuration("1,x")
    # the length and sign rules are the gate's alone
    with pytest.raises(PebblingError, match="negative pebble count"):
        check_configuration(path(2), parse_configuration("1,-2"))
    with pytest.raises(PebblingError, match="3 entries, graph has 2"):
        check_configuration(path(2), parse_configuration("1,2,3"))


def test_support():
    assert support((0, 2, 0, 1)) == {1, 3}


def test_satisfies_invariant_under_automorphism():
    from dcpebble import wheel
    from dcpebble.solver import configurations
    w = wheel(5)  # rotating the rim by one is an automorphism
    rot = [0] + [v % 5 + 1 for v in range(1, 6)]
    for goal in (DOMINATION, subversion(1)):
        for c in configurations(w.n, 3):
            rotated = [0] * w.n
            for v in range(w.n):
                rotated[rot[v]] = c[v]
            assert satisfies(w, c, goal) == satisfies(w, tuple(rotated), goal)
