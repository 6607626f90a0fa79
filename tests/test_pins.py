import pytest

from pins import check_pin, digest

STREAM = [(f"{order} {goal}", f"{order} {goal} row {i}\n")
          for order in (1, 2) for goal in ("cover", "domination")
          for i in range(3)]
PIN = digest(STREAM)


def failure(pairs):
    with pytest.raises(AssertionError) as err:
        check_pin(pairs, PIN)
    return str(err.value).splitlines()


def test_equal_stream_passes():
    assert PIN.count == 12 and len(PIN.buckets) == 4
    check_pin(iter(STREAM), PIN)


def test_flipped_row_names_its_bucket():
    pairs = list(STREAM)
    pairs[7] = ("2 cover", "2 cover row 1 flipped\n")
    got = digest(pairs)
    assert failure(pairs) == [
        f"12 rows {got.sha256}, pinned 12 rows {PIN.sha256}",
        "changed buckets:",
        f"'2 cover': 3 rows {got.buckets['2 cover'][1]}, "
        f"pinned 3 rows {PIN.buckets['2 cover'][1]}"]


def test_dropped_row_shows_in_its_bucket_count():
    lines = failure(STREAM[:4] + STREAM[5:])
    assert len(lines) == 3 and lines[2].startswith("'1 domination': 2 rows ")


def test_new_and_missing_buckets_are_named():
    pairs = [pair for pair in STREAM if pair[0] != "1 cover"]
    pairs.append(("3 cover", "3 cover row 0\n"))
    lines = failure(pairs)
    assert len(lines) == 4
    assert lines[2].startswith("'1 cover': missing, pinned 3 rows ")
    assert lines[3].startswith("'3 cover': new, 1 rows ")


def test_stale_bucket_table_fails_with_rows_unchanged():
    regrouped = [("all", row) for _, row in STREAM]
    assert failure(regrouped)[0] == "rows unchanged, bucket table out of date"
