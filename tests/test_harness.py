import concurrent.futures
import csv
import io
import json
import os
import types
from pathlib import Path

import pytest

import dcpebble
from dcpebble import (
    FamilySpec,
    connected_graph6_lines,
    emit_edge_list,
    emit_graph6,
    is_solvable,
    parse_edge_list,
    parse_graph6,
    path,
    pebbling_value,
    star,
    subversion,
)
from dcpebble import families
from dcpebble.cli import main
from dcpebble.graphs import Graph
from dcpebble.harness import (
    EXIT_FINDING,
    EXIT_VIOLATION,
    SweepRecord,
    analyze_graph,
    emit_csv,
    emit_json,
    print_summary,
    run_sweep,
    sweep_columns,
    sweep_exit_code,
)


# ---------------------------------------------------------------------------
# harness API
# ---------------------------------------------------------------------------

def test_analyze_k2():
    rec = analyze_graph("A_", cross_check_lambda=True)
    assert (rec.n, rec.diameter) == (2, 1)
    assert rec.psi == 1 and rec.lam == 3 and rec.lam_brute == 3
    assert rec.ratio == "3"
    assert rec.checks["psi_diameter_bound"] is True
    assert rec.checks["ratio_diam2"] is True
    assert not rec.violations and not rec.findings
    assert rec.seconds is None
    assert analyze_graph("A_", timing=True).seconds >= 0


def test_analyze_diameter3_uses_conjecture_checks():
    line = emit_graph6(parse_edge_list("4 3\n0 1\n1 2\n2 3\n"))
    rec = analyze_graph(line, omegas=(1,))
    assert rec.diameter == 3
    assert rec.checks["ratio_conjecture"] is True
    assert rec.checks["subversion_diam3_omega_1"] is True
    assert rec.checks.get("ratio_diam2") is None
    assert not rec.violations and not rec.findings


def test_analyze_order6_subversion_finding():
    # C5 plus a pendant (diameter 3): Omega_1 = 6 exceeds the conjectured
    # floor(3(n-2-omega)/2)+1 = 5; the witness is 5 pebbles on the pendant.
    rec = analyze_graph("ELq?", omegas=(1, 2))
    assert (rec.n, rec.diameter) == (6, 3)
    assert rec.psi == 9 and rec.psi_witness == "0,0,0,0,0,8"
    assert rec.omega_values == {1: 6, 2: 2}
    assert rec.findings == ["subversion_diam3_omega_1"]
    assert not rec.violations
    g = parse_graph6("ELq?")
    witness = (0, 0, 0, 0, 0, 5)
    assert pebbling_value(g, subversion(1)).witness == witness
    # the least weight of an omega-1-meeting vertex set refutes it at the root
    res = is_solvable(g, witness, subversion(1))
    assert res.solvable is False and res.states_explored == 1


def test_sweep_orders1_to_6_matches_pinned_csv():
    lines = [ln for n in range(1, 7) for ln in connected_graph6_lines(n)]
    records, _ = run_sweep(lines, omegas=(1, 2))
    pinned = Path(__file__).parent / "data" / "sweep_orders1-6_omega12.csv"
    assert emit_csv(records, (1, 2)).encode() == pinned.read_bytes()


def test_package_exports_resolve():
    for name in dcpebble.__all__:
        assert not isinstance(getattr(dcpebble, name), types.ModuleType), name


def test_analyze_budget_marks_unknown():
    rec = analyze_graph(emit_graph6(star(5)), budget=3)
    assert rec.status == "unknown"
    assert rec.psi is None
    assert not rec.violations and not rec.findings
    # psi is decided, the brute lambda scan runs out
    rec = analyze_graph(emit_graph6(star(5)), budget=40,
                        cross_check_lambda=True)
    assert (rec.status, rec.psi, rec.lam_brute) == ("unknown", 4, None)
    assert rec.checks.get("lambda_stacking_oracle") is None
    # Omega_2 is decided, the Omega_1 level runs out
    rec = analyze_graph(emit_graph6(path(4)), omegas=(1, 2), budget=5)
    assert rec.status == "unknown"
    assert rec.omega_values == {1: None, 2: 1}


def test_run_sweep_jobs_equivalent():
    lines = connected_graph6_lines(4) + connected_graph6_lines(3)
    one, _ = run_sweep(lines, omegas=(1,))
    two, _ = run_sweep(lines, omegas=(1,), jobs=2)
    assert [r.flat((1,)) for r in one] == [r.flat((1,)) for r in two]


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool with one that records the number of
    workers asked for and maps serially, so no process is started."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return sizes


def test_run_sweep_caps_workers(pool_sizes, monkeypatch):
    # A pool forks all of its workers at once, so --jobs must never reach
    # it unbounded: at most the CPUs, at most the graphs, serial at one.
    lines = connected_graph6_lines(4)  # six graphs
    serial = [r.flat((1,)) for r in run_sweep(lines, omegas=(1,))[0]]
    for cpus, jobs, want in ((8, 100_000, [6]), (3, 100_000, [3]),
                             (8, 4, [4]), (1, 100_000, []), (None, 5, []),
                             (8, 1, []), (8, 0, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        pool_sizes.clear()
        records, _ = run_sweep(lines, omegas=(1,), jobs=jobs)
        assert pool_sizes == want, (cpus, jobs)
        assert [r.flat((1,)) for r in records] == serial, (cpus, jobs)


def test_run_sweep_without_process_pools(monkeypatch):
    def refuse(max_workers):
        raise OSError("process pools are not available")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    lines = connected_graph6_lines(4)
    serial, _ = run_sweep(lines, omegas=(1,))
    pooled, _ = run_sweep(lines, omegas=(1,), jobs=4)
    assert [r.flat((1,)) for r in pooled] == [r.flat((1,)) for r in serial]


def test_sweep_exit_codes():
    # A violation dominates a finding.
    found = [{"graph": "x", "check": "c"}]
    assert [sweep_exit_code({"violations": v, "findings": f})
            for v, f in (([], []), (found, []), ([], found), (found, found))
            ] == [0, EXIT_VIOLATION, EXIT_FINDING, EXIT_VIOLATION]
    summary = {"graphs": 2, "unknown": 0, "min_ratio": "3",
               "violations": [{"graph": "A_", "check": "ratio_diam2"}],
               "findings": [{"graph": "ELq?",
                             "check": "subversion_diam3_omega_1"}]}
    buf = io.StringIO()
    print_summary(summary, buf)
    assert buf.getvalue() == (
        "graphs: 2  unknown: 0  min lambda/psi: 3\n"
        "BOUND VIOLATION ratio_diam2 on A_\n"
        "finding subversion_diam3_omega_1 on ELq?\n")


def test_csv_json_carry_identical_data():
    lines = connected_graph6_lines(3)
    records, summary = run_sweep(lines, omegas=(1,))
    cols = sweep_columns((1,))
    rows = list(csv.DictReader(io.StringIO(emit_csv(records, (1,)))))
    payload = json.loads(emit_json(records, summary, (1,)))
    assert len(rows) == len(payload["records"])
    for row, rec in zip(rows, payload["records"]):
        assert set(row) == set(cols) == set(rec)
        for col in cols:
            want = rec[col]
            got = row[col]
            if want is None:
                assert got == ""
            elif isinstance(want, bool):
                assert got == ("true" if want else "false")
            else:
                assert got == str(want)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin",
                            io.TextIOWrapper(io.BytesIO(stdin.encode())))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Only checks that patch internals or read back a written file run the CLI
# in-process; every other CLI check is a row of test_cli_contract.CASES.

def test_cli_parse_errors(capsys, tmp_path, monkeypatch):
    # An unwritable sweep --out is refused before the sweep runs.
    monkeypatch.setattr("dcpebble.cli.run_sweep",
                        lambda *a, **k: pytest.fail("the sweep ran"))
    out = tmp_path / "missing" / "x.csv"
    assert run_cli(capsys, ["sweep", "--out", str(out)], stdin="A_\n",
                   monkeypatch=monkeypatch) == (
        64, "", f"error: cannot write {out}: [Errno 2] No such file or "
                f"directory: '{out}'\n")


def test_cli_sweep_out_json_matches_stdout(capsys, tmp_path, monkeypatch):
    stream = "\n".join(connected_graph6_lines(4)) + "\n"
    out_file = tmp_path / "report.json"
    argv = ["sweep", "--omega", "1", "--format", "json"]
    written = run_cli(capsys, argv + ["--out", str(out_file)], stdin=stream,
                      monkeypatch=monkeypatch)
    printed = run_cli(capsys, argv, stdin=stream, monkeypatch=monkeypatch)
    assert written[:2] == (0, "") and printed[0] == 0
    payload = json.loads(out_file.read_text())
    assert payload["summary"]["graphs"] == 6
    assert payload["summary"]["violations"] == []
    assert printed[1].endswith("}\n") and json.loads(printed[1]) == payload


def test_cli_sweep_huge_jobs(capsys, monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    stream = "\n".join(connected_graph6_lines(3)) + "\n"  # two graphs
    serial = run_cli(capsys, ["sweep"], stdin=stream, monkeypatch=monkeypatch)
    huge = run_cli(capsys, ["sweep", "--jobs", "100000"], stdin=stream,
                   monkeypatch=monkeypatch)
    assert huge == serial and serial[0] == 0
    assert pool_sizes == [2]


def test_cli_refuses_graph6_order_before_building(capsys, tmp_path,
                                                  monkeypatch):
    def unbuilt(*args, **kwargs):
        raise AssertionError("graph built before its order was refused")
    big = tmp_path / "path63.el"
    big.write_text(emit_edge_list(path(63)))
    # A growing order formula fails here, before the height-10^12 case
    # below would try to build a 2^(10^12) int.
    assert FamilySpec("binary-tree", (10 ** 6,)).order.bit_length() < 64
    monkeypatch.setattr(Graph, "__init__", unbuilt)
    monkeypatch.setattr("dcpebble.cli.random_connected_graph", unbuilt)
    for kind, (_, order) in list(families._FAMILIES.items()):
        monkeypatch.setitem(families._FAMILIES, kind, (unbuilt, order))
    refused = (64, "", "error: graph6 orders above 62 are not supported\n")
    assert run_cli(capsys, ["compute", "psi", "--graph", str(big)]) == refused
    # No command reads an edge list above order 62 either.
    for argv in (["family", "random", "--order", "63"],
                 ["family", "random", "--order", "300", "--seed", "3"],
                 ["family", "path", "100000000"],
                 ["family", "binary-tree", "40"],
                 ["family", "binary-tree", "1000000000000"],
                 ["family", "complete", "100000"],
                 ["family", "multipartite", "40", "40"],
                 ["family", "binary-tree", "5"]):
        for fmt in ("g6", "edgelist"):
            assert run_cli(capsys, argv + ["--format", fmt]) == refused, \
                (argv, fmt)


def test_cli_family_random_gives_up(capsys, monkeypatch):
    def give_up(*args, **kwargs):
        raise RuntimeError("no graph found in 100000 tries")
    monkeypatch.setattr("dcpebble.cli.random_connected_graph", give_up)
    code, out, err = run_cli(capsys, ["family", "random", "--order", "4"])
    assert code == 75 and out == "" and "error:" in err


def test_record_flat_roundtrip():
    rec = SweepRecord("A_", 2, 1, psi=1, lam=3, ratio="3")
    row = rec.flat(())
    assert row["graph"] == "A_" and row["ratio"] == "3"
    assert set(sweep_columns(())) == set(row)
