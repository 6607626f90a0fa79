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
    Certificate,
    FamilySpec,
    binary_tree,
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
    wheel,
)
from dcpebble import families
from dcpebble.cli import main
from dcpebble.graphs import Graph
from dcpebble.harness import (
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


def test_run_sweep_order4_clean():
    lines = connected_graph6_lines(4)
    records, summary = run_sweep(lines, omegas=(1,), cross_check_lambda=True)
    assert [r.graph_id for r in records] == lines
    assert summary["violations"] == [] and summary["findings"] == []
    assert summary["min_ratio"] == "3"
    assert sweep_exit_code(summary) == 0


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
    assert sweep_exit_code({"violations": [], "findings": []}) == 0
    assert sweep_exit_code({"violations": [{"graph": "x", "check": "c"}],
                            "findings": []}) == 2
    assert sweep_exit_code({"violations": [],
                            "findings": [{"graph": "x", "check": "c"}]}) == 3
    # a violation dominates a finding
    assert sweep_exit_code({"violations": [{}], "findings": [{}]}) == 2
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


def test_violation_embeds_replayable_witness():
    # fabricate a failed record the way the harness would emit it and
    # check its witness is a usable configuration string
    rec = analyze_graph(emit_graph6(star(4)))
    assert rec.psi_witness is not None
    counts = tuple(int(t) for t in rec.psi_witness.split(","))
    assert sum(counts) == rec.psi - 1


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

@pytest.fixture
def star5_file(tmp_path):
    f = tmp_path / "star5.el"
    f.write_text(emit_edge_list(star(5)))
    return str(f)


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_compute_psi(capsys, star5_file):
    code, out, _ = run_cli(capsys, ["compute", "psi", "--graph", star5_file])
    assert code == 0
    assert "psi = 4" in out
    assert "witness = 0,0,1,1,1" in out
    code, out, _ = run_cli(capsys, ["compute", "psi", "--cap", "2",
                                    "--graph", star5_file])
    assert code == 75 and out.startswith("psi >= 3 (size cap reached; ")
    code, out, _ = run_cli(capsys, ["compute", "psi", "--budget", "3",
                                    "--graph", star5_file])
    assert code == 75 and "(budget exhausted; " in out


def test_cli_compute_omega_wheel(capsys, tmp_path):
    f = tmp_path / "w6.g6"
    f.write_text(emit_graph6(wheel(6)) + "\n")
    code, out, _ = run_cli(capsys, ["compute", "omega", "--omega", "1",
                                    "--graph", str(f)])
    assert code == 0 and "omega_1 = 3" in out


def test_cli_compute_lambda_stdin(capsys, monkeypatch):
    p3 = emit_graph6(parse_edge_list("3 2\n0 1\n1 2\n"))
    code, out, _ = run_cli(capsys, ["compute", "lambda"], stdin=p3 + "\n",
                           monkeypatch=monkeypatch)
    assert code == 0 and "lambda = 7" in out
    code, out, _ = run_cli(capsys, ["compute", "lambda", "--brute"],
                           stdin=p3 + "\n", monkeypatch=monkeypatch)
    assert code == 0 and "lambda = 7" in out


def test_cli_solve_oracle_solvable(capsys, tmp_path):
    f = tmp_path / "p4.el"
    f.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, out, _ = run_cli(capsys, ["solve", "oracle", "--config", "5,0,0,0",
                                    "--graph", str(f)])
    assert code == 0
    assert "verdict: solvable (verified)" in out
    cert = Certificate.from_json(out.splitlines()[1])
    assert cert.initial == (5, 0, 0, 0)
    for config, goal in (("3,0,1,1", ["--goal", "cover"]),
                         ("5,0,0,0", ["--goal", "subversion",
                                      "--omega", "1"])):
        code, out, _ = run_cli(capsys, ["solve", "oracle", "--config",
                                        config, "--graph", str(f)] + goal)
        assert code == 0, goal
        assert out.endswith("verdict: solvable (verified)\n"), goal


def test_cli_solve_constructive(capsys, tmp_path, star5_file):
    p4 = tmp_path / "p4.el"
    p4.write_text("4 3\n0 1\n1 2\n2 3\n")
    k5 = tmp_path / "k5.g6"
    k5.write_text("D~{\n")
    for argv in (["spread", "--config", "3,0,0,0,0", "--graph", str(k5)],
                 ["diamd", "--config", "5,0,0,0", "--graph", str(p4)],
                 ["diamd", "--config", "5,0,0,0", "--graph", str(p4),
                  "--skip-invariants"],
                 ["subversion", "--omega", "1", "--config", "0,1,1,1,0",
                  "--graph", star5_file]):
        code, out, _ = run_cli(capsys, ["solve"] + argv)
        assert code == 0, argv
        assert out.endswith("verdict: solvable (verified)\n"), argv


def test_cli_solve_oracle_unsolvable(capsys, star5_file):
    code, out, _ = run_cli(capsys, ["solve", "oracle", "--config",
                                    "0,1,1,1,0", "--graph", star5_file])
    assert code == 0 and "verdict: unsolvable" in out


def test_cli_solve_budget_unknown(capsys, tmp_path, star5_file):
    # path 6 with 4 pebbles on one end and 1 on the other is unsolvable,
    # but not at the root
    f = tmp_path / "p6.el"
    f.write_text("6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n")
    for graph, config, budget in ((str(f), "4,0,0,0,0,1", "2"),
                                  (star5_file, "0,1,1,1,0", "0")):
        code, out, _ = run_cli(capsys, ["solve", "oracle", "--config",
                                        config, "--graph", graph,
                                        "--budget", budget])
        assert code == 75 and "unknown" in out


def test_cli_solve_precondition(capsys, tmp_path):
    f = tmp_path / "p4.el"
    f.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, _, err = run_cli(capsys, ["solve", "diam2", "--config", "5,0,0,0",
                                    "--graph", str(f)])
    assert code == 65 and "precondition" in err


def test_cli_verify_roundtrip(capsys, tmp_path, star5_file, monkeypatch):
    code, out, _ = run_cli(capsys, ["solve", "diam2", "--config",
                                    "0,4,0,0,0", "--graph", star5_file])
    assert code == 0
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out.splitlines()[0])
    code, out, _ = run_cli(capsys, ["verify", "--certificate",
                                    str(cert_file), "--graph", star5_file])
    assert code == 0 and out.startswith("valid")
    code, out_stdin, _ = run_cli(capsys, ["verify", "--certificate", "-",
                                          "--graph", star5_file],
                                 stdin=cert_file.read_text(),
                                 monkeypatch=monkeypatch)
    assert code == 0 and out_stdin == out

    # legal, but the initial configuration dominates only the leaf's edge
    idle = tmp_path / "idle.json"
    idle.write_text(Certificate((0, 4, 0, 0, 0), ()).to_json())
    code, out, _ = run_cli(capsys, ["verify", "--certificate", str(idle),
                                    "--graph", star5_file])
    assert code == 1 and out == "invalid: goal-not-met\n"

    bad = Certificate.from_json(cert_file.read_text())
    tampered = Certificate(bad.initial, ((0, 2),) + bad.moves)
    cert_file.write_text(tampered.to_json())
    code, out, _ = run_cli(capsys, ["verify", "--certificate",
                                    str(cert_file), "--graph", star5_file])
    assert code == 1 and "illegal move at step 0" in out


def test_cli_parse_errors(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "bad.el"
    bad.write_text("garbage\n")
    code, _, err = run_cli(capsys, ["compute", "psi", "--graph", str(bad)])
    assert code == 64 and "error" in err
    code, _, err = run_cli(capsys, ["compute", "psi", "--graph",
                                    str(tmp_path / "missing.el")])
    assert code == 64
    good = tmp_path / "k2.g6"
    good.write_text("A_\n")
    # An unwritable sweep --out is refused before the sweep runs.
    monkeypatch.setattr("dcpebble.cli.run_sweep",
                        lambda *a, **k: pytest.fail("the sweep ran"))
    for argv in (["sweep", "--bogus"],
                 ["compute", "omega", "--omega", "-1"],
                 ["compute", "psi", "--cap", "-1"],
                 ["sweep", "--omega", "a"],
                 ["compute", "psi", "--budget", "-5"],
                 ["sweep", "--jobs", "-3"],
                 ["sweep", "--out", str(tmp_path / "missing" / "x.csv")],
                 ["solve", "subversion", "--config", "1,0"],
                 ["solve", "oracle", "--goal", "subversion", "--config",
                  "1,0"],
                 ["compute", "omega"],
                 ["verify", "--certificate", str(tmp_path / "none.json")]):
        code, out, err = run_cli(capsys, argv + ["--graph", str(good)])
        assert code == 64, argv
        assert "error:" in err, argv
        assert out == "", argv
    for stdin in ("A_\nA_\n", ""):
        code, out, err = run_cli(capsys, ["compute", "psi"], stdin=stdin,
                                 monkeypatch=monkeypatch)
        assert (code, out) == (64, ""), stdin
        assert "error:" in err, stdin
    # Hostile input: bytes that are not UTF-8 (in a file or on a strictly
    # decoded stdin), certificate JSON nested deeper than the parser's
    # recursion limit, and an order far too large to allocate.
    latin1 = b"\xff\xfe\n"
    deep = b"[" * 100_000 + b"]" * 100_000
    files = {"latin1.g6": latin1, "latin1.el": latin1, "latin1.json": latin1,
             "deep.json": deep, "huge.el": b"1000000000 0\n"}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    for argv, stdin in (
            (["compute", "psi", "--graph", str(tmp_path / "latin1.g6")], b""),
            (["compute", "psi", "--graph", str(tmp_path / "latin1.el")], b""),
            (["compute", "psi", "--graph", str(tmp_path / "huge.el")], b""),
            (["verify", "--certificate", str(tmp_path / "latin1.json"),
              "--graph", str(good)], b""),
            (["verify", "--certificate", str(tmp_path / "deep.json"),
              "--graph", str(good)], b""),
            (["verify", "--certificate", "-", "--graph", str(good)], deep),
            (["compute", "psi"], latin1)):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(stdin), encoding="utf-8"))
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (64, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_cli_sweep_formats_and_jobs(capsys, tmp_path, monkeypatch):
    stream = "\n".join(connected_graph6_lines(4)) + "\n"
    code, out_csv, err = run_cli(capsys, ["sweep", "--omega", "1"],
                                 stdin=stream, monkeypatch=monkeypatch)
    assert code == 0
    assert "min lambda/psi: 3" in err
    code, out_csv2, _ = run_cli(capsys, ["sweep", "--omega", "1",
                                         "--jobs", "2"],
                                stdin=stream, monkeypatch=monkeypatch)
    assert out_csv2 == out_csv

    out_file = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, ["sweep", "--omega", "1", "--format",
                                  "json", "--out", str(out_file)],
                         stdin=stream, monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["summary"]["graphs"] == 6
    assert payload["summary"]["violations"] == []
    code, out_json, _ = run_cli(capsys, ["sweep", "--omega", "1",
                                         "--format", "json"],
                                stdin=stream, monkeypatch=monkeypatch)
    assert code == 0 and out_json.endswith("}\n")
    assert json.loads(out_json) == payload


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


def test_cli_goal_needs_omega(capsys, tmp_path, star5_file):
    cert = tmp_path / "cert.json"
    cert.write_text(Certificate((0, 4, 0, 0, 0), ()).to_json())
    for argv, word in (
            (["compute", "omega"], "omega"),
            (["solve", "oracle", "--goal", "subversion", "--config",
              "0,4,0,0,0"], "subversion"),
            (["solve", "subversion", "--config", "0,4,0,0,0"], "subversion"),
            (["verify", "--goal", "subversion", "--certificate", str(cert)],
             "subversion")):
        code, out, err = run_cli(capsys, argv + ["--graph", star5_file])
        assert (code, out) == (64, ""), argv
        assert err == f"error: --omega is missing: {word!r} needs it\n", argv


def test_cli_family_and_formats(capsys):
    code, out, _ = run_cli(capsys, ["family", "wheel", "6"])
    assert code == 0
    assert parse_graph6(out.strip()) == wheel(6)
    code, out, _ = run_cli(capsys, ["family", "star", "5", "--format",
                                    "edgelist"])
    assert code == 0
    assert parse_edge_list(out) == star(5)
    code, out, _ = run_cli(capsys, ["family", "binary-tree", "4"])
    assert code == 0 and parse_graph6(out.strip()) == binary_tree(4)
    code, out, _ = run_cli(capsys, ["family", "binary-tree", "4", "--format",
                                    "edgelist"])
    assert code == 0 and parse_edge_list(out) == binary_tree(4)
    for params, message in (
            (["binary-tree", "0"], "binary tree needs height >= 1"),
            (["binary-tree", "-5"], "binary tree needs height >= 1"),
            (["path"], "wrong parameter count for family 'path': ()")):
        assert run_cli(capsys, ["family", *params]) == (
            64, "", f"error: {message}\n"), params
    for argv in (["family", "star", "1"],
                 ["family", "random", "--order", "0"],
                 ["family", "random", "--order", "5", "--diameter", "x"],
                 ["family", "random", "--order", "3", "--diameter", "5"],
                 ["family", "random", "--order", "3", "--diameter", "2:1"],
                 ["family", "random", "--order", "4", "--diameter", "2:3:9"],
                 ["family", "random", "--order", "4", "--diameter", "2:"],
                 ["family", "random", "--order", "4", "--count", "-2"],
                 ["family", "random"]):
        code, _, err = run_cli(capsys, argv)
        assert code == 64 and "error:" in err, argv


def test_cli_family_random_gives_up(capsys, monkeypatch):
    def give_up(*args, **kwargs):
        raise RuntimeError("no graph found in 100000 tries")
    monkeypatch.setattr("dcpebble.cli.random_connected_graph", give_up)
    code, out, err = run_cli(capsys, ["family", "random", "--order", "4"])
    assert code == 75 and out == "" and "error:" in err


def test_cli_family_random_deterministic(capsys):
    argv = ["family", "random", "--order", "6", "--count", "2",
            "--diameter", "3:4", "--seed", "5"]
    code, out1, _ = run_cli(capsys, argv)
    code, out2, _ = run_cli(capsys, argv)
    assert code == 0 and out1 == out2
    for line in out1.strip().splitlines():
        g = parse_graph6(line)
        assert g.n == 6 and 3 <= g.diameter <= 4


def test_record_flat_roundtrip():
    rec = SweepRecord("A_", 2, 1, psi=1, lam=3, ratio="3")
    row = rec.flat(())
    assert row["graph"] == "A_" and row["ratio"] == "3"
    assert set(sweep_columns(())) == set(row)
