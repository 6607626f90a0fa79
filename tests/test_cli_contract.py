"""The README exit-code contract, the demos, the benchmark self-test and
the pin dump tool, run as real processes: a case fails on a wrong exit
code, a traceback, a missing stdout line or other stderr.  Also the README
quick start's values."""

import ast
import os
import re
import resource
import signal
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from dcpebble import cli

ROOT = Path(__file__).resolve().parents[1]
DCPEBBLE = (sys.executable, "-m", "dcpebble")
PYTHON = (sys.executable,)
CAP = 1_000_000 * 1024  # address space in bytes, as `ulimit -v 1000000`


@dataclass(frozen=True)
class Case:
    argv: tuple[str, ...]
    codes: tuple[int, ...]          # allowed exit codes
    command: tuple[str, ...] = DCPEBBLE  # what argv is passed to
    stdin: bytes | tuple[str, ...] = b""  # or the argv whose stdout it is
    graph: bytes | None = None      # written to a file passed as --graph
    env: tuple[tuple[str, str], ...] = ()
    capped: bool = False            # run under the address-space cap
    timeout: float = 60.0
    stdout: tuple[str, ...] = ()    # lines stdout must hold
    stderr: tuple[str, ...] = ()    # every line of stderr


def check(case: Case, tmp_path: Path) -> bytes:
    """Run ``case.command + case.argv`` in its own session, killed as a
    group on timeout, and fail unless it meets ``case``; return its
    stdout."""
    stdin, argv = case.stdin, case.argv
    if isinstance(stdin, tuple):
        stdin = check(Case(stdin, (cli.EXIT_OK,)), tmp_path)
    if case.graph is not None:
        (tmp_path / "graph").write_bytes(case.graph)
        argv += ("--graph", str(tmp_path / "graph"))
    limit = ((lambda: resource.setrlimit(resource.RLIMIT_AS, (CAP, CAP)))
             if case.capped else None)
    with subprocess.Popen(
            (*case.command, *argv), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True, preexec_fn=limit,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                 **dict(case.env)}) as proc:
        try:
            out, err = proc.communicate(stdin, timeout=case.timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise AssertionError(f"{argv}: over the {case.timeout} s timeout")
    shown = f"{argv}: exit {proc.returncode}\n{out!r}\n{err!r}"
    assert proc.returncode in case.codes, shown
    assert b"Traceback" not in out and b"Traceback" not in err, shown
    out_lines, err_lines = (s.decode(errors="replace").splitlines()
                            for s in (out, err))
    assert set(case.stdout) <= set(out_lines), shown
    assert err_lines == list(case.stderr), shown
    return out


def oracle(kind: str, n: int, pebbles: int, *options: str, **expect) -> Case:
    config = ",".join([str(pebbles)] + ["0"] * (n - 1))
    return Case(("solve", "oracle", "--config", config, *options),
                stdin=("family", kind, str(n)), **expect)


TOO_LARGE = ("error: graph6 orders above 62 are not supported",)
CASES = {
    "undecodable-stdin": Case(
        ("compute", "psi"), (cli.EXIT_USAGE,), stdin=b"\xff\xfe\n",
        env=(("PYTHONIOENCODING", "utf-8"),),
        stderr=("error: cannot read stdin: 'utf-8' codec can't decode byte "
                "0xff in position 0: invalid start byte",)),
    "edge-list-100000": Case(
        ("compute", "psi"), (cli.EXIT_USAGE,), capped=True, stderr=TOO_LARGE,
        graph=b"100000 99999\n" + b"".join(
            b"%d %d\n" % (i, i + 1) for i in range(99_999))),
    **{f"family-{kind}-{n}-{fmt}": Case(
        ("family", kind, n, "--format", fmt), (cli.EXIT_USAGE,),
        capped=True, stderr=TOO_LARGE)
       for kind, n in (("path", "100000000"), ("binary-tree", "1000000000000"),
                       ("binary-tree", "40")) for fmt in ("g6", "edgelist")},
    "sweep-cross-check": Case(
        ("sweep", "--omega", "1,2", "--cross-check-lambda"),
        (cli.EXIT_FINDING,), stdin=b"".join(
            (ROOT / "src/dcpebble/data" / f"connected_{n}.g6").read_bytes()
            for n in range(1, 7)),
        stderr=("graphs: 143  unknown: 0  min lambda/psi: 1",
                "finding subversion_diam3_omega_1 on ELq?")),
    "compute-psi-path-8": Case(
        ("compute", "psi"), (cli.EXIT_OK,), stdin=("family", "path", "8"),
        stdout=("psi = 73", "witness = 0,0,0,0,0,0,0,72",
                "configurations checked = 264999")),
    "compute-psi-path-8-budget": Case(
        ("compute", "psi", "--budget", "264998"), (cli.EXIT_BUDGET,),
        stdin=("family", "path", "8"),
        stdout=("psi >= 73 (budget exhausted; value is a lower bound)",
                "configurations checked = 264999")),
    "oracle-path-12": oracle("path", 12, 500, codes=(cli.EXIT_OK,),
                             stdout=("verdict: unsolvable",)),
    "oracle-path-10": oracle("path", 10, 300, codes=(cli.EXIT_OK,),
                             timeout=10.0,
                             stdout=("verdict: solvable (verified)",)),
    "oracle-cycle-15": oracle(
        "cycle", 15, 250, "--budget", "500000", codes=(cli.EXIT_BUDGET,),
        stdout=("verdict: unknown (state budget exhausted)",)),
    "oracle-path-62": oracle("path", 62, 62, "--budget", "1000", timeout=10.0,
                             codes=(cli.EXIT_OK, cli.EXIT_BUDGET)),
    "oracle-omega-past-order": oracle(
        "path", 4, 3, "--goal", "subversion", "--omega",
        "99999999999999999999", codes=(cli.EXIT_OK,), timeout=10.0,
        stdout=("verdict: solvable (verified)",)),
    "pins-dump-diamd": Case(
        (str(ROOT / "tests/pins.py"), "diamd", "path 10"), (cli.EXIT_OK,),
        command=PYTHON, stdout=(
            "state (91, 93, 99, 105, 97, 108, 103, 115, 114, 100) "
            "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9] [] [] [] 0 0",
            "cert IhCGGC@?G True (91, 93, 99, 105, 97, 108, 103, 115, 114, "
            "100) ()")),
}


@pytest.mark.parametrize("name", CASES)
def test_cli_contract(name, tmp_path):
    check(CASES[name], tmp_path)


# The repo's scripts under the same rules, each with the lines its stdout
# must hold.
SCRIPTS = {**{f"demos/{path.name}": () for path in
              sorted((ROOT / "demos").glob("*.py"))},
           "perfbench/selftest.py": ("selftest passed",)}


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_runs(script, tmp_path):
    check(Case((str(ROOT / script),), (cli.EXIT_OK,), PYTHON,
               stdout=SCRIPTS[script]), tmp_path)


def test_readme_exit_codes_are_the_cli_constants():
    table = (ROOT / "README.md").read_text().split("### Exit codes")[1]
    documented = re.findall(r"^\| (\d+) ", table.split("\n\n")[1], re.M)
    assert {int(code) for code in documented} == {
        value for name, value in vars(cli).items() if name.startswith("EXIT_")}


def test_readme_quick_start_values():
    # Each bare expression's repr is its trailing comment, up to a colon.
    block = (ROOT / "README.md").read_text().split("```python\n")[1]
    block = block.split("```")[0]
    lines, scope, got, documented = block.splitlines(), {}, [], []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            got.append(repr(eval(compile(ast.Expression(node.value), "README",
                                         "eval"), scope)))
            comment = lines[node.end_lineno - 1].split("# ", 1)[1]
            documented.append(comment.split(":")[0])
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), scope)
    assert got == documented and len(got) == 6


# The helper's own cases: each command breaks one rule that MEETS keeps.
MEETS = Case(("-c", "print('line')"), (cli.EXIT_OK,), PYTHON,
             stdout=("line",))


@pytest.mark.parametrize("code", (
    "print('line'); raise SystemExit(3)", "print('line'); print('Traceback')",
    "import sys; print('line'); sys.stderr.write('Traceback')",
    "print('lines')"))
def test_check_fails_a_broken_case(code, tmp_path):
    check(MEETS, tmp_path)
    with pytest.raises(AssertionError):
        check(replace(MEETS, argv=("-c", code)), tmp_path)


def test_check_kills_the_session_on_timeout(tmp_path):
    spawn = ("import pathlib, subprocess, sys, time; p = subprocess.Popen("
             "[sys.executable, '-c', 'import time; time.sleep(60)']); "
             "pathlib.Path(sys.argv[1]).write_text(str(p.pid)); "
             "time.sleep(60)")
    pid = tmp_path / "pid"
    with pytest.raises(AssertionError, match="timeout"):
        check(replace(MEETS, argv=("-c", spawn, str(pid)), timeout=2.0),
              tmp_path)
    # Its pipes reached EOF, so the grandchild has exited: it is gone, or a
    # zombie that its new parent has yet to reap.
    try:
        state = Path(f"/proc/{pid.read_text()}/stat").read_text()
    except FileNotFoundError:
        state = ") X"
    assert state.rsplit(") ", 1)[1][0] in "ZX"
