"""The README exit-code contract, every command-line check that needs only
argv, stdin and files, the demos, the benchmark self-test and the pin dump
tool, run as real processes: a case fails on a wrong exit code, a
traceback, or any stdout or stderr line other than its own.  Also the
README quick start's values."""

import ast
import os
import re
import resource
import signal
import subprocess
import sys
import time
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
    env: tuple[tuple[str, str], ...] = ()
    capped: bool = False            # run under the address-space cap
    timeout: float = 60.0
    stdout: tuple = ()              # every line of stdout; ... is any lines
    stderr: tuple = ()              # every line of stderr, the same way


CERT = '{"initial": [0, 4, 0, 0, 0], "moves": [[1, 0]]}'
FILES = {
    "star5.el": b"5 4\n0 1\n0 2\n0 3\n0 4\n", "p4.el": b"4 3\n0 1\n1 2\n2 3\n",
    "p6.el": b"6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n", "k2.g6": b"A_\n",
    "k5.g6": b"D~{\n", "w6.g6": b"F|eMG\n", "bad.el": b"garbage\n",
    "huge.el": b"1000000000 0\n", "cert.json": CERT.encode() + b"\n",
    **dict.fromkeys(("latin1.g6", "latin1.el", "latin1.json"), b"\xff\xfe\n"),
    "deep.json": b"[" * 100_000 + b"]" * 100_000,
    "path100000.el": b"100000 99999\n" + b"".join(
        b"%d %d\n" % (i, i + 1) for i in range(99_999)),
}


def fits(data: bytes, lines: tuple) -> bool:
    """Whether ``data``'s lines are ``lines``; ``...`` is any run of lines."""
    text = "\n".join(data.decode(errors="replace").splitlines() + [""])
    pattern = "".join(r"(?:.*\n)*" if line is ... else re.escape(line) + "\n"
                      for line in lines)
    return re.fullmatch(pattern, text) is not None


def check(case: Case, tmp_path: Path) -> bytes:
    """Run ``case.command + case.argv`` in ``tmp_path``, holding the FILES
    its argv names, in its own session, killed as a group on timeout, and
    fail unless it meets ``case``; return its stdout.  Runs share a
    bytecode cache."""
    stdin, argv = case.stdin, case.argv
    if isinstance(stdin, tuple):
        stdin = check(Case(stdin, (cli.EXIT_OK,), stdout=(...,)), tmp_path)
    for name in FILES.keys() & set(argv):
        (tmp_path / name).write_bytes(FILES[name])
    limit = ((lambda: resource.setrlimit(resource.RLIMIT_AS, (CAP, CAP)))
             if case.capped else None)
    # src first, then the caller's path: the pin dump imports pytest, which
    # may be importable only through it
    path = (str(ROOT / "src"),
            *os.environ.get("PYTHONPATH", "").split(os.pathsep))
    with subprocess.Popen(
            (*case.command, *argv), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path,
            start_new_session=True, preexec_fn=limit,
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join(filter(None, path)),
                 "PYTHONDONTWRITEBYTECODE": "",
                 "PYTHONPYCACHEPREFIX": str(tmp_path.parent / "pycache"),
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
    assert fits(out, case.stdout) and fits(err, case.stderr), shown
    return out


def run(command: str, *stdout, code: int = cli.EXIT_OK, **kw) -> Case:
    """``dcpebble`` with the words of ``command``, printing ``stdout``."""
    return Case(tuple(command.split()), (code,), stdout=stdout, **kw)


def refuse(command: str, message: str, usage: bool = False, **kw) -> Case:
    """``dcpebble`` with the words of ``command``, exiting 64 with only
    ``error: message`` on stderr, after argparse's usage if ``usage``."""
    return Case(tuple(command.split()), (cli.EXIT_USAGE,), **kw,
                stderr=(...,) * usage + (f"error: {message}",))


def oracle(family: str, pebbles: int, *stdout, flags: str = "", **kw) -> Case:
    """``solve oracle`` on ``dcpebble family <family>``, all pebbles on 0."""
    config = f"{pebbles}" + ",0" * (int(family.split()[-1]) - 1)
    return run(f"solve oracle --config {config} {flags}", *stdout,
               stdin=("family", *family.split()), **kw)


TOO_LARGE = "graph6 orders above 62 are not supported"
POSIX = (("LC_ALL", "POSIX"), ("PYTHONUTF8", "0"),  # an ASCII locale
         ("PYTHONCOERCECLOCALE", "0"))
UNREADABLE = ("'utf-8' codec can't decode byte 0xff in position 0: "
              "invalid start byte")
DEEP = ("bad certificate JSON: maximum recursion depth exceeded while "
        "decoding a JSON array from a unicode string")
SOLVED = "verdict: solvable (verified)"
UNKNOWN = "verdict: unknown (state budget exhausted)"
VALID = "valid: final configuration 1,2,0,0,0 meets domination"
CORPUS = [(ROOT / "src/dcpebble/data" / f"connected_{n}.g6").read_bytes()
          for n in range(1, 7)]
SWEEP4 = (  # `sweep --omega 1` of order 4's graphs: stdout, then stderr
    "graph,n,diameter,status,psi,psi_witness,lambda,lambda_brute,ratio,"
    "omega_1,check_psi_diameter_bound,check_psi_le_lambda,check_ratio_diam2,"
    "check_lambda_stacking_oracle,check_ratio_conjecture,"
    "check_subversion_diam2_omega_1,check_subversion_diam3_omega_1,"
    "violations,findings,seconds",
    'Cs,4,2,ok,3,"0,0,1,1",11,,11/3,1,true,true,true,,,true,,,,',
    'Ck,4,3,ok,5,"0,0,0,4",15,,3,2,true,true,,,true,,true,,,',
    'C{,4,2,ok,3,"0,1,1,0",11,,11/3,2,true,true,true,,,true,,,,',
    'C],4,2,ok,3,"0,0,0,2",9,,3,1,true,true,true,,,true,,,,',
    'C},4,2,ok,2,"0,0,0,1",9,,9/2,1,true,true,true,,,true,,,,',
    'C~,4,1,ok,1,"0,0,0,0",7,,7,1,true,true,true,,,true,,,,',
    "graphs: 6  unknown: 0  min lambda/psi: 3")
CASES = {
    "undecodable-stdin": refuse(
        "compute psi", f"cannot read stdin: {UNREADABLE}", stdin=b"\xff\xfe\n"),
    "edge-list-100000": refuse("compute psi --graph path100000.el", TOO_LARGE,
                               capped=True),
    **{f"family-{kind}-{n}-{fmt}": refuse(
        f"family {kind} {n} --format {fmt}", TOO_LARGE, capped=True)
       for kind, n in (("path", "100000000"), ("binary-tree", "1000000000000"),
                       ("binary-tree", "40")) for fmt in ("g6", "edgelist")},
    "sweep-cross-check": run(
        "sweep --omega 1,2 --cross-check-lambda", ..., code=cli.EXIT_FINDING,
        stdin=b"".join(CORPUS), stderr=(
            "graphs: 143  unknown: 0  min lambda/psi: 1",
            "finding subversion_diam3_omega_1 on ELq?")),
    # That finding's Omega_1 witness, which the record does not carry, and
    # its replay (README "Exit codes").
    "compute-omega-finding": run(
        "compute omega --omega 1", "omega_1 = 6", "witness = 0,0,0,0,0,5",
        "configurations checked = 62", stdin=b"ELq?\n"),
    "oracle-omega-finding": run(
        "solve oracle --goal subversion --omega 1 --config 0,0,0,0,0,5",
        "states explored = 1", "verdict: unsolvable", stdin=b"ELq?\n"),
    "compute-psi-path-8": run(
        "compute psi", "psi = 73", "witness = 0,0,0,0,0,0,0,72",
        "configurations checked = 10443", stdin=("family", "path", "8")),
    "compute-psi-path-8-budget": run(
        "compute psi --budget 10442",
        "psi >= 20 (budget exhausted; value is a lower bound)",
        "witness = 0,0,0,0,0,0,0,19", "configurations checked = 10443",
        stdin=("family", "path", "8"), code=cli.EXIT_BUDGET),
    # Without its box, this scan examines 189,093,066 candidates, not
    # 943,273: the timeout checks that the box scan stays engaged.
    "compute-psi-path-10": run(
        "compute psi", "psi = 293", ..., stdin=("family", "path", "10"),
        timeout=10.0),
    "oracle-path-12": oracle("path 12", 500, ..., "verdict: unsolvable"),
    "oracle-path-10": oracle("path 10", 300, ..., SOLVED, timeout=10.0),
    "oracle-cycle-15": oracle("cycle 15", 250, ..., UNKNOWN,
                              flags="--budget 500000", code=cli.EXIT_BUDGET),
    "oracle-path-62": replace(
        oracle("path 62", 62, ..., flags="--budget 1000", timeout=10.0),
        codes=(cli.EXIT_OK, cli.EXIT_BUDGET)),
    "oracle-omega-past-order": oracle(
        "path 4", 3, ..., SOLVED, timeout=10.0,
        flags="--goal subversion --omega 99999999999999999999"),
    "pins-dump-diamd": Case(
        (str(ROOT / "tests/pins.py"), "diamd", "path 10"), (cli.EXIT_OK,),
        command=PYTHON, stdout=(
            "state (91, 93, 99, 105, 97, 108, 103, 115, 114, 100) "
            "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9] [] [] [] 0 0",
            "cert IhCGGC@?G True (91, 93, 99, 105, 97, 108, 103, 115, 114, "
            "100) ()", ...)),
    "compute-psi-star-5": run("compute psi --graph star5.el", "psi = 4",
                              "witness = 0,0,1,1,1", ...),
    **{f"compute-psi-{flag}": run(
        f"compute psi --{flag} {n} --graph star5.el",
        f"psi >= {psi} ({reason}; value is a lower bound)", ...,
        code=cli.EXIT_BUDGET) for flag, n, psi, reason in (
            ("cap", 2, 3, "size cap reached"),
            ("budget", 3, 1, "budget exhausted"))},
    "compute-omega-wheel-6": run("compute omega --omega 1 --graph w6.g6",
                                 "omega_1 = 3", ...),
    **{f"compute-lambda{flag}": run(f"compute lambda {flag}", "lambda = 7",
                                    ..., stdin=b"Bg\n")
       for flag in ("", "--brute")},
    "solve-oracle": run(
        "solve oracle --config 5,0,0,0 --graph p4.el", "states explored = 4",
        '{"initial": [5, 0, 0, 0], "moves": [[0, 1], [0, 1], [1, 2]]}',
        "moves = 3", SOLVED),
    **{f"solve-{name}": run(f"solve {command}", ..., SOLVED)
       for name, command in (
           ("oracle-cover", "oracle --config 3,0,1,1 --graph p4.el "
                            "--goal cover"),
           ("oracle-subversion", "oracle --config 5,0,0,0 --graph p4.el "
                                 "--goal subversion --omega 1"),
           ("spread", "spread --config 3,0,0,0,0 --graph k5.g6"),
           ("diamd", "diamd --config 5,0,0,0 --graph p4.el"),
           ("diamd-skip-invariants", "diamd --config 5,0,0,0 --graph p4.el "
                                     "--skip-invariants"),
           ("subversion", "subversion --omega 1 --config 0,1,1,1,0 "
                          "--graph star5.el"))},
    "solve-oracle-unsolvable": run(
        "solve oracle --config 0,1,1,1,0 --graph star5.el", ...,
        "verdict: unsolvable"),
    # Unsolvable, but not at the root.
    "solve-oracle-budget-2": run(
        "solve oracle --config 4,0,0,0,0,1 --graph p6.el --budget 2", ...,
        UNKNOWN, code=cli.EXIT_BUDGET),
    "solve-oracle-budget-0": run(
        "solve oracle --config 0,1,1,1,0 --graph star5.el --budget 0", ...,
        UNKNOWN, code=cli.EXIT_BUDGET),
    "solve-diam2": run("solve diam2 --config 0,4,0,0,0 --graph star5.el",
                       CERT, ...),
    "solve-precondition": run(
        "solve diam2 --config 5,0,0,0 --graph p4.el", stderr=(
            "precondition failed: graph has diameter 3, needs at most 2",),
        code=cli.EXIT_PRECONDITION),
    # The certificate `solve diam2` printed, from a file and from stdin.
    "verify-file": run("verify --certificate cert.json --graph star5.el",
                       VALID),
    "verify-stdin": run("verify --certificate - --graph star5.el", VALID,
                        stdin=CERT.encode()),
    # Legal but dominating only the leaf's edge; step 0 from an empty vertex.
    **{f"verify-{reason.replace(' ', '-')}": run(
        "verify --certificate - --graph star5.el", f"invalid: {reason}",
        code=cli.EXIT_ERROR, stdin=b'{"initial": [0, 4, 0, 0, 0], "moves": '
        + moves + b"}") for moves, reason in (
            (b"[]", "goal-not-met"),
            (b"[[0, 2], [1, 0]]", "illegal move at step 0"))},
    **{f"{name}-without-omega-{graph[:-3]}": refuse(
        f"{command} --graph {graph}", "--omega is missing: "
        f"{'omega' if name == 'compute' else 'subversion'!r} needs it")
       for graph, config in (("star5.el", "0,4,0,0,0"), ("k2.g6", "1,0"))
       for name, command in (
           ("compute", "compute omega"),
           ("oracle", f"solve oracle --goal subversion --config {config}"),
           ("subversion", f"solve subversion --config {config}"),
           ("verify", "verify --goal subversion --certificate cert.json"))},
    "bad-edge-list": refuse("compute psi --graph bad.el",
                            "edge-list header must be 'n m', got 'garbage'"),
    **{f"{command.split()[0]}-{name}": refuse(
        f"{command} {name}",
        f"cannot read {name}: [Errno 2] No such file or directory: '{name}'")
       for command, name in (("compute psi --graph", "missing.el"),
                             ("verify --graph k2.g6 --certificate",
                              "none.json"))},
    "sweep-bogus": refuse("sweep --bogus --graph k2.g6",
                          "unrecognized arguments: --bogus", usage=True),
    **{f"{command.split()[0]}-{flag}-{value}": refuse(
        f"{command} --{flag} {value} --graph k2.g6",
        f"argument --{flag}: expected a non-negative integer, got '{value}'",
        usage=True) for command, flag, value in (
            ("compute omega", "omega", "-1"), ("compute psi", "cap", "-1"),
            ("compute psi", "budget", "-5"), ("sweep", "omega", "a"),
            ("sweep", "jobs", "-3"),
            ("family random --order 4", "count", "-2"))},
    "two-graphs": refuse("compute psi", "expected exactly one graph, got 2 "
                         "(use sweep for streams)", stdin=b"A_\nA_\n"),
    "no-graph": refuse("compute psi",
                       "no graph input on stdin and no --graph given"),
    # Hostile input: bytes that are not UTF-8 in a file, certificate JSON
    # nested deeper than the parser's recursion limit (in a file and on
    # stdin), and an order far too large to allocate.
    **{f"undecodable-{name}": refuse(
        f"{command} {name}", f"cannot read {name}: {UNREADABLE}",
        env=(("PYTHONUTF8", "1"),)) for command, name in (
            ("compute psi --graph", "latin1.g6"),
            ("compute psi --graph", "latin1.el"),
            ("verify --graph k2.g6 --certificate", "latin1.json"))},
    # Files and stdin are read as UTF-8 under any locale.
    "undecodable-file-posix-locale": refuse(
        "compute psi --graph latin1.el", f"cannot read latin1.el: {UNREADABLE}",
        env=POSIX),
    "undecodable-stdin-posix-locale": refuse(
        "compute psi", f"cannot read stdin: {UNREADABLE}", stdin=b"\xff\xfe\n",
        env=POSIX),
    "deep-certificate-file": refuse(
        "verify --certificate deep.json --graph k2.g6", DEEP),
    "deep-certificate-stdin": refuse("verify --certificate - --graph k2.g6",
                                     DEEP, stdin=FILES["deep.json"]),
    "huge-edge-list": refuse("compute psi --graph huge.el", TOO_LARGE),
    "family-wheel-6": run("family wheel 6", "F|eMG"),
    "family-binary-tree-4": run(
        "family binary-tree 4", "^qO`?_OA?O?_@??_?O?A??O??_?@???_??O??A???O"
        "???_??@????_???O???A????O????_???@???"),
    "family-star-5-edgelist": run("family star 5 --format edgelist", "5 4",
                                  *(f"0 {v}" for v in range(1, 5)), ""),
    "family-binary-tree-4-edgelist": run(
        "family binary-tree 4 --format edgelist", "31 30",
        *(f"{(v - 1) // 2} {v}" for v in range(1, 31)), ""),
    # Two runs, the same two graphs: of order 6, of diameter 4 and 3.
    **{f"family-random-seed-5{again}": run(
        "family random --order 6 --count 2 --diameter 3:4 --seed 5", "E?lo",
        "E\\_O") for again in ("", "-again")},
    **{"-".join(("family", *params.replace("--", "").split())): refuse(
        f"family {params}", message)
       for params, message in (
           ("binary-tree 0", "binary tree needs height >= 1"),
           ("binary-tree -5", "binary tree needs height >= 1"),
           ("path", "wrong parameter count for family 'path': ()"),
           ("star 1", "star needs at least 2 vertices"),
           ("random", "family random requires --order"),
           ("random --order 0", "need order >= 2"),
           ("random --order 5 --diameter x",
            "invalid literal for int() with base 10: 'x'"),
           ("random --order 3 --diameter 5",
            "no graph of order 3 has diameter in 5..5"),
           ("random --order 3 --diameter 2:1",
            "no graph of order 3 has diameter in 2..1"),
           ("random --order 4 --diameter 2:3:9",
            "invalid literal for int() with base 10: '3:9'"),
           ("random --order 4 --diameter 2:",
            "invalid literal for int() with base 10: ''"))},
    # One worker or two, the same report.
    **{"-".join(("sweep-order-4", *jobs.replace("--", "").split())): run(
        f"sweep --omega 1 {jobs}", *SWEEP4[:-1], stdin=CORPUS[3],
        stderr=SWEEP4[-1:]) for jobs in ("", "--jobs 2")},
}


@pytest.mark.parametrize("name", CASES)
def test_cli_contract(name, tmp_path):
    check(CASES[name], tmp_path)


# The repo's scripts under the same rules, each with a line its stdout
# must hold.
SCRIPTS = {
    "demos/01_moves_and_goals.py": "  satisfies domination: True",
    "demos/02_exact_numbers.py":
        "  psi(star order 7) = 6  witness 0,0,1,1,1,1,1",
    "demos/03_certificate_solvers.py": "  70/70 certificates verified",
    "demos/04_extremal_constructions.py":
        "  m=3: order 8, psi = 13 in [12, 13], witness unsolvable: True, "
        "lambda = 39, ratio = 3",
    "demos/05_bound_sweep.py": "      Ck  4    3    5     15      3       2",
    "perfbench/selftest.py": "selftest passed"}


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_runs(script, tmp_path):
    check(Case((str(ROOT / script),), (cli.EXIT_OK,), PYTHON,
               stdout=(..., SCRIPTS[script], ...)), tmp_path)


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
             stdout=("line", ...))


@pytest.mark.parametrize("code", (
    "print('line'); raise SystemExit(3)", "print('line'); print('Traceback')",
    "import sys; print('line'); sys.stderr.write('Traceback')",
    "print('lines')", "print(); print('line')"))
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
    # The grandchild dies with its session: soon it is gone, or a zombie
    # that its new parent has yet to reap.  Its pipes reach EOF before the
    # kernel marks it a zombie, so its state is polled up to a deadline.
    stat = Path(f"/proc/{pid.read_text()}/stat")
    deadline = time.monotonic() + 5
    while True:
        try:
            state = stat.read_text().rsplit(") ", 1)[1][0]
        except (FileNotFoundError, ProcessLookupError):
            state = "X"
        if state in "ZX":
            break
        assert time.monotonic() < deadline, f"grandchild in state {state}"
        time.sleep(0.01)
