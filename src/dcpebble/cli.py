"""Command-line interface.

Subcommands: compute, solve, verify, sweep, family.  Graphs come from
``--graph FILE`` (graph6 for ``.g6`` files, edge-list text otherwise) or as
graph6 lines on standard input.

Exit codes: 0 success; 1 unexpected error or failed verification; 2 sweep
found a proven-bound violation (suite failure); 3 sweep found a conjecture
violation only (a finding); 64 unusable input, bad flags included; 65
solver precondition not met; 75 budget or size cap exhausted before a
decision.
"""

from __future__ import annotations

import argparse
import random
import sys
from contextlib import nullcontext
from pathlib import Path

from .constructive import (
    PreconditionError,
    solve_diameter2,
    solve_diameter_d,
    solve_subversion_diameter2,
    spread_diameter2,
    verify_certificate,
)
from .families import (
    FAMILY_KINDS,
    FamilySpec,
    generate,
    random_connected_graph,
)
from .graphs import (
    Graph,
    GraphError,
    build_graph,
    check_graph6_order,
    emit_edge_list,
    emit_graph6,
    parse_graph6,
    read_edge_list,
)
from .harness import (
    EXIT_FINDING,
    EXIT_VIOLATION,
    emit_csv,
    emit_json,
    print_summary,
    run_sweep,
    sweep_exit_code,
)
from .pebbling import (
    DOMINATION,
    FULL_COVER,
    Certificate,
    Goal,
    PebblingError,
    format_configuration,
    parse_configuration,
    subversion,
)
from .solver import (
    DEFAULT_STATE_BUDGET,
    is_solvable,
    lambda_stacking,
    pebbling_value,
)

# EXIT_VIOLATION (2) and EXIT_FINDING (3) are the harness's, imported above.
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 64
EXIT_PRECONDITION = 65
EXIT_BUDGET = 75


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _read(path: str | None) -> str:
    """Text of the file ``path``, or of stdin when None, decoded as UTF-8
    whatever the locale: the one reader."""
    try:
        return (sys.stdin.buffer.read().decode("utf-8") if path is None
                else Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(
            f"cannot read {'stdin' if path is None else path}: {exc}") from exc


def _read_graph_lines(args) -> list[str]:
    text = _read(args.graph or None)
    if args.graph and Path(args.graph).suffix != ".g6":
        n, edges = read_edge_list(text)
        check_graph6_order(n)  # before any per-vertex table is built
        return [emit_graph6(build_graph(n, edges))]
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines and not args.graph:
        raise CliError("no graph input on stdin and no --graph given")
    return lines


def _single_graph(args) -> Graph:
    lines = _read_graph_lines(args)
    if len(lines) != 1:
        raise CliError(
            f"expected exactly one graph, got {len(lines)} (use sweep for streams)")
    return parse_graph6(lines[0])


# compute's quantities, solve's algorithms and the --goal of solve and
# verify; every other word names subversion(--omega).
_GOALS = {"psi": DOMINATION, "dcp": DOMINATION, "diam2": DOMINATION,
          "spread": DOMINATION, "diamd": DOMINATION,
          "lambda": FULL_COVER, "cover": FULL_COVER}


def _goal(word: str, omega: int | None) -> Goal:
    if word in _GOALS:
        return _GOALS[word]
    if omega is None:
        raise CliError(f"--omega is missing: {word!r} needs it")
    return subversion(omega)


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def _cmd_compute(args) -> int:
    goal = _goal(args.quantity, args.omega)
    g = _single_graph(args)
    if args.quantity == "lambda" and not args.brute:
        report = lambda_stacking(g)
    else:
        report = pebbling_value(g, goal, cap=args.cap, budget=args.budget)

    name = f"omega_{args.omega}" if args.quantity == "omega" else args.quantity
    if report.status == "exact":
        print(f"{name} = {report.value}")
    else:
        reason = "budget exhausted" if report.status == "budget" else "size cap reached"
        print(f"{name} >= {report.value} ({reason}; value is a lower bound)")
    if report.witness is not None:
        print(f"witness = {format_configuration(report.witness)}")
    print(f"configurations checked = {report.checked}")
    return EXIT_OK if report.status == "exact" else EXIT_BUDGET


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    oracle = args.algorithm == "oracle"
    goal = _goal(args.goal if oracle else args.algorithm, args.omega)
    g = _single_graph(args)
    config = parse_configuration(args.config)  # every solver gates it

    if oracle:
        result = is_solvable(g, config, goal, budget=args.budget)
        print(f"states explored = {result.states_explored}")
        if result.unknown:
            print("verdict: unknown (state budget exhausted)")
            return EXIT_BUDGET
        if not result.solvable:
            print("verdict: unsolvable")
            return EXIT_OK
        cert = result.certificate
    elif args.algorithm == "diam2":
        cert = solve_diameter2(g, config)
    elif args.algorithm == "spread":
        cert = spread_diameter2(g, config)
    elif args.algorithm == "diamd":
        cert = solve_diameter_d(
            g, config, check_invariants=not args.skip_invariants)
    else:
        cert = solve_subversion_diameter2(g, config, args.omega)

    verdict = verify_certificate(g, cert, goal)
    print(cert.to_json())
    print(f"moves = {len(cert.moves)}")
    print(f"verdict: solvable ({'verified' if verdict.ok else 'VERIFIER REJECTED'})")
    return EXIT_OK if verdict.ok else EXIT_ERROR


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    goal = _goal(args.goal, args.omega)
    g = _single_graph(args)
    cert = Certificate.from_json(
        _read(None if args.certificate == "-" else args.certificate))
    result = verify_certificate(g, cert, goal)
    if result.ok:
        print(f"valid: final configuration "
              f"{format_configuration(result.final)} meets {goal.describe()}")
        return EXIT_OK
    if result.failed_step is not None:
        print(f"invalid: illegal move at step {result.failed_step}")
    else:
        print(f"invalid: {result.reason}")
    return EXIT_ERROR


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _cmd_sweep(args) -> int:
    lines = _read_graph_lines(args)
    omegas = args.omega
    # Open --out before the sweep, so an unwritable path fails at once.
    try:
        out = open(args.out, "w") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}") from exc
    with out as fh:
        records, summary = run_sweep(
            lines, omegas=omegas, budget=args.budget,
            cross_check_lambda=args.cross_check_lambda,
            jobs=args.jobs, timing=args.timing)
        if args.format == "json":
            text = emit_json(records, summary, omegas)
        else:
            text = emit_csv(records, omegas)
        if not args.out and not text.endswith("\n"):
            text += "\n"
        fh.write(text)
    print_summary(summary)
    return sweep_exit_code(summary)


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------

def _cmd_family(args) -> int:
    random_kind = args.kind == "random"
    if random_kind and args.order is None:
        raise CliError("family random requires --order")
    spec = FamilySpec(args.kind, tuple(args.params))
    try:
        # No command reads a larger graph: refused before any is built.
        check_graph6_order(args.order if random_kind else spec.order)
        if random_kind:
            rng = random.Random(args.seed)
            dia = None
            if args.diameter:
                # "2:3:9" leaves "3:9" for HI, which int() refuses.
                lo, sep, hi = args.diameter.partition(":")
                dia = (int(lo), int(hi if sep else lo))
            graphs = [random_connected_graph(args.order, rng,
                                             diameter_range=dia)
                      for _ in range(args.count)]
        else:
            graphs = [generate(spec)]
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    except RuntimeError as exc:  # sampling gave up on a reachable range
        raise CliError(str(exc), EXIT_BUDGET) from exc
    for g in graphs:
        print(emit_edge_list(g) if args.format == "edgelist"
              else emit_graph6(g))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 64 like every other unusable input (argparse's
    own code 2 is sweep's "proven bound violated")."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _non_negative(text: str) -> int:
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a non-negative integer, got {text!r}")


def _non_negative_list(text: str) -> tuple[int, ...]:
    return tuple(_non_negative(tok) for tok in text.split(",")) if text else ()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dcpebble",
        description="Exact domination cover pebbling computations, "
                    "constructive solvers with certificates, and bound sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_opt(p):
        p.add_argument("--graph", metavar="FILE",
                       help="graph file (.g6 graph6, otherwise edge list); "
                            "default: graph6 lines on stdin")

    p = sub.add_parser("compute", help="exact pebbling value of one graph")
    p.add_argument("quantity", choices=["psi", "lambda", "omega"])
    add_graph_opt(p)
    p.add_argument("--omega", type=_non_negative,
                   help="omega for the subversion number")
    p.add_argument("--budget", type=_non_negative,
                   help="max candidate configurations the value scan "
                        "enumerates before giving up")
    p.add_argument("--cap", type=_non_negative,
                   help="size cap for the ascending scan (default: proven bound)")
    p.add_argument("--brute", action="store_true",
                   help="compute lambda by brute force instead of stacking")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("solve", help="solve one configuration, emit certificate")
    p.add_argument("algorithm",
                   choices=["oracle", "diam2", "spread", "diamd", "subversion"])
    p.add_argument("--config", required=True,
                   help="comma-separated pebble counts, e.g. 5,0,0,0")
    add_graph_opt(p)
    p.add_argument("--goal", choices=["dcp", "cover", "subversion"],
                   default="dcp", help="goal for the oracle (default dcp)")
    p.add_argument("--omega", type=_non_negative)
    p.add_argument("--budget", type=_non_negative,
                   default=DEFAULT_STATE_BUDGET,
                   help="oracle state budget (default 10^7); a stored "
                   "state takes about 82-104 bytes, so the default can "
                   "need about 0.8-1.0 GB")
    p.add_argument("--skip-invariants", action="store_true",
                   help="disable the diameter-d solver's invariant checks")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="replay and check a certificate")
    p.add_argument("--certificate", required=True, metavar="FILE",
                   help="certificate JSON file, or - for stdin")
    add_graph_opt(p)
    p.add_argument("--goal", choices=["dcp", "cover", "subversion"],
                   default="dcp")
    p.add_argument("--omega", type=_non_negative)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="verify bounds over a graph6 stream")
    add_graph_opt(p)
    p.add_argument("--omega", metavar="LIST", type=_non_negative_list,
                   default=(),
                   help="comma-separated omegas to evaluate, e.g. 1,2")
    p.add_argument("--budget", type=_non_negative,
                   help="per-scan budget of candidate configurations "
                        "enumerated; exhaustion marks the record unknown")
    p.add_argument("--jobs", type=_non_negative, default=1, metavar="N",
                   help="at most N workers, never more than the CPUs or graphs")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", metavar="FILE", help="write report here instead of stdout")
    p.add_argument("--cross-check-lambda", action="store_true",
                   help="also brute-force lambda and compare with stacking")
    p.add_argument("--timing", action="store_true",
                   help="include per-graph wall-clock seconds (non-deterministic)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("family", help="emit a named family graph")
    p.add_argument("kind", choices=list(FAMILY_KINDS) + ["random"])
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--format", choices=["g6", "edgelist"], default="g6")
    p.add_argument("--order", type=int, help="order for random graphs")
    p.add_argument("--count", type=_non_negative, default=1)
    p.add_argument("--diameter", metavar="LO[:HI]",
                   help="diameter constraint for random graphs")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_family)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (GraphError, PebblingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
