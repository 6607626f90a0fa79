"""Batch verification: run the oracles over graph streams, check every
proven bound, test the conjectures, and emit machine-readable reports.

Proven bounds that fail are suite failures; conjecture violations are
findings: a counterexample is a success of the tool, so the two are kept
apart all the way to the exit code.  Per-graph budget exhaustion yields an
"unknown" record, never a pass or a fail.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .families import psi_upper_bound, subversion_bounds
from .graphs import parse_graph6
from .pebbling import DOMINATION, FULL_COVER, format_configuration, subversion
from .solver import lambda_stacking, pebbling_value, pebbling_values

THEOREM_CHECKS = ("psi_diameter_bound", "psi_le_lambda", "ratio_diam2",
                  "lambda_stacking_oracle")
CONJECTURE_CHECKS = ("ratio_conjecture",)


@dataclass
class SweepRecord:
    """Everything computed for one graph of a sweep.

    ``checks`` maps check name to True/False/None (None: not applicable or
    not decided); names of failed theorem checks land in ``violations``,
    failed conjecture checks in ``findings``.  ``ratio`` is the exact
    rational lambda/psi as a reduced ``num/den`` string.
    """

    graph_id: str
    n: int
    diameter: int
    status: str = "ok"  # "ok" | "unknown"
    psi: int | None = None
    psi_witness: str | None = None
    lam: int | None = None
    lam_brute: int | None = None
    omega_values: dict[int, int | None] = field(default_factory=dict)
    ratio: str | None = None
    checks: dict[str, bool | None] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)
    seconds: float | None = None

    def flat(self, omegas: tuple[int, ...]) -> dict:
        row: dict = {
            "graph": self.graph_id,
            "n": self.n,
            "diameter": self.diameter,
            "status": self.status,
            "psi": self.psi,
            "psi_witness": self.psi_witness,
            "lambda": self.lam,
            "lambda_brute": self.lam_brute,
            "ratio": self.ratio,
        }
        for k in omegas:
            row[f"omega_{k}"] = self.omega_values.get(k)
        for name in THEOREM_CHECKS + CONJECTURE_CHECKS:
            row[f"check_{name}"] = self.checks.get(name)
        for k in omegas:
            row[f"check_subversion_diam2_omega_{k}"] = self.checks.get(
                f"subversion_diam2_omega_{k}")
            row[f"check_subversion_diam3_omega_{k}"] = self.checks.get(
                f"subversion_diam3_omega_{k}")
        row["violations"] = ";".join(self.violations)
        row["findings"] = ";".join(self.findings)
        row["seconds"] = self.seconds
        return row


def sweep_columns(omegas: tuple[int, ...]) -> list[str]:
    return list(SweepRecord("", 0, 0).flat(omegas))


def _record_check(rec: SweepRecord, name: str, ok: bool | None,
                  conjecture: bool = False) -> None:
    rec.checks[name] = ok
    if ok is False:
        (rec.findings if conjecture else rec.violations).append(name)


def analyze_graph(line: str, omegas: tuple[int, ...] = (),
                  budget: int | None = None,
                  cross_check_lambda: bool = False,
                  timing: bool = False) -> SweepRecord:
    """Compute one sweep record: exact values plus every applicable bound
    and conjecture check."""
    start = time.perf_counter() if timing else None
    g = parse_graph6(line)
    rec = SweepRecord(line, g.n, g.diameter)

    lam_report = lambda_stacking(g)
    rec.lam = lam_report.value

    psi_report, *omega_reports = pebbling_values(
        g, (DOMINATION, *map(subversion, omegas)), budget=budget)
    if psi_report.status == "budget":
        rec.status = "unknown"
    else:
        rec.psi = psi_report.value
        if psi_report.witness is not None:
            rec.psi_witness = format_configuration(psi_report.witness)

    if rec.psi is not None:
        if g.n >= 2:
            _record_check(rec, "psi_diameter_bound",
                          psi_report.status == "exact"
                          and rec.psi <= psi_upper_bound(g.n, g.diameter))
        _record_check(rec, "psi_le_lambda", rec.psi <= rec.lam)
        ratio = Fraction(rec.lam, rec.psi)
        rec.ratio = str(ratio)
        if g.n >= 2:
            ratio_ok = ratio >= 3
            if g.diameter <= 2:
                _record_check(rec, "ratio_diam2", ratio_ok)
            else:
                _record_check(rec, "ratio_conjecture", ratio_ok,
                              conjecture=True)

    if cross_check_lambda:
        brute = pebbling_value(g, FULL_COVER, budget=budget)
        if brute.status == "budget":
            rec.status = "unknown"
        else:
            rec.lam_brute = brute.value
            _record_check(rec, "lambda_stacking_oracle",
                          brute.status == "exact" and brute.value == rec.lam)

    for k, report in zip(omegas, omega_reports):
        if report.status == "budget":
            rec.status = "unknown"
            rec.omega_values[k] = None
            continue
        rec.omega_values[k] = report.value
        if 1 <= k <= g.n - 2:
            proven, conjectured = subversion_bounds(g.n, k)
            if g.diameter <= 2:
                _record_check(rec, f"subversion_diam2_omega_{k}",
                              report.status == "exact"
                              and report.value <= proven)
            elif g.diameter == 3 and conjectured is not None:
                _record_check(rec, f"subversion_diam3_omega_{k}",
                              report.status == "exact"
                              and report.value <= conjectured,
                              conjecture=True)

    if timing:
        rec.seconds = round(time.perf_counter() - start, 6)
    return rec


def run_sweep(lines: list[str], omegas: tuple[int, ...] = (),
              budget: int | None = None, cross_check_lambda: bool = False,
              jobs: int = 1, timing: bool = False
              ) -> tuple[list[SweepRecord], dict]:
    """Analyze every graph6 line; records come back in input order
    regardless of ``jobs``.  A pool starts all its workers at once, so at
    most ``jobs`` run, never more than the CPUs or the graphs."""
    analyze = partial(analyze_graph, omegas=omegas, budget=budget,
                      cross_check_lambda=cross_check_lambda, timing=timing)
    workers = min(jobs, len(lines), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: the process-pool machinery costs about 3 MB of
        # memory, which a one-process sweep never uses.
        from concurrent.futures import ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                records = list(pool.map(analyze, lines, chunksize=4))
        except OSError:  # restricted environments without process pools
            records = list(map(analyze, lines))
    else:
        records = list(map(analyze, lines))

    violations = [{"graph": r.graph_id, "check": name}
                  for r in records for name in r.violations]
    findings = [{"graph": r.graph_id, "check": name}
                for r in records for name in r.findings]
    ratios = [Fraction(r.lam, r.psi) for r in records if r.psi is not None]
    summary = {
        "graphs": len(records),
        "unknown": sum(1 for r in records if r.status == "unknown"),
        "min_ratio": str(min(ratios)) if ratios else None,
        "violations": violations,
        "findings": findings,
    }
    return records, summary


# A sweep's exit codes when it finds something; the CLI's too.
EXIT_VIOLATION = 2
EXIT_FINDING = 3


def sweep_exit_code(summary: dict) -> int:
    """0 clean, EXIT_VIOLATION (2) on any proven-bound violation (suite
    failure), EXIT_FINDING (3) on a conjecture violation only (a
    finding)."""
    if summary["violations"]:
        return EXIT_VIOLATION
    if summary["findings"]:
        return EXIT_FINDING
    return 0


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def emit_csv(records: list[SweepRecord], omegas: tuple[int, ...]) -> str:
    cols = sweep_columns(omegas)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(cols)
    for rec in records:
        row = rec.flat(omegas)
        writer.writerow([_cell(row[c]) for c in cols])
    return buf.getvalue()


def emit_json(records: list[SweepRecord], summary: dict,
              omegas: tuple[int, ...]) -> str:
    return json.dumps(
        {"records": [rec.flat(omegas) for rec in records],
         "summary": summary},
        indent=2)


def print_summary(summary: dict, stream=None) -> None:
    stream = stream or sys.stderr
    print(f"graphs: {summary['graphs']}  unknown: {summary['unknown']}  "
          f"min lambda/psi: {summary['min_ratio']}", file=stream)
    for item in summary["violations"]:
        print(f"BOUND VIOLATION {item['check']} on {item['graph']}",
              file=stream)
    for item in summary["findings"]:
        print(f"finding {item['check']} on {item['graph']}", file=stream)
