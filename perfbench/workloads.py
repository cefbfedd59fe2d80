"""The benchmark's workloads, their per-operation checks and trace targets.

Each workload object has ``setup()`` (untimed input preparation),
``run_op(index)`` (one operation, returning its timed seconds and a record)
and ``check(record)`` (the correctness checks of that operation, returning a
list of failures).  ``span`` is replaced by the tracer's span factory in the
traced run.
"""
from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import random
import shlex
import statistics
import sys
import time
from pathlib import Path

from nfvlight import approx, cli, delays, exact, optmodel, oracle
from nfvlight.scenario import (
    builtin_topology,
    motivation_scenario,
    permutation_scenario,
    save_scenario,
)

PERMUTATIONS = 120  # capacity permutations of a six-vertex family: 6 * 5 * 4
TOL = 1e-9
APPROX_BOUND = 0.01
# Joint optima frozen by tests/test_acceptance.py and the README.
FROZEN_JOINT = {"motivation": 1.427450980392157, "path6-perm000": 2.2546099290780144}

# per-layer time metric -> span whose self time it reports
LAYER_SPANS = {
    "scenario.load_s": "scenario.load",
    "exact.build_miqcp_s": "exact.build_miqcp",
    "approx.build_milp_s": "approx.build_milp",
    "optmodel.emit_lp_s": "optmodel.emit_lp",
    "optmodel.emit_mps_s": "optmodel.emit_mps",
    "optmodel.parse_solution_s": "optmodel.parse_solution",
    "delays.validate_s": "delays.validate",
    "oracle.solve_exhaustive_s": "oracle.solve_exhaustive",
    "oracle.as_assignment_s": "oracle.as_assignment",
    "cli.adapter_s": "cli.solve",
    "cli.experiment_self_s": "cli.experiment",
}
# size counters the trace targets below report
COUNTS = (
    "exact.bilinear_terms", "exact.miqcp_vars", "exact.miqcp_rows",
    "approx.milp_vars", "approx.milp_rows", "approx.milp_nonzeros", "approx.sos2_sets",
    "optmodel.model_bytes", "delays.violations", "oracle.leaves",
)


class _Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.span = contextlib.nullcontext  # the traced run swaps in Tracer.span

    def detail(self) -> dict:
        return {}


class CertifyPath6(_Workload):
    """Body of the 120-permutation certification gate, on a seeded order.

    One operation certifies one permutation: the oracle in joint and fixed
    mode, then for each mode ``build_miqcp``, ``as_assignment`` and
    ``validate``.
    """

    name = "certify-path6"

    def setup(self):
        sub = builtin_topology("path6")
        self.scenarios = [
            permutation_scenario(sub, i, topology_name="path6") for i in range(PERMUTATIONS)
        ]
        self.order = self.rng.sample(range(PERMUTATIONS), PERMUTATIONS)

    def run_op(self, index: int) -> tuple[float, dict]:
        scn = self.scenarios[self.order[index % PERMUTATIONS]]
        t0 = time.perf_counter()
        joint = oracle.solve_exhaustive(scn)
        fixed = oracle.solve_exhaustive(scn, fixed_topology=True)
        modes = {}
        for res, fixed_topology in ((joint, False), (fixed, True)):
            model = exact.build_miqcp(scn, fixed_topology)
            report = delays.validate(scn, model, oracle.as_assignment(res, scn, "miqcp"))
            modes[res.mode] = (res, report)
        return time.perf_counter() - t0, {"scenario": scn.name, "modes": modes}

    def check(self, record: dict) -> list[str]:
        errors = []
        for mode, (res, report) in record["modes"].items():
            errors += _check_certified(res, mode)
            errors += _check_report(report, mode)
            if not abs(res.lateness - report.max_exact_lateness) <= TOL:
                errors.append(f"{mode}: oracle lateness {res.lateness!r} != exact "
                              f"lateness {report.max_exact_lateness!r}")
        joint = record["modes"]["joint"][0].lateness
        fixed = record["modes"]["fixed"][0].lateness
        errors += _check_joint_wins(joint, fixed)
        frozen = FROZEN_JOINT.get(record["scenario"])
        if frozen is not None and joint != frozen:
            errors.append(f"joint optimum {joint!r} != frozen {frozen!r}")
        return [f"{record['scenario']}: {e}" for e in errors]


class OracleBarbell6(_Workload):
    """``nfvlight experiment`` on barbell6, in process, with no adapter.

    One operation is one ``experiment`` call on one seeded permutation, in
    joint and fixed mode: two CSV rows from the oracle fallback, no model.
    """

    name = "oracle-barbell6"

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.out = self.workdir / "cells.csv"
        self.order = self.rng.sample(range(PERMUTATIONS), PERMUTATIONS)
        self.cells = 0

    def run_op(self, index: int) -> tuple[float, dict]:
        perm = self.order[index % PERMUTATIONS]
        argv = ["experiment", "--topology", "barbell6", "--modes", "joint,fixed",
                "--workers", "1", "--permutations", str(perm), "--out", str(self.out)]
        stdout = io.StringIO()
        t0 = time.perf_counter()
        with self.span("cli.experiment"), contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        return time.perf_counter() - t0, {"perm": perm, "code": code, "stdout": stdout.getvalue()}

    def check(self, record: dict) -> list[str]:
        if record["code"] != 0:
            return [f"perm {record['perm']}: experiment exited {record['code']}"]
        with self.out.open(newline="") as fh:
            rows = {row["mode"]: row for row in csv.DictReader(fh)}
        self.cells += len(rows)
        summary = json.loads(record["stdout"])
        errors = []
        if sorted(rows) != ["fixed", "joint"] or summary["rows"] != 2 or summary["solved"] != 2:
            errors.append(f"expected a joint and a fixed row, got {summary}")
        for mode, row in rows.items():
            if row["status"] != "oracle_optimal":
                errors.append(f"{mode}: status {row['status']}")
        if not errors:
            errors += _check_joint_wins(float(rows["joint"]["lateness"]),
                                        float(rows["fixed"]["lateness"]))
        return [f"perm {record['perm']}: {e}" for e in errors]

    def detail(self) -> dict:
        return {"cells": self.cells}


_SOLVE_CASES = (
    # case, formulation, format
    ("perm0-milp-lp", "milp", "lp"),
    ("perm0-milp-mps", "milp", "mps"),
    ("perm0-miqcp-lp", "miqcp", "lp"),
)


class SolveReplay(_Workload):
    """``nfvlight solve`` round trips of path6 perm0 through the replay adapter.

    Set-up writes the scenario and, from the certified oracle answer, one
    dense solution per formulation that lists every model variable.  It also
    checks the oracle's motivation optimum.  One operation is one ``solve``
    round trip of each case, in a seeded order; the replay adapter copies the
    prepared solution back.
    """

    name = "solve-replay"

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        scn = permutation_scenario(builtin_topology("path6"), 0, topology_name="path6")
        self.scenario = self.workdir / "perm0.json"
        save_scenario(scn, self.scenario)
        answers = {}
        for problem in (scn, motivation_scenario()):
            res = oracle.solve_exhaustive(problem)
            errors = _check_certified(res, problem.name)
            if res.lateness != FROZEN_JOINT[problem.name]:
                errors.append(f"{problem.name}: joint optimum {res.lateness!r} is not frozen")
            if errors:
                raise RuntimeError("; ".join(errors))
            answers[problem.name] = res
        self.frozen = FROZEN_JOINT[scn.name]
        expected = json.loads((Path(__file__).parent / "expected.json").read_text())
        self.digests = expected["model_sha256"]
        for kind, build in (("milp", approx.build_milp), ("miqcp", exact.build_miqcp)):
            model = build(scn)
            values = oracle.as_assignment(answers[scn.name], scn, kind)
            lines = [f"# Objective value = {optmodel.objective_value(model, values)!r}"]
            lines += [f"{name} {values.get(name, 0.0)!r}" for name in sorted(model.variables)]
            (self.workdir / f"{kind}.sol").write_text("\n".join(lines) + "\n")
        adapter = Path(__file__).parent / "replay_adapter.py"
        self.adapter = f"{shlex.quote(sys.executable)} {shlex.quote(str(adapter))}"
        self.case_seconds = {case: [] for case, *_ in _SOLVE_CASES}
        self.model_bytes = {}

    def run_op(self, index: int) -> tuple[float, dict]:
        runs = []
        for case, kind, fmt in self.rng.sample(_SOLVE_CASES, len(_SOLVE_CASES)):
            base = self.workdir / case
            argv = ["solve", "--scenario", str(self.scenario),
                    "--formulation", kind, "--format", fmt,
                    "--adapter", f"{self.adapter} {{model}} {{solution}} "
                                 f"{shlex.quote(str(self.workdir / kind))}.sol",
                    "--keep-model", f"{base}.{fmt}", "--report-out", f"{base}.report.json"]
            stdout = io.StringIO()
            gc.collect()  # each round trip starts from the same heap, whatever ran before
            t0 = time.perf_counter()
            with self.span("cli.solve"), contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            runs.append((case, kind, fmt, time.perf_counter() - t0, code, stdout.getvalue()))
        return sum(run[3] for run in runs), {"runs": runs}

    def check(self, record: dict) -> list[str]:
        errors = []
        for case, kind, fmt, seconds, code, stdout in record["runs"]:
            self.case_seconds[case].append(seconds)
            errors += [f"{case}: {e}" for e in self._check_run(case, kind, fmt, code, stdout)]
        return errors

    def _check_run(self, case, kind, fmt, code, stdout) -> list[str]:
        if code != 0:
            return [f"solve exited {code}"]
        base = self.workdir / case
        model_file = Path(f"{base}.{fmt}")
        text = model_file.read_bytes()
        model_file.unlink()
        self.model_bytes[case] = len(text)
        errors = []
        digest = hashlib.sha256(text).hexdigest()
        if digest != self.digests[case]:
            errors.append(f"emitted model digest {digest} differs from expected.json")
        summary = json.loads(stdout)
        report = json.loads(Path(f"{base}.report.json").read_text())
        if summary["status"] != "parsed" or report["warnings"]:
            errors.append(f"solution not read back whole: {summary['status']} {report['warnings']}")
        if not summary["ok"] or summary["violations"]:
            errors.append(f"validation failed with {summary['violations']} violations")
        exact_lateness = summary["max_exact_lateness"]
        if exact_lateness is None or not abs(exact_lateness - self.frozen) <= TOL:
            errors.append(f"exact lateness {exact_lateness!r} != frozen optimum {self.frozen!r}")
        if kind == "milp" and not summary["approximation_error"] < APPROX_BOUND:
            errors.append(f"approximation error {summary['approximation_error']!r}")
        return errors

    def detail(self) -> dict:
        return {
            "solve_s_p50": {case: statistics.median(v) if v else None
                            for case, v in self.case_seconds.items()},
            "model_bytes": self.model_bytes,
        }


def _check_certified(res, label) -> list[str]:
    return [] if res.certificate["certified"] else [f"{label}: oracle answer not certified"]


def _check_report(report, label) -> list[str]:
    if report.ok and not report.violations:
        return []
    return [f"{label}: validation failed with {len(report.violations)} violations"]


def _check_joint_wins(joint: float, fixed: float) -> list[str]:
    if joint <= fixed + TOL:
        return []
    return [f"joint lateness {joint!r} exceeds fixed lateness {fixed!r}"]


WORKLOADS = {w.name: w for w in (CertifyPath6, OracleBarbell6, SolveReplay)}


def _miqcp_counts(model):
    return {
        "exact.miqcp_vars": len(model.variables),
        "exact.miqcp_rows": len(model.constraints),
        "exact.bilinear_terms": sum(len(con.quad) for con in model.constraints.values()),
    }


def _milp_counts(model):
    return {
        "approx.milp_vars": len(model.variables),
        "approx.milp_rows": len(model.constraints),
        "approx.milp_nonzeros": sum(len(con.lin) for con in model.constraints.values()),
        "approx.sos2_sets": len(model.sos2),
    }


def _text_counts(text):
    return {"optmodel.model_bytes": len(text.encode())}


def _leaf_counts(result):
    return {"oracle.leaves": result.certificate["leaves"]}


def _violation_counts(report):
    return {"delays.violations": len(report.violations)}


def install_trace(tracer) -> None:
    """Wrap every public call the workloads make, where the caller looks it up."""
    targets = (
        # called by the certify workload through the defining module
        (oracle, "solve_exhaustive", "oracle.solve_exhaustive", _leaf_counts),
        (oracle, "as_assignment", "oracle.as_assignment", None),
        (exact, "build_miqcp", "exact.build_miqcp", _miqcp_counts),
        (delays, "validate", "delays.validate", _violation_counts),
        # called inside the CLI through the names nfvlight.cli imports
        (cli, "solve_exhaustive", "oracle.solve_exhaustive", _leaf_counts),
        (cli, "load_scenario", "scenario.load", None),
        (cli, "build_miqcp", "exact.build_miqcp", _miqcp_counts),
        (cli, "build_milp", "approx.build_milp", _milp_counts),
        (cli, "parse_solution", "optmodel.parse_solution", None),
        (cli, "validate", "delays.validate", _violation_counts),
        # emit_model dispatches through the optmodel module globals
        (optmodel, "emit_lp", "optmodel.emit_lp", _text_counts),
        (optmodel, "emit_mps", "optmodel.emit_mps", _text_counts),
    )
    for module, attr, name, count in targets:
        tracer.wrap(module, attr, name, count)
