"""Command-line harness for scenario generation, model emission, external
solver orchestration, validation, the exhaustive reference solver, and batch
experiment sweeps with plot-ready output."""
from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from .approx import ApproxError, build_milp
from .delays import validate
from .exact import build_miqcp
from .optmodel import (
    ModelError,
    SolutionError,
    model_stats,
    objective_value,
    parse_solution,
    write_model,
)
from .oracle import (
    OracleLimits,
    OracleScaleError,
    as_assignment,
    solve_exhaustive,
    solve_sequential_baseline,
)
from .scenario import (
    ScenarioError,
    builtin_topology,
    dumps_scenario,
    load_scenario,
    motivation_scenario,
    permutation_scenario,
    save_scenario,
)

_HARNESS_ERRORS = (
    ScenarioError,
    ModelError,
    SolutionError,
    ApproxError,
    OracleScaleError,
    subprocess.TimeoutExpired,
    OSError,
)


def _fail(kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return 1


def _check_limit(flag: str, value) -> None:
    """Reject a limit that is not a finite number >= 0; ``None`` sets no limit."""
    if value is not None and not (math.isfinite(value) and value >= 0):
        raise ScenarioError(f"{flag} must be a finite number >= 0, got {value!r}", invariant="limit")


def _load_scenario(path: str):
    """Load a scenario; print its warnings on stderr as one JSON line, if any."""
    scn = load_scenario(path)
    warnings = scn.validate()
    if warnings:
        sys.stderr.write(json.dumps({"warnings": warnings}) + "\n")
    return scn


def _build_model(scn, formulation: str, fixed: bool, prune: bool = False):
    if formulation not in ("miqcp", "milp"):
        raise ModelError(f"unknown formulation {formulation!r}")
    # looked up at call time, so a wrapper installed on this module is used
    build = globals()[f"build_{formulation}"]
    return build(scn, fixed, prune_pinned_tuples=prune)


def _write_solution(path: str, values: dict[str, float], objective: float | None = None):
    lines = []
    if objective is not None:
        lines.append(f"# Objective value = {objective!r}")
    for name in sorted(values):
        if values[name]:
            lines.append(f"{name} {values[name]!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def _adapter_command(template: str, model_path: str, solution_path: str) -> list[str]:
    if "{model}" not in template or "{solution}" not in template:
        raise SolutionError("solver adapter must mention {model} and {solution}")
    return shlex.split(template.replace("{model}", model_path).replace("{solution}", solution_path))


def _run_adapter(model, template: str, timeout: float | None, fmt: str,
                 keep_model: str | None = None):
    with tempfile.TemporaryDirectory(prefix="nfvlight.") as td:
        model_path = keep_model or str(Path(td) / f"{model.name}.{fmt}")
        write_model(model, model_path, fmt)
        solution_path = str(Path(td) / "solution.txt")
        cmd = _adapter_command(template, model_path, solution_path)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        if not Path(solution_path).exists():
            tail = (proc.stderr or proc.stdout or "").strip()[-400:]
            raise SolutionError(
                f"adapter wrote no solution file (exit {proc.returncode}): {tail}"
            )
        return parse_solution(Path(solution_path).read_text(), model)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    if args.motivation:
        scn = motivation_scenario()
    else:
        sub = builtin_topology(
            args.topology,
            edge_delay=args.edge_delay,
            line_rate=args.line_rate,
            wavelengths=args.wavelengths,
        )
        kw = dict(
            small_capacity=args.small_capacity,
            large_capacity=args.large_capacity,
            rate=args.rate,
            topology_name=args.topology,
        )
        if args.all_permutations:
            outdir = Path(args.out_dir or ".")
            outdir.mkdir(parents=True, exist_ok=True)
            n = len(sub.vertices)
            count = n * (n - 1) * (n - 2)
            for i in range(count):
                scn = permutation_scenario(sub, i, **kw)
                save_scenario(scn, outdir / f"{scn.name}.json")
            sys.stdout.write(json.dumps({"written": count, "dir": str(outdir)}) + "\n")
            return 0
        scn = permutation_scenario(sub, args.permutation, **kw)
    if args.out:
        save_scenario(scn, args.out)
    else:
        sys.stdout.write(dumps_scenario(scn))
    return 0


def cmd_build(args) -> int:
    scn = _load_scenario(args.scenario)
    model = _build_model(scn, args.formulation, args.fixed_topology, args.prune_pinned_tuples)
    if args.out:
        write_model(model, args.out, args.format)
    if args.stats or not args.out:
        sys.stdout.write(json.dumps(model_stats(model), indent=2, sort_keys=True) + "\n")
    return 0


def cmd_solve(args) -> int:
    _check_limit("--timeout", args.timeout)
    scn = _load_scenario(args.scenario)
    template = args.adapter or os.environ.get("NFVLIGHT_SOLVER")
    if not template:
        return _fail("no_adapter", "pass --adapter or set NFVLIGHT_SOLVER")
    stages = []
    if args.staged:
        # one model, re-targeted per stage; each solved part is pinned before the next
        model = _build_model(scn, args.formulation, args.fixed_topology)
        for part, (terms, sense) in sorted(model.objective_parts.items()):
            model.set_objective(terms, sense)
            # each stage overwrites the kept file, so it ends with the last stage's model
            assignment = _run_adapter(model, template, args.timeout, args.format,
                                      keep_model=args.keep_model)
            value = objective_value(model, assignment.values)
            model.add_con(f"objective_pin_o{part}", "objective_pin", terms, "=", value)
            stages.append({"part": part, "value": value})
    final_model = _build_model(scn, args.formulation, args.fixed_topology)
    if args.staged:
        values = assignment.values
    else:
        assignment = _run_adapter(final_model, template, args.timeout, args.format,
                                  keep_model=args.keep_model)
        values = assignment.values
    report = validate(scn, final_model, assignment)
    if args.solution_out:
        _write_solution(args.solution_out, values, report.model_objective)
    if args.report_out:
        Path(args.report_out).write_text(report.to_json())
    summary = {
        "scenario": scn.name,
        "formulation": args.formulation,
        "fixed_topology": args.fixed_topology,
        "status": assignment.status,
        "ok": report.ok,
        "violations": len(report.violations),
        "model_objective": report.model_objective,
        "model_max_lateness": report.model_max_lateness,
        "max_exact_lateness": None if report.unstable else report.max_exact_lateness,
        "approximation_error": report.approximation_error,
    }
    if stages:
        summary["stages"] = stages
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_validate(args) -> int:
    scn = _load_scenario(args.scenario)
    model = _build_model(scn, args.formulation, args.fixed_topology)
    assignment = parse_solution(Path(args.solution).read_text(), model)
    report = validate(scn, model, assignment)
    if args.report_out:
        Path(args.report_out).write_text(report.to_json())
    sys.stdout.write(report.to_json())
    return 0


def cmd_oracle(args) -> int:
    _check_limit("--max-seconds", args.max_seconds)
    _check_limit("--max-leaves", args.max_leaves)
    scn = _load_scenario(args.scenario)
    limits = OracleLimits(max_seconds=args.max_seconds, max_leaves=args.max_leaves)
    if args.mode == "sequential":
        result = solve_sequential_baseline(scn, limits=limits)
    else:
        result = solve_exhaustive(scn, fixed_topology=(args.mode == "fixed"), limits=limits)
    values = as_assignment(result, scn, args.formulation)
    summary = {
        "scenario": scn.name,
        "mode": args.mode,
        "embedded": list(result.embedded),
        "fulfilled": list(result.fulfilled),
        "lateness": result.lateness,
        "objective": result.objective,
        "certificate": result.certificate,
    }
    if not args.no_validate:
        fixed = result.mode == "fixed"
        model = _build_model(scn, args.formulation, fixed)
        report = validate(scn, model, values)
        summary["validation"] = {
            "ok": report.ok,
            "violations": len(report.violations),
            "max_exact_lateness": None if report.unstable else report.max_exact_lateness,
            "model_objective": report.model_objective,
        }
        if args.solution_out:
            _write_solution(args.solution_out, values, report.model_objective)
    elif args.solution_out:
        _write_solution(args.solution_out, values)
    if args.certificate_out:
        Path(args.certificate_out).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


def _parse_perm_spec(spec: str | None, count: int) -> list[int]:
    if not spec:
        return list(range(count))
    out: list[int] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        a, dash, b = chunk.partition("-")
        try:
            lo = int(a)
            hi = int(b) if dash else lo
        except ValueError:
            raise ScenarioError(f"bad permutation spec {chunk!r}", invariant="permutation") from None
        if hi < lo:
            raise ScenarioError(f"reversed permutation range {chunk!r}", invariant="permutation")
        out.extend(range(lo, hi + 1))
    if not out:
        raise ScenarioError(f"no permutation in {spec!r}", invariant="permutation")
    bad = [i for i in out if i >= count]
    if bad:
        raise ScenarioError(f"permutation index out of range: {bad[0]}", invariant="permutation")
    return sorted(set(out))


def _parse_names(spec: str, allowed: tuple[str, ...], what: str) -> list[str]:
    """The comma-separated names of ``spec``, each one of ``allowed``."""
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names:
        raise ScenarioError(f"no {what} given", invariant=what)
    for name in names:
        if name not in allowed:
            raise ScenarioError(
                f"unknown {what} {name!r}; choose from {', '.join(allowed)}", invariant=what
            )
    return names


_NO_RESULT = {"lateness": "", "exact_lateness": "", "approx_error": ""}


def _experiment_cell(payload: dict) -> list[dict]:
    topology = payload["topology"]
    perm = payload["perm"]
    sub = builtin_topology(topology, **payload["topo_kw"])
    scn = permutation_scenario(sub, perm, topology_name=topology, **payload["perm_kw"])
    limits = OracleLimits(max_seconds=payload["max_seconds"])
    rows: list[dict] = []
    base = {"topology": topology, "perm": perm}
    if payload["adapter"] is None:
        for mode in payload["modes"]:
            t0 = time.monotonic()
            row = dict(base, formulation="oracle", mode=mode)
            try:
                res = solve_exhaustive(scn, fixed_topology=(mode == "fixed"), limits=limits)
                row["status"] = (
                    "oracle_optimal" if res.certificate["certified"] else "oracle_uncertified"
                )
                row["lateness"] = res.lateness
                row["exact_lateness"] = res.lateness
                row["approx_error"] = ""
                row["leaves"] = res.certificate["leaves"]
            except OracleScaleError as exc:
                row.update(status="scale_error", **_NO_RESULT)
                row["status_detail"] = str(exc)
            row["wall_s"] = round(time.monotonic() - t0, 6)
            rows.append(row)
        return rows
    for formulation in payload["formulations"]:
        for mode in payload["modes"]:
            t0 = time.monotonic()
            row = dict(base, formulation=formulation, mode=mode)
            try:
                model = _build_model(scn, formulation, mode == "fixed")
                fmt = "lp" if formulation == "miqcp" else payload["format"]
                assignment = _run_adapter(model, payload["adapter"], payload["max_seconds"], fmt)
                report = validate(scn, model, assignment)
                row["status"] = "feasible" if report.ok else "violated"
                row["lateness"] = report.model_max_lateness
                row["exact_lateness"] = (
                    "" if report.unstable else report.max_exact_lateness
                )
                row["approx_error"] = (
                    "" if report.approximation_error is None else report.approximation_error
                )
            except subprocess.TimeoutExpired:
                row.update(status="timeout", **_NO_RESULT)
            except (SolutionError, ModelError, ApproxError) as exc:
                row.update(status="failed", **_NO_RESULT)
                row["status_detail"] = str(exc)
            row["wall_s"] = round(time.monotonic() - t0, 6)
            rows.append(row)
    return rows


_CSV_FIELDS = [
    "topology", "perm", "formulation", "mode", "status",
    "lateness", "exact_lateness", "approx_error", "wall_s", "leaves",
]


def cmd_experiment(args) -> int:
    sub = builtin_topology(args.topology, edge_delay=args.edge_delay,
                           line_rate=args.line_rate, wavelengths=args.wavelengths)
    n = len(sub.vertices)
    perms = _parse_perm_spec(args.permutations, n * (n - 1) * (n - 2))
    _check_limit("--max-seconds", args.max_seconds)
    if args.workers < 1:
        raise ScenarioError(f"--workers must be at least 1, got {args.workers}", invariant="limit")
    modes = _parse_names(args.modes, ("joint", "fixed"), "mode")
    adapter = args.adapter or os.environ.get("NFVLIGHT_SOLVER")
    # without an adapter the oracle answers and no formulation is built
    formulations = (
        _parse_names(args.formulations, ("miqcp", "milp"), "formulation") if adapter else []
    )
    # one formulation at a time over the permutations, so that a process's
    # builds of one formulation follow each other and reuse its compiled model
    payloads = [
        {
            "topology": args.topology,
            "perm": p,
            "topo_kw": dict(edge_delay=args.edge_delay, line_rate=args.line_rate,
                            wavelengths=args.wavelengths),
            "perm_kw": dict(small_capacity=args.small_capacity,
                            large_capacity=args.large_capacity, rate=args.rate),
            "modes": modes,
            "formulations": group,
            "adapter": adapter,
            "format": args.format,
            "max_seconds": args.max_seconds,
        }
        for group in ([[f] for f in formulations] or [[]])
        for p in perms
    ]
    rows: list[dict] = []
    if args.workers > 1 and len(payloads) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
            for cell in pool.map(_experiment_cell, payloads):
                rows.extend(cell)
    else:
        for payload in payloads:
            rows.extend(_experiment_cell(payload))
    rows.sort(key=lambda r: (r["topology"], r["perm"], r["formulation"], r["mode"]))
    out = Path(args.out)
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    done = sum(1 for r in rows if r["status"] in ("oracle_optimal", "feasible"))
    sys.stdout.write(json.dumps({"rows": len(rows), "solved": done, "out": str(out)}) + "\n")
    return 0


def cmd_plotdata(args) -> int:
    with open(args.results, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        columns = reader.fieldnames or []

    def number(row, key) -> float | None:
        """The cell ``row[key]`` as a finite number, or None when it is blank."""
        cell = row.get(key)
        try:
            val = float(cell) if cell else None
        except ValueError:
            msg = f"column {key!r} holds {cell!r}, not a number"
            raise ScenarioError(msg, invariant="schema") from None
        if val is not None and not math.isfinite(val):
            msg = f"column {key!r} holds {cell!r}, not a finite number"
            raise ScenarioError(msg, invariant="schema")
        return val

    def require(*keys) -> None:
        """Fail unless the results hold at least one of ``keys`` as a column."""
        if not set(keys) & set(columns):
            names = " or ".join(map(repr, keys))
            raise ScenarioError(f"results lack the {names} column", invariant="schema")

    def metric(row) -> float | None:
        val = number(row, "exact_lateness")
        return number(row, "lateness") if val is None else val

    lines: list[str] = []
    if args.series == "lateness-gain":
        for key in ("topology", "perm", "mode"):
            require(key)
        require("lateness", "exact_lateness")
        cells: dict[tuple[str, str], dict[str, float]] = {}
        for row in rows:
            val = metric(row)
            if val is None:
                continue
            cells.setdefault((row["topology"], row["perm"]), {})[row["mode"]] = val
        gains = []
        for (topo, perm), modes in cells.items():
            if "joint" not in modes or "fixed" not in modes:
                continue
            joint, fixed = modes["joint"], modes["fixed"]
            gain = math.inf if joint <= 0 else fixed / joint
            gains.append((gain, topo, perm))
        gains.sort()
        lines.append("# rank gain topology perm")
        for i, (gain, topo, perm) in enumerate(gains):
            lines.append(f"{i} {gain!r} {topo} {perm}")
    elif args.series in ("approx-error-cdf", "time-cdf"):
        key = "approx_error" if args.series == "approx-error-cdf" else "wall_s"
        require(key)
        vals = sorted(v for v in (number(r, key) for r in rows) if v is not None)
        lines.append(f"# {key} cumulative_fraction")
        for i, v in enumerate(vals):
            lines.append(f"{v!r} {(i + 1) / len(vals)!r}")
    else:
        raise ScenarioError(f"unknown series {args.series!r}", invariant="schema")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_topology_options(p: argparse.ArgumentParser):
    p.add_argument("--topology", default="path6", choices=["path6", "barbell6", "cycle6"])
    p.add_argument("--edge-delay", type=float, default=0.1)
    p.add_argument("--line-rate", type=float, default=4.0)
    p.add_argument("--wavelengths", type=int, default=6)
    p.add_argument("--small-capacity", type=float, default=5.0)
    p.add_argument("--large-capacity", type=float, default=50.0)
    p.add_argument("--rate", type=float, default=3.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfvlight",
        description="joint function embedding and lightpath topology design harness",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen", help="write a scenario file")
    _add_topology_options(p)
    p.add_argument("--permutation", type=int, default=0)
    p.add_argument("--all-permutations", action="store_true")
    p.add_argument("--motivation", action="store_true",
                   help="two-request scenario where joint design beats sequential")
    p.add_argument("--out")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_gen)

    p = subs.add_parser("build", help="compile a scenario into a model file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--formulation", default="miqcp", choices=["miqcp", "milp"])
    p.add_argument("--fixed-topology", action="store_true")
    p.add_argument("--prune-pinned-tuples", action="store_true")
    p.add_argument("--format", default="lp", choices=["lp", "mps"])
    p.add_argument("--out")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=cmd_build)

    p = subs.add_parser("solve", help="run an external solver through an adapter command")
    p.add_argument("--scenario", required=True)
    p.add_argument("--formulation", default="milp", choices=["miqcp", "milp"])
    p.add_argument("--fixed-topology", action="store_true")
    p.add_argument("--adapter", help="command template with {model} and {solution}")
    p.add_argument("--format", default="lp", choices=["lp", "mps"])
    p.add_argument("--timeout", type=float)
    p.add_argument("--staged", action="store_true",
                   help="optimize objective parts one at a time, pinning each")
    p.add_argument("--keep-model")
    p.add_argument("--solution-out")
    p.add_argument("--report-out")
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("validate", help="check a solution file against a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--formulation", default="miqcp", choices=["miqcp", "milp"])
    p.add_argument("--fixed-topology", action="store_true")
    p.add_argument("--solution", required=True)
    p.add_argument("--report-out")
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("oracle", help="solve exhaustively and emit a certified assignment")
    p.add_argument("--scenario", required=True)
    p.add_argument("--mode", default="joint", choices=["joint", "fixed", "sequential"])
    p.add_argument("--formulation", default="miqcp", choices=["miqcp", "milp"])
    p.add_argument("--max-seconds", type=float)
    p.add_argument("--max-leaves", type=int)
    p.add_argument("--no-validate", action="store_true")
    p.add_argument("--solution-out")
    p.add_argument("--certificate-out")
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("experiment", help="sweep capacity permutations into a CSV")
    _add_topology_options(p)
    p.add_argument("--permutations", help="indices like 0-9 or 0,5,17; default all")
    p.add_argument("--modes", default="joint,fixed")
    p.add_argument("--formulations", default="miqcp,milp")
    p.add_argument("--adapter")
    p.add_argument("--format", default="lp", choices=["lp", "mps"])
    p.add_argument("--max-seconds", type=float)
    p.add_argument("--workers", type=int, default=min(8, os.cpu_count() or 1))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    p = subs.add_parser("plotdata", help="turn experiment CSV into plot-ready columns")
    p.add_argument("--results", required=True)
    p.add_argument("--series", required=True,
                   choices=["lateness-gain", "approx-error-cdf", "time-cdf"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _HARNESS_ERRORS as exc:
        return _fail(type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
