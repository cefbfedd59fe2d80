"""Acceptance gates for the whole harness.

Each test here is an end-to-end budgeted run: the equal-error partition
guarantees, exact model dimensions, certified optima across every capacity
permutation, the joint-versus-sequential motivation case, interpolation
error at certified optima, and the emission round trip. Wall-clock budgets
are asserted alongside the numeric targets.
"""
from __future__ import annotations

import csv
import math
import os
import random
import time

import numpy as np
import pytest

from nfvlight import ForwardingGraph, Request, Scenario, SubstrateNetwork
from nfvlight.approx import build_milp, compute_partition, eval_gtilde
from nfvlight.cli import main
from nfvlight.delays import validate
from nfvlight.exact import build_miqcp
from nfvlight.optmodel import (
    constraint_lhs,
    emit_lp,
    emit_mps,
    model_stats,
    parse_solution,
)
from nfvlight.oracle import as_assignment, solve_exhaustive, solve_sequential_baseline
from nfvlight.scenario import (
    builtin_topology,
    motivation_scenario,
    permutation_scenario,
)

REFERENCE_WINDOWS = (
    # eps, upper, points, worst secant error of the equal-error partition
    (1.0, 4.0, 6, 0.01000000000000004),
    (2.0, 5.0, 4, 0.007504940885147129),
    (47.0, 50.0, 2, 1.9745894329114808e-05),
)


def test_reference_partitions_meet_the_error_bound():
    t0 = time.monotonic()
    for eps, upper, n_points, frozen in REFERENCE_WINDOWS:
        part = compute_partition(eps, upper, n_points)
        pts = np.array(part.points)
        # the secant over [a, b] peaks at sqrt(a*b) with this closed form
        closed = max(
            (1.0 / math.sqrt(a) - 1.0 / math.sqrt(b)) ** 2
            for a, b in zip(pts, pts[1:])
        )
        assert closed == frozen
        assert part.max_error() == pytest.approx(closed, abs=1e-15)
        assert closed <= 0.01 + 1e-9

        xs = np.linspace(eps, upper, 1_000_000)
        scan = float(np.max(np.interp(xs, pts, 1.0 / pts) - 1.0 / xs))
        assert scan <= closed + 1e-12
        assert closed - scan <= 1e-8
        for x in np.linspace(eps, upper, 1001):
            secant = float(np.interp(x, pts, 1.0 / pts))
            assert abs(eval_gtilde(part, float(x)) - secant) <= 1e-12
    assert abs(REFERENCE_WINDOWS[0][3] - 0.01) <= 1e-9
    assert time.monotonic() - t0 < 1.0


def test_random_partitions_never_under_approximate():
    rng = random.Random(74123)
    t0 = time.monotonic()
    violating = 0
    for k in range(1000):
        eps = 10.0 ** rng.uniform(-2.0, 1.5)
        upper = eps * rng.uniform(1.05, 40.0)
        part = compute_partition(eps, upper, rng.randint(2, 12))
        pts = np.array(part.points)
        xs = np.linspace(eps, upper, 2000)
        # any nonnegative shift keeps the secant an over-approximation
        shift = 0.0 if k % 2 == 0 else rng.uniform(0.0, 0.05)
        if not np.all(np.interp(xs, pts, 1.0 / pts) + shift >= 1.0 / xs):
            violating += 1
    assert violating == 0
    assert time.monotonic() - t0 < 10.0


def test_exact_model_dimensions_match_closed_forms(path6, perm0):
    t0 = time.monotonic()
    stats = model_stats(build_miqcp(perm0))
    n_vertices = len(path6.vertices)
    directed_edges = len(path6.edges)
    arcs = sum(len(r.graph.arcs) for r in perm0.requests)
    assert stats["variables"]["lam"] == arcs * n_vertices**4 == 2592
    assert stats["variables"]["l"] == (
        n_vertices**2 * directed_edges * path6.wavelengths
    ) == 2160
    path_tuples = sum(
        n_vertices ** len(path)
        for r in perm0.requests
        for path in r.graph.paths()
    )
    assert stats["constraints"]["delay"] == path_tuples == 216
    assert time.monotonic() - t0 < 5.0


@pytest.mark.slow
def test_every_capacity_permutation_certifies_and_joint_wins(path6):
    t0 = time.monotonic()
    gains = {}
    for i in range(120):
        scn = permutation_scenario(path6, i, topology_name="path6")
        joint = solve_exhaustive(scn)
        fixed = solve_exhaustive(scn, fixed_topology=True)
        for res, fixed_topology in ((joint, False), (fixed, True)):
            assert res.certificate["certified"], (i, res.mode)
            model = build_miqcp(scn, fixed_topology)
            report = validate(scn, model, as_assignment(res, scn, "miqcp"))
            assert report.ok, (i, res.mode, report.violations[:3])
        assert joint.lateness <= fixed.lateness + 1e-9, i
        assert joint.lateness > 0.0, i
        gains[i] = fixed.lateness / joint.lateness
    best_perm = max(gains, key=gains.get)
    best = gains[best_perm]
    print(f"largest fixed/joint lateness ratio: {best!r} at permutation {best_perm}")
    assert best == 2.4656964656964657
    assert 2.0 <= best <= 3.5
    assert time.monotonic() - t0 <= 1800.0


def test_joint_design_beats_the_sequential_pipeline():
    t0 = time.monotonic()
    scn = motivation_scenario()
    joint = solve_exhaustive(scn)
    seq = solve_sequential_baseline(scn)
    assert joint.lateness == 1.427450980392157
    assert seq.lateness == 3.824293481613159
    assert joint.lateness < seq.lateness
    small_vertex = min(scn.substrate.capacity, key=scn.substrate.capacity.get)
    assert joint.placements[(0, "f")] == small_vertex == "v3"
    assert seq.placements[(0, "f")] != small_vertex
    assert time.monotonic() - t0 < 60.0


def test_certified_optima_land_within_the_interpolation_bound(path6):
    sample = range(0, 120, 12)
    errors = []
    for i in sample:
        scn = permutation_scenario(path6, i, topology_name="path6")
        res = solve_exhaustive(scn)
        report = validate(scn, build_milp(scn), as_assignment(res, scn, "milp"))
        assert report.ok, (i, report.violations[:3])
        assert report.approximation_error is not None, i
        errors.append(report.approximation_error)
    within = sum(1 for e in errors if e < 0.01)
    assert within == len(errors)
    assert max(errors) == pytest.approx(0.009466666666666956, abs=1e-9)


@pytest.mark.skipif(
    not os.environ.get("NFVLIGHT_SOLVER"),
    reason="set NFVLIGHT_SOLVER to an adapter command to run the solver pass",
)
def test_external_milp_solutions_stay_near_exact_delays(tmp_path):
    out = tmp_path / "milp.csv"
    assert main([
        "experiment", "--permutations", "0-119", "--formulations", "milp",
        "--modes", "joint", "--max-seconds", "600", "--workers", "1",
        "--out", str(out),
    ]) == 0
    rows = list(csv.DictReader(out.open()))
    solved = [r for r in rows if r["status"] == "optimal"]
    assert solved, "the adapter solved no cells"
    for row in solved:
        assert float(row["wall_s"]) <= 600.0
    within = sum(1 for r in solved if float(r["approx_error"]) < 0.01)
    assert within / len(solved) >= 0.7


def test_model_emission_and_solution_parsing_round_trip():
    def random_scenario(rng: random.Random, i: int) -> Scenario:
        n = rng.choice([3, 4])
        vs = tuple(f"v{k}" for k in range(1, n + 1))
        edges: list[tuple[str, str]] = []
        delay = {}
        for a, b in zip(vs, vs[1:]):
            d = round(rng.uniform(0.05, 0.3), 3)
            edges += [(a, b), (b, a)]
            delay[(a, b)] = delay[(b, a)] = d
        rate = round(rng.uniform(0.5, 2.5), 3)
        host = rng.choice(vs[1:-1])
        sub = SubstrateNetwork(
            vertices=vs, edges=tuple(edges), delay=delay,
            capacity={host: round(rate + rng.uniform(1.5, 8.0), 3)},
            wavelengths=2, line_rate=4.0,
        )
        graph = ForwardingGraph(nodes=("s", "f", "d"), arcs=(("s", "f"), ("f", "d")))
        req = Request(
            graph=graph, d_max=float(rng.choice([0.0, 1.0])),
            initial_rates={("s", "f"): rate},
            source_restrictions=(("s", vs[0], 1.0),),
            dest_restrictions=(("d", vs[-1], 1.0),),
        )
        scn = Scenario(substrate=sub, requests=(req,), name=f"roundtrip{i}")
        scn.validate()
        return scn

    rng = random.Random(20260815)
    t0 = time.monotonic()
    for i in range(50):
        scn = random_scenario(rng, i)
        model = build_miqcp(scn) if i % 2 == 0 else build_milp(scn)
        assert emit_lp(model).endswith("End\n")
        if model.kind == "milp":
            assert emit_mps(model).endswith("ENDATA\n")

        values = {}
        for var in model.variables.values():
            if var.ub is not None and var.lb == var.ub:
                values[var.name] = var.lb
            elif var.binary:
                values[var.name] = float(rng.random() < 0.5)
            else:
                hi = var.ub if var.ub is not None else var.lb + 10.0
                values[var.name] = rng.uniform(var.lb, hi)
        text = "\n".join(f"{n} {v!r}" for n, v in sorted(values.items())) + "\n"
        parsed = parse_solution(text, model)
        assert not parsed.warnings

        for con in model.constraints.values():
            direct = constraint_lhs(con, values)
            reparsed = constraint_lhs(con, parsed.values)
            assert abs(direct - reparsed) <= 1e-9, (i, con.name)
        report = validate(scn, model, parsed)
        assert isinstance(report.ok, bool)
    assert time.monotonic() - t0 < 30.0
