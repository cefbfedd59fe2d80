"""Exact MIQCP compilation: variable layout, constraint rows, big-M policy."""
from __future__ import annotations

import concurrent.futures
import dataclasses
import gc
import sys
import weakref

import pytest

from nfvlight import approx, build_milp, build_miqcp, emit_lp, exact
from nfvlight.exact import compute_bigM
from nfvlight.optmodel import model_stats


def lin_dict(con):
    return {v: c for c, v in con.lin}


class TestBigMPolicy:
    def test_reference_values(self, perm0):
        bm = compute_bigM(perm0)
        assert bm.lambda_min == pytest.approx(3e-4)
        assert bm.activation == pytest.approx(1.0 / 3e-4)
        # chain of 3 nodes, 6 vertices, 0.5s of fiber: 2*5*0.5 + 3/lambda_min
        assert bm.lateness_cap == pytest.approx(10005.0)
        assert bm.placement == {(0, "f"): 3.0}
        assert bm.arc == {(0, ("s", "f")): 3.0, (0, ("f", "d")): 3.0}

    def test_overrides_take_precedence(self, perm0):
        scn = dataclasses.replace(
            perm0,
            big_m=dataclasses.replace(perm0.big_m, lambda_min=0.01, lateness_cap=99.0),
        )
        bm = compute_bigM(scn)
        assert bm.activation == pytest.approx(100.0)
        assert bm.lateness_cap == 99.0


class TestModelShape:
    def test_reference_counts(self, perm0):
        st = model_stats(build_miqcp(perm0))
        assert st["variables"] == {
            "eta": 30, "l": 2160, "lam": 2592, "mu": 6, "theta": 6,
            "x1": 1, "x2": 1, "x3": 1, "x4": 1, "y": 6, "z": 2592,
        }
        assert st["constraints"]["delay"] == 216
        assert st["n_sos2"] == 0

    def test_counts_follow_closed_forms(self, tiny):
        sub = tiny.substrate
        V, E, G = len(sub.vertices), len(sub.edges), sub.wavelengths
        arcs = sum(len(r.graph.arcs) for r in tiny.requests)
        st = model_stats(build_miqcp(tiny))
        assert st["variables"]["lam"] == arcs * V**4
        assert st["variables"]["z"] == arcs * V**4
        assert st["variables"]["l"] == V * V * E * G
        assert st["variables"]["eta"] == V * (V - 1)
        tuples = sum(
            V ** len(p) for r in tiny.requests for p in r.graph.paths()
        )
        assert st["constraints"]["delay"] == tuples


class TestConstraintRows:
    def test_initial_rate_row_ties_flow_to_embedding(self, tiny):
        m = build_miqcp(tiny)
        con = m.constraints["initial_rate_r0_a{s,f}"]
        assert (con.sense, con.rhs) == ("=", 0.0)
        terms = lin_dict(con)
        lam_terms = {v for v in terms if v.startswith("lam_")}
        # first-hop departures (data start == hop start) from any source vertex
        assert len(lam_terms) == 27
        assert all(v.split("_")[3] == v.split("_")[5] for v in lam_terms)
        assert all(terms[v] == 1.0 for v in lam_terms)
        # embedding the request injects exactly the initial rate
        assert {v: c for v, c in terms.items() if v not in lam_terms} == {"x2_r0": -2.0}

    def test_source_split_blocks_other_vertices(self, tiny):
        m = build_miqcp(tiny)
        con = m.constraints["source_split_r0_n{s}_v1"]
        assert (con.sense, con.rhs) == ("=", 0.0)
        starts = {v.split("_")[3] for v in lin_dict(con)}
        assert "v1" not in starts and starts == {"v2", "v3"}

    def test_vertex_capacity_row(self, tiny):
        m = build_miqcp(tiny)
        con = m.constraints["vertex_capacity_v2"]
        assert con.sense == "<=" and con.rhs == 8.0
        assert lin_dict(con) == {"mu_r0_n{f}_v2": 1.0}

    def test_forwarding_sojourn_row_is_bilinear(self, tiny):
        m = build_miqcp(tiny)
        con = m.constraints["forwarding_sojourn_v1_v2"]
        assert con.sense == "<=" and con.rhs == -1.0
        assert lin_dict(con) == {"eta_v1_v2": -4.0}
        assert all(coef == 1.0 for coef, _, _ in con.quad)
        assert {"eta_v1_v2"} == {
            a if a.startswith("eta") else b for _, a, b in con.quad
        }

    def test_processing_sojourn_row_is_bilinear(self, tiny):
        m = build_miqcp(tiny)
        con = m.constraints["processing_sojourn_r0_n{f}_v2"]
        assert con.sense == "<=" and con.rhs == 0.0
        assert lin_dict(con) == {"y_r0_n{f}_v2": 1.0}
        partners = {a if "theta" in b else b for _, a, b in con.quad}
        assert any(p.startswith("lam_") for p in partners)
        assert any(p.startswith("mu_") for p in partners)

    def test_delay_row_mixes_route_queue_and_processing_terms(self, tiny):
        m = build_miqcp(tiny)
        con = m.constraints["delay_r0_p0_v1_v2_v3"]
        assert con.sense == "<=" and con.rhs == tiny.requests[0].d_max
        assert lin_dict(con) == {"x3_r0": -1.0}
        kinds = {tuple(sorted((a.split("_")[0], b.split("_")[0]))) for _, a, b in con.quad}
        assert kinds == {("eta", "z"), ("l", "z"), ("theta", "y")}

    def test_lateness_activation_uses_cap(self, tiny):
        m = build_miqcp(tiny)
        con = m.constraints["lateness_activation_r0"]
        cap = compute_bigM(tiny).lateness_cap
        assert con.rhs == pytest.approx(cap)
        assert lin_dict(con) == {"x1_r0": pytest.approx(cap), "x3_r0": 1.0}
        assert m.variables["x3_r0"].ub == pytest.approx(cap)
        assert m.variables["x4"].ub == pytest.approx(cap)

    def test_wavelength_exclusive_covers_all_pairs(self, tiny):
        m = build_miqcp(tiny)
        con = m.constraints["wavelength_exclusive_e{v1,v2}_g0"]
        assert con.sense == "<=" and con.rhs == 1.0
        members = set(lin_dict(con))
        assert all(v.startswith("l_") and v.endswith("_g0") for v in members)
        assert any("e{v1,v2}" in v for v in members)


class TestVariants:
    def test_fixed_topology_pins_every_lightpath_indicator(self, perm0):
        m = build_miqcp(perm0, fixed_topology=True)
        l_vars = [v for n, v in m.variables.items() if n.startswith("l_")]
        assert all(v.lb == v.ub for v in l_vars)
        # one single-hop lightpath per fiber orientation on the base wavelength
        assert m.variables["l_v1_v2_e{v1,v2}_g0"].lb == 1.0
        assert m.variables["l_v2_v1_e{v2,v1}_g0"].lb == 1.0
        assert m.variables["l_v1_v2_e{v1,v2}_g1"].lb == 0.0
        assert m.variables["l_v1_v3_e{v1,v2}_g0"].lb == 0.0

    def test_pruning_pinned_tuples_shrinks_delay_enumeration(self, perm0):
        full = model_stats(build_miqcp(perm0))
        pruned = model_stats(build_miqcp(perm0, prune_pinned_tuples=True))
        # flow variables keep the full index space; only the per-path delay
        # tuples collapse onto the restricted source/destination vertices
        assert pruned["variables"]["lam"] == full["variables"]["lam"]
        assert full["constraints"]["delay"] == 216
        assert pruned["constraints"]["delay"] == 1 * 6 * 3

    def test_objective_parts_and_pins(self, tiny):
        m = build_miqcp(tiny)
        parts = m.objective_parts
        assert sorted(parts) == [1, 2, 3, 4]
        assert parts[1] == (((1.0, "x1_r0"),), "max")
        assert parts[3] == (((1.0, "x4"),), "min")
        assert parts[2][1] == "max" and parts[4][1] == "min"
        m.set_objective(*parts[1])
        assert m.sense == "max" and m.objective == ((1.0, "x1_r0"),)
        m.set_objective(*parts[3])
        assert m.sense == "min" and m.objective == ((1.0, "x4"),)
        for k in (1, 2):
            m.add_con(f"objective_pin_o{k}", "objective_pin", parts[k][0], "=", 1.0)
        pins = [c for c in m.constraints.values() if c.family == "objective_pin"]
        assert len(pins) == 2 and all(c.sense == "=" for c in pins)

    def test_default_objective_mixes_weighted_parts(self, tiny):
        m = build_miqcp(tiny)
        coefs = {v: c for c, v in m.objective}
        assert m.sense == "min"
        assert coefs["x2_r0"] == -100.0
        assert coefs["x4"] == 10.0
        assert "x1_r0" not in coefs  # zero-weighted part is dropped


BUILDERS = {"miqcp": build_miqcp, "milp": build_milp}
# a lightpath variable the fixed topology lights, per formulation
LIT = {"miqcp": "l_v1_v2_e{v1,v2}_g0", "milp": "l_v1_v2_g0"}


@pytest.fixture
def compiles(monkeypatch):
    """Record each private compile of either formulation as ``(kind, scn, prune)``."""
    calls = []
    for kind, module in (("miqcp", exact), ("milp", approx)):
        real = getattr(module, f"_compile_{kind}")

        def spy(scn, prune, real=real, kind=kind):
            calls.append((kind, scn, prune))
            return real(scn, prune)

        monkeypatch.setattr(module, f"_compile_{kind}", spy)
    return calls


class TestCompiledOnce:
    """A scenario object is compiled once per formulation and pruning flag;
    every build returns a copy, fixed-topology copies with their lightpaths
    fixed.  ``dataclasses.replace`` makes a new scenario object, so a miss."""

    @pytest.mark.parametrize("kind", ["miqcp", "milp"])
    def test_joint_then_fixed_compiles_once(self, tiny, compiles, kind):
        scn = dataclasses.replace(tiny)
        build = BUILDERS[kind]
        joint, fixed = build(scn), build(scn, True)
        assert compiles == [(kind, scn, False)]
        assert joint.variables[LIT[kind]][3:] == (0.0, 1.0)
        assert fixed.variables[LIT[kind]][3:] == (1.0, 1.0)

    @pytest.mark.parametrize("kind", ["miqcp", "milp"])
    def test_fixed_first_and_fixed_after_joint_emit_the_same_bytes(self, tiny, kind):
        build = BUILDERS[kind]
        first = emit_lp(build(dataclasses.replace(tiny), True))
        scn = dataclasses.replace(tiny)
        build(scn)
        assert emit_lp(build(scn, True)) == first

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("kind", ["miqcp", "milp"])
    def test_changing_a_copy_leaves_the_next_build_alone(self, tiny, kind, fixed):
        scn = dataclasses.replace(tiny)
        build = BUILDERS[kind]
        m = build(scn, fixed)
        m.add_con("objective_pin_o3", "objective_pin", [(1.0, "x4")], "=", 0.5)
        m.set_objective(*m.objective_parts[1])
        m.fix_var(LIT[kind], 0.0 if fixed else 1.0)
        m.fix_var("x4", 0.5)
        m.objective_parts.clear()
        again = build(scn, fixed)
        assert sorted(again.objective_parts) == [1, 2, 3, 4]
        assert emit_lp(again) == emit_lp(build(dataclasses.replace(scn), fixed))

    def test_another_formulation_pruning_or_scenario_is_a_miss(self, tiny, compiles):
        scn = dataclasses.replace(tiny)
        build_miqcp(scn)
        build_milp(scn, True)
        build_miqcp(scn, prune_pinned_tuples=True)
        build_miqcp(scn, True, prune_pinned_tuples=True)
        build_miqcp(scn)
        other = dataclasses.replace(scn)
        build_miqcp(other)
        assert compiles == [
            ("miqcp", scn, False), ("milp", scn, False), ("miqcp", scn, True),
            ("miqcp", scn, False), ("miqcp", other, False),
        ]

    def test_a_collected_scenario_leaves_no_model(self, tiny):
        scn = dataclasses.replace(tiny)
        build_milp(scn)
        assert exact._compiled is not None
        del scn
        gc.collect()
        assert exact._compiled is None

    def test_a_miss_frees_the_old_model_before_it_builds(self, tiny, monkeypatch):
        kept = dataclasses.replace(tiny)
        build_miqcp(kept)
        old = weakref.ref(exact._compiled[3])
        real, alive = exact._compile_miqcp, []

        def spy(scn, prune):
            alive.append(old() is not None)
            return real(scn, prune)

        monkeypatch.setattr(exact, "_compile_miqcp", spy)
        build_miqcp(dataclasses.replace(tiny))
        assert alive == [False]

    def test_threads_get_their_own_scenarios_model(self, tiny):
        # more threads than cores, switching often, each on its own scenario:
        # a model handed to the wrong thread carries another scenario's name
        scenarios = [dataclasses.replace(tiny, name=f"tiny{k}") for k in range(4)]

        def work(scn):
            for i in range(12):
                fixed = bool(i % 2)
                m = build_miqcp(scn, fixed)
                assert m.name == f"{scn.name}-miqcp"
                assert m.variables[LIT["miqcp"]].lb == float(fixed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=len(scenarios)) as pool:
                futures = [pool.submit(work, scn) for scn in scenarios]
                for future in futures:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
