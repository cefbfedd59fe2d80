"""Exact MIQCP compilation: variable layout, constraint rows, big-M policy."""
from __future__ import annotations

import concurrent.futures
import dataclasses
import itertools
import random
import sys
import weakref

import pytest

from conftest import random_chain_scenario
from nfvlight import approx, build_milp, build_miqcp, emit_lp, exact, naming, permutation_scenario
from nfvlight.exact import compute_bigM
from nfvlight.optmodel import Model, model_stats
from nfvlight.scenario import QueueApprox


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


def with_d_max(scn, d_max):
    return dataclasses.replace(scn, requests=(dataclasses.replace(scn.requests[0], d_max=d_max),))


@pytest.fixture
def compiles(monkeypatch):
    """Record each private compile of either formulation as ``(kind, scn, prune)``.

    The kept model is dropped first, so that one left by an earlier test
    cannot hide a compile.
    """
    monkeypatch.setattr(exact, "_compiled", None)
    calls = []
    for kind, module in (("miqcp", exact), ("milp", approx)):
        real = getattr(module, f"_compile_{kind}")

        def spy(scn, prune, real=real, kind=kind):
            calls.append((kind, scn, prune))
            return real(scn, prune)

        monkeypatch.setattr(module, f"_compile_{kind}", spy)
    return calls


class TestCompiledOnce:
    """A scenario is compiled once per formulation and pruning flag, and an
    equal one is not compiled again; every build returns a copy with the
    scenario's own rows, fixed-topology copies with their lightpaths fixed."""

    @pytest.mark.parametrize("kind", ["miqcp", "milp"])
    def test_joint_then_fixed_compiles_once(self, tiny, compiles, kind):
        scn = dataclasses.replace(tiny)
        build = BUILDERS[kind]
        joint, fixed = build(scn), build(scn, True)
        assert compiles == [(kind, scn, False)]
        assert joint.variables[LIT[kind]][3:] == (0.0, 1.0)
        assert fixed.variables[LIT[kind]][3:] == (1.0, 1.0)

    @pytest.mark.parametrize("kind", ["miqcp", "milp"])
    def test_only_a_fixed_topology_build_makes_the_fixed_copy(self, tiny, compiles, monkeypatch,
                                                               kind):
        fixes = []
        real = Model.fix_var

        def spy(model, name, value):
            fixes.append(name)
            real(model, name, value)

        monkeypatch.setattr(Model, "fix_var", spy)
        build = BUILDERS[kind]
        build(tiny)
        compiled = len(fixes)  # the MILP compile fixes some variables itself
        build(tiny)
        build(tiny)
        assert exact._compiled[3] is None and len(fixes) == compiled  # a joint-only process
        build(tiny, True)
        lit, made = exact._compiled[3], len(fixes)
        assert lit is not None and LIT[kind] in fixes[compiled:]
        build(tiny, True)
        build(tiny)
        assert exact._compiled[3] is lit and len(fixes) == made
        assert len(compiles) == 1

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
        build_miqcp(dataclasses.replace(scn))  # an equal scenario is a hit
        other = with_d_max(scn, 2.0)
        build_miqcp(other)
        assert compiles == [
            ("miqcp", scn, False), ("milp", scn, False), ("miqcp", scn, True),
            ("miqcp", scn, False), ("miqcp", other, False),
        ]

    @pytest.mark.parametrize("kind", ["miqcp", "milp"])
    def test_the_kept_model_holds_no_scenario_rows(self, tiny, compiles, kind):
        model = BUILDERS[kind](tiny, True)
        kept = exact._compiled[1]
        own = {"source_split", "dest_split", "vertex_capacity"}
        assert {c.family for c in kept.constraints.values()}.isdisjoint(own)
        assert {c.family for c in model.constraints.values()} >= own
        assert kept.name == "model" and model.name == f"tiny-{kind}"
        assert kept.variables[LIT[kind]][3:] == (0.0, 1.0)

    def test_a_miss_frees_the_old_model_before_it_builds(self, tiny, monkeypatch):
        build_miqcp(tiny)
        old = weakref.ref(exact._compiled[1])
        real, alive = exact._compile_miqcp, []

        def spy(scn, prune):
            alive.append(old() is not None)
            return real(scn, prune)

        monkeypatch.setattr(exact, "_compile_miqcp", spy)
        build_miqcp(with_d_max(tiny, 2.0))
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


def fresh(build, scn, prune):
    """``build``'s joint model for ``scn``, from a compile of ``scn`` itself."""
    exact._compiled = None
    return build(scn, prune_pinned_tuples=prune)


def same(a, b, tables=("variables", "constraints", "sos2")):
    """Assert that models ``a`` and ``b`` hold the same, tables in the same order."""
    for table in tables:
        x, y = getattr(a, table), getattr(b, table)
        assert x == y and list(x) == list(y), (a.name, table)
    assert (a.name, a.kind, a.objective, a.sense, a.objective_parts) == (
        b.name, b.kind, b.objective, b.sense, b.objective_parts
    )


def keyed_changes(scn):
    """Copies of ``scn`` that each change one field the compiled rows read."""
    sub, req = scn.substrate, scn.requests[0]
    fiber = sub.edges[0]
    longer = sub.delay[fiber] + 0.05
    arc, rate = next(iter(req.initial_rates.items()))

    def on_sub(**kw):
        return dataclasses.replace(scn, substrate=dataclasses.replace(sub, **kw))

    def on_req(**kw):
        return dataclasses.replace(scn, requests=(dataclasses.replace(req, **kw),))

    changes = {
        "edge_delay": on_sub(delay={**sub.delay, fiber: longer, fiber[::-1]: longer}),
        "wavelengths": on_sub(wavelengths=sub.wavelengths + 1),
        "line_rate": on_sub(line_rate=sub.line_rate * 1.5),
        "initial_rate": on_req(initial_rates={**req.initial_rates, arc: rate * 0.9}),
        "d_max": on_req(d_max=req.d_max + 0.5),
        "weight": dataclasses.replace(scn, weights=dataclasses.replace(scn.weights, lateness=2.0)),
        "forwarding_eps": dataclasses.replace(
            scn, approx=dataclasses.replace(scn.approx, forwarding=QueueApprox(eps=0.5))
        ),
        "lambda_min": dataclasses.replace(
            scn, big_m=dataclasses.replace(scn.big_m, lambda_min=0.01)
        ),
    }
    if req.d_max == 0.0:
        # -0.0 == 0.0, but the delay rows' right-hand side prints as "-0"
        changes["d_max_sign"] = on_req(d_max=-0.0)
    return changes


def unkeyed_changes(scn):
    """Copies of ``scn`` that change a field only the scenario rows read."""
    sub, req = scn.substrate, scn.requests[0]
    (node, v, share), *rest = req.source_restrictions
    moved = next(u for u in sub.vertices if u != v)
    return {
        "capacity": dataclasses.replace(scn, substrate=dataclasses.replace(
            sub, capacity={u: c + 1.0 for u, c in sub.capacity.items()}
        )),
        "restrictions": dataclasses.replace(scn, requests=(dataclasses.replace(
            req, source_restrictions=((node, moved, share), *rest)
        ),)),
        "name": dataclasses.replace(scn, name=f"{scn.name}-renamed"),
    }


KEY_CASES = ["path6-perm0", "chain0", "chain1", "chain2"]


def key_case(path6, case):
    if case.startswith("chain"):
        return random_chain_scenario(random.Random(int(case[5:])), case)
    return permutation_scenario(path6, 0, topology_name="path6")


class TestCompileKey:
    """The kept model is reused exactly when the compiled rows would come out
    the same: a change to a keyed field misses, any other change hits and
    gives what a fresh compile gives."""

    @pytest.mark.parametrize("kind", ["miqcp", "milp"])
    @pytest.mark.parametrize("case", KEY_CASES)
    def test_a_keyed_change_misses(self, path6, compiles, kind, case):
        base = key_case(path6, case)
        build = BUILDERS[kind]
        build(base)
        kept = exact._compiled
        other = BUILDERS["milp" if kind == "miqcp" else "miqcp"]
        misses = [(what, build, scn, False) for what, scn in keyed_changes(base).items()]
        misses += [("formulation", other, base, False), ("pruning", build, base, True)]
        for what, build_it, scn, prune in misses:
            exact._compiled = kept
            n = len(compiles)
            build_it(scn, prune_pinned_tuples=prune)
            assert len(compiles) == n + 1, what

    @pytest.mark.parametrize("prune", [False, True])
    @pytest.mark.parametrize("kind", ["miqcp", "milp"])
    @pytest.mark.parametrize("case", KEY_CASES)
    def test_an_unkeyed_change_hits_and_equals_a_fresh_compile(
        self, path6, compiles, kind, case, prune
    ):
        base = key_case(path6, case)
        build = BUILDERS[kind]
        build(base, prune_pinned_tuples=prune)
        kept = exact._compiled
        # the MILP's partitions read the capacities, pruning reads the restrictions
        keyed = {"capacity"} if kind == "milp" else set()
        if prune:
            keyed.add("restrictions")
        for what, scn in unkeyed_changes(base).items():
            exact._compiled = kept
            n = len(compiles)
            joint = build(scn, prune_pinned_tuples=prune)
            fixed = build(scn, True, prune_pinned_tuples=prune)
            assert len(compiles) == n + (what in keyed), what
            same(joint, fresh(build, scn, prune))
            same(fixed, build(scn, True, prune_pinned_tuples=prune))


# (formulation, prune_pinned_tuples, path6 permutations, expected hits).
# Permutations 0 and 1, and 57 and 58, share their capacities, so they hit
# the MILP's kept model; 0 and 20, and 57 and 109, swap the two capacities
# and keep the restrictions, so they hit the pruned MIQCP's; a repeated
# permutation, under another name, hits the pruned MILP's.
SWEEPS = [
    ("miqcp", False, range(120), 119),
    ("milp", False, (0, 1, 57, 58), 2),
    ("miqcp", True, (0, 20, 57, 109), 2),
    ("milp", True, (0, 0), 1),
]


@pytest.mark.slow
@pytest.mark.parametrize("kind, prune, perms, hits", SWEEPS)
def test_every_hit_equals_a_fresh_compile(path6, compiles, kind, prune, perms, hits):
    build = BUILDERS[kind]
    seen = 0
    for i, perm in enumerate(perms):
        scn = permutation_scenario(path6, perm, topology_name=f"path6-{i}")
        n = len(compiles)
        joint = build(scn, prune_pinned_tuples=prune)
        fixed = build(scn, True, prune_pinned_tuples=prune)
        seen += len(compiles) == n
        ref = fresh(build, scn, prune)
        ref_fixed = build(scn, True, prune_pinned_tuples=prune)
        same(joint, ref)
        # a fixed model holds its joint model's row records, so its rows
        # compare cheaply with those, and equal the reference's by the line above
        assert fixed.constraints == joint.constraints and ref_fixed.constraints == ref.constraints
        same(fixed, ref_fixed, ("variables", "sos2"))
    assert seen == hits


def reference_scenario_rows(m, scn):
    """The reference: ``add_scenario_rows`` expanding and merging every row anew."""
    V = scn.substrate.vertices
    lam = naming.lam_name
    for ri, req in enumerate(scn.requests):
        g = req.graph
        for (n, v, prop) in req.source_restrictions:
            terms = []
            for a in g.out_arcs(n):
                for v2, vp, wp in itertools.product(V, repeat=3):
                    terms.append((prop, lam(ri, a, v2, vp, v2, wp)))
                for vp, wp in itertools.product(V, repeat=2):
                    terms.append((-1.0, lam(ri, a, v, vp, v, wp)))
            m.add_con(f"source_split_r{ri}_{naming.node_token(n)}_{v}", "source_split",
                      terms, "=", 0.0)
        for (n, v, prop) in req.dest_restrictions:
            terms = []
            for a in g.in_arcs(n):
                for v2, vp, w in itertools.product(V, repeat=3):
                    terms.append((prop, lam(ri, a, v2, vp, w, vp)))
                for v2, w in itertools.product(V, repeat=2):
                    terms.append((-1.0, lam(ri, a, v2, v, w, v)))
            m.add_con(f"dest_split_r{ri}_{naming.node_token(n)}_{v}", "dest_split",
                      terms, "=", 0.0)
    for v in V:
        terms = []
        for ri, req in enumerate(scn.requests):
            g = req.graph
            for n in g.functional:
                terms.append((g.node_alpha(n), naming.mu_name(ri, n, v)))
                beta = g.node_beta(n)
                if beta:
                    terms.append((beta, naming.y_name(ri, n, v)))
        if terms:
            m.add_con(f"vertex_capacity_{v}", "vertex_capacity", terms, "<=", scn.substrate.cap(v))


def scenario_records(model):
    """The scenario rows of ``model`` in order, every float by ``float.hex``."""
    return [
        (c.name, c.family, [(coef.hex(), v) for coef, v in c.lin], c.sense, float(c.rhs).hex(),
         c.products)
        for c in model.constraints.values()
        if c.family in ("source_split", "dest_split", "vertex_capacity")
    ]


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["miqcp", "milp"])
def test_scenario_rows_equal_the_expansion_of_every_row(path6, kind):
    # the MILP compiles once per capacity assignment, 30 times in all
    exact._compiled = None
    build = BUILDERS[kind]
    for perm in range(120):
        scn = permutation_scenario(path6, perm, topology_name="path6")
        for fixed in (False, True):
            model = build(scn, fixed)
            ref = exact._compiled[1].copy()
            reference_scenario_rows(ref, scn)
            assert scenario_records(model) == scenario_records(ref) != [], (perm, fixed)
