"""Exact delay evaluation and solution validation against the generated models."""
from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import random

import pytest

from nfvlight import (
    ForwardingGraph,
    Request,
    Scenario,
    build_milp,
    build_miqcp,
    builtin_topology,
    exact,
    motivation_scenario,
    naming,
    optmodel,
    permutation_scenario,
    validate,
)
from nfvlight.approx import shortest_paths
from nfvlight.delays import (
    EmbeddingView,
    Violation,
    _TOL,
    build_embedding_view,
    exact_path_delay,
    request_lateness,
)
from nfvlight.optmodel import constraint_violation
from nfvlight.oracle import as_assignment, solve_exhaustive
from conftest import make_tiny, random_chain_scenario


class TestEmbeddingView:
    def test_reconstructs_oracle_embedding(self, tiny, tiny_joint):
        values = as_assignment(tiny_joint, tiny, "miqcp")
        view = build_embedding_view(tiny, "miqcp", values)
        assert view.embedded == {0: True}
        assert view.routes[(0, ("s", "f"), "v1", "v2")] == (("v1", "v2"),)
        assert view.routes[(0, ("f", "d"), "v2", "v3")] == (("v2", "v3"),)
        assert view.loads[("v1", "v2")] == pytest.approx(2.0)
        assert view.psi[("v1", "v2")] == pytest.approx(0.1)
        assert view.service[(0, "f", "v2")] == pytest.approx(8.0, abs=1e-9)
        assert not view.warnings

    def test_milp_view_takes_propagation_from_route_table(self, tiny, tiny_joint):
        values = as_assignment(tiny_joint, tiny, "milp")
        view = build_embedding_view(tiny, "milp", values)
        # psi covers only the lightpaths that are actually lit
        assert view.established == {
            ("v1", "v2"), ("v2", "v1"), ("v2", "v3"), ("v3", "v2"),
        }
        assert view.psi[("v1", "v2")] == pytest.approx(0.1)
        assert view.psi[("v2", "v3")] == pytest.approx(0.2)
        assert ("v1", "v3") not in view.psi

    def test_broken_route_warns(self, tiny, tiny_joint):
        values = dict(as_assignment(tiny_joint, tiny, "miqcp"))
        # strand the first flow: its rate now sits on a hop the walk from
        # v1 can never reach
        values["lam_r0_a{s,f}_v1_v2_v1_v2"] = 0.0
        values["lam_r0_a{s,f}_v1_v2_v2_v3"] = 2.0
        view = build_embedding_view(tiny, "miqcp", values)
        assert "flow (0, ('s', 'f'), 'v1', 'v2') has a broken route" in view.warnings


class TestExactDelay:
    def test_sojourns_plus_propagation(self, tiny, tiny_joint):
        values = as_assignment(tiny_joint, tiny, "miqcp")
        view = build_embedding_view(tiny, "miqcp", values)
        delay = exact_path_delay(view, tiny, 0, ("s", "f", "d"), ("v1", "v2", "v3"))
        mu = view.service[(0, "f", "v2")]
        expected = (0.1 + 1 / (4 - 2)) + (0.2 + 1 / (4 - 2)) + 1 / (mu - 2)
        assert delay == pytest.approx(expected)

    def test_saturated_queue_is_unstable(self, tiny, tiny_joint):
        values = dict(as_assignment(tiny_joint, tiny, "miqcp"))
        values["mu_r0_n{f}_v2"] = 2.0  # service equals arrival rate
        view = build_embedding_view(tiny, "miqcp", values)
        delay = exact_path_delay(view, tiny, 0, ("s", "f", "d"), ("v1", "v2", "v3"))
        assert math.isinf(delay)

    def test_lateness_floors_at_zero(self, tiny_joint):
        relaxed = dataclasses.replace(
            make_tiny(), requests=(dataclasses.replace(make_tiny().requests[0], d_max=50.0),)
        )
        values = as_assignment(tiny_joint, relaxed, "miqcp")
        view = build_embedding_view(relaxed, "miqcp", values)
        assert request_lateness(view, relaxed) == {0: 0.0}

    def test_branching_destinations_take_worst_branch(self):
        # split the destination across both end vertices of the line
        base = make_tiny()
        req = dataclasses.replace(
            base.requests[0],
            dest_restrictions=(("d", "v1", 0.5), ("d", "v3", 0.5)),
        )
        scn = dataclasses.replace(base, requests=(req,))
        res = solve_exhaustive(scn)
        values = as_assignment(res, scn, "miqcp")
        view = build_embedding_view(scn, "miqcp", values)
        lateness = request_lateness(view, scn)[0]
        long_branch = exact_path_delay(view, scn, 0, ("s", "f", "d"), ("v1", "v2", "v3"))
        short_branch = exact_path_delay(view, scn, 0, ("s", "f", "d"), ("v1", "v2", "v1"))
        assert lateness == pytest.approx(max(long_branch, short_branch) - 1.0)
        assert lateness == pytest.approx(res.lateness)


def enumerated_lateness(view: EmbeddingView, scn: Scenario) -> dict[int, float]:
    """The reference: list every active embedding tuple and time each one whole."""
    out = {}
    for ri, req in enumerate(scn.requests):
        worst = 0.0
        if view.embedded.get(ri):
            actives: dict[tuple[str, str], list[tuple[str, str]]] = {}
            for (rk, ak, v, vp) in view.routes:
                if rk == ri:
                    actives.setdefault(ak, []).append((v, vp))
            for path in req.graph.paths():
                arcs = [(path[j], path[j + 1]) for j in range(len(path) - 1)]
                if any(a not in actives for a in arcs):
                    continue
                tuples = [list(pair) for pair in sorted(actives[arcs[0]])]
                for a in arcs[1:]:
                    tuples = [
                        t + [vp] for t in tuples for (v, vp) in sorted(actives[a]) if v == t[-1]
                    ]
                for t in tuples:
                    worst = max(worst, exact_path_delay(view, scn, ri, path, tuple(t)) - req.d_max)
        out[ri] = max(0.0, worst)
    return out


def chain_scenario(functions: int) -> Scenario:
    """path6 carrying one chain of ``functions`` functions from v1 to v6."""
    nodes = ("s", *(f"f{k}" for k in range(1, functions + 1)), "d")
    graph = ForwardingGraph(nodes=nodes, arcs=tuple(zip(nodes, nodes[1:])))
    req = Request(
        graph=graph, d_max=1.0, initial_rates={("s", "f1"): 1.0},
        source_restrictions=(("s", "v1", 1.0),), dest_restrictions=(("d", "v6", 1.0),),
    )
    sub = dataclasses.replace(builtin_topology("path6"), capacity={"v3": 50.0})
    return Scenario(substrate=sub, requests=(req,), name=f"chain{functions}")


def all_active_view(scn: Scenario, rng: random.Random) -> EmbeddingView:
    """Every step between two vertices active on every arc, over direct lightpaths."""
    V = scn.substrate.vertices
    view = EmbeddingView(embedded={0: True})
    for a in scn.requests[0].graph.arcs:
        for v in V:
            for vp in V:
                view.routes[(0, a, v, vp)] = () if v == vp else ((v, vp),)
    for v in V:
        for vp in V:
            if v != vp:
                view.established.add((v, vp))
                view.psi[(v, vp)] = rng.uniform(0.05, 0.5)
                view.loads[(v, vp)] = rng.uniform(0.0, 3.5)
    for n in scn.requests[0].graph.functional:
        for v in V:
            view.arrivals[(0, n, v)] = rng.uniform(0.0, 2.0)
            view.service[(0, n, v)] = view.arrivals[(0, n, v)] + rng.uniform(0.2, 4.0)
    return view


def oracle_views(scn: Scenario):
    for fixed in (False, True):
        res = solve_exhaustive(scn, fixed)
        for kind in ("miqcp", "milp"):
            yield build_embedding_view(scn, kind, as_assignment(res, scn, kind))


def assert_close(got: dict[int, float], want: dict[int, float]) -> None:
    assert got.keys() == want.keys()
    for ri in want:
        assert math.isclose(got[ri], want[ri], rel_tol=1e-12), (ri, got[ri], want[ri])


class TestLongestPath:
    """``request_lateness`` against the enumeration of every active tuple."""

    def test_fingerprint_cases_match_bit_for_bit(self, path6):
        for perm in range(20):
            scn = permutation_scenario(path6, perm, topology_name="path6")
            for view in oracle_views(scn):
                assert request_lateness(view, scn) == enumerated_lateness(view, scn), perm

    @pytest.mark.parametrize("topology", ["path6", "cycle6", "barbell6"])
    def test_other_permutations_match(self, topology):
        sub = builtin_topology(topology)
        for perm in range(20 if topology == "path6" else 0, 120, 9):
            scn = permutation_scenario(sub, perm, topology_name=topology)
            for view in oracle_views(scn):
                assert_close(request_lateness(view, scn), enumerated_lateness(view, scn))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_chains_match(self, seed):
        scn = random_chain_scenario(random.Random(seed), f"lp{seed}")
        for view in oracle_views(scn):
            assert_close(request_lateness(view, scn), enumerated_lateness(view, scn))

    @pytest.mark.parametrize("seed", range(8))
    def test_perturbed_views_match(self, seed, path6):
        rng = random.Random(seed)
        chain = chain_scenario(2)
        perm = permutation_scenario(path6, rng.randrange(120), topology_name="path6")
        cases = [(all_active_view(chain, rng), chain)]
        cases += [(view, perm) for view in oracle_views(perm)]
        for view, scn in cases:
            for key in view.service:
                view.service[key] *= rng.uniform(0.8, 1.2)
            for key in view.loads:
                view.loads[key] *= rng.uniform(0.8, 1.2)
            assert_close(request_lateness(view, scn), enumerated_lateness(view, scn))

    def test_more_tuples_than_the_old_cap(self):
        # five arcs over six vertices, every step active: 6**6 = 46,656 tuples
        scn = chain_scenario(4)
        view = all_active_view(scn, random.Random(7))
        got = request_lateness(view, scn)
        assert got == enumerated_lateness(view, scn)
        assert got[0] > 0.0
        assert not view.warnings


class TestValidate:
    def test_clean_assignment_passes(self, tiny, tiny_joint):
        m = build_miqcp(tiny)
        rep = validate(tiny, m, as_assignment(tiny_joint, tiny, "miqcp"))
        assert rep.ok and not rep.violations
        assert rep.exact_lateness == {0: pytest.approx(0.46666666666666656)}
        assert rep.model_max_lateness == pytest.approx(rep.max_exact_lateness)
        assert rep.approximation_error == pytest.approx(0.0, abs=1e-12)
        assert not rep.unstable

    def test_constraint_violation_reported_with_family(self, tiny, tiny_joint):
        m = build_miqcp(tiny)
        values = dict(as_assignment(tiny_joint, tiny, "miqcp"))
        values["lam_r0_a{s,f}_v1_v2_v1_v2"] = 0.5  # starve the initial rate
        rep = validate(tiny, m, values)
        assert not rep.ok
        families = {v.family for v in rep.violations}
        assert "initial_rate" in families
        worst = max(rep.violations, key=lambda v: v.amount)
        assert worst.amount > 1.0

    def test_variable_bound_violation_reported(self, tiny, tiny_joint):
        m = build_miqcp(tiny)
        values = dict(as_assignment(tiny_joint, tiny, "miqcp"))
        values["x3_r0"] = -1.0  # lateness is nonnegative by construction
        rep = validate(tiny, m, values)
        bound = [v for v in rep.violations if v.family == "variable_bounds"]
        assert [v.name for v in bound] == ["x3_r0"]
        assert bound[0].amount == pytest.approx(1.0)

    def test_sos2_adjacency_enforced(self, tiny, tiny_joint):
        m = build_milp(tiny)
        values = dict(as_assignment(tiny_joint, tiny, "milp"))
        members = m.sos2["sos2_proc_r0_n{f}_v2"].members
        assert len(members) == 3
        for name in members:
            values[name] = 0.0
        values[members[0]], values[members[2]] = 0.5, 0.5  # skip the middle knot
        rep = validate(tiny, m, values)
        hits = [v for v in rep.violations if v.family == "sos2_adjacency"]
        assert [v.name for v in hits] == ["sos2_proc_r0_n{f}_v2"]

    def test_unstable_flag_and_json_nulls(self, tiny, tiny_joint):
        m = build_miqcp(tiny)
        values = dict(as_assignment(tiny_joint, tiny, "miqcp"))
        values["mu_r0_n{f}_v2"] = 2.0
        rep = validate(tiny, m, values)
        assert rep.unstable
        assert math.isinf(rep.max_exact_lateness)
        doc = json.loads(rep.to_json())
        assert doc["max_exact_lateness"] is None
        assert doc["approximation_error"] is None
        assert doc["unstable"] is True

    @pytest.mark.parametrize("kind", ["miqcp", "milp"])
    @pytest.mark.parametrize("var", ["x4", "mu_r0_n{f}_v2", "x3_r0", "lam_r0_a{s,f}_v1_v2_v1_v2"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_are_never_ok(self, tiny, tiny_joint, kind, var, bad):
        m = (build_miqcp if kind == "miqcp" else build_milp)(tiny)
        values = dict(as_assignment(tiny_joint, tiny, kind))
        values[var] = bad
        rep = validate(tiny, m, values)
        assert not rep.ok
        assert [v.name for v in rep.violations if v.family == "non_finite"] == [var]
        assert "Infinity" not in rep.to_json() and "NaN" not in rep.to_json()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_partner_of_a_zero_factor_is_reported(self, tiny, tiny_joint, bad):
        # Evaluation skips a product whose first factor is 0.0, so this value
        # never reaches the delay rows; it must still be reported.
        m = build_miqcp(tiny)
        values = dict(as_assignment(tiny_joint, tiny, "miqcp"))
        var = naming.l_name("v1", "v3", ("v1", "v2"), 0)
        partners = [
            a for con in m.constraints.values() for _, a, b in con.bilinear if b == var
        ]
        assert partners and all(values.get(z, 0.0) == 0.0 for z in partners)
        values[var] = bad
        rep = validate(tiny, m, values)
        assert not rep.ok
        assert [v.name for v in rep.violations if v.family == "non_finite"] == [var]

    @pytest.mark.parametrize("kind", ["miqcp", "milp"])
    def test_nan_service_rate_is_not_timed_as_on_time(self, tiny, tiny_joint, kind):
        m = (build_miqcp if kind == "miqcp" else build_milp)(tiny)
        values = dict(as_assignment(tiny_joint, tiny, kind))
        values["mu_r0_n{f}_v2"] = math.nan
        rep = validate(tiny, m, values)
        assert rep.unstable
        assert math.isinf(rep.exact_lateness[0])

    def test_missing_variables_default_to_zero(self, tiny):
        m = build_miqcp(tiny)
        rep = validate(tiny, m, {})
        # all-zero satisfies the flow block trivially but breaks the
        # forwarding sojourn definition, which needs eta >= 1/line_rate
        assert not rep.ok
        assert {v.family for v in rep.violations} == {"forwarding_sojourn"}
        # nothing embedded, so the exact side reports a clean zero
        assert rep.exact_lateness == {0: 0.0}
        assert rep.per_request_error == {0: None}

    def test_milp_report_carries_model_and_exact_lateness(self, perm0, perm0_joint):
        m = build_milp(perm0)
        rep = validate(perm0, m, as_assignment(perm0_joint, perm0, "milp"))
        assert rep.ok
        assert rep.model_kind == "milp"
        assert rep.model_max_lateness >= rep.max_exact_lateness
        assert rep.per_request_error[0] == pytest.approx(rep.approximation_error)


class TestDroppedFamilies:
    """The warnings the re-timing gives when a whole variable family is missing."""

    @pytest.fixture(scope="class", params=["tiny", "motivation"])
    def case(self, request):
        scn = request.getfixturevalue(request.param)
        return scn, solve_exhaustive(scn)

    @staticmethod
    def report_without(case, kind, prefix):
        scn, res = case
        build = build_miqcp if kind == "miqcp" else build_milp
        values = {
            name: val for name, val in as_assignment(res, scn, kind).items()
            if not name.startswith(prefix)
        }
        return validate(scn, build(scn), values)

    @pytest.mark.parametrize("kind", ["miqcp", "milp"])
    def test_routes_without_lightpaths(self, case, kind):
        rep = self.report_without(case, kind, "l_")
        assert not rep.ok
        assert any(" rides a missing lightpath " in w for w in rep.warnings)
        assert len(rep.warnings) == len(set(rep.warnings))
        assert "lightpath_capacity" in {v.family for v in rep.violations}

    @pytest.mark.parametrize("kind", ["miqcp", "milp"])
    def test_embedded_without_flows(self, case, kind):
        rep = self.report_without(case, kind, "lam_")
        assert not rep.ok
        assert "request 0 is embedded but has no active path" in rep.warnings
        assert "initial_rate" in {v.family for v in rep.violations}


def dense_violations(model, values: dict[str, float]) -> list[Violation]:
    """The reference: every row, variable and SOS2 set checked, in table order."""
    violations = []
    for con in model.constraints.values():
        amt = constraint_violation(con, values)
        if amt > _TOL:
            violations.append(Violation(con.name, con.family, amt))
    for var in model.variables.values():
        val = values[var.name]
        if not math.isfinite(val):
            violations.append(Violation(var.name, "non_finite", math.inf))
            continue
        gap = max(var.lb - val, (val - var.ub) if var.ub is not None else 0.0)
        if gap > _TOL:
            violations.append(Violation(var.name, "variable_bounds", gap))
    for sos in model.sos2.values():
        live = [i for i, name in enumerate(sos.members) if abs(values[name]) > _TOL]
        if len(live) > 2 or (len(live) == 2 and live[1] - live[0] != 1):
            violations.append(Violation(sos.name, "sos2_adjacency", float(len(live))))
    return violations


def dense_view(scn: Scenario, kind: str, values: dict[str, float]) -> EmbeddingView:
    """The reference: every name formatted and read, loads summed over every flow."""
    sub = scn.substrate
    V = sub.vertices
    view = EmbeddingView()
    thresh = scn.lambda_min / 2.0
    for ri, req in enumerate(scn.requests):
        g = req.graph
        view.embedded[ri] = values.get(naming.x_name(2, ri), 0.0) > 0.5
        for a in g.arcs:
            for v, vp in itertools.product(V, repeat=2):
                hops = []
                for w, wp in itertools.product(V, repeat=2):
                    val = values.get(naming.lam_name(ri, a, v, vp, w, wp), 0.0)
                    if w != wp:
                        view.loads[(w, wp)] = view.loads.get((w, wp), 0.0) + val
                    if val > thresh:
                        hops.append((w, wp))
                if not hops:
                    continue
                key = (ri, a, v, vp)
                if v == vp and (v, v) in hops:
                    if {h for h in hops if h != (v, v)}:
                        view.warnings.append(f"flow {key} mixes a stationary and a routed path")
                    view.routes[key] = ()
                    continue
                by_tail: dict[str, str] = {}
                for (w, wp) in hops:
                    if w in by_tail:
                        view.warnings.append(f"flow {key} branches at {w}")
                    by_tail[w] = wp
                route = []
                cur = v
                for _ in range(len(V)):
                    if cur == vp:
                        break
                    nxt = by_tail.pop(cur, None)
                    if nxt is None:
                        break
                    route.append((cur, nxt))
                    cur = nxt
                if cur != vp or by_tail:
                    view.warnings.append(f"flow {key} has a broken route")
                    continue
                view.routes[key] = tuple(route)
        for n in g.functional:
            for v in V:
                total = 0.0
                for a in g.in_arcs(n):
                    for vp, wp in itertools.product(V, repeat=2):
                        total += values.get(naming.lam_name(ri, a, vp, v, wp, v), 0.0)
                view.arrivals[(ri, n, v)] = total
                view.service[(ri, n, v)] = values.get(naming.mu_name(ri, n, v), 0.0)
    pairs_ne = [(w, wp) for w in V for wp in V if w != wp]
    if kind == "miqcp":
        for (w, wp) in pairs_ne:
            delay, lit = 0.0, False
            for e in sub.edges:
                for gamma in range(sub.wavelengths):
                    if values.get(naming.l_name(w, wp, e, gamma), 0.0) > 0.5:
                        lit = True
                        delay += sub.delay[e]
            if lit:
                view.established.add((w, wp))
                view.psi[(w, wp)] = delay
    else:
        table = shortest_paths(sub)
        for (w, wp) in pairs_ne:
            if any(values.get(naming.l_wa_name(w, wp, gamma), 0.0) > 0.5
                   for gamma in range(sub.wavelengths)):
                view.established.add((w, wp))
                view.psi[(w, wp)] = table.dist[(w, wp)]
    for key, route in view.routes.items():
        for hop in route:
            if hop not in view.established:
                view.warnings.append(f"flow {key} rides a missing lightpath {hop}")
    return view


def hexed(d: dict) -> list:
    """A dict's items in order, floats as ``float.hex``."""
    return [(k, v.hex() if isinstance(v, float) else v) for k, v in d.items()]


def assert_same_view(got: EmbeddingView, want: EmbeddingView) -> None:
    assert list(got.embedded.items()) == list(want.embedded.items())
    assert list(got.routes.items()) == list(want.routes.items())
    for name in ("loads", "psi", "arrivals", "service"):
        assert hexed(getattr(got, name)) == hexed(getattr(want, name)), name
    assert got.established == want.established
    assert got.warnings == want.warnings


def assert_matches_dense(scn: Scenario, model, raw: dict[str, float]):
    """``validate`` equals the dense references field by field; its report."""
    rep = validate(scn, model, raw)
    values = {name: raw.get(name, 0.0) for name in model.variables}
    want = [(v.name, v.family, v.amount.hex()) for v in dense_violations(model, values)]
    assert [(v.name, v.family, v.amount.hex()) for v in rep.violations] == want
    view = dense_view(scn, model.kind, values)
    assert_same_view(build_embedding_view(scn, model.kind, values), view)
    assert hexed(rep.exact_lateness) == hexed(request_lateness(view, scn))
    assert rep.warnings == view.warnings
    return rep


ODD_VALUES = (0.0, -0.0, math.nan, math.inf, -math.inf)


def perturbed(values: dict[str, float], model, rng: random.Random) -> dict[str, float]:
    """``values`` with some live variables zeroed and some variables reset at random."""
    out = dict(values)
    live = sorted(name for name, v in values.items() if v)
    for name in rng.sample(live, rng.randint(0, min(4, len(live)))):
        out[name] = rng.choice((0.0, -0.0))
    for name in rng.sample(list(model.variables), rng.randint(1, 8)):
        out[name] = rng.choice(ODD_VALUES) if rng.random() < 0.4 else rng.uniform(-3.0, 3.0)
    return out


@functools.lru_cache(maxsize=None)
def differential_scenario(name: str) -> Scenario:
    if name == "tiny":
        return make_tiny()
    if name == "motivation":
        return motivation_scenario()
    return permutation_scenario(builtin_topology("path6"), int(name[6:]), topology_name="path6")


@functools.lru_cache(maxsize=None)
def oracle_answer(name: str, fixed: bool):
    return solve_exhaustive(differential_scenario(name), fixed)


BUILDS = {"miqcp": build_miqcp, "milp": build_milp}


class TestSparseValidation:
    """``validate`` checks only the rows a value can break; the dense loop is the reference."""

    # formulation first, so that consecutive builds hit the compile cache
    @pytest.mark.parametrize("name, kind, mode", [
        (name, kind, mode) for kind, name, mode in itertools.product(
            ["miqcp", "milp"], ["tiny", "motivation", "path6-0", "path6-41", "path6-97"],
            ["joint", "fixed"],
        )
        # the default partitions cannot carry this answer: as_assignment refuses it
        if (name, kind, mode) != ("motivation", "milp", "fixed")
    ])
    def test_perturbed_assignments_match_the_dense_check(self, name, kind, mode):
        scn = differential_scenario(name)
        fixed = mode == "fixed"
        model = BUILDS[kind](scn, fixed)
        values = as_assignment(oracle_answer(name, fixed), scn, kind)
        assert assert_matches_dense(scn, model, values).ok
        assert not assert_matches_dense(scn, model, {}).ok  # rows that 0.0 breaks
        rng = random.Random(f"{name}-{kind}-{mode}")
        for _ in range(4):
            assert_matches_dense(scn, model, perturbed(values, model, rng))

    @pytest.mark.parametrize("name", ["tiny", "path6-41"])
    def test_live_first_factor_and_live_partner_of_a_zero_one(self, name):
        scn = differential_scenario(name)
        model = build_miqcp(scn)
        values = as_assignment(oracle_answer(name, False), scn, "miqcp")
        products = [(con, a, terms) for con in model.constraints.values()
                    for a, terms in con.products
                    if not values.get(a) and con.sense == "<="
                    and sum(c * values.get(b, 0.0) for c, b in terms) > 0]
        con, a, terms = products[len(products) // 2]
        partner = dict(values)
        partner[terms[0][1]] = 7.0  # b is live, a is 0.0: the product adds nothing
        assert_matches_dense(scn, model, partner)
        first = dict(values)
        first.update((v, 0.0) for _, v in con.lin)
        first[a] = 1e3  # only a is live in the row, so the row is read through a
        rep = assert_matches_dense(scn, model, first)
        assert con.name in {v.name for v in rep.violations}

    @pytest.mark.parametrize("kind", ["miqcp", "milp"])
    def test_rows_added_after_a_copy(self, kind):
        scn = differential_scenario("path6-41")
        model = BUILDS[kind](scn)
        values = dict(as_assignment(oracle_answer("path6-41", False), scn, kind))
        assert_matches_dense(scn, model, values)
        values[naming.mu_name(0, "f", "v3")] = 1e4  # breaks a scenario row of the copy
        rep = assert_matches_dense(scn, model, values)
        assert "vertex_capacity" in {v.family for v in rep.violations}
        terms, _ = next(iter(model.objective_parts.values()))
        pinned = model.copy()
        value = optmodel.objective_value(pinned, values)
        pinned.add_con("objective_pin_o0", "objective_pin", terms, "=", value + 1.0)
        rep = assert_matches_dense(scn, pinned, values)
        assert "objective_pin_o0" in {v.name for v in rep.violations}
        twice = pinned.copy()  # a copy of a copy
        twice.add_con("objective_pin_o1", "objective_pin", terms, "=", value - 1.0)
        rep = assert_matches_dense(scn, twice, values)
        assert {"objective_pin_o0", "objective_pin_o1"} <= {v.name for v in rep.violations}
        # the original gains a row after it was copied, and is checked after its copies
        model.add_con("objective_pin_o2", "objective_pin", terms, "=", value + 2.0)
        rep = assert_matches_dense(scn, model, values)
        assert "objective_pin_o2" in {v.name for v in rep.violations}
        assert_matches_dense(scn, model.copy(), values)

    @pytest.mark.parametrize("kind", ["miqcp", "milp"])
    def test_a_replaced_shared_record_is_caught(self, kind):
        scn = differential_scenario("path6-41")
        model = BUILDS[kind](scn)
        values = as_assignment(oracle_answer("path6-41", False), scn, kind)
        assert assert_matches_dense(scn, model, values).ok  # the shared index is built
        other = model.copy()
        con = next(c for c in model.constraints.values()
                   if c.sense == "<=" and c.rhs == 0.0 and all(not values.get(v) for _, v in c.lin)
                   and not c.products)
        other.constraints[con.name] = con._replace(rhs=-1.0)
        rep = assert_matches_dense(scn, other, values)
        assert [(v.name, v.amount) for v in rep.violations] == [(con.name, 1.0)]
        # the original still reads its own rows
        assert assert_matches_dense(scn, model, values).ok

    def test_index_is_built_once_per_compiled_model(self, monkeypatch, path6):
        builds, var_builds = [], []
        for name, out in (("_build_row_index", builds), ("_build_var_index", var_builds)):
            real = getattr(optmodel, name)

            def spy(records, real=real, out=out):
                out.append(len(records))
                return real(records)

            monkeypatch.setattr(optmodel, name, spy)
        monkeypatch.setattr(exact, "_compiled", None)
        scenarios = [permutation_scenario(path6, perm, topology_name="path6")
                     for perm in range(20)]
        build_miqcp(scenarios[0])
        assert builds == [] and var_builds == []  # building alone builds no index
        for scn in scenarios:
            for fixed in (False, True):
                res = solve_exhaustive(scn, fixed)
                validate(scn, build_miqcp(scn, fixed), as_assignment(res, scn, "miqcp"))
        assert len(builds) == 1
        assert len(var_builds) == 2  # one per mode
        monkeypatch.setattr(exact, "_compiled", None)
        scn = scenarios[0]
        model = build_miqcp(scn)
        assert len(builds) == 1
        values = as_assignment(solve_exhaustive(scn), scn, "miqcp")
        validate(scn, model, values)
        assert len(builds) == 1  # a model validated once pays for no index
        validate(scn, model, values)
        assert len(builds) == 2 and len(var_builds) == 3
        assert builds[1] == builds[0] < len(model.constraints)

    @staticmethod
    def indexed(scn, model, values):
        """``model`` after two validations, so that its group has built both indexes."""
        for _ in range(2):
            assert_matches_dense(scn, model, values)
        assert model._shared_rows.index is not None and model._shared_vars.index is not None
        return model

    @pytest.mark.parametrize("kind", ["miqcp", "milp"])
    def test_a_zeroed_lit_lightpath_breaks_its_bound(self, kind):
        scn = differential_scenario("path6-41")
        model = BUILDS[kind](scn, True)
        values = as_assignment(oracle_answer("path6-41", True), scn, kind)
        self.indexed(scn, model, values)
        lit = [name for name, var in model.variables.items() if var.lb == 1.0 and values.get(name)]
        assert lit
        zeroed = dict(values)
        zeroed[lit[0]] = 0.0  # 0.0 now breaks lb = 1 of a variable that is not live
        rep = assert_matches_dense(scn, model, zeroed)
        assert (lit[0], "variable_bounds", 1.0) in {(v.name, v.family, v.amount)
                                                   for v in rep.violations}
        # a variable missing from the assignment is 0.0 as well
        rep = assert_matches_dense(scn, model, {k: v for k, v in values.items() if k != lit[0]})
        assert lit[0] in {v.name for v in rep.violations}

    @pytest.mark.parametrize("kind", ["miqcp", "milp"])
    def test_a_replaced_variable_record_is_caught(self, kind):
        scn = differential_scenario("path6-41")
        model = BUILDS[kind](scn)
        values = as_assignment(oracle_answer("path6-41", False), scn, kind)
        self.indexed(scn, model, values)
        other = model.copy()
        var = next(v for v in model.variables.values() if v.lb == 0.0 and not values.get(v.name))
        other.variables[var.name] = var._replace(lb=2.0, ub=3.0)
        rep = assert_matches_dense(scn, other, values)
        assert [(v.name, v.family, v.amount) for v in rep.violations] == [
            (var.name, "variable_bounds", 2.0)
        ]
        assert assert_matches_dense(scn, model, values).ok  # the original reads its own

    @pytest.mark.parametrize("kind", ["miqcp", "milp"])
    def test_a_variable_added_after_the_index_was_built(self, kind):
        scn = differential_scenario("path6-41")
        model = BUILDS[kind](scn)
        values = as_assignment(oracle_answer("path6-41", False), scn, kind)
        self.indexed(scn, model, values)
        other = model.copy()
        other.add_var("extra_lb", "eta", lb=0.5)  # 0.0 breaks it
        other.add_var("extra_ub", "eta", ub=1.0)
        rep = assert_matches_dense(scn, other, values)
        assert [(v.name, v.amount) for v in rep.violations] == [("extra_lb", 0.5)]
        rep = assert_matches_dense(scn, other, {**values, "extra_ub": 4.0})
        assert [(v.name, v.amount) for v in rep.violations] == [("extra_lb", 0.5), ("extra_ub", 3.0)]
        model.add_var("extra_lb", "eta", lb=0.25)  # the original, after it was copied
        rep = assert_matches_dense(scn, model, values)
        assert [(v.name, v.amount) for v in rep.violations] == [("extra_lb", 0.25)]

    @pytest.mark.parametrize("kind", ["miqcp", "milp"])
    @pytest.mark.parametrize("odd", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_value_where_zero_breaks_the_bound(self, kind, odd):
        scn = differential_scenario("path6-41")
        model = BUILDS[kind](scn, True)
        values = as_assignment(oracle_answer("path6-41", True), scn, kind)
        self.indexed(scn, model, values)
        names = [name for name, var in model.variables.items() if var.lb > 0.0]
        for name in (names[0], names[-1]):
            rep = assert_matches_dense(scn, model, {**values, name: odd})
            assert (name, "non_finite") in {(v.name, v.family) for v in rep.violations}

    def test_a_reported_lateness_keeps_its_sign(self):
        scn = differential_scenario("tiny")
        model = build_miqcp(scn)
        values = {**as_assignment(oracle_answer("tiny", False), scn, "miqcp"),
                  naming.x_name(3, 0): -0.0, naming.x_name(4): -0.0}
        rep = validate(scn, model, values)
        assert rep.model_lateness[0].hex() == rep.model_max_lateness.hex() == "-0x0.0p+0"
