"""Exact delay evaluation and solution validation against the generated models."""
from __future__ import annotations

import dataclasses
import json
import math

import pytest

from nfvlight import build_milp, build_miqcp, delays, naming, validate
from nfvlight.delays import (
    EmbeddingView,
    build_embedding_view,
    exact_path_delay,
    request_lateness,
)
from nfvlight.oracle import as_assignment, solve_exhaustive
from conftest import make_tiny


class TestEmbeddingView:
    def test_reconstructs_oracle_embedding(self, tiny, tiny_joint):
        values = as_assignment(tiny_joint, tiny, "miqcp")
        view = build_embedding_view(tiny, "miqcp", values)
        assert view.embedded == {0: True}
        assert view.placements == {(0, "f", "v2")}
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

    def test_truncated_retiming_is_not_ok(self, perm0, perm0_joint, monkeypatch):
        # perm0's chain fans out to three destinations: three embedding tuples
        values = as_assignment(perm0_joint, perm0, "miqcp")
        assert validate(perm0, build_miqcp(perm0), values).ok
        monkeypatch.setattr(delays, "MAX_TUPLES", 2)
        rep = validate(perm0, build_miqcp(perm0), values)
        assert not rep.ok and not rep.violations
        assert "request 0: embedding tuple enumeration truncated" in rep.warnings
        assert json.loads(rep.to_json())["ok"] is False

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
        assert "lightpath_capacity" in {v.family for v in rep.violations}

    @pytest.mark.parametrize("kind", ["miqcp", "milp"])
    def test_embedded_without_flows(self, case, kind):
        rep = self.report_without(case, kind, "lam_")
        assert not rep.ok
        assert "request 0 is embedded but has no active path" in rep.warnings
        assert "initial_rate" in {v.family for v in rep.violations}
