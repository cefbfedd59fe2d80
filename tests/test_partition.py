"""Equal-error secant partitions of 1/x and their SOS2 interpolation helpers."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfvlight import (
    ApproxError,
    compute_partition,
    eval_gtilde,
    interpolate_xi,
    minimal_base_points,
)
from nfvlight.approx import resolve_partitions

windows = st.tuples(
    st.floats(min_value=0.05, max_value=50.0),
    st.floats(min_value=1.05, max_value=40.0),
).map(lambda t: (t[0], t[0] * t[1]))


class TestComputePartition:
    def test_reference_window_values(self):
        part = compute_partition(1.0, 4.0, 6)
        assert part.points == (
            1.0,
            1.2345679012345678,
            1.5624999999999998,
            2.0408163265306127,
            2.7777777777777777,
            4.0,
        )
        assert part.K == 5
        assert part.max_error() == pytest.approx(0.01, abs=1e-9)

    def test_knots_append_sentinel(self):
        part = compute_partition(2.0, 5.0, 4)
        assert len(part.knots) == part.K + 2
        assert part.knots[-1] == part.knots[-2] == 5.0

    @given(windows, st.integers(min_value=2, max_value=40))
    @settings(max_examples=200, deadline=None)
    def test_segments_share_one_error(self, window, n):
        eps, upper = window
        part = compute_partition(eps, upper, n)
        errors = [part.segment_error(k) for k in range(1, part.K + 1)]
        assert max(errors) <= min(errors) * (1 + 1e-9) + 1e-15
        assert part.points[0] == eps and part.points[-1] == upper
        assert all(a < b for a, b in zip(part.points, part.points[1:]))

    @given(windows, st.floats(min_value=1e-4, max_value=0.5))
    @settings(max_examples=200, deadline=None)
    def test_minimal_points_meet_target(self, window, target):
        eps, upper = window
        n = minimal_base_points(eps, upper, target)
        assert compute_partition(eps, upper, n).max_error() <= target * (1 + 1e-9)
        if n > 2:  # one point fewer must overshoot
            assert compute_partition(eps, upper, n - 1).max_error() > target

    def test_reference_minimal_counts(self):
        assert minimal_base_points(1.0, 4.0, 0.01) == 6
        assert minimal_base_points(2.0, 5.0, 0.01) == 4
        assert minimal_base_points(47.0, 50.0, 0.01) == 2

    def test_degenerate_windows_rejected(self):
        with pytest.raises(ApproxError, match="eps > 0"):
            compute_partition(0.0, 4.0, 3)
        with pytest.raises(ApproxError, match="upper > eps"):
            compute_partition(4.0, 4.0, 3)
        with pytest.raises(ApproxError, match="two base points"):
            compute_partition(1.0, 4.0, 1)
        with pytest.raises(ApproxError, match="shift"):
            compute_partition(1.0, 4.0, 3, shift_mode="centered")

    def test_balanced_shift_halves_worst_error(self):
        part = compute_partition(1.0, 4.0, 6, shift_mode="balanced")
        assert part.shift == pytest.approx(-0.005, abs=1e-12)


class TestInterpolation:
    @given(windows, st.integers(min_value=2, max_value=12), st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_gtilde_over_approximates_within_bound(self, window, n, t):
        eps, upper = window
        part = compute_partition(eps, upper, n)
        x = eps + t * (upper - eps)
        err = eval_gtilde(part, x) - 1.0 / x
        assert -1e-12 <= err <= part.max_error() * (1 + 1e-9) + 1e-15

    def test_gtilde_exact_at_points(self):
        part = compute_partition(1.0, 4.0, 6)
        for p in part.points:
            assert eval_gtilde(part, p) == pytest.approx(1.0 / p, rel=1e-12)

    def test_gtilde_outside_window_rejected(self):
        part = compute_partition(1.0, 4.0, 6)
        with pytest.raises(ApproxError, match="outside"):
            eval_gtilde(part, 0.5)
        with pytest.raises(ApproxError, match="outside"):
            eval_gtilde(part, 4.5)

    @given(windows, st.integers(min_value=2, max_value=12), st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_xi_weights_reproduce_active_slack(self, window, n, t):
        eps, upper = window
        part = compute_partition(eps, upper, n)
        slack = eps + t * (upper - eps)
        xi = interpolate_xi(part, slack, active=True)
        assert len(xi) == part.K + 2
        assert xi[-1] == 0.0  # sentinel unused while active
        live = [i for i, w in enumerate(xi) if w]
        assert len(live) <= 2 and (len(live) < 2 or live[1] - live[0] == 1)
        assert sum(xi) == pytest.approx(1.0)
        assert sum(w * k for w, k in zip(xi, part.knots)) == pytest.approx(slack)
        interp = sum(w / k for w, k in zip(xi, part.knots))
        assert interp == pytest.approx(eval_gtilde(part, slack) - part.shift)

    def test_xi_inactive_parks_on_sentinel(self):
        part = compute_partition(1.0, 4.0, 6)
        xi = interpolate_xi(part, 3.0, active=False)
        assert xi[:-1] == (0.0,) * (part.K + 1)
        assert xi[-1] == pytest.approx(0.75)

    def test_xi_range_checks(self):
        part = compute_partition(1.0, 4.0, 6)
        with pytest.raises(ApproxError, match="active slack"):
            interpolate_xi(part, 0.5, active=True)
        with pytest.raises(ApproxError, match="inactive slack"):
            interpolate_xi(part, 4.5, active=False)


class TestScenarioResolution:
    def test_reference_queue_windows(self, perm0):
        qp = resolve_partitions(perm0)
        assert (qp.forwarding.eps, qp.forwarding.upper, qp.forwarding.K) == (1.0, 4.0, 5)
        windows = {k: (p.eps, p.upper, p.K) for k, p in qp.processing.items()}
        assert windows == {
            (0, "f", "v1"): (2.0, 5.0, 3),
            (0, "f", "v2"): (47.0, 50.0, 1),
        }
        assert qp.blocked == frozenset(
            {(0, "f", "v3"), (0, "f", "v4"), (0, "f", "v5"), (0, "f", "v6")}
        )

    def test_saturated_line_rate_rejected(self, perm0):
        import dataclasses

        sub = dataclasses.replace(perm0.substrate, line_rate=3.0)
        scn = dataclasses.replace(perm0, substrate=sub)
        with pytest.raises(ApproxError, match="forwarding"):
            resolve_partitions(scn)


def _per_vertex_windows(tiny, *, processing, fixed_service):
    """tiny with capacity at every vertex and one window override per vertex:
    v1 sets only ``upper``, v2 only ``eps``, v3 only ``base_points``."""
    import dataclasses

    from nfvlight.scenario import ApproxConfig, QueueApprox

    req = tiny.requests[0]
    if fixed_service:
        # a zero rate factor makes the configured upper the service window
        req = dataclasses.replace(
            req, graph=dataclasses.replace(req.graph, alpha_node={"f": 0.0}, beta_node={"f": 1.0})
        )
    approx = ApproxConfig(
        processing=processing,
        processing_by_vertex={
            "v1": QueueApprox(upper=9.0),
            "v2": QueueApprox(eps=0.25),
            "v3": QueueApprox(base_points=4),
        },
    )
    scn = dataclasses.replace(
        tiny,
        substrate=dataclasses.replace(tiny.substrate, capacity={"v1": 3.0, "v2": 8.0, "v3": 3.0}),
        requests=(req,),
        approx=approx,
    )
    scn.validate()
    return scn


@pytest.mark.parametrize(
    "eps, fixed_service, theta_ub, windows, digest",
    [
        (
            0.5, False,
            {"v1": 2.0, "v2": 4.0, "v3": 2.0},
            {"v1": (0.5, 3.0, 9), "v2": (0.25, 8.0, 17), "v3": (0.5, 3.0, 3)},
            "f6946728e41e1a364110b2e7e367ee8f3d1fbea2a306101cc790e59714235445",
        ),
        (
            0.5, True,
            {"v1": 2.0, "v2": 4.0, "v3": 2.0},
            {"v1": (0.5, 9.0, 11), "v2": (0.25, 6.0, 16), "v3": (0.5, 6.0, 3)},
            "d726c34e36eb3e3fa53dc41c054a270db2924db8f21c9b48ad547e495422dc78",
        ),
        (
            # no shared eps: the MIQCP leaves theta unbounded there, the MILP
            # derives eps from upper minus the inflow bound
            None, False,
            {"v1": None, "v2": 4.0, "v3": None},
            {"v1": (1.0, 3.0, 5), "v2": (0.25, 8.0, 17), "v3": (1.0, 3.0, 3)},
            "33f602fc7c9b35aeab72972d56acf6829baa538782b075020f3425d6784e1914",
        ),
    ],
    ids=["shared-eps", "fixed-service", "derived-eps"],
)
def test_per_vertex_processing_window_falls_back_field_by_field(
    tiny, eps, fixed_service, theta_ub, windows, digest
):
    import hashlib

    from nfvlight import build_milp, build_miqcp, emit_lp
    from nfvlight.scenario import QueueApprox

    scn = _per_vertex_windows(
        tiny, processing=QueueApprox(eps=eps, upper=6.0), fixed_service=fixed_service
    )
    miqcp = build_miqcp(scn)
    assert {v: miqcp.variables[f"theta_r0_n{{f}}_{v}"].ub for v in theta_ub} == theta_ub
    qp = resolve_partitions(scn)
    assert {k[2]: (p.eps, p.upper, p.K) for k, p in qp.processing.items()} == windows
    assert qp.blocked == frozenset()
    assert hashlib.sha256(emit_lp(build_milp(scn)).encode()).hexdigest() == digest
