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
