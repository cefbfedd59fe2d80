"""Model IR: construction rules, LP/MPS emission, solution parsing."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfvlight import build_milp, build_miqcp
from nfvlight.optmodel import (
    BOUND_TOLERANCE,
    Model,
    ModelError,
    SolutionError,
    constraint_lhs,
    constraint_violation,
    emit_lp,
    emit_model,
    emit_mps,
    model_stats,
    objective_value,
    parse_solution,
)


def golden_miqcp() -> Model:
    m = Model("miqcp", name="golden")
    m.add_var("x", "lam", lb=0.0, ub=5.0)
    m.add_var("b", "z", binary=True)
    m.add_var("free", "x3", lb=-1.0)
    m.add_con("cap", "lightpath_capacity", [(1.0, "x"), (-2.5, "b")], "<=", 4.0)
    m.add_con("link", "delay", [(1.0, "free")], ">=", 0.5, quad=[(1.0, "x", "b")])
    m.add_con("pin", "objective_pin", [(1.0, "x")], "=", 1.5)
    m.add_sos2("interp", ("x", "free"))
    m.set_objective([(1.0, "x"), (-3.0, "free")], "min")
    return m


def golden_milp() -> Model:
    m = Model("milp", name="golden")
    m.add_var("x", "lam", lb=0.0, ub=5.0)
    m.add_var("b", "z", binary=True)
    m.add_con("cap", "lightpath_capacity", [(1.0, "x"), (-2.5, "b")], "<=", 4.0)
    m.set_objective([(1.0, "x")], "max")
    return m


GOLDEN_LP = """\
\\ golden
Minimize
 obj: - 3 free + 1 x
Subject To
 cap: - 2.5 b + 1 x <= 4
 link: 1 free + [ + 1 b * x ] >= 0.5
 pin: 1 x = 1.5
Bounds
 free >= -1
 0 <= x <= 5
Binary
 b
SOS
 interp: S2:: x:1 free:2
End
"""

GOLDEN_MPS = """\
NAME          golden
OBJSENSE
    MAX
ROWS
 N  obj
 L  cap
COLUMNS
    MARKER0000  'MARKER'                 'INTORG'
    b  cap  -2.5
    MARKER0001  'MARKER'                 'INTEND'
    x  obj  1
    x  cap  1
RHS
    RHS  cap  4
BOUNDS
 BV BND  b
 UP BND  x  5
ENDATA
"""


class TestConstruction:
    def test_unknown_kind_and_role_rejected(self):
        with pytest.raises(ModelError, match="kind"):
            Model("lp")
        m = Model("milp")
        with pytest.raises(ModelError, match="role"):
            m.add_var("q", "flow")

    def test_duplicates_rejected(self):
        m = golden_milp()
        with pytest.raises(ModelError, match="duplicate variable"):
            m.add_var("x", "lam")
        with pytest.raises(ModelError, match="duplicate constraint"):
            m.add_con("cap", "lightpath_capacity", [(1.0, "x")], "<=", 1.0)
        m.add_sos2("s", ("x", "b"))
        with pytest.raises(ModelError, match="duplicate SOS2"):
            m.add_sos2("s", ("x", "b"))

    def test_sos2_needs_two_members(self):
        m = golden_milp()
        with pytest.raises(ModelError, match="at least two"):
            m.add_sos2("short", ("x",))

    def test_bad_sense_rejected(self):
        m = golden_milp()
        with pytest.raises(ModelError, match="sense"):
            m.add_con("c2", "delay", [(1.0, "x")], "=<", 0.0)
        with pytest.raises(ModelError, match="sense"):
            m.set_objective([(1.0, "x")], "minimize")

    def test_linear_terms_merge_and_drop_zeros(self):
        m = Model("milp")
        m.add_var("a", "lam")
        m.add_var("b", "lam")
        m.add_con("c", "delay", [(1.0, "a"), (2.0, "a"), (0.0, "b")], "<=", 1.0)
        assert m.constraints["c"].lin == ((3.0, "a"),)

    def test_quadratic_pairs_canonicalized(self):
        m = Model("miqcp")
        m.add_var("a", "lam")
        m.add_var("b", "eta")
        m.add_con("c", "delay", [], "<=", 1.0, quad=[(1.0, "b", "a"), (2.0, "a", "b")])
        assert m.constraints["c"].quad == ((3.0, "a", "b"),)

    def test_fix_var_narrows_bounds(self):
        m = golden_milp()
        m.fix_var("x", 2.0)
        assert (m.variables["x"].lb, m.variables["x"].ub) == (2.0, 2.0)

    def test_check_catches_unknown_references(self):
        m = Model("milp")
        m.add_var("a", "lam")
        with pytest.raises(ModelError, match="unknown variable"):
            m.add_con("c", "delay", [(1.0, "ghost")], "<=", 1.0)

    def test_check_rejects_bilinear_terms_outside_miqcp(self):
        m = Model("milp")
        m.add_var("a", "lam")
        m.add_var("b", "z", binary=True)
        with pytest.raises(ModelError, match="only allowed in MIQCP"):
            m.add_con("c", "delay", [], "<=", 1.0, quad=[(1.0, "a", "b")])

    def test_check_rejects_empty_bounds(self):
        m = Model("milp")
        with pytest.raises(ModelError, match="empty bounds"):
            m.add_var("a", "lam", lb=2.0, ub=1.0)

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda m: m.add_con("c", "delay", [(1.0, "x"), (1.0, "ghost")], "<=", 1.0),
             "constraint c references unknown variable ghost"),
            (lambda m: m.add_con("c", "delay", [(1.0, "x")], "<=", 1.0, quad=[(1.0, "x", "ghost")]),
             r"constraint c references unknown variable x\*ghost"),
            (lambda m: m.add_sos2("s", ("x", "ghost")), "SOS2 set s references unknown variable ghost"),
            (lambda m: m.set_objective([(1.0, "ghost")], "max"),
             "objective references unknown variable ghost"),
            (lambda m: m.fix_var("ghost", 1.0), "cannot fix unknown variable ghost"),
        ],
        ids=["linear", "bilinear", "sos2", "objective", "fix_var"],
    )
    def test_unknown_names_rejected_at_the_call_without_side_effects(self, call, match):
        m = golden_miqcp()
        state = lambda: (dict(m.variables), dict(m.constraints), dict(m.sos2), m.objective, m.sense)
        before = state()
        with pytest.raises(ModelError, match=match):
            call(m)
        assert state() == before


class TestEvaluation:
    def test_constraint_lhs_includes_quadratic_part(self):
        m = golden_miqcp()
        vals = {"x": 1.5, "b": 1.0, "free": 0.25}
        assert constraint_lhs(m.constraints["link"], vals) == pytest.approx(0.25 + 1.5)

    def test_constraint_lhs_over_stored_terms_matches_canonical_sum(self, tiny):
        m = build_miqcp(tiny)
        values = {name: (i % 7) / 7 for i, name in enumerate(sorted(m.variables))}
        rows = [con for con in m.constraints.values() if con.bilinear]
        assert rows
        for con in rows:
            canonical = sum(c * values[v] for c, v in con.lin) + sum(
                c * values[a] * values[b] for c, a, b in con.quad
            )
            assert constraint_lhs(con, values) == pytest.approx(canonical, rel=0, abs=1e-12)

    def test_violation_respects_sense(self):
        m = golden_miqcp()
        con = m.constraints["cap"]
        assert constraint_violation(con, {"x": 5.0, "b": 0.0, "free": 0.0}) == pytest.approx(1.0)
        assert constraint_violation(con, {"x": 1.0, "b": 0.0, "free": 0.0}) == 0.0
        pin = m.constraints["pin"]
        assert constraint_violation(pin, {"x": 1.0, "b": 0.0, "free": 0.0}) == pytest.approx(0.5)

    def test_objective_value(self):
        m = golden_miqcp()
        assert objective_value(m, {"x": 2.0, "free": 1.0}) == pytest.approx(2.0 - 3.0)

    def test_model_stats_groups_by_role(self):
        st = model_stats(golden_miqcp())
        assert st["kind"] == "miqcp"
        assert st["variables"] == {"lam": 1, "x3": 1, "z": 1}
        assert st["n_sos2"] == 1
        assert st["constraints"]["delay"] == 1


class TestEmission:
    def test_lp_golden(self):
        assert emit_lp(golden_miqcp()) == GOLDEN_LP

    def test_mps_golden(self):
        assert emit_mps(golden_milp()) == GOLDEN_MPS

    def test_mps_rejects_quadratic_rows(self):
        with pytest.raises(ModelError, match="MPS"):
            emit_mps(golden_miqcp())

    def test_mps_rejects_bilinear_terms_given_in_any_order(self):
        m = Model("miqcp", name="q")
        m.add_var("a", "lam")
        m.add_var("b", "eta")
        m.add_con("row", "delay", [], "<=", 1.0, quad=[(1.0, "b", "a"), (0.5, "a", "b")])
        with pytest.raises(ModelError, match="MPS"):
            emit_mps(m)

    def test_emit_model_dispatch(self):
        m = golden_milp()
        assert emit_model(m, "lp").startswith("\\ golden")
        assert emit_model(m, "mps").startswith("NAME")
        with pytest.raises(ModelError, match="format"):
            emit_model(m, "sav")

    def test_emission_deterministic_on_generated_models(self, tiny):
        for build in (build_miqcp, build_milp):
            a, b = build(tiny), build(tiny)
            assert emit_lp(a) == emit_lp(b)

    def test_bilinear_rows_emit_canonically_whatever_the_input_order(self):
        canonical = [(3.0, "a", "b"), (-1.5, "a", "c"), (0.25, "b", "c")]
        messy = [
            (0.25, "c", "b"),
            (2.0, "b", "x"),
            (1.0, "b", "a"),
            (-1.5, "c", "a"),
            (-2.0, "x", "b"),  # cancels the (b, x) pair above
            (2.0, "a", "b"),
        ]
        texts = []
        for quad in (canonical, messy):
            m = Model("miqcp", name="order")
            for v in ("a", "b", "c", "x"):
                m.add_var(v, "lam")
            m.add_con("row", "delay", [(1.0, "x")], "<=", 2.0, quad=quad)
            texts.append(emit_lp(m))
        assert texts[0] == texts[1]
        assert " row: 1 x + [ + 3 a * b - 1.5 a * c + 0.25 b * c ] <= 2\n" in texts[0]

    def test_fixed_binaries_pinned_in_bounds(self):
        m = golden_milp()
        m.fix_var("b", 1.0)
        text = emit_lp(m)
        assert " b = 1" in text  # pinned via Bounds, still declared integral
        assert "Binary" in text


class TestSolutionParsing:
    def test_values_comment_and_objective(self):
        m = golden_miqcp()
        text = "# Objective value = -2.75\nx 1.5\nb 0.9999997\n"
        asg = parse_solution(text, m)
        assert asg.objective == pytest.approx(-2.75)
        assert asg.values["x"] == 1.5
        assert asg.values["b"] == 1.0  # rounded within integrality tolerance
        assert asg.values["free"] == 0.0
        assert asg.status == "parsed"
        assert asg.warnings == ["1 variables missing from solution, defaulted to 0"]

    def test_non_integral_binary_rejected(self):
        with pytest.raises(SolutionError, match="non-integral"):
            parse_solution("b 0.4\n", golden_miqcp())

    def test_unknown_variable_rejected(self):
        with pytest.raises(SolutionError, match="unknown variable"):
            parse_solution("ghost 1\n", golden_miqcp())

    def test_duplicate_line_rejected(self):
        with pytest.raises(SolutionError, match="duplicate"):
            parse_solution("x 1\nx 2\n", golden_miqcp())

    def test_out_of_bounds_rejected(self):
        with pytest.raises(SolutionError, match="outside bounds"):
            parse_solution("x 5.1\n", golden_miqcp())
        with pytest.raises(SolutionError, match="outside bounds"):
            parse_solution("free -2\n", golden_miqcp())

    def test_malformed_lines_rejected(self):
        with pytest.raises(SolutionError, match="expected 'name value'"):
            parse_solution("x 1 2\n", golden_miqcp())
        with pytest.raises(SolutionError, match="bad number"):
            parse_solution("x one\n", golden_miqcp())

    @pytest.mark.parametrize("name", ["x", "b"])
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_values_rejected(self, name, raw):
        with pytest.raises(SolutionError, match="non-finite"):
            parse_solution(f"{name} {raw}\n", golden_miqcp())

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_objective_rejected(self, raw):
        with pytest.raises(SolutionError, match="non-finite objective"):
            parse_solution(f"# Objective value = {raw}\nx 1\n", golden_miqcp())

    def test_backslash_lines_are_comments(self):
        asg = parse_solution("\\ written by a solver\nx 1.5\n  \\ indented\n", golden_miqcp())
        assert asg.values["x"] == 1.5

    def test_repr_floats_round_trip_exactly(self):
        m = golden_miqcp()
        value = 2.2546099290780144
        asg = parse_solution(f"x {value!r}\n", m)
        assert asg.values["x"] == value


_numbers = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1.5", "0.5", "1", "1.0000001", "6"]),
    st.floats().map(repr),
    st.text(max_size=6),
)
_solution_lines = st.one_of(
    st.tuples(st.sampled_from(["x", "b", "free", "ghost"]), _numbers).map(" ".join),
    _numbers.map("# Objective value = {}".format),
    st.text(max_size=20),
)


@given(st.lists(_solution_lines, max_size=4))
@settings(max_examples=300)
def test_parse_solution_accepts_only_finite_in_bound_values(lines):
    m = golden_miqcp()
    try:
        result = parse_solution("\n".join(lines), m)
    except SolutionError:
        return
    assert set(result.values) == set(m.variables)
    assert result.objective is None or math.isfinite(result.objective)
    for name, val in result.values.items():
        var = m.variables[name]
        assert math.isfinite(val)
        assert val >= var.lb - BOUND_TOLERANCE
        assert var.ub is None or val <= var.ub + BOUND_TOLERANCE
