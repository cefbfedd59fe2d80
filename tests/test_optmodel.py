"""Model IR: construction rules, LP/MPS emission, solution parsing."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfvlight import build_milp, build_miqcp
from nfvlight.optmodel import (
    BOUND_TOLERANCE,
    Constraint,
    Model,
    ModelError,
    SolutionError,
    Variable,
    _merge_lin,
    constraint_lhs,
    constraint_violation,
    emit_lp,
    emit_model,
    emit_mps,
    model_stats,
    objective_value,
    parse_solution,
    write_model,
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

    @pytest.mark.parametrize(
        "product, match",
        [(("ghost", "shared"), r"constraint c references unknown variable ghost\*a"),
         (("b", "used"), r"constraint c references unknown variable b\*ghost")],
        ids=["factor", "expression"],
    )
    def test_unknown_product_names_rejected_without_side_effects(self, product, match):
        shared = ((1.0, "a"), (2.0, "b"))
        used = ((1.0, "b"), (1.0, "ghost"))
        other = Model("miqcp")
        for v in ("a", "b", "ghost"):
            other.add_var(v, "lam")
        other.add_con("r", "delay", [], "<=", 1.0, quad=[("a", used)])
        m = Model("miqcp")
        m.add_var("a", "lam")
        m.add_var("b", "eta")
        m.add_con("ok", "delay", [], "<=", 1.0, quad=[("a", shared)])
        before = dict(m.constraints)
        a, terms = product[0], {"shared": shared, "used": used}[product[1]]
        with pytest.raises(ModelError, match=match):
            # the first product checks ``shared``; the second must be checked all the same
            m.add_con("c", "delay", [], "<=", 1.0, quad=[("b", shared), (a, terms)])
        assert m.constraints == before

    @pytest.mark.parametrize("name", ["", "a b", "a\tb", "a\nb", "a * b"])
    def test_variable_names_that_lp_and_mps_cannot_carry_are_rejected(self, name):
        m = golden_miqcp()
        before = dict(m.variables)
        with pytest.raises(ModelError, match="variable name"):
            m.add_var(name, "lam")
        assert m.variables == before

    @pytest.mark.parametrize("name", ["", "cap row", "a\tb", "a\nb", "a * b"])
    def test_row_and_set_names_that_lp_and_mps_cannot_carry_are_rejected(self, name):
        m = golden_milp()
        before = (dict(m.constraints), dict(m.sos2))
        with pytest.raises(ModelError, match="constraint name"):
            m.add_con(name, "delay", [(1.0, "x")], "<=", 1.0)
        with pytest.raises(ModelError, match="SOS2 set name"):
            m.add_sos2(name, ("x", "b"))
        assert (m.constraints, m.sos2) == before

    def test_sos2_repeated_member_rejected(self):
        m = golden_milp()
        with pytest.raises(ModelError, match="repeats a member"):
            m.add_sos2("s", ("x", "b", "x"))
        assert m.sos2 == {}

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda m: m.add_con("c", "delay", [(math.nan, "x")], "<=", 1.0),
             "non-finite coefficient nan on variable x"),
            (lambda m: m.add_con("c", "delay", [(math.inf, "x"), (-math.inf, "x")], "<=", 1.0),
             "non-finite coefficient nan on variable x"),
            (lambda m: m.add_con("c", "delay", [], "<=", 1.0, quad=[("x", ((math.inf, "b"),))]),
             "constraint c has a non-finite coefficient on x"),
            (lambda m: m.add_con("c", "delay", [(1.0, "x")], "<=", math.inf),
             "constraint c has a non-finite right-hand side inf"),
            (lambda m: m.set_objective([(1.0, "free"), (math.inf, "x")], "min"),
             "non-finite coefficient inf on variable x"),
            (lambda m: m.add_var("n", "lam", lb=math.nan), "variable n has a NaN bound"),
            (lambda m: m.add_var("n", "lam", ub=math.nan), "variable n has a NaN bound"),
            (lambda m: m.fix_var("x", math.nan), "cannot fix x at NaN"),
        ],
        ids=["linear", "linear-sum", "product", "rhs", "objective", "lb", "ub", "fix_var"],
    )
    def test_non_finite_numbers_rejected_without_side_effects(self, call, match):
        m = golden_miqcp()
        state = lambda: (dict(m.variables), dict(m.constraints), dict(m.sos2), m.objective, m.sense)
        before = state()
        with pytest.raises(ModelError, match=match):
            call(m)
        assert state() == before

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda m: m.add_con("c", "delay", [(10**400, "x")], "<=", 1.0),
             "coefficient on variable x is beyond the float range"),
            (lambda m: m.add_con("c", "delay", [], "<=", 1.0, quad=[("x", ((10**400, "b"),))]),
             "constraint c has a coefficient beyond the float range on x"),
            (lambda m: m.add_con("c", "delay", [], "<=", 1.0, quad=[(10**400, "x", "b")]),
             "constraint c has a coefficient beyond the float range on x"),
            (lambda m: m.add_con("c", "delay", [(1.0, "x")], "<=", 10**400),
             "constraint c has a right-hand side beyond the float range"),
            (lambda m: m.set_objective([(10**400, "x")], "min"),
             "coefficient on variable x is beyond the float range"),
            (lambda m: m.add_var("n", "lam", lb=10**400),
             "variable n has a bound beyond the float range"),
            (lambda m: m.add_var("n", "lam", ub=10**400),
             "variable n has a bound beyond the float range"),
            (lambda m: m.fix_var("x", -(10**400)),
             "cannot fix x at a value beyond the float range"),
        ],
        ids=["linear", "product", "product-triple", "rhs", "objective", "lb", "ub", "fix_var"],
    )
    def test_integers_beyond_the_float_range_rejected_without_side_effects(self, call, match):
        m = golden_miqcp()
        state = lambda: (dict(m.variables), dict(m.constraints), dict(m.sos2), m.objective, m.sense)
        before = state()
        with pytest.raises(ModelError, match=match):
            call(m)
        assert state() == before

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda m: m.add_con("c", "delay", [(1.0, "x", "b")], "<=", 1.0),
             r"constraint c: malformed linear term \(1.0, 'x', 'b'\)"),
            (lambda m: m.add_con("c", "delay", [(1.0, "x"), (1.0,), (2.0, "b")], "<=", 1.0),
             r"constraint c: malformed linear term \(1.0,\)"),
            (lambda m: m.set_objective([(1.0, "x", 2)], "max"),
             r"objective: malformed linear term \(1.0, 'x', 2\)"),
        ],
        ids=["three-tuple", "one-tuple", "objective"],
    )
    def test_malformed_linear_terms_rejected_without_side_effects(self, call, match):
        m = golden_miqcp()
        state = lambda: (dict(m.variables), dict(m.constraints), dict(m.sos2), m.objective, m.sense)
        before = state()
        with pytest.raises(ModelError, match=match):
            call(m)
        assert state() == before

    def test_product_terms_with_a_non_finite_coefficient_rejected_in_every_row(self):
        m = golden_miqcp()
        bad = ((1.0, "x"), (math.nan, "b"))
        for name in ("c1", "c2"):
            with pytest.raises(ModelError, match=f"constraint {name} has a non-finite coefficient"):
                m.add_con(name, "delay", [], "<=", 1.0, quad=[("free", bad)])
        assert set(m.constraints) == {"cap", "link", "pin"}

    def test_infinite_bounds_stay_legal(self):
        m = Model("milp")
        m.add_var("a", "lam", lb=-math.inf, ub=math.inf)
        m.add_var("b", "lam")
        m.fix_var("b", math.inf)
        assert (m.variables["a"].lb, m.variables["a"].ub) == (-math.inf, math.inf)
        assert m.variables["b"].lb == m.variables["b"].ub == math.inf


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

    @pytest.mark.parametrize("kind, fmt, match", [
        ("milp", "sav", "format"), ("miqcp", "mps", "MPS"),
    ])
    def test_write_model_rejects_before_it_opens_the_file(self, tmp_path, kind, fmt, match):
        path = tmp_path / f"golden.{fmt}"
        with pytest.raises(ModelError, match=match):
            write_model(golden_milp() if kind == "milp" else golden_miqcp(), path, fmt)
        assert not path.exists()

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


def edge_miqcp() -> Model:
    """Rows and bounds whose text depends on how each number is formatted."""
    m = Model("miqcp", name="edges")
    m.add_var("a", "lam", lb=-1.0, ub=-0.0)
    m.add_var("a_b", "eta", ub=math.inf)
    m.add_var("a.b", "mu", lb=-0.0, ub=0.0)
    m.add_var("b", "z", binary=True)
    m.add_var("c", "x3", lb=-2.5)
    m.add_var("d", "x3", lb=1, ub=1e16)
    m.add_con("cancel", "delay", [(2, "c")], "<=", 1.0, quad=[(1.5, "a", "b"), (-1.5, "b", "a")])
    m.add_con("empty", "delay", [], "<=", -0.0)
    m.add_con(
        "mixed", "delay", [(2, "a"), (2.0, "c"), (-0.5, "a_b"), (1e-07, "d")], ">=", 3,
        quad=[(2, "a_b", "a"), (2.0, "a.b", "a"), (-1, "b", "b"), (0.25, "a", "a_b"),
              (0.1 + 0.2, "b", "a.b")],
    )
    m.set_objective([(1, "c"), (-1.0, "a_b")], "min")
    return m


def edge_milp() -> Model:
    m = Model("milp", name="edges")
    m.add_var("x", "lam", lb=-0.0, ub=4.0)
    m.add_var("y", "mu", lb=-3.0, ub=-0.0)
    m.add_var("f", "x3")
    m.fix_var("f", -0.0)
    m.add_var("b", "z", binary=True)
    m.add_var("b2", "z", binary=True)
    m.fix_var("b2", -0.0)
    m.add_var("z0", "x3", lb=-1.0, ub=0.0)
    m.add_con("r1", "delay", [(0.5, "x"), (0.5, "y"), (-2, "z0")], "<=", -0.0)
    m.add_con("r2", "delay", [(0.5, "x"), (-1.5, "b"), (0.5, "b2")], ">=", 2)
    m.add_con("r3", "delay", [(0.5, "f"), (-2.0, "z0")], "=", 1.25)
    m.add_sos2("s", ("x", "y", "f"))
    m.set_objective([(0.5, "x"), (1, "y")], "max")
    return m


# Both texts were recorded from the emitter that formatted every number with
# repr one by one; -0.0 prints as -0 and 0.0 as 0 in the same file.
EDGE_LP = """\
\\ edges
Minimize
 obj: - 1 a_b + 1 c
Subject To
 cancel: 2 c <= 1
 empty: 0  <= -0
 mixed: 2 a - 0.5 a_b + 2 c + 1e-07 d + [ + 2 a * a.b + 2.25 a * a_b + 0.30000000000000004 a.b * b - 1 b * b ] >= 3
Bounds
 -1 <= a <= -0
 a.b = -0
 0 <= a_b <= inf
 c >= -2.5
 1 <= d <= 1e+16
Binary
 b
End
"""

EDGE_MPS = """\
NAME          edges
OBJSENSE
    MAX
ROWS
 N  obj
 L  r1
 G  r2
 E  r3
COLUMNS
    MARKER0000  'MARKER'                 'INTORG'
    b  r2  -1.5
    b2  r2  0.5
    MARKER0001  'MARKER'                 'INTEND'
    f  r3  0.5
    x  obj  0.5
    x  r1  0.5
    x  r2  0.5
    y  obj  1
    y  r1  0.5
    z0  r1  -2
    z0  r3  -2
RHS
    RHS  r2  2
    RHS  r3  1.25
BOUNDS
 BV BND  b
 FX BND  b2  -0
 FX BND  f  -0
 UP BND  x  4
 LO BND  y  -3
 UP BND  y  -0
 LO BND  z0  -1
 UP BND  z0  0
SOS
 S2 SOS  s
    x  1
    y  2
    f  3
ENDATA
"""


class TestEmissionEdgeCases:
    def test_lp_text_of_cancelled_empty_and_signed_zero_rows(self):
        assert emit_lp(edge_miqcp()) == EDGE_LP

    def test_mps_text_of_signed_zero_bounds_and_repeated_coefficients(self):
        assert emit_mps(edge_milp()) == EDGE_MPS


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


def _reference_merge(terms):
    """Tuple-keyed merge: pairs ordered, summed in input order, zeros dropped, sorted."""
    acc = {}
    for coef, a, b in terms:
        key = (a, b) if a <= b else (b, a)
        acc[key] = acc.get(key, 0.0) + coef
    return tuple((c, a, b) for (a, b), c in sorted(acc.items()) if c != 0.0)


def _lp_number(x):
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


# Names share prefixes ("a", "a_b", "a.b", "a,") so that string and tuple
# order could disagree if the separator were compared wrongly.
_names = st.text(alphabet="ab._{},0", min_size=1, max_size=4)


@st.composite
def _bilinear_rows(draw):
    names = draw(st.lists(_names, min_size=1, max_size=6, unique=True))
    pair = st.tuples(
        st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1, 1.5, 0.1]),
        st.sampled_from(names),
        st.sampled_from(names),
    )
    terms = draw(st.lists(pair, max_size=8))
    extra = []
    for coef, a, b in terms:
        shape = draw(st.sampled_from(["keep", "swap", "cancel"]))
        if shape == "swap":
            extra.append((coef, b, a))
        elif shape == "cancel":
            extra.append((-coef, b, a))
    order = draw(st.permutations(terms + extra))
    return names, list(order)


@given(_bilinear_rows())
@settings(max_examples=300)
def test_quad_equals_tuple_keyed_merge(row):
    names, terms = row
    m = Model("miqcp", name="prop")
    for v in names:
        m.add_var(v, "lam")
    m.add_con("row", "delay", [], "<=", 1.0, quad=terms)
    quad = _reference_merge(terms)
    assert m.constraints["row"].quad == quad
    text = emit_lp(m)
    if quad:
        bracket = " ".join(
            f"{'-' if c < 0 else '+'} {_lp_number(abs(c))} {a} * {b}" for c, a, b in quad
        )
        assert f" row: [ {bracket} ] <= 1\n" in text
    else:
        assert " row: 0  <= 1\n" in text


def _reference_lin_merge(terms):
    """Dict merge: summed per name in input order, sorted by name, zero sums dropped."""
    acc = {}
    for coef, v in terms:
        acc[v] = acc.get(v, 0.0) + coef
    return tuple((c, v) for v, c in sorted(acc.items()) if c != 0.0)


@st.composite
def _lin_rows(draw):
    names = draw(st.lists(_names, min_size=1, max_size=6, unique=True))
    coef = st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.5, 0.1, 0.0, -0.0, 1, -3, 0])
    term = st.tuples(coef, st.sampled_from(names))
    distinct = draw(st.booleans())
    terms = draw(st.lists(term, max_size=8, unique_by=(lambda t: t[1]) if distinct else None))
    if draw(st.booleans()):
        terms.sort(key=lambda t: t[1])
    return terms


def _typed(terms):
    return [(type(c), float(c).hex(), v) for c, v in terms]


@given(_lin_rows())
@settings(max_examples=300)
def test_merge_lin_equals_dict_merge(terms):
    merged = _merge_lin(terms)
    assert type(merged) is tuple and all(type(t) is tuple for t in merged)
    assert _typed(merged) == _typed(_reference_lin_merge(terms))
    names = [v for _, v in terms]
    if len(set(names)) == len(names) and all(type(c) is float and c for c, _ in terms):
        # already merged: the row keeps the given term tuples, only sorted
        assert all(any(t is u for u in terms) for t in merged)


_factor_values = st.one_of(
    st.sampled_from([0.0, -0.0, 0.0, -0.0, 1.0, -1.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


@st.composite
def _product_rows(draw):
    """Two rows of products that share ``terms`` tuples, and finite values."""
    names = draw(st.lists(_names, min_size=1, max_size=6, unique=True))
    coef = st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1, 1.5, 0.1])
    term = st.tuples(coef, st.sampled_from(names))
    pool = [tuple(draw(st.lists(term, max_size=5))) for _ in range(draw(st.integers(1, 3)))]
    product = st.tuples(st.sampled_from(names), st.sampled_from(pool))
    rows = [draw(st.lists(product, max_size=6)) for _ in range(2)]
    lin = [draw(st.lists(term, max_size=3)) for _ in range(2)]
    values = draw(st.dictionaries(st.sampled_from(names), _factor_values))
    return names, lin, rows, values


@given(_product_rows())
@settings(max_examples=300)
def test_product_rows_evaluate_and_merge_like_their_expansion(case):
    names, lin, rows, values = case
    m = Model("miqcp", name="prop")
    for v in names:
        m.add_var(v, "lam")
    for i in range(2):
        m.add_con(f"r{i}", "delay", lin[i], "<=", 1.0, quad=rows[i])
    for i, products in enumerate(rows):
        con = m.constraints[f"r{i}"]
        assert all(got is terms for (_, got), (_, terms) in zip(con.products, products))
        flat = [(c, a, b) for a, terms in products for c, b in terms]
        assert list(con.bilinear) == flat
        # reference: every expanded term in order, zero factors included
        lhs = 0.0
        for c, v in con.lin:
            lhs += c * values.get(v, 0.0)
        for c, a, b in flat:
            lhs += c * values.get(a, 0.0) * values.get(b, 0.0)
        assert constraint_lhs(con, values) == lhs
        assert con.quad == _reference_merge(flat)


# Each kind of term that short rows must treat as longer rows do; ``None``
# stands for an ordinary term on "b".
_SHORT_ROW_TERMS = {
    "list": [1.0, "a"],
    "int": (2, "a"),
    "zero": (0.0, "a"),
    "negative zero": (-0.0, "a"),
    "nan": (math.nan, "a"),
    "inf": (-math.inf, "a"),
    "beyond float": (10**400, "a"),
    "three-tuple": (1.0, "a", "b"),
    "unknown": (1.0, "q"),
    "ordinary": (0.5, "a"),
}
_SHORT_ROWS = [pytest.param([], id="empty")] + [
    pytest.param(row, id=f"{kind}-{shape}")
    for kind, term in _SHORT_ROW_TERMS.items()
    for shape, row in (
        ("alone", [term]),
        ("first", [term, (-1.0, "b")]),
        ("second", [(-1.0, "b"), term]),
    )
] + [
    pytest.param([(1.0, "a"), (2.0, "a")], id="repeated"),
    pytest.param([(1.0, "a"), (-1.0, "a")], id="cancelled"),
    pytest.param([(1.0, "b"), (-1.0, "b")], id="cancelled-after-a"),
]


def _add_con_outcome(row):
    """The stored row without the padding names, or the error's type and text."""
    m = Model("milp")
    for v in ("a", "b", "pad1", "pad2", "pad3"):
        m.add_var(v, "lam")
    try:
        m.add_con("r", "delay", row, "<=", 1.0)
    except (ModelError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return _typed([t for t in m.constraints["r"].lin if not t[1].startswith("pad")])


@pytest.mark.parametrize("row", _SHORT_ROWS)
def test_short_rows_store_what_padded_rows_store(row):
    padded = row + [(1.0, "pad1"), (-2.0, "pad2"), (0.25, "pad3")]
    assert _add_con_outcome(row) == _add_con_outcome(padded)


def test_merged_short_rows_keep_their_term_tuples():
    m = Model("milp")
    m.add_var("a", "lam")
    m.add_var("b", "lam")
    ta, tb = (1.0, "a"), (-1.0, "b")
    m.add_con("one", "delay", [tb], "=", 0.0)
    m.add_con("two", "delay", (tb, ta), "=", 0.0)
    assert m.constraints["one"].lin[0] is tb
    lin = m.constraints["two"].lin
    assert lin == (ta, tb) and lin[0] is ta and lin[1] is tb


_COPY_VARS = [f"v{i}" for i in range(6)]
_COPY_ROWS = [f"r{i}" for i in range(5)]
_COPY_VALUES = [0.0, -0.0, math.nan, 1.0, -1.0, 2.5, -0.5]
# term tuples shared by every model of a run, so that a tuple checked in one
# model may reach another that lacks one of its variables
_COPY_TERMS = (((1.0, "v0"), (-2.0, "v1")), ((0.5, "v2"),), ((1.5, "v5"), (1.0, "v3")))


def _dict_copy(model: Model) -> Model:
    """The reference copy: every table copied into a new dict."""
    other = Model(model.kind, model.name)
    other.variables = dict(model.variables)
    other.constraints = dict(model.constraints)
    other._checked_terms = dict(model._checked_terms)
    other.sos2 = dict(model.sos2)
    other.objective, other.sense = model.objective, model.sense
    other.objective_parts = dict(model.objective_parts)
    return other


def _error(model: Model, method: str, *args, **kw):
    """The text of the ``ModelError`` that the call raises, or None."""
    try:
        getattr(model, method)(*args, **kw)
    except ModelError as exc:
        return str(exc)
    return None


def _in_table_order(records, table) -> bool:
    """Whether ``records`` are entries of ``table``, each once, in its order."""
    entries = iter(table.values())
    return all(any(rec is entry for entry in entries) for rec in records)


def _broken(rows, variables, values):
    """The rows and bounds that ``validate`` reports broken at ``values``, in order."""
    out = [(con.name, amt) for con in rows if (amt := constraint_violation(con, values)) > 1e-9]
    for var in variables:
        val = values.get(var.name, 0.0)
        gap = max(var.lb - val, (val - var.ub) if var.ub is not None else 0.0)
        if not math.isfinite(val) or gap > 1e-9:
            out.append((var.name, gap if math.isfinite(val) else math.inf))
    return out


def _copy_step(data, model: Model, ref: Model):
    """One drawn change, made to ``model`` and ``ref`` alike; a copy returns the new pair."""
    name = st.sampled_from(_COPY_VARS)
    lin = st.lists(st.tuples(st.sampled_from([1.0, -2.0, 0.5]), name), max_size=3)
    op = data.draw(st.sampled_from(["var", "lin", "prod", "fix", "obj", "copy", "write"]))
    if op == "copy":
        return model.copy(), _dict_copy(ref)
    if op == "write":
        table = data.draw(st.sampled_from(["variables", "constraints"]))
        key = data.draw(st.sampled_from(_COPY_VARS if table == "variables" else _COPY_ROWS))
        bound = data.draw(st.sampled_from([-1.0, 0.0, 0.5, 2.0]))
        if table == "variables":
            old = ref.variables.get(key, Variable(key, "lam"))
            record = old._replace(lb=bound, ub=data.draw(st.sampled_from([None, 0.5, 3.0])))
        else:
            old = ref.constraints.get(key, Constraint(key, "delay", ((1.0, "v0"),), "<=", 0.0))
            record = old._replace(rhs=bound)
        getattr(model, table)[key] = getattr(ref, table)[key] = record
        return None
    kw = {}
    if op == "var":
        args = ("add_var", data.draw(name), "lam")
        kw = {"lb": data.draw(st.sampled_from([0.0, -1.0, 0.5])),
              "ub": data.draw(st.sampled_from([None, 0.25, 2.0])), "binary": data.draw(st.booleans())}
    elif op in ("lin", "prod"):
        args = ("add_con", data.draw(st.sampled_from(_COPY_ROWS)), "delay", data.draw(lin),
                data.draw(st.sampled_from(["<=", ">=", "="])),
                data.draw(st.sampled_from([-1.0, 0.0, 1.5])))
        if op == "prod":
            args += (data.draw(st.lists(st.tuples(name, st.sampled_from(_COPY_TERMS)), max_size=3)),)
    elif op == "fix":
        args = ("fix_var", data.draw(name), data.draw(st.sampled_from([0.0, 1.0, -0.5])))
    else:
        args = ("set_objective", data.draw(lin), "max")
    assert _error(model, *args, **kw) == _error(ref, *args, **kw)
    return None


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_copies_read_like_copies_of_every_table(data):
    """``Model.copy`` against copying every table, after each step, for every live model."""
    pairs = [(Model("miqcp", name="cow"), Model("miqcp", name="cow"))]
    for _ in range(data.draw(st.integers(1, 12))):
        pair = _copy_step(data, *data.draw(st.sampled_from(pairs)))
        if pair is not None:
            pairs.append(pair)
        for model, ref in pairs:
            assert list(model.variables.items()) == list(ref.variables.items())
            assert list(model.constraints.items()) == list(ref.constraints.items())
            assert emit_lp(model) == emit_lp(ref)
            values = data.draw(st.dictionaries(st.sampled_from(_COPY_VARS),
                                               st.sampled_from(_COPY_VALUES)))
            dense = _broken(ref.constraints.values(), ref.variables.values(), values)
            for _ in range(2):  # the second ask of frozen layers reads through an index
                rows, variables = model.rows_to_check(values), model.vars_to_check(values)
                assert _in_table_order(rows, model.constraints)
                assert _in_table_order(variables, model.variables)
                assert _broken(rows, variables, values) == dense


class TestRecords:
    def test_fields_and_defaults_are_kept(self):
        assert Variable._fields == ("name", "role", "binary", "lb", "ub")
        assert Variable("v", "lam") == Variable("v", "lam", False, 0.0, None)
        assert Constraint._fields == ("name", "family", "lin", "sense", "rhs", "products")
        assert Constraint("c", "delay", (), "<=", 1.0).products == ()

    @pytest.mark.parametrize("field", Variable._fields)
    def test_variable_fields_cannot_be_assigned(self, field):
        var = golden_miqcp().variables["x"]
        with pytest.raises(AttributeError):
            setattr(var, field, 1.0)
        assert var == Variable("x", "lam", False, 0.0, 5.0)

    @pytest.mark.parametrize("field", Constraint._fields)
    def test_constraint_fields_cannot_be_assigned(self, field):
        con = golden_miqcp().constraints["link"]
        with pytest.raises(AttributeError):
            setattr(con, field, ())
        assert con.lin == ((1.0, "free"),) and con.bilinear == ((1.0, "x", "b"),)
        assert con.quad == ((1.0, "b", "x"),)

    @pytest.mark.parametrize("name,value", [("x", 2.0), ("b", 1.0), ("free", -0.5)])
    def test_fix_var_changes_only_the_bounds(self, name, value):
        m = golden_miqcp()
        before = m.variables[name]
        m.fix_var(name, value)
        after = m.variables[name]
        assert type(after) is Variable
        assert (after.lb, after.ub) == (value, value)
        assert after._replace(lb=before.lb, ub=before.ub) == before
        assert {n: v for n, v in m.variables.items() if n != name} == {
            n: v for n, v in golden_miqcp().variables.items() if n != name
        }
