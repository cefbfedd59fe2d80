"""Solver-agnostic model container with LP/MPS emission and solution parsing.

The container stores variables, linear and bilinear constraints, SOS2 groups
and a linear objective.  It is valid from construction: each ``add_*``,
``fix_var`` and ``set_objective`` call rejects unknown variables, empty
bounds, bilinear terms outside an MIQCP and variable, row or set names that
LP/MPS cannot carry before it stores anything.
Emission is canonical: entries are sorted by name, so two models with the
same content produce byte-identical files regardless of insertion order.
In memory, bilinear terms keep the order the builder gave them; they are
merged and sorted only when a canonical view is asked for, which LP
emission does once per row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

ROLE_TAGS = ("lam", "mu", "l", "x1", "x2", "x3", "x4", "y", "z", "eta", "theta", "xi")

INT_TOLERANCE = 1e-6
BOUND_TOLERANCE = 1e-6


class ModelError(Exception):
    pass


class SolutionError(Exception):
    pass


@dataclass(frozen=True)
class Variable:
    name: str
    role: str
    binary: bool = False
    lb: float = 0.0
    ub: float | None = None  # None means unbounded above


@dataclass(frozen=True)
class Constraint:
    name: str
    family: str
    lin: tuple[tuple[float, str], ...]
    sense: str  # "<=", ">=", "="
    rhs: float
    bilinear: tuple[tuple[float, str, str], ...] = ()  # as given, unmerged

    @property
    def quad(self) -> tuple[tuple[float, str, str], ...]:
        """Canonical bilinear part: pairs ordered, merged, zeros dropped, sorted.

        Recomputed on every read, so that the model never holds a second copy
        of the terms; order-insensitive readers use ``bilinear`` instead.
        """
        quad = []
        for key, coef in _bilinear_sums(self.bilinear):
            a, _, b = key.partition(" * ")
            quad.append((coef, a, b))
        return tuple(quad)


@dataclass(frozen=True)
class SOS2Set:
    """Ordered special-ordered set of type 2; weights are 1..len(members)."""

    name: str
    members: tuple[str, ...]


@dataclass
class Assignment:
    values: dict[str, float]
    objective: float | None = None
    status: str = "unknown"
    warnings: list[str] = field(default_factory=list)


def _merge_lin(terms) -> tuple[tuple[float, str], ...]:
    acc: dict[str, float] = {}
    for coef, var in terms:
        acc[var] = acc.get(var, 0.0) + coef
    return tuple((c, v) for v, c in sorted(acc.items()) if c != 0.0)


def _bilinear_sums(terms) -> list[tuple[str, float]]:
    """Merge bilinear terms by the key ``"a * b"``, smaller name first.

    Returns ``(key, coefficient)`` pairs sorted by key, zero sums dropped.
    Coefficients are summed in the order given.  Key order is ``(a, b)``
    tuple order because no variable name holds a character at or below a
    space (see ``Model.add_var``).
    """
    acc: dict[str, float] = {}
    get = acc.get
    for coef, a, b in terms:
        key = f"{a} * {b}" if a <= b else f"{b} * {a}"
        acc[key] = get(key, 0.0) + coef
    return [(key, acc[key]) for key in sorted(acc) if acc[key] != 0.0]


def _check_name(what: str, name: str) -> None:
    # LP/MPS separate fields with spaces, and emission orders bilinear pairs
    # by their "a * b" text, which is (a, b) order only when no name holds a
    # character at or below a space.
    if not name or " " in name or not name.isprintable():
        raise ModelError(f"{what} name {name!r} is empty, has a space or is not printable")


class Model:
    def __init__(self, kind: str, name: str = "model"):
        if kind not in ("miqcp", "milp"):
            raise ModelError(f"unknown model kind {kind!r}")
        self.kind = kind
        self.name = name
        self.variables: dict[str, Variable] = {}
        self.constraints: dict[str, Constraint] = {}
        self.sos2: dict[str, SOS2Set] = {}
        self.objective: tuple[tuple[float, str], ...] = ()
        self.sense = "min"

    # -- construction -------------------------------------------------------

    def add_var(
        self,
        name: str,
        role: str,
        *,
        binary: bool = False,
        lb: float = 0.0,
        ub: float | None = None,
    ) -> str:
        if role not in ROLE_TAGS:
            raise ModelError(f"unknown variable role {role!r}")
        _check_name("variable", name)
        if name in self.variables:
            raise ModelError(f"duplicate variable {name}")
        if binary:
            lb, ub = max(lb, 0.0), 1.0 if ub is None else min(ub, 1.0)
        if ub is not None and lb > ub + 1e-12:
            raise ModelError(f"variable {name} has empty bounds")
        self.variables[name] = Variable(name, role, binary, lb, ub)
        return name

    def fix_var(self, name: str, value: float) -> None:
        if name not in self.variables:
            raise ModelError(f"cannot fix unknown variable {name}")
        self.variables[name] = replace(self.variables[name], lb=value, ub=value)

    def add_con(
        self,
        name: str,
        family: str,
        lin,
        sense: str,
        rhs: float,
        quad=(),
    ) -> str:
        _check_name("constraint", name)
        if name in self.constraints:
            raise ModelError(f"duplicate constraint {name}")
        if sense not in ("<=", ">=", "="):
            raise ModelError(f"bad sense {sense!r}")
        lin, quad = _merge_lin(lin), tuple(quad)
        variables = self.variables
        for _, v in lin:
            if v not in variables:
                raise ModelError(f"constraint {name} references unknown variable {v}")
        for _, a, b in quad:
            if a not in variables or b not in variables:
                raise ModelError(f"constraint {name} references unknown variable {a}*{b}")
        if quad and self.kind != "miqcp":
            raise ModelError(f"bilinear terms in {name} are only allowed in MIQCP models")
        self.constraints[name] = Constraint(name, family, lin, sense, rhs, quad)
        return name

    def add_sos2(self, name: str, members) -> str:
        _check_name("SOS2 set", name)
        members = tuple(members)
        if name in self.sos2:
            raise ModelError(f"duplicate SOS2 set {name}")
        if len(members) < 2:
            raise ModelError(f"SOS2 set {name} needs at least two members")
        for v in members:
            if v not in self.variables:
                raise ModelError(f"SOS2 set {name} references unknown variable {v}")
        if len(set(members)) < len(members):
            raise ModelError(f"SOS2 set {name} repeats a member")
        self.sos2[name] = SOS2Set(name, members)
        return name

    def set_objective(self, terms, sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ModelError(f"bad objective sense {sense!r}")
        terms = _merge_lin(terms)
        for _, v in terms:
            if v not in self.variables:
                raise ModelError(f"objective references unknown variable {v}")
        self.objective = terms
        self.sense = sense


def model_stats(model: Model) -> dict:
    vars_by_role: dict[str, int] = {}
    for var in model.variables.values():
        vars_by_role[var.role] = vars_by_role.get(var.role, 0) + 1
    cons_by_family: dict[str, int] = {}
    for con in model.constraints.values():
        cons_by_family[con.family] = cons_by_family.get(con.family, 0) + 1
    return {
        "kind": model.kind,
        "n_variables": len(model.variables),
        "n_constraints": len(model.constraints),
        "n_sos2": len(model.sos2),
        "variables": dict(sorted(vars_by_role.items())),
        "constraints": dict(sorted(cons_by_family.items())),
    }


# ---------------------------------------------------------------------------
# evaluation


def constraint_lhs(con: Constraint, values: dict[str, float]) -> float:
    get = values.get
    lhs = 0.0
    for coef, v in con.lin:
        lhs += coef * get(v, 0.0)
    for coef, a, b in con.bilinear:
        lhs += coef * get(a, 0.0) * get(b, 0.0)
    return lhs


def constraint_violation(con: Constraint, values: dict[str, float]) -> float:
    """Nonnegative amount by which the assignment breaks the constraint."""
    lhs = constraint_lhs(con, values)
    if con.sense == "<=":
        return max(0.0, lhs - con.rhs)
    if con.sense == ">=":
        return max(0.0, con.rhs - lhs)
    return abs(lhs - con.rhs)


def objective_value(model: Model, values: dict[str, float]) -> float:
    return sum(coef * values.get(v, 0.0) for coef, v in model.objective)


# ---------------------------------------------------------------------------
# emission


def _num(x: float) -> str:
    if x == math.inf:
        return "inf"
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


class _NumText(dict):
    """Number -> ``_num`` text, each distinct value formatted once.

    Index it with a coefficient, which merging keeps nonzero.  Call it with
    a bound or a right-hand side: ``0.0`` and ``-0.0`` are one key but print
    as ``0`` and ``-0``, so zeros go to ``_num`` every time.
    """

    def __missing__(self, x: float) -> str:
        text = self[x] = _num(x)
        return text

    def __call__(self, x: float) -> str:
        return self[x] if x else _num(x)


class _SignedText(dict):
    """Nonzero LP coefficient -> its signed prefix, such as ``"+ 1 "``."""

    def __missing__(self, x: float) -> str:
        text = self[x] = ("- " if x < 0 else "+ ") + _num(abs(x)) + " "
        return text


def _lp_row(signed: _SignedText, lin, bilinear) -> str:
    parts = [signed[c] + v for c, v in lin]
    if bilinear:
        pairs = _bilinear_sums(bilinear)
        if pairs:
            parts.append("+ [ " + " ".join([signed[c] + key for key, c in pairs]) + " ]")
    if not parts:
        return "0 "
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def emit_lp(model: Model) -> str:
    num, signed = _NumText(), _SignedText()
    out: list[str] = []
    out.append("\\ " + model.name)
    out.append("Minimize" if model.sense == "min" else "Maximize")
    out.append(" obj: " + _lp_row(signed, model.objective, ()))
    out.append("Subject To")
    for name in sorted(model.constraints):
        con = model.constraints[name]
        out.append(f" {name}: {_lp_row(signed, con.lin, con.bilinear)} {con.sense} {num(con.rhs)}")
    out.append("Bounds")
    for name in sorted(model.variables):
        var = model.variables[name]
        if var.binary:
            if var.lb == var.ub:
                out.append(f" {name} = {num(var.lb)}")
            continue
        if var.ub is None:
            if var.lb != 0.0:
                out.append(f" {name} >= {num(var.lb)}")
        elif var.lb == var.ub:
            out.append(f" {name} = {num(var.lb)}")
        else:
            out.append(f" {num(var.lb)} <= {name} <= {num(var.ub)}")
    binaries = sorted(n for n, v in model.variables.items() if v.binary)
    if binaries:
        out.append("Binary")
        for name in binaries:
            out.append(f" {name}")
    if model.sos2:
        out.append("SOS")
        for name in sorted(model.sos2):
            s = model.sos2[name]
            members = " ".join(f"{v}:{i + 1}" for i, v in enumerate(s.members))
            out.append(f" {name}: S2:: {members}")
    out.append("End")
    return "\n".join(out) + "\n"


def emit_mps(model: Model) -> str:
    if any(con.bilinear for con in model.constraints.values()):
        raise ModelError("quadratic constraints unsupported in MPS emission")
    num = _NumText()
    out: list[str] = []
    out.append(f"NAME          {model.name}")
    if model.sense == "max":
        out.append("OBJSENSE")
        out.append("    MAX")
    out.append("ROWS")
    out.append(" N  obj")
    senses = {"<=": "L", ">=": "G", "=": "E"}
    rows = sorted(model.constraints)
    for name in rows:
        out.append(f" {senses[model.constraints[name].sense]}  {name}")
    # column-major coefficient table, each entry the text after the column name
    cols: dict[str, list[str]] = {n: [] for n in model.variables}
    for coef, v in model.objective:
        cols[v].append("  obj  " + num[coef])
    for name in rows:
        row = "  " + name + "  "
        for coef, v in model.constraints[name].lin:
            cols[v].append(row + num[coef])
    out.append("COLUMNS")
    marker = 0
    in_int = False
    for vname in sorted(model.variables):
        var = model.variables[vname]
        if var.binary != in_int:
            kind = "INTORG" if var.binary else "INTEND"
            out.append(f"    MARKER{marker:04d}  'MARKER'                 '{kind}'")
            marker += 1
            in_int = var.binary
        head = "    " + vname
        out.extend([head + entry for entry in cols[vname]])
    if in_int:
        out.append(f"    MARKER{marker:04d}  'MARKER'                 'INTEND'")
    out.append("RHS")
    for name in rows:
        rhs = model.constraints[name].rhs
        if rhs != 0.0:
            out.append(f"    RHS  {name}  {num(rhs)}")
    out.append("BOUNDS")
    for vname in sorted(model.variables):
        var = model.variables[vname]
        if var.binary:
            if var.lb == var.ub:
                out.append(f" FX BND  {vname}  {num(var.lb)}")
            else:
                out.append(f" BV BND  {vname}")
            continue
        if var.ub is not None and var.lb == var.ub:
            out.append(f" FX BND  {vname}  {num(var.lb)}")
            continue
        if var.lb != 0.0:
            out.append(f" LO BND  {vname}  {num(var.lb)}")
        if var.ub is not None:
            out.append(f" UP BND  {vname}  {num(var.ub)}")
    if model.sos2:
        out.append("SOS")
        for sidx, name in enumerate(sorted(model.sos2)):
            out.append(f" S2 SOS  {name}")
            for i, v in enumerate(model.sos2[name].members):
                out.append(f"    {v}  {num(float(i + 1))}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


def emit_model(model: Model, fmt: str = "lp") -> str:
    if fmt == "lp":
        return emit_lp(model)
    if fmt == "mps":
        return emit_mps(model)
    raise ModelError(f"unknown emission format {fmt!r}")


# ---------------------------------------------------------------------------
# solution parsing


def parse_solution(text: str, model: Model) -> Assignment:
    """Parse 'name value' lines against the model's variable table.

    Comments start with '#' or, as in LP files, with '\\'.  Values, and an
    objective value given in a comment, must be finite.  Binary values are
    rounded when within the integrality tolerance, values outside declared
    bounds are rejected, and variables missing from the file default to 0
    with a warning.
    """
    values: dict[str, float] = {}
    warnings: list[str] = []
    objective = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            # Gurobi-style objective comment is worth keeping.
            lowered = line.lstrip("#").strip().lower()
            if lowered.startswith("objective value"):
                tail = line.split("=", 1)
                if len(tail) == 2:
                    try:
                        objective = float(tail[1])
                    except ValueError:
                        pass
                    else:
                        if not math.isfinite(objective):
                            raise SolutionError(
                                f"line {lineno}: non-finite objective value {tail[1].strip()!r}"
                            )
            continue
        if not line or line.startswith("\\"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SolutionError(f"line {lineno}: expected 'name value', got {raw!r}")
        name, raw_val = parts
        if name not in model.variables:
            raise SolutionError(f"line {lineno}: unknown variable {name!r}")
        if name in values:
            raise SolutionError(f"line {lineno}: duplicate value for {name}")
        try:
            val = float(raw_val)
        except ValueError as exc:
            raise SolutionError(f"line {lineno}: bad number {raw_val!r}") from exc
        if not math.isfinite(val):
            raise SolutionError(f"line {lineno}: non-finite value {raw_val!r} for {name}")
        var = model.variables[name]
        if var.binary:
            rounded = round(val)
            if abs(val - rounded) > INT_TOLERANCE:
                raise SolutionError(
                    f"line {lineno}: binary variable {name} has non-integral value {val!r}"
                )
            val = float(rounded)
        if val < var.lb - BOUND_TOLERANCE or (var.ub is not None and val > var.ub + BOUND_TOLERANCE):
            raise SolutionError(
                f"line {lineno}: value {val!r} outside bounds of {name}"
            )
        values[name] = val
    missing = [n for n in model.variables if n not in values]
    if missing:
        warnings.append(f"{len(missing)} variables missing from solution, defaulted to 0")
        for n in missing:
            values[n] = 0.0
    return Assignment(values=values, objective=objective, status="parsed", warnings=warnings)
