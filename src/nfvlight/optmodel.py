"""Solver-agnostic model container with LP/MPS emission and solution parsing.

The container stores variables, linear and bilinear constraints, SOS2 groups
and a linear objective.  It is valid from construction: each ``add_*``,
``fix_var`` and ``set_objective`` call rejects unknown variables, empty or
NaN bounds, non-finite coefficients and right-hand sides, bilinear terms
outside an MIQCP and variable, row or set names that LP/MPS cannot carry
before it stores anything.  Infinite bounds stay legal.
Emission is canonical: entries are sorted by name, so two models with the
same content produce byte-identical files regardless of insertion order.
In memory, a row's bilinear part is a tuple of products ``(a, terms)``, each
meaning ``sum(coef * a * b for coef, b in terms)``.  Rows share ``terms``
tuples, so a variable times a common linear expression costs one entry.
Products keep the order the builder gave them; they are expanded, merged
and sorted only when a canonical view is asked for.  LP emission writes that
view once per row, one shared term tuple at a time where the row allows it.
``write_model`` streams a model file to disk without holding its text.
A builder may also record the parts of a weighted objective in
``Model.objective_parts``, each part's terms, a tuple, with the sense it is
optimized in on its own.  A staged solve sets one part after another as the
objective of the same model and pins each solved part with an equality row.
``Model.copy`` gives a model its own tables over the same records, term
tuples and objective parts, which are immutable; changing the copy leaves
the original as it was.
``Model.rows_to_check`` gives the rows that an assignment can break, through
a column index from each variable to the rows that read it, and
``Model.vars_to_check`` the variables whose bounds it can break.  Each index
is shared by a model's copies and built the second time the group asks for
it: a model checked once pays for no index, and validating many copies of
one compiled model costs one build.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from operator import add, is_, itemgetter
from typing import NamedTuple

ROLE_TAGS = ("lam", "mu", "l", "x1", "x2", "x3", "x4", "y", "z", "eta", "theta", "xi")

INT_TOLERANCE = 1e-6
BOUND_TOLERANCE = 1e-6


class ModelError(Exception):
    pass


class SolutionError(Exception):
    pass


class Variable(NamedTuple):
    """An immutable tuple-backed record; ``Model.fix_var`` stores a new one."""

    name: str
    role: str
    binary: bool = False
    lb: float = 0.0
    ub: float | None = None  # None means unbounded above


class Constraint(NamedTuple):
    """An immutable tuple-backed record of one row."""

    name: str
    family: str
    lin: tuple[tuple[float, str], ...]
    sense: str  # "<=", ">=", "="
    rhs: float
    # (a, terms) products as given, unmerged: sum of coef * a * b per (coef, b)
    products: tuple[tuple[str, tuple[tuple[float, str], ...]], ...] = ()

    @property
    def bilinear(self) -> tuple[tuple[float, str, str], ...]:
        """The products expanded to ``(coef, a, b)`` terms, in the given order."""
        return tuple((coef, a, b) for a, terms in self.products for coef, b in terms)

    @property
    def quad(self) -> tuple[tuple[float, str, str], ...]:
        """Canonical bilinear part: pairs ordered, merged, zeros dropped, sorted.

        Recomputed on every read, so that the model never holds a second copy
        of the terms.
        """
        quad = []
        for key, coef in _product_sums(self.products):
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
    """Sum the coefficients per variable, sort by name and drop zero sums.

    Terms that are already merged (``(coef, name)`` tuples with distinct
    names and nonzero finite ``float`` coefficients) come out as the same
    tuple objects, only sorted, so rows built from one block of terms share
    it.  A sum that is not finite, or a term that is not a coefficient and a
    variable, raises ``ModelError``.
    """
    terms = tuple(terms)
    if len(terms) <= 2:
        # one direct pass for the 0-2 term rows that most of a model is made of
        for t in terms:
            if not (
                type(t) is tuple and len(t) == 2 and type(t[0]) is float
                and t[0] != 0.0 and math.isfinite(t[0])
            ):
                break
        else:
            if len(terms) < 2:
                return terms
            a, b = terms
            if a[1] != b[1]:
                return terms if a[1] < b[1] else (b, a)
    elif set(map(type, terms)) == {tuple} and set(map(len, terms)) == {2}:
        coefs = tuple(map(itemgetter(0), terms))
        if (
            0.0 not in coefs
            and set(map(type, coefs)) == {float}
            # a finite total proves every coefficient finite
            and math.isfinite(sum(coefs))
            and len(set(map(itemgetter(1), terms))) == len(terms)
        ):
            return tuple(sorted(terms, key=itemgetter(1)))
    acc: dict[str, float] = {}
    for term in terms:
        try:
            coef, var = term
            acc[var] = acc.get(var, 0.0) + coef
        except OverflowError:
            raise ModelError(f"coefficient on variable {var} is beyond the float range") from None
        except (TypeError, ValueError):
            raise ModelError(
                f"malformed linear term {term!r}; expected (coefficient, variable)"
            ) from None
    for var, c in acc.items():
        if not math.isfinite(c):
            raise ModelError(f"non-finite coefficient {c!r} on variable {var}")
    return tuple((c, v) for v, c in sorted(acc.items()) if c != 0.0)


def _product_sums(products) -> list[tuple[str, float]]:
    """Merge the expanded products by the key ``"a * b"``, smaller name first.

    Returns ``(key, coefficient)`` pairs sorted by key, zero sums dropped.
    Coefficients are summed in the order given.  Key order is ``(a, b)``
    tuple order because no variable name holds a character at or below a
    space (see ``Model.add_var``).
    """
    acc: dict[str, float] = {}
    get = acc.get
    for a, terms in products:
        for coef, b in terms:
            key = f"{a} * {b}" if a <= b else f"{b} * {a}"
            acc[key] = get(key, 0.0) + coef
    return [(key, acc[key]) for key in sorted(acc) if acc[key] != 0.0]


def _check_name(what: str, name: str) -> None:
    # LP/MPS separate fields with spaces, and emission orders bilinear pairs
    # by their "a * b" text, which is (a, b) order only when no name holds a
    # character at or below a space.
    if not name or " " in name or not name.isprintable():
        raise ModelError(f"{what} name {name!r} is empty, has a space or is not printable")


class _RowIndex(NamedTuple):
    """A column index over a model's leading rows (CSC-style).

    ``broken_at_zero`` holds the positions in ``records`` of the rows that a
    left-hand side of 0.0 breaks, which are always read.  ``columns`` maps
    each variable to the positions of the other rows that hold it in ``lin``
    or as the first factor ``a`` of a product.
    """

    records: tuple[Constraint, ...]
    columns: dict[str, tuple[int, ...]]
    broken_at_zero: tuple[int, ...]


def _build_row_index(records: tuple[Constraint, ...]) -> _RowIndex:
    """The column index over ``records``, one pass over their terms."""
    columns: dict = {}
    get = columns.get
    broken = []
    for pos, con in enumerate(records):
        sense, rhs = con.sense, con.rhs
        if rhs < 0.0 if sense == "<=" else rhs > 0.0 if sense == ">=" else rhs != 0.0:
            broken.append(pos)  # always read, so its terms need no entries
            continue
        for _, name in con.lin:  # merged, so each name once
            col = get(name)
            if col is None:
                columns[name] = [pos]
            else:
                col.append(pos)
        for name, _ in con.products:
            col = get(name)
            if col is None:
                columns[name] = [pos]
            elif col[-1] != pos:  # positions come in order, so a repeat is the last one
                col.append(pos)
    for name, col in columns.items():
        columns[name] = tuple(col)  # no spare slots; each list is freed as it is replaced
    return _RowIndex(records, columns, tuple(broken))


class _VarIndex(NamedTuple):
    """A position index over a model's leading variables.

    ``positions`` maps each variable to its position in ``records``;
    ``zero_breaking`` holds the positions of the variables whose bounds
    exclude 0.0, which are always read.
    """

    records: tuple[Variable, ...]
    positions: dict[str, int]
    zero_breaking: tuple[int, ...]


def _build_var_index(records: tuple[Variable, ...]) -> _VarIndex:
    return _VarIndex(
        records,
        {var.name: pos for pos, var in enumerate(records)},
        tuple(pos for pos, var in enumerate(records)
              if var.lb > 0.0 or (var.ub is not None and var.ub < 0.0)),
    )


class _SharedIndex:
    """The index of one table of a model and its copies, and how much it may cover.

    ``limit`` is the number of leading entries that every model sharing this
    holds in common (``None`` before the first copy: all of them).
    ``asked`` records the group's first ask, which builds nothing.
    """

    __slots__ = ("index", "limit", "asked")

    def __init__(self):
        self.index = None
        self.limit: int | None = None
        self.asked = False


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
        # part -> (terms, sense), for a staged solve to set one at a time
        self.objective_parts: dict[int, tuple[tuple[tuple[float, str], ...], str]] = {}
        # id -> checked product terms tuple, held so that the id stays unique
        self._checked_terms: dict[int, tuple] = {}
        self._shared_rows = _SharedIndex()
        self._shared_vars = _SharedIndex()

    def copy(self) -> Model:
        """A model with the same content in new tables, cheap to change alone.

        The tables are new dicts over the same immutable records and term
        tuples, so ``add_*``, ``fix_var`` and ``set_objective`` on either
        model leave the other as it was.  The two models share the row index
        of ``rows_to_check`` and the variable index of ``vars_to_check``,
        each over the entries both hold now; entries either model adds later
        are outside them.
        """
        for shared, table in ((self._shared_rows, self.constraints),
                              (self._shared_vars, self.variables)):
            if shared.limit is None or len(table) < shared.limit:
                shared.limit = len(table)
        other = Model(self.kind, self.name)
        other._shared_rows, other._shared_vars = self._shared_rows, self._shared_vars
        other.variables = dict(self.variables)
        other.constraints = dict(self.constraints)
        other.sos2 = dict(self.sos2)
        other.objective, other.sense = self.objective, self.sense
        other.objective_parts = dict(self.objective_parts)
        other._checked_terms = dict(self._checked_terms)
        return other

    def rows_to_check(self, values: dict[str, float]) -> list[Constraint]:
        """The rows that ``values`` can break, in insertion order.

        These are the indexed rows that hold a variable whose value is not
        exactly 0.0 (NaN counts), in ``lin`` or as a product's ``a``; the
        rows that a left-hand side of 0.0 breaks; and every row outside the
        index.  Every other row reads only zeros and products that
        ``constraint_lhs`` skips, so its left-hand side is exactly 0.0 and
        it holds.  Before the index is built, every row.
        """
        index = self._index("_shared_rows", self.constraints, _build_row_index)
        if index is None:
            return list(self.constraints.values())
        hit = set(index.broken_at_zero)
        for rows in filter(None, map(index.columns.get, compress(values, values.values()))):
            hit.update(rows)
        records = index.records
        checked = [records[pos] for pos in sorted(hit)]
        checked += islice(self.constraints.values(), len(records), None)
        return checked

    def vars_to_check(self, values: dict[str, float]) -> list[Variable]:
        """The variables whose bounds ``values`` can break, in table order.

        These are the indexed variables whose value is not exactly 0.0 (NaN
        counts), those whose bounds exclude 0.0, and every variable outside
        the index.  Every other variable is at 0.0 within its bounds.
        Before the index is built, every variable.
        """
        index = self._index("_shared_vars", self.variables, _build_var_index)
        if index is None:
            return list(self.variables.values())
        hit = set(index.zero_breaking)
        hit.update(map(index.positions.get, compress(values, values.values())))
        hit.discard(None)  # a name outside the index
        records = index.records
        checked = [records[pos] for pos in sorted(hit)]
        checked += islice(self.variables.values(), len(records), None)
        return checked

    def _index(self, attr: str, table: dict, build):
        """The index over ``table`` that ``attr`` shares; None on the group's first ask."""
        shared = getattr(self, attr)
        index = shared.index
        if index is not None:
            records = index.records
            # the records are immutable, so the same objects are the same entries
            if len(table) >= len(records) and all(map(is_, table.values(), records)):
                return index
            # an entry the index was built from is not here: this model leaves the group
            shared = _SharedIndex()
            setattr(self, attr, shared)
        if not shared.asked:
            shared.asked = True
            return None
        index = shared.index = build(tuple(islice(table.values(), shared.limit)))
        return index

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
        try:
            if math.isnan(lb) or (ub is not None and math.isnan(ub)):
                raise ModelError(f"variable {name} has a NaN bound")
        except OverflowError:
            raise ModelError(f"variable {name} has a bound beyond the float range") from None
        if binary:
            lb, ub = max(lb, 0.0), 1.0 if ub is None else min(ub, 1.0)
        if ub is not None and lb > ub + 1e-12:
            raise ModelError(f"variable {name} has empty bounds")
        self.variables[name] = Variable(name, role, binary, lb, ub)
        return name

    def fix_var(self, name: str, value: float) -> None:
        if name not in self.variables:
            raise ModelError(f"cannot fix unknown variable {name}")
        try:
            if math.isnan(value):
                raise ModelError(f"cannot fix {name} at NaN")
        except OverflowError:
            raise ModelError(f"cannot fix {name} at a value beyond the float range") from None
        self.variables[name] = self.variables[name]._replace(lb=value, ub=value)
        # the record is new, so this model leaves its variable index group
        self._shared_vars = _SharedIndex()

    def add_con(
        self,
        name: str,
        family: str,
        lin,
        sense: str,
        rhs: float,
        quad=(),
    ) -> str:
        """Add a row; ``quad`` holds ``(a, terms)`` products or ``(coef, a, b)`` terms."""
        _check_name("constraint", name)
        if name in self.constraints:
            raise ModelError(f"duplicate constraint {name}")
        if sense not in ("<=", ">=", "="):
            raise ModelError(f"bad sense {sense!r}")
        try:
            if not math.isfinite(rhs):
                raise ModelError(f"constraint {name} has a non-finite right-hand side {rhs!r}")
        except OverflowError:
            raise ModelError(
                f"constraint {name} has a right-hand side beyond the float range"
            ) from None
        try:
            lin = _merge_lin(lin)
        except ModelError as exc:
            raise ModelError(f"constraint {name}: {exc}") from None
        # a (coef, a, b) term is the one-term product (a, ((coef, b),))
        products = tuple(
            (t[0], tuple(t[1])) if len(t) == 2 else (t[1], ((t[0], t[2]),)) for t in quad
        ) if quad else ()
        variables, checked = self.variables, self._checked_terms
        for _, v in lin:
            if v not in variables:
                raise ModelError(f"constraint {name} references unknown variable {v}")
        for a, terms in products:
            if a in variables and id(terms) in checked:
                continue
            if a not in variables or not variables.keys() >= set(map(itemgetter(1), terms)):
                b = next((b for _, b in terms if a not in variables or b not in variables), "")
                raise ModelError(f"constraint {name} references unknown variable {a}*{b}")
            try:
                if not all(map(math.isfinite, map(itemgetter(0), terms))):
                    raise ModelError(f"constraint {name} has a non-finite coefficient on {a}")
            except OverflowError:
                raise ModelError(
                    f"constraint {name} has a coefficient beyond the float range on {a}"
                ) from None
            # variables are never removed, so the terms stay valid for later rows
            checked[id(terms)] = terms
        if products and self.kind != "miqcp":
            raise ModelError(f"bilinear terms in {name} are only allowed in MIQCP models")
        self.constraints[name] = Constraint(name, family, lin, sense, rhs, products)
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
        try:
            terms = _merge_lin(terms)
        except ModelError as exc:
            raise ModelError(f"objective: {exc}") from None
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
    products = con.products
    if products:
        # only products whose a is not 0.0 (NaN counts): exact for finite
        # partners, since each skipped term is a signed zero, and adding one
        # changes no sum that starts at 0.0
        for a, terms in compress(products, map(get, map(itemgetter(0), products), repeat(0.0))):
            x = get(a)
            for coef, b in terms:
                lhs += coef * x * get(b, 0.0)
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


def _lp_block(signed: _SignedText, terms) -> tuple:
    """A term tuple, its names in order and each name's ``"+ c b * "`` prefix.

    The names and prefixes are None if the tuple is empty, repeats a name or
    holds a zero coefficient: merging could then sum or drop its terms.
    """
    names = tuple(map(itemgetter(1), terms))
    if not names or 0.0 in map(itemgetter(0), terms) or len(set(names)) < len(names):
        return terms, None, None
    ordered = sorted(terms, key=itemgetter(1))
    return terms, tuple(map(itemgetter(1), ordered)), [signed[c] + b + " * " for c, b in ordered]


def _block_text(signed: _SignedText, products, blocks: dict) -> str | None:
    """The ``_product_sums`` text of ``products``, one shared term tuple at a time.

    The products are grouped by term tuple, by identity, and ``blocks`` keeps
    each tuple's ``_lp_block`` for the emission.  If every tuple has names,
    every factor ``a`` sorts after its tuple's names, no group holds a factor
    twice and no name lies in two groups, then each key is ``b * a`` and
    occurs once, and its sum is its one coefficient.  The text is then, for
    each ``b`` in name order, the terms of its group's factors in name order.
    Any other row gives None.
    """
    groups: dict[int, tuple] = {}
    for a, terms in products:
        group = groups.get(id(terms))
        if group is None:
            block = blocks.get(id(terms))
            if block is None:
                # the block holds its tuple, so the id stays unique
                block = blocks[id(terms)] = _lp_block(signed, terms)
            if block[1] is None:
                return None
            group = groups[id(terms)] = (block[1], block[2], [])
        group[2].append(a)
    name_sets = [group[0] for group in groups.values()]
    if len(name_sets) > 1 and len(set().union(*name_sets)) < sum(map(len, name_sets)):
        return None
    texts = []
    for names, prefixes, factors in groups.values():
        factors.sort()
        if factors[0] <= names[-1] or len(set(factors)) < len(factors):
            return None
        # per name b, its "+ c b * a" terms for each factor a
        terms = zip(*[map(add, prefixes, repeat(a)) for a in factors])
        texts.append(zip(names, map(" ".join, terms)))
    if len(texts) > 1:
        texts = [sorted(chain.from_iterable(texts), key=itemgetter(0))]
    return " ".join(map(itemgetter(1), texts[0]))


def _lp_row(signed: _SignedText, lin, products, blocks: dict) -> str:
    """The LP text of a row's left-hand side.

    The linear terms, then the bilinear part ``+ [ ... ]``: the merged,
    sorted ``a * b`` pairs of ``_product_sums``.  ``_block_text`` formats
    that text one shared term tuple at a time where the row allows it, with
    the same bytes; any other row is merged term by term.
    """
    parts = [signed[c] + v for c, v in lin]
    if products:
        text = _block_text(signed, products, blocks)
        if text is None:
            text = " ".join([signed[c] + key for key, c in _product_sums(products)])
        if text:
            parts.append("+ [ " + text + " ]")
    if not parts:
        return "0 "
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def _lp_lines(model: Model):
    """The lines of ``emit_lp``'s text, the last one empty."""
    num, signed, blocks = _NumText(), _SignedText(), {}
    yield "\\ " + model.name
    yield "Minimize" if model.sense == "min" else "Maximize"
    yield " obj: " + _lp_row(signed, model.objective, (), blocks)
    yield "Subject To"
    for name in sorted(model.constraints):
        con = model.constraints[name]
        row = _lp_row(signed, con.lin, con.products, blocks)
        yield f" {name}: {row} {con.sense} {num(con.rhs)}"
    yield "Bounds"
    for name in sorted(model.variables):
        var = model.variables[name]
        if var.binary:
            if var.lb == var.ub:
                yield f" {name} = {num(var.lb)}"
            continue
        if var.ub is None:
            if var.lb != 0.0:
                yield f" {name} >= {num(var.lb)}"
        elif var.lb == var.ub:
            yield f" {name} = {num(var.lb)}"
        else:
            yield f" {num(var.lb)} <= {name} <= {num(var.ub)}"
    binaries = sorted(n for n, v in model.variables.items() if v.binary)
    if binaries:
        yield "Binary"
        for name in binaries:
            yield f" {name}"
    if model.sos2:
        yield "SOS"
        for name in sorted(model.sos2):
            s = model.sos2[name]
            members = " ".join(f"{v}:{i + 1}" for i, v in enumerate(s.members))
            yield f" {name}: S2:: {members}"
    yield "End"
    yield ""  # joined, the text ends with a newline


def emit_lp(model: Model) -> str:
    """The model as CPLEX LP text, in name order; ``write_model`` writes the same."""
    return "\n".join(_lp_lines(model))


def _mps_lines(model: Model):
    """The lines of ``emit_mps``' text, the last one empty; checks before the first."""
    if any(con.products for con in model.constraints.values()):
        raise ModelError("quadratic constraints unsupported in MPS emission")
    num = _NumText()
    yield f"NAME          {model.name}"
    if model.sense == "max":
        yield "OBJSENSE"
        yield "    MAX"
    yield "ROWS"
    yield " N  obj"
    senses = {"<=": "L", ">=": "G", "=": "E"}
    rows = sorted(model.constraints)
    for name in rows:
        yield f" {senses[model.constraints[name].sense]}  {name}"
    # column-major coefficient table: per column, row label and coefficient
    # text in turn, both shared, so no string is made per entry
    cols: dict[str, list[str]] = {n: [] for n in model.variables}
    for coef, v in model.objective:
        cols[v] += "  obj  ", num[coef]
    for name in rows:
        row = "  " + name + "  "
        for coef, v in model.constraints[name].lin:
            cols[v] += row, num[coef]
    yield "COLUMNS"
    marker = 0
    in_int = False
    for vname in sorted(model.variables):
        var = model.variables[vname]
        if var.binary != in_int:
            kind = "INTORG" if var.binary else "INTEND"
            yield f"    MARKER{marker:04d}  'MARKER'                 '{kind}'"
            marker += 1
            in_int = var.binary
        entries = cols.pop(vname)
        if entries:
            # one chunk per column: its name, then a label and a number per line
            parts = ["\n    " + vname] * (len(entries) // 2 * 3)
            parts[0] = parts[0][1:]
            parts[1::3] = entries[::2]
            parts[2::3] = entries[1::2]
            yield "".join(parts)
    if in_int:
        yield f"    MARKER{marker:04d}  'MARKER'                 'INTEND'"
    yield "RHS"
    for name in rows:
        rhs = model.constraints[name].rhs
        if rhs != 0.0:
            yield f"    RHS  {name}  {num(rhs)}"
    yield "BOUNDS"
    for vname in sorted(model.variables):
        var = model.variables[vname]
        if var.binary:
            if var.lb == var.ub:
                yield f" FX BND  {vname}  {num(var.lb)}"
            else:
                yield f" BV BND  {vname}"
            continue
        if var.ub is not None and var.lb == var.ub:
            yield f" FX BND  {vname}  {num(var.lb)}"
            continue
        if var.lb != 0.0:
            yield f" LO BND  {vname}  {num(var.lb)}"
        if var.ub is not None:
            yield f" UP BND  {vname}  {num(var.ub)}"
    if model.sos2:
        yield "SOS"
        for name in sorted(model.sos2):
            yield f" S2 SOS  {name}"
            for i, v in enumerate(model.sos2[name].members):
                yield f"    {v}  {num(float(i + 1))}"
    yield "ENDATA"
    yield ""


def emit_mps(model: Model) -> str:
    return "\n".join(_mps_lines(model))


def emit_model(model: Model, fmt: str = "lp") -> str:
    if fmt == "lp":
        return emit_lp(model)
    if fmt == "mps":
        return emit_mps(model)
    raise ModelError(f"unknown emission format {fmt!r}")


_WRITE_BATCH = 1 << 20  # characters of lines joined per write


def write_model(model: Model, path, fmt: str = "lp") -> None:
    """Write ``emit_model(model, fmt)`` to ``path``, as ``Path.write_text`` would.

    The lines are joined and written about 1 MiB at a time, so the text is
    never whole in memory.  The format, and whether an MPS model has
    bilinear rows, are checked before the file is opened, so a rejected
    model leaves no file.
    """
    if fmt not in ("lp", "mps"):
        raise ModelError(f"unknown emission format {fmt!r}")
    lines = (_lp_lines if fmt == "lp" else _mps_lines)(model)
    batch = [next(lines)]  # runs the generator's checks
    size = 0
    with open(path, "w") as fh:
        for line in lines:
            batch.append(line)
            size += len(line)
            if size >= _WRITE_BATCH:
                batch.append("")  # this write ends with the newline before the next
                fh.write("\n".join(batch))
                batch, size = [], 0
        fh.write("\n".join(batch))


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
