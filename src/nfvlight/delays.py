"""Exact M/M/1 delay evaluation and solution validation.

A parsed solution is checked twice: the model constraints are re-evaluated
at the reported values, and the embedding encoded by the flow variables is
re-timed with the exact reciprocal queue delays, over every active
embedding tuple by a longest-path pass (``request_lateness``).  For the
piecewise-linear formulation the gap between the model's lateness and the
exact lateness is the realized approximation error.

Both steps cost about as much as the solution has values other than 0.0.
``validate`` keeps only those values, evaluates only the rows that
``Model.rows_to_check`` gives and checks only the bounds of the variables
that ``Model.vars_to_check`` gives; every other row and bound holds at 0.0.
``build_embedding_view`` reads only the values other than 0.0, through
tables of the names of one topology, formatted once per process.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from itertools import compress
from typing import NamedTuple

from . import naming
from .approx import shortest_paths
from .optmodel import Assignment, Model, constraint_violation, objective_value
from .scenario import Scenario

UNSTABLE = math.inf
_TOL = 1e-6


@dataclass
class Violation:
    name: str
    family: str
    amount: float


@dataclass
class EmbeddingView:
    """Routes, loads and allocations reconstructed from variable values."""

    embedded: dict[int, bool] = field(default_factory=dict)
    routes: dict[tuple, tuple[tuple[str, str], ...]] = field(default_factory=dict)
    loads: dict[tuple[str, str], float] = field(default_factory=dict)
    psi: dict[tuple[str, str], float] = field(default_factory=dict)
    established: set[tuple[str, str]] = field(default_factory=set)
    arrivals: dict[tuple[int, str, str], float] = field(default_factory=dict)
    service: dict[tuple[int, str, str], float] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


class _ViewNames(NamedTuple):
    """The names ``build_embedding_view`` reads, with what each one stands for."""

    embedded: tuple[str, ...]  # x2 per request
    # lam name -> (position in loop order, (ri, arc, v, v'), hop (w, w'),
    # the (ri, node, v') whose arrivals it adds to, or None)
    flows: dict[str, tuple]
    pairs: tuple[tuple[str, str], ...]  # ordered vertex pairs w != w'
    service: tuple[tuple[tuple[int, str, str], str], ...]  # (ri, node, v) and its mu
    lightpaths: dict[str, tuple]  # l name -> (position, (w, w'), edge)
    wavelength_lightpaths: dict[str, tuple]  # l_wa name -> (position, (w, w'))


@functools.lru_cache(maxsize=2)
def _view_names(
    vertices: tuple[str, ...],
    edges: tuple[tuple[str, str], ...],
    wavelengths: int,
    graphs: tuple[tuple[tuple[str, ...], tuple[tuple[str, str], ...]], ...],
) -> _ViewNames:
    """Every name of one topology and request set, formatted once.

    ``graphs`` holds each request's forwarding nodes and arcs, in order.
    """
    V = vertices
    squares = tuple(itertools.product(V, repeat=2))
    pairs = tuple((w, wp) for (w, wp) in squares if w != wp)
    flows: dict[str, tuple] = {}
    service = []
    for ri, (nodes, arcs) in enumerate(graphs):
        tails = {t for t, _ in arcs}
        heads = {h for _, h in arcs}
        for a in arcs:
            # a flow that ends where its hop ends arrives at a's head, if functional
            into = {vp: (ri, a[1], vp) for vp in V} if a[1] in tails else {}
            for (v, vp) in squares:
                block = (ri, a, v, vp)
                for hop in squares:
                    arrival = into.get(vp) if hop[1] == vp else None
                    name = naming.lam_name(ri, a, v, vp, *hop)
                    flows[name] = (len(flows), block, hop, arrival)
        for n in nodes:
            if n in heads and n in tails:
                service += [((ri, n, v), naming.mu_name(ri, n, v)) for v in V]
    lightpaths = {}
    for pair in pairs:
        for e in edges:
            for gamma in range(wavelengths):
                lightpaths[naming.l_name(*pair, e, gamma)] = (len(lightpaths), pair, e)
    wavelength_lightpaths = {
        naming.l_wa_name(*pair, gamma): (i, pair)
        for i, pair in enumerate(pairs)
        for gamma in range(wavelengths)
    }
    return _ViewNames(
        tuple(naming.x_name(2, ri) for ri in range(len(graphs))),
        flows, pairs, tuple(service), lightpaths, wavelength_lightpaths,
    )


def build_embedding_view(scn: Scenario, kind: str, values: dict[str, float]) -> EmbeddingView:
    """The embedding that ``values`` encode, read from its values other than 0.0.

    A value of exactly 0.0 (either sign) adds nothing to a load or an
    arrival sum, which starts at 0.0, and passes no threshold, so only the
    rest are read, each sum in the order of its terms.
    """
    sub = scn.substrate
    names = _view_names(
        sub.vertices, sub.edges, sub.wavelengths,
        tuple((req.graph.nodes, req.graph.arcs) for req in scn.requests),
    )
    view = EmbeddingView()
    thresh = scn.lambda_min / 2.0
    view.embedded = {ri: values.get(name, 0.0) > 0.5 for ri, name in enumerate(names.embedded)}

    flows, lit = [], []
    lightpaths = names.lightpaths if kind == "miqcp" else names.wavelength_lightpaths
    for name in compress(values, values.values()):
        entry = names.flows.get(name)
        if entry is not None:
            flows.append((entry, values[name]))
        else:
            entry = lightpaths.get(name)
            if entry is not None and values[name] > 0.5:
                lit.append(entry)

    if names.flows:
        view.loads = dict.fromkeys(names.pairs, 0.0)
    arrivals = dict.fromkeys([key for key, _ in names.service], 0.0)
    blocks: dict[tuple, list[tuple[str, str]]] = {}
    for (_, block, hop, arrival), val in sorted(flows):  # positions are unique
        if hop[0] != hop[1]:
            view.loads[hop] += val
        if val > thresh:
            blocks.setdefault(block, []).append(hop)
        if arrival is not None:
            arrivals[arrival] += val
    view.arrivals = arrivals
    view.service = {key: values.get(name, 0.0) for key, name in names.service}

    V = sub.vertices
    for key, hops in blocks.items():
        _, _, v, vp = key
        if v == vp and (v, v) in hops:
            rest = {h for h in hops if h != (v, v)}
            if rest:
                view.warnings.append(f"flow {key} mixes a stationary and a routed path")
            view.routes[key] = ()
            continue
        by_tail: dict[str, str] = {}
        for (w, wp) in hops:
            if w in by_tail:
                view.warnings.append(f"flow {key} branches at {w}")
            by_tail[w] = wp
        route: list[tuple[str, str]] = []
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

    if kind == "miqcp":
        for _, pair, e in sorted(lit):
            view.established.add(pair)
            view.psi[pair] = view.psi.get(pair, 0.0) + sub.delay[e]
    else:
        table = shortest_paths(sub)
        for _, pair in sorted(lit):
            view.established.add(pair)
            view.psi[pair] = table.dist[pair]
    for key, route in view.routes.items():
        for hop in route:
            if hop not in view.established:
                view.warnings.append(f"flow {key} rides a missing lightpath {hop}")
    return view


def exact_path_delay(
    view: EmbeddingView, scn: Scenario, ri: int, path: tuple[str, ...], vtuple: tuple[str, ...]
) -> float | None:
    """Exact delay along one embedded path, or None if the tuple is inactive.

    ``path`` may also be a prefix of a request path, with ``vtuple`` as long;
    its last node's sojourn is then left out.  Hops are summed first, then
    sojourns.
    """
    mu_bar = scn.substrate.line_rate
    total = 0.0
    for j in range(len(path) - 1):
        key = (ri, (path[j], path[j + 1]), vtuple[j], vtuple[j + 1])
        if key not in view.routes:
            return None
        for hop in view.routes[key]:
            slack = mu_bar - view.loads.get(hop, 0.0)
            if not slack > 1e-12:  # a NaN slack cannot be shown stable either
                return UNSTABLE
            total += view.psi.get(hop, 0.0) + 1.0 / slack
    for j in range(1, len(path) - 1):
        pkey = (ri, path[j], vtuple[j])
        slack = view.service.get(pkey, 0.0) - view.arrivals.get(pkey, 0.0)
        if not slack > 1e-12:
            return UNSTABLE
        total += 1.0 / slack
    return total


def request_lateness(view: EmbeddingView, scn: Scenario) -> dict[int, float]:
    """Worst exact lateness per request over all active embedding tuples.

    A tuple's delay is a sum over its steps, and what follows a vertex does
    not depend on how the tuple reached it: hop loads are global, and a
    sojourn depends only on its own vertex.  So each request path is walked
    one arc at a time, keeping for every vertex only the slowest active
    prefix that ends there: a longest path through a layered DAG.
    """
    # per request and arc, the (v, v') of its routed flows, in sorted order
    steps_of: dict[int, dict[tuple[str, str], list[tuple[str, str]]]] = {}
    for (ri, a, v, vp) in sorted(view.routes):
        steps_of.setdefault(ri, {}).setdefault(a, []).append((v, vp))
    out: dict[int, float] = {}
    for ri, req in enumerate(scn.requests):
        worst = 0.0
        if view.embedded.get(ri):
            steps = steps_of.get(ri, {})
            found = False
            for path in req.graph.paths():
                # the slowest prefix ending at each vertex, with its delay
                ends = {v: (0.0, (v,)) for v in scn.substrate.vertices}
                for j in range(1, len(path)):
                    longer: dict[str, tuple[float, tuple[str, ...]]] = {}
                    for (v, vp) in steps.get((path[j - 1], path[j]), ()):
                        if v in ends:
                            t = ends[v][1] + (vp,)
                            d = exact_path_delay(view, scn, ri, path[:j + 1], t)
                            if vp not in longer or d > longer[vp][0]:
                                longer[vp] = (d, t)
                    ends = longer
                for d, _ in ends.values():
                    found = True
                    worst = max(worst, d - req.d_max)
            if not found:
                view.warnings.append(f"request {ri} is embedded but has no active path")
        out[ri] = max(0.0, worst)
    return out


@dataclass
class ValidationReport:
    ok: bool
    model_kind: str
    violations: list[Violation]
    exact_lateness: dict[int, float]
    max_exact_lateness: float
    model_lateness: dict[int, float]
    model_max_lateness: float
    per_request_error: dict[int, float | None]
    approximation_error: float | None
    unstable: bool
    model_objective: float
    warnings: list[str]

    def to_json(self) -> str:
        def num(x):
            if x is None:
                return None
            return x if math.isfinite(x) else None

        payload = {
            "ok": self.ok,
            "model_kind": self.model_kind,
            "violations": [
                {"name": v.name, "family": v.family, "amount": num(v.amount)}
                for v in self.violations
            ],
            "exact_lateness": {str(k): num(v) for k, v in self.exact_lateness.items()},
            "max_exact_lateness": num(self.max_exact_lateness),
            "model_lateness": {str(k): num(v) for k, v in self.model_lateness.items()},
            "model_max_lateness": num(self.model_max_lateness),
            "per_request_error": {str(k): num(v) for k, v in self.per_request_error.items()},
            "approximation_error": num(self.approximation_error),
            "unstable": self.unstable,
            "model_objective": num(self.model_objective),
            "warnings": self.warnings,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def validate(
    scn: Scenario, model: Model, assignment: Assignment | dict[str, float]
) -> ValidationReport:
    """Re-check the model at the assignment and re-time it with exact delays.

    Only the assignment's values other than 0.0 (NaN counts) that name
    model variables are kept; every reader takes a missing one as 0.0.
    Rows come from ``model.rows_to_check`` and bounds from
    ``model.vars_to_check``, which leave out only entries that hold at these
    values, so the violations, their order and their amounts are those of a
    pass over every row and variable.  A model's copies share the indexes
    behind both, built the second time they are asked for, so a model
    validated once pays for none.
    The report is ``ok`` when no row, bound or SOS2 set is violated; the
    re-timing checks every active embedding tuple of any solution.  A NaN
    or infinite value is a ``non_finite`` violation, so it is never ``ok``.
    The warnings of a parsed ``Assignment`` come first in the report's, then
    those of the re-timing.
    """
    if isinstance(assignment, Assignment):
        raw, parse_warnings = assignment.values, assignment.warnings
    else:
        raw, parse_warnings = dict(assignment), []
    variables = model.variables
    values = {name: val for name, val in raw.items() if val != 0.0 and name in variables}
    get = values.get

    violations: list[Violation] = []
    for con in model.rows_to_check(values):
        amt = constraint_violation(con, values)
        if amt > _TOL:
            violations.append(Violation(con.name, con.family, amt))
    for var in model.vars_to_check(values):
        val = get(var.name, 0.0)
        if not math.isfinite(val):
            # nothing computed from this value can be trusted, whatever it gives
            violations.append(Violation(var.name, "non_finite", math.inf))
            continue
        gap = max(var.lb - val, (val - var.ub) if var.ub is not None else 0.0)
        if gap > _TOL:
            violations.append(Violation(var.name, "variable_bounds", gap))
    for sos in model.sos2.values():
        live = [i for i, name in enumerate(sos.members) if abs(get(name, 0.0)) > _TOL]
        if len(live) > 2 or (len(live) == 2 and live[1] - live[0] != 1):
            violations.append(Violation(sos.name, "sos2_adjacency", float(len(live))))

    view = build_embedding_view(scn, model.kind, values)
    exact = request_lateness(view, scn)
    unstable = any(math.isinf(v) for v in exact.values())

    def reported(name: str) -> float:
        # as the assignment gives it, so that a reported -0.0 keeps its sign
        return raw.get(name, 0.0) if name in variables else 0.0

    model_lateness = {ri: reported(naming.x_name(3, ri)) for ri in range(len(scn.requests))}
    per_err: dict[int, float | None] = {}
    worst_err: float | None = None
    for ri in exact:
        if not view.embedded.get(ri) or math.isinf(exact[ri]):
            per_err[ri] = None
            continue
        err = abs(model_lateness[ri] - exact[ri])
        per_err[ri] = err
        worst_err = err if worst_err is None else max(worst_err, err)

    return ValidationReport(
        ok=not violations,
        model_kind=model.kind,
        violations=violations,
        exact_lateness=exact,
        max_exact_lateness=max(exact.values(), default=0.0),
        model_lateness=model_lateness,
        model_max_lateness=reported(naming.x_name(4)),
        per_request_error=per_err,
        approximation_error=worst_err,
        unstable=unstable,
        model_objective=objective_value(model, values),
        warnings=parse_warnings + view.warnings,
    )
