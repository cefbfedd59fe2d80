"""Exact M/M/1 delay evaluation and solution validation.

A parsed solution is checked twice: every model constraint is re-evaluated
at the reported values, and the embedding encoded by the flow variables is
re-timed with the exact reciprocal queue delays, over every active
embedding tuple by a longest-path pass (``request_lateness``).  For the
piecewise-linear formulation the gap between the model's lateness and the
exact lateness is the realized approximation error.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

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


def build_embedding_view(scn: Scenario, kind: str, values: dict[str, float]) -> EmbeddingView:
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
            delay = 0.0
            lit = False
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
            lit = any(
                values.get(naming.l_wa_name(w, wp, gamma), 0.0) > 0.5
                for gamma in range(sub.wavelengths)
            )
            if lit:
                view.established.add((w, wp))
                view.psi[(w, wp)] = table.dist[(w, wp)]
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
    out: dict[int, float] = {}
    for ri, req in enumerate(scn.requests):
        worst = 0.0
        if view.embedded.get(ri):
            steps: dict[tuple[str, str], list[tuple[str, str]]] = {}
            for (rk, ak, v, vp) in sorted(view.routes):
                if rk == ri:
                    steps.setdefault(ak, []).append((v, vp))
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
    """Re-check every model row at the assignment and re-time it with exact delays.

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
    values = {name: raw.get(name, 0.0) for name in model.variables}

    violations: list[Violation] = []
    for con in model.constraints.values():
        amt = constraint_violation(con, values)
        if amt > _TOL:
            violations.append(Violation(con.name, con.family, amt))
    for var in model.variables.values():
        val = values[var.name]
        if not math.isfinite(val):
            # nothing computed from this value can be trusted, whatever it gives
            violations.append(Violation(var.name, "non_finite", math.inf))
            continue
        gap = max(var.lb - val, (val - var.ub) if var.ub is not None else 0.0)
        if gap > _TOL:
            violations.append(Violation(var.name, "variable_bounds", gap))
    for sos in model.sos2.values():
        live = [i for i, name in enumerate(sos.members) if abs(values[name]) > _TOL]
        if len(live) > 2 or (len(live) == 2 and live[1] - live[0] != 1):
            violations.append(Violation(sos.name, "sos2_adjacency", float(len(live))))

    view = build_embedding_view(scn, model.kind, values)
    exact = request_lateness(view, scn)
    unstable = any(math.isinf(v) for v in exact.values())

    model_lateness = {
        ri: values.get(naming.x_name(3, ri), 0.0) for ri in range(len(scn.requests))
    }
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
        model_max_lateness=values.get("x4", 0.0),
        per_request_error=per_err,
        approximation_error=worst_err,
        unstable=unstable,
        model_objective=objective_value(model, values),
        warnings=parse_warnings + view.warnings,
    )
