"""Piecewise-linear delay approximation and wavelength-assignment-only routing.

The approximate formulation fixes every lightpath candidate to a precomputed
shortest fiber route (only the wavelength remains to be chosen) and replaces
each reciprocal queue-delay term 1/(mu - lambda) by a secant interpolation of
1/x over a base-point partition of the feasible slack window.
"""
from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass

from . import naming
from .exact import add_flow_part, apply_objective, delay_rows, load_terms
from .optmodel import Model
from .scenario import Scenario, SubstrateNetwork, propagate_rate_bounds


class ApproxError(Exception):
    pass


# ---------------------------------------------------------------------------
# fixed shortest fiber routes


@dataclass(frozen=True)
class PathTable:
    """Unique fiber route and propagation delay for every vertex pair.

    Routes are symmetric: the route for (w', w) is the reverse of the route
    for (w, w').  Ties are broken by the lexicographically smallest vertex
    index sequence, so the table is deterministic for a given substrate.
    """

    routes: dict[tuple[str, str], tuple[str, ...]]
    dist: dict[tuple[str, str], float]

    def edges_of(self, pair: tuple[str, str]) -> tuple[tuple[str, str], ...]:
        route = self.routes[pair]
        return tuple((route[i], route[i + 1]) for i in range(len(route) - 1))


def shortest_paths(substrate: SubstrateNetwork) -> PathTable:
    verts = substrate.vertices
    index = {v: i for i, v in enumerate(verts)}
    adj: dict[str, list[str]] = {v: [] for v in verts}
    for (a, b) in substrate.edges:
        adj[a].append(b)
    for v in adj:
        adj[v].sort(key=index.__getitem__)

    routes: dict[tuple[str, str], tuple[str, ...]] = {}
    dist: dict[tuple[str, str], float] = {}
    for src in verts:
        best: dict[str, tuple[float, tuple[int, ...]]] = {}
        heap: list[tuple[float, tuple[int, ...]]] = [(0.0, (index[src],))]
        while heap:
            d, path = heapq.heappop(heap)
            tail = verts[path[-1]]
            if tail in best:
                continue
            best[tail] = (d, path)
            for nxt in adj[tail]:
                if index[nxt] not in path:
                    heapq.heappush(heap, (d + substrate.delay[(tail, nxt)], path + (index[nxt],)))
        for dst in verts:
            d, path = best[dst]
            routes[(src, dst)] = tuple(verts[i] for i in path)
            dist[(src, dst)] = d
    # enforce mirrored routes for the upper triangle
    for i, a in enumerate(verts):
        for b in verts[i + 1:]:
            routes[(b, a)] = tuple(reversed(routes[(a, b)]))
            dist[(b, a)] = dist[(a, b)]
    return PathTable(routes=routes, dist=dist)


# ---------------------------------------------------------------------------
# base-point partitions


@dataclass(frozen=True)
class Partition:
    """Base points eps = p_0 < ... < p_K = upper for interpolating 1/x.

    Points are uniform in 1/sqrt(x), which equalizes the maximum secant
    error across segments.  ``shift`` is added to every interpolated value;
    a sentinel point equal to ``upper`` extends the last segment so inactive
    queues can park their slack without contributing delay.
    """

    eps: float
    upper: float
    points: tuple[float, ...]
    shift: float = 0.0

    @property
    def K(self) -> int:
        return len(self.points) - 1

    @property
    def knots(self) -> tuple[float, ...]:
        return self.points + (self.points[-1],)

    def segment_error(self, k: int) -> float:
        a, b = self.points[k - 1], self.points[k]
        return (1.0 / math.sqrt(a) - 1.0 / math.sqrt(b)) ** 2

    def max_error(self) -> float:
        return max(self.segment_error(k) for k in range(1, self.K + 1))


def compute_partition(eps: float, upper: float, n_points: int, shift_mode: str = "zero") -> Partition:
    if not eps > 0:
        raise ApproxError(f"partition needs eps > 0, got {eps!r}")
    if not upper > eps:
        raise ApproxError(f"partition needs upper > eps, got [{eps!r}, {upper!r}]")
    if n_points < 2:
        raise ApproxError("partition needs at least two base points")
    K = n_points - 1
    u0 = 1.0 / math.sqrt(eps)
    u1 = 1.0 / math.sqrt(upper)
    points = [eps]
    for k in range(1, K):
        u = u0 + k * (u1 - u0) / K
        points.append(1.0 / (u * u))
    points.append(upper)
    part = Partition(eps=eps, upper=upper, points=tuple(points))
    if shift_mode == "zero":
        return part
    if shift_mode == "balanced":
        return Partition(eps=eps, upper=upper, points=tuple(points), shift=-part.max_error() / 2.0)
    raise ApproxError(f"unknown shift mode {shift_mode!r}")


def minimal_base_points(eps: float, upper: float, error_target: float) -> int:
    """Smallest point count whose equal-error partition meets the target."""
    if not error_target > 0:
        raise ApproxError("error target must be positive")
    span = 1.0 / math.sqrt(eps) - 1.0 / math.sqrt(upper)
    K = max(1, math.ceil((span / math.sqrt(error_target)) * (1.0 - 1e-12)))
    return K + 1


def eval_gtilde(partition: Partition, x: float) -> float:
    """Secant interpolation of 1/x at slack ``x``, plus the configured shift."""
    pts = partition.points
    atol = 1e-9 * max(1.0, partition.upper)
    if x < partition.eps - atol or x > partition.upper + atol:
        raise ApproxError(f"slack {x!r} outside [{partition.eps!r}, {partition.upper!r}]")
    x = min(max(x, pts[0]), pts[-1])
    i = bisect.bisect_left(pts, x)
    if i == 0:
        i = 1
    a, b = pts[i - 1], pts[i]
    t = (x - a) / (b - a)
    return (1.0 - t) / a + t / b + partition.shift


def interpolate_xi(partition: Partition, slack: float, active: bool) -> tuple[float, ...]:
    """Canonical SOS2 weights reproducing ``slack`` (and activity) exactly."""
    K = partition.K
    xi = [0.0] * (K + 2)
    atol = 1e-9 * max(1.0, partition.upper)
    if not active:
        if slack < -atol or slack > partition.upper + atol:
            raise ApproxError(f"inactive slack {slack!r} outside [0, {partition.upper!r}]")
        xi[K + 1] = min(max(slack / partition.upper, 0.0), 1.0)
        return tuple(xi)
    pts = partition.points
    if slack < partition.eps - atol or slack > partition.upper + atol:
        raise ApproxError(f"active slack {slack!r} outside [{partition.eps!r}, {partition.upper!r}]")
    x = min(max(slack, pts[0]), pts[-1])
    i = bisect.bisect_left(pts, x)
    if i == 0:
        i = 1
    a, b = pts[i - 1], pts[i]
    t = (x - a) / (b - a)
    xi[i - 1] = 1.0 - t
    xi[i] = t
    return tuple(xi)


# ---------------------------------------------------------------------------
# per-scenario queue partitions


@dataclass(frozen=True)
class QueuePartitions:
    forwarding: Partition
    processing: dict[tuple[int, str, str], Partition]
    blocked: frozenset[tuple[int, str, str]] = frozenset()


def resolve_partitions(scn: Scenario) -> QueuePartitions:
    cfg = scn.approx
    sub = scn.substrate
    bounds = propagate_rate_bounds(scn)
    max_arc = max(bounds.values(), default=0.0)

    fwd_upper = cfg.forwarding.upper if cfg.forwarding.upper is not None else sub.line_rate
    fwd_eps = cfg.forwarding.eps if cfg.forwarding.eps is not None else sub.line_rate - max_arc
    if not fwd_eps > 0:
        raise ApproxError(
            "forwarding margin window is empty: the aggregate rate bound reaches the "
            "line rate; configure approx.forwarding.eps"
        )
    fwd_n = cfg.forwarding.base_points or minimal_base_points(fwd_eps, fwd_upper, cfg.error_target)
    forwarding = compute_partition(fwd_eps, fwd_upper, fwd_n, cfg.shift_mode)

    processing: dict[tuple[int, str, str], Partition] = {}
    blocked = set()
    for ri, req in enumerate(scn.requests):
        g = req.graph
        for n in g.functional:
            alpha, beta = g.node_alpha(n), g.node_beta(n)
            inflow = sum(bounds[(ri, a)] for a in g.in_arcs(n))
            for v in sub.vertices:
                key = (ri, n, v)
                vcfg = cfg.processing_by_vertex.get(v, cfg.processing)
                cap = sub.cap(v)
                if alpha == 0.0:
                    if cap < beta:
                        blocked.add(key)
                        continue
                    upper = vcfg.upper if vcfg.upper is not None else cfg.processing.upper
                    if upper is None:
                        raise ApproxError(
                            f"service rate for node {n} at {v} is unbounded; "
                            "set approx.processing.upper"
                        )
                else:
                    upper = (cap - beta) / alpha
                if not upper > 0:
                    blocked.add(key)
                    continue
                eps = vcfg.eps if vcfg.eps is not None else cfg.processing.eps
                if eps is None:
                    eps = upper - inflow
                if not eps > 0 or not eps < upper:
                    raise ApproxError(
                        f"processing margin window for node {n} at {v} is empty "
                        f"(eps={eps!r}, upper={upper!r}); configure approx.processing"
                    )
                n_points = vcfg.base_points or cfg.processing.base_points or minimal_base_points(
                    eps, upper, cfg.error_target
                )
                processing[key] = compute_partition(eps, upper, n_points, cfg.shift_mode)
    return QueuePartitions(forwarding=forwarding, processing=processing, blocked=frozenset(blocked))


# ---------------------------------------------------------------------------
# MILP builder


def build_milp(
    scn: Scenario,
    fixed_topology: bool = False,
    *,
    prune_pinned_tuples: bool = False,
    objective_part: int | None = None,
    pinned_objectives=(),
) -> Model:
    """Compile the wavelength-assignment-only piecewise-linear formulation."""
    scn.validate()
    sub = scn.substrate
    V = sub.vertices
    gammas = range(sub.wavelengths)
    mu_bar = sub.line_rate
    table = shortest_paths(sub)
    parts = resolve_partitions(scn)

    m = Model("milp", name=f"{scn.name}-milp")
    ctx = add_flow_part(m, scn, prune_pinned_tuples=prune_pinned_tuples)

    pairs_ne = [(w, wp) for w in V for wp in V if w != wp]

    # reduced lightpath variables: route is fixed, only the wavelength is free
    l_tab: dict[tuple[str, str, int], str] = {}
    for (w, wp) in pairs_ne:
        for g in gammas:
            l_tab[(w, wp, g)] = m.add_var(naming.l_wa_name(w, wp, g), "l", binary=True)

    load = {(w, wp): load_terms(scn, ctx, w, wp) for w in V for wp in V}

    for (w, wp) in pairs_ne:
        cap_terms = load_terms(scn, ctx, w, wp, skip_degenerate=True)
        cap_terms += tuple((-mu_bar, l_tab[(w, wp, g)]) for g in gammas)
        m.add_con(f"lightpath_capacity_{w}_{wp}", "lightpath_capacity", cap_terms, "<=", 0.0)

        m.add_con(
            f"single_wavelength_{w}_{wp}",
            "single_wavelength",
            [(1.0, l_tab[(w, wp, g)]) for g in gammas],
            "<=",
            1.0,
        )

        margin = [(parts.forwarding.eps, l_tab[(w, wp, g)]) for g in gammas]
        margin += load[(w, wp)]
        margin += [(-mu_bar, l_tab[(w, wp, g)]) for g in gammas]
        m.add_con(f"forwarding_margin_{w}_{wp}", "forwarding_margin", margin, "<=", 0.0)

    # a wavelength on a fiber belongs to at most one fixed route crossing it
    users: dict[tuple[str, str], list[tuple[str, str]]] = {e: [] for e in sub.edges}
    for (w, wp) in pairs_ne:
        for e in table.edges_of((w, wp)):
            users[e].append((w, wp))
    for e in sub.edges:
        if not users[e]:
            continue
        for g in gammas:
            m.add_con(
                f"wavelength_exclusive_{naming.edge_token(e)}_g{g}",
                "wavelength_exclusive",
                [(1.0, l_tab[(w, wp, g)]) for (w, wp) in users[e]],
                "<=",
                1.0,
            )

    for (w, wp) in pairs_ne:
        for g in gammas:
            m.add_con(
                f"lightpath_bidirectional_{w}_{wp}_g{g}",
                "lightpath_bidirectional",
                [(1.0, l_tab[(w, wp, g)]), (-1.0, l_tab[(wp, w, g)])],
                "=",
                0.0,
            )

    for w in V:
        m.add_con(
            f"transceiver_budget_{w}",
            "transceiver_budget",
            [(1.0, l_tab[(w, wp, g)]) for wp in V if wp != w for g in gammas],
            "<=",
            float(sub.degree(w)),
        )

    # processing margin and knots
    for ri, req in enumerate(scn.requests):
        for n in req.graph.functional:
            for v in V:
                key = (ri, n, v)
                yv = ctx.y[key]
                inflow = ctx.inflow[key]
                part = parts.processing.get(key)
                if part is None:
                    m.fix_var(yv, 0.0)
                    continue
                m.add_con(
                    f"processing_margin_r{ri}_{naming.node_token(n)}_{v}",
                    "processing_margin",
                    [(part.eps, yv), *inflow, (-1.0, ctx.mu[key])],
                    "<=",
                    0.0,
                )
                knots = part.knots
                xi = [
                    m.add_var(naming.xi_proc_name(ri, n, v, k), "xi", lb=0.0, ub=1.0)
                    for k in range(part.K + 2)
                ]
                m.add_sos2(f"sos2_proc_r{ri}_{naming.node_token(n)}_{v}", xi)
                m.add_con(
                    f"processing_knots_r{ri}_{naming.node_token(n)}_{v}",
                    "processing_knots",
                    [(1.0, yv)] + [(-1.0, x) for x in xi[: part.K + 1]],
                    "=",
                    0.0,
                )
                slack = [(1.0, ctx.mu[key])]
                slack += [(-1.0, x) for _, x in inflow]
                slack += [(-knots[k], xi[k]) for k in range(part.K + 2)]
                m.add_con(
                    f"processing_slack_r{ri}_{naming.node_token(n)}_{v}",
                    "processing_slack",
                    slack,
                    "=",
                    0.0,
                )

    # forwarding knots: one SOS2 group per routed flow per ordered vertex pair
    fwd = parts.forwarding
    fwd_values = [1.0 / fwd.knots[k] + fwd.shift for k in range(fwd.K + 1)]
    xi_fwd: dict[tuple, list[str]] = {}
    for key, zname in ctx.z.items():
        ri, a, v, vp, w, wp = key
        xi = [
            m.add_var(naming.xi_fwd_name(*key, k), "xi", lb=0.0, ub=1.0)
            for k in range(fwd.K + 2)
        ]
        xi_fwd[key] = xi
        base = f"r{ri}_{naming.arc_token(a)}_{v}_{vp}_{w}_{wp}"
        m.add_sos2(f"sos2_fwd_{base}", xi)
        m.add_con(
            f"forwarding_knots_{base}",
            "forwarding_knots",
            [(1.0, zname)] + [(-1.0, x) for x in xi[: fwd.K + 1]],
            "=",
            0.0,
        )
        slack = [(fwd.knots[k], xi[k]) for k in range(fwd.K + 2)]
        slack += load[(w, wp)]
        m.add_con(
            f"forwarding_slack_{base}",
            "forwarding_slack",
            slack,
            "=",
            mu_bar,
        )

    # piecewise delay rows, one per source-destination path and vertex tuple
    def hop_terms(ri, a, v, vp):
        for (w, wp) in pairs_ne:
            key = (ri, a, v, vp, w, wp)
            d = table.dist[(w, wp)]
            if d:
                yield (d, ctx.z[key])
            yield from zip(fwd_values, xi_fwd[key])

    def inner_terms(ri, n, v):
        part = parts.processing.get((ri, n, v))
        if part is None:
            return ()
        return [
            (1.0 / part.knots[k] + part.shift, naming.xi_proc_name(ri, n, v, k))
            for k in range(part.K + 1)
        ]

    for name, ri, terms in delay_rows(scn, ctx, hop_terms, inner_terms):
        m.add_con(name, "delay", [(-1.0, ctx.x3[ri]), *terms], "<=", scn.requests[ri].d_max)

    if fixed_topology:
        # the fixed topology lights every fiber as a one-hop lightpath on wavelength 0
        for (w, wp, g), name in l_tab.items():
            m.fix_var(name, 1.0 if (w, wp) in sub.edges and g == 0 else 0.0)

    path_terms = [
        (table.dist[(w, wp)], l_tab[(w, wp, g)])
        for (w, wp) in pairs_ne
        for g in gammas
        if table.dist[(w, wp)]
    ]
    apply_objective(m, scn, ctx, path_terms, objective_part, pinned_objectives)
    return m
