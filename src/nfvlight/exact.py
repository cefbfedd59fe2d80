"""Exact quadratically constrained formulation of the joint embedding problem.

The model decides, per request, whether to embed its forwarding graph, where
to place each function, how to route every data flow over directed lightpaths,
and which fiber route plus wavelength realizes each lightpath.  Queue delays
enter through bilinear rows that define the forwarding and processing sojourn
times exactly, so a feasible solution's lateness variables dominate the true
M/M/1 delays.

Each builder keeps one compiled model, keyed by the values of the scenario
fields its rows read (``_compile_key``).  The rows that read a scenario's
restrictions and capacities are left out of it (``add_scenario_rows``), so
all capacity permutations of one topology share one compiled MIQCP; the
MILP's queue partitions read the capacities, so its key holds them.  Every
call, a hit or a miss, returns a ``Model.copy`` of the compiled model with
the scenario's own rows added and the scenario's name; a fixed-topology
model copies a kept copy whose lightpaths are fixed.  The process holds one
compiled model: a miss drops it before compiling the next.  The kept model
stays valid because a ``Scenario`` is immutable after construction.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from . import naming
from .optmodel import Model, ModelError, _merge_lin
from .scenario import Scenario, propagate_rate_bounds


@dataclass(frozen=True)
class BigMPolicy:
    """Activation constants, tightened per index where a bound is known."""

    lambda_min: float
    activation: float
    lateness_cap: float
    placement: dict[tuple[int, str], float]
    arc: dict[tuple[int, tuple[str, str]], float]


def compute_bigM(scn: Scenario) -> BigMPolicy:
    lam_min = scn.lambda_min
    if not lam_min > 0:
        raise ModelError("big-M policy needs a positive minimum flow rate")
    bounds = propagate_rate_bounds(scn)
    activation = 1.0 / lam_min

    placement: dict[tuple[int, str], float] = {}
    arc: dict[tuple[int, tuple[str, str]], float] = {}
    cap = 0.0
    total_prop = scn.substrate.total_fiber_delay()
    n_hops = max(0, len(scn.substrate.vertices) - 1)
    for ri, req in enumerate(scn.requests):
        g = req.graph
        for a in g.arcs:
            arc[(ri, a)] = bounds[(ri, a)]
        for n in g.functional:
            placement[(ri, n)] = sum(bounds[(ri, a)] for a in g.in_arcs(n))
        longest = max((len(p) for p in g.paths()), default=0)
        if longest:
            cap = max(cap, (longest - 1) * n_hops * total_prop + longest * activation)
    if scn.big_m.lateness_cap is not None:
        cap = scn.big_m.lateness_cap
    elif cap == 0.0:
        cap = activation
    return BigMPolicy(
        lambda_min=lam_min,
        activation=activation,
        lateness_cap=cap,
        placement=placement,
        arc=arc,
    )


@dataclass
class FlowContext:
    """Variable-name tables produced while adding the shared flow families.

    ``inflow`` holds, per ``(request, node, vertex)``, the routed flows that
    arrive at the node placed on the vertex, as ``(1.0, lam)`` terms.
    """

    allowed: dict[tuple[int, str], tuple[str, ...]]
    lam: dict[tuple, str] = field(default_factory=dict)
    z: dict[tuple, str] = field(default_factory=dict)
    y: dict[tuple[int, str, str], str] = field(default_factory=dict)
    mu: dict[tuple[int, str, str], str] = field(default_factory=dict)
    inflow: dict[tuple[int, str, str], tuple[tuple[float, str], ...]] = field(default_factory=dict)
    x1: list[str] = field(default_factory=list)
    x2: list[str] = field(default_factory=list)
    x3: list[str] = field(default_factory=list)
    x4: str = "x4"


def add_flow_part(m: Model, scn: Scenario, *, prune_pinned_tuples: bool = False) -> FlowContext:
    """Add flow, placement and activation variables with their constraints.

    Both formulations share this part: fulfillment switches, routed-flow
    variables indexed by data endpoints and lightpath hop, placement switches
    with service rates, flow conservation, and all structural zero rows.
    The rows that read restrictions and capacities are in ``add_scenario_rows``.
    """
    V = scn.substrate.vertices
    bigm = compute_bigM(scn)

    allowed: dict[tuple[int, str], tuple[str, ...]] = {}
    for ri, req in enumerate(scn.requests):
        g = req.graph
        for n in g.nodes:
            allowed[(ri, n)] = V
        if prune_pinned_tuples:
            for restrictions in (req.source_restrictions, req.dest_restrictions):
                by_node: dict[str, list[str]] = {}
                for (n, v, prop) in restrictions:
                    if prop > 0:
                        by_node.setdefault(n, []).append(v)
                for n, verts in by_node.items():
                    allowed[(ri, n)] = tuple(v for v in V if v in set(verts))
    ctx = FlowContext(allowed=allowed)

    cap = bigm.lateness_cap
    m.add_var("x4", "x4", lb=0.0, ub=cap)

    for ri, req in enumerate(scn.requests):
        g = req.graph
        x1 = m.add_var(naming.x_name(1, ri), "x1", binary=True)
        x2 = m.add_var(naming.x_name(2, ri), "x2", binary=True)
        x3 = m.add_var(naming.x_name(3, ri), "x3", lb=0.0, ub=cap)
        ctx.x1.append(x1)
        ctx.x2.append(x2)
        ctx.x3.append(x3)

        m.add_con(
            f"fulfilled_implies_embedded_r{ri}",
            "fulfilled_implies_embedded",
            [(1.0, x1), (-1.0, x2)],
            "<=",
            0.0,
        )
        m.add_con(
            f"lateness_activation_r{ri}",
            "lateness_activation",
            [(1.0, x3), (cap, x1)],
            "<=",
            cap,
        )
        m.add_con(
            f"max_lateness_r{ri}",
            "max_lateness",
            [(1.0, x3), (-1.0, "x4")],
            "<=",
            0.0,
        )

        for a in g.arcs:
            for v, vp, w, wp in itertools.product(V, repeat=4):
                ctx.lam[(ri, a, v, vp, w, wp)] = m.add_var(
                    naming.lam_name(ri, a, v, vp, w, wp), "lam", lb=0.0
                )
                ctx.z[(ri, a, v, vp, w, wp)] = m.add_var(
                    naming.z_name(ri, a, v, vp, w, wp), "z", binary=True
                )
        for n in g.functional:
            for v in V:
                ctx.y[(ri, n, v)] = m.add_var(naming.y_name(ri, n, v), "y", binary=True)
                ctx.mu[(ri, n, v)] = m.add_var(naming.mu_name(ri, n, v), "mu", lb=0.0)

    for ri, req in enumerate(scn.requests):
        g = req.graph

        # placement switches follow the traffic arriving at each vertex
        for n in g.functional:
            m_pl = bigm.placement[(ri, n)]
            for v in V:
                ctx.inflow[(ri, n, v)] = inflow = tuple(
                    (1.0, ctx.lam[(ri, a, vp, v, wp, v)])
                    for a in g.in_arcs(n)
                    for vp in V
                    for wp in V
                )
                yv = ctx.y[(ri, n, v)]
                m.add_con(
                    f"placement_activation_ub_r{ri}_{naming.node_token(n)}_{v}",
                    "placement_activation_ub",
                    [*inflow, (-m_pl, yv)],
                    "<=",
                    0.0,
                )
                m.add_con(
                    f"placement_activation_lb_r{ri}_{naming.node_token(n)}_{v}",
                    "placement_activation_lb",
                    [(1.0, yv)] + [(-bigm.activation, x) for _, x in inflow],
                    "<=",
                    0.0,
                )

        # flow indicators bracket the routed-flow variables
        for a in g.arcs:
            m_a = bigm.arc[(ri, a)]
            for v, vp, w, wp in itertools.product(V, repeat=4):
                lam = ctx.lam[(ri, a, v, vp, w, wp)]
                z = ctx.z[(ri, a, v, vp, w, wp)]
                base = naming.flow_token(ri, a, v, vp, w, wp)
                m.add_con(
                    f"flow_indicator_ub_{base}",
                    "flow_indicator_ub",
                    [(1.0, lam), (-m_a, z)],
                    "<=",
                    0.0,
                )
                m.add_con(
                    f"flow_indicator_lb_{base}",
                    "flow_indicator_lb",
                    [(1.0, z), (-bigm.activation, lam)],
                    "<=",
                    0.0,
                )

        # embedding a request turns on exactly the configured initial rates
        for a, rate in sorted(req.initial_rates.items()):
            first_hops = [
                (1.0, ctx.lam[(ri, a, v, vp, v, wp)])
                for v in V
                for vp in V
                for wp in V
            ]
            m.add_con(
                f"initial_rate_r{ri}_{naming.arc_token(a)}",
                "initial_rate",
                first_hops + [(-rate, ctx.x2[ri])],
                "=",
                0.0,
            )

        # each function scales arriving traffic into departing traffic
        for n in g.functional:
            for a_out in g.out_arcs(n):
                for v in V:
                    terms = []
                    for a_in in g.in_arcs(n):
                        coef = g.alpha(a_out, a_in)
                        for vp, wp in itertools.product(V, repeat=2):
                            terms.append((coef, ctx.lam[(ri, a_in, vp, v, wp, v)]))
                    beta = g.beta(a_out)
                    if beta:
                        terms.append((beta, ctx.y[(ri, n, v)]))
                    for vp, wp in itertools.product(V, repeat=2):
                        terms.append((-1.0, ctx.lam[(ri, a_out, v, vp, v, wp)]))
                    m.add_con(
                        f"arc_transform_r{ri}_{naming.arc_token(a_out)}_{v}",
                        "arc_transform",
                        terms,
                        "=",
                        0.0,
                    )

        for a in g.arcs:
            tok = naming.arc_token(a)
            # flow entering an intermediate vertex leaves it again
            for v, vp in itertools.product(V, repeat=2):
                for w in V:
                    if w == v or w == vp:
                        continue
                    terms = [
                        (1.0, ctx.lam[(ri, a, v, vp, wp, w)]) for wp in V
                    ] + [
                        (-1.0, ctx.lam[(ri, a, v, vp, w, wp)]) for wp in V
                    ]
                    m.add_con(
                        f"route_conservation_r{ri}_{tok}_{v}_{vp}_{w}",
                        "route_conservation",
                        terms,
                        "=",
                        0.0,
                    )
            # a routed flow leaves each vertex over at most one lightpath
            for v, vp, w in itertools.product(V, repeat=3):
                m.add_con(
                    f"route_unique_r{ri}_{tok}_{v}_{vp}_{w}",
                    "route_unique",
                    [(1.0, ctx.z[(ri, a, v, vp, w, wp)]) for wp in V],
                    "<=",
                    1.0,
                )
            # structural zeros: no loops, no reentering endpoints
            for v, vp, w in itertools.product(V, repeat=3):
                if v == w and vp == w:
                    continue
                m.add_con(
                    f"no_route_selfloop_r{ri}_{tok}_{v}_{vp}_{w}",
                    "no_route_selfloop",
                    [(1.0, ctx.lam[(ri, a, v, vp, w, w)])],
                    "=",
                    0.0,
                )
                m.add_con(
                    f"no_data_selfloop_r{ri}_{tok}_{v}_{vp}_{w}",
                    "no_data_selfloop",
                    [(1.0, ctx.lam[(ri, a, w, w, v, vp)])],
                    "=",
                    0.0,
                )
            for v, vp in itertools.product(V, repeat=2):
                if v == vp:
                    continue
                for w in V:
                    m.add_con(
                        f"no_return_to_origin_r{ri}_{tok}_{v}_{vp}_{w}",
                        "no_return_to_origin",
                        [(1.0, ctx.lam[(ri, a, v, vp, w, v)])],
                        "=",
                        0.0,
                    )
                    m.add_con(
                        f"no_departure_from_target_r{ri}_{tok}_{v}_{vp}_{w}",
                        "no_departure_from_target",
                        [(1.0, ctx.lam[(ri, a, v, vp, vp, w)])],
                        "=",
                        0.0,
                    )

    return ctx


@functools.lru_cache(maxsize=64)
def _split_terms(
    vertices: tuple[str, ...], ri: int, arcs: tuple[tuple[str, str], ...], v: str,
    share: str, source: bool,
) -> tuple[tuple[float, str], ...]:
    """The merged terms of one ``source_split`` or ``dest_split`` row.

    ``share`` is the proportion by ``float.hex``, so that keys equal by
    ``==`` but not in sign, such as 0.0 and -0.0, stay apart.
    """
    V, lam, prop = vertices, naming.lam_name, float.fromhex(share)
    terms: list[tuple[float, str]] = []
    for a in arcs:
        if source:  # traffic leaving a source splits over vertices by configured share
            for v2, vp, wp in itertools.product(V, repeat=3):
                terms.append((prop, lam(ri, a, v2, vp, v2, wp)))
            for vp, wp in itertools.product(V, repeat=2):
                terms.append((-1.0, lam(ri, a, v, vp, v, wp)))
        else:  # traffic reaching a destination splits over vertices by share
            for v2, vp, w in itertools.product(V, repeat=3):
                terms.append((prop, lam(ri, a, v2, vp, w, vp)))
            for v2, w in itertools.product(V, repeat=2):
                terms.append((-1.0, lam(ri, a, v2, v, w, v)))
    return _merge_lin(terms)


def add_scenario_rows(m: Model, scn: Scenario) -> None:
    """Add the rows that read a scenario's restrictions and capacities.

    These are the rows that differ between the capacity permutations of one
    topology, so ``compiled_copy`` adds them to each copy of a compiled model.
    The split rows' merged terms come from ``_split_terms``, kept per
    topology by every value they read; ``add_con`` still checks each row.
    """
    V = scn.substrate.vertices
    for ri, req in enumerate(scn.requests):
        g = req.graph
        for source, family, restrictions, arcs_of in (
            (True, "source_split", req.source_restrictions, g.out_arcs),
            (False, "dest_split", req.dest_restrictions, g.in_arcs),
        ):
            for (n, v, prop) in restrictions:
                terms = _split_terms(V, ri, arcs_of(n), v, float(prop).hex(), source)
                m.add_con(f"{family}_r{ri}_{naming.node_token(n)}_{v}", family, terms, "=", 0.0)

    # placed functions share each vertex's processing capacity
    for v in V:
        terms = []
        for ri, req in enumerate(scn.requests):
            g = req.graph
            for n in g.functional:
                terms.append((g.node_alpha(n), naming.mu_name(ri, n, v)))
                beta = g.node_beta(n)
                if beta:
                    terms.append((beta, naming.y_name(ri, n, v)))
        if terms:
            m.add_con(f"vertex_capacity_{v}", "vertex_capacity", terms, "<=", scn.substrate.cap(v))


def load_terms(
    scn: Scenario, ctx: FlowContext, w: str, wp: str, skip_degenerate: bool = False
) -> tuple[tuple[float, str], ...]:
    """Aggregate load on lightpath (w, w') as ``(1.0, lam)`` terms.

    ``skip_degenerate`` leaves out flows whose data endpoints coincide.  A
    tuple, so rows can share one expression.
    """
    V = scn.substrate.vertices
    return tuple(
        (1.0, ctx.lam[(ri, a, v, vp, w, wp)])
        for ri, req in enumerate(scn.requests)
        for a in req.graph.arcs
        for v in V
        for vp in V
        if not (skip_degenerate and v == vp)
    )


def delay_rows(scn: Scenario, ctx: FlowContext, hop_terms, inner_terms):
    """Enumerate the delay rows: one per request path and allowed vertex tuple.

    Yields the row name, the request index and the row's terms (linear terms
    or bilinear products): for each data hop ``(arc, v, v')`` along the path,
    ``hop_terms(ri, arc, v, v')``, then for each inner placement ``(node, v)``,
    ``inner_terms(ri, node, v)``.  Each hop's terms are built once, as a tuple
    that every row crossing the hop shares, so the rows hold references to
    one set of term objects.
    """
    blocks: dict[tuple, tuple] = {}
    for ri, req in enumerate(scn.requests):
        for pi, path in enumerate(req.graph.paths()):
            arcs = list(zip(path, path[1:]))
            for vtuple in itertools.product(*(ctx.allowed[(ri, n)] for n in path)):
                terms: list = []
                for j, a in enumerate(arcs):
                    key = (ri, a, vtuple[j], vtuple[j + 1])
                    block = blocks.get(key)
                    if block is None:
                        block = blocks[key] = tuple(hop_terms(*key))
                    terms += block
                for n, v in zip(path[1:-1], vtuple[1:-1]):
                    terms += inner_terms(ri, n, v)
                yield f"delay_r{ri}_p{pi}_" + "_".join(vtuple), ri, terms


def apply_objective(
    m: Model,
    scn: Scenario,
    ctx: FlowContext,
    path_terms: list[tuple[float, str]],
) -> None:
    """Install the weighted objective and record its four parts on the model.

    ``path_terms`` carries the propagation-cost expression, which differs
    between the two formulations.  ``m.objective_parts`` maps each part to
    its terms and the sense a staged solve optimizes it in: fulfilled and
    embedded counts are maximized, lateness and resource use minimized.
    """
    W = scn.weights

    def degenerate(k) -> bool:
        _, _, v, vp, w, wp = k
        return v == vp == w == wp

    data_terms = [
        ((0.5 if degenerate(k) else 1.0), name) for k, name in sorted(ctx.lam.items())
    ]
    proc_terms = [(1.0, name) for _, name in sorted(ctx.mu.items())]
    resources = (
        [(W.path_cost * c, n) for c, n in path_terms]
        + [(W.data_cost * c, n) for c, n in data_terms]
        + [(W.proc_cost * c, n) for c, n in proc_terms]
    )
    m.objective_parts = {
        1: (tuple((1.0, x) for x in ctx.x1), "max"),
        2: (tuple((1.0, x) for x in ctx.x2), "max"),
        3: (((1.0, ctx.x4),), "min"),
        4: (tuple(resources), "min"),
    }
    terms = [(W.lateness, ctx.x4)]
    terms += [(-W.fulfilled, x) for x in ctx.x1]
    terms += [(-W.embedded, x) for x in ctx.x2]
    terms += [(W.resources * c, n) for c, n in resources]
    m.set_objective(terms, "min")


# The one compiled model: (key, model, its lightpath fixings, its copy with the
# lightpaths fixed or None until a fixed-topology call asks).  The tuple is
# swapped whole and read once per call, so a race between threads can cost a
# second build but never hands out a model compiled for another key.
_compiled: tuple | None = None


def _compile_key(scn: Scenario, compile_model, prune_pinned_tuples: bool,
                 reads_capacity: bool) -> tuple:
    """Every field of ``scn`` that ``compile_model``'s rows read, compared by equality.

    The restrictions join the key only when pruning reads them, and the
    capacities only for a compile that ``reads_capacity``.  A zero ``d_max``
    or lateness cap is keyed by its text, since ``-0.0 == 0.0`` yet LP files
    print the sign of a zero right-hand side or bound.
    """
    sub = scn.substrate
    return (
        compile_model, prune_pinned_tuples,
        sub.vertices, sub.edges, sub.delay, sub.wavelengths, sub.line_rate,
        sub.capacity if reads_capacity else None,
        tuple(
            (req.graph, req.initial_rates, repr(req.d_max),
             (req.source_restrictions, req.dest_restrictions) if prune_pinned_tuples else None)
            for req in scn.requests
        ),
        scn.weights, scn.approx, scn.big_m, repr(scn.big_m.lateness_cap),
    )


def compiled_copy(scn: Scenario, fixed_topology: bool, prune_pinned_tuples: bool,
                  compile_model, reads_capacity: bool) -> Model:
    """``compile_model(scn, prune_pinned_tuples)``'s model with ``scn``'s own rows.

    ``compile_model`` returns the model without ``add_scenario_rows``' rows
    and the value of every lightpath variable under the fixed topology.  The
    compiled model is kept for the next call whose ``_compile_key`` is equal,
    and so, from the first fixed-topology call on, is a copy of it whose top
    holds the lightpath fixings.  Every call, hit or miss, copies one of the
    two, names the copy after ``scn`` and adds the scenario rows to its top.
    Copies share frozen layers, so the builds of both modes share one row
    index, and those of each mode one variable index.
    """
    global _compiled
    key = _compile_key(scn, compile_model, prune_pinned_tuples, reads_capacity)
    entry = _compiled
    if entry is None or entry[0] != key:
        entry = _compiled = None  # the old model goes before the new one is built
        compiled, fixings = compile_model(scn, prune_pinned_tuples)
        entry = _compiled = (key, compiled, fixings, None)
    if fixed_topology and entry[3] is None:
        lit = entry[1].copy()
        for name, value in entry[2].items():
            lit.fix_var(name, value)
        entry = _compiled = (*entry[:3], lit)
    model = entry[3 if fixed_topology else 1].copy()
    add_scenario_rows(model, scn)
    model.name = f"{scn.name}-{model.kind}"
    return model


def build_miqcp(
    scn: Scenario,
    fixed_topology: bool = False,
    *,
    prune_pinned_tuples: bool = False,
) -> Model:
    """Compile the exact formulation with full lightpath routing variables."""
    return compiled_copy(scn, fixed_topology, prune_pinned_tuples, _compile_miqcp, False)


def _compile_miqcp(scn: Scenario, prune_pinned_tuples: bool) -> tuple[Model, dict[str, float]]:
    sub = scn.substrate
    V = sub.vertices
    gammas = range(sub.wavelengths)
    mu_bar = sub.line_rate

    m = Model("miqcp")
    ctx = add_flow_part(m, scn, prune_pinned_tuples=prune_pinned_tuples)

    pairs_ne = [(w, wp) for w in V for wp in V if w != wp]

    eta_ub = None
    if scn.approx.forwarding.eps is not None:
        eta_ub = 1.0 / scn.approx.forwarding.eps
    eta: dict[tuple[str, str], str] = {}
    for (w, wp) in pairs_ne:
        eta[(w, wp)] = m.add_var(naming.eta_name(w, wp), "eta", lb=0.0, ub=eta_ub)

    theta: dict[tuple[int, str, str], str] = {}
    for ri, req in enumerate(scn.requests):
        for n in req.graph.functional:
            for v in V:
                # bounded only by a configured eps, which the MILP would derive
                eps = scn.approx.processing_at(v).eps
                theta[(ri, n, v)] = m.add_var(
                    naming.theta_name(ri, n, v), "theta", lb=0.0,
                    ub=None if eps is None else 1.0 / eps,
                )

    # full lightpath routing: fiber hops and wavelength per vertex pair
    l_tab: dict[tuple[str, str, tuple[str, str], int], str] = {}
    for w, wp in itertools.product(V, repeat=2):
        for e in sub.edges:
            for g in gammas:
                l_tab[(w, wp, e, g)] = m.add_var(naming.l_name(w, wp, e, g), "l", binary=True)

    # forwarding queue sojourn time: eta >= 1 / (line rate - load)
    for (w, wp) in pairs_ne:
        m.add_con(
            f"forwarding_sojourn_{w}_{wp}",
            "forwarding_sojourn",
            [(-mu_bar, eta[(w, wp)])],
            "<=",
            -1.0,
            quad=[(eta[(w, wp)], load_terms(scn, ctx, w, wp))],
        )

    # processing queue sojourn time: theta >= y / (mu - arrivals)
    for ri, req in enumerate(scn.requests):
        for n in req.graph.functional:
            for v in V:
                key = (ri, n, v)
                m.add_con(
                    f"processing_sojourn_r{ri}_{naming.node_token(n)}_{v}",
                    "processing_sojourn",
                    [(1.0, ctx.y[key])],
                    "<=",
                    0.0,
                    quad=[(theta[key], (*ctx.inflow[key], (-1.0, ctx.mu[key])))],
                )
                # arrivals must stay below the allocated service rate
                m.add_con(
                    f"service_rate_capacity_r{ri}_{naming.node_token(n)}_{v}",
                    "service_rate_capacity",
                    [*ctx.inflow[key], (-1.0, ctx.mu[key])],
                    "<=",
                    0.0,
                )

    # lightpath hop capacity and route structure
    for (w, wp) in pairs_ne:
        cap_terms = list(load_terms(scn, ctx, w, wp, skip_degenerate=True))
        for g in gammas:
            for u in sub.out_neighbors(w):
                cap_terms.append((-mu_bar, l_tab[(w, wp, (w, u), g)]))
        m.add_con(f"lightpath_capacity_{w}_{wp}", "lightpath_capacity", cap_terms, "<=", 0.0)

    for w, wp in itertools.product(V, repeat=2):
        base = f"{w}_{wp}"
        if w != wp:
            for u in V:
                if u == w or u == wp:
                    continue
                for g in gammas:
                    terms = [
                        (1.0, l_tab[(w, wp, (u2, u), g)]) for u2 in sub.in_neighbors(u)
                    ] + [
                        (-1.0, l_tab[(w, wp, (u, u2), g)]) for u2 in sub.out_neighbors(u)
                    ]
                    m.add_con(
                        f"lightpath_flow_{base}_{u}_g{g}",
                        "lightpath_flow",
                        terms,
                        "=",
                        0.0,
                    )
        for e in sub.edges:
            etok = naming.edge_token(e)
            for g in gammas:
                m.add_con(
                    f"lightpath_bidirectional_{base}_{etok}_g{g}",
                    "lightpath_bidirectional",
                    [
                        (1.0, l_tab[(w, wp, e, g)]),
                        (-1.0, l_tab[(wp, w, (e[1], e[0]), g)]),
                    ],
                    "=",
                    0.0,
                )
            m.add_con(
                f"single_wavelength_{base}_{etok}",
                "single_wavelength",
                [(1.0, l_tab[(w, wp, e, g)]) for g in gammas],
                "<=",
                1.0,
            )
        if w == wp:
            for e in sub.edges:
                for g in gammas:
                    m.add_con(
                        f"no_lightpath_selfloop_{w}_{naming.edge_token(e)}_g{g}",
                        "no_lightpath_selfloop",
                        [(1.0, l_tab[(w, w, e, g)])],
                        "=",
                        0.0,
                    )
        else:
            for g in gammas:
                for u in sub.in_neighbors(w):
                    m.add_con(
                        f"no_lightpath_reentry_{base}_{u}_g{g}",
                        "no_lightpath_reentry",
                        [(1.0, l_tab[(w, wp, (u, w), g)])],
                        "=",
                        0.0,
                    )
                for u in sub.out_neighbors(wp):
                    m.add_con(
                        f"no_lightpath_overrun_{base}_{u}_g{g}",
                        "no_lightpath_overrun",
                        [(1.0, l_tab[(w, wp, (wp, u), g)])],
                        "=",
                        0.0,
                    )

    # each wavelength on each fiber serves at most one lightpath
    for e in sub.edges:
        etok = naming.edge_token(e)
        for g in gammas:
            m.add_con(
                f"wavelength_exclusive_{etok}_g{g}",
                "wavelength_exclusive",
                [(1.0, l_tab[(w, wp, e, g)]) for w, wp in itertools.product(V, repeat=2)],
                "<=",
                1.0,
            )

    for w in V:
        m.add_con(
            f"transceiver_budget_{w}",
            "transceiver_budget",
            [
                (1.0, l_tab[(w, wp, (w, u), g)])
                for wp in V
                for u in sub.out_neighbors(w)
                for g in gammas
            ],
            "<=",
            float(sub.degree(w)),
        )

    # propagation delay of each established lightpath, by (pair, hop) terms
    psi_terms: dict[tuple[str, str], list[tuple[float, str]]] = {}
    for (w, wp) in pairs_ne:
        terms = []
        for e in sub.edges:
            d = sub.delay[e]
            if d:
                for g in gammas:
                    terms.append((d, l_tab[(w, wp, e, g)]))
        psi_terms[(w, wp)] = terms

    # exact delay rows: propagation plus queue sojourn along every path.  A
    # hop routed over (w, w') costs z times one expression per lightpath,
    # which every delay row shares.
    hop_delay = {p: (*psi_terms[p], (1.0, eta[p])) for p in pairs_ne}

    def hop_terms(ri, a, v, vp):
        return [(ctx.z[(ri, a, v, vp, w, wp)], hop_delay[(w, wp)]) for (w, wp) in pairs_ne]

    def inner_terms(ri, n, v):
        return ((ctx.y[(ri, n, v)], ((1.0, theta[(ri, n, v)]),)),)

    for name, ri, terms in delay_rows(scn, ctx, hop_terms, inner_terms):
        m.add_con(name, "delay", [(-1.0, ctx.x3[ri])], "<=", scn.requests[ri].d_max, quad=terms)

    path_terms = []
    for (w, wp) in pairs_ne:
        path_terms.extend(psi_terms[(w, wp)])
    apply_objective(m, scn, ctx, path_terms)
    # the fixed topology lights every fiber as a one-hop lightpath on wavelength 0
    return m, {
        name: 1.0 if e == (w, wp) and g == 0 else 0.0
        for (w, wp, e, g), name in l_tab.items()
    }
