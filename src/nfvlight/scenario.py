"""Substrate network, forwarding graphs, requests and scenario file handling.

A scenario bundles one optical substrate with a set of embedding requests,
objective weights and optional approximation / big-M configuration.  Loaded
scenarios are immutable and safe to share between threads and worker
processes.

A ``Scenario`` checks itself when it is built, by ``Scenario(...)`` or by
``dataclasses.replace``, and raises ``ScenarioError`` for a broken invariant;
every consumer may take it as valid.  Its dict fields are not copied, so they
must not be mutated afterwards: the model builders keep the model compiled
from a scenario object for their next call on it, and rely on this rule for
that model to stay valid.  ``validate()`` stays public: it repeats the check
and returns the warnings.
"""
from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, field, replace

_ID_RE = re.compile(r"^[A-Za-z0-9.]+$")

TOLERANCE = 1e-6


class ScenarioError(Exception):
    """Scenario input that breaks a structural invariant.

    ``invariant`` names the violated rule so callers and tests can match on
    it without parsing the message text.
    """

    def __init__(self, message: str, invariant: str | None = None):
        super().__init__(message)
        self.invariant = invariant


def _ident(raw: object, what: str) -> str:
    name = str(raw)
    if not _ID_RE.match(name):
        raise ScenarioError(
            f"{what} id {name!r} must match [A-Za-z0-9.]+", invariant="identifier"
        )
    return name


def _nonnegative(x: float) -> bool:
    """True for a finite ``x >= 0``; NaN and infinities fail."""
    return math.isfinite(x) and x >= 0


def _positive(x: float) -> bool:
    return math.isfinite(x) and x > 0


def _connected(nodes: tuple[str, ...], links) -> bool:
    """Whether every node is reachable from the first, links taken both ways."""
    adj: dict[str, set[str]] = {n: set() for n in nodes}
    for (a, b) in links:
        adj[a].add(b)
        adj[b].add(a)
    reach, frontier = {nodes[0]}, [nodes[0]]
    while frontier:
        for n in adj[frontier.pop()] - reach:
            reach.add(n)
            frontier.append(n)
    return len(reach) == len(adj)


def _integer(raw: object, where: str) -> int:
    """An integer field, given as a JSON integer or an integral float.

    ``int()`` alone would truncate 2.7 to 2, read ``true`` as 1 and ``"3"`` as 3.
    """
    if isinstance(raw, (bool, str)) or (isinstance(raw, float) and not raw.is_integer()):
        raise ScenarioError(f"{where} must be an integer, got {raw!r}", invariant="schema")
    return int(raw)


@dataclass(frozen=True)
class SubstrateNetwork:
    """Directed optical substrate with paired reverse edges.

    ``edges`` holds both orientations of every fiber.  Vertex degree doubles
    as the transceiver budget, one transmitter/receiver pair per attached
    fiber end.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    delay: dict[tuple[str, str], float]
    capacity: dict[str, float]
    wavelengths: int
    line_rate: float

    def degree(self, v: str) -> int:
        return sum(1 for (a, _) in self.edges if a == v)

    def out_neighbors(self, v: str) -> tuple[str, ...]:
        return tuple(b for (a, b) in self.edges if a == v)

    def in_neighbors(self, v: str) -> tuple[str, ...]:
        return tuple(a for (a, b) in self.edges if b == v)

    def fibers(self) -> tuple[tuple[str, str], ...]:
        """Undirected fiber list, endpoints ordered by vertex position."""
        pos = {v: i for i, v in enumerate(self.vertices)}
        seen = []
        for (a, b) in self.edges:
            key = (a, b) if pos[a] < pos[b] else (b, a)
            if key not in seen:
                seen.append(key)
        return tuple(seen)

    def total_fiber_delay(self) -> float:
        return sum(self.delay[f] for f in self.fibers())

    def validate(self) -> None:
        seen_v = set()
        for v in self.vertices:
            _ident(v, "vertex")
            if v in seen_v:
                raise ScenarioError(f"duplicate vertex {v}", invariant="identifier")
            seen_v.add(v)
        if len(self.vertices) < 2:
            raise ScenarioError("substrate needs at least two vertices", invariant="size")
        eset = set()
        for (a, b) in self.edges:
            if a not in seen_v or b not in seen_v:
                raise ScenarioError(f"edge ({a},{b}) references unknown vertex", invariant="reference")
            if a == b:
                raise ScenarioError(f"self loop at {a}", invariant="no_self_loop")
            if (a, b) in eset:
                raise ScenarioError(f"duplicate edge ({a},{b})", invariant="duplicate_edge")
            eset.add((a, b))
            # checked before the reverse comparison, which NaN would fail
            d = self.delay.get((a, b))
            if d is None or not _nonnegative(d):
                raise ScenarioError(
                    f"edge {(a, b)} needs a finite nonnegative delay", invariant="edge_delay"
                )
        for (a, b) in self.edges:
            if (b, a) not in eset:
                raise ScenarioError(f"edge ({a},{b}) lacks its reverse", invariant="reverse_edge")
            if self.delay.get((a, b)) != self.delay.get((b, a)):
                raise ScenarioError(
                    f"edge ({a},{b}) and its reverse carry different delays",
                    invariant="reverse_edge",
                )
        if not _connected(self.vertices, self.edges):
            raise ScenarioError("substrate is not connected", invariant="connected")
        for v, c in self.capacity.items():
            if v not in seen_v:
                raise ScenarioError(f"capacity for unknown vertex {v}", invariant="reference")
            if not _nonnegative(c):
                raise ScenarioError(
                    f"capacity at {v} must be finite and nonnegative", invariant="capacity"
                )
        if not isinstance(self.wavelengths, int) or self.wavelengths < 1:
            raise ScenarioError(
                "need a whole number of wavelengths, at least one", invariant="wavelengths"
            )
        if not _positive(self.line_rate):
            raise ScenarioError("line rate must be positive and finite", invariant="line_rate")

    def cap(self, v: str) -> float:
        return self.capacity.get(v, 0.0)


@dataclass(frozen=True)
class ForwardingGraph:
    """Request-level DAG of sources, functional nodes and destinations.

    ``alpha_arc[out][in]`` scales how much of an incoming arc's rate the
    outgoing arc inherits (default 1), ``beta_arc`` adds a constant offset.
    Node coefficients map a service rate to consumed vertex capacity.
    """

    nodes: tuple[str, ...]
    arcs: tuple[tuple[str, str], ...]
    alpha_node: dict[str, float] = field(default_factory=dict)
    beta_node: dict[str, float] = field(default_factory=dict)
    alpha_arc: dict[tuple[str, str], dict[tuple[str, str], float]] = field(default_factory=dict)
    beta_arc: dict[tuple[str, str], float] = field(default_factory=dict)

    def in_arcs(self, n: str) -> tuple[tuple[str, str], ...]:
        return tuple(a for a in self.arcs if a[1] == n)

    def out_arcs(self, n: str) -> tuple[tuple[str, str], ...]:
        return tuple(a for a in self.arcs if a[0] == n)

    @property
    def sources(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if not self.in_arcs(n))

    @property
    def destinations(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if not self.out_arcs(n))

    @property
    def functional(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if self.in_arcs(n) and self.out_arcs(n))

    def alpha(self, out_arc: tuple[str, str], in_arc: tuple[str, str]) -> float:
        return self.alpha_arc.get(out_arc, {}).get(in_arc, 1.0)

    def beta(self, arc: tuple[str, str]) -> float:
        return self.beta_arc.get(arc, 0.0)

    def node_alpha(self, n: str) -> float:
        return self.alpha_node.get(n, 1.0)

    def node_beta(self, n: str) -> float:
        return self.beta_node.get(n, 0.0)

    def topological_nodes(self) -> tuple[str, ...]:
        indeg = {n: len(self.in_arcs(n)) for n in self.nodes}
        order, ready = [], [n for n in self.nodes if indeg[n] == 0]
        while ready:
            n = ready.pop(0)
            order.append(n)
            for (_, head) in self.out_arcs(n):
                indeg[head] -= 1
                if indeg[head] == 0:
                    ready.append(head)
        if len(order) != len(self.nodes):
            raise ScenarioError("forwarding graph has a cycle", invariant="acyclic")
        return tuple(order)

    def paths(self) -> tuple[tuple[str, ...], ...]:
        """All source-to-destination node sequences, lexicographically sorted."""
        out = []
        dests = set(self.destinations)

        def walk(prefix: list[str]) -> None:
            tail = prefix[-1]
            if tail in dests:
                out.append(tuple(prefix))
                return
            for (_, head) in self.out_arcs(tail):
                walk(prefix + [head])

        for s in self.sources:
            walk([s])
        return tuple(sorted(out))

    def validate(self) -> None:
        seen = set()
        for n in self.nodes:
            _ident(n, "node")
            if n in seen:
                raise ScenarioError(f"duplicate node {n}", invariant="identifier")
            seen.add(n)
        if len(self.nodes) < 2:
            raise ScenarioError("forwarding graph needs at least two nodes", invariant="size")
        aset = set()
        for (t, h) in self.arcs:
            if t not in seen or h not in seen:
                raise ScenarioError(f"arc ({t},{h}) references unknown node", invariant="reference")
            if t == h:
                raise ScenarioError(f"self arc at {t}", invariant="acyclic")
            if (t, h) in aset:
                raise ScenarioError(f"duplicate arc ({t},{h})", invariant="duplicate_arc")
            aset.add((t, h))
        self.topological_nodes()
        if not _connected(self.nodes, self.arcs):
            raise ScenarioError("forwarding graph is not connected", invariant="connected")
        for arc, row in self.alpha_arc.items():
            if arc not in aset:
                raise ScenarioError(f"alpha_arc references unknown arc {arc}", invariant="reference")
            for in_arc, coef in row.items():
                if in_arc not in aset or in_arc[1] != arc[0]:
                    raise ScenarioError(
                        f"alpha_arc[{arc}] references {in_arc}, not an incoming arc of {arc[0]}",
                        invariant="reference",
                    )
                if not _nonnegative(coef):
                    raise ScenarioError(
                        "arc coefficient must be finite and nonnegative", invariant="coefficient"
                    )
        for arc, b in self.beta_arc.items():
            if arc not in aset:
                raise ScenarioError(f"beta_arc references unknown arc {arc}", invariant="reference")
            if not _nonnegative(b):
                raise ScenarioError(
                    "arc offset must be finite and nonnegative", invariant="coefficient"
                )
        for n in itertools.chain(self.alpha_node, self.beta_node):
            if n not in seen:
                raise ScenarioError(f"node coefficient for unknown node {n}", invariant="reference")
        for n in self.functional:
            if not (_nonnegative(self.node_alpha(n)) and _nonnegative(self.node_beta(n))):
                raise ScenarioError(
                    "node coefficients must be finite and nonnegative", invariant="coefficient"
                )


Restriction = tuple[str, str, float]  # (node, vertex, proportion)


@dataclass(frozen=True)
class Request:
    graph: ForwardingGraph
    d_max: float
    initial_rates: dict[tuple[str, str], float]
    source_restrictions: tuple[Restriction, ...] = ()
    dest_restrictions: tuple[Restriction, ...] = ()

    def validate(self, substrate: SubstrateNetwork) -> list[str]:
        self.graph.validate()
        if not _nonnegative(self.d_max):
            raise ScenarioError("d_max must be finite and nonnegative", invariant="d_max")
        for s in self.graph.sources:
            for arc in self.graph.out_arcs(s):
                if arc not in self.initial_rates:
                    raise ScenarioError(
                        f"source arc {arc} has no initial rate", invariant="initial_rate"
                    )
        for arc, rate in self.initial_rates.items():
            if arc not in self.graph.arcs or arc[0] not in self.graph.sources:
                raise ScenarioError(
                    f"initial rate on {arc}, not a source arc", invariant="initial_rate"
                )
            if not _positive(rate):
                raise ScenarioError(
                    f"initial rate on {arc} must be positive and finite", invariant="initial_rate"
                )
        warnings = []
        for label, entries in (("source", self.source_restrictions), ("dest", self.dest_restrictions)):
            sums: dict[str, float] = {}
            for (node, vertex, prop) in entries:
                if node not in self.graph.nodes:
                    raise ScenarioError(f"{label} restriction on unknown node {node}", invariant="reference")
                if vertex not in substrate.vertices:
                    raise ScenarioError(f"{label} restriction on unknown vertex {vertex}", invariant="reference")
                if not 0.0 <= prop <= 1.0:
                    raise ScenarioError("restriction proportion outside [0,1]", invariant="proportion")
                sums[node] = sums.get(node, 0.0) + prop
            for node, total in sums.items():
                if abs(total - 1.0) > TOLERANCE:
                    warnings.append(
                        f"{label} proportions for node {node} sum to {total:g}, not 1"
                    )
        return warnings


@dataclass(frozen=True)
class QueueApprox:
    """Optional per-queue-class bounds for the piecewise delay approximation."""

    eps: float | None = None
    upper: float | None = None
    base_points: int | None = None


def _window_dict(qa: QueueApprox) -> dict:
    """The fields of a window that are set, in declaration order."""
    return {k: v for k, v in vars(qa).items() if v is not None}


@dataclass(frozen=True)
class ApproxConfig:
    error_target: float = 0.01
    forwarding: QueueApprox = field(default_factory=QueueApprox)
    processing: QueueApprox = field(default_factory=QueueApprox)
    processing_by_vertex: dict[str, QueueApprox] = field(default_factory=dict)
    shift_mode: str = "zero"  # or "balanced"

    def processing_at(self, v: str) -> QueueApprox:
        """The processing window at vertex ``v``: each field from its entry in
        ``processing_by_vertex``, or from ``processing`` where that is unset."""
        own = self.processing_by_vertex.get(v, self.processing)
        return replace(self.processing, **_window_dict(own))


@dataclass(frozen=True)
class BigMConfig:
    lambda_min: float | None = None
    lateness_cap: float | None = None


@dataclass(frozen=True)
class ObjectiveWeights:
    """Weights of the four objective parts and the resource-cost mix.

    fulfilled/embedded counts are rewarded, the lateness bound and the
    weighted resource cost (path delay, data volume, service rate) are
    penalized.
    """

    fulfilled: float = 0.0
    embedded: float = 100.0
    lateness: float = 10.0
    resources: float = 0.0
    path_cost: float = 1.0
    data_cost: float = 1.0
    proc_cost: float = 1.0

    def as_C(self) -> tuple[float, float, float, float]:
        return (self.fulfilled, self.embedded, self.lateness, self.resources)

    def as_c(self) -> tuple[float, float, float]:
        return (self.path_cost, self.data_cost, self.proc_cost)


@dataclass(frozen=True)
class Scenario:
    substrate: SubstrateNetwork
    requests: tuple[Request, ...]
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    approx: ApproxConfig = field(default_factory=ApproxConfig)
    big_m: BigMConfig = field(default_factory=BigMConfig)
    name: str = "scenario"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> list[str]:
        self.substrate.validate()
        warnings = []
        for w in self.weights.as_C() + self.weights.as_c():
            if not _nonnegative(w):
                raise ScenarioError(
                    "objective weights must be finite and nonnegative", invariant="weights"
                )
        for req in self.requests:
            warnings.extend(req.validate(self.substrate))
        ap = self.approx
        if ap.shift_mode not in ("zero", "balanced"):
            raise ScenarioError("shift_mode must be 'zero' or 'balanced'", invariant="approx")
        if not _positive(ap.error_target):
            raise ScenarioError("error target must be positive and finite", invariant="approx")
        for v in ap.processing_by_vertex:
            if v not in self.substrate.vertices:
                raise ScenarioError(
                    f"approx.processing_by_vertex names unknown vertex {v!r}", invariant="approx"
                )
        bm = self.big_m
        settings = [bm.lambda_min, bm.lateness_cap]
        for qa in (ap.forwarding, ap.processing, *ap.processing_by_vertex.values()):
            settings += [qa.eps, qa.upper]
            n = qa.base_points
            if n is not None and (isinstance(n, bool) or not isinstance(n, int) or n < 2):
                raise ScenarioError(
                    f"base_points must be an integer >= 2, got {n!r}", invariant="approx"
                )
        if any(x is not None and not math.isfinite(x) for x in settings):
            raise ScenarioError(
                "approximation and big-M settings must be finite", invariant="approx"
            )
        if bm.lambda_min is not None and bm.lambda_min <= 0:
            raise ScenarioError("big_m.lambda_min must be positive", invariant="approx")
        if bm.lateness_cap is not None and bm.lateness_cap < 0:
            raise ScenarioError("big_m.lateness_cap must be nonnegative", invariant="approx")
        return warnings

    @property
    def lambda_min(self) -> float:
        """Smallest rate treated as real traffic; used for big-M and thresholds."""
        if self.big_m.lambda_min is not None:
            return self.big_m.lambda_min
        rates = [r for req in self.requests for r in req.initial_rates.values()]
        return 1e-4 * min(rates) if rates else 1e-4


def propagate_rate_bounds(scenario: Scenario) -> dict[tuple[int, tuple[str, str]], float]:
    """Worst-case aggregate rate bound per (request, arc).

    Source arcs carry their configured initial rate; every other arc gets the
    affine image of its node's incoming bounds.  Monotone in the initial
    rates because all coefficients are nonnegative.
    """
    out: dict[tuple[int, tuple[str, str]], float] = {}
    for ri, req in enumerate(scenario.requests):
        g = req.graph
        bound: dict[tuple[str, str], float] = {}
        for n in g.topological_nodes():
            for arc in g.out_arcs(n):
                if n in g.sources:
                    bound[arc] = req.initial_rates[arc]
                else:
                    bound[arc] = g.beta(arc) + sum(
                        g.alpha(arc, in_arc) * bound[in_arc] for in_arc in g.in_arcs(n)
                    )
        for arc, v in bound.items():
            out[(ri, arc)] = v
    return out


# ---------------------------------------------------------------------------
# built-in evaluation topologies


def builtin_topology(
    name: str,
    *,
    edge_delay: float = 0.1,
    line_rate: float = 4.0,
    wavelengths: int = 6,
) -> SubstrateNetwork:
    """Six-vertex evaluation substrates: a line, two bridged triangles, a ring."""
    vs = tuple(f"v{i}" for i in range(1, 7))
    if name == "path6":
        fibers = [(vs[i], vs[i + 1]) for i in range(5)]
    elif name == "barbell6":
        fibers = [
            (vs[0], vs[1]), (vs[0], vs[2]), (vs[1], vs[2]),
            (vs[2], vs[3]),
            (vs[3], vs[4]), (vs[3], vs[5]), (vs[4], vs[5]),
        ]
    elif name == "cycle6":
        fibers = [(vs[i], vs[(i + 1) % 6]) for i in range(6)]
    else:
        raise ScenarioError(f"unknown builtin topology {name!r}", invariant="builtin")
    net = _fiber_network(vs, fibers, edge_delay, {}, wavelengths, line_rate)
    net.validate()
    return net


def _fiber_network(vertices, fibers, delay, capacity, wavelengths, line_rate) -> SubstrateNetwork:
    """A substrate holding both directions of every fiber, all of one delay."""
    edges = tuple(e for (a, b) in fibers for e in ((a, b), (b, a)))
    return SubstrateNetwork(vertices, edges, dict.fromkeys(edges, delay), capacity, wavelengths, line_rate)


def _chain_graph(nodes: tuple[str, ...]) -> ForwardingGraph:
    arcs = tuple((nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1))
    return ForwardingGraph(nodes=nodes, arcs=arcs)


def permutation_scenario(
    substrate: SubstrateNetwork,
    index: int,
    *,
    small_capacity: float = 5.0,
    large_capacity: float = 50.0,
    rate: float = 3.0,
    topology_name: str = "custom",
) -> Scenario:
    """One multicast evaluation instance.

    Permutation ``index`` selects an ordered triple (small-capacity vertex,
    large-capacity vertex, source vertex); every remaining vertex becomes a
    destination with equal proportion.
    """
    vs = substrate.vertices
    if len(vs) < 4:
        raise ScenarioError("need at least four vertices for a permutation scenario", invariant="size")
    perms = list(itertools.permutations(vs, 3))
    if not 0 <= index < len(perms):
        raise ScenarioError(f"permutation index {index} outside 0..{len(perms) - 1}", invariant="permutation")
    small_v, large_v, src_v = perms[index]
    dests = [v for v in vs if v not in (small_v, large_v, src_v)]
    graph = _chain_graph(("s", "f", "d"))
    req = Request(
        graph=graph,
        d_max=0.0,
        initial_rates={("s", "f"): rate},
        source_restrictions=(("s", src_v, 1.0),),
        dest_restrictions=tuple(("d", v, 1.0 / len(dests)) for v in dests),
    )
    return Scenario(
        substrate=replace(substrate, capacity={small_v: small_capacity, large_v: large_capacity}),
        requests=(req,),
        name=f"{topology_name}-perm{index:03d}",
    )


def motivation_scenario(rate_a: float = 1.6, rate_b: float = 2.0) -> Scenario:
    """Two-chain instance on the five-fiber tree where joint optimization
    provably beats placing first and reconfiguring lightpaths second."""
    vs = tuple(f"v{i}" for i in range(1, 7))
    fibers = [(vs[0], vs[2]), (vs[1], vs[2]), (vs[2], vs[3]), (vs[3], vs[4]), (vs[3], vs[5])]
    net = _fiber_network(vs, fibers, 0.1, {"v3": 5.0, "v4": 50.0}, 2, 4.0)
    req_a = Request(
        graph=_chain_graph(("s", "f", "d")),
        d_max=0.0,
        initial_rates={("s", "f"): rate_a},
        source_restrictions=(("s", "v1", 1.0),),
        dest_restrictions=(("d", "v5", 1.0),),
    )
    req_b = Request(
        graph=_chain_graph(("s", "g", "d")),
        d_max=0.0,
        initial_rates={("s", "g"): rate_b},
        source_restrictions=(("s", "v2", 1.0),),
        dest_restrictions=(("d", "v6", 1.0),),
    )
    return Scenario(substrate=net, requests=(req_a, req_b), name="motivation")


# ---------------------------------------------------------------------------
# JSON serialization


def _arc_key(arc: tuple[str, str]) -> str:
    return f"{arc[0]}->{arc[1]}"


def _parse_arc_key(key: str, where: str) -> tuple[str, str]:
    parts = key.split("->")
    if len(parts) != 2:
        raise ScenarioError(f"{where}: arc key {key!r} must look like 'tail->head'", invariant="schema")
    return (parts[0], parts[1])


def scenario_to_dict(scn: Scenario) -> dict:
    sub = scn.substrate
    data: dict = {
        "name": scn.name,
        "substrate": {
            "vertices": list(sub.vertices),
            "fibers": [
                {"u": u, "v": v, "delay": sub.delay[(u, v)]} for (u, v) in sub.fibers()
            ],
            "capacities": {v: c for v, c in sub.capacity.items() if c},
            "wavelengths": sub.wavelengths,
            "line_rate": sub.line_rate,
        },
        "requests": [],
        "objective": {"C": list(scn.weights.as_C()), "c": list(scn.weights.as_c())},
    }
    for req in scn.requests:
        g = req.graph
        entry: dict = {
            "nodes": list(g.nodes),
            "arcs": [list(a) for a in g.arcs],
            "d_max": req.d_max,
            "initial_rates": {_arc_key(a): r for a, r in req.initial_rates.items()},
            "source_restrictions": [
                {"node": n, "vertex": v, "proportion": p} for (n, v, p) in req.source_restrictions
            ],
            "dest_restrictions": [
                {"node": n, "vertex": v, "proportion": p} for (n, v, p) in req.dest_restrictions
            ],
        }
        if g.alpha_node:
            entry["alpha_node"] = dict(g.alpha_node)
        if g.beta_node:
            entry["beta_node"] = dict(g.beta_node)
        if g.alpha_arc:
            entry["alpha_arc"] = {
                _arc_key(out): {_arc_key(inn): c for inn, c in row.items()}
                for out, row in g.alpha_arc.items()
            }
        if g.beta_arc:
            entry["beta_arc"] = {_arc_key(a): b for a, b in g.beta_arc.items()}
        data["requests"].append(entry)
    ap = scn.approx
    approx: dict = {}
    if ap.error_target != 0.01:
        approx["error_target"] = ap.error_target
    if ap.shift_mode != "zero":
        approx["shift_mode"] = ap.shift_mode
    for label, qa in (("forwarding", ap.forwarding), ("processing", ap.processing)):
        if window := _window_dict(qa):
            approx[label] = window
    if ap.processing_by_vertex:
        approx["processing_by_vertex"] = {
            v: _window_dict(qa) for v, qa in ap.processing_by_vertex.items()
        }
    if approx:
        data["approx"] = approx
    bm = {}
    if scn.big_m.lambda_min is not None:
        bm["lambda_min"] = scn.big_m.lambda_min
    if scn.big_m.lateness_cap is not None:
        bm["lateness_cap"] = scn.big_m.lateness_cap
    if bm:
        data["big_m"] = bm
    return data


def _queue_approx_from(entry: dict, where: str) -> QueueApprox:
    known = {"eps", "upper", "base_points"}
    for k in entry:
        if k not in known:
            raise ScenarioError(f"{where}: unknown key {k!r}", invariant="schema")
    eps, upper, base_points = (entry.get(k) for k in ("eps", "upper", "base_points"))
    return QueueApprox(
        eps=None if eps is None else float(eps),
        upper=None if upper is None else float(upper),
        base_points=None if base_points is None else _integer(base_points, f"{where}.base_points"),
    )


def scenario_from_dict(data: dict) -> Scenario:
    try:
        sub = data["substrate"]
        vertices = tuple(_ident(v, "vertex") for v in sub["vertices"])
        edges, delay = [], {}
        for i, fiber in enumerate(sub["fibers"]):
            u, v, d = _ident(fiber["u"], "vertex"), _ident(fiber["v"], "vertex"), float(fiber["delay"])
            if (u, v) in delay:
                raise ScenarioError(f"substrate.fibers[{i}]: duplicate fiber", invariant="duplicate_edge")
            edges += [(u, v), (v, u)]
            delay[(u, v)] = delay[(v, u)] = d
        substrate = SubstrateNetwork(
            vertices=vertices,
            edges=tuple(edges),
            delay=delay,
            capacity={_ident(k, "vertex"): float(c) for k, c in sub.get("capacities", {}).items()},
            wavelengths=_integer(sub["wavelengths"], "substrate.wavelengths"),
            line_rate=float(sub["line_rate"]),
        )
        requests = []
        for ri, rd in enumerate(data.get("requests", [])):
            where = f"requests[{ri}]"
            nodes = tuple(_ident(n, "node") for n in rd["nodes"])
            arcs = tuple((_ident(a[0], "node"), _ident(a[1], "node")) for a in rd["arcs"])
            arcset = set(arcs)

            def arc_of(key: str, field_name: str) -> tuple[str, str]:
                arc = _parse_arc_key(key, f"{where}.{field_name}")
                if arc not in arcset:
                    raise ScenarioError(f"{where}.{field_name}: unknown arc {key!r}", invariant="reference")
                return arc

            graph = ForwardingGraph(
                nodes=nodes,
                arcs=arcs,
                alpha_node={k: float(v) for k, v in rd.get("alpha_node", {}).items()},
                beta_node={k: float(v) for k, v in rd.get("beta_node", {}).items()},
                alpha_arc={
                    arc_of(out, "alpha_arc"): {arc_of(inn, "alpha_arc"): float(c) for inn, c in row.items()}
                    for out, row in rd.get("alpha_arc", {}).items()
                },
                beta_arc={arc_of(k, "beta_arc"): float(v) for k, v in rd.get("beta_arc", {}).items()},
            )
            requests.append(
                Request(
                    graph=graph,
                    d_max=float(rd.get("d_max", 0.0)),
                    initial_rates={arc_of(k, "initial_rates"): float(v) for k, v in rd.get("initial_rates", {}).items()},
                    source_restrictions=tuple(
                        (str(e["node"]), str(e["vertex"]), float(e["proportion"]))
                        for e in rd.get("source_restrictions", [])
                    ),
                    dest_restrictions=tuple(
                        (str(e["node"]), str(e["vertex"]), float(e["proportion"]))
                        for e in rd.get("dest_restrictions", [])
                    ),
                )
            )
        obj = data.get("objective", {})
        C = obj.get("C", [0.0, 100.0, 10.0, 0.0])
        c = obj.get("c", [1.0, 1.0, 1.0])
        if len(C) != 4 or len(c) != 3:
            raise ScenarioError("objective.C needs 4 entries and objective.c needs 3", invariant="schema")
        weights = ObjectiveWeights(
            fulfilled=float(C[0]), embedded=float(C[1]), lateness=float(C[2]), resources=float(C[3]),
            path_cost=float(c[0]), data_cost=float(c[1]), proc_cost=float(c[2]),
        )
        ap = data.get("approx", {})
        approx = ApproxConfig(
            error_target=float(ap.get("error_target", 0.01)),
            forwarding=_queue_approx_from(ap.get("forwarding", {}), "approx.forwarding"),
            processing=_queue_approx_from(ap.get("processing", {}), "approx.processing"),
            processing_by_vertex={
                _ident(v, "vertex"): _queue_approx_from(entry, f"approx.processing_by_vertex[{v}]")
                for v, entry in ap.get("processing_by_vertex", {}).items()
            },
            shift_mode=str(ap.get("shift_mode", "zero")),
        )
        bm = data.get("big_m", {})
        big_m = BigMConfig(
            lambda_min=float(bm["lambda_min"]) if "lambda_min" in bm else None,
            lateness_cap=float(bm["lateness_cap"]) if "lateness_cap" in bm else None,
        )
        return Scenario(
            substrate=substrate,
            requests=tuple(requests),
            weights=weights,
            approx=approx,
            big_m=big_m,
            name=str(data.get("name", "scenario")),
        )
    except KeyError as exc:
        raise ScenarioError(f"missing field {exc.args[0]!r}", invariant="schema") from exc
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario value: {exc}", invariant="schema") from exc


def loads_scenario(text: str) -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
            invariant="json",
        ) from exc
    return scenario_from_dict(data)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_scenario(fh.read())


def dumps_scenario(scn: Scenario) -> str:
    return json.dumps(scenario_to_dict(scn), indent=2, sort_keys=True) + "\n"


def save_scenario(scn: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_scenario(scn))
