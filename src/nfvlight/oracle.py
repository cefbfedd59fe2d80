"""Exhaustive reference solver for desk-size scenarios.

Enumerates embeddings, placements, lightpath routes and wavelength colorings,
times each complete candidate with the exact reciprocal queue delays, and
keeps the lexicographic best (fulfilled count, embedded count, worst lateness,
weighted resource use).  The result certifies external-solver output and
doubles as a fallback optimum when no solver is installed.

The route search is a branch and bound on lateness (Land and Doig, 1960).
When the embedded set holds one request and the incumbent embeds it without
fulfilling it, a route is not descended once the delay of the segments
chosen so far, each hop timed at its current load, minus ``d_max`` exceeds
the incumbent's lateness by more than ``_STAB`` relative.  That delay is a
lower bound on the lateness of every leaf below: hop loads only grow as
segments are added, every hop and processing delay is positive, and
branches take a max.  The margin puts the bound above ``_STAB``, so no leaf
below can fulfil the request either, and every leaf cut would have scored
strictly worse than the incumbent; the answer is the one a full enumeration
finds, bit for bit.  The certificate's ``leaves`` counts the leaves scored
after pruning.

Each search node times its chosen segments once, on entry, each hop at its
current load.  That timing is the bound after placement of the route that
led to the node, which matters since a route that shares hops with chosen
ones slows them; a leaf scores the same delays.  Before the transceiver and
wavelength budgets, in the same pass over a candidate route's hops as the
load check, the route's delay at the loads it would leave is added to the
node's timing.  Loads only grow and float ``+``, ``-`` and ``/`` round
monotonically, so this is never above the bound after placement, and every
route it skips would have been cut anyway: the search counts (leaves,
placement rounds, cached colorings) are those of the test after placement
alone.  On 80 barbell6 searches the budget test runs 17,944 times instead
of 152,727.

Most routes never reach that pass: the floor cut skips them untimed.  A
route's floor is its delay with only its own rate on each hop.  Every term
of the loaded sum is at least the floor's term in the same order, so the
floor is never above the route's delay at any load, bit for bit.  Each
search keeps the floors of a segment's routes, per end points and rate,
in ascending order.  The bound grows with the route's delay, so a bisection
finds the first floor it rejects; that route and all after it in floor
order are skipped, and the ones before it are timed in catalog order.  The
cut is read against the incumbent at the start of the segment's loop.  It
holds while the incumbent keeps its class, ``best_lex[:2]``: its lateness
then only falls, so a skipped route still fails.  Once a subtree changes
the class, the routes after the current one are timed one by one.  On 80
barbell6 searches 24,535 of the 118,112 routes offered are timed at their
loads, and ``_route_delay`` runs 59,066 times instead of 131,600.

The simple routes between two vertices over the candidate lightpaths are
enumerated the first time a search routes a segment between them.  They
depend only on the vertex order and the candidate pairs, so a table keyed
by both shares them among all searches on one topology and mode.  It keeps
two keys, since ``experiment`` alternates a joint and a fixed search.  A
search reads only the pairs from the source to each placement candidate
and from each placement to each destination, a few of all ordered pairs.

Two deliberate restrictions keep the search exact but small, and both are
recorded in the certificate: every lightpath uses the precomputed shortest
fiber route, and every function is placed wholly at one vertex.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import time
from dataclasses import dataclass, replace

from . import naming
from .approx import ApproxError, eval_gtilde, interpolate_xi, resolve_partitions, shortest_paths
from .scenario import Scenario, propagate_rate_bounds

_STAB = 1e-9


class OracleScaleError(Exception):
    """The scenario is outside the exhaustive search's certified scope."""


@dataclass
class OracleLimits:
    max_seconds: float | None = None
    max_leaves: int | None = None


@dataclass(frozen=True)
class SegmentPlan:
    """One routed flow: a chain hop or a destination branch of a request."""

    ri: int
    arc: tuple[str, str]
    va: str
    vb: str
    rate: float
    branch: int | None
    hops: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class _RequestPlan:
    ri: int
    arcs: tuple[tuple[str, str], ...]
    rates: dict[tuple[str, str], float]
    source_vertex: str
    branches: tuple[tuple[str, float], ...]
    funcs: tuple[tuple[str, float, float, float], ...]  # node, arrival, alpha, beta
    d_max: float


@dataclass
class OracleResult:
    scenario_name: str
    mode: str
    embedded: tuple[bool, ...]
    fulfilled: tuple[bool, ...]
    lateness: float
    per_request_lateness: tuple[float, ...]
    objective: float
    lex: tuple[float, float, float, float]
    placements: dict[tuple[int, str], str]
    service: dict[tuple[int, str], float]
    segments: tuple[SegmentPlan, ...]
    topology: dict[tuple[str, str], int]
    loads: dict[tuple[str, str], float]
    certificate: dict


def _chain_plans(scn: Scenario) -> list[_RequestPlan]:
    """One plan per request, each a chain.

    A valid scenario's forwarding graph is connected and acyclic, so a graph
    in which no node has two in-arcs or two out-arcs is one path of at least
    one arc, and its source arc has an initial rate.
    """
    sub = scn.substrate
    bounds = propagate_rate_bounds(scn)
    plans = []
    for ri, req in enumerate(scn.requests):
        g = req.graph
        for n in g.nodes:
            if len(g.in_arcs(n)) > 1 or len(g.out_arcs(n)) > 1:
                raise OracleScaleError(f"request {ri}: forwarding graph is not a chain")
        src = g.sources[0]
        nodes = [src]
        while g.out_arcs(nodes[-1]):
            nodes.append(g.out_arcs(nodes[-1])[0][1])
        arcs = tuple((nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1))
        rates = {arc: bounds[(ri, arc)] for arc in arcs}
        if any(r <= 0 for r in rates.values()):
            raise OracleScaleError(f"request {ri}: a chain arc carries no traffic")

        src_pins = [(v, p) for (n, v, p) in req.source_restrictions if n == src]
        if len(src_pins) != 1 or abs(src_pins[0][1] - 1.0) > 1e-6:
            raise OracleScaleError(f"request {ri}: source must be pinned to one vertex")
        dest = nodes[-1]
        dest_pins = [(v, p) for (n, v, p) in req.dest_restrictions if n == dest and p > 0]
        if not dest_pins or abs(sum(p for _, p in dest_pins) - 1.0) > 1e-6:
            raise OracleScaleError(f"request {ri}: destination shares must be pinned and sum to 1")
        if len({v for v, _ in dest_pins}) != len(dest_pins):
            raise OracleScaleError(f"request {ri}: duplicate destination vertex")
        vidx = {v: i for i, v in enumerate(sub.vertices)}
        dest_pins.sort(key=lambda t: vidx[t[0]])
        last_rate = rates[arcs[-1]]
        branches = tuple((v, p * last_rate) for v, p in dest_pins)

        funcs = []
        for n in nodes[1:-1]:
            alpha, beta = g.node_alpha(n), g.node_beta(n)
            if alpha <= 0:
                raise OracleScaleError(f"request {ri}: node {n} needs a positive rate factor")
            funcs.append((n, rates[(nodes[nodes.index(n) - 1], n)], alpha, beta))
        plans.append(
            _RequestPlan(
                ri=ri,
                arcs=arcs,
                rates=rates,
                source_vertex=src_pins[0][0],
                branches=branches,
                funcs=tuple(funcs),
                d_max=req.d_max,
            )
        )
    total_funcs = sum(len(p.funcs) for p in plans)
    if len(plans) > 2 or total_funcs > 2:
        raise OracleScaleError("exhaustive search handles at most two requests or two functions")
    if len(plans) == 2 and any(len(p.funcs) > 1 for p in plans):
        raise OracleScaleError("with two requests each chain may hold at most one function")
    if len(sub.vertices) > 8:
        raise OracleScaleError("exhaustive search handles at most eight vertices")
    return plans


def _subsets(items) -> list[frozenset]:
    """Every subset of ``items``, largest first, then in lexicographic order."""
    items = sorted(items)
    return [frozenset(c) for r in range(len(items), -1, -1) for c in itertools.combinations(items, r)]


def _request_parts(segs, delays) -> tuple[dict[int, float], dict[int, float]]:
    """Each request's chain delay and slowest branch, from its segments' delays paired in order.

    Chain segments sum from 0.0 in order; a request with no branch given a
    delay has no slowest branch.
    """
    chain: dict[int, float] = {}
    slowest: dict[int, float] = {}
    for s, d in zip(segs, delays):
        if s.branch is None:
            chain[s.ri] = chain.get(s.ri, 0.0) + d
        elif d > slowest.get(s.ri, -math.inf):
            slowest[s.ri] = d
    return chain, slowest


def _request_delays(segs, delays) -> dict[int, float]:
    """Each request's delay: its chain delay plus its slowest branch (``_request_parts``)."""
    total, slowest = _request_parts(segs, delays)
    for ri, d in slowest.items():
        total[ri] = total.get(ri, 0.0) + d
    return total


@dataclass(frozen=True)
class _Route:
    hops: tuple[tuple[str, str], ...]
    pairs: tuple[int, ...]


@functools.lru_cache(maxsize=2)
def _route_table(vertices: tuple[str, ...], pairs: tuple[tuple[str, str], ...]) -> dict:
    """Routes per vertex pair over one candidate pair graph, filled by ``_Catalog.routes``.

    The routes depend only on the vertex order and the candidate pairs, so
    every catalog on one topology and mode shares them.  Two entries:
    ``experiment`` alternates a joint and a fixed catalog.
    """
    return {}


class _Catalog:
    """Candidate lightpath pairs, and simple routes over them per vertex pair.

    A search reads the routes of only a few vertex pairs, so ``routes``
    enumerates a pair's routes the first time any catalog on the same pair
    graph asks, into the table ``shared`` that they all read.
    """

    def __init__(self, scn: Scenario, table, joint: bool):
        sub = scn.substrate
        vidx = {v: i for i, v in enumerate(sub.vertices)}
        fibers = sub.fibers()
        fiber_id = {f: i for i, f in enumerate(fibers)}
        for (u, v) in fibers:
            fiber_id[(v, u)] = fiber_id[(u, v)]

        self.pairs: list[tuple[str, str]] = []
        self.pair_id: dict[tuple[str, str], int] = {}
        self.pair_fibers: list[tuple[int, ...]] = []
        verts = sub.vertices
        for i, u in enumerate(verts):
            for v in verts[i + 1:]:
                if not joint and (u, v) not in fiber_id:
                    continue
                pid = len(self.pairs)
                self.pairs.append((u, v))
                self.pair_id[(u, v)] = pid
                self.pair_id[(v, u)] = pid
                route = table.routes[(u, v)]
                self.pair_fibers.append(
                    tuple(sorted({fiber_id[(route[k], route[k + 1])] for k in range(len(route) - 1)}))
                )
        self.neighbors: dict[str, list[str]] = {v: [] for v in verts}
        for (u, v) in self.pairs:
            self.neighbors[u].append(v)
            self.neighbors[v].append(u)
        for v in self.neighbors:
            self.neighbors[v].sort(key=vidx.__getitem__)
        self.shared = _route_table(tuple(verts), tuple(self.pairs))

    def routes(self, a: str, b: str) -> tuple[_Route, ...]:
        """Every simple route from ``a`` to ``b``, fewest hops first, then by hops."""
        found = self.shared.get((a, b))
        if found is None:
            found = self.shared[(a, b)] = self._enumerate(a, b)
        return found

    def _enumerate(self, a: str, b: str) -> tuple[_Route, ...]:
        neighbors, pair_id = self.neighbors, self.pair_id
        routes: list[_Route] = []
        seen = {a}
        hops: list[tuple[str, str]] = []

        def dfs(cur: str):
            if cur == b:
                routes.append(_Route(tuple(hops), tuple(sorted({pair_id[h] for h in hops}))))
                return
            for nxt in neighbors[cur]:
                if nxt not in seen:
                    hops.append((cur, nxt))
                    seen.add(nxt)
                    dfs(nxt)
                    seen.discard(nxt)
                    hops.pop()

        dfs(a)
        routes.sort(key=lambda r: (len(r.hops), r.hops))
        return tuple(routes)


class _Abort(Exception):
    pass


class _Search:
    def __init__(self, scn: Scenario, fixed_topology: bool, limits: OracleLimits | None,
                 pin_placements: dict[tuple[int, str], str] | None):
        self.scn = scn
        self.sub = scn.substrate
        self.mu_bar = self.sub.line_rate
        # every hop's load stays below this
        self.max_load = self.mu_bar - _STAB
        self.gammas = self.sub.wavelengths
        self.fixed = fixed_topology
        self.limits = limits or OracleLimits()
        self.table = shortest_paths(self.sub)
        self.plans = _chain_plans(scn)
        self.catalog = _Catalog(scn, self.table, joint=not fixed_topology)
        # transceiver budget per vertex; degree scans the edge list
        self.budget = {v: self.sub.degree(v) for v in self.sub.vertices}

        # fixed mode lights every fiber on wavelength 0, whatever the routes
        self.fixed_o_path = sum(2.0 * self.sub.delay[f] for f in self.sub.fibers())
        self.fixed_topo = {f: 0 for f in self.sub.fibers()}

        # service ceiling per function and vertex; candidates exceed the arrival
        self.ceiling: dict[tuple[int, str, str], float] = {}
        self.candidates: dict[tuple[int, str], list[str]] = {}
        for p in self.plans:
            for (n, arrival, alpha, beta) in p.funcs:
                opts = []
                for v in self.sub.vertices:
                    top = self.ceiling[(p.ri, n, v)] = (self.sub.cap(v) - beta) / alpha
                    if top > arrival + _STAB:
                        opts.append(v)
                if pin_placements and (p.ri, n) in pin_placements:
                    pin = pin_placements[(p.ri, n)]
                    opts = [v for v in opts if v == pin]
                self.candidates[(p.ri, n)] = opts

        self.color_memo: dict[frozenset, dict[int, int] | None] = {}
        # per (va, vb, rate): _floors of the routes between va and vb
        self.floors: dict[tuple[str, str, float], tuple[list[float], list[int]]] = {}
        self.best_lex: tuple | None = None
        self.best: dict | None = None
        self.leaves = 0
        self.placement_rounds = 0
        self.aborted = False
        self.t0 = time.monotonic()

    # ---- limits ----

    def _tick(self):
        self.leaves += 1
        if self.limits.max_leaves is not None and self.leaves > self.limits.max_leaves:
            raise _Abort()

    # ---- wavelength coloring ----

    def _color(self, pairset: frozenset) -> dict[int, int] | None:
        if pairset in self.color_memo:
            return self.color_memo[pairset]
        pids = sorted(pairset)
        conflicts = {p: set() for p in pids}
        for p, q in itertools.combinations(pids, 2):
            if set(self.catalog.pair_fibers[p]) & set(self.catalog.pair_fibers[q]):
                conflicts[p].add(q)
                conflicts[q].add(p)
        order = sorted(pids, key=lambda p: (-len(conflicts[p]), p))
        colors: dict[int, int] = {}

        def assign(i: int) -> bool:
            if i == len(order):
                return True
            p = order[i]
            taken = {colors[q] for q in conflicts[p] if q in colors}
            for g in range(self.gammas):
                if g not in taken:
                    colors[p] = g
                    if assign(i + 1):
                        return True
                    del colors[p]
            return False

        result = dict(colors) if assign(0) else None
        self.color_memo[pairset] = result
        return result

    # ---- enumeration ----

    def run(self) -> OracleResult:
        try:
            for mask in _subsets(range(len(self.plans))):
                funcs = [(p.ri, n) for p in self.plans if p.ri in mask for (n, *_r) in p.funcs]
                opts = [self.candidates[key] for key in funcs]
                if any(not o for o in opts):
                    continue
                # fulfilled sets each leaf of this mask tries, largest first
                self.fulfilled = _subsets(mask)
                for combo in itertools.product(*opts):
                    self.placement_rounds += 1
                    placements = dict(zip(funcs, combo))
                    segs = self._segments(mask, placements)
                    trans = dict.fromkeys(self.sub.vertices, 0)
                    fiber_cnt = [0] * len(self.sub.fibers())
                    self._dfs(mask, placements, segs, 0, {}, trans, fiber_cnt, {}, [])
        except _Abort:
            self.aborted = True
        return self._result()

    def _segments(self, mask, placements) -> list[SegmentPlan]:
        segs = []
        for p in self.plans:
            if p.ri not in mask:
                continue
            chain_vs = [p.source_vertex]
            for (n, *_r) in p.funcs:
                chain_vs.append(placements[(p.ri, n)])
            for k, arc in enumerate(p.arcs[:-1]):
                segs.append(SegmentPlan(p.ri, arc, chain_vs[k], chain_vs[k + 1], p.rates[arc], None))
            for b, (v, rate) in enumerate(p.branches):
                segs.append(SegmentPlan(p.ri, p.arcs[-1], chain_vs[-1], v, rate, b))
        return segs

    def _fits(self, new_pairs, trans, fiber_cnt) -> bool:
        """Whether lighting new_pairs keeps every transceiver and wavelength budget."""
        pairs, pair_fibers = self.catalog.pairs, self.catalog.pair_fibers
        budget, gammas = self.budget, self.gammas
        # Each pair must fit on its own: exact for one pair, necessary for
        # several, whose summed demand is checked only when all pass.
        for p in new_pairs:
            u, v = pairs[p]
            if trans[u] >= budget[u] or trans[v] >= budget[v]:
                return False
            for f in pair_fibers[p]:
                if fiber_cnt[f] >= gammas:
                    return False
        if len(new_pairs) == 1:
            return True
        add_t: dict[str, int] = {}
        add_f: dict[int, int] = {}
        for p in new_pairs:
            u, v = pairs[p]
            add_t[u] = add_t.get(u, 0) + 1
            add_t[v] = add_t.get(v, 0) + 1
            for f in pair_fibers[p]:
                add_f[f] = add_f.get(f, 0) + 1
        return all(trans[u] + k <= budget[u] for u, k in add_t.items()) and all(
            fiber_cnt[f] + k <= gammas for f, k in add_f.items()
        )

    def _late(self, ri, delay) -> bool:
        """Whether request ``ri`` taking at least ``delay`` puts every leaf below behind the incumbent.

        The test of the module docstring: ``delay`` minus ``d_max`` exceeds the
        incumbent's lateness by more than ``_STAB`` relative.  It applies when
        the incumbent embeds one request late; both cuts of the search ask it.
        """
        best = self.best_lex
        if best is None or best[0] != 0 or best[1] != -1:
            return False
        lateness = best[2]
        return delay - self.plans[ri].d_max - lateness > _STAB * max(1.0, lateness)

    def _route_delay(self, hops, loads, rate=0.0) -> float:
        """A route's delay once ``rate`` more is on each hop: distance plus queue.

        ``math.inf`` when that would bring a hop within ``_STAB`` of the line rate.
        """
        dist, mu_bar, max_load = self.table.dist, self.mu_bar, self.max_load
        d = 0.0
        for hop in hops:
            load = loads.get(hop, 0.0) + rate
            if load >= max_load:
                return math.inf
            d += dist[hop] + 1.0 / (mu_bar - load)
        return d

    def _floors(self, seg, routes) -> tuple[list[float], list[int]]:
        """The zero-load delays of ``seg``'s routes at its rate, ascending, and their route indices."""
        key = (seg.va, seg.vb, seg.rate)
        found = self.floors.get(key)
        if found is None:
            by_floor = sorted((self._route_delay(r.hops, {}, seg.rate), k) for k, r in enumerate(routes))
            found = self.floors[key] = ([f for f, _k in by_floor], [k for _f, k in by_floor])
        return found

    def _passing(self, routes, indices, loads, rate, late):
        """The indices among ``indices`` whose route overloads no hop and, if ``late`` is given, passes it.

        ``late`` gets the route's delay at the loads it would leave.  The
        incumbent is read per route; earlier routes' subtrees may have
        improved it.
        """
        for k in indices:
            d = self._route_delay(routes[k].hops, loads, rate)
            if d != math.inf and not (late and late(d)):
                yield k

    def _routes(self, segs, chosen, loads, parts):
        """The routes for segment ``len(chosen)`` that overload no hop and pass the bound.

        The bound before placement of the module docstring, when ``parts`` is
        the one request's ``(ri, chain, slowest)`` over the chosen routes:
        that delay plus the route's delay at the loads it would leave.  The
        floor cut of the module docstring runs first, and the routes it keeps
        are timed in catalog order.
        """
        seg = segs[len(chosen)]
        routes = self.catalog.routes(seg.va, seg.vb)
        every = range(len(routes))
        late = None
        if parts is not None:
            ri, chain, slowest = parts
            branch = seg.branch is not None

            def late(d):
                # the request's delay as _request_delays gives it with a route of delay d chosen
                return self._late(ri, chain + max(slowest, d) if branch else chain + d)

            floors, by_floor = self._floors(seg, routes)
            cut = bisect.bisect_left(floors, True, key=late)
        if late is None or cut == len(routes):
            for k in self._passing(routes, every, loads, seg.rate, late):
                yield routes[k]
            return
        start = self.best_lex[:2]
        for k in self._passing(routes, sorted(by_floor[:cut]), loads, seg.rate, late):
            yield routes[k]
            if self.best_lex[:2] != start:
                # The subtree changed the incumbent's class, so its lateness
                # may have risen or the bound turned off: the cut no longer
                # holds, and the routes after this one are timed one by one.
                for k in self._passing(routes, every[k + 1:], loads, seg.rate, late):
                    yield routes[k]
                return

    def _dfs(self, mask, placements, segs, i, pair_used, trans, fiber_cnt, loads, chosen):
        leaf = i == len(segs)
        parts = None
        if len(mask) == 1 or leaf:
            # the chosen routes' delays, each hop at its current load, timed once per node
            delays = [self._route_delay(h, loads) for h in chosen]
            if len(mask) == 1:
                # The bound after placement: a route sharing hops with chosen
                # ones slowed them.  At the root it compares 0 and never cuts.
                (ri,) = mask
                chain, slowest = _request_parts(segs, delays)
                chain, slowest = chain.get(ri, 0.0), slowest.get(ri, -math.inf)
                if self._late(ri, chain if slowest == -math.inf else chain + slowest):
                    return
                parts = (ri, chain, slowest)
        if leaf:
            self._leaf(mask, placements, segs, chosen, delays, loads, pair_used)
            return
        seg = segs[i]
        if seg.va == seg.vb:
            chosen.append(())
            self._dfs(mask, placements, segs, i + 1, pair_used, trans, fiber_cnt, loads, chosen)
            chosen.pop()
            return
        pairs = self.catalog.pairs
        pair_fibers = self.catalog.pair_fibers
        rate = seg.rate
        # Cheapest test first: hop loads and the bound, then the budgets.
        # No test has side effects, and the bound in _routes skips only
        # routes the child's bound would cut, so the order changes no count.
        for route in self._routes(segs, chosen, loads, parts):
            # Every key of pair_used counts at least one route.
            new_pairs = [p for p in route.pairs if p not in pair_used]
            if new_pairs and not self.fixed and not self._fits(new_pairs, trans, fiber_cnt):
                continue

            for p in new_pairs:
                pair_used[p] = 0
                u, v = pairs[p]
                trans[u] += 1
                trans[v] += 1
                for f in pair_fibers[p]:
                    fiber_cnt[f] += 1
            for p in route.pairs:
                pair_used[p] += 1
            for hop in route.hops:
                loads[hop] = loads.get(hop, 0.0) + rate
            chosen.append(route.hops)

            self._dfs(mask, placements, segs, i + 1, pair_used, trans, fiber_cnt, loads, chosen)

            chosen.pop()
            for hop in route.hops:
                loads[hop] -= rate
                if loads[hop] <= 1e-15:
                    del loads[hop]
            for p in route.pairs:
                pair_used[p] -= 1
            for p in new_pairs:
                del pair_used[p]
                u, v = pairs[p]
                trans[u] -= 1
                trans[v] -= 1
                for f in pair_fibers[p]:
                    fiber_cnt[f] -= 1

    # ---- leaf evaluation ----

    def _leaf(self, mask, placements, segs, chosen, delays, loads, pair_used):
        self._tick()
        if self.fixed:
            o_path, topo = self.fixed_o_path, self.fixed_topo
        else:
            # the pairs of the chosen routes; each key counts at least one
            used = frozenset(pair_used)
            coloring = self._color(used)
            if coloring is None:
                return
            o_path = sum(2.0 * self.table.dist[self.catalog.pairs[p]] for p in used)
            topo = {self.catalog.pairs[p]: g for p, g in coloring.items()}

        fixed_by_req = _request_delays(segs, delays)

        o_data = 0.0
        for s, hops in zip(segs, chosen):
            o_data += s.rate * len(hops) if hops else 0.5 * s.rate

        for F in self.fulfilled:
            alloc = self._allocate(mask, placements, fixed_by_req, F)
            if alloc is None:
                continue
            lat, service = alloc
            o1 = float(len(F))
            o2 = float(len(mask))
            o3 = max(lat.values(), default=0.0)
            o_proc = sum(service.values())
            W = self.scn.weights
            o4 = W.path_cost * o_path + W.data_cost * o_data + W.proc_cost * o_proc
            lex = (-o1, -o2, o3, o4)
            if self.best_lex is None or lex < self.best_lex:
                self.best_lex = lex
                self.best = {
                    "mask": set(mask),
                    "F": set(F),
                    "placements": dict(placements),
                    "segments": tuple(
                        replace(s, hops=tuple(h)) for s, h in zip(segs, chosen)
                    ),
                    "loads": dict(loads),
                    "topology": dict(topo),
                    "lat": dict(lat),
                    "service": dict(service),
                    "o": (o1, o2, o3, o4),
                }
        # The clock is read after scoring, so a search it stops keeps this leaf.
        max_seconds = self.limits.max_seconds
        if max_seconds is not None and time.monotonic() - self.t0 > max_seconds:
            raise _Abort()

    # ---- service-rate allocation ----

    def _allocate(self, mask, placements, fixed_by_req, F):
        """Best service rates for the chosen structure and fulfilled set.

        Returns per-request lateness and per-function rates, or None when the
        fulfilled set is unreachable.  Requests exhaust their delay budget, so
        every unfulfilled request's lateness lands on the common maximum.
        """
        plans = [p for p in self.plans if p.ri in mask]
        by_vertex: dict[str, list] = {}
        for p in plans:
            for (n, arrival, alpha, beta) in p.funcs:
                by_vertex.setdefault(placements[(p.ri, n)], []).append((p.ri, arrival, alpha, beta))
        shared = any(len(v) > 1 for v in by_vertex.values())
        two_func = any(len(p.funcs) == 2 for p in plans)

        lat: dict[int, float] = {}
        service: dict[tuple[int, str], float] = {}

        base = 0.0
        for p in plans:
            if p.funcs:
                continue
            l_r = max(0.0, fixed_by_req[p.ri] - p.d_max)
            if p.ri in F:
                if l_r > _STAB:
                    return None
                lat[p.ri] = 0.0
            else:
                lat[p.ri] = l_r
                base = max(base, l_r)

        if not shared and not two_func:
            worst = base
            min_soj = {}
            for p in plans:
                if not p.funcs:
                    continue
                (n, arrival, _alpha, _beta) = p.funcs[0]
                mu_max = self.ceiling[(p.ri, n, placements[(p.ri, n)])]
                min_soj[p.ri] = 1.0 / (mu_max - arrival)
                min_lat = fixed_by_req[p.ri] + min_soj[p.ri] - p.d_max
                if p.ri in F:
                    if min_lat > _STAB:
                        return None
                else:
                    worst = max(worst, max(0.0, min_lat))
            for p in plans:
                if not p.funcs:
                    continue
                (n, arrival, alpha, beta) = p.funcs[0]
                budget = (0.0 if p.ri in F else worst) + p.d_max - fixed_by_req[p.ri]
                sojourn = max(budget, min_soj[p.ri])
                service[(p.ri, n)] = arrival + 1.0 / sojourn
                lat[p.ri] = 0.0 if p.ri in F else worst
            return lat, service

        return self._allocate_coupled(plans, placements, fixed_by_req, F, by_vertex, lat, base, service)

    def _allocate_coupled(self, plans, placements, fixed_by_req, F, by_vertex, lat, base, service):
        func_plans = [p for p in plans if p.funcs]

        def budgets(T):
            out = {}
            for p in func_plans:
                b = (0.0 if p.ri in F else T) + p.d_max - fixed_by_req[p.ri]
                if b <= 1e-12:
                    return None
                out[p.ri] = b
            return out

        two = next((p for p in func_plans if len(p.funcs) == 2), None)
        if two is not None:
            # capacity left beyond the arrivals, at one shared vertex or at each
            (n1, a1, al1, be1), (n2, a2, al2, be2) = two.funcs
            v1, v2 = placements[(two.ri, n1)], placements[(two.ri, n2)]
            if v1 == v2:
                res = self.sub.cap(v1) - be1 - be2 - al1 * a1 - al2 * a2
            else:
                r1 = self.sub.cap(v1) - be1 - al1 * a1
                r2 = self.sub.cap(v2) - be2 - al2 * a2

        def feasible(T):
            B = budgets(T)
            if B is None:
                return False
            if two is not None:
                b = B[two.ri]
                if v1 == v2:
                    need = (math.sqrt(al1) + math.sqrt(al2)) ** 2 / b
                    if res <= 0 or need > res + _STAB:
                        return False
                elif r1 <= 0 or r2 <= 0 or al1 / r1 + al2 / r2 > b + _STAB:
                    return False
                return True
            for v, entries in by_vertex.items():
                need = 0.0
                for (ri, arrival, alpha, beta) in entries:
                    need += alpha * (arrival + 1.0 / B[ri]) + beta
                if need > self.sub.cap(v) + _STAB:
                    return False
            return True

        lo = base
        all_f = all(p.ri in F for p in func_plans)
        if all_f:
            if not feasible(lo):
                return None
            T = lo
        else:
            hi = max(lo, 1e-6)
            for _ in range(80):
                if feasible(hi):
                    break
                hi = hi * 2.0 if hi else 1e-6
            else:
                return None
            for _ in range(100):
                mid = (lo + hi) / 2.0
                if feasible(mid):
                    hi = mid
                else:
                    lo = mid
                if hi - lo <= 1e-12 * max(1.0, hi):
                    break
            T = hi
        B = budgets(T)
        if two is not None:
            b = B[two.ri]
            if v1 == v2:
                if al1 / (b / 2) + al2 / (b / 2) <= res + _STAB:
                    s1 = s2 = b / 2
                else:
                    s1 = b * math.sqrt(al1) / (math.sqrt(al1) + math.sqrt(al2))
                    s2 = b - s1
            else:
                s1 = min(max(b / 2, al1 / r1), b - al2 / r2)
                s2 = b - s1
            service[(two.ri, n1)] = a1 + 1.0 / s1
            service[(two.ri, n2)] = a2 + 1.0 / s2
            lat[two.ri] = 0.0 if two.ri in F else max(
                0.0, fixed_by_req[two.ri] + s1 + s2 - two.d_max
            )
        for p in func_plans:
            if two is not None and p.ri == two.ri:
                continue
            (n, arrival, alpha, beta) = p.funcs[0]
            service[(p.ri, n)] = arrival + 1.0 / B[p.ri]
            lat[p.ri] = 0.0 if p.ri in F else max(0.0, T)
        return lat, service

    # ---- result assembly ----

    def _result(self) -> OracleResult:
        if self.best is None:
            raise OracleScaleError("no feasible candidate was evaluated")
        b = self.best
        R = len(self.plans)
        lat = tuple(b["lat"].get(ri, 0.0) for ri in range(R))
        o1, o2, o3, o4 = b["o"]
        W = self.scn.weights
        objective = (
            W.lateness * o3 + W.resources * o4 - W.fulfilled * o1 - W.embedded * o2
        )
        cert = {
            "certified": not self.aborted,
            "mode": "fixed" if self.fixed else "joint",
            "wa_only_routes": True,
            "atomic_placements": True,
            "allocation": "budget_exhausting",
            "leaves": self.leaves,
            "placement_rounds": self.placement_rounds,
            "colorings_cached": len(self.color_memo),
            "wall_seconds": time.monotonic() - self.t0,
        }
        service = {(ri, n): mu for (ri, n), mu in sorted(b["service"].items())}
        placements = {
            k: v for k, v in sorted(b["placements"].items()) if k[0] in b["mask"]
        }
        return OracleResult(
            scenario_name=self.scn.name,
            mode=cert["mode"],
            embedded=tuple(ri in b["mask"] for ri in range(R)),
            fulfilled=tuple(ri in b["F"] for ri in range(R)),
            lateness=o3,
            per_request_lateness=lat,
            objective=objective,
            lex=self.best_lex,
            placements=placements,
            service=service,
            segments=b["segments"],
            topology=b["topology"],
            loads=b["loads"],
            certificate=cert,
        )


def solve_exhaustive(
    scn: Scenario,
    fixed_topology: bool = False,
    *,
    limits: OracleLimits | None = None,
    pin_placements: dict[tuple[int, str], str] | None = None,
) -> OracleResult:
    return _Search(scn, fixed_topology, limits, pin_placements).run()


def solve_sequential_baseline(scn: Scenario, *, limits: OracleLimits | None = None) -> OracleResult:
    """Two-stage pipeline: place on the fixed topology, then rebuild lightpaths."""
    stage1 = solve_exhaustive(scn, fixed_topology=True, limits=limits)
    stage2 = solve_exhaustive(
        scn, fixed_topology=False, limits=limits, pin_placements=dict(stage1.placements)
    )
    stage2.certificate["pipeline"] = "placements frozen from the fixed-topology stage"
    stage2.certificate["stage1_lateness"] = stage1.lateness
    stage2.certificate["stage1_objective"] = stage1.objective
    return stage2


# ---------------------------------------------------------------------------
# assignment emission


def as_assignment(
    result: OracleResult,
    scn: Scenario,
    kind: str = "miqcp",
) -> dict[str, float]:
    """Variable values realizing the oracle solution in the chosen formulation."""
    if kind not in ("miqcp", "milp"):
        raise ValueError(f"unknown formulation kind {kind!r}")
    sub = scn.substrate
    V = sub.vertices
    mu_bar = sub.line_rate
    table = shortest_paths(sub)
    vals: dict[str, float] = {}

    arrivals: dict[tuple[int, str], float] = {}
    plans = _chain_plans(scn)
    for p in plans:
        for (n, arrival, _a, _b) in p.funcs:
            arrivals[(p.ri, n)] = arrival

    deg_loads: dict[str, float] = {}
    active_hops: dict[tuple, set] = {}
    for s in result.segments:
        key = (s.ri, s.arc, s.va, s.vb)
        if s.va == s.vb:
            deg_loads[s.va] = deg_loads.get(s.va, 0.0) + s.rate
            active_hops.setdefault(key, set()).add((s.va, s.va))
            name = naming.lam_name(s.ri, s.arc, s.va, s.va, s.va, s.va)
            vals[name] = vals.get(name, 0.0) + s.rate
            vals[naming.z_name(s.ri, s.arc, s.va, s.va, s.va, s.va)] = 1.0
        else:
            hset = active_hops.setdefault(key, set())
            for (w, wp) in s.hops:
                hset.add((w, wp))
                vals[naming.lam_name(s.ri, s.arc, s.va, s.vb, w, wp)] = s.rate
                vals[naming.z_name(s.ri, s.arc, s.va, s.vb, w, wp)] = 1.0

    for (ri, n), v in result.placements.items():
        vals[naming.y_name(ri, n, v)] = 1.0
        vals[naming.mu_name(ri, n, v)] = result.service[(ri, n)]

    def pair_slack(w: str, wp: str) -> float:
        if w == wp:
            return mu_bar - deg_loads.get(w, 0.0)
        return mu_bar - result.loads.get((w, wp), 0.0)

    if kind == "miqcp":
        for ri, emb in enumerate(result.embedded):
            vals[naming.x_name(2, ri)] = 1.0 if emb else 0.0
            vals[naming.x_name(1, ri)] = 1.0 if result.fulfilled[ri] else 0.0
            vals[naming.x_name(3, ri)] = result.per_request_lateness[ri]
        vals[naming.x_name(4)] = result.lateness
        for (u, v), g in result.topology.items():
            if result.mode == "fixed":
                vals[naming.l_name(u, v, (u, v), g)] = 1.0
                vals[naming.l_name(v, u, (v, u), g)] = 1.0
            else:
                route = table.routes[(u, v)]
                for k in range(len(route) - 1):
                    vals[naming.l_name(u, v, (route[k], route[k + 1]), g)] = 1.0
                    vals[naming.l_name(v, u, (route[k + 1], route[k]), g)] = 1.0
        for w in V:
            for wp in V:
                if w != wp:
                    vals[naming.eta_name(w, wp)] = 1.0 / (mu_bar - result.loads.get((w, wp), 0.0))
        for (ri, n), v in result.placements.items():
            slack = result.service[(ri, n)] - arrivals[(ri, n)]
            vals[naming.theta_name(ri, n, v)] = 1.0 / slack
        return vals

    # piecewise-linear assignment: recompute service at maximal allocation so
    # every active processing queue keeps its configured margin
    parts = resolve_partitions(scn)

    service2: dict[tuple[int, str], float] = {}
    by_vertex: dict[str, list] = {}
    for p in plans:
        for (n, arrival, alpha, beta) in p.funcs:
            if (p.ri, n) in result.placements:
                by_vertex.setdefault(result.placements[(p.ri, n)], []).append(
                    (p.ri, n, arrival, alpha, beta)
                )
    for v, entries in by_vertex.items():
        residual = sub.cap(v) - sum(al * a + be for (_r, _n, a, al, be) in entries)
        if residual <= 0:
            raise ApproxError(f"no service margin left at {v}")
        for (ri, n, a, al, _be) in entries:
            margin = residual / (len(entries) * al)
            part = parts.processing.get((ri, n, v))
            if part is None or margin < part.eps - 1e-9:
                raise ApproxError(
                    f"slack at {v} falls outside the processing partition; "
                    "configure approx.processing"
                )
            service2[(ri, n)] = a + margin

    for (ri, n), v in result.placements.items():
        vals[naming.mu_name(ri, n, v)] = service2[(ri, n)]

    fwd = parts.forwarding

    def hop_delay(w: str, wp: str) -> float:
        return table.dist[(w, wp)] + eval_gtilde(fwd, mu_bar - result.loads.get((w, wp), 0.0))

    net_delay = _request_delays(
        result.segments, [sum(hop_delay(w, wp) for (w, wp) in s.hops) for s in result.segments]
    )
    lat2: dict[int, float] = {}
    for p in plans:
        ri = p.ri
        if not result.embedded[ri]:
            continue
        worst = net_delay[ri]
        for (n, arrival, _a, _b) in p.funcs:
            v = result.placements[(ri, n)]
            part = parts.processing[(ri, n, v)]
            worst += eval_gtilde(part, service2[(ri, n)] - arrival)
        lat2[ri] = max(0.0, worst - p.d_max)

    for ri, emb in enumerate(result.embedded):
        vals[naming.x_name(2, ri)] = 1.0 if emb else 0.0
        l_r = lat2.get(ri, 0.0)
        vals[naming.x_name(3, ri)] = l_r
        vals[naming.x_name(1, ri)] = 1.0 if emb and l_r <= 1e-12 else 0.0
    vals[naming.x_name(4)] = max(lat2.values(), default=0.0)

    for (u, v), g in result.topology.items():
        vals[naming.l_wa_name(u, v, g)] = 1.0
        vals[naming.l_wa_name(v, u, g)] = 1.0

    for ri, req in enumerate(scn.requests):
        g_fg = req.graph
        for a in g_fg.arcs:
            for v, vp, w, wp in itertools.product(V, repeat=4):
                hset = active_hops.get((ri, a, v, vp), ())
                active = (w, wp) in hset
                xi = interpolate_xi(fwd, pair_slack(w, wp), active)
                for k, x in enumerate(xi):
                    if x:
                        vals[naming.xi_fwd_name(ri, a, v, vp, w, wp, k)] = x
        for n in g_fg.functional:
            for v in V:
                key = (ri, n, v)
                part = parts.processing.get(key)
                if part is None:
                    continue
                if result.placements.get((ri, n)) == v:
                    xi = interpolate_xi(part, service2[(ri, n)] - arrivals[(ri, n)], True)
                    for k, x in enumerate(xi):
                        if x:
                            vals[naming.xi_proc_name(ri, n, v, k)] = x
    return vals
