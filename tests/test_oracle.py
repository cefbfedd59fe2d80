"""Exhaustive oracle: scope guards, certified optima, and the staged baseline."""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfvlight import (
    ForwardingGraph,
    Request,
    Scenario,
    ScenarioError,
    SubstrateNetwork,
    builtin_topology,
    permutation_scenario,
    validate,
)
from nfvlight.approx import shortest_paths
from nfvlight.exact import build_miqcp
from nfvlight.oracle import (
    OracleLimits,
    OracleScaleError,
    _Catalog,
    _Search,
    _request_delays,
    _route_table,
    as_assignment,
    solve_exhaustive,
    solve_sequential_baseline,
)
from conftest import make_tiny, random_chain_scenario


def swap_request(scn: Scenario, **kw) -> Scenario:
    return dataclasses.replace(scn, requests=(dataclasses.replace(scn.requests[0], **kw),))


class TestScaleGuards:
    def test_fan_out_is_not_a_chain(self, tiny):
        g = ForwardingGraph(nodes=("s", "f", "d", "e"), arcs=(("s", "f"), ("f", "d"), ("f", "e")))
        req = Request(
            graph=g,
            d_max=1.0,
            initial_rates={("s", "f"): 2.0},
            source_restrictions=(("s", "v1", 1.0),),
            dest_restrictions=(("d", "v3", 0.5), ("e", "v1", 0.5)),
        )
        with pytest.raises(OracleScaleError, match="request 0: forwarding graph is not a chain"):
            solve_exhaustive(dataclasses.replace(tiny, requests=(req,)))

    def test_two_parallel_chains_in_one_graph(self, tiny):
        g = ForwardingGraph(nodes=("s", "d", "s2", "d2"), arcs=(("s", "d"), ("s2", "d2")))
        req = Request(
            graph=g,
            d_max=1.0,
            initial_rates={("s", "d"): 1.0, ("s2", "d2"): 1.0},
            source_restrictions=(("s", "v1", 1.0), ("s2", "v1", 1.0)),
            dest_restrictions=(("d", "v3", 1.0), ("d2", "v3", 1.0)),
        )
        # a disconnected graph is no valid scenario, so the oracle never sees it
        with pytest.raises(ScenarioError, match="not connected") as err:
            dataclasses.replace(tiny, requests=(req,))
        assert err.value.invariant == "connected"

    def test_source_must_be_pinned(self, tiny):
        with pytest.raises(OracleScaleError, match="source must be pinned to one vertex"):
            solve_exhaustive(swap_request(tiny, source_restrictions=()))

    def test_partial_destination_shares(self, tiny):
        scn = swap_request(tiny, dest_restrictions=(("d", "v3", 0.25),))
        with pytest.raises(OracleScaleError, match="destination shares must be pinned and sum to 1"):
            solve_exhaustive(scn)

    def test_duplicate_destination_vertex(self, tiny):
        scn = swap_request(tiny, dest_restrictions=(("d", "v3", 0.5), ("d", "v3", 0.5)))
        with pytest.raises(OracleScaleError, match="duplicate destination vertex"):
            solve_exhaustive(scn)

    def test_zero_node_rate_factor(self, tiny):
        g = ForwardingGraph(nodes=("s", "f", "d"), arcs=(("s", "f"), ("f", "d")), alpha_node={"f": 0.0})
        with pytest.raises(OracleScaleError, match="node f needs a positive rate factor"):
            solve_exhaustive(swap_request(tiny, graph=g))

    def test_dead_chain_arc(self, tiny):
        g = ForwardingGraph(
            nodes=("s", "f", "d"),
            arcs=(("s", "f"), ("f", "d")),
            alpha_arc={("f", "d"): {("s", "f"): 0.0}},
        )
        with pytest.raises(OracleScaleError, match="a chain arc carries no traffic"):
            solve_exhaustive(swap_request(tiny, graph=g))

    def test_three_requests(self, tiny):
        r = tiny.requests[0]
        with pytest.raises(OracleScaleError, match="at most two requests or two functions"):
            solve_exhaustive(dataclasses.replace(tiny, requests=(r, r, r)))

    def test_two_requests_with_a_two_function_chain(self, tiny):
        g = ForwardingGraph(nodes=("s", "f", "g", "d"), arcs=(("s", "f"), ("f", "g"), ("g", "d")))
        long = dataclasses.replace(tiny.requests[0], graph=g)
        plain_g = ForwardingGraph(nodes=("s", "d"), arcs=(("s", "d"),))
        plain = Request(
            graph=plain_g,
            d_max=1.0,
            initial_rates={("s", "d"): 1.0},
            source_restrictions=(("s", "v1", 1.0),),
            dest_restrictions=(("d", "v3", 1.0),),
        )
        with pytest.raises(OracleScaleError, match="each chain may hold at most one function"):
            solve_exhaustive(dataclasses.replace(tiny, requests=(long, plain)))

    def test_nine_vertices(self, tiny):
        vs = tuple(f"v{i}" for i in range(1, 10))
        edges: list[tuple[str, str]] = []
        delay = {}
        for a, b in zip(vs, vs[1:]):
            edges += [(a, b), (b, a)]
            delay[(a, b)] = delay[(b, a)] = 0.1
        sub = SubstrateNetwork(
            vertices=vs, edges=tuple(edges), delay=delay,
            capacity={"v5": 8.0}, wavelengths=2, line_rate=4.0,
        )
        req = dataclasses.replace(tiny.requests[0], dest_restrictions=(("d", "v9", 1.0),))
        with pytest.raises(OracleScaleError, match="at most eight vertices"):
            solve_exhaustive(Scenario(substrate=sub, requests=(req,), name="long"))


class TestJointOptimum:
    def test_tiny_certified_values(self, tiny_joint):
        res = tiny_joint
        assert res.mode == "joint"
        assert res.embedded == (True,)
        assert res.fulfilled == (False,)
        assert res.lateness == 0.46666666666666656
        assert res.per_request_lateness == (0.46666666666666656,)
        assert res.objective == -95.33333333333333
        assert res.lex == (-0.0, -1.0, 0.46666666666666656, 12.599999999999998)
        assert res.placements == {(0, "f"): "v2"}
        assert res.service[(0, "f")] == pytest.approx(8.0, abs=1e-9)
        assert res.topology == {("v1", "v2"): 0, ("v2", "v3"): 0}
        assert res.loads == {("v1", "v2"): 2.0, ("v2", "v3"): 2.0}

    def test_tiny_segments(self, tiny_joint):
        segs = tiny_joint.segments
        assert [(s.arc, s.va, s.vb, s.rate, s.branch) for s in segs] == [
            (("s", "f"), "v1", "v2", 2.0, None),
            (("f", "d"), "v2", "v3", 2.0, 0),
        ]
        assert segs[0].hops == (("v1", "v2"),)
        assert segs[1].hops == (("v2", "v3"),)

    def test_perm0_certified_values(self, perm0_joint):
        res = perm0_joint
        assert res.lateness == 2.2546099290780144
        assert res.objective == -77.45390070921985
        assert res.placements == {(0, "f"): "v2"}
        assert res.service[(0, "f")] == pytest.approx(50.0, abs=1e-9)
        # two fresh lightpaths bypass the line, two ride single fibers
        assert res.topology == {
            ("v2", "v4"): 0, ("v3", "v6"): 1, ("v2", "v3"): 1, ("v4", "v5"): 0,
        }
        assert res.certificate["certified"] is True
        assert res.certificate["leaves"] == 5
        assert res.certificate["placement_rounds"] == 3

    def test_certificate_fields(self, tiny_joint):
        cert = tiny_joint.certificate
        assert sorted(cert) == [
            "allocation", "atomic_placements", "certified", "colorings_cached",
            "leaves", "mode", "placement_rounds", "wa_only_routes", "wall_seconds",
        ]
        assert cert["mode"] == "joint"
        assert cert["allocation"] == "budget_exhausting"
        assert cert["wa_only_routes"] is True
        assert cert["atomic_placements"] is True
        assert cert["wall_seconds"] >= 0.0

    def test_deterministic(self, tiny, tiny_joint):
        again = solve_exhaustive(tiny)
        for field in ("lateness", "objective", "lex", "placements", "service",
                      "topology", "loads", "segments", "embedded", "fulfilled"):
            assert getattr(again, field) == getattr(tiny_joint, field)


class TestFixedTopologyBaseline:
    def test_perm0_fixed_lightpaths_mirror_fibers(self, perm0):
        res = solve_exhaustive(perm0, fixed_topology=True)
        assert res.mode == "fixed"
        assert res.lateness == 4.3546099290780145
        assert res.topology == {
            ("v1", "v2"): 0, ("v2", "v3"): 0, ("v3", "v4"): 0,
            ("v4", "v5"): 0, ("v5", "v6"): 0,
        }

    def test_joint_never_loses_to_fixed(self, perm0, perm0_joint):
        fixed = solve_exhaustive(perm0, fixed_topology=True)
        assert perm0_joint.lateness <= fixed.lateness
        assert fixed.lateness - perm0_joint.lateness == pytest.approx(2.1)


class TestSequentialPipeline:
    def test_motivation_joint_beats_sequential(self, motivation):
        joint = solve_exhaustive(motivation)
        seq = solve_sequential_baseline(motivation)
        assert joint.lateness == 1.427450980392157
        assert seq.lateness == 3.824293481613159
        assert joint.lateness < seq.lateness
        # joint moves f next to its source, the pipeline parks both
        # functions on the big vertex
        assert joint.placements == {(0, "f"): "v3", (1, "g"): "v4"}
        assert seq.placements == {(0, "f"): "v4", (1, "g"): "v4"}

    def test_pipeline_certificate_records_stage_one(self, motivation):
        seq = solve_sequential_baseline(motivation)
        cert = seq.certificate
        assert cert["pipeline"] == "placements frozen from the fixed-topology stage"
        assert cert["stage1_lateness"] == 3.824293481613159
        assert cert["stage1_objective"] == pytest.approx(-161.7570651838684)
        assert cert["mode"] == "joint"


class TestServiceAllocation:
    def test_symmetric_pair_splits_the_budget_evenly(self, tiny):
        g = ForwardingGraph(nodes=("s", "f", "g", "d"), arcs=(("s", "f"), ("f", "g"), ("g", "d")))
        scn = swap_request(tiny, graph=g)
        res = solve_exhaustive(scn)
        assert res.placements == {(0, "f"): "v2", (0, "g"): "v2"}
        assert res.service[(0, "f")] == pytest.approx(4.0, abs=1e-6)
        assert res.service[(0, "g")] == pytest.approx(4.0, abs=1e-6)
        assert sum(res.service.values()) == pytest.approx(8.0, abs=1e-6)
        assert res.lateness == pytest.approx(1.3, abs=1e-6)

    def test_skewed_arrivals_equalize_queue_slack(self, tiny):
        # g sees twice the rate, so it gets the extra service: the split
        # 3/5 leaves one unit of slack in each processing queue
        g = ForwardingGraph(
            nodes=("s", "f", "g", "d"),
            arcs=(("s", "f"), ("f", "g"), ("g", "d")),
            alpha_arc={("f", "g"): {("s", "f"): 2.0}, ("g", "d"): {("f", "g"): 0.5}},
        )
        scn = swap_request(tiny, graph=g)
        res = solve_exhaustive(scn)
        assert res.service[(0, "f")] == pytest.approx(3.0, abs=1e-6)
        assert res.service[(0, "g")] == pytest.approx(5.0, abs=1e-6)
        assert res.lateness == pytest.approx(2.3, abs=1e-6)

    def test_chain_saturating_the_line_rate_is_declined(self, tiny):
        # the middle arc would carry 4.0, the full line rate, so no
        # stable embedding exists and the oracle leaves the request out
        g = ForwardingGraph(
            nodes=("s", "f", "g", "d"),
            arcs=(("s", "f"), ("f", "g"), ("g", "d")),
            alpha_arc={("f", "g"): {("s", "f"): 2.0}},
        )
        scn = swap_request(tiny, graph=g)
        res = solve_exhaustive(scn)
        assert res.embedded == (False,)
        assert res.fulfilled == (False,)
        assert res.lateness == 0.0
        assert res.objective == 0.0
        assert res.topology == {}
        assert res.segments == ()

    def test_two_requests_share_one_capacity_pool(self, tiny):
        g = ForwardingGraph(nodes=("s", "g", "d"), arcs=(("s", "g"), ("g", "d")))
        second = Request(
            graph=g,
            d_max=1.0,
            initial_rates={("s", "g"): 1.0},
            source_restrictions=(("s", "v3", 1.0),),
            dest_restrictions=(("d", "v1", 1.0),),
        )
        scn = dataclasses.replace(tiny, requests=(tiny.requests[0], second))
        res = solve_exhaustive(scn)
        assert res.embedded == (True, True)
        assert res.placements == {(0, "f"): "v2", (1, "g"): "v2"}
        assert sum(res.service.values()) == pytest.approx(8.0, abs=1e-6)
        # the minimax allocation leaves both requests equally late
        assert res.per_request_lateness[0] == pytest.approx(res.per_request_lateness[1])
        assert res.lateness == pytest.approx(0.5936749891262054)

    def test_oracle_point_validates_against_the_exact_model(self, tiny):
        g = ForwardingGraph(
            nodes=("s", "f", "g", "d"),
            arcs=(("s", "f"), ("f", "g"), ("g", "d")),
            alpha_arc={("f", "g"): {("s", "f"): 2.0}, ("g", "d"): {("f", "g"): 0.5}},
        )
        scn = swap_request(tiny, graph=g)
        res = solve_exhaustive(scn)
        rep = validate(scn, build_miqcp(scn), as_assignment(res, scn, "miqcp"))
        assert rep.ok
        assert rep.approximation_error == pytest.approx(0.0, abs=1e-6)


    @pytest.mark.parametrize("count,fixed,lateness", [
        (1, False, 0.71666666666666667), (1, True, 1.55), (2, False, 0.8), (2, True, 3.8),
    ], ids=["one-joint", "one-fixed", "two-joint", "two-fixed"])
    def test_function_free_chains(self, motivation, count, fixed, lateness):
        # each chain s->f->d becomes s->d: the request is only routed
        requests = tuple(
            dataclasses.replace(
                req,
                graph=ForwardingGraph(nodes=("s", "d"), arcs=(("s", "d"),)),
                initial_rates={("s", "d"): rate},
            )
            for req, rate in zip(motivation.requests[:count], (1.6, 2.0))
        )
        scn = dataclasses.replace(motivation, requests=requests)
        scn.validate()
        res = solve_exhaustive(scn, fixed)
        assert res.certificate["certified"]
        assert res.embedded == (True,) * count and res.service == {}
        assert res.lateness == pytest.approx(lateness, rel=1e-12)
        rep = validate(scn, build_miqcp(scn, fixed), as_assignment(res, scn, "miqcp"))
        assert rep.ok
        assert rep.max_exact_lateness == res.lateness


class TestLimits:
    def test_abort_before_any_leaf(self, tiny):
        with pytest.raises(OracleScaleError, match="no feasible candidate was evaluated"):
            solve_exhaustive(tiny, limits=OracleLimits(max_leaves=0))

    def test_leaf_budget_returns_uncertified_incumbent(self, tiny, tiny_joint):
        res = solve_exhaustive(tiny, limits=OracleLimits(max_leaves=1))
        assert res.certificate["certified"] is False
        # the first leaf explored already happens to be the optimum here
        assert res.lateness == tiny_joint.lateness

    def test_time_budget_keeps_a_full_run_certified(self, tiny):
        res = solve_exhaustive(tiny, limits=OracleLimits(max_seconds=60.0))
        assert res.certificate["certified"] is True


def test_time_budget_stops_a_search_with_few_leaves(perm0, perm0_joint):
    # The joint path6 perm 0 search scores 5 leaves.  The clock is read
    # after every scored leaf, so a spent budget stops it at the first, and
    # the search still returns that leaf as its incumbent.
    res = solve_exhaustive(perm0, limits=OracleLimits(max_seconds=0.0))
    assert res.certificate["certified"] is False
    assert res.certificate["leaves"] == 1 < perm0_joint.certificate["leaves"]


def _perm_outcome(topology, wavelengths, perm, mode):
    sub = builtin_topology(topology, wavelengths=wavelengths)
    scn = permutation_scenario(sub, perm, topology_name=topology)
    return sub, solve_exhaustive(scn, fixed_topology=(mode == "fixed"))


# Fixed-mode lightpaths mirror every fiber on wavelength 0.
FIBERS = "fibers"

# topology, wavelengths, perm, mode, lateness, objective, vertex of f,
# topology, leaves, placement_rounds, colorings_cached
PINNED_OUTCOMES = [
    ("barbell6", 6, 0, "joint", 2.2546099290780144, -77.45390070921985, "v2",
     {("v2", "v4"): 0, ("v2", "v3"): 1, ("v3", "v5"): 1, ("v4", "v6"): 0}, 88, 3, 78),
    ("barbell6", 6, 0, "fixed", 3.254609929078015, -67.45390070921985, "v2", FIBERS, 15, 3, 0),
    ("barbell6", 6, 17, "joint", 2.2546099290780144, -77.45390070921985, "v6",
     {("v3", "v6"): 0, ("v4", "v6"): 1, ("v2", "v3"): 0, ("v4", "v5"): 0}, 46, 3, 43),
    ("barbell6", 6, 17, "fixed", 3.2333333333333334, -67.66666666666666, "v1", FIBERS, 10, 3, 0),
    ("barbell6", 6, 55, "joint", 2.2546099290780144, -77.45390070921985, "v5",
     {("v1", "v4"): 0, ("v2", "v6"): 1, ("v4", "v5"): 0, ("v5", "v6"): 0}, 59, 3, 57),
    ("barbell6", 6, 55, "fixed", 2.7546099290780144, -72.45390070921985, "v5", FIBERS, 4, 3, 0),
    ("cycle6", 6, 0, "joint", 2.2546099290780144, -77.45390070921985, "v2",
     {("v2", "v3"): 0, ("v2", "v6"): 0, ("v3", "v4"): 0, ("v5", "v6"): 0}, 19, 3, 19),
    ("cycle6", 6, 0, "fixed", 2.7546099290780144, -72.45390070921985, "v2", FIBERS, 5, 3, 0),
    ("cycle6", 6, 40, "joint", 2.1546099290780143, -78.45390070921985, "v1",
     {("v1", "v2"): 0, ("v1", "v6"): 0, ("v2", "v4"): 0, ("v5", "v6"): 0}, 6, 3, 6),
    ("cycle6", 6, 40, "fixed", 2.4212765957446813, -75.7872340425532, "v1", FIBERS, 3, 3, 0),
    # One wavelength: the fiber budget, not the hop loads, prunes the search.
    ("barbell6", 1, 17, "joint", 2.2546099290780144, -77.45390070921985, "v6",
     {("v2", "v3"): 0, ("v3", "v6"): 0, ("v4", "v5"): 0, ("v5", "v6"): 0}, 14, 3, 10),
    ("barbell6", 1, 17, "fixed", 3.2333333333333334, -67.66666666666666, "v1", FIBERS, 10, 3, 0),
    ("cycle6", 1, 40, "joint", 2.1546099290780143, -78.45390070921985, "v1",
     {("v1", "v2"): 0, ("v1", "v6"): 0, ("v2", "v4"): 0, ("v5", "v6"): 0}, 3, 3, 3),
    ("cycle6", 1, 40, "fixed", 2.4212765957446813, -75.7872340425532, "v1", FIBERS, 3, 3, 0),
]


@pytest.mark.parametrize(
    "topology,wavelengths,perm,mode,lateness,objective,vertex,lightpaths,leaves,rounds,colorings",
    PINNED_OUTCOMES,
    ids=[f"{t}-w{w}-perm{p}-{m}" for (t, w, p, m, *_rest) in PINNED_OUTCOMES],
)
def test_pinned_outcomes_beyond_path6(topology, wavelengths, perm, mode, lateness, objective,
                                      vertex, lightpaths, leaves, rounds, colorings):
    sub, res = _perm_outcome(topology, wavelengths, perm, mode)
    assert res.lateness == lateness
    assert res.objective == objective
    assert res.placements == {(0, "f"): vertex}
    if lightpaths == FIBERS:
        lightpaths = {f: 0 for f in sub.fibers()}
    assert res.topology == lightpaths
    cert = res.certificate
    assert cert["certified"] is True
    assert (cert["leaves"], cert["placement_rounds"], cert["colorings_cached"]) == (
        leaves, rounds, colorings,
    )


def _coupled_cases(tiny):
    chain2 = ForwardingGraph(nodes=("s", "f", "g", "d"), arcs=(("s", "f"), ("f", "g"), ("g", "d")))
    skewed = ForwardingGraph(
        nodes=("s", "f", "g", "d"),
        arcs=(("s", "f"), ("f", "g"), ("g", "d")),
        alpha_arc={("f", "g"): {("s", "f"): 2.0}, ("g", "d"): {("f", "g"): 0.5}},
    )
    second = Request(
        graph=ForwardingGraph(nodes=("s", "g", "d"), arcs=(("s", "g"), ("g", "d"))),
        d_max=1.0,
        initial_rates={("s", "g"): 1.0},
        source_restrictions=(("s", "v3", 1.0),),
        dest_restrictions=(("d", "v1", 1.0),),
    )
    split = dataclasses.replace(
        swap_request(tiny, graph=chain2),
        substrate=dataclasses.replace(tiny.substrate, capacity={"v1": 6.0, "v2": 5.0}),
    )
    return {
        "symmetric": (swap_request(tiny, graph=chain2), None),
        "skewed": (swap_request(tiny, graph=skewed), None),
        "shared": (dataclasses.replace(tiny, requests=(tiny.requests[0], second)), None),
        # the two functions of one chain on two vertices
        "split": (split, {(0, "f"): "v1", (0, "g"): "v2"}),
    }


# float.hex of lateness, objective and lex, service by function, and
# (leaves, placement_rounds, colorings_cached in joint mode)
COUPLED_PINS = {
    "symmetric": (
        "0x1.4ccccccbba12ap+0", "-0x1.5c0000002aed2p+6",
        ("-0x0.0p+0", "-0x1.0000000000000p+0", "0x1.4ccccccbba12ap+0", "0x1.b3333333bc904p+3"),
        {(0, "f"): "0x1.00000000895d1p+2", (0, "g"): "0x1.00000000895d1p+2"},
        (2, 2, 2),
    ),
    "skewed": (
        "0x1.2666666440f24p+1", "-0x1.34000000abb45p+6",
        ("-0x0.0p+0", "-0x1.0000000000000p+0", "0x1.2666666440f24p+1", "0x1.d3333333bc903p+3"),
        {(0, "f"): "0x1.8000000112ba1p+1", (0, "g"): "0x1.40000000895d0p+2"},
        (2, 2, 2),
    ),
    "shared": (
        "0x1.2ff62b0d801b4p-1", "-0x1.8420625178fefp+7",
        ("-0x0.0p+0", "-0x1.0000000000000p+1", "0x1.2ff62b0d801b4p-1", "0x1.d3333333bc8cbp+3"),
        {(0, "f"): "0x1.59ed90bb54eaap+2", (1, "g"): "0x1.4c24de8b7b90ep+1"},
        (4, 4, 2),
    ),
    "split": (
        "0x1.c444443badc08p-1", "-0x1.6caaaaab566cfp+6",
        ("-0x0.0p+0", "-0x1.0000000000000p+0", "0x1.c444443badc08p-1", "0x1.0999999de4db6p+4"),
        {(0, "f"): "0x1.800000112d075p+2", (0, "g"): "0x1.4000000000000p+2"},
        (2, 2, 2),
    ),
}


@pytest.mark.parametrize("fixed", [False, True], ids=["joint", "fixed"])
@pytest.mark.parametrize("case", list(COUPLED_PINS))
def test_coupled_allocation_is_pinned_bit_for_bit(tiny, case, fixed):
    scn, pins = _coupled_cases(tiny)[case]
    res = solve_exhaustive(scn, fixed, pin_placements=pins)
    lateness, objective, lex, service, (leaves, rounds, colorings) = COUPLED_PINS[case]
    assert res.lateness == float.fromhex(lateness)
    assert res.objective == float.fromhex(objective)
    assert res.lex == tuple(float.fromhex(x) for x in lex)
    assert res.service == {k: float.fromhex(x) for k, x in service.items()}
    cert = res.certificate
    assert (cert["leaves"], cert["placement_rounds"]) == (leaves, rounds)
    assert cert["colorings_cached"] == (0 if fixed else colorings)
    assert cert["certified"] is True


# ---- branch and bound: the bound removes leaves, never a result ----

# certificate fields that count search work, and the clock
SEARCH_WORK = ("leaves", "colorings_cached", "wall_seconds")


def _bits(x):
    """``x`` with every float as ``float.hex``, so equality is bit for bit."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return [(_bits(k), _bits(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    if dataclasses.is_dataclass(x):
        return [(f.name, _bits(getattr(x, f.name))) for f in dataclasses.fields(x)]
    return x


def _with_and_without_bound(monkeypatch, solve):
    """``solve()`` as is, then with the bound never cutting; the results match."""
    pruned = solve()
    with monkeypatch.context() as m:
        m.setattr(_Search, "_late", lambda self, ri, delay: False)
        full = solve()
    results = []
    for res in (pruned, full):
        cert = {k: v for k, v in res.certificate.items() if k not in SEARCH_WORK}
        results.append(_bits(dataclasses.replace(res, certificate=cert)))
    assert results[0] == results[1]
    assert pruned.certificate["leaves"] <= full.certificate["leaves"]
    return pruned, full


@pytest.mark.parametrize("seed", range(8))
def test_bound_keeps_random_chain_results(monkeypatch, seed):
    base = random_chain_scenario(random.Random(seed), f"bnb{seed}")
    # the optimum's delay with no budget: a budget equal to it ends
    # fulfilled, and one just below it barely late
    delay = solve_exhaustive(swap_request(base, d_max=0.0)).lateness
    fulfilled = set()
    for d_max in (0.0, 1.0, delay, delay - 1e-6):
        scn = swap_request(base, d_max=d_max)
        for fixed in (False, True):
            res, _ = _with_and_without_bound(monkeypatch, lambda: solve_exhaustive(scn, fixed))
            fulfilled.add(res.fulfilled)
    assert fulfilled == {(True,), (False,)}


@pytest.mark.parametrize("fixed", [False, True], ids=["joint", "fixed"])
# the generated budget is 0; a positive one checks that the bound subtracts it
@pytest.mark.parametrize("d_max", [0.0, 1.0])
@pytest.mark.parametrize(
    "topology,perm",
    [("barbell6", 0), ("barbell6", 17), ("barbell6", 101), ("cycle6", 0), ("cycle6", 77)],
)
def test_bound_keeps_permutation_results(monkeypatch, topology, perm, d_max, fixed):
    scn = permutation_scenario(builtin_topology(topology), perm, topology_name=topology)
    scn = swap_request(scn, d_max=d_max)
    pruned, full = _with_and_without_bound(monkeypatch, lambda: solve_exhaustive(scn, fixed))
    if topology == "barbell6":
        # a bound that never fired would pass the comparison above
        assert pruned.certificate["leaves"] < full.certificate["leaves"]


@pytest.mark.parametrize("mode", ["joint", "fixed", "sequential"])
def test_bound_stays_off_for_two_requests(monkeypatch, motivation, mode):
    def solve():
        if mode == "sequential":
            return solve_sequential_baseline(motivation)
        return solve_exhaustive(motivation, mode == "fixed")

    pruned, full = _with_and_without_bound(monkeypatch, solve)
    # the incumbent embeds both requests, so no single-request mask is cut
    assert pruned.certificate["leaves"] == full.certificate["leaves"]
    assert pruned.certificate["colorings_cached"] == full.certificate["colorings_cached"]


# ---- the bound before placement is a lower bound on the bound after it ----


def _prunable(search, mask, segs, chosen, loads) -> bool:
    """The bound after placement, computed on its own as the reference.

    The request's delay over the chosen routes, each hop at its current load.
    """
    if len(mask) != 1:
        return False
    (ri,) = mask
    delays = [search._route_delay(hops, loads) for hops in chosen]
    return search._late(ri, _request_delays(segs, delays)[ri])


def _checked_pre_cuts(monkeypatch, solve):
    """``solve()`` with each route ``_Search._routes`` judged against ``_prunable``.

    Every route it skips that overloads no hop, once placed, must be cut by
    ``_prunable`` too.  Every route it keeps that shares no hop with the chosen
    ones must not be: there both bounds add the same delays in the same order.
    Returns the counts of skipped and of hop-disjoint kept routes.
    """
    routes = _Search._routes
    seen = {"skipped": 0, "disjoint_kept": 0}

    def spy(self, segs, chosen, loads, parts):
        # the bound is on exactly when the mask holds one request
        mask = () if parts is None else (parts[0],)
        seg = segs[len(chosen)]
        every = iter(self.catalog.routes(seg.va, seg.vb))
        chosen_hops = {h for hops in chosen for h in hops}

        def exact(route):
            placed = dict(loads)
            for hop in route.hops:
                placed[hop] = placed.get(hop, 0.0) + seg.rate
            return _prunable(self, mask, segs, [*chosen, route.hops], placed)

        # no leaf is scored between a verdict and its check, so both see one incumbent
        for kept in itertools.chain(routes(self, segs, chosen, loads, parts), [None]):
            for route in every:
                if route is kept:
                    break
                if all(loads.get(h, 0.0) + seg.rate < self.mu_bar - 1e-9 for h in route.hops):
                    assert exact(route), (mask, segs, chosen, route)
                    seen["skipped"] += 1
            if kept is None:
                return
            if chosen_hops.isdisjoint(kept.hops):
                assert not exact(kept), (mask, segs, chosen, kept)
                seen["disjoint_kept"] += 1
            yield kept

    with monkeypatch.context() as m:
        m.setattr(_Search, "_routes", spy)
        solve()
    return seen


def test_lateness_test_keeps_its_margin(tiny):
    search = _Search(tiny, False, None, None)
    d_max = search.plans[0].d_max
    for lateness in (0.25, 3.0):
        search.best_lex = (0.0, -1.0, lateness, 1.0)
        margin = 1e-9 * max(1.0, lateness)
        assert not search._late(0, d_max + lateness + margin / 2)
        assert search._late(0, d_max + lateness + 2 * margin)
    # no incumbent, or one that fulfils its request or embeds none, turns it off
    for best in (None, (-1.0, -1.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0)):
        search.best_lex = best
        assert not search._late(0, 1e9)


@pytest.mark.parametrize("fixed", [False, True], ids=["joint", "fixed"])
@pytest.mark.parametrize("d_max", [0.0, 1.0])
@pytest.mark.parametrize("seed", range(6))
def test_pre_check_skips_only_what_placement_would_cut_on_random_chains(
        monkeypatch, seed, d_max, fixed):
    scn = swap_request(random_chain_scenario(random.Random(seed), f"pre{seed}"), d_max=d_max)
    _checked_pre_cuts(monkeypatch, lambda: solve_exhaustive(scn, fixed))


@pytest.mark.parametrize("fixed", [False, True], ids=["joint", "fixed"])
@pytest.mark.parametrize("d_max", [0.0, 1.0])
@pytest.mark.parametrize(
    "topology,perm", [("barbell6", 17), ("barbell6", 101), ("cycle6", 77), ("path6", 5)],
)
def test_pre_check_skips_only_what_placement_would_cut(monkeypatch, topology, perm, d_max, fixed):
    scn = permutation_scenario(builtin_topology(topology), perm, topology_name=topology)
    scn = swap_request(scn, d_max=d_max)
    seen = _checked_pre_cuts(monkeypatch, lambda: solve_exhaustive(scn, fixed))
    if topology == "barbell6":
        # both checks above were exercised
        assert seen["skipped"] > 0 and seen["disjoint_kept"] > 0


# ---- route catalog: routes are enumerated per vertex pair on first use ----


def _eager_routes(sub, joint):
    """Every ordered pair's simple routes over the candidate pairs, enumerated up front.

    Routes are drawn as ordered choices of distinct intermediate vertices,
    so this reference shares no code with the catalog's depth-first search.
    """
    verts = sub.vertices
    fibers = {frozenset(f) for f in sub.fibers()}
    pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]
             if joint or frozenset((u, v)) in fibers]
    pair_id = {frozenset(p): k for k, p in enumerate(pairs)}
    routes = {}
    for a, b in itertools.permutations(verts, 2):
        middle = [v for v in verts if v not in (a, b)]
        found = []
        for k in range(len(middle) + 1):
            for mid in itertools.permutations(middle, k):
                path = (a, *mid, b)
                hops = tuple(zip(path, path[1:]))
                if all(frozenset(h) in pair_id for h in hops):
                    found.append((hops, tuple(sorted({pair_id[frozenset(h)] for h in hops}))))
        found.sort(key=lambda r: (len(r[0]), r[0]))
        routes[(a, b)] = found
    return pairs, routes


@pytest.mark.parametrize("joint", [True, False], ids=["joint", "fixed"])
@pytest.mark.parametrize("topology", ["path6", "barbell6", "cycle6"])
def test_catalog_routes_match_an_eager_enumeration(topology, joint):
    sub = builtin_topology(topology)
    scn = permutation_scenario(sub, 0, topology_name=topology)
    _route_table.cache_clear()
    catalog = _Catalog(scn, shortest_paths(sub), joint)
    pairs, routes = _eager_routes(sub, joint)
    assert catalog.pairs == pairs
    assert not catalog.shared
    for (a, b), expected in routes.items():
        got = catalog.routes(a, b)
        assert [(r.hops, r.pairs) for r in got] == expected
        assert catalog.routes(a, b) is got
    if joint:
        # the pair graph is K6: 65 simple routes between any two vertices
        assert {len(r) for r in routes.values()} == {65}


@pytest.mark.parametrize("perm", [0, 17, 101])
def test_joint_search_enumerates_only_the_pairs_it_routes(perm):
    sub = builtin_topology("barbell6")
    scn = permutation_scenario(sub, perm, topology_name="barbell6")
    _route_table.cache_clear()
    search = _Search(scn, False, None, None)
    search.run()
    # segments run from the source to a placement and from it to a destination
    (plan,) = search.plans
    ((n, *_r),) = plan.funcs
    cands = search.candidates[(plan.ri, n)]
    routable = {(plan.source_vertex, c) for c in cands}
    routable |= {(c, d) for c in cands for d, _rate in plan.branches}
    read = set(search.catalog.shared)
    assert read <= routable
    assert 0 < len(read) < 30


def test_route_lists_are_shared_per_topology_and_mode():
    sub = builtin_topology("barbell6")
    _route_table.cache_clear()
    catalogs = {}
    for perm in (0, 17):
        scn = permutation_scenario(sub, perm, topology_name="barbell6")
        for fixed in (False, True):
            search = _Search(scn, fixed, None, None)
            search.run()
            catalogs[(perm, fixed)] = search.catalog
    for fixed in (False, True):
        first, second = catalogs[(0, fixed)], catalogs[(17, fixed)]
        assert first.shared and first.shared is second.shared
        for (a, b), routes in first.shared.items():
            assert second.routes(a, b) is routes
    joint, fixed = catalogs[(0, False)], catalogs[(0, True)]
    for (a, b), routes in joint.shared.items():
        assert fixed.routes(a, b) is not routes
    assert _route_table.cache_info().currsize <= 2
    for topology in ("path6", "cycle6", "barbell6"):
        sub = builtin_topology(topology)
        scn = permutation_scenario(sub, 0, topology_name=topology)
        for joint in (True, False):
            _Catalog(scn, shortest_paths(sub), joint).routes(*sub.vertices[:2])
            assert _route_table.cache_info().currsize <= 2


# ---- the floor cut: a route's zero-load delay is never above its loaded one ----


@functools.lru_cache(maxsize=1)
def _barbell_search() -> _Search:
    scn = permutation_scenario(builtin_topology("barbell6"), 0, topology_name="barbell6")
    return _Search(scn, False, None, None)


@settings(max_examples=300, deadline=None)
@given(
    pair=st.sampled_from(list(itertools.permutations(range(6), 2))),
    pick=st.integers(min_value=0),
    rate=st.floats(min_value=0.0, max_value=5.0),
    loads=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=5, max_size=5),
)
# the line rate is 4: rates at and just below the largest load allowed, and above it
@example(pair=(0, 5), pick=64, rate=4.0 - 1e-9, loads=[0.0] * 5)
@example(pair=(0, 5), pick=64, rate=math.nextafter(4.0 - 1e-9, 0.0), loads=[1e-9] * 5)
@example(pair=(2, 3), pick=0, rate=4.5, loads=[0.0] * 5)
def test_floor_is_never_above_the_loaded_delay(pair, pick, rate, loads):
    search = _barbell_search()
    assert search.mu_bar == 4.0
    verts = search.sub.vertices
    routes = search.catalog.routes(verts[pair[0]], verts[pair[1]])
    hops = routes[pick % len(routes)].hops
    floor = search._route_delay(hops, {}, rate)
    loaded = search._route_delay(hops, dict(zip(hops, loads)), rate)
    assert floor <= loaded
    if rate >= search.max_load:
        assert floor == math.inf


# ---- search work on the random chains, pinned before the floor cut ----


# (leaves, placement_rounds, colorings_cached) of the cases of
# test_bound_keeps_random_chain_results: d_max 0, 1, the optimum's delay and
# 1e-6 below it, joint then fixed at each
_RANDOM_CHAIN_WORK = {
    0: ((2, 2, 2), (2, 2, 0), (2, 2, 2), (2, 2, 0), (3, 2, 3), (2, 2, 0), (2, 2, 2), (2, 2, 0)),
    1: ((2, 2, 2), (2, 2, 0), (2, 2, 2), (2, 2, 0), (2, 2, 2), (2, 2, 0), (2, 2, 2), (2, 2, 0)),
    2: ((2, 2, 2), (2, 2, 0), (2, 2, 2), (2, 2, 0), (2, 2, 2), (2, 2, 0), (2, 2, 2), (2, 2, 0)),
    3: ((2, 2, 2), (2, 2, 0), (2, 2, 2), (2, 2, 0), (2, 2, 2), (2, 2, 0), (2, 2, 2), (2, 2, 0)),
    4: ((2, 2, 2), (2, 2, 0), (2, 2, 2), (2, 2, 0), (2, 2, 2), (2, 2, 0), (2, 2, 2), (2, 2, 0)),
    5: ((2, 2, 2), (2, 2, 0), (2, 2, 2), (2, 2, 0), (3, 2, 3), (2, 2, 0), (2, 2, 2), (2, 2, 0)),
    6: ((2, 2, 2), (2, 2, 0), (2, 2, 2), (2, 2, 0), (2, 2, 2), (2, 2, 0), (2, 2, 2), (2, 2, 0)),
    7: ((2, 2, 2), (2, 2, 0), (2, 2, 2), (2, 2, 0), (3, 2, 3), (2, 2, 0), (2, 2, 2), (2, 2, 0)),
}


@pytest.mark.parametrize("seed", range(8))
def test_random_chain_search_work_is_pinned(seed):
    base = random_chain_scenario(random.Random(seed), f"bnb{seed}")
    delay = solve_exhaustive(swap_request(base, d_max=0.0)).lateness
    work = []
    for d_max in (0.0, 1.0, delay, delay - 1e-6):
        scn = swap_request(base, d_max=d_max)
        for fixed in (False, True):
            cert = solve_exhaustive(scn, fixed).certificate
            work.append((cert["leaves"], cert["placement_rounds"], cert["colorings_cached"]))
    assert tuple(work) == _RANDOM_CHAIN_WORK[seed]


# ---- the floor cut gives way when a subtree changes the incumbent's class ----


def _late_against(search, best, ri, delay) -> bool:
    """``search._late`` with ``best`` as the incumbent."""
    saved, search.best_lex = search.best_lex, best
    try:
        return search._late(ri, delay)
    finally:
        search.best_lex = saved


def _yields_past_a_class_change(monkeypatch, solve) -> int:
    """``solve()`` under ``_checked_pre_cuts``; the routes yielded past a class change.

    Counts the routes a ``_Search._routes`` call yields after a subtree changed
    the incumbent's ``best_lex[:2]`` whose zero-load floor fails the bound of
    the incumbent at the call's start: the routes its floor cut had skipped.
    """
    routes = _Search._routes
    count = 0

    def spy(self, segs, chosen, loads, parts):
        nonlocal count
        start = self.best_lex
        seg = segs[len(chosen)]
        changed = False
        for route in routes(self, segs, chosen, loads, parts):
            if changed:
                ri, chain, slowest = parts
                f = self._route_delay(route.hops, {}, seg.rate)
                delay = chain + max(slowest, f) if seg.branch is not None else chain + f
                count += _late_against(self, start, ri, delay)
            yield route
            changed = changed or (start is not None and self.best_lex[:2] != start[:2])

    with monkeypatch.context() as m:
        m.setattr(_Search, "_routes", spy)
        _checked_pre_cuts(m, solve)
    return count


@pytest.mark.parametrize(
    "topology,perm,fixed", [("path6", 0, False), ("cycle6", 0, False), ("cycle6", 0, True)],
)
def test_floor_cut_gives_way_when_the_incumbent_fulfils(monkeypatch, topology, perm, fixed):
    scn = permutation_scenario(builtin_topology(topology), perm, topology_name=topology)
    # the generated budget is 0, so lateness is delay: a budget between the
    # first leaf's and the optimum's makes the first incumbent late and a
    # later one fulfil the request
    first = solve_exhaustive(scn, fixed, limits=OracleLimits(max_leaves=1)).lateness
    best = solve_exhaustive(scn, fixed).lateness
    assert best < first
    scn = swap_request(scn, d_max=(first + best) / 2)

    def solve():
        return solve_exhaustive(scn, fixed)

    assert _yields_past_a_class_change(monkeypatch, solve) > 0
    pruned, _full = _with_and_without_bound(monkeypatch, solve)
    assert pruned.fulfilled == (True,)
