"""Scenario layer: invariants, builtin instances, rate bounds, JSON round trip."""
from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nfvlight import (
    ApproxConfig,
    BigMConfig,
    ForwardingGraph,
    ObjectiveWeights,
    QueueApprox,
    Request,
    Scenario,
    ScenarioError,
    SubstrateNetwork,
    builtin_topology,
    dumps_scenario,
    load_scenario,
    loads_scenario,
    motivation_scenario,
    permutation_scenario,
    propagate_rate_bounds,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from conftest import make_tiny


def line_substrate(*vertices, delay=0.1, caps=None, wavelengths=2, line_rate=4.0):
    edges, delays = [], {}
    for a, b in zip(vertices, vertices[1:]):
        edges += [(a, b), (b, a)]
        delays[(a, b)] = delays[(b, a)] = delay
    return SubstrateNetwork(
        vertices=tuple(vertices),
        edges=tuple(edges),
        delay=delays,
        capacity=caps or {},
        wavelengths=wavelengths,
        line_rate=line_rate,
    )


class TestSubstrate:
    def test_degree_is_transceiver_budget(self, path6):
        assert [path6.degree(v) for v in path6.vertices] == [1, 2, 2, 2, 2, 1]

    def test_fibers_are_canonical_and_unique(self, path6):
        fibers = path6.fibers()
        assert len(fibers) == 5
        assert fibers == tuple((f"v{i}", f"v{i+1}") for i in range(1, 6))
        assert path6.total_fiber_delay() == pytest.approx(0.5)

    def test_identifiers_reject_separator_characters(self):
        # Underscores and dashes would collide with the variable-name grammar.
        for bad in ("v_1", "v-1", "v 1", ""):
            with pytest.raises(ScenarioError, match="must match"):
                line_substrate(bad, "v2").validate()
        line_substrate("v1.a", "v2").validate()  # dots are fine

    def test_missing_reverse_edge_rejected(self):
        sub = dataclasses.replace(line_substrate("v1", "v2"), edges=(("v1", "v2"),))
        with pytest.raises(ScenarioError, match="reverse"):
            sub.validate()

    def test_asymmetric_delay_rejected(self):
        sub = line_substrate("v1", "v2")
        sub = dataclasses.replace(sub, delay={("v1", "v2"): 0.1, ("v2", "v1"): 0.2})
        with pytest.raises(ScenarioError, match="different delays"):
            sub.validate()

    def test_nan_edge_delay_names_the_delay_rule(self):
        # NaN differs from itself, so the reverse comparison must not see it first
        with pytest.raises(ScenarioError, match="finite nonnegative delay") as exc:
            builtin_topology("path6", edge_delay=float("nan"))
        assert exc.value.invariant == "edge_delay"

    def test_disconnected_substrate_rejected(self):
        a = line_substrate("v1", "v2")
        b = line_substrate("v3", "v4")
        sub = SubstrateNetwork(
            vertices=a.vertices + b.vertices,
            edges=a.edges + b.edges,
            delay={**a.delay, **b.delay},
            capacity={},
            wavelengths=2,
            line_rate=4.0,
        )
        with pytest.raises(ScenarioError, match="not connected"):
            sub.validate()

    def test_self_loop_and_duplicate_edge_rejected(self):
        base = line_substrate("v1", "v2")
        with pytest.raises(ScenarioError, match="self loop"):
            dataclasses.replace(
                base,
                edges=base.edges + (("v1", "v1"),),
                delay={**base.delay, ("v1", "v1"): 0.1},
            ).validate()
        with pytest.raises(ScenarioError, match="duplicate edge"):
            dataclasses.replace(base, edges=base.edges + (("v1", "v2"),)).validate()

    def test_bad_scalars_rejected(self):
        base = line_substrate("v1", "v2")
        with pytest.raises(ScenarioError, match="wavelength"):
            dataclasses.replace(base, wavelengths=0).validate()
        with pytest.raises(ScenarioError, match="line rate"):
            dataclasses.replace(base, line_rate=0.0).validate()
        with pytest.raises(ScenarioError, match="capacity"):
            dataclasses.replace(base, capacity={"v1": -1.0}).validate()

    def test_default_capacity_is_zero(self, path6):
        assert path6.cap("v1") == 0.0


class TestForwardingGraph:
    def test_chain_roles(self):
        g = ForwardingGraph(nodes=("s", "f", "d"), arcs=(("s", "f"), ("f", "d")))
        assert g.sources == ("s",)
        assert g.functional == ("f",)
        assert g.destinations == ("d",)
        assert g.topological_nodes() == ("s", "f", "d")
        assert g.paths() == (("s", "f", "d"),)

    def test_dag_paths_enumerated_sorted(self):
        g = ForwardingGraph(
            nodes=("s", "f", "g", "d"),
            arcs=(("s", "f"), ("s", "g"), ("f", "d"), ("g", "d")),
        )
        assert g.paths() == (("s", "f", "d"), ("s", "g", "d"))

    def test_cycle_rejected(self):
        g = ForwardingGraph(nodes=("a", "b"), arcs=(("a", "b"), ("b", "a")))
        with pytest.raises(ScenarioError, match="cycle"):
            g.topological_nodes()

    def test_default_coefficients(self):
        g = ForwardingGraph(nodes=("s", "f", "d"), arcs=(("s", "f"), ("f", "d")))
        assert g.alpha(("f", "d"), ("s", "f")) == 1.0
        assert g.beta(("f", "d")) == 0.0
        assert g.node_alpha("f") == 1.0
        assert g.node_beta("f") == 0.0


class TestRequest:
    def test_missing_initial_rate_rejected(self, path6):
        g = ForwardingGraph(nodes=("s", "f", "d"), arcs=(("s", "f"), ("f", "d")))
        req = Request(graph=g, d_max=0.0, initial_rates={})
        with pytest.raises(ScenarioError, match="no initial rate"):
            req.validate(path6)

    def test_rate_on_non_source_arc_rejected(self, path6):
        g = ForwardingGraph(nodes=("s", "f", "d"), arcs=(("s", "f"), ("f", "d")))
        req = Request(graph=g, d_max=0.0, initial_rates={("s", "f"): 1.0, ("f", "d"): 1.0})
        with pytest.raises(ScenarioError, match="not a source arc"):
            req.validate(path6)

    def test_restriction_references_checked(self, path6):
        g = ForwardingGraph(nodes=("s", "f", "d"), arcs=(("s", "f"), ("f", "d")))
        req = Request(
            graph=g, d_max=0.0, initial_rates={("s", "f"): 1.0},
            source_restrictions=(("s", "nowhere", 1.0),),
        )
        with pytest.raises(ScenarioError, match="unknown vertex"):
            req.validate(path6)
        req = Request(
            graph=g, d_max=0.0, initial_rates={("s", "f"): 1.0},
            source_restrictions=(("ghost", "v1", 1.0),),
        )
        with pytest.raises(ScenarioError, match="unknown node"):
            req.validate(path6)

    def test_partial_proportions_warn(self, path6):
        g = ForwardingGraph(nodes=("s", "f", "d"), arcs=(("s", "f"), ("f", "d")))
        req = Request(
            graph=g, d_max=0.0, initial_rates={("s", "f"): 1.0},
            dest_restrictions=(("d", "v1", 0.25),),
        )
        warnings = req.validate(path6)
        assert len(warnings) == 1 and "sum to 0.25" in warnings[0]


class TestRateBounds:
    def test_identity_chain_keeps_rate(self, tiny):
        bounds = propagate_rate_bounds(tiny)
        assert bounds[(0, ("s", "f"))] == pytest.approx(2.0)
        assert bounds[(0, ("f", "d"))] == pytest.approx(2.0)

    def test_affine_transform_applied_downstream(self):
        tiny = make_tiny()
        g = ForwardingGraph(
            nodes=("s", "f", "d"),
            arcs=(("s", "f"), ("f", "d")),
            alpha_arc={("f", "d"): {("s", "f"): 0.5}},
            beta_arc={("f", "d"): 0.3},
        )
        req = dataclasses.replace(tiny.requests[0], graph=g)
        scn = dataclasses.replace(tiny, requests=(req,))
        bounds = propagate_rate_bounds(scn)
        assert bounds[(0, ("f", "d"))] == pytest.approx(0.5 * 2.0 + 0.3)


class TestBuiltinInstances:
    def test_unknown_topology_rejected(self):
        with pytest.raises(ScenarioError, match="unknown builtin topology"):
            builtin_topology("mesh99")

    def test_permutation_family(self, path6):
        scn = permutation_scenario(path6, 0, topology_name="path6")
        assert scn.name == "path6-perm000"
        # index 0 picks (small, large, source) = (v1, v2, v3)
        assert scn.substrate.capacity == {"v1": 5.0, "v2": 50.0}
        req = scn.requests[0]
        assert req.source_restrictions == (("s", "v3", 1.0),)
        assert {v for (_, v, _) in req.dest_restrictions} == {"v4", "v5", "v6"}
        assert sum(p for (_, _, p) in req.dest_restrictions) == pytest.approx(1.0)
        assert req.d_max == 0.0
        with pytest.raises(ScenarioError, match="outside"):
            permutation_scenario(path6, 120)

    def test_permutation_triples_distinct(self, path6):
        triples = set()
        for i in range(120):
            scn = permutation_scenario(path6, i)
            small = min(scn.substrate.capacity, key=scn.substrate.capacity.get)
            large = max(scn.substrate.capacity, key=scn.substrate.capacity.get)
            src = scn.requests[0].source_restrictions[0][1]
            triples.add((small, large, src))
        assert len(triples) == 120

    def test_motivation_shape(self, motivation):
        sub = motivation.substrate
        assert len(sub.fibers()) == 5
        assert sub.capacity == {"v3": 5.0, "v4": 50.0}
        assert sub.wavelengths == 2
        rates = [list(r.initial_rates.values())[0] for r in motivation.requests]
        assert rates == [1.6, 2.0]
        assert [r.dest_restrictions[0][1] for r in motivation.requests] == ["v5", "v6"]

    def test_lambda_min_default_and_override(self, perm0):
        assert perm0.lambda_min == pytest.approx(3e-4)
        scn = dataclasses.replace(
            perm0, big_m=dataclasses.replace(perm0.big_m, lambda_min=1e-2)
        )
        assert scn.lambda_min == 1e-2


class TestSerialization:
    def test_round_trip_equality(self, perm0, motivation, tiny):
        for scn in (perm0, motivation, tiny):
            again = loads_scenario(dumps_scenario(scn))
            assert again == scn

    def test_file_round_trip(self, tmp_path, tiny):
        path = tmp_path / "scn.json"
        save_scenario(tiny, path)
        assert load_scenario(str(path)) == tiny

    def test_round_trip_with_every_optional_field(self, motivation):
        req = motivation.requests[0]
        graph = dataclasses.replace(
            req.graph,
            alpha_node={"f": 1.0},
            beta_node={"f": 0.5},
            alpha_arc={("f", "d"): {("s", "f"): 1.0}},
            beta_arc={("f", "d"): 0.1},
        )
        scn = dataclasses.replace(
            motivation,
            requests=(dataclasses.replace(req, graph=graph), *motivation.requests[1:]),
            weights=ObjectiveWeights(1.0, 50.0, 5.0, 2.0, 0.5, 0.25, 2.0),
            approx=ApproxConfig(
                error_target=0.02,
                forwarding=QueueApprox(eps=0.5, upper=4.0, base_points=5),
                processing=QueueApprox(eps=0.1, upper=9.0),
                processing_by_vertex={"v3": QueueApprox(base_points=3)},
                shift_mode="balanced",
            ),
            big_m=BigMConfig(lambda_min=1e-3, lateness_cap=50.0),
        )
        scn.validate()
        text = dumps_scenario(scn)
        data = json.loads(text)
        # every optional branch of scenario_to_dict wrote its field
        assert {"alpha_node", "beta_node", "alpha_arc", "beta_arc"} <= set(data["requests"][0])
        assert set(data["approx"]) == {
            "error_target", "shift_mode", "forwarding", "processing", "processing_by_vertex",
        }
        assert set(data["big_m"]) == {"lambda_min", "lateness_cap"}
        assert loads_scenario(text) == scn

    def test_malformed_document_rejected(self):
        with pytest.raises(ScenarioError, match="arc key"):
            loads_scenario(
                dumps_scenario(make_tiny()).replace("s->f", "sf", 1)
            )


def rich_scenario_dict() -> dict:
    """The motivation instance with every optional numeric field set."""
    data = scenario_to_dict(motivation_scenario())
    data["requests"][0].update(
        alpha_node={"f": 1.0},
        beta_node={"f": 0.5},
        alpha_arc={"f->d": {"s->f": 1.0}},
        beta_arc={"f->d": 0.1},
    )
    data["approx"] = {
        "error_target": 0.02,
        "forwarding": {"eps": 0.5, "upper": 4.0, "base_points": 5},
        "processing": {"eps": 0.1, "upper": 9.0, "base_points": 4},
        "processing_by_vertex": {"v3": {"eps": 0.2, "upper": 5.0, "base_points": 3}},
    }
    data["big_m"] = {"lambda_min": 1e-3, "lateness_cap": 50.0}
    return data


def numeric_paths(node, prefix=()):
    """Key paths to every number in a JSON-like document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield prefix
        return
    for key, child in items:
        yield from numeric_paths(child, prefix + (key,))


RICH_PATHS = list(numeric_paths(rich_scenario_dict()))


class TestNonFiniteInput:
    def test_rich_document_is_valid(self):
        assert len(RICH_PATHS) > 30
        scenario_from_dict(rich_scenario_dict())

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_line_rate_tokens_rejected(self, token):
        text = dumps_scenario(motivation_scenario()).replace(
            '"line_rate": 4.0', f'"line_rate": {token}'
        )
        with pytest.raises(ScenarioError, match="line rate"):
            loads_scenario(text)

    def test_nan_d_max_rejected(self):
        data = scenario_to_dict(motivation_scenario())
        data["requests"][1]["d_max"] = math.nan
        with pytest.raises(ScenarioError, match="d_max"):
            scenario_from_dict(data)

    def test_fractional_wavelengths_rejected(self):
        data = scenario_to_dict(motivation_scenario())
        data["substrate"]["wavelengths"] = 2.7
        with pytest.raises(ScenarioError, match="wavelengths must be an integer"):
            scenario_from_dict(data)
        data["substrate"]["wavelengths"] = 3.0
        assert scenario_from_dict(data).substrate.wavelengths == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_scenarios_built_in_code_are_checked(self, bad):
        sub = line_substrate("v1", "v2")
        for broken, match in (
            (dataclasses.replace(sub, delay={e: bad for e in sub.edges}), "delay"),
            (dataclasses.replace(sub, capacity={"v1": bad}), "capacity"),
            (dataclasses.replace(sub, line_rate=bad), "line rate"),
            (dataclasses.replace(sub, wavelengths=2.5), "wavelengths"),
        ):
            with pytest.raises(ScenarioError, match=match):
                broken.validate()
        tiny = make_tiny()
        req = tiny.requests[0]
        for broken, match in (
            (dataclasses.replace(req, d_max=bad), "d_max"),
            (dataclasses.replace(req, initial_rates={("s", "f"): bad}), "initial rate"),
        ):
            with pytest.raises(ScenarioError, match=match):
                dataclasses.replace(tiny, requests=(broken,)).validate()
        weights = dataclasses.replace(tiny.weights, lateness=bad)
        with pytest.raises(ScenarioError, match="weights"):
            dataclasses.replace(tiny, weights=weights).validate()

    @given(st.sampled_from(RICH_PATHS), st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_any_non_finite_number_is_rejected(self, path, bad):
        data = rich_scenario_dict()
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        with pytest.raises(ScenarioError):
            loads_scenario(json.dumps(data))


def _with_substrate(scn, **kw):
    return dataclasses.replace(scn, substrate=dataclasses.replace(scn.substrate, **kw))


def _with_request(scn, **kw):
    return dataclasses.replace(scn, requests=(dataclasses.replace(scn.requests[0], **kw),))


class TestCheckedOnConstruction:
    """A ``Scenario`` validates itself, also when made by ``dataclasses.replace``."""

    @pytest.mark.parametrize("variant,invariant", [
        (lambda s: _with_substrate(s, delay=dict.fromkeys(s.substrate.edges, math.nan)),
         "edge_delay"),
        (lambda s: _with_substrate(s, capacity=dict.fromkeys(s.substrate.capacity, -5.0)),
         "capacity"),
        (lambda s: _with_request(s, d_max=math.inf), "d_max"),
        (lambda s: _with_request(s, initial_rates={("s", "f"): math.nan}), "initial_rate"),
        (lambda s: dataclasses.replace(s, weights=ObjectiveWeights(lateness=math.nan)),
         "weights"),
    ], ids=["nan-delays", "negative-capacity", "infinite-d_max", "nan-rate", "nan-weight"])
    def test_replace_rejects_an_invalid_perm0(self, perm0, variant, invariant):
        with pytest.raises(ScenarioError) as err:
            variant(perm0)
        assert err.value.invariant == invariant


class TestApproxAndBigMSettings:
    """Settings the builders would otherwise reject late, or silently ignore."""

    @pytest.mark.parametrize("bad", [3.0, True, 1, 0, -2])
    def test_base_points_must_be_an_integer_of_at_least_two(self, bad):
        tiny = make_tiny()
        approx = dataclasses.replace(tiny.approx, forwarding=QueueApprox(base_points=bad))
        with pytest.raises(ScenarioError, match="base_points must be an integer >= 2"):
            dataclasses.replace(tiny, approx=approx).validate()

    @pytest.mark.parametrize("key", ["forwarding", "processing"])
    def test_zero_base_points_in_json_rejected(self, key):
        data = scenario_to_dict(motivation_scenario())
        data["approx"] = {key: {"base_points": 0}}
        with pytest.raises(ScenarioError, match="base_points"):
            scenario_from_dict(data)

    def test_processing_by_vertex_for_an_unknown_vertex_rejected(self):
        data = rich_scenario_dict()
        data["approx"]["processing_by_vertex"] = {"v99": {"base_points": 3}}
        with pytest.raises(ScenarioError, match="unknown vertex 'v99'"):
            scenario_from_dict(data)

    @pytest.mark.parametrize(
        "big_m, match",
        [
            ({"lambda_min": 0.0}, "lambda_min must be positive"),
            ({"lambda_min": -1e-3}, "lambda_min must be positive"),
            ({"lateness_cap": -1.0}, "lateness_cap must be nonnegative"),
        ],
    )
    def test_big_m_settings_checked(self, big_m, match):
        data = scenario_to_dict(make_tiny())
        data["big_m"] = big_m
        with pytest.raises(ScenarioError, match=match):
            scenario_from_dict(data)

    def test_zero_lateness_cap_accepted(self):
        data = scenario_to_dict(make_tiny())
        data["big_m"] = {"lateness_cap": 0.0}
        assert scenario_from_dict(data).big_m.lateness_cap == 0.0

    def test_replace_rejects_bad_approx_settings(self):
        tiny = make_tiny()
        approx = dataclasses.replace(tiny.approx, forwarding=QueueApprox(base_points=3.0))
        with pytest.raises(ScenarioError, match="base_points must be an integer >= 2") as exc:
            dataclasses.replace(tiny, approx=approx)
        assert exc.value.invariant == "approx"


class TestIntegerFields:
    """JSON integers only: ``int()`` would read ``true`` as 1 and ``"3"`` as 3."""

    @pytest.mark.parametrize("bad", [True, False, "3", "2.0"])
    def test_wavelengths_must_be_a_number(self, bad):
        data = scenario_to_dict(motivation_scenario())
        data["substrate"]["wavelengths"] = bad
        with pytest.raises(ScenarioError, match="substrate.wavelengths must be an integer"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("key", ["forwarding", "processing"])
    @pytest.mark.parametrize("bad", [True, "3"])
    def test_base_points_must_be_a_number(self, key, bad):
        data = scenario_to_dict(motivation_scenario())
        data["approx"] = {key: {"base_points": bad}}
        with pytest.raises(ScenarioError, match=f"approx.{key}.base_points must be an integer"):
            scenario_from_dict(data)

    def test_integral_numbers_accepted(self):
        data = scenario_to_dict(motivation_scenario())
        data["substrate"]["wavelengths"] = 3
        data["approx"] = {"forwarding": {"base_points": 4.0}}
        scn = scenario_from_dict(data)
        assert scn.substrate.wavelengths == 3
        assert scn.approx.forwarding.base_points == 4
