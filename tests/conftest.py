"""Shared fixtures: builtin scenarios, a hand-sized three-vertex instance and
a random small-chain generator."""
from __future__ import annotations

import random

import pytest

from nfvlight import (
    ForwardingGraph,
    Request,
    Scenario,
    SubstrateNetwork,
    builtin_topology,
    motivation_scenario,
    permutation_scenario,
    solve_exhaustive,
)


def make_tiny() -> Scenario:
    """Three vertices in a line, one single-function chain pinned at both ends.

    Small enough that constraint rows can be checked term by term, and the
    optimum is easy to reason about: f must sit on v2 (the only vertex with
    capacity), traffic rides the two direct fibers, and the delay budget of
    1.0 is overrun by 7/15.
    """
    sub = SubstrateNetwork(
        vertices=("v1", "v2", "v3"),
        edges=(("v1", "v2"), ("v2", "v1"), ("v2", "v3"), ("v3", "v2")),
        delay={("v1", "v2"): 0.1, ("v2", "v1"): 0.1, ("v2", "v3"): 0.2, ("v3", "v2"): 0.2},
        capacity={"v2": 8.0},
        wavelengths=2,
        line_rate=4.0,
    )
    graph = ForwardingGraph(nodes=("s", "f", "d"), arcs=(("s", "f"), ("f", "d")))
    req = Request(
        graph=graph,
        d_max=1.0,
        initial_rates={("s", "f"): 2.0},
        source_restrictions=(("s", "v1", 1.0),),
        dest_restrictions=(("d", "v3", 1.0),),
    )
    scn = Scenario(substrate=sub, requests=(req,), name="tiny")
    scn.validate()
    return scn


def random_chain_scenario(rng: random.Random, name: str) -> Scenario:
    """A 3- or 4-vertex line with one single-function chain end to end.

    Delays, the rate, the host vertex and its capacity come from ``rng``,
    and ``d_max`` is 0 or 1.
    """
    n = rng.choice([3, 4])
    vs = tuple(f"v{k}" for k in range(1, n + 1))
    edges: list[tuple[str, str]] = []
    delay = {}
    for a, b in zip(vs, vs[1:]):
        d = round(rng.uniform(0.05, 0.3), 3)
        edges += [(a, b), (b, a)]
        delay[(a, b)] = delay[(b, a)] = d
    rate = round(rng.uniform(0.5, 2.5), 3)
    host = rng.choice(vs[1:-1])
    sub = SubstrateNetwork(
        vertices=vs, edges=tuple(edges), delay=delay,
        capacity={host: round(rate + rng.uniform(1.5, 8.0), 3)},
        wavelengths=2, line_rate=4.0,
    )
    graph = ForwardingGraph(nodes=("s", "f", "d"), arcs=(("s", "f"), ("f", "d")))
    req = Request(
        graph=graph, d_max=float(rng.choice([0.0, 1.0])),
        initial_rates={("s", "f"): rate},
        source_restrictions=(("s", vs[0], 1.0),),
        dest_restrictions=(("d", vs[-1], 1.0),),
    )
    scn = Scenario(substrate=sub, requests=(req,), name=name)
    scn.validate()
    return scn


@pytest.fixture(scope="session")
def path6():
    return builtin_topology("path6")


@pytest.fixture(scope="session")
def perm0(path6):
    return permutation_scenario(path6, 0, topology_name="path6")


@pytest.fixture(scope="session")
def motivation():
    return motivation_scenario()


@pytest.fixture(scope="session")
def tiny():
    return make_tiny()


@pytest.fixture(scope="session")
def tiny_joint(tiny):
    return solve_exhaustive(tiny)


@pytest.fixture(scope="session")
def perm0_joint(perm0):
    return solve_exhaustive(perm0)
