"""Delay rows: the shared per-hop term blocks against a nested-loop reference.

The builders assemble each delay row from per-hop term tuples that every row
crossing the hop shares.  The reference below expands every row on its own,
hop by hop, the way the builders once did.  The stored terms must equal it
tuple for tuple and in the same order, so evaluation sums the same floats.
"""
from __future__ import annotations

import itertools
import tracemalloc

import pytest

from nfvlight import build_milp, build_miqcp, naming
from nfvlight.approx import resolve_partitions, shortest_paths
from nfvlight.exact import add_flow_part
from nfvlight.optmodel import Model, _merge_lin


def reference_rows(scn, prune_pinned_tuples):
    """The flow context, and ``(name, ri, hops, inner)`` for each delay row."""
    ctx = add_flow_part(Model("miqcp"), scn, prune_pinned_tuples=prune_pinned_tuples)
    rows = []
    for ri, req in enumerate(scn.requests):
        for pi, path in enumerate(req.graph.paths()):
            arcs = list(zip(path, path[1:]))
            for vtuple in itertools.product(*(ctx.allowed[(ri, n)] for n in path)):
                hops = [(a, vtuple[j], vtuple[j + 1]) for j, a in enumerate(arcs)]
                inner = list(zip(path[1:-1], vtuple[1:-1]))
                rows.append((f"delay_r{ri}_p{pi}_" + "_".join(vtuple), ri, hops, inner))
    return ctx, rows


def pairs_ne(scn):
    V = scn.substrate.vertices
    return [(w, wp) for w in V for wp in V if w != wp]


def miqcp_reference(scn, prune_pinned_tuples):
    sub = scn.substrate
    pairs = pairs_ne(scn)
    ctx, rows = reference_rows(scn, prune_pinned_tuples)
    out = {}
    for name, ri, hops, inner in rows:
        quad = []
        for a, v, vp in hops:
            for (w, wp) in pairs:
                zname = ctx.z[(ri, a, v, vp, w, wp)]
                for e in sub.edges:
                    d = sub.delay[e]
                    if d:
                        for g in range(sub.wavelengths):
                            quad.append((d, zname, naming.l_name(w, wp, e, g)))
                quad.append((1.0, zname, naming.eta_name(w, wp)))
        for n, v in inner:
            quad.append((1.0, ctx.y[(ri, n, v)], naming.theta_name(ri, n, v)))
        out[name] = ([(-1.0, ctx.x3[ri])], tuple(quad))
    return out


def milp_reference(scn, prune_pinned_tuples):
    table = shortest_paths(scn.substrate)
    parts = resolve_partitions(scn)
    fwd = parts.forwarding
    pairs = pairs_ne(scn)
    ctx, rows = reference_rows(scn, prune_pinned_tuples)
    out = {}
    for name, ri, hops, inner in rows:
        lin = [(-1.0, ctx.x3[ri])]
        for a, v, vp in hops:
            for (w, wp) in pairs:
                d = table.dist[(w, wp)]
                if d:
                    lin.append((d, ctx.z[(ri, a, v, vp, w, wp)]))
                for k in range(fwd.K + 1):
                    lin.append(
                        (1.0 / fwd.knots[k] + fwd.shift,
                         naming.xi_fwd_name(ri, a, v, vp, w, wp, k))
                    )
        for n, v in inner:
            part = parts.processing.get((ri, n, v))
            if part is None:
                continue
            for k in range(part.K + 1):
                lin.append((1.0 / part.knots[k] + part.shift, naming.xi_proc_name(ri, n, v, k)))
        out[name] = (lin, ())
    return out


CASES = [
    ("tiny", {}),
    ("tiny", {"fixed_topology": True}),
    ("tiny", {"prune_pinned_tuples": True}),
    ("motivation", {}),
    ("perm0", {}),
]


@pytest.mark.parametrize(
    "build, reference", [(build_miqcp, miqcp_reference), (build_milp, milp_reference)],
    ids=["miqcp", "milp"],
)
@pytest.mark.parametrize(
    "scenario, options", CASES, ids=["tiny", "tiny-fixed", "tiny-pruned", "motivation", "perm0"]
)
def test_delay_rows_equal_the_nested_loop_expansion(request, build, reference, scenario, options):
    scn = request.getfixturevalue(scenario)
    m = build(scn, **options)
    expected = reference(scn, options.get("prune_pinned_tuples", False))
    rows = [con for con in m.constraints.values() if con.family == "delay"]
    assert [con.name for con in rows] == list(expected)
    for con in rows:
        lin, bilinear = expected[con.name]
        assert con.lin == _merge_lin(lin), con.name
        assert con.bilinear == bilinear, con.name


def test_built_miqcp_stays_small_in_memory(perm0):
    # Rows crossing one data hop share its term tuples.  One copy per row
    # held about 63 MiB; the shared blocks hold about 22 MiB.
    tracemalloc.start()
    try:
        m = build_miqcp(perm0)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(m.constraints) == 12062
    assert current < 32 * 2**20
