"""Memory held by built models and taken by emission, on path6 perm0.

Rows that share a block of terms, such as the load on one lightpath, must
share its term tuples after ``add_con``; MIQCP delay rows share one
expression per lightpath.  Emission may hold its output and
the pieces it is joined from, but no further copy of the text; writing a
file holds no copy of it at all.  A build that hits the compile cache holds
only its own rows, not a copy of the compiled model's tables.
"""
from __future__ import annotations

import tracemalloc

import pytest

from nfvlight import (
    build_milp,
    build_miqcp,
    emit_lp,
    emit_mps,
    exact,
    permutation_scenario,
    write_model,
)


@pytest.mark.parametrize("build, emit", [(build_milp, emit_mps), (build_miqcp, emit_lp)])
def test_emission_takes_at_most_two_and_a_half_texts(perm0, build, emit):
    # Tracing starts after the build, so the peak is what emission adds
    # above the model.  Each copy of the text, or a string per entry, costs
    # about one text length.  With a string per MPS entry and a final
    # ``+ "\n"`` copy, the peaks were 5.2 (MPS) and 3.0 (LP) text lengths.
    model = build(perm0)
    tracemalloc.start()
    try:
        text = emit(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)


def test_writing_the_miqcp_file_peaks_under_an_eighth_of_its_text(perm0, tmp_path):
    # The 42.7 MB LP text, written about 1 MiB at a time: the peak, about
    # 4 MiB, is a batch of lines, their join and its encoding, plus 0.5 MiB
    # of per-tuple prefix texts.  Emitting the whole text peaks at 82 MiB.
    model = build_miqcp(perm0)
    path = tmp_path / "perm0.lp"
    tracemalloc.start()
    try:
        write_model(model, path, "lp")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 8


def test_forwarding_slack_rows_share_the_load_terms(perm0):
    model = build_milp(perm0)
    lam = {n for n, var in model.variables.items() if var.role == "lam"}
    first: dict[tuple, tuple] = {}
    shared = 0
    for con in model.constraints.values():
        if con.family != "forwarding_slack":
            continue
        load = tuple(t for t in con.lin if t[1] in lam)
        lightpath = tuple(con.name.rsplit("_", 2)[1:])  # ..._{w}_{wp}
        seen = first.setdefault(lightpath, load)
        if seen is not load:
            shared += 1
            assert len(seen) == len(load) and all(a is b for a, b in zip(seen, load)), con.name
    assert shared == 2592 - len(first)


def test_built_miqcp_delay_rows_share_one_expression_per_lightpath(perm0):
    # Each routed hop z multiplies its lightpath's propagation-plus-sojourn
    # expression.  Stored as 790,776 expanded terms the model held 21.8 MiB.
    tracemalloc.start()
    try:
        model = build_miqcp(perm0)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 12 * 2**20
    delay = [con for con in model.constraints.values() if con.family == "delay"]
    assert len(delay) == 216
    expressions = {
        id(terms)
        for con in delay
        for a, terms in con.products
        if model.variables[a].role == "z"
    }
    assert len(expressions) == 30


@pytest.mark.parametrize("build", [build_miqcp, build_milp])
def test_a_cache_hit_build_holds_only_its_own_rows(path6, perm0, build):
    # Copying the compiled tables into new dicts held 628 KiB (MIQCP) and
    # 1.4 MiB (MILP) per build; a copy-on-write build holds its scenario rows.
    perm1 = permutation_scenario(path6, 1, topology_name="path6")
    build(perm0)
    build(perm0, True)
    kept = exact._compiled
    tracemalloc.start()
    try:
        model = build(perm1)  # held while the memory is read
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exact._compiled[1] is kept[1]  # a cache hit
    assert model.name == "path6-perm001-" + model.kind
    assert current < 128 * 2**10
