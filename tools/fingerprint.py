"""Bit-level fingerprint of the oracle, validation and emitted models, for before/after checks.

Run it once against each tree to compare, with the package taken from
``PYTHONPATH`` (it imports ``nfvlight`` and nothing else outside the stdlib):

    PYTHONPATH=src python tools/fingerprint.py 2> items.txt

Each item becomes one canonical line on stderr, with every float written by
``float.hex``; stdout gets one sha256 per section over those lines.  Equal
digests mean equal results, bit for bit.  Sections:

* ``oracle``: ``solve_exhaustive`` on path6, barbell6 and cycle6, each over
  all 120 permutations in joint and fixed mode, plus the motivation scenario
  in joint, fixed and sequential mode.  Every result field is recorded, the
  certificate without ``wall_seconds`` and without the search-work counts.
* ``search``: the search-work counts of the same searches, ``leaves``,
  ``placement_rounds`` and ``colorings_cached``.  A change to how the search
  explores (a bound, a filter order) moves this section and no other.
* ``validation``: path6 permutations 0-19, oracle in joint and fixed mode,
  each assignment in both formulations: a sha256 of the ``as_assignment``
  values and, from ``validate``, ``ok``, every violation's name, family and
  amount, ``max_exact_lateness``, ``model_objective`` and
  ``approximation_error``.
* ``violations``: path6 permutations 0-9, oracle in joint and fixed mode,
  each assignment in both formulations, perturbed four times.  The first
  three use seeded random values: a few live variables zeroed and a few
  variables set to a random number, 0.0, -0.0, NaN or an infinity.  The
  fourth breaks bounds of both kinds: every live variable whose lower bound
  is above 0 is zeroed, so 0.0 breaks it (the lit lightpaths of a
  fixed-topology model; a joint model has none), and one seeded variable
  with a lower bound of 0 is set to -1.0.  From ``validate``: every
  violation's name, family and amount, the exact lateness per request and
  the warnings.  This checks the rows, bounds and embeddings of solutions
  that are not clean, which the ``validation`` section does not reach.
* ``models``: the sha256 of each model file the ``solve-replay`` benchmark
  workload emits and checks against ``perfbench/expected.json``, path6
  permutation 0 with default options: ``perm0-milp-lp``, ``perm0-milp-mps``
  and ``perm0-miqcp-lp``.  Each case has two lines: the emitted text, and
  the file that ``nfvlight build --out`` writes from the saved scenario.
  Then the LP text (and, of the MILP, the MPS text) of builds made one after
  another in this process, so that most hit the compile cache: per
  formulation, path6 permutations 0, 35 and 1, each joint, fixed and joint,
  and last a copy of a copy of the last build that carries an
  ``objective_pin`` row.

The run takes about 20 seconds on one core of a shared 2-vCPU host
(Python 3.11), about 4 seconds of it for ``violations`` and 8 seconds for
``models``.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import sys
import tempfile
from pathlib import Path

from nfvlight import (
    as_assignment,
    build_milp,
    build_miqcp,
    builtin_topology,
    cli,
    emit_lp,
    emit_mps,
    motivation_scenario,
    permutation_scenario,
    save_scenario,
    solve_exhaustive,
    solve_sequential_baseline,
    validate,
)


def canon(x):
    """A JSON-ready copy of ``x``: floats as hex, containers in their order."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return [[canon(k), canon(v)] for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if dataclasses.is_dataclass(x):
        return canon({f.name: getattr(x, f.name) for f in dataclasses.fields(x)})
    return x


def line(*parts) -> str:
    return json.dumps(canon(parts), separators=(",", ":"))


def oracle_items():
    for topology in ("path6", "barbell6", "cycle6"):
        sub = builtin_topology(topology)
        for perm in range(120):
            scn = permutation_scenario(sub, perm, topology_name=topology)
            for mode in ("joint", "fixed"):
                yield scn.name, mode, solve_exhaustive(scn, mode == "fixed")
    scn = motivation_scenario()
    yield scn.name, "joint", solve_exhaustive(scn)
    yield scn.name, "fixed", solve_exhaustive(scn, True)
    yield scn.name, "sequential", solve_sequential_baseline(scn)


# certificate fields that count search work rather than describe the result
SEARCH_WORK = ("leaves", "placement_rounds", "colorings_cached")


def oracle_sections():
    """The ``oracle`` and ``search`` lines, from one run of every search."""
    oracle, search = [], []
    for name, mode, res in oracle_items():
        cert = {k: v for k, v in res.certificate.items() if k not in ("wall_seconds", *SEARCH_WORK)}
        oracle.append(line(name, mode, dataclasses.replace(res, certificate=cert)))
        search.append(line(name, mode, [res.certificate[k] for k in SEARCH_WORK]))
    return oracle, search


def validation_section():
    """One line per permutation, mode and formulation, in that order.

    The lines are computed one formulation at a time over all permutations,
    so that consecutive builds hit the compile cache: the MIQCP compiles
    once, and the MILP once per capacity assignment (5 of the 20).
    """
    sub = builtin_topology("path6")
    modes = ("joint", "fixed")
    scenarios = [permutation_scenario(sub, perm, topology_name="path6") for perm in range(20)]
    results = [
        {mode: solve_exhaustive(scn, mode == "fixed") for mode in modes} for scn in scenarios
    ]
    lines = {}
    for kind, build in (("miqcp", build_miqcp), ("milp", build_milp)):
        for scn, res in zip(scenarios, results):
            for mode in modes:
                values = as_assignment(res[mode], scn, kind)
                digest = hashlib.sha256(line(sorted(values.items())).encode()).hexdigest()
                rep = validate(scn, build(scn, mode == "fixed"), values)
                lines[(scn.name, mode, kind)] = line(
                    scn.name, mode, kind, digest, rep.ok,
                    [(v.name, v.family, v.amount) for v in rep.violations],
                    rep.max_exact_lateness, rep.model_objective, rep.approximation_error,
                )
    for scn in scenarios:
        for mode in modes:
            yield lines[(scn.name, mode, "miqcp")]
            yield lines[(scn.name, mode, "milp")]


ODD_VALUES = (0.0, -0.0, math.nan, math.inf, -math.inf)


def perturbed(values: dict[str, float], names: list[str], rng: random.Random) -> dict[str, float]:
    """``values`` with up to three live variables zeroed and eight of ``names`` reset."""
    out = dict(values)
    live = [name for name, v in values.items() if v]
    for name in rng.sample(live, min(3, len(live))):
        out[name] = 0.0
    for name in rng.sample(names, 8):
        out[name] = rng.choice(ODD_VALUES) if rng.random() < 0.5 else rng.uniform(-2.0, 2.0)
    return out


def bound_breaches(values: dict[str, float], model, rng: random.Random) -> dict[str, float]:
    """``values`` with each live variable whose lb > 0 zeroed and one lb = 0 variable at -1.0."""
    out = dict(values)
    for name, v in values.items():
        if v and model.variables[name].lb > 0.0:
            out[name] = 0.0
    out[rng.choice([name for name, var in model.variables.items() if var.lb == 0.0])] = -1.0
    return out


def violations_section():
    """One line per formulation, permutation, mode and perturbation, in that order."""
    sub = builtin_topology("path6")
    modes = ("joint", "fixed")
    scenarios = [permutation_scenario(sub, perm, topology_name="path6") for perm in range(10)]
    results = [
        {mode: solve_exhaustive(scn, mode == "fixed") for mode in modes} for scn in scenarios
    ]
    for kind, build in (("miqcp", build_miqcp), ("milp", build_milp)):
        for scn, res in zip(scenarios, results):
            for mode in modes:
                model = build(scn, mode == "fixed")
                values = as_assignment(res[mode], scn, kind)
                for k in range(4):
                    rng = random.Random(f"{scn.name}-{mode}-{kind}-{k}")
                    if k < 3:
                        wrong = perturbed(values, list(model.variables), rng)
                    else:
                        wrong = bound_breaches(values, model, rng)
                    rep = validate(scn, model, wrong)
                    yield line(
                        scn.name, mode, kind, k,
                        [(v.name, v.family, v.amount) for v in rep.violations],
                        rep.exact_lateness, rep.warnings,
                    )


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def models_section():
    sub = builtin_topology("path6")
    scn = permutation_scenario(sub, 0, topology_name="path6")
    with tempfile.TemporaryDirectory(prefix="fingerprint.") as td:
        saved = Path(td) / "perm0.json"
        save_scenario(scn, saved)
        for case, build, emit in (
            ("perm0-milp-lp", build_milp, emit_lp),
            ("perm0-milp-mps", build_milp, emit_mps),
            ("perm0-miqcp-lp", build_miqcp, emit_lp),
        ):
            yield line(case, sha256(emit(build(scn))))
            kind, fmt = case.split("-")[1:]
            out = Path(td) / f"{case}.{fmt}"
            code = cli.main(["build", "--scenario", str(saved), "--formulation", kind,
                             "--format", fmt, "--out", str(out)])
            yield line(case, "build --out", code, hashlib.sha256(out.read_bytes()).hexdigest())
            out.unlink()
    for kind, build, emits in (("miqcp", build_miqcp, (emit_lp,)),
                               ("milp", build_milp, (emit_lp, emit_mps))):
        for perm in (0, 35, 1):
            scn = permutation_scenario(sub, perm, topology_name="path6")
            for mode in ("joint", "fixed", "joint"):
                model = build(scn, mode == "fixed")
                yield line(kind, scn.name, mode, [sha256(emit(model)) for emit in emits])
        twice = model.copy().copy()
        terms, _ = twice.objective_parts[min(twice.objective_parts)]
        twice.add_con("objective_pin_o1", "objective_pin", terms, "=", 1.0)
        yield line(kind, "a copy of a copy, pinned", [sha256(emit(twice)) for emit in emits])


def main() -> int:
    oracle, search = oracle_sections()
    for section, items in (
        ("oracle", oracle), ("search", search), ("validation", validation_section()),
        ("violations", violations_section()), ("models", models_section()),
    ):
        h = hashlib.sha256()
        n = 0
        for text in items:
            sys.stderr.write(f"{section} {text}\n")
            h.update(text.encode() + b"\n")
            n += 1
        sys.stdout.write(f"{section} {n} {h.hexdigest()}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
