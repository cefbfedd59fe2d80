"""The paired-run summary of tools/benchpairs.py, on hand-made run records."""
from __future__ import annotations

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "benchpairs", Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py")
benchpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpairs)


def run(value, correct=True, failed=0):
    return {"seed": 1, "correct": correct, "attempted": 4, "failed": failed, "samples": 4,
            "metrics": {"ops_per_s": value, "op_s_p50": 1.0 / value}}


BETTER = {"ops_per_s": "higher", "op_s_p50": "lower"}


def test_clean_pairs_are_counted_by_direction():
    runs = {"parent": [run(1.0), run(2.0), run(3.0)], "change": [run(2.0), run(2.0), run(1.0)]}
    out = benchpairs.summarize(runs, BETTER)
    ops, p50 = out["ops_per_s"], out["op_s_p50"]
    assert (ops["pairs"], ops["change_wins"], ops["parent_wins"]) == (3, 1, 1)
    assert (p50["change_wins"], p50["parent_wins"]) == (1, 1)
    assert ops["parent"]["median"] == 2.0 and ops["change"]["median"] == 2.0
    assert out["health"]["parent"] == {"runs": 3, "errored": 0, "incorrect": 0,
                                       "with_failed_ops": 0}


def test_unclean_runs_are_counted_and_left_out():
    runs = {
        "parent": [run(1.0), {"seed": 2, "error": "exit 1: boom"}, run(1.0), run(1.0)],
        "change": [run(2.0), run(9.0), run(9.0, correct=False), run(9.0, failed=1)],
    }
    out = benchpairs.summarize(runs, BETTER)
    assert out["health"]["parent"] == {"runs": 4, "errored": 1, "incorrect": 0,
                                       "with_failed_ops": 0}
    assert out["health"]["change"] == {"runs": 4, "errored": 0, "incorrect": 1,
                                       "with_failed_ops": 1}
    ops = out["ops_per_s"]
    assert ops["parent"]["values"] == [1.0, 1.0, 1.0]
    assert ops["change"]["values"] == [2.0, 9.0]
    # only the first pair has two clean runs
    assert (ops["pairs"], ops["change_wins"], ops["parent_wins"]) == (1, 1, 0)


HASHES = {"oracle": "4d54" + "0" * 60, "search": "d007" + "1" * 60,
          "validation": "7e4b" + "a" * 60, "violations": "71c2" + "c" * 60,
          "models": "5f7c" + "b" * 60}


def fingerprint_output(**counts):
    return "".join(f"{name} {counts.get(name, 80)} {sha}\n" for name, sha in HASHES.items())


def test_fingerprint_sections_are_parsed():
    out = benchpairs.parse_fingerprint(fingerprint_output(oracle=723, search=723, models=3), 0)
    assert out == {"oracle": {"count": 723, "sha256": HASHES["oracle"]},
                   "search": {"count": 723, "sha256": HASHES["search"]},
                   "validation": {"count": 80, "sha256": HASHES["validation"]},
                   "violations": {"count": 80, "sha256": HASHES["violations"]},
                   "models": {"count": 3, "sha256": HASHES["models"]}}


def test_failed_or_malformed_fingerprint_output_is_an_error():
    good = fingerprint_output()
    lines = good.splitlines(keepends=True)
    for stdout, code in [
        (good, 1),                                         # the run failed
        ("".join(lines[:2]), 0),                           # a section is missing
        (good + lines[0], 0),                              # a section repeats
        (good.replace("search 80", "search x"), 0),        # a count that is no number
        (good.replace(HASHES["oracle"], "4d54"), 0),       # a digest cut short
        (good + "Traceback (most recent call last):\n", 0),
    ]:
        assert set(benchpairs.parse_fingerprint(stdout, code)) == {"error"}
