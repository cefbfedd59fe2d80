"""Paired benchmark runs of two commits, summarized into ``BENCH_<pr>.json``.

Each side is exported with ``git archive`` into its own directory under
``--workdir``; then ``perfbench/run.py`` runs there on every workload that
``BENCHMARK.json`` lists, for its ``run_seconds``, one process at a time,
alternating which side goes first (odd pairs parent first).  Both sides of a
pair get the same seed: ``SEED + 100 * workload index + pair index``.
``PAIRS`` untraced pairs give the end-to-end metrics; ``TRACED_PAIRS`` more
pairs with ``--trace 1`` give the per-layer times and counts.  Before the
pairs, this tree's ``tools/fingerprint.py`` runs once against each exported
tree, with ``PYTHONPATH`` set to that tree's ``src``, so both sides are read
by one script; its items go to ``fingerprint-items.txt`` there.

    python3 tools/benchpairs.py --parent HEAD~1 --change HEAD --pr 14 \\
        --workdir ../scratch/bench

The result goes to ``BENCH_<pr>.json`` at the root of this repository and is
rewritten after every pair, so an interrupted session keeps what it ran.
It names both commits and the git tree ids of their ``src/`` and benchmark
directories.  Under ``fingerprint`` it holds each side's section lines
(``oracle``, ``search``, ``validation``, ``violations``, ``models``: item
count and sha256) and whether the two item files are byte-identical.  Per workload and metric
it holds each side's runs, median and quartiles, the pairs the change won
(ties count for neither side) and the relative change of the median, signed
so that positive is better.  A run that errored, came back incorrect or had
failed operations is counted per side and kept out of the medians and the
pairs; the tool then exits 1, as it does when a fingerprint run fails.
Only the standard library is used; nothing under ``perfbench/`` is written
except in the exported copies.
"""
from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
SEED = 3001
PAIRS = 10  # the fewest that can show a 9-of-10 win
TRACED_PAIRS = 2
FINGERPRINT_SECTIONS = ("oracle", "search", "validation", "violations", "models")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--change", required=True, help="git revision of the change side")
    p.add_argument("--pr", required=True, type=int, help="number in the output file name")
    p.add_argument("--workdir", required=True, type=Path,
                   help="directory for the two exported checkouts")
    return p.parse_args(argv)


def git(*argv: str) -> bytes:
    return subprocess.run(["git", "-C", str(REPO), *argv], check=True,
                          capture_output=True).stdout


def export(side: str, rev: str, workdir: Path) -> tuple[str, Path]:
    """``git archive`` of ``rev`` into a new directory; the commit id and that directory."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    dest = workdir / f"{side}-{commit[:12]}"
    dest.mkdir(parents=True)  # fails if it exists: old .perfbench_run state would leak in
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", commit), check=True)
    return commit, dest


def trees(commit: str, paths: list[str]) -> dict:
    """The git tree id of each path in ``commit``, so equal code can be checked."""
    return {path: git("rev-parse", f"{commit}:{path}").decode().strip() for path in paths}


def fingerprint(checkout: Path) -> dict:
    """This tree's ``tools/fingerprint.py`` run on ``checkout``'s package: its sections,
    or the reason it gave none."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    with (checkout / "fingerprint-items.txt").open("w") as items:
        proc = subprocess.run([sys.executable, str(REPO / "tools" / "fingerprint.py")],
                              stdout=subprocess.PIPE, stderr=items, text=True, cwd=checkout,
                              env=env)
    return parse_fingerprint(proc.stdout, proc.returncode)


def parse_fingerprint(stdout: str, returncode: int) -> dict:
    """Each section line ``<name> <count> <sha256>`` of fingerprint output, by name.

    Output from a failed run, or without exactly one well-formed line per
    section, gives ``{"error": ...}``.
    """
    sections: dict[str, dict] = {}
    for line in stdout.splitlines():
        parts = line.split()
        if (len(parts) == 3 and parts[0] in FINGERPRINT_SECTIONS
                and parts[0] not in sections and parts[1].isdigit()
                and len(parts[2]) == 64 and set(parts[2]) <= set("0123456789abcdef")):
            sections[parts[0]] = {"count": int(parts[1]), "sha256": parts[2]}
        else:
            return {"error": f"exit {returncode}: unexpected line {line!r}"}
    if returncode or len(sections) != len(FINGERPRINT_SECTIONS):
        return {"error": f"exit {returncode}: sections {sorted(sections)}"}
    return sections


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench process; its result object, or the reason it gave none."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"]
    except (IndexError, KeyError, ValueError):
        return {"seed": seed, "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "samples": detail.get("samples"),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def clean(run: dict) -> bool:
    """A run that finished, was correct and had no failed operation."""
    return "error" not in run and run["correct"] and run["failed"] == 0


def health(runs: list[dict]) -> dict:
    return {"runs": len(runs),
            "errored": sum(1 for run in runs if "error" in run),
            "incorrect": sum(1 for run in runs if "error" not in run and not run["correct"]),
            "with_failed_ops": sum(1 for run in runs if "error" not in run and run["failed"])}


def summarize(runs: dict, better: dict) -> dict:
    """Per metric: each side's values, median and quartiles, and the pairs won.

    Only clean runs count, and a pair only when both of its runs are clean.
    """
    out = {"health": {side: health(runs[side]) for side in SIDES}}
    kept = {side: [run for run in runs[side] if clean(run)] for side in SIDES}
    paired = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if clean(p) and clean(c)]
    names = sorted({m for side in SIDES for run in kept[side] for m in run["metrics"]})
    for name in names:
        sign = -1.0 if better.get(name) == "lower" else 1.0
        entry = {"better": better.get(name, "higher")}
        for side in SIDES:
            values = [run["metrics"][name] for run in kept[side] if name in run["metrics"]]
            entry[side] = {"values": values, **quartiles(values)}
        pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in paired
                 if name in p["metrics"] and name in c["metrics"]]
        entry["pairs"] = len(pairs)
        entry["change_wins"] = sum(1 for p, c in pairs if sign * (c - p) > 0)
        entry["parent_wins"] = sum(1 for p, c in pairs if sign * (c - p) < 0)
        p_med, c_med = entry["parent"].get("median"), entry["change"].get("median")
        if p_med and c_med is not None:
            entry["median_change_pct"] = 100.0 * sign * (c_med - p_med) / p_med
        out[name] = entry
    return out


def quartiles(values: list[float]) -> dict:
    if not values:
        return {}
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    checkouts, commits = {}, {}
    for side in SIDES:
        commits[side], checkouts[side] = export(side, getattr(args, side), args.workdir)

    prints = {side: fingerprint(checkouts[side]) for side in SIDES}
    items = [checkouts[side] / "fingerprint-items.txt" for side in SIDES]
    out_path = REPO / f"BENCH_{args.pr}.json"
    doc = {
        "parent": commits["parent"], "change": commits["change"],
        "trees": {side: trees(commits[side], ["src", *bench["paths"]]) for side in SIDES},
        "fingerprint": {**prints, "items_identical": filecmp.cmp(*items, shallow=False)},
        "settings": {"seconds": seconds, "pairs": PAIRS, "traced_pairs": TRACED_PAIRS,
                     "seed": SEED, "seed_rule": "seed + 100 * workload index + pair index",
                     "order": "odd pairs run the parent first"},
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "workloads": {},
    }
    runs = {(w, t): {side: [] for side in SIDES} for w in workloads for t in (0, 1)}
    schedule = [(0, i) for i in range(PAIRS)] + [(1, PAIRS + i) for i in range(TRACED_PAIRS)]
    for trace, i in schedule:
        for wi, workload in enumerate(workloads):
            seed = SEED + 100 * wi + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(checkouts[side], workload, seed, seconds, trace)
                runs[workload, trace][side].append(result)
                print(json.dumps({"workload": workload, "trace": trace, "side": side, **result}),
                      flush=True)
            for w in workloads:
                doc["workloads"][w] = {
                    "runs": {str(t): runs[w, t] for t in (0, 1) if runs[w, t]["parent"]},
                    "end_to_end": summarize(runs[w, 0], better),
                    "per_layer": summarize(runs[w, 1], better),
                }
            out_path.write_text(json.dumps(doc, indent=1) + "\n")
    unclean = sum(not clean(run) for side_runs in runs.values()
                  for side in SIDES for run in side_runs[side])
    failed = [side for side in SIDES if "error" in prints[side]]
    if failed:
        print(f"the fingerprint failed on {', '.join(failed)}", file=sys.stderr)
    if unclean:
        print(f"{unclean} runs errored, came back incorrect or had failed operations; "
              f"they are left out of {out_path.name}", file=sys.stderr)
    return 1 if failed or unclean else 0


if __name__ == "__main__":
    sys.exit(main())
