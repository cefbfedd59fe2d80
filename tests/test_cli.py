"""Command line harness, exercised in process through main(argv)."""
from __future__ import annotations

import concurrent.futures
import csv
import json
import sys

import pytest

from nfvlight import approx, build_milp, exact
from nfvlight.cli import main
from nfvlight.optmodel import _WRITE_BATCH, Assignment, Model, emit_model, write_model
from nfvlight.scenario import load_scenario, scenario_to_dict


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A perm0 scenario file, its certified milp solution, and a copy adapter."""
    td = tmp_path_factory.mktemp("cli")
    assert main(["gen", "--out", str(td / "p0.json")]) == 0
    assert main([
        "oracle", "--scenario", str(td / "p0.json"), "--formulation", "milp",
        "--solution-out", str(td / "p0.sol"),
    ]) == 0
    fake = td / "fake_solver.py"
    fake.write_text("import shutil, sys\nshutil.copy(sys.argv[1], sys.argv[3])\n")
    return td


def adapter_for(workdir, source="p0.sol"):
    fake = workdir / "fake_solver.py"
    return f"{sys.executable} {fake} {workdir / source} {{model}} {{solution}}"


@pytest.fixture(scope="module")
def results_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp") / "results.csv"
    assert main([
        "experiment", "--permutations", "0-1", "--workers", "1", "--out", str(out),
    ]) == 0
    return out


class TestGen:
    def test_default_scenario_on_stdout(self, capsys):
        assert main(["gen"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "path6-perm000"

    def test_out_file_round_trips(self, workdir):
        scn = load_scenario(workdir / "p0.json")
        assert scn.name == "path6-perm000"
        assert scn.substrate.capacity == {"v1": 5.0, "v2": 50.0}

    def test_motivation_flag(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["gen", "--motivation", "--out", str(out)]) == 0
        scn = load_scenario(out)
        assert scn.name == "motivation"
        assert len(scn.requests) == 2

    def test_all_permutations_writes_every_file(self, tmp_path, capsys):
        assert main(["gen", "--all-permutations", "--out-dir", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "written": 120, "dir": str(tmp_path),
        }
        files = sorted(tmp_path.glob("path6-perm*.json"))
        assert len(files) == 120
        assert files[0].name == "path6-perm000.json"
        assert files[-1].name == "path6-perm119.json"

    def test_permutation_out_of_range(self, capsys):
        assert main(["gen", "--permutation", "999"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "ScenarioError",
            "message": "permutation index 999 outside 0..119",
        }


class TestBuild:
    def test_stats_to_stdout(self, workdir, capsys):
        assert main(["build", "--scenario", str(workdir / "p0.json"), "--stats"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "miqcp"
        assert doc["variables"]["lam"] == 2592
        assert doc["variables"]["l"] == 2160
        assert doc["constraints"]["delay"] == 216
        assert doc["n_sos2"] == 0

    def test_lp_file_written(self, workdir, tmp_path, capsys):
        out = tmp_path / "p0.lp"
        assert main([
            "build", "--scenario", str(workdir / "p0.json"),
            "--formulation", "milp", "--out", str(out),
        ]) == 0
        assert capsys.readouterr().out == ""
        text = out.read_text()
        assert text.startswith("\\ path6-perm000")
        assert "\nSOS\n" in text and text.endswith("End\n")

    def test_mps_rejects_quadratic_rows(self, workdir, tmp_path, capsys):
        assert main([
            "build", "--scenario", str(workdir / "p0.json"),
            "--format", "mps", "--out", str(tmp_path / "p0.mps"),
        ]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ModelError"
        assert "quadratic constraints unsupported in MPS emission" in err["message"]

    def test_bad_base_points_is_a_scenario_error(self, workdir, tmp_path, capsys):
        doc = json.loads((workdir / "p0.json").read_text())
        doc["approx"] = {"forwarding": {"base_points": 0}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main([
            "build", "--scenario", str(path), "--formulation", "milp", "--stats",
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {
            "error": "ScenarioError",
            "message": "base_points must be an integer >= 2, got 0",
        }

    def test_boolean_wavelengths_is_a_scenario_error(self, workdir, tmp_path, capsys):
        doc = json.loads((workdir / "p0.json").read_text())
        doc["substrate"]["wavelengths"] = True
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main([
            "build", "--scenario", str(path), "--formulation", "milp", "--stats",
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {
            "error": "ScenarioError",
            "message": "substrate.wavelengths must be an integer, got True",
        }


class TestSolve:
    def test_adapter_round_trip(self, workdir, capsys):
        assert main([
            "solve", "--scenario", str(workdir / "p0.json"), "--formulation", "milp",
            "--adapter", adapter_for(workdir),
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["status"] == "parsed"
        assert doc["violations"] == 0
        assert doc["max_exact_lateness"] == pytest.approx(2.2546099290780144)
        assert doc["approximation_error"] == pytest.approx(0.009466666666666956)

    def test_solution_and_report_files(self, workdir, tmp_path, capsys):
        sol, rep = tmp_path / "s.sol", tmp_path / "r.json"
        assert main([
            "solve", "--scenario", str(workdir / "p0.json"), "--formulation", "milp",
            "--adapter", adapter_for(workdir),
            "--solution-out", str(sol), "--report-out", str(rep),
        ]) == 0
        capsys.readouterr()
        assert sol.read_text().startswith("# Objective value = ")
        report = json.loads(rep.read_text())
        assert report["ok"] is True and report["model_kind"] == "milp"

    def test_staged_pins_each_objective_part(self, workdir, capsys):
        assert main([
            "solve", "--scenario", str(workdir / "p0.json"), "--formulation", "milp",
            "--adapter", adapter_for(workdir), "--staged",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stages"] == [
            {"part": 1, "value": 0.0},
            {"part": 2, "value": 1.0},
            {"part": 3, "value": 2.2640765957446813},
            {"part": 4, "value": 59.4},
        ]

    def test_staged_keep_model_holds_the_last_stage(self, workdir, tmp_path, capsys):
        kept = tmp_path / "kept.lp"
        assert main([
            "solve", "--scenario", str(workdir / "p0.json"), "--formulation", "milp",
            "--adapter", adapter_for(workdir), "--staged", "--keep-model", str(kept),
        ]) == 0
        assert len(json.loads(capsys.readouterr().out)["stages"]) == 4
        # the fourth and last stage pins the first three parts
        text = kept.read_text()
        assert "objective_pin_o3" in text and "objective_pin_o4" not in text

    def test_staged_builds_one_model_for_the_stages_and_one_to_validate(
            self, workdir, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return build_milp(*args, **kwargs)

        monkeypatch.setattr("nfvlight.cli.build_milp", counted)
        assert main([
            "solve", "--scenario", str(workdir / "p0.json"), "--formulation", "milp",
            "--adapter", adapter_for(workdir), "--staged",
        ]) == 0
        assert len(json.loads(capsys.readouterr().out)["stages"]) == 4
        assert len(calls) == 2

    def test_staged_compiles_one_model(self, workdir, capsys, monkeypatch):
        # the stages' pins and objectives stay on their copy: the validated
        # model reads the same objective as an unstaged solve
        argv = ["solve", "--scenario", str(workdir / "p0.json"), "--formulation", "milp",
                "--adapter", adapter_for(workdir)]
        assert main(argv) == 0
        unstaged = json.loads(capsys.readouterr().out)
        monkeypatch.setattr(exact, "_compiled", None)  # the unstaged run left its model
        real, calls = approx._compile_milp, []

        def spy(scn, prune):
            calls.append(scn)
            return real(scn, prune)

        monkeypatch.setattr(approx, "_compile_milp", spy)
        assert main(argv + ["--staged"]) == 0
        staged = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert staged["ok"] and staged["model_objective"] == unstaged["model_objective"]

    def test_missing_adapter(self, workdir, capsys, monkeypatch):
        monkeypatch.delenv("NFVLIGHT_SOLVER", raising=False)
        assert main(["solve", "--scenario", str(workdir / "p0.json")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "no_adapter",
            "message": "pass --adapter or set NFVLIGHT_SOLVER",
        }

    def test_adapter_env_fallback(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("NFVLIGHT_SOLVER", adapter_for(workdir))
        assert main([
            "solve", "--scenario", str(workdir / "p0.json"), "--formulation", "milp",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_adapter_without_placeholders(self, workdir, capsys):
        assert main([
            "solve", "--scenario", str(workdir / "p0.json"),
            "--adapter", "echo hi",
        ]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SolutionError"
        assert "must mention {model} and {solution}" in err["message"]

    def test_adapter_writing_nothing(self, workdir, capsys):
        assert main([
            "solve", "--scenario", str(workdir / "p0.json"), "--formulation", "milp",
            "--adapter", f"{sys.executable} -c pass {{model}} {{solution}}",
        ]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SolutionError"
        assert err["message"].startswith("adapter wrote no solution file (exit 0)")

    @pytest.mark.parametrize("timeout", ["nan", "-1"])
    def test_bad_timeout(self, workdir, capsys, timeout):
        assert main([
            "solve", "--scenario", str(workdir / "p0.json"), "--adapter", adapter_for(workdir),
            "--timeout", timeout,
        ]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "ScenarioError",
            "message": f"--timeout must be a finite number >= 0, got {float(timeout)!r}",
        }

    def test_adapter_timeout(self, workdir, capsys):
        slow = "import time; time.sleep(5)"
        assert main([
            "solve", "--scenario", str(workdir / "p0.json"), "--formulation", "milp",
            "--adapter", f"{sys.executable} -c '{slow}' {{model}} {{solution}}",
            "--timeout", "0.2",
        ]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "TimeoutExpired"


class TestModelFiles:
    """Model files are streamed in batches; the bytes equal one whole encode."""

    @pytest.fixture(scope="class")
    def milp_texts(self, workdir):
        model = build_milp(load_scenario(workdir / "p0.json"))
        return {fmt: emit_model(model, fmt) for fmt in ("lp", "mps")}

    @pytest.mark.parametrize("fmt", ["lp", "mps"])
    def test_build_out_holds_the_emitted_text(self, workdir, tmp_path, milp_texts, fmt):
        out = tmp_path / f"p0.{fmt}"
        assert main([
            "build", "--scenario", str(workdir / "p0.json"), "--formulation", "milp",
            "--format", fmt, "--out", str(out),
        ]) == 0
        assert len(milp_texts[fmt]) > _WRITE_BATCH
        assert out.read_bytes() == milp_texts[fmt].encode()

    def test_solve_keep_model_holds_the_emitted_text(self, workdir, tmp_path, milp_texts, capsys):
        kept = tmp_path / "kept.mps"
        assert main([
            "solve", "--scenario", str(workdir / "p0.json"), "--formulation", "milp",
            "--format", "mps", "--adapter", adapter_for(workdir), "--keep-model", str(kept),
        ]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert kept.read_bytes() == milp_texts["mps"].encode()

    def test_batches_encode_like_write_text(self, tmp_path):
        # Scenarios cannot name a variable outside ASCII; a hand-built
        # model can, and its text spans more than one batch.
        m = Model("milp", name="é")
        names = [m.add_var(f"xé{i}", "lam", ub=1.0) for i in range(40000)]
        m.add_con("cé", "capacity", [(1.0, v) for v in names], "<=", 1.0)
        text = emit_model(m, "lp")
        assert len(text) > _WRITE_BATCH
        write_model(m, tmp_path / "streamed.lp", "lp")
        (tmp_path / "whole.lp").write_text(text)
        assert (tmp_path / "streamed.lp").read_bytes() == (tmp_path / "whole.lp").read_bytes()

    def test_a_rejected_model_leaves_no_file(self, workdir, tmp_path, capsys):
        out = tmp_path / "p0.mps"
        assert main([
            "build", "--scenario", str(workdir / "p0.json"), "--formulation", "miqcp",
            "--format", "mps", "--out", str(out),
        ]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ModelError", "message": "quadratic constraints unsupported in MPS emission",
        }
        assert not out.exists()


class TestValidate:
    def test_report_on_stdout_and_file(self, workdir, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        assert main([
            "validate", "--scenario", str(workdir / "p0.json"), "--formulation", "milp",
            "--solution", str(workdir / "p0.sol"), "--report-out", str(rep),
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["max_exact_lateness"] == pytest.approx(2.2546099290780144)
        assert json.loads(rep.read_text()) == doc

    def test_parse_warnings_reach_the_report(self, workdir, tmp_path, capsys):
        # the oracle's file lists only nonzero values; the rest default to 0
        argv = ["validate", "--scenario", str(workdir / "p0.json"), "--formulation", "milp"]
        assert main([*argv, "--solution", str(workdir / "p0.sol")]) == 0
        sparse = json.loads(capsys.readouterr().out)
        assert sparse["ok"] is True
        assert sparse["warnings"] == ["20909 variables missing from solution, defaulted to 0"]

        model = build_milp(load_scenario(workdir / "p0.json"))
        listed = dict(
            line.split() for line in (workdir / "p0.sol").read_text().splitlines()
            if not line.startswith("#")
        )
        dense = tmp_path / "dense.sol"
        dense.write_text("".join(f"{name} {listed.get(name, '0')}\n" for name in model.variables))
        assert main([*argv, "--solution", str(dense)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["warnings"] == []
        assert doc == sparse | {"warnings": []}

    def test_corrupt_solution_file(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.sol"
        bad.write_text("x3_r0 abc\n")
        assert main([
            "validate", "--scenario", str(workdir / "p0.json"), "--formulation", "milp",
            "--solution", str(bad),
        ]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SolutionError"

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_binary_is_a_solution_error(self, workdir, tmp_path, capsys, raw):
        bad = tmp_path / "bad.sol"
        bad.write_text(f"x2_r0 {raw}\n")
        assert main([
            "validate", "--scenario", str(workdir / "p0.json"), "--formulation", "milp",
            "--solution", str(bad),
        ]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SolutionError"
        assert "non-finite" in err["message"]

    def test_non_finite_objective_is_a_solution_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.sol"
        bad.write_text("# Objective value = nan\n" + (workdir / "p0.sol").read_text())
        assert main([
            "validate", "--scenario", str(workdir / "p0.json"), "--formulation", "milp",
            "--solution", str(bad),
        ]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "SolutionError"
        assert "non-finite objective" in err["message"]


class TestOracle:
    def test_joint_summary_with_validation(self, workdir, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        assert main([
            "oracle", "--scenario", str(workdir / "p0.json"),
            "--certificate-out", str(cert),
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "joint"
        assert doc["embedded"] == [True]
        assert doc["lateness"] == 2.2546099290780144
        assert doc["certificate"]["certified"] is True
        assert doc["validation"]["ok"] is True
        assert doc["validation"]["violations"] == 0
        assert json.loads(cert.read_text()) == doc

    def test_sequential_mode(self, tmp_path, capsys):
        scn = tmp_path / "m.json"
        assert main(["gen", "--motivation", "--out", str(scn)]) == 0
        assert main(["oracle", "--scenario", str(scn), "--mode", "sequential"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lateness"] == 3.824293481613159
        assert doc["certificate"]["pipeline"] == (
            "placements frozen from the fixed-topology stage"
        )

    def test_exhausted_leaf_budget(self, workdir, capsys):
        assert main([
            "oracle", "--scenario", str(workdir / "p0.json"), "--max-leaves", "0",
        ]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "OracleScaleError",
            "message": "no feasible candidate was evaluated",
        }


    @pytest.mark.parametrize("argv,message", [
        (["--max-seconds", "nan"], "--max-seconds must be a finite number >= 0, got nan"),
        (["--max-seconds", "-1"], "--max-seconds must be a finite number >= 0, got -1.0"),
        (["--max-seconds", "inf"], "--max-seconds must be a finite number >= 0, got inf"),
        (["--max-leaves", "-1"], "--max-leaves must be a finite number >= 0, got -1"),
    ])
    def test_bad_limit(self, workdir, capsys, argv, message):
        assert main(["oracle", "--scenario", str(workdir / "p0.json"), *argv]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ScenarioError", "message": message}


class TestScenarioWarnings:
    """A scenario's warnings go to stderr as one JSON line, and only when there are any."""

    @pytest.fixture(scope="class")
    def partial(self, workdir):
        # perm0 with one of its three destination shares
        data = scenario_to_dict(load_scenario(workdir / "p0.json"))
        del data["requests"][0]["dest_restrictions"][1:]
        path = workdir / "partial.json"
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize("argv", [
        ["build", "--formulation", "milp"],
        ["solve", "--formulation", "milp"],
        ["validate", "--formulation", "milp", "--solution", "p0.sol"],
        ["oracle", "--formulation", "milp"],
    ], ids=lambda argv: argv[0])
    def test_partial_shares_warn_on_stderr(self, workdir, partial, capsys, argv):
        argv = [str(workdir / a) if a == "p0.sol" else a for a in argv]
        if argv[0] == "solve":
            argv += ["--adapter", adapter_for(workdir)]
        assert main(argv + ["--scenario", str(workdir / "p0.json")]) == 0
        full = capsys.readouterr()
        assert full.err == ""
        # the oracle refuses unpinned shares, after the warning
        refused = argv[0] == "oracle"
        assert main(argv + ["--scenario", str(partial)]) == int(refused)
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 + refused
        assert json.loads(lines[0]) == {
            "warnings": ["dest proportions for node d sum to 0.333333, not 1"],
        }
        if refused:
            assert json.loads(lines[1])["error"] == "OracleScaleError"
            assert captured.out == ""
        else:
            assert json.loads(captured.out).keys() == json.loads(full.out).keys()


class TestExperiment:
    def test_oracle_fallback_rows(self, results_csv, capsys, monkeypatch):
        monkeypatch.delenv("NFVLIGHT_SOLVER", raising=False)
        out = results_csv.parent / "again.csv"
        assert main([
            "experiment", "--permutations", "0,1", "--workers", "1", "--out", str(out),
        ]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "rows": 4, "solved": 4, "out": str(out),
        }
        rows = list(csv.DictReader(out.open()))
        assert [(r["perm"], r["mode"]) for r in rows] == [
            ("0", "fixed"), ("0", "joint"), ("1", "fixed"), ("1", "joint"),
        ]
        assert all(r["formulation"] == "oracle" for r in rows)
        assert all(r["status"] == "oracle_optimal" for r in rows)
        by_mode = {r["mode"]: float(r["lateness"]) for r in rows if r["perm"] == "0"}
        assert by_mode["joint"] == 2.2546099290780144
        assert by_mode["fixed"] == 4.3546099290780145
        leaves = {r["mode"]: r["leaves"] for r in rows if r["perm"] == "0"}
        assert leaves == {"joint": "5", "fixed": "3"}

    def test_adapter_rows_leave_the_leaves_column_blank(self, workdir, tmp_path, capsys):
        out = tmp_path / "adapter.csv"
        assert main([
            "experiment", "--permutations", "0", "--modes", "joint", "--formulations", "milp",
            "--adapter", adapter_for(workdir), "--workers", "1", "--out", str(out),
        ]) == 0
        assert json.loads(capsys.readouterr().out)["solved"] == 1
        [row] = csv.DictReader(out.open())
        assert list(row)[-2:] == ["wall_s", "leaves"]
        assert (row["status"], row["leaves"]) == ("feasible", "")

    def test_adapter_sweep_compiles_each_formulation_once(self, tmp_path, capsys, monkeypatch):
        # cells run one formulation at a time, and permutations 0 and 1 share
        # their capacities, so each formulation's first cell compiles for all
        monkeypatch.setattr(exact, "_compiled", None)
        monkeypatch.setattr("nfvlight.cli._run_adapter", lambda *args: Assignment({}))
        calls = []
        for module, kind in ((exact, "miqcp"), (approx, "milp")):
            real = getattr(module, f"_compile_{kind}")

            def spy(scn, prune, real=real, kind=kind):
                calls.append((kind, scn.name))
                return real(scn, prune)

            monkeypatch.setattr(module, f"_compile_{kind}", spy)
        out = tmp_path / "sweep.csv"
        assert main([
            "experiment", "--permutations", "0,1", "--modes", "joint",
            "--adapter", "unused {model} {solution}", "--workers", "1", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert calls == [("miqcp", "path6-perm000"), ("milp", "path6-perm000")]
        rows = list(csv.DictReader(out.open()))
        assert [(r["perm"], r["formulation"]) for r in rows] == [
            ("0", "milp"), ("0", "miqcp"), ("1", "milp"), ("1", "miqcp"),
        ]

    def test_aborted_oracle_search_is_not_counted_as_solved(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("NFVLIGHT_SOLVER", raising=False)
        out = tmp_path / "aborted.csv"
        assert main([
            "experiment", "--topology", "barbell6", "--permutations", "0",
            "--modes", "joint", "--max-seconds", "0", "--workers", "1", "--out", str(out),
        ]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "rows": 1, "solved": 0, "out": str(out),
        }
        [row] = csv.DictReader(out.open())
        assert row["status"] == "oracle_uncertified"

    def test_worker_processes_write_the_rows_of_one_process(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("NFVLIGHT_SOLVER", raising=False)
        pools = []

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        tables = {}
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}.csv"
            assert main([
                "experiment", "--topology", "barbell6", "--permutations", "0-3",
                "--workers", workers, "--out", str(out),
            ]) == 0
            rows = list(csv.DictReader(out.open()))
            for row in rows:
                del row["wall_s"]
            tables[workers] = rows
        capsys.readouterr()
        # only the two-worker run went through the pool
        assert len(pools) == 1
        assert len(tables["1"]) == 8 and tables["2"] == tables["1"]

    def test_bad_permutation_spec(self, tmp_path, capsys):
        assert main([
            "experiment", "--permutations", "500", "--workers", "1",
            "--out", str(tmp_path / "x.csv"),
        ]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError"
        assert "permutation index out of range: 500" in err["message"]

    @pytest.mark.parametrize("spec,message", [
        ("x", "bad permutation spec 'x'"),
        ("3-", "bad permutation spec '3-'"),
        ("-1", "bad permutation spec '-1'"),
        ("0,1-2-3", "bad permutation spec '1-2-3'"),
        ("5-2", "reversed permutation range '5-2'"),
        (",", "no permutation in ','"),
    ])
    def test_malformed_permutation_spec(self, tmp_path, capsys, spec, message):
        out = tmp_path / "x.csv"
        assert main([
            "experiment", "--permutations", spec, "--workers", "1", "--out", str(out),
        ]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ScenarioError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["--modes", "joint,bogus"], "unknown mode 'bogus'; choose from joint, fixed"),
        (["--modes", " , "], "no mode given"),
        (["--formulations", "milp,lp"], "unknown formulation 'lp'; choose from miqcp, milp"),
        (["--formulations", ""], "no formulation given"),
        (["--max-seconds", "nan"], "--max-seconds must be a finite number >= 0, got nan"),
        (["--max-seconds", "-1"], "--max-seconds must be a finite number >= 0, got -1.0"),
        (["--workers", "0"], "--workers must be at least 1, got 0"),
        (["--workers", "-2"], "--workers must be at least 1, got -2"),
    ])
    def test_bad_option_is_rejected_before_any_cell(self, workdir, tmp_path, capsys,
                                                    monkeypatch, argv, message):
        def no_cell(payload):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("nfvlight.cli._experiment_cell", no_cell)
        out = tmp_path / "x.csv"
        assert main([
            "experiment", "--permutations", "0", "--adapter", adapter_for(workdir),
            "--workers", "1", "--out", str(out), *argv,
        ]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ScenarioError", "message": message}
        assert not out.exists()


class TestPlotdata:
    def test_lateness_gain_series(self, results_csv, capsys):
        assert main([
            "plotdata", "--results", str(results_csv), "--series", "lateness-gain",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# rank gain topology perm"
        rows = [line.split() for line in lines[1:]]
        assert [r[0] for r in rows] == ["0", "1"]
        gains = {r[3]: float(r[1]) for r in rows}
        assert gains["0"] == 4.3546099290780145 / 2.2546099290780144
        assert rows[0][1] <= rows[1][1]

    def test_time_cdf_series(self, results_csv, tmp_path, capsys):
        out = tmp_path / "cdf.dat"
        assert main([
            "plotdata", "--results", str(results_csv), "--series", "time-cdf",
            "--out", str(out),
        ]) == 0
        assert capsys.readouterr().out == ""
        lines = out.read_text().splitlines()
        assert lines[0] == "# wall_s cumulative_fraction"
        assert len(lines) == 5
        assert float(lines[-1].split()[1]) == 1.0

    def test_approx_error_cdf_with_no_errors(self, results_csv, capsys):
        # oracle fallback rows leave approx_error blank, so only the
        # header comes out
        assert main([
            "plotdata", "--results", str(results_csv), "--series", "approx-error-cdf",
        ]) == 0
        assert capsys.readouterr().out == "# approx_error cumulative_fraction\n"

    @pytest.mark.parametrize("series,column,cell", [
        ("lateness-gain", "lateness", "abc"),
        ("lateness-gain", "exact_lateness", "1.5x"),
        ("time-cdf", "wall_s", "x"),
        ("approx-error-cdf", "approx_error", "-"),
    ])
    def test_non_numeric_cell(self, tmp_path, capsys, series, column, cell):
        row = {"topology": "path6", "perm": "0", "mode": "joint", "lateness": "1.0",
               "exact_lateness": "", "wall_s": "0.1", "approx_error": "", column: cell}
        results = tmp_path / "r.csv"
        with results.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(row))
            writer.writeheader()
            writer.writerow(row)
        assert main(["plotdata", "--results", str(results), "--series", series]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ScenarioError",
            "message": f"column {column!r} holds {cell!r}, not a number",
        }

    @pytest.mark.parametrize("column", ["topology", "perm", "mode"])
    def test_lateness_gain_needs_its_key_columns(self, tmp_path, capsys, column):
        fields = [f for f in ("topology", "perm", "mode", "lateness") if f != column]
        results = tmp_path / "r.csv"
        results.write_text(",".join(fields) + "\n" + ",".join("1" for _ in fields) + "\n")
        assert main([
            "plotdata", "--results", str(results), "--series", "lateness-gain",
        ]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ScenarioError", "message": f"results lack the {column!r} column",
        }

    @pytest.mark.parametrize("series,column,cell", [
        ("lateness-gain", "lateness", "nan"),
        ("lateness-gain", "exact_lateness", "inf"),
        ("time-cdf", "wall_s", "-inf"),
        ("approx-error-cdf", "approx_error", "NaN"),
    ])
    def test_non_finite_cell(self, tmp_path, capsys, series, column, cell):
        row = {"topology": "path6", "perm": "0", "mode": "joint", "lateness": "1.0",
               "exact_lateness": "", "wall_s": "0.1", "approx_error": "", column: cell}
        results = tmp_path / "r.csv"
        with results.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(row))
            writer.writeheader()
            writer.writerow(row)
        assert main(["plotdata", "--results", str(results), "--series", series]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ScenarioError",
            "message": f"column {column!r} holds {cell!r}, not a finite number",
        }

    def test_nan_lateness_gives_no_gain(self, tmp_path, capsys):
        results = tmp_path / "r.csv"
        results.write_text(
            "topology,perm,mode,lateness\npath6,0,joint,nan\npath6,0,fixed,1.0\n"
        )
        assert main([
            "plotdata", "--results", str(results), "--series", "lateness-gain",
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["message"] == (
            "column 'lateness' holds 'nan', not a finite number"
        )

    @pytest.mark.parametrize("series,fields,missing", [
        ("time-cdf", ("topology", "perm", "mode", "lateness"), "'wall_s'"),
        ("approx-error-cdf", ("topology", "wall_s"), "'approx_error'"),
        ("lateness-gain", ("topology", "perm", "mode", "wall_s"),
         "'lateness' or 'exact_lateness'"),
    ])
    def test_series_needs_its_value_column(self, tmp_path, capsys, series, fields, missing):
        results = tmp_path / "r.csv"
        results.write_text(",".join(fields) + "\n" + ",".join("1" for _ in fields) + "\n")
        assert main(["plotdata", "--results", str(results), "--series", series]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ScenarioError", "message": f"results lack the {missing} column",
        }

    @pytest.mark.parametrize("column", ["lateness", "exact_lateness"])
    def test_lateness_gain_reads_either_lateness_column(self, tmp_path, capsys, column):
        results = tmp_path / "r.csv"
        results.write_text(
            f"topology,perm,mode,{column}\npath6,0,joint,2.0\npath6,0,fixed,3.0\n"
        )
        assert main([
            "plotdata", "--results", str(results), "--series", "lateness-gain",
        ]) == 0
        assert capsys.readouterr().out == "# rank gain topology perm\n0 1.5 path6 0\n"
