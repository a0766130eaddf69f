import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cpslearn import fit_linear, load_model, remote, write_csv
from cpslearn.cli import build_parser, main
from cpslearn.config import validate_config, watertank_config
from conftest import StubServer, skip_unless_dynamic_arch_openblas, sweep_config


@pytest.fixture
def tank_config(tmp_path):
    path = tmp_path / "tank.json"
    path.write_text(json.dumps(watertank_config()))
    return path


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def unhashable_config(tmp_path, field, key):
    """The benchmark config with a list where a column or metric name belongs."""
    cfg = watertank_config()
    if key is None:
        cfg[field] = [["mae"]]
    else:
        cfg[field][key] = [["a"]]
    path = tmp_path / "unhashable.json"
    path.write_text(json.dumps(cfg))
    return path


class TestWatertankCommand:
    def test_default_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["watertank", "--out", str(out)]) == 0
        report = read_report(out)
        assert report["schema_version"] == 1
        assert set(report["metrics"]) == {"mae", "mse"}
        assert report["rows"] == 50
        assert report["model"].startswith("regression_tree-")
        model = load_model(out / "model.fcm.json")
        assert model.input_columns == ("V_0", "x_0", "V_1", "x_1", "V_2")
        assert model.output_column == "x_2"

    def test_matches_equivalent_explicit_config(self, tmp_path, tank_config):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["watertank", "--out", str(out_a)]) == 0
        assert main(["run", str(tank_config), "--out", str(out_b)]) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "model.fcm.json").read_bytes() == (out_b / "model.fcm.json").read_bytes()

    def test_learner_choices(self, tmp_path):
        for learner in ("linear", "incremental_linear"):
            out = tmp_path / learner
            assert main(["watertank", "--learner", learner, "--out", str(out)]) == 0
            assert read_report(out)["model"].startswith("linear-")


class TestRunCommand:
    def test_one_entry_learner_swap(self, tmp_path):
        base = watertank_config()
        swapped = {**base, "learner": {"kind": "incremental_linear"}}
        assert set(base) == set(swapped)
        assert sum(base[k] != swapped[k] for k in base) == 1  # exactly one entry differs

        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        path_a.write_text(json.dumps(base))
        path_b.write_text(json.dumps(swapped))
        out_a, out_b = tmp_path / "out_a", tmp_path / "out_b"
        assert main(["run", str(path_a), "--out", str(out_a)]) == 0
        assert main(["run", str(path_b), "--out", str(out_b)]) == 0
        report_a, report_b = read_report(out_a), read_report(out_b)
        assert report_a["metrics"] != report_b["metrics"]

    def test_unknown_transform_kind(self, tmp_path, capsys):
        cfg = watertank_config()
        cfg["transforms"] = [{"kind": "wavelet"}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["error"] == "ConfigError"
        assert record["error"]["field"] == "transforms[0].kind"

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("io.inputs", lambda cfg: cfg["io"].update(inputs=["V_0", "x_0", "V_0"])),
            ("transforms[1].names", lambda cfg: cfg["transforms"].append(
                {"kind": "select", "names": ["V_0", "x_2", "V_0"]})),
            ("metrics", lambda cfg: cfg.update(metrics=["mae", "mae"])),
        ],
    )
    def test_repeated_names_are_a_config_error(self, tmp_path, capsys, field, edit):
        cfg = watertank_config()
        edit(cfg)
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])["error"]
        assert (record["error"], record["field"]) == ("ConfigError", field)
        assert record["message"].startswith(f"{field}: repeated names: ")
        assert not (tmp_path / "out").exists()

    def test_output_dir_from_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = {**watertank_config(), "output_dir": "from_config"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 0
        assert (tmp_path / "from_config" / "report.json").exists()

    def test_csv_environment(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("u,y\n" + "".join(f"{i},{2 * i + 1}\n" for i in range(40)))
        cfg = {
            "environment": {"kind": "csv", "path": str(data)},
            "io": {"inputs": ["u"], "outputs": ["y"]},
            "split_fraction": 0.8,
            "learner": {"kind": "linear"},
            "metrics": ["mae", "max_error"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        report = read_report(out)
        assert report["metrics"]["mae"] < 1e-8

    def test_json_environment_of_integers(self, tmp_path):
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"u": list(range(40)), "y": [2 * i + 1 for i in range(40)]}))
        cfg = {
            "environment": {"kind": "json", "path": str(data)},
            "io": {"inputs": ["u"], "outputs": ["y"]},
            "split_fraction": 0.8,
            "learner": {"kind": "linear"},
            "metrics": ["mae"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        report = read_report(out)
        assert report["rows"] == 8  # the held-out fifth of 40 rows
        assert report["metrics"]["mae"] < 1e-8

    def test_explode_and_standardize_transforms(self, tmp_path):
        records = [
            {"gain": float(i % 4), "trace": [float(i), float(i) + 0.5]} for i in range(30)
        ]
        data = tmp_path / "traces.json"
        data.write_text(json.dumps(records))
        cfg = {
            "environment": {"kind": "json", "path": str(data)},
            "transforms": [
                {"kind": "explode", "names": ["trace"]},
                {"kind": "standardize", "names": ["gain"]},
            ],
            "io": {"inputs": ["gain"], "outputs": ["trace"]},
            "split_fraction": 0.5,
            "learner": {"kind": "linear"},
            "metrics": ["mae", "r2"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert read_report(out)["rows"] == 30  # 60 exploded rows, split in half

    @pytest.mark.parametrize("scenario", ["watertank", "sweep"])
    def test_remote_learner_config(self, tmp_path, tank_trajectory, scenario):
        """The server names each model by its content id, so a remote run writes the bytes of a
        linear run: its report names the model it saves."""
        if scenario == "watertank":
            cfg = watertank_config("linear")
        else:
            write_csv(tank_trajectory, tmp_path / "tank.csv")
            cfg = sweep_config(tmp_path / "tank.csv", {"kind": "linear"})
        with remote.LearnerServer() as server:
            host, port = server.address
            for name, learner in [("linear", cfg["learner"]),
                                  ("remote", {"kind": "remote", "address": f"{host}:{port}", "timeout": 10})]:
                path = tmp_path / f"{name}.json"
                path.write_text(json.dumps({**cfg, "learner": learner}))
                assert main(["run", str(path), "--out", str(tmp_path / name)]) == 0
        for file in ("report.json", "model.fcm.json"):
            assert (tmp_path / "remote" / file).read_bytes() == (tmp_path / "linear" / file).read_bytes()
        assert read_report(tmp_path / "remote")["model"] == load_model(tmp_path / "remote" / "model.fcm.json").model_id


class TestValidateCommand:
    def test_valid_config(self, tank_config, capsys):
        assert main(["validate", str(tank_config)]) == 0
        assert json.loads(capsys.readouterr().out) == {"diagnostics": []}

    def test_invalid_config(self, tmp_path, capsys):
        cfg = watertank_config()
        cfg["metrics"] = ["mae", "nope"]
        del cfg["io"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", str(path)]) == 1
        diags = json.loads(capsys.readouterr().out)["diagnostics"]
        assert any("io" in d for d in diags)
        assert any("nope" in d for d in diags)

    @pytest.mark.parametrize("field, key", [("io", "inputs"), ("metrics", None)])
    def test_unhashable_names_give_diagnostics(self, tmp_path, capsys, field, key):
        path = unhashable_config(tmp_path, field, key)
        assert main(["validate", str(path)]) == 1
        diags = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diags and all(d.startswith(field) for d in diags)

    @pytest.mark.parametrize("field, key", [("io", "inputs"), ("metrics", None)])
    def test_run_reports_unhashable_names_as_config_error(self, tmp_path, capsys, field, key):
        path = unhashable_config(tmp_path, field, key)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["error"] == "ConfigError"

    def test_validation_collects_many(self):
        diags = validate_config({"environment": {"kind": "teapot"}, "split_fraction": 2})
        fields = " ".join(diags)
        assert "environment.kind" in fields
        assert "split_fraction" in fields
        assert "learner" in fields


class TestReproducibility:
    def test_incremental_model_is_the_same_under_every_blas_kernel(self, tmp_path):
        """``OPENBLAS_CORETYPE`` picks the kernel of a DYNAMIC_ARCH OpenBLAS in the child."""
        skip_unless_dynamic_arch_openblas()
        models = set()
        for coretype in ("SkylakeX", "Haswell", "Sandybridge", "Prescott"):
            out = tmp_path / coretype
            result = subprocess.run(
                [sys.executable, "-m", "cpslearn.cli", "watertank", "--learner", "incremental_linear",
                 "--out", str(out)],
                env={**os.environ, "OPENBLAS_CORETYPE": coretype, "OPENBLAS_NUM_THREADS": "1"},
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            models.add((out / "model.fcm.json").read_bytes())
        assert len(models) == 1


class TestServeLearnerCommand:
    def test_serve_and_shutdown(self):
        process = subprocess.Popen(
            [sys.executable, "-m", "cpslearn.cli", "serve-learner", "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = process.stdout.readline()
            address = line.strip().rsplit(" ", 1)[-1]
            with remote.connect(address, timeout=5.0) as session:
                from cpslearn import Dataset

                model = session.fit(Dataset({"x": [0.0, 1.0]}), Dataset({"y": [1.0, 3.0]}))
                assert model.predict(Dataset({"x": [2.0]})).column("y")[0] == pytest.approx(5.0)
                session.shutdown_server()
            assert process.wait(timeout=10.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()

    @pytest.mark.parametrize("port, shown", [("70000", "70000"), ("-1", "'-1'")])
    def test_port_out_of_range_is_one_record(self, port, shown):
        result = subprocess.run(
            [sys.executable, "-m", "cpslearn.cli", "serve-learner", "--listen", f"127.0.0.1:{port}"],
            capture_output=True, text=True, timeout=60,
        )
        assert (result.returncode, result.stdout) == (1, "")
        (line,) = result.stderr.splitlines()
        assert json.loads(line)["error"] == {
            "error": "ValueError",
            "module": "builtins",
            "message": f"port must be an integer from 0 to 65535, got {shown}",
        }


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run"], "cpslearn run: the following arguments are required: config"),
            (["watertank", "--learner", "foo"], "cpslearn watertank: argument --learner: invalid choice: 'foo'"),
            ([], "cpslearn: the following arguments are required: command"),
        ],
        ids=["missing_positional", "bad_choice", "no_subcommand"],
    )
    def test_is_one_record(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        record = json.loads(line)["error"]
        assert (record["error"], record["module"]) == ("UsageError", "cpslearn.cli")
        assert record["message"].startswith(message)

    def test_unknown_flag_is_one_record_and_exit_1(self, tank_config):
        result = subprocess.run(
            [sys.executable, "-m", "cpslearn.cli", "run", str(tank_config), "--seed", "3"],
            capture_output=True, text=True, timeout=60,
        )
        assert (result.returncode, result.stdout) == (1, "")
        (line,) = result.stderr.splitlines()
        assert json.loads(line)["error"] == {
            "error": "UsageError",
            "module": "cpslearn.cli",
            "message": "cpslearn: unrecognized arguments: --seed 3",
        }

    def test_help_prints_usage_and_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["watertank", "--help"])
        assert exited.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: cpslearn watertank")
        assert captured.err == ""


def readme_synopsis() -> dict[str, str]:
    """The ``cpslearn <command> ...`` lines of the sh block under README's ``## CLI``, by command."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return {line.split()[1]: line for line in block.splitlines() if line.startswith("cpslearn ")}


def test_readme_synopsis_matches_the_parser():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    synopsis = readme_synopsis()
    assert sorted(synopsis) == sorted(subparsers.choices)
    for command, line in synopsis.items():
        options = [a for a in subparsers.choices[command]._actions if a.option_strings and a.dest != "help"]
        assert set(re.findall(r"--[\w-]+", line)) == {flag for a in options for flag in a.option_strings}, line
        for action in options:
            if action.choices is not None:
                shown = re.search(re.escape(action.option_strings[0]) + r" ([\w|]+)", line)
                assert shown and shown[1].split("|") == list(action.choices), line


class TestErrorRecords:
    def test_missing_config_file(self, capsys):
        assert main(["run", "/nonexistent/config.json"]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["error"] == "FileNotFoundError"

    def test_pipeline_error_carries_module(self, tmp_path, capsys):
        cfg = watertank_config()
        cfg["io"]["inputs"] = ["V_0", "not_a_column"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["error"] == "UnknownColumn"
        assert record["error"]["module"] == "cpslearn.dataset"

    def test_tree_past_the_recursion_limit_is_one_record(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("u,y\n" + "".join(f"{i},{1.2 ** (i - 1499)!r}\n" for i in range(1500)))
        cfg = {
            "environment": {"kind": "csv", "path": str(data)},
            "io": {"inputs": ["u"], "outputs": ["y"]},
            "split_fraction": 0.9,
            "learner": {"kind": "regression_tree", "max_depth": 10_000},
            "metrics": ["mae"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])["error"]
        assert (record["error"], record["module"]) == ("TreeTooDeep", "cpslearn.learners")
        assert "max_depth=10000" in record["message"]

    def test_singular_incremental_design_is_one_record(self, tmp_path, capsys):
        """A constant input is collinear with the intercept, and a tiny forgetting factor
        forgets the prior that would otherwise make the Gram matrix definite."""
        data = tmp_path / "data.csv"
        data.write_text("u,y\n" + "".join(f"2,{i}\n" for i in range(40)))
        cfg = {
            "environment": {"kind": "csv", "path": str(data)},
            "io": {"inputs": ["u"], "outputs": ["y"]},
            "split_fraction": 0.8,
            "learner": {"kind": "incremental_linear", "forgetting_factor": 1e-200},
            "metrics": ["mae"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        record = self.one_record(capsys)
        assert (record["error"], record["module"]) == ("SingularDesign", "cpslearn.learners")
        assert "pivot 1 is 0.0" in record["message"]

    def test_overflowing_linear_fit_is_one_record(self, tmp_path, capsys):
        """Finite targets whose least-squares slope is past the largest double: the fit is
        refused, before any prediction holds an infinity."""
        data = tmp_path / "data.csv"
        data.write_text("a,y\n" + "0,-1.7e308\n0.25,-1e308\n0.5,0\n0.75,1e308\n1,1.7e308\n" * 2)
        cfg = {
            "environment": {"kind": "csv", "path": str(data)},
            "io": {"inputs": ["a"], "outputs": ["y"]},
            "split_fraction": 0.5,
            "learner": {"kind": "linear"},
            "metrics": ["mae"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        record = self.one_record(capsys)
        assert (record["error"], record["module"]) == ("SingularDesign", "cpslearn.learners")
        assert record["message"].endswith("coefficients are not finite: the solution overflows float64")
        assert not (tmp_path / "out").exists()

    def test_remote_timeout_above_the_ceiling_is_one_record(self, tmp_path, capsys):
        """A socket cannot hold a timeout of 1e10 s; the config check refuses it before any connect."""
        cfg = watertank_config()
        cfg["learner"] = {"kind": "remote", "address": "127.0.0.1:9", "timeout": 1e10}
        path = tmp_path / "remote.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert self.one_record(capsys) == {
            "error": "ConfigError",
            "module": "cpslearn.config",
            "field": "learner.timeout",
            "message": "learner.timeout: must be at most 1000000.0 seconds",
        }
        assert not (tmp_path / "out").exists()

    def test_overflowing_metric_is_one_record(self, tmp_path, capsys):
        """The depth-0 tree predicts the training mean 0: the held-out errors of +-1e200
        are finite, and their squares overflow float64."""
        data = tmp_path / "data.csv"
        data.write_text("u,y\n" + "".join(f"{i},{(-1) ** i * 1e200}\n" for i in range(20)))
        cfg = {
            "environment": {"kind": "csv", "path": str(data)},
            "io": {"inputs": ["u"], "outputs": ["y"]},
            "split_fraction": 0.5,
            "learner": {"kind": "regression_tree", "max_depth": 0},
            "metrics": ["mae", "mse"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        record = self.one_record(capsys)
        assert (record["error"], record["module"]) == ("NonFiniteMetric", "cpslearn.metrics")
        assert record["message"] == "mse: a squared error overflows float64"
        assert not (tmp_path / "out").exists()

    def test_overflowing_tree_targets_are_one_record(self, tmp_path, capsys):
        """Twenty 1e308 targets are finite, and their sums overflow float64: the fit refuses
        them before its split search forms an infinity."""
        data = tmp_path / "data.csv"
        data.write_text("u,y\n" + "".join(f"{i},1e308\n" for i in range(20)))
        cfg = {
            "environment": {"kind": "csv", "path": str(data)},
            "io": {"inputs": ["u"], "outputs": ["y"]},
            "split_fraction": 0.5,
            "learner": {"kind": "regression_tree"},
            "metrics": ["mae"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        record = self.one_record(capsys)
        assert (record["error"], record["module"]) == ("TargetsOverflow", "cpslearn.learners")
        assert record["message"] == "the targets in column 'y' are too large: their sums overflow float64"
        assert not (tmp_path / "out").exists()

    def test_underflowing_r2_is_one_record(self, tmp_path, capsys):
        """The depth-0 tree predicts the training mean: the held-out actuals 1e-300 and
        2e-300 differ, and their squared deviations underflow to 0."""
        data = tmp_path / "data.csv"
        data.write_text("u,y\n" + "".join(f"{i},{(1 + i % 2) * 1e-300}\n" for i in range(20)))
        cfg = {
            "environment": {"kind": "csv", "path": str(data)},
            "io": {"inputs": ["u"], "outputs": ["y"]},
            "split_fraction": 0.5,
            "learner": {"kind": "regression_tree", "max_depth": 0},
            "metrics": ["r2"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        record = self.one_record(capsys)
        assert (record["error"], record["module"]) == ("NonFiniteMetric", "cpslearn.metrics")
        assert record["message"] == "r2: the squared deviations of the actuals underflow to 0; R2 is undefined"
        assert not (tmp_path / "out").exists()

    def test_overflowing_standardize_is_one_record(self, tmp_path, capsys):
        """Ten finite values of 1e308 sum past float64, so their mean overflows."""
        data = tmp_path / "data.csv"
        data.write_text("u,y\n" + "".join(f"1e308,{i}\n" for i in range(10)))
        cfg = {
            "environment": {"kind": "csv", "path": str(data)},
            "transforms": [{"kind": "standardize", "names": ["u"]}],
            "io": {"inputs": ["u"], "outputs": ["y"]},
            "split_fraction": 0.5,
            "learner": {"kind": "linear"},
            "metrics": ["mae"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        record = self.one_record(capsys)
        assert (record["error"], record["module"]) == ("StatisticsOverflow", "cpslearn.transforms")
        assert record["message"] == "column 'u': its mean or standard deviation overflows float64"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("substep", 1e-300), ("samples", 10**12)])
    def test_too_many_rk4_steps_is_one_record(self, tmp_path, capsys, key, value):
        cfg = watertank_config()
        cfg["environment"][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        record = self.one_record(capsys)
        assert (record["error"], record["field"]) == ("ConfigError", "environment.substep")
        assert record["message"].endswith("is above the limit of 100000000 RK4 steps")
        assert not (tmp_path / "out").exists()

    def test_tiny_substep_is_one_record(self, tmp_path, capsys):
        cfg = watertank_config()
        cfg["environment"]["substep"] = 1e-320
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        record = self.one_record(capsys)
        assert (record["error"], record["field"]) == ("ConfigError", "environment.substep")
        assert "dt / substep is not finite" in record["message"]

    def test_memory_error_is_one_record(self, tmp_path, capsys, monkeypatch):
        """An oversized ``samples`` makes numpy raise a MemoryError subclass; nothing is allocated here."""

        def exhausted(cfg):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr("cpslearn.config.run_config", exhausted)
        assert main(["watertank", "--out", str(tmp_path / "out")]) == 1
        record = self.one_record(capsys)
        assert (record["error"], record["module"]) == ("MemoryError", "builtins")
        assert record["message"] == "Unable to allocate 7.28 TiB for an array"
        assert not (tmp_path / "out").exists()

    @staticmethod
    def one_record(capsys) -> dict:
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        return json.loads(lines[0])["error"]

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_deeply_nested_config_is_one_record(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main([command, str(path)]) == 1
        record = self.one_record(capsys)
        assert (record["error"], record["field"]) == ("ConfigError", "<file>")
        assert record["message"].startswith("<file>: invalid JSON: maximum recursion depth exceeded")

    @pytest.mark.parametrize(
        "document, message",
        [
            ("[" * 100_000 + "]" * 100_000, "malformed JSON in "),
            ('{"a": [' + "1" * 5_000 + '], "b": [1.0]}', "malformed JSON in "),  # past int()'s digit limit
            ('{"a": [1' + "0" * 400 + ', 2], "b": [1.0, 2.0]}', "column 'a': integer out of the float64 range"),
        ],
        ids=["deep", "many_digits", "huge_integer"],
    )
    def test_hostile_json_environment_is_one_record(self, tmp_path, capsys, document, message):
        data = tmp_path / "data.json"
        data.write_text(document)
        cfg = {
            "environment": {"kind": "json", "path": str(data)},
            "io": {"inputs": ["a"], "outputs": ["b"]},
            "split_fraction": 0.5,
            "learner": {"kind": "linear"},
            "metrics": ["mae"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        record = self.one_record(capsys)
        assert (record["error"], record["module"]) == ("ParseError", "cpslearn.dataset")
        assert message in record["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, text", [("data.csv", "a,b,a\n1,2,3\n4,5,6\n"),
                                            ("data.json", '{"a": [1, 4], "b": [2, 5], "a": [3, 6]}')])
    def test_repeated_column_name_is_one_record(self, tmp_path, capsys, name, text):
        data = tmp_path / name
        data.write_text(text)
        cfg = {
            "environment": {"kind": data.suffix[1:], "path": str(data)},
            "io": {"inputs": ["a"], "outputs": ["b"]},
            "split_fraction": 0.5,
            "learner": {"kind": "linear"},
            "metrics": ["mae"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert self.one_record(capsys) == {
            "error": "ParseError", "module": "cpslearn.dataset", "message": "repeated column name 'a'",
        }
        assert not (tmp_path / "out").exists()

    def test_malformed_remote_model_is_one_record(self, tmp_path, capsys, monkeypatch):
        def weightless_linear(inputs, outputs):
            """Fits the reference model, but saves a document without weights."""
            model = fit_linear(inputs, outputs)
            doc = model.to_dict()
            del doc["params"]["weights"]
            model.to_dict = lambda: doc
            return model

        monkeypatch.setattr("cpslearn.remote.fit_linear", weightless_linear)
        with remote.LearnerServer() as server:
            host, port = server.address
            cfg = watertank_config()
            cfg["learner"] = {"kind": "remote", "address": f"{host}:{port}", "timeout": 10}
            path = tmp_path / "remote.json"
            path.write_text(json.dumps(cfg))
            assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == {
            "error": "ValueError",
            "module": "builtins",
            "message": "malformed model document: params.weights is missing",
        }
        assert not (tmp_path / "out").exists()

    def test_malformed_fit_ack_is_one_record(self, tmp_path, capsys):
        def script(conn, reader):
            reader.readline()
            conn.sendall(b'{"kind":"hello_ack","version":3,"max_frame":100000}\n')
            reader.readline()
            conn.sendall(b'{"kind":"fit_ack"}\n')
            reader.readline()  # EOF once the client closes

        stub = StubServer(script)
        host, port = stub.address
        cfg = watertank_config()
        cfg["learner"] = {"kind": "remote", "address": f"{host}:{port}", "timeout": 10}
        path = tmp_path / "remote.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == {
            "error": "RemoteError",
            "module": "cpslearn.remote",
            "message": "malformed response: fit_ack 'model' must be a string, got None",
        }
        assert not (tmp_path / "out").exists()
