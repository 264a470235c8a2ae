"""End-to-end command-line checks, including exit-code mapping."""

import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from gptdf import edge_sim, evaluation, fusion, gp_core
from gptdf.cli import main

from conftest import SHORT_SCALE_FEATURES


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def stream_csv(tmp_path):
    path = tmp_path / "stream.csv"
    code = main(["--seed", "3", "generate", "--sigma-f", "0.8", "--sigma-l", "2.0",
                 "--sigma-n", "0.1", "-n", "120", "--out", str(path)])
    assert code == 0
    return path


class TestFit:
    def test_happy_path_prints_feature_json(self, capsys, stream_csv):
        code, out, err = run_cli(capsys, "fit", str(stream_csv), "--column", "y",
                                 "--restarts", "2")
        assert code == 0
        feature = json.loads(out)
        assert set(feature) == {"sigma_f", "sigma_l", "sigma_n"}
        assert all(v > 0 for v in feature.values())

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "fit", str(tmp_path / "absent.csv"))
        assert code == 2
        assert "absent.csv" in err

    def test_constant_series_exits_3(self, capsys, tmp_path):
        features_path = tmp_path / "features.json"
        features_path.write_text(json.dumps(SHORT_SCALE_FEATURES))
        # values whose mean or scale overflows fail as data in both normalizers
        for command, text, message in [
                (["fit"], "5\n" * 30, "zero variance"),
                (["fit"], "1e308\n-1e308\n" * 15, "too large"),
                (["predict", "--features", str(features_path)], "1e308\n-1e308\n" * 15,
                 "too large")]:
            path = tmp_path / "series.csv"
            path.write_text(text)
            code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
            assert code == 3, (command, text)
            assert message in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_finite_likelihood_exits_4(self, capsys, tmp_path):
        # values near 1e200 overflow every evaluation within the bounds, so no
        # start has a likelihood to return; their spread overflows too
        path = tmp_path / "huge.csv"
        path.write_text("y\n" + "".join(f"{1e200 * (1.0 + 0.1 * math.sin(i))!r}\n"
                                        for i in range(50)))
        code, out, err = run_cli(capsys, "fit", str(path), "--column", "y", "--no-normalize")
        assert code == 4
        assert out == ""
        assert err.startswith("error: the likelihood is not finite") and err.count("\n") == 1

    @pytest.mark.parametrize("values", [
        [1e306 * (1.0 + 0.1 * math.sin(i)) for i in range(50)],
        [(-1.5e308, 1.5e308)[i % 2] for i in range(50)]], ids=["1e306", "1.5e308"])
    def test_values_past_1e305_exit_4_without_a_warning(self, capsys, tmp_path, values):
        # the filter's arithmetic overflows, which is the fit's failure: one
        # error line, not a RuntimeWarning and not a traceback
        path = tmp_path / "huge.csv"
        path.write_text("y\n" + "".join(f"{v!r}\n" for v in values))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "fit", str(path), "--column", "y", "--no-normalize")
        assert code == 4
        assert out == ""
        assert err.startswith("error: the likelihood is not finite") and err.count("\n") == 1

    def test_fit_config_file_controls_bounds(self, capsys, tmp_path, stream_csv):
        config_path = tmp_path / "fit.json"
        config_path.write_text(json.dumps({"sigma_n_bounds": [0.5, 10.0], "restarts": 1}))
        code, out, err = run_cli(capsys, "fit", str(stream_csv), "--column", "y",
                                 "--fit-config", str(config_path))
        assert code == 0
        assert json.loads(out)["sigma_n"] >= 0.5

    def test_bad_fit_config_exits_2(self, capsys, tmp_path, stream_csv):
        config_path = tmp_path / "fit.json"
        # the last two bounds square to 0 and to infinity in the objective
        for raw in ({"sigma_n_bounds": [5.0, 1.0]}, {"seed": -1},
                    {"sigma_f_bounds": [1e-200, 10]}, {"sigma_f_bounds": [1e-3, 1e200]}):
            config_path.write_text(json.dumps(raw))
            code, out, err = run_cli(capsys, "fit", str(stream_csv), "--column", "y",
                                     "--fit-config", str(config_path))
            assert code == 2, raw

    def test_column_past_row_width_exits_3(self, capsys, tmp_path):
        path = tmp_path / "one_column.csv"
        path.write_text("1.0\n2.0\n3.0\n")
        for column in ("-5", "5"):
            code, out, err = run_cli(capsys, "fit", str(path), "--column", column)
            assert code == 3, column
            assert err.startswith("error: unparseable values") and err.count("\n") == 1

    def test_many_bad_rows_give_one_short_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y\n" + "abc\n" * 400)
        code, out, err = run_cli(capsys, "fit", str(path), "--column", "y")
        assert code == 3
        assert err.startswith("error: unparseable values") and err.count("\n") == 1
        assert "400 rows, the first five at rows [2, 3, 4, 5, 6]" in err
        assert len(err) < 200 + len(str(path))


class TestGenerate:
    def test_csv_on_stdout(self, capsys):
        code, out, err = run_cli(capsys, "--seed", "1", "generate", "--sigma-f", "1.0",
                                 "--sigma-l", "1.0", "-n", "5")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["t", "y"]
        assert len(rows) == 6

    def test_seed_determinism(self, capsys):
        args = ("--seed", "9", "generate", "--sigma-f", "1.0", "--sigma-l", "2.0", "-n", "8")
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b

    def test_more_points_than_the_sampler_holds_exit_2(self, capsys, tmp_path):
        out = tmp_path / "stream.csv"
        code, _, err = run_cli(capsys, "generate", "--sigma-f", "1.0", "--sigma-l", "1.0",
                               "-n", str(gp_core.MAX_SAMPLE_POINTS + 1), "--out", str(out))
        assert code == 2
        assert "--length" in err
        assert not out.exists()

    # the squares of the first two overflow and underflow in the kernel
    @pytest.mark.parametrize("flag, value", [("--sigma-f", "1e200"), ("--sigma-l", "1e-320"),
                                             ("--sigma-n", "1e-200")])
    def test_scale_whose_square_is_not_normal_exits_2(self, capsys, flag, value):
        scales = {"--sigma-f": "1.0", "--sigma-l": "2.0", flag: value}
        code, out, err = run_cli(capsys, "generate", *(x for kv in scales.items() for x in kv),
                                 "-n", "5")
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out == ""

    def test_bad_parameters_exit_2(self, capsys):
        for args in (["generate", "--sigma-f", "-1.0", "--sigma-l", "1.0", "-n", "5"],
                     ["generate", "--sigma-f", "1.0", "--sigma-l", "1.0", "-n", "0"],
                     ["--seed", "-1", "generate", "--sigma-f", "1.0", "--sigma-l", "1.0",
                      "-n", "5"]):
            code, out, err = run_cli(capsys, *args)
            assert code == 2, args


class TestPredict:
    def test_prediction_log_schema(self, capsys, tmp_path, stream_csv):
        features_path = tmp_path / "features.json"
        features_path.write_text(json.dumps(SHORT_SCALE_FEATURES))
        code, out, err = run_cli(capsys, "predict", str(stream_csv),
                                 "--features", str(features_path),
                                 "--column", "y", "--tau", "20")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert len(lines) == 120
        assert list(lines[0]) == ["step", "t", "fused_mean", "fused_variance",
                                  "interval_low", "interval_high", "omega_hat"]
        assert lines[0]["step"] == 0
        assert len(lines[0]["omega_hat"]) == 4

    def test_limit_flag(self, capsys, tmp_path, stream_csv):
        features_path = tmp_path / "features.json"
        features_path.write_text(json.dumps(SHORT_SCALE_FEATURES))
        code, out, err = run_cli(capsys, "predict", str(stream_csv),
                                 "--features", str(features_path),
                                 "--column", "y", "--limit", "2")
        assert code == 0
        first = json.loads(out.strip().splitlines()[0])
        assert len(first["omega_hat"]) == 2

    def test_out_file_or_dash_holds_the_stdout_log(self, capsys, tmp_path, stream_csv):
        features_path = tmp_path / "features.json"
        features_path.write_text(json.dumps(SHORT_SCALE_FEATURES))
        args = ("predict", str(stream_csv), "--features", str(features_path), "--column", "y")
        code, log, err = run_cli(capsys, *args)
        assert code == 0 and log
        assert run_cli(capsys, *args, "--out", "-") == (0, log, "")
        assert run_cli(capsys, *args, "--out", str(tmp_path / "log.jsonl")) == (0, "", "")
        assert (tmp_path / "log.jsonl").read_text(encoding="utf-8") == log

    def test_bad_features_exit_2_before_the_csv_is_read(self, capsys, tmp_path):
        features_path = tmp_path / "features.json"
        features_path.write_text(json.dumps([{"sigma_f": 1e200, "sigma_l": 1.0, "sigma_n": 0.1}]))
        path = tmp_path / "bad.csv"
        path.write_text("y\n1.0\nabc\n2.0\n")
        code, out, err = run_cli(capsys, "predict", str(path), "--features", str(features_path),
                                 "--column", "y")
        assert code == 2
        assert "features.json" in err and "unparseable" not in err

    def test_empty_features_exit_2(self, capsys, tmp_path, stream_csv):
        features_path = tmp_path / "features.json"
        features_path.write_text("[]")
        code, out, err = run_cli(capsys, "predict", str(stream_csv),
                                 "--features", str(features_path), "--column", "y")
        assert code == 2

    # click.FloatRange lets NaN through; the alpha check must not
    @pytest.mark.parametrize("flag, value", [("--tau", "0"), ("--tau", str(10 ** 20)),
                                             ("--alpha", "1.5"), ("--alpha", "nan"),
                                             ("--limit", "0")])
    def test_out_of_range_flag_exits_2(self, capsys, tmp_path, stream_csv, flag, value):
        features_path = tmp_path / "features.json"
        features_path.write_text(json.dumps(SHORT_SCALE_FEATURES))
        code, out, err = run_cli(capsys, "predict", str(stream_csv), "--features",
                                 str(features_path), "--column", "y", flag, value)
        assert code == 2
        assert flag in err


def scenario_dict(n_nodes=2, node_n=100, target_n=40):
    return {
        "historical": [
            {"id": f"edge-{i:02d}",
             "data": {"synthetic": {"sigma_f": 0.8, "sigma_l": 2.0, "sigma_n": 0.1,
                                    "n": node_n, "seed": 10 + i}}}
            for i in range(n_nodes)
        ],
        "target": {"synthetic": {"sigma_f": 0.8, "sigma_l": 2.0, "sigma_n": 0.1,
                                 "n": target_n, "seed": 99}},
        "tau": 20,
        "seed": 0,
        "fit": {"restarts": 1},
    }


class TestSimulate:
    def test_result_directory(self, capsys, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(scenario_dict()))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", str(scenario_path),
                                 "--out-dir", str(out_dir))
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["files"] == sorted(manifest["files"])
        for name in ("registry.jsonl", "nodes.json", "predictions.jsonl",
                     "metrics.json", "summary.csv"):
            assert name in manifest["files"]
            assert (out_dir / name).exists()
        nodes = json.loads((out_dir / "nodes.json").read_text())
        assert len(nodes) == 3  # two historical reports + the target report
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["metrics"]["delay"] == 0

    def test_deterministic_directories(self, capsys, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(scenario_dict()))
        dirs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert main(["simulate", str(scenario_path), "--out-dir", str(out_dir)]) == 0
            capsys.readouterr()
            dirs.append(out_dir)
        for f in sorted(p.name for p in dirs[0].iterdir()):
            assert (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes(), f

    def test_malformed_scenario_exits_2(self, capsys, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps({"historical": []}))  # no target
        code, out, err = run_cli(capsys, "simulate", str(scenario_path),
                                 "--out-dir", str(tmp_path / "out"))
        assert code == 2

    def test_partial_failure_exits_1(self, capsys, tmp_path):
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("x\n1\noops\n")
        scenario = scenario_dict()
        scenario["historical"].append({"id": "edge-99", "data": {"csv": str(bad_csv)}})
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(scenario))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", str(scenario_path),
                                 "--out-dir", str(out_dir))
        assert code == 1
        errors = json.loads((out_dir / "errors.json").read_text())
        assert errors[0]["node"] == "edge-99"
        # partial results still produced
        assert (out_dir / "predictions.jsonl").exists()

    def test_failed_target_exits_3_and_writes_errors(self, capsys, tmp_path):
        scenario = scenario_dict()
        scenario["target"] = {"csv": str(tmp_path / "missing.csv")}
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(scenario))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", str(scenario_path),
                                 "--out-dir", str(out_dir))
        assert code == 3
        assert err.startswith("error: target: ") and err.count("\n") == 1
        errors = json.loads((out_dir / "errors.json").read_text())
        assert [e["node"] for e in errors] == ["target"]
        assert not (out_dir / "predictions.jsonl").exists()

    def test_many_node_topology(self, capsys, tmp_path):
        # 18 historical nodes + 1 target: 19 node reports, one summary row
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(scenario_dict(n_nodes=18, node_n=60,
                                                          target_n=30)))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", str(scenario_path),
                                 "--out-dir", str(out_dir))
        assert code == 0
        nodes = json.loads((out_dir / "nodes.json").read_text())
        assert len(nodes) == 19
        assert sum(1 for n in nodes if n["role"] == "historical") == 18
        summary = list(csv.reader(io.StringIO((out_dir / "summary.csv").read_text())))
        assert len(summary) == 2  # header + one row
        assert summary[1][4] == "0"  # zero delay


class TestBench:
    def bench_config(self, methods):
        return {
            "stream": {"synthetic": {"sigma_f": 0.8, "sigma_l": 2.0, "sigma_n": 0.1,
                                     "n": 80, "seed": 5}},
            "tau": 20,
            "normalization": "offline",
            "fit": {"restarts": 1},
            "methods": methods,
        }

    def test_six_method_table(self, capsys, tmp_path):
        methods = [
            {"name": "GPTDF-All", "kind": "fusion", "features": SHORT_SCALE_FEATURES},
            {"name": "GPTDF-I", "kind": "fusion", "features": SHORT_SCALE_FEATURES[:2]},
            {"name": "GPTDF-II", "kind": "fusion", "features": SHORT_SCALE_FEATURES[2:]},
            {"name": "GP-I", "kind": "baseline", "train_size": 20},
            {"name": "GP-II", "kind": "baseline", "train_size": 40},
            {"name": "GP-III", "kind": "baseline", "train_size": 60},
        ]
        config_path = tmp_path / "bench.json"
        config_path.write_text(json.dumps(self.bench_config(methods)))
        code, out, err = run_cli(capsys, "bench", str(config_path))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["method", "nll", "mae", "mse", "delay", "error"]
        assert len(rows) == 7

    def test_single_fusion_method_has_zero_delay(self, capsys, tmp_path):
        methods = [{"name": "GPTDF-All", "kind": "fusion",
                    "features": SHORT_SCALE_FEATURES}]
        config_path = tmp_path / "bench.json"
        config_path.write_text(json.dumps(self.bench_config(methods)))
        code, out, err = run_cli(capsys, "bench", str(config_path))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2
        assert rows[1][0] == "GPTDF-All"
        assert rows[1][4] == "0"

    def test_empty_methods_exit_2(self, capsys, tmp_path):
        config_path = tmp_path / "bench.json"
        config_path.write_text(json.dumps(self.bench_config([])))
        code, out, err = run_cli(capsys, "bench", str(config_path))
        assert code == 2

    def test_methods_sharing_a_series_file_exit_2_before_running(self, capsys, monkeypatch,
                                                                  tmp_path):
        methods = [{"name": name, "kind": "fusion", "features": SHORT_SCALE_FEATURES[:1]}
                   for name in ("GP/I", "GP_I")]
        config_path = tmp_path / "bench.json"
        config_path.write_text(json.dumps(self.bench_config(methods)))
        monkeypatch.setattr(evaluation, "run_benchmark", lambda *a: pytest.fail("a method ran"))
        code, out, err = run_cli(capsys, "bench", str(config_path),
                                 "--out-dir", str(tmp_path / "series"))
        assert code == 2
        assert err.count("\n") == 1
        assert "'GP/I'" in err and "'GP_I'" in err and "series_GP_I.csv" in err
        assert not (tmp_path / "series").exists()

    def test_series_output(self, capsys, tmp_path):
        methods = [{"name": "m", "kind": "fusion", "features": SHORT_SCALE_FEATURES[:1]}]
        config_path = tmp_path / "bench.json"
        config_path.write_text(json.dumps(self.bench_config(methods)))
        series_dir = tmp_path / "series"
        code, out, err = run_cli(capsys, "bench", str(config_path),
                                 "--out-dir", str(series_dir))
        assert code == 0
        files = list(series_dir.glob("series_*.csv"))
        assert len(files) == 1
        with open(files[0], encoding="utf-8") as fh:
            assert next(csv.reader(fh)) == ["step", "t", "y", "mean", "var", "lo", "hi"]


class TestOverflowingValues:
    """Un-normalized values whose squared residuals overflow every expert's
    log density: each such step is a weight collapse, and a fused prediction
    that overflows is a data error, never a traceback."""

    def run(self, capsys, tmp_path, command, value):
        path = tmp_path / "stream.csv"
        path.write_text(f"t,y\n0,{value}\n1,-{value}\n2,{value}\n3,-{value}\n")
        features = SHORT_SCALE_FEATURES[:2]
        if command == "predict":
            features_path = tmp_path / "features.json"
            features_path.write_text(json.dumps(features))
            args = ["predict", str(path), "--column", "y", "--features", str(features_path),
                    "--normalization", "none"]
        else:
            config_path = tmp_path / "bench.json"
            config_path.write_text(json.dumps({
                "stream": {"csv": str(path), "column": "y", "time_column": "t"}, "tau": 10,
                "normalization": "none",
                "methods": [{"name": "m", "kind": "fusion", "features": features}]}))
            args = ["bench", str(config_path)]
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", fusion.WeightCollapseWarning)
            return run_cli(capsys, *args)

    def test_predict_collapses_and_keeps_finite_weights(self, capsys, tmp_path):
        code, out, err = self.run(capsys, tmp_path, "predict", "1e200")
        assert code == 0
        assert "Traceback" not in err
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 4
        assert all(math.isfinite(w) for line in lines for w in line["omega_hat"])

    def test_bench_collapses_and_reports_the_method(self, capsys, tmp_path):
        code, out, err = self.run(capsys, tmp_path, "bench", "1e200")
        assert code == 0
        assert "Traceback" not in err
        rows = list(csv.reader(io.StringIO(out)))
        assert [row[0] for row in rows] == ["method", "m"]
        assert rows[1][5] == ""

    def test_predict_overflowing_fused_prediction_exits_3(self, capsys, tmp_path):
        code, out, err = self.run(capsys, tmp_path, "predict", "1e308")
        assert code == 3
        assert "Traceback" not in err
        assert err.startswith("error: fused prediction overflows") and err.count("\n") == 1

    def test_bench_overflowing_fused_prediction_fails_the_method(self, capsys, tmp_path):
        code, out, err = self.run(capsys, tmp_path, "bench", "1e308")
        assert code == 0
        assert "Traceback" not in err
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][0] == "m" and rows[1][5].startswith("fused prediction overflows")


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_invalid_json_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out, err = run_cli(capsys, "bench", str(path))
        assert code == 2

    # a directory where a file is read or written, a file where the result
    # directory goes: one error line, and simulate and bench fail before any
    # node or method runs
    @pytest.mark.parametrize("command", ["fit", "predict", "generate", "simulate", "bench"])
    def test_unusable_path_exits_2(self, capsys, monkeypatch, tmp_path, command):
        features_path = tmp_path / "features.json"
        features_path.write_text(json.dumps(SHORT_SCALE_FEATURES))
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(scenario_dict()))
        bench_path = tmp_path / "bench.json"
        bench_path.write_text(json.dumps(BENCH))
        monkeypatch.setattr(edge_sim, "run_simulation", lambda *a: pytest.fail("a node ran"))
        monkeypatch.setattr(evaluation, "run_benchmark", lambda *a: pytest.fail("a method ran"))
        args, unusable = {
            "fit": (["fit", str(tmp_path)], tmp_path),
            "predict": (["predict", str(tmp_path), "--features", str(features_path)], tmp_path),
            "generate": (["generate", "--sigma-f", "1.0", "--sigma-l", "1.0", "-n", "5",
                          "--out", str(tmp_path)], tmp_path),
            "simulate": (["simulate", str(scenario_path), "--out-dir", str(features_path)],
                         features_path),
            "bench": (["bench", str(bench_path), "--out-dir", str(features_path)],
                      features_path),
        }[command]
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(unusable) in err


BENCH = {"stream": {"synthetic": {"sigma_f": 0.8, "sigma_l": 2.0, "sigma_n": 0.1, "n": 40}},
         "methods": [{"name": "m", "kind": "fusion", "features": SHORT_SCALE_FEATURES[:1]}]}
# Settings files that fail in the JSON parser, in a value conversion or in a
# check of the parsed settings
MALFORMED_SETTINGS = {
    "bench-deep-nesting": ("bench", "[" * 100_000),
    "predict-deep-nesting": ("predict", "[" * 100_000),
    "bench-digits": ("bench", json.dumps(BENCH)[:-1] + ', "alpha": ' + "1" * 5000 + "}"),
    "bench-feature-without-sigma-l": ("bench", json.dumps(
        {**BENCH, "methods": [{"name": "m", "kind": "fusion",
                               "features": [{"sigma_f": 1.0, "sigma_n": 0.1}]}]})),
    "scenario-tau-text": ("simulate", json.dumps({**scenario_dict(), "tau": "abc"})),
    "scenario-tau-overflow": ("simulate", json.dumps(scenario_dict())[:-1] + ', "tau": 1e400}'),
    # an integer past the C ssize_t that window indices take
    "scenario-tau-past-ssize-t": ("simulate", json.dumps({**scenario_dict(), "tau": 10 ** 20})),
    "bench-tau-past-ssize-t": ("bench", json.dumps({**BENCH, "tau": 10 ** 20})),
    "bench-alpha-text": ("bench", json.dumps({**BENCH, "alpha": "x"})),
    # more points than the dense sampler holds
    "bench-stream-past-sampler": ("bench", json.dumps(
        {**BENCH, "stream": {"synthetic": {**BENCH["stream"]["synthetic"],
                                           "n": gp_core.MAX_SAMPLE_POINTS + 1}}})),
    "fit-config-list": ("fit", "[]"),
    "fit-config-restarts-overflow": ("fit", '{"restarts": 1e400}'),
    "scenario-fit-list": ("simulate", json.dumps({**scenario_dict(), "fit": []})),
    "scenario-fit-text": ("simulate", json.dumps({**scenario_dict(), "fit": ""})),
    "bench-fit-list": ("bench", json.dumps({**BENCH, "fit": []})),
    "bench-fit-text": ("bench", json.dumps({**BENCH, "fit": ""})),
    "bench-list": ("bench", "[]"),
    "scenario-negative-seed": ("simulate", json.dumps({**scenario_dict(), "seed": -1})),
    # a node with no id would be fitted and only then fail to report
    "scenario-empty-node-id": ("simulate", json.dumps(
        {**scenario_dict(), "historical": [{**scenario_dict()["historical"][0], "id": ""}]})),
    # a misspelled key would run with the default it meant to override
    "scenario-unknown-key": ("simulate", json.dumps({**scenario_dict(), "tua": 5})),
    "scenario-historical-unknown-key": ("simulate", json.dumps(
        {**scenario_dict(), "historical": [{**scenario_dict()["historical"][0], "seeed": 3}]})),
    "bench-unknown-key": ("bench", json.dumps({**BENCH, "orignal_scale": True})),
    # a setting the program no longer has is as unknown as a misspelled one
    "bench-removed-original-scale": ("bench", json.dumps({**BENCH, "original_scale": False})),
    "bench-method-unknown-key": ("bench", json.dumps(
        {**BENCH, "methods": [{**BENCH["methods"][0], "train_sise": 5}]})),
    # a key the method's kind never reads would be ignored
    "bench-baseline-with-features": ("bench", json.dumps(
        {**BENCH, "methods": [{"name": "b", "kind": "baseline", "train_size": 20,
                               "features": SHORT_SCALE_FEATURES[:1]}]})),
    "bench-fusion-without-features": ("bench", json.dumps(
        {**BENCH, "methods": [{"name": "m", "kind": "fusion", "features": []}]})),
    "bench-baseline-train-size-zero": ("bench", json.dumps(
        {**BENCH, "methods": [{"name": "b", "kind": "baseline", "train_size": 0}]})),
    "bench-fusion-with-train-size": ("bench", json.dumps(
        {**BENCH, "methods": [{**BENCH["methods"][0], "train_size": 60}]})),
    "scenario-unknown-normalization": ("simulate", json.dumps(
        {**scenario_dict(), "normalization": "onlin"})),
    "bench-unknown-normalization": ("bench", json.dumps({**BENCH, "normalization": "onlin"})),
    "scenario-subset-names-no-node": ("simulate", json.dumps(
        {**scenario_dict(), "subset": ["edge-99"]})),
    # a value of the wrong JSON type is rejected, never converted
    "scenario-tau-fraction": ("simulate", json.dumps({**scenario_dict(), "tau": 2.7})),
    "scenario-tau-boolean": ("simulate", json.dumps({**scenario_dict(), "tau": True})),
    "scenario-limit-fraction": ("simulate", json.dumps({**scenario_dict(), "limit": 2.5})),
    "scenario-target-n-fraction": ("simulate", json.dumps(
        {**scenario_dict(), "target": {"synthetic": {
            **scenario_dict()["target"]["synthetic"], "n": 30.9}}})),
    "scenario-target-misspelled-seed": ("simulate", json.dumps(
        {**scenario_dict(), "target": {"synthetic": {
            **scenario_dict()["target"]["synthetic"], "sed": 5}}})),
    "scenario-target-csv-and-synthetic": ("simulate", json.dumps(
        {**scenario_dict(), "target": {"csv": "STREAM_CSV", "column": "y",
                                       **scenario_dict()["target"]}})),
    "bench-alpha-numeric-text": ("bench", json.dumps({**BENCH, "alpha": "0.9"})),
    "bench-method-train-size-fraction": ("bench", json.dumps(
        {**BENCH, "stream": {"synthetic": {**BENCH["stream"]["synthetic"], "n": 80}},
         "methods": [{"name": "b", "kind": "baseline", "train_size": 50.9}]})),
    "fit-config-restarts-fraction": ("fit", '{"restarts": 2.9}'),
    "predict-feature-unknown-key": ("predict", json.dumps(
        [{"sigma_f": 1.0, "sigma_l": 2.0, "sigma_n": 0.1, "sigmaf": 9}])),
    "predict-feature-boolean": ("predict", json.dumps(
        [{"sigma_f": True, "sigma_l": 2.0, "sigma_n": 0.1}])),
    # scales whose squares overflow or underflow in the kernel
    "predict-feature-square-overflows": ("predict", json.dumps(
        [{"sigma_f": 1e200, "sigma_l": 2.0, "sigma_n": 0.1}])),
    "scenario-target-square-overflows": ("simulate", json.dumps(
        {**scenario_dict(), "target": {"synthetic": {
            **scenario_dict()["target"]["synthetic"], "sigma_f": 1e200}}})),
    "bench-stream-square-underflows": ("bench", json.dumps(
        {**BENCH, "stream": {"synthetic": {**BENCH["stream"]["synthetic"],
                                           "sigma_l": 1e-320}}})),
}


@pytest.mark.parametrize("command, text", MALFORMED_SETTINGS.values(),
                         ids=MALFORMED_SETTINGS.keys())
def test_malformed_settings_file_exits_2(capsys, tmp_path, stream_csv, command, text):
    path = tmp_path / "settings.json"
    path.write_text(text.replace("STREAM_CSV", str(stream_csv)))
    args = {"bench": ["bench", str(path)],
            "simulate": ["simulate", str(path), "--out-dir", str(tmp_path / "out")],
            "fit": ["fit", str(stream_csv), "--column", "y", "--fit-config", str(path)],
            "predict": ["predict", str(stream_csv), "--column", "y", "--features", str(path)],
            }[command]
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert err.startswith(f"error: {path}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()  # no node ran
