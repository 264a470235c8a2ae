"""The README's examples stay runnable: the library quick start runs as
written, the scenario and benchmark files read, and the prediction-log
line has the log's fields."""

import json
import re
from pathlib import Path

import numpy as np

from gptdf.edge_sim import Scenario
from gptdf.evaluation import BenchmarkConfig
from gptdf.fusion import ensemble_from_features, log_record, run_stream
from gptdf.gp_core import TemporalFeature, TimeSeries

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(lang):
    """The bodies of the README's fenced blocks tagged `lang`, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def test_quick_start_runs():
    (quick_start,) = blocks("python")
    exec(compile(quick_start, str(README), "exec"), {})


def test_json_examples_read():
    scenario, bench, _wire, log_line = blocks("json")
    assert Scenario.from_dict(json.loads(scenario)).tau == 50
    config = BenchmarkConfig.from_dict(json.loads(bench))
    assert [m.name for m in config.methods] == ["GPTDF-I", "GP-I"]
    state = ensemble_from_features([TemporalFeature(1.0, 1.0, 0.1)])
    (record,) = run_stream(state, TimeSeries(np.zeros(1), np.zeros(1)))
    assert list(json.loads(log_line)) == list(log_record(record))
