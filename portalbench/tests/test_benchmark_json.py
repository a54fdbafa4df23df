import json
from pathlib import Path

from portalbench.layers import PER_LAYER
from portalbench.run import END_TO_END

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_end_to_end_metrics_match_the_runner():
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert declared == list(END_TO_END)


def test_per_layer_metrics_match_the_tracer():
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == list(PER_LAYER)


def test_workloads_exist():
    from portalbench.workloads import WORKLOADS

    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
