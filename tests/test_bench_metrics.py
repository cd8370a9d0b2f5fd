"""The benchmark's traced per-layer metrics need the program names that
perfbench/tracer.py wraps: a name the program drops takes its metrics out
of the traced result line.  This pins the traced metric set to the
`per_layer` list in BENCHMARK.json without running a workload."""

import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_metrics_are_the_declared_per_layer_set(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer").Tracer()
    run = importlib.import_module("run")
    result = {
        "trace": {
            "functions": tracer.function_table(),
            "counts": dict(tracer.counts),
            "layer_calls": tracer.layer_sums(tracer.calls),
            "layer_self_s": tracer.layer_sums(tracer.self_time),
            "op_s": 1.0,
            "overhead_ratios": [1.0],
        },
        "records": [],
    }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(run.per_layer(result)) == {m["name"] for m in declared["per_layer"]}
