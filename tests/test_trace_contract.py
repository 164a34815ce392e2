"""The per-layer benchmark's tracer still finds every function it reports on.

`perfbench/spans.py` wraps the public functions of the five `ehcr` modules
by name, and a metric whose functions no longer exist is left out of a
traced run's result without an error. This test reads `perfbench/` and
fails as soon as a change to the package would drop such a metric.
"""

import importlib
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_metric_is_reported(spans, capsys):
    modules = {layer: importlib.import_module(f"ehcr.{layer}") for layer in spans.LAYERS}
    with spans.Tracer(modules) as tracer:
        assert modules["cli"].main(["analyze", "--tau-grid", "0.5:0.5:0.1"]) == 0
    capsys.readouterr()
    metrics = tracer.metrics()
    assert [name for name, _ in spans.METRICS if metrics[name] is None] == []
    assert metrics["cli.jobs"] == 1
