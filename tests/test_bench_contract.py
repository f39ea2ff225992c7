"""The benchmark under bench/ still fits the package it measures.

bench/spans.py wraps hardball's entry points by name, and a target that
no longer resolves only makes its metrics absent: the run still exits 0.
Oracles: the wrapped names resolve and come back by identity, the layer
metrics are exactly the per-layer ones BENCHMARK.json declares, and the
smoke run reports every one of them.  Nothing under bench/ is changed.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from hardball import cli, eos, field, functionals, kernels, phase, spectral, uniform

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


def namespaces():
    modules = (cli, eos, field, functionals, kernels, phase, spectral, uniform)
    return [dict(vars(owner)) for owner in modules + (eos.EosModel,)]


def test_every_wrapped_target_resolves_and_is_put_back():
    before = namespaces()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
        assert tracer._undo
        for owner, attr, original in tracer._undo:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for old, new in zip(before, namespaces()):
        assert old.keys() == new.keys()
        assert all(new[name] is value for name, value in old.items())


def test_layer_metrics_are_the_declared_per_layer_metrics():
    assert len(PER_LAYER) == 46
    assert set(spans.LAYER_METRICS) == set(PER_LAYER)


def test_smoke_run_reports_every_layer_metric():
    # the smoke run has no untraced round, so it reports no trace.overhead
    run = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "absent" not in run.stdout
    summaries = {line.split(":")[0]: line for line in run.stdout.splitlines()
                 if ": traced round" in line}
    assert sorted(summaries) == sorted(WORKLOADS)
    for line in summaries.values():
        assert f" {len(PER_LAYER) - 1} layer metrics, ok" in line
