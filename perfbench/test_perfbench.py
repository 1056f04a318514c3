"""Self-test of the benchmark code.

Runs every workload at a tiny size through both passes and checks that each
metric BENCHMARK.json names is emitted with its unit, that the output checks
pass, and that a missing or changed wrap target comes out as ``absent``
instead of crashing the traced pass. Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench
_spec.loader.exec_module(bench)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
W = bench.WORKLOADS

TINY = {
    "bern-wide": dataclasses.replace(
        W["bern-wide"], min_calls=1,
        doc={**W["bern-wide"].doc, "objective": "onemax:16", "n_samples": 60, "iterations": 20,
             "model": {"family": "bernoulli", "dim": 16, "init": "default"}},
        target=16.0,
    ),
    "gauss-small-map": dataclasses.replace(
        W["gauss-small-map"], min_calls=1,
        doc={**W["gauss-small-map"].doc, "objective": "sphere:2", "n_samples": 50, "iterations": 30,
             "model": {"family": "gaussian", "dim": 2,
                       "init": {"mean": [0.5, 0.5], "cov": [[1.0, 0.0], [0.0, 1.0]]}}},
    ),
    "gauss-wide": dataclasses.replace(
        W["gauss-wide"], min_calls=1,
        doc={**W["gauss-wide"].doc, "objective": "sphere:5", "n_samples": 50, "iterations": 10,
             "model": {"family": "gaussian", "dim": 5, "init": "default"}},
    ),
    "diagnose": dataclasses.replace(W["diagnose"], min_calls=1),
}


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(W)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path, capsys):
    bench_run, metrics = bench.measure(
        TINY[name], seed=0, seconds=0, trace=trace, work=str(tmp_path),
        setup_repeats=1 if name == "bern-wide" else 0,
    )
    assert bench_run.failed == 0, bench_run.problems
    assert bench_run.attempted >= 2
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: unit for k, (_, unit, _) in metrics.items()} == expected
    for value, _, _ in metrics.values():
        assert isinstance(value, float) and value == value

    bench.report(TINY[name], 0, trace, bench_run, metrics)
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_missing_or_changed_target_is_absent(tmp_path, monkeypatch):
    from edaem import engine

    original = engine.e_step
    missing = layers.Target("engine.log_prior", "engine", "no_such_function", ())
    changed = layers.Target("shaping.shape", "shaping", "shape", ("renamed", "f_values"))
    kept = [t for t in layers.TARGETS if t.layer not in ("engine.log_prior", "shaping.shape")]
    monkeypatch.setattr(layers, "TARGETS", (*kept, missing, changed))

    bench_run, metrics = bench.measure(
        TINY["gauss-small-map"], seed=0, seconds=0, trace=True, work=str(tmp_path)
    )

    assert bench_run.failed == 0, bench_run.problems
    for name in ("engine.log_prior.ms", "shaping.shape.ms", "shaping.kept_frac"):
        value, _, note = metrics[name]
        assert value == 0.0 and note.startswith("absent"), (name, note)
    assert "signature changed" in metrics["shaping.shape.ms"][2]
    assert metrics["models.sample.ms"][0] > 0.0
    assert engine.e_step is original


def test_percentile_counts_samples_beyond():
    assert bench.percentile([float(i) for i in range(1, 101)], 90.0) == (90.0, 10)


def test_tail_pct_leaves_ten_samples_beyond():
    assert bench.tail_pct(100) == 90
    assert bench.tail_pct(499) == bench.TAIL_PCT_MAX
    assert bench.tail_pct(118) == 91
    assert bench.tail_pct(10) == 100
