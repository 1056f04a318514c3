"""Config-schema and CLI tests: strict validation, exit codes, output
files, determinism, and the library/CLI seam."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edaem import cli, engine, objectives, oracle
from edaem.config import RunConfig
from edaem.engine import IterationRecord, Trace, UpdateRule
from edaem.engine import run as engine_run
from edaem.errors import ConfigError, RunAbortedError
from edaem.models import BernoulliProductModel
from edaem.shaping import ShapingSpec
from edaem.traceio import TRACE_COLUMNS, write_trace_csv


def base_doc(**over):
    doc = {
        "objective": "onemax:8",
        "model": {"family": "bernoulli", "dim": 8, "init": "default"},
        "shaping": "quantile:0.5",
        "update": {"kind": "closed_form"},
        "n_samples": 40,
        "iterations": 15,
        "seed": 3,
    }
    doc.update(over)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------


def test_valid_config_parses():
    cfg = RunConfig.from_dict(base_doc())
    assert cfg.n_samples == 40
    assert cfg.model.family_tag == "bernoulli:8"
    assert cfg.rule.kind == "closed_form"


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_dict(base_doc(extra=1))


def test_unknown_model_key_rejected():
    doc = base_doc()
    doc["model"]["typo"] = True
    with pytest.raises(ConfigError, match="unknown model keys"):
        RunConfig.from_dict(doc)


def test_missing_required_key():
    doc = base_doc()
    del doc["seed"]
    with pytest.raises(ConfigError, match="seed"):
        RunConfig.from_dict(doc)


def test_gamma_range_message_names_field_and_range():
    doc = base_doc(update={"kind": "map_smoothed", "gamma": 1.5})
    with pytest.raises(ConfigError, match=r"update\.gamma.*\(0, 1\].*1\.5"):
        RunConfig.from_dict(doc)


def test_gradient_rule_validation():
    with pytest.raises(ConfigError, match="alpha"):
        RunConfig.from_dict(base_doc(update={"kind": "gradient", "alpha": -1, "k": 2}))
    with pytest.raises(ConfigError, match="k"):
        RunConfig.from_dict(base_doc(update={"kind": "gradient", "alpha": 0.1, "k": 0}))


def test_model_objective_dimension_mismatch():
    doc = base_doc()
    doc["model"]["dim"] = 9
    with pytest.raises(ConfigError, match="does not match"):
        RunConfig.from_dict(doc)


def test_model_family_domain_mismatch():
    doc = base_doc(objective="sphere:8")
    with pytest.raises(ConfigError, match="binary"):
        RunConfig.from_dict(doc)


def test_model_is_paired_with_its_objective_before_it_is_built():
    # Building this model first would allocate np.eye(10**6), 8 TB.
    doc = base_doc(model={"family": "gaussian", "dim": 10**6, "init": "default"})
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="model.dim"):
            RunConfig.from_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_identity_shaping_rejected_for_negated_objectives():
    doc = base_doc(
        objective="sphere:8",
        model={"family": "gaussian", "dim": 8, "init": "default"},
        shaping="identity",
    )
    with pytest.raises(ConfigError, match="identity"):
        RunConfig.from_dict(doc)


def test_explicit_init_vector():
    doc = base_doc()
    doc["model"]["init"] = [0.9] * 8
    cfg = RunConfig.from_dict(doc)
    np.testing.assert_allclose(cfg.model.probs, 0.9)


def test_gaussian_mean_cov_init():
    doc = base_doc(
        objective="sphere:2",
        model={
            "family": "gaussian",
            "dim": 2,
            "init": {"mean": [1.0, 2.0], "cov": [[2.0, 0.0], [0.0, 1.0]]},
        },
        shaping="quantile:0.25",
    )
    cfg = RunConfig.from_dict(doc)
    np.testing.assert_allclose(cfg.model.mean, [1.0, 2.0])
    np.testing.assert_allclose(cfg.model.cov, [[2.0, 0.0], [0.0, 1.0]])


def test_gaussian_theta_init_runs_like_its_mean_cov(tmp_path):
    # theta = (m, vech(S)) with S = I + m m^T = I + 0.25 reads C = I back
    # exactly.  A model built from theta carries no covariance, so the first
    # MAP blend splits theta_prev.
    S = np.eye(4) + 0.25
    inits = {
        "theta": [0.5] * 4 + [float(v) for v in S[np.tril_indices(4)]],
        "mean_cov": {"mean": [0.5] * 4, "cov": np.eye(4).tolist()},
    }
    out = {}
    for name, init in inits.items():
        doc = base_doc(
            objective="sphere:4",
            model={"family": "gaussian", "dim": 4, "init": init},
            shaping="quantile:0.25",
            update={"kind": "map_smoothed", "gamma": 0.8},
            n_samples=50,
            iterations=10,
        )
        path = tmp_path / name
        assert cli.main(["run", "--config", write_config(tmp_path, doc, f"{name}.json"),
                         "--out", str(path)]) == 0
        out[name] = ((path / "trace.csv").read_bytes(),
                     json.loads((path / "summary.json").read_text()))
    (trace_a, summary_a), (trace_b, summary_b) = out.values()
    assert trace_a == trace_b
    for key in ("final_params", "free_energy_map"):
        assert summary_a[key] == summary_b[key]


def test_categorical_config():
    doc = base_doc(
        objective="onemax:8",
        model={"family": "categorical", "dim": 8, "arity": 3, "init": "default"},
    )
    # onemax is binary; categorical needs a categorical objective
    with pytest.raises(ConfigError):
        RunConfig.from_dict(doc)


def _model(**over):
    return {"family": "bernoulli", "dim": 8, "init": "default", **over}


def _gauss(init):
    return {"objective": "sphere:2", "model": {"family": "gaussian", "dim": 2, "init": init}}


# Each row breaks one field; the error must name that field.
@pytest.mark.parametrize(
    "over,field",
    [
        ({"iterations": 0}, "iterations"),
        ({"iterations": 2.5}, "iterations"),
        ({"n_samples": True}, "n_samples"),
        ({"seed": "3"}, "seed"),
        ({"objective": 8}, "objective"),
        ({"shaping": None}, "shaping"),
        ({"out_dir": 5}, "out_dir"),
        ({"early_stop_window": 0}, "early_stop_window"),
        ({"early_stop_window": "10"}, "early_stop_window"),
        ({"early_stop_window": True}, "early_stop_window"),
        ({"update": "closed_form"}, "update"),
        ({"update": {"kind": "closed_form", "beta": 1.0}}, "beta"),
        ({"update": {"kind": "closed_form", "gamma": 0.5}}, "gamma"),
        ({"update": {"kind": "map_smoothed", "gamma": 0.5, "k": 2}}, "k"),
        ({"update": {"kind": "map_smoothed", "gamma": "0.5"}}, "update.gamma"),
        ({"update": {"kind": "map_smoothed"}}, "update.gamma"),
        ({"update": {"kind": "gradient", "alpha": "big", "k": 2}}, "update.alpha"),
        ({"update": {"kind": "gradient", "alpha": 0.1, "k": 1.5}}, "update.k"),
        ({"update": {"kind": "newton"}}, "update.kind"),
        ({"model": "bernoulli"}, "model"),
        ({"model": _model(dim=0)}, "model.dim"),
        ({"model": _model(dim="8")}, "model.dim"),
        ({"objective": "onemax:1", "model": _model(dim=True)}, "model.dim"),
        ({"model": _model(family="poisson")}, "model.family"),
        ({"model": _model(family="gaussian")}, "gaussian"),
        ({"model": _model(init="uniform")}, "model.init"),
        ({"model": _model(init=[0.5] * 7)}, "model.init"),
        ({"model": _model(init=[float("nan")] * 8)}, "model.init"),
        (_gauss({"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]], "scale": 2}), "scale"),
        (_gauss({"mean": [0.0, 0.0], "cov": [[1.0]]}), "model.init.cov"),
        (_gauss({"cov": [[1.0, 0.0], [0.0, 1.0]]}), "model.init.mean"),
        ({"seed": -1}, "seed"),
        ({"seed": -(2**70)}, "seed"),
        ({"update": {"kind": "gradient", "alpha": 0.1, "k": 2, "gamma": 0.5}}, "gamma"),
        ({"model": _model(init=[0.5] * 7 + [1.5])}, "model.init"),
        ({"model": _model(init=["a"] * 8)}, "model.init"),
        (_gauss([0.0, 0.0, 1.0, 2.0, 1.0]), "model.init"),
        (_gauss({"mean": [0.0, 0.0], "cov": [[float("inf"), 0.0], [0.0, 1.0]]}), "model.init.cov"),
        (_gauss({"mean": [0.0, 0.0], "cov": [["a", 0.0], [0.0, 1.0]]}), "model.init.cov"),
        (_gauss({"mean": [0.0, 0.0], "cov": [[1.0, 2.0], [2.0, 1.0]]}), "model.init: covariance"),
        (_gauss({"mean": [1e200, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}), "model.init"),
    ],
)
def test_config_error_names_its_field(over, field):
    with pytest.raises(ConfigError, match=re.escape(field)):
        RunConfig.from_dict(base_doc(**over))


def test_config_root_must_be_an_object():
    with pytest.raises(ConfigError, match="root"):
        RunConfig.from_dict([base_doc()])


@pytest.mark.parametrize("text", [None, "{not json"])
def test_config_file_errors_name_the_file(tmp_path, text):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError, match="cfg.json"):
        RunConfig.from_file(str(path))


def test_seed_override_reparses():
    cfg = RunConfig.from_dict(base_doc())
    cfg2 = cfg.with_seed(99)
    assert cfg2.seed == 99
    assert cfg2.raw["seed"] == 99


def _library_config(seed):
    return RunConfig(
        objective=objectives.onemax(8),
        model=BernoulliProductModel(np.full(8, 0.5)),
        shaping=ShapingSpec.parse("quantile:0.5"),
        rule=UpdateRule("closed_form"),
        n_samples=40,
        iterations=15,
        seed=seed,
    )


def test_with_seed_on_a_library_built_config():
    cfg = _library_config(0).with_seed(3)
    assert cfg.seed == 3 and cfg.raw is None
    got, want = engine_run(cfg), engine_run(_library_config(3))
    assert got.records == want.records
    assert np.array_equal(got.final_model.params.values, want.final_model.params.values)
    assert got.records == engine_run(RunConfig.from_dict(base_doc(seed=3))).records


@pytest.mark.parametrize("seed", [-3, True, "3", 2.0, None])
def test_with_seed_rejects_what_the_config_rejects(seed):
    for cfg in (_library_config(0), RunConfig.from_dict(base_doc())):
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            cfg.with_seed(seed)
    with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
        RunConfig.from_dict(base_doc(seed=seed))


# Parameter lists that numpy would cast to numbers, each with the field the
# error must name.
NON_REAL_INITS = {
    "strings": ({"model": _model(init=["0.5"] * 8)}, "model.init"),
    "bools": ({"model": _model(init=[True, False] * 4)}, "model.init"),
    "null": ({"model": _model(init=[0.5] * 7 + [None])}, "model.init"),
    "object": ({"model": _model(init=[0.5] * 7 + [{}])}, "model.init"),
    "nested-bool": ({"model": _model(init=[[0.5]] * 7 + [[True]])}, "model.init"),
    "gauss-theta-string": (_gauss([0.0, "0", 1.0, 0.0, 1.0]), "model.init"),
    "gauss-mean-strings": (_gauss({"mean": ["0", "0"], "cov": [[1.0, 0.0], [0.0, 1.0]]}),
                           "model.init.mean"),
    "gauss-cov-bool": (_gauss({"mean": [0.0, 0.0], "cov": [[True, 0], [0, 1]]}),
                       "model.init.cov"),
}


@pytest.mark.parametrize("over,field", NON_REAL_INITS.values(), ids=NON_REAL_INITS)
def test_model_init_entries_must_be_real_numbers(over, field):
    with pytest.raises(ConfigError, match=re.escape(field) + " entries must be real numbers"):
        RunConfig.from_dict(base_doc(**over))


def test_model_init_int_past_float64_is_a_config_error():
    with pytest.raises(ConfigError, match="model.init must be a 8 list of numbers"):
        RunConfig.from_dict(base_doc(model=_model(init=[10**400] + [0.5] * 7)))


# ---------------------------------------------------------------------------
# CLI: run
# ---------------------------------------------------------------------------


def test_cmd_run_writes_trace_and_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, base_doc())
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    with open(tmp_path / "out" / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(
        ("iter", "best_raw_f", "mean_raw_f", "weighted_mean_shaped_f",
         "free_energy_estimate", "ess")
    )
    assert len(rows) == 1 + 15  # header + one row per iteration
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["final_params"]["family"] == "bernoulli"
    assert summary["config"]["seed"] == 3


def test_cmd_run_invalid_config_exit_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path, base_doc(update={"kind": "map_smoothed", "gamma": 1.5})
    )
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert "update.gamma" in err["message"] and "(0, 1]" in err["message"]


@pytest.mark.parametrize(
    "model",
    [
        {"family": "bernoulli", "dim": 2, "init": [0.5, 1.5]},
        {"family": "gaussian", "dim": 2, "init": {"mean": [0, 0], "cov": [[1, 2], [2, 1]]}},
    ],
)
def test_cmd_run_invalid_init_exit_2(tmp_path, capsys, model):
    objective = "onemax:2" if model["family"] == "bernoulli" else "sphere:2"
    cfg = write_config(tmp_path, base_doc(objective=objective, model=model, shaping="rank"))
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and "model.init" in err["message"]


def test_cmd_run_infinite_beta_exit_2(tmp_path, capsys):
    # exp:inf would weight every generation with NaN.
    cfg = write_config(tmp_path, base_doc(shaping="exp:inf"))
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and "beta" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cmd_negative_seed_flag_exit_2(tmp_path, capsys, command):
    cfg = write_config(tmp_path, base_doc())
    argv = [command, "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "-3"]
    if command == "sweep":
        argv += ["--param", "N", "--values", "40"]
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and "seed" in err["message"]
    assert not (tmp_path / "out").exists()


def test_cmd_run_runtime_degeneracy_exit_3(tmp_path, capsys):
    # identity shaping with leadingones and the first bit pinned at the
    # floor: under seed 3 the first generation scores all zeros
    doc = base_doc(objective="leadingones:8", shaping="identity")
    doc["model"]["init"] = [0.0] * 8
    cfg = write_config(tmp_path, doc)
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "RunAbortedError"
    # Aborted at iteration 0: the partial trace is the header alone.
    with open(tmp_path / "out" / "trace.csv") as fh:
        assert list(csv.reader(fh)) == [list(TRACE_COLUMNS)]
    assert not (tmp_path / "out" / "summary.json").exists()


# The gradient rule steps this Gaussian to a covariance no jitter repairs;
# the run aborts at iteration 20.
GRADIENT_ABORT_DOC = {
    "objective": "sphere:5",
    "model": {"family": "gaussian", "dim": 5, "init": "default"},
    "shaping": "quantile:0.25",
    "update": {"kind": "gradient", "alpha": 1e-3, "k": 3},
    "n_samples": 100,
    "iterations": 40,
    "seed": 0,
}


def test_cmd_run_abort_keeps_the_partial_trace(tmp_path, capsys):
    cfg = write_config(tmp_path, GRADIENT_ABORT_DOC)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    with pytest.raises(RunAbortedError) as aborted:
        engine_run(RunConfig.from_file(cfg))
    assert err == {"error": "RunAbortedError", "message": str(aborted.value), "exit_code": 3}
    assert len(aborted.value.trace.records) == 20
    write_trace_csv(aborted.value.trace, str(tmp_path / "expected.csv"))
    assert (out / "trace.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert not (out / "summary.json").exists()


def test_cmd_run_abort_io_failure_exit_4(tmp_path, capsys):
    cfg = write_config(tmp_path, GRADIENT_ABORT_DOC)
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    assert cli.main(["run", "--config", cfg, "--out", str(blocker)]) == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["exit_code"] == 4


def test_cmd_run_missing_out_dir_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, base_doc())
    code = cli.main(["run", "--config", cfg])
    assert code == 2


def test_cmd_run_io_failure_exit_4(tmp_path, capsys):
    cfg = write_config(tmp_path, base_doc())
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    code = cli.main(["run", "--config", cfg, "--out", str(blocker)])
    assert code == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["exit_code"] == 4


@pytest.mark.parametrize("command", ["diagnose", "sweep"])
def test_cmd_diagnose_and_sweep_io_failure_exit_4(tmp_path, capsys, command):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    argv = {
        "diagnose": ["diagnose", "default"],
        "sweep": ["sweep", "--config", write_config(tmp_path, base_doc()),
                  "--param", "N", "--values", "40"],
    }[command]
    assert cli.main(argv + ["--out", str(blocker)]) == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["exit_code"] == 4


def _raise_linalg_error(config):
    raise np.linalg.LinAlgError("Matrix is not positive definite")


def _free_energy_fails_at(monkeypatch, call: int) -> None:
    """``engine._free_energy`` raises LinAlgError on its ``call``-th call,
    inside iteration ``call - 1`` of the run."""
    calls, real = [], engine._free_energy

    def failing(*args):
        calls.append(None)
        if len(calls) == call:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return real(*args)

    monkeypatch.setattr(engine, "_free_energy", failing)


def test_cmd_run_non_edaem_error_exit_3(tmp_path, capsys, monkeypatch):
    # A failure of no edaem type inside the run aborts it like any other:
    # exit 3 (1 is reserved for failed diagnostic checks), the rows of the
    # iterations it completed, and a message that names the cause's type.
    cfg = write_config(tmp_path, base_doc())
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "full")]) == 0
    capsys.readouterr()
    _free_energy_fails_at(monkeypatch, 4)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "RunAbortedError", "exit_code": 3,
                   "message": "run aborted at iteration 3: LinAlgError: Matrix is not "
                              "positive definite"}
    full = (tmp_path / "full" / "trace.csv").read_bytes().splitlines(keepends=True)
    assert (out / "trace.csv").read_bytes() == b"".join(full[:4])  # header and 3 rows
    assert not (out / "summary.json").exists()


def test_cmd_run_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, base_doc())
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a == b


def test_cmd_run_seed_flag_changes_trace(tmp_path):
    cfg = write_config(tmp_path, base_doc())
    cli.main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
    cli.main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "77"])
    assert (tmp_path / "a" / "trace.csv").read_bytes() != (
        tmp_path / "b" / "trace.csv"
    ).read_bytes()


def test_cli_matches_library_results(tmp_path):
    # seam audit: the CLI writes exactly what the library computes
    doc = base_doc()
    cfg_path = write_config(tmp_path, doc)
    cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")])
    trace = engine_run(RunConfig.from_dict(doc))
    with open(tmp_path / "out" / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(trace.records)
    for row, rec in zip(rows, trace.records):
        assert float(row["best_raw_f"]) == rec.best_raw_f
        assert float(row["free_energy_estimate"]) == rec.free_energy_estimate
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    np.testing.assert_array_equal(
        np.asarray(summary["final_params"]["params"]),
        trace.final_model.params.values,
    )


def _trace_of(rows):
    return Trace([IterationRecord(i, *floats) for i, floats in rows], final_model=None)


_FLOATS = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, -2.2e-308, 1.79e308,
                     -1.79e308]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


# write_trace_csv formats its lines itself; the csv module's default
# dialect is the reference for the bytes it must write.
@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.tuples(*[_FLOATS] * 5)), max_size=600))
def test_trace_csv_is_what_the_csv_module_writes(tmp_path_factory, rows):
    trace = _trace_of(rows)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(TRACE_COLUMNS)
    for r in trace.records:
        writer.writerow([r.iteration, repr(r.best_raw_f), repr(r.mean_raw_f),
                         repr(r.weighted_mean_shaped_f), repr(r.free_energy_estimate),
                         repr(r.ess)])
    path = tmp_path_factory.getbasetemp() / "drawn_trace.csv"
    write_trace_csv(trace, str(path))
    assert path.read_bytes() == buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("n_rows", [500, 5000])
def test_trace_csv_memory_does_not_grow_with_the_rows(tmp_path, n_rows):
    # csv.writer's first row allocates a 128 KB record buffer; the lines
    # themselves are under 200 bytes each.
    values = np.random.default_rng(5).standard_normal((n_rows, 5)) * 1e3
    trace = _trace_of((i, tuple(v)) for i, v in enumerate(values.tolist()))
    path = str(tmp_path / "trace.csv")
    tracemalloc.start()
    try:
        write_trace_csv(trace, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# ---------------------------------------------------------------------------
# CLI: diagnose
# ---------------------------------------------------------------------------


def test_cmd_diagnose_default_passes(tmp_path, capsys):
    code = cli.main(["diagnose", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    reports = json.loads((tmp_path / "diagnostics.json").read_text())
    assert all(r["pass"] for r in reports)
    assert {"check_name", "fixture", "values", "pass"} == set(reports[0])
    names = {r["check_name"] for r in reports}
    assert names == {
        "ppm_equivalence",
        "ngd_correspondence",
        "mc_convergence",
        "em_monotonicity",
        "free_energy_bound",
    }


DEFAULT_DIAGNOSE_ROWS = [
    ("ppm_equivalence", "bern1_f13"),
    ("ngd_correspondence", "bern1_f13"),
    ("em_monotonicity", "bern1_f13"),
    ("free_energy_bound", "bern1_f13"),
    ("ppm_equivalence", "bern2_onemax1"),
    ("ngd_correspondence", "bern2_onemax1"),
    ("mc_convergence", "bern2_onemax1"),
    ("em_monotonicity", "bern2_onemax1"),
    ("free_energy_bound", "bern2_onemax1"),
    ("ppm_equivalence", "bern3_onemax1"),
    ("ngd_correspondence", "bern3_onemax1"),
    ("em_monotonicity", "bern3_onemax1"),
    ("free_energy_bound", "bern3_onemax1"),
    ("ppm_equivalence", "bern2_const"),
    ("ngd_correspondence", "bern2_const"),
    ("em_monotonicity", "bern2_const"),
    ("free_energy_bound", "bern2_const"),
    ("ppm_equivalence", "bern3_trap"),
    ("em_monotonicity", "bern3_trap"),
    ("free_energy_bound", "bern3_trap"),
    ("ngd_correspondence", "cat2x3_affine"),
    ("em_monotonicity", "cat2x3_affine"),
    ("free_energy_bound", "cat2x3_affine"),
]


def test_cmd_diagnose_calls_each_check_through_the_oracle_module(monkeypatch, capsys):
    # A profiler times the checks by replacing the oracle module's verify_*
    # functions; a check that held its function from import time would go
    # unseen and be timed as part of the whole call.
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in [n for n in dir(oracle) if n.startswith("verify_")]:
        monkeypatch.setattr(oracle, name, counting(name, getattr(oracle, name)))
    assert cli.main(["diagnose", "default"]) == 0
    rows = [tuple(line.split()[:2]) for line in capsys.readouterr().out.splitlines()[1:-1]]
    assert len(calls) == 23
    assert rows == DEFAULT_DIAGNOSE_ROWS


def test_cmd_diagnose_failing_check_exit_1(monkeypatch, tmp_path, capsys):
    # One failing check: its row reads FAIL, stderr names it, the command
    # exits 1, and diagnostics.json still holds every report.
    verify = oracle.verify_mc_convergence

    def failing(*args, **kwargs):
        return dataclasses.replace(verify(*args, **kwargs), passed=False)

    monkeypatch.setattr(oracle, "verify_mc_convergence", failing)
    assert cli.main(["diagnose", "default", "--out", str(tmp_path)]) == cli.EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line.split()[:3] for line in lines if "FAIL" in line] == [
        ["mc_convergence", "bern2_onemax1", "FAIL"]
    ]
    assert lines[-1] == "22/23 checks passed"
    failing_checks = json.loads(captured.err.splitlines()[-1])["failing_checks"]
    assert [(r["check_name"], r["fixture"], r["pass"]) for r in failing_checks] == [
        ("mc_convergence", "bern2_onemax1", False)
    ]
    reports = json.loads((tmp_path / "diagnostics.json").read_text())
    assert [(r["check_name"], r["fixture"]) for r in reports] == DEFAULT_DIAGNOSE_ROWS
    assert [r for r in reports if not r["pass"]] == failing_checks


def test_cmd_diagnose_default_peak_memory_below_16_mb(capsys):
    # The PPM grid search works in blocks of about 62.5k grid points and
    # contracts per-coordinate probability tables, so the MC check's
    # generations (about 5 MB traced) set the peak.  A full grid of the
    # d = 2 fixtures at step 1e-3 would take about 290 MB, and per-block
    # copies of the grid about 21 MB.
    tracemalloc.start()
    try:
        assert cli.main(["diagnose", "default"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < 16.0


def test_cmd_diagnose_unknown_fixture_exit_2(capsys):
    assert cli.main(["diagnose", "nosuch"]) == 2


def test_log_env_var_sets_verbosity(monkeypatch):
    import logging

    for name, level in [("debug", logging.DEBUG), ("info", logging.INFO),
                        ("warning", logging.WARNING)]:
        monkeypatch.setenv("EDAEM_LOG", name)
        cli._setup_logging()
        assert logging.getLogger("edaem").level == level
    monkeypatch.delenv("EDAEM_LOG")
    cli._setup_logging()
    assert logging.getLogger("edaem").level == logging.WARNING


# ---------------------------------------------------------------------------
# CLI: sweep
# ---------------------------------------------------------------------------


def sweep_doc():
    return {
        "objective": "onemax:8",
        "model": {"family": "bernoulli", "dim": 8, "init": "default"},
        "shaping": "quantile:0.5",
        "update": {"kind": "map_smoothed", "gamma": 0.5},
        "n_samples": 40,
        "iterations": 25,
        "seed": 10,
    }


def test_cmd_sweep_gamma(tmp_path):
    cfg = write_config(tmp_path, sweep_doc())
    code = cli.main(
        [
            "sweep", "--config", cfg, "--param", "gamma",
            "--values", "0.2,0.5,1.0", "--out", str(tmp_path / "sw"),
        ]
    )
    assert code == 0
    with open(tmp_path / "sw" / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert [r["seed"] for r in rows] == ["10", "11", "12"]  # base + index
    assert all(r["status"] == "ok" for r in rows)
    # threshold defaults to the declared optimum (8.0 for onemax)
    assert any(r["iters_to_threshold"] for r in rows)


def test_cmd_sweep_empty_values_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep_doc())
    assert (
        cli.main(
            ["sweep", "--config", cfg, "--param", "gamma", "--values", "",
             "--out", str(tmp_path / "sw")]
        )
        == 2
    )


def test_cmd_sweep_param_kind_mismatch_exit_2(tmp_path):
    cfg = write_config(tmp_path, sweep_doc())
    assert (
        cli.main(
            ["sweep", "--config", cfg, "--param", "alpha", "--values", "0.1",
             "--out", str(tmp_path / "sw")]
        )
        == 2
    )


@pytest.mark.parametrize(
    "shaping,param", [("Quantile:0.5", "rho"), ("Exp:1.0", "beta")]
)
def test_cmd_sweep_reads_the_parsed_shaping_kind(tmp_path, shaping, param):
    # the run accepts these spellings, so the sweep must too
    cfg = write_config(tmp_path, dict(sweep_doc(), shaping=shaping))
    code = cli.main(
        ["sweep", "--config", cfg, "--param", param, "--values", "0.25,0.5",
         "--out", str(tmp_path / "sw")]
    )
    assert code == 0
    with open(tmp_path / "sw" / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["ok", "ok"]


@pytest.mark.parametrize("param,values", [("alpha", "0.05,0.2"), ("k", "1,3")])
def test_cmd_sweep_gradient_param_reaches_each_run(tmp_path, param, values):
    # Each row's best is that of the run at its value and seed.
    doc = dict(sweep_doc(), update={"kind": "gradient", "alpha": 0.1, "k": 2})
    code = cli.main(
        ["sweep", "--config", write_config(tmp_path, doc), "--param", param,
         "--values", values, "--out", str(tmp_path / "sw")]
    )
    assert code == 0
    with open(tmp_path / "sw" / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    cast = float if param == "alpha" else int
    assert [cast(r["value"]) for r in rows] == [cast(v) for v in values.split(",")]
    for i, row in enumerate(rows):
        update = {**doc["update"], param: cast(row["value"])}
        run_doc = dict(doc, update=update, seed=doc["seed"] + i)
        assert row["status"] == "ok"
        assert row["best_raw_f"] == repr(engine_run(RunConfig.from_dict(run_doc)).best_raw_f)


# Each row is a sweep that must stop before running anything, with exit 2.
@pytest.mark.parametrize(
    "over,param,values",
    [
        ({"update": {"kind": "closed_form"}}, "gamma", "0.5"),
        ({}, "beta", "1.0"),
        ({"shaping": "exp:1.0"}, "rho", "0.5"),
        ({}, "sigma", "1.0"),
        ({}, "gamma", "0.5,high"),
        ({}, "N", "40.5"),
        ({"out_dir": None}, "gamma", "0.5"),
    ],
)
def test_cmd_sweep_rejects_before_running_exit_2(tmp_path, capsys, over, param, values):
    doc = {**sweep_doc(), **over}
    argv = ["sweep", "--config", write_config(tmp_path, doc), "--param", param,
            "--values", values]
    if "out_dir" not in over:
        argv += ["--out", str(tmp_path / "sw")]
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not (tmp_path / "sw").exists()


# Each row is an argument the sweep rejects with exit 2, before any child
# runs and before anything is written.
@pytest.mark.parametrize("flag,value", [("--jobs", "0"), ("--jobs", "-1"),
                                        ("--threshold", "nan"), ("--threshold", "inf")])
def test_cmd_sweep_rejects_bad_jobs_and_threshold_exit_2(tmp_path, capsys, monkeypatch,
                                                         flag, value):
    ran = []
    monkeypatch.setattr(cli, "_sweep_child", ran.append)
    argv = ["sweep", "--config", write_config(tmp_path, sweep_doc()), "--param", "gamma",
            "--values", "0.5", "--out", str(tmp_path / "sw"), flag, value]
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and flag in err["message"]
    assert ran == [] and not (tmp_path / "sw").exists()


def test_cmd_sweep_continues_past_child_failures(tmp_path):
    cfg = write_config(tmp_path, sweep_doc())
    code = cli.main(
        [
            "sweep", "--config", cfg, "--param", "N",
            # 1 is an invalid generation size: that child fails, others run
            "--values", "1,40", "--out", str(tmp_path / "sw"),
        ]
    )
    assert code == 0
    with open(tmp_path / "sw" / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["status"].startswith("error:")
    assert rows[1]["status"] == "ok"


def test_cmd_sweep_marks_non_edaem_child_errors(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "engine_run", _raise_linalg_error)
    cfg = write_config(tmp_path, sweep_doc())
    code = cli.main(
        ["sweep", "--config", cfg, "--param", "gamma", "--values", "0.3,0.9",
         "--out", str(tmp_path / "sw"), "--jobs", "1"]
    )
    assert code == 0
    with open(tmp_path / "sw" / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["error:LinAlgError"] * 2


def test_cmd_sweep_names_the_cause_of_an_aborted_child(tmp_path, monkeypatch):
    # The first child's run aborts in iteration 3; the second runs through.
    _free_energy_fails_at(monkeypatch, 4)
    cfg = write_config(tmp_path, sweep_doc())
    code = cli.main(
        ["sweep", "--config", cfg, "--param", "gamma", "--values", "0.3,0.9",
         "--out", str(tmp_path / "sw"), "--jobs", "1"]
    )
    assert code == 0
    with open(tmp_path / "sw" / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["error:LinAlgError", "ok"]


def test_cmd_sweep_names_the_cause_of_a_typed_abort(tmp_path):
    # The gradient abort's cause is a DegenerateUpdateError.
    cfg = write_config(tmp_path, GRADIENT_ABORT_DOC)
    code = cli.main(["sweep", "--config", cfg, "--param", "alpha", "--values", "1e-3",
                     "--out", str(tmp_path / "sw")])
    assert code == 0
    with open(tmp_path / "sw" / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["error:DegenerateUpdateError"]


def test_cmd_sweep_parallel_matches_serial(tmp_path):
    cfg = write_config(tmp_path, sweep_doc())
    cli.main(
        ["sweep", "--config", cfg, "--param", "gamma", "--values", "0.3,0.9",
         "--out", str(tmp_path / "serial")]
    )
    cli.main(
        ["sweep", "--config", cfg, "--param", "gamma", "--values", "0.3,0.9",
         "--out", str(tmp_path / "par"), "--jobs", "2"]
    )
    assert (tmp_path / "serial" / "sweep.csv").read_bytes() == (
        tmp_path / "par" / "sweep.csv"
    ).read_bytes()


def test_sweep_csv_is_the_csv_modules_bytes(tmp_path, monkeypatch):
    # sweep.csv is formatted by hand; its bytes are those csv.DictWriter
    # writes for the same rows, with failed children (error statuses and
    # empty fields) and thresholds both hit and missed.
    rows, child = [], cli._sweep_child

    def recording(payload):
        rows.append(child(payload))
        return rows[-1]

    monkeypatch.setattr(cli, "_sweep_child", recording)
    doc = dict(sweep_doc(), objective="onemax:30",
               model={"family": "bernoulli", "dim": 30, "init": "default"})
    code = cli.main(["sweep", "--config", write_config(tmp_path, doc), "--param", "gamma",
                     "--values", "1.0,1.5,1e-3,-1,0.9", "--out", str(tmp_path / "sw")])
    assert code == 0
    assert [r["status"] for r in rows] == ["ok", "error:ConfigError"] * 2 + ["ok"]
    assert [r["iters_to_threshold"] == "" for r in rows] == [False, True, True, True, False]
    ref = io.StringIO(newline="")
    writer = csv.DictWriter(ref, fieldnames=["param", "value", "index", "seed", "status",
                                             "best_raw_f", "iters_to_threshold"])
    writer.writeheader()
    writer.writerows(rows)
    assert (tmp_path / "sw" / "sweep.csv").read_bytes() == ref.getvalue().encode("utf-8")


@pytest.mark.parametrize("jobs, values, workers",[("5000", "0.3,0.9", [2]), ("4", "0.3", [])])
def test_cmd_sweep_starts_no_more_workers_than_points(tmp_path, monkeypatch, jobs, values,
                                                      workers):
    # A stand-in pool records its worker count and maps in this process,
    # so that no worker is started.
    import concurrent.futures

    seen = []

    @contextlib.contextmanager
    def serial_pool(max_workers):
        seen.append(max_workers)
        yield SimpleNamespace(map=map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool)
    cfg = write_config(tmp_path, sweep_doc())
    code = cli.main(["sweep", "--config", cfg, "--param", "gamma", "--values", values,
                     "--out", str(tmp_path / "sw"), "--jobs", jobs])
    assert code == 0
    assert seen == workers


# ---------------------------------------------------------------------------
# CLI: which commands load scipy
# ---------------------------------------------------------------------------

# Runs the given CLI arguments (none: only the import) in a fresh
# interpreter and prints, last, the exit code and the scipy and concurrent
# modules loaded.
_SCIPY_PROBE = """
import json, sys
from edaem import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.partition(".")[0] in ("scipy", "concurrent", "csv", "_csv"))]))
"""


def _scipy_modules_after(tmp_path, argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv], cwd=tmp_path,
                          capture_output=True, text=True, check=True, env=env)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return modules


# The run configs of the cases below, as changes to base_doc().
_SCIPY_RUNS = {
    "bernoulli-quantile": {},
    "bernoulli-rank": {"shaping": "rank"},
    "gaussian": {"objective": "sphere:2", "shaping": "rank",
                 "model": {"family": "gaussian", "dim": 2, "init": "default"}},
}


# scipy is loaded by the Gaussian family's kernels alone, on first use.  The
# import, diagnose and the Bernoulli runs also load no concurrent.futures:
# only a run that keeps the helper thread imports it (and scipy.linalg does).
# The helper has two uses: a wide Gaussian run draws ahead on it, and a
# Bernoulli run of at least engine.SPLIT_MIN_CELLS cells splits its draws
# there.  The Bernoulli runs and sweep below stay under that gate.  Nor do
# they load the csv module: trace.csv and sweep.csv are formatted by hand.
# scipy.linalg's own imports (numpy.testing, then importlib.metadata) load
# csv, so the Gaussian case cannot hold that.
@pytest.mark.parametrize("case", ["import", "diagnose", "sweep", *_SCIPY_RUNS])
def test_only_the_gaussian_family_loads_scipy(tmp_path, case):
    if case in _SCIPY_RUNS:
        cfg = write_config(tmp_path, base_doc(**_SCIPY_RUNS[case]))
        argv = ["run", "--config", cfg, "--out", "out"]
    elif case == "sweep":
        cfg = write_config(tmp_path, base_doc())
        argv = ["sweep", "--config", cfg, "--param", "N", "--values", "1,20", "--out", "out"]
    else:
        argv = ["diagnose", "default"] if case == "diagnose" else []
    modules = _scipy_modules_after(tmp_path, argv)
    if case == "gaussian":
        assert "scipy.linalg" in modules
    else:
        assert modules == []
