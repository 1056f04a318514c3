"""Config-schema and CLI tests: strict validation, exit codes, output
files, determinism, and the library/CLI seam."""

from __future__ import annotations

import csv
import json
import re
import tracemalloc

import numpy as np
import pytest

from edaem import cli
from edaem.config import RunConfig
from edaem.engine import run as engine_run
from edaem.errors import ConfigError


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


def test_cmd_run_non_edaem_error_exit_3(tmp_path, capsys, monkeypatch):
    # exit 1 is reserved for failed diagnostic checks
    monkeypatch.setattr(cli, "engine_run", _raise_linalg_error)
    cfg = write_config(tmp_path, base_doc())
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "LinAlgError"
    assert err["exit_code"] == 3


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


def test_cmd_diagnose_default_peak_memory_below_16_mb(capsys):
    # The PPM grid search works in blocks of about 250k (grid point, state)
    # cells and looks up log p(z|theta) in a per-coordinate table: about 8 MB
    # traced.  A full grid of the d = 2 fixtures at step 1e-3 would take
    # about 290 MB, and per-block copies of the grid about 21 MB.
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
