"""Whole-run properties of the construction, on drawn and injected inputs.

The ``quantile``, ``rank`` and ``cdf`` shapings read only the order of the
objective values.  So a run on g(f), with g strictly increasing on the
values the run sees, makes the same weights, refits and theta trajectory as
the run on f, bit for bit (IGO's invariance under monotone transformations
of the objective; Ollivier, Arnold, Auger and Hansen, JMLR 2017).

The Gaussian refit is a weighted mean and covariance, so a run on f(z / 2^k)
from (2^k m, 4^k C) is the run on f from (m, C), scaled, bit for bit: powers
of two scale the draws, the Cholesky factor and every moment exactly.  Only
the covariance repair's absolute floor reads the scale, so runs in which a
repair fires are left out.

A run is Monte Carlo EM, whose iterates are its output: a failure in any
phase of iteration t aborts it with ``RunAbortedError``, which keeps the t
completed records and has the failure as its cause.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import json
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edaem import cli, config, engine, models, objectives, shaping
from edaem.config import RunConfig
from edaem.engine import UpdateRule, run
from edaem.errors import RunAbortedError
from edaem.models import BernoulliProductModel, GaussianModel

# Strictly increasing maps, each on the floats of the runs below: an affine
# map, an exact power-of-two scale that brings unit gaps under 1e-12, and two
# nonlinear ones.  A generation on which one breaks a strict order (tanh may
# round two values to one) is left out by ``assume``.
_TRANSFORMS = {
    "3.5f-7": lambda f: 3.5 * f - 7.0,
    "2^-40 f": lambda f: f * 2.0**-40,
    "tanh(f/1000)": lambda f: np.tanh(f / 1000.0),
    "f^3+e^(f/50)": lambda f: f**3 + np.exp(f / 50.0),
}

_FAMILIES = {
    "bernoulli": (lambda: BernoulliProductModel(np.full(12, 0.5)),
                  (objectives.onemax(12), objectives.leadingones(12))),
    "gaussian": (lambda: GaussianModel.from_mean_cov(np.full(3, 0.5), np.eye(3)),
                 (objectives.sphere_max(3), objectives.rastrigin_max(3))),
}


def _keeps_order(f: np.ndarray, g: np.ndarray) -> bool:
    """Whether g orders the values as f does, ties and strict steps alike."""
    o = np.argsort(f, kind="stable")
    return bool(np.isfinite(g).all()
                and np.array_equal(np.sign(np.diff(f[o])), np.sign(np.diff(g[o]))))


def _composed(base: objectives.Objective, g, kept: list) -> objectives.Objective:
    def _eval(Z):
        f = np.asarray(base.batch_eval(Z), dtype=np.float64)
        out = g(f)
        kept.append(_keeps_order(f, out))
        return out

    return objectives.Objective(name=f"g({base.name})", domain=base.domain, batch_eval=_eval)


def _run(family: str, objective, shaping_text: str, rule: UpdateRule, seed: int):
    return run(SimpleNamespace(
        model=_FAMILIES[family][0](), objective=objective,
        shaping=shaping.ShapingSpec.parse(shaping_text), rule=rule,
        n_samples=30, iterations=6, seed=seed, early_stop_window=None))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from(sorted(_FAMILIES)),
    which=st.integers(0, 1),
    shaping_text=st.sampled_from(["quantile:0.3", "rank", "cdf:0.6"]),
    rule=st.sampled_from([UpdateRule("closed_form"), UpdateRule("map_smoothed", gamma=0.6)]),
    g_name=st.sampled_from(sorted(_TRANSFORMS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_run_on_a_monotone_transform_of_f_is_the_run_on_f(family, which, shaping_text,
                                                            rule, g_name, seed):
    base = _FAMILIES[family][1][which]
    kept: list = []
    got = _run(family, _composed(base, _TRANSFORMS[g_name], kept), shaping_text, rule, seed)
    assume(all(kept))
    ref = _run(family, base, shaping_text, rule, seed)
    assert len(got.records) == len(ref.records) == 6

    def reading(trace):
        return [(r.weighted_mean_shaped_f, r.free_energy_estimate, r.ess, r.free_energy_map)
                for r in trace.records]

    assert reading(got) == reading(ref)
    assert got.final_model.params.values.tobytes() == ref.final_model.params.values.tobytes()


# ---------------------------------------------------------------------------
# Power-of-two scale of the search space (Gaussian)
# ---------------------------------------------------------------------------

_SCALED_BASES = {"sphere": objectives.sphere_max, "rastrigin": objectives.rastrigin_max,
                 "rosenbrock": objectives.rosenbrock_max}


@contextlib.contextmanager
def _repairs_recorded(fired: list):
    """Record, per ``_repair_cov`` call, whether it added jitter: it returns
    its input C when it did not."""
    real = GaussianModel._repair_cov

    def recording(C):
        out = real(C)
        fired.append(out[0] is not C)
        return out

    GaussianModel._repair_cov = staticmethod(recording)
    try:
        yield
    finally:
        GaussianModel._repair_cov = staticmethod(real)


def _scaled(base: objectives.Objective, k: int) -> objectives.Objective:
    return objectives.Objective(name=f"{base.name}(z/2^{k})", domain=base.domain,
                                batch_eval=lambda Z: base.batch_eval(Z * 2.0**-k))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(_SCALED_BASES)),
    d=st.sampled_from([2, 7]),
    shaping_text=st.sampled_from(["quantile:0.25", "rank"]),
    rule=st.sampled_from([UpdateRule("closed_form"), UpdateRule("map_smoothed", gamma=0.7)]),
    k=st.sampled_from([-3, 5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_gaussian_run_on_a_power_of_two_scale_is_the_run_scaled(name, d, shaping_text,
                                                                  rule, k, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-2.0, 2.0, d)
    A = rng.standard_normal((d, d))
    C = A @ A.T / d + 0.1 * np.eye(d)
    C = (C + C.T) / 2.0  # exactly symmetric
    base = _SCALED_BASES[name](d)
    fired: list = []

    def _run_from(mean, cov, objective):
        return run(SimpleNamespace(
            model=GaussianModel.from_mean_cov(mean, cov), objective=objective,
            shaping=shaping.ShapingSpec.parse(shaping_text), rule=rule,
            n_samples=40, iterations=12, seed=seed, early_stop_window=None))

    with _repairs_recorded(fired):
        ref = _run_from(m, C, base)
        got = _run_from(m * 2.0**k, C * 4.0**k, _scaled(base, k))
    assume(not any(fired))
    theta, theta_ref = got.final_model.params.values, ref.final_model.params.values
    assert theta[:d].tobytes() == (theta_ref[:d] * 2.0**k).tobytes()
    assert theta[d:].tobytes() == (theta_ref[d:] * 4.0**k).tobytes()
    assert [(r.best_raw_f, r.ess) for r in got.records] == [
        (r.best_raw_f, r.ess) for r in ref.records]


# ---------------------------------------------------------------------------
# A fault in any phase of an iteration
# ---------------------------------------------------------------------------

# The runs of the matrix, by family and whether run() keeps its helper
# thread (a Gaussian draws ahead on it, a Bernoulli draws a second row range
# there): the objective and the generation size.
_FAULT_RUNS = {
    ("gaussian", False): ("sphere:4", 50),
    ("gaussian", True): ("sphere:100", 1000),
    ("bernoulli", False): ("onemax:20", 50),
    ("bernoulli", True): ("onemax:2000", 1000),
}

# Each phase: the function the fault is injected into, as (owner, name);
# which of its calls count (None: all); the call, counted from 0, that
# belongs to iteration t, as t + skip; the runs it applies to; the errors
# injected, one per case.  The objective raises each of three errors.
# A config build counts too: the default Gaussian start model is repaired
# once.  The helper draws generation t's normals during iteration t - 1;
# generation 0's are drawn on the main thread.
_ALL = tuple(_FAULT_RUNS)
_PHASES = {
    "draw": (models.SearchModel, "sample", None, 0, _ALL, (MemoryError,)),
    "draw_ahead": (GaussianModel, "_noise",
                   lambda rng, n, dim: not isinstance(rng, np.random.Generator),
                   -1, (("gaussian", True),), (FloatingPointError,)),
    "split_draw": (BernoulliProductModel, "_draw_rows",
                   lambda self, bitgen, Z, start, stop, thr: start > 0,
                   0, (("bernoulli", True),), (MemoryError,)),
    "evaluate": (config, "parse_objective", None, 0, _ALL,
                 (ValueError, FloatingPointError, MemoryError)),
    "shape": (shaping, "shape", None, 0, _ALL, (FloatingPointError,)),
    "refit": (engine, "m_step_closed_form", None, 0, _ALL, (ZeroDivisionError,)),
    "build": (models.SearchModel, "with_params", None, 0, _ALL, (OverflowError,)),
    "repair": (GaussianModel, "_repair_cov", None, 1,
               (("gaussian", False), ("gaussian", True)), (np.linalg.LinAlgError,)),
    "free_energy": (engine, "_free_energy", None, 0, _ALL, (np.linalg.LinAlgError,)),
}
_FAULT_CASES = [(phase, run_key, error) for phase, spec in _PHASES.items()
                for run_key in spec[4] for error in spec[5]]
_T = 3


def _inject(monkeypatch, phase: str, error) -> None:
    """Raise ``error`` in the phase, at the call of iteration ``_T``."""
    owner, name, counts, skip = _PHASES[phase][:4]
    calls: list = []

    def faulty(fn):
        def call(*args, **kwargs):
            if counts is None or counts(*args):
                calls.append(None)  # each counted call comes from one thread
                if len(calls) == _T + skip + 1:
                    raise error(f"injected into {phase}")
            return fn(*args, **kwargs)
        return call

    real = inspect.getattr_static(owner, name)
    if name == "parse_objective":  # every objective's batch_eval
        def parse(text):
            obj = real(text)
            return dataclasses.replace(obj, batch_eval=faulty(obj.batch_eval))
        monkeypatch.setattr(owner, name, parse)
    elif isinstance(real, staticmethod):
        monkeypatch.setattr(owner, name, staticmethod(faulty(real.__func__)))
    else:
        monkeypatch.setattr(owner, name, faulty(real))


def _fault_doc(run_key) -> dict:
    family, _ = run_key
    objective, n = _FAULT_RUNS[run_key]
    return {"objective": objective,
            "model": {"family": family, "dim": int(objective.split(":")[1]), "init": "default"},
            "shaping": "quantile:0.25", "update": {"kind": "closed_form"},
            "n_samples": n, "iterations": 6, "seed": 7}


@pytest.mark.parametrize("phase,run_key,error", _FAULT_CASES,
                         ids=[f"{p}-{f}-{'helper' if h else 'inline'}-{e.__name__}"
                              for p, (f, h), e in _FAULT_CASES])
def test_a_fault_in_any_phase_aborts_with_the_completed_records(tmp_path, monkeypatch, capsys,
                                                                phase, run_key, error):
    threads = threading.active_count()
    _inject(monkeypatch, phase, error)
    cfg = RunConfig.from_dict(_fault_doc(run_key))
    assert engine._uses_helper(cfg.model, cfg.n_samples) == run_key[1]
    with pytest.raises(RunAbortedError) as aborted:
        run(cfg)
    assert len(aborted.value.trace.records) == _T
    assert type(aborted.value.__cause__) is error
    assert threading.active_count() == threads

    # The CLI: exit 3, the completed rows, and the cause's type named.
    monkeypatch.undo()
    _inject(monkeypatch, phase, error)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_fault_doc(run_key)))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "RunAbortedError"
    assert err["message"].startswith(f"run aborted at iteration {_T}: {error.__name__}: ")
    assert len((out / "trace.csv").read_bytes().splitlines()) == 1 + _T
    assert not (out / "summary.json").exists()
    assert threading.active_count() == threads
