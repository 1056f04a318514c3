"""Strict run-configuration schema.

A run config is a JSON object with exactly these keys (unknown keys are
rejected):

    {
      "objective": "onemax:32",
      "model": {"family": "bernoulli", "dim": 32, "init": "default"},
      "shaping": "quantile:0.5",
      "update": {"kind": "map_smoothed", "gamma": 0.8},
      "n_samples": 200,
      "iterations": 200,
      "seed": 7,
      "out_dir": "runs/onemax",          // optional
      "early_stop_window": 50            // optional
    }

``model.init`` is "default" (Bernoulli p = 0.5, Gaussian m = 0 / S = I),
a flat list in the family's expectation-parameter layout, or for the
Gaussian an object {"mean": [...], "cov": [[...]]}.
``update`` is {"kind": "closed_form"}, {"kind": "map_smoothed", "gamma": g}
with g in (0, 1], or {"kind": "gradient", "alpha": a, "k": k}.  ``seed``
is an integer >= 0, the entropy of the run's seed sequence.

Validation happens before any computation and error messages name the
offending field and its valid range.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .engine import _RULE_PARAMS, UpdateRule
from .errors import ConfigError, DegenerateModelError, DomainError
from .models import FAMILIES, BernoulliProductModel, GaussianModel, SearchModel, all_real
from .objectives import NEGATED_CONTINUOUS, Domain, Objective, parse_objective
from .shaping import ShapingSpec

_TOP_KEYS = {
    "objective",
    "model",
    "shaping",
    "update",
    "n_samples",
    "iterations",
    "seed",
    "out_dir",
    "early_stop_window",
}
_MODEL_KEYS = {"family", "dim", "init"}
_UPDATE_KEYS = {"kind"}.union(*_RULE_PARAMS.values())


@dataclass(frozen=True)
class RunConfig:
    objective: Objective
    model: SearchModel
    shaping: ShapingSpec
    rule: UpdateRule
    n_samples: int
    iterations: int
    seed: int
    out_dir: Optional[str] = None
    early_stop_window: Optional[int] = None
    raw: Optional[dict] = None  # original document, echoed into summaries

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(doc) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("objective", "model", "shaping", "update", "n_samples", "iterations", "seed"):
            if key not in doc:
                raise ConfigError(f"missing required config key {key!r}")

        objective = parse_objective(_expect(doc, "objective", str))
        model = _build_model(doc["model"], objective)
        shaping = ShapingSpec.parse(_expect(doc, "shaping", str))
        rule = _build_rule(doc["update"])

        n_samples = _expect(doc, "n_samples", int)
        if n_samples < 2:
            raise ConfigError(f"n_samples must be >= 2, got {n_samples}")
        iterations = _expect(doc, "iterations", int)
        if iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {iterations}")
        seed = _seed(doc["seed"])

        out_dir = doc.get("out_dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ConfigError("out_dir must be a string path")
        window = doc.get("early_stop_window")
        if window is not None and _expect(doc, "early_stop_window", int) < 1:
            raise ConfigError(f"early_stop_window must be a positive integer, got {window}")

        base = objective.name.split(":", 1)[0]
        if shaping.kind == "identity" and base in NEGATED_CONTINUOUS:
            raise ConfigError(
                f"objective {objective.name!r} is negated (values <= 0); identity "
                "shaping requires nonnegative values, use rank/quantile/exponential"
            )

        return cls(
            objective=objective,
            model=model,
            shaping=shaping,
            rule=rule,
            n_samples=n_samples,
            iterations=iterations,
            seed=seed,
            out_dir=out_dir,
            early_stop_window=window,
            raw=dict(doc),
        )

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    def with_seed(self, seed: int) -> "RunConfig":
        """This config with another seed, which the echo, if there is one,
        records too; nothing else is parsed or built again."""
        seed = _seed(seed)
        raw = None if self.raw is None else {**self.raw, "seed": seed}
        return replace(self, seed=seed, raw=raw)


def _seed(value) -> int:
    """The one seed check: an integer >= 0, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {value!r}")
    return int(value)


def _expect(doc: dict, key: str, typ) -> object:
    val = doc[key]
    if typ is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{key} must be an integer, got {val!r}")
    elif not isinstance(val, typ):
        raise ConfigError(f"{key} must be of type {typ.__name__}, got {val!r}")
    return val


def _build_rule(doc) -> UpdateRule:
    if not isinstance(doc, dict):
        raise ConfigError("update must be an object with a 'kind' key")
    unknown = set(doc) - _UPDATE_KEYS
    if unknown:
        raise ConfigError(f"unknown update keys: {sorted(unknown)}")
    params = {key: val for key, val in doc.items() if key != "kind"}
    return UpdateRule(doc.get("kind"), **params)


def _build_model(doc, objective: Objective) -> SearchModel:
    if not isinstance(doc, dict):
        raise ConfigError("model must be an object")
    unknown = set(doc) - _MODEL_KEYS
    if unknown:
        raise ConfigError(f"unknown model keys: {sorted(unknown)}")
    family = doc.get("family")
    dim = doc.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ConfigError(f"model.dim must be a positive integer, got {dim!r}")
    if family not in ("bernoulli", "gaussian"):
        raise ConfigError(f"model.family must be one of bernoulli, gaussian; got {family!r}")
    cls = FAMILIES[family]

    # Pair before building: a model of the wrong dimension may be huge.
    dom = objective.domain
    if Domain(cls.kind, dim) != dom:
        if dim != dom.dim:
            raise ConfigError(f"model.dim = {dim} does not match objective dimension {dom.dim}")
        raise ConfigError(f"{family} model needs a {cls.kind} objective, got {dom.kind}")

    init = doc.get("init", "default")
    if init == "default":
        if cls is BernoulliProductModel:
            return BernoulliProductModel(np.full(dim, 0.5))
        return GaussianModel(np.zeros(dim), np.eye(dim))
    # The family's own checks (a probability outside [0, 1], a covariance no
    # jitter repairs) reject values of the config, so their errors are its.
    try:
        if cls is GaussianModel and isinstance(init, dict):
            extra = set(init) - {"mean", "cov"}
            if extra:
                raise ConfigError(f"unknown gaussian init keys: {sorted(extra)}")
            mean = _init_array(init.get("mean"), (dim,), "model.init.mean")
            cov = _init_array(init.get("cov"), (dim, dim), "model.init.cov")
            return GaussianModel.from_mean_cov(mean, cov)
        return cls._from_layout(_init_array(init, (cls._param_count(dom),), "model.init"), dom)
    except (DomainError, DegenerateModelError) as exc:
        raise ConfigError(f"model.init: {exc}") from exc


def _init_array(val, shape: tuple, what: str) -> np.ndarray:
    size = "x".join(map(str, shape))
    if not isinstance(val, (list, tuple)):
        raise ConfigError(f"{what} must be a {size} list of numbers, got {type(val).__name__}")
    if not all_real(val):
        raise ConfigError(f"{what} entries must be real numbers, not bools, strings, nulls "
                          "or objects")
    try:
        arr = np.asarray(val, dtype=np.float64)
    except (ValueError, OverflowError) as exc:  # a ragged list, an int past float64
        raise ConfigError(f"{what} must be a {size} list of numbers: {exc}") from exc
    if arr.shape != shape:
        raise ConfigError(f"{what} must be a {size} list of numbers, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{what} must be finite")
    return arr
