"""Monotone shaping of raw objective values into nonnegative weights.

Shaping is applied per generation: it rescales a vector of objective values
into selection weights without moving the optima.  Kinds:

* ``identity``       -- weights are the raw values (all must be >= 0).
* ``exponential(b)`` -- exp(b * (f - max f)); the max shift guards against
  overflow and cancels once weights are normalized.
* ``quantile(rho)``  -- weight 1 on the ceil(rho*N) largest values (rho*N
  rounded to 9 decimals first), else 0; ties broken by sample index
  (stable), so reruns are deterministic.
* ``rank``           -- (1 + average ascending rank) / N, in (0, 1]; tied
  values share a weight.
* ``cdf_threshold(q)`` -- indicator of f >= empirical q-quantile; unlike
  ``quantile`` this keeps every sample tied at the threshold.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateWeightsError, ShapingInputError

# The one parameter each kind takes: its name in config strings, its field
# and its range.  A kind without one maps to None.
_PARAMS = {
    "identity": None,
    "exponential": ("exp", "beta", "a finite number > 0", lambda v: v > 0.0),
    "quantile": ("quantile", "rho", "a number in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "rank": None,
    "cdf_threshold": ("cdf", "level", "a quantile level in [0, 1)", lambda v: 0.0 <= v < 1.0),
}
KINDS = tuple(_PARAMS)
_ALIASES = {"q": "quantile", **{p[0]: kind for kind, p in _PARAMS.items() if p}}


def is_finite_real(x) -> bool:
    """A finite real number, not a bool: the type of every hyperparameter."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and -math.inf < x < math.inf


@dataclass(frozen=True)
class ShapingSpec:
    """Which monotone transform turns raw objective values into weights.
    The one shaping schema: the kind, the parameter it takes and that
    parameter's type and range are checked here."""

    kind: str
    beta: float | None = None
    rho: float | None = None
    level: float | None = None

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _PARAMS):
            raise ConfigError(f"unknown shaping kind {self.kind!r}; valid: {KINDS}")
        _, name, valid, in_range = _PARAMS[self.kind] or (None,) * 4
        extra = [f for f in ("beta", "rho", "level") if f != name and getattr(self, f) is not None]
        if extra:
            allowed = f"only {name}" if name else "no parameter"
            raise ConfigError(f"{self.kind} shaping takes {allowed}, got {extra}")
        value = getattr(self, name) if name else None
        if name and not (is_finite_real(value) and in_range(value)):
            raise ConfigError(f"{self.kind} shaping needs {name} {valid}, got {value!r}")

    @classmethod
    def parse(cls, text: str) -> "ShapingSpec":
        """Parse config strings: "identity", "rank", "quantile:0.25" (or
        "q:0.25"), "exp:2.0", "cdf:0.9"; a kind's full name also works."""
        name, colon, arg = text.strip().partition(":")
        kind = _ALIASES.get(name.strip().lower(), name.strip().lower())
        if kind not in _PARAMS:
            raise ConfigError(f"unknown shaping spec {text!r}")
        if _PARAMS[kind] is None:
            if colon:
                raise ConfigError(f"{kind} shaping takes no parameter, got {text!r}")
            return cls(kind)
        try:
            value = float(arg)
        except ValueError as exc:
            raise ConfigError(f"bad shaping argument in {text!r}: {exc}") from exc
        return cls(kind, **{_PARAMS[kind][1]: value})

    def __str__(self) -> str:
        if _PARAMS[self.kind] is None:
            return self.kind
        short, name = _PARAMS[self.kind][:2]
        return f"{short}:{getattr(self, name)}"


def shape(spec: ShapingSpec, f_values) -> np.ndarray:
    """Map raw objective values to nonnegative weights, monotone in rank.
    All-zero weights raise :class:`DegenerateWeightsError`."""
    f = np.asarray(f_values, dtype=np.float64).reshape(-1)
    if f.shape[0] < 1:
        raise ShapingInputError("need at least one objective value")
    if not np.isfinite(f).all():
        raise ShapingInputError("objective values must be finite (NaN/inf seen)")
    n = f.shape[0]

    if spec.kind == "identity":
        if (f < 0.0).any():
            raise ShapingInputError(
                "identity shaping assumes nonnegative objective values; "
                "use rank/quantile/exponential shaping for signed objectives"
            )
        w = f.copy()
    elif spec.kind == "exponential":
        w = np.exp(spec.beta * (f - f.max()))
    elif spec.kind == "quantile":
        # rho * n rounded to 9 decimals first, so that a product meant as
        # an integer (0.07 * 100 = 7.000000000000001) keeps that many.
        m = max(1, math.ceil(round(spec.rho * n, 9)))
        order = (-f).argsort(kind="stable")
        w = np.zeros(n)
        w[order[:m]] = 1.0
    elif spec.kind == "rank":
        w = _average_ranks(f) / n
    else:  # cdf_threshold
        tau = np.quantile(f, spec.level)
        w = (f >= tau).astype(np.float64)

    if not (w > 0.0).any():
        raise DegenerateWeightsError(
            f"{spec.kind} shaping produced all-zero weights for this generation"
        )
    return w


def _average_ranks(f: np.ndarray) -> np.ndarray:
    """Ascending ranks from 1, each tie group given the mean of its ranks:
    a group of c equal values above b smaller ones ranks b + (c + 1) / 2, a
    half-integer and so exact."""
    _, group, counts = np.unique(f, return_inverse=True, return_counts=True)
    below = np.cumsum(counts) - counts
    return (below + (counts + 1) / 2.0)[group]


def log_shift(spec: ShapingSpec, f_values) -> float:
    """Log of the constant factor the shaped weights were divided by.

    Exponential shaping subtracts the generation max inside the exponent;
    ``shape(...) * exp(log_shift(...))`` restores the unshifted transform.
    Other kinds shift nothing.  Used by free-energy diagnostics so the
    reported values do not depend on the overflow guard.
    """
    f = np.asarray(f_values, dtype=np.float64).reshape(-1)
    if spec.kind == "exponential":
        return float(spec.beta * f.max())
    return 0.0
