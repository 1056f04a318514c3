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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateWeightsError, ShapingInputError

KINDS = ("identity", "exponential", "quantile", "rank", "cdf_threshold")


@dataclass(frozen=True)
class ShapingSpec:
    """Which monotone transform turns raw objective values into weights."""

    kind: str
    beta: float | None = None
    rho: float | None = None
    level: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown shaping kind {self.kind!r}; valid: {KINDS}")
        if self.kind == "exponential":
            if self.beta is None or not self.beta > 0:
                raise ConfigError(f"exponential shaping needs beta > 0, got {self.beta}")
        if self.kind == "quantile":
            if self.rho is None or not 0.0 < self.rho <= 1.0:
                raise ConfigError(f"quantile shaping needs rho in (0, 1], got {self.rho}")
        if self.kind == "cdf_threshold":
            if self.level is None or not 0.0 <= self.level < 1.0:
                raise ConfigError(
                    f"cdf_threshold shaping needs a quantile level in [0, 1), got {self.level}"
                )

    @classmethod
    def parse(cls, text: str) -> "ShapingSpec":
        """Parse config strings: "identity", "rank", "quantile:0.25",
        "exp:2.0", "cdf:0.9"."""
        name, _, arg = text.strip().partition(":")
        name = name.strip().lower()
        try:
            if name == "identity":
                return cls("identity")
            if name == "rank":
                return cls("rank")
            if name in ("quantile", "q"):
                return cls("quantile", rho=float(arg))
            if name in ("exp", "exponential"):
                return cls("exponential", beta=float(arg))
            if name in ("cdf", "cdf_threshold"):
                return cls("cdf_threshold", level=float(arg))
        except ValueError as exc:
            raise ConfigError(f"bad shaping argument in {text!r}: {exc}") from exc
        raise ConfigError(f"unknown shaping spec {text!r}")

    def __str__(self) -> str:
        if self.kind == "identity":
            return "identity"
        if self.kind == "rank":
            return "rank"
        if self.kind == "quantile":
            return f"quantile:{self.rho}"
        if self.kind == "exponential":
            return f"exp:{self.beta}"
        return f"cdf:{self.level}"


def shape(spec: ShapingSpec, f_values) -> np.ndarray:
    """Map raw objective values to nonnegative weights, monotone in rank."""
    f = np.asarray(f_values, dtype=np.float64).reshape(-1)
    if f.shape[0] < 1:
        raise ShapingInputError("need at least one objective value")
    if not np.all(np.isfinite(f)):
        raise ShapingInputError("objective values must be finite (NaN/inf seen)")
    n = f.shape[0]

    if spec.kind == "identity":
        if np.any(f < 0.0):
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
        order = np.argsort(-f, kind="stable")
        w = np.zeros(n)
        w[order[:m]] = 1.0
    elif spec.kind == "rank":
        w = _average_ranks(f) / n
    else:  # cdf_threshold
        tau = np.quantile(f, spec.level)
        w = (f >= tau).astype(np.float64)

    if not np.any(w > 0.0):
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
