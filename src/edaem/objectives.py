"""Benchmark black-box objectives with known optima.

All objectives are maximized.  The continuous ones are supplied negated
(sphere_max, rosenbrock_max, rastrigin_max), so their values are <= 0 and
they must be paired with rank/quantile/exponential shaping; identity
shaping rejects negative values.

Objectives are addressable by config strings: ``onemax:32``,
``leadingones:16``, ``trap:5x6`` (block size x block count), ``sphere:10``,
``rosenbrock:4``, ``rastrigin:10``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DomainError, ObjectiveError


@dataclass(frozen=True)
class Domain:
    """The space an objective and the models paired with it live on:
    {0,1}^dim, R^dim or {0..arity-1}^dim, with dim >= 1, checked here
    for every objective and model.  :meth:`check` is the library's one
    support check."""

    kind: str  # "binary" | "categorical" | "continuous"
    dim: int
    arity: int | None = None

    def __post_init__(self):
        if not self.dim >= 1:
            raise DomainError(f"a {self.kind} domain needs dim >= 1, got {self.dim}")

    def check(self, Z) -> np.ndarray:
        """Coerce a point or batch of points to shape (n, dim) and check
        the support.  1-D input of length ``dim`` is one point; otherwise,
        for dim == 1, a vector of scalar points (a 0-d scalar is one point).

        Returns the dtype the kernels take: ``bool`` as given (it holds
        only {0,1}), other binary and all continuous input as float64,
        categorical input as int64.
        """
        Z = np.asarray(Z)
        shape = Z.shape
        if Z.ndim == 0:
            Z = Z.reshape(1, 1)
        elif Z.ndim == 1:
            Z = Z.reshape(1, -1) if Z.shape[0] == self.dim else Z.reshape(-1, 1)
        if Z.ndim != 2 or Z.shape[1] != self.dim:
            raise DomainError(f"expected points of dimension {self.dim}, got shape {shape}")
        # Complex, string or object input would be cast (and truncated) silently.
        if Z.dtype.kind not in "biuf":
            raise DomainError(f"points must hold real numbers, got dtype {Z.dtype}")
        if self.kind == "binary":
            if Z.dtype != np.bool_:
                Z = np.asarray(Z, dtype=np.float64)
                if not np.all((Z == 0.0) | (Z == 1.0)):
                    raise DomainError("binary support is {0,1}^d")
            return Z
        Z = np.asarray(Z, dtype=np.float64)
        if self.kind == "categorical":
            # Range first, on the float values: NaN, inf or 1e30 would not
            # survive the cast to int64.
            if not np.all((Z >= 0.0) & (Z < self.arity) & (Z == np.floor(Z))):
                raise DomainError(f"categorical support is {{0..{self.arity - 1}}}^d")
            return Z.astype(np.int64)
        if not np.isfinite(Z).all():
            raise DomainError("continuous support requires finite coordinates")
        return Z


@dataclass(frozen=True)
class Objective:
    """A deterministic total map from the domain to the reals.

    ``batch_eval`` takes an (n, dim) array and returns (n,) values;
    ``known_opt`` is (argmax point or None, max value) where declared.
    """

    name: str
    domain: Domain
    batch_eval: Callable[[np.ndarray], np.ndarray]
    known_opt: Optional[tuple] = None


def evaluate_batch(obj: Objective, Z) -> np.ndarray:
    """The values of a checked batch; one point of length ``dim`` is a
    batch of one."""
    return evaluate_unchecked(obj, obj.domain.check(Z))


def evaluate_unchecked(obj: Objective, Z: np.ndarray) -> np.ndarray:
    """``batch_eval`` on a checked (n, dim) batch, as n float64 values;
    output of another length raises :class:`ObjectiveError`."""
    n = Z.shape[0]
    raw = np.asarray(obj.batch_eval(Z), dtype=np.float64)
    if raw.size != n:
        raise ObjectiveError(f"objective {obj.name!r} returned {raw.size} values for {n} points")
    return raw.reshape(n)


def onemax(dim: int) -> Objective:
    # The counts are exact integers in any type that holds dim, so the
    # values are identical for any input dtype; uint16 (below 2**16) sums a
    # bool generation fastest, and callers convert the result.
    count = np.uint16 if dim < 1 << 16 else np.int64
    return Objective(
        name=f"onemax:{dim}",
        domain=Domain("binary", dim),
        batch_eval=lambda Z: np.sum(Z, axis=1, dtype=count),
        known_opt=(np.ones(dim, dtype=np.int64), float(dim)),
    )


def leadingones(dim: int) -> Objective:
    def _eval(Z):
        # The count is the index of the first zero bit, or dim if there is
        # none.  argmin finds the first zero of a row without copying Z; a
        # row whose argmin is a one has no zero.
        Z = np.asarray(Z)
        first = np.argmin(Z, axis=1)
        return np.where(Z[np.arange(Z.shape[0]), first] == 0, first, Z.shape[1])

    return Objective(
        name=f"leadingones:{dim}",
        domain=Domain("binary", dim),
        batch_eval=_eval,
        known_opt=(np.ones(dim, dtype=np.int64), float(dim)),
    )


def trap(block_size: int, n_blocks: int) -> Objective:
    """Concatenated deceptive traps: a block of k bits scores k when all
    ones, otherwise k - 1 - (number of ones), which points away from the
    optimum."""
    k, b = block_size, n_blocks
    dim = k * b

    def _eval(Z):
        units = Z.reshape(Z.shape[0], b, k).sum(axis=2)
        return np.where(units == k, float(k), k - 1.0 - units).sum(axis=1)

    return Objective(
        name=f"trap:{k}x{b}",
        domain=Domain("binary", dim),
        batch_eval=_eval,
        known_opt=(np.ones(dim, dtype=np.int64), float(k * b)),
    )


def sphere_max(dim: int) -> Objective:
    def _eval(Z):
        # Squares one block of rows at a time, with no (n, dim) temporary;
        # each row is summed by the same pairwise reduction as
        # -np.sum(Z**2, axis=1), so the values are equal bit for bit.
        from .models import _row_blocks  # here, as models imports this module

        Z = np.asarray(Z, dtype=np.float64)
        out = np.empty(Z.shape[0])
        for rows, block in _row_blocks(*Z.shape):
            np.square(Z[rows], out=block).sum(axis=1, out=out[rows])
        return -out

    return Objective(
        name=f"sphere_max:{dim}",
        domain=Domain("continuous", dim),
        batch_eval=_eval,
        known_opt=(np.zeros(dim), 0.0),
    )


def rosenbrock_max(dim: int) -> Objective:
    if dim < 2:
        raise ConfigError("rosenbrock needs dim >= 2")

    def _eval(Z):
        Z = np.asarray(Z, dtype=np.float64)
        a, b = Z[:, :-1], Z[:, 1:]
        return -np.sum(100.0 * (b - a**2) ** 2 + (1.0 - a) ** 2, axis=1)

    return Objective(
        name=f"rosenbrock_max:{dim}",
        domain=Domain("continuous", dim),
        batch_eval=_eval,
        known_opt=(np.ones(dim), 0.0),
    )


def rastrigin_max(dim: int) -> Objective:
    def _eval(Z):
        Z = np.asarray(Z, dtype=np.float64)
        return -(10.0 * Z.shape[1] + np.sum(Z**2 - 10.0 * np.cos(2.0 * np.pi * Z), axis=1))

    return Objective(
        name=f"rastrigin_max:{dim}",
        domain=Domain("continuous", dim),
        batch_eval=_eval,
        known_opt=(np.zeros(dim), 0.0),
    )


NEGATED_CONTINUOUS = ("sphere_max", "rosenbrock_max", "rastrigin_max")


def _size(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(f"size {n} is below 1")
    return n


def parse_objective(text: str) -> Objective:
    """Build an objective from a name:params config string."""
    name, _, arg = text.strip().partition(":")
    name = name.strip().lower()
    try:
        if name == "onemax":
            return onemax(_size(arg))
        if name == "leadingones":
            return leadingones(_size(arg))
        if name == "trap":
            k, b = (_size(x) for x in arg.lower().split("x"))
            return trap(k, b)
        if name in ("sphere", "sphere_max"):
            return sphere_max(_size(arg))
        if name in ("rosenbrock", "rosenbrock_max"):
            return rosenbrock_max(_size(arg))
        if name in ("rastrigin", "rastrigin_max"):
            return rastrigin_max(_size(arg))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad objective parameters in {text!r}: {exc}") from exc
    raise ConfigError(
        f"unknown objective {text!r}; known: onemax:D, leadingones:D, trap:KxB, "
        "sphere:D, rosenbrock:D, rastrigin:D"
    )
