"""Exponential-family search distributions in expectation parameterization.

Every model here is an exponential family written so that its parameter
vector theta equals the expected sufficient statistics E[T(z)].  That makes
the weighted maximum-likelihood refit a literal weighted mean of T(z), and
the convex-combination smoothing update a one-liner on parameter vectors.

Families:

* :class:`BernoulliProductModel` -- independent bits, theta = per-bit means.
* :class:`GaussianModel` -- full-covariance Gaussian, theta = (mean,
  lower-triangular half of the second-moment matrix E[z z^T]).
* :class:`CategoricalProductModel` -- independent categorical sites, theta =
  per-site probabilities with the last category dropped (minimal layout, so
  the Fisher information is nonsingular).

Models are immutable after construction and safe to share across threads;
sampling always takes an explicit seed.

A note on smoothing: the convex-combination update blends expectation
parameters, i.e. for the Gaussian it smooths (mean, second moment) jointly.
CMA-ES-style implementations usually smooth the covariance matrix directly;
the two conventions agree only when the mean is unchanged.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .errors import (
    BoundaryError,
    DegenerateModelError,
    DomainError,
    FamilyMismatchError,
)

PROB_FLOOR = 1e-3
EIG_FLOOR = 1e-12
JITTER_SCALE = 1e-10
MAX_JITTER_DOUBLINGS = 10


@dataclass(frozen=True)
class ExpectationParams:
    """Carrier for an expectation-parameter vector.

    ``values`` is a 1-D float64 vector of length D in the family's
    documented layout; ``family_tag`` identifies the family instance
    (e.g. ``"bernoulli:8"``, ``"gaussian:3"``, ``"categorical:4x3"``).
    Validity enforcement (floors, positive-definiteness) lives in the
    family constructors, which repair or reject on construction.
    """

    values: np.ndarray
    family_tag: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).reshape(-1).copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.shape[0]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, copy=True)
    a.setflags(write=False)
    return a


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise DegenerateModelError(f"{what} contains non-finite entries")


def _batchify(Z, dim: int) -> np.ndarray:
    """Coerce a point or batch of points to shape (n, dim).

    1-D input of length ``dim`` is a single point; otherwise, for dim == 1,
    a vector of scalar points.
    """
    Z = np.asarray(Z)
    if Z.ndim == 0:
        Z = Z.reshape(1, 1)
    elif Z.ndim == 1:
        Z = Z.reshape(1, -1) if Z.shape[0] == dim else Z.reshape(-1, 1)
    if Z.ndim != 2 or Z.shape[1] != dim:
        raise DomainError(f"expected points of dimension {dim}, got shape {Z.shape}")
    return Z


class SearchModel:
    """Common surface of the search distributions.

    Subclasses implement sampling, densities, sufficient statistics, the
    score with respect to the expectation parameters, and the Fisher
    information in that parameterization.
    """

    family = ""

    # -- parameter plumbing -------------------------------------------------

    @property
    def dim(self) -> int:
        raise NotImplementedError

    @property
    def n_params(self) -> int:
        raise NotImplementedError

    @property
    def family_tag(self) -> str:
        raise NotImplementedError

    @property
    def params(self) -> ExpectationParams:
        return ExpectationParams(self._param_values(), self.family_tag)

    def _param_values(self) -> np.ndarray:
        raise NotImplementedError

    def with_params(self, params) -> "SearchModel":
        """Return a new model of the same family with the given parameters.

        Accepts an :class:`ExpectationParams` (family tag must match) or a
        bare vector.  Family repair (floors, PSD jitter) is applied by the
        constructor.
        """
        if isinstance(params, ExpectationParams):
            if params.family_tag != self.family_tag:
                raise FamilyMismatchError(
                    f"params tagged {params.family_tag!r} cannot parameterize "
                    f"a {self.family_tag!r} model"
                )
            values = params.values
        else:
            values = np.asarray(params, dtype=np.float64).reshape(-1)
        if values.shape[0] != self.n_params:
            raise FamilyMismatchError(
                f"{self.family_tag!r} expects {self.n_params} parameters, "
                f"got {values.shape[0]}"
            )
        return self._from_values(values)

    def _from_values(self, values: np.ndarray) -> "SearchModel":
        raise NotImplementedError

    # -- core operations ----------------------------------------------------

    def sample(self, n: int, rng_seed: int) -> np.ndarray:
        """Draw ``n`` i.i.d. points; identical (seed, model, n) gives
        bit-identical output."""
        raise NotImplementedError

    def log_density(self, z) -> float:
        Z = self._as_batch(z)
        if Z.shape[0] != 1:
            raise DomainError("log_density takes a single point; use log_density_batch")
        return float(self.log_density_batch(Z)[0])

    def log_density_batch(self, Z) -> np.ndarray:
        raise NotImplementedError

    def sufficient_stats(self, z) -> np.ndarray:
        return self.sufficient_stats_batch(self._as_batch(z))[0]

    def sufficient_stats_batch(self, Z) -> np.ndarray:
        raise NotImplementedError

    def weighted_stats(self, Z, w) -> np.ndarray:
        """Weighted sum of sufficient statistics, sum_i w_i T(z_i).

        Families override this when they can form the sum without
        materializing the (n, n_params) statistics matrix."""
        return w @ self.sufficient_stats_batch(Z)

    def grad_log_density(self, z) -> np.ndarray:
        """Score with respect to the expectation parameters at one point.

        Requires strictly interior parameters; raises
        :class:`BoundaryError` at a floor/eigenvalue boundary.
        """
        self._check_interior()
        return self._score_batch(self._as_batch(z))[0]

    def grad_log_density_batch(self, Z) -> np.ndarray:
        self._check_interior()
        return self._score_batch(self._as_batch(Z))

    def fisher_information(self) -> np.ndarray:
        """Fisher information matrix in the expectation parameterization.

        For a minimal exponential family in mean coordinates this equals
        the inverse covariance of the sufficient statistics.
        """
        self._check_interior()
        return self._fisher()

    # -- canonical-form pieces (used by diagnostics and tests) --------------

    def natural_params(self) -> np.ndarray:
        """Natural parameter vector eta, laid out to pair with T(z) so that
        log p(z) = log h(z) + eta . T(z) - log_partition()."""
        raise NotImplementedError

    def log_partition(self) -> float:
        raise NotImplementedError

    def log_base_measure(self, z) -> float:
        return 0.0

    # -- internals ----------------------------------------------------------

    def _as_batch(self, Z) -> np.ndarray:
        raise NotImplementedError

    def _score_batch(self, Z) -> np.ndarray:
        raise NotImplementedError

    def _fisher(self) -> np.ndarray:
        raise NotImplementedError

    def _check_interior(self) -> None:
        raise NotImplementedError

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> str:
        """Byte-stable JSON: fixed field order, shortest-roundtrip floats."""
        return json.dumps(self.to_json_dict())


class BernoulliProductModel(SearchModel):
    """Product of independent Bernoulli bits.

    theta = p with E[z_j] = p_j, T(z) = z, natural params
    eta_j = log(p_j / (1 - p_j)).  Construction clips probabilities into
    [floor, 1 - floor] (values outside [0, 1] are rejected).
    """

    family = "bernoulli"

    def __init__(self, probs, floor: float = PROB_FLOOR):
        probs = np.asarray(probs, dtype=np.float64).reshape(-1)
        _require_finite(probs, "probs")
        if not 0.0 < floor < 0.5:
            raise ValueError(f"floor must lie in (0, 0.5), got {floor}")
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise DomainError("Bernoulli probabilities must lie in [0, 1]")
        self._probs = _readonly(np.clip(probs, floor, 1.0 - floor))
        self._floor = float(floor)

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    @property
    def floor(self) -> float:
        return self._floor

    @property
    def dim(self) -> int:
        return self._probs.shape[0]

    @property
    def n_params(self) -> int:
        return self.dim

    @property
    def family_tag(self) -> str:
        return f"bernoulli:{self.dim}"

    def _param_values(self) -> np.ndarray:
        return self._probs.copy()

    def _from_values(self, values: np.ndarray) -> "BernoulliProductModel":
        # Repair policy for updates: clip into the floored box.
        return BernoulliProductModel(np.clip(values, 0.0, 1.0), floor=self._floor)

    def _as_batch(self, Z) -> np.ndarray:
        Z = _batchify(Z, self.dim)
        if Z.dtype == np.bool_:  # holds only {0,1}, like the model's own samples
            return Z
        vals = np.asarray(Z, dtype=np.float64)
        if not np.all((vals == 0.0) | (vals == 1.0)):
            raise DomainError("Bernoulli support is {0,1}^d")
        return vals

    def sample(self, n: int, rng_seed: int) -> np.ndarray:
        """Draw ``n`` points as a bool array, one byte per bit."""
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = np.random.default_rng(rng_seed)
        return rng.random((n, self.dim)) < self._probs

    def log_density_batch(self, Z) -> np.ndarray:
        Z = self._as_batch(Z)
        p = self._probs
        return Z @ np.log(p) + (1.0 - Z) @ np.log1p(-p)

    def sufficient_stats_batch(self, Z) -> np.ndarray:
        return np.asarray(self._as_batch(Z), dtype=np.float64)

    def weighted_stats(self, Z, w) -> np.ndarray:
        return w @ self._as_batch(Z)

    def _score_batch(self, Z) -> np.ndarray:
        Z = self._as_batch(Z)
        p = self._probs
        return Z / p - (1.0 - Z) / (1.0 - p)

    def _fisher(self) -> np.ndarray:
        p = self._probs
        return np.diag(1.0 / (p * (1.0 - p)))

    def _check_interior(self) -> None:
        p = self._probs
        if np.any(p <= self._floor) or np.any(p >= 1.0 - self._floor):
            raise BoundaryError(
                "a probability sits at the floor boundary; score and Fisher "
                "information require strictly interior parameters"
            )

    def natural_params(self) -> np.ndarray:
        p = self._probs
        return np.log(p) - np.log1p(-p)

    def log_partition(self) -> float:
        return float(-np.sum(np.log1p(-self._probs)))

    def to_json_dict(self) -> dict:
        return {
            "family": "bernoulli",
            "dim": self.dim,
            "params": [float(v) for v in self._probs],
            "floor": self._floor,
        }


@functools.lru_cache(maxsize=None)
def _tril_indices(d: int):
    # Cached and shared by every caller, hence read-only.
    rows, cols = np.tril_indices(d)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def vech(M: np.ndarray) -> np.ndarray:
    """Lower-triangular half-vectorization, row-major over rows i >= j."""
    d = M.shape[0]
    return M[_tril_indices(d)]


def unvech(v: np.ndarray, d: int) -> np.ndarray:
    M = np.zeros((d, d))
    idx = _tril_indices(d)
    M[idx] = v
    M = M + M.T - np.diag(np.diag(M))
    return M


class GaussianModel(SearchModel):
    """Full-covariance Gaussian in expectation parameterization.

    theta = (m, vech(S)) with m = E[z] and S = E[z z^T]; the covariance
    C = S - m m^T is a derived view.  T(z) = (z, vech(z z^T)), so the
    weighted-mean refit reproduces weighted sample moments exactly.

    Construction symmetrizes S and repairs C to be positive definite with
    smallest eigenvalue >= ``eig_floor`` by adding trace-scaled jitter,
    doubling at most ``MAX_JITTER_DOUBLINGS`` times; if that fails the
    model raises instead of silently clamping.
    """

    family = "gaussian"

    def __init__(
        self,
        mean,
        second_moment,
        eig_floor: float = EIG_FLOOR,
        jitter_scale: float = JITTER_SCALE,
    ):
        m = np.asarray(mean, dtype=np.float64).reshape(-1)
        S = np.asarray(second_moment, dtype=np.float64)
        d = m.shape[0]
        if S.shape != (d, d):
            raise DomainError(f"second_moment must be {d}x{d}, got {S.shape}")
        _require_finite(m, "mean")
        _require_finite(S, "second_moment")
        S = 0.5 * (S + S.T)
        C0 = S - np.outer(m, m)
        C, L = self._repair_cov(C0, eig_floor, jitter_scale)
        # Keep S exactly as given when no jitter was needed, so that
        # params -> model -> params round-trips bit-identically.
        self._mean = _readonly(m)
        self._second_moment = _readonly(S if C is C0 else C + np.outer(m, m))
        self._cov = _readonly(C)
        self._eig_floor = float(eig_floor)
        self._jitter_scale = float(jitter_scale)
        self._chol = _readonly(L)

    @staticmethod
    def _repair_cov(C: np.ndarray, eig_floor: float, jitter_scale: float):
        """Return the repaired covariance and its lower Cholesky factor."""
        d = C.shape[0]
        if not np.all(np.isfinite(C)):
            raise DegenerateModelError("covariance contains non-finite entries")
        jitter = max(jitter_scale * float(np.trace(C)) / d, eig_floor)
        for attempt in range(MAX_JITTER_DOUBLINGS + 1):
            lam_min = float(np.linalg.eigvalsh(C)[0])
            if lam_min >= eig_floor:
                try:
                    return C, np.linalg.cholesky(C)
                except np.linalg.LinAlgError:
                    pass
            if attempt == MAX_JITTER_DOUBLINGS:
                break
            C = C + jitter * np.eye(d)
            jitter *= 2.0
        raise DegenerateModelError(
            "covariance not positive definite after jitter repair"
        )

    @classmethod
    def from_mean_cov(cls, mean, cov, **kwargs) -> "GaussianModel":
        m = np.asarray(mean, dtype=np.float64).reshape(-1)
        C = np.asarray(cov, dtype=np.float64)
        return cls(m, C + np.outer(m, m), **kwargs)

    @property
    def mean(self) -> np.ndarray:
        return self._mean

    @property
    def second_moment(self) -> np.ndarray:
        return self._second_moment

    @property
    def cov(self) -> np.ndarray:
        return self._cov

    @property
    def dim(self) -> int:
        return self._mean.shape[0]

    @property
    def n_params(self) -> int:
        d = self.dim
        return d + d * (d + 1) // 2

    @property
    def family_tag(self) -> str:
        return f"gaussian:{self.dim}"

    def _param_values(self) -> np.ndarray:
        return np.concatenate([self._mean, vech(self._second_moment)])

    def _from_values(self, values: np.ndarray) -> "GaussianModel":
        d = self.dim
        m = values[:d]
        S = unvech(values[d:], d)
        return GaussianModel(
            m, S, eig_floor=self._eig_floor, jitter_scale=self._jitter_scale
        )

    def _as_batch(self, Z) -> np.ndarray:
        Z = np.asarray(_batchify(Z, self.dim), dtype=np.float64)
        if not np.all(np.isfinite(Z)):
            raise DomainError("Gaussian support requires finite coordinates")
        return Z

    def sample(self, n: int, rng_seed: int) -> np.ndarray:
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = np.random.default_rng(rng_seed)
        X = rng.standard_normal((n, self.dim))
        return X @ self._chol.T + self._mean

    def log_density_batch(self, Z) -> np.ndarray:
        Z = self._as_batch(Z)
        U = Z - self._mean
        # Solve L y = u per point; the Mahalanobis term is |y|^2 with C = L L^T.
        Yt = solve_triangular(self._chol, U.T, lower=True)
        maha = np.sum(Yt * Yt, axis=0)
        log_det = 2.0 * float(np.sum(np.log(np.diag(self._chol))))
        return -0.5 * (self.dim * math.log(2.0 * math.pi) + log_det + maha)

    def sufficient_stats_batch(self, Z) -> np.ndarray:
        Z = self._as_batch(Z)
        outer = Z[:, :, None] * Z[:, None, :]
        idx = _tril_indices(self.dim)
        return np.concatenate([Z, outer[:, idx[0], idx[1]]], axis=1)

    def weighted_stats(self, Z, w) -> np.ndarray:
        # Weighted first and second moments: O(n d + d^2) memory instead of
        # the (n, d, d) outer-product tensor.
        Z = self._as_batch(Z)
        return np.concatenate([w @ Z, vech((Z.T * w) @ Z)])

    def _precision(self) -> np.ndarray:
        return cho_solve((self._chol, True), np.eye(self.dim))

    def _score_batch(self, Z) -> np.ndarray:
        Z = self._as_batch(Z)
        P = self._precision()
        m = self._mean
        U = Z - m
        PU = U @ P
        Pm = P @ m
        grad_m = PU + Pm - PU * (U @ Pm)[:, None]
        # d log p / dC = -P/2 + (Pu)(Pu)^T/2; tied off-diagonals double.
        outer = PU[:, :, None] * PU[:, None, :]
        G = -0.5 * P + 0.5 * outer
        idx = _tril_indices(self.dim)
        grad_S = G[:, idx[0], idx[1]]
        off = idx[0] != idx[1]
        grad_S[:, off] *= 2.0
        return np.concatenate([grad_m, grad_S], axis=1)

    def _fisher(self) -> np.ndarray:
        # In mean coordinates the Fisher information is Cov[T]^{-1}; the
        # covariance blocks of (z, vech(zz^T)) follow from Isserlis' theorem.
        d = self.dim
        m = self._mean
        C = self._cov
        rows, cols = _tril_indices(d)
        k = rows.shape[0]
        G = np.zeros((d + k, d + k))
        G[:d, :d] = C
        # Cov(z_a, z_i z_j) = m_i C_aj + m_j C_ai
        B = m[rows] * C[:, cols] + m[cols] * C[:, rows]
        G[:d, d:] = B
        G[d:, :d] = B.T
        # Cov(z_i z_j, z_k z_l)
        i, j = rows[:, None], cols[:, None]
        kk, ll = rows[None, :], cols[None, :]
        D = (
            C[i, kk] * C[j, ll]
            + C[i, ll] * C[j, kk]
            + m[i] * m[kk] * C[j, ll]
            + m[i] * m[ll] * C[j, kk]
            + m[j] * m[kk] * C[i, ll]
            + m[j] * m[ll] * C[i, kk]
        )
        G[d:, d:] = D
        info = np.linalg.inv(G)
        return 0.5 * (info + info.T)

    def _check_interior(self) -> None:
        lam_min = float(np.linalg.eigvalsh(self._cov)[0])
        if lam_min <= self._eig_floor:
            raise BoundaryError(
                "covariance smallest eigenvalue is at the configured floor; "
                "score and Fisher information require strict interiority"
            )

    def natural_params(self) -> np.ndarray:
        P = self._precision()
        eta_m = P @ self._mean
        H = -0.5 * P
        idx = _tril_indices(self.dim)
        eta_S = H[idx].copy()
        eta_S[idx[0] != idx[1]] *= 2.0
        return np.concatenate([eta_m, eta_S])

    def log_partition(self) -> float:
        P = self._precision()
        m = self._mean
        log_det = 2.0 * float(np.sum(np.log(np.diag(self._chol))))
        return float(0.5 * m @ P @ m + 0.5 * log_det)

    def log_base_measure(self, z) -> float:
        return -0.5 * self.dim * math.log(2.0 * math.pi)

    def to_json_dict(self) -> dict:
        return {
            "family": "gaussian",
            "dim": self.dim,
            "params": [float(v) for v in self._param_values()],
            "eig_floor": self._eig_floor,
            "jitter_scale": self._jitter_scale,
        }


class CategoricalProductModel(SearchModel):
    """Product of independent categorical sites with common arity K.

    ``probs`` is (d, K), each row on the simplex.  Internally the
    expectation parameters drop the last category per site (minimal
    layout, length d*(K-1)) so the Fisher information stays nonsingular.
    Repair clips entries to the floor and renormalizes rows.
    """

    family = "categorical"

    def __init__(self, probs, floor: float = PROB_FLOOR):
        P = np.asarray(probs, dtype=np.float64)
        if P.ndim != 2 or P.shape[1] < 2:
            raise DomainError("probs must be (d, K) with K >= 2")
        _require_finite(P, "probs")
        if not 0.0 < floor < 1.0 / P.shape[1]:
            raise ValueError(f"floor must lie in (0, 1/K), got {floor}")
        if np.any(P < 0.0):
            raise DomainError("categorical probabilities must be nonnegative")
        P = P.copy()
        row_sums = P.sum(axis=1)
        if np.any(row_sums <= 0.0):
            raise DomainError("each categorical row must have positive mass")
        # Touch only rows that violate the invariants, so valid inputs are
        # stored bit-identically.
        off = np.abs(row_sums - 1.0) > 1e-12
        if off.any():
            P[off] = P[off] / row_sums[off, None]
        low = (P < floor).any(axis=1)
        if low.any():
            Q = P[low]
            for _ in range(8):
                Q = np.clip(Q, floor, None)
                Q = Q / Q.sum(axis=1)[:, None]
                if np.all(Q >= floor):
                    break
            P[low] = Q
        self._probs = _readonly(P)
        self._floor = float(floor)

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    @property
    def floor(self) -> float:
        return self._floor

    @property
    def dim(self) -> int:
        return self._probs.shape[0]

    @property
    def arity(self) -> int:
        return self._probs.shape[1]

    @property
    def n_params(self) -> int:
        return self.dim * (self.arity - 1)

    @property
    def family_tag(self) -> str:
        return f"categorical:{self.dim}x{self.arity}"

    def _param_values(self) -> np.ndarray:
        return self._probs[:, :-1].reshape(-1).copy()

    def _from_values(self, values: np.ndarray) -> "CategoricalProductModel":
        d, K = self.dim, self.arity
        head = values.reshape(d, K - 1)
        last = 1.0 - head.sum(axis=1)
        P = np.concatenate([head, last[:, None]], axis=1)
        return CategoricalProductModel(np.clip(P, 0.0, None), floor=self._floor)

    def _as_batch(self, Z) -> np.ndarray:
        vals = _batchify(Z, self.dim)
        ints = np.asarray(vals, dtype=np.int64)
        if np.any(ints != vals) or np.any(ints < 0) or np.any(ints >= self.arity):
            raise DomainError(f"categorical support is {{0..{self.arity - 1}}}^d")
        return ints

    def sample(self, n: int, rng_seed: int) -> np.ndarray:
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = np.random.default_rng(rng_seed)
        u = rng.random((n, self.dim))
        cum = np.cumsum(self._probs, axis=1)
        Z = (u[:, :, None] > cum[None, :, :]).sum(axis=2)
        return np.minimum(Z, self.arity - 1).astype(np.int64)

    def log_density_batch(self, Z) -> np.ndarray:
        Z = self._as_batch(Z)
        logs = np.log(self._probs)
        sites = np.arange(self.dim)
        return logs[sites, Z].sum(axis=1)

    def sufficient_stats_batch(self, Z) -> np.ndarray:
        Z = self._as_batch(Z)
        n = Z.shape[0]
        d, K = self.dim, self.arity
        T = np.zeros((n, d, K - 1))
        mask = Z < K - 1
        rows, sites = np.nonzero(mask)
        T[rows, sites, Z[rows, sites]] = 1.0
        return T.reshape(n, d * (K - 1))

    def _score_batch(self, Z) -> np.ndarray:
        Z = self._as_batch(Z)
        n = Z.shape[0]
        d, K = self.dim, self.arity
        G = np.zeros((n, d, K - 1))
        last = Z == K - 1
        rows, sites = np.nonzero(last)
        G[rows, sites, :] = -1.0 / self._probs[sites, K - 1][:, None]
        rows, sites = np.nonzero(~last)
        vals = Z[rows, sites]
        G[rows, sites, vals] = 1.0 / self._probs[sites, vals]
        return G.reshape(n, d * (K - 1))

    def _fisher(self) -> np.ndarray:
        d, K = self.dim, self.arity
        blocks = []
        for j in range(d):
            p = self._probs[j]
            blocks.append(np.diag(1.0 / p[: K - 1]) + 1.0 / p[K - 1])
        out = np.zeros((self.n_params, self.n_params))
        for j, blk in enumerate(blocks):
            s = j * (K - 1)
            out[s : s + K - 1, s : s + K - 1] = blk
        return out

    def _check_interior(self) -> None:
        if np.any(self._probs <= self._floor):
            raise BoundaryError(
                "a category probability sits at the floor boundary; score and "
                "Fisher information require strictly interior parameters"
            )

    def natural_params(self) -> np.ndarray:
        logs = np.log(self._probs)
        eta = logs[:, :-1] - logs[:, -1:]
        return eta.reshape(-1)

    def log_partition(self) -> float:
        return float(-np.sum(np.log(self._probs[:, -1])))

    def to_json_dict(self) -> dict:
        return {
            "family": "categorical",
            "dim": self.dim,
            "arity": self.arity,
            "params": [float(v) for v in self._param_values()],
            "floor": self._floor,
        }


def model_from_json_dict(doc: dict) -> SearchModel:
    """Inverse of ``to_json_dict``; floors missing from ``doc`` take their defaults."""
    family = doc.get("family")
    dim = int(doc.get("dim", 0))
    params = np.asarray(doc.get("params", []), dtype=np.float64)
    if family == "bernoulli":
        return BernoulliProductModel(params, doc.get("floor", PROB_FLOOR))
    if family == "gaussian":
        m = params[:dim]
        S = unvech(params[dim:], dim)
        return GaussianModel(
            m, S, doc.get("eig_floor", EIG_FLOOR), doc.get("jitter_scale", JITTER_SCALE)
        )
    if family == "categorical":
        K = int(doc["arity"])
        head = params.reshape(dim, K - 1)
        last = 1.0 - head.sum(axis=1)
        P = np.concatenate([head, last[:, None]], axis=1)
        return CategoricalProductModel(P, doc.get("floor", PROB_FLOOR))
    raise FamilyMismatchError(f"unknown family {family!r}")


def model_from_json(text: str) -> SearchModel:
    return model_from_json_dict(json.loads(text))
