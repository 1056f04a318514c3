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
from .objectives import Domain

# The repair constants of the feasible sets, fixed for every model: the
# probability floor of the Bernoulli and categorical families, and the
# Gaussian covariance's smallest eigenvalue and trace-scaled jitter.
PROB_FLOOR = 1e-3
EIG_FLOOR = 1e-12
JITTER_SCALE = 1e-10
MAX_JITTER_DOUBLINGS = 10

# Cells in the one block a Bernoulli generation streams through, so that no
# (n, d) copy of it wider than bool is ever made: 256 KB of float64 when it
# is refitted, and 128 KB of raw words plus 128 KB of tiled uint32
# thresholds when it is drawn.
BLOCK_CELLS = 1 << 15


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


def _row_blocks(n: int, d: int):
    """Yield (row slice, float64 block) pairs covering an (n, d) array in
    order; every block is a view of one buffer of about ``BLOCK_CELLS``
    cells, so the caller must finish with a block before taking the next."""
    rows = max(1, BLOCK_CELLS // d)
    buf = np.empty((min(rows, n), d))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        yield slice(start, stop), buf[: stop - start]


class SearchModel:
    """Common surface of the search distributions.

    A family declares its ``family`` name, its support ``kind``, its
    ``_shape`` ((dim,) or (dim, arity)) and its θ length rule
    (``_param_count``); ``domain``, ``dim``, ``n_params``, ``family_tag``
    and the JSON document derive from these here.

    The public methods live here and are the only input boundary: each
    checks once (``_as_batch``, which is ``domain.check``, or ``n >= 1``),
    then calls an unchecked family kernel (``_draw``, ``_log_density``,
    ``_suff_stats``, ``_weighted_stats``, ``_score_batch``) on a checked
    batch or on the model's own samples.  Families implement the kernels.
    The engine's free energy calls one more kernel, ``_mean_log_density``,
    on samples its M-step has already checked.
    """

    family = ""
    kind = ""  # the Domain kind: "binary" | "continuous" | "categorical"

    # -- support and parameter layout ---------------------------------------

    def _shape(self) -> tuple:
        raise NotImplementedError

    @staticmethod
    def _param_count(domain: Domain) -> int:
        raise NotImplementedError

    @classmethod
    def _from_layout(cls, values: np.ndarray, domain: Domain) -> "SearchModel":
        """The model whose parameter vector is ``values``, laid out for
        ``domain``; the constructor's own checks and repair apply."""
        raise NotImplementedError

    # Models are immutable, so the domain and the tag are built once, on
    # first use.
    @functools.cached_property
    def domain(self) -> Domain:
        return Domain(self.kind, *self._shape())

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def n_params(self) -> int:
        return self._param_count(self.domain)

    @functools.cached_property
    def family_tag(self) -> str:
        return f"{self.family}:" + "x".join(map(str, self._shape()))

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
        if n < 1:
            raise ValueError("n must be >= 1")
        return self._draw(np.random.default_rng(rng_seed), n)

    def log_density(self, z) -> float:
        Z = self._as_batch(z)
        if Z.shape[0] != 1:
            raise DomainError("log_density takes a single point; use log_density_batch")
        return float(self._log_density(Z)[0])

    def log_density_batch(self, Z) -> np.ndarray:
        return self._log_density(self._as_batch(Z))

    def sufficient_stats(self, z) -> np.ndarray:
        return self._suff_stats(self._as_batch(z))[0]

    def sufficient_stats_batch(self, Z) -> np.ndarray:
        return self._suff_stats(self._as_batch(Z))

    def weighted_stats(self, Z, w) -> np.ndarray:
        """Weighted sum of sufficient statistics, sum_i w_i T(z_i)."""
        return self._weighted_stats(self._as_batch(Z), w)

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
        return self.domain.check(Z)

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def _log_density(self, Z) -> np.ndarray:
        raise NotImplementedError

    def _suff_stats(self, Z) -> np.ndarray:
        raise NotImplementedError

    def _weighted_stats(self, Z, w) -> np.ndarray:
        # Families override this when they can form the sum without
        # materializing the (n, n_params) statistics matrix.
        return w @ self._suff_stats(Z)

    def _mean_log_density(self, Z, q, theta_bar) -> float:
        """sum_i q_i log p(z_i | theta), given theta_bar = sum_i q_i T(z_i)
        for weights q that sum to 1.  This default sums over the samples
        with q > 0; families whose log-density is linear in T(z) override
        it with a closed form in theta_bar."""
        act = q > 0.0
        return float(np.sum(q[act] * self._log_density(Z[act])))

    def _score_batch(self, Z) -> np.ndarray:
        raise NotImplementedError

    def _fisher(self) -> np.ndarray:
        raise NotImplementedError

    def _check_interior(self) -> None:
        raise NotImplementedError

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        doc = {"family": self.family, "dim": self.dim}
        if self.domain.arity is not None:
            doc["arity"] = self.domain.arity
        doc["params"] = [float(v) for v in self._param_values()]
        return doc

    def to_json(self) -> str:
        """Byte-stable JSON: fixed field order, shortest-roundtrip floats."""
        return json.dumps(self.to_json_dict())


class BernoulliProductModel(SearchModel):
    """Product of independent Bernoulli bits.

    theta = p with E[z_j] = p_j, T(z) = z, natural params
    eta_j = log(p_j / (1 - p_j)).  Construction clips probabilities into
    [PROB_FLOOR, 1 - PROB_FLOOR] (values outside [0, 1] are rejected).
    """

    family = "bernoulli"
    kind = "binary"

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=np.float64).reshape(-1)
        _require_finite(probs, "probs")
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise DomainError("Bernoulli probabilities must lie in [0, 1]")
        self._probs = _readonly(np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR))

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    def _shape(self) -> tuple:
        return self._probs.shape

    @staticmethod
    def _param_count(domain: Domain) -> int:
        return domain.dim

    @classmethod
    def _from_layout(cls, values, domain) -> "BernoulliProductModel":
        return cls(values)

    def _param_values(self) -> np.ndarray:
        return self._probs.copy()

    def _from_values(self, values: np.ndarray) -> "BernoulliProductModel":
        # Repair policy for updates: clip into the floored box.
        return BernoulliProductModel(np.clip(values, 0.0, 1.0))

    def _draw(self, rng, n: int) -> np.ndarray:
        # A bool array, one byte per bit, by the lazy bitwise comparison of
        # a uniform with p (Knuth and Yao 1976), 32 bits at a time.  Cell k
        # of the generation, in C order, takes half k of the raw PCG64 word
        # stream, low half first, and z = b < thr with thr = floor(p 2^32).
        # A tie b == thr (2^-32 per cell) is settled after the last block by
        # one float64 uniform r per tie, in cell order: z = r < frac with
        # frac = p 2^32 - thr.  PROB_FLOOR >= 2^-33 makes frac a multiple of
        # 2^-53, so P(z = 1) = p exactly.  A block holds whole words (an
        # even row count when d is odd), so the stream does not depend on
        # BLOCK_CELLS.
        d = self.dim
        rows = max(1, BLOCK_CELLS // d)
        if d % 2:
            rows = max(2, rows - rows % 2)
        cells = min(rows, n) * d
        # Truncation is the floor here: p 2^32 is positive and below 2^32.
        thr = np.tile((self._probs * 2.0**32).astype(np.uint32), cells // d)
        Z = np.empty((n, d), dtype=np.bool_)
        flat = Z.reshape(-1)
        ties = []
        for start in range(0, n * d, cells):
            out = flat[start : start + cells]
            t = thr[: out.size]
            words = rng.bit_generator.random_raw((out.size + 1) // 2)
            b = words.astype("<u8", copy=False).view("<u4")[: out.size]
            # The output slice holds the tie mask until the comparison.
            if np.equal(b, t, out=out).any():
                ties.append(start + np.flatnonzero(out))
            np.less(b, t, out=out)
            del words, b  # so the next block's words never coexist with these
        if ties:
            k = np.concatenate(ties)
            scaled = self._probs[k % d] * 2.0**32
            flat[k] = rng.random(k.size) < scaled - np.floor(scaled)
        return Z

    def _log_density(self, Z) -> np.ndarray:
        p = self._probs
        return Z @ np.log(p) + (1.0 - Z) @ np.log1p(-p)

    def _suff_stats(self, Z) -> np.ndarray:
        return np.asarray(Z, dtype=np.float64)

    def _weighted_stats(self, Z, w) -> np.ndarray:
        # With integer-valued weights every partial sum is exact, so this
        # equals w @ Z bit for bit; otherwise only the summation order differs.
        total = np.zeros(self.dim)
        for rows, block in _row_blocks(*Z.shape):
            block[...] = Z[rows]
            total += w[rows] @ block
        return total

    def _mean_log_density(self, Z, q, theta_bar) -> float:
        p = self._probs
        return float(theta_bar @ np.log(p) + (1.0 - theta_bar) @ np.log1p(-p))

    def _score_batch(self, Z) -> np.ndarray:
        p = self._probs
        return Z / p - (1.0 - Z) / (1.0 - p)

    def _fisher(self) -> np.ndarray:
        p = self._probs
        return np.diag(1.0 / (p * (1.0 - p)))

    def _check_interior(self) -> None:
        p = self._probs
        if np.any(p <= PROB_FLOOR) or np.any(p >= 1.0 - PROB_FLOOR):
            raise BoundaryError(
                "a probability sits at the floor boundary; score and Fisher "
                "information require strictly interior parameters"
            )

    def natural_params(self) -> np.ndarray:
        p = self._probs
        return np.log(p) - np.log1p(-p)

    def log_partition(self) -> float:
        return float(-np.sum(np.log1p(-self._probs)))


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


def _vech_doubled(M: np.ndarray) -> np.ndarray:
    """vech over the last two axes with the off-diagonals doubled: the
    coefficients on vech(S) of sum_ij M_ij S_ij for symmetric S."""
    rows, cols = _tril_indices(M.shape[-1])
    v = M[..., rows, cols]
    v[..., rows != cols] *= 2.0
    return v


class GaussianModel(SearchModel):
    """Full-covariance Gaussian in expectation parameterization.

    theta = (m, vech(S)) with m = E[z] and S = E[z z^T]; the covariance
    C = S - m m^T is a derived view.  T(z) = (z, vech(z z^T)), so the
    weighted-mean refit reproduces weighted sample moments exactly.

    Construction symmetrizes S and repairs C to be positive definite with
    smallest eigenvalue >= ``EIG_FLOOR`` by adding trace-scaled jitter,
    doubling at most ``MAX_JITTER_DOUBLINGS`` times; if that fails the
    model raises instead of silently clamping.
    """

    family = "gaussian"
    kind = "continuous"

    def __init__(self, mean, second_moment):
        m = np.asarray(mean, dtype=np.float64).reshape(-1)
        S = np.asarray(second_moment, dtype=np.float64)
        d = m.shape[0]
        if S.shape != (d, d):
            raise DomainError(f"second_moment must be {d}x{d}, got {S.shape}")
        _require_finite(m, "mean")
        _require_finite(S, "second_moment")
        S = 0.5 * (S + S.T)
        C0 = S - np.outer(m, m)
        C, L = self._repair_cov(C0)
        # Keep S exactly as given when no jitter was needed, so that
        # params -> model -> params round-trips bit-identically.
        self._mean = _readonly(m)
        self._second_moment = _readonly(S if C is C0 else C + np.outer(m, m))
        self._cov = _readonly(C)
        self._chol = _readonly(L)

    @staticmethod
    def _repair_cov(C: np.ndarray):
        """Return the repaired covariance and its lower Cholesky factor."""
        d = C.shape[0]
        if not np.all(np.isfinite(C)):
            raise DegenerateModelError("covariance contains non-finite entries")
        jitter = max(JITTER_SCALE * float(np.trace(C)) / d, EIG_FLOOR)
        for attempt in range(MAX_JITTER_DOUBLINGS + 1):
            lam_min = float(np.linalg.eigvalsh(C)[0])
            if lam_min >= EIG_FLOOR:
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
    def from_mean_cov(cls, mean, cov) -> "GaussianModel":
        m = np.asarray(mean, dtype=np.float64).reshape(-1)
        C = np.asarray(cov, dtype=np.float64)
        return cls(m, C + np.outer(m, m))

    @property
    def mean(self) -> np.ndarray:
        return self._mean

    @property
    def second_moment(self) -> np.ndarray:
        return self._second_moment

    @property
    def cov(self) -> np.ndarray:
        return self._cov

    def _shape(self) -> tuple:
        return self._mean.shape

    @staticmethod
    def _param_count(domain: Domain) -> int:
        d = domain.dim
        return d + d * (d + 1) // 2

    @classmethod
    def _from_layout(cls, values, domain) -> "GaussianModel":
        d = domain.dim
        return cls(values[:d], unvech(values[d:], d))

    def _param_values(self) -> np.ndarray:
        return np.concatenate([self._mean, vech(self._second_moment)])

    def _from_values(self, values: np.ndarray) -> "GaussianModel":
        return self._from_layout(values, self.domain)

    # Derived from the immutable Cholesky factor on first use; closed-form
    # runs never need the precision, so it is not formed at construction.
    @functools.cached_property
    def _precision(self) -> np.ndarray:
        P = cho_solve((self._chol, True), np.eye(self.dim))
        P.setflags(write=False)
        return P

    @functools.cached_property
    def _log_det(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self._chol))))

    def _draw(self, rng, n: int) -> np.ndarray:
        X = rng.standard_normal((n, self.dim))
        return X @ self._chol.T + self._mean

    def _log_density(self, Z) -> np.ndarray:
        U = Z - self._mean
        # Solve L y = u per point; the Mahalanobis term is |y|^2 with C = L L^T.
        Yt = solve_triangular(self._chol, U.T, lower=True)
        maha = np.sum(Yt * Yt, axis=0)
        return -0.5 * (self.dim * math.log(2.0 * math.pi) + self._log_det + maha)

    def _suff_stats(self, Z) -> np.ndarray:
        outer = Z[:, :, None] * Z[:, None, :]
        idx = _tril_indices(self.dim)
        return np.concatenate([Z, outer[:, idx[0], idx[1]]], axis=1)

    def _weighted_stats(self, Z, w) -> np.ndarray:
        # Weighted first and second moments: O(n d + d^2) memory instead of
        # the (n, d, d) outer-product tensor.
        return np.concatenate([w @ Z, vech((Z.T * w) @ Z)])

    def _score_batch(self, Z) -> np.ndarray:
        P = self._precision
        m = self._mean
        U = Z - m
        PU = U @ P
        Pm = P @ m
        grad_m = PU + Pm - PU * (U @ Pm)[:, None]
        # d log p / dC = -P/2 + (Pu)(Pu)^T/2.
        outer = PU[:, :, None] * PU[:, None, :]
        G = -0.5 * P + 0.5 * outer
        return np.concatenate([grad_m, _vech_doubled(G)], axis=1)

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
        if lam_min <= EIG_FLOOR:
            raise BoundaryError(
                "covariance smallest eigenvalue is at the floor; "
                "score and Fisher information require strict interiority"
            )

    def natural_params(self) -> np.ndarray:
        P = self._precision
        return np.concatenate([P @ self._mean, _vech_doubled(-0.5 * P)])

    def log_partition(self) -> float:
        m = self._mean
        return float(0.5 * m @ self._precision @ m + 0.5 * self._log_det)

    def log_base_measure(self, z) -> float:
        return -0.5 * self.dim * math.log(2.0 * math.pi)


class CategoricalProductModel(SearchModel):
    """Product of independent categorical sites with common arity K.

    ``probs`` is (d, K), each row on the simplex.  Internally the
    expectation parameters drop the last category per site (minimal
    layout, length d*(K-1)) so the Fisher information stays nonsingular.
    Repair clips entries to ``PROB_FLOOR`` and renormalizes rows, so the
    arity must stay below 1 / PROB_FLOOR.
    """

    family = "categorical"
    kind = "categorical"

    def __init__(self, probs):
        P = np.asarray(probs, dtype=np.float64)
        if P.ndim != 2 or not 2 <= P.shape[1] < 1.0 / PROB_FLOOR:
            raise DomainError(
                f"probs must be (d, K) with 2 <= K < {1.0 / PROB_FLOOR:g}, got shape {P.shape}"
            )
        _require_finite(P, "probs")
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
        low = (P < PROB_FLOOR).any(axis=1)
        if low.any():
            Q = P[low]
            for _ in range(8):
                Q = np.clip(Q, PROB_FLOOR, None)
                Q = Q / Q.sum(axis=1)[:, None]
                if np.all(Q >= PROB_FLOOR):
                    break
            P[low] = Q
        self._probs = _readonly(P)

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    @property
    def arity(self) -> int:
        return self._probs.shape[1]

    def _shape(self) -> tuple:
        return self._probs.shape

    @staticmethod
    def _param_count(domain: Domain) -> int:
        return domain.dim * (domain.arity - 1)

    def _param_values(self) -> np.ndarray:
        return self._probs[:, :-1].reshape(-1).copy()

    @staticmethod
    def _table(values: np.ndarray, domain: Domain) -> np.ndarray:
        """The (d, K) table of a parameter vector, last categories restored."""
        head = values.reshape(domain.dim, domain.arity - 1)
        last = 1.0 - head.sum(axis=1)
        return np.concatenate([head, last[:, None]], axis=1)

    @classmethod
    def _from_layout(cls, values, domain) -> "CategoricalProductModel":
        # Not clipped like an update: negative entries raise DomainError.
        return cls(cls._table(values, domain))

    def _from_values(self, values: np.ndarray) -> "CategoricalProductModel":
        P = self._table(values, self.domain)
        return CategoricalProductModel(np.clip(P, 0.0, None))

    def _draw(self, rng, n: int) -> np.ndarray:
        # z counts the cumulative sums below u, up to K - 1: u > cum[:, k]
        # holds for a prefix of k, so no (n, d, K) comparison is formed.
        u = rng.random((n, self.dim))
        cum = np.cumsum(self._probs, axis=1)
        Z = np.zeros((n, self.dim), dtype=np.int64)
        for k in range(self.arity - 1):
            Z += u > cum[:, k]
        return Z

    def _log_density(self, Z) -> np.ndarray:
        logs = np.log(self._probs)
        sites = np.arange(self.dim)
        return logs[sites, Z].sum(axis=1)

    def _mean_log_density(self, Z, q, theta_bar) -> float:
        table = self._table(theta_bar, self.domain)
        return float(np.sum(table * np.log(self._probs)))

    def _suff_stats(self, Z) -> np.ndarray:
        n = Z.shape[0]
        d, K = self.dim, self.arity
        T = np.zeros((n, d, K - 1))
        mask = Z < K - 1
        rows, sites = np.nonzero(mask)
        T[rows, sites, Z[rows, sites]] = 1.0
        return T.reshape(n, d * (K - 1))

    def _score_batch(self, Z) -> np.ndarray:
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
        if np.any(self._probs <= PROB_FLOOR):
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


FAMILIES = {
    cls.family: cls for cls in (BernoulliProductModel, GaussianModel, CategoricalProductModel)
}


# Documents written when the floors were per-model settings carry them as
# fields.  A field holding any value but the fixed one describes a model
# this library cannot build.
_LEGACY_FLOOR_FIELDS = {
    "floor": PROB_FLOOR,
    "eig_floor": EIG_FLOOR,
    "jitter_scale": JITTER_SCALE,
}


def _json_count(doc: dict, key: str, low: int) -> int:
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise DomainError(f"{key} = {value!r} in model JSON; expected an integer >= {low}")
    return value


def model_from_json_dict(doc: dict) -> SearchModel:
    """Inverse of ``to_json_dict``; also loads older documents whose floor
    fields hold the fixed values.  ``params`` must have the length that
    ``dim`` (and, for the categorical, ``arity``) give the family."""
    for key, fixed in _LEGACY_FLOOR_FIELDS.items():
        if key in doc and doc[key] != fixed:
            raise DomainError(f"{key} = {doc[key]!r} in model JSON; only {fixed!r} is supported")
    family = doc.get("family")
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise FamilyMismatchError(f"unknown family {family!r}")
    d = _json_count(doc, "dim", 1)
    K = _json_count(doc, "arity", 2) if cls.kind == "categorical" else None
    domain = Domain(cls.kind, d, K)
    n = cls._param_count(domain)
    params = np.asarray(doc.get("params", []), dtype=np.float64)
    if params.shape != (n,):
        layout = f"dim = {d}" + (f", arity = {K}" if K is not None else "")
        raise DomainError(
            f"params has shape {params.shape} in model JSON; {family} with {layout} takes {n}"
        )
    return cls._from_layout(params, domain)


def model_from_json(text: str) -> SearchModel:
    return model_from_json_dict(json.loads(text))
