"""Exponential-family search distributions in expectation parameterization.

Every model here is an exponential family written so that its parameter
vector theta equals the expected sufficient statistics E[T(z)].  That makes
the weighted maximum-likelihood refit a literal weighted mean of T(z), and
the convex-combination smoothing update a one-liner on parameter vectors.

Families:

* :class:`BernoulliProductModel` -- independent bits, theta = per-bit means.
* :class:`GaussianModel` -- full-covariance Gaussian, theta = (mean,
  lower-triangular half of the second-moment matrix E[z z^T]).  It keeps
  the covariance and its Cholesky factor, and its refits and blends carry
  the covariance beside theta, so no iteration forms S - m m^T.
* :class:`CategoricalProductModel` -- independent categorical sites, theta =
  per-site probabilities with the last category dropped (minimal layout, so
  the Fisher information is nonsingular).

Models are immutable after construction and safe to share across threads;
sampling always takes an explicit seed.

A note on smoothing: the convex-combination update blends expectation
parameters, i.e. for the Gaussian it smooths (mean, second moment) jointly;
in covariance terms that is C' = (1 - gamma) C + gamma C~ + gamma (1 - gamma)
(m - m~)(m - m~)^T, which is how it is computed.  CMA-ES-style
implementations usually smooth the covariance matrix directly; the two
conventions agree only when the mean is unchanged.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, cho_solve, lapack, solve_triangular

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
# is refitted, and 64 KB of raw words plus 64 KB of tiled uint16 thresholds
# when it is drawn.  A categorical draw and the sphere objective also
# stream through one block of this size.
BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class ExpectationParams:
    """Carrier for an expectation-parameter vector.

    ``values`` is a 1-D float64 vector of length D in the family's
    documented layout; ``family_tag`` identifies the family instance
    (e.g. ``"bernoulli:8"``, ``"gaussian:3"``, ``"categorical:4x3"``).
    Validity enforcement (floors, positive-definiteness) lives in the
    family constructors, which repair or reject on construction.

    ``cov`` is set only for the Gaussian: the covariance C of the mean
    ``values[:d]``, carried because theta's S = C + m m^T cannot hold C
    once |m|^2 >> C.  A model is then built from (m, C), and ``values`` is
    theta as derived from them.
    """

    values: np.ndarray
    family_tag: str
    cov: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).reshape(-1).copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.cov is not None:
            object.__setattr__(self, "cov", _readonly(self.cov))

    def __len__(self) -> int:
        return self.values.shape[0]

    def blend(self, other: "ExpectationParams", gamma: float) -> "ExpectationParams":
        """(1 - gamma) * self + gamma * other.  When either side carries a
        covariance, the blend of the (m, S) pairs is formed in covariance
        terms, equal in exact arithmetic: mean (1 - gamma) m + gamma m~ and
        covariance (1 - gamma) C + gamma C~ + gamma (1 - gamma) (m - m~)(m - m~)^T."""
        if self.cov is None and other.cov is None:
            return ExpectationParams(
                (1.0 - gamma) * self.values + gamma * other.values, self.family_tag
            )
        (m, C), (mt, Ct) = GaussianModel._mean_cov(self), GaussianModel._mean_cov(other)
        delta = m - mt
        # An overflow reaches the carrier as inf, which rejects it, like the
        # refit's.
        with np.errstate(over="ignore"):
            cov = (1.0 - gamma) * C + gamma * Ct + (gamma * (1.0 - gamma)) * np.outer(delta, delta)
        return GaussianModel._carrier((1.0 - gamma) * m + gamma * mt, cov)


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
    The engine's M-steps and free energy call two more on samples they
    have already checked: ``_refit`` and ``_mean_log_density``.
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
        else:
            params = ExpectationParams(params, self.family_tag)
        if len(params) != self.n_params:
            raise FamilyMismatchError(
                f"{self.family_tag!r} expects {self.n_params} parameters, got {len(params)}"
            )
        return self._from_params(params)

    def _from_params(self, params: ExpectationParams) -> "SearchModel":
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

    def _refit(self, Z, w, total: float) -> ExpectationParams:
        """The weighted mean sum_i w_i T(z_i) / total, unrepaired, for
        weights w >= 0 that sum to ``total`` > 0."""
        return ExpectationParams(self._weighted_stats(Z, w) / total, self.family_tag)

    def _mean_log_density(self, theta_bar: ExpectationParams) -> float:
        """sum_i q_i log p(z_i | theta), in closed form from the refit
        theta_bar = sum_i q_i T(z_i) of weights q that sum to 1."""
        raise NotImplementedError

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

    def _from_params(self, params) -> "BernoulliProductModel":
        # Repair policy for updates: clip into the floored box.
        return BernoulliProductModel(np.clip(params.values, 0.0, 1.0))

    def _draw(self, rng, n: int) -> np.ndarray:
        # A bool array, one byte per bit, by the lazy bitwise comparison of
        # a uniform with p (Knuth and Yao 1976), 16 bits at a time.  Cell k
        # of the generation, in C order, takes quarter k of the raw PCG64
        # word stream, lowest quarter first, and z = b < thr with
        # thr = floor(p 2^16), compared as uint16.  A tie b == thr (2^-16
        # per cell) is settled after the last block by one float64 uniform r
        # per tie, in cell order: z = r < frac with frac = p 2^16 - thr.
        # PROB_FLOOR >= 2^-17 makes frac a multiple of 2^-53, so
        # P(z = 1) = p exactly.  A block holds whole words (a row count that
        # is a multiple of 4 when d is not), so the stream does not depend
        # on BLOCK_CELLS.
        d = self.dim
        rows = max(1, BLOCK_CELLS // d)
        if d % 4:
            rows = max(4, rows - rows % 4)
        cells = min(rows, n) * d
        # Truncation is the floor here: p 2^16 is positive and below 2^16.
        thr = np.tile((self._probs * 2.0**16).astype(np.uint16), cells // d)
        Z = np.empty((n, d), dtype=np.bool_)
        flat = Z.reshape(-1)
        ties = []
        for start in range(0, n * d, cells):
            out = flat[start : start + cells]
            t = thr[: out.size]
            words = rng.bit_generator.random_raw((out.size + 3) // 4)
            b = words.astype("<u8", copy=False).view("<u2")[: out.size]
            # The output slice holds the tie mask until the comparison.
            if np.equal(b, t, out=out).any():
                ties.append(start + np.flatnonzero(out))
            np.less(b, t, out=out)
            del words, b  # so the next block's words never coexist with these
        if ties:
            k = np.concatenate(ties)
            scaled = self._probs[k % d] * 2.0**16
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

    def _mean_log_density(self, theta_bar) -> float:
        p, t = self._probs, theta_bar.values
        return float(t @ np.log(p) + (1.0 - t) @ np.log1p(-p))

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

    theta = (m, vech(S)) with m = E[z] and S = E[z z^T], and T(z) = (z,
    vech(z z^T)), so the weighted-mean refit reproduces weighted sample
    moments.  The model keeps m, the covariance C and its lower Cholesky
    factor L.  It is built from (m, S), where C = S - m m^T, or from (m, C)
    by ``from_mean_cov`` (and by every refit and blend of a run, which
    carry C in their :class:`ExpectationParams`), so that no iteration
    forms S - m m^T, which cancels when |m|^2 >> C.

    An asymmetric matrix is replaced by its symmetric part.  Construction
    repairs C to smallest eigenvalue >= ``EIG_FLOOR`` by trace-scaled
    jitter (see ``_repair_cov``), doubling at most ``MAX_JITTER_DOUBLINGS``
    times; if that fails the model raises instead of silently clamping.  A
    model built from theta keeps its S, and so reports theta as given;
    otherwise theta derives from C and ``params`` carries C alongside.
    """

    family = "gaussian"
    kind = "continuous"

    def __init__(self, mean, second_moment, *, _is_cov=False):
        # ``_is_cov`` is private: ``from_mean_cov`` and ``with_params`` pass
        # C in place of S with it.
        name = "cov" if _is_cov else "second_moment"
        m = np.asarray(mean, dtype=np.float64).reshape(-1)
        M = np.array(second_moment, dtype=np.float64)
        d = m.shape[0]
        if M.shape != (d, d):
            raise DomainError(f"{name} must be {d}x{d}, got {M.shape}")
        _require_finite(m, "mean")
        _require_finite(M, name)
        if not np.array_equal(M, M.T):
            # Halving each side first cannot overflow.
            M = 0.5 * M + 0.5 * M.T
        C0 = M if _is_cov else M - np.outer(m, m)
        C, L = self._repair_cov(C0)
        # C, L and M are this constructor's own arrays.
        for a in (C, L, M):
            a.setflags(write=False)
        self._mean = _readonly(m)
        self._cov = C
        self._chol = L
        # Keep S exactly as given when no jitter was needed, so that
        # params -> model -> params round-trips bit-identically.
        self._given_S = M if not _is_cov and C is C0 else None

    @staticmethod
    def _repair_cov(C: np.ndarray):
        """Return the repaired covariance and its lower Cholesky factor.

        C passes as it is when its smallest eigenvalue is at least
        ``EIG_FLOOR``, which one Cholesky of C - EIG_FLOOR I tests.  Otherwise
        jitter max(JITTER_SCALE tr(C) / d, EIG_FLOOR) is added, doubling,
        until the smallest eigenvalue is at least 2 EIG_FLOOR.  The margin
        keeps a repaired C above the floor when theta's S - m m^T re-derives
        it with rounding error near eps |m|^2, so that a model rebuilt from
        its own theta (JSON, a bare vector) is not repaired again while
        eps |m|^2 stays well below EIG_FLOOR; it reaches it near |m| = 70.
        At a farther mean theta cannot hold such a C, and the rebuilt model
        may be repaired again, to a C that is still above the floor.
        """
        d = C.shape[0]
        if not np.all(np.isfinite(C)):
            raise DegenerateModelError("covariance contains non-finite entries")
        eye = np.eye(d)
        floor, jitter = EIG_FLOOR, 0.0
        for attempt in range(MAX_JITTER_DOUBLINGS + 1):
            if lapack.dpotrf(C - floor * eye, lower=1)[1] == 0:
                L, info = lapack.dpotrf(C, lower=1, clean=1)
                if info == 0:
                    return C, L
            if attempt == MAX_JITTER_DOUBLINGS:
                break
            if not attempt:
                floor = 2.0 * EIG_FLOOR
                jitter = max(JITTER_SCALE * float(np.trace(C)) / d, EIG_FLOOR)
            C = C + jitter * eye
            jitter *= 2.0
        raise DegenerateModelError(
            "covariance not positive definite after jitter repair"
        )

    @classmethod
    def from_mean_cov(cls, mean, cov) -> "GaussianModel":
        model = cls(mean, cov, _is_cov=True)
        model.params  # formed now, so that an overflowing theta raises here
        return model

    @staticmethod
    def _carrier(mean: np.ndarray, cov: np.ndarray) -> ExpectationParams:
        """The parameters of (m, C): theta = (m, vech(C + m m^T)), with C
        carried alongside.  S overflows to inf before (m, C) does; such a
        model has no theta, and raises."""
        with np.errstate(over="ignore"):
            theta = np.concatenate([mean, vech(cov + np.outer(mean, mean))])
        _require_finite(theta, "theta")
        return ExpectationParams(theta, f"{GaussianModel.family}:{mean.shape[0]}", cov)

    @staticmethod
    def _mean_cov(params: ExpectationParams):
        """(m, C) of Gaussian parameters: the covariance they carry, or
        S - m m^T from theta when they carry none."""
        d = int(params.family_tag.partition(":")[2])
        m = params.values[:d]
        if params.cov is not None:
            return m, params.cov
        return m, unvech(params.values[d:], d) - np.outer(m, m)

    @property
    def mean(self) -> np.ndarray:
        return self._mean

    @property
    def second_moment(self) -> np.ndarray:
        return unvech(self.params.values[self.dim :], self.dim)

    @property
    def cov(self) -> np.ndarray:
        return self._cov

    # Immutable, like the model.  theta as given, or derived from C with C
    # alongside, so that with_params(model.params) rebuilds this model.
    @functools.cached_property
    def params(self) -> ExpectationParams:
        if self._given_S is None:
            return self._carrier(self._mean, self._cov)
        theta = np.concatenate([self._mean, vech(self._given_S)])
        return ExpectationParams(theta, self.family_tag)

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
        return self.params.values

    def _from_params(self, params) -> "GaussianModel":
        if params.cov is None:
            return self._from_layout(params.values, self.domain)
        # The carrier that set cov checked theta.
        return GaussianModel(params.values[: self.dim], params.cov, _is_cov=True)

    # Derived from the immutable Cholesky factor on first use, and shared by
    # the free energy and MAP's log-prior; closed-form runs read it once per
    # iteration, in the free energy.
    @functools.cached_property
    def _precision(self) -> np.ndarray:
        P = cho_solve((self._chol, True), np.eye(self.dim))
        P.setflags(write=False)
        return P

    @functools.cached_property
    def _log_det(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self._chol))))

    def _draw(self, rng, n: int) -> np.ndarray:
        # One (n, d) array: the normals, multiplied by L in place (trmm on
        # the transposed view, which is the Fortran layout BLAS takes).
        X = rng.standard_normal((n, self.dim))
        X = blas.dtrmm(1.0, self._chol, X.T, side=0, lower=1, overwrite_b=1).T
        X += self._mean
        return X

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

    def _refit(self, Z, w, total: float) -> ExpectationParams:
        # Centred moments over the rows with w > 0 (a quantile shaping keeps
        # a fraction of them): m~ = sum q z and C~ = sum q (z - m~)(z - m~)^T
        # with q = w / total.  C~ is one triangle of a rank-k update (syrk),
        # mirrored; BLAS lets an overflow through as inf, which the carrier
        # then rejects.
        keep = w > 0.0
        U, q = Z[keep], w[keep] / total
        mean = q @ U
        U -= mean
        U *= np.sqrt(q)[:, None]
        C = blas.dsyrk(1.0, U.T, lower=1)
        return self._carrier(mean, C + np.tril(C, -1).T)

    def _mean_log_density(self, theta_bar) -> float:
        # sum_i q_i log p(z_i) = -(d log 2 pi + log det C + tr(C^-1 C~)
        # + delta^T C^-1 delta) / 2 with delta = m~ - m: the cross term
        # vanishes about the refit's own mean.
        m_bar, C_bar = self._mean_cov(theta_bar)
        P = self._precision
        delta = m_bar - self._mean
        maha = float(np.sum(P * C_bar)) + float(delta @ P @ delta)
        return -0.5 * (self.dim * math.log(2.0 * math.pi) + self._log_det + maha)

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
        # A repaired row keeps its last category as 1 - sum(rest), the way
        # theta rebuilds it, so that a model rebuilt from its own parameters
        # is this model.
        fixed = off | low
        if fixed.any():
            P[fixed, -1] = 1.0 - P[fixed, :-1].sum(axis=1)
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

    def _from_params(self, params) -> "CategoricalProductModel":
        P = self._table(params.values, self.domain)
        return CategoricalProductModel(np.clip(P, 0.0, None))

    def _draw(self, rng, n: int) -> np.ndarray:
        # z counts the cumulative sums below u, up to K - 1: u > cum[:, k]
        # holds for a prefix of k, so no (n, d, K) comparison is formed.
        # The uniforms fill one block at a time (the same stream as one
        # (n, d) call), and each block's count is kept in the narrowest
        # unsigned type that holds K - 1 and written to Z once.
        d = self.dim
        cuts = np.cumsum(self._probs, axis=1).T[:-1].copy()
        dtype = np.min_scalar_type(self.arity - 1)
        Z = np.empty((n, d), dtype=np.int64)
        for rows, u in _row_blocks(n, d):
            rng.random(out=u)
            count = np.zeros(u.shape, dtype=dtype)
            above = np.empty(u.shape, dtype=np.bool_)
            for cut in cuts:
                count += np.greater(u, cut, out=above)
            Z[rows] = count
        return Z

    def _log_density(self, Z) -> np.ndarray:
        logs = np.log(self._probs)
        sites = np.arange(self.dim)
        return logs[sites, Z].sum(axis=1)

    def _mean_log_density(self, theta_bar) -> float:
        table = self._table(theta_bar.values, self.domain)
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
