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
sampling always takes an explicit seed.  Only the Gaussian's kernels call
scipy (``scipy.linalg``'s BLAS and LAPACK wrappers), through ``_linalg()``,
which imports it on the first call, so importing this module, or using the
other families, loads no scipy module.

The Gaussian blend smooths (mean, second moment) jointly, in covariance
terms (``ExpectationParams.blend``).  CMA-ES-style implementations smooth
the covariance matrix directly; the two agree only when the mean is fixed.
"""

from __future__ import annotations

import functools
import json
import math
import numbers

import numpy as np

from .errors import BoundaryError, DegenerateModelError, DomainError, FamilyMismatchError
from .objectives import Domain

# The repair constants of the feasible sets, fixed for every model: the
# probability floor of the Bernoulli and categorical families, and the
# Gaussian covariance's smallest eigenvalue and trace-scaled jitter.
PROB_FLOOR = 1e-3
EIG_FLOOR = 1e-12
JITTER_SCALE = 1e-10
MAX_JITTER_DOUBLINGS = 10

# Cells in the one block a Bernoulli generation streams through, so that no
# (n, d) copy of it wider than bool is ever made: 64 KB of raw words plus
# 64 KB of tiled uint16 thresholds when it is drawn in line (a split draw's
# two halves stream through 4 BLOCK_CELLS each, and share the thresholds),
# and 256 KB of float64 when a refit takes the blocked gemv.  A categorical
# draw and the sphere objective also stream through one block of this size.
BLOCK_CELLS = 1 << 15
# The Bernoulli refit counts the kept rows of a bool batch of at least
# COUNT_MIN_DIM bits (below that the gemv is faster) in chunks of 8 BLOCK_CELLS
# bytes: at most 4096 rows at d >= 64, too few to wrap a uint16 count.
COUNT_MIN_DIM = 64


class ExpectationParams:
    """Carrier for an expectation-parameter vector, read-only.

    ``values`` is a 1-D float64 vector of length D in the family's
    documented layout; ``family_tag`` identifies the family instance
    (e.g. ``"bernoulli:8"``, ``"gaussian:3"``, ``"categorical:4x3"``).
    Validity enforcement (floors, positive-definiteness) lives in the
    family constructors, which repair or reject on construction.

    Gaussian parameters that a refit, a blend or a model makes carry its
    mean and covariance (``mean``, ``cov``; else None), because theta's
    S = C + m m^T cannot hold C once |m|^2 >> C.  A model is built from
    (m, C), and ``values`` is theta derived from them on first read; one
    that overflows raises :class:`DegenerateModelError` then.
    """

    __slots__ = ("_values", "family_tag", "mean", "cov")

    def __init__(self, values, family_tag: str):
        vals = np.asarray(values, dtype=np.float64).reshape(-1).copy()
        vals.setflags(write=False)
        self._values, self.family_tag, self.mean, self.cov = vals, family_tag, None, None

    @classmethod
    def _of_mean_cov(cls, mean: np.ndarray, cov: np.ndarray, family_tag: str):
        # (m, C) are float64 arrays that the caller made and no one writes.
        mean.setflags(write=False)
        cov.setflags(write=False)
        params = cls.__new__(cls)
        params._values, params.family_tag, params.mean, params.cov = None, family_tag, mean, cov
        return params

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = _theta_of_mean_cov(self.mean, self.cov)
        return self._values

    def blend(self, other: "ExpectationParams", gamma: float) -> "ExpectationParams":
        """(1 - gamma) * self + gamma * other.  When either side carries a
        covariance, the blend of the (m, S) pairs is formed in covariance
        terms, equal in exact arithmetic: mean (1 - gamma) m + gamma m~ and
        covariance (1 - gamma) C + gamma C~ + gamma (1 - gamma) (m - m~)(m - m~)^T."""
        if self.cov is None and other.cov is None:
            return ExpectationParams(
                (1.0 - gamma) * self.values + gamma * other.values, self.family_tag
            )
        (m, C), (mt, Ct) = _mean_cov_of(self), _mean_cov_of(other)
        delta = m - mt
        # An overflow reaches the covariance as inf, which the model built
        # from it rejects, like the refit's.
        with np.errstate(over="ignore"):
            cov = (1.0 - gamma) * C + gamma * Ct + gamma * (1.0 - gamma) * (delta[:, None] * delta)
        return ExpectationParams._of_mean_cov((1.0 - gamma) * m + gamma * mt, cov, self.family_tag)


@functools.cache
def _linalg():
    """``scipy.linalg``, imported on the first call; cached, so that the
    kernels' later calls go through no import machinery."""
    import scipy.linalg

    return scipy.linalg


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, copy=True)
    a.setflags(write=False)
    return a


@functools.cache
def _eye(d: int) -> np.ndarray:
    # Cached and shared by every caller, hence read-only.
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
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

    The public methods live here and are the only input boundary.  A
    method on points takes a batch (``*_batch``; a point of length ``dim``
    is a batch of one).  Each checks once (``_as_batch``, which is
    ``domain.check``, or ``n >= 1``), then calls an unchecked family hook
    on a checked batch or on the model's own samples.

    The hooks, which each family defines once:

    * ``family`` (its name), ``kind`` (its ``Domain`` kind), ``_shape()``
      ((dim,) or (dim, arity)) and the static ``_param_count(domain)``
      (theta's length); ``domain``, ``dim``, ``n_params`` and
      ``family_tag`` derive from these here.
    * ``params``, the one producer of theta; the JSON document reads it.
    * ``_from_layout(values, domain)`` (a classmethod): the model whose
      theta is ``values``; the constructor's checks and repair apply.
      ``_from_params(params)``: the same for ``with_params``, which repairs
      an update.
    * ``_draw(rng, n[, part])``, ``_log_density(Z)``, ``_suff_stats(Z)``,
      ``_score_batch(Z)``, ``_fisher()``: the public methods' kernels.
    * ``_noise(rng, n, dim)``, only in a family whose draw is a theta-free
      array X that theta places (the Gaussian's normals): X drawn from a
      Generator or its seed.  Its ``_draw`` places ``_noise(rng, n, dim)``,
      or, as its part, the future of ``_noise(seed, n, dim)``, so the engine
      may draw X ahead from the seed, on another thread.  ``_noise`` is a
      staticmethod, so a pending draw holds no model alive.
    * ``_draw_rows(bitgen, Z, start, stop, thr)``, only in a family whose
      draw reads a fixed number of raw generator words per cell (the
      Bernoulli's quarter word): rows [start, stop) of a draw, from a bit
      generator at the range's first word, returning the range's ties.
      Its ``_draw`` takes an executor as its part, on which it draws a
      second row range from a PCG64 jumped ahead to it, so the engine may
      split one generation's draw between two threads.
    * ``_mean_log_density(theta_bar)``: sum_i q_i log p(z_i | theta), in
      closed form from the refit theta_bar = sum_i q_i T(z_i) of weights q
      that sum to 1.  The engine's M-steps, its free energy and the
      exact-EM oracle call it and ``_refit``, the one weighted-moment
      kernel (defined here, overridden by two families), on samples they
      have already checked.
    * ``_on_boundary()``: whether a probability or the smallest covariance
      eigenvalue is at (or past) its floor.
    * ``natural_params()`` and ``log_partition()``: eta, laid out to pair
      with T(z), and A, so that log p(z) = log h(z) + eta . T(z) - A, with
      base measure log h(z) = -d log(2 pi) / 2 for the Gaussian and 0 for
      the discrete families.
    """

    # Models are immutable, so the domain and the tag are built once: the
    # domain, which checks dim >= 1, by the constructor; the tag on first use.
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
        # Parameters that carry (m, C) have the layout their tag names.
        if params.cov is None and params.values.size != self.n_params:
            raise FamilyMismatchError(
                f"{self.family_tag!r} expects {self.n_params} parameters, got {params.values.size}"
            )
        return self._from_params(params)

    # -- core operations ----------------------------------------------------

    def sample(self, n: int, rng_seed: int, *, _helper=None) -> np.ndarray:
        """Draw ``n`` i.i.d. points; identical (seed, model, n) gives
        bit-identical output.

        ``_helper`` is private to the engine's ``run``: the helper thread's
        part of this draw, the same bits.  It is a one-worker executor for
        a family with ``_draw_rows``, and for a family with ``_noise`` the
        future of ``_noise(rng_seed, n, dim)``, drawn ahead."""
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = np.random.default_rng(rng_seed)
        return self._draw(rng, n) if _helper is None else self._draw(rng, n, _helper)

    def log_density_batch(self, Z) -> np.ndarray:
        return self._log_density(self._as_batch(Z))

    def sufficient_stats_batch(self, Z) -> np.ndarray:
        return self._suff_stats(self._as_batch(Z))

    def grad_log_density_batch(self, Z) -> np.ndarray:
        """Score with respect to the expectation parameters, one row per
        point.

        Requires strictly interior parameters; raises
        :class:`BoundaryError` at a floor/eigenvalue boundary.
        """
        self._check_interior()
        return self._score_batch(self._as_batch(Z))

    def fisher_information(self) -> np.ndarray:
        """Fisher information matrix in the expectation parameterization.

        For a minimal exponential family in mean coordinates this equals
        the inverse covariance of the sufficient statistics.
        """
        self._check_interior()
        return self._fisher()

    # -- internals ----------------------------------------------------------

    def _as_batch(self, Z) -> np.ndarray:
        return self.domain.check(Z)

    def _refit(self, Z, w, total: float) -> ExpectationParams:
        """The weighted mean sum_i w_i T(z_i) / total, unrepaired, for
        weights w >= 0 that sum to ``total`` > 0; the Bernoulli and the
        Gaussian form it without the (n, n_params) statistics matrix."""
        return ExpectationParams(w @ self._suff_stats(Z) / total, self.family_tag)

    def _check_interior(self) -> None:
        if self._on_boundary():
            raise BoundaryError(
                f"{self.family_tag} parameters sit at a floor boundary; score and "
                "Fisher information require strictly interior parameters"
            )

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        doc = {"family": self.family, "dim": self.dim}
        if self.domain.arity is not None:
            doc["arity"] = self.domain.arity
        doc["params"] = [float(v) for v in self.params.values]
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
        if (probs < 0.0).any() or (probs > 1.0).any():
            raise DomainError("Bernoulli probabilities must lie in [0, 1]")
        self._probs = _readonly(np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR))
        self.domain  # built now, so that a model of no dimension raises here

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

    @property
    def params(self) -> ExpectationParams:
        return ExpectationParams(self._probs, self.family_tag)

    def _from_params(self, params) -> "BernoulliProductModel":
        # Repair policy for updates: clip into the floored box.
        return BernoulliProductModel(np.clip(params.values, 0.0, 1.0))

    def _draw(self, rng, n: int, helper=None) -> np.ndarray:
        # A bool array, one byte per bit, by the lazy bitwise comparison of
        # a uniform with p (Knuth and Yao 1976), 16 bits at a time.  Cell k
        # of the generation, in C order, takes quarter k of the raw PCG64
        # word stream, lowest quarter first, and z = b < thr with
        # thr = floor(p 2^16), compared as uint16.  A tie b == thr (2^-16
        # per cell) is settled after the whole generation by one float64
        # uniform r per tie, in cell order: z = r < frac with
        # frac = p 2^16 - thr.  PROB_FLOOR >= 2^-17 makes frac a multiple of
        # 2^-53, so P(z = 1) = p exactly.
        #
        # With a ``helper`` (a one-worker executor, from the engine's run),
        # rows [0, h) are drawn here and rows [h, n) on the helper, at the
        # same time and with the same bits: h, about n / 2, is a multiple
        # of 4 (or n itself, for n <= 4), so row h starts word h d / 4,
        # where a second PCG64, jumped ahead to it in O(log n) steps,
        # begins.  Then this generator skips the helper's words and settles
        # the ties of both ranges, as it would have.
        # The halves stream through blocks of 4 BLOCK_CELLS, as GIL handoffs
        # between them set the block size.  p50 of 200 interleaved 1000 x
        # 2000 draws on 2 CPUs, two runs: in line 2.78-2.98 ms; split with
        # blocks of 1, 2, 4, 8 and 16 BLOCK_CELLS 3.35-3.90, 2.51-2.75,
        # 2.04-2.35, 2.29-2.54 and 3.09-3.43 ms.
        d = self.dim
        Z = np.empty((n, d), dtype=np.bool_)
        bitgen = rng.bit_generator
        if helper is None:
            ties = self._draw_rows(bitgen, Z, 0, n, self._thresholds(BLOCK_CELLS, n))
        else:
            thr = self._thresholds(4 * BLOCK_CELLS, n)  # read by both halves
            h = min(n, 4 * max(1, n // 8))
            ahead = np.random.PCG64()
            ahead.state = bitgen.state
            ahead.advance(h * d // 4)
            rest = helper.submit(self._draw_rows, ahead, Z, h, n, thr)
            ties = self._draw_rows(bitgen, Z, 0, h, thr)
            ties += rest.result()
            bitgen.advance((n * d + 3) // 4 - (h * d + 3) // 4)
        if ties:
            k = np.concatenate(ties)
            scaled = self._probs[k % d] * 2.0**16
            Z.reshape(-1)[k] = rng.random(k.size) < scaled - np.floor(scaled)
        return Z

    def _thresholds(self, cells: int, n: int) -> np.ndarray:
        """floor(p 2^16) as uint16, tiled over one block of a draw of n
        rows: about ``cells`` cells, in whole rows, and in whole words (a
        row count that is a multiple of 4 when d is not) unless it holds
        all n rows, so that the stream does not depend on the block size."""
        d = self.dim
        rows = max(1, cells // d)
        if d % 4:
            rows = max(4, rows - rows % 4)
        # Truncation is the floor here: p 2^16 is positive and below 2^16.
        return np.tile((self._probs * 2.0**16).astype(np.uint16), min(rows, n))

    def _draw_rows(self, bitgen, Z, start: int, stop: int, thr) -> list:
        """Write rows [start, stop) of a draw into the bool array Z, from
        the bit generator ``bitgen`` placed at the range's first word, in
        blocks of ``thr`` (``_thresholds``); return the range's tie cells,
        flat indices into Z in C order, as a list of arrays.  Reads no
        model state but the probabilities, so the engine's helper thread
        may run it on rows that no other call writes."""
        flat = Z.reshape(-1)
        end = stop * Z.shape[1]
        ties = []
        for lo in range(start * Z.shape[1], end, thr.size):
            out = flat[lo : min(lo + thr.size, end)]
            t = thr[: out.size]
            words = bitgen.random_raw((out.size + 3) // 4)
            b = words.astype("<u8", copy=False).view("<u2")[: out.size]
            # The output slice holds the tie mask until the comparison.
            k = np.flatnonzero(np.equal(b, t, out=out))
            if k.size:
                ties.append(lo + k)
            np.less(b, t, out=out)
            del words, b  # so the next block's words never coexist with these
        return ties

    def _log_density(self, Z) -> np.ndarray:
        p = self._probs
        return Z @ np.log(p) + (1.0 - Z) @ np.log1p(-p)

    def _suff_stats(self, Z) -> np.ndarray:
        return np.asarray(Z, dtype=np.float64)

    def _refit(self, Z, w, total: float) -> ExpectationParams:
        # With integer-valued weights every partial sum is exact, so the sum
        # equals w @ Z bit for bit; otherwise only the summation order differs.
        # Weights of 0 and 1 (quantile and cdf shaping) make it a count of the
        # ones in the kept rows of a wide bool batch, read in place in uint16
        # chunks of 8 BLOCK_CELLS bytes, the gemv block's size (1000 x 2000, 500
        # kept, 2 CPUs: 147-152 us at 131 rows, 165-285 us at 65-16 rows, 161 us
        # for one copy of all kept rows); any other batch takes a blocked gemv.
        acc = np.zeros(self.dim)
        if Z.dtype == np.bool_ and self.dim >= COUNT_MIN_DIM:
            keep = np.flatnonzero(w)
            if np.all(w[keep] == 1.0):
                bits, step = Z.view(np.uint8), max(1, 8 * BLOCK_CELLS // self.dim)
                for start in range(0, keep.size, step):
                    acc += np.add.reduce(bits[keep[start : start + step]], axis=0, dtype=np.uint16)
                return ExpectationParams(acc / total, self.family_tag)
        for rows, block in _row_blocks(*Z.shape):
            block[...] = Z[rows]
            acc += w[rows] @ block
        return ExpectationParams(acc / total, self.family_tag)

    def _mean_log_density(self, theta_bar) -> float:
        p, t = self._probs, theta_bar.values
        return float(t @ np.log(p) + (1.0 - t) @ np.log1p(-p))

    def _score_batch(self, Z) -> np.ndarray:
        p = self._probs
        return Z / p - (1.0 - Z) / (1.0 - p)

    def _fisher(self) -> np.ndarray:
        p = self._probs
        return np.diag(1.0 / (p * (1.0 - p)))

    def _on_boundary(self) -> bool:
        return bool(np.any(self._probs <= PROB_FLOOR) or np.any(self._probs >= 1.0 - PROB_FLOOR))

    def natural_params(self) -> np.ndarray:
        p = self._probs
        return np.log(p) - np.log1p(-p)

    def log_partition(self) -> float:
        return float(-np.log1p(-self._probs).sum())


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
    """The symmetric d x d matrix whose ``vech`` is ``v``."""
    rows, cols = _tril_indices(d)
    M = np.empty((d, d))
    M[rows, cols] = v
    M[cols, rows] = v
    return M


def _theta_join(mean: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The Gaussian theta = (m, s), with s = vech(S) and S = E[z z^T] = C + m m^T."""
    return np.concatenate([mean, s])


def _theta_split(theta: np.ndarray, d: int):
    """(m, S) of a Gaussian theta."""
    return theta[:d], unvech(theta[d:], d)


def _theta_of_mean_cov(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """theta of (m, C), read-only, with vech(S) formed on the triangle
    alone.  S overflows to inf before (m, C) does; such a model has no
    theta, and raises."""
    rows, cols = _tril_indices(mean.shape[0])
    with np.errstate(over="ignore"):
        theta = _theta_join(mean, cov[rows, cols] + mean[rows] * mean[cols])
    _require_finite(theta, "theta")
    theta.setflags(write=False)
    return theta


def _mean_cov_of(params: ExpectationParams):
    """(m, C) of Gaussian parameters: the pair they carry, or S - m m^T
    from theta when they carry none."""
    if params.cov is not None:
        return params.mean, params.cov
    m, S = _theta_split(params.values, int(params.family_tag.partition(":")[2]))
    return m, S - np.outer(m, m)


def _checked_pair(mean, M, name: str):
    """(m, M) of a public Gaussian form, (m, S) or (m, C): read-only float64
    copies, M of shape d x d, both finite, and M replaced by its symmetric
    part when it is not symmetric."""
    m = _readonly(mean).reshape(-1)
    M = np.array(M, dtype=np.float64)
    d = m.shape[0]
    if M.shape != (d, d):
        raise DomainError(f"{name} must be {d}x{d}, got {M.shape}")
    _require_finite(m, "mean")
    _require_finite(M, name)
    if not np.array_equal(M, M.T):
        # Halving each side first cannot overflow.
        M = 0.5 * M + 0.5 * M.T
    M.setflags(write=False)
    return m, M


def _vech_doubled(M: np.ndarray) -> np.ndarray:
    """vech over the last two axes with the off-diagonals doubled: the
    coefficients on vech(S) of sum_ij M_ij S_ij for symmetric S."""
    rows, cols = _tril_indices(M.shape[-1])
    return M[..., rows, cols] * np.where(rows != cols, 2.0, 1.0)


class GaussianModel(SearchModel):
    """Full-covariance Gaussian in expectation parameterization.

    theta = (m, vech(S)) with m = E[z] and S = E[z z^T], and T(z) = (z,
    vech(z z^T)), so the weighted-mean refit reproduces weighted sample
    moments.  The model keeps m, the covariance C and its lower Cholesky
    factor L.  It is built from (m, S), where C = S - m m^T, or from (m, C)
    by ``from_mean_cov`` and from the parameters of a refit or a blend,
    which carry C, so that no iteration forms S - m m^T, which cancels when
    |m|^2 >> C.  An asymmetric matrix is replaced by its symmetric part.

    Construction repairs C to smallest eigenvalue >= ``EIG_FLOOR`` by
    trace-scaled jitter (see ``_repair_cov``), doubling at most
    ``MAX_JITTER_DOUBLINGS`` times; if that fails the model raises instead
    of silently clamping.  A model built from (m, S) that needs no jitter
    reports theta as given; otherwise theta derives from C, and ``params``
    carries C alongside.  Either is formed and checked at construction.
    """

    family = "gaussian"
    kind = "continuous"

    def __init__(self, mean, second_moment, *, _own=False):
        # Private: ``from_mean_cov`` and ``with_params`` pass (m, C) in place
        # of (m, S) with ``_own``: arrays checked by ``_checked_pair`` or made
        # by a refit, a blend or a model, read-only and C exactly symmetric,
        # so they are neither copied nor symmetrized.
        m, C0, S = mean, second_moment, None
        if not _own:
            m, S = _checked_pair(mean, second_moment, "second_moment")
            C0 = S - np.outer(m, m)
        self._mean = m
        self.domain  # built now, so that a model of no dimension raises here
        self._cov, self._chol = self._repair_cov(C0)
        # Formed now, so that an overflowing theta raises here: theta as
        # given when no jitter was needed, so that params -> model -> params
        # round-trips bit-identically; else derived from C, with C alongside.
        if S is not None and self._cov is C0:
            self.params = ExpectationParams(_theta_join(m, vech(S)), self.family_tag)
        else:
            self.params = ExpectationParams._of_mean_cov(m, self._cov, self.family_tag)
            self.params.values

    @staticmethod
    def _repair_cov(C: np.ndarray):
        """Return the repaired covariance and its lower Cholesky factor,
        both read-only.

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
        if not np.isfinite(C).all():
            raise DegenerateModelError("covariance contains non-finite entries")
        eye = _eye(d)
        dpotrf = _linalg().lapack.dpotrf
        floor, jitter = EIG_FLOOR, 0.0
        for attempt in range(MAX_JITTER_DOUBLINGS + 1):
            # C - floor I, which the test factorization overwrites.
            shifted = np.array(C, order="F")
            shifted.flat[:: d + 1] -= floor
            if dpotrf(shifted, lower=1, overwrite_a=1)[1] == 0:
                L, info = dpotrf(C, lower=1, clean=1)
                if info == 0:
                    C.setflags(write=False)
                    L.setflags(write=False)
                    return C, L
            if attempt == MAX_JITTER_DOUBLINGS:
                break
            if not attempt:
                floor = 2.0 * EIG_FLOOR
                jitter = max(JITTER_SCALE * float(np.trace(C)) / d, EIG_FLOOR)
            C = C + jitter * eye
            jitter *= 2.0
        raise DegenerateModelError("covariance not positive definite after jitter repair")

    @classmethod
    def from_mean_cov(cls, mean, cov) -> "GaussianModel":
        return cls(*_checked_pair(mean, cov, "cov"), _own=True)

    @property
    def mean(self) -> np.ndarray:
        return self._mean

    @property
    def second_moment(self) -> np.ndarray:
        return _theta_split(self.params.values, self.dim)[1]

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
        return cls(*_theta_split(values, domain.dim))

    def _from_params(self, params) -> "GaussianModel":
        if params.cov is None:
            return self._from_layout(params.values, self.domain)
        return GaussianModel(params.mean, params.cov, _own=True)

    # Derived from the immutable Cholesky factor on first use, and shared by
    # the free energy and MAP's log-prior; closed-form runs read it once per
    # iteration, in the free energy.
    @functools.cached_property
    def _precision(self) -> np.ndarray:
        # potrs on the factor, the solve that cho_solve makes after its
        # finiteness checks, which the factor of a built model passes.
        P = _linalg().lapack.dpotrs(self._chol, _eye(self.dim), lower=1)[0]
        P.setflags(write=False)
        return P

    @functools.cached_property
    def _log_det(self) -> float:
        return 2.0 * float(np.log(self._chol.diagonal()).sum())

    def _draw(self, rng, n: int, ahead=None) -> np.ndarray:
        # The (n, d) standard normals X, drawn here or, with ``ahead``, the
        # future of ``_noise`` on the engine's helper, become m + L x row by
        # row, in place: trmm on the transposed view, which is the Fortran
        # layout BLAS takes.
        X = self._noise(rng, n, self.dim) if ahead is None else ahead.result()
        X = _linalg().blas.dtrmm(1.0, self._chol, X.T, side=0, lower=1, overwrite_b=1).T
        X += self._mean
        return X

    @staticmethod
    def _noise(rng, n: int, dim: int) -> np.ndarray:
        # The (n, d) standard normals of a draw.  default_rng returns a
        # Generator unaltered, and makes one from a seed.
        return np.random.default_rng(rng).standard_normal((n, dim))

    def _log_density(self, Z) -> np.ndarray:
        U = Z - self._mean
        # Solve L y = u per point; the Mahalanobis term is |y|^2 with C = L L^T.
        Yt = _linalg().solve_triangular(self._chol, U.T, lower=True)
        maha = np.sum(Yt * Yt, axis=0)
        return -0.5 * (self.dim * math.log(2.0 * math.pi) + self._log_det + maha)

    def _suff_stats(self, Z) -> np.ndarray:
        outer = Z[:, :, None] * Z[:, None, :]
        idx = _tril_indices(self.dim)
        return np.concatenate([Z, outer[:, idx[0], idx[1]]], axis=1)

    def _refit(self, Z, w, total: float) -> ExpectationParams:
        # Centred moments over the rows with w > 0 (a quantile shaping keeps
        # a fraction of them): m~ = sum q z and C~ = sum q (z - m~)(z - m~)^T
        # with q = w / total.  C~ is one triangle of a rank-k update (syrk),
        # mirrored, so exactly symmetric; BLAS lets an overflow through as
        # inf, which the model built from it rejects.  Its theta is formed
        # only if read.
        keep = w > 0.0
        U, q = Z[keep], w[keep] / total
        mean = q @ U
        U -= mean
        U *= np.sqrt(q)[:, None]
        C = _linalg().blas.dsyrk(1.0, U.T, lower=1)
        # syrk leaves the strict upper triangle zero; the lower one is
        # copied onto it in place.
        rows, cols = _tril_indices(self.dim)
        C[cols, rows] = C[rows, cols]
        return ExpectationParams._of_mean_cov(mean, C, self.family_tag)

    def _mean_log_density(self, theta_bar) -> float:
        # sum_i q_i log p(z_i) = -(d log 2 pi + log det C + tr(C^-1 C~)
        # + delta^T C^-1 delta) / 2 with delta = m~ - m: the cross term
        # vanishes about the refit's own mean.
        m_bar, C_bar = _mean_cov_of(theta_bar)
        P = self._precision
        delta = m_bar - self._mean
        maha = float((P * C_bar).sum()) + float(delta @ P @ delta)
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

    def _on_boundary(self) -> bool:
        return float(np.linalg.eigvalsh(self._cov)[0]) <= EIG_FLOOR

    def natural_params(self) -> np.ndarray:
        P = self._precision
        return np.concatenate([P @ self._mean, _vech_doubled(-0.5 * P)])

    def log_partition(self) -> float:
        m = self._mean
        return float(0.5 * m @ self._precision @ m + 0.5 * self._log_det)


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
        # Only rows off the simplex are normalized.  Every row stores its
        # last category as 1 - sum(rest), the way theta rebuilds it, so that
        # a model rebuilt from its own parameters is this model.
        off = np.abs(row_sums - 1.0) > 1e-12
        if off.any():
            P[off] = P[off] / row_sums[off, None]
        P[:, -1] = 1.0 - P[:, :-1].sum(axis=1)
        # Entries below the floor are set to it and the others rescaled onto
        # the remaining mass, until no rescaled entry falls to it: at most K
        # passes, as each floors one more entry.
        low = (P < PROB_FLOOR - 1e-15).any(axis=1)
        if low.any():
            Q = P[low]
            floored = self._floored(Q)
            for _ in range(P.shape[1]):
                rest = np.where(floored, 0.0, Q)
                scale = (1.0 - PROB_FLOOR * floored.sum(axis=1)) / rest.sum(axis=1)
                Q = np.where(floored, PROB_FLOOR, rest * scale[:, None])
                floored, before = self._floored(Q), floored
                if np.array_equal(floored, before):
                    break
            Q[:, -1] = 1.0 - Q[:, :-1].sum(axis=1)
            P[low] = Q
        self._probs = _readonly(P)
        self.domain  # built now, so that a model of no dimension raises here

    @staticmethod
    def _floored(P: np.ndarray) -> np.ndarray:
        # Entries on the floor: within 1e-15 of it, so that a floored last
        # category rebuilt as 1 - sum(rest) counts as floored, both for the
        # repair, which leaves it as it is, and for ``_on_boundary``.
        return P <= PROB_FLOOR + 1e-15

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

    @property
    def params(self) -> ExpectationParams:
        return ExpectationParams(self._probs[:, :-1], self.family_tag)

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
        # Per site the one-hot row of z without its last column.
        return np.eye(self.arity, self.arity - 1)[Z].reshape(Z.shape[0], -1)

    def _score_batch(self, Z) -> np.ndarray:
        # T(z) / p[:, :-1] - 1[z = K - 1] / p[:, -1], site by site.
        n, d, K = Z.shape[0], self.dim, self.arity
        T = self._suff_stats(Z).reshape(n, d, K - 1)
        last = (Z == K - 1)[:, :, None]
        return (T / self._probs[:, :-1] - last / self._probs[:, -1:]).reshape(n, -1)

    def _fisher(self) -> np.ndarray:
        # One block per site, diag(1 / p[:-1]) + 1 / p[-1], on the diagonal
        # of a (d, K - 1, d, K - 1) array of zeros.
        d, k = self.dim, self.arity - 1
        inv = 1.0 / self._probs
        F = np.zeros((d, k, d, k))
        sites = np.arange(d)
        F[sites, :, sites, :] = np.eye(k) * inv[:, :-1, None] + inv[:, -1, None, None]
        return F.reshape(d * k, d * k)

    def _on_boundary(self) -> bool:
        return bool(self._floored(self._probs).any())

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


def all_real(values) -> bool:
    """Whether ``values`` is a list whose entries, nested lists included,
    are all real numbers, none a bool, string, null or object: the one type
    check of model parameters from outside (finiteness is checked later)."""
    if not isinstance(values, (list, tuple)):
        return False
    return all(
        all_real(v) if isinstance(v, (list, tuple))
        else isinstance(v, numbers.Real) and not isinstance(v, bool)
        for v in values
    )


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
    params = doc.get("params", [])
    if not all_real(params):
        raise DomainError("params in model JSON must be a list of real numbers, not bools, "
                          "strings, nulls or objects")
    try:
        params = np.asarray(params, dtype=np.float64)
    except (ValueError, OverflowError) as exc:  # a ragged list, an int past float64
        raise DomainError(f"params in model JSON: {exc}") from exc
    if params.shape != (n,):
        layout = f"dim = {d}" + (f", arity = {K}" if K is not None else "")
        raise DomainError(
            f"params has shape {params.shape} in model JSON; {family} with {layout} takes {n}"
        )
    return cls._from_layout(params, domain)


def model_from_json(text: str) -> SearchModel:
    return model_from_json_dict(json.loads(text))
