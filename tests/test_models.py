"""Search-distribution tests: densities, sampling, scores, Fisher
information, parameter repair, and serialization."""

from __future__ import annotations

import inspect
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, cho_solve

from edaem import models, shaping
from edaem.errors import (
    BoundaryError,
    DegenerateModelError,
    DomainError,
    FamilyMismatchError,
)
from edaem.models import (
    EIG_FLOOR,
    PROB_FLOOR,
    BernoulliProductModel,
    CategoricalProductModel,
    ExpectationParams,
    GaussianModel,
    SearchModel,
    model_from_json,
    unvech,
    vech,
)
from edaem.objectives import Domain
from edaem.shaping import ShapingSpec
from independent_oracles import (
    bernoulli_reference_draw,
    categorical_reference_draw,
    gaussian_mean_log_density,
    gaussian_moment_blend,
    gaussian_reference_draw,
    gaussian_weighted_moments,
)


def enumerate_states(dim, arity=2):
    return np.array(list(itertools.product(range(arity), repeat=dim)), dtype=np.int64)


# ---------------------------------------------------------------------------
# log densities and sufficient statistics
# ---------------------------------------------------------------------------


def test_bernoulli_log_density_uniform():
    m = BernoulliProductModel([0.5, 0.5])
    assert m.log_density_batch([0, 1])[0] == pytest.approx(math.log(0.25), abs=1e-14)


def test_bernoulli_log_density_definition():
    m = BernoulliProductModel([0.75])
    assert m.log_density_batch([1])[0] == pytest.approx(math.log(0.75), abs=1e-14)


def test_gaussian_standard_normal_mode():
    g = GaussianModel.from_mean_cov([0.0], [[1.0]])
    assert g.log_density_batch(0.0)[0] == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-14)


def test_sufficient_stats_bernoulli_is_identity():
    m = BernoulliProductModel([0.4, 0.4, 0.4])
    np.testing.assert_array_equal(m.sufficient_stats_batch([1, 0, 1])[0], [1.0, 0.0, 1.0])


def test_sufficient_stats_gaussian_z_and_square():
    g = GaussianModel.from_mean_cov([0.0], [[1.0]])
    np.testing.assert_allclose(g.sufficient_stats_batch([2.0])[0], [2.0, 4.0])


def test_sufficient_stats_categorical_one_hot_minimal():
    c = CategoricalProductModel([[1 / 3, 1 / 3, 1 / 3]])
    # value 2 is the dropped redundant coordinate: minimal stats all zero
    np.testing.assert_array_equal(c.sufficient_stats_batch([2])[0], [0.0, 0.0])
    np.testing.assert_array_equal(c.sufficient_stats_batch([0])[0], [1.0, 0.0])


@pytest.mark.parametrize(
    "model",
    [
        BernoulliProductModel([0.3, 0.62, 0.5]),
        BernoulliProductModel([0.3]),
        GaussianModel.from_mean_cov([0.5, -1.0, 2.0], np.diag([1.5, 0.9, 3.0])),
        GaussianModel.from_mean_cov([0.5], [[2.0]]),
        CategoricalProductModel([[0.25, 0.35, 0.4], [0.5, 0.2, 0.3]]),
        CategoricalProductModel([[0.25, 0.35, 0.4]]),
    ],
)
def test_refit_is_the_weighted_mean_of_stats(model):
    rng = np.random.default_rng(41)
    Z = model.sample(64, 43)
    w = rng.uniform(0.0, 3.0, size=64)
    w[::5] = 0.0
    total = float(w.sum())
    ref = w @ model.sufficient_stats_batch(Z) / total
    got = model._refit(model._as_batch(Z), w, total).values
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-12


@pytest.mark.parametrize(
    "model",
    [
        BernoulliProductModel([0.2, 0.7, 0.55]),
        CategoricalProductModel([[0.2, 0.3, 0.5], [0.6, 0.25, 0.15]]),
    ],
)
def test_discrete_normalization(model):
    arity = getattr(model, "arity", 2)
    states = enumerate_states(model.dim, arity)
    total = np.exp(model.log_density_batch(states)).sum()
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "model",
    [
        BernoulliProductModel([0.2, 0.7]),
        GaussianModel.from_mean_cov([0.5, -1.0], [[1.5, 0.4], [0.4, 0.9]]),
        CategoricalProductModel([[0.2, 0.3, 0.5]]),
    ],
)
def test_canonical_form_identity(model):
    # log p(z) = log h(z) + eta . T(z) - A(theta), where log h is constant:
    # -d log(2 pi) / 2 for the Gaussian, 0 for the discrete families.
    rng = np.random.default_rng(1)
    if isinstance(model, GaussianModel):
        Z = model.sample(5, 3)
    elif isinstance(model, CategoricalProductModel):
        Z = rng.integers(0, model.arity, size=(5, model.dim))
    else:
        Z = rng.integers(0, 2, size=(5, model.dim))
    log_h = -0.5 * model.dim * math.log(2 * math.pi) if isinstance(model, GaussianModel) else 0.0
    eta = model.natural_params()
    A = model.log_partition()
    lhs = model.log_density_batch(Z)
    rhs = log_h + model.sufficient_stats_batch(Z) @ eta - A
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)


def test_bernoulli_domain_error():
    m = BernoulliProductModel([0.5, 0.5])
    with pytest.raises(DomainError):
        m.log_density_batch([0, 2])


def _bits_as(dtype, n=40, d=7, seed=3):
    return np.random.default_rng(seed).integers(0, 2, size=(n, d)).astype(dtype)


# Block sizes for the draw: one cell (one row, or four when d is not a
# multiple of 4), a handful, one large block and the default.
DRAW_BLOCKS = (1, 2, 7, 1 << 20, models.BLOCK_CELLS)


def test_bernoulli_sample_is_bool_on_the_uniform_stream(monkeypatch):
    p = np.array([0.2, 0.5, 0.9, 0.05, 0.7])
    ref = bernoulli_reference_draw(p, 300, 17)
    for block in DRAW_BLOCKS:
        monkeypatch.setattr(models, "BLOCK_CELLS", block)
        Z = BernoulliProductModel(p).sample(300, 17)
        assert Z.dtype == np.bool_
        assert np.array_equal(Z, ref)


@pytest.mark.parametrize("n", [1, 17, 1000])
@pytest.mark.parametrize("d", [1, 3, 6, 2000, 40000])
def test_bernoulli_draw_is_the_one_shot_comparison(d, n, monkeypatch):
    # The draw streams through blocks of whole words: the last block of a
    # run is partial, at d = 40000 each block is one row, and when d is not
    # a multiple of 4 (d = 1, 3, 6) a block holds a multiple of 4 rows.
    m = BernoulliProductModel(np.random.default_rng(d).uniform(0.0, 1.0, size=d))
    ref = bernoulli_reference_draw(m.probs, n, 23)
    for block in DRAW_BLOCKS:
        monkeypatch.setattr(models, "BLOCK_CELLS", block)
        Z = m.sample(n, 23)
        assert Z.dtype == np.bool_ and Z.shape == (n, d)
        assert np.array_equal(Z, ref)


class _Words:
    """A stand-in generator that hands out given raw words and uniforms,
    and logs the order of its calls."""

    def __init__(self, words, uniforms):
        self.bit_generator = self
        self._words = list(words)
        self._uniforms = list(uniforms)
        self.calls = []

    def random_raw(self, size):
        self.calls.append("words")
        out, self._words = self._words[:size], self._words[size:]
        return np.array(out, dtype=np.uint64)

    def random(self, size=None, out=None):
        self.calls.append("uniforms")
        shape = size if out is None else out.shape
        k = math.prod(np.atleast_1d(shape))
        got, self._uniforms = self._uniforms[:k], self._uniforms[k:]
        if out is None:
            return np.array(got).reshape(shape)
        out[...] = np.reshape(got, shape)
        return out


@pytest.mark.parametrize("block", [1, 1 << 15])
def test_bernoulli_draw_settles_ties_with_one_uniform_each(block, monkeypatch):
    # p = 0.3: thr = floor(0.3 * 2^16) and frac = 0.3 * 2^16 - thr ~ 0.8.
    # Cells in C order: tie, below, tie, above, tie, (three dropped
    # quarters).
    monkeypatch.setattr(models, "BLOCK_CELLS", block)
    p = 0.3
    thr = math.floor(p * 2.0**16)
    frac = p * 2.0**16 - thr
    assert 0.79 < frac < 0.81
    quarters = [thr, thr - 1, thr, thr + 1, thr, 0, 0, 0]
    words = [
        sum(q << (16 * j) for j, q in enumerate(quarters[i : i + 4]))
        for i in range(0, len(quarters), 4)
    ]
    # The uniforms go to the ties in cell order: below frac, at it, above.
    rng = _Words(words, [frac - 1e-9, frac, 0.9])
    Z = BernoulliProductModel([p])._draw(rng, 5)
    assert Z.reshape(-1).tolist() == [True, True, False, False, False]
    assert rng._words == [] and rng._uniforms == []
    # Every word is drawn before the uniforms, whatever the block size.
    assert rng.calls[-1] == "uniforms" and rng.calls.count("uniforms") == 1


@pytest.mark.parametrize("block", DRAW_BLOCKS)
@pytest.mark.parametrize("n,d", [(1, 1), (5, 1), (7, 3), (9, 6), (3, 2000), (2, 40000), (13, 31)])
def test_bernoulli_draw_reads_a_quarter_word_per_cell(n, d, block, monkeypatch):
    # An (n, d) draw reads ceil(n d / 4) raw words, whatever the block
    # size; every word's quarters are 0x7fff, below thr = 0x8000 at p = 0.5,
    # so no uniform is drawn.
    monkeypatch.setattr(models, "BLOCK_CELLS", block)
    words = math.ceil(n * d / 4)
    rng = _Words([0x7FFF7FFF7FFF7FFF] * (words + 3), [])
    Z = BernoulliProductModel(np.full(d, 0.5))._draw(rng, n)
    assert Z.all() and Z.shape == (n, d)
    assert len(rng._words) == 3 and "uniforms" not in rng.calls


def test_prob_floor_keeps_the_tie_fraction_on_the_uniform_grid():
    # For p >= 2^-17 the steps of p are at least 2^-69, so the tie fraction
    # p 2^16 - floor(p 2^16) lies on multiples of 2^-53, the grid of the
    # float64 uniforms, and a tie is settled with exactly that probability.
    # One step above 2^-18 it is off the grid.
    def on_grid(p):
        frac = p * 2.0**16 - math.floor(p * 2.0**16)
        return frac * 2.0**53 == math.floor(frac * 2.0**53)

    assert PROB_FLOOR >= 2.0**-17
    assert on_grid(np.nextafter(2.0**-17, 1.0)) and on_grid(np.nextafter(PROB_FLOOR, 1.0))
    assert not on_grid(np.nextafter(2.0**-18, 1.0))


@pytest.mark.parametrize("p", [PROB_FLOOR, 0.5, 1.0 - PROB_FLOOR])
def test_bernoulli_draw_frequency(p):
    # 4e6 cells; the bound is 5 standard errors.
    n, d = 20_000, 200
    mean = BernoulliProductModel(np.full(d, p)).sample(n, 8).mean()
    assert abs(mean - p) < 5.0 * math.sqrt(p * (1.0 - p) / (n * d))


@pytest.mark.parametrize("n,d", [(1000, 2000), (17, 3), (2000, 31)])
def test_bernoulli_draw_memory_is_one_block_beyond_the_generation(n, d):
    # Raw words (2 bytes a cell) and tiled uint16 thresholds (2 bytes a
    # cell) over one block; no (n, d) array wider than bool.  At d = 31 a
    # block's arrays take 130,944 of the 131,072 bytes, and the generator
    # and the array headers add about 2 KB, hence the 4 KB allowance.
    m = BernoulliProductModel(np.random.default_rng(d).uniform(0.0, 1.0, size=d))
    tracemalloc.start()
    try:
        Z = m.sample(n, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - Z.nbytes <= models.BLOCK_CELLS * 4 + 4096


@pytest.fixture(scope="module")
def helper():
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        yield pool


@pytest.mark.parametrize("p", ["mid", "floored"])
@pytest.mark.parametrize("n", [2, 5, 8, 9, 1001])
@pytest.mark.parametrize("d", [1, 3, 31, 2001])
def test_bernoulli_split_draw_is_the_in_line_draw(d, n, p, helper):
    # Rows [h, n) come from a PCG64 jumped ahead to word h d / 4; the
    # generator then stands where the in-line draw leaves it.  Floored
    # probabilities tie about 30 times in the 2001 x 1001 draws.
    probs = (np.random.default_rng(d).uniform(0.0, 1.0, size=d) if p == "mid"
             else np.full(d, PROB_FLOOR))
    m = BernoulliProductModel(probs)
    for seed in (0, 1, 23):
        inline, split = np.random.default_rng(seed), np.random.default_rng(seed)
        ref = m._draw(inline, n)
        got = m._draw(split, n, helper)
        assert got.dtype == np.bool_ and np.array_equal(got, ref)
        assert split.random() == inline.random()
    assert np.array_equal(m.sample(n, 23, _helper=helper), m.sample(n, 23))


@pytest.mark.parametrize("n,d", [(1000, 2000), (2000, 31), (1001, 2001)])
def test_bernoulli_split_draw_memory_is_two_halves_beyond_the_generation(n, d, helper):
    # Each half streams its raw words (2 bytes a cell) through blocks of
    # 4 BLOCK_CELLS, and both read one tile of uint16 thresholds (2 bytes a
    # cell): 768 KB in all, with about 8 KB for the second generator, the
    # future and the array headers.
    m = BernoulliProductModel(np.random.default_rng(d).uniform(0.0, 1.0, size=d))
    m.sample(n, 9, _helper=helper)  # the executor's thread already started
    tracemalloc.start()
    try:
        Z = m.sample(n, 9, _helper=helper)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - Z.nbytes <= 3 * 2 * 4 * models.BLOCK_CELLS + 8192


@pytest.mark.parametrize("n,d", [(1, 3), (40, 7), (1000, 2000), (3, 40000)])
def test_bernoulli_blocked_refit_is_the_gemv(n, d):
    rng = np.random.default_rng(n + d)
    m = BernoulliProductModel(np.full(d, 0.4))
    Z = m.sample(n, 5)
    ints = rng.integers(0, 4, size=n).astype(np.float64)
    t = float(ints.sum()) or 1.0
    assert np.array_equal(m._refit(Z, ints, t).values, (ints @ Z.astype(np.float64)) / t)
    frac = rng.uniform(0.0, 1.0, size=n)
    t = float(frac.sum())
    np.testing.assert_allclose(
        m._refit(Z, frac, t).values, (frac @ Z.astype(np.float64)) / t, rtol=1e-12, atol=0.0
    )


def _gemv_calls(monkeypatch) -> list:
    # The blocked gemv is the one caller of _row_blocks in the refit.
    calls, blocks = [], models._row_blocks
    monkeypatch.setattr(models, "_row_blocks", lambda n, d: calls.append((n, d)) or blocks(n, d))
    return calls


def _count_chunk(d: int, chunk) -> int:
    # The BLOCK_CELLS at which the count's chunk, max(1, 8 BLOCK_CELLS // d)
    # rows, is `chunk` rows ("default" keeps the module's own).
    if chunk == "default":
        return models.BLOCK_CELLS
    return -(-chunk * d // 8)


def _chunk_rows(d: int, chunk) -> int:
    return max(1, 8 * _count_chunk(d, chunk) // d)


_COUNT_SHAPES = [(1, 64), (10, 64), (7, 100), (1000, 2000), (40, 20000)]


# 0/1 weights on a bool batch of at least COUNT_MIN_DIM bits, counted in
# chunks of 1 row, 3 rows and the default, with about half the rows kept or
# one more than a full chunk.
@pytest.mark.parametrize(
    "n,d,chunk,kept",
    [pytest.param(n, d, c, "half", id=f"{n}-{d}-{c}")
     for n, d in _COUNT_SHAPES for c in (1, 3, "default")]
    + [pytest.param(n, d, c, "chunk+1", id=f"{n}-{d}-{c}-chunk+1")
       for n, d in [*_COUNT_SHAPES, (4100, 64)] for c in (1, 3, "default")
       if _chunk_rows(d, c) < n],
)
def test_bernoulli_refit_counts_the_kept_rows(n, d, chunk, kept, monkeypatch):
    # The count over the kept rows equals the gemv bit for bit.
    gemv = _gemv_calls(monkeypatch)
    assert d >= models.COUNT_MIN_DIM
    m = BernoulliProductModel(np.random.default_rng(d).uniform(0.0, 1.0, size=d))
    Z = m.sample(n, 5)
    rng = np.random.default_rng(n + d)
    if kept == "half":
        w = (rng.uniform(size=n) < 0.5).astype(np.float64)
        w[0] = 1.0
    else:
        w = np.zeros(n)
        w[rng.choice(n, size=_chunk_rows(d, chunk) + 1, replace=False)] = 1.0
    monkeypatch.setattr(models, "BLOCK_CELLS", _count_chunk(d, chunk))
    t = float(w.sum())
    assert np.array_equal(m._refit(Z, w, t).values, (w @ Z.astype(np.float64)) / t)
    assert gemv == []


def test_bernoulli_count_chunk_is_the_uint16_limit():
    # 65536 kept rows of ones, one more than a uint16 holds, count to 1.
    d = models.COUNT_MIN_DIM
    Z = np.ones((np.iinfo(np.uint16).max + 1, d), dtype=np.bool_)
    w = np.ones(Z.shape[0])
    m = BernoulliProductModel(np.full(d, 0.5))
    assert np.array_equal(m._refit(Z, w, float(w.sum())).values, np.ones(d))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(
    st.integers(1, 3000),
    st.one_of(st.integers(64, 300), st.sampled_from([2000, 2001])),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 3]),
    st.floats(0.0, 1.0),
)
def test_bernoulli_refit_is_the_gemv_on_drawn_batches(n, d, seed, top, frac):
    # 0/1 keep sets (the count) and integer weights up to 3 (the gemv) of at
    # least one row: every partial sum is an exact integer.
    rng = np.random.default_rng(seed)
    Z = rng.uniform(size=(n, d)) < rng.uniform()
    w = np.where(rng.uniform(size=n) < frac, rng.integers(1, top + 1, size=n), 0).astype(float)
    w[rng.integers(n)] = 1.0
    t = float(w.sum())
    m = BernoulliProductModel(np.full(d, 0.5))
    assert np.array_equal(m._refit(Z, w, t).values, (w @ Z.astype(np.float64)) / t)


@pytest.mark.parametrize("case", ["rank", "exp", "narrow", "float batch", "weight 2"])
def test_bernoulli_refit_keeps_the_gemv(case, monkeypatch):
    # Weights other than 0/1, batches narrower than COUNT_MIN_DIM bits
    # (the MC fixture's shape) and non-bool batches take the blocked gemv.
    n, d = (100_000, 2) if case == "narrow" else (300, 100)
    m = BernoulliProductModel(np.full(d, 0.4))
    Z = m.sample(n, 6)
    f = np.random.default_rng(7).normal(size=n)
    spec = {"rank": "rank", "exp": "exp:1.0"}.get(case, "quantile:0.5")
    w = shaping.shape(ShapingSpec.parse(spec), f)
    if case == "float batch":
        Z = m._as_batch(Z.astype(np.int64))
    if case == "weight 2":
        w[np.flatnonzero(w)[0]] = 2.0
    gemv = _gemv_calls(monkeypatch)
    t = float(w.sum())
    got = m._refit(Z, w, t).values
    assert gemv == [(n, d)]
    np.testing.assert_allclose(got, (w @ Z.astype(np.float64)) / t, rtol=1e-12, atol=0.0)


def test_bernoulli_count_refit_memory_is_one_chunk():
    # One chunk of kept rows as bool (8 BLOCK_CELLS bytes), plus the row
    # indices and a few float64 rows of d (the accumulator, the chunk's
    # uint16 count and its float64 cast, the mean and its read-only copy).
    n, d = 1000, 2000
    m = BernoulliProductModel(np.full(d, 0.5))
    Z = m.sample(n, 3)
    w = np.zeros(n)
    w[::2] = 1.0
    tracemalloc.start()
    try:
        m._refit(Z, w, float(w.sum()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * models.BLOCK_CELLS + 16 * n + 40 * d


@pytest.mark.parametrize(
    "model",
    [
        BernoulliProductModel([0.0, 0.3, 1.0, 0.999, 0.5, 0.0005]),
        CategoricalProductModel([[0.0, 0.3, 0.7], [0.9995, 0.0005, 0.0], [0.2, 0.5, 0.3]]),
        GaussianModel.from_mean_cov([0.5, -1.0], [[1.5, 0.4], [0.4, 0.9]]),
    ],
)
def test_mean_log_density_reads_the_mean_statistics(model):
    # sum_i q_i log p(z_i) from theta_bar = sum_i q_i T(z_i), on floored
    # parameters and weights with zeros
    Z = model._as_batch(model.sample(200, 8))
    q = np.random.default_rng(9).uniform(0.0, 1.0, size=200)
    q[::3] = 0.0
    q /= q.sum()
    ref = q @ model._log_density(Z)
    got = model._mean_log_density(model._refit(Z, q, float(q.sum())))
    assert abs(got - ref) <= 1e-13 * abs(ref)


def test_bernoulli_bool_int_float_inputs_agree_exactly():
    m = BernoulliProductModel([0.3, 0.62, 0.5, 0.11, 0.9, 0.45, 0.7])
    w = np.random.default_rng(5).uniform(0.0, 2.0, size=40)
    ref = _bits_as(np.float64)
    for dtype in (np.bool_, np.int64):
        Z = _bits_as(dtype)
        for got, want in [
            (m.log_density_batch(Z), m.log_density_batch(ref)),
            (m.sufficient_stats_batch(Z), m.sufficient_stats_batch(ref)),
            (m._refit(m._as_batch(Z), w, 2.0).values, m._refit(m._as_batch(ref), w, 2.0).values),
            (m._score_batch(Z), m._score_batch(ref)),
        ]:
            assert got.dtype == np.float64
            assert np.array_equal(got, want)


@pytest.mark.parametrize("bad", [np.array([[0, 2]]), np.array([[0.5, 1.0]])])
def test_bernoulli_as_batch_rejects_non_binary(bad):
    with pytest.raises(DomainError):
        BernoulliProductModel([0.5, 0.5])._as_batch(bad)


def test_categorical_domain_error():
    c = CategoricalProductModel([[0.5, 0.5]])
    with pytest.raises(DomainError):
        c.log_density_batch([2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e30])
def test_categorical_check_rejects_non_integers_without_a_cast_warning(bad):
    Z = np.array([[0.0, bad]])
    model = CategoricalProductModel(np.full((2, 3), 1.0 / 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            Domain("categorical", 2, 3).check(Z)
        with pytest.raises(DomainError):
            model.log_density_batch(Z[0])


def test_gaussian_domain_error_on_nan():
    g = GaussianModel.from_mean_cov([0.0], [[1.0]])
    with pytest.raises(DomainError):
        g.log_density_batch([float("nan")])


# Interior models, so the score methods reach the input check, each with one
# point off its support.
_OFF_SUPPORT = {
    "bernoulli": (BernoulliProductModel([0.3, 0.62]), [0, 2]),
    "gaussian": (GaussianModel.from_mean_cov([0.4, -0.7], np.eye(2)), [float("nan"), 0.0]),
    "categorical": (CategoricalProductModel([[0.25, 0.35, 0.4], [0.5, 0.2, 0.3]]), [3, 0]),
}

# Each public point method, on one point (keyed by the quantity) and on a
# batch of two.
_PUBLIC_INPUT_METHODS = {
    "log_density": lambda m, z: m.log_density_batch(z),
    "log_density_batch": lambda m, z: m.log_density_batch([z, z]),
    "sufficient_stats": lambda m, z: m.sufficient_stats_batch(z),
    "sufficient_stats_batch": lambda m, z: m.sufficient_stats_batch([z, z]),
    "grad_log_density": lambda m, z: m.grad_log_density_batch(z),
    "grad_log_density_batch": lambda m, z: m.grad_log_density_batch([z, z]),
}


def test_input_table_covers_the_public_point_methods():
    # Every public method whose first argument is a point or a batch; each
    # takes a batch, and one point as a batch of one.
    takes_points = set()
    for name in dir(SearchModel):
        attr = getattr(SearchModel, name)
        if name.startswith("_") or not inspect.isfunction(attr):
            continue
        params = list(inspect.signature(attr).parameters)
        if params[1:2] in (["z"], ["Z"]):
            takes_points.add(name)
    assert takes_points == {n for n in _PUBLIC_INPUT_METHODS if n.endswith("_batch")}
    assert takes_points == {f"{n}_batch" for n in _PUBLIC_INPUT_METHODS if "_batch" not in n}


@pytest.mark.parametrize("method", sorted(_PUBLIC_INPUT_METHODS))
@pytest.mark.parametrize("family", sorted(_OFF_SUPPORT))
def test_every_public_method_rejects_off_support_input(family, method):
    model, point = _OFF_SUPPORT[family]
    with pytest.raises(DomainError):
        _PUBLIC_INPUT_METHODS[method](model, np.array(point))


# A valid batch of several points per family; a dim-1 Gaussian reads a
# vector as a batch.
_BATCHES = {
    "bernoulli": (BernoulliProductModel([0.4, 0.6]), [[0, 1], [1, 0]]),
    "gaussian": (GaussianModel.from_mean_cov([0.5], [[2.0]]), [1.0, 2.0, 3.0]),
    "categorical": (
        CategoricalProductModel([[0.25, 0.35, 0.4], [0.5, 0.2, 0.3]]), [[2, 0], [1, 1]]
    ),
}


@pytest.mark.parametrize("method", ["log_density", "sufficient_stats", "grad_log_density"])
@pytest.mark.parametrize("family", sorted(_BATCHES))
def test_batch_methods_take_one_point(family, method):
    # One point of a batch is a batch of one, and reads as its row of the
    # whole batch.
    model, Z = _BATCHES[family]
    batch = getattr(model, f"{method}_batch")
    one = batch(Z[0])
    assert one.shape[0] == 1
    assert np.array_equal(one, batch(Z[:1]))
    assert np.array_equal(one[0], batch(Z)[0])


def test_gaussian_precision_is_lazy_cached_and_read_only():
    g = GaussianModel.from_mean_cov([0.4, -0.7], [[1.1, 0.3], [0.3, 0.7]])
    assert "_precision" not in vars(g)  # construction does not form it
    P = g._precision
    assert P is g._precision
    assert not P.flags.writeable
    np.testing.assert_array_equal(P, cho_solve((g._chol, True), np.eye(2)))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _gaussian_5d(seed, spread=0.5, scale=2.0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(5, 5))
    return GaussianModel.from_mean_cov(
        rng.uniform(-scale, scale, 5), A @ A.T + spread * np.eye(5)
    ), rng


def test_gaussian_draw_is_the_matrix_product():
    g, _ = _gaussian_5d(3)
    X = g.sample(400, 4)
    ref = gaussian_reference_draw(g._chol, g.mean, 400, 4)
    np.testing.assert_allclose(X, ref, rtol=0, atol=1e-14 * np.abs(ref).max())


def test_gaussian_draw_is_its_noise_placed():
    # The engine draws ahead with _noise(seed, n, dim) and hands sample the
    # future of the result, which it places: the same bits as sample(n, seed).
    from concurrent.futures import Future

    g, _ = _gaussian_5d(3)
    X = g._noise(4, 400, 5)
    assert X.tobytes() == g._noise(np.random.default_rng(4), 400, 5).tobytes()
    ahead = Future()
    ahead.set_result(X)
    Z = g.sample(400, 4, _helper=ahead)
    assert np.shares_memory(Z, X)  # placed in place
    assert Z.tobytes() == g.sample(400, 4).tobytes()
    # A draw pending on the engine's helper holds no model (and its factors).
    assert not hasattr(g._noise, "__self__")


def test_gaussian_draw_makes_one_generation_array():
    # The normals are multiplied and shifted in place: the draw's peak is
    # the (n, d) generation itself, not two or three copies of it.
    d, n = 100, 1000
    g = GaussianModel.from_mean_cov(np.ones(d), np.eye(d) + 0.5)
    g.sample(2, 0)
    tracemalloc.start()
    try:
        X = g.sample(n, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert X.shape == (n, d) and X.flags.c_contiguous
    assert peak < 1.2 * n * d * 8


def test_gaussian_refit_is_the_centred_weighted_moments():
    g, rng = _gaussian_5d(4)
    Z = g.sample(80, 2)
    w = rng.uniform(0.0, 1.0, size=80)
    w[w < 0.5] = 0.0  # a quantile shaping's zeros
    tilde = g._refit(Z, w, float(w.sum()))
    m_ref, C_ref = gaussian_weighted_moments(Z, w)
    np.testing.assert_allclose(tilde.values[:5], m_ref, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(tilde.cov, C_ref, rtol=0, atol=1e-13 * np.abs(C_ref).max())
    assert np.array_equal(tilde.cov, tilde.cov.T)


def test_gaussian_refit_and_theta_match_their_full_matrix_forms():
    # The refit mirrors syrk's triangle in place, and theta's vech(S) is
    # formed on the triangle alone: the same bits as the sum with the
    # transpose and as vech(C + m m^T) over full d x d matrices.
    g, rng = _gaussian_5d(7, scale=3.0)
    Z = g.sample(80, 4) + 2.0
    w = rng.uniform(0.0, 1.0, size=80)
    w[w < 0.5] = 0.0
    tilde = g._refit(Z, w, float(w.sum()))
    keep = w > 0.0
    q = w[keep] / float(w.sum())
    m = q @ Z[keep]
    U = (Z[keep] - m) * np.sqrt(q)[:, None]
    C = models._linalg().blas.dsyrk(1.0, U.T, lower=1)
    full = np.add(C, C.T, order="F")
    np.fill_diagonal(full, C.diagonal())
    theta = np.concatenate([m, models.vech(full + m[:, None] * m)])
    assert tilde.mean.tobytes() == m.tobytes()
    assert tilde.cov.tobytes(order="F") == full.tobytes(order="F")
    assert tilde.values.tobytes() == theta.tobytes()


@pytest.mark.parametrize("gamma", [0.1, 0.5, 0.8, 1.0])
def test_gaussian_covariance_blend_is_the_second_moment_blend(gamma):
    g, rng = _gaussian_5d(5, scale=3.0)
    Z = g.sample(60, 3) + 1.5  # move the refit's mean away from the model's
    w = rng.uniform(0.0, 1.0, size=60)
    tilde = g._refit(Z, w, float(w.sum()))
    got = g.params.blend(tilde, gamma)
    m_ref, C_ref = gaussian_moment_blend(g.mean, g.cov, tilde.values[:5], tilde.cov, gamma)
    np.testing.assert_allclose(got.values[:5], m_ref, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(got.cov, C_ref, rtol=0, atol=1e-12 * np.abs(C_ref).max())
    # theta is the blend of the thetas
    np.testing.assert_allclose(
        got.values, (1.0 - gamma) * g.params.values + gamma * tilde.values, rtol=1e-13
    )


@pytest.mark.parametrize("step", ["closed_form", "map_smoothed", "jittered"])
def test_gaussian_moment_free_energy_is_the_per_sample_sum(step):
    g, rng = _gaussian_5d(6)
    w = rng.uniform(0.0, 1.0, size=40)
    w[w < 0.6] = 0.0
    if step == "jittered":
        # A spread at the floor, as late in a converged run, and 3 kept
        # rows in 5 dimensions: the refit is singular and needs jitter.
        g = GaussianModel.from_mean_cov(g.mean, 3e-12 * np.eye(5))
        w[np.flatnonzero(w)[3:]] = 0.0
    Z = g._as_batch(g.sample(40, 8))
    total = float(w.sum())
    tilde = g._refit(Z, w, total)
    nxt = g.with_params(g.params.blend(tilde, 0.8) if step == "map_smoothed" else tilde)
    assert np.array_equal(nxt.cov, tilde.cov) == (step == "closed_form")
    ref = gaussian_mean_log_density(Z, w / total, nxt.mean, nxt.cov)
    got = nxt._mean_log_density(tilde)
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_sampling_deterministic_per_seed():
    models = [
        BernoulliProductModel([0.3, 0.8]),
        GaussianModel.from_mean_cov([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]]),
        CategoricalProductModel([[0.2, 0.3, 0.5]]),
    ]
    for m in models:
        a = m.sample(64, 123)
        b = m.sample(64, 123)
        assert a.tobytes() == b.tobytes()
        c = m.sample(64, 124)
        assert a.tobytes() != c.tobytes()


def test_bernoulli_near_point_mass():
    m = BernoulliProductModel([1.0])  # clipped to 1 - floor = 0.999
    assert m.probs[0] == pytest.approx(0.999)
    draws = m.sample(5000, 7).mean()
    # 3 sigma around 0.999 at n = 5000
    assert abs(draws - 0.999) < 3 * math.sqrt(0.999 * 0.001 / 5000)


def test_gaussian_sample_mean_lln():
    g = GaussianModel.from_mean_cov(np.zeros(2), np.eye(2))
    Z = g.sample(100_000, 5)
    assert np.all(np.abs(Z.mean(axis=0)) < 3.0 / math.sqrt(100_000))


def test_categorical_counts_uniform():
    c = CategoricalProductModel([[1 / 3, 1 / 3, 1 / 3]])
    Z = c.sample(30_000, 9).reshape(-1)
    counts = np.bincount(Z, minlength=3) / 30_000
    sigma = math.sqrt((1 / 3) * (2 / 3) / 30_000)
    assert np.all(np.abs(counts - 1 / 3) < 3 * sigma)


def _assert_categorical_draw_is_the_reference(K, seed, blocks, monkeypatch):
    probs = np.random.default_rng(K).dirichlet(np.ones(K), size=6)
    c = CategoricalProductModel(probs)
    u = np.random.default_rng(seed).random((400, 6))
    ref = categorical_reference_draw(c.probs, u)
    for block in blocks:
        monkeypatch.setattr(models, "BLOCK_CELLS", block)
        Z = c.sample(400, seed)
        assert Z.dtype == np.int64
        assert np.array_equal(Z, ref)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("K", [2, 3, 7, 50])
def test_categorical_draw_is_the_capped_comparison_count(K, seed, monkeypatch):
    # The draw counts one block at a time; the uniforms are one (n, d)
    # stream whatever the block size.
    _assert_categorical_draw_is_the_reference(K, seed, DRAW_BLOCKS, monkeypatch)


def test_categorical_draw_counts_past_255(monkeypatch):
    # The count is uint8 up to K = 256 and uint16 above.
    _assert_categorical_draw_is_the_reference(300, 0, (60, models.BLOCK_CELLS), monkeypatch)


def test_categorical_draw_caps_at_the_last_category():
    # The first row sums to 1 - 1e-13, within the constructor's tolerance,
    # so it is not normalized; like every row it stores its last category
    # as 1 - sum(rest).  Uniforms above the last cut land in the last
    # category, as do those above a cumulative sum that ends at 1.
    probs = np.array([[0.5, 0.25, 0.25 - 1e-13], [0.2, 0.3, 0.5]])
    c = CategoricalProductModel(probs)
    assert c.probs[0, 2] == 1.0 - probs[0, :2].sum()
    u = np.array([[1.0 - 1e-14, 1.0 - 2.0**-53], [0.0, 0.2], [0.6, 0.5], [0.75, 0.7]])
    Z = c._draw(_Words([], u.reshape(-1)), 4)
    assert np.array_equal(Z, categorical_reference_draw(c.probs, u))
    assert Z.tolist() == [[2, 2], [0, 0], [1, 1], [1, 2]]


def test_sample_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        BernoulliProductModel([0.5]).sample(0, 1)


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------


def test_bernoulli_score_analytic():
    m = BernoulliProductModel([0.5])
    assert m.grad_log_density_batch([1])[0, 0] == pytest.approx(2.0)
    assert m.grad_log_density_batch([0])[0, 0] == pytest.approx(-2.0)


@pytest.mark.parametrize(
    "model,point",
    [
        (BernoulliProductModel([0.3, 0.62]), [1, 0]),
        (GaussianModel.from_mean_cov([0.4, -0.7], [[1.1, 0.3], [0.3, 0.7]]), [0.2, 1.5]),
        (CategoricalProductModel([[0.25, 0.35, 0.4], [0.5, 0.2, 0.3]]), [2, 0]),
    ],
)
def test_score_matches_central_differences(model, point):
    grad = model.grad_log_density_batch(point)[0]
    vals = model.params.values
    h = 1e-6 * max(1.0, float(np.max(np.abs(vals))))
    for i in range(len(vals)):
        vp, vm = vals.copy(), vals.copy()
        vp[i] += h
        vm[i] -= h
        fd = (
            model.with_params(vp).log_density_batch(point)[0]
            - model.with_params(vm).log_density_batch(point)[0]
        ) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_score_boundary_error():
    at_floor = BernoulliProductModel([1.0])  # clips to the ceiling
    with pytest.raises(BoundaryError):
        at_floor.grad_log_density_batch([1])


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------


def test_fisher_bernoulli_diag():
    np.testing.assert_allclose(
        BernoulliProductModel([0.5]).fisher_information(), [[4.0]]
    )
    np.testing.assert_allclose(
        BernoulliProductModel([0.5, 0.1]).fisher_information(),
        np.diag([4.0, 1.0 / 0.09]),
    )


def test_fisher_monte_carlo_bernoulli():
    m = BernoulliProductModel([0.3])
    Z = m.sample(1_000_000, 11)
    s = m.grad_log_density_batch(Z)
    mc = float((s**2).mean())
    exact = m.fisher_information()[0, 0]
    assert abs(mc - exact) / exact < 0.02


@pytest.mark.parametrize(
    "model",
    [
        BernoulliProductModel([0.3, 0.62, 0.8]),
        CategoricalProductModel([[0.25, 0.35, 0.4], [0.5, 0.2, 0.3]]),
    ],
)
def test_fisher_equals_enumerated_score_outer(model):
    arity = getattr(model, "arity", 2)
    states = enumerate_states(model.dim, arity)
    probs = np.exp(model.log_density_batch(states))
    s = model.grad_log_density_batch(states)
    enum = (probs[:, None, None] * (s[:, :, None] * s[:, None, :])).sum(axis=0)
    np.testing.assert_allclose(model.fisher_information(), enum, atol=1e-8)


@pytest.mark.parametrize("d,K", [(1, 2), (5, 4), (3, 7)])
def test_categorical_fisher_is_block_diag_of_the_site_blocks(d, K):
    model = CategoricalProductModel(np.random.default_rng(d * K).dirichlet(np.ones(K), size=d))
    blocks = [np.diag(1.0 / p[:-1]) + 1.0 / p[-1] for p in model.probs]
    np.testing.assert_array_equal(model.fisher_information(), block_diag(*blocks))


def test_fisher_gaussian_vs_monte_carlo():
    g = GaussianModel.from_mean_cov([0.3, -0.2], [[1.2, 0.3], [0.3, 0.8]])
    F = g.fisher_information()
    assert np.allclose(F, F.T)
    assert np.all(np.linalg.eigvalsh(F) > 0)
    Z = g.sample(400_000, 21)
    s = g.grad_log_density_batch(Z)
    mc = s.T @ s / Z.shape[0]
    assert np.max(np.abs(F - mc)) / np.max(np.abs(F)) < 0.05


def _natural_score_gap(model, Z, fisher):
    """Largest |fisher^-1 grad log p(z) - (T(z) - theta)| over the batch,
    and the largest |T(z) - theta| as its scale."""
    centred = model.sufficient_stats_batch(Z) - model.params.values
    natural = np.linalg.solve(fisher, model.grad_log_density_batch(Z).T).T
    return float(np.max(np.abs(natural - centred))), float(np.max(np.abs(centred)))


@pytest.mark.parametrize(
    "model",
    [
        BernoulliProductModel([0.3, 0.62, 0.8, 0.05]),
        CategoricalProductModel([[0.25, 0.35, 0.4], [0.5, 0.2, 0.3]]),
        GaussianModel.from_mean_cov(
            [1.0, -0.5, 2.0, 0.3],
            [[1.5, 0.3, -0.2, 0.1], [0.3, 1.0, 0.25, 0.0],
             [-0.2, 0.25, 0.8, 0.1], [0.1, 0.0, 0.1, 0.6]],
        ),
    ],
    ids=["bernoulli", "categorical", "gaussian"],
)
def test_natural_score_is_the_centred_statistic_exactly(model):
    # In mean coordinates grad log p(z) = I(theta) (T(z) - theta) at every z,
    # so the Fisher information must invert the score sample by sample.
    Z = model.sample(50, 3)
    fisher = model.fisher_information()
    gap, scale = _natural_score_gap(model, Z, fisher)
    tol = 1e-12 * max(1.0, scale)
    assert gap <= tol
    # The check has teeth: one diagonal entry off by 1% fails it.
    for i in range(model.n_params):
        bent = fisher.copy()
        bent[i, i] *= 1.01
        assert _natural_score_gap(model, Z, bent)[0] > tol


def test_fisher_boundary_error():
    with pytest.raises(BoundaryError):
        BernoulliProductModel([0.0]).fisher_information()


@pytest.mark.parametrize("probs", [[[0.5, 0.5, 0.0]], [[0.6, 0.4, 0.0]], [[0.0, 0.3, 0.7]]])
def test_categorical_floored_category_is_on_the_boundary(probs):
    # A floored last category is rebuilt as 1 - sum(rest), a rounding above
    # PROB_FLOOR (0.0010000000000000009 for the first row); it is still on
    # the floor, where the score and the Fisher information are undefined.
    model = CategoricalProductModel(probs)
    assert model.probs.min() == pytest.approx(models.PROB_FLOOR, rel=1e-12)
    with pytest.raises(BoundaryError):
        model.fisher_information()
    with pytest.raises(BoundaryError):
        model.grad_log_density_batch(np.zeros((2, 1), dtype=np.int64))


# ---------------------------------------------------------------------------
# round trip: uniform-weight refit recovers theta at rate ~ 1/sqrt(N)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "model",
    [
        BernoulliProductModel([0.3, 0.62]),
        GaussianModel.from_mean_cov([0.5, -1.0], [[1.5, 0.4], [0.4, 0.9]]),
        CategoricalProductModel([[0.25, 0.35, 0.4]]),
    ],
)
def test_uniform_weight_refit_recovers_theta(model):
    n = 200_000
    Z = model.sample(n, 31)
    theta_hat = model.sufficient_stats_batch(Z).mean(axis=0)
    err = np.max(np.abs(theta_hat - model.params.values))
    assert err < 12.0 / math.sqrt(n)


# ---------------------------------------------------------------------------
# repair and parameter plumbing
# ---------------------------------------------------------------------------


def test_bernoulli_repair_clips_to_floor():
    m = BernoulliProductModel([0.5])
    out = m.with_params(np.array([1.7 - 1.0]))  # 0.7 stays
    assert out.probs[0] == pytest.approx(0.7)
    clipped = m.with_params(np.array([1.0]))
    assert clipped.probs[0] == pytest.approx(0.999)


def test_bernoulli_constructor_rejects_outside_unit_interval():
    with pytest.raises(DomainError):
        BernoulliProductModel([1.2])


# Each row is a constructor call the family rejects, with the message.
@pytest.mark.parametrize(
    "build,match",
    [
        (lambda: GaussianModel([0.0, 0.0], np.eye(3)), "second_moment must be 2x2"),
        (lambda: GaussianModel.from_mean_cov([0.0], [1.0]), r"cov must be 1x1, got \(1,\)"),
        (lambda: CategoricalProductModel([[0.5, 0.6, -0.1]]), "nonnegative"),
        (lambda: CategoricalProductModel([[0.5, 0.5], [0.0, 0.0]]), "positive mass"),
    ],
    ids=["gaussian-S-shape", "gaussian-cov-shape", "categorical-negative", "categorical-zero-row"],
)
def test_constructor_rejects_invalid_parameters(build, match):
    with pytest.raises(DomainError, match=match):
        build()


def test_gaussian_repair_lifts_small_eigenvalues():
    # rank-deficient second moment: all mass at one point
    m = np.array([1.0, 1.0])
    S = np.outer(m, m)
    g = GaussianModel(m, S)
    assert np.linalg.eigvalsh(g.cov)[0] >= EIG_FLOOR  # repaired


def test_gaussian_repair_failure_is_an_error():
    with pytest.raises(DegenerateModelError):
        GaussianModel([0.0], [[float("nan")]])


def test_gaussian_symmetrization():
    S = np.array([[2.0, 0.3], [0.1, 1.0]])
    g = GaussianModel([0.0, 0.0], S)
    np.testing.assert_allclose(g.second_moment, g.second_moment.T)
    # Both constructors take the symmetric part, not one triangle.
    for h in (g, GaussianModel.from_mean_cov([0.0, 0.0], S)):
        assert h.cov[0, 1] == h.cov[1, 0] == pytest.approx(0.2, rel=1e-15)
    # Halving each side first: entries near the float64 limit do not overflow.
    big = GaussianModel.from_mean_cov([0.0, 0.0], [[1.7e308, 1e308], [0.0, 1.7e308]])
    assert big.cov[0, 1] == big.cov[1, 0] == 0.5e308


def test_gaussian_overflowing_theta_is_rejected():
    # (m, C) is finite but S = C + m m^T is not: no theta holds the model.
    with pytest.raises(DegenerateModelError):
        GaussianModel.from_mean_cov([1e200, 0.0], np.eye(2))
    with pytest.raises(DegenerateModelError):
        models._theta_of_mean_cov(np.zeros(2), np.full((2, 2), np.inf))


def test_gaussian_far_mean_keeps_a_small_covariance():
    # S - m m^T would cancel to rounding noise at |m|^2 = 3e12
    g = GaussianModel.from_mean_cov(np.full(3, 1e6), 1e-6 * np.eye(3))
    np.testing.assert_allclose(g.cov, 1e-6 * np.eye(3), rtol=1e-12, atol=0)


# Rank-one 2-d covariances with means in [-1, 1]: construction always
# jitters them, and S - m m^T re-derives them with rounding error.
_UNIT_PAIR = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@settings(derandomize=True, deadline=None, database=None, max_examples=500)
@given(_UNIT_PAIR, _UNIT_PAIR)
def test_gaussian_rebuilt_from_its_params_is_the_same_model(v, mean):
    g = GaussianModel.from_mean_cov(mean, np.outer(v, v))
    again = g.with_params(g.params)
    assert np.array_equal(again.params.values, g.params.values)
    assert np.array_equal(again.cov, g.cov)


@settings(derandomize=True, deadline=None, database=None, max_examples=500)
@given(_UNIT_PAIR, _UNIT_PAIR)
def test_gaussian_json_round_trip_near_singular(v, mean):
    g = GaussianModel.from_mean_cov(mean, np.outer(v, v))
    text = g.to_json()
    back = model_from_json(text)
    assert np.array_equal(back.params.values, g.params.values)
    assert back.to_json() == text
    assert np.array_equal(g.with_params(g.params.values).params.values, g.params.values)


def test_gaussian_far_mean_round_trips_with_its_covariance_only():
    # A zero covariance is jittered to 3 EIG_FLOOR I.  At |m| = 1e3,
    # eps |m|^2 = 2e-10 is far above EIG_FLOOR: S_11 = 1e6 + 3e-12 rounds
    # to 1e6, so theta alone re-derives a zero variance.
    g = GaussianModel.from_mean_cov([1e3, 0.0], np.zeros((2, 2)))
    np.testing.assert_allclose(g.cov, 3 * EIG_FLOOR * np.eye(2), rtol=1e-12, atol=0)
    # The params carry C, so rebuilding from them keeps the model.
    assert np.array_equal(g.with_params(g.params).cov, g.cov)
    # JSON holds theta only: the rebuild is repaired again, above the floor.
    back = model_from_json(g.to_json())
    assert not np.array_equal(back.cov, g.cov)
    assert np.linalg.eigvalsh(back.cov)[0] >= EIG_FLOOR


def test_categorical_rebuilt_from_its_params_after_repair_is_the_same_model():
    # Both rows are floored.
    c = CategoricalProductModel([[0.0, 0.3, 0.7], [0.9995, 0.0005, 0.0]])
    again = c.with_params(c.params)
    assert np.array_equal(again.probs, c.probs)


@pytest.mark.parametrize(
    "probs",
    [
        [[0.2, 0.5, 0.3]],
        np.full((2, 3), 1.0 / 3.0),
        np.random.default_rng(7).dirichlet(np.ones(12), size=40),
        [[1.0, 3.0, 4.0], [0.2, 0.5, 0.3]],
    ],
    ids=["given", "thirds", "dirichlet12", "off-simplex"],
)
def test_categorical_valid_rows_round_trip_exactly(probs):
    # theta drops the last category, so a rebuilt row re-derives it as
    # 1 - sum(rest); the model must store it that way already.
    c = CategoricalProductModel(probs)
    for again in (c.with_params(c.params), model_from_json(c.to_json())):
        assert np.array_equal(again.probs, c.probs)
    assert np.array_equal(c.probs[:, -1], 1.0 - c.probs[:, :-1].sum(axis=1))


def test_categorical_off_simplex_rows_are_normalized():
    # Only the row off the simplex is divided by its sum.
    c = CategoricalProductModel([[1.0, 3.0, 4.0], [0.2, 0.5, 0.3]])
    assert np.array_equal(c.probs, [[0.125, 0.375, 0.5], [0.2, 0.5, 1.0 - (0.2 + 0.5)]])


def test_categorical_repair_floors_and_renormalizes():
    c = CategoricalProductModel([[1.0, 0.0, 0.0]])
    assert np.all(c.probs >= PROB_FLOOR - 1e-15)
    assert c.probs.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("K", [3, 50, 999])
def test_categorical_repair_of_one_hot_rows_is_floored_and_round_trips(K):
    # One-hot rows put K - 1 entries below the floor; every one ends on it,
    # and the repaired model rebuilds bit for bit from theta and from JSON.
    probs = np.eye(2, K)
    probs[1] = np.roll(probs[1], K // 2)
    c = CategoricalProductModel(probs)
    assert np.all(c.probs >= PROB_FLOOR - 1e-15)
    np.testing.assert_allclose(c.probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    for again in (c.with_params(c.params), model_from_json(c.to_json())):
        assert np.array_equal(again.probs, c.probs)


def test_with_params_family_mismatch():
    b = BernoulliProductModel([0.5])
    bad = ExpectationParams(np.array([0.5]), "gaussian:1")
    with pytest.raises(FamilyMismatchError):
        b.with_params(bad)


def test_with_params_length_mismatch():
    b = BernoulliProductModel([0.5, 0.5])
    with pytest.raises(FamilyMismatchError):
        b.with_params(np.array([0.5, 0.5, 0.5]))


def test_params_roundtrip_bit_exact():
    for m in [
        BernoulliProductModel([0.25, 0.75]),
        GaussianModel.from_mean_cov([0.5, -1.0], [[1.5, 0.4], [0.4, 0.9]]),
        CategoricalProductModel([[0.25, 0.35, 0.4]]),
    ]:
        v = m.params.values
        again = m.with_params(v).params.values
        assert np.array_equal(v, again)


def test_vech_unvech_roundtrip():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(4, 4))
    S = A + A.T
    np.testing.assert_array_equal(unvech(vech(S), 4), S)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "model",
    [
        BernoulliProductModel([0.25, 0.75]),
        GaussianModel.from_mean_cov([0.5, -1.0], [[1.5, 0.4], [0.4, 0.9]]),
        CategoricalProductModel([[0.25, 0.35, 0.4], [0.5, 0.2, 0.3]]),
    ],
)
def test_json_roundtrip_and_stability(model):
    text = model.to_json()
    doc = json.loads(text)
    assert list(doc)[:2] == ["family", "dim"]
    back = model_from_json(text)
    assert back.family_tag == model.family_tag
    np.testing.assert_allclose(back.params.values, model.params.values, rtol=0, atol=0)
    # byte stability
    assert model.to_json() == text
    assert back.to_json() == text


# Documents in the layout that carried the floors as fields, one per family.
LEGACY_DOCS = [
    '{"family": "bernoulli", "dim": 2, "params": [0.25, 0.75], "floor": 0.001}',
    '{"family": "gaussian", "dim": 2, "params": [0.5, -1.0, 1.75, -0.1, 1.9], '
    '"eig_floor": 1e-12, "jitter_scale": 1e-10}',
    '{"family": "categorical", "dim": 2, "arity": 3, "params": [0.25, 0.35, 0.5, 0.2], '
    '"floor": 0.001}',
]
LEGACY_IDS = ["bernoulli", "gaussian", "categorical"]
FLOOR_FIELDS = ("floor", "eig_floor", "jitter_scale")


@pytest.mark.parametrize("text", LEGACY_DOCS, ids=LEGACY_IDS)
def test_json_legacy_layout_loads_bit_identical(text):
    doc = json.loads(text)
    back = model_from_json(text)
    assert np.array_equal(back.params.values, np.array(doc["params"]))
    for key in FLOOR_FIELDS:
        doc.pop(key, None)
    assert back.to_json() == json.dumps(doc)


@pytest.mark.parametrize("text", LEGACY_DOCS, ids=LEGACY_IDS)
def test_json_non_default_floor_field_rejected(text):
    doc = json.loads(text)
    for key in FLOOR_FIELDS:
        if key in doc:
            bad = {**doc, key: doc[key] * 10}
            with pytest.raises(DomainError, match=key):
                model_from_json(json.dumps(bad))


# Documents whose params do not fit dim and arity, or whose dim or arity is
# missing or not a count, with the field the error must name.
BAD_LAYOUT_DOCS = {
    "bernoulli-long": ('{"family": "bernoulli", "dim": 2, "params": [0.1, 0.2, 0.3]}', "params"),
    "gaussian-no-dim": ('{"family": "gaussian", "params": [0.5, -1.0, 1.75, -0.1, 1.9]}', "dim"),
    "gaussian-short": ('{"family": "gaussian", "dim": 2, "params": [0.5, -1.0, 1.75, -0.1]}',
                       "params"),
    "categorical-short": ('{"family": "categorical", "dim": 2, "arity": 3, '
                          '"params": [0.25, 0.35, 0.5]}', "params"),
    "dim-zero": ('{"family": "bernoulli", "dim": 0, "params": []}', "dim"),
    "dim-bool": ('{"family": "bernoulli", "dim": true, "params": [0.5]}', "dim"),
    "categorical-no-arity": ('{"family": "categorical", "dim": 1, "params": [0.5]}', "arity"),
}


@pytest.mark.parametrize("text,field", BAD_LAYOUT_DOCS.values(), ids=BAD_LAYOUT_DOCS)
def test_json_params_must_fit_dim_and_arity(text, field):
    with pytest.raises(DomainError, match=field):
        model_from_json(text)


# params that numpy would cast, or fail to cast, to numbers.
NON_REAL_PARAMS = {
    "strings": '{"family": "bernoulli", "dim": 2, "params": ["a", "b"]}',
    "object": '{"family": "bernoulli", "dim": 2, "params": [0.5, {}]}',
    "numeric-string": '{"family": "gaussian", "dim": 1, "params": [0.0, "1"]}',
    "bools": '{"family": "bernoulli", "dim": 2, "params": [true, false]}',
    "null": '{"family": "bernoulli", "dim": 2, "params": [0.5, null]}',
    "nested-string": '{"family": "bernoulli", "dim": 2, "params": [[0.5], ["0.5"]]}',
    "not-a-list": '{"family": "bernoulli", "dim": 2, "params": "0.5"}',
}


@pytest.mark.parametrize("text", NON_REAL_PARAMS.values(), ids=NON_REAL_PARAMS)
def test_json_params_must_be_real_numbers(text):
    with pytest.raises(DomainError, match="params .*must be a list of real numbers"):
        model_from_json(text)


@pytest.mark.parametrize("params", ["[[0.5], [0.5, 0.5]]", "[0.5, 1" + "0" * 400 + "]"],
                         ids=["ragged", "int-past-float64"])
def test_json_params_that_make_no_array_are_a_domain_error(params):
    with pytest.raises(DomainError, match="params in model JSON"):
        model_from_json('{"family": "bernoulli", "dim": 2, "params": %s}' % params)


@pytest.mark.parametrize(
    "text",
    [
        '{"family": "poisson", "dim": 2, "params": [1.0, 2.0]}',
        '{"family": 3, "dim": 1, "params": [0.5]}',
        '{"dim": 1, "params": [0.5]}',
    ],
    ids=["poisson", "not-a-name", "missing"],
)
def test_json_unknown_family_rejected(text):
    with pytest.raises(FamilyMismatchError, match="unknown family"):
        model_from_json(text)


def test_categorical_arity_must_stay_below_inverse_floor():
    K = round(1.0 / PROB_FLOOR)
    assert CategoricalProductModel(np.full((1, K - 1), 1.0 / (K - 1))).arity == K - 1
    with pytest.raises(DomainError):
        CategoricalProductModel(np.full((1, K), 1.0 / K))
