"""Objective tests: definitions, registry parsing, declared optima."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

from edaem import models
from edaem.errors import ConfigError, DomainError, ObjectiveError
from edaem.models import BernoulliProductModel, CategoricalProductModel, GaussianModel
from edaem.objectives import (
    Domain,
    Objective,
    evaluate_batch,
    leadingones,
    onemax,
    parse_objective,
    rastrigin_max,
    rosenbrock_max,
    sphere_max,
    trap,
)


def test_onemax_counts_bits():
    assert evaluate_batch(onemax(4), [1, 1, 0, 1])[0] == 3.0


def test_leadingones_prefix():
    assert evaluate_batch(leadingones(4), [1, 1, 0, 1])[0] == 2.0
    assert evaluate_batch(leadingones(4), [0, 1, 1, 1])[0] == 0.0
    assert evaluate_batch(leadingones(4), [1, 1, 1, 1])[0] == 4.0


def _leadingones_by_cumprod(Z):
    return np.cumprod(np.asarray(Z, dtype=np.float64), axis=1).sum(axis=1)


@pytest.mark.parametrize("dtype", [bool, np.int64, np.float64])
def test_leadingones_equals_the_prefix_product_count(dtype):
    rng = np.random.default_rng(7)
    Z = rng.random((300, 40)) < np.linspace(0.5, 0.99, 40)
    Z[0], Z[1] = True, False  # all ones, all zeros
    Z[2, :-1], Z[2, -1] = True, False  # first zero in the last column
    Z = Z.astype(dtype)
    values = leadingones(40).batch_eval(Z)
    np.testing.assert_array_equal(values, _leadingones_by_cumprod(Z))
    assert (values[0], values[1], values[2]) == (40, 0, 39)


def test_leadingones_makes_no_copy_of_the_generation():
    # A float64 cast of this bool generation alone would be 16 MB.
    Z = BernoulliProductModel(np.full(2000, 0.9)).sample(1000, 1)
    tracemalloc.start()
    try:
        leadingones(2000).batch_eval(Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("dtype", [bool, np.int64, np.float64])
@pytest.mark.parametrize("d", [1, 13, 2000, (1 << 16) - 1, 70_000])
def test_onemax_equals_the_int64_row_sum(d, dtype):
    # d = 70000 is past uint16: a batch of all ones there would wrap to 4464
    # in a 16-bit count.
    Z = np.random.default_rng(d).random((5, d)) < 0.6
    Z[0], Z[1] = True, False
    Z = Z.astype(dtype)
    values = onemax(d).batch_eval(Z)
    np.testing.assert_array_equal(values, np.sum(Z.astype(np.int64), axis=1))
    assert (values[0], values[1]) == (d, 0)
    np.testing.assert_array_equal(evaluate_batch(onemax(d), Z), values.astype(np.float64))


def test_sphere_max_at_origin():
    assert evaluate_batch(sphere_max(3), [0.0, 0.0, 0.0])[0] == 0.0
    assert evaluate_batch(sphere_max(3), [1.0, 2.0, 0.0])[0] == -5.0


@pytest.mark.parametrize("block", [1, 7, 1 << 20, models.BLOCK_CELLS])
@pytest.mark.parametrize("n,d", [(1, 1), (301, 7), (50, 10), (1000, 100), (7, 1000), (2, 40000)])
def test_sphere_max_equals_the_squared_row_sum(n, d, block, monkeypatch):
    # Row by row the same pairwise reduction, so equal bit for bit, at any
    # block size.
    monkeypatch.setattr(models, "BLOCK_CELLS", block)
    Z = np.random.default_rng(n + d).normal(scale=3.0, size=(n, d))
    values = sphere_max(d).batch_eval(Z)
    assert values.tobytes() == (-np.sum(Z**2, axis=1)).tobytes()


def test_sphere_max_makes_no_copy_of_the_generation():
    # One (n, d) float64 array is 800 KB; the block takes 256 KB.
    Z = np.random.default_rng(0).normal(size=(1000, 100))
    tracemalloc.start()
    try:
        sphere_max(100).batch_eval(Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < Z.nbytes


def test_rosenbrock_max_at_ones():
    assert evaluate_batch(rosenbrock_max(3), [1.0, 1.0, 1.0])[0] == 0.0
    assert evaluate_batch(rosenbrock_max(2), [0.0, 0.0])[0] == -1.0


def test_rastrigin_max_at_origin():
    assert evaluate_batch(rastrigin_max(4), [0.0] * 4)[0] == pytest.approx(0.0, abs=1e-12)


def test_trap_block_values():
    t = trap(3, 1)
    assert evaluate_batch(t, [1, 1, 1])[0] == 3.0  # full block
    assert evaluate_batch(t, [0, 0, 0])[0] == 2.0  # deceptive slope
    assert evaluate_batch(t, [1, 0, 0])[0] == 1.0
    assert evaluate_batch(t, [1, 1, 0])[0] == 0.0


def test_trap_blocks_sum():
    t = trap(3, 2)
    assert evaluate_batch(t, [1, 1, 1, 0, 0, 0])[0] == 5.0


@pytest.mark.parametrize(
    "text,name,dim",
    [
        ("onemax:32", "onemax:32", 32),
        ("leadingones:8", "leadingones:8", 8),
        ("trap:5x6", "trap:5x6", 30),
        ("sphere:10", "sphere_max:10", 10),
        ("rastrigin:10", "rastrigin_max:10", 10),
        ("rosenbrock:4", "rosenbrock_max:4", 4),
    ],
)
def test_parse_objective(text, name, dim):
    obj = parse_objective(text)
    assert obj.name == name
    assert obj.domain.dim == dim


@pytest.mark.parametrize("text", ["mystery:3", "onemax", "trap:5", "onemax:x", "rosenbrock:1"])
def test_parse_objective_rejects(text):
    with pytest.raises(ConfigError):
        parse_objective(text)


@pytest.mark.parametrize(
    "text, size",
    [("onemax:0", 0), ("leadingones:-2", -2), ("trap:0x3", 0), ("trap:3x0", 0),
     ("trap:3x-1", -1), ("sphere:0", 0), ("sphere:-1", -1), ("rosenbrock:0", 0),
     ("rastrigin:-4", -4)],
)
def test_parse_objective_rejects_a_size_below_one(text, size):
    with pytest.raises(ConfigError, match=rf"size {size} is below 1"):
        parse_objective(text)


@pytest.mark.parametrize(
    "build",
    [
        lambda: onemax(0),
        lambda: leadingones(0),
        lambda: sphere_max(0),
        lambda: rastrigin_max(0),
        lambda: trap(0, 3),
        lambda: trap(3, 0),
        lambda: Domain("binary", 0),
        lambda: Domain("continuous", -1),
        lambda: BernoulliProductModel([]),
        lambda: CategoricalProductModel(np.zeros((0, 3))),
        lambda: GaussianModel(np.zeros(0), np.zeros((0, 0))),
        lambda: GaussianModel.from_mean_cov(np.zeros(0), np.zeros((0, 0))),
    ],
    ids=["onemax", "leadingones", "sphere", "rastrigin", "trap0x3", "trap3x0", "binary",
         "continuous", "bernoulli", "categorical", "gaussian", "gaussian_from_mean_cov"],
)
def test_a_domain_of_no_dimension_is_rejected_when_built(build):
    # Objectives and models alike: Domain is their one dimension check.
    with pytest.raises(DomainError, match="dim >= 1"):
        build()


def test_domain_errors():
    with pytest.raises(DomainError):
        evaluate_batch(onemax(3), [1, 2, 0])
    with pytest.raises(DomainError):
        evaluate_batch(sphere_max(3), [1.0, float("inf"), 0.0])
    with pytest.raises(DomainError):
        evaluate_batch(onemax(3), [1, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_continuous_domain_rejects_a_non_finite_entry(bad):
    Z = np.random.default_rng(3).normal(size=(50, 4))
    Z[31, 2] = bad
    with pytest.raises(DomainError, match="continuous support requires finite coordinates"):
        Domain("continuous", 4).check(Z)


def test_continuous_domain_accepts_finite_entries_whose_sum_overflows():
    # The sum is inf, so the entries are scanned, and every one is finite.
    Z = np.full((3, 2), 1e308)
    Z[1, 0] = -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = Domain("continuous", 2).check(Z)
    assert out is Z


def test_continuous_domain_check_makes_no_copy_of_the_batch():
    # An (n, d) bool scan of this batch would take 100 KB.
    Z = np.random.default_rng(0).normal(size=(1000, 100))
    domain = Domain("continuous", 100)
    domain.check(Z)
    tracemalloc.start()
    try:
        domain.check(Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096


@pytest.mark.parametrize("obj", [onemax(12), leadingones(12), trap(3, 4)])
def test_binary_objectives_agree_across_input_dtypes(obj):
    bits = np.random.default_rng(11).integers(0, 2, size=(64, 12))
    bits[0] = 1  # at least one row at the optimum
    ref = evaluate_batch(obj, bits.astype(np.float64))
    for dtype in (np.bool_, np.int64):
        got = evaluate_batch(obj, bits.astype(dtype))
        assert got.dtype == np.float64
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("extra", [-1, 1])
def test_evaluate_batch_rejects_output_of_the_wrong_length(extra):
    short = Objective("short:3", Domain("binary", 3), lambda Z: np.zeros(Z.shape[0] + extra))
    with pytest.raises(ObjectiveError, match="4 points"):
        evaluate_batch(short, np.zeros((4, 3)))


@pytest.mark.parametrize("bad", [np.array([[0, 2, 1]]), np.array([[0.5, 1.0, 0.0]])])
def test_binary_domain_rejects_non_binary_values(bad):
    with pytest.raises(DomainError):
        Domain("binary", 3).check(bad)
    with pytest.raises(DomainError):
        evaluate_batch(onemax(3), bad)


@pytest.mark.parametrize(
    "obj,sampler",
    [
        (onemax(6), lambda rng: rng.integers(0, 2, size=(500, 6))),
        (leadingones(6), lambda rng: rng.integers(0, 2, size=(500, 6))),
        (trap(3, 2), lambda rng: rng.integers(0, 2, size=(500, 6))),
        (sphere_max(4), lambda rng: rng.normal(size=(500, 4))),
        (rosenbrock_max(4), lambda rng: rng.normal(size=(500, 4))),
        (rastrigin_max(4), lambda rng: rng.normal(size=(500, 4))),
    ],
)
def test_random_probing_never_beats_declared_optimum(obj, sampler):
    rng = np.random.default_rng(47)
    argmax, best = obj.known_opt
    vals = evaluate_batch(obj, sampler(rng))
    assert np.all(vals <= best + 1e-12)
    assert evaluate_batch(obj, argmax)[0] == pytest.approx(best, abs=1e-12)


def test_negated_objectives_nonpositive():
    rng = np.random.default_rng(53)
    for obj in [sphere_max(3), rosenbrock_max(3), rastrigin_max(3)]:
        vals = evaluate_batch(obj, rng.normal(size=(200, 3)))
        assert np.all(vals <= 0.0)


def _sites(dim, arity):
    return Objective(
        name=f"sites:{dim}x{arity}",
        domain=Domain("categorical", dim, arity),
        batch_eval=lambda Z: np.asarray(Z, dtype=np.float64).sum(axis=1),
    )


# An objective and a search model on the same domain, per column of
# INPUT_TABLE.
DOMAIN_PAIRS = (
    (onemax(1), BernoulliProductModel([0.3])),
    (onemax(3), BernoulliProductModel([0.3, 0.6, 0.8])),
    (sphere_max(1), GaussianModel.from_mean_cov([0.5], [[2.0]])),
    (sphere_max(3), GaussianModel.from_mean_cov(np.zeros(3), np.eye(3))),
    (_sites(1, 3), CategoricalProductModel([[0.2, 0.3, 0.5]])),
)
NAN, INF = float("nan"), float("inf")
# input -> number of points accepted (0: DomainError) by the domain of each
# pair: binary d=1, binary d=3, continuous d=1, continuous d=3, categorical
# d=1 with arity 3.
INPUT_TABLE = {
    "0-d int": (1, (1, 0, 1, 0, 1)),
    "0-d bool": (np.array(True), (1, 0, 1, 0, 1)),
    "1-d length 3": ([1, 0, 1], (3, 1, 3, 1, 3)),
    "1-d length 2": ([1, 0], (2, 0, 2, 0, 2)),
    "one row": ([[1, 0, 1]], (0, 1, 0, 1, 0)),
    "d=1 column": ([[1], [0]], (2, 0, 2, 0, 2)),
    "bool": (np.array([True, False, True]), (3, 1, 3, 1, 3)),
    "int64": (np.array([1, 0, 1], dtype=np.int64), (3, 1, 3, 1, 3)),
    "0.5": (0.5, (0, 0, 1, 0, 0)),
    "0.5 in a point": ([0.5, 0.0, 1.0], (0, 0, 3, 1, 0)),
    "2": (2, (0, 0, 1, 0, 1)),
    "2 in a point": ([2, 0, 1], (0, 0, 3, 1, 3)),
    "NaN": (NAN, (0, 0, 0, 0, 0)),
    "NaN in a point": ([NAN, 0.0, 1.0], (0, 0, 0, 0, 0)),
    "inf in a point": ([INF, 0.0, 1.0], (0, 0, 0, 0, 0)),
    "1e30 in a point": ([1e30, 0.0, 1.0], (0, 0, 3, 1, 0)),
    "complex": (np.array([1 + 1j, 0, 1]), (0, 0, 0, 0, 0)),
    "string": (np.array(["1", "0", "1"]), (0, 0, 0, 0, 0)),
}


def _accepted(fn, z):
    try:
        return np.atleast_1d(fn(z))
    except DomainError:
        return None


@pytest.mark.parametrize("z,counts", INPUT_TABLE.values(), ids=INPUT_TABLE)
def test_objective_and_model_read_one_input_alike(z, counts):
    # The objective and the model check inputs with their one Domain: the
    # same points are accepted by both, one point as a batch of one.
    for (obj, model), n in zip(DOMAIN_PAIRS, counts):
        assert obj.domain == model.domain
        f = _accepted(lambda z: evaluate_batch(obj, z), z)
        logp = _accepted(model.log_density_batch, z)
        if n == 0:
            assert f is logp is None, obj.name
            continue
        assert f.shape == logp.shape == (n,), obj.name
