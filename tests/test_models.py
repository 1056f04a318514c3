"""Search-distribution tests: densities, sampling, scores, Fisher
information, parameter repair, and serialization."""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest

from edaem.errors import (
    BoundaryError,
    DegenerateModelError,
    DomainError,
    FamilyMismatchError,
)
from edaem.models import (
    BernoulliProductModel,
    CategoricalProductModel,
    ExpectationParams,
    GaussianModel,
    model_from_json,
    unvech,
    vech,
)


def enumerate_states(dim, arity=2):
    return np.array(list(itertools.product(range(arity), repeat=dim)), dtype=np.int64)


# ---------------------------------------------------------------------------
# log densities and sufficient statistics
# ---------------------------------------------------------------------------


def test_bernoulli_log_density_uniform():
    m = BernoulliProductModel([0.5, 0.5])
    assert m.log_density([0, 1]) == pytest.approx(math.log(0.25), abs=1e-14)


def test_bernoulli_log_density_definition():
    m = BernoulliProductModel([0.75])
    assert m.log_density([1]) == pytest.approx(math.log(0.75), abs=1e-14)


def test_gaussian_standard_normal_mode():
    g = GaussianModel.from_mean_cov([0.0], [[1.0]])
    assert g.log_density(0.0) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-14)


def test_sufficient_stats_bernoulli_is_identity():
    m = BernoulliProductModel([0.4, 0.4, 0.4])
    np.testing.assert_array_equal(m.sufficient_stats([1, 0, 1]), [1.0, 0.0, 1.0])


def test_sufficient_stats_gaussian_z_and_square():
    g = GaussianModel.from_mean_cov([0.0], [[1.0]])
    np.testing.assert_allclose(g.sufficient_stats([2.0]), [2.0, 4.0])


def test_sufficient_stats_categorical_one_hot_minimal():
    c = CategoricalProductModel([[1 / 3, 1 / 3, 1 / 3]])
    # value 2 is the dropped redundant coordinate: minimal stats all zero
    np.testing.assert_array_equal(c.sufficient_stats([2]), [0.0, 0.0])
    np.testing.assert_array_equal(c.sufficient_stats([0]), [1.0, 0.0])


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
def test_weighted_stats_equals_weighted_sum_of_stats(model):
    rng = np.random.default_rng(41)
    Z = model.sample(64, 43)
    w = rng.uniform(0.0, 3.0, size=64)
    w[::5] = 0.0
    ref = w @ model.sufficient_stats_batch(Z)
    got = model.weighted_stats(Z, w)
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
    # log p(z) = log h(z) + eta . T(z) - A(theta)
    rng = np.random.default_rng(1)
    if isinstance(model, GaussianModel):
        Z = model.sample(5, 3)
    elif isinstance(model, CategoricalProductModel):
        Z = rng.integers(0, model.arity, size=(5, model.dim))
    else:
        Z = rng.integers(0, 2, size=(5, model.dim))
    eta = model.natural_params()
    A = model.log_partition()
    for z in Z:
        lhs = model.log_density(z)
        rhs = model.log_base_measure(z) + eta @ model.sufficient_stats(z) - A
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_bernoulli_domain_error():
    m = BernoulliProductModel([0.5, 0.5])
    with pytest.raises(DomainError):
        m.log_density([0, 2])


def _bits_as(dtype, n=40, d=7, seed=3):
    return np.random.default_rng(seed).integers(0, 2, size=(n, d)).astype(dtype)


def test_bernoulli_sample_is_bool_on_the_uniform_stream():
    p = np.array([0.2, 0.5, 0.9, 0.05, 0.7])
    Z = BernoulliProductModel(p).sample(300, 17)
    assert Z.dtype == np.bool_
    assert np.array_equal(Z, np.random.default_rng(17).random((300, 5)) < p)


def test_bernoulli_bool_int_float_inputs_agree_exactly():
    m = BernoulliProductModel([0.3, 0.62, 0.5, 0.11, 0.9, 0.45, 0.7])
    w = np.random.default_rng(5).uniform(0.0, 2.0, size=40)
    ref = _bits_as(np.float64)
    for dtype in (np.bool_, np.int64):
        Z = _bits_as(dtype)
        for got, want in [
            (m.log_density_batch(Z), m.log_density_batch(ref)),
            (m.sufficient_stats_batch(Z), m.sufficient_stats_batch(ref)),
            (m.weighted_stats(Z, w), m.weighted_stats(ref, w)),
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
        c.log_density([2])


def test_gaussian_domain_error_on_nan():
    g = GaussianModel.from_mean_cov([0.0], [[1.0]])
    with pytest.raises(DomainError):
        g.log_density([float("nan")])


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


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


def test_sample_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        BernoulliProductModel([0.5]).sample(0, 1)


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------


def test_bernoulli_score_analytic():
    m = BernoulliProductModel([0.5])
    assert m.grad_log_density([1])[0] == pytest.approx(2.0)
    assert m.grad_log_density([0])[0] == pytest.approx(-2.0)


@pytest.mark.parametrize(
    "model,point",
    [
        (BernoulliProductModel([0.3, 0.62]), [1, 0]),
        (GaussianModel.from_mean_cov([0.4, -0.7], [[1.1, 0.3], [0.3, 0.7]]), [0.2, 1.5]),
        (CategoricalProductModel([[0.25, 0.35, 0.4], [0.5, 0.2, 0.3]]), [2, 0]),
    ],
)
def test_score_matches_central_differences(model, point):
    grad = model.grad_log_density(point)
    vals = model.params.values
    h = 1e-6 * max(1.0, float(np.max(np.abs(vals))))
    for i in range(len(vals)):
        vp, vm = vals.copy(), vals.copy()
        vp[i] += h
        vm[i] -= h
        fd = (
            model.with_params(vp).log_density(point)
            - model.with_params(vm).log_density(point)
        ) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_score_boundary_error():
    at_floor = BernoulliProductModel([1.0])  # clips to the ceiling
    with pytest.raises(BoundaryError):
        at_floor.grad_log_density([1])


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


def test_fisher_gaussian_vs_monte_carlo():
    g = GaussianModel.from_mean_cov([0.3, -0.2], [[1.2, 0.3], [0.3, 0.8]])
    F = g.fisher_information()
    assert np.allclose(F, F.T)
    assert np.all(np.linalg.eigvalsh(F) > 0)
    Z = g.sample(400_000, 21)
    s = g.grad_log_density_batch(Z)
    mc = s.T @ s / Z.shape[0]
    assert np.max(np.abs(F - mc)) / np.max(np.abs(F)) < 0.05


def test_fisher_boundary_error():
    with pytest.raises(BoundaryError):
        BernoulliProductModel([0.0]).fisher_information()


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


def test_gaussian_repair_lifts_small_eigenvalues():
    # rank-deficient second moment: all mass at one point
    m = np.array([1.0, 1.0])
    S = np.outer(m, m)
    g = GaussianModel(m, S)
    assert np.linalg.eigvalsh(g.cov)[0] >= g._eig_floor  # repaired


def test_gaussian_repair_failure_is_an_error():
    with pytest.raises(DegenerateModelError):
        GaussianModel([0.0], [[float("nan")]])


def test_gaussian_symmetrization():
    S = np.array([[2.0, 0.3], [0.1, 1.0]])
    g = GaussianModel([0.0, 0.0], S)
    np.testing.assert_allclose(g.second_moment, g.second_moment.T)


def test_categorical_repair_floors_and_renormalizes():
    c = CategoricalProductModel([[1.0, 0.0, 0.0]])
    assert np.all(c.probs >= c.floor - 1e-15)
    assert c.probs.sum() == pytest.approx(1.0, abs=1e-12)


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


@pytest.mark.parametrize(
    "model,attrs",
    [
        (BernoulliProductModel([0.25, 0.75], floor=1e-4), ("floor",)),
        (
            GaussianModel.from_mean_cov(
                [0.5, -1.0], [[1.5, 0.4], [0.4, 0.9]], eig_floor=1e-6, jitter_scale=1e-8
            ),
            ("_eig_floor", "_jitter_scale"),
        ),
        (
            CategoricalProductModel([[0.25, 0.35, 0.4], [0.5, 0.2, 0.3]], floor=1e-2),
            ("floor",),
        ),
    ],
)
def test_json_roundtrips_non_default_floors(model, attrs):
    back = model_from_json(model.to_json())
    for attr in attrs:
        assert getattr(back, attr) == getattr(model, attr)
    assert back.to_json() == model.to_json()


def test_json_without_floors_loads_defaults():
    doc = json.loads(BernoulliProductModel([0.25, 0.75], floor=1e-4).to_json())
    del doc["floor"]
    assert model_from_json(json.dumps(doc)).floor == 1e-3
