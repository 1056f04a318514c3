"""Engine tests: e-step, the three M-step variants (each against an
independent numerical check), and full runs."""

from __future__ import annotations

import csv
import dataclasses
import json
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from edaem import cli, engine, models, objectives, shaping
from edaem.engine import (
    Population,
    UpdateRule,
    e_step,
    m_step_closed_form,
    m_step_gradient,
    m_step_map,
    run,
)
from edaem.errors import (
    ConfigError,
    DegenerateUpdateError,
    DegenerateWeightsError,
    DomainError,
    FamilyMismatchError,
    ObjectiveError,
    RunAbortedError,
    ShapingInputError,
    StepSizeError,
)
from edaem.models import (
    BernoulliProductModel,
    CategoricalProductModel,
    ExpectationParams,
    GaussianModel,
    SearchModel,
)

from edaem.config import RunConfig
from independent_oracles import (
    cem_run,
    pbil_run,
    rank_mu_cma_step,
    reference_run,
    smoothed_cem_step,
    truncation_select,
    umda_run,
)

IDENTITY = shaping.ShapingSpec("identity")


def make_pop(samples, weights):
    samples = np.asarray(samples)
    w = np.asarray(weights, dtype=np.float64)
    return Population(samples=samples, raw_f=w.copy(), shaped_w=w)


def random_bernoulli_pop(rng, dim, n=16, weight_scale=1.0):
    Z = rng.integers(0, 2, size=(n, dim))
    w = rng.uniform(0.05, 1.0, size=n) * weight_scale
    return make_pop(Z, w)


def runcfg(**kw):
    base = dict(early_stop_window=None)
    base.update(kw)
    return SimpleNamespace(**base)


# ---------------------------------------------------------------------------
# e_step
# ---------------------------------------------------------------------------


def test_e_step_realized_example():
    # Seed 12's first raw word is 0x4036_081c_9cd9_cf38.  Lowest quarter
    # first, the four cells read 0xcf38, 0x9cd9, 0x081c and 0x4036; at
    # p = 0.5 the threshold is 2^15 = 0x8000, so the samples are
    # (0, 0, 1, 1).
    model = BernoulliProductModel([0.5])
    pop = e_step(model, objectives.onemax(1), IDENTITY, 4, seed=12)
    np.testing.assert_array_equal(pop.samples.reshape(-1), [0, 0, 1, 1])
    np.testing.assert_array_equal(pop.raw_f, [0, 0, 1, 1])
    np.testing.assert_allclose(pop.norm_w, [0, 0, 0.5, 0.5])


def test_e_step_identity_weights_are_the_raw_values():
    model = BernoulliProductModel(np.full(5, 0.5))
    pop = e_step(model, objectives.onemax(5), IDENTITY, 50, seed=4)
    assert np.shares_memory(pop.shaped_w, pop.raw_f)
    assert not pop.shaped_w.flags.writeable
    assert pop.shaped_w.tobytes() == pop.raw_f.tobytes()


def test_e_step_constant_objective_uniform_weights():
    const = objectives.Objective(
        name="const:3",
        domain=objectives.Domain("binary", 3),
        batch_eval=lambda Z: np.full(np.asarray(Z).shape[0], 4.2),
    )
    model = BernoulliProductModel([0.5, 0.5, 0.5])
    pop = e_step(model, const, IDENTITY, 10, seed=3)
    np.testing.assert_allclose(pop.norm_w, np.full(10, 0.1))


def test_e_step_deterministic_population():
    model = GaussianModel.from_mean_cov(np.zeros(2), np.eye(2))
    obj = objectives.sphere_max(2)
    spec = shaping.ShapingSpec.parse("quantile:0.5")
    a = e_step(model, obj, spec, 100, seed=77)
    b = e_step(model, obj, spec, 100, seed=77)
    assert a.samples.tobytes() == b.samples.tobytes()
    assert a.raw_f.tobytes() == b.raw_f.tobytes()
    assert a.norm_w.tobytes() == b.norm_w.tobytes()


def test_e_step_requires_two_samples():
    gauss = GaussianModel.from_mean_cov(np.zeros(2), np.eye(2))
    for model, objective in [(BernoulliProductModel([0.5]), objectives.onemax(1)),
                             (gauss, objectives.sphere_max(2))]:
        with pytest.raises(ValueError):
            e_step(model, objective, shaping.ShapingSpec("rank"), 1, seed=0)


def test_e_step_nan_objective_names_index():
    def _eval(Z):
        vals = np.asarray(Z, dtype=np.float64).sum(axis=1)
        vals[2] = np.nan
        return vals

    bad = objectives.Objective(
        name="bad:2", domain=objectives.Domain("binary", 2), batch_eval=_eval
    )
    with pytest.raises(ObjectiveError) as err:
        e_step(BernoulliProductModel([0.5, 0.5]), bad, IDENTITY, 6, seed=0)
    assert err.value.index == 2
    assert "index 2" in str(err.value)


def test_e_step_passes_on_a_shaping_error_of_finite_values():
    # Only a NaN or infinite value is the objective's fault.
    negative = objectives.Objective(
        name="neg:2", domain=objectives.Domain("binary", 2), batch_eval=lambda Z: -Z.sum(axis=1)
    )
    with pytest.raises(ShapingInputError, match="nonnegative"):
        e_step(BernoulliProductModel([0.5, 0.5]), negative, IDENTITY, 8, seed=0)


@pytest.mark.parametrize(
    "model,objective",
    [
        # the first two generations hold valid points of the objective's
        # space, so only the domain comparison rejects them
        (BernoulliProductModel(np.full(3, 0.5)), objectives.sphere_max(3)),
        (CategoricalProductModel(np.full((3, 2), 0.5)), objectives.onemax(3)),
        (GaussianModel.from_mean_cov(np.zeros(3), np.eye(3)), objectives.onemax(3)),
        (BernoulliProductModel(np.full(4, 0.5)), objectives.onemax(3)),
    ],
)
def test_e_step_rejects_a_model_on_another_domain(model, objective):
    with pytest.raises(DomainError):
        e_step(model, objective, shaping.ShapingSpec("rank"), 10, seed=0)


def test_e_step_never_rescans_the_generation(monkeypatch):
    calls = []
    check = objectives.Domain.check

    def counting_check(self, Z):
        calls.append(self)
        return check(self, Z)

    monkeypatch.setattr(objectives.Domain, "check", counting_check)
    gauss = GaussianModel.from_mean_cov(np.zeros(3), np.eye(3))
    e_step(gauss, objectives.sphere_max(3), shaping.ShapingSpec("rank"), 20, seed=1)
    e_step(BernoulliProductModel(np.full(3, 0.5)), objectives.onemax(3), IDENTITY, 20, seed=1)
    assert calls == []


def test_population_normalization_invariant():
    rng = np.random.default_rng(0)
    model = BernoulliProductModel(np.full(4, 0.5))
    for seed in range(20):
        pop = e_step(model, objectives.onemax(4), shaping.ShapingSpec("rank"), 30, seed)
        assert abs(pop.norm_w.sum() - 1.0) <= 1e-12
        assert np.all(pop.norm_w >= 0)
        assert 1.0 <= pop.ess <= pop.size + 1e-9


# ---------------------------------------------------------------------------
# closed-form M-step
# ---------------------------------------------------------------------------


def test_closed_form_weighted_average():
    pop = make_pop([[1, 0], [1, 1], [0, 0]], [2.0, 1.0, 1.0])
    out = m_step_closed_form(pop, BernoulliProductModel([0.5, 0.5]))
    np.testing.assert_allclose(out.values, [0.75, 0.25])


# Weights that no e_step makes, rejected when the Population is built.
@pytest.mark.parametrize(
    "build,match",
    [
        (lambda Z: Population(samples=Z, raw_f=np.ones(3), shaped_w=np.zeros(3)),
         "must be positive"),
    ],
    ids=["all-zero-shaped"],
)
def test_degenerate_weights_are_rejected(build, match):
    with pytest.raises(DegenerateWeightsError, match=match):
        build(np.array([[1, 0], [1, 1], [0, 0]]))


def test_a_population_holds_the_weights_once_and_sums_them_once():
    pop = make_pop([[1, 0], [1, 1], [0, 0]], [2.0, 1.0, 1.0])
    fields = [f.name for f in dataclasses.fields(Population)]
    assert fields == ["samples", "raw_f", "shaped_w", "log_w_shift"]
    assert pop.total == 4.0 and pop.size == 3
    assert np.array_equal(pop.norm_w, [0.5, 0.25, 0.25])
    assert pop.ess == 1.0 / 0.375


def _huge(dim):
    # Identity weights are the raw values: 20 of them at 1e308 sum past
    # the largest float64.
    return objectives.Objective(name=f"huge:{dim}", domain=objectives.Domain("binary", dim),
                                batch_eval=lambda Z: np.full(Z.shape[0], 1e308))


def test_an_overflowing_weight_total_is_rejected_by_name():
    model = BernoulliProductModel(np.full(3, 0.5))
    cfg = runcfg(model=model, objective=_huge(3), shaping=IDENTITY,
                 rule=UpdateRule("closed_form"), n_samples=20, iterations=3, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateWeightsError, match="total inf"):
            e_step(model, _huge(3), IDENTITY, 20, seed=0)
        with pytest.raises(RunAbortedError) as err:
            run(cfg)
    assert isinstance(err.value.__cause__, DegenerateWeightsError)
    assert "total inf" in str(err.value.__cause__)
    assert err.value.trace.records == []


@pytest.mark.parametrize("w", [[np.nan, 1.0], [-1.0, 0.5]], ids=["nan", "negative"])
def test_a_weight_total_that_is_not_positive_and_finite_is_rejected(w):
    with pytest.raises(DegenerateWeightsError, match="must be positive and finite"):
        make_pop([[0], [1]], w)


def test_closed_form_uniform_weights_is_mle():
    rng = np.random.default_rng(5)
    model = GaussianModel.from_mean_cov([0.0, 0.0], np.eye(2))
    Z = model.sample(50, 8)
    pop = make_pop(Z, np.ones(50))
    out = model.with_params(m_step_closed_form(pop, model))
    np.testing.assert_allclose(out.mean, Z.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(
        out.second_moment, (Z[:, :, None] * Z[:, None, :]).mean(axis=0), atol=1e-12
    )


def test_closed_form_gaussian_memory_is_linear_in_n():
    # Weighted moments need O(N d + d^2) memory; the (N, d, d) outer-product
    # tensor at d=100, N=1000 alone is 80 MB.
    d, n = 100, 1000
    model = GaussianModel.from_mean_cov(np.zeros(d), np.eye(d))
    Z = model.sample(n, 3)
    pop = make_pop(Z, np.random.default_rng(4).uniform(0.1, 1.0, size=n))
    tracemalloc.start()
    try:
        m_step_closed_form(pop, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _bernoulli_grid_mle(pop, floor=1e-3, step=1e-5):
    """Independent numerical maximizer: per-coordinate grid search of the
    weighted log-likelihood (the objective is separable across bits)."""
    grid = np.arange(floor, 1.0 - floor + step / 2, step)
    Z = np.asarray(pop.samples, dtype=np.float64)
    w = pop.shaped_w
    out = np.empty(Z.shape[1])
    for j in range(Z.shape[1]):
        ll = (w @ Z[:, j, None]) * np.log(grid) + (w @ (1.0 - Z[:, j, None])) * np.log1p(
            -grid
        )
        out[j] = grid[np.argmax(ll)]
    return out


def test_closed_form_matches_grid_search_oracle():
    rng = np.random.default_rng(6)
    for _ in range(5):
        pop = random_bernoulli_pop(rng, dim=1)
        model = BernoulliProductModel([0.37])
        ours = m_step_closed_form(pop, model).values
        grid = _bernoulli_grid_mle(pop)
        assert np.max(np.abs(ours - grid)) <= 1e-4


def test_closed_form_beats_random_perturbations():
    rng = np.random.default_rng(7)
    for model in [
        BernoulliProductModel(np.full(3, 0.5)),
        GaussianModel.from_mean_cov(np.zeros(2), np.eye(2)),
        CategoricalProductModel(np.full((2, 3), 1 / 3)),
    ]:
        Z = model.sample(40, 13)
        w = rng.uniform(0.1, 1.0, size=40)
        pop = make_pop(Z, w)
        theta = m_step_closed_form(pop, model)
        refit = model.with_params(theta)
        best = float(w @ refit.log_density_batch(Z))
        for _ in range(100):
            delta = rng.normal(size=len(theta.values))
            delta *= 1e-2 / np.linalg.norm(delta)
            rival = model.with_params(theta.values + delta)
            assert float(w @ rival.log_density_batch(Z)) <= best + 1e-12


# ---------------------------------------------------------------------------
# MAP-smoothed M-step
# ---------------------------------------------------------------------------


def test_map_gamma_one_is_identity():
    prev = ExpectationParams(np.array([0.5, 0.5]), "bernoulli:2")
    tilde = ExpectationParams(np.array([0.9, 0.2]), "bernoulli:2")
    out = m_step_map(prev, tilde, 1.0)
    assert np.array_equal(out.values, tilde.values)


def test_map_gamma_to_zero_limit():
    prev = ExpectationParams(np.array([0.5]), "bernoulli:1")
    tilde = ExpectationParams(np.array([0.9]), "bernoulli:1")
    out = m_step_map(prev, tilde, 1e-8)
    assert abs(out.values[0] - 0.5) < 1e-6


def test_map_convex_combination_value():
    prev = ExpectationParams(np.array([0.5]), "bernoulli:1")
    tilde = ExpectationParams(np.array([0.9]), "bernoulli:1")
    out = m_step_map(prev, tilde, 0.3)
    assert out.values[0] == pytest.approx(0.62, abs=1e-15)


def test_map_family_mismatch():
    prev = ExpectationParams(np.array([0.5]), "bernoulli:1")
    tilde = ExpectationParams(np.array([0.9]), "gaussian:1")
    with pytest.raises(FamilyMismatchError):
        m_step_map(prev, tilde, 0.5)


def test_map_gamma_out_of_range():
    # run() blends without this check; the public M-step keeps it.
    prev = ExpectationParams(np.array([0.5]), "bernoulli:1")
    for gamma in (1.5, True):
        with pytest.raises(ConfigError, match="update.gamma"):
            m_step_map(prev, prev, gamma)


# Each row breaks one hyperparameter; the error must name that field.
@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"kind": "gradient", "alpha": 0.1, "k": 1.5}, "update.k"),
        ({"kind": "gradient", "alpha": 0.1, "k": True}, "update.k"),
        ({"kind": "gradient", "alpha": True, "k": 2}, "update.alpha"),
        ({"kind": "gradient", "alpha": 0.1, "k": 2, "gamma": 0.5}, "gamma"),
        ({"kind": "closed_form", "gamma": 5.0}, "gamma"),
        ({"kind": "map_smoothed", "gamma": "0.5"}, "update.gamma"),
        ({"kind": "map_smoothed", "gamma": 0.5, "alpha": 0.1}, "alpha"),
        ({"kind": None}, "update.kind"),
        ({"kind": "gradient", "alpha": float("inf"), "k": 2}, "update.alpha"),
    ],
)
def test_update_rule_is_the_one_update_schema(kwargs, field):
    with pytest.raises(ConfigError, match=re.escape(field)):
        UpdateRule(**kwargs)


def test_map_contraction_monotone_in_gamma():
    rng = np.random.default_rng(11)
    for _ in range(20):
        prev = ExpectationParams(rng.uniform(0.1, 0.9, size=3), "bernoulli:3")
        tilde = ExpectationParams(rng.uniform(0.1, 0.9, size=3), "bernoulli:3")
        gammas = np.sort(rng.uniform(0.01, 1.0, size=5))
        dists = [
            np.abs(m_step_map(prev, tilde, g).values - prev.values) for g in gammas
        ]
        for lo, hi in zip(dists[:-1], dists[1:]):
            assert np.all(hi >= lo - 1e-12)


def _bernoulli_grid_map(pop, theta_prev, gamma, floor=1e-3, step=2e-5):
    """Independent MAP maximizer: grid search of
    sum_i w_i log p(z_i|t) + (sum_i w_i) * log p0(t | lambda),
    with the conjugate log-prior lambda1*logit(t) + lambda2*log(1-t)."""
    lam2 = 1.0 / gamma - 1.0
    lam1 = lam2 * theta_prev
    grid = np.arange(floor, 1.0 - floor + step / 2, step)
    Z = np.asarray(pop.samples, dtype=np.float64)
    w = pop.shaped_w
    sw = w.sum()
    out = np.empty(Z.shape[1])
    for j in range(Z.shape[1]):
        loglik = (w @ Z[:, j, None]) * np.log(grid) + (
            w @ (1.0 - Z[:, j, None])
        ) * np.log1p(-grid)
        logprior = lam1[j] * (np.log(grid) - np.log1p(-grid)) + lam2 * np.log1p(-grid)
        out[j] = grid[np.argmax(loglik + sw * logprior)]
    return out


def test_map_matches_grid_argmax_of_map_objective():
    rng = np.random.default_rng(13)
    for _ in range(5):
        pop = random_bernoulli_pop(rng, dim=2)
        model = BernoulliProductModel(rng.uniform(0.2, 0.8, size=2))
        prev = model.params
        tilde = m_step_closed_form(pop, model)
        for gamma in (0.1, 0.3, 0.7, 1.0):
            ours = m_step_map(prev, tilde, gamma).values
            grid = _bernoulli_grid_map(pop, prev.values, gamma)
            assert np.max(np.abs(ours - grid)) <= 1e-4


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.9])
def test_map_blends_unrepaired_refit(gamma):
    # Bit 0 is never set, so the refit's weighted mean is 0, below the
    # floor.  The MAP maximizer blends that 0, not the floored 1e-3.
    rng = np.random.default_rng(17)
    Z = rng.integers(0, 2, size=(16, 2))
    Z[:, 0] = 0
    pop = make_pop(Z, rng.uniform(0.05, 1.0, size=16))
    model = BernoulliProductModel([0.5, 0.5])
    prev = model.params
    ours = m_step_map(prev, m_step_closed_form(pop, model), gamma).values
    grid = _bernoulli_grid_map(pop, prev.values, gamma)
    assert np.max(np.abs(ours - grid)) <= 1e-4


NATURAL_STEP_MODELS = {
    "bernoulli": BernoulliProductModel([0.3, 0.62, 0.5]),
    "gaussian": GaussianModel.from_mean_cov([0.4, -0.7], [[1.1, 0.3], [0.3, 0.7]]),
    "categorical": CategoricalProductModel([[0.25, 0.35, 0.4], [0.5, 0.2, 0.3]]),
}


@pytest.mark.parametrize("gamma", [0.025, 0.5, 1.0])
@pytest.mark.parametrize("family", sorted(NATURAL_STEP_MODELS))
def test_natural_gradient_step_is_the_map_blend(family, gamma):
    # In mean coordinates the score is I(theta) (T(z) - theta), so the
    # step theta + alpha I^-1 sum_i w_i score(z_i) is theta + alpha sum(w)
    # (theta~ - theta): the MAP blend with gamma = alpha sum(w).
    model = NATURAL_STEP_MODELS[family]
    rng = np.random.default_rng(29)
    Z = model.sample(50, 31)
    w = rng.uniform(0.05, 2.0, size=50)
    alpha = gamma / float(w.sum())
    grad = w @ model.grad_log_density_batch(Z)
    theta = model.params.values
    natural = theta + alpha * np.linalg.solve(model.fisher_information(), grad)
    blend = m_step_map(model.params, m_step_closed_form(make_pop(Z, w), model), gamma)
    np.testing.assert_allclose(natural, blend.values, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# gradient M-step
# ---------------------------------------------------------------------------


def test_gradient_single_step_arithmetic():
    # (m, S) update with weights (2, 0): score wrt m at (0, S=1) is z, so
    # m moves to 0 + 0.1 * 2 = 0.2
    g = GaussianModel.from_mean_cov([0.0], [[1.0]])
    pop = make_pop(np.array([[1.0], [-1.0]]), [2.0, 0.0])
    out = m_step_gradient(pop, g, alpha=0.1, k=1)
    assert out.values[0] == pytest.approx(0.2, abs=1e-15)


def _independent_score_update(pop, model, alpha):
    """The score-function (log-derivative-trick) update written out
    directly, with its own per-family score formulas."""
    theta = model.params.values
    Z = pop.samples
    w = pop.shaped_w
    if isinstance(model, BernoulliProductModel):
        p = theta
        scores = Z / p - (1.0 - np.asarray(Z, dtype=float)) / (1.0 - p)
    elif isinstance(model, CategoricalProductModel):
        d, K = model.dim, model.arity
        P = model.probs
        scores = np.zeros((Z.shape[0], d, K - 1))
        for i in range(Z.shape[0]):
            for j in range(d):
                v = Z[i, j]
                if v == K - 1:
                    scores[i, j, :] = -1.0 / P[j, K - 1]
                else:
                    scores[i, j, v] = 1.0 / P[j, v]
        scores = scores.reshape(Z.shape[0], d * (K - 1))
    else:
        raise NotImplementedError
    return theta + alpha * (w @ scores)


@pytest.mark.parametrize("dim", [1, 3])
def test_gradient_k1_equals_independent_score_update(dim):
    rng = np.random.default_rng(19)
    for _ in range(20):
        pop = random_bernoulli_pop(rng, dim=dim, n=12, weight_scale=0.1)
        model = BernoulliProductModel(rng.uniform(0.25, 0.75, size=dim))
        ours = m_step_gradient(pop, model, alpha=0.05, k=1).values
        theirs = _independent_score_update(pop, model, 0.05)
        np.testing.assert_allclose(ours, theirs, rtol=1e-12, atol=0)


def test_gradient_k1_categorical_identity():
    rng = np.random.default_rng(20)
    model = CategoricalProductModel(np.full((2, 3), 1 / 3))
    Z = rng.integers(0, 3, size=(10, 2))
    w = rng.uniform(0.02, 0.1, size=10)
    pop = make_pop(Z, w)
    ours = m_step_gradient(pop, model, alpha=0.05, k=1).values
    theirs = _independent_score_update(pop, model, 0.05)
    np.testing.assert_allclose(ours, theirs, rtol=1e-12, atol=0)


def test_gradient_large_k_converges_to_closed_form():
    rng = np.random.default_rng(3)
    Z = rng.integers(0, 2, size=(12, 2))
    w = rng.uniform(0.1, 1.0, size=12)
    w = w / w.sum()
    pop = make_pop(Z, w)
    model = BernoulliProductModel([0.4, 0.6])
    cf = m_step_closed_form(pop, model).values
    gd = m_step_gradient(pop, model, alpha=0.05, k=500).values
    assert np.max(np.abs(cf - gd)) <= 1e-4


def test_gradient_step_size_error():
    rng = np.random.default_rng(23)
    pop = random_bernoulli_pop(rng, dim=2, n=20, weight_scale=1.0)
    model = BernoulliProductModel([0.5, 0.5])
    with pytest.raises(StepSizeError):
        m_step_gradient(pop, model, alpha=50.0, k=200)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_onemax_reaches_optimum_on_most_seeds():
    obj = objectives.onemax(10)
    spec = shaping.ShapingSpec.parse("quantile:0.5")
    wins = 0
    n_seeds = 100
    for seed in range(n_seeds):
        cfg = runcfg(
            model=BernoulliProductModel(np.full(10, 0.5)),
            objective=obj,
            shaping=spec,
            rule=UpdateRule("closed_form"),
            n_samples=100,
            iterations=50,
            seed=seed,
        )
        if run(cfg).best_raw_f == 10.0:
            wins += 1
    assert wins >= 0.95 * n_seeds


def test_run_constant_objective_keeps_uniform_posterior():
    const = objectives.Objective(
        name="const:4",
        domain=objectives.Domain("binary", 4),
        batch_eval=lambda Z: np.full(np.asarray(Z).shape[0], 2.0),
    )
    model = BernoulliProductModel(np.full(4, 0.5))
    seeds = np.random.SeedSequence(3).generate_state(10, dtype=np.uint64)
    for s in seeds:
        pop = e_step(model, const, IDENTITY, 25, int(s))
        np.testing.assert_allclose(pop.norm_w, np.full(25, 1 / 25))
        model = model.with_params(m_step_closed_form(pop, model))


def test_run_gamma_one_equals_closed_form_trace():
    obj = objectives.onemax(8)
    spec = shaping.ShapingSpec.parse("quantile:0.5")

    def _go(rule):
        cfg = runcfg(
            model=BernoulliProductModel(np.full(8, 0.5)),
            objective=obj,
            shaping=spec,
            rule=rule,
            n_samples=60,
            iterations=25,
            seed=42,
        )
        return run(cfg)

    a = _go(UpdateRule("closed_form"))
    b = _go(UpdateRule("map_smoothed", gamma=1.0))
    assert len(a.records) == len(b.records)
    assert np.array_equal(a.final_model.params.values, b.final_model.params.values)
    for ra, rb in zip(a.records, b.records):
        assert ra.best_raw_f == rb.best_raw_f
        assert ra.free_energy_estimate == rb.free_energy_estimate
        assert ra.ess == rb.ess


def test_run_identical_seeds_identical_traces():
    obj = objectives.sphere_max(3)
    cfg = lambda: runcfg(  # noqa: E731
        model=GaussianModel.from_mean_cov(np.zeros(3), np.eye(3)),
        objective=obj,
        shaping=shaping.ShapingSpec.parse("quantile:0.25"),
        rule=UpdateRule("map_smoothed", gamma=0.8),
        n_samples=50,
        iterations=20,
        seed=9,
    )
    a, b = run(cfg()), run(cfg())
    assert np.array_equal(a.final_model.params.values, b.final_model.params.values)
    for ra, rb in zip(a.records, b.records):
        assert ra.free_energy_estimate == rb.free_energy_estimate


@pytest.mark.parametrize(
    "rule", [UpdateRule("closed_form"), UpdateRule("map_smoothed", gamma=0.8)]
)
def test_run_builds_one_model_per_iteration(monkeypatch, rule):
    # One constructor call per iteration, and one theta: the next model's,
    # formed to check that it is finite.  The refit's and the blend's are
    # never formed.
    cfg = runcfg(
        model=GaussianModel.from_mean_cov(np.zeros(3), np.eye(3)),
        objective=objectives.sphere_max(3),
        shaping=shaping.ShapingSpec.parse("quantile:0.25"),
        rule=rule,
        n_samples=50,
        iterations=10,
        seed=9,
    )
    calls = {"with_params": 0, "e_step": 0, "__init__": 0, "theta": 0}
    with_params, e_step_fn = SearchModel.with_params, engine.e_step
    init, theta = GaussianModel.__init__, models._theta_of_mean_cov

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(SearchModel, "with_params", counting("with_params", with_params))
    monkeypatch.setattr(engine, "e_step", counting("e_step", e_step_fn))
    monkeypatch.setattr(GaussianModel, "__init__", counting("__init__", init))
    monkeypatch.setattr(models, "_theta_of_mean_cov", counting("theta", theta))
    assert len(run(cfg).records) == 10
    assert calls == {"with_params": 10, "e_step": 10, "__init__": 10, "theta": 10}


@pytest.mark.parametrize(
    "rule,with_params_calls",
    [
        (UpdateRule("closed_form"), 10),
        (UpdateRule("map_smoothed", gamma=0.8), 10),
        # k - 1 projections between ascent steps, plus run()'s one repair
        (UpdateRule("gradient", alpha=1e-4, k=3), 30),
    ],
)
def test_run_checks_each_generation_once(monkeypatch, rule, with_params_calls):
    calls = {"_as_batch": 0, "with_params": 0}
    as_batch, with_params = GaussianModel._as_batch, SearchModel.with_params

    def counting_as_batch(self, Z):
        calls["_as_batch"] += 1
        return as_batch(self, Z)

    def counting_with_params(self, params):
        calls["with_params"] += 1
        return with_params(self, params)

    monkeypatch.setattr(GaussianModel, "_as_batch", counting_as_batch)
    monkeypatch.setattr(SearchModel, "with_params", counting_with_params)
    cfg = runcfg(
        model=GaussianModel.from_mean_cov(np.zeros(5), np.eye(5)),
        objective=objectives.parse_objective("sphere:5"),
        shaping=shaping.ShapingSpec.parse("quantile:0.25"),
        rule=rule,
        n_samples=50,
        iterations=10,
        seed=0,
    )
    assert len(run(cfg).records) == 10
    assert calls == {"_as_batch": 10, "with_params": with_params_calls}


def test_run_map_mode_records_prior_augmented_free_energy():
    obj = objectives.onemax(4)
    cfg = runcfg(
        model=BernoulliProductModel(np.full(4, 0.5)),
        objective=obj,
        shaping=IDENTITY,
        rule=UpdateRule("map_smoothed", gamma=0.5),
        n_samples=30,
        iterations=5,
        seed=2,
    )
    tr = run(cfg)
    assert all(r.free_energy_map is not None for r in tr.records)
    # gamma = 1 makes the prior flat: both free energies coincide
    cfg1 = runcfg(
        model=BernoulliProductModel(np.full(4, 0.5)),
        objective=obj,
        shaping=IDENTITY,
        rule=UpdateRule("map_smoothed", gamma=1.0),
        n_samples=30,
        iterations=5,
        seed=2,
    )
    tr1 = run(cfg1)
    for r in tr1.records:
        assert r.free_energy_map == pytest.approx(r.free_energy_estimate, abs=1e-12)


def test_run_early_stop_window():
    const = objectives.Objective(
        name="const:3",
        domain=objectives.Domain("binary", 3),
        batch_eval=lambda Z: np.full(np.asarray(Z).shape[0], 1.0),
    )
    cfg = runcfg(
        model=BernoulliProductModel(np.full(3, 0.5)),
        objective=const,
        shaping=IDENTITY,
        rule=UpdateRule("closed_form"),
        n_samples=20,
        iterations=100,
        seed=0,
        early_stop_window=5,
    )
    tr = run(cfg)
    assert len(tr.records) <= 7  # first iteration improves, then 5 stale + slack


def test_run_abort_attaches_partial_trace():
    # leadingones with the first bit floored: under seed 3 the first
    # generation's identity weights are all zero and the run aborts
    from edaem.errors import RunAbortedError

    cfg = runcfg(
        model=BernoulliProductModel([0.0] * 8),
        objective=objectives.leadingones(8),
        shaping=IDENTITY,
        rule=UpdateRule("closed_form"),
        n_samples=40,
        iterations=10,
        seed=3,
    )
    with pytest.raises(RunAbortedError) as err:
        run(cfg)
    assert err.value.trace is not None
    assert len(err.value.trace.records) < 10


def test_run_aborts_on_infinite_objective_with_partial_trace():
    from edaem.errors import RunAbortedError

    calls = []

    def _eval(Z):
        calls.append(None)
        vals = np.sum(Z, axis=1, dtype=np.float64)
        if len(calls) >= 3:
            vals[1] = np.inf
        return vals

    obj = objectives.Objective(
        name="inf:4", domain=objectives.Domain("binary", 4), batch_eval=_eval
    )
    cfg = runcfg(
        model=BernoulliProductModel(np.full(4, 0.5)),
        objective=obj,
        shaping=shaping.ShapingSpec.parse("rank"),
        rule=UpdateRule("closed_form"),
        n_samples=10,
        iterations=6,
        seed=0,
    )
    with pytest.raises(RunAbortedError) as err:
        run(cfg)
    assert isinstance(err.value.__cause__, ObjectiveError)
    assert err.value.__cause__.index == 1
    assert [r.iteration for r in err.value.trace.records] == [0, 1]


def test_run_aborts_on_negative_identity_values_with_partial_trace():
    # A custom objective turns negative from its fourth call on; identity
    # shaping rejects negative values, and the three good iterations stay.
    calls = []

    def _eval(Z):
        calls.append(None)
        vals = np.sum(Z, axis=1, dtype=np.float64)
        return vals - 100.0 if len(calls) > 3 else vals

    obj = objectives.Objective(
        name="neg:4", domain=objectives.Domain("binary", 4), batch_eval=_eval
    )
    cfg = runcfg(
        model=BernoulliProductModel(np.full(4, 0.5)),
        objective=obj,
        shaping=IDENTITY,
        rule=UpdateRule("closed_form"),
        n_samples=10,
        iterations=6,
        seed=0,
    )
    with pytest.raises(RunAbortedError, match="at iteration 3") as err:
        run(cfg)
    assert isinstance(err.value.__cause__, ShapingInputError)
    assert [r.iteration for r in err.value.trace.records] == [0, 1, 2]


@pytest.mark.parametrize("extra", [-1, 1])
def test_run_aborts_typed_on_objective_output_of_the_wrong_length(extra):
    short = objectives.Objective(
        name="short:3",
        domain=objectives.Domain("binary", 3),
        batch_eval=lambda Z: np.zeros(Z.shape[0] + extra),
    )
    cfg = runcfg(
        model=BernoulliProductModel(np.full(3, 0.5)),
        objective=short,
        shaping=shaping.ShapingSpec.parse("rank"),
        rule=UpdateRule("closed_form"),
        n_samples=10,
        iterations=3,
        seed=0,
    )
    with pytest.raises(RunAbortedError) as err:
        run(cfg)
    assert isinstance(err.value.__cause__, ObjectiveError)
    assert "10 points" in str(err.value.__cause__)
    assert err.value.trace.records == []


@pytest.mark.parametrize(
    "rule",
    [
        UpdateRule("closed_form"),
        UpdateRule("map_smoothed", gamma=0.5),
        UpdateRule("map_smoothed", gamma=1.0),
    ],
)
def test_run_unrepairable_update_aborts_typed(rule):
    # A spread near the float64 limit, and an objective that stays finite
    # there and keeps both tails: the refit's covariance overflows to inf,
    # which no jitter repair can fix.
    abs_first = objectives.Objective(
        name="abs_first:3",
        domain=objectives.Domain("continuous", 3),
        batch_eval=lambda Z: np.abs(Z[:, 0]),
    )
    cfg = runcfg(
        model=GaussianModel.from_mean_cov(np.zeros(3), 1.7e308 * np.eye(3)),
        objective=abs_first,
        shaping=shaping.ShapingSpec.parse("quantile:0.5"),
        rule=rule,
        n_samples=20,
        iterations=5,
        seed=0,
    )
    with pytest.raises(RunAbortedError) as err:
        run(cfg)
    assert isinstance(err.value.__cause__, DegenerateUpdateError)
    assert err.value.trace is not None


# The two run families at criterion 9's sizes, from its start points.
_REFERENCE_FAMILIES = {
    "bernoulli": ("onemax:32", {"family": "bernoulli", "dim": 32, "init": "default"},
                  np.full(32, 0.5), lambda Z: Z.sum(axis=1)),
    "gaussian": ("sphere:10",
                 {"family": "gaussian", "dim": 10,
                  "init": {"mean": [0.5] * 10, "cov": np.eye(10).tolist()}},
                 (np.full(10, 0.5), np.eye(10)), lambda Z: -np.sum(Z**2, axis=1)),
}


@pytest.mark.parametrize("shaping_text", ["quantile:0.25", "rank"])
@pytest.mark.parametrize("gamma", [None, 0.8], ids=["closed_form", "map_smoothed"])
@pytest.mark.parametrize("family", sorted(_REFERENCE_FAMILIES))
def test_run_matches_the_reference_loop(tmp_path, family, gamma, shaping_text):
    # Every trace.csv column, the MAP free energy and the final theta of
    # `edaem run` against a loop written from the README's equations.
    objective, model, init, f = _REFERENCE_FAMILIES[family]
    update = {"kind": "closed_form"} if gamma is None else {"kind": "map_smoothed", "gamma": gamma}
    doc = {"objective": objective, "model": model, "shaping": shaping_text, "update": update,
           "n_samples": 200, "iterations": 12, "seed": 3}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())

    records, theta = reference_run(family, init, f, shaping_text, gamma, 200, 12, 3)
    assert [int(r["iter"]) for r in rows] == [r["iter"] for r in records]
    for column in ("best_raw_f", "mean_raw_f", "weighted_mean_shaped_f",
                   "free_energy_estimate", "ess"):
        np.testing.assert_allclose([float(r[column]) for r in rows],
                                   [r[column] for r in records], rtol=1e-12, atol=0,
                                   err_msg=column)
    if gamma is None:
        assert "free_energy_map" not in summary
    else:
        np.testing.assert_allclose(summary["free_energy_map"],
                                   [r["free_energy_map"] for r in records], rtol=1e-12, atol=0)
    np.testing.assert_allclose(summary["final_params"]["params"], theta, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# Textbook EDAs, written from their own papers, against run() and _step
# ---------------------------------------------------------------------------


def _textbook_cfg(objective, model, update, shaping_text, iterations, seed=0):
    return RunConfig.from_dict({"objective": objective, "model": model, "shaping": shaping_text,
                                "update": update, "n_samples": 200, "iterations": iterations,
                                "seed": seed})


@pytest.mark.parametrize("gamma", [None, 0.3], ids=["umda", "pbil"])
def test_umda_and_pbil_are_runs_bit_for_bit(gamma):
    # UMDA is closed_form and PBIL map_smoothed, both under quantile:0.5
    # truncation selection, record by record and in the final p.
    objective, model, p0, f = _REFERENCE_FAMILIES["bernoulli"]
    update = {"kind": "closed_form"} if gamma is None else {"kind": "map_smoothed", "gamma": gamma}
    trace = run(_textbook_cfg(objective, model, update, "quantile:0.5", 30))
    if gamma is None:
        records, p = umda_run(p0, f, 200, 0.5, 30, 0)
    else:
        records, p = pbil_run(p0, f, 200, 0.5, gamma, 30, 0)
    assert [(r.best_raw_f, r.mean_raw_f) for r in trace.records] == records
    assert trace.final_model.probs.tobytes() == p.tobytes()


def test_cem_is_a_closed_form_run():
    # Elite mean and covariance, drawn by a plain matrix product: rounding
    # apart, the closed_form Gaussian run under quantile:0.25.
    objective, model, (m0, C0), f = _REFERENCE_FAMILIES["gaussian"]
    trace = run(_textbook_cfg(objective, model, {"kind": "closed_form"}, "quantile:0.25", 30))
    m, C = cem_run(m0, C0, f, 200, 0.25, 30, 0)
    got = trace.final_model
    np.testing.assert_allclose(got.cov, C, rtol=1e-12, atol=1e-12 * np.abs(C).max())
    np.testing.assert_allclose(got.mean, m, rtol=0, atol=1e-11 * np.abs(m).max())


@pytest.mark.parametrize("gamma", [0.3, 0.8])
def test_map_is_smoothed_cem_and_rank_mu_cma_up_to_a_delta_term(gamma):
    # Per step, on the generations of run()'s own trajectory, replayed by
    # e_step and _step: C_MAP = C_CEM + gamma (1 - gamma) d d^T
    # = C_CMA - gamma^2 d d^T with d = m~ - m, and all three share the mean.
    objective, model, _, _ = _REFERENCE_FAMILIES["gaussian"]
    cfg = _textbook_cfg(objective, model, {"kind": "map_smoothed", "gamma": gamma},
                        "quantile:0.25", 30)
    seeds = np.random.SeedSequence(cfg.seed).generate_state(cfg.iterations, dtype=np.uint64)
    model, checked = cfg.model, 0
    for seed in seeds:
        pop = e_step(model, cfg.objective, cfg.shaping, cfg.n_samples, int(seed))
        nxt, theta_tilde, _, _ = engine._step(model, pop, cfg.rule)
        elite = truncation_select(pop.samples, pop.raw_f, 0.25)
        m, C, k = model.mean, model.cov, elite.shape[0]
        m_cem, C_cem = smoothed_cem_step(m, C, elite, gamma)
        m_cma, C_cma = rank_mu_cma_step(m, C, elite, np.full(k, 1.0 / k), gamma)
        np.testing.assert_allclose(theta_tilde.mean, elite.mean(axis=0), rtol=1e-13, atol=1e-15)
        delta = elite.mean(axis=0) - m
        C_map = C_cem + gamma * (1.0 - gamma) * np.outer(delta, delta)
        if np.linalg.eigvalsh(C_map)[0] >= 10 * models.EIG_FLOOR:  # no repair fired
            scale = np.abs(C_map).max()
            np.testing.assert_allclose(nxt.cov, C_map, rtol=0, atol=1e-13 * scale)
            np.testing.assert_allclose(nxt.cov, C_cma - gamma**2 * np.outer(delta, delta),
                                       rtol=0, atol=1e-13 * scale)
            for mean in (m_cem, m_cma):
                np.testing.assert_allclose(nxt.mean, mean, rtol=0, atol=1e-13 * np.abs(m).max())
            checked += 1
        model = nxt
    assert checked >= 20
    # The replayed trajectory is run()'s, bit for bit.
    assert run(cfg).final_model.params.values.tobytes() == model.params.values.tobytes()


def test_empty_trace_best_is_minus_infinity():
    trace = engine.Trace(records=[], final_model=BernoulliProductModel([0.5]))
    assert trace.best_raw_f == -np.inf


def test_bernoulli_iteration_memory_is_one_byte_per_bit():
    # One e_step + closed-form M-step + free energy at d=2000, N=1000.  The
    # bool generation takes 2 MB and the raw words stream through one 128 KB
    # block; any int64 or float64 copy of the generation adds 16 MB.
    d, n = 2000, 1000
    model = BernoulliProductModel(np.full(d, 0.5))
    obj = objectives.onemax(d)
    spec = shaping.ShapingSpec.parse("quantile:0.5")
    tracemalloc.start()
    try:
        pop = e_step(model, obj, spec, n, 7)
        theta = m_step_closed_form(pop, model)
        engine._free_energy(pop, model.with_params(theta), theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pop.samples.dtype == np.bool_
    assert peak < 6e6


def test_bernoulli_run_does_not_depend_on_the_block_size(monkeypatch):
    # Quantile weights are 0 or 1, so every blocked partial sum is exact.
    # At d = 30 and 31 a draw block holds four rows, so that it takes whole
    # words.
    cfgs = [
        runcfg(
            model=BernoulliProductModel(np.full(d, 0.5)),
            objective=objectives.onemax(d),
            shaping=shaping.ShapingSpec.parse("quantile:0.3"),
            rule=UpdateRule("closed_form"),
            n_samples=60,
            iterations=12,
            seed=4,
        )
        for d in (30, 31)
    ]
    refs = [run(cfg) for cfg in cfgs]
    monkeypatch.setattr(models, "BLOCK_CELLS", 1)  # the smallest blocks
    for cfg, ref in zip(cfgs, refs):
        got = run(cfg)
        assert got.records == ref.records
        assert np.array_equal(got.final_model.probs, ref.final_model.probs)


def test_free_energy_estimate_with_identity_shaping():
    # with f == w the estimate is the sampled free energy of the particle
    # posterior; cross-check against a direct computation
    model = BernoulliProductModel([0.5, 0.5])
    pop = e_step(model, objectives.onemax(2), IDENTITY, 12, seed=101)
    theta = m_step_closed_form(pop, model)
    nxt = model.with_params(theta)
    fe = engine._free_energy(pop, nxt, theta)
    q = pop.norm_w
    act = q > 0
    direct = float(
        np.sum(
            q[act]
            * (nxt.log_density_batch(pop.samples[act]) + np.log(pop.raw_f[act]))
        )
        - np.sum(q[act] * np.log(q[act]))
    )
    assert fe == pytest.approx(direct, abs=1e-12)


def _bump(d):
    # A positive objective on R^d, so that identity shaping takes it too.
    return objectives.Objective(
        name=f"bump:{d}", domain=objectives.Domain("continuous", d),
        batch_eval=lambda Z: 1.0 / (1.0 + np.sum(np.square(Z), axis=1)),
    )


@pytest.mark.parametrize("shaping_text", ["identity", "exp:2", "quantile:0.3", "rank", "cdf:0.5"])
@pytest.mark.parametrize(
    "model, objective",
    [
        (BernoulliProductModel([0.3, 0.5, 0.8]), objectives.onemax(3)),
        (GaussianModel.from_mean_cov([0.5, -0.2, 0.1], np.diag([1.0, 0.5, 2.0])), _bump(3)),
    ],
    ids=["bernoulli", "gaussian"],
)
def test_free_energy_is_the_per_sample_sum_over_the_particle_posterior(
    model, objective, shaping_text
):
    # sum_i q_i [log p(z_i|theta') + log w_i + s] + H(q), sample by sample,
    # with the shaping's shift s added back (nonzero under exp only).
    spec = shaping.ShapingSpec.parse(shaping_text)
    pop = e_step(model, objective, spec, 40, seed=5)
    theta = m_step_closed_form(pop, model)
    nxt = model.with_params(theta)
    q = pop.norm_w
    act = q > 0
    logw = np.log(pop.shaped_w[act]) + pop.log_w_shift
    direct = float(
        np.sum(q[act] * (nxt.log_density_batch(pop.samples[act]) + logw))
        - np.sum(q[act] * np.log(q[act]))
    )
    assert engine._free_energy(pop, nxt, theta) == pytest.approx(direct, rel=0, abs=1e-12)


def test_a_gradient_run_checks_its_rule_once(monkeypatch):
    # The config's rule is checked when it is built; run() neither builds
    # nor re-checks one, while the public M-step still checks its arguments.
    cfg = runcfg(
        model=BernoulliProductModel(np.full(8, 0.5)),
        objective=objectives.onemax(8),
        shaping=shaping.ShapingSpec.parse("quantile:0.5"),
        rule=UpdateRule("gradient", alpha=1e-3, k=2),
        n_samples=30,
        iterations=6,
        seed=4,
    )
    checks = []
    post_init = UpdateRule.__post_init__

    def counting(self):
        checks.append(self.kind)
        post_init(self)

    monkeypatch.setattr(UpdateRule, "__post_init__", counting)
    trace = run(cfg)
    assert len(trace.records) == 6 and checks == []
    pop = e_step(cfg.model, cfg.objective, cfg.shaping, 30, seed=1)
    m_step_gradient(pop, cfg.model, 1e-3, 2)
    assert checks == ["gradient"]
    with pytest.raises(ConfigError, match="update.alpha"):
        m_step_gradient(pop, cfg.model, 0.0, 2)


# ---------------------------------------------------------------------------
# Draw-ahead: a wide Gaussian run draws generation t+1's normals on a helper
# thread during iteration t.  Forced both ways here on small runs.
# ---------------------------------------------------------------------------


def _force_helper(monkeypatch, on):
    monkeypatch.setattr(engine, "_uses_helper", lambda model, n: on)


def _gaussian_cfg(rule, shaping_text="quantile:0.25", objective=None, **kw):
    base = dict(
        model=GaussianModel.from_mean_cov(np.full(6, 0.5), np.eye(6)),
        objective=objective or objectives.sphere_max(6),
        shaping=shaping.ShapingSpec.parse(shaping_text),
        rule=rule,
        n_samples=40,
        iterations=12,
        seed=5,
    )
    base.update(kw)
    return runcfg(**base)


def _stale_after(t):
    # The sphere lifted further at each of the first t calls, so that every
    # best improves; then a constant below them all, so that a window of w
    # stops the run after t + w iterations.
    calls = []

    def _eval(Z):
        calls.append(None)
        if len(calls) > t:
            return np.full(np.asarray(Z).shape[0], -1e9)
        return 1e6 * len(calls) - np.sum(np.asarray(Z) ** 2, axis=1)

    return objectives.Objective(name="stale:6", domain=objectives.Domain("continuous", 6),
                                batch_eval=_eval)


@pytest.mark.parametrize(
    "gate_model,n,expected",
    [
        ("gauss:100", 1000, True),  # gauss-wide
        ("gauss:10", 200, False),  # gauss-small-map
        ("gauss:32", 1024, True),  # exactly BLOCK_CELLS
        ("gauss:31", 1024, False),
        ("bern:2000", 1000, True),  # bern-wide splits its draw
        ("bern:2048", 256, True),  # exactly SPLIT_MIN_CELLS
        ("bern:1", 524288, True),
        ("bern:1", 524287, False),
        ("bern:2047", 256, False),
        ("bern:32", 1024, False),  # BLOCK_CELLS, below the split's gate
        ("cat:2000", 1000, False),  # neither _noise nor _draw_rows
    ],
)
def test_the_draw_ahead_gate(gate_model, n, expected):
    family, _, d = gate_model.partition(":")
    d = int(d)
    model = {
        "gauss": lambda: GaussianModel.from_mean_cov(np.zeros(d), np.eye(d)),
        "bern": lambda: BernoulliProductModel(np.full(d, 0.5)),
        "cat": lambda: models.CategoricalProductModel(np.full((d, 3), 1.0 / 3.0)),
    }[family]()
    assert models.BLOCK_CELLS == 32 * 1024 and engine.SPLIT_MIN_CELLS == 512 * 1024
    assert engine._uses_helper(model, n) is expected


@pytest.mark.parametrize("shaping_text", ["quantile:0.25", "rank"])
@pytest.mark.parametrize(
    "rule",
    [UpdateRule("closed_form"), UpdateRule("map_smoothed", gamma=0.8),
     UpdateRule("gradient", alpha=1e-3, k=2)],
    ids=["closed_form", "map_smoothed", "gradient"],
)
@pytest.mark.parametrize("early_stop", [False, True], ids=["full", "early_stop"])
def test_draw_ahead_gives_the_sequential_run(monkeypatch, rule, shaping_text, early_stop):
    def cfg():
        if early_stop:
            return _gaussian_cfg(rule, shaping_text, objective=_stale_after(4),
                                 early_stop_window=3)
        return _gaussian_cfg(rule, shaping_text)

    from concurrent.futures import Future

    drawn = []
    e_step_fn = engine.e_step

    def recording(*args, **kwargs):
        # A generation drawn ahead reaches sample as the future of its normals.
        drawn.append(isinstance(kwargs.get("_helper"), Future))
        return e_step_fn(*args, **kwargs)

    monkeypatch.setattr(engine, "e_step", recording)
    _force_helper(monkeypatch, False)
    ref = run(cfg())
    iterations = 7 if early_stop else 12
    assert drawn == [False] * iterations
    drawn.clear()
    _force_helper(monkeypatch, True)
    got = run(cfg())
    # Every generation but the first was drawn ahead.
    assert drawn == [False] + [True] * (iterations - 1)
    assert len(ref.records) == iterations
    assert got.records == ref.records
    assert np.array_equal(got.final_model.params.values, ref.final_model.params.values)


def test_draw_ahead_aborts_with_the_sequential_partial_trace(monkeypatch):
    def nan_at_3():
        calls = []

        def _eval(Z):
            calls.append(None)
            vals = -np.sum(np.asarray(Z) ** 2, axis=1)
            if len(calls) == 4:  # iteration 3
                vals[2] = np.nan
            return vals

        return objectives.Objective(name="nan:6", domain=objectives.Domain("continuous", 6),
                                    batch_eval=_eval)

    errors = []
    for ahead in (False, True):
        _force_helper(monkeypatch, ahead)
        with pytest.raises(RunAbortedError) as err:
            run(_gaussian_cfg(UpdateRule("closed_form"), objective=nan_at_3()))
        errors.append(err.value)
    ref, got = errors
    assert isinstance(got.__cause__, ObjectiveError) and got.__cause__.index == 2
    assert [r.iteration for r in got.trace.records] == [0, 1, 2]
    assert got.trace.records == ref.trace.records
    assert np.array_equal(got.trace.final_model.params.values,
                          ref.trace.final_model.params.values)


@pytest.mark.parametrize("ending", ["returns", "stops_early", "raises"])
def test_no_helper_thread_outlives_the_run(monkeypatch, ending):
    import threading

    _force_helper(monkeypatch, True)
    cfg = _gaussian_cfg(UpdateRule("closed_form"))
    if ending == "stops_early":
        cfg = _gaussian_cfg(UpdateRule("closed_form"), objective=_stale_after(2),
                            early_stop_window=2)
    elif ending == "raises":
        cfg = _gaussian_cfg(UpdateRule("closed_form"), shaping_text="identity")
    before = threading.active_count()
    if ending == "raises":  # sphere values are negative: identity shaping rejects them
        with pytest.raises(RunAbortedError) as err:
            run(cfg)
        assert isinstance(err.value.__cause__, ShapingInputError)
    else:
        trace = run(cfg)
        assert len(trace.records) == (12 if ending == "returns" else 4)
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# Split draw: a wide Bernoulli run draws the second row range of each
# generation on the helper thread.  Forced both ways here on small runs, at
# d = 31 so that no row starts a word but every fourth.
# ---------------------------------------------------------------------------


def _bits_objective(name, values):
    return objectives.Objective(name=name, domain=objectives.Domain("binary", 31),
                                batch_eval=values)


def _bernoulli_cfg(rule, shaping_text="quantile:0.25", objective=None, **kw):
    base = dict(
        model=BernoulliProductModel(np.linspace(0.2, 0.8, 31)),
        objective=objective or objectives.onemax(31),
        shaping=shaping.ShapingSpec.parse(shaping_text),
        rule=rule,
        n_samples=41,
        iterations=12,
        seed=5,
    )
    base.update(kw)
    return runcfg(**base)


def _bits_stale_after(t):
    # OneMax lifted further at each of the first t calls, then a constant
    # below them all: a window of w stops the run after t + w iterations.
    calls = []

    def _eval(Z):
        calls.append(None)
        if len(calls) > t:
            return np.full(Z.shape[0], -1e9)
        return 1e6 * len(calls) + Z.sum(axis=1)

    return _bits_objective("stale:31", _eval)


@pytest.mark.parametrize("shaping_text", ["quantile:0.25", "rank"])
@pytest.mark.parametrize(
    "rule",
    [UpdateRule("closed_form"), UpdateRule("map_smoothed", gamma=0.8),
     UpdateRule("gradient", alpha=1e-3, k=2)],
    ids=["closed_form", "map_smoothed", "gradient"],
)
@pytest.mark.parametrize("early_stop", [False, True], ids=["full", "early_stop"])
def test_split_draw_gives_the_sequential_run(monkeypatch, rule, shaping_text, early_stop):
    def cfg():
        if early_stop:
            return _bernoulli_cfg(rule, shaping_text, objective=_bits_stale_after(4),
                                  early_stop_window=3)
        return _bernoulli_cfg(rule, shaping_text)

    from concurrent.futures import Executor

    helpers = []
    e_step_fn = engine.e_step

    def recording(*args, **kwargs):
        # The part of a split draw is the executor itself: nothing drawn ahead.
        part = kwargs.get("_helper")
        assert part is None or isinstance(part, Executor)
        helpers.append(part is not None)
        return e_step_fn(*args, **kwargs)

    monkeypatch.setattr(engine, "e_step", recording)
    _force_helper(monkeypatch, False)
    ref = run(cfg())
    iterations = 7 if early_stop else 12
    assert helpers == [False] * iterations
    helpers.clear()
    _force_helper(monkeypatch, True)
    got = run(cfg())
    assert helpers == [True] * iterations
    assert len(ref.records) == iterations
    assert got.records == ref.records
    assert got.final_model.params.values.tobytes() == ref.final_model.params.values.tobytes()


def test_split_draw_aborts_with_the_sequential_partial_trace(monkeypatch):
    def nan_at_3():
        calls = []

        def _eval(Z):
            calls.append(None)
            vals = Z.sum(axis=1).astype(np.float64)
            if len(calls) == 4:  # iteration 3
                vals[2] = np.nan
            return vals

        return _bits_objective("nan:31", _eval)

    errors = []
    for split in (False, True):
        _force_helper(monkeypatch, split)
        with pytest.raises(RunAbortedError) as err:
            run(_bernoulli_cfg(UpdateRule("closed_form"), objective=nan_at_3()))
        errors.append(err.value)
    ref, got = errors
    assert isinstance(got.__cause__, ObjectiveError) and got.__cause__.index == 2
    assert [r.iteration for r in got.trace.records] == [0, 1, 2]
    assert got.trace.records == ref.trace.records
    assert np.array_equal(got.trace.final_model.probs, ref.trace.final_model.probs)


@pytest.mark.parametrize("ending", ["returns", "stops_early", "raises"])
def test_no_split_helper_outlives_the_run(monkeypatch, ending):
    import threading

    _force_helper(monkeypatch, True)
    objective, shaping_text, window = None, "quantile:0.25", None
    if ending == "stops_early":
        objective, window = _bits_stale_after(2), 2
    elif ending == "raises":  # negative values: identity shaping rejects them
        objective = _bits_objective("negated:31", lambda Z: -1.0 - Z.sum(axis=1))
        shaping_text = "identity"
    cfg = _bernoulli_cfg(UpdateRule("closed_form"), shaping_text, objective=objective,
                         early_stop_window=window)
    before = threading.active_count()
    during = []
    e_step_fn = engine.e_step

    def counting(*args, **kwargs):
        pop = e_step_fn(*args, **kwargs)  # the helper has drawn by now
        during.append(threading.active_count())
        return pop

    monkeypatch.setattr(engine, "e_step", counting)
    if ending == "raises":
        with pytest.raises(RunAbortedError) as err:
            run(cfg)
        assert isinstance(err.value.__cause__, ShapingInputError)
    else:
        trace = run(cfg)
        assert len(trace.records) == (12 if ending == "returns" else 4)
        assert during and set(during) == {before + 1}
    assert threading.active_count() == before


def test_perfbench_sees_every_wrapped_call_of_a_split_run_on_the_main_thread(monkeypatch):
    # At exactly SPLIT_MIN_CELLS the run splits each draw by the gate alone.
    # perfbench's span stack is not thread-safe: the helper runs only the
    # unwrapped _draw_rows, and sample still times each whole draw.
    import collections
    import pathlib
    import threading

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    import layers

    d, n, iterations = 2048, engine.SPLIT_MIN_CELLS // 2048, 4
    cfg = runcfg(model=BernoulliProductModel(np.full(d, 0.5)), objective=objectives.onemax(d),
                 shaping=shaping.ShapingSpec.parse("quantile:0.5"),
                 rule=UpdateRule("closed_form"), n_samples=n, iterations=iterations, seed=3)
    assert engine._uses_helper(cfg.model, n)
    calls, threads = collections.Counter(), set()
    row_threads = []
    draw_rows = BernoulliProductModel._draw_rows

    def rows(self, *args):
        row_threads.append(threading.current_thread() is threading.main_thread())
        return draw_rows(self, *args)

    def wrapping(target, fn):
        def wrapper(*args, **kwargs):
            calls[target.layer] += 1
            threads.add(threading.current_thread() is threading.main_thread())
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(BernoulliProductModel, "_draw_rows", rows)
    with layers.patched(layers.TARGETS, wrapping) as status:
        assert len(run(cfg).records) == iterations
    assert status[layers.targets_of("models.sample")[0]] == "ok"
    assert calls["models.sample"] == iterations and calls["engine.e_step"] == iterations
    assert threads == {True}
    assert row_threads.count(False) == iterations and row_threads.count(True) == iterations


def test_perfbench_times_every_generation_of_a_draw_ahead_run_in_sample(monkeypatch):
    # A run that draws ahead still makes each generation by one call of
    # sample, on the main thread, and that call returns the very array
    # e_step evaluates: perfbench's models.sample counts every draw.
    import pathlib
    import threading

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    import layers

    _force_helper(monkeypatch, True)
    cfg = _gaussian_cfg(UpdateRule("closed_form"))
    drawn, evaluated, threads = [], [], set()

    def wrapping(target, fn):
        def wrapper(*args, **kwargs):
            threads.add(threading.current_thread() is threading.main_thread())
            out = fn(*args, **kwargs)
            if target.layer == "models.sample":
                drawn.append(out)
            else:
                evaluated.append(out.samples)
            return out

        return wrapper

    with layers.patched(layers.targets_of("models.sample", "engine.e_step"), wrapping) as status:
        assert len(run(cfg).records) == cfg.iterations
    assert set(status.values()) == {"ok"}, status
    assert len(drawn) == len(evaluated) == cfg.iterations
    assert all(z is s for z, s in zip(drawn, evaluated))
    assert threads == {True}


@pytest.mark.parametrize(
    "family,ahead",
    [("gaussian", False), ("gaussian", True), ("bernoulli", False), ("bernoulli", True)],
    ids=["gaussian-sequential", "gaussian-draw_ahead", "bernoulli", "bernoulli-split"],
)
def test_run_releases_each_generation_before_the_next(monkeypatch, family, ahead):
    import weakref

    if family == "bernoulli":
        cfg = runcfg(model=BernoulliProductModel(np.full(16, 0.5)),
                     objective=objectives.onemax(16),
                     shaping=shaping.ShapingSpec.parse("quantile:0.5"),
                     rule=UpdateRule("closed_form"), n_samples=30, iterations=8, seed=2)
    else:
        cfg = _gaussian_cfg(UpdateRule("map_smoothed", gamma=0.8))
    _force_helper(monkeypatch, ahead)
    refs, alive = [], []
    e_step_fn = engine.e_step

    def tracking(*args, **kwargs):
        alive.append(sum(r() is not None for r in refs))
        pop = e_step_fn(*args, **kwargs)
        a = pop.samples
        while isinstance(a, np.ndarray):  # the samples and every array under them
            refs.append(weakref.ref(a))
            a = a.base
        return pop

    monkeypatch.setattr(engine, "e_step", tracking)
    run(cfg)
    assert len(alive) == cfg.iterations and refs
    assert alive == [0] * cfg.iterations


def test_e_step_rejects_all_zero_weights_by_the_shaping():
    # An all-zero identity generation aborts by shape()'s own test, which
    # names the shaping, before the Population sums the weights.
    model = BernoulliProductModel([0.0] * 8)
    with pytest.raises(DegenerateWeightsError, match="identity shaping produced all-zero weights"):
        e_step(model, objectives.leadingones(8), IDENTITY, 40, seed=0)
    with pytest.raises(DegenerateWeightsError, match="all-zero weights"):
        shaping.shape(IDENTITY, np.zeros(40))


# ---------------------------------------------------------------------------
# The layers perfbench times: it wraps these functions through their module
# globals, and a target renamed or called past its global reads 0.
# ---------------------------------------------------------------------------


def test_perfbench_wraps_each_engine_layer_once_per_iteration(monkeypatch):
    import collections
    import inspect
    import pathlib

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    import layers

    leading = {
        engine.e_step: ("model", "objective", "shaping_spec", "n", "seed"),
        engine.m_step_closed_form: ("pop", "model"),
        engine._free_energy: ("pop", "next_model"),
        engine._log_prior: ("model", "lam1", "lam2"),
    }
    for fn, names in leading.items():
        assert tuple(inspect.signature(fn).parameters)[: len(names)] == names
    iterations = 7
    cfg = runcfg(
        model=GaussianModel.from_mean_cov(np.full(10, 0.5), np.eye(10)),
        objective=objectives.parse_objective("sphere:10"),
        shaping=shaping.ShapingSpec.parse("quantile:0.25"),
        rule=UpdateRule("map_smoothed", gamma=0.8),
        n_samples=50,
        iterations=iterations,
        seed=1,
    )
    calls = collections.Counter()

    def counting(target, fn):
        def wrapper(*args, **kwargs):
            calls[target.attr] += 1
            return fn(*args, **kwargs)

        return wrapper

    wanted = ("engine.e_step", "engine.m_step", "engine.free_energy", "engine.log_prior")
    with layers.patched(layers.targets_of(*wanted), counting) as status:
        assert len(run(cfg).records) == iterations
    assert set(status.values()) == {"ok"}, status
    # The public MAP and gradient M-steps are layers too, but run calls neither.
    assert calls == {name.__name__: iterations for name in leading}
