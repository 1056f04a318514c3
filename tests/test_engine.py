"""Engine tests: e-step, the three M-step variants (each against an
independent numerical check), and full runs."""

from __future__ import annotations

import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from edaem import engine, models, objectives, shaping
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
    DomainError,
    FamilyMismatchError,
    ObjectiveError,
    RunAbortedError,
    StepSizeError,
)
from edaem.models import (
    BernoulliProductModel,
    CategoricalProductModel,
    ExpectationParams,
    GaussianModel,
    SearchModel,
)

IDENTITY = shaping.ShapingSpec("identity")


def make_pop(samples, weights):
    samples = np.asarray(samples)
    w = np.asarray(weights, dtype=np.float64)
    return Population(
        samples=samples, raw_f=w.copy(), shaped_w=w, norm_w=w / w.sum()
    )


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
    with pytest.raises(ValueError):
        e_step(BernoulliProductModel([0.5]), objectives.onemax(1), IDENTITY, 1, seed=0)


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
    prev = ExpectationParams(np.array([0.5]), "bernoulli:1")
    with pytest.raises(ConfigError):
        m_step_map(prev, prev, 1.5)


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
    calls = {"with_params": 0, "e_step": 0}
    with_params, e_step_fn = SearchModel.with_params, engine.e_step

    def counting_with_params(self, params):
        calls["with_params"] += 1
        return with_params(self, params)

    def counting_e_step(*args, **kwargs):
        calls["e_step"] += 1
        return e_step_fn(*args, **kwargs)

    monkeypatch.setattr(SearchModel, "with_params", counting_with_params)
    monkeypatch.setattr(engine, "e_step", counting_e_step)
    cfg = runcfg(
        model=GaussianModel.from_mean_cov(np.zeros(3), np.eye(3)),
        objective=objectives.sphere_max(3),
        shaping=shaping.ShapingSpec.parse("quantile:0.25"),
        rule=rule,
        n_samples=50,
        iterations=10,
        seed=9,
    )
    assert len(run(cfg).records) == 10
    assert calls == {"with_params": 10, "e_step": 10}


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
