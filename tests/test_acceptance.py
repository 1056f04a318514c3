"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass/fail line per criterion (run with -s to see them live).

The checks are property-based at desk scale: closed-form refits against
independent numerical maximizers, the smoothing identity against the MAP
objective's argmax, the first-order refit against a spelled-out
score-function update, and the exact-enumeration identities (free-energy
bound, EM monotonicity, sampled-refit consistency, proximal-point and
natural-gradient equivalence) on the shipped fixtures, plus end-to-end
optimization sanity and byte-level determinism.
"""

from __future__ import annotations

import json

import numpy as np

from independent_oracles import (
    bernoulli_grid_map,
    bernoulli_grid_mle,
    bernoulli_score_update,
    categorical_numeric_mle,
    categorical_score_update,
    gaussian_numeric_mle,
    gaussian_score_update,
)

from edaem import cli
from edaem.config import RunConfig
from edaem.engine import (
    Population,
    m_step_closed_form,
    m_step_gradient,
    m_step_map,
    run,
)
from edaem.fixtures import MC_ERROR_BOUND_BERN2_ONEMAX1, default_fixtures
from edaem.models import (
    BernoulliProductModel,
    CategoricalProductModel,
    GaussianModel,
)
from edaem.oracle import (
    verify_em_monotonicity,
    verify_mc_convergence,
    verify_ngd_correspondence,
    verify_ppm_equivalence,
)

FIXTURES = {f.name: f for f in default_fixtures()}
BIT_FIXTURES = ["bern1_f13", "bern2_onemax1", "bern3_onemax1", "bern2_const", "bern3_trap"]


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed {tail}"


def make_pop(Z, w):
    w = np.asarray(w, dtype=np.float64)
    return Population(samples=np.asarray(Z), raw_f=w.copy(), shaped_w=w)


def random_fixture(rng, family):
    """A random (model, population) pair with interior refit targets."""
    if family == "bernoulli":
        d = int(rng.integers(1, 4))
        model = BernoulliProductModel(rng.uniform(0.2, 0.8, size=d))
        n = int(rng.integers(10, 25))
        Z = rng.integers(0, 2, size=(n, d))
        Z[0] = 0  # both values present per bit keeps the target interior
        Z[1] = 1
    elif family == "gaussian":
        d = int(rng.integers(1, 3))
        A = rng.normal(size=(d, d))
        model = GaussianModel.from_mean_cov(rng.normal(size=d), A @ A.T + 0.5 * np.eye(d))
        n = int(rng.integers(25, 50))
        Z = model.sample(n, int(rng.integers(0, 2**31)))
    else:
        d = int(rng.integers(1, 3))
        probs = rng.dirichlet(np.full(3, 3.0), size=d)
        model = CategoricalProductModel(probs)
        n = int(rng.integers(30, 60))
        Z = model.sample(n, int(rng.integers(0, 2**31)))
    w = rng.uniform(0.1, 1.0, size=Z.shape[0])
    return model, make_pop(Z, w)


# ---------------------------------------------------------------------------


def test_criterion_1_closed_form_exactness():
    rng = np.random.default_rng(101)
    worst = 0.0
    plan = ["bernoulli"] * 20 + ["gaussian"] * 15 + ["categorical"] * 15
    for family in plan:
        model, pop = random_fixture(rng, family)
        ours = m_step_closed_form(pop, model).values
        if family == "bernoulli":
            ref = bernoulli_grid_mle(pop.samples, pop.shaped_w)
        elif family == "gaussian":
            m_hat, S_hat = gaussian_numeric_mle(pop.samples, pop.shaped_w)
            ref = np.concatenate([m_hat, S_hat[np.tril_indices(model.dim)]])
        else:
            p_hat = categorical_numeric_mle(pop.samples, pop.shaped_w, model.arity)
            ref = p_hat[:, : model.arity - 1].reshape(-1)
        worst = max(worst, float(np.max(np.abs(ours - ref))))
    report(1, "closed-form refit matches numerical maximizer", worst <= 1e-4,
           f"50 fixtures, worst gap {worst:.2e}")


def test_criterion_2_map_smoothing_identity():
    rng = np.random.default_rng(202)
    gammas = [round(0.1 * i, 1) for i in range(1, 11)]
    worst = 0.0
    exact_at_one = True
    plan = ["bernoulli"] * 30 + ["gaussian"] * 10 + ["categorical"] * 10
    for family in plan:
        model, pop = random_fixture(rng, family)
        prev = model.params
        tilde = m_step_closed_form(pop, model)
        gamma = float(rng.choice(gammas))
        ours = m_step_map(prev, tilde, gamma).values
        lam2 = 1.0 / gamma - 1.0
        lam1 = lam2 * prev.values
        if family == "bernoulli":
            ref = bernoulli_grid_map(pop.samples, pop.shaped_w, prev.values, gamma)
        elif family == "gaussian":
            m_hat, S_hat = gaussian_numeric_mle(
                pop.samples, pop.shaped_w, lam1=lam1, lam2=lam2
            )
            ref = np.concatenate([m_hat, S_hat[np.tril_indices(model.dim)]])
        else:
            p_hat = categorical_numeric_mle(
                pop.samples, pop.shaped_w, model.arity, lam1=lam1, lam2=lam2
            )
            ref = p_hat[:, : model.arity - 1].reshape(-1)
        worst = max(worst, float(np.max(np.abs(ours - ref))))
        if not np.array_equal(m_step_map(prev, tilde, 1.0).values, tilde.values):
            exact_at_one = False
    ok = worst <= 1e-4 and exact_at_one
    report(2, "MAP smoothing equals conjugate-prior argmax", ok,
           f"50 fixtures x gamma grid, worst gap {worst:.2e}, gamma=1 exact={exact_at_one}")


def test_criterion_3_first_order_refit_is_score_update():
    rng = np.random.default_rng(303)
    worst = 0.0
    plan = ["bernoulli"] * 40 + ["categorical"] * 30 + ["gaussian"] * 30
    for family in plan:
        model, pop = random_fixture(rng, family)
        # keep the step well inside the valid domain so no projection fires
        alpha = 0.01 / float(pop.shaped_w.sum())
        ours = m_step_gradient(pop, model, alpha=alpha, k=1).values
        if family == "bernoulli":
            ref = bernoulli_score_update(pop.samples, pop.shaped_w, model.probs, alpha)
        elif family == "categorical":
            ref = categorical_score_update(pop.samples, pop.shaped_w, model.probs, alpha)
        else:
            ref = gaussian_score_update(
                pop.samples, pop.shaped_w, model.mean, model.second_moment, alpha
            )
        scale = np.maximum(np.abs(ref), 1e-12)
        worst = max(worst, float(np.max(np.abs(ours - ref) / scale)))
    report(3, "k=1 refit equals score-function update", worst <= 1e-12,
           f"100 populations, worst relative gap {worst:.2e}")


def test_criterion_4_free_energy_bound_and_gap():
    rng = np.random.default_rng(404)
    worst_violation = -np.inf
    worst_identity = 0.0
    worst_satiation = 0.0
    for name in BIT_FIXTURES:
        fx = FIXTURES[name]
        exact = fx.space.at(fx.model)
        L = exact.objective
        worst_satiation = max(worst_satiation, abs(exact.free_energy(exact.tilted) - L))
        for _ in range(20):
            q = exact.random_q(rng)
            F = exact.free_energy(q)
            worst_violation = max(worst_violation, F - L)
            worst_identity = max(worst_identity, abs((F - L) + exact.kl(q)))
    ok = worst_violation <= 1e-10 and worst_identity <= 1e-10 and worst_satiation <= 1e-10
    report(4, "free-energy bound and gap identity", ok,
           f"violation {worst_violation:.1e}, identity err {worst_identity:.1e}, "
           f"satiation gap {worst_satiation:.1e}")


def test_criterion_5_exact_em_monotonicity():
    worst = 0.0
    ok = True
    for fx in default_fixtures():
        rep = verify_em_monotonicity(fx.model, fx.space)
        ok = ok and rep.passed
        worst = min(worst, rep.values["min_step"])
    report(5, "exact EM never decreases the objective", ok,
           f"all fixtures, worst step {worst:.1e} >= -1e-12")


def test_criterion_6_mc_em_consistency():
    fx = FIXTURES["bern2_onemax1"]
    rep = verify_mc_convergence(
        fx.model, fx.space, fx.objective, error_bound=MC_ERROR_BOUND_BERN2_ONEMAX1
    )
    errs = rep.values["mean_errors"]
    report(6, "sampled refit converges to exact refit", rep.passed,
           f"errors {['%.1e' % e for e in errs]}, inversions {rep.values['inversions']}, "
           f"final <= {MC_ERROR_BOUND_BERN2_ONEMAX1}")


def test_criterion_7_ppm_equivalence():
    ok = True
    worst = 0.0
    for name in ["bern1_f13", "bern2_onemax1", "bern2_const"]:
        fx = FIXTURES[name]
        rep = verify_ppm_equivalence(fx.model, fx.space, grid_step=1e-3)
        ok = ok and rep.passed
        worst = max(worst, rep.values["max_abs_gap"])
    report(7, "proximal-point argmax matches exact EM refit", ok,
           f"<=2-coordinate fixtures, worst gap {worst:.2e} <= 1e-3")


def test_criterion_8_ngd_correspondence():
    fx = FIXTURES["bern1_f13"]
    rep = verify_ngd_correspondence(fx.model, fx.space)
    disc = rep.values["discrepancy"]
    ok = rep.passed and disc <= 1e-10
    rng = np.random.default_rng(808)
    from edaem.objectives import Domain
    from edaem.oracle import EnumerableSpace

    for _ in range(10):
        f_table = rng.uniform(0.2, 3.0, size=4)
        space = EnumerableSpace.build(Domain("binary", 2), lambda Z: f_table)
        model = BernoulliProductModel(rng.uniform(0.15, 0.85, size=2))
        sub = verify_ngd_correspondence(model, space)
        ok = ok and sub.passed
    report(8, "unit-step natural gradient equals exact EM refit", ok,
           f"d=1 discrepancy {disc:.1e} <= 1e-10; d=2 ratios bounded")


def test_criterion_9_end_to_end_optimization():
    # OneMax d=32: quantile 0.5, N=200, closed form
    onemax_doc = {
        "objective": "onemax:32",
        "model": {"family": "bernoulli", "dim": 32, "init": "default"},
        "shaping": "quantile:0.5",
        "update": {"kind": "closed_form"},
        "n_samples": 200,
        "iterations": 200,
        "seed": 0,
    }
    wins_b = 0
    for seed in range(50):
        cfg = RunConfig.from_dict({**onemax_doc, "seed": seed})
        if run(cfg).best_raw_f == 32.0:
            wins_b += 1

    # sphere d=10: Gaussian from a shifted start, quantile 0.25, gamma 0.8
    mean0 = [0.5] * 10
    cov0 = np.eye(10).tolist()
    sphere_doc = {
        "objective": "sphere:10",
        "model": {"family": "gaussian", "dim": 10, "init": {"mean": mean0, "cov": cov0}},
        "shaping": "quantile:0.25",
        "update": {"kind": "map_smoothed", "gamma": 0.8},
        "n_samples": 200,
        "iterations": 500,
        "seed": 0,
    }
    wins_g = 0
    for seed in range(20):
        cfg = RunConfig.from_dict({**sphere_doc, "seed": seed})
        trace = run(cfg)
        if any(r.best_raw_f > -1e-6 for r in trace.records):
            wins_g += 1

    ok = wins_b >= 45 and wins_g >= 18
    report(9, "end-to-end optimization sanity", ok,
           f"onemax {wins_b}/50 (need 45), sphere {wins_g}/20 (need 18)")


def test_criterion_10_run_determinism(tmp_path):
    doc = {
        "objective": "onemax:16",
        "model": {"family": "bernoulli", "dim": 16, "init": "default"},
        "shaping": "quantile:0.5",
        "update": {"kind": "map_smoothed", "gamma": 0.7},
        "n_samples": 100,
        "iterations": 30,
        "seed": 13,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    report(10, "identical config+seed gives byte-identical traces", a == b,
           f"{len(a)} bytes compared")
