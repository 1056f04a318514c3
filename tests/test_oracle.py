"""Oracle tests: exact enumeration values, the free-energy bound and gap
identity, and the verification suite on the shipped fixtures."""

from __future__ import annotations

import inspect
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from independent_oracles import ppm_grid_objective
from scipy.special import logsumexp

from edaem import oracle
from edaem.errors import DegenerateObjectiveError, DomainError
from edaem.fixtures import MC_ERROR_BOUND_BERN2_ONEMAX1, default_fixtures, load_fixture_set
from edaem import fixtures, models
from edaem.models import PROB_FLOOR, BernoulliProductModel, ExpectationParams, SearchModel
from edaem.objectives import Domain
from edaem.oracle import (
    EM_N_STEPS,
    EnumerableSpace,
    verify_em_monotonicity,
    verify_free_energy_bound,
    verify_mc_convergence,
    verify_ngd_correspondence,
    verify_ppm_equivalence,
)

FIXTURES = {f.name: f for f in default_fixtures()}


def space_1bit_f13():
    return EnumerableSpace.build(
        Domain("binary", 1), lambda Z: 1.0 + 2.0 * np.asarray(Z, float)[:, 0]
    )


def onemax_plus_one_space(d):
    return EnumerableSpace.build(
        Domain("binary", d), lambda Z: 1.0 + np.asarray(Z, float).sum(axis=1)
    )


def const_space(d, c):
    return EnumerableSpace.build(
        Domain("binary", d), lambda Z: np.full(np.asarray(Z).shape[0], c)
    )


# ---------------------------------------------------------------------------
# exact computations
# ---------------------------------------------------------------------------


def test_exact_objective_single_bit():
    assert space_1bit_f13().at(BernoulliProductModel([0.5])).objective == pytest.approx(
        math.log(2.0), abs=1e-14
    )


def test_exact_objective_constant():
    model = BernoulliProductModel([0.3, 0.8])
    assert const_space(2, 5.0).at(model).objective == pytest.approx(
        math.log(5.0), abs=1e-14
    )


def test_exact_objective_three_bit_onemax_plus_one():
    model = BernoulliProductModel([0.5, 0.5, 0.5])
    assert onemax_plus_one_space(3).at(model).objective == pytest.approx(
        math.log(2.5), abs=1e-14
    )


def test_exact_objective_degenerate():
    space = const_space(1, 0.0)
    with pytest.raises(DegenerateObjectiveError):
        space.at(BernoulliProductModel([0.5])).objective


def test_exact_objective_is_scipys_logsumexp():
    # Drawn tables with zeros in f and ties at the largest log p, some of
    # them at states where f is zero; scipy is the reference here.
    rng = np.random.default_rng(2101)
    model = BernoulliProductModel([0.5] * 6)
    for trial in range(3000):
        d = int(rng.integers(1, 7))
        f = rng.choice([0.0, 0.5, 1.0, 3.0, 1e-8, 1e8], size=2**d)
        f[rng.integers(2**d)] = rng.uniform(0.1, 10.0)
        levels = rng.normal(size=3) * rng.choice([1.0, 1e3])
        log_p = rng.choice(levels, size=2**d) + (trial % 2) * rng.normal(size=2**d) * 1e-3
        space = EnumerableSpace.build(Domain("binary", d), lambda Z: f)
        got = oracle.Exact(model, space, log_p).objective
        with np.errstate(divide="ignore"):
            want = float(logsumexp(log_p, b=f))
        assert got == want, (trial, got, want)


def test_exact_objective_is_degenerate_where_f_meets_no_mass():
    space = EnumerableSpace.build(Domain("binary", 1), lambda Z: np.array([0.0, 2.0]))
    model = BernoulliProductModel([0.5])
    assert oracle.Exact(model, space, np.array([0.0, -1.0])).objective == math.log(2.0) - 1.0
    with pytest.raises(DegenerateObjectiveError):
        oracle.Exact(model, space, np.array([0.0, -np.inf])).objective


def test_the_space_checks_its_states_and_at_reads_them_unchecked(monkeypatch):
    with pytest.raises(DomainError, match="binary support"):
        EnumerableSpace(np.array([[0], [2]]), np.ones(2), Domain("binary", 1))
    space = onemax_plus_one_space(3)
    model = BernoulliProductModel([0.2, 0.5, 0.7])
    checks = []
    check = Domain.check
    monkeypatch.setattr(Domain, "check", lambda self, Z: checks.append(1) or check(self, Z))
    exact = space.at(model)
    scores, gradient = exact.scores, exact.gradient
    assert checks == []
    assert np.array_equal(exact.log_p, model.log_density_batch(space.states))
    assert np.array_equal(scores, model.grad_log_density_batch(space.states))
    assert np.array_equal(gradient, exact.tilted @ scores)


def test_exact_tilted_single_bit():
    t = space_1bit_f13().at(BernoulliProductModel([0.5])).tilted
    np.testing.assert_allclose(t, [0.25, 0.75])


def test_exact_tilted_constant_is_model():
    model = BernoulliProductModel([0.3, 0.8])
    t = const_space(2, 3.0).at(model).tilted
    p = np.exp(model.log_density_batch(const_space(2, 3.0).states))
    np.testing.assert_allclose(t, p, atol=1e-14)


def test_exact_tilted_uniform_with_zeros():
    space = EnumerableSpace.build(
        Domain("binary", 2), lambda Z: np.array([0.0, 1.0, 1.0, 2.0])
    )
    t = space.at(BernoulliProductModel([0.5, 0.5])).tilted
    np.testing.assert_allclose(t, [0.0, 0.25, 0.25, 0.5])


def test_exact_em_update_single_bit():
    out = space_1bit_f13().at(BernoulliProductModel([0.5])).em_model.params
    np.testing.assert_allclose(out.values, [0.75])


def test_exact_em_update_constant_fixed_point():
    model = BernoulliProductModel([0.3, 0.8])
    out = const_space(2, 2.0).at(model).em_model.params
    np.testing.assert_allclose(out.values, model.probs, atol=1e-14)


def test_exact_em_update_two_bit_onemax_plus_one():
    out = onemax_plus_one_space(2).at(BernoulliProductModel([0.5, 0.5])).em_model.params
    np.testing.assert_allclose(out.values, [0.625, 0.625])


# ---------------------------------------------------------------------------
# free energy
# ---------------------------------------------------------------------------


def test_free_energy_satiation_at_tilted():
    exact = space_1bit_f13().at(BernoulliProductModel([0.5]))
    assert exact.free_energy(exact.tilted) == pytest.approx(exact.objective, abs=1e-12)


def test_free_energy_jensen_gap_at_model():
    exact = space_1bit_f13().at(BernoulliProductModel([0.5]))
    F = exact.free_energy(np.array([0.5, 0.5]))
    assert F == pytest.approx(0.5 * math.log(3.0), abs=1e-12)
    assert F < exact.objective


def test_free_energy_gap_identity_random_q():
    rng = np.random.default_rng(37)
    for _ in range(20):
        probs = rng.uniform(0.1, 0.9, size=3)
        model = BernoulliProductModel(probs)
        f_table = rng.uniform(0.1, 2.0, size=8)
        space = EnumerableSpace.build(Domain("binary", 3), lambda Z, f=f_table: f)
        exact = space.at(model)
        L = exact.objective
        q = rng.dirichlet(np.ones(8))
        F = exact.free_energy(q)
        assert F - L == pytest.approx(-exact.kl(q), abs=1e-10)
        assert F <= L + 1e-10


def test_free_energy_neg_inf_flag():
    space = EnumerableSpace.build(Domain("binary", 1), lambda Z: np.array([0.0, 1.0]))
    exact = space.at(BernoulliProductModel([0.5]))
    q = np.array([0.5, 0.5])  # mass on the f = 0 state
    assert exact.free_energy(q) == float("-inf")
    # and the gap identity still holds in the extended sense
    assert exact.kl(q) == float("inf")


def test_free_energy_rejects_non_distribution():
    exact = space_1bit_f13().at(BernoulliProductModel([0.5]))
    with pytest.raises(DomainError):
        exact.free_energy(np.array([0.9, 0.6]))


# Views no model reaches on a valid space: p places no mass anywhere
# (log p = -inf), and a q over another number of states.
@pytest.mark.parametrize(
    "log_p,read,error,match",
    [
        (np.full(2, -np.inf), lambda ex: ex.tilted, DegenerateObjectiveError, r"E_p\[f\] is zero"),
        (np.full(2, -np.inf), lambda ex: ex.gradient, DegenerateObjectiveError, r"E_p\[f\] is zero"),
        (None, lambda ex: ex.free_energy(np.full(3, 1.0 / 3.0)), DomainError,
         "distribution over the space's states"),
    ],
    ids=["tilted-no-mass", "gradient-no-mass", "q-length"],
)
def test_exact_view_rejects_degenerate_quantities(log_p, read, error, match):
    exact = space_1bit_f13().at(BernoulliProductModel([0.34]))
    if log_p is not None:
        exact = replace(exact, log_p=log_p)
    with pytest.raises(error, match=match):
        read(exact)


def test_exact_view_holds_where_e_p_f_overflows():
    # E_p[f] = 1.8e308 is not a float64; L, the tilted distribution, the
    # refit and the gradient are.
    f_max = np.finfo(np.float64).max
    space = EnumerableSpace.build(Domain("binary", 1), lambda Z: np.full(2, f_max))
    exact = space.at(BernoulliProductModel([0.34]))
    assert exact.objective == pytest.approx(math.log(f_max), rel=1e-15)
    np.testing.assert_allclose(exact.tilted, [0.66, 0.34], rtol=1e-15)
    np.testing.assert_allclose(exact.em_model.params.values, [0.34], rtol=1e-15)
    assert np.all(np.isfinite(exact.gradient))


def test_tilted_is_a_read_only_probability_vector():
    t = space_1bit_f13().at(BernoulliProductModel([0.5])).tilted
    assert isinstance(t, np.ndarray) and not t.flags.writeable
    with pytest.raises(ValueError):
        t[0] = 0.5


def test_kl_single_bit_value():
    exact = space_1bit_f13().at(BernoulliProductModel([0.5]))
    # tilted = (1/4, 3/4)
    want = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
    assert exact.kl([0.5, 0.5]) == pytest.approx(want, abs=1e-15)
    assert exact.kl(exact.tilted) == 0.0
    with pytest.raises(DomainError):
        exact.kl([0.9, 0.6])


def test_random_q_is_a_flat_dirichlet_draw_on_the_states_where_f_is_positive():
    fx = FIXTURES["bern3_trap"]  # f = 0 on some states
    exact = fx.space.at(fx.model)
    support = fx.space.f_values > 0.0
    assert not support.all()
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(3):
        q = exact.random_q(rng)
        assert np.array_equal(q[support], ref.dirichlet(np.ones(int(support.sum()))))
        assert np.all(q[~support] == 0.0)
        assert np.isfinite(exact.free_energy(q)) and np.isfinite(exact.kl(q))


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("m", [1, 3, oracle.FE_N_RANDOM_Q])
def test_one_dirichlet_array_is_m_random_q_calls(name, m):
    exact = FIXTURES[name].space.at(FIXTURES[name].model)
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    support, Q = exact._random_rows(rng, m)
    assert np.array_equal(support, exact.f_values > 0.0) and Q.shape == (m, support.sum())
    for row in Q:
        q = exact.random_q(ref)
        assert np.array_equal(q[support], row) and np.all(q[~support] == 0.0)
    assert rng.random() == ref.random()


def _loop_over(exact, qs):
    # The free-energy row as the acceptance suite runs it: one q at a time.
    L = exact.objective
    violation = identity = 0.0
    for q in qs:
        gap = exact.free_energy(q) - L
        violation = max(violation, gap)
        identity = max(identity, abs(gap + exact.kl(q)))
    return violation, identity


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("seed", [0, 5, 404])
def test_free_energy_row_reports_what_a_loop_over_random_q_reads(name, seed):
    fx = FIXTURES[name]
    exact = fx.space.at(fx.model)
    rng = np.random.default_rng(seed)
    qs = [exact.random_q(rng) for _ in range(oracle.FE_N_RANDOM_Q)]
    support, Q = exact._random_rows(np.random.default_rng(seed), oracle.FE_N_RANDOM_Q)
    F, kl = exact._rows(Q, support)
    for i, q in enumerate(qs):
        assert F[i] == exact.free_energy(q) and kl[i] == exact.kl(q)
    violation, identity = _loop_over(exact, qs)
    rep = verify_free_energy_bound(fx.model, fx.space, seed=seed)
    assert rep.values["max_bound_violation"] == violation
    assert rep.values["max_gap_identity_error"] == identity
    assert rep.values["satiation_gap"] == abs(exact.free_energy(exact.tilted) - exact.objective)


def test_free_energy_row_scores_a_q_with_a_zero_entry_on_its_own(monkeypatch):
    # A draw that leaves a zero on the support (a standard exponential of
    # exactly 0; it has not been seen) is positive on fewer states than the
    # other rows: it is scored alone, as free_energy and kl score it.
    fx = FIXTURES["bern3_trap"]
    exact = fx.space.at(fx.model)
    support, Q = exact._random_rows(np.random.default_rng(0), oracle.FE_N_RANDOM_Q)
    Q[[2, 7], [0, -1]] = 0.0
    Q[[2, 7]] /= Q[[2, 7]].sum(axis=1, keepdims=True)
    qs = np.zeros((len(Q), fx.space.n_states))
    qs[:, support] = Q
    monkeypatch.setattr(oracle.Exact, "_random_rows", lambda self, rng, m: (support, Q.copy()))
    rep = verify_free_energy_bound(fx.model, fx.space, seed=0)
    assert rep.passed
    assert (rep.values["max_bound_violation"], rep.values["max_gap_identity_error"]) == (
        _loop_over(exact, qs)
    )


@st.composite
def scored_rows(draw):
    """A view with a drawn log p (a spread wide enough that the tilted
    distribution underflows to zero on some states where f > 0), an f table
    with zeros, the states a batch is positive on, and its rows."""
    d = draw(st.integers(1, 3))
    n = 2**d
    f = draw(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=n, max_size=n)
        .filter(lambda v: max(v) > 0.0)
    )
    log_p = draw(st.lists(st.floats(-900.0, 0.0), min_size=n, max_size=n))
    act = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    k = sum(act)
    m = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k),
                         min_size=m, max_size=m))
    space = EnumerableSpace.build(Domain("binary", d), lambda Z: np.array(f))
    exact = oracle.Exact(BernoulliProductModel([0.5] * d), space, np.array(log_p))
    Q = np.array(rows)
    return exact, np.array(act), Q / Q.sum(axis=1, keepdims=True)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(scored_rows())
def test_a_batch_row_scores_as_free_energy_and_kl_score_its_q(problem):
    # Off ``act`` each q is zero; on it, f may vanish (F = -inf) and the
    # tilted distribution may underflow (KL = +inf).
    exact, act, Q = problem
    F, kl = exact._rows(Q, act)
    assert np.array_equal(exact._rows(Q, act, kl=False)[0], F)
    for i, row in enumerate(Q):
        q = np.zeros(exact.space.n_states)
        q[act] = row
        assert exact.free_energy(q) == F[i] and exact.kl(q) == kl[i]
        assert np.array_equal(exact._rows(Q[i : i + 1], act)[0], F[i : i + 1])


@pytest.mark.parametrize("s", [1.0, 0.5, 0.125])
def test_rescaled_view_is_the_view_of_the_rescaled_table(s):
    fx = FIXTURES["cat2x3_affine"]
    exact = fx.space.at(fx.model)
    scaled = exact.rescaled(s)
    assert scaled.log_p is exact.log_p and scaled.scores is exact.scores
    table = 1.0 + s * (fx.space.f_values - 1.0)
    direct = EnumerableSpace(fx.space.states, table, fx.space.domain).at(fx.model)
    assert scaled.objective == direct.objective
    assert np.array_equal(scaled.gradient, direct.gradient)
    assert np.array_equal(scaled.em_model.params.values, direct.em_model.params.values)


def test_rescaled_requires_a_positive_objective():
    fx = FIXTURES["bern3_trap"]
    with pytest.raises(DomainError, match="requires f > 0 everywhere"):
        fx.space.at(fx.model).rescaled(0.5)


@pytest.mark.parametrize("s", [0.0, -0.5, 1.5, np.nan])
def test_rescaled_takes_a_scale_in_the_unit_interval(s):
    fx = FIXTURES["cat2x3_affine"]
    with pytest.raises(DomainError, match="scale"):
        fx.space.at(fx.model).rescaled(s)


NGD_FIXTURES = [name for name, fx in FIXTURES.items() if fixtures._ngd in fx.checks]


@pytest.mark.parametrize("name", NGD_FIXTURES)
def test_ngd_checks_no_states_on_a_built_space(monkeypatch, name):
    # The states were checked once, when the space was built; a rescaled
    # view tilts by its own table over them.
    fx = FIXTURES[name]
    space = fx.space
    checks = []
    check = Domain.check
    monkeypatch.setattr(Domain, "check", lambda self, Z: checks.append(1) or check(self, Z))
    assert verify_ngd_correspondence(fx.model, space).passed
    assert checks == []


def test_ngd_fixtures_and_a_zero_objective():
    assert NGD_FIXTURES == ["bern1_f13", "bern2_onemax1", "bern3_onemax1", "bern2_const",
                            "cat2x3_affine"]
    trap = FIXTURES["bern3_trap"]
    with pytest.raises(DomainError, match="requires f > 0 everywhere"):
        verify_ngd_correspondence(trap.model, trap.space)


# ---------------------------------------------------------------------------
# enumerated gradient
# ---------------------------------------------------------------------------


def test_exact_gradient_single_bit_value():
    g = space_1bit_f13().at(BernoulliProductModel([0.5])).gradient
    np.testing.assert_allclose(g, [1.0], atol=1e-14)


def test_exact_gradient_matches_finite_differences():
    rng = np.random.default_rng(41)
    f_table = rng.uniform(0.2, 3.0, size=4)
    space = EnumerableSpace.build(Domain("binary", 2), lambda Z: f_table)
    model = BernoulliProductModel([0.35, 0.6])
    grad = space.at(model).gradient
    h = 1e-7
    for j in range(2):
        vp, vm = model.probs.copy(), model.probs.copy()
        vp[j] += h
        vm[j] -= h
        fd = (
            space.at(BernoulliProductModel(vp)).objective
            - space.at(BernoulliProductModel(vm)).objective
        ) / (2 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------------------
# a model and a space share one domain
# ---------------------------------------------------------------------------

MISMATCHED = {
    "gaussian_on_binary": (
        lambda: models.GaussianModel.from_mean_cov(np.zeros(2), np.eye(2)),
        "bern2_onemax1",
    ),
    "bernoulli_on_categorical": (
        lambda: BernoulliProductModel([0.5, 0.5]),
        "cat2x3_affine",
    ),
    "categorical_k2_on_binary": (
        lambda: models.CategoricalProductModel(np.full((2, 2), 0.5)),
        "bern2_onemax1",
    ),
}

ORACLE_CALLS = {
    "EnumerableSpace.at": lambda m, fx: fx.space.at(m),
    "verify_ppm_equivalence": lambda m, fx: verify_ppm_equivalence(m, fx.space, 0.05),
    "verify_ngd_correspondence": lambda m, fx: verify_ngd_correspondence(m, fx.space),
    "verify_mc_convergence": lambda m, fx: verify_mc_convergence(
        m, fx.space, fx.objective, error_bound=1.0
    ),
    "verify_em_monotonicity": lambda m, fx: verify_em_monotonicity(m, fx.space),
    "verify_free_energy_bound": lambda m, fx: verify_free_energy_bound(m, fx.space),
}


def _takes_a_model(fn):
    return inspect.isfunction(fn) and "model" in inspect.signature(fn).parameters


def test_oracle_calls_table_covers_the_public_functions():
    # A model enters the oracle through space.at or a verify_* function;
    # every quantity of the Exact view derives from the one space.at read.
    public = {n for n, fn in vars(oracle).items() if not n.startswith("_") and _takes_a_model(fn)}
    public |= {
        f"EnumerableSpace.{n}" for n, fn in vars(EnumerableSpace).items() if _takes_a_model(fn)
    }
    assert public == set(ORACLE_CALLS)


@pytest.mark.parametrize("call", sorted(ORACLE_CALLS))
@pytest.mark.parametrize("pair", sorted(MISMATCHED))
def test_model_on_another_domain_than_the_space_raises(pair, call):
    make_model, fixture = MISMATCHED[pair]
    with pytest.raises(DomainError):
        ORACLE_CALLS[call](make_model(), FIXTURES[fixture])


# ---------------------------------------------------------------------------
# space construction
# ---------------------------------------------------------------------------


def test_space_lexicographic_order():
    space = onemax_plus_one_space(2)
    np.testing.assert_array_equal(space.states, [[0, 0], [0, 1], [1, 0], [1, 1]])


@pytest.mark.parametrize("arity, dim", [(2, 1), (2, 5), (3, 1), (3, 4), (4, 3), (7, 2)])
def test_space_states_are_the_lexicographic_product(arity, dim):
    domain = Domain("binary", dim) if arity == 2 else Domain("categorical", dim, arity)
    states = EnumerableSpace.build(domain, lambda Z: np.ones(Z.shape[0])).states
    want = np.array(list(itertools.product(range(arity), repeat=dim)), dtype=np.int64)
    assert states.dtype == np.int64 and states.flags.c_contiguous
    assert np.array_equal(states, want)


def test_space_enumeration_cap():
    with pytest.raises(DomainError):
        EnumerableSpace.build(Domain("binary", 21), lambda Z: np.ones(np.asarray(Z).shape[0]))


def test_space_rejects_a_continuous_domain():
    with pytest.raises(DomainError, match="no finite set of states"):
        EnumerableSpace.build(Domain("continuous", 2), lambda Z: np.ones(np.asarray(Z).shape[0]))


def test_space_rejects_negative_objective():
    with pytest.raises(DomainError, match="nonnegative|negative"):
        EnumerableSpace.build(Domain("binary", 1), lambda Z: np.array([1.0, -1.0]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_space_rejects_a_non_finite_objective_and_names_the_state(bad):
    # Admitted, a NaN or inf surfaces in every check as "E_p[f] is zero
    # under the model support", which names the wrong cause.
    with pytest.raises(DomainError, match=r"not finite: f = -?(nan|inf) at state \[1, 0\]"):
        EnumerableSpace.build(Domain("binary", 2), lambda Z: np.array([1.0, 2.0, bad, bad]))


# ---------------------------------------------------------------------------
# verification suite on the shipped fixtures
# ---------------------------------------------------------------------------


def test_ppm_single_bit_grid():
    rep = verify_ppm_equivalence(
        BernoulliProductModel([0.5]), space_1bit_f13(), grid_step=1e-3
    )
    assert rep.passed
    assert rep.values["ppm_argmax"][0] == pytest.approx(0.75, abs=1e-3)


def test_ppm_constant_objective_argmax_at_current():
    model = BernoulliProductModel([0.3, 0.7])
    rep = verify_ppm_equivalence(model, const_space(2, 2.0), grid_step=1e-3)
    assert rep.passed
    np.testing.assert_allclose(rep.values["ppm_argmax"], [0.3, 0.7], atol=1e-3)


def test_ppm_two_bit_onemax_plus_one():
    rep = verify_ppm_equivalence(
        BernoulliProductModel([0.5, 0.5]), onemax_plus_one_space(2), grid_step=1e-3
    )
    assert rep.passed
    np.testing.assert_allclose(rep.values["ppm_argmax"], [0.625, 0.625], atol=1e-3 + 1e-12)


def test_ppm_rejects_large_models():
    model = BernoulliProductModel(np.full(4, 0.5))
    with pytest.raises(DomainError):
        verify_ppm_equivalence(model, onemax_plus_one_space(4))


def _assert_ppm_argmax_maximizes_reference(model, space, step):
    rep = verify_ppm_equivalence(model, space, grid_step=step)
    n_points = int(round((1.0 - 2.0 * PROB_FLOOR) / step)) + 1
    grid_1d = np.linspace(PROB_FLOOR, 1.0 - PROB_FLOOR, n_points)
    thetas, values = ppm_grid_objective(
        space.states, space.f_values, model.probs, grid_1d
    )
    at = np.flatnonzero(np.all(thetas == rep.values["ppm_argmax"], axis=1))
    assert at.size == 1  # the reported argmax is a grid point
    assert values.max() - values[at[0]] <= 1e-12


@pytest.mark.parametrize(
    "name", [n for n, fx in FIXTURES.items() if fx.space.domain.kind == "binary"]
)
def test_ppm_argmax_maximizes_the_reference_objective_on_fixtures(name):
    fx = FIXTURES[name]
    step = 0.05 if fx.model.dim == 3 else 0.01
    _assert_ppm_argmax_maximizes_reference(fx.model, fx.space, step)


@st.composite
def ppm_problems(draw):
    d = draw(st.integers(1, 3))
    f = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=2**d, max_size=2**d
        ).filter(lambda v: max(v) > 0.0)
    )
    theta = draw(st.lists(st.floats(0.05, 0.95), min_size=d, max_size=d))
    space = EnumerableSpace.build(Domain("binary", d), lambda Z: np.array(f))
    return BernoulliProductModel(theta), space


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(ppm_problems())
def test_ppm_argmax_maximizes_the_reference_objective_on_drawn_tables(problem):
    model, space = problem
    _assert_ppm_argmax_maximizes_reference(model, space, 0.05 if model.dim == 3 else 0.01)


def test_ppm_fails_when_the_refit_is_moved_three_grid_steps(monkeypatch):
    step = 0.01
    refit = BernoulliProductModel._refit

    def moved(self, Z, w, total):
        p = refit(self, Z, w, total)
        return ExpectationParams(p.values + 3 * step, p.family_tag)

    model, space = BernoulliProductModel([0.5, 0.5]), onemax_plus_one_space(2)
    assert verify_ppm_equivalence(model, space, grid_step=step).passed
    monkeypatch.setattr(BernoulliProductModel, "_refit", moved)
    assert not verify_ppm_equivalence(model, space, grid_step=step).passed


BINARY_FIXTURES = sorted(n for n, fx in FIXTURES.items() if fx.space.domain.kind == "binary")


def _fixture_ppm_step(fx):
    return 0.02 if fx.model.dim == 3 else 1e-3


@pytest.mark.parametrize("name", BINARY_FIXTURES)
def test_ppm_report_does_not_depend_on_the_block_size(monkeypatch, name):
    # One row, 7 rows and the whole grid, plus a third of a row, so that
    # the last coordinate is split into column blocks as well.
    fx = FIXTURES[name]
    step = _fixture_ppm_step(fx)
    n_points = int(round((1.0 - 2.0 * PROB_FLOOR) / step)) + 1
    expected = verify_ppm_equivalence(fx.model, fx.space, step)
    for block in (n_points // 3 + 1, n_points, 7 * n_points, n_points**fx.model.dim):
        monkeypatch.setattr(oracle, "PPM_BLOCK_POINTS", block)
        assert verify_ppm_equivalence(fx.model, fx.space, step) == expected, block


def _permuted(space, order):
    perm = np.arange(space.n_states)
    if order == "reversed":
        perm = perm[::-1]
    elif order == "shuffled":
        perm = np.random.default_rng(0).permutation(space.n_states)
    return EnumerableSpace(space.states[perm], space.f_values[perm], space.domain)


@pytest.mark.parametrize("name", BINARY_FIXTURES)
@pytest.mark.parametrize("order", ["given", "reversed", "shuffled"])
@pytest.mark.parametrize("block", [4, oracle.PPM_BLOCK_POINTS])
def test_ppm_grid_holds_L_and_the_kl_at_every_point(monkeypatch, name, order, block):
    # The blocks cover the grid once, and at every point they hold the
    # Exact view's L(theta) and KL(tilted(theta_t) || tilted(theta)), also
    # when the states come in another order than the lexicographic one.
    # Blocks of 4 points split the last coordinate into 2 column blocks.
    monkeypatch.setattr(oracle, "PPM_BLOCK_POINTS", block)
    fx = FIXTURES[name]
    d, grid_1d = fx.model.dim, np.linspace(PROB_FLOOR, 1.0 - PROB_FLOOR, 7)
    L_grid, kl_grid = np.full((2, 7 ** (d - 1), 7), np.nan)
    for rows, cols, L, kl in oracle._ppm_blocks(_permuted(fx.space, order).at(fx.model), grid_1d):
        assert np.all(np.isnan(L_grid[rows, cols]))
        L_grid[rows, cols], kl_grid[rows, cols] = L, kl
    q_t = fx.space.at(fx.model).tilted
    for k, theta in enumerate(itertools.product(grid_1d, repeat=d)):
        view = fx.space.at(BernoulliProductModel(theta))
        assert L_grid.flat[k] == pytest.approx(view.objective, rel=0.0, abs=1e-12)
        assert kl_grid.flat[k] == pytest.approx(view.kl(q_t), rel=0.0, abs=1e-12)


@pytest.mark.parametrize("name", BINARY_FIXTURES)
@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_ppm_reads_the_states_it_is_given(name, order):
    # The objective table is scattered by the states themselves, not
    # reshaped in an assumed order.  The exact refit sums the states in the
    # order given, so the EM update may move by a rounding step.
    fx = FIXTURES[name]
    step = _fixture_ppm_step(fx)
    expected = verify_ppm_equivalence(fx.model, fx.space, step)
    got = verify_ppm_equivalence(fx.model, _permuted(fx.space, order), step)
    assert got.passed == expected.passed
    assert got.values["ppm_argmax"] == expected.values["ppm_argmax"]
    np.testing.assert_allclose(
        got.values["em_update"], expected.values["em_update"], rtol=0.0, atol=1e-15
    )
    for key in ("max_abs_gap", "grid_step", "excluded_states"):
        assert got.values[key] == pytest.approx(expected.values[key], rel=0.0, abs=1e-15)


def test_ppm_memory_is_a_few_blocks_whatever_the_grid():
    # 999^2 grid points, walked in blocks of PPM_BLOCK_POINTS: two block
    # buffers for L(theta) and the KL, about 1.1 MB traced in all.  An
    # array over (grid point, state) cells, or blocks four times as large,
    # would not fit.
    fx = FIXTURES["bern2_onemax1"]
    space = fx.space  # enumerated once per fixture, outside the traced region
    tracemalloc.start()
    try:
        assert verify_ppm_equivalence(fx.model, space, grid_step=1e-3).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * oracle.PPM_BLOCK_POINTS * 8


@pytest.mark.parametrize("step", [2.0, 0.0, -0.01, float("nan"), float("inf")])
def test_ppm_grid_step_out_of_range_rejected(step):
    with pytest.raises(DomainError, match="grid_step"):
        verify_ppm_equivalence(BernoulliProductModel([0.5]), space_1bit_f13(), grid_step=step)


def test_ngd_single_bit_exact_equality():
    rep = verify_ngd_correspondence(BernoulliProductModel([0.5]), space_1bit_f13())
    assert rep.passed
    assert rep.values["discrepancy"] <= 1e-10


def test_ngd_constant_objective_fixed_point():
    model = BernoulliProductModel([0.3, 0.7])
    rep = verify_ngd_correspondence(model, const_space(2, 2.0))
    assert rep.passed
    assert rep.values["discrepancy"] <= 1e-12


@pytest.mark.parametrize("c", [1e-3, 0.1, 0.5, 1.0, 2.0, 7.0, 1e3])
@pytest.mark.parametrize(
    "probs", [[0.5, 0.5], [0.3, 0.7], [0.1, 0.9], [0.2, 0.2], [0.05, 0.6], [0.9, 0.45]]
)
def test_ngd_constant_objective_is_decided_by_the_discrepancy_alone(c, probs):
    # Under a constant f the gradient is zero and NGD and EM both stay at
    # theta: every scale's discrepancy is rounding, and the ratio to
    # |grad L|^2 divides one rounding error by another.
    rep = verify_ngd_correspondence(BernoulliProductModel(probs), const_space(2, c))
    assert rep.passed, rep.values
    assert max(rep.values["discrepancies"]) <= oracle.NGD_EQUALITY_TOL


NGD_BERNOULLI_FIXTURES = ["bern1_f13", "bern2_const", "bern2_onemax1", "bern3_onemax1"]
_BERNOULLI_REFIT = BernoulliProductModel._refit


def _scaled_refit(factor):
    def refit(self, Z, w, total):
        p = _BERNOULLI_REFIT(self, Z, w, total)
        return ExpectationParams(p.values * factor, p.family_tag)

    return refit


def _inert_refit(self, Z, w, total):
    return self.params


@pytest.mark.parametrize(
    "refit, failing",
    [
        (_scaled_refit(1.0 + 1e-6), NGD_BERNOULLI_FIXTURES),
        (_scaled_refit(1.0 + 1e-9), NGD_BERNOULLI_FIXTURES),
        # Under bern2_const's constant f, theta is the right refit.
        (_inert_refit, ["bern1_f13", "bern2_onemax1", "bern3_onemax1"]),
    ],
    ids=["refit-1e-6", "refit-1e-9", "inert"],
)
def test_ngd_bernoulli_rows_fail_under_a_wrong_refit(monkeypatch, refit, failing):
    monkeypatch.setattr(BernoulliProductModel, "_refit", refit)
    got = [
        name for name in NGD_BERNOULLI_FIXTURES
        if not verify_ngd_correspondence(FIXTURES[name].model, FIXTURES[name].space).passed
    ]
    assert got == failing


def test_ngd_random_two_bit_ratio_bounded():
    rng = np.random.default_rng(43)
    for _ in range(20):
        f_table = rng.uniform(0.2, 3.0, size=4)
        space = EnumerableSpace.build(Domain("binary", 2), lambda Z: f_table)
        model = BernoulliProductModel(rng.uniform(0.15, 0.85, size=2))
        rep = verify_ngd_correspondence(model, space)
        assert rep.passed, rep.values


def _one_bit_space(f_table):
    return EnumerableSpace.build(Domain("binary", 1), lambda Z: np.array(f_table))


def test_ngd_rounding_level_discrepancies_agree():
    # f << 1 makes f_s = 1 + s (f - 1) nearly constant, so |grad L|^2 is
    # near 1e-8 and a rounding-level discrepancy divided by it reads past
    # NGD_NOISE_FLOOR at s = 1/8; every discrepancy is below 6e-17.
    rep = verify_ngd_correspondence(
        BernoulliProductModel([0.4393711046405587]),
        _one_bit_space((0.003394174053771335, 0.002989898039145167)),
    )
    assert max(rep.values["discrepancies"]) <= 5.6e-17
    assert rep.values["ratios"][-1] > oracle.NGD_NOISE_FLOOR
    assert rep.passed, rep.values


def test_ngd_compares_with_the_unrepaired_refit():
    # The tilted mean is 1.8e-4, below PROB_FLOOR: the refit the natural
    # gradient step equals is the unrepaired one, not the floored model.
    model = BernoulliProductModel([0.196])
    space = _one_bit_space((3.418, 0.00255))
    assert model._refit(space.states, space.at(model).tilted, 1.0).values[0] < PROB_FLOOR
    rep = verify_ngd_correspondence(model, space)
    assert rep.values["discrepancy"] <= 1e-15
    assert rep.passed, rep.values


@pytest.mark.parametrize(
    "probs",
    [np.full((2, 3), 1.0 / 3.0), [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]],
    ids=["uniform", "off_centre"],
)
def test_ngd_on_the_categorical_fixture(probs):
    fx = FIXTURES["cat2x3_affine"]
    rep = verify_ngd_correspondence(models.CategoricalProductModel(probs), fx.space)
    assert rep.passed, rep.values
    assert rep.values["discrepancy"] <= 1e-14


def _scale_fisher_00(fisher):
    def scaled(self):
        out = fisher(self)
        out[0, 0] *= 1.01
        return out

    return scaled


def _scale_score_column_0(score):
    def scaled(self, Z):
        out = score(self, Z)
        out[:, 0] *= 1.01
        return out

    return scaled


@pytest.mark.parametrize(
    "kernel, perturb",
    [("_fisher", _scale_fisher_00), ("_score_batch", _scale_score_column_0)],
)
def test_ngd_categorical_row_fails_when_a_kernel_is_perturbed(monkeypatch, kernel, perturb):
    fx = FIXTURES["cat2x3_affine"]
    cls = models.CategoricalProductModel
    monkeypatch.setattr(cls, kernel, perturb(getattr(cls, kernel)))
    rep = verify_ngd_correspondence(fx.model, fx.space)
    assert not rep.passed
    assert rep.values["discrepancy"] > 1e-4


def test_ngd_requires_positive_objective():
    with pytest.raises(DomainError):
        verify_ngd_correspondence(
            BernoulliProductModel([0.5]),
            EnumerableSpace.build(Domain("binary", 1), lambda Z: np.array([0.0, 1.0])),
        )


def test_mc_convergence_on_calibrated_fixture():
    fx = FIXTURES["bern2_onemax1"]
    rep = verify_mc_convergence(
        fx.model, fx.space, fx.objective, error_bound=MC_ERROR_BOUND_BERN2_ONEMAX1
    )
    assert rep.passed, rep.values
    errs = rep.values["mean_errors"]
    assert errs[-1] < errs[0]


def test_mc_convergence_holds_one_generation_at_a_time():
    # Each generation is released before the next is drawn: the row's peak
    # is one N = 1e5 e_step and its refit, plus less than 0.5 MB (two live
    # generations add about 1.8 MB).
    from edaem.engine import e_step, m_step_closed_form
    from edaem.shaping import ShapingSpec

    fx = FIXTURES["bern2_onemax1"]
    identity = ShapingSpec("identity")
    run_mc = lambda: verify_mc_convergence(  # noqa: E731
        fx.model, fx.space, fx.objective, error_bound=MC_ERROR_BOUND_BERN2_ONEMAX1
    )
    run_one = lambda: m_step_closed_form(  # noqa: E731
        e_step(fx.model, fx.objective, identity, oracle.MC_N_LIST[-1], 0), fx.model
    )
    peaks = []
    for call in (run_mc, run_one, run_mc):  # the first call warms the caches
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] - peaks[1] < 500_000, peaks


def test_exact_e_step_weights_reproduce_exact_update():
    # replacing sampling with full enumeration weighted by p * f must
    # reproduce the exact refit to rounding
    from edaem.engine import Population, m_step_closed_form

    fx = FIXTURES["bern2_onemax1"]
    p = np.exp(fx.model.log_density_batch(fx.space.states))
    w = p * fx.space.f_values
    pop = Population(samples=fx.space.states, raw_f=fx.space.f_values, shaped_w=w)
    ours = m_step_closed_form(pop, fx.model).values
    exact = fx.space.at(fx.model).em_model.params.values
    np.testing.assert_allclose(ours, exact, atol=1e-12)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_exact_em_is_the_closed_form_m_step_over_every_state(name):
    # With every state as the generation and the tilted distribution as its
    # shaped and normalized weights, the closed-form M-step and one repair
    # give the exact EM update bit for bit.
    from edaem.engine import Population, m_step_closed_form

    fx = FIXTURES[name]
    exact = fx.space.at(fx.model)
    q = exact.tilted
    pop = Population(samples=fx.space.states, raw_f=fx.space.f_values, shaped_w=q)
    got = fx.model.with_params(m_step_closed_form(pop, fx.model)).params.values
    assert np.array_equal(got, exact.em_model.params.values)


def test_em_monotonicity_all_fixtures():
    for fx in default_fixtures():
        rep = verify_em_monotonicity(fx.model, fx.space)
        assert rep.passed, (fx.name, rep.values)


def test_em_monotonicity_onemax3_limit():
    fx = FIXTURES["bern3_onemax1"]
    rep = verify_em_monotonicity(fx.model, fx.space)
    final = rep.values["objective_values"][-1]
    # converges toward log(max f) = log 4, up to the probability floor
    assert final == pytest.approx(math.log(4.0), abs=2e-2)
    assert rep.values["objective_values"][0] == pytest.approx(math.log(2.5), abs=1e-12)


def test_em_monotonicity_constant_objective_flat():
    fx = FIXTURES["bern2_const"]
    rep = verify_em_monotonicity(fx.model, fx.space)
    vals = rep.values["objective_values"]
    np.testing.assert_allclose(vals, math.log(2.0), atol=1e-12)


def test_free_energy_bound_reports():
    for fx in default_fixtures():
        rep = verify_free_energy_bound(fx.model, fx.space, seed=5)
        assert rep.passed, (fx.name, rep.values)


def test_report_json_shape():
    reports = FIXTURES["bern1_f13"].reports()
    assert [r.check_name for r in reports] == [
        "ppm_equivalence", "ngd_correspondence", "em_monotonicity", "free_energy_bound",
    ]
    for rep in reports:
        doc = rep.to_json_dict()
        assert list(doc) == ["check_name", "fixture", "values", "pass"]
        assert doc["fixture"] == "bern1_f13"


def test_fixture_set_loading():
    assert [f.name for f in load_fixture_set("default")] == [
        "bern1_f13",
        "bern2_onemax1",
        "bern3_onemax1",
        "bern2_const",
        "bern3_trap",
        "cat2x3_affine",
    ]
    from edaem.errors import ConfigError

    with pytest.raises(ConfigError):
        load_fixture_set("nope")


def test_floors_and_tolerances_are_constants_not_parameters():
    removed = {
        "floor", "eig_floor", "jitter_scale", "scales", "growth_limit", "noise_floor",
        "equality_tol", "n_steps", "step_tol", "n_random_q", "tol", "fixture", "n_list",
        "seeds",
    }
    fns = [
        models.BernoulliProductModel,
        models.GaussianModel,
        models.GaussianModel.from_mean_cov,
        models.CategoricalProductModel,
        verify_ppm_equivalence,
        verify_ngd_correspondence,
        verify_mc_convergence,
        verify_em_monotonicity,
        verify_free_energy_bound,
    ]
    for fn in fns:
        params = inspect.signature(fn).parameters
        assert not removed & set(params), fn
        assert all(p.kind is not p.VAR_KEYWORD for p in params.values()), fn


class _AnswersOnly:
    """A space that offers the checks only its domain and ``at(model)``,
    as a space without an enumeration of its states would."""

    __slots__ = ("_space",)

    def __init__(self, space):
        self._space = space

    @property
    def domain(self):
        return self._space.domain

    def at(self, model):
        return self._space.at(model)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_checks_read_the_space_only_through_at(fixture):
    # Every check but the binary-only proximal-point grid reads the space
    # through space.at(model) alone, so a space that answers only that
    # gives the same reports.
    fx = FIXTURES[fixture]
    answers_only = replace(fx)
    answers_only.__dict__["space"] = _AnswersOnly(fx.space)  # in place of the cached build
    ran = []
    for check in fx.checks:
        real = check(fx)
        if real.check_name != "ppm_equivalence":
            assert check(answers_only) == real, real.check_name
            ran.append(real.check_name)
    assert {"em_monotonicity", "free_energy_bound"} <= set(ran)


def _count_calls(monkeypatch, name, cls=SearchModel):
    calls = []
    method = getattr(cls, name)

    def counting(self, *args):
        calls.append(name)
        return method(self, *args)

    monkeypatch.setattr(cls, name, counting)
    return calls


@pytest.mark.parametrize("fixture", ["bern2_onemax1", "cat2x3_affine"])
def test_em_monotonicity_builds_each_step_once(monkeypatch, fixture):
    fx = FIXTURES[fixture]
    calls = _count_calls(monkeypatch, "with_params")
    assert verify_em_monotonicity(fx.model, fx.space).passed
    assert len(calls) == EM_N_STEPS


@pytest.mark.parametrize(
    "fixture, k",
    [(name, k) for name, fx in FIXTURES.items() for k in range(len(fx.checks))],
    ids=lambda v: v if isinstance(v, str) else f"check{v}",
)
def test_each_check_reads_log_p_once_per_model(monkeypatch, fixture, k):
    # One read of log p(z|theta) serves every exact quantity of a model:
    # EM monotonicity reads its start and each of its EM_N_STEPS iterates,
    # every other check reads its one model, and NGD reads the scores once
    # for all of its objective scales.
    fx = FIXTURES[fixture]
    log_p = _count_calls(monkeypatch, "_log_density", type(fx.model))
    scores = _count_calls(monkeypatch, "_score_batch", type(fx.model))
    rep = fx.checks[k](fx)
    assert rep.passed
    n_models = EM_N_STEPS + 1 if rep.check_name == "em_monotonicity" else 1
    n_scores = 1 if rep.check_name == "ngd_correspondence" else 0
    assert (len(log_p), len(scores)) == (n_models, n_scores), rep.check_name
