"""The EDA main loop, structured as Monte-Carlo EM.

Each iteration draws a generation from the current search distribution
(the sampling half of an E-step), turns shaped objective values into a
normalized particle posterior over the generation, and refits the
distribution with one of three M-step variants:

* ``closed_form``   -- weighted mean of sufficient statistics, the
  exponential-family weighted MLE.
* ``map_smoothed``  -- convex combination (1 - gamma) * theta_prev +
  gamma * theta_tilde, equivalently the MAP refit under the family's
  conjugate prior with lambda2 = 1/gamma - 1 and lambda1 = lambda2 *
  theta_prev (recomputed every iteration).
* ``gradient``      -- k ascent steps of size alpha on the weighted
  log-likelihood; with k = 1 this is exactly the score-function
  (REINFORCE-style) update, and as k grows it approaches the closed form.

Runs are deterministic given the seed for a fixed BLAS library and thread
count: per-iteration sampling seeds derive from a fixed SeedSequence, and
the weighted sums go through BLAS, whose summation order may change with
the library or the number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import objectives as objectives_mod
from . import shaping as shaping_mod
from .errors import (
    ConfigError,
    DegenerateModelError,
    DegenerateUpdateError,
    DegenerateWeightsError,
    FamilyMismatchError,
    ObjectiveError,
    RunAbortedError,
    StepSizeError,
)
from .models import ExpectationParams, SearchModel

DEFAULT_MAX_CONSECUTIVE_PROJECTIONS = 20


@dataclass(frozen=True)
class Population:
    """One generation: samples, raw values, shaped weights, and the
    normalized particle posterior over the samples.

    ``log_w_shift`` is the log of the constant the shaping divided out
    (nonzero only for exponential shaping); free-energy diagnostics add it
    back so they do not depend on the overflow guard.
    """

    samples: np.ndarray
    raw_f: np.ndarray
    shaped_w: np.ndarray
    norm_w: np.ndarray
    log_w_shift: float = 0.0

    def __post_init__(self):
        total = float(np.sum(self.norm_w))
        if not np.isclose(total, 1.0, rtol=0.0, atol=1e-12):
            raise DegenerateWeightsError(f"particle posterior sums to {total}, not 1")

    @property
    def size(self) -> int:
        return self.samples.shape[0]

    @property
    def ess(self) -> float:
        """Effective sample size 1 / sum(norm_w^2), in [1, N]."""
        return float(1.0 / np.sum(self.norm_w**2))


@dataclass(frozen=True)
class UpdateRule:
    """Which M-step variant runs, with its hyperparameters."""

    kind: str  # "closed_form" | "map_smoothed" | "gradient"
    gamma: float | None = None
    alpha: float | None = None
    k: int | None = None

    def __post_init__(self):
        if self.kind == "closed_form":
            return
        if self.kind == "map_smoothed":
            if self.gamma is None or not 0.0 < self.gamma <= 1.0:
                raise ConfigError(
                    f"update.gamma must lie in (0, 1], got {self.gamma}"
                )
            return
        if self.kind == "gradient":
            if self.alpha is None or not self.alpha > 0.0:
                raise ConfigError(f"update.alpha must be > 0, got {self.alpha}")
            if self.k is None or self.k < 1:
                raise ConfigError(f"update.k must be >= 1, got {self.k}")
            return
        raise ConfigError(
            f"unknown update kind {self.kind!r}; valid: closed_form, "
            "map_smoothed, gradient"
        )

    def prior_lambda(self, theta_prev: ExpectationParams):
        """Conjugate-prior parameters implied by gamma for this iteration:
        lambda2 = 1/gamma - 1 and lambda1 = lambda2 * theta_prev."""
        lam2 = 1.0 / self.gamma - 1.0
        return lam2 * theta_prev.values, lam2


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration summary.

    ``theta`` is the post-update parameter vector; ``best_raw_f`` the
    generation max; ``weighted_mean_shaped_f`` the particle-posterior mean
    of the shaped values; ``free_energy_estimate`` the sampled free-energy
    surrogate (entropy of the normalized weights stands in for H[q]);
    ``free_energy_map`` additionally includes the unnormalized log-prior
    and is set only in MAP mode.
    """

    iteration: int
    theta: ExpectationParams
    best_raw_f: float
    mean_raw_f: float
    weighted_mean_shaped_f: float
    free_energy_estimate: float
    ess: float
    free_energy_map: Optional[float] = None


@dataclass(frozen=True)
class Trace:
    records: list
    final_model: SearchModel

    @property
    def best_raw_f(self) -> float:
        """Best raw value over the records; -inf for a run aborted at iteration 0."""
        return max((r.best_raw_f for r in self.records), default=-math.inf)


def e_step(
    model: SearchModel,
    objective: objectives_mod.Objective,
    shaping_spec: shaping_mod.ShapingSpec,
    n: int,
    seed: int,
) -> Population:
    """Sample a generation, evaluate, shape, and normalize the weights."""
    if n < 2:
        raise ValueError("generation size n must be >= 2")
    Z = model.sample(n, seed)
    raw = objectives_mod.evaluate_batch(objective, Z)
    bad = np.nonzero(~np.isfinite(raw))[0]
    if bad.size:
        idx = int(bad[0])
        raise ObjectiveError(
            f"objective {objective.name!r} returned {raw[idx]} at sample index {idx}",
            index=idx,
        )
    w = shaping_mod.shape(shaping_spec, raw)
    norm = w / w.sum()
    return Population(
        samples=Z,
        raw_f=raw,
        shaped_w=w,
        norm_w=norm,
        log_w_shift=shaping_mod.log_shift(shaping_spec, raw),
    )


def m_step_closed_form(pop: Population, model: SearchModel) -> ExpectationParams:
    """Weighted maximum-likelihood refit: the weighted mean of sufficient
    statistics, followed by family repair."""
    total = float(pop.shaped_w.sum())
    if not total > 0.0:
        raise DegenerateWeightsError("sum of shaped weights must be positive")
    theta = model.weighted_stats(pop.samples, pop.shaped_w) / total
    try:
        return model.with_params(theta).params
    except DegenerateModelError as exc:
        raise DegenerateUpdateError(f"closed-form update not repairable: {exc}") from exc


def m_step_map(
    theta_prev: ExpectationParams, theta_tilde: ExpectationParams, gamma: float
) -> ExpectationParams:
    """Smoothed update (1 - gamma) * theta_prev + gamma * theta_tilde.

    With the conjugate prior at lambda2 = 1/gamma - 1, lambda1 = lambda2 *
    theta_prev, this convex combination is the exact maximizer of the MAP
    refit objective; gamma = 1 returns theta_tilde unchanged.  A convex
    combination of valid expectation parameters is valid in every family,
    so no repair runs here; ``run`` repairs the result with the model's own
    floors.
    """
    if not 0.0 < gamma <= 1.0:
        raise ConfigError(f"gamma must lie in (0, 1], got {gamma}")
    if theta_prev.family_tag != theta_tilde.family_tag:
        raise FamilyMismatchError(
            f"cannot smooth {theta_tilde.family_tag!r} with {theta_prev.family_tag!r}"
        )
    combo = (1.0 - gamma) * theta_prev.values + gamma * theta_tilde.values
    return ExpectationParams(combo, theta_prev.family_tag)


def m_step_gradient(
    pop: Population,
    model: SearchModel,
    alpha: float,
    k: int,
    max_consecutive_projections: int = DEFAULT_MAX_CONSECUTIVE_PROJECTIONS,
) -> ExpectationParams:
    """k ascent steps of size alpha on sum_i w_i log p(z_i | theta).

    Gradients are recomputed at the current iterate; after each step the
    parameters are projected back onto the valid domain (floors / PSD).
    Projection firing more than ``max_consecutive_projections`` times in a
    row raises :class:`StepSizeError`, a hint that alpha is too large.
    """
    if alpha <= 0.0:
        raise ConfigError(f"alpha must be > 0, got {alpha}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    current = model
    consecutive = 0
    for _ in range(k):
        scores = current._score_batch(pop.samples)
        grad = pop.shaped_w @ scores
        proposed = current.params.values + alpha * grad
        try:
            projected = current.with_params(proposed)
        except DegenerateModelError as exc:
            raise DegenerateUpdateError(
                f"gradient update not repairable: {exc}"
            ) from exc
        if np.array_equal(projected.params.values, proposed):
            consecutive = 0
        else:
            consecutive += 1
            if consecutive > max_consecutive_projections:
                raise StepSizeError(
                    f"projection fired {consecutive} times in a row; "
                    f"step size alpha={alpha} is likely too large"
                )
        current = projected
    return current.params


def _free_energy(pop: Population, next_model: SearchModel) -> float:
    """F-hat = sum_i q_i [log p(z_i|theta') + log(w_i * shift)] + H[q],
    with H[q] the discrete entropy of the normalized particle weights and
    0 log 0 = 0.  A diagnostic surrogate: q is an atom mixture, so its
    differential entropy is undefined."""
    q = pop.norm_w
    act = q > 0.0
    logp = next_model.log_density_batch(pop.samples[act])
    logw = np.log(pop.shaped_w[act]) + pop.log_w_shift
    entropy = -float(np.sum(q[act] * np.log(q[act])))
    return float(np.sum(q[act] * (logp + logw)) + entropy)


def _log_prior(model: SearchModel, lam1: np.ndarray, lam2: float) -> float:
    """Unnormalized conjugate log-prior lambda1 . eta(theta) - lambda2 *
    A(theta); the prior's own log-partition is constant in theta and
    dropped."""
    return float(lam1 @ model.natural_params() - lam2 * model.log_partition())


def run(config) -> Trace:
    """Execute ``config.iterations`` rounds of e_step + the configured
    M-step, recording one :class:`IterationRecord` per iteration.

    Any step error aborts with :class:`RunAbortedError` carrying the trace
    accumulated so far.  Supports optional early stopping when the best raw
    value has not improved for ``config.early_stop_window`` iterations.
    """
    model = config.model
    rule = config.rule
    records: list = []
    seeds = np.random.SeedSequence(config.seed).generate_state(
        config.iterations, dtype=np.uint64
    )
    best_so_far = -np.inf
    stale = 0
    try:
        for t in range(config.iterations):
            pop = e_step(
                model, config.objective, config.shaping, config.n_samples, int(seeds[t])
            )
            theta_prev = model.params
            if rule.kind == "closed_form":
                theta_next = m_step_closed_form(pop, model)
            elif rule.kind == "map_smoothed":
                theta_tilde = m_step_closed_form(pop, model)
                theta_next = m_step_map(theta_prev, theta_tilde, rule.gamma)
            else:
                theta_next = m_step_gradient(pop, model, rule.alpha, rule.k)
            next_model = model.with_params(theta_next)

            fe = _free_energy(pop, next_model)
            fe_map = None
            if rule.kind == "map_smoothed":
                lam1, lam2 = rule.prior_lambda(theta_prev)
                fe_map = fe + _log_prior(next_model, lam1, lam2)

            best = float(pop.raw_f.max())
            records.append(
                IterationRecord(
                    iteration=t,
                    theta=next_model.params,
                    best_raw_f=best,
                    mean_raw_f=float(pop.raw_f.mean()),
                    weighted_mean_shaped_f=float(pop.norm_w @ pop.shaped_w),
                    free_energy_estimate=fe,
                    ess=pop.ess,
                    free_energy_map=fe_map,
                )
            )
            model = next_model

            if best > best_so_far:
                best_so_far = best
                stale = 0
            else:
                stale += 1
            window = getattr(config, "early_stop_window", None)
            if window is not None and stale >= window:
                break
    except (
        DegenerateWeightsError,
        DegenerateUpdateError,
        DegenerateModelError,
        ObjectiveError,
        StepSizeError,
    ) as exc:
        raise RunAbortedError(
            f"run aborted at iteration {len(records)}: {exc}",
            trace=Trace(records=records, final_model=model),
        ) from exc
    return Trace(records=records, final_model=model)
