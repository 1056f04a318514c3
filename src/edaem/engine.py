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

The M-steps return unrepaired parameters; ``run`` builds the next model
from them once, which applies the fixed probability floor or covariance
jitter of the family (``models.PROB_FLOOR``, ``EIG_FLOOR``, ``JITTER_SCALE``).
Each generation is checked once, when the M-step passes it to the model;
the E-step only compares the model's domain with the objective's.
The free-energy diagnostic needs E_q[log p(z|theta')], which in an
exponential family depends on q only through E_q[T(z)]: the unrepaired
weighted-mean refit theta_tilde.  It takes theta_tilde from the M-step and
hands it to the model's unchecked ``_mean_log_density`` kernel, which the
discrete families answer in closed form without another pass over the
generation.

Runs are deterministic given the seed for a fixed BLAS library and thread
count: per-iteration sampling seeds derive from a fixed SeedSequence, and
the weighted sums go through BLAS, whose summation order may change with
the library or the number of threads.
"""

from __future__ import annotations

import math
import numbers
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
    DomainError,
    FamilyMismatchError,
    ObjectiveError,
    RunAbortedError,
    StepSizeError,
)
from .models import ExpectationParams, SearchModel

# Gradient projections allowed in a row before StepSizeError.
MAX_CONSECUTIVE_PROJECTIONS = 20


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
        if not abs(total - 1.0) <= 1e-12:
            raise DegenerateWeightsError(f"particle posterior sums to {total}, not 1")

    @property
    def size(self) -> int:
        return self.samples.shape[0]

    @property
    def ess(self) -> float:
        """Effective sample size 1 / sum(norm_w^2), in [1, N]."""
        return float(1.0 / np.sum(self.norm_w**2))


# The hyperparameters each update kind takes.
_RULE_PARAMS = {"closed_form": (), "map_smoothed": ("gamma",), "gradient": ("alpha", "k")}


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class UpdateRule:
    """Which M-step variant runs, with its hyperparameters.  The one update
    schema: kind, allowed parameters, types and ranges are checked here."""

    kind: str  # "closed_form" | "map_smoothed" | "gradient"
    gamma: float | None = None
    alpha: float | None = None
    k: int | None = None

    def __post_init__(self):
        takes = _RULE_PARAMS.get(self.kind) if isinstance(self.kind, str) else None
        if takes is None:
            raise ConfigError(
                f"update.kind must be one of {', '.join(_RULE_PARAMS)}; got {self.kind!r}"
            )
        extra = [
            f for f in ("gamma", "alpha", "k") if f not in takes and getattr(self, f) is not None
        ]
        if extra:
            allowed = f"only {', '.join(takes)}" if takes else "no parameters"
            raise ConfigError(f"{self.kind} update takes {allowed}, got {extra}")
        if self.kind == "map_smoothed":
            if not (_is_real(self.gamma) and 0.0 < self.gamma <= 1.0):
                raise ConfigError(f"update.gamma must be a number in (0, 1], got {self.gamma!r}")
        elif self.kind == "gradient":
            if not (_is_real(self.alpha) and self.alpha > 0.0):
                raise ConfigError(f"update.alpha must be a number > 0, got {self.alpha!r}")
            if not (isinstance(self.k, numbers.Integral) and _is_real(self.k) and self.k >= 1):
                raise ConfigError(f"update.k must be an integer >= 1, got {self.k!r}")

    def prior_lambda(self, theta_prev: ExpectationParams):
        """Conjugate-prior parameters implied by gamma for this iteration:
        lambda2 = 1/gamma - 1 and lambda1 = lambda2 * theta_prev."""
        lam2 = 1.0 / self.gamma - 1.0
        return lam2 * theta_prev.values, lam2


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration summary.

    ``best_raw_f`` is the generation max; ``weighted_mean_shaped_f`` the
    particle-posterior mean of the shaped values; ``free_energy_estimate``
    the sampled free-energy surrogate (entropy of the normalized weights
    stands in for H[q]); ``free_energy_map`` additionally includes the
    unnormalized log-prior and is set only in MAP mode.  Only the final
    parameters are kept, in :attr:`Trace.final_model`.
    """

    iteration: int
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
    """Sample a generation, evaluate, shape, and normalize the weights.
    The model must share the objective's domain; its samples then go to
    ``batch_eval`` unscanned."""
    if n < 2:
        raise ValueError("generation size n must be >= 2")
    if model.domain != objective.domain:
        raise DomainError(
            f"{model.family_tag!r} samples {model.domain}; objective "
            f"{objective.name!r} takes {objective.domain}"
        )
    Z = model.sample(n, seed)
    raw = np.asarray(objective.batch_eval(Z), dtype=np.float64).reshape(n)
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
    statistics, unrepaired (it may sit past a family floor)."""
    total = float(pop.shaped_w.sum())
    if not total > 0.0:
        raise DegenerateWeightsError("sum of shaped weights must be positive")
    return ExpectationParams(
        model.weighted_stats(pop.samples, pop.shaped_w) / total, model.family_tag
    )


def m_step_map(
    theta_prev: ExpectationParams, theta_tilde: ExpectationParams, gamma: float
) -> ExpectationParams:
    """Smoothed update (1 - gamma) * theta_prev + gamma * theta_tilde.

    With the conjugate prior at lambda2 = 1/gamma - 1, lambda1 = lambda2 *
    theta_prev and theta_tilde the unrepaired weighted mean, this convex
    combination is (lambda1 + sum_i w_i T(z_i)) / (lambda2 + sum_i w_i),
    the exact maximizer of the MAP refit objective; gamma = 1 returns
    theta_tilde unchanged.  ``run`` repairs the result once.
    """
    UpdateRule("map_smoothed", gamma=gamma)
    if theta_prev.family_tag != theta_tilde.family_tag:
        raise FamilyMismatchError(
            f"cannot smooth {theta_tilde.family_tag!r} with {theta_prev.family_tag!r}"
        )
    combo = (1.0 - gamma) * theta_prev.values + gamma * theta_tilde.values
    return ExpectationParams(combo, theta_prev.family_tag)


def m_step_gradient(
    pop: Population, model: SearchModel, alpha: float, k: int
) -> ExpectationParams:
    """k ascent steps of size alpha on sum_i w_i log p(z_i | theta).

    Gradients are recomputed at the current iterate.  Between steps the
    parameters are projected back onto the valid domain (floors / PSD);
    the last step's proposal is returned unrepaired, like the other
    M-steps, and ``run`` repairs it once.  Projection firing more than
    ``MAX_CONSECUTIVE_PROJECTIONS`` times in a row raises
    :class:`StepSizeError`, a hint that alpha is too large.
    """
    UpdateRule("gradient", alpha=alpha, k=k)
    Z = model._as_batch(pop.samples)
    current = model
    consecutive = 0
    for step in range(k):
        if step:  # project the previous step's proposal
            current = current.with_params(theta)
            fired = not np.array_equal(current.params.values, theta)
            consecutive = consecutive + 1 if fired else 0
            if consecutive > MAX_CONSECUTIVE_PROJECTIONS:
                raise StepSizeError(
                    f"projection fired {consecutive} times in a row; "
                    f"step size alpha={alpha} is likely too large"
                )
        grad = pop.shaped_w @ current._score_batch(Z)
        theta = current.params.values + alpha * grad
    return ExpectationParams(theta, model.family_tag)


def _free_energy(
    pop: Population, next_model: SearchModel, theta_tilde: ExpectationParams
) -> float:
    """F-hat = sum_i q_i [log p(z_i|theta') + log(w_i * shift)] + H[q],
    with H[q] the discrete entropy of the normalized particle weights and
    0 log 0 = 0.  A diagnostic surrogate: q is an atom mixture, so its
    differential entropy is undefined.

    ``theta_tilde`` is the unrepaired weighted-mean refit sum_i q_i T(z_i)
    of this generation; the first term reads it through
    ``next_model._mean_log_density``.  The samples are not re-checked: the
    M-step that produced ``next_model`` has just checked them."""
    q = pop.norm_w
    act = q > 0.0
    mean_logp = next_model._mean_log_density(pop.samples, q, theta_tilde.values)
    logw = np.log(pop.shaped_w[act]) + pop.log_w_shift
    entropy = -float(np.sum(q[act] * np.log(q[act])))
    return mean_logp + float(np.sum(q[act] * logw)) + entropy


def _log_prior(model: SearchModel, lam1: np.ndarray, lam2: float) -> float:
    """Unnormalized conjugate log-prior lambda1 . eta(theta) - lambda2 *
    A(theta); the prior's own log-partition is constant in theta and
    dropped."""
    return float(lam1 @ model.natural_params() - lam2 * model.log_partition())


def run(config) -> Trace:
    """Execute ``config.iterations`` rounds of e_step + the configured
    M-step, recording one :class:`IterationRecord` per iteration.

    The next model is built (and repaired) once per iteration; an
    unrepairable update raises :class:`DegenerateUpdateError`.  Any step
    error aborts with :class:`RunAbortedError` carrying the trace
    accumulated so far.  Supports optional early stopping when the best raw
    value has not improved for ``config.early_stop_window`` iterations.
    """
    model = config.model
    rule = config.rule
    window = config.early_stop_window
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
            try:
                if rule.kind == "gradient":
                    theta_next = m_step_gradient(pop, model, rule.alpha, rule.k)
                    # The gradient M-step has checked these samples.
                    total = float(pop.shaped_w.sum())
                    theta_tilde = ExpectationParams(
                        model._weighted_stats(pop.samples, pop.shaped_w) / total,
                        model.family_tag,
                    )
                else:
                    theta_next = theta_tilde = m_step_closed_form(pop, model)
                    if rule.kind == "map_smoothed":
                        theta_prev = model.params
                        theta_next = m_step_map(theta_prev, theta_tilde, rule.gamma)
                next_model = model.with_params(theta_next)
            except DegenerateModelError as exc:
                raise DegenerateUpdateError(
                    f"{rule.kind} update not repairable: {exc}"
                ) from exc

            fe = _free_energy(pop, next_model, theta_tilde)
            fe_map = None
            if rule.kind == "map_smoothed":
                lam1, lam2 = rule.prior_lambda(theta_prev)
                fe_map = fe + _log_prior(next_model, lam1, lam2)

            best = float(pop.raw_f.max())
            records.append(
                IterationRecord(
                    iteration=t,
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
            if window is not None and stale >= window:
                break
    except (
        DegenerateWeightsError,
        DegenerateUpdateError,
        ObjectiveError,
        StepSizeError,
    ) as exc:
        raise RunAbortedError(
            f"run aborted at iteration {len(records)}: {exc}",
            trace=Trace(records=records, final_model=model),
        ) from exc
    return Trace(records=records, final_model=model)
