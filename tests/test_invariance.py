"""Whole-run invariances of the construction.

The ``quantile``, ``rank`` and ``cdf`` shapings read only the order of the
objective values.  So a run on g(f), with g strictly increasing on the
values the run sees, makes the same weights, refits and theta trajectory as
the run on f, bit for bit (IGO's invariance under monotone transformations
of the objective; Ollivier, Arnold, Auger and Hansen, JMLR 2017).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edaem import objectives, shaping
from edaem.engine import UpdateRule, run
from edaem.models import BernoulliProductModel, GaussianModel

# Strictly increasing maps, each on the floats of the runs below: an affine
# map, an exact power-of-two scale that brings unit gaps under 1e-12, and two
# nonlinear ones.  A generation on which one breaks a strict order (tanh may
# round two values to one) is left out by ``assume``.
_TRANSFORMS = {
    "3.5f-7": lambda f: 3.5 * f - 7.0,
    "2^-40 f": lambda f: f * 2.0**-40,
    "tanh(f/1000)": lambda f: np.tanh(f / 1000.0),
    "f^3+e^(f/50)": lambda f: f**3 + np.exp(f / 50.0),
}

_FAMILIES = {
    "bernoulli": (lambda: BernoulliProductModel(np.full(12, 0.5)),
                  (objectives.onemax(12), objectives.leadingones(12))),
    "gaussian": (lambda: GaussianModel.from_mean_cov(np.full(3, 0.5), np.eye(3)),
                 (objectives.sphere_max(3), objectives.rastrigin_max(3))),
}


def _keeps_order(f: np.ndarray, g: np.ndarray) -> bool:
    """Whether g orders the values as f does, ties and strict steps alike."""
    o = np.argsort(f, kind="stable")
    return bool(np.isfinite(g).all()
                and np.array_equal(np.sign(np.diff(f[o])), np.sign(np.diff(g[o]))))


def _composed(base: objectives.Objective, g, kept: list) -> objectives.Objective:
    def _eval(Z):
        f = np.asarray(base.batch_eval(Z), dtype=np.float64)
        out = g(f)
        kept.append(_keeps_order(f, out))
        return out

    return objectives.Objective(name=f"g({base.name})", domain=base.domain, batch_eval=_eval)


def _run(family: str, objective, shaping_text: str, rule: UpdateRule, seed: int):
    return run(SimpleNamespace(
        model=_FAMILIES[family][0](), objective=objective,
        shaping=shaping.ShapingSpec.parse(shaping_text), rule=rule,
        n_samples=30, iterations=6, seed=seed, early_stop_window=None))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from(sorted(_FAMILIES)),
    which=st.integers(0, 1),
    shaping_text=st.sampled_from(["quantile:0.3", "rank", "cdf:0.6"]),
    rule=st.sampled_from([UpdateRule("closed_form"), UpdateRule("map_smoothed", gamma=0.6)]),
    g_name=st.sampled_from(sorted(_TRANSFORMS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_run_on_a_monotone_transform_of_f_is_the_run_on_f(family, which, shaping_text,
                                                            rule, g_name, seed):
    base = _FAMILIES[family][1][which]
    kept: list = []
    got = _run(family, _composed(base, _TRANSFORMS[g_name], kept), shaping_text, rule, seed)
    assume(all(kept))
    ref = _run(family, base, shaping_text, rule, seed)
    assert len(got.records) == len(ref.records) == 6

    def reading(trace):
        return [(r.weighted_mean_shaped_f, r.free_energy_estimate, r.ess, r.free_energy_map)
                for r in trace.records]

    assert reading(got) == reading(ref)
    assert got.final_model.params.values.tobytes() == ref.final_model.params.values.tobytes()
