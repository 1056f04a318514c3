"""Shipped diagnostic fixtures: small enumerable problems with the search
model they start from, used by the diagnostics CLI and the acceptance
suite.

Each fixture bundles an initial model, an objective on a binary or
categorical domain (its space is enumerated from that objective), and the
checks it runs, in report order.  Every fixture runs EM monotonicity and
the free-energy bound.  The proximal-point grid search runs on binary
spaces with d <= 3, the NGD comparison where f > 0 everywhere, and the
sampled-refit convergence check with an error bound calibrated once by a
pilot run of the oracle's fixed plan (``oracle.MC_N_LIST`` and
``oracle.MC_SEEDS``: 20 seeds, N up to 1e5; bound set at roughly twice
the observed mean error).  A check looks its ``oracle.verify_*`` function
up when it runs, so a wrapper installed on the oracle module sees every
check; the fixture stamps its name on each report.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import oracle
from .errors import ConfigError
from .models import BernoulliProductModel, CategoricalProductModel, SearchModel, _row_blocks
from .objectives import Domain, Objective, trap

# Calibrated by pilot: mean over 20 seeds of ||theta_N - exact|| at N=1e5
# came out at 2.49e-3 for the d=2 fixture; bound frozen at twice that.
MC_ERROR_BOUND_BERN2_ONEMAX1 = 5e-3


@dataclass(frozen=True)
class Fixture:
    name: str
    model: SearchModel
    objective: Objective
    checks: tuple[Callable[["Fixture"], oracle.CheckReport], ...]

    @functools.cached_property
    def space(self) -> oracle.EnumerableSpace:
        return oracle.EnumerableSpace.build(self.objective.domain, self.objective.batch_eval)

    def reports(self) -> list[oracle.CheckReport]:
        """Run the checks in report order, each report stamped with this
        fixture's name."""
        return [replace(check(self), fixture=self.name) for check in self.checks]


def _ppm(grid_step: float):
    return lambda fx: oracle.verify_ppm_equivalence(fx.model, fx.space, grid_step)


def _ngd(fx: Fixture) -> oracle.CheckReport:
    return oracle.verify_ngd_correspondence(fx.model, fx.space)


def _mc(error_bound: float):
    return lambda fx: oracle.verify_mc_convergence(fx.model, fx.space, fx.objective, error_bound)


def _em(fx: Fixture) -> oracle.CheckReport:
    return oracle.verify_em_monotonicity(fx.model, fx.space)


def _free_energy(fx: Fixture) -> oracle.CheckReport:
    return oracle.verify_free_energy_bound(fx.model, fx.space, seed=0)


def _binary_objective(name: str, dim: int, batch_eval) -> Objective:
    return Objective(name=name, domain=Domain("binary", dim), batch_eval=batch_eval)


def _affine_bit() -> Fixture:
    # d=1, f(0)=1, f(1)=3: the worked single-bit example where every exact
    # quantity is hand-checkable (L = log 2, refit lands at 0.75).
    obj = _binary_objective(
        "affine_bits:1", 1, lambda Z: 1.0 + 2.0 * np.asarray(Z, dtype=np.float64)[:, 0]
    )
    model = BernoulliProductModel([0.5])
    return Fixture("bern1_f13", model, obj, (_ppm(1e-3), _ngd, _em, _free_energy))


def _onemax_plus_one(dim: int, *checks) -> Fixture:
    def _eval(Z):
        # Casts one block of rows at a time, with no (n, dim) float64 copy
        # of the generation; every value is a small integer, so the sums
        # equal 1.0 + Z.astype(float64) @ ones bit for bit.
        Z = np.asarray(Z)
        ones, out = np.ones(dim), np.empty(Z.shape[0])
        for rows, block in _row_blocks(*Z.shape):
            np.copyto(block, Z[rows])
            np.matmul(block, ones, out=out[rows])
        out += 1.0
        return out

    obj = _binary_objective(f"onemax_plus_one:{dim}", dim, _eval)
    return Fixture(f"bern{dim}_onemax1", BernoulliProductModel(np.full(dim, 0.5)), obj, checks)


def _constant() -> Fixture:
    obj = _binary_objective(
        "constant_two:2", 2, lambda Z: np.full(np.asarray(Z).shape[0], 2.0)
    )
    model = BernoulliProductModel([0.3, 0.7])
    return Fixture("bern2_const", model, obj, (_ppm(1e-3), _ngd, _em, _free_energy))


def _deceptive_trap() -> Fixture:
    # One 3-bit trap block, started off the uniform saddle and biased into
    # the deceptive basin; exact EM must still improve L monotonically.
    # No NGD row, since trap has f = 0 states; the PPM grid is coarser for
    # 3 coordinates, and its tolerance scales with it.
    model = BernoulliProductModel([0.4, 0.4, 0.4])
    return Fixture("bern3_trap", model, trap(3, 1), (_ppm(0.02), _em, _free_energy))


def _categorical_sites() -> Fixture:
    def _eval(Z):
        Z = np.asarray(Z, dtype=np.float64)
        return 1.0 + Z[:, 0] + 2.0 * Z[:, 1]

    obj = Objective(
        name="affine_sites:2x3", domain=Domain("categorical", 2, arity=3), batch_eval=_eval
    )
    model = CategoricalProductModel(np.full((2, 3), 1.0 / 3.0))
    return Fixture("cat2x3_affine", model, obj, (_ngd, _em, _free_energy))


def default_fixtures() -> list[Fixture]:
    return [
        _affine_bit(),
        _onemax_plus_one(
            2, _ppm(1e-3), _ngd, _mc(MC_ERROR_BOUND_BERN2_ONEMAX1), _em, _free_energy
        ),
        _onemax_plus_one(3, _ppm(0.02), _ngd, _em, _free_energy),
        _constant(),
        _deceptive_trap(),
        _categorical_sites(),
    ]


FIXTURE_SETS = {"default": default_fixtures}


def load_fixture_set(name: str) -> list[Fixture]:
    try:
        builder = FIXTURE_SETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown fixture set {name!r}; available: {sorted(FIXTURE_SETS)}"
        ) from None
    return builder()
