"""edaem: estimation-of-distribution optimizers built as Monte-Carlo EM.

The library samples an exponential-family search distribution, weights the
generation by shaped objective values, and refits the distribution by a
weighted mean of sufficient statistics -- optionally smoothed through a
conjugate-prior MAP refit, or replaced by k score-function gradient steps.
An exact-enumeration oracle verifies the identities this construction
rests on (free-energy bound, proximal-point and natural-gradient
equivalences, exact-EM monotonicity) on desk-scale problems.
"""

from .config import RunConfig
from .engine import (
    IterationRecord,
    Population,
    Trace,
    UpdateRule,
    e_step,
    m_step_closed_form,
    m_step_gradient,
    m_step_map,
    run,
)
from .errors import EdaemError
from .models import (
    BernoulliProductModel,
    CategoricalProductModel,
    ExpectationParams,
    GaussianModel,
    SearchModel,
)
from .objectives import Objective, parse_objective
from .oracle import EnumerableSpace, Exact
from .shaping import ShapingSpec, shape

__version__ = "0.1.0"

__all__ = [
    "BernoulliProductModel",
    "CategoricalProductModel",
    "EdaemError",
    "EnumerableSpace",
    "Exact",
    "ExpectationParams",
    "GaussianModel",
    "IterationRecord",
    "Objective",
    "Population",
    "RunConfig",
    "SearchModel",
    "ShapingSpec",
    "Trace",
    "UpdateRule",
    "e_step",
    "m_step_closed_form",
    "m_step_gradient",
    "m_step_map",
    "parse_objective",
    "run",
    "shape",
    "__version__",
]
