"""Bayesian checking of constrained multinomial models and their priors."""

__version__ = "0.1.0"

from .core import (
    CountVector,
    DirichletParams,
    MeasureZeroRegionError,
    OrderedCone,
    QuadBall,
    SimplexPoint,
    TrineEllipse,
    ZmParams,
    kl_divergence,
    log_multinomial_pmf,
    ordered_from_weights,
    region_contains,
    trine_prior_mass,
    weights_from_ordered,
    zm_distribution,
)
from .sampling import (
    RngStream,
    sample_dirichlet,
    sample_multinomial,
    sample_ordered_prior,
    sample_trine_prior,
)

__all__ = [
    "CountVector",
    "DirichletParams",
    "MeasureZeroRegionError",
    "OrderedCone",
    "QuadBall",
    "RngStream",
    "SimplexPoint",
    "TrineEllipse",
    "ZmParams",
    "kl_divergence",
    "log_multinomial_pmf",
    "ordered_from_weights",
    "region_contains",
    "sample_dirichlet",
    "sample_multinomial",
    "sample_ordered_prior",
    "sample_trine_prior",
    "trine_prior_mass",
    "weights_from_ordered",
    "zm_distribution",
    "__version__",
]
