"""Bayesian checking of constrained multinomial models and their priors."""

__version__ = "0.1.0"

from .core import (
    CountVector,
    DirichletParams,
    OrderedCone,
    QuadBall,
    SimplexPoint,
    TrineEllipse,
    trine_prior_mass,
)
from .sampling import RngStream

__all__ = [
    "CountVector",
    "DirichletParams",
    "OrderedCone",
    "QuadBall",
    "RngStream",
    "SimplexPoint",
    "TrineEllipse",
    "trine_prior_mass",
    "__version__",
]
