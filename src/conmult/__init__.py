"""Bayesian checking of constrained multinomial models and their priors."""

__version__ = "0.1.0"

from .core import (
    CountVector,
    DirichletParams,
    OrderedCone,
    QuadBall,
    SimplexPoint,
    TrineEllipse,
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
    "__version__",
]
