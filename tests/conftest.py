import numpy as np
import pytest

# click counts from the two interferometer experiments
TRINE_SYMMETRIC = np.array([3416, 1912, 1748])
TRINE_ASYMMETRIC = np.array([6192, 316, 248])
TRINE_ASYMMETRIC_A = 0.48445

# fly-diversity abundance counts (18 species, n = 363)
FLY_COUNTS = np.array([145, 96, 35, 29, 20, 11, 4, 4, 4, 3, 3, 2, 2, 1, 1, 1, 1, 1])
FLY_COUNTS_PERMUTED = np.array([35, 29, 20, 145, 96, 11, 4, 4, 4, 3, 3, 2, 2, 1, 1, 1, 1, 1])

FLY_ELICITATION = {"l": 1.0 / 450.0, "u": 0.5, "gamma": 0.99, "delta": 0.0}


def same_bits(x, y):
    """True when x and y have the same shape and the same float64 bit patterns.

    Unlike ``==`` this tells -0.0 from 0.0 and matches NaN with itself.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
