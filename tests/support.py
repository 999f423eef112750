"""Shared helpers for the test suite."""

import numpy as np


def symplectic_form(n: int) -> np.ndarray:
    """Block form J = [[0, I], [-I, 0]] matching the (x..., p...) ordering."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j
