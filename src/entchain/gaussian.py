"""Time-dependent Gaussian state of the chain and its covariance matrix.

After the quench the exact N-body wavefunction stays Gaussian:

    psi(x, t) ~ exp(i x.T B x) * exp(-x.T W x / 2),

with real symmetric matrices built in the shared mode basis U (rows are
mode vectors):

    W = U.T diag(sqrt(lam_j(0)) / b_j(t)**2) U      ("omega" below)
    B = U.T diag(b_j'(t) / (2 b_j(t))) U            ("btilde" below)

Mode phases exp(-i E_j tau_j) with tau_j = integral dt / b_j**2 are pure
bookkeeping: they multiply the state by unimodular factors and never
enter any reduced density matrix or entropy.

The same state in covariance language, ordering (x_1..x_N, p_1..p_N):

    <x x.T>               = W^-1 / 2
    sym <x p.T>           = W^-1 B
    <p p.T>               = (W + 4 B W^-1 B) / 2

which at t = 0 reduces to diag(W^-1, W)/2.  The cross-block sign follows
the positive-exponent phase convention above and is pinned against the
independently propagated covariance oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import NormalModes, QuenchModes
from .ermakov import ModeSolution
from .errors import NumericsError


@dataclass(frozen=True)
class GaussianState:
    """Pure Gaussian state: quadratic-form matrices plus phase bookkeeping.

    ``omega`` is the real width matrix W, ``btilde`` the phase-curvature
    matrix B.  ``energies`` holds the per-mode ground-state energies
    E_j = sqrt(lam_j(0)) / 2, which affect no observable computed here.
    """

    omega: np.ndarray
    btilde: np.ndarray
    energies: np.ndarray
    time: float

    @property
    def n(self) -> int:
        return self.omega.shape[0]


def mode_matrices(u: np.ndarray, lam0: np.ndarray, b: np.ndarray, bdot: np.ndarray):
    """(W, B) from mode data: U.T diag(...) U with the rows-as-modes U."""
    w_diag = np.sqrt(lam0) / b**2
    c_diag = bdot / (2.0 * b)
    omega = u.T @ (w_diag[:, None] * u)
    btilde = u.T @ (c_diag[:, None] * u)
    return 0.5 * (omega + omega.T), 0.5 * (btilde + btilde.T)


def assemble_state(
    modes: NormalModes | QuenchModes,
    solutions: list[ModeSolution],
    t: float,
) -> GaussianState:
    """Build the state at time t from pre-quench modes and their scale factors."""
    if isinstance(modes, QuenchModes):
        modes = modes.pre()
    if len(solutions) != modes.n:
        raise ValueError(f"need {modes.n} mode solutions, got {len(solutions)}")
    if t < 0:
        raise ValueError("t must be non-negative")
    pairs = [sol.evaluate(t) for sol in solutions]
    b = np.array([p[0] for p in pairs])
    bdot = np.array([p[1] for p in pairs])
    omega, btilde = mode_matrices(modes.matrix, modes.lam, b, bdot)
    return GaussianState(
        omega=omega,
        btilde=btilde,
        energies=0.5 * np.sqrt(modes.lam),
        time=float(t),
    )


def to_covariance(state: GaussianState) -> np.ndarray:
    """Symmetrized covariance matrix of the state, (x..., p...) ordering."""
    w, vecs = np.linalg.eigh(state.omega)
    if w.min() <= 0:
        raise NumericsError(
            f"width matrix must be positive-definite, got eigenvalue {w.min():.3e}"
        )
    inv = vecs @ ((1.0 / w)[:, None] * vecs.T)
    xx = 0.5 * inv
    xp = inv @ state.btilde
    pp = 0.5 * (state.omega + 4.0 * state.btilde @ inv @ state.btilde)
    n = state.n
    sigma = np.empty((2 * n, 2 * n))
    sigma[:n, :n] = xx
    sigma[:n, n:] = xp
    sigma[n:, :n] = xp.T
    sigma[n:, n:] = pp
    return 0.5 * (sigma + sigma.T)


def symplectic_form(n: int) -> np.ndarray:
    """Block form J = [[0, I], [-I, 0]] matching the (x..., p...) ordering."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def symplectic_eigenvalues(sigma: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, ascending.

    Computed as the positive spectrum of the Hermitian matrix
    i sigma^(1/2) J sigma^(1/2), which is similar to i J sigma but keeps
    the eigenproblem symmetric.  A pure state gives all values 1/2.

    ``sigma`` may be one (2m, 2m) matrix or a stack (..., 2m, 2m); the
    result has shape (..., m), and each matrix of a stack gets the same
    values as a call on that matrix alone.  One matrix that is not
    positive-definite fails the whole call.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim < 2 or sigma.shape[-1] != sigma.shape[-2] or sigma.shape[-1] % 2:
        raise ValueError("covariance matrix must be square with even dimension")
    n = sigma.shape[-1] // 2
    w, vecs = np.linalg.eigh(0.5 * (sigma + sigma.swapaxes(-1, -2)))
    if w.size and w.min() <= 0:
        raise NumericsError(
            f"covariance matrix must be positive-definite, got eigenvalue {w.min():.3e}"
        )
    root = vecs @ (np.sqrt(w)[..., :, None] * vecs.swapaxes(-1, -2))
    herm = 1j * (root @ symplectic_form(n) @ root)
    vals = np.linalg.eigvalsh(0.5 * (herm + herm.conj().swapaxes(-1, -2)))
    return vals[..., n:]
