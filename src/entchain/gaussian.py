"""Covariance matrices of the quenched chain and their symplectic spectrum.

After the quench every normal mode j stays in a pure squeezed Gaussian
state fixed by its scale factor (b_j, b_j') and its pre-quench eigenvalue
lam_j(0):

    <x x>     = b**2 / (2 sqrt(lam0))
    sym <x p> = b b' / (2 sqrt(lam0))
    <p p>     = (sqrt(lam0) / b**2 + b'**2 / sqrt(lam0)) / 2.

Rotating these diagonal blocks back to sites with the columns of the
mode basis that belong to a set of sites gives that set's covariance
matrix, ordered (x_1..x_m, p_1..p_m).  Its symplectic eigenvalues
nu_j >= 1/2 each carry one geometric ladder of the reduced density
matrix, xi_j = (2 nu_j - 1) / (2 nu_j + 1); all sites together give a
pure state, every nu_j = 1/2.

The spectrum comes from a Cholesky factor sigma = L L^T: the real
antisymmetric matrix L^T J L is similar to J sigma, so the nu_j are the
positive eigenvalues of the Hermitian matrix i L^T J L (Williamson,
Am. J. Math. 58, 141 (1936)).  That is one Cholesky factorization and one
Hermitian eigensolve per matrix, with no matrix square root and no
squared spectrum.  ``entchain.oracles`` keeps its own route as the
reference: the same Williamson form, with the factor of sigma taken from
``eigh`` instead of Cholesky.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericsError

# A symplectic eigenvalue below 1/2 by more than this slack is a real
# violation instead of roundoff; smaller dips are clamped to 1/2.
_NU_SLACK = 1e-8

# Eigensolver noise leaves nu a few ulp of the covariance norm away from
# the pure-state floor even for exact product states; values this close
# to 1/2 are treated as exactly pure so those states report zero entropy.
_NU_PURE_BAND = 1e-11


def mode_covariance(
    u_cols: np.ndarray, lam0: np.ndarray, b: np.ndarray, bdot: np.ndarray
) -> np.ndarray:
    """Covariance stack (rows, 2m, 2m) of m sites from per-mode data.

    ``u_cols`` holds the mode basis columns of those sites (modes x m),
    ``lam0`` the pre-quench eigenvalues (modes), and ``b``, ``bdot`` the
    scale factors and their derivatives (rows x modes).
    """
    sqrt_lam0 = np.sqrt(lam0)
    dxx = b**2 / (2.0 * sqrt_lam0)
    dxp = b * bdot / (2.0 * sqrt_lam0)
    dpp = 0.5 * (sqrt_lam0 / b**2 + bdot**2 / sqrt_lam0)
    m = u_cols.shape[1]
    sigma = np.empty((b.shape[0], 2 * m, 2 * m))
    sigma[:, :m, :m] = u_cols.T @ (dxx[:, :, None] * u_cols)
    sigma[:, :m, m:] = u_cols.T @ (dxp[:, :, None] * u_cols)
    sigma[:, m:, :m] = sigma[:, :m, m:].swapaxes(1, 2)
    sigma[:, m:, m:] = u_cols.T @ (dpp[:, :, None] * u_cols)
    return sigma


def symplectic_eigenvalues(sigma: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, ascending.

    Factors sigma = L L^T (Cholesky) and takes the positive spectrum of
    the Hermitian matrix i L^T J L, which is similar to i J sigma.  A pure
    state gives all values 1/2.

    ``sigma`` may be one (2m, 2m) matrix or a stack (..., 2m, 2m); the
    result has shape (..., m), and each matrix of a stack gets the same
    values as a call on that matrix alone.  One matrix that is not finite
    or not positive-definite to working precision fails the whole call.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim < 2 or sigma.shape[-1] != sigma.shape[-2] or sigma.shape[-1] % 2:
        raise ValueError("covariance matrix must be square with even dimension")
    if not np.isfinite(sigma).all():
        raise NumericsError("covariance matrix has non-finite entries")
    m = sigma.shape[-1] // 2
    try:
        factor = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        # Report the worst-conditioned matrix of the stack.  All of its
        # eigenvalues can be positive: Cholesky also fails once the
        # condition number nears 1 / eps.
        w = np.linalg.eigvalsh(sigma).reshape(-1, 2 * m)
        lo, hi = w[np.argmin(w[:, 0] / np.abs(w).max(axis=1)), [0, -1]]
        if lo > 0:
            state = "is numerically singular, not positive-definite to working precision:"
        else:
            state = "must be positive-definite, got"
        raise NumericsError(
            f"covariance matrix {state} eigenvalues from {lo:.3e} to {hi:.3e}"
        ) from None
    # L^T J L = Lx^T Lp - Lp^T Lx for the position rows Lx and momentum
    # rows Lp of L; real antisymmetric, so i times it is Hermitian.
    g = factor[..., :m, :].swapaxes(-1, -2) @ factor[..., m:, :]
    return np.linalg.eigvalsh(1j * (g - g.swapaxes(-1, -2)))[..., m:]


def physical_nu(nu) -> np.ndarray:
    """Symplectic eigenvalues held to the physical floor 1/2.

    Raises ``NumericsError`` for a value more than ``_NU_SLACK`` below 1/2
    and snaps values within ``_NU_PURE_BAND`` of 1/2 to exactly 1/2.
    """
    nu = np.asarray(nu, dtype=float)
    if nu.size and nu.min() < 0.5 - _NU_SLACK:
        raise NumericsError(
            f"symplectic eigenvalue {nu.min():.10f} is below the physical floor 1/2"
        )
    return np.where(nu < 0.5 + _NU_PURE_BAND, 0.5, nu)
