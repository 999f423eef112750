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
antisymmetric matrix A = L^T J L is similar to J sigma, so the nu_j are
the positive eigenvalues of the Hermitian matrix i A (Williamson,
Am. J. Math. 58, 141 (1936)).  That is one Cholesky factorization and one
Hermitian eigensolve per matrix, with no matrix square root and no
squared spectrum.  One and two modes, the sectors of the smallest kept
blocks, skip the eigensolve: nu = |a_01| for one mode, and for two the
lengths u, v of the self-dual and anti-self-dual parts of A give
nu = (|u - v| / 2, (u + v) / 2), again without squaring the spectrum.
``entchain.oracles`` keeps its own route as the reference: the same
Williamson form, with the factor of sigma taken from ``eigh`` instead of
Cholesky and an eigensolve at every size.
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
    the Hermitian matrix i L^T J L, which is similar to i J sigma: in
    closed form for one and two modes (see the module docstring), by
    ``eigvalsh`` for three or more.  Either way the absolute error is
    about eps ||sigma||.  A pure state gives all values 1/2.

    ``sigma`` may be one (2m, 2m) matrix or a stack (..., 2m, 2m); the
    result has shape (..., m), and each matrix of a stack gets the same
    values as a call on that matrix alone.  One matrix that is not finite
    or not positive-definite to working precision fails the whole call;
    the message names the worst-conditioned matrix's largest eigenvalue
    and its smallest, or the roundoff level 2m eps |largest| when the
    smallest is below it and neither its value nor its sign is known.
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
        # Report the worst-conditioned matrix of the stack.  Cholesky also
        # fails once the condition number nears 1 / eps, and there
        # eigvalsh resolves the smallest eigenvalue only to about
        # 2m eps times the largest: below that level its value and even
        # its sign are roundoff, so it is not printed.
        w = np.linalg.eigvalsh(sigma).reshape(-1, 2 * m)
        lo, hi = w[np.argmin(w[:, 0] / np.abs(w).max(axis=1)), [0, -1]]
        roundoff = 2 * m * np.finfo(float).eps * max(-lo, hi)
        if lo < -roundoff:
            state = f"must be positive-definite, got eigenvalues from {lo:.3e}"
        elif lo > roundoff:
            state = (
                "is numerically singular, not positive-definite to working precision:"
                f" eigenvalues from {lo:.3e}"
            )
        else:
            state = f"is numerically singular: eigenvalues from 0 +/- {roundoff:.3e} (roundoff)"
        raise NumericsError(f"covariance matrix {state} to {hi:.3e}") from None
    # L^T J L = Lx^T Lp - Lp^T Lx for the position rows Lx and momentum
    # rows Lp of L; real antisymmetric, so i times it is Hermitian.
    g = factor[..., :m, :].swapaxes(-1, -2) @ factor[..., m:, :]
    a = g - g.swapaxes(-1, -2)
    if m == 1:
        return np.abs(a[..., 0, 1:])
    if m == 2:
        # so(4) = so(3) + so(3): the self-dual and anti-self-dual parts of
        # A have lengths u and v with u^2 + v^2 = 2 sum_i<j a_ij^2 = 2 (nu_1^2
        # + nu_2^2) and u^2 - v^2 = 4 Pf A = +-4 nu_1 nu_2, so they are
        # nu_2 + nu_1 and nu_2 - nu_1 in some order.
        # Squares are products: ``**`` on the numpy scalars of a single
        # matrix calls pow(), which can differ from x * x in the last bit.
        self_dual = (a[..., 0, 1] + a[..., 2, 3], a[..., 0, 2] - a[..., 1, 3],
                     a[..., 0, 3] + a[..., 1, 2])
        anti_dual = (a[..., 0, 1] - a[..., 2, 3], a[..., 0, 2] + a[..., 1, 3],
                     a[..., 0, 3] - a[..., 1, 2])
        u, v = (np.sqrt(x * x + y * y + z * z) for x, y, z in (self_dual, anti_dual))
        return np.stack([np.abs(u - v), u + v], axis=-1) / 2
    return np.linalg.eigvalsh(1j * a)[..., m:]


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
