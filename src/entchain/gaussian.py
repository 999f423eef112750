"""Covariance matrices of the quenched chain and their symplectic spectrum.

After the quench every normal mode j stays in a pure squeezed Gaussian
state fixed by its scale factor (b_j, b_j') and its pre-quench eigenvalue
lam_j(0):

    <x x>     = b**2 / (2 sqrt(lam0))
    sym <x p> = b b' / (2 sqrt(lam0))
    <p p>     = (sqrt(lam0) / b**2 + b'**2 / sqrt(lam0)) / 2.

Rotating these diagonal blocks back to sites with the columns of the
mode basis that belong to a set of sites gives that set's covariance
matrix, ordered (x_1..x_m, p_1..p_m): entry (i, j) of each of its xx, xp
and pp blocks is sum_k w_k u_ki u_kj over the modes k, with w_k the
mode's <x x>, <x p> or <p p>.  For a few sites the products u_ki u_kj
of the site pairs i <= j make a small table (modes x m(m+1)/2) that
depends only on the sites, so a stack of time points costs one stacked
product of the per-mode entries with that table, (rows, 3, modes) x
(modes, m(m+1)/2), and one index expanding the three triangles to the
full matrix.  The table grows like m**2 times the modes, so past a fixed
size each block is u^T diag(w) u from the columns instead, with its
upper triangle copied down.  Either way every block is exactly
symmetric, and a row's bits do not depend on the other rows of its
stack (``mode_covariance``).

The covariance's symplectic eigenvalues nu_j >= 1/2 each carry one
geometric ladder of the reduced density matrix,
xi_j = (2 nu_j - 1) / (2 nu_j + 1); all sites together give a pure
state, every nu_j = 1/2.

The spectrum comes from a Cholesky factor sigma = L L^T: the real
antisymmetric matrix A = L^T J L is similar to J sigma, so the nu_j are
the positive eigenvalues of the Hermitian matrix i A (Williamson,
Am. J. Math. 58, 141 (1936)), with no matrix square root and no squared
spectrum.  The route depends on the size.  One and two modes, the
sectors of the smallest kept blocks, call no LAPACK routine: the entries
of L come from the unblocked Cholesky recurrence written out over the
whole stack, and A's few nonzero entries from those.  One mode gives
nu = a_01 = l_00 l_11; for two, the lengths u, v of the self-dual and
anti-self-dual parts of A give nu = (|u - v| / 2, (u + v) / 2).  Three
or more modes take one LAPACK Cholesky factorization and one Hermitian
eigensolve per matrix.
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

# Matrix elements per stacked covariance array of a spectrum block of
# ``entropy_series`` (``entanglement._block_rows``).
_BLOCK_ELEMENTS = 8192

# Most values of a pair table, modes x m(m+1)/2: as many as one block of
# covariance matrices holds, so a run's tables stay that small whatever
# the chain size.  Wider sets of sites build their blocks from the
# columns instead, as their table would grow like n**3.
_TABLE_VALUES = _BLOCK_ELEMENTS


def _site_table(u_cols: np.ndarray) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """What ``_covariance`` needs of m sites, built once per set of columns.

    ``u_cols`` holds the mode basis columns of those sites (modes x m).
    Returns ``(pairs, u_cols, index)``.  While it holds at most
    ``_TABLE_VALUES`` values, ``pairs`` is the pair table (modes x
    m(m+1)/2): pairs[k, t] = u_ki u_kj for the t-th site pair i <= j of
    the upper triangle in row-major order, and ``index`` (2m, 2m) takes
    the xx, xp and pp triangles, laid end to end, to the full covariance
    matrix.  Past that size ``pairs`` is None, and ``index`` takes the
    full xx, xp and pp blocks, laid end to end, to the covariance matrix,
    reading every entry from the upper triangle of its block.
    """
    modes, m = u_cols.shape
    npairs = m * (m + 1) // 2
    tri = np.empty((m, m), dtype=np.intp)
    if modes * npairs > _TABLE_VALUES:
        pairs, size = None, m * m
        for i in range(m):
            tri[i, i:] = tri[i:, i] = np.arange(i * m + i, i * m + m)
    else:
        # One site's row of the triangle at a time: no temporary the size
        # of the table, and no np.triu_indices or np.block, whose first
        # use in a process costs about 0.06 MB of resident memory.
        pairs, size = np.empty((modes, npairs)), npairs
        start = 0
        for i in range(m):
            stop = start + m - i
            pairs[:, start:stop] = u_cols[:, i:i + 1] * u_cols[:, i:]
            tri[i, i:] = tri[i:, i] = np.arange(start, stop)
            start = stop
    index = np.empty((2 * m, 2 * m), dtype=np.intp)
    index[:m, :m] = tri
    index[:m, m:] = index[m:, :m] = tri + size
    index[m:, m:] = tri + 2 * size
    return pairs, u_cols, index


def _mode_weights(lam0: np.ndarray, b: np.ndarray, bdot: np.ndarray) -> np.ndarray:
    """Per-mode covariance entries (rows, 3, modes): <x x>, sym <x p> and
    <p p> of every mode (see the module docstring), from the pre-quench
    eigenvalues ``lam0`` (modes) and the scale factors ``b``, ``bdot``
    (rows x modes)."""
    sqrt_lam0 = np.sqrt(lam0)
    weights = np.empty((b.shape[0], 3, b.shape[1]))
    weights[:, 0] = b**2 / (2.0 * sqrt_lam0)
    weights[:, 1] = b * bdot / (2.0 * sqrt_lam0)
    weights[:, 2] = 0.5 * (sqrt_lam0 / b**2 + bdot**2 / sqrt_lam0)
    return weights


def _covariance(weights: np.ndarray, table) -> np.ndarray:
    """Covariance stack (rows, 2m, 2m) from ``_mode_weights`` and a
    ``_site_table``: sum_k w_k u_ki u_kj for every pair i <= j of each
    block, mirrored to i > j, so every block is exactly symmetric.  Each
    row is one fixed-shape product per table or block, so it gets the
    same bits whatever rows share the call; a 2-d (rows * 3, modes)
    product does not promise that."""
    pairs, u_cols, index = table
    rows = weights.shape[0]
    if pairs is not None:
        # One (3, modes) x (modes, m(m+1)/2) product per row.
        return (weights @ pairs).reshape(rows, 3 * pairs.shape[1]).take(index, axis=1)
    # One (m, modes) x (modes, m) product per row and block.
    m = u_cols.shape[1]
    blocks = np.empty((rows, 3, m, m))
    for k in range(3):
        np.matmul(u_cols.T, weights[:, k, :, None] * u_cols, out=blocks[:, k])
    return blocks.reshape(rows, 3 * m * m).take(index, axis=1)


def mode_covariance(
    u_cols: np.ndarray, lam0: np.ndarray, b: np.ndarray, bdot: np.ndarray
) -> np.ndarray:
    """Covariance stack (rows, 2m, 2m) of m sites from per-mode data.

    ``u_cols`` holds the mode basis columns of those sites (modes x m),
    ``lam0`` the pre-quench eigenvalues (modes), and ``b``, ``bdot`` the
    scale factors and their derivatives (rows x modes).  Every xx, xp and
    pp block is exactly symmetric.  ``entropy_series`` builds the same
    site table once per run and reuses it for every block of rows, which
    gives the same bits.
    """
    return _covariance(_mode_weights(lam0, b, bdot), _site_table(u_cols))


def _small_factor(sigma: np.ndarray) -> list[list[np.ndarray]]:
    """Lower Cholesky factor of each matrix of a stack (..., size, size),
    as rows of entries: ``low[i][j]``, j <= i, holds l_ij of every matrix.

    LAPACK's unblocked recurrence, reading only the lower triangle:
    l_jj = sqrt(s_jj - sum_k l_jk l_jk) and
    l_ij = (s_ij - sum_k l_ik l_jk) / l_jj, each sum taken over k < j from
    k = 0 up.  Every entry is the same few elementwise operations in one
    order, so a matrix gets the same bits alone as in a stack.  A pivot
    that is not positive leaves l_jj zero or NaN, and the entries after it
    infinite or NaN; the caller checks the diagonal.
    """
    size = sigma.shape[-1]
    low: list[list[np.ndarray]] = []
    for i in range(size):
        low.append([])
        for j in range(i + 1):
            entry = sigma[..., i, j]
            if j:
                # Squares are products: ``**`` on the numpy scalars of a
                # single matrix calls pow(), which can differ from x * x in
                # the last bit.
                dot = low[i][0] * low[j][0]
                for k in range(1, j):
                    dot = dot + low[i][k] * low[j][k]
                entry = entry - dot
            low[i].append(np.sqrt(entry) if i == j else entry / low[j][j])
    return low


def _factor_failure(sigma: np.ndarray) -> NumericsError:
    """The error for a stack with a matrix that does not factor, naming the
    worst-conditioned matrix of the stack.

    Cholesky also fails once the condition number nears 1 / eps, and there
    eigvalsh resolves the smallest eigenvalue only to about 2m eps times
    the largest: below that level its value and even its sign are
    roundoff, so it is not printed.
    """
    dim = sigma.shape[-1]
    w = np.linalg.eigvalsh(sigma).reshape(-1, dim)
    lo, hi = w[np.argmin(w[:, 0] / np.abs(w).max(axis=1)), [0, -1]]
    roundoff = dim * np.finfo(float).eps * max(-lo, hi)
    if lo < -roundoff:
        state = f"must be positive-definite, got eigenvalues from {lo:.3e}"
    elif lo > roundoff:
        state = (
            "is numerically singular, not positive-definite to working precision:"
            f" eigenvalues from {lo:.3e}"
        )
    else:
        state = f"is numerically singular: eigenvalues from 0 +/- {roundoff:.3e} (roundoff)"
    return NumericsError(f"covariance matrix {state} to {hi:.3e}")


def symplectic_eigenvalues(sigma: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, ascending.

    Factors sigma = L L^T (Cholesky) and takes the positive spectrum of
    the Hermitian matrix i L^T J L, which is similar to i J sigma.  One
    and two modes call no LAPACK routine: the factor comes from the
    Cholesky recurrence and the spectrum in closed form (see the module
    docstring).  Three or more modes take ``np.linalg.cholesky`` and
    ``eigvalsh``.  Either way the absolute error is about eps ||sigma||.
    A pure state gives all values 1/2.

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
    if m > 2:
        try:
            factor = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise _factor_failure(sigma) from None
        # L^T J L = Lx^T Lp - Lp^T Lx for the position rows Lx and momentum
        # rows Lp of L; real antisymmetric, so i times it is Hermitian.
        g = factor[..., :m, :].swapaxes(-1, -2) @ factor[..., m:, :]
        return np.linalg.eigvalsh(1j * (g - g.swapaxes(-1, -2)))[..., m:]
    # A pivot that is not positive raises no numpy warning here: it fails
    # the diagonal check below, as it fails LAPACK's (np.min keeps a NaN).
    with np.errstate(all="ignore"):
        low = _small_factor(sigma)
    if not np.min([low[j][j] for j in range(2 * m)]) > 0:
        raise _factor_failure(sigma)
    if m == 1:
        return (low[0][0] * low[1][1])[..., None]
    # The five nonzero entries a_ij, i < j, of A = L^T J L (a_23 = 0).
    (l00,), (l10, l11), (l20, l21, l22), (l30, l31, l32, l33) = low
    a01 = l00 * l21 + l10 * l31 - l11 * l30
    a02 = l00 * l22 + l10 * l32
    a03 = l10 * l33
    a12 = l11 * l32
    a13 = l11 * l33
    # so(4) = so(3) + so(3): the self-dual and anti-self-dual parts of A
    # have lengths u and v with u^2 + v^2 = 2 sum_i<j a_ij^2 = 2 (nu_1^2 +
    # nu_2^2) and u^2 - v^2 = 4 Pf A = +-4 nu_1 nu_2, so they are nu_2 +
    # nu_1 and nu_2 - nu_1 in some order.
    self_dual = (a01, a02 - a13, a03 + a12)
    anti_dual = (a01, a02 + a13, a03 - a12)
    u, v = (np.sqrt(x * x + y * y + z * z) for x, y, z in (self_dual, anti_dual))
    return np.stack([np.abs(u - v), u + v], axis=-1) / 2


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
