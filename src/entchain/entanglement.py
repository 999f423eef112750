"""Partial trace of the Gaussian state and entanglement entropies.

Tracing out a site block A from the pure Gaussian state leaves a reduced
density matrix over the kept block with kernel

    rho(x, x') ~ exp[i (x.T Z x - x'.T Z x')]
                 * exp[-(x.T G x + x'.T G x')/2 + x.T (Bt + i A) x'],

where, with W and B the state's width and phase-curvature matrices split
into traced (A) and kept (B) blocks and P = W_AB.T W_AA^-1 B_AB,

    G  = W_BB - W_AB.T W_AA^-1 W_AB / 2 + 2 B_AB.T W_AA^-1 B_AB
    Bt = W_AB.T W_AA^-1 W_AB / 2 + 2 B_AB.T W_AA^-1 B_AB
    A  = P - P.T
    Z  = B_BB - (P + P.T) / 2.

The cross coupling Bt + i A is Hermitian; its antisymmetric imaginary
part A vanishes for a single kept site and for reflection-symmetric
partitions, but not in general.  The local phase Z drops out of every
entropy.  The kernel blocks fix the kept block's covariance matrix
exactly (S = G - Bt):

    <x x.T>     = S^-1 / 2
    sym <x p.T> = S^-1 (Z - A/2)
    <p p.T>     = (G + Bt) / 2 + 2 (Z + A/2) S^-1 (Z - A/2),

whose symplectic eigenvalues nu_j >= 1/2 each carry one geometric ladder

    xi_j = (2 nu_j - 1) / (2 nu_j + 1),    p_(n) = (1 - xi_j) xi_j**n.

When A = 0 this reproduces the textbook shortcut of diagonalizing G,
rescaling Bt by its eigenvalues, and mapping each eigenvalue beta_j of
the rescaled cross matrix through xi_j = beta_j / (1 + sqrt(1 -
beta_j**2)); the covariance route stays exact when A does not vanish.
Renyi and von Neumann entropies follow from xi in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chain import ChainSpec, quench_modes
from .ermakov import QuenchSchedule, integrate_general, solve_sudden
from .errors import NumericsError
from .gaussian import GaussianState, symplectic_eigenvalues

# A symplectic eigenvalue below 1/2 by more than this slack is a real
# violation instead of roundoff; smaller dips are clamped to 1/2.
_NU_SLACK = 1e-8

# Eigensolver noise leaves nu a few ulp of the covariance norm away from
# the pure-state floor even for exact product states; values this close
# to 1/2 are treated as exactly pure so those states report zero entropy.
_NU_PURE_BAND = 1e-11

# Matrix elements per stacked array when a time grid is taken in blocks
# (see _block_rows).
_BLOCK_ELEMENTS = 8192


@dataclass(frozen=True)
class Partition:
    """Bipartition of sites 1..N into a traced block and a kept block."""

    traced: tuple[int, ...]
    kept: tuple[int, ...]

    def __post_init__(self):
        if not self.traced or not self.kept:
            raise ValueError("both blocks of the partition must be non-empty")
        if set(self.traced) & set(self.kept):
            raise ValueError("traced and kept blocks must be disjoint")

    @property
    def n(self) -> int:
        return len(self.traced) + len(self.kept)

    @classmethod
    def from_traced(cls, traced_sites, n: int) -> "Partition":
        traced = tuple(sorted(set(int(s) for s in traced_sites)))
        if len(traced) != len(tuple(traced_sites)):
            raise ValueError("traced sites must be unique")
        if not traced:
            raise ValueError("traced block must be non-empty")
        if traced[0] < 1 or traced[-1] > n:
            raise ValueError(f"traced sites must lie in 1..{n}, got {traced}")
        kept = tuple(s for s in range(1, n + 1) if s not in set(traced))
        if not kept:
            raise ValueError("cannot trace out every site")
        return cls(traced=traced, kept=kept)

    @classmethod
    def second_half(cls, n: int) -> "Partition":
        """Trace out sites N//2+1 .. N."""
        return cls.from_traced(range(n // 2 + 1, n + 1), n)

    def complement(self) -> "Partition":
        return Partition(traced=self.kept, kept=self.traced)


@dataclass(frozen=True)
class ReducedState:
    """Gaussian kernel of the reduced density matrix on the kept block.

    ``gamma`` (width) and ``beta`` (cross coupling) are real symmetric;
    ``skew`` is the antisymmetric imaginary part of the cross coupling,
    zero for one kept site and for reflection-symmetric partitions; ``z``
    is the symmetric local phase block, which never affects the spectrum.
    """

    gamma: np.ndarray
    beta: np.ndarray
    skew: np.ndarray
    z: np.ndarray
    time: float

    @property
    def n_kept(self) -> int:
        return self.gamma.shape[0]


@dataclass(frozen=True)
class XiSpectrum:
    """Geometric-ladder parameters of a reduced state, ascending.

    ``couplings`` holds the effective cross-coupling eigenvalues
    2 xi / (1 + xi**2), i.e. the values whose single-mode ladder map
    returns exactly this xi; when the kernel's skew block vanishes they
    equal the eigenvalues of the width-rescaled cross matrix."""

    xi: np.ndarray
    couplings: np.ndarray


class TruncatedSpectrum(NamedTuple):
    levels: np.ndarray
    total: float


@dataclass(frozen=True)
class EntropySeries:
    """Entropies on a time grid: xi has one row per time, one column per
    kept mode (ascending); ``entropies`` maps Renyi order to a series,
    with order 1 meaning the von Neumann entropy."""

    times: np.ndarray
    xi: np.ndarray
    entropies: dict[int, np.ndarray]

    @property
    def s1(self) -> np.ndarray:
        return self.entropies[1]


def _reduce_blocks(w_aa, w_ab, w_bb, b_ab, b_bb):
    try:
        x = np.linalg.solve(w_aa, w_ab)
        y = np.linalg.solve(w_aa, b_ab)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"traced block of the width matrix is singular: {exc}") from exc
    q = w_ab.T @ x
    r = b_ab.T @ y
    p = w_ab.T @ y
    gamma = w_bb - 0.5 * q + 2.0 * r
    beta = 0.5 * q + 2.0 * r
    skew = p - p.T
    z = b_bb - 0.5 * (p + p.T)
    return 0.5 * (gamma + gamma.T), 0.5 * (beta + beta.T), skew, 0.5 * (z + z.T)


def partial_trace(state: GaussianState, partition: Partition) -> ReducedState:
    """Trace the partition's traced block out of a pure Gaussian state."""
    if partition.n != state.n:
        raise ValueError(
            f"partition covers {partition.n} sites but the state has {state.n}"
        )
    tr = [s - 1 for s in partition.traced]
    kp = [s - 1 for s in partition.kept]
    w, b = state.omega, state.btilde
    gamma, beta, skew, z = _reduce_blocks(
        w[np.ix_(tr, tr)], w[np.ix_(tr, kp)], w[np.ix_(kp, kp)],
        b[np.ix_(tr, kp)], b[np.ix_(kp, kp)],
    )
    return ReducedState(gamma=gamma, beta=beta, skew=skew, z=z, time=state.time)


def reduced_covariance(reduced: ReducedState) -> np.ndarray:
    """Covariance matrix of the kept block, built from its kernel blocks.

    Ordered as (x_1..x_m, p_1..p_m); the reduced state is Gaussian, so this
    matrix determines its entire spectrum.
    """
    s = reduced.gamma - reduced.beta
    try:
        s_inv = np.linalg.inv(s)
        np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(
            "reduced kernel is not normalizable: the width minus cross "
            "block must be positive-definite"
        ) from exc
    # Z - A/2 and Z + A/2 are transposes of each other.
    cross = reduced.z - 0.5 * reduced.skew
    s_inv_cross = s_inv @ cross
    xx = 0.5 * s_inv
    pp = 0.5 * (reduced.gamma + reduced.beta) + 2.0 * cross.T @ s_inv_cross
    m = reduced.n_kept
    sigma = np.empty((2 * m, 2 * m))
    sigma[:m, :m] = 0.5 * (xx + xx.T)
    sigma[:m, m:] = s_inv_cross
    sigma[m:, :m] = s_inv_cross.T
    sigma[m:, m:] = 0.5 * (pp + pp.T)
    return sigma


def _xi_from_cov(sigma: np.ndarray) -> np.ndarray:
    """xi, shape (..., m), of a kept-block covariance (2m, 2m) or a stack."""
    nu = symplectic_eigenvalues(sigma)
    if nu.min() < 0.5 - _NU_SLACK:
        raise NumericsError(
            f"symplectic eigenvalue {nu.min():.10f} of the reduced state is "
            "below the physical floor 1/2"
        )
    nu = np.where(nu < 0.5 + _NU_PURE_BAND, 0.5, nu)
    return (2.0 * nu - 1.0) / (2.0 * nu + 1.0)


def xi_spectrum(reduced: ReducedState) -> XiSpectrum:
    """Geometric-ladder parameters xi_j of a reduced Gaussian state."""
    w = np.linalg.eigvalsh(reduced.gamma)
    if w.min() <= 0:
        raise NumericsError(
            f"reduced width matrix must be positive-definite, got eigenvalue {w.min():.3e}"
        )
    xi = _xi_from_cov(reduced_covariance(reduced))
    return XiSpectrum(xi=xi, couplings=2.0 * xi / (1.0 + xi**2))


def _validate_xi(xi) -> np.ndarray:
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.size and xi.min() < -1e-12:
        raise ValueError(f"xi must be non-negative, got {xi.min():.3e}")
    if xi.size and xi.max() >= 1.0:
        raise ValueError(f"xi must be below 1, got {xi.max():.6f}")
    return np.clip(xi, 0.0, None)


def _mode_sum(terms: np.ndarray) -> float | np.ndarray:
    """Sum over the last (mode) axis: a float for one spectrum, one value
    per row for a (rows, m) stack."""
    total = terms.sum(axis=-1)
    return float(total) if terms.ndim == 1 else total


def renyi_entropy(xi, alpha: int) -> float | np.ndarray:
    """Renyi entropy of integer order alpha >= 2, in nats, summed over modes.

    ``xi`` is one spectrum (m,), giving a float, or a stack (rows, m),
    giving one entropy per row."""
    if not isinstance(alpha, (int, np.integer)) or isinstance(alpha, bool):
        raise ValueError(f"alpha must be an integer, got {alpha!r}")
    if alpha < 2:
        raise ValueError("renyi_entropy needs alpha >= 2; use von_neumann_entropy for order 1")
    if isinstance(xi, XiSpectrum):
        xi = xi.xi
    xi = _validate_xi(xi)
    return _mode_sum((alpha * np.log1p(-xi) - np.log1p(-(xi**alpha))) / (1.0 - alpha))


def von_neumann_entropy(xi) -> float | np.ndarray:
    """Von Neumann entropy in nats, summed over modes; xi -> 0 gives 0.

    ``xi`` is one spectrum (m,), giving a float, or a stack (rows, m),
    giving one entropy per row."""
    if isinstance(xi, XiSpectrum):
        xi = xi.xi
    xi = _validate_xi(xi)
    positive = xi > 0
    safe = np.where(positive, xi, 0.5)
    return _mode_sum(-np.log1p(-xi) - np.where(positive, xi / (1.0 - xi) * np.log(safe), 0.0))


def reduced_spectrum(xi, n_max: int) -> TruncatedSpectrum:
    """Leading eigenvalues of the reduced density matrix.

    One mode gives the geometric ladder (1 - xi) xi**n for n = 0..n_max in
    that natural order; several modes give the tensor-product levels,
    sorted descending.  ``total`` is the partial sum, which approaches 1
    as n_max grows.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    xi = _validate_xi(xi)
    ladders = [(1.0 - x) * x ** np.arange(n_max + 1) for x in xi]
    levels = ladders[0]
    for ladder in ladders[1:]:
        levels = np.multiply.outer(levels, ladder).ravel()
    if len(ladders) > 1:
        levels = np.sort(levels)[::-1]
    return TruncatedSpectrum(levels=levels, total=float(levels.sum()))


def two_site_reduced(
    omega_plus: float,
    omega_minus: float,
    b1: float,
    db1: float,
    b2: float,
    db2: float,
) -> tuple[float, float, float]:
    """Closed-form reduced kernel (gamma, beta, z) for a two-site chain.

    ``omega_plus``/``omega_minus`` are the pre-quench mode frequencies
    (square roots of the coupling-matrix eigenvalues); (b1, db1) belong to
    the center-of-mass mode and (b2, db2) to the relative mode.  Tracing
    out either site gives the same kernel by symmetry, and a one-site
    kernel has no skew block.
    """
    w1 = omega_plus / b1**2
    w2 = omega_minus / b2**2
    diff = w1 - w2
    total = w1 + w2
    rate = db1 / b1 - db2 / b2
    gamma = 0.5 * total - (diff**2 - rate**2) / (4.0 * total)
    beta = (diff**2 + rate**2) / (4.0 * total)
    z = (db1 / (4 * b1) + db2 / (4 * b2)) - (diff / total) * (
        db1 / (4 * b1) - db2 / (4 * b2)
    )
    return gamma, beta, z


def _validate_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if times[0] < 0:
        raise ValueError("times must be non-negative")
    if times.size > 1:
        steps = np.diff(times)
        if steps.min() <= 0:
            raise ValueError("times must be strictly increasing")
        if steps.max() - steps.min() > 1e-9 * max(steps.max(), 1e-300):
            raise ValueError("times must form a uniform grid")
    return times


def _validate_alphas(alphas) -> list[int]:
    cleaned = []
    for a in alphas:
        if isinstance(a, bool) or not isinstance(a, (int, np.integer)):
            raise ValueError(f"entropy orders must be integers, got {a!r}")
        if a < 1:
            raise ValueError(f"entropy orders must be >= 1, got {a}")
        cleaned.append(int(a))
    if not cleaned:
        raise ValueError("need at least one entropy order")
    return sorted(set(cleaned))


def _block_rows(dim: int) -> int:
    """Time points per block when each point carries a (dim, dim) matrix:
    about 8192 matrix elements per stacked array, which keeps a block's
    temporaries in cache and off the peak memory."""
    return max(1, _BLOCK_ELEMENTS // dim**2)


def entropy_series(
    spec: ChainSpec,
    partition: Partition,
    times,
    alphas=(1,),
    schedule: QuenchSchedule | None = None,
    tolerance: float = 1e-10,
) -> EntropySeries:
    """Entanglement entropies of the kept block over a uniform time grid.

    With ``schedule=None`` the quench is sudden (spec's pre -> post
    parameters); otherwise each mode follows the schedule, with the
    Wronskian of its scale factor checked against ``tolerance``.  Time
    points are taken in blocks of ``max(1, 8192 // (2m)**2)`` for m kept
    sites: each block stacks its kept-block covariances, takes their
    symplectic spectra in one call and its entropies as sums over the
    mode axis.  Every row is computed the same way whatever block it
    falls in, so a grid gives bit for bit the values of its slices.
    """
    times = _validate_times(times)
    alphas = _validate_alphas(alphas)
    if partition.n != spec.n:
        raise ValueError(f"partition covers {partition.n} sites but the chain has {spec.n}")
    modes = quench_modes(spec)
    if schedule is None:
        sols = [solve_sudden(li, lf) for li, lf in zip(modes.lam_pre, modes.lam_post)]
    else:
        sols = [
            integrate_general(schedule.mode_protocol(mu, li), tolerance=tolerance)
            for mu, li in zip(modes.mu, modes.lam_pre)
        ]
    b_all = np.empty((times.size, modes.n))
    bdot_all = np.empty((times.size, modes.n))
    for j, sol in enumerate(sols):
        b_all[:, j], bdot_all[:, j] = sol.evaluate(times)

    kp = [s - 1 for s in partition.kept]
    u_kp = modes.u[:, kp]
    sqrt_lam0 = np.sqrt(modes.lam_pre)

    m = len(kp)
    xi_out = np.empty((times.size, m))
    ent_out = {a: np.empty(times.size) for a in alphas}
    rows = _block_rows(2 * m)
    for start in range(0, times.size, rows):
        block = slice(start, start + rows)
        # Kept-block covariance straight from the per-mode phase-space
        # data: each normal mode is pure and squeezed, with
        #   <xx> = b^2 / (2 sqrt(lam0)),  sym<xp> = b b' / (2 sqrt(lam0)),
        #   <pp> = (sqrt(lam0) / b^2 + b'^2 / sqrt(lam0)) / 2.
        b = b_all[block]
        bdot = bdot_all[block]
        dxx = b**2 / (2.0 * sqrt_lam0)
        dxp = b * bdot / (2.0 * sqrt_lam0)
        dpp = 0.5 * (sqrt_lam0 / b**2 + bdot**2 / sqrt_lam0)
        sigma = np.empty((b.shape[0], 2 * m, 2 * m))
        sigma[:, :m, :m] = u_kp.T @ (dxx[:, :, None] * u_kp)
        sigma[:, :m, m:] = u_kp.T @ (dxp[:, :, None] * u_kp)
        sigma[:, m:, :m] = sigma[:, :m, m:].swapaxes(1, 2)
        sigma[:, m:, m:] = u_kp.T @ (dpp[:, :, None] * u_kp)
        xi = _xi_from_cov(sigma)
        xi_out[block] = xi
        for a in alphas:
            ent_out[a][block] = von_neumann_entropy(xi) if a == 1 else renyi_entropy(xi, a)

    return EntropySeries(times=times, xi=xi_out, entropies=ent_out)
