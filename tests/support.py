"""Shared helpers for the test suite, and the references that only the
tests use: spectral period extraction and the log-size fit, the
Gaussian-state algebra of the kernel route, the diagonalization of a
one-site kernel on a position grid, one exact high-precision reference
for every protocol, the quasiparticle pair entropy of a sudden quench,
and closed forms of the chain and of the two-well map.

Gaussian-state algebra (the kernel route).  After the quench the exact
N-body wavefunction stays Gaussian,

    psi(x, t) ~ exp(i x.T B x) * exp(-x.T W x / 2),

with real symmetric matrices built in the shared mode basis U (rows
are mode vectors):

    W = U.T diag(sqrt(lam_j(0)) / b_j(t)**2) U      ("omega" below)
    B = U.T diag(b_j'(t) / (2 b_j(t))) U            ("btilde" below)

Mode phases never enter a reduced density matrix.  In covariance
language, ordering (x_1..x_N, p_1..p_N),

    <x x.T> = W^-1 / 2,   sym <x p.T> = W^-1 B,   <p p.T> = (W + 4 B W^-1 B) / 2.

Tracing out a site block A leaves a reduced density matrix over the
kept block with kernel

    rho(x, x') ~ exp[i (x.T Z x - x'.T Z x')]
                 * exp[-(x.T G x + x'.T G x')/2 + x.T (Bt + i A) x'],

where, with W and B split into traced (A) and kept (B) blocks and
P = W_AB.T W_AA^-1 B_AB,

    G  = W_BB - W_AB.T W_AA^-1 W_AB / 2 + 2 B_AB.T W_AA^-1 B_AB
    Bt = W_AB.T W_AA^-1 W_AB / 2 + 2 B_AB.T W_AA^-1 B_AB
    A  = P - P.T
    Z  = B_BB - (P + P.T) / 2.

The cross coupling Bt + i A is Hermitian; its antisymmetric imaginary
part A vanishes for a single kept site and for reflection-symmetric
partitions, but not in general.  The local phase Z drops out of every
entropy.  The kernel blocks fix the kept block's covariance matrix
(S = G - Bt):

    <x x.T>     = S^-1 / 2
    sym <x p.T> = S^-1 (Z - A/2)
    <p p.T>     = (G + Bt) / 2 + 2 (Z + A/2) S^-1 (Z - A/2).

When A = 0 this reproduces the textbook shortcut of diagonalizing G,
rescaling Bt by its eigenvalues, and mapping each eigenvalue beta_j of
the rescaled cross matrix through xi_j = beta_j / (1 + sqrt(1 -
beta_j**2)); the covariance route stays exact when A does not vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import mpmath
import numpy as np

from entchain import (
    ChainSpec,
    EntropySeries,
    ModeSolution,
    NumericsError,
    Partition,
    QuenchModes,
    QuenchSchedule,
    entropy_series,
    quench_modes,
)
from entchain.chain import Phase, bond_laplacian
from entchain.entanglement import _validate_xi
from entchain.ermakov import solve_sudden
from entchain.gaussian import physical_nu
from entchain.oracles import symplectic_eigenvalues


def symplectic_form(n: int) -> np.ndarray:
    """Block form J = [[0, I], [-I, 0]] matching the (x..., p...) ordering."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


# Post-processing of entropy time series.
#
# Period extraction works on the magnitude spectrum of the mean-subtracted
# von Neumann series (Hann window, zero-padded FFT, parabolic refinement of
# peak bins).  Spectral peaks are robust against the nonlinear superposition
# of mode oscillations in the entropy, where zero-crossing counting is not.
# The slowest significant peak is the revival period; the scaling fit is a
# per-time least squares of S_1 against ln N.


@dataclass(frozen=True)
class PeriodEstimate:
    """Dominant oscillation periods, strongest first."""

    periods: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if np.any(self.periods <= 0):
            raise ValueError("periods must be positive")
        if np.any(np.diff(self.weights) > 0):
            raise ValueError("weights must be sorted descending")


@dataclass(frozen=True)
class ScalingFit:
    """Per-time least-squares fit S_1(t, N) = c(t) ln N + d(t).

    ``spread`` is max_N |S_1/ln N - mean_N(S_1/ln N)| per time point and
    ``relative_spread`` divides that by the mean's magnitude.
    """

    times: np.ndarray
    sizes: tuple[int, ...]
    slope: np.ndarray
    intercept: np.ndarray
    residual: np.ndarray
    spread: np.ndarray
    relative_spread: np.ndarray


def _uniform_step(times: np.ndarray) -> float:
    steps = np.diff(times)
    if steps.size == 0 or steps.min() <= 0:
        raise ValueError("series needs at least two increasing time points")
    if steps.max() - steps.min() > 1e-9 * steps.max():
        raise ValueError("period extraction needs a uniform time grid")
    return float(steps.mean())


def _spectrum_peaks(times: np.ndarray, values: np.ndarray, pad_factor: int = 8):
    """(frequencies, weights) of local maxima of the windowed magnitude
    spectrum, strongest first; the band below 1.2 / window_length is
    excluded as unresolvable."""
    dt = _uniform_step(times)
    n = times.size
    if n < 16:
        raise ValueError(f"series too short for spectral analysis ({n} samples)")
    centered = values - values.mean()
    swing = np.abs(centered).max()
    if swing == 0.0 or swing < 1e-13 * max(np.abs(values).max(), 1.0):
        raise ValueError("series is constant; no oscillation to analyze")
    window = np.hanning(n)
    spectrum = np.abs(np.fft.rfft(centered * window, n=pad_factor * n))
    freqs = np.fft.rfftfreq(pad_factor * n, d=dt)

    span = times[-1] - times[0]
    f_min = 1.2 / span
    interior = (
        (spectrum[1:-1] > spectrum[:-2])
        & (spectrum[1:-1] >= spectrum[2:])
        & (freqs[1:-1] >= f_min)
    )
    idx = np.flatnonzero(interior) + 1
    if idx.size == 0:
        raise ValueError(
            "no spectral peaks found above the resolvable-frequency floor; "
            "the window is too short or the grid too coarse"
        )
    df = freqs[1] - freqs[0]
    left, mid, right = spectrum[idx - 1], spectrum[idx], spectrum[idx + 1]
    denom = left - 2.0 * mid + right
    shift = np.where(denom != 0.0, 0.5 * (left - right) / np.where(denom, denom, 1.0), 0.0)
    shift = np.clip(shift, -0.5, 0.5)
    peak_freqs = freqs[idx] + shift * df
    peak_weights = mid - 0.25 * (left - right) * shift
    order = np.argsort(peak_weights)[::-1]
    return peak_freqs[order], peak_weights[order]


def extract_periods(series: EntropySeries, count: int) -> PeriodEstimate:
    """Top ``count`` oscillation periods of the von Neumann series."""
    if count < 1:
        raise ValueError("count must be at least 1")
    freqs, weights = _spectrum_peaks(series.times, series.s1)
    if freqs.size < count:
        raise ValueError(
            f"only {freqs.size} spectral peaks are resolvable on this grid, "
            f"{count} requested; lengthen the window or refine the grid"
        )
    return PeriodEstimate(periods=1.0 / freqs[:count], weights=weights[:count])


def revival_period(series: EntropySeries, rel_threshold: float = 0.1) -> float:
    """Period of the slowest significant oscillation of the entropy.

    Significant means spectral weight at least ``rel_threshold`` times the
    strongest peak's.  The window must hold two full cycles of the result;
    otherwise the revival is not yet confirmed and the error suggests a
    longer run.
    """
    if not 0.0 < rel_threshold <= 1.0:
        raise ValueError("rel_threshold must lie in (0, 1]")
    freqs, weights = _spectrum_peaks(series.times, series.s1)
    significant = freqs[weights >= rel_threshold * weights[0]]
    period = 1.0 / significant.min()
    span = series.times[-1] - series.times[0]
    if period > span / 2.0:
        raise ValueError(
            f"slowest component has period {period:.4g} but the window is only "
            f"{span:.4g}; rerun with t_max of at least {2.0 * period:.4g} to "
            "confirm a revival"
        )
    return float(period)


def fit_scaling(series_by_size: dict[int, EntropySeries]) -> ScalingFit:
    """Least-squares S_1 = c(t) ln N + d(t) across chain sizes.

    All series must share one time grid; at least three sizes are needed
    for a meaningful two-parameter fit.
    """
    sizes = tuple(sorted(int(n) for n in series_by_size))
    if len(sizes) < 3:
        raise ValueError(f"scaling fit needs at least 3 chain sizes, got {len(sizes)}")
    if any(n < 2 for n in sizes):
        raise ValueError("chain sizes must be at least 2")
    first = series_by_size[sizes[0]].times
    data = np.empty((len(sizes), first.size))
    for row, n in enumerate(sizes):
        series = series_by_size[n]
        if series.times.shape != first.shape or not np.allclose(
            series.times, first, rtol=0.0, atol=1e-12
        ):
            raise ValueError("all series must share an identical time grid")
        data[row] = series.s1

    log_sizes = np.log(np.asarray(sizes, dtype=float))
    design = np.column_stack((log_sizes, np.ones_like(log_sizes)))
    coef, _, _, _ = np.linalg.lstsq(design, data, rcond=None)
    residual = np.linalg.norm(data - design @ coef, axis=0)

    ratios = data / log_sizes[:, None]
    mean = ratios.mean(axis=0)
    spread = np.abs(ratios - mean).max(axis=0)
    floor = np.maximum(np.abs(mean), 1e-300)
    return ScalingFit(
        times=first,
        sizes=sizes,
        slope=coef[0],
        intercept=coef[1],
        residual=residual,
        spread=spread,
        relative_spread=spread / floor,
    )


# Gaussian-state algebra: the kernel route, a reference for the per-mode
# covariance builder of the product path.


@dataclass(frozen=True)
class GaussianState:
    """Pure Gaussian state: the real width matrix W (``omega``) and the
    phase-curvature matrix B (``btilde``)."""

    omega: np.ndarray
    btilde: np.ndarray

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


def assemble_state(modes: QuenchModes, solutions: list[ModeSolution], t: float) -> GaussianState:
    """Build the state at time t from the quench modes and their scale factors."""
    if len(solutions) != modes.n:
        raise ValueError(f"need {modes.n} mode solutions, got {len(solutions)}")
    if t < 0:
        raise ValueError("t must be non-negative")
    pairs = [sol.evaluate(t) for sol in solutions]
    b = np.array([p[0] for p in pairs])
    bdot = np.array([p[1] for p in pairs])
    omega, btilde = mode_matrices(modes.u, modes.lam_pre, b, bdot)
    return GaussianState(omega=omega, btilde=btilde)


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


def reduce_covariance(sigma: np.ndarray, partition: Partition) -> np.ndarray:
    """Kept-block covariance (positions then momenta of the kept sites) of
    one covariance matrix or of a stack (..., 2n, 2n)."""
    n = sigma.shape[-1] // 2
    if partition.n != n:
        raise ValueError(f"partition covers {partition.n} sites but sigma has {n}")
    kp = [s - 1 for s in partition.kept]
    sel = kp + [s + n for s in kp]
    return sigma[..., sel, :][..., sel]


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

    @property
    def n_kept(self) -> int:
        return self.gamma.shape[0]


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
    return ReducedState(gamma=gamma, beta=beta, skew=skew, z=z)


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


def xi_spectrum(reduced: ReducedState) -> np.ndarray:
    """Geometric-ladder parameters xi_j of a reduced Gaussian state, ascending."""
    w = np.linalg.eigvalsh(reduced.gamma)
    if w.min() <= 0:
        raise NumericsError(
            f"reduced width matrix must be positive-definite, got eigenvalue {w.min():.3e}"
        )
    nu = physical_nu(symplectic_eigenvalues(reduced_covariance(reduced)))
    return (2.0 * nu - 1.0) / (2.0 * nu + 1.0)


class TruncatedSpectrum(NamedTuple):
    levels: np.ndarray
    total: float


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


# Kernel diagonalization, the second oracle: a one-site reduced density
# matrix sampled on a position grid and diagonalized, with no
# Gaussian-state algebra after the kernel, refereeing the product's xi.


def kernel_spectrum(
    gamma: float,
    beta: float,
    z: float = 0.0,
    count: int = 8,
    *,
    half_width: float | None = None,
    points: int = 401,
) -> np.ndarray:
    """Leading eigenvalues of a one-oscillator reduced density matrix,
    found by sampling its position-space kernel

        rho(x, x') = sqrt((gamma - beta) / pi)
                     * exp[i z (x^2 - x'^2) - gamma (x^2 + x'^2) / 2 + beta x x']

    on the uniform grid of ``points`` nodes over [-half_width, half_width]
    (by default 8 / sqrt(gamma - beta)) and diagonalizing.  The default
    401 points agree with 801 to about 1e-14 on the fig1 dimer at a sixth
    of the cost.  The kernel is Hermitian, so the phase factor never
    changes the spectrum; ``z = 0`` leaves it out.  Descending eigenvalues,
    length ``count``.
    """
    gamma = float(gamma)
    beta = float(beta)
    if gamma <= 0 or gamma - abs(beta) <= 0:
        raise ValueError(
            f"kernel needs gamma > |beta| >= 0 for normalizability, "
            f"got gamma={gamma:g}, beta={beta:g}"
        )
    decay = np.sqrt(gamma - beta)
    if half_width is None:
        half_width = 8.0 / decay
    if points < 400:
        raise ValueError(f"kernel grid needs at least 400 points, got {points}")
    if half_width < 6.0 / decay:
        raise ValueError(
            f"kernel grid half-width {half_width:g} is below the "
            f"resolvable support 6/sqrt(gamma - beta) = {6.0 / decay:g}"
        )
    if count < 1:
        raise ValueError("count must be at least 1")

    x = np.linspace(-half_width, half_width, points)
    dx = x[1] - x[0]
    sq = x**2
    log_mag = -0.5 * gamma * (sq[:, None] + sq[None, :]) + beta * np.outer(x, x)
    kernel = np.sqrt((gamma - beta) / np.pi) * np.exp(log_mag)
    if z != 0.0:
        kernel = kernel * np.exp(1j * z * (sq[:, None] - sq[None, :]))
    weighted = kernel * dx
    trace = float(np.trace(weighted).real)
    if abs(trace - 1.0) > 1e-4:
        raise NumericsError(
            f"discretized kernel trace {trace:.6f} deviates from 1 by more than "
            "1e-4; widen the grid or add points"
        )
    eigs = np.linalg.eigvalsh(weighted)
    return eigs[::-1][:count].astype(float)


def kernel_ladder_gap(spec: ChainSpec, partition: Partition, times) -> float:
    """Largest |kernel level - (1 - xi) xi^n|, n < 5, over ``times`` and
    over the kernel with its phase z and without, for a partition that
    keeps one site after a sudden quench: (gamma, beta, z) from
    ``partial_trace`` of the assembled state, xi from ``entropy_series``,
    on the default kernel grid."""
    if len(partition.kept) != 1:
        raise ValueError(f"the kernel referee keeps one site, got {partition.kept}")
    modes = quench_modes(spec)
    sols = [solve_sudden(li, lf) for li, lf in zip(modes.lam_pre, modes.lam_post)]
    series = entropy_series(spec, partition, np.asarray(times, dtype=float))
    worst = 0.0
    for t, (xi,) in zip(series.times, series.xi):
        reduced = partial_trace(assemble_state(modes, sols, t), partition)
        gamma, beta, z = reduced.gamma[0, 0], reduced.beta[0, 0], reduced.z[0, 0]
        ladder = (1.0 - xi) * xi ** np.arange(5)
        for phase in (z, 0.0):
            levels = kernel_spectrum(gamma, beta, phase, 5)
            worst = max(worst, float(np.abs(levels - ladder).max()))
    return worst


# High-precision references, at mpmath's working precision: the
# symplectic spectrum of a covariance, and the exact state under any
# protocol.  A mode's fundamental solutions (u1 = 1, u1' = 0 and u2 = 0,
# u2' = 1 at t = 0) are chained across the rows of its lam(t) table by
# one exact propagator per segment, and its state follows from them: times
# 2 sqrt(lam0), <x x> = u1^2 + lam0 u2^2, sym <x p> = u1 u1' + lam0 u2 u2'
# and <p p> = u1'^2 + lam0 u2'^2.  A sudden quench is the one-row table.


def mp_symplectic_eigenvalues(sigma) -> list:
    """Ascending symplectic spectrum of a covariance matrix (2m, 2m) at
    mpmath's working precision, by a route neither package spectrum
    function takes: A = L^T J L for the Cholesky factor L, and nu_j from
    the eigenvalues nu_j**2 of A^T A, each of which appears twice.
    Squaring costs nothing at 50 digits.  ``sigma`` is an mpmath matrix,
    or a float array, taken exactly."""
    if isinstance(sigma, np.ndarray):
        sigma = mpmath.matrix(sigma.tolist())
    low = mpmath.cholesky(sigma)
    a = low.T * mpmath.matrix(symplectic_form(sigma.rows // 2).tolist()) * low
    squares = sorted(mpmath.eigsy(a.T * a, eigvals_only=True))
    return [mpmath.sqrt(v) for v in squares[1::2]]


def mp_propagator(lam, slope, tau):
    """Exact propagator [[u1, u2], [u1', u2']] of u'' + (lam + slope s) u
    = 0 over s in [0, tau], the inputs taken exactly.  A constant segment
    takes cos(w tau) and tau sinc(w tau) with w = sqrt(lam), real parts
    kept, so lam <= 0 (a zero mode's lam of about +-1e-50 too) needs no
    branch; a linear one takes Ai and Bi of z = -(lam + slope s) /
    |slope|**(2/3)."""
    lam, slope, tau = (mpmath.mpf(x) for x in (lam, slope, tau))
    if slope == 0:
        w = mpmath.sqrt(lam)
        c, s = mpmath.re(mpmath.cos(w * tau)), tau * mpmath.re(mpmath.sinc(w * tau))
        return mpmath.matrix([[c, s], [-lam * s, c]])
    scale = mpmath.cbrt(abs(slope))
    dz = -mpmath.sign(slope) * scale  # dz / ds
    (ai0, aip0, bi0, bip0), (ai1, aip1, bi1, bip1) = (
        (mpmath.airyai(z), mpmath.airyai(z, 1), mpmath.airybi(z), mpmath.airybi(z, 1))
        for z in (-lam / scale**2, -(lam + slope * tau) / scale**2)
    )
    return mpmath.pi * mpmath.matrix([
        [ai1 * bip0 - bi1 * aip0, (bi1 * ai0 - ai1 * bi0) / dz],
        [dz * (aip1 * bip0 - bip1 * aip0), bip1 * ai0 - aip1 * bi0],
    ])


def mp_fundamental(knots, lams, interpolation, times) -> list:
    """Propagators from 0 to each of ``times`` of a lam(t) table: rows
    (``knots``, ``lams``), ``previous`` or ``linear`` between them, and
    the last value held past the last row."""
    knots, lams = ([mpmath.mpf(x) for x in col] for col in (knots, lams))
    slopes = [(lams[k + 1] - lams[k]) / (knots[k + 1] - knots[k])
              if interpolation == "linear" else 0 for k in range(len(knots) - 1)] + [0]
    starts = [mpmath.eye(2)]
    for k in range(len(knots) - 1):
        starts.append(mp_propagator(lams[k], slopes[k], knots[k + 1] - knots[k]) * starts[k])
    out = []
    for t in times:
        k = max(i for i, knot in enumerate(knots) if knot <= t)
        out.append(mp_propagator(lams[k], slopes[k], t - knots[k]) * starts[k])
    return out


def mp_gram(lam0, phi) -> tuple:
    """(<x x>, sym <x p>, <p p>) of a mode's state, times 2 sqrt(lam0),
    from its propagator ``phi``."""
    u1, u2, v1, v2 = phi[0, 0], phi[0, 1], phi[1, 0], phi[1, 1]
    return u1**2 + lam0 * u2**2, u1 * v1 + lam0 * u2 * v2, v1**2 + lam0 * v2**2


def _mp_covariance(vecs, lam0, phis, cols):
    """Covariance (2m, 2m) of the sites ``cols``: mode k has column k of
    ``vecs`` (sites x modes), eigenvalue ``lam0[k]`` before the protocol
    and propagator ``phis[k]``."""
    m = len(cols)
    sigma = mpmath.matrix(2 * m)
    for k, (l0, phi) in enumerate(zip(lam0, phis)):
        xx, xp, pp = mp_gram(l0, phi)
        for a, sa in enumerate(cols):
            for b, sb in enumerate(cols):
                f = vecs[sa, k] * vecs[sb, k] / (2 * mpmath.sqrt(l0))
                sigma[a, b] += f * xx
                sigma[a, m + b] += f * xp
                sigma[m + a, b] += f * xp
                sigma[m + a, m + b] += f * pp
    return sigma


def mp_mode_covariance(modes: QuenchModes, times, digits: int = 40) -> np.ndarray:
    """Full covariance stack (rows, 2n, 2n) after a sudden quench at
    ``digits`` digits from the doubles of ``modes`` (its basis ``u`` and
    eigenvalues, taken exactly), rounded to floats: the product's own
    mode data with no rounding after it."""
    with mpmath.workdps(digits):
        vecs = mpmath.matrix(modes.u.T.tolist())
        lam0 = [mpmath.mpf(x) for x in modes.lam_pre.tolist()]
        phis = [mp_fundamental([0], [lf], "previous", times) for lf in modes.lam_post.tolist()]
        return np.array([_mp_covariance(vecs, lam0, row, range(modes.n)).tolist()
                         for row in zip(*phis)], dtype=float)


def sudden_reference(spec: ChainSpec, kept, times, alphas=(1,),
                     schedule: QuenchSchedule | None = None, digits: int = 50):
    """Symplectic spectrum ``nu`` (rows, m), ascending per row, and
    ``{alpha: S_alpha}`` (rows,) of the kept sites after a quench, at
    ``digits`` digits end to end from the doubles of ``spec``,
    ``schedule`` and ``times``, returned as floats.  A sudden quench
    (``schedule=None``) is the one-row ``previous`` table of spec's final
    parameters.

    The mode basis is an mpmath ``eigsy`` of the bond Laplacian, not the
    product's closed form.  Each mode is chained through its table
    (``mp_fundamental``), the kept covariance sums the modes' states
    (``_mp_covariance``), and its spectrum comes from
    ``mp_symplectic_eigenvalues``.
    """
    if schedule is None:
        schedule = QuenchSchedule([0.0], [spec.omega_f], [spec.k_f], "previous")
    cols = [s - 1 for s in kept]
    with mpmath.workdps(digits):
        mu, vecs = mpmath.eigsy(mpmath.matrix(bond_laplacian(spec.n, spec.boundary).tolist()))
        lam0 = [mpmath.mpf(spec.omega_i) ** 2 + mpmath.mpf(spec.k_i) * x for x in mu]
        omegas, ks = ([mpmath.mpf(x) for x in col] for col in (schedule.omegas, schedule.ks))
        phis = [mp_fundamental(schedule.times,
                               [w**2 + k * x for w, k in zip(omegas, ks)],
                               schedule.interpolation, times) for x in mu]
        rows = [mp_symplectic_eigenvalues(_mp_covariance(vecs, lam0, row, cols))
                for row in zip(*phis)]
        entropies = {alpha: np.array([float(_mp_entropy(row, alpha)) for row in rows])
                     for alpha in alphas}
        nu = np.array([[float(v) for v in row] for row in rows])
    return nu, entropies


def _mp_entropy(nus, alpha):
    """S_alpha of a symplectic spectrum at the working precision."""
    terms = [(nu + 0.5, max(nu - 0.5, 0)) for nu in nus]
    if alpha == 1:
        return sum(hi * mpmath.log(hi) - (lo * mpmath.log(lo) if lo else 0) for hi, lo in terms)
    return sum(mpmath.log(hi**alpha - lo**alpha) for hi, lo in terms) / (alpha - 1)


# The quasiparticle picture of a sudden quench.


def _pair_modes(spec: ChainSpec):
    """Pair entropy s(n_q) = (n_q + 1) ln(n_q + 1) - n_q ln n_q and
    post-quench group velocity v_q = dw_f / dq = k_f sin q / w_f of the
    momenta q on the midpoints of 200,000 cells of (0, pi), where
    n_q = (w_i / w_f + w_f / w_i) / 4 - 1/2 is the post-quench occupation
    of mode q and w(q)^2 = omega^2 + 4 k sin^2(q / 2) (P. Calabrese and
    J. Cardy, J. Stat. Mech. (2005) P04010).  Both are even in q, so a
    mean over these q is a mean over the Brillouin zone."""
    q = np.pi * (np.arange(200_000) + 0.5) / 200_000
    w_i, w_f = (np.sqrt(omega**2 + 4.0 * k * np.sin(q / 2) ** 2)
                for omega, k in ((spec.omega_i, spec.k_i), (spec.omega_f, spec.k_f)))
    n = (w_i / w_f + w_f / w_i) / 4 - 0.5
    s = (n + 1) * np.log1p(n) - n * np.log(np.maximum(n, 1e-300))
    return s, spec.k_f * np.sin(q) / w_f


def pair_entropy_density(spec: ChainSpec) -> float:
    """Entropy per site that the quasiparticle pairs of a sudden quench
    carry on an infinite chain: the mean over momenta q of s(n_q)."""
    s, _ = _pair_modes(spec)
    return float(np.mean(s))


def quasiparticle_entropy(spec: ChainSpec, length: int, times) -> np.ndarray:
    """The quasiparticle law for a block of ``length`` sites in an
    infinite chain after a sudden quench,
    S_qp(t) = integral dq / 2 pi  s(n_q) min(2 |v_q| t, length):
    a pair emitted inside the block with one member outside adds s(n_q)
    (V. Alba and P. Calabrese, PNAS 114, 7947 (2017); J. Cotler et al.,
    JHEP 11 (2016) 166 for free bosons)."""
    s, v = _pair_modes(spec)
    return np.array([np.mean(s * np.minimum(2.0 * np.abs(v) * t, length)) for t in times])


# Closed forms of the chain and of the two-well map.


def periodic_eigenvalues(spec: ChainSpec, phase: Phase) -> np.ndarray:
    """Closed-form mode eigenvalues of the periodic chain, in mode order
    j = 1..N: ``omega**2 + 2 k (1 - cos(2 pi j / N))``."""
    if spec.boundary != "periodic":
        raise ValueError("closed-form eigenvalues exist only for periodic chains")
    omega, k = spec.params(phase)
    j = np.arange(1, spec.n + 1)
    return omega**2 + 2.0 * k * (1.0 - np.cos(2.0 * np.pi * j / spec.n))


def from_oscillator(omega: float, k: float) -> tuple[float, float]:
    """Inverse map: oscillator parameters (omega, k) back to (omega_bh, J)."""
    if omega < 0 or k < 0:
        raise ValueError("omega and k must be non-negative")
    omega_minus = np.sqrt(omega**2 + 2.0 * k)
    return 0.5 * (omega + omega_minus), 0.5 * (omega_minus - omega)


def mode_frequencies(omega_bh: float, hop: float) -> tuple[float, float]:
    """Normal-mode frequencies (omega_plus, omega_minus) of the dimer."""
    return omega_bh - hop, omega_bh + hop
