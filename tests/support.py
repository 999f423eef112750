"""Shared helpers for the test suite, and the references that only the
tests use: spectral period extraction and the log-size fit, the
Gaussian-state algebra of the kernel route, and closed forms of the
chain and of the two-well map.

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
    bond_laplacian,
)
from entchain.chain import Phase
from entchain.entanglement import _validate_xi
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


# High-precision references: the symplectic spectrum of a covariance, and
# the sudden quench end to end.


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


def sudden_reference(spec: ChainSpec, kept, times, alphas=(1,), digits: int = 50):
    """Symplectic spectrum ``nu`` (rows, m), ascending per row, and
    ``{alpha: S_alpha}`` (rows,) of the kept sites after a sudden quench,
    at ``digits`` digits end to end from the doubles of ``spec`` and
    ``times``, returned as floats.

    The mode basis is an mpmath ``eigsy`` of the bond Laplacian, not the
    product's closed form.  Each mode's fundamental solutions are
    u1 = cos(w t) and u2 = sin(w t) / w with w = sqrt(lam_f) (t at
    lam_f = 0; a zero mode's lam_f of about 1e-50 either way stays real),
    so b^2 = u1^2 + lam0 u2^2 and b b' = (lam0 - lam_f) u1 u2.  The kept
    covariance Sigma_A sums the modes' squeezed vacua, and its spectrum
    comes from ``mp_symplectic_eigenvalues``.
    """
    cols = [s - 1 for s in kept]
    m = len(cols)
    rows = []
    with mpmath.workdps(digits):
        mu, vecs = mpmath.eigsy(mpmath.matrix(bond_laplacian(spec.n, spec.boundary).tolist()))
        lam0 = [mpmath.mpf(spec.omega_i) ** 2 + mpmath.mpf(spec.k_i) * x for x in mu]
        lamf = [mpmath.mpf(spec.omega_f) ** 2 + mpmath.mpf(spec.k_f) * x for x in mu]
        for t in times:
            t = mpmath.mpf(t)
            sigma = mpmath.matrix(2 * m)
            for k, (l0, lf) in enumerate(zip(lam0, lamf)):
                w = mpmath.sqrt(lf)
                u1, u2 = mpmath.re(mpmath.cos(w * t)), t * mpmath.re(mpmath.sinc(w * t))
                bsq, bbd = u1**2 + l0 * u2**2, (l0 - lf) * u1 * u2
                # <x x>, sym <x p> and <p p> of the mode, times 2 sqrt(lam0)
                entries = bsq, bbd, (l0 + bbd**2) / bsq
                for a, sa in enumerate(cols):
                    for b, sb in enumerate(cols):
                        f = vecs[sa, k] * vecs[sb, k] / (2 * mpmath.sqrt(l0))
                        sigma[a, b] += f * entries[0]
                        sigma[a, m + b] += f * entries[1]
                        sigma[m + a, b] += f * entries[1]
                        sigma[m + a, m + b] += f * entries[2]
            rows.append(mp_symplectic_eigenvalues(sigma))
        entropies = {}
        for alpha in alphas:
            values = []
            for row in rows:
                total = mpmath.mpf(0)
                for nu in row:
                    hi, lo = nu + 0.5, max(nu - 0.5, 0)
                    if alpha == 1:
                        total += hi * mpmath.log(hi) - (lo * mpmath.log(lo) if lo else 0)
                    else:
                        total += mpmath.log(hi**alpha - lo**alpha) / (alpha - 1)
                values.append(float(total))
            entropies[alpha] = np.array(values)
        nu = np.array([[float(v) for v in row] for row in rows])
    return nu, entropies


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
