"""Independent cross-checks for the scale-factor entropy pipeline.

Two oracles, neither of which evaluates a scale factor:

* Covariance dynamics.  The ground state of the pre-quench coupling
  matrix K_i has covariance sigma(0) = diag(K_i^{-1/2}, K_i^{1/2}) / 2.
  A sudden quench evolves it with the exact symplectic propagator of
  K_f; a general protocol integrates d sigma/dt = A sigma + sigma A^T,
  A = [[0, I], [-K(t), 0]], with fixed-step RK4 and purity-based step
  halving.  Entropies come from the symplectic eigenvalues nu_j of the
  kept block:

      S_1 = sum_j (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2),

  and Renyi orders go through xi_j = (2 nu_j - 1) / (2 nu_j + 1).

* Kernel diagonalization.  For a single kept oscillator the reduced
  kernel rho(x, x') is an explicit function of (gamma, beta, z); sampling
  it on a uniform grid and diagonalizing the resulting matrix recovers
  the occupation ladder directly, with no Gaussian-state algebra at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, bond_laplacian, build_coupling_matrix
from .entanglement import (
    EntropySeries,
    Partition,
    _block_rows,
    _mode_sum,
    _validate_alphas,
    _validate_times,
)
from .ermakov import QuenchSchedule
from .errors import GridError, IntegrationError, NumericsError
from .gaussian import symplectic_eigenvalues

# Symplectic eigenvalues may dip below the pure-state floor of 1/2 by
# roundoff; anything lower than this slack is a real violation.
_NU_SLACK = 1e-8

# Matching dead band to the xi pipeline: nu this close to 1/2 is
# eigensolver noise on a pure mode and counts as exactly 1/2.
_NU_PURE_BAND = 1e-11


def ground_state_covariance(coupling: np.ndarray) -> np.ndarray:
    """Covariance matrix (xx, xp; px, pp blocks) of the ground state of a
    positive-definite coupling matrix."""
    coupling = np.asarray(coupling, dtype=float)
    lam, vecs = np.linalg.eigh(0.5 * (coupling + coupling.T))
    if lam.min() <= 0:
        raise NumericsError(
            f"ground state needs a positive-definite coupling matrix, "
            f"got eigenvalue {lam.min():.3e}"
        )
    root = np.sqrt(lam)
    xx = 0.5 * (vecs / root) @ vecs.T
    pp = 0.5 * (vecs * root) @ vecs.T
    n = lam.size
    sigma = np.zeros((2 * n, 2 * n))
    sigma[:n, :n] = xx
    sigma[n:, n:] = pp
    return sigma


@dataclass(frozen=True)
class SymplecticPropagator:
    """Exact phase-space flow of a fixed coupling matrix.

    ``matrix(t)`` maps (x, p) at time 0 to time t; zero eigenvalues (free
    modes) are handled through the t * sinc form of sin(w t) / w.
    """

    vecs: np.ndarray
    lam: np.ndarray

    @classmethod
    def from_coupling(cls, coupling: np.ndarray) -> "SymplecticPropagator":
        coupling = np.asarray(coupling, dtype=float)
        lam, vecs = np.linalg.eigh(0.5 * (coupling + coupling.T))
        scale = max(abs(lam.max()), abs(lam.min()), 1.0)
        lam = np.where(np.abs(lam) < 1e-12 * scale, 0.0, lam)
        if lam.min() < 0:
            raise NumericsError(
                f"propagator needs a positive-semidefinite coupling matrix, "
                f"got eigenvalue {lam.min():.3e}"
            )
        return cls(vecs=vecs, lam=lam)

    def matrix(self, t) -> np.ndarray:
        """Flow to time t: (2n, 2n) for scalar t, (T, 2n, 2n) for T times."""
        t = np.asarray(t, dtype=float)[..., None]
        root = np.sqrt(self.lam)
        cos_d = np.cos(root * t)[..., None, :]
        sin_over = t * np.sinc(root * t / np.pi)
        vecs = self.vecs
        cos_block = (vecs * cos_d) @ vecs.T
        sin_block = (vecs * sin_over[..., None, :]) @ vecs.T
        neg_block = (vecs * (-self.lam * sin_over)[..., None, :]) @ vecs.T
        return np.block([[cos_block, sin_block], [neg_block, cos_block]])


def _coupling_of_time(spec: ChainSpec, schedule: QuenchSchedule):
    """K(t) for a schedule, interpolating omega**2 and k so that every
    coupling eigenvalue follows the same profile the per-mode integrator
    sees."""
    lap = bond_laplacian(spec.n, spec.boundary)
    eye = np.eye(spec.n)
    omega_sq = schedule.omegas**2
    ks = schedule.ks
    st = schedule.times

    if schedule.interpolation == "previous":
        def at(t: float) -> np.ndarray:
            idx = int(np.clip(np.searchsorted(st, t, side="right") - 1, 0, st.size - 1))
            return omega_sq[idx] * eye + ks[idx] * lap
    else:
        def at(t: float) -> np.ndarray:
            return float(np.interp(t, st, omega_sq)) * eye + float(np.interp(t, st, ks)) * lap

    return at


def _flow_derivative(sigma: np.ndarray, coupling: np.ndarray, n: int) -> np.ndarray:
    half = np.vstack((sigma[n:], -coupling @ sigma[:n]))
    return half + half.T


def integrate_covariance_general(
    spec: ChainSpec,
    schedule: QuenchSchedule,
    times,
    tolerance: float = 1e-10,
    max_refinements: int = 12,
) -> np.ndarray:
    """Covariance matrices at the requested times for a general protocol.

    Fixed-step RK4 on the full 2N x 2N covariance; steps never straddle a
    schedule breakpoint.  The step is halved until every snapshot's
    symplectic spectrum stays within ``tolerance`` of the pure-state value
    1/2 (the flow is symplectic, so any drift is integrator error).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0 or np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("times must be non-negative and sorted")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    n = spec.n
    sigma0 = ground_state_covariance(build_coupling_matrix(spec, "pre"))
    coupling_at = _coupling_of_time(spec, schedule)

    t_max = times[-1]
    interior = schedule.times[(schedule.times > 0.0) & (schedule.times < t_max)]
    bounds = np.union1d(np.union1d([0.0, t_max], interior), times)
    want = np.searchsorted(bounds, times)

    rows = _block_rows(2 * n)
    lam_scale = max(float((schedule.omegas**2 + 4.0 * schedule.ks).max()), 1e-12)
    h_target = min(0.02, 0.2 / np.sqrt(lam_scale))

    for level in range(max_refinements + 1):
        h_cap = h_target / 2**level
        snapshots = np.empty((bounds.size, 2 * n, 2 * n))
        snapshots[0] = sigma0
        sigma = sigma0
        for seg, (start, end) in enumerate(zip(bounds[:-1], bounds[1:])):
            span = end - start
            nsteps = max(1, int(np.ceil(span / h_cap)))
            h = span / nsteps
            constant = schedule.interpolation == "previous"
            if constant:
                k_mid = coupling_at(0.5 * (start + end))
            for i in range(nsteps):
                t0 = start + i * h
                if constant:
                    k_a = k_m = k_b = k_mid
                else:
                    k_a = coupling_at(t0)
                    k_m = coupling_at(t0 + 0.5 * h)
                    k_b = coupling_at(t0 + h)
                f1 = _flow_derivative(sigma, k_a, n)
                f2 = _flow_derivative(sigma + 0.5 * h * f1, k_m, n)
                f3 = _flow_derivative(sigma + 0.5 * h * f2, k_m, n)
                f4 = _flow_derivative(sigma + h * f3, k_b, n)
                sigma = sigma + (h / 6.0) * (f1 + 2.0 * (f2 + f3) + f4)
            sigma = 0.5 * (sigma + sigma.T)
            snapshots[seg + 1] = sigma

        drift = 0.0
        for start in range(0, want.size, rows):
            try:
                nu = symplectic_eigenvalues(snapshots[want[start:start + rows]])
            except NumericsError:
                drift = np.inf
                break
            drift = max(drift, float(np.abs(nu - 0.5).max()))
        if drift < tolerance:
            return snapshots[want]
    raise IntegrationError(
        f"covariance step refinement exhausted ({max_refinements} halvings) "
        f"without meeting purity tolerance {tolerance:g}",
        time=float(t_max),
    )


def _kept_coordinates(partition: Partition) -> list[int]:
    """Phase-space indices (positions, then momenta) of the kept sites."""
    kp = [s - 1 for s in partition.kept]
    return kp + [s + partition.n for s in kp]


def reduce_covariance(sigma: np.ndarray, partition: Partition) -> np.ndarray:
    """Kept-block covariance (positions then momenta of the kept sites) of
    one covariance matrix or of a stack (..., 2n, 2n)."""
    n = sigma.shape[-1] // 2
    if partition.n != n:
        raise ValueError(f"partition covers {partition.n} sites but sigma has {n}")
    sel = _kept_coordinates(partition)
    return sigma[..., sel, :][..., sel]


def _clamped_nu(sigma_reduced: np.ndarray) -> np.ndarray:
    nu = symplectic_eigenvalues(sigma_reduced)
    if nu.min() < 0.5 - _NU_SLACK:
        raise NumericsError(
            f"symplectic eigenvalue {nu.min():.10f} below the physical floor 1/2"
        )
    return np.where(nu < 0.5 + _NU_PURE_BAND, 0.5, nu)


def covariance_entropy(nu, alphas=(1,)) -> dict[int, float | np.ndarray]:
    """Entropies of a Gaussian state from its symplectic eigenvalues.

    ``nu`` is one spectrum (m,), giving a float per order, or a stack
    (rows, m), giving an array of one entropy per row for each order."""
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    if nu.size and nu.min() < 0.5 - _NU_SLACK:
        raise NumericsError(
            f"symplectic eigenvalue {nu.min():.10f} below the physical floor 1/2"
        )
    nu = np.where(nu < 0.5 + _NU_PURE_BAND, 0.5, nu)
    alphas = _validate_alphas(alphas)
    plus = nu + 0.5
    minus = nu - 0.5
    out = {}
    for alpha in alphas:
        if alpha == 1:
            mixed = minus > 0
            safe = np.where(mixed, minus, 1.0)
            terms = plus * np.log(plus) - np.where(mixed, safe * np.log(safe), 0.0)
        else:
            xi = minus / plus
            terms = (alpha * np.log1p(-xi) - np.log1p(-(xi**alpha))) / (1.0 - alpha)
        out[alpha] = _mode_sum(terms)
    return out


def covariance_series(
    spec: ChainSpec,
    partition: Partition,
    times,
    alphas=(1,),
    schedule: QuenchSchedule | None = None,
    tolerance: float = 1e-10,
) -> EntropySeries:
    """Entropy series computed purely from covariance dynamics.

    Same call shape and output type as the scale-factor pipeline, but the
    dynamics is the symplectic flow of the coupling matrix, so the two
    results are independent up to shared linear-algebra primitives.  Time
    points are taken in blocks of ``max(1, 8192 // (2n)**2)``, one stacked
    spectrum call each.  For a sudden quench the kept rows F_k of a
    block's flows give its kept-block covariances F_k sigma0 F_k.T.
    """
    times = _validate_times(times)
    alphas = _validate_alphas(alphas)
    if partition.n != spec.n:
        raise ValueError(f"partition covers {partition.n} sites but the chain has {spec.n}")

    if schedule is None:
        sigma0 = ground_state_covariance(build_coupling_matrix(spec, "pre"))
        propagator = SymplecticPropagator.from_coupling(build_coupling_matrix(spec, "post"))
        sel = _kept_coordinates(partition)
    else:
        sigmas = integrate_covariance_general(spec, schedule, times, tolerance=tolerance)

    xi_out = np.empty((times.size, len(partition.kept)))
    ent_out = {a: np.empty(times.size) for a in alphas}
    rows = _block_rows(2 * spec.n)
    for start in range(0, times.size, rows):
        block = slice(start, start + rows)
        if schedule is None:
            flow = propagator.matrix(times[block])[:, sel]
            kept = flow @ sigma0 @ flow.swapaxes(1, 2)
        else:
            kept = reduce_covariance(sigmas[block], partition)
        nu = _clamped_nu(kept)
        xi_out[block] = (2.0 * nu - 1.0) / (2.0 * nu + 1.0)
        ents = covariance_entropy(nu, alphas)
        for a in alphas:
            ent_out[a][block] = ents[a]
    return EntropySeries(times=times, xi=xi_out, entropies=ent_out)


@dataclass(frozen=True)
class KernelGrid:
    """Uniform position grid [-half_width, half_width] with ``points`` nodes."""

    half_width: float
    points: int


def kernel_spectrum(
    gamma: float,
    beta: float,
    z: float = 0.0,
    count: int = 8,
    grid: KernelGrid | None = None,
    include_phase: bool = True,
) -> np.ndarray:
    """Leading eigenvalues of a one-oscillator reduced density matrix,
    found by sampling its position-space kernel

        rho(x, x') = sqrt((gamma - beta) / pi)
                     * exp[i z (x^2 - x'^2) - gamma (x^2 + x'^2) / 2 + beta x x']

    on a uniform grid and diagonalizing.  The kernel is Hermitian, so the
    phase factor never changes the spectrum; keeping it exercises the full
    expression.  Descending eigenvalues, length ``count``.
    """
    gamma = float(gamma)
    beta = float(beta)
    if gamma <= 0 or gamma - abs(beta) <= 0:
        raise ValueError(
            f"kernel needs gamma > |beta| >= 0 for normalizability, "
            f"got gamma={gamma:g}, beta={beta:g}"
        )
    decay = np.sqrt(gamma - beta)
    if grid is None:
        grid = KernelGrid(half_width=8.0 / decay, points=801)
    if grid.points < 400:
        raise GridError(f"kernel grid needs at least 400 points, got {grid.points}")
    if grid.half_width < 6.0 / decay:
        raise GridError(
            f"kernel grid half-width {grid.half_width:g} is below the "
            f"resolvable support 6/sqrt(gamma - beta) = {6.0 / decay:g}"
        )
    if count < 1:
        raise ValueError("count must be at least 1")

    x = np.linspace(-grid.half_width, grid.half_width, grid.points)
    dx = x[1] - x[0]
    sq = x**2
    log_mag = -0.5 * gamma * (sq[:, None] + sq[None, :]) + beta * np.outer(x, x)
    kernel = np.sqrt((gamma - beta) / np.pi) * np.exp(log_mag)
    if include_phase and z != 0.0:
        kernel = kernel * np.exp(1j * z * (sq[:, None] - sq[None, :]))
    weighted = kernel * dx
    trace = float(np.trace(weighted).real)
    if abs(trace - 1.0) > 1e-4:
        raise GridError(
            f"discretized kernel trace {trace:.6f} deviates from 1 by more than "
            "1e-4; widen the grid or add points"
        )
    eigs = np.linalg.eigvalsh(weighted)
    return eigs[::-1][:count].astype(float)
