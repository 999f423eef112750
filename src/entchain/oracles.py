"""Independent references for the scale-factor entropy pipeline.

No product run (``simulate``, ``sweep``, ``figure``) calls this module;
``verify`` and the test suite compare the product path against it.

* Covariance dynamics.  The ground state of the pre-quench coupling
  matrix K_i has covariance sigma(0) = diag(K_i^{-1/2}, K_i^{1/2}) / 2.
  Every protocol carries it through pieces of constant K, each with its
  exact symplectic propagator: a sudden quench is one piece, a
  ``previous`` schedule one per row, and a ``linear`` schedule is cut
  into fourth-order commutator-free Magnus pieces.  No scale factor is
  evaluated.  Entropies come from the symplectic eigenvalues nu_j of
  the kept block, taken by this module's own ``symplectic_eigenvalues``
  (the positive spectrum of i sigma^(1/2) J sigma^(1/2), with the square
  root from ``eigh``; the product path uses a Cholesky factor instead),
  through a formula of their own:

      S_1 = sum_j (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2),

  and Renyi orders go through xi_j = (2 nu_j - 1) / (2 nu_j + 1).

* Kernel diagonalization.  For a single kept oscillator the reduced
  kernel rho(x, x') is an explicit function of (gamma, beta, z); sampling
  it on a uniform grid and diagonalizing the resulting matrix recovers
  the occupation ladder directly, with no Gaussian-state algebra at all.

* Gaussian-state algebra (the kernel route).  After the quench the exact
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

import numpy as np

from .chain import ChainSpec, QuenchModes, bond_laplacian, build_coupling_matrix
from .entanglement import (
    EntropySeries,
    Partition,
    _block_rows,
    _mode_sum,
    _validate_alphas,
    _validate_times,
    _validate_xi,
)
from .ermakov import ModeSolution, QuenchSchedule
from .errors import GridError, IntegrationError, NumericsError
from .gaussian import physical_nu


def symplectic_form(n: int) -> np.ndarray:
    """Block form J = [[0, I], [-I, 0]] matching the (x..., p...) ordering."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def symplectic_eigenvalues(sigma: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, ascending (reference).

    Computed as the positive spectrum of the Hermitian matrix
    i sigma^(1/2) J sigma^(1/2), which is similar to i J sigma but keeps
    the eigenproblem symmetric.  A pure state gives all values 1/2.

    ``sigma`` may be one (2m, 2m) matrix or a stack (..., 2m, 2m); the
    result has shape (..., m), and each matrix of a stack gets the same
    values as a call on that matrix alone.  One matrix that is not finite
    or not positive-definite fails the whole call.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim < 2 or sigma.shape[-1] != sigma.shape[-2] or sigma.shape[-1] % 2:
        raise ValueError("covariance matrix must be square with even dimension")
    if not np.isfinite(sigma).all():
        raise NumericsError("covariance matrix has non-finite entries")
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
    """Exact phase-space flow of a fixed coupling matrix, or of a stack.

    ``matrix(t)`` maps (x, p) at time 0 to time t; zero eigenvalues (free
    modes) are handled through the t * sinc form of sin(w t) / w.
    """

    vecs: np.ndarray
    lam: np.ndarray

    @classmethod
    def from_coupling(cls, coupling: np.ndarray) -> "SymplecticPropagator":
        coupling = np.asarray(coupling, dtype=float)
        lam, vecs = np.linalg.eigh(0.5 * (coupling + coupling.swapaxes(-1, -2)))
        scale = np.maximum(np.abs(lam).max(axis=-1, keepdims=True), 1.0)
        lam = np.where(np.abs(lam) < 1e-12 * scale, 0.0, lam)
        if lam.min() < 0:
            raise NumericsError(
                f"propagator needs a positive-semidefinite coupling matrix, "
                f"got eigenvalue {lam.min():.3e}"
            )
        return cls(vecs=vecs, lam=lam)

    def matrix(self, t, sites=None) -> np.ndarray:
        """Flow to time t: (2n, 2n) for scalar t, (T, 2n, 2n) for T times,
        one time each for a stack of couplings.  ``sites`` (0-based, any
        order) keeps only the position rows, then the momentum rows, of
        those k sites: (2k, 2n) or (T, 2k, 2n), each row equal to that row
        of the full flow."""
        return self._flow(t, sites, np.cos)

    def increment(self, t) -> np.ndarray:
        """``matrix(t)`` minus the identity, cos - 1 taken as -2 sin(w t / 2)**2:
        nothing is rounded against I, so long products of short flows stay accurate."""
        return self._flow(t, None, lambda x: -2.0 * np.sin(0.5 * x) ** 2)

    def _flow(self, t, sites, cosine) -> np.ndarray:
        t = np.asarray(t, dtype=float)[..., None]
        root = np.sqrt(self.lam)
        sin_over = t * np.sinc(root * t / np.pi)
        vecs = self.vecs
        cols = vecs.swapaxes(-1, -2)
        rows = vecs if sites is None else vecs[..., np.asarray(sites, dtype=int), :]
        k, n = rows.shape[-2:]
        flow = np.empty(np.broadcast_shapes(t.shape[:-1], vecs.shape[:-2]) + (2 * k, 2 * n))
        cos_block = flow[..., :k, :n]
        np.matmul(rows * cosine(root * t)[..., None, :], cols, out=cos_block)
        np.matmul(rows * sin_over[..., None, :], cols, out=flow[..., :k, n:])
        np.matmul(rows * (-self.lam * sin_over)[..., None, :], cols, out=flow[..., k:, :n])
        flow[..., k:, n:] = cos_block
        return flow


def _linear_pieces(schedule: QuenchSchedule, times: np.ndarray, length: float):
    """(starts, frozen) of a linear schedule's pieces: each stretch between
    breakpoints and output times, up to the last breakpoint, is cut into
    equal pieces of at most ``length``; a piece [t0, t0 + h] becomes two
    halves frozen at K(t0 + h/6) and K(t0 + 5h/6), both inside it.  For
    affine K(t) that is the fourth-order commutator-free Magnus rule
    (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).  A last
    piece holds K from there on."""
    st = schedule.times
    end = min(st[-1], times[-1])
    bounds = np.union1d(st[st < end], times[times < end])
    starts, frozen = [], []
    for a, b in zip(bounds, np.append(bounds[1:], end)):
        count = 2 * int(np.ceil((b - a) / length))
        half = (b - a) / count
        starts.append(a + half * np.arange(count))
        frozen.append(starts[-1] + half * np.tile([1 / 3, 2 / 3], count // 2))
    return np.concatenate(starts + [[end]]), np.concatenate(frozen + [[end]])


def _product(steps: np.ndarray) -> np.ndarray:
    """D with I + D = (I + steps[-1]) ... (I + steps[0]), taken pairwise."""
    while len(steps) > 1:
        even = len(steps) - len(steps) % 2
        late, early = steps[1:even:2], steps[0:even:2]
        steps = np.concatenate((late + early + late @ early, steps[even:]))
    return steps[0]


# Pieces flowed at once.  Flow stacks stay small because perfbench runs this
# oracle in the process it launches timed runs from, whose pages they count.
_CHUNK = 64


def _kept_blocks(spec: ChainSpec, schedule, pieces, times: np.ndarray, sites, rows: int):
    """Yield (block, kept-block covariances) for blocks of ``rows`` times.

    Piece j of ``pieces`` = (starts, frozen) holds K(frozen[j]), the
    schedule's linear interpolation, from starts[j] on.  The covariance is
    carried exactly from t = 0 to each piece start, and a time t in piece j
    gives F_k sigma F_k.T, F_k the kept rows of its flow over t - starts[j].
    """
    starts, frozen = pieces
    lap = bond_laplacian(spec.n, spec.boundary)

    def propagator(j) -> SymplecticPropagator:
        omega_sq = np.interp(frozen[j], schedule.times, schedule.omegas**2)
        ks = np.interp(frozen[j], schedule.times, schedule.ks)
        coupling = np.multiply.outer(omega_sq, np.eye(spec.n)) + np.multiply.outer(ks, lap)
        return SymplecticPropagator.from_coupling(coupling)

    sigma = ground_state_covariance(build_coupling_matrix(spec, "pre"))
    owner = np.searchsorted(starts, times, side="right") - 1
    current, flow_of = 0, propagator(0)
    for first in range(0, times.size, rows):
        block = slice(first, first + rows)
        kept = np.empty((owner[block].size, 2 * len(sites), 2 * len(sites)))
        cuts = [0, *np.flatnonzero(np.diff(owner[block])) + 1, kept.shape[0]]
        for a, b in zip(cuts[:-1], cuts[1:]):
            j = owner[first + a]
            if j != current:
                for chunk in range(current, j, _CHUNK):
                    span = slice(chunk, min(chunk + _CHUNK, j))
                    step = propagator(span).increment(np.diff(starts[chunk:span.stop + 1]))
                    flow = np.eye(2 * spec.n) + _product(step)
                    sigma = flow @ sigma @ flow.T
                current, flow_of = j, propagator(j)
            flow = flow_of.matrix(times[first + a:first + b] - starts[j], sites)
            kept[a:b] = flow @ sigma @ flow.swapaxes(1, 2)
        yield block, kept


# Linear pieces start _FIRST_PIECE / sqrt(max lam) long and halve at most
# _MAX_DOUBLINGS times; on the ramp the change falls 16-fold a level.
_FIRST_PIECE = 1.0
_MAX_DOUBLINGS = 10


def _linear_kept(spec, schedule, times, sites, rows, tolerance) -> np.ndarray:
    """Kept-block covariances of a linear schedule: pieces double until two
    levels agree within ``tolerance`` relative to max(1, |sigma|)."""
    lam_scale = max(float((schedule.omegas**2 + 4.0 * schedule.ks).max()), 1e-12)
    length = _FIRST_PIECE / np.sqrt(lam_scale)
    previous = None
    for level in range(_MAX_DOUBLINGS + 1):
        pieces = _linear_pieces(schedule, times, length / 2**level)
        blocks = _kept_blocks(spec, schedule, pieces, times, sites, rows)
        kept = np.concatenate([k for _, k in blocks])
        if previous is not None:
            scale = np.maximum(1.0, np.abs(kept).max(axis=(1, 2)))
            change = np.abs(kept - previous).max(axis=(1, 2)) / scale
            if change.max() <= tolerance:
                return kept
        previous = kept
    worst = int(np.argmax(change))
    raise IntegrationError(
        f"covariance flow missed tolerance {tolerance:g} after {_MAX_DOUBLINGS} "
        f"piece doublings: levels differ by {change[worst]:.3e}", time=float(times[worst])
    )


def reduce_covariance(sigma: np.ndarray, partition: Partition) -> np.ndarray:
    """Kept-block covariance (positions then momenta of the kept sites) of
    one covariance matrix or of a stack (..., 2n, 2n)."""
    n = sigma.shape[-1] // 2
    if partition.n != n:
        raise ValueError(f"partition covers {partition.n} sites but sigma has {n}")
    kp = [s - 1 for s in partition.kept]
    sel = kp + [s + n for s in kp]
    return sigma[..., sel, :][..., sel]


def covariance_entropy(nu, alphas=(1,)) -> dict[int, float | np.ndarray]:
    """Entropies of a Gaussian state from its symplectic eigenvalues.

    ``nu`` is one spectrum (m,), giving a float per order, or a stack
    (rows, m), giving an array of one entropy per row for each order."""
    nu = physical_nu(np.atleast_1d(nu))
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
    dynamics is the symplectic flow of the full coupling matrix K(t), so
    the two are independent up to shared linear-algebra primitives.  A
    sudden quench is one piece of constant K and a ``previous`` schedule
    one per row, both exact; a ``linear`` schedule doubles its Magnus
    pieces until two levels agree within ``tolerance``, or raises
    ``IntegrationError``.  Only the 2m kept rows of each output flow are
    built.  Time points are taken in blocks of ``max(1, 8192 // (2m)**2)``,
    the rule of ``entropy_series``, one stacked spectrum call each.
    """
    times = _validate_times(times)
    alphas = _validate_alphas(alphas)
    if partition.n != spec.n:
        raise ValueError(f"partition covers {partition.n} sites but the chain has {spec.n}")
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    if schedule is None:
        schedule = QuenchSchedule([0.0], [spec.omega_f], [spec.k_f], "previous")
    sites = [s - 1 for s in partition.kept]
    rows = _block_rows(2 * len(sites))
    if schedule.interpolation == "previous":
        pieces = (schedule.times, schedule.times)
        blocks = _kept_blocks(spec, schedule, pieces, times, sites, rows)
    else:
        kept = _linear_kept(spec, schedule, times, sites, rows, tolerance)
        blocks = ((slice(s, s + rows), kept[s:s + rows]) for s in range(0, times.size, rows))

    xi_out = np.empty((times.size, len(sites)))
    ent_out = {a: np.empty(times.size) for a in alphas}
    for block, kept in blocks:
        nu = physical_nu(symplectic_eigenvalues(kept))
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


# Gaussian-state algebra: the kernel route, kept as a reference for the
# per-mode covariance builder of the product path.


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
