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
  (the positive spectrum of i F^T J F for a block factor F of sigma
  built from two half-size ``eigh`` calls, on the position block and on
  its Schur complement; the product path uses a Cholesky factor
  instead), through a formula of their own:

      S_1 = sum_j (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2),

  and Renyi orders go through xi_j = (2 nu_j - 1) / (2 nu_j + 1).

* Kernel diagonalization.  For a single kept oscillator the reduced
  kernel rho(x, x') is an explicit function of (gamma, beta, z); sampling
  it on a uniform grid and diagonalizing the resulting matrix recovers
  the occupation ladder directly, with no Gaussian-state algebra at all.
"""

from __future__ import annotations

import numpy as np

from ._record import Record, Value
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
from .gaussian import physical_nu


def symplectic_eigenvalues(sigma: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, ascending (reference).

    Factors sigma = [[X, Y], [Y^T, P]] block by block from two half-size
    ``eigh`` calls: X = V diag(x) V^T for the position block, then
    M = Y^T V diag(x^-1/2) and the Schur complement S = P - M M^T =
    W diag(s) W^T.  With F1 = V diag(sqrt(x)) and F2 = W diag(sqrt(s)),
    F = [[F1, 0], [M, F2]] satisfies F F^T = sigma, and the real
    antisymmetric matrix

        F^T J F = [[F1^T M - M^T F1, F1^T F2], [-(F1^T F2)^T, 0]]

    is orthogonally similar to sigma^(1/2) J sigma^(1/2) and so to
    J sigma: the nu_j are the positive eigenvalues of the Hermitian
    matrix i F^T J F.  A pure state gives all values 1/2.  The product
    path factors sigma by Cholesky instead.

    ``sigma`` may be one (2m, 2m) matrix or a stack (..., 2m, 2m); the
    result has shape (..., m), and each matrix of a stack gets the same
    values as a call on that matrix alone.  One matrix that is not finite
    or not positive-definite fails the whole call; sigma is
    positive-definite exactly when X and S are, and the message names
    the block that is not and its smallest eigenvalue over the stack.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim < 2 or sigma.shape[-1] != sigma.shape[-2] or sigma.shape[-1] % 2:
        raise ValueError("covariance matrix must be square with even dimension")
    if not np.isfinite(sigma).all():
        raise NumericsError("covariance matrix has non-finite entries")
    m = sigma.shape[-1] // 2
    sigma = 0.5 * (sigma + sigma.swapaxes(-1, -2))
    x, v = np.linalg.eigh(sigma[..., :m, :m])
    _require_positive(x, "its position block")
    low = sigma[..., m:, :m] @ (v / np.sqrt(x)[..., None, :])
    schur = sigma[..., m:, m:] - low @ low.swapaxes(-1, -2)
    s, w = np.linalg.eigh(0.5 * (schur + schur.swapaxes(-1, -2)))
    _require_positive(s, "the Schur complement of its position block")
    f1 = v * np.sqrt(x)[..., None, :]
    cross = f1.swapaxes(-1, -2) @ (w * np.sqrt(s)[..., None, :])
    g = f1.swapaxes(-1, -2) @ low
    a = np.zeros(sigma.shape)
    a[..., :m, :m] = g - g.swapaxes(-1, -2)
    a[..., :m, m:] = cross
    a[..., m:, :m] = -cross.swapaxes(-1, -2)
    return np.linalg.eigvalsh(1j * a)[..., m:]


def _require_positive(eigenvalues: np.ndarray, block: str) -> None:
    if eigenvalues.size and eigenvalues.min() <= 0:
        raise NumericsError(
            f"covariance matrix must be positive-definite, but {block} has "
            f"smallest eigenvalue {eigenvalues.min():.3e}"
        )


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


class SymplecticPropagator(Record):
    """Exact phase-space flow of a fixed coupling matrix, or of a stack.

    ``matrix(t)`` maps (x, p) at time 0 to time t; zero eigenvalues (free
    modes) take sin(w t) / w = t.  The sine and cosine take one rounded
    angle w t, so each mode's 2 x 2 flow keeps determinant 1 to eps even
    where w t is large.
    """

    __slots__ = ("vecs", "lam")

    def __init__(self, vecs: np.ndarray, lam: np.ndarray):
        super().__init__(vecs, lam)

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
        angle = root * t
        moving = root > 0
        sin_over = np.where(moving, np.sin(angle) / np.where(moving, root, 1.0), t)
        vecs = self.vecs
        cols = vecs.swapaxes(-1, -2)
        rows = vecs if sites is None else vecs[..., np.asarray(sites, dtype=int), :]
        k, n = rows.shape[-2:]
        flow = np.empty(np.broadcast_shapes(t.shape[:-1], vecs.shape[:-2]) + (2 * k, 2 * n))
        cos_block = flow[..., :k, :n]
        np.matmul(rows * cosine(angle)[..., None, :], cols, out=cos_block)
        np.matmul(rows * sin_over[..., None, :], cols, out=flow[..., :k, n:])
        np.matmul(rows * (-self.lam * sin_over)[..., None, :], cols, out=flow[..., k:, :n])
        flow[..., k:, n:] = cos_block
        return flow


def _linear_pieces(schedule: QuenchSchedule, times: np.ndarray, length: float, level: int):
    """(starts, frozen) of a linear schedule's pieces: each stretch between
    breakpoints and output times, up to the last breakpoint, is cut into
    ``ceil(stretch / length) * 2**level`` equal pieces, so every stretch
    doubles its pieces from one level to the next however short it is; a
    piece [t0, t0 + h] becomes two halves frozen at K(t0 + h/6) and
    K(t0 + 5h/6), both inside it.  For affine K(t) that is the
    fourth-order commutator-free Magnus rule
    (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).  A last
    piece holds K from there on."""
    st = schedule.times
    end = min(st[-1], times[-1])
    bounds = np.union1d(st[st < end], times[times < end])
    starts, frozen = [], []
    for a, b in zip(bounds, np.append(bounds[1:], end)):
        count = 2 * int(np.ceil((b - a) / length)) * 2**level
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
    levels agree within ``tolerance`` relative to max(1, |sigma|).  With no
    stretch to cut (every output time at or past the last breakpoint, or
    t = 0 alone) the one piece is exact and level 0 is the answer."""
    lam_scale = max(float((schedule.omegas**2 + 4.0 * schedule.ks).max()), 1e-12)
    length = _FIRST_PIECE / np.sqrt(lam_scale)
    previous = None
    for level in range(_MAX_DOUBLINGS + 1):
        pieces = _linear_pieces(schedule, times, length, level)
        blocks = _kept_blocks(spec, schedule, pieces, times, sites, rows)
        kept = np.concatenate([stack for _, stack in blocks])
        if pieces[0].size == 1:
            return kept
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

    Same call shape and output type as the scale-factor pipeline (a
    ``UniformGrid`` becomes its values once), but the dynamics is the
    symplectic flow of the full coupling matrix K(t), so the two are
    independent up to shared linear-algebra primitives.  A sudden quench
    is one piece of constant K and a ``previous`` schedule one per row,
    both exact; a ``linear`` schedule doubles its Magnus pieces until two
    levels agree within ``tolerance``, or raises ``IntegrationError``.
    Only the 2m kept rows of each output flow are built.  Time points are
    taken in blocks of ``_block_rows(2m)``, one stacked spectrum call each.
    """
    times = _validate_times(times)[:]
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
    for block, stack in blocks:
        nu = physical_nu(symplectic_eigenvalues(stack))
        xi_out[block] = (2.0 * nu - 1.0) / (2.0 * nu + 1.0)
        ents = covariance_entropy(nu, alphas)
        for a in alphas:
            ent_out[a][block] = ents[a]
    return EntropySeries(times=times, xi=xi_out, entropies=ent_out)


class KernelGrid(Value):
    """Uniform position grid [-half_width, half_width] with ``points`` nodes."""

    __slots__ = ("half_width", "points")

    def __init__(self, half_width: float, points: int):
        super().__init__(half_width, points)


def kernel_spectrum(
    gamma: float,
    beta: float,
    z: float = 0.0,
    count: int = 8,
    grid: KernelGrid | None = None,
) -> np.ndarray:
    """Leading eigenvalues of a one-oscillator reduced density matrix,
    found by sampling its position-space kernel

        rho(x, x') = sqrt((gamma - beta) / pi)
                     * exp[i z (x^2 - x'^2) - gamma (x^2 + x'^2) / 2 + beta x x']

    on a uniform grid and diagonalizing.  The kernel is Hermitian, so the
    phase factor never changes the spectrum; ``z = 0`` leaves it out.
    Descending eigenvalues, length ``count``.
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
    if z != 0.0:
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
