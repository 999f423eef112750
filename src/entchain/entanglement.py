"""Entanglement entropies of a kept block of sites over a time grid.

Tracing a block of sites out of the chain's pure Gaussian state leaves a
Gaussian state on the kept block, fixed by the kept block's covariance
matrix (see ``entchain.gaussian``).  Each of its symplectic eigenvalues
nu_j carries one geometric ladder of the reduced density matrix,

    xi_j = (2 nu_j - 1) / (2 nu_j + 1),    p_(n) = (1 - xi_j) xi_j**n,

and the Renyi and von Neumann entropies follow from the xi_j in closed
form.  The tests keep the Gaussian-kernel form of the same reduction as
a reference (``tests/support.py``).

A reflection of the chain that maps the kept sites onto themselves
commutes with every covariance of the quenched chain, so the even and
odd site combinations under it split the kept covariance into two
sectors of about half the size (``_mirror_sectors``).  ``entropy_series``
takes the symplectic spectrum of each sector and merges them, two
half-size eigensolves per time point instead of one full-size one; a
kept block with no such reflection is one sector, the whole block.

Rows are taken in two independent budgets, neither of which grows with
the time grid.  A chunk of about ``_CHUNK_VALUES`` scale factors
(``_chunk_rows``) evaluates b and b' of every mode and their per-mode
covariance entries in one call each, and its entropies as sums over the
mode axis.  Inside it, a block of ``_block_rows(2w)`` rows, about
``gaussian._BLOCK_ELEMENTS`` matrix elements for spectrum sectors of at
most w sites, builds each sector's covariance stack in one call, from a
site table built once per call (``gaussian._site_table``), and takes its
spectra in one call per sector.  A block whose spectrum step fails is
taken again one row at a time, so the error names its failing row; runs
that pass never pay for that.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ._record import Record, Value
from .chain import ChainSpec, quench_modes
from .ermakov import (
    DEFAULT_TOLERANCE,
    ModeSolution,
    QuenchSchedule,
    integrate_general,
    solve_sudden,  # no caller here: perfbench/child.py traces this binding by name
)
from .errors import NumericsError
from .gaussian import (
    _BLOCK_ELEMENTS,
    _covariance,
    _mode_weights,
    _site_table,
    physical_nu,
    symplectic_eigenvalues,
)

# Scale factors per evaluation chunk, whatever the chain and the block size.
_CHUNK_VALUES = 2048


class Partition(Value):
    """Bipartition of sites 1..N into a traced block and a kept block."""

    __slots__ = ("traced", "kept")

    def __init__(self, traced: tuple[int, ...], kept: tuple[int, ...]):
        super().__init__(traced, kept)
        if not self.traced or not self.kept:
            raise ValueError("both blocks of the partition must be non-empty: "
                             "it cannot trace out every site, nor none")
        sites = sorted((*self.traced, *self.kept))
        if sites != list(range(1, len(sites) + 1)):
            raise ValueError(
                "the partition's sites must be unique, its blocks disjoint, and together "
                f"they must be the sites 1..N; got traced {self.traced}, kept {self.kept}"
            )

    @property
    def n(self) -> int:
        return len(self.traced) + len(self.kept)

    @classmethod
    def from_traced(cls, traced_sites, n: int) -> "Partition":
        """Trace out ``traced_sites`` of sites 1..n and keep the rest."""
        traced = tuple(sorted(int(s) for s in traced_sites))
        if traced and not 1 <= traced[0] <= traced[-1] <= n:
            raise ValueError(f"traced sites must lie in 1..{n}, got {traced}")
        return cls(traced=traced, kept=tuple(s for s in range(1, n + 1) if s not in traced))

    @classmethod
    def second_half(cls, n: int) -> "Partition":
        """Trace out sites N//2+1 .. N."""
        return cls.from_traced(range(n // 2 + 1, n + 1), n)

    def complement(self) -> "Partition":
        return Partition(traced=self.kept, kept=self.traced)


class EntropySeries(Record):
    """Entropies on a time grid: xi has one row per time, one column per
    kept mode (ascending); ``entropies`` maps Renyi order to a series,
    with order 1 meaning the von Neumann entropy."""

    __slots__ = ("times", "xi", "entropies")

    def __init__(self, times: np.ndarray, xi: np.ndarray, entropies: dict[int, np.ndarray]):
        super().__init__(times, xi, entropies)

    @property
    def s1(self) -> np.ndarray:
        return self.entropies[1]


class UniformGrid(Value):
    """The time grid dt * k for k = 0 .. size - 1, held as its step and
    size.  Indexing makes only the values asked for: a slice
    ``[first:stop]`` is ``dt * np.arange(first, stop)``, bit for bit the
    same slice of ``dt * np.arange(size)``."""

    __slots__ = ("dt", "size")

    def __init__(self, dt: float, size: int):
        super().__init__(dt, size)
        if not (np.isfinite(self.dt) and self.dt > 0 and self.size >= 1):
            raise ValueError(f"a uniform grid needs a finite dt > 0 and at least one point, "
                             f"got dt={self.dt!r}, size={self.size!r}")

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.dt * np.arange(*index.indices(self.size))
        return self.dt * range(self.size)[index]


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
    xi = _validate_xi(xi)
    return _mode_sum((alpha * np.log1p(-xi) - np.log1p(-(xi**alpha))) / (1.0 - alpha))


def von_neumann_entropy(xi) -> float | np.ndarray:
    """Von Neumann entropy in nats, summed over modes; xi -> 0 gives 0.

    ``xi`` is one spectrum (m,), giving a float, or a stack (rows, m),
    giving one entropy per row."""
    xi = _validate_xi(xi)
    positive = xi > 0
    safe = np.where(positive, xi, 0.5)
    return _mode_sum(-np.log1p(-xi) - np.where(positive, xi / (1.0 - xi) * np.log(safe), 0.0))


def _validate_times(times):
    if isinstance(times, UniformGrid):
        return times
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if times[0] < 0:
        raise ValueError("times must be non-negative")
    if times.size > 1 and np.diff(times).min() <= 0:
        raise ValueError("times must be strictly increasing")
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
    """Time points per spectrum block of (dim, dim) matrices, at least one:
    about _BLOCK_ELEMENTS elements per stacked array, which stays in cache."""
    return max(1, _BLOCK_ELEMENTS // dim**2)


def _chunk_rows(solution: ModeSolution) -> int:
    """Time points per evaluation chunk: about _CHUNK_VALUES scale factors,
    one per distinct mode of ``solution`` but at least half its modes, so
    that a chunk's per-mode arrays hold at most about 2 * _CHUNK_VALUES
    values where many modes share one (an uncoupled chain's all do)."""
    width = max(np.size(solution.first), np.size(solution.column) // 2)
    return max(1, _CHUNK_VALUES // width)


def _mirror_sectors(n: int, boundary: str, kept) -> list[np.ndarray]:
    """Even and odd combinations of the kept sites under a reflection of
    the chain that maps the kept set onto itself.

    The reflections s -> c - s (mod n) of a ring, and s -> n + 1 - s of
    an open chain, commute with the bond Laplacian, so with every
    coupling matrix and every covariance of the quenched chain; one that
    maps the kept set onto itself commutes with the kept block.  Returns
    orthonormal columns Q_even (m, pairs + fixed sites) and Q_odd
    (m, pairs), rows in the order of ``kept``, which together make an
    orthogonal matrix Q; Q (+) Q is symplectic and splits the kept
    covariance into two blocks.  Of several such reflections the one
    fixing the fewest kept sites is taken.  Returns [] when no reflection
    maps the kept set onto itself or the one found fixes every kept site.
    """
    column = {s - 1: i for i, s in enumerate(kept)}
    best = None
    for c in range(n) if boundary == "periodic" else [n - 1]:
        if all((c - s) % n in column for s in column):
            partner = [column[(c - s) % n] for s in column]
            fixed = sum(i == j for i, j in enumerate(partner))
            if best is None or fixed < best[0]:
                best = (fixed, partner)
    if best is None or best[0] == len(column):
        return []
    partner = best[1]
    pairs = [(i, j) for i, j in enumerate(partner) if i < j]
    fixed = [i for i, j in enumerate(partner) if i == j]
    even = np.zeros((len(partner), len(pairs) + len(fixed)))
    odd = np.zeros((len(partner), len(pairs)))
    half = 0.5**0.5
    for col, (i, j) in enumerate(pairs):
        even[i, col] = even[j, col] = odd[i, col] = half
        odd[j, col] = -half
    for col, i in enumerate(fixed, start=len(pairs)):
        even[i, col] = 1.0
    return [even, odd]


def _sector_columns(spec: ChainSpec, u: np.ndarray, kept) -> list[np.ndarray]:
    """Mode-basis columns (modes x m_s) of each spectrum sector of the kept
    block: ``u_kept @ Q_s`` for the mirror sectors, or the kept columns
    themselves as one sector when the partition has no mirror symmetry."""
    u_kept = u[:, [s - 1 for s in kept]]
    return [u_kept @ q for q in _mirror_sectors(spec.n, spec.boundary, kept)] or [u_kept]


def _sector_spectrum(tables, weights: np.ndarray) -> np.ndarray:
    """Symplectic spectrum (rows, m) of the kept block, ascending per row,
    merged from the ascending spectra of its sectors, from each sector's
    ``gaussian._site_table`` (see ``_sector_columns``) and the rows'
    ``gaussian._mode_weights``."""
    nu = [symplectic_eigenvalues(_covariance(weights, table)) for table in tables]
    if len(nu) == 1:
        return nu[0]
    # Merged without np.sort, whose code costs about 0.15 MB of resident
    # memory on first use: a value's place in its row is its index plus
    # the number of values of the other sector below it (even first on ties).
    even, odd = nu
    merged = np.empty((even.shape[0], even.shape[1] + odd.shape[1]))
    below = odd[:, None, :] < even[:, :, None]
    np.put_along_axis(merged, np.arange(even.shape[1]) + below.sum(axis=2), even, axis=1)
    np.put_along_axis(merged, np.arange(odd.shape[1]) + (~below).sum(axis=1), odd, axis=1)
    return merged


def entropy_series(
    spec: ChainSpec,
    partition: Partition,
    times,
    alphas=(1,),
    schedule: QuenchSchedule | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    *,
    chunks: bool = False,
) -> EntropySeries | Iterator[EntropySeries]:
    """Entanglement entropies of the kept block at non-negative, strictly
    increasing times: an array, or a ``UniformGrid``.

    With ``schedule=None`` the quench is sudden (spec's pre -> post
    parameters), run as the one-row ``previous`` schedule
    [[0, omega_f, k_f]].  Each mode follows the schedule up to the last
    time, with the Wronskian of its scale factor checked against
    ``tolerance``.  Rows are taken in chunks and blocks (see the module
    docstring).

    The chunk loop is the one source of rows.  By default its chunks are
    collected into whole columns (times, xi and one series per order).
    With ``chunks=True`` the call solves the modes and returns an
    iterator of one ``EntropySeries`` per chunk, each computed when it is
    asked for; on a ``UniformGrid`` nothing it holds then spans the grid.
    Every row is computed the same way whatever chunk and block it falls
    in, so a grid gives bit for bit the values of its slices.  A
    ``NumericsError`` names the first time where the covariance is not
    finite or fails to factor, nu falls below 1/2, xi rounds to 1 (before
    the chunk's entropies are formed), or xi or the entropies are not all
    finite.
    """
    times = _validate_times(times)
    alphas = _validate_alphas(alphas)
    if partition.n != spec.n:
        raise ValueError(f"partition covers {partition.n} sites but the chain has {spec.n}")
    modes = quench_modes(spec)
    if schedule is None:
        schedule = QuenchSchedule([0.0], [spec.omega_f], [spec.k_f], "previous")
    lams = schedule.omegas**2 + modes.mu[:, None] * schedule.ks
    solution = integrate_general(modes.lam_pre, schedule.times, lams, schedule.interpolation,
                                 tolerance=tolerance, until=times[-1])

    sectors = _sector_columns(spec, modes.u, partition.kept)
    tables = [_site_table(cols) for cols in sectors]
    rows = _block_rows(2 * max(cols.shape[1] for cols in sectors))
    chunk = _chunk_rows(solution)
    m = len(partition.kept)
    series = _series_chunks(times, chunk, rows, m, modes.lam_pre, solution, tables, alphas)
    if chunks:
        return series
    xi_out = np.empty((times.size, m))
    ent_out = {a: np.empty(times.size) for a in alphas}
    for first, part in zip(range(0, times.size, chunk), series):
        span = slice(first, first + chunk)
        xi_out[span] = part.xi
        for a in alphas:
            ent_out[a][span] = part.entropies[a]
    return EntropySeries(times=times[:], xi=xi_out, entropies=ent_out)


def _series_chunks(times, chunk: int, rows: int, m: int, lam_pre: np.ndarray,
                   solution: ModeSolution, tables, alphas: list[int]):
    """``entropy_series``'s rows, ``chunk`` time points at a time, each
    chunk's spectra ``rows`` points at a time, for ``m`` kept sites."""
    for first in range(0, times.size, chunk):
        t = times[first:first + chunk]
        weights = _mode_weights(lam_pre, *solution.evaluate(t))
        xi = np.empty((t.size, m))
        for start in range(0, t.size, rows):
            block, when = slice(start, start + rows), t[start:start + rows]
            try:
                nu = physical_nu(_sector_spectrum(tables, weights[block]))
            except NumericsError:
                # A row's spectrum is the same alone as in its block: the
                # first row that fails alone is the block's first failure.
                for row, time in enumerate(when, start=start):
                    try:
                        physical_nu(_sector_spectrum(tables, weights[row:row + 1]))
                    except NumericsError as error:
                        raise NumericsError(f"{error}, at t = {time:g}") from None
                raise
            xi[block] = (2.0 * nu - 1.0) / (2.0 * nu + 1.0)
        saturated = (xi >= 1.0).any(axis=1)
        if saturated.any():
            raise NumericsError(
                f"xi = (2 nu - 1) / (2 nu + 1) rounds to 1 at t = {t[saturated][0]:g}: "
                "a symplectic eigenvalue nu is too large for the entropy formulas"
            )
        entropies = {
            a: von_neumann_entropy(xi) if a == 1 else renyi_entropy(xi, a) for a in alphas
        }
        finite = np.isfinite(xi).all(axis=1)
        for values in entropies.values():
            finite &= np.isfinite(values)
        if not finite.all():
            raise NumericsError(f"xi or entropies hold non-finite values at t = {t[~finite][0]:g}")
        yield EntropySeries(times=t, xi=xi, entropies=entropies)
