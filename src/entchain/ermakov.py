"""Per-mode scale-factor dynamics after a quench.

Each normal mode of the chain carries a scale factor b(t) obeying the
Ermakov equation

    b'' + lam(t) * b = lam(0) / b**3,      b(0) = 1,  b'(0) = 0,

where lam(t) is the mode's coupling-matrix eigenvalue at time t and
lam(0) is its value just before the quench (the mode starts in the ground
state of that frequency).  All of the post-quench state's time dependence
enters through (b, b').

The nonlinear equation reduces to a linear one (E. Pinney, Proc. AMS 1,
681 (1950)):

    b**2 = u1**2 + lam(0) * u2**2,      u'' + lam(t) * u = 0,

with (u1, u1') = (1, 0) and (u2, u2') = (0, 1) at t = 0.  Every protocol
here makes lam(t) piecewise constant or piecewise linear, so the
fundamental matrix Phi = [[u1, u2], [u1', u2']] crosses each segment
through an exact 2x2 propagator: cos/sin for constant lam and, for linear
lam, the Taylor series of the entire solution, summed over pieces short
enough that it is exact to roundoff.  A sudden jump lam_i -> lam_f is the
one-segment case,

    lam_f > 0:   b(t)**2 = 1 - (1 - lam_i / lam_f) * sin(sqrt(lam_f) t)**2
    lam_f == 0:  b(t)**2 = 1 + lam_i * t**2,

so b**2 is periodic with period pi / sqrt(lam_f), and the combination
b'**2 + lam_f b**2 + lam_i / b**2 is conserved (= lam_i + lam_f).

The Wronskian u1 u2' - u2 u1' equals 1 exactly.  Its drift across the
segment boundaries is the self-check of a general protocol.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ._record import Record
from .errors import IntegrationError, NumericsError

Interpolation = Literal["linear", "previous"]


class QuenchSchedule(Record):
    """Chain-parameter protocol (t, omega, k) shared by all modes.

    Projection onto a mode with bond-Laplacian eigenvalue mu gives the
    per-mode eigenvalue samples ``omega**2 + mu * k``, interpolated in
    eigenvalue space with the schedule's rule.  Every row's largest,
    ``omega**2 + 4 k``, must be finite.
    """

    __slots__ = ("times", "omegas", "ks", "interpolation")

    def __init__(self, times: np.ndarray, omegas: np.ndarray, ks: np.ndarray,
                 interpolation: Interpolation = "linear"):
        super().__init__(np.asarray(times, dtype=float), np.asarray(omegas, dtype=float),
                         np.asarray(ks, dtype=float), interpolation)
        _check_table(self.times, (self.omegas[None], self.ks[None]), self.interpolation)
        with np.errstate(over="ignore"):
            finite = np.isfinite(self.omegas * self.omegas + 4.0 * self.ks)
        if not finite.all():
            raise ValueError(
                f"row {int(np.argmin(finite))}: the largest coupling eigenvalue, "
                "omega**2 + 4 k, is not finite"
            )

    @property
    def final_params(self) -> tuple[float, float]:
        return float(self.omegas[-1]), float(self.ks[-1])


def _check_table(times: np.ndarray, tables, interpolation) -> None:
    """Rules shared by schedules and per-mode lam tables: 1-d sample times
    starting at 0 and strictly increasing, value tables of one row per
    column or mode and one sample per time, every sample finite, values
    non-negative, a known interpolation."""
    if times.ndim != 1 or times.size == 0:
        raise ValueError("table needs at least one sample time")
    if not all(np.isfinite(v).all() for v in (times, *tables)):
        raise ValueError("samples must be finite")
    if times[0] != 0.0:
        raise ValueError("sample times must start at t = 0")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("sample times must be strictly increasing")
    if any(v.shape[1:] != times.shape for v in tables):
        raise ValueError("values must match the sample times in shape")
    if any(np.any(v < 0) for v in tables):
        raise ValueError("values must be non-negative")
    if interpolation not in ("linear", "previous"):
        raise ValueError(f"unknown interpolation {interpolation!r}")


# Linear segments are cut into equal pieces no longer than
# _PIECE_PHASE / rate, rate = sqrt(max lam) + |slope|**(1/3) over the
# segment.  On a piece, u is the Taylor series of the entire solution in
# x = rate * tau <= _PIECE_PHASE; _TAYLOR_TERMS terms leave a remainder
# below roundoff (2**28 / 28! is 8.8e-22), and the largest terms,
# 2**1 / 1! = 2**2 / 2! = 2, bound the cancellation to a few units of
# roundoff.  A phase of 4 would halve the pieces, but its largest term,
# 4**4 / 4! ~ 11, about doubles the error in b and triples it in b'.
_PIECE_PHASE = 2.0
_TAYLOR_TERMS = 28

# Default largest drift of each mode's Wronskian u1 u2' - u2 u1' = 1 at a
# breakpoint (``integrate_general``, ``entropy_series`` and a config's
# ``quench.tolerance``).
DEFAULT_TOLERANCE = 1e-10

# Taylor pieces one integrate_general call may cut its table into, over
# its distinct modes: 1,048,576, past the 513,711 of a 64-site ring ramped
# from omega 30 to 1 over t = 1000.  Counted before anything is allocated.
_MAX_PIECES = 2**20

# Taylor pieces whose propagators are set up at once.  Besides the 56
# bytes a piece keeps, set-up takes about 130 bytes per piece of the mode
# and 540 per piece of the chunk (Taylor coefficients and Horner
# temporaries): 0.3 MB for 512.  Chunks of 8192 set up long tables about
# 1.5 times faster, but take 4.4 MB.
_SETUP_PIECES = 512


class ModeSolution(Record):
    """Scale factors of one mode, or of several stacked, built by
    ``integrate_general`` (a sudden quench is its one-row ``previous``
    table, one piece per column).  ``evaluate`` returns (b, b') for any
    t >= 0.

    A stack solves each distinct (lam_initial, lam(t)) once, as one
    column, and mode j takes column ``column[j]``: the two modes of a
    ring's degenerate pair share one.  The piece arrays list each
    column's pieces in turn: column c owns pieces ``first[c]`` up to the
    next column's first (or the end), and its first piece starts at 0.
    On piece k, lam(t) is ``lams[k] + slopes[k] * (t - starts[k])`` from
    ``starts[k]`` on, and a column's last piece never ends.  ``phis[k]``
    is the fundamental matrix [[u1, u2], [u1', u2']] of
    u'' + lam(t) u = 0 at ``starts[k]``.  One mode has a float
    ``lam_initial``, ``first = 0`` and ``column = 0``; a stack has one
    entry of ``lam_initial`` and ``first`` per column and one of
    ``column`` per mode.
    """

    __slots__ = ("lam_initial", "starts", "lams", "slopes", "phis", "first", "column")

    def __init__(self, lam_initial: float | np.ndarray, starts: np.ndarray, lams: np.ndarray,
                 slopes: np.ndarray, phis: np.ndarray, first: int | np.ndarray = 0,
                 column: int | np.ndarray = 0):
        super().__init__(lam_initial, starts, lams, slopes, phis, first, column)

    def evaluate(self, t):
        """(b(t), b'(t)) for scalar or array t >= 0, each of shape
        ``np.shape(t) + np.shape(column)``: (times, modes) for a stack,
        floats for one mode at one time."""
        b, bdot = self._derivatives(t, second=False)
        if b.ndim == 0:
            return float(b), float(bdot)
        return b, bdot

    def _derivatives(self, t, second: bool = True):
        """b, b' and, with ``second``, b'' and lam(t), shaped as
        ``evaluate``'s results."""
        return self._per_mode(np.shape(t), *self._columns(t, second))

    def _per_mode(self, shape, *values):
        """Each mode's column of (times, columns) arrays, shaped as
        ``evaluate``'s results for times of ``shape``."""
        return tuple(v[:, self.column].reshape(shape + np.shape(self.column)) for v in values)

    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Index of each column's first piece, and one past its last."""
        first = np.atleast_1d(self.first)
        return first, np.append(first[1:], self.starts.size)

    # Past about t = 1e154 (gapless modes) b**2 overflows; the inf and nan
    # that follow are reported once, at the end, with the first such time.
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def _columns(self, t, second: bool):
        """``_derivatives`` of each column once: arrays (times, columns)
        over the flattened t."""
        t = np.asarray(t, dtype=float).ravel()
        if np.any(t < 0):
            raise ValueError("scale factor is defined for t >= 0 only")
        first, ends = self._bounds()
        k = np.empty((t.size, first.size), dtype=np.intp)
        k[:] = first  # a column of one piece needs no lookup
        for j in np.flatnonzero(ends - first > 1):
            lo, hi = first[j], ends[j]
            k[:, j] = np.searchsorted(self.starts[lo:hi], t, side="right") + (lo - 1)
        tau = t[:, None] - self.starts[k]
        lam, slope = self.lams[k], self.slopes[k]
        # Gram matrix G = Phi diag(1, lam(0)) Phi.T at the segment start.
        # With propagator rows p (for u) and q (for u'), b**2 = p G p.T,
        # b b' = p G q.T and u1'**2 + lam(0) u2'**2 = q G q.T.
        phi = self.phis[k]
        u1, u2, v1, v2 = phi[..., 0, 0], phi[..., 0, 1], phi[..., 1, 0], phi[..., 1, 1]
        w = self.lam_initial
        gxx = u1 * u1 + w * u2 * u2
        gxv = u1 * v1 + w * u2 * v2
        gvv = v1 * v1 + w * v2 * v2
        del phi, u1, u2, v1, v2  # the dels keep a chunk's working set small
        # Constant lam: rows (cos, sin/root) and (-lam sin/root, cos),
        # written through gap = lam gxx - gvv so that lam = lam(0) on the
        # first segment gives b = 1 and b' = 0 exactly.
        cos, sinw = _harmonic(lam, tau)
        gap = lam * gxx - gvv
        sinw2 = sinw**2
        bsq = gxx - gap * sinw2 + 2.0 * gxv * cos * sinw
        bbdot = gxv * (cos**2 - lam * sinw2) - gap * sinw * cos
        if second:
            dsq = gvv + gap * lam * sinw2 - 2.0 * gxv * lam * sinw * cos
        del cos, sinw, sinw2, gap
        ramp = slope != 0.0
        if ramp.any():
            # The Taylor coefficients once per piece the times reach.  A mask
            # over the pieces, not np.unique: its sort costs about 0.5 MB of
            # resident code on first use.
            reached = k[ramp]
            mask = np.zeros(self.starts.size, dtype=bool)
            mask[reached] = True
            pieces = np.flatnonzero(mask)
            p00, p01, p10, p11 = _taylor_propagator(
                self.lams[pieces], self.slopes[pieces], tau[ramp],
                np.searchsorted(pieces, reached),
            )
            g = gxx[ramp], gxv[ramp], gvv[ramp]
            bsq[ramp] = _form(g, p00, p01, p00, p01)
            bbdot[ramp] = _form(g, p00, p01, p10, p11)
            if second:
                dsq[ramp] = _form(g, p10, p11, p10, p11)
        b = np.sqrt(bsq)
        bdot = bbdot / b
        finite = np.isfinite(b) & np.isfinite(bdot)
        if not finite.all():
            bad = ~finite.all(axis=1)
            raise NumericsError(f"scale factor b(t) is not finite at t = {t[bad].min():g}")
        if not second:
            return b, bdot
        lam = lam + slope * tau
        return b, bdot, (dsq - lam * bsq - bdot**2) / b, lam


def _form(g, p0, p1, q0, q1):
    """p G q.T for the symmetric G = [[g0, g1], [g1, g2]]."""
    return g[0] * p0 * q0 + g[1] * (p0 * q1 + p1 * q0) + g[2] * p1 * q1


def _harmonic(lam, tau):
    """cos(root tau) and sin(root tau) / root for lam = root**2 >= 0; the
    latter is tau at lam = 0."""
    root = np.sqrt(lam)
    phase = root * tau
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.cos(phase), np.where(root > 0.0, np.sin(phase) / root, tau)


def _propagator(lam, slope, tau):
    """Entries (P00, P01, P10, P11) of the propagator of
    u'' + (lam + slope t) u = 0 from t = 0 to t = tau (arrays broadcast):
    cos/sin where slope = 0, else the Taylor series in x = rate * tau, for
    rate * tau up to _PIECE_PHASE, _SETUP_PIECES pieces at a time."""
    lam, slope, tau = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (lam, slope, tau)))
    shape = lam.shape
    lam, slope, tau = lam.ravel(), slope.ravel(), tau.ravel()
    out = np.empty((4, lam.size))
    flat = slope == 0.0
    if flat.any():
        cos, sinw = _harmonic(lam[flat], tau[flat])
        out[:, flat] = cos, sinw, -lam[flat] * sinw, cos
    ramp = np.flatnonzero(~flat)
    for lo in range(0, ramp.size, _SETUP_PIECES):
        part = ramp[lo:lo + _SETUP_PIECES]
        out[:, part] = _taylor_propagator(lam[part], slope[part], tau[part],
                                          np.arange(part.size))
    return out.reshape((4,) + shape)


def _taylor_propagator(lam, slope, tau, piece):
    """(P00, P01, P10, P11) at times ``tau`` into the linear pieces
    ``piece`` (indices into ``lam`` and ``slope``, one per time)."""
    # In x = rate * tau, u'' = -(a + b x) u with |a|, |b| <= 1, and the
    # coefficients c_k of x**k obey c_(k+2) = -(a c_k + b c_(k-1)) / ((k+1)(k+2)).
    # Both columns at once: c_0 = (1, 0), c_1 = (0, 1), so the second
    # column is rate * u2.  The recursion runs once per piece, the sum
    # once per time.
    rate = np.sqrt(np.abs(lam)) + np.abs(slope) ** (1.0 / 3.0)
    a, b = lam / rate**2, slope / rate**3
    c = np.zeros((_TAYLOR_TERMS, 2) + lam.shape)
    c[0, 0] = c[1, 1] = 1.0
    for k in range(_TAYLOR_TERMS - 2):  # at k = 0, c[k - 1] = c[-1] is still zero
        c[k + 2] = (a * c[k] + b * c[k - 1]) * (-1.0 / ((k + 1) * (k + 2)))
    rate = rate[piece]
    x = rate * tau
    # Horner's rule for the sum and its x-derivative, in place.
    u = c[-1].take(piece, axis=1)
    du = np.zeros_like(u)
    for ck in c[-2::-1]:
        du *= x
        du += u
        u *= x
        u += ck.take(piece, axis=1)
    return u[0], u[1] / rate, du[0] * rate, du[1]


def _distinct(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first of each distinct row of a 2-d array, ascending,
    and the position among those of each row's first."""
    seen = {}
    firsts = [seen.setdefault(row.tobytes(), i) for i, row in enumerate(rows)]
    distinct = np.fromiter(seen.values(), dtype=np.intp, count=len(seen))
    return distinct, np.searchsorted(distinct, firsts)


def solve_sudden(lam_initial, lam_final) -> ModeSolution:
    """Closed-form scale factor for a sudden jump lam_initial -> lam_final:
    one mode for floats, or the stack of one mode per entry for 1-d arrays
    of one length.  It is ``integrate_general``'s one-row ``previous``
    table [[lam_final]] at t = 0: one piece per distinct pair, which
    ``evaluate`` gives in closed form."""
    lam0 = np.asarray(lam_initial, dtype=float)
    lams = np.asarray(lam_final, dtype=float)
    if lam0.ndim > 1 or lams.shape != lam0.shape:
        raise ValueError("lam_initial and lam_final must be floats or 1-d arrays of one length")
    return integrate_general(lam0, [0.0], lams[..., None], "previous")


def mode_checks(solution: ModeSolution, times) -> tuple[np.ndarray, np.ndarray]:
    """|b'' + lam(t) b - lam(0)/b**3| and b'**2 + lam_f b**2 + lam(0)/b**2
    on a grid, shaped as ``solution.evaluate(times)``: one evaluation of
    the mode, or of each column of a stack, its values given to every
    mode of the column.

    b'' comes from the fundamental solutions, not from the equation, so by
    Lagrange's identity the residual is lam(0) |W**2 - 1| / b**3 for the
    computed Wronskian W.  A sudden quench to lam_f conserves the second
    array at lam(0) + lam_f.
    """
    b, bdot, bdd, lam = solution._columns(times, second=True)
    w = solution.lam_initial
    lam_final = solution.lams[solution._bounds()[1] - 1]
    return solution._per_mode(np.shape(times), np.abs(bdd + lam * b - w / b**3),
                              bdot**2 + lam_final * b**2 + w / b**2)


def integrate_general(lam_initial, times, lams, interpolation: Interpolation = "linear",
                      tolerance: float = DEFAULT_TOLERANCE,
                      until: float = np.inf) -> ModeSolution:
    """Scale factor, valid for 0 <= t <= ``until``, for lam(t) sampled as
    ``lams`` at ``times`` (from 0, strictly increasing) and interpolated
    piecewise linearly (``"linear"``) or held from the previous sample
    (``"previous"``), the final value past the last sample.  The mode
    starts in the ground state of ``lam_initial``.

    The fundamental matrix is carried across each table segment by the
    segment's exact propagator; linear segments are first cut into equal
    Taylor pieces, which become breakpoints of the solution.  If its
    determinant, the Wronskian, drifts from 1 by more than ``tolerance`` at
    a breakpoint, :class:`IntegrationError` is raised carrying the first
    failing time, which can be a piece boundary inside a table segment.

    An array ``lam_initial`` of several modes, with one row of ``lams``
    per mode, gives their stack, one column per distinct pair of
    ``lam_initial`` and row, each mode bit for bit as its own call gives
    it.  The piece counts follow from the table alone, so the stack's
    arrays are allocated once at their final size and filled column by
    column: set-up never holds a column's pieces twice.  The first mode to
    fail its Wronskian check raises.

    Pieces that would start past ``until`` are not made, so the solution
    holds for 0 <= t <= ``until`` only, where it gives the uncut solution's
    values bit for bit.  The pieces made are counted before anything is
    allocated: more than ``_MAX_PIECES`` of them over all columns, or an
    infinite count, raise :class:`NumericsError`.
    """
    lam0 = np.asarray(lam_initial, dtype=float)
    if lam0.ndim > 1 or not np.all((lam0 > 0) & (lam0 < np.inf)):
        raise ValueError("lam_initial must be finite and positive (ground state before the quench)")
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    if not until >= 0:
        raise ValueError("until must be non-negative")
    times = np.asarray(times, dtype=float)
    table = np.asarray(lams, dtype=float)
    if lam0.ndim == 0:
        table = table[None]
    if table.ndim != 2 or table.shape[0] != lam0.size:
        raise ValueError("lams needs one row of samples per lam_initial")
    _check_table(times, (table,), interpolation)
    distinct, column = _distinct(np.column_stack([lam0.ravel(), table]))
    table = table[distinct]
    slopes = np.zeros(table.shape)
    if interpolation == "linear":
        slopes[:, :-1] = np.diff(table) / np.diff(times)
    # Cut each linear segment into equal pieces of rate * length at most
    # _PIECE_PHASE; the pieces are ordinary breakpoints from here on.
    lengths = np.append(np.diff(times), 0.0)
    rises = np.diff(table, append=table[:, -1:])
    rate = np.sqrt(np.maximum(table, table + rises)) + np.abs(slopes) ** (1.0 / 3.0)
    # Piece k of a segment starts a fraction k / count into it; those
    # starting past `until` are not made, bar one spare for roundoff.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        counts = np.where(slopes != 0.0, np.ceil(rate * lengths / _PIECE_PHASE), 1.0)
        reach = np.floor((until - times) / lengths * counts) + 2.0
    made = np.where(times <= until, np.fmin(counts, reach), 0.0)
    total = made.sum()
    if not total <= _MAX_PIECES:  # an infinite count too
        raise NumericsError(
            f"the lam table needs {total:.6g} Taylor pieces up to t = {until:g}, "
            f"more than {_MAX_PIECES}"
        )
    made = made.astype(int)
    sizes = made.sum(axis=1)
    first = np.cumsum(sizes) - sizes
    starts, piece_lams, piece_slopes = (np.empty(sizes.sum()) for _ in range(3))
    phis = np.empty((sizes.sum(), 2, 2))
    # Every column's first piece starts the table at its identity matrix;
    # only columns of several pieces are cut and chained.
    starts[first], piece_lams[first], piece_slopes[first] = 0.0, table[:, 0], slopes[:, 0]
    phis[first] = np.eye(2)
    for j in np.flatnonzero(sizes > 1):
        out = slice(first[j], first[j] + sizes[j])
        segment = np.repeat(np.arange(times.size), made[j])
        offset = np.repeat(np.cumsum(made[j]) - made[j], made[j])
        frac = (np.arange(segment.size) - offset) / counts[j, segment]
        starts[out] = times[segment] + frac * lengths[segment]
        piece_lams[out] = table[j, segment] + frac * rises[j, segment]
        piece_slopes[out] = slopes[j, segment]
        phis[out] = _chain(starts[out], piece_lams[out], piece_slopes[out], tolerance)
    if lam0.ndim == 0:
        return ModeSolution(lam_initial=float(lam0), starts=starts, lams=piece_lams,
                            slopes=piece_slopes, phis=phis)
    return ModeSolution(lam_initial=lam0[distinct], starts=starts, lams=piece_lams,
                        slopes=piece_slopes, phis=phis, first=first, column=column)


def _chain(times, lams, slopes, tolerance):
    """Fundamental matrices (pieces, 2, 2) at the piece starts ``times`` of
    one mode, checking the Wronskian of each against ``tolerance``."""
    # phis[k] = steps[k - 1] @ ... @ steps[0], by log-depth doubling on the
    # entries (P00, P01, P10, P11): after the pass with shift d, column k
    # holds the product of up to 2d steps.
    steps = _propagator(lams[:-1], slopes[:-1], np.diff(times))
    entries = np.concatenate([[[1.0], [0.0], [0.0], [1.0]], steps], axis=1)
    shift = 1
    while shift < times.size:
        (a1, b1, c1, d1), (a0, b0, c0, d0) = entries[:, shift:], entries[:, :-shift]
        entries[:, shift:] = (
            a1 * a0 + b1 * c0, a1 * b0 + b1 * d0, c1 * a0 + d1 * c0, c1 * b0 + d1 * d0
        )
        shift *= 2
    phis = entries.T.reshape(-1, 2, 2)
    drift = np.abs(phis[:, 0, 0] * phis[:, 1, 1] - phis[:, 0, 1] * phis[:, 1, 0] - 1.0)
    failing = ~(drift <= tolerance)
    if failing.any():
        k = int(np.argmax(failing))
        raise IntegrationError(
            f"Wronskian drifted by {drift[k]:.3e}, beyond tolerance {tolerance:g}, "
            f"at t = {times[k]:g}",
            time=float(times[k]),
        )
    return phis
