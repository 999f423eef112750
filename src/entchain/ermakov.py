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

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import IntegrationError, NumericsError

Interpolation = Literal["linear", "previous"]


@dataclass(frozen=True)
class QuenchProtocol:
    """Time profile lam(t) of one mode's eigenvalue, for t >= 0.

    ``lam_initial`` is the eigenvalue just before t = 0; it fixes the
    initial ground state and the inverse-cube source term.  Sudden
    protocols jump to ``lam_final`` at t = 0.  General protocols sample
    lam at ``times`` (strictly increasing, starting at 0) and interpolate
    piecewise linearly (``"linear"``) or hold the previous sample
    (``"previous"``); past the last sample the final value is held.
    """

    kind: Literal["sudden", "general"]
    lam_initial: float
    lam_final: float | None = None
    times: np.ndarray | None = None
    values: np.ndarray | None = None
    interpolation: Interpolation = "linear"

    @classmethod
    def sudden(cls, lam_initial: float, lam_final: float) -> "QuenchProtocol":
        if lam_initial <= 0:
            raise ValueError("lam_initial must be positive (ground state before the quench)")
        if lam_final < 0:
            raise ValueError("lam_final must be non-negative")
        return cls(kind="sudden", lam_initial=float(lam_initial), lam_final=float(lam_final))

    @classmethod
    def general(
        cls,
        lam_initial: float,
        times,
        values,
        interpolation: Interpolation = "linear",
    ) -> "QuenchProtocol":
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if lam_initial <= 0:
            raise ValueError("lam_initial must be positive (ground state before the quench)")
        if times.ndim != 1 or times.shape != values.shape or times.size == 0:
            raise ValueError("times and values must be matching 1-d arrays")
        if times[0] != 0.0:
            raise ValueError("protocol sample times must start at 0")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("protocol sample times must be strictly increasing")
        if np.any(values < 0):
            raise ValueError("protocol lam values must be non-negative")
        if interpolation not in ("linear", "previous"):
            raise ValueError(f"unknown interpolation {interpolation!r}")
        return cls(
            kind="general",
            lam_initial=float(lam_initial),
            times=times,
            values=values,
            interpolation=interpolation,
        )

    def value_at(self, t):
        """lam(t) for t >= 0 (vectorized)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "sudden":
            out = np.full(t.shape, self.lam_final)
            return out if out.shape else float(out)
        if self.interpolation == "linear":
            return np.interp(t, self.times, self.values)
        idx = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, self.times.size - 1)
        out = self.values[idx]
        return out if out.shape else float(out)


@dataclass(frozen=True)
class QuenchSchedule:
    """Chain-parameter protocol (t, omega, k) shared by all modes.

    Projection onto a mode with bond-Laplacian eigenvalue mu gives the
    per-mode eigenvalue samples ``omega**2 + mu * k``, interpolated in
    eigenvalue space with the schedule's rule.
    """

    times: np.ndarray
    omegas: np.ndarray
    ks: np.ndarray
    interpolation: Interpolation = "linear"

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "omegas", np.asarray(self.omegas, dtype=float))
        object.__setattr__(self, "ks", np.asarray(self.ks, dtype=float))
        if self.times.ndim != 1 or self.times.size == 0:
            raise ValueError("schedule needs at least one sample time")
        if not all(np.isfinite(v).all() for v in (self.times, self.omegas, self.ks)):
            raise ValueError("schedule samples must be finite")
        if self.times[0] != 0.0:
            raise ValueError("schedule must start at t = 0")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("schedule times must be strictly increasing")
        if self.omegas.shape != self.times.shape or self.ks.shape != self.times.shape:
            raise ValueError("omegas and ks must match the sample times in shape")
        if np.any(self.omegas < 0) or np.any(self.ks < 0):
            raise ValueError("schedule omega and k values must be non-negative")
        if self.interpolation not in ("linear", "previous"):
            raise ValueError(f"unknown interpolation {self.interpolation!r}")

    @property
    def final_params(self) -> tuple[float, float]:
        return float(self.omegas[-1]), float(self.ks[-1])

    def mode_protocol(self, mu: float, lam_initial: float) -> QuenchProtocol:
        values = self.omegas**2 + mu * self.ks
        return QuenchProtocol.general(lam_initial, self.times, values, self.interpolation)


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


@dataclass(frozen=True, eq=False)
class ModeSolution:
    """One mode's scale factor.  ``evaluate`` returns (b, b') for any t >= 0.

    lam(t) is ``lams[k] + slopes[k] * (t - starts[k])`` on segment k, which
    starts at ``starts[k]`` (``starts[0] = 0``); the last segment never
    ends.  ``phis[k]`` is the fundamental matrix [[u1, u2], [u1', u2']] of
    u'' + lam(t) u = 0 at ``starts[k]``.
    """

    lam_initial: float
    starts: np.ndarray
    lams: np.ndarray
    slopes: np.ndarray
    phis: np.ndarray

    def evaluate(self, t):
        """(b(t), b'(t)) for scalar or array t >= 0."""
        b, bdot, _, _ = self._derivatives(t)
        if np.ndim(t) == 0:
            return float(b[0]), float(bdot[0])
        return b, bdot

    def second_derivative(self, t):
        """b''(t) from the fundamental solutions, through
        (b**2)'' = 2 (u1'**2 + lam(0) u2'**2) - 2 lam(t) b**2."""
        bdd = self._derivatives(t)[2]
        return float(bdd[0]) if np.ndim(t) == 0 else bdd

    # Past about t = 1e154 (gapless modes) b**2 overflows; the inf and nan
    # that follow are reported once, at the end, with the first such time.
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def _derivatives(self, t):
        """b, b', b'' and lam(t), as 1-d arrays."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t < 0):
            raise ValueError("scale factor is defined for t >= 0 only")
        k = np.searchsorted(self.starts, t, side="right") - 1
        tau = t - self.starts[k]
        lam, slope = self.lams[k], self.slopes[k]
        # Gram matrix G = Phi diag(1, lam(0)) Phi.T at the segment start.
        # With propagator rows p (for u) and q (for u'), b**2 = p G p.T,
        # b b' = p G q.T and u1'**2 + lam(0) u2'**2 = q G q.T.
        (u1, u2), (v1, v2) = self.phis[k].transpose(1, 2, 0)
        w = self.lam_initial
        gxx = u1 * u1 + w * u2 * u2
        gxv = u1 * v1 + w * u2 * v2
        gvv = v1 * v1 + w * v2 * v2
        # Constant lam: rows (cos, sin/root) and (-lam sin/root, cos),
        # written through gap = lam gxx - gvv so that lam = lam(0) on the
        # first segment gives b = 1 and b' = 0 exactly.
        cos, sinw = _harmonic(lam, tau)
        gap = lam * gxx - gvv
        bsq = gxx - gap * sinw**2 + 2.0 * gxv * cos * sinw
        bbdot = gxv * (cos**2 - lam * sinw**2) - gap * sinw * cos
        dsq = gvv + gap * lam * sinw**2 - 2.0 * gxv * lam * sinw * cos
        ramp = slope != 0.0
        if ramp.any():
            p00, p01, p10, p11 = _propagator(lam[ramp], slope[ramp], tau[ramp])
            g = gxx[ramp], gxv[ramp], gvv[ramp]
            bsq[ramp] = _form(g, p00, p01, p00, p01)
            bbdot[ramp] = _form(g, p00, p01, p10, p11)
            dsq[ramp] = _form(g, p10, p11, p10, p11)
        lam = lam + slope * tau
        b = np.sqrt(bsq)
        bdot = bbdot / b
        bdd = (dsq - lam * bsq - bdot**2) / b
        bad = ~(np.isfinite(b) & np.isfinite(bdot))
        if bad.any():
            raise NumericsError(f"scale factor b(t) is not finite at t = {t[bad].min():g}")
        return b, bdot, bdd, lam


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
    rate * tau up to _PIECE_PHASE."""
    lam, slope, tau = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (lam, slope, tau)))
    out = np.empty((4,) + lam.shape)
    flat = slope == 0.0
    if flat.any():
        cos, sinw = _harmonic(lam[flat], tau[flat])
        out[:, flat] = cos, sinw, -lam[flat] * sinw, cos
    if not flat.all():
        out[:, ~flat] = _taylor_propagator(lam[~flat], slope[~flat], tau[~flat])
    return out


def _taylor_propagator(lam, slope, tau):
    # In x = rate * tau, u'' = -(a + b x) u with |a|, |b| <= 1, and the
    # coefficients c_k of x**k obey c_(k+2) = -(a c_k + b c_(k-1)) / ((k+1)(k+2)).
    # Both columns at once: c_0 = (1, 0), c_1 = (0, 1), so the second
    # column is rate * u2.
    rate = np.sqrt(np.abs(lam)) + np.abs(slope) ** (1.0 / 3.0)
    a, b = lam / rate**2, slope / rate**3
    x = rate * tau
    c = np.zeros((_TAYLOR_TERMS, 2) + lam.shape)
    c[0, 0] = c[1, 1] = 1.0
    for k in range(_TAYLOR_TERMS - 2):  # at k = 0, c[k - 1] = c[-1] is still zero
        c[k + 2] = (a * c[k] + b * c[k - 1]) * (-1.0 / ((k + 1) * (k + 2)))
    # Horner's rule for the sum and its x-derivative.
    u, du = c[-1], np.zeros_like(c[-1])
    for ck in c[-2::-1]:
        du = du * x + u
        u = u * x + ck
    return np.array([u[0], u[1] / rate, du[0] * rate, du[1]])


def solve_sudden(lam_initial: float, lam_final: float) -> ModeSolution:
    """Closed-form scale factor for a sudden jump lam_initial -> lam_final."""
    if lam_initial <= 0:
        raise ValueError(f"lam_initial must be positive, got {lam_initial}")
    if lam_final < 0:
        raise ValueError(f"lam_final must be non-negative, got {lam_final}")
    return ModeSolution(
        lam_initial=float(lam_initial),
        starts=np.zeros(1),
        lams=np.array([float(lam_final)]),
        slopes=np.zeros(1),
        phis=np.eye(2)[None],
    )


def ode_residual(solution: ModeSolution, times) -> np.ndarray:
    """|b'' + lam(t) b - lam(0)/b**3| on a grid.

    b'' comes from the fundamental solutions, not from this equation, so
    by Lagrange's identity the residual is lam(0) |W**2 - 1| / b**3 for
    the computed Wronskian W.
    """
    return mode_checks(solution, times)[0]


def sudden_invariant(solution: ModeSolution, times) -> np.ndarray:
    """b'**2 + lam_f b**2 + lam_i / b**2, conserved (= lam_i + lam_f) for
    sudden quenches."""
    return mode_checks(solution, times)[1]


def mode_checks(solution: ModeSolution, times) -> tuple[np.ndarray, np.ndarray]:
    """``ode_residual`` and ``sudden_invariant`` on a grid, from one
    evaluation of the mode."""
    b, bdot, bdd, lam = solution._derivatives(times)
    w = solution.lam_initial
    return np.abs(bdd + lam * b - w / b**3), bdot**2 + solution.lams[-1] * b**2 + w / b**2


def integrate_general(protocol: QuenchProtocol, tolerance: float = 1e-10) -> ModeSolution:
    """Scale factor for an arbitrary protocol, valid for all t >= 0.

    The fundamental matrix is carried across each protocol segment by the
    segment's exact propagator; linear segments are first cut into equal
    Taylor pieces, which become breakpoints of the solution.  If its
    determinant, the Wronskian, drifts from 1 by more than ``tolerance`` at
    a breakpoint, :class:`IntegrationError` is raised carrying the first
    failing time, which can be a piece boundary inside a table segment.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if protocol.kind == "sudden":
        protocol = QuenchProtocol.general(
            protocol.lam_initial,
            [0.0],
            [protocol.lam_final],
            interpolation="previous",
        )
    times, lams = protocol.times, protocol.values
    slopes = np.zeros(times.size)
    if protocol.interpolation == "linear":
        slopes[:-1] = np.diff(lams) / np.diff(times)
    # Cut each linear segment into equal pieces of rate * length at most
    # _PIECE_PHASE; the pieces are ordinary breakpoints from here on.
    lengths = np.append(np.diff(times), 0.0)
    rises = np.append(np.diff(lams), 0.0)
    rate = np.sqrt(np.maximum(lams, lams + rises)) + np.abs(slopes) ** (1.0 / 3.0)
    counts = np.where(slopes != 0.0, np.ceil(rate * lengths / _PIECE_PHASE), 1.0).astype(int)
    segment = np.repeat(np.arange(times.size), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    frac = (np.arange(segment.size) - first) / counts[segment]
    times = times[segment] + frac * lengths[segment]
    lams = lams[segment] + frac * rises[segment]
    slopes = slopes[segment]
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
    return ModeSolution(
        lam_initial=protocol.lam_initial, starts=times, lams=lams, slopes=slopes, phis=phis
    )
