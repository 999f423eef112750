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
through an exact 2x2 propagator: cos/sin for constant lam, Airy functions
for linear lam.  A sudden jump lam_i -> lam_f is the one-segment case,

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

from .errors import IntegrationError

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
        if self.interpolation == "linear":
            # Load the Airy functions that linear segments need while the
            # schedule is read, not during the first time-grid evaluation.
            import scipy.special  # noqa: F401

    @property
    def final_params(self) -> tuple[float, float]:
        return float(self.omegas[-1]), float(self.ks[-1])

    def mode_protocol(self, mu: float, lam_initial: float) -> QuenchProtocol:
        values = self.omegas**2 + mu * self.ks
        return QuenchProtocol.general(lam_initial, self.times, values, self.interpolation)


# Linear segments are evaluated through the modulus and phase of the Airy
# functions (DLMF 9.8) once x = lam / |slope|**(2/3) exceeds this at both
# ends.  Direct Airy values lose about 1e-16 * x**1.5 of relative
# accuracy, the one-correction asymptotic forms below about 0.1 * x**-4.5;
# either stays within 2e-12 of the exact propagator at this crossover.
_PHASE_FORM_X = 350.0

# On shorter segments, in Airy units |slope|**(1/3) * tau, the direct
# Airy propagator cancels to about 3e-16 / length, while the constant-lam
# propagator at the segment midpoint is exact to length**3 / 12.
_MIDPOINT_LENGTH = 2.5e-4


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
    """Entries (P00, P01, P10, P11) of the exact propagator of
    u'' + (lam + slope t) u = 0 from t = 0 to t = tau (arrays broadcast)."""
    lam, slope, tau = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (lam, slope, tau)))
    scale = np.abs(slope) ** (1.0 / 3.0)
    short = scale * tau < _MIDPOINT_LENGTH  # every constant segment
    far = ~short & (np.minimum(lam, lam + slope * tau) >= _PHASE_FORM_X * scale**2)
    out = np.empty((4,) + lam.shape)
    for branch, mask in (
        (_midpoint_propagator, short),
        (_airy_phase_form, far),
        (_airy_direct, ~short & ~far),
    ):
        if mask.any():
            out[:, mask] = branch(lam[mask], slope[mask], tau[mask])
    return out


def _midpoint_propagator(lam, slope, tau):
    """Constant lam at the segment midpoint: exact when slope = 0."""
    mid = lam + 0.5 * slope * tau
    cos, sinw = _harmonic(mid, tau)
    return np.array([cos, sinw, -mid * sinw, cos])


def _airy_direct(lam, slope, tau):
    # Imported here, not at module load: only linear segments need it, and
    # scipy.special would be about half of the package's import time.
    from scipy.special import airy

    # u = Ai(z), Bi(z) with z = -lam(t) / |slope|**(2/3); dz/dt = dz.
    scale = np.abs(slope) ** (1.0 / 3.0)
    dz = -np.sign(slope) * scale
    # The points of a segment arrive as one run and share its start value,
    # so the start is evaluated once per run.
    z0 = -lam / scale**2
    first = np.flatnonzero(np.r_[True, z0[1:] != z0[:-1]])
    counts = np.diff(first, append=z0.size)
    ai0, aip0, bi0, bip0 = (np.repeat(v, counts) for v in airy(z0[first]))
    ai1, aip1, bi1, bip1 = airy(-(lam + slope * tau) / scale**2)
    return np.pi * np.array([
        ai1 * bip0 - bi1 * aip0,
        (bi1 * ai0 - ai1 * bi0) / dz,
        dz * (aip1 * bip0 - bip1 * aip0),
        bip1 * ai0 - aip1 * bi0,
    ])


def _airy_phase_form(lam, slope, tau):
    # Ai(-x) = M cos(theta), Bi(-x) = M sin(theta), Ai'(-x) = N cos(phi),
    # Bi'(-x) = N sin(phi), with zeta = (2/3) x**1.5 and, to first order,
    #   theta = pi/4 - zeta + (5/32) zeta / x**3,  pi sqrt(x) M**2 = 1 - (5/32) / x**3,
    #   phi = 3pi/4 - zeta - (7/32) zeta / x**3,   pi N**2 / sqrt(x) = 1 + (7/32) / x**3.
    # Only phase differences enter; zeta1 - zeta0 is written without
    # cancellation, and r = x**-1.5 = |slope| / lam**1.5.
    lam1 = lam + slope * tau
    sign = np.sign(slope)
    dzeta = sign * (2.0 / 3.0) * tau * (lam**2 + lam * lam1 + lam1**2) / (lam**1.5 + lam1**1.5)
    r0, r1 = np.abs(slope) / lam**1.5, np.abs(slope) / lam1**1.5
    m0, m1 = 1.0 - (5.0 / 32.0) * r0**2, 1.0 - (5.0 / 32.0) * r1**2
    n0, n1 = 1.0 + (7.0 / 32.0) * r0**2, 1.0 + (7.0 / 32.0) * r1**2
    ratio = (lam1 / lam) ** 0.25
    geo = (lam * lam1) ** 0.25
    return np.array([
        np.sqrt(m1 * n0) / ratio * np.cos(dzeta - (7.0 / 48.0) * r0 - (5.0 / 48.0) * r1),
        sign * np.sqrt(m0 * m1) / geo * np.sin(dzeta - (5.0 / 48.0) * (r1 - r0)),
        -sign * np.sqrt(n0 * n1) * geo * np.sin(dzeta + (7.0 / 48.0) * (r1 - r0)),
        np.sqrt(n1 * m0) * ratio * np.cos(dzeta + (7.0 / 48.0) * r1 + (5.0 / 48.0) * r0),
    ])


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
    b, _, bdd, lam = solution._derivatives(times)
    return np.abs(bdd + lam * b - solution.lam_initial / b**3)


def sudden_invariant(solution: ModeSolution, times) -> np.ndarray:
    """b'**2 + lam_f b**2 + lam_i / b**2, conserved (= lam_i + lam_f) for
    sudden quenches."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    b, bdot = solution.evaluate(times)
    return bdot**2 + solution.lams[-1] * b**2 + solution.lam_initial / b**2


def integrate_general(protocol: QuenchProtocol, tolerance: float = 1e-10) -> ModeSolution:
    """Scale factor for an arbitrary protocol, valid for all t >= 0.

    The fundamental matrix is carried across each protocol segment by the
    segment's exact propagator.  If its determinant, the Wronskian, drifts
    from 1 by more than ``tolerance`` at a segment boundary,
    :class:`IntegrationError` is raised carrying the first failing time.
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
    phis = np.empty((times.size, 2, 2))
    phis[0] = np.eye(2)
    steps = _propagator(lams[:-1], slopes[:-1], np.diff(times)).T.reshape(-1, 2, 2)
    for k, step in enumerate(steps):
        phis[k + 1] = step @ phis[k]
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
