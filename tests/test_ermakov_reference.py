"""Scale factors of linear ramps against a 40-digit Airy reference.

The package propagates u'' + lam(t) u = 0 over linear segments with Taylor
pieces and uses no Airy functions; the reference here does the opposite:
each linear segment is crossed by the exact propagator built from
mpmath's Ai and Bi, each constant stretch by cos/sin, at 40 digits.
"""

import mpmath
import numpy as np

from entchain import ChainSpec, QuenchSchedule, integrate_general
from entchain.chain import quench_modes

# The eight-site periodic ramp of the benchmark's ``ramp`` workload (seed 0).
RAMP_TABLE = [[0.0, 3.0, 2.0], [10.0, 2.0, 2.2], [20.0, 1.0, 2.4], [30.0, 0.3, 2.5]]


def _segment_propagator(lam0, slope, tau):
    """Exact 2x2 propagator of u'' + (lam0 + slope t) u = 0 over [0, tau]."""
    if slope == 0:
        root = mpmath.sqrt(lam0)
        c, s = mpmath.cos(root * tau), mpmath.sin(root * tau)
        return mpmath.matrix([[c, s / root], [-root * s, c]])
    # u = Ai(z), Bi(z) with z = -(lam0 + slope t) / |slope|**(2/3), dz/dt = dz.
    scale = mpmath.cbrt(abs(slope))
    dz = -mpmath.sign(slope) * scale
    z0 = -lam0 / scale**2
    z1 = -(lam0 + slope * tau) / scale**2
    ai0, aip0 = mpmath.airyai(z0), mpmath.airyai(z0, derivative=1)
    bi0, bip0 = mpmath.airybi(z0), mpmath.airybi(z0, derivative=1)
    ai1, aip1 = mpmath.airyai(z1), mpmath.airyai(z1, derivative=1)
    bi1, bip1 = mpmath.airybi(z1), mpmath.airybi(z1, derivative=1)
    return mpmath.pi * mpmath.matrix([
        [ai1 * bip0 - bi1 * aip0, (bi1 * ai0 - ai1 * bi0) / dz],
        [dz * (aip1 * bip0 - bip1 * aip0), bip1 * ai0 - aip1 * bi0],
    ])


def _reference(lam_initial, table_times, lams, times):
    """(b, b') at ``times`` for a linear lam(t) table, at 40 digits."""
    with mpmath.workdps(40):
        knots = [mpmath.mpf(float(x)) for x in table_times]
        values = [mpmath.mpf(float(x)) for x in lams]
        slopes = [(values[k + 1] - values[k]) / (knots[k + 1] - knots[k])
                  for k in range(len(knots) - 1)] + [mpmath.mpf(0)]
        phis = [mpmath.eye(2)]
        for k in range(len(knots) - 1):
            step = _segment_propagator(values[k], slopes[k], knots[k + 1] - knots[k])
            phis.append(step * phis[-1])
        lam0 = mpmath.mpf(float(lam_initial))
        out = []
        for t in times:
            t = mpmath.mpf(float(t))
            k = max(i for i, knot in enumerate(knots) if knot <= t)
            phi = _segment_propagator(values[k], slopes[k], t - knots[k]) * phis[k]
            b = mpmath.sqrt(phi[0, 0] ** 2 + lam0 * phi[0, 1] ** 2)
            bdot = (phi[0, 0] * phi[1, 0] + lam0 * phi[0, 1] * phi[1, 1]) / b
            out.append((float(b), float(bdot)))
        return np.array(out).T


def test_ramp_modes_against_airy_reference():
    """All eight modes of the ramp, evaluated as one stack at about 100
    points over t <= 100: b to 1e-14 relative and b' to 3e-14 absolute
    (b stays within [1, 4]).  Measured: 4.0e-15 and 1.2e-14."""
    table = np.array(RAMP_TABLE)
    spec = ChainSpec(n=8, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5)
    schedule = QuenchSchedule(*table.T, interpolation="linear")
    times = np.linspace(0.0, 100.0, 97)
    modes = quench_modes(spec)
    tables = schedule.omegas**2 + modes.mu[:, None] * schedule.ks
    b, bdot = integrate_general(modes.lam_pre, schedule.times, tables).evaluate(times)
    worst_b = worst_bdot = 0.0
    for j, (lam0, lams) in enumerate(zip(modes.lam_pre, tables)):
        b_ref, bdot_ref = _reference(lam0, schedule.times, lams, times)
        worst_b = max(worst_b, float(np.abs(b[:, j] / b_ref - 1.0).max()))
        worst_bdot = max(worst_bdot, float(np.abs(bdot[:, j] - bdot_ref).max()))
    assert worst_b <= 1e-14
    assert worst_bdot <= 3e-14


def test_long_high_frequency_ramp_keeps_its_wronskian():
    """omega 30 -> 1 over t in [0, 1000]: about 15,500 Taylor pieces, and
    the chained fundamental matrix keeps its determinant within 1e-11."""
    phis = integrate_general(900.0, [0.0, 1000.0], [900.0, 1.0], tolerance=1e-11).phis
    assert phis.shape[0] > 7000
    drift = np.abs(phis[:, 0, 0] * phis[:, 1, 1] - phis[:, 0, 1] * phis[:, 1, 0] - 1.0)
    assert drift.max() <= 1e-11
