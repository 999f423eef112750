"""Scale factors of linear ramps against a 40-digit Airy reference.

The package propagates u'' + lam(t) u = 0 over linear segments with Taylor
pieces and uses no Airy functions; the reference, ``support.mp_propagator``
chained by ``support.mp_fundamental``, does the opposite: it crosses each
linear segment with the exact propagator built from mpmath's Ai and Bi.
"""

import mpmath
import numpy as np

from entchain import ChainSpec, QuenchSchedule, integrate_general
from entchain.chain import quench_modes
from support import mp_fundamental, mp_gram

# The eight-site periodic ramp of the benchmark's ``ramp`` workload (seed 0).
RAMP_TABLE = [[0.0, 3.0, 2.0], [10.0, 2.0, 2.2], [20.0, 1.0, 2.4], [30.0, 0.3, 2.5]]


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
        with mpmath.workdps(40):
            grams = [mp_gram(mpmath.mpf(lam0), phi)
                     for phi in mp_fundamental(schedule.times, lams, "linear", times)]
            b_ref = np.array([float(mpmath.sqrt(xx)) for xx, _, _ in grams])
            bdot_ref = np.array([float(xp / mpmath.sqrt(xx)) for xx, xp, _ in grams])
        worst_b = max(worst_b, float(np.abs(b[:, j] / b_ref - 1.0).max()))
        worst_bdot = max(worst_bdot, float(np.abs(bdot[:, j] - bdot_ref).max()))
    assert worst_b <= 1e-14
    assert worst_bdot <= 3e-14


def test_long_high_frequency_ramp_keeps_its_wronskian():
    """omega 30 -> 1 over t in [0, 1000]: about 15,500 Taylor pieces, and
    the chained fundamental matrix keeps its determinant within 1e-11."""
    phis = integrate_general(900.0, [0.0, 1000.0], [900.0, 1.0]).phis
    assert phis.shape[0] > 7000
    drift = np.abs(phis[:, 0, 0] * phis[:, 1, 1] - phis[:, 0, 1] * phis[:, 1, 0] - 1.0)
    assert drift.max() <= 1e-11
