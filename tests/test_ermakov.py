"""Scale-factor equation: Pinney's superposition over exact segment
propagators.

Sudden quenches are checked against frozen b**2 values, ODE residuals,
conservation laws, and periodicity.  General protocols are checked
against the sudden closed form, against an analytically chained
two-segment solution, and for their Wronskian error path; the Taylor
pieces of linear segments are checked against midpoint products here and
against a 40-digit Airy reference in test_ermakov_reference.py.
"""

import numpy as np
import pytest

from entchain import (
    IntegrationError,
    QuenchProtocol,
    QuenchSchedule,
    integrate_general,
    ode_residual,
    solve_sudden,
    sudden_invariant,
)
from entchain.ermakov import _PIECE_PHASE, _propagator

FIG1_MODE_PAIRS = [
    # (lam_initial, lam_final) of the two-site quench targets
    (1.0, 0.0225),
    (1.0, 17.2225),
    (25.0, 0.0225),
    (25.0, 17.2225),
]


def test_boundary_conditions_exact():
    sol = solve_sudden(1.0, 0.0225)
    b0, db0 = sol.evaluate(0.0)
    assert b0 == 1.0
    assert db0 == 0.0


def test_no_quench_is_constant():
    sol = solve_sudden(2.7, 2.7)
    t = np.linspace(0.0, 50.0, 301)
    b, db = sol.evaluate(t)
    assert np.array_equal(b, np.ones_like(t))
    assert np.array_equal(db, np.zeros_like(t))


def test_sudden_coefficients_frozen():
    # lam 1 -> 0.0225 is the slow mode of the two-site quench to 2.15
    sol = solve_sudden(1.0, 0.0225)
    # b^2 oscillates with period pi / sqrt(lam_final) between 1 and
    # lam_i / lam_f, through the mean (lam_f + lam_i) / (2 lam_f)
    period = np.pi / 0.15
    assert period == pytest.approx(20.94395102, rel=1e-9)
    assert sol.evaluate(period / 4)[0] ** 2 == pytest.approx(1.0225 / 0.045, rel=1e-14)
    assert sol.evaluate(period / 4)[0] ** 2 == pytest.approx(22.722222222222, rel=1e-12)
    assert sol.evaluate(period / 2)[0] ** 2 == pytest.approx(1.0 / 0.0225, rel=1e-14)
    assert sol.evaluate(period / 2)[0] ** 2 == pytest.approx(44.444444444444, rel=1e-12)
    t = np.linspace(0.0, 3 * period, 500)
    b, _ = sol.evaluate(t)
    b_shift, _ = sol.evaluate(t + period)
    assert np.abs(b_shift - b).max() < 1e-10


def test_free_expansion_closed_form():
    sol = solve_sudden(1.0, 0.0)
    b10, _ = sol.evaluate(10.0)
    assert b10 == pytest.approx(np.sqrt(101.0), rel=1e-14)
    t = np.linspace(0.0, 200.0, 2001)
    assert np.abs(ode_residual(sol, t)).max() < 1e-9


def test_closed_form_residual_and_invariant():
    t = np.linspace(0.0, 200.0, 2001)
    for lam_i, lam_f in FIG1_MODE_PAIRS:
        sol = solve_sudden(lam_i, lam_f)
        assert np.abs(ode_residual(sol, t)).max() < 1e-9
        # dbdot^2 + lam_f b^2 + lam_i / b^2 is conserved at lam_i + lam_f
        assert np.abs(sudden_invariant(sol, t) - (lam_i + lam_f)).max() < 1e-9


def test_positivity_guard():
    for lam_i, lam_f in ((1.0, 0.0225), (25.0, 0.0225), (0.3, 7.0)):
        sol = solve_sudden(lam_i, lam_f)
        t = np.linspace(0.0, 100.0, 5001)
        b, _ = sol.evaluate(t)
        assert b.min() > 0.0
        floor = min(lam_i, lam_f) / lam_f
        half_period = np.pi / (2.0 * np.sqrt(lam_f))
        extremes = [sol.evaluate(0.0)[0] ** 2, sol.evaluate(half_period)[0] ** 2]
        assert min(extremes) == pytest.approx(floor, rel=1e-12)
        assert b.min() ** 2 >= floor * (1.0 - 1e-12)


def test_solve_sudden_validation():
    with pytest.raises(ValueError, match="positive"):
        solve_sudden(0.0, 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        solve_sudden(1.0, -0.5)


def test_protocol_validation():
    with pytest.raises(ValueError, match="positive"):
        QuenchProtocol.general(0.0, [0.0], [1.0])
    with pytest.raises(ValueError, match="start at 0"):
        QuenchProtocol.general(1.0, [0.5], [1.0])
    with pytest.raises(ValueError, match="increasing"):
        QuenchProtocol.general(1.0, [0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="interpolation"):
        QuenchProtocol.general(1.0, [0.0], [1.0], interpolation="cubic")
    with pytest.raises(ValueError, match="non-negative"):
        QuenchProtocol.general(1.0, [0.0, 1.0], [1.0, -0.5])


def test_protocol_interpolation_rules():
    lin = QuenchProtocol.general(1.0, [0.0, 2.0], [4.0, 8.0], interpolation="linear")
    assert lin.value_at(1.0) == pytest.approx(6.0)
    assert lin.value_at(5.0) == pytest.approx(8.0)  # clamped beyond the table
    step = QuenchProtocol.general(1.0, [0.0, 2.0], [4.0, 8.0], interpolation="previous")
    assert step.value_at(1.999) == pytest.approx(4.0)
    assert step.value_at(2.5) == pytest.approx(8.0)


def test_schedule_mode_protocol():
    sched = QuenchSchedule(
        times=[0.0, 1.0, 2.0], omegas=[3.0, 2.0, 1.0], ks=[2.0, 1.0, 0.0]
    )
    assert sched.final_params == (1.0, 0.0)
    proto = sched.mode_protocol(2.0, lam_initial=13.0)
    assert np.allclose(proto.values, [13.0, 6.0, 1.0])
    assert proto.value_at(0.5) == pytest.approx(9.5)
    with pytest.raises(ValueError, match="start at t = 0"):
        QuenchSchedule(times=[1.0], omegas=[1.0], ks=[0.0])
    with pytest.raises(ValueError, match="non-negative"):
        QuenchSchedule(times=[0.0], omegas=[-1.0], ks=[0.0])
    for bad in (np.nan, np.inf):
        for samples in ([[0.0, bad], [1.0, 1.0], [0.0, 0.0]],
                        [[0.0, 1.0], [1.0, bad], [0.0, 0.0]],
                        [[0.0, 1.0], [1.0, 1.0], [bad, 0.0]]):
            with pytest.raises(ValueError, match="finite"):
                QuenchSchedule(*samples)


def test_integrate_constant_protocol():
    proto = QuenchProtocol.general(2.0, [0.0], [2.0], interpolation="previous")
    sol = integrate_general(proto, tolerance=1e-12)
    t = np.linspace(0.0, 20.0, 400)
    b, db = sol.evaluate(t)
    assert np.abs(b - 1.0).max() < 1e-9
    assert np.abs(db).max() < 1e-9


def test_integrate_matches_closed_form():
    """A constant protocol cut into segments, against the sudden closed form."""
    t = np.linspace(0.0, 100.0, 1000)
    cuts = [0.0, 13.0, 40.0, 71.5]
    for lam_i, lam_f in ((1.0, 0.0225), (25.0, 17.2225)):
        closed = solve_sudden(lam_i, lam_f)
        for interpolation in ("previous", "linear"):
            proto = QuenchProtocol.general(
                lam_i, cuts, [lam_f] * len(cuts), interpolation=interpolation
            )
            numeric = integrate_general(proto, tolerance=1e-10)
            b_ref, db_ref = closed.evaluate(t)
            b_num, db_num = numeric.evaluate(t)
            assert np.abs(b_num - b_ref).max() < 1e-8
            assert np.abs(db_num - db_ref).max() < 1e-7


def _chain_segment(lam0, lam, t_rel, u0, du0):
    """Exact b^2 evolution over one constant-lam segment.

    With u = b^2 the equation closes: u'' = -4 lam u + (2 lam0 + 2 u'^2/(4u)
    + ...) reduces to harmonic motion of u around a fixed offset, and for
    lam = 0 the curvature u'' is the conserved 2 bdot^2 + 2 lam0 / b^2.
    """
    ddu0 = du0**2 / (2.0 * u0) + 2.0 * lam0 / u0 - 2.0 * lam * u0
    if lam == 0.0:
        u = u0 + du0 * t_rel + 0.5 * ddu0 * t_rel**2
        du = du0 + ddu0 * t_rel
        return u, du
    root = 2.0 * np.sqrt(lam)
    c1 = -ddu0 / root**2
    c3 = u0 - c1
    c2 = du0 / root
    u = c3 + c1 * np.cos(root * t_rel) + c2 * np.sin(root * t_rel)
    du = root * (-c1 * np.sin(root * t_rel) + c2 * np.cos(root * t_rel))
    return u, du


def test_two_step_protocol_against_chained_closed_form():
    proto = QuenchProtocol.general(
        1.0, [0.0, 1.0], [4.0, 1.0], interpolation="previous"
    )
    numeric = integrate_general(proto, tolerance=1e-12)

    def reference(t):
        u0, du0 = 1.0, 0.0
        if t <= 1.0:
            u, du = _chain_segment(1.0, 4.0, t, u0, du0)
        else:
            u1, du1 = _chain_segment(1.0, 4.0, 1.0, u0, du0)
            u, du = _chain_segment(1.0, 1.0, t - 1.0, u1, du1)
        return np.sqrt(u), du / (2.0 * np.sqrt(u))

    for t in (0.25, 0.5, 0.99, 1.0, 1.37, 2.5, 3.0):
        b_ref, db_ref = reference(t)
        b_num, db_num = numeric.evaluate(t)
        assert abs(b_num - b_ref) < 1e-7, f"b mismatch at t={t}"
        assert abs(db_num - db_ref) < 1e-7, f"bdot mismatch at t={t}"


def test_integrate_refinement_exhaustion():
    """The Wronskian check raises at the first boundary where it fails.
    lam alternates between 1 and 25, held for 1.3 and 0.23: the
    fundamental solutions grow geometrically, and the rounding in their
    Wronskian grows with them."""
    lengths = [0.23 if k % 2 else 1.3 for k in range(11)]
    values = [25.0 if k % 2 else 1.0 for k in range(12)]
    proto = QuenchProtocol.general(1.0, np.cumsum([0.0] + lengths), values, "previous")
    with pytest.raises(IntegrationError, match="Wronskian") as err:
        integrate_general(proto, tolerance=1e-15)
    sol = integrate_general(proto, tolerance=1e-6)
    phis = sol.phis
    drift = np.abs(phis[:, 0, 0] * phis[:, 1, 1] - phis[:, 0, 1] * phis[:, 1, 0] - 1.0)
    assert 1e-15 < drift.max() < 1e-6
    assert err.value.time == proto.times[np.argmax(drift > 1e-15)]
    assert err.value.time > 0.0


def test_integrate_validation():
    proto = QuenchProtocol.sudden(1.0, 2.0)
    with pytest.raises(ValueError, match="tolerance"):
        integrate_general(proto, tolerance=0.0)


def test_second_derivative_closed_only():
    """b'' from the fundamental solutions satisfies the ODE for sudden and
    general solutions alike, across constant and linear segments."""
    t = np.linspace(0.0, 5.0, 50)
    table = ([0.0, 2.0, 3.5], [4.0, 0.5, 9.0])
    cases = [
        (solve_sudden(1.0, 4.0), np.full(t.shape, 4.0)),
        (integrate_general(QuenchProtocol.sudden(1.0, 4.0)), np.full(t.shape, 4.0)),
        (integrate_general(QuenchProtocol.general(1.0, *table)), np.interp(t, *table)),
        (
            integrate_general(QuenchProtocol.general(1.0, *table, "previous")),
            QuenchProtocol.general(1.0, *table, "previous").value_at(t),
        ),
    ]
    for sol, lam in cases:
        b, _ = sol.evaluate(t)
        assert np.abs(sol.second_derivative(t) + lam * b - 1.0 / b**3).max() < 1e-10


def _midpoint_product(lam, slope, tau, steps):
    """Product of exact constant-lam propagators at the midpoints of
    ``steps`` equal sub-steps, for arrays of segments at once."""
    h = tau / steps
    prop = np.broadcast_to(np.eye(2), lam.shape + (2, 2)).copy()
    for i in range(steps):
        mid = lam + slope * (i + 0.5) * h
        root = np.sqrt(mid.astype(complex))  # hyperbolic where lam < 0
        cos = np.cos(root * h).real
        sinw = (np.sin(root * h) / np.where(root == 0, 1.0, root)).real
        sinw = np.where(root == 0, h, sinw)
        step = np.stack([np.stack([cos, sinw], -1), np.stack([-mid * sinw, cos], -1)], -2)
        prop = step @ prop
    return prop


def _piecewise_propagator(lam, slope, tau):
    """``_propagator`` over whole segments, chained over equal pieces by
    the piece rule of ``integrate_general``, with |lam| for the rate."""
    props = []
    for lam0, s, length in zip(lam, slope, tau):
        rate = np.sqrt(max(abs(lam0), abs(lam0 + s * length))) + abs(s) ** (1.0 / 3.0)
        count = int(np.ceil(rate * length / _PIECE_PHASE))
        h = length / count
        prop = np.eye(2)
        for j in range(count):
            prop = _propagator(lam0 + s * j * h, s, h).reshape(2, 2) @ prop
        props.append(prop)
    return np.array(props)


def test_taylor_propagator_against_midpoint_reference():
    """Linear segments, tiny slopes and hyperbolic stretches (lam < 0)
    included, against an independent reference: Richardson-extrapolated
    midpoint products.  The last three segments are short in Airy units."""
    cases = [
        (lam, slope, 10.0)
        for lam in (0.0, 0.09, 9.0, 100.0)
        for slope in (1.0, -1.0, 1e-2, -1e-2, 1e-4, -1e-4, 1e-6, 1e-8)
    ] + [(0.0, 1e-30, 1.0), (0.0, 1e-15, 1.0), (0.01, 1e-6, 1e-3)]
    lam, slope, tau = np.array(cases).T
    reference = (4.0 * _midpoint_product(lam, slope, tau, 8000)
                 - _midpoint_product(lam, slope, tau, 4000)) / 3.0
    prop = _piecewise_propagator(lam, slope, tau)
    assert np.all(np.isfinite(prop))
    scale = np.abs(reference).max(axis=(1, 2))
    rel = np.abs(prop - reference).max(axis=(1, 2)) / scale
    assert rel.max() <= 1e-11, cases[int(np.argmax(rel))]


def test_general_solution_has_no_time_limit():
    """Past the last sample the final value is held: b**2 is then periodic
    with period pi / sqrt(lam_final), as far out as asked."""
    proto = QuenchProtocol.general(9.0, [0.0, 10.0, 30.0], [9.0, 4.0, 0.09])
    sol = integrate_general(proto)
    period = np.pi / 0.3
    t = np.array([31.0, 1e3, 1e4])
    b, _ = sol.evaluate(t)
    b_next, _ = sol.evaluate(t + period)
    assert np.abs(b_next - b).max() < 1e-9
    assert np.abs(ode_residual(sol, t)).max() < 1e-9


def test_grid_evaluation_matches_pointwise():
    """Each point is computed on its own from its piece's start value; a
    grid, the same grid shuffled, and single points must give the same bits."""
    proto = QuenchProtocol.general(9.0, [0.0, 10.0, 20.0, 30.0], [9.0, 4.4, 1.96, 0.39])
    sol = integrate_general(proto)
    t = np.linspace(0.0, 40.0, 401)
    b, bdot = sol.evaluate(t)
    order = np.random.default_rng(7).permutation(t.size)
    b_shuffled, bdot_shuffled = sol.evaluate(t[order])
    assert np.array_equal(b_shuffled, b[order])
    assert np.array_equal(bdot_shuffled, bdot[order])
    for i in (0, 1, 99, 100, 101, 250, 400):
        assert sol.evaluate(t[i]) == (b[i], bdot[i])
