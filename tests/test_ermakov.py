"""Scale-factor equation: Pinney's superposition over exact segment
propagators.

Sudden quenches are checked against frozen b**2 values, ODE residuals,
conservation laws, and periodicity.  General protocols are checked
against the sudden closed form, against an analytically chained
two-segment solution, and for their Wronskian error path; the Taylor
pieces of linear segments are checked against the 40-digit Airy
propagator of support.py, one segment at a time here and chained through
the benchmark's ramp in test_ermakov_reference.py.
"""

import tracemalloc

import mpmath
import numpy as np
import pytest

from entchain import (
    ChainSpec,
    IntegrationError,
    ModeSolution,
    NumericsError,
    QuenchSchedule,
    integrate_general,
    mode_checks,
    quench_modes,
    solve_sudden,
)
from entchain import ermakov
from entchain.ermakov import _MAX_PIECES, _PIECE_PHASE, _SETUP_PIECES, _propagator
from support import mp_propagator

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
    assert mode_checks(sol, t)[0].max() < 1e-9


def test_closed_form_residual_and_invariant():
    t = np.linspace(0.0, 200.0, 2001)
    for lam_i, lam_f in FIG1_MODE_PAIRS:
        residual, invariant = mode_checks(solve_sudden(lam_i, lam_f), t)
        assert residual.max() < 1e-9
        # dbdot^2 + lam_f b^2 + lam_i / b^2 is conserved at lam_i + lam_f
        assert np.abs(invariant - (lam_i + lam_f)).max() < 1e-9


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
    with pytest.raises(ValueError, match="positive"):
        solve_sudden(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="non-negative"):
        solve_sudden(np.array([1.0, 2.0]), np.array([1.0, -0.5]))
    with pytest.raises(ValueError, match="one length"):
        solve_sudden(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="one length"):
        solve_sudden(np.ones((2, 2)), np.ones((2, 2)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive"):
            solve_sudden(bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            solve_sudden(1.0, bad)
        with pytest.raises(ValueError, match="finite"):
            solve_sudden(np.array([1.0, 2.0]), np.array([1.0, bad]))


def _assert_solves_ode(sol, t, lam):
    """b'' from the fundamental solutions satisfies b'' + lam b = lam(0) / b**3
    for a lam(t) computed outside the solver."""
    b, _, bdd, _ = sol._derivatives(t)
    assert np.abs(bdd + lam * b - sol.lam_initial / b**3).max() < 1e-10


def _step(t, times, values):
    """lam(t) of a ``previous`` table: the last sample at or before t."""
    return np.asarray(values)[np.searchsorted(times, t, side="right") - 1]


def test_protocol_validation():
    for lam_initial in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive"):
            integrate_general(lam_initial, [0.0], [1.0])
    with pytest.raises(ValueError, match="positive"):
        integrate_general(np.array([1.0, np.inf]), [0.0], [[1.0], [1.0]])
    with pytest.raises(ValueError, match="start at t = 0"):
        integrate_general(1.0, [0.5], [1.0])
    with pytest.raises(ValueError, match="increasing"):
        integrate_general(1.0, [0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="interpolation"):
        integrate_general(1.0, [0.0], [1.0], interpolation="cubic")
    with pytest.raises(ValueError, match="non-negative"):
        integrate_general(1.0, [0.0, 1.0], [1.0, -0.5])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            integrate_general(1.0, [0.0, 1.0], [1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            integrate_general(1.0, [0.0, bad], [1.0, 2.0])


def test_protocol_interpolation_rules():
    """Linear tables interpolate lam and hold the last value past the table;
    ``previous`` tables hold each sample until the next one."""
    table = ([0.0, 2.0], [4.0, 8.0])
    t = np.array([0.0, 1.0, 1.999, 2.0, 2.5, 5.0])
    _assert_solves_ode(integrate_general(1.0, *table, "linear"), t, np.interp(t, *table))
    _assert_solves_ode(integrate_general(1.0, *table, "previous"), t, _step(t, *table))


def test_schedule_mode_protocol():
    """A mode with bond-Laplacian eigenvalue mu follows omega**2 + mu * k,
    interpolated with the schedule's rule."""
    sched = QuenchSchedule(
        times=[0.0, 1.0, 2.0], omegas=[3.0, 2.0, 1.0], ks=[2.0, 1.0, 0.0]
    )
    assert sched.final_params == (1.0, 0.0)
    values = sched.omegas**2 + 2.0 * sched.ks
    assert np.allclose(values, [13.0, 6.0, 1.0])
    sol = integrate_general(13.0, sched.times, values, sched.interpolation)
    t = np.array([0.5, 1.5, 3.0])
    _assert_solves_ode(sol, t, [9.5, 3.5, 1.0])
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
    # every row's largest coupling eigenvalue, omega**2 + 4 k, must be finite
    for omegas, ks in (([1.0, 1e200], [0.0, 0.0]), ([1.0, 1.0], [0.0, 1e308])):
        with pytest.raises(ValueError, match="row 1: the largest coupling eigenvalue"):
            QuenchSchedule([0.0, 1.0], omegas, ks)


def test_integrate_constant_protocol():
    sol = integrate_general(2.0, [0.0], [2.0], interpolation="previous", tolerance=1e-12)
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
            numeric = integrate_general(
                lam_i, cuts, [lam_f] * len(cuts), interpolation, tolerance=1e-10
            )
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
    numeric = integrate_general(1.0, [0.0, 1.0], [4.0, 1.0], "previous", tolerance=1e-12)

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
    times = np.cumsum([0.0] + lengths)
    with pytest.raises(IntegrationError, match="Wronskian") as err:
        integrate_general(1.0, times, values, "previous", tolerance=1e-15)
    sol = integrate_general(1.0, times, values, "previous", tolerance=1e-6)
    phis = sol.phis
    drift = np.abs(phis[:, 0, 0] * phis[:, 1, 1] - phis[:, 0, 1] * phis[:, 1, 0] - 1.0)
    assert 1e-15 < drift.max() < 1e-6
    assert err.value.time == times[np.argmax(drift > 1e-15)]
    assert err.value.time > 0.0


def test_degenerate_modes_share_one_column():
    """A 32-site ring has 17 distinct modes: its stacks, ramped or sudden,
    hold 17 columns (the ramp's pieces once each), and both modes of each
    degenerate pair get, bit for bit, what their own one-mode call gives."""
    spec = ChainSpec(n=32, omega_i=30.0, k_i=5.0, omega_f=1.0, k_f=5.0)
    modes = quench_modes(spec)
    times = [0.0, 100.0]
    lams = np.array([30.0, 1.0])**2 + modes.mu[:, None] * 5.0
    t = np.concatenate([np.linspace(0.0, 110.0, 221), [1e3]])
    pairs = np.flatnonzero(np.diff(modes.mu) == 0.0)
    assert pairs.size == 15
    for stack, singles in (
        (integrate_general(modes.lam_pre, times, lams),
         [integrate_general(li, times, row) for li, row in zip(modes.lam_pre, lams)]),
        (solve_sudden(modes.lam_pre, modes.lam_post),
         [solve_sudden(li, lf) for li, lf in zip(modes.lam_pre, modes.lam_post)]),
    ):
        assert stack.first.size == stack.lam_initial.size == 17
        assert stack.starts.size == sum(singles[j].starts.size for j in range(32)
                                        if j == 0 or j - 1 not in pairs)
        assert np.array_equal(stack.column[pairs], stack.column[pairs + 1])
        _assert_pieces_match(stack, singles)
        _assert_columns_match(stack, singles, t)


def test_one_row_table_is_set_up_without_chaining(monkeypatch):
    """Every column's first piece is written in one assignment, and only
    columns of several pieces are chained: a one-row table on a 512-site
    ring (257 distinct modes) makes no ``_chain`` call, with either
    interpolation, and is ``solve_sudden``'s stack field for field; a
    two-row table chains each column once."""
    modes = quench_modes(ChainSpec(n=512, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5))
    calls = []
    chain = ermakov._chain
    monkeypatch.setattr(ermakov, "_chain", lambda *args: calls.append(1) or chain(*args))
    sudden = solve_sudden(modes.lam_pre, modes.lam_post)
    for interpolation in ("previous", "linear"):
        table = integrate_general(modes.lam_pre, [0.0], modes.lam_post[:, None], interpolation)
        for field in ModeSolution.__slots__:
            assert np.array_equal(getattr(table, field), getattr(sudden, field))
    assert sudden.first.size == 257 and calls == []
    lams = np.column_stack([modes.lam_pre, modes.lam_post])
    integrate_general(modes.lam_pre, [0.0, 1.0], lams, "previous")
    assert len(calls) == 257


def test_one_piece_columns_need_no_lookup(monkeypatch):
    """``evaluate`` looks pieces up only in columns of several: a sudden
    stack of 64 distinct modes, evaluated and checked on a grid, makes no
    ``np.searchsorted`` call (one per column before)."""
    lam0 = 1.0 + np.arange(64) / 64.0
    stack = solve_sudden(lam0, 0.5 * lam0[::-1])
    assert stack.first.size == 64
    calls = []
    searchsorted = np.searchsorted
    monkeypatch.setattr(np, "searchsorted",
                        lambda *args, **kwargs: calls.append(1) or searchsorted(*args, **kwargs))
    t = np.linspace(0.0, 30.0, 301)
    stack.evaluate(t)
    mode_checks(stack, t)
    assert calls == []


def test_integrate_validation():
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="tolerance"):
            integrate_general(1.0, [0.0], [2.0], tolerance=bad)


def test_long_table_sets_up_in_chunks(monkeypatch):
    """A mode's Taylor propagators are set up ``_SETUP_PIECES`` at a time:
    one mode ramped over 303,557 pieces peaks below 200 bytes per piece
    (56 of them kept), where setting them up at once peaked at 682, and
    the chunks give the bits of all pieces at once."""
    tracemalloc.start()
    try:
        sol = integrate_general(900.0, [0.0, 20000.0], [900.0, 1.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.starts.size == 303_557
    assert peak < 200 * sol.starts.size
    span = slice(0, 5 * _SETUP_PIECES // 2)
    pieces = sol.lams[span], sol.slopes[span], np.diff(sol.starts)[span]
    chunked = _propagator(*pieces)
    monkeypatch.setattr(ermakov, "_SETUP_PIECES", sol.starts.size)
    assert np.array_equal(_propagator(*pieces), chunked)


def test_piece_count_is_capped_before_allocation(monkeypatch):
    """Pieces are counted from the table before any is allocated: more
    than ``_MAX_PIECES`` over all distinct modes, or an infinite count, is
    a numerical failure that names both numbers.  A repeated mode makes
    no pieces of its own."""
    monkeypatch.setattr(ermakov, "_MAX_PIECES", 50)
    times, lams = [0.0, 50.0], [1.0, 0.0]  # 32 pieces, rate * length / _PIECE_PHASE = 31.8
    assert integrate_general(1.0, times, lams).starts.size == 33  # and the last one
    assert integrate_general([1.0, 1.0], times, [lams, lams]).starts.size == 33
    with pytest.raises(NumericsError, match="needs 66 Taylor pieces up to t = inf, more than 50$"):
        integrate_general([1.0, 2.0], times, [lams, lams])
    monkeypatch.undo()
    assert _MAX_PIECES >= 513_711  # a 64-site ring ramped from omega 30 to 1 over t = 1000
    with pytest.raises(NumericsError, match=f"needs inf Taylor pieces up to t = 1, more than "
                                            f"{_MAX_PIECES}"):
        integrate_general(1.0, [0.0, 1e300], [1.0, 1e300], until=1.0)


@pytest.mark.parametrize("interpolation", ["linear", "previous"])
def test_pieces_past_until_are_not_made(interpolation):
    """Cut at ``until``, a table keeps only the pieces that start up to it
    (one spare), and gives the uncut solution's values bit for bit there;
    at ``until = 0`` a flat ``linear`` row keeps one piece next to ramps
    that keep two."""
    times, lams = [0.0, 10.0, 20.0], [[9.0, 4.0, 1.0], [13.0, 6.0, 1.5], [2.0, 2.0, 2.0]]
    full = integrate_general([9.0, 13.0, 2.0], times, lams, interpolation)
    t = np.linspace(0.0, 12.3, 500)
    for until in (12.3, 10.0, 0.0):
        cut = integrate_general([9.0, 13.0, 2.0], times, lams, interpolation, until=until)
        assert np.all(cut.starts <= until + 1.0) and cut.starts.size < full.starts.size
        if until == 0.0 and interpolation == "linear":
            assert np.diff(cut.first, append=cut.starts.size).tolist() == [2, 2, 1]
        shown = t[t <= until]
        assert all(np.array_equal(c, f) for c, f in zip(cut.evaluate(shown), full.evaluate(shown)))
    # a far row costs nothing before it is reached
    far = integrate_general(1.0, [0.0, 1.0, 1e300], [1.0, 4.0, 9.0], interpolation, until=2.0)
    assert far.starts.size < 10
    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError, match="until"):
            integrate_general(1.0, [0.0], [1.0], until=bad)


def test_second_derivative_closed_only():
    """b'' from the fundamental solutions satisfies the ODE for sudden and
    general solutions alike, across constant and linear segments."""
    t = np.linspace(0.0, 5.0, 50)
    table = ([0.0, 2.0, 3.5], [4.0, 0.5, 9.0])
    cases = [
        (solve_sudden(1.0, 4.0), np.full(t.shape, 4.0)),
        (integrate_general(1.0, [0.0], [4.0], "previous"), np.full(t.shape, 4.0)),
        (integrate_general(1.0, *table), np.interp(t, *table)),
        (integrate_general(1.0, *table, "previous"), _step(t, *table)),
    ]
    for sol, lam in cases:
        _assert_solves_ode(sol, t, lam)


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


def test_taylor_propagator_against_airy_reference():
    """Linear segments, tiny slopes and hyperbolic stretches (lam < 0)
    included, against an independent reference: the exact propagator of
    ``support.mp_propagator``, from Ai and Bi at 40 digits.  The last
    three segments are short in Airy units.  Measured: 1.2e-14."""
    cases = [
        (lam, slope, 10.0)
        for lam in (0.0, 0.09, 9.0, 100.0)
        for slope in (1.0, -1.0, 1e-2, -1e-2, 1e-4, -1e-4, 1e-6, 1e-8)
    ] + [(0.0, 1e-30, 1.0), (0.0, 1e-15, 1.0), (0.01, 1e-6, 1e-3)]
    lam, slope, tau = np.array(cases).T
    with mpmath.workdps(40):
        reference = np.array([mp_propagator(*case).tolist() for case in cases], dtype=float)
    prop = _piecewise_propagator(lam, slope, tau)
    assert np.all(np.isfinite(prop))
    scale = np.abs(reference).max(axis=(1, 2))
    rel = np.abs(prop - reference).max(axis=(1, 2)) / scale
    assert rel.max() <= 1e-11, cases[int(np.argmax(rel))]


def test_general_solution_has_no_time_limit():
    """Past the last sample the final value is held: b**2 is then periodic
    with period pi / sqrt(lam_final), as far out as asked."""
    sol = integrate_general(9.0, [0.0, 10.0, 30.0], [9.0, 4.0, 0.09])
    period = np.pi / 0.3
    t = np.array([31.0, 1e3, 1e4])
    b, _ = sol.evaluate(t)
    b_next, _ = sol.evaluate(t + period)
    assert np.abs(b_next - b).max() < 1e-9
    assert mode_checks(sol, t)[0].max() < 1e-9


def test_grid_evaluation_matches_pointwise():
    """Each point is computed on its own from its piece's start value; a
    grid, the same grid shuffled, and single points must give the same bits."""
    sol = integrate_general(9.0, [0.0, 10.0, 20.0, 30.0], [9.0, 4.4, 1.96, 0.39])
    t = np.linspace(0.0, 40.0, 401)
    b, bdot = sol.evaluate(t)
    order = np.random.default_rng(7).permutation(t.size)
    b_shuffled, bdot_shuffled = sol.evaluate(t[order])
    assert np.array_equal(b_shuffled, b[order])
    assert np.array_equal(bdot_shuffled, bdot[order])
    for i in (0, 1, 99, 100, 101, 250, 400):
        assert sol.evaluate(t[i]) == (b[i], bdot[i])


def _assert_columns_match(stack, singles, t):
    """``evaluate`` and ``mode_checks`` of a stack give in column j, bit
    for bit, what mode j's own solution gives, on the grid ``t`` and at
    single times."""
    b, bdot = stack.evaluate(t)
    residual, invariant = mode_checks(stack, t)
    assert b.shape == bdot.shape == residual.shape == invariant.shape == (t.size, len(singles))
    for j, sol in enumerate(singles):
        b_j, bdot_j = sol.evaluate(t)
        residual_j, invariant_j = mode_checks(sol, t)
        assert np.array_equal(b[:, j], b_j)
        assert np.array_equal(bdot[:, j], bdot_j)
        assert np.array_equal(residual[:, j], residual_j)
        assert np.array_equal(invariant[:, j], invariant_j)
    for i in (0, 1, t.size // 2, t.size - 1):
        b_i, bdot_i = stack.evaluate(t[i])
        assert b_i.shape == (len(singles),)
        assert [(b_i[j], bdot_i[j]) for j in range(len(singles))] == [
            sol.evaluate(t[i]) for sol in singles
        ]


def _assert_pieces_match(stack, singles):
    """Mode j of a stack takes column c = ``column[j]``, which owns pieces
    ``first[c]`` up to the next column's first, and they equal the
    one-mode solution's pieces bit for bit."""
    ends = np.append(stack.first[1:], stack.starts.size)
    for c, sol in zip(stack.column, singles):
        assert stack.lam_initial[c] == sol.lam_initial
        owned = slice(stack.first[c], ends[c])
        for field in ("starts", "lams", "slopes", "phis"):
            assert np.array_equal(getattr(stack, field)[owned], getattr(sol, field))


def test_stack_matches_each_mode_bit_for_bit():
    """``solve_sudden`` on arrays builds the stack of its one-mode calls
    (lam_f = 0 and no quench included): one piece per mode, every field
    and every ``evaluate`` and ``mode_checks`` column bit for bit, at
    t = 0, on a grid and far out."""
    lam0 = np.array([1.0, 2.0, 2.7, 25.0])
    lamf = np.array([0.0225, 0.0, 2.7, 17.2225])
    stack = solve_sudden(lam0, lamf)
    singles = [solve_sudden(li, lf) for li, lf in zip(lam0, lamf)]
    assert np.array_equal(stack.first, np.arange(lam0.size))
    assert np.array_equal(stack.lam_initial, lam0)
    _assert_pieces_match(stack, singles)
    _assert_columns_match(stack, singles, np.concatenate([np.linspace(0.0, 45.0, 181), [1e3]]))


def test_stacked_integration_matches_each_mode():
    """An array of initial eigenvalues with one table row per mode gives
    the stack of the one-mode calls: each mode's pieces, which differ in
    number from mode to mode on a linear table, and its ``evaluate`` and
    ``mode_checks`` columns bit for bit, exactly at every piece start and
    past the last breakpoint; the first mode that fails its Wronskian
    check raises."""
    times = [0.0, 10.0, 20.0, 30.0]
    lam0 = np.array([9.0, 5.0, 2.0])
    lams = np.array([[9.0, 4.4, 1.96, 0.39], [0.0, 6.0, 6.0, 0.5], [2.0, 2.0, 2.0, 2.0]])
    for interpolation in ("linear", "previous"):
        stack = integrate_general(lam0, times, lams, interpolation)
        singles = [
            integrate_general(li, times, row, interpolation) for li, row in zip(lam0, lams)
        ]
        counts = [sol.starts.size for sol in singles]
        assert len(set(counts)) == (3 if interpolation == "linear" else 1)
        _assert_pieces_match(stack, singles)
        t = np.concatenate([np.unique(stack.starts), np.linspace(0.0, 45.0, 181), [1e3]])
        _assert_columns_match(stack, singles, t)
    with pytest.raises(ValueError, match="one row"):
        integrate_general(lam0, times, lams[:2])
    with pytest.raises(ValueError, match="one row"):
        integrate_general(1.0, times, lams)
    with pytest.raises(ValueError, match="positive"):
        integrate_general(np.array([1.0, 0.0]), times, lams[:2])
    # the second mode is the test_integrate_refinement_exhaustion table
    cuts = np.cumsum([0.0] + [0.23 if k % 2 else 1.3 for k in range(11)])
    values = np.array([[1.0] * 12, [25.0 if k % 2 else 1.0 for k in range(12)]])
    with pytest.raises(IntegrationError) as err:
        integrate_general(np.ones(2), cuts, values, "previous", tolerance=1e-15)
    with pytest.raises(IntegrationError) as alone:
        integrate_general(1.0, cuts, values[1], "previous", tolerance=1e-15)
    assert err.value.time == alone.value.time
