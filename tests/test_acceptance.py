"""End-to-end acceptance checks.

Each test prints one pass/fail line so the suite run doubles as a short
report; tolerances are fixed here and nowhere else.
"""

from itertools import product

import numpy as np
import pytest

from entchain import (
    ChainSpec,
    NumericsError,
    Partition,
    bose_hubbard_chain,
    entropy_series,
    integrate_general,
    make_figure,
    quench_modes,
    symplectic_eigenvalues,
)
from entchain.ermakov import mode_checks, solve_sudden
from entchain.oracles import covariance_series
from support import (
    _pair_modes,
    _spectrum_peaks,
    assemble_state,
    extract_periods,
    fit_scaling,
    kernel_ladder_gap,
    pair_entropy_density,
    quasiparticle_entropy,
    revival_period,
    to_covariance,
)

FIG1_TARGETS = (2.15, 2.06, 2.01)
FIG2_OMEGAS = (0.3, 0.1, 0.01)
FIG3_SIZES = (4, 6, 10, 16, 20)

ANCHOR_S1 = 0.48653


def _report(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num:02d} failed: {text}"


def fig1_chain(target: float) -> ChainSpec:
    return bose_hubbard_chain(omega_bh_i=3.0, omega_bh_f=target, hop=2.0)


def fig2_chain(omega_f: float) -> ChainSpec:
    return ChainSpec(
        n=4, omega_i=3.0, k_i=2.0, omega_f=omega_f, k_f=2.5, boundary="periodic"
    )


def fig3_chain(n: int) -> ChainSpec:
    return ChainSpec(
        n=n, omega_i=3.0, k_i=2.0, omega_f=0.01, k_f=2.5, boundary="periodic"
    )


def all_figure_chains() -> list[tuple[str, ChainSpec]]:
    chains = [(f"dimer target {t}", fig1_chain(t)) for t in FIG1_TARGETS]
    chains += [(f"ring omega_f {w}", fig2_chain(w)) for w in FIG2_OMEGAS]
    chains += [(f"ring n {n}", fig3_chain(n)) for n in FIG3_SIZES]
    return chains


def uniform_times(t_max: float, dt: float) -> np.ndarray:
    return dt * np.arange(int(round(t_max / dt)) + 1)


def test_criterion_01_oracle_equivalence():
    """Scale-factor pipeline matches the covariance oracle on every
    canned configuration."""
    times = np.linspace(0.0, 100.0, 1000)
    worst = 0.0
    for label, chain in all_figure_chains():
        part = Partition.second_half(chain.n)
        primary = entropy_series(chain, part, times, alphas=(1, 2))
        oracle = covariance_series(chain, part, times, alphas=(1, 2))
        for alpha in (1, 2):
            dev = float(np.abs(primary.entropies[alpha] - oracle.entropies[alpha]).max())
            worst = max(worst, dev)
    _report(1, worst < 1e-8, f"max |dS| over 11 configs x 1000 points = {worst:.3e}")


def test_criterion_02_static_entropy_anchor():
    """S_1(0) sits at the frozen two-site value and cannot depend on the
    post-quench parameters."""
    times = np.array([0.0, 0.5, 1.0])
    initial = []
    for target in FIG1_TARGETS:
        chain = fig1_chain(target)
        series = entropy_series(chain, Partition.second_half(2), times)
        initial.append(float(series.s1[0]))
    dev = max(abs(v - ANCHOR_S1) for v in initial)
    spread = max(initial) - min(initial)
    _report(
        2,
        dev < 1e-4 and spread < 1e-12,
        f"|S_1(0) - {ANCHOR_S1}| = {dev:.3e}, spread across targets = {spread:.3e}",
    )


def test_criterion_03_two_period_structure():
    """Near-critical dimer entropy carries a dominant slow period pi/omega_-
    and a weaker fast period pi/omega_+."""
    times = uniform_times(400.0, 0.02)
    ok = True
    notes = []
    for target in (2.15, 2.06):
        chain = fig1_chain(target)
        series = entropy_series(chain, Partition.second_half(2), times)
        estimate = extract_periods(series, count=8)
        slow = np.pi / (target - 2.0)
        fast = np.pi / (target + 2.0)
        slow_err = abs(estimate.periods[0] - slow) / slow
        fast_err = float((np.abs(estimate.periods - fast) / fast).min())
        ok = ok and slow_err < 0.02 and fast_err < 0.02
        notes.append(f"target {target}: slow {slow_err:.1e}, fast {fast_err:.1e}")
    _report(3, ok, "; ".join(notes))


def test_criterion_04_revival_periods():
    """Revival period tracks pi/omega_f and the spectrum decomposes over
    the three post-quench normal-mode frequencies."""
    windows = {0.3: (100.0, 0.01), 0.1: (100.0, 0.01), 0.01: (700.0, 0.05)}
    revivals = []
    ok = True
    notes = []
    for omega_f in FIG2_OMEGAS:
        t_max, dt = windows[omega_f]
        series = entropy_series(
            fig2_chain(omega_f), Partition.second_half(4), uniform_times(t_max, dt)
        )
        period = revival_period(series)
        revivals.append(period)
        err = abs(period - np.pi / omega_f) / (np.pi / omega_f)
        ok = ok and err < 0.02
        notes.append(f"omega_f {omega_f}: rel err {err:.1e}")
    increasing = revivals[0] < revivals[1] < revivals[2]
    ok = ok and increasing
    notes.append(f"increasing: {increasing}")

    # every significant spectral peak is an integer combination of the
    # three normal-mode frequencies, and each of those appears itself
    series = entropy_series(
        fig2_chain(0.3), Partition.second_half(4), uniform_times(100.0, 0.01)
    )
    freqs, weights = _spectrum_peaks(series.times, series.s1)
    significant = freqs[weights >= 0.05 * weights[0]]
    lam_final = np.array([0.09, 5.09, 10.09])
    fundamentals = np.sqrt(lam_final) / np.pi
    combos = np.array(sorted({
        abs(n1 * fundamentals[0] + n2 * fundamentals[1] + n3 * fundamentals[2])
        for n1, n2, n3 in product(range(-4, 5), repeat=3)
    }))
    combos = combos[combos > 1e-9]
    combo_err = max(
        float(np.abs(combos - f).min() / f) for f in significant
    )
    presence_err = max(
        float(np.abs(significant - f0).min() / f0) for f0 in fundamentals
    )
    cluster_ok = combo_err < 0.01 and presence_err < 0.02
    ok = ok and cluster_ok
    notes.append(
        f"{significant.size} peaks all combination tones (worst {combo_err:.1e}), "
        f"fundamentals present (worst {presence_err:.1e})"
    )
    _report(4, ok, "; ".join(notes))


def test_criterion_05_scale_factor_quality():
    """Every mode solution satisfies its differential equation, conserves
    the sudden-quench invariant, and agrees with the same constant
    protocol carried across segment boundaries."""
    dense = np.linspace(0.0, 200.0, 2001)
    residual_worst = 0.0
    invariant_worst = 0.0
    for _, chain in all_figure_chains():
        modes = quench_modes(chain)
        for lam_i, lam_f in zip(modes.lam_pre, modes.lam_post):
            residual, invariant = mode_checks(solve_sudden(lam_i, lam_f), dense)
            residual_worst = max(residual_worst, float(residual.max()))
            drift = np.abs(invariant - (lam_i + lam_f))
            invariant_worst = max(invariant_worst, float(drift.max()))

    check_times = np.linspace(0.0, 100.0, 1000)
    general_worst = 0.0
    for chain in (fig1_chain(2.15), fig2_chain(0.3)):
        modes = quench_modes(chain)
        for lam_i, lam_f in zip(modes.lam_pre, modes.lam_post):
            closed = solve_sudden(lam_i, lam_f)
            cuts = [0.0, 17.0, 41.5, 80.0]
            numeric = integrate_general(lam_i, cuts, [lam_f] * 4, "previous")
            gap = np.abs(numeric.evaluate(check_times)[0] - closed.evaluate(check_times)[0])
            general_worst = max(general_worst, float(gap.max()))
    _report(
        5,
        residual_worst < 1e-9 and invariant_worst < 1e-9 and general_worst < 1e-8,
        f"residual {residual_worst:.3e}, invariant drift {invariant_worst:.3e}, "
        f"general-vs-closed {general_worst:.3e}",
    )


def test_criterion_06_kernel_diagonalization():
    """Position-space kernel eigenvalues of the evolved dimer's kept site,
    with and without the phase factor, reproduce the geometric ladder of
    the xi that ``entropy_series`` gives."""
    worst = kernel_ladder_gap(fig1_chain(2.15), Partition.second_half(2), [0.0, 2.0, 7.5])
    _report(6, worst < 1e-10, f"max |kernel - ladder| over snapshots = {worst:.3e}")


def test_criterion_07_purity_and_complementarity():
    """The full state stays pure, and complementary partitions carry
    identical entropies."""
    purity_worst = 0.0
    for chain in (fig1_chain(2.15), fig2_chain(0.3), fig3_chain(10)):
        modes = quench_modes(chain)
        sols = [solve_sudden(li, lf) for li, lf in zip(modes.lam_pre, modes.lam_post)]
        for t in (0.0, 37.7, 83.1):
            nu = symplectic_eigenvalues(to_covariance(assemble_state(modes, sols, t)))
            purity_worst = max(purity_worst, float(np.abs(nu - 0.5).max()))

    chain = ChainSpec(n=5, omega_i=3.0, k_i=2.0, omega_f=0.01, k_f=2.5, boundary="periodic")
    times = np.linspace(0.0, 10.0, 51)
    front = entropy_series(chain, Partition.from_traced([1, 2], 5), times, alphas=(1, 2))
    rear = entropy_series(chain, Partition.from_traced([3, 4, 5], 5), times, alphas=(1, 2))
    comp_worst = max(
        float(np.abs(front.entropies[a] - rear.entropies[a]).max()) for a in (1, 2)
    )
    _report(
        7,
        purity_worst < 1e-9 and comp_worst < 1e-9,
        f"max |nu - 1/2| = {purity_worst:.3e}, "
        f"complementary entropy gap = {comp_worst:.3e}",
    )


def test_criterion_08_entropy_scaling_collapse():
    """S_1 / ln N collapses for the larger rings and the collapse degrades
    when the smallest ring joins the fit."""
    times = uniform_times(100.0, 0.05)
    series_by_size = {
        n: entropy_series(fig3_chain(n), Partition.second_half(n), times)
        for n in (4, 10, 16, 20)
    }
    window = (times >= 5.0) & (times <= 100.0)
    big = fit_scaling({n: series_by_size[n] for n in (10, 16, 20)})
    full = fit_scaling(series_by_size)
    big_mean = float(big.relative_spread[window].mean())
    full_mean = float(full.relative_spread[window].mean())
    _report(
        8,
        big_mean < 0.10 and full_mean > 0.10,
        f"time-mean relative spread: {{10,16,20}} = {big_mean:.4f} < 0.10, "
        f"with n=4 = {full_mean:.4f} > 0.10",
    )


VOLUME_SIZES = (32, 64, 128)


def test_scaling_collapse_gives_way_to_a_volume_law():
    """Past the paper's sizes the S_1 / ln N collapse of criterion 08
    fails, and the time mean of S_1 grows linearly in N instead.  The
    quasiparticle pairs of the fig3 quench carry s per site; on a ring
    they wrap, so the share of pairs split by the cut is a triangle wave
    in t whose mean is half its peak, and mean S_1 rises by s / 4 per
    site.  The collapse measure must exceed criterion 08's gate, and
    each rise lie within 10% of s / 4."""
    times = uniform_times(100.0, 0.25)
    series_by_size = {
        n: entropy_series(fig3_chain(n), Partition.second_half(n), times)
        for n in VOLUME_SIZES
    }
    window = times >= 5.0
    spread = float(fit_scaling(series_by_size).relative_spread[window].mean())
    means = [float(series_by_size[n].s1[window].mean()) for n in VOLUME_SIZES]
    rises = np.diff(means) / np.diff(VOLUME_SIZES)
    quarter = pair_entropy_density(fig3_chain(VOLUME_SIZES[0])) / 4
    assert spread > 0.10, spread
    assert np.all(np.abs(rises / quarter - 1.0) < 0.10), (rises, quarter)


def test_large_ring_follows_the_quasiparticle_law():
    """A referee at large N that shares no code with the product: on a
    1024-site ring quenched from omega 3, k 2 to omega 1, k 2.5, the
    entropy of sites 1..l grows from S(0) as the quasiparticle law
    S_qp(t) up to a correction of order one that does not grow with l
    (0.40, 0.44 and 0.47 at l = 32, 64, 128 on 201 rows over [0, 100]),
    while S_qp(100) grows from 8.1 to 28.5.  So the gap stays below 0.5
    and its share of S_qp(100) falls as l grows.

    Before the fastest pairs cross the block, at t* = l / (2 v_max), the
    law is linear with slope mean(2 |v_q| s(n_q)) = 0.40996.  A straight
    line fitted to S_1 over [0.2 t*, 0.8 t*] has slope 0.4212, 0.4136 and
    0.4113 at l = 32, 64 and 128 (ratios 1.027, 1.009 and 1.003): the
    ratio stays within 0.05 of 1 and nears it as l grows.  About 3 s of
    CPU on one core, mostly the l = 64 and 128 blocks."""
    n = 1024
    spec = ChainSpec(n=n, omega_i=3.0, k_i=2.0, omega_f=1.0, k_f=2.5, boundary="periodic")
    times = np.linspace(0.0, 100.0, 201)
    pair_s, v = _pair_modes(spec)
    rate, v_max = float(np.mean(2.0 * np.abs(v) * pair_s)), float(np.abs(v).max())
    shares, misfits = [], []
    for length in (32, 64, 128):
        kept = Partition.from_traced(range(length + 1, n + 1), n)
        s1 = entropy_series(spec, kept, times).s1
        law = quasiparticle_entropy(spec, length, times)
        gap = float(np.abs(s1 - s1[0] - law).max())
        assert gap < 0.5, (length, gap)
        shares.append(gap / law[-1])
        crossing = length / (2.0 * v_max)
        linear = (times >= 0.2 * crossing) & (times <= 0.8 * crossing)
        slope = np.polyfit(times[linear], s1[linear], 1)[0]
        slope_misfit = abs(slope / rate - 1.0)
        assert slope_misfit < 0.05, (length, slope, rate)
        misfits.append(slope_misfit)
    assert np.all(np.diff(shares) < 0), shares
    assert np.all(np.diff(misfits) < 0), misfits


def _static_s1(omega: float, length: int) -> float:
    """S_1 of sites 1..``length`` of the 2048-site ring in the ground state
    of omega and k = 1: the t = 0 row of ``entropy_series``."""
    n = 2048
    spec = ChainSpec(n=n, omega_i=omega, k_i=1.0, omega_f=omega, k_f=1.0, boundary="periodic")
    kept = Partition.from_traced(range(length + 1, n + 1), n)
    return float(entropy_series(spec, kept, [0.0]).s1[0])


def test_static_block_follows_the_area_and_log_laws():
    """A referee at large N that shares no code with the product: in the
    ground state of a massive ring, a block much longer than the
    correlation length 1 / omega has an entropy independent of its length
    (the area law), and as omega falls S_1 grows like (c/3) ln(1/omega)
    with c = 1, so halving omega adds ln(2) / 3 (P. Calabrese and J.
    Cardy, J. Stat. Mech. (2004) P06002).  On the 2048-site ring with
    k = 1 and sites 1..256 kept, S_1 at omega = 0.2 is that of sites
    1..128 (0.545253 for both), and the steps for omega = 0.1, 0.05 and
    0.025 (0.22918, 0.23050, 0.23079) rise toward 0.231049.  This holds
    the closed-form basis, the mirror sectors and the columns route of
    the covariance to 128-site sectors.  About 0.9 s of CPU on one core,
    mostly the n = 2048 mode bases."""
    assert abs(_static_s1(0.2, 256) - _static_s1(0.2, 128)) < 1e-6
    s1 = [_static_s1(omega, 256) for omega in (0.1, 0.05, 0.025, 0.0125)]
    steps = np.diff(s1)
    assert np.all(np.diff(steps) > 0), steps
    assert abs(steps[-1] - np.log(2.0) / 3.0) < 5e-4, steps


# Largest |rise - 1| the gapless law allows: the rises measured on the
# 8-site ring and open chain are within 0.0089 of 1.
LOG_LAW_MARGIN = 0.015


def _log_t_rises(n: int, boundary: str, windows) -> np.ndarray:
    """The rise of the mean S_1 over [T, 2T] (2001 points), per ln 10,
    between consecutive windows T, after the quench from omega 3, k 2 to
    the gapless omega 0, k 2.5 with the second half traced."""
    spec = ChainSpec(n=n, omega_i=3.0, k_i=2.0, omega_f=0.0, k_f=2.5, boundary=boundary)
    part = Partition.second_half(n)
    means = [entropy_series(spec, part, np.linspace(t, 2.0 * t, 2001)).s1.mean()
             for t in windows]
    return np.diff(means) / np.log(10.0)


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_gapless_quench_grows_like_ln_t(boundary):
    """A referee for long windows that needs no high-precision reference:
    after a quench to omega_f = 0 the zero mode's b and nu grow like t,
    and S_1 like ln t, by 1 per zero mode (L. Hackl, E. Bianchi, R. Modak
    and M. Rigol, Phys. Rev. A 97, 032321 (2018)).  On an 8-site ring
    and open chain the mean S_1 over [T, 2T] rises per ln 10 by 1.0010
    and 1.0001 (ring) and 0.9911 and 0.9974 (open chain) from T = 1e2 to
    1e4: within ``LOG_LAW_MARGIN`` of 1, and closer on the later step.
    About 0.15 s."""
    rises = _log_t_rises(8, boundary, (1e2, 1e3, 1e4))
    assert np.all(np.abs(rises - 1.0) < LOG_LAW_MARGIN), rises
    assert abs(rises[1] - 1.0) < abs(rises[0] - 1.0), rises


@pytest.mark.xfail(strict=True, raises=NumericsError, reason=(
    "the zero mode's nu grows like t, and the squared spectrum loses the kept block's "
    "near-pure values to roundoff (ROADMAP items 6, 11 and 12): the T = 1e5 window "
    "is refused at t = 106350 with nu = 0.4999995320 below the floor 1/2"))
def test_large_gapless_ring_grows_like_ln_t_at_long_times():
    """The gapless law of ``test_gapless_quench_grows_like_ln_t`` on the
    32-site ring from T = 1e4 to 1e5 (it rose by 0.999 from T = 1e3 to
    1e4)."""
    (rise,) = _log_t_rises(32, "periodic", (1e4, 1e5))
    assert abs(rise - 1.0) < LOG_LAW_MARGIN, rise


def test_criterion_09_trivial_limits():
    """No quench means constant entropy; no coupling means no entropy."""
    times = np.linspace(0.0, 5.0, 51)
    static = ChainSpec(n=2, omega_i=1.0, k_i=12.0, omega_f=1.0, k_f=12.0, boundary="open")
    series = entropy_series(static, Partition.second_half(2), times)
    flat = float(np.ptp(series.s1))
    anchor = abs(float(series.s1[0]) - ANCHOR_S1)

    uncoupled = ChainSpec(n=4, omega_i=3.0, k_i=0.0, omega_f=0.3, k_f=0.0)
    free = entropy_series(uncoupled, Partition.second_half(4), times, alphas=(1, 2))
    uncoupled_max = max(float(np.abs(free.entropies[a]).max()) for a in (1, 2))

    dimer = bose_hubbard_chain(omega_bh_i=3.0, omega_bh_f=2.15, hop=0.0)
    hopless = entropy_series(dimer, Partition.second_half(2), times)
    hopless_max = float(np.abs(hopless.s1).max())

    _report(
        9,
        flat < 1e-12 and anchor < 1e-4 and uncoupled_max < 1e-12 and hopless_max < 1e-12,
        f"no-quench drift {flat:.3e}, anchor offset {anchor:.3e}, "
        f"uncoupled max S {uncoupled_max:.3e}, hopless max S {hopless_max:.3e}",
    )


def test_criterion_10_deterministic_reruns(tmp_path):
    """Figure pipelines are reproducible to the byte."""
    first = make_figure("fig2", str(tmp_path / "a"))
    second = make_figure("fig2", str(tmp_path / "b"))
    identical = len(first) == len(second)
    if identical:
        for path_a, path_b in zip(first, second):
            with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
                if fa.read() != fb.read():
                    identical = False
                    break
    _report(
        10,
        identical,
        f"two fig2 builds produced {len(first)} byte-identical files",
    )
