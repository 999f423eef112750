"""End-to-end acceptance checks.

Each test prints one pass/fail line so the suite run doubles as a short
report; tolerances are fixed here and nowhere else.
"""

from itertools import product

import numpy as np

from entchain import (
    BoseHubbardSpec,
    ChainSpec,
    Partition,
    entropy_series,
    integrate_general,
    kernel_spectrum,
    make_figure,
    mode_checks,
    quench_modes,
    solve_sudden,
    symplectic_eigenvalues,
)
from entchain.oracles import covariance_series, two_site_reduced
from support import (
    _spectrum_peaks,
    assemble_state,
    extract_periods,
    fit_scaling,
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
    return BoseHubbardSpec(omega_bh_i=3.0, omega_bh_f=target, hop=2.0).chain_spec()


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
    """Position-space kernel eigenvalues reproduce the geometric ladder
    for the evolved dimer, with and without the phase factor."""
    chain = fig1_chain(2.15)
    modes = quench_modes(chain)
    sols = [solve_sudden(li, lf) for li, lf in zip(modes.lam_pre, modes.lam_post)]
    worst = 0.0
    for t in (0.0, 2.0, 7.5):
        (b1, db1), (b2, db2) = sols[0].evaluate(t), sols[1].evaluate(t)
        gamma, beta, z = two_site_reduced(
            np.sqrt(modes.lam_pre[0]), np.sqrt(modes.lam_pre[1]), b1, db1, b2, db2
        )
        xi = beta / (gamma + np.sqrt(gamma**2 - beta**2))
        ladder = (1.0 - xi) * xi ** np.arange(5)
        for phase in (z, 0.0):
            levels = kernel_spectrum(gamma, beta, phase, count=5)
            worst = max(worst, float(np.abs(levels - ladder).max()))
    _report(6, worst < 1e-4, f"max |kernel - ladder| over snapshots = {worst:.3e}")


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

    dimer = BoseHubbardSpec(omega_bh_i=3.0, omega_bh_f=2.15, hop=0.0).chain_spec()
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
