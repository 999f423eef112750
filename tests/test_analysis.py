"""Spectral period extraction, revival detection, and the log-size fit."""

import numpy as np
import pytest

from entchain import ChainSpec, EntropySeries, Partition, entropy_series
from support import PeriodEstimate, extract_periods, fit_scaling, revival_period


def _series(times, values):
    values = np.asarray(values, dtype=float)
    return EntropySeries(
        times=np.asarray(times, dtype=float),
        xi=np.zeros((values.size, 1)),
        entropies={1: values},
    )


def test_single_tone_period():
    t = 0.05 * np.arange(1200)
    series = _series(t, 1.0 + 0.5 * np.cos(2 * np.pi * t / 5.0))
    est = extract_periods(series, count=1)
    assert est.periods[0] == pytest.approx(5.0, rel=0.01)
    assert est.weights[0] > 0


def test_two_tones_ranked_by_weight():
    t = 0.02 * np.arange(4000)
    strong = 1.0 * np.cos(2 * np.pi * t / 7.0)
    weak = 0.25 * np.cos(2 * np.pi * t / 1.3)
    est = extract_periods(_series(t, 2.0 + strong + weak), count=2)
    assert est.periods[0] == pytest.approx(7.0, rel=0.01)
    assert est.periods[1] == pytest.approx(1.3, rel=0.01)
    assert est.weights[0] > est.weights[1]


def test_extraction_errors():
    t = 0.05 * np.arange(1200)
    series = _series(t, 1.0 + 0.5 * np.cos(2 * np.pi * t / 5.0))
    with pytest.raises(ValueError, match="count"):
        extract_periods(series, count=0)
    tiny = _series(0.5 * np.arange(16), 1.0 + 0.5 * np.cos(np.pi * np.arange(16) / 4))
    with pytest.raises(ValueError, match="peaks"):
        extract_periods(tiny, count=40)
    with pytest.raises(ValueError, match="constant"):
        extract_periods(_series(t, np.ones_like(t)), count=1)
    short = _series([0.0, 0.1, 0.2], [1.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="short"):
        extract_periods(short, count=1)
    ragged = _series([0.0, 0.1, 0.3], [1.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="uniform"):
        extract_periods(ragged, count=1)


def test_period_estimate_validation():
    with pytest.raises(ValueError, match="positive"):
        PeriodEstimate(periods=np.array([-1.0]), weights=np.array([1.0]))
    with pytest.raises(ValueError, match="descending"):
        PeriodEstimate(periods=np.array([1.0, 2.0]), weights=np.array([1.0, 2.0]))


def test_revival_period_of_slow_envelope():
    spec = ChainSpec(n=4, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5)
    times = 0.01 * np.arange(4001)  # two envelope periods of pi / 0.3
    series = entropy_series(spec, Partition.second_half(4), times)
    period = revival_period(series)
    assert period == pytest.approx(np.pi / 0.3, rel=0.02)


def test_revival_needs_long_enough_window():
    spec = ChainSpec(n=4, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5)
    times = 0.01 * np.arange(1501)  # 15 time units < 2 envelope periods
    series = entropy_series(spec, Partition.second_half(4), times)
    with pytest.raises(ValueError, match="t_max"):
        revival_period(series)
    with pytest.raises(ValueError, match="rel_threshold"):
        revival_period(series, rel_threshold=0.0)


def test_fit_recovers_exact_log_model():
    t = 0.5 * np.arange(20)
    sizes = (8, 12, 16, 24)
    series = {
        n: _series(t, 2.0 * np.log(n) + 0.3 + 0.0 * t) for n in sizes
    }
    fit = fit_scaling(series)
    assert np.abs(fit.slope - 2.0).max() < 1e-10
    assert np.abs(fit.intercept - 0.3).max() < 1e-10
    assert np.abs(fit.residual).max() < 1e-10
    assert fit.sizes == tuple(sorted(sizes))
    assert fit.times.shape == t.shape


def test_fit_time_dependent_slope():
    t = np.linspace(0.0, 3.0, 40)
    sizes = (10, 16, 20)
    series = {n: _series(t, (1.0 + t) * np.log(n)) for n in sizes}
    fit = fit_scaling(series)
    assert np.abs(fit.slope - (1.0 + t)).max() < 1e-10
    # S / ln N identical across N: zero collapse spread
    assert np.nanmax(fit.relative_spread[1:]) < 1e-12


def test_fit_validation():
    t = np.arange(5.0)
    good = {n: _series(t, np.log(n) + 0.0 * t) for n in (4, 8, 16)}
    with pytest.raises(ValueError, match="3 chain sizes"):
        fit_scaling({4: good[4], 8: good[8]})
    bad_grid = dict(good)
    bad_grid[16] = _series(t + 0.5, np.log(16) + 0.0 * t)
    with pytest.raises(ValueError, match="identical time grid"):
        fit_scaling(bad_grid)
    with pytest.raises(ValueError, match="at least 2"):
        fit_scaling({1: good[4], 8: good[8], 16: good[16]})
