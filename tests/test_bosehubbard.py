"""Two-site Bose-Hubbard to coupled-oscillator parameter mapping."""

import numpy as np
import pytest

from entchain import BoseHubbardSpec, Partition, entropy_series, to_oscillator
from support import from_oscillator, mode_frequencies


def test_zero_hopping_is_identity():
    assert to_oscillator(2.5, 0.0) == (2.5, 0.0)
    assert from_oscillator(2.5, 0.0) == (2.5, 0.0)


def test_reference_values():
    omega, k = to_oscillator(3.0, 2.0)
    assert omega == pytest.approx(1.0, abs=0)
    assert k == pytest.approx(12.0, abs=0)
    # the relative-mode frequency squared closes the identity w_minus^2 = w^2 + 2k
    w_plus, w_minus = mode_frequencies(3.0, 2.0)
    assert w_plus == pytest.approx(1.0, abs=1e-15)
    assert w_minus == pytest.approx(5.0, abs=1e-15)
    assert w_minus**2 == pytest.approx(omega**2 + 2 * k, abs=1e-12)

    w_plus, w_minus = mode_frequencies(2.15, 2.0)
    assert w_plus == pytest.approx(0.15, abs=1e-12)
    assert w_minus == pytest.approx(4.15, abs=1e-12)


def test_inverse_mapping():
    omega_bh, hop = from_oscillator(1.0, 12.0)
    assert omega_bh == pytest.approx(3.0, abs=1e-12)
    assert hop == pytest.approx(2.0, abs=1e-12)


def test_round_trip_property():
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        omega_bh = float(rng.uniform(0.05, 8.0))
        hop = float(rng.uniform(0.0, omega_bh * 0.999))
        omega, k = to_oscillator(omega_bh, hop)
        back_bh, back_hop = from_oscillator(omega, k)
        assert abs(back_bh - omega_bh) < 1e-12 * max(1.0, omega_bh)
        assert abs(back_hop - hop) < 1e-12 * max(1.0, omega_bh)


def test_validation():
    with pytest.raises(ValueError, match="non-negative"):
        to_oscillator(1.0, -0.1)
    # gapless point allowed only when asked for (post-quench use)
    with pytest.raises(ValueError):
        to_oscillator(2.0, 2.0)
    assert to_oscillator(2.0, 2.0, allow_gapless=True)[0] == 0.0
    with pytest.raises(ValueError):
        to_oscillator(1.0, 2.0, allow_gapless=True)

    with pytest.raises(ValueError):
        BoseHubbardSpec(omega_bh_i=2.0, omega_bh_f=3.0, hop=2.0)
    with pytest.raises(ValueError):
        BoseHubbardSpec(omega_bh_i=3.0, omega_bh_f=1.9, hop=2.0)


def test_chain_spec_mapping():
    bh = BoseHubbardSpec(omega_bh_i=3.0, omega_bh_f=2.15, hop=2.0)
    spec = bh.chain_spec()
    assert spec.n == 2
    assert spec.boundary == "open"
    assert spec.omega_i == pytest.approx(1.0)
    assert spec.k_i == pytest.approx(12.0)
    assert spec.omega_f == pytest.approx(0.15)
    assert spec.k_f == pytest.approx(8.6)


def test_pipeline_equivalence():
    """Driving the entropy pipeline through the Bose-Hubbard wrapper must
    equal driving it with mapped oscillator parameters, exactly."""
    from entchain import ChainSpec

    bh = BoseHubbardSpec(omega_bh_i=3.0, omega_bh_f=2.15, hop=2.0)
    omega_i, k_i = to_oscillator(3.0, 2.0)
    omega_f, k_f = to_oscillator(2.15, 2.0, allow_gapless=True)
    direct = ChainSpec(
        n=2, omega_i=omega_i, k_i=k_i, omega_f=omega_f, k_f=k_f, boundary="open"
    )
    times = 0.05 * np.arange(201)
    part = Partition.second_half(2)
    via_bh = entropy_series(bh.chain_spec(), part, times, alphas=(1, 2))
    via_chain = entropy_series(direct, part, times, alphas=(1, 2))
    assert np.array_equal(via_bh.s1, via_chain.s1)
    assert np.array_equal(via_bh.entropies[2], via_chain.entropies[2])
