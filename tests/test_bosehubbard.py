"""Two-site Bose-Hubbard to coupled-oscillator parameter mapping."""

import numpy as np
import pytest

from entchain import ChainSpec, Partition, bose_hubbard_chain, entropy_series
from support import from_oscillator, mode_frequencies


def test_zero_hopping_is_identity():
    spec = bose_hubbard_chain(2.5, 2.5, 0.0)
    assert (spec.omega_i, spec.k_i, spec.omega_f, spec.k_f) == (2.5, 0.0, 2.5, 0.0)
    assert from_oscillator(2.5, 0.0) == (2.5, 0.0)


def test_reference_values():
    spec = bose_hubbard_chain(3.0, 2.15, 2.0)
    omega, k = spec.omega_i, spec.k_i
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
        spec = bose_hubbard_chain(omega_bh, omega_bh, hop)
        back_bh, back_hop = from_oscillator(spec.omega_i, spec.k_i)
        assert abs(back_bh - omega_bh) < 1e-12 * max(1.0, omega_bh)
        assert abs(back_hop - hop) < 1e-12 * max(1.0, omega_bh)


def test_validation():
    gapless = "omega_bh == J is allowed post-quench only"
    for args, message in (
        ((1.0, 1.0, -0.1), "hopping J must be non-negative"),
        ((2.0, 3.0, 2.0), f"need omega_bh > J (got omega_bh=2.0, J=2.0); {gapless}"),
        ((1.0, 3.0, 2.0), f"need omega_bh > J (got omega_bh=1.0, J=2.0); {gapless}"),
        ((3.0, 1.9, 2.0), f"need omega_bh > J (got omega_bh=1.9, J=2.0); {gapless}"),
    ):
        with pytest.raises(ValueError) as info:
            bose_hubbard_chain(*args)
        assert str(info.value) == message, args
    # the gapless point omega_bh == J is allowed after the quench
    spec = bose_hubbard_chain(3.0, 2.0, 2.0)
    assert (spec.omega_f, spec.k_f) == (0.0, 8.0)


def test_chain_spec_mapping():
    spec = bose_hubbard_chain(omega_bh_i=3.0, omega_bh_f=2.15, hop=2.0)
    assert spec.n == 2
    assert spec.boundary == "open"
    assert spec.omega_i == pytest.approx(1.0)
    assert spec.k_i == pytest.approx(12.0)
    assert spec.omega_f == pytest.approx(0.15)
    assert spec.k_f == pytest.approx(8.6)


def test_pipeline_equivalence():
    """The dimer's chain is the open two-site chain of the mapped oscillator
    parameters, omega_bh - J and 2 omega_bh J, to the bit, and drives the
    entropy pipeline exactly as that chain does."""
    via_bh = bose_hubbard_chain(3.0, 2.15, 2.0)
    direct = ChainSpec(n=2, omega_i=3.0 - 2.0, k_i=2.0 * 3.0 * 2.0,
                       omega_f=2.15 - 2.0, k_f=2.0 * 2.15 * 2.0, boundary="open")
    assert via_bh == direct
    times = 0.05 * np.arange(201)
    part = Partition.second_half(2)
    series_bh = entropy_series(via_bh, part, times, alphas=(1, 2))
    series_chain = entropy_series(direct, part, times, alphas=(1, 2))
    assert np.array_equal(series_bh.s1, series_chain.s1)
    assert np.array_equal(series_bh.entropies[2], series_chain.entropies[2])
