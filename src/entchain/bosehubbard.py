"""Two-site Bose-Hubbard dimer mapped onto a pair of coupled oscillators.

In the large-filling semiclassical regime the dimer with on-site frequency
``omega_bh`` and hopping ``J`` behaves as two unit-mass oscillators with

    omega = omega_bh - J        (on-site frequency)
    k     = 2 * omega_bh * J    (spring coupling)

on an open two-site chain.  The normal-mode frequencies are then
``omega_plus = omega_bh - J`` and ``omega_minus = omega_bh + J``, which is
the identity ``omega_minus**2 = omega**2 + 2 k``.  A quench of the dimer
changes ``omega_bh`` at fixed ``J``.
"""

from __future__ import annotations

from ._record import Value
from .chain import ChainSpec


def to_oscillator(omega_bh: float, hop: float, *, allow_gapless: bool = False) -> tuple[float, float]:
    """Map dimer parameters (omega_bh, J) to oscillator parameters (omega, k).

    Requires ``omega_bh > J >= 0``; with ``allow_gapless=True`` the marginal
    case ``omega_bh == J`` (vanishing on-site frequency) is accepted, which
    is legitimate for the post-quench phase only.
    """
    if hop < 0:
        raise ValueError("hopping J must be non-negative")
    if omega_bh < hop or (omega_bh == hop and not allow_gapless):
        raise ValueError(
            f"need omega_bh > J (got omega_bh={omega_bh}, J={hop}); "
            "omega_bh == J is allowed post-quench only"
        )
    return omega_bh - hop, 2.0 * omega_bh * hop


class BoseHubbardSpec(Value):
    """Dimer quench: omega_bh jumps from ``omega_bh_i`` to ``omega_bh_f``
    at fixed hopping ``hop``."""

    __slots__ = ("omega_bh_i", "omega_bh_f", "hop")

    def __init__(self, omega_bh_i: float, omega_bh_f: float, hop: float):
        super().__init__(omega_bh_i, omega_bh_f, hop)
        to_oscillator(self.omega_bh_i, self.hop)
        to_oscillator(self.omega_bh_f, self.hop, allow_gapless=True)

    def chain_spec(self) -> ChainSpec:
        """Equivalent open two-site oscillator chain."""
        omega_i, k_i = to_oscillator(self.omega_bh_i, self.hop)
        omega_f, k_f = to_oscillator(self.omega_bh_f, self.hop, allow_gapless=True)
        return ChainSpec(
            n=2, omega_i=omega_i, k_i=k_i, omega_f=omega_f, k_f=k_f, boundary="open"
        )
