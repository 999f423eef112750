"""Coupled-oscillator chain model: coupling matrix and normal modes.

A chain of N unit-mass oscillators with on-site frequency ``omega`` and
nearest-neighbour spring constant ``k`` has potential energy
``(1/2) x.T K x`` with

    K = omega**2 * I + k * L,

where L is the bond Laplacian of the chain graph (open or periodic
boundary).  A sudden quench switches (omega, k) from the "pre" values to
the "post" values at t = 0.  Because K is an affine function of L in both
phases, its normal modes (Fourier on a ring, DCT-II on an open chain)
decouple the dynamics before and after the quench; :func:`quench_modes`
builds that shared basis in closed form.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from ._record import Record, Value
from .errors import NumericsError

Boundary = Literal["open", "periodic"]
Phase = Literal["pre", "post"]

# Matrix elements per row block of the mode basis, built and checked in
# place, and the largest |L u_k - mu_k u_k| it may leave (|mu_k| <= 4).
_BASIS_ELEMENTS = 65536
_BASIS_RESIDUAL = 4e-10


class ChainSpec(Value):
    """Chain geometry plus pre- and post-quench parameters.

    Frequencies and couplings are in natural units (hbar = 1, unit masses).
    ``omega_i`` must be positive so the pre-quench ground state exists;
    ``omega_f`` may be zero (gapless post-quench chain).  In each phase
    the largest coupling eigenvalue, at most omega**2 + 4 k (bond-Laplacian
    eigenvalues lie in [0, 4]), must be finite.
    """

    __slots__ = ("n", "omega_i", "k_i", "omega_f", "k_f", "boundary")

    def __init__(self, n: int, omega_i: float, k_i: float, omega_f: float, k_f: float,
                 boundary: Boundary = "periodic"):
        super().__init__(n, omega_i, k_i, omega_f, k_f, boundary)
        if self.n < 2:
            raise ValueError(f"chain needs at least 2 sites, got n={self.n}")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.omega_i <= 0:
            raise ValueError("pre-quench on-site frequency must be positive")
        if self.omega_f < 0 or self.k_i < 0 or self.k_f < 0:
            raise ValueError("omega_f, k_i, k_f must be non-negative")
        for phase in ("pre", "post"):
            omega, k = (float(v) for v in self.params(phase))
            if not math.isfinite(omega * omega + 4.0 * k):
                raise ValueError(
                    f"the largest {phase}-quench coupling eigenvalue, omega**2 + 4 k, "
                    "is not finite"
                )

    def params(self, phase: Phase) -> tuple[float, float]:
        if phase == "pre":
            return self.omega_i, self.k_i
        if phase == "post":
            return self.omega_f, self.k_f
        raise ValueError(f"unknown phase {phase!r}")


class QuenchModes(Record):
    """Shared normal-mode data for both phases of a quench.

    ``u`` diagonalizes the pre- and the post-quench coupling matrix
    simultaneously (rows are mode vectors).  ``mu`` are the bond-Laplacian
    eigenvalues, so ``lam = omega**2 + k * mu`` in either phase.
    """

    __slots__ = ("u", "mu", "lam_pre", "lam_post")

    def __init__(self, u: np.ndarray, mu: np.ndarray, lam_pre: np.ndarray, lam_post: np.ndarray):
        super().__init__(u, mu, lam_pre, lam_post)

    @property
    def n(self) -> int:
        return self.mu.shape[0]


def bond_laplacian(n: int, boundary: Boundary) -> np.ndarray:
    """Laplacian of the chain's bond graph (coupling structure for k = 1).

    Open chains have n - 1 bonds; periodic chains close the ring with an
    extra (x_n - x_1) bond.  For n = 2 the periodic ring doubles the single
    bond, which is why open and periodic two-site chains differ exactly by
    a factor of two in the effective coupling.
    """
    if n < 2:
        raise ValueError("need at least 2 sites")
    if boundary not in ("open", "periodic"):
        raise ValueError(f"unknown boundary {boundary!r}")
    lap = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    if boundary == "periodic":
        lap[0, -1] -= 1.0
        lap[-1, 0] -= 1.0
    else:
        lap[0, 0] = lap[-1, -1] = 1.0
    return lap


def build_coupling_matrix(spec: ChainSpec, phase: Phase) -> np.ndarray:
    """Coupling matrix K for one phase: omega**2 on site, -k per bond."""
    omega, k = spec.params(phase)
    return omega**2 * np.eye(spec.n) + k * bond_laplacian(spec.n, spec.boundary)


def quench_modes(spec: ChainSpec) -> QuenchModes:
    """Shared mode basis plus eigenvalues for both phases of the quench.

    The rows of ``u`` are the closed-form normal modes of the bond
    Laplacian in ascending ``mu``, with no sort.  A ring has k = 0, the
    (cos, sin) pair of each k = 1 .. (n-1)//2, then k = n/2 for even n,
    phases 2 pi (k j mod n) / n and mu_k = 4 sin(pi k / n)**2, taken once
    per pair so a pair shares ``mu`` to the bit; an open chain has
    sqrt(2/n) cos(pi k (j + 1/2) / n) and mu_k = 4 sin(pi k / 2n)**2.
    ``mu_0`` is exactly 0.  Raises :class:`NumericsError` if the pre-quench
    spectrum is not positive or a mode leaves |L u_k - mu_k u_k| larger
    than ``_BASIS_RESIDUAL``.
    """
    n = spec.n
    # Index arithmetic in floats, exact below 2**53: int64 floor division,
    # remainder and comparisons would page in code that no other step uses.
    sites = np.arange(float(n))
    if spec.boundary == "periodic":
        k = np.floor((sites + 1.0) / 2.0)  # row r has wave number 0, 1, 1, 2, 2, ..., (n/2)
        mu = (4.0 * np.sin(np.arange(n // 2 + 1.0) * (np.pi / n)) ** 2)[k.astype(np.intp)]
        # sin x = cos(x - pi/2): the second row of each pair is n quarter steps back
        slope, shift = 4.0 * k, np.where((sites == 2.0 * k) & (k > 0.0), -float(n), 0.0)
        single = (k == 0.0) | (2.0 * k == n)
    else:
        mu = 4.0 * np.sin(sites * (np.pi / (2 * n))) ** 2
        slope, shift, single = 2.0 * sites, sites, sites == 0.0
    amplitude = np.where(single, math.sqrt(1.0 / n), math.sqrt(2.0 / n))
    u = np.empty((n, n))
    step = max(1, _BASIS_ELEMENTS // n)
    for first in range(0, n, step):
        rows, block = slice(first, first + step), u[first:first + step]
        # u_k(j) = amplitude cos(pi q / 2n) with the integer q = (slope j + shift) mod 4n
        np.add(np.multiply.outer(slope[rows], sites), shift[rows, None], out=block)
        block -= 4 * n * np.floor(block / (4 * n))
        block *= np.pi / (2 * n)
        np.cos(block, out=block)
        block *= amplitude[rows, None]
        # the bond stencil: (L u)_j = deg_j u_j - u_(j-1) - u_(j+1)
        residual = (2.0 - mu[rows, None]) * block
        residual[:, 1:] -= block[:, :-1]
        residual[:, :-1] -= block[:, 1:]
        residual[:, [0, -1]] -= block[:, [-1, 0] if spec.boundary == "periodic" else [0, -1]]
        if np.abs(residual).max() > _BASIS_RESIDUAL:
            raise NumericsError("mode basis failed to decouple the bond Laplacian")
    lam_pre = spec.omega_i**2 + spec.k_i * mu
    lam_post = spec.omega_f**2 + spec.k_f * mu
    if lam_pre[0] <= 0:  # mu_0 = 0 is the smallest mu
        raise NumericsError(f"pre-quench spectrum must be positive, got {lam_pre[0]:.3e}")
    return QuenchModes(u=u, mu=mu, lam_pre=lam_pre, lam_post=lam_post)
