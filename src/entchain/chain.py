"""Coupled-oscillator chain model: coupling matrix and normal modes.

A chain of N unit-mass oscillators with on-site frequency ``omega`` and
nearest-neighbour spring constant ``k`` has potential energy
``(1/2) x.T K x`` with

    K = omega**2 * I + k * L,

where L is the bond Laplacian of the chain graph (open or periodic
boundary).  A sudden quench switches (omega, k) from the "pre" values to
the "post" values at t = 0.  Because K is an affine function of L in both
phases, a single orthogonal transformation decouples the dynamics before
and after the quench; :func:`quench_modes` exposes that shared basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import NumericsError

Boundary = Literal["open", "periodic"]
Phase = Literal["pre", "post"]

# Bond-Laplacian eigenvalues below this (relative) size are snapped to zero.
# The periodic chain has an exact zero mode that eigh returns as O(1e-16).
_MU_SNAP = 1e-13

# Bond-Laplacian eigenvalues closer than this (relative) gap are one value.
# A ring's exact pairs mu_k = mu_(n-k) come out of eigh up to 1.6e-14 apart
# at n = 2048, where distinct values are at least 9.4e-6 apart.
_MU_MERGE = 1e-10


@dataclass(frozen=True)
class ChainSpec:
    """Chain geometry plus pre- and post-quench parameters.

    Frequencies and couplings are in natural units (hbar = 1, unit masses).
    ``omega_i`` must be positive so the pre-quench ground state exists;
    ``omega_f`` may be zero (gapless post-quench chain).  In each phase
    the largest coupling eigenvalue, at most omega**2 + 4 k (bond-Laplacian
    eigenvalues lie in [0, 4]), must be finite.
    """

    n: int
    omega_i: float
    k_i: float
    omega_f: float
    k_f: float
    boundary: Boundary = "periodic"

    def __post_init__(self):
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


@dataclass(frozen=True)
class QuenchModes:
    """Shared normal-mode data for both phases of a quench.

    ``u`` diagonalizes the pre- and the post-quench coupling matrix
    simultaneously (rows are mode vectors).  ``mu`` are the bond-Laplacian
    eigenvalues, so ``lam = omega**2 + k * mu`` in either phase.
    """

    u: np.ndarray
    mu: np.ndarray
    lam_pre: np.ndarray
    lam_post: np.ndarray

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
    lap = np.zeros((n, n))
    bonds = [(j, j + 1) for j in range(n - 1)]
    if boundary == "periodic":
        bonds.append((n - 1, 0))
    elif boundary != "open":
        raise ValueError(f"unknown boundary {boundary!r}")
    for a, b in bonds:
        lap[a, a] += 1.0
        lap[b, b] += 1.0
        lap[a, b] -= 1.0
        lap[b, a] -= 1.0
    return lap


def build_coupling_matrix(spec: ChainSpec, phase: Phase) -> np.ndarray:
    """Coupling matrix K for one phase: omega**2 on site, -k per bond."""
    omega, k = spec.params(phase)
    return omega**2 * np.eye(spec.n) + k * bond_laplacian(spec.n, spec.boundary)


def quench_modes(spec: ChainSpec) -> QuenchModes:
    """Shared mode basis plus eigenvalues for both phases of the quench.

    The basis rows are the ``eigh`` eigenvectors of the bond Laplacian,
    which both coupling matrices are affine functions of; this keeps
    degenerate pairs consistently paired across the quench.  ``mu`` is
    ascending, and eigenvalues within a relative 1e-10 of their neighbour
    share the value of the smallest of them, so each degenerate pair of a
    ring has one exact ``mu`` and one scale factor.  Raises
    :class:`NumericsError` if ``eigh`` fails, if any pre-quench eigenvalue
    is not positive, or if the basis fails to decouple either matrix.
    """
    try:
        mu, vecs = np.linalg.eigh(bond_laplacian(spec.n, spec.boundary))
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigendecomposition failed: {exc}") from exc
    u = np.ascontiguousarray(vecs.T)
    top = max(1.0, np.abs(mu).max())
    mu[np.abs(mu) <= _MU_SNAP * top] = 0.0
    new = np.diff(mu, prepend=-np.inf) > _MU_MERGE * top
    mu = mu[new][np.cumsum(new) - 1]
    lam_pre = spec.omega_i**2 + spec.k_i * mu
    lam_post = spec.omega_f**2 + spec.k_f * mu
    if lam_pre.min() <= 0:
        raise NumericsError(
            f"pre-quench spectrum must be positive, got min eigenvalue {lam_pre.min():.3e}"
        )
    for phase, lam in (("pre", lam_pre), ("post", lam_post)):
        check = u @ build_coupling_matrix(spec, phase) @ u.T
        off = check - np.diag(np.diag(check))
        scale = max(1.0, np.abs(lam).max())
        if np.abs(off).max() > 1e-10 * scale:
            raise NumericsError(f"mode basis failed to decouple the {phase}-quench matrix")
    return QuenchModes(u=u, mu=mu, lam_pre=lam_pre, lam_post=lam_post)
