"""Coupling-matrix construction and normal-mode extraction.

Covers: matrix assembly for open and periodic boundaries, the closed-form
mode basis (orthonormal, diagonalizing the bond Laplacian, ring pairs
sharing one mu), closed-form periodic eigenvalues against the dense
eigensolver, trace identities, spec validation, and invariance of
downstream entropies under rotations of degenerate eigenspaces.
"""

import numpy as np
import pytest

from entchain import (
    ChainSpec,
    NumericsError,
    Partition,
    QuenchModes,
    bond_laplacian,
    build_coupling_matrix,
    quench_modes,
    solve_sudden,
)
from entchain import chain
from entchain.gaussian import symplectic_eigenvalues
from entchain.oracles import covariance_entropy
from support import assemble_state, periodic_eigenvalues, reduce_covariance, to_covariance


def test_spec_validation():
    with pytest.raises(ValueError, match="at least 2 sites"):
        ChainSpec(n=1, omega_i=1.0, k_i=0.0, omega_f=1.0, k_f=0.0)
    with pytest.raises(ValueError, match="must be positive"):
        ChainSpec(n=2, omega_i=0.0, k_i=0.0, omega_f=1.0, k_f=0.0)
    with pytest.raises(ValueError, match="non-negative"):
        ChainSpec(n=2, omega_i=1.0, k_i=-0.5, omega_f=1.0, k_f=0.0)
    with pytest.raises(ValueError, match="boundary"):
        ChainSpec(n=2, omega_i=1.0, k_i=0.0, omega_f=1.0, k_f=0.0, boundary="twisted")
    # the largest coupling eigenvalue, omega**2 + 4 k, must be finite
    for params, phase in (((1e200, 0.0, 1.0, 0.0), "pre"), ((1.0, 1e308, 1.0, 0.0), "pre"),
                          ((1.0, 0.0, 1.0, 1e308), "post"), ((1.0, 0.0, 1.5e154, 0.0), "post")):
        with pytest.raises(ValueError, match=f"largest {phase}-quench coupling eigenvalue"):
            ChainSpec(2, *params)
    ChainSpec(2, 1e154, 1e307, 1.0, 0.0)  # 1e308 + 4e307 is still finite


def test_bond_laplacian_shapes():
    open_l = bond_laplacian(4, "open")
    per_l = bond_laplacian(4, "periodic")
    # open endpoints have one neighbor, interior two; periodic all two
    assert np.array_equal(np.diag(open_l), [1, 2, 2, 1])
    assert np.array_equal(np.diag(per_l), [2, 2, 2, 2])
    assert np.allclose(open_l, open_l.T)
    assert np.allclose(per_l, per_l.T)
    # every row sums to zero (uniform shift costs nothing)
    assert np.allclose(open_l.sum(axis=1), 0.0)
    assert np.allclose(per_l.sum(axis=1), 0.0)


def test_two_site_open_matrix():
    spec = ChainSpec(n=2, omega_i=1.0, k_i=0.0, omega_f=1.0, k_f=0.0, boundary="open")
    assert np.array_equal(build_coupling_matrix(spec, "pre"), np.eye(2))

    spec = ChainSpec(n=2, omega_i=1.2, k_i=0.7, omega_f=1.0, k_f=0.0, boundary="open")
    k = build_coupling_matrix(spec, "pre")
    w2 = 1.2**2
    assert np.allclose(k, [[w2 + 0.7, -0.7], [-0.7, w2 + 0.7]])
    lam = np.sort(np.linalg.eigvalsh(k))
    assert np.allclose(lam, [w2, w2 + 2 * 0.7], atol=1e-12)


def test_four_site_periodic_eigenvalues():
    spec = ChainSpec(n=4, omega_i=3.0, k_i=2.0, omega_f=1.0, k_f=0.0)
    modes = quench_modes(spec)
    assert np.allclose(modes.lam_pre, [9.0, 13.0, 13.0, 17.0], atol=1e-10)


def test_quench_modes_two_site_rows():
    spec = ChainSpec(n=2, omega_i=1.0, k_i=2.0, omega_f=1.0, k_f=0.0, boundary="open")
    modes = quench_modes(spec)
    assert np.allclose(modes.lam_pre, [1.0, 5.0], atol=1e-12)
    # rows are the +/- combinations up to sign
    want = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    for row, ref in zip(modes.u, want):
        assert np.allclose(row, ref) or np.allclose(row, -ref)


def test_quench_modes_orthogonality_and_decoupling():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = int(rng.integers(2, 9))
        spec = ChainSpec(
            n=n,
            omega_i=float(rng.uniform(0.2, 3.0)),
            k_i=float(rng.uniform(0.0, 4.0)),
            omega_f=1.0,
            k_f=0.0,
            boundary="periodic" if rng.integers(2) else "open",
        )
        coupling = build_coupling_matrix(spec, "pre")
        modes = quench_modes(spec)
        u = modes.u
        assert np.allclose(u @ u.T, np.eye(n), atol=1e-12)
        diag = u @ coupling @ u.T
        off = diag - np.diag(np.diag(diag))
        assert np.abs(off).max() < 1e-10 * max(1.0, np.abs(diag).max())
        assert np.allclose(np.sort(np.diag(diag)), modes.lam_pre, atol=1e-10)


def test_periodic_closed_form_order():
    spec = ChainSpec(n=4, omega_i=3.0, k_i=2.0, omega_f=1.0, k_f=0.0)
    lam = periodic_eigenvalues(spec, "pre")
    assert np.allclose(lam, [13.0, 17.0, 13.0, 9.0], atol=1e-12)


def test_periodic_closed_form_matches_dense_solver():
    rng = np.random.default_rng(11)
    for _ in range(6):
        n = int(rng.integers(2, 24))
        spec = ChainSpec(
            n=n,
            omega_i=float(rng.uniform(0.1, 3.0)),
            k_i=float(rng.uniform(0.0, 4.0)),
            omega_f=float(rng.uniform(0.0, 3.0)),
            k_f=float(rng.uniform(0.0, 4.0)),
        )
        for phase in ("pre", "post"):
            closed = np.sort(periodic_eigenvalues(spec, phase))
            dense = np.linalg.eigvalsh(build_coupling_matrix(spec, phase))
            assert np.abs(closed - dense).max() < 1e-10 * max(1.0, dense.max())


def test_periodic_zero_coupling_and_zero_mode():
    spec = ChainSpec(n=6, omega_i=1.3, k_i=0.0, omega_f=1.3, k_f=0.0)
    assert np.allclose(periodic_eigenvalues(spec, "pre"), 1.3**2)

    spec = ChainSpec(n=20, omega_i=3.0, k_i=2.0, omega_f=0.01, k_f=2.5)
    lam = periodic_eigenvalues(spec, "post")
    assert abs(lam.min() - 1e-4) < 1e-15


def test_periodic_closed_form_rejects_open():
    spec = ChainSpec(n=4, omega_i=1.0, k_i=1.0, omega_f=1.0, k_f=1.0, boundary="open")
    with pytest.raises(ValueError, match="periodic"):
        periodic_eigenvalues(spec, "pre")


def test_trace_identity():
    for boundary, bonds in (("open", 3), ("periodic", 4)):
        spec = ChainSpec(
            n=4, omega_i=1.7, k_i=0.9, omega_f=0.4, k_f=1.1, boundary=boundary
        )
        for phase in ("pre", "post"):
            omega, k = spec.params(phase)
            coupling = build_coupling_matrix(spec, phase)
            assert np.trace(coupling) == pytest.approx(
                4 * omega**2 + 2 * bonds * k, rel=0, abs=1e-14
            )


@pytest.mark.parametrize("n", [*range(2, 41), 64, 127, 128, 255, 256, 511, 512])
def test_ring_pairs_share_one_mu(n):
    """A ring's bond-Laplacian eigenvalues 2 - 2 cos(2 pi k / n) come in
    pairs k, n - k, each pair one value to the bit and two neighbouring
    rows, with mu = 0 exactly first and, for even n, mu = 4 single; an
    open chain keeps n distinct values, ascending from exactly 0."""
    ring = quench_modes(ChainSpec(n, 1.0, 1.0, 1.0, 1.0, "periodic")).mu
    values, counts = np.unique(ring, return_counts=True)
    assert values.size == n // 2 + 1
    assert np.array_equal(np.bincount(counts, minlength=3), [0, 2 - n % 2, (n - 1) // 2])
    pairs = (n - 1) // 2
    assert ring[0] == 0.0 and np.array_equal(ring[1:2 * pairs + 1:2], ring[2:2 * pairs + 2:2])
    exact = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    assert np.abs(ring - exact).max() < 1e-13
    open_chain = quench_modes(ChainSpec(n, 1.0, 1.0, 1.0, 1.0, "open")).mu
    assert open_chain[0] == 0.0 and np.all(np.diff(open_chain) > 0)


@pytest.mark.parametrize("n", [*range(2, 65), 1024])
def test_closed_form_basis(n):
    """The Fourier and DCT-II modes are orthonormal to 1e-13 and leave
    residuals |u_k L - mu_k u_k| of at most 1e-13."""
    for boundary in ("periodic", "open"):
        modes = quench_modes(ChainSpec(n, 1.0, 1.0, 1.0, 1.0, boundary))
        u, mu = modes.u, modes.mu
        assert np.abs(u @ u.T - np.eye(n)).max() <= 1e-13
        assert np.abs(u @ bond_laplacian(n, boundary) - mu[:, None] * u).max() <= 1e-13


def test_basis_residual_check_raises(monkeypatch):
    monkeypatch.setattr(chain, "_BASIS_RESIDUAL", -1.0)
    with pytest.raises(NumericsError, match="failed to decouple the bond Laplacian"):
        quench_modes(ChainSpec(8, 1.0, 1.0, 1.0, 1.0))


def test_quench_modes_shared_basis():
    spec = ChainSpec(n=6, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5)
    qm = quench_modes(spec)
    pre = build_coupling_matrix(spec, "pre")
    post = build_coupling_matrix(spec, "post")
    u = qm.u
    for mat, lam in ((pre, qm.lam_pre), (post, qm.lam_post)):
        diag = u @ mat @ u.T
        assert np.abs(diag - np.diag(lam)).max() < 1e-9
    # bond-Laplacian eigenvalues relate the two phases
    assert np.allclose(qm.lam_pre, 3.0**2 + 2.0 * qm.mu, atol=1e-10)
    assert np.allclose(qm.lam_post, 0.3**2 + 2.5 * qm.mu, atol=1e-10)


def _second_half_entropy(qm: QuenchModes, t: float) -> float:
    sols = [solve_sudden(li, lf) for li, lf in zip(qm.lam_pre, qm.lam_post)]
    state = assemble_state(qm, sols, t)
    sigma = reduce_covariance(to_covariance(state), Partition.second_half(qm.n))
    nu = symplectic_eigenvalues(sigma)
    return covariance_entropy(nu, alphas=(1,))[1]


def test_degenerate_rotation_leaves_entropy_invariant():
    """Periodic chains carry degenerate mode pairs; any orthonormal basis
    of the degenerate subspace must give the same physics."""
    spec = ChainSpec(n=4, omega_i=3.0, k_i=2.0, omega_f=0.1, k_f=2.5)
    qm = quench_modes(spec)
    # locate the degenerate pair (lam_pre 13, 13)
    pair = [i for i in range(4) if abs(qm.lam_pre[i] - 13.0) < 1e-9]
    assert len(pair) == 2
    theta = 0.7328
    rot = np.array(
        [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
    )
    u_rot = qm.u.copy()
    u_rot[pair] = rot @ u_rot[pair]
    qm_rot = QuenchModes(
        u=u_rot, mu=qm.mu, lam_pre=qm.lam_pre, lam_post=qm.lam_post
    )
    for t in (0.0, 3.7, 19.3):
        s_ref = _second_half_entropy(qm, t)
        s_rot = _second_half_entropy(qm_rot, t)
        assert abs(s_ref - s_rot) < 1e-9
