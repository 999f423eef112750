"""Per-mode covariance builder, symplectic spectrum, and the reference
Gaussian-state assembly and covariance conversion.

Frozen two-site width matrices, the explicit two-site phase-curvature
parameters over random draws, and determinant and purity identities.
"""

import math

import numpy as np
import pytest

from entchain import (
    ChainSpec,
    NumericsError,
    quench_modes,
    solve_sudden,
    symplectic_eigenvalues,
)
from entchain import gaussian
from entchain.gaussian import (
    _TABLE_VALUES,
    _covariance,
    _mode_weights,
    _site_table,
    mode_covariance,
    physical_nu,
)
from support import GaussianState, assemble_state, mode_matrices, symplectic_form, to_covariance

SQRT5 = np.sqrt(5.0)


def _static_state(spec: ChainSpec, t: float = 0.0):
    qm = quench_modes(spec)
    sols = [solve_sudden(li, lf) for li, lf in zip(qm.lam_pre, qm.lam_post)]
    return assemble_state(qm, sols, t)


def test_initial_state_matrices():
    spec = ChainSpec(n=5, omega_i=1.4, k_i=0.8, omega_f=0.3, k_f=2.0)
    qm = quench_modes(spec)
    state = _static_state(spec, 0.0)
    want = qm.u.T @ (np.sqrt(qm.lam_pre)[:, None] * qm.u)
    assert np.abs(state.omega - want).max() < 1e-12
    assert np.array_equal(state.btilde, np.zeros((5, 5)))


def test_two_site_width_matrix_frozen():
    # mode frequencies 1 and 5 (eigenvalues 1 and 25)
    spec = ChainSpec(n=2, omega_i=1.0, k_i=12.0, omega_f=1.0, k_f=12.0, boundary="open")
    state = _static_state(spec)
    assert np.allclose(state.omega, [[3.0, -2.0], [-2.0, 3.0]], atol=1e-12)

    # eigenvalues 1 and 5: entries (1 +/- sqrt 5) / 2
    spec = ChainSpec(n=2, omega_i=1.0, k_i=2.0, omega_f=1.0, k_f=2.0, boundary="open")
    state = _static_state(spec)
    want = np.array(
        [[(1 + SQRT5) / 2, (1 - SQRT5) / 2], [(1 - SQRT5) / 2, (1 + SQRT5) / 2]]
    )
    assert np.allclose(state.omega, want, atol=1e-12)
    assert abs(want[0, 0] - 1.618) < 1e-3 and abs(want[0, 1] + 0.618) < 1e-3


def test_two_site_parameters_random_draws():
    """The assembled matrices must reproduce the explicit two-site
    parametrization: diagonal width (w1 + w2) / 2, off-diagonal width
    (w1 - w2) / 2 with w_j = sqrt(lam_j) / b_j^2, and phase-curvature
    entries built from bdot_j / (4 b_j)."""
    rng = np.random.default_rng(314)
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    for _ in range(10_000):
        lam = rng.uniform(0.05, 9.0, size=2)
        b = rng.uniform(0.2, 4.0, size=2)
        bdot = rng.uniform(-3.0, 3.0, size=2)
        omega, btilde = mode_matrices(u, lam, b, bdot)
        w = np.sqrt(lam) / b**2
        c = bdot / (4.0 * b)
        assert abs(omega[0, 0] - 0.5 * (w[0] + w[1])) < 1e-12
        assert abs(omega[0, 1] - 0.5 * (w[0] - w[1])) < 1e-12
        assert abs(btilde[0, 0] - (c[0] + c[1])) < 1e-12
        assert abs(btilde[0, 1] - (c[0] - c[1])) < 1e-12
        assert abs(omega[0, 1] - omega[1, 0]) == 0.0


def test_single_mode_ground_state_covariance():
    omega = 2.0
    state = GaussianState(omega=np.array([[omega]]), btilde=np.zeros((1, 1)))
    sigma = to_covariance(state)
    assert np.allclose(sigma, np.diag([1.0 / (2 * omega), omega / 2.0]), atol=1e-15)


def test_initial_covariance_block_structure():
    spec = ChainSpec(n=4, omega_i=3.0, k_i=2.0, omega_f=0.1, k_f=2.5)
    state = _static_state(spec, 0.0)
    sigma = to_covariance(state)
    n = 4
    inv = np.linalg.inv(state.omega)
    assert np.abs(sigma[:n, :n] - 0.5 * inv).max() < 1e-12
    assert np.abs(sigma[:n, n:]).max() < 1e-14
    assert np.abs(sigma[n:, n:] - 0.5 * state.omega).max() < 1e-12


def test_determinant_identity():
    """det of the width matrix equals the product of sqrt(lam_j(0)) / b_j^2."""
    spec = ChainSpec(n=6, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5)
    qm = quench_modes(spec)
    sols = [solve_sudden(li, lf) for li, lf in zip(qm.lam_pre, qm.lam_post)]
    for t in (0.0, 1.3, 7.9):
        state = assemble_state(qm, sols, t)
        b = np.array([s.evaluate(t)[0] for s in sols])
        want = np.prod(np.sqrt(qm.lam_pre) / b**2)
        assert np.linalg.det(state.omega) == pytest.approx(want, rel=1e-10)


def test_purity_at_all_times():
    spec = ChainSpec(n=4, omega_i=3.0, k_i=2.0, omega_f=0.1, k_f=2.5)
    qm = quench_modes(spec)
    sols = [solve_sudden(li, lf) for li, lf in zip(qm.lam_pre, qm.lam_post)]
    for t in (0.0, 0.37, 4.2, 41.7):
        sigma = to_covariance(assemble_state(qm, sols, t))
        nu = symplectic_eigenvalues(sigma)
        assert np.abs(nu - 0.5).max() < 1e-9


def test_symplectic_form_and_eigenvalues():
    j = symplectic_form(2)
    assert np.array_equal(j, -j.T)
    assert np.array_equal(j @ j, -np.eye(4))
    # uncertainty-limited thermal-like diagonal state
    sigma = np.diag([0.7, 1.1, 0.7, 1.1])
    nu = symplectic_eigenvalues(sigma)
    assert np.allclose(np.sort(nu), [0.7, 1.1], atol=1e-12)
    with pytest.raises(ValueError, match="even"):
        symplectic_eigenvalues(np.eye(3))
    with pytest.raises(NumericsError, match="positive-definite"):
        symplectic_eigenvalues(np.diag([1.0, -1.0, 1.0, 1.0]))


def test_stacked_symplectic_eigenvalues_match_single_calls():
    spec = ChainSpec(n=6, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5)
    qm = quench_modes(spec)
    sols = [solve_sudden(li, lf) for li, lf in zip(qm.lam_pre, qm.lam_post)]
    kept = [0, 1, 3, 6, 7, 9]  # sites 1, 2, 4: positions then momenta
    stack = np.array([
        to_covariance(assemble_state(qm, sols, t))[np.ix_(kept, kept)]
        for t in (0.0, 0.3, 1.7, 4.1, 9.9)
    ])
    nu = symplectic_eigenvalues(stack)
    assert nu.shape == (5, 3)
    for row, sigma in enumerate(stack):
        assert np.array_equal(nu[row], symplectic_eigenvalues(sigma))
    nested = symplectic_eigenvalues(np.stack([stack[:2], stack[2:4]]))
    assert np.array_equal(nested, nu[:4].reshape(2, 2, 3))
    bad = stack.copy()
    bad[3] = np.diag([1.0, 1.0, -1.0, 1.0, 1.0, 1.0])
    with pytest.raises(NumericsError, match="positive-definite"):
        symplectic_eigenvalues(bad)


def test_numerically_singular_covariance_names_its_eigenvalue_range():
    """A position block rotated by 45 degrees from diag(7.2e17, 0), like a
    gapless zero mode's <x x> far out in time: h = 3.6e17 = (6e8)**2, so
    Cholesky's second pivot h - (h / sqrt h)**2 is exactly 0 and the
    factorization fails whatever order any sum is taken in.  ``eigvalsh``
    resolves the zero eigenvalue only to the roundoff level
    2m eps * 7.2e17 = 640, so the error gives the largest eigenvalue and
    that level instead of the smallest, and calls the matrix numerically
    singular, not indefinite."""
    h = 3.6e17
    sigma = np.array([[h, h, 0.0, 0.0], [h, h, 0.0, 0.0],
                      [0.0, 0.0, 2.0, -1.0], [0.0, 0.0, -1.0, 2.0]])
    with pytest.raises(NumericsError) as err:
        symplectic_eigenvalues(np.stack([np.eye(4), sigma]))
    assert str(err.value) == (
        "covariance matrix is numerically singular:"
        " eigenvalues from 0 +/- 6.395e+02 (roundoff) to 7.200e+17"
    )


def test_cholesky_failure_message_follows_the_roundoff_level(monkeypatch):
    """The smallest eigenvalue is printed only beyond the roundoff level
    2m eps |largest|: a negative one makes the matrix indefinite, a
    positive one that Cholesky still rejects numerically singular, and one
    within roundoff is replaced by that level."""
    eps = np.finfo(float).eps
    with pytest.raises(NumericsError) as err:
        symplectic_eigenvalues(np.diag([4.0, -1e-14, 1.0, 1.0]))
    assert str(err.value) == (
        "covariance matrix must be positive-definite, got eigenvalues from -1.000e-14 to 4.000e+00"
    )
    with pytest.raises(NumericsError) as err:
        symplectic_eigenvalues(np.diag([4.0, -2 * eps, 1.0, 1.0]))
    assert str(err.value) == (
        "covariance matrix is numerically singular:"
        " eigenvalues from 0 +/- 3.553e-15 (roundoff) to 4.000e+00"
    )

    def rejects(sigma):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", rejects)
    with pytest.raises(NumericsError) as err:
        symplectic_eigenvalues(np.diag([4.0, 1e-13, 1.0, 1.0]))
    assert str(err.value) == (
        "covariance matrix is numerically singular, not positive-definite to working"
        " precision: eigenvalues from 1.000e-13 to 4.000e+00"
    )


def test_assemble_state_validation():
    spec = ChainSpec(n=3, omega_i=1.0, k_i=1.0, omega_f=1.0, k_f=1.0)
    qm = quench_modes(spec)
    sols = [solve_sudden(li, lf) for li, lf in zip(qm.lam_pre, qm.lam_post)]
    with pytest.raises(ValueError, match="mode solutions"):
        assemble_state(qm, sols[:2], 0.0)
    with pytest.raises(ValueError, match="non-negative"):
        assemble_state(qm, sols, -1.0)


def test_to_covariance_rejects_indefinite_width():
    state = GaussianState(omega=np.array([[1.0, 2.0], [2.0, 1.0]]), btilde=np.zeros((2, 2)))
    with pytest.raises(NumericsError, match="positive-definite"):
        to_covariance(state)


def test_physical_nu_raises_snaps_and_passes_through():
    with pytest.raises(NumericsError, match="physical floor"):
        physical_nu([0.7, 0.5 - 2e-8])
    snapped = physical_nu(np.array([[0.5 - 5e-9, 0.5 + 5e-12], [0.5, 0.5 + 2e-11]]))
    assert np.array_equal(snapped, [[0.5, 0.5], [0.5, 0.5 + 2e-11]])
    values = np.array([0.75, 1.5, 40.0])
    assert np.array_equal(physical_nu(values), values)
    assert physical_nu(np.empty((0, 2))).shape == (0, 2)


@pytest.mark.parametrize(
    "spec",
    [
        ChainSpec(n=5, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5, boundary="open"),
        ChainSpec(n=6, omega_i=1.0, k_i=1.0, omega_f=0.0, k_f=1.5, boundary="periodic"),
    ],
    ids=["open", "periodic-gapless"],
)
def test_mode_covariance_matches_reference_state(spec):
    qm = quench_modes(spec)
    sols = [solve_sudden(li, lf) for li, lf in zip(qm.lam_pre, qm.lam_post)]
    times = np.array([0.0, 3.7, 41.7])
    pairs = [sol.evaluate(times) for sol in sols]
    b, bdot = (np.column_stack(col) for col in zip(*pairs))
    sigma = mode_covariance(qm.u, qm.lam_pre, b, bdot)
    assert sigma.shape == (3, 2 * spec.n, 2 * spec.n)
    for row, t in enumerate(times):
        want = to_covariance(assemble_state(qm, sols, t))
        assert np.abs(sigma[row] - want).max() <= 1e-12 * np.abs(want).max()
    kept = [1, 2, 4]
    sub = mode_covariance(qm.u[:, kept], qm.lam_pre, b, bdot)
    coords = kept + [s + spec.n for s in kept]
    assert np.abs(sub - sigma[:, coords][:, :, coords]).max() <= 1e-14 * np.abs(sigma).max()


@pytest.mark.parametrize("m, modes", [(1, 4), (2, 8), (5, 20), (32, 64)])
def test_mode_covariance_matches_exact_sums(m, modes):
    """Each entry of every xx, xp and pp block is sum_k w_k u_ki u_kj to
    within 4 eps ||sigma||_2 of an ``math.fsum`` of the same terms, and
    every block is exactly symmetric."""
    rng = np.random.default_rng(m)
    u_cols = np.linalg.qr(rng.standard_normal((modes, modes)))[0][:, :m]
    lam0 = rng.uniform(0.1, 10.0, modes)
    b = rng.uniform(0.2, 5.0, (3, modes))
    bdot = rng.standard_normal((3, modes))
    sigma = mode_covariance(u_cols, lam0, b, bdot)
    assert sigma.shape == (3, 2 * m, 2 * m)
    assert np.array_equal(sigma, sigma.swapaxes(1, 2))
    assert np.array_equal(sigma[:, :m, m:], sigma[:, :m, m:].swapaxes(1, 2))
    weights = _mode_weights(lam0, b, bdot)
    eps = np.finfo(float).eps
    for row in range(3):
        want = np.empty((2 * m, 2 * m))
        for block, (r, c) in enumerate([(0, 0), (0, m), (m, m)]):
            w = weights[row, block].tolist()
            for i in range(m):
                for j in range(m):
                    terms = [w[k] * float(u_cols[k, i]) * float(u_cols[k, j])
                             for k in range(modes)]
                    want[r + i, c + j] = math.fsum(terms)
        want[m:, :m] = want[:m, m:].T
        bound = 4 * eps * np.linalg.norm(sigma[row], 2)
        assert np.abs(sigma[row] - want).max() <= bound


def _widest_tabled_sector(modes):
    """The most sites whose pair table of ``modes`` modes fits the budget."""
    m = 1
    while modes * (m + 1) * (m + 2) // 2 <= _TABLE_VALUES:
        m += 1
    return m


@pytest.mark.parametrize("n, boundary, wider", [(9, "open", 0), (64, "periodic", 0),
                                                 (64, "periodic", 1), (64, "open", 10)])
def test_cached_table_gives_the_same_bits(n, boundary, wider):
    """``entropy_series`` builds each sector's site table once and builds
    each block of rows from it; that equals, bit for bit,
    ``mode_covariance`` building its own table for the whole stack, on
    both sides of the size where the pair table gives way to the
    columns, and every block is exactly symmetric."""
    spec = ChainSpec(n=n, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5, boundary=boundary)
    qm = quench_modes(spec)
    b, bdot = solve_sudden(qm.lam_pre, qm.lam_post).evaluate(0.37 * np.arange(50))
    if n == 9:
        u_cols = qm.u[:, [0, 2, 3, 7]]
    else:
        u_cols = qm.u[:, :_widest_tabled_sector(n) + wider]
    m = u_cols.shape[1]
    table = _site_table(u_cols)
    assert (table[0] is None) == (wider > 0)
    whole = mode_covariance(u_cols, qm.lam_pre, b, bdot)
    assert np.array_equal(whole, whole.swapaxes(1, 2))
    assert np.array_equal(whole[:, :m, m:], whole[:, :m, m:].swapaxes(1, 2))
    weights = _mode_weights(qm.lam_pre, b, bdot)
    for a, z in ((0, 50), (0, 1), (3, 4), (5, 22), (22, 50)):
        assert np.array_equal(_covariance(weights[a:z], table), whole[a:z])
        assert np.array_equal(_covariance(_mode_weights(qm.lam_pre, b[a:z], bdot[a:z]), table),
                              whole[a:z])


def test_pair_table_and_columns_agree_at_the_cutoff(monkeypatch):
    """The widest set of sites that keeps a pair table takes the table
    route and one site more the columns; built both ways, the widest
    tabled set's covariances agree to 4 eps ||sigma||_2."""
    modes = 64
    m = _widest_tabled_sector(modes)
    assert modes * m * (m + 1) // 2 <= _TABLE_VALUES < modes * (m + 1) * (m + 2) // 2
    rng = np.random.default_rng(7)
    u_cols = np.linalg.qr(rng.standard_normal((modes, modes)))[0][:, :m + 1]
    assert _site_table(u_cols)[0] is None
    table = _site_table(u_cols[:, :m])
    assert table[0].shape == (modes, m * (m + 1) // 2)
    weights = _mode_weights(rng.uniform(0.1, 10.0, modes), rng.uniform(0.2, 5.0, (4, modes)),
                            rng.standard_normal((4, modes)))
    tabled = _covariance(weights, table)
    monkeypatch.setattr(gaussian, "_TABLE_VALUES", 0)
    columns = _covariance(weights, _site_table(u_cols[:, :m]))
    bound = 4 * np.finfo(float).eps * np.linalg.norm(tabled, 2, axis=(1, 2))
    assert np.all(np.abs(tabled - columns).max(axis=(1, 2)) <= bound)
