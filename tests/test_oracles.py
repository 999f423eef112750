"""Independent verification paths: covariance propagation and kernel
diagonalization.

The propagator path never touches the scale-factor machinery, so
agreement between the two pipelines is evidence against shared bugs.
"""

import time

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import entchain.entanglement
import entchain.oracles
from entchain import (
    ChainSpec,
    IntegrationError,
    NumericsError,
    Partition,
    QuenchSchedule,
    covariance_series,
    entropy_series,
    from_dict,
    integrate_general,
    quench_modes,
    symplectic_eigenvalues,
)
from entchain.chain import bond_laplacian, build_coupling_matrix
from entchain.entanglement import UniformGrid, _chunk_rows, _sector_columns, _sector_spectrum
from entchain.ermakov import solve_sudden
from entchain.gaussian import _mode_weights, _site_table, mode_covariance
from entchain.oracles import (
    SymplecticPropagator,
    covariance_entropy,
    ground_state_covariance,
)
from entchain.run import figure_documents
from support import (
    GaussianState,
    assemble_state,
    kernel_ladder_gap,
    kernel_spectrum,
    mode_matrices,
    mp_symplectic_eigenvalues,
    partial_trace,
    reduce_covariance,
    symplectic_form,
)

XI_STATIC = 2.0 / (7.0 + 3.0 * np.sqrt(5.0))


def test_ground_state_covariance_structure():
    spec = ChainSpec(n=4, omega_i=3.0, k_i=2.0, omega_f=1.0, k_f=0.0)
    coupling = build_coupling_matrix(spec, "pre")
    sigma = ground_state_covariance(coupling)
    nu = symplectic_eigenvalues(sigma)
    assert np.abs(nu - 0.5).max() < 1e-10
    # xx block is half the inverse square root of the coupling
    w, v = np.linalg.eigh(coupling)
    inv_root = v @ ((w ** -0.5)[:, None] * v.T)
    assert np.abs(sigma[:4, :4] - 0.5 * inv_root).max() < 1e-12
    assert np.abs(sigma[:4, 4:]).max() == 0.0
    with pytest.raises(NumericsError):
        ground_state_covariance(np.diag([-1.0, 1.0]))


def test_propagator_is_symplectic():
    j4 = symplectic_form(4)
    specs = [
        ChainSpec(n=4, omega_i=3.0, k_i=2.0, omega_f=0.1, k_f=2.5),
        # zero post-quench mode: periodic chain at omega_f = 0
        ChainSpec(n=4, omega_i=3.0, k_i=2.0, omega_f=0.0, k_f=2.5),
    ]
    for spec in specs:
        prop = SymplecticPropagator.from_coupling(
            build_coupling_matrix(spec, "post")
        )
        assert np.abs(prop.matrix(0.0) - np.eye(8)).max() < 1e-12
        for t in (0.4, 3.9, 77.0):
            s = prop.matrix(t)
            assert np.abs(s @ j4 @ s.T - j4).max() < 1e-10


def test_propagator_stack_matches_scalar_calls():
    spec = ChainSpec(n=5, omega_i=3.0, k_i=2.0, omega_f=0.0, k_f=2.5)
    prop = SymplecticPropagator.from_coupling(build_coupling_matrix(spec, "post"))
    times = np.array([0.0, 0.4, 3.9, 77.0])
    stack = prop.matrix(times)
    assert stack.shape == (4, 10, 10)
    for t, flow in zip(times, stack):
        assert np.array_equal(flow, prop.matrix(float(t)))


def test_propagator_of_a_coupling_stack():
    """A stack of couplings flows each over its own time, as one
    propagator per coupling would, and ``increment`` is the flow minus
    the identity."""
    lap = bond_laplacian(4, "open")
    couplings = [0.09 * np.eye(4) + 2.5 * lap, 4.0 * np.eye(4), 1.7 * lap]
    times = np.array([0.3, 1e-3, 5.0])
    stack = SymplecticPropagator.from_coupling(np.stack(couplings))
    flows = stack.matrix(times)
    assert flows.shape == (3, 8, 8)
    for coupling, t, flow, step in zip(couplings, times, flows, stack.increment(times)):
        single = SymplecticPropagator.from_coupling(coupling).matrix(t)
        assert np.abs(flow - single).max() < 1e-14
        assert np.abs(step + np.eye(8) - single).max() < 1e-14


@pytest.mark.parametrize("sites", [[2], [6, 0, 3], [1, 4, 5]], ids=str)
def test_propagator_rows_match_full_flow(sites):
    """``matrix(t, sites)`` is the position rows, then the momentum rows,
    of those sites in the full flow, for one time and for a stack."""
    spec = ChainSpec(n=7, omega_i=3.0, k_i=2.0, omega_f=0.0, k_f=2.5)
    prop = SymplecticPropagator.from_coupling(build_coupling_matrix(spec, "post"))
    rows = sites + [7 + s for s in sites]
    for t in (3.9, np.array([0.0, 0.4, 3.9, 77.0])):
        part = prop.matrix(t, sites)
        full = prop.matrix(t)
        assert part.shape == full.shape[:-2] + (2 * len(sites), 14)
        assert np.abs(part - full[..., rows, :]).max() < 1e-13


def test_covariance_series_on_asymmetric_partition():
    """Open n = 7 keeping sites {1, 4, 6}, a partition with no reflection
    symmetry: the kept-row flow matches the full flow reduced afterwards,
    and the primary path."""
    spec = ChainSpec(n=7, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5, boundary="open")
    part = Partition.from_traced([2, 3, 5, 7], 7)
    assert part.kept == (1, 4, 6)
    times = np.linspace(0.0, 60.0, 301)
    oracle = covariance_series(spec, part, times, alphas=(1, 2))

    sigma0 = ground_state_covariance(build_coupling_matrix(spec, "pre"))
    flow = SymplecticPropagator.from_coupling(build_coupling_matrix(spec, "post")).matrix(times)
    kept = reduce_covariance(flow @ sigma0 @ flow.swapaxes(1, 2), part)
    nu = entchain.oracles.symplectic_eigenvalues(kept)
    full = covariance_entropy(nu, (1, 2))
    xi = (2.0 * nu - 1.0) / (2.0 * nu + 1.0)
    assert np.abs(oracle.xi - xi).max() < 1e-12
    primary = entropy_series(spec, part, times, alphas=(1, 2))
    assert np.abs(oracle.xi - primary.xi).max() < 1e-10
    for a in (1, 2):
        assert np.abs(oracle.entropies[a] - full[a]).max() < 1e-12
        assert np.abs(oracle.entropies[a] - primary.entropies[a]).max() < 1e-10


def test_series_agree_at_time_zero_and_no_quench():
    spec = ChainSpec(n=4, omega_i=3.0, k_i=2.0, omega_f=3.0, k_f=2.0)
    times = 0.5 * np.arange(30)
    part = Partition.second_half(4)
    oracle = covariance_series(spec, part, times, alphas=(1, 2))
    assert np.abs(oracle.s1 - oracle.s1[0]).max() < 1e-10
    primary = entropy_series(spec, part, times, alphas=(1, 2))
    assert abs(oracle.s1[0] - primary.s1[0]) < 1e-10


def test_oracle_matches_primary_path():
    spec = ChainSpec(n=4, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5)
    times = 0.25 * np.arange(201)
    part = Partition.second_half(4)
    primary = entropy_series(spec, part, times, alphas=(1, 2))
    oracle = covariance_series(spec, part, times, alphas=(1, 2))
    assert np.abs(primary.s1 - oracle.s1).max() < 1e-9
    assert np.abs(primary.entropies[2] - oracle.entropies[2]).max() < 1e-9
    assert np.abs(primary.xi - oracle.xi).max() < 1e-9


@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_random_chains_agree_across_paths(data):
    """Random small chains, partitions (mostly not reflection-symmetric),
    quench targets (including the gapless omega_f = 0) and times: the
    primary path matches the oracle, complementary blocks carry equal
    entropies, xi stays in [0, 1), and the full state stays pure."""
    n = data.draw(st.integers(2, 7), label="n")
    boundary = data.draw(st.sampled_from(["open", "periodic"]), label="boundary")
    traced = data.draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1), label="traced")
    omega_f = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)), label="omega_f")
    t = data.draw(st.floats(0.0, 50.0), label="t")
    spec = ChainSpec(n=n, omega_i=3.0, k_i=2.0, omega_f=omega_f, k_f=2.5, boundary=boundary)
    part = Partition.from_traced(traced, n)
    times = np.array([t])
    primary = entropy_series(spec, part, times, alphas=(1, 2))
    oracle = covariance_series(spec, part, times, alphas=(1, 2))
    other = entropy_series(spec, part.complement(), times, alphas=(1, 2))
    for a in (1, 2):
        assert abs(primary.entropies[a][0] - oracle.entropies[a][0]) < 1e-8
        assert abs(primary.entropies[a][0] - other.entropies[a][0]) < 1e-9
    assert 0.0 <= primary.xi.min() and primary.xi.max() < 1.0
    modes = quench_modes(spec)
    pairs = [solve_sudden(li, lf).evaluate(times) for li, lf in zip(modes.lam_pre, modes.lam_post)]
    b, bdot = (np.column_stack(col) for col in zip(*pairs))
    nu = symplectic_eigenvalues(mode_covariance(modes.u, modes.lam_pre, b, bdot))
    assert np.abs(nu - 0.5).max() < 1e-9


class _Forbidden(Exception):
    pass


def test_spectrum_routes_are_separate_code(monkeypatch):
    """The primary path and the oracle each run their own spectrum code:
    with Cholesky and QR unavailable the oracle still checks a fig2 curve,
    and the primary path cannot run a fig3 curve (n = 10), whose sectors of
    three and two sites take the LAPACK Cholesky route from three sites."""
    assert entchain.entanglement.symplectic_eigenvalues is not entchain.oracles.symplectic_eigenvalues
    config = from_dict(figure_documents("fig2")[0][1])
    times = np.linspace(0.0, 100.0, 201)
    primary = entropy_series(config.chain, config.partition, times, alphas=(1, 2))

    def forbidden(*args, **kwargs):
        raise _Forbidden

    monkeypatch.setattr(np.linalg, "cholesky", forbidden)
    monkeypatch.setattr(np.linalg, "qr", forbidden)
    oracle = covariance_series(config.chain, config.partition, times, alphas=(1, 2))
    for a in (1, 2):
        assert np.abs(oracle.entropies[a] - primary.entropies[a]).max() < 1e-8
    wider = from_dict(figure_documents("fig3")[2][1])
    assert wider.chain.n == 10
    with pytest.raises(_Forbidden):
        entropy_series(wider.chain, wider.partition, times)


def _mp_symplectic_eigenvalues(sigma: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a double-precision covariance to 50 digits."""
    with mpmath.workdps(50):
        return np.array([float(v) for v in mp_symplectic_eigenvalues(sigma)])


def _random_chain_case(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    traced = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n)), replace=False)
    spec = ChainSpec(
        n=n, omega_i=float(rng.uniform(0.5, 3.0)), k_i=float(rng.uniform(0.0, 2.5)),
        omega_f=float(rng.uniform(0.0, 3.0)), k_f=float(rng.uniform(0.0, 2.5)),
        boundary=("open", "periodic")[seed % 2],
    )
    return spec, Partition.from_traced(traced.tolist(), n).kept, [0.0, 0.9, 37.0, 640.0]


_GAPLESS_RING = ChainSpec(n=8, omega_i=3.0, k_i=2.0, omega_f=0.0, k_f=2.5)
_REFERENCE_CASES = {
    **{f"random-{seed}": _random_chain_case(seed) for seed in range(4)},
    "asymmetric": (
        ChainSpec(n=7, omega_i=1.0, k_i=1.0, omega_f=0.3, k_f=2.0, boundary="open"),
        Partition.from_traced([1, 2, 5], 7).kept,
        [0.0, 3.3, 71.0],
    ),
    # nu - 1/2 between 1e-16 and 6e-9
    "near-pure": (
        ChainSpec(n=4, omega_i=3.0, k_i=1e-3, omega_f=3.0, k_f=2e-3, boundary="open"),
        (1, 2),
        [0.0, 0.4, 5.0],
    ),
    "gapless-ring-kept-1234": (_GAPLESS_RING, (1, 2, 3, 4), [1e2, 1e3, 1e4]),
    "gapless-ring-kept-256": (_GAPLESS_RING, (2, 5, 6), [1e2, 1e3, 1e4]),
}

# |d nu| <= c eps ||sigma||_2.  Over 360 random kept blocks (m up to 10,
# 30% of them gapless, t log-uniform on [0.1, 1e4]) the largest
# |d nu| / (eps ||sigma||_2) was 3.8 for the Cholesky route and 5.1 for
# the oracle's block-factor route.
_SPECTRUM_C = 16.0


@pytest.mark.parametrize("case", list(_REFERENCE_CASES))
def test_spectrum_routes_match_50_digit_reference(case):
    """The Cholesky and block-factor routes stay within c eps ||sigma||_2
    of a 50-digit spectrum of the same double-precision kept-block
    covariances, and so does the mirror-sector route of ``entropy_series``,
    which builds its sector covariances from the same scale factors."""
    spec, kept, times = _REFERENCE_CASES[case]
    modes = quench_modes(spec)
    pairs = [
        solve_sudden(li, lf).evaluate(np.array(times))
        for li, lf in zip(modes.lam_pre, modes.lam_post)
    ]
    b, bdot = (np.column_stack(col) for col in zip(*pairs))
    stack = mode_covariance(modes.u[:, [s - 1 for s in kept]], modes.lam_pre, b, bdot)
    routes = [
        entchain.entanglement.symplectic_eigenvalues(stack),
        entchain.oracles.symplectic_eigenvalues(stack),
        _sector_spectrum([_site_table(cols) for cols in _sector_columns(spec, modes.u, kept)],
                         _mode_weights(modes.lam_pre, b, bdot)),
    ]
    for row, sigma in enumerate(stack):
        reference = _mp_symplectic_eigenvalues(sigma)
        bound = _SPECTRUM_C * np.finfo(float).eps * np.linalg.norm(sigma, 2)
        for nu in routes:
            assert np.abs(nu[row] - reference).max() <= bound


def _random_symplectic(rng, m: int) -> np.ndarray:
    """K Z K' (Bloch-Messiah): orthogonal symplectic K and K', each
    [[X, -Y], [Y, X]] for a random unitary X + iY, around a squeeze
    Z = diag(r, 1 / r) with r in [e^-2, e^2]."""

    def passive():
        q, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        return np.block([[q.real, -q.imag], [q.imag, q.real]])

    r = np.exp(rng.uniform(-2.0, 2.0, size=m))
    return passive() @ np.diag(np.concatenate([r, 1.0 / r])) @ passive()


def _squeezed_stack(m: int, count: int = 40) -> np.ndarray:
    """Covariances S diag(nu, nu) S^T of m modes for random symplectic S,
    ``count`` rows for each kind of spectrum: near-pure (nu - 1/2 from
    1e-16 to 1e-9) and large (nu up to 1e6), and for m = 2 also one
    near-pure value beside a large one, and exactly equal pairs."""
    rng = np.random.default_rng(16 + m)
    kinds = [
        lambda: 0.5 + 10.0 ** rng.uniform(-16.0, -9.0, size=m),
        lambda: 0.5 + 10.0 ** rng.uniform(0.0, 6.0, size=m),
    ]
    if m == 2:
        kinds += [
            lambda: 0.5 + 10.0 ** np.array([rng.uniform(-16.0, -9.0), rng.uniform(0.0, 6.0)]),
            lambda: np.full(2, rng.uniform(0.5, 10.0)),
        ]
    stack = []
    for kind in kinds:
        for _ in range(count):
            s, nu = _random_symplectic(rng, m), kind()
            stack.append(s @ np.diag(np.concatenate([nu, nu])) @ s.T)
    return np.array(stack)


@pytest.mark.parametrize("m", [1, 2])
def test_closed_form_spectrum_matches_50_digit_reference(m):
    """One- and two-mode covariances take a closed form instead of an
    eigensolver; it stays within c eps ||sigma||_2 of a 50-digit spectrum
    on degenerate, near-pure and large spectra, and a stack, a single
    matrix and a nested stack give the same values bit for bit."""
    stack = _squeezed_stack(m)
    nu = symplectic_eigenvalues(stack)
    assert nu.shape == (len(stack), m)
    for row, sigma in enumerate(stack):
        bound = _SPECTRUM_C * np.finfo(float).eps * np.linalg.norm(sigma, 2)
        assert np.abs(nu[row] - _mp_symplectic_eigenvalues(sigma)).max() <= bound
        assert np.array_equal(symplectic_eigenvalues(sigma), nu[row])
    nested = symplectic_eigenvalues(stack.reshape(2, -1, 2 * m, 2 * m))
    assert np.array_equal(nested, nu.reshape(2, -1, m))


# The oracle route on squeezed covariances, where an ill-conditioned position
# block X stresses the Schur complement P - M M^T.  The largest
# |d nu| / (eps ||sigma||_2) was 8.0 (m = 1), 11.0 (m = 2), 2.9, 2.9 and 6.4
# (m = 3, 5, 8), within _SPECTRUM_C = 16; the eigen-factor route of one
# 2m x 2m ``eigh`` of sigma, which this route replaced, reached 27.7 at m = 2.
@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_reference_route_on_squeezed_covariances(m):
    """The oracle's spectrum stays within c eps ||sigma||_2 of a 50-digit
    spectrum on near-pure and large (nu up to 1e6) squeezed spectra."""
    stack = _squeezed_stack(m, 40 if m <= 2 else 8)
    nu = entchain.oracles.symplectic_eigenvalues(stack)
    for row, sigma in enumerate(stack):
        bound = _SPECTRUM_C * np.finfo(float).eps * np.linalg.norm(sigma, 2)
        assert np.abs(nu[row] - _mp_symplectic_eigenvalues(sigma)).max() <= bound


def test_reference_route_keeps_flowed_ground_states_pure():
    """The full-state purity check of ``verify`` at 64 sites: the ground
    state of a ring and of an open chain, quenched to a gapped and to a
    gapless coupling and flowed exactly to t = 1, 1e2 and 1e3, keeps every
    nu within c eps ||sigma||_2 of 1/2 (largest c measured: 9.7)."""
    times = np.array([1.0, 1e2, 1e3])
    for boundary in ("periodic", "open"):
        for omega_f in (0.3, 0.0):
            spec = ChainSpec(n=64, omega_i=3.0, k_i=2.0, omega_f=omega_f, k_f=2.5,
                             boundary=boundary)
            sigma0 = ground_state_covariance(build_coupling_matrix(spec, "pre"))
            post = build_coupling_matrix(spec, "post")
            flow = SymplecticPropagator.from_coupling(post).matrix(times)
            sigma = flow @ sigma0 @ flow.swapaxes(1, 2)
            nu = entchain.oracles.symplectic_eigenvalues(sigma)
            bound = _SPECTRUM_C * np.finfo(float).eps * np.linalg.norm(sigma, 2, axis=(1, 2))
            assert np.all(np.abs(nu - 0.5) <= bound[:, None])


def test_ramp_sectors_take_no_eigensolver(monkeypatch):
    """The benchmark's ramp shape, a ring of 8 with sites 1-4 kept, splits
    into two two-site mirror sectors: with ``eigvalsh`` unavailable its
    entropies still run and match the oracle's, while a three-mode
    spectrum needs the eigensolver."""
    spec = ChainSpec(n=8, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5)
    partition = Partition.from_traced([5, 6, 7, 8], 8)
    schedule = QuenchSchedule(times=[0.0, 10.0, 20.0, 30.0], omegas=[3.0, 2.0, 1.0, 0.3],
                              ks=[2.0, 2.2, 2.4, 2.5])
    times = np.linspace(0.0, 40.0, 9)
    oracle = covariance_series(spec, partition, times, alphas=(1, 2), schedule=schedule)

    def forbidden(*args, **kwargs):
        raise _Forbidden

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    primary = entropy_series(spec, partition, times, alphas=(1, 2), schedule=schedule)
    for a in (1, 2):
        assert np.abs(primary.entropies[a] - oracle.entropies[a]).max() < 1e-8
    with pytest.raises(_Forbidden):
        symplectic_eigenvalues(np.eye(6))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_cholesky_route_matches_reference_spectrum(data):
    """The Cholesky-factor spectrum of the primary path against the
    oracle's block-factor reference on kept-block covariance stacks of random
    chains, partitions, quench targets and times."""
    n = data.draw(st.integers(2, 11), label="n")
    boundary = data.draw(st.sampled_from(["open", "periodic"]), label="boundary")
    traced = data.draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1), label="traced")
    omega_f = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)), label="omega_f")
    times = np.array(
        data.draw(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=8), label="times")
    )
    spec = ChainSpec(n=n, omega_i=3.0, k_i=2.0, omega_f=omega_f, k_f=2.5, boundary=boundary)
    kept = Partition.from_traced(traced, n).kept
    modes = quench_modes(spec)
    pairs = [solve_sudden(li, lf).evaluate(times) for li, lf in zip(modes.lam_pre, modes.lam_post)]
    b, bdot = (np.column_stack(col) for col in zip(*pairs))
    sigma = mode_covariance(modes.u[:, [s - 1 for s in kept]], modes.lam_pre, b, bdot)
    reference = entchain.oracles.symplectic_eigenvalues(sigma)
    nu = symplectic_eigenvalues(sigma)
    assert nu.shape == reference.shape == (times.size, len(kept))
    assert np.all(np.abs(nu - reference) <= 1e-11 * np.maximum(1.0, reference))


def _mirrored_kept(data, n: int, boundary: str):
    """A kept set that a reflection s -> c - s (mod n, sites from 0) of
    the chain maps onto itself, and its centre c: a contiguous arc, or a
    union of reflection orbits {s, c - s}, where an orbit of one site is
    a fixed centre.  An open chain has the one reflection c = n - 1."""
    centre = n - 1
    if data.draw(st.booleans(), label="contiguous"):
        if boundary == "open":
            margin = data.draw(st.integers(1, max(1, (n - 1) // 2)), label="margin")
            sites = range(margin, n - margin)
        else:
            first = data.draw(st.integers(0, n - 1), label="first")
            length = data.draw(st.integers(1, n - 1), label="length")
            sites = [(first + i) % n for i in range(length)]
            centre = (2 * first + length - 1) % n
    else:
        if boundary == "periodic":
            centre = data.draw(st.integers(0, n - 1), label="centre")
        orbits = sorted({tuple(sorted({s, (centre - s) % n})) for s in range(n)})
        chosen = data.draw(st.lists(st.booleans(), min_size=len(orbits),
                                    max_size=len(orbits)), label="orbits")
        sites = [s for orbit, keep in zip(orbits, chosen) if keep for s in orbit]
    assume(0 < len(sites) < n)
    assert {(centre - s) % n for s in sites} == set(sites)
    return tuple(sorted(s + 1 for s in sites)), centre


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_sector_route_matches_unsplit_spectrum(data):
    """The mirror-sector spectrum of ``entropy_series`` against the
    Cholesky spectrum of the whole kept block, on mirror-symmetric kept
    sets of random chains (contiguous or not, odd sizes with a fixed
    centre site), sudden quenches and tables, gapless targets included:
    |d nu| <= c eps ||sigma||_2 row by row."""
    n = data.draw(st.integers(2, 12), label="n")
    boundary = data.draw(st.sampled_from(["open", "periodic"]), label="boundary")
    kept, centre = _mirrored_kept(data, n, boundary)
    kind = data.draw(st.sampled_from(["sudden", "linear", "previous"]), label="kind")
    times = np.array(
        data.draw(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=6), label="times")
    )
    if kind == "sudden":
        omega_f = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)), label="omega_f")
        spec = ChainSpec(n=n, omega_i=3.0, k_i=2.0, omega_f=omega_f, k_f=2.5, boundary=boundary)
        modes = quench_modes(spec)
        pairs = [solve_sudden(li, lf).evaluate(times)
                 for li, lf in zip(modes.lam_pre, modes.lam_post)]
        b, bdot = (np.column_stack(col) for col in zip(*pairs))
    else:
        samples = data.draw(st.integers(2, 4), label="samples")
        gaps = data.draw(st.lists(st.floats(0.2, 3.0), min_size=samples - 1,
                                  max_size=samples - 1), label="gaps")
        rows = data.draw(st.lists(_TABLE_ROW, min_size=samples, max_size=samples), label="rows")
        omegas, ks = (np.array(column) for column in zip(*rows))
        spec = ChainSpec(n=n, omega_i=3.0, k_i=2.0, omega_f=omegas[-1], k_f=ks[-1],
                         boundary=boundary)
        modes = quench_modes(spec)
        solution = integrate_general(modes.lam_pre, np.cumsum([0.0] + gaps),
                                     omegas**2 + modes.mu[:, None] * ks, kind)
        b, bdot = solution.evaluate(times)
    sectors = _sector_columns(spec, modes.u, kept)
    fixed = sum((centre - (s - 1)) % n == s - 1 for s in kept)
    assert fixed == len(kept) or len(sectors) == 2
    assert sum(cols.shape[1] for cols in sectors) == len(kept)
    sigma = mode_covariance(modes.u[:, [s - 1 for s in kept]], modes.lam_pre, b, bdot)
    whole = symplectic_eigenvalues(sigma)
    split = _sector_spectrum([_site_table(cols) for cols in sectors],
                             _mode_weights(modes.lam_pre, b, bdot))
    bound = _SPECTRUM_C * np.finfo(float).eps * np.linalg.norm(sigma, 2, axis=(1, 2))
    assert split.shape == whole.shape
    assert np.all(np.abs(split - whole) <= bound[:, None])


@pytest.mark.parametrize(
    ("spectrum", "position", "schur"),
    [
        (entchain.entanglement.symplectic_eigenvalues,
         "eigenvalues from -1.000e+00", "eigenvalues from -1.000e+00"),
        (entchain.oracles.symplectic_eigenvalues,
         "its position block has smallest eigenvalue -1.000e+00",
         "the Schur complement of its position block has smallest eigenvalue -3.000e+00"),
    ],
    ids=["primary", "reference"],
)
def test_spectrum_routes_reject_bad_covariances(spectrum, position, schur):
    """A covariance that is not positive-definite fails with a message
    giving a true smallest eigenvalue: of sigma on the primary path, and of
    the block that failed on the oracle's, whose position block of
    [[1, 2], [2, 1]] is positive-definite while sigma is not."""
    with pytest.raises(ValueError, match="even"):
        spectrum(np.eye(3))
    for sigma, named in ((np.diag([1.0, -1.0, 1.0, 1.0]), position),
                         (np.array([[1.0, 2.0], [2.0, 1.0]]), schur)):
        with pytest.raises(NumericsError, match="must be positive-definite") as failure:
            spectrum(sigma)
        assert named in str(failure.value)
    for bad in (np.inf, np.nan):
        stack = np.stack([np.eye(4), np.eye(4)])
        stack[1, 0, 0] = bad
        with pytest.raises(NumericsError, match="non-finite"):
            spectrum(stack)


def test_general_integrator_reproduces_sudden():
    # a one-row table has no linear stretch to cut: both rules give the
    # sudden quench's one exact piece
    spec = ChainSpec(n=4, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5)
    times = 0.2 * np.arange(101)
    part = Partition.second_half(4)
    sudden = covariance_series(spec, part, times, alphas=(1, 2, 3))
    for interpolation in ("previous", "linear"):
        schedule = QuenchSchedule(
            times=[0.0], omegas=[0.3], ks=[2.5], interpolation=interpolation
        )
        general = covariance_series(
            spec, part, times, alphas=(1, 2, 3), schedule=schedule
        )
        assert np.array_equal(sudden.xi, general.xi)
        for a in (1, 2, 3):
            assert np.array_equal(sudden.entropies[a], general.entropies[a])


def test_constant_linear_table_reproduces_sudden():
    """The Magnus rule is exact for a constant K, so a linear table with
    equal rows only adds the roundoff of its many pieces.  (Near the
    gapless point, omega_f = 0.3, k_f = 2.5, the sudden oracle itself is
    2.3e-13 from the primary path and the two routes 1.7e-13 apart.)"""
    spec = ChainSpec(n=4, omega_i=3.0, k_i=2.0, omega_f=1.0, k_f=1.0)
    schedule = QuenchSchedule(
        times=[0.0, 30.0], omegas=[1.0, 1.0], ks=[1.0, 1.0], interpolation="linear"
    )
    times = 0.5 * np.arange(101)
    part = Partition.second_half(4)
    sudden = covariance_series(spec, part, times, alphas=(1, 2))
    general = covariance_series(spec, part, times, alphas=(1, 2), schedule=schedule)
    assert np.abs(sudden.xi - general.xi).max() < 1e-13
    for a in (1, 2):
        assert np.abs(sudden.entropies[a] - general.entropies[a]).max() < 1e-13


def test_general_schedule_cross_validates_primary_path():
    """A genuine ramp: covariance flow integration against the
    scale-factor pipeline, two unrelated integrators."""
    spec = ChainSpec(n=4, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5)
    schedule = QuenchSchedule(
        times=[0.0, 2.0, 4.0],
        omegas=[3.0, 1.5, 0.3],
        ks=[2.0, 2.25, 2.5],
        interpolation="linear",
    )
    times = 0.25 * np.arange(41)
    part = Partition.second_half(4)
    primary = entropy_series(spec, part, times, schedule=schedule)
    oracle = covariance_series(spec, part, times, schedule=schedule)
    assert np.abs(primary.s1 - oracle.s1).max() < 1e-8


@pytest.mark.parametrize("interpolation", ["linear", "previous"])
def test_ramp_table_cross_validates_primary_path(interpolation):
    """The eight-site ramp table, with Taylor-piece (linear) or cos/sin
    (previous) segment propagators, against the covariance flow at its
    default tolerance: Magnus pieces (linear) or exact per-row flows
    (previous).  The sparse grid reaches t = 100; the dense one spans four
    128-row blocks with a step of 0.1, below the first Magnus piece
    (0.24), so every stretch between output times must still be refined."""
    table = [[0.0, 3.0, 2.0], [10.0, 2.0, 2.2], [20.0, 1.0, 2.4], [30.0, 0.3, 2.5]]
    spec = ChainSpec(n=8, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5)
    schedule = QuenchSchedule(*np.transpose(table), interpolation=interpolation)
    part = Partition.second_half(8)
    for times in (np.linspace(0.0, 100.0, 51), np.linspace(0.0, 40.0, 401)):
        primary = entropy_series(spec, part, times, alphas=(1, 2), schedule=schedule)
        oracle = covariance_series(spec, part, times, alphas=(1, 2), schedule=schedule)
        for a in (1, 2):
            assert np.abs(primary.entropies[a] - oracle.entropies[a]).max() < 1e-9
    modes = quench_modes(spec)
    for mu, lam0 in zip(modes.mu, modes.lam_pre):
        lams = schedule.omegas**2 + mu * schedule.ks
        phis = integrate_general(lam0, schedule.times, lams, interpolation).phis
        assert np.abs(np.linalg.det(phis) - 1.0).max() <= 1e-12


# One table row (omega, k): omega and k each reach 0, but never together,
# so at most a zero mode (omega = 0) evolves freely.
_TABLE_ROW = st.one_of(
    st.tuples(st.just(0.0), st.floats(0.5, 3.0)),
    st.tuples(st.floats(0.3, 3.0), st.one_of(st.just(0.0), st.floats(0.0, 3.0))),
)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_random_tables_agree_across_paths(data):
    """Random 2-6-row tables, either interpolation, with omega and k
    reaching 0, on random chains and partitions: the primary path (Taylor
    pieces summed per chunk) matches the covariance flow within 1e-9.  The
    grid spans two evaluation chunks or a little more with a dense (below
    the first Magnus piece) or sparse step.  The window stops at t = 30,
    table segments last at most 3, the initial state is entangled
    (k_i >= 0.5) and no row lets every mode evolve freely.  Free or
    nearly free stretches squeeze the modes until one path or the other
    loses 1e-9 (by t = 15 to 50 in wider draws, against a 40-digit
    reference), and with t up to 40 one draw in about 600 still did
    (ROADMAP item 7)."""
    n = data.draw(st.integers(2, 10), label="n")
    boundary = data.draw(st.sampled_from(["open", "periodic"]), label="boundary")
    traced = data.draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1), label="traced")
    samples = data.draw(st.integers(2, 6), label="samples")
    gaps = data.draw(st.lists(st.floats(0.2, 3.0), min_size=samples - 1,
                              max_size=samples - 1), label="gaps")
    rows = data.draw(st.lists(_TABLE_ROW, min_size=samples, max_size=samples), label="rows")
    omegas, ks = (list(column) for column in zip(*rows))
    interpolation = data.draw(st.sampled_from(["linear", "previous"]), label="interpolation")
    spec = ChainSpec(n=n, omega_i=data.draw(st.floats(0.5, 3.0), label="omega_i"),
                     k_i=data.draw(st.floats(0.5, 3.0), label="k_i"),
                     omega_f=omegas[-1], k_f=ks[-1], boundary=boundary)
    schedule = QuenchSchedule(np.cumsum([0.0] + gaps), omegas, ks, interpolation)
    part = Partition.from_traced(traced, n)
    modes = quench_modes(spec)
    chunk = _chunk_rows(solve_sudden(modes.lam_pre, modes.lam_post))
    size = chunk + 1 + data.draw(st.integers(0, chunk // 4), label="extra rows")
    step = data.draw(st.one_of(st.floats(0.02, 0.15), st.floats(0.4, 2.0)), label="step")
    times = min(step, 30.0 / size) * np.arange(size)
    primary = entropy_series(spec, part, times, alphas=(1, 2), schedule=schedule)
    oracle = covariance_series(spec, part, times, alphas=(1, 2), schedule=schedule)
    for a in (1, 2):
        assert np.abs(primary.entropies[a] - oracle.entropies[a]).max() < 1e-9


def test_linear_flow_meets_tight_tolerance():
    """Products of many short flows are taken as increments from the
    identity; rounding each flow against I instead leaves the levels
    4e-11 apart on this ramp, and 1e-12 is never met."""
    table = [[0.0, 3.0, 2.0], [10.0, 2.0, 2.2], [20.0, 1.0, 2.4], [30.0, 0.3, 2.5]]
    spec = ChainSpec(n=4, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5)
    schedule = QuenchSchedule(*np.transpose(table), interpolation="linear")
    times = np.linspace(0.0, 100.0, 51)
    part = Partition.second_half(4)
    primary = entropy_series(spec, part, times, alphas=(1, 2), schedule=schedule)
    oracle = covariance_series(
        spec, part, times, alphas=(1, 2), schedule=schedule, tolerance=1e-12
    )
    for a in (1, 2):
        assert np.abs(primary.entropies[a] - oracle.entropies[a]).max() < 1e-11


@pytest.mark.parametrize("schedule", [None, QuenchSchedule(
    [0.0, 10.0, 20.0, 30.0], [3.0, 2.0, 1.0, 0.3], [2.0, 2.2, 2.4, 2.5], "linear")],
    ids=["sudden", "linear"])
def test_covariance_series_takes_a_uniform_grid(schedule):
    """The oracle takes every ``times`` the product path takes: on a
    ``UniformGrid`` it gives bit for bit what it gives on the grid's
    values, for a sudden quench and for a linear ramp table."""
    spec = ChainSpec(n=6, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5)
    part = Partition.second_half(6)
    grid = UniformGrid(0.5, 81)
    on_grid = covariance_series(spec, part, grid, alphas=(1, 2), schedule=schedule)
    on_values = covariance_series(spec, part, grid[:], alphas=(1, 2), schedule=schedule)
    assert np.array_equal(on_grid.times, on_values.times)
    assert np.array_equal(on_grid.xi, on_values.xi)
    for a in (1, 2):
        assert np.array_equal(on_grid.entropies[a], on_values.entropies[a])


def test_covariance_series_validation():
    spec = ChainSpec(n=2, omega_i=1.0, k_i=1.0, omega_f=1.0, k_f=1.0)
    schedule = QuenchSchedule(times=[0.0], omegas=[1.0], ks=[1.0])
    part = Partition.second_half(2)
    with pytest.raises(ValueError, match="increasing"):
        covariance_series(spec, part, np.array([1.0, 0.5]), schedule=schedule)
    for bad in (0.0, -1e-10):
        with pytest.raises(ValueError, match="tolerance"):
            covariance_series(spec, part, np.array([0.0, 1.0]), schedule=schedule, tolerance=bad)
    with pytest.raises(ValueError, match="^partition covers 4 sites but the chain has 2$"):
        covariance_series(spec, Partition.second_half(4), [0.0])
    with pytest.raises(NumericsError, match="^propagator needs a positive-semidefinite "
                                            r"coupling matrix, got eigenvalue -1\.000e\+00$"):
        SymplecticPropagator.from_coupling(np.diag([1.0, -1.0]))


def test_unreachable_tolerance_raises_integration_error():
    spec = ChainSpec(n=2, omega_i=1.0, k_i=1.0, omega_f=0.5, k_f=1.5)
    schedule = QuenchSchedule(
        times=[0.0, 2.0], omegas=[1.0, 0.5], ks=[1.0, 1.5], interpolation="linear"
    )
    start = time.process_time()
    with pytest.raises(IntegrationError, match="tolerance 1e-300") as err:
        covariance_series(
            spec, Partition.second_half(2), np.linspace(0.0, 4.0, 5),
            schedule=schedule, tolerance=1e-300,
        )
    assert time.process_time() - start < 1.0
    assert err.value.time is not None and 0.0 <= err.value.time <= 4.0


def test_covariance_entropy_values():
    assert covariance_entropy([0.5])[1] == 0.0
    out = covariance_entropy([1.5], alphas=(1, 2))
    assert out[1] == pytest.approx(2 * np.log(2.0) - 0.0, abs=1e-12)
    # nu = 1.5 maps to xi = 0.5, whose order-2 entropy is ln 3
    assert out[2] == pytest.approx(np.log(3.0), abs=1e-12)
    with pytest.raises(NumericsError):
        covariance_entropy([0.4])
    with pytest.raises(NumericsError, match="physical floor"):
        covariance_entropy([0.49])
    stack = np.array([[0.5, 1.5], [0.5 + 1e-12, 0.7], [2.0, 3.0]])
    rows = covariance_entropy(stack, alphas=(1, 2, 3))
    for a in (1, 2, 3):
        assert rows[a].shape == (3,)
        for row, nu in enumerate(stack):
            assert rows[a][row] == covariance_entropy(nu, alphas=(a,))[a]
    assert isinstance(covariance_entropy(stack[0])[1], float)
    with pytest.raises(NumericsError):
        covariance_entropy([[0.5, 0.6], [0.4, 0.7]])


def test_reduce_covariance_block_selection():
    sigma = np.arange(16.0).reshape(4, 4)
    sigma = 0.5 * (sigma + sigma.T)
    part = Partition.from_traced((1,), 2)  # keep site 2
    block = reduce_covariance(sigma, part)
    want = sigma[np.ix_([1, 3], [1, 3])]
    assert np.array_equal(block, want)
    with pytest.raises(ValueError, match="partition"):
        reduce_covariance(sigma, Partition.second_half(4))


class TestKernelSpectrum:
    def test_uncoupled_is_pure(self):
        levels = kernel_spectrum(2.0, 0.0, count=4)
        assert abs(levels[0] - 1.0) < 1e-6
        assert np.abs(levels[1:]).max() < 1e-6

    def test_static_ladder_frozen(self):
        """The unquenched dimer with mode frequencies 1 and 5."""
        u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        omega, btilde = mode_matrices(u, np.array([1.0, 25.0]), np.ones(2), np.zeros(2))
        reduced = partial_trace(GaussianState(omega, btilde), Partition.from_traced((1,), 2))
        levels = kernel_spectrum(reduced.gamma[0, 0], reduced.beta[0, 0], reduced.z[0, 0],
                                 count=3)
        assert np.allclose(levels, [0.854102, 0.124612, 0.018181], atol=1e-6)

    def test_quench_snapshot_matches_ladder(self):
        """Evolved two-site state at a generic time: kernel eigenvalues
        against the geometric law, with and without the phase factor."""
        spec = ChainSpec(
            n=2, omega_i=1.0, k_i=12.0, omega_f=0.15, k_f=8.6, boundary="open"
        )
        qm = quench_modes(spec)
        sols = [solve_sudden(li, lf) for li, lf in zip(qm.lam_pre, qm.lam_post)]
        reduced = partial_trace(assemble_state(qm, sols, 2.0), Partition.from_traced((1,), 2))
        gamma, beta, z = reduced.gamma[0, 0], reduced.beta[0, 0], reduced.z[0, 0]
        eps = np.sqrt(gamma**2 - beta**2)
        xi = beta / (gamma + eps)
        ladder = (1 - xi) * xi ** np.arange(5)
        with_phase = kernel_spectrum(gamma, beta, z, count=5)
        without = kernel_spectrum(gamma, beta, 0.0, count=5)
        assert np.abs(with_phase - ladder).max() < 1e-4
        assert np.abs(without - ladder).max() < 1e-4
        assert np.abs(with_phase - without).max() < 1e-6

    @pytest.mark.parametrize("boundary, traced", [("periodic", (2, 3, 4, 5)),
                                                  ("open", (1, 2, 4, 5))], ids=["ring", "open"])
    def test_kept_site_of_a_five_site_chain_referees_entropy_series(self, boundary, traced):
        """Past the dimer: site 1 of a five-site ring and the middle site
        of a five-site open chain, each kernel the partial trace of four
        sites where the dimer's traces one."""
        spec = ChainSpec(n=5, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5, boundary=boundary)
        worst = kernel_ladder_gap(spec, Partition.from_traced(traced, 5), [0.0, 1.7, 9.4])
        assert worst < 1e-10

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="normalizability"):
            kernel_spectrum(1.0, 1.5)
        with pytest.raises(ValueError, match="400"):
            kernel_spectrum(2.0, 0.5, half_width=8.0, points=100)
        with pytest.raises(ValueError, match="half-width"):
            kernel_spectrum(2.0, 0.5, half_width=0.5, points=801)
        with pytest.raises(ValueError, match="count"):
            kernel_spectrum(2.0, 0.5, count=0)
        with pytest.raises(ValueError, match="keeps one site"):
            kernel_ladder_gap(ChainSpec(4, 3.0, 2.0, 0.3, 2.5), Partition.second_half(4), [0.0])
