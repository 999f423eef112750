"""Independent verification paths: covariance propagation and kernel
diagonalization.

The propagator path never touches the scale-factor machinery, so
agreement between the two pipelines is evidence against shared bugs.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entchain.entanglement
import entchain.oracles
from entchain import (
    ChainSpec,
    GridError,
    IntegrationError,
    NumericsError,
    Partition,
    QuenchSchedule,
    build_coupling_matrix,
    covariance_series,
    entropy_series,
    integrate_general,
    kernel_spectrum,
    quench_modes,
    solve_sudden,
    symplectic_eigenvalues,
)
from entchain.chain import bond_laplacian
from entchain.gaussian import mode_covariance
from entchain.oracles import (
    KernelGrid,
    SymplecticPropagator,
    covariance_entropy,
    ground_state_covariance,
    reduce_covariance,
    symplectic_form,
    two_site_reduced,
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


def test_spectrum_routes_are_separate_code():
    """The primary path and the oracle each run their own spectrum code."""
    assert entchain.entanglement.symplectic_eigenvalues is not entchain.oracles.symplectic_eigenvalues


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_cholesky_route_matches_reference_spectrum(data):
    """The Cholesky-factor spectrum of the primary path against the
    oracle's eigh-root reference on kept-block covariance stacks of random
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


@pytest.mark.parametrize(
    "spectrum",
    [entchain.entanglement.symplectic_eigenvalues, entchain.oracles.symplectic_eigenvalues],
    ids=["primary", "reference"],
)
def test_spectrum_routes_reject_bad_covariances(spectrum):
    with pytest.raises(ValueError, match="even"):
        spectrum(np.eye(3))
    with pytest.raises(NumericsError, match="positive-definite"):
        spectrum(np.diag([1.0, -1.0, 1.0, 1.0]))
    for bad in (np.inf, np.nan):
        stack = np.stack([np.eye(4), np.eye(4)])
        stack[1, 0, 0] = bad
        with pytest.raises(NumericsError, match="non-finite"):
            spectrum(stack)


def test_general_integrator_reproduces_sudden():
    spec = ChainSpec(n=4, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5)
    schedule = QuenchSchedule(
        times=[0.0], omegas=[0.3], ks=[2.5], interpolation="previous"
    )
    times = 0.2 * np.arange(101)
    part = Partition.second_half(4)
    sudden = covariance_series(spec, part, times, alphas=(1, 2, 3))
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
    """The eight-site ramp table to t = 100, with Taylor-piece (linear) or
    cos/sin (previous) segment propagators, against the covariance flow at
    its default tolerance: Magnus pieces (linear) or exact per-row flows
    (previous)."""
    table = [[0.0, 3.0, 2.0], [10.0, 2.0, 2.2], [20.0, 1.0, 2.4], [30.0, 0.3, 2.5]]
    spec = ChainSpec(n=8, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5)
    schedule = QuenchSchedule(*np.transpose(table), interpolation=interpolation)
    times = np.linspace(0.0, 100.0, 51)
    part = Partition.second_half(8)
    primary = entropy_series(spec, part, times, alphas=(1, 2), schedule=schedule)
    oracle = covariance_series(spec, part, times, alphas=(1, 2), schedule=schedule)
    for a in (1, 2):
        assert np.abs(primary.entropies[a] - oracle.entropies[a]).max() < 1e-9
    modes = quench_modes(spec)
    for mu, lam0 in zip(modes.mu, modes.lam_pre):
        phis = integrate_general(schedule.mode_protocol(mu, lam0)).phis
        assert np.abs(np.linalg.det(phis) - 1.0).max() <= 1e-12


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


def test_covariance_series_validation():
    spec = ChainSpec(n=2, omega_i=1.0, k_i=1.0, omega_f=1.0, k_f=1.0)
    schedule = QuenchSchedule(times=[0.0], omegas=[1.0], ks=[1.0])
    part = Partition.second_half(2)
    with pytest.raises(ValueError, match="increasing"):
        covariance_series(spec, part, np.array([1.0, 0.5]), schedule=schedule)
    for bad in (0.0, -1e-10):
        with pytest.raises(ValueError, match="tolerance"):
            covariance_series(spec, part, np.array([0.0, 1.0]), schedule=schedule, tolerance=bad)


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
        reduced = two_site_reduced(1.0, 5.0, 1.0, 0.0, 1.0, 0.0)
        levels = kernel_spectrum(reduced[0], reduced[1], reduced[2], count=3)
        assert np.allclose(levels, [0.854102, 0.124612, 0.018181], atol=1e-6)

    def test_quench_snapshot_matches_ladder(self):
        """Evolved two-site state at a generic time: kernel eigenvalues
        against the geometric law, with and without the phase factor."""
        spec = ChainSpec(
            n=2, omega_i=1.0, k_i=12.0, omega_f=0.15, k_f=8.6, boundary="open"
        )
        qm = quench_modes(spec)
        sols = [solve_sudden(li, lf) for li, lf in zip(qm.lam_pre, qm.lam_post)]
        t = 2.0
        (b1, db1), (b2, db2) = sols[0].evaluate(t), sols[1].evaluate(t)
        gamma, beta, z = two_site_reduced(
            np.sqrt(qm.lam_pre[0]), np.sqrt(qm.lam_pre[1]), b1, db1, b2, db2
        )
        eps = np.sqrt(gamma**2 - beta**2)
        xi = beta / (gamma + eps)
        ladder = (1 - xi) * xi ** np.arange(5)
        with_phase = kernel_spectrum(gamma, beta, z, count=5)
        without = kernel_spectrum(gamma, beta, 0.0, count=5, include_phase=False)
        assert np.abs(with_phase - ladder).max() < 1e-4
        assert np.abs(without - ladder).max() < 1e-4
        assert np.abs(with_phase - without).max() < 1e-6

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="normalizability"):
            kernel_spectrum(1.0, 1.5)
        with pytest.raises(GridError, match="400"):
            kernel_spectrum(2.0, 0.5, grid=KernelGrid(half_width=8.0, points=100))
        with pytest.raises(GridError):
            kernel_spectrum(2.0, 0.5, grid=KernelGrid(half_width=0.5, points=801))
        with pytest.raises(ValueError, match="count"):
            kernel_spectrum(2.0, 0.5, count=0)
