"""Exact entanglement entropy dynamics for quenched harmonic-oscillator
chains: per-mode scale-factor evolution, kept-block covariances and their
symplectic spectra, closed-form entropies, and independent references in
``entchain.oracles``."""

__version__ = "0.1.0"

from .bosehubbard import BoseHubbardSpec, to_oscillator
from .chain import (
    ChainSpec,
    QuenchModes,
    bond_laplacian,
    build_coupling_matrix,
    quench_modes,
)
from .config import RunConfig, from_dict, parse_config
from .entanglement import (
    EntropySeries,
    Partition,
    entropy_series,
    renyi_entropy,
    von_neumann_entropy,
)
from .ermakov import (
    ModeSolution,
    QuenchSchedule,
    integrate_general,
    mode_checks,
    solve_sudden,
)
from .errors import (
    ConfigError,
    EntchainError,
    GridError,
    IntegrationError,
    NumericsError,
)
from .gaussian import symplectic_eigenvalues
from .oracles import covariance_series, kernel_spectrum
from .run import format_csv, make_figure, run, run_sweep, verify_report

__all__ = [
    "__version__",
    "BoseHubbardSpec",
    "ChainSpec",
    "ConfigError",
    "EntchainError",
    "EntropySeries",
    "GridError",
    "IntegrationError",
    "ModeSolution",
    "NumericsError",
    "Partition",
    "QuenchModes",
    "QuenchSchedule",
    "RunConfig",
    "bond_laplacian",
    "build_coupling_matrix",
    "covariance_series",
    "entropy_series",
    "format_csv",
    "from_dict",
    "integrate_general",
    "kernel_spectrum",
    "make_figure",
    "mode_checks",
    "parse_config",
    "quench_modes",
    "renyi_entropy",
    "run",
    "run_sweep",
    "solve_sudden",
    "symplectic_eigenvalues",
    "to_oscillator",
    "verify_report",
    "von_neumann_entropy",
]
