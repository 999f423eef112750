"""Exact entanglement entropy dynamics for quenched harmonic-oscillator
chains: per-mode scale-factor evolution, kept-block covariances and their
symplectic spectra, closed-form entropies, and independent references in
``entchain.oracles``."""

__version__ = "0.1.0"

from .analysis import (
    PeriodEstimate,
    ScalingFit,
    extract_periods,
    fit_scaling,
    revival_period,
)
from .bosehubbard import BoseHubbardSpec, from_oscillator, mode_frequencies, to_oscillator
from .chain import (
    ChainSpec,
    QuenchModes,
    bond_laplacian,
    build_coupling_matrix,
    periodic_eigenvalues,
    quench_modes,
)
from .config import RunConfig, from_dict, parse_config, time_grid
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
from .run import ResultTable, format_csv, make_figure, run, run_sweep, verify_report, write_csv

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
    "PeriodEstimate",
    "QuenchModes",
    "QuenchSchedule",
    "ResultTable",
    "RunConfig",
    "ScalingFit",
    "bond_laplacian",
    "build_coupling_matrix",
    "covariance_series",
    "entropy_series",
    "extract_periods",
    "fit_scaling",
    "format_csv",
    "from_dict",
    "from_oscillator",
    "integrate_general",
    "kernel_spectrum",
    "make_figure",
    "mode_checks",
    "mode_frequencies",
    "parse_config",
    "periodic_eigenvalues",
    "quench_modes",
    "renyi_entropy",
    "revival_period",
    "run",
    "run_sweep",
    "solve_sudden",
    "symplectic_eigenvalues",
    "time_grid",
    "to_oscillator",
    "verify_report",
    "von_neumann_entropy",
    "write_csv",
]
