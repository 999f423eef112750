"""Exact entanglement entropy dynamics for quenched harmonic-oscillator
chains: per-mode scale-factor evolution, kept-block covariances and their
symplectic spectra, closed-form entropies, and the covariance-flow
reference in ``entchain.oracles``."""

__version__ = "0.1.0"

from .chain import ChainSpec, QuenchModes, bose_hubbard_chain, quench_modes
from .config import RunConfig, from_dict, parse_config
from .entanglement import (
    EntropySeries,
    Partition,
    entropy_series,
    renyi_entropy,
    von_neumann_entropy,
)
from .ermakov import ModeSolution, QuenchSchedule, integrate_general
from .errors import (
    ConfigError,
    EntchainError,
    IntegrationError,
    NumericsError,
)
from .gaussian import symplectic_eigenvalues
from .oracles import covariance_series
from .run import format_csv, make_figure, run_sweep, verify_report

__all__ = [
    "__version__",
    "ChainSpec",
    "ConfigError",
    "EntchainError",
    "EntropySeries",
    "IntegrationError",
    "ModeSolution",
    "NumericsError",
    "Partition",
    "QuenchModes",
    "QuenchSchedule",
    "RunConfig",
    "bose_hubbard_chain",
    "covariance_series",
    "entropy_series",
    "format_csv",
    "from_dict",
    "integrate_general",
    "make_figure",
    "parse_config",
    "quench_modes",
    "renyi_entropy",
    "run_sweep",
    "symplectic_eigenvalues",
    "verify_report",
    "von_neumann_entropy",
]
