"""Run execution and output: result tables, CSV emission, figure and
verification pipelines.

CSV layout (deterministic to the byte for a given config):

    # config: {...canonical one-line JSON echo...}
    t,xi_1,...,xi_m,S_1,...
    0,0.145898...,0.486533...

Figure pipelines write one CSV per curve plus a standalone matplotlib
script that reads those CSVs back; nothing in the package imports
matplotlib itself.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .chain import quench_modes
from .config import RunConfig, canonical_echo, expand_sweep, from_dict
from .entanglement import EntropySeries, entropy_series
from .ermakov import mode_checks, solve_sudden
from .errors import ConfigError, NumericsError
from .gaussian import mode_covariance
from .oracles import covariance_series, symplectic_eigenvalues


@dataclass(frozen=True)
class ResultTable:
    """One run's output: times, per-mode xi columns, entropy columns."""

    times: np.ndarray
    xi: np.ndarray
    entropies: dict[int, np.ndarray]
    alphas: tuple[int, ...]
    echo_line: str
    precision: int

    def __post_init__(self):
        if self.xi.shape != (self.times.size, self.xi.shape[1]):
            raise ValueError("xi must have one row per time point")
        values = [self.xi] + [self.entropies[a] for a in self.alphas]
        if not all(np.all(np.isfinite(v)) for v in values):
            raise NumericsError("result table contains non-finite values")


def run(config: RunConfig) -> ResultTable:
    """Execute one configured run."""
    series = entropy_series(
        config.chain,
        config.partition,
        config.times,
        alphas=config.alphas,
        schedule=config.schedule,
        tolerance=config.tolerance,
    )
    return ResultTable(
        times=series.times,
        xi=series.xi,
        entropies=series.entropies,
        alphas=config.alphas,
        echo_line=canonical_echo(config),
        precision=config.precision,
    )


def format_csv(table: ResultTable) -> str:
    """Render a result table; fixed column order, ``\\n`` endings."""
    m = table.xi.shape[1]
    header = ",".join(
        ["t"]
        + [f"xi_{j}" for j in range(1, m + 1)]
        + [f"S_{a}" for a in table.alphas]
    )
    lines = [f"# config: {table.echo_line}", header]
    columns = [table.times] + [table.xi[:, j] for j in range(m)] + [
        table.entropies[a] for a in table.alphas
    ]
    row = ",".join([f"%.{table.precision}g"] * len(columns))
    lines.extend(row % r for r in zip(*columns))
    return "\n".join(lines) + "\n"


def write_csv(table: ResultTable, path: str) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", newline="") as handle:
        handle.write(format_csv(table))


def run_sweep(raw_doc: dict, out_dir: str, threads: int = 1) -> list[str]:
    """Run the cartesian sweep of a document with list-valued model keys.

    One CSV per combination, named by the swept values.  With
    ``threads != 1`` and more than one combination they run in a worker
    pool (``threads=0`` means one worker per CPU), otherwise one after
    another; files are written in sorted-label order either way, so the
    output set is deterministic.
    """
    if threads < 0:
        raise ConfigError(f"threads must be >= 0 (0 = one per CPU), got {threads}")
    combos = expand_sweep(raw_doc)
    combos.sort(key=lambda pair: pair[0])
    configs = [(label, from_dict(doc)) for label, doc in combos]

    def execute(item):
        label, config = item
        return label, run(config)

    if threads == 1 or len(configs) == 1:
        results = [execute(item) for item in configs]
    else:
        # Imported here: concurrent.futures (and the logging it pulls in)
        # would add about 10 ms to every CLI start.
        from concurrent.futures import ThreadPoolExecutor

        workers = threads if threads > 0 else (os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(execute, configs))

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for label, table in results:
        name = f"{label}.csv" if label else "run.csv"
        path = os.path.join(out_dir, name)
        write_csv(table, path)
        paths.append(path)
    return paths


_FIG1_TARGETS = [2.15, 2.06, 2.01]
_FIG2_OMEGAS = [0.3, 0.1, 0.01]
_FIG34_SIZES = [4, 6, 10, 16, 20]

_FIGURE_DOCS = {
    "fig1": {
        "model": {
            "mode": "bose_hubbard",
            "omega_bh_i": 3.0,
            "omega_bh_f": _FIG1_TARGETS,
            "hop": 2.0,
        },
        "time": {"t_max": 100.0, "dt": 0.01},
    },
    "fig2": {
        "model": {
            "mode": "oscillator",
            "n": 4,
            "boundary": "periodic",
            "omega_i": 3.0,
            "k_i": 2.0,
            "omega_f": _FIG2_OMEGAS,
            "k_f": 2.5,
        },
        "time": {"t_max": 100.0, "dt": 0.01},
    },
    "fig3": {
        "model": {
            "mode": "oscillator",
            "n": _FIG34_SIZES,
            "boundary": "periodic",
            "omega_i": 3.0,
            "k_i": 2.0,
            "omega_f": 0.01,
            "k_f": 2.5,
        },
        "time": {"t_max": 200.0, "dt": 0.01},
    },
}
_FIGURE_DOCS["fig4"] = _FIGURE_DOCS["fig3"]

FIGURE_NAMES = ("fig1", "fig2", "fig3", "fig4")


def figure_documents(name: str) -> list[tuple[str, dict]]:
    """(label, config document) pairs for one figure's curves."""
    if name not in _FIGURE_DOCS:
        raise ValueError(f"unknown figure {name!r}; expected one of {FIGURE_NAMES}")
    return expand_sweep(_FIGURE_DOCS[name])


def _plot_script(name: str, files, labels) -> str:
    pairs = ",\n    ".join(
        f"({json.dumps(f)}, {json.dumps(lab)})" for f, lab in zip(files, labels)
    )
    if name == "fig4":
        y_expr = 'data["S_1"] / np.log(float(label.split("=")[1]))'
        y_label = "S_1 / ln N"
    else:
        y_expr = 'data["S_1"]'
        y_label = "S_1"
    return f'''"""Plot the {name} curves from the CSVs in this directory."""

import matplotlib.pyplot as plt
import numpy as np

CURVES = [
    {pairs},
]

for fname, label in CURVES:
    # first line is the config echo, second the column names
    data = np.genfromtxt(fname, delimiter=",", names=True, skip_header=1)
    plt.plot(data["t"], {y_expr}, label=label)

plt.xlabel("t")
plt.ylabel({json.dumps(y_label)})
plt.legend()
plt.tight_layout()
plt.savefig({json.dumps(name + ".png")}, dpi=200)
'''


def make_figure(name: str, out_dir: str) -> list[str]:
    """Write one CSV per curve and a standalone plot script."""
    combos = figure_documents(name)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    labels = []
    files = []
    for label, doc in combos:
        config = from_dict(doc)
        table = run(config)
        fname = f"{name}_{label}.csv"
        path = os.path.join(out_dir, fname)
        write_csv(table, path)
        paths.append(path)
        files.append(fname)
        labels.append(label)
    script_path = os.path.join(out_dir, f"{name}_plot.py")
    with open(script_path, "w", newline="") as handle:
        handle.write(_plot_script(name, files, labels))
    paths.append(script_path)
    return paths


def verify_parameter_sets() -> list[tuple[str, RunConfig]]:
    """The eleven figure configurations the oracle-equivalence check runs."""
    sets = []
    for name in ("fig1", "fig2", "fig3"):
        for label, doc in figure_documents(name):
            sets.append((f"{name} {label}", from_dict(doc)))
    return sets


def verify_report() -> tuple[str, bool]:
    """Cross-validate the scale-factor pipeline against the covariance
    oracle on every figure configuration, check the static entropy anchor,
    and check the full-state purity of the product's mode covariances with
    the oracle's reference spectrum.  Each line shows the measured value
    next to its gate.  Returns (report text, all passed)."""
    lines = []
    ok = True

    def record(value: float, gate: float, text: str) -> None:
        nonlocal ok
        passed = value < gate
        ok = ok and passed
        lines.append(f"[{'ok' if passed else 'FAIL'}] {text} = {value:.3e} (gate {gate:g})")

    times = np.linspace(0.0, 100.0, 1000)
    anchor_values = []
    for label, config in verify_parameter_sets():
        series = entropy_series(config.chain, config.partition, times, alphas=(1, 2))
        oracle = covariance_series(config.chain, config.partition, times, alphas=(1, 2))
        deviation = max(
            float(np.abs(series.entropies[a] - oracle.entropies[a]).max()) for a in (1, 2)
        )
        record(deviation, 1e-8, f"oracle match {label}: max |dS|")
        if label.startswith("fig1"):
            anchor_values.append(float(series.s1[0]))

    anchor_dev = max(abs(v - 0.48653) for v in anchor_values)
    record(anchor_dev, 1e-4, "static entropy anchor across fig1 targets: max |S_1(0) - 0.48653|")
    anchor_split = max(anchor_values) - min(anchor_values)
    record(anchor_split, 1e-12, "S_1(0) identical across fig1 quench targets: spread")

    purity_dev = 0.0
    for name in ("fig1", "fig2", "fig3"):
        label, doc = figure_documents(name)[0]
        config = from_dict(doc)
        modes = quench_modes(config.chain)
        sols = [solve_sudden(li, lf) for li, lf in zip(modes.lam_pre, modes.lam_post)]
        pairs = [sol.evaluate(np.array([0.0, 37.7, 83.1])) for sol in sols]
        b, bdot = (np.column_stack(col) for col in zip(*pairs))
        sigma = mode_covariance(modes.u, modes.lam_pre, b, bdot)
        nu = symplectic_eigenvalues(sigma)
        purity_dev = max(purity_dev, float(np.abs(nu - 0.5).max()))
    record(purity_dev, 1e-9, "full-state purity: max |nu - 1/2|")

    residual_dev = 0.0
    invariant_dev = 0.0
    sweep_times = np.linspace(0.0, 200.0, 2001)
    for _, config in verify_parameter_sets():
        modes = quench_modes(config.chain)
        for li, lf in zip(modes.lam_pre, modes.lam_post):
            residual, invariant = mode_checks(solve_sudden(li, lf), sweep_times)
            residual_dev = max(residual_dev, float(residual.max()))
            invariant_dev = max(invariant_dev, float(np.abs(invariant - (li + lf)).max()))
    record(residual_dev, 1e-9, "scale-factor residual: max")
    record(invariant_dev, 1e-9, "conserved combination drift: max")

    lines.append("all checks passed" if ok else "verification FAILED")
    return "\n".join(lines) + "\n", ok
