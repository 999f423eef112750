"""Run execution and output: CSV emission, figure and verification
pipelines.

``run(config)`` returns a configured run's ``EntropySeries``.  Every CSV
is the text of one generator, ``_csv``, which formats a run's rows 256 at
a time from its whole series (``format_csv``) or from its
``entropy_series`` chunks as they are computed (``_run_csv``, which
``simulate``, ``sweep`` and ``figure`` write).  The layout is
deterministic to the byte for a given config:

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
from contextlib import contextmanager

import numpy as np

from .chain import quench_modes
from .config import RunConfig, canonical_echo, expand_sweep, from_dict
from .entanglement import EntropySeries, _chunk_rows, entropy_series
from .ermakov import mode_checks, solve_sudden
from .errors import ConfigError
from .gaussian import mode_covariance
from .oracles import covariance_series, symplectic_eigenvalues


def _series(config: RunConfig, chunks: bool = False):
    """``entropy_series`` of a configured run on its ``UniformGrid``."""
    return entropy_series(
        config.chain,
        config.partition,
        config.grid,
        alphas=config.alphas,
        schedule=config.schedule,
        tolerance=config.tolerance,
        chunks=chunks,
    )


def run(config: RunConfig) -> EntropySeries:
    """Execute one configured run: whole columns over its time grid."""
    return _series(config)


# Rows formatted into one piece of CSV text (see _csv).
_CSV_ROWS = 256


def _csv(config: RunConfig, parts):
    """Yield the CSV text of a configured run's rows in pieces, from
    ``parts``: its ``EntropySeries`` whole, or one per chunk.  The two
    header lines, the config echo and the column names, come once the
    first part exists; then each part's rows come ``_CSV_ROWS`` at a time,
    so a writer holds one piece of text at a time.  A piece is one ``%``
    of the row format repeated per row on that piece's values, stacked
    row-major from its slice of each column.  Fixed column order, ``\\n``
    endings."""
    for index, series in enumerate(parts):
        m = series.xi.shape[1]
        columns = [series.times] + [series.xi[:, j] for j in range(m)] + [
            series.entropies[a] for a in config.alphas
        ]
        if index == 0:
            names = ["t"] + [f"xi_{j}" for j in range(1, m + 1)] + [
                f"S_{a}" for a in config.alphas
            ]
            yield f"# config: {canonical_echo(config)}\n{','.join(names)}\n"
            row = ",".join([f"%.{config.precision}g"] * len(columns)) + "\n"
        for first in range(0, series.times.size, _CSV_ROWS):
            piece = np.column_stack([c[first:first + _CSV_ROWS] for c in columns])
            yield (row * len(piece)) % tuple(piece.ravel().tolist())


def _run_csv(config: RunConfig):
    """Run a config and yield its CSV text in pieces (``_csv``), computing
    and formatting one ``entropy_series`` chunk at a time, so that no
    times, values or text span the grid.  Nothing runs before the first
    piece is asked for.  A run that fails in its first chunk yields
    nothing, and one that fails later raises after the rows of the chunks
    before."""
    yield from _csv(config, _series(config, chunks=True))


def format_csv(config: RunConfig, series: EntropySeries) -> str:
    """A configured run's CSV over ``series`` (``run(config)``) as one
    string, byte for byte the text its ``simulate`` writes."""
    return "".join(_csv(config, [series]))


@contextmanager
def _cannot_write(path: str):
    """Turn an ``OSError`` raised in the block into a config error
    naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _make_dirs(directory: str) -> None:
    """Create ``directory`` and its missing parents; one that cannot be
    made (a parent is a file, no permission) is a config error."""
    with _cannot_write(directory):
        os.makedirs(directory, exist_ok=True)


def _write_atomic(path: str, pieces) -> None:
    """Write text pieces to a temporary file in the directory of ``path``
    and rename it over ``path`` once the last piece is written: a failure
    part-way leaves no partial file, and any earlier file as it was.  A
    path that cannot be written (its directory cannot be made, the file
    cannot be opened, written or closed, for instance on a full disk, or
    ``path`` is a directory) is a config error; an error raised by
    ``pieces`` itself passes through unchanged."""
    directory = os.path.dirname(path)
    if directory:
        _make_dirs(directory)
    temporary = os.path.join(directory, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    with _cannot_write(path):
        handle = open(temporary, "w", newline="")
    try:
        try:
            for piece in pieces:
                with _cannot_write(path):
                    handle.write(piece)
        finally:
            with _cannot_write(path):
                handle.close()
        with _cannot_write(path):
            os.replace(temporary, path)
    except BaseException:
        os.remove(temporary)
        raise


def _write_runs(runs, out_dir: str) -> list[str]:
    """Create ``out_dir``, then run each (file name, config) pair in turn,
    writing its CSV there chunk by chunk (``_run_csv``), atomically, so a
    failing run leaves the CSVs of those before it and no file of its own.
    Returns the paths written."""
    _make_dirs(out_dir)
    paths = []
    for fname, config in runs:
        path = os.path.join(out_dir, fname)
        _write_atomic(path, _run_csv(config))
        paths.append(path)
    return paths


def run_sweep(raw_doc: dict, out_dir: str) -> list[str]:
    """Run the cartesian sweep of a document with list-valued model keys.

    One CSV per combination, named by the swept values, run and written
    one after another in sorted-label order.  Every combination is
    validated before the first runs, so a config error writes nothing.
    """
    combos = sorted(expand_sweep(raw_doc), key=lambda pair: pair[0])
    runs = [(f"{label}.csv" if label else "run.csv", from_dict(doc)) for label, doc in combos]
    return _write_runs(runs, out_dir)


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
    runs = [(f"{name}_{label}.csv", from_dict(doc)) for label, doc in combos]
    paths = _write_runs(runs, out_dir)
    files = [fname for fname, _ in runs]
    labels = [label for label, _ in combos]
    script_path = os.path.join(out_dir, f"{name}_plot.py")
    _write_atomic(script_path, [_plot_script(name, files, labels)])
    return paths + [script_path]


def verify_report() -> tuple[str, bool]:
    """Check each figure configuration once: its scale-factor pipeline
    against the covariance oracle, its scale factors' residual and
    invariant, the static entropy anchor, and, on each figure's first
    configuration, the full-state purity with the oracle's reference
    spectrum.  Each line shows the measured value next to its gate.
    Returns (report text, all passed)."""
    lines = []
    ok = True

    def record(value: float, gate: float, text: str) -> None:
        nonlocal ok
        passed = value < gate
        ok = ok and passed
        lines.append(f"[{'ok' if passed else 'FAIL'}] {text} = {value:.3e} (gate {gate:g})")

    times = np.linspace(0.0, 100.0, 1000)
    sweep_times = np.linspace(0.0, 200.0, 2001)

    def check(config: RunConfig):
        """(oracle deviation, S_1(0), modes, solution, largest residual,
        largest invariant drift) of one chain and partition."""
        series = entropy_series(config.chain, config.partition, times, alphas=(1, 2))
        oracle = covariance_series(config.chain, config.partition, times, alphas=(1, 2))
        deviation = max(
            float(np.abs(series.entropies[a] - oracle.entropies[a]).max()) for a in (1, 2)
        )
        modes = quench_modes(config.chain)
        solution = solve_sudden(modes.lam_pre, modes.lam_post)
        conserved = modes.lam_pre + modes.lam_post
        residual_max = invariant_max = 0.0
        # entropy_series's chunk size: 2001 times by every mode at once
        # raised the peak resident memory of verify by 5 MB
        rows = _chunk_rows(solution)
        for first in range(0, sweep_times.size, rows):
            residual, invariant = mode_checks(solution, sweep_times[first:first + rows])
            residual_max = max(residual_max, float(residual.max()))
            invariant_max = max(invariant_max, float(np.abs(invariant - conserved).max()))
        return deviation, float(series.s1[0]), modes, solution, residual_max, invariant_max

    # Curves of different figures can share a chain and partition (fig2's
    # omega_f = 0.01 is fig3's n = 4): each is checked once.
    checked = {}
    anchor_values = []
    purity_dev = residual_dev = invariant_dev = 0.0
    for name in ("fig1", "fig2", "fig3"):
        for index, (label, doc) in enumerate(figure_documents(name)):
            config = from_dict(doc)
            key = (config.chain, config.partition)
            if key not in checked:
                checked[key] = check(config)
            deviation, s1_start, modes, solution, residual_max, invariant_max = checked[key]
            record(deviation, 1e-8, f"oracle match {name} {label}: max |dS|")
            if name == "fig1":
                anchor_values.append(s1_start)
            if index == 0:
                b, bdot = solution.evaluate(np.array([0.0, 37.7, 83.1]))
                nu = symplectic_eigenvalues(mode_covariance(modes.u, modes.lam_pre, b, bdot))
                purity_dev = max(purity_dev, float(np.abs(nu - 0.5).max()))
            residual_dev = max(residual_dev, residual_max)
            invariant_dev = max(invariant_dev, invariant_max)

    anchor_dev = max(abs(v - 0.48653) for v in anchor_values)
    record(anchor_dev, 1e-4, "static entropy anchor across fig1 targets: max |S_1(0) - 0.48653|")
    anchor_split = max(anchor_values) - min(anchor_values)
    record(anchor_split, 1e-12, "S_1(0) identical across fig1 quench targets: spread")
    record(purity_dev, 1e-9, "full-state purity: max |nu - 1/2|")
    record(residual_dev, 1e-9, "scale-factor residual: max")
    record(invariant_dev, 1e-9, "conserved combination drift: max")

    lines.append("all checks passed" if ok else "verification FAILED")
    return "\n".join(lines) + "\n", ok
