"""Command-line interface.

Subcommands: ``simulate`` (one config, one CSV), ``sweep`` (cartesian
product over list-valued model parameters), ``figure`` (canned parameter
sets, one CSV per curve plus a plot script), ``verify`` (oracle
equivalence and invariant checks).

``simulate``, ``sweep`` and ``figure`` compute and write each CSV one
``entropy_series`` chunk at a time (``entchain.run._run_csv``), so a
run's memory does not grow with its time grid.  A CSV written to a file
is all or nothing: it goes to a temporary file renamed over the target at
the end.  On stdout, a numerical failure in the first chunk prints
nothing, but one in a later chunk comes after the rows of the chunks
before it.

Exit codes: 0 success, 1 configuration error (including bad flags) or a
standard output closed by its reader, 2 numerical failure or failed
verification.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from . import __version__
from .config import _as_block, from_dict
from .errors import ConfigError, EntchainError
from .run import (
    FIGURE_NAMES,
    _make_dirs,
    _run_csv,
    _write_atomic,
    make_figure,
    run_sweep,
    verify_report,
)


class _Parser(argparse.ArgumentParser):
    """Argparse variant whose usage errors report as config errors."""

    def error(self, message):
        raise ConfigError(message)


def _load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8 text: {exc}") from exc
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config root must be an object")
    return raw


def _apply_time_overrides(raw: dict, args) -> dict:
    if args.dt is None and args.t_max is None:
        return raw
    block = _as_block(raw, "time")
    if args.dt is not None:
        block["dt"] = args.dt
    if args.t_max is not None:
        block["t_max"] = args.t_max
    out = dict(raw)
    out["time"] = block
    return out


def _cmd_simulate(args) -> int:
    raw = _apply_time_overrides(_load_document(args.config), args)
    config = from_dict(raw)
    target = args.output or config.output_path
    directory = os.path.dirname(target) if target else ""
    if directory:
        _make_dirs(directory)  # a bad path fails before the run, not after it
    pieces = _run_csv(config)
    if target:
        _write_atomic(target, pieces)
        print(f"wrote {target}")
    else:
        sys.stdout.writelines(pieces)
    return 0


def _cmd_sweep(args) -> int:
    raw = _apply_time_overrides(_load_document(args.config), args)
    out_dir = args.output
    if out_dir is None:
        out_dir = _as_block(raw, "output").get("path")
    if not out_dir:
        raise ConfigError("sweep needs an output directory (--output or output.path)")
    for path in run_sweep(raw, out_dir):
        print(f"wrote {path}")
    return 0


def _cmd_figure(args) -> int:
    for path in make_figure(args.name, args.outdir):
        print(f"wrote {path}")
    return 0


def _cmd_verify(args) -> int:
    report, ok = verify_report()
    sys.stdout.write(report)
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="entchain",
        description="Entanglement entropy dynamics of quenched oscillator chains.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--dt", type=float, default=None, help="override time.dt")
        p.add_argument("--t-max", type=float, default=None, help="override time.t_max")

    p = sub.add_parser("simulate", help="run one config and emit a CSV")
    add_config(p)
    p.add_argument("--output", default=None, help="CSV path (default: output.path or stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="cartesian sweep over list-valued model parameters")
    add_config(p)
    p.add_argument("--output", default=None, help="output directory for the sweep CSVs")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("figure", help="emit the CSVs and plot script for a canned figure")
    p.add_argument("name", choices=FIGURE_NAMES)
    p.add_argument("--outdir", default="figures", help="output directory (default: figures)")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("verify", help="run the oracle-equivalence and invariant checks")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    """Process entry point of the ``entchain`` console script and of
    ``python -m entchain.cli``: parse ``argv``, run the subcommand and
    return its exit code, printing configuration and numerical errors to
    stderr.  It freezes the interpreter's heap before it starts, so it is
    meant to be called once per process; library callers use ``run``,
    ``make_figure`` or ``verify_report`` instead."""
    # Everything alive now (numpy, the package, argparse) lives until the
    # process exits.  Frozen objects are skipped by every later collection,
    # the one at interpreter exit included, which otherwise walks this
    # whole import-time heap once more after the output is written.
    gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed standard output (``| head``).  Point it at
        # devnull, so that the interpreter's last flush of what is still
        # buffered raises nothing, and stop without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EntchainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
