"""Launcher for one benchmark workload process.

Does what the ``entchain`` console script does (import ``entchain.cli``
and call ``main``), plus two things ``run.py`` needs and the CLI cannot
tell it from outside:

* the monotonic time, and the CPU time of the process, at the first call
  into the scale-factor or covariance pipeline, which ends the set-up
  phase;
* with ``--trace``, a span for every call into the public functions
  listed in ``TRACED`` below, wrapped under the name the calling module
  binds, so spans nest the way the program calls them.

Usage:
    python3 child.py --report PATH [--trace] -- <entchain CLI arguments>

The report is a JSON file written when ``main`` returns.  Spans are kept
in memory as (name, start, end, parent index) and written out at the
end; ``run.py`` turns them into per-layer call counts and times.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (span name, module whose binding is replaced, attribute).  An entry whose
# module is a class path "module:Class" wraps a method on that class.
TRACED = [
    ("cli.main", "entchain.cli", "main"),
    ("config.from_dict", "entchain.cli", "from_dict"),
    ("config.from_dict", "entchain.run", "from_dict"),
    ("chain.quench_modes", "entchain.entanglement", "quench_modes"),
    ("chain.quench_modes", "entchain.run", "quench_modes"),
    ("ermakov.integrate_general", "entchain.entanglement", "integrate_general"),
    ("ermakov.solve_sudden", "entchain.entanglement", "solve_sudden"),
    ("ermakov.solve_sudden", "entchain.run", "solve_sudden"),
    ("ermakov.evaluate", "entchain.ermakov:ModeSolution", "evaluate"),
    ("gaussian.symplectic_eigenvalues", "entchain.entanglement", "symplectic_eigenvalues"),
    ("entanglement.entropy_series", "entchain.run", "entropy_series"),
    ("entanglement.entropy_formulas", "entchain.entanglement", "von_neumann_entropy"),
    ("entanglement.entropy_formulas", "entchain.entanglement", "renyi_entropy"),
    ("oracles.covariance_series", "entchain.run", "covariance_series"),
    ("oracles.propagator", "entchain.oracles:SymplecticPropagator", "matrix"),
    ("oracles.symplectic_eigenvalues", "entchain.oracles", "symplectic_eigenvalues"),
    ("oracles.covariance_entropy", "entchain.oracles", "covariance_entropy"),
    ("run.format_csv", "entchain.run", "format_csv"),
]

# The first call through any of these bindings ends the set-up phase.
SETUP_END = [("entchain.run", "entropy_series"), ("entchain.run", "covariance_series")]


def _owner(path: str):
    # import_module, not "import entchain.run": the package re-exports the
    # function run under the same name as the module.
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self.stack: list[int] = [-1]
        self.csv_chars = 0

    def wrap(self, name: str, func):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                spans[index] = (name_id, start, clock(), parent)
                stack.pop()

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        for name, path, attr in TRACED:
            owner = _owner(path)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        run_module = importlib.import_module("entchain.run")
        format_csv = run_module.format_csv

        def counting_format_csv(table):
            text = format_csv(table)
            self.csv_chars += len(text)
            return text

        run_module.format_csv = counting_format_csv

    def report(self) -> dict:
        return {"names": self.names, "spans": self.spans, "csv_chars": self.csv_chars}


def _mark_setup_end(report: dict) -> None:
    """Record the time of the first pipeline call, then get out of the way."""
    originals = [(_owner(path), attr, getattr(_owner(path), attr)) for path, attr in SETUP_END]

    def marker(original):
        def first_call(*args, **kwargs):
            report.setdefault("setup_end", time.monotonic())
            report.setdefault("setup_cpu", time.process_time())
            for owner, attr, func in originals:
                setattr(owner, attr, func)
            return original(*args, **kwargs)
        return first_call

    for owner, attr, func in originals:
        setattr(owner, attr, marker(func))


def main(argv: list[str]) -> int:
    if "--" not in argv or argv[:1] != ["--report"]:
        print("usage: child.py --report PATH [--trace] -- <entchain arguments>",
              file=sys.stderr)
        return 1
    split = argv.index("--")
    options, cli_args = argv[:split], argv[split + 1:]
    report_path = options[1]
    trace = "--trace" in options[2:]

    report: dict = {}
    start = time.perf_counter()
    cli = importlib.import_module("entchain.cli")
    report["import_s"] = time.perf_counter() - start

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    # After install, so the marker runs outside the traced spans.
    _mark_setup_end(report)

    sys.argv[0] = "entchain"
    try:
        code = cli.main(cli_args)
    finally:
        if tracer is not None:
            report.update(tracer.report())
        with open(report_path, "w") as handle:
            json.dump(report, handle, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
