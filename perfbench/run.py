"""Benchmark of the entchain command line: end-to-end metrics per
workload, a correctness gate against the covariance oracle, and an
optional traced run that yields per-layer metrics.

Run from the root of a source checkout (no install needed):

    python3 perfbench/run.py --workload ramp --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seconds 55

Each workload process is a fresh ``entchain`` CLI process (``child.py``
calls ``entchain.cli.main`` with the workload's arguments and the default
``--threads 1``), started from this one parent process, one at a time.
Processes are started back to back until the next one would end past
``--seconds``; every timing is the median over them, and the bounded
times are scaled by a reference job timed after each process.  After the timed
processes, and outside any timing, every output is checked.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` traced and untraced processes alternate, and the
metrics are the per-layer span statistics of the traced ones plus the
tracing overhead.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from child import TRACED
from workloads import CSV_NAME, WORKLOADS, Curve, Workload

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

# A run must end within 180 s; a process still running this long after the
# run started is killed and counted as failed.
HARD_LIMIT_S = 170.0

# Oracle gate on the entropies, as in ``entchain verify``.
ORACLE_GATE = 1e-8
# Step-halving tolerance of the oracle's covariance flow for general
# protocols.  At its default of 1e-10 the flow stays pure to that level
# but its entropies drift by about 4e-8 by t = 84 on the ramp workload;
# at 1e-12 they agree with the scale-factor path to about 3e-9.
ORACLE_FLOW_TOLERANCE = 1e-12
# Rows checked against the oracle per curve, evenly spaced, first and last included.
ORACLE_ROWS = 51

# Workload processes run with one BLAS thread.  With OpenBLAS's default of
# one thread per CPU, the 64 x 64 eigensolves of an n=64 ring ran about 13% slower
# on two CPUs, used twice the CPU time, and their wall time spread more.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The reference job, timed in a fresh process after every workload
# process: Python starting and importing the libraries entchain uses, the
# same kind of work as a workload's set-up, with no entchain code in it.
# On a shared host the CPU's speed changes by a quarter and more between
# phases lasting minutes; the reference job's CPU time follows those
# phases, so a PR cannot change it but the host's speed does.
REF_JOB = "import numpy, scipy.linalg, scipy.integrate"
# Its CPU time on the machine the benchmark was tuned on (2 vCPUs, Intel
# Xeon, Python 3.11.7, numpy 2.4.6, scipy 1.17.1): the median over ten
# runs was 0.887 s.
REF_NOMINAL_S = 0.9

# The bounded metrics, printed in the JSON result.  Times are CPU times of
# the workload process: on a virtual machine whose host takes back CPU time
# (steal), wall time measures the host as much as the program.  The
# program is single-threaded here, so CPU time is the wall time it would
# take without steal.  Each time is scaled to the reference speed: its
# raw median times REF_NOMINAL_S / the median CPU time of the reference
# job in the same run.
END_TO_END = [
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("rows_per_cpu_s", "rows/s"),
    ("peak_rss_mb", "MB"),
]
# Printed in the summary only: the unscaled times, the reference job and
# the wall-clock counterparts.
SUMMARY_ONLY = [
    ("raw_cpu_s", "s"),
    ("raw_setup_s", "s"),
    ("raw_rows_per_cpu_s", "rows/s"),
    ("ref_cpu_s", "s"),
    ("wall_s", "s"),
    ("setup_wall_s", "s"),
    ("rows_per_s", "rows/s"),
]

# One span per name in child.TRACED, in its order.
SPANS = list(dict.fromkeys(name for name, _, _ in TRACED))

PER_LAYER = (
    [("cli.import_s", "s")]
    + [(f"{span}.{stat}", unit) for span in SPANS
       for stat, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))]
    + [("run.csv_bytes", "bytes"), ("trace.overhead_frac", "ratio")]
)


@dataclass
class Sample:
    """One finished workload process."""

    index: int
    kind: str  # "plain" or "traced"
    out: Path
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_wall_s: float | None  # None: the process never reached the end of set-up
    setup_cpu_s: float | None
    report: dict
    stdout: str
    digest: str | None  # of the output CSV; None when there is none
    ref_cpu_s: float  # of the reference job, run right after this process

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and self.setup_wall_s is not None


def spawn(cmd, env, out: Path, timeout: float):
    """Run one process to its end; return (start, end, return code, rusage)."""
    with open(out / "stdout", "wb") as stdout, open(out / "stderr", "wb") as stderr:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout, stderr=stderr)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def launch(workload: Workload, kind: str, index: int, env, work: Path,
           timeout: float) -> Sample:
    out = work / f"p{index}"
    out.mkdir()
    report_path = out / "report.json"
    args = [a.replace("{out}", str(out)).replace("{config}", str(work / "config.json"))
            for a in workload.cli_args]
    cmd = [sys.executable, str(HERE / "child.py"), "--report", str(report_path)]
    cmd += {"plain": [], "traced": ["--trace"]}[kind]
    start, end, code, usage = spawn(cmd + ["--"] + args, env, out, timeout)
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        report = {}
    setup_end = report.get("setup_end")
    return Sample(
        index=index,
        kind=kind,
        out=out,
        returncode=code,
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        setup_wall_s=None if setup_end is None else setup_end - start,
        setup_cpu_s=report.get("setup_cpu"),
        report=report,
        stdout=(out / "stdout").read_text(errors="replace"),
        digest=_digest(out / CSV_NAME) if workload.curve else None,
        ref_cpu_s=reference_cpu_s(env),
    )


def reference_cpu_s(env) -> float:
    """CPU time of one run of REF_JOB in a fresh process."""
    with open(os.devnull, "wb") as null:
        proc = subprocess.Popen([sys.executable, "-c", REF_JOB], cwd=ROOT, env=env,
                                stdout=null, stderr=null)
        _, status, usage = os.wait4(proc.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code:
        raise RuntimeError(f"reference job exited with code {code}")
    return usage.ru_utime + usage.ru_stime


def measure(workload: Workload, seconds: float, trace: bool, env, work: Path,
            run_start: float) -> list[Sample]:
    """Whole processes, one at a time, until ``seconds`` is used up."""
    if workload.curve is not None:
        (work / "config.json").write_text(json.dumps(workload.curve.config()))
    samples: list[Sample] = []
    steps: list[float] = []  # wall time of each process plus its reference job
    loop_start = time.monotonic()
    while time.monotonic() - run_start < HARD_LIMIT_S:
        if len(samples) >= (2 if trace else 1) and (
            time.monotonic() - loop_start + statistics.median(steps) > seconds
        ):
            break
        kind = "traced" if trace and len(samples) % 2 else "plain"
        step_start = time.monotonic()
        timeout = HARD_LIMIT_S - (step_start - run_start)
        sample = launch(workload, kind, len(samples), env, work, timeout)
        samples.append(sample)
        steps.append(time.monotonic() - step_start)
        if len(samples) > 1 and sample.ok and sample.digest == samples[0].digest:
            shutil.rmtree(sample.out)  # the same bytes as the first process
    return samples


def check_curve(path: Path, curve: Curve) -> str | None:
    """Return why the CSV at ``path`` is wrong, or None when it is right."""
    import numpy as np

    from entchain.chain import ChainSpec
    from entchain.entanglement import Partition
    from entchain.ermakov import QuenchSchedule
    from entchain.oracles import covariance_series

    try:
        with open(path) as handle:
            echo_line = handle.readline()
            header = handle.readline().strip()
            data = np.loadtxt(handle, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        return f"unreadable: {exc}"
    prefix = "# config: "
    if not echo_line.startswith(prefix):
        return "first line is not the config echo"
    try:
        echo = json.loads(echo_line[len(prefix):])
        model, quench = echo["model"], echo["quench"]
    except (ValueError, KeyError, TypeError):
        return "config echo is not a config document"
    want = curve.config()
    if any(model.get(key) != value for key, value in want["model"].items()):
        return f"config echo model {model} does not match {want['model']}"
    if curve.table is not None and quench.get("table") != want["quench"]["table"]:
        return "config echo has another quench table"

    columns = ["t"] + [f"xi_{j}" for j in range(1, curve.kept + 1)]
    columns += [f"S_{a}" for a in curve.alphas]
    if header != ",".join(columns):
        return f"header {header!r} is not {','.join(columns)!r}"
    if data.shape != (curve.rows, len(columns)):
        return f"shape {data.shape}, expected {(curve.rows, len(columns))}"
    if not np.all(np.isfinite(data)):
        return "non-finite values"
    grid = curve.dt * np.arange(curve.rows)
    if np.abs(data[:, 0] - grid).max() > 1e-9 * curve.t_max:
        return "time column is not the configured grid"
    xi = data[:, 1:1 + curve.kept]
    if xi.min() < 0.0 or xi.max() >= 1.0:
        return f"xi outside [0, 1): min {xi.min()}, max {xi.max()}"

    rows = np.arange(0, curve.rows, (curve.rows - 1) // (ORACLE_ROWS - 1))
    spec = ChainSpec(n=curve.n, omega_i=curve.omega_i, k_i=curve.k_i,
                     omega_f=curve.omega_f, k_f=curve.k_f, boundary="periodic")
    schedule = None
    if curve.table is not None:
        table = np.asarray(curve.table, dtype=float)
        schedule = QuenchSchedule(times=table[:, 0], omegas=table[:, 1], ks=table[:, 2])
    oracle = covariance_series(spec, Partition.second_half(curve.n), curve.dt * rows,
                               alphas=curve.alphas, schedule=schedule,
                               tolerance=ORACLE_FLOW_TOLERANCE)
    for i, alpha in enumerate(curve.alphas):
        column = data[rows, 1 + curve.kept + i]
        deviation = float(np.abs(column - oracle.entropies[alpha]).max())
        if not deviation < ORACLE_GATE:
            return f"S_{alpha} differs from the covariance oracle by {deviation:.3e}"
    return None


def check(workload: Workload, samples: list[Sample]) -> tuple[int, int, list[str]]:
    """Count attempted and failed operations: one per whole process."""
    attempted = failed = 0
    problems: list[str] = []
    verdicts: dict[str | None, str | None] = {None: "no output CSV"}
    for sample in samples:
        problem = None
        if not sample.ok:
            problem = (f"exit code {sample.returncode}, set-up end "
                       f"{'not ' if sample.setup_wall_s is None else ''}reached")
        elif workload.curve is None:
            if "all checks passed" not in sample.stdout:
                problem = "verify did not pass"
        elif sample.digest != samples[0].digest:
            problem = "output bytes differ from the first process's"
        else:
            if sample.digest not in verdicts:
                verdicts[sample.digest] = check_curve(sample.out / CSV_NAME, workload.curve)
            problem = verdicts[sample.digest]
        attempted += 1
        failed += problem is not None
        if problem is not None:
            problems.append(f"process {sample.index} ({sample.kind}): {problem}")
    return attempted, failed, problems


def span_stats(report: dict) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, total s, self s); self excludes child spans."""
    names, spans = report["names"], report["spans"]
    child = [0.0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {name: [0, 0.0, 0.0] for name in names}
    for (name_id, start, end, _), inner in zip(spans, child):
        entry = stats[names[name_id]]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - inner
    return {name: tuple(entry) for name, entry in stats.items()}


def _median(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def end_to_end(workload: Workload, samples: list[Sample]) -> dict[str, list[float]]:
    ok = [s for s in samples if s.kind == "plain" and s.ok]
    return {
        "raw_cpu_s": [s.cpu_s for s in ok],
        "raw_setup_s": [s.setup_cpu_s for s in ok],
        "raw_rows_per_cpu_s": [workload.rows / (s.cpu_s - s.setup_cpu_s) for s in ok],
        "peak_rss_mb": [s.peak_rss_mb for s in ok],
        "ref_cpu_s": [s.ref_cpu_s for s in samples],
        "wall_s": [s.wall_s for s in ok],
        "setup_wall_s": [s.setup_wall_s for s in ok],
        "rows_per_s": [workload.rows / (s.wall_s - s.setup_wall_s) for s in ok],
    }


def at_reference_speed(medians: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The bounded times: raw medians scaled to the reference job's speed."""
    scale = REF_NOMINAL_S / medians["ref_cpu_s"]
    note = f"times {REF_NOMINAL_S} s / median ref_cpu_s = {scale:.6g}"
    return {
        "cpu_s": (medians["raw_cpu_s"] * scale, f"raw_cpu_s {note}"),
        "setup_s": (medians["raw_setup_s"] * scale, f"raw_setup_s {note}"),
        "rows_per_cpu_s": (medians["raw_rows_per_cpu_s"] / scale,
                           "raw_rows_per_cpu_s divided by the same"),
    }


def per_layer(samples: list[Sample]) -> dict[str, list[float]]:
    traced = [s for s in samples if s.kind == "traced" and s.ok]
    values: dict[str, list[float]] = {name: [] for name, _ in PER_LAYER}
    for sample in traced:
        stats = span_stats(sample.report)
        values["cli.import_s"].append(sample.report["import_s"])
        for span in SPANS:
            calls, total, own = stats.get(span, (0, 0.0, 0.0))
            values[f"{span}.calls"].append(calls)
            values[f"{span}.total_s"].append(total)
            values[f"{span}.self_s"].append(own)
        values["run.csv_bytes"].append(sample.report["csv_chars"])
    untraced = [s.cpu_s for s in samples if s.kind == "plain" and s.ok]
    if traced and untraced:
        ratio = _median(s.cpu_s for s in traced) / _median(untraced) - 1.0
        values["trace.overhead_frac"].append(ratio)
    return values


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": _commit(),
    }


def _steal_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole machine so far, from /proc/stat."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return (fields[7], sum(fields[:8])) if len(fields) >= 8 else None


def _commit() -> str:
    """HEAD commit read from .git in the checkout, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool, env) -> dict:
    run_start = time.monotonic()
    workload = WORKLOADS[name](seed)
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    steal_before = _steal_ticks()
    samples = measure(workload, seconds, trace, env, work, run_start)
    steal_after = _steal_ticks()
    attempted, failed, problems = check(workload, samples)

    if not attempted:
        attempted = failed = 1
        problems.append("no whole process ran")

    seed_note = "" if workload.curve else " (ignored: inputs built into the program)"
    kinds = ", ".join(f"{sum(s.kind == k for s in samples)} {k}"
                      for k in ("plain", "traced"))
    print(f"workload {name}  seed {seed}{seed_note}  trace {int(trace)}  processes: {kinds}")
    if workload.curve:
        print(f"  inputs {json.dumps(workload.curve.config(), sort_keys=True)}")
    series = per_layer(samples) if trace else end_to_end(workload, samples)
    reported = dict(PER_LAYER if trace else END_TO_END)
    units = dict(reported, **dict(SUMMARY_ONLY))
    lines = {}
    for metric, values in series.items():
        spread = f"  min {min(values):.6g}  max {max(values):.6g}" if values else ""
        lines[metric] = (_median(values), f"median of {len(values)}{spread}")
    if not trace:
        lines.update(at_reference_speed({m: value for m, (value, _) in lines.items()}))
    metrics = {}
    for metric, (value, note) in lines.items():
        if metric in reported:
            metrics[metric] = {"value": value, "unit": units[metric]}
        print(f"  {metric:<40} {value:>14.6g} {units[metric]:<7} {note}")
    print(f"  {'fail_frac':<40} {failed / attempted:>14.6g} {'ratio':<7} "
          f"{failed} failed of {attempted} operations")
    if steal_before and steal_after:
        steal, total = (after - before for before, after in zip(steal_before, steal_after))
        print(f"  {'host steal':<40} {steal / max(total, 1):>14.6g} {'ratio':<7} "
              f"share of the machine's CPU time taken by the hypervisor during the run")
    for problem in problems:
        print(f"  FAILED {problem}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "entchain" / "cli.py").is_file():
        print(f"error: no entchain sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # Untimed: compiles the package's bytecode and warms the file cache, a
    # cost users pay once, not per run.
    subprocess.run([sys.executable, "-c", "import entchain.cli"], cwd=ROOT, env=env,
                   check=True)
    reference_cpu_s(env)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), env)
               for name in names}
    print("env", json.dumps(environment(), sort_keys=True))
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
