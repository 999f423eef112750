"""Benchmark workloads: the CLI command each one runs and the output it
must produce, generated from the workload seed.

Seed 0 gives the reference parameters.  Other seeds jitter only the
quench targets, inside the ranges below, and never the chain size, the
partition or the time grid, so every seed does the same amount of work.
``verify`` uses inputs built into the program and ignores the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Jitter ranges for seeds other than 0.
RAMP_TABLE = [[0.0, 3.0, 2.0], [10.0, 2.0, 2.2], [20.0, 1.0, 2.4], [30.0, 0.3, 2.5]]
# Only the final row, the ramp's target, is jittered.  Jittering the
# earlier rows by the same shares changed how often the integrator halves
# its step, and with it the CPU time of a run by up to a quarter; with the
# final row alone the step count was the same for seeds 0 to 24.
RAMP_OMEGA_SCALE = (0.9, 1.1)  # times the final omega
RAMP_K_SCALE = (0.95, 1.05)  # times the final k

CSV_NAME = "out.csv"


@dataclass(frozen=True)
class Curve:
    """One ``entchain simulate`` run on a periodic chain, traced second half."""

    n: int
    omega_i: float
    k_i: float
    omega_f: float
    k_f: float
    t_max: float
    dt: float
    alphas: tuple[int, ...]
    table: list | None = None  # general-protocol [t, omega, k] rows

    @property
    def rows(self) -> int:
        return round(self.t_max / self.dt) + 1

    @property
    def kept(self) -> int:
        return self.n // 2  # the "second_half" partition keeps sites 1..n//2

    def config(self) -> dict:
        model = {"mode": "oscillator", "n": self.n, "boundary": "periodic",
                 "omega_i": self.omega_i, "k_i": self.k_i}
        doc = {"model": model, "time": {"t_max": self.t_max, "dt": self.dt},
               "entropy": {"alphas": list(self.alphas)}}
        if self.table is None:
            model.update(omega_f=self.omega_f, k_f=self.k_f)
        else:
            doc["quench"] = {"kind": "general", "table": self.table}
        return doc


@dataclass(frozen=True)
class Workload:
    """Each process of a workload is one operation: one CSV or one verify run."""

    name: str
    cli_args: list[str]  # "{out}" and "{config}" are filled in per process
    rows: int  # output time rows per process, for rows_per_s
    curve: Curve | None = None  # None: the process checks itself (verify)


def _round(value: float) -> float:
    return round(value, 4)


def _simulate(name: str, curve: Curve) -> Workload:
    args = ["simulate", "--config", "{config}", "--output", "{out}/" + CSV_NAME]
    return Workload(name, args, curve.rows, curve)


def ramp(seed: int) -> Workload:
    table = [list(row) for row in RAMP_TABLE]
    if seed:
        rng = random.Random(seed)
        table[-1][1] = _round(table[-1][1] * rng.uniform(*RAMP_OMEGA_SCALE))
        table[-1][2] = _round(table[-1][2] * rng.uniform(*RAMP_K_SCALE))
    omega_f, k_f = table[-1][1], table[-1][2]
    return _simulate("ramp", Curve(8, 3.0, 2.0, omega_f, k_f, 100.0, 0.01, (1, 2), table))


def verify(seed: int) -> Workload:
    # 11 figure configurations, each checked against the oracle at 1000 points.
    return Workload("verify", ["verify"], 11 * 1000)


WORKLOADS = {"ramp": ramp, "verify": verify}
