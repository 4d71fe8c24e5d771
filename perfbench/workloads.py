"""Workload definitions for the trimreg benchmark: inputs, commands, checks.

Every input is drawn here, with the benchmark's own numpy code, from the
workload seed; nothing comes from ``trimreg.simulate.generate``, so a change
to the package's generator cannot change another workload's inputs.

A workload is a *cycle* of operations.  An operation is one CLI command,
given as the argv passed to ``trimreg.cli.main``.  The runner repeats whole
cycles, so workloads that alternate two commands always run both equally
often and their median stays between the same two clusters.

The correctness checks read the command's JSON artifact and return ``None``
or a one-line reason.  They tolerate last-bit changes from a new kernel and
pin neither ``cov_factor`` (ROADMAP item 1 changes it) nor a tie rule.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Trimming level of every command that reads a CSV here, except the oracle.
ALPHA = 0.75

# Relative slack for comparisons that must hold exactly in real arithmetic.
LAST_BITS = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI command and the check of its artifact.

    ``followup`` is a second command whose artifact the check also reads.
    It is run after the timed command and is not timed itself.
    """

    argv: tuple
    output: Path
    check: Callable
    followup: tuple = ()
    followup_output: Path | None = None


@dataclass(frozen=True)
class Contaminated:
    """A regression sample y = W beta0 + N(0, 1) whose last rows are
    outliers: floor(vertical * n) rows with the response shifted by about
    20, then floor(leverage * n) rows with the carriers moved to about 10
    and the response left as drawn (bad leverage points)."""

    n: int
    p: int
    vertical: float
    leverage: float
    beta0: tuple

    def draw(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        beta0 = np.asarray(self.beta0)
        x = rng.standard_normal((self.n, self.p - 1))
        y = beta0[0] + x @ beta0[1:] + rng.standard_normal(self.n)
        lev = int(math.floor(self.leverage * self.n + 1e-9))
        ver = int(math.floor(self.vertical * self.n + 1e-9))
        end = self.n - lev
        y[end - ver:end] += 20.0 + rng.standard_normal(ver)
        x[end:] = 10.0 + 0.5 * rng.standard_normal((lev, self.p - 1))
        return x, y


def write_csv(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    header = ",".join([f"x{j}" for j in range(1, x.shape[1] + 1)] + ["y"])
    np.savetxt(path, np.column_stack([x, y]), delimiter=",", header=header,
               comments="", fmt="%.17g")


def trimmed_objective(x: np.ndarray, y: np.ndarray, beta, alpha: float) -> float:
    """Mean of the h smallest squared residuals, h = floor(alpha n) + 1."""
    n = y.size
    h = int(math.floor(alpha * n + 1e-9)) + 1
    r = y - beta[0] - x @ np.asarray(beta[1:])
    return float(np.partition(r * r, h - 1)[:h].sum() / n)


def payload_digest(artifact: dict, rewrite: Callable = str) -> str:
    """SHA-256 of the artifact without its wall-clock ``timestamp``; the
    JSON text is passed through ``rewrite`` first."""
    body = {k: v for k, v in artifact.items() if k != "timestamp"}
    text = rewrite(json.dumps(body, sort_keys=True))
    return hashlib.sha256(text.encode()).hexdigest()


# --- checks -----------------------------------------------------------------

def check_fit(artifact: dict, x, y, beta0, alpha: float = ALPHA) -> str | None:
    """The fit beats the generating coefficients on the trimmed objective
    and lies near them in every coordinate.

    "Near" is 0.1 at n = 3e4 and scales as 1/sqrt(n): about nine standard
    errors even for a limit variance of 3.6 sigma^2, so a miss is a defect.
    """
    res = artifact["result"]
    beta = np.asarray(res["beta"], dtype=float)
    if beta.shape != (len(beta0),) or not np.all(np.isfinite(beta)):
        return f"beta {res['beta']} is not {len(beta0)} finite numbers"
    at_truth = trimmed_objective(x, y, beta0, alpha)
    if not res["objective"] <= at_truth * (1 + LAST_BITS):
        return f"objective {res['objective']!r} above {at_truth!r} at beta0"
    tol = 0.1 * math.sqrt(30_000 / y.size)
    err = float(np.max(np.abs(beta - np.asarray(beta0))))
    if not err <= tol:
        return f"|beta - beta0|_inf = {err:.4g} > {tol:.4g}"
    return None


def check_bootstrap(artifact: dict, beta0, m: int, gamma: float = 0.05,
                    tol: float = 0.6) -> str | None:
    """m finite cloud rows, m - floor(gamma m) retained, and the cloud's
    coordinate-wise median within ``tol`` of beta0.

    ``tol`` is about 4.5 standard errors of the estimate at n = 200 even
    for a limit variance of 3.6 sigma^2, so a miss is a defect, not bad
    luck.
    """
    region = artifact["result"]["region"]
    cloud = np.asarray(region["cloud"], dtype=float)
    if cloud.shape != (m, len(beta0)) or not np.all(np.isfinite(cloud)):
        return f"cloud shape {cloud.shape} is not {m} finite rows"
    kept = len(region["retained"])
    if kept != m - math.floor(gamma * m):
        return f"{kept} retained, expected {m - math.floor(gamma * m)}"
    err = float(np.max(np.abs(np.median(cloud, axis=0) - np.asarray(beta0))))
    if not err <= tol:
        return f"cloud median {err:.4g} from beta0 > {tol}"
    return None


def check_oracle(oracle: dict, fitted: dict) -> str | None:
    """Multi-start fit reaches the enumerated global minimum (1e-10 rel)."""
    best = oracle["result"]["objective"]
    got = fitted["result"]["objective"]
    if not abs(got - best) <= 1e-10 * abs(best):
        return f"fit objective {got!r} != oracle objective {best!r}"
    return None


def _finite(value) -> bool:
    if isinstance(value, bool) or isinstance(value, str):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    return True


def check_study(artifact: dict) -> str | None:
    """Every summary value is finite; a consistency study also decreases."""
    summary = artifact["result"]["summary"]
    if not _finite(summary):
        return "summary has a non-finite value"
    if summary["study"] == "consistency" and summary["monotone_decreasing"] is not True:
        return f"median errors {summary['median_error']} do not decrease"
    return None


# --- workloads --------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A named cycle of operations on inputs drawn from the workload seed.

    ``key`` separates the input streams of workloads that share a seed;
    ``samples`` holds one spec per input file, in cycle order.
    """

    name: str
    why: str
    key: int
    samples: tuple = ()

    def inputs(self, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
        rng = np.random.default_rng([self.key, seed])
        return [spec.draw(rng) for spec in self.samples]

    def write_inputs(self, workdir: Path, seed: int) -> None:
        for i, (x, y) in enumerate(self.inputs(seed)):
            write_csv(workdir / f"input{i}.csv", x, y)

    def cycle(self, workdir: Path, seed: int) -> list[Op]:
        raise NotImplementedError


@dataclass(frozen=True)
class FitWorkload(Workload):
    def cycle(self, workdir, seed):
        ops = []
        for i, (spec, (x, y)) in enumerate(zip(self.samples, self.inputs(seed))):
            out = workdir / f"fit{i}.json"
            ops.append(Op(
                argv=("fit", "--input", str(workdir / f"input{i}.csv"),
                      "--seed", str(seed), "--output", str(out)),
                output=out,
                check=lambda a, _, x=x, y=y, b=spec.beta0: check_fit(a, x, y, b),
            ))
        return ops


@dataclass(frozen=True)
class BootstrapWorkload(Workload):
    m: int = 500

    def cycle(self, workdir, seed):
        ops = []
        for i, spec in enumerate(self.samples):
            out = workdir / f"ci{i}.json"
            ops.append(Op(
                argv=("ci-bootstrap", "--input", str(workdir / f"input{i}.csv"),
                      "--m", str(self.m), "--seed", str(seed), "--output", str(out)),
                output=out,
                check=lambda a, _, b=spec.beta0: check_bootstrap(a, b, self.m),
            ))
        return ops


@dataclass(frozen=True)
class StudyWorkload(Workload):
    commands: tuple = ()

    def cycle(self, workdir, seed):
        ops = []
        for i, command in enumerate(self.commands):
            out = workdir / f"study{i}.json"
            ops.append(Op(
                argv=(*command, "--seed", str(seed), "--output", str(out)),
                output=out,
                check=lambda a, _: check_study(a),
            ))
        return ops


@dataclass(frozen=True)
class OracleWorkload(Workload):
    alpha: float = 0.5

    def cycle(self, workdir, seed):
        ops = []
        for i in range(len(self.samples)):
            data = ("--input", str(workdir / f"input{i}.csv"), "--alpha", str(self.alpha))
            out, fit_out = workdir / f"enum{i}.json", workdir / f"enumfit{i}.json"
            ops.append(Op(
                argv=("enumerate", *data, "--output", str(out)),
                output=out,
                check=check_oracle,
                followup=("fit", *data, "--seed", str(seed), "--output", str(fit_out)),
                followup_output=fit_out,
            ))
        return ops


# Process-pool size of mc_study: with one BLAS thread per process, two
# workers keep processes x threads within a 2-core machine.
POOL_WORKERS = 2

_B3 = (1.0, 2.0, 3.0)
_POOL = ("--p", "3", "--threads", str(POOL_WORKERS))

# Sizes are set so that one 30-second run, of which the timed set-ups take
# about 7 s, completes 12 to 30 operations: timings on a shared host drift
# by 30% and more over tens of seconds, and a median over that many
# operations is what keeps a run's figures steady.
WORKLOADS = {w.name: w for w in (
    # 500 starts on n = 5000: each concentration step streams (500, n)
    # residual, partition and gather arrays of 20 to 60 MB, past the caches,
    # so the fit is bound by the concentration kernel and by memory.  About
    # 1 s per fit.  Each file mixes 10% vertical and 10% leverage outliers;
    # how long a fit takes depends on its data (leverage outliers alone
    # take half again as long), so a cycle covers six files.
    FitWorkload(
        name="fit_large",
        why="500-start fits on n=5000, p=3, 20% outliers: concentration kernel and memory",
        key=1,
        samples=(Contaminated(5_000, 3, 0.1, 0.1, _B3),) * 6,
    ),
    # 200 small fits at 50 starts, then depth ranking: per-call overhead of
    # solver.fit dominates, not array size, so a kernel that helps large fits
    # and costs small ones shows here.
    BootstrapWorkload(
        name="bootstrap_ci",
        why="ci-bootstrap: 200 fits of n=200 at 50 starts, then depth ranking: per-call overhead",
        key=2,
        samples=(Contaminated(200, 3, 0.1, 0.0, _B3),
                 Contaminated(200, 3, 0.0, 0.1, _B3)),
        m=200,
    ),
    # The only workload that runs simulate.generate and the process pool
    # (2 workers, one BLAS thread each); the package draws these inputs
    # itself from the CLI seed.
    StudyWorkload(
        name="mc_study",
        why="simulate-consistency and simulate-normality on a 2-worker process pool",
        key=3,
        commands=(
            ("simulate-consistency", "--n-grid", "100,400,1600", "--reps", "30", *_POOL),
            ("simulate-normality", "--n", "400", "--reps", "200", *_POOL),
        ),
    ),
    # C(16, 9) = 11,440 subsets: the only workload where exact_enumerate
    # does the work; the fit that checks it is nearly idle.
    OracleWorkload(
        name="enumerate_oracle",
        why="exact enumeration of C(16,9) h-subsets, checked by a fit: the oracle",
        key=4,
        samples=(Contaminated(16, 2, 0.1, 0.0, _B3[:2]),
                 Contaminated(16, 2, 0.0, 0.1, _B3[:2])),
    ),
)}
