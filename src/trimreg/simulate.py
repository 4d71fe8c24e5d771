"""Synthetic data generation, the replication engine, and Monte Carlo
studies.

``generate`` draws regression samples with Gaussian or elliptical
carriers, Gaussian errors, and optional contamination.  One replication
engine serves ``inference.bootstrap_fits`` and both study runners: slot j
takes the derived stream ``stream.child(j)``, draws a dataset from it (a
``generate`` sample, or a with-replacement resample of a fixed dataset),
draws a solver seed, and fits.  A draw on which every start is degenerate
is redrawn from the same stream, up to MAX_REDRAWS times per slot, after
which ResampleExhausted is raised.  Results are therefore reproducible and
independent of worker scheduling.  Both executors share one redraw loop,
``_lockstep``, over runs of slots: in process a run is as many slots of a
group as fill one kernel block, fitted in one pass (``solver._fits``); a
process pool runs one slot at a time with one ``fit`` call per draw.  A
slot's bits are the same either way.

The study runners fit the trimmed estimator over many replications to
check the two empirical directions of the large-sample theory: estimation
error shrinking with n (consistency) and the scaled estimate behaving like
a Gaussian with 1/n variance (normality).
"""

from __future__ import annotations

import json
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import AllStartsDegenerate, DomainError, ResampleExhausted
from .model import Dataset, TrimSpec
from .numerics import RandomStream, _median, _sizes, derive_stream_id, make_stream
from .population import trim_constants
from .solver import SolverConfig, _fits, fit

logger = logging.getLogger(__name__)

# Study solver default: 50 starts bounds Monte Carlo cost; validated against
# the 500-start default on small pilots (see tests).  Bootstrap clouds use it
# too.
STUDY_STARTS = 50

# Consecutive degenerate redraws tolerated per replication slot.
MAX_REDRAWS = 10


@dataclass(frozen=True)
class Contamination:
    """Row-replacement contamination applied to the last floor(eps*n) rows.

    kinds: ``vertical`` (response set to ``magnitude``), ``leverage``
    (carriers set to ``magnitude``, response left stale so the rows break
    the model), ``pointmass`` (rows set to the fixed point ``z`` =
    (carriers..., response)).
    """

    kind: str
    eps: float = 0.0
    magnitude: float = 0.0
    z: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("none", "vertical", "leverage", "pointmass"):
            raise DomainError(f"unknown contamination kind {self.kind!r}")
        if not 0.0 <= self.eps < 0.5:
            raise DomainError(f"eps must be in [0, 0.5), got {self.eps!r}")
        if self.kind == "pointmass":
            if self.z is None:
                raise DomainError("pointmass contamination needs a point z")
            z = np.asarray(self.z, dtype=np.float64)
            z.setflags(write=False)
            object.__setattr__(self, "z", z)

    @classmethod
    def none(cls) -> "Contamination":
        return cls(kind="none")

    @classmethod
    def vertical(cls, eps: float, magnitude: float) -> "Contamination":
        return cls(kind="vertical", eps=eps, magnitude=magnitude)

    @classmethod
    def leverage(cls, eps: float, magnitude: float) -> "Contamination":
        return cls(kind="leverage", eps=eps, magnitude=magnitude)

    @classmethod
    def pointmass(cls, eps: float, z) -> "Contamination":
        return cls(kind="pointmass", eps=eps, z=z)


@dataclass(frozen=True)
class GenSpec:
    """Sampling specification: y_i = w_i' beta0 + e_i with e ~ N(0, sigma^2)
    independent of the carriers.

    ``design`` is "spherical" (iid standard normal carriers) or
    "elliptical" with ``carrier_cov`` the (p-1)x(p-1) SPD carrier
    covariance.
    """

    n: int
    p: int
    beta0: np.ndarray
    sigma: float = 1.0
    design: str = "spherical"
    carrier_cov: np.ndarray | None = None
    contamination: Contamination | None = None

    def __post_init__(self):
        beta0 = np.asarray(self.beta0, dtype=np.float64)
        if beta0.shape != (self.p,):
            raise DomainError(f"beta0 shape {beta0.shape} != (p,) with p={self.p}")
        beta0.setflags(write=False)
        object.__setattr__(self, "beta0", beta0)
        if self.sigma <= 0:
            raise DomainError("sigma must be positive")
        if self.design not in ("spherical", "elliptical"):
            raise DomainError(f"unknown design {self.design!r}")
        if self.design == "elliptical":
            cov = np.asarray(self.carrier_cov, dtype=np.float64)
            if cov.shape != (self.p - 1, self.p - 1):
                raise DomainError(
                    f"carrier_cov shape {cov.shape} != ({self.p - 1}, {self.p - 1})"
                )
            cov.setflags(write=False)
            object.__setattr__(self, "carrier_cov", cov)


def generate(spec: GenSpec, stream: RandomStream) -> Dataset:
    """Draw one dataset; deterministic given the stream key."""
    n, p = spec.n, spec.p
    x = stream.normal(size=(n, p - 1))
    if spec.design == "elliptical":
        try:
            chol = np.linalg.cholesky(spec.carrier_cov)
        except np.linalg.LinAlgError as exc:
            raise DomainError(f"carrier_cov is not SPD: {exc}") from exc
        x = x @ chol.T
    e = spec.sigma * stream.normal(size=n)
    W = np.hstack([np.ones((n, 1)), x])
    y = W @ spec.beta0 + e
    cont = spec.contamination
    if cont is not None and cont.kind != "none" and cont.eps > 0.0:
        m = int(math.floor(cont.eps * n + 1e-9))
        if m > 0:
            if cont.kind == "vertical":
                y[n - m:] = cont.magnitude
            elif cont.kind == "leverage":
                x[n - m:, :] = cont.magnitude
            else:  # pointmass
                if cont.z.shape != (p,):
                    raise DomainError(
                        f"pointmass z shape {cont.z.shape} != ({p},)"
                    )
                x[n - m:, :] = cont.z[:-1]
                y[n - m:] = cont.z[-1]
    return Dataset.from_xy(x, y)


@dataclass
class StudyResult:
    """Per-replication records plus a deterministic summary.

    ``records`` columns: replication id, sample size, coefficient
    estimates, objective, concentration iterations.  ``summary`` is fully
    JSON-serializable and reproducible byte-for-byte for an identical
    (spec, seed); wall-clock time lives in ``runtime_seconds`` only so it
    never contaminates serialized output.
    """

    rep_ids: np.ndarray
    n_values: np.ndarray
    betas: np.ndarray
    objectives: np.ndarray
    iterations: np.ndarray
    summary: dict
    runtime_seconds: float

    def to_json_text(self) -> str:
        return json.dumps(self.summary, sort_keys=True, indent=2) + "\n"

    def to_csv_text(self, meta: dict | None = None) -> str:
        p = self.betas.shape[1]
        lines = []
        if meta is not None:
            lines.append("# " + json.dumps(meta, sort_keys=True))
        header = ["rep", "n"] + [f"beta_{j}" for j in range(p)] + [
            "objective", "iterations",
        ]
        lines.append(",".join(header))
        for i in range(self.rep_ids.size):
            row = [str(int(self.rep_ids[i])), str(int(self.n_values[i]))]
            row += [repr(float(v)) for v in self.betas[i]]
            row += [repr(float(self.objectives[i])), str(int(self.iterations[i]))]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _draw(source, child):
    """A slot's next dataset, a ``generate`` sample of a GenSpec or a
    with-replacement resample of a Dataset, and solver seed, both from
    the slot's stream."""
    if isinstance(source, Dataset):
        idx = child.integers(0, source.n, size=source.n)
        data = Dataset(y=source.y[idx], W=source.W[idx])
    else:
        data = generate(source, child)
    return data, int(child.integers(0, 2**63))


def _fit_each(datas, trim, n_starts, seeds):
    """``solver._fits`` as one ``fit`` per dataset, for a pool worker's runs;
    ``fit`` is the module global looked up at call time."""
    bests = []
    for data, seed in zip(datas, seeds):
        try:
            r = fit(data, trim, SolverConfig(n_starts=n_starts, seed=seed))
        except AllStartsDegenerate:
            bests.append(None)
            continue
        bests.append((r.objective_value, r.beta, r.iterations, r.converged,
                      r.start_index))
    return bests, None


def _lockstep(slots, source, trim, config, fits):
    """The engine's one redraw loop: a run of slots (j, stream key) sharing
    a source, trim and solver config, fitted by one ``fits`` call
    (``solver._fits`` or ``_fit_each``) per round over the current draw of
    every pending slot.  A degenerate draw is redrawn from the slot's own
    stream in the next round, so a slot's result depends neither on its run
    nor on ``fits``.  Returns (beta, objective, iterations, redraws) per
    slot; after MAX_REDRAWS redraws ResampleExhausted names the lowest
    exhausted slot."""
    streams = [make_stream(*key) for _, key in slots]
    out = [None] * len(slots)
    pending = list(range(len(slots)))
    for redraws in range(MAX_REDRAWS + 1):
        datas, seeds = zip(*(_draw(source, streams[i]) for i in pending))
        bests, _ = fits(datas, trim, config.n_starts, seeds)
        failed = []
        for i, best in zip(pending, bests):
            if best is None:
                logger.debug("replication %d draw %d degenerate", slots[i][0], redraws)
                failed.append(i)
            else:
                obj, beta, iters, _, _ = best
                out[i] = (beta, float(obj), int(iters), redraws)
        pending = failed
        if not pending:
            return out
    raise ResampleExhausted(
        f"replication {slots[pending[0]][0]}: {MAX_REDRAWS} consecutive "
        "degenerate redraws"
    )


def _replicate_fits(stream, groups, config, n_workers=1):
    """The replication engine behind ``bootstrap_fits`` and both studies.

    ``groups`` holds (source, trim, count) triples, the source being a
    GenSpec to draw from or a Dataset to resample with replacement.  Slots
    are numbered across the groups and slot j draws from
    ``stream.child(j)``, so results do not depend on worker scheduling.
    Each group's slots are cut into runs for ``_lockstep``: in process as
    many slots as fill one kernel block, fitted in one ``solver._fits``
    pass (so memory does not grow with the count); in a pool one slot and
    one ``fit`` per draw.  Both give the same bits.  Returns betas,
    objectives and iterations in slot order.
    """
    pool = n_workers > 1
    runs, j = [], 0
    for source, trim, count in groups:
        size = 1 if pool else max(1, _sizes(source.n)[0] // config.n_starts)
        for a in range(j, j + count, size):
            keys = [(i, (stream.seed, derive_stream_id(stream.stream_id, i)))
                    for i in range(a, min(a + size, j + count))]
            runs.append((keys, source, trim, config, _fit_each if pool else _fits))
        j += count
    if pool:
        with ProcessPoolExecutor(max_workers=n_workers) as executor:
            done = list(executor.map(_lockstep, *zip(*runs), chunksize=8))
    else:
        done = map(_lockstep, *zip(*runs))
    betas, objectives, iterations, redraws = zip(*(r for run in done for r in run))
    if sum(redraws):
        logger.info("redrew %d degenerate replications", sum(redraws))
    return np.vstack(betas), np.array(objectives), np.array(iterations, dtype=np.intp)


def _run_study(name, spec, sizes, reps, alpha, config, stream, n_workers):
    """Shared body of the study runners: ``reps`` replications per sample
    size in ``sizes``, the records arrays and the summary fields common to
    both studies.  Each runner adds its own summary fields."""
    config = SolverConfig(n_starts=STUDY_STARTS) if config is None else config
    if stream is None:
        stream = make_stream(0, 0)
    start = time.perf_counter()
    groups = [(replace(spec, n=size), TrimSpec.for_size(size, alpha), reps)
              for size in sizes]
    betas, objectives, iterations = _replicate_fits(stream, groups, config, n_workers)
    summary = {
        "study": name,
        "alpha": alpha,
        "reps": reps,
        "beta0": [float(v) for v in spec.beta0],
        "sigma": spec.sigma,
        "design": spec.design,
        "seed": [int(stream.seed), int(stream.stream_id)],
        "solver": asdict(config),
    }
    return StudyResult(
        rep_ids=np.arange(betas.shape[0], dtype=np.intp),
        n_values=np.asarray(np.repeat(sizes, reps), dtype=np.intp),
        betas=betas,
        objectives=objectives,
        iterations=iterations,
        summary=summary,
        runtime_seconds=time.perf_counter() - start,
    )


def run_consistency_study(
    spec: GenSpec,
    n_grid,
    reps: int,
    alpha: float,
    config: SolverConfig | None = None,
    stream: RandomStream | None = None,
    n_workers: int = 1,
) -> StudyResult:
    """Median estimation error across an increasing grid of sample sizes.

    The summary reports median ||beta_hat - beta0|| per grid point and
    whether the sequence strictly decreases.
    """
    n_grid = [int(v) for v in n_grid]
    if not n_grid:
        raise DomainError("n_grid must not be empty")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise DomainError("n_grid must be strictly increasing")
    if reps < 1:
        raise DomainError("reps must be positive")
    study = _run_study("consistency", spec, n_grid, reps, alpha, config, stream,
                       n_workers)
    errors = np.linalg.norm(study.betas - spec.beta0[None, :], axis=1)
    medians = [float(_median(errors[study.n_values == n])) for n in n_grid]
    study.summary.update({
        "n_grid": n_grid,
        "median_error": medians,
        "monotone_decreasing": bool(
            all(b < a for a, b in zip(medians, medians[1:]))
        ),
    })
    return study


def run_normality_study(
    spec: GenSpec,
    n: int,
    reps: int,
    alpha: float,
    config: SolverConfig | None = None,
    stream: RandomStream | None = None,
    n_workers: int = 1,
    rate_check_n: int | None = None,
) -> StudyResult:
    """Sampling-distribution diagnostics for sqrt(n) * (beta_hat - beta0).

    Reports the empirical mean and covariance of the scaled estimates,
    per-coordinate skewness and Anderson-Darling normality statistics
    (1% critical value from the estimated-parameter tables), and the
    theoretical per-coordinate variance ``cov_factor`` side by side with
    the empirical covariance; the two are reported, not asserted equal.
    With ``rate_check_n`` an auxiliary batch at that sample size is run
    and the diagonal ratio of the two scaled covariances is added (near 1
    under the 1/n variance rate).
    """
    if reps < 200:
        raise DomainError("normality study needs reps >= 200")
    sizes = [int(n)] + ([int(rate_check_n)] if rate_check_n else [])
    study = _run_study("normality", spec, sizes, reps, alpha, config, stream,
                       n_workers)

    def scaled_cov(size):
        rows = study.betas[study.n_values == size]
        z = np.sqrt(size) * (rows - spec.beta0[None, :])
        return z, np.cov(z, rowvar=False, ddof=1)

    z_main, cov_main = scaled_cov(n)
    ad_stats, ad_crit = _anderson_darling(z_main)
    offdiag = cov_main - np.diag(np.diag(cov_main))
    study.summary.update({
        "n": int(n),
        "mean_scaled": [float(v) for v in z_main.mean(axis=0)],
        "covariance_scaled": [[float(v) for v in row] for row in cov_main],
        "offdiag_max_abs": float(np.max(np.abs(offdiag))) if spec.p > 1 else 0.0,
        "skewness": [float(v) for v in _skewness(z_main)],
        "anderson_darling": ad_stats,
        "ad_critical_1pct": ad_crit,
        "cov_factor": trim_constants(alpha, spec.sigma).cov_factor,
    })
    if rate_check_n:
        _, cov_aux = scaled_cov(rate_check_n)
        study.summary["rate_check_n"] = int(rate_check_n)
        study.summary["rate_ratio_diag"] = [
            float(v) for v in np.diag(cov_main) / np.diag(cov_aux)
        ]
    return study


def _skewness(z: np.ndarray) -> np.ndarray:
    """Per-coordinate biased skewness m3 / m2**1.5, as scipy.stats.skew."""
    d = z - z.mean(axis=0, keepdims=True)
    return (d**2 * d).mean(axis=0) / (d**2).mean(axis=0) ** 1.5


def _anderson_darling(z: np.ndarray) -> tuple[list, float]:
    """Per-coordinate Anderson-Darling statistic for normality with
    estimated parameters, plus the 1% critical value of Stephens' table
    for that case (1.035, corrected for the sample size N)."""
    from scipy import special
    N = z.shape[0]
    i = np.arange(1, N + 1)
    stats_out = []
    for j in range(z.shape[1]):
        x = z[:, j]
        w = (np.sort(x) - np.mean(x)) / np.std(x, ddof=1)
        terms = (2 * i - 1.0) / N * (special.log_ndtr(w) + special.log_ndtr(-w)[::-1])
        stats_out.append(float(-N - np.sum(terms)))
    crit = float(np.round(1.035 / (1.0 + 0.75 / N + 2.25 / N / N), 3))
    return stats_out, crit
