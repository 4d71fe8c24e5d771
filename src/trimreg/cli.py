"""Command-line interface.

Reads CSV datasets (header row required, comma-delimited, '.' decimal),
dispatches to the library, and emits machine-readable artifacts: JSON by
default, CSV for per-replication tables.  Every artifact embeds the full
effective configuration and seed; re-running with the same flags
reproduces it byte-for-byte except for the timestamp field.

Exit codes: 0 success, 2 usage error, 3 parse error, 4 numeric
degeneracy, 5 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import (
    AllStartsDegenerate,
    DimensionMismatch,
    DomainError,
    NonNumericCell,
    OnPieceBoundary,
    ParseError,
    QuadratureFailure,
    ResampleExhausted,
    SingularMatrix,
    TooFewRows,
    TooManySubsets,
)
from .inference import MIN_CLOUD, bootstrap_fits, ci_depth_region, ci_normal_ball
from .model import ALPHA_MAX, Dataset, TrimSpec
from .numerics import make_stream
from .population import (
    InfluencePoint,
    PopulationModel,
    influence_function,
    trim_constants,
)
from .simulate import STUDY_STARTS, GenSpec, run_consistency_study, run_normality_study
from .solver import SolverConfig, check_stationarity, exact_enumerate, fit

USAGE_ERROR, PARSE_ERROR, NUMERIC_ERROR, RESOURCE_ERROR = 2, 3, 4, 5

_EXIT_CODE = {
    ParseError: PARSE_ERROR,
    SingularMatrix: NUMERIC_ERROR,
    AllStartsDegenerate: NUMERIC_ERROR,
    ResampleExhausted: NUMERIC_ERROR,
    OnPieceBoundary: NUMERIC_ERROR,
    QuadratureFailure: NUMERIC_ERROR,
    TooManySubsets: RESOURCE_ERROR,
    DomainError: USAGE_ERROR,
    DimensionMismatch: USAGE_ERROR,
}


@dataclass
class RunConfig:
    """Effective configuration of one CLI invocation."""

    command: str
    input: str | None = None
    response: str = "y"
    alpha: float = 0.75
    sigma: float | None = None
    gamma: float = 0.05
    seed: int = 0
    n_starts: int | None = None
    m: int = 500
    reps: int = 200
    mode: str = "corrected"
    output: str | None = None
    fmt: str = "json"
    threads: int = 1
    n: int = 200
    n_grid: tuple = (100, 400)
    p: int = 2
    beta0: tuple | None = None


def _read_numeric_csv(path: str, response: str):
    """Parse a header-ed CSV into (carriers, response values, carrier names).

    Raises ParseError/NonNumericCell with the offending row (1-based data
    row index) and column named.  A file whose rows all have the header's
    length is converted by numpy in one call; if that fails, or a value is
    not finite, ``_cells`` converts it cell by cell and names the fault.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path!r} is empty")
    header = [c.strip() for c in rows[0]]
    if response not in header:
        raise ParseError(f"response column {response!r} not found in header {header}")
    y_col = header.index(response)
    x_cols = [j for j in range(len(header)) if j != y_col]
    if not x_cols:
        raise ParseError("need at least one carrier column besides the response")
    arr = None
    if len(rows) > 1 and all(len(row) == len(header) for row in rows[1:]):
        try:
            arr = np.array(rows[1:], dtype=np.float64)
        except ValueError:
            pass
    if arr is None or not np.isfinite(arr).all():
        arr = _cells(rows, header, path)
    return arr[:, x_cols], arr[:, y_col], [header[j] for j in x_cols]


def _cells(rows, header, path):
    """The data rows of ``rows`` as a float array, converted by ``float``
    cell by cell; raises on the first ragged row or bad cell."""
    data = []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise ParseError(
                f"row {i} has {len(row)} cells, expected {len(header)}"
            )
        vals = []
        for j, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise NonNumericCell(
                    f"row {i}, column {header[j]!r}: {cell!r} is not numeric"
                ) from None
            if not np.isfinite(v):
                raise NonNumericCell(
                    f"row {i}, column {header[j]!r}: {cell!r} is not finite"
                )
            vals.append(v)
        data.append(vals)
    if not data:
        raise ParseError(f"{path!r} has a header but no data rows")
    return np.asarray(data, dtype=np.float64)


def load_dataset(path: str, response: str = "y") -> Dataset:
    """Load a CSV file into a Dataset: the named column becomes the
    response, remaining columns become carriers in header order, and the
    intercept column is prepended."""
    x, y, _ = _read_numeric_csv(path, response)
    n, p = x.shape[0], x.shape[1] + 1
    if n <= 2 * p:
        raise TooFewRows(f"n={n} rows with p={p} coefficients requires n > 2p")
    return Dataset.from_xy(x, y)


def _fit_result_dict(data, trim, result) -> dict:
    return {
        "beta": [float(v) for v in result.beta],
        "objective": float(result.objective_value),
        "subset": [int(v) for v in result.subset.indices],
        "boundary_flag": bool(result.subset.boundary_flag),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "start_index": int(result.start_index),
        "stationarity": check_stationarity(data, result, trim),
        "n": data.n,
        "p": data.p,
        "h": trim.h,
    }


def _require(config: RunConfig, field: str):
    value = getattr(config, field)
    if value is None:
        raise DomainError(f"--{field.replace('_', '-')} is required for {config.command}")
    return value


def _solver_config(config: RunConfig, study: bool) -> SolverConfig:
    default = STUDY_STARTS if study else SolverConfig().n_starts
    starts = config.n_starts if config.n_starts is not None else default
    return SolverConfig(n_starts=starts, seed=config.seed)


def _beta0(config: RunConfig) -> np.ndarray:
    if config.beta0 is None:
        return np.zeros(config.p)
    beta0 = np.asarray(config.beta0, dtype=np.float64)
    if beta0.shape != (config.p,):
        raise DomainError(f"--beta0 needs {config.p} values, got {beta0.size}")
    return beta0


def _workers(config: RunConfig) -> int:
    if config.threads == 0:
        return os.cpu_count() or 1
    return config.threads


def _dispatch(config: RunConfig):
    """Run the command; returns (result_dict, csv_text_or_None)."""
    if not 0.5 <= config.alpha <= ALPHA_MAX:
        raise DomainError(f"--alpha must be in [0.5, {ALPHA_MAX}], got {config.alpha}")
    if config.fmt == "csv" and config.command not in _TABLES:
        raise DomainError(f"--format csv is not available for {config.command}")
    if config.threads < 0:
        raise DomainError(
            f"--threads must be 0 (one per core) or positive, got {config.threads}"
        )
    if config.command == "ci-bootstrap" and config.m < MIN_CLOUD:
        raise DomainError(
            f"--m must be at least {MIN_CLOUD} for a depth region, got {config.m}"
        )
    if not 0.0 < config.gamma < 1.0:
        raise DomainError(f"--gamma must be in (0, 1), got {config.gamma}")
    echo = _config_echo(config)

    if config.command == "constants":
        sigma = _require(config, "sigma")
        c = trim_constants(config.alpha, sigma)
        return asdict(c), None

    if config.command == "fit":
        data = load_dataset(_require(config, "input"), config.response)
        trim = TrimSpec.for_size(data.n, config.alpha)
        result = fit(data, trim, _solver_config(config, study=False))
        return _fit_result_dict(data, trim, result), None

    if config.command == "enumerate":
        data = load_dataset(_require(config, "input"), config.response)
        trim = TrimSpec.for_size(data.n, config.alpha)
        result = exact_enumerate(data, trim)
        return _fit_result_dict(data, trim, result), None

    if config.command == "influence":
        sigma = _require(config, "sigma")
        x, t, _ = _read_numeric_csv(_require(config, "input"), config.response)
        dim = x.shape[1] + 1
        model = PopulationModel.canonical(config.alpha, sigma, dim=dim)
        points = []
        for i in range(x.shape[0]):
            z0 = InfluencePoint(carrier=x[i], response=float(t[i]))
            vec = influence_function(z0, model)
            r0 = float(t[i] - z0.design_vector @ model.beta)
            points.append({
                "carrier": [float(v) for v in x[i]],
                "response": float(t[i]),
                "residual": r0,
                "inside": bool(r0 * r0 <= model.trim_quantile),
                "influence": [float(v) for v in vec],
            })
        return {
            "model": {
                "alpha": config.alpha,
                "sigma": sigma,
                "dim": dim,
                "beta": [float(v) for v in model.beta],
                "trim_quantile": float(model.trim_quantile),
            },
            "points": points,
        }, None

    if config.command in ("simulate-consistency", "simulate-normality"):
        consistency = config.command == "simulate-consistency"
        sizes = list(config.n_grid) if consistency else config.n
        spec = GenSpec(
            n=int(config.n_grid[0]) if consistency else config.n, p=config.p,
            beta0=_beta0(config),
            sigma=config.sigma if config.sigma is not None else 1.0,
        )
        runner = run_consistency_study if consistency else run_normality_study
        study = runner(
            spec, sizes, config.reps, config.alpha,
            config=_solver_config(config, study=True),
            stream=make_stream(config.seed, 0),
            n_workers=_workers(config),
        )
        return {"summary": study.summary}, study.to_csv_text(meta=echo)

    if config.command == "ci-normal":
        sigma = _require(config, "sigma")
        data = load_dataset(_require(config, "input"), config.response)
        trim = TrimSpec.for_size(data.n, config.alpha)
        result = fit(data, trim, _solver_config(config, study=False))
        constants = trim_constants(config.alpha, sigma)
        region = ci_normal_ball(result, constants, data.n, config.gamma, config.mode)
        return {
            "fit": _fit_result_dict(data, trim, result),
            "constants": asdict(constants),
            "region": region.to_json_dict(),
        }, None

    if config.command == "ci-bootstrap":
        data = load_dataset(_require(config, "input"), config.response)
        trim = TrimSpec.for_size(data.n, config.alpha)
        stream = make_stream(config.seed, 0)
        cloud = bootstrap_fits(
            data, trim, config.m, _solver_config(config, study=True), stream
        )
        region = ci_depth_region(cloud, config.gamma, stream=stream.child(config.m))
        lines = ["# " + json.dumps(echo, sort_keys=True)]
        lines.append(
            ",".join(["rep"] + [f"beta_{j}" for j in range(data.p)]
                     + ["depth", "retained"])
        )
        retained = set(int(v) for v in region.retained)
        for i in range(cloud.shape[0]):
            row = [str(i)] + [repr(float(v)) for v in cloud[i]]
            row += [repr(float(region.depths[i])), str(int(i in retained))]
            lines.append(",".join(row))
        return {"region": region.to_json_dict()}, "\n".join(lines) + "\n"

    raise DomainError(f"unknown command {config.command!r}")


def _config_echo(config: RunConfig) -> dict:
    echo = asdict(config)
    echo["n_grid"] = list(config.n_grid)
    echo["beta0"] = list(config.beta0) if config.beta0 is not None else None
    return echo


def run(config: RunConfig) -> int:
    """Execute one command and emit its artifact; returns the exit code."""
    try:
        result, table = _dispatch(config)
    except tuple(_EXIT_CODE) as exc:
        code = next(c for k, c in _EXIT_CODE.items() if isinstance(exc, k))
        error = {"error": {
            "type": type(exc).__name__, "message": str(exc), "exit_code": code,
        }}
        sys.stdout.write(json.dumps(error, sort_keys=True, indent=2) + "\n")
        return code

    if config.fmt == "csv":
        text = table
    else:
        artifact = {
            "command": config.command,
            "config": _config_echo(config),
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "result": result,
        }
        text = json.dumps(artifact, sort_keys=True, indent=2) + "\n"

    if config.output:
        with open(config.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _list_of(kind):
    """argparse type of a comma-separated list of ``kind`` values."""
    def parse(text: str) -> tuple:
        return tuple(kind(v) for v in text.split(","))
    parse.__name__ = f"{kind.__name__} list"
    return parse


# RunConfig field -> (flag, add_argument keywords).  Defaults live in
# RunConfig: a flag that is not given leaves its field at the default.
_FLAGS = {
    "input": ("--input", {"help": "input CSV path (header row required)"}),
    "response": ("--response", {"help": "response column name (default y)"}),
    "alpha": ("--alpha", {"type": float,
                          "help": f"trimming level in [0.5, {ALPHA_MAX}]"}),
    "sigma": ("--sigma", {"type": float, "help": "error standard deviation"}),
    "gamma": ("--gamma", {"type": float,
                          "help": "miscoverage level for confidence regions"}),
    "seed": ("--seed", {"type": int}),
    "n_starts": ("--starts", {"type": int, "help": (
        f"multi-start count (default {SolverConfig().n_starts}; "
        f"{STUDY_STARTS} in studies and ci-bootstrap)")}),
    "m": ("--m", {"type": int, "help": "bootstrap resamples"}),
    "reps": ("--reps", {"type": int, "help": "study replications"}),
    "mode": ("--mode", {"choices": ("corrected", "paper-literal")}),
    "output": ("--output", {"help": "artifact path (default stdout)"}),
    "threads": ("--threads", {"type": int,
                              "help": "worker processes (0 = one per core)"}),
    "n": ("--n", {"type": int, "help": "sample size"}),
    "n_grid": ("--n-grid", {"type": _list_of(int),
                            "help": "comma-separated sample sizes"}),
    "p": ("--p", {"type": int, "help": "coefficient dimension incl. intercept"}),
    "beta0": ("--beta0", {"type": _list_of(float),
                          "help": "comma-separated true coefficients"}),
}

_DATA = ("input", "response")
_TABLES = ("simulate-consistency", "simulate-normality", "ci-bootstrap")
_STUDY = ("reps", "p", "beta0", "sigma", "n_starts", "seed", "threads")

# The RunConfig fields each command reads, besides alpha, output and fmt;
# only the _TABLES commands take --format csv.
_COMMAND_FIELDS = {
    "fit": (*_DATA, "n_starts", "seed"),
    "enumerate": _DATA,
    "influence": (*_DATA, "sigma"),
    "constants": ("sigma",),
    "simulate-consistency": ("n_grid", *_STUDY),
    "simulate-normality": ("n", *_STUDY),
    "ci-normal": (*_DATA, "sigma", "gamma", "mode", "n_starts", "seed"),
    "ci-bootstrap": (*_DATA, "m", "gamma", "n_starts", "seed"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trimreg",
        description="Trimmed least-squares regression toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fields in _COMMAND_FIELDS.items():
        # No prefix matching: --n would otherwise set --n-grid, --m --mode.
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS,
                           allow_abbrev=False)
        for field in ("alpha", *fields, "output"):
            flag, kwargs = _FLAGS[field]
            p.add_argument(flag, dest=field, **kwargs)
        p.add_argument("--format", dest="fmt",
                       choices=("json", "csv") if name in _TABLES else ("json",))
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return run(RunConfig(**vars(args)))


if __name__ == "__main__":
    sys.exit(main())
