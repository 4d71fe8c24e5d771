"""Loop references for the concentration kernel and the replication
engine.

The solver fits every start and every enumerated subset through one
batched mask-GEMM kernel.  The first functions here are the per-subset
versions it replaced: a row gather, a LAPACK Cholesky solve with the same
relative pivot rule, and the model's objective, one subset at a time.

``bootstrap_fits`` and both Monte Carlo studies run one replication
engine.  The last two functions are the loops it replaced: the per-slot
bootstrap loop with its redraw rule, and the per-task study loop.  Tests
compare the kernel and the engine against them.
"""

import itertools
from dataclasses import replace

import numpy as np
import scipy.linalg

from trimreg import (
    AllStartsDegenerate,
    Dataset,
    ResampleExhausted,
    SingularMatrix,
    TrimSpec,
    fit,
    generate,
    h_subset,
    make_stream,
    objective,
)
from trimreg.numerics import PIVOT_RTOL
from trimreg.simulate import MAX_REDRAWS


def cholesky_solve(a, b):
    """Solve the symmetric system a x = b by LAPACK Cholesky; raises
    SingularMatrix when the factorization fails or a squared pivot falls
    below PIVOT_RTOL times the matching diagonal entry of a."""
    try:
        factor = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    if np.any(np.diag(factor[0]) ** 2 < PIVOT_RTOL * np.diag(a)):
        raise SingularMatrix("pivot below tolerance")
    return scipy.linalg.cho_solve(factor, b, check_finite=False)


def ls_fit_subset(data, subset):
    """Least squares on the gathered subset rows."""
    idx = np.asarray(subset, dtype=np.intp)
    Ws, ys = data.W[idx], data.y[idx]
    return cholesky_solve(Ws.T @ Ws, Ws.T @ ys)


def c_step(data, beta, trim):
    """Gather the rows retained at beta, refit, score the refit."""
    beta_next = ls_fit_subset(data, h_subset(data, beta, trim).indices)
    return beta_next, objective(data, beta_next, trim)


def exact_enumerate(data, trim):
    """(objective, beta) of the first global minimizer in lexicographic
    subset order, skipping rank-deficient subsets."""
    best_obj, best_beta = np.inf, None
    for combo in itertools.combinations(range(data.n), trim.h):
        try:
            beta = ls_fit_subset(data, combo)
        except SingularMatrix:
            continue
        obj = objective(data, beta, trim)
        if obj < best_obj:
            best_obj, best_beta = obj, beta
    return best_obj, best_beta


def bootstrap_fits(data, trim, m, config, stream):
    """(cloud, redraws): slot j draws n row indices, then a solver seed,
    from stream.child(j) and fits; a resample on which every start is
    degenerate is redrawn from the same stream, up to MAX_REDRAWS times."""
    n = data.n
    out = np.empty((m, data.p))
    redraws = 0
    for j in range(m):
        child = stream.child(j)
        for _ in range(MAX_REDRAWS + 1):
            idx = child.integers(0, n, size=n)
            resample = Dataset(y=data.y[idx], W=data.W[idx])
            solver_seed = int(child.integers(0, 2**63))
            try:
                out[j] = fit(resample, trim, replace(config, seed=solver_seed)).beta
                break
            except AllStartsDegenerate:
                redraws += 1
        else:
            raise ResampleExhausted(f"resample {j}")
    return out, redraws


def study_records(spec, sizes, reps, alpha, config, stream):
    """(betas, objectives, iterations) of ``reps`` replications per size:
    replication j generates a dataset from a fresh stream keyed as
    stream.child(j), draws a solver seed from it and fits, without
    redraws."""
    rows = []
    for size in sizes:
        spec_n = replace(spec, n=size)
        for _ in range(reps):
            child = stream.child(len(rows))
            task_stream = make_stream(child.seed, child.stream_id)
            data = generate(spec_n, task_stream)
            solver_seed = int(task_stream.integers(0, 2**63))
            trim = TrimSpec.for_size(size, alpha)
            result = fit(data, trim, replace(config, seed=solver_seed))
            rows.append((result.beta, result.objective_value, result.iterations))
    betas, objectives, iterations = zip(*rows)
    return np.vstack(betas), np.array(objectives), np.array(iterations, dtype=np.intp)
