"""Loop references for the concentration kernel.

The solver fits every start and every enumerated subset through one
batched mask-GEMM kernel.  These are the per-subset versions it replaced:
a row gather, a LAPACK Cholesky solve with the same relative pivot rule,
and the model's objective, one subset at a time.  Tests compare the
kernel against them.
"""

import itertools

import numpy as np
import scipy.linalg

from trimreg import SingularMatrix, h_subset, objective
from trimreg.numerics import PIVOT_RTOL


def cholesky_solve(a, b):
    """Solve the symmetric system a x = b by LAPACK Cholesky; raises
    SingularMatrix when the factorization fails or a squared pivot falls
    below PIVOT_RTOL * max(diag(a))."""
    max_diag = float(np.max(np.diag(a)))
    if max_diag <= 0.0:
        raise SingularMatrix("matrix has no positive diagonal entry")
    try:
        factor = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    if np.min(np.diag(factor[0]) ** 2) < PIVOT_RTOL * max_diag:
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
