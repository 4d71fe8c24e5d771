"""Trimmed least-squares solvers.

Two routes to the minimizer of the trimmed objective:

* ``fit`` — multi-start concentration.  Each start is least squares through
  p random rows; a concentration step replaces beta by the least-squares
  fit on the h rows it currently retains, which never increases the
  objective, so every start descends to a fixed point in finitely many
  steps.
* ``exact_enumerate`` — the finite oracle.  The global minimum is attained
  on one of the C(n, h) retention patterns, so fitting every h-subset and
  scoring the full objective is exhaustive (and only viable at small n).

Both, and ``c_step`` and ``ls_fit_subset`` as a single start, run on one
kernel. For a block of starts it takes the objectives and retention masks
from ``model._retain``, the routine of ``model.objective``. The normal
equations of every start are then one product ``mask @ F`` with
``F = [v (x) v | v y]`` built once per call from the rows v = w - c of
carriers centered at their medians, solved by the batched symmetric solver
with its pivot rule applied to the equilibrated system, so whether a subset
is rank-deficient depends neither on the carriers' units nor on their
origin. Every array of size starts x n, the elemental draw included, is
processed in blocks of ``numerics._sizes``, so memory is bounded whatever
the number of starts, and a start's arithmetic does not depend on its block.

``check_stationarity`` measures the trimmed normal-equation residual that
must vanish at any interior minimizer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllStartsDegenerate,
    DimensionMismatch,
    DomainError,
    SingularMatrix,
    TooManySubsets,
)
from .model import Dataset, HSubset, TrimSpec, _check_trim, _retain, h_subset, residuals
from .numerics import _sizes, _tiled_matmul, make_stream, spd_solve_batch

# Floor added to relative objective-change tests so exact zeros converge.
_TINY = 1e-300


@dataclass(frozen=True)
class LtsFit:
    """Result of a trimmed fit.

    ``objective_value`` is the kernel's own, which equals ``model.objective``
    at ``beta`` bit for bit, and ``subset`` is ``model.h_subset`` at ``beta``.
    ``start_index`` is the provenance of the winning start (-1 for
    enumeration).
    """

    beta: np.ndarray
    objective_value: float
    subset: HSubset
    iterations: int
    converged: bool
    start_index: int


@dataclass(frozen=True)
class SolverConfig:
    """Multi-start concentration settings.

    Convergence of a start means the relative objective change fell below
    ``tol_objective`` or two consecutive retention sets were identical
    (the exact fixed-point condition).  Rank-deficient starts are
    discarded, not repaired.
    """

    n_starts: int = 500
    max_csteps: int = 100
    tol_objective: float = 1e-12
    tol_stationarity: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1 or self.max_csteps < 1:
            raise DomainError("n_starts and max_csteps must be positive")
        if self.tol_objective <= 0 or self.tol_stationarity <= 0:
            raise DomainError("tolerances must be positive")


def ls_fit_subset(data: Dataset, subset) -> np.ndarray:
    """Least-squares coefficients on the given rows (a set: a repeated
    index counts once).

    One start of the concentration kernel; raises SingularMatrix when the
    subset rows fail the symmetric solver's pivot rule.
    """
    mask = np.zeros((1, data.n), dtype=bool)
    mask[0, np.asarray(subset, dtype=np.intp)] = True
    beta, ok = _refit(mask, _products(data))
    if not ok[0]:
        raise SingularMatrix("subset rows are rank-deficient")
    return beta[0]


def c_step(data: Dataset, beta, trim: TrimSpec) -> tuple[np.ndarray, float]:
    """One concentration step: refit least squares on the rows currently
    retained at ``beta``.

    Returns (beta_next, objective_next); the objective never increases,
    with equality exactly at a fixed point.  One start of the kernel that
    ``fit`` runs on all its starts.
    """
    _check_trim(trim, data.n)
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (data.p,):
        raise DimensionMismatch(f"beta has shape {beta.shape}, expected ({data.p},)")
    y, W, h = data.y, data.W, trim.h
    _, mask = _retain(y, W, beta[None], h)
    beta_next, ok = _refit(mask, _products(data))
    if not ok[0]:
        raise SingularMatrix("retained rows are rank-deficient")
    obj_next, _ = _retain(y, W, beta_next, h)
    return beta_next[0], float(obj_next[0])


def check_stationarity(data: Dataset, fit, trim: TrimSpec) -> float:
    """Norm of the trimmed normal-equation residual ||sum r_i w_i over the
    retained rows|| at the fit's beta (or at a raw coefficient vector)."""
    beta = fit.beta if isinstance(fit, LtsFit) else np.asarray(fit, dtype=np.float64)
    idx = h_subset(data, beta, trim).indices
    g = data.W[idx].T @ residuals(data, beta)[idx]
    return float(np.linalg.norm(g))


def fit(data: Dataset, trim: TrimSpec, config: SolverConfig | None = None) -> LtsFit:
    """Multi-start concentration solve; deterministic given config.seed.

    Draws ``n_starts`` elemental starts (least squares through p random
    rows), iterates the concentration map on all of them in lockstep, and
    returns the best converged candidate.  Ties on the final objective
    keep the earliest start: a start's arithmetic does not depend on the
    other starts, so starts that reach the same h-subset tie exactly, and
    the first ``k`` starts of any run are the starts of ``n_starts = k``.
    Raises AllStartsDegenerate if no start survives rank checks.
    """
    if config is None:
        config = SolverConfig()
    _check_trim(trim, data.n)
    n, p = data.n, data.p
    n_starts = config.n_starts
    prods = _products(data)
    stream = make_stream(config.seed, 0)

    betas = np.zeros((n_starts, p))
    objs = np.full(n_starts, np.inf)
    iters = np.zeros(n_starts, dtype=np.intp)
    conv = np.zeros(n_starts, dtype=bool)
    block, _ = _sizes(n)
    for lo in range(0, n_starts, block):
        hi = min(lo + block, n_starts)
        # p smallest entries of an iid-uniform row = a uniform random
        # p-subset; consecutive blocks continue one (n_starts, n) draw.
        elem = np.argpartition(stream.uniform(size=(hi - lo, n)), p - 1, axis=1)[:, :p]
        mask = np.zeros((hi - lo, n), dtype=bool)
        np.put_along_axis(mask, elem, True, axis=1)
        start_betas, ok = _refit(mask, prods)
        del elem, mask
        betas[lo:hi], objs[lo:hi], iters[lo:hi], conv[lo:hi] = _concentrate(
            data, prods, trim.h, config, start_betas, ok
        )

    if not np.isfinite(objs).any():
        raise AllStartsDegenerate(
            f"all {n_starts} elemental starts hit rank-deficient subsets"
        )
    winner = int(np.argmin(objs))
    beta_win = betas[winner]
    return LtsFit(
        beta=beta_win,
        objective_value=float(objs[winner]),
        subset=h_subset(data, beta_win, trim),
        iterations=int(iters[winner]),
        converged=bool(conv[winner]),
        start_index=winner,
    )


def exact_enumerate(
    data: Dataset, trim: TrimSpec, max_subsets: int = 2_000_000
) -> LtsFit:
    """Global minimizer by exhaustive h-subset enumeration.

    Fits least squares on every h-subset (skipping rank-deficient ones),
    scores each candidate on the full trimmed objective, and returns the
    first global minimizer in lexicographic subset order.  Subsets go
    through the concentration kernel in blocks.  Raises TooManySubsets
    beyond the cap.

    On discrete carriers distinct h-subsets can reach the same objective
    up to rounding; the minimizer is then not unique, and which of their
    betas comes back depends on the summation order of the kernel.
    """
    _check_trim(trim, data.n)
    n, h = data.n, trim.h
    total = math.comb(n, h)
    if total > max_subsets:
        raise TooManySubsets(f"C({n},{h}) = {total} exceeds cap {max_subsets}")
    prods = _products(data)
    block, _ = _sizes(n)
    combos = itertools.combinations(range(n), h)
    best_obj, best_beta = np.inf, None
    for lo in range(0, total, block):
        k = min(block, total - lo)
        chunk = itertools.chain.from_iterable(itertools.islice(combos, k))
        subsets = np.fromiter(chunk, dtype=np.intp, count=k * h).reshape(k, h)
        mask = np.zeros((subsets.shape[0], n), dtype=bool)
        np.put_along_axis(mask, subsets, True, axis=1)
        betas, ok = _refit(mask, prods)
        objs = np.full(ok.shape, np.inf)
        objs[ok], _ = _retain(data.y, data.W, betas[ok], h)
        first = int(np.argmin(objs))
        if objs[first] < best_obj:
            best_obj, best_beta = objs[first], betas[first]
    if best_beta is None:
        raise SingularMatrix("every h-subset is rank-deficient")
    return LtsFit(
        beta=best_beta,
        objective_value=float(best_obj),
        subset=h_subset(data, best_beta, trim),
        iterations=0,
        converged=True,
        start_index=-1,
    )


# -- the concentration kernel --------------------------------------------------


def _products(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(F, c): carrier centers c (p,), the medians (0 for the intercept),
    and per-row products F (n, p*(p+1)) with row i = v_i (x) [v_i | y_i]
    for the centered row v_i = w_i - c, so that ``mask @ F`` reshaped to
    (k, p, p+1) is each mask's normal equations [sum v v' | sum v y].

    Centering changes only the intercept of the solution (see ``_refit``);
    it keeps the normal equations of a carrier far from zero, such as
    1e7 + z, from losing the carrier's spread to rounding."""
    c = np.median(data.W, axis=0)
    c[0] = 0.0
    V = data.W - c
    Vy = np.column_stack((V, data.y))
    return (V[:, :, None] * Vy[:, None, :]).reshape(data.n, -1), c


def _refit(
    mask: np.ndarray, prods: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Least squares on each mask's rows: one GEMM for the normal
    equations of all masks, then one batched symmetric solve.

    With centered carriers and the solve's equilibrated pivot rule, whether
    a subset counts as rank-deficient depends neither on the carriers'
    units nor on their offsets.
    """
    F, c = prods
    k, n = mask.shape
    p = c.shape[0]
    aug = _tiled_matmul(mask, F, _sizes(n)[1]).reshape(k, p, p + 1)
    x, ok = spd_solve_batch(aug, equilibrated=True)
    beta = x[:, :, 0]
    with np.errstate(invalid="ignore", over="ignore"):  # rows with ok False
        for j in range(1, p):  # back from centered carriers, column by column
            beta[:, 0] -= c[j] * beta[:, j]
    return beta, ok


def _concentrate(data, prods, h, config, betas, alive):
    """Run C-steps on one block of starts until each converges, dies or
    reaches ``max_csteps``.

    Returns (betas, objs, iters, conv) per start; a start that dies, when
    its subset turns rank-deficient or its objective non-finite, gets
    objective inf.
    """
    y, W = data.y, data.W
    k = betas.shape[0]
    objs = np.full(k, np.inf)
    iters = np.zeros(k, dtype=np.intp)
    conv = np.zeros(k, dtype=bool)
    act = np.flatnonzero(alive)
    o, mask = _retain(y, W, betas[act], h)
    good = np.isfinite(o)
    act, mask = act[good], mask[good]
    objs[act] = o[good]
    for step in range(1, config.max_csteps + 1):
        if act.size == 0:
            break
        new_beta, ok = _refit(mask, prods)
        if not ok.all():
            objs[act[~ok]] = np.inf
            act, mask, new_beta = act[ok], mask[ok], new_beta[ok]
        o_new, mask_new = _retain(y, W, new_beta, h)
        ok = np.isfinite(o_new)
        if not ok.all():
            objs[act[~ok]] = np.inf
            act, mask, new_beta = act[ok], mask[ok], new_beta[ok]
            o_new, mask_new = o_new[ok], mask_new[ok]
        same = np.all(mask_new == mask, axis=1)
        small = (objs[act] - o_new) <= config.tol_objective * (objs[act] + _TINY)
        betas[act] = new_beta
        objs[act] = o_new
        iters[act] = step
        done = same | small
        conv[act[done]] = True
        act, mask = act[~done], mask_new[~done]
    return betas, objs, iters, conv
