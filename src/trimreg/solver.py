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

Both are one driver, ``_search``, given a source of row sets and a number
of C-steps: the elemental draw and ``MAX_CSTEPS`` for ``fit``, the
h-subsets in lexicographic order and none for ``exact_enumerate``.  The
driver takes a stack of slots, each a dataset with its own row source;
``fit`` and ``exact_enumerate`` are its one-slot calls, and the
replication engine of ``simulate`` fits a group of bootstrap resamples or
study replications in one pass (``_fits``).  The driver, and ``c_step``
and ``ls_fit_subset`` as a single start, run on one kernel.  For a block
of starts it takes the objectives and retention masks from
``model._retain``, the routine of ``model.objective``. The normal
equations of every start are then one product ``mask @ F`` with
``F = [v (x) v | v y]`` built once per slot from the rows v = w - c of
carriers centered at their medians, solved by the batched symmetric solver,
which holds each pivot against its own diagonal entry: whether a subset is
rank-deficient depends neither on the carriers' units nor on their origin.
Every array of size starts x n, the elemental draw included, is processed
in blocks of ``numerics._sizes``, so memory is bounded whatever the number
of starts or slots.  Both products run as fixed-shape tiles once per slot
span and everything else row by row, so a start's arithmetic depends
neither on its block nor on the other slots: a slot's answer in a stack
is bit for bit its answer alone.

``check_stationarity`` measures the trimmed normal-equation residual that
must vanish at any interior minimizer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AllStartsDegenerate,
    DimensionMismatch,
    DomainError,
    SingularMatrix,
    TooManySubsets,
)
from .model import (
    Dataset, HSubset, TrimSpec, _check_trim, _retain, _retained_products, h_subset
)
from .numerics import _sizes, _tiled_matmul, make_stream, spd_solve_batch

# A start converges when two consecutive retention sets are identical (the
# exact fixed point) or its objective drops by at most TOL_OBJECTIVE
# relative; it stops unconverged after MAX_CSTEPS C-steps.  _TINY is added
# to the relative test so exact zeros converge.
MAX_CSTEPS = 100
TOL_OBJECTIVE = 1e-12
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
    """Multi-start concentration settings: the number of elemental starts
    and the seed of their draw.  Rank-deficient starts are discarded, not
    repaired; the convergence rule is fixed (``MAX_CSTEPS``,
    ``TOL_OBJECTIVE``)."""

    n_starts: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1:
            raise DomainError("n_starts must be positive")


def ls_fit_subset(data: Dataset, subset) -> np.ndarray:
    """Least-squares coefficients on the given rows (a set: a repeated
    index counts once).

    One start of the concentration kernel; raises SingularMatrix when the
    subset rows fail the symmetric solver's pivot rule.
    """
    mask = np.zeros((1, data.n), dtype=bool)
    mask[0, np.asarray(subset, dtype=np.intp)] = True
    beta, ok = _refit(mask, _stack([data]), np.zeros(1, dtype=np.intp))
    if not ok[0]:
        raise SingularMatrix("subset rows are rank-deficient")
    return beta[0]


def c_step(data: Dataset, beta, trim: TrimSpec) -> tuple[np.ndarray, float]:
    """One concentration step: refit least squares on the rows currently
    retained at ``beta``.

    Returns (beta_next, objective_next); the objective never increases,
    with equality exactly at a fixed point.  One start of ``fit``'s kernel,
    run for one C-step.
    """
    _check_trim(trim, data.n)
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (data.p,):
        raise DimensionMismatch(f"beta has shape {beta.shape}, expected ({data.p},)")
    one = np.zeros(1, dtype=np.intp)
    betas, objs, _, _, _ = _concentrate(
        _stack([data]), trim.h, 1, beta[None].copy(), np.ones(1, bool), one
    )
    if not np.isfinite(objs[0]):
        raise SingularMatrix("retained rows are rank-deficient")
    return betas[0], float(objs[0])


def check_stationarity(data: Dataset, fit, trim: TrimSpec) -> float:
    """Norm of the trimmed normal-equation residual ||sum r_i w_i over the
    retained rows|| at the fit's beta (or at a raw coefficient vector)."""
    beta = fit.beta if isinstance(fit, LtsFit) else np.asarray(fit, dtype=np.float64)
    return float(np.linalg.norm(_retained_products(data, beta, trim)[1]))


def fit(data: Dataset, trim: TrimSpec, config: SolverConfig | None = None) -> LtsFit:
    """Multi-start concentration solve; deterministic given config.seed.

    Draws ``n_starts`` elemental starts (least squares through p random
    rows), iterates the concentration map on all of them in lockstep, and
    returns the best converged candidate.  Ties on the final objective
    keep the earliest start: a start's arithmetic does not depend on the
    other starts, so starts that reach the same h-subset tie exactly, and
    the first ``k`` starts of any run are the starts of ``n_starts = k``.
    Raises AllStartsDegenerate if no start survives, counting the starts
    the pivot rule rejected apart from those whose objective overflowed.
    """
    if config is None:
        config = SolverConfig()
    (best,), (rejected,) = _fits([data], trim, config.n_starts, [config.seed])
    if best is None:
        raise AllStartsDegenerate(
            _all_failed(config.n_starts, "elemental starts", rejected)
        )
    return _lts_fit(data, trim, best)


def exact_enumerate(
    data: Dataset, trim: TrimSpec, max_subsets: int = 2_000_000
) -> LtsFit:
    """Global minimizer by exhaustive h-subset enumeration.

    Fits least squares on every h-subset (skipping rank-deficient ones),
    scores each candidate on the full trimmed objective, and returns the
    first global minimizer in lexicographic subset order: the driver of
    ``fit`` with zero C-steps.  Raises TooManySubsets beyond the cap.

    On discrete carriers distinct h-subsets can reach the same objective
    up to rounding; the minimizer is then not unique, and which of their
    betas comes back depends on the summation order of the kernel.
    """
    _check_trim(trim, data.n)
    n, h = data.n, trim.h
    total = math.comb(n, h)
    if total > max_subsets:
        raise TooManySubsets(f"C({n},{h}) = {total} exceeds cap {max_subsets}")
    combos = itertools.combinations(range(n), h)

    def subsets(k):
        chunk = itertools.chain.from_iterable(itertools.islice(combos, k))
        return np.fromiter(chunk, dtype=np.intp, count=k * h).reshape(k, h)

    (best,), (rejected,) = _search([(data, total, subsets)], h, 0)
    if best is None:
        raise SingularMatrix(_all_failed(total, "h-subsets", rejected))
    return replace(_lts_fit(data, trim, best), converged=True, start_index=-1)


def _all_failed(total, what, rejected):
    return (
        f"all {total} {what} failed: {rejected} hit rank-deficient subsets, "
        f"{total - rejected} reached a non-finite objective (the squared "
        "residuals overflow)"
    )


def _lts_fit(data, trim, best):
    obj, beta, iters, conv, index = best
    return LtsFit(
        beta=beta,
        objective_value=float(obj),
        subset=h_subset(data, beta, trim),
        iterations=int(iters),
        converged=bool(conv),
        start_index=index,
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


def _stack(datas):
    """The kernel's view of a stack of slots, datasets of one size: per
    slot y, W and the products F of ``_products``, and the (slots, p)
    carrier centers."""
    prods = [_products(d) for d in datas]
    return (
        [d.y for d in datas],
        [d.W for d in datas],
        [F for F, _ in prods],
        np.array([c for _, c in prods]),
    )


def _spans(sid):
    """(slot, lo, hi) of each run of one slot's rows in the nondecreasing
    slot ids ``sid``."""
    if sid[0] == sid[-1]:  # one slot, as in every block of ``fit``
        return [(int(sid[0]), 0, sid.size)]
    cut = (np.flatnonzero(sid[1:] != sid[:-1]) + 1).tolist()
    return [(int(sid[lo]), lo, hi) for lo, hi in zip([0, *cut], [*cut, sid.size])]


def _refit(mask, stack, sid):
    """Least squares on each mask's rows, row i on slot ``sid[i]``: the
    normal equations of every mask by one tiled GEMM per slot span, then
    one batched symmetric solve.

    With centered carriers and the solve's pivot rule (each pivot against
    its own diagonal entry), whether a subset counts as rank-deficient
    depends neither on the carriers' units nor on their offsets.
    """
    _, _, Fs, C = stack
    k, n = mask.shape
    p = C.shape[1]
    tile = _sizes(n)[1]
    aug = np.empty((k, p * (p + 1)))
    for s, lo, hi in _spans(sid):
        aug[lo:hi] = _tiled_matmul(mask[lo:hi], Fs[s], tile)
    x, ok = spd_solve_batch(aug.reshape(k, p, p + 1))
    beta, c = x[:, :, 0], C[sid]
    with np.errstate(invalid="ignore", over="ignore"):  # rows with ok False
        for j in range(1, p):  # back from centered carriers, column by column
            beta[:, 0] -= c[:, j] * beta[:, j]
    return beta, ok


def _fits(datas, trim, n_starts, seeds):
    """``fit`` on each dataset with its own seed, the datasets all of one
    size, in lockstep: one ``_search`` over a stack of slots.  Returns
    ``_search``'s per-slot winners and rejection counts."""
    _check_trim(trim, datas[0].n)

    def elemental(data, seed):
        stream = make_stream(seed, 0)

        def draw(k):
            # p smallest entries of an iid-uniform row = a uniform random
            # p-subset; consecutive calls continue one (n_starts, n) draw.
            u = stream.uniform(size=(k, data.n))
            return np.argpartition(u, data.p - 1, axis=1)[:, : data.p]

        return draw

    slots = [(d, n_starts, elemental(d, s)) for d, s in zip(datas, seeds)]
    return _search(slots, trim.h, MAX_CSTEPS)


def _blocks(totals, block):
    """Pieces (slot, lo, k) of rows lo to lo + k of a slot, grouped into
    blocks of ``block`` rows: the rows of every slot, ``totals[s]`` of
    slot s, in slot-major order."""
    pieces, room = [], block
    for s, total in enumerate(totals):
        lo = 0
        while lo < total:
            k = min(room, total - lo)
            pieces.append((s, lo, k))
            lo, room = lo + k, room - k
            if not room:
                yield pieces
                pieces, room = [], block
    if pieces:
        yield pieces


def _search(slots, h, steps):
    """The one driver of ``fit``, ``exact_enumerate`` and the replication
    engine, over a stack of slots.

    Slot s is (data, total, draw): least squares on ``total`` row sets of
    ``data``, ``draw(k)`` giving the next k as a (k, size) index array,
    then up to ``steps`` C-steps from each.  Every slot has the same n and
    size.  Rows enter blocks of ``_sizes(n)`` in slot-major order, and the
    kernel runs once per block; a row's arithmetic depends only on its
    own start, its slot's data and the fixed tile shape, so a slot's
    results do not depend on the other slots.

    Returns, per slot, the winner (objective, beta, iterations, converged,
    start index) of its first smallest objective, or None when every row
    set is degenerate; and per slot the number of row sets the pivot rule
    rejected.
    """
    n = slots[0][0].n
    stack = _stack([data for data, _, _ in slots])
    block = _sizes(n)[0]
    best = [None] * len(slots)
    rejected = np.zeros(len(slots), dtype=np.intp)
    for pieces in _blocks([total for _, total, _ in slots], block):
        rows = np.concatenate([slots[s][2](k) for s, _, k in pieces])
        sid = np.repeat([s for s, _, _ in pieces], [k for _, _, k in pieces])
        mask = np.zeros((rows.shape[0], n), dtype=bool)
        np.put_along_axis(mask, rows, True, axis=1)
        betas, ok = _refit(mask, stack, sid)
        del rows, mask
        betas, objs, iters, conv, dead = _concentrate(stack, h, steps, betas, ok, sid)
        rejected += np.bincount(sid[dead], minlength=len(slots))
        a = 0
        for s, lo, k in pieces:
            i = a + int(np.argmin(objs[a : a + k]))
            if objs[i] < (np.inf if best[s] is None else best[s][0]):
                best[s] = (objs[i], betas[i].copy(), iters[i], conv[i], lo + i - a)
            a += k
    return best, rejected


def _concentrate(stack, h, steps, betas, ok, sid):
    """Score a block of starts, start i on slot ``sid[i]``, then run up to
    ``steps`` C-steps on each until it converges or dies.

    Returns (betas, objs, iters, conv, rejected) per start; a start dies,
    with objective inf, when its subset is rank-deficient (``ok`` False;
    ``rejected`` is set) or its objective is not finite.
    """
    ys, Ws = stack[:2]
    k = betas.shape[0]
    objs = np.full(k, np.inf)
    iters = np.zeros(k, dtype=np.intp)
    conv = np.zeros(k, dtype=bool)
    rejected = np.zeros(k, dtype=bool)
    act, new_beta = np.arange(k), betas
    for step in range(steps + 1):
        with np.errstate(invalid="ignore", over="ignore"):  # rows with ok False
            o_new, mask_new = _retain(ys, Ws, new_beta, h, _spans(sid[act]))
        live = ok & np.isfinite(o_new)
        if not live.all():
            rejected[act[~ok]] = True
            objs[act[~live]] = np.inf
            act, new_beta = act[live], new_beta[live]
            o_new, mask_new = o_new[live], mask_new[live]
        done = np.zeros(act.size, dtype=bool)
        if step:
            same = np.all(mask_new == mask[live], axis=1)
            small = (objs[act] - o_new) <= TOL_OBJECTIVE * (objs[act] + _TINY)
            done = same | small
            betas[act], iters[act] = new_beta, step
            conv[act[done]] = True
        objs[act] = o_new
        if step == steps or done.all():
            break
        act, mask = act[~done], mask_new[~done]
        new_beta, ok = _refit(mask, stack, sid[act])
    return betas, objs, iters, conv, rejected
