"""Trimmed least-squares solvers.

Two routes to the minimizer of the trimmed objective:

* ``fit`` — multi-start concentration.  Each start is least squares through
  p random rows; a concentration step replaces beta by the least-squares
  fit on the h rows it currently retains, which never increases the
  objective, so every start descends to a fixed point in finitely many
  steps: a C-step that keeps the retention mask.
* ``exact_enumerate`` — the finite oracle.  The global minimum is attained
  on one of the C(n, h) retention patterns, so fitting every h-subset and
  scoring the full objective is exhaustive (and only viable at small n).

Both are one driver, ``_search``, given a source of row sets and a number
of C-steps: the elemental draw and ``MAX_CSTEPS`` for ``fit``, the
h-subsets in lexicographic order and none for ``exact_enumerate``.  The
driver takes a stack of slots, each a dataset with its own row source;
``fit`` and ``exact_enumerate`` are its one-slot calls, ``c_step`` its
one-row-set call, and the replication engine of ``simulate`` fits a group
of bootstrap resamples or study replications in one pass (``_fits``).
The driver keeps a block of row sets in flight: each pass refits every
row, scores it, and hands the place of every row that converged, died
or ran out of C-steps to the next row set of the source, so the block
stays full until the source runs dry.  It runs on one kernel, as does
``ls_fit_subset``.  The objectives and retention masks of a block come
from ``model._retain``, the routine of ``model.objective``. The normal
equations of every row are then one product ``mask @ F`` with
``F = [v (x) v | v y]`` built once per slot from the rows v = w - c of
carriers centered at their medians, solved by the batched symmetric solver,
which holds each pivot against its own diagonal entry: whether a subset is
rank-deficient depends neither on the carriers' units nor on their origin.
Every array of size starts x n, the elemental draw included, is processed
in blocks of ``numerics._sizes``, so memory is bounded whatever the number
of starts or slots.  Each pass cuts its rows into slot spans once; both
products run as fixed-shape tiles once per span, written in place into
one array, and everything else row by row, so a start's arithmetic
depends neither on its block nor on the other slots: a slot's answer in a
stack is bit for bit its answer alone.  A lone slot, a lone row set or a
lone beta is the same code with one span.

A row's refit, retention and convergence depend only on its mask and its
slot, so starts that reach one mask walk one chain of masks from there
on, and many do: the C-step falls into one of a few fixed points.  When
the starts outnumber its block, ``_search`` keeps a table of the masks
its continuing rows refit and of the outcomes of finished starts
(``_Chains``).  A start whose next mask a finished start already refit
takes that start's outcome instead of refitting, with its own C-step
count, if it ends within the C-step cap; a chain cut unconverged at the
cap is joined only at the same C-step.  Each slot keeps its winner as it
goes, on (objective, start index).

``check_stationarity`` measures the trimmed normal-equation residual that
must vanish at any interior minimizer.
"""

from __future__ import annotations

import itertools
import math
import sys
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
from .numerics import (
    _BLOCK_FLOATS, _median, _sizes, _tiled_matmul, make_stream, spd_solve_batch
)

# The C-steps after which a start stops unconverged (see SolverConfig).
MAX_CSTEPS = 100


@dataclass(frozen=True)
class LtsFit:
    """Result of a trimmed fit.

    ``objective_value`` is the kernel's own, which equals ``model.objective``
    at ``beta`` bit for bit, and ``subset`` is ``model.h_subset`` at ``beta``.
    ``start_index`` is the provenance of the winning start (-1 for
    enumeration).  ``converged`` says that the retention mask repeated: the
    winning start's last C-step kept the rows it refit.
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
    repaired; the convergence rule is fixed: a start stops when its
    retention mask repeats, or unconverged after ``MAX_CSTEPS`` C-steps."""

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
    beta, ok = _refit(mask, _stack([data]), [(0, 0, 1)])
    if not ok[0]:
        raise SingularMatrix("subset rows are rank-deficient")
    return beta[0]


def c_step(data: Dataset, beta, trim: TrimSpec) -> tuple[np.ndarray, float]:
    """One concentration step: refit least squares on the rows currently
    retained at ``beta``.

    Returns (beta_next, objective_next); the objective never increases,
    with equality exactly at a fixed point.  The one-row-set call of
    ``fit``'s driver: the h rows retained at ``beta``, and no C-step.
    """
    _check_trim(trim, data.n)
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (data.p,):
        raise DimensionMismatch(f"beta has shape {beta.shape}, expected ({data.p},)")
    with np.errstate(invalid="ignore", over="ignore"):
        obj, mask = _retain([data.y], [data.W], beta[None], trim.h, [(0, 0, 1)])
    kept = np.flatnonzero(mask[0])[None]
    (best,), _ = _search([(data, 1, lambda k: kept)], trim.h, 0)
    if best is None or not np.isfinite(obj[0]):
        raise SingularMatrix("retained rows are rank-deficient")
    return best[1], float(best[0])


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
    c = _median(data.W)
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


def _refit(mask, stack, spans):
    """Least squares on each mask's rows, rows lo:hi of a span (slot, lo,
    hi) on that slot: the normal equations of every mask by one tiled GEMM
    per span, in place as in ``model._residuals``, one batched symmetric
    solve, and the intercept back from the span's carrier centers.

    With centered carriers and the solve's pivot rule (each pivot against
    its own diagonal entry), whether a subset counts as rank-deficient
    depends neither on the carriers' units nor on their offsets.
    """
    _, _, Fs, C = stack
    k, n = mask.shape
    p = C.shape[1]
    tile, last = _sizes(n)[1], spans[-1][1]
    aug = np.empty((last + -(-(k - last) // tile) * tile, p * (p + 1)))
    for s, lo, hi in spans:
        _tiled_matmul(mask[lo:hi], Fs[s], tile, out=aug[lo:])
    x, ok = spd_solve_batch(aug[:k].reshape(k, p, p + 1))
    beta = x[:, :, 0]
    with np.errstate(invalid="ignore", over="ignore"):  # rows with ok False
        for s, lo, hi in spans:
            for j in range(1, p):
                beta[lo:hi, 0] -= C[s, j] * beta[lo:hi, j]
    return beta, ok


# -- shared C-step chains ------------------------------------------------------

# Columns of the record of a finished start of ``_search``, one float row:
# its start (a running id over the slots), C-steps, whether it converged,
# objective, how it ended, and beta.
_START, _STEP, _STOP, _OBJ, _END, _BETA = range(6)
# How a row ended: alive, or dead because its objective overflowed or the
# pivot rule rejected its refit (2 - ok - live).
_ALIVE, _OVERFLOWED, _REJECTED = 0, 1, 2


class _Chains:
    """The C-step chains of one ``_search`` call, shared between its starts.

    ``entries`` maps the next mask of a continuing row, packed, with the
    slot as 8 more bytes, to where its start refits it: start * (steps +
    1) + C-step.  A start's first retention mask comes from its own random
    elemental fit and is not entered: other starts almost never reach it.
    A finished start's record is kept as its end, in a ring by start.

    The dict and the ring each hold as many entries as one block's bytes
    pay for, a dict entry counting its key object, value and dict slot, so
    the table never takes more than two blocks.  The dict drops the oldest
    first; an entry that a start follows moves to the newest place, so the
    chains of common fixed points stay.
    """

    def __init__(self, n, p, starts, steps):
        self.nb = -(-n // 8)  # bytes of a packed mask
        self.stride = steps + 1
        # A dict keeps at most four 24-byte entries and six index cells of
        # up to 4 bytes per key (CPython).
        size = (sys.getsizeof(bytes(self.nb + 8))
                + sys.getsizeof(starts * self.stride) + 4 * 24 + 6 * 4)
        self.cap = max(1, min(8 * _BLOCK_FLOATS // size, _BLOCK_FLOATS // (_BETA + p)))
        self.entries = {}
        self.ends = np.full((min(self.cap, starts), _BETA + p), -1.0)

    def keys(self, mask, sid):
        """The key of each row of ``mask`` on its slot, in an object array."""
        bits = np.zeros((len(mask), 8 * self.nb + 64), dtype=bool)
        bits[:, : mask.shape[1]] = mask
        key = np.packbits(bits.reshape(-1)).reshape(len(mask), -1)
        key[:, self.nb :] = sid[:, None].view(np.uint8)
        return np.array(key.view(f"V{self.nb + 8}").ravel().tolist(), dtype=object)

    def enter(self, keys, start, step):
        """New entries for ``keys``, their starts at C-steps ``step``,
        dropping the oldest beyond the cap."""
        self.entries.update(zip(keys, (start * self.stride + step).tolist()))
        old = list(itertools.islice(self.entries, max(0, len(self.entries) - self.cap)))
        list(map(self.entries.__delitem__, old))

    def finish(self, start, rec):
        """Keep the records of finished starts as their ends.  A record is
        written whole, so of two starts that share a ring cell in one call,
        one whole end stays."""
        self.ends[start % len(self.ends)] = rec

    def follow(self, keys, step, steps):
        """For rows about to refit the masks ``keys`` at C-step ``step``:
        (ent, merge, end), ``ent`` the start and C-step of each mask's
        entry, (-1, steps) for none.  A row merges when the entry's start
        has finished (an overwritten end is only a miss) and the row
        reaches the chain's end within ``steps`` C-steps; when the chain
        ran out of C-steps, only from the same C-step.  ``end`` is the
        chain's end record with the row's own C-step count."""
        got = map(self.entries.get, keys, itertools.repeat(-1))
        ent = np.divmod(np.fromiter(got, dtype=np.intp, count=len(keys)), self.stride)
        end = self.ends[ent[0] % len(self.ends)]
        end[:, _STEP] += step - ent[1]
        cut = (end[:, _END] == _ALIVE) & (end[:, _STOP] == 0)
        merge = (
            (ent[0] >= 0) & (end[:, _START] == ent[0])
            & (end[:, _STEP] <= steps) & (~cut | (step == ent[1]))
        )
        used = dict.fromkeys(keys[merge].tolist())
        self.entries.update(zip(used, map(self.entries.pop, used)))
        return ent, merge, end


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
            # A copy, so that the rows held for later passes do not keep
            # the (k, n) partition alive.
            u = stream.uniform(size=(k, data.n))
            return np.argpartition(u, data.p - 1, axis=1)[:, : data.p].copy()

        return draw

    slots = [(d, n_starts, elemental(d, s)) for d, s in zip(datas, seeds)]
    return _search(slots, trim.h, MAX_CSTEPS)


def _search(slots, h, steps):
    """The one driver of ``fit``, ``exact_enumerate``, ``c_step`` and the
    replication engine, over a stack of slots.

    Slot s is (data, total, draw): least squares on ``total`` row sets of
    ``data``, ``draw(k)`` giving the next k as a (k, size) index array,
    then up to ``steps`` C-steps from each.  Every slot has the same n and
    size.  The kernel runs on a block of up to ``_sizes(n)[0]`` rows, and
    each pass refits every row's mask (its row set for a new row, the rows
    it retains for a continuing one), scores every row with ``_retain``,
    and retires the rows that converged, died or reached ``steps``.  The
    survivors move up in order, and the next rows of the slot-major row
    source fill the block again, so the slot ids stay nondecreasing and a
    slot's rows stay in start order.  A row's arithmetic depends only on
    its own start, its slot's data and the fixed tile shape, so a slot's
    results depend neither on the block nor on the other slots.

    A continuing row converges exactly when its refit retains the mask it
    refit, and in exact arithmetic no start cycles.  Let a C-step refit
    mask M, retained at beta, to beta'.  The objective at beta' is at most
    M's residual sum at beta', which is at most M's at beta: the objective
    at beta.  If they are equal, beta minimizes M's residual sum too, and
    the pivot rule leaves M only a unique minimizer, so beta' = beta and
    the next mask is M again.  Otherwise the objective strictly decreases,
    and since a mask fixes the objective after its refit, no mask comes
    back.  ``MAX_CSTEPS`` only bounds the work if rounding breaks this.

    With C-steps and more row sets than the block holds, a row that joins
    a finished chain (``_Chains``) leaves with its end, as a finished row,
    or a rejected one when the chain died by the pivot rule.  Finished
    rows update their slot's running winner.

    Returns, per slot, the winner (objective, beta, iterations, converged,
    start index) of its first smallest objective, or None when every row
    set is degenerate; and per slot the number of row sets the pivot rule
    rejected, at the first fit or after a C-step.
    """
    n, p = slots[0][0].n, slots[0][0].p
    stack = _stack([data for data, _, _ in slots])
    ys, Ws = stack[:2]
    starts = sum(total for _, total, _ in slots)
    block = min(_sizes(n)[0], starts)
    # When the block holds every start, the starts walk their chains in
    # lockstep and rarely meet a finished one: the table is kept only when
    # the source refills the block.
    chains = _Chains(n, p, starts, steps) if steps and starts > block else None
    # Per slot, the running winner: objective, start index, C-steps,
    # converged and beta.
    won = np.full(len(slots), np.inf)
    at, iters = np.zeros((2, len(slots)), dtype=np.intp)
    conv_won = np.zeros(len(slots), dtype=bool)
    beta_won = np.empty((len(slots), p))
    rejected = np.zeros(len(slots), dtype=np.intp)
    # Per row of the block: mask to refit, slot, start index, start id, C-steps.
    mask = np.empty((block, n), dtype=bool)
    meta = np.empty((4, block), dtype=np.intp)
    sid, index, start, step = meta
    # Rows in the block, c of them continuing; rows drawn so far, the next
    # (slot, start) of the source and the row sets drawn ahead of it, a
    # block at a time.
    k, c, drawn, s, lo, ahead = 0, 0, 0, 0, 0, ()
    while True:
        while k < block and s < len(slots):
            _, total, draw = slots[s]
            if not len(ahead):
                ahead = draw(min(block, total - lo))
            m = min(block - k, len(ahead))
            mask[k : k + m] = False
            np.put_along_axis(mask[k : k + m], ahead[:m], True, axis=1)
            ahead = ahead[m:] if m < len(ahead) else ()
            sid[k : k + m], step[k : k + m] = s, 0
            index[k : k + m] = np.arange(lo, lo + m)
            start[k : k + m] = np.arange(drawn, drawn + m)
            k, lo, drawn = k + m, lo + m, drawn + m
            if lo == total:
                s, lo = s + 1, 0
        if not k:
            break
        spans = _spans(sid[:k])
        betas, ok = _refit(mask[:k], stack, spans)
        with np.errstate(invalid="ignore", over="ignore"):  # dead rows
            o_new, mask_new = _retain(ys, Ws, betas, h, spans)
        live = ok & np.isfinite(o_new)
        # A p-row elemental set never equals an h-row mask: h >= n/2 > p.
        conv = np.all(mask_new == mask[:k], axis=1)
        fin = conv | (step[:k] == steps)
        keep = live & ~fin
        if chains is not None:
            # Keep the ends of the rows that leave, look up the next mask of
            # every row that goes on, and enter those not found, but for a
            # start's first, as the masks their rows refit next.
            i = np.flatnonzero(~keep[:c])
            chains.finish(start[i], np.column_stack(
                (start[i], step[i], conv[i], o_new[i], 2 - ok[i] - live[i], betas[i])))
            on = np.flatnonzero(keep)
            key = chains.keys(mask_new, sid[:k])[on]
            ent, merge, end = chains.follow(key, step[on] + 1, steps)
            new = (ent[0] < 0) & (step[on] > 0)
            chains.enter(key[new], start[on[new]], step[on[new]] + 1)
            if merge.any():
                # The rows leave with the chains' ends as their own.
                i, end = on[merge], end[merge]
                end[:, _START] = start[i]
                chains.finish(start[i], end)
                o_new[i], step[i], betas[i] = end[:, _OBJ], end[:, _STEP], end[:, _BETA:]
                conv[i], ok[i] = end[:, _STOP] == 1, end[:, _END] != _REJECTED
                live[i], fin[i], keep[i] = end[:, _END] == _ALIVE, True, False
        if not ok.all():
            rejected += np.bincount(sid[:k][~ok], minlength=len(slots))
        # The running winner of each slot, on (objective, start index).
        i = np.nonzero(fin & live)[0]
        if i.size:
            t, o = sid[i], o_new[i]
            better = (o < won[t]) | ((o == won[t]) & (index[i] < at[t]))
            if better.any():
                i = i[better]
                i = i[np.lexsort((index[i], o_new[i], sid[i]))]
                lead = np.ones(i.size, dtype=bool)
                lead[1:] = sid[i[1:]] != sid[i[:-1]]
                i = i[lead]
                t = sid[i]
                won[t], at[t], iters[t], conv_won[t] = o_new[i], index[i], step[i], conv[i]
                beta_won[t] = betas[i]
        k = c = int(np.count_nonzero(keep))
        np.compress(keep, mask_new, axis=0, out=mask[:k])
        meta[:, :k] = meta[:, : keep.size][:, keep]
        step[:k] += 1
    best = [
        None if won[t] == np.inf
        else (won[t], beta_won[t].copy(), int(iters[t]), bool(conv_won[t]), int(at[t]))
        for t in range(len(slots))
    ]
    return best, rejected
