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

Because a row's refit and retention depend only on its mask and its slot,
starts that reach one mask walk one chain of masks from there on, and
many do: the C-step falls into one of a few fixed points.  When the
starts outnumber its block, ``_search`` keeps a table of the masks its
continuing rows refit and of the outcomes of finished starts
(``_Chains``), and a start whose next mask a finished start already
refit takes that start's outcome instead of refitting: objective, beta
and converged, with its own C-step count.  Three checks keep this exact.
The start's own convergence test at the mask, on its own previous
objective, must agree with the other start's there; it must end within
the C-step cap; and a chain cut unconverged at the cap is joined only at
the same C-step.  A chain that died by the pivot rule
adds one rejection to the joining start's slot.  Each slot keeps its
winner as it goes, on (objective, start index).

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
from .numerics import (
    _BLOCK_FLOATS, _sizes, _tiled_matmul, make_stream, spd_solve_batch
)

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

# Columns of the records the chain table keeps of a row of ``_search``,
# one float row each: its start (a running id over the slots), C-step,
# whether the refit kept the mask, whether the row passed the convergence
# test, objective, how it ended, and beta.
_START, _STEP, _SAME, _STOP, _OBJ, _END, _BETA = range(7)
# How a row ended: alive, or dead because its objective overflowed or the
# pivot rule rejected its refit (2 - ok - live).
_ALIVE, _OVERFLOWED, _REJECTED = 0, 1, 2


class _Chains:
    """The C-step chains of one ``_search`` call, shared between its starts.

    An entry is a continuing row's mask, keyed by the packed mask with the
    slot as one more word, and holds the first columns of the row's record:
    where its start stood in its chain.  When a start finishes, its whole
    record is kept as its end.  A start's first retention mask comes from
    its own random elemental fit and is not entered: other starts almost
    never reach it.

    The keys fill a ring of at most 8 * _BLOCK_FLOATS bytes, the oldest
    overwritten first, found through a direct-mapped index on a
    multiplicative hash of the key; ends sit in a ring by start.  At small
    n, where a key is shorter than its records, the records set the ring's
    length instead, so the table never takes more than two blocks.  A lookup compares the key word
    for word and the end's start, so a stale index cell, a hash collision
    or an overwritten end is only a miss.
    """

    def __init__(self, n, p, starts):
        self.nb = -(-n // 8)  # bytes of a packed mask
        words = -(-self.nb // 8) + 1  # its words, then the slot
        # Keys take at most one block's bytes, and so do the records that
        # go with them: an entry, an end and up to eight int32 index cells.
        cap = max(1, _BLOCK_FLOATS // max(words, _END + _BETA + p + 4))
        bits = (4 * cap - 1).bit_length()
        self.shift = np.uint64(64 - bits)
        # Odd multipliers, one per word, from the golden-ratio sequence.
        self.mult = np.arange(1, words + 1, dtype=np.uint64) * np.uint64(
            0x9E3779B97F4A7C15) | np.uint64(1)
        # Index cells start at entry ``cap``, whose key no mask has: its
        # slot word is all ones.
        self.index = np.full(1 << bits, cap, dtype=np.int32)
        self.key = np.empty((cap + 1, words), dtype=np.uint64)
        self.key[cap] = ~np.uint64(0)
        self.entry = np.empty((cap, _END))
        self.head = 0
        self.ends = np.full((min(cap, starts), _BETA + p), -1.0)

    def pack(self, mask, sid):
        """(key, index cell) of each row of ``mask`` on its slot."""
        key = np.zeros((mask.shape[0], self.key.shape[1]), dtype=np.uint64)
        key.view(np.uint8)[:, : self.nb] = np.packbits(mask, axis=1)
        key[:, -1] = sid
        return key, ((key @ self.mult) >> self.shift).astype(np.intp)

    def find(self, key, cell):
        """(entry, whether it holds the key) of each key."""
        e = self.index[cell]
        return e, np.all(self.key[e] == key, axis=1)

    def enter(self, key, cell, rec):
        """New entries for the rows of records ``rec``, in place of the
        oldest."""
        if self.head + cell.size > len(self.entry):
            self.head = 0
        at = slice(self.head, self.head + cell.size)
        self.key[at], self.entry[at] = key, rec[:, :_END]
        self.index[cell] = np.arange(at.start, at.stop)
        self.head = at.stop

    def finish(self, start, rec):
        """Keep the records of finished starts as their ends.  A record is
        written whole, so of two starts that share a ring cell in one call,
        one whole end stays."""
        self.ends[start % len(self.ends)] = rec

    def follow(self, e, obj, step, steps):
        """For rows about to refit entry ``e``'s mask at C-step ``step``,
        having reached objective ``obj``: (merge, end).  A row merges when
        the entry's start has finished, the row's own convergence test at
        the mask agrees with the start's, and the row reaches the chain's
        end within ``steps`` C-steps; when the chain ran out of C-steps,
        only from the same C-step.  ``end`` is the chain's end record with
        the row's own C-step count."""
        ent = self.entry[e]
        end = self.ends[ent[:, _START].astype(np.intp) % len(self.ends)]
        end[:, _STEP] += step - ent[:, _STEP]
        # The row's test is same | small, and the start's stop: they agree
        # when the refit kept the mask or small equals stop.
        small = (obj - ent[:, _OBJ]) <= TOL_OBJECTIVE * (obj + _TINY)
        cut = (end[:, _END] == _ALIVE) & (end[:, _STOP] == 0)
        merge = (
            (end[:, _START] == ent[:, _START])
            & ((ent[:, _SAME] == 1) | (small == ent[:, _STOP]))
            & (end[:, _STEP] <= steps) & (~cut | (step == ent[:, _STEP]))
        )
        return merge, end


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

    With C-steps and more row sets than the block holds, each pass also
    keeps the records of the rows that leave in the chain table, enters
    the masks the continuing rows refit, and looks up every row's next
    mask.  A row whose next mask belongs to a finished chain, and which
    passes ``_Chains.follow``'s three checks (convergence test, step cap,
    cut chains), leaves with that chain's record; it then counts as a
    finished row, or as a rejected one when the chain died by the pivot
    rule.  Finished rows update their slot's running winner.

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
    chains = _Chains(n, p, starts) if steps and starts > block else None
    # Per slot, the running winner: objective, start index, C-steps,
    # converged and beta.
    won = np.full(len(slots), np.inf)
    at, iters = np.zeros((2, len(slots)), dtype=np.intp)
    conv_won = np.zeros(len(slots), dtype=bool)
    beta_won = np.empty((len(slots), p))
    rejected = np.zeros(len(slots), dtype=np.intp)
    # Per row of the block: the mask to refit, slot, start index, start id,
    # C-steps taken, the index cell of the mask's key and whether the mask
    # is to be entered (not in the table, and not a start's first), the
    # objective before this pass, and the key.
    mask = np.empty((block, n), dtype=bool)
    meta = np.empty((6, block), dtype=np.intp)
    sid, index, start, step, cell, unseen = meta
    obj = np.empty(block)
    if chains is not None:
        keys = np.empty((block, chains.key.shape[1]), dtype=np.uint64)
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
            conv = np.zeros(k, dtype=bool)
            if c:  # the rows that took a C-step, ahead of the new ones
                same = np.all(mask_new[:c] == mask[:c], axis=1)
                small = (obj[:c] - o_new[:c]) <= TOL_OBJECTIVE * (obj[:c] + _TINY)
                conv[:c] = same | small
            fin = conv | (step[:k] == steps)
        keep = live & ~fin
        if chains is not None:
            # Keep the ends of the rows that leave, enter the masks the
            # others refit, then look up every row's next mask.
            if c:
                rec = np.empty((c, _BETA + p))
                rec[:, _START], rec[:, _STEP], rec[:, _SAME] = start[:c], step[:c], same
                rec[:, _STOP], rec[:, _OBJ] = conv[:c], o_new[:c]
                rec[:, _END], rec[:, _BETA:] = 2 - ok[:c] - live[:c], betas[:c]
                i = np.flatnonzero(~keep[:c])
                chains.finish(start[i], rec[i])
                i = np.flatnonzero(live[:c] & (unseen[:c] == 1))
                chains.enter(keys[i], cell[i], rec[i])
            key, cell[:k] = chains.pack(mask_new, sid[:k])
            e, hit = chains.find(key, cell[:k])
            unseen[:k] = ~hit & (step[:k] > 0)
            on = np.flatnonzero(keep & hit)
            if on.size:
                merge, end = chains.follow(e[on], o_new[on], step[on] + 1, steps)
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
        np.compress(keep, o_new, out=obj[:k])
        if chains is not None:
            np.compress(keep, key, axis=0, out=keys[:k])
        meta[:, :k] = meta[:, : keep.size][:, keep]
        step[:k] += 1
    best = [
        None if won[t] == np.inf
        else (won[t], beta_won[t].copy(), int(iters[t]), bool(conv_won[t]), int(at[t]))
        for t in range(len(slots))
    ]
    return best, rejected
