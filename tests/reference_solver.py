"""Loop references for the concentration kernel and the replication
engine.

The solver fits every start and every enumerated subset through one
batched mask-GEMM kernel.  The first functions here are the per-subset
versions it replaced: a row gather, a LAPACK Cholesky solve with the same
relative pivot rule, and the model's objective, one subset at a time.

The kernel's driver, ``solver._search``, keeps its block full: a row that
finishes hands its place to the next row set.  The ``block_*`` functions
are the driver it replaced, which cut the row sets into fixed blocks and
ran each block until its slowest start had finished; tests require equal
bits from both, with ``block_search`` in place of ``solver._search``.

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
from trimreg.model import _retain
from trimreg.numerics import PIVOT_RTOL, _sizes, _tiled_matmul, spd_solve_batch
from trimreg.simulate import MAX_REDRAWS
from trimreg.solver import TOL_OBJECTIVE, _TINY, _spans, _stack


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


def block_refit(mask, stack, sid):
    """Least squares on each mask's rows, row i on slot ``sid[i]``, with
    the carrier centers gathered per row."""
    _, _, Fs, C = stack
    k, n = mask.shape
    p = C.shape[1]
    tile = _sizes(n)[1]
    aug = np.empty((k, p * (p + 1)))
    for s, lo, hi in _spans(sid):
        aug[lo:hi] = _tiled_matmul(mask[lo:hi], Fs[s], tile)
    x, ok = spd_solve_batch(aug.reshape(k, p, p + 1))
    beta, c = x[:, :, 0], C[sid]
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(1, p):
            beta[:, 0] -= c[:, j] * beta[:, j]
    return beta, ok


def block_pieces(totals, block):
    """Pieces (slot, lo, k) of rows lo to lo + k of a slot, grouped into
    blocks of ``block`` rows in slot-major order."""
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


def block_search(slots, h, steps):
    """``solver._search`` one fixed block at a time: (winners, rejected)."""
    n = slots[0][0].n
    stack = _stack([data for data, _, _ in slots])
    block = _sizes(n)[0]
    best = [None] * len(slots)
    rejected = np.zeros(len(slots), dtype=np.intp)
    for pieces in block_pieces([total for _, total, _ in slots], block):
        rows = np.concatenate([slots[s][2](k) for s, _, k in pieces])
        sid = np.repeat([s for s, _, _ in pieces], [k for _, _, k in pieces])
        mask = np.zeros((rows.shape[0], n), dtype=bool)
        np.put_along_axis(mask, rows, True, axis=1)
        betas, ok = block_refit(mask, stack, sid)
        betas, objs, iters, conv, dead = block_concentrate(
            stack, h, steps, betas, ok, sid
        )
        rejected += np.bincount(sid[dead], minlength=len(slots))
        a = 0
        for s, lo, k in pieces:
            i = a + int(np.argmin(objs[a : a + k]))
            if objs[i] < (np.inf if best[s] is None else best[s][0]):
                best[s] = (objs[i], betas[i].copy(), iters[i], conv[i], lo + i - a)
            a += k
    return best, rejected


def block_concentrate(stack, h, steps, betas, ok, sid):
    """Score a block of starts, then run up to ``steps`` C-steps on each
    until it converges or dies: (betas, objs, iters, conv, rejected)."""
    ys, Ws = stack[:2]
    k = betas.shape[0]
    objs = np.full(k, np.inf)
    iters = np.zeros(k, dtype=np.intp)
    conv = np.zeros(k, dtype=bool)
    rejected = np.zeros(k, dtype=bool)
    act, new_beta = np.arange(k), betas
    for step in range(steps + 1):
        with np.errstate(invalid="ignore", over="ignore"):
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
        new_beta, ok = block_refit(mask, stack, sid[act])
    return betas, objs, iters, conv, rejected


def block_c_step(data, beta, trim):
    """One concentration step as one start of ``block_concentrate``:
    (beta_next, objective_next), or SingularMatrix."""
    one = np.zeros(1, dtype=np.intp)
    betas, objs, _, _, _ = block_concentrate(
        _stack([data]), trim.h, 1, np.array(beta, dtype=np.float64)[None],
        np.ones(1, bool), one,
    )
    if not np.isfinite(objs[0]):
        raise SingularMatrix("retained rows are rank-deficient")
    return betas[0], float(objs[0])
