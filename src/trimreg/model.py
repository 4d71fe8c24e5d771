"""Regression data model and the trimmed-squares objective.

The objective at a coefficient vector ``beta`` keeps only the h smallest
squared residuals out of n, with h = floor(alpha*n) + 1 for a trimming
level alpha in [1/2, 1).  Fixing which h observations are kept makes the
objective an ordinary least-squares quadratic in beta; the coefficient
space is partitioned into finitely many such pieces, glued continuously.
This module identifies the active h-subset, evaluates the objective, and
exposes the piecewise-quadratic local geometry (gradient and Hessian on
the interior of a piece, plus a sampling probe for piece membership).
One trimming routine, ``_retain`` (a tiled residual product for a block of
betas, one per slot when the block stacks several datasets, then one
selection at rank h), serves them and ``solver``'s kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, OnPieceBoundary
from .numerics import Matrix, RandomStream, _sizes, _tiled_matmul, make_stream

# Relative gap below which the ranks h and h+1 are considered tied, i.e.
# beta sits (numerically) on a piece boundary.
BOUNDARY_RTOL = 1e-12

# Largest trimming level accepted.
ALPHA_MAX = 0.95


@dataclass(frozen=True)
class Dataset:
    """Response vector and design matrix with a prepended intercept column.

    ``W`` has rows (1, x_i'); the model is y_i = W[i] @ beta + e_i.
    Requires n > 2p and finite values throughout.  Arrays are copied and
    frozen at construction, so instances are safe to share across workers.
    """

    y: np.ndarray
    W: Matrix

    def __post_init__(self):
        y = np.array(self.y, dtype=np.float64)
        W = np.array(self.W, dtype=np.float64, order="C")
        if y.ndim != 1 or W.ndim != 2 or W.shape[0] != y.shape[0]:
            raise DimensionMismatch(
                f"incompatible shapes y{y.shape} and W{W.shape}"
            )
        n, p = W.shape
        if p < 2:
            raise DomainError("design must have an intercept plus >= 1 carrier")
        if n <= 2 * p:
            raise DomainError(f"need n > 2p, got n={n}, p={p}")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(W))):
            raise DomainError("dataset values must be finite")
        if not np.all(W[:, 0] == 1.0):
            raise DomainError("first design column must be identically 1")
        y.setflags(write=False)
        W.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "W", W)

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @property
    def p(self) -> int:
        return self.W.shape[1]

    @classmethod
    def from_xy(cls, x, y) -> "Dataset":
        """Build a Dataset from raw carriers ``x`` (n,) or (n, p-1),
        prepending the intercept column."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        W = np.hstack([np.ones((x.shape[0], 1)), x])
        return cls(y=np.asarray(y, dtype=np.float64), W=W)


@dataclass(frozen=True)
class TrimSpec:
    """Trimming level alpha and the derived subset size h = floor(alpha*n)+1.

    alpha is capped at ALPHA_MAX < 1: full least squares (alpha = 1) is
    excluded because the trimming quantile becomes unbounded there.
    """

    alpha: float
    h: int

    def __post_init__(self):
        if not 0.5 <= self.alpha <= ALPHA_MAX:
            raise DomainError(f"alpha={self.alpha} outside [0.5, {ALPHA_MAX}]")
        if self.h < 1:
            raise DomainError(f"h must be positive, got {self.h}")

    @classmethod
    def for_size(cls, n: int, alpha: float) -> "TrimSpec":
        # The 1e-9 nudge keeps floor() faithful to the decimal the caller
        # wrote (0.7 * 10 in binary is just below 7).
        h = int(math.floor(alpha * n + 1e-9)) + 1
        spec = cls(alpha=alpha, h=h)
        _check_trim(spec, n)
        return spec


def _check_trim(trim: TrimSpec, n: int) -> None:
    if not math.ceil(n / 2) <= trim.h < n:
        raise DomainError(
            f"h={trim.h} must satisfy ceil(n/2) <= h < n for n={n}"
        )


@dataclass(frozen=True)
class HSubset:
    """Indices of the h smallest squared residuals at some beta.

    ``indices`` is ordered by nondecreasing squared residual, ties broken
    by the smaller row index.  ``boundary_flag`` is set when the gap
    between ranks h and h+1 is within BOUNDARY_RTOL, i.e. beta lies on
    (or numerically at) a boundary between two trimming pieces.
    """

    indices: np.ndarray
    boundary_flag: bool

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def same_members(self, other: "HSubset") -> bool:
        return np.array_equal(np.sort(self.indices), np.sort(other.indices))


@dataclass(frozen=True)
class LocalQuadratic:
    """Gradient and Hessian of the objective on the interior of a piece.

    With the active subset frozen, the objective is the quadratic
    (1/n) * sum of squared residuals over the subset, so

        gradient = -(2/n) * sum_{i in subset} r_i w_i
        hessian  =  (2/n) * sum_{i in subset} w_i w_i'

    The Hessian is symmetric positive definite whenever the active rows
    have full rank.
    """

    gradient: np.ndarray
    hessian: Matrix
    subset: HSubset


def residuals(data: Dataset, beta) -> np.ndarray:
    """r_i = y_i - W[i] @ beta, the single-row case of ``_residuals``."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (data.p,):
        raise DimensionMismatch(
            f"beta has shape {beta.shape}, expected ({data.p},)"
        )
    # A copy: the row is a view of a whole tile of the product.
    return _residuals(data.y, data.W, beta[None])[0].copy()


def h_subset(data: Dataset, beta, trim: TrimSpec) -> HSubset:
    """Identify the h rows with smallest squared residuals at ``beta``.

    The rows of ``_select``'s mask, ordered by (r^2, index); the boundary
    flag reports whether the gap from the h-th r^2 to the smallest
    unretained one is within tolerance (in which case the subset identity
    is not stable under perturbations of beta).
    """
    return _subset(residuals(data, beta), trim)


def _subset(r: np.ndarray, trim: TrimSpec) -> HSubset:
    """``h_subset`` from the residuals r (n,) at beta."""
    _check_trim(trim, r.size)
    r2 = r**2
    keep = _select(r2[None], trim.h)[1][0]
    idx = np.flatnonzero(keep)
    idx = idx[np.argsort(r2[idx], kind="stable")]
    rank_h, rank_h1 = r2[idx[-1]], r2[~keep].min()
    boundary = bool(rank_h1 - rank_h <= BOUNDARY_RTOL * (1.0 + rank_h))
    return HSubset(indices=idx, boundary_flag=boundary)


def objective(data: Dataset, beta, trim: TrimSpec) -> float:
    """Mean of the h smallest squared residuals: (1/n) * sum_{i<=h} r^2_(i)."""
    _check_trim(trim, data.n)
    return float(_select(residuals(data, beta)[None] ** 2, trim.h)[0][0])


def local_quadratic(data: Dataset, beta, trim: TrimSpec) -> LocalQuadratic:
    """Exact gradient and Hessian of the objective at an interior ``beta``.

    Raises OnPieceBoundary when the rank-h gap is within tolerance: there
    the active subset changes under arbitrarily small perturbations and
    the gradient is not defined across the adjoining pieces.
    """
    subset, g, moment = _retained_products(data, beta, trim)
    if subset.boundary_flag:
        raise OnPieceBoundary(
            "beta sits on a trimming-piece boundary; gradient undefined"
        )
    # 2 * moment, so that hessian / 2 is the plug-in second-moment estimate
    # bit for bit.
    return LocalQuadratic(
        gradient=-(2.0 / data.n) * g, hessian=2.0 * moment, subset=subset
    )


def _retained_products(data: Dataset, beta, trim: TrimSpec):
    """(subset, W_S' r_S, W_S' W_S / n) over the rows S retained at beta.

    W_S' r_S is the normal-equation residual that
    ``solver.check_stationarity`` measures, -n/2 times the gradient;
    W_S' W_S / n is the plug-in trimmed second moment, half the Hessian.
    """
    r = residuals(data, beta)
    subset = _subset(r, trim)
    Ws = data.W[subset.indices]
    return subset, Ws.T @ r[subset.indices], (Ws.T @ Ws) / data.n


def piece_check(
    data: Dataset,
    beta,
    trim: TrimSpec,
    delta: float,
    trials: int,
    stream: RandomStream | None = None,
) -> bool:
    """Probe whether the open ball B(beta, delta) stays inside one piece.

    Draws ``trials`` points uniformly from the ball and returns True iff
    every one of them yields the same h-subset membership as ``beta``.
    This is a sampling probe, not an exact membership test: True at small
    delta is consistent with (not proof of) interiority.  trials = 0 is
    vacuously True.
    """
    if delta < 0:
        raise DomainError("delta must be nonnegative")
    if stream is None:
        stream = make_stream(0, 0)
    beta = np.asarray(beta, dtype=np.float64)
    base = np.zeros((1, data.n), dtype=bool)
    base[0, h_subset(data, beta, trim).indices] = True
    p = data.p
    for _ in range(trials):
        direction = stream.normal(size=p)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            continue
        radius = delta * stream.uniform() ** (1.0 / p)
        probe = beta + (radius / norm) * direction
        if not np.array_equal(_retain(data.y, data.W, probe[None], trim.h)[1], base):
            return False
    return True


def _residuals(y: np.ndarray, W: Matrix, betas: np.ndarray) -> np.ndarray:
    """Residuals (k, n) at each row of ``betas`` (k, p); a row's rounding
    depends on n only (see ``_tiled_matmul``), not on its block."""
    r = _tiled_matmul(betas, W.T, _sizes(y.shape[0])[1])
    return np.subtract(y, r, out=r)


def _retain(y, W, betas: np.ndarray, h: int, spans=None):
    """(objective (k,), retention mask (k, n)) at each row of ``betas``.

    With ``spans``, (slot, lo, hi) triples, ``y`` and ``W`` index a stack
    of slots of n rows each, and rows lo:hi of ``betas`` are on the data
    (y[slot], W[slot]): one tiled residual product per span, then one
    selection at rank h over every row.
    """
    if spans is None:
        spans, y, W = [(0, 0, betas.shape[0])], [y], [W]
    if len(spans) == 1:
        r = _residuals(y[spans[0][0]], W[spans[0][0]], betas)
    else:
        n = y[0].shape[0]
        r, tile = np.empty((betas.shape[0], n)), _sizes(n)[1]
        for s, lo, hi in spans:
            np.subtract(y[s], _tiled_matmul(betas[lo:hi], W[s].T, tile), out=r[lo:hi])
    return _select(np.multiply(r, r, out=r), h)


def _select(r2: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Objective (sum of the h smallest over n) and retention mask of
    each row of ``r2`` (k, n); exact ties at rank h keep the smallest
    row indices."""
    n = r2.shape[1]
    part = np.partition(r2, h - 1, axis=1)
    objs = part[:, :h].sum(axis=1) / n
    kth = part[:, h - 1 : h].copy()
    del part
    mask = r2 <= kth
    over = np.flatnonzero(np.count_nonzero(mask, axis=1) > h)
    if over.size:
        rows, cut = r2[over], kth[over]
        below, tied = rows < cut, rows == cut
        room = h - np.count_nonzero(below, axis=1)
        mask[over] = below | (tied & (np.cumsum(tied, axis=1) <= room[:, None]))
    return objs, mask
