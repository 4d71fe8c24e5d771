"""Numeric kernel: symmetric solves, fixed-shape tiled products,
normal/chi-square special functions, and seedable random streams.

Everything here is deterministic given its inputs. The special functions
are thin validated wrappers over scipy.special, imported on their first
call, so importing this module loads numpy only.  The symmetric solver is
Gaussian elimination without row exchanges, batched over a stack of
systems; on a symmetric positive-definite matrix its pivots are the
squared Cholesky pivots, and one relative pivot rule (see PIVOT_RTOL) makes
rank-deficient systems fail loudly instead of returning garbage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError, SingularMatrix

# A Matrix is a plain 2-D float64 ndarray (row-major); no wrapper class.
Matrix = np.ndarray

# The one rank test of every symmetric solve: a pivot below PIVOT_RTOL times
# its own diagonal entry, the floor applied to D a D with D = diag(a)**-1/2,
# is rank deficiency, whatever the units of the unknowns.
PIVOT_RTOL = 1e-12

# Fixed multiplier spreading derived stream ids across the 64-bit id space
# so children of adjacent parents cannot collide with each other or with
# small user-chosen ids.
_DERIVE_MULT = 0x9E3779B97F4A7C15
_U64 = 1 << 64

# Budget, in floats, of every (starts x n) array: starts and enumerated
# subsets are processed in blocks of about _BLOCK_FLOATS // n (see _sizes).
_BLOCK_FLOATS = 2**16

# Most rows per BLAS call of the kernel (see _tiled_matmul).
_TILE = 32

# glibc returns the top of the heap to the system whenever more than its trim
# threshold is free there, and raises that threshold to twice the largest
# mmap-served allocation freed so far.  The kernel frees and reallocates its
# block arrays on every C-step, so at the start threshold each step
# page-faults them in anew (72 000 minor faults per 500-start fit at
# n = 5000, against none).  Allocating and freeing one array of eight blocks
# at import lifts the threshold above the kernel's working set.
np.empty(8 * _BLOCK_FLOATS)


def spd_solve(a: Matrix, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive-definite ``a``.

    The single-system case of ``spd_solve_batch``, with validation: raises
    SingularMatrix when its pivot rule rejects ``a``, and, with a message
    naming overflow, when every pivot passes but the solution is not finite.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"rhs length {b.shape[0]} != matrix order {a.shape[0]}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("spd_solve requires finite entries")
    scale = np.max(np.abs(a)) or 1.0
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-8 * scale):
        raise DimensionMismatch("matrix is not symmetric")
    aug = np.concatenate((0.5 * (a + a.T), b.reshape(a.shape[0], -1)), axis=1)
    x, ok = spd_solve_batch(aug[None])
    if not ok[0]:
        pivots = np.diagonal(aug)  # the elimination leaves them there
        if np.all((pivots > 0.0) & (pivots >= PIVOT_RTOL * np.diagonal(a))):
            raise SingularMatrix("every pivot passes the rank test, but the "
                                 "solution overflows: it is not finite")
        raise SingularMatrix(
            f"a pivot is below {PIVOT_RTOL:g} times its diagonal entry: the "
            "matrix is singular or not positive definite"
        )
    return x[0].reshape(b.shape)


def spd_solve_batch(aug: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``a[i] @ x[i] = b[i]`` for a stack of symmetric positive-definite
    systems given as augmented matrices ``aug = [a | b]`` (k, p, p + m).

    Eliminates on ``aug`` in place, without row exchanges, and returns
    ``(x, ok)`` with ``x`` (k, p, m) a view of ``aug``.  ``ok[i]`` is False,
    instead of raising, where system i has a non-positive pivot, a pivot
    below ``PIVOT_RTOL`` times the matching diagonal entry of ``a[i]``, or
    a non-finite solution; ``x[i]`` is then meaningless.  The pivots are
    left on the diagonal of ``aug``.  Inputs are not validated.
    """
    k, p = aug.shape[:2]
    floor = PIVOT_RTOL * np.diagonal(aug, axis1=1, axis2=2)
    pivots = np.empty((k, p))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(p):
            pivots[:, j] = aug[:, j, j]
            factor = aug[:, j + 1 :, j] / pivots[:, j, None]
            aug[:, j + 1 :, j:] -= factor[:, :, None] * aug[:, None, j, j:]
        x = aug[:, :, p:]
        for j in range(p - 1, -1, -1):
            for i in range(j + 1, p):
                x[:, j] -= aug[:, j, i, None] * x[:, i]
            x[:, j] /= pivots[:, j, None]
    ok = (
        np.all((pivots > 0.0) & (pivots >= floor), axis=1)
        & np.all(np.isfinite(x), axis=(1, 2))
    )
    return x, ok


def _sizes(n: int) -> tuple[int, int]:
    """(block, tile) for data of n rows: starts per block, a multiple of
    the tile, and rows per BLAS call, both within the float budget."""
    cap = max(1, _BLOCK_FLOATS // n)
    tile = min(_TILE, cap)
    return cap // tile * tile, tile


def _tiled_matmul(a: np.ndarray, b: np.ndarray, tile: int, out=None) -> np.ndarray:
    """``a @ b`` as float64, in BLAS calls of exactly ``tile`` rows.

    The kernel BLAS picks, and with it the rounding, depends on the
    operands' shape; at one fixed shape each output row is a function of
    its own row of ``a`` only.  ``out`` needs room for k rows rounded up
    to whole tiles.
    """
    k = a.shape[0]
    if out is None:
        out = np.empty((-(-k // tile) * tile, b.shape[1]))
    rows = np.zeros((tile, a.shape[1]))
    for lo in range(0, k, tile):
        m = min(tile, k - lo)
        rows[:m] = a[lo : lo + m]
        rows[m:] = 0.0
        np.matmul(rows, b, out=out[lo : lo + tile])
    return out[:k]


def normal_cdf(x):
    """Standard normal CDF Phi(x); accepts scalars or arrays."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise DomainError("normal_cdf requires finite input")
    from scipy import special
    out = special.ndtr(x)
    return float(out) if out.ndim == 0 else out


def normal_pdf(x):
    """Standard normal density phi(x)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return float(out) if out.ndim == 0 else out


def normal_quantile(p):
    """Inverse of the standard normal CDF; requires 0 < p < 1."""
    p = np.asarray(p, dtype=np.float64)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise DomainError("normal_quantile requires 0 < p < 1")
    from scipy import special
    out = special.ndtri(p)
    return float(out) if out.ndim == 0 else out


def chi2_quantile(df: int, p: float) -> float:
    """Quantile of the chi-square distribution with integer df >= 1.

    Accepts 0 <= p < 1 and returns 0 at p = 0.  Satisfies the one-degree
    identity chi2_quantile(1, p) == normal_quantile((1+p)/2)**2.
    """
    if int(df) != df or df < 1:
        raise DomainError(f"df must be a positive integer, got {df!r}")
    if not 0.0 <= p < 1.0:
        raise DomainError(f"p must be in [0, 1), got {p!r}")
    if p == 0.0:
        return 0.0
    from scipy import special
    return float(2.0 * special.gammaincinv(0.5 * df, p))


@dataclass
class RandomStream:
    """Reproducible random source keyed by (seed, stream_id).

    Identical keys reproduce the identical draw sequence; distinct
    stream ids give statistically independent sequences (PCG64 seeded
    through a SeedSequence over both integers).  Streams are single-owner:
    hand each worker its own instance.
    """

    seed: int
    stream_id: int = 0
    _rng: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ss = np.random.SeedSequence(
            entropy=self.seed % _U64, spawn_key=(self.stream_id % _U64,)
        )
        self._rng = np.random.Generator(np.random.PCG64(ss))

    def uniform(self, size=None, low: float = 0.0, high: float = 1.0):
        return self._rng.uniform(low, high, size=size)

    def normal(self, size=None):
        return self._rng.standard_normal(size=size)

    def integers(self, low, high=None, size=None):
        return self._rng.integers(low, high, size=size)

    def child(self, index: int) -> "RandomStream":
        """Derived stream for worker ``index``; reproducible from its own
        (seed, stream_id) pair via make_stream."""
        return RandomStream(self.seed, derive_stream_id(self.stream_id, index))


def derive_stream_id(parent_id: int, index: int) -> int:
    """Stream id of the ``index``-th child of ``parent_id`` (collision-spread
    across the 64-bit id space)."""
    return (parent_id * _DERIVE_MULT + 1 + index) % _U64


def make_stream(seed: int, stream_id: int = 0) -> RandomStream:
    """Create a reproducible RandomStream for the given key."""
    return RandomStream(seed, stream_id)
