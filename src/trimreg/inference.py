"""Confidence regions for the regression coefficients.

Two constructions:

* ``ci_normal_ball`` — a Euclidean ball around the fitted coefficients
  sized from the Gaussian limit law.  The "corrected" mode (default)
  uses radius sqrt(cov_factor/n * chi2_quantile(p, 1-gamma)), the ball
  implied by the chi-square law of the scaled squared error; the
  "paper-literal" mode preserves the alternative printed convention
  sqrt(cov_factor/n) * chi2_quantile(p, gamma).  Both are kept because
  the two disagree and coverage should be measured for each.
* ``ci_depth_region`` — distribution-free: bootstrap the fit m times
  (``bootstrap_fits``, a call to the replication engine that also runs
  the Monte Carlo studies, with the same redraw rule; it fits the
  resamples in lockstep, each bit for bit as its own ``fit``), rank the
  coefficient cloud by (approximate) halfspace depth, trim the
  floor(gamma*m) least deep points, and keep the rest.  A cloud point's
  depth along one direction is min(#<=, #>=) of its projection, counted
  in numpy from a stable sort of each direction's projections and the
  first and last sorted position of each tie group.  Membership of an
  arbitrary point is "its depth against the cloud reaches the smallest
  retained depth", evaluated with the same direction set used to rank
  the cloud.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import Dataset, TrimSpec
from .numerics import RandomStream, chi2_quantile, make_stream
from .population import AsymptoticConstants
from .simulate import STUDY_STARTS, _replicate_fits
from .solver import LtsFit, SolverConfig, fit  # noqa: F401 (perfbench reads inference.fit)

# Directions per coefficient dimension for approximate halfspace depth.
DIRECTIONS_PER_DIM = 1000

# Fewest cloud points a depth region is ranked from.
MIN_CLOUD = 10


@dataclass(frozen=True)
class NormalBallRegion:
    """Euclidean ball membership region; boundary points are members."""

    center: np.ndarray
    radius: float
    gamma: float
    mode: str

    def contains(self, beta) -> bool:
        beta = np.asarray(beta, dtype=np.float64)
        return bool(np.linalg.norm(beta - self.center) <= self.radius)

    def to_json_dict(self) -> dict:
        return {
            "type": "normal_ball",
            "center": [float(v) for v in self.center],
            "radius": float(self.radius),
            "gamma": float(self.gamma),
            "mode": self.mode,
        }


@dataclass(frozen=True)
class DepthRegion:
    """Bootstrap coefficient cloud trimmed by halfspace depth.

    ``retained`` indexes the cloud rows kept after trimming the
    floor(gamma*m) least deep points (depth ties broken toward trimming
    the smaller index).  ``threshold`` is the smallest retained depth;
    membership of any point is depth >= threshold under the stored
    direction set, which is regenerated from ``direction_seed`` so
    queries are deterministic and consistent with the cloud ranking.
    """

    cloud: np.ndarray
    depths: np.ndarray
    threshold: float
    retained: np.ndarray
    gamma: float
    n_directions: int
    direction_seed: tuple[int, int]

    def contains(self, beta) -> bool:
        stream = make_stream(*self.direction_seed)
        d = depth(beta, self.cloud, self.n_directions, stream)
        return bool(d >= self.threshold)

    def to_json_dict(self) -> dict:
        return {
            "type": "depth_region",
            "gamma": float(self.gamma),
            "threshold": float(self.threshold),
            "n_directions": int(self.n_directions),
            "direction_seed": [int(v) for v in self.direction_seed],
            "cloud": [[float(v) for v in row] for row in self.cloud],
            "depths": [float(v) for v in self.depths],
            "retained": [int(v) for v in self.retained],
            "hull": self._hull_vertices(),
        }

    def _hull_vertices(self):
        """Convex hull of the retained points, for plotting; only emitted
        in low dimension (p <= 3)."""
        pts = self.cloud[self.retained]
        p = pts.shape[1]
        if p > 3:
            return None
        if p == 1:
            return [[float(pts.min())], [float(pts.max())]]
        try:
            from scipy.spatial import ConvexHull, QhullError

            hull = ConvexHull(pts)
        except QhullError:
            return None
        return [[float(v) for v in pts[i]] for i in hull.vertices]


def ci_normal_ball(
    fit_result: LtsFit,
    constants: AsymptoticConstants,
    n: int,
    gamma: float,
    mode: str = "corrected",
) -> NormalBallRegion:
    """Asymptotic-normality confidence ball at miscoverage gamma."""
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma must be in (0, 1), got {gamma!r}")
    if n < 1:
        raise DomainError("n must be positive")
    p = fit_result.beta.size
    per_n = constants.cov_factor / n
    if mode == "corrected":
        radius = float(np.sqrt(per_n * chi2_quantile(p, 1.0 - gamma)))
    elif mode == "paper-literal":
        radius = float(np.sqrt(per_n) * chi2_quantile(p, gamma))
    else:
        raise DomainError(f"mode must be 'corrected' or 'paper-literal', got {mode!r}")
    return NormalBallRegion(
        center=fit_result.beta, radius=radius, gamma=gamma, mode=mode
    )


def bootstrap_fits(
    data: Dataset,
    trim: TrimSpec,
    m: int,
    config: SolverConfig | None = None,
    stream: RandomStream | None = None,
) -> np.ndarray:
    """Coefficients from m trimmed fits on with-replacement resamples.

    Runs the replication engine of ``simulate``: resample j draws n row
    indices and a solver seed from ``stream.child(j)``, so the result is
    deterministic given the parent stream key.  Degenerate resamples (every
    start rank-deficient) are redrawn, up to MAX_REDRAWS consecutive
    failures per slot, as in the Monte Carlo studies.  The engine fits as
    many resamples at a time as fill one kernel block, in one pass; row j
    of the cloud is bit for bit the ``fit`` of resample j, and memory
    does not grow with m beyond the cloud itself.
    """
    if m < 1:
        raise DomainError("m must be positive")
    if config is None:
        config = SolverConfig(n_starts=STUDY_STARTS)
    if stream is None:
        stream = make_stream(0, 0)
    return _replicate_fits(stream, [(data, trim, m)], config)[0]


def _unit_directions(stream: RandomStream, count: int, p: int) -> np.ndarray:
    g = stream.normal(size=(count, p))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    return g / norms[:, None]


def _side_counts(proj: np.ndarray) -> np.ndarray:
    """min(#<=, #>=) of each entry of ``proj`` within its column.

    A stable sort of each column, then the first and last sorted position
    of each entry's tie group: #<= is last + 1 and #>= is m - first.
    """
    m = proj.shape[0]
    order = np.argsort(proj, axis=0, kind="stable")
    s = np.take_along_axis(proj, order, axis=0)
    pos = np.arange(m)[:, None]
    tied = np.zeros((m + 1,) + s.shape[1:], bool)  # tied[i]: s[i] == s[i - 1]
    tied[1:-1] = s[1:] == s[:-1]
    first = np.maximum.accumulate(np.where(tied[:-1], 0, pos), axis=0)
    last = np.minimum.accumulate(np.where(tied[1:], m, pos)[::-1], axis=0)[::-1]
    out = np.empty(proj.shape, np.int64)
    np.put_along_axis(out, order, np.minimum(last + 1, m - first), axis=0)
    return out


def depth(
    point,
    cloud,
    n_directions: int | None = None,
    stream: RandomStream | None = None,
) -> float:
    """Approximate halfspace depth of ``point`` within ``cloud``.

    For each random direction, the point's depth is bounded by the smaller
    of the two closed half-line counts of cloud projections; the depth is
    the minimum over directions, divided by the cloud size.  One-
    dimensional clouds use the exact rank formula min(#<=, #>=)/m.
    """
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.ndim == 1:
        cloud = cloud[:, None]
    m, p = cloud.shape
    if m == 0:
        raise DomainError("cloud must be nonempty")
    point = np.atleast_1d(np.asarray(point, dtype=np.float64))
    if point.shape != (p,):
        raise DomainError(f"point shape {point.shape} != ({p},)")
    if p == 1:
        proj = np.vstack([cloud, point])
    else:
        d = n_directions if n_directions is not None else DIRECTIONS_PER_DIM * p
        if d < 1:
            raise DomainError("n_directions must be positive")
        if stream is None:
            stream = make_stream(0, 0)
        # One stacked product, so a query equal to a cloud row lands on
        # bit-identical projections (separate matmul paths can differ in the
        # last ulp and break self-counting).
        proj = np.vstack([cloud, point]) @ _unit_directions(stream, d, p).T
    le = (proj[:-1] <= proj[-1]).sum(axis=0)
    ge = (proj[:-1] >= proj[-1]).sum(axis=0)
    return float(np.minimum(le, ge).min() / m)


def ci_depth_region(
    cloud,
    gamma: float,
    n_directions: int | None = None,
    stream: RandomStream | None = None,
) -> DepthRegion:
    """Depth-trimmed confidence region from a bootstrap coefficient cloud.

    Depths of all cloud points are computed against a single shared
    direction set, by ``_side_counts`` on each direction's projections;
    the floor(gamma*m) least deep points are trimmed (ties by index) and
    the smallest retained depth becomes the membership threshold.
    """
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.ndim == 1:
        cloud = cloud[:, None]
    m, p = cloud.shape
    if m < MIN_CLOUD:
        raise DomainError(f"need at least {MIN_CLOUD} cloud points, got {m}")
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma must be in (0, 1), got {gamma!r}")
    d = n_directions if n_directions is not None else DIRECTIONS_PER_DIM * p
    if stream is None:
        stream = make_stream(0, 0)
    # Directions come from a fresh child so membership queries can
    # regenerate them from the stored key alone.
    dir_stream = stream.child(0)
    proj = cloud if p == 1 else cloud @ _unit_directions(dir_stream, d, p).T
    depths = _side_counts(proj).min(axis=1) / m

    k = int(np.floor(gamma * m))
    order = np.lexsort((np.arange(m), depths))
    retained = np.sort(order[k:])
    threshold = float(depths[retained].min())
    return DepthRegion(
        cloud=cloud,
        depths=depths,
        threshold=threshold,
        retained=retained,
        gamma=gamma,
        n_directions=d,
        direction_seed=(dir_stream.seed, dir_stream.stream_id),
    )
