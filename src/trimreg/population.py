"""Population-level quantities for the trimmed estimator.

Holds the asymptotic constants of the Gaussian-error limit law, the
point-contamination influence function, a numerical Fisher-consistency
check for a supplied error density, and the plug-in estimate of the
trimmed design second-moment matrix.

Under Gaussian errors the trimming cutoff on the standard normal scale is
``c = sqrt(chi2_quantile(1, alpha))``, i.e. the alpha-quantile of e^2 in
sigma units.  The limit covariance of sqrt(n) * (estimate - target) is
``(2*C*sigma^2 / C1^2) * I`` with

    C  = Phi(c) - 1/2 - c * phi(c)      (half the +-c truncated second moment)
    C1 = 2*Phi(c) - 1                   (central mass, equals alpha)
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, QuadratureFailure
from .model import Dataset, TrimSpec, _retained_products
from .numerics import Matrix, chi2_quantile, normal_cdf, normal_pdf, spd_solve
from .solver import LtsFit


@dataclass(frozen=True)
class AsymptoticConstants:
    """Constants of the Gaussian limit law at trimming level alpha.

    ``cutoff`` is the normal-scale trimming cutoff; ``trimmed_moment`` is
    Phi(cutoff) - 1/2 - cutoff*phi(cutoff), half the central second moment
    retained after trimming; ``central_mass`` is 2*Phi(cutoff) - 1 and
    equals alpha analytically; ``cov_factor`` is the per-coordinate limit
    variance 2 * trimmed_moment * sigma^2 / central_mass^2.
    """

    alpha: float
    cutoff: float
    trimmed_moment: float
    central_mass: float
    sigma: float
    cov_factor: float


@dataclass(frozen=True)
class InfluencePoint:
    """A contamination location: carrier part plus response value."""

    carrier: np.ndarray
    response: float

    def __post_init__(self):
        carrier = np.atleast_1d(np.asarray(self.carrier, dtype=np.float64))
        if not (np.all(np.isfinite(carrier)) and np.isfinite(self.response)):
            raise DomainError("influence point must be finite")
        carrier.setflags(write=False)
        object.__setattr__(self, "carrier", carrier)

    @property
    def design_vector(self) -> np.ndarray:
        """(1, carrier')' — the design row the point would contribute."""
        return np.concatenate([[1.0], self.carrier])


@dataclass(frozen=True)
class PopulationModel:
    """Population inputs for the influence function.

    ``design_moment`` is E[w w' 1(residual^2 <= trim_quantile)], the
    trimmed second moment of the design; ``trim_quantile`` is the
    alpha-quantile of the squared residual at ``beta``.
    """

    beta: np.ndarray
    sigma: float
    alpha: float
    design_moment: Matrix
    trim_quantile: float

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64)
        M = np.asarray(self.design_moment, dtype=np.float64)
        if M.shape != (beta.size, beta.size):
            raise DimensionMismatch(
                f"design_moment shape {M.shape} incompatible with beta size {beta.size}"
            )
        if self.trim_quantile <= 0:
            raise DomainError("trim_quantile must be positive")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "design_moment", M)

    @classmethod
    def canonical(
        cls, alpha: float, sigma: float = 1.0, dim: int = 2
    ) -> "PopulationModel":
        """Spherical-Gaussian carrier model with independent N(0, sigma^2)
        errors and beta = 0: the trimming indicator is independent of the
        design, so the trimmed design moment is exactly alpha * I."""
        constants = trim_constants(alpha, sigma)
        return cls(
            beta=np.zeros(dim),
            sigma=sigma,
            alpha=alpha,
            design_moment=alpha * np.eye(dim),
            trim_quantile=(sigma * constants.cutoff) ** 2,
        )


def trim_constants(alpha: float, sigma: float) -> AsymptoticConstants:
    """Limit-law constants at trimming level alpha and error scale sigma."""
    if not 0.5 <= alpha < 1.0:
        raise DomainError(f"alpha must be in [0.5, 1), got {alpha!r}")
    if not sigma > 0:
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    cutoff = float(np.sqrt(chi2_quantile(1, alpha)))
    mass = 2.0 * normal_cdf(cutoff) - 1.0
    moment = normal_cdf(cutoff) - 0.5 - cutoff * normal_pdf(cutoff)
    return AsymptoticConstants(
        alpha=alpha,
        cutoff=cutoff,
        trimmed_moment=moment,
        central_mass=mass,
        sigma=sigma,
        cov_factor=2.0 * moment * sigma**2 / mass**2,
    )


def influence_function(z0: InfluencePoint, model: PopulationModel) -> np.ndarray:
    """Influence of an infinitesimal point mass at z0 on the estimator.

    Zero when the point's squared residual strictly exceeds the trimming
    quantile (the point is trimmed away in the limit); otherwise
    design_moment^{-1} * residual * design_vector, which is bounded in
    the residual but not in the carrier norm.
    """
    v0 = z0.design_vector
    if v0.shape != model.beta.shape:
        raise DimensionMismatch(
            f"point dimension {v0.size} != model dimension {model.beta.size}"
        )
    r0 = float(z0.response - v0 @ model.beta)
    if r0 * r0 > model.trim_quantile:
        return np.zeros(v0.size)
    return spd_solve(model.design_moment, r0 * v0)


def fisher_check(error_model, alpha: float) -> float:
    """Trimmed first moment E[e * 1(e^2 <= q_alpha(e^2))] of an error law.

    ``error_model`` must expose scalar-or-array ``pdf`` and ``cdf``
    (scipy frozen distributions qualify).  A value near zero indicates
    the centering condition for Fisher consistency holds; symmetric
    densities give exactly zero, skewed ones generally do not.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha!r}")
    from scipy import integrate, optimize

    def squared_cdf(q: float) -> float:
        s = np.sqrt(q)
        return float(error_model.cdf(s) - error_model.cdf(-s))

    hi = 1.0
    for _ in range(200):
        if squared_cdf(hi) >= alpha:
            break
        hi *= 4.0
    else:
        raise QuadratureFailure("could not bracket the trimming quantile")
    try:
        q = optimize.brentq(lambda t: squared_cdf(t) - alpha, 0.0, hi, xtol=1e-14)
    except ValueError as exc:
        raise QuadratureFailure(f"quantile root-finding failed: {exc}") from exc

    support = getattr(error_model, "support", lambda: (-np.inf, np.inf))()
    lo_lim = max(-np.sqrt(q), float(support[0]))
    hi_lim = min(np.sqrt(q), float(support[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, abserr = integrate.quad(
                lambda e: e * error_model.pdf(e), lo_lim, hi_lim,
                epsabs=1e-11, limit=200,
            )
        except (integrate.IntegrationWarning, ValueError) as exc:
            raise QuadratureFailure(f"quadrature failed: {exc}") from exc
    if abserr > 1e-8:
        raise QuadratureFailure(f"quadrature error estimate {abserr:.2e} too large")
    return float(value)


def empirical_design_moment(data: Dataset, fit: LtsFit, trim: TrimSpec) -> Matrix:
    """Plug-in estimate (1/n) * sum of w_i w_i' over the rows retained at
    the fitted beta; equals half the local-quadratic Hessian."""
    return _retained_products(data, fit.beta, trim)[2]
