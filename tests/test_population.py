"""Asymptotic constants, influence function, Fisher-consistency check."""

import numpy as np
import pytest
from scipy import integrate, stats

from trimreg import (
    DomainError,
    GenSpec,
    InfluencePoint,
    PopulationModel,
    QuadratureFailure,
    SingularMatrix,
    SolverConfig,
    TrimSpec,
    empirical_design_moment,
    fisher_check,
    fit,
    generate,
    influence_function,
    local_quadratic,
    make_stream,
    trim_constants,
)

ALPHA_GRID = [round(0.50 + 0.05 * k, 2) for k in range(10)]  # 0.50 .. 0.95


def phi(t):
    return np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)


class TestTrimConstants:
    def test_second_moment_quadrature_oracle(self):
        # 2 * trimmed_moment must equal the integral of t^2 phi(t) over
        # [-cutoff, cutoff], computed by adaptive quadrature
        for alpha in ALPHA_GRID:
            c = trim_constants(alpha, 1.0)
            oracle, err = integrate.quad(
                lambda t: t * t * phi(t), -c.cutoff, c.cutoff, epsabs=1e-13
            )
            assert err < 1e-9  # reported estimate is conservative
            assert abs(2.0 * c.trimmed_moment - oracle) <= 1e-9

    def test_central_mass_equals_alpha(self):
        for alpha in ALPHA_GRID:
            c = trim_constants(alpha, 1.0)
            assert abs(c.central_mass - alpha) <= 1e-12

    def test_spot_values(self):
        # frozen against the quadrature oracle above (mpmath agrees to 16
        # digits); commonly quoted 6-digit decimals (0.138182, 0.035661)
        # carry ~2e-5 rounding error and are matched only at that precision
        c75 = trim_constants(0.75, 1.0)
        assert c75.cutoff == pytest.approx(1.150349, abs=1e-6)
        assert c75.trimmed_moment == pytest.approx(0.1381965191188359, abs=1e-12)
        assert c75.central_mass == pytest.approx(0.75, abs=1e-12)
        assert c75.cov_factor == pytest.approx(0.4913654013114164, abs=1e-12)
        c50 = trim_constants(0.5, 1.0)
        assert c50.cutoff == pytest.approx(0.674490, abs=1e-6)
        assert c50.trimmed_moment == pytest.approx(0.0356629588721297, abs=1e-12)
        assert c50.cov_factor == pytest.approx(0.2853036709770376, abs=1e-12)

    def test_untrimmed_limit(self):
        c = trim_constants(0.9999, 1.0)
        assert abs(c.trimmed_moment - 0.5) <= 1e-2
        assert abs(c.central_mass - 1.0) <= 1e-2
        assert abs(c.cov_factor - 1.0) <= 1e-2

    def test_sigma_scaling(self):
        base = trim_constants(0.75, 1.0)
        doubled = trim_constants(0.75, 2.0)
        assert doubled.cov_factor == pytest.approx(4.0 * base.cov_factor, rel=1e-14)

    def test_domain(self):
        for bad in (0.3, 1.0, 1.2):
            with pytest.raises(DomainError):
                trim_constants(bad, 1.0)
        with pytest.raises(DomainError):
            trim_constants(0.75, 0.0)


class TestInfluenceFunction:
    def test_zero_branch_outside_quantile(self):
        model = PopulationModel.canonical(0.75, 1.0, dim=2)
        for carrier in (1.0, 100.0, 1e6):
            z0 = InfluencePoint(carrier=[carrier], response=5.0)  # 25 > 1.3233
            assert np.array_equal(influence_function(z0, model), np.zeros(2))

    def test_inside_branch_closed_form(self):
        # canonical model, alpha = 0.75: M = 0.75 I, residual 0.5 inside
        # the quantile 1.3233 -> (0.5 / 0.75) * (1, 1)
        model = PopulationModel.canonical(0.75, 1.0, dim=2)
        z0 = InfluencePoint(carrier=[1.0], response=0.5)
        got = influence_function(z0, model)
        assert np.allclose(got, [2.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_inside_branch_general_m(self):
        rng = np.random.default_rng(21)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        m = (q * [0.5, 1.0, 2.0]) @ q.T
        model = PopulationModel(
            beta=np.array([0.2, -0.1, 0.3]), sigma=1.0, alpha=0.75,
            design_moment=m, trim_quantile=2.0,
        )
        z0 = InfluencePoint(carrier=[0.5, -1.0], response=1.0)
        v0 = z0.design_vector
        r0 = 1.0 - v0 @ model.beta
        assert r0 * r0 <= 2.0
        expected = np.linalg.solve(m, r0 * v0)
        got = influence_function(z0, model)
        assert np.allclose(got, expected, atol=1e-12)
        # direction is parallel to M^{-1} v0
        ref = np.linalg.solve(m, v0)
        cos = got @ ref / (np.linalg.norm(got) * np.linalg.norm(ref))
        assert abs(abs(cos) - 1.0) <= 1e-12

    def test_linear_in_response_inside(self):
        model = PopulationModel.canonical(0.75, 1.0, dim=2)
        s0 = [0.7]
        a, b = -0.6, 1.0
        fa = influence_function(InfluencePoint(s0, a), model)
        fb = influence_function(InfluencePoint(s0, b), model)
        fm = influence_function(InfluencePoint(s0, (a + b) / 2), model)
        assert np.allclose(fa + fb, 2.0 * fm, atol=1e-12)

    @pytest.mark.parametrize("s", [1e-7, 1e-9])
    def test_equivariant_in_carrier_units(self, s):
        # The carrier in units 1/s times larger: with D = diag(1, s), beta
        # becomes D^-1 beta, the moment D M D and the point's carrier s
        # times its own, so the influence becomes D^-1 times the s = 1
        # vector, however small the rescaled moment's entries.
        m = np.array([[0.75, 0.2], [0.2, 0.6]])

        def influence(d):
            model = PopulationModel(
                beta=np.array([0.3, -0.4]) / d, sigma=1.0, alpha=0.75,
                design_moment=m * np.outer(d, d), trim_quantile=2.0,
            )
            return influence_function(InfluencePoint([0.8 * d[1]], 0.5), model)

        d = np.array([1.0, s])
        ref = influence(np.ones(2))
        assert np.all(ref != 0.0)
        assert np.allclose(influence(d), ref / d, rtol=1e-9, atol=0.0)

    def test_singular_moment_raises(self):
        model = PopulationModel(
            beta=np.zeros(2), sigma=1.0, alpha=0.75,
            design_moment=np.array([[1.0, 1.0], [1.0, 1.0]]), trim_quantile=2.0,
        )
        with pytest.raises(SingularMatrix):
            influence_function(InfluencePoint([1.0], 0.5), model)

    def test_finite_sample_direction(self):
        # contaminating a large sample by a point mass moves the estimate
        # along the influence direction
        alpha, eps, n = 0.75, 0.01, 40_000
        stream = make_stream(99, 0)
        x = stream.normal(size=(n, 1))
        y = stream.normal(size=n)
        cfg = SolverConfig(n_starts=20, seed=5)
        trim = TrimSpec.for_size(n, alpha)
        from trimreg import Dataset

        base = fit(Dataset.from_xy(x, y), trim, cfg).beta
        model = PopulationModel.canonical(alpha, 1.0, dim=2)
        z0 = InfluencePoint(carrier=[1.5], response=0.8)
        m = int(eps * n)
        xc, yc = x.copy(), y.copy()
        xc[-m:] = 1.5
        yc[-m:] = 0.8
        moved = fit(Dataset.from_xy(xc, yc), trim, cfg).beta
        emp = (moved - base) / eps
        ref = influence_function(z0, model)
        cos = emp @ ref / (np.linalg.norm(emp) * np.linalg.norm(ref))
        assert cos >= 0.95


class TestFisherCheck:
    def test_standard_normal_centered(self):
        for alpha in (0.5, 0.75, 0.9):
            assert abs(fisher_check(stats.norm(), alpha)) <= 1e-10

    def test_centered_uniform(self):
        assert abs(fisher_check(stats.uniform(loc=-1.0, scale=2.0), 0.75)) <= 1e-10

    def test_skewed_exponential_not_centered(self):
        # unit exponential shifted to mean zero; quadrature oracle value
        value = fisher_check(stats.expon(loc=-1.0), 0.75)
        assert abs(value) > 1e-3
        assert value == pytest.approx(-0.1903152168442374, abs=1e-9)

    def test_bad_alpha(self):
        with pytest.raises(DomainError):
            fisher_check(stats.norm(), 1.5)


class TestEmpiricalDesignMoment:
    def test_equals_half_hessian(self):
        rng = np.random.default_rng(22)
        from helpers import random_dataset

        d, _ = random_dataset(rng, n=30, outlier_frac=0.1)
        trim = TrimSpec.for_size(30, 0.75)
        result = fit(d, trim, SolverConfig(n_starts=50, seed=8))
        m = empirical_design_moment(d, result, trim)
        lq = local_quadratic(d, result.beta, trim)
        assert np.array_equal(m, lq.hessian / 2.0)

    def test_intercept_entry_is_h_over_n(self):
        rng = np.random.default_rng(23)
        from helpers import random_dataset

        d, _ = random_dataset(rng, n=25)
        trim = TrimSpec.for_size(25, 0.6)
        result = fit(d, trim, SolverConfig(n_starts=50, seed=9))
        m = empirical_design_moment(d, result, trim)
        assert m[0, 0] == pytest.approx(trim.h / d.n, rel=1e-15)

    def test_canonical_limit_monte_carlo(self):
        # spherical-Gaussian data: the plug-in moment approaches alpha * I
        alpha, n = 0.75, 100_000
        spec = GenSpec(n=n, p=3, beta0=np.array([1.0, -0.5, 0.25]), sigma=1.0)
        data = generate(spec, make_stream(7, 3))
        trim = TrimSpec.for_size(n, alpha)
        result = fit(data, trim, SolverConfig(n_starts=20, seed=2))
        m = empirical_design_moment(data, result, trim)
        assert np.max(np.abs(m - alpha * np.eye(3))) <= 0.02
