"""Numeric kernel: solves, special functions, random streams."""

import mpmath as mp
import numpy as np
import pytest

from trimreg import (
    DimensionMismatch,
    DomainError,
    SingularMatrix,
    chi2_quantile,
    make_stream,
    normal_cdf,
    normal_quantile,
    spd_solve,
)
from trimreg.numerics import PIVOT_RTOL, derive_stream_id, spd_solve_batch

mp.mp.dps = 40


def mp_cdf(x: float) -> float:
    """High-precision normal CDF oracle, independent of scipy."""
    return float(mp.ncdf(mp.mpf(x)))


class TestSpdSolve:
    def test_identity(self):
        assert np.allclose(spd_solve(np.eye(2), [3.0, -1.0]), [3.0, -1.0])

    def test_diagonal_hand_inverse(self):
        # [[2,0],[0,4]] x = (2, 8)  =>  x = (1, 2)
        x = spd_solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0], atol=1e-14)

    def test_rank_one_is_singular(self):
        with pytest.raises(SingularMatrix):
            spd_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]))

    def test_tiny_pivot_is_singular(self):
        # The last pivot is about 0.5 * PIVOT_RTOL times its own diagonal
        # entry, so the rule rejects it; diag(1, 1e-30) is the identity in
        # other units of the second unknown and is solved.
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 0.5 * PIVOT_RTOL]])
        with pytest.raises(SingularMatrix):
            spd_solve(a, np.array([1.0, 1.0]))
        assert np.array_equal(
            spd_solve(np.diag([1.0, 1e-30]), np.array([1.0, 1.0])), [1.0, 1.0 / 1e-30]
        )

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            spd_solve(np.ones((2, 3)), np.ones(2))
        with pytest.raises(DimensionMismatch):
            spd_solve(np.eye(2), np.ones(3))
        with pytest.raises(DimensionMismatch):
            spd_solve(np.array([[1.0, 5.0], [0.0, 1.0]]), np.ones(2))

    def test_residual_on_random_spd(self):
        rng = np.random.default_rng(5)
        for k in range(50):
            p = int(rng.integers(2, 8))
            q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            # eigenvalues within [1e-3, 1e3]: condition number <= 1e6
            d = 10.0 ** rng.uniform(-3, 3, size=p)
            a = (q * d) @ q.T
            b = rng.standard_normal(p)
            x = spd_solve(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


class TestSpdSolveBatch:
    @staticmethod
    def stack(a, b):
        """Augmented stack [a | b] (k, p, p + 1) of matrices a and vectors b."""
        return np.concatenate((np.asarray(a), np.asarray(b)[..., None]), axis=2)

    @staticmethod
    def systems(factor):
        """Two matrices whose last elimination pivot is, to rounding,
        factor * PIVOT_RTOL times its own diagonal entry; the second has its
        last unknown rescaled by 1e5."""
        delta = factor * PIVOT_RTOL
        small = np.array([[4.0, 2.0], [2.0, 1.0 + delta]])
        s = 1e-5
        scaled = np.array(
            [[3.0, 0.0, 0.0], [0.0, 4.0, 2.0 * s], [0.0, 2.0 * s, s * s * (1.0 + delta)]]
        )
        return [(small, np.array([1.0, 1.0])), (scaled, np.array([1.0, 2.0, 3.0]))]

    @pytest.mark.parametrize("factor, accepted", [(0.5, False), (2.0, True)])
    def test_pivot_rule_same_as_single_solve(self, factor, accepted):
        for a, b in self.systems(factor):
            x, ok = spd_solve_batch(self.stack([a, np.eye(len(b))], [b, b]))
            assert ok.tolist() == [accepted, True]
            if accepted:
                assert np.array_equal(spd_solve(a, b), x[0, :, 0])
            else:
                with pytest.raises(SingularMatrix):
                    spd_solve(a, b)

    def test_rows_independent_of_batch(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((40, 3, 5))
        a = g @ g.transpose(0, 2, 1)
        a = 0.5 * (a + a.transpose(0, 2, 1))
        b = rng.standard_normal((40, 3))
        x, ok = spd_solve_batch(self.stack(a, b))
        assert ok.all()
        for i in range(40):
            assert np.array_equal(spd_solve(a[i], b[i]), x[i, :, 0])
        assert np.allclose(np.einsum("kij,kj->ki", a, x[:, :, 0]), b, atol=1e-10)

    def test_equilibrated_rule_ignores_units(self):
        # The same matrix with its rows and columns rescaled, a diagonal
        # entry of 1e-13 next to 1, is the same system in other units of
        # the second unknown and is solved alike.
        a = np.array([[1.0, 0.5], [0.5, 1.0]])
        b = np.array([1.0, 2.0])
        s = np.array([1.0, 10.0**-6.5])
        scaled = a * np.outer(s, s)
        x, ok = spd_solve_batch(self.stack([a, scaled], [b, b * s]))
        assert ok.tolist() == [True, True]
        assert np.allclose(x[1, :, 0] * s, x[0, :, 0], rtol=1e-12)

    def test_equilibrated_rule_rejects_rank_deficiency(self):
        rank_one = np.array([[1.0, 2.0], [2.0, 4.0]])
        zero_col = np.array([[1.0, 0.0], [0.0, 0.0]])
        near = np.array([[1.0, 1.0], [1.0, 1.0 + 0.5 * PIVOT_RTOL]])
        b = np.ones((3, 2))
        _, ok = spd_solve_batch(self.stack([rank_one, zero_col, near], b))
        assert not ok.any()


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0) == 0.5

    def test_875_point(self):
        # oracle: mpmath ncdf(1.150349) = 0.87499992...
        assert abs(normal_cdf(1.150349) - 0.875) < 1e-6
        assert abs(normal_cdf(1.150349) - mp_cdf(1.150349)) < 1e-13

    def test_against_high_precision_oracle(self):
        for x in np.linspace(-8.0, 8.0, 33):
            assert abs(normal_cdf(float(x)) - mp_cdf(float(x))) <= 1e-12

    def test_symmetry_identity(self):
        for x in np.linspace(-5, 5, 21):
            assert abs(normal_cdf(float(-x)) - (1.0 - normal_cdf(float(x)))) < 1e-14

    def test_monotone(self):
        grid = np.linspace(-10, 10, 401)
        vals = [normal_cdf(float(x)) for x in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            normal_cdf(np.nan)


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_bisection_oracle(self):
        # independent oracle: bisect the high-precision CDF at p = 0.875
        lo, hi = 0.0, 3.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mp_cdf(mid) < 0.875:
                lo = mid
            else:
                hi = mid
        target = 0.5 * (lo + hi)
        assert abs(target - 1.150349) < 1e-6
        assert abs(normal_quantile(0.875) - target) < 1e-11

    def test_round_trip(self):
        # Above x ~ 5.1 the round trip is representation-limited: the
        # half-ulp of float64 p near 1 maps through 1/phi(x) to more than
        # 1e-9 in x, for any implementation.
        for x in np.linspace(-6, 6, 25):
            limit = max(1e-9, 1.2e-16 / np.exp(-0.5 * x * x) * np.sqrt(2 * np.pi))
            assert abs(normal_quantile(normal_cdf(float(x))) - x) <= limit
        for x in np.linspace(-6, 5, 23):
            assert abs(normal_quantile(normal_cdf(float(x))) - x) <= 1e-9

    def test_domain(self):
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                normal_quantile(p)


class TestChi2Quantile:
    def test_one_df_is_squared_normal_quantile(self):
        # chi2(1) median: (Phi^{-1}(0.75))^2
        target = normal_quantile(0.75) ** 2
        assert abs(target - 0.454936) < 1e-6
        assert abs(chi2_quantile(1, 0.5) - target) <= 1e-10

    def test_two_df_closed_form(self):
        # df = 2 is exponential: quantile = -2 ln(1 - p)
        assert abs(chi2_quantile(2, 0.95) - (-2.0 * np.log(0.05))) <= 1e-10
        assert abs(chi2_quantile(2, 0.95) - 5.991465) < 1e-6

    def test_zero_probability(self):
        for df in (1, 2, 7):
            assert chi2_quantile(df, 0.0) == 0.0

    def test_identity_across_levels(self):
        for alpha in np.arange(0.50, 0.951, 0.05):
            a = float(round(alpha, 2))
            lhs = chi2_quantile(1, a)
            rhs = normal_quantile((1 + a) / 2) ** 2
            assert abs(lhs - rhs) <= 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            chi2_quantile(0, 0.5)
        with pytest.raises(DomainError):
            chi2_quantile(1, 1.0)
        with pytest.raises(DomainError):
            chi2_quantile(1, -0.2)
        with pytest.raises(DomainError):
            chi2_quantile(1.5, 0.5)


class TestRandomStream:
    def test_determinism(self):
        a = make_stream(12345, 7).uniform(size=100)
        b = make_stream(12345, 7).uniform(size=100)
        assert np.array_equal(a, b)

    def test_distinct_ids_differ(self):
        a = make_stream(12345, 0).uniform(size=100)
        b = make_stream(12345, 1).uniform(size=100)
        assert not np.array_equal(a, b)

    def test_normal_moments(self):
        z = make_stream(2, 0).normal(size=100_000)
        assert abs(z.mean()) <= 0.02
        assert abs(z.var() - 1.0) <= 0.05

    def test_uniform_range(self):
        u = make_stream(3, 0).uniform(size=10_000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_child_reproducible_from_key(self):
        parent = make_stream(9, 4)
        child = parent.child(13)
        again = make_stream(child.seed, child.stream_id)
        assert np.array_equal(child.normal(size=50), again.normal(size=50))
        assert child.stream_id == derive_stream_id(4, 13)

    def test_children_mutually_distinct(self):
        parent = make_stream(9, 4)
        seqs = [parent.child(k).uniform(size=20) for k in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                assert not np.array_equal(seqs[i], seqs[j])
