"""Data model, trimmed objective, and piecewise-quadratic geometry."""

from types import SimpleNamespace

import numpy as np
import pytest

from trimreg import (
    Dataset,
    DimensionMismatch,
    DomainError,
    OnPieceBoundary,
    TrimSpec,
    check_stationarity,
    empirical_design_moment,
    h_subset,
    local_quadratic,
    make_stream,
    objective,
    piece_check,
    residuals,
)
from trimreg import model
from helpers import padded_line_dataset, random_dataset


class TestDataset:
    def test_from_xy_prepends_intercept(self):
        d = Dataset.from_xy(np.arange(6.0), np.arange(6.0))
        assert d.n == 6 and d.p == 2
        assert np.all(d.W[:, 0] == 1.0)

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            Dataset.from_xy(np.arange(4.0), np.arange(4.0))

    def test_rejects_broken_intercept(self):
        W = np.ones((6, 2))
        W[0, 0] = 2.0
        with pytest.raises(DomainError):
            Dataset(y=np.zeros(6), W=W)

    def test_rejects_non_finite(self):
        y = np.zeros(6)
        y[3] = np.nan
        with pytest.raises(DomainError):
            Dataset.from_xy(np.arange(6.0), y)

    def test_immutable(self):
        d = Dataset.from_xy(np.arange(6.0), np.arange(6.0))
        with pytest.raises(ValueError):
            d.y[0] = 5.0


class TestTrimSpec:
    @pytest.mark.parametrize(
        "n,alpha,h",
        [(10, 0.5, 6), (10, 0.7, 8), (20, 0.5, 11), (40, 0.5, 21), (1000, 0.75, 751)],
    )
    def test_h_formula(self, n, alpha, h):
        assert TrimSpec.for_size(n, alpha).h == h

    def test_alpha_range(self):
        with pytest.raises(DomainError):
            TrimSpec.for_size(10, 0.3)
        with pytest.raises(DomainError):
            TrimSpec.for_size(10, 0.96)

    def test_h_bounds(self):
        # n=4, alpha=0.75 gives h=4=n, which is not allowed
        with pytest.raises(DomainError):
            TrimSpec.for_size(4, 0.75)


class TestResiduals:
    def test_exact_fit_is_zero(self):
        d = padded_line_dataset([0, 1, 2], [1, 3, 5])
        r = residuals(d, np.array([1.0, 2.0]))
        assert np.allclose(r, 0.0, atol=1e-12)

    def test_zero_beta_returns_y(self):
        d, _ = random_dataset(np.random.default_rng(0), n=12)
        assert np.array_equal(residuals(d, np.zeros(2)), d.y)

    def test_hand_arithmetic(self):
        # row (x=3, y=2) at beta=(1, 0.5): r = 2 - 1 - 1.5 = -0.5
        d = padded_line_dataset([3.0], [2.0], slope=0.5, intercept=1.0, total=6)
        r = residuals(d, np.array([1.0, 0.5]))
        assert abs(r[0] - (-0.5)) < 1e-15

    def test_dimension_mismatch(self):
        d, _ = random_dataset(np.random.default_rng(0), n=12)
        with pytest.raises(DimensionMismatch):
            residuals(d, np.zeros(3))


class TestHSubset:
    def test_size_from_alpha(self):
        d, _ = random_dataset(np.random.default_rng(1), n=10)
        sub = h_subset(d, np.zeros(2), TrimSpec.for_size(10, 0.5))
        assert sub.indices.size == 6

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        d, _ = random_dataset(rng, n=15)
        trim = TrimSpec.for_size(15, 0.6)
        beta = rng.standard_normal(2)
        base = set(h_subset(d, beta, trim).indices.tolist())
        perm = rng.permutation(15)
        shuffled = Dataset(y=d.y[perm], W=d.W[perm])
        got = set(h_subset(shuffled, beta, trim).indices.tolist())
        assert {int(perm[j]) for j in got} == base

    def test_tie_at_rank_h_prefers_lower_index(self):
        # at beta = 0 the squared residuals are (1, 1, 0.01, 0.04, 25):
        # ranks 3 and 4 tie exactly between rows 0 and 1
        d = Dataset.from_xy(
            np.array([0.0, 1.0, 2.0, 3.0, 10.0]),
            np.array([1.0, -1.0, 0.1, 0.2, 5.0]),
        )
        trim = TrimSpec.for_size(5, 0.5)
        sub = h_subset(d, np.zeros(2), trim)
        assert sub.boundary_flag
        assert sub.indices.tolist() == [2, 3, 0]

    def test_sorted_by_squared_residual(self):
        rng = np.random.default_rng(3)
        d, _ = random_dataset(rng, n=14)
        trim = TrimSpec.for_size(14, 0.5)
        beta = rng.standard_normal(2)
        sub = h_subset(d, beta, trim)
        r2 = residuals(d, beta)[sub.indices] ** 2
        assert np.all(np.diff(r2) >= 0)
        assert not sub.boundary_flag


class TestObjective:
    def test_exact_fit_zero(self):
        d = padded_line_dataset([0, 1, 2], [1, 3, 5])
        assert objective(d, np.array([1.0, 2.0]), TrimSpec.for_size(d.n, 0.5)) == 0.0

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(8, 30))
            d, _ = random_dataset(rng, n=n, p=int(rng.integers(2, 4)))
            trim = TrimSpec.for_size(n, float(rng.choice([0.5, 0.6, 0.75])))
            beta = rng.standard_normal(d.p)
            r2 = sorted((d.y - d.W @ beta) ** 2)
            oracle = sum(r2[: trim.h]) / n
            got = objective(d, beta, trim)
            assert abs(got - oracle) <= 1e-12 * (1.0 + oracle)

    def test_hand_arithmetic(self):
        # residuals (1, 2, 3, 4, 10) at beta = 0, h = 3: (1+4+9)/5
        d = Dataset.from_xy(
            np.array([5.0, 6.0, 7.0, 8.0, 9.0]),
            np.array([1.0, 2.0, 3.0, 4.0, 10.0]),
        )
        assert objective(d, np.zeros(2), TrimSpec.for_size(5, 0.5)) == pytest.approx(
            (1 + 4 + 9) / 5, rel=1e-14
        )

    def test_monotone_in_h(self):
        # keeping fewer rows can only lower the retained sum
        rng = np.random.default_rng(5)
        d, _ = random_dataset(rng, n=21)
        beta = rng.standard_normal(2)
        alphas = [0.5, 0.6, 0.7, 0.8, 0.9]
        trims = [TrimSpec.for_size(d.n, a) for a in alphas]
        sums = [objective(d, beta, t) * d.n for t in trims]
        hs = [t.h for t in trims]
        assert all(h2 > h1 for h1, h2 in zip(hs, hs[1:]))
        assert all(s2 >= s1 for s1, s2 in zip(sums, sums[1:]))


class TestLocalQuadratic:
    def test_exact_fit_gradient_zero(self):
        # exactly h = 4 of 7 points on the line, so the exact fit is
        # interior (rank 5 residual is nonzero) with all active residuals 0
        x = np.array([0.0, 1.0, 2.0, 3.0, 0.5, 1.5, 2.5])
        y = 1.0 + 2.0 * x
        y[4:] += np.array([3.0, -4.0, 5.0])
        d = Dataset.from_xy(x, y)
        trim = TrimSpec.for_size(7, 0.5)
        assert trim.h == 4
        lq = local_quadratic(d, np.array([1.0, 2.0]), trim)
        assert np.allclose(lq.gradient, 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 10:
            n = int(rng.integers(12, 25))
            d, beta0 = random_dataset(rng, n=n, p=int(rng.integers(2, 4)))
            trim = TrimSpec.for_size(n, 0.75)
            beta = beta0 + 0.05 * rng.standard_normal(d.p)
            step = 1e-6
            if not piece_check(d, beta, trim, 4 * step, 16, make_stream(1, checked)):
                continue
            lq = local_quadratic(d, beta, trim)
            fd = np.empty(d.p)
            for j in range(d.p):
                e = np.zeros(d.p)
                e[j] = step
                fd[j] = (objective(d, beta + e, trim) - objective(d, beta - e, trim)) / (2 * step)
            scale = np.linalg.norm(lq.gradient)
            assert np.linalg.norm(fd - lq.gradient) <= 1e-5 * (1.0 + scale)
            checked += 1

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 6:
            d, beta0 = random_dataset(rng, n=18)
            trim = TrimSpec.for_size(d.n, 0.75)
            beta = beta0 + 0.05 * rng.standard_normal(2)
            step = 1e-5
            if not piece_check(d, beta, trim, 4 * step, 16, make_stream(2, checked)):
                continue
            lq = local_quadratic(d, beta, trim)
            fd = np.empty((2, 2))
            for i in range(2):
                for j in range(2):
                    ei = np.zeros(2); ei[i] = step
                    ej = np.zeros(2); ej[j] = step
                    fd[i, j] = (
                        objective(d, beta + ei + ej, trim)
                        - objective(d, beta + ei - ej, trim)
                        - objective(d, beta - ei + ej, trim)
                        + objective(d, beta - ei - ej, trim)
                    ) / (4 * step * step)
            assert np.linalg.norm(fd - lq.hessian) <= 1e-4 * (1.0 + np.linalg.norm(lq.hessian))
            checked += 1

    def test_full_rank_hessian_positive_definite(self):
        rng = np.random.default_rng(8)
        d, beta0 = random_dataset(rng, n=16, p=3)
        trim = TrimSpec.for_size(d.n, 0.6)
        lq = local_quadratic(d, beta0, trim)
        np.linalg.cholesky(lq.hessian)  # raises if not PD

    def test_boundary_raises(self):
        d = Dataset.from_xy(
            np.array([0.0, 1.0, 2.0, 3.0, 10.0]),
            np.array([1.0, -1.0, 0.1, 0.2, 5.0]),
        )
        with pytest.raises(OnPieceBoundary):
            local_quadratic(d, np.zeros(2), TrimSpec.for_size(5, 0.5))

    def test_retained_products_compute_residuals_once(self, monkeypatch):
        # check_stationarity, local_quadratic and empirical_design_moment
        # share one pass over the rows: the residuals are computed once.
        rng = np.random.default_rng(9)
        d, beta0 = random_dataset(rng, n=40, p=3)
        trim = TrimSpec.for_size(d.n, 0.75)
        calls, real = [], model._residuals

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(model, "_residuals", counted)
        for call in (
            lambda: check_stationarity(d, beta0, trim),
            lambda: local_quadratic(d, beta0, trim),
            lambda: empirical_design_moment(d, SimpleNamespace(beta=beta0), trim),
        ):
            calls.clear()
            call()
            assert len(calls) == 1


class TestPieceCheck:
    def _boundary_dataset(self):
        return Dataset.from_xy(
            np.array([0.0, 1.0, 2.0, 3.0, 10.0]),
            np.array([1.0, -1.0, 0.1, 0.2, 5.0]),
        )

    def test_interior_true_at_small_radius(self):
        d = self._boundary_dataset()
        trim = TrimSpec.for_size(5, 0.5)
        assert piece_check(d, np.array([0.0, 0.1]), trim, 1e-8, 32, make_stream(3, 0))

    def test_false_across_boundary(self):
        # rows 0 and 1 swap in and out of the subset as the slope crosses 0
        d = self._boundary_dataset()
        trim = TrimSpec.for_size(5, 0.5)
        assert not piece_check(
            d, np.array([0.0, 0.0005]), trim, 0.01, 64, make_stream(3, 1)
        )

    def test_zero_trials_vacuous(self):
        d = self._boundary_dataset()
        trim = TrimSpec.for_size(5, 0.5)
        assert piece_check(d, np.zeros(2), trim, 1.0, 0)


class TestContinuityAndPiecewiseStructure:
    def test_lipschitz_shrinkage(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            d, beta0 = random_dataset(rng, n=20)
            trim = TrimSpec.for_size(d.n, 0.75)
            beta = beta0 + rng.standard_normal(2)
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            w_max = np.linalg.norm(d.W, axis=1).max()
            r_max = np.abs(residuals(d, beta)).max()
            for delta in (1e-3, 1e-5, 1e-7):
                bound = 2.0 * w_max * (r_max + w_max * delta) * delta
                diff = abs(
                    objective(d, beta + delta * u, trim) - objective(d, beta, trim)
                )
                assert diff <= bound + 1e-15

    def test_quadratic_exact_within_piece(self):
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 8:
            d, beta0 = random_dataset(rng, n=18)
            trim = TrimSpec.for_size(d.n, 0.75)
            beta = beta0 + 0.05 * rng.standard_normal(2)
            delta = 1e-6
            if not piece_check(d, beta, trim, 2 * delta, 16, make_stream(4, checked)):
                continue
            frozen = h_subset(d, beta, trim).indices
            for _ in range(5):
                probe = beta + delta * rng.uniform(-1, 1, size=2)
                quad = float(
                    np.sum((d.y[frozen] - d.W[frozen] @ probe) ** 2) / d.n
                )
                obj = objective(d, probe, trim)
                assert abs(obj - quad) <= 1e-12 * (1.0 + obj)
            checked += 1
