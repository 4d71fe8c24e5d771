"""Concentration solver, enumeration oracle, and stationarity checks."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import reference_solver as ref
from trimreg import solver
from trimreg.numerics import _BLOCK_FLOATS
from trimreg.solver import (
    _ALIVE, _BETA, _END, _OBJ, _REJECTED, _SAME, _START, _STEP, _STOP
)

from trimreg import (
    AllStartsDegenerate,
    Dataset,
    DomainError,
    SingularMatrix,
    SolverConfig,
    TooManySubsets,
    TrimSpec,
    c_step,
    check_stationarity,
    exact_enumerate,
    fit,
    h_subset,
    ls_fit_subset,
    make_stream,
    objective,
    residuals,
)
from helpers import padded_line_dataset, random_dataset


def five_point_outlier_dataset():
    return Dataset.from_xy(
        np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
        np.array([1.0, 3.0, 5.0, 7.0, 100.0]),
    )


class TestLsFitSubset:
    def test_collinear_interpolation(self):
        d = padded_line_dataset([0, 1, 2], [1, 3, 5], total=7)
        beta = ls_fit_subset(d, np.array([0, 1, 2]))
        assert np.allclose(beta, [1.0, 2.0], atol=1e-12)

    def test_minimizes_subset_sse(self):
        rng = np.random.default_rng(11)
        d, _ = random_dataset(rng, n=16)
        sub = np.array([0, 2, 4, 6, 8, 10])
        beta = ls_fit_subset(d, sub)
        Ws, ys = d.W[sub], d.y[sub]
        base = float(np.sum((ys - Ws @ beta) ** 2))
        for _ in range(20):
            perturbed = beta + rng.uniform(-0.01, 0.01, size=2)
            assert float(np.sum((ys - Ws @ perturbed) ** 2)) > base

    def test_duplicate_rows_singular(self):
        x = np.array([1.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        d = Dataset.from_xy(x, np.arange(6.0))
        with pytest.raises(SingularMatrix):
            ls_fit_subset(d, np.array([0, 1]))


class TestCStep:
    def test_fixed_point_on_collinear_majority(self):
        d = five_point_outlier_dataset()
        trim = TrimSpec.for_size(5, 0.5)
        beta = np.array([1.0, 2.0])
        beta_next, obj_next = c_step(d, beta, trim)
        assert np.allclose(beta_next, beta, atol=1e-12)
        assert obj_next == pytest.approx(objective(d, beta, trim), abs=1e-30)

    def test_monotone_descent_100_trials(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(10, 30))
            d, _ = random_dataset(rng, n=n, outlier_frac=0.2)
            trim = TrimSpec.for_size(n, 0.75)
            beta = rng.standard_normal(2)
            before = objective(d, beta, trim)
            _, after = c_step(d, beta, trim)
            assert after <= before + 1e-15

    def test_subset_stability_means_convergence(self):
        rng = np.random.default_rng(13)
        d, _ = random_dataset(rng, n=20, outlier_frac=0.2)
        trim = TrimSpec.for_size(20, 0.5)
        beta = rng.standard_normal(2)
        prev = h_subset(d, beta, trim)
        for _ in range(100):
            beta, _ = c_step(d, beta, trim)
            cur = h_subset(d, beta, trim)
            if cur.same_members(prev):
                break
            prev = cur
        else:
            pytest.fail("c-steps did not reach a stable subset")
        # once the subset repeats, another step changes nothing
        beta2, _ = c_step(d, beta, trim)
        assert np.allclose(beta2, beta, atol=1e-12)


class TestFit:
    def test_five_point_example(self):
        d = five_point_outlier_dataset()
        result = fit(d, TrimSpec.for_size(5, 0.5), SolverConfig(n_starts=100, seed=0))
        assert np.allclose(result.beta, [1.0, 2.0], atol=1e-10)
        assert result.objective_value <= 1e-16
        assert result.converged

    def test_matches_enumeration_on_small_instances(self):
        rng = np.random.default_rng(14)
        for k in range(20):
            n = int(rng.integers(8, 13))
            d, _ = random_dataset(rng, n=n, outlier_frac=0.2)
            trim = TrimSpec.for_size(n, 0.5)
            best = exact_enumerate(d, trim)
            got = fit(d, trim, SolverConfig(n_starts=200, seed=k))
            assert abs(got.objective_value - best.objective_value) <= 1e-10

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(15)
        d, _ = random_dataset(rng, n=25, outlier_frac=0.2)
        trim = TrimSpec.for_size(25, 0.75)
        cfg = SolverConfig(n_starts=60, seed=42)
        a = fit(d, trim, cfg)
        b = fit(d, trim, cfg)
        assert np.array_equal(a.beta, b.beta)
        assert a.objective_value == b.objective_value
        assert a.iterations == b.iterations
        assert a.start_index == b.start_index
        assert np.array_equal(a.subset.indices, b.subset.indices)

    def test_fit_invariants(self):
        rng = np.random.default_rng(16)
        d, _ = random_dataset(rng, n=30, outlier_frac=0.1)
        trim = TrimSpec.for_size(30, 0.75)
        result = fit(d, trim, SolverConfig(n_starts=50, seed=3))
        assert result.objective_value == objective(d, result.beta, trim)
        assert result.subset.same_members(h_subset(d, result.beta, trim))

    def test_all_starts_degenerate(self):
        # constant carrier: every pair of rows is rank deficient
        d = Dataset.from_xy(np.full(6, 2.0), np.arange(6.0))
        with pytest.raises(AllStartsDegenerate):
            fit(d, TrimSpec.for_size(6, 0.5), SolverConfig(n_starts=20, seed=0))

    def test_config_needs_a_start(self):
        with pytest.raises(DomainError):
            SolverConfig(n_starts=0)


class TestExactEnumerate:
    def test_candidate_count_boundary(self):
        d = five_point_outlier_dataset()
        trim = TrimSpec(alpha=0.75, h=4)
        assert math.comb(5, 4) == 5
        exact_enumerate(d, trim, max_subsets=5)
        with pytest.raises(TooManySubsets):
            exact_enumerate(d, trim, max_subsets=4)

    def test_no_worse_than_converged_csteps(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(8, 12))
            d, _ = random_dataset(rng, n=n, outlier_frac=0.2)
            trim = TrimSpec.for_size(n, 0.5)
            best = exact_enumerate(d, trim)
            beta = rng.standard_normal(2)
            for _ in range(60):
                beta, obj = c_step(d, beta, trim)
            assert best.objective_value <= obj + 1e-12 * (1.0 + obj)

    def test_collinear_zero_for_any_h(self):
        x = np.arange(8.0)
        d = Dataset.from_xy(x, 1.0 + 2.0 * x)
        for alpha in (0.5, 0.6, 0.75):
            best = exact_enumerate(d, TrimSpec.for_size(8, alpha))
            assert best.objective_value <= 1e-24
            assert np.allclose(best.beta, [1.0, 2.0], atol=1e-9)


class TestCheckStationarity:
    def test_zero_at_exact_subset_fit(self):
        d = five_point_outlier_dataset()
        trim = TrimSpec.for_size(5, 0.5)
        assert check_stationarity(d, np.array([1.0, 2.0]), trim) <= 1e-12

    def test_small_at_fitted_beta(self):
        rng = np.random.default_rng(18)
        d, _ = random_dataset(rng, n=40, outlier_frac=0.2)
        trim = TrimSpec.for_size(40, 0.75)
        result = fit(d, trim, SolverConfig(n_starts=50, seed=7))
        idx = result.subset.indices
        scale = 1.0 + np.linalg.norm(d.W[idx].T @ d.y[idx])
        assert check_stationarity(d, result, trim) <= 1e-8 * scale

    def test_positive_off_optimum(self):
        rng = np.random.default_rng(19)
        d, _ = random_dataset(rng, n=25)
        trim = TrimSpec.for_size(25, 0.75)
        result = fit(d, trim, SolverConfig(n_starts=50, seed=1))
        assert check_stationarity(d, result.beta + 0.1, trim) > 1e-4


class TestEquivariance:
    def test_regression_scale_affine(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            n = int(rng.integers(9, 12))
            d, _ = random_dataset(rng, n=n, outlier_frac=0.2)
            trim = TrimSpec.for_size(n, 0.5)
            base = exact_enumerate(d, trim).beta

            shift = rng.standard_normal(2)
            shifted = Dataset(y=d.y + d.W @ shift, W=d.W)
            assert np.allclose(
                exact_enumerate(shifted, trim).beta, base + shift, atol=1e-8
            )

            s = -2.5
            scaled = Dataset(y=s * d.y, W=d.W)
            assert np.allclose(exact_enumerate(scaled, trim).beta, s * base, atol=1e-8)

            # carrier transform w -> A'w with A' = [[1, 0], [b, g]] keeps the
            # intercept column and maps the minimizer through A^{-1}
            b = float(rng.standard_normal())
            g = float(rng.uniform(0.5, 2.0))
            A = np.array([[1.0, b], [0.0, g]])
            transformed = Dataset(y=d.y, W=d.W @ A)
            expected = np.linalg.solve(A, base)
            assert np.allclose(
                exact_enumerate(transformed, trim).beta, expected, atol=1e-8
            )


def binary_carrier_dataset(rng, n):
    """A rare 0/1 carrier next to a Gaussian one: the h-subsets that miss
    every 1 are rank-deficient."""
    x = np.column_stack([rng.uniform(size=n) < 0.25, rng.standard_normal(n)])
    x[:2, 0] = (1.0, 0.0)
    y = 1.0 + x @ np.array([2.0, -1.0]) + rng.standard_normal(n)
    return Dataset.from_xy(x, y)


def final_subsets(d, trim, seed, n_starts):
    """Final h-subset of each start of fit(..., seed, n_starts), by the
    reference C-step from the start's elemental fit (same draw as fit)."""
    u = make_stream(seed, 0).uniform(size=(n_starts, d.n))
    elem = np.argpartition(u, d.p - 1, axis=1)[:, : d.p]
    out = []
    for rows in elem:
        beta = np.linalg.solve(d.W[rows], d.y[rows])
        prev = None
        for _ in range(100):
            cur = frozenset(h_subset(d, beta, trim).indices.tolist())
            if cur == prev:
                break
            prev = cur
            beta, _ = ref.c_step(d, beta, trim)
        out.append(cur)
    return out


class TestKernel:
    """The batched mask-GEMM kernel against the per-subset loop it replaced."""

    def test_enumerate_matches_reference_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n, p = int(rng.integers(8, 14)), int(rng.integers(2, 4))
            d, _ = random_dataset(rng, n=n, p=p, outlier_frac=0.2)
            trim = TrimSpec.for_size(n, 0.5)
            got = exact_enumerate(d, trim)
            obj, beta = ref.exact_enumerate(d, trim)
            assert abs(got.objective_value - obj) <= 1e-12 * obj
            assert np.allclose(got.beta, beta, rtol=0.0, atol=1e-9)

    def test_singular_subsets_skipped_as_before(self):
        rng = np.random.default_rng(22)
        for n in (8, 9, 10, 11):
            d = binary_carrier_dataset(rng, n)
            trim = TrimSpec.for_size(n, 0.5)
            skipped = 0
            for combo in itertools.combinations(range(n), trim.h):
                try:
                    ref.ls_fit_subset(d, combo)
                    expect_singular = False
                except SingularMatrix:
                    expect_singular = True
                    skipped += 1
                try:
                    ls_fit_subset(d, combo)
                    assert not expect_singular, combo
                except SingularMatrix:
                    assert expect_singular, combo
            assert skipped > 0
            got = exact_enumerate(d, trim)
            obj, beta = ref.exact_enumerate(d, trim)
            assert abs(got.objective_value - obj) <= 1e-12 * obj
            assert np.allclose(got.beta, beta, rtol=0.0, atol=1e-9)

    def test_c_step_matches_reference_step(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n, p = int(rng.integers(10, 40)), int(rng.integers(2, 5))
            d, _ = random_dataset(rng, n=n, p=p, outlier_frac=0.2)
            trim = TrimSpec.for_size(n, 0.75)
            beta = rng.standard_normal(p)
            got_beta, got_obj = c_step(d, beta, trim)
            ref_beta, ref_obj = ref.c_step(d, beta, trim)
            assert got_obj == objective(d, got_beta, trim)
            assert abs(got_obj - ref_obj) <= 1e-12 * ref_obj
            assert np.allclose(got_beta, ref_beta, rtol=1e-12, atol=1e-12)

    def test_ties_at_rank_h_keep_smallest_indices(self):
        # A bootstrap resample repeats rows, so the squared residuals at
        # ranks h and h+1 are often exactly equal; carriers far from zero
        # (1e7 + z) leave the residuals fewer bits.
        n = 30
        trim = TrimSpec.for_size(n, 0.5)
        for seed, p, shift in [(24, 2, 0.0), (27, 3, 1e7), (28, 4, 0.0), (29, 5, 1e7)]:
            rng = np.random.default_rng(seed)
            base, _ = random_dataset(rng, n=n, p=p, outlier_frac=0.2)
            idx = rng.integers(0, n, size=n)
            W = base.W[idx]
            W[:, 1:] += shift
            d = Dataset(y=base.y[idx], W=W)
            betas = rng.standard_normal((400, p))
            betas[:, 0] -= shift * betas[:, 1:].sum(axis=1)
            _, mask = solver._retain([d.y], [d.W], betas, trim.h, [(0, 0, len(betas))])
            tied = 0
            for beta, row in zip(betas, mask):
                # The oracle: rows ordered by (r^2, index), the first h kept.
                r2 = residuals(d, beta) ** 2
                order = np.lexsort((np.arange(n), r2))[: trim.h]
                assert np.array_equal(np.flatnonzero(row), np.sort(order))
                assert np.array_equal(h_subset(d, beta, trim).indices, order)
                ranked = np.sort(r2)
                tied += ranked[trim.h - 1] == ranked[trim.h]
            assert tied >= 20, (seed, p, shift)

    def test_earliest_start_wins_ties(self):
        # Several starts reach the winning subset on each instance; the
        # winner is the first of them, and the starts are prefix-stable.
        # At n = 120 all 40 starts are in flight at once; at n = 3000 the
        # block holds 21 rows, refilled as starts finish, and a start drawn
        # after the first 21 reaches the winning subset again, so starts
        # that finish out of start order are ranked by start index.
        for k, n, n_starts in [(2, 120, 40), (6, 120, 40), (11, 120, 40), (5, 3000, 60)]:
            d, _ = random_dataset(np.random.default_rng(k), n=n, p=3, outlier_frac=0.2)
            trim = TrimSpec.for_size(d.n, 0.5)
            best = fit(d, trim, SolverConfig(n_starts=n_starts, seed=k))
            win = frozenset(best.subset.indices.tolist())
            finals = final_subsets(d, trim, k, n_starts)
            hits = [i for i, sub in enumerate(finals) if sub == win]
            assert len(hits) > 1 and best.start_index == hits[0] > 0
            if n == 3000:
                block = solver._sizes(n)[0]
                assert hits[-1] // block > hits[0] // block
            s = best.start_index
            fewer = fit(d, trim, SolverConfig(n_starts=s, seed=k))
            assert fewer.objective_value > best.objective_value
            again = fit(d, trim, SolverConfig(n_starts=s + 1, seed=k))
            assert again.start_index == s
            assert again.beta.tobytes() == best.beta.tobytes()

    def test_start_that_dies_after_a_step_is_dropped(self):
        # Rare binary carriers: of 20 elemental starts only start 5 is full
        # rank, and its retained rows lose a carrier after one C-step.  A
        # start that dies mid-descent must not win with the objective it
        # had before it died.
        rng = np.random.default_rng(1496)
        x = (rng.uniform(size=(20, 2)) < 0.1).astype(float)
        y = rng.standard_normal(20) + x @ [3.0, -3.0]
        y[:4] += 10 * rng.standard_normal(4)
        d, trim = Dataset.from_xy(x, y), TrimSpec.for_size(20, 0.75)
        u = make_stream(0, 0).uniform(size=(20, d.n))
        elem = np.argpartition(u, d.p - 1, axis=1)[:, : d.p]
        beta, _ = c_step(d, ls_fit_subset(d, elem[5]), trim)
        with pytest.raises(SingularMatrix):
            c_step(d, beta, trim)
        with pytest.raises(AllStartsDegenerate):
            fit(d, trim, SolverConfig(n_starts=20, seed=0))

    def test_stacked_slots_match_one_fit_each(self):
        # Three 50-start slots at n = 1600, where a block holds 32 rows:
        # blocks mix slots and every slot straddles blocks.  Each slot's
        # winner is bit for bit the winner of its own fit.
        rng = np.random.default_rng(33)
        datas = [random_dataset(rng, n=1600, p=3, outlier_frac=0.2)[0] for _ in range(3)]
        trim = TrimSpec.for_size(1600, 0.75)
        assert solver._sizes(1600)[0] == 32
        bests, rejected = solver._fits(datas, trim, 50, [4, 5, 6])
        assert rejected.tolist() == [0, 0, 0]
        for d, seed, (obj, beta, iters, conv, index) in zip(datas, (4, 5, 6), bests):
            alone = fit(d, trim, SolverConfig(n_starts=50, seed=seed))
            assert beta.tobytes() == alone.beta.tobytes()
            assert (obj, iters, conv, index) == (
                alone.objective_value, alone.iterations, alone.converged,
                alone.start_index)

    def test_block_stays_full(self, monkeypatch):
        # 60 starts at n = 3000, where a block holds 21 rows: every pass
        # before the source runs dry refits a full block, and a new row
        # (an elemental mask, p rows set) enters as soon as a row leaves.
        # A start that reaches a mask of a finished chain leaves at once,
        # so fewer rows are refit than by the block-by-block driver.
        d, _ = random_dataset(np.random.default_rng(5), n=3000, p=3, outlier_frac=0.2)
        trim = TrimSpec.for_size(d.n, 0.5)
        block = solver._sizes(d.n)[0]
        assert block == 21

        def counting(module, name, log):
            inner = getattr(module, name)

            def wrapper(mask, *args):
                log.append((mask.shape[0], int(np.sum(mask.sum(axis=1) == d.p))))
                return inner(mask, *args)

            monkeypatch.setattr(module, name, wrapper)

        passes, before = [], []
        counting(solver, "_refit", passes)
        got = fit(d, trim, SolverConfig(n_starts=60, seed=5))
        rows, new = map(np.array, zip(*passes))
        drawn = np.cumsum(new)
        assert drawn[-1] == 60
        assert np.all(rows[drawn < 60] == block)
        assert np.all(np.diff(rows[drawn == 60]) <= 0)
        counting(ref, "block_refit", before)
        monkeypatch.setattr(solver, "_search", ref.block_search)
        want = fit(d, trim, SolverConfig(n_starts=60, seed=5))
        assert got.beta.tobytes() == want.beta.tobytes()
        assert len(passes) < len(before)
        assert rows.sum() < sum(k for k, _ in before)

    def test_shared_chains_refit_count(self, monkeypatch):
        # The rows _refit sees in a 500-start fit at n = 5000 with 20%
        # outliers: 4068 when every start runs its own chain to the end,
        # 2494 when a start that reaches a finished chain's mask takes
        # that chain's outcome.  A table that stops finding chains fails
        # here.
        d, _ = random_dataset(np.random.default_rng(5000), n=5000, p=3, outlier_frac=0.2)
        rows = []
        refit = solver._refit

        def counting(mask, *args):
            rows.append(mask.shape[0])
            return refit(mask, *args)

        monkeypatch.setattr(solver, "_refit", counting)
        got = fit(d, TrimSpec.for_size(d.n, 0.75), SolverConfig(n_starts=500, seed=1))
        assert sum(rows) == 2494
        assert (got.start_index, got.iterations) == (0, 5)

    def test_overflow_is_not_called_rank_deficiency(self):
        # y scaled by 1e160: every squared residual overflows, while the
        # rare binary carrier still makes some elemental subsets singular.
        # Scaling y moves no pivot, so the singular ones are those of the
        # unscaled data.
        d = binary_carrier_dataset(np.random.default_rng(32), 40)
        trim = TrimSpec.for_size(40, 0.75)
        u = make_stream(0, 0).uniform(size=(200, d.n))
        singular = 0
        for rows in np.argpartition(u, d.p - 1, axis=1)[:, : d.p]:
            try:
                ls_fit_subset(d, rows)
            except SingularMatrix:
                singular += 1
        assert 0 < singular < 200
        big = Dataset(y=d.y * 1e160, W=d.W)
        with pytest.raises(AllStartsDegenerate) as err:
            fit(big, trim, SolverConfig(n_starts=200, seed=0))
        assert str(err.value) == (
            f"all 200 elemental starts failed: {singular} hit rank-deficient "
            f"subsets, {200 - singular} reached a non-finite objective (the "
            "squared residuals overflow)")

    def test_fit_memory_is_bounded(self):
        # Peaks without the chain table: 3.03 MiB for 500 starts at
        # n = 2e4, 1.60 MB for 5000 starts at n = 30.  The table's keys take
        # at most one block, 8 * _BLOCK_FLOATS bytes, and so do the records
        # that go with them; at n = 2e4 a key is far longer than its
        # records, at n = 30 shorter.  The first fit in a process also
        # imports numpy.ma (np.median does, on first use), so a one-start
        # fit runs before each count.
        for n, n_starts, before, blocks in [
                (20_000, 500, 3.03 * 2**20, 1), (30, 5000, 1.61e6, 2)]:
            d, _ = random_dataset(np.random.default_rng(25), n=n, p=3, outlier_frac=0.2)
            trim = TrimSpec.for_size(d.n, 0.75)
            fit(d, trim, SolverConfig(n_starts=1, seed=0))
            tracemalloc.start()
            try:
                fit(d, trim, SolverConfig(n_starts=n_starts, seed=1))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < before + blocks * 8 * _BLOCK_FLOATS, n

    SHIFT_SCALE = [(1e7, 1e5), (0.0, 1e-7), (0.0, 1e9), (1e7, 1.0), (-1e9, 10.0)]

    @staticmethod
    def shifted_line(n):
        rng = np.random.default_rng(26)
        z = rng.standard_normal(n)
        y = 2.0 + 3.0 * z + 0.1 * rng.standard_normal(n)
        y[: 3 * n // 20] += 20.0
        return z, y

    @pytest.mark.parametrize("shift, scale", SHIFT_SCALE)
    def test_fit_is_unit_and_offset_free(self, shift, scale):
        # The same regression with the carrier in other units and about
        # another origin: the rank test must not reject its subsets, and
        # the fit must keep the same rows with the transformed beta.
        z, y = self.shifted_line(200)
        trim = TrimSpec.for_size(200, 0.75)
        config = SolverConfig(n_starts=100, seed=1)
        base = fit(Dataset.from_xy(z, y), trim, config)
        moved = fit(Dataset.from_xy(shift + scale * z, y), trim, config)
        assert set(moved.subset.indices) == set(base.subset.indices)
        # Residuals y - beta_0 - beta_1 x cancel about |shift| / scale times
        # the residual scale, whatever the solver does.
        rel = 1e-9 + 1e-14 * abs(shift) / scale
        assert moved.objective_value == pytest.approx(base.objective_value, rel=rel)
        assert moved.beta[1] * scale == pytest.approx(base.beta[1], rel=1e-9)

    @pytest.mark.parametrize("shift, scale", SHIFT_SCALE)
    def test_enumerate_is_unit_and_offset_free(self, shift, scale):
        z, y = self.shifted_line(12)
        trim = TrimSpec.for_size(12, 0.5)
        want = exact_enumerate(Dataset.from_xy(z, y), trim)
        got = exact_enumerate(Dataset.from_xy(shift + scale * z, y), trim)
        assert set(got.subset.indices) == set(want.subset.indices)
        assert got.beta[1] * scale == pytest.approx(want.beta[1], rel=1e-9)


def chain_branches(log):
    """Of the lookups in ``log`` (entry records, end records, the rows'
    objectives and C-steps, the step cap, merge) that found a finished
    chain, or another start's end in that start's cell of the ring of ends:
    how many merged, and how many each check decided."""
    counts = dict.fromkeys(
        ["merged", "cut_merged", "cap_refused", "cut_refused", "test_refused",
         "stop_merged", "rejected_merged", "other_end"], 0)
    for ent, end, obj, step, steps, merge in log:
        done = end[:, _START] == ent[:, _START]
        small = (obj - ent[:, _OBJ]) <= solver.TOL_OBJECTIVE * (obj + solver._TINY)
        agree = (ent[:, _SAME] == 1) | (small == (ent[:, _STOP] == 1))
        cut = (end[:, _END] == _ALIVE) & (end[:, _STOP] == 0)
        within = (end[:, _STEP] <= steps) & (~cut | (step == ent[:, _STEP]))
        assert np.array_equal(merge, done & agree & within)
        counts["merged"] += int(merge.sum())
        counts["cut_merged"] += int((merge & cut).sum())
        counts["cap_refused"] += int((done & agree & ~cut & (end[:, _STEP] > steps)).sum())
        counts["cut_refused"] += int((done & agree & cut & (step != ent[:, _STEP])).sum())
        counts["test_refused"] += int((done & ~agree).sum())
        counts["stop_merged"] += int((merge & (ent[:, _SAME] == 0)).sum())
        counts["rejected_merged"] += int((merge & (end[:, _END] == _REJECTED)).sum())
        counts["other_end"] += int((~done & (end[:, _START] >= 0)).sum())
    return counts


class TestBlockReference:
    """The refilled block against the block-by-block driver it replaced,
    ``reference_solver.block_search``: the same bits for every answer."""

    @staticmethod
    def on_block_driver(monkeypatch, call):
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_search", ref.block_search)
            return call()

    @staticmethod
    def assert_same_fit(got, want):
        assert got.beta.tobytes() == want.beta.tobytes()
        for field in ("objective_value", "iterations", "converged", "start_index"):
            assert getattr(got, field) == getattr(want, field), field
        assert np.array_equal(got.subset.indices, want.subset.indices)

    @pytest.mark.parametrize("n, n_starts, alpha", [
        (1600, 100, 0.75), (3000, 60, 0.5), (5000, 40, 0.9)])
    def test_fit(self, monkeypatch, n, n_starts, alpha):
        assert solver._sizes(n)[0] < n_starts
        d, _ = random_dataset(np.random.default_rng(n), n=n, p=3, outlier_frac=0.2)
        trim = TrimSpec.for_size(n, alpha)
        config = SolverConfig(n_starts=n_starts, seed=n)
        call = lambda: fit(d, trim, config)
        self.assert_same_fit(call(), self.on_block_driver(monkeypatch, call))

    @pytest.mark.parametrize("binary", [False, True])
    def test_stacked_slots(self, monkeypatch, binary):
        # Three 50-start slots at n = 1600 (32-row blocks); on rare binary
        # carriers many elemental starts are rank-deficient, so the
        # rejection counts are compared too.
        rng = np.random.default_rng(34)
        if binary:
            datas = [binary_carrier_dataset(rng, 1600) for _ in range(3)]
        else:
            datas = [random_dataset(rng, n=1600, p=3, outlier_frac=0.2)[0]
                     for _ in range(3)]
        trim = TrimSpec.for_size(1600, 0.75)
        call = lambda: solver._fits(datas, trim, 50, [7, 8, 9])
        got, got_rejected = call()
        want, want_rejected = self.on_block_driver(monkeypatch, call)
        assert got_rejected.tolist() == want_rejected.tolist()
        assert (min(got_rejected) > 0) == binary
        for (g_obj, g_beta, *g_rest), (w_obj, w_beta, *w_rest) in zip(got, want):
            assert g_beta.tobytes() == w_beta.tobytes()
            assert (g_obj, *g_rest) == (w_obj, *w_rest)

    def test_dead_starts(self, monkeypatch):
        # Of 20 starts only one is full rank, and it dies after a C-step.
        rng = np.random.default_rng(1496)
        x = (rng.uniform(size=(20, 2)) < 0.1).astype(float)
        y = rng.standard_normal(20) + x @ [3.0, -3.0]
        y[:4] += 10 * rng.standard_normal(4)
        d, trim = Dataset.from_xy(x, y), TrimSpec.for_size(20, 0.75)
        call = lambda: solver._fits([d], trim, 20, [0])
        got, want = call(), self.on_block_driver(monkeypatch, call)
        assert got[0] == want[0] == [None]
        assert got[1].tolist() == want[1].tolist() == [20]

    @staticmethod
    def lookups(monkeypatch):
        """A log of every lookup of the chain table that found an entry
        for rows about to refit its mask (see ``chain_branches``)."""
        log = []
        follow = solver._Chains.follow

        def logged(self, e, obj, step, steps):
            merge, end = follow(self, e, obj, step, steps)
            log.append((self.entry[e], end.copy(), obj, step, steps, merge))
            return merge, end

        monkeypatch.setattr(solver._Chains, "follow", logged)
        return log

    def assert_every_start(self, monkeypatch, d, trim, n_starts, seed):
        """``_fits`` on one dataset against the block-by-block driver: the
        same winner and rejection count, and for every start that outlived
        its elemental fit, the same outcome as that start alone, a slot of
        its own in ``block_search``.  Returns the rejection count."""
        ends = {}
        finish = solver._Chains.finish

        def logged(self, start, rec):
            ends.update(zip(start.tolist(), rec.copy()))
            finish(self, start, rec)

        monkeypatch.setattr(solver._Chains, "finish", logged)
        call = lambda: solver._fits([d], trim, n_starts, [seed])
        (got,), got_rejected = call()
        (want,), want_rejected = self.on_block_driver(monkeypatch, call)
        assert got_rejected.tolist() == want_rejected.tolist()
        assert got[1].tobytes() == want[1].tobytes()
        assert (got[0], *got[2:]) == (want[0], *want[2:])
        # Each start's row set, as ``_fits`` draws them.
        u = make_stream(seed, 0).uniform(size=(n_starts, d.n))
        rows = np.argpartition(u, d.p - 1, axis=1)[:, : d.p]
        for i, rec in ends.items():
            (alone,), rejected = ref.block_search(
                [(d, 1, lambda k: rows[i][None])], trim.h, solver.MAX_CSTEPS)
            if rec[_END] == _ALIVE:
                obj, beta, iters, conv, _ = alone
                assert beta.tobytes() == rec[_BETA:].tobytes()
                assert (obj, iters, conv) == (rec[_OBJ], rec[_STEP], rec[_STOP] == 1)
            else:
                assert alone is None
                assert rejected[0] == (rec[_END] == _REJECTED)
        return got_rejected[0]

    def test_chains_at_the_step_cap(self, monkeypatch):
        # At most three C-steps (``_fits`` hands the cap to either driver).
        # A start that meets a converged chain must run on when it would
        # reach the chain's end after the cap, and one that meets a chain
        # cut at the cap unconverged must run on unless it met it at the
        # same C-step: it would stop at another mask.
        monkeypatch.setattr(solver, "MAX_CSTEPS", 3)
        log = self.lookups(monkeypatch)
        d, _ = random_dataset(np.random.default_rng(2), n=1600, p=3, outlier_frac=0.2)
        trim = TrimSpec.for_size(1600, 0.75)
        self.assert_every_start(monkeypatch, d, trim, 300, 2)
        counts = chain_branches(log)
        assert counts["cap_refused"] > 0 and counts["cut_refused"] > 0
        assert counts["cut_merged"] > 0

    def test_chains_stopped_by_the_tolerance(self, monkeypatch):
        # A loose tolerance in both drivers: starts stop on a small drop of
        # the objective before their mask repeats, and whether a start that
        # meets a chain stops there too depends on its own objective.
        monkeypatch.setattr(solver, "TOL_OBJECTIVE", 1e-3)
        monkeypatch.setattr(ref, "TOL_OBJECTIVE", 1e-3)
        log = self.lookups(monkeypatch)
        d, _ = random_dataset(np.random.default_rng(0), n=1600, p=3, outlier_frac=0.2)
        trim = TrimSpec.for_size(1600, 0.75)
        self.assert_every_start(monkeypatch, d, trim, 100, 0)
        counts = chain_branches(log)
        assert counts["stop_merged"] > 0 and counts["test_refused"] > 0

    def test_chains_that_die(self, monkeypatch):
        # A binary carrier set on 8 of 30 rows, whose responses lie in
        # pairs about the line of the others: as a start's fit improves it
        # trims them pair by pair, and loses the carrier with the last
        # pair.  A start that meets such a chain dies with it, rejected by
        # the pivot rule.  2500 starts: more than the 2176 rows of a block,
        # which the table needs.
        rng = np.random.default_rng(0)
        x = np.column_stack([np.zeros(30), rng.standard_normal(30)])
        x[:8] = (1.0, 0.0)
        y = 1.0 + x @ [2.0, -1.0] + rng.standard_normal(30)
        y[:8] = 3.0 + 2.0 * np.array([1, 2, 3, 4, -1, -2, -3, -4])
        d, trim = Dataset.from_xy(x, y), TrimSpec.for_size(30, 0.5)
        log = self.lookups(monkeypatch)
        rejected = self.assert_every_start(monkeypatch, d, trim, 2500, 0)
        assert rejected > 0 and chain_branches(log)["rejected_merged"] > 0

    def test_chains_in_a_small_table(self, monkeypatch):
        # The table cut to 2**10 floats' bytes: 39 keys at n = 1600, on
        # 256 index cells, and a ring of 39 ends for 100 starts.  Keys are
        # overwritten, index cells go stale, and a start's cell of the ring
        # holds another start's end: each must be only a miss.
        monkeypatch.setattr(solver, "_BLOCK_FLOATS", 2**10)
        log = self.lookups(monkeypatch)
        d, _ = random_dataset(np.random.default_rng(3), n=1600, p=3, outlier_frac=0.2)
        trim = TrimSpec.for_size(1600, 0.75)
        self.assert_every_start(monkeypatch, d, trim, 100, 3)
        counts = chain_branches(log)
        assert counts["merged"] > 0 and counts["other_end"] > 0

    def test_exact_enumerate(self, monkeypatch):
        rng = np.random.default_rng(35)
        for n, p in [(12, 2), (14, 3), (13, 4)]:
            d, _ = random_dataset(rng, n=n, p=p, outlier_frac=0.2)
            trim = TrimSpec.for_size(n, 0.5)
            call = lambda: exact_enumerate(d, trim)
            self.assert_same_fit(call(), self.on_block_driver(monkeypatch, call))

    def test_c_step_and_ls_fit_subset(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            n, p = int(rng.integers(10, 60)), int(rng.integers(2, 5))
            d, _ = random_dataset(rng, n=n, p=p, outlier_frac=0.2)
            trim = TrimSpec.for_size(n, 0.75)
            beta = rng.standard_normal(p)
            got, want = c_step(d, beta, trim), ref.block_c_step(d, beta, trim)
            assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
            rows = rng.choice(n, size=p + 2, replace=False)
            mask = np.zeros((1, n), dtype=bool)
            mask[0, rows] = True
            stack = solver._stack([d])
            want_beta, ok = ref.block_refit(mask, stack, np.zeros(1, np.intp))
            assert ok[0]
            assert ls_fit_subset(d, rows).tobytes() == want_beta[0].tobytes()
