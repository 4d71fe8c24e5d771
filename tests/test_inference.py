"""Confidence regions: asymptotic normal ball and bootstrap depth region."""

import logging
import tracemalloc

import numpy as np
import pytest

import reference_solver as ref
from trimreg import inference, simulate
from trimreg import (
    Dataset,
    DomainError,
    ResampleExhausted,
    SolverConfig,
    TrimSpec,
    bootstrap_fits,
    chi2_quantile,
    ci_depth_region,
    ci_normal_ball,
    depth,
    fit,
    make_stream,
    trim_constants,
)
from helpers import random_dataset


def _fit_for_region(seed=0):
    rng = np.random.default_rng(seed)
    d, _ = random_dataset(rng, n=24, outlier_frac=0.1)
    trim = TrimSpec.for_size(24, 0.75)
    return d, trim, fit(d, trim, SolverConfig(n_starts=50, seed=seed))


class TestNormalBall:
    def test_corrected_radius_example(self):
        # alpha 0.75, sigma 1, p = 2, n = 1000, gamma 0.05:
        # radius = sqrt(cov_factor/1000 * chi2_quantile(2, 0.95))
        _, _, result = _fit_for_region()
        constants = trim_constants(0.75, 1.0)
        region = ci_normal_ball(result, constants, 1000, 0.05, "corrected")
        assert region.radius == pytest.approx(0.05425862495154882, abs=1e-12)
        assert region.radius == pytest.approx(0.054253, abs=1e-5)

    def test_paper_literal_radius(self):
        _, _, result = _fit_for_region()
        constants = trim_constants(0.75, 1.0)
        region = ci_normal_ball(result, constants, 1000, 0.05, "paper-literal")
        expected = np.sqrt(constants.cov_factor / 1000) * chi2_quantile(2, 0.05)
        assert region.radius == pytest.approx(expected, rel=1e-14)
        assert region.mode == "paper-literal"

    def test_root_n_scaling_exact(self):
        _, _, result = _fit_for_region()
        constants = trim_constants(0.75, 1.0)
        r_n = ci_normal_ball(result, constants, 500, 0.05).radius
        r_4n = ci_normal_ball(result, constants, 2000, 0.05).radius
        assert r_4n == r_n / 2.0

    def test_sigma_doubling_doubles_radius(self):
        _, _, result = _fit_for_region()
        r1 = ci_normal_ball(result, trim_constants(0.75, 1.0), 100, 0.05).radius
        r2 = ci_normal_ball(result, trim_constants(0.75, 2.0), 100, 0.05).radius
        assert r2 == pytest.approx(2.0 * r1, rel=1e-14)

    def test_boundary_is_member(self):
        from trimreg import NormalBallRegion

        # zero center makes the edge distance exact in floating point
        region = NormalBallRegion(
            center=np.zeros(2), radius=0.25, gamma=0.05, mode="corrected"
        )
        assert region.contains(np.array([0.25, 0.0]))
        assert not region.contains(np.array([np.nextafter(0.25, 1.0), 0.0]))
        assert region.contains(region.center)
        # fitted-center region: strict inside/outside with a safe margin
        _, _, result = _fit_for_region()
        fitted = ci_normal_ball(result, trim_constants(0.75, 1.0), 100, 0.05)
        assert fitted.contains(fitted.center + np.array([fitted.radius - 1e-9, 0.0]))
        assert not fitted.contains(fitted.center + np.array([fitted.radius + 1e-9, 0.0]))

    def test_domain(self):
        _, _, result = _fit_for_region()
        constants = trim_constants(0.75, 1.0)
        with pytest.raises(DomainError):
            ci_normal_ball(result, constants, 100, 0.0)
        with pytest.raises(DomainError):
            ci_normal_ball(result, constants, 100, 0.05, mode="bogus")


class TestBootstrapFits:
    def test_shape_and_determinism(self):
        d, trim, _ = _fit_for_region(1)
        cfg = SolverConfig(n_starts=20, seed=0)
        a = bootstrap_fits(d, trim, 12, cfg, make_stream(5, 0))
        b = bootstrap_fits(d, trim, 12, cfg, make_stream(5, 0))
        assert a.shape == (12, 2)
        assert np.array_equal(a, b)

    def test_clean_line_recovered_when_enough_clean_rows(self):
        # 6 points on y = 1 + 2x plus one gross outlier; any resample that
        # keeps >= h clean rows with two distinct carriers must refit the
        # line exactly
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        y = 1.0 + 2.0 * x
        y[-1] = 1e4
        d = Dataset.from_xy(x, y)
        trim = TrimSpec.for_size(7, 0.5)  # h = 4
        m = 40
        stream = make_stream(6, 0)
        cloud = bootstrap_fits(d, trim, m, SolverConfig(n_starts=150, seed=0), stream)
        checked = 0
        for j in range(m):
            child = stream.child(j)
            idx = child.integers(0, 7, size=7)
            counts = np.bincount(idx, minlength=7)
            clean = idx[idx != 6]
            enough_clean = clean.size >= trim.h and np.unique(x[clean]).size >= 2
            # no competing exact fit: a line through the outlier and a single
            # repeated carrier must cover fewer than h rows
            no_rival = counts[6] == 0 or counts[6] + counts[:6].max() < trim.h
            if enough_clean and no_rival:
                assert np.allclose(cloud[j], [1.0, 2.0], atol=1e-8)
                checked += 1
        assert checked > 0

    def test_redraws_match_the_reference_loop(self, caplog):
        # The second carrier is 1 on 2 of 20 rows: a resample or an
        # elemental start without those rows is rank-deficient, so at 3
        # starts many slots need a redraw, inside one lockstep group.
        rng = np.random.default_rng(0)
        z, b = rng.standard_normal(20), np.zeros(20)
        b[[3, 11]] = 1.0
        d = Dataset.from_xy(np.column_stack([z, b]),
                            1 + 2 * z + 3 * b + 0.3 * rng.standard_normal(20))
        trim = TrimSpec.for_size(20, 0.75)
        cfg = SolverConfig(n_starts=3, seed=0)
        expected, redraws = ref.bootstrap_fits(d, trim, 30, cfg, make_stream(0, 0))
        with caplog.at_level(logging.INFO, logger="trimreg.simulate"):
            cloud = bootstrap_fits(d, trim, 30, cfg, make_stream(0, 0))
        assert redraws >= 1
        assert cloud.tobytes() == expected.tobytes()
        assert f"redrew {redraws} degenerate" in caplog.text

    def test_pool_redraws_match_the_reference_loop(self, caplog):
        # The dataset of test_redraws_match_the_reference_loop, on the
        # engine's process pool: each worker redraws its own slots.
        rng = np.random.default_rng(0)
        z, b = rng.standard_normal(20), np.zeros(20)
        b[[3, 11]] = 1.0
        d = Dataset.from_xy(np.column_stack([z, b]),
                            1 + 2 * z + 3 * b + 0.3 * rng.standard_normal(20))
        trim = TrimSpec.for_size(20, 0.75)
        cfg = SolverConfig(n_starts=3, seed=0)
        expected, redraws = ref.bootstrap_fits(d, trim, 30, cfg, make_stream(0, 0))
        groups = [(d, trim, 30)]
        serial = simulate._replicate_fits(make_stream(0, 0), groups, cfg)
        with caplog.at_level(logging.INFO, logger="trimreg.simulate"):
            pooled = simulate._replicate_fits(make_stream(0, 0), groups, cfg, 2)
        assert redraws >= 1
        assert f"redrew {redraws} degenerate" in caplog.text
        assert pooled[0].tobytes() == expected.tobytes()
        for got, want in zip(pooled, serial):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, m", [(100, 30), (1600, 3)])
    def test_lockstep_groups_match_the_reference_loop(self, n, m):
        # n = 100: twelve 50-start slots share a block, over three groups.
        # n = 1600: a block holds 32 rows, so each slot straddles two.
        rng = np.random.default_rng(n)
        d, _ = random_dataset(rng, n=n, p=3, outlier_frac=0.2)
        trim = TrimSpec.for_size(n, 0.75)
        cfg = SolverConfig(n_starts=50, seed=0)
        block = simulate._sizes(n)[0]
        assert (block // 50, block % 50) == {100: (12, 40), 1600: (0, 32)}[n]
        expected, _ = ref.bootstrap_fits(d, trim, m, cfg, make_stream(7, 0))
        cloud = bootstrap_fits(d, trim, m, cfg, make_stream(7, 0))
        assert cloud.tobytes() == expected.tobytes()

    def test_exhausted_when_every_draw_is_degenerate(self, caplog):
        # an all-zero carrier makes every start of every resample singular
        rng = np.random.default_rng(0)
        d = Dataset.from_xy(np.column_stack([rng.standard_normal(12), np.zeros(12)]),
                            rng.standard_normal(12))
        with caplog.at_level(logging.DEBUG, logger="trimreg.simulate"):
            with pytest.raises(ResampleExhausted, match="replication 0: 10 consecutive"):
                bootstrap_fits(d, TrimSpec.for_size(12, 0.75), 3,
                               SolverConfig(n_starts=5, seed=0))
        attempts = [r for r in caplog.records
                    if r.getMessage().startswith("replication 0 draw ")]
        assert len(attempts) == simulate.MAX_REDRAWS + 1 == 11

    def test_lowest_exhausted_slot_is_named(self, caplog):
        # One row carries the second carrier and each fit has one start:
        # slots 19, 24 and 25 of the one lockstep group exhaust their
        # redraws, and slot 19 is named, as in the per-slot loop.
        rng = np.random.default_rng(1)
        z, b = rng.standard_normal(12), np.zeros(12)
        b[0] = 1.0
        d = Dataset.from_xy(np.column_stack([z, b]),
                            1 + 2 * z + 3 * b + 0.3 * rng.standard_normal(12))
        trim, cfg = TrimSpec.for_size(12, 0.75), SolverConfig(n_starts=1, seed=0)
        with pytest.raises(ResampleExhausted, match="resample 19$"):
            ref.bootstrap_fits(d, trim, 30, cfg, make_stream(1, 0))
        with caplog.at_level(logging.DEBUG, logger="trimreg.simulate"):
            with pytest.raises(ResampleExhausted, match="replication 19: 10 consecutive"):
                bootstrap_fits(d, trim, 30, cfg, make_stream(1, 0))
        last = [r.getMessage() for r in caplog.records
                if r.getMessage().endswith(" draw 10 degenerate")]
        assert last == [f"replication {j} draw 10 degenerate" for j in (19, 24, 25)]

    def test_memory_does_not_grow_with_m(self):
        # Lockstep groups follow the kernel's block budget, not m: only the
        # per-slot results grow, by well under 1 kB a slot, where holding
        # every resample at once would take 30 kB a slot.
        rng = np.random.default_rng(31)
        d, _ = random_dataset(rng, n=200, p=3, outlier_frac=0.1)
        trim, cfg = TrimSpec.for_size(200, 0.75), SolverConfig(n_starts=50)
        bootstrap_fits(d, trim, 50, cfg, make_stream(2, 0))  # warm caches
        peaks = []
        for m in (50, 400):
            tracemalloc.start()
            try:
                bootstrap_fits(d, trim, m, cfg, make_stream(2, 0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 512 * 2**10, peaks


class TestDepth:
    def test_one_dimensional_rank_formula(self):
        cloud = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert depth(3.0, cloud) == pytest.approx(3 / 5)
        assert depth(1.0, cloud) == pytest.approx(1 / 5)
        assert depth(0.0, cloud) == 0.0
        assert depth(2.5, cloud) == pytest.approx(2 / 5)

    def test_dominating_corner_depth(self):
        rng = np.random.default_rng(30)
        cloud = np.vstack([rng.standard_normal((19, 2)), [[10.0, 10.0]]])
        d = depth(np.array([10.0, 10.0]), cloud, 400, make_stream(7, 0))
        assert d == pytest.approx(1 / 20)

    def test_translation_invariance(self):
        rng = np.random.default_rng(31)
        cloud = rng.standard_normal((30, 2))
        point = np.array([0.2, -0.1])
        shift = np.array([5.0, -3.0])
        d1 = depth(point, cloud, 200, make_stream(8, 0))
        d2 = depth(point + shift, cloud + shift, 200, make_stream(8, 0))
        assert d1 == d2

    def test_more_directions_never_increase(self):
        rng = np.random.default_rng(32)
        cloud = rng.standard_normal((40, 3))
        point = 0.3 * rng.standard_normal(3)
        # same stream key: the first d1 directions are a prefix of the d2 set
        d_small = depth(point, cloud, 100, make_stream(9, 0))
        d_large = depth(point, cloud, 1000, make_stream(9, 0))
        assert d_large <= d_small

    def test_empty_cloud_rejected(self):
        with pytest.raises(DomainError):
            depth(0.0, np.zeros((0, 1)))


def _rankdata_min_side(proj):
    """min(#<=, #>=) per column by scipy.stats.rankdata, a test-only oracle."""
    from scipy.stats import rankdata

    m = proj.shape[0]
    le = rankdata(proj, method="max", axis=0)
    ge = m - rankdata(proj, method="min", axis=0) + 1
    return np.minimum(le, ge)


def _oracle_region(cloud, region):
    """(depths, retained, threshold) of ``region`` recomputed with the
    rankdata oracle on the region's own direction set."""
    m, p = cloud.shape
    stream = make_stream(*region.direction_seed)
    proj = cloud if p == 1 else (
        cloud @ inference._unit_directions(stream, region.n_directions, p).T)
    depths = _rankdata_min_side(proj).min(axis=1) / m
    order = np.lexsort((np.arange(m), depths))
    retained = np.sort(order[int(np.floor(region.gamma * m)):])
    return depths, retained, float(depths[retained].min())


class TestDepthRegion:
    def _cloud(self, m=200, seed=33):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((m, 2))

    def test_retained_count(self):
        cloud = self._cloud(200)
        region = ci_depth_region(cloud, 0.05, stream=make_stream(10, 0))
        assert region.retained.size == 200 - 10
        assert region.depths.size == 200
        trimmed = sorted(set(range(200)) - set(region.retained.tolist()))
        assert max(region.depths[trimmed]) <= min(region.depths[region.retained])
        depths, retained, threshold = _oracle_region(cloud, region)
        assert np.array_equal(region.depths, depths)
        assert np.array_equal(region.retained, retained)
        assert region.threshold == threshold

    @pytest.mark.parametrize("kind", ["continuous", "duplicated_rows", "p1_repeats"])
    def test_side_counts_match_rankdata(self, kind):
        rng = np.random.default_rng(38)
        if kind == "continuous":
            cloud = rng.standard_normal((120, 3))
        elif kind == "duplicated_rows":
            base = np.round(rng.standard_normal((40, 2)), 1)
            cloud = base[rng.integers(0, 40, size=150)]
        else:
            cloud = rng.integers(0, 6, size=(90, 1)).astype(np.float64)
        p = cloud.shape[1]
        proj = cloud if p == 1 else cloud @ rng.standard_normal((500, p)).T
        assert np.array_equal(inference._side_counts(proj), _rankdata_min_side(proj))
        region = ci_depth_region(cloud, 0.1, stream=make_stream(17, 0))
        depths, retained, threshold = _oracle_region(cloud, region)
        assert np.array_equal(region.depths, depths)
        assert np.array_equal(region.retained, retained)
        assert region.threshold == threshold

    @pytest.mark.parametrize("n_directions", [0, -3])
    def test_directions_must_be_positive(self, n_directions):
        # As in ``depth``: one-dimensional clouds draw no directions.
        with pytest.raises(DomainError, match="n_directions must be positive"):
            ci_depth_region(self._cloud(20), 0.1, n_directions)
        with pytest.raises(DomainError, match="n_directions must be positive"):
            depth(np.zeros(2), self._cloud(20), n_directions)
        assert ci_depth_region(self._cloud(20)[:, 0], 0.1, n_directions).retained.size

    def test_deepest_point_retained(self):
        cloud = self._cloud(150)
        region = ci_depth_region(cloud, 0.2, stream=make_stream(11, 0))
        assert int(np.argmax(region.depths)) in set(region.retained.tolist())

    def test_gaussian_cloud_mean_is_member(self):
        cloud = self._cloud(1000, seed=34)
        region = ci_depth_region(cloud, 0.1, stream=make_stream(12, 0))
        assert region.contains(cloud.mean(axis=0))

    def test_membership_monotone_in_depth(self):
        cloud = self._cloud(200, seed=35)
        region = ci_depth_region(cloud, 0.1, stream=make_stream(13, 0))
        dir_stream_key = region.direction_seed
        points = [np.array([0.0, 0.0]), np.array([0.5, 0.5]),
                  np.array([2.0, 2.0]), np.array([5.0, 5.0])]
        depths = [
            depth(pt, cloud, region.n_directions, make_stream(*dir_stream_key))
            for pt in points
        ]
        members = [region.contains(pt) for pt in points]
        for i in range(len(points)):
            for j in range(len(points)):
                if depths[i] >= depths[j] and members[j]:
                    assert members[i]

    def test_far_point_not_member(self):
        cloud = self._cloud(100, seed=36)
        region = ci_depth_region(cloud, 0.05, stream=make_stream(14, 0))
        assert not region.contains(np.array([50.0, 50.0]))

    def test_small_cloud_rejected(self):
        with pytest.raises(DomainError):
            ci_depth_region(np.zeros((5, 2)), 0.05)

    def test_one_dimensional_cloud_exact(self):
        cloud = np.arange(1.0, 21.0)
        region = ci_depth_region(cloud, 0.1, stream=make_stream(15, 0))
        # depths are the exact rank formula: ends least deep
        assert region.depths[0] == pytest.approx(1 / 20)
        assert region.depths[9] == pytest.approx(10 / 20)
        assert region.retained.size == 18

    def test_json_dict_with_hull(self):
        cloud = self._cloud(50, seed=37)
        region = ci_depth_region(cloud, 0.1, stream=make_stream(16, 0))
        doc = region.to_json_dict()
        assert doc["type"] == "depth_region"
        assert len(doc["cloud"]) == 50
        assert doc["hull"] is not None and len(doc["hull"]) >= 3
