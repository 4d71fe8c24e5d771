"""Confidence regions: asymptotic normal ball and bootstrap depth region."""

import logging

import numpy as np
import pytest

import reference_solver as ref
from trimreg import simulate
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
        # starts many slots need a redraw.
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
        assert np.array_equal(cloud, expected)
        assert f"redrew {redraws} degenerate" in caplog.text

    def test_exhausted_when_every_draw_is_degenerate(self, monkeypatch):
        # an all-zero carrier makes every start of every resample singular
        rng = np.random.default_rng(0)
        d = Dataset.from_xy(np.column_stack([rng.standard_normal(12), np.zeros(12)]),
                            rng.standard_normal(12))
        calls = []

        def counted_fit(*args):
            calls.append(1)
            return fit(*args)

        monkeypatch.setattr(simulate, "fit", counted_fit)
        with pytest.raises(ResampleExhausted, match="replication 0: 10 consecutive"):
            bootstrap_fits(d, TrimSpec.for_size(12, 0.75), 3,
                           SolverConfig(n_starts=5, seed=0))
        assert len(calls) == simulate.MAX_REDRAWS + 1 == 11


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
