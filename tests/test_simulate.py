"""Data generation and Monte Carlo study harness."""

import numpy as np
import pytest
from scipy import stats

import reference_solver as ref
from trimreg import simulate
from trimreg import (
    Contamination,
    Dataset,
    DomainError,
    GenSpec,
    SolverConfig,
    TrimSpec,
    fit,
    generate,
    make_stream,
    run_consistency_study,
    run_normality_study,
)


class TestGenerate:
    def test_clean_spherical_means(self):
        n = 4000
        spec = GenSpec(n=n, p=3, beta0=np.array([1.0, 2.0, -1.0]), sigma=1.0)
        data = generate(spec, make_stream(1, 0))
        means = data.W[:, 1:].mean(axis=0)
        assert np.all(np.abs(means) <= 4.0 / np.sqrt(n))

    def test_pointmass_row_count(self):
        z = np.array([3.0, -7.0])
        spec = GenSpec(
            n=50, p=2, beta0=np.array([0.0, 1.0]),
            contamination=Contamination.pointmass(eps=0.1, z=z),
        )
        data = generate(spec, make_stream(2, 0))
        hits = np.sum((data.W[:, 1] == 3.0) & (data.y == -7.0))
        assert hits == 5

    def test_elliptical_covariance(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        spec = GenSpec(
            n=100_000, p=3, beta0=np.zeros(3), design="elliptical", carrier_cov=cov
        )
        data = generate(spec, make_stream(3, 0))
        sample = np.cov(data.W[:, 1:], rowvar=False)
        assert np.max(np.abs(sample - cov) / np.abs(cov)) <= 0.10

    def test_deterministic(self):
        spec = GenSpec(n=30, p=2, beta0=np.array([1.0, 2.0]))
        a = generate(spec, make_stream(4, 9))
        b = generate(spec, make_stream(4, 9))
        assert np.array_equal(a.y, b.y) and np.array_equal(a.W, b.W)

    def test_model_holds_on_clean_rows(self):
        spec = GenSpec(
            n=40, p=2, beta0=np.array([1.0, 2.0]), sigma=0.5,
            contamination=Contamination.vertical(eps=0.2, magnitude=1e6),
        )
        data = generate(spec, make_stream(5, 0))
        clean = data.y[:32] - data.W[:32] @ spec.beta0
        assert np.all(np.abs(clean) < 5 * 0.5)
        assert np.all(data.y[32:] == 1e6)

    def test_bad_eps_rejected(self):
        with pytest.raises(DomainError):
            Contamination.vertical(eps=0.7, magnitude=10.0)


class TestStudies:
    def _spec(self, n=60):
        return GenSpec(n=n, p=2, beta0=np.array([1.0, 2.0]), sigma=1.0)

    def test_consistency_reproducible_bytes(self):
        cfg = SolverConfig(n_starts=20, seed=0)
        kwargs = dict(n_grid=[40, 80], reps=8, alpha=0.75, config=cfg)
        a = run_consistency_study(self._spec(), stream=make_stream(6, 0), **kwargs)
        b = run_consistency_study(self._spec(), stream=make_stream(6, 0), **kwargs)
        assert a.to_json_text() == b.to_json_text()
        assert a.to_csv_text() == b.to_csv_text()
        assert a.summary["solver"] == {"n_starts": 20, "seed": 0}

    def test_parallel_matches_serial(self):
        cfg = SolverConfig(n_starts=20, seed=0)
        kwargs = dict(n_grid=[40, 80], reps=6, alpha=0.75, config=cfg)
        serial = run_consistency_study(
            self._spec(), stream=make_stream(7, 0), n_workers=1, **kwargs
        )
        parallel = run_consistency_study(
            self._spec(), stream=make_stream(7, 0), n_workers=2, **kwargs
        )
        assert serial.to_json_text() == parallel.to_json_text()
        assert np.array_equal(serial.betas, parallel.betas)

    def test_consistency_direction_small(self):
        study = run_consistency_study(
            self._spec(), n_grid=[50, 400], reps=20, alpha=0.75,
            config=SolverConfig(n_starts=30, seed=0), stream=make_stream(8, 0),
        )
        med = study.summary["median_error"]
        assert med[1] < med[0]
        assert study.summary["monotone_decreasing"]

    def test_contaminated_error_stays_bounded(self):
        # 20% gross vertical outliers: median error within 10x of clean
        clean = run_consistency_study(
            self._spec(100), n_grid=[100], reps=20, alpha=0.75,
            config=SolverConfig(n_starts=30, seed=0), stream=make_stream(9, 0),
        ).summary["median_error"][0]
        spec = GenSpec(
            n=100, p=2, beta0=np.array([1.0, 2.0]), sigma=1.0,
            contamination=Contamination.vertical(eps=0.2, magnitude=1e6),
        )
        dirty = run_consistency_study(
            spec, n_grid=[100], reps=20, alpha=0.75,
            config=SolverConfig(n_starts=30, seed=0), stream=make_stream(9, 1),
        ).summary["median_error"][0]
        assert dirty <= 10.0 * clean

    @pytest.mark.parametrize("n_grid, message", [
        ([], "must not be empty"),
        ([80, 40], "strictly increasing"),
        ([40, 40], "strictly increasing"),
    ])
    def test_consistency_grid_checked(self, n_grid, message):
        with pytest.raises(DomainError, match=message):
            run_consistency_study(self._spec(), n_grid, reps=3, alpha=0.75)

    def test_normality_requires_reps(self):
        with pytest.raises(DomainError):
            run_normality_study(self._spec(), n=60, reps=50, alpha=0.75)

    def test_normality_summary_fields(self):
        study = run_normality_study(
            self._spec(), n=60, reps=200, alpha=0.75,
            config=SolverConfig(n_starts=20, seed=0), stream=make_stream(10, 0),
            rate_check_n=240,
        )
        s = study.summary
        assert len(s["mean_scaled"]) == 2
        cov = np.asarray(s["covariance_scaled"])
        assert cov.shape == (2, 2)
        # covariance symmetric PSD
        assert np.allclose(cov, cov.T)
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-10
        assert "cov_factor" in s and s["cov_factor"] == pytest.approx(0.491365, abs=1e-6)
        assert len(s["rate_ratio_diag"]) == 2
        assert len(s["anderson_darling"]) == 2 and s["ad_critical_1pct"] > 0
        z = np.sqrt(60) * (study.betas[study.n_values == 60] - [1.0, 2.0])
        assert s["skewness"] == [float(v) for v in stats.skew(z, axis=0)]
        # records carry both batches
        assert study.betas.shape == (400, 2)
        assert set(np.unique(study.n_values)) == {60, 240}

    def test_study_starts_default_validated_against_full(self):
        # study default of 50 starts must match the 500-start objective on
        # nearly every replication of a pilot
        from trimreg import TrimSpec, fit, generate

        spec = self._spec(n=100)
        trim = TrimSpec.for_size(100, 0.75)
        agree = 0
        reps = 100
        for rep in range(reps):
            data = generate(spec, make_stream(12, rep))
            lean = fit(data, trim, SolverConfig(n_starts=50, seed=rep))
            full = fit(data, trim, SolverConfig(n_starts=500, seed=rep))
            agree += int(
                abs(lean.objective_value - full.objective_value) <= 1e-10
            )
        assert agree >= 0.99 * reps

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_records_match_the_reference_loop(self, n_workers):
        spec = GenSpec(n=40, p=3, beta0=np.array([1.0, 2.0, -1.0]))
        cfg = SolverConfig(n_starts=10, seed=0)
        studies = {
            (40, 80): run_consistency_study(
                spec, [40, 80], 12, 0.75, cfg, make_stream(3, 0), n_workers),
            (40, 60): run_normality_study(
                spec, 40, 200, 0.75, cfg, make_stream(4, 0), n_workers,
                rate_check_n=60),
        }
        for sizes, study in studies.items():
            reps = study.summary["reps"]
            stream = make_stream(*study.summary["seed"])
            betas, objectives, iterations = ref.study_records(
                spec, sizes, reps, 0.75, cfg, stream)
            assert np.array_equal(study.betas, betas)
            assert np.array_equal(study.objectives, objectives)
            assert np.array_equal(study.iterations, iterations)
            assert np.array_equal(study.rep_ids, np.arange(len(sizes) * reps))
            assert np.array_equal(study.n_values, np.repeat(sizes, reps))

    def test_degenerate_replication_is_redrawn(self, monkeypatch):
        # The first dataset of the study has an all-zero carrier, so every
        # start on it is degenerate: replication 0 takes the second dataset
        # and solver seed of its stream, the rest are unchanged.
        drawn = []

        def zero_first(spec, stream):
            data = generate(spec, stream)
            if not drawn:
                drawn.append(1)
                data = Dataset(y=data.y, W=data.W * [1.0, 0.0])
            return data

        monkeypatch.setattr(simulate, "generate", zero_first)
        spec, cfg = self._spec(40), SolverConfig(n_starts=10, seed=0)
        study = run_consistency_study(spec, [40], 4, 0.75, cfg, make_stream(5, 0))
        child = make_stream(5, 0).child(0)
        generate(spec, child), child.integers(0, 2**63)  # the failed draw
        data, seed = generate(spec, child), int(child.integers(0, 2**63))
        redrawn = fit(data, TrimSpec.for_size(40, 0.75),
                      SolverConfig(n_starts=10, seed=seed))
        assert np.array_equal(study.betas[0], redrawn.beta)
        betas, _, _ = ref.study_records(spec, [40], 4, 0.75, cfg, make_stream(5, 0))
        assert np.array_equal(study.betas[1:], betas[1:])
        assert not np.array_equal(study.betas[0], betas[0])

    @pytest.mark.parametrize("law", ["normal", "exponential", "lognormal"])
    def test_skewness_matches_scipy(self, law):
        rng = np.random.default_rng(6)
        for n in (50, 200, 1000):
            z = getattr(rng, law)(size=(n, 3))
            assert np.array_equal(simulate._skewness(z), stats.skew(z, axis=0))

    def test_anderson_darling_pinned(self):
        # statistic and 1% critical value as scipy.stats.anderson(x, "norm")
        # gives them at SciPy 1.17.1
        pinned = {
            50: ([0.34460445342853774, 0.5572297616136979], 1.019),
            200: ([0.3222092051114487, 0.18212616532574089], 1.031),
            400: ([0.5300740885370487, 1.1596067282711147], 1.033),
        }
        for n, expected in pinned.items():
            z = np.random.default_rng(n).standard_normal((n, 2))
            assert simulate._anderson_darling(z) == expected

    def test_csv_shape(self):
        study = run_consistency_study(
            self._spec(), n_grid=[40], reps=3, alpha=0.75,
            config=SolverConfig(n_starts=10, seed=0), stream=make_stream(11, 0),
        )
        text = study.to_csv_text(meta={"k": 1})
        lines = text.strip().split("\n")
        assert lines[0].startswith("# ")
        assert lines[1] == "rep,n,beta_0,beta_1,objective,iterations"
        assert len(lines) == 2 + 3
