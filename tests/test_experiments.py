import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from romlab import (
    BoundarySpec,
    ConfigError,
    ConstantBoundary,
    ErrorRow,
    ErrorTable,
    NoConvergence,
    PureAbsorber,
    SpatialGrid,
    TooFewPoints,
    bias_study,
    certified_reference,
    deviation_study,
    dom_error_study,
    fit_slope,
    make_medium,
    regularization_study,
    single_run_error_study,
)
from romlab.experiments import _jackknife_norm_se
from conftest import shipped_config, small_config

ZERO_BC = BoundarySpec(ConstantBoundary(0.0), ConstantBoundary(0.0))


class TestFitSlope:
    def test_exact_cubic(self):
        rows = tuple(ErrorRow(n, n**-3.0, 0.0, 1, False, 0.0) for n in (4, 8, 16, 32))
        fit = fit_slope(ErrorTable(rows))
        assert fit.slope == pytest.approx(-3.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.slope_se == 0.0

    def test_slope_se_from_row_ses(self):
        # se / estimate = 0.1 on every row: slope SE = 0.1 / sqrt(sum (x - mean x)^2),
        # and log n = (2..5) log 2 gives sum (x - mean x)^2 = 5 (log 2)^2
        rows = tuple(ErrorRow(n, n**-3.0, 0.1 * n**-3.0, 1, False, 0.0) for n in (4, 8, 16, 32))
        fit = fit_slope(ErrorTable(rows))
        assert fit.slope_se == pytest.approx(0.1 / (math.sqrt(5) * math.log(2)), rel=1e-12)

    def test_scaled_power_law(self):
        rows = tuple(ErrorRow(n, 5.0 * n**-1.5, 0.0, 1, False, 0.0) for n in (4, 8, 16))
        fit = fit_slope(ErrorTable(rows))
        assert fit.slope == pytest.approx(-1.5, abs=1e-12)

    def test_flagged_rows_excluded(self):
        rows = (
            ErrorRow(4, 4.0**-3, 0.0, 1, False, 0.0),
            ErrorRow(8, 8.0**-3, 0.0, 1, False, 0.0),
            ErrorRow(16, 16.0**-3, 0.0, 1, False, 0.0),
            ErrorRow(32, 1.0, 0.0, 1, True, 0.0),  # junk, flagged
        )
        fit = fit_slope(ErrorTable(rows))
        assert fit.slope == pytest.approx(-3.0, abs=1e-12)

    def test_too_few_points(self):
        rows = (
            ErrorRow(4, 1.0, 0.0, 1, False, 0.0),
            ErrorRow(8, 0.5, 0.0, 1, False, 0.0),
            ErrorRow(16, 0.2, 0.0, 1, True, 0.0),
        )
        with pytest.raises(TooFewPoints):
            fit_slope(ErrorTable(rows))


class TestStudyConfig:
    def test_tolerance_cap_enforced(self):
        with pytest.raises(ConfigError):
            small_config(solver_tol=1e-5)

    def test_derived_tolerance(self):
        # the default solver tolerance 1e-10, tightened to the cap 1e-3 * n_max^-3
        assert small_config().solver_tol == pytest.approx(1e-10)
        assert small_config(n_list=(64, 256)).solver_tol == pytest.approx(1e-3 * 256**-3)

    def test_n_list_must_increase(self):
        with pytest.raises(ConfigError):
            small_config(n_list=(8, 8, 16))

    def test_unknown_rule(self):
        with pytest.raises(ConfigError, match="/study/dom_rule"):
            small_config(dom_rule="trapezoid")

    def test_reference_delta_must_be_smallest(self):
        with pytest.raises(ConfigError, match="/study/reference_delta"):
            small_config(delta_list=(0.1,), reference_delta=0.2)


class TestUncertifiedSolve:
    @pytest.mark.parametrize("study", [single_run_error_study, bias_study, dom_error_study])
    def test_study_raises_no_convergence(self, study):
        # no residual reaches 1e-300, so the first solve's certificate fails
        cfg = small_config(sample_count=16, solver_tol=1e-300)
        with pytest.raises(NoConvergence, match="error bound"):
            study(cfg)


class TestReferenceSolution:
    def test_pure_absorber_analytic(self):
        # 1 spatial cell, q = 1, sigma = 1: cell average per ordinate is
        # 1 - |mu| (1 - e^{-1/|mu|}); reference must match the dense
        # Gauss-Legendre value of its direction average
        grid = SpatialGrid.uniform(0.0, 1.0, 1)
        medium = make_medium(grid, [1.0], [0.0], [1.0])
        delta = 0.05
        cfg = small_config(
            medium=medium,
            boundary=ZERO_BC,
            delta=delta,
            n_list=(4, 8),
            sample_count=4,
            master_seed=0,
        )
        values, _, _ = certified_reference(cfg)
        t, w = leggauss(2000)
        mu = delta + 0.5 * (t + 1.0) * (1.0 - delta)
        vals = 1.0 - mu * (1.0 - np.exp(-1.0 / mu))
        oracle = (w * vals).sum() / 2.0  # symmetric halves, normalized
        assert values[0] == pytest.approx(oracle, abs=1e-10)

    def test_zero_data(self):
        cfg = small_config(
            medium=make_medium(
                SpatialGrid.uniform(0.0, 1.0, 24),
                np.ones(24),
                0.5 * np.ones(24),
                np.zeros(24),
            ),
            boundary=ZERO_BC,
        )
        values, _, _ = certified_reference(cfg)
        assert np.all(values == 0.0)

    def test_certificate_gap_below_target(self):
        cfg = small_config()
        _, nodes, gap = certified_reference(cfg)
        assert gap <= cfg.ref_target
        assert nodes >= 2 * cfg.ref_nodes


class TestSingleRunStudy:
    def test_needs_sixteen_samples(self):
        with pytest.raises(ConfigError):
            single_run_error_study(small_config(sample_count=8))

    def test_zero_data_errors_bounded_by_tolerance(self):
        cfg = small_config(
            medium=make_medium(
                SpatialGrid.uniform(0.0, 1.0, 24),
                np.ones(24),
                0.5 * np.ones(24),
                np.zeros(24),
            ),
            boundary=ZERO_BC,
            sample_count=16,
        )
        table = single_run_error_study(cfg)
        for row in table.rows:
            assert row.estimate <= 2 * cfg.solver_tol

    def test_se_shrinks_with_samples(self):
        base = small_config(n_list=(8,), sample_count=32)
        doubled = small_config(n_list=(8,), sample_count=64)
        se1 = single_run_error_study(base).rows[0].se
        se2 = single_run_error_study(doubled).rows[0].se
        assert se2 / se1 == pytest.approx(1 / np.sqrt(2), rel=0.3)

    def test_determinism_across_jobs(self):
        cfg = small_config(sample_count=16)
        t1 = single_run_error_study(cfg, jobs=1)
        t2 = single_run_error_study(cfg, jobs=3)
        for a, b in zip(t1.rows, t2.rows):
            assert a.estimate == b.estimate
            assert a.se == b.se

    def test_wall_time_recorded(self):
        table = single_run_error_study(small_config(sample_count=16))
        assert all(r.wall_time > 0 for r in table.rows)


class TestJackknife:
    def test_matches_direct_leave_one_out(self, rng):
        phis = rng.normal(size=(40, 6)) + 2.0
        ref = rng.normal(size=6)
        weights = rng.uniform(0.5, 2.0, 6)
        count = phis.shape[0]
        total = phis.sum(axis=0)
        loo = (total[None, :] - phis) / (count - 1)
        theta = np.sqrt(((loo - ref[None, :]) ** 2 * weights[None, :]).sum(axis=1))
        direct = np.sqrt((count - 1) / count * ((theta - theta.mean()) ** 2).sum())
        assert _jackknife_norm_se(phis, ref, weights) == pytest.approx(direct, rel=1e-10)

    def test_quadrupling_samples_halves_se(self, rng):
        ref = np.zeros(5)
        weights = np.ones(5)
        phis = rng.normal(size=(4000, 5)) + 1.0
        se_small = _jackknife_norm_se(phis[:1000], ref, weights)
        se_big = _jackknife_norm_se(phis, ref, weights)
        assert se_big / se_small == pytest.approx(0.5, rel=0.3)


class TestBiasStudy:
    def test_pure_absorber_bias_below_noise(self):
        # lambda = 0 makes the sampled solve linear in the per-cell draws, so
        # the estimator is exactly unbiased; the measured estimate must be
        # statistically indistinguishable from zero
        ncells = 24
        grid = SpatialGrid.uniform(0.0, 1.0, ncells)
        medium = make_medium(grid, np.ones(ncells), np.zeros(ncells), np.ones(ncells))
        bc = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(0.0))
        cfg = small_config(
            medium=medium,
            boundary=bc,
            delta=0.05,
            n_list=(8,),
            sample_count=4000,
            master_seed=31,
        )
        table = bias_study(cfg)
        row = table.rows[0]
        assert row.flagged or row.estimate <= 4 * row.se

    def test_flag_and_caps(self):
        cfg = small_config(n_list=(8, 16), sample_count=16)
        table = bias_study(cfg)
        for row in table.rows:
            assert row.samples <= math.ceil(16 * (16 / row.n) ** 3)
            assert row.flagged == (row.se > row.estimate / 5 or row.samples < 512)

    def test_row_below_first_stage_is_flagged(self):
        # configs/bias.json's problem on 24 cells: at its cap of 64 pairs the
        # n = 4 row passes SE <= estimate/5, but so few pairs do not certify it
        grid = SpatialGrid.uniform(0.0, 1.0, 24)
        medium = make_medium(grid, np.ones(24), 0.9 * np.ones(24), np.ones(24))
        cfg = small_config(medium=medium, boundary=ZERO_BC, delta=0.0125, n_list=(4,),
                           sample_count=128)
        row = bias_study(cfg).rows[0]
        assert row.samples == 128 and row.se <= row.estimate / 5
        assert row.flagged

    def test_odd_cap_rounds_down_to_whole_pairs(self):
        # caps 5 (n = 8) and 40 (n = 4): 2 and 20 pairs
        table = bias_study(small_config(n_list=(4, 8), sample_count=5))
        assert [row.samples for row in table.rows] == [40, 4]
        for row in table.rows:
            assert row.samples % 2 == 0 and row.samples <= math.ceil(5 * (8 / row.n) ** 3)

    def test_determinism_across_jobs(self):
        cfg = small_config(n_list=(4, 8), sample_count=64)
        t1 = bias_study(cfg, jobs=1)
        t2 = bias_study(cfg, jobs=4)
        for a, b in zip(t1.rows, t2.rows):
            assert a.estimate == b.estimate and a.se == b.se and a.samples == b.samples


class TestDomStudy:
    def test_gauss_spectral_on_smooth_data(self):
        # wide truncation and constant data: the integrand is analytic and
        # well-resolved, so the Gauss rule hits the reference immediately
        ncells = 24
        grid = SpatialGrid.uniform(0.0, 1.0, ncells)
        medium = make_medium(grid, np.ones(ncells), 0.5 * np.ones(ncells), np.ones(ncells))
        bc = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(1.0))
        cfg = small_config(
            medium=medium, boundary=bc, delta=0.3, n_list=(8, 16), sample_count=4,
            master_seed=0, dom_rule="gauss",
        )
        table = dom_error_study(cfg)
        assert table.rows[-1].estimate <= 1e-9

    def test_midpoint_second_order_on_smooth_data(self):
        ncells = 24
        grid = SpatialGrid.uniform(0.0, 1.0, ncells)
        medium = make_medium(grid, np.ones(ncells), 0.5 * np.ones(ncells), np.ones(ncells))
        bc = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(1.0))
        cfg = small_config(
            medium=medium, boundary=bc, delta=0.3, n_list=(16, 32), sample_count=4,
            master_seed=0,
        )
        table = dom_error_study(cfg)
        ratio = table.rows[0].estimate / table.rows[1].estimate
        assert 3.0 <= ratio <= 5.0

    def test_rows_deterministic_with_zero_se(self):
        cfg = small_config(n_list=(4, 8))
        table = dom_error_study(cfg)
        assert all(r.se == 0.0 and r.samples == 1 for r in table.rows)


class TestDeviationStudy:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            deviation_study(small_config(), "delta-x", 1)


class TestMeanVsBiasOrdering:
    def test_single_run_error_dominates_bias(self):
        # E ||phi - ref|| >= ||E phi - ref||: compare the two studies on a
        # shared configuration within combined noise, rowwise
        cfg = small_config(n_list=(4, 8), sample_count=64)
        sre = single_run_error_study(cfg)
        bias = bias_study(cfg)
        for s, b in zip(sre.rows, bias.rows):
            assert s.estimate + 3 * (s.se + b.se) >= b.estimate

    def test_rom_average_competitive_with_dom(self):
        # the motivating comparison: averaging a modest ensemble at the same
        # n is already no worse than the deterministic midpoint rule
        cfg = small_config(
            ncells=100, delta=0.003125, n_list=(32,), sample_count=64, master_seed=20240901
        )
        dom = dom_error_study(cfg).rows[-1]
        mean_row = bias_study(cfg).rows[-1]
        assert mean_row.estimate <= dom.estimate + 3 * max(mean_row.se, 1e-300)


class TestRegularizationStudy:
    # small_config's medium on 100 cells, with unit inflow on the left only
    def test_bound_satisfied_every_row(self):
        table = regularization_study(small_config(ncells=100, delta_list=(0.2, 0.1, 0.05)))
        for row in table.rows:
            assert row.satisfied
            assert row.error <= row.bound

    def test_consistency_error_shrinks_with_delta(self):
        table = regularization_study(small_config(ncells=100, delta_list=(0.2, 0.1, 0.05)))
        f_norms = [row.f_norm for row in table.rows]
        assert f_norms[0] > f_norms[1] > f_norms[2]

    def test_error_vanishes_as_delta_approaches_reference(self):
        table = regularization_study(small_config(ncells=100, delta_list=(0.1, 0.025)))
        assert table.rows[-1].error < table.rows[0].error / 3

    def test_requires_scattering(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 10)
        absorber = make_medium(grid, np.ones(10), np.zeros(10), np.ones(10))
        with pytest.raises(PureAbsorber):
            regularization_study(small_config(medium=absorber, boundary=ZERO_BC, delta_list=(0.1,)))


class TestShippedConfigs:
    # the problems behind acceptance criteria 6 and 8 (benchmark) and 7 (bias)
    @pytest.mark.parametrize(
        "name, lam, q, delta, n_list, samples, cells",
        [
            ("benchmark", 0.5, 0.0, 0.003125, (8, 16, 32, 64, 128), 64, 200),
            ("bias", 0.9, 1.0, 0.0125, (4, 8, 16, 32), 20000, 100),
        ],
        ids=["benchmark", "bias"],
    )
    def test_loads_to_criteria_problem(self, name, lam, q, delta, n_list, samples, cells):
        cfg = shipped_config(name)
        assert cfg.medium.lam == pytest.approx(lam)
        assert np.all(cfg.medium.q == q)
        assert cfg.delta == delta
        assert cfg.n_list == n_list
        assert cfg.sample_count == samples
        assert cfg.medium.ncells == cells
