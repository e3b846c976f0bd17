import tracemalloc

import numpy as np
import pytest

from romlab import (
    BoundarySpec,
    ConstantBoundary,
    QuadratureSet,
    ScalarFlux,
    SpatialGrid,
    ZeroMu,
    angular_fluxes,
    apply_transport,
    boundary_term,
    build_partition,
    dom_quadrature,
    make_medium,
    reference_quadrature,
    rom_sample,
    solve,
    sweep_direction,
)
from romlab.medium import inflow_values, weighted_norm_of
from romlab.sweep import averaged_response_matrix, batched_sweep
from conftest import random_medium, small_config

ZERO_BC = BoundarySpec(ConstantBoundary(0.0), ConstantBoundary(0.0))


def pair_quad(mu=0.5):
    return QuadratureSet(np.array([-mu, mu]), np.array([0.5, 0.5]), f"pair({mu})")


class TestSolve:
    def test_pure_absorber_closed_form(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 1)
        medium = make_medium(grid, [1.0], [0.0], [1.0])
        phi, report = solve(medium, ZERO_BC, pair_quad(0.5), tol=1e-12)
        exact = 1.0 - (1.0 - np.exp(-2.0)) / 2.0
        assert phi.values[0] == pytest.approx(exact, abs=1e-12)
        assert report.converged

    def test_zero_data_converges_immediately(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 10)
        medium = make_medium(grid, np.ones(10), 0.5 * np.ones(10), np.zeros(10))
        phi, report = solve(medium, ZERO_BC, pair_quad())
        assert np.all(phi.values == 0.0)
        assert report.iterations == 1
        assert report.converged

    def test_contraction_estimate_tracks_lambda(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 30)
        medium = make_medium(grid, np.ones(30), 0.5 * np.ones(30), np.ones(30))
        quad = dom_quadrature(build_partition(8, 0.05))
        _, report = solve(medium, ZERO_BC, quad, tol=1e-11)
        assert report.contraction_estimate <= 0.55
        assert report.converged
        # fewer residuals than the averaging window
        for k in (2, 3, 4, 5):
            _, report = solve(medium, ZERO_BC, quad, max_iter=k)
            assert 0.0 < report.contraction_estimate <= 0.55

    def test_monotone_iterates(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 12)
        medium = make_medium(grid, np.ones(12), 0.8 * np.ones(12), np.ones(12))
        quad = dom_quadrature(build_partition(4, 0.1))
        bc = BoundarySpec(ConstantBoundary(0.5), ConstantBoundary(0.2))
        previous = np.zeros(12)
        for k in range(1, 7):
            phi, _ = solve(medium, bc, quad, tol=1e-13, max_iter=k)
            assert np.all(phi.values >= previous - 1e-15)
            previous = phi.values

    def test_fixed_point_residual(self, rng):
        tol = 1e-10
        for _ in range(10):
            medium = random_medium(rng, ncells=15)
            quad = rom_sample(build_partition(8, 0.05), 3, 0)
            bc = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(0.5))
            phi, report = solve(medium, bc, quad, tol=tol)
            assert report.converged
            inflows = inflow_values(bc, quad.mus)
            avg, _ = batched_sweep(
                medium, quad.mus, medium.sigma_s * phi.values + medium.q, inflows
            )
            recomposed = quad.weights @ avg
            assert weighted_norm_of(recomposed - phi.values, medium) <= 2 * tol

    def test_max_iter_returns_best_iterate(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 5)
        medium = make_medium(grid, np.ones(5), 0.9 * np.ones(5), np.ones(5))
        phi, report = solve(medium, ZERO_BC, pair_quad(), max_iter=3)
        assert not report.converged
        assert report.iterations == 3
        assert np.all(np.isfinite(phi.values))

    def test_zero_mu_rejected(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 2)
        medium = make_medium(grid, np.ones(2), np.zeros(2), np.ones(2))
        bad = QuadratureSet(np.array([0.0, 0.5]), np.array([0.5, 0.5]), "bad")
        with pytest.raises(ZeroMu):
            solve(medium, ZERO_BC, bad)

    def test_neumann_series_cross_check(self):
        # phi0 = 0 makes iterates the partial sums of the scattering series;
        # rebuild the series by repeated transport averaging and compare
        grid = SpatialGrid.uniform(0.0, 1.0, 8)
        lam = 0.5
        medium = make_medium(grid, np.ones(8), lam * np.ones(8), np.ones(8))
        quad = dom_quadrature(build_partition(6, 0.1))
        bc = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(0.0))
        tol = 1e-13
        phi, report = solve(medium, bc, quad, tol=tol)
        assert report.converged

        def transport_average(values):
            out = np.zeros(8)
            for w, mu in zip(quad.weights, quad.mus):
                out += w * apply_transport(medium, mu, ScalarFlux(values, grid)).values
            return out

        b_bar = np.zeros(8)
        for w, mu in zip(quad.weights, quad.mus):
            b_bar += w * boundary_term(medium, mu, bc).values
        q_transported = np.zeros(8)
        for w, mu in zip(quad.weights, quad.mus):
            q_transported += w * sweep_direction(medium, mu, medium.q, 0.0).cell_avg

        term = q_transported + b_bar  # series term at order zero
        partial = term.copy()
        for p in range(1, 21):
            term = lam * transport_average(term)
            partial += term
        phi0_norm = weighted_norm_of(q_transported + b_bar, medium)
        bound = lam ** 21 / (1 - lam) * phi0_norm + 10 * tol
        assert weighted_norm_of(partial - phi.values, medium) <= bound

    def test_quadrature_consistency_smooth_data(self):
        # away from mu = 0 the integrand is analytic: doubling the reference
        # order changes nothing beyond 1e-10
        grid = SpatialGrid.uniform(0.0, 1.0, 20)
        medium = make_medium(grid, np.ones(20), 0.5 * np.ones(20), np.ones(20))
        bc = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(1.0))
        phi_a, _ = solve(medium, bc, reference_quadrature(0.3, 64), tol=1e-13)
        phi_b, _ = solve(medium, bc, reference_quadrature(0.3, 128), tol=1e-13)
        assert weighted_norm_of(phi_a.values - phi_b.values, medium) <= 1e-10

    def test_matrix_and_sweep_paths_agree(self):
        # force the per-iteration sweep path with a quadrature above the
        # matrix-path cutoff and compare against a matrix-path solve
        grid = SpatialGrid.uniform(0.0, 1.0, 10)
        medium = make_medium(grid, np.ones(10), 0.6 * np.ones(10), np.ones(10))
        bc = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(0.0))
        big = reference_quadrature(0.05, 160)  # 320 ordinates > cutoff
        small = reference_quadrature(0.05, 160)
        phi_big, _ = solve(medium, bc, big, tol=1e-12)
        import romlab.solver as solver_mod

        old = solver_mod._MATRIX_PATH_MAX_ORDINATES
        solver_mod._MATRIX_PATH_MAX_ORDINATES = 10**9
        try:
            phi_small, _ = solve(medium, bc, small, tol=1e-12)
        finally:
            solver_mod._MATRIX_PATH_MAX_ORDINATES = old
        assert weighted_norm_of(phi_big.values - phi_small.values, medium) <= 1e-11

    def test_sweep_path_memory_guard(self):
        # tracemalloc peak of a second solve at commit dc2587c (numpy 2.4.6),
        # where every source iteration rebuilt the sweep factors and edges:
        # 19.806 to 19.808 MB over five runs
        parent_peak = 19_810_000
        config = small_config(ncells=100, delta=0.003125)
        quad = reference_quadrature(config.delta, 1024)
        solve(config.medium, config.boundary, quad)
        tracemalloc.start()
        try:
            solve(config.medium, config.boundary, quad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= parent_peak


class TestErrorBound:
    # solve's stopping rule promises weighted_norm(phi - phi*) <= tol for the
    # exact discrete fixed point phi* = (I - S)^-1 c; tol stays far above the
    # rounding of the dense solve, even at lambda = 0.99
    TOL = 1e-8

    @pytest.mark.parametrize("lam", [0.5, 0.99])
    @pytest.mark.parametrize("sigma_range", [(0.5, 2.0), (600.0, 1200.0)], ids=["thin", "thick"])
    @pytest.mark.parametrize("path", ["matrix", "sweep"])
    def test_within_tol_of_exact_fixed_point(self, rng, lam, sigma_range, path):
        grid = SpatialGrid.uniform(0.0, 1.0, 10)
        sigma_t = rng.uniform(*sigma_range, 10)
        medium = make_medium(grid, sigma_t, lam * sigma_t, rng.uniform(0.5, 1.5, 10))
        bc = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(0.5))
        if path == "matrix":
            quad = rom_sample(build_partition(8, 0.05), 5, 0)
        else:
            quad = reference_quadrature(0.05, 160)  # 320 ordinates
        phi, report = solve(medium, bc, quad, tol=self.TOL)
        assert report.converged
        mus, w = quad.mus, quad.weights
        scatter = averaged_response_matrix(medium, mus, w, medium.sigma_s)
        const = w @ batched_sweep(medium, mus, medium.q, inflow_values(bc, mus))[0]
        exact = np.linalg.solve(np.eye(medium.ncells) - scatter, const)
        assert weighted_norm_of(phi.values - exact, medium) <= self.TOL


class TestAngularFluxes:
    def test_recomposition(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 16)
        medium = make_medium(grid, np.ones(16), 0.5 * np.ones(16), np.ones(16))
        quad = rom_sample(build_partition(8, 0.05), 11, 2)
        bc = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(0.0))
        tol = 1e-11
        phi, _ = solve(medium, bc, quad, tol=tol)
        fluxes = angular_fluxes(medium, bc, quad, phi)
        recomposed = sum(w * f.cell_avg for w, f in zip(quad.weights, fluxes))
        assert weighted_norm_of(recomposed - phi.values, medium) <= tol

    def test_pure_absorber_decouples(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 6)
        medium = make_medium(grid, np.ones(6), np.zeros(6), np.ones(6))
        quad = dom_quadrature(build_partition(4, 0.1))
        bc = BoundarySpec(ConstantBoundary(2.0), ConstantBoundary(0.0))
        phi, _ = solve(medium, bc, quad, tol=1e-12)
        fluxes = angular_fluxes(medium, bc, quad, phi)
        for f in fluxes:
            inflow = 2.0 if f.mu > 0 else 0.0
            single = sweep_direction(medium, f.mu, medium.q, inflow)
            np.testing.assert_allclose(f.cell_avg, single.cell_avg, rtol=1e-14)

    def test_reflection_symmetry(self):
        # symmetric medium and boundary data, mirrored quadrature:
        # psi_l(x) = psi_mirror(l)(x_R + x_L - x) cellwise
        grid = SpatialGrid.uniform(0.0, 1.0, 9)
        medium = make_medium(grid, np.ones(9), 0.5 * np.ones(9), np.ones(9))
        quad = dom_quadrature(build_partition(6, 0.1))
        bc = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(1.0))
        phi, _ = solve(medium, bc, quad, tol=1e-12)
        np.testing.assert_allclose(phi.values, phi.values[::-1], rtol=1e-10)
        fluxes = angular_fluxes(medium, bc, quad, phi)
        n = quad.n
        for l in range(n):
            np.testing.assert_allclose(
                fluxes[l].cell_avg, fluxes[n - 1 - l].cell_avg[::-1], rtol=1e-10
            )
