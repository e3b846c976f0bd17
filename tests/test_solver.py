import tracemalloc

import numpy as np
import pytest

from romlab import (
    BoundarySpec,
    ConstantBoundary,
    LengthMismatch,
    LinearBoundary,
    QuadratureSet,
    SpatialGrid,
    ZeroMu,
    angular_fluxes,
    apply_transport,
    boundary_term,
    build_partition,
    dom_quadrature,
    make_medium,
    reference_quadrature,
    rom_pair_block,
    rom_sample,
    solve,
    sweep_direction,
)
from romlab.medium import inflow_values, weighted_norm_of
from romlab.sweep import _sweep_factors, averaged_response_matrix, averaged_sweep, batched_sweep
from conftest import random_medium, small_config, source_iteration

ZERO_BC = BoundarySpec(ConstantBoundary(0.0), ConstantBoundary(0.0))


def pair_quad(mu=0.5):
    return QuadratureSet(np.array([-mu, mu]), np.array([0.5, 0.5]), f"pair({mu})")


def _traced_peak(call):
    """tracemalloc peak of call(), after one untraced call fills the caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSolve:
    def test_pure_absorber_closed_form(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 1)
        medium = make_medium(grid, [1.0], [0.0], [1.0])
        phi, report = solve(medium, ZERO_BC, pair_quad(0.5), tol=1e-12)
        exact = 1.0 - (1.0 - np.exp(-2.0)) / 2.0
        assert phi[0] == pytest.approx(exact, abs=1e-12)
        assert report.converged
        assert isinstance(phi, np.ndarray)
        with pytest.raises(ValueError):
            phi[0] = 0.0

    def test_zero_data_converges_immediately(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 10)
        medium = make_medium(grid, np.ones(10), 0.5 * np.ones(10), np.zeros(10))
        phi, report = solve(medium, ZERO_BC, pair_quad())
        assert np.all(phi == 0.0)
        assert report.iterations == 1
        assert report.converged

    def test_monotone_iterates(self):
        # with nonnegative data the source iteration from phi = 0 rises
        # monotonically towards the direct solve and never passes it
        grid = SpatialGrid.uniform(0.0, 1.0, 12)
        medium = make_medium(grid, np.ones(12), 0.8 * np.ones(12), np.ones(12))
        quad = dom_quadrature(build_partition(4, 0.1))
        bc = BoundarySpec(ConstantBoundary(0.5), ConstantBoundary(0.2))
        phi, report = solve(medium, bc, quad, tol=1e-13)
        assert report.converged
        inflows = inflow_values(bc, quad.mus)
        previous = np.zeros(12)
        for _ in range(6):
            avg, _ = batched_sweep(
                medium, quad.mus, medium.sigma_s * previous + medium.q, inflows
            )
            iterate = quad.weights @ avg
            assert np.all(iterate >= previous - 1e-15)
            assert np.all(iterate <= phi + 1e-13)
            previous = iterate

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
                medium, quad.mus, medium.sigma_s * phi + medium.q, inflows
            )
            recomposed = quad.weights @ avg
            assert weighted_norm_of(recomposed - phi, medium) <= 2 * tol

    def test_bound_above_tol_returns_the_flux_unconverged(self):
        # no residual reaches 1e-300: the same flux comes back, uncertified
        grid = SpatialGrid.uniform(0.0, 1.0, 5)
        medium = make_medium(grid, np.ones(5), 0.9 * np.ones(5), np.ones(5))
        phi, report = solve(medium, ZERO_BC, pair_quad(), tol=1e-300)
        certified, good = solve(medium, ZERO_BC, pair_quad())
        assert not report.converged and good.converged
        assert report.iterations == 1
        assert report.error_bound == good.error_bound > 1e-300
        assert np.array_equal(phi, certified)

    def test_zero_mu_rejected(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 2)
        medium = make_medium(grid, np.ones(2), np.zeros(2), np.ones(2))
        bad = QuadratureSet(np.array([0.0, 0.5]), np.array([0.5, 0.5]), "bad")
        with pytest.raises(ZeroMu):
            solve(medium, ZERO_BC, bad)

    @pytest.mark.parametrize("nweights", [1, 3])
    def test_weights_not_matching_ordinates_rejected(self, nweights):
        grid = SpatialGrid.uniform(0.0, 1.0, 2)
        medium = make_medium(grid, np.ones(2), 0.5 * np.ones(2), np.ones(2))
        bad = QuadratureSet(np.array([-0.5, 0.5]), np.full(nweights, 0.5), "bad")
        with pytest.raises(LengthMismatch, match=rf"\({nweights},\).*\(2,\)"):
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
                out += w * apply_transport(medium, mu, values)
            return out

        b_bar = np.zeros(8)
        for w, mu in zip(quad.weights, quad.mus):
            b_bar += w * boundary_term(medium, mu, bc)
        q_transported = np.zeros(8)
        for w, mu in zip(quad.weights, quad.mus):
            q_transported += w * sweep_direction(medium, mu, medium.q, 0.0)[0]

        term = q_transported + b_bar  # series term at order zero
        partial = term.copy()
        for p in range(1, 21):
            term = lam * transport_average(term)
            partial += term
        phi0_norm = weighted_norm_of(q_transported + b_bar, medium)
        bound = lam ** 21 / (1 - lam) * phi0_norm + 10 * tol
        assert weighted_norm_of(partial - phi, medium) <= bound

    def test_quadrature_consistency_smooth_data(self):
        # away from mu = 0 the integrand is analytic: doubling the reference
        # order changes nothing beyond 1e-10
        grid = SpatialGrid.uniform(0.0, 1.0, 20)
        medium = make_medium(grid, np.ones(20), 0.5 * np.ones(20), np.ones(20))
        bc = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(1.0))
        phi_a, _ = solve(medium, bc, reference_quadrature(0.3, 64), tol=1e-13)
        phi_b, _ = solve(medium, bc, reference_quadrature(0.3, 128), tol=1e-13)
        assert weighted_norm_of(phi_a - phi_b, medium) <= 1e-10

    def test_sweep_path_memory_guard(self):
        # a single quadrature holds one chunk's sweep factors at a time.
        # tracemalloc peak of this second solve (numpy 2.4.6): 0.893 MB;
        # building each sign group's 1024 ordinates whole read 6.10 MB, and
        # chunks of 256 ordinates in place of 100 read 1.77 MB
        bound = 950_000
        config = small_config(ncells=100, delta=0.003125)
        quad = reference_quadrature(config.delta, 1024)
        assert _traced_peak(lambda: solve(config.medium, config.boundary, quad)) <= bound


@pytest.mark.parametrize("kind", ["solve", "averaged_sweep", "averaged_response_matrix"])
def test_peak_memory_does_not_grow_with_ordinates(kind):
    # M = 100: peaks at 8192 and 256 nodes per half read 1.12/0.87,
    # 0.81/0.70 and 0.83/0.72 MB; whole sign groups read 46.5/1.66,
    # 46.3/1.58 and 39.7/1.40 MB
    config = small_config(ncells=100, delta=0.003125)
    medium, bc = config.medium, config.boundary
    calls = {
        "solve": lambda q: solve(medium, bc, q),
        "averaged_sweep": lambda q: averaged_sweep(medium, q.mus, q.weights, medium.q, 1.0),
        "averaged_response_matrix": lambda q: averaged_response_matrix(
            medium, q.mus, q.weights, medium.sigma_s),
    }
    small, large = (reference_quadrature(config.delta, nodes) for nodes in (256, 8192))
    assert _traced_peak(lambda: calls[kind](large)) <= 1.5 * _traced_peak(lambda: calls[kind](small))


def _block_medium(case, rng):
    """(medium, boundary) of one block-solve case on a 20-cell slab."""
    grid = SpatialGrid.uniform(0.0, 1.0, 20)
    if case == "thick":  # 100 mean free paths: the exp-product restarts at slanted ordinates
        sigma_t = np.full(20, 100.0)
    else:
        sigma_t = rng.uniform(0.1, 5.0, 20) if case == "mixed" else np.ones(20)
    medium = make_medium(grid, sigma_t, sigma_t * rng.uniform(0.3, 0.9, 20), rng.uniform(0.5, 1.5, 20))
    if case == "inflow":
        return medium, BoundarySpec(ConstantBoundary(2.0), LinearBoundary(-1.0, 0.5))
    return medium, ZERO_BC


class TestBlockSolve:
    TOL = 1e-10

    def check_rows(self, case, medium, bc, block):
        rows = block.mus.shape[0]
        if case == "thick":  # the block restarts rows that alone would need no restart
            assert all(len(f.blocks) > 1 for f in _sweep_factors(medium, block.mus))
            assert any(len(f.blocks) == 1 for mus in block.mus for f in _sweep_factors(medium, mus))
        phis, report = solve(medium, bc, block, tol=self.TOL)
        assert phis.shape == (rows, 20) and not phis.flags.writeable
        assert report.iterations == rows
        assert report.converged and report.error_bound <= self.TOL
        for b in range(rows):
            quad = QuadratureSet(block.mus[b], block.weights[b], f"row {b}")
            phi, _ = solve(medium, bc, quad, tol=self.TOL)
            scale = weighted_norm_of(phi, medium)
            assert weighted_norm_of(phis[b] - phi, medium) <= 1e-14 * scale

    @pytest.mark.parametrize("case", ["thick", "mixed", "inflow"])
    def test_rows_match_single_quadrature_solves(self, rng, case):
        block = rom_pair_block(build_partition(8, 0.05), 17, 3, 7)
        self.check_rows(case, *_block_medium(case, rng), block)

    @pytest.mark.parametrize("case", ["thick", "mixed"])
    def test_chunked_rows_match_single_quadrature_solves(self, rng, case):
        # 20 pairs at n = 6: 120 ordinates per sign group, so chunks of 64 split a row
        medium, bc = _block_medium(case, rng)
        block = rom_pair_block(build_partition(6, 0.05), 17, 3, 23)
        chunks = list(_sweep_factors(medium, block.mus))
        assert len(chunks) == 4
        assert any(0 < np.sum(f.sel[0] == b) < 3 for f in chunks for b in range(40))
        self.check_rows(case, medium, bc, block)

    def test_block_of_one_row_is_the_single_solve(self, rng):
        medium, bc = _block_medium("mixed", rng)
        quad = rom_sample(build_partition(8, 0.05), 17, 3)
        block = QuadratureSet(quad.mus[None, :], quad.weights[None, :], quad.provenance)
        phis, report = solve(medium, bc, block)
        phi, single = solve(medium, bc, quad)
        assert phis.shape == (1, 20) and report.iterations == 1
        np.testing.assert_array_equal(phis[0], phi)
        assert report == single


class TestErrorBound:
    # a converged solve promises weighted_norm(phi - phi*) <= tol for the
    # exact discrete fixed point phi*, here the public batched-sweep source
    # iteration run a hundred times below tol, even at lambda = 0.99
    TOL = 1e-8

    @pytest.mark.parametrize("lam", [0.5, 0.99])
    @pytest.mark.parametrize("sigma_range", [(0.5, 2.0), (600.0, 1200.0)], ids=["thin", "thick"])
    # "matrix": 8 random ordinates; "sweep": 320 reference ordinates
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
        assert report.converged and report.error_bound <= self.TOL
        inflows = inflow_values(bc, quad.mus)
        exact = source_iteration(
            medium,
            lambda source: quad.weights @ batched_sweep(medium, quad.mus, source, inflows)[0],
            self.TOL / 100,
        )
        assert weighted_norm_of(phi - exact, medium) <= self.TOL


class TestAngularFluxes:
    def test_recomposition(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 16)
        medium = make_medium(grid, np.ones(16), 0.5 * np.ones(16), np.ones(16))
        quad = rom_sample(build_partition(8, 0.05), 11, 2)
        bc = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(0.0))
        tol = 1e-11
        phi, _ = solve(medium, bc, quad, tol=tol)
        avg, edges = angular_fluxes(medium, bc, quad, phi)
        assert avg.shape == (quad.n, 16) and edges.shape == (quad.n, 17)
        recomposed = quad.weights @ avg
        assert weighted_norm_of(recomposed - phi, medium) <= tol

    def test_wrong_length_rejected(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 3)
        medium = make_medium(grid, np.ones(3), 0.5 * np.ones(3), np.ones(3))
        quad = dom_quadrature(build_partition(4, 0.1))
        for phi in ([1.0], np.ones(4)):
            with pytest.raises(LengthMismatch):
                angular_fluxes(medium, ZERO_BC, quad, phi)

    def test_pure_absorber_decouples(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 6)
        medium = make_medium(grid, np.ones(6), np.zeros(6), np.ones(6))
        quad = dom_quadrature(build_partition(4, 0.1))
        bc = BoundarySpec(ConstantBoundary(2.0), ConstantBoundary(0.0))
        phi, _ = solve(medium, bc, quad, tol=1e-12)
        avg, edges = angular_fluxes(medium, bc, quad, phi)
        for mu, row_avg, row_edges in zip(quad.mus, avg, edges):
            inflow = 2.0 if mu > 0 else 0.0
            single_avg, single_edges = sweep_direction(medium, mu, medium.q, inflow)
            np.testing.assert_allclose(row_avg, single_avg, rtol=1e-14)
            np.testing.assert_allclose(row_edges, single_edges, rtol=1e-14)

    def test_reflection_symmetry(self):
        # symmetric medium and boundary data, mirrored quadrature:
        # psi_l(x) = psi_mirror(l)(x_R + x_L - x) cellwise
        grid = SpatialGrid.uniform(0.0, 1.0, 9)
        medium = make_medium(grid, np.ones(9), 0.5 * np.ones(9), np.ones(9))
        quad = dom_quadrature(build_partition(6, 0.1))
        bc = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(1.0))
        phi, _ = solve(medium, bc, quad, tol=1e-12)
        np.testing.assert_allclose(phi, phi[::-1], rtol=1e-10)
        avg, _ = angular_fluxes(medium, bc, quad, phi)
        n = quad.n
        for l in range(n):
            np.testing.assert_allclose(avg[l], avg[n - 1 - l][::-1], rtol=1e-10)
