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
    reference_boundary_average,
    reference_quadrature,
    rom_pair_block,
    rom_sample,
    solve,
    sweep_direction,
)
from romlab.medium import weighted_norm_of
from romlab.sweep import (_factor_chunks, _row_systems, averaged_response_matrix, averaged_sweep,
                          batched_sweep)
import romlab.angular
from conftest import BAD_ORDINATES, UNEVALUATED, random_medium, small_config, source_iteration

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
        previous = np.zeros(12)
        for _ in range(6):
            avg, _ = batched_sweep(medium, quad.mus, medium.sigma_s * previous + medium.q, bc)
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
            avg, _ = batched_sweep(medium, quad.mus, medium.sigma_s * phi + medium.q, bc)
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

    @pytest.mark.parametrize("bad", BAD_ORDINATES)
    def test_bad_ordinate_raises_before_any_factor_is_built(self, no_factor_builds, bad):
        # a NaN ordinate was dropped, and the rest certified as converged
        grid = SpatialGrid.uniform(0.0, 1.0, 2)
        medium = make_medium(grid, np.ones(2), 0.5 * np.ones(2), np.ones(2))
        quad = QuadratureSet(np.array([-0.5, 0.5, bad]), np.full(3, 1 / 3), "bad")
        with pytest.raises(ValueError, match=rf"ordinate \[2\] is {bad}"):  # the caller's index
            solve(medium, ZERO_BC, quad)
        block = rom_pair_block(build_partition(4, 0.05), 17, 0, 2)
        mus = block.mus.copy()
        mus[1, 3] = bad
        with pytest.raises(ValueError, match=rf"ordinate \[1, 3\] is {bad}"):
            solve(medium, ZERO_BC, QuadratureSet(mus, block.weights, "bad block"))

    @pytest.mark.parametrize("nweights", [1, 3])
    def test_weights_not_matching_ordinates_rejected(self, no_factor_builds, nweights):
        grid = SpatialGrid.uniform(0.0, 1.0, 2)
        medium = make_medium(grid, np.ones(2), 0.5 * np.ones(2), np.ones(2))
        bad = QuadratureSet(np.array([-0.5, 0.5]), np.full(nweights, 0.5), "bad")
        with pytest.raises(LengthMismatch, match=rf"\({nweights},\).*\(2,\)"):
            solve(medium, ZERO_BC, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_raise_before_any_factor_is_built(self, no_factor_builds, bad):
        # a NaN weight gave a NaN flux with error_bound nan, and no error
        grid = SpatialGrid.uniform(0.0, 1.0, 2)
        medium = make_medium(grid, np.ones(2), 0.5 * np.ones(2), np.ones(2))
        single = QuadratureSet(np.array([-0.5, 0.5]), np.array([bad, 0.5]), "bad")
        block = rom_pair_block(build_partition(4, 0.05), 17, 0, 2)
        weights = block.weights.copy()
        weights[1, 3] = bad
        for quad in (single, QuadratureSet(block.mus, weights, "bad block")):
            with pytest.raises(ValueError, match="weights must be finite"):
                solve(medium, ZERO_BC, quad)

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1e-10])
    def test_tol_not_positive_rejected(self, no_factor_builds, tol):
        # tol = nan passed the tol <= 0 check, and no bound could meet it
        grid = SpatialGrid.uniform(0.0, 1.0, 2)
        medium = make_medium(grid, np.ones(2), 0.5 * np.ones(2), np.ones(2))
        with pytest.raises(ValueError, match="tol must be positive"):
            solve(medium, ZERO_BC, pair_quad(), tol=tol)

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
        "averaged_sweep": lambda q: averaged_sweep(medium, q.mus, q.weights, medium.q, bc),
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
            assert all(len(f.blocks) > 1 for f in _factor_chunks(medium, block.mus))
            assert any(len(f.blocks) == 1 for mus in block.mus for f in _factor_chunks(medium, mus))
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
        chunks = list(_factor_chunks(medium, block.mus))
        assert len(chunks) == 4
        assert any(0 < np.sum(f.sel[0] == b) < 3 for f in chunks for b in range(40))
        self.check_rows(case, medium, bc, block)

    @pytest.mark.parametrize("pairs", [7, 23], ids=["one-chunk", "chunked"])
    def test_row_systems_are_the_rows_public_sweeps(self, rng, pairs):
        # c is the weighted sweep of q with the inflow data, and S the weighted
        # response to sigma_s * phi, of the row's ordinates alone
        medium, bc = _block_medium("inflow", rng)
        block = rom_pair_block(build_partition(6, 0.05), 17, 3, pairs)
        systems = []
        for b, (c, system) in enumerate(_row_systems(medium, block.mus, block.weights, bc)):
            mus, w = block.mus[b], block.weights[b]
            np.testing.assert_allclose(c, averaged_sweep(medium, mus, w, medium.q, bc), rtol=1e-14)
            s = averaged_response_matrix(medium, mus, w, medium.sigma_s)
            np.testing.assert_allclose(system, np.eye(20) - s, rtol=1e-14, atol=1e-16)
            systems.append(system)
        assert len(systems) == block.mus.shape[0]
        assert all(system is systems[0] for system in systems)  # one M x M array serves every row

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
        exact = source_iteration(
            medium,
            lambda source: quad.weights @ batched_sweep(medium, quad.mus, source, bc)[0],
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

    @pytest.mark.parametrize("case", ["mixed", "inflow"])
    def test_block_rows_match_per_row_calls(self, rng, case):
        # a block takes the path of one quadrature: every row's bits are its own call's
        medium, bc = _block_medium(case, rng)
        block = rom_pair_block(build_partition(4, 0.05), 17, 3, 5)
        assert block.mus.shape == (4, 4)
        phi = rng.uniform(0.5, 1.5, 20)
        source = medium.sigma_s * phi + medium.q
        sweeps = batched_sweep(medium, block.mus, source, bc)
        fluxes = angular_fluxes(medium, bc, block, phi)
        for avg, edges in (sweeps, fluxes):
            assert avg.shape == (4, 4, 20) and edges.shape == (4, 4, 21)
            for b, mus in enumerate(block.mus):
                row_avg, row_edges = batched_sweep(medium, mus, source, bc)
                np.testing.assert_array_equal(avg[b], row_avg)
                np.testing.assert_array_equal(edges[b], row_edges)

    def test_wrong_length_rejected(self, no_factor_builds):
        grid = SpatialGrid.uniform(0.0, 1.0, 3)
        medium = make_medium(grid, np.ones(3), 0.5 * np.ones(3), np.ones(3))
        quad = dom_quadrature(build_partition(4, 0.1))
        for phi in ([1.0], np.ones(4)):
            with pytest.raises(LengthMismatch, match="phi has length"):
                angular_fluxes(medium, ZERO_BC, quad, phi)

    def test_block_flux_rejected(self, no_factor_builds):
        # every row of a block sweeps the one (M,) flux; the (B, M) flux solve returns does not fit
        grid = SpatialGrid.uniform(0.0, 1.0, 4)
        medium = make_medium(grid, np.ones(4), 0.5 * np.ones(4), np.ones(4))
        block = rom_pair_block(build_partition(4, 0.05), 17, 0, 2)
        with pytest.raises(LengthMismatch, match="phi has length 16, grid has 4 cells"):
            angular_fluxes(medium, ZERO_BC, block, np.ones((4, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_flux_rejected(self, no_factor_builds, bad):
        # the frozen source sigma_s * phi + q was swept into NaN fluxes without a word
        grid = SpatialGrid.uniform(0.0, 1.0, 3)
        medium = make_medium(grid, np.ones(3), 0.5 * np.ones(3), np.ones(3))
        quad = dom_quadrature(build_partition(4, 0.1))
        with pytest.raises(ValueError, match="phi must be finite"):
            angular_fluxes(medium, ZERO_BC, quad, np.full(3, bad))

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


def _inflow_paths(monkeypatch, medium, mus, boundary):
    """Each public path that takes inflow data, at ordinates ``mus`` with equal weights."""
    quad = QuadratureSet(mus, np.full(mus.size, 1 / mus.size), "paths")
    # the certified boundary average draws its quadratures from the reference rule
    monkeypatch.setattr(romlab.angular, "reference_quadrature", lambda delta, nodes: quad)
    source = np.ones(medium.ncells)
    return {
        "solve": lambda: solve(medium, boundary, quad),
        "angular_fluxes": lambda: angular_fluxes(medium, boundary, quad, source),
        "reference_boundary_average": lambda: reference_boundary_average(
            medium, boundary, 0.05, 4),
        "batched_sweep": lambda: batched_sweep(medium, mus, source, boundary),
        "averaged_sweep": lambda: averaged_sweep(medium, mus, quad.weights, source, boundary),
    }


@pytest.mark.parametrize("bad", [0.0, -0.0, *BAD_ORDINATES])
def test_bad_ordinate_raises_before_any_inflow_is_evaluated(monkeypatch, bad):
    # mu = 0 raised WrongHalf from the paths that evaluated inflows first,
    # and a NaN ordinate reached the right-hand inflow before the check
    grid = SpatialGrid.uniform(0.0, 1.0, 3)
    medium = make_medium(grid, np.ones(3), 0.5 * np.ones(3), np.ones(3))
    error = ZeroMu if bad == 0 else ValueError
    for call in _inflow_paths(monkeypatch, medium, np.array([0.5, bad, -0.5]), UNEVALUATED).values():
        with pytest.raises(error, match=rf"ordinate \[1\] is {bad}: sweeps need 0 < \|mu\| <= 1"):
            call()
    with pytest.raises(error, match=rf"ordinate \[0\] is {bad}: sweeps need 0 < \|mu\| <= 1"):
        boundary_term(medium, bad, UNEVALUATED)


class Infinite:
    """A boundary side whose evaluation gives inf at every cosine."""

    def evaluate(self, mu):
        return np.full(np.shape(mu), np.inf)


NON_FINITE_SIDES = {
    "constant-nan": ConstantBoundary(np.nan),
    "linear-inf": LinearBoundary(np.inf, 0.0),
    "evaluate-inf": Infinite(),
}


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("kind", list(NON_FINITE_SIDES))
@pytest.mark.parametrize("path", ["solve", "angular_fluxes", "reference_boundary_average",
                                  "batched_sweep", "averaged_sweep", "boundary_term"])
def test_non_finite_inflow_rejected(monkeypatch, path, kind, side):
    # a NaN or infinite inflow was swept into the fluxes, and solve certified
    # nothing (error_bound nan) without an error
    grid = SpatialGrid.uniform(0.0, 1.0, 3)
    medium = make_medium(grid, np.ones(3), 0.5 * np.ones(3), np.ones(3))
    sides = {"left": ConstantBoundary(1.0), "right": ConstantBoundary(1.0), side: NON_FINITE_SIDES[kind]}
    boundary = BoundarySpec(sides["left"], sides["right"])
    paths = _inflow_paths(monkeypatch, medium, np.array([0.5, -0.25, 0.25, -0.5]), boundary)
    paths["boundary_term"] = lambda: boundary_term(medium, 0.5 if side == "left" else -0.5, boundary)
    with pytest.raises(ValueError, match=f"{side} inflow values must be finite"):
        paths[path]()
