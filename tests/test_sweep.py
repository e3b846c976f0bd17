import warnings

import numpy as np
import pytest

from romlab import (
    BoundarySpec,
    ConstantBoundary,
    LengthMismatch,
    LinearBoundary,
    PureAbsorber,
    SpatialGrid,
    ZeroMu,
    apply_transport,
    boundary_term,
    make_medium,
    sweep_direction,
    weighted_norm_of,
)
from romlab.sweep import (
    _factor_chunks,
    averaged_response_matrix,
    averaged_sweep,
    batched_sweep,
    transmission_averages,
)
from conftest import BAD_ORDINATES, random_medium, upwind_inflow

UNIT_BC = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(1.0))


def unit_absorber(ncells=1):
    grid = SpatialGrid.uniform(0.0, 1.0, ncells)
    ones = np.ones(ncells)
    return make_medium(grid, ones, 0.0 * ones, ones)


class TestSweepDirection:
    def test_single_cell_closed_form(self):
        # sigma=1 on [0,1], s=1, inflow 0, mu=0.5: avg = 1 - (1 - e^-2)/2
        medium = unit_absorber()
        avg, edges = sweep_direction(medium, 0.5, [1.0], 0.0)
        exact = 1.0 - (1.0 - np.exp(-2.0)) / 2.0
        assert avg[0] == pytest.approx(exact, abs=1e-15)
        # exit edge value: 1 - e^-2
        assert edges[1] == pytest.approx(1.0 - np.exp(-2.0), abs=1e-15)

    def test_zero_data_gives_zero(self):
        medium = unit_absorber(5)
        avg, edges = sweep_direction(medium, 0.3, np.zeros(5), 0.0)
        assert np.all(avg == 0.0)
        assert np.all(edges == 0.0)

    def test_ten_cell_first_average(self):
        # (1/h) int_0^h (1 - e^{-2x}) dx with h = 0.1
        medium = unit_absorber(10)
        avg, _ = sweep_direction(medium, 0.5, np.ones(10), 0.0)
        h = 0.1
        exact = 1.0 - (1.0 - np.exp(-2.0 * h)) / (2.0 * h)
        assert avg[0] == pytest.approx(exact, abs=1e-14)

    def test_negative_mu_mirrors(self):
        medium = unit_absorber(7)
        fwd_avg, fwd_edges = sweep_direction(medium, 0.4, np.ones(7), 2.0)
        bwd_avg, bwd_edges = sweep_direction(medium, -0.4, np.ones(7), 2.0)
        np.testing.assert_allclose(bwd_avg, fwd_avg[::-1], rtol=1e-14)
        np.testing.assert_allclose(bwd_edges, fwd_edges[::-1], rtol=1e-14)

    def test_zero_mu_rejected(self):
        with pytest.raises(ZeroMu):
            sweep_direction(unit_absorber(), 0.0, [1.0], 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inflow_rejected(self, bad):
        # a NaN inflow was marched into all-NaN averages without an error
        medium = unit_absorber(3)
        for mu in (0.5, -0.5):
            with pytest.raises(ValueError, match="inflow must be finite"):
                sweep_direction(medium, mu, np.ones(3), bad)
        with pytest.raises(ZeroMu):  # the ordinate is checked first
            sweep_direction(medium, 0.0, np.ones(3), bad)

    def test_inflow_edge_recorded(self):
        medium = unit_absorber(3)
        _, fwd_edges = sweep_direction(medium, 0.9, np.zeros(3), 1.5)
        assert fwd_edges[0] == 1.5
        _, bwd_edges = sweep_direction(medium, -0.9, np.zeros(3), 1.5)
        assert bwd_edges[-1] == 1.5

    def test_refinement_invariance(self, rng):
        # averaging the sweep on a 4x-refined copy of the medium reproduces
        # the coarse cell averages exactly (same piecewise-constant data)
        for _ in range(20):
            medium = random_medium(rng, ncells=6)
            factor = 4
            fine_edges = np.concatenate(
                [
                    np.linspace(a, b, factor + 1)[:-1]
                    for a, b in zip(medium.grid.edges[:-1], medium.grid.edges[1:])
                ]
                + [[medium.grid.x_right]]
            )
            fine = make_medium(
                SpatialGrid(fine_edges),
                np.repeat(medium.sigma_t, factor),
                np.repeat(medium.sigma_s, factor),
                np.repeat(medium.q, factor),
            )
            mu = rng.choice([-1, 1]) * rng.uniform(0.05, 1.0)
            s = rng.uniform(0.0, 2.0, 6)
            coarse, _ = sweep_direction(medium, mu, s, 1.0)
            refined, _ = sweep_direction(fine, mu, np.repeat(s, factor), 1.0)
            regrouped = refined.reshape(6, factor).mean(axis=1)
            np.testing.assert_allclose(regrouped, coarse, atol=1e-12, rtol=1e-12)

    def test_positivity(self, rng):
        for _ in range(100):
            medium = random_medium(rng)
            mu = rng.choice([-1, 1]) * rng.uniform(0.01, 1.0)
            s = rng.uniform(0.0, 3.0, medium.ncells)
            avg, edges = sweep_direction(medium, mu, s, rng.uniform(0.0, 2.0))
            assert np.all(avg >= 0.0)
            assert np.all(edges >= 0.0)


class TestEscapeFactor:
    """A unit inflow with no source averages entry * (1 - e^-tau) / tau over a
    cell, so each sweep's cell averages expose its escape factor."""

    @staticmethod
    def check_escape(taus, oracle, compare):
        # cells of width 0.01; mu = 1 and -0.5 make sigma_t * h / |mu| exact in both paths
        for mu in (1.0, -0.5):
            grid = SpatialGrid.uniform(0.0, 0.01 * taus.size, taus.size)
            medium = make_medium(grid, taus * abs(mu) / grid.widths, np.zeros(taus.size),
                                 np.zeros(taus.size))
            tau = medium.cell_weights / abs(mu)
            march = sweep_direction(medium, mu, np.zeros(taus.size), 1.0)
            avg, edges = batched_sweep(medium, [mu], np.zeros(taus.size), UNIT_BC)
            for cell_avg, cell_edges in (march, (avg[0], edges[0])):
                entry = cell_edges[:-1] if mu > 0 else cell_edges[1:]
                compare(cell_avg, entry * oracle(tau))

    def test_small_depths_match_series_oracle(self):
        # the 4-term series is exact to rounding here: its next term is tau^4 / 120
        taus = np.logspace(-300, -5, 60)
        self.check_escape(
            taus, lambda t: 1.0 - t / 2.0 + t * t / 6.0 - t**3 / 24.0,
            lambda got, want: np.testing.assert_array_max_ulp(got, want, maxulp=2),
        )

    def test_moderate_values(self):
        self.check_escape(
            np.array([0.1, 1.0, 10.0]), lambda t: (1.0 - np.exp(-t)) / t,
            lambda got, want: np.testing.assert_allclose(got, want, rtol=1e-14),
        )


class TestOrdinateCheck:
    @pytest.mark.parametrize("bad", BAD_ORDINATES)
    def test_bad_ordinate_raises_before_any_factor_is_built(self, no_factor_builds, bad):
        medium = unit_absorber(3)
        mus, w, s = np.array([0.5, bad, -0.3]), np.full(3, 1 / 3), np.ones(3)
        message = rf"ordinate \[1\] is {bad}: sweeps need 0 < \|mu\| <= 1"
        for call in (
            lambda: batched_sweep(medium, mus, s, UNIT_BC),
            lambda: averaged_sweep(medium, mus, w, s, UNIT_BC),
            lambda: averaged_response_matrix(medium, mus, w, s),
        ):
            with pytest.raises(ValueError, match=message):
                call()
        with pytest.raises(ValueError, match=rf"ordinate \[0\] is {bad}"):
            sweep_direction(medium, bad, s, 1.0)

    def test_block_names_row_and_column(self, no_factor_builds):
        mus = np.array([[0.5, -0.5], [0.25, np.nan]])
        with pytest.raises(ValueError, match=r"ordinate \[1, 1\] is nan"):
            batched_sweep(unit_absorber(2), mus, np.ones(2), UNIT_BC)

    def test_zero_named_as_zero_mu(self, no_factor_builds):
        with pytest.raises(ZeroMu, match=r"ordinate \[2\]"):
            batched_sweep(unit_absorber(2), [0.5, -1.0, 0.0], np.ones(2), UNIT_BC)

    def test_unit_ordinates_accepted(self):
        avg, _ = batched_sweep(unit_absorber(2), [1.0, -1.0], np.zeros(2), UNIT_BC)
        assert np.all(np.isfinite(avg))

    def test_tiny_ordinates_match_march_without_warning(self):
        # cell depths 0.05 to 3: tau = depth / |mu| overflows in every cell at
        # 1e-320, and at 1e-308 in the cells deeper than 1.8 and in its running sum
        grid = SpatialGrid.uniform(0.0, 1.0, 20)
        sigma_t = np.linspace(1.0, 60.0, 20)
        medium = make_medium(grid, sigma_t, 0.5 * sigma_t, np.linspace(0.5, 1.5, 20))
        bc = BoundarySpec(ConstantBoundary(2.0), LinearBoundary(-1.0, 0.5))
        mus = np.array([1e-320, -1e-320, 1e-308, -1e-308, 0.5])
        w = np.full(5, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            avg, edges = batched_sweep(medium, mus, medium.q, bc)
            average = averaged_sweep(medium, mus, w, medium.q, bc)
            matrix = averaged_response_matrix(medium, mus, w, medium.sigma_s)
            march = [sweep_direction(medium, mu, medium.q, upwind_inflow(bc, mu)) for mu in mus]
            columns = [sum(wk * sweep_direction(medium, mu, medium.sigma_s * e, 0.0)[0]
                           for wk, mu in zip(w, mus)) for e in np.eye(20)]
        for k, (row_avg, row_edges) in enumerate(march):
            np.testing.assert_allclose(avg[k], row_avg, rtol=1e-13)
            np.testing.assert_allclose(edges[k], row_edges, rtol=1e-13)
        np.testing.assert_allclose(average, w @ np.array([a for a, _ in march]), rtol=1e-13)
        np.testing.assert_allclose(matrix, np.array(columns).T, rtol=1e-12, atol=1e-300)


class TestApplyTransport:
    def test_zero_flux(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 3)
        medium = make_medium(grid, np.ones(3), 0.5 * np.ones(3), np.zeros(3))
        out = apply_transport(medium, 0.7, np.zeros(3))
        assert np.all(out == 0.0)

    def test_single_cell_oracle(self):
        # sigma_t = sigma_r = 1 (lambda=0.5, sigma_s=0.5), phi=[1]
        grid = SpatialGrid.uniform(0.0, 1.0, 1)
        medium = make_medium(grid, [1.0], [0.5], [0.0])
        out = apply_transport(medium, 0.5, [1.0])
        exact = 1.0 - (1.0 - np.exp(-2.0)) / 2.0
        assert out[0] == pytest.approx(exact, abs=1e-15)

    def test_pure_absorber_rejected(self):
        medium = unit_absorber()
        with pytest.raises(PureAbsorber):
            apply_transport(medium, 0.5, [1.0])

    def test_wrong_length_rejected(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 3)
        medium = make_medium(grid, np.ones(3), 0.5 * np.ones(3), np.zeros(3))
        for phi in ([1.0], np.ones(4)):
            with pytest.raises(LengthMismatch, match="phi has length"):
                apply_transport(medium, 0.5, phi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_phi_rejected(self, bad):
        # the check named the scaled source sigma_r * phi, not the caller's phi
        grid = SpatialGrid.uniform(0.0, 1.0, 3)
        medium = make_medium(grid, np.ones(3), 0.5 * np.ones(3), np.zeros(3))
        with pytest.raises(ValueError, match="phi must be finite"):
            apply_transport(medium, 0.5, np.array([1.0, bad, 1.0]))

    def test_nonexpansive(self, rng):
        for _ in range(200):
            medium = random_medium(rng)
            mu = rng.choice([-1, 1]) * rng.uniform(0.01, 1.0)
            phi = rng.normal(size=medium.ncells)
            out = apply_transport(medium, mu, phi)
            assert weighted_norm_of(out, medium) <= weighted_norm_of(phi, medium) + 1e-12


class TestBoundaryTerm:
    def test_edge_attenuation(self):
        # constant sigma_t=1 on [0,1], mu=0.5: edge value at x=0.5 is e^-1
        medium = unit_absorber(2)
        _, edges = sweep_direction(medium, 0.5, np.zeros(2), 1.0)
        assert edges[1] == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_zero_data(self):
        medium = unit_absorber(4)
        spec = BoundarySpec(ConstantBoundary(0.0), ConstantBoundary(0.0))
        out = boundary_term(medium, 0.5, spec)
        assert np.all(out == 0.0)

    def test_linear_in_boundary_value(self):
        medium = unit_absorber(4)
        const = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(0.0))
        ramp = BoundarySpec(LinearBoundary(1.0, 0.0), ConstantBoundary(0.0))
        base = boundary_term(medium, 0.5, const)
        scaled = boundary_term(medium, 0.5, ramp)
        np.testing.assert_allclose(scaled, 0.5 * base, rtol=1e-14)

    def test_cell_average_formula(self, rng):
        # (|mu| / (sigma_t h)) * (e^{-tau_entry} - e^{-tau_exit}) per cell
        for _ in range(20):
            medium = random_medium(rng, ncells=8)
            mu = rng.uniform(0.05, 1.0)
            spec = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(0.0))
            out = boundary_term(medium, mu, spec)
            tau = medium.sigma_t * medium.grid.widths / mu
            depth = np.concatenate([[0.0], np.cumsum(tau)])
            expected = (np.exp(-depth[:-1]) - np.exp(-depth[1:])) / tau
            np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-300)


def random_boundary(rng):
    """Distinct linear inflow data on each side, nonnegative on its half."""
    left, right = rng.uniform(0.0, 2.0, 2), rng.uniform(0.0, 2.0, 2)  # values at |mu| = 0, 1
    return BoundarySpec(LinearBoundary(left[1] - left[0], left[0]),
                        LinearBoundary(right[0] - right[1], right[0]))


class TestBatchKernels:
    def test_batched_sweep_matches_march(self, rng):
        for _ in range(25):
            medium = random_medium(rng)
            m = medium.ncells
            mus = np.concatenate(
                [-rng.uniform(0.01, 1.0, 3), rng.uniform(0.01, 1.0, 3)]
            )
            s = rng.uniform(0.0, 2.0, m)
            bc = random_boundary(rng)
            avg, edges = batched_sweep(medium, mus, s, bc)
            for k, mu in enumerate(mus):
                single_avg, single_edges = sweep_direction(medium, mu, s, upwind_inflow(bc, mu))
                np.testing.assert_allclose(avg[k], single_avg, rtol=1e-13, atol=1e-300)
                np.testing.assert_allclose(edges[k], single_edges, rtol=1e-13, atol=1e-300)

    @pytest.mark.parametrize("thick", [False, True], ids=["thin", "thick"])
    def test_batched_sweep_over_chunks_matches_march(self, rng, thick):
        # 150 ordinates of one sign: three chunks of at most 64, each with its
        # own guard cuts on the thick slab
        if thick:
            grid = SpatialGrid.uniform(0.0, 1.0, 40)
            medium = make_medium(grid, np.full(40, 30.0), np.full(40, 15.0), np.ones(40))
        else:
            medium = random_medium(rng, ncells=12)
        mus = np.concatenate([rng.uniform(0.02, 1.0, 150), -rng.uniform(0.02, 1.0, 5)])
        rng.shuffle(mus)
        chunks = list(_factor_chunks(medium, mus))
        assert len(chunks) == 4
        if thick:
            assert len({len(f.blocks) for f in chunks}) > 1
        s = rng.uniform(0.0, 2.0, medium.ncells)
        bc = random_boundary(rng)
        avg, edges = batched_sweep(medium, mus, s, bc)
        for k, mu in enumerate(mus):
            single_avg, single_edges = sweep_direction(medium, mu, s, upwind_inflow(bc, mu))
            np.testing.assert_allclose(avg[k], single_avg, rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(edges[k], single_edges, rtol=1e-12, atol=1e-300)

    def test_left_data_reach_positive_and_right_data_negative_ordinates(self):
        # left 1 + 2 mu on mu > 0, right 5 - 3 mu on mu < 0: distinct at every |mu|
        medium = unit_absorber(4)
        bc = BoundarySpec(LinearBoundary(2.0, 1.0), LinearBoundary(-3.0, 5.0))
        mus = np.array([0.25, -0.25, 0.75, -0.75, 1.0, -1.0])
        avg, edges = batched_sweep(medium, mus, np.ones(4), bc)
        np.testing.assert_array_equal(edges[::2, 0], [1.5, 2.5, 3.0])  # the entry at x_left
        np.testing.assert_array_equal(edges[1::2, -1], [5.75, 7.25, 8.0])  # the entry at x_right
        for k, mu in enumerate(mus):
            single_avg, single_edges = sweep_direction(medium, mu, np.ones(4), upwind_inflow(bc, mu))
            np.testing.assert_allclose(avg[k], single_avg, rtol=1e-14)
            np.testing.assert_allclose(edges[k], single_edges, rtol=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_source_rejected(self, no_factor_builds, bad):
        medium, mus = unit_absorber(3), np.array([-0.5, 0.5])
        source = np.array([1.0, bad, 1.0])
        for call in (
            lambda: batched_sweep(medium, mus, source, UNIT_BC),
            lambda: averaged_sweep(medium, mus, np.full(2, 0.5), source, UNIT_BC),
            lambda: sweep_direction(medium, 0.5, source, 1.0),
        ):
            with pytest.raises(ValueError, match="cell_source must be finite"):
                call()

    @pytest.mark.parametrize("nweights", [1, 3])
    def test_weights_not_matching_ordinates_rejected(self, no_factor_builds, nweights):
        medium = unit_absorber(2)
        mus, w = np.array([-0.5, 0.5]), np.full(nweights, 0.5)
        with pytest.raises(LengthMismatch, match=rf"\({nweights},\).*\(2,\)"):
            averaged_sweep(medium, mus, w, np.ones(2), UNIT_BC)
        with pytest.raises(LengthMismatch, match=rf"\({nweights},\).*\(2,\)"):
            averaged_response_matrix(medium, mus, w, np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("path", ["averaged_sweep", "averaged_response_matrix"])
    def test_non_finite_weights_rejected(self, no_factor_builds, path, bad):
        # a NaN weight gave all-NaN averages and matrix entries without an error
        medium = unit_absorber(2)
        mus, w = np.array([-0.5, 0.5]), np.array([bad, 0.5])
        call = {
            "averaged_sweep": lambda: averaged_sweep(medium, mus, w, np.ones(2), UNIT_BC),
            "averaged_response_matrix": lambda: averaged_response_matrix(medium, mus, w, np.ones(2)),
        }[path]
        with pytest.raises(ValueError, match="weights must be finite"):
            call()

    def test_scale_not_matching_cells_rejected(self, no_factor_builds):
        medium, mus, w = unit_absorber(2), np.array([-0.5, 0.5]), np.full(2, 0.5)
        for scale in ([1.0], np.ones(3)):
            with pytest.raises(LengthMismatch, match="scale has length"):
                averaged_response_matrix(medium, mus, w, scale)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scale_rejected(self, no_factor_builds, bad):
        # a NaN scale gave an all-NaN matrix without an error
        medium, mus, w = unit_absorber(2), np.array([-0.5, 0.5]), np.full(2, 0.5)
        with pytest.raises(ValueError, match="scale must be finite"):
            averaged_response_matrix(medium, mus, w, np.array([bad, 1.0]))

    def test_response_matrix_matches_columns(self, rng):
        for _ in range(10):
            medium = random_medium(rng, ncells=7)
            mus = np.array([-0.9, -0.2, 0.15, 0.6])
            w = rng.uniform(0.1, 0.5, 4)
            scale = rng.uniform(0.1, 2.0, 7)
            matrix = averaged_response_matrix(medium, mus, w, scale)
            for j in range(7):
                e = np.zeros(7)
                e[j] = 1.0
                col = sum(
                    w[k] * sweep_direction(medium, mus[k], scale * e, 0.0)[0]
                    for k in range(4)
                )
                np.testing.assert_allclose(matrix[:, j], col, rtol=1e-12, atol=1e-300)

    def test_transmission_matches_unit_inflow_sweep(self, rng):
        medium = random_medium(rng)
        mus = np.array([-0.7, 0.04, 0.8])
        prof = transmission_averages(medium, mus)
        for k, mu in enumerate(mus):
            single, _ = sweep_direction(medium, mu, np.zeros(medium.ncells), 1.0)
            np.testing.assert_allclose(prof[k], single, rtol=1e-13, atol=1e-300)

    def test_thick_medium_blocks_match_march(self):
        # cumulative optical depth beyond the exp-product guard: several blocks
        grid = SpatialGrid.uniform(0.0, 1.0, 40)
        sigma = np.full(40, 30.0)
        medium = make_medium(grid, sigma, 0.5 * sigma, np.ones(40))
        mus = np.array([-0.03, 0.03])  # depth 1000 per traversal
        s = np.linspace(0.5, 1.5, 40)
        avg, edges = batched_sweep(medium, mus, s, UNIT_BC)
        for k, mu in enumerate(mus):
            single, _ = sweep_direction(medium, mu, s, 1.0)
            np.testing.assert_allclose(avg[k], single, rtol=1e-12, atol=1e-300)
        matrix = averaged_response_matrix(medium, mus, np.array([0.5, 0.5]), medium.sigma_s)
        col = np.zeros(40)
        e = np.zeros(40)
        e[3] = 1.0
        for k, mu in enumerate(mus):
            col += 0.5 * sweep_direction(medium, mu, medium.sigma_s * e, 0.0)[0]
        np.testing.assert_allclose(matrix[:, 3], col, rtol=1e-12, atol=1e-300)
