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
    _escape_factor,
    _sweep_factors,
    averaged_response_matrix,
    averaged_sweep,
    batched_sweep,
    transmission_averages,
)
from conftest import random_medium


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
    @staticmethod
    def escape(taus):
        out = np.empty_like(taus)
        assert _escape_factor(taus, -np.expm1(-taus), out) is out
        return out

    def test_series_matches_expm1_at_threshold(self):
        taus = np.array([1e-8, 1e-7, 9.9e-7, 1.01e-6, 1e-5])
        direct = -np.expm1(-taus) / taus
        np.testing.assert_allclose(self.escape(taus), direct, rtol=1e-12)

    def test_moderate_values(self):
        taus = np.array([0.1, 1.0, 10.0])
        np.testing.assert_allclose(self.escape(taus), (1.0 - np.exp(-taus)) / taus, rtol=1e-14)


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
            with pytest.raises(LengthMismatch):
                apply_transport(medium, 0.5, phi)

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


class TestBatchKernels:
    def test_batched_sweep_matches_march(self, rng):
        for _ in range(25):
            medium = random_medium(rng)
            m = medium.ncells
            mus = np.concatenate(
                [-rng.uniform(0.01, 1.0, 3), rng.uniform(0.01, 1.0, 3)]
            )
            s = rng.uniform(0.0, 2.0, m)
            inflows = rng.uniform(0.0, 2.0, 6)
            avg, edges = batched_sweep(medium, mus, s, inflows)
            for k, mu in enumerate(mus):
                single_avg, single_edges = sweep_direction(medium, mu, s, inflows[k])
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
        chunks = list(_sweep_factors(medium, mus))
        assert len(chunks) == 4
        if thick:
            assert len({len(f.blocks) for f in chunks}) > 1
        s = rng.uniform(0.0, 2.0, medium.ncells)
        inflows = rng.uniform(0.0, 2.0, mus.size)
        avg, edges = batched_sweep(medium, mus, s, inflows)
        for k, mu in enumerate(mus):
            single_avg, single_edges = sweep_direction(medium, mu, s, inflows[k])
            np.testing.assert_allclose(avg[k], single_avg, rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(edges[k], single_edges, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("nweights", [1, 3])
    def test_weights_not_matching_ordinates_rejected(self, nweights):
        medium = unit_absorber(2)
        mus, w = np.array([-0.5, 0.5]), np.full(nweights, 0.5)
        with pytest.raises(LengthMismatch, match=rf"\({nweights},\).*\(2,\)"):
            averaged_sweep(medium, mus, w, np.ones(2), 1.0)
        with pytest.raises(LengthMismatch, match=rf"\({nweights},\).*\(2,\)"):
            averaged_response_matrix(medium, mus, w, np.ones(2))

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
        avg, edges = batched_sweep(medium, mus, s, np.array([1.0, 1.0]))
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
