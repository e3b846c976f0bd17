import numpy as np
import pytest

from romlab import (
    BoundarySpec,
    ConstantBoundary,
    LambdaAtLeastOne,
    LengthMismatch,
    LinearBoundary,
    NonPositiveSigmaT,
    SpatialGrid,
    TabulatedBoundary,
    defaults,
    make_medium,
    weighted_norm_of,
)
from conftest import random_medium


def assert_scalar_matches_vector(spec: BoundarySpec, rng) -> None:
    """Each side's evaluate gives a scalar cosine (boundary_term) the bits it
    gives the same cosine in an array (the batched sweeps), on its own half."""
    for side, sign in ((spec.left, 1.0), (spec.right, -1.0)):
        mus = sign * np.concatenate([rng.uniform(0.0, 1.0, 500), [1.0]])
        mus = mus[mus != 0]
        scalar = np.array([float(side.evaluate(mu)) for mu in mus.tolist()])
        assert np.array_equal(scalar.view(np.uint64), side.evaluate(mus).view(np.uint64))


class TestSpatialGrid:
    def test_uniform(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 4)
        assert grid.ncells == 4
        np.testing.assert_allclose(grid.widths, 0.25)
        assert grid.x_left == 0.0 and grid.x_right == 1.0

    def test_rejects_nonincreasing_edges(self):
        with pytest.raises(ValueError):
            SpatialGrid(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ValueError):
            SpatialGrid(np.array([1.0]))

    def test_edges_frozen(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            grid.edges[0] = -1.0


class TestMakeMedium:
    def test_derives_lambda_and_sigma_r(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 2)
        medium = make_medium(grid, [1.0, 1.0], [0.3, 0.5], [1.0, 1.0])
        assert medium.lam == 0.5
        np.testing.assert_allclose(medium.sigma_r, [0.6, 1.0])

    def test_pure_absorber(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 2)
        medium = make_medium(grid, [1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        assert medium.lam == 0.0
        assert medium.sigma_r is None

    def test_lambda_at_one_rejected(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 1)
        with pytest.raises(LambdaAtLeastOne):
            make_medium(grid, [1.0], [1.0], [0.0])

    def test_lambda_cap_configurable(self):
        # the cap is the defaults document's lambda_max, not a call argument
        grid = SpatialGrid.uniform(0.0, 1.0, 1)
        cap = defaults.LAMBDA_MAX
        with pytest.raises(LambdaAtLeastOne, match=f"cap {cap}"):
            make_medium(grid, [1.0], [cap + 0.0005], [0.0])
        medium = make_medium(grid, [1.0], [cap], [0.0])
        assert medium.lam == cap

    def test_length_mismatch(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 2)
        with pytest.raises(LengthMismatch):
            make_medium(grid, [1.0], [0.0, 0.0], [0.0, 0.0])

    def test_nonpositive_sigma_t(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 2)
        with pytest.raises(NonPositiveSigmaT):
            make_medium(grid, [1.0, 0.0], [0.0, 0.0], [0.0, 0.0])

    @pytest.mark.parametrize("sigma_t, width", [(5e-324, 0.01), (1e308, 2.0)], ids=["underflow", "overflow"])
    def test_sigma_t_h_out_of_range_rejected(self, sigma_t, width):
        # 5e-324 * 0.01 rounds to 0, so a sweep would divide by a zero optical
        # depth; 1e308 * 2 overflows, and a solve then certified nothing (NaN bound)
        grid = SpatialGrid.uniform(0.0, 3 * width, 3)
        with pytest.raises(NonPositiveSigmaT, match=r"sigma_t \* h"):
            make_medium(grid, [1.0, sigma_t, 1.0], np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("sigma_s, q", [([np.nan, 0.0], [0.0, 0.0]), ([0.0, 0.0], [np.inf, 0.0])])
    def test_nonfinite_sigma_s_and_q_rejected(self, sigma_s, q):
        # NaN passes the nonnegativity and lambda-cap comparisons
        grid = SpatialGrid.uniform(0.0, 1.0, 2)
        with pytest.raises(ValueError, match="finite"):
            make_medium(grid, [1.0, 1.0], sigma_s, q)

    def test_admissible_inputs_always_yield_valid_profiles(self, rng):
        for _ in range(100):
            medium = random_medium(rng)
            assert 0.0 <= medium.lam < 1.0
            if medium.lam > 0:
                assert np.all(medium.sigma_r <= medium.sigma_t + 1e-15)


class TestWeightedNorm:
    def test_unit_everything(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 4)
        medium = make_medium(grid, np.ones(4), np.zeros(4), np.zeros(4))
        assert weighted_norm_of(np.ones(4), medium) == pytest.approx(1.0, abs=1e-15)

    def test_homogeneity(self):
        grid = SpatialGrid.uniform(0.0, 1.0, 4)
        medium = make_medium(grid, np.ones(4), np.zeros(4), np.zeros(4))
        assert weighted_norm_of(2.0 * np.ones(4), medium) == pytest.approx(2.0, abs=1e-15)

    def test_direct_sum(self):
        # phi=[1,0], sigma_t=4, cells of width 0.5: sqrt(1 * 4 * 0.5)
        grid = SpatialGrid.uniform(0.0, 1.0, 2)
        medium = make_medium(grid, [4.0, 4.0], [0.0, 0.0], [0.0, 0.0])
        assert weighted_norm_of([1.0, 0.0], medium) == pytest.approx(np.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("values", [np.ones(1), np.ones((3, 1)), np.ones(4), np.ones((1, 3)), 1.0])
    def test_rejects_values_not_one_per_cell(self, values):
        # three cells whose weights sum to 2: without the check np.ones(1)
        # read as np.ones(3) and np.ones((3, 1)) as a broadcast (3, 3) array
        grid = SpatialGrid.uniform(0.0, 2.0, 3)
        medium = make_medium(grid, np.ones(3), np.zeros(3), np.zeros(3))
        with pytest.raises(LengthMismatch):
            weighted_norm_of(values, medium)

    def test_triangle_inequality_and_homogeneity(self, rng):
        for _ in range(200):
            medium = random_medium(rng)
            m = medium.ncells
            a = rng.normal(size=m)
            b = rng.normal(size=m)
            na = weighted_norm_of(a, medium)
            nb = weighted_norm_of(b, medium)
            nab = weighted_norm_of(a + b, medium)
            assert nab <= na + nb + 1e-12
            c = rng.normal()
            nca = weighted_norm_of(c * a, medium)
            assert nca == pytest.approx(abs(c) * na, rel=1e-12, abs=1e-15)


class TestBoundary:
    def test_constant(self, rng):
        spec = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(0.3))
        np.testing.assert_array_equal(spec.left.evaluate([0.7, 0.2]), [1.0, 1.0])
        np.testing.assert_array_equal(spec.right.evaluate([-0.7, -0.2]), [0.3, 0.3])
        assert_scalar_matches_vector(spec, rng)

    def test_linear(self, rng):
        spec = BoundarySpec(LinearBoundary(1.0, 0.0), LinearBoundary(-0.7, 0.1))
        assert spec.left.evaluate(0.25) == pytest.approx(0.25)
        assert spec.right.evaluate(-0.5) == pytest.approx(0.45)
        assert_scalar_matches_vector(spec, rng)

    def test_table_interpolation(self, rng):
        table = TabulatedBoundary([0.1, 1.0], [0.0, 0.9])
        right = TabulatedBoundary([-0.9, -0.3, -0.1], [0.2, 1.3, 0.7])
        spec = BoundarySpec(table, right)
        assert spec.left.evaluate(0.55) == pytest.approx(0.45, rel=1e-12)
        assert spec.right.evaluate(-0.6) == pytest.approx(0.75, rel=1e-12)
        assert_scalar_matches_vector(spec, rng)

    def test_table_clamps_outside_range(self):
        table = TabulatedBoundary([0.2, 0.8], [1.0, 3.0])
        np.testing.assert_allclose(table.evaluate([0.05, 0.95]), [1.0, 3.0])

    def test_table_validation(self):
        with pytest.raises(ValueError):
            TabulatedBoundary([0.5, 0.2], [1.0, 2.0])
        with pytest.raises(ValueError):
            TabulatedBoundary([0.2, 0.5], [1.0])
