import tracemalloc

import numpy as np
import pytest

from romlab import (
    BoundarySpec,
    ConfigError,
    ConstantBoundary,
    LengthMismatch,
    PureAbsorber,
    SpatialGrid,
    ZeroMu,
    apply_transport,
    defaults,
    boundary_deviation_stats,
    build_partition,
    dom_quadrature,
    gram_trace,
    iteration_deviation_stats,
    iteration_matrix,
    make_medium,
    reference_boundary_average,
    reference_iteration_matrix,
    rom_sample,
    solve,
    transport_matrix,
    weighted_adjoint,
    weighted_operator_norm,
)
from romlab.medium import inflow_values, weighted_norm_of
from romlab.sweep import batched_sweep
from conftest import random_medium


def scattering_medium(ncells, lam=0.5, sigma=1.0):
    grid = SpatialGrid.uniform(0.0, 1.0, ncells)
    ones = np.ones(ncells)
    return make_medium(grid, sigma * ones, lam * sigma * ones, 0.0 * ones)


def sv_2x2_oracle(entries, weight):
    """Exact largest singular value of D^1/2 A D^-1/2 for a 2x2 matrix.

    Uses the characteristic polynomial of the Gram matrix: its larger root
    is sigma_max^2.
    """
    d = np.sqrt(weight)
    a = entries * (d[:, None] / d[None, :])
    g = a.T @ a
    tr = g[0, 0] + g[1, 1]
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    return float(np.sqrt((tr + np.sqrt(max(tr**2 - 4 * det, 0.0))) / 2.0))


class TestTransportMatrix:
    def test_single_cell_oracle(self):
        medium = scattering_medium(1)  # sigma_r = 1 at lam = 0.5
        op = transport_matrix(medium, 0.5)
        exact = 1.0 - (1.0 - np.exp(-2.0)) / 2.0
        assert op[0, 0] == pytest.approx(exact, abs=1e-15)

    def test_causality_triangular(self):
        medium = scattering_medium(6)
        pos = transport_matrix(medium, 0.4)
        assert np.all(np.triu(pos, k=1) == 0.0)
        neg = transport_matrix(medium, -0.4)
        assert np.all(np.tril(neg, k=-1) == 0.0)

    def test_columns_are_transport_applications(self, rng):
        medium = random_medium(rng, ncells=9)
        mu = -0.37
        op = transport_matrix(medium, mu)
        for j in range(9):
            e = np.zeros(9)
            e[j] = 1.0
            col = apply_transport(medium, mu, e)
            np.testing.assert_allclose(op[:, j], col, rtol=1e-12, atol=1e-300)

    def test_guards(self):
        medium = scattering_medium(3)
        with pytest.raises(ZeroMu):
            transport_matrix(medium, 0.0)
        grid = SpatialGrid.uniform(0.0, 1.0, 3)
        absorber = make_medium(grid, np.ones(3), np.zeros(3), np.ones(3))
        with pytest.raises(PureAbsorber):
            transport_matrix(absorber, 0.5)
        part = build_partition(4, 0.1)
        with pytest.raises(PureAbsorber):
            iteration_matrix(absorber, dom_quadrature(part))
        reference = np.zeros((3, 3))
        with pytest.raises(PureAbsorber):
            iteration_deviation_stats(absorber, part, reference, 0, 2)

    def test_norm_never_exceeds_one(self, rng):
        for _ in range(50):
            medium = random_medium(rng)
            mu = rng.choice([-1, 1]) * rng.uniform(0.01, 1.0)
            op = transport_matrix(medium, mu)
            assert weighted_operator_norm(op, medium.cell_weights) <= 1.0 + 1e-10


class TestIterationMatrix:
    def test_single_pair(self):
        from romlab import QuadratureSet

        medium = scattering_medium(1)
        quad = QuadratureSet(np.array([-0.5, 0.5]), np.array([0.5, 0.5]), "pair")
        op = iteration_matrix(medium, quad)
        exact = 1.0 - (1.0 - np.exp(-2.0)) / 2.0
        assert op[0, 0] == pytest.approx(exact, abs=1e-15)

    def test_norm_bound_all_quadratures(self, rng):
        medium = scattering_medium(12)
        part = build_partition(8, 0.05)
        quads = [
            dom_quadrature(part, "midpoint"),
            dom_quadrature(part, "gauss"),
            rom_sample(part, 1, 0),
            rom_sample(part, 1, 1),
        ]
        for quad in quads:
            op = iteration_matrix(medium, quad)
            assert weighted_operator_norm(op, medium.cell_weights) <= 1.0 + 1e-10

    def test_reference_refinement(self):
        medium = scattering_medium(32)
        ref, nodes, gap = reference_iteration_matrix(medium, 0.05, 256)
        assert gap <= defaults.REF_ENTRY_TOL
        finer, _, _ = reference_iteration_matrix(medium, 0.05, nodes)
        assert np.max(np.abs(ref - finer)) <= 1e-10


class TestWeightedNorm:
    def test_identity(self):
        weights = np.array([1.0, 4.0, 0.5, 2.0, 1.0])
        assert weighted_operator_norm(np.eye(5), weights) == pytest.approx(1.0, rel=1e-10)

    def test_zero(self):
        assert weighted_operator_norm(np.zeros((4, 4)), np.ones(4)) == 0.0

    def test_nilpotent_2x2_weighted(self):
        # entries [[0,1],[0,0]] with weights [4,1]: the weighted frame scales
        # the off-diagonal to d0/d1 = 2, so the norm is 2
        entries = np.array([[0.0, 1.0], [0.0, 0.0]])
        weight = np.array([4.0, 1.0])
        oracle = sv_2x2_oracle(entries, weight)
        assert oracle == pytest.approx(2.0, rel=1e-14)
        assert weighted_operator_norm(entries, weight) == pytest.approx(oracle, rel=1e-9)

    def test_matches_2x2_oracle(self, rng):
        for _ in range(50):
            entries = rng.normal(size=(2, 2))
            weight = rng.uniform(0.2, 5.0, 2)
            assert weighted_operator_norm(entries, weight) == pytest.approx(
                sv_2x2_oracle(entries, weight), rel=1e-8
            )

    def test_matches_svd(self, rng):
        cases = []
        for _ in range(20):
            m = int(rng.integers(3, 12))
            cases.append((rng.normal(size=(m, m)), rng.uniform(0.2, 5.0, m)))
        for _ in range(20):
            # weighted frames whose top two singular values, 1 and 1 - 3e-5,
            # nearly coincide
            u, _ = np.linalg.qr(rng.normal(size=(8, 8)))
            v, _ = np.linalg.qr(rng.normal(size=(8, 8)))
            s = np.concatenate([[1.0, 1.0 - 3e-5], rng.uniform(0.0, 0.9, 6)])
            weight = rng.uniform(0.2, 5.0, 8)
            d = np.sqrt(weight)
            cases.append(((u * s) @ v.T * (d[None, :] / d[:, None]), weight))
        # criterion 4's deviation at n = 16, seed 77, sample 279: its top two
        # singular values are 0.0192242 and 0.0192236
        medium = scattering_medium(32)
        ref, _, _ = reference_iteration_matrix(medium, 0.05, 256)
        sampled = iteration_matrix(medium, rom_sample(build_partition(16, 0.05), 77, 279))
        cases.append((sampled - ref, medium.cell_weights))
        for entries, weight in cases:
            d = np.sqrt(weight)
            expected = np.linalg.svd(entries * d[:, None] / d[None, :], compute_uv=False)[0]
            assert weighted_operator_norm(entries, weight) == pytest.approx(expected, rel=1e-8)


    @pytest.mark.parametrize("entries, weights", [
        (np.ones((3, 2)), np.ones(3)),  # not square
        (np.ones(3), np.ones(3)),  # not a matrix
        (np.ones((3, 3)), np.ones(1)),  # would broadcast over the 3 cells
        (np.ones((3, 3)), np.ones(4)),
        (np.ones((3, 3)), np.ones((3, 1))),
    ])
    def test_rejects_mismatched_shapes(self, entries, weights):
        with pytest.raises(LengthMismatch):
            weighted_operator_norm(entries, weights)
        with pytest.raises(LengthMismatch):
            weighted_adjoint(entries, weights)

    @pytest.mark.parametrize("entries, weights", [
        (np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2)),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2)),
        (np.eye(2), np.array([1.0, 0.0])),
        (np.eye(2), np.array([-1.0, 1.0])),
    ])
    def test_rejects_nonfinite_entries_and_nonpositive_weights(self, entries, weights):
        with pytest.raises(ValueError):
            weighted_operator_norm(entries, weights)


class TestGramTrace:
    def test_constant_coefficient_oracle(self):
        # double integral of the squared kernel: (1/(2 mu)) (1 - (mu/2)(1 - e^{-2/mu}))
        medium = scattering_medium(400)  # sigma_r = sigma_t = 1
        mu = 0.5
        exact = (1.0 / (2 * mu)) * (1.0 - (mu / 2) * (1.0 - np.exp(-2.0 / mu)))
        assert gram_trace(medium, mu) == pytest.approx(exact, rel=0.01)

    def test_adjoint_order_equality(self, rng):
        for _ in range(20):
            medium = random_medium(rng, ncells=12)
            mu = rng.choice([-1, 1]) * rng.uniform(0.05, 1.0)
            op = transport_matrix(medium, mu)
            adj = weighted_adjoint(op, medium.cell_weights)
            t1 = np.trace(adj @ op)
            t2 = np.trace(op @ adj)
            assert t1 == pytest.approx(t2, rel=1e-10, abs=1e-12)
            assert gram_trace(medium, mu) == pytest.approx(t1, rel=1e-10)

    def test_paper_bound(self, rng):
        for _ in range(50):
            medium = random_medium(rng)
            mu = rng.choice([-1, 1]) * rng.uniform(0.02, 1.0)
            width = medium.grid.x_right - medium.grid.x_left
            bound = (
                width / abs(mu) * np.max(medium.sigma_t) ** 2 * np.max(1.0 / medium.sigma_t)
            )
            assert gram_trace(medium, mu) <= bound

    def test_mesh_refinement_stability(self):
        coarse = scattering_medium(150)
        fine = scattering_medium(300)
        a = gram_trace(coarse, 0.5)
        b = gram_trace(fine, 0.5)
        assert abs(a - b) / b <= 0.02


class TestLipschitzInMu:
    def test_finite_difference_bound(self, rng):
        h = 1e-5
        for _ in range(20):
            medium = random_medium(rng, ncells=10)
            mu = rng.choice([-1, 1]) * rng.uniform(0.1, 0.95)
            a = transport_matrix(medium, mu)
            b = transport_matrix(medium, mu + h)
            fd = weighted_operator_norm(b - a, medium.cell_weights) / h
            bound = (1.0 / abs(mu)) * (
                1.0 + np.max(medium.sigma_t / medium.sigma_r)
            ) + 0.1
            assert fd <= bound


class TestDeviationStats:
    def test_mean_entries_match_reference(self):
        medium = scattering_medium(12)
        part = build_partition(8, 0.2)
        ref, _, _ = reference_iteration_matrix(medium, 0.2, 256)
        stats = iteration_deviation_stats(medium, part, ref, 333, 10_000)
        # E dT = 0: every entry's sample mean within 4 standard errors of zero
        scaled = np.abs(stats.entry_mean) / np.where(stats.entry_se > 0, stats.entry_se, 1.0)
        assert np.max(scaled) <= 4.0

    def test_cubic_decay_ratio(self):
        medium = scattering_medium(32)
        seed = 77
        ref, _, _ = reference_iteration_matrix(medium, 0.05, 256)
        s16 = iteration_deviation_stats(medium, build_partition(16, 0.05), ref, seed, 1500)
        s32 = iteration_deviation_stats(medium, build_partition(32, 0.05), ref, seed, 1500)
        ratio = s32.mean_sq_norm / s16.mean_sq_norm
        assert 2**-3 * 0.5 <= ratio <= 2**-3 * 2.2

    def test_max_norm_calibrated_cap(self):
        # calibrate C at n=8, reuse at n=64: sup-norm of the deviation is C/n
        medium = scattering_medium(24)
        seed = 7
        ref, _, _ = reference_iteration_matrix(medium, 0.05, 256)
        s8 = iteration_deviation_stats(medium, build_partition(8, 0.05), ref, seed, 500)
        cap = s8.max_norm * 8 * 1.1
        s64 = iteration_deviation_stats(medium, build_partition(64, 0.05), ref, seed, 500)
        assert s64.max_norm <= cap / 64

    def test_sample_count_guard(self):
        medium = scattering_medium(8)
        ref, _, _ = reference_iteration_matrix(medium, 0.1, 256)
        with pytest.raises(ConfigError, match="/study/samples"):
            iteration_deviation_stats(medium, build_partition(4, 0.1), ref, 0, 1)

    def test_jobs_do_not_change_statistics(self):
        medium = scattering_medium(10)
        part = build_partition(8, 0.1)
        ref, _, _ = reference_iteration_matrix(medium, 0.1, 256)
        a = iteration_deviation_stats(medium, part, ref, 4, 200, jobs=1)
        b = iteration_deviation_stats(medium, part, ref, 4, 200, jobs=3)
        assert a.mean_sq_norm == b.mean_sq_norm
        assert a.max_norm == b.max_norm
        np.testing.assert_array_equal(a.entry_mean, b.entry_mean)
        np.testing.assert_array_equal(a.entry_se, b.entry_se)

    def test_welford_sums_match_two_pass_reference(self):
        medium = scattering_medium(10)
        part = build_partition(8, 0.1)
        ref, _, _ = reference_iteration_matrix(medium, 0.1, 256)
        stats = iteration_deviation_stats(medium, part, ref, 9, 50)
        deltas = np.stack([iteration_matrix(medium, rom_sample(part, 9, i)) - ref for i in range(50)])
        # the running sums reorder the arithmetic: agree to rounding at this scale
        scale = np.max(np.abs(deltas))
        np.testing.assert_allclose(stats.entry_mean, deltas.mean(axis=0), rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(stats.entry_se, np.sqrt(deltas.var(axis=0, ddof=1) / 50),
                                   rtol=1e-11, atol=1e-13 * scale)

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_memory_flat_in_samples(self, jobs):
        # deviations are reduced as they arrive, so quadrupling the samples
        # must not grow the peak (stacking them grew it 3.9x at M = 64)
        medium = scattering_medium(64)
        part = build_partition(16, 0.05)
        ref = iteration_matrix(medium, dom_quadrature(part, "midpoint"))

        def peak(samples):
            tracemalloc.start()
            try:
                iteration_deviation_stats(medium, part, ref, 5, samples, jobs=jobs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(256) <= 1.5 * peak(64)


class TestBoundaryDeviation:
    def test_zero_boundary_gives_zero(self):
        medium = scattering_medium(10)
        bc = BoundarySpec(ConstantBoundary(0.0), ConstantBoundary(0.0))
        ref, _, _ = reference_boundary_average(medium, bc, 0.05, 256)
        stats = boundary_deviation_stats(medium, bc, build_partition(8, 0.05), ref, 5, 50)
        assert stats.max_norm == 0.0
        assert stats.mean_sq_norm == 0.0

    def test_mean_entries_zero(self):
        medium = scattering_medium(16)
        bc = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(0.0))
        ref, _, gap = reference_boundary_average(medium, bc, 0.05, 256)
        assert 0.0 < gap <= defaults.REF_ENTRY_TOL
        stats = boundary_deviation_stats(medium, bc, build_partition(8, 0.05), ref, 17, 3000)
        scaled = np.abs(stats.entry_mean) / np.where(stats.entry_se > 0, stats.entry_se, 1.0)
        assert np.max(scaled) <= 4.0

    def test_nonzero_for_constant_data(self):
        # the boundary propagator varies in mu, so single-sample deviations
        # are nonzero even for constant boundary values
        medium = scattering_medium(16)
        bc = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(0.0))
        ref, _, _ = reference_boundary_average(medium, bc, 0.05, 256)
        stats = boundary_deviation_stats(medium, bc, build_partition(8, 0.05), ref, 17, 100)
        assert stats.mean_sq_norm > 0.0
        assert stats.max_norm > 0.0


class TestMatrixSolveCrossCheck:
    def test_direct_inverse_matches_source_iteration(self, rng):
        for _ in range(5):
            medium = random_medium(rng, ncells=20)
            if medium.lam == 0:
                continue
            quad = rom_sample(build_partition(8, 0.05), 23, 0)
            bc = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(0.5))
            tol = 1e-11
            phi, report = solve(medium, bc, quad, tol=tol)
            assert report.converged

            top = iteration_matrix(medium, quad)
            inflows = inflow_values(bc, quad.mus)
            avg, _ = batched_sweep(medium, quad.mus, medium.q, inflows)
            const = quad.weights @ avg
            direct = np.linalg.solve(
                np.eye(medium.ncells) - medium.lam * top, const
            )
            assert weighted_norm_of(direct - phi, medium) <= 2 * tol
