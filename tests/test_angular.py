import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from romlab import (
    AlphaUnbounded,
    DeltaOutOfRange,
    NoConvergence,
    OddN,
    ReferenceNotConverged,
    build_partition,
    composite_gauss,
    dom_quadrature,
    reference_quadrature,
    rom_pair_block,
    rom_sample,
    uniform_stream,
)
from romlab import angular, defaults
from romlab.angular import _gauss_legendre, certify_by_doubling


class TestPartition:
    def test_uniform_n4(self):
        part = build_partition(4, 0.1)
        np.testing.assert_allclose(part.lower, [-1.0, -0.55, 0.1, 0.55])
        np.testing.assert_allclose(part.upper, [-0.55, -0.1, 0.55, 1.0])
        np.testing.assert_allclose(part.weights, 0.25)
        np.testing.assert_allclose(part.n * part.weights, 1.0)  # the rescaled weights

    def test_uniform_n2(self):
        part = build_partition(2, 0.5)
        np.testing.assert_allclose(part.lower, [-1.0, 0.5])
        np.testing.assert_allclose(part.upper, [-0.5, 1.0])
        np.testing.assert_allclose(part.weights, [0.5, 0.5])

    def test_odd_n_rejected(self):
        with pytest.raises(OddN):
            build_partition(3, 0.1)
        with pytest.raises(OddN):
            build_partition(0, 0.1)

    def test_delta_out_of_range(self):
        for delta in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DeltaOutOfRange):
                build_partition(4, delta)

    def test_weights_sum_to_one(self):
        for n in (2, 6, 16, 64, 128):
            for delta in (0.003125, 0.05, 0.3):
                for layout, ratio in (("uniform", 1.0), ("graded", 1.05)):
                    part = build_partition(n, delta, layout, ratio)
                    assert abs(part.weights.sum() - 1.0) < 1e-14

    def test_mirror_symmetry_exact(self):
        for layout, ratio in (("uniform", 1.0), ("graded", 1.2)):
            part = build_partition(16, 0.05, layout, ratio)
            np.testing.assert_array_equal(part.lower, -part.upper[::-1])
            np.testing.assert_array_equal(part.upper, -part.lower[::-1])

    def test_graded_widths_geometric(self):
        part = build_partition(8, 0.1, "graded", 2.0)
        widths = part.upper[4:] - part.lower[4:]
        np.testing.assert_allclose(widths[1:] / widths[:-1], 2.0, rtol=1e-12)
        assert abs((part.upper - part.lower).sum() - 2 * 0.9) < 1e-14

    def test_alpha_cap(self, monkeypatch):
        # ratio 10 puts a rescaled weight n * weights of 7.2 in the outermost cells
        with pytest.raises(AlphaUnbounded, match="exceeds the cap 4.0"):
            build_partition(16, 0.1, "graded", 10.0)
        # the cap is read from defaults when the partition is built
        monkeypatch.setattr(defaults, "ALPHA_MAX", 8.0)
        part = build_partition(16, 0.1, "graded", 10.0)
        assert 4.0 < (part.n * part.weights).max() <= 8.0 + 1e-12


class TestDomQuadrature:
    def test_midpoint_n2(self):
        quad = dom_quadrature(build_partition(2, 0.5))
        np.testing.assert_allclose(quad.mus, [-0.75, 0.75])
        np.testing.assert_allclose(quad.weights, [0.5, 0.5])

    def test_midpoint_n4(self):
        quad = dom_quadrature(build_partition(4, 0.1))
        np.testing.assert_allclose(quad.mus, [-0.775, -0.325, 0.325, 0.775])

    def test_one_point_gauss_is_midpoint(self):
        # single Gauss-Legendre node per half of [-1, 1] sits at the midpoint
        mus, weights = composite_gauss(0.0, 1)
        np.testing.assert_allclose(mus, [-0.5, 0.5])
        np.testing.assert_allclose(weights, [0.5, 0.5])

    def test_gauss_weights_normalized(self):
        for delta in (0.05, 0.3):
            part = build_partition(8, delta)
            quad = dom_quadrature(part, "gauss")
            assert quad.n == 8  # default order is one node per cell
            assert abs(quad.weights.sum() - 1.0) < 1e-14
            assert np.all(np.abs(quad.mus) > delta)

    def test_gauss_explicit_order(self):
        quad = dom_quadrature(build_partition(4, 0.1), "gauss", order=6)
        assert quad.n == 12

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            dom_quadrature(build_partition(4, 0.1), "simpson")

    def test_reference_integrates_smooth_functions(self):
        # direction-average of mu^2 over the truncated space has closed form
        delta = 0.2
        quad = reference_quadrature(delta, 8)
        exact = (1.0 - delta**3) / (3.0 * (1.0 - delta))
        assert quad.weights @ quad.mus**2 == pytest.approx(exact, rel=1e-13)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 512])
    def test_exact_for_degree_below_2n(self, n):
        # sum_i w_i P_k(x_i) = 2 delta_k0 for every k <= 2n - 1
        x, w = _gauss_legendre(n)
        p_prev, p = np.zeros_like(x), np.ones_like(x)
        errors = [abs(w @ p - 2.0)]
        for k in range(1, 2 * n):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            errors.append(abs(w @ p))
        assert max(errors) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 255, 512, 1024, 2048])
    def test_nodes_match_leggauss_and_mirror(self, n):
        x, _ = _gauss_legendre(n)
        t, _ = leggauss(n)
        assert np.max(np.abs(x - t)) <= 2.3e-16
        np.testing.assert_array_equal(x, -x[::-1])
        if n % 2:
            assert x[n // 2] == 0.0

    @pytest.mark.parametrize("n", [2, 7, 64, 255, 512, 1024])
    def test_interior_weights_match_leggauss(self, n):
        # near +-1 leggauss's own weights are off by up to 1e-10 at 512 nodes
        _, w = _gauss_legendre(n)
        t, v = leggauss(n)
        inner = np.abs(t) < 0.9
        assert np.max(np.abs(w[inner] / v[inner] - 1.0)) <= 1e-12
        np.testing.assert_array_equal(w, w[::-1])

    def test_cap_size_rule_needs_no_square_matrix(self):
        # leggauss(8192) would hold a 537 MB companion matrix; a cached rule
        # from an earlier test would make this measure nothing
        _gauss_legendre.cache_clear()
        tracemalloc.start()
        try:
            _, weights = composite_gauss(0.0, 8192)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert abs(weights.sum() - 1.0) < 1e-14

    def test_unconverged_newton_raises(self, monkeypatch):
        monkeypatch.setattr(angular, "_NEWTON_CAP", 1)
        _gauss_legendre.cache_clear()
        with pytest.raises(NoConvergence):
            composite_gauss(0.0, 64)

    def test_repeated_call_returns_the_same_read_only_arrays(self):
        x, w = _gauss_legendre(96)
        again = _gauss_legendre(96)
        assert again[0] is x and again[1] is w
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestRomSample:
    def test_support_single_pair(self):
        part = build_partition(2, 0.5)
        quad = rom_sample(part, 12345, 0)
        assert 0.5 < quad.mus[1] <= 1.0
        assert quad.mus[0] == -quad.mus[1]

    def test_bitwise_determinism(self):
        part = build_partition(8, 0.05)
        a = rom_sample(part, 42, 0)
        b = rom_sample(build_partition(8, 0.05), 42, 0)
        np.testing.assert_array_equal(a.mus, b.mus)

    def test_distinct_indices_differ(self):
        part = build_partition(8, 0.05)
        a = rom_sample(part, 42, 0)
        b = rom_sample(part, 42, 1)
        assert not np.array_equal(a.mus, b.mus)

    def test_mirror_pairing(self):
        for n in (2, 6, 32):
            part = build_partition(n, 0.05)
            quad = rom_sample(part, 7, 3)
            np.testing.assert_array_equal(quad.mus, -quad.mus[::-1])

    def test_empirical_cell_mean(self):
        # positive cell (0.1, 0.55] of the n=4, delta=0.1 partition
        part = build_partition(4, 0.1)
        count = 100_000
        draws = np.array([rom_sample(part, 99, i).mus[2] for i in range(count)])
        se = 0.45 / np.sqrt(12 * count)
        assert abs(draws.mean() - 0.325) <= 3 * se

    def test_draws_never_leave_cells(self):
        part = build_partition(20, 0.05)
        for i in range(2000):
            quad = rom_sample(part, 11, i)
            assert np.all(quad.mus > part.lower - 1e-16)
            assert np.all(quad.mus <= part.upper + 1e-16)

    def test_stream_uniforms_in_unit_interval(self):
        u = uniform_stream(314159, 0, 1_000_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        # uniform moments at the 5-sigma level
        assert abs(u.mean() - 0.5) < 5 / np.sqrt(12e6)

    def test_million_mapped_draws_stay_in_cell(self):
        # the affine map used by rom_sample keeps every draw inside the
        # half-open cell, hence inside its closure
        part = build_partition(4, 0.1)
        lo, hi = part.lower[2], part.upper[2]
        u = uniform_stream(271828, 0, 1_000_000)
        mus = lo + u * (hi - lo)
        assert np.all(mus >= lo) and np.all(mus < hi)
        assert np.all(np.abs(mus) >= part.delta)

    def test_stream_cross_correlation(self):
        a = uniform_stream(2024, 0, 10_000)
        b = uniform_stream(2024, 1, 10_000)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.05

    def test_weights_are_partition_weights(self):
        part = build_partition(8, 0.05)
        quad = rom_sample(part, 5, 0)
        np.testing.assert_array_equal(quad.weights, part.weights)


class TestRomPair:
    """Antithetic pairs: rows 2k and 2k + 1 of a rom_pair_block."""

    @settings(max_examples=80)
    @given(
        m=st.integers(1, 12),
        delta=st.floats(0.001, 0.5),
        layout=st.sampled_from([("uniform", 1.0), ("graded", 0.8), ("graded", 1.25)]),
        seed=st.integers(0, 2**63 - 1),
        index=st.integers(0, 10**6),
    )
    def test_reflection_in_cell_mirrored_and_centred(self, m, delta, layout, seed, index):
        part = build_partition(2 * m, delta, *layout)
        block = rom_pair_block(part, seed, index, index + 2)
        midpoints = 0.5 * (part.lower + part.upper)
        for k, (draw, reflected) in enumerate(zip(block.mus[0::2], block.mus[1::2])):
            np.testing.assert_array_equal(draw, rom_sample(part, seed, index + k).mus)
            assert np.all(part.lower <= reflected) and np.all(reflected <= part.upper)
            np.testing.assert_array_equal(reflected, -reflected[::-1])
            # |mu| <= 1: the two roundings in lo + hi - mu stay within a few eps
            np.testing.assert_allclose(
                0.5 * (draw + reflected), midpoints, rtol=0, atol=4 * np.finfo(float).eps
            )
        for row in block.weights:
            np.testing.assert_array_equal(row, part.weights)

    @pytest.mark.parametrize("edge", ["lower", "upper"])
    def test_reflected_cell_edge_stays_in_cell(self, monkeypatch, edge):
        # at n = 16, delta = 0.05, lo + hi - mu rounds outside the cell for
        # some cells when mu sits on either edge
        part = build_partition(16, 0.05)
        pos_mu = getattr(part, edge)[part.m:]
        edges = angular.QuadratureSet(
            np.concatenate([-pos_mu[::-1], pos_mu]), part.weights, "rom(edges)"
        )
        monkeypatch.setattr(angular, "rom_sample", lambda *args: edges)
        reflected = rom_pair_block(part, 0, 0, 1).mus[1]
        assert np.all(part.lower <= reflected) and np.all(reflected <= part.upper)


class TestRomPairBlock:
    def test_rows_are_the_pairs_in_order(self):
        part = build_partition(8, 0.05)
        block = rom_pair_block(part, 42, 3, 6)
        assert block.mus.shape == block.weights.shape == (6, 8) and block.n == 8
        for k, i in enumerate(range(3, 6)):
            draw = rom_sample(part, 42, i).mus
            np.testing.assert_array_equal(block.mus[2 * k], draw)
            np.testing.assert_array_equal(
                block.mus[2 * k + 1], np.clip(part.lower + part.upper - draw, part.lower, part.upper)
            )
        assert not block.mus.flags.writeable and not block.weights.flags.writeable
        # the weights are a view of the partition's, not one copy per row
        assert np.shares_memory(block.weights, part.weights)
        assert block.provenance == "rom(seed=42,index=3..5,n=8,delta=0.05,antithetic pairs)"

    @pytest.mark.parametrize("start, stop", [(3, 3), (0, 0), (5, 3)])
    def test_empty_range_raises_before_drawing(self, monkeypatch, start, stop):
        def refuse(*args):
            raise AssertionError("drew before the range was checked")

        monkeypatch.setattr(angular, "rom_sample", refuse)
        with pytest.raises(ValueError, match=f"start={start}, stop={stop}"):
            rom_pair_block(build_partition(8, 0.05), 42, start, stop)


class TestCertifyByDoubling:
    @settings(max_examples=40)
    @given(
        coeff=st.floats(1e-6, 1e3),
        power=st.floats(0.5, 4.0),
        start=st.sampled_from([1, 2, 4, 8]),
        max_nodes=st.sampled_from([4, 16, 64, 256]),
        target=st.floats(1e-12, 1e-1),
    )
    def test_certified_gap_within_target(self, coeff, power, start, max_nodes, target):
        # a value converging like (nodes per half)^-power
        def at(nodes):
            return coeff * float(nodes) ** -power

        def evaluate(quad):
            return at(quad.n // 2)

        gaps = {}
        nodes = start
        while 2 * nodes <= max_nodes:
            nodes *= 2
            gaps[nodes] = abs(at(nodes) - at(nodes // 2))
        certified = [n for n, gap in gaps.items() if gap <= target]
        if not certified:
            with pytest.raises(ReferenceNotConverged):
                certify_by_doubling(
                    evaluate, lambda a, b: abs(a - b), 0.05, start, max_nodes, target, "value"
                )
            return
        value, nodes, gap = certify_by_doubling(
            evaluate, lambda a, b: abs(a - b), 0.05, start, max_nodes, target, "value"
        )
        assert gap <= target
        assert nodes == certified[0]
        assert (value, gap) == (at(nodes), gaps[nodes])

    def test_gap_equal_to_target_certifies(self):
        value, nodes, gap = certify_by_doubling(
            lambda quad: quad.n, lambda a, b: 0.5, 0.05, 4, 64, 0.5, "value"
        )
        assert (value, nodes, gap) == (16, 8, 0.5)

    @pytest.mark.parametrize("start, max_nodes", [(4, 64), (4, 4), (8, 4)])
    def test_unreachable_target_raises(self, start, max_nodes):
        calls = []

        def evaluate(quad):
            calls.append(quad.n // 2)
            return (-1.0) ** len(calls)

        with pytest.raises(ReferenceNotConverged, match="value"):
            certify_by_doubling(evaluate, lambda a, b: abs(a - b), 0.05, start, max_nodes, 1.0, "value")
        assert max(calls) <= max(start, max_nodes)
