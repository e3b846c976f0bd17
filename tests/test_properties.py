"""Property tests of the batched sweep kernels against the scalar march,
of the layout of one sweep factor set, and of the weighted-adjoint identities.

Media are drawn thin (every cumulative optical depth below the exp-product
guard, so each sign group is one block), thick (an ordinate just above
delta sees a depth above the guard, so the exp-product restarts in several
blocks and single cells can be deeper than the guard) or mixed (per-cell
sigma_t spanning both, so blocks can have unequal lengths).  Ordinate sets
are all positive, all negative, or mixed, and always hold one ordinate a
hair above the truncation delta.  Each case draws its inflow data, a
constant, linear or tabulated side on each half, nonnegative there.  A
deterministic case puts every cell deeper than the guard.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from romlab import (
    BoundarySpec,
    ConstantBoundary,
    LinearBoundary,
    QuadratureSet,
    SpatialGrid,
    TabulatedBoundary,
    make_medium,
    reference_quadrature,
    solve,
    sweep_direction,
)
from romlab.defaults import EXP_PRODUCT_GUARD
from romlab.medium import weighted_norm_of
from romlab.operators import gram_trace, iteration_matrix, transport_matrix, weighted_adjoint
from romlab.sweep import (
    _factor_chunks,
    averaged_response_matrix,
    averaged_sweep,
    batched_sweep,
    transmission_averages,
)
from conftest import source_iteration, upwind_inflow

DELTA = 0.05
# sigma_t ranges: thin keeps sigma_t / delta below the guard on the unit slab,
# thick puts it above the guard at mu = delta, mixed spans both
SIGMA_T = {"thin": (0.05, 5.0), "thick": (40.0, 80.0), "mixed": (0.05, 80.0)}
REGIMES = list(SIGMA_T)


def _array(draw, lo, hi, size):
    """``size`` floats in [lo, hi], none subnormal: the kernels' relative
    tolerances assume normal-range data."""
    return np.array(draw(st.lists(st.floats(lo, hi, allow_subnormal=False),
                                  min_size=size, max_size=size)))


@st.composite
def sides(draw, sign):
    """Inflow data on the half of cosines of this sign, nonnegative there."""
    kind = draw(st.sampled_from(["constant", "linear", "table"]))
    at_0, at_1 = _array(draw, 0.0, 3.0, 2)  # values at |mu| = 0 and 1
    if kind == "constant":
        return ConstantBoundary(at_0)
    if kind == "linear":
        return LinearBoundary(sign * (at_1 - at_0), at_0)
    nodes = draw(st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=1, max_size=4,
                          unique=True))
    return TabulatedBoundary(np.sort(sign * np.array(nodes)), _array(draw, 0.0, 3.0, len(nodes)))


@st.composite
def cases(draw, regime):
    ncells = draw(st.integers(1, 8))
    sigma_t = _array(draw, *SIGMA_T[regime], ncells)
    ratio = _array(draw, 0.0, 0.9, ncells)
    q = _array(draw, 0.0, 2.0, ncells)
    widths = _array(draw, 0.1, 1.0, ncells)
    edges = np.concatenate([[0.0], np.cumsum(widths / widths.sum())])
    edges[-1] = 1.0
    medium = make_medium(SpatialGrid(edges), sigma_t, ratio * sigma_t, q)

    near = DELTA * (1.0 + draw(st.floats(1e-12, 1e-3)))
    signs = draw(st.sampled_from(["positive", "negative", "mixed"]))
    others = draw(st.lists(st.floats(DELTA, 1.0, exclude_min=True),
                           min_size=int(signs == "mixed"), max_size=5))
    mus = np.array([near] + others)
    if signs == "negative":
        mus = -mus
    elif signs == "mixed":
        flips = draw(st.lists(st.booleans(), min_size=mus.size, max_size=mus.size))
        flips[1] = not flips[0]
        mus = np.where(flips, -mus, mus)
    weights = _array(draw, 0.01, 1.0, mus.size)
    return medium, mus, weights, BoundarySpec(draw(sides(1.0)), draw(sides(-1.0)))


def _check_regime(medium, mus, regime):
    depth = float(np.sum(medium.sigma_t * medium.grid.widths)) / np.min(np.abs(mus))
    if regime == "mixed":
        assume(depth > EXP_PRODUCT_GUARD)
    assert (depth > EXP_PRODUCT_GUARD) == (regime != "thin")


def _close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=1e-9, atol=1e-13 * np.max(np.abs(expected)))


@pytest.mark.parametrize("regime", REGIMES)
@settings(max_examples=40)
@given(data=st.data())
def test_batched_sweep_matches_march(regime, data):
    medium, mus, _, boundary = data.draw(cases(regime))
    _check_regime(medium, mus, regime)
    avg, edges = batched_sweep(medium, mus, medium.q, boundary)
    for row, mu in enumerate(mus):
        ref_avg, ref_edges = sweep_direction(medium, mu, medium.q, upwind_inflow(boundary, mu))
        _close(avg[row], ref_avg)
        _close(edges[row], ref_edges)
    assert np.all(avg >= 0) and np.all(edges >= 0)


@pytest.mark.parametrize("regime", REGIMES)
@settings(max_examples=40)
@given(data=st.data())
def test_transmission_averages_match_march(regime, data):
    medium, mus, _, _ = data.draw(cases(regime))
    _check_regime(medium, mus, regime)
    out = transmission_averages(medium, mus)
    zero = np.zeros(medium.ncells)
    for row, mu in enumerate(mus):
        _close(out[row], sweep_direction(medium, mu, zero, 1.0)[0])


@pytest.mark.parametrize("regime", REGIMES)
@settings(max_examples=40)
@given(data=st.data())
def test_response_matrix_matches_march(regime, data):
    medium, mus, weights, _ = data.draw(cases(regime))
    _check_regime(medium, mus, regime)
    scale = medium.sigma_t * 0.5
    out = averaged_response_matrix(medium, mus, weights, scale)
    expected = np.zeros((medium.ncells, medium.ncells))
    for j in range(medium.ncells):
        unit = np.zeros(medium.ncells)
        unit[j] = scale[j]
        for mu, w in zip(mus, weights):
            expected[:, j] += w * sweep_direction(medium, mu, unit, 0.0)[0]
    _close(out, expected)


@pytest.mark.parametrize("regime", REGIMES)
@settings(max_examples=40)
@given(data=st.data())
def test_averaged_sweep_is_weighted_batched_sweep(regime, data):
    medium, mus, weights, boundary = data.draw(cases(regime))
    _check_regime(medium, mus, regime)
    for source in (medium.q, np.zeros(medium.ncells)):
        expected = weights @ batched_sweep(medium, mus, source, boundary)[0]
        _close(averaged_sweep(medium, mus, weights, source, boundary), expected)


@pytest.mark.parametrize("regime", REGIMES)
@settings(max_examples=20)
@given(data=st.data())
def test_factor_set_is_one_allocation_per_group(regime, data):
    # a chunk's factors live while its share of a sweep or solve is
    # built; as four separate arrays with freed temporaries between them they
    # fragmented the heap, and peak memory varied from run to run
    medium, mus, _, _ = data.draw(cases(regime))
    _check_regime(medium, mus, regime)
    for f in _factor_chunks(medium, mus):
        arrays = [f.decay, f.G, f.one_minus_e, f.exp_c]
        assert all(a.flags.c_contiguous for a in arrays)
        block = arrays[0].base
        assert block is not None and all(a.base is block for a in arrays)
        assert block.nbytes == sum(a.nbytes for a in arrays)
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])


@pytest.mark.parametrize("regime", REGIMES)
@settings(max_examples=20)
@given(data=st.data())
def test_blocks_cover_the_cells_within_the_guard(regime, data):
    medium, mus, _, _ = data.draw(cases(regime))
    _check_regime(medium, mus, regime)
    for f in _factor_chunks(medium, mus):
        tau = (medium.sigma_t * medium.grid.widths)[f.flip] / np.abs(mus[f.sel])[:, None]
        starts, stops = zip(*f.blocks)
        assert starts[0] == 0 and stops[-1] == medium.ncells and starts[1:] == stops[:-1]
        assert all(start < stop for start, stop in f.blocks)
        thin = np.cumsum(tau, axis=1)[:, -1].max() <= EXP_PRODUCT_GUARD
        assert (len(f.blocks) == 1) == (thin or medium.ncells == 1)
        for start, stop in f.blocks:
            depth = np.minimum(tau[:, start:stop], EXP_PRODUCT_GUARD).sum(axis=1)
            assert depth.max() <= EXP_PRODUCT_GUARD * (1 + 1e-12)


def _deep_medium():
    # sigma_t = 100 on cells of width 0.1: at mu = 0.0125 each cell is 800
    # deep, past the guard and past the overflow of exp at about 709
    grid = SpatialGrid.uniform(0.0, 1.0, 10)
    sigma_t = np.full(10, 100.0)
    return make_medium(grid, sigma_t, 0.5 * sigma_t, np.linspace(0.5, 1.5, 10))


def test_cells_deeper_than_the_guard_match_march():
    medium = _deep_medium()
    mus = np.array([0.0125, -0.0125, 0.3, -0.9])
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    # inflows 1, 2, 0.5 and 0 at the four ordinates
    boundary = BoundarySpec(TabulatedBoundary([0.0125, 0.3], [1.0, 0.5]),
                            TabulatedBoundary([-0.9, -0.0125], [0.0, 2.0]))
    assert all(len(f.blocks) == 10 for f in _factor_chunks(medium, mus))
    with np.errstate(over="raise", invalid="raise"):
        avg, edges = batched_sweep(medium, mus, medium.q, boundary)
        matrix = averaged_response_matrix(medium, mus, weights, medium.sigma_s)
        transmitted = transmission_averages(medium, mus)
        boundary_average = averaged_sweep(medium, mus, weights, np.zeros(10), boundary)
    expected = np.zeros((10, 10))
    expected_boundary = np.zeros(10)
    for row, (mu, w) in enumerate(zip(mus, weights)):
        inflow = upwind_inflow(boundary, mu)
        ref_avg, ref_edges = sweep_direction(medium, mu, medium.q, inflow)
        _close(avg[row], ref_avg)
        _close(edges[row], ref_edges)
        unit_inflow = sweep_direction(medium, mu, np.zeros(10), 1.0)[0]
        _close(transmitted[row], unit_inflow)
        expected_boundary += w * inflow * unit_inflow
        for j in range(10):
            unit = np.zeros(10)
            unit[j] = medium.sigma_s[j]
            expected[:, j] += w * sweep_direction(medium, mu, unit, 0.0)[0]
    _close(matrix, expected)
    _close(boundary_average, expected_boundary)


@pytest.mark.parametrize("nodes", [16, 160])  # 32 and 320 ordinates
def test_solve_on_cells_deeper_than_the_guard_matches_march(nodes):
    medium = _deep_medium()
    quad = reference_quadrature(0.0125, nodes)
    boundary = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(0.5))
    with np.errstate(over="raise", invalid="raise"):
        phi, report = solve(medium, boundary, quad, tol=1e-10)
    assert report.converged

    def march(source):
        return sum(w * sweep_direction(medium, mu, source, upwind_inflow(boundary, mu))[0]
                   for mu, w in zip(quad.mus, quad.weights))

    np.testing.assert_allclose(phi, source_iteration(medium, march, 1e-14), rtol=1e-12)


@pytest.mark.parametrize("regime", REGIMES)
@settings(max_examples=10)
@given(data=st.data())
def test_sweep_path_solve_matches_public_sweep_loop(regime, data):
    medium, _, _, boundary = data.draw(cases(regime))
    quad = reference_quadrature(DELTA, 160)  # 320 ordinates
    _check_regime(medium, quad.mus, regime)
    phi, report = solve(medium, boundary, quad, tol=1e-9)
    assert report.converged and report.error_bound <= 1e-9
    expected = source_iteration(
        medium,
        lambda source: quad.weights @ batched_sweep(medium, quad.mus, source, boundary)[0],
        1e-11,
    )
    assert weighted_norm_of(phi - expected, medium) <= 1e-9


def _weighted_dot(weight, a, b):
    return float(np.sum(weight * a * b))


@pytest.mark.parametrize("regime", REGIMES)
@settings(max_examples=40)
@given(data=st.data())
def test_weighted_adjoint_and_gram_trace(regime, data):
    medium, mus, weights, _ = data.draw(cases(regime))
    _check_regime(medium, mus, regime)
    assume(medium.lam > 0)
    m = medium.ncells
    x = _array(data.draw, -1.0, 1.0, m)
    y = _array(data.draw, -1.0, 1.0, m)
    quad = QuadratureSet(mus, weights, "drawn")
    for op in (transport_matrix(medium, mus[0]), iteration_matrix(medium, quad)):
        d = medium.cell_weights
        size = _weighted_dot(d, np.abs(op) @ np.abs(x), np.abs(y))
        lhs = _weighted_dot(d, op @ x, y)
        rhs = _weighted_dot(d, x, weighted_adjoint(op, d) @ y)
        # below 2**-1022 rounding is absolute: each of the ~m*m products may
        # lose one subnormal spacing whatever its size
        assert abs(lhs - rhs) <= 1e-13 * size + m * m * np.finfo(float).smallest_subnormal
    # the single-direction operator at the ordinate nearest delta: outside
    # the thin regime its response kernel can fill several blocks of rows
    op = transport_matrix(medium, mus[0])
    assert gram_trace(medium, mus[0]) == pytest.approx(
        np.trace(weighted_adjoint(op, medium.cell_weights) @ op), rel=1e-12
    )
