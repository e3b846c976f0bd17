"""Property tests of the batched sweep kernels against the scalar march.

Media are drawn thin (every cumulative optical depth below the exp-product
guard, so the cumulative-sum path runs) or thick (an ordinate just above
delta sees a depth above the guard, so the cell march runs).  Ordinate sets
are all positive, all negative, or mixed, and always hold one ordinate a
hair above the truncation delta.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romlab import SpatialGrid, make_medium, sweep_direction
from romlab.defaults import EXP_PRODUCT_GUARD
from romlab.sweep import averaged_response_matrix, batched_sweep, transmission_averages

DELTA = 0.05
# sigma_t ranges: thin keeps sigma_t / delta below the guard on the unit slab,
# thick puts it above the guard at mu = delta
SIGMA_T = {"thin": (0.05, 5.0), "thick": (40.0, 80.0)}


@st.composite
def cases(draw, regime):
    ncells = draw(st.integers(1, 8))
    lo, hi = SIGMA_T[regime]
    sigma_t = np.array(draw(st.lists(st.floats(lo, hi), min_size=ncells, max_size=ncells)))
    ratio = np.array(draw(st.lists(st.floats(0.0, 0.9), min_size=ncells, max_size=ncells)))
    q = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=ncells, max_size=ncells)))
    widths = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=ncells, max_size=ncells)))
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
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=mus.size, max_size=mus.size)))
    inflows = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=mus.size, max_size=mus.size)))
    return medium, mus, weights, inflows


def _check_regime(medium, mus, regime):
    depth = float(np.sum(medium.sigma_t * medium.grid.widths)) / np.min(np.abs(mus))
    assert (depth > EXP_PRODUCT_GUARD) == (regime == "thick")


def _close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=1e-9, atol=1e-13 * np.max(np.abs(expected)))


@pytest.mark.parametrize("regime", ["thin", "thick"])
@settings(max_examples=40)
@given(data=st.data())
def test_batched_sweep_matches_march(regime, data):
    medium, mus, _, inflows = data.draw(cases(regime))
    _check_regime(medium, mus, regime)
    avg, edges = batched_sweep(medium, mus, medium.q, inflows)
    for row, (mu, inflow) in enumerate(zip(mus, inflows)):
        ref = sweep_direction(medium, mu, medium.q, inflow)
        _close(avg[row], ref.cell_avg)
        _close(edges[row], ref.edge_values)
    assert np.all(avg >= 0) and np.all(edges >= 0)


@pytest.mark.parametrize("regime", ["thin", "thick"])
@settings(max_examples=40)
@given(data=st.data())
def test_transmission_averages_match_march(regime, data):
    medium, mus, _, _ = data.draw(cases(regime))
    _check_regime(medium, mus, regime)
    out = transmission_averages(medium, mus)
    zero = np.zeros(medium.ncells)
    for row, mu in enumerate(mus):
        _close(out[row], sweep_direction(medium, mu, zero, 1.0).cell_avg)


@pytest.mark.parametrize("regime", ["thin", "thick"])
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
            expected[:, j] += w * sweep_direction(medium, mu, unit, 0.0).cell_avg
    _close(out, expected)
