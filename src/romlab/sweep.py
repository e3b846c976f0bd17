"""Exact single-direction transport solves on piecewise-constant media.

Within one cell, sigma_t and the source are constant, so the streaming
equation mu dpsi/dx + sigma_t psi = s integrates in closed form.  With
tau = sigma_t * h / |mu| and saturation value sat = s / sigma_t:

    psi_out  = sat + (psi_in - sat) * exp(-tau)
    cell avg = sat + (psi_in - sat) * (1 - exp(-tau)) / tau

marched in the upwind direction.  The escape factor is -expm1(-tau) / tau at
every depth, within 1.5 ulp for tau > 0, which make_medium (sigma_t * h > 0)
and one ordinate check per sweep (0 < |mu| <= 1) ensure.  That check, the
weights' (``_quadrature``) and the per-cell arrays' (``_per_cell``: shape and
finite values) run once per call, before any factor is built.  Batched calls
take the inflow BoundarySpec; each chunk evaluates its upwind side through
``_inflows``, which rejects non-finite values.
``sweep_direction`` is the plain scalar march of one ordinate and serves as
the reference route; the batched helpers below compute the same arrays for
many ordinates at once via cumulative optical depths, one path for every
depth, cross-checked against the march in the tests.  Each batched call
builds the exponentials of one chunk of at most max(64, M) ordinates of one
sign group at a time (``_half_factors``) and runs one source kernel over
them (``_swept_half``), so its memory does not grow with the ordinate count.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import defaults
from .errors import LengthMismatch, PureAbsorber, ZeroMu
from .medium import BoundarySpec, ConstantBoundary, MediumProfile

# max optical depth of one block of the exp-product, at its deepest ordinate
_EXP_GUARD = defaults.EXP_PRODUCT_GUARD


def _check_ordinates(mus) -> np.ndarray:
    """``mus`` as a float array, or ZeroMu / ValueError naming the first outside 0 < |mu| <= 1."""
    mus = np.asarray(mus, dtype=float)
    ok = (mus != 0) & (np.abs(mus) <= 1.0)
    if not ok.all():
        first = np.unravel_index(np.argmin(ok), mus.shape)
        error = ZeroMu if mus[first] == 0 else ValueError
        raise error(f"ordinate {list(map(int, first))} is {mus[first]}: sweeps need 0 < |mu| <= 1")
    return mus


def _per_cell(medium: MediumProfile, values, name: str) -> np.ndarray:
    """``values`` as a float array, checked to hold one finite value per cell; errors name it."""
    v = np.asarray(values, dtype=float)
    if v.shape != (medium.ncells,):
        raise LengthMismatch(f"{name} has length {v.size}, grid has {medium.ncells} cells")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def _quadrature(mus, weights) -> tuple[np.ndarray, np.ndarray]:
    """(mus, weights) as float arrays: checked ordinates, and one finite weight each."""
    mus, w = _check_ordinates(mus), np.asarray(weights, dtype=float)
    if w.shape != mus.shape:
        raise LengthMismatch(f"weights have shape {w.shape}, ordinates {mus.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    return mus, w


def _inflows(boundary: BoundarySpec, side: str, mus) -> np.ndarray:
    """``boundary``'s ``side`` data at the checked ordinates ``mus``, checked to be finite."""
    values = getattr(boundary, side).evaluate(mus)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{side} inflow values must be finite")
    return values


def sweep_direction(medium: MediumProfile, mu: float, cell_source, inflow: float):
    """March one ordinate across the slab; exact for piecewise-constant data.

    ``cell_source`` is the per-cell emission density s_i; ``inflow`` is the
    boundary value at the upwind edge (x_left for mu > 0, x_right for mu < 0).
    Returns read-only (avg, edges) of shapes (M,) and (M+1,): the cell
    averages and edge values of psi(., mu), one row of batched_sweep.
    """
    _check_ordinates([mu])
    s = _per_cell(medium, cell_source, "cell_source")
    m = medium.ncells
    order = range(m) if mu > 0 else range(m - 1, -1, -1)
    # in Python floats, a depth that overflows is inf (fully absorbed) without a warning
    inv_mu = 1.0 / abs(float(mu))
    sigma, h = medium.sigma_t.tolist(), medium.grid.widths.tolist()
    avg = np.empty(m)
    edges = np.empty(m + 1)
    psi = float(inflow)
    if mu > 0:
        edges[0] = psi
    else:
        edges[m] = psi
    for i in order:
        tau = sigma[i] * h[i] * inv_mu
        sat = s[i] / sigma[i]
        avg[i] = sat + (psi - sat) * (-math.expm1(-tau) / tau)
        psi = sat + (psi - sat) * math.exp(-tau)
        edges[i + 1 if mu > 0 else i] = psi
    avg.setflags(write=False)
    edges.setflags(write=False)
    return avg, edges


def apply_transport(medium: MediumProfile, mu: float, phi: np.ndarray) -> np.ndarray:
    """Single-direction scattering response: zero-inflow sweep of sigma_r * phi.

    Takes and returns read-only cell-average arrays.  This realizes the
    direction-wise solution operator whose averages build the source-iteration
    map; it requires a scattering medium.
    """
    if medium.lam == 0:
        raise PureAbsorber("apply_transport needs lambda > 0; sweep the source directly")
    return sweep_direction(medium, mu, medium.sigma_r * _per_cell(medium, phi, "phi"), 0.0)[0]


def boundary_term(medium: MediumProfile, mu: float, boundary: BoundarySpec) -> np.ndarray:
    """Read-only cell averages of the boundary-propagated flux for one ordinate.

    The profile is the zero-source sweep carrying only the inflow value, so
    cell i averages to inflow * (exp(-tau_entry) - exp(-tau_exit)) * |mu| / (sigma_t h).
    """
    _check_ordinates([mu])  # before any inflow is evaluated
    value = _inflows(boundary, "left" if mu > 0 else "right", mu)
    return sweep_direction(medium, mu, np.zeros(medium.ncells), value)[0]


# ---------------------------------------------------------------------------
# Batch layer: many ordinates at once via cumulative optical depth.  The
# exponentials depend on the medium and the ordinates, never on the source:
# each chunk's factor set is built once per call and freed before the next
# chunk's.
# ---------------------------------------------------------------------------

# fewest ordinates per chunk: numpy calls on fewer rows cost more than they save
_CHUNK_FLOOR = 64


class _Half(NamedTuple):
    """Source-independent factors of one chunk of a sign group, in upwind cell order.

    ``sel`` indexes the chunk's ordinates in ``mus``, one index array per
    axis, so selecting them costs nothing per ordinate outside the chunk.
    ``side`` names the BoundarySpec side upwind of them, "left" or "right".
    ``flip`` maps per-cell arrays to upwind order and back.  ``blocks`` are
    (start, stop) cell ranges, none deeper than the guard at any ordinate,
    and depth restarts at each block's entry.  ``exp_c`` is exp(depth) at
    each cell's exit, ``decay`` exp(-depth) at each cell's entry and the slab's exit.
    """

    sel: tuple[np.ndarray, ...]
    side: str
    flip: slice
    G: np.ndarray
    one_minus_e: np.ndarray
    decay: np.ndarray
    exp_c: np.ndarray
    blocks: list[tuple[int, int]]

    def rows(self, start: int, stop: int) -> "_Half":
        """Views of ordinates start..stop-1 of this chunk; ``sel`` stays the whole chunk's."""
        return self._replace(G=self.G[start:stop], one_minus_e=self.one_minus_e[start:stop],
                             decay=self.decay[start:stop], exp_c=self.exp_c[start:stop])


# tau, or its running sum, is inf below |mu| ~ depth / 1.8e308: G = 0, fully absorbed
@np.errstate(over="ignore")
def _half_factors(sel, side, flip, depth_up, mu_abs) -> _Half:
    tau = depth_up[None, :] / mu_abs[:, None]
    # One allocation holds the kept factors: as four arrays with freed
    # temporaries between them they fragment the heap, and a process's
    # peak memory then varies from run to run.
    L, m = tau.shape
    buf = np.empty(L * (4 * m + 1))
    decay = buf[: L * (m + 1)].reshape(L, m + 1)
    G, one_minus_e, exp_c = buf[L * (m + 1) :].reshape(3, L, m)
    np.expm1(np.negative(tau, out=one_minus_e), out=one_minus_e)
    np.negative(one_minus_e, out=one_minus_e)
    np.divide(one_minus_e, tau, out=G)
    np.cumsum(tau, axis=1, out=exp_c)
    blocks = [(0, m)]
    if exp_c[:, -1].max(initial=0.0) > _EXP_GUARD:
        # a cell deeper than the guard counts as the guard (G and one_minus_e
        # keep its true depth); blocks are cut greedily at the deepest ordinate
        np.minimum(tau, _EXP_GUARD, out=tau)
        deepest = np.concatenate([[0.0], np.cumsum(tau[np.argmin(mu_abs)])])
        cuts = [0]
        while cuts[-1] < m:
            cuts.append(int(np.searchsorted(deepest, deepest[cuts[-1]] + _EXP_GUARD, "right")) - 1)
        blocks = list(zip(cuts, cuts[1:]))
        for start, stop in blocks:
            np.cumsum(tau[:, start:stop], axis=1, out=exp_c[:, start:stop])
    decay[:, 1:] = exp_c
    for start, _ in blocks:
        decay[:, start] = 0.0
    np.exp(exp_c, out=exp_c)
    np.exp(np.negative(decay, out=decay), out=decay)
    return _Half(sel, side, flip, G, one_minus_e, decay, exp_c, blocks)


def _factor_chunks(medium: MediumProfile, mus: np.ndarray):
    """Build the _Half of each chunk of each sign group of checked ordinates lazily.

    mu > 0 comes first.  A chunk is at most max(64, M) consecutive ordinates
    of its group in row-major order, so a block's rows stay in order; its
    factors take about four M x M arrays' memory at any ordinate count.
    """
    size = max(_CHUNK_FLOOR, medium.ncells)
    for sign, side, flip in ((mus > 0, "left", slice(None)),
                             (mus < 0, "right", slice(None, None, -1))):
        where = np.flatnonzero(sign)
        for start in range(0, where.size, size):
            sel = np.unravel_index(where[start : start + size], mus.shape)
            # cell_weights = sigma_t * h, each cell's optical depth at |mu| = 1
            yield _half_factors(sel, side, flip, medium.cell_weights[flip], np.abs(mus[sel]))


def batched_sweep(medium: MediumProfile, mus, cell_source, boundary: BoundarySpec):
    """Sweeps of one source vector at many ordinates, with the inflow data ``boundary``.

    Returns (avg, edges) of shapes mus.shape + (M,) and mus.shape + (M+1,),
    each ordinate's entry its sweep_direction result; mus may be a (B, L) block.
    """
    mus, sat = _check_ordinates(mus), _per_cell(medium, cell_source, "cell_source") / medium.sigma_t
    avg = np.empty(mus.shape + (medium.ncells,))
    edges = np.empty(mus.shape + (medium.ncells + 1,))
    for f in _factor_chunks(medium, mus):
        a_up, e_up = _swept_half(f, sat[f.flip], _inflows(boundary, f.side, mus[f.sel]))
        avg[f.sel] = a_up[:, f.flip]
        edges[f.sel] = e_up[:, f.flip]
        del f, a_up, e_up  # free this chunk's arrays before the next chunk's are built
    return avg, edges


def averaged_sweep(medium: MediumProfile, mus, weights, cell_source, boundary) -> np.ndarray:
    """sum_l weights[l] * (cell averages of the sweep at mus[l]) with the inflow
    BoundarySpec: the weighted batched_sweep averages, without the (L, M) arrays."""
    sat = _per_cell(medium, cell_source, "cell_source") / medium.sigma_t
    out = np.zeros(medium.ncells)
    mus, w = _quadrature(mus, weights)
    for f in _factor_chunks(medium, mus):
        out[f.flip] += w[f.sel] @ _swept_half(f, sat[f.flip], _inflows(boundary, f.side, mus[f.sel]))[0]
        del f  # free this chunk's factors before the next chunk's are built
    return out


def _swept_half(f: _Half, sat, inflow):
    # edge values decay * (block entry value + emission accumulated up to the edge)
    edges = np.empty((inflow.size, sat.size + 1))
    for start, stop in f.blocks:
        seg = edges[:, start : stop + 1]
        entry = seg[:, 0] / f.exp_c[:, start - 1] if start else inflow  # last exit, decayed
        seg[:, 0] = 0.0
        emitted = sat[start:stop] * f.one_minus_e[:, start:stop]
        emitted *= f.exp_c[:, start:stop]
        np.cumsum(emitted, axis=1, out=seg[:, 1:])
        seg += entry[:, None]
    edges *= f.decay
    avg = edges[:, :-1] - sat[None, :]
    avg *= f.G
    avg += sat[None, :]
    return avg, edges


_UNIT_INFLOW = BoundarySpec(ConstantBoundary(1.0), ConstantBoundary(1.0))


def transmission_averages(medium: MediumProfile, mus) -> np.ndarray:
    """(L, M) cell averages of the unit-inflow, zero-source sweep per ordinate."""
    return batched_sweep(medium, mus, np.zeros(medium.ncells), _UNIT_INFLOW)[0]


def averaged_response_matrix(medium: MediumProfile, mus, quad_weights, scale) -> np.ndarray:
    """Weighted sum over ordinates of cell-average response matrices.

    Entry (i, j) of the per-ordinate matrix is the average in cell i of the
    zero-inflow sweep whose source is scale[j] in cell j and zero elsewhere;
    the returned matrix is sum_l quad_weights[l] * R(mus[l]).  For a single
    ordinate pass weights = [1.0].
    """
    mus, w = _quadrature(mus, quad_weights)
    r, m = _per_cell(medium, scale, "scale") / medium.sigma_t, medium.ncells
    out = np.zeros((m, m))
    full = np.empty((m, m))
    for f in _factor_chunks(medium, mus):
        out[f.flip, f.flip] += _response_half(f, r[f.flip], w[f.sel], full)
        del f  # free this chunk's factors before the next chunk's are built
    return out


def _response_half(f: _Half, r_up, w, full: np.ndarray) -> np.ndarray:
    """Chunk f's weighted response matrix in upwind order, written into ``full``."""
    # products formed in place, so no (L, M) temporary outlives its line
    wu = f.G * f.decay[:, :-1]
    wu *= w[:, None]
    # column j: exit value of a unit source in cell j, carried to the entry
    # of the block of rows being filled; the unfilled upper part is zeroed
    v = r_up[None, :] * f.one_minus_e
    v *= f.exp_c
    for start, stop in f.blocks:
        if start:
            v[:, :start] /= f.exp_c[:, start - 1 : start]
        np.matmul(wu[:, start:stop].T, v[:, :stop], out=full[start:stop, :stop])
    # in place: np.tril would copy the M x M array
    np.copyto(full, 0.0, where=_on_or_above_diagonal(r_up.size))
    full.flat[:: r_up.size + 1] = r_up * (w.sum() - w @ f.G)  # the diagonal
    return full


@functools.lru_cache(maxsize=1)
def _on_or_above_diagonal(m: int) -> np.ndarray:
    """Read-only (m, m) mask of the entries j >= i; a solve builds one
    response per chunk and row, all of one size."""
    mask = np.tri(m, dtype=bool).T
    mask.setflags(write=False)
    return mask
