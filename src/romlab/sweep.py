"""Exact single-direction transport solves on piecewise-constant media.

Within one cell, sigma_t and the source are constant, so the streaming
equation mu dpsi/dx + sigma_t psi = s integrates in closed form.  With
tau = sigma_t * h / |mu| and saturation value sat = s / sigma_t:

    psi_out  = sat + (psi_in - sat) * exp(-tau)
    cell avg = sat + (psi_in - sat) * (1 - exp(-tau)) / tau

marched in the upwind direction.  A sweep returns plain arrays (avg, edges)
of cell averages and edge values.  ``sweep_direction`` is the plain scalar
march of one ordinate and serves as the reference route; the batched
helpers below compute the same arrays for many ordinates at once, one row
per ordinate, via cumulative optical depths, one path for every depth,
cross-checked against the march in the tests.  Each batched call builds the
exponentials of one chunk of at most max(64, M) ordinates of one sign group
at a time (``_half_factors``) and runs one source kernel over them
(``_swept_half``), so its memory does not grow with the ordinate count.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import defaults
from .errors import LengthMismatch, PureAbsorber, ZeroMu
from .medium import BoundarySpec, MediumProfile, eval_boundary

# below this, (1 - exp(-tau))/tau switches to its series
TAU_TAYLOR = defaults.TAU_TAYLOR
# max optical depth of one block of the exp-product, at its deepest ordinate
_EXP_GUARD = defaults.EXP_PRODUCT_GUARD


def _escape_scalar(tau: float) -> float:
    if tau < TAU_TAYLOR:
        return 1.0 - tau / 2.0 + tau * tau / 6.0 - tau * tau * tau / 24.0
    return -math.expm1(-tau) / tau


def _escape_factor(tau: np.ndarray, one_minus_e: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(1 - exp(-tau))/tau into ``out`` from one_minus_e = -expm1(-tau), with
    a 4-term series below TAU_TAYLOR."""
    np.divide(one_minus_e, tau, out=out)
    small = tau < TAU_TAYLOR
    if np.any(small):
        ts = tau[small]
        out[small] = 1.0 - ts / 2.0 + ts * ts / 6.0 - ts**3 / 24.0
    return out


def sweep_direction(medium: MediumProfile, mu: float, cell_source, inflow: float):
    """March one ordinate across the slab; exact for piecewise-constant data.

    ``cell_source`` is the per-cell emission density s_i; ``inflow`` is the
    boundary value at the upwind edge (x_left for mu > 0, x_right for mu < 0).
    Returns read-only (avg, edges) of shapes (M,) and (M+1,): the cell
    averages and edge values of psi(., mu), one row of batched_sweep.
    """
    if mu == 0:
        raise ZeroMu("transport sweep undefined at mu = 0")
    grid = medium.grid
    m = grid.ncells
    s = np.asarray(cell_source, dtype=float)
    if s.shape != (m,):
        raise LengthMismatch(f"cell_source has length {s.size}, grid has {m} cells")
    if not np.all(np.isfinite(s)):
        raise ValueError("cell_source must be finite")

    order = range(m) if mu > 0 else range(m - 1, -1, -1)
    inv_mu = 1.0 / abs(mu)
    sigma = medium.sigma_t
    h = grid.widths
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
        g = _escape_scalar(tau)
        avg[i] = sat + (psi - sat) * g
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
    if np.shape(phi) != (medium.ncells,):
        raise LengthMismatch(f"phi has length {np.size(phi)}, grid has {medium.ncells} cells")
    return sweep_direction(medium, mu, medium.sigma_r * phi, 0.0)[0]


def boundary_term(medium: MediumProfile, mu: float, boundary: BoundarySpec) -> np.ndarray:
    """Read-only cell averages of the boundary-propagated flux for one ordinate.

    The profile is the zero-source sweep carrying only the inflow value, so
    cell i averages to inflow * (exp(-tau_entry) - exp(-tau_exit)) * |mu| / (sigma_t h).
    """
    value = eval_boundary(boundary, mu)
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
    ``flip`` maps per-cell arrays to upwind order and back.  ``blocks`` are
    (start, stop) cell ranges, none deeper than the guard at any ordinate,
    and depth restarts at each block's entry.  ``exp_c`` is exp(depth) at
    each cell's exit, ``decay`` exp(-depth) at each cell's entry and the slab's exit.
    """

    sel: tuple[np.ndarray, ...]
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


def _half_factors(sel, flip, depth_up, mu_abs) -> _Half:
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
    _escape_factor(tau, one_minus_e, G)
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
    return _Half(sel, flip, G, one_minus_e, decay, exp_c, blocks)


def _sweep_factors(medium: MediumProfile, mus: np.ndarray):
    """The _Half of each chunk of each sign group, mu > 0 first, built lazily.

    A chunk is at most max(64, M) consecutive ordinates of its group in
    row-major order, so a block's rows stay in order, and its factors take
    about four M x M arrays' memory, whatever the ordinate count.
    """
    if np.any(mus == 0):
        raise ZeroMu("transport sweep undefined at mu = 0")
    size = max(_CHUNK_FLOOR, medium.ncells)
    for sign, flip in ((mus > 0, slice(None)), (mus < 0, slice(None, None, -1))):
        where = np.flatnonzero(sign)
        for start in range(0, where.size, size):
            sel = np.unravel_index(where[start : start + size], mus.shape)
            # cell_weights = sigma_t * h, each cell's optical depth at |mu| = 1
            yield _half_factors(sel, flip, medium.cell_weights[flip], np.abs(mus[sel]))


def _ordinate_weights(mus: np.ndarray, weights) -> np.ndarray:
    """``weights`` as a float array, checked to hold one weight per ordinate of ``mus``."""
    w = np.asarray(weights, dtype=float)
    if w.shape != np.shape(mus):
        raise LengthMismatch(f"weights have shape {w.shape}, ordinates {np.shape(mus)}")
    return w


def _sweep_inputs(medium: MediumProfile, mus, cell_source, inflows):
    """mus and the inflows as float arrays of one shape, and the saturation s / sigma_t."""
    mus = np.asarray(mus, dtype=float)
    inflows = np.broadcast_to(np.asarray(inflows, dtype=float), mus.shape)
    s = np.asarray(cell_source, dtype=float)
    m = medium.ncells
    if s.shape != (m,):
        raise LengthMismatch(f"cell_source has length {s.size}, grid has {m} cells")
    return mus, s / medium.sigma_t, inflows


def batched_sweep(medium: MediumProfile, mus, cell_source, inflows):
    """Sweeps of one source vector at many ordinates.

    Returns (avg, edges) with shapes (L, M) and (L, M+1), rows in the order
    of ``mus``.  Equivalent to stacking sweep_direction results.
    """
    mus, sat, inflows = _sweep_inputs(medium, mus, cell_source, inflows)
    avg = np.empty((mus.size, medium.ncells))
    edges = np.empty((mus.size, medium.ncells + 1))
    for f in _sweep_factors(medium, mus):
        a_up, e_up = _swept_half(f, sat[f.flip], inflows[f.sel])
        avg[f.sel] = a_up[:, f.flip]
        edges[f.sel] = e_up[:, f.flip]
        del f, a_up, e_up  # free this chunk's arrays before the next chunk's are built
    return avg, edges


def averaged_sweep(medium: MediumProfile, mus, weights, cell_source, inflows) -> np.ndarray:
    """sum_l weights[l] * (cell averages of the sweep at mus[l]): the
    ordinate-weighted batched_sweep averages, without the (L, M) arrays."""
    mus, sat, inflows = _sweep_inputs(medium, mus, cell_source, inflows)
    w = _ordinate_weights(mus, weights)
    out = np.zeros(medium.ncells)
    for f in _sweep_factors(medium, mus):
        out[f.flip] += w[f.sel] @ _swept_half(f, sat[f.flip], inflows[f.sel])[0]
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


def transmission_averages(medium: MediumProfile, mus) -> np.ndarray:
    """(L, M) cell averages of the unit-inflow, zero-source sweep per ordinate."""
    return batched_sweep(medium, mus, np.zeros(medium.ncells), 1.0)[0]


def averaged_response_matrix(medium: MediumProfile, mus, quad_weights, scale) -> np.ndarray:
    """Weighted sum over ordinates of cell-average response matrices.

    Entry (i, j) of the per-ordinate matrix is the average in cell i of the
    zero-inflow sweep whose source is scale[j] in cell j and zero elsewhere;
    the returned matrix is sum_l quad_weights[l] * R(mus[l]).  For a single
    ordinate pass weights = [1.0].
    """
    mus = np.asarray(mus, dtype=float)
    w = _ordinate_weights(mus, quad_weights)
    scale = np.asarray(scale, dtype=float)
    m = medium.ncells
    if scale.shape != (m,):
        raise LengthMismatch(f"scale has length {scale.size}, grid has {m} cells")
    r = scale / medium.sigma_t
    out = np.zeros((m, m))
    full = np.empty((m, m))
    for f in _sweep_factors(medium, mus):
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
