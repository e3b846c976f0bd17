"""Exact single-direction transport solves on piecewise-constant media.

Within one cell, sigma_t and the source are constant, so the streaming
equation mu dpsi/dx + sigma_t psi = s integrates in closed form.  With
tau = sigma_t * h / |mu| and saturation value sat = s / sigma_t:

    psi_out  = sat + (psi_in - sat) * exp(-tau)
    cell avg = sat + (psi_in - sat) * (1 - exp(-tau)) / tau

marched in the upwind direction.  ``sweep_direction`` is the plain scalar
march and serves as the reference route; the batched helpers below compute
the same quantities for many ordinates at once via cumulative optical
depths and are cross-checked against the march in the test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import GridMismatch, LengthMismatch, PureAbsorber, ZeroMu
from .medium import BoundarySpec, MediumProfile, ScalarFlux, SpatialGrid, eval_boundary

# below this, (1 - exp(-tau))/tau switches to its series
TAU_TAYLOR = defaults.TAU_TAYLOR
# max cumulative optical depth for the exp-product fast path
_EXP_GUARD = defaults.EXP_PRODUCT_GUARD


@dataclass(frozen=True, eq=False)
class AngularFlux:
    """Exact cell averages and edge values of psi(., mu) for one ordinate."""

    mu: float
    cell_avg: np.ndarray
    edge_values: np.ndarray
    grid: SpatialGrid

    def __post_init__(self):
        if self.cell_avg.shape != (self.grid.ncells,):
            raise LengthMismatch("cell_avg length must equal the cell count")
        if self.edge_values.shape != (self.grid.ncells + 1,):
            raise LengthMismatch("edge_values length must be ncells + 1")


def _escape_scalar(tau: float) -> float:
    if tau < TAU_TAYLOR:
        return 1.0 - tau / 2.0 + tau * tau / 6.0 - tau * tau * tau / 24.0
    return -math.expm1(-tau) / tau


def _escape_factor(tau: np.ndarray) -> np.ndarray:
    """(1 - exp(-tau))/tau elementwise, with a 4-term series below 1e-6."""
    out = np.empty_like(tau)
    small = tau < TAU_TAYLOR
    if np.any(small):
        ts = tau[small]
        out[small] = 1.0 - ts / 2.0 + ts * ts / 6.0 - ts**3 / 24.0
    big = ~small
    out[big] = -np.expm1(-tau[big]) / tau[big]
    return out


def sweep_direction(medium: MediumProfile, mu: float, cell_source, inflow: float) -> AngularFlux:
    """March one ordinate across the slab; exact for piecewise-constant data.

    ``cell_source`` is the per-cell emission density s_i; ``inflow`` is the
    boundary value at the upwind edge (x_left for mu > 0, x_right for mu < 0).
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
    return AngularFlux(float(mu), avg, edges, grid)


def apply_transport(medium: MediumProfile, mu: float, phi: ScalarFlux) -> ScalarFlux:
    """Single-direction scattering response: zero-inflow sweep of sigma_r * phi.

    This realizes the direction-wise solution operator whose averages build
    the source-iteration map; it requires a scattering medium.
    """
    if medium.lam == 0:
        raise PureAbsorber("apply_transport needs lambda > 0; sweep the source directly")
    if not phi.grid.same_as(medium.grid):
        raise GridMismatch("flux and medium live on different grids")
    flux = sweep_direction(medium, mu, medium.sigma_r * phi.values, 0.0)
    return ScalarFlux(flux.cell_avg, medium.grid)


def boundary_term(medium: MediumProfile, mu: float, boundary: BoundarySpec) -> ScalarFlux:
    """Cell averages of the boundary-propagated flux for one ordinate.

    The profile is the zero-source sweep carrying only the inflow value, so
    cell i averages to inflow * (exp(-tau_entry) - exp(-tau_exit)) * |mu| / (sigma_t h).
    """
    value = eval_boundary(boundary, mu)
    flux = sweep_direction(medium, mu, np.zeros(medium.ncells), value)
    return ScalarFlux(flux.cell_avg, medium.grid)


# ---------------------------------------------------------------------------
# Batch layer: many ordinates at once via cumulative optical depth.
# ---------------------------------------------------------------------------


def _half_factors(sigma_up, h_up, mu_abs):
    """Per-ordinate factors in upwind cell order for one sign group.

    Returns (tau, E, G, c, centry): optical depths, transmissions, escape
    factors, cumulative depth through cell i, and depth to its entry edge.
    """
    tau = sigma_up[None, :] * h_up[None, :] / mu_abs[:, None]
    E = np.exp(-tau)
    G = _escape_factor(tau)
    c = np.cumsum(tau, axis=1)
    centry = np.concatenate([np.zeros((tau.shape[0], 1)), c[:, :-1]], axis=1)
    return tau, E, G, c, centry


def _sign_groups(medium: MediumProfile, mus: np.ndarray):
    """Yield (selection, flip, factors) per nonempty sign group, mu > 0 first.

    ``flip`` puts a per-cell array in the group's upwind order and maps an
    upwind result back (identity for mu > 0, reversal for mu < 0);
    ``factors`` are the group's _half_factors.
    """
    if np.any(mus == 0):
        raise ZeroMu("transport sweep undefined at mu = 0")
    for sel, flip in ((mus > 0, slice(None)), (mus < 0, slice(None, None, -1))):
        if np.any(sel):
            sigma_up, h_up = medium.sigma_t[flip], medium.grid.widths[flip]
            yield sel, flip, _half_factors(sigma_up, h_up, np.abs(mus[sel]))


def batched_sweep(medium: MediumProfile, mus, cell_source, inflows):
    """Sweeps of one source vector at many ordinates.

    Returns (avg, edges) with shapes (L, M) and (L, M+1), rows in the order
    of ``mus``.  Equivalent to stacking sweep_direction results.
    """
    mus = np.asarray(mus, dtype=float)
    inflows = np.broadcast_to(np.asarray(inflows, dtype=float), mus.shape)
    s = np.asarray(cell_source, dtype=float)
    m = medium.ncells
    if s.shape != (m,):
        raise LengthMismatch(f"cell_source has length {s.size}, grid has {m} cells")
    avg = np.empty((mus.size, m))
    edges = np.empty((mus.size, m + 1))
    for sel, flip, factors in _sign_groups(medium, mus):
        sat_up = (s / medium.sigma_t)[flip]
        a_up, e_up = _swept_half(factors, sat_up, inflows[sel])
        avg[sel] = a_up[:, flip]
        edges[sel] = e_up[:, flip]
        del factors  # free this group's (L, M) factors before the next group's are built
    return avg, edges


def _swept_half(factors, sat, inflow):
    tau, E, G, c, centry = factors
    if c[:, -1].max(initial=0.0) <= _EXP_GUARD:
        w = sat[None, :] * (-np.expm1(-tau)) * np.exp(c)
        cs = np.cumsum(w, axis=1)
        cs_prev = np.concatenate([np.zeros((tau.shape[0], 1)), cs[:, :-1]], axis=1)
        psi_in = np.exp(-centry) * (inflow[:, None] + cs_prev)
        avg = sat[None, :] + (psi_in - sat[None, :]) * G
        edges = np.concatenate(
            [inflow[:, None], np.exp(-c) * (inflow[:, None] + cs)], axis=1
        )
        return avg, edges
    # optically thick fallback: march cells, vectorized over ordinates
    L, m = tau.shape
    avg = np.empty((L, m))
    edges = np.empty((L, m + 1))
    psi = inflow.astype(float).copy()
    edges[:, 0] = psi
    for i in range(m):
        avg[:, i] = sat[i] + (psi - sat[i]) * G[:, i]
        psi = sat[i] + (psi - sat[i]) * E[:, i]
        edges[:, i + 1] = psi
    return avg, edges


def transmission_averages(medium: MediumProfile, mus) -> np.ndarray:
    """(L, M) cell averages of the unit-inflow, zero-source sweep per ordinate."""
    mus = np.asarray(mus, dtype=float)
    out = np.empty((mus.size, medium.ncells))
    for sel, flip, (_, _, G, _, centry) in _sign_groups(medium, mus):
        out[sel] = (np.exp(-centry) * G)[:, flip]
    return out


def averaged_response_matrix(medium: MediumProfile, mus, quad_weights, scale) -> np.ndarray:
    """Weighted sum over ordinates of cell-average response matrices.

    Entry (i, j) of the per-ordinate matrix is the average in cell i of the
    zero-inflow sweep whose source is scale[j] in cell j and zero elsewhere;
    the returned matrix is sum_l quad_weights[l] * R(mus[l]).  For a single
    ordinate pass weights = [1.0].
    """
    mus = np.asarray(mus, dtype=float)
    w = np.asarray(quad_weights, dtype=float)
    scale = np.asarray(scale, dtype=float)
    m = medium.ncells
    if scale.shape != (m,):
        raise LengthMismatch(f"scale has length {scale.size}, grid has {m} cells")
    out = np.zeros((m, m))
    for sel, flip, factors in _sign_groups(medium, mus):
        b_up = _response_half(factors, (scale / medium.sigma_t)[flip], w[sel])
        out += b_up[flip, flip]
        del factors  # free this group's (L, M) factors before the next group's are built
    return out


def _response_half(factors, r_up, w):
    tau, E, G, c, centry = factors
    m = tau.shape[1]
    one_minus_e = -np.expm1(-tau)
    diag = r_up * (w.sum() - w @ G)
    if c[:, -1].max(initial=0.0) <= _EXP_GUARD:
        u = G * np.exp(-centry)
        v = r_up[None, :] * one_minus_e * np.exp(c)
        full = (w[:, None] * u).T @ v
        b = np.tril(full, k=-1)
    else:
        # thick media: march unit-source columns, vectorized over ordinates
        L = tau.shape[0]
        b = np.zeros((m, m))
        psi = np.zeros((L, m))
        for i in range(m):
            avg = psi * G[:, i : i + 1]
            avg[:, i] += r_up[i] * (1.0 - G[:, i])
            b[i, :] = w @ avg
            psi = psi * E[:, i : i + 1]
            psi[:, i] += r_up[i] * one_minus_e[:, i]
        np.fill_diagonal(b, 0.0)
    np.fill_diagonal(b, diag)
    return b
