"""Direct solve of the coupled ordinate system, one quadrature or a block of them.

The scalar flux solves phi = S phi + c for whatever quadrature set is
supplied: S is the ordinate-weighted zero-inflow sweep of sigma_s * phi,
and c the weighted sweep of q with the inflow data.  A block stacks B
quadratures of one partition as rows of (B, L) arrays, so the random
studies pay the sweep-factor build (one exponential per chunk of a sign
group's ordinates) once per block instead of once per sample.  ``solve``
builds the factors chunk by chunk, at most max(64, M) ordinates each, and
forms every row's c from them; then, row by row, it assembles S from the
row's slices of the chunks into one reused M x M array and solves
(I - S) phi = c by LU.  The B systems are never stacked: a thread keeps the
heap of its largest block after it ends.  A single quadrature holds one
chunk's factors at a time, so its memory does not grow with its ordinate
count; a block keeps the chunks its later rows need.  For weights summing
to one, ||S|| <= lambda in the L2(sigma_t) norm, so
||phi - phi*|| <= ||c - (I - S) phi|| / (1 - lambda): one residual per
row certifies the distance to that row's exact discrete solution phi*,
and ``tol`` bounds every row's certificate.  The LU costs O(M^3) in the
cell count M; BENCH_direct_solve.json records its times up to M = 2000,
and BENCH_batched_solves.json the gain of blocks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import defaults
from .angular import QuadratureSet
from .errors import LengthMismatch, ZeroMu
from .medium import BoundarySpec, MediumProfile, inflow_values, weighted_norm_of
from .sweep import _ordinate_weights, _response_half, _swept_half, _sweep_factors, batched_sweep


@dataclass(frozen=True)
class SolveReport:
    """Certificate of one direct solve of a quadrature or a block.

    ``iterations`` counts linear solves (one per row); ``error_bound`` bounds
    the L2(sigma_t) distance of every row to its exact discrete solution.
    """

    iterations: int
    converged: bool
    error_bound: float


def solve(
    medium: MediumProfile,
    boundary: BoundarySpec,
    quad: QuadratureSet,
    tol: float = defaults.SOLVER_TOL,
) -> tuple[np.ndarray, SolveReport]:
    """Solve (I - S) phi = c by LU and certify phi by its residual.

    ``quad`` is one quadrature, or a block whose (B, L) mus and weights
    hold B quadratures as rows.  Returns (phi, report): phi is the
    read-only array of cell-average scalar fluxes, (M,) for one quadrature
    and (B, M) for a block, row b from row b of the block.  The report
    counts one linear solve per row, and its error_bound is the largest
    row bound; converged is error_bound <= tol.  The fluxes are returned
    either way.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    mus, weights = np.atleast_2d(quad.mus), np.atleast_2d(_ordinate_weights(quad.mus, quad.weights))
    if np.any(mus == 0):
        raise ZeroMu("quadrature contains mu = 0")
    inflows = inflow_values(boundary, mus)
    sat = medium.q / medium.sigma_t
    ratio = medium.sigma_s / medium.sigma_t
    rows, m = mus.shape[0], medium.ncells
    const = np.zeros((rows, m))
    system = np.zeros((m, m))  # -S, then I - S, of one row at a time
    response = np.empty((m, m))  # one chunk's share of S

    def subtract_s(b, f, w, ends):  # row b's ordinates are ends[b]..ends[b+1]-1 of chunk f
        start, stop = ends[b], ends[b + 1]
        if start < stop:
            system[f.flip, f.flip] -= _response_half(f.rows(start, stop), ratio[f.flip],
                                                     w[start:stop], response)

    chunks = []
    for f in _sweep_factors(medium, mus):
        per_row = np.bincount(f.sel[0], minlength=rows)  # the chunk's ordinates in each row
        w, ends = weights[f.sel], np.concatenate([[0], np.cumsum(per_row)])
        avg = _swept_half(f, sat[f.flip], inflows[f.sel])[0]
        for b in range(rows):
            const[b, f.flip] += w[ends[b] : ends[b + 1]] @ avg[ends[b] : ends[b + 1]]
        del avg
        # row 0 takes its S while the factors are live: one quadrature holds one chunk's
        subtract_s(0, f, w, ends)
        if ends[-1] > ends[1]:  # the chunk holds ordinates of later rows
            chunks.append((f, w, ends))
        del f  # free this chunk's factors before the next chunk's are built
    phi = np.empty((rows, m))
    bounds = np.empty(rows)
    for b in range(rows):
        if b:
            system.fill(0.0)
            for chunk in chunks:
                subtract_s(b, *chunk)
        system.flat[:: m + 1] += 1.0  # the diagonal
        phi[b] = np.linalg.solve(system, const[b])
        bounds[b] = weighted_norm_of(const[b] - system @ phi[b], medium) / (1.0 - medium.lam)
    phi.setflags(write=False)
    bound = float(bounds.max())
    report = SolveReport(iterations=rows, converged=bool(bound <= tol), error_bound=bound)
    return phi.reshape(np.shape(quad.mus)[:-1] + (m,)), report


def angular_fluxes(
    medium: MediumProfile,
    boundary: BoundarySpec,
    quad: QuadratureSet,
    phi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-ordinate fluxes recovered from a converged scalar-flux array.

    The batched sweep of every ordinate with the frozen source
    sigma_s * phi + q: (avg, edges) of shapes (L, M) and (L, M+1), row l for
    quad.mus[l].  quad.weights @ avg reproduces phi to within the solver
    tolerance.
    """
    if np.shape(phi) != (medium.ncells,):
        raise LengthMismatch(f"phi has length {np.size(phi)}, grid has {medium.ncells} cells")
    source = medium.sigma_s * phi + medium.q
    inflows = inflow_values(boundary, quad.mus)
    return batched_sweep(medium, quad.mus, source, inflows)
