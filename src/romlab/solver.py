"""Direct solve of the coupled ordinate system, one quadrature or a block of them.

The scalar flux solves phi = S phi + c for whatever quadrature set is
supplied: S is the ordinate-weighted zero-inflow sweep of sigma_s * phi,
and c the weighted sweep of q with the inflow data.  A block stacks B
quadratures of one partition as rows of (B, L) arrays, so the random
studies pay the sweep-factor build once per block, not once per sample.
``sweep._row_systems`` yields each row's (c, I - S), in one reused M x M
array, and ``solve`` solves it by LU; bad ordinates, weights, inflows or
tol raise, the quadrature's by the caller's index before any factor is
built.  For weights summing to one, ||S|| <= lambda in the L2(sigma_t)
norm, so ||phi - phi*|| <= ||c - (I - S) phi|| / (1 - lambda): one residual
per row certifies the distance to that row's exact discrete solution phi*,
and ``tol`` bounds every row's certificate.  The LU costs O(M^3) in the
cell count M; BENCH_direct_solve.json records its times up to M = 2000,
and BENCH_batched_solves.json the gain of blocks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import defaults
from .angular import QuadratureSet
from .medium import BoundarySpec, MediumProfile, weighted_norm_of
from .sweep import _row_systems


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
    if not tol > 0:
        raise ValueError("tol must be positive")
    phi, bounds = [], []
    for c, system in _row_systems(medium, quad.mus, quad.weights, boundary):
        phi.append(np.linalg.solve(system, c))
        bounds.append(weighted_norm_of(c - system @ phi[-1], medium) / (1.0 - medium.lam))
    phi = np.array(phi)
    phi.setflags(write=False)
    bound = float(np.max(bounds))
    report = SolveReport(iterations=len(bounds), converged=bool(bound <= tol), error_bound=bound)
    return phi.reshape(np.shape(quad.mus)[:-1] + (medium.ncells,)), report
