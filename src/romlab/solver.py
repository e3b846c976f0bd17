"""Direct solve of the coupled ordinate system.

The scalar flux solves phi = S phi + c for whatever quadrature set is
supplied: S is the ordinate-weighted zero-inflow sweep of sigma_s * phi,
and c the weighted sweep of q with the inflow data.  ``solve`` assembles c
and S in one pass over the two sign groups, solves (I - S) phi = c by LU,
and returns phi as a read-only array of cell averages.  For weights summing
to one, ||S|| <= lambda in the L2(sigma_t) norm, so
||phi - phi*|| <= ||c - (I - S) phi|| / (1 - lambda): one residual certifies
the distance to the exact discrete solution phi*, and ``tol`` bounds that
certificate.  The LU costs O(M^3) in the cell count M;
BENCH_direct_solve.json records its times up to M = 2000.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import defaults
from .angular import QuadratureSet
from .errors import LengthMismatch, ZeroMu
from .medium import BoundarySpec, MediumProfile, inflow_values, weighted_norm_of
from .sweep import _response_half, _swept_half, _sweep_factors, batched_sweep


@dataclass(frozen=True)
class SolveReport:
    """Certificate of one direct solve.

    ``iterations`` counts linear solves (one); ``error_bound`` bounds the
    L2(sigma_t) distance to the exact discrete solution.
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

    Returns (phi, report): phi is the read-only array of cell-average scalar
    fluxes.  Each sign group's sweep factors add the group's share of c and S
    and are freed before the next group's are built.  converged is
    error_bound <= tol; the flux is returned either way.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    mus, weights = quad.mus, quad.weights
    if np.any(mus == 0):
        raise ZeroMu("quadrature contains mu = 0")
    inflows = inflow_values(boundary, mus)
    sat = medium.q / medium.sigma_t
    ratio = medium.sigma_s / medium.sigma_t
    const = np.zeros(medium.ncells)
    system = np.zeros((medium.ncells, medium.ncells))  # -S, then I - S
    for f in _sweep_factors(medium, mus):
        w = weights[f.sel]
        avg, _ = _swept_half(f, sat[f.flip], inflows[f.sel])
        const[f.flip] += w @ avg
        system[f.flip, f.flip] -= _response_half(f, ratio[f.flip], w)
        del f, avg  # free this group's arrays before the next group's are built
    system[np.diag_indices(medium.ncells)] += 1.0
    phi = np.linalg.solve(system, const)
    bound = weighted_norm_of(const - system @ phi, medium) / (1.0 - medium.lam)
    phi.setflags(write=False)
    return phi, SolveReport(iterations=1, converged=bool(bound <= tol), error_bound=bound)


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
