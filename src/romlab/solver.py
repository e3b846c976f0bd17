"""Source iteration for the coupled ordinate system.

The scalar flux solves the fixed point phi = (scattering sweep of phi) +
(transport of q and inflow data), for whatever quadrature set is supplied.
Iterates are exactly the ordinate-weighted sweeps of sigma_s * phi + q, so
with phi0 = 0 they coincide with the partial Neumann sums of the
scattering series.  The stopping rule converts the iterate difference into
a bound on the distance to the exact discrete fixed point through the
contraction factor, so ``tol`` bounds the true solver error.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import defaults
from .angular import QuadratureSet
from .errors import ZeroMu
from .medium import (
    BoundarySpec,
    MediumProfile,
    ScalarFlux,
    inflow_values,
    weighted_norm_of,
)
from .sweep import AngularFlux, averaged_response_matrix, batched_sweep

# Above this many ordinates the per-iteration sweep is cheaper than
# precomputing the dense iteration matrix once.
_MATRIX_PATH_MAX_ORDINATES = 256
# Trailing residual ratios averaged into the reported contraction estimate.
_CONTRACTION_WINDOW = 5


@dataclass(frozen=True)
class SolveReport:
    """Convergence record of one source-iteration solve."""

    iterations: int
    final_residual: float
    converged: bool
    contraction_estimate: float
    stop_threshold: float


def _contraction_estimate(residuals: list[float]) -> float:
    """Geometric mean of the trailing successive-residual ratios."""
    tail = residuals[-(_CONTRACTION_WINDOW + 1) :]
    ratios = [b / a for a, b in zip(tail, tail[1:]) if a > 0]
    if not ratios:
        return 0.0
    return float(np.prod(ratios) ** (1.0 / len(ratios)))


def solve(
    medium: MediumProfile,
    boundary: BoundarySpec,
    quad: QuadratureSet,
    tol: float = defaults.SOLVER_TOL,
    max_iter: int = defaults.SOLVER_MAX_ITER,
) -> tuple[ScalarFlux, SolveReport]:
    """Iterate phi <- sum_l w_l sweep(sigma_s phi + q, inflow_l) from phi = 0.

    Stops once the iterate difference drops below tol * (1 - lam) / lam with
    lam = max(scattering ratio, 0.1), which guarantees the returned flux is
    within tol of the exact discrete fixed point.  On hitting max_iter the
    best iterate is returned with converged = False.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    mus = quad.mus
    if np.any(mus == 0):
        raise ZeroMu("quadrature contains mu = 0")
    lam_hat = max(medium.lam, 0.1)
    threshold = tol * (1.0 - lam_hat) / lam_hat
    weights = quad.weights
    inflows = inflow_values(boundary, mus)

    const_avg, _ = batched_sweep(medium, mus, medium.q, inflows)
    const = weights @ const_avg
    use_matrix = quad.n <= _MATRIX_PATH_MAX_ORDINATES
    if use_matrix:
        scatter = averaged_response_matrix(medium, mus, weights, medium.sigma_s)

    phi = np.zeros(medium.ncells)
    residuals: list[float] = []
    converged = False
    final_residual = float("inf")
    iterations = 0
    for k in range(1, max_iter + 1):
        if use_matrix:
            phi_next = scatter @ phi + const
        else:
            avg, _ = batched_sweep(
                medium, mus, medium.sigma_s * phi + medium.q, inflows
            )
            phi_next = weights @ avg
        final_residual = weighted_norm_of(phi_next - phi, medium)
        residuals.append(final_residual)
        phi = phi_next
        iterations = k
        if final_residual <= threshold:
            converged = True
            break

    report = SolveReport(
        iterations=iterations,
        final_residual=final_residual,
        converged=converged,
        contraction_estimate=_contraction_estimate(residuals),
        stop_threshold=threshold,
    )
    return ScalarFlux(phi, medium.grid), report


def angular_fluxes(
    medium: MediumProfile,
    boundary: BoundarySpec,
    quad: QuadratureSet,
    phi: ScalarFlux,
) -> list[AngularFlux]:
    """Per-ordinate fluxes recovered from a converged scalar flux.

    One exact sweep per ordinate with the frozen source sigma_s * phi + q;
    their weighted sum reproduces phi to within the solver tolerance.
    """
    source = medium.sigma_s * phi.values + medium.q
    inflows = inflow_values(boundary, quad.mus)
    avg, edges = batched_sweep(medium, quad.mus, source, inflows)
    out = []
    for idx, mu in enumerate(quad.mus):
        a = avg[idx].copy()
        e = edges[idx].copy()
        a.setflags(write=False)
        e.setflags(write=False)
        out.append(AngularFlux(float(mu), a, e, medium.grid))
    return out
