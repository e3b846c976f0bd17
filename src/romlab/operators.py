"""Dense-matrix laboratory for the transport and iteration operators.

An operator is a plain (M, M) array acting on cell-average vectors; the
inner product carries the per-cell weights sigma_t * h (medium.cell_weights),
passed next to the matrix, so operator norms are taken on the similarity
transform D^{1/2} A D^{-1/2} where they reduce to ordinary singular
values.  This module exists to measure what the convergence analysis only
bounds: non-expansiveness, Lipschitz behavior in the ordinate, traces of
the Gram operator, and the sampling statistics of the quadrature-induced
operator and boundary deviations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import defaults
from ._parallel import indexed_map
from .angular import QuadratureSet, VelocityPartition, certify_by_doubling, rom_sample
from .errors import ConfigError, LengthMismatch, PureAbsorber
from .medium import BoundarySpec, MediumProfile, inflow_values, weighted_norm_of
from .sweep import averaged_response_matrix, averaged_sweep


def iteration_matrix(medium: MediumProfile, quad: QuadratureSet) -> np.ndarray:
    """(M, M) quadrature average of the transport matrices; needs lambda > 0.

    Column j of each transport matrix is the zero-inflow sweep of the unit
    cell-average source sigma_r * e_j, exact by linearity of the sweep.
    """
    if medium.lam == 0:
        raise PureAbsorber("transport and iteration matrices need lambda > 0")
    return averaged_response_matrix(medium, quad.mus, quad.weights, medium.sigma_r)


def transport_matrix(medium: MediumProfile, mu: float) -> np.ndarray:
    """(M, M) matrix of the single-direction scattering response: the
    iteration matrix of the one ordinate mu with weight 1."""
    return iteration_matrix(medium, QuadratureSet(np.array([float(mu)]), np.ones(1), f"mu={mu}"))


def _entry_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def reference_iteration_matrix(
    medium: MediumProfile, delta: float, initial_nodes: int
) -> tuple[np.ndarray, int, float]:
    """Continuum iteration matrix via a composite Gauss rule, refined to cert.

    Doubles the nodes per half-interval from ``initial_nodes`` until
    successive matrices agree entrywise to defaults.REF_ENTRY_TOL; returns
    (matrix, nodes per half, gap) and raises ReferenceNotConverged past
    defaults.REF_MAX_NODES.
    """
    return certify_by_doubling(
        lambda quad: iteration_matrix(medium, quad),
        _entry_gap, delta, initial_nodes, defaults.REF_MAX_NODES, defaults.REF_ENTRY_TOL,
        "iteration matrix",
    )


def _weighted_frame(entries, weights) -> np.ndarray:
    """D^{1/2} entries D^{-1/2} for D = diag(weights): the weighted norm is its spectral norm.

    Raises LengthMismatch unless entries is (M, M) and weights (M,), and
    ValueError for non-finite entries or non-positive weights.
    """
    entries = np.asarray(entries, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or entries.shape != weights.shape * 2:
        raise LengthMismatch(f"entries {entries.shape}, weights {weights.shape}: need (M, M), (M,)")
    if not np.all(np.isfinite(entries)):
        raise ValueError("entries must be finite")
    if np.any(weights <= 0):
        raise ValueError("weights must be strictly positive")
    d = np.sqrt(weights)
    return entries * (d[:, None] / d[None, :])


def weighted_operator_norm(entries, weights) -> float:
    """Norm of the (M, M) matrix ``entries`` in the inner product weighted by
    ``weights``: the largest singular value of D^{1/2} entries D^{-1/2}, exact (LAPACK SVD)."""
    return float(np.linalg.norm(_weighted_frame(entries, weights), 2))


def weighted_adjoint(entries, weights) -> np.ndarray:
    """Matrix of the adjoint in the inner product weighted by ``weights``: D^-1 A^T D."""
    frame = _weighted_frame(entries, weights)
    d = np.sqrt(np.asarray(weights, dtype=float))
    return frame.T * (d[None, :] / d[:, None])


def gram_trace(medium: MediumProfile, mu: float) -> float:
    """Trace of (adjoint o operator) for the single-direction response.

    Equals the squared Hilbert-Schmidt norm: sum_ij entries_ij^2 * D_i / D_j.
    Bounded by |x_R - x_L| / |mu| * max(sigma_t)^2 * max(1/sigma_t).
    """
    return float(np.sum(_weighted_frame(transport_matrix(medium, mu), medium.cell_weights) ** 2))


@dataclass(frozen=True, eq=False)
class DeltaStats:
    """Monte-Carlo statistics of a sampled deviation (operator or vector).

    ``entry_mean`` / ``entry_se`` hold the elementwise sample mean and its
    standard error, used to verify that the deviations are mean-zero; they
    come from Welford sums in sample order, so no deviation is kept.
    """

    samples: int
    mean_sq_norm: float
    se_mean_sq: float
    max_norm: float
    entry_mean: np.ndarray
    entry_se: np.ndarray


def _deviation_stats(deviation, partition: VelocityPartition, master_seed: int, sample_count: int,
                     jobs: int) -> DeltaStats:
    """Statistics of ``deviation(quad) -> (norm, deviation)`` over the partition's draws.

    Sample i is drawn as rom_sample(partition, master_seed, i).  The S norms
    are kept; the deviations are reduced as they arrive, in sample order,
    into Welford sums (running mean and sum of squared deviations from it),
    so memory does not grow with S and ``jobs`` never changes a number.
    """
    if sample_count < 2:
        raise ConfigError("/study/samples", "deviation statistics need at least 2 samples")
    norms = np.empty(sample_count)
    mean = sum_sq = 0.0
    results = indexed_map(lambda i: deviation(rom_sample(partition, master_seed, i)),
                          sample_count, jobs)
    for k, (norm, delta) in enumerate(results, start=1):
        norms[k - 1] = norm
        step = delta - mean
        mean = mean + step / k
        sum_sq = sum_sq + step * (delta - mean)
    sq = norms**2
    return DeltaStats(
        samples=sample_count,
        mean_sq_norm=float(sq.mean()),
        se_mean_sq=float(sq.std(ddof=1) / np.sqrt(sample_count)),
        max_norm=float(norms.max()),
        entry_mean=mean,
        entry_se=np.sqrt(sum_sq / (sample_count - 1) / sample_count),
    )


def iteration_deviation_stats(
    medium: MediumProfile,
    partition: VelocityPartition,
    reference: np.ndarray,
    master_seed: int,
    sample_count: int,
    jobs: int = 1,
) -> DeltaStats:
    """Norm statistics of (sampled iteration matrix - reference) over draws.

    Each sample assembles the iteration matrix for one random quadrature
    and measures its weighted-norm distance to ``reference``, the certified
    operator of reference_iteration_matrix at the partition's delta.
    """
    def deviation(quad: QuadratureSet):
        delta = iteration_matrix(medium, quad) - reference
        return weighted_operator_norm(delta, medium.cell_weights), delta

    return _deviation_stats(deviation, partition, master_seed, sample_count, jobs)


def _boundary_average(medium: MediumProfile, boundary: BoundarySpec, quad: QuadratureSet) -> np.ndarray:
    """Ordinate-weighted average of the boundary-propagated cell profiles."""
    inflows = inflow_values(boundary, quad.mus)
    return averaged_sweep(medium, quad.mus, quad.weights, np.zeros(medium.ncells), inflows)


def reference_boundary_average(
    medium: MediumProfile, boundary: BoundarySpec, delta: float, initial_nodes: int
) -> tuple[np.ndarray, int, float]:
    """Continuum boundary average, certified as reference_iteration_matrix certifies.

    Returns (average, nodes per half, gap).
    """
    return certify_by_doubling(
        lambda quad: _boundary_average(medium, boundary, quad),
        _entry_gap, delta, initial_nodes, defaults.REF_MAX_NODES, defaults.REF_ENTRY_TOL,
        "boundary average",
    )


def boundary_deviation_stats(
    medium: MediumProfile,
    boundary: BoundarySpec,
    partition: VelocityPartition,
    reference: np.ndarray,
    master_seed: int,
    sample_count: int,
    jobs: int = 1,
) -> DeltaStats:
    """Norm statistics of the sampled boundary-propagation quadrature error.

    Per sample, the deviation is the ordinate-weighted boundary profile
    minus ``reference``, the certified average of reference_boundary_average
    at the partition's delta; statistics are over the L2(sigma_t) norms,
    with elementwise means kept for the mean-zero check.
    """
    def deviation(quad: QuadratureSet):
        delta = _boundary_average(medium, boundary, quad) - reference
        return weighted_norm_of(delta, medium), delta

    return _deviation_stats(deviation, partition, master_seed, sample_count, jobs)
