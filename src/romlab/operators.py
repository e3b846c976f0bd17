"""Dense-matrix laboratory for the transport and iteration operators.

Matrices act on cell-average vectors; the inner product carries the per-
cell weights sigma_t * h, so operator norms are taken on the similarity
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
from .angular import (
    QuadratureSet,
    VelocityPartition,
    certify_by_doubling,
    rom_sample,
)
from .errors import ConfigError, PureAbsorber
from .medium import BoundarySpec, MediumProfile, inflow_values, weighted_norm_of
from .sweep import averaged_response_matrix, averaged_sweep


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Matrix action on cell averages plus the inner-product weights."""

    entries: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        weight = np.asarray(self.weight, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("entries must be a square matrix")
        if weight.shape != (entries.shape[0],):
            raise ValueError("weight length must match the matrix size")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")
        if np.any(weight <= 0):
            raise ValueError("weights must be strictly positive")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "weight", weight)

    def adjoint_entries(self) -> np.ndarray:
        """Matrix of the adjoint in the weighted inner product: D^-1 A^T D."""
        d = self.weight
        return (self.entries.T * d[None, :]) / d[:, None]


def transport_matrix(medium: MediumProfile, mu: float) -> DenseOperator:
    """Dense realization of the single-direction scattering response.

    Column j is the zero-inflow sweep of the unit cell-average source
    sigma_r * e_j, exact by linearity of the sweep.
    """
    if medium.lam == 0:
        raise PureAbsorber("transport matrix needs lambda > 0")
    entries = averaged_response_matrix(medium, [mu], [1.0], medium.sigma_r)
    return DenseOperator(entries, medium.cell_weights)


def iteration_matrix(medium: MediumProfile, quad: QuadratureSet) -> DenseOperator:
    """Quadrature average of the transport matrices over the ordinate set."""
    if medium.lam == 0:
        raise PureAbsorber("iteration matrix needs lambda > 0")
    entries = averaged_response_matrix(medium, quad.mus, quad.weights, medium.sigma_r)
    return DenseOperator(entries, medium.cell_weights)


def _entry_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def reference_iteration_matrix(
    medium: MediumProfile,
    delta: float,
    initial_nodes: int = defaults.REF_INITIAL_NODES,
) -> tuple[DenseOperator, int]:
    """Continuum iteration matrix via a composite Gauss rule, refined to cert.

    Doubles the nodes per half-interval from ``initial_nodes`` until
    successive matrices agree entrywise to defaults.REF_ENTRY_TOL; raises
    ReferenceNotConverged past defaults.REF_MAX_NODES.
    """
    if medium.lam == 0:
        raise PureAbsorber("iteration matrix needs lambda > 0")
    entries, nodes, _ = certify_by_doubling(
        lambda quad: averaged_response_matrix(medium, quad.mus, quad.weights, medium.sigma_r),
        _entry_gap, delta, initial_nodes, defaults.REF_MAX_NODES, defaults.REF_ENTRY_TOL,
        "iteration matrix",
    )
    return DenseOperator(entries, medium.cell_weights), nodes


def _weighted_frame(op: DenseOperator) -> np.ndarray:
    """D^{1/2} entries D^{-1/2}: the weighted norm of op is its spectral norm."""
    d = np.sqrt(op.weight)
    return op.entries * (d[:, None] / d[None, :])


def weighted_operator_norm(op: DenseOperator) -> float:
    """Largest singular value of D^{1/2} entries D^{-1/2}, exact (LAPACK SVD)."""
    return float(np.linalg.norm(_weighted_frame(op), 2))


def gram_trace(medium: MediumProfile, mu: float) -> float:
    """Trace of (adjoint o operator) for the single-direction response.

    Equals the squared Hilbert-Schmidt norm: sum_ij entries_ij^2 * D_i / D_j.
    Bounded by |x_R - x_L| / |mu| * max(sigma_t)^2 * max(1/sigma_t).
    """
    return float(np.sum(_weighted_frame(transport_matrix(medium, mu)) ** 2))


@dataclass(frozen=True, eq=False)
class DeltaStats:
    """Monte-Carlo statistics of a sampled deviation (operator or vector).

    ``entry_mean`` / ``entry_se`` hold the elementwise sample mean and its
    standard error, used to verify that the deviations are mean-zero.
    """

    samples: int
    mean_norm: float
    mean_sq_norm: float
    se_mean_sq: float
    max_norm: float
    entry_mean: np.ndarray
    entry_se: np.ndarray


def _deviation_stats(deviation, partition: VelocityPartition, master_seed: int, sample_count: int,
                     jobs: int) -> DeltaStats:
    """Statistics of ``deviation(quad) -> (norm, deviation)`` over the partition's draws.

    Sample i is drawn as rom_sample(partition, master_seed, i); the results
    are reduced in sample order, so ``jobs`` never changes a number.
    """
    if sample_count < 2:
        raise ConfigError("/study/samples", "deviation statistics need at least 2 samples")
    results = indexed_map(lambda i: deviation(rom_sample(partition, master_seed, i)),
                          sample_count, jobs)
    norms = np.array([r[0] for r in results])
    entries = np.stack([r[1] for r in results])
    sq = norms**2
    return DeltaStats(
        samples=sample_count,
        mean_norm=float(norms.mean()),
        mean_sq_norm=float(sq.mean()),
        se_mean_sq=float(sq.std(ddof=1) / np.sqrt(sample_count)),
        max_norm=float(norms.max()),
        entry_mean=entries.mean(axis=0),
        entry_se=np.sqrt(entries.var(axis=0, ddof=1) / sample_count),
    )


def iteration_deviation_stats(
    medium: MediumProfile,
    partition: VelocityPartition,
    reference: DenseOperator,
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
        t = averaged_response_matrix(medium, quad.mus, quad.weights, medium.sigma_r)
        delta = t - reference.entries
        return weighted_operator_norm(DenseOperator(delta, medium.cell_weights)), delta

    return _deviation_stats(deviation, partition, master_seed, sample_count, jobs)


def _boundary_average(medium: MediumProfile, boundary: BoundarySpec, quad: QuadratureSet) -> np.ndarray:
    """Ordinate-weighted average of the boundary-propagated cell profiles."""
    inflows = inflow_values(boundary, quad.mus)
    return averaged_sweep(medium, quad.mus, quad.weights, np.zeros(medium.ncells), inflows)


def reference_boundary_average(
    medium: MediumProfile, boundary: BoundarySpec, delta: float, initial_nodes: int
) -> tuple[np.ndarray, int]:
    """Continuum boundary average, certified as reference_iteration_matrix certifies."""
    return certify_by_doubling(
        lambda quad: _boundary_average(medium, boundary, quad),
        _entry_gap, delta, initial_nodes, defaults.REF_MAX_NODES, defaults.REF_ENTRY_TOL,
        "boundary average",
    )[:2]


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
