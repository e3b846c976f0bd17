"""Spatial problem definition: mesh, cross sections, source, boundary data.

Cross sections and the volume source are piecewise constant per cell, so
directional transport solves are exact and the weighted L2 norm of a
cell-average vector is the exact norm of its piecewise-constant
representative.  All types here are immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import LambdaAtLeastOne, LengthMismatch, NonPositiveSigmaT

def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SpatialGrid:
    """Strictly increasing cell edges spanning [x_left, x_right]."""

    edges: np.ndarray

    def __post_init__(self):
        edges = _frozen_array(self.edges)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("grid needs at least two edges")
        if not np.all(np.isfinite(edges)):
            raise ValueError("grid edges must be finite")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("grid edges must be strictly increasing")
        object.__setattr__(self, "edges", edges)

    @classmethod
    def uniform(cls, x_left: float, x_right: float, ncells: int) -> "SpatialGrid":
        if ncells < 1:
            raise ValueError("ncells must be at least 1")
        return cls(np.linspace(float(x_left), float(x_right), ncells + 1))

    @property
    def x_left(self) -> float:
        return float(self.edges[0])

    @property
    def x_right(self) -> float:
        return float(self.edges[-1])

    @property
    def ncells(self) -> int:
        return self.edges.size - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)


@dataclass(frozen=True, eq=False)
class MediumProfile:
    """Per-cell cross sections and source on a grid.  Build with make_medium.

    ``lam`` is the scattering ratio max(sigma_s/sigma_t); ``sigma_r`` is the
    normalized scattering cross section sigma_s/lam, left as None for a pure
    absorber (lam = 0) and never dereferenced in that case.
    """

    grid: SpatialGrid
    sigma_t: np.ndarray
    sigma_s: np.ndarray
    q: np.ndarray
    lam: float
    sigma_r: np.ndarray | None
    cell_weights: np.ndarray  # sigma_t * h, the L2(sigma_t) quadrature weights

    @property
    def ncells(self) -> int:
        return self.grid.ncells


def make_medium(grid, sigma_t, sigma_s, q) -> MediumProfile:
    """Validate per-cell data and derive the scattering ratio.

    Raises LengthMismatch, NonPositiveSigmaT, LambdaAtLeastOne, or ValueError
    (sigma_s or q not finite and nonnegative) when the admissibility
    constraints fail, NonPositiveSigmaT also where sigma_t * h underflows to
    0 or overflows, as sweeps divide by it.  The scattering ratio is capped
    at defaults.LAMBDA_MAX < 1: the solver's error bound has 1 / (1 - lambda).
    """
    sigma_t = _frozen_array(sigma_t)
    sigma_s = _frozen_array(sigma_s)
    q = _frozen_array(q)
    m = grid.ncells
    for name, arr in (("sigma_t", sigma_t), ("sigma_s", sigma_s), ("q", q)):
        if arr.shape != (m,):
            raise LengthMismatch(f"{name} has length {arr.size}, grid has {m} cells")
    with np.errstate(over="ignore"):  # an overflow is rejected next
        weights = _frozen_array(sigma_t * grid.widths)
    if not np.all(np.isfinite(weights) & (weights > 0)):
        raise NonPositiveSigmaT("sigma_t * h must be positive and finite in every cell")
    if not (np.all(np.isfinite(sigma_s) & (sigma_s >= 0)) and np.all(np.isfinite(q) & (q >= 0))):
        raise ValueError("sigma_s and q must be finite and nonnegative")
    ratios = sigma_s / sigma_t
    lam = float(np.max(ratios)) if m else 0.0
    if lam > defaults.LAMBDA_MAX:
        raise LambdaAtLeastOne(
            f"max sigma_s/sigma_t = {lam:.6g} exceeds the cap {defaults.LAMBDA_MAX}"
        )
    sigma_r = _frozen_array(sigma_s / lam) if lam > 0 else None
    return MediumProfile(grid, sigma_t, sigma_s, q, lam, sigma_r, weights)


def weighted_norm_of(values: np.ndarray, medium: MediumProfile) -> float:
    """Exact L2(sigma_t) norm of the piecewise-constant flux with these (M,) cell averages."""
    values = np.asarray(values)
    if values.shape != medium.cell_weights.shape:
        raise LengthMismatch(f"values of shape {values.shape} do not match {medium.ncells} cells")
    return float(np.sqrt(np.sum(values**2 * medium.cell_weights)))


@dataclass(frozen=True)
class ConstantBoundary:
    value: float

    def evaluate(self, mu):
        return self.value * np.ones_like(np.asarray(mu, dtype=float))


@dataclass(frozen=True)
class LinearBoundary:
    """value(mu) = slope * mu + intercept on the side's inflow half."""

    slope: float
    intercept: float

    def evaluate(self, mu):
        return self.slope * np.asarray(mu, dtype=float) + self.intercept


@dataclass(frozen=True, eq=False)
class TabulatedBoundary:
    """Sorted (mu, value) table, linearly interpolated and clamped outside."""

    mus: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        mus = _frozen_array(self.mus)
        values = _frozen_array(self.values)
        if mus.ndim != 1 or mus.size < 1 or mus.shape != values.shape:
            raise ValueError("table needs equal-length 1-d mu and value arrays")
        if not (np.all(np.isfinite(mus)) and np.all(np.isfinite(values))):
            raise ValueError("table entries must be finite")
        if np.any(np.diff(mus) <= 0):
            raise ValueError("table mus must be strictly increasing")
        object.__setattr__(self, "mus", mus)
        object.__setattr__(self, "values", values)

    def evaluate(self, mu):
        return np.interp(np.asarray(mu, dtype=float), self.mus, self.values)


@dataclass(frozen=True, eq=False)
class BoundarySpec:
    """Inflow data: ``left`` on mu > 0 at x_left, ``right`` on mu < 0 at x_right.

    Each side's ``evaluate(mus)`` gives its inflow values at those cosines.
    """

    left: ConstantBoundary | LinearBoundary | TabulatedBoundary
    right: ConstantBoundary | LinearBoundary | TabulatedBoundary

