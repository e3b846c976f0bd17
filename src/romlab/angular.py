"""Velocity-space discretization: truncated partitions, quadratures, sampling.

The direction interval [-1, 1] minus the band (-delta, delta) is split into
n mirror-symmetric cells.  Deterministic quadratures (midpoint, composite
Gauss) and seeded uniform-per-cell random quadratures are built on top of
the partition.  Random draws come from a counter-based 64-bit mix so that
identical (seed, sample, cell) keys give identical ordinates on every
platform and under any parallel schedule.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import AlphaUnbounded, DeltaOutOfRange, NoConvergence, OddN, ReferenceNotConverged
from .medium import _frozen_array

DEFAULT_ALPHA_MAX = defaults.ALPHA_MAX

_U64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit lane."""
    x &= _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return x ^ (x >> 31)


def _stream_base(master_seed: int, sample_index: int) -> int:
    h = _mix64((int(master_seed) & _U64) ^ _GOLDEN)
    return _mix64(h ^ _mix64(((int(sample_index) + 1) * _GOLDEN) & _U64))


def _keyed_uniforms(base: int, keys: np.ndarray) -> np.ndarray:
    """One uniform in [0, 1) per integer key, from the stream at ``base``."""
    k = keys.astype(np.uint64)
    with np.errstate(over="ignore"):
        x = np.uint64(base) + (k + np.uint64(1)) * np.uint64(_GOLDEN)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53


def uniform_stream(master_seed: int, sample_index: int, count: int) -> np.ndarray:
    """First ``count`` uniforms of the (seed, sample) stream, keyed 0..count-1."""
    base = _stream_base(master_seed, sample_index)
    return _keyed_uniforms(base, np.arange(count, dtype=np.uint64))


@dataclass(frozen=True, eq=False)
class VelocityPartition:
    """Mirror-symmetric cells covering [-1, -delta) and (delta, 1].

    Cells are stored in ascending mu order: indices 0..m-1 cover the
    negative half, m..n-1 the positive half, and cell n-1-i is the mirror
    image of cell i.  ``weights`` are cell measures over |S| = 2(1-delta)
    and sum to 1; ``alpha`` = n * weights are the rescaled weights, capped
    so the randomized-quadrature theory applies.
    """

    delta: float
    lower: np.ndarray
    upper: np.ndarray
    weights: np.ndarray
    alpha: np.ndarray

    @property
    def n(self) -> int:
        return self.lower.size

    @property
    def m(self) -> int:
        return self.lower.size // 2


def build_partition(
    n: int,
    delta: float,
    layout: str = "uniform",
    ratio: float = 1.0,
    alpha_max: float = DEFAULT_ALPHA_MAX,
) -> VelocityPartition:
    """Split each truncated half-interval into m = n/2 cells.

    ``uniform`` gives equal widths (alpha = 1 exactly).  ``graded`` gives
    geometric widths growing away from the truncation by ``ratio`` per cell;
    the rescaled weights must stay below alpha_max.
    """
    if n < 2 or n % 2 != 0:
        raise OddN(f"partition needs an even n >= 2, got {n}")
    if not (0.0 < delta < 1.0):
        raise DeltaOutOfRange(f"delta must lie in (0, 1), got {delta}")
    m = n // 2
    if layout == "uniform":
        pos_edges = np.linspace(delta, 1.0, m + 1)
    elif layout == "graded":
        if ratio <= 0:
            raise ValueError("graded ratio must be positive")
        widths = ratio ** np.arange(m)
        widths *= (1.0 - delta) / widths.sum()
        pos_edges = delta + np.concatenate([[0.0], np.cumsum(widths)])
        pos_edges[-1] = 1.0
    else:
        raise ValueError(f"unknown layout {layout!r}")

    pos_lo, pos_hi = pos_edges[:-1], pos_edges[1:]
    lower = np.concatenate([-pos_hi[::-1], pos_lo])
    upper = np.concatenate([-pos_lo[::-1], pos_hi])
    widths_all = upper - lower
    weights = widths_all / (2.0 * (1.0 - delta))
    weights = weights / weights.sum()
    alpha = n * weights
    amax = float(np.max(alpha))
    if amax > alpha_max * (1.0 + 1e-12):
        raise AlphaUnbounded(
            f"max rescaled weight {amax:.6g} exceeds the cap {alpha_max}"
        )
    return VelocityPartition(
        float(delta), _frozen_array(lower), _frozen_array(upper), _frozen_array(weights),
        _frozen_array(alpha),
    )


@dataclass(frozen=True, eq=False)
class QuadratureSet:
    """Ordinates and weights on the truncated direction space.

    ``provenance`` records how the set was built (rule or sample seed) so
    that emitted artifacts are reproducible from their metadata alone.
    """

    mus: np.ndarray
    weights: np.ndarray
    provenance: str

    @property
    def n(self) -> int:
        return self.mus.size


def dom_quadrature(partition: VelocityPartition, rule: str = "midpoint", order: int | None = None) -> QuadratureSet:
    """Deterministic quadrature on the partition's truncated space.

    ``midpoint`` takes cell midpoints with the partition weights.  ``gauss``
    ignores the cell structure and lays a composite Gauss-Legendre rule of
    ``order`` nodes (default m) over each half-interval, with weights
    normalized to sum to 1.
    """
    if rule == "midpoint":
        mus = 0.5 * (partition.lower + partition.upper)
        return QuadratureSet(
            _frozen_array(mus),
            partition.weights,
            f"dom-midpoint(n={partition.n},delta={partition.delta})",
        )
    if rule == "gauss":
        k = partition.m if order is None else int(order)
        mus, weights = composite_gauss(partition.delta, k)
        return QuadratureSet(
            _frozen_array(mus),
            _frozen_array(weights),
            f"dom-gauss(order={k},delta={partition.delta})",
        )
    raise ValueError(f"unknown quadrature rule {rule!r}")


_NEWTON_CAP = 10  # from Tricomi's nodes, each n tried up to 8192 took 3 or 4 steps


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1]."""
    k = np.arange(n // 2, 0, -1)
    theta = np.pi * (4 * k - 1) / (4 * n + 2)
    x = (1 - (n - 1) / (8 * n**3) - (39 - 28 / np.sin(theta) ** 2) / (384 * n**4)) * np.cos(theta)
    x = np.concatenate([[0.0], x]) if n % 2 else x  # P_n(0) = 0 exactly: Newton keeps it
    for _ in range(_NEWTON_CAP):
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):  # j P_j = (2j - 1) x P_{j-1} - (j - 1) P_{j-2}
            xp = x * p
            p_prev, p = p, xp + (j - 1) / j * (xp - p_prev)
        dp = n * (p_prev - x * p) / ((1 - x) * (1 + x))
        step = p / dp
        w = 2 / ((1 - x) * (1 + x) * dp**2)
        x = x - step
        if np.max(np.abs(step)) <= 2 * np.finfo(float).eps:  # two ulps at 1: rounding level
            return np.concatenate([-x[::-1][: n // 2], x]), np.concatenate([w[::-1][: n // 2], w])
    raise NoConvergence(f"Gauss-Legendre nodes for n={n} moved after {_NEWTON_CAP} Newton steps")


def composite_gauss(delta: float, nodes_per_half: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1,-delta] and [delta,1], weights summing to 1.

    Valid for delta = 0 as well (nodes are interior, so none lands on 0).
    The rule is Newton's method on P_n by its three-term recurrence, from
    Tricomi's asymptotic nodes, with weights 2 / ((1 - x^2) P_n'(x)^2): O(N^2)
    time and O(N) memory, where an eigensolver (numpy's leggauss) takes
    O(N^3) and an N x N matrix.  Raises NoConvergence if Newton stalls.
    """
    if not (0.0 <= delta < 1.0):
        raise DeltaOutOfRange(f"delta must lie in [0, 1), got {delta}")
    if nodes_per_half < 1:
        raise ValueError("need at least one node per half")
    t, w = _gauss_legendre(nodes_per_half)
    pos = delta + 0.5 * (t + 1.0) * (1.0 - delta)
    mus = np.concatenate([-pos[::-1], pos])
    weights = np.concatenate([w[::-1], w]) / 4.0  # GL weights sum to 2 per half
    return mus, weights


def reference_quadrature(delta: float, nodes_per_half: int) -> QuadratureSet:
    """High-order composite Gauss set standing in for the exact direction average."""
    mus, weights = composite_gauss(delta, nodes_per_half)
    return QuadratureSet(
        _frozen_array(mus),
        _frozen_array(weights),
        f"reference-gauss(N={nodes_per_half},delta={delta})",
    )


def certify_by_doubling(evaluate, distance, delta, nodes, max_nodes, target, what):
    """Refine a reference-quadrature value by doubling until it certifies.

    ``evaluate`` maps a reference quadrature to a value and ``distance``
    measures two successive values.  The nodes per half-interval double
    from ``nodes`` until a doubling moves the value by at most ``target``;
    returns (that value, its nodes per half, the gap).  Raises
    ReferenceNotConverged if no doubling within ``max_nodes`` certifies.
    """
    current = evaluate(reference_quadrature(delta, nodes))
    while 2 * nodes <= max_nodes:
        nodes *= 2
        refined = evaluate(reference_quadrature(delta, nodes))
        gap = distance(refined, current)
        current = refined
        if gap <= target:
            return current, nodes, gap
    raise ReferenceNotConverged(
        f"{what} moved by more than {target:.3g} per doubling up to {max_nodes} nodes/half"
    )


def rom_sample(partition: VelocityPartition, master_seed: int, sample_index: int) -> QuadratureSet:
    """One random quadrature: a uniform draw per positive cell, mirrored.

    Each positive-half cell j gets mu_j ~ Uniform(S_j) from the stream keyed
    by (master_seed, sample_index, j); the negative half is the exact
    negation, matching the mirror coupling the bias analysis relies on.
    """
    n, m = partition.n, partition.m
    base = _stream_base(master_seed, sample_index)
    u = _keyed_uniforms(base, np.arange(m, n, dtype=np.uint64))
    pos_lo = partition.lower[m:]
    pos_hi = partition.upper[m:]
    pos_mu = pos_lo + u * (pos_hi - pos_lo)
    mus = np.concatenate([-pos_mu[::-1], pos_mu])
    return QuadratureSet(
        _frozen_array(mus),
        partition.weights,
        f"rom(seed={master_seed},index={sample_index},n={n},delta={partition.delta})",
    )
