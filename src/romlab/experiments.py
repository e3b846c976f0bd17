"""End-to-end convergence studies at desk scale.

Velocity-discretization error is isolated by construction: the certified
reference solution and every test run share one spatial mesh, and the
solver tolerance is pinned far below the smallest velocity error the study
can resolve.  Random-quadrature studies draw their per-sample streams from
(master_seed, sample_index), so tables are bitwise reproducible at any
parallelism degree.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import defaults
from ._parallel import indexed_map
from .angular import (
    build_partition,
    certify_by_doubling,
    dom_quadrature,
    reference_quadrature,
    rom_pair_block,
    rom_sample,
)
from .errors import ConfigError, NoConvergence, PureAbsorber, RomlabError, TooFewPoints
from .medium import BoundarySpec, MediumProfile, weighted_norm_of
from .operators import (boundary_deviation_stats, iteration_deviation_stats,
                        reference_boundary_average, reference_iteration_matrix)
from .solver import solve
from .sweep import averaged_sweep


@dataclass(frozen=True)
class ErrorRow:
    """One study row; ``flagged`` rows are excluded from slope fits."""

    n: int
    estimate: float
    se: float
    samples: int
    flagged: bool
    wall_time: float


@dataclass(frozen=True, eq=False)
class ErrorTable:
    rows: tuple[ErrorRow, ...]

    def unflagged(self) -> tuple[ErrorRow, ...]:
        return tuple(r for r in self.rows if not r.flagged)


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of log(estimate) against log(n).

    ``slope_se`` propagates the row SEs through the fit, taking
    var(log estimate) = (se / estimate)^2 for each row.
    """

    slope: float
    intercept: float
    r_squared: float
    slope_se: float


@dataclass(frozen=True)
class RegularizationRow:
    delta: float
    error: float
    f_norm: float
    bound: float
    satisfied: bool
    wall_time: float


@dataclass(frozen=True, eq=False)
class RegularizationTable:
    rows: tuple[RegularizationRow, ...]


def _even_n(n: int, path: str) -> int:
    """An ordinate count: even, from 2 to twice the reference cap (both halves of
    its largest rule), else ConfigError at ``path``."""
    cap = 2 * defaults.REF_MAX_NODES
    if n < 2 or n % 2 != 0 or n > cap:
        raise ConfigError(path, f"ordinate count must be an even integer in [2, {cap}], got {n}")
    return int(n)


def _truncation(delta: float, path: str) -> float:
    """A velocity truncation: strictly inside (0, 1), else ConfigError at ``path``."""
    if not 0.0 < delta < 1.0:
        raise ConfigError(path, f"truncation must lie strictly inside (0, 1), got {delta}")
    return float(delta)


@dataclass(frozen=True, eq=False)
class StudyConfig:
    """Everything a convergence study needs, and the one check of each study value.

    The solver tolerance must sit at least three orders below the cubic
    velocity-error scale of the largest n, so measured errors are purely
    velocity discretization; None takes the default solver tolerance,
    tightened to that cap.  ``ref_target`` is the certification gap for the
    reference solution, one hundredth of that same scale.  ``dom_rule`` is
    the dom study's rule; ``delta_list`` and ``reference_delta`` are the
    regularization study's truncations.
    """

    medium: MediumProfile
    boundary: BoundarySpec
    delta: float
    n_list: tuple[int, ...]
    sample_count: int
    master_seed: int
    dom_rule: str
    delta_list: tuple[float, ...]
    reference_delta: float
    solver_tol: float | None = None
    ref_nodes: int = defaults.REF_INITIAL_NODES

    def __post_init__(self):
        n_list = tuple(_even_n(n, f"/study/n_list/{i}") for i, n in enumerate(self.n_list))
        if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ConfigError("/study/n_list", "must be a strictly increasing list")
        object.__setattr__(self, "n_list", n_list)
        if self.sample_count < 1:
            raise ConfigError("/study/samples", "must be at least 1")
        if self.dom_rule not in ("midpoint", "gauss"):
            raise ConfigError("/study/dom_rule", "must be midpoint or gauss")
        if self.ref_nodes < 1:
            raise ConfigError("/study/ref_nodes", "must be at least 1")
        if self.ref_nodes > defaults.REF_MAX_NODES // 2:
            raise ConfigError("/study/ref_nodes", f"must be at most half the {defaults.REF_MAX_NODES}-node cap")
        if not self.delta_list:
            raise ConfigError("/study/delta_list", "must be a nonempty list")
        object.__setattr__(self, "delta_list", tuple(
            _truncation(d, f"/study/delta_list/{i}") for i, d in enumerate(self.delta_list)))
        _truncation(self.reference_delta, "/study/reference_delta")
        if any(self.reference_delta >= d for d in self.delta_list):
            raise ConfigError("/study/reference_delta", "must be below every entry of delta_list")
        cap = defaults.SOLVER_TOL_COEFF * max(n_list) ** -3
        tol = min(defaults.SOLVER_TOL, cap) if self.solver_tol is None else float(self.solver_tol)
        if tol <= 0:
            raise ConfigError("/solver/tol", "must be positive")
        if tol > cap:
            raise ConfigError(
                "/solver/tol",
                f"must be <= {defaults.SOLVER_TOL_COEFF:g} * n_max^-3 = {cap:.3g} to keep "
                f"solver error below the velocity errors measured, got {tol:.3g}",
            )
        object.__setattr__(self, "solver_tol", tol)

    def unmet_rules(self, kind: str) -> list[RomlabError]:
        """One error per rule of study ``kind`` that this config breaks; [] if it can run."""
        if kind not in STUDIES:
            raise ValueError(f"unknown study kind {kind!r}")
        _, min_samples, needs_scattering = STUDIES[kind]
        unmet = []
        if self.sample_count < min_samples:
            unmet.append(ConfigError("/study/samples", f"{kind} study needs at least {min_samples} samples"))
        if needs_scattering and self.medium.lam == 0:
            unmet.append(PureAbsorber(f"{kind} study needs lambda > 0"))
        return unmet

    def check_kind(self, kind: str) -> None:
        """Raise the first unmet rule of study ``kind``; each study calls this before any solve."""
        for error in self.unmet_rules(kind):
            raise error

    @property
    def n_max(self) -> int:
        return max(self.n_list)

    @property
    def ref_target(self) -> float:
        return defaults.REF_TARGET_COEFF * self.n_max**-3


def _solved(medium, boundary, quad, tol) -> np.ndarray:
    """Flux values of a certified solve of a quadrature or a block; raises
    NoConvergence, naming the quadrature or block, if its bound exceeds tol."""
    phi, report = solve(medium, boundary, quad, tol)
    if not report.converged:
        raise NoConvergence(
            f"{quad.provenance}: solve error bound {report.error_bound:.3g} exceeds tol {tol:.3g}"
        )
    return phi


def _certified_solve(medium, boundary, delta, nodes, target, tol):
    """Reference-quadrature flux values, nodes doubled until the change certifies.

    Returns (values, nodes used, certified gap); see certify_by_doubling.
    """
    return certify_by_doubling(
        lambda quad: _solved(medium, boundary, quad, tol),
        lambda a, b: weighted_norm_of(a - b, medium),
        delta, nodes, defaults.REF_MAX_NODES, target, "reference flux",
    )


def certified_reference(config: StudyConfig) -> tuple[np.ndarray, int, float]:
    """The study's reference flux values and certificate: (values, nodes per half, gap)."""
    return _certified_solve(config.medium, config.boundary, config.delta, config.ref_nodes,
                            config.ref_target, config.solver_tol)


def _error_rows(n_list, delta: float, measure) -> tuple[ErrorRow, ...]:
    """One ErrorRow per n from ``measure(partition) -> (estimate, se, samples, flagged)``.

    The row's wall time spans the partition build and the measurement.
    """
    rows = []
    for n in n_list:
        start = time.perf_counter()
        estimate, se, samples, flagged = measure(build_partition(n, delta))
        rows.append(ErrorRow(n, estimate, se, samples, flagged, time.perf_counter() - start))
    return tuple(rows)


def single_run_error_study(config: StudyConfig, jobs: int = 1) -> ErrorTable:
    """Mean single-sample error against the certified reference, per n."""
    config.check_kind("single-run")
    ref, _, _ = certified_reference(config)

    def measure(partition):
        def one(i: int) -> float:
            quad = rom_sample(partition, config.master_seed, i)
            phi = _solved(config.medium, config.boundary, quad, config.solver_tol)
            return weighted_norm_of(phi - ref, config.medium)

        errors = np.fromiter(indexed_map(one, config.sample_count, jobs), float, config.sample_count)
        return float(errors.mean()), float(errors.std(ddof=1) / np.sqrt(errors.size)), errors.size, False

    return ErrorTable(_error_rows(config.n_list, config.delta, measure))


def _jackknife_norm_se(phis: np.ndarray, ref: np.ndarray, weights: np.ndarray) -> float:
    """Jackknife SE of || mean(phis) - ref || over the sample axis."""
    count = phis.shape[0]
    # theta_i = || (sum - phi_i)/(count-1) - ref ||, expanded to avoid an
    # (samples, cells) temporary at large sample counts
    v = phis.sum(axis=0) - (count - 1) * ref
    vv = float(np.sum(v**2 * weights))
    cross = phis @ (weights * v)
    own = np.einsum("ij,j,ij->i", phis, weights, phis)
    theta = np.sqrt(np.maximum(vv - 2.0 * cross + own, 0.0)) / (count - 1)
    return float(np.sqrt((count - 1) / count * ((theta - theta.mean()) ** 2).sum()))


# Ordinates per bias solve call: a block holds at most this many, and at
# least one pair.  A function of n only, never of --jobs, so the tables do
# not depend on the parallelism degree.
_BLOCK_ORDINATES = 64


def bias_study(config: StudyConfig, jobs: int = 1) -> ErrorTable:
    """Error of the sample-mean flux per n, with a noise-floor guard.

    Ordinates come in antithetic pairs (angular.rom_pair_block); the pair mean
    (phi(u) + phi(1 - u)) / 2 has one draw's expectation, so the bias is
    unchanged, and far less variance.  It is the unit of the mean and the
    jackknife; a block of max(1, 64 // n // 2) pairs is one solve call.
    Pairs are added in deterministic doubling stages from
    bias_initial_samples / 2 until the jackknife SE drops below the
    configured fraction of the estimate (default a fifth) or the row's cap
    is hit; ``samples`` counts two per pair.  Rows still noise-dominated at
    the cap, or stopped below bias_initial_samples, where so few pairs do
    not certify the guard, are flagged and excluded from slope fits.
    ``sample_count`` caps the largest n.  Resolving the n^-3 bias against
    the n^-3/2 single-run noise needs sample counts growing like n^3, so
    smaller n may draw up to sample_count * (n_max / n)**3, rounded down to
    whole pairs.
    """
    config.check_kind("bias")
    ref, _, _ = certified_reference(config)
    weights = config.medium.cell_weights
    initial = defaults.BIAS_INITIAL_SAMPLES
    fraction = defaults.BIAS_SE_FRACTION

    def measure(partition):
        pair_cap = int(np.ceil(config.sample_count * (config.n_max / partition.n) ** 3)) // 2

        def pair_means(start: int, stop: int) -> np.ndarray:
            quad = rom_pair_block(partition, config.master_seed, start, stop)
            phis = _solved(config.medium, config.boundary, quad, config.solver_tol)
            return 0.5 * (phis[0::2] + phis[1::2])  # rows 2k and 2k + 1 are pair k

        size = max(1, _BLOCK_ORDINATES // partition.n // 2)
        pairs = min(initial // 2, pair_cap)
        means = np.empty((0, config.medium.ncells))
        while True:
            starts = range(means.shape[0], pairs, size)
            stage = indexed_map(lambda k: pair_means(starts[k], min(starts[k] + size, pairs)),
                                len(starts), jobs)
            means = np.vstack([means, *stage])
            estimate = weighted_norm_of(means.mean(axis=0) - ref, config.medium)
            se = _jackknife_norm_se(means, ref, weights)
            if se <= fraction * estimate or pairs >= pair_cap:
                break
            pairs = min(2 * pairs, pair_cap)
        return estimate, se, 2 * pairs, bool(se > fraction * estimate or 2 * pairs < initial)

    return ErrorTable(_error_rows(config.n_list, config.delta, measure))


def dom_error_study(config: StudyConfig) -> ErrorTable:
    """Error of the config's deterministic rule against the same reference, per n."""
    config.check_kind("dom")
    ref, _, _ = certified_reference(config)

    def measure(partition):
        quad = dom_quadrature(partition, config.dom_rule)
        phi = _solved(config.medium, config.boundary, quad, config.solver_tol)
        return weighted_norm_of(phi - ref, config.medium), 0.0, 1, False

    return ErrorTable(_error_rows(config.n_list, config.delta, measure))


def deviation_study(config: StudyConfig, kind: str, jobs: int) -> ErrorTable:
    """delta-t / delta-b: mean squared deviation norm per n, from one certified reference.

    The reference operator (delta-t) or boundary average (delta-b) depends
    on the medium and delta only, so it is certified once for all rows.
    """
    if kind not in ("delta-t", "delta-b"):
        raise ValueError(f"unknown deviation study {kind!r}")
    config.check_kind(kind)
    if kind == "delta-t":
        reference, _, _ = reference_iteration_matrix(config.medium, config.delta, config.ref_nodes)
        stats_of = partial(iteration_deviation_stats, config.medium)
    else:
        reference, _, _ = reference_boundary_average(
            config.medium, config.boundary, config.delta, config.ref_nodes
        )
        stats_of = partial(boundary_deviation_stats, config.medium, config.boundary)

    def measure(partition):
        stats = stats_of(partition, reference, config.master_seed, config.sample_count, jobs)
        return stats.mean_sq_norm, stats.se_mean_sq, stats.samples, False

    return ErrorTable(_error_rows(config.n_list, config.delta, measure))


def fit_slope(table: ErrorTable) -> SlopeFit:
    """Ordinary least squares of log(estimate) on log(n) over unflagged rows."""
    rows = table.unflagged()
    if len(rows) < 3:
        raise TooFewPoints(f"slope fit needs >= 3 unflagged rows, got {len(rows)}")
    if any(r.estimate <= 0 for r in rows):
        raise TooFewPoints("slope fit needs positive estimates on every unflagged row")
    x = np.log([r.n for r in rows])
    y = np.log([r.estimate for r in rows])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_sq = 1.0 if ss_tot == 0 else 1.0 - float((resid**2).sum()) / ss_tot
    # the slope is sum(c_i y_i) with c_i = (x_i - mean x) / sum (x_j - mean x)^2
    c = (x - x.mean()) / ((x - x.mean()) ** 2).sum()
    rel_se = np.array([r.se / r.estimate for r in rows])
    return SlopeFit(float(slope), float(intercept), r_sq, float(np.sqrt(((c * rel_se) ** 2).sum())))


def regularization_study(config: StudyConfig) -> RegularizationTable:
    """Truncation error against the stability bound, per entry of delta_list.

    Reads the config's medium, boundary, delta_list, reference_delta and
    ref_nodes.  The near-untruncated model at reference_delta stands in for
    the full one.  For each delta the measured flux difference is checked against
    ||f|| / (1 - lambda) plus the certification allowance, where f is the
    consistency error of the truncated direction average evaluated on the
    reference angular flux.  Every solve is certified to the fixed tolerance
    defaults.REGULARIZATION_SOLVER_TOL, which the bound's allowance counts,
    and each certified solve refines its quadrature to a gap of
    defaults.REGULARIZATION_TARGET.
    """
    config.check_kind("regularization")
    medium, boundary, ref_nodes = config.medium, config.boundary, config.ref_nodes

    ref_flux, ref_nodes_used, ref_gap = _certified_solve(
        medium, boundary, config.reference_delta, ref_nodes, defaults.REGULARIZATION_TARGET,
        defaults.REGULARIZATION_SOLVER_TOL,
    )
    frozen_source = medium.sigma_s * ref_flux + medium.q

    def direction_average(delta: float, nodes: int) -> np.ndarray:
        quad = reference_quadrature(delta, nodes)
        return averaged_sweep(medium, quad.mus, quad.weights, frozen_source, boundary)

    i_ref = direction_average(config.reference_delta, ref_nodes_used)
    rows = []
    for delta in config.delta_list:
        start = time.perf_counter()
        phi_d, nodes_d, gap_d = _certified_solve(
            medium, boundary, delta, ref_nodes, defaults.REGULARIZATION_TARGET,
            defaults.REGULARIZATION_SOLVER_TOL,
        )
        error = weighted_norm_of(phi_d - ref_flux, medium)
        f = direction_average(delta, nodes_d) - i_ref
        f_norm = weighted_norm_of(f, medium)
        allowance = ref_gap + gap_d + 4 * defaults.REGULARIZATION_SOLVER_TOL
        bound = f_norm / (1.0 - medium.lam) + allowance
        rows.append(
            RegularizationRow(
                delta=delta,
                error=error,
                f_norm=f_norm,
                bound=bound,
                satisfied=bool(error <= bound),
                wall_time=time.perf_counter() - start,
            )
        )
    return RegularizationTable(tuple(rows))


class StudyKind(NamedTuple):
    """A study kind: its call, the fewest samples it can use, whether it needs lambda > 0."""

    run: Callable[[StudyConfig, int], ErrorTable | RegularizationTable]
    min_samples: int
    needs_scattering: bool


# The one table of study kinds; bias needs two antithetic pairs, the fewest units
# for a jackknife.  Each run looks its study function up in this module when it
# is called, so a wrapper set over the module's name (perfbench/tracing.py's
# spans) is the one called.
STUDIES = {
    "single-run": StudyKind(lambda sc, jobs: single_run_error_study(sc, jobs), 16, False),
    "bias": StudyKind(lambda sc, jobs: bias_study(sc, jobs), 4, False),
    "dom": StudyKind(lambda sc, jobs: dom_error_study(sc), 1, False),
    "delta-t": StudyKind(lambda sc, jobs: deviation_study(sc, "delta-t", jobs), 2, True),
    "delta-b": StudyKind(lambda sc, jobs: deviation_study(sc, "delta-b", jobs), 2, False),
    "regularization": StudyKind(lambda sc, jobs: regularization_study(sc), 1, True),
}
STUDY_KINDS = tuple(STUDIES)
