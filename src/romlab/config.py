"""JSON run configuration: loading, validation, and object construction.

Validation failures raise ConfigError carrying a JSON-pointer-style path
("/medium/sigma_t") so the CLI can name the offending field.  Every command
loads through load_config, which parses what every command reads: medium,
boundary, delta, seed and /solver/tol.  ``merged`` is the document
config_hash hashes, and each remaining section has one reader: study_config
maps /study onto a StudyConfig, which types and checks every study value
(an explicit /solver/tol above the study cap included) whoever builds it,
and build_quadrature builds and checks the solve's quadrature from
/quadrature.  It imports no study, operator, solver, sweep or CLI code.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import partial
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import defaults
from .angular import QuadratureSet, build_partition, dom_quadrature, reference_quadrature, rom_sample
from .errors import (
    ConfigError,
    LambdaAtLeastOne,
    NonPositiveSigmaT,
)
from .medium import (
    BoundarySpec,
    ConstantBoundary,
    LinearBoundary,
    MediumProfile,
    SpatialGrid,
    TabulatedBoundary,
    make_medium,
)

@dataclass(frozen=True, eq=False)
class LoadedConfig:
    """Validated configuration with constructed domain objects.

    ``tol_explicit`` records whether the user pinned the solver tolerance;
    studies derive their own cap-compliant tolerance otherwise.  ``merged``
    is the document merged onto the "config" section of defaults.json: what
    config_hash hashes, and what study_config and build_quadrature read.
    The CLI's ``--seed`` replaces ``seed`` only, so the hash stays the file's.
    """

    medium: MediumProfile
    boundary: BoundarySpec
    delta: float
    seed: int
    solver_tol: float
    tol_explicit: bool
    merged: dict


def _require_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, "must be a JSON object")
    return value


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}/{key}", "missing required field")
    return obj[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(path, "must be a number")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(path, "must be finite, got an integer too large for a float") from None
    if not np.isfinite(number):
        raise ConfigError(path, f"must be finite, got {number}")
    return number


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(path, "must be an integer")
    return int(value)


def _positive(value, path: str) -> int:
    n = _integer(value, path)
    if n < 1:
        raise ConfigError(path, "must be at least 1")
    return n


def _nodes_per_half(value, path: str) -> int:
    """A Gauss rule's nodes per half-interval, at most the reference cap: the rule costs O(N^2)."""
    nodes = _positive(value, path)
    if nodes > defaults.REF_MAX_NODES:
        raise ConfigError(path, f"must be at most {defaults.REF_MAX_NODES} "
                                f"(reference.max_nodes_per_half in defaults.json), got {nodes}")
    return nodes


def _even_n(value, path: str) -> int:
    """An ordinate count: an even integer from 2 to twice the reference cap (both
    halves of its largest rule), else ConfigError at ``path``."""
    n = _integer(value, path)
    cap = 2 * defaults.REF_MAX_NODES
    if n < 2 or n % 2 != 0 or n > cap:
        raise ConfigError(path, f"ordinate count must be an even integer in [2, {cap}], got {n}")
    return n


def _truncation(value, path: str) -> float:
    """A velocity truncation: a number strictly inside (0, 1), else ConfigError at ``path``."""
    delta = _number(value, path)
    if not 0.0 < delta < 1.0:
        raise ConfigError(path, f"truncation must lie strictly inside (0, 1), got {delta}")
    return delta


def _entries(value, path: str, entry) -> tuple:
    """A nonempty list, tuple or 1-D array, each entry read by ``entry(v, f"{path}/{i}")``."""
    if not (isinstance(value, (list, tuple)) or np.ndim(value) == 1) or len(value) == 0:
        raise ConfigError(path, "must be a nonempty list")
    return tuple(entry(v, f"{path}/{i}") for i, v in enumerate(value))


@dataclass(frozen=True, eq=False)
class StudyConfig:
    """Everything a convergence study needs; types and checks each study value once.

    When built it types each value (an integer, a finite number, or a
    nonempty list of them) and checks its range, raising ConfigError at its
    JSON path, for a library caller as for a JSON config.  The solver
    tolerance must sit at least three orders below the cubic velocity-error
    scale of the largest n, so measured errors are purely velocity
    discretization; None takes the default solver tolerance, tightened to
    that cap.  ``ref_target`` is the certification gap for the reference
    solution, one hundredth of that same scale.  ``dom_rule`` is the dom
    study's rule; ``delta_list`` and ``reference_delta`` are the
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
        store = partial(object.__setattr__, self)
        store("delta", _truncation(self.delta, "/delta"))
        n_list = _entries(self.n_list, "/study/n_list", _even_n)
        if any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ConfigError("/study/n_list", "must be a strictly increasing list")
        store("n_list", n_list)
        store("sample_count", _positive(self.sample_count, "/study/samples"))
        store("master_seed", _integer(self.master_seed, "/seed"))
        if self.dom_rule not in ("midpoint", "gauss"):
            raise ConfigError("/study/dom_rule", "must be midpoint or gauss")
        store("ref_nodes", _positive(self.ref_nodes, "/study/ref_nodes"))
        if self.ref_nodes > defaults.REF_MAX_NODES // 2:
            raise ConfigError("/study/ref_nodes", f"must be at most half the {defaults.REF_MAX_NODES}-node cap")
        store("delta_list", _entries(self.delta_list, "/study/delta_list", _truncation))
        store("reference_delta", _truncation(self.reference_delta, "/study/reference_delta"))
        if any(self.reference_delta >= d for d in self.delta_list):
            raise ConfigError("/study/reference_delta", "must be below every entry of delta_list")
        cap = defaults.SOLVER_TOL_COEFF * max(n_list) ** -3
        tol = min(defaults.SOLVER_TOL, cap) if self.solver_tol is None else _number(self.solver_tol, "/solver/tol")
        if tol <= 0:
            raise ConfigError("/solver/tol", "must be positive")
        if tol > cap:
            raise ConfigError(
                "/solver/tol",
                f"must be <= {defaults.SOLVER_TOL_COEFF:g} * n_max^-3 = {cap:.3g} to keep "
                f"solver error below the velocity errors measured, got {tol:.3g}",
            )
        store("solver_tol", tol)

    @property
    def n_max(self) -> int:
        return max(self.n_list)

    @property
    def ref_target(self) -> float:
        return defaults.REF_TARGET_COEFF * self.n_max**-3


def _per_cell(value, cells: int, path: str) -> np.ndarray:
    if isinstance(value, list):
        if len(value) != cells:
            raise ConfigError(path, f"needs {cells} per-cell entries, got {len(value)}")
        return np.array([_number(v, f"{path}/{i}") for i, v in enumerate(value)])
    return np.full(cells, _number(value, path))


def _build_grid(section: dict, path: str) -> SpatialGrid:
    cap = defaults.MAX_GRID_CELLS
    if "edges" in section:
        edges = section["edges"]
        if not isinstance(edges, list) or len(edges) < 2:
            raise ConfigError(f"{path}/edges", "must be a list of at least two numbers")
        if len(edges) > cap + 1:
            raise ConfigError(f"{path}/edges", f"must hold at most {cap + 1} edges ({cap} cells)")
        try:
            return SpatialGrid(np.array([_number(v, f"{path}/edges/{i}") for i, v in enumerate(edges)]))
        except ValueError as exc:
            raise ConfigError(f"{path}/edges", str(exc)) from exc
    x_left = _number(_get(section, "x_left", path), f"{path}/x_left")
    x_right = _number(_get(section, "x_right", path), f"{path}/x_right")
    if x_right <= x_left:
        raise ConfigError(f"{path}/x_right", "must exceed x_left")
    cells = _positive(_get(section, "cells", path), f"{path}/cells")
    if cells > cap:
        raise ConfigError(f"{path}/cells", f"must be at most {cap} (max_grid_cells in defaults.json), got {cells}")
    return SpatialGrid.uniform(x_left, x_right, cells)


def _build_medium(section: dict) -> MediumProfile:
    section = _require_object(section, "/medium")
    grid = _build_grid(_require_object(_get(section, "grid", "/medium"), "/medium/grid"), "/medium/grid")
    cells = grid.ncells
    sigma_t = _per_cell(_get(section, "sigma_t", "/medium"), cells, "/medium/sigma_t")
    sigma_s = _per_cell(_get(section, "sigma_s", "/medium"), cells, "/medium/sigma_s")
    q = _per_cell(_get(section, "q", "/medium"), cells, "/medium/q")
    if np.any(sigma_s < 0):
        raise ConfigError("/medium/sigma_s", "entries must be nonnegative")
    if np.any(q < 0):
        raise ConfigError("/medium/q", "entries must be nonnegative")
    try:
        return make_medium(grid, sigma_t, sigma_s, q)
    except NonPositiveSigmaT as exc:
        raise ConfigError("/medium/sigma_t", str(exc)) from exc
    except LambdaAtLeastOne as exc:
        raise ConfigError(
            "/medium/sigma_s",
            f"scattering ratio must stay below {defaults.LAMBDA_MAX}: {exc}",
        ) from exc


def _build_boundary_side(section, path: str):
    section = _require_object(section, path)
    kind = _get(section, "kind", path)
    if kind == "constant":
        return ConstantBoundary(_number(_get(section, "value", path), f"{path}/value"))
    if kind == "linear":
        return LinearBoundary(
            _number(_get(section, "slope", path), f"{path}/slope"),
            _number(_get(section, "intercept", path), f"{path}/intercept"),
        )
    if kind == "table":
        mus = _get(section, "mu", path)
        values = _get(section, "value", path)
        if not isinstance(mus, list) or not isinstance(values, list):
            raise ConfigError(path, "table needs 'mu' and 'value' lists")
        try:
            return TabulatedBoundary(
                np.array([_number(v, f"{path}/mu/{i}") for i, v in enumerate(mus)]),
                np.array([_number(v, f"{path}/value/{i}") for i, v in enumerate(values)]),
            )
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}/kind", f"must be one of constant, linear, table; got {kind!r}")


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path: str | Path) -> LoadedConfig:
    """Read, validate, and construct a run configuration from JSON."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("/", f"cannot read config: {exc}") from exc
    try:
        user = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int_max_str_digits
        raise ConfigError("/", f"invalid JSON: {exc}") from exc
    user = _require_object(user, "/")

    merged = _merge(defaults.config_document(), user)

    medium = _build_medium(_get(merged, "medium", ""))
    bsec = _require_object(_get(merged, "boundary", ""), "/boundary")
    boundary = BoundarySpec(
        _build_boundary_side(_get(bsec, "left", "/boundary"), "/boundary/left"),
        _build_boundary_side(_get(bsec, "right", "/boundary"), "/boundary/right"),
    )
    delta = _truncation(merged["delta"], "/delta")
    seed = _integer(merged["seed"], "/seed")

    solver = _require_object(merged["solver"], "/solver")
    tol = _number(_get(solver, "tol", "/solver"), "/solver/tol")
    if tol <= 0:
        raise ConfigError("/solver/tol", "must be positive")

    tol_explicit = isinstance(user.get("solver"), dict) and "tol" in user["solver"]
    return LoadedConfig(
        medium=medium,
        boundary=boundary,
        delta=delta,
        seed=seed,
        solver_tol=tol,
        tol_explicit=tol_explicit,
        merged=merged,
    )


def config_hash(cfg: LoadedConfig) -> str:
    """SHA-256 of the canonical merged configuration document."""
    canonical = json.dumps(cfg.merged, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_quadrature(cfg: LoadedConfig) -> QuadratureSet:
    """Quadrature set for the solve command from /quadrature; a rom set draws with cfg.seed."""
    section = cfg.merged.get("quadrature")
    if section is None:
        raise ConfigError("/quadrature", "missing required field (needed by solve)")
    section = _require_object(section, "/quadrature")
    kind = _get(section, "kind", "/quadrature")
    if kind not in ("midpoint", "gauss", "rom", "reference"):
        raise ConfigError("/quadrature/kind", "must be one of midpoint, gauss, rom, reference")
    if kind == "reference":
        nodes = _nodes_per_half(_get(section, "nodes_per_half", "/quadrature"), "/quadrature/nodes_per_half")
        return reference_quadrature(cfg.delta, nodes)
    n = _even_n(_get(section, "n", "/quadrature"), "/quadrature/n")
    if kind == "rom":
        index = _integer(section.get("sample_index", 0), "/quadrature/sample_index")
        if index < 0:
            raise ConfigError("/quadrature/sample_index", "must be nonnegative")
        return rom_sample(build_partition(n, cfg.delta), cfg.seed, index)
    order = None
    if kind == "gauss" and "order" in section:
        order = _nodes_per_half(section["order"], "/quadrature/order")
    return dom_quadrature(build_partition(n, cfg.delta), kind, order)


def study_config(cfg: LoadedConfig) -> StudyConfig:
    """StudyConfig from /study, with cfg.seed as the master seed.

    Maps each /study key to its field; StudyConfig types and checks the
    values.  A defaulted /solver/tol passes None, which StudyConfig tightens
    to the study cap; an explicit one must respect that cap.
    """
    study = _require_object(cfg.merged["study"], "/study")
    return StudyConfig(
        medium=cfg.medium, boundary=cfg.boundary, delta=cfg.delta, master_seed=cfg.seed,
        n_list=study["n_list"], sample_count=study["samples"], ref_nodes=study["ref_nodes"],
        dom_rule=study["dom_rule"], delta_list=study["delta_list"], reference_delta=study["reference_delta"],
        solver_tol=cfg.solver_tol if cfg.tol_explicit else None,
    )
