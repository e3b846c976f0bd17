"""JSON run configuration: loading, validation, and object construction.

Validation failures raise ConfigError carrying a JSON-pointer-style path
("/medium/sigma_t") so the CLI can name the offending field.  Every command
loads through load_config, which parses what every command reads: medium,
boundary, delta, seed and /solver/tol.  ``merged`` is the document
config_hash hashes, and each remaining section has one reader that checks
its values where it reads them: study_config builds the StudyConfig from
/study (and rejects an explicit /solver/tol above the study cap), and
build_quadrature builds the solve's quadrature from /quadrature.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
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
from .experiments import StudyConfig
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
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(path, "must be an integer")
    return int(value)


def _positive(value, path: str) -> int:
    n = _integer(value, path)
    if n < 1:
        raise ConfigError(path, "must be at least 1")
    return n


def _per_cell(value, cells: int, path: str) -> np.ndarray:
    if isinstance(value, list):
        if len(value) != cells:
            raise ConfigError(path, f"needs {cells} per-cell entries, got {len(value)}")
        return np.array([_number(v, f"{path}/{i}") for i, v in enumerate(value)])
    return np.full(cells, _number(value, path))


def _build_grid(section: dict, path: str) -> SpatialGrid:
    if "edges" in section:
        edges = section["edges"]
        if not isinstance(edges, list) or len(edges) < 2:
            raise ConfigError(f"{path}/edges", "must be a list of at least two numbers")
        try:
            return SpatialGrid(np.array([_number(v, f"{path}/edges/{i}") for i, v in enumerate(edges)]))
        except ValueError as exc:
            raise ConfigError(f"{path}/edges", str(exc)) from exc
    x_left = _number(_get(section, "x_left", path), f"{path}/x_left")
    x_right = _number(_get(section, "x_right", path), f"{path}/x_right")
    if x_right <= x_left:
        raise ConfigError(f"{path}/x_right", "must exceed x_left")
    cells = _positive(_get(section, "cells", path), f"{path}/cells")
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


def _even_n(value, path: str) -> int:
    n = _integer(value, path)
    if n < 2 or n % 2 != 0:
        raise ConfigError(path, f"ordinate count must be an even integer >= 2, got {n}")
    return n


def _validate_delta(value, path: str) -> float:
    delta = _number(value, path)
    if not (0.0 < delta < 1.0):
        raise ConfigError(path, f"truncation must lie strictly inside (0, 1), got {delta}")
    return delta


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
    except json.JSONDecodeError as exc:
        raise ConfigError("/", f"invalid JSON: {exc}") from exc
    user = _require_object(user, "/")

    merged = _merge(defaults.config_document(), user)

    medium = _build_medium(_get(merged, "medium", ""))
    bsec = _require_object(_get(merged, "boundary", ""), "/boundary")
    boundary = BoundarySpec(
        _build_boundary_side(_get(bsec, "left", "/boundary"), "/boundary/left"),
        _build_boundary_side(_get(bsec, "right", "/boundary"), "/boundary/right"),
    )
    delta = _validate_delta(merged["delta"], "/delta")
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
        nodes = _positive(_get(section, "nodes_per_half", "/quadrature"), "/quadrature/nodes_per_half")
        return reference_quadrature(cfg.delta, nodes)
    n = _even_n(_get(section, "n", "/quadrature"), "/quadrature/n")
    if kind == "rom":
        index = _integer(section.get("sample_index", 0), "/quadrature/sample_index")
        if index < 0:
            raise ConfigError("/quadrature/sample_index", "must be nonnegative")
        return rom_sample(build_partition(n, cfg.delta), cfg.seed, index)
    order = None
    if kind == "gauss" and "order" in section:
        order = _positive(section["order"], "/quadrature/order")
    return dom_quadrature(build_partition(n, cfg.delta), kind, order)


def study_config(cfg: LoadedConfig) -> StudyConfig:
    """StudyConfig from /study, with cfg.seed as the master seed.

    Turns the JSON into values (types, lists, even n, truncations in (0, 1),
    the ref_nodes cap); StudyConfig checks the values themselves.  A
    defaulted /solver/tol passes None, which StudyConfig tightens to the
    study cap; an explicit one must respect that cap.
    """
    study = _require_object(cfg.merged["study"], "/study")
    n_list = study["n_list"]
    if not isinstance(n_list, list) or not n_list:
        raise ConfigError("/study/n_list", "must be a nonempty list")
    n_list = tuple(_even_n(v, f"/study/n_list/{i}") for i, v in enumerate(n_list))
    samples = _integer(study["samples"], "/study/samples")
    ref_nodes = _positive(study["ref_nodes"], "/study/ref_nodes")
    if ref_nodes > defaults.REF_MAX_NODES // 2:
        raise ConfigError("/study/ref_nodes", f"must be at most half the {defaults.REF_MAX_NODES}-node cap")
    delta_list = study["delta_list"]
    if not isinstance(delta_list, list) or not delta_list:
        raise ConfigError("/study/delta_list", "must be a nonempty list")
    delta_list = [_validate_delta(d, f"/study/delta_list/{i}") for i, d in enumerate(delta_list)]
    return StudyConfig(
        medium=cfg.medium,
        boundary=cfg.boundary,
        delta=cfg.delta,
        n_list=n_list,
        sample_count=samples,
        master_seed=cfg.seed,
        dom_rule=study["dom_rule"],
        delta_list=delta_list,
        reference_delta=_validate_delta(study["reference_delta"], "/study/reference_delta"),
        solver_tol=cfg.solver_tol if cfg.tol_explicit else None,
        ref_nodes=ref_nodes,
    )
