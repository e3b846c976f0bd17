"""JSON run configuration: loading, validation, and object construction.

Validation failures raise ConfigError carrying a JSON-pointer-style path
("/medium/sigma_t") so the CLI can name the offending field.  Every command
loads through load_config.  ``validate`` and every study kind but
``regularization`` also build the StudyConfig, which rejects an explicit
/solver/tol above the study cap.  ``solve`` runs no study and accepts any
positive tolerance; ``regularization`` solves at its own fixed tolerance and
reads no /solver/tol.
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

_QUAD_KINDS = ("midpoint", "gauss", "rom", "reference")
STUDY_KINDS = ("single-run", "bias", "dom", "delta-t", "delta-b", "regularization")


@dataclass(frozen=True, eq=False)
class LoadedConfig:
    """Validated configuration with constructed domain objects.

    ``tol_explicit`` records whether the user pinned the solver tolerance;
    studies derive their own cap-compliant tolerance otherwise.
    """

    medium: MediumProfile
    boundary: BoundarySpec
    delta: float
    seed: int
    solver_tol: float
    tol_explicit: bool
    quadrature: dict | None
    study: dict
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


def _validate_even_n(n: int, path: str) -> int:
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

    doc = defaults.document()
    merged = {
        "delta": doc["delta"],
        "seed": 0,
        "solver": doc["solver"],
        "study": doc["study"],
    }
    merged = _merge(merged, user)

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

    quadrature = merged.get("quadrature")
    if quadrature is not None:
        quadrature = _require_object(quadrature, "/quadrature")
        kind = _get(quadrature, "kind", "/quadrature")
        if kind not in _QUAD_KINDS:
            raise ConfigError("/quadrature/kind", f"must be one of {', '.join(_QUAD_KINDS)}")
        if kind == "reference":
            _positive(_get(quadrature, "nodes_per_half", "/quadrature"), "/quadrature/nodes_per_half")
        else:
            _validate_even_n(_integer(_get(quadrature, "n", "/quadrature"), "/quadrature/n"), "/quadrature/n")
            if kind == "rom":
                idx = _integer(quadrature.get("sample_index", 0), "/quadrature/sample_index")
                if idx < 0:
                    raise ConfigError("/quadrature/sample_index", "must be nonnegative")
            if kind == "gauss" and "order" in quadrature:
                _positive(quadrature["order"], "/quadrature/order")

    study = _require_object(merged["study"], "/study")
    n_list = _get(study, "n_list", "/study")
    if not isinstance(n_list, list) or not n_list:
        raise ConfigError("/study/n_list", "must be a nonempty list")
    ns = [_integer(v, f"/study/n_list/{i}") for i, v in enumerate(n_list)]
    for i, n in enumerate(ns):
        _validate_even_n(n, f"/study/n_list/{i}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError("/study/n_list", "must be strictly increasing")
    samples = _positive(_get(study, "samples", "/study"), "/study/samples")
    ref_nodes = _positive(study.get("ref_nodes", doc["reference"]["initial_nodes_per_half"]), "/study/ref_nodes")
    if ref_nodes > defaults.REF_MAX_NODES // 2:
        raise ConfigError("/study/ref_nodes", f"must be at most half the {defaults.REF_MAX_NODES}-node cap")
    rule = study.get("dom_rule", "midpoint")
    if rule not in ("midpoint", "gauss"):
        raise ConfigError("/study/dom_rule", "must be midpoint or gauss")
    dlist = study.get("delta_list", doc["study"]["delta_list"])
    if not isinstance(dlist, list) or not dlist:
        raise ConfigError("/study/delta_list", "must be a nonempty list")
    for i, d in enumerate(dlist):
        _validate_delta(d, f"/study/delta_list/{i}")
    ref_delta = _validate_delta(
        study.get("reference_delta", doc["study"]["reference_delta"]), "/study/reference_delta"
    )
    if ref_delta >= min(_number(d, "/study/delta_list") for d in dlist):
        raise ConfigError("/study/reference_delta", "must be below every entry of delta_list")

    tol_explicit = isinstance(user.get("solver"), dict) and "tol" in user["solver"]
    return LoadedConfig(
        medium=medium,
        boundary=boundary,
        delta=delta,
        seed=seed,
        solver_tol=tol,
        tol_explicit=tol_explicit,
        quadrature=quadrature,
        study=dict(study, n_list=ns, samples=samples, ref_nodes=ref_nodes, dom_rule=rule,
                   delta_list=[float(d) for d in dlist], reference_delta=ref_delta),
        merged=merged,
    )


def config_hash(cfg: LoadedConfig) -> str:
    """SHA-256 of the canonical merged configuration document."""
    canonical = json.dumps(cfg.merged, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_quadrature(cfg: LoadedConfig, seed: int | None = None) -> QuadratureSet:
    """Quadrature set for the solve command; ``seed`` overrides the config's."""
    if cfg.quadrature is None:
        raise ConfigError("/quadrature", "missing required field (needed by solve)")
    kind = cfg.quadrature["kind"]
    if kind == "reference":
        return reference_quadrature(cfg.delta, int(cfg.quadrature["nodes_per_half"]))
    partition = build_partition(int(cfg.quadrature["n"]), cfg.delta)
    if kind == "midpoint":
        return dom_quadrature(partition, "midpoint")
    if kind == "gauss":
        order = cfg.quadrature.get("order")
        return dom_quadrature(partition, "gauss", None if order is None else int(order))
    effective = cfg.seed if seed is None else seed
    return rom_sample(partition, effective, int(cfg.quadrature.get("sample_index", 0)))


def study_config(cfg: LoadedConfig, seed: int | None = None) -> StudyConfig:
    """StudyConfig from the loaded document; ``seed`` overrides the config's.

    An explicitly configured solver tolerance must respect the study cap; a
    defaulted one is tightened automatically.
    """
    cap = defaults.SOLVER_TOL_COEFF * max(cfg.study["n_list"]) ** -3
    tol = cfg.solver_tol if cfg.tol_explicit else min(cfg.solver_tol, cap)
    return StudyConfig(
        medium=cfg.medium,
        boundary=cfg.boundary,
        delta=cfg.delta,
        n_list=tuple(cfg.study["n_list"]),
        sample_count=cfg.study["samples"],
        master_seed=cfg.seed if seed is None else seed,
        solver_tol=tol,
        ref_nodes=cfg.study["ref_nodes"],
    )
