"""Central defaults, loaded from the checked-in defaults.json document.

Every tunable the package pins (truncation, caps, tolerances, study sizes)
lives in that one document so that emitted artifacts are auditable against
a single source.  Its "config" section holds the default of every value a
run configuration can set; the rest are the package's own constants.
"""
from __future__ import annotations

import copy
import importlib.resources
import json

_DOC = json.loads(
    importlib.resources.files("romlab").joinpath("defaults.json").read_text()
)

LAMBDA_MAX: float = _DOC["lambda_max"]
ALPHA_MAX: float = _DOC["alpha_max"]
EXP_PRODUCT_GUARD: float = _DOC["exp_product_guard"]
# largest grid a config may ask for: the direct solve's M x M system takes 3.2 GB at this M
MAX_GRID_CELLS: int = _DOC["max_grid_cells"]
SOLVER_TOL: float = _DOC["config"]["solver"]["tol"]
REF_INITIAL_NODES: int = _DOC["config"]["study"]["ref_nodes"]
REF_MAX_NODES: int = _DOC["reference"]["max_nodes_per_half"]
REF_ENTRY_TOL: float = _DOC["reference"]["entry_tol"]
SOLVER_TOL_COEFF: float = _DOC["study"]["solver_tol_coeff"]
REF_TARGET_COEFF: float = _DOC["study"]["ref_target_coeff"]
BIAS_SE_FRACTION: float = _DOC["study"]["bias_se_fraction"]
BIAS_INITIAL_SAMPLES: int = _DOC["study"]["bias_initial_samples"]
REGULARIZATION_TARGET: float = _DOC["study"]["regularization_target"]
REGULARIZATION_SOLVER_TOL: float = _DOC["regularization_solver_tol"]


def config_document() -> dict:
    """A mutable copy of the defaults every run configuration is merged onto."""
    return copy.deepcopy(_DOC["config"])
