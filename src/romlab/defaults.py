"""Central defaults, loaded from the checked-in defaults.json document.

Every tunable the package pins (truncation, caps, tolerances, study sizes)
lives in that one document so that emitted artifacts are auditable against
a single source.
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
TAU_TAYLOR: float = _DOC["tau_taylor_threshold"]
EXP_PRODUCT_GUARD: float = _DOC["exp_product_guard"]
SOLVER_TOL: float = _DOC["solver"]["tol"]
SOLVER_MAX_ITER: int = _DOC["solver"]["max_iter"]
REF_INITIAL_NODES: int = _DOC["reference"]["initial_nodes_per_half"]
REF_MAX_NODES: int = _DOC["reference"]["max_nodes_per_half"]
REF_ENTRY_TOL: float = _DOC["reference"]["entry_tol"]
SOLVER_TOL_COEFF: float = _DOC["study"]["solver_tol_coeff"]
REF_TARGET_COEFF: float = _DOC["study"]["ref_target_coeff"]
BIAS_SE_FRACTION: float = _DOC["study"]["bias_se_fraction"]
BIAS_INITIAL_SAMPLES: int = _DOC["study"]["bias_initial_samples"]
REGULARIZATION_TARGET: float = _DOC["study"]["regularization_target"]
REGULARIZATION_SOLVER_TOL: float = _DOC["regularization_solver_tol"]


def document() -> dict:
    """A mutable copy of the full defaults document."""
    return copy.deepcopy(_DOC)
