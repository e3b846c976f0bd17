"""The benchmark's workloads: a generated romlab config and the studies run on it.

Each workload's inputs are its config plus the seed passed to ``romlab study
--seed``; README.md says why each one was chosen and how it was sized.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

# Seed of the stored reference tables under reference/<workload>/.
REFERENCE_SEED = 20240901


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    studies: tuple[str, ...]

    def write_config(self, directory: Path) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.name}.json"
        path.write_text(json.dumps(self.config, indent=2) + "\n")
        return path

    def bias_cap(self, n: int) -> int:
        """Per-row sample cap of the bias study, as bias_study documents it."""
        study = self.config["study"]
        return math.ceil(study["samples"] * (max(study["n_list"]) / n) ** 3)


def _graded_slab(cells: int, lo: float, hi: float) -> dict:
    """sigma_t rising linearly from lo to hi across the slab, lambda = 1/2."""
    sigma_t = [round(lo + (hi - lo) * (i + 0.5) / cells, 9) for i in range(cells)]
    return {
        "grid": {"x_left": 0.0, "x_right": 1.0, "cells": cells},
        "sigma_t": sigma_t,
        "sigma_s": [0.5 * s for s in sigma_t],
        "q": 0.0,
    }


_ONE_SIDED_INFLOW = {
    "left": {"kind": "constant", "value": 1.0},
    "right": {"kind": "constant", "value": 0.0},
}

WORKLOADS = {
    # configs/bias.json's problem.  n = 2 resolves through the SE <= estimate/5
    # guard at the first 512-sample stage for every seed tried.  samples = 20
    # caps n = 8 at 1280 draws, which it reaches through the 1024 and 1280
    # stages while still noise-dominated (SE near the estimate), and caps
    # n = 16 and 32 at 160 and 20.  The work per pass does not depend on the seed.
    "bias": Workload(
        "bias",
        {
            "medium": {
                "grid": {"x_left": 0.0, "x_right": 1.0, "cells": 100},
                "sigma_t": 1.0,
                "sigma_s": 0.9,
                "q": 1.0,
            },
            "boundary": {
                "left": {"kind": "constant", "value": 0.0},
                "right": {"kind": "constant", "value": 0.0},
            },
            "delta": 0.0125,
            "seed": REFERENCE_SEED,
            "solver": {"tol": 3e-8, "max_iter": 200000},
            "study": {"n_list": [2, 8, 16, 32], "samples": 20, "ref_nodes": 256},
        },
        ("bias",),
    ),
    # The operator lab on configs/benchmark.json's truncation and ratio.  The
    # graded sigma_t breaks the slab's mirror symmetry: on the symmetric slab
    # the top two singular values of a deviation often nearly coincide, and
    # power-iteration counts vary several-fold from seed to seed.  The
    # iteration count still varies with the seed (4.5% coefficient of
    # variation over ten seeds); 64 samples average it down.
    "operators": Workload(
        "operators",
        {
            "medium": _graded_slab(64, 0.25, 1.75),
            "boundary": _ONE_SIDED_INFLOW,
            "delta": 0.003125,
            "seed": REFERENCE_SEED,
            "solver": {"tol": 1e-10, "max_iter": 200000},
            "study": {"n_list": [8, 16, 32], "samples": 64, "ref_nodes": 256},
        },
        ("delta-t", "delta-b"),
    ),
    # configs/benchmark.json on 100 cells.
    "tables": Workload(
        "tables",
        {
            "medium": {
                "grid": {"x_left": 0.0, "x_right": 1.0, "cells": 100},
                "sigma_t": 1.0,
                "sigma_s": 0.5,
                "q": 0.0,
            },
            "boundary": _ONE_SIDED_INFLOW,
            "delta": 0.003125,
            "seed": REFERENCE_SEED,
            "solver": {"tol": 1e-10, "max_iter": 200000},
            "study": {
                "n_list": [8, 16, 32, 64, 128],
                "samples": 64,
                "ref_nodes": 256,
                "dom_rule": "midpoint",
                "delta_list": [0.2, 0.1, 0.05],
                "reference_delta": 0.0125,
            },
        },
        ("single-run", "dom", "regularization"),
    ),
}
