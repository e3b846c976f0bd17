"""Regenerate the stored reference tables under perfbench/reference/.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each study of each named workload (default: all) once at the reference
seed with --jobs 1 and copies its CSV.  Only needed when a workload changes.
"""
from __future__ import annotations

import shutil
import sys

from run import HERE, SRC, WORK  # importing run pins the BLAS threads first
from workloads import REFERENCE_SEED, WORKLOADS


def main(names) -> int:
    sys.path.insert(0, str(SRC))
    from romlab.cli import main as romlab_main

    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        work = WORK / f"{name}-reference"
        config = workload.write_config(work)
        target = HERE / "reference" / name
        target.mkdir(parents=True, exist_ok=True)
        for study in workload.studies:
            out = work / study
            code = romlab_main(["study", "--config", str(config), "--study", study,
                                "--out", str(out), "--seed", str(REFERENCE_SEED), "--force"])
            if code != 0:
                print(f"{name}/{study}: romlab study returned {code}", file=sys.stderr)
                return 1
            shutil.copyfile(out / f"{study}.csv", target / f"{study}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
