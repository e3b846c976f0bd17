"""romlab benchmark: run one workload's studies through the CLI, check them, report metrics.

    python3 perfbench/run.py --workload bias --seed 1 --seconds 35 --trace 0

Run from the repository root.  Each pass runs every study of the workload
through ``romlab.cli.main`` in this process and checks its CSV (checks.py).
``--trace 0`` makes one --jobs 2 pass, then alternates --jobs 1 passes and
set-up probes for ``--seconds`` and prints the end-to-end metrics named in
BENCHMARK.json; ``--trace 1`` alternates untraced --jobs 1, --jobs 2 and
traced --jobs 1 passes and prints the per-layer metrics.  The last line of
standard output is the JSON result; the environment stamp and the spans are
written under .perfbench_work/.
"""
from __future__ import annotations

import os

# Pinned before numpy loads so that --jobs 2 means exactly two threads.
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES_PER_ROUND = 3
# Counts that must repeat exactly between traced passes.
COUNT_SUFFIXES = (".calls", ".iterations", ".nonconverged", ".ordinates", ".drawn", ".useful")


class Runner:
    """Runs passes of one workload and checks every study table they write."""

    def __init__(self, workload: Workload, seed: int, config: Path, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.config = config
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first_csv: dict[str, str] = {}

    def run_pass(self, jobs: int) -> float:
        """Wall time of one pass over the workload's studies; checks follow, untimed."""
        cli = sys.modules["romlab.cli"]
        outcomes = {}
        start = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            for study in self.workload.studies:
                argv = ["study", "--config", str(self.config), "--study", study,
                        "--out", str(self.out_dir / study), "--seed", str(self.seed),
                        "--jobs", str(jobs), "--force"]
                try:
                    outcomes[study] = cli.main(argv)
                except Exception:  # a crash is a failed invocation, not a benchmark error
                    outcomes[study] = traceback.format_exc()
        elapsed = perf_counter() - start
        for study, outcome in outcomes.items():
            self._check(study, jobs, outcome)
        return elapsed

    def _check(self, study: str, jobs: int, outcome) -> None:
        self.attempted += 1
        problems = self._problems(study, f"{study} --jobs {jobs}", outcome)
        if problems:
            self.failed += 1
            self.problems += problems
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)

    def _problems(self, study: str, where: str, outcome) -> list[str]:
        if outcome != 0:
            return [f"{where}: romlab study returned {outcome}"]
        try:
            text = (self.out_dir / study / f"{study}.csv").read_text()
        except OSError as exc:
            return [f"{where}: {exc}"]
        first = self._first_csv.setdefault(study, text)
        if text is not first:
            return [] if text == first else [f"{where}: CSV differs from the first pass of this run"]
        reference = (HERE / "reference" / self.workload.name / f"{study}.csv").read_text()
        return checks.check_table(study, text, reference, self.workload.bias_cap)


def timed_rounds(seconds: float, steps) -> list[list[float]]:
    """Run rounds of ``steps`` (callables returning a time) for about ``seconds``.

    A round starts only if the previous one, repeated, would end in time;
    at least one round runs.  Returns the times of each step, in order.
    """
    times: list[list[float]] = [[] for _ in steps]
    deadline = perf_counter() + seconds
    while True:
        round_start = perf_counter()
        for step, out in zip(steps, times):
            out.append(step())
        if perf_counter() + (perf_counter() - round_start) > deadline:
            return times


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_time(config: Path) -> float:
    """Set-up time measured inside one fresh process (setup_probe.py)."""
    result = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(result.stdout.strip().splitlines()[-1])


def trace_metrics(passes: list[dict], traced: list[float], untraced: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over traced passes, counts checked to repeat."""
    problems = []
    counts = [{k: v for k, v in p.items() if k.endswith(COUNT_SUFFIXES)} for p in passes]
    for index, other in enumerate(counts[1:], start=2):
        if other != counts[0]:
            changed = sorted(k for k in set(other) | set(counts[0])
                             if other.get(k) != counts[0].get(k))
            problems.append(f"traced pass {index} counts differ from pass 1: {changed}")
    keys = set().union(*passes)
    out = {k: statistics.median(p.get(k, 0.0) for p in passes) for k in keys}
    drawn = out.get("experiments.bias_study.drawn", 0.0)
    out["experiments.bias_study.useful_sample_ratio"] = (
        out.get("experiments.bias_study.useful", 0.0) / drawn if drawn else 0.0
    )
    out["trace.study_s"] = statistics.median(traced)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return out, problems


def environment(seed: int) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        revision = git.stdout.strip() or revision
    return {
        "git_revision": revision,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
        "romlab_source_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "romlab").glob("*.py"))
        ),
    }


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "romlab" / "__init__.py").is_file():
        print(f"error: no romlab sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import romlab.cli  # noqa: F401  (run_pass calls it through sys.modules, as traced)

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    config = workload.write_config(work)
    runner = Runner(workload, args.seed, config, work / "out")
    env = environment(args.seed)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "env": env}

    # Peak memory is reported above this level: what the interpreter, numpy
    # and romlab hold once imported, which no pass can change.
    imported_mb = peak_rss_mb()
    if args.trace == 0:
        # Warm-up at --jobs 2: fills caches, and the timed --jobs 1 passes
        # must then write CSVs byte-identical to its tables.
        runner.run_pass(2)
        setup_time(config)  # warm-up: compiles bytecode, fills the page cache
        # Set-up probes in every round spread them over the whole run.
        jobs1, *probes = timed_rounds(
            args.seconds,
            [lambda: runner.run_pass(1)] + [lambda: setup_time(config)] * SETUP_PROBES_PER_ROUND,
        )
        setup = [t for times in zip(*probes) for t in times]
        values = {
            "study_s": statistics.median(jobs1),
            "peak_rss_mb": peak_rss_mb() - imported_mb,
            "setup_s": statistics.median(setup),
        }
        record["samples"] = {"study_s": jobs1, "setup_s": setup}
        record["imported_rss_mb"] = imported_mb
        declared = declared_metrics("end_to_end")
    else:
        runner.run_pass(1)  # warm-up, checked like the rest
        passes, spans = [], []

        def traced_pass() -> float:
            nonlocal spans
            with tracing.Tracer() as tracer:
                elapsed = runner.run_pass(1)
            spans = tracer.spans
            passes.append(tracing.layer_metrics(spans))
            return elapsed

        untraced, jobs2, traced = timed_rounds(
            args.seconds, [lambda: runner.run_pass(1), lambda: runner.run_pass(2), traced_pass]
        )
        values, problems = trace_metrics(passes, traced, untraced)
        runner.problems += problems
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        values["study_s_jobs2"] = statistics.median(jobs2)
        values["failed_share"] = runner.failed / runner.attempted
        record["samples"] = {"study_s": untraced, "study_s_jobs2": jobs2, "trace.study_s": traced}
        with open(work / "spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        declared = declared_metrics("per_layer")

    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in declared.items()}
    result = {
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record.update(result, problems=runner.problems)
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print("environment " + json.dumps(env))
    for name, sample in record["samples"].items():
        print(f"{name}: median of {len(sample)} samples")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
