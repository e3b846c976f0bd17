"""Tests of the benchmark itself: tracing, metric names and the output check.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from time import perf_counter

import pytest

import checks
import tracing
from run import HERE, ROOT, SRC, Runner, trace_metrics
from workloads import WORKLOADS

sys.path.insert(0, str(SRC))
import romlab  # noqa: E402
import romlab.cli  # noqa: E402

TINY = {
    "medium": {
        "grid": {"x_left": 0.0, "x_right": 1.0, "cells": 16},
        "sigma_t": [0.5 + i / 16 for i in range(16)],
        "sigma_s": 0.25,
        "q": 0.5,
    },
    "boundary": {"left": {"kind": "constant", "value": 1.0},
                 "right": {"kind": "constant", "value": 0.0}},
    "delta": 0.05,
    "solver": {"tol": 1e-9},
    "study": {"n_list": [4, 8, 16], "samples": 16, "ref_nodes": 64},
}
TINY_STUDIES = ("single-run", "delta-t", "delta-b", "dom")


def _traced_pass(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    start = perf_counter()
    with tracing.Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        for study in TINY_STUDIES:
            code = romlab.cli.main(["study", "--config", str(config), "--study", study,
                                    "--out", str(tmp_path / study), "--seed", "5", "--force"])
            assert code == 0
    return perf_counter() - start, tracer.spans


def test_traced_counts_repeat_exactly(tmp_path):
    passes = [tracing.layer_metrics(_traced_pass(tmp_path)[1]) for _ in range(2)]
    assert passes[0]["solver.solve.rom.calls"] == 3 * 16
    assert passes[0]["operators.weighted_operator_norm.calls"] == 3 * 16
    _, problems = trace_metrics(passes, [1.0, 1.0], [1.0, 1.0])
    assert problems == []


def test_changed_counts_are_reported():
    first = {"solver.solve.rom.calls": 4, "solver.solve.rom.s": 0.1}
    second = {"solver.solve.rom.calls": 5, "solver.solve.rom.s": 0.1}
    _, problems = trace_metrics([first, second], [1.0, 1.0], [1.0, 1.0])
    assert len(problems) == 1 and "solver.solve.rom.calls" in problems[0]


def test_self_times_sum_within_study_time(tmp_path):
    elapsed, spans = _traced_pass(tmp_path)
    metrics = tracing.layer_metrics(spans)
    total_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    roots = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    assert all(v >= -1e-9 for k, v in metrics.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(roots, rel=1e-9)
    assert total_self <= elapsed


def _bindings() -> dict:
    return {(key, name): getattr(module, name.split(".")[1], None)
            for key, module in list(sys.modules.items())
            if key == "romlab" or key.startswith("romlab.")
            for name in tracing.TRACED}


def test_module_bindings_patched_then_restored():
    before = _bindings()
    with tracing.Tracer():
        during = _bindings()
        for module in ("cli", "experiments", "operators", "solver", "config"):
            bound = vars(sys.modules[f"romlab.{module}"])
            for name in tracing.TRACED:
                fn = name.split(".")[1]
                if fn in bound:
                    assert hasattr(bound[fn], "__wrapped__"), f"romlab.{module}.{fn}"
        assert romlab.solve is not before[("romlab", "solver.solve")]
    assert _bindings() == before
    assert during != before


def test_bindings_restored_when_traced_code_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert _bindings() == before


def _reference(workload: str, study: str) -> str:
    return (HERE / "reference" / workload / f"{study}.csv").read_text()


@pytest.mark.parametrize(
    "workload,study,row,factor",
    [
        ("tables", "single-run", 3, 3.0),  # random rows: well beyond 4 combined SE
        ("operators", "delta-t", 2, 3.0),
        ("bias", "bias", 1, 3.0),
        ("tables", "dom", 5, 1.0 + 1e-4),  # deterministic row: beyond the tolerance
    ],
)
def test_check_rejects_one_altered_estimate(workload, study, row, factor):
    text = _reference(workload, study)
    cap = WORKLOADS[workload].bias_cap
    assert checks.check_table(study, text, text, cap) == []
    lines = text.splitlines(keepends=True)
    cells = lines[row].split(",")
    cells[1] = repr(float(cells[1]) * factor)
    lines[row] = ",".join(cells)
    assert checks.check_table(study, "".join(lines), text, cap)


def test_check_rejects_unsatisfied_regularization_row():
    text = _reference("tables", "regularization")
    altered = text.replace("true", "false", 1)
    assert any("not satisfied" in p for p in checks.check_table("regularization", altered, text))


def test_runner_counts_a_changed_csv_as_failed(tmp_path):
    workload = WORKLOADS["tables"]
    runner = Runner(workload, 1, tmp_path / "unused.json", tmp_path)
    (tmp_path / "dom").mkdir()
    (tmp_path / "dom" / "dom.csv").write_text(_reference("tables", "dom"))
    runner._check("dom", 1, 0)
    (tmp_path / "dom" / "dom.csv").write_text(_reference("tables", "dom").replace("0,1,false", "0,2,false"))
    runner._check("dom", 2, 0)
    runner._check("dom", 2, 1)
    assert (runner.attempted, runner.failed) == (3, 2)


def test_declared_metrics_are_all_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spans = set(tracing.TRACED) | {f"solver.solve.{k}" for k in ("rom", "dom", "reference")}
    derived = {"experiments.bias_study.useful_sample_ratio", "study_s_jobs2", "trace.study_s",
               "trace.overhead_s", "failed_share"}
    for metric in spec["per_layer"]:
        name = metric["name"]
        assert name in derived or name.rsplit(".", 1)[0] in spans, name
    assert {m["name"] for m in spec["end_to_end"]} == {"study_s", "peak_rss_mb", "setup_s"}
    assert [w["name"] for w in spec["workloads"]] == sorted(WORKLOADS)
