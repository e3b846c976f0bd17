import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import CONFIGS
from romlab import angular, cli, config, experiments, operators
from romlab.angular import build_partition, certify_by_doubling, dom_quadrature, reference_quadrature
from romlab.cli import flux_to_csv, main, table_to_csv
from romlab.config import config_hash, load_config, study_config
from romlab.experiments import (
    STUDIES,
    ErrorRow,
    ErrorTable,
    RegularizationRow,
    StudyConfig,
    check_kind,
)
from romlab.medium import BoundarySpec, ConstantBoundary, LinearBoundary, SpatialGrid, make_medium
from romlab.solver import SolveReport, solve


def write_config(path: Path, **overrides) -> Path:
    doc = {
        "medium": {
            "grid": {"x_left": 0.0, "x_right": 1.0, "cells": 12},
            "sigma_t": 1.0,
            "sigma_s": 0.5,
            "q": 0.0,
        },
        "boundary": {
            "left": {"kind": "constant", "value": 1.0},
            "right": {"kind": "constant", "value": 0.0},
        },
        "delta": 0.05,
        "seed": 11,
        "quadrature": {"kind": "midpoint", "n": 8},
        "solver": {"tol": 1e-9},
        "study": {"n_list": [4, 8], "samples": 16, "ref_nodes": 64},
    }

    def deep_update(base, extra):
        for key, value in extra.items():
            if isinstance(value, dict) and isinstance(base.get(key), dict):
                deep_update(base[key], value)
            else:
                base[key] = value

    deep_update(doc, overrides)
    target = path / "config.json"
    target.write_text(json.dumps(doc, indent=2))
    return target


class TestValidate:
    def test_accepts_good_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "lambda = 0.5" in out
        assert "n_list = [4, 8]" in out
        assert "cannot run" not in out

    def test_rejects_lambda_at_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, medium={"sigma_s": 1.0})
        assert main(["validate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "/medium/sigma_s" in err

    @pytest.mark.parametrize("overrides, path", [
        ({"medium": {"sigma_s": float("nan")}}, "/medium/sigma_s"),
        ({"boundary": {"left": {"kind": "constant", "value": float("-inf")}}}, "/boundary/left/value"),
        ({"solver": {"tol": float("inf")}}, "/solver/tol"),
        ({"delta": 10**400}, "/delta"),  # past float range: float() overflows
        ({"medium": {"q": [-(10**400)] * 12}}, "/medium/q/0"),
    ])
    def test_rejects_nonfinite_numbers(self, tmp_path, capsys, overrides, path):
        # json reads NaN, Infinity and -Infinity as floats
        cfg = write_config(tmp_path, **overrides)
        assert main(["validate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert path in err and "finite" in err

    @pytest.mark.parametrize("overrides, path, message", [
        ({"delta": "0.05"}, "/delta", "must be a number"),
        ({"seed": 1.5}, "/seed", "must be an integer"),
        ({"medium": {"grid": {"cells": 0}}}, "/medium/grid/cells", "at least 1"),
        ({"medium": {"sigma_t": [1.0] * 11}}, "/medium/sigma_t", "needs 12 per-cell entries, got 11"),
        ({"medium": {"grid": {"edges": 1.0}}}, "/medium/grid/edges", "must be a list"),
        ({"medium": {"grid": {"edges": [0.0, 1.0, 0.5]}}}, "/medium/grid/edges", "strictly increasing"),
        ({"medium": {"grid": {"x_right": 0.0}}}, "/medium/grid/x_right", "must exceed x_left"),
        ({"medium": {"sigma_s": -0.5}}, "/medium/sigma_s", "nonnegative"),
        ({"medium": {"q": -1.0}}, "/medium/q", "nonnegative"),
        ({"medium": {"sigma_t": 0.0}}, "/medium/sigma_t", "positive"),
        # cells of width 0.01, where sigma_t * h underflows to 0, and of width 2, where it overflows
        ({"medium": {"grid": {"x_right": 0.12}, "sigma_t": 5e-324, "sigma_s": 0.0}}, "/medium/sigma_t",
         "sigma_t * h must be positive and finite"),
        ({"medium": {"grid": {"x_right": 24.0}, "sigma_t": 1e308, "sigma_s": 0.0}}, "/medium/sigma_t",
         "sigma_t * h must be positive and finite"),
        ({"boundary": {"left": {"kind": "table", "mu": 0.5, "value": 1.0}}}, "/boundary/left",
         "table needs 'mu' and 'value' lists"),
        ({"boundary": {"left": {"kind": "table", "mu": [0.5, 0.2], "value": [1.0, 1.0]}}}, "/boundary/left",
         "strictly increasing"),
        ({"boundary": {"right": {"kind": "cosine"}}}, "/boundary/right/kind", "must be one of"),
        ({"solver": {"tol": 0.0}}, "/solver/tol", "must be positive"),
        ({"quadrature": {"kind": "simpson"}}, "/quadrature/kind", "must be one of"),
        ({"quadrature": {"kind": "rom", "n": 8, "sample_index": -1}}, "/quadrature/sample_index",
         "nonnegative"),
        ({"study": {"delta_list": 0.1}}, "/study/delta_list", "nonempty list"),
        ({"study": {"samples": 0}}, "/study/samples", "at least 1"),
    ], ids=["not-a-number", "not-an-integer", "no-cells", "per-cell-length", "edges-not-a-list",
            "edges-decreasing", "empty-slab", "negative-sigma_s", "negative-q", "zero-sigma_t",
            "underflowing-sigma_t", "overflowing-sigma_t",
            "table-without-lists", "bad-table", "unknown-boundary-kind", "zero-tol",
            "unknown-quadrature-kind", "negative-sample-index", "delta_list-not-a-list", "no-samples"])
    def test_rejects_bad_field(self, tmp_path, capsys, overrides, path, message):
        cfg = write_config(tmp_path, **overrides)
        assert main(["validate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: " in err and message in err

    def test_rejects_document_that_is_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("[1, 2]")
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "error: /: must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("cells", [10**30, 10**9])
    def test_rejects_cell_count_over_cap_before_allocating(self, tmp_path, capsys, cells):
        # 10^30 overflowed np.linspace; 10^9 would allocate gigabytes before any check
        cfg = write_config(tmp_path, medium={"grid": {"cells": cells}})
        assert main(["validate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "/medium/grid/cells" in err and "at most 20000" in err

    @pytest.mark.parametrize("value", [10**6, 10**30])
    @pytest.mark.parametrize("overrides, path, cap", [
        (lambda v: {"quadrature": {"kind": "reference", "nodes_per_half": v}}, "/quadrature/nodes_per_half",
         "at most 8192"),
        (lambda v: {"quadrature": {"kind": "gauss", "n": 8, "order": v}}, "/quadrature/order", "at most 8192"),
        (lambda v: {"quadrature": {"kind": "midpoint", "n": v}}, "/quadrature/n", "[2, 16384]"),
        (lambda v: {"quadrature": None, "study": {"n_list": [4, v]}}, "/study/n_list/1", "[2, 16384]"),
    ], ids=["nodes_per_half", "order", "n", "n_list"])
    def test_rejects_ordinate_count_over_cap_before_building(self, tmp_path, capsys, monkeypatch,
                                                             overrides, path, cap, value):
        # a Gauss rule of N nodes costs O(N^2), and an operator study allocates
        # per ordinate: the caps are checked before any rule or partition is built
        def refuse(*args):
            raise AssertionError("built before the cap was checked")

        monkeypatch.setattr(angular, "_gauss_legendre", refuse)
        monkeypatch.setattr(config, "build_partition", refuse)
        cfg = write_config(tmp_path, **overrides(value))
        assert main(["validate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: " in err and cap in err

    @pytest.mark.parametrize("quadrature, code", [
        ({"kind": "midpoint", "n": 16384}, 0),
        ({"kind": "midpoint", "n": 16386}, 1),
        ({"kind": "reference", "nodes_per_half": 8193}, 1),
        ({"kind": "gauss", "n": 8, "order": 8193}, 1),
    ])
    def test_ordinate_caps_are_inclusive(self, tmp_path, quadrature, code):
        cfg = write_config(tmp_path, quadrature=quadrature)
        assert main(["validate", "--config", str(cfg)]) == code

    def test_rejects_edge_list_over_cap(self, tmp_path, capsys):
        edges = list(range(20002))
        cfg = write_config(tmp_path, medium={"grid": {"edges": edges}, "sigma_t": 1.0})
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "/medium/grid/edges" in capsys.readouterr().err

    def test_rejects_integer_past_str_digits_limit(self, tmp_path, capsys):
        # json.loads raises a plain ValueError for an int of over 4300 digits
        cfg = tmp_path / "config.json"
        cfg.write_text(write_config(tmp_path).read_text().replace('"delta": 0.05', '"delta": 1' + "0" * 5000))
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("good", [True, False])
    def test_runs_as_module(self, tmp_path, good):
        cfg = write_config(tmp_path, **({} if good else {"delta": 0.0}))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "romlab.cli", "validate", "--config", str(cfg)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == (0 if good else 1)
        assert ("config ok" in done.stdout) == good

    def test_rejects_odd_n(self, tmp_path, capsys):
        cfg = write_config(tmp_path, quadrature={"kind": "midpoint", "n": 7})
        assert main(["validate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "/quadrature/n" in err and "even" in err

    def test_rejects_zero_delta(self, tmp_path, capsys):
        cfg = write_config(tmp_path, delta=0.0)
        assert main(["validate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "/delta" in err and "truncation" in err

    def test_rejects_bad_study_list(self, tmp_path, capsys):
        cfg = write_config(tmp_path, study={"n_list": [8, 4]})
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "/study/n_list" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["medium", "boundary"])
    def test_missing_section(self, tmp_path, capsys, section):
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        del doc[section]
        cfg.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(cfg)]) == 1
        assert f"/{section}: missing required field" in capsys.readouterr().err

    def test_ref_nodes_need_room_for_one_doubling(self, tmp_path, capsys):
        # certification doubles ref_nodes at least once, up to 8192 nodes per half
        cfg = write_config(tmp_path, study={"ref_nodes": 4097})
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "/study/ref_nodes" in capsys.readouterr().err
        cfg = write_config(tmp_path, study={"ref_nodes": 4096})
        assert main(["validate", "--config", str(cfg)]) == 0

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("overrides, expected", [
        ({"study": {"samples": 8}}, ["single-run: /study/samples"]),
        ({"medium": {"sigma_s": 0.0}}, ["delta-t: delta-t study needs lambda > 0",
                                        "regularization: regularization study needs lambda > 0"]),
        ({"study": {"samples": 1}, "medium": {"sigma_s": 0.0}},
         ["single-run", "bias", "delta-t: /study/samples", "delta-t: delta-t study needs lambda > 0",
          "delta-b", "regularization"]),
    ], ids=["few-samples", "pure-absorber", "both"])
    def test_reports_each_unmet_kind_rule(self, tmp_path, capsys, monkeypatch, overrides, expected):
        # a config that some study kinds cannot run is still valid: validate
        # names every unmet rule, one line each, and exits 0 without a solve
        monkeypatch.setattr(cli, "solve", None)
        monkeypatch.setattr(experiments, "solve", None)
        cfg = write_config(tmp_path, **overrides)
        assert main(["validate", "--config", str(cfg)]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("cannot run ")]
        assert len(lines) == len(expected)
        for line, text in zip(lines, expected):
            assert line.startswith(f"cannot run {text}")

    @pytest.mark.parametrize("name", ["benchmark", "bias"])
    def test_shipped_configs_run_every_kind(self, capsys, name):
        assert main(["validate", "--config", str(CONFIGS / f"{name}.json")]) == 0
        assert "cannot run" not in capsys.readouterr().out

    def test_defaulted_ref_nodes_hash_as_explicit(self, tmp_path):
        # the defaults a config can set are merged in before hashing, and
        # nothing else is: an omitted value hashes as its explicit default
        hashes = []
        for name, study in (("omitted", {"n_list": [4, 8]}),
                            ("explicit", {"n_list": [4, 8], "ref_nodes": 256})):
            (tmp_path / name).mkdir()
            cfg = write_config(tmp_path / name)
            doc = json.loads(cfg.read_text())
            doc["study"] = study
            cfg.write_text(json.dumps(doc))
            loaded = load_config(cfg)
            assert set(loaded.merged["study"]) == {
                "n_list", "samples", "ref_nodes", "dom_rule", "delta_list", "reference_delta"}
            hashes.append(config_hash(loaded))
        assert hashes[0] == hashes[1]

    def test_check_kind_knows_only_study_kinds(self, tmp_path):
        sc = study_config(load_config(write_config(tmp_path)))
        for kind in STUDIES:
            check_kind(sc, kind)
        with pytest.raises(ValueError, match="unknown study kind"):
            check_kind(sc, "delta-x")

    def test_same_diagnostics_as_solve(self, tmp_path, capsys):
        cfg = write_config(tmp_path, delta=0.0)
        main(["validate", "--config", str(cfg)])
        d1 = capsys.readouterr().err
        main(["solve", "--config", str(cfg), "--out", str(tmp_path / "phi.csv")])
        d2 = capsys.readouterr().err
        assert d1 == d2


class TestSolve:
    def test_writes_flux_and_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "phi.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "cell,x_left,x_right,phi"
        assert len(lines) == 13  # header + one row per cell
        report = json.loads(out.with_suffix(".report.json").read_text())
        assert report["converged"] is True
        expected = {f.name for f in fields(SolveReport)} | {"lambda", "quadrature", "ordinates"}
        assert set(report) == expected
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert out.name in manifest["outputs"]

    def test_uncertified_solve_exit_code_with_partial_result(self, tmp_path, capsys):
        # no residual reaches 1e-300, so the certificate stays above tol
        cfg = write_config(tmp_path, medium={"sigma_s": 0.9}, solver={"tol": 1e-300})
        out = tmp_path / "phi.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error bound" in capsys.readouterr().err
        assert out.exists()
        report = json.loads(out.with_suffix(".report.json").read_text())
        assert report["converged"] is False
        assert report["error_bound"] > 1e-300

    def test_max_iter_key_is_unread(self, tmp_path):
        # configs written for source iteration carry /solver/max_iter; it is
        # accepted and read by nothing, like any other unread key
        fluxes = []
        for name, solver in (("cap", {"max_iter": 1}), ("other", {"unread": 1})):
            cfg = write_config(tmp_path, solver=solver)
            assert main(["validate", "--config", str(cfg)]) == 0
            out = tmp_path / f"{name}.csv"
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
            fluxes.append(out.read_bytes())
        assert fluxes[0] == fluxes[1]

    def test_rom_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, quadrature={"kind": "rom", "n": 8, "sample_index": 0})
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(b), "--seed", "99"]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(c), "--seed", "99"]) == 0
        assert a.read_text() != b.read_text()
        assert b.read_text() == c.read_text()

    def test_seed_override_reaches_every_record(self, tmp_path):
        # --seed replaces the seed every reader sees; the hash stays the file's
        cfg = write_config(tmp_path, quadrature={"kind": "rom", "n": 8, "sample_index": 0})
        manifests = []
        for name, extra in (("plain", []), ("seeded", ["--seed", "99"])):
            out = tmp_path / f"{name}.csv"
            assert main(["solve", "--config", str(cfg), "--out", str(out), *extra]) == 0
            manifests.append(json.loads(out.with_suffix(".manifest.json").read_text()))
        assert manifests[0]["master_seed"] == 11
        assert manifests[1]["master_seed"] == 99
        assert manifests[1]["config_hash"] == manifests[0]["config_hash"]
        report = json.loads((tmp_path / "seeded.report.json").read_text())
        assert report["quadrature"].startswith("rom(seed=99,")

    def test_out_in_missing_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "missing" / "phi.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"output directory {out.parent} does not exist" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_out_naming_a_directory(self, tmp_path, capsys, monkeypatch):
        # the unwritable path is found before the solve, not after it
        calls = []
        monkeypatch.setattr(cli, "solve", lambda *args: calls.append(args))
        cfg = write_config(tmp_path)
        out = tmp_path / "phi"
        out.mkdir()
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {out} is a directory\n"
        assert calls == [] and not any(out.iterdir())

    def test_out_under_a_file(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "solve", lambda *args: calls.append(args))
        cfg = write_config(tmp_path)
        parent = tmp_path / "afile"
        parent.write_text("kept\n")
        out = parent / "phi.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: output directory {parent} is not a directory\n"
        assert calls == [] and parent.read_text() == "kept\n"

    def test_quadrature_required(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        del doc["quadrature"]
        cfg.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        assert "/quadrature" in capsys.readouterr().err


class TestConfigPaths:
    """Each config form solves bit for bit as the library call it stands for."""

    @staticmethod
    def _cli_flux(tmp_path, name, **overrides) -> str:
        (tmp_path / name).mkdir()
        cfg = write_config(tmp_path / name, **overrides)
        out = tmp_path / name / "phi.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        return out.read_text()

    @staticmethod
    def _library_flux(quad, left=ConstantBoundary(1.0)) -> str:
        # write_config's medium and right inflow
        grid = SpatialGrid.uniform(0.0, 1.0, 12)
        medium = make_medium(grid, np.full(12, 1.0), np.full(12, 0.5), np.zeros(12))
        phi, report = solve(medium, BoundarySpec(left, ConstantBoundary(0.0)), quad, 1e-9)
        assert report.converged
        return flux_to_csv(phi, grid.edges)

    def test_edges_grid(self, tmp_path):
        edges = SpatialGrid.uniform(0.0, 1.0, 12).edges.tolist()
        flux = self._cli_flux(tmp_path, "edges", medium={"grid": {"edges": edges}})
        assert flux == self._cli_flux(tmp_path, "cells")

    def test_linear_boundary(self, tmp_path):
        flux = self._cli_flux(tmp_path, "linear",
                              boundary={"left": {"kind": "linear", "slope": 0.5, "intercept": 0.25}})
        midpoint = dom_quadrature(build_partition(8, 0.05), "midpoint")
        assert flux == self._library_flux(midpoint, LinearBoundary(0.5, 0.25))

    def test_one_point_table_boundary_is_constant(self, tmp_path):
        flux = self._cli_flux(tmp_path, "table",
                              boundary={"left": {"kind": "table", "mu": [0.5], "value": [1.0]}})
        assert flux == self._cli_flux(tmp_path, "constant")

    def test_reference_quadrature(self, tmp_path):
        flux = self._cli_flux(tmp_path, "reference", quadrature={"kind": "reference", "nodes_per_half": 16})
        assert flux == self._library_flux(reference_quadrature(0.05, 16))

    def test_gauss_order(self, tmp_path):
        flux = self._cli_flux(tmp_path, "order", quadrature={"kind": "gauss", "n": 8, "order": 6})
        assert flux == self._library_flux(dom_quadrature(build_partition(8, 0.05), "gauss", 6))


class TestStudy:
    def test_writes_table_summary_manifest(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "study"
        rc = main(["study", "--config", str(cfg), "--study", "delta-b", "--out", str(out)])
        assert rc == 0
        header, *lines = (out / "delta-b.csv").read_text().splitlines()
        assert header == "n,estimate,se,samples,flagged,wall_time_s"
        assert [line.split(",")[0] for line in lines] == ["4", "8"]
        summary = json.loads((out / "delta-b_summary.json").read_text())
        assert summary["study"] == "delta-b"
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"delta-b.csv", "delta-b_summary.json"}

    def test_refuses_nonempty_dir_without_force(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "study"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        rc = main(["study", "--config", str(cfg), "--study", "delta-b", "--out", str(out)])
        assert rc == 1
        assert "--force" in capsys.readouterr().err
        rc = main(
            ["study", "--config", str(cfg), "--study", "delta-b", "--out", str(out), "--force"]
        )
        assert rc == 0

    def test_out_naming_a_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "taken"
        out.write_text("x")
        assert main(["study", "--config", str(cfg), "--study", "dom", "--out", str(out)]) == 1
        assert f"{out} exists and is not a directory" in capsys.readouterr().err
        assert out.read_text() == "x"

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            assert main(
                ["study", "--config", str(cfg), "--study", "single-run", "--out", str(out)]
            ) == 0
        assert (out1 / "single-run.csv").read_bytes() == (out2 / "single-run.csv").read_bytes()

    def test_jobs_do_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path, study={"samples": 16})
        out1, out2 = tmp_path / "j1", tmp_path / "j8"
        assert main(
            ["study", "--config", str(cfg), "--study", "single-run", "--out", str(out1),
             "--jobs", "1"]
        ) == 0
        assert main(
            ["study", "--config", str(cfg), "--study", "single-run", "--out", str(out2),
             "--jobs", "8"]
        ) == 0
        assert (out1 / "single-run.csv").read_bytes() == (out2 / "single-run.csv").read_bytes()

    def test_seed_override_changes_table(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["study", "--config", str(cfg), "--study", "single-run", "--out", str(out1)])
        main(["study", "--config", str(cfg), "--study", "single-run", "--out", str(out2),
              "--seed", "77"])
        assert (out1 / "single-run.csv").read_text() != (out2 / "single-run.csv").read_text()

    def test_seed_override_reaches_every_record(self, tmp_path):
        cfg = write_config(tmp_path)
        records = []
        for name, extra in (("plain", []), ("seeded", ["--seed", "77"])):
            out = tmp_path / name
            assert main(["study", "--config", str(cfg), "--study", "delta-b", "--out", str(out),
                         *extra]) == 0
            records.append((json.loads((out / "manifest.json").read_text()),
                            json.loads((out / "delta-b_summary.json").read_text())))
        (manifest, summary), (seeded_manifest, seeded_summary) = records
        assert manifest["master_seed"] == summary["master_seed"] == 11
        assert seeded_manifest["master_seed"] == seeded_summary["master_seed"] == 77
        assert seeded_manifest["config_hash"] == seeded_summary["config_hash"]
        assert seeded_manifest["config_hash"] == manifest["config_hash"]

    def test_regularization_study_csv(self, tmp_path):
        cfg = write_config(
            tmp_path,
            study={"delta_list": [0.2, 0.1], "reference_delta": 0.05, "ref_nodes": 64},
        )
        out = tmp_path / "reg"
        rc = main(
            ["study", "--config", str(cfg), "--study", "regularization", "--out", str(out)]
        )
        assert rc == 0
        header, *lines = (out / "regularization.csv").read_text().splitlines()
        assert header == "delta,error,f_norm,bound,satisfied,wall_time_s"
        assert [line.split(",")[4] for line in lines] == ["true", "true"]

    @pytest.mark.parametrize("study", ["single-run", "dom"])
    def test_uncertified_study_exit_code(self, tmp_path, capsys, study):
        cfg = write_config(tmp_path, solver={"tol": 1e-300})
        rc = main(["study", "--config", str(cfg), "--study", study, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error bound" in capsys.readouterr().err

    @staticmethod
    def _count_certifications(monkeypatch) -> list:
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return certify_by_doubling(*args, **kwargs)

        monkeypatch.setattr(operators, "certify_by_doubling", counted)
        return calls

    @pytest.mark.parametrize("study", ["delta-t", "delta-b"])
    def test_operator_study_needs_two_samples(self, tmp_path, capsys, monkeypatch, study):
        # the sample count is checked before the reference is certified
        calls = self._count_certifications(monkeypatch)
        cfg = write_config(tmp_path, study={"samples": 1})
        rc = main(["study", "--config", str(cfg), "--study", study, "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "/study/samples" in capsys.readouterr().err
        assert len(calls) == 0

    def test_bias_study_needs_two_pairs(self, tmp_path, capsys, monkeypatch):
        # 3 samples hold one antithetic pair, too few units for a jackknife;
        # the count is checked before the reference is certified
        calls = []
        monkeypatch.setattr(experiments, "certify_by_doubling",
                            lambda *args: calls.append(args) or certify_by_doubling(*args))
        cfg = write_config(tmp_path, study={"samples": 3})
        rc = main(["study", "--config", str(cfg), "--study", "bias", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "/study/samples" in capsys.readouterr().err
        assert len(calls) == 0

    @pytest.mark.parametrize("study, overrides, message", [
        ("single-run", {"study": {"samples": 8}}, "/study/samples"),
        ("regularization", {"medium": {"sigma_s": 0.0}}, "regularization study needs lambda > 0"),
        ("delta-t", {"medium": {"sigma_s": 0.0}}, "delta-t study needs lambda > 0"),
    ], ids=["single-run", "regularization", "delta-t"])
    def test_unmet_kind_rule_fails_before_any_certification(self, tmp_path, capsys, monkeypatch,
                                                             study, overrides, message):
        calls = []
        for module in (experiments, operators):
            monkeypatch.setattr(module, "certify_by_doubling",
                                lambda *args: calls.append(args) or certify_by_doubling(*args))
        cfg = write_config(tmp_path, **overrides)
        rc = main(["study", "--config", str(cfg), "--study", study, "--out", str(tmp_path / "x")])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert len(calls) == 0

    @pytest.mark.parametrize("study", ["bias", "single-run"])
    def test_blocked_tables_do_not_depend_on_jobs(self, tmp_path, study):
        # bias solves n = 8 and 16 in blocks of 4 and 2 pairs, and its 9 pairs
        # at n = 16 end on a short block; single-run solves sample by sample
        cfg = write_config(tmp_path, study={"n_list": [8, 16], "samples": 19})
        tables = []
        for jobs in ("1", "2", "1"):
            out = tmp_path / f"j{jobs}"
            assert main(["study", "--config", str(cfg), "--study", study, "--out", str(out),
                         "--jobs", jobs, "--force"]) == 0
            tables.append((out / f"{study}.csv").read_bytes())
        assert tables[0] == tables[1] == tables[2]

    def test_bias_jobs_do_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        tables = []
        for jobs in ("1", "2"):
            out = tmp_path / f"j{jobs}"
            assert main(["study", "--config", str(cfg), "--study", "bias", "--out", str(out),
                         "--jobs", jobs]) == 0
            tables.append((out / "bias.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_summary_schema(self, tmp_path):
        # bias records its sampling mode and each row's pair count; every
        # slope fit carries the slope's SE
        cfg = write_config(tmp_path, study={"n_list": [4, 8, 16]})
        summaries = {}
        for study in ("bias", "dom"):
            out = tmp_path / study
            assert main(["study", "--config", str(cfg), "--study", study, "--out", str(out)]) == 0
            summaries[study] = json.loads((out / f"{study}_summary.json").read_text())
        bias = summaries["bias"]
        assert bias["sampling"] == "antithetic-pairs"
        assert all(row["samples"] == 2 * row["pairs"] for row in bias["rows"])
        assert "sampling" not in summaries["dom"]
        assert "pairs" not in summaries["dom"]["rows"][0]
        assert set(summaries["dom"]["slope_fit"]) == {"slope", "intercept", "r_squared", "slope_se"}

    @pytest.mark.parametrize("study", ["delta-t", "delta-b"])
    def test_operator_study_certifies_once(self, tmp_path, monkeypatch, study):
        # the reference depends on the medium and delta only, not on n
        calls = self._count_certifications(monkeypatch)
        cfg = write_config(tmp_path, study={"n_list": [4, 8, 16], "samples": 4})
        rc = main(["study", "--config", str(cfg), "--study", study, "--out", str(tmp_path / "x")])
        assert rc == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "command",
        [["validate"]] + [["study", "--study", kind] for kind in STUDIES],
        ids=["validate", *STUDIES],
    )
    def test_tolerance_above_study_cap_rejected(self, tmp_path, capsys, command):
        # 1e-5 is above the cap 1e-3 * n_max^-3 = 1.95e-6 for n_list [4, 8]
        cfg = write_config(tmp_path, solver={"tol": 1e-5})
        out = tmp_path / "x"
        extra = ["--out", str(out)] if command[0] == "study" else []
        assert main([*command, "--config", str(cfg), *extra]) == 1
        assert "/solver/tol" in capsys.readouterr().err
        assert not out.exists()

    def test_unmet_kind_rule_leaves_no_output_directory(self, tmp_path, capsys):
        # single-run needs 16 samples; the rule is checked before the directory is made
        cfg = write_config(tmp_path, study={"samples": 8})
        out = tmp_path / "out"
        assert main(["study", "--config", str(cfg), "--study", "single-run", "--out", str(out)]) == 1
        assert "/study/samples" in capsys.readouterr().err
        assert not out.exists()

    def test_regularization_table_independent_of_tol_under_cap(self, tmp_path):
        # regularization solves at its own fixed tolerance, so a defaulted
        # /solver/tol and an explicit 1e-12, both under the cap, give one table
        tables = []
        for name, tol in (("default", None), ("explicit", 1e-12)):
            cfg = write_config(
                tmp_path, study={"delta_list": [0.2, 0.1], "reference_delta": 0.05, "ref_nodes": 64}
            )
            doc = json.loads(cfg.read_text())
            doc["solver"] = {} if tol is None else {"tol": tol}
            cfg.write_text(json.dumps(doc))
            out = tmp_path / name
            assert main(["study", "--config", str(cfg), "--study", "regularization",
                         "--out", str(out)]) == 0
            tables.append((out / "regularization.csv").read_bytes())
        assert tables[0] == tables[1]

    _STUDY_FUNCTIONS = {
        "single-run": "single_run_error_study",
        "bias": "bias_study",
        "dom": "dom_error_study",
        "delta-t": "deviation_study",
        "delta-b": "deviation_study",
        "regularization": "regularization_study",
    }

    @pytest.mark.parametrize("study", list(STUDIES))
    def test_study_kind_calls_its_function(self, tmp_path, monkeypatch, study):
        # each kind's run looks its function up in romlab.experiments when it
        # is called, so a replacement set there (as a tracer does) is the one called
        calls = []

        def fake(config, *args):
            calls.append((config, *args))
            if study == "regularization":
                return ErrorTable((RegularizationRow(0.1, 0.0, 0.0, 0.0, True, 0.0),))
            return ErrorTable((ErrorRow(4, 1.0, 0.0, 1, False, 0.0),))

        monkeypatch.setattr(experiments, self._STUDY_FUNCTIONS[study], fake)
        cfg = write_config(tmp_path)
        assert main(["study", "--config", str(cfg), "--study", study,
                     "--out", str(tmp_path / "x")]) == 0
        assert len(calls) == 1 and isinstance(calls[0][0], StudyConfig)
        if study.startswith("delta-"):
            assert calls[0][1] == study

    def test_zero_estimates_leave_the_slope_fit_empty(self, tmp_path):
        # q = 0 and no inflow: every dom error is 0, which no log-log fit takes
        cfg = write_config(
            tmp_path, boundary={"left": {"kind": "constant", "value": 0.0}},
            study={"n_list": [4, 8, 16]},
        )
        out = tmp_path / "x"
        assert main(["study", "--config", str(cfg), "--study", "dom", "--out", str(out)]) == 0
        summary = json.loads((out / "dom_summary.json").read_text())
        assert all(row["estimate"] == 0.0 for row in summary["rows"])
        assert summary["slope_fit"] is None
        assert "positive estimates" in summary["slope_fit_error"]
        assert (out / "manifest.json").exists()

    def test_bad_jobs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["study", "--config", str(cfg), "--study", "dom",
                   "--out", str(tmp_path / "x"), "--jobs", "0"])
        assert rc == 1


class TestSectionReaders:
    # /study is read only by validate and study, /quadrature only by
    # validate and solve
    BAD_STUDY = {"study": {"n_list": "x"}}
    BAD_QUADRATURE = {"quadrature": {"kind": "midpoint", "n": 7}}

    def test_solve_does_not_read_study(self, tmp_path):
        fluxes = []
        for name, overrides in (("good", {}), ("bad", self.BAD_STUDY)):
            (tmp_path / name).mkdir()
            cfg = write_config(tmp_path / name, **overrides)
            out = tmp_path / name / "phi.csv"
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
            fluxes.append(out.read_bytes())
        assert fluxes[0] == fluxes[1]

    def test_study_does_not_read_quadrature(self, tmp_path):
        cfg = write_config(tmp_path, **self.BAD_QUADRATURE)
        assert main(["study", "--config", str(cfg), "--study", "dom",
                     "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("overrides, path", [(BAD_STUDY, "/study/n_list"),
                                                  (BAD_QUADRATURE, "/quadrature/n")],
                             ids=["study", "quadrature"])
    def test_validate_reads_both(self, tmp_path, capsys, overrides, path):
        cfg = write_config(tmp_path, **overrides)
        assert main(["validate", "--config", str(cfg)]) == 1
        assert path in capsys.readouterr().err

    def test_null_quadrature_needed_only_by_solve(self, tmp_path, capsys):
        cfg = write_config(tmp_path, quadrature=None)
        assert main(["validate", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        assert "/quadrature: missing required field (needed by solve)" in capsys.readouterr().err


class TestRoundTrip:
    @staticmethod
    def assert_lossless(rows, text):
        # every number parses back with float() to the row's value; flags are
        # true/false and the wall time reads 0
        for row, line in zip(rows, text.splitlines()[1:], strict=True):
            for f, cell in zip(fields(row), line.split(","), strict=True):
                value = getattr(row, f.name)
                if f.name == "wall_time":
                    assert cell == "0"
                elif isinstance(value, bool):
                    assert cell == ("true" if value else "false")
                else:
                    assert float(cell) == value

    def test_error_table(self):
        rows = (
            ErrorRow(8, 1.2345678901234567e-3, 4.5e-5, 64, False, 3.25),
            ErrorRow(16, 9.87654321e-5, 1.1e-6, 128, True, 1.5),
        )
        table = ErrorTable(rows)
        text = table_to_csv(table)
        assert text.splitlines()[0] == "n,estimate,se,samples,flagged,wall_time_s"
        assert text.splitlines()[2] == "16,9.8765432099999994e-05,1.1000000000000001e-06,128,true,0"
        self.assert_lossless(rows, text)

    def test_regularization_table(self):
        rows = (
            RegularizationRow(0.2, 1.5e-2, 1.1e-2, 2.2e-2, True, 0.7),
            RegularizationRow(0.1, 6.5e-3, 4.9e-3, 9.8e-3, True, 0.8),
        )
        table = ErrorTable(rows)
        text = table_to_csv(table)
        assert text.splitlines()[0] == "delta,error,f_norm,bound,satisfied,wall_time_s"
        assert text.splitlines()[1] == "0.20000000000000001,0.014999999999999999,0.010999999999999999,0.021999999999999999,true,0"
        self.assert_lossless(rows, text)

    def test_flux_csv_lossless(self):
        values = np.array([0.1234567890123456789, 2.0 / 3.0, 1e-300])
        edges = np.array([0.0, 0.1, 0.525, 1.0])
        text = flux_to_csv(values, edges)
        parsed = np.array(
            [float(line.split(",")[3]) for line in text.strip().splitlines()[1:]]
        )
        np.testing.assert_array_equal(parsed, values)


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_study_kind(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["study", "--config", str(cfg), "--study", "nope",
                     "--out", str(tmp_path / "x")]) == 1

    def test_help_exits_cleanly(self):
        assert main(["--help"]) == 0
