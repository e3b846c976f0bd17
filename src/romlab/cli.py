"""Command-line front end: validate configs, run solves, run studies.

It does I/O only: it loads the config, with ``--seed`` replacing its seed
once (config_hash still hashes the file), makes one solve or
experiments.STUDIES call, and writes the outputs; experiments.study_summary
decides what a study's summary says.

Commands
--------
``romlab validate --config c.json``
    Checks the config and prints derived values, then one ``cannot run KIND``
    line per study-kind rule it breaks (experiments.unmet_rules); exit 0.
``romlab solve --config c.json --out phi.csv [--seed S]``
    One solve; writes the flux CSV, a report JSON, and a manifest.
``romlab study --config c.json --study KIND --out DIR [--seed S] [--jobs K] [--force]``
    KIND is a key of experiments.STUDIES: single-run, bias, dom, delta-t,
    delta-b or regularization.  Its rules (experiments.check_kind) are
    checked before DIR is made.
    Writes the result table CSV, a summary JSON with the rows, their slope
    fit (or regularization's all_satisfied) and timings, and a manifest.

Exit codes: 0 success, 1 usage/config error, 2 uncertified computation
(a solve whose error bound exceeds its tolerance, or a reference that
failed to certify).

Result CSVs are byte-identical for identical config and seed at any
``--jobs`` level; to keep that guarantee the wall_time_s column is
serialized as 0 and measured timings are reported in the summary JSON.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .config import LoadedConfig, build_quadrature, config_hash, load_config, study_config
from .errors import NoConvergence, ReferenceNotConverged, RomlabError
from .experiments import STUDIES, ErrorTable, check_kind, study_summary, unmet_rules
from .solver import solve


def _fmt(x: float) -> str:
    return f"{x:.17g}"


_CELL_FORMATS = {int: str, float: _fmt, bool: lambda flag: "true" if flag else "false"}


def table_to_csv(table: ErrorTable) -> str:
    """Serialize a study table, one column per field of its row type; deterministic.

    The wall_time field goes to a wall_time_s column that always reads 0.
    """
    row_type = type(table.rows[0])  # no study returns an empty table
    hints = get_type_hints(row_type)
    columns = [(f.name, hints[f.name]) for f in fields(row_type)]
    lines = [",".join(name + "_s" if name == "wall_time" else name for name, _ in columns)]
    for r in table.rows:
        lines.append(",".join(
            "0" if name == "wall_time" else _CELL_FORMATS[kind](getattr(r, name))
            for name, kind in columns
        ))
    return "\n".join(lines) + "\n"


def flux_to_csv(values: np.ndarray, edges: np.ndarray) -> str:
    lines = ["cell,x_left,x_right,phi"]
    for i, v in enumerate(values):
        lines.append(f"{i},{_fmt(edges[i])},{_fmt(edges[i + 1])},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(path: Path, cfg: LoadedConfig, command: str, started: str,
                    outputs: list) -> None:
    """Reproducibility record written next to every command's outputs."""
    manifest = {"config_hash": config_hash(cfg), "master_seed": cfg.seed, "version": __version__,
                "command": command, "started": started, "finished": _utcnow(), "outputs": outputs}
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    if cfg.merged.get("quadrature") is not None:
        build_quadrature(cfg)
    sc = study_config(cfg)
    print(f"config ok: {args.config}")
    print(f"lambda = {cfg.medium.lam:.6g}")
    print(f"spatial_cells = {cfg.medium.ncells}")
    print(f"delta = {cfg.delta:.6g}")
    print(f"n_list = {list(sc.n_list)}")
    print(f"solver_tol (study) = {sc.solver_tol:.6g}")
    print(f"config_hash = {config_hash(cfg)}")
    for kind in STUDIES:
        for error in unmet_rules(sc, kind):
            print(f"cannot run {kind}: {error}")
    return 0


def _load(args) -> LoadedConfig:
    """The config at --config, its seed replaced by --seed if one is given."""
    cfg = load_config(args.config)
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _cmd_solve(args) -> int:
    started = _utcnow()
    cfg = _load(args)
    quad = build_quadrature(cfg)
    out = Path(args.out)
    if not out.parent.is_dir():  # checked before the solve, which a failed write would waste
        problem = "is not a directory" if out.parent.exists() else "does not exist"
        return _fail(f"output directory {out.parent} {problem}")
    if out.is_dir():
        return _fail(f"{out} is a directory")
    phi, report = solve(cfg.medium, cfg.boundary, quad, cfg.solver_tol)
    out.write_text(flux_to_csv(phi, cfg.medium.grid.edges))
    report_path = out.with_suffix(".report.json")
    record = {**asdict(report), "lambda": cfg.medium.lam, "quadrature": quad.provenance, "ordinates": quad.n}
    report_path.write_text(json.dumps(record, indent=2) + "\n")
    _write_manifest(
        out.with_suffix(".manifest.json"), cfg, f"solve --config {args.config} --out {args.out}",
        started, [out.name, report_path.name],
    )
    if not report.converged:
        print(
            f"warning: error bound {report.error_bound:.3g} exceeds tol {cfg.solver_tol:.3g}; "
            "partial result written",
            file=sys.stderr,
        )
        return 2
    print(f"wrote {out} ({cfg.medium.ncells} cells, error bound {report.error_bound:.3g})")
    return 0


def _cmd_study(args) -> int:
    started = _utcnow()
    cfg = _load(args)
    sc = study_config(cfg)
    check_kind(sc, args.study)  # before mkdir: an unmet rule leaves no directory behind
    out_dir = Path(args.out)
    if out_dir.exists():
        if not out_dir.is_dir():
            return _fail(f"{out_dir} exists and is not a directory")
        if any(out_dir.iterdir()) and not args.force:
            return _fail(f"{out_dir} is not empty; pass --force to write anyway")
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    table = STUDIES[args.study].run(sc, args.jobs)
    elapsed = time.perf_counter() - t0

    csv_path = out_dir / f"{args.study}.csv"
    summary_path = out_dir / f"{args.study}_summary.json"
    csv_path.write_text(table_to_csv(table))
    summary = {"study": args.study, "config_hash": config_hash(cfg), "master_seed": cfg.seed,
               "elapsed_s": elapsed, **study_summary(args.study, table)}
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    _write_manifest(
        out_dir / "manifest.json", cfg,
        f"study --config {args.config} --study {args.study} --out {args.out}",
        started, [csv_path.name, summary_path.name],
    )
    print(f"wrote {csv_path} and {summary_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="romlab",
        description="Slab-geometry transport solves and ordinate-convergence studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a config without solving")
    p_validate.add_argument("--config", required=True)

    p_solve = sub.add_parser("solve", help="run one solve and write the flux")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True, help="output CSV path")
    p_solve.add_argument("--seed", type=int, default=None, help="override config seed")

    p_study = sub.add_parser("study", help="run a convergence study")
    p_study.add_argument("--config", required=True)
    p_study.add_argument("--study", required=True, choices=STUDIES)
    p_study.add_argument("--out", required=True, help="output directory")
    p_study.add_argument("--seed", type=int, default=None, help="override config seed")
    p_study.add_argument("--jobs", type=int, default=1, help="sample-level parallelism")
    p_study.add_argument("--force", action="store_true", help="write into a non-empty directory")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "jobs", 1) < 1:
        return _fail("--jobs must be at least 1")
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_study(args)
    except (NoConvergence, ReferenceNotConverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RomlabError as exc:
        return _fail(str(exc))


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
