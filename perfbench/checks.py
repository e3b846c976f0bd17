"""Output checks for the benchmark's study tables.

A table passes when it meets its study's acceptance window and agrees with
the reference table stored for its workload.  Agreement does not assume a
particular estimator: a random row (se > 0) must lie within four combined
standard errors of the reference row, and only deterministic rows (se = 0,
and every regularization row) must match to a tight relative tolerance.
"""
from __future__ import annotations

import math

import numpy as np

ERROR_HEADER = ("n", "estimate", "se", "samples", "flagged", "wall_time_s")
REGULARIZATION_HEADER = ("delta", "error", "f_norm", "bound", "satisfied", "wall_time_s")

# Log-log slope windows of the acceptance criteria, inclusive.
SLOPE_WINDOWS = {"single-run": (-1.8, -1.25), "dom": (-1.8, -1.2)}
BIAS_SE_FRACTION = 0.2
AGREEMENT_SIGMAS = 4.0
# Deterministic values may move by roundoff and by the solver tolerance.
DETERMINISTIC_RTOL = 1e-6
DETERMINISTIC_ATOL = 1e-9


def parse_table(study: str, text: str) -> list[dict]:
    """Rows of a study CSV as dicts of floats (flags as bools)."""
    header = REGULARIZATION_HEADER if study == "regularization" else ERROR_HEADER
    lines = text.strip().splitlines()
    if not lines or tuple(lines[0].split(",")) != header:
        raise ValueError(f"{study} table does not start with the header {','.join(header)}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} fields: {line!r}")
        row = {}
        for key, cell in zip(header, cells):
            if key in ("flagged", "satisfied"):
                if cell not in ("true", "false"):
                    raise ValueError(f"bad {key} value {cell!r}")
                row[key] = cell == "true"
            else:
                row[key] = float(cell)
        rows.append(row)
    return rows


def loglog_slope(rows: list[dict]) -> float:
    """Least-squares slope of log(estimate) on log(n) over unflagged rows."""
    used = [r for r in rows if not r["flagged"]]
    if len(used) < 3 or any(r["estimate"] <= 0 for r in used):
        return math.nan
    x = np.log([r["n"] for r in used])
    y = np.log([r["estimate"] for r in used])
    return float(np.polyfit(x, y, 1)[0])


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= DETERMINISTIC_RTOL * abs(ref) + DETERMINISTIC_ATOL


def _agreement(study: str, rows: list[dict], ref_rows: list[dict]) -> list[str]:
    key = "delta" if study == "regularization" else "n"
    if [r[key] for r in rows] != [r[key] for r in ref_rows]:
        return [f"{study}: rows {[r[key] for r in rows]} differ from the reference"]
    problems = []
    for row, ref in zip(rows, ref_rows):
        where = f"{study} {key}={row[key]:g}"
        if study == "regularization":
            for col in ("error", "f_norm", "bound"):
                if not _close(row[col], ref[col]):
                    problems.append(f"{where}: {col} {row[col]!r} != reference {ref[col]!r}")
        elif row["se"] == 0 and ref["se"] == 0:
            if not _close(row["estimate"], ref["estimate"]):
                problems.append(
                    f"{where}: estimate {row['estimate']!r} != reference {ref['estimate']!r}"
                )
        else:
            limit = AGREEMENT_SIGMAS * math.hypot(row["se"], ref["se"])
            if not abs(row["estimate"] - ref["estimate"]) <= limit:
                problems.append(
                    f"{where}: estimate {row['estimate']:.6g} is more than "
                    f"{AGREEMENT_SIGMAS:g} combined SE from reference {ref['estimate']:.6g}"
                )
    return problems


def _window(study: str, rows: list[dict], bias_cap) -> list[str]:
    problems = []
    if study in SLOPE_WINDOWS:
        lo, hi = SLOPE_WINDOWS[study]
        slope = loglog_slope(rows)
        if not lo <= slope <= hi:
            problems.append(f"{study}: slope {slope:.4g} outside [{lo}, {hi}]")
    elif study == "regularization":
        for r in rows:
            if not r["satisfied"]:
                problems.append(f"regularization delta={r['delta']:g}: bound not satisfied")
    elif study == "bias":
        for r in rows:
            n = int(r["n"])
            if r["samples"] > bias_cap(n):
                problems.append(f"bias n={n}: {r['samples']:g} samples above cap {bias_cap(n)}")
            if not r["flagged"] and not r["se"] <= BIAS_SE_FRACTION * r["estimate"]:
                problems.append(f"bias n={n}: unflagged but se > estimate/5")
    return problems


def check_table(study: str, text: str, reference_text: str, bias_cap=None) -> list[str]:
    """Problems found in one study CSV; an empty list means it passes."""
    try:
        rows = parse_table(study, text)
    except ValueError as exc:
        return [f"{study}: unreadable table: {exc}"]
    return _window(study, rows, bias_cap) + _agreement(
        study, rows, parse_table(study, reference_text)
    )
