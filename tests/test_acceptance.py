"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance and runtime cap is pinned here; the statistical
checks use fixed seeds so the whole suite is deterministic.
"""
import json
import time

import numpy as np

from romlab import (
    BoundarySpec,
    ConstantBoundary,
    LinearBoundary,
    QuadratureSet,
    SpatialGrid,
    bias_study,
    boundary_deviation_stats,
    build_partition,
    dom_error_study,
    dom_quadrature,
    fit_slope,
    gram_trace,
    iteration_deviation_stats,
    iteration_matrix,
    make_medium,
    reference_boundary_average,
    reference_iteration_matrix,
    regularization_study,
    rom_sample,
    single_run_error_study,
    solve,
    transport_matrix,
    weighted_operator_norm,
)
from romlab.experiments import ErrorRow, ErrorTable
from romlab.cli import main
from romlab.operators import DenseOperator
from conftest import random_medium, shipped_config

ZERO_BC = BoundarySpec(ConstantBoundary(0.0), ConstantBoundary(0.0))


def _report(name: str, passed: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert passed, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s exceeds {budget:.0f}s"


def _stats_medium(ncells=32):
    grid = SpatialGrid.uniform(0.0, 1.0, ncells)
    ones = np.ones(ncells)
    return make_medium(grid, ones, 0.5 * ones, 0.0 * ones)


def test_criterion_1_pure_absorber_oracle():
    start = time.perf_counter()
    worst = 0.0
    for sigma, q, ncells in ((1.0, 1.0, 1), (2.0, 0.5, 10), (0.7, 3.0, 37)):
        grid = SpatialGrid.uniform(0.0, 1.0, ncells)
        medium = make_medium(
            grid, np.full(ncells, sigma), np.zeros(ncells), np.full(ncells, q)
        )
        quad = dom_quadrature(build_partition(8, 0.05))
        phi, report = solve(medium, ZERO_BC, quad, tol=1e-14)
        assert report.converged
        # closed form: per ordinate the cell average over [a, a+h] is
        # (q/sigma) (1 - (|mu|/(sigma h)) e^{-sigma d/|mu|} (1 - e^{-sigma h/|mu|}))
        # with d the distance from the inflow face to the cell's upwind edge
        h = 1.0 / ncells
        edges = grid.edges
        exact = np.zeros(ncells)
        for w, mu in zip(quad.weights, quad.mus):
            d = edges[:-1] if mu > 0 else (1.0 - edges[1:])
            am = abs(mu)
            cell = (q / sigma) * (
                1.0
                - (am / (sigma * h))
                * np.exp(-sigma * d / am)
                * (1.0 - np.exp(-sigma * h / am))
            )
            exact += w * cell
        worst = max(worst, float(np.max(np.abs(phi.values - exact))))
    # the two-ordinate single-cell example from the module contracts
    grid = SpatialGrid.uniform(0.0, 1.0, 1)
    medium = make_medium(grid, [1.0], [0.0], [1.0])
    pair = QuadratureSet(np.array([-0.5, 0.5]), np.array([0.5, 0.5]), "pair")
    phi, _ = solve(medium, ZERO_BC, pair, tol=1e-14)
    worst = max(worst, abs(phi.values[0] - (1.0 - (1.0 - np.exp(-2.0)) / 2.0)))
    elapsed = time.perf_counter() - start
    _report(
        "criterion-1 pure-absorber analytic oracle",
        worst <= 1e-12,
        f"max deviation {worst:.2e} <= 1e-12",
        elapsed,
        1.0,
    )


def test_criterion_2_operator_norm_bounds():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    cap = 1.0 + 1e-10
    cases = 0
    worst_norm = 0.0
    for _ in range(100):  # single-direction operators
        medium = random_medium(rng)
        mu = rng.choice([-1, 1]) * rng.uniform(0.02, 1.0)
        worst_norm = max(worst_norm, weighted_operator_norm(transport_matrix(medium, mu)))
        cases += 1
    for _ in range(20):  # averaged operators, all quadrature families
        medium = random_medium(rng, ncells=14)
        n = int(rng.choice([4, 8, 16]))
        part = build_partition(n, rng.uniform(0.01, 0.2))
        for quad in (
            dom_quadrature(part, "midpoint"),
            dom_quadrature(part, "gauss"),
            rom_sample(part, int(rng.integers(0, 2**62)), 0),
        ):
            worst_norm = max(
                worst_norm, weighted_operator_norm(iteration_matrix(medium, quad))
            )
            cases += 1
    h = 1e-5
    lip_ok = True
    for _ in range(40):  # finite-difference Lipschitz estimate
        medium = random_medium(rng, ncells=10)
        mu = rng.choice([-1, 1]) * rng.uniform(0.1, 0.95)
        a = transport_matrix(medium, mu)
        b = transport_matrix(medium, mu + h)
        fd = weighted_operator_norm(DenseOperator(b.entries - a.entries, a.weight)) / h
        bound = (1.0 / abs(mu)) * (1.0 + np.max(medium.sigma_t / medium.sigma_r)) + 0.1
        lip_ok = lip_ok and fd <= bound
        cases += 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion-2 non-expansiveness and mu-Lipschitz bounds",
        worst_norm <= cap and lip_ok and cases >= 200,
        f"{cases} cases, max operator norm {worst_norm:.12f} <= 1+1e-10, "
        f"Lipschitz bound held: {lip_ok}",
        elapsed,
        60.0,
    )


def test_criterion_3_gram_trace():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    equal_ok = True
    bound_ok = True
    for _ in range(50):
        medium = random_medium(rng, ncells=14)
        mu = rng.choice([-1, 1]) * rng.uniform(0.02, 1.0)
        op = transport_matrix(medium, mu)
        adj = op.adjoint_entries()
        t_ast_a = np.trace(adj @ op.entries)
        t_a_ast = np.trace(op.entries @ adj)
        equal_ok = equal_ok and abs(t_ast_a - t_a_ast) <= 1e-10 * max(t_ast_a, 1.0)
        width = medium.grid.x_right - medium.grid.x_left
        bound = width / abs(mu) * np.max(medium.sigma_t) ** 2 * np.max(1 / medium.sigma_t)
        bound_ok = bound_ok and t_ast_a <= bound

    mu = 0.5
    analytic = (1.0 / (2 * mu)) * (1.0 - (mu / 2) * (1.0 - np.exp(-2.0 / mu)))
    m400 = _stats_medium(400)
    value400 = gram_trace(m400, mu)
    analytic_ok = abs(value400 - analytic) / analytic <= 0.01
    value800 = gram_trace(_stats_medium(800), mu)
    refine_ok = abs(value400 - value800) / value800 <= 0.02
    elapsed = time.perf_counter() - start
    _report(
        "criterion-3 gram trace identities and analytic value",
        equal_ok and bound_ok and analytic_ok and refine_ok,
        f"adjoint-order equality {equal_ok}, bound {bound_ok}, "
        f"M=400 value {value400:.6f} vs {analytic:.6f}, refinement {refine_ok}",
        elapsed,
        60.0,
    )


def test_criterion_4_operator_deviation_scaling():
    start = time.perf_counter()
    medium = _stats_medium(32)
    reference, _ = reference_iteration_matrix(medium, 0.05)
    rows = []
    for n in (8, 16, 32, 64):
        stats = iteration_deviation_stats(
            medium, build_partition(n, 0.05), reference, 77, 2000
        )
        rows.append(ErrorRow(n, stats.mean_sq_norm, stats.se_mean_sq, 2000, False, 0.0))
    fit = fit_slope(ErrorTable("delta-t", tuple(rows)))
    elapsed = time.perf_counter() - start
    _report(
        "criterion-4 mean-square operator deviation decays cubically",
        -3.4 <= fit.slope <= -2.6,
        f"slope {fit.slope:.3f} in [-3.4, -2.6], r^2 {fit.r_squared:.4f}, M=2000",
        elapsed,
        300.0,
    )


def test_criterion_5_boundary_deviation_scaling():
    start = time.perf_counter()
    medium = _stats_medium(32)
    boundary = BoundarySpec(LinearBoundary(1.0, 0.0), ConstantBoundary(0.0))
    reference, _ = reference_boundary_average(medium, boundary, 0.05, 256)
    rows = []
    mean_zero_ok = True
    for n in (8, 16, 32, 64):
        stats = boundary_deviation_stats(
            medium, boundary, build_partition(n, 0.05), reference, 77, 2000
        )
        rows.append(ErrorRow(n, stats.mean_sq_norm, stats.se_mean_sq, 2000, False, 0.0))
        if n == 16:
            scaled = np.abs(stats.entry_mean) / np.where(
                stats.entry_se > 0, stats.entry_se, 1.0
            )
            mean_zero_ok = float(np.max(scaled)) <= 4.0
    fit = fit_slope(ErrorTable("delta-b", tuple(rows)))
    elapsed = time.perf_counter() - start
    _report(
        "criterion-5 boundary quadrature deviation decays cubically and is mean-zero",
        (-3.4 <= fit.slope <= -2.6) and mean_zero_ok,
        f"slope {fit.slope:.3f} in [-3.4, -2.6], entrywise mean within 4 SE: {mean_zero_ok}",
        elapsed,
        120.0,
    )


def test_criterion_6_single_run_error_order():
    start = time.perf_counter()
    config = shipped_config("benchmark")
    table = single_run_error_study(config)
    fit = fit_slope(table)
    elapsed = time.perf_counter() - start
    _report(
        "criterion-6 single-run error decays at order 3/2",
        -1.8 <= fit.slope <= -1.25,
        f"slope {fit.slope:.3f} in [-1.8, -1.25], M={config.sample_count}, "
        f"n in {list(config.n_list)}",
        elapsed,
        300.0,
    )


def test_criterion_7_bias_order():
    start = time.perf_counter()
    config = shipped_config("bias")
    table = bias_study(config)
    unflagged = table.unflagged()
    enforcement_ok = all(r.se <= r.estimate / 5 for r in unflagged)
    cap_ok = table.rows[-1].samples <= 20000
    fit = fit_slope(table)
    elapsed = time.perf_counter() - start
    _report(
        "criterion-7 ensemble-mean bias decays at order 3",
        (-3.5 <= fit.slope <= -2.5)
        and len(unflagged) >= 3
        and enforcement_ok
        and cap_ok,
        f"slope {fit.slope:.3f} in [-3.5, -2.5] over {len(unflagged)} unflagged rows, "
        f"SE<=estimate/5 enforced: {enforcement_ok}, samples at n_max: {table.rows[-1].samples}",
        elapsed,
        600.0,
    )


def test_criterion_8_dom_midpoint_order():
    start = time.perf_counter()
    config = shipped_config("benchmark")
    table = dom_error_study(config)
    fit = fit_slope(table)
    elapsed = time.perf_counter() - start
    _report(
        "criterion-8 deterministic midpoint baseline decays at roughly order 3/2",
        -1.8 <= fit.slope <= -1.2,
        f"slope {fit.slope:.3f} in [-1.8, -1.2]",
        elapsed,
        60.0,
    )


def test_criterion_9_regularization_bound():
    start = time.perf_counter()
    table = regularization_study(shipped_config("benchmark"))
    all_ok = all(r.satisfied for r in table.rows)
    elapsed = time.perf_counter() - start
    detail = ", ".join(
        f"delta={r.delta}: err={r.error:.3e} bound={r.bound:.3e}" for r in table.rows
    )
    _report(
        "criterion-9 truncation error within the stability bound",
        all_ok,
        detail,
        elapsed,
        120.0,
    )


def test_criterion_10_byte_identical_output(tmp_path):
    start = time.perf_counter()
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
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
                "solver": {"tol": 1e-9, "max_iter": 50000},
                "study": {"n_list": [4, 8], "samples": 32, "ref_nodes": 64},
            }
        )
    )
    all_identical = True
    for study in ("single-run", "delta-b"):
        outputs = []
        for tag, jobs in (("j1", "1"), ("j8", "8"), ("j1b", "1")):
            out = tmp_path / f"{study}-{tag}"
            rc = main(
                ["study", "--config", str(config_path), "--study", study,
                 "--out", str(out), "--jobs", jobs]
            )
            assert rc == 0
            outputs.append((out / f"{study}.csv").read_bytes())
        all_identical = all_identical and outputs[0] == outputs[1] == outputs[2]
    elapsed = time.perf_counter() - start
    _report(
        "criterion-10 byte-identical study output across reruns and --jobs",
        all_identical,
        "single-run and delta-b CSVs identical at --jobs 1, --jobs 8, and rerun",
        elapsed,
        120.0,
    )
