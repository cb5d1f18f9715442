"""Correctness checks on one scenario's outputs.

A scenario fails when it raises, when it misses its stated accuracy, when
its outputs break an invariant the acceptance gates assert, when a bundled
scenario's cost triple moves from the reference recorded in
``reference.json``, or when a rerun of it writes different bytes.

The first two are failures the program itself reports (an exception or
``converged: false``).  The others mean the program claimed success and
wrote wrong output; those make the run's ``correct`` flag false.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

REFERENCE_REL_TOL = 1e-6
REGION_TOL = 1e-9   # bounded-region tolerance of the acceptance gates
COST_SLACK = 1e-9   # the slack cli applies to controlled_is_best

# Series of the nonlinear models whose theta must stay in [0, 1]; the
# Riccati mode integrates the linearized model, which has no such bound.
THETA_SERIES = {
    "simulate-ode": ("ode_series.csv", "theta"),
    "optimize-ode": ("ode_series.csv", "theta"),
    "forecast": ("ode_series.csv", "theta"),
    "simulate-pde": ("pde_snapshots.csv", "theta"),
    "sweep-pde": ("theta_path.csv", "value"),
}


def hash_outputs(out_dir: str) -> tuple:
    """({file: sha256}, total bytes) of every file in out_dir."""
    hashes, size = {}, 0
    for fn in sorted(os.listdir(out_dir)):
        digest = hashlib.sha256()
        with open(os.path.join(out_dir, fn), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
                size += len(block)
        hashes[fn] = digest.hexdigest()
    return hashes, size


def _column_range(path: str, name: str) -> tuple:
    """(min, max) of one CSV column, read line by line: the benchmark's own
    memory must not show in the peak RSS it reports for the program."""
    lo, hi = math.inf, -math.inf
    with open(path, "r", encoding="utf-8") as fh:
        col = fh.readline().strip().split(",").index(name)
        for line in fh:
            v = float(line.split(",")[col])
            lo, hi = min(lo, v), max(hi, v)
    return lo, hi


def accuracy_failures(data: dict, report: dict) -> list:
    """Reasons the run missed the accuracy its config states."""
    diag = report.get("diagnostics", {})
    if report["mode"] == "optimize-ode":
        tol = float(data.get("shooting", {}).get("tol", 1e-8))
        if not diag.get("shooting_residual", math.inf) < tol:
            return [f"shooting residual {diag.get('shooting_residual')} >= tol {tol:g}"]
    if report["mode"] == "sweep-pde" and diag.get("converged") is not True:
        return [f"sweep stopped on max_iter after {diag.get('iterations')} "
                f"iterations without converging"]
    return []


def output_errors(out_dir: str, report: dict, reference: dict) -> list:
    """Reasons the written outputs are wrong."""
    errors = []
    mode = report["mode"]
    costs = report["costs"]
    if mode in ("optimize-ode", "sweep-pde"):
        best_constant = min(costs["u_zero"], costs["u_one"])
        if costs["controlled"] > best_constant + COST_SLACK:
            errors.append(f"controlled cost {costs['controlled']:.12g} above the "
                          f"best constant baseline {best_constant:.12g}")
    if mode in THETA_SERIES:
        fn, col = THETA_SERIES[mode]
        lo, hi = _column_range(os.path.join(out_dir, fn), col)
        if lo < -REGION_TOL or hi > 1.0 + REGION_TOL:
            errors.append(f"{fn}: theta spans [{lo:.3g}, {hi:.3g}], outside [0, 1]")
    ref = reference.get(report["name"])
    if ref is not None:
        for key in ("controlled", "u_zero", "u_one"):
            if abs(costs[key] - ref[key]) > REFERENCE_REL_TOL * abs(ref[key]):
                errors.append(f"cost {key} = {costs[key]:.12g}, reference {ref[key]:.12g}")
    return errors


def load_report(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "report.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)
