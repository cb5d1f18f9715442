"""Seeded scenario sets for the benchmark workloads.

Each workload has a timed set of anthractl config files (the bundled
scenarios that belong to it, then variants drawn from ``--seed``), and
``pde_sweep`` also has one seeded sweep draw that every run executes and
checks after the timed loop.  The same seed always gives the same files,
byte for byte.

Continuous parameters come from a jittered Latin hypercube over the ranges
below.  Each range is cut into n equal slices and each of the n draws of a
set gets one slice of every range; which slices go together is a fixed
design, the same for every seed, and the seed places each draw inside its
slices.  Every seed thus covers the whole of every range with draws of
nearly the same cost, so the timed set costs about the same from seed to
seed while its inputs still change with the seed.

Only ``dt`` values that divide ``T`` are used (the bundled ones): a
non-integer ``T/dt`` is a config-validation defect that is out of scope here.
"""

from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("ode_shooting", "pde_sweep", "simulate_forecast", "batch_parallel")

BUNDLED = {
    "ode_shooting": ("fig1", "fig3"),
    "pde_sweep": ("sweep-1d", "riccati-scalar"),
    "simulate_forecast": ("fig2", "fig4", "forecast-demo", "pde-1d-demo"),
    "batch_parallel": ("fig1", "forecast-demo", "pde-1d-demo"),
}

# Seeded variants in the timed set of each workload.
N_VARIANTS = {"ode_shooting": 8, "pde_sweep": 8, "simulate_forecast": 12}

# The seeded part of the batch slice: how many configs it takes from the
# front of each other workload's timed variants.
BATCH_SLICE = {"ode_shooting": 2, "simulate_forecast": 4}

_SEASONAL = {"a": (2.0, 6.0), "b": (0.5, 0.9), "c": (0.15, 0.4)}

_DESIGN_SEED = 1307  # fixes which slices of the ranges go together


def _lhs(rng, n: int, ranges: dict) -> list:
    """n draws, one per equal slice of every range: the slices of each draw
    follow a fixed design, the place inside each slice comes from rng."""
    design = np.random.default_rng([_DESIGN_SEED, n])
    cols = {}
    for key, (lo, hi) in ranges.items():
        u = (design.permutation(n) + rng.random(n)) / n
        cols[key] = lo + (hi - lo) * u
    return [{k: round(float(v[i]), 6) for k, v in cols.items()} for i in range(n)]


def _seasonal(d: dict) -> dict:
    return {"kind": "seasonal", "a": d["a"], "b": d["b"], "c": d["c"]}


def _ode_variants(rng, n: int) -> list:
    draws = _lhs(rng, n, {"theta1": (0.3, 0.8), **_SEASONAL,
                          "theta0": (0.1, 0.6), "k": (0.5, 2.0)})
    return [{
        "name": f"ode-{i:02d}",
        "mode": "optimize-ode",
        "host": {"theta1": d["theta1"], "theta2": 1.0, "v_max": 1.0,
                 "alpha": _seasonal(d)},
        "initial": {"theta": d["theta0"], "v": 0.5, "v_r": 0.0},
        "cost": {"k": d["k"]},
        "time": {"T": 1.0, "dt": 0.001},
        "shooting": {"tol": 1e-8, "max_iter": 100},
    } for i, d in enumerate(draws)]


def _riccati_variants(rng, n: int) -> list:
    draws = _lhs(rng, n, {"cells": (1, 65), "diffusion": (0.005, 0.05),
                          "alpha": (0.5, 1.5), "k1": (0.25, 1.0), "k2": (0.25, 1.0)})
    return [{
        "name": f"riccati-{i:02d}",
        "mode": "riccati-pde",
        "grid": {"extents": [1.0], "resolution": [int(d["cells"])],
                 "diffusion": d["diffusion"]},
        "theta1": 0.5,
        "alpha": {"kind": "constant", "value": d["alpha"]},
        "initial": {"theta": 0.3},
        "linearization": {"epsilon": 4.0},
        "cost": {"k1": d["k1"], "k2": d["k2"]},
        "time": {"T": 1.0, "dt": 0.005},
    } for i, d in enumerate(draws)]


def sweep_variant(seed: int) -> dict:
    """The seeded sweep draw of pde_sweep: 1-D with 16 to 64 cells, or with
    probability 1/3 a 2-D grid from 16x16 to 40x40."""
    rng = np.random.default_rng([seed, len(WORKLOADS)])
    if rng.random() < 1.0 / 3.0:
        resolution = [int(rng.integers(16, 41))] * 2
    else:
        resolution = [int(rng.integers(16, 65))]
    d = {k: round(float(rng.uniform(lo, hi)), 6) for k, (lo, hi) in
         (("diffusion", (0.005, 0.05)), ("scale", (1.0, 4.0)),
          ("k1", (0.5, 2.0)), ("k2", (0.0, 0.5)))}
    return {
        "name": "sweep-draw",
        "mode": "sweep-pde",
        "grid": {"extents": [1.0] * len(resolution), "resolution": resolution,
                 "diffusion": d["diffusion"]},
        "theta1": 0.6,
        "alpha": {"kind": "burst-profile", "a": 4.0, "b": 0.75, "c": 0.2,
                  "scale": d["scale"]},
        "initial": {"theta": 0.2},
        "cost": {"k1": d["k1"], "k2": d["k2"]},
        "time": {"T": 1.0, "dt": 0.01},
        "sweep": {"relax": 0.5, "max_iter": 100},
    }


_SEVERITY = {
    "asi": {"coefficients": {"a0": 0.1, "a01": 0.05, "a10": 0.01}},
    "dodd": {"coefficients": {"a0": -24.0, "a01": 0.35, "a10": 0.066,
                              "a02": -0.0012, "a20": -0.0005, "b": 1.21},
             "incubation": 6.0},
    "duthie": {"coefficients": {"a": 2.0, "b": 0.8, "c": 0.5, "d": 1.5, "e": 1.2,
                                "t_mid": 20.0, "g": 0.3, "h": 2.0,
                                "form": "form1"}},
}

# One round of the simulate_forecast variants.  asi forecasts are the middle
# of the per-scenario cost range, and the round holds as many scenarios
# below them as above, so scenario_s_p50 lands inside a tight group instead
# of on the gap between two.
_FORECAST_ROUND = ("asi", "duthie", "ode", "asi", "dodd", "pde")


def _weather_csv(rng, rows: int = 17) -> str:
    t = np.linspace(0.0, 1.0, rows)
    temp = rng.uniform(15.0, 30.0, rows)
    wet = rng.uniform(2.0, 24.0, rows)
    hum = rng.uniform(60.0, 100.0, rows)
    lines = ["t,T,W,H"] + [f"{a:.6g},{b:.4f},{c:.4f},{d:.4f}"
                           for a, b, c, d in zip(t, temp, wet, hum)]
    return "\n".join(lines) + "\n"


def _forecast_variants(rng, n: int) -> list:
    """Forecasts fed by seeded weather CSVs, simulate-ode with constant u, and
    simulate-pde with store_every 1, alternately on a 1-D grid and on the
    32x32 grid whose 8 MB snapshot CSV makes the run write-bound.  The 2-D
    size is fixed so that every seed writes the same volume."""
    draws = _lhs(rng, n, {"theta1": (0.3, 0.8), **_SEASONAL, "theta0": (0.1, 0.6),
                          "u": (0.0, 0.5), "scale": (1.0, 4.0), "sev_scale": (1.0, 3.0),
                          "cells": (16, 65), "diffusion": (0.005, 0.05)})
    out = []
    n_pde = 0
    for i, d in enumerate(draws):
        kind = _FORECAST_ROUND[i % len(_FORECAST_ROUND)]
        name = f"{kind}-{i:02d}"
        initial = {"theta": d["theta0"], "v": 0.5, "v_r": 0.0}
        if kind in _SEVERITY:
            sev = {"model": kind, "scale": d["sev_scale"], **_SEVERITY[kind]}
            cfg = {"name": name, "mode": "forecast", "weather": f"{name}.csv",
                   "severity": sev, "host": {"theta1": d["theta1"]},
                   "initial": initial, "control": {"u": d["u"]}, "cost": {"k": 1.0},
                   "time": {"T": 1.0, "dt": 0.001}, "_weather": _weather_csv(rng)}
        elif kind == "ode":
            cfg = {"name": name, "mode": "simulate-ode",
                   "host": {"theta1": d["theta1"], "alpha": _seasonal(d)},
                   "initial": initial, "control": {"u": d["u"]}, "cost": {"k": 1.0},
                   "time": {"T": 1.0, "dt": 0.001}}
        else:
            res = [32, 32] if n_pde % 2 else [int(d["cells"])]
            n_pde += 1
            cfg = {"name": name, "mode": "simulate-pde",
                   "grid": {"extents": [1.0] * len(res), "resolution": res,
                            "diffusion": d["diffusion"]},
                   "theta1": d["theta1"],
                   "alpha": {"kind": "burst-profile", "a": 4.0, "b": 0.75, "c": 0.2,
                             "scale": d["scale"]},
                   "initial": {"theta": d["theta0"]}, "control": {"u": d["u"]},
                   "cost": {"k1": 1.0, "k2": 0.0},
                   "time": {"T": 2.0, "dt": 0.01}, "store_every": 1}
        out.append(cfg)
    return out


_GENERATORS = {"ode_shooting": _ode_variants, "pde_sweep": _riccati_variants,
               "simulate_forecast": _forecast_variants}


def variants(workload: str, seed: int) -> list:
    """The seeded config dicts of one workload's timed set."""
    if workload == "batch_parallel":
        out = []
        for other, count in BATCH_SLICE.items():
            out += variants(other, seed)[:count]
        return out
    # one independent stream per workload, so sets do not shift together
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _GENERATORS[workload](rng, N_VARIANTS[workload])


def _write(cfg: dict, seed: int, directory: str) -> str:
    cfg = dict(cfg, seed=seed)
    weather = cfg.pop("_weather", None)
    if weather is not None:
        with open(os.path.join(directory, cfg["weather"]), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(weather)
    path = os.path.join(directory, cfg["name"] + ".json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def write_configs(workload: str, seed: int, directory: str, bundled: dict):
    """Write the workload's configs into directory.

    Returns (timed, extra): config paths of the timed set in run order,
    bundled first, and of the draws run once after the timed loop.
    bundled maps scenario name -> config path.
    """
    os.makedirs(directory, exist_ok=True)
    timed = [bundled[name] for name in BUNDLED[workload]]
    timed += [_write(cfg, seed, directory) for cfg in variants(workload, seed)]
    extra = [_write(sweep_variant(seed), seed, directory)] \
        if workload == "pde_sweep" else []
    return timed, extra
