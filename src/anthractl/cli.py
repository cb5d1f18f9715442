"""Batch command-line front-end.

Subcommands:
    run <config-or-name> [--out DIR] [--seed N]   execute one scenario
    batch <config...> [--out DIR] [--jobs N]      run scenarios in parallel
    validate <config-or-name>                     parse + validate only
    list-scenarios                                show bundled scenarios

Configs are JSON files; bundled scenario names (see list-scenarios) are
accepted wherever a path is.  Outputs are written to
<out>/<scenario-name>/: CSV series (12 significant digits) plus a
report.json carrying the scenario echo, the cost-comparison triple
(controlled, u=0, u=1), convergence diagnostics, and the file manifest.

Output directory precedence: --out flag, then the config's "out_dir",
then $ANTHRACTL_OUT_DIR, then ./anthractl-out.

Exit codes: 0 success, 2 invalid config, 3 numerical failure, 4 I/O error.
batch exits with the worst code of its scenarios (4 > 3 > 2).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .grid import DiffusionField, GridSpec, ScalarField, SpatialGrid, build_grid
from .host import (
    ConstantForcing,
    ControlSignal,
    DivisionGuardError,
    HostState,
    ModelParams,
    ProportionalForcing,
    SeasonalForcing,
    integrate_ode,
    time_grid,
)
from .ode_control import (
    BangRegimeError,
    CostSpec,
    ShootingError,
    eval_cost_JT,
    shoot_p0,
)
from .pde import (
    EigenConvergenceError,
    FieldPath,
    SolverBreakdownError,
    assemble_operator,
    integrate_pde,
)
from .pde_control import (
    _RICCATI_MAX_CELLS,
    LinearizationPoint,
    PdeCostSpec,
    RiccatiBlowupError,
    _closed_loop_lanes,
    eval_cost_JT3,
    forward_backward_sweep,
    integrate_controlled,
    integrate_riccati,
    linearize,
)
from .severity import (
    AsiCoefficients,
    DoddCoefficients,
    DuthieCoefficients,
    SeverityForcing,
    WeatherSeries,
)

__all__ = ["ConfigError", "NonFiniteResultError", "ScenarioConfig", "RunReport",
           "parse_config", "execute", "main"]

_MODES = ("simulate-ode", "optimize-ode", "simulate-pde", "riccati-pde",
          "sweep-pde", "forecast")

_NUMERICAL_ERRORS = (ShootingError, BangRegimeError, RiccatiBlowupError,
                     SolverBreakdownError, EigenConvergenceError,
                     DivisionGuardError, ArithmeticError, np.linalg.LinAlgError)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4
_EXIT_LABELS = {EXIT_CONFIG: "config error", EXIT_NUMERICAL: "numerical failure",
                EXIT_IO: "i/o error"}


class ConfigError(ValueError):
    """Scenario config failed validation; message names the offending key."""


class NonFiniteResultError(ArithmeticError):
    """A run produced a non-finite trajectory value or cost."""


# --------------------------------------------------------------------------
# config parsing
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OdePlan:
    """The built inputs of a simulate-ode, optimize-ode or forecast run."""

    params: ModelParams
    x0: HostState
    cost: CostSpec
    T: float
    h: float                                # step of the run's time grid
    times: np.ndarray = field(repr=False)   # time_grid(0, T, dt)
    u: float | None = None                  # constant control; None to optimize
    shooting: tuple | None = None           # (tol, max_iter) of optimize-ode
    forcing: SeverityForcing | None = None  # the forecast's alpha


@dataclass(frozen=True)
class PdePlan:
    """The built inputs of a simulate-pde, riccati-pde or sweep-pde run."""

    grid: SpatialGrid
    A: DiffusionField
    alpha: np.ndarray = field(repr=False)
    theta1: float
    theta0: ScalarField = field(repr=False)
    cost: PdeCostSpec
    T: float
    h: float                                # step of the run's time grid
    times: np.ndarray = field(repr=False)   # time_grid(0, T, dt)
    u: float = 0.0                          # simulate-pde constant control
    store_every: int = 1                    # simulate-pde
    eps: LinearizationPoint | None = None   # riccati-pde
    sweep: tuple = (0.5, 100)               # sweep-pde (relax, max_iter)


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: name, mode, seed, raw data, its base dir (used to
    resolve relative file references such as weather CSVs), and the plan
    that a run executes, built once from the data by parse_config."""

    name: str
    mode: str
    seed: int
    data: dict = field(repr=False)
    base_dir: str = "."
    plan: OdePlan | PdePlan | None = field(default=None, repr=False)

    def out_dir_hint(self):
        return self.data.get("out_dir")


@dataclass(frozen=True)
class RunReport:
    """Outcome of one scenario run: cost triple, diagnostics, and the
    list of files written (paths relative to the scenario directory)."""

    name: str
    mode: str
    seed: int
    costs: dict
    diagnostics: dict
    outputs: tuple
    out_dir: str


def _scenario_dir():
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "scenarios")


def bundled_scenarios() -> dict:
    """Map of bundled scenario name -> config path."""
    found = {}
    sdir = _scenario_dir()
    if os.path.isdir(sdir):
        for fn in sorted(os.listdir(sdir)):
            if fn.endswith(".json"):
                found[fn[:-5]] = os.path.join(sdir, fn)
    return found


def resolve_config_path(ref: str) -> str:
    """Interpret ref as a file path, else as a bundled scenario name."""
    if os.path.exists(ref):
        return ref
    bundled = bundled_scenarios()
    if ref in bundled:
        return bundled[ref]
    raise FileNotFoundError(f"no config file or bundled scenario named {ref!r} "
                            f"(bundled: {', '.join(sorted(bundled)) or 'none'})")


def _require_object(data, where: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got {data!r}")


def _need(data: dict, key: str, where: str):
    _require_object(data, where)
    if key not in data:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return data[key]


def _num(data: dict, key: str, where: str, default=None, minimum=None,
         maximum=None, strict_min=False):
    _require_object(data, where)
    if key not in data:
        if default is None:
            raise ConfigError(f"{where}: missing required numeric key {key!r}")
        return float(default)
    try:
        v = float(data[key])
    except (TypeError, ValueError):
        raise ConfigError(f"{where}.{key}: expected a number, got {data[key]!r}") from None
    if not np.isfinite(v):
        raise ConfigError(f"{where}.{key}: must be finite")
    if minimum is not None and (v <= minimum if strict_min else v < minimum):
        op = ">" if strict_min else ">="
        raise ConfigError(f"{where}.{key}: must be {op} {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{where}.{key}: must be <= {maximum}, got {v}")
    return v


def _int(data: dict, key: str, where: str, default: int, minimum=None) -> int:
    _require_object(data, where)
    if key not in data:
        return default
    raw = data[key]
    try:
        v = int(raw)
    except (TypeError, ValueError, OverflowError):
        v = None
    if v is None or (isinstance(raw, float) and v != raw):
        raise ConfigError(f"{where}.{key}: expected an integer, got {raw!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}.{key}: must be >= {minimum}, got {v}")
    return v


def parse_config(path: str) -> ScenarioConfig:
    """Load a scenario config file and build its plan; every check that a
    run depends on happens here, so a config that parses can be run."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    mode = _need(data, "mode", path)
    if mode not in _MODES:
        raise ConfigError(f"{path}.mode: must be one of {', '.join(_MODES)}; got {mode!r}")
    name = str(data.get("name") or os.path.splitext(os.path.basename(path))[0])
    if name in (".", "..") or any(sep and sep in name for sep in ("/", os.sep, os.altsep)):
        # <out>/<name>/ must stay one directory inside the output root
        raise ConfigError(f"{path}.name: must be one plain path component, got {name!r}")
    seed = _int(data, "seed", path, default=0)
    cfg = ScenarioConfig(name=name, mode=mode, seed=seed, data=data,
                         base_dir=os.path.dirname(os.path.abspath(path)) or ".")
    build = _pde_plan if mode.endswith("-pde") else _ode_plan
    return replace(cfg, plan=build(cfg))


# --- plan builders ---------------------------------------------------------

def _build_host_forcing(spec, where: str, default=None):
    if spec is None:
        if default is None:
            raise ConfigError(f"{where}: missing forcing spec")
        spec = default
    if isinstance(spec, (int, float)):
        spec = {"kind": "constant", "value": spec}
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: expected a number or an object with 'kind'")
    kind = _need(spec, "kind", where)
    try:
        if kind == "constant":
            return ConstantForcing(_num(spec, "value", where, minimum=0.0))
        if kind == "seasonal":
            return SeasonalForcing(
                a=_num(spec, "a", where, minimum=0.0),
                b=_num(spec, "b", where, minimum=0.0, maximum=1.0),
                c=_num(spec, "c", where, minimum=0.0, strict_min=True, maximum=1.0),
            )
        if kind == "proportional":
            return ProportionalForcing(_num(spec, "coeff", where, minimum=0.0))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}.kind: unknown forcing kind {kind!r}")


def _build_host_params(cfg: ScenarioConfig, alpha_override=None) -> ModelParams:
    host = _need(cfg.data, "host", cfg.name)
    where = f"{cfg.name}.host"
    _require_object(host, where)
    theta2 = _num(host, "theta2", where, default=1.0, minimum=0.0, strict_min=True, maximum=1.0)
    alpha = alpha_override if alpha_override is not None else \
        _build_host_forcing(host.get("alpha"), where + ".alpha")
    # gamma defaults to a rate proportional to theta (it must vanish at 0)
    gamma = ProportionalForcing(0.1) if host.get("gamma") is None else \
        _build_host_forcing(host.get("gamma"), where + ".gamma")
    try:
        return ModelParams(
            theta1=_num(host, "theta1", where, minimum=0.0, maximum=1.0),
            theta2=theta2,
            v_max=_num(host, "v_max", where, default=1.0, minimum=0.0, strict_min=True),
            alpha=alpha,
            beta=_build_host_forcing(host.get("beta"), where + ".beta", default=0.5),
            gamma=gamma,
            eta=_build_host_forcing(host.get("eta"), where + ".eta", default=theta2),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _build_initial_state(cfg: ScenarioConfig) -> HostState:
    init = _need(cfg.data, "initial", cfg.name)
    where = f"{cfg.name}.initial"
    return HostState(
        theta=_num(init, "theta", where),
        v=_num(init, "v", where, default=0.5),
        v_r=_num(init, "v_r", where, default=0.0),
    )


def _time_block(cfg: ScenarioConfig) -> tuple:
    """(T, h, times) of the config's time block on the shared time grid."""
    tblock = _need(cfg.data, "time", cfg.name)
    where = f"{cfg.name}.time"
    T = _num(tblock, "T", where, minimum=0.0, strict_min=True)
    dt = _num(tblock, "dt", where, minimum=0.0, strict_min=True)
    if dt > T:
        raise ConfigError(f"{where}: dt must not exceed T")
    try:
        _, h, times = time_grid(0.0, T, dt)
    except (ValueError, OverflowError, MemoryError) as exc:  # T/dt too large to count or to store
        raise ConfigError(f"{where}: T/dt = {T / dt:.3g} steps: {exc}") from None
    return T, h, times


def _control(cfg: ScenarioConfig, theta1: float) -> float:
    u = _num(cfg.data.get("control", {}), "u", f"{cfg.name}.control",
             default=0.0, minimum=0.0, maximum=1.0)
    if 1.0 - theta1 * u <= 0.0:
        raise ConfigError(f"{cfg.name}: 1 - theta1*u must stay positive")
    return u


def _shooting_settings(cfg: ScenarioConfig) -> tuple:
    sh = cfg.data.get("shooting", {})
    where = f"{cfg.name}.shooting"
    return (_num(sh, "tol", where, default=1e-8, minimum=0.0, strict_min=True),
            _int(sh, "max_iter", where, default=100, minimum=1))


def _store_every(cfg: ScenarioConfig, n_steps: int) -> int:
    """The stored-path stride; it must divide the step count, because the
    cost quadrature needs a uniformly stored path."""
    k = _int(cfg.data, "store_every", cfg.name, default=1, minimum=1)
    if n_steps % k:
        raise ConfigError(f"{cfg.name}.store_every: must divide the {n_steps} "
                          f"time steps, got {k}")
    return k


def _sweep_settings(cfg: ScenarioConfig) -> tuple:
    sw = cfg.data.get("sweep", {})
    where = f"{cfg.name}.sweep"
    return (_num(sw, "relax", where, default=0.5, minimum=0.0, strict_min=True,
                 maximum=1.0),
            _int(sw, "max_iter", where, default=100, minimum=1))


def _build_pde_alpha(spec, centers, where: str) -> np.ndarray:
    x = centers[:, 0]
    if isinstance(spec, (int, float)):
        spec = {"kind": "constant", "value": spec}
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: expected a number or an object with 'kind'")
    kind = _need(spec, "kind", where)
    if kind == "constant":
        v = _num(spec, "value", where, minimum=0.0)
        return np.full(x.shape, v)
    if kind == "cells":
        try:
            vals = np.asarray(spec.get("values", []), dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(f"{where}.values: expected an array of numbers") from None
        if vals.shape != x.shape:
            raise ConfigError(f"{where}.values: expected {x.shape[0]} entries, got {vals.size}")
        if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
            raise ConfigError(f"{where}.values: must be finite and nonnegative")
        return vals
    if kind == "burst-profile":
        # smooth burst shape along the first axis, scaled to a peak value
        a = _num(spec, "a", where, default=4.0, minimum=0.0)
        b = _num(spec, "b", where, default=0.75)
        c = _num(spec, "c", where, default=0.2, minimum=0.0, strict_min=True)
        scale = _num(spec, "scale", where, default=1.0, minimum=0.0)
        q = a * (x - b) ** 2 * (1.0 - np.cos(2.0 * np.pi * x / c))
        peak = float(np.max(q))
        return scale * q / peak if peak > 0.0 else np.zeros_like(q)
    raise ConfigError(f"{where}.kind: unknown alpha kind {kind!r}")


def _build_grid(cfg: ScenarioConfig):
    gblock = _need(cfg.data, "grid", cfg.name)
    where = f"{cfg.name}.grid"
    _require_object(gblock, where)
    extents = gblock.get("extents")
    resolution = gblock.get("resolution")
    if not isinstance(extents, (list, tuple)) or not isinstance(resolution, (list, tuple)):
        raise ConfigError(f"{where}: extents and resolution must be arrays")
    diffusion = gblock.get("diffusion", 1.0)
    try:
        return build_grid(GridSpec(tuple(extents), tuple(resolution)), A_spec=diffusion)
    except (ValueError, TypeError, OverflowError, MemoryError) as exc:  # or too large to store
        raise ConfigError(f"{where}: {exc}") from None


def _build_pde_cost(cfg: ScenarioConfig) -> PdeCostSpec:
    # a plain simulation may leave its cost block out: k1 then defaults to 1
    optional = cfg.mode == "simulate-pde"
    cblock = cfg.data.get("cost", {}) if optional else _need(cfg.data, "cost", cfg.name)
    where = f"{cfg.name}.cost"
    return PdeCostSpec(
        k1=_num(cblock, "k1", where, default=1.0 if optional else None, minimum=0.0,
                strict_min=True),
        k2=_num(cblock, "k2", where, default=0.0, minimum=0.0),
    )


def _build_severity(cfg: ScenarioConfig) -> SeverityForcing:
    sblock = _need(cfg.data, "severity", cfg.name)
    where = f"{cfg.name}.severity"
    model = _need(sblock, "model", where)
    coeffs = sblock.get("coefficients", {})
    if not isinstance(coeffs, dict):
        raise ConfigError(f"{where}.coefficients: expected an object")
    weather_ref = _need(cfg.data, "weather", cfg.name)
    if not isinstance(weather_ref, str):
        raise ConfigError(f"{cfg.name}.weather: expected a file name, got {weather_ref!r}")
    weather_path = weather_ref if os.path.isabs(weather_ref) else \
        os.path.join(cfg.base_dir, weather_ref)
    if not os.path.exists(weather_path):
        packaged = os.path.join(_scenario_dir(), weather_ref)
        if os.path.exists(packaged):
            weather_path = packaged
    try:
        series = WeatherSeries.from_csv(weather_path)
    except ValueError as exc:
        raise ConfigError(f"{cfg.name}.weather: {weather_path}: {exc}") from None
    try:
        if model == "asi":
            co = AsiCoefficients(**coeffs)
        elif model == "dodd":
            co = DoddCoefficients(**coeffs)
        elif model == "duthie":
            co = DuthieCoefficients(**coeffs)
        else:
            raise ConfigError(f"{where}.model: unknown model {model!r}")
        return SeverityForcing(
            series=series,
            model=model,
            coefficients=co,
            scale=_num(sblock, "scale", where, default=1.0, minimum=0.0),
            incubation=_num(sblock, "incubation", where, default=1.0),
        )
    except TypeError as exc:
        raise ConfigError(f"{where}.coefficients: {exc}") from None
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _ode_plan(cfg: ScenarioConfig) -> OdePlan:
    forcing = _build_severity(cfg) if cfg.mode == "forecast" else None
    params = _build_host_params(cfg, alpha_override=forcing)
    T, h, times = _time_block(cfg)
    for slot in ("alpha", "beta", "gamma", "eta"):
        f = getattr(params, slot)
        # the seasonal closure's phase 2*pi*t/c, in its association, at t = T
        if isinstance(f, SeasonalForcing) and not math.isfinite(2.0 * math.pi * T / f.c):
            raise ConfigError(f"{cfg.name}.host.{slot}: the seasonal phase "
                              f"2*pi*T/c overflows for T = {T} and c = {f.c}")
    optimize = cfg.mode == "optimize-ode"
    k = _num(cfg.data.get("cost", {}), "k", f"{cfg.name}.cost", default=1.0,
             minimum=0.0, strict_min=True)
    return OdePlan(params=params, x0=_build_initial_state(cfg), cost=CostSpec(k=k),
                   T=T, h=h, times=times,
                   u=None if optimize else _control(cfg, params.theta1),
                   shooting=_shooting_settings(cfg) if optimize else None,
                   forcing=forcing)


def _pde_plan(cfg: ScenarioConfig) -> PdePlan:
    # scipy loads here, at the first PDE config parsed and never for an ODE
    # one, so batch imports it before its thread pool starts
    from .pde import _load_scipy
    _load_scipy()
    grid, A = _build_grid(cfg)
    theta1 = _num(cfg.data, "theta1", cfg.name, minimum=0.0, maximum=1.0)
    alpha = _build_pde_alpha(_need(cfg.data, "alpha", cfg.name), grid.centers,
                             f"{cfg.name}.alpha")
    theta0 = ScalarField.constant(grid, _num(_need(cfg.data, "initial", cfg.name), "theta",
                                             f"{cfg.name}.initial", minimum=0.0))
    T, h, times = _time_block(cfg)
    cost = _build_pde_cost(cfg)
    if cfg.mode == "simulate-pde":
        settings = {"u": _control(cfg, theta1),
                    "store_every": _store_every(cfg, len(times) - 1)}
    elif cfg.mode == "riccati-pde":
        if grid.n_cells > _RICCATI_MAX_CELLS:
            raise ConfigError(f"{cfg.name}.grid.resolution: riccati-pde supports at "
                              f"most {_RICCATI_MAX_CELLS} cells, got {grid.n_cells}")
        if theta1 <= 0.0:
            raise ConfigError(f"{cfg.name}.theta1: must be positive for the "
                              f"feedback offset")
        lin = _need(cfg.data, "linearization", cfg.name)
        settings = {"eps": LinearizationPoint(_num(lin, "epsilon", f"{cfg.name}.linearization",
                                                   minimum=0.0, strict_min=True))}
    else:  # sweep-pde
        if not 0.0 < theta1 < 1.0:
            raise ConfigError(f"{cfg.name}.theta1: the sweep feedback needs "
                              f"0 < theta1 < 1, got {theta1}")
        settings = {"sweep": _sweep_settings(cfg)}
    return PdePlan(grid=grid, A=A, alpha=alpha, theta1=theta1, theta0=theta0, cost=cost,
                   T=T, h=h, times=times, **settings)


# --------------------------------------------------------------------------
# output writers
# --------------------------------------------------------------------------

def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return _fmt(v)


def _write_csv(path: str, header, columns):
    """One row per index of the columns, as many as the shortest has: a float
    array is converted to Python floats once and formatted with %.12g, any
    other column (strings, integers) cell by cell with _cell; each row is one
    %-template applied to its cells."""
    floats = [isinstance(col, np.ndarray) and col.dtype.kind == "f" for col in columns]
    row = ",".join("%.12g" if f else "%s" for f in floats) + "\n"
    values = [col.tolist() if f else [_cell(v) for v in col]
              for col, f in zip(columns, floats)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join(map(row.__mod__, zip(*values))))


def _write_field_path_csv(path: str, fp: FieldPath, columns: str = "value",
                          centers=None):
    """(t, cell, value) rows for a sampled field path; with ``centers`` each
    row also carries its cell's coordinates after the cell index.  ``columns``
    names the header columns that follow "t,cell".

    Each cell's leading columns and each level's t are formatted once, and
    each level is written through one %-template of all its rows.
    """
    cells = [f"{j}," for j in range(fp.values.shape[1])]
    if centers is not None:
        cells = [c + "".join(f"{_fmt(x)}," for x in xs)
                 for c, xs in zip(cells, centers.tolist())]
    cells = [c.replace("%", "%%") + "%.12g\n" for c in cells]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"t,cell,{columns}\n")
        for t, row in zip(fp.times.tolist(), fp.values):
            ts = (_fmt(t) + ",").replace("%", "%%")
            fh.write((ts + ts.join(cells)) % tuple(row.tolist()))


def _cost_triple(controlled: float, u_zero: float, u_one: float) -> dict:
    return {
        "controlled": float(controlled),
        "u_zero": float(u_zero),
        "u_one": float(u_one),
        "controlled_is_best": bool(controlled <= min(u_zero, u_one) + 1e-9),
    }


def _write_report(out_dir: str, report: RunReport):
    payload = {
        "name": report.name,
        "mode": report.mode,
        "seed": report.seed,
        "costs": report.costs,
        "diagnostics": report.diagnostics,
        "outputs": list(report.outputs),
        "version": __version__,
    }
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------------
# mode runners: each takes its plan and the scenario directory, writes its
# mode's files there and returns (J, J0, J1) for the controlled, u=0 and
# u=1 runs, its diagnostics and the names of the files it wrote
# --------------------------------------------------------------------------

def _require_finite_trajectory(traj, control: str) -> None:
    if not all(np.all(np.isfinite(v)) for v in (traj.theta, traj.v, traj.v_r)):
        raise NonFiniteResultError(f"the host trajectory under {control} is not finite")


def _host_cost_for_control(params, cost, x0, T, dt, u_values, times) -> float:
    """Integrate the host model under a sampled control and evaluate J_T."""
    u = ControlSignal(times=times, values=u_values)
    traj = integrate_ode(params, u, x0, t0=0.0, T=T, dt=dt)
    _require_finite_trajectory(traj, f"u={_fmt(u_values[0])}")
    return eval_cost_JT(u, traj, cost, dt)


def _run_ode_like(plan: OdePlan, out_dir: str) -> tuple:
    params, cost, x0, T, h, times = (plan.params, plan.cost, plan.x0, plan.T, plan.h,
                                     plan.times)
    diag = {}
    outputs = []

    if plan.forcing is not None:
        alphas = plan.forcing.at(times)
        _write_csv(os.path.join(out_dir, "forecast_series.csv"), ("t", "alpha"),
                   (times, alphas))
        outputs.append("forecast_series.csv")
        diag.update({
            "severity_model": plan.forcing.model,
            "alpha_max": float(np.max(alphas)),
            "alpha_mean": float(np.mean(alphas)),
        })

    if plan.shooting is not None:
        tol, max_iter = plan.shooting
        sol = shoot_p0(x0.theta, params, cost, T=T, dt=h, tol=tol, max_iter=max_iter)
        u_values = np.clip(sol.control.values, 0.0, 1.0)
        diag.update({
            "p0": sol.p0,
            "shooting_residual": sol.residual,
            "shooting_iterations": sol.iterations,
            "switch_events": sol.switch_events,
            "event_cap_hits": sol.event_cap_hits,
            "grazing_exits": sol.grazing_exits,
            "shooting_residuals": sol.shooting_residuals,
            "coarse_shooting_evaluations": sol.coarse_evaluations,
        })
    else:
        u_values = np.full(times.shape, plan.u)

    u = ControlSignal(times=times, values=u_values)
    traj = integrate_ode(params, u, x0, t0=0.0, T=T, dt=h)
    _require_finite_trajectory(traj, "the run's control")
    J = eval_cost_JT(u, traj, cost, h)
    J0 = _host_cost_for_control(params, cost, x0, T, h, np.zeros(times.shape), times)
    J1 = _host_cost_for_control(params, cost, x0, T, h, np.ones(times.shape), times)

    columns = ("t", "theta", "v", "v_r", "u")
    series = [traj.times, traj.theta, traj.v, traj.v_r, u_values]
    if plan.shooting is not None:
        columns += ("p",)
        series.append(sol.adjoint_path.values)
        diag["theta_T_controlled"] = float(traj.theta[-1])
    else:
        diag["theta_T"] = float(traj.theta[-1])
    _write_csv(os.path.join(out_dir, "ode_series.csv"), columns, series)
    outputs.append("ode_series.csv")
    return (J, J0, J1), diag, outputs


def _run_simulate_pde(plan: PdePlan, out_dir: str) -> tuple:
    grid = plan.grid

    def run_const(u_val):
        L = assemble_operator(grid, plan.A, plan.alpha, u_val, plan.theta1, reaction="full")
        path = integrate_pde(plan.theta0, L, plan.alpha, plan.T, plan.h,
                             store_every=plan.store_every)
        u_path = FieldPath(path.times, np.full(path.values.shape, u_val))
        # cost on the stored grid, whose step is store_every time steps
        return path, eval_cost_JT3(path, u_path, plan.cost, grid, plan.h * plan.store_every)

    path, J = run_const(plan.u)
    _, J0 = run_const(0.0) if plan.u != 0.0 else (path, J)
    _, J1 = run_const(1.0) if plan.u != 1.0 else (path, J)

    _write_field_path_csv(os.path.join(out_dir, "pde_snapshots.csv"), path,
                          columns=("x," if grid.dimension == 1 else "x,y,") + "theta",
                          centers=grid.centers)
    diag = {
        "theta_final_min": float(np.min(path.values[-1])),
        "theta_final_max": float(np.max(path.values[-1])),
        "control": plan.u,
    }
    return (J, J0, J1), diag, ["pde_snapshots.csv"]


def _run_riccati_pde(plan: PdePlan, out_dir: str) -> tuple:
    grid, cost, T, h = plan.grid, plan.cost, plan.T, plan.h
    L1, b = linearize(plan.alpha, plan.eps, plan.theta1, grid, plan.A)
    P_path = integrate_riccati(L1, b, cost, T=T, dt=h)
    # the closed loop and the u=0 and u=1 baselines, as lanes of one RK4 loop
    theta_path, u_path, clamping, baselines = _closed_loop_lanes(
        plan.theta0, L1, b, P_path, cost, plan.eps, plan.theta1, plan.alpha, T, h,
        constants=(0.0, 1.0))
    J = eval_cost_JT3(theta_path, u_path, cost, grid, h)
    J0, J1 = (eval_cost_JT3(th, FieldPath(th.times, np.full(th.values.shape, u_val)),
                            cost, grid, h)
              for th, u_val in zip(baselines, (0.0, 1.0)))

    _write_field_path_csv(os.path.join(out_dir, "theta_path.csv"), theta_path)
    _write_field_path_csv(os.path.join(out_dir, "u_path.csv"), u_path)
    eig_range = P_path.eig_range
    _write_csv(os.path.join(out_dir, "riccati_diagnostics.csv"),
               ("s", "trace", "eig_min", "eig_max"),
               (P_path.times, [float(np.trace(P)) for P in P_path.matrices],
                eig_range[:, 0], eig_range[:, 1]))

    diag = {
        "P_final_trace": float(np.trace(P_path.matrices[-1])),
        "P_final_eig_min": float(eig_range[-1, 0]),
        "u_min": float(np.min(u_path.values)),
        "u_max": float(np.max(u_path.values)),
        "feedback_clamped_evaluations": int(clamping[0]),
        "feedback_clamped_share_max": float(clamping[2]),
    }
    return (J, J0, J1), diag, ["theta_path.csv", "u_path.csv", "riccati_diagnostics.csv"]


def _run_sweep_pde(plan: PdePlan, out_dir: str) -> tuple:
    grid, cost, T, h = plan.grid, plan.cost, plan.T, plan.h
    relax, max_iter = plan.sweep
    res = forward_backward_sweep(plan.theta0, grid, plan.A, plan.alpha, cost, T, h,
                                 theta1=plan.theta1, relax=relax, max_iter=max_iter)
    # the sweep starts from u = 0, so its first cost is the u = 0 baseline
    J, J0 = float(res.cost_history[-1]), float(res.cost_history[0])

    def const_cost(u_val):
        up = FieldPath(res.u_path.times, np.full(res.u_path.values.shape, u_val))
        th = integrate_controlled(plan.theta0, grid, plan.A, plan.alpha, up, plan.theta1,
                                  T, h)
        return eval_cost_JT3(th, up, cost, grid, h)

    J1 = const_cost(1.0)

    _write_field_path_csv(os.path.join(out_dir, "u_path.csv"), res.u_path)
    _write_field_path_csv(os.path.join(out_dir, "theta_path.csv"), res.theta_path)
    _write_field_path_csv(os.path.join(out_dir, "adjoint_path.csv"), res.adjoint_path)
    _write_csv(os.path.join(out_dir, "cost_history.csv"), ("iteration", "cost"),
               (range(len(res.cost_history)), res.cost_history))

    diag = {
        "converged": bool(res.converged),
        "iterations": int(res.iterations),
        "u_max": float(np.max(res.u_path.values)),
    }
    return (J, J0, J1), diag, ["u_path.csv", "theta_path.csv", "adjoint_path.csv",
                               "cost_history.csv"]


_RUNNERS = {
    "simulate-ode": _run_ode_like,
    "optimize-ode": _run_ode_like,
    "forecast": _run_ode_like,
    "simulate-pde": _run_simulate_pde,
    "riccati-pde": _run_riccati_pde,
    "sweep-pde": _run_sweep_pde,
}


def execute(cfg: ScenarioConfig, out_root: str) -> RunReport:
    """Run one parsed scenario's plan; outputs go to <out_root>/<name>/."""
    out_dir = os.path.join(out_root, cfg.name)
    os.makedirs(out_dir, exist_ok=True)
    (J, J0, J1), diag, outputs = _RUNNERS[cfg.mode](cfg.plan, out_dir)
    costs = _cost_triple(J, J0, J1)
    if not all(np.isfinite((J, J0, J1))):
        raise NonFiniteResultError(
            f"non-finite cost: controlled={_fmt(J)} u_zero={_fmt(J0)} u_one={_fmt(J1)}")
    labels = ("controlled", "u_zero", "u_one")
    _write_csv(os.path.join(out_dir, "cost_comparison.csv"), ("label", "cost"),
               (labels, [costs[k] for k in labels]))
    report = RunReport(name=cfg.name, mode=cfg.mode, seed=cfg.seed, costs=costs,
                       diagnostics=diag,
                       outputs=(*outputs, "cost_comparison.csv", "report.json"),
                       out_dir=out_dir)
    _write_report(out_dir, report)
    for fn in report.outputs:
        if not os.path.exists(os.path.join(out_dir, fn)):  # pragma: no cover
            raise OSError(f"expected output file missing: {fn}")
    return report


# --------------------------------------------------------------------------
# command-line entry points
# --------------------------------------------------------------------------

def _resolve_out_root(args, cfg: ScenarioConfig | None = None) -> str:
    if getattr(args, "out", None):
        return args.out
    if cfg is not None and cfg.out_dir_hint():
        return cfg.out_dir_hint()
    env = os.environ.get("ANTHRACTL_OUT_DIR")
    if env:
        return env
    return os.path.join(os.getcwd(), "anthractl-out")


def _load(ref: str, seed_override=None) -> ScenarioConfig:
    cfg = parse_config(resolve_config_path(ref))
    return cfg if seed_override is None else replace(cfg, seed=int(seed_override))


def _cmd_run(args) -> int:
    cfg = _load(args.config, args.seed)
    out_root = _resolve_out_root(args, cfg)
    report = execute(cfg, out_root)
    c = report.costs
    print(f"{report.name} [{report.mode}] -> {report.out_dir}")
    print(f"  cost controlled={_fmt(c['controlled'])} u_zero={_fmt(c['u_zero'])} "
          f"u_one={_fmt(c['u_one'])} best={'controlled' if c['controlled_is_best'] else 'constant'}")
    for key in sorted(report.diagnostics):
        print(f"  {key}={report.diagnostics[key]}")
    return EXIT_OK


def _cmd_batch(args) -> int:
    cfgs = [_load(ref, args.seed) for ref in args.configs]
    names = [c.name for c in cfgs]
    if len(set(names)) != len(names):
        raise ConfigError("batch scenarios must have distinct names "
                          f"(got {', '.join(names)})")
    out_root = _resolve_out_root(args)
    worst = EXIT_OK

    def worker(cfg):
        try:
            return execute(cfg, out_root)
        except Exception as exc:  # collected and reported per scenario
            return exc

    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        results = list(pool.map(worker, cfgs))
    for cfg, res in zip(cfgs, results):
        if isinstance(res, Exception):
            print(f"{cfg.name}: FAILED: {res}", file=sys.stderr)
            code = _exit_code(res)
            if code is None:
                raise res
            worst = max(worst, code)
        else:
            c = res.costs
            print(f"{cfg.name} [{cfg.mode}] -> {res.out_dir} "
                  f"controlled={_fmt(c['controlled'])}")
    return worst


def _cmd_validate(args) -> int:
    cfg = _load(args.config)
    print(f"OK: {cfg.name} ({cfg.mode})")
    return EXIT_OK


def _cmd_list(args) -> int:
    bundled = bundled_scenarios()
    if not bundled:
        print("no bundled scenarios found")
        return EXIT_OK
    for name, path in bundled.items():
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            desc = data.get("description", "")
            print(f"{name:16s} {data.get('mode', '?'):13s} {desc}")
        except (OSError, json.JSONDecodeError) as exc:  # pragma: no cover
            print(f"{name:16s} (unreadable: {exc})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="anthractl",
        description="Disease-control solvers: within-host ODE optimal control, "
                    "spatial reaction-diffusion control, severity forecasting.")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("config", help="config path or bundled scenario name")
    p_run.add_argument("--out", help="output root directory")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.set_defaults(fn=_cmd_run)

    p_batch = sub.add_parser("batch", help="run several scenarios in parallel")
    p_batch.add_argument("configs", nargs="+", help="config paths or bundled names")
    p_batch.add_argument("--out", help="output root directory")
    p_batch.add_argument("--jobs", type=int, default=2, help="worker threads")
    p_batch.add_argument("--seed", type=int, default=None, help="override config seeds")
    p_batch.set_defaults(fn=_cmd_batch)

    p_val = sub.add_parser("validate", help="validate a config without running it")
    p_val.add_argument("config", help="config path or bundled scenario name")
    p_val.set_defaults(fn=_cmd_validate)

    p_list = sub.add_parser("list-scenarios", help="list bundled scenarios")
    p_list.set_defaults(fn=_cmd_list)
    return ap


def _exit_code(exc: BaseException) -> int | None:
    """The exit code of a failure class, or None for an unexpected error."""
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, _NUMERICAL_ERRORS):
        return EXIT_NUMERICAL
    if isinstance(exc, OSError):
        return EXIT_IO
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        detail = f"{type(exc).__name__}: {exc}" if code == EXIT_NUMERICAL else exc
        print(f"{_EXIT_LABELS[code]}: {detail}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
