"""Command-line interface: configs, exit codes, outputs, determinism."""

import contextlib
import glob
import io
import json
import math
import os
import pickle
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anthractl import FieldPath, GridSpec, build_grid
from anthractl.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    NonFiniteResultError,
    _NUMERICAL_ERRORS,
    ConfigError,
    _cell,
    _exit_code,
    _fmt,
    _write_csv,
    _write_field_path_csv,
    bundled_scenarios,
    main,
    parse_config,
    resolve_config_path,
)

_BUNDLED = ("fig1", "fig2", "fig3", "fig4", "forecast-demo",
            "pde-1d-demo", "riccati-scalar", "sweep-1d")


def _write_cfg(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _tiny_ode(mode="simulate-ode", **over):
    data = {
        "name": f"tiny-{mode}",
        "mode": mode,
        "host": {
            "theta1": 0.6,
            "alpha": {"kind": "seasonal", "a": 4.0, "b": 0.75, "c": 0.2},
        },
        "initial": {"theta": 0.2, "v": 0.5, "v_r": 0.0},
        "control": {"u": 0.3},
        "cost": {"k": 1.0},
        "time": {"T": 0.5, "dt": 0.005},
    }
    data.update(over)
    return data


def _tiny_pde():
    return {
        "name": "tiny-pde",
        "mode": "simulate-pde",
        "grid": {"extents": [1.0], "resolution": [8], "diffusion": 0.02},
        "theta1": 0.6,
        "alpha": {"kind": "constant", "value": 1.5},
        "initial": {"theta": 0.2},
        "control": {"u": 0.25},
        "cost": {"k1": 1.0, "k2": 0.0},
        "time": {"T": 0.5, "dt": 0.01},
        "store_every": 10,
    }


def _tiny_forecast():
    # the weather file resolves to the packaged sample next to the bundled configs
    return {
        "name": "tiny-forecast",
        "mode": "forecast",
        "weather": "weather-sample.csv",
        "severity": {"model": "asi",
                     "coefficients": {"a0": 0.1, "a01": 0.05, "a10": 0.01}},
        "host": {"theta1": 0.6},
        "initial": {"theta": 0.2, "v": 0.5, "v_r": 0.0},
        "control": {"u": 0.2},
        "cost": {"k": 1.0},
        "time": {"T": 0.5, "dt": 0.005},
    }


def _tiny_riccati():
    return {
        "name": "tiny-riccati",
        "mode": "riccati-pde",
        "grid": {"extents": [1.0], "resolution": [1], "diffusion": 1.0},
        "theta1": 0.5,
        "alpha": {"kind": "constant", "value": 1.0},
        "initial": {"theta": 0.3},
        "linearization": {"epsilon": 4.0},
        "cost": {"k1": 0.5, "k2": 0.5},
        "time": {"T": 0.5, "dt": 0.01},
    }


def _tiny_sweep():
    return {
        "name": "tiny-sweep",
        "mode": "sweep-pde",
        "grid": {"extents": [1.0], "resolution": [4], "diffusion": 0.01},
        "theta1": 0.6,
        "alpha": {"kind": "constant", "value": 2.0},
        "initial": {"theta": 0.2},
        "cost": {"k1": 1.0, "k2": 0.25},
        "time": {"T": 0.5, "dt": 0.02},
        "sweep": {"relax": 0.5, "max_iter": 60},
    }


# ---------------------------------------------------------------------------
#  config resolution and validation
# ---------------------------------------------------------------------------

def test_bundled_scenarios_complete():
    assert tuple(sorted(bundled_scenarios())) == _BUNDLED


@pytest.mark.parametrize("name", _BUNDLED)
def test_bundled_config_round_trips_through_pickle(name):
    # a parsed config, plan included, must pickle (a process pool hands
    # configs to its workers), so no forcing may hold a closure
    cfg = parse_config(resolve_config_path(name))
    blob = pickle.dumps(cfg)
    back = pickle.loads(blob)
    assert (back.name, back.mode, type(back.plan)) == (name, cfg.mode, type(cfg.plan))
    assert pickle.dumps(back) == blob


def test_resolve_prefers_existing_file(tmp_path):
    path = _write_cfg(tmp_path, _tiny_ode())
    assert resolve_config_path(path) == path
    assert resolve_config_path("fig1").endswith(os.path.join("scenarios", "fig1.json"))
    with pytest.raises(FileNotFoundError, match="bundled"):
        resolve_config_path("no-such-scenario")


def test_parse_config_fills_name_from_filename(tmp_path):
    data = _tiny_ode()
    del data["name"]
    cfg = parse_config(_write_cfg(tmp_path, data, "my-run.json"))
    assert cfg.name == "my-run"
    assert cfg.mode == "simulate-ode"
    assert cfg.seed == 0


def test_list_scenarios_prints_all(capsys):
    assert main(["list-scenarios"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in _BUNDLED:
        assert name in out


def test_validate_bundled(capsys):
    assert main(["validate", "fig2"]) == EXIT_OK
    assert "OK: fig2 (simulate-ode)" in capsys.readouterr().out


def test_validate_all_bundled_scenarios():
    for name in _BUNDLED:
        assert main(["validate", name]) == EXIT_OK


# ---------------------------------------------------------------------------
#  exit codes
# ---------------------------------------------------------------------------

def test_exit_code_unknown_mode(tmp_path, capsys):
    path = _write_cfg(tmp_path, {"mode": "warp-drive"})
    assert main(["validate", path]) == EXIT_CONFIG
    assert "mode" in capsys.readouterr().err


def test_exit_code_missing_key(tmp_path, capsys):
    data = _tiny_ode()
    del data["host"]["alpha"]
    assert main(["validate", _write_cfg(tmp_path, data)]) == EXIT_CONFIG
    assert "alpha" in capsys.readouterr().err


def test_exit_code_bad_number(tmp_path, capsys):
    data = _tiny_ode()
    data["time"]["dt"] = "fast"
    assert main(["validate", _write_cfg(tmp_path, data)]) == EXIT_CONFIG
    assert "dt" in capsys.readouterr().err


def test_exit_code_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert "JSON" in capsys.readouterr().err


def test_exit_code_top_level_not_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2, 3]")
    assert main(["validate", str(path)]) == EXIT_CONFIG


def test_exit_code_missing_file(capsys):
    assert main(["validate", "/no/such/config.json"]) == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def _mapped_exceptions():
    """An instance of every exception class that _exit_code maps, and of the
    package's own subclasses of the builtin classes it maps."""
    from anthractl.ode_control import ShootingError
    from anthractl.pde_control import StiffStepError

    out = [ConfigError("cfg.time.dt: must be > 0"), NonFiniteResultError("nan cost"),
           StiffStepError("h*rho too large"), OSError(2, "No such file", "x.json")]
    for cls in _NUMERICAL_ERRORS:
        if cls is ShootingError:
            out.append(ShootingError("no root", best_p0=0.5, best_residual=1e-3))
        else:
            out.append(cls(f"{cls.__name__} message"))
    return out


@pytest.mark.parametrize("exc", _mapped_exceptions(), ids=lambda e: type(e).__name__)
def test_mapped_exceptions_survive_pickling(exc):
    # a worker process hands its failure back to the parent by pickling it
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert back.args == exc.args and str(back) == str(exc)
    assert vars(back) == vars(exc)
    assert _exit_code(back) == _exit_code(exc) is not None


def _with(data, **over):
    data.update(over)
    return data


def _seasonal_c(data, slot, c):
    """data with a seasonal host.<slot> of period c."""
    data["host"][slot] = {"kind": "seasonal", "a": 0.5, "b": 0.75, "c": c}
    return data


@pytest.mark.parametrize("grid", [
    {"extents": [1.0], "resolution": [8], "diffusion": 1e300},
    {"extents": [1e-200], "resolution": [8], "diffusion": 0.02},
], ids=["huge_diffusion", "tiny_extent"])
def test_overflowed_step_matrix_exits_numerical(tmp_path, capsys, grid):
    # the face coefficients overflow, so the step matrix cannot be factorized:
    # a numerical failure (exit 3) that validate cannot see
    path = _write_cfg(tmp_path, _with(_tiny_pde(), grid=grid))
    assert main(["validate", path]) == EXIT_OK
    assert main(["run", path, "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
    assert "SolverBreakdownError" in capsys.readouterr().err


@pytest.mark.parametrize("data, key", [
    (_with(_tiny_pde(), store_every=0), "store_every"),
    (_with(_tiny_pde(), store_every=2.5), "store_every"),
    (_tiny_ode("optimize-ode", shooting={"tol": "x"}), "shooting.tol"),
    (_with(_tiny_sweep(), sweep={"max_iter": "abc"}), "sweep.max_iter"),
    (_tiny_ode(seed="x"), "seed"),
    (_tiny_ode(initial=3), "initial"),
    (_with(_tiny_pde(), store_every=7), "store_every"),
    (_with(_tiny_riccati(), grid={"extents": [1.0], "resolution": [300]}), "grid.resolution"),
    (_with(_tiny_sweep(), theta1=0.0), "theta1"),
    (_with(_tiny_sweep(), theta1=1.0), "theta1"),
    (_tiny_ode(time={"T": 1e6, "dt": 1e-13}), "time"),
    (_tiny_ode(time={"T": 1.7e308, "dt": 0.01}), "time"),
    (_tiny_ode(time={"T": 0.5, "dt": 1e-12}), "time"),
    (_seasonal_c(_tiny_ode(), "alpha", 1e-310), "host.alpha"),
    (_seasonal_c(_tiny_ode("optimize-ode"), "alpha", 1e-310), "host.alpha"),
    (_seasonal_c(_tiny_ode(), "beta", 1e-310), "host.beta"),
    (_seasonal_c(_tiny_ode("optimize-ode"), "beta", 1e-310), "host.beta"),
    (_seasonal_c(_tiny_forecast(), "eta", 1e-310), "host.eta"),
    (_tiny_ode(time={"T": 1e308, "dt": 1e308}), "host.alpha"),
    # 10**15 cells of 8 bytes lie beyond the address space: the allocation
    # fails at once, whatever the overcommit setting
    (_with(_tiny_pde(), grid={"extents": [1.0], "resolution": [10**15]}), "tiny-pde.grid"),
    (_with(_tiny_pde(), grid={"extents": [1.0], "resolution": [8.5]}), "tiny-pde.grid"),
    # a name is one directory under the output root, never a path
    (_with(_tiny_pde(), name="../escaped"), "name"),
    (_with(_tiny_pde(), name=os.path.join(os.sep, "escaped")), "name"),
    (_with(_tiny_pde(), name="."), "name"),
    (_with(_tiny_pde(), name=".."), "name"),
    (_with(_tiny_pde(), name="a/b"), "name"),
], ids=["store_every", "store_every_fraction", "shooting_tol", "sweep_max_iter",
        "seed", "initial", "store_every_not_dividing_steps", "riccati_cells",
        "sweep_theta1_zero", "sweep_theta1_one", "steps_beyond_array_size",
        "steps_overflow", "steps_beyond_memory", "subnormal_alpha_period",
        "subnormal_alpha_period_optimize", "subnormal_beta_period",
        "subnormal_beta_period_optimize", "subnormal_eta_period_forecast",
        "seasonal_phase_overflow", "grid_beyond_address_space",
        "grid_fractional_resolution", "name_parent", "name_absolute", "name_dot",
        "name_dot_dot", "name_nested"])
def test_bad_value_exits_config_in_validate_and_run(tmp_path, capsys, data, key):
    path = _write_cfg(tmp_path, data)
    assert main(["validate", path]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert main(["run", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


# A dt that does not divide T runs on the nearest grid that does:
# h = T/round(T/dt).  The pde dt gives 50 steps, which store_every 10 divides.
@pytest.mark.parametrize("data, dt", [
    (_tiny_ode(), 0.0007),
    (_tiny_ode("optimize-ode"), 0.0007),
    (_tiny_forecast(), 0.0007),
    (_tiny_pde(), 0.0101),
    (_tiny_riccati(), 0.03),
    (_tiny_sweep(), 0.03),
], ids=["simulate-ode", "optimize-ode", "forecast", "simulate-pde", "riccati-pde",
        "sweep-pde"])
def test_non_dividing_dt_runs_on_rounded_grid(tmp_path, data, dt):
    data = dict(data, time={"T": 0.5, "dt": dt})
    path = _write_cfg(tmp_path, data)
    assert main(["validate", path]) == EXIT_OK
    assert main(["run", path, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert parse_config(path).plan.h == 0.5 / round(0.5 / dt)


# ---------------------------------------------------------------------------
#  running scenarios
# ---------------------------------------------------------------------------

def _run(tmp_path, data, *extra):
    path = _write_cfg(tmp_path, data, f"{data['name']}.json")
    out = tmp_path / "out"
    code = main(["run", path, "--out", str(out), *extra])
    return code, out / data["name"]


def _report(run_dir):
    with open(run_dir / "report.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _check_manifest(run_dir, expected_outputs):
    rep = _report(run_dir)
    assert sorted(rep["outputs"]) == sorted(expected_outputs)
    on_disk = sorted(p.name for p in run_dir.iterdir())
    assert on_disk == sorted(rep["outputs"])
    for key in ("controlled", "u_zero", "u_one", "controlled_is_best"):
        assert key in rep["costs"]
    return rep


def test_run_simulate_ode(tmp_path, capsys):
    code, run_dir = _run(tmp_path, _tiny_ode())
    assert code == EXIT_OK
    rep = _check_manifest(run_dir,
                          ["ode_series.csv", "cost_comparison.csv", "report.json"])
    assert rep["mode"] == "simulate-ode"
    assert 0.0 < rep["diagnostics"]["theta_T"] < 1.0
    header = (run_dir / "ode_series.csv").read_text().splitlines()[0]
    assert header == "t,theta,v,v_r,u"
    out = capsys.readouterr().out
    assert "tiny-simulate-ode [simulate-ode]" in out
    assert "cost controlled=" in out


def test_run_optimize_ode(tmp_path):
    data = _tiny_ode(mode="optimize-ode", time={"T": 1.0, "dt": 0.005},
                     shooting={"tol": 1e-8})
    del data["control"]
    code, run_dir = _run(tmp_path, data)
    assert code == EXIT_OK
    rep = _check_manifest(run_dir,
                          ["ode_series.csv", "cost_comparison.csv", "report.json"])
    assert rep["costs"]["controlled_is_best"] is True
    assert abs(rep["diagnostics"]["shooting_residual"]) < 1e-8
    # the coupled integration's event counters of the returned trajectory
    for key in ("switch_events", "event_cap_hits", "grazing_exits"):
        assert type(rep["diagnostics"][key]) is int and rep["diagnostics"][key] >= 0
    # one signed residual per shooting evaluation, the last one the reported
    residuals = rep["diagnostics"]["shooting_residuals"]
    assert len(residuals) == rep["diagnostics"]["shooting_iterations"]
    assert all(type(r) is float for r in residuals)
    assert abs(residuals[-1]) == rep["diagnostics"]["shooting_residual"]
    header = (run_dir / "ode_series.csv").read_text().splitlines()[0]
    assert header == "t,theta,v,v_r,u,p"


def test_run_simulate_pde(tmp_path):
    code, run_dir = _run(tmp_path, _tiny_pde())
    assert code == EXIT_OK
    rep = _check_manifest(run_dir,
                          ["pde_snapshots.csv", "cost_comparison.csv", "report.json"])
    header = (run_dir / "pde_snapshots.csv").read_text().splitlines()[0]
    assert header == "t,cell,x,theta"
    assert rep["diagnostics"]["theta_final_max"] <= 1.0


def test_run_riccati_pde(tmp_path):
    code, run_dir = _run(tmp_path, _tiny_riccati())
    assert code == EXIT_OK
    rep = _check_manifest(run_dir,
                          ["theta_path.csv", "u_path.csv", "riccati_diagnostics.csv",
                           "cost_comparison.csv", "report.json"])
    assert rep["costs"]["controlled_is_best"] is True
    assert rep["diagnostics"]["P_final_eig_min"] >= 0.0


def test_non_finite_result_exits_numerical(tmp_path, capsys):
    # a stiff seasonal forcing overflows the host trajectory into NaN
    data = _tiny_ode(host={"theta1": 0.6,
                           "alpha": {"kind": "seasonal", "a": 1e6, "b": 0.75, "c": 0.2}})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, run_dir = _run(tmp_path, data)
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "NonFiniteResultError" in err and "Traceback" not in err
    assert not (run_dir / "report.json").exists()


@pytest.mark.parametrize("theta0, clamps", [(0.3, False), (2.0, True)])
def test_riccati_pde_reports_feedback_clamping(tmp_path, theta0, clamps):
    # far above the linearization point the one-cell feedback saturates at 1
    code, run_dir = _run(tmp_path, dict(_tiny_riccati(), initial={"theta": theta0}))
    assert code == EXIT_OK
    diag = _report(run_dir)["diagnostics"]
    steps = 50  # T / dt of the tiny riccati config
    assert 0 <= diag["feedback_clamped_evaluations"] <= 4 * steps + 1
    assert (diag["feedback_clamped_evaluations"] > 0) == clamps
    assert diag["feedback_clamped_share_max"] == (1.0 if clamps else 0.0)


@pytest.mark.parametrize("cells, expected", [(56, EXIT_NUMERICAL), (52, EXIT_OK)])
def test_riccati_pde_refuses_unstable_linearized_step(tmp_path, capsys, cells, expected):
    # h*rho = 0.005 * (1 + 4*0.05*cells^2): 3.14 at 56 cells, 2.71 at 52
    data = dict(_tiny_riccati(), time={"T": 1.0, "dt": 0.005},
                grid={"extents": [1.0], "resolution": [cells], "diffusion": 0.05})
    code, run_dir = _run(tmp_path, data)
    assert code == expected
    if expected == EXIT_NUMERICAL:
        assert "h*rho" in capsys.readouterr().err
    else:
        assert _report(run_dir)["costs"]["controlled_is_best"] is True


def test_field_path_csv_bytes_match_per_value_formatting(tmp_path):
    times = np.array([0.0, 2.5e-7, 0.1, 1.0 / 3.0])
    values = np.array([[0.0, -0.0, 1.0, 123456789012345.0],
                       [1e-300, -2.5, np.pi, 7.0],
                       [0.1 + 0.2, 1e20, -1e-7, 0.5],
                       [np.nan, np.inf, -np.inf, 3.0]])
    path = tmp_path / "path.csv"
    _write_field_path_csv(str(path), FieldPath(times, values))
    expected = "t,cell,value\n" + "".join(
        f"{_fmt(t)},{j},{_fmt(v)}\n"
        for i, t in enumerate(times) for j, v in enumerate(values[i]))
    assert path.read_bytes() == expected.encode("utf-8")

    # simulate-pde snapshots on a 2-D grid: cell coordinates after the index
    grid, _ = build_grid(GridSpec((1.0, 0.3), (2, 3)))
    six = np.concatenate([values, values[:, :2] / 3.0], axis=1)
    _write_field_path_csv(str(path), FieldPath(times, six), columns="x,y,theta",
                          centers=grid.centers)
    expected = "t,cell,x,y,theta\n" + "".join(
        f"{_fmt(t)},{j},{','.join(_fmt(c) for c in grid.centers[j])},{_fmt(six[i, j])}\n"
        for i, t in enumerate(times) for j in range(grid.n_cells))
    assert path.read_bytes() == expected.encode("utf-8")


def _row_writer_bytes(header, rows) -> bytes:
    # the row-by-row writer the column writer replaced: _cell on every value
    lines = [",".join(header)] + [",".join(_cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_column_csv_writer_matches_row_writer_bytes(tmp_path):
    path = tmp_path / "out.csv"
    # ode_series: six float columns, with the values formatting can trip on
    rng = np.random.default_rng(9)
    series = [np.linspace(0.0, 1.0, 41)] + [rng.uniform(-1.0, 1.0, 41) for _ in range(5)]
    for col, v in zip(series[1:], (-0.0, np.nan, np.inf, 1e-300, 123456789012345.0)):
        col[7] = v
    header = ("t", "theta", "v", "v_r", "u", "p")
    _write_csv(str(path), header, series)
    assert path.read_bytes() == _row_writer_bytes(header, zip(*series))
    # cost_comparison: a string column beside Python floats
    labels, costs = ("controlled", "u_zero", "u_one"), [0.1 + 0.2, 1.0 / 3.0, -0.0]
    _write_csv(str(path), ("label", "cost"), (labels, costs))
    assert path.read_bytes() == _row_writer_bytes(("label", "cost"), zip(labels, costs))
    # cost_history: an integer column beside a float array
    history = rng.uniform(0.0, 2.0, 12)
    _write_csv(str(path), ("iteration", "cost"), (range(history.size), history))
    assert path.read_bytes() == _row_writer_bytes(("iteration", "cost"),
                                                  list(enumerate(history)))


def _field_path_oracle(fp, columns="value", centers=None) -> bytes:
    # the writer the %-template replaced: one f-string per row
    cells = [f"{j}," for j in range(fp.values.shape[1])]
    if centers is not None:
        cells = [c + "".join(f"{_fmt(x)}," for x in xs)
                 for c, xs in zip(cells, centers.tolist())]
    out = [f"t,cell,{columns}\n"]
    for t, row in zip(fp.times.tolist(), fp.values):
        ts = _fmt(t) + ","
        out.append("".join(f"{ts}{c}{v:.12g}\n" for c, v in zip(cells, row.tolist())))
    return "".join(out).encode("utf-8")


def _column_csv_oracle(header, columns) -> bytes:
    # the writer the %-template replaced: str.format on converted columns
    floats = [isinstance(col, np.ndarray) and col.dtype.kind == "f" for col in columns]
    row = ",".join("{:.12g}" if f else "{}" for f in floats) + "\n"
    values = [col.tolist() if f else [_cell(v) for v in col]
              for col, f in zip(columns, floats)]
    return (",".join(header) + "\n" + "".join(map(row.format, *values))).encode("utf-8")


# every float the writers can meet: NaN, infinities, signed zeros, subnormals
# and the largest finite values among ordinary draws
_any_float = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, 123456789012345.0, 0.1 + 0.2]))


@settings(max_examples=150, deadline=None)
@given(n_t=st.integers(1, 5), n_cells=st.integers(1, 6), data=st.data())
def test_field_path_writer_matches_the_f_string_writer(tmp_path_factory, n_t,
                                                       n_cells, data):
    times = np.cumsum(data.draw(st.lists(st.floats(1e-300, 1e6), min_size=n_t,
                                         max_size=n_t)))
    times = np.unique(times)
    values = np.array(data.draw(st.lists(_any_float, min_size=times.size * n_cells,
                                         max_size=times.size * n_cells)))
    fp = FieldPath(times, values.reshape(times.size, n_cells))
    path = tmp_path_factory.mktemp("fp") / "path.csv"
    _write_field_path_csv(str(path), fp)
    assert path.read_bytes() == _field_path_oracle(fp)
    centers = np.array(data.draw(st.lists(_any_float, min_size=2 * n_cells,
                                          max_size=2 * n_cells))).reshape(n_cells, 2)
    _write_field_path_csv(str(path), fp, columns="x,y,theta", centers=centers)
    assert path.read_bytes() == _field_path_oracle(fp, "x,y,theta", centers)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 8), data=st.data())
def test_column_csv_writer_matches_the_format_writer(tmp_path_factory, n, data):
    floats = np.array(data.draw(st.lists(_any_float, min_size=n, max_size=n)), dtype=float)
    py_floats = data.draw(st.lists(_any_float, min_size=n, max_size=n))
    # strings that a %- or {}-template could misread are data here
    labels = data.draw(st.lists(st.sampled_from(["a", "%s", "%.12g", "100%", "{}",
                                                 "{0}", "%%", ""]),
                                min_size=n, max_size=n))
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    for header, columns in ((("t", "x"), (floats, floats[::-1].copy())),
                            (("label", "cost"), (labels, py_floats)),
                            (("iteration", "cost", "label"), (range(n), floats, labels))):
        _write_csv(str(path), header, columns)
        assert path.read_bytes() == _column_csv_oracle(header, columns)


def test_run_sweep_pde(tmp_path):
    code, run_dir = _run(tmp_path, _tiny_sweep())
    assert code == EXIT_OK
    rep = _check_manifest(run_dir,
                          ["u_path.csv", "theta_path.csv", "adjoint_path.csv",
                           "cost_history.csv", "cost_comparison.csv", "report.json"])
    assert rep["diagnostics"]["converged"] is True
    assert rep["costs"]["controlled_is_best"] is True


def test_run_sweep_pde_on_one_cell(tmp_path):
    # a single cell has no tridiagonal band for the implicit stepper
    data = dict(_tiny_sweep(), grid={"extents": [1.0], "resolution": [1],
                                     "diffusion": 0.01})
    code, run_dir = _run(tmp_path, data)
    assert code == EXIT_OK
    assert _report(run_dir)["diagnostics"]["converged"] is True


def test_run_forecast_with_relative_weather(tmp_path):
    (tmp_path / "wx.csv").write_text(
        "t,T,W,H\n0.0,18.0,2.0,80.0\n0.5,24.0,5.0,85.0\n1.0,21.0,3.0,90.0\n")
    data = dict(_tiny_forecast(), weather="wx.csv")  # resolved next to the config
    code, run_dir = _run(tmp_path, data)
    assert code == EXIT_OK
    rep = _check_manifest(run_dir,
                          ["forecast_series.csv", "ode_series.csv",
                           "cost_comparison.csv", "report.json"])
    assert rep["diagnostics"]["severity_model"] == "asi"
    assert rep["diagnostics"]["alpha_max"] > 0.0


def test_seed_override_is_echoed(tmp_path):
    code, run_dir = _run(tmp_path, _tiny_ode(), "--seed", "7")
    assert code == EXIT_OK
    assert _report(run_dir)["seed"] == 7


def test_repeat_runs_byte_identical(tmp_path):
    data = _tiny_ode()
    path = _write_cfg(tmp_path, data)
    outs = []
    for sub in ("a", "b"):
        assert main(["run", path, "--out", str(tmp_path / sub)]) == EXIT_OK
        outs.append(tmp_path / sub / data["name"])
    files = sorted(p.name for p in outs[0].iterdir())
    assert files == sorted(p.name for p in outs[1].iterdir())
    for fn in files:
        assert (outs[0] / fn).read_bytes() == (outs[1] / fn).read_bytes()


# ---------------------------------------------------------------------------
#  output directory precedence
# ---------------------------------------------------------------------------

def test_out_dir_precedence(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ANTHRACTL_OUT_DIR", raising=False)
    data = _tiny_ode()
    cfg_plain = _write_cfg(tmp_path, data, "plain.json")
    data_hint = dict(data, name="tiny-hint", out_dir=str(tmp_path / "from-config"))
    cfg_hint = _write_cfg(tmp_path, data_hint, "hinted.json")

    # 1) --out beats the config hint
    assert main(["run", cfg_hint, "--out", str(tmp_path / "cli-out")]) == EXIT_OK
    assert (tmp_path / "cli-out" / "tiny-hint").is_dir()
    assert not (tmp_path / "from-config").exists()

    # 2) config hint beats the environment
    monkeypatch.setenv("ANTHRACTL_OUT_DIR", str(tmp_path / "env-out"))
    assert main(["run", cfg_hint]) == EXIT_OK
    assert (tmp_path / "from-config" / "tiny-hint").is_dir()
    assert not (tmp_path / "env-out").exists()

    # 3) environment beats the default
    assert main(["run", cfg_plain]) == EXIT_OK
    assert (tmp_path / "env-out" / data["name"]).is_dir()

    # 4) default is ./anthractl-out
    monkeypatch.delenv("ANTHRACTL_OUT_DIR")
    assert main(["run", cfg_plain]) == EXIT_OK
    assert (tmp_path / "anthractl-out" / data["name"]).is_dir()


# ---------------------------------------------------------------------------
#  batch
# ---------------------------------------------------------------------------

def test_batch_runs_scenarios_in_parallel(tmp_path, capsys):
    a = _write_cfg(tmp_path, _tiny_ode(), "a.json")
    b = _write_cfg(tmp_path, dict(_tiny_pde(), name="tiny-pde-b"), "b.json")
    code = main(["batch", a, b, "--out", str(tmp_path / "out"), "--jobs", "2"])
    assert code == EXIT_OK
    assert (tmp_path / "out" / "tiny-simulate-ode" / "report.json").exists()
    assert (tmp_path / "out" / "tiny-pde-b" / "report.json").exists()
    out = capsys.readouterr().out
    assert "tiny-simulate-ode" in out and "tiny-pde-b" in out


def test_batch_rejects_duplicate_names(tmp_path, capsys):
    a = _write_cfg(tmp_path, _tiny_ode(), "a.json")
    b = _write_cfg(tmp_path, _tiny_ode(), "b.json")  # same scenario name
    assert main(["batch", a, b, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "distinct names" in capsys.readouterr().err


def test_batch_exits_with_worst_failure_class(tmp_path, capsys):
    # a numerical failure (v = 0 divides) listed before an I/O failure (a file
    # where the scenario directory should go): the I/O class wins
    a = _write_cfg(tmp_path, _tiny_ode(initial={"theta": 0.2, "v": 0.0}), "a.json")
    b = _write_cfg(tmp_path, dict(_tiny_pde(), name="blocked"), "b.json")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "blocked").write_text("not a directory")
    assert main(["batch", a, b, "--out", str(tmp_path / "out"), "--jobs", "1"]) == EXIT_IO
    err = capsys.readouterr().err
    assert "tiny-simulate-ode: FAILED" in err and "blocked: FAILED" in err


def test_batch_missing_config_is_io_error(tmp_path):
    a = _write_cfg(tmp_path, _tiny_ode(), "a.json")
    assert main(["batch", a, "/no/such.json",
                 "--out", str(tmp_path / "out")]) == EXIT_IO


# ---------------------------------------------------------------------------
#  property: validate accepts exactly what run can execute
# ---------------------------------------------------------------------------

_TINY = (_tiny_ode, lambda: _tiny_ode("optimize-ode"), _tiny_forecast, _tiny_pde,
         _tiny_riccati, _tiny_sweep)
_DELETE = object()
_ODD_VALUES = st.sampled_from([_DELETE, None, True, -1, 0, 0.5, 1, 2.5, 1e6, "x",
                               [], [1, 2], {}, {"kind": "constant"},
                               5e-324, 1e-310, 1e300, 1.7e308, -0.0])


def _leaves(data, prefix=()):
    for key, value in data.items():
        if isinstance(value, dict) and value:
            yield from _leaves(value, prefix + (key,))
        else:
            yield prefix + (key,)


def _mutated_value(draw, path):
    key = ".".join(path)
    if key == "time.T":
        return draw(st.one_of(st.floats(-0.1, 2.0), _ODD_VALUES))
    if key == "time.dt":
        return draw(st.one_of(st.floats(2e-3, 0.6), st.sampled_from([0.0, -0.01]),
                              _ODD_VALUES))
    if key == "grid.resolution":
        return draw(st.one_of(st.lists(st.integers(-1, 300), max_size=3), _ODD_VALUES))
    if key == "store_every":
        return draw(st.one_of(st.integers(-1, 60), _ODD_VALUES))
    return draw(_ODD_VALUES)


@st.composite
def _mutated_config(draw):
    data = json.loads(json.dumps(draw(st.sampled_from(_TINY))()))
    path = draw(st.sampled_from(sorted(_leaves(data))))
    value = _mutated_value(draw, path)
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return data


def _work(data) -> float:
    """steps x cells of a config, or 0 where it is not well-formed."""
    try:
        cells = int(np.prod(data["grid"]["resolution"])) if "grid" in data else 1
        steps = float(data["time"]["T"]) / float(data["time"]["dt"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return 0.0
    return abs(steps) * abs(cells)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=_mutated_config())
def test_mutated_configs_exit_cleanly_and_validate_agrees_with_run(data):
    assume(_work(data) <= 1e5)
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        path = os.path.join(tmp, "mutated.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        # an uncaught exception (a traceback) fails the test here
        validated = main(["validate", path])
        ran = main(["run", path, "--out", os.path.join(tmp, "out")])
        reports = glob.glob(os.path.join(tmp, "out", "*", "report.json"))
        costs = None
        if ran == EXIT_OK:
            with open(reports[0], "r", encoding="utf-8") as fh:
                costs = json.load(fh)["costs"]
    assert validated in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_IO)
    assert ran in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_IO)
    if validated == EXIT_OK:
        assert ran != EXIT_CONFIG
    if ran == EXIT_OK:  # a non-finite cost never exits 0
        assert all(math.isfinite(costs[k]) for k in ("controlled", "u_zero", "u_one"))
