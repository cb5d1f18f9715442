"""Within-host model: forcings, parameter validation, integration, region."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anthractl import (
    AsiCoefficients,
    ConstantForcing,
    ControlSignal,
    DivisionGuardError,
    HostState,
    ModelParams,
    ProportionalForcing,
    SampledPath,
    SeasonalForcing,
    SeverityForcing,
    WeatherSeries,
    check_region,
    eval_rhs,
    integrate_ode,
    integrate_ode_batch,
    seasonal_alpha,
    validate_forcings,
)
from anthractl import _kernels


# ---------------------------------------------------------------------------
#  Forcings
# ---------------------------------------------------------------------------

def test_seasonal_forcing_shape():
    f = SeasonalForcing(a=4.0, b=0.75, c=0.2)
    # vanishes at the phase time and at integer multiples of the period
    assert f(0.75) == 0.0
    assert abs(f(0.4)) < 1e-12
    assert f(0.5) > 0.0


@settings(max_examples=300, deadline=None)
@given(a=st.floats(0.0, 10.0), b=st.floats(0.0, 1.0),
       c=st.floats(0.01, 1.0), t=st.floats(-1.0, 2.0))
@example(a=3.7, b=0.75, c=0.3, t=0.02)  # where (t-b)**2 rounds apart from (t-b)*(t-b)
def test_seasonal_forcing_is_the_kernels_closure(a, b, c, t):
    # one seasonal formula: the forcing, seasonal_alpha and the kernels'
    # closure agree bit for bit
    f = SeasonalForcing(a=a, b=b, c=c)
    kernel = _kernels._time_rate(_kernels.FORCING_SEASONAL, a, b, c)
    assert seasonal_alpha(f, t) == f(t) == kernel(t)


def test_seasonal_forcing_validation():
    with pytest.raises(ValueError):
        SeasonalForcing(a=-1.0, b=0.5, c=0.2)
    with pytest.raises(ValueError):
        SeasonalForcing(a=1.0, b=1.5, c=0.2)
    with pytest.raises(ValueError):
        SeasonalForcing(a=1.0, b=0.5, c=0.0)


def test_constant_and_proportional_forcings():
    assert ConstantForcing(2.5)(3.7) == 2.5
    assert ProportionalForcing(0.1)(0.0, 0.4) == pytest.approx(0.04)
    assert ProportionalForcing(0.1)(9.9, 0.0) == 0.0
    with pytest.raises(ValueError):
        ConstantForcing(-0.1)
    with pytest.raises(ValueError):
        ProportionalForcing(-1.0)


def test_validate_forcings_flags_bad_gamma():
    p = ModelParams(theta1=0.5, theta2=1.0, v_max=1.0,
                    alpha=ConstantForcing(1.0), beta=ConstantForcing(0.5),
                    gamma=ConstantForcing(0.2),  # does not vanish at theta=0
                    eta=ConstantForcing(1.0))
    with pytest.raises(ValueError, match="gamma"):
        validate_forcings(p)


def test_validate_forcings_accepts_defaults(season_params):
    validate_forcings(season_params)


# ---------------------------------------------------------------------------
#  Parameters and state containers
# ---------------------------------------------------------------------------

def test_params_validation():
    mk = ModelParams.with_default_forcings
    with pytest.raises(ValueError):
        mk(theta1=1.0)         # must stay below 1
    with pytest.raises(ValueError):
        mk(theta1=-0.1)
    with pytest.raises(ValueError):
        mk(theta1=0.5, theta2=0.0)
    with pytest.raises(ValueError):
        mk(theta1=0.5, v_max=0.0)
    with pytest.raises(ValueError):
        mk(theta1=0.5, eta0=1.5)  # eta must stay within (0, theta2]


def test_control_signal_bounds_and_interp():
    u = ControlSignal(times=np.array([0.0, 1.0]), values=np.array([0.0, 1.0]))
    assert u(0.5) == pytest.approx(0.5)
    assert u(-1.0) == 0.0 and u(2.0) == 1.0  # constant extension
    with pytest.raises(ValueError):
        ControlSignal(times=np.array([0.0, 1.0]), values=np.array([0.0, 1.5]))
    with pytest.raises(ValueError):
        ControlSignal(times=np.array([0.0, 0.1]), values=np.array([0.0, 1.0]),
                      lipschitz_bound=2.0)  # slope 10 > 2


def test_sampled_path_validation():
    with pytest.raises(ValueError):
        SampledPath(times=np.array([0.0, 0.0]), values=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        SampledPath(times=np.array([[0.0]]), values=np.array([[1.0]]))


# ---------------------------------------------------------------------------
#  Vector field guards
# ---------------------------------------------------------------------------

def test_eval_rhs_guards(season_params):
    p = season_params
    with pytest.raises(DivisionGuardError):
        eval_rhs(0.0, HostState(0.5, 0.5, 0.0), 2.0, p)  # 1 - 0.6*2 < 0
    with pytest.raises(DivisionGuardError):
        eval_rhs(0.0, HostState(1.0, 0.5, 0.0), 0.0, p)
    with pytest.raises(DivisionGuardError):
        eval_rhs(0.0, HostState(0.5, 0.0, 0.0), 0.0, p)


def test_integration_guard_aborts():
    # theta1=0.9 and u=1 keeps the floor positive; u above 1/theta1 would not
    # even construct as a ControlSignal, so drive the guard through a callable.
    p = ModelParams.with_default_forcings(theta1=0.9, alpha=1.0)
    with pytest.raises(DivisionGuardError):
        integrate_ode(p, lambda t: 1.2, HostState(0.2, 0.5, 0.0), T=1.0, dt=0.01)


# ---------------------------------------------------------------------------
#  Integration accuracy (frozen against a high-order adaptive run)
# ---------------------------------------------------------------------------

def test_uncontrolled_seasonal_run_matches_reference(season_params, season_x0):
    # Expected values computed with an independent 8th-order adaptive
    # integrator (rtol=1e-12, atol=1e-14); RK4 at dt=1e-3 agrees to ~4e-12.
    traj = integrate_ode(season_params, 0.0, season_x0, T=1.0, dt=1e-3)
    assert traj.theta[-1] == pytest.approx(0.549938567990, abs=1e-9)
    assert traj.v[-1] == pytest.approx(0.492531079622, abs=1e-9)
    assert traj.v_r[-1] == pytest.approx(0.046060452279, abs=1e-9)


def test_full_control_lowers_theta(season_params, season_x0):
    free = integrate_ode(season_params, 0.0, season_x0, T=1.0, dt=1e-3)
    held = integrate_ode(season_params, 1.0, season_x0, T=1.0, dt=1e-3)
    assert held.theta[-1] < free.theta[-1]
    # theta under full control stays below the uncontrolled path pointwise
    assert np.all(held.theta <= free.theta + 1e-12)


def test_constant_alpha_closed_form():
    # With u=0 and alpha constant, theta(t) = 1 - (1-theta0) e^{-alpha t}.
    p = ModelParams.with_default_forcings(theta1=0.5, alpha=2.0)
    traj = integrate_ode(p, 0.0, HostState(0.3, 0.5, 0.0), T=1.0, dt=1e-3)
    expected = 1.0 - 0.7 * np.exp(-2.0 * traj.times)
    assert np.max(np.abs(traj.theta - expected)) < 1e-10


def test_time_grid_and_trajectory_api(season_params, season_x0):
    traj = integrate_ode(season_params, 0.0, season_x0, T=1.0, dt=0.25)
    assert len(traj) == 5
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(1.0)
    assert traj.state(0).theta == season_x0.theta
    assert traj.final.theta == traj.theta[-1]


def test_callable_control_matches_sampled(season_params, season_x0):
    times = np.linspace(0.0, 1.0, 1001)
    u_fn = lambda t: 0.5 * (1.0 + np.sin(2.0 * np.pi * t)) / 2.0  # noqa: E731
    u_sampled = ControlSignal(times=times, values=np.array([u_fn(t) for t in times]))
    a = integrate_ode(season_params, u_fn, season_x0, T=1.0, dt=1e-3)
    b = integrate_ode(season_params, u_sampled, season_x0, T=1.0, dt=1e-3)
    # knot values agree exactly; the sampled path linearizes the half-step
    # stage values, an O(dt^2) difference (measured ~1e-7 for this sine)
    assert np.max(np.abs(a.theta - b.theta)) < 1e-6


# ---------------------------------------------------------------------------
#  Batch integration
# ---------------------------------------------------------------------------

def test_batch_matches_single(rng):
    m = 8
    params, controls, x0s = [], [], []
    knots = np.linspace(0.0, 1.0, 11)
    for i in range(m):
        theta1 = rng.uniform(0.1, 0.9)
        params.append(ModelParams.with_default_forcings(
            theta1=theta1,
            alpha=SeasonalForcing(a=rng.uniform(0.5, 5.0), b=rng.uniform(0.0, 1.0),
                                  c=rng.uniform(0.1, 1.0))))
        controls.append(ControlSignal(times=knots, values=rng.uniform(0.0, 1.0, 11)))
        x0s.append(HostState(rng.uniform(0.05, 0.8), rng.uniform(0.2, 0.9), 0.0))
    batch = integrate_ode_batch(params, controls, x0s, 0.0, 1.0, 1e-3)
    # both kernels interpolate the control alike, but the vectorized one
    # evaluates the seasonal forcing with np.cos instead of math.cos
    for p, u, x0, tb in zip(params, controls, x0s, batch):
        ts = integrate_ode(p, u, x0, 0.0, 1.0, 1e-3)
        for got, ref in ((tb.theta, ts.theta), (tb.v, ts.v), (tb.v_r, ts.v_r)):
            assert np.max(np.abs(got - ref)) < 1e-12


def test_batch_runs_kernel_on_nonuniform_knots(rng, monkeypatch):
    # a common but unevenly spaced knot grid still takes the batch kernel
    knots = np.array([0.0, 0.05, 0.2, 0.23, 0.5, 0.9, 1.0])
    params, controls, x0s = [], [], []
    for _ in range(4):
        params.append(ModelParams.with_default_forcings(
            theta1=rng.uniform(0.1, 0.9),
            alpha=SeasonalForcing(a=rng.uniform(0.5, 5.0), b=rng.uniform(0.0, 1.0),
                                  c=rng.uniform(0.1, 1.0))))
        controls.append(ControlSignal(times=knots, values=rng.uniform(0.0, 1.0, knots.size)))
        x0s.append(HostState(rng.uniform(0.05, 0.8), rng.uniform(0.2, 0.9), 0.0))
    controls.append(0.4)  # a constant rides along on the same knots
    params.append(params[0])
    x0s.append(x0s[0])
    kernel = _kernels.host_rk4_batch
    lanes = []

    def counted(x0, *rest):
        lanes.append(x0.shape[0])
        return kernel(x0, *rest)

    monkeypatch.setattr(_kernels, "host_rk4_batch", counted)
    batch = integrate_ode_batch(params, controls, x0s, 0.0, 1.0, 1e-3)
    assert lanes == [5]
    for p, u, x0, tb in zip(params, controls, x0s, batch):
        ts = integrate_ode(p, u, x0, 0.0, 1.0, 1e-3)
        for got, ref in ((tb.theta, ts.theta), (tb.v, ts.v), (tb.v_r, ts.v_r)):
            assert np.max(np.abs(got - ref)) < 1e-12


def test_batch_of_no_scenarios():
    assert integrate_ode_batch([], [], [], 0.0, 1.0, 0.01) == []
    with pytest.raises(ValueError):
        integrate_ode_batch([], [], [], 1.0, 1.0, 0.01)


def test_batch_falls_back_on_opaque_control(season_params, season_x0):
    out = integrate_ode_batch([season_params], [0.3], [season_x0], 0.0, 1.0, 0.01)
    ref = integrate_ode(season_params, 0.3, season_x0, 0.0, 1.0, 0.01)
    assert np.allclose(out[0].theta, ref.theta, atol=1e-14)


def test_batch_falls_back_on_severity_alpha(season_params, season_x0, monkeypatch):
    # a SeverityForcing alpha packs as stage rows, which only the single
    # kernel reads: the whole batch falls back to integrate_ode, bit for bit
    weather = WeatherSeries(times=np.array([0.0, 0.5, 1.0]),
                            temperature=np.array([18.0, 24.0, 21.0]),
                            wetness=np.array([2.0, 5.0, 3.0]),
                            humidity=np.array([80.0, 85.0, 90.0]))
    severity = SeverityForcing(weather, "asi", AsiCoefficients(a0=1.0, a01=0.05),
                               scale=2.0)
    params = [ModelParams.with_default_forcings(theta1=0.6, alpha=severity), season_params]
    controls = [0.3, ControlSignal.constant(0.2)]
    monkeypatch.setattr(_kernels, "host_rk4_batch", None)  # never reached
    out = integrate_ode_batch(params, controls, [season_x0] * 2, 0.0, 1.0, 0.01)
    for p, u, tb in zip(params, controls, out):
        ref = integrate_ode(p, u, season_x0, 0.0, 1.0, 0.01)
        for name in ("theta", "v", "v_r"):
            assert np.array_equal(getattr(tb, name), getattr(ref, name))


# ---------------------------------------------------------------------------
#  Region membership
# ---------------------------------------------------------------------------

def test_check_region_classification(season_params):
    p = season_params
    inside = check_region(HostState(0.3, 0.5, 0.1), p)
    assert inside.in_S and inside.in_BS
    assert not inside.violated_constraints

    above_vmax = check_region(HostState(0.3, 1.5, 0.1), p)
    assert above_vmax.in_S and not above_vmax.in_BS
    assert "v_le_vmax" in above_vmax.violated_constraints

    negative = check_region(HostState(-0.2, 0.5, 0.1), p)
    assert not negative.in_S and not negative.in_BS


def test_trajectory_stays_in_bounded_region(season_params, season_x0):
    traj = integrate_ode(season_params, 0.5, season_x0, T=1.0, dt=1e-3)
    for i in range(0, len(traj), 100):
        rep = check_region(traj.state(i), season_params, tol=1e-9)
        assert rep.in_BS, rep.violated_constraints
