"""Feedback law, coupled integration, shooting, and cost evaluation."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from anthractl import ode_control
from anthractl import (
    BangRegimeError,
    ConstantForcing,
    ControlSignal,
    CostSpec,
    GridMismatchError,
    HostState,
    ModelParams,
    ProportionalForcing,
    SampledPath,
    SeasonalForcing,
    ShootingError,
    eval_adjoint_rhs,
    eval_cost_JT,
    integrate_adjoint,
    integrate_coupled,
    integrate_ode,
    optimal_u_feedback,
    shoot_p0,
    solve_feedback_cubic,
)
from anthractl.host import DivisionGuardError, _normalize_control, time_grid


# ---------------------------------------------------------------------------
#  Cubic feedback law
# ---------------------------------------------------------------------------

def test_cubic_root_residual_and_range(rng):
    for _ in range(200):
        k = rng.uniform(0.05, 10.0)
        c3 = rng.uniform(0.0, 8.0 * k / 27.0 * 0.999)
        theta1 = rng.uniform(0.05, 0.95)
        w3 = solve_feedback_cubic(c3, k, theta1)
        assert 1.0 <= w3 <= min(1.5, 1.0 / (1.0 - theta1)) + 1e-12
        if w3 < min(1.5, 1.0 / (1.0 - theta1)):  # interior root: residual check
            assert abs(c3 * w3**3 - 2.0 * k * w3 + 2.0 * k) < 1e-10


def test_cubic_threshold_root_is_three_halves():
    # Substitution at the exact saturation threshold c3 = 8k/27:
    # g(3/2) = (27/8)c3 - 3k + 2k = k - k = 0, identically in k.
    for k in (0.3, 1.0, 4.7):
        c3 = 8.0 * k / 27.0
        assert abs(c3 * 1.5**3 - 2.0 * k * 1.5 + 2.0 * k) < 1e-15 * k
        # g'(3/2) = 0 at the threshold (double root), so a relative delta in
        # c3 moves the root by O(sqrt(delta)); 1e-12 below gives ~1e-6 slack.
        w3 = solve_feedback_cubic(c3 * (1.0 - 1e-12), k)
        assert w3 == pytest.approx(1.5, abs=1e-5)


def test_cubic_bang_regime_raises():
    with pytest.raises(BangRegimeError):
        solve_feedback_cubic(8.0 / 27.0, 1.0)  # exactly at the threshold
    with pytest.raises(BangRegimeError):
        solve_feedback_cubic(1.0, 1.0)


def test_cubic_zero_pressure_gives_unit_root():
    # c3 = 0: g(w) = 2k(1 - w), root w = 1, i.e. u = 0.
    assert solve_feedback_cubic(0.0, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert optimal_u_feedback(0.0, 0.5, 0.5, 0.6, 1.0) == 0.0


def test_feedback_saturates_and_is_monotone_in_pressure():
    theta1, k = 0.6, 1.0
    us = [optimal_u_feedback(a, 0.8, 0.9, theta1, k) for a in np.linspace(0.0, 12.0, 40)]
    assert us[0] == 0.0
    assert us[-1] == 1.0
    assert all(b >= a - 1e-12 for a, b in zip(us, us[1:]))


def test_feedback_discontinuity_for_large_theta1():
    # theta1 > 1/3: u jumps from (interior cap) to 1 across the threshold.
    theta1, k, theta, p = 0.6, 1.0, 0.9, 0.9
    c3_star = 8.0 * k / 27.0
    alpha_star = c3_star / (theta1**2 * theta * p)
    below = optimal_u_feedback(alpha_star * (1.0 - 1e-9), theta, p, theta1, k)
    above = optimal_u_feedback(alpha_star * (1.0 + 1e-9), theta, p, theta1, k)
    assert above == 1.0
    # interior branch tops out at u = (3/2-1)/(theta1*3/2) = 1/(3*theta1) = 5/9;
    # the root is double at the threshold, so 1e-9 below lands within ~1e-4
    assert below == pytest.approx(1.0 / (3.0 * theta1), abs=1e-4)
    assert above - below > 0.4  # genuine jump


@pytest.mark.parametrize("k", [0.0, -1.0, float("nan"), float("inf")])
def test_feedback_law_rejects_bad_k(k):
    # k <= 0 makes every pressure look saturating, so the weight is checked
    # before the branch test
    with pytest.raises(ValueError, match="k must be finite and > 0"):
        optimal_u_feedback(1.0, 0.5, 0.5, 0.5, k)
    with pytest.raises(ValueError, match="k must be finite and > 0"):
        solve_feedback_cubic(0.1, k)


def test_adjoint_rhs_value():
    # dp/dt = alpha*p/(1-theta1*u) - 2*theta
    assert eval_adjoint_rhs(0.0, 2.0, 0.25, 0.5, 3.0, 0.6) == \
        pytest.approx(3.0 * 2.0 / 0.7 - 0.5)


# ---------------------------------------------------------------------------
#  Coupled integration
# ---------------------------------------------------------------------------

def test_coupled_feedback_consistency(season_params, unit_cost):
    th, p, u = integrate_coupled(0.76, 0.2, season_params, unit_cost, T=1.0, dt=1e-3)
    # stored u must replay the feedback law at the stored (theta, p) nodes
    alpha = season_params.alpha
    for i in range(0, len(th.times), 97):
        expect = optimal_u_feedback(alpha(th.times[i], 0.0), th.values[i],
                                    p.values[i], season_params.theta1, unit_cost.k)
        assert u.values[i] == pytest.approx(expect, abs=1e-12)


def test_coupled_terminal_map_is_continuous(season_params, unit_cost):
    # Event location keeps p(T) continuous in p0 even though the feedback
    # law jumps; without it the map is a staircase and shooting stalls.
    p0s = np.linspace(0.7619, 0.7621, 9)
    pT = [integrate_coupled(p0, 0.2, season_params, unit_cost, 1.0, 1e-3)[1].values[-1]
          for p0 in p0s]
    gaps = np.abs(np.diff(pT))
    assert np.max(gaps) < 5e-4  # smooth variation across the switch region


def test_coupled_rejects_state_dependent_alpha(unit_cost):
    p = ModelParams.with_default_forcings(theta1=0.5, alpha=1.0)
    object.__setattr__(p, "alpha", lambda t, th: 1.0 + th)
    with pytest.raises(ValueError, match="time only"):
        integrate_coupled(0.5, 0.2, p, unit_cost, T=1.0, dt=0.01)
    # a proportional alpha has a kernel code but depends on theta
    p = ModelParams.with_default_forcings(theta1=0.5, alpha=ProportionalForcing(2.0))
    with pytest.raises(ValueError, match="time only"):
        integrate_coupled(0.5, 0.2, p, unit_cost, T=1.0, dt=0.01)


def test_coupled_rejects_alpha_negative_at_a_stage_time(unit_cost):
    # an opaque alpha is checked at the stage times the kernel reads it at:
    # negative only between grid nodes, it shows at the step midpoint 0.505
    p = ModelParams.with_default_forcings(
        theta1=0.5, alpha=lambda t, th: -1.0 if 0.503 < t < 0.507 else 1.0)
    with pytest.raises(ValueError, match="nonnegative on the horizon"):
        integrate_coupled(0.5, 0.2, p, unit_cost, T=1.0, dt=0.01)


def test_integrate_adjoint_reverses_forward(season_params, unit_cost):
    # forward state run under fixed u, then backward reconstruction
    u_const = 0.3
    traj = integrate_ode(season_params, u_const, HostState(0.2, 0.5, 0.0),
                         T=1.0, dt=1e-3)
    th_b, p_b = integrate_adjoint(float(traj.theta[-1]), season_params,
                                  unit_cost, u_const, 0.0, 1.0, 1e-3)
    assert th_b.values[0] == pytest.approx(0.2, abs=1e-9)
    assert p_b.values[-1] == pytest.approx(1.0)  # f(theta)=theta => f'=1


def _unrolled_adjoint(theta_T, params, cost, u, t0, T, dt):
    """integrate_adjoint's backward RK4 with its four stages written out."""
    n, h, times = time_grid(t0, T, dt)
    u_fn = _normalize_control(u)
    alpha_fn = ode_control._time_only_alpha(params)
    theta1 = params.theta1

    def rhs(t, a, b):
        al = alpha_fn(t)
        uv = float(u_fn(t))
        floor = 1.0 - theta1 * uv
        if floor <= 0.0:
            raise DivisionGuardError(f"1 - theta1*u = {floor} <= 0 at t = {t}")
        return al * (1.0 - a / floor), al * b / floor - 2.0 * a

    th = np.empty(n + 1)
    p = np.empty(n + 1)
    th[n] = theta_T
    p[n] = cost.terminal_f_prime(theta_T)
    for i in range(n, 0, -1):
        t = times[i]
        a, b = th[i], p[i]
        d1a, d1b = rhs(t, a, b)
        d2a, d2b = rhs(t - 0.5 * h, a - 0.5 * h * d1a, b - 0.5 * h * d1b)
        d3a, d3b = rhs(t - 0.5 * h, a - 0.5 * h * d2a, b - 0.5 * h * d2b)
        d4a, d4b = rhs(t - h, a - h * d3a, b - h * d3b)
        th[i - 1] = a - (h / 6.0) * (d1a + 2.0 * d2a + 2.0 * d3a + d4a)
        p[i - 1] = b - (h / 6.0) * (d1b + 2.0 * d2b + 2.0 * d3b + d4b)
    return th, p


@pytest.mark.parametrize("alpha", [ConstantForcing(1.3),
                                   SeasonalForcing(a=3.7, b=0.75, c=0.3)])
def test_integrate_adjoint_is_the_unrolled_backward_rk4(alpha, rng):
    # the step -h through the shared RK4 step keeps every bit of the
    # stages written with t - h/2 and y - h/2*d
    params = ModelParams.with_default_forcings(theta1=0.6, alpha=alpha)
    cost = CostSpec(k=0.8, terminal_f=lambda x: x * x, terminal_f_prime=lambda x: 2.0 * x)
    knots = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 9)]))
    u = ControlSignal(times=knots, values=rng.uniform(0.0, 1.0, knots.size))
    th_b, p_b = integrate_adjoint(0.43, params, cost, u, 0.0, 1.0, 1.0 / 700)
    th_r, p_r = _unrolled_adjoint(0.43, params, cost, u, 0.0, 1.0, 1.0 / 700)
    for got, ref in ((th_b.values, th_r), (p_b.values, p_r)):
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_integrate_adjoint_guard_names_the_stage_time(unit_cost):
    params = ModelParams.with_default_forcings(theta1=0.6, alpha=1.0)

    def u(t):  # 1 - theta1*u <= 0 once the backward march passes t = 0.4
        return 2.0 if t < 0.4 else 0.5

    with pytest.raises(DivisionGuardError) as got:
        integrate_adjoint(0.3, params, unit_cost, u, 0.0, 1.0, 0.03)
    with pytest.raises(DivisionGuardError) as ref:
        _unrolled_adjoint(0.3, params, unit_cost, u, 0.0, 1.0, 0.03)
    assert str(got.value) == str(ref.value)
    assert str(got.value).startswith("1 - theta1*u = -0.19")
    assert " <= 0 at t = 0.3" in str(got.value)


# ---------------------------------------------------------------------------
#  Shooting
# ---------------------------------------------------------------------------

def test_shoot_low_initial_inhibition(season_params, unit_cost):
    sol = shoot_p0(0.2, season_params, unit_cost, T=1.0, dt=1e-3)
    assert sol.residual < 1e-8
    assert sol.p0 == pytest.approx(0.7619851106, abs=1e-6)
    assert sol.cost == pytest.approx(0.7221961518, abs=1e-6)
    assert np.all(sol.control.values >= 0.0) and np.all(sol.control.values <= 1.0)


def test_shoot_high_initial_inhibition(season_params, unit_cost):
    sol = shoot_p0(0.5, season_params, unit_cost, T=1.0, dt=1e-3)
    assert sol.residual < 1e-8
    assert sol.p0 == pytest.approx(0.7308572096, abs=1e-6)
    assert sol.cost == pytest.approx(0.9324979805, abs=1e-6)


def test_shoot_reports_best_on_budget_exhaustion(season_params, unit_cost, monkeypatch):
    _, calls = _counted_shooting(monkeypatch)
    with pytest.raises(ShootingError) as err:
        shoot_p0(0.2, season_params, unit_cost, T=1.0, dt=1e-3, max_iter=3)
    # max_iter also caps the coarse stage, which finds no root in 3
    # evaluations, so the fine secant runs from {0, 1}
    assert [n for n, _, _ in calls] == [100] * 3 + [1000] * 3
    assert [p0 for n, p0, _ in calls if n == 1000][:2] == [0.0, 1.0]
    assert err.value.best_residual > 0.0
    assert 0.0 <= err.value.best_p0 <= 1.0
    # the best iterate here is the secant step: a plain float in the message
    assert type(err.value.best_p0) is float
    assert "np.float64" not in str(err.value)
    assert f"p0 = {err.value.best_p0!r}" in str(err.value)


def _counted_shooting(monkeypatch):
    """Spy on shoot_p0's grid setups and kernel calls: returns {step count:
    setups} and a list of (step count, p0, signed residual) per kernel call
    (the residual for f' = 1)."""
    from anthractl import _kernels

    setups, calls = {}, []
    setup, kernel = ode_control._coupled_setup, _kernels.coupled_rk4

    def counted_setup(*a, **kw):
        times, grid = setup(*a, **kw)
        setups[grid[2]] = setups.get(grid[2], 0) + 1
        return times, grid

    def counted_kernel(theta0, p0, *grid):
        out = kernel(theta0, p0, *grid)
        calls.append((grid[2], p0, float(out[1][-1] - 1.0)))
        return out

    monkeypatch.setattr(ode_control, "_coupled_setup", counted_setup)
    monkeypatch.setattr(_kernels, "coupled_rk4", counted_kernel)
    return setups, calls


def test_shoot_builds_grid_once_and_runs_kernel_per_evaluation(season_params, unit_cost,
                                                              monkeypatch):
    # each grid (the fine one and the 10x coarser one) and its alpha table is
    # set up once per solve; every secant evaluation of either stage is one
    # kernel call on its grid
    setups, calls = _counted_shooting(monkeypatch)
    sol = shoot_p0(0.2, season_params, unit_cost, T=1.0, dt=1e-3)
    assert sol.iterations > 2 and sol.coarse_evaluations > 2
    assert setups == {1000: 1, 100: 1}
    assert [n for n, _, _ in calls] == [100] * sol.coarse_evaluations + [1000] * sol.iterations
    # one signed residual, a plain float, per fine evaluation
    assert sol.shooting_residuals == [r for n, _, r in calls if n == 1000]
    assert {type(r) for r in sol.shooting_residuals} == {float}
    assert abs(sol.shooting_residuals[-1]) == sol.residual
    assert any(r < 0.0 for r in sol.shooting_residuals) \
        and any(r > 0.0 for r in sol.shooting_residuals)
    # the fine stage starts at the coarse root
    assert abs(calls[sol.coarse_evaluations - 1][2]) < ode_control._COARSE_TOL
    assert calls[sol.coarse_evaluations][1] == calls[sol.coarse_evaluations - 1][1]


def _single_stage_cost(theta0, params, cost, T, dt):
    """The cost of the fine-grid secant seeded with p0 in {0, 1}."""
    times, grid = ode_control._coupled_setup(params, cost, T, dt, 0.0)
    found, _, _, out, _, _ = ode_control._secant(
        ode_control._residual(theta0, cost, grid, []), 0.0, math.nan, 1e-8, 100)
    assert found
    th, _, u = ode_control._coupled_paths(times, out[0], out[1], out[2])
    return ode_control.eval_cost_JT(u, th, cost, grid[1])


def test_shoot_runs_the_coarse_stage_on_a_short_grid(season_params, unit_cost, monkeypatch):
    # 100 steps: the coarse stage runs on 10
    setups, calls = _counted_shooting(monkeypatch)
    sol = shoot_p0(0.2, season_params, unit_cost, T=1.0, dt=1e-2)
    assert setups == {100: 1, 10: 1} and sol.coarse_evaluations > 2
    assert [n for n, _, _ in calls] == [10] * sol.coarse_evaluations + [100] * sol.iterations
    assert sol.residual < 1e-8
    monkeypatch.undo()
    assert sol.cost == pytest.approx(
        _single_stage_cost(0.2, season_params, unit_cost, 1.0, 1e-2), rel=1e-8, abs=0.0)


def test_shoot_skips_the_coarse_stage_below_one_coarse_step(season_params, unit_cost,
                                                            monkeypatch):
    # 9 steps make no coarse grid: one grid, seeded with {0, 1}
    setups, calls = _counted_shooting(monkeypatch)
    sol = shoot_p0(0.2, season_params, unit_cost, T=1.0, dt=1.0 / 9)
    assert sol.coarse_evaluations == 0 and setups == {9: 1}
    assert [p0 for _, p0, _ in calls[:2]] == [0.0, 1.0]
    assert len(calls) == sol.iterations and sol.residual < 1e-8


def test_shooting_error_carries_the_fine_grid_best_iterate(season_params, unit_cost,
                                                           monkeypatch):
    # the coarse stage converges; tol = 0 can never be met on the fine grid
    setups, calls = _counted_shooting(monkeypatch)
    with pytest.raises(ShootingError) as err:
        shoot_p0(0.2, season_params, unit_cost, T=1.0, dt=1e-3, tol=0.0, max_iter=12)
    coarse = [c for c in calls if c[0] == 100]
    fine = [c for c in calls if c[0] == 1000]
    assert abs(coarse[-1][2]) < ode_control._COARSE_TOL and len(fine) == 12
    _, best_p0, best_r = min(fine, key=lambda c: abs(c[2]))
    assert (err.value.best_p0, err.value.best_residual) == (best_p0, abs(best_r))
    assert type(err.value.best_p0) is float
    assert "in 12 evaluations" in str(err.value)


# 914/ode-07 of the ode_shooting benchmark: no p0 meets 1e-8 on either grid
_NO_ROOT_DRAW = {"theta1": 0.5457, "a": 3.073057, "b": 0.688099, "c": 0.312783,
                 "theta0": 0.252109, "k": 0.876416}


def test_coarse_budget_caps_a_draw_that_does_not_converge(monkeypatch):
    d = _NO_ROOT_DRAW
    params = ModelParams.with_default_forcings(
        theta1=d["theta1"], alpha=SeasonalForcing(a=d["a"], b=d["b"], c=d["c"]))
    cost = CostSpec(k=d["k"])
    max_iter = 24
    setups, calls = _counted_shooting(monkeypatch)
    with pytest.raises(ShootingError) as err:
        shoot_p0(d["theta0"], params, cost, T=1.0, dt=1e-3, max_iter=max_iter)
    cap = ode_control._COARSE_MAX_EVALUATIONS
    assert [n for n, _, _ in calls] == [100] * cap + [1000] * max_iter
    # the coarse stage missed its budget, so the fine secant ran from {0, 1}
    # and failed exactly as a single-stage solve does
    monkeypatch.undo()
    times, grid = ode_control._coupled_setup(params, cost, 1.0, 1e-3, 0.0)
    found, p0, r, _, evaluations, _ = ode_control._secant(
        ode_control._residual(d["theta0"], cost, grid, []), 0.0, math.nan,
        1e-8, max_iter)
    assert not found and evaluations == max_iter
    assert (err.value.best_p0, err.value.best_residual) == (p0, abs(r))


def _sha256(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def _bundled_plan(name):
    from anthractl.cli import parse_config, resolve_config_path

    return parse_config(resolve_config_path(name)).plan


# p0 and the sha256 of the theta, p and u arrays of the bundled shooting
# scenarios as the single-stage secant seeded with p0 in {0, 1} finds them,
# recorded before the coupled kernel read alpha from a per-step table and
# remembered its last root; both changes keep every bit.
_PINNED_SHOOTING = {
    "fig1": ("0x1.8622e993f96bbp-1", 8,
             "d11dfc988c004adaf9fa82d5039e2b4cc5a64ee56ab36f1f5a508639c7cf5fce",
             "184eae6e1fc7b119363fb7ef67856ffc5bdc3cf7bfc1c6f914bab3b95879c7a0",
             "69af103914996748aa1cc0de9b87c00ca09e7bcdacf1b990b3c21a35e0144a88"),
    "fig3": ("0x1.7632ea8ab7847p-1", 7,
             "003fa7a8dda75f2a78c1fd0a0410d5867ec83a977a65a481c53cfd702900465f",
             "81c966989986a28db7b50e3c9eadfdab2031bfa6921d034089ce8a7ced97622b",
             "5b2d548f757292880c35dc8e292ca163fbf5fbf28893cdcd5b489bcabf51da56"),
}

# The same for shoot_p0's two-stage solve: p0, fine and coarse evaluations
# and the three sha256.
_PINNED_TWO_STAGE = {
    "fig1": ("0x1.8622e993b5e1ap-1", 3, 8,
             "441400c08e1f4e73e822b1b2eb59380a674fd881adbb894a2fb3f284879fd266",
             "ee34ff821d6ea0d01ccda610d4022c13b3daf09f83f2c223219193271df7b8f5",
             "820f113a0e267476209efbc73fb1a787bdd84cee720bf30038ae8876e45fb578"),
    "fig3": ("0x1.7632ea8aaa167p-1", 3, 7,
             "4f62827fd6856d0e6f05255bf12d053dc0d2f0db62fa5489169c69e8f0958dba",
             "d930198140e8628cde90630e615b81d3263e328e9ee4ae2a1e6586caadb8657e",
             "123d8737fafba7ec7386e113f6702a421cc41461a73056704a8758364bcca02e"),
}

# The single-stage solve's costs (see _PINNED_SHOOTING).
_SINGLE_STAGE_COST = {"fig1": 0.7221961518291484, "fig3": 0.9324979804633473}


@pytest.mark.parametrize("name", sorted(_PINNED_SHOOTING))
def test_shooting_bits_pinned_on_bundled_scenarios(name):
    plan = _bundled_plan(name)
    tol, max_iter = plan.shooting
    _, grid = ode_control._coupled_setup(plan.params, plan.cost, plan.T, plan.h, 0.0)
    found, p0, _, out, evaluations, _ = ode_control._secant(
        ode_control._residual(plan.x0.theta, plan.cost, grid, []), 0.0,
        math.nan, tol, max_iter)
    p0_hex, iterations, theta_sha, p_sha, u_sha = _PINNED_SHOOTING[name]
    assert found and (p0.hex(), evaluations) == (p0_hex, iterations)
    assert _sha256(out[0]) == theta_sha
    assert _sha256(out[1]) == p_sha
    assert _sha256(np.clip(out[2], 0.0, 1.0)) == u_sha


@pytest.mark.parametrize("name", sorted(_PINNED_TWO_STAGE))
def test_two_stage_shooting_bits_pinned_on_bundled_scenarios(name):
    plan = _bundled_plan(name)
    tol, max_iter = plan.shooting
    sol = shoot_p0(plan.x0.theta, plan.params, plan.cost, T=plan.T, dt=plan.h,
                   tol=tol, max_iter=max_iter)
    p0_hex, iterations, coarse, theta_sha, p_sha, u_sha = _PINNED_TWO_STAGE[name]
    assert (sol.p0.hex(), sol.iterations, sol.coarse_evaluations) == (p0_hex, iterations,
                                                                      coarse)
    assert _sha256(sol.theta_path.values) == theta_sha
    assert _sha256(sol.adjoint_path.values) == p_sha
    assert _sha256(sol.control.values) == u_sha
    # within 1e-9 (relative) of the single-stage solve's cost
    assert sol.cost == pytest.approx(_SINGLE_STAGE_COST[name], rel=1e-9, abs=0.0)


def test_opaque_alpha_shoots_like_the_seasonal_forcing():
    # fig1's seasonal alpha behind a lambda: the coupled kernel calls it at
    # the same stage and switch times as the seasonal closure, so shooting
    # finds the same p0 in the same evaluations, with the same paths
    plan = _bundled_plan("fig1")
    tol, max_iter = plan.shooting
    seasonal = plan.params.alpha
    hidden = dataclasses.replace(plan.params, alpha=lambda t, theta: seasonal(t, theta))
    packed, opaque = (shoot_p0(plan.x0.theta, params, plan.cost, T=plan.T, dt=plan.h,
                               tol=tol, max_iter=max_iter)
                      for params in (plan.params, hidden))
    assert packed.p0.hex() == _PINNED_TWO_STAGE["fig1"][0]
    for name in ("p0", "cost", "residual", "iterations", "coarse_evaluations",
                 "shooting_residuals", "switch_events", "event_cap_hits", "grazing_exits"):
        assert getattr(opaque, name) == getattr(packed, name), name
    for name in ("control", "theta_path", "adjoint_path"):
        assert np.array_equal(getattr(opaque, name).values, getattr(packed, name).values)


def test_shoot_constant_alpha_zero_control():
    # alpha=0: no infection pressure, optimal control is u=0 everywhere and
    # theta stays put; p(T)=f'(theta)=1.
    p = ModelParams.with_default_forcings(theta1=0.5, alpha=0.0)
    sol = shoot_p0(0.3, p, CostSpec(k=1.0), T=1.0, dt=1e-3)
    assert np.max(sol.control.values) == 0.0
    assert sol.theta_path.values[-1] == pytest.approx(0.3, abs=1e-12)


# ---------------------------------------------------------------------------
#  Cost evaluation
# ---------------------------------------------------------------------------

def test_cost_hand_value():
    times = np.linspace(0.0, 1.0, 1001)
    u = ControlSignal(times=times, values=np.full(1001, 0.5))
    th = SampledPath(times=times, values=np.full(1001, 0.2))
    # integral(k*0.25 + 0.04) dt + f(0.2) = 2*0.25 + 0.04 + 0.2
    cost = CostSpec(k=2.0)
    assert eval_cost_JT(u, th, cost, 1e-3) == pytest.approx(0.74, abs=1e-12)


def test_cost_terminal_override():
    times = np.linspace(0.0, 1.0, 11)
    u = ControlSignal(times=times, values=np.zeros(11))
    th = SampledPath(times=times, values=np.full(11, 0.4))
    cost = CostSpec(k=1.0, terminal_f=lambda th_: 10.0 * th_,
                    terminal_f_prime=lambda th_: 10.0)
    val = eval_cost_JT(u, th, cost, 0.1)
    assert val == pytest.approx(0.16 + 4.0, abs=1e-12)


def test_cost_grid_mismatch_raises():
    u = ControlSignal(times=np.linspace(0.0, 1.0, 11), values=np.zeros(11))
    th = SampledPath(times=np.linspace(0.0, 1.0, 21), values=np.zeros(21))
    with pytest.raises(GridMismatchError):
        eval_cost_JT(u, th, CostSpec(k=1.0), 0.1)
    th2 = SampledPath(times=np.linspace(0.0, 1.0, 11), values=np.zeros(11))
    with pytest.raises(GridMismatchError):
        eval_cost_JT(u, th2, CostSpec(k=1.0), 0.05)  # wrong declared dt


def test_cost_spec_validation():
    with pytest.raises(ValueError):
        CostSpec(k=0.0)
    with pytest.raises(ValueError):
        CostSpec(k=-1.0)
