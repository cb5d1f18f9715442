"""
Optimal control of the within-host inhibition dynamics.

The running cost is k*u^2 + theta^2 with a terminal cost f(theta(T)).  The
control that minimizes the pointwise Hamiltonian satisfies a cubic equation
in the auxiliary variable w = 1/(1 - theta1*u):

    c3*w^3 - 2k*w + 2k = 0,    c3 = alpha*theta1^2*theta*p,

whose relevant root lies in [1, min(3/2, 1/(1-theta1))]; when 27*c3 >= 8k the
cubic has no usable nonnegative root and the control saturates at u = 1.  The
adjoint p runs backward from p(T) = f'(theta(T)); a shooting iteration on
p(0) closes the two-point boundary value problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

import numpy as np

from . import _kernels
from .host import (
    ControlSignal,
    DivisionGuardError,
    ModelParams,
    SampledPath,
    Trajectory,
    _normalize_control,
    _pack_forcing,
    time_grid,
)

__all__ = [
    "BangRegimeError",
    "ShootingError",
    "GridMismatchError",
    "CostSpec",
    "OptimalSolution",
    "solve_feedback_cubic",
    "optimal_u_feedback",
    "eval_adjoint_rhs",
    "integrate_coupled",
    "integrate_adjoint",
    "shoot_p0",
    "eval_cost_JT",
]


class BangRegimeError(ValueError):
    """27*c3 >= 8k: the cubic has no usable nonnegative root; the control is u = 1."""


class ShootingError(RuntimeError):
    """Shooting failed to meet its tolerance within the iteration budget."""

    def __init__(self, message: str, best_p0: float, best_residual: float):
        super().__init__(message)
        self.best_p0 = best_p0
        self.best_residual = best_residual

    def __reduce__(self):
        # unpickling calls the class with these arguments, not with self.args
        return type(self), (self.args[0], self.best_p0, self.best_residual)


class GridMismatchError(ValueError):
    """Two sampled paths that must share a grid do not."""


# ---------------------------------------------------------------------------
#  Cost specification
# ---------------------------------------------------------------------------

def _identity(theta: float) -> float:
    return theta


def _one(theta: float) -> float:
    return 1.0


@dataclass(frozen=True)
class CostSpec:
    """Cost functional spec: integral of k*u^2 + theta^2 plus terminal f(theta(T)).

    ``terminal_f_prime`` must be the derivative of ``terminal_f``; consistency
    is checked by central differences on a few sample points at construction.
    Defaults give f(theta) = theta, f' = 1.
    """

    k: float
    terminal_f: Callable[[float], float] = _identity
    terminal_f_prime: Callable[[float], float] = _one

    def __post_init__(self) -> None:
        _check_k(self.k)
        delta = 1e-5
        for th in (0.1, 0.35, 0.6, 0.85):
            fd = (self.terminal_f(th + delta) - self.terminal_f(th - delta)) / (2.0 * delta)
            fp = self.terminal_f_prime(th)
            if abs(fd - fp) > 1e-6 * max(1.0, abs(fp)):
                raise ValueError(
                    f"terminal_f_prime inconsistent with terminal_f at theta={th}: "
                    f"finite difference {fd} vs derivative {fp}")


@dataclass(frozen=True)
class OptimalSolution:
    """Result of the shooting method.

    ``control``, ``theta_path`` and ``adjoint_path`` share one time grid.
    ``residual`` is |p(T) - f'(theta(T))| at the returned p0, and
    ``shooting_residuals`` holds the signed residual of every fine-grid
    evaluation, in order, and ``coarse_evaluations`` counts the evaluations
    of the coarse stage that seeded them (0 when it did not run).  The three
    event fields count, on the returned trajectory, the switch events the
    coupled integration located, the steps that hit its cap of 16 events,
    and the steps whose crossing grazed the switching surface (kept on the
    frozen branch).
    """

    control: ControlSignal
    theta_path: SampledPath
    adjoint_path: SampledPath
    cost: float
    p0: float
    residual: float
    iterations: int
    switch_events: int = 0
    event_cap_hits: int = 0
    grazing_exits: int = 0
    shooting_residuals: list = field(default_factory=list)
    coarse_evaluations: int = 0


# ---------------------------------------------------------------------------
#  Feedback law
# ---------------------------------------------------------------------------

def _check_k(k: float) -> None:
    """The feedback law's cost weight k must be finite and > 0."""
    if not 0.0 < k < math.inf:
        raise ValueError(f"k must be finite and > 0, got {k}")


def solve_feedback_cubic(c3: float, k: float, theta1: Optional[float] = None) -> float:
    """Solve c3*w^3 - 2k*w + 2k = 0 for the feedback multiplier w3.

    Returns the point of [1, min(3/2, 1/(1-theta1))] nearest to the smallest
    nonnegative real root (the upper cap is 3/2 alone when theta1 is None).
    The root comes from the integration kernels' solver, so it is the value
    the coupled integration uses, bisected to a bracket of width 1e-15.

    Raises BangRegimeError when 27*c3 >= 8k — there is no usable nonnegative
    root and the caller must saturate the control at u = 1.
    """
    _check_k(k)
    if 27.0 * c3 >= 8.0 * k:
        raise BangRegimeError(
            f"27*c3 = {27.0 * c3} >= 8k = {8.0 * k}: bang regime, set u = 1")
    cap = 1.5
    if theta1 is not None:
        if not 0.0 <= theta1 < 1.0:
            raise ValueError(f"theta1 must be in [0, 1), got {theta1}")
        cap = min(cap, 1.0 / (1.0 - theta1))
    if not math.isfinite(c3):
        raise ValueError(f"c3 must be finite, got {c3}")
    if c3 <= 0.0:
        # g(1) = c3 <= 0 while g(0) = 2k > 0: the root lies in (0, 1].
        return 1.0
    return min(_kernels._feedback_root(c3, k), cap)


def optimal_u_feedback(alpha_t: float, theta: float, p: float,
                       theta1: float, k: float) -> float:
    """Pointwise optimal control: u = 1 when 27*alpha*theta1^2*theta*p >= 8k,
    otherwise the kernels' interior law _kernels._u_law: u = (w3 - 1)/(theta1*w3)
    with w3 from solve_feedback_cubic, clamped to [0, 1] to absorb roundoff.
    The sweep's pointwise feedback is this law on arrays."""
    _check_k(k)
    if theta1 <= 0.0:
        # Control has no effect on the dynamics; the cost says switch it off.
        return 0.0
    c3 = alpha_t * theta1 * theta1 * theta * p
    if 27.0 * c3 >= 8.0 * k:
        return 1.0
    if not (theta1 < 1.0 and math.isfinite(c3)):
        raise ValueError(f"need theta1 < 1 and a finite c3, got {theta1} and {c3}")
    return _kernels._u_law(c3, theta1, k, _kernels._feedback_root)


def eval_adjoint_rhs(t: float, p: float, theta: float, u_val: float,
                     alpha_t: float, theta1: float) -> float:
    """Adjoint equation right-hand side: dp/dt = alpha*p/(1-theta1*u) - 2*theta."""
    floor = 1.0 - theta1 * u_val
    if floor <= 0.0:
        raise DivisionGuardError(
            f"1 - theta1*u = {floor} <= 0 (theta1={theta1}, u={u_val})")
    return alpha_t * p / floor - 2.0 * theta


# ---------------------------------------------------------------------------
#  Coupled forward integration
# ---------------------------------------------------------------------------

def _time_only_alpha(params: ModelParams) -> Callable[[float], float]:
    """Return alpha as a function of time, rejecting state-dependent forcings.

    A constant or seasonal alpha becomes the kernels' own closure
    (_kernels._time_rate).  The feedback law is derived under
    alpha = alpha(t); any other forcing is probed for a reaction to theta,
    which would invalidate the adjoint equation, and refused if it reacts.
    """
    alpha = params.alpha
    pack = _pack_forcing(alpha)
    if pack is not None and pack[0] != _kernels.FORCING_PROPORTIONAL:
        return _kernels._time_rate(*pack)
    for t in (0.0, 0.31, 0.77):
        lo, hi = alpha(t, 0.2), alpha(t, 0.8)
        if lo != hi:
            raise ValueError(
                "integrate_coupled requires alpha to depend on time only; "
                f"alpha({t}, 0.2) = {lo} != alpha({t}, 0.8) = {hi}")
    return lambda t: float(alpha(t, 0.0))


def _coupled_setup(params: ModelParams, cost: CostSpec, T: float, dt: float,
                   t0: float):
    """The part of a coupled integration that does not depend on the initial
    values: the grid, alpha as a function of t (_time_only_alpha) and its
    per-step _stage_table.

    Returns (times, grid args), so that
    ``_kernels.coupled_rk4(theta0, p0, *grid_args)`` integrates from any
    (theta0, p0).
    """
    n, h, times = time_grid(t0, T, dt)
    forcing = _time_only_alpha(params)
    table = _kernels._stage_table(forcing, t0, h, n)
    # only an opaque alpha can fail: the kernels' closures are nonnegative
    if any(a < 0.0 for row in table for a in row):
        raise ValueError("alpha must be nonnegative on the horizon")
    return times, (t0, h, n, params.theta1, cost.k, forcing, table)


def _coupled_paths(times: np.ndarray, th: np.ndarray, p: np.ndarray,
                   u: np.ndarray) -> Tuple[SampledPath, SampledPath, ControlSignal]:
    return (SampledPath(times=times, values=th),
            SampledPath(times=times, values=p),
            ControlSignal(times=times, values=np.clip(u, 0.0, 1.0)))


def integrate_coupled(
    p0: float,
    theta0: float,
    params: ModelParams,
    cost: CostSpec,
    T: float,
    dt: float,
    t0: float = 0.0,
) -> Tuple[SampledPath, SampledPath, ControlSignal]:
    """Integrate theta and p forward jointly, closing the loop with the
    feedback law at every stage.

    Returns (theta path, p path, u path) on the shared grid.  The u samples
    are recomputed from the node values of (theta, p), so they satisfy the
    feedback law exactly as optimal_u_feedback states it.
    """
    times, grid = _coupled_setup(params, cost, T, dt, t0)
    th, p, u, _ = _kernels.coupled_rk4(theta0, p0, *grid)
    return _coupled_paths(times, th, p, u)


def integrate_adjoint(
    theta_T: float,
    params: ModelParams,
    cost: CostSpec,
    u: Union[ControlSignal, Callable[[float], float], float],
    t0: float,
    T: float,
    dt: float,
) -> Tuple[SampledPath, SampledPath]:
    """Integrate (theta, p) jointly backward from t = T under a FIXED control.

    Starts from theta(T) = theta_T and the transversality value
    p(T) = f'(theta_T) and runs the state and adjoint equations in reverse.
    Used by the gradient checks, where u is given rather than optimal.
    Returns (theta path, p path) on the forward-ordered grid.
    """
    n, h, times = time_grid(t0, T, dt)
    u_fn = _normalize_control(u)
    alpha_fn = _time_only_alpha(params)
    theta1 = params.theta1

    def rhs(t, y):
        a, b = y
        al = alpha_fn(t)
        uv = float(u_fn(t))
        floor = 1.0 - theta1 * uv
        if floor <= 0.0:
            raise DivisionGuardError(f"1 - theta1*u = {floor} <= 0 at t = {t}")
        return np.array((al * (1.0 - a / floor), al * b / floor - 2.0 * a))

    out = np.empty((2, n + 1))
    out[:, n] = theta_T, cost.terminal_f_prime(theta_T)
    for i in range(n, 0, -1):
        t = times[i]
        # RK4 with step -h: 0.5*(-h) is -(0.5*h) and y + (-x) is y - x exactly
        out[:, i - 1] = _kernels._rk4_step(rhs, t, out[:, i], -h, rhs(t, out[:, i]))
    return SampledPath(times=times, values=out[0]), SampledPath(times=times, values=out[1])


# ---------------------------------------------------------------------------
#  Shooting
# ---------------------------------------------------------------------------

#: Two-stage shooting.  A secant on a grid _COARSE_RATIO times coarser, to
#: |residual| < _COARSE_TOL within _COARSE_MAX_EVALUATIONS evaluations (and
#: never more than the caller's max_iter), seeds the fine secant.
_COARSE_RATIO = 10
_COARSE_TOL = 1e-7
_COARSE_MAX_EVALUATIONS = 20
#: The second fine seed's relative offset when the coarse slope is unusable.
_SEED_OFFSET = 1e-4


def _residual(theta0: float, cost: CostSpec, grid_args: tuple, history: list):
    """residual(p0) -> (p(T) - f'(theta(T)), kernel output) on one grid of
    _coupled_setup; every call appends its signed residual to history."""
    def residual(p0: float):
        out = _kernels.coupled_rk4(theta0, p0, *grid_args)
        th, p = out[0], out[1]
        r = p[-1] - cost.terminal_f_prime(th[-1])
        history.append(float(r))
        return r, out
    return residual


def _secant(residual, a: float, slope: float, tol: float, max_iter: int):
    """Secant iteration on residual(p) -> (r, kernel output), seeded with a
    and a second iterate: 1.0 when slope is NaN, otherwise the Newton step
    a - r(a)/slope, or a + _SEED_OFFSET*max(|a|, 1e-3) when slope is 0 or
    infinite.

    Once a sign change of the residual is bracketed, any secant step that
    escapes the bracket (or fails to shrink it) is replaced by bisection.
    Returns (converged, p, r, out, evaluations, slope): the first iterate
    with |r| < tol, or the best one when max_iter evaluations are spent,
    with its signed residual and kernel output, the evaluation count and the
    slope of the chord through the last two iterates (NaN without one).
    """
    ra, out_a = residual(a)
    evaluations = 1
    if abs(ra) < tol:
        return True, a, ra, out_a, evaluations, math.nan
    best = (abs(ra), a, ra, out_a)
    bracket = None
    if math.isnan(slope):
        b = 1.0
    else:
        b = float(a - ra / slope) if slope != 0.0 else math.inf
        if not math.isfinite(b) or b == a:
            b = a + _SEED_OFFSET * max(abs(a), 1e-3)
    rb, out_b = residual(b)
    evaluations += 1
    if abs(rb) < best[0]:
        best = (abs(rb), b, rb, out_b)
    if ra * rb < 0.0:
        bracket = (a, ra, b, rb)

    prev, r_prev = a, ra
    cur, r_cur, out_cur = b, rb, out_b
    while not abs(r_cur) < tol and evaluations < max_iter:
        nxt = None
        if r_cur != r_prev:
            # the residuals are numpy scalars; the iterate stays a float
            nxt = float(cur - r_cur * (cur - prev) / (r_cur - r_prev))
        if bracket is not None:
            lo, rlo, hi, rhi = bracket
            if nxt is None or not (min(lo, hi) < nxt < max(lo, hi)):
                nxt = 0.5 * (lo + hi)
        elif nxt is None or not math.isfinite(nxt):
            # No bracket and a flat secant: widen the search.
            nxt = cur + 2.0 * (cur - prev if cur != prev else 1.0)
        r_nxt, out_nxt = residual(nxt)
        evaluations += 1
        if abs(r_nxt) < best[0]:
            best = (abs(r_nxt), nxt, r_nxt, out_nxt)
        if bracket is not None:
            lo, rlo, hi, rhi = bracket
            bracket = (lo, rlo, nxt, r_nxt) if rlo * r_nxt < 0.0 else (nxt, r_nxt, hi, rhi)
        elif r_cur * r_nxt < 0.0:
            bracket = (cur, r_cur, nxt, r_nxt)
        prev, r_prev = cur, r_cur
        cur, r_cur, out_cur = nxt, r_nxt, out_nxt

    slope = float(r_cur - r_prev) / (cur - prev) if cur != prev else math.nan
    if abs(r_cur) < tol:
        return True, cur, r_cur, out_cur, evaluations, slope
    return False, best[1], best[2], best[3], evaluations, slope


def shoot_p0(
    theta0: float,
    params: ModelParams,
    cost: CostSpec,
    T: float,
    dt: float,
    tol: float = 1e-8,
    t0: float = 0.0,
    max_iter: int = 100,
) -> OptimalSolution:
    """Find p(0) such that the coupled integration lands on the
    transversality condition p(T) = f'(theta(T)).

    Two-stage secant (see _secant).  A first secant on a grid _COARSE_RATIO
    times coarser, seeded with p0 in {0, 1}, looks for a coarse root p_c to
    _COARSE_TOL within min(_COARSE_MAX_EVALUATIONS, max_iter) evaluations.
    The fine secant then starts from p_c and a Newton step on the coarse
    secant's last slope.  Without a coarse root (or on a grid of fewer than
    _COARSE_RATIO steps, which has no coarse step) the fine secant is seeded
    with {0, 1}, as a single-stage solve.  A max_iter too small for the
    coarse stage to converge only adds its evaluations, each a fraction of a
    fine one, to the single-stage solve.  Convergence
    means |residual| < tol on the fine grid within max_iter fine
    evaluations; otherwise ShootingError reports the fine grid's best
    iterate.  The returned cost is evaluated on the step grid the
    integration takes (see time_grid).  Each grid and its alpha table are
    built once; each evaluation is one kernel call.
    """
    times, grid = _coupled_setup(params, cost, T, dt, t0)
    h, n = grid[1], grid[2]
    a, slope, coarse = 0.0, math.nan, []
    if n >= _COARSE_RATIO:
        _, coarse_grid = _coupled_setup(params, cost, T, (T - t0) / (n // _COARSE_RATIO), t0)
        found, p_c, _, _, _, s_c = _secant(
            _residual(theta0, cost, coarse_grid, coarse), 0.0, math.nan,
            _COARSE_TOL, min(_COARSE_MAX_EVALUATIONS, max_iter))
        if found:
            a, slope = p_c, s_c

    residuals = []
    found, p0, r, out, evaluations, _ = _secant(_residual(theta0, cost, grid, residuals),
                                                a, slope, tol, max_iter)
    if not found:
        raise ShootingError(
            f"shooting did not reach |residual| < {tol} in {max_iter} evaluations; "
            f"best residual {abs(r):.3e} at p0 = {p0!r}",
            best_p0=p0, best_residual=abs(r))
    th, p, u, (events, cap_hits, grazing) = out
    th, p, u = _coupled_paths(times, th, p, u)
    return OptimalSolution(
        control=u, theta_path=th, adjoint_path=p,
        cost=eval_cost_JT(u, th, cost, h),
        p0=p0, residual=abs(r), iterations=evaluations,
        switch_events=events, event_cap_hits=cap_hits, grazing_exits=grazing,
        shooting_residuals=residuals, coarse_evaluations=len(coarse))


# ---------------------------------------------------------------------------
#  Cost evaluation
# ---------------------------------------------------------------------------

def _path_samples(path) -> Tuple[np.ndarray, np.ndarray]:
    if isinstance(path, SampledPath):
        return path.times, path.values
    if isinstance(path, Trajectory):
        return path.times, path.theta
    raise TypeError(f"expected a sampled path, got {type(path)!r}")


def eval_cost_JT(u_path, theta_path, cost: CostSpec, dt: float) -> float:
    """Trapezoidal quadrature of integral(k*u^2 + theta^2) dt + f(theta(T)).

    Both paths must live on the same grid (GridMismatchError otherwise); a
    Trajectory is accepted for the theta argument and contributes its theta
    component.
    """
    tu, vu = _path_samples(u_path)
    tt, vt = _path_samples(theta_path)
    if tu.shape != tt.shape or not np.allclose(tu, tt, rtol=0.0, atol=1e-12):
        raise GridMismatchError("u and theta paths are on different grids")
    steps = np.diff(tu)
    if steps.size and not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
        raise GridMismatchError(
            f"path step {steps[0]!r} does not match declared dt={dt!r}")
    integrand = cost.k * vu**2 + vt**2
    return float(np.trapezoid(integrand, tu) + cost.terminal_f(float(vt[-1])))
