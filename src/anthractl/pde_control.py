"""Optimal control for the spatial model: quadratic cost, linearized
Riccati/LQR feedback, the adjoint-state solver, the pointwise
maximum-principle feedback, and a forward-backward sweep.

Sign conventions.  The assembled OperatorMatrix L always appears as
d(theta)/dt + L theta = source, so `linearize` returns L1 storing the
NEGATIVE of the reaction-diffusion generator: L1 = diag(alpha) + D where
D is the (positive semidefinite) discrete -div(A grad .).  Formulas
quoted from the continuous theory in terms of the generator use -L1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ._kernels import _feedback_roots, _interp_knots, _rk4_step
from .grid import DiffusionField, ScalarField, SpatialGrid, as_cell_values
from .host import DivisionGuardError, time_grid
from .ode_control import GridMismatchError
from .pde import (FieldPath, OperatorMatrix, _FixedStencilStepper, _stored_steps,
                  assemble_operator)

__all__ = [
    "RiccatiBlowupError",
    "StiffStepError",
    "PdeCostSpec",
    "LinearizationPoint",
    "RiccatiPath",
    "SweepResult",
    "linearize",
    "integrate_riccati",
    "riccati_feedback",
    "integrate_linearized",
    "closed_loop_linearized",
    "integrate_controlled",
    "solve_adjoint_pde",
    "hamiltonian_pointwise_feedback",
    "eval_cost_JT3",
    "forward_backward_sweep",
]

logger = logging.getLogger(__name__)

_PSD_TOL = -1e-8        # smallest admissible Riccati eigenvalue
_NORM_CAP = 1e12        # Riccati blow-up guard
_SWEEP_TOL = 1e-6       # sweep stopping tolerance on max-norm control change
_RK4_STABLE_H_RHO = 2.78  # just inside RK4's real-axis stability limit (about 2.785)


class RiccatiBlowupError(RuntimeError):
    """Riccati integration exceeded the norm cap (finite-time escape)."""


class StiffStepError(ArithmeticError):
    """An explicit RK4 step is too long for the spectrum of the operator."""


# --------------------------------------------------------------------------
# cost and linearization-point containers
# --------------------------------------------------------------------------

def _validated_weight(value, name: str, strict: bool) -> None:
    v = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    if strict and not np.all(v > 0.0):
        raise ValueError(f"{name} must be strictly positive")
    if not strict and not np.all(v >= 0.0):
        raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class PdeCostSpec:
    """Weights of the quadratic cost: running control weight k1 (> 0
    cellwise) and terminal state weight k2 (>= 0 cellwise).  Either may be
    a scalar or a per-cell field."""

    k1: object
    k2: object = 0.0

    def __post_init__(self):
        k1 = self.k1.values if isinstance(self.k1, ScalarField) else self.k1
        k2 = self.k2.values if isinstance(self.k2, ScalarField) else self.k2
        _validated_weight(k1, "k1", strict=True)
        _validated_weight(k2, "k2", strict=False)

    def k1_values(self, n_cells: int) -> np.ndarray:
        return as_cell_values(self.k1, n_cells)

    def k2_values(self, n_cells: int) -> np.ndarray:
        return as_cell_values(self.k2, n_cells)


@dataclass(frozen=True)
class LinearizationPoint:
    """State offset for the linearization: theta ~ epsilon, u ~ 0.

    epsilon must be strictly positive cellwise; at epsilon = 0 the
    linearized system loses controllability (the control enters only
    through the product alpha*epsilon*theta1).
    """

    epsilon: object

    def __post_init__(self):
        eps = self.epsilon.values if isinstance(self.epsilon, ScalarField) else self.epsilon
        _validated_weight(eps, "epsilon", strict=True)

    def epsilon_values(self, n_cells: int) -> np.ndarray:
        return as_cell_values(self.epsilon, n_cells)


# --------------------------------------------------------------------------
# linearization
# --------------------------------------------------------------------------

def linearize(alpha, eps: LinearizationPoint, theta1: float,
              grid: SpatialGrid, A: DiffusionField):
    """Linearized operator and control-injection diagonal.

    Returns (L1, b) where L1 is the OperatorMatrix of the linearized system
    written as d(theta)/dt + L1 theta = alpha - b*u, and b is the (n_cells,)
    diagonal of the control operator B = diag(alpha * epsilon * theta1).
    """
    if not isinstance(eps, LinearizationPoint):
        raise TypeError("eps must be a LinearizationPoint")
    L1 = assemble_operator(grid, A, alpha, u=0.0, theta1=theta1, reaction="linearized")
    alpha_v = as_cell_values(alpha, grid.n_cells)
    eps_v = eps.epsilon_values(grid.n_cells)
    b = alpha_v * eps_v * float(theta1)
    return L1, b


# --------------------------------------------------------------------------
# Riccati integration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RiccatiPath:
    """Riccati matrices sampled on a pseudo-time grid [0, T].

    The pseudo-time s runs forward from the initial condition P(0) = k2*I;
    the feedback at physical time t looks up P at s = T - t.
    """

    times: np.ndarray
    matrices: np.ndarray = field(repr=False)  # (n_t, N, N)
    # (n_t, 2) smallest and largest eigenvalue of each matrix
    eig_range: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        m = np.asarray(self.matrices, dtype=float)
        if t.ndim != 1 or m.ndim != 3 or m.shape[0] != t.shape[0]:
            raise ValueError(f"inconsistent Riccati path shapes {t.shape} / {m.shape}")
        if t.shape[0] > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("Riccati path times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "matrices", m)
        e = np.asarray(self.eig_range, dtype=float)
        if e.shape != (t.shape[0], 2):
            raise ValueError(f"eig_range must have shape {(t.shape[0], 2)}, got {e.shape}")
        object.__setattr__(self, "eig_range", e)
        object.__setattr__(self, "_knots", t.tolist())  # _interp_knots bisects a list

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def P_at(self, s: float) -> np.ndarray:
        """P at pseudo-time s, linearly interpolated between samples."""
        return _interp_knots(s, self._knots, self.matrices)

    def P_lookback(self, t_phys: float) -> np.ndarray:
        """P(T - t): the matrix the feedback uses at physical time t."""
        return self.P_at(self.horizon - t_phys)


_RICCATI_MAX_CELLS = 256  # dense N x N storage; larger grids are out of scope


def _psd_eig_range(mats: np.ndarray, times) -> np.ndarray:
    """(smallest, largest) eigenvalue of each matrix of the stack, in one
    eigvalsh pass; raises on the first matrix whose smallest eigenvalue is
    below -1e-8, naming its pseudo-time in `times`."""
    eigs = np.linalg.eigvalsh(mats)
    bad = np.flatnonzero(eigs[:, 0] < _PSD_TOL)
    if bad.size:
        i = int(bad[0])
        raise RiccatiBlowupError(
            f"P lost positive semidefiniteness (min eigenvalue {float(eigs[i, 0]):.3e}) "
            f"at pseudo-time {times[i]:g}")
    return eigs[:, [0, -1]]


def integrate_riccati(L1: OperatorMatrix, B, cost: PdeCostSpec, T: float, dt: float,
                      store_every: int = 1) -> RiccatiPath:
    """Integrate dP/ds = G P + P G - P diag(b^2/k1) P + I from P(0) = k2*I,

    where G = -L1 is the linearized generator and b the control diagonal.
    The equation is autonomous, so each step is the exact Davison-Maki
    step: with P = Y X^{-1}, (X, Y) solve the linear system
    d/ds [X; Y] = [[-G, W], [I, G]] [X; Y], W = diag(b^2/k1), whose
    propagator Phi = expm(h*H) is computed once; then
    P <- (Phi21 + Phi22 P)(Phi11 + Phi12 P)^{-1}, symmetrized.  Aborts if
    ||P|| exceeds 1e12 (finite-time blow-up guard).  The PSD check is always
    on: every stored matrix must have smallest eigenvalue >= -1e-8, and the
    eigenvalue extremes computed for it are kept in the path's eig_range.
    The stored matrices go into one preallocated stack, whose eigenvalues
    are computed in one pass after the march; when the march aborts, the
    stack stored so far is checked first, so an earlier PSD failure is the
    error raised, as if every stored matrix were checked when stored.
    """
    from scipy.linalg import expm

    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if T < 0.0:
        raise ValueError(f"T must be nonnegative, got {T}")
    if store_every < 1:
        raise ValueError(f"store_every must be >= 1, got {store_every}")
    n = L1.n_cells
    if n > _RICCATI_MAX_CELLS:
        raise ValueError(f"dense Riccati integration supports at most "
                         f"{_RICCATI_MAX_CELLS} cells, got {n}")
    defect = L1.symmetry_defect()
    if defect > 1e-10 * max(1.0, float(np.max(np.abs(L1.matrix.diagonal())))):
        raise ValueError(f"Riccati integration requires a symmetric L1 "
                         f"(asymmetry {defect:.3e})")

    b = as_cell_values(B, n)
    k1 = cost.k1_values(n)
    k2 = cost.k2_values(n)
    G = -L1.matrix.toarray()
    w = b * b / k1           # diagonal of B^2 / k1

    P = np.diag(k2).astype(float)
    n_steps, h, times = time_grid(0.0, T, dt) if T > 0.0 else (0, 0.0, np.zeros(1))
    Phi = expm(h * np.block([[-G, np.diag(w)], [np.eye(n), G]]))
    Phi11, Phi12 = Phi[:n, :n], Phi[:n, n:]
    Phi21, Phi22 = Phi[n:, :n], Phi[n:, n:]

    stored = _stored_steps(n_steps, store_every)
    mats = np.empty((len(stored), n, n))
    s_stored = [j * h for j in stored]
    count = 0
    try:
        for k in range(n_steps + 1):
            if k:
                X = Phi11 + Phi12 @ P
                Y = Phi21 + Phi22 @ P
                try:
                    P = np.linalg.solve(X.T, Y.T)  # (Y X^{-1})^T, symmetrized next
                except np.linalg.LinAlgError:
                    raise RiccatiBlowupError(f"Riccati step matrix became singular "
                                             f"at pseudo-time {k * h:g}") from None
                P = 0.5 * (P + P.T)
            norm = float(np.max(np.abs(P)))
            if not np.isfinite(norm) or norm > _NORM_CAP:
                raise RiccatiBlowupError(f"||P|| reached {norm:.3e} at pseudo-time {k * h:g}")
            if k == stored[count]:
                mats[count] = P
                count += 1
    except RiccatiBlowupError:
        _psd_eig_range(mats[:count], s_stored)  # an earlier PSD failure comes first
        raise
    return RiccatiPath(times[stored], mats, eig_range=_psd_eig_range(mats, s_stored))


def riccati_feedback(P_path: RiccatiPath, theta, t: float, B, cost: PdeCostSpec,
                     eps: LinearizationPoint, theta1: float) -> ScalarField:
    """LQR feedback u(t,.) = (1/k1) B P(T-t) theta(t,.) + 1/(eps*theta1),
    clamped cellwise to [0,1]."""
    _check_horizon(P_path, t)
    n = P_path.matrices.shape[1]
    gain, offset = _feedback_coefficients(n, B, cost, eps, theta1)
    u, clamped = _lqr_feedback(P_path.P_lookback(t), as_cell_values(theta, n), gain, offset)
    if clamped > 0.0:
        logger.info("riccati_feedback clamped %.1f%% of cells at t=%g",
                    100.0 * clamped, t)
    return ScalarField(u)


def _check_horizon(P_path: RiccatiPath, t: float) -> None:
    T = P_path.horizon
    if not -1e-12 <= t <= T + 1e-12:
        raise ValueError(f"t={t} outside the Riccati horizon [0, {T}]")


def _feedback_coefficients(n: int, B, cost: PdeCostSpec, eps: LinearizationPoint,
                           theta1: float) -> tuple:
    """(b/k1, 1/(eps*theta1)) of the LQR feedback, validated."""
    b = as_cell_values(B, n)
    k1 = cost.k1_values(n)
    eps_v = eps.epsilon_values(n)
    t1 = float(theta1)
    if t1 <= 0.0:
        raise ValueError("theta1 must be positive for the feedback offset")
    return b / k1, 1.0 / (eps_v * t1)


def _lqr_feedback(P: np.ndarray, th: np.ndarray, gain: np.ndarray,
                  offset: np.ndarray) -> tuple:
    """(u, share of clamped cells) of the feedback gain*P*th + offset."""
    raw = gain * (P @ th) + offset
    return raw.clip(0.0, 1.0), np.count_nonzero((raw < 0.0) | (raw > 1.0)) / raw.size


def _last_call_cache(fn):
    """fn(t), recomputed only when t differs from the previous call's (RK4's
    stages 2 and 3 share the time t + h/2)."""
    last = [None, None]

    def cached(t):
        if t != last[0]:
            last[:] = t, fn(t)
        return last[1]
    return cached


def _path_control(times: np.ndarray, samples: np.ndarray):
    """u_of(t, theta) of a control sampled at `times`, interpolated by
    _interp_knots once per distinct t.  Scalar samples give a spatially
    uniform control with the same value per cell as a path of uniform rows."""
    ts = times.tolist()
    u_at = _last_call_cache(lambda t: _interp_knots(t, ts, samples))
    return lambda t, x: u_at(t)


# --------------------------------------------------------------------------
# linearized dynamics (for LQR evaluation)
# --------------------------------------------------------------------------

def _check_rk4_step(L1: OperatorMatrix, h: float) -> None:
    """Refuse an explicit RK4 step of -L1 that its spectrum makes unstable.

    rho = max_i sum_j |L1_ij| bounds the spectral radius of L1 (Gershgorin),
    so h*rho <= 2.78 keeps every mode inside RK4's stability interval.
    """
    rho = float(abs(L1.matrix).sum(axis=1).max())
    if h * rho > _RK4_STABLE_H_RHO:
        raise StiffStepError(
            f"explicit RK4 step too long for the linearized operator: "
            f"h*rho = {h * rho:.4g} > {_RK4_STABLE_H_RHO} (h = {h:g}, Gershgorin "
            f"bound rho = {rho:.4g}); refine dt or coarsen the grid")


def _linearized_rk4(theta0, L1: OperatorMatrix, b: np.ndarray, al: np.ndarray,
                    T: float, dt: float, u_of, constants=()) -> tuple:
    """RK4 paths of d(theta)/dt = -L1 theta - b*u + alpha on
    time_grid(0, T, dt), every lane from theta0: lane 0 under the control
    law u_of(t, theta), then one lane under each spatially uniform control
    in `constants`; refused by _check_rk4_step where it is unstable.

    The lanes are the columns of one (n, lanes) state and share one sparse
    product per stage; every lane's arithmetic is that of a loop of its
    own.  The constant lanes' controls are written once.  Returns (times,
    states, controls), the last two (lanes, n_t, n): the control of each
    stored state is the one its step's first stage took, and the final
    state's is one more evaluation at T.
    """
    _, h, times = time_grid(0.0, T, dt)
    _check_rk4_step(L1, h)
    A1 = L1.matrix
    n, lanes = L1.n_cells, 1 + len(constants)
    bc, alc = b[:, None], al[:, None]
    U = np.empty((n, lanes))
    U[:, 1:] = np.asarray(constants, dtype=float)

    def control(t, X):
        U[:, 0] = u_of(t, X[:, 0])
        return U

    def f(t, X):
        return -(A1 @ X) - bc * control(t, X) + alc

    states = np.empty((lanes, len(times), n))
    controls = np.empty_like(states)
    X = np.repeat(as_cell_values(theta0, n)[:, None], lanes, axis=1)
    for k in range(len(times) - 1):
        t = times[k]
        s1 = f(t, X)
        states[:, k] = X.T
        controls[:, k] = U.T
        X = _rk4_step(f, t, X, h, s1)
    states[:, -1] = X.T
    controls[:, -1] = control(times[-1], X).T
    return times, states, controls


def integrate_linearized(theta0, L1: OperatorMatrix, B, u_path: FieldPath,
                         alpha, T: float, dt: float) -> FieldPath:
    """RK4 integration of the linearized dynamics
    d(theta)/dt = -L1 theta - B u(t) + alpha with u interpolated from u_path."""
    n = L1.n_cells
    times, states, _ = _linearized_rk4(
        theta0, L1, as_cell_values(B, n), as_cell_values(alpha, n), T, dt,
        _path_control(u_path.times, u_path.values))
    return FieldPath(times, states[0])


def closed_loop_linearized(theta0, L1: OperatorMatrix, B, P_path: RiccatiPath,
                           cost: PdeCostSpec, eps: LinearizationPoint, theta1: float,
                           alpha, T: float, dt: float):
    """RK4 integration of the linearized dynamics under the Riccati feedback.

    The feedback is evaluated at every RK4 stage (time and stage state), so
    the closed loop is integrated at full fourth order.  Returns
    (theta_path, u_path) sampled on the step grid; the stored u is the
    feedback at the stored states.  Clamping is logged once per run, as the
    number of feedback evaluations that clamped any cell and the largest
    clamped share.
    """
    theta_path, u_path, _, _ = _closed_loop_lanes(theta0, L1, B, P_path, cost, eps,
                                                  theta1, alpha, T, dt)
    return theta_path, u_path


def _closed_loop_lanes(theta0, L1: OperatorMatrix, B, P_path: RiccatiPath,
                       cost: PdeCostSpec, eps: LinearizationPoint, theta1: float,
                       alpha, T: float, dt: float, constants=()) -> tuple:
    """closed_loop_linearized, plus one lane of integrate_linearized under
    each spatially uniform control in `constants`, in one RK4 loop.

    Returns (theta_path, u_path, clamping, constant_paths): clamping is
    (evaluations that clamped any cell, feedback evaluations, largest
    clamped share), and constant_paths holds one theta path per constant,
    each equal to integrate_linearized under a path of that constant.
    """
    n = L1.n_cells
    b = as_cell_values(B, n)
    gain, offset = _feedback_coefficients(n, b, cost, eps, theta1)
    _check_horizon(P_path, T)
    P_at = _last_call_cache(P_path.P_lookback)
    shares = []

    def feedback(t, x):
        # a contiguous copy of the lane, so P @ x is the product a loop of
        # its own would compute
        u, clamped = _lqr_feedback(P_at(t), np.ascontiguousarray(x), gain, offset)
        shares.append(clamped)
        return u

    times, states, controls = _linearized_rk4(theta0, L1, b, as_cell_values(alpha, n),
                                              T, dt, feedback, constants)
    clamping = (sum(c > 0.0 for c in shares), len(shares), max(shares))
    if clamping[0]:
        logger.info("closed_loop_linearized: the feedback clamped cells in %d of "
                    "%d evaluations (at most %.1f%% of cells)",
                    clamping[0], clamping[1], 100.0 * clamping[2])
    return (FieldPath(times, states[0]), FieldPath(times, controls[0]), clamping,
            [FieldPath(times, s) for s in states[1:]])


# --------------------------------------------------------------------------
# nonlinear forward model with a time-varying control path
# --------------------------------------------------------------------------

def _require_step_grid(times: np.ndarray, n: int, **paths: FieldPath) -> None:
    """Raise GridMismatchError unless every path has n cells and is sampled
    on the step grid `times`."""
    for name, path in paths.items():
        if path.values.shape[1] != n:
            raise GridMismatchError(f"{name} path is not sized to the grid")
        if path.times.shape != times.shape or np.max(np.abs(path.times - times)) > 1e-9:
            raise GridMismatchError(f"{name} path times do not match the step grid")


def _controlled_reaction(al: np.ndarray, t1: float, u: np.ndarray,
                         times: np.ndarray) -> np.ndarray:
    """Reaction diagonals alpha/(1 - theta1*u) of the full operator, one row
    per control row u[i] at times[i], in the order a march visits them; the
    guard names the first row, in that order, whose denominator is not
    positive."""
    floor = 1.0 - t1 * u
    bad = np.any(floor <= 0.0, axis=1)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DivisionGuardError(
            f"control denominator 1 - theta1*u reached "
            f"{float(np.min(floor[i])):.3e} <= 0 at t={times[i]:g}")
    return al / floor


def _controlled_stepper(grid: SpatialGrid, A: DiffusionField, h: float) -> _FixedStencilStepper:
    D = assemble_operator(grid, A, alpha=0.0, u=0.0, theta1=0.0).matrix
    return _FixedStencilStepper(D, h)


def integrate_controlled(theta0, grid: SpatialGrid, A: DiffusionField, alpha,
                         u_path: FieldPath, theta1: float, T: float, dt: float) -> FieldPath:
    """Backward-Euler integration of the nonlinear model with a control that
    varies in both space and time.  u_path must be sampled on the step grid
    (GridMismatchError otherwise); each step takes the operator diagonal from
    the control at its target time level."""
    n = grid.n_cells
    _, h, times = time_grid(0.0, T, dt)
    _require_step_grid(times, n, u=u_path)
    return FieldPath(times, _march_controlled(
        _controlled_stepper(grid, A, h), as_cell_values(theta0, n),
        as_cell_values(alpha, n), float(theta1), u_path.values, times, h))


def _march_controlled(stepper: _FixedStencilStepper, th0: np.ndarray, al: np.ndarray,
                      t1: float, u: np.ndarray, times: np.ndarray, h: float) -> np.ndarray:
    """Core of integrate_controlled: the states on the step grid `times`
    under the control rows u, on the caller's stepper; inputs unchecked."""
    r = _controlled_reaction(al, t1, u[1:], times[1:])
    out = np.empty((len(times), th0.shape[0]))
    out[0] = th = th0
    for k in range(1, len(times)):
        th = stepper.solve(r[k - 1], th + h * al, x0=th)
        out[k] = th
    return out


# --------------------------------------------------------------------------
# adjoint state
# --------------------------------------------------------------------------

def solve_adjoint_pde(theta_path: FieldPath, u_star: FieldPath, cost: PdeCostSpec,
                      grid: SpatialGrid, A: DiffusionField, T: float, dt: float,
                      alpha, theta1: float) -> FieldPath:
    """Solve the adjoint problem dp/dt = L_u p - 2*theta, p(T) = 2*k2*theta(T)
    backward in time with the same implicit scheme as the forward model.

    L_u is the full (reaction + diffusion) operator at the control u*(t);
    in reversed time s = T - t the equation becomes dq/ds + L_u q = 2*theta,
    which is exactly the forward structure, stepped implicitly.
    """
    n = grid.n_cells
    _, h, times = time_grid(0.0, T, dt)
    _require_step_grid(times, n, theta=theta_path, u=u_star)
    return FieldPath(times, _march_adjoint(
        _controlled_stepper(grid, A, h), theta_path.values, u_star.values,
        cost.k2_values(n), as_cell_values(alpha, n), float(theta1), times, h))


def _march_adjoint(stepper: _FixedStencilStepper, theta: np.ndarray, u: np.ndarray,
                   k2: np.ndarray, al: np.ndarray, t1: float, times: np.ndarray,
                   h: float) -> np.ndarray:
    """Core of solve_adjoint_pde: the adjoint on the step grid `times` from
    the state rows theta under the control rows u, on the caller's stepper;
    inputs unchecked."""
    # the march visits levels N-1 .. 0
    r = _controlled_reaction(al, t1, u[-2::-1], times[-2::-1])[::-1]
    n_t = len(times)
    p = np.empty(theta.shape)
    p[-1] = 2.0 * k2 * theta[-1]
    for k in range(n_t - 2, -1, -1):
        # implicit step toward time level k: (I + h L_u(t_k)) p_k = p_{k+1} + h*2*theta(t_k)
        rhs = p[k + 1] + h * 2.0 * theta[k]
        p[k] = stepper.solve(r[k], rhs, x0=p[k + 1])
    return p


# --------------------------------------------------------------------------
# pointwise maximum-principle feedback
# --------------------------------------------------------------------------

def hamiltonian_pointwise_feedback(alpha, theta, p, theta1: float, k1) -> ScalarField:
    """Cellwise stationarity feedback for the nonlinear problem: the ODE law
    optimal_u_feedback in every cell, bit for bit (u = 1 where 27*c3 >= 8*k1,
    c3 = alpha*theta1^2*theta*p).  theta1 must lie in (0, 1), k1 be finite and > 0."""
    t1 = float(theta1)
    sizes = [np.asarray(getattr(x, "values", x)).shape[0]
             for x in (alpha, theta, p, k1)
             if np.asarray(getattr(x, "values", x)).ndim == 1]
    n = sizes[0] if sizes else 1
    k1v = as_cell_values(k1, n)
    _check_feedback_args(t1, k1v)
    u = _stationarity_feedback(as_cell_values(alpha, n), as_cell_values(theta, n),
                               as_cell_values(p, n), t1, k1v)
    return ScalarField(u)


def _check_feedback_args(theta1: float, k1v: np.ndarray) -> None:
    if not 0.0 < theta1 < 1.0:
        raise ValueError(f"theta1 must lie in (0,1), got {theta1}")
    _validated_weight(k1v, "k1", strict=True)


def _stationarity_feedback(al, th, pv, t1: float, k1v) -> np.ndarray:
    """Array core of hamiltonian_pointwise_feedback, elementwise over the
    broadcast shape of its arguments (one time level or a whole path): the
    branch tests of optimal_u_feedback, and _kernels._u_law on the root of
    _kernels._feedback_roots.  Arguments are unchecked; see _check_feedback_args."""
    c3 = al * t1 * t1 * th * pv          # the ODE law's association
    u = np.zeros(c3.shape)
    bang = 27.0 * c3 >= 8.0 * k1v
    u[bang] = 1.0
    interior = (~bang) & (c3 > 0.0)
    if np.any(interior):
        w = _feedback_roots(c3[interior], np.broadcast_to(k1v, c3.shape)[interior])
        w = np.minimum(w, min(1.5, 1.0 / (1.0 - t1)))
        u[interior] = ((w - 1.0) / (t1 * w)).clip(0.0, 1.0)
    return u


# --------------------------------------------------------------------------
# cost functional
# --------------------------------------------------------------------------

def eval_cost_JT3(theta_path: FieldPath, u_path: FieldPath, cost: PdeCostSpec,
                  grid: SpatialGrid, dt: float) -> float:
    """Quadrature of the quadratic cost: trapezoidal in time, midpoint in
    space, of integral(theta^2 + k1 u^2) dx dt plus terminal
    integral(k2 theta(T)^2) dx."""
    n = grid.n_cells
    t = theta_path.times
    _require_step_grid(t, n, theta=theta_path, u=u_path)
    if len(t) > 1:
        steps = np.diff(t)
        if abs(float(np.min(steps)) - dt) > 1e-9 * max(1.0, dt) or \
                abs(float(np.max(steps)) - dt) > 1e-9 * max(1.0, dt):
            raise GridMismatchError(f"path step does not match dt={dt:g}")

    k1 = cost.k1_values(n)
    k2 = cost.k2_values(n)
    vol = grid.cell_volume
    integrand = (theta_path.values ** 2 + k1 * u_path.values ** 2).sum(axis=1) * vol
    running = float(np.trapezoid(integrand, t)) if len(t) > 1 else 0.0
    terminal = float(np.sum(k2 * theta_path.values[-1] ** 2) * vol)
    return running + terminal


# --------------------------------------------------------------------------
# forward-backward sweep
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    """Outcome of the forward-backward sweep.

    u_path / theta_path / adjoint_path are aligned FieldPaths on the step
    grid; cost_history[i] is the cost of the control sweep i + 1 starts from
    (u = 0 first), the last entry that of the returned control (reported
    even when the iteration stops on max_iter without meeting the tolerance).
    """

    u_path: FieldPath
    theta_path: FieldPath
    adjoint_path: FieldPath
    cost_history: np.ndarray
    converged: bool
    iterations: int


def forward_backward_sweep(theta0, grid: SpatialGrid, A: DiffusionField, alpha,
                           cost: PdeCostSpec, T: float, dt: float,
                           theta1: float, relax: float = 0.5,
                           max_iter: int = 100) -> SweepResult:
    """Fixed-point iteration for the nonlinear control problem.

    One loop: each pass integrates the state forward under the current
    control, evaluates its cost, solves the adjoint backward, then evaluates
    the pointwise stationarity feedback at every time level and relaxes the
    control toward it: u <- (1-relax)*u + relax*u_new.  The iteration stops
    once an update changes the control by less than 1e-6 in max norm, or
    after max_iter updates (reported, not raised); the pass after the last
    update, which does not update, is the one returned.
    """
    if not 0.0 < relax <= 1.0:
        raise ValueError(f"relax must lie in (0,1], got {relax}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    n = grid.n_cells
    _, h, times = time_grid(0.0, T, dt)
    al = as_cell_values(alpha, n)
    k1 = cost.k1_values(n)
    k2 = cost.k2_values(n)
    t1 = float(theta1)
    _check_feedback_args(t1, k1)
    th0 = as_cell_values(theta0, n)
    stepper = _controlled_stepper(grid, A, h)  # one stencil for every march

    u_vals = np.zeros((len(times), n))
    history = []
    converged = False
    for iterations in range(max_iter + 1):
        u_path = FieldPath(times, u_vals)
        theta_path = FieldPath(times, _march_controlled(stepper, th0, al, t1, u_vals,
                                                        times, h))
        history.append(eval_cost_JT3(theta_path, u_path, cost, grid, h))
        p = _march_adjoint(stepper, theta_path.values, u_vals, k2, al, t1, times, h)
        if converged or iterations == max_iter:
            break
        u_new = _stationarity_feedback(al, theta_path.values, p, t1, k1)
        u_next = (1.0 - relax) * u_vals + relax * u_new
        converged = float(np.max(np.abs(u_next - u_vals))) < _SWEEP_TOL
        u_vals = u_next
    return SweepResult(
        u_path=u_path,
        theta_path=theta_path,
        adjoint_path=FieldPath(times, p),
        cost_history=np.asarray(history),
        converged=converged,
        iterations=iterations,
    )
