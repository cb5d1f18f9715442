"""
Within-host anthracnose dynamics.

State is the triple (theta, v, v_r): inhibition rate, fruit volume and rotten
volume.  The vector field is

    dtheta/dt = alpha(t, theta) * (1 - theta / (1 - theta1*u))
    dv/dt     = beta(t, theta)  * (1 - v*theta2 / ((1-theta) * eta(t) * v_max))
    dv_r/dt   = gamma(t, theta) * (1 - v_r / v)

with a control effort u(t) in [0, 1].  This module owns the state/parameter
types, the fixed-step integrator and the region checks; the optimal-control
layer lives in :mod:`anthractl.ode_control`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import _kernels
from .severity import SeverityForcing

__all__ = [
    "DivisionGuardError",
    "HostState",
    "ModelParams",
    "SeasonalForcing",
    "ConstantForcing",
    "ProportionalForcing",
    "ControlSignal",
    "SampledPath",
    "Trajectory",
    "RegionReport",
    "eval_rhs",
    "integrate_ode",
    "integrate_ode_batch",
    "seasonal_alpha",
    "check_region",
    "validate_forcings",
]

#: Tolerance used to absorb roundoff on invariant boundaries.
REGION_TOL = 1e-9


class DivisionGuardError(ArithmeticError):
    """The state reached a configuration where the vector field is undefined.

    Raised when 1 - theta1*u <= 0, theta == 1 or v == 0.  Valid inputs can
    never produce this (the bounded region is invariant), so it signals a bug
    or invalid parameters rather than something to clamp away.
    """


# ---------------------------------------------------------------------------
#  Forcing functions
# ---------------------------------------------------------------------------

ForcingFn = Callable[[float, float], float]


@dataclass(frozen=True)
class SeasonalForcing:
    """Seasonal inhibition pressure ``a*(t-b)^2 * (1 - cos(2*pi*t/c))``.

    ``a`` is an amplitude rate, ``b`` a phase time in [0, 1] and ``c`` a
    period in (0, 1].  The value vanishes at ``t = b`` and at every integer
    multiple of the period.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not self.a >= 0.0:
            raise ValueError(f"SeasonalForcing.a must be >= 0, got {self.a}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"SeasonalForcing.b must be in [0, 1], got {self.b}")
        if not 0.0 < self.c <= 1.0:
            raise ValueError(f"SeasonalForcing.c must be in (0, 1], got {self.c}")

    def __call__(self, t: float, theta: float = 0.0) -> float:
        return _kernels._time_rate(_kernels.FORCING_SEASONAL, self.a, self.b, self.c)(t)


@dataclass(frozen=True)
class ConstantForcing:
    """Forcing with a constant nonnegative rate (usable for alpha, beta or eta)."""

    value: float

    def __post_init__(self) -> None:
        if not self.value >= 0.0:
            raise ValueError(f"ConstantForcing.value must be >= 0, got {self.value}")

    def __call__(self, t: float, theta: float = 0.0) -> float:
        return self.value


@dataclass(frozen=True)
class ProportionalForcing:
    """Forcing proportional to the inhibition rate: ``coeff * theta``.

    Vanishes at theta = 0 and is nondecreasing in theta, which is what the
    rot-rate term requires.
    """

    coeff: float

    def __post_init__(self) -> None:
        if not self.coeff >= 0.0:
            raise ValueError(f"ProportionalForcing.coeff must be >= 0, got {self.coeff}")

    def __call__(self, t: float, theta: float = 0.0) -> float:
        return self.coeff * theta


def seasonal_alpha(f: SeasonalForcing, t: float) -> float:
    """Evaluate the seasonal forcing ``a*(t-b)^2*(1-cos(2*pi*t/c))`` at time t."""
    return f(t)


# ---------------------------------------------------------------------------
#  Parameters and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """Within-host model parameters.

    Parameters
    ----------
    theta1 : float
        Maximal inhibition reduction, in [0, 1).  Under full control the
        inhibition rate is pushed toward the floor 1 - theta1.
    theta2 : float
        Fruit-volume saturation coefficient, in (0, 1].
    v_max : float
        Maximal attainable fruit volume, > 0.
    alpha, beta, gamma : callable ``(t, theta) -> rate >= 0``
        Inhibition pressure, growth rate and rot rate.  gamma must vanish at
        theta = 0 and be nondecreasing in theta (checked by
        :func:`validate_forcings` on samples, not per call).
    eta : callable ``t -> value in (0, theta2]``
        Effective volume-saturation modulation.
    """

    theta1: float
    theta2: float
    v_max: float
    alpha: ForcingFn
    beta: ForcingFn
    gamma: ForcingFn
    eta: Callable[..., float]

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta1 < 1.0:
            raise ValueError(f"theta1 must be in [0, 1), got {self.theta1}")
        if not 0.0 < self.theta2 <= 1.0:
            raise ValueError(f"theta2 must be in (0, 1], got {self.theta2}")
        if not self.v_max > 0.0:
            raise ValueError(f"v_max must be > 0, got {self.v_max}")

    @classmethod
    def with_default_forcings(
        cls,
        theta1: float,
        theta2: float = 1.0,
        v_max: float = 1.0,
        alpha: Union[ForcingFn, float] = 1.0,
        beta0: float = 0.5,
        gamma0: float = 0.1,
        eta0: Optional[float] = None,
    ) -> "ModelParams":
        """Build params with the default forcing shapes.

        beta is constant, gamma is proportional to theta, eta is constant
        (theta2 unless given).  ``alpha`` may be a rate (made constant) or any
        forcing callable.
        """
        if not callable(alpha):
            alpha = ConstantForcing(float(alpha))
        eta_val = theta2 if eta0 is None else float(eta0)
        if not 0.0 < eta_val <= theta2:
            raise ValueError(f"eta0 must be in (0, theta2], got {eta_val}")
        return cls(
            theta1=theta1,
            theta2=theta2,
            v_max=v_max,
            alpha=alpha,
            beta=ConstantForcing(beta0),
            gamma=ProportionalForcing(gamma0),
            eta=ConstantForcing(eta_val),
        )


def validate_forcings(
    p: ModelParams,
    times: Optional[Sequence[float]] = None,
    thetas: Optional[Sequence[float]] = None,
) -> None:
    """Sampled check of the qualitative forcing constraints.

    Verifies, on a sample grid, that alpha/beta/gamma are nonnegative, that
    gamma vanishes at theta = 0 and is nondecreasing in theta, and that
    eta(t) lies in (0, theta2].  Raises ValueError on the first violation.
    """
    ts = np.asarray(times if times is not None else np.linspace(0.0, 1.0, 7))
    ths = np.asarray(thetas if thetas is not None else np.linspace(0.0, 0.95, 5))
    for t in ts:
        eta_t = p.eta(t)
        if not 0.0 < eta_t <= p.theta2 + 1e-12:
            raise ValueError(f"eta({t}) = {eta_t} outside (0, theta2={p.theta2}]")
        g0 = p.gamma(t, 0.0)
        if abs(g0) > 1e-12:
            raise ValueError(f"gamma({t}, 0) = {g0}, expected 0")
        prev = g0
        for th in ths:
            for name, f in (("alpha", p.alpha), ("beta", p.beta), ("gamma", p.gamma)):
                val = f(t, th)
                if not val >= 0.0:
                    raise ValueError(f"{name}({t}, {th}) = {val} is negative")
            g = p.gamma(t, th)
            if g < prev - 1e-12:
                raise ValueError(f"gamma({t}, theta) decreases at theta={th}")
            prev = g


@dataclass(frozen=True)
class HostState:
    """Point state (theta, v, v_r): inhibition rate, fruit volume, rotten volume."""

    theta: float
    v: float
    v_r: float


# ---------------------------------------------------------------------------
#  Sampled paths and control signals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampledPath:
    """A scalar function of time given by samples with linear interpolation."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.shape != times.shape:
            raise ValueError("times and values must be 1-D arrays of equal length")
        if times.size < 1:
            raise ValueError("a sampled path needs at least one sample")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("sample times must be strictly increasing")

    def __call__(self, t: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        return np.interp(t, self.times, self.values)

    def __len__(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True)
class ControlSignal(SampledPath):
    """A sampled control effort with values in [0, 1].

    Evaluation between samples is linear interpolation (so the signal stays
    continuous); beyond the sample range the end values extend as constants.
    ``lipschitz_bound``, when set, asserts |u(t)-u(s)| <= K|t-s| on the grid.
    """

    lipschitz_bound: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        vmin, vmax = float(self.values.min()), float(self.values.max())
        if vmin < -1e-12 or vmax > 1.0 + 1e-12:
            raise ValueError(f"control values must lie in [0, 1], got range [{vmin}, {vmax}]")
        K = self.lipschitz_bound
        if K is not None:
            if K < 0.0:
                raise ValueError("lipschitz_bound must be >= 0")
            if len(self) > 1:
                rates = np.abs(np.diff(self.values)) / np.diff(self.times)
                worst = float(rates.max())
                if worst > K * (1.0 + 1e-9) + 1e-12:
                    raise ValueError(
                        f"control violates its Lipschitz bound: max slope {worst} > {K}"
                    )

    @classmethod
    def constant(cls, value: float, t0: float = 0.0, t1: float = 1.0) -> "ControlSignal":
        return cls(times=np.array([t0, t1]), values=np.array([value, value]),
                   lipschitz_bound=0.0)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution path: times plus the three state components."""

    times: np.ndarray
    theta: np.ndarray
    v: np.ndarray
    v_r: np.ndarray

    def __post_init__(self) -> None:
        for name in ("times", "theta", "v", "v_r"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.times.size
        if not (self.theta.size == self.v.size == self.v_r.size == n):
            raise ValueError("trajectory arrays must have equal length")
        if n > 1 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("trajectory times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.times.size)

    def state(self, i: int) -> HostState:
        return HostState(float(self.theta[i]), float(self.v[i]), float(self.v_r[i]))

    @property
    def final(self) -> HostState:
        return self.state(len(self) - 1)


# ---------------------------------------------------------------------------
#  Vector field
# ---------------------------------------------------------------------------

def eval_rhs(t: float, x: HostState, u_val: float, p: ModelParams) -> tuple:
    """Evaluate the model right-hand side at (t, x) under control value u_val.

    Returns (dtheta/dt, dv/dt, dv_r/dt).  Raises DivisionGuardError if the
    point is outside the domain of the vector field (1 - theta1*u <= 0,
    theta == 1, or v == 0).
    """
    floor = 1.0 - p.theta1 * u_val
    if floor <= 0.0:
        raise DivisionGuardError(f"1 - theta1*u = {floor} <= 0 (theta1={p.theta1}, u={u_val})")
    if x.theta == 1.0:
        raise DivisionGuardError("theta == 1: growth saturation term undefined")
    if x.v == 0.0:
        raise DivisionGuardError("v == 0: rot fraction undefined")
    dtheta = p.alpha(t, x.theta) * (1.0 - x.theta / floor)
    dv = p.beta(t, x.theta) * (1.0 - x.v * p.theta2 / ((1.0 - x.theta) * p.eta(t) * p.v_max))
    dv_r = p.gamma(t, x.theta) * (1.0 - x.v_r / x.v)
    return (dtheta, dv, dv_r)


# ---------------------------------------------------------------------------
#  Integration
# ---------------------------------------------------------------------------

def _control_knots(u) -> Optional[tuple]:
    """(knot times, knot values) the kernels interpolate a sampled or constant
    control between, or None for any other control."""
    if isinstance(u, SampledPath):
        return u.times, u.values
    if isinstance(u, (int, float)):
        return np.array([0.0, 1.0]), np.array([float(u)] * 2)
    return None


def _normalize_control(u: Union[ControlSignal, Callable[[float], float], float]):
    """The control as a function of t: _interp_knots on the lists of its
    _control_knots, or, for an opaque callable, the callable itself."""
    knots = _control_knots(u)
    if knots is not None:
        ts, vs = knots[0].tolist(), knots[1].tolist()
        return lambda t: _kernels._interp_knots(t, ts, vs)
    if callable(u):
        return u
    raise TypeError(f"unsupported control specification: {type(u)!r}")


def _pack_forcing(f) -> Optional[tuple]:
    """Map a recognized forcing object to its kernel code, or None if opaque."""
    if isinstance(f, ConstantForcing):
        return (_kernels.FORCING_CONST, f.value, 0.0, 0.0)
    if isinstance(f, SeasonalForcing):
        return (_kernels.FORCING_SEASONAL, f.a, f.b, f.c)
    if isinstance(f, ProportionalForcing):
        return (_kernels.FORCING_PROPORTIONAL, f.coeff, 0.0, 0.0)
    return None


def _kernel_forcings(p: ModelParams) -> Optional[tuple]:
    """(rates, eta0): the (code, q0, q1, q2) packs of alpha, beta and gamma
    and the constant eta that the host kernels take, or None when a forcing
    is opaque or eta is not constant.  A SeverityForcing alpha packs as
    FORCING_STAGED, which only host_rk4_single reads (its rows come from
    _stage_alpha)."""
    alpha = ((_kernels.FORCING_STAGED, 0.0, 0.0, 0.0)
             if isinstance(p.alpha, SeverityForcing) else _pack_forcing(p.alpha))
    rates = (alpha, _pack_forcing(p.beta), _pack_forcing(p.gamma))
    eta = _pack_forcing(p.eta)
    if None in rates or eta is None or eta[0] != _kernels.FORCING_CONST:
        return None
    return rates, eta[1]


def _stage_alpha(f: SeverityForcing, times: np.ndarray, h: float) -> np.ndarray:
    """(n, 3) alpha at t_i, t_i + h/2 and t_i + h for the n steps of the grid
    `times`, for FORCING_STAGED; the times are the floats the generic loop
    evaluates at."""
    t = times[:-1]
    return f.at(np.stack([t, t + 0.5 * h, t + h], axis=1))


_NO_STAGES = np.empty((0, 3))

_GUARD_MESSAGES = {
    1: "1 - theta1*u <= 0",
    2: "theta reached 1",
    3: "v reached 0",
}


def time_grid(t0: float, T: float, dt: float) -> tuple:
    """(n, h, times) of the uniform step grid on [t0, T] that every solver
    steps on: n = max(1, round((T - t0)/dt)) steps of h = (T - t0)/n, so a
    dt that does not divide the horizon is rounded to the nearest step that
    does, and times = t0 + h*arange(n + 1)."""
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not T > t0:
        raise ValueError(f"need T > t0, got t0={t0}, T={T}")
    if dt > (T - t0) * (1.0 + 1e-12):
        raise ValueError(f"dt={dt} exceeds the horizon T-t0={T - t0}")
    n = max(1, int(round((T - t0) / dt)))
    h = (T - t0) / n
    return n, h, t0 + h * np.arange(n + 1)


def integrate_ode(
    p: ModelParams,
    u: Union[ControlSignal, Callable[[float], float], float],
    x0: HostState,
    t0: float = 0.0,
    T: float = 1.0,
    dt: float = None,
) -> Trajectory:
    """Integrate the within-host system with the classical 4th-order scheme.

    Fixed step size: the horizon is split into n = round((T-t0)/dt) uniform
    steps.  The default dt is 1e-3*(T-t0).  The control may be a
    ControlSignal, a plain callable of time, or a constant.

    Forcings that _kernel_forcings packs, under a ControlSignal or constant
    control, are dispatched to the host kernel; a SeverityForcing alpha
    enters it sampled once at every RK4 stage time.  Anything else falls
    back to _kernels._rk4_step on the state vector through eval_rhs, which
    is the kernel's arithmetic bit for bit for every recognized forcing and
    every ControlSignal or constant: both evaluate a SeasonalForcing through
    _kernels._time_rate and interpolate a ControlSignal with
    _kernels._interp_knots.  Only an opaque callable rounds its own way; an
    opaque control is called at every stage, twice per step at t + h/2.
    If the state hits v = 0 or theta = 1, or the control pushes
    1 - theta1*u nonpositive, integration aborts with DivisionGuardError —
    valid inputs cannot reach those points, so this is a diagnostic, not a
    recoverable condition.
    """
    if dt is None:
        dt = 1e-3 * (T - t0)
    n, h, times = time_grid(t0, T, dt)
    knots = _control_knots(u)
    forcings = _kernel_forcings(p)

    if forcings is not None and knots is not None:
        rates, eta0 = forcings
        a_stage = (_stage_alpha(p.alpha, times, h)
                   if rates[0][0] == _kernels.FORCING_STAGED else _NO_STAGES)
        theta, v, v_r, status, i_fail = _kernels.host_rk4_single(
            x0.theta, x0.v, x0.v_r, t0, h, n, p.theta1, p.theta2, p.v_max,
            rates, eta0, knots[0], knots[1], a_stage)
        if status != 0:
            raise DivisionGuardError(
                f"integration aborted at step {i_fail} (t≈{t0 + i_fail * h:.6g}): "
                + _GUARD_MESSAGES[int(status)]
            )
        return Trajectory(times=times, theta=theta, v=v, v_r=v_r)

    # Generic fallback: one RK4 step at a time through eval_rhs.
    u_fn = _normalize_control(u)

    def rhs(t, y):
        return np.array(eval_rhs(t, HostState(*y), float(u_fn(t)), p))

    out = np.empty((3, n + 1))
    out[:, 0] = x0.theta, x0.v, x0.v_r
    for i in range(n):
        t = times[i]
        out[:, i + 1] = _kernels._rk4_step(rhs, t, out[:, i], h, rhs(t, out[:, i]))
    return Trajectory(times=times, theta=out[0], v=out[1], v_r=out[2])


def integrate_ode_batch(
    params: Sequence[ModelParams],
    controls: Sequence[Union[ControlSignal, float]],
    x0s: Sequence[HostState],
    t0: float,
    T: float,
    dt: float,
) -> list:
    """Integrate many scenarios at once.

    Every scenario falls back to :func:`integrate_ode`, one by one, when any
    scenario has a SeverityForcing alpha (the batch kernel takes no stage
    rows) or a forcing that _kernel_forcings cannot pack, or when the
    controls are not all constants or SampledPaths on one common knot grid
    (constants are broadcast onto it).  The batch kernel interpolates the
    control exactly as :func:`integrate_ode` does, but its seasonal forcing
    calls np.cos where the scalar kernel calls math.cos, so the two paths
    agree to within 1e-12 rather than bit for bit.
    """
    m = len(params)
    if not (len(controls) == len(x0s) == m):
        raise ValueError("params, controls and x0s must have equal length")
    n, h, times = time_grid(t0, T, dt)
    if m == 0:
        return []

    knots_t = next((u.times for u in controls if isinstance(u, SampledPath)),
                   np.array([t0, T]))
    forcings = [_kernel_forcings(p) for p in params]
    if not all(isinstance(u, (int, float))
               or isinstance(u, SampledPath) and np.array_equal(u.times, knots_t)
               for u in controls) \
            or any(f is None or f[0][0][0] == _kernels.FORCING_STAGED for f in forcings):
        return [integrate_ode(p, u, x0, t0, T, dt)
                for p, u, x0 in zip(params, controls, x0s)]

    u_vals = np.array([np.full(knots_t.size, float(u)) if isinstance(u, (int, float))
                       else u.values for u in controls])
    x0_arr = np.array([[s.theta, s.v, s.v_r] for s in x0s], dtype=float)
    scal = np.array([[p.theta1, p.theta2, p.v_max] for p in params], dtype=float)
    codes = np.array([[r[0] for r in rates] for rates, _ in forcings], dtype=np.int64)
    q = np.array([[r[1:] for r in rates] for rates, _ in forcings], dtype=float)
    eta0 = np.array([eta for _, eta in forcings], dtype=float)

    theta, v, v_r, status = _kernels.host_rk4_batch(
        x0_arr, t0, h, n, scal, codes, q, eta0, knots_t, u_vals)
    bad = np.flatnonzero(status)
    if bad.size:
        i = int(bad[0])
        raise DivisionGuardError(
            f"scenario {i} aborted: " + _GUARD_MESSAGES[int(status[i])])
    return [Trajectory(times=times, theta=theta[i], v=v[i], v_r=v_r[i]) for i in range(m)]


# ---------------------------------------------------------------------------
#  Region membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionReport:
    """Membership report for the admissible region and its bounded subset.

    ``slacks`` maps each inequality to its signed slack (nonnegative means
    satisfied); ``violated_constraints`` lists the ones whose slack falls
    below -REGION_TOL (or, for the theta != 1 exclusion, hits zero exactly).
    """

    in_S: bool
    in_BS: bool
    slacks: dict
    violated_constraints: tuple


def check_region(x: HostState, p: ModelParams, tol: float = REGION_TOL) -> RegionReport:
    """Report membership of x in the admissible set and its bounded subset.

    The admissible set requires theta >= 0 with theta != 1, v > 0 and
    v_r >= 0; the bounded subset additionally requires theta < 1, v <= v_max
    and v_r <= v.  Inequalities are checked with ``tol`` slack to absorb
    roundoff on the boundary; the theta != 1 exclusion is exact (it is a
    single point, not a face).
    """
    slacks = {
        "theta_nonneg": x.theta,
        "theta_not_one": abs(x.theta - 1.0),
        "theta_lt_one": 1.0 - x.theta,
        "v_pos": x.v,
        "v_le_vmax": p.v_max - x.v,
        "vr_nonneg": x.v_r,
        "vr_le_v": x.v - x.v_r,
    }
    s_ok = (
        slacks["theta_nonneg"] >= -tol
        and slacks["theta_not_one"] > 0.0
        and slacks["v_pos"] >= -tol
        and slacks["vr_nonneg"] >= -tol
    )
    bs_ok = (
        slacks["theta_nonneg"] >= -tol
        and slacks["theta_lt_one"] >= -tol
        and slacks["v_pos"] >= -tol
        and slacks["v_le_vmax"] >= -tol
        and slacks["vr_nonneg"] >= -tol
        and slacks["vr_le_v"] >= -tol
    )
    violated = tuple(
        name for name, s in slacks.items()
        if (s == 0.0 if name == "theta_not_one" else s < -tol)
    )
    return RegionReport(in_S=s_ok, in_BS=bs_ok, slacks=slacks, violated_constraints=violated)
