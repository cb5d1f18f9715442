"""
Hot integration kernels: the host RK4 loop, for one trajectory or for a batch
of scenarios, and the coupled state/costate RK4 with event location that
closes the loop through the cubic feedback law.

The single-trajectory kernels are scalar loops on Python floats: they turn
their knot arrays into lists at entry, and ``_interp_knots`` finds a knot
interval with ``bisect``, so no numpy scalar enters the loop.  The batch
kernel runs the same RK4 step vectorized across scenarios; the same
``_interp_knots`` interpolates there with one lane vector per knot.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

__all__ = [
    "FORCING_CONST",
    "FORCING_SEASONAL",
    "FORCING_PROPORTIONAL",
    "FORCING_STAGED",
    "HAVE_NUMBA",
    "backend_name",
    "host_rk4_single",
    "host_rk4_batch",
    "coupled_rk4",
]

FORCING_CONST = 0
FORCING_SEASONAL = 1
FORCING_PROPORTIONAL = 2
#: Time-sampled forcing with linear interpolation between knots (coupled
#: kernel only; knot arrays travel alongside the code).
FORCING_SAMPLED = 3
#: alpha given at the RK4 stage times of each step (host kernel only): row i
#: of an (n, 3) array holds alpha at t_i, t_i + h/2 and t_i + h.
FORCING_STAGED = 4

_TWO_PI = 2.0 * math.pi

# Benchmark environment records read both; the kernels have no compiled backend.
HAVE_NUMBA = False


def backend_name() -> str:
    return "numpy"


# ---------------------------------------------------------------------------
#  Scalar helpers
# ---------------------------------------------------------------------------

def _forcing_value(code: int, q0: float, q1: float, q2: float,
                   t: float, theta: float) -> float:
    if code == FORCING_CONST:
        return q0
    if code == FORCING_SEASONAL:
        return q0 * (t - q1) * (t - q1) * (1.0 - math.cos(_TWO_PI * t / q2))
    return q0 * theta


def _interp_knots(t: float, ts: list, vs):
    """Linear interpolation with constant extension, as np.interp.

    ts is a sorted list of knot times; vs[j] is the value at ts[j], a float
    or (in the batch kernel) a vector of lanes.  bisect_left picks the same
    interval as np.searchsorted(side="left") on sorted, finite knots.
    """
    if t <= ts[0]:
        return vs[0]
    if t >= ts[-1]:
        return vs[-1]
    j = bisect_left(ts, t)
    t0 = ts[j - 1]
    t1 = ts[j]
    return vs[j - 1] + (vs[j] - vs[j - 1]) * (t - t0) / (t1 - t0)


def _host_rhs(t, th, vv, vr, u,
              theta1, theta2, vmax,
              a_code, a0, a1, a2,
              b_code, b0, b1, b2,
              g_code, g0, g1, g2,
              eta0):
    floor = 1.0 - theta1 * u
    if floor <= 0.0:
        return (0.0, 0.0, 0.0, 1)
    if th == 1.0:
        return (0.0, 0.0, 0.0, 2)
    if vv == 0.0:
        return (0.0, 0.0, 0.0, 3)
    al = _forcing_value(a_code, a0, a1, a2, t, th)
    be = _forcing_value(b_code, b0, b1, b2, t, th)
    ga = _forcing_value(g_code, g0, g1, g2, t, th)
    dth = al * (1.0 - th / floor)
    dv = be * (1.0 - vv * theta2 / ((1.0 - th) * eta0 * vmax))
    dvr = ga * (1.0 - vr / vv)
    return (dth, dv, dvr, 0)


#: Dyadic level at which the warm-started feedback root joins the bisection
#: from [1, 3/2]: the bracket width there is 0.5 * 2**-_WARM_LEVEL.
_WARM_LEVEL = 38
_WARM_WIDTH = 0.5 * 2.0 ** -_WARM_LEVEL
_WARM_LAST = 2.0 ** _WARM_LEVEL - 1.0
_EPS = float(np.finfo(np.float64).eps)


def _bisect_root(c3: float, k: float, lo: float, hi: float) -> float:
    """Bisect g(w) = c3*w^3 - 2k*w + 2k on [lo, hi] down to width 1e-15."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if c3 * mid * mid * mid - 2.0 * k * mid + 2.0 * k > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15:
            break
    return 0.5 * (lo + hi)


def _feedback_root(c3: float, k: float) -> float:
    """Root in (1, 3/2) of g(w) = c3*w^3 - 2k*w + 2k for 0 < 27*c3 < 8k.

    Returns exactly the value that bisection from [1, 3/2] returns.  Viete's
    trigonometric root only picks the level-_WARM_LEVEL dyadic bracket that
    bisection would reach; the bracket is used only if g, as computed, clears
    the bound B at both ends.

    Why the bits agree: evaluating g on [1, 3/2] commits a rounding error of
    at most eps*(8.5*c3 + 5.5*k) < b = 8*eps*(3.375*c3 + 5k).  With B = 3b,
    computed g(lo) > B means exact g(lo) > 2b; below the threshold exact g
    is strictly decreasing on [0, 3/2], so every earlier bisection midpoint
    m <= lo has exact g(m) > 2b and computed g(m) > 0, so bisection keeps
    the upper half there, and by the same argument the lower half at every
    m >= hi.
    So bisection arrives at [lo, hi] (its width, 2**-39, is far above the
    1e-15 stop) and the unchanged loop finishes it.
    Just above the true threshold (where 27*c3 < 8k holds only after
    rounding) g >= 0 everywhere, the check fails and bisection runs from
    [1, 3/2], as it does near the double root, for tiny c3/k (where Viete's
    form cancels to fewer digits than the bracket needs) and on any
    non-finite input.
    """
    r = c3 / k
    if r == 0.0:
        # c3/k underflowed: Viete's form would divide by zero
        return _bisect_root(c3, k, 1.0, 1.5)
    x = -1.5 * math.sqrt(1.5 * r)
    if x < -1.0:
        x = -1.0
    w = 2.0 * math.sqrt(2.0 / (3.0 * r)) * math.cos(
        math.acos(x) / 3.0 - _TWO_PI / 3.0)
    pos = (w - 1.0) / _WARM_WIDTH
    if not pos >= 0.0:
        pos = 0.0
    if pos > _WARM_LAST:
        pos = _WARM_LAST
    lo = 1.0 + math.floor(pos) * _WARM_WIDTH
    hi = lo + _WARM_WIDTH
    # The trailing 1e-300 covers absolute (subnormal) rounding errors.
    bound = 24.0 * _EPS * (3.375 * c3 + 5.0 * k) + 1e-300
    if (c3 * lo * lo * lo - 2.0 * k * lo + 2.0 * k > bound
            and c3 * hi * hi * hi - 2.0 * k * hi + 2.0 * k < -bound):
        return _bisect_root(c3, k, lo, hi)
    return _bisect_root(c3, k, 1.0, 1.5)


def _u_law(alpha_t: float, theta: float, p: float,
           theta1: float, k: float, warm: bool) -> float:
    """Body of _u_interior; warm=False bisects from [1, 3/2] directly."""
    if theta1 <= 0.0:
        return 0.0
    c3 = alpha_t * theta1 * theta1 * theta * p
    if c3 <= 0.0:
        return 0.0
    cap = 1.0 / (1.0 - theta1)
    if cap > 1.5:
        cap = 1.5
    if 27.0 * c3 >= 8.0 * k:
        w3 = cap
    else:
        if warm:
            w3 = _feedback_root(c3, k)
        else:
            w3 = _bisect_root(c3, k, 1.0, 1.5)
        if w3 > cap:
            w3 = cap
        if w3 < 1.0:
            w3 = 1.0
    u = (w3 - 1.0) / (theta1 * w3)
    if u < 0.0:
        u = 0.0
    if u > 1.0:
        u = 1.0
    return u


def _u_interior(alpha_t: float, theta: float, p: float,
                theta1: float, k: float) -> float:
    """Interior branch of the feedback law (and its continuous extension).

    Solves c3*w^3 - 2k*w + 2k = 0 with c3 = alpha*theta1^2*theta*p for the
    root in (1, 3/2] and maps w -> u = (w-1)/(theta1*w), clamped to [0, 1].
    Past the saturation threshold (27*c3 >= 8k, where the cubic loses its
    usable root) the branch is extended by its limiting value w = 3/2, which
    is what event location integrates with while a step straddles the
    switching surface.  The root is warm-started (see _feedback_root), so the
    result is bit-identical to _u_interior_bisect.
    """
    return _u_law(alpha_t, theta, p, theta1, k, True)


def _u_interior_bisect(alpha_t: float, theta: float, p: float,
                       theta1: float, k: float) -> float:
    """_u_interior with the root bisected from [1, 3/2]: the reference."""
    return _u_law(alpha_t, theta, p, theta1, k, False)


def feedback_u(alpha_t: float, theta: float, p: float,
               theta1: float, k: float) -> float:
    """Pointwise optimal control from the cubic feedback law.

    u = 1 when 27*alpha*theta1^2*theta*p >= 8k (no usable nonnegative root);
    otherwise the interior cubic root mapped through u = (w-1)/(theta1*w).
    """
    if theta1 <= 0.0:
        return 0.0
    if 27.0 * alpha_t * theta1 * theta1 * theta * p >= 8.0 * k:
        return 1.0
    return _u_interior(alpha_t, theta, p, theta1, k)


# ---------------------------------------------------------------------------
#  Single-trajectory host kernel
# ---------------------------------------------------------------------------

def host_rk4_single(theta0, v0, vr0, t0, h, n,
                    theta1, theta2, vmax,
                    a_code, a0, a1, a2,
                    b_code, b0, b1, b2,
                    g_code, g0, g1, g2,
                    eta0, u_t, u_v, a_stage):
    """RK4 of the host system over n steps of h from t0, u interpolated from
    the knots (u_t, u_v); returns (theta, v, v_r, status, steps done).

    The loop runs on Python floats: the knots and the stage-sampled alpha
    become lists here, and the state starts from float() of x0.
    """
    staged = a_code == FORCING_STAGED
    if staged:
        a_code = FORCING_CONST
    a_lo = a0
    a_mid = a0
    a_hi = a0
    ts = u_t.tolist()
    vs = u_v.tolist()
    stages = a_stage.tolist()
    th = float(theta0)
    vv = float(v0)
    vr = float(vr0)
    out_th = np.empty(n + 1)
    out_v = np.empty(n + 1)
    out_vr = np.empty(n + 1)
    out_th[0] = th
    out_v[0] = vv
    out_vr[0] = vr
    for i in range(n):
        t = t0 + i * h
        u1 = _interp_knots(t, ts, vs)
        um = _interp_knots(t + 0.5 * h, ts, vs)
        u2 = _interp_knots(t + h, ts, vs)
        if staged:
            # the stage value enters as a constant alpha
            a_lo, a_mid, a_hi = stages[i]
        d1t, d1v, d1r, s1 = _host_rhs(t, th, vv, vr, u1, theta1, theta2, vmax,
                                      a_code, a_lo, a1, a2, b_code, b0, b1, b2,
                                      g_code, g0, g1, g2, eta0)
        d2t, d2v, d2r, s2 = _host_rhs(t + 0.5 * h, th + 0.5 * h * d1t,
                                      vv + 0.5 * h * d1v, vr + 0.5 * h * d1r, um,
                                      theta1, theta2, vmax,
                                      a_code, a_mid, a1, a2, b_code, b0, b1, b2,
                                      g_code, g0, g1, g2, eta0)
        d3t, d3v, d3r, s3 = _host_rhs(t + 0.5 * h, th + 0.5 * h * d2t,
                                      vv + 0.5 * h * d2v, vr + 0.5 * h * d2r, um,
                                      theta1, theta2, vmax,
                                      a_code, a_mid, a1, a2, b_code, b0, b1, b2,
                                      g_code, g0, g1, g2, eta0)
        d4t, d4v, d4r, s4 = _host_rhs(t + h, th + h * d3t, vv + h * d3v,
                                      vr + h * d3r, u2,
                                      theta1, theta2, vmax,
                                      a_code, a_hi, a1, a2, b_code, b0, b1, b2,
                                      g_code, g0, g1, g2, eta0)
        status = s1
        if status == 0:
            status = s2
        if status == 0:
            status = s3
        if status == 0:
            status = s4
        if status != 0:
            return out_th, out_v, out_vr, status, i
        th = th + (h / 6.0) * (d1t + 2.0 * d2t + 2.0 * d3t + d4t)
        vv = vv + (h / 6.0) * (d1v + 2.0 * d2v + 2.0 * d3v + d4v)
        vr = vr + (h / 6.0) * (d1r + 2.0 * d2r + 2.0 * d3r + d4r)
        out_th[i + 1] = th
        out_v[i + 1] = vv
        out_vr[i + 1] = vr
    return out_th, out_v, out_vr, 0, n


# ---------------------------------------------------------------------------
#  Batched host kernel
# ---------------------------------------------------------------------------

def host_rk4_batch(x0, t0, h, n, scal, codes, q, eta0, u_t, u_vals):
    """host_rk4_single's RK4 step vectorized across scenarios, one lane per
    row of x0; row s of u_vals holds lane s's control at the knots u_t.
    Returns (theta, v, v_r, status), each row one lane."""
    m = x0.shape[0]
    th = x0[:, 0].copy()
    vv = x0[:, 1].copy()
    vr = x0[:, 2].copy()
    out_th = np.empty((m, n + 1))
    out_v = np.empty((m, n + 1))
    out_vr = np.empty((m, n + 1))
    out_th[:, 0] = th
    out_v[:, 0] = vv
    out_vr[:, 0] = vr
    status = np.zeros(m, dtype=np.int64)
    alive = np.ones(m, dtype=bool)
    theta1 = scal[:, 0]
    theta2 = scal[:, 1]
    vmax = scal[:, 2]
    q0 = q[:, :, 0]
    q1 = q[:, :, 1]
    q2 = np.where(q[:, :, 2] == 0.0, 1.0, q[:, :, 2])
    ts = u_t.tolist()
    vs = u_vals.T

    def forcing(slot, t, theta_now):
        code = codes[:, slot]
        base = q0[:, slot]
        seas = base * (t - q1[:, slot]) ** 2 * (1.0 - np.cos(_TWO_PI * t / q2[:, slot]))
        return np.where(code == FORCING_CONST, base,
                        np.where(code == FORCING_SEASONAL, seas, base * theta_now))

    def rhs(t, a, b, c, u):
        floor = 1.0 - theta1 * u
        code = np.where(floor <= 0.0, 1,
                        np.where(a == 1.0, 2, np.where(b == 0.0, 3, 0)))
        with np.errstate(divide="ignore", invalid="ignore"):
            al = forcing(0, t, a)
            be = forcing(1, t, a)
            ga = forcing(2, t, a)
            da = al * (1.0 - a / floor)
            db = be * (1.0 - b * theta2 / ((1.0 - a) * eta0 * vmax))
            dc = ga * (1.0 - c / b)
        return da, db, dc, code

    for i in range(n):
        t = t0 + i * h
        u1 = _interp_knots(t, ts, vs)
        um = _interp_knots(t + 0.5 * h, ts, vs)
        u2 = _interp_knots(t + h, ts, vs)
        d1t, d1v, d1r, c1 = rhs(t, th, vv, vr, u1)
        d2t, d2v, d2r, c2 = rhs(t + 0.5 * h, th + 0.5 * h * d1t,
                                vv + 0.5 * h * d1v, vr + 0.5 * h * d1r, um)
        d3t, d3v, d3r, c3 = rhs(t + 0.5 * h, th + 0.5 * h * d2t,
                                vv + 0.5 * h * d2v, vr + 0.5 * h * d2r, um)
        d4t, d4v, d4r, c4 = rhs(t + h, th + h * d3t, vv + h * d3v,
                                vr + h * d3r, u2)
        code = np.where(c1 != 0, c1, np.where(c2 != 0, c2,
                        np.where(c3 != 0, c3, c4)))
        newly = alive & (code != 0)
        status[newly] = code[newly]
        ok = alive & (code == 0)
        th = np.where(ok, th + (h / 6.0) * (d1t + 2.0 * d2t + 2.0 * d3t + d4t), th)
        vv = np.where(ok, vv + (h / 6.0) * (d1v + 2.0 * d2v + 2.0 * d3v + d4v), vv)
        vr = np.where(ok, vr + (h / 6.0) * (d1r + 2.0 * d2r + 2.0 * d3r + d4r), vr)
        alive = ok
        out_th[:, i + 1] = th
        out_v[:, i + 1] = vv
        out_vr[:, i + 1] = vr
    return out_th, out_v, out_vr, status


# ---------------------------------------------------------------------------
#  Coupled state/costate kernel with feedback control
# ---------------------------------------------------------------------------

def _alpha_at(a_code, a0, a1, a2, a_t, a_v, t):
    if a_code == FORCING_SAMPLED:
        return _interp_knots(t, a_t, a_v)
    return _forcing_value(a_code, a0, a1, a2, t, 0.0)


def _branch_of(alpha_t, theta, p, theta1, k):
    """1 on the saturated side of the switching surface, 0 on the interior side."""
    if 27.0 * alpha_t * theta1 * theta1 * theta * p >= 8.0 * k:
        return 1
    return 0


def _u_branch(branch, alpha_t, theta, p, theta1, k):
    if branch == 1:
        return 1.0
    return _u_interior(alpha_t, theta, p, theta1, k)


def _coupled_sub(t, th, pp, tau, branch, theta1, k, a_code, a0, a1, a2, a_t, a_v):
    """One RK4 substep of the (theta, p) system with the feedback branch frozen.

    Returns (theta', p', end_flip, any_flip): whether the end state lies on
    the other side of the switching surface, and whether any stage did.
    """
    any_flip = 0

    al = _alpha_at(a_code, a0, a1, a2, a_t, a_v, t)
    if _branch_of(al, th, pp, theta1, k) != branch:
        any_flip = 1
    u = _u_branch(branch, al, th, pp, theta1, k)
    floor = 1.0 - theta1 * u
    d1t = al * (1.0 - th / floor)
    d1p = al * pp / floor - 2.0 * th

    tm = t + 0.5 * tau
    th2 = th + 0.5 * tau * d1t
    pp2 = pp + 0.5 * tau * d1p
    al = _alpha_at(a_code, a0, a1, a2, a_t, a_v, tm)
    if _branch_of(al, th2, pp2, theta1, k) != branch:
        any_flip = 1
    u = _u_branch(branch, al, th2, pp2, theta1, k)
    floor = 1.0 - theta1 * u
    d2t = al * (1.0 - th2 / floor)
    d2p = al * pp2 / floor - 2.0 * th2

    th3 = th + 0.5 * tau * d2t
    pp3 = pp + 0.5 * tau * d2p
    if _branch_of(al, th3, pp3, theta1, k) != branch:
        any_flip = 1
    u = _u_branch(branch, al, th3, pp3, theta1, k)
    floor = 1.0 - theta1 * u
    d3t = al * (1.0 - th3 / floor)
    d3p = al * pp3 / floor - 2.0 * th3

    te = t + tau
    th4 = th + tau * d3t
    pp4 = pp + tau * d3p
    al = _alpha_at(a_code, a0, a1, a2, a_t, a_v, te)
    if _branch_of(al, th4, pp4, theta1, k) != branch:
        any_flip = 1
    u = _u_branch(branch, al, th4, pp4, theta1, k)
    floor = 1.0 - theta1 * u
    d4t = al * (1.0 - th4 / floor)
    d4p = al * pp4 / floor - 2.0 * th4

    th_end = th + (tau / 6.0) * (d1t + 2.0 * d2t + 2.0 * d3t + d4t)
    pp_end = pp + (tau / 6.0) * (d1p + 2.0 * d2p + 2.0 * d3p + d4p)
    al = _alpha_at(a_code, a0, a1, a2, a_t, a_v, te)
    end_flip = 0
    if _branch_of(al, th_end, pp_end, theta1, k) != branch:
        end_flip = 1
        any_flip = 1
    return th_end, pp_end, end_flip, any_flip


def _bisect_switch(tc, th, pp, tau_lo, tau_hi, branch, theta1, k,
                   a_code, a0, a1, a2, a_t, a_v, stop):
    """Bisect (tau_lo, tau_hi] for the first end-state flip, 60 halvings.

    With stop, it returns once the midpoint rounds to a bracket end: the
    midpoint's substep is then the one that set that end, so it would set it
    to itself again and the bracket can no longer change.
    """
    for _ in range(60):
        mid = 0.5 * (tau_lo + tau_hi)
        if stop and (mid == tau_lo or mid == tau_hi):
            break
        _, _, ef_m, _ = _coupled_sub(
            tc, th, pp, mid, branch, theta1, k,
            a_code, a0, a1, a2, a_t, a_v)
        if ef_m == 1:
            tau_hi = mid
        else:
            tau_lo = mid
    return tau_hi


def _locate_switch(tc, th, pp, tau_lo, tau_hi, branch, theta1, k,
                   a_code, a0, a1, a2, a_t, a_v):
    """Switch time of the bracket, stopping at its fixed point."""
    return _bisect_switch(tc, th, pp, tau_lo, tau_hi, branch, theta1, k,
                          a_code, a0, a1, a2, a_t, a_v, True)


def _locate_switch_full(tc, th, pp, tau_lo, tau_hi, branch, theta1, k,
                        a_code, a0, a1, a2, a_t, a_v):
    """_locate_switch with all 60 halvings: the reference."""
    return _bisect_switch(tc, th, pp, tau_lo, tau_hi, branch, theta1, k,
                          a_code, a0, a1, a2, a_t, a_v, False)


def coupled_rk4(theta0, p0, t0, h, n, theta1, k,
                a_code, a0, a1, a2, a_t, a_v):
    """Integrate (theta, p) forward with u supplied by the feedback law.

    The feedback saturates discontinuously on the surface
    27*alpha*theta1^2*theta*p = 8k, so naively sampling it at fixed stage
    times makes the end state jump as initial conditions vary — poison for
    shooting.  Each step therefore freezes the branch, watches the stages for
    a surface crossing, locates the crossing time by bisection on frozen-
    branch substeps, and restarts the step from the switch point on the other
    branch.  The reported u values are recomputed from the node values with
    the plain (unfrozen) law.  The loop runs on Python floats: theta0 and p0
    (a secant iterate may be a numpy scalar) are taken as floats, and the
    alpha knots become lists.
    """
    a_t = a_t.tolist()
    a_v = a_v.tolist()
    out_th = np.empty(n + 1)
    out_p = np.empty(n + 1)
    out_u = np.empty(n + 1)
    th = float(theta0)
    pp = float(p0)
    out_th[0] = th
    out_p[0] = pp
    out_u[0] = feedback_u(_alpha_at(a_code, a0, a1, a2, a_t, a_v, t0),
                          th, pp, theta1, k)
    for i in range(n):
        t_step = t0 + i * h
        tc = t_step
        remaining = h
        events = 0
        while remaining > 0.0:
            al = _alpha_at(a_code, a0, a1, a2, a_t, a_v, tc)
            branch = _branch_of(al, th, pp, theta1, k)
            th_e, pp_e, end_f, any_f = _coupled_sub(
                tc, th, pp, remaining, branch, theta1, k,
                a_code, a0, a1, a2, a_t, a_v)
            if any_f == 0 or events >= 16:
                th, pp = th_e, pp_e
                break
            # A stage saw the other side: bracket the first end-state flip
            # on an eighth-resolution scan of frozen-branch substeps.
            tau_lo = 0.0
            tau_hi = -1.0
            for j in range(1, 9):
                tau_j = remaining * j / 8.0
                _, _, ef_j, _ = _coupled_sub(
                    tc, th, pp, tau_j, branch, theta1, k,
                    a_code, a0, a1, a2, a_t, a_v)
                if ef_j == 1:
                    tau_hi = tau_j
                    break
                tau_lo = tau_j
            if tau_hi < 0.0:
                # The crossing never shows at a substep end (grazing touch);
                # the frozen-branch step is the consistent choice.
                th, pp = th_e, pp_e
                break
            tau_hi = _locate_switch(tc, th, pp, tau_lo, tau_hi, branch, theta1, k,
                                    a_code, a0, a1, a2, a_t, a_v)
            th_sw, pp_sw, _, _ = _coupled_sub(
                tc, th, pp, tau_hi, branch, theta1, k,
                a_code, a0, a1, a2, a_t, a_v)
            th, pp = th_sw, pp_sw
            tc += tau_hi
            remaining -= tau_hi
            events += 1
        out_th[i + 1] = th
        out_p[i + 1] = pp
        out_u[i + 1] = feedback_u(
            _alpha_at(a_code, a0, a1, a2, a_t, a_v, t_step + h),
            th, pp, theta1, k)
    return out_th, out_p, out_u

