"""
Hot integration kernels: the host RK4 loop, for one trajectory or for a batch
of scenarios, and the coupled state/costate RK4 with event location that
closes the loop through the cubic feedback law.

The single-trajectory kernels are scalar loops on Python floats: they turn
their knot arrays into lists at entry, and ``_interp_knots`` finds a knot
interval with ``bisect``, so no numpy scalar enters the loop.  The batch
kernel steps one (3, lanes) state with ``_rk4_step``, the RK4 step that the
generic ``integrate_ode`` loop, ``integrate_adjoint`` and ``pde_control``'s
linearized lanes take too; the same ``_interp_knots`` interpolates there
with one lane vector per knot, and serves ``pde_control``'s Riccati
matrices and PDE control rows too.

Both single-trajectory kernels run the four RK4 stages of a step through
one stage body and read a time-dependent rate from a per-step table of its
values at t, t + h/2 and t + h (``_stage_table``, or a severity forcing's
stage-sampled rows).  The coupled kernel takes alpha as a function of t,
which ``ode_control._time_only_alpha`` resolves, with its ``_stage_table``
built once per grid, so shooting pays for alpha once per grid it solves on;
its stage body holds the branch test and the feedback law, which remembers
its last root.
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


def _rk4_step(f, t, y, h, d1):
    """One classical RK4 step of dy/dt = f(t, y) from (t, y) over h (which
    may be negative), y an array; d1 = f(t, y) comes from the caller, so it
    can read what the first stage did."""
    d2 = f(t + 0.5 * h, y + 0.5 * h * d1)
    d3 = f(t + 0.5 * h, y + 0.5 * h * d2)
    d4 = f(t + h, y + h * d3)
    return y + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)


#: Halvings of the feedback-root bisection: width 1/2 to 2**-50, the first <= 1e-15.
_HALVINGS = 49
#: (width, last bracket index, halvings) of the dyadic brackets at levels 38
#: and 30 of that bisection, where the warm-started feedback root tries to
#: join it: the width at level L is 0.5 * 2**-L, and _HALVINGS - L halvings
#: finish it.  The bracket ends are multiples of the width in [1, 3/2], so
#: every midpoint and width is exact.
_BRACKETS = tuple((0.5 * 2.0 ** -level, 2.0 ** level - 1.0, _HALVINGS - level)
                  for level in (38, 30))
_EPS = float(np.finfo(np.float64).eps)


def _bisect_root(c3: float, k: float) -> float:
    """The feedback root bisected from [1, 3/2] to width 2**-50 (_HALVINGS):
    the reference _feedback_root reproduces, and its fallback.  The bracket
    is dyadic, so lo + width/2 is its midpoint exactly."""
    lo = 1.0
    width = 0.5
    for _ in range(_HALVINGS):
        width *= 0.5
        mid = lo + width
        if c3 * mid * mid * mid - 2.0 * k * mid + 2.0 * k > 0.0:
            lo = mid
    return lo + 0.5 * width


def _bisect_roots(c3: np.ndarray, k) -> np.ndarray:
    """_bisect_root elementwise over the broadcast of c3 and k, bit for bit,
    for the sweep.  A scalar root costs far more here, so the kernels keep
    the scalar form."""
    return _halve(c3, 2.0 * k, np.ones(np.broadcast(c3, k).shape), 0.5, _HALVINGS)


def _halve(c3, k2, lo: np.ndarray, width: float, halvings: int) -> np.ndarray:
    """The bisection of _bisect_root from the brackets [lo, lo + width],
    in place on lo, over `halvings` halvings; returns the midpoints of the
    final brackets."""
    for _ in range(halvings):
        width *= 0.5
        mid = lo + width
        np.copyto(lo, mid, where=c3 * mid * mid * mid - k2 * mid + k2 > 0.0)
    return lo + 0.5 * width


def _feedback_root(c3: float, k: float) -> float:
    """Root in (1, 3/2) of g(w) = c3*w^3 - 2k*w + 2k for 0 < 27*c3 < 8k.

    Returns exactly the value that bisection from [1, 3/2] returns.  Viete's
    trigonometric root only picks the dyadic bracket at level 38 that
    bisection would reach, and failing that the one at level 30 (_BRACKETS);
    a bracket is used only if g, as computed, clears the bound B at both ends.

    Why the bits agree: evaluating g on [1, 3/2] commits a rounding error of
    at most eps*(8.5*c3 + 5.5*k) < b = 8*eps*(3.375*c3 + 5k).  With B = 3b,
    computed g(lo) > B means exact g(lo) > 2b; below the threshold exact g
    is strictly decreasing on [0, 3/2], so every earlier bisection midpoint
    m <= lo has exact g(m) > 2b and computed g(m) > 0, so bisection keeps
    the upper half there, and by the same argument the lower half at every
    m >= hi.
    So bisection arrives at [lo, hi] and the bracket's count of halvings
    finishes it; 2.0*k is hoisted, as g already evaluates it first.
    The argument and B are the same at both levels; a bracket fails the
    check when the root lies within about B/|g'| of an end, which the
    coarse one does about 256 times more rarely.
    Just above the true threshold (where 27*c3 < 8k holds only after
    rounding) g >= 0 everywhere, both checks fail and bisection runs from
    [1, 3/2], as it does near the double root, for tiny c3/k (where Viete's
    form cancels to fewer digits than the bracket needs) and on any
    non-finite input.
    """
    r = c3 / k
    if r == 0.0:
        # c3/k underflowed: Viete's form would divide by zero
        return _bisect_root(c3, k)
    x = -1.5 * math.sqrt(1.5 * r)
    if x < -1.0:
        x = -1.0
    w = 2.0 * math.sqrt(2.0 / (3.0 * r)) * math.cos(
        math.acos(x) / 3.0 - _TWO_PI / 3.0)
    k2 = 2.0 * k
    # The trailing 1e-300 covers absolute (subnormal) rounding errors.
    bound = 24.0 * _EPS * (3.375 * c3 + 5.0 * k) + 1e-300
    for width, last, halvings in _BRACKETS:
        pos = (w - 1.0) / width
        if not pos >= 0.0:
            pos = 0.0
        if pos > last:
            pos = last
        lo = 1.0 + math.floor(pos) * width
        hi = lo + width
        if (c3 * lo * lo * lo - k2 * lo + k2 > bound
                and c3 * hi * hi * hi - k2 * hi + k2 < -bound):
            for _ in range(halvings):
                mid = 0.5 * (lo + hi)
                if c3 * mid * mid * mid - k2 * mid + k2 > 0.0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
    return _bisect_root(c3, k)


def _feedback_roots(c3: np.ndarray, k) -> np.ndarray:
    """_feedback_root elementwise over the broadcast of c3 and k, bit for bit
    with _bisect_roots: Viete's root picks each entry's dyadic bracket at
    level 38 (_BRACKETS[0]), entries whose bracket clears the bound B at
    both ends finish its halvings, and every other entry falls back to
    _bisect_roots.  _feedback_root's proof holds entry by entry; the
    coarser bracket, which rarely helps, is not tried."""
    c3, k = np.broadcast_arrays(np.asarray(c3, dtype=float), np.asarray(k, dtype=float))
    width, last, halvings = _BRACKETS[0]
    k2 = 2.0 * k
    with np.errstate(all="ignore"):  # non-finite entries fail the check below
        r = c3 / k
        x = np.maximum(-1.5 * np.sqrt(1.5 * r), -1.0)
        w = 2.0 * np.sqrt(2.0 / (3.0 * r)) * np.cos(np.arccos(x) / 3.0 - _TWO_PI / 3.0)
        lo = 1.0 + np.floor(np.minimum(np.maximum((w - 1.0) / width, 0.0), last)) * width
        hi = lo + width
        bound = 24.0 * _EPS * (3.375 * c3 + 5.0 * k) + 1e-300
        ok = ((c3 * lo * lo * lo - k2 * lo + k2 > bound)
              & (c3 * hi * hi * hi - k2 * hi + k2 < -bound))
    roots = np.empty(c3.shape)
    roots[ok] = _halve(c3[ok], k2[ok], lo[ok], width, halvings)
    if not ok.all():
        roots[~ok] = _bisect_roots(c3[~ok], k[~ok])
    return roots


def _u_law(c3: float, theta1: float, k: float, root) -> float:
    """Interior branch of the feedback law (and its continuous extension).

    Solves c3*w^3 - 2k*w + 2k = 0, c3 = alpha*theta1^2*theta*p, with
    root(c3, k) for the root in (1, 3/2] and maps w -> u = (w-1)/(theta1*w),
    clamped to [0, 1]; u = 0 when theta1 <= 0 or c3 <= 0.  Past the
    saturation threshold (27*c3 >= 8k, where the cubic loses its usable root)
    the branch is extended by its limiting value w = min(3/2, 1/(1-theta1)),
    which is what event location integrates with while a step straddles the
    switching surface.
    """
    if theta1 <= 0.0 or c3 <= 0.0:
        return 0.0
    cap = 1.0 / (1.0 - theta1)
    if cap > 1.5:
        cap = 1.5
    if 27.0 * c3 >= 8.0 * k:
        w3 = cap
    else:
        w3 = root(c3, k)
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


# ---------------------------------------------------------------------------
#  Single-trajectory host kernel
# ---------------------------------------------------------------------------

def host_rk4_single(theta0, v0, vr0, t0, h, n, theta1, theta2, vmax,
                    rates, eta0, u_t, u_v, a_stage):
    """RK4 of the host system over n steps of h from t0, u interpolated from
    the knots (u_t, u_v); returns (theta, v, v_r, status, steps done).

    rates holds the (code, q0, q1, q2) packs of alpha, beta and gamma that
    host._kernel_forcings gives.  Each step runs its four stages through one
    stage body.  A seasonal rate comes from its _stage_table (FORCING_STAGED
    alpha from a_stage's rows), a constant one is hoisted, and only a rate
    proportional to theta is evaluated in the loop.  Equal, finite knot
    values on knots of finite span make u that constant without
    interpolation: the interpolant there is c + 0*x, and u enters only
    through 1 - theta1*u, where +0 and -0 give the same floor.  The first stage whose guard fails (1 - theta1*u <= 0,
    theta == 1, v == 0, tested in that order) ends the call with its status
    1, 2 or 3 and its step index.  The loop runs on Python floats: knots and
    tables are lists, and the state starts from float() of x0.
    """
    ts = u_t.tolist()
    vs = u_v.tolist()
    u_fixed = (vs.count(vs[0]) == len(vs) and math.isfinite(vs[0])
               and math.isfinite(ts[-1] - ts[0]))
    fl1 = flm = fl2 = 1.0 - theta1 * vs[0]
    # per-step rows of each rate; None where the rate is hoisted or proportional
    a_rows, b_rows, g_rows = (
        a_stage.tolist() if pack[0] == FORCING_STAGED
        else _stage_table(_time_rate(*pack), t0, h, n)
        if pack[0] == FORCING_SEASONAL else None
        for pack in rates)
    a_prop, b_prop, g_prop = (pack[0] == FORCING_PROPORTIONAL for pack in rates)
    a0, b0, g0 = (pack[1] for pack in rates)
    al1 = alm = al2 = a0
    be1 = bem = be2 = b0
    ga1 = gam = ga2 = g0
    half = 0.5 * h
    sixth = h / 6.0
    th, vv, vr = float(theta0), float(v0), float(vr0)
    out_th, out_v, out_vr = [th], [vv], [vr]
    for i in range(n):
        t = t0 + i * h
        if not u_fixed:
            fl1 = 1.0 - theta1 * _interp_knots(t, ts, vs)
            flm = 1.0 - theta1 * _interp_knots(t + half, ts, vs)
            fl2 = 1.0 - theta1 * _interp_knots(t + h, ts, vs)
        if a_rows is not None:
            al1, alm, al2 = a_rows[i]
        if b_rows is not None:
            be1, bem, be2 = b_rows[i]
        if g_rows is not None:
            ga1, gam, ga2 = g_rows[i]
        # -0.0 is the additive identity, so the sums end as d1 + 2*d2 + 2*d3
        # + d4 bit for bit; `step` leads from each stage's state to the next.
        sum_t = sum_v = sum_r = -0.0
        x, y, z = th, vv, vr
        for floor, al, be, ga, weight, step in ((fl1, al1, be1, ga1, 1.0, half),
                                                (flm, alm, bem, gam, 2.0, half),
                                                (flm, alm, bem, gam, 2.0, h),
                                                (fl2, al2, be2, ga2, 1.0, 0.0)):
            if floor <= 0.0 or x == 1.0 or y == 0.0:
                return (np.array(out_th), np.array(out_v), np.array(out_vr),
                        1 if floor <= 0.0 else 2 if x == 1.0 else 3, i)
            if a_prop:
                al = a0 * x
            if b_prop:
                be = b0 * x
            if g_prop:
                ga = g0 * x
            dx = al * (1.0 - x / floor)
            dy = be * (1.0 - y * theta2 / ((1.0 - x) * eta0 * vmax))
            dz = ga * (1.0 - z / y)
            sum_t = sum_t + weight * dx
            sum_v = sum_v + weight * dy
            sum_r = sum_r + weight * dz
            x = th + step * dx
            y = vv + step * dy
            z = vr + step * dz
        th = th + sixth * sum_t
        vv = vv + sixth * sum_v
        vr = vr + sixth * sum_r
        out_th.append(th)
        out_v.append(vv)
        out_vr.append(vr)
    return np.array(out_th), np.array(out_v), np.array(out_vr), 0, n


# ---------------------------------------------------------------------------
#  Batched host kernel
# ---------------------------------------------------------------------------

def host_rk4_batch(x0, t0, h, n, scal, codes, q, eta0, u_t, u_vals):
    """host_rk4_single's RK4 step vectorized across scenarios, one lane per
    row of x0; row s of u_vals holds lane s's control at the knots u_t.
    Returns (theta, v, v_r, status), each row one lane.  A lane's status is
    the first nonzero guard code of its stages, as host_rk4_single's; from
    that step on the lane keeps its state."""
    m = x0.shape[0]
    X = x0.T.copy()
    out = np.empty((3, m, n + 1))
    out[:, :, 0] = X
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
    stage_codes = []

    def forcing(slot, t, theta_now):
        code = codes[:, slot]
        base = q0[:, slot]
        lag = t - q1[:, slot]
        seas = base * lag * lag * (1.0 - np.cos(_TWO_PI * t / q2[:, slot]))
        return np.where(code == FORCING_CONST, base,
                        np.where(code == FORCING_SEASONAL, seas, base * theta_now))

    def rhs(t, Y):
        a, b, c = Y
        floor = 1.0 - theta1 * _interp_knots(t, ts, vs)
        stage_codes.append(np.where(floor <= 0.0, 1,
                                    np.where(a == 1.0, 2, np.where(b == 0.0, 3, 0))))
        da = forcing(0, t, a) * (1.0 - a / floor)
        db = forcing(1, t, a) * (1.0 - b * theta2 / ((1.0 - a) * eta0 * vmax))
        dc = forcing(2, t, a) * (1.0 - c / b)
        return np.array((da, db, dc))

    for i in range(n):
        t = t0 + i * h
        stage_codes.clear()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            X_next = _rk4_step(rhs, t, X, h, rhs(t, X))
        code = np.select([c != 0 for c in stage_codes], stage_codes)
        newly = alive & (code != 0)
        status[newly] = code[newly]
        alive &= code == 0
        X = np.where(alive, X_next, X)
        out[:, :, i + 1] = X
    return out[0], out[1], out[2], status


# ---------------------------------------------------------------------------
#  Coupled state/costate kernel with feedback control
# ---------------------------------------------------------------------------

def _time_rate(code, q0, q1, q2):
    """A time-only rate as a function of t: the constant q0 or the seasonal
    q0*(t - q1)^2*(1 - cos(2*pi*t/q2)), the package's one scalar seasonal
    formula."""
    if code == FORCING_SEASONAL:
        return lambda t: q0 * (t - q1) * (t - q1) * (1.0 - math.cos(_TWO_PI * t / q2))
    return lambda t: q0


def _stage_table(rate, t0, h, n):
    """Row i holds rate(t), rate(t + 0.5*h) and rate(t + h) for t = t0 + i*h:
    the times an RK4 step evaluates a time-only rate at.  The host kernel
    reads its seasonal rates from it, the coupled kernel its alpha."""
    half = 0.5 * h
    table = []
    for i in range(n):
        t = t0 + i * h
        table.append((rate(t), rate(t + half), rate(t + h)))
    return table


def _interior_law(theta1, k):
    """_u_law with the warm root as a function of c3, remembering its last
    result.

    A node's u and the next step's first stage solve the cubic at the same
    c3 whenever alpha at t + h and at the next grid time round alike; the
    second then reuses the first's root.  coupled_rk4 builds one per call, so
    no two threads share the memo (batch --jobs runs scenarios on threads).
    """
    last_c3 = math.nan
    last_u = 0.0

    def law(c3):
        nonlocal last_c3, last_u
        if c3 != last_c3:
            last_u = _u_law(c3, theta1, k, _feedback_root)
            last_c3 = c3
        return last_u

    return law


def _coupled_sub(th, pp, tau, al1, alm, ale, theta1, k, law):
    """One RK4 substep of the (theta, p) system over tau, alpha being al1,
    alm and ale at its start, middle and end, with the feedback branch frozen
    at the side of the switching surface the start state lies on.

    Returns (theta', p', end_flip, any_flip): whether the end state lies on
    the other side of the surface, and whether any stage did.
    """
    k8 = 8.0 * k
    half = 0.5 * tau
    saturated = 27.0 * al1 * theta1 * theta1 * th * pp >= k8
    any_flip = False
    # -0.0 is the additive identity, so the sums end as d1 + 2*d2 + 2*d3 + d4
    # bit for bit; `step` leads from each stage's state to the next one's.
    sum_t = sum_p = -0.0
    x = th
    y = pp
    for al, weight, step in ((al1, 1.0, half), (alm, 2.0, half),
                             (alm, 2.0, tau), (ale, 1.0, 0.0)):
        if (27.0 * al * theta1 * theta1 * x * y >= k8) != saturated:
            any_flip = True
        if saturated:
            floor = 1.0 - theta1
        else:
            floor = 1.0 - theta1 * law(al * theta1 * theta1 * x * y)
        dx = al * (1.0 - x / floor)
        dy = al * y / floor - 2.0 * x
        sum_t = sum_t + weight * dx
        sum_p = sum_p + weight * dy
        x = th + step * dx
        y = pp + step * dy
    th_end = th + (tau / 6.0) * sum_t
    pp_end = pp + (tau / 6.0) * sum_p
    end_flip = (27.0 * ale * theta1 * theta1 * th_end * pp_end >= k8) != saturated
    return th_end, pp_end, end_flip, any_flip or end_flip


def _substep_at(forcing, tc, al_c, th, pp, tau, theta1, k, law):
    """_coupled_sub from time tc (where alpha is al_c) over tau."""
    return _coupled_sub(th, pp, tau, al_c, forcing(tc + 0.5 * tau),
                        forcing(tc + tau), theta1, k, law)


def _bisect_switch(forcing, tc, al_c, th, pp, tau_lo, tau_hi, theta1, k, law,
                   stop):
    """Bisect (tau_lo, tau_hi] for the first end-state flip, 60 halvings.

    With stop (_switching_step), it returns once the midpoint rounds to a
    bracket end: the midpoint's substep is then the one that set that end, so
    it would set it to itself again and the bracket can no longer change.
    """
    for _ in range(60):
        mid = 0.5 * (tau_lo + tau_hi)
        if stop and (mid == tau_lo or mid == tau_hi):
            break
        if _substep_at(forcing, tc, al_c, th, pp, mid, theta1, k, law)[2]:
            tau_hi = mid
        else:
            tau_lo = mid
    return tau_hi


#: Switch events located in one step before the rest of it is taken on the
#: frozen branch.
_MAX_EVENTS = 16


def _switching_step(forcing, tc, al_c, th, pp, remaining, th_e, pp_e,
                    theta1, k, law):
    """Finish a step whose frozen-branch substep over `remaining` from
    (tc, th, pp), ending at (th_e, pp_e), saw the other side of the surface.

    Brackets the first end-state flip on an eighth-resolution scan of
    frozen-branch substeps, locates it by bisection and restarts from the
    switch point on the other branch, for at most _MAX_EVENTS switches.
    Returns (theta, p, switch events, event-cap hits, grazing exits).
    """
    events = 0
    while True:
        if events >= _MAX_EVENTS:
            return th_e, pp_e, events, 1, 0
        tau_lo = 0.0
        tau_hi = -1.0
        for j in range(1, 9):
            tau_j = remaining * j / 8.0
            if _substep_at(forcing, tc, al_c, th, pp, tau_j, theta1, k, law)[2]:
                tau_hi = tau_j
                break
            tau_lo = tau_j
        if tau_hi < 0.0:
            # The crossing never shows at a substep end (grazing touch);
            # the frozen-branch step is the consistent choice.
            return th_e, pp_e, events, 0, 1
        tau_hi = _bisect_switch(forcing, tc, al_c, th, pp, tau_lo, tau_hi,
                                theta1, k, law, True)
        th, pp, _, _ = _substep_at(forcing, tc, al_c, th, pp, tau_hi, theta1, k, law)
        tc += tau_hi
        remaining -= tau_hi
        events += 1
        if not remaining > 0.0:
            return th, pp, events, 0, 0
        al_c = forcing(tc)
        th_e, pp_e, _, flip = _substep_at(forcing, tc, al_c, th, pp, remaining,
                                          theta1, k, law)
        if not flip:
            return th_e, pp_e, events, 0, 0


def coupled_rk4(theta0, p0, t0, h, n, theta1, k, forcing, a_table):
    """Integrate (theta, p) forward with u supplied by the feedback law.

    The feedback saturates discontinuously on the surface
    27*alpha*theta1^2*theta*p = 8k, so naively sampling it at fixed stage
    times makes the end state jump as initial conditions vary — poison for
    shooting.  Each step therefore freezes the branch, watches the stages for
    a surface crossing, locates the crossing time by bisection on frozen-
    branch substeps, and restarts the step from the switch point on the other
    branch.  The reported u values are recomputed from the node values with
    the plain (unfrozen) law.

    forcing is alpha as a function of t (ode_control._time_only_alpha) and
    a_table its _stage_table on the same grid: a step without a switch reads
    its alpha from the table, and only switch location evaluates alpha at
    other times.  The loop runs on Python floats (theta0 and p0 are taken
    as floats), and the interior law remembers its last root for the call
    (_interior_law).  Returns (theta, p, u, counts), counts
    being (switch events, steps that hit the _MAX_EVENTS cap, grazing exits).
    """
    law = _interior_law(theta1, k)
    k8 = 8.0 * k
    out_th = np.empty(n + 1)
    out_p = np.empty(n + 1)
    out_u = np.empty(n + 1)
    events = cap_hits = grazing = 0
    th = float(theta0)
    pp = float(p0)
    al_node = forcing(t0)
    for i in range(n + 1):
        out_th[i] = th
        out_p[i] = pp
        if theta1 > 0.0 and 27.0 * al_node * theta1 * theta1 * th * pp >= k8:
            out_u[i] = 1.0
        else:
            out_u[i] = law(al_node * theta1 * theta1 * th * pp)
        if i == n:
            break
        al_lo, al_mid, al_node = a_table[i]
        th_e, pp_e, _, flip = _coupled_sub(th, pp, h, al_lo, al_mid, al_node,
                                           theta1, k, law)
        if flip:
            th_e, pp_e, ev, cap, graze = _switching_step(
                forcing, t0 + i * h, al_lo, th, pp, h, th_e, pp_e, theta1, k, law)
            events += ev
            cap_hits += cap
            grazing += graze
        th = th_e
        pp = pp_e
    return out_th, out_p, out_u, (events, cap_hits, grazing)
