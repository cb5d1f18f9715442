"""Integration kernels: the feedback root, event location and Python-float loops."""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anthractl import (AsiCoefficients, ConstantForcing, ControlSignal,
                       DivisionGuardError, HostState, ModelParams, ProportionalForcing,
                       SeasonalForcing, SeverityForcing, WeatherSeries, _kernels,
                       integrate_ode)
from anthractl.host import _GUARD_MESSAGES, time_grid
from anthractl.ode_control import CostSpec, _coupled_setup
from anthractl._kernels import FORCING_SEASONAL, backend_name


def test_backend_name_is_valid():
    assert backend_name() == "numpy"


def test_flag_constants_are_distinct():
    codes = {_kernels.FORCING_CONST, _kernels.FORCING_SEASONAL,
             _kernels.FORCING_PROPORTIONAL, _kernels.FORCING_STAGED}
    assert len(codes) == 4


# ---------------------------------------------------------------------------
#  Warm-started feedback root: bit-identical to plain bisection
# ---------------------------------------------------------------------------

_THRESHOLD = 8.0 / 27.0

# c3/k across (0, 8/27): anywhere, within 1e-12 (relative) below the
# threshold where the double root defeats the warm start, and below 1e-9
_ratio = st.one_of(
    st.floats(0.0, _THRESHOLD, exclude_min=True, exclude_max=True),
    st.floats(1e-16, 1e-12).map(lambda d: _THRESHOLD * (1.0 - d)),
    st.floats(1e-300, 1e-9),
)
_k = st.floats(1e-3, 1e3)
_unit = st.floats(1e-6, 1.0, exclude_max=True)


@settings(max_examples=1500, deadline=None)
@given(ratio=_ratio, k=_k)
def test_feedback_root_equals_bisection(ratio, k):
    c3 = ratio * k
    assert _kernels._feedback_root(c3, k) == \
        _kernels._bisect_root(c3, k)


@settings(max_examples=1500, deadline=None)
@given(ratio=_ratio, k=_k, theta1=_unit, theta=_unit, p=st.floats(1e-3, 2.0))
def test_u_law_equals_bisection_reference(ratio, k, theta1, theta, p):
    alpha = ratio * k / (theta1 * theta1 * theta * p)
    c3 = alpha * theta1 * theta1 * theta * p
    assert _kernels._u_law(c3, theta1, k, _kernels._feedback_root) == \
        _kernels._u_law(c3, theta1, k, _kernels._bisect_root)


@settings(max_examples=300, deadline=None)
@example(ratios=[_THRESHOLD * (1.0 - 1e-16), 1e-300, 0.1], k=1e-3)
@given(ratios=st.lists(_ratio, min_size=1, max_size=40), k=_k)
def test_array_root_equals_scalar_bisection(ratios, k):
    # the sweep's roots on arrays, plain and warm-started: the scalar
    # bisection's bits in every entry, against a scalar k and against one k
    # per entry
    c3 = np.array(ratios) * k
    want = [_kernels._bisect_root(c, k) for c in c3.tolist()]
    ks = np.full(c3.shape, k)
    for roots in (_kernels._bisect_roots, _kernels._feedback_roots):
        assert roots(c3, k).tolist() == want
        assert roots(c3, ks).tolist() == want


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(_ratio, st.floats(1e-300, 1e300)), min_size=1,
                      max_size=40))
def test_warm_array_root_with_a_weight_per_entry(pairs):
    # every entry its own k, across the whole float range: each entry takes
    # its level-38 bracket or falls back on its own
    ratios, ks = (np.array(v) for v in zip(*pairs))
    c3 = ratios * ks
    want = _kernels._bisect_roots(c3, ks)
    assert _kernels._feedback_roots(c3, ks).view(np.int64).tolist() == \
        want.view(np.int64).tolist()


def test_warm_array_root_on_inputs_outside_the_interior():
    # non-finite, zero, negative, subnormal and past-threshold entries all
    # fall back to bisection and give its bits
    c3 = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1.0, 1e308,
                   _THRESHOLD, 2.0 * _THRESHOLD, 0.1])
    for k in (1.0, 5e-324, 1e308, np.inf, np.nan):
        with np.errstate(all="ignore"):
            got = _kernels._feedback_roots(c3, k)
            want = _kernels._bisect_roots(c3, k)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_feedback_root_underflowed_ratio():
    # c3/k rounds to 0: no Viete guess, plain bisection
    assert _kernels._feedback_root(5e-324, 10.0) == \
        _kernels._bisect_root(5e-324, 10.0)


def _fig1_args(p0, n=1000):
    # fig1's coupled integration: seasonal alpha, theta1 0.6, k 1, dt 1e-3
    h = 1.0 / n
    forcing = _kernels._time_rate(FORCING_SEASONAL, 4.0, 0.75, 0.2)
    return (0.2, p0, 0.0, h, n, 0.6, 1.0, forcing,
            _kernels._stage_table(forcing, 0.0, h, n))


_FIG1_P0 = 0.7619851105816545


def _assert_same_bits(a, b):
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_coupled_kernel_identical_with_bisection_reference(monkeypatch):
    # fig1 at its converged p0, where the trajectory crosses the switching
    # surface; swapping in the reference root must not move a single bit.
    # (the law looks the root up as a module global at every solve)
    args = _fig1_args(_FIG1_P0)
    warm = _kernels.coupled_rk4(*args)
    calls = []

    def reference(c3, k):
        calls.append(1)
        return _kernels._bisect_root(c3, k)

    monkeypatch.setattr(_kernels, "_feedback_root", reference)
    ref = _kernels.coupled_rk4(*args)
    assert len(calls) > 1000
    _assert_same_bits(warm, ref)


def test_coupled_kernel_sees_python_floats_during_fig1_shooting(monkeypatch):
    # shoot_p0's secant iterates come from numpy residuals; the kernel takes
    # its initial values as floats, so only Python floats reach the root
    from anthractl.cli import parse_config, resolve_config_path
    from anthractl.ode_control import shoot_p0

    plan = parse_config(resolve_config_path("fig1")).plan
    root = _kernels._feedback_root
    arg_types = set()

    def spy(c3, k):
        arg_types.update((type(c3), type(k)))
        return root(c3, k)

    monkeypatch.setattr(_kernels, "_feedback_root", spy)
    tol, max_iter = plan.shooting
    shoot_p0(plan.x0.theta, plan.params, plan.cost, T=plan.T, dt=plan.h, tol=tol,
             max_iter=max_iter)
    assert arg_types == {float}


@pytest.mark.parametrize("p0", [0.70, _FIG1_P0, 0.80])
def test_event_location_stop_matches_full_bisection(monkeypatch, p0):
    # fig1's switch location stops once the bisection bracket is a fixed
    # point; the full 60 halvings must give the same bits, with more
    # substep evaluations.
    args = _fig1_args(p0)
    substep = _kernels._coupled_sub
    counts = []

    def run():
        calls = []

        def counted(*a):
            calls.append(1)
            return substep(*a)

        with monkeypatch.context() as m:
            m.setattr(_kernels, "_coupled_sub", counted)
            out = _kernels.coupled_rk4(*args)
        counts.append(len(calls))
        return out

    early = run()
    bisect = _kernels._bisect_switch
    monkeypatch.setattr(_kernels, "_bisect_switch", lambda *a: bisect(*a[:-1], False))
    full = run()
    assert early[3][0] > 0  # switch events were located
    assert counts[0] < counts[1]
    _assert_same_bits(early, full)


def test_warm_bracket_halvings_reach_the_bisection_stop():
    # _feedback_root finishes its 2**-39 bracket (or its coarse 2**-31 one)
    # with a fixed count of halvings; it must land on the first width
    # _bisect_root stops at
    width, _, halvings = _kernels._BRACKETS[0]
    assert width == 2.0 ** -39
    assert width * 0.5 ** halvings <= 1e-15 < width * 0.5 ** (halvings - 1)
    width, _, halvings = _kernels._BRACKETS[1]
    assert width == 2.0 ** -31
    assert width * 0.5 ** halvings <= 1e-15 < width * 0.5 ** (halvings - 1)


def test_coarse_bracket_replaces_most_full_bisections(monkeypatch):
    # where the 2**-39 bracket fails its check, the 2**-31 one mostly holds:
    # far fewer roots fall back to bisection from [1, 3/2], with equal bits
    rng = np.random.default_rng(17)
    k = rng.uniform(0.1, 10.0, 20_000)
    draws = list(zip((rng.uniform(0.0, 8.0 / 27.0, k.size) * k).tolist(), k.tolist()))
    bisect = _kernels._bisect_root
    fallbacks = []

    def counted(c3, k):
        fallbacks.append(1)
        return bisect(c3, k)

    monkeypatch.setattr(_kernels, "_bisect_root", counted)
    counts = []
    for brackets in (_kernels._BRACKETS[:1], _kernels._BRACKETS):
        monkeypatch.setattr(_kernels, "_BRACKETS", brackets)
        fallbacks.clear()
        roots = [_kernels._feedback_root(c3, k) for c3, k in draws]
        counts.append(len(fallbacks))
        assert roots == [bisect(c3, k) for c3, k in draws]
    assert counts[0] > 200 and counts[1] * 10 < counts[0]


@pytest.mark.parametrize("code", ["const", "seasonal", "opaque"])
def test_alpha_table_matches_alpha_at_stage_times(code):
    # row i holds alpha at the three times a switch-free step evaluates it:
    # t = t0 + i*h, t + 0.5*tau and t + tau with tau = h; an opaque alpha is
    # called at exactly those times
    t0, n = 0.3, 37
    h = (1.3 - t0) / n
    alpha = {
        "const": ConstantForcing(2.5),
        "seasonal": SeasonalForcing(a=4.0, b=0.75, c=0.2),
        "opaque": lambda t, theta: np.float64(3.0 * np.sin(7.0 * t) ** 2),
    }[code]
    params = ModelParams.with_default_forcings(theta1=0.6, alpha=alpha)
    _, (_, _, _, _, _, listed, table) = _coupled_setup(params, CostSpec(k=1.0),
                                                       1.3, h, t0)
    assert len(table) == n
    for i, row in enumerate(table):
        t = t0 + i * h
        tau = h
        want = [float(alpha(s, 0.0)) for s in (t, t + 0.5 * tau, t + tau)]
        assert [type(a) for a in row] == [float] * 3
        assert list(row) == want == [listed(s) for s in (t, t + 0.5 * tau, t + tau)]


def test_root_memo_keeps_bits_and_saves_roots(monkeypatch):
    # fig1 at its converged p0: the per-call memo of the last root moves no
    # bit, and a node's u hands its root to the next step's first stage
    args = _fig1_args(_FIG1_P0)
    root = _kernels._feedback_root
    roots = []

    def counted(c3, k):
        roots.append(1)
        return root(c3, k)

    monkeypatch.setattr(_kernels, "_feedback_root", counted)
    memo = _kernels.coupled_rk4(*args)
    with_memo = len(roots)
    roots.clear()

    def no_memo(theta1, k):
        return lambda c3: _kernels._u_law(c3, theta1, k, _kernels._feedback_root)

    monkeypatch.setattr(_kernels, "_interior_law", no_memo)
    fresh = _kernels.coupled_rk4(*args)
    _assert_same_bits(memo, fresh)
    assert with_memo < len(roots)


def test_event_cap_hits_are_counted(monkeypatch):
    # with a cap of 0 events every step that sees the surface ends on the
    # frozen branch and counts as a cap hit instead of a located switch
    args = _fig1_args(_FIG1_P0)
    events, cap_hits, grazing = _kernels.coupled_rk4(*args)[3]
    assert events > 0 and cap_hits == 0 and grazing == 0
    monkeypatch.setattr(_kernels, "_MAX_EVENTS", 0)
    capped = _kernels.coupled_rk4(*args)[3]
    assert capped[0] == 0 and capped[1] > 0


_SEVERITY_WEATHER = dict(times=np.array([0.0, 0.5, 1.0]),
                         temperature=np.array([18.0, 24.0, 21.0]),
                         wetness=np.array([2.0, 5.0, 3.0]),
                         humidity=np.array([80.0, 85.0, 90.0]))


@pytest.mark.parametrize("case", ["sampled", "constant", "severity"])
def test_host_kernel_sees_python_floats(monkeypatch, case):
    # the host kernel turns its knots and alpha rows into lists, so its RK4
    # loop works on Python floats for u, alpha and the state, never numpy
    # scalars: every float-valued local of its frame, at every line it runs,
    # is a float, and so is every value the tables and interpolation hand it
    alpha = SeasonalForcing(a=4.0, b=0.75, c=0.2)
    u = 0.35
    if case == "sampled":
        knots = np.linspace(0.0, 1.0, 11)
        u = ControlSignal(times=knots, values=0.3 + 0.2 * np.sin(np.pi * knots))
    elif case == "severity":
        alpha = SeverityForcing(WeatherSeries(**_SEVERITY_WEATHER), "asi",
                                AsiCoefficients(a0=1.0, a01=0.05), scale=2.0)
    params = ModelParams.with_default_forcings(theta1=0.6, alpha=alpha)
    handed = {"_stage_table": set(), "_interp_knots": set()}
    table, interp = _kernels._stage_table, _kernels._interp_knots

    def table_spy(rate, t0, h, n):
        rows = table(rate, t0, h, n)
        handed["_stage_table"].update(type(a) for row in rows for a in row)
        return rows

    def interp_spy(t, ts, vs):
        value = interp(t, ts, vs)
        handed["_interp_knots"].update(type(x) for x in (t, *ts, *vs, value))
        return value

    monkeypatch.setattr(_kernels, "_stage_table", table_spy)
    monkeypatch.setattr(_kernels, "_interp_knots", interp_spy)
    kernel = _kernels.host_rk4_single.__code__
    local_types = {}

    def on_line(frame, event, arg):
        for name, value in frame.f_locals.items():
            if isinstance(value, (float, np.generic)):
                local_types.setdefault(name, set()).add(type(value))
        return on_line

    def tracer(frame, event, arg):
        return on_line if frame.f_code is kernel else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        integrate_ode(params, u, HostState(0.2, 0.5, 0.0), T=1.0, dt=0.01)
    finally:
        sys.settrace(previous)
    assert {"th", "vv", "vr", "x", "y", "z", "al", "al1", "floor", "ga"} <= set(local_types)
    assert set().union(*local_types.values()) == {float}
    # seasonal alpha comes from the stage table and severity alpha from the
    # staged rows; only the sampled control is interpolated
    assert handed["_stage_table"] == (set() if case == "severity" else {float})
    assert handed["_interp_knots"] == ({float} if case == "sampled" else set())


def test_interp_knots_matches_searchsorted_bitwise():
    # bisect_left on the knot list picks np.searchsorted's interval, so the
    # interpolant keeps its bits, also exactly at a knot, and a lane vector
    # per knot gives each lane the scalar result
    rng = np.random.default_rng(3)
    ts = np.cumsum(rng.uniform(0.01, 0.3, 12))
    vs = rng.uniform(0.0, 1.0, (4, ts.size))
    points = np.concatenate([ts, 0.5 * (ts[1:] + ts[:-1]),
                             rng.uniform(ts[0] - 0.1, ts[-1] + 0.1, 200)])
    for t in points.tolist():
        for lane, v in enumerate(vs):
            if t <= ts[0]:
                ref = v[0]
            elif t >= ts[-1]:
                ref = v[-1]
            else:
                j = int(np.searchsorted(ts, t))
                ref = v[j - 1] + (v[j] - v[j - 1]) * (t - ts[j - 1]) / (ts[j] - ts[j - 1])
            got = _kernels._interp_knots(t, ts.tolist(), v.tolist())
            assert type(got) is float and got == ref
            assert _kernels._interp_knots(t, ts.tolist(), vs.T)[lane] == ref


# ---------------------------------------------------------------------------
#  Host kernel: bit-identical to the generic per-step loop
# ---------------------------------------------------------------------------

def _host_rate(kind, amp):
    """(forcing integrate_ode packs for the kernel, the same forcing behind a
    lambda, which sends integrate_ode to its generic eval_rhs loop)."""
    if kind == "const":
        f = ConstantForcing(amp)
    elif kind == "proportional":
        f = ProportionalForcing(amp)
    elif kind == "severity":
        f = SeverityForcing(WeatherSeries(**_SEVERITY_WEATHER), "asi",
                            AsiCoefficients(a0=amp, a01=0.05), scale=2.0)
    else:
        f = SeasonalForcing(a=amp, b=0.75, c=0.3)
    return f, lambda t, th: f(t, th)


def _guard_exit(run):
    try:
        return run(), None
    except DivisionGuardError as exc:
        return None, str(exc)


_RATE_KINDS = ("const", "seasonal", "proportional")


@settings(max_examples=150, deadline=None)
@given(alpha=st.sampled_from(_RATE_KINDS + ("severity",)),
       beta=st.sampled_from(_RATE_KINDS), gamma=st.sampled_from(_RATE_KINDS),
       amps=st.tuples(*[st.floats(0.05, 6.0)] * 3),
       control=st.sampled_from(("float", "flat", "sampled")),
       level=st.floats(0.0, 1.0), theta1=st.floats(0.0, 0.95),
       theta0=st.floats(0.0, 0.9), v0=st.floats(0.05, 1.0),
       horizon=st.sampled_from((1.0, 50.0)), steps=st.integers(10, 300),
       seed=st.integers(0, 2 ** 32 - 1))
@example(alpha="seasonal", beta="const", gamma="proportional", amps=(4.0, 0.5, 0.1),
         control="float", level=0.35, theta1=0.6, theta0=1.0, v0=0.5,
         horizon=1.0, steps=100, seed=0)
@example(alpha="const", beta="seasonal", gamma="seasonal", amps=(2.0, 0.5, 0.1),
         control="flat", level=0.0, theta1=0.6, theta0=0.2, v0=0.0,
         horizon=1.0, steps=100, seed=0)
@example(alpha="seasonal", beta="const", gamma="proportional", amps=(4.0, 0.5, 0.1),
         control="float", level=0.0, theta1=0.6, theta0=0.2, v0=0.5,
         horizon=50.0, steps=5000, seed=0)
@example(alpha="const", beta="const", gamma="proportional", amps=(2.0, 0.5, 0.1),
         control="float", level=0.35, theta1=0.6, theta0=1.0, v0=0.0,
         horizon=1.0, steps=100, seed=0)
@example(alpha="proportional", beta="proportional", gamma="const", amps=(1.0, 0.5, 0.1),
         control="float", level=1.2, theta1=0.9, theta0=0.2, v0=0.5,
         horizon=1.0, steps=100, seed=0)
# a = 3.7, where a*(t-b)**2*... and a*(t-b)*(t-b)*... round apart
@example(alpha="seasonal", beta="const", gamma="proportional", amps=(3.7, 0.5, 0.1),
         control="float", level=0.35, theta1=0.6, theta0=0.2, v0=0.5,
         horizon=1.0, steps=300, seed=0)
# knots where np.interp and _interp_knots round apart
@example(alpha="const", beta="const", gamma="proportional", amps=(2.0, 0.5, 0.1),
         control="sampled", level=0.0, theta1=0.6, theta0=0.2, v0=0.5,
         horizon=1.0, steps=300, seed=2)
def test_host_kernel_equals_generic_loop_bitwise(alpha, beta, gamma, amps, control,
                                                 level, theta1, theta0, v0, horizon,
                                                 steps, seed):
    # integrate_ode through host_rk4_single and through the generic eval_rhs
    # loop (every forcing hidden behind a lambda, the same control) give the
    # same trajectory bits, or stop at the same guard in the same step
    rates = [_host_rate(kind, amp) for kind, amp in zip((alpha, beta, gamma), amps)]
    packed = ModelParams(theta1=theta1, theta2=0.9, v_max=1.5,
                         alpha=rates[0][0], beta=rates[1][0], gamma=rates[2][0],
                         eta=ConstantForcing(0.8))
    calls = []  # eta is read once by every stage that passes its guards
    hidden = ModelParams(theta1=theta1, theta2=0.9, v_max=1.5,
                         alpha=rates[0][1], beta=rates[1][1], gamma=rates[2][1],
                         eta=lambda t: calls.append(t) or 0.8)
    rng = np.random.default_rng(seed)
    knots = np.cumsum(rng.uniform(0.05, 1.0, 12))
    knots = (knots - knots[0]) / (knots[-1] - knots[0]) * 1.2 * horizon - 0.1 * horizon
    if control == "float":
        u = level
    elif control == "flat":
        u = ControlSignal(times=knots, values=np.full(knots.size, min(level, 1.0)))
    else:
        u = ControlSignal(times=knots, values=rng.uniform(0.0, 1.0, knots.size))

    x0 = HostState(theta0, v0, 0.0)
    dt = horizon / steps
    fast, fast_error = _guard_exit(lambda: integrate_ode(packed, u, x0, T=horizon, dt=dt))
    with np.errstate(all="ignore"):  # numpy scalars warn where floats overflow
        slow, slow_error = _guard_exit(lambda: integrate_ode(hidden, u, x0,
                                                             T=horizon, dt=dt))
    if slow_error is None:
        assert fast_error is None
        for name in ("theta", "v", "v_r"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
        return
    # every step has four stages
    step = len(calls) // 4
    guard = {"1 - theta1*u": 1, "theta == 1": 2, "v == 0": 3}
    code = next(c for prefix, c in guard.items() if slow_error.startswith(prefix))
    h = time_grid(0.0, horizon, dt)[1]
    assert fast_error == (f"integration aborted at step {step} (t≈{step * h:.6g}): "
                          + _GUARD_MESSAGES[code])


def test_batch_kernel_lanes_equal_single_kernel_bitwise():
    # On constant and proportional rates (no np.cos against math.cos) every
    # lane of host_rk4_batch has host_rk4_single's status and bits up to its
    # stop, then holds its state; lanes 0-2 stop on guards 1, 2 and 3
    rng = np.random.default_rng(23)
    m, n = 8, 200
    h = 1.0 / n
    u_t = np.linspace(0.0, 1.0, 11)
    u_vals = rng.uniform(0.0, 1.0, (m, u_t.size))
    u_vals[0] = np.linspace(0.0, 2.0, u_t.size)  # 1 - 0.9*u <= 0 from t ≈ 0.56
    x0 = np.column_stack([rng.uniform(0.05, 0.8, m), rng.uniform(0.2, 0.9, m),
                          np.zeros(m)])
    x0[1, 0] = 1.0
    x0[2, 1] = 0.0
    scal = np.column_stack([rng.uniform(0.1, 0.9, m), np.full(m, 0.9), np.full(m, 1.5)])
    scal[0, 0] = 0.9
    codes = rng.choice([_kernels.FORCING_CONST, _kernels.FORCING_PROPORTIONAL], (m, 3))
    q = np.zeros((m, 3, 3))
    q[:, :, 0] = rng.uniform(0.05, 3.0, (m, 3))
    eta0 = rng.uniform(0.5, 0.9, m)
    *paths, status = _kernels.host_rk4_batch(x0, 0.0, h, n, scal, codes, q, eta0,
                                             u_t, u_vals)
    assert status.tolist()[:3] == [1, 2, 3] and not status[3:].any()
    for s in range(m):
        rates = tuple((int(c), *pack) for c, pack in zip(codes[s], q[s].tolist()))
        *single, code, steps = _kernels.host_rk4_single(
            *x0[s].tolist(), 0.0, h, n, *scal[s].tolist(), rates, float(eta0[s]),
            u_t, u_vals[s], np.empty((0, 3)))
        assert status[s] == code
        if s == 0:
            assert 0 < steps < n
        for got, ref in zip(paths, single):
            assert np.array_equal(got[s, :steps + 1].view(np.int64), ref.view(np.int64))
            assert np.all(got[s, steps:] == ref[-1])
