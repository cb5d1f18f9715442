"""Integration kernels: the feedback root, event location and Python-float loops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anthractl import _kernels
from anthractl._kernels import FORCING_SEASONAL, backend_name


def test_backend_name_is_valid():
    assert backend_name() == "numpy"


def test_flag_constants_are_distinct():
    codes = {_kernels.FORCING_CONST, _kernels.FORCING_SEASONAL,
             _kernels.FORCING_PROPORTIONAL, _kernels.FORCING_SAMPLED,
             _kernels.FORCING_STAGED}
    assert len(codes) == 5


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
        _kernels._bisect_root(c3, k, 1.0, 1.5)


@settings(max_examples=1500, deadline=None)
@given(ratio=_ratio, k=_k, theta1=_unit, theta=_unit, p=st.floats(1e-3, 2.0))
def test_u_interior_equals_bisection_reference(ratio, k, theta1, theta, p):
    alpha = ratio * k / (theta1 * theta1 * theta * p)
    assert _kernels._u_interior(alpha, theta, p, theta1, k) == \
        _kernels._u_interior_bisect(alpha, theta, p, theta1, k)


def test_feedback_root_underflowed_ratio():
    # c3/k rounds to 0: no Viete guess, plain bisection
    assert _kernels._feedback_root(5e-324, 10.0) == \
        _kernels._bisect_root(5e-324, 10.0, 1.0, 1.5)


def _fig1_args(p0, n=1000):
    # fig1's coupled integration: seasonal alpha, theta1 0.6, k 1, dt 1e-3
    dummy = np.zeros(1)
    h = 1.0 / n
    forcing, table = _kernels.coupled_forcing(FORCING_SEASONAL, 4.0, 0.75, 0.2,
                                              dummy, dummy, 0.0, h, n)
    return (0.2, p0, 0.0, h, n, 0.6, 1.0, forcing, table)


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
        return _kernels._reference_root(c3, k)

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
    monkeypatch.setattr(_kernels, "_locate_switch", _kernels._locate_switch_full)
    full = run()
    assert early[3][0] > 0  # switch events were located
    assert counts[0] < counts[1]
    _assert_same_bits(early, full)


def test_warm_bracket_halvings_reach_the_bisection_stop():
    # _feedback_root finishes its 2**-39 bracket with a fixed count of
    # halvings; it must land on the first width _bisect_root stops at
    width = _kernels._WARM_WIDTH
    assert width == 2.0 ** -39
    halvings = _kernels._WARM_HALVINGS
    assert width * 0.5 ** halvings <= 1e-15 < width * 0.5 ** (halvings - 1)


@pytest.mark.parametrize("code", ["const", "seasonal", "sampled"])
def test_alpha_table_matches_alpha_at_stage_times(code):
    # row i holds alpha at the three times a switch-free step evaluates it:
    # t = t0 + i*h, t + 0.5*tau and t + tau with tau = h
    t0, n = 0.3, 37
    h = (1.3 - t0) / n
    dummy = np.zeros(1)
    forcing = {
        "const": (_kernels.FORCING_CONST, 2.5, 0.0, 0.0, dummy, dummy),
        "seasonal": (FORCING_SEASONAL, 4.0, 0.75, 0.2, dummy, dummy),
        "sampled": (_kernels.FORCING_SAMPLED, 0.0, 0.0, 0.0,
                    t0 + 0.5 * h * np.arange(2 * n + 1),
                    np.random.default_rng(2).uniform(0.0, 3.0, 2 * n + 1)),
    }[code]
    listed, table = _kernels.coupled_forcing(*forcing, t0, h, n)
    assert len(table) == n
    for i, row in enumerate(table):
        t = t0 + i * h
        tau = h
        want = [_kernels._alpha_at(listed, s) for s in (t, t + 0.5 * tau, t + tau)]
        assert [type(a) for a in row] == [float] * 3
        assert list(row) == want


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
    # the host kernel turns its knots into lists, so its RK4 loop hands
    # _host_rhs Python floats for u and the state, never numpy scalars
    from anthractl import (AsiCoefficients, ControlSignal, HostState, ModelParams,
                           SeasonalForcing, SeverityForcing, WeatherSeries,
                           integrate_ode)

    alpha = SeasonalForcing(a=4.0, b=0.75, c=0.2)
    u = 0.35
    if case == "sampled":
        knots = np.linspace(0.0, 1.0, 11)
        u = ControlSignal(times=knots, values=0.3 + 0.2 * np.sin(np.pi * knots))
    elif case == "severity":
        alpha = SeverityForcing(WeatherSeries(**_SEVERITY_WEATHER), "asi",
                                AsiCoefficients(a0=1.0, a01=0.05), scale=2.0)
    params = ModelParams.with_default_forcings(theta1=0.6, alpha=alpha)
    rhs = _kernels._host_rhs
    arg_types = set()

    def spy(t, th, vv, vr, u_val, *rest):
        arg_types.update(type(x) for x in (th, vv, vr, u_val))
        return rhs(t, th, vv, vr, u_val, *rest)

    monkeypatch.setattr(_kernels, "_host_rhs", spy)
    integrate_ode(params, u, HostState(0.2, 0.5, 0.0), T=1.0, dt=0.01)
    assert arg_types == {float}


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
