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


def test_coupled_kernel_identical_with_bisection_reference(monkeypatch):
    # fig1 at its converged p0, where the trajectory crosses the switching
    # surface; swapping in the reference root must not move a single bit.
    # (the patched module global is what _u_branch calls)
    dummy = np.zeros(1)
    args = (0.2, 0.7619851105816545, 0.0, 1e-3, 1000, 0.6, 1.0,
            FORCING_SEASONAL, 4.0, 0.75, 0.2, dummy, dummy)
    warm = _kernels.coupled_rk4(*args)
    calls = []

    def reference(*a):
        calls.append(1)
        return _kernels._u_interior_bisect(*a)

    monkeypatch.setattr(_kernels, "_u_interior", reference)
    ref = _kernels.coupled_rk4(*args)
    assert len(calls) > 1000
    for a, b in zip(warm, ref):
        assert np.array_equal(a, b)


def test_coupled_kernel_sees_python_floats_during_fig1_shooting(monkeypatch):
    # shoot_p0's secant iterates are numpy scalars; the kernel converts its
    # initial values, so its scalar loop never runs on numpy scalars
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


@pytest.mark.parametrize("p0", [0.70, 0.7619851105816545, 0.80])
def test_event_location_stop_matches_full_bisection(monkeypatch, p0):
    # fig1's switch location stops once the bisection bracket is a fixed
    # point; the full 60 halvings must give the same bits, with more
    # substep evaluations.
    dummy = np.zeros(1)
    args = (0.2, p0, 0.0, 1e-3, 1000, 0.6, 1.0,
            FORCING_SEASONAL, 4.0, 0.75, 0.2, dummy, dummy)
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
    assert counts[0] < counts[1]
    for a, b in zip(early, full):
        assert np.array_equal(a, b)


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
