"""Kernel backend selection and numba/numpy agreement."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anthractl import _kernels
from anthractl._kernels import (
    FORCING_CONST,
    FORCING_SEASONAL,
    backend_name,
    host_rk4_single,
    host_rk4_single_py,
)


def test_backend_name_is_valid():
    assert backend_name() in ("numba", "numpy")


def test_flag_constants_are_distinct():
    codes = {_kernels.FORCING_CONST, _kernels.FORCING_SEASONAL,
             _kernels.FORCING_PROPORTIONAL, _kernels.FORCING_SAMPLED,
             _kernels.FORCING_STAGED}
    assert len(codes) == 5


def _run_single(fn):
    knots_t = np.array([0.0, 1.0])
    knots_v = np.array([0.4, 0.4])
    return fn(
        0.2, 0.5, 0.0, 0.0, 1e-3, 1000,
        0.6, 1.0, 1.0,
        FORCING_SEASONAL, 4.0, 0.75, 0.2,
        FORCING_CONST, 0.5, 0.0, 0.0,
        _kernels.FORCING_PROPORTIONAL, 0.1, 0.0, 0.0,
        1.0,
        knots_t, knots_v, np.empty((0, 3)))


def test_compiled_and_python_single_kernels_agree_bitwise():
    th_a, v_a, vr_a, st_a, _ = _run_single(host_rk4_single)
    th_b, v_b, vr_b, st_b, _ = _run_single(host_rk4_single_py)
    assert st_a == st_b == 0
    # identical arithmetic, identical order: results must match exactly
    assert np.array_equal(th_a, th_b)
    assert np.array_equal(v_a, v_b)
    assert np.array_equal(vr_a, vr_b)


def test_coupled_kernel_python_parity():
    dummy = np.zeros(1)
    args = (0.2, 0.762, 0.0, 1e-3, 1000, 0.6, 1.0,
            FORCING_SEASONAL, 4.0, 0.75, 0.2, dummy, dummy)
    th_a, p_a, u_a = _kernels.coupled_rk4(*args)
    th_b, p_b, u_b = _kernels.coupled_rk4_py(*args)
    assert np.array_equal(th_a, th_b)
    assert np.array_equal(p_a, p_b)
    assert np.array_equal(u_a, u_b)


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


@pytest.mark.skipif(backend_name() != "numpy",
                    reason="compiled kernels ignore the patched module global")
def test_coupled_kernel_identical_with_bisection_reference(monkeypatch):
    # fig1 at its converged p0, where the trajectory crosses the switching
    # surface; swapping in the reference root must not move a single bit.
    # (Pure-Python kernel: the patched global is what _u_branch calls.)
    dummy = np.zeros(1)
    args = (0.2, 0.7619851105816545, 0.0, 1e-3, 1000, 0.6, 1.0,
            FORCING_SEASONAL, 4.0, 0.75, 0.2, dummy, dummy)
    warm = _kernels.coupled_rk4_py(*args)
    calls = []

    def reference(*a):
        calls.append(1)
        return _kernels._u_interior_bisect(*a)

    monkeypatch.setattr(_kernels, "_u_interior", reference)
    ref = _kernels.coupled_rk4_py(*args)
    assert len(calls) > 1000
    for a, b in zip(warm, ref):
        assert np.array_equal(a, b)


@pytest.mark.skipif(backend_name() != "numpy",
                    reason="compiled kernels ignore the patched module global")
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


@pytest.mark.skipif(backend_name() != "numba",
                    reason="needs numba active to compare backends")
def test_numpy_backend_subprocess_matches():
    """Force ANTHRACTL_BACKEND=numpy in a child process and compare a full
    integration against the in-process numba result."""
    script = textwrap.dedent("""
        import numpy as np
        from anthractl import ModelParams, HostState, SeasonalForcing, integrate_ode
        from anthractl._kernels import backend_name
        assert backend_name() == "numpy", backend_name()
        p = ModelParams.with_default_forcings(
            theta1=0.6, alpha=SeasonalForcing(4.0, 0.75, 0.2))
        traj = integrate_ode(p, 0.35, HostState(0.2, 0.5, 0.0), T=1.0, dt=1e-3)
        print(repr(float(traj.theta[-1])))
        print(repr(float(traj.v[-1])))
        print(repr(float(traj.v_r[-1])))
    """)
    env = dict(os.environ, ANTHRACTL_BACKEND="numpy")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    got = [float(line) for line in out.stdout.strip().splitlines()]

    from anthractl import HostState, ModelParams, SeasonalForcing, integrate_ode
    p = ModelParams.with_default_forcings(
        theta1=0.6, alpha=SeasonalForcing(4.0, 0.75, 0.2))
    traj = integrate_ode(p, 0.35, HostState(0.2, 0.5, 0.0), T=1.0, dt=1e-3)
    ref = [float(traj.theta[-1]), float(traj.v[-1]), float(traj.v_r[-1])]
    assert got == ref  # same arithmetic on both backends: exact match


def test_bad_backend_flag_warns_subprocess():
    script = ("import warnings; warnings.simplefilter('error'); "
              "import anthractl._kernels")
    env = dict(os.environ, ANTHRACTL_BACKEND="turbo")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode != 0
    assert "not recognized" in out.stderr


@pytest.mark.skipif(backend_name() != "numpy",
                    reason="compiled kernels ignore the patched module global")
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
            out = _kernels.coupled_rk4_py(*args)
        counts.append(len(calls))
        return out

    early = run()
    monkeypatch.setattr(_kernels, "_locate_switch", _kernels._locate_switch_full)
    full = run()
    assert counts[0] < counts[1]
    for a, b in zip(early, full):
        assert np.array_equal(a, b)
