"""Spatial operator assembly, implicit stepping, equilibria, bounds, spectra."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solveh_banded

from anthractl import pde
from anthractl import (
    DivisionGuardError,
    FieldPath,
    GridSpec,
    ScalarField,
    SingularOperatorError,
    assemble_operator,
    bounds_inputs_from_initial,
    build_grid,
    integrate_pde,
    principal_eigenvalue,
    solve_equilibrium,
    step_implicit,
    verify_bounds,
)


def _setup_1d(n=32, L=1.0, A=0.02):
    return build_grid(GridSpec((L,), (n,)), A_spec=A)


# ---------------------------------------------------------------------------
#  Operator assembly
# ---------------------------------------------------------------------------

def test_operator_m_matrix_and_row_sums():
    grid, A = _setup_1d()
    L = assemble_operator(grid, A, alpha=1.5, u=0.3, theta1=0.6)
    rep = L.m_matrix_report()
    assert rep["offdiag_max"] <= 0.0
    assert rep["diag_min"] > 0.0
    # no-flux boundaries: diffusion rows sum to zero, leaving the reaction
    floor = 1.0 - 0.6 * 0.3
    assert np.allclose(L.row_sums(), 1.5 / floor, atol=1e-12)


def test_operator_symmetric_for_constant_coefficients():
    grid, A = _setup_1d()
    L = assemble_operator(grid, A, alpha=1.0, u=0.0, theta1=0.5)
    assert L.symmetry_defect() == 0.0


def test_operator_reaction_variants():
    grid, A = _setup_1d(n=4)
    full = assemble_operator(grid, A, alpha=2.0, u=0.5, theta1=0.8)
    lin = assemble_operator(grid, A, alpha=2.0, u=0.5, theta1=0.8,
                            reaction="linearized")
    # full: alpha/(1 - theta1*u) = 2/0.6; linearized: alpha
    assert np.allclose(full.matrix.diagonal() - lin.matrix.diagonal(),
                       2.0 / 0.6 - 2.0)
    with pytest.raises(ValueError):
        assemble_operator(grid, A, alpha=1.0, u=0.0, theta1=0.5, reaction="bogus")


def test_operator_guards_control_floor():
    grid, A = _setup_1d(n=4)
    with pytest.raises(DivisionGuardError):
        assemble_operator(grid, A, alpha=1.0, u=2.0, theta1=0.9)


# ---------------------------------------------------------------------------
#  Implicit stepping
# ---------------------------------------------------------------------------

def test_step_implicit_uniform_matches_scalar_recursion():
    grid, A = _setup_1d()
    alpha, u, theta1 = 1.2, 0.4, 0.5
    L = assemble_operator(grid, A, alpha=alpha, u=u, theta1=theta1)
    th = ScalarField.constant(grid, 0.3)
    dt = 0.05
    out = step_implicit(th, L, alpha, dt)
    # uniform state: diffusion cancels, each cell obeys the scalar update
    expect = (0.3 + dt * alpha) / (1.0 + dt * alpha / (1.0 - theta1 * u))
    assert np.allclose(out.values, expect, atol=1e-12)


def test_step_implicit_preserves_nonnegativity(rng):
    grid, A = _setup_1d(n=16, A=0.5)
    L = assemble_operator(grid, A, alpha=2.0, u=0.2, theta1=0.7)
    th = ScalarField(rng.uniform(0.0, 1.0, 16))
    out = step_implicit(th, L, 2.0, 0.1)
    assert np.min(out.values) >= -1e-12


def _rebuilt_step(D, h, r):
    # the per-step assembly the fixed-stencil stepper replaces
    n = D.shape[0]
    return (sp.identity(n, format="csr") + h * (D + sp.diags(r))).tocsr()


@pytest.mark.parametrize("resolution", [(64,), (40, 40)])
def test_fixed_stencil_stepper_matches_rebuilt_solve(resolution, rng):
    grid, A = build_grid(GridSpec((1.0,) * len(resolution), resolution), A_spec=0.03)
    D = assemble_operator(grid, A, alpha=0.0, u=0.0, theta1=0.5).matrix
    h = 0.01
    stepper = pde._FixedStencilStepper(D, h)
    assert (stepper._offdiag is not None) == (len(resolution) == 1)
    x = rng.uniform(0.1, 1.0, grid.n_cells)
    for _ in range(4):  # the diagonal is rewritten in place every step
        r = rng.uniform(0.5, 4.0, grid.n_cells)
        rhs = x + h * rng.uniform(0.0, 2.0, grid.n_cells)
        ref = pde._solve_checked(_rebuilt_step(D, h, r), rhs, x0=x)
        x = stepper.solve(r, rhs, x0=x)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_solve_checked_raises_on_singular_matrix():
    # spsolve returns NaN for a singular matrix; a NaN residual must fail the
    # check instead of passing for converged
    M = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.warns(spla.MatrixRankWarning), pytest.raises(pde.SolverBreakdownError):
        pde._solve_checked(M, np.array([1.0, 2.0]))


@pytest.mark.parametrize("broken", ["raises", "wrong"])
def test_fixed_stencil_stepper_falls_back_when_banded_solve_fails(broken, monkeypatch, rng):
    grid, A = _setup_1d(n=64, A=0.03)
    D = assemble_operator(grid, A, alpha=0.0, u=0.0, theta1=0.5).matrix
    h = 0.01
    calls = []

    def fake_ptsv(d, e, b):
        calls.append(1)
        if broken == "raises":  # LAPACK: leading minor 3 not positive definite
            return d, e, b, 3
        return d, e, np.zeros_like(b), 0

    monkeypatch.setattr(pde, "_ptsv", fake_ptsv)
    stepper = pde._FixedStencilStepper(D, h)
    r = rng.uniform(0.5, 4.0, grid.n_cells)
    rhs = rng.uniform(0.1, 1.0, grid.n_cells)
    x = stepper.solve(r, rhs, x0=rhs)
    M = _rebuilt_step(D, h, r)
    exact = spla.spsolve(M.tocsc(), rhs)
    assert calls
    assert np.linalg.norm(M @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
    assert np.linalg.norm(x - exact) <= 1e-11 * np.linalg.norm(exact)


def test_direct_tridiagonal_solve_equals_solveh_banded(rng):
    # the stepper calls LAPACK ptsv itself, the routine solveh_banded uses
    # for a two-row band: the same inputs must give the same bits
    for n in (2, 3, 17, 64):
        grid, A = _setup_1d(n=n, A=rng.uniform(0.005, 0.5))
        D = assemble_operator(grid, A, alpha=0.0, u=0.0, theta1=0.5).matrix
        h = rng.uniform(0.001, 0.1)
        stepper = pde._FixedStencilStepper(D, h)
        for _ in range(10):
            r = rng.uniform(0.0, 5.0, n)
            rhs = rng.uniform(-1.0, 1.0, n)
            M = _rebuilt_step(D, h, r)
            ab = np.zeros((2, n))
            ab[0, 1:] = M.diagonal(1)
            ab[1] = M.diagonal()
            ref = solveh_banded(ab, rhs, check_finite=False)
            assert np.array_equal(stepper.solve(r, rhs, x0=rhs), ref)
            d = rng.uniform(2.0, 3.0, n)
            e = -rng.uniform(0.0, 1.0, n - 1)
            ab[0, 1:], ab[1] = e, d
            _, _, x, info = pde._ptsv(d, e, rhs)
            assert info == 0
            assert np.array_equal(x, solveh_banded(ab, rhs, check_finite=False))


def test_fixed_stencil_stepper_solves_one_cell():
    # one cell has no off-diagonal band, so it goes through _solve_checked
    grid, A = _setup_1d(n=1, A=0.02)
    D = assemble_operator(grid, A, alpha=0.0, u=0.0, theta1=0.5).matrix
    stepper = pde._FixedStencilStepper(D, 0.01)
    x = stepper.solve(np.array([2.0]), np.array([0.5]), x0=np.array([0.5]))
    assert np.allclose(x, 0.5 / 1.02, rtol=1e-12)


def test_integrate_pde_path_shape_and_store_every():
    grid, A = _setup_1d(n=8)
    L = assemble_operator(grid, A, alpha=1.0, u=0.0, theta1=0.5)
    th0 = ScalarField.constant(grid, 0.2)
    path = integrate_pde(th0, L, 1.0, T=1.0, dt=0.1, store_every=2)
    assert path.values.shape == (6, 8)
    assert path.times[-1] == pytest.approx(1.0)
    single = integrate_pde(th0, L, 1.0, T=0.0, dt=0.1)
    assert single.n_times == 1 and np.array_equal(single.values[0], th0.values)


def test_integrate_pde_monotone_approach_to_equilibrium():
    grid, A = _setup_1d()
    u, theta1, alpha = 0.25, 0.6, 2.0
    L = assemble_operator(grid, A, alpha=alpha, u=u, theta1=theta1)
    th0 = ScalarField.constant(grid, 0.1)
    path = integrate_pde(th0, L, alpha, T=20.0, dt=0.01)
    # equilibrium of the uniform problem is the control floor 1 - theta1*u
    assert np.allclose(path.values[-1], 1.0 - theta1 * u, atol=1e-6)
    assert np.all(np.diff(path.values[:, 0]) >= -1e-12)  # monotone rise


# ---------------------------------------------------------------------------
#  Equilibrium solve
# ---------------------------------------------------------------------------

def test_equilibrium_constant_control_exact():
    grid, A = _setup_1d()
    u, theta1 = 0.5, 0.6
    L = assemble_operator(grid, A, alpha=1.7, u=u, theta1=theta1)
    eq = solve_equilibrium(L, 1.7)
    assert np.max(np.abs(eq.values - (1.0 - theta1 * u))) < 1e-10


def test_equilibrium_varying_control_matches_long_run():
    grid, A = _setup_1d()
    theta1 = 0.6
    u = 0.5 * (1.0 + np.sin(2.0 * np.pi * grid.centers[:, 0]))
    L = assemble_operator(grid, A, alpha=1.0, u=u, theta1=theta1)
    eq = solve_equilibrium(L, 1.0)
    path = integrate_pde(ScalarField.constant(grid, 0.2), L, 1.0, T=50.0, dt=0.01)
    assert np.max(np.abs(eq.values - path.values[-1])) < 1e-8


def test_equilibrium_rejects_pure_diffusion():
    grid, A = _setup_1d(n=8)
    L = assemble_operator(grid, A, alpha=0.0, u=0.0, theta1=0.5)
    with pytest.raises(SingularOperatorError):
        solve_equilibrium(L, 0.0)


# ---------------------------------------------------------------------------
#  Comparison bounds
# ---------------------------------------------------------------------------

def test_bounds_hold_on_constant_coefficient_run():
    grid, A = _setup_1d(n=64, A=0.05)
    alpha, u, theta1 = 1.3, 0.4, 0.6
    th0 = ScalarField.from_function(
        grid, lambda c: 0.2 + 0.15 * np.sin(3.0 * np.pi * c[0]) ** 2)
    L = assemble_operator(grid, A, alpha=alpha, u=u, theta1=theta1)
    path = integrate_pde(th0, L, alpha, T=2.0, dt=1e-3, store_every=50)
    m, M, rho = bounds_inputs_from_initial(th0, u, theta1, grid.n_cells)
    rep = verify_bounds(path, rho, alpha, m, M)
    assert rep.satisfied(tol=1e-8)
    assert rep.worst_lower_slack >= -1e-8
    assert rep.worst_upper_slack >= -1e-8


def test_bounds_reject_varying_alpha():
    grid, _ = _setup_1d(n=4)
    path = FieldPath(np.array([0.0, 1.0]), np.full((2, 4), 0.3))
    with pytest.raises(ValueError, match="constant"):
        verify_bounds(path, np.array([1.0, 1.0, 1.0, 1.0]),
                      np.array([1.0, 1.0, 1.0, 2.0]), 0.1, 1.0)


def test_bounds_inputs_values():
    m, M, rho = bounds_inputs_from_initial(
        np.array([0.2, 0.5]), np.array([0.0, 0.5]), 0.6, 2)
    assert m == pytest.approx(0.2)
    assert M == pytest.approx(max(0.5, 1.0))  # sup(1 - 0.6*u) = 1 at u=0
    assert np.allclose(rho.values, [1.0, 1.0 / 0.7])


# ---------------------------------------------------------------------------
#  Principal eigenvalue
# ---------------------------------------------------------------------------

def test_eigen_neumann_kernel_not_certified_stable():
    grid, A = _setup_1d()
    L = assemble_operator(grid, A, alpha=0.0, u=0.0, theta1=0.5)
    rep = principal_eigenvalue(L)
    assert abs(rep.value) < 1e-10  # constants are in the kernel
    assert not rep.stable  # zero mode: perturbations do not decay


def test_eigen_second_mode_matches_continuum():
    # smallest nonzero Neumann eigenvalue of -d/dx(A d/dx) on (0,1) is A*pi^2
    # in the continuum; the N=32 cell-centered discrete value is
    # A*(2/h^2)(1-cos(pi*h)) (cross-checked against a dense eigensolve)
    grid, A = _setup_1d(n=32, A=0.02)
    L = assemble_operator(grid, A, alpha=0.0, u=0.0, theta1=0.5)
    rep = principal_eigenvalue(L, exclude_constant=True)
    h = 1.0 / 32.0
    assert rep.value == pytest.approx(0.02 * 2.0 / h**2 * (1.0 - np.cos(np.pi * h)),
                                      rel=1e-8)
    assert rep.value == pytest.approx(0.02 * np.pi**2, rel=1e-3)
    assert rep.stable


def test_eigen_reaction_shift():
    grid, A = _setup_1d()
    L = assemble_operator(grid, A, alpha=1.0, u=0.0, theta1=0.5)
    rep = principal_eigenvalue(L)
    assert rep.value == pytest.approx(1.0, rel=1e-8)
    assert rep.stable


def test_eigen_rejects_asymmetric_operator():
    grid, A = _setup_1d(n=8)
    # spatially varying reaction keeps symmetry; varying control floor does
    # not break it either (diagonal), so force asymmetry via raw matrix edit
    L = assemble_operator(grid, A, alpha=1.0, u=0.0, theta1=0.5)
    M = L.matrix.tolil()
    M[0, 1] = M[0, 1] * 2.0
    bad = type(L)(matrix=M.tocsr(), includes_reaction=True,
                  reaction=L.reaction)
    with pytest.raises(ValueError, match="symmetric"):
        principal_eigenvalue(bad)


def test_eigen_single_cell():
    grid, A = build_grid(GridSpec((1.0,), (1,)), A_spec=1.0)
    L = assemble_operator(grid, A, alpha=0.7, u=0.0, theta1=0.5)
    rep = principal_eigenvalue(L)
    assert rep.value == pytest.approx(0.7)
    assert rep.stable
