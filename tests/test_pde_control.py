"""Linearized LQR, adjoint solve, stationarity feedback, sweep iteration."""

import numpy as np
import pytest
import scipy.sparse as sp

from anthractl import (
    DivisionGuardError,
    FieldPath,
    GridMismatchError,
    GridSpec,
    LinearizationPoint,
    OperatorMatrix,
    PdeCostSpec,
    RiccatiBlowupError,
    ScalarField,
    StiffStepError,
    assemble_operator,
    build_grid,
    closed_loop_linearized,
    eval_cost_JT3,
    forward_backward_sweep,
    hamiltonian_pointwise_feedback,
    integrate_controlled,
    integrate_linearized,
    integrate_pde,
    integrate_riccati,
    linearize,
    optimal_u_feedback,
    riccati_feedback,
    solve_adjoint_pde,
)
from anthractl.grid import as_cell_values
from anthractl.host import time_grid
from anthractl._kernels import _interp_knots
from anthractl.pde_control import _closed_loop_lanes, _stationarity_feedback

# the 1-cell reference problem: alpha=1, eps=4, theta1=0.5, k1=k2=0.5
# => b = alpha*eps*theta1 = 2 and the stationary Riccati equation
#    2 G P + I = P^2 b^2/k1  with G = -alpha = -1 reads 8P^2 + 2P - 1 = 0,
#    whose positive root is P = 1/4.
_SCALAR = dict(alpha=1.0, eps=4.0, theta1=0.5, k1=0.5, k2=0.5)


def _scalar_setup():
    grid, A = build_grid(GridSpec((1.0,), (1,)), A_spec=1.0)
    cost = PdeCostSpec(k1=_SCALAR["k1"], k2=_SCALAR["k2"])
    eps = LinearizationPoint(_SCALAR["eps"])
    L1, b = linearize(_SCALAR["alpha"], eps, _SCALAR["theta1"], grid, A)
    return grid, A, cost, eps, L1, b


def _grid_1d(n=16, A=0.01):
    return build_grid(GridSpec((1.0,), (n,)), A_spec=A)


# ---------------------------------------------------------------------------
#  Linearization and Riccati integration
# ---------------------------------------------------------------------------

def test_linearize_control_diagonal():
    grid, A = _grid_1d(n=4)
    alpha = np.array([1.0, 2.0, 0.5, 1.5])
    L1, b = linearize(alpha, LinearizationPoint(3.0), 0.6, grid, A)
    assert np.allclose(b, alpha * 3.0 * 0.6)
    # linearized reaction diagonal is alpha itself (no control floor)
    interior_free = assemble_operator(grid, A, alpha, 0.0, 0.6,
                                      reaction="linearized")
    assert (L1.matrix != interior_free.matrix).nnz == 0


def test_riccati_scalar_stationary_limit():
    _, _, cost, eps, L1, b = _scalar_setup()
    path = integrate_riccati(L1, b, cost, T=6.0, dt=0.005)
    assert path.matrices[0, 0, 0] == pytest.approx(_SCALAR["k2"])  # P(0)=k2
    assert path.matrices[-1, 0, 0] == pytest.approx(0.25, abs=1e-9)


def test_riccati_matrices_symmetric_psd():
    grid, A = _grid_1d(n=6)
    alpha = 1.0 + grid.centers[:, 0]
    L1, b = linearize(alpha, LinearizationPoint(2.0), 0.5, grid, A)
    cost = PdeCostSpec(k1=0.4, k2=0.2)
    path = integrate_riccati(L1, b, cost, T=2.0, dt=0.01, store_every=10)
    for i in range(path.times.shape[0]):
        P = path.matrices[i]
        assert np.max(np.abs(P - P.T)) < 1e-10
        eigs = np.linalg.eigvalsh(P)
        assert eigs[0] >= -1e-8
        # the extremes kept from the PSD check are the ones recomputed here
        assert path.eig_range[i].tolist() == [eigs[0], eigs[-1]]


@pytest.mark.parametrize("store_every", [1, 7])
def test_riccati_eig_range_equals_per_matrix_extremes(store_every):
    # the one eigvalsh pass over the stored stack gives each matrix's own
    # extremes, bit for bit, on a thinned path whose last step is stored too
    grid, A = _grid_1d(n=12, A=0.02)
    L1, b = linearize(1.0 + grid.centers[:, 0], LinearizationPoint(3.0), 0.5, grid, A)
    path = integrate_riccati(L1, b, PdeCostSpec(k1=0.5, k2=0.3), T=1.0, dt=0.01,
                             store_every=store_every)
    _, h, times = time_grid(0.0, 1.0, 0.01)
    stored = sorted(set(range(0, 101, store_every)) | {100})
    assert np.array_equal(path.times, times[stored])
    for P, extremes in zip(path.matrices, path.eig_range):
        eigs = np.linalg.eigvalsh(P)
        assert extremes.tolist() == [float(eigs[0]), float(eigs[-1])]


def _unstable_scalar_operator(c=40.0):
    # G = +c I via L1 = -c I: P' = 2cP + 1 - w P^2 escapes in finite time
    return OperatorMatrix(matrix=sp.csr_matrix(np.array([[-c]])),
                          includes_reaction=True, reaction="linearized")


@pytest.mark.parametrize("store_every", [1, 400])
def test_riccati_earlier_psd_failure_precedes_a_later_blowup(store_every):
    # P(0) = -I is not PSD, and from there P runs off to -1e12 near s = 0.35:
    # the PSD failure of the matrix stored at s = 0 is the error raised, as
    # if every stored matrix were checked when stored, not the norm cap
    cost = PdeCostSpec(k1=1.0, k2=0.0)
    object.__setattr__(cost, "k2", -1.0)  # past the validation, on purpose
    with pytest.raises(RiccatiBlowupError, match=r"semidefiniteness \(min eigenvalue "
                                                 r"-1\.000e\+00\) at pseudo-time 0$"):
        integrate_riccati(_unstable_scalar_operator(), np.zeros(1), cost, T=1.0,
                          dt=0.0025, store_every=store_every)
    # without the PSD failure the same march ends on the norm cap
    with pytest.raises(RiccatiBlowupError, match=r"\|\|P\|\| reached"):
        integrate_riccati(_unstable_scalar_operator(), np.zeros(1),
                          PdeCostSpec(k1=1.0, k2=1.0), T=1.0, dt=0.0025,
                          store_every=store_every)


def _riccati_rk4_reference(L1, b, cost, T, dt):
    """Classical RK4 on dP/ds = G P + P G - P W P + I (G = -L1), symmetrized
    every step; the stored matrices at every step."""
    n = L1.n_cells
    G = -L1.matrix.toarray()
    w = b * b / cost.k1_values(n)
    eye = np.eye(n)

    def rhs(P):
        GP = G @ P
        return GP + GP.T - (P * w) @ P + eye

    P = np.diag(cost.k2_values(n))
    mats = [P]
    for _ in range(int(round(T / dt))):
        s1 = rhs(P)
        s2 = rhs(P + 0.5 * dt * s1)
        s3 = rhs(P + 0.5 * dt * s2)
        s4 = rhs(P + dt * s3)
        P = P + (dt / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
        P = 0.5 * (P + P.T)
        mats.append(P)
    return np.asarray(mats)


def test_riccati_exact_step_matches_fine_rk4():
    grid, A = _grid_1d(n=32, A=0.02)
    L1, b = linearize(1.0, LinearizationPoint(4.0), 0.5, grid, A)
    cost = PdeCostSpec(k1=0.5, k2=1.0)
    path = integrate_riccati(L1, b, cost, T=1.0, dt=0.005)
    fine = _riccati_rk4_reference(L1, b, cost, T=1.0, dt=0.005 / 20)[::20]
    assert np.max(np.abs(path.matrices - fine)) < 1e-8


def test_riccati_stiff_fine_grid_stays_psd():
    # a draw like the benchmark's riccati-00: explicit RK4 at dt = 0.005 loses
    # positive semidefiniteness at s = 0.015 on this grid
    grid, A = _grid_1d(n=47, A=0.0416)
    L1, b = linearize(1.45, LinearizationPoint(4.0), 0.5, grid, A)
    path = integrate_riccati(L1, b, PdeCostSpec(k1=0.5, k2=0.5), T=1.0, dt=0.005)
    assert np.min(path.eig_range[:, 0]) > 0.0


def test_riccati_lookback_indexing():
    _, _, cost, eps, L1, b = _scalar_setup()
    path = integrate_riccati(L1, b, cost, T=1.0, dt=0.01)
    assert path.P_lookback(1.0)[0, 0] == pytest.approx(path.matrices[0, 0, 0])
    assert path.P_lookback(0.0)[0, 0] == pytest.approx(path.matrices[-1, 0, 0])


def test_riccati_blowup_guard():
    # a strongly unstable generator with no damping: G = +c I via L1 = -c I
    L1 = OperatorMatrix(matrix=sp.csr_matrix(np.array([[-40.0]])),
                        includes_reaction=True, reaction="linearized")
    with pytest.raises(RiccatiBlowupError):
        integrate_riccati(L1, np.zeros(1), PdeCostSpec(k1=1.0, k2=1e9),
                          T=10.0, dt=0.01)


def test_riccati_feedback_offset_and_clamp():
    _, _, cost, eps, L1, b = _scalar_setup()
    path = integrate_riccati(L1, b, cost, T=1.0, dt=0.01)
    # u = (b/k1) P theta + 1/(eps*theta1); offset alone is 0.5
    u0 = riccati_feedback(path, np.zeros(1), 0.5, b, cost, eps, _SCALAR["theta1"])
    assert u0.values[0] == pytest.approx(0.5)
    u_hi = riccati_feedback(path, np.full(1, 10.0), 0.0, b, cost, eps,
                            _SCALAR["theta1"])
    assert u_hi.values[0] == 1.0  # clamped


# ---------------------------------------------------------------------------
#  Linearized dynamics and closed loop
# ---------------------------------------------------------------------------

def test_closed_loop_beats_constant_controls():
    grid, _, cost, eps, L1, b = _scalar_setup()
    theta0 = ScalarField.constant(grid, 0.3)
    T, dt = 1.0, 0.005
    P = integrate_riccati(L1, b, cost, T=T, dt=dt)
    th_fb, u_fb = closed_loop_linearized(theta0, L1, b, P, cost, eps,
                                         _SCALAR["theta1"], _SCALAR["alpha"], T, dt)
    J_fb = eval_cost_JT3(th_fb, u_fb, cost, grid, dt)

    def const_cost(u_val):
        up = FieldPath(th_fb.times, np.full(th_fb.values.shape, u_val))
        th = integrate_linearized(theta0, L1, b, up, _SCALAR["alpha"], T, dt)
        return eval_cost_JT3(th, up, cost, grid, dt)

    assert J_fb <= const_cost(0.0)
    assert J_fb <= const_cost(1.0)


def test_linearized_rk4_refuses_unstable_step():
    # h*rho = 0.005 * (1 + 4*0.05*56^2) = 3.14 > 2.78
    grid, A = _grid_1d(n=56, A=0.05)
    cost, eps = PdeCostSpec(k1=0.5, k2=0.5), LinearizationPoint(4.0)
    L1, b = linearize(1.0, eps, 0.5, grid, A)
    T, dt = 1.0, 0.005
    times = np.linspace(0.0, T, 201)
    up = FieldPath(times, np.zeros((201, grid.n_cells)))
    with pytest.raises(StiffStepError, match="h\\*rho"):
        integrate_linearized(0.3, L1, b, up, 1.0, T, dt)
    P = integrate_riccati(L1, b, cost, T=T, dt=dt)
    with pytest.raises(StiffStepError, match="h\\*rho"):
        closed_loop_linearized(0.3, L1, b, P, cost, eps, 0.5, 1.0, T, dt)


def _separate_rollouts(theta0, L1, b, P_path, cost, eps, theta1, alpha, T, dt):
    """The closed loop and the u=0 / u=1 baselines as three loops over one
    state vector each, the stored closed-loop u recomputed after the loop at
    the stored states (the rollouts before they became lanes of one loop)."""
    n = L1.n_cells
    _, h, times = time_grid(0.0, T, dt)
    al = as_cell_values(alpha, n)

    def feedback(t, x):
        return riccati_feedback(P_path, x, t, b, cost, eps, theta1).values

    def rollout(u_of):
        th = as_cell_values(theta0, n).copy()
        out = [th]
        for k in range(len(times) - 1):
            t = times[k]

            def f(t, x):
                return -(L1.matrix @ x) - b * u_of(t, x) + al

            s1 = f(t, th)
            s2 = f(t + 0.5 * h, th + 0.5 * h * s1)
            s3 = f(t + 0.5 * h, th + 0.5 * h * s2)
            s4 = f(t + h, th + h * s3)
            th = th + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
            out.append(th)
        return np.array(out)

    theta = rollout(feedback)
    u = np.array([feedback(t, x) for t, x in zip(times, theta)])
    constant = [rollout(lambda t, x, uv=np.full((len(times), n), c):
                        _interp_knots(t, times, uv))
                for c in _CONSTANTS]
    return theta, u, constant


# the u=0 and u=1 baselines of riccati-pde, and one more uniform level
_CONSTANTS = (0.0, 1.0, 0.3)


@pytest.mark.parametrize("resolution, level", [
    ((1,), 0.3), ((16,), 0.3), ((64,), 0.3), ((6, 6), 0.3),
    ((16,), 2.0),  # far from the linearization point: the feedback clamps at 1
])
def test_lane_rollouts_equal_separate_rollouts(resolution, level):
    grid, A = build_grid(GridSpec((1.0,) * len(resolution), resolution), A_spec=0.02)
    cost, eps, theta1 = PdeCostSpec(k1=0.5, k2=0.5), LinearizationPoint(4.0), 0.5
    alpha = np.linspace(0.5, 1.5, grid.n_cells)
    L1, b = linearize(alpha, eps, theta1, grid, A)
    T, dt = 0.5, 0.005
    P = integrate_riccati(L1, b, cost, T=T, dt=dt)
    theta0 = ScalarField(level * np.linspace(0.7, 1.3, grid.n_cells))
    args = (theta0, L1, b, P, cost, eps, theta1, alpha, T, dt)

    lookbacks = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(type(P), "P_lookback",
                  lambda self, t, f=type(P).P_lookback: lookbacks.append(t) or f(self, t))
        theta, u, clamping, baselines = _closed_loop_lanes(*args, constants=_CONSTANTS)
    ref_theta, ref_u, ref_baselines = _separate_rollouts(*args)
    assert np.array_equal(theta.values, ref_theta)
    assert np.array_equal(u.values, ref_u)  # stage-1 feedback == post-loop recomputation
    for path, ref in zip(baselines, ref_baselines):
        assert np.array_equal(path.values, ref)

    # the public integrators are one-lane calls of the same loop
    th_one, u_one = closed_loop_linearized(*args)
    assert np.array_equal(th_one.values, theta.values)
    assert np.array_equal(u_one.values, u.values)
    for c, path in zip(_CONSTANTS, baselines):
        up = FieldPath(theta.times, np.full(theta.values.shape, c))
        th_c = integrate_linearized(theta0, L1, b, up, alpha, T, dt)
        assert np.array_equal(th_c.values, path.values)

    n_clamped, evaluations, share_max = clamping
    steps = len(theta.times) - 1
    assert evaluations == 4 * steps + 1
    # P(T - t) once per distinct stage time: stages 2 and 3 share t + h/2,
    # and stage 4's t + h is often the next step's t
    assert len(lookbacks) == len(set(lookbacks)) <= 3 * steps + 1
    if level > 1.0:
        assert n_clamped > 0 and share_max > 0.0
        assert np.max(u.values) == 1.0


def test_integrate_linearized_equilibrium():
    # constant u: d(theta)/dt = -alpha*theta - b*u + alpha settles at
    # theta* = 1 - b*u/alpha; the gap decays like e^{-alpha T}
    grid, _, cost, eps, L1, b = _scalar_setup()
    up = FieldPath(np.array([0.0, 16.0]), np.full((2, 1), 0.25))
    th = integrate_linearized(ScalarField.constant(grid, 0.3), L1, b, up,
                              _SCALAR["alpha"], 16.0, 0.005)
    assert th.values[-1, 0] == pytest.approx(1.0 - 2.0 * 0.25 / 1.0, abs=1e-6)


# ---------------------------------------------------------------------------
#  Nonlinear controlled integration and the adjoint
# ---------------------------------------------------------------------------

def test_integrate_controlled_matches_constant_operator_path():
    grid, A = _grid_1d()
    alpha = 1.0 + 0.5 * grid.centers[:, 0]
    theta1, u_const = 0.6, 0.35
    T, dt = 1.0, 0.01
    times = np.linspace(0.0, T, 101)
    u_path = FieldPath(times, np.full((101, grid.n_cells), u_const))
    th_ctl = integrate_controlled(ScalarField.constant(grid, 0.2), grid, A,
                                  alpha, u_path, theta1, T, dt)
    L = assemble_operator(grid, A, alpha, u_const, theta1)
    th_ref = integrate_pde(ScalarField.constant(grid, 0.2), L, alpha, T, dt)
    assert np.max(np.abs(th_ctl.values - th_ref.values)) < 1e-10


def test_integrate_controlled_rejects_off_grid_control():
    grid, A = _grid_1d(n=4)
    coarse = FieldPath(np.array([0.0, 1.0]), np.full((2, 4), 0.2))
    with pytest.raises(GridMismatchError):
        integrate_controlled(0.2, grid, A, 1.0, coarse, 0.5, 1.0, 0.1)


def test_division_guard_names_the_first_level_each_march_reaches():
    # the control's floor 1 - theta1*u is negative at t = 0.3 and t = 0.7:
    # the forward march reaches 0.3 first, the backward adjoint march 0.7
    grid, A = _grid_1d(n=4)
    times = np.linspace(0.0, 1.0, 11)
    u = np.zeros((11, 4))
    u[3, 1] = u[7, 2] = 2.5
    u_path = FieldPath(times, u)
    with pytest.raises(DivisionGuardError, match=r"-2\.500e-01 <= 0 at t=0\.3$"):
        integrate_controlled(0.2, grid, A, 1.0, u_path, 0.5, 1.0, 0.1)
    theta_path = FieldPath(times, np.full((11, 4), 0.2))
    with pytest.raises(DivisionGuardError, match=r"-2\.500e-01 <= 0 at t=0\.7$"):
        solve_adjoint_pde(theta_path, u_path, PdeCostSpec(k1=1.0, k2=0.3), grid, A,
                          1.0, 0.1, alpha=1.0, theta1=0.5)


def test_adjoint_terminal_condition_and_shape():
    grid, A = _grid_1d(n=8)
    cost = PdeCostSpec(k1=1.0, k2=0.3)
    T, dt = 0.5, 0.01
    times = np.linspace(0.0, T, 51)
    theta_path = FieldPath(times, np.tile(0.2 + 0.1 * times[:, None], (1, 8)))
    u_path = FieldPath(times, np.zeros((51, 8)))
    p = solve_adjoint_pde(theta_path, u_path, cost, grid, A, T, dt,
                          alpha=1.0, theta1=0.5)
    assert p.values.shape == (51, 8)
    assert np.allclose(p.values[-1], 2.0 * 0.3 * theta_path.values[-1])
    # adjoint is positive before T for a positive state (cost sensitivity)
    assert np.all(p.values[:-1] > 0.0)


def test_pointwise_feedback_matches_scalar_law(rng):
    # the cellwise stationarity solve must agree with the trajectory
    # feedback law evaluated cell by cell
    for _ in range(25):
        alpha = rng.uniform(0.0, 6.0, 5)
        theta = rng.uniform(0.0, 1.0, 5)
        p = rng.uniform(0.0, 1.5, 5)
        theta1 = rng.uniform(0.05, 0.95)
        k1 = rng.uniform(0.1, 3.0)
        u_field = hamiltonian_pointwise_feedback(alpha, theta, p, theta1, k1)
        for j in range(5):
            expect = optimal_u_feedback(alpha[j], theta[j], p[j], theta1, k1)
            assert u_field.values[j] == expect


def test_sweep_path_feedback_equals_per_level_feedback(rng):
    # the sweep evaluates the stationarity feedback once on the whole
    # (n_t, n_cells) path; it must equal the per-time-level public call
    grid, A = _grid_1d(n=8)
    alpha = rng.uniform(0.5, 4.0, 8)
    k1 = rng.uniform(0.2, 1.0, 8)
    cost = PdeCostSpec(k1=k1, k2=0.3)
    theta1, T, dt = 0.6, 0.5, 0.01
    times = np.linspace(0.0, T, 51)
    u_path = FieldPath(times, rng.uniform(0.0, 0.5, (51, 8)))
    theta = integrate_controlled(ScalarField.constant(grid, 0.4), grid, A,
                                 alpha, u_path, theta1, T, dt).values
    p = solve_adjoint_pde(FieldPath(times, theta), u_path, cost, grid, A, T, dt,
                          alpha, theta1).values
    p = p * rng.uniform(-1.0, 8.0, p.shape)  # reach the bang and u = 0 cells
    whole = _stationarity_feedback(alpha, theta, p, theta1, k1)
    per_level = np.array([
        hamiltonian_pointwise_feedback(alpha, theta[j], p[j], theta1, k1).values
        for j in range(len(times))])
    assert 0.0 < np.mean(whole == 1.0) < 1.0
    assert np.any((whole > 0.0) & (whole < 1.0))
    assert np.array_equal(whole, per_level)
    for j, c in zip(*np.nonzero((whole > 0.0) & (whole < 1.0))):
        expect = optimal_u_feedback(alpha[c], theta[j, c], p[j, c], theta1, k1[c])
        assert whole[j, c] == expect


def test_pointwise_feedback_interior_residual():
    # strictly interior cell: stationarity equation holds to near machine eps
    alpha, theta, p, theta1, k1 = 2.0, 0.5, 0.6, 0.6, 1.0
    u = hamiltonian_pointwise_feedback(
        np.array([alpha]), np.array([theta]), np.array([p]), theta1, k1).values[0]
    assert 0.0 < u < 1.0
    resid = 2.0 * k1 * u * (1.0 - theta1 * u) ** 2 - alpha * theta1 * theta * p
    assert abs(resid) < 1e-10


def test_pointwise_feedback_negative_pressure_shuts_off():
    u = hamiltonian_pointwise_feedback(
        np.array([1.0]), np.array([0.4]), np.array([-0.5]), 0.5, 1.0)
    assert u.values[0] == 0.0


@pytest.mark.parametrize("k1", [np.nan, np.inf, 0.0, -1.0, np.array([1.0, np.nan])],
                         ids=["nan", "inf", "zero", "negative", "nan-cell"])
def test_pointwise_feedback_rejects_bad_k1(k1):
    # the ODE law refuses such a k too (test_feedback_law_rejects_bad_k)
    with pytest.raises(ValueError, match="k1"):
        hamiltonian_pointwise_feedback(np.ones(2), np.full(2, 0.5), np.full(2, 0.5),
                                       0.5, k1)


def test_cost_JT3_hand_value():
    grid, _ = _grid_1d(n=4)  # cell volume 0.25
    times = np.linspace(0.0, 1.0, 11)
    theta = FieldPath(times, np.full((11, 4), 0.2))
    u = FieldPath(times, np.full((11, 4), 0.5))
    cost = PdeCostSpec(k1=2.0, k2=3.0)
    # integral over space of (0.04 + 2*0.25) = 0.54, times T=1,
    # plus terminal 3*0.04 = 0.12
    assert eval_cost_JT3(theta, u, cost, grid, 0.1) == pytest.approx(0.66, abs=1e-12)


def test_cost_JT3_mismatches_rejected():
    grid, _ = _grid_1d(n=4)
    times = np.linspace(0.0, 1.0, 11)
    theta = FieldPath(times, np.full((11, 4), 0.2))
    cost = PdeCostSpec(k1=1.0, k2=1.0)
    with pytest.raises(GridMismatchError):  # wrong cell count
        eval_cost_JT3(theta, FieldPath(times, np.zeros((11, 3))), cost, grid, 0.1)
    with pytest.raises(GridMismatchError):  # different time grid
        eval_cost_JT3(theta, FieldPath(times + 0.05, np.zeros((11, 4))),
                      cost, grid, 0.1)
    with pytest.raises(GridMismatchError):  # declared dt does not match
        eval_cost_JT3(theta, FieldPath(times, np.zeros((11, 4))), cost, grid, 0.2)


def test_adjoint_rejects_mismatched_paths():
    grid, A = _grid_1d(n=4)
    cost = PdeCostSpec(k1=1.0, k2=1.0)
    times = np.linspace(0.0, 1.0, 11)
    good = FieldPath(times, np.full((11, 4), 0.2))
    with pytest.raises(GridMismatchError):
        solve_adjoint_pde(FieldPath(times, np.zeros((11, 5))), good, cost,
                          grid, A, 1.0, 0.1, alpha=1.0, theta1=0.5)
    with pytest.raises(GridMismatchError):
        solve_adjoint_pde(good, FieldPath(times[:-1], np.zeros((10, 4))), cost,
                          grid, A, 1.0, 0.1, alpha=1.0, theta1=0.5)


# ---------------------------------------------------------------------------
#  Gradient check: adjoint-based directional derivative vs finite differences
# ---------------------------------------------------------------------------

def test_adjoint_gradient_matches_finite_differences():
    grid, A = _grid_1d(n=4, A=0.02)
    cost = PdeCostSpec(k1=0.8, k2=0.3)
    alpha, theta1 = 1.2, 0.6
    T, dt = 0.4, 0.002
    times = np.linspace(0.0, T, int(round(T / dt)) + 1)
    theta0 = ScalarField(np.array([0.1, 0.3, 0.2, 0.25]))
    u0 = np.tile(0.3 + 0.1 * np.sin(2.0 * np.pi * times)[:, None], (1, 4))
    psi = np.sin(np.pi * times / T)[:, None] * np.array([1.0, -0.5, 0.8, 0.3])

    def J(u_vals):
        path = FieldPath(times, np.clip(u_vals, 0.0, 1.0))
        th = integrate_controlled(theta0, grid, A, alpha, path, theta1, T, dt)
        return eval_cost_JT3(th, path, cost, grid, dt)

    # adjoint gradient field: dH/du = 2 k1 u - alpha theta1 theta p rho^2
    u_path = FieldPath(times, u0)
    th = integrate_controlled(theta0, grid, A, alpha, u_path, theta1, T, dt)
    p = solve_adjoint_pde(th, u_path, cost, grid, A, T, dt, alpha, theta1)
    rho = 1.0 / (1.0 - theta1 * u0)
    grad = 2.0 * cost.k1_values(4) * u0 - alpha * theta1 * th.values * p.values * rho**2
    # directional derivative: space-time quadrature of grad * psi
    w_t = np.full(len(times), dt)
    w_t[0] = w_t[-1] = 0.5 * dt
    dJ_adj = float(np.sum(w_t[:, None] * grad * psi) * grid.cell_volume)

    eps = 1e-5
    dJ_fd = (J(u0 + eps * psi) - J(u0 - eps * psi)) / (2.0 * eps)
    # the adjoint is discretized at first order in time: mismatch is O(dt),
    # measured 6.1e-5 at dt=0.002 for this scenario (and halves with dt)
    assert dJ_fd == pytest.approx(dJ_adj, rel=1e-3)


# ---------------------------------------------------------------------------
#  Forward-backward sweep
# ---------------------------------------------------------------------------

def test_sweep_converges_and_dominates_constants():
    grid, A = _grid_1d(n=8, A=0.01)
    x = grid.centers[:, 0]
    prof = 4.0 * (x - 0.75) ** 2 * (1.0 - np.cos(2.0 * np.pi * x / 0.2))
    alpha = 3.0 * prof / np.max(prof)
    cost = PdeCostSpec(k1=1.0, k2=0.25)
    theta1, T, dt = 0.6, 1.0, 0.02
    res = forward_backward_sweep(ScalarField.constant(grid, 0.2), grid, A,
                                 alpha, cost, T, dt, theta1=theta1,
                                 relax=0.5, max_iter=60)
    assert res.converged
    J_star = res.cost_history[-1]

    def const_cost(u_val):
        up = FieldPath(res.u_path.times, np.full(res.u_path.values.shape, u_val))
        th = integrate_controlled(ScalarField.constant(grid, 0.2), grid, A,
                                  alpha, up, theta1, T, dt)
        return eval_cost_JT3(th, up, cost, grid, dt)

    assert J_star <= const_cost(0.0) + 1e-6
    assert J_star <= const_cost(1.0) + 1e-6
    assert np.all(res.u_path.values >= 0.0) and np.all(res.u_path.values <= 1.0)


def test_sweep_cost_history_is_the_cost_of_each_iterate(monkeypatch, tmp_path):
    # row i of the history is J(u_i): on sweep-1d the first row is the cost
    # of u = 0 and the last that of the returned control, bit for bit as
    # the CLI reports them
    from anthractl import cli

    results = []
    sweep = cli.forward_backward_sweep
    monkeypatch.setattr(cli, "forward_backward_sweep",
                        lambda *a, **kw: results.append(sweep(*a, **kw)) or results[-1])
    report = cli.execute(cli.parse_config(cli.resolve_config_path("sweep-1d")),
                         str(tmp_path))
    history = results[0].cost_history
    assert len(history) == results[0].iterations + 1
    assert history[0] == report.costs["u_zero"]
    assert history[-1] == report.costs["controlled"]


def test_sweep_first_cost_is_the_zero_control_cost_in_2d():
    # sweep-pde reports row 0 of the history as its u = 0 baseline: the sweep
    # starts from u = 0, so that row is J(0) bit for bit, on a 2-D grid too
    grid, A = build_grid(GridSpec((1.0, 1.0), (6, 6)), A_spec=0.02)
    x, y = grid.centers[:, 0], grid.centers[:, 1]
    alpha = 1.0 + 2.0 * x * (1.0 - y)
    cost = PdeCostSpec(k1=1.0, k2=0.25)
    theta0 = ScalarField.constant(grid, 0.2)
    T, h = 1.0, 0.05
    res = forward_backward_sweep(theta0, grid, A, alpha, cost, T, h, theta1=0.6,
                                 relax=0.5, max_iter=5)
    zero = FieldPath(res.u_path.times, np.zeros(res.u_path.values.shape))
    th = integrate_controlled(theta0, grid, A, alpha, zero, 0.6, T, h)
    assert res.cost_history[0] == eval_cost_JT3(th, zero, cost, grid, h)


def _reference_sweep(theta0, grid, A, alpha, cost, T, dt, theta1, relax, max_iter):
    """The sweep as passes that each update the control, then one final
    pass under the returned control."""
    n = grid.n_cells
    _, h, times = time_grid(0.0, T, dt)
    al, k1 = as_cell_values(alpha, n), cost.k1_values(n)
    u_vals = np.zeros((len(times), n))
    history, converged = [], False
    for iterations in range(1, max_iter + 1):
        u_path = FieldPath(times, u_vals)
        th = integrate_controlled(theta0, grid, A, al, u_path, theta1, T, dt)
        history.append(eval_cost_JT3(th, u_path, cost, grid, h))
        p = solve_adjoint_pde(th, u_path, cost, grid, A, T, dt, al, theta1)
        u_next = ((1.0 - relax) * u_vals
                  + relax * _stationarity_feedback(al, th.values, p.values, theta1, k1))
        change = float(np.max(np.abs(u_next - u_vals)))
        u_vals = u_next
        if change < 1e-6:
            converged = True
            break
    u_path = FieldPath(times, u_vals)
    th = integrate_controlled(theta0, grid, A, al, u_path, theta1, T, dt)
    p = solve_adjoint_pde(th, u_path, cost, grid, A, T, dt, al, theta1)
    history.append(eval_cost_JT3(th, u_path, cost, grid, h))
    return u_path, th, p, np.asarray(history), converged, iterations


def _sweep_1d_case():
    from anthractl.cli import parse_config, resolve_config_path

    plan = parse_config(resolve_config_path("sweep-1d")).plan
    relax, max_iter = plan.sweep
    return (plan.theta0, plan.grid, plan.A, plan.alpha, plan.cost, plan.T, plan.h,
            plan.theta1, relax, max_iter)


def _sweep_2d_case():
    grid, A = build_grid(GridSpec((1.0, 1.0), (6, 6)), A_spec=0.02)
    x, y = grid.centers[:, 0], grid.centers[:, 1]
    return (ScalarField.constant(grid, 0.2), grid, A, 1.0 + 2.0 * x * (1.0 - y),
            PdeCostSpec(k1=1.0, k2=0.25), 1.0, 0.05, 0.6, 0.5, 100)


def _sweep_capped_case():
    grid, A = _grid_1d(n=4, A=0.01)
    return (ScalarField.constant(grid, 0.5), grid, A, np.full(4, 5.0),
            PdeCostSpec(k1=0.05, k2=0.5), 1.0, 0.05, 0.9, 1.0, 3)


@pytest.mark.parametrize("case", [_sweep_1d_case, _sweep_2d_case, _sweep_capped_case],
                         ids=["sweep-1d", "2d-6x6", "max_iter-3"])
def test_sweep_equals_reference_loop_with_final_pass(case):
    args = case()
    res = forward_backward_sweep(*args[:7], theta1=args[7], relax=args[8],
                                 max_iter=args[9])
    u, th, p, history, converged, iterations = _reference_sweep(*args)
    assert (res.iterations, res.converged) == (iterations, converged)
    assert res.converged == (case is not _sweep_capped_case)
    for got, ref in ((res.u_path, u), (res.theta_path, th), (res.adjoint_path, p)):
        assert np.array_equal(got.times, ref.times)
        assert np.array_equal(got.values, ref.values)
    assert np.array_equal(res.cost_history, history)


@pytest.mark.parametrize("case", [_sweep_1d_case, _sweep_2d_case],
                         ids=["sweep-1d", "2d-6x6"])
def test_sweep_paths_equal_the_public_marches_on_one_stepper(case, monkeypatch):
    # the sweep marches on one stepper built once; its state and adjoint
    # paths are what the public integrators give under the returned control
    from anthractl import pde_control

    theta0, grid, A, alpha, cost, T, dt, theta1, relax, max_iter = case()
    built = []
    real = pde_control._controlled_stepper
    monkeypatch.setattr(pde_control, "_controlled_stepper",
                        lambda *a: built.append(a) or real(*a))
    res = forward_backward_sweep(theta0, grid, A, alpha, cost, T, dt, theta1=theta1,
                                 relax=relax, max_iter=max_iter)
    assert len(built) == 1 and res.iterations > 1
    th = integrate_controlled(theta0, grid, A, alpha, res.u_path, theta1, T, dt)
    p = solve_adjoint_pde(th, res.u_path, cost, grid, A, T, dt, alpha, theta1)
    assert np.array_equal(res.theta_path.values, th.values)
    assert np.array_equal(res.adjoint_path.values, p.values)
    assert np.array_equal(res.adjoint_path.times, p.times)


def test_sweep_nonconvergence_is_reported_not_raised():
    grid, A = _grid_1d(n=4, A=0.01)
    alpha = np.full(4, 5.0)  # strong pressure drives near-bang oscillation
    res = forward_backward_sweep(ScalarField.constant(grid, 0.5), grid, A,
                                 alpha, PdeCostSpec(k1=0.05, k2=0.5),
                                 T=1.0, dt=0.05, theta1=0.9, relax=1.0,
                                 max_iter=3)
    assert not res.converged
    assert res.iterations == 3
    assert len(res.cost_history) == 4  # the costs of u_0, u_1, u_2 and the returned u_3
