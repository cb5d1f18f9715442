"""Finite-volume discretization and implicit time stepping for the
spatial infection-severity model.

The semi-discrete system is

    d(theta)/dt + L theta = alpha,

where L bundles the reaction term alpha/(1 - theta1*u) (or its
linearization alpha) with the negative divergence of A grad(theta) under
no-flux boundaries.  L is assembled as an M-matrix so that backward-Euler
steps preserve nonnegativity regardless of the step size.

scipy is a dependency of the PDE layer only: the functions here import the
scipy modules they use when they run, so importing anthractl for the ODE
modes loads numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .grid import DiffusionField, ScalarField, SpatialGrid, as_cell_values
from .host import DivisionGuardError, time_grid

if TYPE_CHECKING:  # names the sp.* annotations for type checkers; at run
    import scipy.sparse as sp  # time they stay strings and import nothing

__all__ = [
    "SingularOperatorError",
    "SolverBreakdownError",
    "EigenConvergenceError",
    "OperatorMatrix",
    "FieldPath",
    "BoundsReport",
    "EigenReport",
    "assemble_operator",
    "step_implicit",
    "integrate_pde",
    "solve_equilibrium",
    "verify_bounds",
    "bounds_inputs_from_initial",
    "principal_eigenvalue",
]

_LINEAR_RTOL = 1e-12      # relative residual target for the implicit solve
_CONST_FIELD_TOL = 1e-12  # spatial-constancy tolerance in verify_bounds


def _load_scipy() -> None:
    """Import every scipy module the PDE layer uses, in one fixed order.

    The CLI calls this when it parses a PDE config, before any worker thread
    starts, so concurrent first uses never race through scipy's imports.
    """
    import scipy.linalg  # noqa: F401
    import scipy.sparse  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401


def _fetch_ptsv(d, e, b):
    """LAPACK's SPD tridiagonal solver for float64, the routine scipy's
    solveh_banded calls for a two-row band.

    The first call fetches the routine and rebinds _ptsv to it, so later
    solves call LAPACK with no lookup.
    """
    global _ptsv
    from scipy.linalg import get_lapack_funcs
    _ptsv, = get_lapack_funcs(("ptsv",), (np.empty(0),))
    return _ptsv(d, e, b)


_ptsv = _fetch_ptsv


class SingularOperatorError(ValueError):
    """Equilibrium solve attempted on an operator with no unique equilibrium."""


class SolverBreakdownError(RuntimeError):
    """The sparse linear solver failed to reach the requested residual."""


class EigenConvergenceError(RuntimeError):
    """Eigenvalue iteration failed to converge within the iteration budget."""


# --------------------------------------------------------------------------
# operator assembly
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorMatrix:
    """Sparse cell-coupling operator L with assembly metadata.

    matrix            -- CSR matrix, shape (n_cells, n_cells)
    includes_reaction -- True when a reaction diagonal was added
    reaction          -- "full" or "linearized" (the mode it was built with)
    """

    matrix: sp.csr_matrix = field(repr=False)
    includes_reaction: bool
    reaction: str

    @property
    def n_cells(self) -> int:
        return int(self.matrix.shape[0])

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def symmetry_defect(self) -> float:
        """Max |L - L^T| entry; 0 for constant-coefficient assemblies."""
        d = (self.matrix - self.matrix.T).tocoo()
        return float(np.max(np.abs(d.data))) if d.nnz else 0.0

    def m_matrix_report(self) -> dict:
        """Off-diagonal max and diagonal min of L (M-matrix structure check)."""
        coo = self.matrix.tocoo()
        off = coo.data[coo.row != coo.col]
        diag = self.matrix.diagonal()
        return {
            "offdiag_max": float(np.max(off)) if off.size else 0.0,
            "diag_min": float(np.min(diag)),
        }


def assemble_operator(grid: SpatialGrid, A: DiffusionField, alpha, u,
                      theta1: float, reaction: str = "full") -> OperatorMatrix:
    """Assemble L = reaction diagonal + discrete -div(A grad .).

    reaction "full"       -> diagonal alpha/(1 - theta1*u) per cell
    reaction "linearized" -> diagonal alpha per cell (u is ignored)

    The diffusion stencil uses two-point fluxes with the harmonic face
    diffusivities carried by A; exterior faces are simply absent, which is
    exactly the no-flux condition.  Off-diagonals are <= 0 and the diffusion
    rows sum to zero, so L is an M-matrix whenever the reaction diagonal is
    nonnegative.
    """
    import scipy.sparse as sp

    n = grid.n_cells
    alpha_v = as_cell_values(alpha, n)
    if reaction == "full":
        u_v = as_cell_values(u, n)
        floor = 1.0 - float(theta1) * u_v
        if np.any(floor <= 0.0):
            worst = float(np.min(floor))
            raise DivisionGuardError(
                f"control denominator 1 - theta1*u reached {worst:.3e} <= 0 during assembly")
        diag_reaction = alpha_v / floor
    elif reaction == "linearized":
        diag_reaction = alpha_v.copy()
    else:
        raise ValueError(f"reaction must be 'full' or 'linearized', got {reaction!r}")

    li = grid.face_left
    ri = grid.face_right
    # transmissibility per face: diffusivity * area / center distance, scaled
    # by the cell volume so L acts on cell-average values
    dist = np.asarray(grid.spacing, dtype=float)[grid.face_axis]
    trans = A.face_diffusivity * grid.face_area / dist / grid.cell_volume

    rows = np.concatenate([li, ri, li, ri, np.arange(n)])
    cols = np.concatenate([ri, li, li, ri, np.arange(n)])
    vals = np.concatenate([-trans, -trans, trans, trans, diag_reaction])
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    mat.sum_duplicates()

    op = OperatorMatrix(matrix=mat, includes_reaction=bool(np.any(diag_reaction != 0.0)),
                        reaction=reaction)
    rep = op.m_matrix_report()
    if rep["offdiag_max"] > 0.0:
        raise AssertionError("assembly produced a positive off-diagonal entry")
    return op


# --------------------------------------------------------------------------
# implicit stepping
# --------------------------------------------------------------------------

def _solve_checked(M: sp.spmatrix, rhs: np.ndarray, x0=None) -> np.ndarray:
    """Solve M x = rhs to relative residual 1e-12, CG first then direct."""
    import scipy.sparse.linalg as spla

    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    x, _info = spla.cg(M, rhs, x0=x0, rtol=_LINEAR_RTOL, atol=0.0,
                       maxiter=10 * max(64, M.shape[0]))
    if np.linalg.norm(M @ x - rhs) <= _LINEAR_RTOL * rhs_norm:
        return x
    # a singular M gives a NaN residual, which "not res <= tol" counts as failed
    x = spla.spsolve(M.tocsc(), rhs)
    res = float(np.linalg.norm(M @ x - rhs))
    if not res <= _LINEAR_RTOL * rhs_norm:
        # one step of iterative refinement before giving up
        x = x + spla.spsolve(M.tocsc(), rhs - M @ x)
        res = float(np.linalg.norm(M @ x - rhs))
        if not res <= _LINEAR_RTOL * rhs_norm:
            raise SolverBreakdownError(
                f"implicit solve stalled at relative residual {res / rhs_norm:.3e}")
    return x


class _FixedStencilStepper:
    """Backward-Euler solves of (I + h*(D + diag(r))) x = rhs for a fixed
    stencil D and a reaction diagonal r that changes from step to step.

    I + h*D is assembled once; a solve through the CSR matrix first writes
    1 + h*(D_ii + r_i) into its recorded diagonal slots in place, so the
    matrix equals the one a per-step rebuild would produce.  A tridiagonal
    stencil (1-D, two or more cells) is solved directly with LAPACK ptsv as
    an SPD tridiagonal system; any wider stencil (2-D) runs warm-started
    CG.  Every solve is residual-checked to 1e-12, and a failed check or a
    failed tridiagonal factorization falls back to _solve_checked on the
    same matrix.
    """

    def __init__(self, D: sp.spmatrix, h: float):
        import scipy.sparse as sp

        n = D.shape[0]
        M = (sp.identity(n, format="csr") + h * D).tocsr()
        M.sort_indices()
        rows = np.repeat(np.arange(n), np.diff(M.indptr))
        self._diag_pos = np.flatnonzero(M.indices == rows)  # one per row: I adds it
        self._M = M
        self._h = float(h)
        self._D_diag = D.diagonal()
        bandwidth = int(np.max(np.abs(M.indices - rows)))
        self._offdiag = M.diagonal(1) if n > 1 and bandwidth <= 1 else None

    def _solve_csr(self, diag: np.ndarray, rhs: np.ndarray, x0: np.ndarray) -> np.ndarray:
        self._M.data[self._diag_pos] = diag
        return _solve_checked(self._M, rhs, x0=x0)

    def solve(self, r: np.ndarray, rhs: np.ndarray, x0: np.ndarray) -> np.ndarray:
        """Solve (I + h*(D + diag(r))) x = rhs; x0 warm-starts CG."""
        diag = 1.0 + self._h * (self._D_diag + r)
        e = self._offdiag
        if e is None:
            return self._solve_csr(diag, rhs, x0)
        _, _, x, info = _ptsv(diag, e, rhs)
        if info != 0:
            return self._solve_csr(diag, rhs, x0)
        res = diag * x
        res[:-1] += e * x[1:]
        res[1:] += e * x[:-1]
        if not _norm(res - rhs) <= _LINEAR_RTOL * _norm(rhs):
            return self._solve_csr(diag, rhs, x0)
        return x


def _stored_steps(n_steps: int, store_every: int) -> list:
    """The step indices a march stores: every store_every-th from 0, and
    the last step."""
    stored = list(range(0, n_steps + 1, store_every))
    if stored[-1] != n_steps:
        stored.append(n_steps)
    return stored


def _norm(d: np.ndarray) -> float:
    """The 2-norm of a 1-D float array, as np.linalg.norm computes it."""
    return math.sqrt(d.dot(d))


def step_implicit(theta: ScalarField, L: OperatorMatrix, alpha, dt: float) -> ScalarField:
    """One backward-Euler step: solve (I + dt*L) theta' = theta + dt*alpha."""
    import scipy.sparse as sp

    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = L.n_cells
    th = as_cell_values(theta, n)
    al = as_cell_values(alpha, n)
    M = (sp.identity(n, format="csr") + dt * L.matrix).tocsr()
    rhs = th + dt * al
    return ScalarField(_solve_checked(M, rhs, x0=th))


@dataclass(frozen=True)
class FieldPath:
    """Sampled field trajectory: times (n_t,), values (n_t, n_cells)."""

    times: np.ndarray
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.ndim != 2 or v.shape[0] != t.shape[0]:
            raise ValueError(f"inconsistent path shapes {t.shape} / {v.shape}")
        if t.shape[0] > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("path times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def n_times(self) -> int:
        return int(self.times.shape[0])

    def final(self) -> ScalarField:
        return ScalarField(self.values[-1])


def integrate_pde(theta0: ScalarField, L: OperatorMatrix, alpha, T: float,
                  dt: float, store_every: int = 1) -> FieldPath:
    """March theta0 to time T with backward-Euler steps on time_grid(0, T, dt).

    The step matrix is factorized once (the operator is constant in time)
    and every solve is residual-checked against the same 1e-12 target as
    step_implicit.  store_every > 1 thins the stored path; the final state
    is always stored.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    if T < 0.0:
        raise ValueError(f"T must be nonnegative, got {T}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if store_every < 1:
        raise ValueError(f"store_every must be >= 1, got {store_every}")
    n = L.n_cells
    th = as_cell_values(theta0, n).copy()
    if np.any(th < 0.0):
        raise ValueError("theta0 must be nonnegative")
    al = as_cell_values(alpha, n)

    if T == 0.0:
        return FieldPath(np.zeros(1), th[None, :])

    n_steps, h, times = time_grid(0.0, T, dt)
    M = (sp.identity(n, format="csc") + h * L.matrix).tocsc()
    try:
        lu = spla.splu(M)
    except RuntimeError as exc:  # a singular (say, overflowed) step matrix
        raise SolverBreakdownError(f"step matrix factorization failed: {exc}") from None
    stored = _stored_steps(n_steps, store_every)
    states = np.empty((len(stored), n))
    states[0] = th
    row = 1
    for k in range(1, n_steps + 1):
        rhs = th + h * al
        x = lu.solve(rhs)
        rhs_norm = _norm(rhs)
        if rhs_norm > 0.0 and _norm(M @ x - rhs) > _LINEAR_RTOL * rhs_norm:
            x = _solve_checked(M, rhs, x0=x)
        th = x
        if k == stored[row]:
            states[row] = th
            row += 1
    return FieldPath(times[stored], states)


# --------------------------------------------------------------------------
# equilibrium
# --------------------------------------------------------------------------

def solve_equilibrium(L: OperatorMatrix, alpha) -> ScalarField:
    """Solve L theta* = alpha for the unique steady state.

    Requires an operator that includes the reaction term with alpha not
    identically zero; otherwise the pure-Neumann kernel (constants) makes
    the system singular.
    """
    import scipy.sparse.linalg as spla

    n = L.n_cells
    al = as_cell_values(alpha, n)
    if not L.includes_reaction or not np.any(al != 0.0):
        raise SingularOperatorError(
            "equilibrium requires a reaction term with alpha not identically zero")
    A = L.matrix.tocsc()
    x = spla.spsolve(A, al)
    # one iterative-refinement pass keeps the residual near machine precision
    x = x + spla.spsolve(A, al - L.matrix @ x)
    res = float(np.linalg.norm(L.matrix @ x - al))
    if not np.all(np.isfinite(x)) or res > 1e-10 * max(1.0, float(np.linalg.norm(al))):
        raise SingularOperatorError(
            f"equilibrium solve did not converge (residual {res:.3e})")
    return ScalarField(x)


# --------------------------------------------------------------------------
# bound verification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsReport:
    """Worst-case slacks of the exponential lower bound and the cap M.

    lower bound: m <= exp(t*rho*alpha) * theta(t, x) for all stored (t, x)
    upper bound: theta(t, x) <= M

    Slacks are minima of (bound expression - requirement); negative slack
    beyond tolerance means the corresponding inequality failed.
    """

    m: float
    M: float
    rho: float
    worst_lower_slack: float
    worst_upper_slack: float

    def satisfied(self, tol: float = 1e-8) -> bool:
        return self.worst_lower_slack >= -tol and self.worst_upper_slack >= -tol


def _constant_value(values, n: int, name: str) -> float:
    v = as_cell_values(values, n)
    spread = float(np.max(v) - np.min(v)) if v.size else 0.0
    scale = max(1.0, float(np.max(np.abs(v))) if v.size else 0.0)
    if spread > _CONST_FIELD_TOL * scale:
        raise ValueError(f"{name} must be spatially constant for the bound check "
                         f"(spread {spread:.3e})")
    return float(v[0])


def bounds_inputs_from_initial(theta0, u, theta1: float, n_cells: int):
    """Standard (m, M, rho) for verify_bounds from the initial data.

    m = inf theta0, M = max(sup theta0, sup(1 - theta1*u)),
    rho = 1/(1 - theta1*u) cellwise.
    """
    th0 = as_cell_values(theta0, n_cells)
    u_v = as_cell_values(u, n_cells)
    floor = 1.0 - float(theta1) * u_v
    if np.any(floor <= 0.0):
        raise DivisionGuardError("1 - theta1*u must stay positive for the bound inputs")
    m = float(np.min(th0))
    M = float(max(np.max(th0), np.max(floor)))
    rho = ScalarField(1.0 / floor)
    return m, M, rho


def verify_bounds(path: FieldPath, rho, alpha, m: float, M: float) -> BoundsReport:
    """Check the exponential lower bound and the cap M along a stored path.

    Both rho and alpha must be spatially constant (the regime in which the
    bounds are exact); spatially varying inputs are rejected.
    """
    n = path.values.shape[1]
    rho_c = _constant_value(rho, n, "rho")
    alpha_c = _constant_value(alpha, n, "alpha")

    growth = np.exp(path.times * rho_c * alpha_c)  # (n_t,)
    lower = growth[:, None] * path.values - m      # must be >= 0
    upper = M - path.values                        # must be >= 0
    return BoundsReport(
        m=float(m),
        M=float(M),
        rho=rho_c,
        worst_lower_slack=float(np.min(lower)),
        worst_upper_slack=float(np.min(upper)),
    )


# --------------------------------------------------------------------------
# principal eigenvalue
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenReport:
    """Smallest-eigenvalue estimate of a symmetric operator.

    value      -- the eigenvalue estimate
    stable     -- True iff value > residual, i.e. the estimate is positive
                  beyond its own error bar (for a symmetric operator a true
                  eigenvalue lies within the residual of the estimate), so
                  perturbations provably decay under d(theta)/dt = -L theta
    iterations -- inverse-power iterations used
    residual   -- final ||L x - value x||_2 with ||x||_2 = 1
    """

    value: float
    stable: bool
    iterations: int
    residual: float


def principal_eigenvalue(L: OperatorMatrix, exclude_constant: bool = False,
                         tol: float = 1e-8, max_iter: int = 10000) -> EigenReport:
    """Smallest eigenvalue of symmetric L by shifted inverse power iteration.

    The iteration runs on (L + shift*I)^{-1} with a small positive shift, so
    eigenvalues near zero (the interesting, stability-deciding ones) converge
    in a handful of iterations.  With exclude_constant=True the constant
    vector is projected out each iteration, giving the smallest eigenvalue on
    the complement of the constant mode; this requires constants to actually
    be an eigenvector (zero row sums plus a constant diagonal).
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    A = L.matrix
    n = A.shape[0]
    defect = L.symmetry_defect()
    scale = max(1.0, float(np.max(np.abs(A.diagonal()))))
    if defect > 1e-10 * scale:
        raise ValueError(f"principal_eigenvalue requires a symmetric operator "
                         f"(asymmetry {defect:.3e})")
    if n == 1:
        lam = float(A.diagonal()[0])
        return EigenReport(value=lam, stable=lam > 0.0, iterations=0, residual=0.0)

    ones = np.full(n, 1.0 / np.sqrt(n))
    if exclude_constant:
        drift = float(np.linalg.norm(A @ ones - (ones @ (A @ ones)) * ones))
        if drift > 1e-8 * scale:
            raise ValueError("exclude_constant requires the constant vector to be "
                             f"an eigenvector (residual {drift:.3e})")

    # Small positive shift keeps L + shift*I invertible even when 0 is an
    # eigenvalue (pure Neumann diffusion); it cancels out of the estimate.
    shift = 1e-3 * scale
    M = (A + shift * sp.identity(n, format="csr")).tocsc()
    lu = spla.splu(M)

    # deterministic start vector with components on every low mode; it holds
    # 1.5 and -0.5 (n >= 2), so neither it nor its projection off 1 is zero
    x = np.cos(np.linspace(0.0, np.pi, n)) + 0.5
    if exclude_constant:
        x -= (x @ ones) * ones
    x /= np.linalg.norm(x)

    lam = float(x @ (A @ x))
    iters = 0
    for iters in range(1, max_iter + 1):
        y = lu.solve(x)
        if exclude_constant:
            y -= (y @ ones) * ones
        ny = np.linalg.norm(y)
        if not np.isfinite(ny) or ny == 0.0:
            raise EigenConvergenceError("inverse iteration produced a degenerate vector")
        x = y / ny
        Ax = A @ x
        lam = float(x @ Ax)
        res = float(np.linalg.norm(Ax - lam * x))
        if res <= tol * max(1.0, abs(lam)):
            return EigenReport(value=lam, stable=lam > res, iterations=iters, residual=res)
    raise EigenConvergenceError(
        f"eigenvalue iteration did not reach tol={tol:g} in {max_iter} iterations "
        f"(last residual {res:.3e})")
