"""Time the integration kernels and check the solver layers built on them.

Run from the repository root:

    python3 benchmarks/bench_kernels.py [--steps N] [--batch M] [--repeats R]
                                        [--json PATH]

The kernel lane times the three public kernels (host_rk4_single,
host_rk4_batch and coupled_rk4), best of --repeats, in this process.

The feedback_root lane times the feedback law with the warm-started root
(_u_warm) against the same law with the plain bisection it must reproduce
bit for bit (_u_bisect) on the same _FEEDBACK_DRAWS seeded draws, and counts
the draws where the two differ; that count must be 0.  It times the array
roots the sweep takes, the warm-started _feedback_roots against
_bisect_roots, on the cubics of the same draws, and counts the entries whose
bits differ; that count must be 0 too.  It also evaluates the
sweep's pointwise feedback (_stationarity_feedback, on arrays) on the whole
(theta, p) path sweep-1d returns, and counts the samples where it differs
from optimal_u_feedback at that sample; that count must be 0 too.

The coupled lane replays the coupled_rk4 calls of fig1's single-stage
shooting solve (the fine-grid secant seeded with p0 in {0, 1}; one call per
evaluation, each on the alpha table the grid built once).
It reports the kernel's time and feedback roots per step, the roots per step
without the kernel's one-entry root memo, and counts the output values
(theta, p, u and the event counters) that differ from a run with the root
bisected from [1, 3/2]; that count must be 0.

The implicit_step lane times _IMPLICIT_STEPS controlled backward-Euler steps
on a 64-cell 1-D grid and a 40x40 2-D grid two ways: rebuilding the CSR step
matrix and running CG every step, and the fixed-stencil stepper the PDE
control layer uses.  It reports the largest deviation between the two paths,
which must stay within 1e-10.  It also times _CONSTANT_STEPS-step marches of a
constant operator on a 64-cell and a 32x32 grid two ways: integrate_pde,
which runs one factorization through pde._factorized_solve, and its
earlier algorithm written out here (a CSC splu of I + h*L, the residual
check and the _solve_checked fallback).  It reports us per step and counts
the state values where the two differ; that count must be 0.

The host lane times host_rk4_single, in us per step over _HOST_STEPS steps,
on the arguments integrate_ode hands it for seasonal, constant and
proportional alpha, each under a constant and a sampled control.  It also
integrates each case through the generic per-step loop (the rates hidden
behind lambdas, the same control) and counts the trajectory values where
the two differ; that count must be 0.

The host_staged lane integrates a _STAGED_STEPS-step forecast for each
severity model two ways: through integrate_ode, where the severity forcing
reaches host_rk4_single as stage-sampled alpha, and through the generic
per-step loop (the forcing hidden behind a lambda).  It counts the trajectory
values where the two differ; that count must be 0.

The riccati_lanes lane rolls out a riccati-pde scenario's linearized
dynamics on _RICCATI_CELLS-cell grids two ways: as three separate RK4 loops
(closed_loop_linearized, then integrate_linearized under u=0 and u=1), and
as the three lanes of one loop (_closed_loop_lanes) that the CLI runs.  It
counts the state and control values where the two differ; that count must
be 0.

The shooting lane solves fig1, fig3 and the ode_shooting draws of the
benchmark seeds _SHOOTING_SEEDS (perfbench/scenarios.py) two ways: with
shoot_p0's two-stage secant, and with the single-stage secant seeded with
p0 in {0, 1} on the fine grid alone.  Per solve it reports the fine and
coarse evaluations, the wall time of each way (best of --repeats) and the
relative change of the controlled cost J.  The two ways must fail on the
same solves, and J may move by at most _SHOOTING_MAX_REL_DJ.

The sweep lane runs forward_backward_sweep on sweep-1d and on the sweep
draw of pde_sweep benchmark seed _SWEEP_SEED (perfbench/scenarios.py).  Per
sweep it reports the iterations, whether the sweep converged, the time per
iteration (best of --repeats), the number of _controlled_reaction calls,
the reaction-diagonal evaluations of its forward and adjoint marches, and
the number of backward-Euler steppers it builds (one per sweep).

The cold_start lane runs `python -m anthractl run <name>` for every bundled
scenario in --repeats fresh processes and reports the median wall time,
start-up included.  One more run under `python -X importtime` counts the
scipy modules the scenario loaded.  scipy belongs to the PDE layer only, so
the lane counts the ODE-mode scenarios that loaded any; that count must be 0.

--json PATH also writes every result, with the environment, as JSON.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import anthractl
from anthractl import (
    AsiCoefficients,
    ConstantForcing,
    ControlSignal,
    DoddCoefficients,
    DuthieCoefficients,
    GridSpec,
    HostState,
    LinearizationPoint,
    ModelParams,
    PdeCostSpec,
    ProportionalForcing,
    SeasonalForcing,
    SeverityForcing,
    WeatherSeries,
    assemble_operator,
    build_grid,
    closed_loop_linearized,
    forward_backward_sweep,
    integrate_linearized,
    integrate_ode,
    integrate_pde,
    integrate_riccati,
    linearize,
    shoot_p0,
)
from anthractl import _kernels as K
from anthractl import ode_control, pde_control
from anthractl.cli import bundled_scenarios, parse_config, resolve_config_path
from anthractl.grid import as_cell_values
from anthractl.pde import FieldPath, _FixedStencilStepper, _solve_checked
from anthractl.pde_control import _closed_loop_lanes


# ---------------------------------------------------------------------------
#  Workloads
# ---------------------------------------------------------------------------

def _single_args(n_steps: int):
    # seasonal-burst forcing, sampled control on 11 knots
    u_t = np.linspace(0.0, 1.0, 11)
    u_v = 0.3 + 0.4 * np.sin(np.pi * u_t)
    rates = ((K.FORCING_SEASONAL, 4.0, 0.75, 0.2),
             (K.FORCING_CONST, 0.5, 0.0, 0.0),
             (K.FORCING_PROPORTIONAL, 0.1, 0.0, 0.0))
    return (0.2, 0.5, 0.0, 0.0, 1.0 / n_steps, n_steps, 0.6, 1.0, 1.0,
            rates, 1.0, u_t, u_v, np.empty((0, 3)))


def _batch_args(m: int, n_steps: int):
    rng = np.random.default_rng(7)
    x0 = np.column_stack([np.full(m, 0.2),
                          rng.uniform(0.2, 0.6, m),
                          np.zeros(m)])
    scal = np.column_stack([rng.uniform(0.1, 0.8, m),      # theta1
                            np.full(m, 1.0),               # theta2
                            np.full(m, 1.0)])              # v_max
    codes = np.zeros((m, 3), dtype=np.int64)
    codes[:, 0] = np.where(rng.random(m) < 0.5,
                           K.FORCING_CONST, K.FORCING_SEASONAL)
    codes[:, 2] = K.FORCING_PROPORTIONAL
    q = np.zeros((m, 3, 3))
    q[:, 0, 0] = rng.uniform(0.5, 3.0, m)   # alpha amplitude
    q[:, 0, 1] = rng.uniform(0.0, 1.0, m)   # seasonal center
    q[:, 0, 2] = rng.uniform(0.2, 1.0, m)   # seasonal period
    q[:, 1, 0] = rng.uniform(0.1, 0.8, m)   # beta
    q[:, 2, 0] = rng.uniform(0.0, 0.1, m)   # gamma
    eta0 = np.full(m, 1.0)
    u_t = np.linspace(0.0, 1.0, 11)
    u_vals = rng.uniform(0.0, 1.0, (m, 11))
    return (x0, 0.0, 1.0 / n_steps, n_steps, scal, codes, q, eta0, u_t, u_vals)


def _coupled_args(n_steps: int):
    h = 1.0 / n_steps
    forcing = K._time_rate(K.FORCING_SEASONAL, 4.0, 0.75, 0.2)
    return (0.2, 0.76, 0.0, h, n_steps, 0.6, 1.0, forcing,
            K._stage_table(forcing, 0.0, h, n_steps))


def _workloads(args):
    return [
        ("host_rk4_single", K.host_rk4_single,
         _single_args(args.steps), f"{args.steps} steps"),
        ("host_rk4_batch", K.host_rk4_batch,
         _batch_args(args.batch, args.batch_steps),
         f"{args.batch} scenarios x {args.batch_steps} steps"),
        ("coupled_rk4", K.coupled_rk4,
         _coupled_args(args.steps), f"{args.steps} steps, event location"),
    ]


#: Seeded draws in the feedback_root lane.
_FEEDBACK_DRAWS = 10_000


def _feedback_draws(n: int):
    """(alpha, theta, p, theta1, k) draws below the saturation threshold.

    c3/k = alpha*theta1^2*theta*p/k is uniform on (0, 8/27), except that
    every eighth draw sits within 1e-6 (relative) of the threshold, where the
    double root sends the warm start to its fallback, and every eighth is
    below 1e-5, where cancellation in Viete's form can do the same.
    """
    rng = np.random.default_rng(11)
    ratio = rng.uniform(0.0, 8.0 / 27.0, n)
    ratio[1::8] = 8.0 / 27.0 * (1.0 - 10.0 ** rng.uniform(-15.0, -6.0, ratio[1::8].size))
    ratio[2::8] = 10.0 ** rng.uniform(-15.0, -5.0, ratio[2::8].size)
    k = rng.uniform(0.1, 10.0, n)
    theta1 = rng.uniform(0.05, 0.95, n)
    theta = rng.uniform(0.05, 1.0, n)
    p = rng.uniform(0.05, 2.0, n)
    alpha = ratio * k / (theta1 * theta1 * theta * p)
    return [tuple(float(v) for v in row)
            for row in zip(alpha, theta, p, theta1, k)]


def _u_warm(alpha_t, theta, p, theta1, k):
    """The feedback law at (alpha, theta, p), with the warm-started root."""
    return K._u_law(alpha_t * theta1 * theta1 * theta * p, theta1, k, K._feedback_root)


def _u_bisect(alpha_t, theta, p, theta1, k):
    """_u_warm with the root bisected from [1, 3/2]: the reference."""
    return K._u_law(alpha_t * theta1 * theta1 * theta * p, theta1, k, K._bisect_root)


def _sweep_law_mismatches():
    """(samples, mismatches) of the sweep's pointwise feedback on sweep-1d's
    returned (theta, p) path against optimal_u_feedback per sample."""
    plan = parse_config(resolve_config_path("sweep-1d")).plan
    relax, max_iter = plan.sweep
    res = forward_backward_sweep(plan.theta0, plan.grid, plan.A, plan.alpha, plan.cost,
                                 plan.T, plan.h, theta1=plan.theta1, relax=relax,
                                 max_iter=max_iter)
    n = plan.grid.n_cells
    al = as_cell_values(plan.alpha, n)
    k1 = plan.cost.k1_values(n)
    th, p = res.theta_path.values, res.adjoint_path.values
    u = pde_control._stationarity_feedback(al, th, p, plan.theta1, k1)
    mismatches = sum(
        u[j, c] != ode_control.optimal_u_feedback(float(al[c]), float(th[j, c]),
                                                  float(p[j, c]), plan.theta1,
                                                  float(k1[c]))
        for j, c in np.ndindex(u.shape))
    return u.size, int(mismatches)


def _feedback_root_lane(repeats: int):
    n_draws = _FEEDBACK_DRAWS
    draws = _feedback_draws(n_draws)

    def run(fn):
        return [fn(*d) for d in draws]

    warm = _best_of(run, (_u_warm,), repeats)
    bisect = _best_of(run, (_u_bisect,), repeats)
    mismatches = sum(a != b for a, b in zip(run(_u_warm), run(_u_bisect)))
    alpha, theta, p, theta1, k = (np.array(col) for col in zip(*draws))
    c3 = alpha * theta1 * theta1 * theta * p
    array_warm = _best_of(K._feedback_roots, (c3, k), repeats)
    array_bisect = _best_of(K._bisect_roots, (c3, k), repeats)
    array_mismatches = np.count_nonzero(K._feedback_roots(c3, k).view(np.int64)
                                        != K._bisect_roots(c3, k).view(np.int64))
    sweep_samples, sweep_mismatches = _sweep_law_mismatches()
    return {"draws": n_draws,
            "warm_s": warm,
            "bisect_s": bisect,
            "warm_us_per_call": warm / n_draws * 1e6,
            "bisect_us_per_call": bisect / n_draws * 1e6,
            "speedup": bisect / warm,
            "mismatches": int(mismatches),
            "array_warm_ms": array_warm * 1e3,
            "array_bisect_ms": array_bisect * 1e3,
            "array_mismatches": int(array_mismatches),
            "sweep_samples": sweep_samples,
            "sweep_mismatches": sweep_mismatches}


@contextlib.contextmanager
def _swapped(name: str, replacement, module=K):
    """Replace the global `name` of `module` (_kernels by default) while the
    block runs."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield original
    finally:
        setattr(module, name, original)


def _fig1_shooting_calls():
    """The coupled_rk4 argument tuples of fig1's single-stage shooting
    evaluations."""
    plan = parse_config(resolve_config_path("fig1")).plan
    calls = []

    def record(*args):
        calls.append(args)
        return kernel(*args)

    with _swapped("coupled_rk4", record) as kernel:
        _single_stage(plan)
    return calls


def _coupled_lane(repeats: int):
    calls = _fig1_shooting_calls()
    steps = sum(args[4] for args in calls)

    def run():
        return [K.coupled_rk4(*args) for args in calls]

    def roots_per_step():
        count = [0]

        def counted(c3, k):
            count[0] += 1
            return root(c3, k)

        with _swapped("_feedback_root", counted) as root:
            out = run()
        return out, count[0] / steps

    seconds = _best_of(run, (), repeats)
    out, roots = roots_per_step()
    # the same kernel with a fresh root at every stage and node
    with _swapped("_interior_law", lambda theta1, k: (
            lambda c3: K._u_law(c3, theta1, k, K._feedback_root))):
        _, memo_free_roots = roots_per_step()
    with _swapped("_feedback_root", K._bisect_root):
        reference = run()
    mismatches = 0
    for got, ref in zip(out, reference):
        mismatches += sum(int(np.sum(a.view(np.int64) != b.view(np.int64)))
                          for a, b in zip(got[:3], ref[:3]))
        mismatches += sum(a != b for a, b in zip(got[3], ref[3]))
    return {"evaluations": len(calls),
            "steps": steps,
            "us_per_step": seconds / steps * 1e6,
            "roots_per_step": roots,
            "memo_free_roots_per_step": memo_free_roots,
            "switch_events": sum(o[3][0] for o in out),
            "mismatches": int(mismatches)}


#: The largest relative change of the controlled cost the shooting lane allows.
_SHOOTING_MAX_REL_DJ = 1e-9
#: The benchmark seeds whose ode_shooting draws the shooting lane solves: all
#: of 211's converge, and 914's ode-07 fails both ways.
_SHOOTING_SEEDS = (211, 914)


def _shooting_plans():
    """(name, plan) of fig1, fig3 and the ode_shooting draws of _SHOOTING_SEEDS."""
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench.scenarios import variants

    plans = [(name, parse_config(resolve_config_path(name)).plan)
             for name in ("fig1", "fig3")]
    with tempfile.TemporaryDirectory() as tmp:
        for seed in _SHOOTING_SEEDS:
            for cfg in variants("ode_shooting", seed):
                path = os.path.join(tmp, f"{seed}-{cfg['name']}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(dict(cfg, seed=seed), fh)
                plans.append((f"{seed}/{cfg['name']}", parse_config(path).plan))
    return plans


def _single_stage(plan):
    """The fine-grid secant seeded with p0 in {0, 1}: (cost or None, evaluations)."""
    tol, max_iter = plan.shooting
    times, grid = ode_control._coupled_setup(plan.params, plan.cost, plan.T, plan.h, 0.0)
    found, _, _, out, evaluations, _ = ode_control._secant(
        ode_control._residual(plan.x0.theta, plan.cost, grid, []), 0.0,
        math.nan, tol, max_iter)
    if not found:
        return None, evaluations
    th, _, u = ode_control._coupled_paths(times, out[0], out[1], out[2])
    return ode_control.eval_cost_JT(u, th, plan.cost, grid[1]), evaluations


def _two_stage(plan):
    """shoot_p0: (cost or None, {grid steps: kernel calls})."""
    tol, max_iter = plan.shooting
    calls = {}

    def counted(*args):
        calls[args[4]] = calls.get(args[4], 0) + 1
        return kernel(*args)

    with _swapped("coupled_rk4", counted) as kernel:
        try:
            cost = shoot_p0(plan.x0.theta, plan.params, plan.cost, T=plan.T,
                            dt=plan.h, tol=tol, max_iter=max_iter).cost
        except ode_control.ShootingError:
            cost = None
    return cost, calls


def _shooting_lane(repeats: int):
    lane = {}
    for name, plan in _shooting_plans():
        cost, calls = _two_stage(plan)
        single_cost, single_evaluations = _single_stage(plan)
        n = round(plan.T / plan.h)
        lane[name] = {
            "fine_evaluations": calls.get(n, 0),
            "coarse_evaluations": sum(c for steps, c in calls.items() if steps != n),
            "single_stage_evaluations": single_evaluations,
            "two_stage_s": _best_of(_two_stage, (plan,), repeats),
            "single_stage_s": _best_of(_single_stage, (plan,), repeats),
            "converged": cost is not None,
            "single_stage_converged": single_cost is not None,
            "rel_dJ": (cost - single_cost) / abs(single_cost)
                      if cost is not None and single_cost is not None else None}
    return lane


#: The pde_sweep benchmark seed whose sweep draw the sweep lane runs: a 44-cell
#: 1-D draw that stops on max_iter.
_SWEEP_SEED = 104


def _sweep_plans():
    """(name, plan) of sweep-1d and the pde_sweep sweep draw of _SWEEP_SEED."""
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench.scenarios import sweep_variant

    plans = [("sweep-1d", parse_config(resolve_config_path("sweep-1d")).plan)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep-draw.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(sweep_variant(_SWEEP_SEED), seed=_SWEEP_SEED), fh)
        plans.append((f"{_SWEEP_SEED}/sweep-draw", parse_config(path).plan))
    return plans


def _sweep_lane(repeats: int):
    lane = {}
    for name, plan in _sweep_plans():
        relax, max_iter = plan.sweep

        def run():
            return forward_backward_sweep(plan.theta0, plan.grid, plan.A, plan.alpha,
                                          plan.cost, plan.T, plan.h, theta1=plan.theta1,
                                          relax=relax, max_iter=max_iter)

        calls = {"_controlled_reaction": 0, "_controlled_stepper": 0}

        def counting(name):
            real = getattr(pde_control, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)
            return counted

        with _swapped("_controlled_reaction", counting("_controlled_reaction"),
                      pde_control), \
                _swapped("_controlled_stepper", counting("_controlled_stepper"),
                         pde_control):
            res = run()
        seconds = _best_of(run, (), repeats)
        lane[name] = {"cells": plan.grid.n_cells,
                      "iterations": res.iterations,
                      "converged": bool(res.converged),
                      "ms_per_iteration": seconds / res.iterations * 1e3,
                      "reaction_calls": calls["_controlled_reaction"],
                      "stepper_builds": calls["_controlled_stepper"]}
    return lane


#: Grids, steps per timed run and deviation bound of the implicit_step lane.
_IMPLICIT_GRIDS = ((64,), (40, 40))
_IMPLICIT_STEPS = 100
_IMPLICIT_MAX_DEVIATION = 1e-10

#: Grids and steps of the implicit_step lane's constant-operator marches.
_CONSTANT_GRIDS = ((64,), (32, 32))
_CONSTANT_STEPS = 200


def _splu_march(th, L, al, h, n_steps):
    """The states of integrate_pde's earlier march: one CSC splu of I + h*L,
    each solve residual-checked with the _solve_checked fallback."""
    M = (sp.identity(L.n_cells, format="csc") + h * L.matrix).tocsc()
    lu = splu(M)
    states = [th]
    for _ in range(n_steps):
        rhs = th + h * al
        x = lu.solve(rhs)
        rhs_norm = np.linalg.norm(rhs)
        if rhs_norm > 0.0 and np.linalg.norm(M @ x - rhs) > 1e-12 * rhs_norm:
            x = _solve_checked(M, rhs, x0=x)
        th = x
        states.append(th)
    return np.array(states)


def _implicit_step_lane(repeats: int):
    h = 0.01
    lane = {}
    for resolution in _IMPLICIT_GRIDS:
        grid, A = build_grid(GridSpec((1.0,) * len(resolution), resolution), A_spec=0.02)
        D = assemble_operator(grid, A, alpha=0.0, u=0.0, theta1=0.5).matrix
        n = grid.n_cells
        rng = np.random.default_rng(5)
        reactions = rng.uniform(0.5, 4.0, (_IMPLICIT_STEPS, n))
        source = h * rng.uniform(0.0, 2.0, n)
        x_start = rng.uniform(0.1, 1.0, n)
        eye = sp.identity(n, format="csr")

        def rebuild():
            x, path = x_start, []
            for r in reactions:
                M = (eye + h * (D + sp.diags(r))).tocsr()
                x = _solve_checked(M, x + source, x0=x)
                path.append(x)
            return path

        def fixed():
            stepper = _FixedStencilStepper(D, h)
            x, path = x_start, []
            for r in reactions:
                x = stepper.solve(r, x + source, x0=x)
                path.append(x)
            return path

        t_rebuild = _best_of(rebuild, (), repeats)
        t_fixed = _best_of(fixed, (), repeats)
        deviation = max(float(np.max(np.abs(a - b)))
                        for a, b in zip(rebuild(), fixed()))
        lane["x".join(map(str, resolution))] = {
            "cells": n,
            "steps": _IMPLICIT_STEPS,
            "rebuild_us_per_step": t_rebuild / _IMPLICIT_STEPS * 1e6,
            "fixed_us_per_step": t_fixed / _IMPLICIT_STEPS * 1e6,
            "speedup": t_rebuild / t_fixed,
            "max_abs_deviation": deviation}
    for resolution in _CONSTANT_GRIDS:
        grid, A = build_grid(GridSpec((1.0,) * len(resolution), resolution), A_spec=0.02)
        n = grid.n_cells
        rng = np.random.default_rng(7)
        al = rng.uniform(0.5, 3.0, n)
        L = assemble_operator(grid, A, alpha=al, u=rng.uniform(0.0, 1.0, n), theta1=0.6)
        th0 = rng.uniform(0.0, 1.0, n)
        args = (th0, L, al, h, _CONSTANT_STEPS)
        t_ref = _best_of(_splu_march, args, repeats)
        t_integrate = _best_of(integrate_pde, (th0, L, al, _CONSTANT_STEPS * h, h), repeats)
        ref = _splu_march(*args)
        got = integrate_pde(th0, L, al, _CONSTANT_STEPS * h, h).values
        lane["constant " + "x".join(map(str, resolution))] = {
            "cells": n,
            "steps": _CONSTANT_STEPS,
            "splu_march_us_per_step": t_ref / _CONSTANT_STEPS * 1e6,
            "integrate_pde_us_per_step": t_integrate / _CONSTANT_STEPS * 1e6,
            "mismatches": int(np.sum(got.view(np.int64) != ref.view(np.int64)))}
    return lane


#: Steps of each host lane trajectory (the bundled ODE scenarios' grid).
_HOST_STEPS = 1_000


def _host_cases():
    """(name, alpha integrate_ode packs, the same alpha behind a lambda)."""
    seasonal = SeasonalForcing(a=4.0, b=0.75, c=0.2)
    return (
        ("seasonal", seasonal, lambda t, th: seasonal(t, th)),
        ("constant", ConstantForcing(2.5), lambda t, th: 2.5),
        ("proportional", ProportionalForcing(3.0), lambda t, th: 3.0 * th),
    )


def _host_lane(repeats: int):
    x0 = HostState(0.2, 0.5, 0.0)
    dt = 1.0 / _HOST_STEPS
    knots = np.linspace(0.0, 1.0, 11)
    sampled = ControlSignal(times=knots, values=0.3 + 0.4 * np.sin(np.pi * knots))
    controls = (("constant", 0.35), ("sampled", sampled))
    lane = {}
    for alpha_name, alpha, hidden_alpha in _host_cases():
        packed = ModelParams.with_default_forcings(theta1=0.6, alpha=alpha)
        hidden = ModelParams(theta1=0.6, theta2=1.0, v_max=1.0, alpha=hidden_alpha,
                             beta=lambda t, th: 0.5, gamma=lambda t, th: 0.1 * th,
                             eta=lambda t: 1.0)
        for control_name, u in controls:
            calls = []

            def record(*args):
                calls.append(args)
                return kernel(*args)

            with _swapped("host_rk4_single", record) as kernel:
                fast = integrate_ode(packed, u, x0, T=1.0, dt=dt)
            seconds = _best_of(K.host_rk4_single, calls[0], repeats)
            slow = integrate_ode(hidden, u, x0, T=1.0, dt=dt)
            mismatches = sum(int(np.sum(getattr(fast, name).view(np.int64)
                                        != getattr(slow, name).view(np.int64)))
                             for name in ("theta", "v", "v_r"))
            lane[f"{alpha_name}/{control_name}"] = {
                "steps": _HOST_STEPS,
                "us_per_step": seconds / _HOST_STEPS * 1e6,
                "mismatches": mismatches}
    return lane


#: Steps of each host_staged forecast (the bundled forecast-demo grid).
_STAGED_STEPS = 1_000

_STAGED_MODELS = (
    ("asi", AsiCoefficients(a0=0.1, a01=0.05, a10=0.01), {}),
    ("dodd", DoddCoefficients(a0=-24.0, a01=0.35, a10=0.066, a02=-0.0012,
                              a20=-0.0005, b=1.21), {"incubation": 6.0}),
    ("duthie", DuthieCoefficients(a=2.0, b=0.8, c=0.5, d=1.5, e=1.2, t_mid=20.0,
                                  g=0.3, h=2.0), {}),
)


def _host_staged_lane(repeats: int):
    rng = np.random.default_rng(13)
    weather = WeatherSeries(times=np.linspace(0.0, 1.0, 17),
                            temperature=rng.uniform(15.0, 30.0, 17),
                            wetness=rng.uniform(2.0, 24.0, 17),
                            humidity=rng.uniform(60.0, 100.0, 17))
    x0 = HostState(0.2, 0.5, 0.0)
    dt = 1.0 / _STAGED_STEPS
    lane = {}
    for model, coefficients, extra in _STAGED_MODELS:
        frc = SeverityForcing(weather, model, coefficients, scale=2.0, **extra)
        staged = ModelParams.with_default_forcings(theta1=0.6, alpha=frc)
        generic = ModelParams.with_default_forcings(
            theta1=0.6, alpha=lambda t, th, frc=frc: frc(t, th))

        def run(params):
            return integrate_ode(params, 0.2, x0, T=1.0, dt=dt)

        t_staged = _best_of(run, (staged,), repeats)
        t_generic = _best_of(run, (generic,), repeats)
        a, b = run(staged), run(generic)
        mismatches = sum(int(np.sum(getattr(a, name).view(np.int64)
                                    != getattr(b, name).view(np.int64)))
                         for name in ("theta", "v", "v_r"))
        lane[model] = {"steps": _STAGED_STEPS,
                       "staged_us_per_step": t_staged / _STAGED_STEPS * 1e6,
                       "generic_us_per_step": t_generic / _STAGED_STEPS * 1e6,
                       "speedup": t_generic / t_staged,
                       "mismatches": mismatches}
    return lane


#: Grid sizes of the riccati_lanes rollouts (a pde_sweep riccati draw spans 1-64).
_RICCATI_CELLS = (16, 64)
_RICCATI_T, _RICCATI_DT = 1.0, 0.005


def _riccati_lanes_lane(repeats: int):
    lane = {}
    for cells in _RICCATI_CELLS:
        grid, A = build_grid(GridSpec((1.0,), (cells,)), A_spec=0.02)
        eps, cost, theta1 = LinearizationPoint(4.0), PdeCostSpec(k1=0.5, k2=0.5), 0.5
        L1, b = linearize(1.0, eps, theta1, grid, A)
        P_path = integrate_riccati(L1, b, cost, T=_RICCATI_T, dt=_RICCATI_DT)
        args = (0.3, L1, b, P_path, cost, eps, theta1, 1.0, _RICCATI_T, _RICCATI_DT)

        def separate():
            theta, u = closed_loop_linearized(*args)
            rest = [integrate_linearized(
                        0.3, L1, b, FieldPath(theta.times, np.full(theta.values.shape, c)),
                        1.0, _RICCATI_T, _RICCATI_DT) for c in (0.0, 1.0)]
            return [theta.values, u.values] + [th.values for th in rest]

        def lanes():
            theta, u, _, rest = _closed_loop_lanes(*args, constants=(0.0, 1.0))
            return [theta.values, u.values] + [th.values for th in rest]

        t_separate = _best_of(separate, (), repeats)
        t_lanes = _best_of(lanes, (), repeats)
        steps = separate()[0].shape[0] - 1
        mismatches = sum(int(np.sum(a.view(np.int64) != b.view(np.int64)))
                         for a, b in zip(separate(), lanes()))
        lane[str(cells)] = {"cells": cells, "steps": steps,
                            "separate_us_per_step": t_separate / steps * 1e6,
                            "lanes_us_per_step": t_lanes / steps * 1e6,
                            "speedup": t_separate / t_lanes,
                            "mismatches": mismatches}
    return lane


def _cold_start_lane(repeats: int):
    src = os.path.dirname(os.path.dirname(os.path.abspath(anthractl.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    results = {}
    with tempfile.TemporaryDirectory() as out:
        for name, path in bundled_scenarios().items():
            mode = parse_config(path).mode
            cmd = ["-m", "anthractl", "run", name, "--out", out]
            walls = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, *cmd], env=env, check=True,
                               stdout=subprocess.DEVNULL)
                walls.append(time.perf_counter() - t0)
            # -X importtime writes one stderr line per module imported
            probe = subprocess.run([sys.executable, "-X", "importtime", *cmd], env=env,
                                   check=True, stdout=subprocess.DEVNULL,
                                   stderr=subprocess.PIPE, text=True)
            modules = [line.rsplit("|", 1)[-1].strip() for line in probe.stderr.splitlines()]
            results[name] = {"mode": mode, "runs": repeats,
                             "wall_s": statistics.median(walls),
                             "scipy_modules": sum(m.split(".")[0] == "scipy"
                                                  for m in modules)}
    return results


# ---------------------------------------------------------------------------
#  Timing
# ---------------------------------------------------------------------------

def _best_of(fn, call_args, repeats: int) -> float:
    fn(*call_args)  # warmup: allocator and cache effects off the clock
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*call_args)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=20_000,
                    help="time steps per trajectory (default 20000)")
    ap.add_argument("--batch", type=int, default=256,
                    help="scenarios in the batched sweep (default 256)")
    ap.add_argument("--batch-steps", type=int, default=1_000,
                    help="time steps in the batched sweep (default 1000)")
    ap.add_argument("--repeats", type=int, default=5,
                    help="timing repeats, best-of (default 5)")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="also write the results as JSON to PATH")
    args = ap.parse_args()

    kernels = _workloads(args)
    times = {name: _best_of(fn, call_args, args.repeats)
             for name, fn, call_args, _ in kernels}
    root = _feedback_root_lane(args.repeats)
    coupled = _coupled_lane(args.repeats)
    implicit = _implicit_step_lane(args.repeats)
    host = _host_lane(args.repeats)
    staged = _host_staged_lane(args.repeats)
    riccati = _riccati_lanes_lane(args.repeats)
    shooting = _shooting_lane(args.repeats)
    sweep = _sweep_lane(args.repeats)
    cold = _cold_start_lane(args.repeats)
    ode_with_scipy = [name for name, r in cold.items()
                      if not r["mode"].endswith("-pde") and r["scipy_modules"]]
    workloads = {name: workload for name, _, _, workload in kernels}

    print(f"{'kernel':<18} {'workload':<34} {'time':>10}")
    for name, workload in workloads.items():
        print(f"{name:<18} {workload:<34} {times[name] * 1e3:>8.1f}ms")
    print(f"\nfeedback_root ({root['draws']} draws): "
          f"warm {root['warm_us_per_call']:.2f}us/call, "
          f"bisection {root['bisect_us_per_call']:.2f}us/call, "
          f"{root['speedup']:.2f}x, mismatches {root['mismatches']}")
    print(f"feedback_root (array roots, {root['draws']} draws): "
          f"warm {root['array_warm_ms']:.2f}ms, bisection {root['array_bisect_ms']:.2f}ms, "
          f"mismatches {root['array_mismatches']}")
    print(f"feedback_root (sweep-1d path, {root['sweep_samples']} samples): "
          f"pointwise feedback against optimal_u_feedback, "
          f"mismatches {root['sweep_mismatches']}")
    print(f"coupled (fig1 shooting, {coupled['evaluations']} evaluations, "
          f"{coupled['steps']} steps): {coupled['us_per_step']:.2f}us/step, "
          f"{coupled['roots_per_step']:.3f} roots/step "
          f"({coupled['memo_free_roots_per_step']:.3f} without the memo), "
          f"mismatches {coupled['mismatches']}")
    for name, r in implicit.items():
        if "mismatches" in r:
            print(f"implicit_step ({name}, {r['cells']} cells, {r['steps']} steps): "
                  f"splu march {r['splu_march_us_per_step']:.1f}us/step, "
                  f"integrate_pde {r['integrate_pde_us_per_step']:.1f}us/step, "
                  f"mismatches {r['mismatches']}")
            continue
        print(f"implicit_step ({name}, {r['cells']} cells): "
              f"rebuild+CG {r['rebuild_us_per_step']:.1f}us/step, "
              f"fixed stencil {r['fixed_us_per_step']:.1f}us/step, "
              f"{r['speedup']:.2f}x, max deviation {r['max_abs_deviation']:.1e}")
    for name, r in host.items():
        print(f"host ({name} alpha/control, {r['steps']} steps): "
              f"{r['us_per_step']:.2f}us/step, mismatches {r['mismatches']}")
    for name, r in staged.items():
        print(f"host_staged ({name}, {r['steps']} steps): "
              f"staged {r['staged_us_per_step']:.1f}us/step, "
              f"generic loop {r['generic_us_per_step']:.1f}us/step, "
              f"{r['speedup']:.2f}x, mismatches {r['mismatches']}")
    for r in riccati.values():
        print(f"riccati_lanes ({r['cells']} cells, {r['steps']} steps): "
              f"separate {r['separate_us_per_step']:.1f}us/step, "
              f"lanes {r['lanes_us_per_step']:.1f}us/step, "
              f"{r['speedup']:.2f}x, mismatches {r['mismatches']}")
    for name, r in shooting.items():
        dj = "failed" if r["rel_dJ"] is None else f"dJ/J {r['rel_dJ']:+.1e}"
        print(f"shooting ({name}): {r['fine_evaluations']} fine + "
              f"{r['coarse_evaluations']} coarse evaluations "
              f"{r['two_stage_s'] * 1e3:.0f}ms, single stage "
              f"{r['single_stage_evaluations']} {r['single_stage_s'] * 1e3:.0f}ms, {dj}")
    for name, r in sweep.items():
        state = "converged" if r["converged"] else "stopped on max_iter"
        print(f"sweep ({name}, {r['cells']} cells): {r['iterations']} iterations, "
              f"{state}, {r['ms_per_iteration']:.2f}ms/iteration, "
              f"{r['reaction_calls']} reaction calls, {r['stepper_builds']} stepper builds")
    for name, r in cold.items():
        print(f"cold_start ({name}, {r['mode']}): {r['wall_s'] * 1e3:.0f}ms median "
              f"of {r['runs']} processes, {r['scipy_modules']} scipy modules")
    print(f"cold_start: {len(ode_with_scipy)} ODE-mode scenarios loaded scipy")

    if args.json is not None:
        report = {
            "environment": {"python": platform.python_version(),
                            "numpy": np.__version__,
                            "scipy": scipy.__version__,
                            "cores": os.cpu_count()},
            "settings": {"steps": args.steps, "batch": args.batch,
                         "batch_steps": args.batch_steps,
                         "repeats": args.repeats},
            "kernels": {name: {"workload": workload, "seconds": times[name]}
                        for name, workload in workloads.items()},
            "feedback_root": root,
            "coupled": coupled,
            "implicit_step": implicit,
            "host": host,
            "host_staged": staged,
            "riccati_lanes": riccati,
            "shooting": shooting,
            "sweep": sweep,
            "cold_start": cold,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=2) + "\n")
    if root["mismatches"]:
        sys.exit(f"feedback_root: {root['mismatches']} draws differ from bisection")
    if root["array_mismatches"]:
        sys.exit(f"feedback_root: {root['array_mismatches']} array roots differ from "
                 f"bisection")
    if root["sweep_mismatches"]:
        sys.exit(f"feedback_root: {root['sweep_mismatches']} samples of the sweep-1d "
                 f"path differ from optimal_u_feedback")
    if coupled["mismatches"]:
        sys.exit(f"coupled: {coupled['mismatches']} output values differ from the "
                 f"bisection-root run")
    host_mismatches = sum(r["mismatches"] for r in host.values())
    if host_mismatches:
        sys.exit(f"host: {host_mismatches} trajectory values differ from the "
                 f"generic loop")
    staged_mismatches = sum(r["mismatches"] for r in staged.values())
    if staged_mismatches:
        sys.exit(f"host_staged: {staged_mismatches} trajectory values differ "
                 f"from the generic loop")
    riccati_mismatches = sum(r["mismatches"] for r in riccati.values())
    if riccati_mismatches:
        sys.exit(f"riccati_lanes: {riccati_mismatches} values of the lane loop "
                 f"differ from the separate rollouts")
    split = [name for name, r in shooting.items()
             if r["converged"] != r["single_stage_converged"]]
    if split:
        sys.exit(f"shooting: the two-stage and single-stage secants disagree on "
                 f"convergence for {', '.join(split)}")
    worst_dj = max((abs(r["rel_dJ"]) for r in shooting.values() if r["rel_dJ"] is not None),
                   default=0.0)
    if not worst_dj <= _SHOOTING_MAX_REL_DJ:
        sys.exit(f"shooting: the controlled cost moved by {worst_dj:.3e} (relative) "
                 f"> {_SHOOTING_MAX_REL_DJ:g}")
    worst = max(r.get("max_abs_deviation", 0.0) for r in implicit.values())
    if not worst <= _IMPLICIT_MAX_DEVIATION:
        sys.exit(f"implicit_step: the fixed-stencil path deviates by {worst:.3e} "
                 f"> {_IMPLICIT_MAX_DEVIATION:g} from rebuild+CG")
    march_mismatches = sum(r.get("mismatches", 0) for r in implicit.values())
    if march_mismatches:
        sys.exit(f"implicit_step: {march_mismatches} state values of integrate_pde "
                 f"differ from the splu march")
    if ode_with_scipy:
        sys.exit(f"cold_start: {', '.join(ode_with_scipy)} loaded scipy")


if __name__ == "__main__":
    main()
