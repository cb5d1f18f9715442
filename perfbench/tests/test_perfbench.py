"""Tests of the benchmark itself: generator, tracer, checks and entry point.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from anthractl import cli, grid
from anthractl.grid import GridSpec
from perfbench import checks, scenarios, tracer
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


def _tree(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _anthractl_bindings() -> dict:
    """Every attribute of every anthractl module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "anthractl" or name.startswith("anthractl.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


# --------------------------------------------------------------------------
# generator
# --------------------------------------------------------------------------

@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    bundled = cli.bundled_scenarios()
    a = scenarios.write_configs(workload, 7, str(tmp_path / "a"), bundled)
    b = scenarios.write_configs(workload, 7, str(tmp_path / "b"), bundled)
    c = scenarios.write_configs(workload, 8, str(tmp_path / "c"), bundled)
    assert [Path(p).name for p in a[0] + a[1]] == [Path(p).name for p in b[0] + b[1]]
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_generated_configs_validate_with_dt_dividing_T(tmp_path, workload):
    timed, extra = scenarios.write_configs(workload, 3, str(tmp_path),
                                           cli.bundled_scenarios())
    names = set()
    for path in timed + extra:
        cfg = cli.parse_config(path)
        names.add(cfg.name)
        steps = cfg.data["time"]["T"] / cfg.data["time"]["dt"]
        assert abs(steps - round(steps)) < 1e-9, cfg.name
    assert len(names) == len(timed) + len(extra)  # batch needs distinct names


def test_bundled_scenarios_are_all_covered():
    covered = {n for names in scenarios.BUNDLED.values() for n in names}
    assert covered == set(cli.bundled_scenarios())


# --------------------------------------------------------------------------
# tracer
# --------------------------------------------------------------------------

def test_tracer_restores_every_binding(tmp_path):
    before = _anthractl_bindings()
    path = cli.bundled_scenarios()["fig2"]
    with Tracer() as tr:
        assert cli.execute is not before[("anthractl.cli", "execute")]
        cli.execute(cli.parse_config(path), str(tmp_path))
    after = _anthractl_bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []
    assert tr.stats["host.integrate_ode"].calls == 3
    assert tr.stats["_kernels.host_rk4_single"].work == 3 * 1000
    assert tr.baseline_calls == 2   # the u=0 and u=1 reruns
    assert tr.absent == []


def test_tracer_wraps_every_module_that_binds_a_function():
    originals = (cli.integrate_controlled, sys.modules["anthractl.pde_control"]
                 .integrate_controlled)
    with Tracer():
        pde_control = sys.modules["anthractl.pde_control"]
        assert cli.integrate_controlled is not originals[0]
        assert pde_control.integrate_controlled is not originals[1]
    assert (cli.integrate_controlled, pde_control.integrate_controlled) == originals


def test_tracer_counts_are_exact_under_threads():
    """More threads than cores and a tiny switch interval: a lost update
    in the shared counters would show as a short count."""
    n_threads, n_calls = 8, 200
    spec = GridSpec((1.0,), (4,))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Tracer() as tr:
            def work():
                for _ in range(n_calls):
                    grid.build_grid(spec)
            threads = [threading.Thread(target=work) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    s = tr.stats["grid.build_grid"]
    assert s.calls == n_threads * n_calls
    assert 0.0 < s.self_s <= s.busy_s


def test_tracer_under_batch_threads_matches_sequential(tmp_path):
    paths = [cli.bundled_scenarios()[n] for n in ("fig2", "fig4", "pde-1d-demo")]
    with Tracer() as tr:
        code = cli.main(["batch", "--jobs", "3", "--out", str(tmp_path), *paths])
    assert code == 0
    assert tr.stats["cli.execute"].calls == 3
    assert tr.stats["host.integrate_ode"].calls == 6
    assert tr.stats["pde.integrate_pde"].calls == 3  # pde-1d-demo: u, u=0, u=1
    assert tr.baseline_calls == 6
    assert cli.execute.__module__ == "anthractl.cli"


def test_renamed_or_removed_targets_are_reported_absent(monkeypatch):
    targets = tracer.TARGETS + (("pde_control", "no_such_function", None),
                                ("no_such_module", "f", None),
                                ("severity", "NoSuchClass.method", None))
    monkeypatch.setattr(tracer, "TARGETS", targets)
    before = _anthractl_bindings()
    with Tracer() as tr:
        grid.build_grid(GridSpec((1.0,), (4,)))
    assert sorted(tr.absent) == ["no_such_module.f", "pde_control.no_such_function",
                                 "severity.NoSuchClass.method"]
    assert "pde_control.no_such_function" not in tr.stats
    after = _anthractl_bindings()
    assert [k for k in before if after.get(k) is not before[k]] == []


def test_work_count_survives_a_changed_signature():
    sig = tracer.inspect.signature(lambda x: None)
    assert tracer._work(sig, lambda a, r: a["n"], (1,), {}, None) == 0.0


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------

def _report(mode, controlled=1.0, u_zero=2.0, u_one=3.0, name="x", **diag):
    return {"name": name, "mode": mode, "diagnostics": diag,
            "costs": {"controlled": controlled, "u_zero": u_zero, "u_one": u_one}}


def test_checks_flag_accuracy_invariants_and_reference(tmp_path):
    (tmp_path / "theta_path.csv").write_text("t,cell,value\n0,0,0.5\n0.1,0,1.2\n")
    rep = _report("sweep-pde", controlled=2.5, converged=False, iterations=100)
    assert checks.accuracy_failures({}, rep)
    errors = checks.output_errors(str(tmp_path), rep, {})
    assert len(errors) == 2   # cost above u=0 baseline, theta above 1
    ok = _report("optimize-ode", shooting_residual=1e-10)
    assert checks.accuracy_failures({"shooting": {"tol": 1e-8}}, ok) == []
    (tmp_path / "ode_series.csv").write_text("t,theta,v,v_r,u,p\n0,0.2,0.5,0,0,0\n")
    assert checks.output_errors(str(tmp_path), ok, {}) == []
    ref = {"x": {"controlled": 1.0, "u_zero": 2.0, "u_one": 3.00001}}
    assert len(checks.output_errors(str(tmp_path), ok, ref)) == 1


def test_reference_matches_the_bundled_scenarios_it_names():
    ref = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    assert set(ref) - {"_about"} == set(cli.bundled_scenarios())


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def test_run_fails_cleanly_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "ode_shooting", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_declared_metrics_match_what_the_run_computes():
    from perfbench import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = run._layer_metrics({}, 0.0, 0.0, 0, 0, 0.0)
    assert set(layer) == {m["name"] for m in spec["per_layer"]}
    assert all(np.isfinite(v) for v in layer.values())
