#!/usr/bin/env python3
"""Scenario benchmark for anthractl.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ode_shooting --seed 1 --seconds 20 --trace 0

It imports anthractl from ``src/`` of that checkout, writes the workload's
configs for the seed, and runs them in one process the way a user does
(``cli.execute`` per scenario, or ``cli.main(["batch", ...])``) for the
given number of seconds, checking every scenario's outputs as it goes.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics named in
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The line before it holds the environment, the error rate and every failing
scenario with its config.  Scratch files go under ``.perfbench/`` of the
checkout and are removed at exit, except the output hashes kept there to
compare reruns of a seed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# A run is split over this many fresh processes, one after another.  Python's
# speed differs from process to process (address-space layout, hash seeds),
# so pooling several processes steadies a run; each one's start-up is also
# one sample of setup_s.
WORKERS = 4
JOBS = 2   # batch_parallel worker count (the machine's 2 cores)

sys.path.insert(0, str(ROOT))
from perfbench import checks, scenarios  # noqa: E402
from perfbench.tracer import Stat, Tracer  # noqa: E402


def _parse_args(argv):
    ap = argparse.ArgumentParser(description="anthractl scenario benchmark")
    ap.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one worker process of a run (index, scenarios run before it,
    # monotonic start time, scratch directory)
    ap.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--done", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--started", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _prepare(workload: str, seed: int, directory: str):
    """Import anthractl, write the configs and parse every one of them."""
    from anthractl import cli
    timed, extra = scenarios.write_configs(workload, seed, directory,
                                           cli.bundled_scenarios())
    return cli, [cli.parse_config(p) for p in timed], timed, \
        [cli.parse_config(p) for p in extra]


# --------------------------------------------------------------------------
# checking
# --------------------------------------------------------------------------

class Ledger:
    """Every scenario run's outcome: attempts, failures and output hashes."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures = {}
        self.hashes = {}
        self.bytes_written = 0
        self.files_written = 0

    def check(self, cfg, out_root: str, error: str | None):
        """Check one finished scenario, then delete its outputs."""
        self.attempted += 1
        out_dir = os.path.join(out_root, cfg.name)
        failed, wrong = [], []
        if error is not None:
            failed.append(error)
        elif not os.path.exists(os.path.join(out_dir, "report.json")):
            failed.append("finished without writing report.json")
        else:
            report = checks.load_report(out_dir)
            failed += checks.accuracy_failures(cfg.data, report)
            wrong += checks.output_errors(out_dir, report, self.reference)
            hashes, size = checks.hash_outputs(out_dir)
            self.bytes_written += size
            self.files_written += len(hashes)
            if self.hashes.setdefault(cfg.name, hashes) != hashes:
                wrong.append("a rerun in this run wrote different bytes")
        shutil.rmtree(out_dir, ignore_errors=True)
        if failed or wrong:
            self._fail(cfg.name, cfg.data, failed + wrong, program_reported=bool(failed))

    def _fail(self, name, data, reasons, program_reported):
        self.failed += 1
        if not program_reported:
            self.correct = False
        entry = self.failures.setdefault(name, {"scenario": name, "runs_failed": 0,
                                                "reasons": reasons, "config": data})
        entry["runs_failed"] += 1

    def state(self) -> dict:
        return {k: getattr(self, k) for k in ("attempted", "failed", "correct", "failures",
                                              "hashes", "bytes_written", "files_written")}

    def merge(self, other: dict, configs: dict):
        """Add one worker's ledger; a scenario whose bytes differ from
        another worker's run of it fails."""
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.correct = self.correct and other["correct"]
        self.bytes_written += other["bytes_written"]
        self.files_written += other["files_written"]
        for name, entry in other["failures"].items():
            mine = self.failures.setdefault(name, dict(entry, runs_failed=0))
            mine["runs_failed"] += entry["runs_failed"]
        for name, hashes in other["hashes"].items():
            if self.hashes.setdefault(name, hashes) != hashes:
                self._fail(name, configs[name], ["a rerun in another process of this "
                                                 "run wrote different bytes"], False)

    def compare_store(self, path: Path, configs: dict):
        """Compare this run's hashes with earlier runs of the same config on
        the same source tree, then add this run's to the store."""
        stored = json.loads(path.read_text()) if path.exists() else {}
        for name, hashes in self.hashes.items():
            key = name + ":" + hashlib.sha256(
                json.dumps(configs[name], sort_keys=True).encode()).hexdigest()[:16]
            if stored.setdefault(key, hashes) != hashes:
                self._fail(name, configs[name], ["wrote different bytes than an "
                                                 "earlier run of this config"], False)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)


def _source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "anthractl").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------

def _error_text(cli, exc: Exception) -> str:
    """The scenario's exit class as `anthractl run` would report it."""
    if isinstance(exc, cli.ConfigError):
        code = cli.EXIT_CONFIG
    elif isinstance(exc, cli._NUMERICAL_ERRORS):
        code = cli.EXIT_NUMERICAL
    elif isinstance(exc, OSError):
        code = cli.EXIT_IO
    else:
        code = 1  # an uncaught traceback
    return f"exit {code}: {type(exc).__name__}: {exc}"


def _execute(cli, cfg, out_root: str, ledger: Ledger) -> float:
    t0 = perf_counter()
    try:
        cli.execute(cfg, out_root)
        error = None
    except Exception as exc:  # a failing scenario is recorded, the run goes on
        error = _error_text(cli, exc)
    wall = perf_counter() - t0
    ledger.check(cfg, out_root, error)
    return wall


def _sequential(cli, cfgs, out_root, ledger, seconds=None, plan=None, done=0,
                last=True):
    """Run cfgs in passes for `seconds`, or replay `plan` (config indices).

    The workers of a run share one sequence through the set: this one goes on
    after the `done` scenarios its predecessors ran.  The first pass stops at
    the deadline; once a whole pass has run, the last worker ends at the
    first pass boundary after it, so every run of a short set executes each
    config equally often.  Returns (plan, wall per scenario, wall per
    scenario that did not fail).
    """
    order, walls, latencies = [], [], []
    n = len(cfgs)
    start = perf_counter()
    while True:
        i = len(order)
        if plan is not None:
            if i == len(plan):
                break
            k = plan[i]
        else:
            at = done + i
            if i and perf_counter() - start >= seconds and \
                    (not last or at < n or at % n == 0):
                break
            k = at % n
        failed = ledger.failed
        walls.append(_execute(cli, cfgs[k], out_root, ledger))
        order.append(k)
        if ledger.failed == failed:
            latencies.append(walls[-1])
    return order, walls, latencies


@contextlib.contextmanager
def _timed_execute(cli):
    """Record the wall time of every cli.execute call made inside."""
    walls = []
    lock = threading.Lock()
    inner = cli.execute

    def execute(*args, **kwargs):
        t0 = perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            with lock:
                walls.append(perf_counter() - t0)

    cli.execute = execute
    try:
        yield walls
    finally:
        cli.execute = inner


def _cpu_seconds() -> float:
    """CPU time of this process's threads and of its finished children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _batch(cli, cfgs, paths, out_root, ledger, seconds=None, passes=None):
    """Run the whole slice through `anthractl batch --jobs 2` repeatedly.
    Returns (batch walls, per-scenario execute walls, CPU seconds used)."""
    walls, exec_walls, cpu = [], [], 0.0
    start = perf_counter()
    while (len(walls) < passes) if passes is not None else \
            (not walls or perf_counter() - start < seconds):
        out, err = io.StringIO(), io.StringIO()
        with _timed_execute(cli) as ex, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0, c0 = perf_counter(), _cpu_seconds()
            code = cli.main(["batch", "--jobs", str(JOBS), "--out", out_root, *paths])
            walls.append(perf_counter() - t0)
            cpu += _cpu_seconds() - c0
        exec_walls += ex
        errors = {}
        for line in err.getvalue().splitlines():
            name, sep, msg = line.partition(": FAILED: ")
            if sep:
                errors[name] = f"exit {code}: {msg}"
        for cfg in cfgs:
            ledger.check(cfg, out_root, errors.get(cfg.name))
    return walls, exec_walls, cpu


def _timed_loop(args, cli, cfgs, paths, out_root, ledger, seconds, replay=None):
    """One measured loop.  Returns (replay key, scenarios, their total wall,
    their walls, parallel efficiency of the batch calls).  Sequential loops
    count only scenarios that did not fail: how often a draw fails is
    reported as failed/attempted, and a failure's time says nothing about
    how fast the solver is (a Riccati blow-up ends within milliseconds, a
    shooting failure takes 100 evaluations)."""
    if args.workload == "batch_parallel":
        walls, exec_walls, cpu = _batch(cli, cfgs, paths, out_root, ledger,
                                        seconds, replay)
        return (len(walls), len(walls) * len(cfgs), sum(walls), exec_walls,
                cpu / (sum(walls) * JOBS))
    plan, walls, latencies = _sequential(cli, cfgs, out_root, ledger, seconds, replay,
                                         args.done, args.worker == WORKERS - 1)
    return plan, len(latencies), sum(latencies), latencies, 0.0


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def _per(amount: float, count: float) -> float:
    return amount / count if count else 0.0


def _layer_metrics(stats: dict, baseline_s: float, overhead: float,
                   ledger_bytes: int, ledger_files: int, efficiency: float) -> dict:
    def st(key) -> Stat:
        return stats.get(key, Stat())

    m = {}
    # metric names start with a letter, so _kernels reads as kernels
    for name in ("coupled_rk4", "host_rk4_single"):
        s = st(f"_kernels.{name}")
        m.update({f"kernels.{name}.calls": s.calls, f"kernels.{name}.busy_s": s.busy_s,
                  f"kernels.{name}.us_per_step": _per(1e6 * s.busy_s, s.work)})
    s = st("_kernels.host_rk4_batch")
    m.update({"kernels.host_rk4_batch.calls": s.calls,
              "kernels.host_rk4_batch.us_per_lane_step": _per(1e6 * s.busy_s, s.work)})
    s = st("host.integrate_ode")
    m.update({"host.integrate_ode.calls": s.calls, "host.integrate_ode.busy_s": s.busy_s,
              "host.integrate_ode.self_s": s.self_s})
    s = st("ode_control.shoot_p0")
    m.update({"ode_control.shoot_p0.calls": s.calls, "ode_control.shoot_p0.busy_s": s.busy_s,
              "ode_control.shoot_p0.evaluations": s.work,
              "ode_control.integrate_coupled.self_s": st("ode_control.integrate_coupled").self_s})
    s = st("pde.integrate_pde")
    m.update({"pde.integrate_pde.calls": s.calls, "pde.integrate_pde.busy_s": s.busy_s,
              "pde.assemble_operator.calls": st("pde.assemble_operator").calls})
    s = st("pde_control.forward_backward_sweep")
    m.update({"pde_control.forward_backward_sweep.calls": s.calls,
              "pde_control.forward_backward_sweep.busy_s": s.busy_s,
              "pde_control.forward_backward_sweep.iterations": s.work,
              "pde_control.forward_backward_sweep.converged_frac": _per(s.converged, s.calls)})
    for name in ("integrate_controlled", "solve_adjoint_pde"):
        key = f"pde_control.{name}"
        s = st(key)
        m.update({f"{key}.calls": s.calls, f"{key}.busy_s": s.busy_s,
                  f"{key}.us_per_cell_step": _per(1e6 * s.busy_s, s.work)})
    s = st("pde_control.hamiltonian_pointwise_feedback")
    m.update({"pde_control.hamiltonian_pointwise_feedback.calls": s.calls,
              "pde_control.hamiltonian_pointwise_feedback.busy_s": s.busy_s})
    for name in ("integrate_riccati", "closed_loop_linearized", "integrate_linearized"):
        m[f"pde_control.{name}.busy_s"] = st(f"pde_control.{name}").busy_s
    m.update({
        "severity.WeatherSeries.from_csv.busy_s": st("severity.WeatherSeries.from_csv").busy_s,
        "severity.SeverityForcing.calls": st("severity.SeverityForcing.__call__").calls,
        "grid.build_grid.busy_s": st("grid.build_grid").busy_s,
        "cli.parse_config.busy_s": st("cli.parse_config").busy_s,
        "cli.execute.busy_s": st("cli.execute").busy_s,
        "cli.execute.self_s": st("cli.execute").self_s,
        "cli.bytes_written": ledger_bytes,
        "cli.files_written": ledger_files,
        "cli.baselines.busy_s": baseline_s,
        "cli.batch.parallel_efficiency": efficiency,
        "trace.overhead_frac": overhead,
    })
    return m


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import numpy
    pattern = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                           "numpy.libs", "*openblas*")
    for lib_path in glob.glob(pattern):
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def _environment(fingerprint: str) -> dict:
    import numpy
    import scipy
    from anthractl import _kernels
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    backend = _kernels.backend_name()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": backend,
        "have_numba": bool(_kernels.HAVE_NUMBA),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": commit or None,
        "source_sha256": fingerprint,
        "label": "measured on the numpy fallback" if backend == "numpy"
                 else f"measured on the {backend} backend",
    }


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------

def _worker(args) -> dict:
    """One process's share of a run: set-up, its slice of the timed loop
    (and with --trace, the traced replay of it), then its checks."""
    cli, cfgs, paths, extra = _prepare(args.workload, args.seed,
                                       os.path.join(args.work, "configs"))
    out = {"setup_s": monotonic() - args.started}
    ledger = Ledger(json.loads((HERE / "reference.json").read_text()))
    out_root = os.path.join(args.work, "out")
    if args.trace:
        # untraced and traced loops over the same scenarios: the traced one
        # gives the per-layer numbers, the gap between them is the overhead
        replay, _, out["wall"], _, out["efficiency"] = _timed_loop(
            args, cli, cfgs, paths, out_root, ledger, args.seconds / 2)
        bytes0, files0 = ledger.bytes_written, ledger.files_written
        with Tracer() as tr:
            for p in paths:
                cli.parse_config(p)
            _, _, out["traced_wall"], _, _ = _timed_loop(args, cli, cfgs, paths, out_root,
                                                         ledger, None, replay)
        out.update(stats={k: vars(v) for k, v in tr.stats.items()},
                   baseline_s=tr.baseline_s, absent=tr.absent,
                   traced_bytes=ledger.bytes_written - bytes0,
                   traced_files=ledger.files_written - files0)
    else:
        replay, out["scenarios"], out["wall"], out["walls"], _ = _timed_loop(
            args, cli, cfgs, paths, out_root, ledger, args.seconds)
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["ran"] = replay if isinstance(replay, int) else len(replay)
    out["extra_s"] = [_execute(cli, cfg, out_root, ledger)
                      for cfg in (extra if args.worker == WORKERS - 1 else ())]
    out["ledger"] = ledger.state()
    out["configs"] = {c.name: c.data for c in cfgs + extra}
    return out


def _run(args, work: Path) -> int:
    parts, done = [], 0
    for i in range(WORKERS):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds / WORKERS),
               "--trace", str(args.trace), "--worker", str(i), "--done", str(done),
               "--work", str(work / f"worker-{i}"), "--started", repr(monotonic())]
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                              timeout=170)
        parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        done += parts[-1]["ran"]

    configs = {}
    for part in parts:
        configs.update(part["configs"])
    ledger = Ledger({})
    for part in parts:
        ledger.merge(part["ledger"], configs)
    fingerprint = _source_fingerprint()
    ledger.compare_store(STATE / "hashes" / fingerprint[:16]
                         / f"{args.workload}-{args.seed}.json", configs)

    if args.trace:
        stats = {}
        for part in parts:
            for key, fields in part["stats"].items():
                total = stats.setdefault(key, Stat())
                for name, value in fields.items():
                    setattr(total, name, getattr(total, name) + value)
        wall = sum(p["wall"] for p in parts)
        metrics = _layer_metrics(
            stats, sum(p["baseline_s"] for p in parts),
            sum(p["traced_wall"] for p in parts) / wall - 1.0,
            sum(p["traced_bytes"] for p in parts), sum(p["traced_files"] for p in parts),
            sum(p["efficiency"] * p["wall"] for p in parts) / wall)
        absent = sorted({a for p in parts for a in p["absent"]})
        walls = []
    else:
        walls = [w for p in parts for w in p["walls"]]
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in parts),
            "scenarios_per_s": sum(p["scenarios"] for p in parts)
                               / sum(p["wall"] for p in parts),
            "scenario_s_p50": statistics.median(walls),
            "peak_rss_mb": max(p["rss_mb"] for p in parts),
        }
        absent = []

    units = _declared("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json "
                           f"{sorted(units)}")
    print(json.dumps({"perfbench": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": _environment(fingerprint),
        "scenario_s_p50_samples": len(walls), "setup_samples": WORKERS,
        "extra_scenario_s": [x for p in parts for x in p["extra_s"]],
        "error_rate": ledger.failed / ledger.attempted,
        "failures": list(ledger.failures.values()), "absent": absent,
    }}, sort_keys=True))
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills the running worker and the
    # scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "anthractl" / "__init__.py").is_file():
        print(f"perfbench: no anthractl package under {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.worker is not None:
        print(json.dumps(_worker(args)))
        return 0
    STATE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
