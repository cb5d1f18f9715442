"""Per-layer timing of anthractl from outside the package.

The tracer replaces public functions of the anthractl modules with timing
wrappers while it is installed, and puts the originals back on exit.  A
function is replaced under every module name that binds it, because
``cli`` and ``pde_control`` import functions by name: wrapping only
``pde_control.integrate_controlled`` would miss ``cli.integrate_controlled``.

For each function it records calls, busy time (wall time inside the call,
summed over threads) and self time (busy time minus the part spent in other
wrapped functions called from it), plus a work count taken from the
arguments or the result where one is defined.  A target that a later change
renames or removes is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter


def _steps(bound, T="T", dt="dt") -> int:
    return max(1, int(round(float(bound[T]) / float(bound[dt]))))


def _cell_steps(bound) -> float:
    return bound["grid"].n_cells * _steps(bound)


# (module, name, work) for each timed target.  `work` maps the bound
# arguments and the result to a count accumulated as the target's work.
TARGETS = (
    ("_kernels", "coupled_rk4", lambda a, r: a["n"]),
    ("_kernels", "host_rk4_single", lambda a, r: a["n"]),
    ("_kernels", "host_rk4_batch", lambda a, r: a["x0"].shape[0] * a["n"]),
    ("host", "integrate_ode", None),
    ("ode_control", "shoot_p0", lambda a, r: r.iterations),
    ("ode_control", "integrate_coupled", None),
    ("grid", "build_grid", None),
    ("pde", "assemble_operator", None),
    ("pde", "integrate_pde", None),
    ("pde_control", "forward_backward_sweep", lambda a, r: r.iterations),
    ("pde_control", "integrate_controlled", lambda a, r: _cell_steps(a)),
    ("pde_control", "solve_adjoint_pde", lambda a, r: _cell_steps(a)),
    ("pde_control", "hamiltonian_pointwise_feedback", None),
    ("pde_control", "integrate_riccati", None),
    ("pde_control", "closed_loop_linearized", None),
    ("pde_control", "integrate_linearized", None),
    ("severity", "WeatherSeries.from_csv", None),
    ("cli", "parse_config", None),
    ("cli", "execute", None),
)

# Targets called so often that timing each call would distort the run:
# only their calls are counted.
COUNTED = (("severity", "SeverityForcing.__call__"),)

# Integrators that cli calls for the u=0 / u=1 baselines, and the cli
# helpers those calls come from.  run_const also integrates the scenario's
# own control first, so only its later calls in one execute are baselines.
BASELINE_INTEGRATORS = ("integrate_ode", "integrate_pde", "integrate_linearized",
                        "integrate_controlled")
BASELINE_CALLERS = {"_host_cost_for_control": 0, "const_cost": 0, "run_const": 1}

PACKAGE = "anthractl"


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0
    converged: int = 0


@dataclass
class _Binding:
    owner: object
    attr: str
    original: object


@dataclass
class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.stats`` after."""

    stats: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    baseline_s: float = 0.0
    baseline_calls: int = 0
    _bindings: list = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _local: threading.local = field(default_factory=threading.local)

    # -- install / restore -------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def install(self):
        for mod_name, qualname, work in TARGETS:
            self._install_one(mod_name, qualname, work, timed=True)
        for mod_name, qualname in COUNTED:
            self._install_one(mod_name, qualname, None, timed=False)

    def restore(self):
        for b in reversed(self._bindings):
            setattr(b.owner, b.attr, b.original)
        self._bindings.clear()

    def _install_one(self, mod_name, qualname, work, timed):
        key = f"{mod_name}.{qualname}"
        try:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        except ImportError:
            self.absent.append(key)
            return
        self.stats[key] = Stat()
        if "." in qualname:  # method or classmethod: patch the class
            cls_name, attr = qualname.split(".", 1)
            cls = getattr(module, cls_name, None)
            raw = vars(cls).get(attr) if isinstance(cls, type) else None
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if not callable(fn):
                self._mark_absent(key)
                return
            wrapped = self._wrap(key, fn, work, timed, binding=mod_name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._bindings.append(_Binding(cls, attr, raw))
            setattr(cls, attr, wrapped)
            return
        fn = getattr(module, qualname, None)
        if not callable(fn):
            self._mark_absent(key)
            return
        # every module of the package that binds this very function object
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    binding = name.rpartition(".")[2]
                    self._bindings.append(_Binding(mod, attr, value))
                    setattr(mod, attr, self._wrap(key, fn, work, timed, binding))

    def _mark_absent(self, key):
        del self.stats[key]
        self.absent.append(key)

    # -- the wrapper ---------------------------------------------------------

    def _frames(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, key, fn, work, timed, binding):
        stat = self.stats[key]
        lock = self._lock
        name = key.rpartition(".")[2]
        is_baseline_site = binding == "cli" and name in BASELINE_INTEGRATORS
        is_execute = key == "cli.execute"
        try:
            sig = inspect.signature(fn) if work is not None else None
        except (TypeError, ValueError):
            sig = None

        if not timed:
            def counted(*args, **kwargs):
                with lock:
                    stat.calls += 1
                return fn(*args, **kwargs)
            return counted

        def wrapper(*args, **kwargs):
            baseline = False
            if is_baseline_site:
                baseline = self._is_baseline(sys._getframe(1).f_code.co_name)
            elif is_execute:
                self._local.caller_calls = {}
            stack = self._frames()
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += d
                with lock:
                    stat.calls += 1
                    stat.busy_s += d
                    stat.self_s += d - frame[0]
                    if baseline:
                        self.baseline_s += d
                        self.baseline_calls += 1
            if sig is not None:
                amount = _work(sig, work, args, kwargs, result)
                converged = bool(getattr(result, "converged", False))
                with lock:
                    stat.work += amount
                    stat.converged += converged
            return result

        return wrapper

    def _is_baseline(self, caller: str) -> bool:
        skip = BASELINE_CALLERS.get(caller)
        if skip is None:
            return False
        counts = getattr(self._local, "caller_calls", None)
        if counts is None:
            counts = self._local.caller_calls = {}
        seen = counts.get(caller, 0)
        counts[caller] = seen + 1
        return seen >= skip


def _work(sig, work, args, kwargs, result) -> float:
    """The call's work count, or 0 if a changed signature hides it."""
    try:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return float(work(bound.arguments, result))
    except (TypeError, KeyError, AttributeError, ValueError, ZeroDivisionError):
        return 0.0
