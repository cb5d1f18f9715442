"""scipy is a dependency of the PDE layer only.

The ODE modes import numpy alone; a PDE config loads scipy when it is
parsed, before batch starts its thread pool.  The test session itself has
scipy loaded, so every check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import anthractl
from anthractl.cli import EXIT_OK, main

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(anthractl.__file__)))

# runs one CLI command (or parses one config) and prints its exit code and
# the scipy modules the process holds afterwards
_PROBE = textwrap.dedent("""
    import contextlib, io, json, sys
    from anthractl import cli
    with contextlib.redirect_stdout(io.StringIO()):
        if sys.argv[1] == "parse":
            cli.parse_config(cli.resolve_config_path(sys.argv[2]))
            code = 0
        else:
            code = cli.main(sys.argv[1:])
    print(json.dumps({"code": code, "scipy": sorted(
        m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
""")


def _probe(*argv) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("command", [
    ("run", "fig1"),
    ("run", "fig2"),
    ("run", "forecast-demo"),
    ("validate", "fig3"),
    ("list-scenarios",),
])
def test_ode_modes_never_import_scipy(command, tmp_path):
    out = ("--out", str(tmp_path)) if command[0] == "run" else ()
    result = _probe(*command, *out)
    assert result["code"] == EXIT_OK
    assert result["scipy"] == []


@pytest.mark.parametrize("name", ["sweep-1d", "riccati-scalar", "pde-1d-demo"])
def test_parsing_a_pde_config_loads_scipy(name):
    # every module the PDE layer imports inside its functions, so a worker
    # thread never makes a first scipy import
    loaded = _probe("parse", name)["scipy"]
    for module in ("scipy.linalg", "scipy.sparse", "scipy.sparse.linalg"):
        assert module in loaded


def test_batch_of_ode_and_pde_configs_matches_single_runs(tmp_path):
    names = ("fig1", "sweep-1d")
    result = _probe("batch", *names, "--out", str(tmp_path / "batch"), "--jobs", "2")
    assert result["code"] == EXIT_OK
    assert "scipy.sparse.linalg" in result["scipy"]
    for name in names:
        assert main(["run", name, "--out", str(tmp_path / "single")]) == EXIT_OK
        batch_dir, single_dir = tmp_path / "batch" / name, tmp_path / "single" / name
        files = sorted(p.name for p in single_dir.iterdir())
        assert files == sorted(p.name for p in batch_dir.iterdir())
        for fn in files:
            assert (batch_dir / fn).read_bytes() == (single_dir / fn).read_bytes()
