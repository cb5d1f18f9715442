"""Compare every CLI output of two source trees: the output rule as a tool.

Run from the repository root:

    python3 benchmarks/output_rule.py --base <git rev> [--json PATH]

The base tree is exported with ``git archive <rev>`` into a temporary
directory; the head is this checkout's working tree, uncommitted edits
included.  Both import as ``anthractl``, so each tree runs in an interpreter
of its own.

The config set is fixed: every bundled scenario; at seeds 211, 4242 and 914
the timed sets of the four perfbench workloads and the seeded sweep draw;
and the sweep draw of seed 104, which stops on max_iter.  The seeded
configs come from this checkout's ``perfbench/scenarios.py``, which is only
read, so both trees run the same files.  Scenarios run the way a user runs
them: ``cli.parse_config`` and ``cli.execute`` one at a time, except the
batch_parallel slice, which goes through ``cli.main(["batch", "--jobs",
"2", ...])`` as one call.

For each run it records the exit class, the error text, the sha256 and the
shape of every output file and the report.json diagnostics.  It prints the
count of byte-identical files; for each file that differs, the largest
relative change per CSV column or report key; the changes in integer
diagnostics (iteration, evaluation and event counts); and each seed's
failure set with its error texts.

Exit status: 0 when every run ends in the same exit class with the same
error text and every output file keeps its name and shape (CSV header and
row count, JSON key set), whether or not numbers moved; 1 otherwise.
Numeric moves are printed, not judged.  --json PATH writes the comparison.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (211, 4242, 914)
SWEEP_SEEDS = (104,)  # seeds whose sweep draw alone runs


# --------------------------------------------------------------------------
# the config set (parent process)
# --------------------------------------------------------------------------

def _bundled_names() -> list:
    return sorted(p.stem for p in (ROOT / "src" / "anthractl" / "scenarios").glob("*.json"))


def _write_configs(directory: Path) -> list:
    """Write the seeded configs; returns the run list, one entry per
    ``execute`` (or per batch call): (key, out subdirectory, refs, batch)."""
    sys.path.insert(0, str(ROOT))
    from perfbench import scenarios

    names = _bundled_names()
    runs = [(f"bundled/{n}", "bundled", [n], False) for n in names]
    for seed in SEEDS + SWEEP_SEEDS:
        for workload in scenarios.WORKLOADS if seed in SEEDS else ("pde_sweep",):
            sub = f"{seed}/{workload}"
            cfg_dir = directory / str(seed) / workload
            timed, extra = scenarios.write_configs(workload, seed, str(cfg_dir),
                                                   {n: n for n in names})
            if workload == "batch_parallel":
                runs.append((f"{sub}/batch", sub, timed, True))
                continue
            for ref in timed + extra if seed in SEEDS else extra:
                name = Path(ref).stem
                runs.append((f"{sub}/{name}", sub, [ref], False))
    return runs


# --------------------------------------------------------------------------
# one tree's runs (child process)
# --------------------------------------------------------------------------

def _collect(tree: Path, runs: list, out: Path) -> dict:
    """Run every entry of `runs` on the anthractl of `tree`; returns
    {key: {"exit", "error", "stdout"}}, outputs left under `out`."""
    sys.path.insert(0, str(tree / "src"))
    from anthractl import cli

    results = {}
    for key, sub, refs, batch in runs:
        out_root = out / sub
        if batch:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(["batch", "--jobs", "2", "--out", str(out_root), *refs])
            # the stdout lines name this tree's output directory; keep the rest
            results[key] = {"exit": code, "error": stderr.getvalue(),
                            "stdout": [line.split(" -> ")[0] + " " + line.split(" ")[-1]
                                       for line in stdout.getvalue().splitlines()]}
            continue
        try:
            cli.execute(cli.parse_config(cli.resolve_config_path(refs[0])), str(out_root))
            results[key] = {"exit": 0, "error": ""}
        except Exception as exc:  # a failing scenario is a result to compare
            # the exit code `anthractl run` gives it; 1 for a traceback
            results[key] = {"exit": cli._exit_code(exc) or 1,
                            "error": f"{type(exc).__name__}: {exc}"}
    return results


# --------------------------------------------------------------------------
# comparison (parent process)
# --------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _files(out: Path) -> dict:
    return {str(p.relative_to(out)): p for p in sorted(out.rglob("*")) if p.is_file()}


def _csv_table(path: Path) -> tuple:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _json_leaves(obj, prefix="") -> dict:
    """Key path -> leaf of the nested dicts (lists are leaves)."""
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out.update(_json_leaves(v, f"{prefix}.{k}" if prefix else str(k)))
        return out
    return {prefix: obj}


def _shape(path: Path):
    if path.suffix == ".csv":
        header, rows = _csv_table(path)
        return {"header": header, "rows": len(rows)}
    if path.suffix == ".json":
        return sorted(_json_leaves(json.loads(path.read_text())))
    return path.stat().st_size


def _rel(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    # a non-finite value against anything else is an infinite change
    return abs(a - b) / max(abs(a), abs(b)) if math.isfinite(a - b) else math.inf


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _moves(a, b) -> float | str:
    """Largest relative change between two cells, lists or leaves; "text"
    when they differ and are not numbers."""
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"length {len(a)} -> {len(b)}"
        worst = 0.0
        for x, y in zip(a, b):
            m = _moves(x, y)
            if isinstance(m, str):
                return m
            worst = max(worst, m)
        return worst
    if isinstance(a, bool) or isinstance(b, bool):
        return 0.0 if a == b else "text"
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return 0.0 if a == b else "text"
    return _rel(x, y)


def _file_moves(pa: Path, pb: Path) -> dict:
    """Largest relative change per CSV column or report key that moved."""
    if pa.suffix == ".csv":
        header, rows_a = _csv_table(pa)
        _, rows_b = _csv_table(pb)
        cols = {h: [] for h in header}
        for ra, rb in zip(rows_a, rows_b):
            for h, x, y in zip(header, ra, rb):
                cols[h].append((x, y))
        found = {}
        for h, pairs in cols.items():
            worst = _moves([x for x, _ in pairs], [y for _, y in pairs])
            if worst:
                found[h] = worst
        return found
    la = _json_leaves(json.loads(pa.read_text()))
    lb = _json_leaves(json.loads(pb.read_text()))
    return {k: m for k in la if k in lb and (m := _moves(la[k], lb[k]))}


def _counts(path: Path) -> dict:
    """The integer diagnostics of a report.json."""
    diag = json.loads(path.read_text()).get("diagnostics", {})
    return {k: v for k, v in diag.items() if isinstance(v, int) and not isinstance(v, bool)}


def compare(runs: list, base: dict, head: dict, out_base: Path, out_head: Path) -> dict:
    fa, fb = _files(out_base), _files(out_head)
    problems, moved, counts = [], {}, {}
    identical = 0
    for name in sorted(set(fa) | set(fb)):
        if name not in fa or name not in fb:
            problems.append(f"{name}: written by the {'head' if name in fb else 'base'} only")
            continue
        if _sha256(fa[name]) == _sha256(fb[name]):
            identical += 1
            continue
        if _shape(fa[name]) != _shape(fb[name]):
            problems.append(f"{name}: shape {_shape(fa[name])} -> {_shape(fb[name])}")
            continue
        moved[name] = _file_moves(fa[name], fb[name])
        if name.endswith("report.json"):
            ca, cb = _counts(fa[name]), _counts(fb[name])
            changed = {k: [ca[k], cb[k]] for k in ca if k in cb and ca[k] != cb[k]}
            if changed:
                counts[name] = changed
    failures = {}
    for key, *_ in runs:
        a, b = base[key], head[key]
        if (a["exit"], a["error"], a.get("stdout")) != (b["exit"], b["error"], b.get("stdout")):
            problems.append(f"{key}: exit {a['exit']} {a['error']!r} -> "
                            f"exit {b['exit']} {b['error']!r}")
        if b["exit"]:
            seed = key.split("/")[0]
            failures.setdefault(seed, {})[key] = f"exit {b['exit']}: {b['error'].strip()}"
    return {"runs": len(runs), "files": len(set(fa) | set(fb)), "identical_files": identical,
            "differing_files": len(moved), "moves": moved, "count_changes": counts,
            "failures": failures, "problems": problems}


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------

def _export(rev: str, directory: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory, filter="data")
    return directory


def _run_tree(tree: Path, runs_file: Path, out: Path, result: Path) -> dict:
    subprocess.run([sys.executable, __file__, "--collect", str(tree), "--runs",
                    str(runs_file), "--out", str(out), "--result", str(result)],
                   check=True)
    return json.loads(result.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="git revision of the base tree")
    ap.add_argument("--json", metavar="PATH", help="also write the comparison to PATH")
    # internal: one tree's runs in a child interpreter
    ap.add_argument("--collect", help=argparse.SUPPRESS)
    ap.add_argument("--runs", help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    ap.add_argument("--result", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.collect:
        runs = json.loads(Path(args.runs).read_text())
        result = _collect(Path(args.collect), runs, Path(args.out))
        Path(args.result).write_text(json.dumps(result))
        return 0
    if not args.base:
        ap.error("--base is required")

    with tempfile.TemporaryDirectory(prefix="output-rule-") as tmp:
        work = Path(tmp)
        base_tree = _export(args.base, work / "base-tree")
        runs = _write_configs(work / "configs")
        runs_file = work / "runs.json"
        runs_file.write_text(json.dumps(runs))
        base = _run_tree(base_tree, runs_file, work / "out-base", work / "base.json")
        head = _run_tree(ROOT, runs_file, work / "out-head", work / "head.json")
        report = compare(runs, base, head, work / "out-base", work / "out-head")
    report.update(base=args.base, seeds=SEEDS, sweep_seeds=SWEEP_SEEDS)

    print(f"output rule: {args.base} -> working tree: {report['runs']} runs, "
          f"{report['files']} files, {report['identical_files']} byte-identical, "
          f"{report['differing_files']} differing")
    for name, moves in report["moves"].items():
        shown = ", ".join(f"{k} {v:.3g}" if isinstance(v, float) else f"{k} {v}"
                          for k, v in moves.items()) or "formatting only"
        print(f"  moved {name}: {shown}")
    for name, changed in report["count_changes"].items():
        print(f"  counts {name}: " + ", ".join(f"{k} {a} -> {b}"
                                               for k, (a, b) in changed.items()))
    for seed, failed in report["failures"].items():
        print(f"  failures at {seed}: {len(failed)}")
        for key, text in failed.items():
            print(f"    {key}: {text}")
    for problem in report["problems"]:
        print(f"  CHANGED {problem}")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 1 if report["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
