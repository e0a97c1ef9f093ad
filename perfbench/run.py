"""multinoise benchmark: the CLI driven as a closed loop by one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from anywhere inside a checkout of the repository; nothing is built or
installed.  One op is the workload's fixed command sequence (see
``workloads.py``).  Each command runs in a fresh ``python3 -m multinoise.cli``
subprocess with the user's default environment (``MULTINOISE_THREADS``
unset, ``src`` on ``PYTHONPATH``), and the next one starts only after the
previous one exits.  Ops repeat until ``--seconds`` would be exceeded by one
more op (at least one op always runs).  Every command's exit code and
artifacts are checked after its op, outside the timed region.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median wall time of a fresh interpreter that imports
  multinoise and loads the workload's first config (SETUP_REPEATS times);
* ``op_s.p50``: median op wall time, first spawn to last exit;
* ``cpu_s.p50``: median over ops of user+sys CPU summed over the op's
  children;
* ``peak_rss_mb``: median over ops of the largest child max-RSS.

``--trace 1`` runs the same untraced ops, then one traced op whose commands
run in-process under ``tracer.py``, and reports the per-layer metrics: calls
and self time per wrapped function, the tracer's counters, per-command wall
times of the untraced ops, and the tracing overhead.  ``fail_ratio``
(commands failing verification over commands attempted) is reported there
and, as ``failed``/``attempted``, on every run.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run header (git state,
versions, CPU and worker counts, seed, config hashes), sample counts and
per-command records go to ``perfbench/.work/<workload>-trace<0|1>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

import workloads

ROOT = workloads.ROOT
BENCH_DIR = Path(__file__).resolve().parent
WORK = BENCH_DIR / ".work"
SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0  # a run must end within 180 s; children are killed past it
MAX_FAILURE_LINES = 10

END_TO_END = {"setup_s": "s", "op_s.p50": "s", "cpu_s.p50": "s",
              "peak_rss_mb": "MB"}

# span name -> the fields reported for it
SPAN_FIELDS = {
    "atoms.eval": ("calls", "points", "self_s"),
    "atoms.envelope": ("calls", "self_s"),
    "atoms.calculus": ("self_s",),
    "forms.indefinite_inner": ("calls", "self_s", "distinct_ratio"),
    "forms.weighted_inner": ("calls", "self_s", "distinct_ratio"),
    "forms.quad": ("calls", "self_s", "integrand_calls", "integrand_per_call"),
    "forms.grid": ("self_s",),
    "fock.build_sector": ("calls", "self_s"),
    "fock.create": ("calls", "self_s"),
    "fock.annihilate": ("calls", "self_s"),
    "fock.fock_inner": ("calls", "self_s"),
    "fock.word": ("self_s",),
    "wick.reservoir_pair": ("calls", "self_s", "distinct_ratio"),
    "wick.noise_pair": ("calls", "self_s", "distinct_ratio"),
    "wick.correlation": ("calls", "self_s"),
    "wick.matchings": ("count",),
    "gamma.osc": ("calls", "self_s", "rss_growth_mb"),
    "gamma.shell": ("calls", "self_s"),
    "gamma.support": ("self_s",),
    "expansion.kernel_error": ("calls", "self_s"),
    "expansion.correlation_error": ("calls", "self_s"),
    "expansion.truncated": ("self_s",),
    "expansion.fit_rate": ("calls", "self_s"),
    "checks.ccr": ("self_s",),
    "checks.adjoint": ("self_s",),
    "checks.metric": ("self_s",),
    "checks.fock_wick": ("self_s",),
    "config.load": ("self_s",),
    "cli.main": ("self_s",),
}
FIELD_UNITS = {"calls": "count", "points": "count", "self_s": "s",
               "distinct_ratio": "ratio", "integrand_calls": "count",
               "integrand_per_call": "count", "count": "count",
               "rss_growth_mb": "MB"}
PER_LAYER = {f"{span}.{field}": FIELD_UNITS[field]
             for span, fields in SPAN_FIELDS.items() for field in fields}
PER_LAYER.update({"cli.artifact.bytes": "bytes",
                  **{f"cli.{c}.wall_s": "s" for c in workloads.COMMANDS},
                  "trace.op_s": "s", "trace.overhead_ratio": "ratio",
                  "fail_ratio": "ratio"})
# per-layer metrics that must repeat exactly between traced runs at one seed
COUNTER_FIELDS = ("calls", "points", "distinct_ratio", "integrand_calls",
                  "integrand_per_call", "count", "bytes")

SETUP_CODE = ("import sys, multinoise\n"
              "from multinoise.config import load_config\n"
              "load_config(sys.argv[1])\n")
HEADER_CODE = """\
import json, os, platform, numpy, scipy, multinoise
from multinoise import cli
cap = getattr(cli, "_thread_cap", None)
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "multinoise": getattr(multinoise, "__version__", None),
                  "package_file": multinoise.__file__,
                  "nproc": os.cpu_count(),
                  "workers": cap() if cap else None}))
"""


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def child_env() -> dict:
    """The user's default environment, with this checkout's src importable."""
    env = dict(os.environ)
    env.pop("MULTINOISE_THREADS", None)
    path = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def git_state() -> dict:
    """Commit and dirty flag of the checkout; None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, env=env, timeout=30,
                                  capture_output=True, text=True)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {"git_sha": sha, "dirty": None if status is None else bool(status)}


def spawn(argv: list[str], env: dict, log_path: Path, deadline: float) -> dict:
    """Run one child to its exit; wall time, CPU and max RSS from wait4.

    A child still running at ``deadline`` is killed and reported with exit
    code None.
    """
    killed = []

    def kill():
        killed.append(True)
        proc.kill()

    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - t0, 1.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildProcessError:  # reaped by the kill path
            timer.cancel()
            proc.wait()
            return {"wall_s": time.perf_counter() - t0, "cpu_s": 0.0,
                    "maxrss_kb": 0, "exit": None}
        wall = time.perf_counter() - t0
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "exit": None if killed else proc.returncode}


def run_op(cmds, seed: int, env: dict, op_dir: Path, deadline: float,
           reference: dict, traced: bool = False) -> dict:
    """One op: the commands back to back, then their output checks."""
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir(parents=True)
    records = []
    t0 = time.perf_counter()
    for i, cmd in enumerate(cmds):
        out = op_dir / f"{i}-{cmd.command}"
        argv = cmd.argv(out, seed)
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"),
                    str(op_dir / f"{i}-spans"), "--", *argv]
        else:
            argv = [sys.executable, "-m", "multinoise.cli", *argv]
        rec = spawn(argv, env, op_dir / f"{i}.log", deadline)
        records.append(dict(rec, label=cmd.label, command=cmd.command, out=out,
                            spans=op_dir / f"{i}-spans" if traced else None))
    wall = time.perf_counter() - t0
    for cmd, rec in zip(cmds, records):
        rec["problems"] = (["killed at the run deadline"] if rec["exit"] is None
                           else workloads.check(cmd, rec["exit"], rec["out"],
                                                seed, reference))
        rec["artifact_bytes"] = sum(p.stat().st_size for p in rec["out"].glob("*")
                                    if p.is_file())
    return {"wall_s": wall, "cpu_s": sum(r["cpu_s"] for r in records),
            "maxrss_kb": max(r["maxrss_kb"] for r in records),
            "commands": records}


# -- spans ----------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def read_spans(stem: Path):
    """Header and per-thread span columns (name, parent, start, end)."""
    header = json.loads(stem.with_suffix(".json").read_text())
    threads = []
    with open(stem.with_suffix(".bin"), "rb") as handle:
        for count in header["threads"]:
            columns = []
            for code in ("i", "q", "d", "d"):
                column = array(code)
                column.fromfile(handle, count)
                columns.append(column)
            threads.append(columns)
    return header, threads


def span_totals(stem: Path) -> tuple[dict, dict, dict]:
    """Calls and self time per span name, plus the tracer's header.

    Self time is a span's duration minus the time its child spans cover.
    Children in the span's own thread are disjoint; root spans of worker
    threads name the main thread's open span as parent and may overlap each
    other, so their intervals are merged first.
    """
    header, threads = read_spans(stem)
    shift = header["thread_shift"]
    mask = (1 << shift) - 1
    covered = [array("d", bytes(8 * len(t[0]))) for t in threads]
    cross = defaultdict(list)
    for ti, (_, parents, starts, ends) in enumerate(threads):
        cov = covered[ti]
        for j, parent in enumerate(parents):
            if parent < 0:
                continue
            if parent >> shift == ti:
                cov[parent & mask] += ends[j] - starts[j]
            else:
                cross[parent].append((starts[j], ends[j]))
    for parent, intervals in cross.items():
        covered[parent >> shift][parent & mask] += _union_length(intervals)
    calls, self_s = defaultdict(int), defaultdict(float)
    names = header["names"]
    for ti, (ids, _, starts, ends) in enumerate(threads):
        cov = covered[ti]
        for j, nid in enumerate(ids):
            calls[names[nid]] += 1
            self_s[names[nid]] += ends[j] - starts[j] - cov[j]
    return header, calls, self_s


def layer_metrics(traced: dict, untraced_ops: list) -> dict:
    """Per-layer metrics of one traced op, plus the untraced command walls."""
    calls, self_s, counters = defaultdict(int), defaultdict(float), defaultdict(float)
    unwrapped = set()
    for rec in traced["commands"]:
        if not rec["spans"].with_suffix(".json").exists():
            continue  # the command died; verification counts it as failed
        header, c, s = span_totals(rec["spans"])
        unwrapped.update(header["unwrapped"])
        for key, value in c.items():
            calls[key] += value
        for key, value in s.items():
            self_s[key] += value
        for key, value in header["counters"].items():
            counters[key] += value
    traced["unwrapped"] = sorted(unwrapped)

    values = {}
    for span, fields in SPAN_FIELDS.items():
        n = calls.get(span, 0)
        for field in fields:
            if field == "calls":
                value = n
            elif field == "self_s":
                value = self_s.get(span, 0.0)
            elif field == "distinct_ratio":
                value = counters.get(span + ".distinct", 0) / n if n else 0.0
            elif field == "integrand_per_call":
                value = counters.get(span + ".integrand_calls", 0) / n if n else 0.0
            else:
                value = counters.get(f"{span}.{field}", 0)
            values[f"{span}.{field}"] = value
    values["cli.artifact.bytes"] = sum(r["artifact_bytes"]
                                       for r in traced["commands"])
    for command in workloads.COMMANDS:
        walls = [r["wall_s"] for op in untraced_ops for r in op["commands"]
                 if r["command"] == command]
        values[f"cli.{command}.wall_s"] = statistics.median(walls) if walls else 0.0
    values["trace.op_s"] = traced["wall_s"]
    values["trace.overhead_ratio"] = (
        traced["wall_s"] / statistics.median(op["wall_s"] for op in untraced_ops))
    return values


# -- one run ------------------------------------------------------------------

def run_header(env: dict, cmds, seed: int, deadline: float, work: Path) -> dict:
    """Untimed warm-up child that also reports versions and worker count."""
    log = work / "header.log"
    rec = spawn([sys.executable, "-c", HEADER_CODE], env, log, deadline)
    if rec["exit"] != 0:
        raise BenchError(f"cannot import multinoise from {ROOT / 'src'}:\n"
                         + log.read_text()[-2000:])
    info = json.loads(log.read_text().strip().splitlines()[-1])
    package = Path(info.pop("package_file")).resolve()
    if ROOT / "src" not in package.parents:
        raise BenchError(f"multinoise imported from {package}, not from this "
                         f"checkout's src")
    configs = {}
    for cmd in cmds:
        rel = str(cmd.config.relative_to(ROOT))
        configs[rel] = hashlib.sha256(cmd.config.read_bytes()).hexdigest()
    return {**git_state(), **info, "seed": seed, "configs": configs}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one benchmark run; returns the result line and the full report."""
    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    reference = workloads.load_reference()
    work = WORK / f"{workload}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmds = workloads.build(workload, seed, work / "configs", reference)
    env = child_env()
    header = run_header(env, cmds, seed, deadline, work)

    setup = []
    if not trace:
        argv = [sys.executable, "-c", SETUP_CODE, str(cmds[0].config)]
        for i in range(SETUP_REPEATS):
            rec = spawn(argv, env, work / f"setup{i}.log", deadline)
            if rec["exit"] != 0:
                raise BenchError("set-up probe failed:\n"
                                 + (work / f"setup{i}.log").read_text()[-2000:])
            setup.append(rec["wall_s"])

    ops = []
    t0 = time.perf_counter()
    while True:
        ops.append(run_op(cmds, seed, env, work / f"op{len(ops)}", deadline,
                          reference))
        typical = statistics.median(op["wall_s"] for op in ops)
        reserve = typical * (2 if trace else 1)  # room left for the traced op
        if (time.perf_counter() - t0 + typical > seconds
                or time.perf_counter() + typical + reserve > deadline):
            break
    traced = (run_op(cmds, seed, env, work / "traced", deadline, reference,
                     traced=True) if trace else None)

    checked = [r for op in ops + ([traced] if traced else []) for r in op["commands"]]
    attempted = len(checked)
    failed = sum(1 for r in checked if r["problems"])
    if trace:
        values = layer_metrics(traced, ops)
        values["fail_ratio"] = failed / attempted
        units = PER_LAYER
    else:
        values = {"setup_s": statistics.median(setup),
                  "op_s.p50": statistics.median(op["wall_s"] for op in ops),
                  "cpu_s.p50": statistics.median(op["cpu_s"] for op in ops),
                  "peak_rss_mb": statistics.median(op["maxrss_kb"] for op in ops)
                  / 1024.0}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    result = {"correct": attempted > 0 and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "path": str((work / "result.json").relative_to(ROOT)),
              "trace": int(trace), "header": header,
              "samples": {"setup": len(setup), "ops": len(ops),
                          "commands_attempted": attempted,
                          "commands_failed": failed},
              "setup_s": setup, "ops": ops, "traced": traced,
              "result": result, "run_s": time.perf_counter() - start}
    (work / "result.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    return result, report


def summary_lines(report: dict) -> list[str]:
    h, s = report["header"], report["samples"]
    lines = [f"# {report['workload']} seed={report['seed']} trace={report['trace']}"
             f" git={h['git_sha']} dirty={h['dirty']} python={h['python']}"
             f" numpy={h['numpy']} scipy={h['scipy']} nproc={h['nproc']}"
             f" workers={h['workers']}",
             f"# samples: {s['ops']} ops, {s['setup']} set-ups; "
             f"{s['commands_failed']} of {s['commands_attempted']} commands failed"]
    failures = [f"# FAILED {rec['label']}: {problem}"
                for op in report["ops"] + [report["traced"] or {"commands": []}]
                for rec in op["commands"] for problem in rec["problems"]]
    lines += failures[:MAX_FAILURE_LINES]
    if len(failures) > MAX_FAILURE_LINES:
        lines.append(f"# ... {len(failures) - MAX_FAILURE_LINES} more in the report")
    lines.append(f"# report: {report['path']}")
    return lines


def preflight() -> None:
    for need in (ROOT / "src" / "multinoise" / "__init__.py",
                 ROOT / "configs" / "catalog_linear.json",
                 workloads.REFERENCE_PATH):
        if not need.is_file():
            raise BenchError(f"{need} is missing: run inside a multinoise checkout")


# -- self-test ------------------------------------------------------------------

def _check_result(result: dict, units: dict) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1
            and isinstance(result.get("failed"), int)):
        problems.append("attempted/failed are not whole counts")
    metrics = result.get("metrics", {})
    if set(metrics) != set(units):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(units))}")
    for name, unit in units.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"metric {name} = {entry}")
    return problems


def self_test() -> int:
    """Quick checks of the harness itself; no timing bounds."""
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    for key, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != units:
            problems.append(f"BENCHMARK.json {key} differs from the harness: "
                            f"{sorted(set(declared.items()) ^ set(units.items()))}")

    result, _ = measure("quick", 3, 0, trace=False)
    problems += [f"quick: {p}" for p in _check_result(result, END_TO_END)]
    if not result["correct"]:
        problems.append("quick outputs failed verification")

    counters = []
    for _ in range(2):
        result, report = measure("quick", 5, 0, trace=True)
        problems += [f"quick traced: {p}" for p in _check_result(result, PER_LAYER)]
        if not result["correct"]:
            problems.append("quick traced outputs failed verification")
        if report["traced"]["unwrapped"]:
            problems.append(f"unwrapped: {report['traced']['unwrapped']}")
        values = {k: m["value"] for k, m in result["metrics"].items()}
        idle = [span for span, fields in SPAN_FIELDS.items()
                if not values[f"{span}.{fields[0]}"]]
        if idle:
            problems.append(f"spans that recorded nothing: {idle}")
        counters.append({k: v for k, v in values.items()
                         if k.rsplit(".", 1)[-1] in COUNTER_FIELDS})
    if counters[0] != counters[1]:
        diff = {k: (counters[0][k], counters[1].get(k)) for k in counters[0]
                if counters[0][k] != counters[1].get(k)}
        problems.append(f"counters differ between two traced runs: {diff}")

    result, report = measure("negative-control", 7, 0, trace=False)
    exits = [r["exit"] for op in report["ops"] for r in op["commands"]]
    if result["correct"] or result["failed"] != result["attempted"]:
        problems.append("negative control was not classified as failed")
    if set(exits) != {workloads.EXIT_INVARIANT}:
        problems.append(f"negative control exit codes {exits}, expected 5")

    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the harness in quick mode and exit")
    args = parser.parse_args(argv)
    try:
        preflight()
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        result, report = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print("\n".join(summary_lines(report)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
