"""Capture the reference values the benchmark checks outputs against.

    python3 perfbench/capture_reference.py

Run once at the commit whose outputs are the reference; it rewrites
``perfbench/reference.json`` with:

* ``thresholds``: ``multinoise.checks.THRESHOLDS``;
* ``gamma``: rows ``[n, gamma_osc, gamma_shell]`` of the two shipped catalogs;
* ``points``: rows ``[lambda, N, lhs_re, lhs_im, rhs_re, rhs_im]`` of the
  shipped kernel/corr configs;
* ``linear_lambda_candidates`` and ``linear_points``: the log-spaced lambda
  candidates the expansion-linear workload draws its grid from, and the
  kernel/corr points of the linear catalog (orders 0 and 1) at every one.

Each value depends only on its own (lambda, N), not on the rest of the grid,
so the references hold for any drawn subset.
"""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads
from run import WORK, child_env, git_state

CANDIDATES = 48
LAMBDA_MAX, LAMBDA_MIN = 0.55, 0.12


def candidates() -> list[float]:
    ratio = math.log(LAMBDA_MIN / LAMBDA_MAX) / (CANDIDATES - 1)
    return [float(f"{LAMBDA_MAX * math.exp(i * ratio):.6g}")
            for i in range(CANDIDATES)]


def run_cli(command: str, config: Path, out: Path) -> None:
    subprocess.run([sys.executable, "-m", "multinoise.cli", command,
                    "--config", str(config), "--out", str(out)],
                   env=child_env(), check=True, stdout=subprocess.DEVNULL)


def read_rows(path: Path) -> list[dict]:
    return list(csv.DictReader(path.read_text().splitlines()))


def point_rows(path: Path) -> list[list]:
    return [[float(r["lambda"]), int(r["N"]), float(r["lhs_re"]),
             float(r["lhs_im"]), float(r["rhs_re"]), float(r["rhs_im"])]
            for r in read_rows(path)]


def main() -> int:
    env = child_env()
    probe = ("import json; from multinoise.checks import THRESHOLDS; "
             "print(json.dumps(THRESHOLDS))")
    thresholds = json.loads(subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True,
        capture_output=True, text=True).stdout)
    ref: dict = {"captured_at": git_state(), "thresholds": thresholds,
                 "gamma": {}, "points": {}}
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = Path(tmp)
        for command, name in workloads.SHIPPED:
            out = tmp / name
            run_cli(command, workloads.CONFIGS / f"{name}.json", out)
            if command == "gamma":
                ref["gamma"][name] = [
                    [int(r["n"]), float(r["gamma_osc"]), float(r["gamma_shell"])]
                    for r in read_rows(out / "gamma.csv")]
            else:
                stem = command.split("-")[0]
                ref["points"][name] = point_rows(out / f"{stem}_points.csv")
        grid = candidates()
        raw = json.loads((workloads.CONFIGS / "catalog_linear.json").read_text())
        raw.update(orders=[0, 1], lambda_grid=grid)
        config = tmp / "linear_candidates.json"
        config.write_text(json.dumps(raw))
        ref["linear_lambda_candidates"] = grid
        ref["linear_points"] = {}
        for command, stem in (("kernel-check", "kernel"), ("corr-check", "corr")):
            run_cli(command, config, tmp / stem)
            ref["linear_points"][stem] = point_rows(tmp / stem / f"{stem}_points.csv")
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
