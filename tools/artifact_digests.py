"""Print the sha256 of every artifact of a fixed set of CLI runs.

    python tools/artifact_digests.py > digests.txt

Each run is ``python -m multinoise.cli`` on this tree's ``src/``, in a fresh
process whose working directory is a temporary directory that is removed
afterwards, so nothing is written into the tree.  The runs are the five
shipped configs under their own commands, kernel-check and corr-check on
catalog_linear with orders [0, 1] and a fixed 8-point lambda grid, and
rep-check on catalog_linear at four seeds.  Every path a run sees is
relative to its working directory, so its output does not depend on where
the temporary directory lies.  Per run the script prints

    exit <code> <command> <config>
    <sha256> <command> <config> <artifact>

with stdout and stderr counted as artifacts.

The failure-path runs follow: the support gate without and with --force, a
form factor of two cancelling atoms that only the gate refuses (with
--force), assert_rel 1e-16 under gamma and kernel-check, --seed -1,
--out "", and empty orders under gamma, kernel-check and corr-check.  Each
runs in a working directory of its own, without --out unless the run is
about it, so a run that writes into its working directory shows.  Per run
the script prints the exit line, the stdout digest, every stderr line as

    stderr <command> <config>: <line>

and the digest of every file the run wrote.

Diff the output of two trees to see which bytes a change shifted; run one
copy of this script from both checkouts.  Digests can change with the numpy
and BLAS build, so compare trees on one machine and one environment.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SHIPPED = (("gamma", "catalog_linear"), ("gamma", "catalog_quadratic"),
           ("kernel-check", "kernel_linear"),
           ("kernel-check", "kernel_quadratic"),
           ("corr-check", "corr_quadratic"))
LAMBDA_GRID = (0.55, 0.44, 0.36, 0.3, 0.25, 0.2, 0.16, 0.12)
REP_SEEDS = (20240711, 1, 2, 3)


def _runs(config_dir: Path):
    """(command, config label, config path, extra arguments) of every run."""
    for command, name in SHIPPED:
        yield command, name, config_dir / f"{name}.json", []
    raw = json.loads((config_dir / "catalog_linear.json").read_text())
    raw.update(orders=[0, 1], lambda_grid=list(LAMBDA_GRID))
    grid = config_dir / "linear_grid8.json"
    grid.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
    for command in ("kernel-check", "corr-check"):
        yield command, "linear_grid8", grid, []
    for seed in REP_SEEDS:
        yield ("rep-check", f"catalog_linear@seed={seed}",
               config_dir / "catalog_linear.json", ["--seed", str(seed)])


def _gaussian_atom(scale: float, center: float, width: float) -> dict:
    """scale times the unit-L2-norm Gaussian atom, as config JSON."""
    return {"coefficient_re": scale * math.pi ** -0.25 / math.sqrt(width),
            "coefficient_im": 0.0, "center": center, "width": width,
            "modulation": 0.0, "poly": [[1.0, 0.0]]}


def _failure_runs(config_dir: Path):
    """(command, config label, config path, extra arguments) of every run
    that a gate or a check refuses, or that --force pushes past the gate."""
    def variant(base: str, label: str, **changes) -> Path:
        raw = json.loads((config_dir / f"{base}.json").read_text())
        raw.update(changes)
        path = config_dir / f"{label}.json"
        path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
        return path

    # a stationary point of omega (k = 0) inside the form factor's support
    support = variant("catalog_quadratic", "support_gate",
                      form_factor=[_gaussian_atom(1.0, 0.0, 1.0)])
    # each atom reaches k = 0, their difference does not: |g(0)|^2 = 3.7e-15
    alarm = variant("catalog_quadratic", "false_alarm",
                    form_factor=[_gaussian_atom(1e4, 2.5, 0.4),
                                 _gaussian_atom(-1e4, 2.5001, 0.4)])
    linear = config_dir / "catalog_linear.json"
    yield "gamma", "support_gate", support, []
    yield "gamma", "support_gate@force", support, ["--force"]
    yield "gamma", "false_alarm@force", alarm, ["--force"]
    for command, base in (("gamma", "catalog_linear"),
                          ("kernel-check", "kernel_linear")):
        tight = variant(base, f"{base}_tight",
                        tolerances={"assert_rel": 1e-16})
        yield command, f"{base}@assert_rel=1e-16", tight, []
    yield "rep-check", "catalog_linear@seed=-1", linear, ["--seed", "-1"]
    yield "gamma", 'catalog_linear@out=""', linear, ["--out", ""]
    for command, base in (("gamma", "catalog_linear"),
                          ("kernel-check", "kernel_linear"),
                          ("corr-check", "corr_quadratic")):
        empty = variant(base, f"{base}_no_orders", orders=[])
        yield command, f"{base}@orders=[]", empty, []


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(prefix="artifact-digests-") as tmp:
        work = Path(tmp)
        config_dir = work / "configs"
        config_dir.mkdir()
        for path in (ROOT / "configs").glob("*.json"):
            (config_dir / path.name).write_bytes(path.read_bytes())
        for i, (command, label, config, extra) in enumerate(_runs(config_dir)):
            out = Path("out") / str(i)
            proc = _run(work, command, config, ["--out", str(out), *extra], env)
            print(f"exit {proc.returncode} {command} {label}")
            print(f"{_sha(proc.stdout)} {command} {label} stdout")
            print(f"{_sha(proc.stderr)} {command} {label} stderr")
            _print_artifacts(work / out, f"{command} {label}")
        for i, (command, label, config, extra) in enumerate(
                _failure_runs(config_dir)):
            cwd = work / "fail" / str(i)
            cwd.mkdir(parents=True)
            proc = _run(cwd, command, config, extra, env)
            print(f"exit {proc.returncode} {command} {label}")
            print(f"{_sha(proc.stdout)} {command} {label} stdout")
            for line in proc.stderr.decode().splitlines():
                print(f"stderr {command} {label}: {line}")
            _print_artifacts(cwd, f"{command} {label}")
    return 0


def _run(cwd: Path, command: str, config: Path, extra: list[str], env):
    """One CLI process in ``cwd``, given the config by a relative path."""
    return subprocess.run(
        [sys.executable, "-m", "multinoise.cli", command, "--config",
         os.path.relpath(config, cwd), *extra],
        cwd=cwd, env=env, capture_output=True)


def _print_artifacts(root: Path, run: str) -> None:
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        print(f"{_sha(path.read_bytes())} {run} {path.relative_to(root)}")


if __name__ == "__main__":
    sys.exit(main())
