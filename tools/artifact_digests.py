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

with stdout and stderr counted as artifacts.  Diff the output of two trees
to see which bytes a change shifted.  Digests can change with the numpy and
BLAS build, so compare trees on one machine and one environment.
"""

from __future__ import annotations

import hashlib
import json
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
            proc = subprocess.run(
                [sys.executable, "-m", "multinoise.cli", command, "--config",
                 str(config.relative_to(work)), "--out", str(out), *extra],
                cwd=work, env=env, capture_output=True)
            print(f"exit {proc.returncode} {command} {label}")
            print(f"{_sha(proc.stdout)} {command} {label} stdout")
            print(f"{_sha(proc.stderr)} {command} {label} stderr")
            artifacts = sorted(p for p in (work / out).rglob("*") if p.is_file())
            for path in artifacts:
                print(f"{_sha(path.read_bytes())} {command} {label} "
                      f"{path.relative_to(work / out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
