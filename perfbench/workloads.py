"""Workloads: the configs they feed the CLI, their commands, and output checks.

One op is a workload's fixed command sequence; every command gets the
workload seed as ``--seed``.  Generated configs are written into the run's
work directory and derived from the shipped ``configs/``; the program itself
only ever sees CLI arguments and config files.

Every command's exit code and artifacts are checked against values captured
at the seed commit (``reference.json``, written by ``capture_reference.py``)
within the tolerances the program already uses: its ``assert_rel``, the
``rel_diff`` denominator of the gamma table, and ``expansion.ERROR_FLOOR``.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

GAMMA_FLOOR = 1e-10   # denominator floor of the program's gamma rel_diff
ERROR_FLOOR = 1e-13   # expansion.ERROR_FLOOR: errors below it are noise
EXIT_OK, EXIT_INVARIANT = 0, 5

NAMES = ("rep-acceptance", "shipped-studies", "expansion-linear")
COMMANDS = ("gamma", "rep-check", "kernel-check", "corr-check")

# acceptance size of the representation checks (ROADMAP baseline)
REP_TRUNCATION = {"basis_size": 6, "particle_cap": 4, "sector_max": 3}
REP_PAIRS = 50
# smallest size at which every suite runs and the negative control fails: the
# 6-letter Fock-Wick words need three particles, and with fewer than four
# basis functions the pairing matrices are symmetric, so transposing them
# (the injected fault) would change nothing
QUICK_TRUNCATION = {"basis_size": 4, "particle_cap": 3, "sector_max": 1}
QUICK_PAIRS = 2
LAMBDA_POINTS = 8

SHIPPED = (("gamma", "catalog_linear"), ("gamma", "catalog_quadratic"),
           ("kernel-check", "kernel_linear"),
           ("kernel-check", "kernel_quadratic"),
           ("corr-check", "corr_quadratic"))


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


@dataclass(frozen=True)
class Command:
    """One CLI invocation of an op and what its output must match."""

    command: str
    config: Path
    label: str

    def argv(self, out_dir: Path, seed: int) -> list[str]:
        return [self.command, "--config", str(self.config), "--out",
                str(out_dir), "--seed", str(seed)]


def _linear_catalog(**changes) -> dict:
    raw = json.loads((CONFIGS / "catalog_linear.json").read_text())
    raw.update(changes)
    return raw


def _write(config_dir: Path, name: str, raw: dict) -> Path:
    config_dir.mkdir(parents=True, exist_ok=True)
    path = config_dir / f"{name}.json"
    path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
    return path


def draw_lambda_grid(seed: int, count: int, candidates) -> list[float]:
    """``count`` distinct points of the log-spaced candidate list, decreasing.

    The candidates are a fixed log-uniform grid on [0.12, 0.55], so every
    drawn point has a reference value captured at the seed commit.
    """
    rng = random.Random(seed)
    return sorted(rng.sample(list(candidates), count), reverse=True)


def build(workload: str, seed: int, config_dir: Path,
          reference: dict) -> list[Command]:
    """The command sequence of one op; writes the generated configs."""
    if workload == "rep-acceptance":
        path = _write(config_dir, "rep_acceptance", _linear_catalog(
            truncation=REP_TRUNCATION, rep_pairs=REP_PAIRS, seed=seed))
        return [Command("rep-check", path, "rep-check:acceptance")]
    if workload == "shipped-studies":
        return [Command(cmd, CONFIGS / f"{name}.json", f"{cmd}:{name}")
                for cmd, name in SHIPPED]
    if workload == "expansion-linear":
        grid = draw_lambda_grid(seed, LAMBDA_POINTS,
                                reference["linear_lambda_candidates"])
        path = _write(config_dir, "expansion_linear", _linear_catalog(
            orders=[0, 1], lambda_grid=grid, seed=seed))
        return [Command("kernel-check", path, "kernel-check:expansion_linear"),
                Command("corr-check", path, "corr-check:expansion_linear")]
    # small variants for the harness self-test: every layer, in seconds
    if workload == "quick":
        rep = _write(config_dir, "quick_rep", _linear_catalog(
            truncation=QUICK_TRUNCATION, rep_pairs=QUICK_PAIRS, seed=seed))
        grid = draw_lambda_grid(seed, 3, reference["linear_lambda_candidates"])
        expansion = _write(config_dir, "quick_expansion", _linear_catalog(
            orders=[0, 1], lambda_grid=grid, seed=seed))
        return [Command("gamma", CONFIGS / "catalog_linear.json",
                        "gamma:catalog_linear"),
                Command("rep-check", rep, "rep-check:quick"),
                Command("kernel-check", expansion, "kernel-check:quick"),
                Command("corr-check", expansion, "corr-check:quick")]
    if workload == "negative-control":
        path = _write(config_dir, "negative_control", _linear_catalog(
            truncation=QUICK_TRUNCATION, rep_pairs=QUICK_PAIRS, seed=seed,
            fault_injection="transpose_pairing"))
        return [Command("rep-check", path, "rep-check:negative-control")]
    raise ValueError(f"unknown workload {workload!r}")


# -- output checks ---------------------------------------------------------------

def _close(value: complex, ref: complex, rel: float, floor: float) -> bool:
    return abs(value - ref) <= rel * (abs(ref) + floor)


def _check_gamma(out: Path, raw: dict, ref: dict, name: str) -> list[str]:
    rows = list(csv.DictReader((out / "gamma.csv").read_text().splitlines()))
    rel = raw["tolerances"]["assert_rel"]
    expected = {int(n): (osc, shell) for n, osc, shell in ref["gamma"][name]}
    problems = []
    if sorted(int(r["n"]) for r in rows) != sorted(int(n) for n in raw["orders"]):
        problems.append("gamma.csv orders differ from the config")
    for row in rows:
        osc, shell = expected.get(int(row["n"]), (None, None))
        if osc is None:
            problems.append(f"gamma n={row['n']} has no reference")
            continue
        for key, want in (("gamma_osc", osc), ("gamma_shell", shell)):
            if not _close(float(row[key]), want, rel, GAMMA_FLOOR):
                problems.append(f"{key} n={row['n']} = {row[key]}, "
                                f"reference {want!r}")
    return problems


def _check_expansion(out: Path, stem: str, raw: dict,
                     ref_points: list) -> list[str]:
    rel = raw["tolerances"]["assert_rel"]
    expected = {(lam, n): (complex(a, b), complex(c, d))
                for lam, n, a, b, c, d in ref_points}
    rows = list(csv.DictReader(
        (out / f"{stem}_points.csv").read_text().splitlines()))
    problems = []
    want_keys = {(float(lam), int(n)) for n in raw["orders"]
                 for lam in raw["lambda_grid"]}
    got_keys = {(float(r["lambda"]), int(r["N"])) for r in rows}
    if got_keys != want_keys:
        problems.append(f"{stem}_points.csv covers other (lambda, N) points")
    for r in rows:
        key = (float(r["lambda"]), int(r["N"]))
        if key not in expected:
            problems.append(f"{stem} point {key} has no reference")
            continue
        lhs = complex(float(r["lhs_re"]), float(r["lhs_im"]))
        rhs = complex(float(r["rhs_re"]), float(r["rhs_im"]))
        for what, value, want in (("lhs", lhs, expected[key][0]),
                                  ("rhs", rhs, expected[key][1])):
            if not _close(value, want, rel, ERROR_FLOOR):
                problems.append(f"{stem} {what} at {key} = {value!r}, "
                                f"reference {want!r}")
    rates = json.loads((out / f"{stem}_rates.json").read_text())
    if sorted(e["order"] for e in rates) != sorted(raw["orders"]):
        problems.append(f"{stem}_rates.json orders differ from the config")
    problems += [f"{stem} rate N={e['order']} does not pass"
                 for e in rates if e.get("passes") is not True]
    return problems


def _check_rep(out: Path, raw: dict, ref: dict, seed: int) -> list[str]:
    report = json.loads((out / "rep_check.json").read_text())
    problems = []
    if report.get("passes") is not True:
        problems.append(f"rep_check.json fails: {report.get('failures')}")
    if report.get("thresholds") != ref["thresholds"]:
        problems.append("rep_check.json thresholds differ from checks.THRESHOLDS"
                        " at the seed commit")
    trunc = raw["truncation"]
    want = {"seed": seed, "pairs": raw["rep_pairs"], **trunc}
    for key, value in want.items():
        if report.get(key) != value:
            problems.append(f"rep_check.json {key} = {report.get(key)!r}, "
                            f"expected {value!r}")
    return problems


def check(cmd: Command, exit_code: int, out: Path, seed: int,
          ref: dict) -> list[str]:
    """Problems with one command's result; empty when it is correct."""
    problems = []
    if exit_code != EXIT_OK:
        problems.append(f"exit code {exit_code}")
    raw = json.loads(cmd.config.read_text())
    name = cmd.config.stem
    try:
        if cmd.command == "gamma":
            problems += _check_gamma(out, raw, ref, name)
        elif cmd.command == "rep-check":
            problems += _check_rep(out, raw, ref, seed)
        else:
            stem = "kernel" if cmd.command == "kernel-check" else "corr"
            points = ref["points"].get(name, ref["linear_points"][stem])
            problems += _check_expansion(out, stem, raw, points)
    except (OSError, ValueError, KeyError, TypeError, csv.Error) as exc:
        problems.append(f"unreadable artifacts: {type(exc).__name__}: {exc}")
    return problems
