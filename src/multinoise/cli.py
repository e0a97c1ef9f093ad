"""Batch command line front end.

    multinoise <gamma|rep-check|kernel-check|corr-check> --config PATH
               [--out DIR] [--seed INT] [--force]

kernel-check is corr-check's expansion study on the two-letter word.  Exit
codes: 0 success, 2 bad or unreadable config or unwritable output, 3 support
condition failed, 4 oracle or computation mismatch, 5 representation
invariant violated, 6 rate criterion failed; any other error, a numpy
overflow, division by zero or invalid value among them (FloatingPointFault),
ends with exit 4 and one stderr line naming its type.  Artifacts are written
to a temporary file and renamed into place, so a failing run never leaves
partial files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .config import StudyConfig, load_config
from .errors import ConfigError, FloatingPointFault, SupportConditionFailed
from .expansion import correlation_error, fit_rate
from .gamma import check_support, gamma_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SUPPORT = 3
EXIT_ORACLE = 4
EXIT_INVARIANT = 5
EXIT_RATE = 6

# expansion study per command: artifact stem and the word's letter signs,
# smeared by the config's first len(signs) smears
EXPANSION_STUDIES = {"kernel-check": ("kernel", (-1, +1)),
                     "corr-check": ("corr", (-1, -1, +1, +1))}


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _gate_on_support(cfg: StudyConfig, force: bool) -> None:
    try:
        check_support(cfg.dispersion, cfg.form_factor)
    except SupportConditionFailed as exc:
        if not force:
            raise
        print(f"support condition failed: {exc}; continuing under --force",
              file=sys.stderr)


def _expansion_csv(points) -> str:
    lines = ["lambda,N,lhs_re,lhs_im,rhs_re,rhs_im,abs_error"]
    for p in points:
        lines.append(
            f"{p.lam:.17g},{p.order},{p.lhs.real:.17g},{p.lhs.imag:.17g},"
            f"{p.rhs.real:.17g},{p.rhs.imag:.17g},{p.abs_error:.17g}")
    return "\n".join(lines) + "\n"


def cmd_gamma(cfg: StudyConfig, force: bool) -> int:
    if not cfg.orders:
        raise ConfigError("gamma study needs a nonempty orders list")
    _gate_on_support(cfg, force)
    table = gamma_table(cfg.dispersion, cfg.form_factor, cfg.orders)
    _write_text(Path(cfg.out_dir) / "gamma.csv", table.to_csv_text())
    table.check(cfg.assert_rel)
    print(f"gamma table written for orders {list(cfg.orders)}; "
          f"max rel_diff {table.max_rel_diff():.3g}")
    return EXIT_OK


def cmd_rep_check(cfg: StudyConfig) -> int:
    # imported here: the other commands never load the representation suites
    from .checks import run_representation_checks
    report = run_representation_checks(
        sector_max=cfg.sector_max, basis_size=cfg.basis_size,
        particle_cap=cfg.particle_cap, seed=cfg.seed, pairs=cfg.rep_pairs,
        fault_injection=cfg.fault_injection)
    _write_text(Path(cfg.out_dir) / "rep_check.json", _json_text(report))
    if not report["passes"]:
        print(f"representation invariants violated: {report['failures']}",
              file=sys.stderr)
        return EXIT_INVARIANT
    print("representation checks passed; max residual "
          f"{max(report['residuals'].values()):.3g}")
    return EXIT_OK


def cmd_expansion(cfg: StudyConfig, force: bool, command: str) -> int:
    stem, signs = EXPANSION_STUDIES[command]
    if not cfg.orders:
        raise ConfigError(f"{stem} study needs a nonempty orders list")
    if len(cfg.lambda_grid) < 3:
        raise ConfigError("rate fitting needs at least three lambda points")
    if len(cfg.smears) < len(signs):
        raise ConfigError(f"{command} needs at least {len(signs)} smears, "
                          f"got {len(cfg.smears)}")
    _gate_on_support(cfg, force)
    table = gamma_table(cfg.dispersion, cfg.form_factor,
                        range(max(cfg.orders) + 1))
    table.check(cfg.assert_rel)
    by_order = correlation_error(signs, cfg.smears[:len(signs)], cfg.orders,
                                 cfg.lambda_grid, cfg.dispersion,
                                 cfg.form_factor, table.gammas())
    reports = [fit_rate(by_order[n]) for n in sorted(by_order)]

    out = Path(cfg.out_dir)
    points = [p for pts in by_order.values() for p in pts]
    _write_text(out / f"{stem}_points.csv", _expansion_csv(points))
    _write_text(out / f"{stem}_rates.json", _json_text(reports))
    for entry in reports:
        slope_text = ("below floor" if entry["below_floor"]
                      else f"slope {entry['slope']:.3f}")
        print(f"{stem} N={entry['order']}: {slope_text} "
              f"({'pass' if entry['passes'] else 'FAIL'})")
    return EXIT_OK if all(e["passes"] for e in reports) else EXIT_RATE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multinoise",
        description="Multipole-noise studies: gamma tables, representation "
                    "checks and expansion rate certification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gamma", "rep-check", *EXPANSION_STUDIES):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON study config")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="PRNG seed (overrides config)")
        p.add_argument("--force", action="store_true",
                       help="continue past a failed support condition")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {}
        if args.out is not None:
            overrides["output"] = {"directory": args.out}
        if args.seed is not None:
            overrides["seed"] = args.seed
        cfg = load_config(args.config, overrides)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if args.command == "gamma":
                return cmd_gamma(cfg, args.force)
            if args.command == "rep-check":
                return cmd_rep_check(cfg)
            return cmd_expansion(cfg, args.force, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SupportConditionFailed as exc:
        print(f"support condition failed: {exc}", file=sys.stderr)
        return EXIT_SUPPORT
    except Exception as exc:
        if isinstance(exc, FloatingPointError):
            exc = FloatingPointFault(exc)
        message = str(exc).replace("\n", " ")
        print(f"{type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
