"""Batch command line front end.

    multinoise <gamma|rep-check|kernel-check|corr-check> --config PATH
               [--out DIR] [--format csv|json] [--seed INT] [--force]

kernel-check is corr-check's expansion study on the two-letter word.  Exit
codes: 0 success, 2 bad or unreadable config or unwritable output, 3 support
condition failed, 4 oracle or computation mismatch, 5 representation
invariant violated, 6 rate criterion failed.  Artifacts are written to a
temporary file and renamed into place, so a failing run never leaves partial
files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from .checks import run_representation_checks
from .config import StudyConfig, load_config
from .errors import (BelowFloor, ConfigError, MultinoiseError,
                     SupportConditionFailed)
from .expansion import correlation_error, fit_rate
from .gamma import GammaTable, check_support, gamma_table

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
    report = check_support(cfg.dispersion, cfg.form_factor, cfg.eps_supp)
    if not report.passes:
        message = (f"stationary points {list(report.stationary_inside)} inside "
                   f"effective support {report.support}")
        if not force:
            raise SupportConditionFailed(message)
        print(f"support condition failed: {message}; continuing under --force",
              file=sys.stderr)


def _expansion_csv(points) -> str:
    lines = ["lambda,N,lhs_re,lhs_im,rhs_re,rhs_im,abs_error"]
    for p in points:
        lines.append(
            f"{p.lam:.17g},{p.order},{p.lhs.real:.17g},{p.lhs.imag:.17g},"
            f"{p.rhs.real:.17g},{p.rhs.imag:.17g},{p.abs_error:.17g}")
    return "\n".join(lines) + "\n"


def _fit_reports(points_by_order) -> tuple[list[dict], bool]:
    reports, all_pass = [], True
    for order in sorted(points_by_order):
        pts = points_by_order[order]
        entry: dict = {"order": order}
        try:
            report = fit_rate(pts)
        except BelowFloor:
            entry.update({"below_floor": True, "passes": True,
                          "grading": "lambda^(2n)"})
        else:
            entry.update(report.to_json_dict())
            entry["below_floor"] = False
            entry["passes"] = report.fitted_slope >= entry["slope_threshold"]
        reports.append(entry)
        all_pass = all_pass and entry["passes"]
    return reports, all_pass


def _oracle_agrees(table: GammaTable, assert_rel: float) -> bool:
    """False, after one stderr line, when the two gamma routes disagree."""
    worst = table.max_rel_diff()
    if worst > assert_rel:
        print(f"gamma oracle mismatch: max rel_diff {worst:.3g} exceeds "
              f"{assert_rel:g}", file=sys.stderr)
        return False
    return True


def cmd_gamma(cfg: StudyConfig, force: bool) -> int:
    if not cfg.orders:
        raise ConfigError("gamma study needs a nonempty orders list")
    _gate_on_support(cfg, force)
    table = gamma_table(cfg.dispersion, cfg.form_factor, cfg.orders)
    out = Path(cfg.out_dir)
    if cfg.out_format == "json":
        rows = [{"n": r.n, "gamma_osc": r.gamma_osc, "gamma_shell": r.gamma_shell,
                 "rel_diff": r.rel_diff} for r in table.rows]
        _write_text(out / "gamma.json", _json_text(rows))
    else:
        _write_text(out / "gamma.csv", table.to_csv_text())
    if not _oracle_agrees(table, cfg.assert_rel):
        return EXIT_ORACLE
    print(f"gamma table written for orders {list(cfg.orders)}; "
          f"max rel_diff {table.max_rel_diff():.3g}")
    return EXIT_OK


def cmd_rep_check(cfg: StudyConfig) -> int:
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
    if not _oracle_agrees(table, cfg.assert_rel):
        return EXIT_ORACLE
    by_order = correlation_error(signs, cfg.smears[:len(signs)], cfg.orders,
                                 cfg.lambda_grid, cfg.dispersion,
                                 cfg.form_factor, table.gammas())
    reports, all_pass = _fit_reports(by_order)

    out = Path(cfg.out_dir)
    points = [p for pts in by_order.values() for p in pts]
    _write_text(out / f"{stem}_points.csv", _expansion_csv(points))
    _write_text(out / f"{stem}_rates.json", _json_text(reports))
    for entry in reports:
        slope_text = ("below floor" if entry["below_floor"]
                      else f"slope {entry['slope']:.3f}")
        print(f"{stem} N={entry['order']}: {slope_text} "
              f"({'pass' if entry['passes'] else 'FAIL'})")
    return EXIT_OK if all_pass else EXIT_RATE


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
        p.add_argument("--format", choices=("csv", "json"),
                       help="artifact format (overrides config)")
        p.add_argument("--seed", type=int, help="PRNG seed (overrides config)")
        p.add_argument("--force", action="store_true",
                       help="continue past a failed support condition")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg.out_dir = args.out
        if args.format is not None:
            cfg.out_format = args.format
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed must be nonnegative")
            cfg.seed = args.seed

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
    except MultinoiseError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
