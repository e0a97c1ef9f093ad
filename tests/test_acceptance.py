"""Acceptance criteria for the whole package, one verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they are produced.  Every tolerance is fixed here, not configurable.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import multinoise as mn
from multinoise.checks import run_representation_checks
from multinoise.config import DEFAULT_WORD_SMEARS
from multinoise.errors import BelowFloor

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
LAMBDA_GRID = (0.5, 0.35, 0.25, 0.15)
SEED = 20240711


def verdict(num: int, description: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description} "
          f"({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def rep_report():
    return run_representation_checks(sector_max=3, basis_size=6,
                                     particle_cap=4, seed=SEED, pairs=50)


@pytest.fixture(scope="module")
def catalogs():
    return {
        "linear": (mn.LinearDispersion(slope=1.0, offset=0.0), mn.gaussian()),
        "quadratic": (mn.QuadraticDispersion(mass=1.0, offset=2.0),
                      mn.gaussian(center=2.0, width=0.35)),
    }


@pytest.fixture(scope="module")
def gamma_tables(catalogs):
    return {name: mn.gamma_table(disp, g, range(4))
            for name, (disp, g) in catalogs.items()}


@pytest.fixture(scope="module")
def kernel_reports(catalogs, gamma_tables):
    out = {}
    for name, (disp, g) in catalogs.items():
        gammas = gamma_tables[name].gammas()
        by_order = mn.correlation_error((-1, +1), DEFAULT_WORD_SMEARS[:2],
                                        (0, 1), LAMBDA_GRID, disp, g, gammas)
        for order, points in by_order.items():
            try:
                out[(name, order)] = mn.fit_rate(points)
            except BelowFloor:
                out[(name, order)] = None
    return out


def test_criterion_1_ccr(rep_report):
    res = rep_report["residuals"]
    worst = max(res["ccr"], res["ccr_creators"], res["ccr_annihilators"])
    verdict(1, "CCR suite, sectors 0..3, M=6, K=4, 50 pairs",
            worst <= 1e-10, f"worst commutator residual {worst:.3e}")


def test_criterion_2_pseudo_adjointness(rep_report):
    res = rep_report["residuals"]["adjoint"]
    verdict(2, "pseudo-adjointness of creation/annihilation",
            res <= 1e-10, f"worst relative defect {res:.3e}")


def test_criterion_3_metric(rep_report):
    res = rep_report["residuals"]
    ok = (res["metric_involution"] == 0.0
          and res["metric_two_route"] <= 1e-8
          and res["metric_witness"] <= 1e-6)
    verdict(3, "metric involution, two-route kernel, -5 witness", ok,
            f"involution {res['metric_involution']:.1e}, "
            f"two-route {res['metric_two_route']:.3e}, "
            f"witness defect {res['metric_witness']:.3e}")


def test_criterion_4_gamma_oracles(gamma_tables):
    worst = max(t.max_rel_diff() for t in gamma_tables.values())
    gamma00 = gamma_tables["linear"].rows[0].gamma_osc
    closed_form = abs(gamma00 - 2 * math.sqrt(math.pi)) / (2 * math.sqrt(math.pi))
    nonneg = min(t.rows[0].gamma_osc for t in gamma_tables.values())
    ok = worst <= 1e-6 and closed_form <= 1e-6 and nonneg >= -1e-12
    verdict(4, "gamma oscillatory vs shell oracle, n <= 3, both catalogs", ok,
            f"max rel diff {worst:.3e}, 2*sqrt(pi) defect {closed_form:.3e}, "
            f"min gamma_0 {nonneg:.6g}")


def test_criterion_5_kernel_rates(kernel_reports):
    details = []
    ok = True
    for (name, order), report in sorted(kernel_reports.items()):
        if report is None:
            details.append(f"{name} N={order}: below floor")
            continue
        threshold = 2 * order + 1.5
        good = report.fitted_slope >= threshold and report.r_squared >= 0.98
        blob = report.to_json_dict()
        good &= blob["alternative_grading"]["expected_slope"] == order + 1
        ok &= good
        details.append(f"{name} N={order}: slope {report.fitted_slope:.2f} "
                       f"(>= {threshold}), r2 {report.r_squared:.4f}")
    verdict(5, "kernel expansion rates with alternative grading emitted",
            ok, "; ".join(details))


def test_criterion_6_four_point_word(catalogs, gamma_tables, rep_report):
    disp, g = catalogs["quadratic"]
    gammas = gamma_tables["quadratic"].gammas()
    points = mn.correlation_error((-1, -1, +1, +1), DEFAULT_WORD_SMEARS, [0],
                                  LAMBDA_GRID, disp, g, gammas)[0]
    report = mn.fit_rate(points)
    fock_wick = rep_report["residuals"]["fock_wick"]
    ok = report.fitted_slope >= 1.5 and fock_wick <= 1e-8
    verdict(6, "four-point word rate and Fock-Wick equivalence", ok,
            f"slope {report.fitted_slope:.2f} (>= 1.5), "
            f"fock-wick residual {fock_wick:.3e}")


def _run_inprocess(args) -> int:
    from multinoise import cli
    return cli.main(args)


def _run_subprocess(args) -> int:
    return subprocess.run([sys.executable, "-m", "multinoise.cli", *args],
                          capture_output=True).returncode


def test_criterion_7_cli_determinism(tmp_path):
    rep_cfg = {
        "dispersion": {"kind": "linear", "slope": 1.0, "offset": 0.0},
        "form_factor": mn.gaussian().to_json_dict(),
        "orders": [0, 1],
        "lambda_grid": [0.5, 0.35, 0.25],
        "truncation": {"basis_size": 4, "particle_cap": 3, "sector_max": 1},
        "seed": SEED,
        "rep_pairs": 6,
    }
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(rep_cfg, sort_keys=True))

    jobs = [
        ("gamma", CONFIG_DIR / "catalog_linear.json", ["gamma.csv"]),
        ("rep-check", rep_path, ["rep_check.json"]),
        ("kernel-check", CONFIG_DIR / "kernel_linear.json",
         ["kernel_points.csv", "kernel_rates.json"]),
        ("corr-check", CONFIG_DIR / "corr_quadratic.json",
         ["corr_points.csv", "corr_rates.json"]),
    ]
    mismatches = []
    for command, config, artifacts in jobs:
        out_a = tmp_path / f"{command}-a"
        out_b = tmp_path / f"{command}-b"
        args = [command, "--config", str(config), "--seed", str(SEED)]
        code_a = _run_inprocess(args + ["--out", str(out_a)])
        code_b = _run_subprocess(args + ["--out", str(out_b)])
        if code_a != code_b:
            mismatches.append(f"{command}: exit {code_a} vs {code_b}")
            continue
        for name in artifacts:
            if (out_a / name).read_bytes() != (out_b / name).read_bytes():
                mismatches.append(f"{command}: {name} differs")
    verdict(7, "byte-identical artifacts for every CLI command",
            not mismatches, "; ".join(mismatches) or "all artifacts identical")
