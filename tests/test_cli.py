"""Command line front end: exit codes, artifacts, determinism."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multinoise
from multinoise import cli, expansion
from multinoise.atoms import gaussian
from multinoise.config import load_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# a nonempty atom list whose every coefficient is zero
ZERO_SMEAR = [dict(gaussian().to_json_dict()[0], coefficient_re=0.0)]


def write_config(tmp_path, name="cfg.json", **overrides):
    base = {
        "dispersion": {"kind": "linear", "slope": 1.0, "offset": 0.0},
        "form_factor": gaussian().to_json_dict(),
        "orders": [0, 1],
        "lambda_grid": [0.5, 0.35, 0.25, 0.15],
        "truncation": {"basis_size": 4, "particle_cap": 3, "sector_max": 1},
        "tolerances": {"quad_abs": 1e-14, "quad_rel": 1e-11, "assert_rel": 1e-6},
        "seed": 7,
        "rep_pairs": 6,
        "output": {"directory": str(tmp_path / "out"), "format": "csv"},
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base, sort_keys=True))
    return path


def test_missing_config_file_is_config_error(tmp_path):
    assert cli.main(["gamma", "--config", str(tmp_path / "nope.json")]) == 2


def test_invalid_json_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["gamma", "--config", str(bad)]) == 2


def _assert_one_line_refusal(capsys, tmp_path, keep):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    assert "Traceback" not in err[0]
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(keep)


def test_directory_config_is_config_error(tmp_path, capsys):
    (tmp_path / "cfg.json").mkdir()
    assert cli.main(["gamma", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "out")]) == 2
    _assert_one_line_refusal(capsys, tmp_path, ["cfg.json"])


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"orders": [0], "note": "\xff\xfe"}')
    assert cli.main(["gamma", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
    _assert_one_line_refusal(capsys, tmp_path, ["bad.json"])


def test_output_under_a_regular_file_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    assert cli.main(["kernel-check", "--config", str(cfg),
                     "--out", str(blocker / "out")]) == 2
    _assert_one_line_refusal(capsys, tmp_path, ["blocker", "cfg.json"])
    assert blocker.read_text() == "not a directory\n"


def test_empty_orders_rejected_for_gamma(tmp_path):
    cfg = write_config(tmp_path, orders=[])
    assert cli.main(["gamma", "--config", str(cfg)]) == 2


def test_increasing_lambda_grid_rejected(tmp_path):
    cfg = write_config(tmp_path, lambda_grid=[0.1, 0.2, 0.3])
    assert cli.main(["gamma", "--config", str(cfg)]) == 2


def test_short_lambda_grid_rejected_for_rate_studies(tmp_path):
    cfg = write_config(tmp_path, lambda_grid=[0.5, 0.25])
    assert cli.main(["kernel-check", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("command, overrides", [
    ("gamma", {"orders": [7]}),
    ("kernel-check", {"orders": [7]}),
    ("gamma", {"orders": ["a"]}),
    ("gamma", {"orders": [True]}),
    ("gamma", {"orders": [1.5]}),
    ("kernel-check", {"lambda_grid": [math.inf, 0.35, 0.25, 0.15]}),
    ("gamma", {"eps_supp": 0}),
    ("gamma", {"eps_supp": 2.0}),
    ("gamma", {"truncation": {"basis_size": "x"}}),
    ("rep-check", {"truncation": {"particle_cap": 2.5}}),
    ("rep-check", {"truncation": {"sector_max": True}}),
    ("gamma", {"truncation": [4, 3, 1]}),
    ("rep-check", {"seed": "x"}),
    ("rep-check", {"seed": -1}),
    ("rep-check", {"rep_pairs": 0}),
    ("gamma", {"tolerances": {"assert_rel": "x"}}),
    ("gamma", {"tolerances": {"assert_rel": math.inf}}),
    ("gamma", {"tolerances": [1e-6]}),
    ("gamma", {"output": "out"}),
    ("gamma", {"dispersion": ["linear"]}),
    ("gamma", {"dispersion": {"kind": "linear", "dimension": "x"}}),
    ("gamma", {"dispersion": {"kind": "linear", "slope": None}}),
    ("gamma", {"dispersion": {"kind": "quadratic", "mass": "heavy"}}),
    ("kernel-check", {"orders": [0, 0]}),
    ("corr-check", {"orders": [1, 0, 1]}),
    ("kernel-check", {"smears": [ZERO_SMEAR] * 4}),
    ("corr-check", {"smears": [ZERO_SMEAR] * 4}),
    ("gamma", {"form_factor": ZERO_SMEAR}),
    ("kernel-check", {"form_factor": ZERO_SMEAR}),
    ("corr-check", {"form_factor": ZERO_SMEAR}),
    ("kernel-check", {"smears": [gaussian().to_json_dict()]}),
    ("corr-check", {"smears": [gaussian().to_json_dict()] * 3}),
], ids=["order-7-gamma", "order-7-kernel", "order-string", "order-bool",
        "order-fraction", "lambda-infinite", "eps-supp-0", "eps-supp-2",
        "basis-size-string", "particle-cap-fraction", "sector-max-bool",
        "truncation-list", "seed-string", "seed-negative", "rep-pairs-0",
        "assert-rel-string", "assert-rel-infinite", "tolerances-list",
        "output-string", "dispersion-list", "dimension-string", "slope-null",
        "mass-string", "orders-repeat-kernel", "orders-repeat-corr",
        "zero-smears-kernel", "zero-smears-corr", "zero-form-factor-gamma",
        "zero-form-factor-kernel", "zero-form-factor-corr",
        "short-smears-kernel", "short-smears-corr"])
def test_malformed_config_values_exit_2(tmp_path, capsys, command,
                                        overrides):
    cfg = write_config(tmp_path, **overrides)
    assert cli.main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert not (tmp_path / "out").exists()


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["rep-check", "--config", str(cfg), "--seed", "-1"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: seed must be nonnegative"]
    assert not (tmp_path / "out").exists()


IMPORT_GUARD = """
import sys
from multinoise import cli
for command, name in (("gamma", "catalog_linear"),
                      ("kernel-check", "kernel_linear"),
                      ("corr-check", "corr_quadratic")):
    code = cli.main([command, "--config", f"{sys.argv[1]}/{name}.json",
                     "--out", f"{sys.argv[2]}/{name}"])
    assert code == 0, (command, code)
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_gamma_and_kernel_check_run_without_scipy(tmp_path):
    """scipy is imported only where adaptive quadrature or erfcx is needed.

    Runs in a fresh interpreter, since this one has scipy loaded already.
    """
    package_root = str(Path(multinoise.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(CONFIG_DIR), str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"


def test_gamma_writes_table_and_succeeds(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["gamma", "--config", str(cfg)]) == 0
    text = (tmp_path / "out" / "gamma.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "n,gamma_osc,gamma_shell,rel_diff"
    assert len(lines) == 3
    # linear catalog rows: gamma_0 = 2 sqrt(pi), gamma_1 = 0 by symmetry
    row0 = lines[1].split(",")
    assert float(row0[1]) == pytest.approx(2 * math.sqrt(math.pi), rel=1e-8)
    assert float(lines[2].split(",")[1]) == 0.0


def test_gamma_json_format(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["gamma", "--config", str(cfg), "--format", "json"]) == 0
    rows = json.loads((tmp_path / "out" / "gamma.json").read_text())
    assert [r["n"] for r in rows] == [0, 1]


def test_support_failure_exits_3_without_force(tmp_path):
    cfg = write_config(
        tmp_path,
        dispersion={"kind": "quadratic", "mass": 1.0, "offset": 2.0},
        form_factor=gaussian(width=1.0).to_json_dict())
    assert cli.main(["gamma", "--config", str(cfg)]) == 3
    # --force pushes past the gate; the computation then fails loudly
    # (stationary phase point), mapped to the oracle exit code
    assert cli.main(["gamma", "--config", str(cfg), "--force"]) == 4


def test_rep_check_passes_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["rep-check", "--config", str(cfg)]) == 0
    first = (tmp_path / "out" / "rep_check.json").read_bytes()
    report = json.loads(first)
    assert report["passes"] and report["seed"] == 7
    assert cli.main(["rep-check", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "rep_check.json").read_bytes() == first


def test_rep_check_fault_injection_caught(tmp_path):
    cfg = write_config(tmp_path, fault_injection="transpose_pairing")
    assert cli.main(["rep-check", "--config", str(cfg)]) == 5
    report = json.loads((tmp_path / "out" / "rep_check.json").read_text())
    assert not report["passes"] and report["failures"]


def test_seed_override_lands_in_report(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["rep-check", "--config", str(cfg), "--seed", "99"]) == 0
    report = json.loads((tmp_path / "out" / "rep_check.json").read_text())
    assert report["seed"] == 99


def test_kernel_check_passes_on_linear_catalog(tmp_path):
    out = tmp_path / "k"
    assert cli.main(["kernel-check", "--config",
                     str(CONFIG_DIR / "kernel_linear.json"),
                     "--out", str(out)]) == 0
    points = (out / "kernel_points.csv").read_text().strip().split("\n")
    assert points[0] == "lambda,N,lhs_re,lhs_im,rhs_re,rhs_im,abs_error"
    assert len(points) == 1 + 2 * 4  # two orders, four lambdas
    rates = json.loads((out / "kernel_rates.json").read_text())
    assert all(r["passes"] for r in rates)
    assert all("alternative_grading" in r for r in rates if not r["below_floor"])


def test_kernel_check_rate_failure_exits_6(tmp_path):
    # outside the asymptotic regime the fitted slope drops under 2N + 1.5
    cfg = write_config(
        tmp_path,
        dispersion={"kind": "quadratic", "mass": 1.0, "offset": 2.0},
        form_factor=gaussian(center=2.0, width=0.35).to_json_dict(),
        orders=[1],
        lambda_grid=[0.95, 0.9, 0.85, 0.8])
    assert cli.main(["kernel-check", "--config", str(cfg)]) == 6
    rates = json.loads((tmp_path / "out" / "kernel_rates.json").read_text())
    assert rates[0]["passes"] is False


def test_corr_check_passes_on_quadratic_catalog(tmp_path):
    out = tmp_path / "c"
    assert cli.main(["corr-check", "--config",
                     str(CONFIG_DIR / "corr_quadratic.json"),
                     "--out", str(out)]) == 0
    rates = json.loads((out / "corr_rates.json").read_text())
    assert rates[0]["order"] == 0 and rates[0]["passes"]


@pytest.mark.parametrize("command", ["kernel-check", "corr-check"])
def test_expansion_study_refuses_disagreeing_gamma_oracles(tmp_path, capsys,
                                                           command):
    # the form factor reaches the k = 0 edge of the radial domain, so I(sigma)
    # decays only algebraically and gamma_osc misses gamma_5 by about 4e-5
    cfg = write_config(
        tmp_path,
        dispersion={"kind": "linear", "slope": 1.0, "offset": 1.5,
                    "dimension": 3},
        form_factor=gaussian(center=1.5, width=0.4).to_json_dict(),
        orders=[0, 5])
    assert cli.main([command, "--config", str(cfg)]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("gamma oracle mismatch: "), err
    assert not (tmp_path / "out").exists()


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_kernel_check_computes_the_exact_pair_once_per_lambda(tmp_path,
                                                             monkeypatch):
    calls = _counting(monkeypatch, expansion, "reservoir_pair")
    assert cli.main(["kernel-check", "--config",
                     str(CONFIG_DIR / "kernel_linear.json"),
                     "--out", str(tmp_path / "k")]) == 0
    # two orders, four lambdas: one exact pair per lambda
    assert [c[2] for c in calls] == [0.5, 0.35, 0.25, 0.15]


def test_corr_check_computes_the_reservoir_word_once_per_lambda(tmp_path,
                                                               monkeypatch):
    calls = _counting(monkeypatch, expansion, "reservoir_pair")
    cfg = write_config(tmp_path)  # two orders, four lambdas
    assert cli.main(["corr-check", "--config", str(cfg)]) == 0
    # the word's four annihilator-creator pairs, once per lambda
    assert [c[2] for c in calls] == [lam for lam in (0.5, 0.35, 0.25, 0.15)
                                     for _ in range(4)]
    points = (tmp_path / "out" / "corr_points.csv").read_text().splitlines()
    assert [row.split(",")[1] for row in points[1:]] == ["0"] * 4 + ["1"] * 4


def test_study_computes_each_noise_contraction_once(tmp_path, monkeypatch):
    """Each (order, pair) contraction is lambda-free: one call per study.

    The linear catalog's gamma_1 vanishes, so orders (0, 1) need only the
    order-0 contraction of the word's four pairs, whatever the grid length.
    """
    calls = _counting(monkeypatch, expansion, "indefinite_inner")
    cfg = write_config(tmp_path)  # two orders, four lambdas
    assert cli.main(["corr-check", "--config", str(cfg)]) == 0
    smears = load_config(cfg).smears
    assert len(calls) == 4
    assert {(c[0], c[2], c[3]) for c in calls} == {
        (0, f, h) for f, h in itertools.product(smears[:2], smears[2:4])}


def test_quadrature_tolerance_keys_are_accepted_and_ignored(tmp_path):
    with_keys = load_config(write_config(tmp_path, "a.json"))
    without = load_config(write_config(
        tmp_path, "b.json", tolerances={"assert_rel": 1e-6}))
    assert with_keys == without


def test_no_partial_files_on_support_failure(tmp_path):
    cfg = write_config(
        tmp_path,
        dispersion={"kind": "quadratic", "mass": 1.0, "offset": 2.0},
        form_factor=gaussian(width=1.0).to_json_dict())
    assert cli.main(["gamma", "--config", str(cfg)]) == 3
    assert not (tmp_path / "out").exists()
