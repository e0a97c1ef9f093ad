"""Command line front end: exit codes, artifacts, determinism."""

import csv
import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import multinoise
from multinoise import checks, cli, config, expansion, gamma
from multinoise.atoms import gaussian
from multinoise.gamma import GammaRow, GammaTable
from multinoise.config import atom_json, load_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# a nonempty atom list whose every coefficient is zero
ZERO_SMEAR = [dict(atom_json(gaussian())[0], coefficient_re=0.0)]


def atom_with(**fields):
    """One-atom test function: the unit Gaussian with some fields replaced."""
    return [dict(atom_json(gaussian())[0], **fields)]


def write_config(tmp_path, name="cfg.json", **overrides):
    base = {
        "dispersion": {"kind": "linear", "slope": 1.0, "offset": 0.0},
        "form_factor": atom_json(gaussian()),
        "orders": [0, 1],
        "lambda_grid": [0.5, 0.35, 0.25, 0.15],
        "truncation": {"basis_size": 4, "particle_cap": 3, "sector_max": 1},
        "tolerances": {"assert_rel": 1e-6},
        "seed": 7,
        "rep_pairs": 6,
        "output": {"directory": str(tmp_path / "out")},
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base, sort_keys=True))
    return path


def test_missing_config_file_is_config_error(tmp_path):
    assert cli.main(["gamma", "--config", str(tmp_path / "nope.json")]) == 2


def test_invalid_json_is_config_error(tmp_path, capsys):
    """Bad syntax, or an integer longer than Python reads (4,300 digits)."""
    bad = tmp_path / "bad.json"
    for text in ("{not json", '{"seed": 1' + "0" * 5000 + "}"):
        bad.write_text(text)
        assert cli.main(["gamma", "--config", str(bad),
                         "--out", str(tmp_path / "out")]) == 2
        _assert_one_line_refusal(capsys, tmp_path, ["bad.json"])


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


@pytest.mark.parametrize("command, overrides, field", [
    ("gamma", {"orders": [7]}, "orders"),
    ("kernel-check", {"orders": [7]}, "orders"),
    ("gamma", {"orders": ["a"]}, "orders"),
    ("gamma", {"orders": [True]}, "orders"),
    ("gamma", {"orders": [1.5]}, "orders"),
    ("kernel-check", {"lambda_grid": [math.inf, 0.35, 0.25, 0.15]},
     "lambda_grid"),
    ("kernel-check", {"lambda_grid": [0.5, 0.25, 1e-200]}, "lambda_grid"),
    ("gamma", {"eps_supp": 0}, "'eps_supp'"),
    ("gamma", {"eps_supp": 2.0}, "'eps_supp'"),
    ("gamma", {"eps_supp": 1e-10}, "'eps_supp'"),
    ("gamma", {"output": {"directory": "out", "format": "csv"}},
     "'format' in output"),
    ("rep-check", {"rep_pair": 2}, "'rep_pair'"),
    ("gamma", {"dispersion": {"kind": "linear", "mass": 1.0}},
     "'mass' in dispersion"),
    ("gamma", {"dispersion": {"kind": "quadratic", "slope": 1.0}},
     "'slope' in dispersion"),
    ("rep-check", {"truncation": {"basis_size": 4, "particle_caps": 3}},
     "'particle_caps' in truncation"),
    ("gamma", {"form_factor": atom_with(phase=0.0)},
     "'phase' in form_factor[0]"),
    ("kernel-check", {"smears": [atom_json(gaussian()),
                                 atom_with(centre=0.0)]},
     "'centre' in smears[1][0]"),
    ("rep-check", {"truncation": {"basis_size": 16, "particle_cap": 3,
                                  "sector_max": 1}}, "basis_size"),
    ("gamma", {"truncation": {"basis_size": "x"}}, "basis_size"),
    ("rep-check", {"truncation": {"particle_cap": 2.5}}, "particle_cap"),
    ("rep-check", {"truncation": {"sector_max": True}}, "sector_max"),
    ("gamma", {"truncation": [4, 3, 1]}, "truncation"),
    ("rep-check", {"seed": "x"}, "seed"),
    ("rep-check", {"seed": -1}, "seed"),
    ("rep-check", {"rep_pairs": 0}, "rep_pairs"),
    ("rep-check", {"rep_pairs": 10 ** 15}, "rep_pairs"),
    ("gamma", {"tolerances": {"assert_rel": "x"}}, "tolerances.assert_rel"),
    ("gamma", {"tolerances": {"assert_rel": math.inf}},
     "tolerances.assert_rel"),
    ("gamma", {"tolerances": [1e-6]}, "tolerances"),
    ("gamma", {"output": "out"}, "output"),
    ("gamma", {"dispersion": ["linear"]}, "dispersion"),
    ("gamma", {"dispersion": {"kind": "linear", "dimension": "x"}},
     "dispersion.dimension"),
    ("gamma", {"dispersion": {"kind": "linear", "slope": None}},
     "dispersion.slope"),
    ("gamma", {"dispersion": {"kind": "quadratic", "mass": "heavy"}},
     "dispersion.mass"),
    ("kernel-check", {"orders": [0, 0]}, "orders"),
    ("corr-check", {"orders": [1, 0, 1]}, "orders"),
    ("kernel-check", {"smears": [ZERO_SMEAR] * 4}, "smears[0]"),
    ("corr-check", {"smears": [ZERO_SMEAR] * 4}, "smears[0]"),
    ("gamma", {"form_factor": ZERO_SMEAR}, "form_factor"),
    ("kernel-check", {"form_factor": ZERO_SMEAR}, "form_factor"),
    ("corr-check", {"form_factor": ZERO_SMEAR}, "form_factor"),
    ("kernel-check", {"smears": [atom_json(gaussian())]}, "smears"),
    ("corr-check", {"smears": [atom_json(gaussian())] * 3}, "smears"),
    ("gamma", {"form_factor": atom_with(center=math.nan)},
     "form_factor[0].center"),
    ("kernel-check", {"form_factor": atom_with(center=math.nan)},
     "form_factor[0].center"),
    ("gamma", {"form_factor": atom_with(width=math.inf)},
     "form_factor[0].width"),
    ("gamma", {"form_factor": atom_with(modulation=math.nan)},
     "form_factor[0].modulation"),
    ("kernel-check", {"smears": [atom_with(coefficient_re=math.nan)] * 2},
     "smears[0][0].coefficient_re"),
    ("gamma", {"form_factor": atom_with(coefficient_im=-math.inf)},
     "form_factor[0].coefficient_im"),
    ("gamma", {"form_factor": atom_with(poly=[[1.0, 0.0], [math.nan, 0.0]])},
     "form_factor[0].poly"),
    ("corr-check", {"smears": [atom_with(center=math.inf)] * 4},
     "smears[0][0].center"),
    ("gamma", {"form_factor": atom_with(poly=[[0.0, 0.0]])}, "form_factor"),
    ("kernel-check", {"smears": [atom_with(poly=[[0.0, 0.0]]),
                                 atom_json(gaussian())]}, "smears[0]"),
    ("rep-check", {"truncation": {"basis_size": 15, "particle_cap": 6}},
     "basis_size ** particle_cap"),
    ("rep-check", {"truncation": {"basis_size": 4, "particle_cap": 2,
                                  "sector_max": 1}}, "particle_cap"),
    ("rep-check", {"truncation": {"basis_size": 4, "particle_cap": 3,
                                  "sector_max": 7}}, "sector_max"),
    ("gamma", {"form_factor": atom_with() * 257}, "form_factor"),
    ("kernel-check", {"smears": [atom_json(gaussian()),
                                 atom_with() * 257]}, "smears[1]"),
    ("gamma", {"form_factor": atom_with(poly=[[1.0, 0.0]] * 65)},
     "form_factor[0].poly"),
    ("corr-check", {"smears": [atom_with(poly=[[1.0, 0.0]] * 65)] * 4},
     "smears[0][0].poly"),
    ("gamma", {"form_factor": {}}, "form_factor must be a list"),
    ("gamma", {"form_factor": {"center": 1.0}}, "form_factor must be a list"),
    ("gamma", {"form_factor": atom_with(poly="ab")}, "form_factor[0].poly"),
    ("gamma", {"form_factor": atom_with(poly=[[1.0, 0.0, "x"]])},
     "form_factor[0].poly"),
    ("gamma", {"form_factor": [[1.0]]}, "form_factor[0]"),
    ("gamma", {"form_factor": [{key: value for key, value
                                in atom_with()[0].items() if key != "width"}]},
     "form_factor[0] is missing 'width'"),
    ("kernel-check", {"smears": ["x"]}, "smears[0]"),
    ("gamma", {"form_factor": atom_with(width=-1.0)},
     "form_factor[0]: atom width"),
    ("corr-check", {"smears": [atom_with(poly=[])] * 4},
     "smears[0][0]: atom polynomial"),
    ("gamma", {"output": {"directory": None}}, "output.directory"),
    ("gamma", {"output": {"directory": 5}}, "output.directory"),
    ("gamma", {"output": {"directory": True}}, "output.directory"),
    ("gamma", {"output": {"directory": []}}, "output.directory"),
    ("gamma", {"output": {"directory": {"value": "x"}}}, "output.directory"),
    ("gamma", {"output": {"directory": ""}}, "output.directory"),
    ("kernel-check", {"orders": []}, "kernel study"),
    ("corr-check", {"orders": []}, "corr study"),
    ("rep-check", {"truncation": {"basis_size": 6.5}}, "basis_size"),
], ids=["order-7-gamma", "order-7-kernel", "order-string", "order-bool",
        "order-fraction", "lambda-infinite", "lambda-square-underflows",
        "unknown-key-eps-supp-0", "unknown-key-eps-supp-2",
        "unknown-key-eps-supp-default", "unknown-key-output-format",
        "unknown-key-rep-pair",
        "unknown-key-mass-on-linear", "unknown-key-slope-on-quadratic",
        "unknown-key-truncation", "unknown-key-form-factor-atom",
        "unknown-key-smear-atom", "basis-size-16",
        "basis-size-string", "particle-cap-fraction", "sector-max-bool",
        "truncation-list", "seed-string", "seed-negative", "rep-pairs-0",
        "rep-pairs-1e15",
        "assert-rel-string", "assert-rel-infinite", "tolerances-list",
        "output-string", "dispersion-list", "dimension-string", "slope-null",
        "mass-string", "orders-repeat-kernel", "orders-repeat-corr",
        "zero-smears-kernel", "zero-smears-corr", "zero-form-factor-gamma",
        "zero-form-factor-kernel", "zero-form-factor-corr",
        "short-smears-kernel", "short-smears-corr", "center-nan-gamma",
        "center-nan-kernel", "width-infinite", "modulation-nan",
        "coefficient-nan-smear", "coefficient-im-infinite", "poly-nan",
        "center-infinite-corr", "zero-poly-form-factor", "zero-poly-smear",
        "fock-component-too-large", "particle-cap-2", "sector-max-7",
        "atoms-257-form-factor", "atoms-257-smear", "poly-65-form-factor",
        "poly-65-smear", "form-factor-object", "form-factor-atom-object",
        "poly-string", "poly-triple", "atom-list", "atom-without-width",
        "smear-string", "width-negative", "poly-empty-smear",
        "output-directory-null", "output-directory-int",
        "output-directory-bool", "output-directory-list",
        "output-directory-object", "output-directory-empty",
        "orders-empty-kernel", "orders-empty-corr", "basis-size-fraction"])
def test_malformed_config_values_exit_2(tmp_path, capsys, command,
                                        overrides, field):
    """One config error line that names the field, in the program's words
    rather than a Python exception's."""
    cfg = write_config(tmp_path, **overrides)
    assert cli.main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert field in err[0], err[0]
    assert "indices" not in err[0] and "unpack" not in err[0], err[0]
    assert not (tmp_path / "out").exists()


def _float_leaves(node, path=()):
    """Paths to every float of a JSON tree."""
    if isinstance(node, float):
        yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, value in children:
        yield from _float_leaves(value, path + (key,))


@pytest.mark.parametrize("name", sorted(p.stem
                                        for p in CONFIG_DIR.glob("*.json")))
def test_float_fields_take_only_json_numbers(tmp_path, capsys, name):
    """A bool, a numeric string or an integer past the float range in any
    float field of a shipped config is refused, not converted: float() would
    read "1_0" as 10.0 and true as 1, and raise OverflowError on 10**400.
    The refusal is one short line, however long the refused value."""
    base = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    leaves = list(_float_leaves(base))
    assert leaves
    for path, value in itertools.product(leaves,
                                         (True, "1.0", "1_0", 10**400,
                                          10**4000, "1" * 4000)):
        raw = json.loads(json.dumps(base))
        parent = raw
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code = cli.main(["gamma", "--config", str(cfg),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2, (path, value, code)
        assert len(err) == 1 and err[0].startswith("config error: "), err
        assert len(err[0]) <= 200, (path, err[0][:200])
    assert not (tmp_path / "out").exists()


LONG = "k" * 3000


@pytest.mark.parametrize("edit, where", [
    (lambda raw: raw.update({LONG: 1}), "in config"),
    (lambda raw: raw["form_factor"][0].update({LONG: 1}), "in form_factor[0]"),
    (lambda raw: raw.update(fault_injection=LONG), "unknown fault_injection"),
    (lambda raw: raw["dispersion"].update(kind=LONG), "unknown dispersion kind"),
    (lambda raw: raw.update(orders=[10 ** 4000]), "orders entries"),
    (lambda raw: raw.update(orders=[0] * 100_000), "orders must not repeat"),
    (lambda raw: raw["truncation"].update(basis_size=10 ** 4000), "basis_size"),
    (lambda raw: raw["truncation"].update(particle_cap=10 ** 4000),
     "particle_cap"),
    (lambda raw: raw["truncation"].update(sector_max=10 ** 4000), "sector_max"),
    (lambda raw: raw.update(rep_pairs=10 ** 4000), "rep_pairs"),
], ids=["root-key", "atom-key", "fault-injection", "dispersion-kind",
        "order", "orders-repeat", "basis-size", "particle-cap", "sector-max",
        "rep-pairs"])
def test_long_values_give_short_refusals(tmp_path, capsys, edit, where):
    """A refused 3,000-character string, integer or list is cut short in
    the one refusal line, which still says where the problem is."""
    raw = json.loads((CONFIG_DIR / "catalog_linear.json").read_text())
    edit(raw)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["gamma", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    assert len(err[0]) <= 200 and where in err[0], err[0][:300]
    assert not (tmp_path / "out").exists()


def test_atom_count_is_checked_before_any_atom(tmp_path, capsys, monkeypatch):
    """100,000 valid atoms are refused at once, with no atom built."""
    def no_atoms(*args):
        raise AssertionError("an atom was built")

    monkeypatch.setattr(config, "Atom", no_atoms)
    cfg = write_config(tmp_path, form_factor=atom_with() * 100_000)
    assert cli.main(["gamma", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: form_factor must be a list of at most "
                   f"{config.MAX_ATOMS} atoms"]


def test_smear_count_is_checked_before_any_smear(tmp_path, capsys,
                                                 monkeypatch):
    """One smear past MAX_SMEARS is refused, and 100,000 valid smears are
    refused with no smear atom built: only the form factor's one atom."""
    built = []
    original = config.Atom

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(config, "Atom", counted)
    for count in (config.MAX_SMEARS + 1, 100_000):
        built.clear()
        cfg = write_config(tmp_path, smears=[atom_json(gaussian())] * count)
        assert cli.main(["corr-check", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["config error: smears must be a list of "
                       f"1..{config.MAX_SMEARS} entries"]
        assert len(built) == 1
    assert not (tmp_path / "out").exists()


def test_integral_float_counts_parse_as_int(tmp_path):
    cfg = load_config(write_config(tmp_path, truncation={"basis_size": 6.0}))
    assert cfg.basis_size == 6 and type(cfg.basis_size) is int


def test_test_function_size_limits_are_inclusive(tmp_path):
    """MAX_ATOMS atoms and MAX_POLY_TERMS terms per atom still parse."""
    atoms = atom_with(poly=[[1.0, 0.0]] * config.MAX_POLY_TERMS)
    cfg = load_config(write_config(
        tmp_path, form_factor=atoms * config.MAX_ATOMS))
    assert len(cfg.form_factor.atoms) == config.MAX_ATOMS


def test_rep_pairs_limit_is_inclusive(tmp_path):
    """MAX_REP_PAIRS pairs still parse; one more is refused."""
    cfg = load_config(write_config(tmp_path, rep_pairs=config.MAX_REP_PAIRS))
    assert cfg.rep_pairs == config.MAX_REP_PAIRS
    with pytest.raises(multinoise.ConfigError,
                       match=r"rep_pairs must lie in 1\.\.10000, got 10001$"):
        load_config(write_config(tmp_path, rep_pairs=config.MAX_REP_PAIRS + 1))


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["rep-check", "--config", str(cfg), "--seed", "-1"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: seed must be nonnegative"]
    assert not (tmp_path / "out").exists()


def test_empty_out_flag_exits_2_and_writes_nothing(tmp_path, capsys,
                                                  monkeypatch):
    """--out "" is refused like output.directory "", rather than writing
    into the working directory."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    assert cli.main(["gamma", "--config", str(cfg), "--out", ""]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: output.directory must be a nonempty "
                   "string, got ''"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("overrides, flags, field", [
    ({"seed": "x"}, ["--seed", "5"], "seed"),
    ({"seed": -1}, ["--seed", "5"], "seed"),
    ({"output": {"directory": ""}}, ["--out", "elsewhere"], "output.directory"),
    ({"output": {"directory": None}}, ["--out", "elsewhere"],
     "output.directory"),
], ids=["seed-string", "seed-negative", "directory-empty", "directory-null"])
def test_flags_do_not_hide_a_malformed_file_value(tmp_path, capsys,
                                                  monkeypatch, overrides,
                                                  flags, field):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, **overrides)
    assert cli.main(["rep-check", "--config", str(cfg), *flags]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {field} ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_seed_flag_gives_the_report_of_that_config_seed(tmp_path):
    """rep-check --seed 5 on a seed-7 config writes the bytes a seed-5
    config writes, and the parsed config cannot be changed afterwards."""
    flagged = write_config(tmp_path, name="seed7.json", seed=7,
                           output={"directory": str(tmp_path / "a")})
    assert cli.main(["rep-check", "--config", str(flagged),
                     "--seed", "5"]) == 0
    own = write_config(tmp_path, name="seed5.json", seed=5,
                       output={"directory": str(tmp_path / "b")})
    assert cli.main(["rep-check", "--config", str(own)]) == 0
    report = (tmp_path / "a" / "rep_check.json").read_bytes()
    assert report == (tmp_path / "b" / "rep_check.json").read_bytes()
    assert json.loads(report)["seed"] == 5
    cfg = load_config(flagged, {"seed": 5})
    assert (cfg.seed, load_config(flagged).seed) == (5, 7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 7


IMPORT_GUARD = """
import sys
from multinoise import cli
for command, name in (("gamma", "catalog_linear"),
                      ("rep-check", "catalog_linear"),
                      ("kernel-check", "kernel_linear"),
                      ("corr-check", "corr_quadratic")):
    code = cli.main([command, "--config", f"{sys.argv[1]}/{name}.json",
                     "--out", f"{sys.argv[2]}/{command}-{name}"])
    assert code == 0, (command, code)
# checks draws from its own counter streams and forms sums erfcx's
# coefficients directly, so no command loads numpy's generator or FFT
assert not [m for m in sys.modules if m.startswith(("numpy.random", "numpy.fft"))]
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def fresh_env(**extra) -> dict:
    """The environment of a fresh interpreter that imports this multinoise.

    Drops OPENBLAS_NUM_THREADS, which importing multinoise has set here.
    """
    package_root = str(Path(multinoise.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return dict(env, **extra)


def test_cli_commands_run_without_scipy(tmp_path):
    """No command imports scipy, numpy.random or numpy.fft; only the tests'
    oracles use them.

    Runs in a fresh interpreter, since this one has scipy loaded already.
    """
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(CONFIG_DIR), str(tmp_path)],
        capture_output=True, text=True, env=fresh_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"


PIN_PROBE = """
import os
import multinoise
status = open("/proc/self/status").read()
print(os.environ["OPENBLAS_NUM_THREADS"], status.split("Threads:")[1].split()[0])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts threads in /proc/self/status")
def test_import_pins_openblas_to_one_thread_unless_set():
    """Importing multinoise loads numpy with one OpenBLAS thread, so the
    process has no BLAS worker pool, and leaves a user's own value alone."""
    def probe(**extra):
        done = subprocess.run([sys.executable, "-c", PIN_PROBE],
                              capture_output=True, text=True,
                              env=fresh_env(**extra))
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    assert probe() == ["1", "1"]
    assert probe(OPENBLAS_NUM_THREADS="2")[0] == "2"


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


def test_gamma_writes_to_the_default_directory(tmp_path, monkeypatch):
    """Without --out or output.directory, artifacts go to ./out."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, output={})
    assert cli.main(["gamma", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "gamma.csv").is_file()


def test_negative_gamma_0_exits_4_without_a_table(tmp_path, capsys,
                                                  monkeypatch):
    original = gamma.gamma_osc

    def negative_gamma_0(disp, g, n, rule=None):
        return -1e-9 if n == 0 else original(disp, g, n, rule)

    monkeypatch.setattr(gamma, "gamma_osc", negative_gamma_0)
    assert cli.main(["gamma", "--config", str(write_config(tmp_path))]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("OracleMismatch: gamma_0 = "), err
    assert err[0].endswith(" violates nonnegativity"), err
    assert not (tmp_path / "out" / "gamma.csv").exists()


def test_support_failure_exits_3_without_force(tmp_path):
    cfg = write_config(
        tmp_path,
        dispersion={"kind": "quadratic", "mass": 1.0, "offset": 2.0},
        form_factor=atom_json(gaussian(width=1.0)))
    assert cli.main(["gamma", "--config", str(cfg)]) == 3
    # --force pushes past the gate; the computation then fails loudly
    # (stationary phase point), mapped to the oracle exit code
    assert cli.main(["gamma", "--config", str(cfg), "--force"]) == 4


def test_force_past_a_false_support_alarm_succeeds(tmp_path, capsys):
    """Two cancelling atoms: each atom's envelope reaches k = -0.086, past
    the stationary point k = 0, so the gate refuses, yet |g(0)|^2 is
    3.7e-15, far below EPS_SUPP.  Under --force both gamma routes agree to
    1.0e-10 and gamma succeeds."""
    g = 1e4 * (gaussian(2.5, 0.4) - gaussian(2.5001, 0.4))
    assert abs(g(0.0)) ** 2 < 1e-14
    cfg = write_config(
        tmp_path, dispersion={"kind": "quadratic", "mass": 1.0, "offset": 2.0},
        form_factor=atom_json(g), orders=[0, 1, 2, 3])
    assert cli.main(["gamma", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(
        "support condition failed: stationary points [0.0] inside effective "
        "support (-0.0858"), err
    assert not (tmp_path / "out").exists()
    assert cli.main(["gamma", "--config", str(cfg), "--force"]) == 0
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [err[0] + "; continuing under "
                                                 "--force"]
    assert captured.out.strip().endswith("max rel_diff 1.03e-10")
    rows = list(csv.DictReader(
        (tmp_path / "out" / "gamma.csv").read_text().splitlines()))
    assert [int(r["n"]) for r in rows] == [0, 1, 2, 3]


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
    assert not report["passes"]
    assert {"ccr", "fock_wick"} <= set(report["failures"])


def test_rep_check_at_the_basis_bound(tmp_path, capsys):
    """Basis 15 passes up to sector_max 5; order 6 has gram condition 1.03e10
    and is refused at sector build, before any suite runs."""
    def run(sector_max):
        cfg = json.loads((CONFIG_DIR / "catalog_linear.json").read_text())
        cfg.update(truncation={"basis_size": 15, "particle_cap": 3,
                               "sector_max": sector_max}, rep_pairs=2)
        path = tmp_path / f"cfg{sector_max}.json"
        path.write_text(json.dumps(cfg))
        return cli.main(["rep-check", "--config", str(path),
                         "--out", str(tmp_path / f"out{sector_max}")])

    assert run(5) == 0
    capsys.readouterr()
    assert run(6) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("IllConditionedBasis: "), err
    assert not (tmp_path / "out6").exists()


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


def test_kernel_check_verdicts_do_not_depend_on_smear_scale(tmp_path, capsys):
    """kernel_linear with its two default smears scaled by 1e200 and 1e-200
    prints the unscaled run's verdicts; a fixed spectral bound on |f_F| made
    both rates fail with slope 0.005."""
    def run(name, **extra):
        raw = json.loads((CONFIG_DIR / "kernel_linear.json").read_text())
        raw.update(output={"directory": str(tmp_path / name)}, **extra)
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(raw))
        code = cli.main(["kernel-check", "--config", str(cfg)])
        return code, capsys.readouterr().out.strip().splitlines()

    plain = run("plain")
    f_minus, f_plus = config.DEFAULT_WORD_SMEARS[:2]
    scaled = run("scaled", smears=[atom_json(1e200 * f_minus),
                                   atom_json(1e-200 * f_plus)])
    assert plain == (0, ["kernel N=0: slope 3.992 (pass)",
                         "kernel N=1: slope 3.992 (pass)"])
    assert scaled == plain


def test_kernel_check_rate_failure_exits_6(tmp_path):
    # outside the asymptotic regime the fitted slope drops under 2N + 1.5
    cfg = write_config(
        tmp_path,
        dispersion={"kind": "quadratic", "mass": 1.0, "offset": 2.0},
        form_factor=atom_json(gaussian(center=2.0, width=0.35)),
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
        form_factor=atom_json(gaussian(center=1.5, width=0.4)),
        orders=[0, 5])
    assert cli.main([command, "--config", str(cfg)]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(
        "OracleMismatch: gamma oracle mismatch: "), err
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


@pytest.mark.parametrize("command, config_name, written", [
    ("gamma", "catalog_linear", ["gamma.csv"]),
    ("kernel-check", "kernel_linear", None),
])
def test_oracle_mismatch_at_a_rounding_tolerance_exits_4(
        tmp_path, capsys, command, config_name, written):
    """A shipped config with assert_rel 1e-16, below the tables' rounding
    (kernel_linear's worst rel_diff is 8.8e-16): gamma keeps its table for
    inspection, an expansion study writes nothing."""
    raw = json.loads((CONFIG_DIR / f"{config_name}.json").read_text())
    raw.update(tolerances={"assert_rel": 1e-16},
               output={"directory": str(tmp_path / "out")})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main([command, "--config", str(cfg)]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(
        "OracleMismatch: gamma oracle mismatch: "), err
    if written is None:
        assert not (tmp_path / "out").exists()
    else:
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == written


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
    """The contractions are lambda-free: one call per nonzero order and
    annihilator letter per study, each the row of that letter's smear over
    the two creator smears, whatever the grid length.

    The linear catalog's gamma_1 vanishes, so orders (0, 1, 2) need only
    the order-0 and order-2 rows.
    """
    calls = _counting(monkeypatch, expansion, "indefinite_inner")
    cfg = write_config(tmp_path, orders=[0, 1, 2])  # four lambdas
    assert cli.main(["corr-check", "--config", str(cfg)]) == 0
    smears = load_config(cfg).smears[:4]
    assert [c[0] for c in calls] == [0, 0, 2, 2]
    assert [tuple(c[2]) for c in calls] == [smears[:1], smears[1:2]] * 2
    assert all(tuple(c[3]) == smears[2:] for c in calls)


@pytest.mark.parametrize("command, stem, scales", [
    ("kernel-check", "kernel", (1e200, 1e-200)),
    ("corr-check", "corr", (1e200, 1e200, 1e-200, 1e-200)),
])
def test_study_forms_only_annihilator_creator_contractions(tmp_path, command,
                                                            stem, scales):
    """Annihilator smears scaled by 1e200 and creator smears by 1e-200 leave
    every contraction the word uses of order one, so the noise side equals
    the unscaled one.  An annihilator-annihilator product would overflow and
    exit 4, so the study must not form one."""
    smears = config.DEFAULT_WORD_SMEARS[:len(scales)]
    scaled = [[dict(a, coefficient_re=a["coefficient_re"] * s,
                    coefficient_im=a["coefficient_im"] * s)
               for a in atom_json(f)] for f, s in zip(smears, scales)]
    rhs = {}
    for name, entries in (("plain", [atom_json(f) for f in smears]),
                          ("scaled", scaled)):
        out = tmp_path / name
        cfg = write_config(tmp_path, f"{name}.json", smears=entries,
                           output={"directory": str(out)})
        assert cli.main([command, "--config", str(cfg)]) != 4
        rows = csv.DictReader(
            (out / f"{stem}_points.csv").read_text().splitlines())
        rhs[name] = [complex(float(r["rhs_re"]), float(r["rhs_im"]))
                     for r in rows]
    np.testing.assert_allclose(rhs["scaled"], rhs["plain"], rtol=1e-12)


def test_quadrature_tolerance_keys_are_refused(tmp_path, capsys):
    """The forms are exact, so a quadrature tolerance would change nothing."""
    for key in ("quad_abs", "quad_rel"):
        cfg = write_config(tmp_path, f"{key}.json",
                           tolerances={"assert_rel": 1e-6, key: 1e-11})
        assert cli.main(["gamma", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"config error: unknown key {key!r} in tolerances"]
    assert not (tmp_path / "out").exists()


def test_basis_size_limit_is_inclusive(tmp_path):
    cfg = load_config(write_config(tmp_path, truncation={
        "basis_size": config.MAX_BASIS_SIZE, "particle_cap": 3}))
    assert cfg.basis_size == config.MAX_BASIS_SIZE


def test_no_partial_files_on_support_failure(tmp_path):
    cfg = write_config(
        tmp_path,
        dispersion={"kind": "quadratic", "mass": 1.0, "offset": 2.0},
        form_factor=atom_json(gaussian(width=1.0)))
    assert cli.main(["gamma", "--config", str(cfg)]) == 3
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, message", [
    ({"form_factor": atom_with(width=1e300)}, "panel rule"),
    ({"dispersion": {"kind": "linear", "slope": 1e300, "offset": 0.0}},
     "panel rule"),
], ids=["width-1e300", "slope-1e300"])
def test_huge_finite_config_exits_4_in_one_line(tmp_path, capsys, overrides,
                                                message):
    cfg = write_config(tmp_path, **overrides)
    assert cli.main(["gamma", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("QuadratureFailure: "), err
    assert message in err[0]
    assert not (tmp_path / "out").exists()


def test_wide_form_factor_computes_in_momentum_sized_memory(tmp_path):
    """A form-factor width of 1e3 needs 59,392 momentum nodes on the linear
    catalog; a sigma x momentum table of them would hold 5e8 entries, but
    gamma_osc keeps only vectors of the momentum rule."""
    cfg = write_config(tmp_path, form_factor=atom_with(width=1e3),
                       orders=[0, 1, 2])
    tracemalloc.start()
    try:
        assert cli.main(["gamma", "--config", str(cfg)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32e6
    rows = list(csv.DictReader(
        (tmp_path / "out" / "gamma.csv").read_text().splitlines()))
    assert [int(r["n"]) for r in rows] == [0, 1, 2]
    # the oracles agree to 2.1e-10 at gamma_2 = -3.5e-9 and to 1e-15 below
    assert max(float(r["rel_diff"]) for r in rows) <= 1e-9


@pytest.mark.parametrize("command, overrides", [
    ("kernel-check", {"smears": [atom_with(center=1e300)] * 2}),
    ("kernel-check", {"smears": [atom_with(coefficient_re=1e300)] * 2}),
    ("kernel-check", {"smears": [atom_with(width=1e-300)] * 2}),
    ("gamma", {"form_factor": atom_with(center=1e300)}),
], ids=["smear-center-1e300", "smear-coefficient-1e300", "smear-width-1e-300",
        "form-factor-center-1e300"])
def test_floating_point_fault_exits_4_in_one_line(tmp_path, capsys, command,
                                                  overrides):
    """Overflow, division by zero and invalid operations raise at once,
    instead of warning and carrying an inf or a NaN on."""
    cfg = write_config(tmp_path, **overrides)
    assert cli.main([command, "--config", str(cfg)]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("FloatingPointFault: "), err
    assert not (tmp_path / "out").exists()


def test_unexpected_exception_exits_4_in_one_line(tmp_path, capsys,
                                                  monkeypatch):
    def broken(cfg, force):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr(cli, "cmd_gamma", broken)
    assert cli.main(["gamma", "--config", str(write_config(tmp_path))]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["RuntimeError: first line second line"]


def test_nan_gamma_row_fails_the_oracle_gate():
    # NaN after a finite row: the builtin max would have kept the 0.0
    table = GammaTable((GammaRow(0, 1.0, 1.0, 0.0),
                        GammaRow(1, math.nan, 0.0, math.nan)))
    with pytest.raises(multinoise.OracleMismatch,
                       match=r"^gamma oracle mismatch: max rel_diff nan "):
        table.check(1e-6)


def test_nan_suite_residual_fails_rep_check(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "adjoint_suite",
                        lambda sectors, rng, pairs: {"adjoint": math.nan})
    assert cli.main(["rep-check", "--config", str(write_config(tmp_path))]) == 5
    report = json.loads((tmp_path / "out" / "rep_check.json").read_text())
    assert report["failures"] == ["adjoint"] and not report["passes"]


def test_nan_propagates_through_the_worst_residual(monkeypatch):
    """One NaN commutator kernel after finite ones still fails ccr: the
    second sector's kernel matrix is NaN, the first sector's is finite."""
    calls = itertools.count()
    original = checks.indefinite_inner_frequency

    def nan_once(*args):
        value = original(*args)
        return np.full_like(value, math.nan) if next(calls) == 1 else value

    monkeypatch.setattr(checks, "indefinite_inner_frequency", nan_once)
    report = checks.run_representation_checks(sector_max=1, basis_size=3,
                                              particle_cap=3, seed=0, pairs=6)
    assert report["failures"] == ["ccr"]
