"""Study configuration: JSON schema and atom lists, validation, defaults."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .atoms import MAX_ORDER, Atom, TestFunction, gaussian
from .dispersion import Dispersion, LinearDispersion, QuadraticDispersion
from .errors import ConfigError

__all__ = ["StudyConfig", "load_config", "parse_config", "DEFAULT_WORD_SMEARS"]

# bound on basis_size ** particle_cap, the truncations rep-check has been
# run at (no array holds that many entries: Fock vectors are packed), and on
# the entries of any array of one of its batches of pairs
MAX_FOCK_ENTRIES = 2 ** 22
# default_basis(16) has gram condition >= 3.2e10 > fock.COND_LIMIT at every
# order; each smaller basis passes rep-check but 15 at sector_max 6 (1.03e10)
MAX_BASIS_SIZE = 15
# rep-check's six-letter Fock-Wick words put three particles in one sector
MIN_PARTICLE_CAP = 3
# One form_factor or smears entry: a form's memory grows with the square of
# its atom count (160 MB at 1,000), 160-term polys overflow the envelope bound
MAX_ATOMS = 256
MAX_POLY_TERMS = 64
# rep_pairs, 200 times the default: rep-check at acceptance size runs for
# about 16 s at this count and grows linearly, without end for 10**15
MAX_REP_PAIRS = 10_000
# smears entries: no command reads more than corr-check's four-letter word
MAX_SMEARS = 4

# every key parse_config reads; any other key is refused
ROOT_KEYS = ("dispersion", "form_factor", "orders", "lambda_grid", "truncation",
             "tolerances", "seed", "rep_pairs", "output", "smears",
             "fault_injection")
ATOM_KEYS = ("coefficient_re", "coefficient_im", "center", "width",
             "modulation", "poly")

# Smears used by kernel-check (first two) and corr-check (all four) when the
# config does not supply its own.  Broad in time so their frequency content
# stays inside the Taylor radius of the shell density, and mutually detuned so
# no graded term is killed by an accidental symmetry.
DEFAULT_WORD_SMEARS = (
    gaussian(width=2.5),
    gaussian(width=2.5, modulation=-0.4),
    gaussian(width=2.2, modulation=0.3),
    gaussian(width=2.0, modulation=0.2),
)


@dataclass(frozen=True)
class StudyConfig:
    dispersion: Dispersion
    form_factor: TestFunction
    orders: tuple[int, ...]
    lambda_grid: tuple[float, ...]
    basis_size: int
    particle_cap: int
    sector_max: int
    assert_rel: float
    seed: int
    out_dir: str
    smears: tuple[TestFunction, ...]
    rep_pairs: int
    fault_injection: str | None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _shown(value) -> str:
    """value for a one-line refusal: its repr, cut short if long."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return "an integer past the float range"
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _integer(value, what: str) -> int:
    # bool is an int subclass and int() truncates floats and parses strings;
    # each would slip through a bare int() as a different value than written
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{what} must be an integer, got {_shown(value)}")


def _closed(obj: dict, keys, where: str) -> None:
    """Refuse any key of obj that the parser does not read."""
    for key in obj:
        _require(key in keys, f"unknown key {_shown(key)} in {where}")


def _object(raw: dict, key: str, keys) -> dict:
    value = raw.get(key, {})
    _require(isinstance(value, dict), f"{key} must be a JSON object")
    _closed(value, keys, key)
    return value


def _order(value) -> int:
    n = _integer(value, "orders entry")
    _require(0 <= n <= MAX_ORDER,
             f"orders entries must lie in 0..{MAX_ORDER}, got {_shown(n)}")
    return n


def _finite(value, what: str) -> float:
    # as in _integer: float() would take a bool, or parse "1_0" as 10.0; and
    # math.isfinite raises OverflowError on an int past the float range
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and abs(value) <= sys.float_info.max,
             f"{what} must be a finite number, got {_shown(value)}")
    return float(value)


def _parse_dispersion(d: dict) -> Dispersion:
    _require(isinstance(d, dict) and "kind" in d,
             "dispersion must be a JSON object with a 'kind'")
    kind = d["kind"]
    _require(kind in ("linear", "quadratic"), f"unknown dispersion kind {_shown(kind)}")
    scale = "slope" if kind == "linear" else "mass"
    _closed(d, ("kind", "dimension", "offset", scale), "dispersion")
    dim = _integer(d.get("dimension", 1), "dispersion.dimension")
    offset = _finite(d.get("offset", 0.0), "dispersion.offset")
    try:
        if kind == "linear":
            return LinearDispersion(
                slope=_finite(d.get("slope", 1.0), "dispersion.slope"),
                offset=offset, dimension=dim)
        return QuadraticDispersion(
            mass=_finite(d.get("mass", 1.0), "dispersion.mass"),
            offset=offset, dimension=dim)
    except ValueError as exc:
        raise ConfigError(f"bad dispersion parameters: {exc}") from exc


def _test_function(data, what: str) -> TestFunction:
    """Read a nonzero atom list, bounding its length before any atom is read."""
    _require(isinstance(data, list) and len(data) <= MAX_ATOMS,
             f"{what} must be a list of at most {MAX_ATOMS} atoms")
    atoms = []
    for i, d in enumerate(data):
        where = f"{what}[{i}]"
        _require(isinstance(d, dict), f"{where} must be a JSON object")
        _closed(d, ATOM_KEYS, where)
        for key in ATOM_KEYS:
            _require(key in d, f"{where} is missing {key!r}")
        re, im, center, width, modulation = (
            _finite(d[key], f"{where}.{key}") for key in ATOM_KEYS[:5])
        poly = d["poly"]
        _require(isinstance(poly, list) and len(poly) <= MAX_POLY_TERMS
                 and all(isinstance(p, list) and len(p) == 2 for p in poly),
                 f"{where}.poly must be a list of at most {MAX_POLY_TERMS} [re, im] pairs")
        terms = tuple(complex(*(_finite(x, f"{where}.poly entry") for x in p))
                      for p in poly)
        try:
            atoms.append((complex(re, im), Atom(center, width, modulation, terms)))
        except ValueError as exc:  # Atom's own checks: width > 0, nonempty poly
            raise ConfigError(f"bad {where}: {exc}") from exc
    f = TestFunction(tuple(atoms))
    _require(not f.is_zero(), f"{what} must be nonzero")
    return f


def parse_config(raw: dict) -> StudyConfig:
    _require(isinstance(raw, dict), "config root must be a JSON object")
    _closed(raw, ROOT_KEYS, "config")
    for key in ("dispersion", "form_factor", "orders", "lambda_grid"):
        _require(key in raw, f"config is missing {key!r}")

    dispersion = _parse_dispersion(raw["dispersion"])
    form_factor = _test_function(raw["form_factor"], "form_factor")

    _require(isinstance(raw["orders"], list), "orders must be a list")
    orders = tuple(_order(n) for n in raw["orders"])
    _require(len(set(orders)) == len(orders),
             f"orders must not repeat, got {_shown(list(orders))}")

    _require(isinstance(raw["lambda_grid"], list), "lambda_grid must be a list")
    grid = tuple(_finite(x, "lambda_grid entry") for x in raw["lambda_grid"])
    _require(len(grid) > 0, "lambda_grid must be nonempty")
    # the reservoir kernel divides by lambda^2, which is 0 below about 1e-162
    _require(all(x > 0 and x * x > 0 for x in grid),
             "lambda_grid entries must be positive, with a nonzero square")
    _require(all(a > b for a, b in zip(grid, grid[1:])),
             "lambda_grid must be strictly decreasing")

    trunc = _object(raw, "truncation",
                    ("basis_size", "particle_cap", "sector_max"))
    basis_size = _integer(trunc.get("basis_size", 6), "basis_size")
    particle_cap = _integer(trunc.get("particle_cap", 4), "particle_cap")
    sector_max = _integer(trunc.get("sector_max", 3), "sector_max")
    _require(2 <= basis_size <= MAX_BASIS_SIZE,
             f"basis_size must lie in 2..{MAX_BASIS_SIZE}, got {_shown(basis_size)}")
    _require(particle_cap >= MIN_PARTICLE_CAP,
             f"particle_cap must be at least {MIN_PARTICLE_CAP}")
    # min() keeps the power cheap; basis_size >= 2 already fails at cap 64
    _require(basis_size ** min(particle_cap, 64) <= MAX_FOCK_ENTRIES,
             f"basis_size ** particle_cap = {basis_size} ** {_shown(particle_cap)} "
             f"exceeds {MAX_FOCK_ENTRIES} Fock tensor entries")
    _require(0 <= sector_max <= MAX_ORDER,
             f"sector_max must lie in 0..{MAX_ORDER}, got {_shown(sector_max)}")

    tols = _object(raw, "tolerances", ("assert_rel",))
    assert_rel = _finite(tols.get("assert_rel", 1e-6), "tolerances.assert_rel")
    _require(assert_rel > 0, "tolerances.assert_rel must be positive")

    seed = _integer(raw.get("seed", 0), "seed")
    _require(seed >= 0, "seed must be nonnegative")
    rep_pairs = _integer(raw.get("rep_pairs", 50), "rep_pairs")
    _require(1 <= rep_pairs <= MAX_REP_PAIRS,
             f"rep_pairs must lie in 1..{MAX_REP_PAIRS}, got {_shown(rep_pairs)}")

    out_dir = _object(raw, "output", ("directory",)).get("directory", "out")
    _require(isinstance(out_dir, str) and out_dir != "",
             f"output.directory must be a nonempty string, got {_shown(out_dir)}")

    smears = DEFAULT_WORD_SMEARS
    if "smears" in raw:
        _require(isinstance(raw["smears"], list)
                 and 1 <= len(raw["smears"]) <= MAX_SMEARS,
                 f"smears must be a list of 1..{MAX_SMEARS} entries")
        smears = tuple(_test_function(s, f"smears[{i}]")
                       for i, s in enumerate(raw["smears"]))

    fault = raw.get("fault_injection")
    _require(fault in (None, "transpose_pairing"),
             f"unknown fault_injection {_shown(fault)}")

    return StudyConfig(
        dispersion=dispersion,
        form_factor=form_factor,
        orders=orders,
        lambda_grid=grid,
        basis_size=basis_size,
        particle_cap=particle_cap,
        sector_max=sector_max,
        assert_rel=assert_rel,
        seed=seed,
        out_dir=out_dir,
        smears=smears,
        rep_pairs=rep_pairs,
        fault_injection=fault,
    )


def load_config(path: str | Path,
                overrides: dict | None = None) -> StudyConfig:
    # overrides (the --out and --seed flags) replace root entries of the file
    # and pass the same checks, once the file parses as it stands: a flag
    # hides no bad value
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, or an integer past int_max_str_digits
        raise ConfigError(f"cannot parse config as JSON: {exc}") from exc
    cfg = parse_config(raw)
    return parse_config({**raw, **overrides}) if overrides else cfg
