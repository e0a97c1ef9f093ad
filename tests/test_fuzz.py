"""Seeded config fuzzing: every one-leaf mutant of a shipped config ends cleanly.

Each mutant replaces or deletes one leaf of the JSON tree, never scaling a
magnitude, and runs in-process through ``cli.main``.  It must end with a
documented exit code, at most one stderr line of at most 200 characters, and,
when it exits 4, a line naming a package error rather than a builtin
exception.
"""

import builtins
import json
import math
import random
from pathlib import Path

import pytest

from multinoise import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
MUTANTS = 40  # per config
# rep-check mutates catalog_linear at the smallest size where every suite runs
REP_CHECK_SIZE = {"truncation": {"basis_size": 4, "particle_cap": 3,
                                 "sector_max": 1},
                  "rep_pairs": 2}
BUILTIN_ERRORS = {name for name, obj in vars(builtins).items()
                  if isinstance(obj, type) and issubclass(obj, BaseException)}
DELETE = object()

MUTATIONS = (
    lambda v: DELETE,
    lambda v: "x",
    lambda v: True,
    lambda v: None,
    lambda v: [v],
    lambda v: {"value": v},
    lambda v: math.nan,
    lambda v: math.inf,
    lambda v: -v if isinstance(v, (int, float)) else v,
    lambda v: 0,
    lambda v: "x" * 3000,
)


def _leaves(node, path=()):
    """Paths to every scalar or empty container of a JSON tree."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list) and node:
        for index, value in enumerate(node):
            yield from _leaves(value, path + (index,))
    else:
        yield path


def _mutant(base: dict, rng: random.Random) -> dict:
    raw = json.loads(json.dumps(base))
    path = rng.choice(list(_leaves(raw)))
    parent = raw
    for step in path[:-1]:
        parent = parent[step]
    value = rng.choice(MUTATIONS)(parent[path[-1]])
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return raw


@pytest.mark.parametrize("command, name, seed", [
    ("gamma", "catalog_linear", 11),
    ("kernel-check", "kernel_linear", 12),
    ("corr-check", "corr_quadratic", 13),
    ("rep-check", "catalog_linear", 14),
])
def test_config_mutants_end_cleanly(tmp_path, capsys, command, name, seed):
    base = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    if command == "rep-check":
        base.update(REP_CHECK_SIZE)
    codes = (0, 2, 3, 4, 5, 6) if command == "rep-check" else (0, 2, 3, 4, 6)
    rng = random.Random(seed)
    for i in range(MUTANTS):
        raw = _mutant(base, rng)
        path = tmp_path / f"mutant{i}.json"
        path.write_text(json.dumps(raw))
        code = cli.main([command, "--config", str(path),
                         "--out", str(tmp_path / f"out{i}")])
        err = capsys.readouterr().err.strip().splitlines()
        context = (i, json.dumps(raw), err)
        assert code in codes, context
        assert len(err) <= 1, context
        assert all(len(line) <= 200 for line in err), context
        if code == 4:
            assert err[0].split(":")[0] not in BUILTIN_ERRORS, context


LEAF_VALUES = (None, True, "x", "", [], {}, 10 ** 400, -1, 0)
# every (leaf key, value) of LEAF_VALUES that parse_config may accept: any
# real offset, centre, modulation or coefficient (but a zero coefficient_re
# or real poly term leaves the one-atom form factor zero), a negative slope
# (omega falls with k), a directory name, order 0 where it does not repeat,
# sector_max 0 (the vacuum sector alone) and any nonnegative seed
LEAF_ACCEPTS = {
    "offset": (-1, 0), "slope": (-1,), "center": (-1, 0),
    "modulation": (-1, 0), "coefficient_re": (-1,),
    "coefficient_im": (-1, 0), "poly": (-1, 0), "directory": ("x",),
    "orders": (0,), "sector_max": (0,), "seed": (0, 10 ** 400),
}


@pytest.mark.parametrize("name", sorted(p.stem
                                        for p in CONFIG_DIR.glob("*.json")))
def test_every_config_leaf_is_typed_and_bounded(tmp_path, capsys,
                                                monkeypatch, name):
    """Each leaf of a shipped config, list entries included, set in turn to
    each of LEAF_VALUES: either one config error line of at most 200
    characters naming the leaf's key (or, for a form factor the value makes
    zero, the form factor), or a value LEAF_ACCEPTS lists for that key.
    The command itself is stubbed out: only the parse runs."""
    monkeypatch.setattr(cli, "cmd_gamma", lambda cfg, force: 0)
    base = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    accepted = set()
    for path in _leaves(base):
        key = [step for step in path if isinstance(step, str)][-1]
        for value in LEAF_VALUES:
            raw = json.loads(json.dumps(base))
            parent = raw
            for step in path[:-1]:
                parent = parent[step]
            parent[path[-1]] = value
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(raw))
            code = cli.main(["gamma", "--config", str(cfg)])
            err = capsys.readouterr().err.strip().splitlines()
            context = (path, repr(value)[:20], err)
            if code == 0:
                assert not err, context
                assert any(type(v) is type(value) and v == value
                           for v in LEAF_ACCEPTS.get(key, ())), context
                accepted.add((key, repr(value)))
                continue
            assert code == 2 and len(err) == 1, context
            assert err[0].startswith("config error: "), context
            assert len(err[0]) <= 200, context
            assert key in err[0] or err[0].endswith(
                f"{path[0]} must be nonzero"), context
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]
    # no stale entry: each listed value of a key this config has parses
    keys = {step for path in _leaves(base) for step in path
            if isinstance(step, str)}
    assert accepted == {(key, repr(v)) for key, values in LEAF_ACCEPTS.items()
                        if key in keys for v in values}
