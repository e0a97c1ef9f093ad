"""The counter-based draws of the representation checks: keyed, counted,
normal, and free of numpy scalar arithmetic."""

import json
from pathlib import Path

import numpy as np
import pytest

from multinoise import cli
from multinoise.checks import Stream, run_representation_checks

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
QUICK = dict(sector_max=1, basis_size=4, particle_cap=3, pairs=2)


def test_same_key_same_draws_and_other_keys_other_draws():
    labels = (7, "ccr", 1, "f")
    draws = Stream(*labels).complex_normals((4, 3))
    assert np.array_equal(draws, Stream(*labels).complex_normals((4, 3)))
    others = [(8, "ccr", 1, "f"), (7, "adjoint", 1, "f"),
              (7, "ccr", 2, "f"), (7, "ccr", 1, "h"), (7, "ccr", 1),
              (7 + 2 ** 64, "ccr", 1, "f")]
    for other in others:
        assert not np.any(Stream(*other).complex_normals((4, 3)) == draws), other


def test_draws_are_counted_in_order():
    """Consecutive calls read consecutive words: split draws equal one draw."""
    whole = Stream(3).complex_normals((6, 5))
    split = Stream(3)
    parts = [split.complex_normals((n, 5)) for n in (1, 2, 3)]
    assert np.array_equal(np.concatenate(parts), whole)
    assert split.drawn == 2 * whole.size


def test_normals_have_unit_variance_and_no_correlation():
    """10**5 normals: mean, variance and the real-imaginary correlation each
    within 5 sigma of 0, 1 and 0."""
    z = Stream(1).complex_normals((50_000,))
    x = np.concatenate([z.real, z.imag])
    n = x.size
    assert abs(x.mean()) <= 5 / np.sqrt(n)
    assert abs(x.var() - 1) <= 5 * np.sqrt(2 / n)
    assert abs(np.mean(z.real * z.imag)) <= 5 / np.sqrt(n / 2)


def test_index_covers_its_range():
    stream = Stream(2)
    seen = {stream.index(4) for _ in range(200)}
    assert seen == {0, 1, 2, 3}


def test_every_limb_of_a_seed_enters_the_key():
    seed = 10 ** 29 + 7  # three 64-bit limbs
    low = seed % 2 ** 64
    assert not np.array_equal(Stream(seed).words(4), Stream(low).words(4))
    assert not np.array_equal(Stream(2 ** 64).words(4), Stream(0).words(4))


def test_negative_labels_are_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        Stream(-1)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        run_representation_checks(**QUICK, seed=-1)


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, 2 ** 64, 10 ** 29 + 7])
def test_every_accepted_seed_runs(tmp_path, seed):
    """Any nonnegative seed parse_config accepts, a 30-digit --seed among
    them, runs the checks; none is refused."""
    raw = json.loads((CONFIG_DIR / "catalog_linear.json").read_text())
    raw.update(truncation={k: QUICK[k] for k in
                           ("sector_max", "basis_size", "particle_cap")},
               rep_pairs=QUICK["pairs"], seed=seed)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main(["rep-check", "--config", str(cfg), "--out", str(out),
                     "--seed", str(seed)]) == 0
    assert json.loads((out / "rep_check.json").read_text())["seed"] == seed


def test_no_numpy_scalar_overflow():
    """Words wrap modulo 2**64 in array arithmetic; a numpy scalar's wrap
    would raise under errstate, as the CLI runs."""
    with np.errstate(all="raise"):
        Stream(2 ** 200 - 1, "ccr", 3, "phi").complex_normals((1000,))
        Stream(2 ** 64 - 1).index(3)
        assert run_representation_checks(**QUICK, seed=2 ** 64 - 1)["passes"]
