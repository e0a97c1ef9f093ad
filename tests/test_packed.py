"""Packed symmetric storage: index tables, the dense conversions, batched
operators and suites, and faults in the tables that the checks must catch."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import multinoise as mn
from multinoise import checks, fock
from multinoise.checks import (pack, random_coefficients, random_fock_vector,
                               run_representation_checks, symmetrize, unpack)
from multinoise.fock import FockVector

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("m, cap", [(1, 3), (2, 3), (3, 5), (6, 4)])
def test_index_tables_match_their_definitions(m, cap):
    tables = fock.index_tables(m, cap)
    for k in range(cap + 1):
        combos = list(itertools.combinations_with_replacement(range(m), k))
        multi = tables.multi[k]
        assert np.array_equal(multi, np.array(combos).reshape(len(combos), k))
        assert multi.shape[0] == math.comb(m + k - 1, k)
        dense = np.array(list(itertools.product(range(m), repeat=k)))
        assert np.array_equal(multi[tables.flat[k]],
                              np.sort(dense.reshape(m ** k, k), axis=1))
        counts = [np.bincount(row, minlength=m) for row in multi]
        assert_allclose(tables.mult[k], [math.factorial(k) / math.prod(
            math.factorial(c) for c in n) for n in counts], rtol=0, atol=0)
        for p in range(k):
            assert np.array_equal(tables.multi[k - 1][tables.remove[k][:, p]],
                                  np.delete(multi, p, axis=1))
        if k < cap:
            for j in range(m):
                grown = np.column_stack([multi, np.full(len(multi), j)])
                assert np.array_equal(tables.multi[k + 1][tables.add[k][:, j]],
                                      np.sort(grown, axis=1))


def test_stored_entries_per_vector():
    """C(m + cap, cap) entries per vector, against the dense sum of m**k."""
    for m, cap, packed, dense in ((6, 4, 210, 1555), (10, 6, 8008, 1111111)):
        multi = fock.index_tables(m, cap).multi
        assert sum(len(rows) for rows in multi) == packed
        assert sum(m ** k for k in range(cap + 1)) == dense


def test_tables_are_not_built_at_import():
    code = ("import multinoise.cli, multinoise.fock as f; "
            "print(f.index_tables.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "0"


def test_packed_draw_is_the_symmetrized_dense_draw(small_sectors):
    """random_fock_vector reads the generator as one dense draw per rank did,
    real part then imaginary part, and its packing equals ``symmetrize``."""
    sector = small_sectors[1]
    for max_rank in range(sector.particle_cap + 1):
        ours, dense = np.random.default_rng(5), np.random.default_rng(5)
        phi = random_fock_vector(sector, ours, max_rank)
        raw = [dense.standard_normal((4,) * k)
               + 1j * dense.standard_normal((4,) * k) for k in range(max_rank + 1)]
        expected = [symmetrize(x) for x in raw]
        norm = math.sqrt(sum(np.vdot(x, x).real for x in expected))
        for k, got in enumerate(unpack(phi)):
            want = expected[k] / norm if k <= max_rank else 0.0
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-15
        assert ours.standard_normal() == dense.standard_normal()
        # packing the same dense draw unpacks to its symmetrization
        for got, want in zip(unpack(FockVector(sector, pack(sector, raw))),
                             expected):
            assert np.max(np.abs(got - want)) <= 1e-15


def test_pack_of_a_symmetric_tensor_round_trips(small_sectors, rng):
    sector = small_sectors[2]
    phi = random_fock_vector(sector, rng, sector.particle_cap)
    again = FockVector(sector, pack(sector, unpack(phi)))
    for x, y in zip(again.components, phi.components):
        assert_allclose(x, y, rtol=0, atol=1e-15)


def test_batched_operators_equal_one_vector_at_a_time(small_sectors, rng):
    sector = small_sectors[1]
    cap = sector.particle_cap
    vectors = [random_fock_vector(sector, rng, cap - 1) for _ in range(5)]
    coeffs = np.array([random_coefficients(rng, sector.size) for _ in range(5)])
    batch = FockVector(sector, tuple(np.stack(ranks) for ranks in
                                     zip(*(v.components for v in vectors))))
    for op in (mn.create, mn.annihilate):
        out = op(coeffs, batch)
        for i, v in enumerate(vectors):
            for x, y in zip(out.components, op(coeffs[i], v).components):
                assert_allclose(x[i], y, rtol=0, atol=1e-14)
    for metric in (True, False):
        values = mn.fock_inner(batch, batch, use_metric=metric)
        assert values.shape == (5,)
        for i, v in enumerate(vectors):
            assert abs(values[i] - mn.fock_inner(v, v, metric)) <= 1e-14
    # one coefficient vector broadcast over the batch, and one vector over
    # a batch of coefficient vectors
    for x, y in zip(mn.create(coeffs[0], batch).components,
                    mn.create(coeffs[:1].repeat(5, 0), batch).components):
        assert_allclose(x, y, rtol=0, atol=1e-14)
    for x, y in zip(mn.annihilate(coeffs, vectors[0]).components,
                    mn.annihilate(coeffs, FockVector(sector, tuple(
                        np.repeat(c[None], 5, 0)
                        for c in vectors[0].components))).components):
        assert_allclose(x, y, rtol=0, atol=1e-14)


def test_batched_suites_equal_one_pair_at_a_time(monkeypatch):
    sectors = checks.build_check_sectors(2, 4, 3)
    batched = {**checks.ccr_suite(sectors, np.random.default_rng(3), 6),
               **checks.adjoint_suite(sectors, np.random.default_rng(3), 6)}
    monkeypatch.setattr(checks, "MAX_FOCK_ENTRIES", 1)
    assert checks._batch_sizes(sectors[0], 6) == [1] * 6
    single = {**checks.ccr_suite(sectors, np.random.default_rng(3), 6),
              **checks.adjoint_suite(sectors, np.random.default_rng(3), 6)}
    assert batched.keys() == single.keys()
    for name, value in batched.items():
        assert abs(value - single[name]) <= 1e-14, name


@pytest.mark.parametrize("m, cap, pairs", [(6, 4, 50), (10, 6, 10), (12, 6, 25)])
def test_batches_cover_the_pairs_within_the_entry_bound(m, cap, pairs):
    sector = mn.build_sector(0, 1.0, checks.default_basis(m), cap)
    sizes = checks._batch_sizes(sector, pairs)
    assert sum(sizes) == pairs and min(sizes) >= 1
    per_pair = m * sum(len(rows) for rows in sector.tables.multi)
    assert max(sizes) * per_pair <= checks.MAX_FOCK_ENTRIES


# -- faults the checks must catch ----------------------------------------------

ACCEPTANCE = dict(sector_max=3, basis_size=6, particle_cap=4, seed=1, pairs=5)


def _run_with_tables(monkeypatch, edit):
    """rep-check with the acceptance-size tables changed by edit(), which
    returns changed copies of some of them."""
    original = fock.index_tables

    def edited(m, cap):
        tables = original(m, cap)
        return tables._replace(**edit(tables)) if (m, cap) == (6, 4) else tables

    monkeypatch.setattr(fock, "index_tables", edited)
    return run_representation_checks(**ACCEPTANCE)


def test_clean_tables_pass():
    assert run_representation_checks(**ACCEPTANCE)["passes"]


def test_wrong_multiplicity_fails(monkeypatch):
    def edit(tables):
        mult = [array.copy() for array in tables.mult]
        mult[2][1] = 1.0  # (0, 1) stands for two dense entries, not one
        return {"mult": tuple(mult)}
    report = _run_with_tables(monkeypatch, edit)
    assert {"metric_consistency", "symmetry"} <= set(report["failures"])


def test_wrong_removal_entry_fails(monkeypatch):
    def edit(tables):
        remove = [array.copy() for array in tables.remove]
        remove[3][4, 1] = remove[3][5, 1]
        return {"remove": tuple(remove)}
    report = _run_with_tables(monkeypatch, edit)
    assert {"ccr", "ccr_creators", "symmetry"} <= set(report["failures"])


def test_wrong_addition_entry_fails(monkeypatch):
    def edit(tables):
        add = [array.copy() for array in tables.add]
        add[2][3, 2] = add[2][3, 3]
        return {"add": tuple(add)}
    report = _run_with_tables(monkeypatch, edit)
    assert {"ccr", "ccr_annihilators", "adjoint"} <= set(report["failures"])


def test_packed_draw_without_the_division_fails(monkeypatch):
    """Summing each orbit without dividing by its multiplicity still gives a
    symmetric vector, on which the algebra holds; the dense second route on
    the same draw is what sees it (and metric_consistency, whose Krein-side
    vectors are packed the same way)."""
    original = checks.pack

    def undivided(sector, dense):
        return tuple(c * mult for c, mult in
                     zip(original(sector, dense), sector.tables.mult))

    monkeypatch.setattr(checks, "pack", undivided)
    report = run_representation_checks(**ACCEPTANCE)
    assert report["failures"] == ["metric_consistency", "symmetry"]
