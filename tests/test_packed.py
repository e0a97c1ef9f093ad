"""Packed symmetric storage: index tables, packed draws, batched operators
and suites, and faults in the tables that the checks must catch."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import multinoise as mn
from multinoise import checks, fock
from multinoise.checks import (random_coefficients, random_fock_vector,
                               run_representation_checks)
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


@pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
def test_random_fock_vector_draws_packed_normals(small_sectors, batch):
    """2 |batch| sum_{k <= r} C(m+k-1, k) normals, nothing above rank r, and
    unit positive norm per batch entry."""
    sector = small_sectors[1]
    m = sector.size
    for max_rank in range(sector.particle_cap + 1):
        ours, twin = checks.Stream(5), checks.Stream(5)
        phi = random_fock_vector(sector, ours, max_rank, batch)
        twin.complex_normals((math.prod(batch) * sum(
            math.comb(m + k - 1, k) for k in range(max_rank + 1)),))
        assert ours.complex_normals((1,)) == twin.complex_normals((1,))
        for k, comp in enumerate(phi.components):
            assert comp.shape == (*batch, math.comb(m + k - 1, k))
            assert np.all(comp == 0) == (k > max_rank)
        assert_allclose(phi.positive_norm(), np.ones(batch), rtol=0, atol=1e-15)


def test_batched_operators_equal_one_vector_at_a_time(small_sectors, stream):
    sector = small_sectors[1]
    cap = sector.particle_cap
    vectors = [random_fock_vector(sector, stream, cap - 1) for _ in range(5)]
    coeffs = np.array([random_coefficients(stream, sector.size) for _ in range(5)])
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


@pytest.mark.parametrize("m, cap, pairs", [(6, 4, 50), (10, 6, 10), (12, 6, 25)])
def test_batches_cover_the_pairs_within_the_entry_bound(m, cap, pairs):
    sector = mn.build_sector(0, 1.0, checks.default_basis(m), cap)
    sizes = list(checks._batch_sizes(sector, pairs))
    assert sum(sizes) == pairs and min(sizes) >= 1
    per_pair = m * sum(len(rows) for rows in sector.tables.multi)
    assert max(sizes) * per_pair <= checks.MAX_FOCK_ENTRIES


def test_batch_sizes_are_yielded_lazily():
    """A huge pair count costs nothing before the first batch is drawn."""
    sector = mn.build_sector(0, 1.0, checks.default_basis(6), 4)
    tracemalloc.start()
    try:
        first = next(iter(checks._batch_sizes(sector, 10 ** 18)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == checks.MAX_FOCK_ENTRIES // (6 * 210)
    assert peak <= 100_000


def test_rep_check_draws_packed_normals_only(monkeypatch):
    """Per vector, 2 C(m+k-1, k) normals per occupied rank k, never the 2 m**k
    of a dense draw; per coefficient vector 2 m."""
    normals = []
    complex_normals = checks.Stream.complex_normals

    def counting(self, shape):
        normals.append(2 * math.prod(shape))
        return complex_normals(self, shape)

    monkeypatch.setattr(checks.Stream, "complex_normals", counting)
    size = dict(sector_max=1, basis_size=4, particle_cap=3)
    pairs = 3
    run_representation_checks(**size, seed=2, pairs=pairs)
    m, cap = size["basis_size"], size["particle_cap"]
    expected = 2 * m * checks.FOCK_WICK_WORDS_PER_PATTERN * sum(
        len(signs) for signs in checks._WORD_PATTERNS)
    for sector in checks.build_check_sectors(**size).values():
        def vector(r):
            return 2 * sum(len(rows) for rows in sector.tables.multi[:r + 1])
        # ccr: cf, ch, phi up to rank cap - 1, psi up to cap - 2
        expected += pairs * (2 * 2 * m + vector(cap - 1) + vector(cap - 2))
        # adjoint: cf, phi up to rank cap, psi up to cap - 1
        expected += pairs * (2 * m + vector(cap) + vector(cap - 1))
        # metric: cf and ch, no vectors
        expected += checks.METRIC_PAIRS * 2 * 2 * m
    assert sum(normals) == expected


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
    """The multiplicities weigh the inner products only, so at every rank the
    adjoint identity and the metric products of created powers see a fault."""
    for rank in range(1, ACCEPTANCE["particle_cap"] + 1):
        def edit(tables):
            mult = [array.copy() for array in tables.mult]
            mult[rank][1] = rank + 1.0  # (0, ..., 0, 1) stands for rank entries
            return {"mult": tuple(mult)}
        with monkeypatch.context() as patch:
            report = _run_with_tables(patch, edit)
        assert set(report["failures"]) == {"adjoint", "metric_consistency"}, rank


def test_wrong_removal_entry_fails(monkeypatch):
    """create gathers through the removal table and the symmetry residual's
    closed form does not, so a wrong entry at any rank from 2 to the cap
    fails it; rows 4 and 5 are (0, ..., 0, 4) and (0, ..., 0, 5), which stay
    distinct without slot 0."""
    for rank in range(2, ACCEPTANCE["particle_cap"] + 1):
        def edit(tables):
            remove = [array.copy() for array in tables.remove]
            remove[rank][4, 0] = remove[rank][5, 0]
            return {"remove": tuple(remove)}
        with monkeypatch.context() as patch:
            report = _run_with_tables(patch, edit)
        assert {"ccr", "ccr_creators", "symmetry"} <= set(report["failures"]), rank


def _wrong_addition_entry(tables):
    add = [array.copy() for array in tables.add]
    add[2][3, 2] = add[2][3, 3]
    return {"add": tuple(add)}


def test_wrong_addition_entry_fails(monkeypatch):
    report = _run_with_tables(monkeypatch, _wrong_addition_entry)
    assert {"ccr", "ccr_annihilators", "adjoint"} <= set(report["failures"])


def test_create_off_by_1e7_relative_fails(monkeypatch):
    """A creation whose rank-k output is 1e-7 too large, k = 1..cap, fails
    every residual that compares create with a route of its own (at rank 1
    the witness's squared norm -5 also moves by just over its 1e-6 bound)."""
    for rank in range(1, ACCEPTANCE["particle_cap"] + 1):
        def scaled(coeffs, phi):
            comps = list(fock.create(coeffs, phi).components)
            if rank < len(comps):  # the witness sector has cap 2
                comps[rank] = comps[rank] * (1 + 1e-7)
            return FockVector(phi.sector, tuple(comps))
        with monkeypatch.context() as patch:
            patch.setattr(checks, "create", scaled)
            report = run_representation_checks(**ACCEPTANCE)
        assert {"adjoint", "ccr", "metric_consistency", "symmetry"} <= set(
            report["failures"]), rank


def test_residuals_do_not_depend_on_the_batch_split(monkeypatch):
    """Each quantity's draws are counted pair-major, so batches of one pair
    give the residuals of one full batch bit for bit."""
    size = dict(ACCEPTANCE, pairs=10)
    full = run_representation_checks(**size)["residuals"]
    monkeypatch.setattr(checks, "MAX_FOCK_ENTRIES", 1)
    assert list(checks._batch_sizes(checks.build_check_sectors(0, 6, 4)[0],
                                    size["pairs"])) == [1] * 10
    assert run_representation_checks(**size)["residuals"] == full


def test_one_pair_batches_pass_clean_and_fail_the_same_faults(monkeypatch):
    """Batches of one pair pass a clean run, and a table fault fails the
    same residuals as in full batches."""
    full_batches = checks.MAX_FOCK_ENTRIES
    monkeypatch.setattr(checks, "MAX_FOCK_ENTRIES", 1)
    assert list(checks._batch_sizes(checks.build_check_sectors(0, 6, 4)[0],
                                    ACCEPTANCE["pairs"])) == [1] * 5
    assert run_representation_checks(**ACCEPTANCE)["passes"]
    single = _run_with_tables(monkeypatch, _wrong_addition_entry)["failures"]
    monkeypatch.setattr(checks, "MAX_FOCK_ENTRIES", full_batches)
    full = run_representation_checks(**ACCEPTANCE)["failures"]  # tables still edited
    assert single == full
