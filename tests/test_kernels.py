"""Cosine kernel tests against a brute-force sum and a per-row loop, and the
postings kernel of ``vsm_scores`` against the row sweep it replaced and the
per-row loop."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from conftest import batch
from croloc.index import Index, QueryVector, transpose
from croloc.rank import csr_cosine, vsm_scores
from reference import ref_csr_cosine


def _csr_from_rows(rows):
    """indptr, indices, data and row norms of ``{column: weight}`` rows."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    indices, data = [], []
    for d, row in enumerate(rows):
        for c in sorted(row):
            indices.append(c)
            data.append(row[c])
        indptr[d + 1] = len(indices)
    norms = np.array(
        [math.sqrt(sum(v * v for v in row.values())) for row in rows],
        dtype=np.float64,
    )
    return (
        indptr,
        np.array(indices, dtype=np.int64),
        np.array(data, dtype=np.float64),
        norms,
    )


def _random_csr(seed, n_docs=None, n_terms=None):
    """Random sparse weight matrix in CSR form plus a dense query."""
    rng = random.Random(seed)
    n_docs = n_docs if n_docs is not None else rng.randint(1, 30)
    n_terms = n_terms if n_terms is not None else rng.randint(1, 40)
    rows = []
    for _ in range(n_docs):
        cols = sorted(rng.sample(range(n_terms), k=rng.randint(0, min(8, n_terms))))
        rows.append({c: rng.uniform(0.01, 3.0) for c in cols})
    indptr, indices, data, norms = _csr_from_rows(rows)
    qdense = np.zeros(n_terms, dtype=np.float64)
    for c in rng.sample(range(n_terms), k=rng.randint(0, min(10, n_terms))):
        qdense[c] = rng.uniform(0.01, 3.0)
    qnorm = float(np.sqrt((qdense * qdense).sum()))
    return rows, (indptr, indices, data, norms, qdense, qnorm)


def _per_row_loop(indptr, indices, data, norms, qdense, qnorm):
    """Reference: each row summed on its own, in stored order, from 0.0."""
    out = []
    for d in range(len(indptr) - 1):
        acc = 0.0
        for k in range(indptr[d], indptr[d + 1]):
            acc += float(data[k]) * float(qdense[indices[k]])
        denom = float(norms[d]) * qnorm
        out.append(acc / denom if denom > 0.0 else 0.0)
    return out


def _with_duplicated_rows(seed):
    """CSR args where one row recurs at several offsets, plus those rows."""
    rng = random.Random(seed)
    n_terms = 12
    dup = {c: rng.uniform(0.01, 3.0) for c in rng.sample(range(n_terms), k=5)}
    rows, dup_rows = [], []
    for d in range(40):
        if d % 9 == 4:
            dup_rows.append(d)
            rows.append(dict(dup))
        else:
            cols = rng.sample(range(n_terms), k=rng.randint(0, 8))
            rows.append({c: rng.uniform(0.01, 3.0) for c in cols})
    qdense = np.array([rng.uniform(0.01, 3.0) for _ in range(n_terms)])
    qnorm = float(np.sqrt((qdense * qdense).sum()))
    return (*_csr_from_rows(rows), qdense, qnorm), dup_rows


def _kernel(indptr, indices, data, norms, qdense, qnorm):
    """``csr_cosine`` of one dense query against the rows of a CSR matrix,
    through the rows' term postings."""
    ptr, rows, weights = transpose(indptr, indices, data, len(qdense))
    return csr_cosine(ptr, rows, weights, norms, batch(_query(qdense, qnorm)), None)[0]


def _brute_force(rows, qdense, qnorm, norms):
    out = []
    for row, norm in zip(rows, norms):
        dot = sum(w * qdense[c] for c, w in row.items())
        denom = norm * qnorm
        out.append(dot / denom if denom > 0.0 else 0.0)
    return out


class TestNumpyKernel:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        rows, args = _random_csr(seed)
        indptr, indices, data, norms, qdense, qnorm = args
        got = _kernel(*args)
        want = _brute_force(rows, qdense, qnorm, norms)
        assert got.tolist() == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_bit_identical_to_per_row_loop(self, seed):
        _, args = _random_csr(seed)
        assert _kernel(*args).tolist() == _per_row_loop(*args)

    @pytest.mark.parametrize("seed", range(10))
    def test_duplicated_rows_get_identical_cosines(self, seed):
        args, dup_rows = _with_duplicated_rows(seed)
        got = _kernel(*args).tolist()
        assert got == _per_row_loop(*args)
        assert len({got[d] for d in dup_rows}) == 1

    def test_zero_query_norm(self):
        _, args = _random_csr(99)
        indptr, indices, data, norms, qdense, qnorm = args
        out = _kernel(indptr, indices, data, norms, np.zeros_like(qdense), 0.0)
        assert not out.any()

    def test_empty_rows_score_zero(self):
        indptr = np.array([0, 0, 1], dtype=np.int64)  # first row empty
        indices = np.array([0], dtype=np.int64)
        data = np.array([2.0], dtype=np.float64)
        norms = np.array([0.0, 2.0], dtype=np.float64)
        qdense = np.array([1.0], dtype=np.float64)
        out = _kernel(indptr, indices, data, norms, qdense, 1.0)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(1.0)

    def test_zero_document_matrix(self):
        indptr = np.zeros(1, dtype=np.int64)
        out = _kernel(
            indptr,
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
            np.zeros(0, dtype=np.float64),
            np.array([1.0]),
            1.0,
        )
        assert out.shape == (0,)

    def test_values_bounded(self):
        for seed in range(5):
            _, args = _random_csr(seed + 200)
            out = _kernel(*args)
            assert np.all(out <= 1.0 + 1e-9)
            assert np.all(out >= -1e-9)  # all weights here are nonnegative


def _as_index(indptr, indices, data, norms, n_terms):
    """An Index over the CSR arrays, with placeholder paths and vocabulary."""
    n_docs = len(indptr) - 1
    doc_freq = tuple(max(1, n) for n in np.bincount(indices, minlength=n_terms).tolist())
    return Index(False, tuple(f"d{d}" for d in range(n_docs)),
                 tuple(f"t{t}" for t in range(n_terms)), doc_freq,
                 indptr, indices, data, norms, np.ones(n_docs, dtype=np.int64))


def _query(qdense, qnorm):
    return QueryVector({t: float(qdense[t]) for t in np.flatnonzero(qdense).tolist()}, qnorm)


def _assert_postings_bit_identical(args):
    indptr, indices, data, norms, qdense, qnorm = args
    index = _as_index(indptr, indices, data, norms, len(qdense))
    got = vsm_scores(batch(_query(qdense, qnorm)), index)[0]
    want = ref_csr_cosine(*args)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert got.tolist() == _per_row_loop(*args)
    return got


class TestPostingsKernel:
    @pytest.mark.parametrize("seed", range(40))
    def test_bit_identical_to_csr_sweep(self, seed):
        # Rows may be empty, and the query may hold terms no row has.
        rng = random.Random(seed)
        _, args = _random_csr(seed, n_docs=rng.randint(0, 60), n_terms=rng.randint(1, 80))
        _assert_postings_bit_identical(args)

    @pytest.mark.parametrize("seed", range(10))
    def test_duplicated_rows_get_identical_cosines(self, seed):
        args, dup_rows = _with_duplicated_rows(seed)
        got = _assert_postings_bit_identical(args).tolist()
        assert len({got[d] for d in dup_rows}) == 1

    def test_zero_norm_rows_and_query_terms_without_postings(self):
        _, (indptr, indices, data, norms, qdense, qnorm) = _random_csr(7, 30, 20)
        norms = norms.copy()
        norms[::4] = 0.0  # rows with weights but zero norm score 0
        qdense = np.concatenate([qdense, [0.5, 1.5]])  # terms 20 and 21 occur nowhere
        qnorm = float(np.sqrt((qdense * qdense).sum()))
        got = _assert_postings_bit_identical((indptr, indices, data, norms, qdense, qnorm))
        assert not got[::4].any()

    def test_zero_norm_query_scores_zero(self):
        _, (indptr, indices, data, norms, qdense, _) = _random_csr(11, 20, 15)
        qdense = np.zeros_like(qdense)
        qdense[3] = 1.0  # a weight, but a zero norm
        assert not _assert_postings_bit_identical(
            (indptr, indices, data, norms, qdense, 0.0)).any()

    def test_postings_are_the_transpose(self):
        rows, (indptr, indices, data, norms, qdense, _) = _random_csr(5, 25, 30)
        ptr, docs, weights = _as_index(indptr, indices, data, norms, len(qdense)).postings
        assert len(ptr) == len(qdense) + 1
        for t in range(len(qdense)):
            lo, hi = ptr[t], ptr[t + 1]
            assert docs[lo:hi].tolist() == [d for d, row in enumerate(rows) if t in row]
            assert weights[lo:hi].tolist() == [row[t] for row in rows if t in row]
