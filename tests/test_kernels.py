"""Cosine kernel tests against a brute-force sum and a per-row loop."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from croloc.rank import csr_cosine


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
        got = csr_cosine(*args)
        want = _brute_force(rows, qdense, qnorm, norms)
        assert got.tolist() == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_bit_identical_to_per_row_loop(self, seed):
        _, args = _random_csr(seed)
        assert csr_cosine(*args).tolist() == _per_row_loop(*args)

    @pytest.mark.parametrize("seed", range(10))
    def test_duplicated_rows_get_identical_cosines(self, seed):
        args, dup_rows = _with_duplicated_rows(seed)
        got = csr_cosine(*args).tolist()
        assert got == _per_row_loop(*args)
        assert len({got[d] for d in dup_rows}) == 1

    def test_zero_query_norm(self):
        _, args = _random_csr(99)
        indptr, indices, data, norms, qdense, qnorm = args
        out = csr_cosine(indptr, indices, data, norms,
                         np.zeros_like(qdense), 0.0)
        assert not out.any()

    def test_empty_rows_score_zero(self):
        indptr = np.array([0, 0, 1], dtype=np.int64)  # first row empty
        indices = np.array([0], dtype=np.int64)
        data = np.array([2.0], dtype=np.float64)
        norms = np.array([0.0, 2.0], dtype=np.float64)
        qdense = np.array([1.0], dtype=np.float64)
        out = csr_cosine(indptr, indices, data, norms, qdense, 1.0)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(1.0)

    def test_zero_document_matrix(self):
        indptr = np.zeros(1, dtype=np.int64)
        out = csr_cosine(
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
            out = csr_cosine(*args)
            assert np.all(out <= 1.0 + 1e-9)
            assert np.all(out >= -1e-9)  # all weights here are nonnegative
