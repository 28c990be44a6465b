"""Scoring and ranking of source files against bug-report queries.

Three techniques build on one another:

    vsm         cosine(query, doc) over tf-idf weights
    rvsm        1/(1 + e^-N(len_d)) * vsm, len_d the document token count
                min-max normalized over the corpus
    buglocator  (1-alpha) * N(rvsm) + alpha * N(simi), where simi credits a
                file with cosine(query, prior_report)/n_fixed for every
                earlier resolved report whose fix touched it

Min-max normalization maps a constant series to 0.5 everywhere. Ties in the
final score break on lexicographic path order.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from datetime import datetime

import numpy as np

from . import TECHNIQUES
from .corpus import BugReport
from .index import Index, QueryVector, query_dense

DEFAULT_ALPHA = 0.2
DEFAULT_TOP_K = 100


def cosine(a_weights: dict[int, float], a_norm: float,
           b_weights: dict[int, float], b_norm: float) -> float:
    """Cosine of two sparse vectors; either side with zero norm scores 0."""
    if a_norm <= 0.0 or b_norm <= 0.0:
        return 0.0
    if len(b_weights) < len(a_weights):
        a_weights, b_weights = b_weights, a_weights
    dot = math.fsum(w * b_weights[t] for t, w in a_weights.items() if t in b_weights)
    return dot / (a_norm * b_norm)


def minmax(values: np.ndarray) -> np.ndarray:
    """(x - min)/(max - min) elementwise; a constant series maps to 0.5."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return values.copy()
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        return np.full(values.shape, 0.5)
    return (values - lo) / (hi - lo)


def length_factor(term_counts: np.ndarray) -> np.ndarray:
    """rVSM's weight of each document by its token count, 1/(1 + e^-N(len_d));
    ``Index.length_factor`` holds it once per index."""
    return 1.0 / (1.0 + np.exp(-minmax(term_counts)))


@dataclass(frozen=True, eq=False)
class HistorySet:
    """Prior-report evidence with temporal filtering.

    A report is usable for a query only when it was resolved strictly before
    the query was reported; unresolved reports and reports without fixed
    files never contribute. The usable reports are held in stable
    resolution-time order, as arrays: row r of the CSR matrix (indptr,
    indices, data, norms) is report r's vector, ``n_fixed[r]`` its number of
    fixed files, and each (row, doc) pair of its fix is one incidence. The
    set is its first ``n`` rows, whose rows and incidences are prefixes, so
    ``before`` is a bisection that returns a view sharing these arrays.
    """

    times: tuple[datetime, ...]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    norms: np.ndarray
    n_fixed: np.ndarray
    inc_rows: np.ndarray
    inc_docs: np.ndarray
    n: int

    @classmethod
    def build(
        cls,
        reports: Iterable[BugReport],
        index: Index,
        vectorize: Callable[[BugReport], QueryVector] | None = None,
    ) -> "HistorySet":
        """History of the resolved reports with fixed files. ``vectorize``
        maps a report to its query vector, by default ``vectorize_query``
        over its query text; callers that rank the same reports pass a
        shared one so each report is vectorized once."""
        from .index import vectorize_query

        if vectorize is None:
            def vectorize(report: BugReport) -> QueryVector:
                return vectorize_query(report.query_text, index)

        usable = [(r, fixed) for r in reports
                  if r.resolved_at is not None and (fixed := r.fixed_paths)]
        usable.sort(key=lambda pair: pair[0].resolved_at)
        vectors = [vectorize(r) for r, _ in usable]
        # Each row's term ids ascend, as in the index's rows.
        rows = [sorted(v.weights.items()) for v in vectors]
        doc_ids = {p: i for i, p in enumerate(index.paths)}
        # A fixed file outside the index counts in n_fixed but credits nothing.
        incidences = np.array([(row, doc_ids[p]) for row, (_, fixed) in enumerate(usable)
                               for p in fixed if p in doc_ids], dtype=np.int64).reshape(-1, 2)
        return cls(
            times=tuple(r.resolved_at for r, _ in usable),
            indptr=np.cumsum([0, *map(len, rows)], dtype=np.int64),
            indices=np.fromiter((t for row in rows for t, _ in row), dtype=np.int64),
            data=np.fromiter((w for row in rows for _, w in row), dtype=np.float64),
            norms=np.array([v.norm for v in vectors], dtype=np.float64),
            n_fixed=np.array([len(fixed) for _, fixed in usable], dtype=np.float64),
            inc_rows=incidences[:, 0],
            inc_docs=incidences[:, 1],
            n=len(usable),
        )

    def before(self, reported_at: datetime) -> "HistorySet":
        """The reports resolved strictly before ``reported_at``."""
        return replace(self, n=bisect_left(self.times, reported_at, hi=self.n))

    def __len__(self) -> int:
        return self.n

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, data, norms) of this set's rows."""
        n = self.n
        nnz = self.indptr[n]
        return self.indptr[:n + 1], self.indices[:nnz], self.data[:nnz], self.norms[:n]

    def incidences(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, doc id) of every file this set's fixes touched, and each
        row's number of fixed files."""
        k = np.searchsorted(self.inc_rows, self.n)
        return self.inc_rows[:k], self.inc_docs[:k], self.n_fixed[:self.n]


def csr_cosine(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    norms: np.ndarray,
    qdense: np.ndarray,
    qnorm: float,
) -> np.ndarray:
    """Cosine of one dense query against every row of a CSR matrix, once per
    bug report and once per history sweep.

    ``indptr``/``indices``/``data`` form the per-row term weights, ``norms``
    the per-row Euclidean norms, ``qdense`` the query weights over the same
    vocabulary. Zero-norm rows or a zero-norm query score 0. Each row's
    products are summed on their own, in stored order, starting from
    ``0.0``, so two identical rows get identical cosines wherever they sit
    in the matrix, and true ties break on path order.
    """
    n_docs = indptr.shape[0] - 1
    if qnorm <= 0.0:
        return np.zeros(n_docs, dtype=np.float64)
    products = data * qdense[indices]
    # bincount adds each product into its row's bin in stored order, starting
    # from 0.0, and leaves empty rows at exactly 0.
    row_ids = np.repeat(np.arange(n_docs), np.diff(indptr))
    return _cosines(np.bincount(row_ids, weights=products, minlength=n_docs), norms, qnorm)


def _cosines(dots: np.ndarray, norms: np.ndarray, qnorm: float) -> np.ndarray:
    """dots / (norms * qnorm), and 0 where that product is not positive."""
    out = np.zeros(dots.shape[0], dtype=np.float64)
    denom = norms * qnorm
    mask = denom > 0.0
    out[mask] = dots[mask] / denom[mask]
    return out


def vsm_scores(query: QueryVector, index: Index) -> np.ndarray:
    """Cosine of the query against every document, over the postings of the
    query's terms only.

    The query's terms are taken in ascending id order and their postings
    gathered in one go, so ``np.bincount`` adds each document's products in
    ascending term id order from 0.0: the order of ``csr_cosine``'s row sum.
    There, the terms a query lacks add a zero product, and adding a zero
    leaves a sum begun at +0.0 unchanged, so both give bit-identical cosines.
    Zero norms score 0, as in ``csr_cosine``.
    """
    n_docs = index.n_docs
    if query.norm <= 0.0:
        return np.zeros(n_docs, dtype=np.float64)
    ptr, docs, weights = index.postings
    term_list = sorted(query.weights)
    terms = np.array(term_list, dtype=np.int64)
    qweights = np.array([query.weights[t] for t in term_list], dtype=np.float64)
    starts = ptr[terms]
    lengths = ptr[terms + 1] - starts
    # Entry j of the i-th term's postings is at starts[i] + j.
    firsts = np.cumsum(lengths) - lengths
    entries = np.arange(lengths.sum()) + np.repeat(starts - firsts, lengths)
    dots = np.bincount(docs[entries], weights=np.repeat(qweights, lengths) * weights[entries],
                       minlength=n_docs)
    return _cosines(dots, index.norms, query.norm)


def rvsm_scores(query: QueryVector, index: Index) -> np.ndarray:
    return index.length_factor * vsm_scores(query, index)


def simi_scores(query: QueryVector, index: Index, history: HistorySet) -> np.ndarray:
    """Sum over usable prior reports of cosine(query, report)/n_fixed, added
    to every file that report's fix touched.

    One cosine sweep over the history rows, then one scatter of each row's
    share onto its fixed files, in row order."""
    sims = csr_cosine(*history.csr(), query_dense(query, index), query.norm)
    rows, docs, n_fixed = history.incidences()
    return np.bincount(docs, weights=sims[rows] / n_fixed[rows], minlength=index.n_docs)


def buglocator_scores(
    query: QueryVector,
    index: Index,
    history: HistorySet,
    alpha: float = DEFAULT_ALPHA,
) -> np.ndarray:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    rvsm = rvsm_scores(query, index)
    simi = simi_scores(query, index, history)
    return (1.0 - alpha) * minmax(rvsm) + alpha * minmax(simi)


def score_documents(
    query: QueryVector,
    index: Index,
    technique: str,
    history: HistorySet | None = None,
    alpha: float = DEFAULT_ALPHA,
) -> np.ndarray:
    """Scores of every document under ``technique``; buglocator takes its
    evidence from ``history``, and None means no history."""
    if technique == "vsm":
        return vsm_scores(query, index)
    if technique == "rvsm":
        return rvsm_scores(query, index)
    if technique == "buglocator":
        if history is None:
            history = HistorySet.build((), index)
        return buglocator_scores(query, index, history, alpha)
    raise ValueError(f"unknown technique {technique!r}; expected one of {TECHNIQUES}")


def make_ranking(scores: np.ndarray, index: Index, top_k: int = DEFAULT_TOP_K) -> np.ndarray:
    """Doc ids of the top-k documents (every document when ``top_k`` is 0),
    by descending score and then by path."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    if 0 < top_k < n:
        # Only documents scoring at least the k-th largest score can rank in
        # the top k; ties with it stay in until the path order decides.
        kth = np.partition(scores, n - top_k)[n - top_k]
        candidates = np.flatnonzero(scores >= kth)
    else:
        candidates = np.arange(n)
    # lexsort is stable and sorts by its last key first: the order of
    # sorted(key=(-score, path)).
    order = candidates[np.lexsort((index.path_rank[candidates], -scores[candidates]))]
    return order[:top_k] if top_k > 0 else order
