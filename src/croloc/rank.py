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

import copy
import math
from bisect import bisect_left
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from datetime import datetime
from operator import attrgetter

import numpy as np

from .corpus import BugReport
from .index import Index, QueryVector, query_dense, stack_weights

TECHNIQUES = ("vsm", "rvsm", "buglocator")
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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class HistoryEntry:
    """One earlier resolved report usable as similarity evidence."""

    report_id: str
    resolved_at: datetime
    vector: QueryVector
    fixed_doc_ids: tuple[int, ...]
    n_fixed: int


class HistorySet:
    """Prior-report evidence with temporal filtering.

    A report is usable for a query only when it was resolved strictly before
    the query was reported; unresolved reports and reports without fixed
    files never contribute. Entries are held in stable resolution-time
    order, as arrays: row r of the CSR matrix (indptr, indices, data, norms)
    is entry r's vector, and each (row, doc) pair of a fix is one incidence.
    Rows ascend, so the first n entries' rows and incidences are prefixes,
    and ``before`` is a bisection that returns a view sharing these arrays.
    """

    def __init__(self, entries: Iterable[HistoryEntry]):
        self._entries = tuple(sorted(entries, key=attrgetter("resolved_at")))
        self._times = [e.resolved_at for e in self._entries]
        self._n = len(self._entries)
        self._indptr, self._indices, self._data = stack_weights(
            [e.vector.weights for e in self._entries])
        self._norms = np.array([e.vector.norm for e in self._entries], dtype=np.float64)
        self._n_fixed = np.array([e.n_fixed for e in self._entries], dtype=np.float64)
        # An entry without a fix divisor or without a file in the index
        # credits nothing.
        pairs = [(row, doc_id) for row, e in enumerate(self._entries) if e.n_fixed
                 for doc_id in e.fixed_doc_ids]
        self._inc_rows = np.array([row for row, _ in pairs], dtype=np.int64)
        self._inc_docs = np.array([doc_id for _, doc_id in pairs], dtype=np.int64)

    @classmethod
    def build(
        cls,
        reports: list[BugReport],
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

        doc_ids = {p: i for i, p in enumerate(index.paths)}
        entries = []
        for report in reports:
            fixed = report.fixed_paths
            if report.resolved_at is None or not fixed:
                continue
            ids = tuple(doc_ids[p] for p in fixed if p in doc_ids)
            entries.append(HistoryEntry(report.id, report.resolved_at, vectorize(report),
                                        fixed_doc_ids=ids, n_fixed=len(fixed)))
        return cls(entries)

    def before(self, reported_at: datetime) -> "HistorySet":
        """The entries resolved strictly before ``reported_at``."""
        view = copy.copy(self)
        view._n = bisect_left(self._times, reported_at, hi=self._n)
        return view

    @property
    def entries(self) -> tuple[HistoryEntry, ...]:
        return self._entries[:self._n]

    def __len__(self) -> int:
        return self._n

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, data, norms) of this set's rows."""
        n = self._n
        nnz = self._indptr[n]
        return self._indptr[:n + 1], self._indices[:nnz], self._data[:nnz], self._norms[:n]

    def incidences(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, doc id) of every file this set's fixes touched, and each
        row's number of fixed files."""
        k = np.searchsorted(self._inc_rows, self._n)
        return self._inc_rows[:k], self._inc_docs[:k], self._n_fixed


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
    out = np.zeros(n_docs, dtype=np.float64)
    if qnorm <= 0.0:
        return out
    products = data * qdense[indices]
    # bincount adds each product into its row's bin in stored order, starting
    # from 0.0, and leaves empty rows at exactly 0.
    row_ids = np.repeat(np.arange(n_docs), np.diff(indptr))
    dots = np.bincount(row_ids, weights=products, minlength=n_docs)
    denom = norms * qnorm
    mask = denom > 0.0
    out[mask] = dots[mask] / denom[mask]
    return out


def vsm_scores(query: QueryVector, index: Index) -> np.ndarray:
    indptr, indices, data, norms = index.csr()
    qdense = query_dense(query, index)
    return csr_cosine(indptr, indices, data, norms, qdense, query.norm)


def rvsm_scores(query: QueryVector, index: Index) -> np.ndarray:
    return _sigmoid(minmax(index.term_counts)) * vsm_scores(query, index)


def simi_scores(
    query: QueryVector,
    index: Index,
    history: HistorySet | Iterable[HistoryEntry],
) -> np.ndarray:
    """Sum over usable prior reports of cosine(query, report)/n_fixed, added
    to every file that report's fix touched.

    One cosine sweep over the history rows, then one scatter of each row's
    share onto its fixed files, in row order."""
    if not isinstance(history, HistorySet):
        history = HistorySet(history)
    sims = csr_cosine(*history.csr(), query_dense(query, index), query.norm)
    rows, docs, n_fixed = history.incidences()
    return np.bincount(docs, weights=sims[rows] / n_fixed[rows], minlength=index.n_docs)


def buglocator_scores(
    query: QueryVector,
    index: Index,
    history: HistorySet | Iterable[HistoryEntry],
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
    history: HistorySet | Iterable[HistoryEntry] | None = None,
    alpha: float = DEFAULT_ALPHA,
) -> np.ndarray:
    if technique == "vsm":
        return vsm_scores(query, index)
    if technique == "rvsm":
        return rvsm_scores(query, index)
    if technique == "buglocator":
        return buglocator_scores(query, index, history if history is not None else (), alpha)
    raise ValueError(f"unknown technique {technique!r}; expected one of {TECHNIQUES}")


@dataclass(frozen=True)
class RankingEntry:
    rank: int
    path: str
    score: float
    doc_id: int


def make_ranking(scores: np.ndarray, index: Index, top_k: int = DEFAULT_TOP_K) -> list[RankingEntry]:
    """Top-k documents ordered by descending score, path-lexicographic on ties."""
    scores = np.asarray(scores, dtype=np.float64)
    # lexsort is stable and sorts by its last key first: the order of
    # sorted(key=(-score, path)).
    order = np.lexsort((index.path_rank, -scores))
    if top_k > 0:
        order = order[:top_k]
    paths = index.paths
    return [
        RankingEntry(rank=r, path=paths[d], score=score, doc_id=d)
        for r, (d, score) in enumerate(zip(order.tolist(), scores[order].tolist()), start=1)
    ]
