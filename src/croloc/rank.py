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

import logging
import math
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from datetime import datetime
from operator import attrgetter

import numpy as np

from ._kernels import csr_cosine
from .corpus import BugReport, normalize_path
from .errors import EvalError
from .index import Index, QueryVector, query_dense, stack_weights

log = logging.getLogger(__name__)

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


@dataclass(frozen=True)
class _Stacked:
    """History entries in resolution-time order, as arrays.

    Row r of the CSR matrix (indptr, indices, data, norms) is entry r's
    vector. Each (row, doc) pair of a fix is one incidence: rows ascend, so
    the incidences of the first n rows are a prefix too.
    """

    entries: tuple[HistoryEntry, ...]
    times: list[datetime]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    norms: np.ndarray
    n_fixed: np.ndarray
    inc_rows: np.ndarray
    inc_docs: np.ndarray


def _stack(entries: Iterable[HistoryEntry]) -> _Stacked:
    ordered = tuple(sorted(entries, key=attrgetter("resolved_at")))
    indptr, indices, data = stack_weights([e.vector.weights for e in ordered])
    # An entry without a fix divisor or without a file in the index credits
    # nothing.
    pairs = [(row, doc_id) for row, e in enumerate(ordered) if e.n_fixed
             for doc_id in e.fixed_doc_ids]
    return _Stacked(
        entries=ordered,
        times=[e.resolved_at for e in ordered],
        indptr=indptr,
        indices=indices,
        data=data,
        norms=np.array([e.vector.norm for e in ordered], dtype=np.float64),
        n_fixed=np.array([e.n_fixed for e in ordered], dtype=np.float64),
        inc_rows=np.array([row for row, _ in pairs], dtype=np.int64),
        inc_docs=np.array([doc_id for _, doc_id in pairs], dtype=np.int64),
    )


class HistorySet(Sequence):
    """Prior-report evidence with temporal filtering.

    A report is usable for a query only when it was resolved strictly before
    the query was reported; unresolved reports and reports without fixed
    files never contribute. Entries are held in stable resolution-time
    order, so ``before`` is a bisection that returns a prefix sharing this
    set's arrays.
    """

    def __init__(self, entries: Iterable[HistoryEntry]):
        self._stacked = _stack(entries)
        self._n = len(self._stacked.entries)

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
            if report.resolved_at is None or not report.fixed_files:
                continue
            fixed = []
            seen = set()
            for f in report.fixed_files:
                norm = normalize_path(f)
                if norm not in seen:
                    seen.add(norm)
                    fixed.append(norm)
            ids = tuple(doc_ids[p] for p in fixed if p in doc_ids)
            entries.append(
                HistoryEntry(
                    report_id=report.id,
                    resolved_at=report.resolved_at,
                    vector=vectorize(report),
                    fixed_doc_ids=ids,
                    n_fixed=len(fixed),
                )
            )
        return cls(entries)

    def before(self, reported_at: datetime) -> "HistorySet":
        """The entries resolved strictly before ``reported_at``."""
        view = object.__new__(HistorySet)
        view._stacked = self._stacked
        view._n = bisect_left(self._stacked.times, reported_at, hi=self._n)
        return view

    @property
    def entries(self) -> tuple[HistoryEntry, ...]:
        return self._stacked.entries[:self._n]

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self) -> Iterator[HistoryEntry]:
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        if isinstance(other, HistorySet):
            return self.entries == other.entries
        if isinstance(other, (list, tuple)):
            return list(self.entries) == list(other)
        return NotImplemented


def vsm_scores(query: QueryVector, index: Index) -> np.ndarray:
    indptr, indices, data, norms = index.csr()
    qdense = query_dense(query, index)
    return csr_cosine(indptr, indices, data, norms, qdense, query.norm)


def rvsm_scores(query: QueryVector, index: Index) -> np.ndarray:
    return _sigmoid(minmax(index.term_counts)) * vsm_scores(query, index)


def simi_scores(
    query: QueryVector,
    index: Index,
    history: Sequence[HistoryEntry],
) -> np.ndarray:
    """Sum over usable prior reports of cosine(query, report)/n_fixed, added
    to every file that report's fix touched.

    One cosine sweep over the history rows, then one scatter of each row's
    share onto its fixed files, in row order."""
    if not isinstance(history, HistorySet):
        history = HistorySet(history)
    h, n = history._stacked, history._n
    nnz = h.indptr[n]
    sims = csr_cosine(h.indptr[:n + 1], h.indices[:nnz], h.data[:nnz], h.norms[:n],
                      query_dense(query, index), query.norm)
    k = np.searchsorted(h.inc_rows, n)
    rows = h.inc_rows[:k]
    return np.bincount(h.inc_docs[:k], weights=sims[rows] / h.n_fixed[rows],
                       minlength=index.n_docs)


def buglocator_scores(
    query: QueryVector,
    index: Index,
    history: Sequence[HistoryEntry],
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
    history: Sequence[HistoryEntry] | None = None,
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
    order = np.lexsort((index.path_rank(), -scores))
    if top_k > 0:
        order = order[:top_k]
    paths = index.paths
    return [
        RankingEntry(rank=r, path=paths[d], score=score, doc_id=d)
        for r, (d, score) in enumerate(zip(order.tolist(), scores[order].tolist()), start=1)
    ]


def _check_field(value: str, what: str) -> str:
    if not value or any(ch.isspace() for ch in value):
        raise EvalError(f"{what} {value!r} is empty or contains whitespace; "
                        "run files are whitespace-delimited")
    return value


def _run_lines(query_id: str, entries: list[RankingEntry], tag: str,
               checked_paths: set[str]) -> list[str]:
    """Run lines of one block; paths already in ``checked_paths`` passed
    their check earlier and are not checked again."""
    _check_field(query_id, "query id")
    _check_field(tag, "run tag")
    lines = []
    for e in entries:
        if e.path not in checked_paths:
            _check_field(e.path, "document path")
            checked_paths.add(e.path)
        lines.append(f"{query_id} Q0 {e.path} {e.rank} {e.score:.6f} {tag}")
    return lines


def format_run_lines(query_id: str, entries: list[RankingEntry], tag: str) -> list[str]:
    return _run_lines(query_id, entries, tag, set())


def write_run_file(
    path: str,
    rankings: list[tuple[str, list[RankingEntry]]],
    tag: str,
) -> None:
    """TREC run format: qid Q0 path rank score tag, scores to six decimals."""
    checked_paths: set[str] = set()
    with open(path, "w", encoding="utf-8") as fh:
        for query_id, entries in rankings:
            for line in _run_lines(query_id, entries, tag, checked_paths):
                fh.write(line + "\n")
