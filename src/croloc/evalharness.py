"""Ranking evaluation: TREC run and qrels files, oracle linking, MAP/MRR/Success@N.

Metric semantics match trec_eval: average precision divides by the total
number of relevant files in the qrels (retrieved or not), reciprocal rank is
0 when nothing relevant is retrieved, and Success@N is the fraction of
queries with a relevant file in the top N, for BugLocator's Top-N cutoffs
N = 1, 5 and 10.
"""
from __future__ import annotations

import logging
import math
import re
from collections.abc import Iterable, Sequence
from typing import NamedTuple, TextIO

from . import MODES
from .corpus import (BugReport, check_record, check_token, normalize_path, read_json_lines,
                     read_lines, write_atomically)
from .errors import EvalError

log = logging.getLogger(__name__)

GRADE_DIRECT = 2
GRADE_INDIRECT = 1
SUCCESS_NS = (1, 5, 10)


# Relevance grades per query and path: 2 directly fixed, 1 indirectly linked.
Qrels = dict[str, dict[str, int]]


def read_qrels(path: str) -> Qrels:
    """TREC qrels: `qid 0 path grade`, whitespace-separated."""
    qrels: Qrels = {}
    for lineno, line in read_lines(path, EvalError):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise EvalError(f"{path}:{lineno}: expected 4 fields, found {len(parts)}")
        query_id, _, doc_path, grade_text = parts
        try:
            grade = int(grade_text)
        except ValueError:
            raise EvalError(f"{path}:{lineno}: grade {grade_text!r} is not an integer")
        if grade < 0:
            raise EvalError(f"{path}:{lineno}: negative grade {grade}")
        qrels.setdefault(query_id, {})[doc_path] = grade
    return qrels


def write_qrels(out: TextIO, qrels: Qrels) -> None:
    """TREC qrels lines, sorted by query id and then by path, all checked first."""
    lines = []
    for query_id in sorted(qrels):
        check_token(query_id, "query id", EvalError)
        grades = qrels[query_id]
        for doc_path in sorted(grades):
            check_token(doc_path, "document path", EvalError)
            lines.append(f"{query_id} 0 {doc_path} {grades[doc_path]}\n")
    out.write("".join(lines))


_COMMIT_FIELDS = {"hash": str, "message": str, "changed_files": list}


def load_commit_log(path: str) -> list[dict]:
    """JSONL commits: {"hash": ..., "message": ..., "changed_files": [...]}."""
    return [check_record(obj, _COMMIT_FIELDS, _COMMIT_FIELDS, EvalError, f"{path}:{lineno}")
            for lineno, obj in read_json_lines(path, EvalError)]


def _id_pattern(report_id: str) -> re.Pattern:
    # Word-ish boundaries so BUG-7 does not match inside BUG-73.
    return re.compile(rf"(?<![A-Za-z0-9_]){re.escape(report_id)}(?![A-Za-z0-9_])")


def link_oracles(reports: list[BugReport], commits: list[dict]) -> Qrels:
    """Build qrels from report fix lists and commit references.

    Files a report records as fixed are graded direct. Files changed by any
    commit whose message mentions the report id get the indirect grade,
    unless already direct. Reports without either source produce no rows.
    """
    qrels: Qrels = {}
    for report in reports:
        direct = set(report.fixed_paths)
        for p in sorted(direct):
            qrels.setdefault(report.id, {})[p] = GRADE_DIRECT
        pattern = None
        for commit in commits:
            message = commit["message"]
            # The pattern matches only where the id occurs verbatim, so a
            # substring test rules out most commits before any regex runs.
            if report.id not in message:
                continue
            if pattern is None:
                pattern = _id_pattern(report.id)
            if not pattern.search(message):
                continue
            for f in commit["changed_files"]:
                p = normalize_path(f)
                if p not in direct:
                    qrels.setdefault(report.id, {})[p] = GRADE_INDIRECT
    return qrels


def write_run_file(
    path: str,
    rankings: Iterable[tuple[str, Sequence[str], Sequence[float]]],
    tag: str,
) -> None:
    """TREC run format: qid Q0 path rank score tag, scores to six decimals.
    Each ranking is a query id with its ranked paths and their scores; a
    path's rank is its position, from 1. The query id and tag are checked
    once per block, each distinct path once per file; a query id may rank
    only once, as ``read_run_file`` requires. The file is replaced only once
    every line is written."""
    checked_paths: set[str] = set()
    query_ids: set[str] = set()
    with write_atomically(path) as fh:
        for query_id, paths, scores in rankings:
            check_token(query_id, "query id", EvalError)
            if query_id in query_ids:
                raise EvalError(f"query id {query_id} is ranked twice")
            query_ids.add(query_id)
            check_token(tag, "run tag", EvalError)
            for p in paths:
                if p not in checked_paths:
                    check_token(p, "document path", EvalError)
                    checked_paths.add(p)
            # One % over the block: a line's template k times, and its fields
            # in line order.
            k = min(len(paths), len(scores))
            fields: list = [None] * (3 * k)
            fields[0::3] = paths[:k]
            fields[1::3] = range(1, k + 1)
            fields[2::3] = scores[:k]
            line = f"{query_id.replace('%', '%%')} Q0 %s %d %.6f {tag.replace('%', '%%')}\n"
            fh.write(line * k % tuple(fields))


def read_run_file(path: str) -> dict[str, list[str]]:
    """Parse a TREC run file into ranked path lists keyed by query id."""
    rows: dict[str, list[tuple[int, str]]] = {}
    for lineno, line in read_lines(path, EvalError):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 6:
            raise EvalError(f"{path}:{lineno}: expected 6 fields, found {len(parts)}")
        query_id, _, doc_path, rank_text, score_text, _tag = parts
        try:
            rank = int(rank_text)
            if rank < 1 or not math.isfinite(float(score_text)):
                raise ValueError
        except ValueError:
            raise EvalError(f"{path}:{lineno}: malformed rank or score (a rank counts "
                            "from 1, a score is finite)") from None
        rows.setdefault(query_id, []).append((rank, doc_path))
    run: dict[str, list[str]] = {}
    for query_id, entries in rows.items():
        entries.sort()
        ranks = [r for r, _ in entries]
        if len(set(ranks)) != len(ranks):
            raise EvalError(f"{path}: duplicate rank for query {query_id}")
        paths = [p for _, p in entries]
        if len(set(paths)) != len(paths):
            raise EvalError(f"{path}: duplicate document for query {query_id}")
        run[query_id] = paths
    return run


def average_precision(ranked: list[str], relevant: set[str]) -> float:
    """Mean of precision at each relevant hit, over the full oracle size."""
    if not relevant:
        raise ValueError("average_precision needs a non-empty relevant set")
    hits = 0
    total = 0.0
    for k, path in enumerate(ranked, start=1):
        if path in relevant:
            hits += 1
            total += hits / k
    return total / len(relevant)


def first_relevant_rank(ranked: list[str], relevant: set[str]) -> int | None:
    for k, path in enumerate(ranked, start=1):
        if path in relevant:
            return k
    return None


def reciprocal_rank(ranked: list[str], relevant: set[str]) -> float:
    k = first_relevant_rank(ranked, relevant)
    return 0.0 if k is None else 1.0 / k


class QueryResult(NamedTuple):
    query_id: str
    ap: float
    rr: float
    first_rank: int | None
    n_relevant: int


class EvalReport(NamedTuple):
    mode: str
    map_score: float
    mrr: float
    success: dict[int, float]
    per_query: list[QueryResult]
    skipped: list[str]

    @property
    def n_queries(self) -> int:
        return len(self.per_query)

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "queries_evaluated": self.n_queries,
            "queries_skipped": list(self.skipped),
            "map": self.map_score,
            "mrr": self.mrr,
            "success": {str(n): v for n, v in self.success.items()},
            "per_query": {
                q.query_id: {
                    "ap": q.ap,
                    "rr": q.rr,
                    "first_relevant_rank": q.first_rank,
                    "n_relevant": q.n_relevant,
                }
                for q in self.per_query
            },
        }

    def format_table(self) -> str:
        lines = [
            f"mode: {self.mode}",
            f"queries evaluated: {self.n_queries}"
            + (f" ({len(self.skipped)} skipped: no relevant files)" if self.skipped else ""),
            f"MAP  {self.map_score:.4f}",
            f"MRR  {self.mrr:.4f}",
        ]
        for n in sorted(self.success):
            lines.append(f"Success@{n}  {self.success[n]:.4f}")
        return "\n".join(lines)


def evaluate(
    run: dict[str, list[str]],
    qrels: Qrels,
    mode: str = "direct",
) -> EvalReport:
    """Score a run against qrels.

    A run query entirely absent from the qrels is an error; a query whose
    relevant set is empty after mode filtering is skipped with a warning and
    excluded from the averages.
    """
    if mode not in MODES:
        raise EvalError(f"unknown evaluation mode {mode!r}; expected one of {MODES}")
    threshold = GRADE_DIRECT if mode == "direct" else GRADE_INDIRECT
    results: list[QueryResult] = []
    skipped: list[str] = []
    for query_id in sorted(run):
        if query_id not in qrels:
            raise EvalError(f"query {query_id!r} is missing from the qrels")
        relevant = {p for p, g in qrels[query_id].items() if g >= threshold}
        if not relevant:
            log.warning("query %s has no relevant files in mode %s; skipping",
                        query_id, mode)
            skipped.append(query_id)
            continue
        ranked = run[query_id]
        results.append(
            QueryResult(
                query_id=query_id,
                ap=average_precision(ranked, relevant),
                rr=reciprocal_rank(ranked, relevant),
                first_rank=first_relevant_rank(ranked, relevant),
                n_relevant=len(relevant),
            )
        )
    if not results:
        raise EvalError("no queries left to evaluate")
    n = len(results)
    success = {
        size: sum(1 for r in results if r.first_rank is not None and r.first_rank <= size) / n
        for size in SUCCESS_NS
    }
    return EvalReport(
        mode=mode,
        map_score=sum(r.ap for r in results) / n,
        mrr=sum(r.rr for r in results) / n,
        success=success,
        per_query=results,
        skipped=skipped,
    )
