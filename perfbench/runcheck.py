"""Output checks on a TREC run file, and an independent reference ranking.

``check_run`` checks the file's shape: one block per usable report, ranks
1..k, scores that never increase. ``Reference`` recomputes the scores of a
technique from ``croloc.rank.cosine`` over the vectors ``load_index`` returns,
with its own length sigmoid, min-max and temporal history, and
``Reference.check`` compares a run block with them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

# Printed scores carry six decimals, so they round by at most 5e-7.
SCORE_TOL = 1e-6
# Reference scores closer than this count as a true tie, which may come in
# either order: duplicate files score bit-identically in the reference, and
# the program's kernel separates such ties by ~1e-11.
TIE_TOL = 1e-9


@dataclass
class RunFile:
    """Rows of a run file per query id, in file order."""

    blocks: dict[str, list[tuple[int, str, str]]] = field(default_factory=dict)
    problems: dict[str, list[str]] = field(default_factory=dict)

    def flag(self, query_id: str, problem: str) -> None:
        self.problems.setdefault(query_id, []).append(problem)


def read_run(path: Path) -> RunFile:
    run = RunFile()
    previous = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if len(parts) != 6:
                run.flag(previous or "?", f"line {lineno}: {len(parts)} fields")
                continue
            qid, _, doc, rank, score, _ = parts
            if qid != previous and qid in run.blocks:
                run.flag(qid, f"line {lineno}: query block is split")
            previous = qid
            try:
                row = (int(rank), doc, score)
                float(score)
            except ValueError:
                run.flag(qid, f"line {lineno}: malformed rank or score")
                continue
            run.blocks.setdefault(qid, []).append(row)
    return run


def check_run(path: Path, usable_ids, k: int) -> RunFile:
    """Shape checks; every problem is recorded against its query id."""
    run = read_run(path)
    for qid in set(run.blocks) - set(usable_ids):
        run.flag(qid, "block for a report that is not usable")
    for qid in usable_ids:
        rows = run.blocks.get(qid)
        if rows is None:
            run.flag(qid, "no block")
            continue
        if len(rows) != k:
            run.flag(qid, f"{len(rows)} rows, expected {k}")
        if [r for r, _, _ in rows] != list(range(1, len(rows) + 1)):
            run.flag(qid, "ranks do not run 1..k")
        if len({d for _, d, _ in rows}) != len(rows):
            run.flag(qid, "a document appears twice")
        scores = [float(s) for _, _, s in rows]
        if any(b > a for a, b in zip(scores, scores[1:])):
            run.flag(qid, "scores increase")
    return run


def tie_order_violations(run: RunFile) -> int:
    """Adjacent rows whose printed scores are equal but whose paths are not
    in lexicographic order."""
    return sum(1 for rows in run.blocks.values()
               for (_, a, sa), (_, b, sb) in zip(rows, rows[1:])
               if sa == sb and a > b)


def _minmax(values: list[float]) -> list[float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.5] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


class Reference:
    """Scores of rvsm or buglocator, recomputed from the saved index."""

    def __init__(self, index_path: Path, reports_path: Path, glossary_path: Path,
                 technique: str, alpha: float = 0.2):
        from croloc.corpus import load_bug_reports, normalize_path
        from croloc.index import load_index
        from croloc.translate import GlossaryBackend, load_glossary, translate_report

        self.index = load_index(str(index_path))
        self.technique = technique
        self.alpha = alpha
        backend = GlossaryBackend(load_glossary(str(glossary_path)))
        self.reports = {r.id: translate_report(r, backend)
                        for r in load_bug_reports(reports_path)}
        lengths = _minmax([float(v.term_count) for v in self.index.vectors])
        self.sigmoid = [1.0 / (1.0 + math.exp(-x)) for x in lengths]
        self.history = []
        if technique == "buglocator":
            doc_ids = {p: i for i, p in enumerate(self.index.paths)}
            for r in self.reports.values():
                if r.resolved_at is None or not r.fixed_files:
                    continue
                fixed = list(dict.fromkeys(normalize_path(f) for f in r.fixed_files))
                ids = [doc_ids[p] for p in fixed if p in doc_ids]
                self.history.append((r.resolved_at, self._vectorize(r), ids, len(fixed)))

    def _vectorize(self, report):
        from croloc.index import vectorize_query

        return vectorize_query(report.query_text, self.index)

    def scores(self, query_id: str) -> list[float]:
        from croloc.rank import cosine

        report = self.reports[query_id]
        q = self._vectorize(report)
        vsm = [cosine(q.weights, q.norm, v.weights, v.norm) for v in self.index.vectors]
        rvsm = [s * x for s, x in zip(self.sigmoid, vsm)]
        if self.technique == "rvsm":
            return rvsm
        simi = [0.0] * self.index.n_docs
        for resolved_at, h, ids, n_fixed in self.history:
            if resolved_at < report.reported_at and ids:
                share = cosine(q.weights, q.norm, h.weights, h.norm) / n_fixed
                for d in ids:
                    simi[d] += share
        a = self.alpha
        return [(1 - a) * x + a * y for x, y in zip(_minmax(rvsm), _minmax(simi))]

    def check(self, run: RunFile, query_id: str) -> None:
        """Flag the block unless its paths are a reference top-k (ties in any
        order) and its printed scores match the reference."""
        rows = run.blocks.get(query_id, [])
        scores = self.scores(query_id)
        by_path = dict(zip(self.index.paths, scores))
        best = sorted(scores, reverse=True)[:len(rows)]
        wrong = []
        for i, (_, doc, printed) in enumerate(rows):
            ref = by_path.get(doc)
            if ref is None:
                wrong.append(f"rank {i + 1}: {doc} is not in the index")
            elif abs(float(printed) - ref) > SCORE_TOL:
                wrong.append(f"rank {i + 1}: score {printed}, reference {ref:.9f}")
            elif abs(ref - best[i]) > TIE_TOL:
                wrong.append(f"rank {i + 1}: {doc} scores {ref:.9f}, "
                             f"reference rank {i + 1} scores {best[i]:.9f}")
        if wrong:
            run.flag(query_id, f"{len(wrong)} rows disagree with the reference, "
                               f"first {wrong[0]}")
