"""Acceptance gate: nine behavioral criteria, one printed verdict per criterion.

Each test prints `acceptance N: PASS - <description>` (or FAIL) directly to
the real stdout so the verdict lines survive pytest's capture. All comparison
baselines are independent: the brute-force reference module, hand-spliced
bytes, or hand-labeled fixtures.
"""
from __future__ import annotations

import math
import random
import sys
import time
from contextlib import contextmanager
from datetime import timedelta

import numpy as np
import pytest

from conftest import AFTER_ALL, FIXTURES, history_of, history_set, index_texts
from croloc import DEFAULT_ALPHA
from croloc.corpus import (
    BugReport,
    filter_usable_reports,
    load_bug_reports,
    load_source_tree,
)
from croloc.evalharness import (
    average_precision,
    evaluate,
    link_oracles,
    load_commit_log,
    reciprocal_rank,
)
from croloc.extract import detect_japanese, extract_spans, japanese_segments
from croloc.index import build_index, idf, query_rows, tokenize
from croloc.rank import (
    buglocator_scores,
    make_ranking,
    rvsm_scores,
    score_documents,
    simi_scores,
    vsm_scores,
)
from croloc.translate import (
    GlossaryBackend,
    IdentityBackend,
    load_glossary,
    translate_document,
    translate_report,
)
from reference import (
    ref_average_precision,
    ref_buglocator,
    ref_reciprocal_rank,
    ref_rvsm,
    ref_simi,
    ref_success_at,
    ref_vsm,
)
from croloc.corpus import parse_rfc3339

LEXER_CORPUS = FIXTURES / "lexer_corpus"
PROJECT = FIXTURES / "synthetic_project"


_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_channel(capfd):
    """Keep a handle on the capture fixture so verdict lines can escape it.

    pytest intercepts file descriptor 1 itself, so even sys.__stdout__ would
    be swallowed; capfd.disabled() is the supported way through.
    """
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _emit(line: str) -> None:
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        _emit(f"acceptance {number}: FAIL - {description}")
        raise
    _emit(f"acceptance {number}: PASS - {description}")


def _assert_close(got, want, rel=1e-9, abs_tol=1e-12, label=""):
    got = list(got)
    want = list(want)
    assert len(got) == len(want), label
    for i, (g, w) in enumerate(zip(got, want)):
        assert math.isclose(g, w, rel_tol=rel, abs_tol=abs_tol), (
            f"{label}[{i}]: {g!r} != {w!r}"
        )


# ---------------------------------------------------------------------------
# Randomized corpora shared by criteria 1 and 2.

_VOCAB = [f"term{i:02d}" for i in range(20)]
_N_CORPORA = 100
_corpora_cache = None


def _random_corpora():
    global _corpora_cache
    if _corpora_cache is not None:
        return _corpora_cache
    corpora = []
    for seed in range(_N_CORPORA):
        rng = random.Random(seed)
        n_docs = rng.randint(1, 10)
        token_lists = [
            [rng.choice(_VOCAB) for _ in range(rng.randint(0, 15))]
            for _ in range(n_docs)
        ]
        paths = [f"src/D{seed:03d}_{i:02d}.java" for i in range(n_docs)]
        if seed % 7 == 0:
            query = []
        else:
            query = [rng.choice(_VOCAB) for _ in range(rng.randint(1, 8))]
            query += ["neverseen"] * rng.randint(0, 2)
        history = []
        for _ in range(rng.randint(0, 3)):
            fixed = rng.sample(paths, k=rng.randint(1, min(3, n_docs)))
            if rng.random() < 0.3:
                fixed.append(f"src/Removed{seed}.java")
            history.append(
                ([rng.choice(_VOCAB) for _ in range(rng.randint(1, 6))], fixed)
            )
        index = build_index(token_lists, paths)
        corpora.append({
            "token_lists": token_lists,
            "paths": paths,
            "query": query,
            "history": history,
            "index": index,
            "query_vec": query_rows([query], index),
            "entries": history_set(index, history),
        })
    _corpora_cache = corpora
    return corpora


def test_acceptance_1_formula_equivalence():
    desc = ("tf/idf/VSM/rVSM/similarity/combined scores match a brute-force "
            "reference within 1e-9 relative on 100 randomized corpora")
    with criterion(1, desc):
        started = time.perf_counter()

        # tf through the package's weighting: "term" has idf ln 2 here, so
        # a query of `length` tokens that holds it `count` times weighs it
        # tf * ln 2.
        tf_index = build_index([["term"], ["other"]], ["a.java", "b.java"])
        for length in range(0, 9):
            for count in range(0, length + 1):
                want = math.log(count / length + 1.0) * math.log(2.0) if count else 0.0
                row = query_rows([["term"] * count + ["zzz"] * (length - count)], tf_index)
                assert math.isclose(float(row.data.sum()), want,
                                    rel_tol=1e-9, abs_tol=0.0)
        for df in range(0, 7):
            for n_docs in range(max(df, 1), 8):
                want = math.log(n_docs / df) if df else 0.0
                assert math.isclose(idf(df, n_docs), want,
                                    rel_tol=1e-9, abs_tol=0.0)

        corpora = _random_corpora()
        assert len(corpora) >= 100
        for c in corpora:
            q, index = c["query_vec"], c["index"]
            _assert_close(vsm_scores(q, index)[0].tolist(),
                          ref_vsm(c["query"], c["token_lists"]), label="vsm")
            _assert_close(rvsm_scores(q, index)[0].tolist(),
                          ref_rvsm(c["query"], c["token_lists"]), label="rvsm")
            _assert_close(
                simi_scores(q, index, c["entries"], [AFTER_ALL])[0].tolist(),
                ref_simi(c["query"], c["token_lists"], c["paths"], c["history"]),
                label="simi",
            )
            for alpha in (0.0, 0.2, 0.5, 1.0):
                _assert_close(
                    buglocator_scores(q, index, c["entries"], alpha, [AFTER_ALL])[0].tolist(),
                    ref_buglocator(c["query"], c["token_lists"], c["paths"],
                                   c["history"], alpha),
                    label=f"combined a={alpha}",
                )

        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_acceptance_2_alpha_zero_order():
    desc = ("combined scoring with alpha=0 ranks files in exactly the rVSM "
            "order on every randomized corpus")
    with criterion(2, desc):
        for c in _random_corpora():
            q, index = c["query_vec"], c["index"]
            combined = buglocator_scores(q, index, c["entries"], 0.0, [AFTER_ALL])[0]
            rvsm = rvsm_scores(q, index)[0]
            order_combined = [index.paths[d] for d in make_ranking(combined, index, top_k=0)]
            order_rvsm = [index.paths[d] for d in make_ranking(rvsm, index, top_k=0)]
            assert order_combined == order_rvsm


def test_acceptance_3_rvsm_size_monotonicity():
    desc = ("with equal cosine similarity, the document with more terms "
            "strictly outscores the smaller one under rVSM in all constructed pairs")
    with criterion(3, desc):
        bases = [["shared"], ["shared", "other"], ["aa", "aa", "bb"]]
        checked = 0
        for base in bases:
            for multiplier in (2, 3, 4, 5, 8, 16, 32):
                token_lists = [list(base), list(base) * multiplier, ["filler"]]
                paths = ["small.java", "large.java", "filler.java"]
                index = build_index(token_lists, paths)
                query = query_rows([list(base)], index)
                vsm = vsm_scores(query, index)[0]
                assert vsm[0] == vsm[1], "construction must hold cosine equal"
                assert vsm[0] > 0.0
                rvsm = rvsm_scores(query, index)[0]
                assert rvsm[1] > rvsm[0], (base, multiplier)
                checked += 1
        assert checked == len(bases) * 7


def test_acceptance_4_metric_correctness():
    desc = ("AP/RR/MAP/MRR/Success@{1,5,10} equal an independent computation "
            "on a three-query fixture; the two-oracle AP example is 5/6")
    with criterion(4, desc):
        frozen = average_precision(["r1", "x", "r2", "y"], {"r1", "r2"})
        assert abs(frozen - 5.0 / 6.0) <= 1e-9
        assert abs(frozen - 0.8333) < 1e-4

        grades = {
            "Q1": {"a": 2, "b": 1},
            "Q2": {"c": 2},
            "Q3": {"d": 2, "e": 2},
        }
        run = {
            "Q1": ["a", "b", "x", "y"],
            "Q2": ["x", "y", "z", "c"],
            "Q3": ["e", "x", "y", "z"],  # one of two oracles never retrieved
        }
        for mode, threshold in (("direct", 2), ("direct+indirect", 1)):
            report = evaluate(run, grades, mode=mode)
            qids = sorted(run)
            relevant = {
                qid: {p for p, g in grades[qid].items() if g >= threshold}
                for qid in qids
            }
            want_ap = [ref_average_precision(run[q], relevant[q]) for q in qids]
            want_rr = [ref_reciprocal_rank(run[q], relevant[q]) for q in qids]
            by_id = {r.query_id: r for r in report.per_query}
            for qid, ap, rr in zip(qids, want_ap, want_rr):
                assert by_id[qid].ap == ap
                assert by_id[qid].rr == rr
            assert report.map_score == sum(want_ap) / len(qids)
            assert report.mrr == sum(want_rr) / len(qids)
            assert sorted(report.success) == [1, 5, 10]
            for n in (1, 5, 10):
                want = sum(
                    ref_success_at(run[q], relevant[q], n) for q in qids
                ) / len(qids)
                assert report.success[n] == want


def test_acceptance_5_byte_safety():
    desc = ("identity translation reproduces all lexer fixture files "
            "byte-for-byte; phrase-table translation only rewrites extracted segments")
    with criterion(5, desc):
        corpus = load_source_tree(LEXER_CORPUS, ["**/*.java", "**/*.cs"])
        assert len(corpus.documents) >= 20

        identity = IdentityBackend()
        for doc in corpus.documents:
            out, _ = translate_document(doc, identity)
            assert out.raw_bytes == doc.raw_bytes, doc.path

        segment_texts = []
        for doc in corpus.documents:
            for span in extract_spans(doc):
                for seg in japanese_segments(span.text):
                    if seg.text not in segment_texts:
                        segment_texts.append(seg.text)
        assert segment_texts, "fixture corpus must contain Japanese segments"
        table = {text: f"XL{i}" for i, text in enumerate(segment_texts)}
        backend = GlossaryBackend(table)

        for doc in corpus.documents:
            # splice the expected bytes by hand: everything outside the
            # segments must come verbatim from the original file
            raw = doc.raw_bytes
            pieces = []
            cursor = 0
            for span in extract_spans(doc):
                for seg in japanese_segments(span.text):
                    start = span.byte_start + seg.byte_start
                    end = span.byte_start + seg.byte_end
                    pieces.append(raw[cursor:start])
                    pieces.append(table[seg.text].encode("utf-8"))
                    cursor = end
            pieces.append(raw[cursor:])
            expected = b"".join(pieces)
            out, _ = translate_document(doc, backend)
            assert out.raw_bytes == expected, doc.path


def test_acceptance_6_japanese_detection():
    desc = "Japanese detection is 100% correct on 63 hand-labeled strings"
    with criterion(6, desc):
        positive = [
            # hiragana
            "あ", "ひらがな", "する", "こんにちは", "ぁ", "ゟ",
            # katakana
            "ア", "カタカナ", "バッチ", "ー", "ヴ", "ヶ", "・",
            # halfwidth katakana
            "ｦ", "ｱ", "ﾝ", "ｶﾀｶﾅ", "ﾃｽﾄ",
            # ideographs, including the extension-A boundary
            "在庫", "同期", "漢", "龥", "㐀", "䶵",
            # Japanese punctuation
            "、", "。", "「かっこ」", "〜", "〇",
            # mixed with ASCII
            "エラー: sync failed", "inventoryが更新されない", "price計算", "ログin",
        ]
        negative = [
            "", " ", "hello", "error 404", "parse_error2x", "ASCII only!",
            "1234567890", "\n\t", "camelCaseName", "/* comment */",
            # accented Latin
            "café", "naïve", "résumé", "Ægis", "über", "señor",
            # other scripts
            "Привет", "ошибка", "λάθος", "Ω", "한국어", "오류",
            # fullwidth Latin and digits sit outside the Japanese ranges
            "ＡＢＣ", "１２３", "ａｂｃ",
            # halfwidth voicing marks just past the katakana range
            "ﾞ", "ﾟ",
            # symbols
            "🐛", "→", "©",
        ]
        assert len(positive) + len(negative) >= 50
        assert len(positive) >= 25 and len(negative) >= 25
        wrong = [s for s in positive if not detect_japanese(s)]
        wrong += [s for s in negative if detect_japanese(s)]
        assert not wrong, f"misclassified: {wrong!r}"


def _project_run(translate: bool):
    corpus = load_source_tree(PROJECT, ["**/*.java"])
    reports = load_bug_reports(PROJECT / "reports.jsonl")
    documents = list(corpus.documents)
    if translate:
        backend = GlossaryBackend(load_glossary(PROJECT / "glossary.tsv"))
        documents = [translate_document(d, backend)[0] for d in documents]
        reports = [translate_report(r, backend) for r in reports]
    index = index_texts(
        [d.raw_text for d in documents],
        [d.path for d in documents],
    )
    usable, _ = filter_usable_reports(reports, {d.path for d in documents})
    history = history_of(reports, index)
    run = {}
    for report in usable:
        query = query_rows([tokenize(report.query_text)], index)
        scores = score_documents(query, index, "buglocator", history, DEFAULT_ALPHA,
                                 [report.reported_at])[0]
        run[report.id] = [index.paths[d] for d in make_ranking(scores, index, top_k=0)]
    return run, corpus, reports


def test_acceptance_7_translation_direction():
    desc = ("on the bundled bilingual project, translated indexing scores "
            "MAP at least as high as untranslated and strictly improves "
            "at least one query's oracle rank")
    with criterion(7, desc):
        started = time.perf_counter()

        corpus = load_source_tree(PROJECT, ["**/*.java"])
        assert len(corpus.documents) >= 20
        japanese_files = [
            d for d in corpus.documents if detect_japanese(d.raw_text)
        ]
        assert len(japanese_files) >= 8
        all_reports = load_bug_reports(PROJECT / "reports.jsonl")
        assert sum(1 for r in all_reports if detect_japanese(r.query_text)) >= 8

        untranslated_run, _, reports = _project_run(translate=False)
        translated_run, _, _ = _project_run(translate=True)
        assert set(untranslated_run) == set(translated_run)

        qrels = link_oracles(
            load_bug_reports(PROJECT / "reports.jsonl"),
            load_commit_log(PROJECT / "commit_log.jsonl"),
        )
        before = evaluate(untranslated_run, qrels, mode="direct")
        after = evaluate(translated_run, qrels, mode="direct")
        assert after.map_score >= before.map_score

        rank_before = {r.query_id: r.first_rank for r in before.per_query}
        rank_after = {r.query_id: r.first_rank for r in after.per_query}
        improved = [
            qid for qid in rank_before
            if rank_after[qid] is not None
            and (rank_before[qid] is None or rank_after[qid] < rank_before[qid])
        ]
        assert improved, (rank_before, rank_after)
        _emit(
            "acceptance 7 detail: MAP "
            f"{before.map_score:.4f} -> {after.map_score:.4f}; improved ranks: "
            + ", ".join(
                f"{qid} {rank_before[qid]}->{rank_after[qid]}" for qid in sorted(improved)
            )
        )

        assert time.perf_counter() - started < 30.0


def test_acceptance_8_known_item_sanity():
    desc = ("a report whose description is copied from one file's comments "
            "ranks that file first under all three techniques")
    with criterion(8, desc):
        corpus = load_source_tree(PROJECT, ["**/*.java"])
        target = next(d for d in corpus.documents if d.path.endswith("Hv23Cache.java"))
        comment_text = "\n".join(
            span.text for span in extract_spans(target)
            if span.kind.value.endswith("comment")
        )
        assert comment_text.strip()
        index = index_texts(
            [d.raw_text for d in corpus.documents],
            [d.path for d in corpus.documents],
        )
        report = BugReport(
            id="KNOWN-1",
            summary="",
            description=comment_text,
            reported_at=parse_rfc3339("2024-06-01T00:00:00Z"),
        )
        query = query_rows([tokenize(report.query_text)], index)
        no_history = history_set(index, [])
        for technique in ("vsm", "rvsm", "buglocator"):
            scores = score_documents(query, index, technique, no_history, DEFAULT_ALPHA,
                                     [report.reported_at])[0]
            ranked = [index.paths[d] for d in make_ranking(scores, index, top_k=0)]
            assert ranked[0] == target.path, (technique, ranked[:3])


def test_acceptance_9_temporal_safety():
    desc = ("a history report resolved after the query was filed changes "
            "no score; the same report resolved earlier does")
    with criterion(9, desc):
        corpus = load_source_tree(PROJECT, ["**/*.java"])
        reports = load_bug_reports(PROJECT / "reports.jsonl")
        index = index_texts(
            [d.raw_text for d in corpus.documents],
            [d.path for d in corpus.documents],
        )
        # SHOP-109 is written in English, so its query tokens exist in the
        # untranslated index and the potency check below has teeth
        query_report = next(r for r in reports if r.id == "SHOP-109")
        query = query_rows([tokenize(query_report.query_text)], index)

        def scores_with(extra_reports):
            history = history_of(reports + extra_reports, index)
            return buglocator_scores(query, index, history, DEFAULT_ALPHA,
                                     [query_report.reported_at])[0]

        baseline = scores_with([])

        future = BugReport(
            id="FUTURE-1",
            summary=query_report.summary,  # maximally similar on purpose
            description=query_report.description,
            reported_at=query_report.reported_at,
            resolved_at=query_report.reported_at + timedelta(days=2),
            fixed_files=("src/shop/Gx09Price.java",),
        )
        with_future = scores_with([future])
        assert np.array_equal(baseline, with_future)

        past = BugReport(
            id="PAST-1",
            summary=query_report.summary,
            description=query_report.description,
            reported_at=query_report.reported_at - timedelta(days=9),
            resolved_at=query_report.reported_at - timedelta(days=1),
            fixed_files=("src/shop/Gx09Price.java",),
        )
        with_past = scores_with([past])
        assert not np.array_equal(baseline, with_past), (
            "the injected report must be able to move scores at all"
        )
