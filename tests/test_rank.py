"""Ranking formula tests against the brute-force reference implementation."""
from __future__ import annotations

import math
import random
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croloc.corpus import BugReport
from croloc.errors import EvalError
from croloc.evalharness import read_run_file, write_run_file
from croloc.index import build_index, vectorize_tokens
from croloc.rank import (
    DEFAULT_ALPHA,
    HistoryEntry,
    HistorySet,
    RankingEntry,
    buglocator_scores,
    cosine,
    make_ranking,
    minmax,
    rvsm_scores,
    score_documents,
    simi_scores,
    vsm_scores,
)
from reference import (
    ref_buglocator,
    ref_cosine,
    ref_minmax,
    ref_rvsm,
    ref_simi,
    ref_vsm,
)

UTC = timezone.utc

VOCAB = [
    "cache", "miss", "order", "total", "sync", "batch",
    "price", "stock", "auth", "token", "csv", "export",
]


def _random_corpus(seed, n_docs=None, allow_empty=True):
    rng = random.Random(seed)
    n = n_docs or rng.randint(1, 25)
    token_lists = []
    for _ in range(n):
        low = 0 if allow_empty else 1
        token_lists.append([rng.choice(VOCAB) for _ in range(rng.randint(low, 20))])
    paths = [f"src/F{i:03d}.java" for i in range(n)]
    return token_lists, paths, rng


def _random_query(rng):
    toks = [rng.choice(VOCAB) for _ in range(rng.randint(1, 8))]
    # mix in out-of-vocabulary tokens; they count toward query length only
    toks += ["zzznotseen"] * rng.randint(0, 2)
    rng.shuffle(toks)
    return toks


class TestCosine:
    def test_hand_example(self):
        a = {0: 1.0, 1: 2.0}
        b = {1: 2.0, 2: 1.0}
        na = math.sqrt(5.0)
        nb = math.sqrt(5.0)
        assert cosine(a, na, b, nb) == pytest.approx(4.0 / 5.0)

    def test_orthogonal(self):
        assert cosine({0: 1.0}, 1.0, {1: 1.0}, 1.0) == 0.0

    def test_identical_vectors(self):
        w = {0: 0.3, 5: 1.2}
        n = math.sqrt(0.09 + 1.44)
        assert cosine(w, n, w, n) == pytest.approx(1.0)

    def test_zero_norm_returns_zero(self):
        assert cosine({}, 0.0, {0: 1.0}, 1.0) == 0.0
        assert cosine({0: 1.0}, 1.0, {}, 0.0) == 0.0

    def test_symmetric(self):
        a = {0: 1.0, 1: 3.0, 7: 0.25}
        b = {1: 2.0, 7: 4.0}
        na = math.sqrt(sum(v * v for v in a.values()))
        nb = math.sqrt(sum(v * v for v in b.values()))
        assert cosine(a, na, b, nb) == pytest.approx(cosine(b, nb, a, na))


class TestMinmax:
    def test_hand_example(self):
        out = minmax(np.array([2.0, 4.0, 8.0]))
        assert out.tolist() == pytest.approx([0.0, 1.0 / 3.0, 1.0])

    def test_degenerate_all_equal(self):
        out = minmax(np.array([3.0, 3.0, 3.0]))
        assert out.tolist() == [0.5, 0.5, 0.5]

    def test_single_value(self):
        assert minmax(np.array([7.0])).tolist() == [0.5]

    def test_empty(self):
        assert minmax(np.array([])).shape == (0,)

    def test_matches_reference(self):
        values = [5.0, -1.0, 3.5, 0.0, 5.0]
        out = minmax(np.array(values))
        assert out.tolist() == pytest.approx(ref_minmax(values))

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=30))
    @settings(max_examples=150)
    def test_output_in_unit_interval(self, values):
        out = minmax(np.array(values, dtype=np.float64))
        assert np.all(out >= 0.0)
        assert np.all(out <= 1.0)


def _package_scores(technique, query_tokens, token_lists, paths, history=None, alpha=DEFAULT_ALPHA):
    index = build_index(token_lists, paths)
    query = vectorize_tokens(query_tokens, index)
    entries = []
    for report_tokens, fixed_paths in history or []:
        deduped = list(dict.fromkeys(fixed_paths))
        pos = {p: i for i, p in enumerate(paths)}
        entries.append(
            HistoryEntry(
                report_id="H",
                resolved_at=datetime(2020, 1, 1, tzinfo=UTC),
                vector=vectorize_tokens(report_tokens, index),
                fixed_doc_ids=tuple(pos[p] for p in deduped if p in pos),
                n_fixed=len(deduped),
            )
        )
    return score_documents(query, index, technique, history=entries, alpha=alpha)


class TestVsmAgainstReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_corpora(self, seed):
        token_lists, paths, rng = _random_corpus(seed)
        query = _random_query(rng)
        got = _package_scores("vsm", query, token_lists, paths)
        want = ref_vsm(query, token_lists)
        assert got.tolist() == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_exact_match_scores_highest(self):
        token_lists = [["cache", "miss"], ["order"], ["cache", "miss", "order"]]
        paths = ["a", "b", "c"]
        scores = _package_scores("vsm", ["cache", "miss"], token_lists, paths)
        assert scores[0] == max(scores)

    def test_empty_document_scores_zero(self):
        token_lists = [["cache"], []]
        scores = _package_scores("vsm", ["cache"], token_lists, ["a", "b"])
        assert scores[1] == 0.0

    def test_oov_query_all_zero(self):
        token_lists = [["cache"], ["order"]]
        scores = _package_scores("vsm", ["zzz"], token_lists, ["a", "b"])
        assert scores.tolist() == [0.0, 0.0]


class TestRvsmAgainstReference:
    @pytest.mark.parametrize("seed", range(12, 24))
    def test_random_corpora(self, seed):
        token_lists, paths, rng = _random_corpus(seed)
        query = _random_query(rng)
        got = _package_scores("rvsm", query, token_lists, paths)
        want = ref_rvsm(query, token_lists)
        assert got.tolist() == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_longer_document_favored_on_equal_cosine(self):
        # identical content, one doc padded with a repeated matching term:
        # cosine stays 1.0 for both, length normalization breaks the tie
        token_lists = [["cache"], ["cache"] * 9, ["order", "total"]]
        paths = ["short", "long", "other"]
        scores = _package_scores("rvsm", ["cache"], token_lists, paths)
        assert scores[1] > scores[0] > 0.0


class TestSimiAgainstReference:
    def test_hand_example_with_missing_fixed_file(self):
        token_lists = [
            ["cache", "miss", "sync"],
            ["order", "total"],
            ["cache", "order"],
        ]
        paths = ["src/A.java", "src/B.java", "src/C.java"]
        history = [
            # fix touched A, B, and a file no longer in the corpus; the
            # divisor is 3 even though only two files receive a share
            (["cache", "miss"], ["src/A.java", "src/Gone.java", "src/B.java"]),
            (["order", "total"], ["src/B.java"]),
        ]
        index = build_index(token_lists, paths)
        query = vectorize_tokens(["cache", "miss"], index)

        pos = {p: i for i, p in enumerate(paths)}
        entries = []
        for report_tokens, fixed in history:
            entries.append(
                HistoryEntry(
                    report_id="H",
                    resolved_at=datetime(2020, 1, 1, tzinfo=UTC),
                    vector=vectorize_tokens(report_tokens, index),
                    fixed_doc_ids=tuple(pos[p] for p in fixed if p in pos),
                    n_fixed=len(fixed),
                )
            )
        got = simi_scores(query, index, entries)
        want = ref_simi(["cache", "miss"], token_lists, paths, history)
        assert got.tolist() == pytest.approx(want, rel=1e-9, abs=1e-12)

        sim1 = cosine(query.weights, query.norm,
                      entries[0].vector.weights, entries[0].vector.norm)
        assert got[0] == pytest.approx(sim1 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(24, 32))
    def test_random_corpora(self, seed):
        token_lists, paths, rng = _random_corpus(seed, allow_empty=False)
        query = _random_query(rng)
        history = []
        for _ in range(rng.randint(0, 4)):
            fixed = rng.sample(paths, k=rng.randint(1, min(3, len(paths))))
            if rng.random() < 0.4:
                fixed.append("src/Removed.java")
            history.append((_random_query(rng), fixed))
        index = build_index(token_lists, paths)
        query_vec = vectorize_tokens(query, index)
        pos = {p: i for i, p in enumerate(paths)}
        entries = [
            HistoryEntry(
                report_id=f"H{i}",
                resolved_at=datetime(2020, 1, 1, tzinfo=UTC),
                vector=vectorize_tokens(toks, index),
                fixed_doc_ids=tuple(pos[p] for p in dict.fromkeys(fixed) if p in pos),
                n_fixed=len(dict.fromkeys(fixed)),
            )
            for i, (toks, fixed) in enumerate(history)
        ]
        got = simi_scores(query_vec, index, entries)
        want = ref_simi(query, token_lists, paths, history)
        assert got.tolist() == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_no_history_gives_zeros(self):
        token_lists = [["cache"], ["order"]]
        index = build_index(token_lists, ["a", "b"])
        query = vectorize_tokens(["cache"], index)
        assert simi_scores(query, index, []).tolist() == [0.0, 0.0]


class TestBugLocatorAgainstReference:
    @pytest.mark.parametrize("seed", range(32, 44))
    def test_random_corpora(self, seed):
        token_lists, paths, rng = _random_corpus(seed, allow_empty=False)
        query = _random_query(rng)
        history = []
        for _ in range(rng.randint(0, 3)):
            fixed = rng.sample(paths, k=rng.randint(1, min(2, len(paths))))
            history.append((_random_query(rng), fixed))
        alpha = rng.choice([0.0, 0.2, 0.5, 1.0])
        got = _package_scores("buglocator", query, token_lists, paths,
                              history=history, alpha=alpha)
        want = ref_buglocator(query, token_lists, paths, history, alpha)
        assert got.tolist() == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_empty_history_reduces_to_shifted_rvsm(self):
        token_lists = [["cache", "miss"], ["cache"], ["order", "total", "cache"]]
        paths = ["a", "b", "c"]
        index = build_index(token_lists, paths)
        query = vectorize_tokens(["cache", "miss"], index)
        alpha = DEFAULT_ALPHA
        got = buglocator_scores(query, index, [], alpha=alpha)
        expected = (1.0 - alpha) * minmax(rvsm_scores(query, index)) + alpha * 0.5
        assert np.array_equal(got, expected)
        # and the induced order matches plain rvsm
        rvsm = rvsm_scores(query, index)
        assert np.argsort(-got, kind="stable").tolist() == np.argsort(
            -rvsm, kind="stable"
        ).tolist()

    def test_alpha_out_of_range(self):
        token_lists = [["cache"]]
        index = build_index(token_lists, ["a"])
        query = vectorize_tokens(["cache"], index)
        for alpha in (-0.1, 1.5):
            with pytest.raises(ValueError):
                buglocator_scores(query, index, [], alpha=alpha)

    def test_alpha_one_is_pure_history(self):
        token_lists = [["cache", "miss"], ["order"]]
        paths = ["a", "b"]
        history = [(["cache", "miss"], ["b"])]
        got = _package_scores("buglocator", ["cache", "miss"], token_lists, paths,
                              history=history, alpha=1.0)
        # doc b got the only similarity mass, so it normalizes to 1
        assert got[1] == pytest.approx(1.0)
        assert got[0] == pytest.approx(0.0)


class TestScoreDocuments:
    def test_unknown_technique(self):
        index = build_index([["cache"]], ["a"])
        query = vectorize_tokens(["cache"], index)
        with pytest.raises(ValueError, match="technique"):
            score_documents(query, index, "pagerank")

    def test_dispatch_matches_direct_calls(self):
        token_lists = [["cache", "miss"], ["order"]]
        index = build_index(token_lists, ["a", "b"])
        query = vectorize_tokens(["cache"], index)
        assert np.array_equal(
            score_documents(query, index, "vsm"), vsm_scores(query, index)
        )
        assert np.array_equal(
            score_documents(query, index, "rvsm"), rvsm_scores(query, index)
        )


class TestHistorySet:
    def _report(self, rid, reported, resolved, fixed):
        return BugReport(
            id=rid,
            summary="s",
            description="d",
            reported_at=reported,
            resolved_at=resolved,
            fixed_files=fixed,
        )

    def _index(self):
        return build_index(
            [["cache"], ["order"]], ["src/A.java", "src/B.java"]
        )

    def test_build_skips_unresolved_and_unfixed(self):
        index = self._index()
        t0 = datetime(2024, 1, 1, tzinfo=UTC)
        t1 = datetime(2024, 2, 1, tzinfo=UTC)
        reports = [
            self._report("R1", t0, t1, ("src/A.java",)),
            self._report("R2", t0, None, ("src/A.java",)),
            self._report("R3", t0, t1, ()),
            self._report("R4", t0, t1, None),
        ]
        hs = HistorySet.build(reports, index)
        assert len(hs) == 1
        assert hs.entries[0].report_id == "R1"

    def test_build_dedupes_normalized_paths(self):
        index = self._index()
        t0 = datetime(2024, 1, 1, tzinfo=UTC)
        t1 = datetime(2024, 2, 1, tzinfo=UTC)
        report = self._report(
            "R1", t0, t1, ("src\\A.java", "./src/A.java", "src/A.java")
        )
        hs = HistorySet.build([report], index)
        entry = hs.entries[0]
        assert entry.n_fixed == 1
        assert entry.fixed_doc_ids == (0,)

    def test_build_counts_out_of_corpus_fixed_files(self):
        index = self._index()
        t0 = datetime(2024, 1, 1, tzinfo=UTC)
        t1 = datetime(2024, 2, 1, tzinfo=UTC)
        report = self._report("R1", t0, t1, ("src/A.java", "src/Gone.java"))
        hs = HistorySet.build([report], index)
        entry = hs.entries[0]
        assert entry.n_fixed == 2
        assert entry.fixed_doc_ids == (0,)

    def test_before_is_strict(self):
        index = self._index()
        t0 = datetime(2024, 1, 1, tzinfo=UTC)
        resolved = datetime(2024, 3, 15, 12, 0, tzinfo=UTC)
        hs = HistorySet.build([self._report("R1", t0, resolved, ("src/A.java",))], index)
        assert hs.before(resolved).entries == ()  # equal timestamp is not "before"
        after = datetime(2024, 3, 15, 12, 0, 1, tzinfo=UTC)
        assert [e.report_id for e in hs.before(after).entries] == ["R1"]

    def test_before_filters_mixed_timeline(self):
        index = self._index()
        t0 = datetime(2024, 1, 1, tzinfo=UTC)
        reports = [
            self._report("OLD", t0, datetime(2024, 2, 1, tzinfo=UTC), ("src/A.java",)),
            self._report("NEW", t0, datetime(2024, 6, 1, tzinfo=UTC), ("src/B.java",)),
        ]
        hs = HistorySet.build(reports, index)
        cut = datetime(2024, 4, 1, tzinfo=UTC)
        assert [e.report_id for e in hs.before(cut).entries] == ["OLD"]


class TestMakeRanking:
    def _index(self, paths):
        return build_index([["t"] for _ in paths], paths)

    def test_orders_by_score_descending(self):
        paths = ["a", "b", "c"]
        index = self._index(paths)
        scores = np.array([0.2, 0.9, 0.5])
        ranking = make_ranking(scores, index, top_k=0)
        assert [e.path for e in ranking] == ["b", "c", "a"]
        assert [e.rank for e in ranking] == [1, 2, 3]

    def test_ties_break_by_path(self):
        paths = ["zz", "aa", "mm"]
        index = self._index(paths)
        scores = np.array([0.5, 0.5, 0.5])
        ranking = make_ranking(scores, index, top_k=0)
        assert [e.path for e in ranking] == ["aa", "mm", "zz"]

    def test_top_k_cuts(self):
        paths = [f"p{i}" for i in range(10)]
        index = self._index(paths)
        scores = np.linspace(1.0, 0.1, 10)
        ranking = make_ranking(scores, index, top_k=3)
        assert len(ranking) == 3
        assert [e.rank for e in ranking] == [1, 2, 3]

    def test_top_k_zero_returns_all(self):
        paths = [f"p{i}" for i in range(7)]
        index = self._index(paths)
        ranking = make_ranking(np.zeros(7), index, top_k=0)
        assert len(ranking) == 7

    def test_entries_carry_doc_ids_and_scores(self):
        paths = ["a", "b"]
        index = self._index(paths)
        ranking = make_ranking(np.array([0.25, 0.75]), index, top_k=0)
        assert ranking[0] == RankingEntry(rank=1, path="b", score=0.75, doc_id=1)


class TestRunFiles:
    def _entries(self):
        return [
            RankingEntry(rank=1, path="src/A.java", score=0.987654321, doc_id=0),
            RankingEntry(rank=2, path="src/B.java", score=0.5, doc_id=1),
        ]

    def _write(self, tmp_path, query_id, entries, tag):
        target = tmp_path / "run.trec"
        write_run_file(str(target), [(query_id, entries)], tag)
        return target.read_text(encoding="utf-8").splitlines()

    def test_line_format(self, tmp_path):
        lines = self._write(tmp_path, "BUG-1", self._entries(), "mytag")
        assert lines[0] == "BUG-1 Q0 src/A.java 1 0.987654 mytag"
        assert lines[1] == "BUG-1 Q0 src/B.java 2 0.500000 mytag"

    def test_rejects_whitespace_in_fields(self, tmp_path):
        with pytest.raises(EvalError):
            self._write(tmp_path, "BUG 1", self._entries(), "tag")
        with pytest.raises(EvalError):
            self._write(tmp_path, "BUG-1", self._entries(), "my tag")
        bad = [RankingEntry(rank=1, path="src/A file.java", score=0.1, doc_id=0)]
        with pytest.raises(EvalError):
            self._write(tmp_path, "BUG-1", bad, "tag")

    def test_rejects_empty_fields(self, tmp_path):
        with pytest.raises(EvalError):
            self._write(tmp_path, "", self._entries(), "tag")
        with pytest.raises(EvalError):
            self._write(tmp_path, "BUG-1", self._entries(), "")

    def test_write_read_round_trip(self, tmp_path):
        target = tmp_path / "run.trec"
        rankings = [("BUG-1", self._entries()),
                    ("BUG-2", [RankingEntry(rank=1, path="x.java", score=1.0, doc_id=2)])]
        write_run_file(str(target), rankings, "tag")
        run = read_run_file(target)
        assert set(run) == {"BUG-1", "BUG-2"}
        assert run["BUG-1"] == ["src/A.java", "src/B.java"]
        assert run["BUG-2"] == ["x.java"]


@st.composite
def _tied_scores(draw):
    """Distinct paths with scores drawn from a few values, so most tie."""
    paths = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=30,
                          unique=True))
    levels = draw(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1,
                           max_size=3))
    scores = [draw(st.sampled_from(levels)) for _ in paths]
    return paths, scores


@st.composite
def _timelines(draw):
    """A corpus, history reports resolved at a few shared instants in
    shuffled order, and a query time."""
    n_docs = draw(st.integers(min_value=1, max_value=8))
    words = st.sampled_from(VOCAB)
    token_lists = [draw(st.lists(words, min_size=1, max_size=10)) for _ in range(n_docs)]
    paths = [f"src/F{i:02d}.java" for i in range(n_docs)]
    instants = [datetime(2024, 1, day, tzinfo=UTC) for day in (3, 5, 7)]
    history = draw(st.lists(
        st.tuples(
            st.lists(st.sampled_from(VOCAB + ["zzznotseen"]), min_size=1, max_size=6),
            st.lists(st.sampled_from(paths + ["src/Removed.java"]), min_size=1,
                     max_size=3),
            st.sampled_from(instants),
        ),
        max_size=8,
    ))
    query = draw(st.lists(words, min_size=1, max_size=6))
    cut = draw(st.sampled_from(
        [datetime(2024, 1, day, tzinfo=UTC) for day in (1, 3, 4, 5, 7, 9)]))
    return token_lists, paths, history, query, cut


class TestVectorizedPathsProperties:
    @given(case=_tied_scores(), data=st.data())
    @settings(max_examples=150)
    def test_make_ranking_matches_sorted(self, case, data):
        paths, scores = case
        n = len(paths)
        top_k = data.draw(st.sampled_from(
            [0, 1, data.draw(st.integers(min_value=1, max_value=n)), n]))
        index = build_index([["t"] for _ in paths], paths)
        order = sorted(range(n), key=lambda d: (-scores[d], paths[d]))
        if top_k > 0:
            order = order[:top_k]
        want = [RankingEntry(rank=r, path=paths[d], score=scores[d], doc_id=d)
                for r, d in enumerate(order, start=1)]
        assert make_ranking(np.array(scores), index, top_k=top_k) == want

    @given(case=_timelines())
    @settings(max_examples=150)
    def test_simi_over_prefix_matches_list_and_reference(self, case):
        token_lists, paths, history, query, cut = case
        index = build_index(token_lists, paths)
        pos = {p: i for i, p in enumerate(paths)}
        entries = []
        for i, (toks, fixed, resolved_at) in enumerate(history):
            deduped = list(dict.fromkeys(fixed))
            entries.append(HistoryEntry(
                report_id=f"H{i}",
                resolved_at=resolved_at,
                vector=vectorize_tokens(toks, index),
                fixed_doc_ids=tuple(pos[p] for p in deduped if p in pos),
                n_fixed=len(deduped),
            ))
        query_vec = vectorize_tokens(query, index)
        prior = [e for e in entries if e.resolved_at < cut]
        prefix = HistorySet(entries).before(cut)
        assert prefix.entries == tuple(sorted(prior, key=lambda e: e.resolved_at))
        got = simi_scores(query_vec, index, prefix)
        assert np.array_equal(got, simi_scores(query_vec, index, prior))
        want = ref_simi(query, token_lists, paths,
                        [(toks, fixed) for toks, fixed, t in history if t < cut])
        assert got.tolist() == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_write_run_file_rejects_whitespace_path_in_later_block(self, tmp_path):
        ok = [RankingEntry(rank=1, path="src/A.java", score=0.5, doc_id=0)]
        bad = ok + [RankingEntry(rank=2, path="src/A file.java", score=0.25, doc_id=1)]
        with pytest.raises(EvalError):
            write_run_file(str(tmp_path / "run.trec"), [("BUG-1", ok), ("BUG-2", bad)],
                           "tag")


@st.composite
def _weight_dicts(draw):
    keys = draw(st.lists(st.integers(min_value=0, max_value=20), max_size=8, unique=True))
    return {k: draw(st.floats(min_value=-100, max_value=100)) for k in keys}


class TestRankProperties:
    @given(a=_weight_dicts(), b=_weight_dicts())
    @settings(max_examples=200)
    def test_cosine_bounded(self, a, b):
        na = math.sqrt(sum(v * v for v in a.values()))
        nb = math.sqrt(sum(v * v for v in b.values()))
        value = cosine(a, na, b, nb)
        assert abs(value) <= 1.0 + 1e-9
        assert value == pytest.approx(ref_cosine(a, b), rel=1e-9, abs=1e-12)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=20))
    @settings(max_examples=150)
    def test_minmax_matches_reference(self, values):
        got = minmax(np.array(values, dtype=np.float64))
        want = ref_minmax(values)
        assert got.tolist() == pytest.approx(want, rel=1e-9, abs=1e-12)
