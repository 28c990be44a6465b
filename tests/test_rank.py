"""Ranking formula tests against the brute-force reference implementation."""
from __future__ import annotations

import math
import random
from datetime import datetime, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import AFTER_ALL, history_of, history_set
from croloc.corpus import BugReport
from croloc.errors import EvalError
from croloc.evalharness import read_run_file, write_run_file
from croloc import TECHNIQUES, rank
from croloc.index import build_index, query_rows
from croloc.rank import (
    DEFAULT_ALPHA,
    HistorySet,
    buglocator_scores,
    cosine,
    make_ranking,
    minmax,
    query_chunks,
    rvsm_scores,
    score_documents,
    simi_scores,
    vsm_scores,
)
from reference import (
    history_csr,
    history_incidences,
    per_query_scores,
    ref_buglocator,
    ref_cosine,
    ref_minmax,
    ref_rvsm,
    ref_simi,
    ref_vsm,
    tfidf_vector,
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
    query = query_rows([query_tokens], index)
    entries = history_set(index, history or [])
    return score_documents(query, index, technique, entries, alpha, [AFTER_ALL])[0]


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
        query = query_rows([["cache", "miss"]], index)

        got = simi_scores(query, index, history_set(index, history), [AFTER_ALL])[0]
        want = ref_simi(["cache", "miss"], token_lists, paths, history)
        assert got.tolist() == pytest.approx(want, rel=1e-9, abs=1e-12)

        q, first = (tfidf_vector(t, index) for t in (["cache", "miss"], history[0][0]))
        sim1 = cosine(q.weights, q.norm, first.weights, first.norm)
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
        query_vec = query_rows([query], index)
        got = simi_scores(query_vec, index, history_set(index, history), [AFTER_ALL])[0]
        want = ref_simi(query, token_lists, paths, history)
        assert got.tolist() == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_report_resolved_as_an_earlier_query_is_filed_is_not_its_history(self):
        # H is resolved at the instant Q1 is filed, and Q2, filed a day
        # later, is scored in the same call: only Q2 may use H.
        index = build_index([["cache", "miss"], ["order"], ["sync"]], ["a", "b", "c"])
        q1_at, q2_at = datetime(2024, 3, 1, tzinfo=UTC), datetime(2024, 3, 2, tzinfo=UTC)
        history = history_set(index, [(["cache", "miss"], ["a"], q1_at)])
        queries = query_rows([["cache", "miss"], ["cache", "miss"]], index)
        got = simi_scores(queries, index, history, [q1_at, q2_at])
        assert got[0].tolist() == [0.0, 0.0, 0.0]
        assert got[1].tolist() == pytest.approx([1.0, 0.0, 0.0], rel=1e-12)

    def test_no_history_gives_zeros(self):
        token_lists = [["cache"], ["order"]]
        index = build_index(token_lists, ["a", "b"])
        query = query_rows([["cache"]], index)
        assert simi_scores(query, index, history_set(index, []),
                           [AFTER_ALL])[0].tolist() == [0.0, 0.0]

    def test_no_nonzero_cosine_gives_float_zeros(self):
        # No (query, history row) cosine is nonzero: the queries share no
        # term with the one report, or have no term at all.
        index = build_index([["cache"], ["order"], ["miss"]], ["a", "b", "c"])
        queries = query_rows([["order"], ["zzz"], []], index)
        for history in (history_set(index, [(["cache"], ["a"])]), history_set(index, [])):
            got = simi_scores(queries, index, history, [AFTER_ALL] * 3)
            assert got.dtype == np.float64 and got.shape == (3, 3)
            assert got.view(np.int64).tolist() == np.zeros((3, 3)).view(np.int64).tolist()


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
        query = query_rows([["cache", "miss"]], index)
        alpha = DEFAULT_ALPHA
        got = buglocator_scores(query, index, history_set(index, []), alpha,
                                [AFTER_ALL])[0]
        expected = (1.0 - alpha) * minmax(rvsm_scores(query, index)[0]) + alpha * 0.5
        assert np.array_equal(got, expected)
        # and the induced order matches plain rvsm
        rvsm = rvsm_scores(query, index)[0]
        assert np.argsort(-got, kind="stable").tolist() == np.argsort(
            -rvsm, kind="stable"
        ).tolist()

    def test_alpha_out_of_range(self):
        token_lists = [["cache"]]
        index = build_index(token_lists, ["a"])
        query = query_rows([["cache"]], index)
        for alpha in (-0.1, 1.5):
            with pytest.raises(ValueError):
                buglocator_scores(query, index, history_set(index, []), alpha,
                                  [AFTER_ALL])

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
        query = query_rows([["cache"]], index)
        with pytest.raises(ValueError, match="technique"):
            score_documents(query, index, "pagerank", None, DEFAULT_ALPHA, [AFTER_ALL])

    def test_dispatch_matches_direct_calls(self):
        token_lists = [["cache", "miss"], ["order"]]
        index = build_index(token_lists, ["a", "b"])
        queries = query_rows([["cache"]], index)
        for technique, direct in (("vsm", vsm_scores), ("rvsm", rvsm_scores)):
            got = score_documents(queries, index, technique, None, DEFAULT_ALPHA, [AFTER_ALL])
            assert np.array_equal(got, direct(queries, index))


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
        hs = history_of(reports, index)
        assert len(hs) == 1
        # R1 is the only resolved report with a fix.
        assert hs.times == (t1,)
        rows, docs, n_fixed = history_incidences(hs)
        assert (rows.tolist(), docs.tolist(), n_fixed.tolist()) == ([0], [0], [1.0])

    def test_build_dedupes_normalized_paths(self):
        index = self._index()
        t0 = datetime(2024, 1, 1, tzinfo=UTC)
        t1 = datetime(2024, 2, 1, tzinfo=UTC)
        report = self._report(
            "R1", t0, t1, ("src\\A.java", "./src/A.java", "src/A.java")
        )
        hs = history_of([report], index)
        _, docs, n_fixed = history_incidences(hs)
        assert n_fixed.tolist() == [1.0]
        assert docs.tolist() == [0]

    def test_build_counts_out_of_corpus_fixed_files(self):
        index = self._index()
        t0 = datetime(2024, 1, 1, tzinfo=UTC)
        t1 = datetime(2024, 2, 1, tzinfo=UTC)
        report = self._report("R1", t0, t1, ("src/A.java", "src/Gone.java"))
        hs = history_of([report], index)
        _, docs, n_fixed = history_incidences(hs)
        assert n_fixed.tolist() == [2.0]
        assert docs.tolist() == [0]

    def test_before_is_strict(self):
        index = self._index()
        t0 = datetime(2024, 1, 1, tzinfo=UTC)
        resolved = datetime(2024, 3, 15, 12, 0, tzinfo=UTC)
        hs = history_of([self._report("R1", t0, resolved, ("src/A.java",))], index)
        assert len(hs.before(resolved)) == 0  # equal timestamp is not "before"
        assert [a.size for a in history_incidences(hs.before(resolved))] == [0, 0, 0]
        after = datetime(2024, 3, 15, 12, 0, 1, tzinfo=UTC)
        assert len(hs.before(after)) == 1
        assert [a.size for a in history_incidences(hs.before(after))] == [1, 1, 1]

    def test_before_filters_mixed_timeline(self):
        index = self._index()
        t0 = datetime(2024, 1, 1, tzinfo=UTC)
        reports = [
            self._report("OLD", t0, datetime(2024, 2, 1, tzinfo=UTC), ("src/A.java",)),
            self._report("NEW", t0, datetime(2024, 6, 1, tzinfo=UTC), ("src/B.java",)),
        ]
        hs = history_of(reports, index)
        cut = datetime(2024, 4, 1, tzinfo=UTC)
        old = hs.before(cut)
        assert len(old) == 1
        # OLD's fix, src/A.java, and not NEW's.
        rows, docs, n_fixed = history_incidences(old)
        assert (rows.tolist(), docs.tolist(), n_fixed.tolist()) == ([0], [0], [1.0])


class TestMakeRanking:
    def _index(self, paths):
        return build_index([["t"] for _ in paths], paths)

    def _ranked(self, tmp_path, index, scores, ranking):
        """(rank, path, score) of each run line written from the ranking."""
        target = tmp_path / "run.trec"
        write_run_file(str(target), [("Q", [index.paths[d] for d in ranking],
                                      scores[ranking].tolist())], "tag")
        return [(int(r), p, float(s)) for _, _, p, r, s, _ in
                (line.split() for line in target.read_text(encoding="utf-8").splitlines())]

    def test_orders_by_score_descending(self, tmp_path):
        paths = ["a", "b", "c"]
        index = self._index(paths)
        scores = np.array([0.2, 0.9, 0.5])
        ranking = make_ranking(scores, index, top_k=0)
        assert [paths[d] for d in ranking] == ["b", "c", "a"]
        assert [r for r, _, _ in self._ranked(tmp_path, index, scores, ranking)] == [1, 2, 3]

    def test_ties_break_by_path(self):
        paths = ["zz", "aa", "mm"]
        index = self._index(paths)
        scores = np.array([0.5, 0.5, 0.5])
        ranking = make_ranking(scores, index, top_k=0)
        assert [paths[d] for d in ranking] == ["aa", "mm", "zz"]

    def test_top_k_cuts(self, tmp_path):
        paths = [f"p{i}" for i in range(10)]
        index = self._index(paths)
        scores = np.linspace(1.0, 0.1, 10)
        ranking = make_ranking(scores, index, top_k=3)
        assert len(ranking) == 3
        assert [r for r, _, _ in self._ranked(tmp_path, index, scores, ranking)] == [1, 2, 3]

    def test_top_k_zero_returns_all(self):
        paths = [f"p{i}" for i in range(7)]
        index = self._index(paths)
        ranking = make_ranking(np.zeros(7), index, top_k=0)
        assert len(ranking) == 7

    def test_entries_carry_doc_ids_and_scores(self, tmp_path):
        paths = ["a", "b"]
        index = self._index(paths)
        scores = np.array([0.25, 0.75])
        ranking = make_ranking(scores, index, top_k=0)
        assert ranking.dtype == np.int64
        assert ranking[0] == 1
        assert self._ranked(tmp_path, index, scores, ranking)[0] == (1, "b", 0.75)


class TestRunFiles:
    def _ranking(self):
        return ["src/A.java", "src/B.java"], [0.987654321, 0.5]

    def _write(self, tmp_path, query_id, ranking, tag):
        target = tmp_path / "run.trec"
        write_run_file(str(target), [(query_id, *ranking)], tag)
        return target.read_text(encoding="utf-8").splitlines()

    def test_line_format(self, tmp_path):
        lines = self._write(tmp_path, "BUG-1", self._ranking(), "mytag")
        assert lines[0] == "BUG-1 Q0 src/A.java 1 0.987654 mytag"
        assert lines[1] == "BUG-1 Q0 src/B.java 2 0.500000 mytag"

    def test_accepts_any_sequences(self, tmp_path):
        paths, scores = self._ranking()
        lines = self._write(tmp_path, "BUG-1", (tuple(paths), np.array(scores)), "mytag")
        assert lines == self._write(tmp_path, "BUG-1", (paths, scores), "mytag")

    def test_rejects_whitespace_in_fields(self, tmp_path):
        with pytest.raises(EvalError):
            self._write(tmp_path, "BUG 1", self._ranking(), "tag")
        with pytest.raises(EvalError):
            self._write(tmp_path, "BUG-1", self._ranking(), "my tag")
        bad = (["src/A file.java"], [0.1])
        with pytest.raises(EvalError):
            self._write(tmp_path, "BUG-1", bad, "tag")

    def test_rejects_empty_fields(self, tmp_path):
        with pytest.raises(EvalError):
            self._write(tmp_path, "", self._ranking(), "tag")
        with pytest.raises(EvalError):
            self._write(tmp_path, "BUG-1", self._ranking(), "")

    def test_write_read_round_trip(self, tmp_path):
        target = tmp_path / "run.trec"
        rankings = [("BUG-1", *self._ranking()),
                    ("BUG-2", ["x.java"], [1.0])]
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
        paths, scores = case[0], list(case[1])
        n = len(paths)
        order = sorted(range(n), key=lambda d: (-scores[d], paths[d]))
        k = data.draw(st.integers(min_value=1, max_value=n))
        if data.draw(st.booleans()) and k < n:
            # Tie the k-th score with some documents ranked below the cut.
            below = data.draw(st.lists(st.sampled_from(order[k:]), min_size=1, unique=True))
            for d in below:
                scores[d] = scores[order[k - 1]]
            order = sorted(range(n), key=lambda d: (-scores[d], paths[d]))
        top_k = data.draw(st.sampled_from([0, 1, k, n, n + 3]))
        index = build_index([["t"] for _ in paths], paths)
        want = order[:top_k] if top_k > 0 else order
        got = make_ranking(np.array(scores), index, top_k=top_k)
        assert got.dtype == np.int64
        assert [(paths[d], scores[d]) for d in got] == [(paths[d], scores[d]) for d in want]
        assert got.tolist() == want

    @given(case=_timelines())
    @settings(max_examples=150)
    def test_simi_over_prefix_matches_list_and_reference(self, case):
        token_lists, paths, history, query, cut = case
        index = build_index(token_lists, paths)
        query_vec = query_rows([query], index)
        prior = history_set(index, [h for h in history if h[2] < cut])
        full = history_set(index, history)
        prefix = full.before(cut)
        assert prefix.times[:len(prefix)] == prior.times
        for got, want in zip((*history_csr(prefix), *history_incidences(prefix)),
                             (*history_csr(prior), *history_incidences(prior)), strict=True):
            assert np.array_equal(got, want)
        got = simi_scores(query_vec, index, prefix, [AFTER_ALL])[0]
        assert np.array_equal(got, simi_scores(query_vec, index, prior, [AFTER_ALL])[0])
        assert np.array_equal(got, simi_scores(query_vec, index, full, [cut])[0])
        want = ref_simi(query, token_lists, paths,
                        [(toks, fixed) for toks, fixed, t in history if t < cut])
        assert got.tolist() == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_write_run_file_rejects_whitespace_path_in_later_block(self, tmp_path):
        ok = (["src/A.java"], [0.5])
        bad = (["src/A.java", "src/A file.java"], [0.5, 0.25])
        with pytest.raises(EvalError):
            write_run_file(str(tmp_path / "run.trec"), [("BUG-1", *ok), ("BUG-2", *bad)],
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


@st.composite
def _report_streams(draw):
    """A corpus, and reports filed and resolved at a few shared instants,
    some with fixes, each with its own tokens; the queries are some of the
    reports, in any order, so that neighbours often share ``reported_at``.
    A query may have no token in the vocabulary, hence a zero norm."""
    n_docs = draw(st.integers(min_value=1, max_value=8))
    words = st.sampled_from(VOCAB)
    token_lists = [draw(st.lists(words, max_size=10)) for _ in range(n_docs)]
    paths = [f"src/F{i:02d}.java" for i in range(n_docs)]
    days = st.sampled_from([2, 4, 6, 8])
    reports, tokens = [], []
    for i in range(draw(st.integers(min_value=1, max_value=12))):
        reported = datetime(2024, 1, draw(days), tzinfo=UTC)
        resolved = draw(st.one_of(st.none(), days.map(
            lambda day: datetime(2024, 1, day, 12, tzinfo=UTC))))
        fixed = draw(st.lists(st.sampled_from(paths + ["src/Removed.java"]), max_size=3))
        reports.append(BugReport(f"R{i}", f"R{i}", "", reported, resolved, tuple(fixed)))
        tokens.append(draw(st.lists(st.sampled_from(VOCAB + ["zzznotseen"]), max_size=6)))
    queries = draw(st.lists(st.sampled_from(range(len(reports))), min_size=1, max_size=12))
    return token_lists, paths, reports, tokens, queries


def _scored_in_chunks(index, rows, technique, history, reported_at):
    """Each query's scores, as locate ranks them: a chunk at a time."""
    chunks = query_chunks(rows, index, history)
    assert chunks[0][0] == 0 and chunks[-1][1] == len(rows)
    assert all(hi > lo for lo, hi in chunks)
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
    return np.vstack([score_documents(rows.take(range(lo, hi)), index, technique, history,
                                      0.3, reported_at[lo:hi]) for lo, hi in chunks])


class TestChunkedScoring:
    """Scoring queries a chunk at a time gives every query the scores, bit
    for bit, that the per-query path gave it on its own."""

    @staticmethod
    def _case(case):
        token_lists, paths, reports, tokens, picks = case
        index = build_index(token_lists, paths)
        vectors = [tfidf_vector(t, index) for t in tokens]
        history = HistorySet.build(reports, index, query_rows(tokens, index))
        rows = query_rows([tokens[i] for i in picks], index)
        reported_at = [reports[i].reported_at for i in picks]
        return index, history, vectors, rows, reported_at, picks

    @staticmethod
    def _assert_per_query(index, history, vectors, picks, reported_at, technique, got):
        for i, (pick, at) in enumerate(zip(picks, reported_at)):
            want = per_query_scores(vectors[pick], index, technique, history.before(at), 0.3)
            assert got[i].view(np.int64).tolist() == want.view(np.int64).tolist()

    @given(case=_report_streams(), data=st.data())
    @settings(max_examples=150)
    def test_bit_identical_to_the_per_query_path(self, case, data):
        index, history, vectors, rows, reported_at, picks = self._case(case)
        # One query a chunk, one chunk for all, and a bound in between.
        bounds = [1, 1 << 62, data.draw(st.integers(min_value=1, max_value=200))]
        for technique in ("vsm", "rvsm", "buglocator"):
            for bound in bounds:
                with mock.patch.object(rank, "CHUNK_CELLS", bound):
                    got = _scored_in_chunks(index, rows, technique, history, reported_at)
                self._assert_per_query(index, history, vectors, picks, reported_at,
                                       technique, got)

    def test_chunks_cut_between_queries_filed_together(self):
        token_lists = [["cache", "miss"], ["order", "total"], ["cache", "sync"]]
        paths = ["src/A.java", "src/B.java", "src/C.java"]
        day = datetime(2024, 1, 5, tzinfo=UTC)
        reports = [
            BugReport("R0", "R0", "", datetime(2024, 1, 1, tzinfo=UTC),
                      datetime(2024, 1, 2, tzinfo=UTC), ("src/A.java",)),
            BugReport("R1", "R1", "", day, day, ("src/B.java",)),
            *(BugReport(f"R{i}", f"R{i}", "", day) for i in range(2, 6)),
        ]
        tokens = [["cache"], ["order"], ["cache", "miss"], ["order", "sync"], ["zzz"],
                  ["cache", "total"]]
        case = (token_lists, paths, reports, tokens, [2, 3, 4, 5])
        index, history, vectors, rows, reported_at, picks = self._case(case)
        for bound, cut in ((1, [(0, 1), (1, 2), (2, 3), (3, 4)]), (1 << 62, [(0, 4)])):
            with mock.patch.object(rank, "CHUNK_CELLS", bound):
                assert query_chunks(rows, index, history) == cut
                got = _scored_in_chunks(index, rows, "buglocator", history, reported_at)
            self._assert_per_query(index, history, vectors, picks, reported_at,
                                   "buglocator", got)
        # R1 was resolved at the instant the queries were filed, so each
        # query may use R0 alone.
        assert [len(history.before(at)) for at in reported_at] == [1, 1, 1, 1]

    def test_empty_history_and_zero_norm_queries(self):
        index = build_index([["cache", "miss"], ["order"], []], ["a", "b", "c"])
        tokens = [["zzz"], [], ["cache"]]
        vectors = [tfidf_vector(t, index) for t in tokens]
        assert [v.norm for v in vectors][:2] == [0.0, 0.0]
        rows = query_rows(tokens, index)
        empty = history_set(index, [])
        at = [datetime(2024, 1, 1, tzinfo=UTC)] * 3
        for technique in ("vsm", "rvsm", "buglocator"):
            # Only buglocator reads a history; locate passes the others None.
            for history in (empty,) if technique == "buglocator" else (empty, None):
                got = score_documents(rows, index, technique, history, 0.3, at)
                assert got.shape == (3, 3)
                for row, vector in zip(got, vectors):
                    want = per_query_scores(vector, index, technique, empty, 0.3)
                    assert row.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert not vsm_scores(rows, index)[:2].any()

    def test_no_queries(self):
        index = build_index([["cache"], ["order"]], ["a", "b"])
        rows = query_rows([], index)
        assert query_chunks(rows, index, None) == []
        history = history_set(index, [])
        assert score_documents(rows, index, "buglocator", history, 0.3, []).shape == (0, 2)

    @pytest.mark.parametrize("top_k", [0, 1, 2, 3, 4, 50])
    def test_rankings_at_any_top_k(self, top_k):
        token_lists, paths, rng = _random_corpus(77, n_docs=3)
        index = build_index(token_lists, paths)
        tokens = [_random_query(rng) for _ in range(5)]
        vectors = [tfidf_vector(t, index) for t in tokens]
        scores = vsm_scores(query_rows(tokens, index), index)
        for row, vector in zip(scores, vectors):
            want = per_query_scores(vector, index, "vsm")
            order = sorted(range(3), key=lambda d: (-want[d], paths[d]))
            assert make_ranking(row, index, top_k).tolist() == (order[:top_k] if top_k else order)


class TestQueryRows:
    def test_take_picks_rows_in_order(self):
        index = build_index([["cache", "miss"], ["order", "total"]], ["a", "b"])
        tokens = [["cache"], [], ["order", "total", "miss"], ["zzz"]]
        vectors = [tfidf_vector(t, index) for t in tokens]
        rows = query_rows(tokens, index)
        taken = rows.take([2, 0, 2, 1])
        for i, pick in enumerate([2, 0, 2, 1]):
            lo, hi = taken.indptr[i], taken.indptr[i + 1]
            assert dict(zip(taken.indices[lo:hi].tolist(), taken.data[lo:hi].tolist())) \
                == vectors[pick].weights
            assert taken.indices[lo:hi].tolist() == sorted(vectors[pick].weights)
            assert taken.norms[i] == vectors[pick].norm
        assert len(rows.take([])) == 0


def _history_in_order(reports, tokens, index, order):
    """``HistorySet.build`` over the reports in ``order``, each with its own
    tokens' row."""
    return HistorySet.build([reports[i] for i in order], index,
                            query_rows([tokens[i] for i in order], index))


class TestMetamorphic:
    """Relations between the scores of an input and of an input changed in a
    way that must not change them."""

    @given(case=_report_streams(), data=st.data())
    @settings(max_examples=150)
    def test_permuted_reports_give_identical_history_and_simi(self, case, data):
        # Reports resolved at one instant are common, and a fix may share
        # files with another; their order in the input must not matter.
        token_lists, paths, reports, tokens, picks = case
        index = build_index(token_lists, paths)
        order = data.draw(st.permutations(range(len(reports))))
        histories = [_history_in_order(reports, tokens, index, o)
                     for o in (range(len(reports)), order)]
        for got, want in zip((*history_csr(histories[1]), *history_incidences(histories[1])),
                             (*history_csr(histories[0]), *history_incidences(histories[0])),
                             strict=True):
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        rows = query_rows([tokens[i] for i in picks], index)
        at = [reports[i].reported_at for i in picks]
        scores = [simi_scores(rows, index, history, at) for history in histories]
        assert scores[1].view(np.int64).tolist() == scores[0].view(np.int64).tolist()

    @given(case=_report_streams(), data=st.data())
    @settings(max_examples=100)
    def test_file_copy_gets_its_twins_scores(self, case, data):
        # A byte-identical copy of a file, at a path that sorts right after
        # it, fixed wherever the file was, scores as the file does and ranks
        # right after it.
        token_lists, paths, reports, tokens, picks = case
        d = data.draw(st.integers(0, len(paths) - 1))
        twin = paths[d].replace(".java", "Copy.java")
        index = build_index([*token_lists, token_lists[d]], [*paths, twin])
        assert index.path_rank[-1] == index.path_rank[d] + 1
        reports = [r._replace(fixed_files=(*r.fixed_files, twin))
                   if paths[d] in r.fixed_paths else r for r in reports]
        history = _history_in_order(reports, tokens, index, range(len(reports)))
        rows = query_rows([tokens[i] for i in picks], index)
        at = [reports[i].reported_at for i in picks]
        top_k = data.draw(st.integers(1, len(paths) + 1))
        for technique in TECHNIQUES:
            scores = score_documents(rows, index, technique, history, 0.3, at)
            assert scores[:, d].view(np.int64).tolist() == scores[:, -1].view(np.int64).tolist()
            for row in scores:
                ranked = make_ranking(row, index, top_k).tolist()
                if d in ranked and len(paths) in ranked:
                    assert ranked.index(len(paths)) == ranked.index(d) + 1

    @given(case=_report_streams(), data=st.data())
    @settings(max_examples=100)
    def test_order_preserving_rename_changes_no_score(self, case, data):
        # Paths enter the scores only through the history's fixed files and
        # the tie-break's path order; a rename of every path, fixed files
        # included, that keeps their order changes neither.
        token_lists, paths, reports, tokens, picks = case
        old = sorted({*paths, *(f for r in reports for f in r.fixed_files)})
        new = sorted(data.draw(st.lists(
            st.text(alphabet="ab/._Z-", min_size=1, max_size=6).filter(
                lambda p: not p.startswith("./")),
            min_size=len(old), max_size=len(old), unique=True)))
        rename = dict(zip(old, new))
        renamed = [r._replace(fixed_files=tuple(map(rename.get, r.fixed_files)))
                   for r in reports]
        at = [reports[i].reported_at for i in picks]
        outcomes = []
        for names, stream in ((paths, reports), ([rename[p] for p in paths], renamed)):
            index = build_index(token_lists, names)
            history = _history_in_order(stream, tokens, index, range(len(stream)))
            rows = query_rows([tokens[i] for i in picks], index)
            outcome = []
            for technique in TECHNIQUES:
                scores = score_documents(rows, index, technique, history, 0.3, at)
                outcome.append((scores.view(np.int64).tolist(),
                                [make_ranking(row, index, 0).tolist() for row in scores]))
            outcomes.append(outcome)
        assert outcomes[1] == outcomes[0]

    @given(case=_report_streams(), data=st.data())
    @settings(max_examples=100)
    def test_report_resolved_after_every_query_changes_no_score(self, case, data):
        # History counts only reports resolved strictly before a query was
        # filed, so one resolved after every query adds nothing to any.
        token_lists, paths, reports, tokens, picks = case
        index = build_index(token_lists, paths)
        late = datetime(2024, 2, 1, tzinfo=UTC)
        filed = data.draw(st.sampled_from([datetime(2024, 1, 1, tzinfo=UTC), late]))
        fixed = data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3))
        appended = BugReport("Z", "Z", "", filed, late, tuple(fixed))
        words = data.draw(st.lists(st.sampled_from(VOCAB), max_size=6))
        histories = [_history_in_order(reports, tokens, index, range(len(reports))),
                     _history_in_order([*reports, appended], [*tokens, words], index,
                                       range(len(reports) + 1))]
        assert histories[1].n == histories[0].n + 1
        rows = query_rows([tokens[i] for i in picks], index)
        at = [reports[i].reported_at for i in picks]
        for technique in TECHNIQUES:
            scores = [score_documents(rows, index, technique, history, 0.3, at)
                      for history in histories]
            assert scores[1].view(np.int64).tolist() == scores[0].view(np.int64).tolist()
