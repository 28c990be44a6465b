"""Qrels, oracle linking, and retrieval metric tests."""
from __future__ import annotations

import io
import json
import logging
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croloc.corpus import BugReport, parse_rfc3339
from croloc.errors import CrolocError, EvalError
from croloc.evalharness import (
    GRADE_DIRECT,
    GRADE_INDIRECT,
    EvalReport,
    average_precision,
    evaluate,
    first_relevant_rank,
    link_oracles,
    load_commit_log,
    read_qrels,
    read_run_file,
    reciprocal_rank,
    write_qrels,
    write_run_file,
)
from reference import (
    ref_average_precision,
    ref_link_oracles,
    ref_reciprocal_rank,
)
from strategies import any_text, json_lines, json_records

# Whitespace-free words, and now and then a run of any characters, which can
# hold whitespace or be empty, for the TREC file fuzzers.
_WORDS = st.sampled_from(["Q1", "Q2", "a.java", "b.java"]) | st.text(
    st.characters(exclude_categories=("Cs",)), max_size=3)


def _trec_lines(*fields):
    """Lists of lines that mostly hold ``fields``, one value of each,
    and otherwise up to seven words."""
    line = st.tuples(*fields).map(" ".join)
    other = st.lists(_WORDS, max_size=7).map(" ".join)
    return st.lists(st.integers(0, 5).flatmap(lambda i: other if i == 0 else line), max_size=5)


class TestAveragePrecision:
    def test_frozen_example(self):
        # relevant files at ranks 1 and 3: (1/1 + 2/3) / 2
        ap = average_precision(["r1", "x", "r2", "y"], {"r1", "r2"})
        assert ap == pytest.approx(5.0 / 6.0)
        assert abs(ap - 0.83333) < 1e-4

    def test_unretrieved_relevant_counts_in_denominator(self):
        # two relevant files exist, only one retrieved: the miss still divides
        ap = average_precision(["r1", "x"], {"r1", "missing"})
        assert ap == pytest.approx(0.5)

    def test_no_hits(self):
        assert average_precision(["x", "y"], {"r"}) == 0.0

    def test_perfect_ranking(self):
        assert average_precision(["a", "b"], {"a", "b"}) == pytest.approx(1.0)

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            average_precision(["a"], set())

    @pytest.mark.parametrize(
        "ranked,relevant",
        [
            (["a", "b", "c", "d"], {"b", "d"}),
            (["a"], {"a", "b", "c"}),
            (["x", "y", "z"], {"z"}),
            ([], {"a"}),
        ],
    )
    def test_matches_reference(self, ranked, relevant):
        assert average_precision(ranked, relevant) == pytest.approx(
            ref_average_precision(ranked, relevant)
        )


class TestReciprocalRank:
    def test_hit_at_three(self):
        assert reciprocal_rank(["x", "y", "r"], {"r"}) == pytest.approx(1.0 / 3.0)

    def test_no_hit_is_zero(self):
        assert reciprocal_rank(["x", "y"], {"r"}) == 0.0

    def test_first_hit_wins(self):
        assert reciprocal_rank(["r1", "r2"], {"r1", "r2"}) == 1.0

    def test_matches_reference(self):
        ranked = ["a", "b", "c", "d"]
        for relevant in ({"c"}, {"a", "d"}, {"zzz"}):
            assert reciprocal_rank(ranked, relevant) == pytest.approx(
                ref_reciprocal_rank(ranked, relevant)
            )


class TestFirstRelevantRank:
    def test_rank_found(self):
        assert first_relevant_rank(["x", "r"], {"r"}) == 2

    def test_none_when_absent(self):
        assert first_relevant_rank(["x", "y"], {"r"}) is None


class TestQrels:
    def test_write_read_round_trip(self, tmp_path):
        qrels = {"Q2": {"b.java": 1}, "Q1": {"a.java": 2, "c.java": 1}}
        target = tmp_path / "qrels.txt"
        with open(target, "w", encoding="utf-8") as fh:
            write_qrels(fh, qrels)
        loaded = read_qrels(str(target))
        assert loaded == qrels
        lines = target.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "Q1 0 a.java 2"  # sorted output

    def test_read_rejects_wrong_field_count(self, tmp_path):
        target = tmp_path / "qrels.txt"
        target.write_text("Q1 0 a.java\n", encoding="utf-8")
        with pytest.raises(EvalError, match=":1:"):
            read_qrels(str(target))

    def test_read_rejects_bad_grade(self, tmp_path):
        target = tmp_path / "qrels.txt"
        target.write_text("Q1 0 a.java high\n", encoding="utf-8")
        with pytest.raises(EvalError, match="integer"):
            read_qrels(str(target))

    def test_read_rejects_negative_grade(self, tmp_path):
        target = tmp_path / "qrels.txt"
        target.write_text("Q1 0 a.java -1\n", encoding="utf-8")
        with pytest.raises(EvalError, match="negative"):
            read_qrels(str(target))

    def test_read_skips_blank_lines(self, tmp_path):
        target = tmp_path / "qrels.txt"
        target.write_text("\nQ1 0 a.java 2\n\n", encoding="utf-8")
        assert read_qrels(str(target)) == {"Q1": {"a.java": 2}}

    def test_write_rejects_path_with_whitespace(self, tmp_path):
        # A commit may change a path with a space, which eval could not read.
        qrels = {"Q1": {"a.java": 2, "src/A b.java": 1}}
        target = tmp_path / "qrels.txt"
        with open(target, "w", encoding="utf-8") as fh:
            with pytest.raises(EvalError, match="whitespace"):
                write_qrels(fh, qrels)
        assert target.read_text(encoding="utf-8") == ""

    def test_write_rejects_query_id_with_whitespace(self):
        qrels = {"A 1": {"a.java": 2}}
        with pytest.raises(EvalError, match="query id 'A 1'"):
            write_qrels(io.StringIO(), qrels)

    @given(lines=_trec_lines(_WORDS, st.just("0"), _WORDS,
                             st.sampled_from(["0", "1", "2", "+2", "-1", "x"])))
    @settings(max_examples=200)
    def test_fuzzed_file_round_trips_or_fails_cleanly(self, lines, tmp_path_factory):
        path = tmp_path_factory.mktemp("qrels") / "qrels.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            qrels = read_qrels(str(path))
        except CrolocError:
            return
        with open(path, "w", encoding="utf-8") as fh:
            write_qrels(fh, qrels)
        assert read_qrels(str(path)) == qrels

    def test_zero_grade_is_never_relevant(self, tmp_path):
        target = tmp_path / "qrels.txt"
        target.write_text("Q1 0 a.java 0\nQ1 0 b.java 2\n", encoding="utf-8")
        report = evaluate({"Q1": ["a.java", "b.java"]}, read_qrels(str(target)),
                          mode="direct+indirect")
        assert report.per_query[0].n_relevant == 1
        assert report.per_query[0].first_rank == 2


class TestLoadCommitLog:
    def _write(self, tmp_path, lines):
        target = tmp_path / "commits.jsonl"
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(target)

    def test_valid_log(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"hash": "abc", "message": "fix SHOP-1",
                        "changed_files": ["a.java"]}),
            "",
            json.dumps({"hash": "def", "message": "cleanup", "changed_files": []}),
        ])
        commits = load_commit_log(path)
        assert len(commits) == 2
        assert commits[0]["hash"] == "abc"

    def test_invalid_json(self, tmp_path):
        path = self._write(tmp_path, ["{broken"])
        with pytest.raises(EvalError, match=":1:"):
            load_commit_log(path)

    def test_non_object_entry(self, tmp_path):
        path = self._write(tmp_path, ["[1, 2]"])
        with pytest.raises(EvalError, match="object"):
            load_commit_log(path)

    def test_missing_field(self, tmp_path):
        path = self._write(tmp_path, [json.dumps({"hash": "abc", "message": "m"})])
        with pytest.raises(EvalError, match="changed_files"):
            load_commit_log(path)

    def test_non_string_changed_files(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"hash": "a", "message": "m", "changed_files": [1]})
        ])
        with pytest.raises(EvalError, match="strings"):
            load_commit_log(path)

    def test_nesting_too_deep_to_parse(self, tmp_path):
        path = self._write(tmp_path, ["[" * 5000])
        with pytest.raises(EvalError, match=":1: not valid JSON"):
            load_commit_log(path)

    @pytest.mark.parametrize("obj", [
        {"hash": "a", "message": None, "changed_files": []},
        {"hash": "a", "message": 5, "changed_files": []},
        {"hash": "a", "message": "\ud800", "changed_files": []},
        {"hash": "a", "message": "m", "changed_files": "a.java"},
    ], ids=repr)
    def test_field_of_the_wrong_kind_rejected(self, tmp_path, obj):
        path = self._write(tmp_path, [json.dumps(obj)])
        with pytest.raises(EvalError, match=":1: (message|changed_files|required)"):
            load_commit_log(path)

    @given(lines=json_lines(json_records({
        "hash": st.sampled_from(["abc", "def"]),
        "message": any_text | st.just("fix B-1"),
        "changed_files": st.lists(any_text, max_size=3),
    }, required=("hash", "message", "changed_files"))))
    @settings(max_examples=200)
    def test_fuzzed_file_round_trips_or_fails_cleanly(self, lines, tmp_path_factory):
        path = tmp_path_factory.mktemp("commits") / "commits.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            commits = load_commit_log(str(path))
        except CrolocError:
            return
        path.write_text("".join(json.dumps(c) + "\n" for c in commits), encoding="utf-8")
        assert load_commit_log(str(path)) == commits


def _report(rid, fixed=None):
    return BugReport(
        id=rid,
        summary="s",
        description="d",
        reported_at=parse_rfc3339("2024-03-01T10:00:00Z"),
        resolved_at=parse_rfc3339("2024-04-01T10:00:00Z"),
        fixed_files=tuple(fixed) if fixed is not None else None,
    )


class TestLinkOracles:
    def test_fixed_files_become_direct(self):
        qrels = link_oracles([_report("BUG-1", ["src/A.java"])], [])
        assert qrels == {"BUG-1": {"src/A.java": GRADE_DIRECT}}

    def test_fixed_files_normalized(self):
        qrels = link_oracles([_report("BUG-1", ["src\\A.java", "./src/B.java"])], [])
        assert qrels["BUG-1"] == {"src/A.java": 2, "src/B.java": 2}

    def test_commit_reference_becomes_indirect(self):
        commits = [{"hash": "c1", "message": "refactor for BUG-1 fix",
                    "changed_files": ["src/Helper.java"]}]
        qrels = link_oracles([_report("BUG-1", ["src/A.java"])], commits)
        assert qrels["BUG-1"] == {
            "src/A.java": GRADE_DIRECT,
            "src/Helper.java": GRADE_INDIRECT,
        }

    def test_direct_beats_indirect(self):
        # the same file fixed directly and touched by a linked commit stays direct
        commits = [{"hash": "c1", "message": "BUG-1",
                    "changed_files": ["src/A.java", "src/B.java"]}]
        qrels = link_oracles([_report("BUG-1", ["src/A.java"])], commits)
        assert qrels["BUG-1"]["src/A.java"] == GRADE_DIRECT
        assert qrels["BUG-1"]["src/B.java"] == GRADE_INDIRECT

    def test_id_match_respects_boundaries(self):
        commits = [{"hash": "c1", "message": "fix BUG-10 regression",
                    "changed_files": ["src/Ten.java"]}]
        qrels = link_oracles(
            [_report("BUG-1", ["src/A.java"]), _report("BUG-10", ["src/T.java"])],
            commits,
        )
        # BUG-1 must not match inside BUG-10
        assert "src/Ten.java" not in qrels["BUG-1"]
        assert qrels["BUG-10"]["src/Ten.java"] == GRADE_INDIRECT

    @pytest.mark.parametrize("message, linked", [
        ("fix BUG-7_x", False), ("fix _BUG-7", False), ("fix xBUG-7", False),
        ("fix BUG-70", False), ("fix (BUG-7)", True),
    ])
    @pytest.mark.parametrize("link", [link_oracles, ref_link_oracles])
    def test_id_needs_no_word_character_beside_it(self, link, message, linked):
        commits = [{"hash": "c1", "message": message, "changed_files": ["src/P.java"]}]
        qrels = link([_report("BUG-7", ["src/A.java"])], commits)
        assert ("src/P.java" in qrels["BUG-7"]) is linked

    def test_id_match_allows_punctuation_context(self):
        commits = [{"hash": "c1", "message": "fix (BUG-1): off by one",
                    "changed_files": ["src/P.java"]}]
        qrels = link_oracles([_report("BUG-1", ["src/A.java"])], commits)
        assert qrels["BUG-1"]["src/P.java"] == GRADE_INDIRECT

    def test_unreferenced_commits_ignored(self):
        commits = [{"hash": "c1", "message": "routine cleanup",
                    "changed_files": ["src/X.java"]}]
        qrels = link_oracles([_report("BUG-1", ["src/A.java"])], commits)
        assert "src/X.java" not in qrels["BUG-1"]

    def test_report_without_evidence_produces_no_rows(self):
        qrels = link_oracles([_report("BUG-9", [])], [])
        assert "BUG-9" not in qrels

    def test_commit_paths_normalized(self):
        commits = [{"hash": "c1", "message": "BUG-1",
                    "changed_files": ["src\\Helper.java"]}]
        qrels = link_oracles([_report("BUG-1", ["src/A.java"])], commits)
        assert "src/Helper.java" in qrels["BUG-1"]


# Ids that overlap as substrings, plus short ids over digits, "-" and "_".
_IDS = st.one_of(st.sampled_from(["BUG-7", "BUG-73", "A-1", "1", "A_1", "7"]),
                 st.text(alphabet="AB17-_", min_size=1, max_size=4))


@st.composite
def _link_cases(draw):
    ids = draw(st.lists(_IDS, min_size=1, max_size=5, unique=True))
    paths = st.sampled_from(["src/A.java", "src\\B.java", "./src/C.cs", "src/D.java"])
    reports = [_report(rid, draw(st.lists(paths, max_size=2))) for rid in ids]
    pieces = st.one_of(st.sampled_from(ids), st.text(alphabet="AB17-_ (x", max_size=4))
    commits = [{"hash": f"c{i}", "message": "".join(draw(st.lists(pieces, max_size=5))),
                "changed_files": draw(st.lists(paths, max_size=3))}
               for i in range(draw(st.integers(min_value=0, max_value=6)))]
    return reports, commits


class TestLinkOraclesProperties:
    @given(case=_link_cases())
    @settings(max_examples=300)
    def test_matches_the_regex_over_every_message(self, case):
        reports, commits = case
        got = link_oracles(reports, commits)
        want = ref_link_oracles(reports, commits)
        assert got == want
        assert list(got) == list(want)
        assert [list(g.items()) for g in got.values()] == \
            [list(g.items()) for g in want.values()]


class TestReadRunFile:
    def _write(self, tmp_path, lines):
        target = tmp_path / "run.trec"
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(target)

    def test_sorts_by_rank_not_file_order(self, tmp_path):
        path = self._write(tmp_path, [
            "Q1 Q0 b.java 2 0.400000 tag",
            "Q1 Q0 a.java 1 0.900000 tag",
        ])
        assert read_run_file(path) == {"Q1": ["a.java", "b.java"]}

    def test_wrong_field_count(self, tmp_path):
        path = self._write(tmp_path, ["Q1 Q0 a.java 1 0.5"])
        with pytest.raises(EvalError, match="6 fields"):
            read_run_file(path)

    def test_bad_rank(self, tmp_path):
        path = self._write(tmp_path, ["Q1 Q0 a.java first 0.5 tag"])
        with pytest.raises(EvalError, match="malformed"):
            read_run_file(path)

    def test_bad_score(self, tmp_path):
        path = self._write(tmp_path, ["Q1 Q0 a.java 1 high tag"])
        with pytest.raises(EvalError, match="malformed"):
            read_run_file(path)

    @pytest.mark.parametrize("rank, score", [
        ("0", "0.5"), ("-2", "0.5"), ("1", "nan"), ("1", "-inf"), ("1", "1e999"),
    ])
    def test_rank_below_one_or_score_not_finite(self, tmp_path, rank, score):
        path = self._write(tmp_path, [f"Q1 Q0 a.java {rank} {score} tag"])
        with pytest.raises(EvalError, match=":1: malformed rank or score"):
            read_run_file(path)

    @given(lines=_trec_lines(_WORDS, st.just("Q0"), _WORDS,
                             st.sampled_from(["1", "2", "3", "4", "5", "0", "x"]),
                             st.sampled_from(["0.5", "-1", "0", "2.25", "nan", "inf"]),
                             st.just("t")))
    @settings(max_examples=200)
    def test_fuzzed_file_round_trips_or_fails_cleanly(self, lines, tmp_path_factory):
        path = tmp_path_factory.mktemp("run") / "run.trec"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            run = read_run_file(str(path))
        except CrolocError:
            return
        write_run_file(str(path), [(q, paths, [0.0] * len(paths)) for q, paths in run.items()],
                       "t")
        assert read_run_file(str(path)) == run

    def test_duplicate_rank(self, tmp_path):
        path = self._write(tmp_path, [
            "Q1 Q0 a.java 1 0.9 tag",
            "Q1 Q0 b.java 1 0.8 tag",
        ])
        with pytest.raises(EvalError, match="duplicate rank"):
            read_run_file(path)

    def test_duplicate_document(self, tmp_path):
        path = self._write(tmp_path, [
            "Q1 Q0 a.java 1 0.9 tag",
            "Q1 Q0 a.java 2 0.8 tag",
        ])
        with pytest.raises(EvalError, match="duplicate document"):
            read_run_file(path)


def _qrels(entries):
    qrels = {}
    for qid, path, grade in entries:
        qrels.setdefault(qid, {})[path] = grade
    return qrels


class TestEvaluate:
    def _setup(self):
        qrels = _qrels([
            ("Q1", "a", 2), ("Q1", "b", 1),
            ("Q2", "c", 2),
            ("Q3", "d", 1),
        ])
        run = {"Q1": ["a", "b", "x"], "Q2": ["x", "c"], "Q3": ["d"]}
        return run, qrels

    def test_direct_mode_metrics(self, caplog):
        run, qrels = self._setup()
        with caplog.at_level(logging.WARNING, logger="croloc.evalharness"):
            report = evaluate(run, qrels, mode="direct")
        # Q3 has only an indirect file, so it is skipped in direct mode
        assert report.skipped == ["Q3"]
        assert report.n_queries == 2
        assert report.map_score == pytest.approx((1.0 + 0.5) / 2)
        assert report.mrr == pytest.approx((1.0 + 0.5) / 2)
        assert report.success[1] == pytest.approx(0.5)
        assert report.success[5] == pytest.approx(1.0)
        assert any("Q3" in r.message for r in caplog.records)

    def test_combined_mode_metrics(self):
        run, qrels = self._setup()
        report = evaluate(run, qrels, mode="direct+indirect")
        assert report.skipped == []
        # Q1: hits at 1 and 2 over 2 relevant; Q2: 0.5; Q3: 1.0
        assert report.map_score == pytest.approx((1.0 + 0.5 + 1.0) / 3)
        assert report.success[1] == pytest.approx(2.0 / 3.0)

    def test_missing_query_is_error(self):
        run = {"GHOST": ["a"]}
        qrels = _qrels([("Q1", "a", 2)])
        with pytest.raises(EvalError, match="GHOST"):
            evaluate(run, qrels)

    def test_all_queries_skipped_is_error(self):
        run = {"Q1": ["a"]}
        qrels = _qrels([("Q1", "a", 1)])  # indirect only
        with pytest.raises(EvalError, match="no queries"):
            evaluate(run, qrels, mode="direct")

    def test_unknown_mode_is_error(self):
        run, qrels = self._setup()
        with pytest.raises(EvalError, match="mode"):
            evaluate(run, qrels, mode="strict")

    def test_per_query_results(self):
        run, qrels = self._setup()
        report = evaluate(run, qrels, mode="direct")
        by_id = {q.query_id: q for q in report.per_query}
        assert by_id["Q2"].first_rank == 2
        assert by_id["Q2"].n_relevant == 1
        assert by_id["Q1"].ap == pytest.approx(1.0)

    def test_to_json_shape(self):
        run, qrels = self._setup()
        payload = evaluate(run, qrels, mode="direct").to_json()
        assert payload["mode"] == "direct"
        assert payload["queries_evaluated"] == 2
        assert payload["queries_skipped"] == ["Q3"]
        assert payload["per_query"]["Q1"]["first_relevant_rank"] == 1
        json.dumps(payload)  # must be serializable as-is

    def test_format_table_mentions_metrics(self):
        run, qrels = self._setup()
        table = evaluate(run, qrels, mode="direct").format_table()
        assert "MAP  0.7500" in table
        assert "MRR  0.7500" in table
        assert "Success@1" in table
        assert "skipped" in table

    def test_evaluate_returns_an_eval_report(self):
        run, qrels = self._setup()
        report = evaluate(run, qrels, mode="direct")
        assert isinstance(report, EvalReport)
        assert report.mode == "direct"


class TestByteOrderMark:
    """A run or qrels file that starts with a UTF-8 byte order mark reads as
    the same file without it; a mark anywhere else is text."""

    RUN = "Q1 Q0 src/A.java 1 0.900000 t\nQ1 Q0 src/B.java 2 0.500000 t\n"
    QRELS = "Q1 0 src/B.java 2\nQ2 0 src/A.java 2\n"

    def _pair(self, tmp_path, name, text):
        clean, marked = tmp_path / f"clean.{name}", tmp_path / f"marked.{name}"
        clean.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        return str(clean), str(marked)

    def test_run_and_qrels_evaluate_like_clean_ones(self, tmp_path):
        clean_run, marked_run = self._pair(tmp_path, "trec", self.RUN)
        clean_qrels, marked_qrels = self._pair(tmp_path, "qrels", self.QRELS)
        assert read_run_file(marked_run) == read_run_file(clean_run)
        assert read_qrels(marked_qrels) == read_qrels(clean_qrels)
        want = evaluate(read_run_file(clean_run), read_qrels(clean_qrels)).to_json()
        for run, qrels in ((marked_run, clean_qrels), (clean_run, marked_qrels),
                           (marked_run, marked_qrels)):
            assert evaluate(read_run_file(run), read_qrels(qrels)).to_json() == want

    def test_only_a_leading_mark_is_dropped(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("\ufeff\ufeffQ1 Q0 a.java 1 0.5 t\n\ufeffQ2 Q0 a.java 1 0.5 t\n",
                        encoding="utf-8")
        assert set(read_run_file(str(path))) == {"\ufeffQ1", "\ufeffQ2"}


class TestWriteRunFile:
    def test_percent_signs_are_text(self, tmp_path):
        # The block goes through one % format; a % in any field stays as is.
        target = tmp_path / "p.trec"
        write_run_file(str(target), [("Q%d1", ["src/%s.java", "b%%.cs"], [0.5, 0.25])], "t%s%")
        assert target.read_text(encoding="utf-8") == (
            "Q%d1 Q0 src/%s.java 1 0.500000 t%s%\nQ%d1 Q0 b%%.cs 2 0.250000 t%s%\n")

    def test_failed_write_keeps_the_old_run(self, tmp_path):
        # A block that fails its field check after earlier blocks were
        # formatted must not leave a partial run that eval would score.
        target = tmp_path / "p.trec"
        target.write_text("OLD Q0 src/Z.java 1 1.000000 t\n", encoding="utf-8")
        ok = ("Q1", ["src/A.java"], [0.5])
        bad = ("Q2", ["src/A b.java"], [0.5])
        with pytest.raises(EvalError, match="whitespace"):
            write_run_file(str(target), [ok, bad], "t")
        assert target.read_text(encoding="utf-8") == "OLD Q0 src/Z.java 1 1.000000 t\n"
        assert os.listdir(tmp_path) == ["p.trec"]

    def test_repeated_query_id_keeps_the_old_run(self, tmp_path):
        # read_run_file rejects a query ranked twice, so no such run is written.
        target = tmp_path / "p.trec"
        target.write_text("OLD Q0 src/Z.java 1 1.000000 t\n", encoding="utf-8")
        ranking = ("Q1", ["src/A.java"], [0.5])
        with pytest.raises(EvalError, match="Q1 is ranked twice"):
            write_run_file(str(target), [ranking, ranking], "t")
        assert target.read_text(encoding="utf-8") == "OLD Q0 src/Z.java 1 1.000000 t\n"
        assert os.listdir(tmp_path) == ["p.trec"]
