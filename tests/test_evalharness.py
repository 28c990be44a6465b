"""Qrels, oracle linking, and retrieval metric tests."""
from __future__ import annotations

import json
import logging
import os

import pytest

from croloc.corpus import BugReport, parse_rfc3339
from croloc.errors import EvalError
from croloc.evalharness import (
    GRADE_DIRECT,
    GRADE_INDIRECT,
    EvalReport,
    Qrels,
    average_precision,
    evaluate,
    first_relevant_rank,
    link_oracles,
    load_commit_log,
    read_qrels,
    read_run_file,
    reciprocal_rank,
    success_at_n,
    write_qrels,
    write_run_file,
)
from croloc.rank import RankingEntry
from reference import ref_average_precision, ref_reciprocal_rank, ref_success_at


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


class TestSuccessAtN:
    def test_within_cutoff(self):
        assert success_at_n(["x", "r", "y"], {"r"}, 2) == 1

    def test_outside_cutoff(self):
        assert success_at_n(["x", "y", "r"], {"r"}, 2) == 0

    def test_matches_reference(self):
        ranked = ["a", "b", "c"]
        for n in (1, 2, 3, 10):
            for relevant in ({"b"}, {"zzz"}):
                assert success_at_n(ranked, relevant, n) == ref_success_at(
                    ranked, relevant, n
                )


class TestQrels:
    def test_mode_filtering(self):
        qrels = Qrels()
        qrels.add("Q1", "a", GRADE_DIRECT)
        qrels.add("Q1", "b", GRADE_INDIRECT)
        assert qrels.relevant("Q1", "direct") == {"a"}
        assert qrels.relevant("Q1", "direct+indirect") == {"a", "b"}

    def test_unknown_query_is_empty(self):
        assert Qrels().relevant("nope", "direct") == set()

    def test_contains(self):
        qrels = Qrels()
        qrels.add("Q1", "a", 2)
        assert "Q1" in qrels
        assert "Q2" not in qrels

    def test_unknown_mode_rejected(self):
        qrels = Qrels()
        qrels.add("Q1", "a", 2)
        with pytest.raises(EvalError, match="mode"):
            qrels.relevant("Q1", "fuzzy")

    def test_write_read_round_trip(self, tmp_path):
        qrels = Qrels()
        qrels.add("Q2", "b.java", 1)
        qrels.add("Q1", "a.java", 2)
        qrels.add("Q1", "c.java", 1)
        target = tmp_path / "qrels.txt"
        with open(target, "w", encoding="utf-8") as fh:
            write_qrels(fh, qrels)
        loaded = read_qrels(str(target))
        assert loaded.grades == qrels.grades
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
        assert read_qrels(str(target)).grades == {"Q1": {"a.java": 2}}

    def test_zero_grade_is_never_relevant(self, tmp_path):
        target = tmp_path / "qrels.txt"
        target.write_text("Q1 0 a.java 0\nQ1 0 b.java 2\n", encoding="utf-8")
        qrels = read_qrels(str(target))
        assert qrels.relevant("Q1", "direct+indirect") == {"b.java"}


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
        assert qrels.grades == {"BUG-1": {"src/A.java": GRADE_DIRECT}}

    def test_fixed_files_normalized(self):
        qrels = link_oracles([_report("BUG-1", ["src\\A.java", "./src/B.java"])], [])
        assert qrels.grades["BUG-1"] == {"src/A.java": 2, "src/B.java": 2}

    def test_commit_reference_becomes_indirect(self):
        commits = [{"hash": "c1", "message": "refactor for BUG-1 fix",
                    "changed_files": ["src/Helper.java"]}]
        qrels = link_oracles([_report("BUG-1", ["src/A.java"])], commits)
        assert qrels.grades["BUG-1"] == {
            "src/A.java": GRADE_DIRECT,
            "src/Helper.java": GRADE_INDIRECT,
        }

    def test_direct_beats_indirect(self):
        # the same file fixed directly and touched by a linked commit stays direct
        commits = [{"hash": "c1", "message": "BUG-1",
                    "changed_files": ["src/A.java", "src/B.java"]}]
        qrels = link_oracles([_report("BUG-1", ["src/A.java"])], commits)
        assert qrels.grades["BUG-1"]["src/A.java"] == GRADE_DIRECT
        assert qrels.grades["BUG-1"]["src/B.java"] == GRADE_INDIRECT

    def test_id_match_respects_boundaries(self):
        commits = [{"hash": "c1", "message": "fix BUG-10 regression",
                    "changed_files": ["src/Ten.java"]}]
        qrels = link_oracles(
            [_report("BUG-1", ["src/A.java"]), _report("BUG-10", ["src/T.java"])],
            commits,
        )
        # BUG-1 must not match inside BUG-10
        assert "src/Ten.java" not in qrels.grades["BUG-1"]
        assert qrels.grades["BUG-10"]["src/Ten.java"] == GRADE_INDIRECT

    def test_id_match_allows_punctuation_context(self):
        commits = [{"hash": "c1", "message": "fix (BUG-1): off by one",
                    "changed_files": ["src/P.java"]}]
        qrels = link_oracles([_report("BUG-1", ["src/A.java"])], commits)
        assert qrels.grades["BUG-1"]["src/P.java"] == GRADE_INDIRECT

    def test_unreferenced_commits_ignored(self):
        commits = [{"hash": "c1", "message": "routine cleanup",
                    "changed_files": ["src/X.java"]}]
        qrels = link_oracles([_report("BUG-1", ["src/A.java"])], commits)
        assert "src/X.java" not in qrels.grades["BUG-1"]

    def test_report_without_evidence_produces_no_rows(self):
        qrels = link_oracles([_report("BUG-9", [])], [])
        assert "BUG-9" not in qrels

    def test_commit_paths_normalized(self):
        commits = [{"hash": "c1", "message": "BUG-1",
                    "changed_files": ["src\\Helper.java"]}]
        qrels = link_oracles([_report("BUG-1", ["src/A.java"])], commits)
        assert "src/Helper.java" in qrels.grades["BUG-1"]


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
    qrels = Qrels()
    for qid, path, grade in entries:
        qrels.add(qid, path, grade)
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

    def test_custom_success_cutoffs(self):
        run, qrels = self._setup()
        report = evaluate(run, qrels, mode="direct", success_ns=(2,))
        assert set(report.success) == {2}
        assert report.success[2] == pytest.approx(1.0)

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

    def test_report_is_plain_dataclass(self):
        run, qrels = self._setup()
        report = evaluate(run, qrels, mode="direct")
        assert isinstance(report, EvalReport)
        assert report.mode == "direct"


class TestWriteRunFile:
    def test_failed_write_keeps_the_old_run(self, tmp_path):
        # A block that fails its field check after earlier blocks were
        # formatted must not leave a partial run that eval would score.
        target = tmp_path / "p.trec"
        target.write_text("OLD Q0 src/Z.java 1 1.000000 t\n", encoding="utf-8")
        ok = [RankingEntry(rank=1, path="src/A.java", score=0.5, doc_id=0)]
        bad = [RankingEntry(rank=1, path="src/A b.java", score=0.5, doc_id=1)]
        with pytest.raises(EvalError, match="whitespace"):
            write_run_file(str(target), [("Q1", ok), ("Q2", bad)], "t")
        assert target.read_text(encoding="utf-8") == "OLD Q0 src/Z.java 1 1.000000 t\n"
        assert os.listdir(tmp_path) == ["p.trec"]
