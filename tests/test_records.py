"""The records every command passes around: the immutable ones are named
tuples, the ones holding arrays or mutable state plain classes; none is a
dataclass. Each keeps its fields, defaults, equality and hashing."""
from __future__ import annotations

from datetime import datetime, timezone

import numpy as np
import pytest

from conftest import AFTER_ALL, history_set, index_texts
from croloc.corpus import BugReport, Corpus, ExcludedReport, Language, SourceDocument
from croloc.evalharness import EvalReport, QueryResult
from croloc.index import DocumentVector, Index, QueryRows, QueryVector, query_rows

WHEN = datetime(2021, 3, 4, 5, 6, 7, tzinfo=timezone.utc)
DOC = SourceDocument("src/A.java", Language.JAVA, "// 在庫\n".encode())
REPORT = BugReport("B-1", "crash", "on save", WHEN)
RESULT = QueryResult("B-1", 0.5, 1.0, 1, 2)

# Each named tuple: its fields, its defaults, one value, a field to replace
# with a new value, and whether its values hash (a field holding a dict or a
# list does not).
NAMED = {
    "SourceDocument": (SourceDocument, ("path", "language", "raw_bytes"), {},
                       DOC, ("path", "src/B.java"), True),
    "BugReport": (BugReport, ("id", "summary", "description", "reported_at", "resolved_at",
                              "fixed_files", "functional"),
                  {"resolved_at": None, "fixed_files": None, "functional": True},
                  REPORT, ("fixed_files", ("src/A.java",)), True),
    "ExcludedReport": (ExcludedReport, ("report", "reason"), {},
                       ExcludedReport(REPORT, "fix not completed"),
                       ("reason", "not a functional bug"), True),
    "Corpus": (Corpus, ("documents", "skipped"), {"skipped": ()},
               Corpus((DOC,)), ("skipped", (("Bad.java", "not UTF-8"),)), True),
    "QueryResult": (QueryResult, ("query_id", "ap", "rr", "first_rank", "n_relevant"), {},
                    RESULT, ("first_rank", None), True),
    "EvalReport": (EvalReport, ("mode", "map_score", "mrr", "success", "per_query", "skipped"),
                   {}, EvalReport("direct", 0.5, 1.0, {1: 1.0}, [RESULT], []),
                   ("mode", "direct+indirect"), False),
    "DocumentVector": (DocumentVector, ("term_count", "weights", "norm"), {},
                       DocumentVector(3, {0: 1.5}, 1.5), ("norm", 2.0), False),
    "QueryVector": (QueryVector, ("weights", "norm"), {},
                    QueryVector({0: 1.5}, 1.5), ("weights", {1: 1.5}), False),
}


@pytest.mark.parametrize("name", sorted(NAMED))
class TestNamedRecords:
    def test_fields_and_defaults(self, name):
        cls, fields, defaults, value, *_ = NAMED[name]
        assert issubclass(cls, tuple)
        assert cls._fields == fields
        assert cls._field_defaults == defaults
        assert cls(*value) == value  # positional, in field order
        assert cls(**value._asdict()) == value

    def test_value_equality_and_hashing(self, name):
        cls, _, _, value, (field, new), hashes = NAMED[name]
        twin = cls(*value)
        assert twin == value and twin is not value
        assert value != value._replace(**{field: new})
        if hashes:
            assert hash(twin) == hash(value)
            assert len({value, twin, value._replace(**{field: new})}) == 2
        else:
            with pytest.raises(TypeError):
                hash(value)

    def test_assignment_raises(self, name):
        _, fields, _, value, *_ = NAMED[name]
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))

    def test_replace_returns_a_new_record(self, name):
        cls, fields, _, value, (field, new), _ = NAMED[name]
        replaced = value._replace(**{field: new})
        assert type(replaced) is cls
        assert getattr(replaced, field) == new
        assert [getattr(replaced, f) for f in fields if f != field] == \
            [getattr(value, f) for f in fields if f != field]
        assert getattr(value, field) != new  # the original is unchanged
        with pytest.raises(ValueError):
            value._replace(no_such_field=1)


class TestNamedRecordMembers:
    def test_source_document_decodes_its_bytes(self):
        assert DOC.raw_text == "// 在庫\n" and DOC.byte_len == 10

    def test_bug_report_query_text_and_fixed_paths(self):
        report = REPORT._replace(fixed_files=("./src/A.java", "src\\A.java", "src/B.java"))
        assert report.query_text == "crash\non save"
        assert report.fixed_paths == ("src/A.java", "src/B.java")
        assert REPORT.fixed_paths == ()

    def test_eval_report_counts_its_queries(self):
        report = NAMED["EvalReport"][3]
        assert report.n_queries == 1
        assert report.to_json()["per_query"]["B-1"]["first_relevant_rank"] == 1


class TestPlainRecords:
    def test_index_value_equality_and_no_hash(self):
        texts, paths = ["stock count", "warehouse stock"], ["a.java", "b.java"]
        index = index_texts(texts, paths)
        twin = Index(index.stemming, index.paths, index.vocabulary, index.doc_freq,
                     *(a.copy() for a in (index.indptr, index.indices, index.data,
                                           index.norms, index.term_counts)))
        assert twin == index and twin is not index
        assert index_texts(texts[::-1], paths) != index
        assert index != index.paths
        with pytest.raises(TypeError):
            hash(index)
        # The cached properties are built once, on the instance.
        assert index.term_ids is index.term_ids and index.idfs is index.idfs

    def test_query_rows_identity_equality_and_length(self):
        index = index_texts(["stock count", "warehouse stock"], ["a.java", "b.java"])
        rows = query_rows([["stock"], ["count"], []], index)
        twin = QueryRows(rows.indptr, rows.indices, rows.data, rows.norms)
        assert len(rows) == 3 and len(rows.take([2, 0])) == 2
        assert rows == rows and twin != rows
        assert len({rows, twin}) == 2

    def test_history_set_identity_equality_length_and_before(self):
        index = index_texts(["stock count", "warehouse stock"], ["a.java", "b.java"])
        history = history_set(index, [(["stock"], ["a.java"], WHEN),
                                      (["count"], ["b.java"], AFTER_ALL)])
        assert len(history) == 2 and history == history
        view = history.before(AFTER_ALL)
        assert type(view) is type(history) and view != history and len(view) == 1
        assert view.vectors is history.vectors and view.keys is history.keys
        assert view.times is history.times and view.postings is history.postings
        assert np.array_equal(view.rows_before([AFTER_ALL]), [1])
        assert len(history.before(WHEN)) == 0
        assert len({history, view}) == 2
