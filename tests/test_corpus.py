import contextlib
import functools
import json
import os
import re
import subprocess
import sys
import time
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import croloc.corpus
from croloc.corpus import (
    REASON_FIX_NOT_COMPLETED,
    REASON_NO_SOURCE_FILE,
    REASON_NOT_FUNCTIONAL,
    BugReport,
    Language,
    check_token,
    fan_out,
    filter_usable_reports,
    load_bug_reports,
    load_source_tree,
    normalize_path,
    parse_rfc3339,
    report_to_obj,
    run_tasks,
    typed,
)
from croloc.errors import CorpusError, CrolocError, EvalError, ReportFormatError
from conftest import assert_no_child_left
from reference import ref_load_source_tree
from strategies import any_text, json_lines, json_records


def _write_tree(root, files):
    for rel, text in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text, encoding="utf-8")


class TestNormalizePath:
    def test_backslashes_become_forward(self):
        assert normalize_path("src\\app\\Main.java") == "src/app/Main.java"

    def test_leading_dot_slash_stripped(self):
        assert normalize_path("./src/Main.java") == "src/Main.java"

    def test_plain_path_unchanged(self):
        assert normalize_path("src/Main.java") == "src/Main.java"

    @given(st.text(alphabet="abc/\\.", min_size=1, max_size=30))
    def test_idempotent(self, path):
        assert normalize_path(normalize_path(path)) == normalize_path(path)


class TestLoadSourceTree:
    def test_lexicographic_order(self, tmp_path):
        _write_tree(tmp_path, {
            "b/Two.java": "class Two {}",
            "a/One.java": "class One {}",
            "a/Zed.cs": "class Zed {}",
        })
        corpus = load_source_tree(tmp_path, ["**/*.java", "**/*.cs"])
        assert [d.path for d in corpus.documents] == [
            "a/One.java", "a/Zed.cs", "b/Two.java"]

    def test_language_mapping(self, tmp_path):
        _write_tree(tmp_path, {
            "A.java": "x", "B.cs": "x", "C.sql": "x",
        })
        corpus = load_source_tree(tmp_path, ["**/*.java", "**/*.cs", "**/*.sql"])
        langs = {d.path: d.language for d in corpus.documents}
        assert langs == {"A.java": Language.JAVA, "B.cs": Language.CSHARP,
                         "C.sql": Language.GENERIC}

    def test_include_patterns_filter(self, tmp_path):
        _write_tree(tmp_path, {"A.java": "x", "B.txt": "x"})
        corpus = load_source_tree(tmp_path, ["**/*.java"])
        assert [d.path for d in corpus.documents] == ["A.java"]

    def test_strict_decode_error_names_file(self, tmp_path):
        (tmp_path / "Bad.java").write_bytes(b"class \xff {}")
        with pytest.raises(CorpusError, match="Bad.java"):
            load_source_tree(tmp_path, ["**/*.java"])

    def test_permissive_skips_and_records(self, tmp_path):
        _write_tree(tmp_path, {"Good.java": "class Good {}"})
        (tmp_path / "Bad.java").write_bytes(b"\xff\xfe")
        corpus = load_source_tree(tmp_path, ["**/*.java"], permissive=True)
        assert [d.path for d in corpus.documents] == ["Good.java"]
        assert len(corpus.skipped) == 1
        path, reason = corpus.skipped[0]
        assert path == "Bad.java"
        assert "utf-8" in reason

    def test_missing_root(self, tmp_path):
        with pytest.raises(CorpusError):
            load_source_tree(tmp_path / "nope", ["**/*.java"])

    @pytest.mark.parametrize("pattern", ["", "**a", "/abs"])
    def test_unusable_pattern_is_corpus_error(self, tmp_path, pattern):
        with pytest.raises(CorpusError, match=re.escape(f"--include pattern {pattern!r}")):
            load_source_tree(tmp_path, ["**/*.java", pattern])

    def test_paths_equal_once_normalized_are_duplicates(self, tmp_path):
        # A file literally named "src\A.java" normalizes to src/A.java too.
        _write_tree(tmp_path, {"src/A.java": "class A {}", "src\\A.java": "class A {}"})
        with pytest.raises(CorpusError, match="duplicate document path: src/A.java"):
            load_source_tree(tmp_path, ["**/*.java"])

    def test_byte_len_counts_utf8_bytes(self, tmp_path):
        _write_tree(tmp_path, {"J.java": "// 在庫\n"})
        corpus = load_source_tree(tmp_path, ["**/*.java"])
        doc = corpus.documents[0]
        assert doc.byte_len == len(doc.raw_text.encode("utf-8")) == 10

    def test_raw_bytes_are_the_file_bytes(self, tmp_path):
        # A BOM, CRLF line ends and Japanese all stay as read; the text is
        # their decoding, BOM included.
        data = "\ufeff// 在庫を更新\r\nclass A { String s = \"注文\"; }\r\n".encode("utf-8")
        (tmp_path / "A.java").write_bytes(data)
        doc = load_source_tree(tmp_path, ["**/*.java"]).documents[0]
        assert doc.raw_bytes == data
        assert doc.raw_text == data.decode("utf-8")
        assert doc.byte_len == len(data)


# File names that reach each rule of a path below the root and of its
# language: case, dots that do or do not start an extension, a backslash that
# normalizes to a slash (so x\y.java and x/y.java are one path), and non-ASCII.
_TREE_NAMES = st.sampled_from(["A.java", "b.cs", "C.JAVA", "d.Cs", "..java", ".java", "e.",
                               "f.java.txt", "g h.java", "ü.java", "x\\y.java", "n.cs",
                               "y.java"])
_TREE_DIRS = st.sampled_from(["", "sub/", "sub/deep/", ".hidden/", "a b/", "x/"])
_TREE_CONTENT = st.sampled_from([b"class A {}\n", "// 在庫\n".encode(), b"\xff bad\n", b""])
# The tree's root as the loader is given it, and the directory it runs in:
# absolute, ".", relative, with a trailing slash, and not normalized.
_ROOTS = {"absolute": None, ".": ".", "relative": "tree", "trailing slash": "tree/",
          "dot slash": "./tree", "dot dot": "tree/../tree", "inner dot": "./tree/."}


class TestLoadSourceTreeOracle:
    """The loader that slices the root off each path against the one that
    called Path.relative_to (tests/reference.py), for every way of naming
    the root."""

    @given(files=st.dictionaries(st.tuples(_TREE_DIRS, _TREE_NAMES).map("".join),
                                 _TREE_CONTENT, max_size=6),
           patterns=st.lists(st.sampled_from(["**/*.java", "**/*.cs", "*", "**/*", "sub/*.java",
                                              "**/*.JAVA", "*/"]),
                             min_size=1, max_size=3),
           permissive=st.booleans(), root=st.sampled_from(sorted(_ROOTS)))
    @example(files={"x\\y.java": b"class A {}\n", "x/y.java": b""}, patterns=["**/*.java"],
             permissive=False, root="absolute")
    @settings(max_examples=150)
    def test_same_corpus_or_error(self, files, patterns, permissive, root, tmp_path_factory):
        base = tmp_path_factory.mktemp("load")
        tree = base / "tree"
        tree.mkdir()
        for rel, content in files.items():
            (tree / rel).parent.mkdir(parents=True, exist_ok=True)
            (tree / rel).write_bytes(content)
        given_root = _ROOTS[root] or str(tree)
        outcomes = []
        cwd = os.getcwd()
        os.chdir(tree if given_root == "." else base)
        try:
            for load in (load_source_tree, ref_load_source_tree):
                try:
                    outcomes.append(load(given_root, patterns, permissive))
                except CorpusError as exc:
                    outcomes.append(str(exc))
        finally:
            os.chdir(cwd)
        assert outcomes[0] == outcomes[1]


@pytest.fixture
def cpus(monkeypatch):
    """Sets the number of usable CPUs that ``fan_out`` sees, with one byte
    enough for a chunk of its own."""
    monkeypatch.setattr(croloc.corpus, "MIN_CHUNK_BYTES", 1)

    def set_cpus(n):
        monkeypatch.setattr(croloc.corpus, "_usable_cpus", lambda: n)
    return set_cpus


def _chunked(work, items, sizes=None):
    """The result of ``work`` for each chunk ``fan_out`` makes, each item
    weighing 1 by default."""
    with contextlib.closing(fan_out(work, items, sizes or [1] * len(items))) as chunks:
        return list(chunks)


def _squares(chunk):
    return [x * x for x in chunk]


def _fork_forbidden():
    raise AssertionError("os.fork called")


class TestFanOut:
    @pytest.fixture(autouse=True)
    def mask_kept(self):
        """Each test leaves this process's CPU affinity as it found it."""
        before = os.sched_getaffinity(0)
        yield
        assert os.sched_getaffinity(0) == before

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_results_come_in_item_order(self, cpus, n):
        cpus(n)
        chunks = _chunked(_squares, list(range(11)))
        assert len(chunks) == n
        assert [r for chunk in chunks for r in chunk] == [x * x for x in range(11)]
        assert_no_child_left()

    def test_chunks_balance_sizes(self, cpus):
        cpus(2)
        assert _chunked(list, list(range(5)), [8, 1, 1, 1, 1]) == [[0], [1, 2, 3, 4]]
        assert _chunked(list, list(range(5)), [1, 1, 1, 1, 8]) == [[0, 1, 2, 3], [4]]

    def test_at_most_one_chunk_per_minimum_size(self, cpus, monkeypatch):
        cpus(4)
        monkeypatch.setattr(croloc.corpus, "MIN_CHUNK_BYTES", 10)
        assert len(_chunked(list, list(range(30)))) == 3

    @pytest.mark.parametrize("n, min_bytes", [(1, 1), (2, 31)], ids=["one-cpu", "under-minimum"])
    def test_no_fork_with_one_cpu_or_under_the_minimum(self, cpus, monkeypatch, n, min_bytes):
        cpus(n)
        monkeypatch.setattr(croloc.corpus, "MIN_CHUNK_BYTES", min_bytes)
        monkeypatch.setattr(os, "fork", _fork_forbidden)
        assert _chunked(list, list(range(30))) == [list(range(30))]

    def test_one_chunk_where_fork_is_missing(self, cpus, monkeypatch):
        cpus(4)
        monkeypatch.delattr(os, "fork")
        assert _chunked(list, list(range(30))) == [list(range(30))]

    def test_no_items(self, cpus):
        cpus(2)
        assert _chunked(list, []) == [[]]

    def test_child_exception_raised_in_its_turn(self, cpus):
        cpus(3)

        def work(chunk):
            chunk = list(chunk)
            if 5 in chunk:
                raise ValueError("bad chunk")
            return chunk
        with contextlib.closing(fan_out(work, list(range(9)), [1] * 9)) as chunks:
            assert next(chunks) == [0, 1, 2]
            with pytest.raises(ValueError, match="bad chunk"):
                next(chunks)
        assert_no_child_left()

    def test_unpicklable_exception_becomes_croloc_error(self, cpus):
        cpus(2)

        class Local(Exception):
            """Pickled by a qualified name that no import finds."""

        def work(chunk):
            if 9 in list(chunk):
                raise Local("no way back")
            return []
        with pytest.raises(CrolocError, match="Local: no way back"):
            _chunked(work, list(range(10)))
        assert_no_child_left()

    def test_child_exiting_without_a_result(self, cpus):
        cpus(2)
        parent = os.getpid()

        def work(chunk):
            if os.getpid() != parent:
                os._exit(3)
            return list(chunk)
        with pytest.raises(CrolocError, match="exit code 3"):
            _chunked(work, list(range(10)))
        assert_no_child_left()

    def test_failure_here_kills_the_children(self, cpus):
        cpus(3)
        parent = os.getpid()

        def work(chunk):
            if os.getpid() != parent:
                time.sleep(60)
            raise ValueError("first chunk failed")
        start = time.monotonic()
        with pytest.raises(ValueError, match="first chunk failed"):
            _chunked(work, list(range(3)))
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_closing_early_kills_the_children(self, cpus):
        cpus(2)
        parent = os.getpid()

        def work(chunk):
            if os.getpid() != parent:
                time.sleep(60)
            return list(chunk)
        with contextlib.closing(fan_out(work, [0, 1], [1, 1])) as chunks:
            assert next(chunks) == [0]
        assert_no_child_left()

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
    def test_each_process_runs_on_a_cpu_of_its_own(self, monkeypatch):
        monkeypatch.setattr(croloc.corpus, "MIN_CHUNK_BYTES", 1)
        usable = os.sched_getaffinity(0)
        masks = _chunked(lambda chunk: os.sched_getaffinity(0), list(range(len(usable))))
        assert len(masks) == len(usable)
        assert all(len(mask) == 1 for mask in masks)
        assert set().union(*masks) == usable
        assert_no_child_left()

    @pytest.mark.parametrize("ending", ["all-read", "child-error", "parent-error",
                                        "early-close"])
    def test_mask_restored_however_it_ends(self, cpus, ending):
        cpus(2)
        before = os.sched_getaffinity(0)
        parent = os.getpid()

        def work(chunk):
            if ending == ("parent-error" if os.getpid() == parent else "child-error"):
                raise ValueError(ending)
            return list(chunk)
        with contextlib.closing(fan_out(work, [0, 1], [1, 1])) as chunks:
            if ending == "all-read":
                assert list(chunks) == [[0], [1]]
            elif ending == "early-close":
                assert next(chunks) == [0]
            else:
                with pytest.raises(ValueError, match=ending):
                    list(chunks)
        assert os.sched_getaffinity(0) == before
        assert_no_child_left()

    @pytest.mark.parametrize("refusal", ["raises", "missing"])
    def test_same_results_and_errors_where_placing_fails(self, cpus, monkeypatch, refusal):
        cpus(3)
        if refusal == "missing":
            monkeypatch.delattr(os, "sched_setaffinity")
        else:
            def refuse(pid, mask):
                raise OSError("placing refused")
            monkeypatch.setattr(os, "sched_setaffinity", refuse)
        assert _chunked(_squares, list(range(11))) == [
            [0, 1, 4, 9], [16, 25, 36], [49, 64, 81, 100]]
        parent = os.getpid()
        for failing in ("parent", "child"):
            def work(chunk, failing=failing):
                if (os.getpid() == parent) == (failing == "parent"):
                    raise ValueError(f"{failing} failed")
                return list(chunk)
            with pytest.raises(ValueError, match=f"{failing} failed"):
                _chunked(work, list(range(3)))
        assert_no_child_left()

    def test_run_tasks_runs_the_first_here_and_each_other_in_a_child(self):
        # The results come in task order, and the other tasks see this
        # process's state as it was when they were forked.
        parent, state = os.getpid(), ["forked"]

        def task(k):
            return k, os.getpid() == parent, state[0]
        with contextlib.closing(run_tasks([functools.partial(task, k)
                                           for k in range(3)])) as results:
            first = next(results)
            state[0] = "changed"
            assert [first, *results] == [(0, True, "forked"), (1, False, "forked"),
                                         (2, False, "forked")]
        assert_no_child_left()

    def test_child_stops_once_its_parent_is_gone(self):
        # The parent exits during its own chunk. Its child, which takes
        # 0.5 s per item, holds the stdout pipe open until it exits, so the
        # run takes 10 s unless the child stops after its current item.
        script = (
            "import os, time\n"
            "import croloc.corpus as c\n"
            "c.MIN_CHUNK_BYTES = 1\n"
            "c._usable_cpus = lambda: 2\n"
            "parent = os.getpid()\n"
            "def work(chunk):\n"
            "    if os.getpid() == parent:\n"
            "        time.sleep(0.2)\n"
            "        os._exit(0)\n"
            "    return [time.sleep(0.5) for x in chunk]\n"
            "list(c.fan_out(work, list(range(40)), [1] * 40))\n"
        )
        start = time.monotonic()
        subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=60,
                       env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert time.monotonic() - start < 5

    def test_forked_task_stops_once_its_parent_is_gone(self):
        # run_tasks' own process exits during the first task. The forked
        # task sleeps 60 s in one call and holds the stdout pipe open until
        # it exits, so the run takes a minute unless the task is cut short.
        script = (
            "import os, time\n"
            "import croloc.corpus as c\n"
            "def first():\n"
            "    time.sleep(0.2)\n"
            "    os._exit(0)\n"
            "list(c.run_tasks([first, lambda: time.sleep(60)]))\n"
        )
        start = time.monotonic()
        subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=120,
                       env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert time.monotonic() - start < 5


class TestParseRfc3339:
    def test_z_suffix(self):
        dt = parse_rfc3339("2024-03-01T10:00:00Z")
        assert dt == datetime(2024, 3, 1, 10, tzinfo=timezone.utc)

    def test_offset(self):
        jst = parse_rfc3339("2024-03-01T19:00:00+09:00")
        utc = parse_rfc3339("2024-03-01T10:00:00Z")
        assert jst == utc

    def test_naive_taken_as_utc(self):
        dt = parse_rfc3339("2024-03-01T10:00:00")
        assert dt.tzinfo is timezone.utc

    def test_garbage_rejected(self):
        with pytest.raises(ReportFormatError):
            parse_rfc3339("yesterday")

    @pytest.mark.parametrize("value, expected", [
        ("2024-03-01t10:00:00z", datetime(2024, 3, 1, 10, tzinfo=timezone.utc)),
        ("2024-03-01 10:00:00Z", datetime(2024, 3, 1, 10, tzinfo=timezone.utc)),
        ("2020-01-01T00:00:00.5Z", datetime(2020, 1, 1, microsecond=500000, tzinfo=timezone.utc)),
        ("2020-01-01T00:00:00.1234569Z",
         datetime(2020, 1, 1, microsecond=123456, tzinfo=timezone.utc)),
        ("2024-03-01T10:00:00-00:00", datetime(2024, 3, 1, 10, tzinfo=timezone.utc)),
        ("2024-03-01T04:30:00.000001-05:30",
         datetime(2024, 3, 1, 10, microsecond=1, tzinfo=timezone.utc)),
        ("2024-03-01T10:00:00+23:59", datetime(2024, 2, 29, 10, 1, tzinfo=timezone.utc)),
    ])
    def test_every_form_accepted(self, value, expected):
        dt = parse_rfc3339(value)
        assert dt == expected and dt.utcoffset() is not None

    @pytest.mark.parametrize("value", [
        "2024-03-01",
        "20200101T000000Z",
        "2020-01-01T00:00:00,5Z",
        "2020-W01-1",
        "2020-01-01T00:00Z",
        "2020-01-01T00:00:00.Z",
        "2020-01-01T00:00:00+0900",
        "2020-01-01T00:00:00+09",
        "2020-01-01T24:00:00Z",
        "2020-02-30T00:00:00Z",
        "2020-01-01T00:00:60Z",
        "2020-01-01T00:00:00+24:00",
        "2020-01-01T00:00:00+05:60",
        " 2020-01-01T00:00:00Z",
        "2020-01-01T00:00:00Z\n",
        "\uff12\uff10\uff12\uff10-01-01T00:00:00Z",
        "",
    ])
    def test_everything_else_rejected(self, value):
        with pytest.raises(ReportFormatError):
            parse_rfc3339(value)


class TestCheckToken:
    def test_rejects_exactly_what_the_isspace_test_rejected(self):
        # Every code point, alone and inside a token: check_token rejects a
        # value just when one of its characters is str.isspace(), as the
        # per-character test it replaced did.
        wrong = []
        for code in range(sys.maxunicode + 1):
            for value in (chr(code), f"a{chr(code)}b"):
                try:
                    check_token(value, "query id", EvalError)
                    rejected = False
                except EvalError:
                    rejected = True
                if rejected != any(ch.isspace() for ch in value):
                    wrong.append(code)
        assert wrong == []

    def test_rejects_empty(self):
        with pytest.raises(EvalError, match="empty or contains whitespace"):
            check_token("", "query id", EvalError)


class TestTyped:
    @pytest.mark.parametrize("value, kind", [
        ("s", str), ("在庫", str), ("", str), (["a", ""], list), ([], list),
        (True, bool), (False, bool), (0, int), (-3, int), (10 ** 30, int),
        (0.5, float), (1, float), (-1e300, float),
    ], ids=repr)
    def test_accepts_its_kind_unchanged(self, value, kind):
        assert typed(value, kind) is value

    @pytest.mark.parametrize("value, kind", [
        (None, str), (1, str), ("\udc80", str), (["a", 1], list), (("a",), list),
        (["\ud800"], list), ("ab", list), (1, bool), ("true", bool), (True, int),
        (1.0, int), ("1", int), (True, float), (float("nan"), float),
        (float("inf"), float), ("0.5", float), ("2024-13-01", datetime),
        (1704067200, datetime), ("\ud800", datetime), (None, datetime),
    ], ids=repr)
    def test_rejects_any_other_value(self, value, kind):
        with pytest.raises(ValueError, match="must be"):
            typed(value, kind)

    def test_parses_a_time(self):
        assert typed("2024-03-01T19:00:00+09:00", datetime) == datetime(
            2024, 3, 1, 10, tzinfo=timezone.utc)


class TestLoadBugReports:
    def _load(self, tmp_path, lines):
        p = tmp_path / "reports.jsonl"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return load_bug_reports(p)

    def test_minimal_report_defaults(self, tmp_path):
        reports = self._load(tmp_path, [json.dumps(
            {"id": "B-1", "summary": "s", "reported_at": "2024-01-01T00:00:00Z"})])
        r = reports[0]
        assert r.description == ""
        assert r.resolved_at is None
        assert r.fixed_files is None
        assert r.functional is True
        assert r.query_text == "s\n"

    def test_missing_required_field_has_line_number(self, tmp_path):
        lines = [
            json.dumps({"id": "B-1", "summary": "s", "reported_at": "2024-01-01T00:00:00Z"}),
            json.dumps({"id": "B-2", "summary": "s"}),
        ]
        with pytest.raises(ReportFormatError, match=":2:"):
            self._load(tmp_path, lines)

    def test_malformed_json_line(self, tmp_path):
        with pytest.raises(ReportFormatError, match=":1:"):
            self._load(tmp_path, ["{not json"])

    def test_duplicate_id_rejected(self, tmp_path):
        line = json.dumps({"id": "B-1", "summary": "s",
                           "reported_at": "2024-01-01T00:00:00Z"})
        with pytest.raises(ReportFormatError, match="duplicate"):
            self._load(tmp_path, [line, line])

    def test_resolution_before_report_rejected(self, tmp_path):
        with pytest.raises(ReportFormatError, match="resolved_at"):
            self._load(tmp_path, [json.dumps({
                "id": "B-1", "summary": "s",
                "reported_at": "2024-02-01T00:00:00Z",
                "resolved_at": "2024-01-01T00:00:00Z"})])

    def test_fixed_files_must_be_nonempty_strings(self, tmp_path):
        with pytest.raises(ReportFormatError, match="fixed_files"):
            self._load(tmp_path, [json.dumps({
                "id": "B-1", "summary": "s",
                "reported_at": "2024-01-01T00:00:00Z",
                "fixed_files": ["ok.java", ""]})])

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "reports.jsonl"
        p.write_text('\n{"id": "B-1", "summary": "s", '
                     '"reported_at": "2024-01-01T00:00:00Z"}\n\n', encoding="utf-8")
        assert len(load_bug_reports(p)) == 1

    def test_nesting_too_deep_to_parse(self, tmp_path):
        with pytest.raises(ReportFormatError, match=":1: not valid JSON"):
            self._load(tmp_path, ["[" * 5000])

    @pytest.mark.parametrize("field, value, message", [
        ("id", "A 1", "report id 'A 1' is empty or contains whitespace"),
        ("id", "", "report id '' is empty"),
        ("id", 7, "id must be a UTF-8 string"),
        ("summary", None, "required field 'summary' is missing or null"),
        ("summary", ["s"], "summary must be a UTF-8 string"),
        ("summary", "\ud800", "summary must be a UTF-8 string"),
        ("description", 1.5, "description must be a UTF-8 string"),
        ("reported_at", 20240101, "reported_at must be an RFC 3339 time"),
        ("resolved_at", "soon", "resolved_at must be an RFC 3339 time"),
        ("fixed_files", "a.java", "fixed_files must be a list of UTF-8 strings"),
        ("functional", "no", "functional must be true or false"),
        ("functional", 0, "functional must be true or false"),
    ], ids=repr)
    def test_field_of_the_wrong_kind_rejected(self, tmp_path, field, value, message):
        # Nothing is coerced: str(7) and bool("no") once passed silently.
        obj = {"id": "B-1", "summary": "s", "reported_at": "2024-01-01T00:00:00Z", field: value}
        with pytest.raises(ReportFormatError, match=f"reports.jsonl:1: {message}"):
            self._load(tmp_path, [json.dumps(obj)])

    def test_null_optional_fields_count_as_absent(self, tmp_path):
        reports = self._load(tmp_path, [json.dumps({
            "id": "B-1", "summary": "s", "reported_at": "2024-01-01T00:00:00Z",
            "description": None, "resolved_at": None, "fixed_files": None,
            "functional": None})])
        assert reports[0] == BugReport("B-1", "s", "", parse_rfc3339("2024-01-01T00:00:00Z"))

    @given(lines=json_lines(json_records({
        "id": st.sampled_from(["B-1", "B-2", "B-3", "A 1", ""]),
        "summary": any_text,
        "description": any_text,
        "reported_at": st.datetimes().map(datetime.isoformat) | st.just("2024-01-01T00:00:00Z"),
        "resolved_at": st.datetimes().map(datetime.isoformat) | st.just("yesterday"),
        "fixed_files": st.lists(st.sampled_from(["a.java", "src\\b.java", ""]), max_size=3),
        "functional": st.booleans(),
    }, required=("id", "summary", "reported_at"))))
    @settings(max_examples=300)
    def test_fuzzed_file_round_trips_or_fails_cleanly(self, lines, tmp_path_factory):
        path = tmp_path_factory.mktemp("reports") / "reports.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            reports = load_bug_reports(path)
        except CrolocError:
            return
        path.write_text("".join(json.dumps(report_to_obj(r)) + "\n" for r in reports),
                        encoding="utf-8")
        assert load_bug_reports(path) == reports

    def test_round_trip_through_obj(self, tmp_path):
        obj = {"id": "B-1", "summary": "概要", "description": "詳細",
               "reported_at": "2024-01-01T00:00:00+00:00",
               "resolved_at": "2024-01-02T00:00:00+00:00",
               "fixed_files": ["a.java"], "functional": True}
        reports = self._load(tmp_path, [json.dumps(obj, ensure_ascii=False)])
        assert report_to_obj(reports[0]) == obj


def _report(rid, functional=True, resolved=True, fixed=("src/A.java",)):
    return BugReport(
        id=rid, summary="s", description="d",
        reported_at=datetime(2024, 1, 1, tzinfo=timezone.utc),
        resolved_at=datetime(2024, 1, 2, tzinfo=timezone.utc) if resolved else None,
        fixed_files=tuple(fixed) if fixed else None,
        functional=functional,
    )


class TestFilterUsableReports:
    CORPUS = {"src/A.java", "src/B.java"}

    def test_usable_report_passes(self):
        usable, excluded = filter_usable_reports([_report("R1")], self.CORPUS)
        assert [r.id for r in usable] == ["R1"]
        assert excluded == []

    def test_non_functional_excluded_first(self):
        # criterion order: a non-functional report is reported as such even
        # when its fix is also incomplete
        usable, excluded = filter_usable_reports(
            [_report("R1", functional=False, resolved=False, fixed=None)],
            self.CORPUS)
        assert usable == []
        assert excluded[0].reason == REASON_NOT_FUNCTIONAL

    def test_unresolved_is_not_completed(self):
        _, excluded = filter_usable_reports(
            [_report("R1", resolved=False)], self.CORPUS)
        assert excluded[0].reason == REASON_FIX_NOT_COMPLETED

    def test_no_fixed_files_is_not_completed(self):
        _, excluded = filter_usable_reports(
            [_report("R1", fixed=None)], self.CORPUS)
        assert excluded[0].reason == REASON_FIX_NOT_COMPLETED

    def test_fix_outside_corpus_excluded(self):
        _, excluded = filter_usable_reports(
            [_report("R1", fixed=("src/Gone.java",))], self.CORPUS)
        assert excluded[0].reason == REASON_NO_SOURCE_FILE

    def test_one_matching_file_is_enough(self):
        usable, _ = filter_usable_reports(
            [_report("R1", fixed=("docs/readme.md", "src/B.java"))],
            self.CORPUS)
        assert len(usable) == 1

    def test_windows_style_fixed_paths_normalize(self):
        usable, _ = filter_usable_reports(
            [_report("R1", fixed=("src\\A.java",))], self.CORPUS)
        assert len(usable) == 1
