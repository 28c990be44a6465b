"""Translation backend, glossary, cache, and batching tests."""
from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from croloc.corpus import BugReport, Language, SourceDocument, load_bug_reports, load_source_tree
from croloc.errors import CrolocError, ProtocolError, TranslationError
from croloc.translate import (
    BATCH_SIZE,
    GlossaryBackend,
    IdentityBackend,
    ServiceBackend,
    TranslationCache,
    load_glossary,
    translate_document,
    translate_documents,
    translate_report,
    translate_reports,
    translate_texts,
)
from croloc.corpus import parse_rfc3339
import croloc.translate as translate_module
from reference import (RefTranslationCache, ref_glossary_translate, ref_load_cache,
                       ref_translate_document, ref_translate_report)
from strategies import any_text, json_lines, mostly


class RecordingBackend:
    """Test double that prefixes outputs and records every batch."""

    name = "recording"

    def __init__(self, outputs=None):
        self.batches: list[list[str]] = []
        self._outputs = outputs

    def translate_batch(self, texts):
        self.batches.append(list(texts))
        if self._outputs is not None:
            return self._outputs(texts)
        return [f"EN({t})" for t in texts]


class TestLoadGlossary:
    def _write(self, tmp_path, content):
        p = tmp_path / "gloss.tsv"
        p.write_text(content, encoding="utf-8")
        return str(p)

    def test_basic_load(self, tmp_path):
        path = self._write(tmp_path, "# comment\n在庫\tinventory\n同期\tsync\n\n")
        assert load_glossary(path) == {"在庫": "inventory", "同期": "sync"}

    def test_crlf_line_endings(self, tmp_path):
        path = self._write(tmp_path, "在庫\tinventory\r\n同期\tsync\r\n")
        assert load_glossary(path) == {"在庫": "inventory", "同期": "sync"}

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        path = self._write(tmp_path, "\ufeff在庫\tinventory\n同期\tsync\n")
        assert load_glossary(path) == {"在庫": "inventory", "同期": "sync"}
        assert GlossaryBackend(load_glossary(path)).translate_batch(["在庫"]) == ["inventory"]

    def test_one_field_rejected(self, tmp_path):
        path = self._write(tmp_path, "在庫inventory\n")
        with pytest.raises(TranslationError, match=":1:"):
            load_glossary(path)

    def test_three_fields_rejected(self, tmp_path):
        path = self._write(tmp_path, "在庫\tinventory\textra\n")
        with pytest.raises(TranslationError):
            load_glossary(path)

    def test_empty_target_rejected(self, tmp_path):
        path = self._write(tmp_path, "在庫\t\n")
        with pytest.raises(TranslationError):
            load_glossary(path)

    def test_error_names_line(self, tmp_path):
        path = self._write(tmp_path, "在庫\tinventory\nbroken\n")
        with pytest.raises(TranslationError, match=":2:"):
            load_glossary(path)

    def test_conflicting_duplicate_rejected(self, tmp_path):
        path = self._write(tmp_path, "在庫\tinventory\n在庫\tstock\n")
        with pytest.raises(TranslationError, match="conflicting"):
            load_glossary(path)

    def test_consistent_duplicate_allowed(self, tmp_path):
        path = self._write(tmp_path, "在庫\tinventory\n在庫\tinventory\n")
        assert load_glossary(path) == {"在庫": "inventory"}


FIXTURE_GLOSSARY = load_glossary(str(FIXTURES / "synthetic_project" / "glossary.tsv"))


def glossary_translate(text, glossary):
    return GlossaryBackend(glossary).translate_batch([text])[0]


class TestGlossaryTranslate:
    def test_longest_match_wins(self):
        glossary = {"在庫": "inventory ", "在庫同期": "inventory sync "}
        assert glossary_translate("在庫同期が失敗", glossary) == "inventory sync が失敗"

    def test_left_to_right_scan(self):
        glossary = {"ab": "X", "bc": "Y"}
        # the scan consumes "ab" first, so "bc" never matches
        assert glossary_translate("abc", glossary) == "Xc"

    def test_untranslated_text_passes_through(self):
        assert glossary_translate("no match here", {"在庫": "inventory"}) == "no match here"

    def test_empty_glossary(self):
        assert glossary_translate("在庫", {}) == "在庫"

    def test_adjacent_matches(self):
        glossary = {"在庫": "inventory ", "同期": "sync "}
        assert glossary_translate("在庫同期", glossary) == "inventory sync "

    def test_backend_batches(self):
        backend = GlossaryBackend({"在庫": "inventory "})
        assert backend.translate_batch(["在庫あり", "なし"]) == ["inventory あり", "なし"]

    def test_backend_rejects_empty_source(self):
        with pytest.raises(TranslationError):
            GlossaryBackend({"": "nothing"})

    def test_rejects_empty_source(self):
        with pytest.raises(TranslationError):
            glossary_translate("x", {"": "y"})

    @given(text=st.text("在庫同期ab.*(|\\", max_size=30),
           glossary=st.dictionaries(st.text("在庫同期ab.*(|\\", min_size=1, max_size=4),
                                    st.text(max_size=4), max_size=8))
    def test_matches_reference_scan(self, text, glossary):
        assert glossary_translate(text, glossary) == ref_glossary_translate(text, glossary)

    @given(pieces=st.lists(st.sampled_from(sorted(FIXTURE_GLOSSARY)) | st.characters(),
                           max_size=20))
    def test_fixture_glossary_matches_reference_scan(self, pieces):
        text = "".join(pieces)
        assert glossary_translate(text, FIXTURE_GLOSSARY) == ref_glossary_translate(
            text, FIXTURE_GLOSSARY)


@pytest.fixture
def cache_at():
    """Opens translation caches for a test and closes them after it."""
    opened = []

    def open_cache(path):
        opened.append(TranslationCache(str(path)))
        return opened[-1]

    yield open_cache
    for cache in opened:
        cache.close()


class TestTranslationCache:
    def test_put_then_get(self, cache_at, tmp_path):
        cache = cache_at(tmp_path / "c.jsonl")
        cache.put_many("glossary", [("在庫", "inventory")])
        assert cache.get("glossary", "在庫") == "inventory"
        assert cache.get("glossary", "同期") is None

    def test_keys_include_backend_name(self, cache_at, tmp_path):
        cache = cache_at(tmp_path / "c.jsonl")
        cache.put_many("glossary", [("在庫", "inventory")])
        assert cache.get("service", "在庫") is None

    def test_persists_across_instances(self, cache_at, tmp_path):
        path = str(tmp_path / "c.jsonl")
        cache_at(path).put_many("glossary", [("在庫", "inventory")])
        reloaded = TranslationCache(path)
        assert len(reloaded) == 1
        assert reloaded.get("glossary", "在庫") == "inventory"

    def test_no_duplicate_appends(self, cache_at, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = cache_at(path)
        cache.put_many("glossary", [("在庫", "inventory")])
        cache.put_many("glossary", [("在庫", "inventory"), ("同期", "sync")])
        lines = [l for l in path.read_text(encoding="utf-8").splitlines() if l]
        assert len(lines) == 2

    def test_corrupt_json_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("{bad\n", encoding="utf-8")
        with pytest.raises(TranslationError, match=":1:"):
            TranslationCache(str(path))

    def test_undecodable_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"backend": "\xff"}\n')
        with pytest.raises(TranslationError, match=":1: corrupt cache line"):
            TranslationCache(str(path))

    def test_torn_last_line_dropped(self, cache_at, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        cache_at(path).put_many("glossary", [("在庫", "inventory")])
        whole = path.read_bytes()
        torn = json.dumps({"backend": "glossary", "source": "同期"},
                          ensure_ascii=False).encode("utf-8")[:-5]
        path.write_bytes(whole + torn)  # a write cut short by a killed run
        with caplog.at_level("WARNING", logger="croloc.translate"):
            cache = cache_at(path)
        assert "unterminated" in caplog.text
        assert len(cache) == 1
        assert path.read_bytes() == whole
        cache.put_many("glossary", [("同期", "sync")])
        reloaded = TranslationCache(str(path))
        assert reloaded.get("glossary", "在庫") == "inventory"
        assert reloaded.get("glossary", "同期") == "sync"

    def test_cache_another_process_owns_holds_rows_and_the_cut(self, cache_at, tmp_path,
                                                               caplog):
        # Loaded in a process that does not own the file, the cache writes
        # nothing: it holds its new rows, and leaves a torn last line for
        # the owner to cut off at ``cut``.
        path = tmp_path / "c.jsonl"
        cache_at(path).put_many("glossary", [("在庫", "inventory")])
        whole = path.read_bytes()
        path.write_bytes(whole + b'{"backend": "glo')
        with caplog.at_level("WARNING", logger="croloc.translate"):
            cache = TranslationCache(str(path), owner=os.getpid() + 1)
        assert "unterminated" in caplog.text
        assert cache.cut == len(whole) and len(cache) == 1
        cache.put_many("glossary", [("在庫", "inventory"), ("同期", "sync")])
        assert path.read_bytes() == whole + b'{"backend": "glo'
        held = cache.take_held()
        assert [(key, translation) for key, translation, _ in held] == [
            (("glossary", "同期"), "sync")]
        assert cache.take_held() == []
        # What the owner writes of them is what put_many would have.
        owner = cache_at(tmp_path / "owner.jsonl")
        owner.put_many("glossary", [("在庫", "inventory"), ("同期", "sync")])
        assert (tmp_path / "owner.jsonl").read_bytes() == whole + held[0][2].encode() + b"\n"

    def test_missing_field(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"backend": "x", "source": "s"}) + "\n",
                        encoding="utf-8")
        with pytest.raises(TranslationError, match="missing fields"):
            TranslationCache(str(path))

    def test_digest_mismatch_detected(self, cache_at, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = cache_at(path)
        cache.put_many("glossary", [("在庫", "inventory")])
        text = path.read_text(encoding="utf-8")
        obj = json.loads(text)
        obj["source"] = "tampered"
        path.write_text(json.dumps(obj, ensure_ascii=False) + "\n", encoding="utf-8")
        with pytest.raises(TranslationError, match="digest"):
            TranslationCache(str(path))

    def test_one_append_handle_flushed_per_put_many(self, tmp_path, monkeypatch):
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(translate_module, "open", recording_open, raising=False)
        path = tmp_path / "c.jsonl"
        with TranslationCache(str(path)) as cache:
            assert handles == []  # nothing to append yet, so nothing opened
            for n, text in enumerate(["在庫", "同期", "注文"], start=1):
                cache.put_many("glossary", [(text, "x")])
                # what put_many accepted is on disk before it returns
                assert len(path.read_text(encoding="utf-8").splitlines()) == n
        assert len(handles) == 1
        assert handles[0].closed

    def test_blank_lines_tolerated(self, cache_at, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = cache_at(path)
        cache.put_many("glossary", [("在庫", "inventory")])
        path.write_text(path.read_text(encoding="utf-8") + "\n\n", encoding="utf-8")
        assert len(TranslationCache(str(path))) == 1



def _entry(backend, source, translation="t", digest=None, ensure_ascii=False):
    digest = digest or hashlib.sha256(source.encode("utf-8")).hexdigest()
    return json.dumps({"backend": backend, "sha256": digest, "source": source,
                       "translation": translation}, ensure_ascii=ensure_ascii) + "\n"


# Lines and fragments that reach each branch of the cache loader, and each way
# json.loads decodes bytes: UTF-8, UTF-8 with a BOM, UTF-16 and UTF-32 when
# NUL bytes lead, and surrogates passed through.
_CACHE_PIECES = st.sampled_from([
    _entry("glossary", "在庫").encode("utf-8"),
    _entry("glossary", "在庫", "inventory").encode("utf-8"),
    _entry("identity", "同期する", ensure_ascii=True).encode("utf-8"),
    _entry("glossary", "x", digest="0" * 64).encode("utf-8"),
    _entry("g", "a").rstrip("\n").encode("utf-8") + b"\r\n",
    b"\xef\xbb\xbf" + _entry("glossary", "bom").encode("utf-8"),
    b"\xef\xbb\xbf\n",
    _entry("g", "be").encode("utf-16-be"),
    _entry("g", "le").encode("utf-16-le"),
    _entry("g", "32").encode("utf-32-be"),
    b"\x00\n", b"\x00\x00\x00\n", b"a\x00\n", b"a\x00b\n", b"\x00a\n", b"\x00ab\n",
    b'{"backend": "\xed\xa0\x80", "sha256": "", "source": "", "translation": ""}\n',
    b'{"backend": "g", "sha256": "", "source": "\xed\xa0\x80", "translation": ""}\n',
    b'{"backend": "g", "sha256": "", "source": "\\ud800", "translation": ""}\n',
    b'{"backend": "\xff"}\n', b"\xe5\x9c\n", b"\xe5\x9c",
    b"\n", b"  \n", b"\t\r\n", b"\x0b\x0c\n", b"\x1c\n", b"\xc2\x85\n", b"\xe3\x80\x80\n",
    b"{bad\n", b'{"a": \n', b"[]\n", b'"str"\n', b"1\n", b"NaN\n", b"{} {}\n",
    b'{"backend": "g"}  \n', b' {"backend": "g"}\n', b"[" * 3000 + b"\n", b'"a\tb"\n',
    b'{"backend": "g", "sha256": "s", "source": 1, "translation": "t"}\n',
    b'{"backend": "g", "source": "s"}\n', b"\r", b"\n\n",
    _entry("g", "x", translation=5).encode("utf-8"),
    _entry("g", "x").replace('"g"', "null").encode("utf-8"),
])


def _fuzz_entry(backend, source, translation, digest_ok, ensure_ascii):
    digest = hashlib.sha256(source.encode("utf-8", "surrogatepass")).hexdigest()
    return json.dumps({"backend": backend, "sha256": digest if digest_ok else "0" * 64,
                       "source": source, "translation": translation}, ensure_ascii=ensure_ascii)


class TestTranslationCacheFuzz:
    @given(records=json_lines(st.tuples(
        mostly(st.sampled_from(["glossary", "identity"])), any_text, mostly(any_text),
        st.integers(0, 9).map(bool), st.booleans())))
    @settings(max_examples=300)
    def test_fuzzed_file_round_trips_or_fails_cleanly(self, records, tmp_path_factory):
        # An ensure_ascii=False line keeps lone surrogates, which encode to
        # bytes that are not UTF-8.
        lines = [r if isinstance(r, str) else _fuzz_entry(*r) for r in records]
        path = tmp_path_factory.mktemp("cache") / "c.jsonl"
        path.write_bytes(b"".join(line.encode("utf-8", "surrogatepass") + b"\n"
                                  for line in lines))
        try:
            with TranslationCache(str(path)) as cache:
                entries = dict(cache._entries)
        except CrolocError:
            return
        fresh = path.with_name("fresh.jsonl")
        with TranslationCache(str(fresh)) as cache:
            for (backend, source), translation in entries.items():
                cache.put_many(backend, [(source, translation)])
        with TranslationCache(str(fresh)) as cache:
            assert cache._entries == entries


class TestTranslationCacheOracle:
    """The loader that decodes the file once against the one that passed
    each line's bytes to json.loads."""

    @given(pieces=st.lists(_CACHE_PIECES, max_size=8))
    @settings(max_examples=500)
    def test_same_entries_errors_and_truncation(self, pieces, tmp_path_factory):
        content = b"".join(pieces)
        path = tmp_path_factory.mktemp("cache") / "c.jsonl"
        outcomes = []
        for load in (ref_load_cache, self._load):
            path.write_bytes(content)
            try:
                result = load(str(path))
            except Exception as exc:  # whatever the old loader raised
                result = (type(exc), str(exc))
            outcomes.append((result, path.read_bytes()))
        assert outcomes[1] == outcomes[0]

    @staticmethod
    def _load(path):
        logger = logging.getLogger("croloc.translate")
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        logger.addHandler(handler)
        try:
            with TranslationCache(path) as cache:
                entries = dict(cache._entries)
        finally:
            logger.removeHandler(handler)
        torn = [int(r.args[1]) for r in records if "unterminated" in r.getMessage()]
        return entries, torn[0] if torn else 0

class TestTranslateTexts:
    def test_preserves_order(self):
        backend = RecordingBackend()
        out = translate_texts(["a", "b", "c"], backend)
        assert out == ["EN(a)", "EN(b)", "EN(c)"]

    def test_deduplicates_identical_inputs(self):
        backend = RecordingBackend()
        out = translate_texts(["same", "same", "other", "same"], backend)
        assert out == ["EN(same)", "EN(same)", "EN(other)", "EN(same)"]
        assert backend.batches == [["same", "other"]]

    def test_chunks_at_batch_size(self, monkeypatch):
        monkeypatch.setattr("croloc.translate.BATCH_SIZE", 2)
        backend = RecordingBackend()
        texts = [f"t{i}" for i in range(5)]
        translate_texts(texts, backend)
        assert [len(b) for b in backend.batches] == [2, 2, 1]

    def test_default_batch_size(self):
        backend = RecordingBackend()
        texts = [f"t{i}" for i in range(BATCH_SIZE + 1)]
        translate_texts(texts, backend)
        assert [len(b) for b in backend.batches] == [BATCH_SIZE, 1]

    def test_cache_hits_skip_backend(self, cache_at, tmp_path):
        cache = cache_at(tmp_path / "c.jsonl")
        backend = RecordingBackend()
        translate_texts(["a", "b"], backend, cache)
        assert len(backend.batches) == 1
        backend2 = RecordingBackend()
        backend2.name = "recording"
        out = translate_texts(["a", "b", "new"], backend2, cache)
        assert out == ["EN(a)", "EN(b)", "EN(new)"]
        assert backend2.batches == [["new"]]

    def test_wrong_output_count_is_protocol_error(self):
        backend = RecordingBackend(outputs=lambda texts: texts[:-1])
        with pytest.raises(ProtocolError, match="returned"):
            translate_texts(["a", "b"], backend)

    def test_empty_input(self):
        backend = RecordingBackend()
        assert translate_texts([], backend) == []
        assert backend.batches == []

    def test_results_written_back_to_cache(self, cache_at, tmp_path):
        cache = cache_at(tmp_path / "c.jsonl")
        translate_texts(["a"], RecordingBackend(), cache)
        assert cache.get("recording", "a") == "EN(a)"

    def test_each_distinct_text_looked_up_once(self, cache_at, tmp_path, monkeypatch):
        cache = cache_at(tmp_path / "c.jsonl")
        cache.put_many("recording", [("a", "cached a")])
        looked_up, get = [], TranslationCache.get

        def recorded_get(self, backend_name, source):
            looked_up.append(source)
            return get(self, backend_name, source)
        monkeypatch.setattr(TranslationCache, "get", recorded_get)
        backend = RecordingBackend()
        out = translate_texts(["a", "b", "a", "b", "c"], backend, cache)
        assert out == ["cached a", "EN(b)", "cached a", "EN(b)", "EN(c)"]
        assert looked_up == ["a", "b", "c"]
        assert backend.batches == [["b", "c"]]

    def test_each_batch_cached_as_it_returns(self, cache_at, tmp_path, monkeypatch):
        monkeypatch.setattr("croloc.translate.BATCH_SIZE", 2)
        path = tmp_path / "c.jsonl"
        cache = cache_at(path)

        def third_batch_fails(texts):
            # What the earlier batches put is on disk when the next is sent.
            assert _written(path).count(b"\n") == 2 * len(backend.batches[:-1])
            if len(backend.batches) == 3:
                raise TranslationError("batch 3 refused")
            return [f"EN({t})" for t in texts]
        backend = RecordingBackend(outputs=third_batch_fails)
        with pytest.raises(TranslationError, match="batch 3 refused"):
            translate_texts(["a", "b", "a", "c", "d", "e", "f"], backend, cache)
        assert backend.batches == [["a", "b"], ["c", "d"], ["e", "f"]]
        assert [json.loads(line)["source"]
                for line in path.read_text(encoding="utf-8").splitlines()] == ["a", "b", "c", "d"]
        assert [cache.get("recording", t) for t in "abcde"] == [
            "EN(a)", "EN(b)", "EN(c)", "EN(d)", None]


def _written(path):
    """The bytes of the file at ``path``; none if nothing made it."""
    return path.read_bytes() if path.exists() else b""


# Text that leans on what a JSON string must escape and what it may leave as
# it is: quotes, backslashes, C0 controls, DEL, the line and paragraph
# separators, a BOM and characters outside the BMP. No lone surrogate, which
# a UTF-8 file cannot hold.
_JSON_TEXT = st.text(st.one_of(
    st.sampled_from('"\\\x7f\u2028\u2029\ufeff/'),
    st.characters(max_codepoint=0x1F),
    st.characters(min_codepoint=0x10000, exclude_categories=("Cs",)),
    st.characters(exclude_categories=("Cs",)),
), max_size=10)


class TestCacheLines:
    @given(backend=_JSON_TEXT, pairs=st.lists(st.tuples(_JSON_TEXT, _JSON_TEXT), max_size=4))
    @settings(max_examples=300)
    def test_put_many_writes_json_dumps_lines(self, backend, pairs, tmp_path_factory):
        path = tmp_path_factory.mktemp("lines") / "c.jsonl"
        with TranslationCache(str(path)) as cache:
            cache.put_many(backend, pairs)
        kept = {}  # a source put twice keeps its first translation
        for source, translation in pairs:
            kept.setdefault(source, translation)
        expected = "".join(
            json.dumps({"backend": backend,
                        "sha256": hashlib.sha256(source.encode("utf-8")).hexdigest(),
                        "source": source, "translation": translation},
                       ensure_ascii=False) + "\n"
            for source, translation in kept.items())
        assert _written(path) == expected.encode("utf-8")
        with TranslationCache(str(path)) as reloaded:
            assert len(reloaded) == len(kept)
            assert all(reloaded.get(backend, s) == t for s, t in kept.items())


# Texts that recur across sessions, and texts a JSON line must escape.
_SESSION_TEXT = st.one_of(st.sampled_from(["在庫", "同期する", "a"]), _JSON_TEXT)


class TestCacheSession:
    """The cache keyed by source text against the digest-keyed one it
    replaced (tests/reference.py): sessions that each load the file, look
    texts up and append the misses get the same translations, send the
    backend the same batches and leave the same bytes."""

    @given(sessions=st.lists(st.tuples(st.sampled_from(["glossary", "recording"]),
                                       st.lists(_SESSION_TEXT, max_size=8)),
                             min_size=1, max_size=4))
    @settings(max_examples=200)
    def test_same_hits_misses_and_bytes(self, sessions, tmp_path_factory):
        outcomes = []
        for make in (TranslationCache, RefTranslationCache):
            path = tmp_path_factory.mktemp("cache") / "c.jsonl"
            outcome = []
            for name, texts in sessions:
                backend = RecordingBackend()
                backend.name = name
                cache = make(str(path))
                out = translate_texts(texts, backend, cache)
                if isinstance(cache, TranslationCache):
                    cache.close()
                outcome.append((out, backend.batches, _written(path)))
            outcomes.append(outcome)
        assert outcomes[0] == outcomes[1]


def _free_refused_port():
    """A port that was just bound and released: connections get refused."""
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


class TestServiceBackend:
    def test_round_trip(self, service):
        url, seen = service(["echo"])
        backend = ServiceBackend(url, token="sekrit", sleep=lambda s: None)
        assert backend.translate_batch(["在庫", "同期"]) == ["EN(在庫)", "EN(同期)"]
        assert seen[0]["auth"] == "Bearer sekrit"
        assert seen[0]["body"] == {"texts": ["在庫", "同期"], "source": "ja", "target": "en"}

    def test_token_from_environment(self, service, monkeypatch):
        monkeypatch.setenv("CROLOC_SERVICE_TOKEN", "env-token")
        url, seen = service(["echo"])
        backend = ServiceBackend(url, sleep=lambda s: None)
        backend.translate_batch(["x"])
        assert seen[0]["auth"] == "Bearer env-token"

    def test_no_token_no_header(self, service, monkeypatch):
        monkeypatch.delenv("CROLOC_SERVICE_TOKEN", raising=False)
        url, seen = service(["echo"])
        ServiceBackend(url, sleep=lambda s: None).translate_batch(["x"])
        assert seen[0]["auth"] is None

    def test_retries_transient_failure(self, service):
        url, seen = service([500, "echo"])
        sleeps = []
        backend = ServiceBackend(url, sleep=sleeps.append)
        assert backend.translate_batch(["x"]) == ["EN(x)"]
        assert len(seen) == 2
        assert sleeps == [0.5]

    def test_retries_429(self, service):
        url, seen = service([429, 429, "echo"])
        sleeps = []
        backend = ServiceBackend(url, sleep=sleeps.append)
        assert backend.translate_batch(["x"]) == ["EN(x)"]
        assert len(seen) == 3
        assert sleeps == [0.5, 1.0]

    def test_exhausted_attempts(self, service):
        url, seen = service([500])
        backend = ServiceBackend(url, sleep=lambda s: None)
        with pytest.raises(TranslationError, match="after 3 attempts"):
            backend.translate_batch(["x"])
        assert len(seen) == 3

    def test_client_error_fails_immediately(self, service):
        url, seen = service([400])
        backend = ServiceBackend(url, sleep=lambda s: None)
        with pytest.raises(TranslationError, match="HTTP 400"):
            backend.translate_batch(["x"])
        assert len(seen) == 1

    def test_length_mismatch_not_retried(self, service):
        url, seen = service([("mismatch",)])
        backend = ServiceBackend(url, sleep=lambda s: None)
        with pytest.raises(ProtocolError, match="mismatch"):
            backend.translate_batch(["a", "b"])
        assert len(seen) == 1

    def test_invalid_json_not_retried(self, service):
        url, seen = service([("garbage",)])
        backend = ServiceBackend(url, sleep=lambda s: None)
        with pytest.raises(ProtocolError, match="JSON"):
            backend.translate_batch(["a"])
        assert len(seen) == 1

    def test_connection_error_retried_then_fails(self):
        url = f"http://127.0.0.1:{_free_refused_port()}/translate"
        sleeps = []
        backend = ServiceBackend(url, sleep=sleeps.append)
        with pytest.raises(TranslationError, match="after 3 attempts"):
            backend.translate_batch(["x"])
        assert sleeps == [0.5, 1.0]

    def test_empty_batch_skips_network(self):
        backend = ServiceBackend("http://127.0.0.1:9/translate", sleep=lambda s: None)
        assert backend.translate_batch([]) == []

    def test_protocol_error_is_translation_error(self):
        assert issubclass(ProtocolError, TranslationError)


class TestServiceBackendRequests:
    @pytest.mark.parametrize("url", [
        "", "translate", "ftp://127.0.0.1/t", "file:///etc/hosts", "http://[::1",
        "http://例え.jp/t",
    ])
    def test_unusable_url(self, url):
        with pytest.raises(TranslationError, match="unusable translation service URL"):
            ServiceBackend(url, sleep=lambda s: None)

    def test_only_200_counts_as_success(self, service):
        url, seen = service([201])
        with pytest.raises(TranslationError, match="HTTP 201"):
            ServiceBackend(url, sleep=lambda s: None).translate_batch(["x"])
        assert len(seen) == 1


def _doc(text, path="src/X.java"):
    return SourceDocument(path=path, language=Language.JAVA, raw_bytes=text.encode("utf-8"))


class TestTranslateDocument:
    def test_identity_round_trip(self):
        doc = _doc('// 在庫を更新\nString s = "同期エラー";\n')
        out, count = translate_document(doc, IdentityBackend())
        assert out.raw_text == doc.raw_text
        assert count == 2
        assert out.path == doc.path

    def test_glossary_changes_only_segments(self):
        doc = _doc('int n = 1; // 在庫\nString s = "keep";\n')
        backend = GlossaryBackend({"在庫": "inventory"})
        out, count = translate_document(doc, backend)
        assert count == 1
        assert out.raw_text == 'int n = 1; // inventory\nString s = "keep";\n'

    def test_japanese_outside_spans_untouched(self):
        # Japanese in code positions (identifiers) is not extracted
        doc = _doc('int 在庫 = 1; // stock count\n')
        out, count = translate_document(doc, GlossaryBackend({"在庫": "inventory"}))
        assert count == 0
        assert out is doc

    def test_no_japanese_returns_same_object(self):
        doc = _doc('// plain comment\nString s = "text";\n')
        out, count = translate_document(doc, IdentityBackend())
        assert out is doc
        assert count == 0

    def test_uses_cache(self, cache_at, tmp_path):
        cache = cache_at(tmp_path / "c.jsonl")
        doc = _doc('// 在庫\n// 在庫\n')
        backend = RecordingBackend()
        out, count = translate_document(doc, backend, cache)
        assert count == 2
        assert backend.batches == [["在庫"]]  # deduplicated
        assert out.raw_text == '// EN(在庫)\n// EN(在庫)\n'


class TestTranslateReport:
    def _report(self, summary, description):
        return BugReport(
            id="R1",
            summary=summary,
            description=description,
            reported_at=parse_rfc3339("2024-03-01T10:00:00Z"),
        )

    def test_japanese_fields_translated(self):
        report = self._report("在庫が同期しない", "バッチ処理が失敗する")
        backend = GlossaryBackend({
            "在庫": "inventory ", "同期": "sync ", "バッチ": "batch ",
        })
        out = translate_report(report, backend)
        assert "inventory" in out.summary
        assert "batch" in out.description
        assert out.id == report.id
        assert out.reported_at == report.reported_at

    def test_english_report_returned_unchanged(self):
        report = self._report("order total wrong", "the sum is off by one")
        out = translate_report(report, IdentityBackend())
        assert out is report

    def test_mixed_fields(self):
        report = self._report("在庫エラー", "plain english body")
        backend = RecordingBackend()
        out = translate_report(report, backend)
        assert out.summary == "EN(在庫エラー)"
        assert out.description == "plain english body"
        assert backend.batches == [["在庫エラー"]]


# Documents and reports from the fixtures, and a few of our own: Japanese in
# comments and strings, repeated across documents, and none at all.
_DOCS = [*load_source_tree(FIXTURES / "synthetic_project", ["**/*.java", "**/*.cs"]).documents,
         *load_source_tree(FIXTURES / "lexer_corpus", ["**/*"]).documents,
         _doc("// 在庫\nclass A { String s = \"同期する\"; } // 在庫\n"),
         _doc("class B {}\n", "src/B.java")]
_SEGMENTS = sorted({seg.text for doc in _DOCS for span in translate_module.extract_spans(doc)
                    for seg in translate_module.japanese_segments(span.text)})
_REPORTS = [*load_bug_reports(FIXTURES / "synthetic_project" / "reports.jsonl"),
            BugReport("J1", "在庫エラー", "在庫エラー", parse_rfc3339("2024-03-01T10:00:00Z")),
            BugReport("J2", "plain", "同期しない", parse_rfc3339("2024-03-01T10:00:00Z")),
            BugReport("J3", "plain", None, parse_rfc3339("2024-03-01T10:00:00Z"))]


def _check_batches(batches, misses):
    """The backend got each of ``misses`` once, in full batches of
    ``BATCH_SIZE`` but for the last."""
    sent = [t for batch in batches for t in batch]
    assert sorted(sent) == sorted(set(misses))
    assert len(batches) == math.ceil(len(sent) / BATCH_SIZE)
    assert all(len(batch) == BATCH_SIZE for batch in batches[:-1])


# Words that make Japanese segments, split them or sit around them.
_SPAN_WORDS = st.sampled_from(["在庫", "同期する", "修正 する", "、", "ｶﾅ", "TODO", "x", " ",
                               "\u3000", "é", "😀", "\\", "{", "}"])
# Code around the spans, and each kind of span with %s for its words: a
# comment, a string, and in C# verbatim and interpolated strings, whose holes
# hold code and strings of their own; now and then one left unterminated.
_JAVA_FORMS = ["int a = 1; ", "'c' ", "\n", "\r\n", "// %s\n", "/* %s */", '"%s" ', '"%s']
_CSHARP_FORMS = [*_JAVA_FORMS, '@"%s "" %s" ', '$"%s {{ {a + "%s"} %s" ', '$@"%s {b} ""%s""" ',
                 '@$"%s {{c}} %s" ', '$"%s']


@st.composite
def _source_files(draw):
    """A Java or C# file with Japanese in its comments and strings."""
    csharp = draw(st.booleans())
    forms = draw(st.lists(st.sampled_from(_CSHARP_FORMS if csharp else _JAVA_FORMS),
                          max_size=10))
    phrases = st.lists(_SPAN_WORDS, max_size=4).map("".join)
    text = "".join(form % tuple(draw(phrases) for _ in range(form.count("%s")))
                   for form in forms)
    if csharp:
        return SourceDocument("src/X.cs", Language.CSHARP, text.encode("utf-8"))
    return SourceDocument("src/X.java", Language.JAVA, text.encode("utf-8"))


class TestBatchedTranslation:
    """translate_documents and translate_reports against the per-item loops
    they replaced (tests/reference.py): the same items out, the same cache
    bytes, and each text the cache lacks sent once."""

    def _both(self, tmp_path_factory, warm, batched, per_item):
        outcomes = {}
        for name, translate in (("batched", batched), ("per_item", per_item)):
            path = tmp_path_factory.mktemp("cache") / "c.jsonl"
            backend = RecordingBackend()
            with TranslationCache(str(path)) as cache:
                cache.put_many(backend.name, [(t, f"warm {t}") for t in warm])
                out = translate(backend, cache)
            outcomes[name] = out, _written(path), backend.batches
        return outcomes

    @given(picks=st.lists(st.integers(0, len(_DOCS) - 1), max_size=12),
           warm=st.sets(st.sampled_from(_SEGMENTS), max_size=20))
    @settings(max_examples=40)
    def test_documents_match_the_per_document_loop(self, picks, warm, tmp_path_factory):
        docs = [_DOCS[i] for i in picks]
        outcomes = self._both(
            tmp_path_factory, sorted(warm),
            lambda backend, cache: translate_documents(iter(docs), backend, cache),
            lambda backend, cache: [ref_translate_document(d, backend, cache) for d in docs])
        (out, cached, batches), (ref_out, ref_cached, _) = outcomes.values()
        assert out == ref_out and cached == ref_cached
        assert all(new is doc for (new, n), doc in zip(out, docs) if n == 0)
        segments = [seg.text for doc in docs for span in translate_module.extract_spans(doc)
                    for seg in translate_module.japanese_segments(span.text)]
        _check_batches(batches, [t for t in segments if t not in warm])

    @given(docs=st.lists(_source_files(), max_size=6), shorter=st.booleans())
    @settings(max_examples=200)
    def test_generated_files_match_the_per_document_loop(self, docs, shorter,
                                                         tmp_path_factory):
        # Translations longer than their segments, or shorter, down to none
        # at all, move every byte after them: one splice per document must
        # put each where reembed's checked splice did.
        outputs = (lambda texts: [t[1:] for t in texts]) if shorter else None
        outcomes = []
        for translate in (lambda backend, cache: translate_documents(docs, backend, cache),
                          lambda backend, cache: [ref_translate_document(d, backend, cache)
                                                  for d in docs]):
            path = tmp_path_factory.mktemp("cache") / "c.jsonl"
            with TranslationCache(str(path)) as cache:
                outcomes.append((translate(RecordingBackend(outputs), cache), _written(path)))
        assert outcomes[0] == outcomes[1]

    @given(picks=st.lists(st.integers(0, len(_REPORTS) - 1), max_size=12),
           warm=st.sets(st.sampled_from(["在庫エラー", "同期しない"]), max_size=2))
    @settings(max_examples=40)
    def test_reports_match_the_per_report_loop(self, picks, warm, tmp_path_factory):
        reports = [_REPORTS[i] for i in picks]
        outcomes = self._both(
            tmp_path_factory, sorted(warm),
            lambda backend, cache: translate_reports(iter(reports), backend, cache),
            lambda backend, cache: [ref_translate_report(r, backend, cache) for r in reports])
        (out, cached, batches), (ref_out, ref_cached, _) = outcomes.values()
        assert out == ref_out and cached == ref_cached
        assert all(new is report for new, report in zip(out, reports)
                   if (new.summary, new.description) == (report.summary, report.description))
        fields = [t for r in reports for t in (r.summary, r.description)
                  if t and translate_module.detect_japanese(t)]
        _check_batches(batches, [t for t in fields if t not in warm])
