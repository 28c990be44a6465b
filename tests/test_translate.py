"""Translation backend, glossary, cache, and batching tests."""
from __future__ import annotations

import hashlib
import json
import logging
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croloc.corpus import BugReport, Language, SourceDocument
from croloc.errors import ProtocolError, TranslationError
from croloc.translate import (
    BATCH_SIZE,
    GlossaryBackend,
    IdentityBackend,
    ServiceBackend,
    TranslationCache,
    load_glossary,
    translate_document,
    translate_report,
    translate_texts,
)
from croloc.corpus import parse_rfc3339
import croloc.translate as translate_module
from reference import ref_load_cache


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
])


class TestTranslationCacheOracle:
    """The loader that decodes the file once against the one that passed
    each line's bytes to json.loads."""

    @given(pieces=st.lists(_CACHE_PIECES, max_size=8))
    @settings(max_examples=500, deadline=None)
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

    def test_chunks_at_batch_size(self):
        backend = RecordingBackend()
        texts = [f"t{i}" for i in range(5)]
        translate_texts(texts, backend, batch_size=2)
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


def _free_refused_port():
    """A port that was just bound and released: connections get refused."""
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


@pytest.fixture
def service():
    """Factory for a scripted local translation service.

    Each response spec is either "echo" (HTTP 200 with EN(...) translations),
    an int status code (error with a JSON body), ("mismatch",) for a 200 with
    the wrong number of translations, or ("garbage",) for a 200 non-JSON body.
    The last spec repeats once the script runs out.
    """
    servers = []

    def start(script):
        seen = []
        plan = list(script)

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                request = json.loads(self.rfile.read(length))
                seen.append({
                    "auth": self.headers.get("Authorization"),
                    "body": request,
                })
                spec = plan.pop(0) if len(plan) > 1 else plan[0]
                if spec == "echo":
                    payload = json.dumps(
                        {"translations": [f"EN({t})" for t in request["texts"]]}
                    ).encode("utf-8")
                    status = 200
                elif spec == ("mismatch",):
                    payload = json.dumps({"translations": ["only-one"]}).encode("utf-8")
                    status = 200
                elif spec == ("garbage",):
                    payload = b"<html>not json</html>"
                    status = 200
                else:
                    payload = json.dumps({"error": "scripted"}).encode("utf-8")
                    status = int(spec)
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        servers.append(httpd)
        url = f"http://127.0.0.1:{httpd.server_address[1]}/translate"
        return url, seen

    yield start
    for httpd in servers:
        httpd.shutdown()
        httpd.server_close()


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


def _doc(text, path="src/X.java"):
    return SourceDocument(path=path, language=Language.JAVA, raw_text=text, doc_id=0)


class TestTranslateDocument:
    def test_identity_round_trip(self):
        doc = _doc('// 在庫を更新\nString s = "同期エラー";\n')
        out, count = translate_document(doc, IdentityBackend())
        assert out.raw_text == doc.raw_text
        assert count == 2
        assert out.path == doc.path
        assert out.doc_id == doc.doc_id

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
