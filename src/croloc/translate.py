"""Pluggable Japanese-to-English translation with a persistent cache.

Backends share one batch contract; the pipeline only ever sends text that
actually contains Japanese. The service backend speaks a minimal JSON POST
protocol and retries transient failures with exponential backoff; responses
that violate the protocol are never retried.
"""
from __future__ import annotations

import hashlib
import json
import logging
import operator
import os
import re
import time
from abc import ABC, abstractmethod
from collections.abc import Iterable
from typing import TextIO

from .corpus import (BugReport, SourceDocument, check_record, is_text, parse_json,
                     read_lines)
from .errors import ProtocolError, TranslationError
from .extract import _splice, detect_japanese, extract_spans, japanese_segments
# No code here calls reembed; perfbench/tracer.py looks it up on this module.
from .extract import reembed  # noqa: F401

log = logging.getLogger(__name__)

BATCH_SIZE = 32
SERVICE_TOKEN_ENV = "CROLOC_SERVICE_TOKEN"
_TIMEOUT_S = 30.0
_ATTEMPTS = 3
_BACKOFF_S = 0.5  # doubled after each failed attempt: 0.5 s, then 1 s
_RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})


class TranslatorBackend(ABC):
    """Translates batches of Japanese texts to English."""

    name: str

    @abstractmethod
    def translate_batch(self, texts: list[str]) -> list[str]:
        """One output per input, in order."""


class IdentityBackend(TranslatorBackend):
    """Returns inputs unchanged; useful for plumbing tests and dry runs."""

    name = "identity"

    def translate_batch(self, texts: list[str]) -> list[str]:
        return list(texts)


def load_glossary(path: str) -> dict[str, str]:
    """Tab-separated source/translation pairs, one per line; # starts a
    comment."""
    glossary: dict[str, str] = {}
    for lineno, line in read_lines(path, TranslationError):
        line = line.rstrip("\r\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise TranslationError(
                f"{path}:{lineno}: expected exactly two tab-separated fields"
            )
        source, target = parts
        if source in glossary and glossary[source] != target:
            raise TranslationError(
                f"{path}:{lineno}: conflicting entries for {source!r}"
            )
        glossary[source] = target
    return glossary


class GlossaryBackend(TranslatorBackend):
    """Deterministic offline translation from a fixed phrase table: greedy
    longest-match replacement, scanning left to right."""

    name = "glossary"

    def __init__(self, glossary: dict[str, str]):
        self.glossary = dict(glossary)
        if "" in self.glossary:
            raise TranslationError("glossary contains an empty source phrase")
        # An alternation takes the first alternative that matches, so with
        # the longest phrases first it takes the longest. "(?!)" never matches.
        phrases = sorted(self.glossary, key=len, reverse=True)
        self._pattern = re.compile("|".join(map(re.escape, phrases)) or "(?!)")

    def translate_batch(self, texts: list[str]) -> list[str]:
        glossary = self.glossary
        return [self._pattern.sub(lambda m: glossary[m[0]], t) for t in texts]


class ServiceBackend(TranslatorBackend):
    """HTTP translation service client.

    POSTs {"texts": [...], "source": "ja", "target": "en"} and expects
    {"translations": [...]} of equal length. Transient failures (connection
    errors, 429, 5xx) get 3 attempts in all, 0.5 s and then 1 s apart;
    anything else fails immediately.
    """

    name = "service"

    def __init__(self, url: str, token: str | None = None, sleep=time.sleep):
        # Imported where used: other commands would pay its import time.
        import urllib.request

        try:
            if urllib.request.Request(url).type not in ("http", "https") or not url.isascii():
                raise ValueError("not an ASCII http or https URL")
        except ValueError as exc:
            raise TranslationError(f"unusable translation service URL {url!r}: {exc}") from exc
        self.url = url
        self.token = token if token is not None else os.environ.get(SERVICE_TOKEN_ENV)
        self._sleep = sleep

    def translate_batch(self, texts: list[str]) -> list[str]:
        import urllib.error
        import urllib.request
        from http.client import HTTPException

        if not texts:
            return []
        body = json.dumps({"texts": list(texts), "source": "ja", "target": "en"}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        request = urllib.request.Request(self.url, data=body, headers=headers, method="POST")
        last_error: Exception | None = None
        for attempt in range(1, _ATTEMPTS + 1):
            status = None
            try:
                with urllib.request.urlopen(request, timeout=_TIMEOUT_S) as response:
                    status, payload = response.status, response.read()
            except urllib.error.HTTPError as exc:  # a status outside 2xx
                status = exc.code
                exc.close()
            except (OSError, HTTPException) as exc:  # connection errors and timeouts
                last_error = exc
            if status == 200:
                where = "translation service response"
                translations = check_record(parse_json(payload, ProtocolError, where),
                                            {"translations": list}, ("translations",),
                                            ProtocolError, where)["translations"]
                if len(translations) != len(texts):
                    raise ProtocolError(f"translation count mismatch: sent {len(texts)}, "
                                        f"got {len(translations)}")
                return translations
            if status is not None:
                last_error = TranslationError(f"translation service returned HTTP {status}")
                if status not in _RETRYABLE_STATUS:
                    raise last_error
            if attempt < _ATTEMPTS:
                delay = _BACKOFF_S * 2 ** (attempt - 1)
                log.warning("translation attempt %d/%d failed (%s); retrying in %.1fs",
                            attempt, _ATTEMPTS, last_error, delay)
                self._sleep(delay)
        raise TranslationError(f"translation service failed after {_ATTEMPTS} attempts: "
                               f"{last_error}")


def _cache_lines(content: bytes) -> list[str] | list[bytes]:
    """The lines of ``content``, which ends in a newline if not empty, less
    their newlines: str, decoded at once, if ``content`` is UTF-8 with no BOM
    or NUL, which can make json.loads read a line as UTF-16 or UTF-32, and no
    ``\\u`` escape, which alone gives a str from UTF-8 a lone surrogate;
    otherwise bytes, for json.loads to decode or reject one at a time."""
    if not any(mark in content for mark in (b"\\u", b"\x00", "\ufeff".encode())):
        try:
            return content.decode("utf-8").split("\n")[:-1]
        except UnicodeDecodeError:
            pass
    return content.split(b"\n")[:-1]


# The scanner behind json.loads, which reads one value at a position; called
# directly, it skips json.loads' per-call overhead, most of a line's cost.
_scan_json = json.JSONDecoder().scan_once


def _json_line(line: str | bytes):
    """json.loads of one line and the newline it lacks; a str line that is
    one JSON value goes straight to the scanner."""
    if isinstance(line, bytes):
        return json.loads(line + b"\n")
    try:
        obj, end = _scan_json(line, 0)
    except (StopIteration, ValueError, RecursionError):
        pass
    else:
        if end == len(line):
            return obj
    return json.loads(line + "\n")


_CACHE_FIELDS = operator.itemgetter("backend", "sha256", "source", "translation")
# A JSON string literal of a str, as json.dumps(..., ensure_ascii=False)
# writes it: the C encoder where json has one.
_json_str = json.encoder.encode_basestring


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# A cache row: its key, (backend name, source text), its translation and its
# line in the cache file.
CacheRow = tuple[tuple[str, str], str, str]


class TranslationCache:
    """Append-only JSONL store keyed by backend name and source text. Each
    line carries its source's digest, which is checked on load and computed
    once per new row, to write its line.

    The append handle opens on the first new entry and stays open until
    ``close()``, or the end of a ``with`` block; each ``put_many`` flushes it.
    The file's directory is made when the cache is constructed, so that a
    missing one cannot fail the first append, after a backend batch is paid for.
    Only the process that owns the cache writes to the file: the one that
    opened it, unless ``owner`` names another. In any other process, such as
    one forked from the owner, new rows are held in memory instead, for
    ``take_held`` to hand back and the owner to ``adopt`` or append in the
    order it chooses, and an unterminated last line is left in the file for
    the owner to cut off at ``cut``.
    """

    def __init__(self, path: str, owner: int | None = None):
        self.path = path
        self._entries: dict[tuple[str, str], str] = {}
        self._fh: TextIO | None = None
        self._owner = os.getpid() if owner is None else owner
        self._held: list[CacheRow] = []
        self.cut: int | None = None
        if parent := os.path.dirname(path):
            os.makedirs(parent, exist_ok=True)
        if os.path.exists(path):
            self._load()

    def __enter__(self) -> TranslationCache:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close the append handle and free the entries: a closed cache is
        done with, and only its file remains."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._entries = {}

    def _load(self) -> None:
        with open(self.path, "rb") as fh:
            content = fh.read()
        whole = content.rfind(b"\n") + 1  # bytes up to the end of the last terminated line
        for lineno, line in enumerate(_cache_lines(content[:whole]), start=1):
            try:
                obj = _json_line(line)
            except (ValueError, RecursionError) as exc:
                if not (line if isinstance(line, bytes) else line.encode("utf-8")).strip():
                    continue  # a blank line, which json.loads rejects too
                raise TranslationError(f"{self.path}:{lineno}: corrupt cache line: {exc}") from exc
            try:
                fields = backend, digest, source, translation = _CACHE_FIELDS(obj)
            except (KeyError, TypeError) as exc:
                raise TranslationError(f"{self.path}:{lineno}: cache entry missing fields") from exc
            # A str line holds no lone surrogate (see _cache_lines).
            if not (type(backend) is type(digest) is type(source) is type(translation) is str
                    and (isinstance(line, str) or all(map(is_text, fields)))):
                raise TranslationError(f"{self.path}:{lineno}: cache entry fields must be "
                                       "strings that encode as UTF-8")
            if _sha256(source) != digest:
                raise TranslationError(
                    f"{self.path}:{lineno}: cache digest does not match source text")
            self._entries[(backend, source)] = translation
        if whole < len(content):
            # A run killed mid-append leaves its last line unterminated. Cut
            # it off, so that the next append starts on a line of its own.
            log.warning("%s:%d: dropping an unterminated last line left by an "
                        "interrupted write", self.path, content.count(b"\n") + 1)
            if os.getpid() == self._owner:
                os.truncate(self.path, whole)
            else:
                self.cut = whole

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, backend_name: str, source: str) -> str | None:
        return self._entries.get((backend_name, source))

    def put_many(self, backend_name: str, pairs: list[tuple[str, str]]) -> None:
        # Each line is what json.dumps(row, ensure_ascii=False) writes.
        name = _json_str(backend_name)
        rows = []
        for source, translation in pairs:
            line = (f'{{"backend": {name}, "sha256": "{_sha256(source)}", '
                    f'"source": {_json_str(source)}, "translation": {_json_str(translation)}}}')
            rows.append(((backend_name, source), translation, line))
        self.adopt(rows)

    def adopt(self, rows: list[CacheRow]) -> None:
        """Add ``rows``, as ``put_many`` makes them or ``take_held`` returns
        them, in order, except those whose key the cache has; in the opening
        process, append them to the file in one write and flush."""
        new = []
        for row in rows:
            key, translation, _ = row
            if key not in self._entries:
                self._entries[key] = translation
                new.append(row)
        if os.getpid() != self._owner:
            self._held += new
        elif new:
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.writelines(line + "\n" for _, _, line in new)
            # A killed process keeps what the OS accepted, so every put_many
            # and adopt hands its lines over before returning.
            self._fh.flush()

    def take_held(self) -> list[CacheRow]:
        """The rows held since the last call, in the order they were added
        (empty in the process that opened the cache)."""
        held, self._held = self._held, []
        return held


def translate_texts(
    texts: list[str],
    backend: TranslatorBackend,
    cache: TranslationCache | None = None,
) -> list[str]:
    """Translate texts in order. Each distinct text is looked up in the
    cache once; the misses go to the backend ``BATCH_SIZE`` at a time, and
    each batch's rows go into the cache as soon as it returns, so a batch
    that fails leaves the cache with the rows of every batch before it."""
    translated: dict[str, str] = {}
    misses = []
    for text in dict.fromkeys(texts):
        hit = None if cache is None else cache.get(backend.name, text)
        if hit is None:
            misses.append(text)
        else:
            translated[text] = hit
    for start in range(0, len(misses), BATCH_SIZE):
        chunk = misses[start : start + BATCH_SIZE]
        outputs = backend.translate_batch(chunk)
        if len(outputs) != len(chunk):
            raise ProtocolError(
                f"backend {backend.name} returned {len(outputs)} results for "
                f"{len(chunk)} inputs"
            )
        pairs = list(zip(chunk, outputs))
        if cache is not None:
            cache.put_many(backend.name, pairs)
        translated.update(pairs)
    return [translated[text] for text in texts]


def translate_documents(
    docs: Iterable[SourceDocument],
    backend: TranslatorBackend,
    cache: TranslationCache | None = None,
) -> list[tuple[SourceDocument, int]]:
    """Replace every Japanese segment in the comments and string literals of
    each of ``docs``, with one ``translate_texts`` call for them all; bytes
    outside those segments are untouched. Returns each new document, in
    order, with the number of segments translated in it; a document with
    none comes back as it was."""
    docs = list(docs)
    # Each segment's byte range in its document, per document. The scanner
    # made them, so unlike reembed's they need no check, and they ascend.
    ranges: list[list[tuple[int, int]]] = []
    texts: list[str] = []
    for doc in docs:
        doc_ranges = []
        for span_start, _, _, span_text in extract_spans(doc):
            for start, end, text in japanese_segments(span_text):
                doc_ranges.append((span_start + start, span_start + end))
                texts.append(text)
        ranges.append(doc_ranges)
    outputs = iter(translate_texts(texts, backend, cache))
    translated = []
    for doc, doc_ranges in zip(docs, ranges):
        if doc_ranges:
            doc = _splice(doc, [(start, end, next(outputs)) for start, end in doc_ranges])
        translated.append((doc, len(doc_ranges)))
    return translated


def translate_document(
    doc: SourceDocument,
    backend: TranslatorBackend,
    cache: TranslationCache | None = None,
) -> tuple[SourceDocument, int]:
    """``translate_documents`` of one document."""
    return translate_documents([doc], backend, cache)[0]


def translate_reports(
    reports: Iterable[BugReport],
    backend: TranslatorBackend,
    cache: TranslationCache | None = None,
) -> list[BugReport]:
    """Translate the summary and description fields that contain Japanese,
    with one ``translate_texts`` call for all of ``reports``. A report with
    no such field comes back as it was."""
    reports = list(reports)
    wanted = [[f for f in ("summary", "description") if detect_japanese(getattr(r, f) or "")]
              for r in reports]
    outputs = iter(translate_texts([getattr(r, f) for r, fields in zip(reports, wanted)
                                    for f in fields], backend, cache))
    return [r._replace(**{f: next(outputs) for f in fields}) if fields else r
            for r, fields in zip(reports, wanted)]


def translate_report(
    report: BugReport,
    backend: TranslatorBackend,
    cache: TranslationCache | None = None,
) -> BugReport:
    """``translate_reports`` of one report."""
    return translate_reports([report], backend, cache)[0]
