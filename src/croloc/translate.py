"""Pluggable Japanese-to-English translation with a persistent cache.

Backends share one batch contract; the pipeline only ever sends text that
actually contains Japanese. The service backend speaks a minimal JSON POST
protocol and retries transient failures with exponential backoff; responses
that violate the protocol are never retried.
"""
from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import logging
import os
import re
import time
from abc import ABC, abstractmethod
from collections.abc import Iterator
from typing import TextIO

from .corpus import BugReport, SourceDocument, read_lines
from .errors import ProtocolError, TranslationError
from .extract import detect_japanese, extract_spans, japanese_segments, reembed

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
    """Tab-separated source/translation pairs, one per line; # starts a comment."""
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


def _glossary_scan(text: str, glossary: dict[str, str],
                   by_first: dict[str, list[str]]) -> str:
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        matched = None
        for key in by_first.get(text[i], ()):
            if text.startswith(key, i):
                matched = key
                break
        if matched is not None:
            out.append(glossary[matched])
            i += len(matched)
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


class GlossaryBackend(TranslatorBackend):
    """Deterministic offline translation from a fixed phrase table: greedy
    longest-match replacement, scanning left to right."""

    name = "glossary"

    def __init__(self, glossary: dict[str, str]):
        self.glossary = dict(glossary)
        self._by_first: dict[str, list[str]] = {}
        for key in self.glossary:
            if not key:
                raise TranslationError("glossary contains an empty source phrase")
            self._by_first.setdefault(key[0], []).append(key)
        for keys in self._by_first.values():
            keys.sort(key=len, reverse=True)

    def translate_batch(self, texts: list[str]) -> list[str]:
        return [_glossary_scan(t, self.glossary, self._by_first) for t in texts]


class ServiceBackend(TranslatorBackend):
    """HTTP translation service client.

    POSTs {"texts": [...], "source": "ja", "target": "en"} and expects
    {"translations": [...]} of equal length. Transient failures (connection
    errors, 429, 5xx) get 3 attempts in all, 0.5 s and then 1 s apart;
    anything else fails immediately.
    """

    name = "service"

    def __init__(self, url: str, token: str | None = None, sleep=time.sleep):
        # Imported here: only this backend needs it, and every other command
        # would pay its import time and memory.
        import requests

        self.url = url
        self.token = token if token is not None else os.environ.get(SERVICE_TOKEN_ENV)
        self._session = requests.Session()
        self._sleep = sleep

    def translate_batch(self, texts: list[str]) -> list[str]:
        import requests

        if not texts:
            return []
        payload = {"texts": list(texts), "source": "ja", "target": "en"}
        headers = {}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        last_error: Exception | None = None
        for attempt in range(1, _ATTEMPTS + 1):
            try:
                response = self._session.post(
                    self.url, json=payload, headers=headers, timeout=_TIMEOUT_S
                )
            except requests.RequestException as exc:
                last_error = exc
            else:
                if response.status_code == 200:
                    return self._parse(response, len(texts))
                if response.status_code not in _RETRYABLE_STATUS:
                    raise TranslationError(
                        f"translation service returned HTTP {response.status_code}"
                    )
                last_error = TranslationError(
                    f"translation service returned HTTP {response.status_code}"
                )
            if attempt < _ATTEMPTS:
                delay = _BACKOFF_S * 2 ** (attempt - 1)
                log.warning("translation attempt %d/%d failed (%s); retrying in %.1fs",
                            attempt, _ATTEMPTS, last_error, delay)
                self._sleep(delay)
        raise TranslationError(
            f"translation service failed after {_ATTEMPTS} attempts: {last_error}"
        )

    @staticmethod
    def _parse(response, expected: int) -> list[str]:
        try:
            body = response.json()
        except ValueError as exc:
            raise ProtocolError(f"translation service sent invalid JSON: {exc}") from exc
        translations = body.get("translations") if isinstance(body, dict) else None
        if not isinstance(translations, list) or not all(
            isinstance(t, str) for t in translations
        ):
            raise ProtocolError("translation response lacks a 'translations' string list")
        if len(translations) != expected:
            raise ProtocolError(
                f"translation count mismatch: sent {expected}, got {len(translations)}"
            )
        return translations


def _cache_lines(content: bytes) -> Iterator[str | bytes]:
    """The newline-terminated lines of ``content``, each with its newline:
    as str, decoded at once, when ``content`` is UTF-8, and otherwise as
    bytes, for json.loads to decode or reject one line at a time."""
    try:
        text = content.decode("utf-8")
    except UnicodeDecodeError:
        return io.BytesIO(content)
    return (match.group() for match in re.finditer(".*\n", text))


# The scanner behind json.loads, which reads one value at a position; called
# directly, it skips json.loads' per-call overhead, most of a line's cost.
_scan_json = json.JSONDecoder().scan_once


def _json_line(line: str | bytes):
    """json.loads of one newline-terminated line, as it parses the line's
    bytes. A str line that is one JSON value and its newline goes straight
    to the scanner; any other line, and any error, comes from json.loads."""
    if isinstance(line, str):
        if line.startswith("\ufeff") or "\x00" in line[:2]:
            # json.loads reads bytes that begin so as UTF-8 with a BOM, or
            # as UTF-16 or UTF-32: give it those bytes.
            return json.loads(line.encode("utf-8"))
        try:
            obj, end = _scan_json(line, 0)
        except (StopIteration, ValueError):
            pass
        else:
            if end == len(line) - 1:
                return obj
    return json.loads(line)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TranslationCache:
    """Append-only JSONL store keyed by backend name and source-text digest.

    The append handle opens on the first new entry and stays open until
    ``close()``, or the end of a ``with`` block; each ``put_many`` flushes it.
    """

    def __init__(self, path: str):
        self.path = path
        self._entries: dict[tuple[str, str], str] = {}
        self._fh: TextIO | None = None
        if os.path.exists(path):
            self._load()

    def __enter__(self) -> TranslationCache:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def _load(self) -> None:
        with open(self.path, "rb") as fh:
            content = fh.read()
        whole = content.rfind(b"\n") + 1  # bytes up to the end of the last terminated line
        for lineno, line in enumerate(_cache_lines(content[:whole]), start=1):
            try:
                obj = _json_line(line)
            except ValueError as exc:
                if not (line if isinstance(line, bytes) else line.encode("utf-8")).strip():
                    continue  # a blank line, which json.loads rejects too
                raise TranslationError(
                    f"{self.path}:{lineno}: corrupt cache line: {exc}"
                ) from exc
            try:
                backend = obj["backend"]
                digest = obj["sha256"]
                source = obj["source"]
                translation = obj["translation"]
            except (KeyError, TypeError) as exc:
                raise TranslationError(
                    f"{self.path}:{lineno}: cache entry missing fields"
                ) from exc
            if _sha256(source) != digest:
                raise TranslationError(
                    f"{self.path}:{lineno}: cache digest does not match source text"
                )
            self._entries[(backend, digest)] = translation
        if whole < len(content):
            # A run killed mid-append leaves its last line unterminated. Cut
            # it off, so that the next append starts on a line of its own.
            log.warning("%s:%d: dropping an unterminated last line left by an "
                        "interrupted write", self.path, content.count(b"\n") + 1)
            os.truncate(self.path, whole)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, backend_name: str, source: str) -> str | None:
        return self._entries.get((backend_name, _sha256(source)))

    def put_many(self, backend_name: str, pairs: list[tuple[str, str]]) -> None:
        new_lines = []
        for source, translation in pairs:
            digest = _sha256(source)
            key = (backend_name, digest)
            if key in self._entries:
                continue
            self._entries[key] = translation
            new_lines.append(json.dumps(
                {"backend": backend_name, "sha256": digest,
                 "source": source, "translation": translation},
                ensure_ascii=False,
            ))
        if new_lines:
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.writelines(line + "\n" for line in new_lines)
            # A killed process keeps what the OS accepted, so every put_many
            # hands its lines over before returning.
            self._fh.flush()


def translate_texts(
    texts: list[str],
    backend: TranslatorBackend,
    cache: TranslationCache | None = None,
    batch_size: int = BATCH_SIZE,
) -> list[str]:
    """Translate texts in order, consulting the cache and batching misses."""
    results: list[str | None] = [None] * len(texts)
    pending: dict[str, list[int]] = {}
    for i, text in enumerate(texts):
        if cache is not None:
            hit = cache.get(backend.name, text)
            if hit is not None:
                results[i] = hit
                continue
        pending.setdefault(text, []).append(i)

    unique = list(pending)
    translated: dict[str, str] = {}
    for start in range(0, len(unique), batch_size):
        chunk = unique[start : start + batch_size]
        outputs = backend.translate_batch(chunk)
        if len(outputs) != len(chunk):
            raise ProtocolError(
                f"backend {backend.name} returned {len(outputs)} results for "
                f"{len(chunk)} inputs"
            )
        translated.update(zip(chunk, outputs))
    if cache is not None and translated:
        cache.put_many(backend.name, list(translated.items()))
    for text, positions in pending.items():
        for i in positions:
            results[i] = translated[text]
    return results


def translate_document(
    doc: SourceDocument,
    backend: TranslatorBackend,
    cache: TranslationCache | None = None,
) -> tuple[SourceDocument, int]:
    """Replace every Japanese segment in the document's comments and string
    literals; bytes outside those segments are untouched. Returns the new
    document and the number of segments translated."""
    targets = []
    for span in extract_spans(doc):
        for segment in japanese_segments(span.text):
            targets.append((span, segment))
    if not targets:
        return doc, 0
    outputs = translate_texts([seg.text for _, seg in targets], backend, cache)
    replacements = [(span, seg, out) for (span, seg), out in zip(targets, outputs)]
    return reembed(doc, replacements), len(targets)


def translate_report(
    report: BugReport,
    backend: TranslatorBackend,
    cache: TranslationCache | None = None,
) -> BugReport:
    """Translate the summary and description fields that contain Japanese."""
    wanted = []
    if detect_japanese(report.summary):
        wanted.append("summary")
    if report.description and detect_japanese(report.description):
        wanted.append("description")
    if not wanted:
        return report
    outputs = translate_texts([getattr(report, f) for f in wanted], backend, cache)
    return dataclasses.replace(report, **dict(zip(wanted, outputs)))
