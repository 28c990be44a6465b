"""Lexical extraction of comments and string literals, Japanese detection,
and byte-exact re-embedding of replacement text.

Spans are byte ranges into a document's UTF-8 bytes, chosen so that
``span.text == raw_bytes[span.byte_start:span.byte_end].decode()`` always
holds; delimiters are never part of a span. All scanners are hand written:
only three token classes matter and byte offsets must be exact. The scan
jumps from one possible opener to the next with one compiled bytes pattern
per language, and comments end at a ``bytes.find``. One string scanner
serves every string form: it jumps from one stop byte to the next with a
pattern chosen by whether the string is verbatim and has holes. An
unterminated construct is logged at its opener's first byte.
"""
from __future__ import annotations

import functools
import logging
import re
from enum import Enum
from typing import NamedTuple

from .corpus import Language, SourceDocument
from .errors import SpanError

log = logging.getLogger(__name__)


class SpanKind(str, Enum):
    LINE_COMMENT = "line_comment"
    BLOCK_COMMENT = "block_comment"
    STRING_LITERAL = "string_literal"


class Span(NamedTuple):
    """A comment or string-literal body located by byte offsets."""

    byte_start: int
    byte_end: int
    kind: SpanKind
    text: str


class Segment(NamedTuple):
    """A Japanese run inside a span; offsets are bytes relative to the span start."""

    byte_start: int
    byte_end: int
    text: str


# Codepoint ranges treated as "Japanese" (inclusive). Shared CJK ideographs
# cannot distinguish Japanese from Chinese; this over-approximates on purpose.
JAPANESE_RANGES: tuple[tuple[int, int], ...] = (
    (0x3040, 0x309F),  # Hiragana
    (0x30A0, 0x30FF),  # Katakana
    (0xFF66, 0xFF9D),  # Halfwidth Katakana
    (0x4E00, 0x9FFF),  # CJK Unified Ideographs
    (0x3400, 0x4DBF),  # CJK Extension A
    (0x3001, 0x303F),  # CJK punctuation
)


@functools.cache
def _run_pattern() -> re.Pattern[str]:
    """The pattern of one Japanese run. Built on first use, so that no
    command pays the compile at import. ``\\s`` matches exactly where
    str.isspace() holds."""
    japanese = "[" + "".join(f"\\U{lo:08x}-\\U{hi:08x}" for lo, hi in JAPANESE_RANGES) + "]"
    return re.compile(f"{japanese}(?:\\s*{japanese})*")


def detect_japanese(text: str) -> bool:
    """True iff any character's codepoint falls in one of the Japanese ranges."""
    return not text.isascii() and _run_pattern().search(text) is not None


def japanese_segments(span_text: str) -> list[Segment]:
    """Maximal Japanese runs within a span text.

    A run covers Japanese characters plus any whitespace strictly between two
    of them; surrounding ASCII words and trailing/leading whitespace stay out.
    """
    if span_text.isascii():
        return []
    segments: list[Segment] = []
    char_pos = byte_pos = 0
    for match in _run_pattern().finditer(span_text):
        start, text = match.start(), match.group()
        byte_pos += len(span_text[char_pos:start].encode("utf-8"))
        byte_end = byte_pos + len(text.encode("utf-8"))
        segments.append(Segment(byte_pos, byte_end, text))
        char_pos, byte_pos = match.end(), byte_end
    return segments


_DQUOTE = 0x22
_SQUOTE = 0x27
_BACKSLASH = 0x5C
_CR = 0x0D
_LBRACE = 0x7B
_SPACE = 0x20

# Everything that can open a span or a char literal, per language. The
# alternatives are tried in this order at each byte.
_OPENERS = {
    Language.JAVA: re.compile(rb"//|/\*|\"|'"),
    Language.CSHARP: re.compile(rb"//|/\*|\"|@\"|\$\"|@\$\"|\$@\"|'"),
    Language.GENERIC: re.compile(rb"//|/\*|\""),
}

# The bytes a string body can stop at, by (verbatim, holes): its closing
# quote, a backslash escape unless verbatim, and the braces of holes.
_STRING_STOPS = {
    (False, False): re.compile(rb'["\\]'),
    (True, False): re.compile(rb'"'),
    (False, True): re.compile(rb'["\\{}]'),
    (True, True): re.compile(rb'["{}]'),
}
# A hole in an interpolated string stops at its braces and a nested string.
_HOLE_STOPS = _STRING_STOPS[True, True]

# Longest char literal we accept before deciding a quote was stray code,
# e.g. 'A' is 8 bytes including delimiters.
_CHAR_LITERAL_CAP = 16


class _Scanner:
    """Single-pass byte scanner emitting comment and string spans."""

    def __init__(self, data: bytes, language: Language, path: str):
        self.data = data
        self.n = len(data)
        self.language = language
        self.path = path
        self.spans: list[Span] = []

    def _emit(self, kind: SpanKind, start: int, end: int) -> None:
        if start < end:
            self.spans.append(Span(start, end, kind, self.data[start:end].decode("utf-8")))

    def _warn_unterminated(self, what: str, at: int) -> None:
        log.warning("%s: unterminated %s starting at byte %d; span extends to end of file",
                    self.path, what, at)

    def scan(self) -> list[Span]:
        openers = _OPENERS[self.language]
        i = 0
        while (match := openers.search(self.data, i)) is not None:
            opener, i = match.group(), match.end()
            if opener == b"//":
                i = self._line_comment(i)
            elif opener == b"/*":
                i = self._block_comment(i)
            elif opener == b"'":
                i = self._char_literal(match.start())
            else:  # a string: @ makes it verbatim, $ gives it holes
                i = self._string(i, match.start(), b"@" in opener, b"$" in opener)
        return self.spans

    def _line_comment(self, start: int) -> int:
        data = self.data
        j = data.find(b"\n", start)
        if j < 0:
            j = self.n
        end = j
        if end > start and data[end - 1] == _CR:
            end -= 1
        if end > start and data[start] == _SPACE:
            start += 1  # one leading space is delimiter padding, not text
        self._emit(SpanKind.LINE_COMMENT, start, end)
        return j

    def _block_comment(self, start: int) -> int:
        j = self.data.find(b"*/", start)
        if j >= 0:
            self._emit(SpanKind.BLOCK_COMMENT, start, j)
            return j + 2
        self._warn_unterminated("block comment", start - 2)
        self._emit(SpanKind.BLOCK_COMMENT, start, self.n)
        return self.n

    def _string(self, start: int, opener: int, verbatim: bool, holes: bool) -> int:
        """A string body from ``start`` to its closing quote. ``\\`` escapes
        the next byte unless the string is verbatim, where ``""`` is a quote.
        With holes, ``{{`` and ``}}`` are braces and a ``{`` opens a hole of
        code: the body's literal parts become separate spans."""
        data, n = self.data, self.n
        stops = _STRING_STOPS[verbatim, holes]
        part = j = start
        while (match := stops.search(data, j)) is not None:
            j = match.start()
            c = data[j]
            doubled = j + 1 < n and data[j + 1] == c
            if c == _BACKSLASH:
                j += 2
            elif c == _DQUOTE and not (verbatim and doubled):
                self._emit(SpanKind.STRING_LITERAL, part, j)
                return j + 1
            elif doubled:
                j += 2  # "", {{ and }} stay in the text as written
            elif c == _LBRACE:
                self._emit(SpanKind.STRING_LITERAL, part, j)
                j = part = self._skip_hole(j + 1)
            else:  # a lone }
                j += 1
        self._warn_unterminated("interpolated string" if holes else
                                "verbatim string" if verbatim else "string literal", opener)
        self._emit(SpanKind.STRING_LITERAL, part, n)
        return n

    def _skip_hole(self, j: int) -> int:
        """Skip an interpolation hole as code, brace-depth aware, and any
        regular string inside it whole. Returns the byte after the closing
        brace, or the end of the file."""
        data, n = self.data, self.n
        string_stops = _STRING_STOPS[False, False]
        depth = 1
        while depth and (match := _HOLE_STOPS.search(data, j)) is not None:
            j = match.end()
            c = data[match.start()]
            if c == _DQUOTE:
                while ((match := string_stops.search(data, j)) is not None
                       and data[match.start()] == _BACKSLASH):
                    j = match.end() + 1  # a backslash escapes the next byte
                if match is None:
                    return n
                j = match.end()
            else:
                depth += 1 if c == _LBRACE else -1
        return j if depth == 0 else n

    def _char_literal(self, i: int) -> int:
        data, n = self.data, self.n
        j = i + 1
        while j < n and data[j] != _SQUOTE and j - i <= _CHAR_LITERAL_CAP:
            j += 2 if data[j] == _BACKSLASH else 1
        if j < n and data[j] == _SQUOTE and j > i + 1:
            return j + 1  # whole literal consumed; single characters are untranslatable
        return i + 1  # stray quote, treat as code


def extract_spans(doc: SourceDocument) -> list[Span]:
    """All comment and string-literal spans of a document, sorted by offset.

    Java/C#: ``//`` and ``/* */`` comments, ``"..."`` strings with backslash
    escapes, char literals skipped; C# additionally ``@"..."`` verbatim
    strings (doubled-quote escape) and ``$"..."`` interpolated strings, whose
    interpolation holes are code and never part of a span. generic: ``//``,
    ``/* */`` and ``"..."`` only. Unterminated constructs extend to end of
    file with a logged diagnostic.
    """
    return _Scanner(doc.raw_bytes, doc.language, doc.path).scan()


def reembed(
    doc: SourceDocument,
    replacements: list[tuple[Span, Segment, str]],
) -> SourceDocument:
    """Replace targeted segments with new text, leaving every other byte as is.

    Each replacement names a (span, segment, new_text) triple; the segment's
    byte range is relative to its span. Targets must lie inside the document,
    match the segment's recorded text, and must not overlap one another.
    """
    raw = doc.raw_bytes
    n = len(raw)
    targets = []
    for span, segment, new_text in replacements:
        if not (0 <= span.byte_start < span.byte_end <= n):
            raise SpanError(f"{doc.path}: span {span.byte_start}..{span.byte_end} out of range")
        abs_start = span.byte_start + segment.byte_start
        abs_end = span.byte_start + segment.byte_end
        if not (span.byte_start <= abs_start < abs_end <= span.byte_end):
            raise SpanError(
                f"{doc.path}: segment {segment.byte_start}..{segment.byte_end} outside its span"
            )
        current = raw[abs_start:abs_end].decode("utf-8")
        if current != segment.text:
            raise SpanError(
                f"{doc.path}: segment text mismatch at {abs_start}..{abs_end} "
                f"(expected {segment.text!r}, found {current!r})"
            )
        targets.append((abs_start, abs_end, new_text))

    targets.sort(key=lambda t: (t[0], t[1]))
    previous_end = 0
    for abs_start, abs_end, _ in targets:
        if abs_start < previous_end:
            raise SpanError(f"{doc.path}: overlapping replacements at byte {abs_start}")
        previous_end = abs_end
    return _splice(doc, targets)


def _splice(doc: SourceDocument, targets: list[tuple[int, int, str]]) -> SourceDocument:
    """``doc`` with each (start, end, new_text) of ``targets`` in place of
    its bytes ``start:end``, unchecked: the ranges ascend, do not overlap and
    hold whole characters."""
    raw = doc.raw_bytes
    parts: list[bytes] = []
    cursor = 0
    for start, end, new_text in targets:
        parts.append(raw[cursor:start])
        parts.append(new_text.encode("utf-8"))
        cursor = end
    parts.append(raw[cursor:])
    return SourceDocument(doc.path, doc.language, b"".join(parts))
