import logging
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croloc.corpus import Language, SourceDocument, load_source_tree
from croloc.errors import SpanError
from croloc.extract import (
    Segment,
    Span,
    SpanKind,
    _Scanner,
    detect_japanese,
    extract_spans,
    japanese_segments,
    reembed,
)
from lexer_expected import EXPECTED
from reference import RefScanner, ref_detect_japanese, ref_japanese_segments


def _doc(text, language=Language.JAVA, path="T.java"):
    return SourceDocument(path=path, language=language, raw_bytes=text.encode("utf-8"))


@pytest.fixture(scope="module")
def lexer_corpus(lexer_corpus_dir):
    return load_source_tree(lexer_corpus_dir, ["**/*.java", "**/*.cs"])


class TestScannerAgainstHandOracle:
    def test_every_fixture_has_an_expectation(self, lexer_corpus):
        assert {d.path for d in lexer_corpus.documents} == set(EXPECTED)
        assert len(EXPECTED) >= 20

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_kind_text_sequence(self, lexer_corpus, name):
        doc = next(d for d in lexer_corpus.documents if d.path == name)
        got = [(s.kind.value, s.text) for s in extract_spans(doc)]
        assert got == EXPECTED[name]

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_slice_invariant_and_disjoint(self, lexer_corpus, name):
        doc = next(d for d in lexer_corpus.documents if d.path == name)
        raw = doc.raw_bytes
        previous_end = 0
        for span in extract_spans(doc):
            assert 0 <= span.byte_start < span.byte_end <= len(raw)
            assert span.byte_start >= previous_end
            assert raw[span.byte_start:span.byte_end].decode("utf-8") == span.text
            previous_end = span.byte_end

    def test_crlf_offsets_by_hand(self, lexer_corpus):
        doc = next(d for d in lexer_corpus.documents if d.path == "CRLF.java")
        offsets = [(s.byte_start, s.byte_end) for s in extract_spans(doc)]
        # hand-indexed from the raw bytes: "// first note\r\n" puts the
        # comment text at 3..12, and the final "text" literal at 67..70
        assert offsets == [(3, 13), (29, 40), (44, 51), (67, 71)]


class TestScannerUnits:
    def test_generic_language_skips_char_literals(self):
        doc = _doc("x = 'a'; s = \"text\"; // note", Language.GENERIC, "t.txt")
        got = [(s.kind, s.text) for s in extract_spans(doc)]
        assert got == [(SpanKind.STRING_LITERAL, "text"),
                       (SpanKind.LINE_COMMENT, "note")]

    def test_generic_has_no_verbatim_or_interpolated(self):
        doc = _doc('a = @"x"; b = $"y{z}";', Language.GENERIC, "t.txt")
        texts = [s.text for s in extract_spans(doc)]
        assert texts == ["x", "y{z}"]

    def test_java_does_not_know_verbatim(self):
        # @ then a string is an annotation-ish @ followed by a plain literal
        doc = _doc('@"a\\"b"', Language.JAVA)
        texts = [s.text for s in extract_spans(doc)]
        assert texts == ['a\\"b']

    def test_stray_single_quote_does_not_swallow_file(self):
        doc = _doc("int a = 1; ' int b = 2; // still code\n\"lit\"")
        got = [(s.kind, s.text) for s in extract_spans(doc)]
        assert (SpanKind.LINE_COMMENT, "still code") in got
        assert (SpanKind.STRING_LITERAL, "lit") in got

    def test_line_comment_trims_exactly_one_space(self):
        doc = _doc("//   three spaces")
        assert extract_spans(doc)[0].text == "  three spaces"

    def test_empty_document(self):
        assert extract_spans(_doc("")) == []


class TestDetectJapanese:
    @pytest.mark.parametrize("text", [
        "ひらがな", "カタカナ", "ﾊﾝｶｸ", "漢字", "、", "。",
        "mixed 在庫 text", "㐀",
    ])
    def test_positive(self, text):
        assert detect_japanese(text)

    @pytest.mark.parametrize("text", [
        "", "plain ascii", "café", "кириллица", "한국어", "ＡＢＣ", "123!?",
    ])
    def test_negative(self, text):
        assert not detect_japanese(text)


class TestJapaneseSegments:
    def test_ascii_prefix_offsets_in_bytes(self):
        segs = japanese_segments("TODO: 修正する before release")
        assert segs == [Segment(6, 18, "修正する")]

    def test_interior_whitespace_bridges(self):
        segs = japanese_segments("修正 する")
        assert [s.text for s in segs] == ["修正 する"]

    def test_ascii_word_splits_runs(self):
        segs = japanese_segments("fix 修正 then 再試行 end")
        assert [s.text for s in segs] == ["修正", "再試行"]

    def test_surrounding_whitespace_excluded(self):
        segs = japanese_segments("  在庫  ")
        assert segs == [Segment(2, 8, "在庫")]

    def test_no_japanese(self):
        assert japanese_segments("all ascii here") == []

    def test_punctuation_joins_by_default(self):
        segs = japanese_segments("エラー、再試行")
        assert [s.text for s in segs] == ["エラー、再試行"]


class TestReembed:
    def test_simple_replacement(self):
        doc = _doc('// 修正する\nint x;\n')
        span = extract_spans(doc)[0]
        seg = japanese_segments(span.text)[0]
        out = reembed(doc, [(span, seg, "fix this")])
        assert out.raw_text == "// fix this\nint x;\n"
        assert out.path == doc.path

    def test_identity_round_trip_on_fixture_corpus(self, lexer_corpus):
        for doc in lexer_corpus.documents:
            replacements = []
            for span in extract_spans(doc):
                for seg in japanese_segments(span.text):
                    replacements.append((span, seg, seg.text))
            out = reembed(doc, replacements)
            assert out.raw_bytes == doc.raw_bytes, doc.path

    def test_multiple_replacements_change_only_targets(self):
        doc = _doc('String a = "在庫"; // 同期する\n')
        repl = []
        for span in extract_spans(doc):
            for seg in japanese_segments(span.text):
                repl.append((span, seg, "X"))
        out = reembed(doc, repl)
        assert out.raw_text == 'String a = "X"; // X\n'

    def test_overlap_rejected(self):
        doc = _doc("// あいう\n")
        span = extract_spans(doc)[0]
        seg = japanese_segments(span.text)[0]
        with pytest.raises(SpanError, match="overlap"):
            reembed(doc, [(span, seg, "x"), (span, seg, "y")])

    def test_out_of_range_rejected(self):
        doc = _doc("// あ\n")
        span = extract_spans(doc)[0]
        bad = Segment(0, 99, "あ")
        with pytest.raises(SpanError):
            reembed(doc, [(span, bad, "x")])

    def test_stale_text_rejected(self):
        doc = _doc("// あい\n")
        span = extract_spans(doc)[0]
        stale = Segment(0, 3, "う")
        with pytest.raises(SpanError, match="mismatch"):
            reembed(doc, [(span, stale, "x")])

    def test_bad_span_rejected(self):
        doc = _doc("// あ\n")
        bogus = Span(2, 200, SpanKind.LINE_COMMENT, "あ")
        with pytest.raises(SpanError):
            reembed(doc, [(bogus, Segment(0, 3, "あ"), "x")])

    def test_empty_replacement_list(self):
        doc = _doc("// note\n")
        assert reembed(doc, []).raw_bytes == doc.raw_bytes


_source_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    max_size=300,
)

# Pieces that open, close or sit inside comments, strings, char literals and
# interpolation holes, plus Japanese and whitespace that joins or splits runs.
_LEXER_PIECES = st.sampled_from([
    "//", "/*", "*/", "/", "*", '"', "'", '@"', '$"', '@$"', '$@"', '""', "{", "}",
    "{{", "}}", "\\", "\\\"", "\n", "\r\n", "\r", " ", "\t", "\u3000", "x", "int a;",
    "TODO ", "修正", "する", "、", "ｶﾅ", "在庫 同期", "é", "😀",
])
# Every string that encodes to valid UTF-8, the input a SourceDocument holds:
# either arbitrary text or a soup of lexer-relevant pieces.
_lexer_text = st.one_of(
    _source_text,
    st.lists(st.one_of(_LEXER_PIECES, st.characters(blacklist_categories=("Cs",))),
             max_size=60).map("".join),
)


class TestScannerProperties:
    @settings(max_examples=300)
    @given(text=_lexer_text, language=st.sampled_from(list(Language)))
    def test_spans_always_well_formed(self, text, language):
        doc = _doc(text, language, "p.x")
        raw = doc.raw_bytes
        previous_end = 0
        for span in extract_spans(doc):
            assert 0 <= span.byte_start < span.byte_end <= len(raw)
            assert span.byte_start >= previous_end
            assert raw[span.byte_start:span.byte_end].decode("utf-8") == span.text
            previous_end = span.byte_end

    @settings(max_examples=300)
    @given(text=_lexer_text, language=st.sampled_from(list(Language)))
    def test_identity_reembed_reproduces_input(self, text, language):
        doc = _doc(text, language, "p.x")
        raw = doc.raw_bytes
        replacements = []
        for span in extract_spans(doc):
            for seg in japanese_segments(span.text):
                assert 0 <= seg.byte_start < seg.byte_end <= span.byte_end - span.byte_start
                start = span.byte_start + seg.byte_start
                assert raw[start:span.byte_start + seg.byte_end].decode("utf-8") == seg.text
                replacements.append((span, seg, seg.text))
        assert reembed(doc, replacements).raw_bytes == doc.raw_bytes

    @settings(max_examples=100)
    @given(text=st.text(max_size=120))
    def test_segments_lie_within_span_text(self, text):
        data = text.encode("utf-8")
        for seg in japanese_segments(text):
            assert 0 <= seg.byte_start < seg.byte_end <= len(data)
            assert data[seg.byte_start:seg.byte_end].decode("utf-8") == seg.text
            assert detect_japanese(seg.text)


# --- Oracles: the earlier per-character implementations (tests/reference.py)

_SEGMENT_PIECES = st.sampled_from([
    "fix", "TODO:", "a", "A", "1", " ", "  ", "\t", "\n", "\u3000", "\u2028", "\x1c",
    "\x85", "\xa0", "修正", "する", "、", "。", "カタカナ", "ﾊﾝｶｸ", "㐀", "é", "😀", "𠀋",
])
_segment_text = st.lists(
    st.one_of(_SEGMENT_PIECES, st.characters(blacklist_categories=("Cs",))), max_size=40,
).map("".join)


class TestSegmentOracle:
    @settings(max_examples=400)
    @given(text=_segment_text)
    def test_same_segments_as_reference(self, text):
        assert japanese_segments(text) == ref_japanese_segments(text)

    @settings(max_examples=400)
    @given(text=_segment_text)
    def test_same_detection_as_reference(self, text):
        assert detect_japanese(text) == ref_detect_japanese(text)

    def test_whitespace_class_is_isspace_at_every_code_point(self):
        # Runs bridge whitespace with \s; a Python whose re disagrees with
        # str.isspace() anywhere would segment differently.
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _scan(scanner_cls, data: bytes, language: Language):
    """Spans and logged diagnostics, or the exception a scan raised."""
    handler = _Messages()
    logger = logging.getLogger("croloc.extract")
    logger.addHandler(handler)
    try:
        return scanner_cls(data, language, "p.x").scan(), handler.messages
    except UnicodeDecodeError as exc:
        return repr(exc), handler.messages
    finally:
        logger.removeHandler(handler)


_FIXTURE_NAMES = sorted(EXPECTED)
_EDIT_BYTES = st.sampled_from([
    b"/", b"*", b"//", b"/*", b"*/", b'"', b"'", b"@", b"$", b'@"', b'$"', b'@$"', b'$@"',
    b"{", b"}", b"\\", b"\n", b"\r", b" ", "修".encode(), b"\xe4", b"\xff", b"x",
])


@st.composite
def _mutated_fixture(draw, lexer_corpus_dir):
    """A lexer-corpus file with one to eight byte-level edits."""
    data = bytearray((lexer_corpus_dir / draw(st.sampled_from(_FIXTURE_NAMES))).read_bytes())
    for _ in range(draw(st.integers(1, 8))):
        at = draw(st.integers(0, len(data)))
        action = draw(st.sampled_from(["insert", "delete", "replace"]))
        if action == "insert":
            data[at:at] = draw(_EDIT_BYTES)
        elif action == "delete":
            del data[at:at + draw(st.integers(1, 4))]
        else:
            data[at:at + 1] = draw(_EDIT_BYTES)
    return bytes(data)


class TestScannerOracle:
    @settings(max_examples=300)
    @given(data=st.binary(max_size=200), language=st.sampled_from(list(Language)))
    def test_same_spans_on_arbitrary_bytes(self, data, language):
        assert _scan(_Scanner, data, language) == _scan(RefScanner, data, language)

    @settings(max_examples=300)
    @given(text=_lexer_text, language=st.sampled_from(list(Language)))
    def test_same_spans_on_lexer_soup(self, text, language):
        data = text.encode("utf-8")
        assert _scan(_Scanner, data, language) == _scan(RefScanner, data, language)

    @settings(max_examples=200)
    @given(data=st.data(), language=st.sampled_from(list(Language)))
    def test_same_spans_on_mutated_fixtures(self, lexer_corpus_dir, data, language):
        raw = data.draw(_mutated_fixture(lexer_corpus_dir))
        assert _scan(_Scanner, raw, language) == _scan(RefScanner, raw, language)

    def test_reference_defines_every_scanner_it_checks(self):
        own = {"scan", "_line_comment", "_block_comment", "_string", "_verbatim",
               "_interpolated", "_skip_hole", "_char_literal"}
        assert own <= set(vars(RefScanner))

    @pytest.mark.parametrize("opener, what", [
        ('"', "string literal"),
        ('@"', "verbatim string"),
        ('$"', "interpolated string"),
        ('@$"', "interpolated string"),
        ('$@"', "interpolated string"),
        ("/*", "block comment"),
    ])
    @pytest.mark.parametrize("scanner_cls", [_Scanner, RefScanner])
    def test_unterminated_warning_names_the_openers_byte(self, scanner_cls, opener, what):
        data = f"x = {opener}abc".encode()
        spans, messages = _scan(scanner_cls, data, Language.CSHARP)
        assert [s.text for s in spans] == ["abc"]
        assert messages == [f"p.x: unterminated {what} starting at byte 4; "
                            "span extends to end of file"]
