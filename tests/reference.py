"""Independent references that tests compare package output against.

Scoring and evaluation: brute force that deliberately shares no code with
the package, plain dicts and math, one obvious loop per formula. tf and idf
are defined here too, so that no weight of the oracle comes from the
package.

Tokenizer, Japanese detection and segmentation, and the lexer's scan loop
with its comment, string and char-literal scanners: the earlier
per-character implementations, kept verbatim as oracles for the regex and
``bytes.find`` versions that replaced them. They reuse only the package's
data types, the Porter stemmer and the scanner's span and warning output.
One edit since: an unterminated interpolated string is reported at its
opener's first byte, as every other unterminated literal is.

Oracle linking: the earlier loop that tests every report's id against every
commit message, kept as the oracle of the substring-prefiltered
``link_oracles``. It holds its own boundary rule, a scan over each
occurrence of the id, so that a change to the package's id pattern shows.

Glossary translation: the earlier scan that tries, at each position, the
phrases beginning with its character from the longest down, kept as the
oracle of the backend's one compiled alternation.

Per-query scoring: the path that scored one query at a time, with its
tf-idf weighting by dict, its dense query and its row sweep over a CSR
matrix, kept as the oracle of the chunked postings kernel: every score must
match it bit for bit.

Per-item translation: the earlier loops that translate one document or one
report at a time, with a ``translate_texts`` call each, and put a document's
translations in through ``reembed``'s checks, kept as the oracle of
``translate_documents`` and ``translate_reports``, which translate all their
items in one call: every output and every cache byte must match.

Translation cache session: the cache keyed by source digest, which hashed
each source on every lookup and every new row, kept as the oracle of the
cache keyed by source text: the same hits, misses and appended bytes.

Source tree loading: the earlier loader, which took each path below the root
with ``Path.relative_to`` and read it with ``Path.read_bytes``, kept as the
oracle of the one that slices the root off each path's string. It checks for
two files with one normalized path by a set of the paths seen.

Translation cache load: the earlier loop that hands each line's bytes to
``json.loads``, kept as the oracle of the loader that decodes the file once.
It has since learnt two rules: a line nested too deep for ``json.loads``
(``RecursionError``) is a corrupt line, and every field must be a str that
encodes as UTF-8. Its entries are keyed by (backend, source), as the cache's
are, and no longer by (backend, digest).
"""
import hashlib
import json
import math
import os
import string
from collections import Counter
from pathlib import Path

import numpy as np

from croloc.corpus import _LANGUAGES, Corpus, Language, SourceDocument, normalize_path
from croloc.errors import CorpusError, TranslationError
from croloc.evalharness import GRADE_DIRECT, GRADE_INDIRECT
from croloc.extract import (_CHAR_LITERAL_CAP, JAPANESE_RANGES, Segment, SpanKind, _Scanner,
                            detect_japanese, extract_spans, japanese_segments, reembed)
from croloc.index import MIN_TOKEN_LENGTH, STOPWORDS, QueryVector
from croloc.porter import stem as porter_stem
from croloc.translate import translate_texts


def ref_doc_vectors(token_lists):
    """(df, vectors): tf-idf weight dicts per document, term-keyed."""
    n = len(token_lists)
    df = {}
    for tokens in token_lists:
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    vectors = []
    for tokens in token_lists:
        counts = {}
        for term in tokens:
            counts[term] = counts.get(term, 0) + 1
        weights = {}
        for term, c in counts.items():
            w = math.log(c / len(tokens) + 1.0) * math.log(n / df[term])
            if w != 0.0:
                weights[term] = w
        vectors.append(weights)
    return df, vectors


def ref_query_vector(tokens, df, n_docs):
    counts = {}
    for term in tokens:
        counts[term] = counts.get(term, 0) + 1
    weights = {}
    for term, c in counts.items():
        if term not in df:
            continue
        w = math.log(c / len(tokens) + 1.0) * math.log(n_docs / df[term])
        if w != 0.0:
            weights[term] = w
    return weights


def ref_cosine(a, b):
    na = math.sqrt(sum(w * w for w in a.values()))
    nb = math.sqrt(sum(w * w for w in b.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    dot = sum(w * b[t] for t, w in a.items() if t in b)
    return dot / (na * nb)


def ref_minmax(values):
    if not values:
        return []
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.5] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def ref_vsm(query_tokens, token_lists):
    df, vectors = ref_doc_vectors(token_lists)
    q = ref_query_vector(query_tokens, df, len(token_lists))
    return [ref_cosine(q, v) for v in vectors]


def ref_rvsm(query_tokens, token_lists):
    cos = ref_vsm(query_tokens, token_lists)
    lengths = [len(t) for t in token_lists]
    normed = ref_minmax(lengths)
    return [1.0 / (1.0 + math.exp(-n)) * c for n, c in zip(normed, cos)]


def ref_simi(query_tokens, token_lists, paths, history):
    """history: list of (report_tokens, fixed_paths); fixed paths may name
    files outside the corpus, which still count toward the share divisor."""
    df, _ = ref_doc_vectors(token_lists)
    n = len(token_lists)
    q = ref_query_vector(query_tokens, df, n)
    scores = [0.0] * n
    pos = {p: i for i, p in enumerate(paths)}
    for report_tokens, fixed_paths in history:
        deduped = []
        for p in fixed_paths:
            if p not in deduped:
                deduped.append(p)
        if not deduped:
            continue
        r = ref_query_vector(report_tokens, df, n)
        sim = ref_cosine(q, r)
        for p in deduped:
            if p in pos:
                scores[pos[p]] += sim / len(deduped)
    return scores


def ref_buglocator(query_tokens, token_lists, paths, history, alpha):
    rvsm = ref_minmax(ref_rvsm(query_tokens, token_lists))
    simi = ref_minmax(ref_simi(query_tokens, token_lists, paths, history))
    return [(1.0 - alpha) * a + alpha * b for a, b in zip(rvsm, simi)]


def tf(count, doc_length):
    """ln(c_td / c_d + 1); a document with no tokens has tf 0 for everything."""
    if doc_length <= 0 or count <= 0:
        return 0.0
    return math.log(count / doc_length + 1.0)


def idf(doc_freq, n_docs):
    """ln(n_docs / df); a term present in every document weighs 0."""
    if doc_freq <= 0 or n_docs <= 0:
        return 0.0
    return math.log(n_docs / doc_freq)


def tfidf_weights(tokens, term_ids, doc_freq, n_docs):
    """tf-idf weights of a token stream, keyed by term id. The tf denominator
    counts every token, terms outside ``term_ids`` are skipped, and zero
    weights are dropped."""
    c_d = len(tokens)
    weights = {}
    for term, c_td in Counter(tokens).items():
        term_id = term_ids.get(term)
        if term_id is not None:
            w = tf(c_td, c_d) * idf(doc_freq[term_id], n_docs)
            if w != 0.0:
                weights[term_id] = w
    return weights


def tfidf_vector(tokens, index):
    """The ``QueryVector`` of a token stream over ``index``: its
    ``tfidf_weights`` and their norm."""
    weights = tfidf_weights(tokens, index.term_ids, index.doc_freq, index.n_docs)
    return QueryVector(weights, math.sqrt(math.fsum(w * w for w in weights.values())))


def query_dense(query, index):
    """The query's weights over the whole vocabulary."""
    dense = np.zeros(len(index.vocabulary), dtype=np.float64)
    for term_id, w in query.weights.items():
        dense[term_id] = w
    return dense


def ref_csr_cosine(indptr, indices, data, norms, qdense, qnorm):
    """Cosine of one dense query against every row of a CSR matrix. Each
    row's products are summed on their own, in stored order, from 0.0;
    zero-norm rows or a zero-norm query score 0."""
    n_rows = indptr.shape[0] - 1
    if qnorm <= 0.0:
        return np.zeros(n_rows, dtype=np.float64)
    products = data * qdense[indices]
    row_ids = np.repeat(np.arange(n_rows), np.diff(indptr))
    dots = np.bincount(row_ids, weights=products, minlength=n_rows)
    out = np.zeros(n_rows, dtype=np.float64)
    denom = norms * qnorm
    mask = denom > 0.0
    out[mask] = dots[mask] / denom[mask]
    return out


def _minmax_array(values):
    if values.size == 0:
        return values.copy()
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.full(values.shape, 0.5)
    return (values - lo) / (hi - lo)


def history_csr(history):
    """(indptr, indices, data, norms) of the rows of a ``HistorySet``."""
    n, v = len(history), history.vectors
    nnz = v.indptr[n]
    return v.indptr[:n + 1], v.indices[:nnz], v.data[:nnz], v.norms[:n]


def history_incidences(history):
    """(row, doc id) of every file the fixes of a ``HistorySet`` touched,
    and each row's number of fixed files."""
    n = len(history)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(history.inc_ptr[:n + 1]))
    return rows, history.inc_docs[:history.inc_ptr[n]], history.n_fixed[:n]


def per_query_scores(query, index, technique, history=None, alpha=0.2):
    """Scores of every document for one ``QueryVector``, as the per-query
    path computed them; buglocator's evidence is all of ``history``, which
    only buglocator needs."""
    dense = query_dense(query, index)
    vsm = ref_csr_cosine(*index.csr(), dense, query.norm)
    if technique == "vsm":
        return vsm
    length = 1.0 / (1.0 + np.exp(-_minmax_array(index.term_counts.astype(np.float64))))
    rvsm = length * vsm
    if technique == "rvsm":
        return rvsm
    sims = ref_csr_cosine(*history_csr(history), dense, query.norm)
    rows, docs, n_fixed = history_incidences(history)
    simi = np.bincount(docs, weights=sims[rows] / n_fixed[rows], minlength=index.n_docs)
    return (1.0 - alpha) * _minmax_array(rvsm) + alpha * _minmax_array(simi)


def ref_average_precision(ranked, relevant):
    hits = 0
    total = 0.0
    for k, path in enumerate(ranked, start=1):
        if path in relevant:
            hits += 1
            total += hits / k
    return total / len(relevant)


def ref_reciprocal_rank(ranked, relevant):
    for k, path in enumerate(ranked, start=1):
        if path in relevant:
            return 1.0 / k
    return 0.0


def ref_success_at(ranked, relevant, n):
    return 1 if any(p in relevant for p in ranked[:n]) else 0


# The characters that may not touch a linked report id on either side.
_ID_CHARS = frozenset(string.ascii_letters + string.digits + "_")


def _mentions(message, report_id):
    """Whether some occurrence of ``report_id`` in ``message`` has no
    ASCII letter, digit or underscore just before or just after it."""
    start = message.find(report_id)
    while start != -1:
        end = start + len(report_id)
        if ((start == 0 or message[start - 1] not in _ID_CHARS)
                and (end == len(message) or message[end] not in _ID_CHARS)):
            return True
        start = message.find(report_id, start + 1)
    return False


def ref_link_oracles(reports, commits):
    qrels = {}
    for report in reports:
        direct = set(report.fixed_paths)
        for p in sorted(direct):
            qrels.setdefault(report.id, {})[p] = GRADE_DIRECT
        for commit in commits:
            if not _mentions(commit["message"], report.id):
                continue
            for f in commit["changed_files"]:
                p = normalize_path(f)
                if p not in direct:
                    qrels.setdefault(report.id, {})[p] = GRADE_INDIRECT
    return qrels


# --- Tokenizer oracle ------------------------------------------------------


def _split_scripts(word: str) -> list[str]:
    """Split a word wherever ASCII meets non-ASCII, so that glossary output
    glued directly against Japanese text still separates into clean tokens."""
    pieces: list[str] = []
    start = 0
    for i in range(1, len(word)):
        if (ord(word[i - 1]) < 128) != (ord(word[i]) < 128):
            pieces.append(word[start:i])
            start = i
    pieces.append(word[start:])
    return pieces


def _split_ascii_word(word: str) -> list[str]:
    """camelCase and letter/digit boundaries; acronym runs keep their tail
    capital with the following word (HTTPServer -> HTTP, Server)."""
    parts: list[str] = []
    start = 0
    for i in range(1, len(word)):
        prev, cur = word[i - 1], word[i]
        boundary = False
        if prev.isdigit() != cur.isdigit():
            boundary = True
        elif prev.islower() and cur.isupper():
            boundary = True
        elif prev.isupper() and cur.isupper() and i + 1 < len(word) and word[i + 1].islower():
            boundary = True
        if boundary:
            parts.append(word[start:i])
            start = i
    parts.append(word[start:])
    return parts


def _alnum_runs(text: str) -> list[str]:
    runs: list[str] = []
    current: list[str] = []
    for ch in text:
        if ch.isalnum():
            current.append(ch)
        elif current:
            runs.append("".join(current))
            current = []
    if current:
        runs.append("".join(current))
    return runs


def ref_tokenize(text: str, stemming: bool = False) -> list[str]:
    raw: list[str] = []
    for word in _alnum_runs(text):
        for piece in _split_scripts(word):
            if not piece:
                continue
            if ord(piece[0]) < 128:
                subs = [p for p in _split_ascii_word(piece) if not p.isdigit()]
                if len(subs) >= 2 and not any(ch.isdigit() for ch in piece):
                    raw.append(piece)
                raw.extend(subs)
            else:
                raw.append(piece)
    out: list[str] = []
    for token in raw:
        token = token.lower()
        if token in STOPWORDS:
            continue
        if len(token) < MIN_TOKEN_LENGTH:
            continue
        if stemming:
            token = porter_stem(token)
        out.append(token)
    return out


# --- Japanese detection and segmentation oracle ----------------------------


def ref_detect_japanese(text: str, ranges: tuple[tuple[int, int], ...] = JAPANESE_RANGES) -> bool:
    """True iff any character's codepoint falls in one of the Japanese ranges."""
    for ch in text:
        cp = ord(ch)
        for lo, hi in ranges:
            if lo <= cp <= hi:
                return True
    return False


def _in_ranges(ch: str, ranges: tuple[tuple[int, int], ...]) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in ranges)


def ref_japanese_segments(
    span_text: str, ranges: tuple[tuple[int, int], ...] = JAPANESE_RANGES
) -> list[Segment]:
    segments: list[Segment] = []
    data = span_text.encode("utf-8")
    start = end = None
    offset = 0
    for ch in span_text:
        blen = len(ch.encode("utf-8"))
        if _in_ranges(ch, ranges):
            if start is None:
                start = offset
            end = offset + blen
        elif not ch.isspace():
            if start is not None:
                segments.append(Segment(start, end, data[start:end].decode("utf-8")))
                start = end = None
        offset += blen
    if start is not None:
        segments.append(Segment(start, end, data[start:end].decode("utf-8")))
    return segments


# --- Lexer scan oracle -------------------------------------------------------

_SLASH = 0x2F
_STAR = 0x2A
_DQUOTE = 0x22
_SQUOTE = 0x27
_NL = 0x0A
_CR = 0x0D
_AT = 0x40
_DOLLAR = 0x24
_SPACE = 0x20
_BACKSLASH = 0x5C
_LBRACE = 0x7B
_RBRACE = 0x7D


class RefScanner(_Scanner):
    """The package scanner with its per-byte scan loop, comment, string and
    char-literal scanners; it inherits only the constructor and the span and
    warning output."""

    def scan(self):
        data, n = self.data, self.n
        allow_char = self.language in (Language.JAVA, Language.CSHARP)
        csharp = self.language is Language.CSHARP
        i = 0
        while i < n:
            c = data[i]
            if c == _SLASH and i + 1 < n and data[i + 1] == _SLASH:
                i = self._line_comment(i + 2)
            elif c == _SLASH and i + 1 < n and data[i + 1] == _STAR:
                i = self._block_comment(i + 2)
            elif c == _DQUOTE:
                i = self._string(i + 1)
            elif csharp and c == _AT and i + 1 < n and data[i + 1] == _DQUOTE:
                i = self._verbatim(i + 2, interpolated=False)
            elif csharp and c == _DOLLAR and i + 1 < n and data[i + 1] == _DQUOTE:
                i = self._interpolated(i + 2, verbatim=False)
            elif csharp and c == _AT and i + 2 < n and data[i + 1] == _DOLLAR and data[i + 2] == _DQUOTE:
                i = self._interpolated(i + 3, verbatim=True)
            elif csharp and c == _DOLLAR and i + 2 < n and data[i + 1] == _AT and data[i + 2] == _DQUOTE:
                i = self._interpolated(i + 3, verbatim=True)
            elif allow_char and c == _SQUOTE:
                i = self._char_literal(i)
            else:
                i += 1
        return self.spans

    def _line_comment(self, start: int) -> int:
        data, n = self.data, self.n
        j = start
        while j < n and data[j] != _NL:
            j += 1
        end = j
        if end > start and data[end - 1] == _CR:
            end -= 1
        if end > start and data[start] == _SPACE:
            start += 1  # one leading space is delimiter padding, not text
        self._emit(SpanKind.LINE_COMMENT, start, end)
        return j

    def _block_comment(self, start: int) -> int:
        data, n = self.data, self.n
        j = start
        while j + 1 < n:
            if data[j] == _STAR and data[j + 1] == _SLASH:
                self._emit(SpanKind.BLOCK_COMMENT, start, j)
                return j + 2
            j += 1
        self._warn_unterminated("block comment", start - 2)
        self._emit(SpanKind.BLOCK_COMMENT, start, n)
        return n

    def _string(self, start: int) -> int:
        data, n = self.data, self.n
        j = start
        while j < n:
            if data[j] == _BACKSLASH:
                j += 2
                continue
            if data[j] == _DQUOTE:
                self._emit(SpanKind.STRING_LITERAL, start, j)
                return j + 1
            j += 1
        self._warn_unterminated("string literal", start - 1)
        self._emit(SpanKind.STRING_LITERAL, start, n)
        return n

    def _verbatim(self, start: int, interpolated: bool) -> int:
        data, n = self.data, self.n
        j = start
        while j < n:
            if data[j] == _DQUOTE:
                if j + 1 < n and data[j + 1] == _DQUOTE:
                    j += 2  # doubled quote stays in the text as written
                    continue
                self._emit(SpanKind.STRING_LITERAL, start, j)
                return j + 1
            j += 1
        self._warn_unterminated("verbatim string", start - 2)
        self._emit(SpanKind.STRING_LITERAL, start, n)
        return n

    def _interpolated(self, start: int, verbatim: bool) -> int:
        """$"..." body: literal parts become separate spans, {holes} are code."""
        data, n = self.data, self.n
        part_start = start
        j = start
        while j < n:
            c = data[j]
            if c == _DQUOTE:
                if verbatim and j + 1 < n and data[j + 1] == _DQUOTE:
                    j += 2
                    continue
                self._emit(SpanKind.STRING_LITERAL, part_start, j)
                return j + 1
            if not verbatim and c == _BACKSLASH:
                j += 2
                continue
            if c == _LBRACE:
                if j + 1 < n and data[j + 1] == _LBRACE:
                    j += 2  # {{ is a literal brace
                    continue
                self._emit(SpanKind.STRING_LITERAL, part_start, j)
                j = self._skip_hole(j + 1)
                part_start = j
                continue
            if c == _RBRACE and j + 1 < n and data[j + 1] == _RBRACE:
                j += 2  # }} is a literal brace
                continue
            j += 1
        self._warn_unterminated("interpolated string", start - (3 if verbatim else 2))
        self._emit(SpanKind.STRING_LITERAL, part_start, n)
        return n

    def _skip_hole(self, j: int) -> int:
        """Skip an interpolation hole as code, brace-depth aware."""
        data, n = self.data, self.n
        depth = 1
        while j < n and depth > 0:
            c = data[j]
            if c == _LBRACE:
                depth += 1
            elif c == _RBRACE:
                depth -= 1
            elif c == _DQUOTE:
                j += 1
                while j < n:
                    if data[j] == _BACKSLASH:
                        j += 2
                        continue
                    if data[j] == _DQUOTE:
                        break
                    j += 1
            j += 1
        return j

    def _char_literal(self, i: int) -> int:
        data, n = self.data, self.n
        j = i + 1
        while j < n and data[j] != _SQUOTE and j - i <= _CHAR_LITERAL_CAP:
            j += 2 if data[j] == _BACKSLASH else 1
        if j < n and data[j] == _SQUOTE and j > i + 1:
            return j + 1  # whole literal consumed; single characters are untranslatable
        return i + 1  # stray quote, treat as code


def _encodes(value):
    if not isinstance(value, str):
        return False
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def ref_load_cache(path):
    """(entries, number of the torn last line or 0) of a translation cache
    file, cutting a torn last line off the file as ``TranslationCache`` does."""
    entries = {}
    whole = 0  # bytes up to the end of the last terminated line
    torn = 0  # number of an unterminated last line
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                torn = lineno
                break
            whole += len(line)
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise TranslationError(
                    f"{path}:{lineno}: corrupt cache line: {exc}"
                ) from exc
            try:
                backend = obj["backend"]
                digest = obj["sha256"]
                source = obj["source"]
                translation = obj["translation"]
            except (KeyError, TypeError) as exc:
                raise TranslationError(
                    f"{path}:{lineno}: cache entry missing fields"
                ) from exc
            if not all(map(_encodes, (backend, digest, source, translation))):
                raise TranslationError(
                    f"{path}:{lineno}: cache entry fields must be strings "
                    "that encode as UTF-8")
            if hashlib.sha256(source.encode("utf-8")).hexdigest() != digest:
                raise TranslationError(
                    f"{path}:{lineno}: cache digest does not match source text"
                )
            entries[(backend, source)] = translation
    if torn:
        os.truncate(path, whole)
    return entries, torn


def ref_glossary_translate(text, glossary):
    by_first = {}
    for key in glossary:
        by_first.setdefault(key[0], []).append(key)
    for keys in by_first.values():
        keys.sort(key=len, reverse=True)
    out = []
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


def ref_translate_document(doc, backend, cache=None):
    """(document, segments translated): one document's Japanese segments
    translated with one ``translate_texts`` call."""
    targets = []
    for span in extract_spans(doc):
        for segment in japanese_segments(span.text):
            targets.append((span, segment))
    if not targets:
        return doc, 0
    outputs = translate_texts([seg.text for _, seg in targets], backend, cache)
    replacements = [(span, seg, out) for (span, seg), out in zip(targets, outputs)]
    return reembed(doc, replacements), len(targets)


def ref_translate_report(report, backend, cache=None):
    """One report's Japanese summary and description translated with one
    ``translate_texts`` call."""
    wanted = []
    if detect_japanese(report.summary):
        wanted.append("summary")
    if report.description and detect_japanese(report.description):
        wanted.append("description")
    if not wanted:
        return report
    outputs = translate_texts([getattr(report, f) for f in wanted], backend, cache)
    return report._replace(**dict(zip(wanted, outputs)))


class RefTranslationCache:
    """The cache keyed by backend name and source digest, as it was: every
    lookup and every new row hashes its source. It loads a file through
    ``ref_load_cache`` and appends each new row with ``json.dumps``; kept as
    the oracle of ``TranslationCache``, keyed by source text."""

    def __init__(self, path):
        self.path = path
        self.entries = {}
        if os.path.exists(path):
            for (backend, source), translation in ref_load_cache(path)[0].items():
                self.entries[(backend, _digest(source))] = translation

    def get(self, backend_name, source):
        return self.entries.get((backend_name, _digest(source)))

    def put_many(self, backend_name, pairs):
        with open(self.path, "a", encoding="utf-8") as fh:
            for source, translation in pairs:
                key = (backend_name, _digest(source))
                if key not in self.entries:
                    self.entries[key] = translation
                    fh.write(json.dumps({"backend": backend_name, "sha256": key[1],
                                         "source": source, "translation": translation},
                                        ensure_ascii=False) + "\n")


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- Source tree loading oracle -------------------------------------------


def ref_load_source_tree(root, include_patterns, permissive=False):
    """The loader that took each file's path below the root with
    ``Path.relative_to`` and read it with ``Path.read_bytes``; kept as the
    oracle of the one that slices the root off each path's string."""
    root_path = Path(root)
    if not root_path.is_dir():
        raise CorpusError(f"source root does not exist or is not a directory: {root}")

    matched = set()
    for pattern in include_patterns:
        try:
            matched.update(hit for hit in root_path.glob(pattern) if hit.is_file())
        except (ValueError, NotImplementedError) as exc:
            raise CorpusError(f"unusable --include pattern {pattern!r}: {exc}") from None

    documents = []
    skipped = []
    rel_paths = sorted((normalize_path(p.relative_to(root_path).as_posix()), p) for p in matched)
    for rel, file_path in rel_paths:
        try:
            raw = file_path.read_bytes()
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            if not permissive:
                raise CorpusError(f"file is not valid UTF-8: {rel} ({exc})") from exc
            skipped.append((rel, str(exc)))
            continue
        except OSError as exc:
            raise CorpusError(f"cannot read {rel}: {exc}") from exc
        language = _LANGUAGES.get(file_path.suffix.lower(), Language.GENERIC)
        documents.append(SourceDocument(path=rel, language=language, raw_bytes=raw))
    seen = set()
    for doc in documents:
        if doc.path in seen:
            raise CorpusError(f"duplicate document path: {doc.path}")
        seen.add(doc.path)
    return Corpus(documents=tuple(documents), skipped=tuple(skipped))
