"""Tokenization and tf-idf indexing of source documents.

Weighting follows the classic bug-localization setup: for a term occurring
c_td times in a document of c_d tokens,

    tf  = ln(c_td / c_d + 1)
    idf = ln(n_docs / df)
    w   = tf * idf

and documents are compared by cosine over these weights. All logs natural.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import IndexFormatError
from .porter import stem as porter_stem

INDEX_FORMAT = "croloc-index"
INDEX_VERSION = 1


def _load_default_stopwords() -> frozenset[str]:
    text = resources.files("croloc.data").joinpath("stopwords_en.txt").read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


_DEFAULT_STOPWORDS: frozenset[str] | None = None


def default_stopwords() -> frozenset[str]:
    global _DEFAULT_STOPWORDS
    if _DEFAULT_STOPWORDS is None:
        _DEFAULT_STOPWORDS = _load_default_stopwords()
    return _DEFAULT_STOPWORDS


@dataclass(frozen=True)
class TokenizerOptions:
    stemming: bool = False
    min_token_length: int = 2
    stopwords: frozenset[str] = field(default_factory=default_stopwords)


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


def tokenize(text: str, options: TokenizerOptions | None = None) -> list[str]:
    """Token stream of a text: identifier-aware, lowercased, stopped, and
    optionally stemmed.

    Words are maximal alphanumeric runs (underscore separates). Each word is
    split at script boundaries; ASCII pieces additionally split at camelCase
    and letter/digit boundaries, with pure-digit fragments dropped. A piece
    that splits into two or more fragments and contains no digit also emits
    itself whole, before its fragments. Stemming, when enabled, runs last.
    """
    opts = options if options is not None else TokenizerOptions()
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
        if token in opts.stopwords:
            continue
        if len(token) < opts.min_token_length:
            continue
        if opts.stemming:
            token = porter_stem(token)
        out.append(token)
    return out


def tf(count: int, doc_length: int) -> float:
    """ln(c_td / c_d + 1); a document with no tokens has tf 0 for everything."""
    if doc_length <= 0 or count <= 0:
        return 0.0
    return math.log(count / doc_length + 1.0)


def idf(doc_freq: int, n_docs: int) -> float:
    """ln(n_docs / df); a term present in every document weighs 0."""
    if doc_freq <= 0 or n_docs <= 0:
        return 0.0
    return math.log(n_docs / doc_freq)


@dataclass(frozen=True)
class DocumentVector:
    """tf-idf weights of one document, keyed by term id; zero weights omitted."""

    doc_id: int
    term_count: int
    weights: dict[int, float]
    norm: float


@dataclass(frozen=True)
class QueryVector:
    term_count: int
    weights: dict[int, float]
    norm: float


@dataclass
class Index:
    options: TokenizerOptions
    paths: tuple[str, ...]
    vocabulary: tuple[str, ...]
    doc_freq: tuple[int, ...]
    vectors: tuple[DocumentVector, ...]
    _term_ids: dict[str, int] | None = field(default=None, repr=False, compare=False)
    _csr: tuple | None = field(default=None, repr=False, compare=False)
    _path_rank: np.ndarray | None = field(default=None, repr=False, compare=False)
    # rVSM's length factor, cached here by croloc.rank
    _length_factor: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def n_docs(self) -> int:
        return len(self.paths)

    def term_id(self, term: str) -> int | None:
        if self._term_ids is None:
            self._term_ids = {t: i for i, t in enumerate(self.vocabulary)}
        return self._term_ids.get(term)

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, data, norms) over doc_id order, built once."""
        if self._csr is None:
            indptr, indices, data = stack_weights([v.weights for v in self.vectors])
            norms = np.array([v.norm for v in self.vectors], dtype=np.float64)
            self._csr = (indptr, indices, data, norms)
        return self._csr

    def path_rank(self) -> np.ndarray:
        """Position of each document's path in lexicographic path order,
        built once; the tie-break key of every ranking."""
        if self._path_rank is None:
            order = sorted(range(self.n_docs), key=self.paths.__getitem__)
            self._path_rank = np.empty(self.n_docs, dtype=np.int64)
            self._path_rank[order] = np.arange(self.n_docs)
        return self._path_rank


def stack_weights(rows: list[dict[int, float]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR (indptr, indices, data) of sparse weight rows, with term ids in
    ascending order within each row."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(w) for w in rows])
    items = [item for w in rows for item in sorted(w.items())]
    indices = np.fromiter((t for t, _ in items), dtype=np.int64, count=len(items))
    data = np.fromiter((w for _, w in items), dtype=np.float64, count=len(items))
    return indptr, indices, data


def _vector_norm(weights: dict[int, float]) -> float:
    return math.sqrt(math.fsum(w * w for w in weights.values()))


def build_index(
    token_lists: list[list[str]],
    paths: list[str],
    options: TokenizerOptions | None = None,
) -> Index:
    """Index pre-tokenized documents given in doc_id order.

    Vocabulary ids follow sorted term order, so the index is identical no
    matter how the corpus was traversed.
    """
    if len(token_lists) != len(paths):
        raise ValueError("token_lists and paths must be parallel")
    opts = options if options is not None else TokenizerOptions()
    n_docs = len(paths)
    df: dict[str, int] = {}
    for tokens in token_lists:
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    vocabulary = tuple(sorted(df))
    term_ids = {t: i for i, t in enumerate(vocabulary)}
    doc_freq = tuple(df[t] for t in vocabulary)

    vectors: list[DocumentVector] = []
    for doc_id, tokens in enumerate(token_lists):
        counts: dict[str, int] = {}
        for term in tokens:
            counts[term] = counts.get(term, 0) + 1
        c_d = len(tokens)
        weights: dict[int, float] = {}
        for term, c_td in counts.items():
            w = tf(c_td, c_d) * idf(df[term], n_docs)
            if w != 0.0:
                weights[term_ids[term]] = w
        vectors.append(DocumentVector(doc_id, c_d, weights, _vector_norm(weights)))

    idx = Index(opts, tuple(paths), vocabulary, doc_freq, tuple(vectors))
    idx._term_ids = term_ids
    return idx


def index_documents(raw_texts: list[str], paths: list[str],
                    options: TokenizerOptions | None = None) -> Index:
    opts = options if options is not None else TokenizerOptions()
    return build_index([tokenize(t, opts) for t in raw_texts], paths, opts)


def vectorize_tokens(tokens: list[str], index: Index) -> QueryVector:
    """Query vector over the index vocabulary.

    The tf denominator is the full token count including terms absent from
    the vocabulary; those terms then simply contribute no component.
    """
    counts: dict[str, int] = {}
    for term in tokens:
        counts[term] = counts.get(term, 0) + 1
    c_q = len(tokens)
    weights: dict[int, float] = {}
    for term, c_tq in counts.items():
        term_id = index.term_id(term)
        if term_id is None:
            continue
        w = tf(c_tq, c_q) * idf(index.doc_freq[term_id], index.n_docs)
        if w != 0.0:
            weights[term_id] = w
    return QueryVector(c_q, weights, _vector_norm(weights))


def vectorize_query(text: str, index: Index) -> QueryVector:
    return vectorize_tokens(tokenize(text, index.options), index)


def query_dense(query: QueryVector, index: Index) -> np.ndarray:
    dense = np.zeros(len(index.vocabulary), dtype=np.float64)
    for term_id, w in query.weights.items():
        dense[term_id] = w
    return dense


def save_index(index: Index, path: str) -> None:
    payload = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "options": {
            "stemming": index.options.stemming,
            "min_token_length": index.options.min_token_length,
            "stopwords": sorted(index.options.stopwords),
        },
        "paths": list(index.paths),
        "vocabulary": list(index.vocabulary),
        "doc_freq": list(index.doc_freq),
        "vectors": [
            {
                "doc_id": v.doc_id,
                "term_count": v.term_count,
                "norm": v.norm,
                "weights": {str(t): w for t, w in sorted(v.weights.items())},
            }
            for v in index.vectors
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False)
        fh.write("\n")


def load_index(path: str) -> Index:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise IndexFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != INDEX_FORMAT:
        raise IndexFormatError(f"{path}: not a {INDEX_FORMAT} file")
    if payload.get("version") != INDEX_VERSION:
        raise IndexFormatError(
            f"{path}: unsupported index version {payload.get('version')!r}"
        )
    try:
        opts = TokenizerOptions(
            stemming=bool(payload["options"]["stemming"]),
            min_token_length=int(payload["options"]["min_token_length"]),
            stopwords=frozenset(payload["options"]["stopwords"]),
        )
        vectors = tuple(
            DocumentVector(
                doc_id=int(v["doc_id"]),
                term_count=int(v["term_count"]),
                weights={int(t): float(w) for t, w in v["weights"].items()},
                norm=float(v["norm"]),
            )
            for v in payload["vectors"]
        )
        index = Index(
            options=opts,
            paths=tuple(payload["paths"]),
            vocabulary=tuple(payload["vocabulary"]),
            doc_freq=tuple(int(d) for d in payload["doc_freq"]),
            vectors=vectors,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise IndexFormatError(f"{path}: malformed index payload: {exc}") from exc
    if len(index.vectors) != len(index.paths):
        raise IndexFormatError(f"{path}: vector count does not match path count")
    if len(index.doc_freq) != len(index.vocabulary):
        raise IndexFormatError(f"{path}: doc_freq length does not match vocabulary size")
    for position, v in enumerate(index.vectors):
        if v.doc_id != position:
            raise IndexFormatError(
                f"{path}: vector {position} has doc_id {v.doc_id}; "
                "vectors must be stored in doc_id order")
    # One pass over the arrays that ranking builds anyway, and caches.
    try:
        _, indices, data, norms = index.csr()
    except OverflowError as exc:
        raise IndexFormatError(f"{path}: term id out of range: {exc}") from exc
    if indices.size and (indices.min() < 0 or indices.max() >= len(index.vocabulary)):
        raise IndexFormatError(f"{path}: term id out of range of the vocabulary")
    if not (np.isfinite(data).all() and np.isfinite(norms).all()):
        raise IndexFormatError(f"{path}: non-finite weight or norm")
    return index
