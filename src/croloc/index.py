"""Tokenization and tf-idf indexing of source documents.

Weighting follows the classic bug-localization setup: for a term occurring
c_td times in a document of c_d tokens,

    tf  = ln(c_td / c_d + 1)
    idf = ln(n_docs / df)
    w   = tf * idf

and documents are compared by cosine over these weights. All logs natural.
"""
from __future__ import annotations

import functools
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .corpus import write_atomically
from .errors import IndexFormatError
from .porter import stem as porter_stem

INDEX_FORMAT = "croloc-index"
INDEX_VERSION = 2


@functools.cache
def default_stopwords() -> frozenset[str]:
    text = resources.files("croloc.data").joinpath("stopwords_en.txt").read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


@dataclass(frozen=True)
class TokenizerOptions:
    stemming: bool = False
    min_token_length: int = 2
    stopwords: frozenset[str] = field(default_factory=default_stopwords)


# Words are maximal alphanumeric runs: [^\W_] is exactly str.isalnum().
_WORD = re.compile(r"[^\W_]+")
# Pieces of a word where ASCII meets non-ASCII, so that glossary output glued
# directly against Japanese text still separates into clean tokens.
_SCRIPT_PIECE = re.compile(r"[\x00-\x7f]+|[^\x00-\x7f]+")
# Fragments of an ASCII piece at camelCase and letter/digit boundaries; an
# acronym run keeps its tail capital with the following word
# (HTTPServer -> HTTP, Server).
_ASCII_FRAGMENT = re.compile(r"[0-9]+|[A-Z]?[a-z]+|[A-Z]+(?![a-z])")


@functools.lru_cache(maxsize=1 << 16)
def _word_tokens(word: str, stopwords: frozenset[str], min_token_length: int,
                 stemming: bool) -> tuple[str, ...]:
    """Tokens of one alphanumeric word; they depend on nothing else. The
    options come as fields, whose hashes are cheaper than the dataclass's."""
    raw: list[str] = []
    for piece in _SCRIPT_PIECE.findall(word):
        if piece.isascii():
            fragments = _ASCII_FRAGMENT.findall(piece)
            subs = [f for f in fragments if not f.isdigit()]
            if len(subs) >= 2 and len(subs) == len(fragments):
                raw.append(piece)
            raw.extend(subs)
        else:
            raw.append(piece)
    out: list[str] = []
    for token in raw:
        token = token.lower()
        if token in stopwords:
            continue
        if len(token) < min_token_length:
            continue
        if stemming:
            token = porter_stem(token)
        out.append(token)
    return tuple(out)


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
    stopwords, min_length, stemming = opts.stopwords, opts.min_token_length, opts.stemming
    return [token for word in _WORD.findall(text)
            for token in _word_tokens(word, stopwords, min_length, stemming)]


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


@dataclass(eq=False)
class Index:
    """A tf-idf index. Document d's weights are the CSR row
    ``data[indptr[d]:indptr[d + 1]]`` over the term ids in the same slice of
    ``indices``, which ascend within each row; ``norms[d]`` is the row's
    Euclidean norm and ``term_counts[d]`` the document's token count."""

    options: TokenizerOptions
    paths: tuple[str, ...]
    vocabulary: tuple[str, ...]
    doc_freq: tuple[int, ...]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    norms: np.ndarray
    term_counts: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, Index):
            return NotImplemented
        return (
            (self.options, self.paths, self.vocabulary, self.doc_freq)
            == (other.options, other.paths, other.vocabulary, other.doc_freq)
            and all(np.array_equal(getattr(self, k), getattr(other, k)) for k in _ARRAYS)
        )

    @property
    def n_docs(self) -> int:
        return len(self.paths)

    @property
    def vectors(self) -> tuple[DocumentVector, ...]:
        """Per-document vectors, rebuilt from the arrays on every access."""
        indptr, indices, data = self.indptr.tolist(), self.indices.tolist(), self.data.tolist()
        return tuple(
            DocumentVector(d, count, dict(zip(indices[lo:hi], data[lo:hi])), norm)
            for d, (lo, hi, count, norm) in enumerate(
                zip(indptr, indptr[1:], self.term_counts.tolist(), self.norms.tolist()))
        )

    @functools.cached_property
    def term_ids(self) -> dict[str, int]:
        """Id of each vocabulary term, built once."""
        return {t: i for i, t in enumerate(self.vocabulary)}

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, data, norms) over doc_id order."""
        return self.indptr, self.indices, self.data, self.norms

    @functools.cached_property
    def postings(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The term→document transpose of the CSR matrix, built once:
        (ptr, docs, weights), where term t's postings are the entries
        ``ptr[t]:ptr[t + 1]`` of ``docs`` and ``weights``, in ascending
        doc id order."""
        indptr, indices, data, _ = self.csr()
        # A stable sort keeps each term's entries in row, hence doc id, order.
        order = np.argsort(indices, kind="stable")
        rows = np.repeat(np.arange(self.n_docs, dtype=np.int64), np.diff(indptr))
        ptr = np.zeros(len(self.vocabulary) + 1, dtype=np.int64)
        np.cumsum(np.bincount(indices, minlength=len(self.vocabulary)), out=ptr[1:])
        return ptr, rows[order], data[order]

    @functools.cached_property
    def path_rank(self) -> np.ndarray:
        """Position of each document's path in lexicographic path order,
        built once; the tie-break key of every ranking."""
        order = sorted(range(self.n_docs), key=self.paths.__getitem__)
        path_rank = np.empty(self.n_docs, dtype=np.int64)
        path_rank[order] = np.arange(self.n_docs)
        return path_rank

    @functools.cached_property
    def length_factor(self) -> np.ndarray:
        """rVSM's length factor of each document (``croloc.rank.length_factor``),
        built once."""
        from .rank import length_factor

        return length_factor(self.term_counts)


def stack_weights(rows: list[dict[int, float]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR (indptr, indices, data) of sparse weight rows, with term ids in
    ascending order within each row."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(w) for w in rows])
    nnz = int(indptr[-1])
    indices = np.fromiter((t for w in rows for t in sorted(w)), dtype=np.int64, count=nnz)
    data = np.fromiter((w[t] for w in rows for t in sorted(w)), dtype=np.float64, count=nnz)
    return indptr, indices, data


def _vector_norm(weights: dict[int, float]) -> float:
    return math.sqrt(math.fsum(w * w for w in weights.values()))


def tfidf_weights(tokens: list[str], term_ids: dict[str, int],
                  doc_freq: tuple[int, ...], n_docs: int) -> dict[int, float]:
    """tf-idf weights of a token stream, keyed by term id. The tf denominator
    counts every token, terms outside ``term_ids`` are skipped, and zero
    weights are dropped."""
    c_d = len(tokens)
    weights: dict[int, float] = {}
    for term, c_td in Counter(tokens).items():
        term_id = term_ids.get(term)
        if term_id is not None:
            w = tf(c_td, c_d) * idf(doc_freq[term_id], n_docs)
            if w != 0.0:
                weights[term_id] = w
    return weights


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
    df: Counter[str] = Counter()
    for tokens in token_lists:
        df.update(set(tokens))
    vocabulary = tuple(sorted(df))
    term_ids = {t: i for i, t in enumerate(vocabulary)}
    doc_freq = tuple(df[t] for t in vocabulary)
    rows = [tfidf_weights(tokens, term_ids, doc_freq, len(paths)) for tokens in token_lists]
    indptr, indices, data = stack_weights(rows)
    norms = np.array([_vector_norm(w) for w in rows], dtype=np.float64)
    term_counts = np.array([len(t) for t in token_lists], dtype=np.int64)
    return Index(opts, tuple(paths), vocabulary, doc_freq,
                 indptr, indices, data, norms, term_counts)


def index_documents(raw_texts: list[str], paths: list[str],
                    options: TokenizerOptions | None = None) -> Index:
    opts = options if options is not None else TokenizerOptions()
    token_lists = [tokenize(t, opts) for t in raw_texts]
    # The word memo has paid off once the corpus is tokenized; building and
    # saving the index reuse its memory instead of adding to it.
    _word_tokens.cache_clear()
    return build_index(token_lists, paths, opts)


def vectorize_tokens(tokens: list[str], index: Index) -> QueryVector:
    """Query vector over the index vocabulary, weighted as documents are."""
    weights = tfidf_weights(tokens, index.term_ids, index.doc_freq, index.n_docs)
    return QueryVector(len(tokens), weights, _vector_norm(weights))


def vectorize_query(text: str, index: Index) -> QueryVector:
    return vectorize_tokens(tokenize(text, index.options), index)


def query_dense(query: QueryVector, index: Index) -> np.ndarray:
    dense = np.zeros(len(index.vocabulary), dtype=np.float64)
    for term_id, w in query.weights.items():
        dense[term_id] = w
    return dense


# The index's arrays as saved, with their dtypes.
_ARRAYS = {
    "indptr": np.int64,
    "indices": np.int64,
    "data": np.float64,
    "norms": np.float64,
    "term_counts": np.int64,
}


def save_index(index: Index, path: str) -> None:
    """Write the index as one JSON object and a newline, the bytes of
    ``json.dump(payload, fh, ensure_ascii=False)``, serializing one value at
    a time so that at most one array exists as Python objects at once. The
    file is replaced only once it is complete."""
    payload = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "options": {
            "stemming": index.options.stemming,
            "min_token_length": index.options.min_token_length,
            "stopwords": sorted(index.options.stopwords),
        },
        "paths": index.paths,
        "vocabulary": index.vocabulary,
        "doc_freq": index.doc_freq,
        **{name: getattr(index, name) for name in _ARRAYS},
    }
    with write_atomically(path) as fh:
        separator = "{"
        for key, value in payload.items():
            if isinstance(value, np.ndarray):
                value = value.tolist()
            fh.write(f"{separator}{json.dumps(key)}: {json.dumps(value, ensure_ascii=False)}")
            separator = ", "
        fh.write("}\n")


def _typed_list(payload: dict, key: str, kinds: tuple[type, ...]) -> list:
    """payload[key], which must be a list whose elements are all of
    ``kinds``: numpy would coerce True, "3" or None without a word."""
    values = payload[key]
    if not isinstance(values, list) or not set(map(type, values)) <= set(kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"{key} must be a list of {names}")
    return values


def _array(payload: dict, key: str, dtype) -> np.ndarray:
    kinds = (int,) if dtype is np.int64 else (int, float)
    try:
        return np.array(_typed_list(payload, key, kinds), dtype=dtype)
    except OverflowError as exc:
        raise ValueError(f"{key} out of range: {exc}") from exc


def load_index(path: str) -> Index:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
        index = Index(
            opts,
            tuple(_typed_list(payload, "paths", (str,))),
            tuple(_typed_list(payload, "vocabulary", (str,))),
            tuple(_array(payload, "doc_freq", np.int64).tolist()),
            *(_array(payload, key, dtype) for key, dtype in _ARRAYS.items()),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise IndexFormatError(f"{path}: malformed index payload: {exc}") from exc
    problem = _array_problem(index)
    if problem:
        raise IndexFormatError(f"{path}: {problem}")
    return index


def _array_problem(index: Index) -> str | None:
    """What makes the index's arrays unfit to rank with, or None."""
    n_docs, n_terms = index.n_docs, len(index.vocabulary)
    indptr, indices, data = index.indptr, index.indices, index.data
    if len(index.doc_freq) != n_terms:
        return "doc_freq length does not match vocabulary size"
    if n_terms and not 1 <= min(index.doc_freq) <= max(index.doc_freq) <= n_docs:
        return "document frequency outside 1..number of documents"
    if not (len(indptr) == n_docs + 1 and len(index.norms) == len(index.term_counts) == n_docs):
        return "indptr, norms or term_counts length does not match the path count"
    if len(data) != len(indices):
        return "data and indices differ in length"
    if indptr[0] != 0 or indptr[-1] != len(indices) or (np.diff(indptr) < 0).any():
        return "indptr must rise from 0 to the number of stored weights"
    if indices.size and (indices.min() < 0 or indices.max() >= n_terms):
        return "term id out of range of the vocabulary"
    rows = np.repeat(np.arange(n_docs), np.diff(indptr))
    if ((rows[1:] == rows[:-1]) & (indices[1:] <= indices[:-1])).any():
        return "term ids must ascend strictly within each row"
    if not (np.isfinite(data).all() and np.isfinite(index.norms).all()):
        return "non-finite weight or norm"
    with np.errstate(over="ignore"):  # an overflowing square differs from any finite norm
        norms = np.sqrt(np.bincount(rows, weights=data * data, minlength=n_docs))
    if not np.allclose(index.norms, norms, rtol=1e-9, atol=0.0):
        return "a norm differs from the Euclidean norm of its row"
    if (index.term_counts < 0).any():
        return "negative term count"
    return None
