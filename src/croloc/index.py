"""The English layer of the pipeline: the tokenizer, and tf-idf indexing of
the tokenized source documents.

Weighting follows the classic bug-localization setup: for a term occurring
c_td times in a document of c_d tokens,

    tf  = ln(c_td / c_d + 1)
    idf = ln(n_docs / df)
    w   = tf * idf

and documents are compared by cosine over these weights. All logs natural.

Tokenizing, building and saving an index need no numpy, so the ``index``
command and the processes it forks never load it: this module imports numpy
only where it makes numpy arrays.
"""
from __future__ import annotations

import functools
import json
import math
import os
import re
import sys
from array import array
from collections import Counter
from collections.abc import Iterable, Sequence
from importlib import resources
from itertools import chain, pairwise
from typing import TYPE_CHECKING, NamedTuple

from .corpus import check_record, write_atomically
from .errors import IndexFormatError

if TYPE_CHECKING:
    import numpy as np

# The tokenizer drops these words and tokens shorter than MIN_TOKEN_LENGTH.
STOPWORDS = frozenset(
    resources.files("croloc.data").joinpath("stopwords_en.txt").read_text("utf-8").split())
MIN_TOKEN_LENGTH = 2


# Words are maximal alphanumeric runs: [^\W_] is exactly str.isalnum().
_WORD = re.compile(r"[^\W_]+")
# Pieces of a word where ASCII meets non-ASCII, so that glossary output glued
# directly against Japanese text still separates into clean tokens.
_SCRIPT_PIECE = re.compile(r"[\x00-\x7f]+|[^\x00-\x7f]+")
# Fragments of an ASCII piece at camelCase and letter/digit boundaries; an
# acronym run keeps its tail capital with the following word
# (HTTPServer -> HTTP, Server).
_ASCII_FRAGMENT = re.compile(r"[0-9]+|[A-Z]?[a-z]+|[A-Z]+(?![a-z])")

# The tokens of each word met so far, one memo per stemming setting
# (``_MEMOS[stemming]``). A memo that reaches _MEMO_SIZE words is emptied.
_MEMOS: tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]] = ({}, {})
_MEMO_SIZE = 1 << 16


def _word_tokens(word: str, stemming: bool) -> tuple[str, ...]:
    """Tokens of one alphanumeric word; they depend on nothing else."""
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
        if token in STOPWORDS or len(token) < MIN_TOKEN_LENGTH:
            continue
        if stemming:
            # Imported here, so that an index built without stemming does
            # not load the stemmer.
            from .porter import stem as porter_stem

            token = porter_stem(token)
        out.append(token)
    return tuple(out)


def tokenize(text: str, stemming: bool = False) -> list[str]:
    """Token stream of a text: identifier-aware, lowercased, stopped, and
    optionally stemmed.

    Words are maximal alphanumeric runs (underscore separates). Each word is
    split at script boundaries; ASCII pieces additionally split at camelCase
    and letter/digit boundaries, with pure-digit fragments dropped. A piece
    that splits into two or more fragments and contains no digit also emits
    itself whole, before its fragments. Stemming, when enabled, runs last.
    """
    memo = _MEMOS[stemming]
    tokens: list[str] = []
    for word in _WORD.findall(text):
        found = memo.get(word)
        if found is None:
            if len(memo) >= _MEMO_SIZE:
                memo.clear()
            found = memo[word] = _word_tokens(word, stemming)
        tokens += found
    return tokens


def clear_memo() -> None:
    """Empty the word memos."""
    for memo in _MEMOS:
        memo.clear()


INDEX_FORMAT = "croloc-index"
INDEX_VERSION = 4

# The index's arrays, in file order, each with the typecode of its elements.
_ARRAYS = {"indptr": "q", "indices": "q", "data": "d", "norms": "d", "term_counts": "q"}
# The numpy type of each typecode: little-endian whatever the machine's order.
_DTYPES = {"q": "<i8", "d": "<f8"}


def idf(doc_freq: int, n_docs: int) -> float:
    """ln(n_docs / df); a term present in every document weighs 0."""
    if doc_freq <= 0 or n_docs <= 0:
        return 0.0
    return math.log(n_docs / doc_freq)


class DocumentVector(NamedTuple):
    """tf-idf weights of one document, keyed by term id; zero weights omitted."""

    term_count: int
    weights: dict[int, float]
    norm: float


class QueryVector(NamedTuple):
    weights: dict[int, float]
    norm: float


def gather(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions ``starts[i]`` to ``starts[i] + lengths[i] - 1`` of each
    range in turn, as one array."""
    import numpy as np

    # Entry j of the i-th range is at starts[i] + j.
    firsts = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum()) + np.repeat(starts - firsts, lengths)


def transpose(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
              n_terms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The term→row postings of the CSR rows (indptr, indices, data):
    (ptr, rows, weights), where term t's postings are the entries
    ``ptr[t]:ptr[t + 1]`` of ``rows`` and ``weights``, in ascending row
    order."""
    import numpy as np

    # A stable sort keeps each term's entries in row order.
    order = np.argsort(indices, kind="stable")
    rows = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))
    ptr = np.zeros(n_terms + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n_terms), out=ptr[1:])
    return ptr, rows[order], data[order]


class QueryRows:
    """Query vectors as the rows of a CSR matrix, laid out as the index's
    documents are: row i's weights are ``data[indptr[i]:indptr[i + 1]]``
    over the ascending term ids in the same slice of ``indices``, and
    ``norms[i]`` is its norm. The four are numpy arrays, over the buffers
    given if they are ``array.array``s."""

    def __init__(self, indptr: array | np.ndarray, indices: array | np.ndarray,
                 data: array | np.ndarray, norms: array | np.ndarray):
        import numpy as np

        self.indptr, self.indices, self.data, self.norms = map(
            np.asarray, (indptr, indices, data, norms))

    def __len__(self) -> int:
        return len(self.norms)

    def take(self, rows: Sequence[int]) -> "QueryRows":
        """The rows numbered ``rows``, in that order."""
        import numpy as np

        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        entries = gather(starts, lengths)
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        return QueryRows(indptr, self.indices[entries], self.data[entries], self.norms[rows])


def _array_view(name: str) -> functools.cached_property:
    """The index's array ``name`` as a numpy array over its buffer, made on
    first access."""
    def view(self: Index) -> np.ndarray:
        import numpy as np

        return np.asarray(self.buffers[name])
    return functools.cached_property(view)


class IndexMeta(NamedTuple):
    """An index file's metadata line, checked (``read_index_meta``): the
    tokenizer's stemming setting, the paths in doc id order, the vocabulary
    in term id order, each term's document frequency and ``nnz``, the number
    of stored weights, with ``offset``, the line's length in bytes, where
    the arrays start. Weighing queries needs nothing more of an index
    (``query_weights``), and none of it is a numpy array."""

    stemming: bool
    paths: tuple[str, ...]
    vocabulary: tuple[str, ...]
    doc_freq: tuple[int, ...]
    nnz: int
    offset: int

    @property
    def term_ids(self) -> dict[str, int]:
        """Id of each vocabulary term."""
        return {t: i for i, t in enumerate(self.vocabulary)}

    @property
    def idfs(self) -> array:
        """Each term's idf, ``idf(doc_freq[t], n_docs)``."""
        return array("d", [idf(df, len(self.paths)) for df in self.doc_freq])


class Index:
    """A tf-idf index. Document d's weights are the CSR row
    ``data[indptr[d]:indptr[d + 1]]`` over the term ids in the same slice of
    ``indices``, which ascend within each row; ``norms[d]`` is the row's
    Euclidean norm and ``term_counts[d]`` the document's token count.

    ``buffers`` holds those five arrays as given: ``array.array``s of int64
    (``q``) and float64 (``d``) elements from ``build_index``, numpy arrays
    from ``load_index``. The attributes are numpy arrays over them, made on
    first access, so that building and saving an index never load numpy."""

    indptr, indices, data, norms, term_counts = map(_array_view, _ARRAYS)

    def __init__(self, stemming: bool, paths: tuple[str, ...], vocabulary: tuple[str, ...],
                 doc_freq: tuple[int, ...], indptr: array | np.ndarray,
                 indices: array | np.ndarray, data: array | np.ndarray,
                 norms: array | np.ndarray, term_counts: array | np.ndarray):
        self.stemming, self.paths, self.vocabulary, self.doc_freq = (
            stemming, paths, vocabulary, doc_freq)
        self.buffers = dict(zip(_ARRAYS, (indptr, indices, data, norms, term_counts)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Index):
            return NotImplemented
        import numpy as np

        return (
            (self.stemming, self.paths, self.vocabulary, self.doc_freq)
            == (other.stemming, other.paths, other.vocabulary, other.doc_freq)
            and all(np.array_equal(getattr(self, k), getattr(other, k)) for k in _ARRAYS)
        )

    @property
    def n_docs(self) -> int:
        return len(self.paths)

    @property
    def vectors(self) -> tuple[DocumentVector, ...]:
        """Per-document vectors, rebuilt from the arrays on every access."""
        indptr, indices, data = self.indptr.tolist(), self.indices.tolist(), self.data.tolist()
        return tuple(DocumentVector(count, dict(zip(indices[lo:hi], data[lo:hi])), norm)
                     for lo, hi, count, norm in zip(indptr, indptr[1:], self.term_counts.tolist(),
                                                    self.norms.tolist()))

    # Built once per index, as IndexMeta builds them on each access.
    term_ids = functools.cached_property(IndexMeta.term_ids.fget)
    idfs = functools.cached_property(IndexMeta.idfs.fget)

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
        return transpose(indptr, indices, data, len(self.vocabulary))

    @functools.cached_property
    def path_rank(self) -> np.ndarray:
        """Position of each document's path in lexicographic path order,
        built once; the tie-break key of every ranking."""
        import numpy as np

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


def _weigh(counted: Iterable[tuple[int, Counter[str]]], term_ids: dict[str, int],
           idfs: Sequence[float]) -> tuple[array, array, array, array]:
    """CSR (indptr, indices, data, norms) of rows given as (c_d, counts):
    a token list's length and the ``Counter`` of its tokens. Each row holds
    ``ln(c_td / c_d + 1) * idfs[t]`` over its ascending term ids t, a token
    outside ``term_ids`` counting in c_d and in no term; zero weights are
    dropped, and each norm is the square root of its row's ``math.fsum`` of
    squares."""
    indptr, indices, data, norms = [0], [], [], []
    tfs: dict[tuple[int, int], float] = {}  # ln(c_td / c_d + 1) of each pair met
    term_id, log, fsum, sqrt = term_ids.get, math.log, math.fsum, math.sqrt
    for n, counts in counted:
        by_id = {term_id(term): c for term, c in counts.items()}
        by_id.pop(None, None)
        row = []
        for t in sorted(by_id):
            c = by_id[t]
            tf = tfs.get((c, n))
            if tf is None:
                tf = tfs[c, n] = log(c / n + 1.0)
            if w := tf * idfs[t]:
                indices.append(t)
                row.append(w)
        data += row
        norms.append(sqrt(fsum([w * w for w in row])))
        indptr.append(len(indices))
    return array("q", indptr), array("q", indices), array("d", data), array("d", norms)


def build_index(
    token_lists: list[list[str]],
    paths: list[str],
    stemming: bool = False,
) -> Index:
    """Index pre-tokenized documents given in doc_id order.

    Vocabulary ids follow sorted term order, so the index is identical no
    matter how the corpus was traversed.
    """
    if len(token_lists) != len(paths):
        raise ValueError("token_lists and paths must be parallel")
    n_docs = len(paths)
    counted = [(len(tokens), Counter(tokens)) for tokens in token_lists]
    # Iterating a Counter yields its distinct tokens: one per document.
    docs_with = Counter(chain.from_iterable(counts for _, counts in counted))
    vocabulary = tuple(sorted(docs_with))
    doc_freq = tuple(map(docs_with.__getitem__, vocabulary))
    rows = _weigh(counted, {t: i for i, t in enumerate(vocabulary)},
                  [idf(df, n_docs) for df in doc_freq])
    return Index(stemming, tuple(paths), vocabulary, doc_freq, *rows,
                 array("q", [n for n, _ in counted]))


def query_weights(token_lists: Sequence[list[str]],
                  index: Index | IndexMeta) -> tuple[array, array, array, array]:
    """The CSR (indptr, indices, data, norms) of ``query_rows``, as
    ``array.array``s made without numpy."""
    return _weigh(((len(tokens), Counter(tokens)) for tokens in token_lists),
                  index.term_ids, index.idfs)


def query_rows(token_lists: Sequence[list[str]], index: Index | IndexMeta) -> QueryRows:
    """The query vector of each token list over the index vocabulary, one
    row each, weighed as the index's documents are: the tf denominator
    counts every token, and terms outside the vocabulary are skipped."""
    return QueryRows(*query_weights(token_lists, index))


def vectorize_query(text: str, index: Index) -> QueryVector:
    """One text's row of ``query_rows``, as a dict. No command calls it;
    perfbench's reference scorer and tracer look it up."""
    rows = query_rows([tokenize(text, index.stemming)], index)
    return QueryVector(dict(zip(rows.indices.tolist(), rows.data.tolist())),
                       float(rows.norms[0]))


def save_index(index: Index, path: str) -> None:
    """Write the index in format 4, without numpy. The first line is one
    UTF-8 JSON object: the format marker, version, tokenizer options, paths,
    vocabulary, document frequencies and ``nnz``, the number of stored
    weights. Spaces pad it to end, with its newline, at a multiple of 8
    bytes, so that each array after it is aligned in the file for a reader
    that views the arrays in place over the whole file. The five arrays
    follow in ``_ARRAYS`` order as little-endian int64 and float64 elements.
    The bytes depend on the index alone. The file is replaced only once it
    is complete."""
    meta = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "options": {
            "stemming": index.stemming,
            "min_token_length": MIN_TOKEN_LENGTH,
            "stopwords": sorted(STOPWORDS),
        },
        "paths": index.paths,
        "vocabulary": index.vocabulary,
        "doc_freq": index.doc_freq,
        "nnz": len(index.buffers["indices"]),
    }
    line = json.dumps(meta, ensure_ascii=False).encode("utf-8")
    with write_atomically(path, binary=True) as fh:
        fh.write(line + b" " * (-(len(line) + 1) % 8) + b"\n")
        for name, code in _ARRAYS.items():
            fh.write(_little_endian(index.buffers[name], code))


def _little_endian(buffer: array | np.ndarray, code: str) -> array:
    """The elements of ``buffer`` as an array of typecode ``code`` that holds
    them little-endian, whatever this machine's byte order."""
    if isinstance(buffer, array) and buffer.typecode == code and sys.byteorder == "little":
        return buffer
    elements = array(code, buffer)  # a copy: the index keeps its own
    if sys.byteorder == "big":
        elements.byteswap()
    return elements


# The tokenizer options in an index's metadata, each a ``typed`` kind.
_OPTIONS = {"stemming": bool, "min_token_length": int, "stopwords": list}
_REBUILD = "an index written by another croloc version must be rebuilt with 'croloc index'"


def read_index_meta(path: str) -> IndexMeta:
    """The metadata line of an index file that ``save_index`` wrote, read
    and checked without numpy: its format marker and version, tokenizer
    options, paths, vocabulary, document frequencies and ``nnz``, and that
    as many bytes follow it as its arrays take. Anything else raises
    ``IndexFormatError``."""
    with open(path, "rb") as fh:
        line, size = fh.readline(), os.fstat(fh.fileno()).st_size
    try:
        if not line.endswith(b"\n"):
            raise ValueError("no metadata line")
        meta = json.loads(line.decode("utf-8"))
    # json.loads raises RecursionError for JSON nested too deep.
    except (ValueError, RecursionError) as exc:
        raise IndexFormatError(
            f"{path}: not a {INDEX_FORMAT} version {INDEX_VERSION} file ({exc}); {_REBUILD}"
        ) from exc
    if not isinstance(meta, dict) or meta.get("format") != INDEX_FORMAT:
        raise IndexFormatError(f"{path}: not a {INDEX_FORMAT} file")
    if meta.get("version") != INDEX_VERSION:
        raise IndexFormatError(
            f"{path}: unsupported index version {meta.get('version')!r}; {_REBUILD}")
    where = f"{path}: malformed index payload: meta"
    options = check_record(meta.get("options"), _OPTIONS, _OPTIONS, IndexFormatError,
                           f"{where} options")
    if options["min_token_length"] != MIN_TOKEN_LENGTH or set(options["stopwords"]) != STOPWORDS:
        raise IndexFormatError(
            f"{path}: built with a minimum token length or stop list other than "
            "croloc's own; rebuild it with 'croloc index'")
    fields = check_record(meta, {"paths": list, "vocabulary": list, "nnz": int},
                          ("paths", "vocabulary", "nnz"), IndexFormatError, where)
    doc_freq = meta.get("doc_freq")
    if not (isinstance(doc_freq, list) and all(type(df) is int for df in doc_freq)):
        raise IndexFormatError(f"{where}: doc_freq must be a list of integers")
    if fields["nnz"] < 0:
        raise IndexFormatError(f"{where}: nnz must not be negative")
    index_meta = IndexMeta(options["stemming"], tuple(fields["paths"]),
                           tuple(fields["vocabulary"]), tuple(doc_freq), fields["nnz"], len(line))
    # Checked before any array exists, so that no stated size allocates.
    _check_body_size(path, size - len(line), index_meta)
    return index_meta


def _array_lengths(meta: IndexMeta) -> dict[str, int]:
    """The number of elements of each of the index's arrays."""
    n_docs = len(meta.paths)
    return {"indptr": n_docs + 1, "indices": meta.nnz, "data": meta.nnz,
            "norms": n_docs, "term_counts": n_docs}


def _check_body_size(path: str, n_bytes: int, meta: IndexMeta) -> None:
    """Raise ``IndexFormatError`` unless ``n_bytes`` is what ``meta``'s arrays take."""
    expected = 8 * sum(_array_lengths(meta).values())
    if n_bytes != expected:
        raise IndexFormatError(
            f"{path}: {n_bytes} bytes after the metadata line, expected "
            f"{expected} for {len(meta.paths)} paths and {meta.nnz} stored weights")


def load_index(path: str, meta: IndexMeta | None = None) -> Index:
    """Read an index written by ``save_index``: ``read_index_meta`` of
    ``path``, unless ``meta`` is what it returned, then the arrays after the
    line. Anything that is not such a file, or whose body could not rank
    correctly, raises ``IndexFormatError``."""
    if meta is None:
        meta = read_index_meta(path)
    # The arrays are views of the bytes after the line, which the index
    # keeps without the line's.
    with open(path, "rb") as fh:
        fh.seek(meta.offset)
        body = fh.read()
    _check_body_size(path, len(body), meta)  # the file may have changed since
    import numpy as np

    arrays, start = [], 0
    for code, length in zip(_ARRAYS.values(), _array_lengths(meta).values()):
        arrays.append(np.frombuffer(body, _DTYPES[code], length, start))
        start += 8 * length
    index = Index(meta.stemming, meta.paths, meta.vocabulary, meta.doc_freq, *arrays)
    problem = _array_problem(index)
    if problem:
        raise IndexFormatError(f"{path}: {problem}")
    return index


def _array_problem(index: Index) -> str | None:
    """What makes the index's arrays unfit to rank with, or None."""
    import numpy as np

    n_docs, n_terms = index.n_docs, len(index.vocabulary)
    indptr, indices, data = index.indptr, index.indices, index.data
    # Term ids follow the vocabulary's order, as build_index sorts it.
    if any(a >= b for a, b in pairwise(index.vocabulary)):
        return "vocabulary terms must ascend strictly"
    if len(set(index.paths)) != n_docs:
        return "a path is repeated"
    if len(index.doc_freq) != n_terms:
        return "doc_freq length does not match vocabulary size"
    if n_terms and not 1 <= min(index.doc_freq) <= max(index.doc_freq) <= n_docs:
        return "document frequency outside 1..number of documents"
    if indptr[0] != 0 or indptr[-1] != len(indices) or (np.diff(indptr) < 0).any():
        return "indptr must rise from 0 to the number of stored weights"
    if indices.size and (indices.min() < 0 or indices.max() >= n_terms):
        return "term id out of range of the vocabulary"
    rows = np.repeat(np.arange(n_docs), np.diff(indptr))
    if ((rows[1:] == rows[:-1]) & (indices[1:] <= indices[:-1])).any():
        return "term ids must ascend strictly within each row"
    # A term in every document weighs 0 (idf ln 1) and is stored in no row.
    stored = np.bincount(indices, minlength=n_terms)
    doc_freq = np.array(index.doc_freq, dtype=np.int64)
    if ((stored != doc_freq) & ((stored != 0) | (doc_freq != n_docs))).any():
        return "a document frequency differs from the number of rows that store its term"
    if not (np.isfinite(data).all() and np.isfinite(index.norms).all()):
        return "non-finite weight or norm"
    with np.errstate(over="ignore"):  # an overflowing square differs from any finite norm
        norms = np.sqrt(np.bincount(rows, weights=data * data, minlength=n_docs))
    if not np.allclose(index.norms, norms, rtol=1e-9, atol=0.0):
        return "a norm differs from the Euclidean norm of its row"
    # A float64 count of 1 or more, stored where an int64 belongs, reads as 2**53 or more.
    if ((index.term_counts < 0) | (index.term_counts >= 2 ** 53)).any():
        return "term count outside 0 to 2**53 - 1"
    return None
