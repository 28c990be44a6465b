"""tf-idf indexing of tokenized source documents. The tokenizer lives in
``croloc.terms``; ``tokenize``, ``STOPWORDS`` and ``MIN_TOKEN_LENGTH`` are
importable from here too.

Weighting follows the classic bug-localization setup: for a term occurring
c_td times in a document of c_d tokens,

    tf  = ln(c_td / c_d + 1)
    idf = ln(n_docs / df)
    w   = tf * idf

and documents are compared by cosine over these weights. All logs natural.
"""
from __future__ import annotations

import functools
import io
import json
import math
import re
import zipfile
from collections.abc import Sequence
from itertools import chain, pairwise, repeat
from typing import NamedTuple

import numpy as np
from numpy.lib import format as npy

from .corpus import check_record, write_atomically
from .errors import IndexFormatError
# Re-exported: locate looks tokenize up here, so a wrapper set here sees its calls.
from .terms import MIN_TOKEN_LENGTH, STOPWORDS, tokenize  # noqa: F401

INDEX_FORMAT = "croloc-index"
INDEX_VERSION = 3


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
    # Entry j of the i-th range is at starts[i] + j.
    firsts = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum()) + np.repeat(starts - firsts, lengths)


def transpose(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
              n_terms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The term→row postings of the CSR rows (indptr, indices, data):
    (ptr, rows, weights), where term t's postings are the entries
    ``ptr[t]:ptr[t + 1]`` of ``rows`` and ``weights``, in ascending row
    order."""
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
    ``norms[i]`` is its norm."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                 norms: np.ndarray):
        self.indptr, self.indices, self.data, self.norms = indptr, indices, data, norms

    def __len__(self) -> int:
        return len(self.norms)

    def take(self, rows: Sequence[int]) -> "QueryRows":
        """The rows numbered ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        entries = gather(starts, lengths)
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        return QueryRows(indptr, self.indices[entries], self.data[entries], self.norms[rows])


class Index:
    """A tf-idf index. Document d's weights are the CSR row
    ``data[indptr[d]:indptr[d + 1]]`` over the term ids in the same slice of
    ``indices``, which ascend within each row; ``norms[d]`` is the row's
    Euclidean norm and ``term_counts[d]`` the document's token count."""

    def __init__(self, stemming: bool, paths: tuple[str, ...], vocabulary: tuple[str, ...],
                 doc_freq: tuple[int, ...], indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray, norms: np.ndarray, term_counts: np.ndarray):
        self.stemming, self.paths, self.vocabulary, self.doc_freq = (
            stemming, paths, vocabulary, doc_freq)
        self.indptr, self.indices, self.data, self.norms, self.term_counts = (
            indptr, indices, data, norms, term_counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Index):
            return NotImplemented
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
        return transpose(indptr, indices, data, len(self.vocabulary))

    @functools.cached_property
    def idfs(self) -> np.ndarray:
        """Each term's idf, ``idf(doc_freq[t], n_docs)``, computed once."""
        return np.array([idf(df, self.n_docs) for df in self.doc_freq], dtype=np.float64)

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


def _count(token_lists: Sequence[list[str]], term_ids: dict[str, int]) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lengths, rows, terms, tfs): each token list's length c_d, and each
    distinct (row, term id) pair of its tokens, in row order and then term
    order, with its tf, ln(c_td / c_d + 1). A token outside ``term_ids``
    counts in c_d and in no term."""
    n_rows, n_terms = len(token_lists), len(term_ids)
    lengths = np.fromiter(map(len, token_lists), dtype=np.int64, count=n_rows)
    # One key per token, row * n_terms + term id. Sorted, equal keys run
    # together, in row order and with ascending term ids within each row; a
    # token outside term_ids keys past them all and is cut off. Each step
    # drops what the next no longer needs, build_index's term ids first: the
    # token lists are alive throughout, so what this adds on top sets the
    # build's peak memory.
    past = n_rows * n_terms
    keys = np.fromiter(map(term_ids.get, chain.from_iterable(token_lists), repeat(past)),
                       dtype=np.int64, count=int(lengths.sum()))
    del term_ids
    keys += np.repeat(np.arange(n_rows, dtype=np.int64) * n_terms, lengths)
    keys.sort()
    keys = keys[:np.searchsorted(keys, past)]
    run_start = np.empty(len(keys), dtype=bool)
    run_start[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    counts = np.diff(starts, append=len(keys))
    rows, terms = np.divmod(keys[starts], n_terms)
    del keys, run_start, starts
    # tf through math.log, each distinct value once.
    tf_values, tf_at = np.unique(counts / lengths[rows] + 1.0, return_inverse=True)
    del counts
    tfs = np.array([math.log(v) for v in tf_values.tolist()])[tf_at]
    del tf_at
    return lengths, rows, terms, tfs


def _weigh(lengths: np.ndarray, rows: np.ndarray, terms: np.ndarray, tfs: np.ndarray,
           idfs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """CSR (indptr, indices, data, norms) of ``_count``'s rows weighed by
    ``idfs``, overwriting ``tfs``: zero weights are dropped, and each norm
    is the square root of its row's ``math.fsum`` of squares."""
    tfs *= idfs[terms]
    keep = tfs != 0.0
    data, indices = tfs[keep], terms[keep]
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[keep], minlength=len(lengths)), out=indptr[1:])
    squares = data * data
    norms = np.sqrt([math.fsum(squares[lo:hi].tolist())
                     for lo, hi in pairwise(indptr.tolist())], dtype=np.float64)
    return indptr, indices, data, norms


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
    vocabulary = tuple(sorted(set(chain.from_iterable(token_lists))))
    term_counts, docs, terms, tfs = _count(token_lists,
                                           {t: i for i, t in enumerate(vocabulary)})
    doc_freq = np.bincount(terms, minlength=len(vocabulary))
    idfs = np.array([idf(df, n_docs) for df in doc_freq.tolist()], dtype=np.float64)
    return Index(stemming, tuple(paths), vocabulary, tuple(doc_freq.tolist()),
                 *_weigh(term_counts, docs, terms, tfs, idfs), term_counts)


def query_rows(token_lists: Sequence[list[str]], index: Index) -> QueryRows:
    """The query vector of each token list over the index vocabulary, one
    row each, weighed as the index's documents are: the tf denominator
    counts every token, and terms outside the vocabulary are skipped."""
    return QueryRows(*_weigh(*_count(token_lists, index.term_ids), index.idfs))


def vectorize_query(text: str, index: Index) -> QueryVector:
    """One text's row of ``query_rows``, as a dict. No command calls it;
    perfbench's reference scorer and tracer look it up."""
    rows = query_rows([tokenize(text, index.stemming)], index)
    return QueryVector(dict(zip(rows.indices.tolist(), rows.data.tolist())),
                       float(rows.norms[0]))


# The index's arrays as saved, with their dtypes.
_ARRAYS = {
    "indptr": np.dtype("<i8"),
    "indices": np.dtype("<i8"),
    "data": np.dtype("<f8"),
    "norms": np.dtype("<f8"),
    "term_counts": np.dtype("<i8"),
}
# The members of a saved index, in file order: UTF-8 JSON metadata as
# bytes, then the arrays.
_MEMBERS = {"meta": np.dtype("u1"), **_ARRAYS}


def save_index(index: Index, path: str) -> None:
    """Write the index as an uncompressed ``np.savez`` archive: one
    ``.npy`` member per array, and a ``meta`` member with the format marker,
    version, tokenizer options, paths, vocabulary and document frequencies
    as UTF-8 JSON. The bytes depend on the index alone, and the file is
    replaced only once it is complete."""
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
    }
    members = {"meta": np.frombuffer(json.dumps(meta, ensure_ascii=False).encode("utf-8"),
                                     dtype=_MEMBERS["meta"])}
    members.update((name, np.asarray(getattr(index, name), dtype=dtype))
                   for name, dtype in _ARRAYS.items())
    with write_atomically(path, binary=True) as fh:
        np.savez(fh, allow_pickle=False, **members)


def _npy_header(dtype: np.dtype, length: int) -> bytes:
    """The .npy header np.save writes for a 1-d array of ``length`` elements."""
    fp = io.BytesIO()
    npy.write_array_header_1_0(fp, {"descr": dtype.str, "fortran_order": False,
                                    "shape": (length,)})
    return fp.getvalue()


# The element count of an .npy header as np.save writes it for a 1-d array.
_NPY_LENGTH = re.compile(rb"\x93NUMPY\x01\x00..\{'descr': '[^']*', 'fortran_order': "
                         rb"False, 'shape': \((\d{1,20}),\), \} *\n", re.DOTALL)


def _read_member(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    """Member ``name`` as a 1-d array of its dtype. The member must be
    stored uncompressed, and start with the header np.save writes for such
    an array, which no parser reads: it is compared with the one written
    for the element count it states. Its data must fill exactly that count,
    which is checked before an array of that size exists."""
    info = archive.getinfo(f"{name}.npy")
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(f"member {name} is compressed")
    content = archive.read(info)
    dtype = _MEMBERS[name]
    match = _NPY_LENGTH.match(content)
    length = int(match[1]) if match else 0
    header = _npy_header(dtype, length)
    if not match or not content.startswith(header):
        raise ValueError(f"member {name} is not a 1-d {dtype.str} array in .npy format 1.0")
    if len(content) - len(header) != length * dtype.itemsize:
        raise ValueError(f"member {name} declares {length} elements "
                         f"but holds {len(content) - len(header)} bytes")
    return np.frombuffer(content, dtype=dtype, offset=len(header))


# The tokenizer options in an index's meta member, each a ``typed`` kind.
_OPTIONS = {"stemming": bool, "min_token_length": int, "stopwords": list}


def load_index(path: str) -> Index:
    """Read an index written by ``save_index``. Anything that is not such a
    file, or whose content could not rank correctly, raises
    ``IndexFormatError``; nothing is unpickled."""
    # Read whole, so that no size a member states makes zipfile read more.
    with open(path, "rb") as fh:
        content = fh.read()
    try:
        archive = zipfile.ZipFile(io.BytesIO(content))
    except zipfile.BadZipFile as exc:
        raise IndexFormatError(
            f"{path}: not a {INDEX_FORMAT} version {INDEX_VERSION} file ({exc}); "
            "an index written by an older croloc must be rebuilt with 'croloc index'"
        ) from exc
    try:
        names = archive.namelist()
        if names != [f"{name}.npy" for name in _MEMBERS]:
            raise ValueError(f"members {names}, expected {list(_MEMBERS)} as .npy")
        meta = json.loads(_read_member(archive, "meta").tobytes().decode("utf-8"))
        if not isinstance(meta, dict) or meta.get("format") != INDEX_FORMAT:
            raise IndexFormatError(f"{path}: not a {INDEX_FORMAT} file")
        if meta.get("version") != INDEX_VERSION:
            raise IndexFormatError(
                f"{path}: unsupported index version {meta.get('version')!r}"
            )
        where = f"{path}: malformed index payload: meta"
        options = check_record(meta.get("options"), _OPTIONS, _OPTIONS, IndexFormatError,
                               f"{where} options")
        if (options["min_token_length"] != MIN_TOKEN_LENGTH
                or set(options["stopwords"]) != STOPWORDS):
            raise IndexFormatError(
                f"{path}: built with a minimum token length or stop list other than "
                "croloc's own; rebuild it with 'croloc index'")
        lists = check_record(meta, {"paths": list, "vocabulary": list},
                             ("paths", "vocabulary"), IndexFormatError, where)
        doc_freq = meta.get("doc_freq")
        if not (isinstance(doc_freq, list) and all(type(df) is int for df in doc_freq)):
            raise IndexFormatError(f"{where}: doc_freq must be a list of integers")
        index = Index(
            options["stemming"],
            tuple(lists["paths"]),
            tuple(lists["vocabulary"]),
            tuple(doc_freq),
            *(_read_member(archive, name) for name in _ARRAYS),
        )
    # zipfile raises RuntimeError for an encrypted member and
    # NotImplementedError for one it cannot unpack; json.loads raises
    # RecursionError, a RuntimeError, for JSON nested too deep.
    except (zipfile.BadZipFile, EOFError, RuntimeError, NotImplementedError, KeyError,
            TypeError, ValueError, OverflowError) as exc:
        raise IndexFormatError(f"{path}: malformed index payload: {exc}") from exc
    problem = _array_problem(index)
    if problem:
        raise IndexFormatError(f"{path}: {problem}")
    return index


def _array_problem(index: Index) -> str | None:
    """What makes the index's arrays unfit to rank with, or None."""
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
    if (index.term_counts < 0).any():
        return "negative term count"
    return None
