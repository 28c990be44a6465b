"""tf-idf indexing of tokenized source documents. The tokenizer lives in
``croloc.terms``; ``tokenize``, ``STOPWORDS`` and ``MIN_TOKEN_LENGTH`` are
importable from here too.

Weighting follows the classic bug-localization setup: for a term occurring
c_td times in a document of c_d tokens,

    tf  = ln(c_td / c_d + 1)
    idf = ln(n_docs / df)
    w   = tf * idf

and documents are compared by cosine over these weights. All logs natural.

Building and saving an index need no numpy, so the ``index`` command never
loads it: this module imports numpy only where it makes numpy arrays.
"""
from __future__ import annotations

import functools
import io
import json
import math
import re
import sys
import zipfile
from array import array
from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import chain, pairwise
from typing import IO, TYPE_CHECKING, NamedTuple

from .corpus import check_record, write_atomically
from .errors import IndexFormatError
# Re-exported: locate looks tokenize up here, so a wrapper set here sees its calls.
from .terms import MIN_TOKEN_LENGTH, STOPWORDS, tokenize  # noqa: F401

if TYPE_CHECKING:
    import numpy as np

INDEX_FORMAT = "croloc-index"
INDEX_VERSION = 3

# The index's arrays, each with the typecode of its elements.
_ARRAYS = {"indptr": "q", "indices": "q", "data": "d", "norms": "d", "term_counts": "q"}
# The members of a saved index, in file order: UTF-8 JSON metadata as
# bytes, then the arrays.
_MEMBERS = {"meta": "B", **_ARRAYS}
# The .npy type of each typecode: little-endian whatever the machine's order.
_DESCR = {"B": "|u1", "q": "<i8", "d": "<f8"}


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
    ``norms[i]`` is its norm."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                 norms: np.ndarray):
        self.indptr, self.indices, self.data, self.norms = indptr, indices, data, norms

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
    def idfs(self) -> array:
        """Each term's idf, ``idf(doc_freq[t], n_docs)``, computed once."""
        return array("d", [idf(df, self.n_docs) for df in self.doc_freq])

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


def query_rows(token_lists: Sequence[list[str]], index: Index) -> QueryRows:
    """The query vector of each token list over the index vocabulary, one
    row each, weighed as the index's documents are: the tf denominator
    counts every token, and terms outside the vocabulary are skipped."""
    import numpy as np

    rows = _weigh(((len(tokens), Counter(tokens)) for tokens in token_lists),
                  index.term_ids, index.idfs)
    return QueryRows(*map(np.asarray, rows))


def vectorize_query(text: str, index: Index) -> QueryVector:
    """One text's row of ``query_rows``, as a dict. No command calls it;
    perfbench's reference scorer and tracer look it up."""
    rows = query_rows([tokenize(text, index.stemming)], index)
    return QueryVector(dict(zip(rows.indices.tolist(), rows.data.tolist())),
                       float(rows.norms[0]))


def save_index(index: Index, path: str) -> None:
    """Write the index as the uncompressed ``np.savez`` archive of its
    members, byte for byte, without numpy: one ``.npy`` member per array,
    and a ``meta`` member with the format marker, version, tokenizer
    options, paths, vocabulary and document frequencies as UTF-8 JSON. The
    bytes depend on the index alone, and the file is replaced only once it
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
    }
    members = {"meta": (_DESCR["B"], json.dumps(meta, ensure_ascii=False).encode("utf-8"))}
    members.update((name, (_DESCR[code], _little_endian(index.buffers[name], code)))
                   for name, code in _ARRAYS.items())
    with write_atomically(path, binary=True) as fh:
        _write_npz(fh, members)


def _little_endian(buffer: array | np.ndarray, code: str) -> array:
    """The elements of ``buffer`` as an array of typecode ``code`` that holds
    them little-endian, whatever this machine's byte order."""
    if isinstance(buffer, array) and buffer.typecode == code and sys.byteorder == "little":
        return buffer
    elements = array(code, buffer)  # a copy: the index keeps its own
    if sys.byteorder == "big":
        elements.byteswap()
    return elements


def _write_npz(fh: IO[bytes], members: dict[str, tuple[str, bytes | array]]) -> None:
    """Write each member ``name: (descr, elements)``, a 1-d array of the
    ``.npy`` type ``descr`` held as little-endian elements, as ``np.savez``
    does: an archive of ``name.npy`` members in order, each stored
    uncompressed with zip64 extensions, and each a ``.npy`` 1.0 header
    followed by the elements."""
    with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as archive:
        for name, (descr, elements) in members.items():
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                member.write(_npy_header(descr, len(elements)))
                member.write(elements)


def _npy_header(descr: str, length: int) -> bytes:
    """The ``.npy`` 1.0 header np.save writes for a 1-d array of ``length``
    elements of type ``descr``. Its dict literal leaves room for the length
    to grow to 21 digits, and spaces and a newline pad the header to a
    multiple of 64 bytes, counting the magic string, version and the
    header's two-byte little-endian length."""
    text = (f"{{'descr': '{descr}', 'fortran_order': False, 'shape': ({length},), }}"
            + " " * (21 - len(str(length))))
    text += " " * (64 - (10 + len(text) + 1) % 64) + "\n"
    return b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text.encode("latin-1")


# The element count of an .npy header as np.save writes it for a 1-d array.
_NPY_LENGTH = re.compile(rb"\x93NUMPY\x01\x00..\{'descr': '[^']*', 'fortran_order': "
                         rb"False, 'shape': \((\d{1,20}),\), \} *\n", re.DOTALL)


def _read_member(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    """Member ``name`` as a 1-d numpy array of its type. The member must be
    stored uncompressed, and start with the header ``_npy_header`` writes
    for such an array, which no parser reads: it is compared with the one
    written for the element count it states. Its data must fill exactly
    that count, which is checked before an array of that size exists."""
    import numpy as np

    info = archive.getinfo(f"{name}.npy")
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(f"member {name} is compressed")
    content = archive.read(info)
    code = _MEMBERS[name]
    descr, itemsize = _DESCR[code], array(code).itemsize
    match = _NPY_LENGTH.match(content)
    length = int(match[1]) if match else 0
    header = _npy_header(descr, length)
    if not match or not content.startswith(header):
        raise ValueError(f"member {name} is not a 1-d {descr} array in .npy format 1.0")
    if len(content) - len(header) != length * itemsize:
        raise ValueError(f"member {name} declares {length} elements "
                         f"but holds {len(content) - len(header)} bytes")
    return np.frombuffer(content, dtype=descr, offset=len(header))


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
    # A central directory that states a zip version zipfile cannot read, or
    # a UTF-8 name that does not decode.
    except (NotImplementedError, ValueError) as exc:
        raise IndexFormatError(f"{path}: malformed index payload: {exc}") from exc
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
