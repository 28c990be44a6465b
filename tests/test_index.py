"""Tokenizer, weighting, and index persistence tests."""
from __future__ import annotations

import functools
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import croloc
import croloc.cli
import croloc.index
from croloc.corpus import Language, SourceDocument
from croloc.errors import IndexFormatError
from croloc.index import (
    MIN_TOKEN_LENGTH,
    STOPWORDS,
    Index,
    build_index,
    idf,
    load_index,
    query_rows,
    save_index,
    tokenize,
    vectorize_query,
)
from conftest import index_texts
from croloc.rank import make_ranking, vsm_scores
from reference import query_dense, ref_tokenize, tfidf_weights

ARRAY_NAMES = ("indptr", "indices", "data", "norms", "term_counts")


class TestTokenize:
    def test_camel_case_identifier(self):
        assert tokenize("getUserName") == ["getusername", "get", "user", "name"]

    def test_stopwords_dropped(self):
        assert tokenize("the file") == ["file"]

    def test_digit_pieces_dropped(self):
        assert tokenize("parse_error2x") == ["parse", "error"]

    def test_acronym_boundary(self):
        assert tokenize("XMLHttpRequest") == ["xmlhttprequest", "xml", "http", "request"]

    def test_underscore_splits_without_compound(self):
        # underscores break the alnum run, so no whole-identifier token
        assert tokenize("user_name") == ["user", "name"]

    def test_mixed_script_identifier(self):
        toks = tokenize("inventoryがsyncしない")
        assert "inventory" in toks
        assert "sync" in toks
        assert "が" not in toks  # single char, below min length
        assert "しない" in toks

    def test_japanese_run_kept_whole(self):
        # no segmentation knowledge: a Japanese run is one token
        assert tokenize("在庫同期") == ["在庫同期"]

    def test_case_folding_before_stopword_check(self):
        assert tokenize("The File") == ["file"]

    def test_min_length_filter(self):
        assert tokenize("a x of io") == ["io"]

    def test_stemming_applied_last(self):
        assert tokenize("parse_error2x", stemming=True) == ["pars", "error"]

    def test_stemming_whole_and_parts(self):
        assert tokenize("parsingErrors", stemming=True) == ["parsingerror", "pars", "error"]

    def test_compound_requires_two_subtokens(self):
        assert tokenize("request") == ["request"]

    def test_compound_blocked_by_digits(self):
        # letter-digit identifiers emit letter pieces but no compound
        toks = tokenize("sha256sum")
        assert toks == ["sha", "sum"]

    def test_empty_and_symbol_only(self):
        assert tokenize("") == []
        assert tokenize("!!! ---") == []

    def test_default_stopwords_loaded(self):
        words = STOPWORDS
        assert "the" in words
        assert "of" in words
        assert "file" not in words

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_tokens_are_lowercase_and_long_enough(self, text):
        for tok in tokenize(text):
            assert tok == tok.lower()
            assert len(tok) >= MIN_TOKEN_LENGTH
            assert tok not in STOPWORDS

    @given(st.text(max_size=60))
    @settings(max_examples=100)
    def test_tokenize_is_deterministic(self, text):
        assert tokenize(text) == tokenize(text)


# Pieces that exercise each tokenizer rule: camelCase and acronym runs,
# digits, underscores, Japanese, non-ASCII letters and digits, non-BMP code
# points and Unicode whitespace.
_TOKENIZER_PIECES = st.sampled_from([
    "get", "Get", "user", "Name", "HTTP", "Server", "URLs", "XMLHttp", "aB", "ABc",
    "x", "A", "io", "id", "the", "of", "file", "parsing", "Errors", "_", "__", "0",
    "42", "v2", "sha256sum", "修正", "する", "在庫同期", "カタカナ", "ﾊﾝｶｸ", "é", "ß",
    "İ", "ǅ", "Ω", "𝐀", "𠀋", "😀", "½", "²", "٣", " ", "\u3000", "\u2028",
    "\x1c", "\x85", "\t", "\n", ".", "-", "'",
])
_tokenizer_text = st.lists(
    st.one_of(_TOKENIZER_PIECES, st.characters(blacklist_categories=("Cs",))),
    max_size=40,
).map("".join)


class TestTokenizeOracle:
    """The regex tokenizer against the per-character one it replaced."""

    @given(text=_tokenizer_text, stemming=st.booleans())
    @example(text="parsingErrors getUserName", stemming=False)
    @example(text="parsingErrors getUserName", stemming=True)
    @settings(max_examples=400)
    def test_same_tokens_as_reference(self, text, stemming):
        assert tokenize(text, stemming) == ref_tokenize(text, stemming)

    @given(text=st.text(max_size=80))
    @settings(max_examples=200)
    def test_same_tokens_on_any_text(self, text):
        assert tokenize(text) == ref_tokenize(text)

    def test_word_class_is_isalnum_at_every_code_point(self):
        # Words are runs of [^\W_]; a Python whose re disagrees with
        # str.isalnum() anywhere would tokenize differently.
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"[^\W_]", every) == [c for c in every if c.isalnum()]

    @given(texts=st.lists(_tokenizer_text, max_size=6), bound=st.integers(1, 6),
           stemming=st.booleans())
    @settings(max_examples=200)
    def test_same_tokens_across_memo_clears(self, texts, bound, stemming):
        # With a memo of a few words, one text can fill it more than once;
        # each text is tokenized twice, the second time mostly from the memo.
        memo = croloc.index._MEMOS[stemming]
        with mock.patch.object(croloc.index, "_MEMO_SIZE", bound):
            croloc.index.clear_memo()
            try:
                for text in texts + texts:
                    assert tokenize(text, stemming) == ref_tokenize(text, stemming)
                    assert len(memo) <= bound
            finally:
                croloc.index.clear_memo()

    def test_index_documents_empties_the_memo(self):
        # The index command empties the memos once its corpus is tokenized;
        # build_index depends only on its arguments and leaves them alone.
        token_lists = [tokenize("getUserName"), tokenize("parsingErrors", True)]
        filled = [dict(memo) for memo in croloc.index._MEMOS]
        assert all(filled)
        build_index(token_lists, ["a.java", "b.java"])
        assert [dict(memo) for memo in croloc.index._MEMOS] == filled
        documents = [SourceDocument("A.java", Language.JAVA, b"class getUserName {}")]
        croloc.cli.index_documents(documents, False, None, None)
        assert not any(croloc.index._MEMOS)


class TestWeighting:
    @staticmethod
    def _weight(count, length):
        """The stored weight of a term that occurs ``count`` times in a
        query of ``length`` tokens, over an index where its idf is ln 2;
        0.0 when none is stored."""
        index = build_index([["term"], ["other"]], ["a", "b"])
        rows = query_rows([["term"] * count + ["zzz"] * (length - count)], index)
        return float(rows.data.sum())

    def test_tf_formula(self):
        assert self._weight(2, 10) == pytest.approx(math.log(2 / 10 + 1) * math.log(2))

    def test_tf_zero_length_doc(self):
        index = build_index([["term"], ["other"]], ["a", "b"])
        rows = query_rows([[]], index)
        assert rows.indptr.tolist() == [0, 0] and rows.norms.tolist() == [0.0]

    def test_tf_zero_count(self):
        assert self._weight(0, 10) == 0.0

    def test_idf_formula(self):
        assert idf(2, 8) == pytest.approx(math.log(4.0))

    def test_idf_term_in_every_doc(self):
        assert idf(8, 8) == 0.0

    def test_idf_unseen_term(self):
        assert idf(0, 8) == 0.0

    def test_tf_monotone_in_count(self):
        values = [self._weight(c, 50) for c in range(1, 20)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)


class TestBuildIndex:
    def _small(self):
        token_lists = [
            ["cache", "miss", "cache"],
            ["cache", "hit"],
            ["order", "total"],
        ]
        paths = ["a/Cache.java", "b/Hit.java", "c/Order.java"]
        return build_index(token_lists, paths), token_lists, paths

    def test_vocabulary_sorted_and_complete(self):
        index, _, _ = self._small()
        terms = list(index.vocabulary)
        assert terms == sorted(terms)
        assert set(terms) == {"cache", "miss", "hit", "order", "total"}

    def test_document_frequencies(self):
        index, _, _ = self._small()
        df = dict(zip(index.vocabulary, index.doc_freq))
        assert df == {"cache": 2, "miss": 1, "hit": 1, "order": 1, "total": 1}

    def test_weights_match_formula(self):
        index, token_lists, _ = self._small()
        tid = index.vocabulary.index("cache")
        vec = index.vectors[0]
        expected = math.log(2 / 3 + 1) * idf(2, 3)
        assert vec.weights[tid] == pytest.approx(expected, rel=1e-12)

    def test_zero_weight_terms_omitted(self):
        # a term present in every document has idf 0 and is dropped
        index = build_index([["common", "alpha"], ["common", "beta"]], ["a", "b"])
        tid = index.vocabulary.index("common")
        for vec in index.vectors:
            assert tid not in vec.weights

    def test_empty_document_gets_zero_norm(self):
        index = build_index([["term"], []], ["a", "b"])
        assert index.vectors[1].weights == {}
        assert index.vectors[1].norm == 0.0
        assert index.vectors[1].term_count == 0

    def test_norm_is_euclidean(self):
        index, _, _ = self._small()
        for vec in index.vectors:
            expected = math.sqrt(sum(w * w for w in vec.weights.values()))
            assert vec.norm == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_index([["a"]], ["x", "y"])

    def test_index_documents_tokenizes(self):
        index = index_texts(["cache miss", "order total"], ["a.java", "b.java"])
        assert set(index.vocabulary) == {"cache", "miss", "order", "total"}
        assert index.vectors[0].term_count == 2


class TestQueryVector:
    def test_oov_counts_in_denominator(self):
        index = build_index([["alpha", "beta"], ["gamma"]], ["a", "b"])
        rows = query_rows([["alpha", "alpha", "zzz"]], index)
        expected = math.log(2 / 3 + 1) * idf(1, 2)  # the unseen token counts toward the length, 3
        assert rows.indices.tolist() == [index.vocabulary.index("alpha")]
        assert rows.data[0] == pytest.approx(expected, rel=1e-12)

    def test_all_oov_query(self):
        index = build_index([["alpha"]], ["a"])
        rows = query_rows([["zzz", "yyy"]], index)
        assert rows.indptr.tolist() == [0, 0] and rows.norms.tolist() == [0.0]

    def test_vectorize_query_uses_index_options(self):
        index = index_texts(
            ["parsing errors happen", "order total"],
            ["a.java", "b.java"],
            stemming=True,
        )
        qv = vectorize_query("parsing errors", index)
        assert qv.weights  # stems line up only if the query was stemmed too
        stems = {index.vocabulary[tid] for tid in qv.weights}
        assert stems == {"pars", "error"}

    def test_query_dense_layout(self):
        index = build_index([["alpha", "beta"], ["beta"]], ["a", "b"])
        qv = vectorize_query("alpha", index)
        dense = query_dense(qv, index)
        assert dense.shape == (len(index.vocabulary),)
        tid = index.vocabulary.index("alpha")
        assert dense[tid] == pytest.approx(qv.weights[tid])
        assert dense.sum() == pytest.approx(sum(qv.weights.values()))


class TestCsr:
    def test_csr_reconstructs_vectors(self):
        index = build_index(
            [["cache", "miss", "cache"], ["cache", "hit"], []],
            ["a", "b", "c"],
        )
        indptr, indices, data, norms = index.csr()
        assert indptr[0] == 0
        assert indptr[-1] == len(indices) == len(data)
        for d, vec in enumerate(index.vectors):
            row = dict(
                zip(
                    indices[indptr[d] : indptr[d + 1]].tolist(),
                    data[indptr[d] : indptr[d + 1]].tolist(),
                )
            )
            assert row == pytest.approx(vec.weights)
            assert norms[d] == pytest.approx(vec.norm)

    def test_csr_column_ids_sorted_within_row(self):
        index = build_index([["zeta", "alpha", "mid"]], ["a"])
        indptr, indices, _, _ = index.csr()
        row = indices[indptr[0] : indptr[1]].tolist()
        assert row == sorted(row)

    def test_csr_cached(self):
        index = build_index([["alpha"]], ["a"])
        first = index.csr()
        second = index.csr()
        assert first[0] is second[0]


# Each array of a saved index in file order, with its numpy type.
_DTYPES = {"indptr": "<i8", "indices": "<i8", "data": "<f8", "norms": "<f8",
           "term_counts": "<i8"}


def _member_bytes(content: bytes) -> dict[str, bytes]:
    """A saved index's bytes cut into its metadata line (``meta``) and the
    bytes of each array, as its nnz and path count place them."""
    start = content.index(b"\n") + 1
    meta = json.loads(content[:start])
    n_docs, nnz = len(meta["paths"]), meta["nnz"]
    members = {"meta": content[:start]}
    for name, length in zip(_DTYPES, (n_docs + 1, nnz, nnz, n_docs, n_docs)):
        members[name] = content[start:start + 8 * length]
        start += 8 * length
    assert start == len(content)
    return members


def _write_members(path, members: dict[str, bytes]) -> None:
    """The members, as ``_member_bytes`` cuts them, one after another."""
    Path(path).write_bytes(b"".join(members.values()))


def _read_payload(path) -> dict:
    """A saved index as one dict: the fields of its metadata line, then
    each array as a writable array."""
    members = _member_bytes(Path(path).read_bytes())
    return {**json.loads(members.pop("meta")),
            **{name: np.frombuffer(members[name], _DTYPES[name]).copy() for name in _DTYPES}}


def _array_bytes(values: np.ndarray) -> bytes:
    """An array's elements as raw bytes; an array of Python objects, which
    has none, as the text of its elements."""
    return repr(values.tolist()).encode() if values.dtype.hasobject else values.tobytes()


def _write_payload(path, payload) -> None:
    """Write a payload as ``_read_payload`` returns it: its non-array fields
    as the metadata line, padded as ``save_index`` pads it, then the bytes
    of its arrays, in its order. Non-ASCII characters in the line are
    escaped, so that a lone surrogate can be written."""
    line = json.dumps({k: v for k, v in payload.items()
                       if not isinstance(v, np.ndarray)}).encode("utf-8")
    _write_members(path, {"meta": line + b" " * (-(len(line) + 1) % 8) + b"\n", **{
        k: _array_bytes(v) for k, v in payload.items() if isinstance(v, np.ndarray)}})


class TestPersistence:
    def _index(self):
        return index_texts(
            ["cache miss rate", "order total", "キャッシュ miss"],
            ["a.java", "b.java", "c.java"],
            stemming=True,
        )

    def test_round_trip_equality(self, tmp_path):
        index = self._index()
        target = tmp_path / "idx.bin"
        save_index(index, target)
        loaded = load_index(target)
        assert loaded == index
        assert loaded.stemming is True

    def test_bytes_equal_one_json_dump_of_the_payload(self, tmp_path):
        # The first line holds one JSON dump of the metadata, padded with
        # spaces to a multiple of 8 bytes; the arrays' bytes follow in order.
        index = index_texts(
            ["cache miss rate", "order total", "キャッシュ miss \"quoted\"", ""],
            ["a.java", "dir/在庫.java", "c.java", "d.java"],
            stemming=True,
        )
        target = tmp_path / "idx.bin"
        save_index(index, target)
        payload = {
            "format": "croloc-index",
            "version": 4,
            "options": {
                "stemming": True,
                "min_token_length": 2,
                "stopwords": sorted(STOPWORDS),
            },
            "paths": list(index.paths),
            "vocabulary": list(index.vocabulary),
            "doc_freq": list(index.doc_freq),
            "nnz": len(index.indices),
        }
        line = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        padding = b" " * (-(len(line) + 1) % 8)
        expected = line + padding + b"\n" + b"".join(
            getattr(index, name).astype(dtype).tobytes() for name, dtype in _DTYPES.items())
        assert target.read_bytes() == expected
        assert len(padding) < 8 and (len(line) + len(padding) + 1) % 8 == 0

    def test_round_trip_preserves_scores(self, tmp_path):
        index = self._index()
        target = tmp_path / "idx.bin"
        save_index(index, target)
        loaded = load_index(target)
        qv_a = vectorize_query("cache miss", index)
        qv_b = vectorize_query("cache miss", loaded)
        assert qv_a.weights == qv_b.weights

    def test_file_is_one_json_line_then_the_arrays(self, tmp_path):
        index = self._index()
        target = tmp_path / "idx.bin"
        save_index(index, target)
        content = target.read_bytes()
        start = content.index(b"\n") + 1
        assert start % 8 == 0
        payload = json.loads(content[:start].decode("utf-8"))
        assert payload["format"] == "croloc-index"
        assert payload["version"] == 4
        assert payload["nnz"] == len(index.indices) > 0
        n_docs, nnz = index.n_docs, payload["nnz"]
        assert len(content) - start == 8 * (3 * n_docs + 1 + 2 * nnz)
        indptr = np.frombuffer(content, "<i8", n_docs + 1, start)
        data = np.frombuffer(content, "<f8", nnz, start + 8 * (n_docs + 1 + nnz))
        assert indptr.tolist() == index.indptr.tolist()
        assert data.tolist() == index.data.tolist()

    def test_load_rejects_bad_json(self, tmp_path):
        target = tmp_path / "idx.bin"
        save_index(self._index(), target)
        members = _member_bytes(target.read_bytes())
        members["meta"] = b"{not json\n"
        _write_members(target, members)
        with pytest.raises(IndexFormatError, match="not a croloc-index version 4 file"):
            load_index(target)

    def test_load_rejects_json_nested_too_deep(self, tmp_path):
        target = tmp_path / "idx.bin"
        save_index(self._index(), target)
        members = _member_bytes(target.read_bytes())
        members["meta"] = b"[" * 100_000 + b"\n"
        _write_members(target, members)
        with pytest.raises(IndexFormatError, match="not a croloc-index version 4 file"):
            load_index(target)

    def test_load_rejects_wrong_format(self, tmp_path):
        target = tmp_path / "idx.bin"
        save_index(self._index(), target)
        payload = _read_payload(target)
        payload["format"] = "other"
        _write_payload(target, payload)
        with pytest.raises(IndexFormatError, match="not a croloc-index file"):
            load_index(target)

    def test_load_rejects_wrong_version(self, tmp_path):
        index = self._index()
        target = tmp_path / "idx.bin"
        save_index(index, target)
        payload = _read_payload(target)
        for version in (1, 2, 3, 99):  # 1 to 3 are the retired formats
            payload["version"] = version
            _write_payload(target, payload)
            with pytest.raises(IndexFormatError, match="unsupported index version"):
                load_index(target)

    def test_load_rejects_malformed_payload(self, tmp_path):
        target = tmp_path / "idx.bin"
        save_index(self._index(), target)
        payload = _read_payload(target)
        del payload["vocabulary"]
        _write_payload(target, payload)
        with pytest.raises(IndexFormatError):
            load_index(target)

    def test_load_rejects_vector_count_mismatch(self, tmp_path):
        """A matrix one row short of the paths, consistent otherwise."""
        target = tmp_path / "idx.bin"
        save_index(self._index(), target)
        payload = _read_payload(target)
        nnz = payload["indptr"][-2]
        payload["nnz"] = int(nnz)
        payload["indptr"] = payload["indptr"][:-1]
        payload["indices"] = payload["indices"][:nnz]
        payload["data"] = payload["data"][:nnz]
        payload["norms"] = payload["norms"][:-1]
        payload["term_counts"] = payload["term_counts"][:-1]
        _write_payload(target, payload)
        with pytest.raises(IndexFormatError, match="for 3 paths") as exc:
            load_index(target)
        assert str(exc.value).startswith(f"{target}: ")


# The index file as format 2 wrote it: one JSON object.
_V2_INDEX = json.dumps({
    "format": "croloc-index", "version": 2,
    "options": {"stemming": False, "min_token_length": 2, "stopwords": []},
    "paths": ["a.java"], "vocabulary": ["cache"], "doc_freq": [1], "indptr": [0, 0],
    "indices": [], "data": [], "norms": [0.0], "term_counts": [1],
}) + "\n"


def _v3_index(index: Index) -> bytes:
    """The index as format 3 wrote it: the np.savez zip of a JSON meta
    member and the arrays."""
    meta = {"format": "croloc-index", "version": 3,
            "options": {"stemming": index.stemming, "min_token_length": MIN_TOKEN_LENGTH,
                        "stopwords": sorted(STOPWORDS)},
            "paths": index.paths, "vocabulary": index.vocabulary, "doc_freq": index.doc_freq}
    buffer = io.BytesIO()
    np.savez(buffer, meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
             **{name: getattr(index, name) for name in ARRAY_NAMES})
    return buffer.getvalue()


class TestLoadHardening:
    """Files that are not what ``save_index`` writes fail with an
    IndexFormatError that names them, and nothing is unpickled."""

    def _saved(self, tmp_path):
        target = tmp_path / "idx.bin"
        save_index(index_texts(["cache miss rate", "order total"],
                               ["a.java", "b.java"]), target)
        return target

    @pytest.mark.parametrize("content", [b"", b"\xff\xfe not utf-8 \x80\n", b"PK\x03\x04",
                                         b"\x93NUMPY", b'{"format": "croloc-index"',
                                         b"{not json}\n", b"\x93NUMPY\x01\x00\n"],
                             ids=["empty", "not-utf8", "zip-magic", "npy-magic", "no-newline",
                                  "not-json", "npy-magic-line"])
    def test_not_an_index_file(self, tmp_path, content):
        target = tmp_path / "idx.bin"
        target.write_bytes(content)
        with pytest.raises(IndexFormatError, match="not a croloc-index version 4 file") as exc:
            load_index(target)
        assert str(exc.value).startswith(f"{target}: ")
        assert "must be rebuilt with 'croloc index'" in str(exc.value)

    @pytest.mark.parametrize("line", [b"[]", b"3", b'"croloc-index"', b"null"])
    def test_first_line_not_an_object(self, tmp_path, line):
        target = tmp_path / "idx.bin"
        target.write_bytes(line + b"\n" + bytes(8))
        with pytest.raises(IndexFormatError, match="not a croloc-index file") as exc:
            load_index(target)
        assert str(exc.value).startswith(f"{target}: ")

    def test_v3_zip_names_the_path_and_asks_for_a_rebuild(self, tmp_path):
        target = tmp_path / "index.npz"
        target.write_bytes(_v3_index(index_texts(["cache miss rate", "order total"],
                                                 ["a.java", "b.java"])))
        assert target.read_bytes().startswith(b"PK\x03\x04")
        with pytest.raises(IndexFormatError, match="must be rebuilt") as exc:
            load_index(target)
        assert str(exc.value).startswith(f"{target}: not a croloc-index version 4 file")

    def test_v2_json_file_names_the_path_and_asks_for_a_rebuild(self, tmp_path):
        target = tmp_path / "index.json"
        target.write_text(_V2_INDEX, encoding="utf-8")
        with pytest.raises(IndexFormatError, match="must be rebuilt") as exc:
            load_index(target)
        assert str(exc.value).startswith(f"{target}: ")

    def test_missing_member(self, tmp_path):
        target = self._saved(tmp_path)
        members = _member_bytes(target.read_bytes())
        del members["norms"]
        _write_members(target, members)
        with pytest.raises(IndexFormatError, match="bytes after the metadata line") as exc:
            load_index(target)
        assert str(exc.value).startswith(f"{target}: ")

    def test_members_out_of_order(self, tmp_path):
        # The arrays' bytes add up, but each is read as another.
        target = self._saved(tmp_path)
        members = _member_bytes(target.read_bytes())
        meta = members.pop("meta")
        _write_members(target, {"meta": meta, **dict(reversed(members.items()))})
        with pytest.raises(IndexFormatError) as exc:
            load_index(target)
        assert str(exc.value).startswith(f"{target}: ")

    @pytest.mark.parametrize("change", [-1, 1], ids=["one-short", "one-over"])
    @pytest.mark.parametrize("name", ARRAY_NAMES)
    def test_array_bytes_one_off(self, tmp_path, name, change):
        target = self._saved(tmp_path)
        members = _member_bytes(target.read_bytes())
        members[name] = members[name][:-1] if change < 0 else members[name] + b"\0"
        _write_members(target, members)
        with pytest.raises(IndexFormatError, match="bytes after the metadata line") as exc:
            load_index(target)
        assert str(exc.value).startswith(f"{target}: ")

    @pytest.mark.parametrize("nnz, message", [
        (None, "required field 'nnz' is missing or null"),
        (-1, "nnz must not be negative"),
        (3.0, "nnz must be an integer"),
        ("3", "nnz must be an integer"),
        (True, "nnz must be an integer"),
        (2 ** 62, "bytes after the metadata line"),
    ], ids=["missing", "negative", "float", "string", "bool", "huge"])
    def test_nnz_must_count_the_stored_weights(self, tmp_path, nnz, message):
        target = self._saved(tmp_path)
        payload = _read_payload(target)
        assert payload["nnz"] == 5
        if nnz is None:
            del payload["nnz"]
        else:
            payload["nnz"] = nnz
        _write_payload(target, payload)
        tracemalloc.start()
        try:
            with pytest.raises(IndexFormatError, match=message) as exc:
                load_index(target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(exc.value).startswith(f"{target}: ")
        assert peak < 2 ** 20

    def test_unpickles_nothing(self, tmp_path, monkeypatch):
        # A format-3 zip whose norms member is pickled is refused unread.
        target = self._saved(tmp_path)
        index = load_index(target)
        buffer = io.BytesIO()
        np.savez(buffer, meta=np.zeros(1, dtype=np.uint8), norms=index.norms.astype(object))
        target.write_bytes(buffer.getvalue())
        monkeypatch.setattr("pickle.loads", None)
        monkeypatch.setattr("pickle.load", None)
        with pytest.raises(IndexFormatError, match="not a croloc-index version 4 file"):
            load_index(target)

    @pytest.mark.parametrize("n_bytes", [0, 8, 16, 24, 40])
    def test_data_must_fill_the_declared_shape(self, tmp_path, n_bytes):
        target = self._saved(tmp_path)
        members = _member_bytes(target.read_bytes())
        assert len(members["norms"]) == 16  # two paths
        members["norms"] = bytes(n_bytes)
        _write_members(target, members)
        if n_bytes == 16:
            with pytest.raises(IndexFormatError, match="norm differs"):
                load_index(target)
        else:
            with pytest.raises(IndexFormatError, match=f"{120 + n_bytes} bytes after the "
                               "metadata line, expected 136 for 2 paths and 5 stored"):
                load_index(target)

    def test_huge_declared_shape_fails_before_allocating(self, tmp_path):
        target = self._saved(tmp_path)
        payload = _read_payload(target)
        payload["nnz"] = 2 ** 40
        _write_payload(target, payload)
        tracemalloc.start()
        try:
            with pytest.raises(IndexFormatError, match=f"for 2 paths and {2 ** 40} stored"):
                load_index(target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def _mutate_doc_order(payload):
    """Rows out of order: indptr decreases."""
    indptr = payload["indptr"]
    indptr[1], indptr[2] = indptr[2], indptr[1]


def _mutate_duplicate_doc_id(payload):
    """The first document's row is stored again, one row more than paths."""
    lo, hi = payload["indptr"][0], payload["indptr"][1]
    for key in ("indices", "data"):
        payload[key] = np.append(payload[key], payload[key][lo:hi])
    payload["indptr"] = np.append(payload["indptr"], payload["indptr"][-1] + hi - lo)
    for key in ("norms", "term_counts"):
        payload[key] = np.append(payload[key], payload[key][0])


def _set(key, position, value):
    def mutate(payload):
        payload[key][position] = value
    return mutate


def _truncate(key):
    def mutate(payload):
        payload[key] = payload[key][:-1]
    return mutate


def _scale(key, position, factor):
    def mutate(payload):
        payload[key][position] *= factor
    return mutate


def _swap_first_term_ids(payload):
    indices = payload["indices"]
    indices[0], indices[1] = indices[1], indices[0]


def _repeat_first_term_id(payload):
    payload["indices"][1] = payload["indices"][0]


def _swap_first_terms(payload):
    vocabulary = payload["vocabulary"]
    vocabulary[0], vocabulary[1] = vocabulary[1], vocabulary[0]


def _stored_as(key, dtype, position=None, value=None):
    """The member ``key`` stored with another dtype, one value optionally
    set after the conversion."""
    def mutate(payload):
        payload[key] = payload[key].astype(dtype)
        if position is not None:
            payload[key][position] = value
    return mutate


REBUILD = "stop list other than croloc's own; rebuild it with 'croloc index'"


class TestLoadValidation:
    """Payloads that load but would index wrongly are rejected."""

    @pytest.mark.parametrize("mutate", [
        _mutate_doc_order,
        _mutate_duplicate_doc_id,
        _set("indices", 0, 6),
        _set("indices", 0, -1),
        _stored_as("indices", "<u8", 0, 2 ** 64 - 1),
        _set("data", 3, float("nan")),
        _set("norms", 2, float("inf")),
        _scale("norms", 1, 1 + 1e-6),
        _scale("data", 4, 1 + 1e-6),
        _truncate("doc_freq"),
        _truncate("norms"),
        _truncate("term_counts"),
        _truncate("data"),
        _set("indptr", 0, 1),
        _set("indptr", -1, 7),
        _swap_first_term_ids,
        _repeat_first_term_id,
        _set("term_counts", 1, -1),
        _set("term_counts", 1, 2 ** 53),
        # Every float64 of 1 or more reads as an int64 of at least 2**53.
        _stored_as("term_counts", "<f8"),
        _set("doc_freq", 0, 0),
        _set("doc_freq", 0, 4),
        _set("doc_freq", 0, 1),
        _stored_as("indices", bool),
        _stored_as("indptr", "<f8"),
        _stored_as("term_counts", "<U1"),
        _stored_as("data", "<U8"),
        _stored_as("data", bool),
        _stored_as("norms", object, 0, None),
        _set("doc_freq", 0, 1.0),
        _set("paths", 0, 7),
        _set("vocabulary", 0, None),
        _set("options", "stemming", "no"),
        _set("paths", 0, "\ud800"),
        # A repeated term sends query weights to another term's documents.
        _set("vocabulary", 1, "cache"),
        _swap_first_terms,
        _set("paths", 1, "a.java"),
    ], ids=["doc-order", "duplicate-doc-id", "term-id-past-vocab", "negative-term-id",
            "term-id-beyond-int64", "nan-weight", "infinite-norm", "edited-norm",
            "edited-weight", "doc-freq-length",
            "norms-length", "term-counts-length", "data-length", "indptr-start",
            "indptr-end", "term-ids-descending", "term-id-repeated", "negative-term-count",
            "term-count-of-2**53", "float-term-counts",
            "doc-freq-zero", "doc-freq-above-doc-count", "doc-freq-not-row-count",
            "bool-term-id", "float-indptr",
            "string-term-count", "string-weight", "bool-weight", "null-norm",
            "float-doc-freq", "non-string-path", "non-string-term", "string-stemming",
            "surrogate-path", "term-repeated", "vocabulary-unsorted", "path-repeated"])
    def test_rejects_mutated_payload(self, tmp_path, mutate):
        index = index_texts(
            ["cache miss rate", "order total", "cache order sync"],
            ["a.java", "b.java", "c.java"],
        )
        target = tmp_path / "idx.bin"
        save_index(index, target)
        payload = _read_payload(target)
        assert payload["indptr"].tolist() == [0, 3, 5, 8] and len(payload["vocabulary"]) == 6
        _write_payload(target, payload)
        assert load_index(target) == index  # the unmutated payload loads
        mutate(payload)
        _write_payload(target, payload)
        with pytest.raises(IndexFormatError):
            load_index(target)

    @pytest.mark.parametrize("key, position, value, message", [
        ("options", "stemming", "no", "stemming must be true or false"),
        ("options", "min_token_length", 2.0, "min_token_length must be an integer"),
        ("options", "stopwords", "the", "stopwords must be a list of UTF-8 strings"),
        ("paths", 0, "\ud800", "paths must be a list of UTF-8 strings"),
        ("vocabulary", 1, ["cache"], "vocabulary must be a list of UTF-8 strings"),
        ("doc_freq", 0, True, "doc_freq must be a list of integers"),
        # Only the built-in stop list and minimum length tokenize queries as
        # the index's documents were.
        ("options", "min_token_length", 1, REBUILD),
        ("options", "min_token_length", 3, REBUILD),
        ("options", "stopwords", [], REBUILD),
        ("options", "stopwords", ["the", "of"], REBUILD),
        ("options", "stopwords", sorted(STOPWORDS | {"cache"}), REBUILD),
    ])
    def test_meta_field_error_names_the_file(self, tmp_path, key, position, value, message):
        # The meta member is checked by corpus.typed, which converts nothing.
        target = tmp_path / "idx.bin"
        save_index(index_texts(["cache miss"], ["a.java"]), target)
        payload = _read_payload(target)
        _set(key, position, value)(payload)
        _write_payload(target, payload)
        with pytest.raises(IndexFormatError) as raised:
            load_index(target)
        assert str(raised.value).startswith(f"{target}: ")
        assert message in str(raised.value)

    def test_rejects_infinite_min_token_length(self, tmp_path):
        # JSON's Infinity parses to a float that int() cannot convert.
        target = tmp_path / "idx.bin"
        save_index(index_texts(["cache miss"], ["a.java"]), target)
        payload = _read_payload(target)
        payload["options"]["min_token_length"] = float("inf")
        _write_payload(target, payload)
        with pytest.raises(IndexFormatError, match="malformed index payload"):
            load_index(target)


@functools.cache
def _saved_index_bytes() -> bytes:
    """A small saved index, with an empty document."""
    index = index_texts(["cache miss rate", "order total", "cache order sync", ""],
                        ["a.java", "b.java", "c.java", "d.java"])
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "idx.bin")
        save_index(index, target)
        with open(target, "rb") as fh:
            return fh.read()


def _json_values():
    """Mostly numbers of the kinds the arrays hold, sometimes anything."""
    return st.one_of(
        st.integers(-2, 12), st.floats(),
        st.one_of(st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
                  st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)),
    )


_ARRAY_KEYS = ["indptr", "indices", "data", "norms", "term_counts", "doc_freq"]


def _as_member(values) -> np.ndarray:
    """values as an array member, of whatever dtype numpy infers for them."""
    try:
        return np.array(values)
    except (ValueError, OverflowError):
        return np.array(values, dtype=object)


@st.composite
def _mutated_payloads(draw):
    """A saved index payload with one to three random edits. An edited
    array member is stored with the dtype and shape numpy infers for it."""
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "idx.bin")
        with open(target, "wb") as fh:
            fh.write(_saved_index_bytes())
        payload = _read_payload(target)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.one_of(st.sampled_from(_ARRAY_KEYS), st.sampled_from(sorted(payload))))
        value = payload.get(key)
        is_array = isinstance(value, np.ndarray)
        if is_array:
            value = value.tolist()
        action = draw(st.sampled_from(["set", "set", "delete", "insert", "replace",
                                       "delete-key"]))
        if action == "replace" or value is None:
            value = draw(_json_values())
        elif action == "delete-key":
            del payload[key]
            continue
        elif isinstance(value, dict) and value:
            value[draw(st.sampled_from(sorted(value)))] = draw(_json_values())
        elif isinstance(value, list) and value:
            i = draw(st.integers(0, len(value) - 1))
            if action == "set":
                value[i] = draw(_json_values())
            elif action == "delete":
                del value[i]
            else:
                value.insert(i, draw(_json_values()))
        payload[key] = _as_member(value) if is_array else value
    return payload


def _edits(content: bytes):
    """content with one to four random byte edits: set, delete, insert or
    truncate."""
    @st.composite
    def edited(draw):
        out = bytearray(content)
        for _ in range(draw(st.integers(1, 4))):
            i = draw(st.integers(0, max(len(out) - 1, 0)))
            action = draw(st.sampled_from(["set", "set", "delete", "insert", "truncate"]))
            if action == "set" and out:
                out[i] = draw(st.integers(0, 255))
            elif action == "delete":
                del out[i:i + draw(st.integers(1, 8))]
            elif action == "insert":
                out[i:i] = draw(st.binary(min_size=1, max_size=8))
            else:
                del out[i:]
        return bytes(out)
    return edited()


def _loads_and_ranks_or_is_rejected(target):
    try:
        index = load_index(target)
    except IndexFormatError:
        return
    query = query_rows([["cache", "order", "sync", *index.vocabulary[:2]]], index)
    ranking = make_ranking(vsm_scores(query, index)[0], index, top_k=0)
    assert sorted(ranking.tolist()) == list(range(index.n_docs))


@functools.cache
def _saved_members() -> dict[str, bytes]:
    return _member_bytes(_saved_index_bytes())


class TestLoadFuzz:
    @given(payload=_mutated_payloads())
    @settings(max_examples=300)
    def test_mutated_payload_is_rejected_or_ranks(self, payload, tmp_path_factory):
        target = tmp_path_factory.mktemp("fuzz") / "idx.bin"
        _write_payload(target, payload)
        _loads_and_ranks_or_is_rejected(target)

    @given(content=_edits(_saved_index_bytes()))
    @settings(max_examples=300)
    def test_mutated_file_bytes_are_rejected_or_rank(self, content, tmp_path_factory):
        target = tmp_path_factory.mktemp("fuzz") / "idx.bin"
        target.write_bytes(content)
        _loads_and_ranks_or_is_rejected(target)

    @given(data=st.data(), name=st.sampled_from(sorted(_saved_members())))
    @settings(max_examples=300)
    def test_mutated_member_bytes_are_rejected_or_rank(self, data, name, tmp_path_factory):
        # The other members are sound, so an edit to an array's bytes that
        # keeps its length reaches the checks of its values.
        members = dict(_saved_members())
        members[name] = data.draw(_edits(members[name]))
        target = tmp_path_factory.mktemp("fuzz") / "idx.bin"
        _write_members(target, members)
        _loads_and_ranks_or_is_rejected(target)


@st.composite
def _corpora(draw):
    words = st.sampled_from(
        ["cache", "miss", "order", "total", "sync", "batch", "price", "stock"]
    )
    docs = draw(st.lists(st.lists(words, max_size=12), min_size=1, max_size=6))
    paths = [f"f{i}.java" for i in range(len(docs))]
    return docs, paths


@st.composite
def _build_corpora(draw):
    """Documents of words from a small vocabulary, so that some term may be
    in every document; with empty documents, zero or one document, and
    documents repeated verbatim."""
    words = st.sampled_from(["cache", "miss", "order", "total", "sync", "在庫"])
    docs = draw(st.lists(st.lists(words, max_size=10), max_size=6))
    for _ in range(draw(st.integers(0, 2)) if docs else 0):
        docs.insert(draw(st.integers(0, len(docs))), docs[draw(st.integers(0, len(docs) - 1))])
    return docs


class TestIndexProperties:
    @given(corpus=_corpora())
    @settings(max_examples=100)
    def test_df_counts_documents_not_occurrences(self, corpus):
        docs, paths = corpus
        index = build_index(docs, paths)
        for term, df in zip(index.vocabulary, index.doc_freq):
            expected = sum(1 for toks in docs if term in toks)
            assert df == expected

    @given(corpus=_corpora())
    @settings(max_examples=60)
    def test_round_trip_any_corpus(self, corpus, tmp_path_factory):
        docs, paths = corpus
        index = build_index(docs, paths)
        target = tmp_path_factory.mktemp("idx") / "i.bin"
        save_index(index, target)
        assert load_index(target) == index

    @given(corpus=_corpora())
    @settings(max_examples=100)
    def test_norms_nonnegative_and_weights_positive(self, corpus):
        docs, paths = corpus
        index = build_index(docs, paths)
        for vec in index.vectors:
            assert vec.norm >= 0.0
            for w in vec.weights.values():
                assert w > 0.0

    @given(docs=_build_corpora())
    @settings(max_examples=300)
    def test_document_tokens_vectorize_to_their_row(self, docs):
        # Documents and queries share one weighting: the documents' own
        # tokens, weighed as queries, give back the index's rows bit for bit.
        index = build_index(docs, [f"f{i}.java" for i in range(len(docs))])
        rows = query_rows(docs, index)
        for got, want in zip((rows.indptr, rows.indices, rows.data, rows.norms), index.csr(),
                             strict=True):
            assert got.dtype == want.dtype
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


class TestArrayBuild:
    """build_index counts in arrays; its rows and norms are what
    tfidf_weights (tests/reference.py) and math.fsum give each document, bit
    for bit."""

    @staticmethod
    def _check(docs):
        index = build_index(docs, [f"f{i}.java" for i in range(len(docs))])
        vocabulary = sorted({t for tokens in docs for t in tokens})
        doc_freq = tuple(sum(t in tokens for tokens in docs) for t in vocabulary)
        assert index.vocabulary == tuple(vocabulary) and index.doc_freq == doc_freq
        term_ids = {t: i for i, t in enumerate(vocabulary)}
        assert len(index.indptr) == len(docs) + 1 and index.indptr[0] == 0
        for d, tokens in enumerate(docs):
            weights = tfidf_weights(tokens, term_ids, doc_freq, len(docs))
            lo, hi = index.indptr[d], index.indptr[d + 1]
            assert index.indices[lo:hi].tolist() == sorted(weights)
            expected = np.array([weights[t] for t in sorted(weights)], dtype=np.float64)
            assert (index.data[lo:hi].view(np.int64) == expected.view(np.int64)).all()
            norm = np.float64(math.sqrt(math.fsum(w * w for w in weights.values())))
            assert index.norms[d:d + 1].view(np.int64)[0] == norm.view(np.int64)
            assert index.term_counts[d] == len(tokens)
        for name in ARRAY_NAMES:
            assert getattr(index, name).dtype == (np.float64 if name in ("data", "norms")
                                                  else np.int64)
        return index

    @given(docs=_build_corpora())
    @settings(max_examples=300)
    def test_rows_and_norms_equal_tfidf_weights(self, docs):
        self._check(docs)

    def test_zero_documents(self):
        index = self._check([])
        assert index.n_docs == 0 and index.vocabulary == () and index.indptr.tolist() == [0]

    def test_one_document(self):
        # Every term is in the one document, so every weight is 0 and dropped.
        index = self._check([["cache", "miss", "cache"]])
        assert index.indptr.tolist() == [0, 0] and index.norms.tolist() == [0.0]

    def test_empty_documents(self):
        index = self._check([[], ["cache"], [], ["miss", "cache"], []])
        assert index.indptr.tolist() == [0, 0, 1, 1, 3, 3]

    def test_term_in_every_document_is_dropped(self):
        index = self._check([["common", "alpha"], ["common"], ["common", "beta", "beta"]])
        assert index.vocabulary.index("common") not in index.indices.tolist()

    def test_many_distinct_ratios(self):
        # np.log differs from math.log in the last bit on a fraction of a
        # percent of inputs; thousands of distinct c_td / c_d values show it.
        rng = random.Random(7)
        words = [f"w{i}" for i in range(40)]
        docs = [[rng.choice(words[:rng.randint(1, 40)]) for _ in range(rng.randint(1, 400))]
                for _ in range(150)]
        self._check(docs)

    def test_duplicate_documents(self):
        index = self._check([["cache", "miss"], ["order"], ["cache", "miss"]])
        rows = [index.data[index.indptr[d]:index.indptr[d + 1]].tolist() for d in (0, 2)]
        assert rows[0] == rows[1] and index.norms[0] == index.norms[2]


_SAVE_IN_CHILD = """
import sys
from conftest import index_texts
from croloc.index import save_index
save_index(index_texts(["cache miss rate", "order total", "キャッシュ miss", ""],
                       ["a.java", "b/在庫.java", "c.java", "d.java"],
                       stemming=True), sys.argv[1])
"""


class TestDeterministicSave:
    """Equal indexes save to equal bytes: the benchmark and the golden
    digests compare index files byte for byte."""

    def _index(self):
        return index_texts(["cache miss rate", "order total", "キャッシュ miss", ""],
                           ["a.java", "b/在庫.java", "c.java", "d.java"],
                           stemming=True)

    def test_same_bytes_at_another_time(self, tmp_path, monkeypatch):
        saved = []
        for clock in (0.0, 2e9):
            monkeypatch.setattr(time, "time", lambda clock=clock: clock)
            monkeypatch.setattr(time, "localtime", lambda *_, clock=clock: time.gmtime(clock))
            target = tmp_path / f"idx{len(saved)}.bin"
            save_index(self._index(), target)
            saved.append(target.read_bytes())
        assert saved[0] == saved[1]

    def test_same_bytes_from_two_processes(self, tmp_path):
        here = tmp_path / "here.bin"
        save_index(self._index(), here)
        src = os.path.dirname(os.path.dirname(os.path.abspath(croloc.__file__)))
        for seed in ("1", "2"):
            target = tmp_path / f"child{seed}.bin"
            env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]),
                       PYTHONHASHSEED=seed)
            result = subprocess.run([sys.executable, "-c", _SAVE_IN_CHILD, str(target)],
                                    env=env, capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            assert target.read_bytes() == here.read_bytes()


class TestAtomicSave:
    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        target = tmp_path / "idx.bin"
        target.write_text("old index\n", encoding="utf-8")
        index = build_index([["alpha", "beta"], ["beta"]], ["a", "b"])
        real_little_endian = croloc.index._little_endian

        def failing_little_endian(buffer, code):
            if buffer is index.buffers["data"]:  # after the head of the file is written
                raise OSError("disk full")
            return real_little_endian(buffer, code)

        monkeypatch.setattr(croloc.index, "_little_endian", failing_little_endian)
        with pytest.raises(OSError, match="disk full"):
            save_index(index, target)
        assert target.read_text(encoding="utf-8") == "old index\n"
        assert os.listdir(tmp_path) == ["idx.bin"]
