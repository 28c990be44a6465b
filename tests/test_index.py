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
import zipfile
from array import array
from unittest import mock

import numpy as np
import pytest
from numpy.lib import format as npy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import croloc
import croloc.cli
import croloc.terms
from croloc.corpus import Language, SourceDocument
from croloc.errors import IndexFormatError
from croloc.index import (
    MIN_TOKEN_LENGTH,
    STOPWORDS,
    Index,
    _little_endian,
    _read_member,
    _write_npz,
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
        memo = croloc.terms._MEMOS[stemming]
        with mock.patch.object(croloc.terms, "_MEMO_SIZE", bound):
            croloc.terms.clear_memo()
            try:
                for text in texts + texts:
                    assert tokenize(text, stemming) == ref_tokenize(text, stemming)
                    assert len(memo) <= bound
            finally:
                croloc.terms.clear_memo()

    def test_index_documents_empties_the_memo(self):
        # The index command empties the memos once its corpus is tokenized;
        # build_index depends only on its arguments and leaves them alone.
        token_lists = [tokenize("getUserName"), tokenize("parsingErrors", True)]
        filled = [dict(memo) for memo in croloc.terms._MEMOS]
        assert all(filled)
        build_index(token_lists, ["a.java", "b.java"])
        assert [dict(memo) for memo in croloc.terms._MEMOS] == filled
        documents = [SourceDocument("A.java", Language.JAVA, b"class getUserName {}")]
        croloc.cli.index_documents(documents, False, None, None)
        assert not any(croloc.terms._MEMOS)


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


def _read_payload(path) -> dict:
    """A saved index as one dict: the fields of its meta member's JSON,
    then each array member as a writable array."""
    with zipfile.ZipFile(path) as archive:
        members = {name.removesuffix(".npy"): np.load(io.BytesIO(archive.read(name))).copy()
                   for name in archive.namelist()}
    return {**json.loads(members.pop("meta").tobytes().decode("utf-8")), **members}


def _write_payload(path, payload, savez=np.savez) -> None:
    """Write a payload as ``_read_payload`` returns it: its non-array fields
    as the meta member, then its arrays, each as a member of its own."""
    meta = {k: v for k, v in payload.items() if not isinstance(v, np.ndarray)}
    members = {"meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)}
    members.update((k, v) for k, v in payload.items() if isinstance(v, np.ndarray))
    with open(path, "wb") as fh:
        savez(fh, **members)


def _write_members(path, members: dict[str, bytes]) -> None:
    """A zip of raw members, stored uncompressed, as np.savez lays them out."""
    with zipfile.ZipFile(path, "w") as archive:
        for name, content in members.items():
            archive.writestr(name, content)


def _member_bytes(path) -> dict[str, bytes]:
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


class TestPersistence:
    def _index(self):
        return index_texts(
            ["cache miss rate", "order total", "キャッシュ miss"],
            ["a.java", "b.java", "c.java"],
            stemming=True,
        )

    def test_round_trip_equality(self, tmp_path):
        index = self._index()
        target = tmp_path / "idx.npz"
        save_index(index, target)
        loaded = load_index(target)
        assert loaded == index
        assert loaded.stemming is True

    def test_bytes_equal_one_json_dump_of_the_payload(self, tmp_path):
        # The meta member holds one JSON dump of the payload; the file is
        # np.savez of that member and the arrays, in that order.
        index = index_texts(
            ["cache miss rate", "order total", "キャッシュ miss \"quoted\"", ""],
            ["a.java", "dir/在庫.java", "c.java", "d.java"],
            stemming=True,
        )
        target = tmp_path / "idx.npz"
        save_index(index, target)
        payload = {
            "format": "croloc-index",
            "version": 3,
            "options": {
                "stemming": True,
                "min_token_length": 2,
                "stopwords": sorted(STOPWORDS),
            },
            "paths": list(index.paths),
            "vocabulary": list(index.vocabulary),
            "doc_freq": list(index.doc_freq),
        }
        meta = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        expected = io.BytesIO()
        np.savez(expected, meta=np.frombuffer(meta, dtype=np.uint8),
                 **{name: getattr(index, name) for name in ARRAY_NAMES})
        assert target.read_bytes() == expected.getvalue()

    def test_round_trip_preserves_scores(self, tmp_path):
        index = self._index()
        target = tmp_path / "idx.npz"
        save_index(index, target)
        loaded = load_index(target)
        qv_a = vectorize_query("cache miss", index)
        qv_b = vectorize_query("cache miss", loaded)
        assert qv_a.weights == qv_b.weights

    def test_file_is_npz_with_format_marker(self, tmp_path):
        index = self._index()
        target = tmp_path / "idx.npz"
        save_index(index, target)
        with zipfile.ZipFile(target) as archive:
            assert archive.namelist() == [f"{n}.npy" for n in ("meta", *ARRAY_NAMES)]
            assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_STORED}
        with np.load(target, allow_pickle=False) as saved:
            payload = json.loads(saved["meta"].tobytes().decode("utf-8"))
            assert payload["format"] == "croloc-index"
            assert payload["version"] == 3
            assert saved["indptr"].dtype == np.dtype("<i8")
            assert saved["indptr"].tolist() == index.indptr.tolist()
            assert saved["data"].dtype == np.dtype("<f8")
            assert saved["data"].tolist() == index.data.tolist()

    def test_load_rejects_bad_json(self, tmp_path):
        target = tmp_path / "idx.npz"
        save_index(self._index(), target)
        members = _member_bytes(target)
        buffer = io.BytesIO()
        np.save(buffer, np.frombuffer(b"{not json", dtype=np.uint8))
        members["meta.npy"] = buffer.getvalue()
        _write_members(target, members)
        with pytest.raises(IndexFormatError, match="malformed index payload"):
            load_index(target)

    def test_load_rejects_json_nested_too_deep(self, tmp_path):
        target = tmp_path / "idx.npz"
        save_index(self._index(), target)
        members = _member_bytes(target)
        buffer = io.BytesIO()
        np.save(buffer, np.frombuffer(b"[" * 100_000, dtype=np.uint8))
        members["meta.npy"] = buffer.getvalue()
        _write_members(target, members)
        with pytest.raises(IndexFormatError, match="malformed index payload"):
            load_index(target)

    def test_load_rejects_wrong_format(self, tmp_path):
        target = tmp_path / "idx.npz"
        save_index(self._index(), target)
        payload = _read_payload(target)
        payload["format"] = "other"
        _write_payload(target, payload)
        with pytest.raises(IndexFormatError, match="not a croloc-index file"):
            load_index(target)

    def test_load_rejects_wrong_version(self, tmp_path):
        index = self._index()
        target = tmp_path / "idx.npz"
        save_index(index, target)
        payload = _read_payload(target)
        for version in (1, 2, 99):  # 1 and 2 are the retired JSON formats
            payload["version"] = version
            _write_payload(target, payload)
            with pytest.raises(IndexFormatError, match="unsupported index version"):
                load_index(target)

    def test_load_rejects_malformed_payload(self, tmp_path):
        target = tmp_path / "idx.npz"
        save_index(self._index(), target)
        payload = _read_payload(target)
        del payload["vocabulary"]
        _write_payload(target, payload)
        with pytest.raises(IndexFormatError):
            load_index(target)

    def test_load_rejects_vector_count_mismatch(self, tmp_path):
        """A matrix one row short of the paths, consistent otherwise."""
        target = tmp_path / "idx.npz"
        save_index(self._index(), target)
        payload = _read_payload(target)
        nnz = payload["indptr"][-2]
        payload["indptr"] = payload["indptr"][:-1]
        payload["indices"] = payload["indices"][:nnz]
        payload["data"] = payload["data"][:nnz]
        payload["norms"] = payload["norms"][:-1]
        payload["term_counts"] = payload["term_counts"][:-1]
        _write_payload(target, payload)
        with pytest.raises(IndexFormatError, match="path count"):
            load_index(target)


# The index file as format 2 wrote it: one JSON object.
_V2_INDEX = json.dumps({
    "format": "croloc-index", "version": 2,
    "options": {"stemming": False, "min_token_length": 2, "stopwords": []},
    "paths": ["a.java"], "vocabulary": ["cache"], "doc_freq": [1], "indptr": [0, 0],
    "indices": [], "data": [], "norms": [0.0], "term_counts": [1],
}) + "\n"


def _npy_header(descr: str, shape: tuple) -> bytes:
    buffer = io.BytesIO()
    npy.write_array_header_1_0(buffer, {"descr": descr, "fortran_order": False,
                                        "shape": shape})
    return buffer.getvalue()


class TestLoadHardening:
    """Files that are not what ``save_index`` writes fail with an
    IndexFormatError that names them, and nothing is unpickled."""

    def _saved(self, tmp_path):
        target = tmp_path / "idx.npz"
        save_index(index_texts(["cache miss rate", "order total"],
                               ["a.java", "b.java"]), target)
        return target

    @pytest.mark.parametrize("content", [b"", b"\xff\xfe not utf-8 \x80\n", b"PK\x03\x04",
                                         b"\x93NUMPY"], ids=["empty", "not-utf8", "zip-magic",
                                                             "npy-magic"])
    def test_not_a_zip(self, tmp_path, content):
        target = tmp_path / "idx.npz"
        target.write_bytes(content)
        with pytest.raises(IndexFormatError, match="not a croloc-index version 3 file") as exc:
            load_index(target)
        assert str(target) in str(exc.value)

    def test_v2_json_file_names_the_path_and_asks_for_a_rebuild(self, tmp_path):
        target = tmp_path / "index.json"
        target.write_text(_V2_INDEX, encoding="utf-8")
        with pytest.raises(IndexFormatError, match="must be rebuilt") as exc:
            load_index(target)
        assert str(exc.value).startswith(f"{target}: ")

    @pytest.mark.parametrize("utf8_name", [False, True], ids=["zip-version", "utf8-name"])
    def test_central_directory_zipfile_cannot_read(self, tmp_path, utf8_name):
        # The last member's central directory entry states a version zipfile
        # does not extract, or sets the UTF-8 name flag on a name that is
        # not UTF-8.
        target = self._saved(tmp_path)
        content = bytearray(target.read_bytes())
        entry = content.rindex(b"PK\x01\x02")
        if utf8_name:
            content[entry + 9] |= 0x08  # general purpose flag bit 11
            content[content.index(b"term_counts.npy", entry)] = 0xff
        else:
            content[entry + 6] = 64  # version needed to extract: 6.4
        target.write_bytes(bytes(content))
        with pytest.raises(IndexFormatError, match="can't decode" if utf8_name
                           else "zip file version 6.4") as exc:
            load_index(target)
        assert str(exc.value).startswith(f"{target}: malformed index payload")

    def test_missing_member(self, tmp_path):
        target = self._saved(tmp_path)
        members = _member_bytes(target)
        del members["norms.npy"]
        _write_members(target, members)
        with pytest.raises(IndexFormatError, match="members"):
            load_index(target)

    @pytest.mark.parametrize("name", ["extra.npy", "meta.npy"])
    @pytest.mark.filterwarnings("ignore:Duplicate name")
    def test_extra_member(self, tmp_path, name):
        target = self._saved(tmp_path)
        members = _member_bytes(target)
        with zipfile.ZipFile(target, "a") as archive:
            archive.writestr(name, members["meta.npy"])
        with pytest.raises(IndexFormatError, match="members"):
            load_index(target)

    def test_members_out_of_order(self, tmp_path):
        target = self._saved(tmp_path)
        members = _member_bytes(target)
        _write_members(target, dict(reversed(members.items())))
        with pytest.raises(IndexFormatError, match="members"):
            load_index(target)

    def test_compressed_member(self, tmp_path):
        target = self._saved(tmp_path)
        _write_payload(target, _read_payload(target), savez=np.savez_compressed)
        with pytest.raises(IndexFormatError, match="compressed"):
            load_index(target)

    @pytest.mark.parametrize("name,dtype", [
        ("norms", object), ("data", ">f8"), ("indices", "<i4"), ("indices", "<u8"),
        ("term_counts", "<f8"), ("meta", "<i8"), ("indptr", [("x", "<i8")]),
    ], ids=["object", "byte-swapped", "narrower", "unsigned", "float-count", "wide-meta",
            "structured"])
    def test_wrong_dtype(self, tmp_path, name, dtype):
        target = self._saved(tmp_path)
        members = _member_bytes(target)
        saved = np.load(io.BytesIO(members[f"{name}.npy"]))
        buffer = io.BytesIO()
        np.save(buffer, saved.astype(dtype), allow_pickle=True)
        members[f"{name}.npy"] = buffer.getvalue()
        _write_members(target, members)
        with pytest.raises(IndexFormatError, match=f"member {name} is not a 1-d"):
            load_index(target)

    @pytest.mark.parametrize("shape", [(), (3, 1), (1, 3)])
    def test_not_one_dimensional(self, tmp_path, shape):
        target = self._saved(tmp_path)
        members = _member_bytes(target)
        members["norms.npy"] = _npy_header("<f8", shape) + bytes(8 * math.prod(shape))
        _write_members(target, members)
        with pytest.raises(IndexFormatError, match="member norms is not a 1-d"):
            load_index(target)

    def test_unpickles_nothing(self, tmp_path, monkeypatch):
        target = self._saved(tmp_path)
        payload = _read_payload(target)
        payload["norms"] = payload["norms"].astype(object)
        _write_payload(target, payload)
        monkeypatch.setattr("pickle.loads", None)
        monkeypatch.setattr("pickle.load", None)
        with pytest.raises(IndexFormatError, match="member norms is not a 1-d"):
            load_index(target)

    @pytest.mark.parametrize("n_bytes", [0, 8, 16, 24, 40])
    def test_data_must_fill_the_declared_shape(self, tmp_path, n_bytes):
        target = self._saved(tmp_path)
        members = _member_bytes(target)
        assert len(np.load(io.BytesIO(members["norms.npy"]))) == 2
        members["norms.npy"] = _npy_header("<f8", (2,)) + bytes(n_bytes)
        _write_members(target, members)
        if n_bytes == 16:
            with pytest.raises(IndexFormatError, match="norm differs"):
                load_index(target)
        else:
            with pytest.raises(IndexFormatError, match="declares 2 elements"):
                load_index(target)

    def test_huge_declared_shape_fails_before_allocating(self, tmp_path):
        target = self._saved(tmp_path)
        members = _member_bytes(target)
        members["data.npy"] = _npy_header("<f8", (2 ** 40,)) + bytes(16)
        _write_members(target, members)
        tracemalloc.start()
        try:
            with pytest.raises(IndexFormatError, match=f"declares {2 ** 40} elements"):
                load_index(target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_npy_version_2_member(self, tmp_path):
        target = self._saved(tmp_path)
        members = _member_bytes(target)
        buffer = io.BytesIO()
        npy.write_array(buffer, np.load(io.BytesIO(members["norms.npy"])), version=(2, 0))
        members["norms.npy"] = buffer.getvalue()
        _write_members(target, members)
        with pytest.raises(IndexFormatError, match=r"member norms is not a 1-d <f8 array in \.npy format 1\.0"):
            load_index(target)


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
        target = tmp_path / "idx.npz"
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
        target = tmp_path / "idx.npz"
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
        target = tmp_path / "idx.npz"
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
        target = os.path.join(tmp, "idx.npz")
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
        target = os.path.join(tmp, "idx.npz")
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
    with zipfile.ZipFile(io.BytesIO(_saved_index_bytes())) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


class TestLoadFuzz:
    @given(payload=_mutated_payloads())
    @settings(max_examples=300)
    def test_mutated_payload_is_rejected_or_ranks(self, payload, tmp_path_factory):
        target = tmp_path_factory.mktemp("fuzz") / "idx.npz"
        _write_payload(target, payload)
        _loads_and_ranks_or_is_rejected(target)

    @given(content=_edits(_saved_index_bytes()))
    @settings(max_examples=300)
    def test_mutated_zip_bytes_are_rejected_or_rank(self, content, tmp_path_factory):
        target = tmp_path_factory.mktemp("fuzz") / "idx.npz"
        target.write_bytes(content)
        _loads_and_ranks_or_is_rejected(target)

    @given(data=st.data(), name=st.sampled_from(sorted(_saved_members())))
    @settings(max_examples=300)
    def test_mutated_member_bytes_are_rejected_or_rank(self, data, name, tmp_path_factory):
        # The zip around the edited member is sound, so the edit reaches the
        # .npy header and data checks.
        members = dict(_saved_members())
        members[name] = data.draw(_edits(members[name]))
        target = tmp_path_factory.mktemp("fuzz") / "idx.npz"
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
        target = tmp_path_factory.mktemp("idx") / "i.npz"
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
            target = tmp_path / f"idx{len(saved)}.npz"
            save_index(self._index(), target)
            saved.append(target.read_bytes())
        assert saved[0] == saved[1]

    def test_same_bytes_from_two_processes(self, tmp_path):
        here = tmp_path / "here.npz"
        save_index(self._index(), here)
        src = os.path.dirname(os.path.dirname(os.path.abspath(croloc.__file__)))
        for seed in ("1", "2"):
            target = tmp_path / f"child{seed}.npz"
            env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]),
                       PYTHONHASHSEED=seed)
            result = subprocess.run([sys.executable, "-c", _SAVE_IN_CHILD, str(target)],
                                    env=env, capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            assert target.read_bytes() == here.read_bytes()


# A member of each type a saved index holds: (name, typecode, .npy type).
_WRITER_MEMBERS = (("meta", "B", "|u1"), ("indptr", "q", "<i8"), ("data", "d", "<f8"))


def _with_header_spaces(content: bytes, change: int) -> bytes:
    """An .npy member whose header has ``change`` more spaces before its
    newline, its stated length adjusted to match."""
    end = content.index(b"\n")
    spaces = b" " * max(change, 0)
    size = int.from_bytes(content[8:10], "little") + change
    return (content[:8] + size.to_bytes(2, "little") + content[10:end + min(change, 0)]
            + spaces + content[end:])


class TestNpzWriter:
    """save_index writes its archive without numpy: it must lay out every
    member type it writes as np.savez does, at element counts on either side
    of each digit-count step in the header, and _read_member must take each
    back and refuse a header that differs by one space."""

    @pytest.mark.parametrize("length", [0, 1, 9, 10, 99, 100, 10 ** 6])
    def test_same_bytes_as_np_savez_and_read_back(self, length):
        values = {
            "meta": np.arange(length, dtype=np.uint8),  # wraps at 256
            "indptr": np.arange(length, dtype="<i8") * -7919 + 3,
            "data": np.linspace(-1.0, 1.0, length, dtype="<f8") / 3.0,
        }
        written = io.BytesIO()
        _write_npz(written, {name: (descr, _little_endian(values[name], code))
                             for name, code, descr in _WRITER_MEMBERS})
        expected = io.BytesIO()
        np.savez(expected, **values)
        assert written.getvalue() == expected.getvalue()
        with zipfile.ZipFile(written) as archive:
            for name, _, descr in _WRITER_MEMBERS:
                got = _read_member(archive, name)
                assert got.dtype == np.dtype(descr) and got.tobytes() == values[name].tobytes()

    @pytest.mark.parametrize("change", [1, -1], ids=["one-more", "one-fewer"])
    @pytest.mark.parametrize("length", [0, 1, 9, 10, 99, 100])
    def test_header_off_by_one_space_is_refused(self, tmp_path, length, change):
        written = io.BytesIO()
        _write_npz(written, {name: (descr, array(code, range(length)))
                             for name, code, descr in _WRITER_MEMBERS})
        members = _member_bytes(written)
        for name, _, descr in _WRITER_MEMBERS:
            target = tmp_path / f"{name}.npz"
            _write_members(target, {**members, f"{name}.npy": _with_header_spaces(
                members[f"{name}.npy"], change)})
            with zipfile.ZipFile(target) as archive:
                with pytest.raises(ValueError, match=f"member {name} is not a 1-d {descr}"):
                    _read_member(archive, name)


class TestAtomicSave:
    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        target = tmp_path / "idx.npz"
        target.write_text("old index\n", encoding="utf-8")
        index = build_index([["alpha", "beta"], ["beta"]], ["a", "b"])
        real_open = zipfile.ZipFile.open

        def failing_open(archive, name, *args, **kwargs):
            if name == "data.npy":  # after the head of the file is written
                raise OSError("disk full")
            return real_open(archive, name, *args, **kwargs)

        monkeypatch.setattr(zipfile.ZipFile, "open", failing_open)
        with pytest.raises(OSError, match="disk full"):
            save_index(index, target)
        assert target.read_text(encoding="utf-8") == "old index\n"
        assert os.listdir(tmp_path) == ["idx.npz"]
