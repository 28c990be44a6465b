"""Tokenizer, weighting, and index persistence tests."""
from __future__ import annotations

import functools
import io
import json
import math
import os
import re
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croloc.errors import IndexFormatError
from croloc.index import (
    Index,
    TokenizerOptions,
    build_index,
    default_stopwords,
    idf,
    index_documents,
    load_index,
    query_dense,
    save_index,
    tf,
    tokenize,
    vectorize_query,
    vectorize_tokens,
)
from croloc.rank import make_ranking, vsm_scores
from reference import ref_tokenize


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
        opts = TokenizerOptions(stemming=True)
        assert tokenize("parse_error2x", opts) == ["pars", "error"]

    def test_stemming_whole_and_parts(self):
        opts = TokenizerOptions(stemming=True)
        assert tokenize("parsingErrors", opts) == ["parsingerror", "pars", "error"]

    def test_compound_requires_two_subtokens(self):
        assert tokenize("request") == ["request"]

    def test_compound_blocked_by_digits(self):
        # letter-digit identifiers emit letter pieces but no compound
        toks = tokenize("sha256sum")
        assert toks == ["sha", "sum"]

    def test_empty_and_symbol_only(self):
        assert tokenize("") == []
        assert tokenize("!!! ---") == []

    def test_custom_stopwords(self):
        opts = TokenizerOptions(stopwords=frozenset({"file"}))
        assert tokenize("the file", opts) == ["the"]

    def test_min_token_length_option(self):
        opts = TokenizerOptions(min_token_length=5, stopwords=frozenset())
        assert tokenize("parse io", opts) == ["parse"]

    def test_default_stopwords_loaded(self):
        words = default_stopwords()
        assert "the" in words
        assert "of" in words
        assert "file" not in words

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_tokens_are_lowercase_and_long_enough(self, text):
        opts = TokenizerOptions()
        for tok in tokenize(text, opts):
            assert tok == tok.lower()
            assert len(tok) >= opts.min_token_length
            assert tok not in opts.stopwords

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
_tokenizer_options = st.builds(
    TokenizerOptions,
    stemming=st.booleans(),
    min_token_length=st.integers(1, 4),
    stopwords=st.one_of(
        st.just(default_stopwords()),
        st.frozensets(st.sampled_from(
            ["get", "user", "name", "http", "server", "the", "file", "修正", "pars", "é"]
        )),
    ),
)


class TestTokenizeOracle:
    """The regex tokenizer against the per-character one it replaced."""

    @given(text=_tokenizer_text, opts=_tokenizer_options)
    @settings(max_examples=400)
    def test_same_tokens_as_reference(self, text, opts):
        assert tokenize(text, opts) == ref_tokenize(text, opts)

    @given(text=st.text(max_size=80))
    @settings(max_examples=200)
    def test_same_tokens_on_any_text(self, text):
        assert tokenize(text) == ref_tokenize(text)

    def test_word_class_is_isalnum_at_every_code_point(self):
        # Words are runs of [^\W_]; a Python whose re disagrees with
        # str.isalnum() anywhere would tokenize differently.
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"[^\W_]", every) == [c for c in every if c.isalnum()]


class TestWeighting:
    def test_tf_formula(self):
        assert tf(2, 10) == pytest.approx(math.log(2 / 10 + 1))

    def test_tf_zero_length_doc(self):
        assert tf(3, 0) == 0.0

    def test_tf_zero_count(self):
        assert tf(0, 10) == 0.0

    def test_idf_formula(self):
        assert idf(2, 8) == pytest.approx(math.log(4.0))

    def test_idf_term_in_every_doc(self):
        assert idf(8, 8) == 0.0

    def test_idf_unseen_term(self):
        assert idf(0, 8) == 0.0

    def test_tf_monotone_in_count(self):
        values = [tf(c, 50) for c in range(1, 20)]
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
        expected = tf(2, 3) * idf(2, 3)
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
        index = index_documents(
            ["cache miss", "order total"], ["a.java", "b.java"], TokenizerOptions()
        )
        assert set(index.vocabulary) == {"cache", "miss", "order", "total"}
        assert index.vectors[0].term_count == 2


class TestQueryVector:
    def test_oov_counts_in_denominator(self):
        index = build_index([["alpha", "beta"], ["gamma"]], ["a", "b"])
        qv = vectorize_tokens(["alpha", "alpha", "zzz"], index)
        assert qv.term_count == 3  # unseen token still counts toward length
        tid = index.vocabulary.index("alpha")
        expected = tf(2, 3) * idf(1, 2)
        assert qv.weights[tid] == pytest.approx(expected, rel=1e-12)
        assert len(qv.weights) == 1

    def test_all_oov_query(self):
        index = build_index([["alpha"]], ["a"])
        qv = vectorize_tokens(["zzz", "yyy"], index)
        assert qv.weights == {}
        assert qv.norm == 0.0
        assert qv.term_count == 2

    def test_vectorize_query_uses_index_options(self):
        index = index_documents(
            ["parsing errors happen", "order total"],
            ["a.java", "b.java"],
            TokenizerOptions(stemming=True),
        )
        qv = vectorize_query("parsing errors", index)
        assert qv.weights  # stems line up only if the query was stemmed too
        stems = {index.vocabulary[tid] for tid in qv.weights}
        assert stems == {"pars", "error"}

    def test_query_dense_layout(self):
        index = build_index([["alpha", "beta"], ["beta"]], ["a", "b"])
        qv = vectorize_tokens(["alpha"], index)
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


class TestPersistence:
    def _index(self):
        return index_documents(
            ["cache miss rate", "order total", "キャッシュ miss"],
            ["a.java", "b.java", "c.java"],
            TokenizerOptions(stemming=True),
        )

    def test_round_trip_equality(self, tmp_path):
        index = self._index()
        target = tmp_path / "idx.json"
        save_index(index, target)
        loaded = load_index(target)
        assert loaded == index
        assert loaded.options.stemming is True
        assert loaded.options.stopwords == index.options.stopwords

    def test_bytes_equal_one_json_dump_of_the_payload(self, tmp_path):
        index = index_documents(
            ["cache miss rate", "order total", "キャッシュ miss \"quoted\"", ""],
            ["a.java", "dir/在庫.java", "c.java", "d.java"],
            TokenizerOptions(stemming=True),
        )
        target = tmp_path / "idx.json"
        save_index(index, target)
        payload = {
            "format": "croloc-index",
            "version": 2,
            "options": {
                "stemming": True,
                "min_token_length": index.options.min_token_length,
                "stopwords": sorted(index.options.stopwords),
            },
            "paths": list(index.paths),
            "vocabulary": list(index.vocabulary),
            "doc_freq": list(index.doc_freq),
            **{name: getattr(index, name).tolist()
               for name in ("indptr", "indices", "data", "norms", "term_counts")},
        }
        expected = io.StringIO()
        json.dump(payload, expected, ensure_ascii=False)
        expected.write("\n")
        assert target.read_bytes() == expected.getvalue().encode("utf-8")

    def test_round_trip_preserves_scores(self, tmp_path):
        index = self._index()
        target = tmp_path / "idx.json"
        save_index(index, target)
        loaded = load_index(target)
        qv_a = vectorize_query("cache miss", index)
        qv_b = vectorize_query("cache miss", loaded)
        assert qv_a.weights == qv_b.weights

    def test_file_is_json_with_format_marker(self, tmp_path):
        index = self._index()
        target = tmp_path / "idx.json"
        save_index(index, target)
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["format"] == "croloc-index"
        assert payload["version"] == 2
        assert payload["indptr"] == index.indptr.tolist()
        assert payload["data"] == index.data.tolist()

    def test_load_rejects_bad_json(self, tmp_path):
        target = tmp_path / "idx.json"
        target.write_text("{not json", encoding="utf-8")
        with pytest.raises(IndexFormatError):
            load_index(target)

    def test_load_rejects_wrong_format(self, tmp_path):
        target = tmp_path / "idx.json"
        target.write_text(json.dumps({"format": "other", "version": 2}), encoding="utf-8")
        with pytest.raises(IndexFormatError):
            load_index(target)

    def test_load_rejects_wrong_version(self, tmp_path):
        index = self._index()
        target = tmp_path / "idx.json"
        save_index(index, target)
        payload = json.loads(target.read_text(encoding="utf-8"))
        for version in (1, 99):  # 1 is the retired per-document format
            payload["version"] = version
            target.write_text(json.dumps(payload), encoding="utf-8")
            with pytest.raises(IndexFormatError, match="unsupported index version"):
                load_index(target)

    def test_load_rejects_malformed_payload(self, tmp_path):
        index = self._index()
        target = tmp_path / "idx.json"
        save_index(index, target)
        payload = json.loads(target.read_text(encoding="utf-8"))
        del payload["vocabulary"]
        target.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(IndexFormatError):
            load_index(target)

    def test_load_rejects_vector_count_mismatch(self, tmp_path):
        """A matrix one row short of the paths, consistent otherwise."""
        index = self._index()
        target = tmp_path / "idx.json"
        save_index(index, target)
        payload = json.loads(target.read_text(encoding="utf-8"))
        nnz = payload["indptr"][-2]
        payload["indptr"] = payload["indptr"][:-1]
        payload["indices"] = payload["indices"][:nnz]
        payload["data"] = payload["data"][:nnz]
        payload["norms"] = payload["norms"][:-1]
        payload["term_counts"] = payload["term_counts"][:-1]
        target.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(IndexFormatError, match="path count"):
            load_index(target)


def _mutate_doc_order(payload):
    """Rows out of order: indptr decreases."""
    indptr = payload["indptr"]
    indptr[1], indptr[2] = indptr[2], indptr[1]


def _mutate_duplicate_doc_id(payload):
    """The first document's row is stored again, one row more than paths."""
    lo, hi = payload["indptr"][0], payload["indptr"][1]
    payload["indices"] += payload["indices"][lo:hi]
    payload["data"] += payload["data"][lo:hi]
    payload["indptr"].append(payload["indptr"][-1] + hi - lo)
    payload["norms"].append(payload["norms"][0])
    payload["term_counts"].append(payload["term_counts"][0])


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


class TestLoadValidation:
    """Payloads that parse but would index wrongly are rejected on load."""

    @pytest.mark.parametrize("mutate", [
        _mutate_doc_order,
        _mutate_duplicate_doc_id,
        _set("indices", 0, 6),
        _set("indices", 0, -1),
        _set("indices", 0, 2 ** 70),
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
        _set("indices", 0, True),
        _set("indptr", 1, 3.0),
        _set("term_counts", 0, "3"),
        _set("data", 0, "0.5"),
        _set("data", 0, True),
        _set("norms", 0, None),
        _set("doc_freq", 0, 1.0),
        _set("paths", 0, 7),
        _set("vocabulary", 0, None),
    ], ids=["doc-order", "duplicate-doc-id", "term-id-past-vocab", "negative-term-id",
            "term-id-beyond-int64", "nan-weight", "infinite-norm", "edited-norm",
            "edited-weight", "doc-freq-length",
            "norms-length", "term-counts-length", "data-length", "indptr-start",
            "indptr-end", "term-ids-descending", "term-id-repeated", "negative-term-count",
            "doc-freq-zero", "doc-freq-above-doc-count", "bool-term-id", "float-indptr",
            "string-term-count", "string-weight", "bool-weight", "null-norm",
            "float-doc-freq", "non-string-path", "non-string-term"])
    def test_rejects_mutated_payload(self, tmp_path, mutate):
        index = index_documents(
            ["cache miss rate", "order total", "cache order sync"],
            ["a.java", "b.java", "c.java"],
        )
        target = tmp_path / "idx.json"
        save_index(index, target)
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["indptr"] == [0, 3, 5, 8] and len(payload["vocabulary"]) == 6
        mutate(payload)
        target.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(IndexFormatError):
            load_index(target)

    def test_rejects_infinite_min_token_length(self, tmp_path):
        # JSON's Infinity parses to a float that int() cannot convert.
        target = tmp_path / "idx.json"
        save_index(index_documents(["cache miss"], ["a.java"]), target)
        payload = json.loads(target.read_text(encoding="utf-8"))
        payload["options"]["min_token_length"] = float("inf")
        target.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(IndexFormatError, match="malformed index payload"):
            load_index(target)


@functools.cache
def _saved_index_text() -> str:
    """A small saved index, with an empty document."""
    index = index_documents(["cache miss rate", "order total", "cache order sync", ""],
                            ["a.java", "b.java", "c.java", "d.java"])
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "idx.json")
        save_index(index, target)
        with open(target, encoding="utf-8") as fh:
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


@st.composite
def _mutated_payloads(draw):
    """A saved index payload with one to three random edits."""
    payload = json.loads(_saved_index_text())
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.one_of(st.sampled_from(_ARRAY_KEYS), st.sampled_from(sorted(payload))))
        value = payload.get(key)
        action = draw(st.sampled_from(["set", "set", "delete", "insert", "replace",
                                       "delete-key"]))
        if action == "replace" or value is None:
            payload[key] = draw(_json_values())
        elif action == "delete-key":
            del payload[key]
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
    return payload


class TestLoadFuzz:
    @given(payload=_mutated_payloads())
    @settings(max_examples=300, deadline=None)
    def test_mutated_payload_is_rejected_or_ranks(self, payload, tmp_path_factory):
        target = tmp_path_factory.mktemp("fuzz") / "idx.json"
        target.write_text(json.dumps(payload), encoding="utf-8")
        try:
            index = load_index(target)
        except IndexFormatError:
            return
        query = vectorize_tokens(["cache", "order", "sync", *index.vocabulary[:2]], index)
        ranking = make_ranking(vsm_scores(query, index), index, top_k=0)
        assert sorted(ranking.tolist()) == list(range(index.n_docs))


@st.composite
def _corpora(draw):
    words = st.sampled_from(
        ["cache", "miss", "order", "total", "sync", "batch", "price", "stock"]
    )
    docs = draw(st.lists(st.lists(words, max_size=12), min_size=1, max_size=6))
    paths = [f"f{i}.java" for i in range(len(docs))]
    return docs, paths


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
        target = tmp_path_factory.mktemp("idx") / "i.json"
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

    @given(corpus=_corpora())
    @settings(max_examples=100)
    def test_document_tokens_vectorize_to_their_row(self, corpus):
        # Documents and queries share one weighting: a document's own tokens,
        # vectorized as a query, give back its stored row and norm exactly.
        docs, paths = corpus
        index = build_index(docs, paths)
        indptr, indices, data, norms = index.csr()
        for d, tokens in enumerate(docs):
            lo, hi = indptr[d], indptr[d + 1]
            qv = vectorize_tokens(tokens, index)
            assert qv.weights == dict(zip(indices[lo:hi].tolist(), data[lo:hi].tolist()))
            assert qv.norm == norms[d]
            assert qv.term_count == index.term_counts[d]


class TestAtomicSave:
    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        target = tmp_path / "idx.json"
        target.write_text("old index\n", encoding="utf-8")
        index = build_index([["alpha", "beta"], ["beta"]], ["a", "b"])
        real_dumps = json.dumps

        def failing_dumps(value, **kwargs):
            if value == "data":  # after the head of the file is written
                raise OSError("disk full")
            return real_dumps(value, **kwargs)

        monkeypatch.setattr("croloc.index.json.dumps", failing_dumps)
        with pytest.raises(OSError, match="disk full"):
            save_index(index, target)
        assert target.read_text(encoding="utf-8") == "old index\n"
        assert os.listdir(tmp_path) == ["idx.json"]
