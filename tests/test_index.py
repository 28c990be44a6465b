"""Tokenizer, weighting, and index persistence tests."""
from __future__ import annotations

import json
import math

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
        assert payload["version"] == 1

    def test_load_rejects_bad_json(self, tmp_path):
        target = tmp_path / "idx.json"
        target.write_text("{not json", encoding="utf-8")
        with pytest.raises(IndexFormatError):
            load_index(target)

    def test_load_rejects_wrong_format(self, tmp_path):
        target = tmp_path / "idx.json"
        target.write_text(json.dumps({"format": "other", "version": 1}), encoding="utf-8")
        with pytest.raises(IndexFormatError):
            load_index(target)

    def test_load_rejects_wrong_version(self, tmp_path):
        index = self._index()
        target = tmp_path / "idx.json"
        save_index(index, target)
        payload = json.loads(target.read_text(encoding="utf-8"))
        payload["version"] = 99
        target.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(IndexFormatError):
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
        index = self._index()
        target = tmp_path / "idx.json"
        save_index(index, target)
        payload = json.loads(target.read_text(encoding="utf-8"))
        payload["vectors"] = payload["vectors"][:-1]
        target.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(IndexFormatError):
            load_index(target)


def _mutate_doc_order(payload):
    vectors = payload["vectors"]
    vectors[0]["doc_id"], vectors[1]["doc_id"] = vectors[1]["doc_id"], vectors[0]["doc_id"]


def _mutate_duplicate_doc_id(payload):
    payload["vectors"][1]["doc_id"] = payload["vectors"][0]["doc_id"]


def _mutate_term_id(new_id):
    def mutate(payload):
        weights = payload["vectors"][0]["weights"]
        term = next(iter(weights))
        weights[str(new_id(len(payload["vocabulary"])))] = weights.pop(term)
    return mutate


def _mutate_weight(payload):
    weights = payload["vectors"][1]["weights"]
    weights[next(iter(weights))] = float("nan")


def _mutate_norm(payload):
    payload["vectors"][2]["norm"] = float("inf")


def _mutate_doc_freq(payload):
    payload["doc_freq"] = payload["doc_freq"][:-1]


class TestLoadValidation:
    """Payloads that parse but would index wrongly are rejected on load."""

    @pytest.mark.parametrize("mutate", [
        _mutate_doc_order,
        _mutate_duplicate_doc_id,
        _mutate_term_id(lambda n_terms: n_terms),
        _mutate_term_id(lambda n_terms: -1),
        _mutate_term_id(lambda n_terms: 2 ** 70),
        _mutate_weight,
        _mutate_norm,
        _mutate_doc_freq,
    ], ids=["doc-order", "duplicate-doc-id", "term-id-past-vocab", "negative-term-id",
            "term-id-beyond-int64", "nan-weight", "infinite-norm", "doc-freq-length"])
    def test_rejects_mutated_payload(self, tmp_path, mutate):
        index = index_documents(
            ["cache miss rate", "order total", "cache order sync"],
            ["a.java", "b.java", "c.java"],
        )
        target = tmp_path / "idx.json"
        save_index(index, target)
        payload = json.loads(target.read_text(encoding="utf-8"))
        mutate(payload)
        target.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(IndexFormatError):
            load_index(target)


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
