"""Per-layer tracing of one croloc CLI command, installed from outside croloc.

    python3 perfbench/tracer.py OUT.json <croloc arguments...>

wraps public functions of the ``croloc`` modules at the names their callers
look up, runs ``croloc.cli.main`` with the arguments, and writes what it
recorded to OUT.json. Nothing under ``src/`` changes.

A span wrapper adds the call's duration to its name's total, and to its self
time minus the time spent in spans it caused. Functions that run once per
history entry or per cache lookup get a counter only, since a span there
would cost more than the work it measures.
"""
from __future__ import annotations

import json
import os
import sys
from time import perf_counter


class Tracer:
    """Span totals, self times, call counts and counters of one process."""

    def __init__(self):
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.top_s = 0.0  # time inside spans that no other span caused
        self._open: list[float] = []  # child time of each open span

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name, fn, on_result=None, sample=None):
        """Wrap ``fn`` as span ``name``. ``on_result(tracer, args, result)``
        records counts after the clock stops; ``sample`` names a list that
        keeps each call's duration."""
        open_spans = self._open

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                else:
                    self.top_s += elapsed
                self.total[name] = self.total.get(name, 0.0) + elapsed
                self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - child
                self.calls[name] = self.calls.get(name, 0) + 1
                if sample is not None:
                    self.samples.setdefault(sample, []).append(elapsed)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def to_json(self) -> dict:
        return {"total": self.total, "self": self.self_s, "calls": self.calls,
                "counts": self.counts, "samples": self.samples, "top_s": self.top_s}


def _kernel_work(tracer: Tracer, args, result) -> None:
    indptr, indices, _data, _norms, _qdense, _qnorm = args
    nnz, n_docs = int(indices.shape[0]), int(indptr.shape[0]) - 1
    tracer.count("kernels.nnz_touched", nnz)
    # Least traffic of one sweep: each nonzero reads its weight, its term id
    # and the query weight it gathers (8 bytes each); each row reads its
    # offset and norm and writes its score.
    tracer.count("kernels.bytes_moved", 24 * nnz + 24 * n_docs)


def _loaded_index(tracer: Tracer, args, index) -> None:
    tracer.counts["index.vocab"] = len(index.vocabulary)
    tracer.counts["index.nnz"] = sum(len(v.weights) for v in index.vectors)


def _corpus(tracer: Tracer, args, corpus) -> None:
    tracer.count("corpus.files", len(corpus.documents))
    tracer.count("corpus.bytes", sum(d.byte_len for d in corpus.documents))


def _excluded(tracer: Tracer, args, result) -> None:
    for ex in result[1]:
        tracer.count("excluded:" + ex.reason)


def _ranked(tracer: Tracer, args, result) -> None:
    tracer.count("rank.rows_kept", len(result))
    tracer.count("rank.docs_sorted", args[1].n_docs)


def _saved(tracer: Tracer, args, result) -> None:
    tracer.counts["index.bytes"] = os.path.getsize(args[1])


def _counted(name):
    return lambda tracer, args, result: tracer.count(name, len(result))


def install(tracer: Tracer) -> None:
    """Wrap croloc's public functions where the pipeline looks them up."""
    import croloc.cli as cli
    import croloc.index as index
    import croloc.rank as rank
    import croloc.translate as translate

    span = tracer.span
    cli_spans = {
        "load_source_tree": ("corpus.load", _corpus),
        "load_bug_reports": ("corpus.reports_load", None),
        "filter_usable_reports": ("corpus.filter", _excluded),
        "load_glossary": ("translate.glossary_load", None),
        "translate_document": ("translate.document", None),
        "translate_report": ("translate.report", None),
        "index_documents": ("index.documents", None),
        "save_index": ("index.save", _saved),
        "load_index": ("index.load", _loaded_index),
        "write_run_file": ("rank.write", None),
        "load_commit_log": ("eval.commit_log_load", None),
        "link_oracles": ("eval.link", None),
        "write_qrels": ("eval.write_qrels", None),
        "read_run_file": ("eval.read_run", None),
        "read_qrels": ("eval.read_qrels", None),
        "evaluate": ("eval.evaluate",
                     lambda t, a, r: t.count("eval.queries", r.n_queries)),
    }
    for attr, (name, on_result) in cli_spans.items():
        setattr(cli, attr, span(name, getattr(cli, attr), on_result))
    # The per-query loop of locate: each of these runs once per query.
    cli.vectorize_query = span("index.vectorize", cli.vectorize_query, sample="vectorize")
    cli.score_documents = span("rank.score", cli.score_documents, sample="score")
    cli.make_ranking = span("rank.ranking", cli.make_ranking, _ranked, sample="ranking")

    translate.extract_spans = span("extract.spans", translate.extract_spans,
                                   _counted("extract.spans"))
    translate.japanese_segments = span("extract.segments", translate.japanese_segments,
                                       _counted("extract.segments"))
    translate.reembed = span("extract.reembed", translate.reembed)
    translate.translate_texts = span("translate.texts", translate.translate_texts)
    cache_cls, backend_cls = translate.TranslationCache, translate.GlossaryBackend
    cache_cls.__init__ = span("translate.cache_load", cache_cls.__init__)
    cache_cls.put_many = span("translate.cache_write", cache_cls.put_many)
    backend_cls.translate_batch = span(
        "translate.backend", backend_cls.translate_batch,
        lambda t, a, r: t.count("translate.backend_texts", len(r)))
    cache_get = cache_cls.get
    counts = tracer.counts

    def get(self, backend_name, source):
        hit = cache_get(self, backend_name, source)
        key = "translate.cache_misses" if hit is None else "translate.cache_hits"
        counts[key] = counts.get(key, 0) + 1
        return hit
    cache_cls.get = get

    index.tokenize = span("index.tokenize", index.tokenize, _counted("index.tokens"))
    index.build_index = span("index.build", index.build_index)
    index.vectorize_query = span("index.vectorize", index.vectorize_query)
    index.Index.csr = span("index.csr", index.Index.csr)

    rank.simi_scores = span("rank.simi", rank.simi_scores)
    rank.rvsm_scores = span("rank.rvsm", rank.rvsm_scores)
    rank.csr_cosine = span("kernels.cosine", rank.csr_cosine, _kernel_work)
    history = rank.HistorySet
    history.build = classmethod(span("rank.history_build", history.build.__func__))
    history.before = span("rank.history_before", history.before,
                          _counted("rank.history_scanned"), sample="before")
    cosine = rank.cosine

    def counted_cosine(*args):
        sim = cosine(*args)
        if sim != 0.0:
            counts["rank.cosine_nonzero"] = counts.get("rank.cosine_nonzero", 0) + 1
        return sim
    rank.cosine = counted_cosine


def main(argv: list[str]) -> int:
    out_path, args = argv[0], argv[1:]
    import croloc.cli

    tracer = Tracer()
    install(tracer)
    try:
        return croloc.cli.main(args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
