"""Command line interface.

Subcommands compose into a pipeline:

    extract    dump comment/string spans and their Japanese segments
    translate  materialize a translated source tree and report file
    index      build the tf-idf index (translating in memory by default)
    locate     rank files for each bug report into a TREC run file
    qrels      derive relevance judgments from fix lists and a commit log
    eval       score a run file against qrels

Every subcommand accepts --config pointing at a JSON object whose keys match
the long option names; explicit flags win over config values. Exit status is
0 only when the command completed without error.
"""
from __future__ import annotations

import argparse
import importlib
import json
import logging
import os
import sys
from collections.abc import Sequence
from contextlib import AbstractContextManager, closing, nullcontext
from pathlib import Path, PurePosixPath
from typing import TYPE_CHECKING

from . import DEFAULT_ALPHA, DEFAULT_TOP_K, MODES, TECHNIQUES
from .corpus import (
    Corpus,
    SourceDocument,
    fan_out,
    filter_usable_reports,
    load_bug_reports,
    load_source_tree,
    parse_json,
    read_lines,
    report_to_obj,
    run_tasks,
    spare_cpu,
    typed,
    write_atomically,
)
from .errors import ConfigError, CrolocError

if TYPE_CHECKING:
    from array import array

    from .corpus import BugReport
    from .index import Index
    from .translate import CacheRow, TranslatorBackend

# Names taken from modules that not every command needs. They become globals
# of this module when a command that calls them starts (``_bind``), not at
# import: ``rank`` imports numpy, which only locate uses, and index uses
# nothing of ``evalharness``. Commands call them through these globals, so a
# wrapper set on this module (perfbench/tracer.py) sees every call. No
# command calls ``translate_document``, ``translate_report`` or
# ``vectorize_query``; they stay here for wrappers that look them up.
_LAZY = {
    "evalharness": ("evaluate", "link_oracles", "load_commit_log", "read_qrels",
                    "read_run_file", "write_qrels", "write_run_file"),
    "extract": ("extract_spans", "japanese_segments"),
    "index": ("QueryRows", "load_index", "query_weights", "read_index_meta", "save_index",
              "vectorize_query"),
    "rank": ("HistorySet", "make_ranking", "query_chunks", "score_documents"),
    "translate": ("GlossaryBackend", "IdentityBackend", "ServiceBackend",
                  "TranslationCache", "load_glossary", "translate_document",
                  "translate_documents", "translate_report", "translate_reports"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def _bind(*modules: str) -> None:
    """Bind the names ``_LAZY`` lists for ``modules`` as globals of this
    module, keeping any that is bound already."""
    scope = globals()
    for module in modules:
        loaded = importlib.import_module(f"{__package__}.{module}")
        for name in _LAZY[module]:
            scope.setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    """``croloc.cli.<name>`` of a ``_LAZY`` name, read from outside before any
    command bound it (PEP 562)."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(module)
    return globals()[name]


log = logging.getLogger(__name__)

DEFAULT_INCLUDE = ("**/*.java", "**/*.cs")
TRANSLATORS = ("identity", "glossary", "service")

# Config keys mirror long option names; anything else is a typo worth failing on.
CONFIG_KEYS = {
    "tree": str, "reports": str, "include": list, "permissive": bool, "translator": str,
    "glossary": str, "cache": str, "service_url": str, "alpha": float, "top_k": int,
    "technique": str, "mode": str, "stemming": bool, "out_dir": str,
}


def _apply_config(args: argparse.Namespace) -> None:
    """Check every --config setting and give it to each option no flag set."""
    if not (path := args.config):
        return
    cfg = parse_json("".join(line for _, line in read_lines(path, ConfigError)), ConfigError, path)
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    if unknown := set(cfg) - set(CONFIG_KEYS):
        raise ConfigError(f"config {path} has unknown keys: {', '.join(sorted(unknown))}")
    for key, value in cfg.items():
        if value is None:
            continue
        try:
            value = typed(value, CONFIG_KEYS[key])
        except ValueError as exc:
            raise ConfigError(f"--{key.replace('_', '-')} in config {path} {exc}") from None
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def _require(args: argparse.Namespace, name: str) -> str:
    value = getattr(args, name, None)
    if value is None:
        raise ConfigError(f"missing required option --{name.replace('_', '-')}")
    return value


def _fill(args: argparse.Namespace, **defaults) -> None:
    for key, value in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _load_tree(args: argparse.Namespace, tree: str) -> Corpus:
    include = list(DEFAULT_INCLUDE) if args.include is None else args.include
    return load_source_tree(tree, include, permissive=bool(args.permissive))


def _make_backend(args: argparse.Namespace) -> TranslatorBackend:
    kind = getattr(args, "translator", None)
    if kind is None:
        # Infer the backend from whichever option was supplied so that
        # passing --glossary alone does not silently translate nothing.
        has_glossary = bool(getattr(args, "glossary", None))
        has_url = bool(getattr(args, "service_url", None))
        if has_glossary and has_url:
            raise ConfigError(
                "both --glossary and --service-url given; "
                "pick a backend with --translator")
        kind = "glossary" if has_glossary else "service" if has_url else "identity"
    if kind == "identity":
        return IdentityBackend()
    if kind == "glossary":
        glossary_path = getattr(args, "glossary", None)
        if not glossary_path:
            raise ConfigError("the glossary translator requires --glossary")
        return GlossaryBackend(load_glossary(glossary_path))
    if kind == "service":
        url = getattr(args, "service_url", None)
        if not url:
            raise ConfigError("the service translator requires --service-url")
        return ServiceBackend(url)
    raise ConfigError(f"unknown translator {kind!r}; expected one of {TRANSLATORS}")


def _make_cache(path: str | None,
                owner: int | None = None) -> AbstractContextManager[TranslationCache | None]:
    """The --cache file at ``path``, to use in a ``with`` block; it yields
    None without one. Process ``owner`` writes the file, if given, and else
    this one."""
    if not path:
        return nullcontext()
    return TranslationCache(path, owner)


def _translating_backend(args: argparse.Namespace) -> TranslatorBackend | None:
    """The backend to translate with; None with --no-translate or the
    identity backend, which would change nothing."""
    if args.no_translate or isinstance(backend := _make_backend(args), IdentityBackend):
        return None
    return backend


def index_documents(documents: Sequence[SourceDocument], stemming: bool,
                    backend: TranslatorBackend | None, cache_path: str | None) -> Index:
    """The index of ``documents``, each translated through ``backend`` first
    unless it is None, with the translation cache at ``cache_path``, if any.
    Translating and tokenizing one document needs no other, so ``fan_out``
    spreads that step over the usable CPUs, and each chunk is translated in
    one ``translate_documents`` pass. The first chunk is this process's own,
    and comes while the forked ones may still run. Each chunk a child
    process ran hands back the cache rows it made, and this process adds them
    to the cache in document order, as a serial run would have. A chunk whose
    backend batch fails hands back the rows of the batches before it, and its
    error is raised in its chunk's turn. The cache is closed, which frees its
    entries, at the end, or before tokenizing when this process runs the only
    chunk. The tokenizer's word memo is emptied once every chunk is in."""
    # Looked up now, not at import, so that a wrapper set on croloc.index
    # sees every call.
    from .index import build_index, clear_memo, tokenize

    def translate_and_tokenize(translated: Sequence[SourceDocument]) -> tuple[
            list[list[str]], list[CacheRow], CrolocError | None]:
        # All translating, then all tokenizing: alternating the two per
        # document made the index command 5-12% slower on a 2-CPU VM.
        if backend is not None:
            try:
                translated = [doc for doc, _ in translate_documents(translated, backend, cache)]
            except CrolocError as exc:
                # The rows of the batches before the failing one still go back.
                return [], [] if cache is None else cache.take_held(), exc
        rows = [] if cache is None else cache.take_held()
        if cache is not None and len(translated) == len(documents):
            # This process ran the only chunk, so no child's rows are left
            # to adopt: free the entries before tokenizing.
            cache.close()
        return [tokenize(doc.raw_text, stemming) for doc in translated], rows, None

    token_lists: list[list[str]] = []
    with (_make_cache(cache_path) as cache,
          closing(fan_out(translate_and_tokenize, documents,
                          [d.byte_len for d in documents])) as chunks):
        for tokens, rows, error in chunks:
            if cache is not None:
                cache.adopt(rows)
            if error is not None:
                raise error
            token_lists += tokens
    # The memo has paid off once the corpus is tokenized; building and
    # saving the index reuse its memory instead of adding to it.
    clear_memo()
    return build_index(token_lists, [d.path for d in documents], stemming)


def _default_index_path(args: argparse.Namespace) -> str:
    name = "index.notranslate.bin" if args.no_translate else "index.bin"
    return str(Path(args.out_dir) / name)


def _default_run_path(args: argparse.Namespace) -> str:
    suffix = ".notranslate" if args.no_translate else ""
    return str(Path(args.out_dir) / f"run.{args.technique}{suffix}.trec")


def cmd_extract(args: argparse.Namespace) -> int:
    _bind("extract")
    tree = _require(args, "tree")
    corpus = _load_tree(args, tree)
    to_stdout = args.out in (None, "-")
    n_spans = 0
    with nullcontext(sys.stdout) if to_stdout else write_atomically(args.out) as out:
        for doc in corpus.documents:
            for span in extract_spans(doc):
                segments = japanese_segments(span.text)
                obj = {
                    "path": doc.path,
                    "kind": span.kind.value,
                    "byte_start": span.byte_start,
                    "byte_end": span.byte_end,
                    "text": span.text,
                    "segments": [
                        {"byte_start": s.byte_start, "byte_end": s.byte_end, "text": s.text}
                        for s in segments
                    ],
                }
                out.write(json.dumps(obj, ensure_ascii=False) + "\n")
                n_spans += 1
    log.info("extracted %d spans from %d files", n_spans, len(corpus.documents))
    return 0


def cmd_translate(args: argparse.Namespace) -> int:
    _bind("translate")
    _fill(args, out_dir=".")
    if getattr(args, "tree", None) is None and getattr(args, "reports", None) is None:
        raise ConfigError("translate needs --tree and/or --reports")
    backend = _make_backend(args)
    out_dir = Path(args.out_dir)
    with _make_cache(args.cache) as cache:
        if getattr(args, "tree", None) is not None:
            corpus = _load_tree(args, args.tree)
            dest_root = out_dir / "translated"
            total_segments = 0
            for translated, n_segments in translate_documents(corpus.documents, backend,
                                                              cache):
                total_segments += n_segments
                dest = dest_root / PurePosixPath(translated.path)
                dest.parent.mkdir(parents=True, exist_ok=True)
                dest.write_bytes(translated.raw_bytes)
            log.info("translated %d segments across %d files into %s",
                     total_segments, len(corpus.documents), dest_root)

        if getattr(args, "reports", None) is not None:
            reports = translate_reports(load_bug_reports(args.reports), backend, cache)
            out_path = out_dir / "reports.translated.jsonl"
            with write_atomically(out_path) as fh:
                for report in reports:
                    fh.write(json.dumps(report_to_obj(report), ensure_ascii=False) + "\n")
            log.info("translated %d reports into %s", len(reports), out_path)
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    _bind("index", "translate")
    tree = _require(args, "tree")
    _fill(args, out_dir=".", stemming=False)
    corpus = _load_tree(args, tree)
    backend = _translating_backend(args)
    index = index_documents(corpus.documents, args.stemming, backend,
                            args.cache if backend is not None else None)
    out_path = args.out or _default_index_path(args)
    save_index(index, out_path)
    log.info("indexed %d documents, %d terms -> %s",
             index.n_docs, len(index.vocabulary), out_path)
    return 0


def _query_positions(args: argparse.Namespace, reports: list[BugReport],
                     paths: Sequence[str]) -> list[int]:
    """The positions in ``reports`` of the reports to rank: those --query
    names, or else the reports usable over the index's ``paths``."""
    at = {r.id: i for i, r in enumerate(reports)}
    if args.query:
        if missing := [q for q in args.query if q not in at]:
            raise ConfigError(f"unknown report ids: {', '.join(missing)}")
        # A run file ranks each query once.
        return [at[q] for q in dict.fromkeys(args.query)]
    queries, excluded = filter_usable_reports(reports, set(paths))
    for ex in excluded:
        log.info("report %s excluded: %s", ex.report.id, ex.reason)
    if not queries:
        raise ConfigError("no usable bug reports to rank; "
                          "use --query to force specific ids")
    return [at[r.id] for r in queries]


def _write_held(path: str, cut: int | None, rows: list[CacheRow]) -> None:
    """Write to the translation cache file at ``path`` what a cache that
    another process loaded held for this one, its owner: cut the file's
    unterminated last line off at ``cut``, unless it is None, then append
    the lines of ``rows``, as ``TranslationCache.adopt`` would."""
    if cut is not None:
        os.truncate(path, cut)
    if rows:
        with open(path, "a", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for _, _, line in rows)


def cmd_locate(args: argparse.Namespace) -> int:
    """Rank the files of the index for each query into a run file.

    Only scoring needs numpy, and importing it takes most of a short run. So
    once the options and the index's metadata line are checked, where a CPU
    is spare and numpy is not loaded yet, this process imports numpy and
    loads the index's arrays while a forked child, which never loads numpy,
    reads, translates, tokenizes and weighs every report; otherwise this
    process does both, in that order. This process, the translation cache's
    owner, alone writes the cache file: the rows the child made, and the cut
    of a torn last line it found. So the run and cache bytes are a
    one-process run's. The queries are then picked among the reports.
    """
    _bind("index")
    reports_path = _require(args, "reports")
    _fill(args, out_dir=".", technique="buglocator", alpha=DEFAULT_ALPHA,
          top_k=DEFAULT_TOP_K)
    if args.technique not in TECHNIQUES:
        raise ConfigError(f"unknown technique {args.technique!r}; "
                          f"expected one of {TECHNIQUES}")
    # Flags and config values (CONFIG_KEYS) arrive typed; ranges are left.
    if not 0.0 <= args.alpha <= 1.0:
        raise ConfigError(f"--alpha must be a number in [0, 1], got {args.alpha!r}")
    if args.top_k < 0:
        raise ConfigError(f"--top-k must be a non-negative integer, got {args.top_k!r}")
    index_path = args.index or _default_index_path(args)
    meta = read_index_meta(index_path)
    owner = os.getpid()

    def load_arrays() -> Index:
        _bind("evalharness", "rank")
        index = load_index(index_path, meta)
        # Made here, beside the queries, rather than where scoring first needs them.
        index.postings, index.path_rank, index.length_factor
        return index

    def prepare() -> tuple[list[BugReport] | None, tuple[array, array, array, array] | None,
                           int | None, list[CacheRow], CrolocError | None]:
        _bind("translate")
        from .index import tokenize  # looked up now, as in index_documents
        cache = reports = weights = error = None
        try:
            reports = load_bug_reports(reports_path)
            if (backend := _translating_backend(args)) is not None:
                with _make_cache(args.cache, owner) as cache:
                    reports = translate_reports(reports, backend, cache)
            weights = query_weights([tokenize(r.query_text, meta.stemming) for r in reports], meta)
        # Raised once the cache rows made before it are written, as in index_documents.
        except CrolocError as exc:
            error = exc
        held = (None, []) if cache is None else (cache.cut, cache.take_held())
        return reports, weights, *held, error

    halves = (load_arrays, prepare)
    # With numpy loaded already, as under a tracer, there is no import to hide.
    if spare_cpu() and "numpy" not in sys.modules:
        with closing(run_tasks(halves)) as done:
            index, (reports, weights, cut, held, error) = done
    else:
        index, (reports, weights, cut, held, error) = (half() for half in halves)
    if args.cache:
        _write_held(args.cache, cut, held)
    if error is not None:
        raise error

    picked = _query_positions(args, reports, index.paths)
    rows = QueryRows(*weights)
    history = HistorySet.build(reports, index, rows) if args.technique == "buglocator" else None
    asked = rows.take(picked)
    reported_at = [reports[i].reported_at for i in picked]
    paths = index.paths
    rankings = []
    for lo, hi in query_chunks(asked, index, history):
        scores = score_documents(asked.take(range(lo, hi)), index, args.technique,
                                 history, args.alpha, reported_at[lo:hi])
        for i, row in zip(picked[lo:hi], scores):
            order = make_ranking(row, index, args.top_k)
            rankings.append((reports[i].id, [paths[d] for d in order.tolist()],
                             row[order].tolist()))

    out_path = args.out or _default_run_path(args)
    tag = args.tag or f"croloc-{args.technique}"
    write_run_file(out_path, rankings, tag)
    log.info("ranked %d queries over %d documents -> %s",
             len(rankings), index.n_docs, out_path)
    return 0


def cmd_qrels(args: argparse.Namespace) -> int:
    _bind("evalharness")
    reports_path = _require(args, "reports")
    reports = load_bug_reports(reports_path)
    commits = load_commit_log(args.commit_log) if args.commit_log else []
    qrels = link_oracles(reports, commits)
    if args.out in (None, "-"):
        write_qrels(sys.stdout, qrels)
    else:
        with write_atomically(args.out) as fh:
            write_qrels(fh, qrels)
        log.info("wrote qrels for %d queries -> %s", len(qrels), args.out)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    _bind("evalharness")
    run_path = _require(args, "run")
    qrels_path = _require(args, "qrels")
    _fill(args, mode="direct")
    if args.mode not in MODES:
        raise ConfigError(f"unknown mode {args.mode!r}; expected one of {MODES}")
    run = read_run_file(run_path)
    qrels = read_qrels(qrels_path)
    report = evaluate(run, qrels, args.mode)
    print(report.format_table())
    if args.json:
        with write_atomically(args.json) as fh:
            json.dump(report.to_json(), fh, ensure_ascii=False, indent=2)
            fh.write("\n")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress details to stderr")


def _add_tree_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tree", help="source tree root directory")
    parser.add_argument("--include", action="append", metavar="GLOB",
                        help="glob pattern for source files "
                             "(repeatable; default **/*.java and **/*.cs)")
    parser.add_argument("--permissive", action="store_true", default=None,
                        help="skip undecodable files instead of failing")


def _add_translator_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--translator", choices=TRANSLATORS,
                        help="translation backend (default: inferred from "
                             "--glossary or --service-url, else identity)")
    parser.add_argument("--glossary", help="TSV phrase table for the glossary backend")
    parser.add_argument("--cache", help="JSONL translation cache file")
    parser.add_argument("--service-url", dest="service_url",
                        help="endpoint for the service backend "
                             "(token read from CROLOC_SERVICE_TOKEN)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="croloc",
        description="Cross-lingual bug localization: extract, translate, "
                    "index, rank, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="dump comment/string spans as JSONL")
    _add_common(p)
    _add_tree_options(p)
    p.add_argument("-o", "--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("translate", help="write a translated tree and reports")
    _add_common(p)
    _add_tree_options(p)
    _add_translator_options(p)
    p.add_argument("--reports", help="bug report JSONL file")
    p.add_argument("--out-dir", dest="out_dir", help="output directory (default .)")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("index", help="build the tf-idf index")
    _add_common(p)
    _add_tree_options(p)
    _add_translator_options(p)
    p.add_argument("--no-translate", action="store_true",
                   help="index the original text without translation")
    p.add_argument("--stemming", action=argparse.BooleanOptionalAction, default=None,
                   help="apply Porter stemming to tokens")
    p.add_argument("--out-dir", dest="out_dir", help="output directory (default .)")
    p.add_argument("-o", "--out",
                   help="index file (default OUT_DIR/index.bin, or "
                        "index.notranslate.bin with --no-translate)")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("locate", help="rank files per bug report into a run file")
    _add_common(p)
    _add_translator_options(p)
    p.add_argument("--index", help="index file built by the index subcommand")
    p.add_argument("--reports", help="bug report JSONL file")
    p.add_argument("--technique", choices=TECHNIQUES,
                   help="scoring technique (default buglocator)")
    p.add_argument("--alpha", type=float,
                   help="history weight for buglocator (default 0.2)")
    p.add_argument("--top-k", dest="top_k", type=int,
                   help="ranked files kept per query (default 100; 0 keeps all)")
    p.add_argument("--no-translate", action="store_true",
                   help="query with the original report text against the "
                        "untranslated index")
    p.add_argument("--query", action="append", metavar="ID",
                   help="rank only this report id, bypassing usability "
                        "filtering (repeatable)")
    p.add_argument("--tag", help="run tag (default croloc-TECHNIQUE)")
    p.add_argument("--out-dir", dest="out_dir", help="output directory (default .)")
    p.add_argument("-o", "--out",
                   help="run file (default OUT_DIR/run.TECHNIQUE.trec)")
    p.set_defaults(func=cmd_locate)

    p = sub.add_parser("qrels", help="derive qrels from fix lists and a commit log")
    _add_common(p)
    p.add_argument("--reports", help="bug report JSONL file")
    p.add_argument("--commit-log", dest="commit_log",
                   help="JSONL commit log for indirect links")
    p.add_argument("-o", "--out", help="qrels file (default stdout)")
    p.set_defaults(func=cmd_qrels)

    p = sub.add_parser("eval", help="score a run file against qrels")
    _add_common(p)
    p.add_argument("--run", help="TREC run file")
    p.add_argument("--qrels", help="TREC qrels file")
    p.add_argument("--mode", choices=MODES,
                   help="which grades count as relevant (default direct)")
    p.add_argument("--json", help="also write the full report as JSON")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    # OpenBLAS starts a thread per CPU when numpy loads, which slows the
    # import, and croloc makes no BLAS call. A value the user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    try:
        _apply_config(args)
        return args.func(args)
    except (CrolocError, OSError, UnicodeDecodeError) as exc:
        # A missing or unreadable input file is the user's error, not a bug.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ModuleNotFoundError as exc:
        # numpy is the one dependency, and only locate imports it.
        if (exc.name or "").partition(".")[0] != "numpy":
            raise
        print(f"error: {args.command} needs numpy, which is not installed", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
