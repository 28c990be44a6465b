"""End-to-end command line tests, driven through subprocesses."""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import croloc
import croloc.corpus
import croloc.index
import croloc.translate
from conftest import FIXTURES, assert_no_child_left
from croloc import cli
from croloc.corpus import load_source_tree
from croloc.errors import CrolocError
from strategies import any_text, bad_json_lines, json_records

PROJECT = FIXTURES / "synthetic_project"
TREE = PROJECT  # fixed_files paths in reports.jsonl are rooted here
REPORTS = PROJECT / "reports.jsonl"
COMMITS = PROJECT / "commit_log.jsonl"
GLOSSARY = PROJECT / "glossary.tsv"
GOLDEN_RUN = FIXTURES / "golden" / "run.buglocator.trec"

ENTRY = "import sys; from croloc.cli import main; sys.exit(main())"
# The directory holding the croloc package this test process imported, so the
# subprocess runs the same code whatever its cwd (installed or from src/).
CROLOC_ROOT = str(pathlib.Path(croloc.__file__).resolve().parents[1])


def run_cli(*args, cwd):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (CROLOC_ROOT, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", ENTRY, *[str(a) for a in args]],
        capture_output=True,
        text=True,
        cwd=str(cwd),
        env=env,
        timeout=180,
    )


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A translated index plus qrels, built once for the locate/eval tests."""
    out = tmp_path_factory.mktemp("built")
    result = run_cli(
        "index", "--tree", TREE, "--translator", "glossary",
        "--glossary", GLOSSARY, "--cache", out / "cache.jsonl",
        "--out-dir", out, cwd=out,
    )
    assert result.returncode == 0, result.stderr
    result = run_cli(
        "qrels", "--reports", REPORTS, "--commit-log", COMMITS,
        "-o", out / "qrels.txt", cwd=out,
    )
    assert result.returncode == 0, result.stderr
    return out


class TestHelp:
    def test_top_level_help(self, tmp_path):
        result = run_cli("--help", cwd=tmp_path)
        assert result.returncode == 0
        assert "usage" in result.stdout.lower()
        for name in ("extract", "translate", "index", "locate", "qrels", "eval"):
            assert name in result.stdout

    def test_subcommand_required(self, tmp_path):
        result = run_cli(cwd=tmp_path)
        assert result.returncode == 2


class TestExtract:
    def test_writes_jsonl_spans(self, tmp_path):
        out = tmp_path / "spans.jsonl"
        result = run_cli("extract", "--tree", TREE, "-o", out, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert rows
        kinds = {r["kind"] for r in rows}
        assert kinds <= {"line_comment", "block_comment", "string_literal"}
        assert all(
            set(r) == {"path", "kind", "byte_start", "byte_end", "text", "segments"}
            for r in rows
        )
        # the fixture tree has Japanese comments, so segments must appear
        assert any(r["segments"] for r in rows)

    def test_stdout_by_default(self, tmp_path):
        result = run_cli("extract", "--tree", TREE, cwd=tmp_path)
        assert result.returncode == 0
        first = json.loads(result.stdout.splitlines()[0])
        assert "byte_start" in first

    def test_missing_tree_is_config_error(self, tmp_path):
        result = run_cli("extract", cwd=tmp_path)
        assert result.returncode == 1
        assert result.stderr.startswith("error:")


class TestTranslateCommand:
    def test_writes_tree_and_reports(self, tmp_path):
        result = run_cli(
            "translate", "--tree", TREE, "--reports", REPORTS,
            "--translator", "glossary", "--glossary", GLOSSARY,
            "--out-dir", tmp_path, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        translated = tmp_path / "translated" / "src" / "shop" / "Zk001Batch.java"
        assert translated.exists()
        text = translated.read_text(encoding="utf-8")
        assert "inventory" in text  # glossary output reached the file
        reports_out = tmp_path / "reports.translated.jsonl"
        rows = [json.loads(l) for l in reports_out.read_text(encoding="utf-8").splitlines()]
        assert len(rows) == 11
        by_id = {r["id"]: r for r in rows}
        assert "inventory" in by_id["SHOP-101"]["summary"]
        # English report passes through unchanged
        assert by_id["SHOP-109"]["summary"] == "order placement returns -1 for valid customers"

    def test_requires_some_input(self, tmp_path):
        result = run_cli("translate", "--translator", "identity", cwd=tmp_path)
        assert result.returncode == 1
        assert "error:" in result.stderr

    def test_glossary_flag_implies_glossary_backend(self, tmp_path):
        result = run_cli(
            "translate", "--tree", TREE, "--glossary", GLOSSARY,
            "--out-dir", tmp_path, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        translated = tmp_path / "translated" / "src" / "shop" / "Zk001Batch.java"
        assert "inventory" in translated.read_text(encoding="utf-8")

    def test_glossary_and_service_url_conflict(self, tmp_path):
        result = run_cli(
            "translate", "--tree", TREE, "--glossary", GLOSSARY,
            "--service-url", "http://localhost:1/translate",
            "--out-dir", tmp_path, cwd=tmp_path,
        )
        assert result.returncode == 1
        assert "pick a backend" in result.stderr

    def test_explicit_identity_beats_glossary_flag(self, tmp_path):
        result = run_cli(
            "translate", "--tree", TREE, "--translator", "identity",
            "--glossary", GLOSSARY, "--out-dir", tmp_path, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        translated = tmp_path / "translated" / "src" / "shop" / "Zk001Batch.java"
        original = (TREE / "src" / "shop" / "Zk001Batch.java").read_bytes()
        assert translated.read_bytes() == original


class TestIndexCommand:
    def test_default_artifact_name(self, tmp_path):
        result = run_cli(
            "index", "--tree", TREE, "--translator", "identity",
            "--out-dir", tmp_path, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "index.npz").exists()

    def test_no_translate_artifact_name(self, tmp_path):
        result = run_cli(
            "index", "--tree", TREE, "--no-translate",
            "--out-dir", tmp_path, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "index.notranslate.npz").exists()

    def test_verbose_logs_to_stderr(self, tmp_path):
        result = run_cli(
            "index", "-v", "--tree", TREE, "--translator", "identity",
            "--out-dir", tmp_path, cwd=tmp_path,
        )
        assert result.returncode == 0
        assert "indexed" in result.stderr

    def test_quiet_by_default(self, tmp_path):
        result = run_cli(
            "index", "--tree", TREE, "--translator", "identity",
            "--out-dir", tmp_path, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert "indexed" not in result.stderr


class TestLocateCommand:
    def test_buglocator_run_file(self, built, tmp_path):
        result = run_cli(
            "locate", "--index", built / "index.npz", "--reports", REPORTS,
            "--translator", "glossary", "--glossary", GLOSSARY,
            "--technique", "buglocator", "--out-dir", tmp_path, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        run_path = tmp_path / "run.buglocator.trec"
        assert run_path.exists()
        lines = run_path.read_text(encoding="utf-8").splitlines()
        assert lines
        parts = lines[0].split()
        assert len(parts) == 6
        assert parts[1] == "Q0"
        assert parts[5] == "croloc-buglocator"
        # non-functional and unresolved reports are filtered out
        qids = {l.split()[0] for l in lines}
        assert "SHOP-110" not in qids
        assert "SHOP-111" not in qids
        assert "SHOP-101" in qids

    def test_no_translate_artifact_name(self, built, tmp_path):
        result = run_cli(
            "locate", "--index", built / "index.npz", "--reports", REPORTS,
            "--no-translate", "--technique", "vsm",
            "--out-dir", tmp_path, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "run.vsm.notranslate.trec").exists()

    def test_query_subset(self, built, tmp_path):
        result = run_cli(
            "locate", "--index", built / "index.npz", "--reports", REPORTS,
            "--translator", "glossary", "--glossary", GLOSSARY,
            "--technique", "vsm", "--query", "SHOP-101",
            "--out-dir", tmp_path, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        lines = (tmp_path / "run.vsm.trec").read_text(encoding="utf-8").splitlines()
        assert {l.split()[0] for l in lines} == {"SHOP-101"}

    def test_unknown_query_id(self, built, tmp_path):
        result = run_cli(
            "locate", "--index", built / "index.npz", "--reports", REPORTS,
            "--technique", "vsm", "--query", "SHOP-999",
            "--out-dir", tmp_path, cwd=tmp_path,
        )
        assert result.returncode == 1
        assert "SHOP-999" in result.stderr

    def test_bad_technique_is_usage_error(self, built, tmp_path):
        result = run_cli(
            "locate", "--index", built / "index.npz", "--reports", REPORTS,
            "--technique", "pagerank", cwd=tmp_path,
        )
        assert result.returncode == 2
        assert "invalid choice" in result.stderr

    def test_custom_tag(self, built, tmp_path):
        result = run_cli(
            "locate", "--index", built / "index.npz", "--reports", REPORTS,
            "--no-translate", "--technique", "vsm", "--tag", "exp7",
            "--out-dir", tmp_path, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        lines = (tmp_path / "run.vsm.notranslate.trec").read_text(
            encoding="utf-8"
        ).splitlines()
        assert lines[0].split()[5] == "exp7"


class TestGoldenRuns:
    """Run files of the three techniques on the fixture project, pinned byte
    for byte. They were written by ``croloc index --tree TREE --glossary
    GLOSSARY`` and ``croloc locate --index INDEX --reports REPORTS --glossary
    GLOSSARY --technique T``, before ranking moved to array sweeps."""

    @pytest.mark.parametrize("technique", ["vsm", "rvsm", "buglocator"])
    def test_run_file_matches_golden(self, built, tmp_path, technique):
        out = tmp_path / f"run.{technique}.trec"
        result = run_cli(
            "locate", "--index", built / "index.npz", "--reports", REPORTS,
            "--glossary", GLOSSARY, "--technique", technique, "-o", out,
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        golden = FIXTURES / "golden" / f"run.{technique}.trec"
        assert out.read_bytes() == golden.read_bytes()

    def test_index_files_match_golden_digests(self, built, tmp_path):
        # index.sha256 pins the translated index the ``built`` fixture writes
        # and the untranslated one, in ``sha256sum`` format.
        result = run_cli("index", "--tree", TREE, "--no-translate", "--out-dir", tmp_path,
                         cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        written = {"index.npz": built / "index.npz",
                   "index.notranslate.npz": tmp_path / "index.notranslate.npz"}
        golden = (FIXTURES / "golden" / "index.sha256").read_text(encoding="utf-8")
        for line in golden.splitlines():
            digest, name = line.split()
            assert hashlib.sha256(written[name].read_bytes()).hexdigest() == digest, name


RUN_MAIN = """
import contextlib, io, sys
from croloc.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            status = main([str(a) for a in argv])
        except SystemExit as exc:  # --help
            status = exc.code
    if status != 0:
        sys.exit(f"{argv} exited with {status}")
"""


def _runs(*argvs):
    return RUN_MAIN + "".join(f"run(*{[str(a) for a in argv]!r})\n" for argv in argvs)


# Code that must not load numpy: only index and locate work on arrays. Each
# case gets a scratch directory ``d`` for its outputs.
NUMPY_FREE = {
    "import": lambda d: "import croloc.cli",
    "build-parser": lambda d: "from croloc.cli import build_parser; build_parser()",
    **{f"help-{command}": (lambda d, command=command: _runs((command, "--help")))
       for command in ("extract", "translate", "index", "locate", "qrels", "eval")},
    "qrels": lambda d: _runs(
        ("qrels", "--reports", REPORTS, "--commit-log", COMMITS, "-o", d / "qrels.txt")),
    "eval": lambda d: _runs(
        ("qrels", "--reports", REPORTS, "--commit-log", COMMITS, "-o", d / "qrels.txt"),
        ("eval", "--run", GOLDEN_RUN, "--qrels", d / "qrels.txt", "--json", d / "eval.json")),
    "extract": lambda d: _runs(("extract", "--tree", TREE, "-o", d / "spans.jsonl")),
    "translate": lambda d: _runs(
        ("translate", "--tree", TREE, "--reports", REPORTS, "--glossary", GLOSSARY,
         "--cache", d / "cache.jsonl", "--out-dir", d)),
}


class TestImports:
    def _leaves_unloaded(self, tmp_path, code, module):
        code += f"\nimport sys; sys.exit({module!r} in sys.modules and '{module} loaded')"
        env = dict(os.environ, PYTHONPATH=CROLOC_ROOT)
        result = subprocess.run([sys.executable, "-c", code], cwd=str(tmp_path),
                                env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr

    def test_cli_import_leaves_urllib_request_unloaded(self, tmp_path):
        # Only the service backend needs urllib.request; every command would
        # otherwise pay its import time and memory.
        self._leaves_unloaded(tmp_path, "import croloc.cli", "urllib.request")

    def test_array_free_modules_leave_numpy_unloaded(self, tmp_path):
        # Only index and rank work on arrays; loading, extraction,
        # translation and evaluation should not pay for numpy's import.
        self._leaves_unloaded(tmp_path, "import croloc.corpus, croloc.evalharness, "
                              "croloc.extract, croloc.translate", "numpy")

    @pytest.mark.parametrize("case", sorted(NUMPY_FREE))
    def test_array_free_commands_leave_numpy_unloaded(self, tmp_path, case):
        self._leaves_unloaded(tmp_path, NUMPY_FREE[case](tmp_path), "numpy")

    @pytest.mark.parametrize("module", ["multiprocessing", "concurrent.futures"])
    def test_index_leaves_process_pools_unloaded(self, tmp_path, module):
        # index forks with os.fork; a pool module would add its import time.
        code = _runs(("index", "--tree", TREE, "--glossary", GLOSSARY, "--out-dir", tmp_path))
        self._leaves_unloaded(tmp_path, code, module)


NOT_UTF8 = b"\xff\xfe not utf-8 \x80\n"


def _not_utf8(path):
    path.write_bytes(NOT_UTF8)
    return path


# A line nested too deep for json.loads, which raises RecursionError.
DEEP = b"[" * 5000 + b"\n"


def _deep(path):
    path.write_bytes(DEEP)
    return path


def _qrels_file(path):
    path.write_text("Q1 0 src/A.java 2\n", encoding="utf-8")
    return path


def _run_file(path):
    path.write_text("Q1 Q0 src/A.java 1 0.500000 t\n", encoding="utf-8")
    return path


# Each case names a missing or undecodable input file of one command.
UNREADABLE_INPUTS = {
    "eval-missing-run": lambda d: (
        "eval", "--run", d / "missing.trec", "--qrels", _qrels_file(d / "qrels.txt")),
    "locate-missing-index": lambda d: (
        "locate", "--index", d / "missing.json", "--reports", REPORTS),
    "index-missing-glossary": lambda d: (
        "index", "--tree", TREE, "--glossary", d / "missing.tsv", "--out-dir", d),
    "qrels-missing-commit-log": lambda d: (
        "qrels", "--reports", REPORTS, "--commit-log", d / "missing.jsonl"),
    "eval-non-utf8-run": lambda d: (
        "eval", "--run", _not_utf8(d / "run.trec"), "--qrels", _qrels_file(d / "qrels.txt")),
    "eval-non-utf8-qrels": lambda d: (
        "eval", "--run", _run_file(d / "run.trec"), "--qrels", _not_utf8(d / "qrels.txt")),
    "locate-non-utf8-index": lambda d: (
        "locate", "--index", _not_utf8(d / "index.json"), "--reports", REPORTS),
    "qrels-non-utf8-reports": lambda d: (
        "qrels", "--reports", _not_utf8(d / "reports.jsonl")),
    "qrels-non-utf8-commit-log": lambda d: (
        "qrels", "--reports", REPORTS, "--commit-log", _not_utf8(d / "commits.jsonl")),
    "index-non-utf8-glossary": lambda d: (
        "index", "--tree", TREE, "--glossary", _not_utf8(d / "glossary.tsv"), "--out-dir", d),
    "config-non-utf8": lambda d: (
        "qrels", "--config", _not_utf8(d / "config.json"), "--reports", REPORTS),
    "qrels-deep-reports": lambda d: ("qrels", "--reports", _deep(d / "reports.jsonl")),
    "qrels-deep-commit-log": lambda d: (
        "qrels", "--reports", REPORTS, "--commit-log", _deep(d / "commits.jsonl")),
    "config-deep": lambda d: (
        "qrels", "--config", _deep(d / "config.json"), "--reports", REPORTS),
}


class TestUnreadableInputs:
    @pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
    def test_error_line_and_exit_1(self, tmp_path, case):
        args = UNREADABLE_INPUTS[case](tmp_path)
        result = run_cli(*args, cwd=tmp_path)
        assert result.returncode == 1, result.stderr
        assert result.stderr.startswith("error:"), result.stderr
        assert result.stderr.count("\n") == 1, result.stderr
        assert "Traceback" not in result.stderr
        unreadable = [a for a in args if isinstance(a, pathlib.Path) and a.is_file()
                      and a.read_bytes() in (NOT_UTF8, DEEP)]
        assert len(unreadable) == ("non-utf8" in case or "deep" in case)
        for path in unreadable:
            assert str(path) in result.stderr, result.stderr
            if path.read_bytes() == DEEP and path.suffix == ".jsonl":
                assert f"{path}:1:" in result.stderr, result.stderr


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def _report_file(path, **fields):
    obj = {"id": "A-1", "summary": "s", "reported_at": "2024-01-01T00:00:00Z", **fields}
    return _write(path, json.dumps(obj) + "\n")


def _cache_file(path, **fields):
    obj = {"backend": "glossary", "sha256": hashlib.sha256(b"x").hexdigest(),
           "source": "x", "translation": "t", **fields}
    return _write(path, json.dumps(obj) + "\n")


def _index_with_cache(d, cache):
    return ("index", "--tree", TREE, "--glossary", GLOSSARY, "--cache", cache, "--out-dir", d)


# Each case: a command given one malformed input, and what its error line
# must name: the file, and the line of a line-based file.
MALFORMED_INPUTS = {
    "report-id-with-space": lambda d: (
        ("qrels", "--reports", _report_file(d / "r.jsonl", id="A 1")), "r.jsonl:1:"),
    "report-null-summary": lambda d: (
        ("qrels", "--reports", _report_file(d / "r.jsonl", summary=None)), "r.jsonl:1:"),
    "report-surrogate-summary": lambda d: (
        ("qrels", "--reports", _report_file(d / "r.jsonl", summary="\ud800")), "r.jsonl:1:"),
    "run-rank-0-nan-score": lambda d: (
        ("eval", "--run", _write(d / "run.trec", "q Q0 a.java 0 nan t\n"),
         "--qrels", _write(d / "qrels.txt", "q 0 a.java 2\n")), "run.trec:1:"),
    "config-tree-3": lambda d: (
        ("extract", "--config", _write(d / "c.json", '{"tree": 3}')), "c.json"),
    "config-stemming-no": lambda d: (
        ("index", "--config", _write(d / "c.json", '{"stemming": "no"}'), "--tree", TREE,
         "--out-dir", d), "c.json"),
    "cache-source-1": lambda d: (
        _index_with_cache(d, _cache_file(d / "c.jsonl", source=1)), "c.jsonl:1:"),
    "cache-translation-5": lambda d: (
        _index_with_cache(d, _cache_file(d / "c.jsonl", translation=5)), "c.jsonl:1:"),
    "cache-surrogate-source": lambda d: (
        _index_with_cache(d, _cache_file(d / "c.jsonl", source="\ud800")), "c.jsonl:1:"),
    "config-include-empty": lambda d: (
        ("extract", "--config", _write(d / "c.json", '{"include": [""]}'), "--tree", TREE),
        "pattern ''"),
    "include-double-star-word": lambda d: (
        ("index", "--include", "**a", "--tree", TREE, "--out-dir", d), "pattern '**a'"),
    "include-absolute": lambda d: (
        ("translate", "--include", "/abs", "--tree", TREE, "--out-dir", d), "pattern '/abs'"),
}


class TestMalformedInputs:
    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_error_line_names_file_and_exit_1(self, tmp_path, capsys, case):
        args, where = MALFORMED_INPUTS[case](tmp_path)
        assert cli.main([str(a) for a in args]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert where in err, err
        assert out == ""


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def small_project(tmp_path_factory):
    """A 40-file bilingual project from perfbench/genproject.py."""
    sys.path.insert(0, str(PERFBENCH))
    from genproject import Shape, generate, load_material

    return generate(tmp_path_factory.mktemp("generated") / "project",
                    load_material(FIXTURES), Shape(files=40, reports=5), "fan-out:1")


def _force_chunks(monkeypatch, n):
    """Make index split any tree into ``n`` chunks: ``n`` usable CPUs, and
    one byte enough for a chunk. Returns the list of pids os.fork gives."""
    monkeypatch.setattr(croloc.corpus, "MIN_CHUNK_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    forked, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted_fork)
    return forked


# A segment that no generated document holds.
UNIQUE_SEGMENT = "唯一無二の区切り"


class TestIndexFanOut:
    """index translates and tokenizes chunks of the tree in forked
    processes; its outputs must be those of a serial run."""

    def _index(self, tree, glossary, cache, out):
        return cli.main(["index", "--tree", str(tree), "--glossary", str(glossary),
                         "--cache", str(cache), "-o", str(out)])

    def test_same_bytes_for_any_chunk_count(self, small_project, tmp_path, monkeypatch):
        outputs = {}
        for n in (1, 2, 3):
            forked = _force_chunks(monkeypatch, n)
            cache = tmp_path / f"cache{n}.jsonl"
            runs = []
            for temperature in ("cold", "warm"):
                out = tmp_path / f"{temperature}{n}.npz"
                assert self._index(small_project.tree, small_project.glossary, cache, out) == 0
                runs += [cache.read_bytes(), out.read_bytes()]
            assert len(forked) == 2 * (n - 1)
            assert_no_child_left()
            outputs[n] = runs
        assert outputs[1][0], "the cold run wrote no cache rows"
        assert outputs[2] == outputs[1] and outputs[3] == outputs[1]
        assert outputs[1][2] == outputs[1][0]  # the warm run added no row

    def test_backend_error_in_a_child_stops_as_a_serial_run_does(
            self, small_project, tmp_path, monkeypatch, capsys):
        # A document 3/5 of the way through the tree, in a child's chunk with
        # two or three chunks, holds one segment no other document has, and
        # the backend answers its batch short.
        tree = tmp_path / "tree"
        shutil.copytree(small_project.tree, tree)
        documents = load_source_tree(tree, list(cli.DEFAULT_INCLUDE)).documents
        stem, ext = documents[len(documents) * 3 // 5].path.rsplit(".", 1)
        (tree / f"{stem}0.{ext}").write_text(f"// {UNIQUE_SEGMENT}\nclass Unique {{}}\n",
                                             encoding="utf-8")
        translate_batch = croloc.translate.GlossaryBackend.translate_batch

        def short_answer(self, texts):
            out = translate_batch(self, texts)
            return out[:-1] if UNIQUE_SEGMENT in texts else out
        monkeypatch.setattr(croloc.translate.GlossaryBackend, "translate_batch", short_answer)
        outcomes = {}
        for n in (1, 2, 3):
            forked = _force_chunks(monkeypatch, n)
            cache = tmp_path / f"cache{n}.jsonl"
            status = self._index(tree, small_project.glossary, cache, tmp_path / f"{n}.npz")
            err = capsys.readouterr().err
            assert status == 1 and err.startswith("error: ") and err.count("\n") == 1, err
            assert len(forked) == n - 1
            assert_no_child_left()
            outcomes[n] = (err, cache.read_bytes())
        assert "returned 0 results for 1 inputs" in outcomes[1][0]
        assert outcomes[2] == outcomes[1] and outcomes[3] == outcomes[1]
        assert not (tmp_path / "1.npz").exists()

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_interrupt_in_a_child_never_leaves_main_there(self, small_project, tmp_path,
                                                          monkeypatch, interrupt):
        forked = _force_chunks(monkeypatch, 2)
        parent, tokenize = os.getpid(), croloc.index.tokenize

        def interrupted(text, options=None):
            if os.getpid() != parent:
                raise interrupt()
            return tokenize(text, options)
        monkeypatch.setattr(croloc.index, "tokenize", interrupted)
        escaped = tmp_path / "escaped"
        try:
            with pytest.raises(interrupt):
                self._index(small_project.tree, small_project.glossary,
                            tmp_path / "cache.jsonl", tmp_path / "index.npz")
        finally:
            if os.getpid() != parent:
                escaped.write_text("a child came back out of main", encoding="utf-8")
                os._exit(0)
        assert len(forked) == 1 and not escaped.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("cpus, min_bytes", [(1, 1), (2, None)],
                             ids=["one-cpu", "tree-under-the-minimum"])
    def test_no_fork(self, tmp_path, monkeypatch, cpus, min_bytes):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        if min_bytes is not None:
            monkeypatch.setattr(croloc.corpus, "MIN_CHUNK_BYTES", min_bytes)

        def fork():
            raise AssertionError("os.fork called")
        monkeypatch.setattr(os, "fork", fork)
        assert self._index(TREE, GLOSSARY, tmp_path / "cache.jsonl",
                           tmp_path / "index.npz") == 0


class TestTracerSeam:
    """perfbench/tracer.py wraps croloc functions by name; a renamed one
    would make its per-layer metric read 0 without any error."""

    TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

    def _trace(self, tmp_path, name, *args):
        out = tmp_path / f"{name}.trace.json"
        env = dict(os.environ, PYTHONPATH=CROLOC_ROOT)
        result = subprocess.run(
            [sys.executable, str(self.TRACER), str(out), *[str(a) for a in args]],
            cwd=str(tmp_path), env=env, capture_output=True, text=True, timeout=180)
        assert result.returncode == 0, result.stderr
        return json.loads(out.read_text(encoding="utf-8"))["calls"]

    def test_every_patched_layer_records_calls(self, tmp_path):
        calls = self._trace(tmp_path, "index", "index", "--tree", TREE,
                            "--glossary", GLOSSARY, "--out-dir", tmp_path)
        located = self._trace(tmp_path, "locate", "locate", "--technique", "buglocator",
                              "--glossary", GLOSSARY, "--index", tmp_path / "index.npz",
                              "--reports", REPORTS, "--out-dir", tmp_path)
        for name, n in located.items():
            calls[name] = calls.get(name, 0) + n
        spans = ("corpus.filter", "corpus.load", "corpus.reports_load",
                 "extract.reembed", "extract.segments", "extract.spans",
                 "index.build", "index.csr", "index.documents", "index.load",
                 "index.save", "index.tokenize", "index.vectorize",
                 "kernels.cosine", "rank.history_before", "rank.history_build",
                 "rank.ranking", "rank.rvsm", "rank.score", "rank.simi",
                 "rank.write", "translate.backend", "translate.document",
                 "translate.glossary_load", "translate.report", "translate.texts")
        assert [s for s in spans if not calls.get(s)] == []

    def test_qrels_and_eval_layers_record_calls(self, tmp_path):
        qrels = tmp_path / "qrels.txt"
        calls = self._trace(tmp_path, "qrels", "qrels", "--reports", REPORTS,
                            "--commit-log", COMMITS, "-o", qrels)
        evaluated = self._trace(tmp_path, "eval", "eval", "--run", GOLDEN_RUN,
                                "--qrels", qrels)
        for name, n in evaluated.items():
            calls[name] = calls.get(name, 0) + n
        spans = ("corpus.reports_load", "eval.commit_log_load", "eval.evaluate",
                 "eval.link", "eval.read_qrels", "eval.read_run", "eval.write_qrels")
        assert [s for s in spans if not calls.get(s)] == []


OLD_OUTPUT = "old output\n"


def _fail_on_call(real, n):
    """``real``, except that its ``n``-th call raises."""
    calls = 0

    def fn(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == n:
            raise OSError("No space left on device")
        return real(*args, **kwargs)
    return fn


def _write_then_fail(out):
    out.write("partial\n")
    raise OSError("No space left on device")


class TestAtomicOutputs:
    """A command that fails partway through its output leaves the file it
    would replace as it was, and no temporary file beside it."""

    def _fails_keeping_old(self, tmp_path, out, *args):
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(OLD_OUTPUT, encoding="utf-8")
        before = set(tmp_path.rglob("*"))
        assert cli.main([str(a) for a in args]) == 1
        assert out.read_text(encoding="utf-8") == OLD_OUTPUT
        assert set(tmp_path.rglob("*")) == before

    def test_qrels_out(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "write_qrels", lambda out, qrels: _write_then_fail(out))
        out = tmp_path / "qrels.txt"
        self._fails_keeping_old(tmp_path, out, "qrels", "--reports", REPORTS,
                                "--commit-log", COMMITS, "-o", out)

    def test_eval_json(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.json, "dump", lambda obj, out, **kw: _write_then_fail(out))
        qrels = tmp_path / "qrels.txt"
        assert cli.main(["qrels", "--reports", str(REPORTS), "-o", str(qrels)]) == 0
        out = tmp_path / "eval.json"
        self._fails_keeping_old(tmp_path, out, "eval", "--run", GOLDEN_RUN,
                                "--qrels", qrels, "--json", out)

    def test_translated_reports(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "translate_report", _fail_on_call(cli.translate_report, 2))
        out = tmp_path / "reports.translated.jsonl"
        self._fails_keeping_old(tmp_path, out, "translate", "--reports", REPORTS,
                                "--out-dir", tmp_path)

    def test_extract_out(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "extract_spans", _fail_on_call(cli.extract_spans, 2))
        out = tmp_path / "spans.jsonl"
        self._fails_keeping_old(tmp_path, out, "extract", "--tree", TREE, "-o", out)


class TestQrelsCommand:
    def test_stdout_rows(self, tmp_path):
        result = run_cli(
            "qrels", "--reports", REPORTS, "--commit-log", COMMITS, cwd=tmp_path
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert all(len(l.split()) == 4 for l in lines)
        assert "SHOP-101 0 src/shop/Zk001Batch.java 2" in lines
        # the fix commit for SHOP-101 also touched the audit logger
        assert "SHOP-101 0 src/shop/AuditLogger.java 1" in lines

    def test_file_output(self, tmp_path):
        out = tmp_path / "qrels.txt"
        result = run_cli(
            "qrels", "--reports", REPORTS, "--commit-log", COMMITS,
            "-o", out, cwd=tmp_path,
        )
        assert result.returncode == 0
        assert out.exists()
        assert not result.stdout.strip()


class TestEvalCommand:
    def _locate(self, built, tmp_path, technique="buglocator"):
        result = run_cli(
            "locate", "--index", built / "index.npz", "--reports", REPORTS,
            "--translator", "glossary", "--glossary", GLOSSARY,
            "--technique", technique, "--out-dir", tmp_path, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        return tmp_path / f"run.{technique}.trec"

    def test_table_output(self, built, tmp_path):
        run_path = self._locate(built, tmp_path)
        result = run_cli(
            "eval", "--run", run_path, "--qrels", built / "qrels.txt",
            "--mode", "direct", cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert "MAP" in result.stdout
        assert "MRR" in result.stdout
        assert "Success@10" in result.stdout

    def test_json_report(self, built, tmp_path):
        run_path = self._locate(built, tmp_path)
        json_path = tmp_path / "report.json"
        result = run_cli(
            "eval", "--run", run_path, "--qrels", built / "qrels.txt",
            "--mode", "direct+indirect", "--json", json_path, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["mode"] == "direct+indirect"
        assert 0.0 < payload["map"] <= 1.0
        assert payload["queries_evaluated"] > 0

    def test_run_query_missing_from_qrels(self, built, tmp_path):
        bad_run = tmp_path / "bad.trec"
        bad_run.write_text("GHOST-1 Q0 src/shop/Zk001Batch.java 1 0.900000 t\n",
                           encoding="utf-8")
        result = run_cli(
            "eval", "--run", bad_run, "--qrels", built / "qrels.txt", cwd=tmp_path
        )
        assert result.returncode == 1
        assert "GHOST-1" in result.stderr


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "croloc.json"
        cfg.write_text(json.dumps({
            "tree": str(TREE),
            "translator": "glossary",
            "glossary": str(GLOSSARY),
            "out_dir": str(tmp_path),
        }), encoding="utf-8")
        result = run_cli("index", "--config", cfg, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "index.npz").exists()

    def test_flag_overrides_config(self, built, tmp_path):
        cfg = tmp_path / "croloc.json"
        cfg.write_text(json.dumps({
            "reports": str(REPORTS),
            "technique": "vsm",
            "out_dir": str(tmp_path),
        }), encoding="utf-8")
        result = run_cli(
            "locate", "--config", cfg, "--index", built / "index.npz",
            "--no-translate", "--technique", "rvsm", cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        # the flag value names the artifact, not the config value
        assert (tmp_path / "run.rvsm.notranslate.trec").exists()
        assert not (tmp_path / "run.vsm.notranslate.trec").exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "croloc.json"
        cfg.write_text(json.dumps({"tree": str(TREE), "bogus": 1}), encoding="utf-8")
        result = run_cli("index", "--config", cfg, cwd=tmp_path)
        assert result.returncode == 1
        assert "bogus" in result.stderr

    @pytest.mark.parametrize("setting", [
        {"top_k": "ten"}, {"top_k": True}, {"top_k": 2.7}, {"top_k": -3},
        {"alpha": "x"}, {"alpha": True}, {"alpha": 1.5},
    ], ids=repr)
    def test_bad_locate_setting_is_config_error(self, tmp_path, capsys, setting):
        # Checked before the index is read, so none is needed.
        cfg = tmp_path / "croloc.json"
        cfg.write_text(json.dumps(setting), encoding="utf-8")
        assert cli.main(["locate", "--config", str(cfg), "--reports", str(REPORTS),
                         "--index", str(tmp_path / "missing.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --top-k" if "top_k" in setting else "error: --alpha")
        assert not (tmp_path / "run.buglocator.trec").exists()

    def test_negative_top_k_flag_is_config_error(self, tmp_path, capsys):
        assert cli.main(["locate", "--top-k", "-3", "--reports", str(REPORTS),
                         "--index", str(tmp_path / "missing.json")]) == 1
        assert capsys.readouterr().err.startswith("error: --top-k")

    def test_null_setting_counts_as_absent(self, tmp_path):
        cfg = tmp_path / "croloc.json"
        cfg.write_text(json.dumps({"tree": "t", "out_dir": None}), encoding="utf-8")
        args = argparse.Namespace(config=str(cfg), tree=None, out_dir=None)
        cli._apply_config(args)
        assert (args.tree, args.out_dir) == ("t", None)

    @given(text=st.integers(0, 5).flatmap(lambda i: bad_json_lines if i == 0 else json_records({
        key: {str: any_text, list: st.lists(any_text, max_size=2), bool: st.booleans(),
              int: st.integers(), float: st.floats() | st.integers()}[kind]
        for key, kind in cli.CONFIG_KEYS.items()})))
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_config_round_trips_or_fails_cleanly(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("config") / "croloc.json"
        path.write_text(text, encoding="utf-8")
        args = argparse.Namespace(config=str(path), **dict.fromkeys(cli.CONFIG_KEYS))
        try:
            cli._apply_config(args)
        except CrolocError:
            return
        path.write_text(json.dumps({k: v for k, v in vars(args).items()
                                    if v is not None and k != "config"}), encoding="utf-8")
        again = argparse.Namespace(config=str(path), **dict.fromkeys(cli.CONFIG_KEYS))
        cli._apply_config(again)
        assert again == args

    def test_config_missing_file(self, tmp_path):
        result = run_cli("index", "--config", tmp_path / "nope.json", cwd=tmp_path)
        assert result.returncode == 1
        assert result.stderr.startswith("error:")


class TestFullPipeline:
    def test_extract_to_eval(self, tmp_path):
        steps = [
            ("index", "--tree", TREE, "--translator", "glossary",
             "--glossary", GLOSSARY, "--cache", tmp_path / "cache.jsonl",
             "--out-dir", tmp_path),
            ("locate", "--index", tmp_path / "index.npz", "--reports", REPORTS,
             "--translator", "glossary", "--glossary", GLOSSARY,
             "--cache", tmp_path / "cache.jsonl",
             "--technique", "buglocator", "--out-dir", tmp_path),
            ("qrels", "--reports", REPORTS, "--commit-log", COMMITS,
             "-o", tmp_path / "qrels.txt"),
            ("eval", "--run", tmp_path / "run.buglocator.trec",
             "--qrels", tmp_path / "qrels.txt", "--mode", "direct",
             "--json", tmp_path / "report.json"),
        ]
        for step in steps:
            result = run_cli(*step, cwd=tmp_path)
            assert result.returncode == 0, f"{step[0]} failed: {result.stderr}"
        payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        # translated pipeline pins every oracle file at rank 1 on this corpus
        assert payload["map"] == pytest.approx(1.0)
        assert payload["mrr"] == pytest.approx(1.0)
        assert (tmp_path / "cache.jsonl").exists()
