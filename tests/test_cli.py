"""End-to-end command line tests, driven through subprocesses."""
from __future__ import annotations

import argparse
import ast
import hashlib
import itertools
import json
import math
import os
import pathlib
import random
import shutil
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import croloc
import croloc.corpus
import croloc.errors
import croloc.evalharness
import croloc.index
import croloc.rank
import croloc.translate
from conftest import FIXTURES, assert_no_child_left
from croloc import cli
from croloc.corpus import load_bug_reports, load_source_tree, report_to_obj
from croloc.errors import CrolocError
from croloc.extract import extract_spans, japanese_segments
from croloc.translate import BATCH_SIZE, TranslationCache
from reference import ref_translate_document, ref_translate_report
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

    def test_out_directory_is_made(self, tmp_path):
        result = run_cli("extract", "--tree", TREE, "-o", "new2/x.jsonl", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        stdout = run_cli("extract", "--tree", TREE, cwd=tmp_path).stdout
        assert (tmp_path / "new2" / "x.jsonl").read_text(encoding="utf-8") == stdout

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

    def test_glossary_tree_bytes(self, tmp_path):
        # CRLF line ends, a BOM, and Japanese in comments and strings: each
        # written file is translate_documents' bytes, which are the
        # original's outside the Japanese segments.
        tree = tmp_path / "tree"
        (tree / "src").mkdir(parents=True)
        files = {
            "src/Crlf.java": '// 在庫同期\r\nclass Crlf {\r\n    String s = "在庫引当 ok";\r\n}\r\n',
            "src/Bom.cs": '\ufeff/* 入荷予定 */\nclass Bom { string s = @"在庫""入荷"; }\n',
            "src/Plain.java": "class Plain {}\r\n",
        }
        for rel, text in files.items():
            (tree / rel).write_bytes(text.encode("utf-8"))
        result = run_cli("translate", "--tree", tree, "--glossary", GLOSSARY,
                         "--out-dir", tmp_path / "out", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        corpus = load_source_tree(tree, ["**/*.java", "**/*.cs"])
        backend = croloc.translate.GlossaryBackend(croloc.translate.load_glossary(GLOSSARY))
        expected = croloc.translate.translate_documents(corpus.documents, backend)
        for doc, (translated, n_segments) in zip(corpus.documents, expected):
            written = (tmp_path / "out" / "translated" / doc.path).read_bytes()
            assert written == translated.raw_bytes, doc.path
            # Walk the written file: the original's bytes up to each segment,
            # then the segment's translation, and the original's bytes after
            # the last one.
            raw, pos, cursor = doc.raw_bytes, 0, 0
            segments = [(span.byte_start + seg.byte_start, span.byte_start + seg.byte_end,
                         seg.text) for span in extract_spans(doc)
                        for seg in japanese_segments(span.text)]
            assert len(segments) == n_segments == {"src/Bom.cs": 3, "src/Crlf.java": 2,
                                                   "src/Plain.java": 0}[doc.path]
            for start, end, text in segments:
                english = backend.translate_batch([text])[0].encode("utf-8")
                assert english != text.encode("utf-8")
                for piece in (raw[cursor:start], english):
                    assert written[pos:pos + len(piece)] == piece, doc.path
                    pos += len(piece)
                cursor = end
            assert written[pos:] == raw[cursor:], doc.path


class TestIndexCommand:
    def test_default_artifact_name(self, tmp_path):
        result = run_cli(
            "index", "--tree", TREE, "--translator", "identity",
            "--out-dir", tmp_path, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "index.bin").exists()

    def test_no_translate_artifact_name(self, tmp_path):
        result = run_cli(
            "index", "--tree", TREE, "--no-translate",
            "--out-dir", tmp_path, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "index.notranslate.bin").exists()

    def test_cache_directory_made_like_the_out_dir(self, tmp_path):
        # The cache's directory need not exist, as --out-dir need not: both
        # runs write the same cache and index.
        outputs = []
        for made in (False, True):
            run = tmp_path / str(made)
            run.mkdir()
            if made:
                (run / "newdir").mkdir()
            result = run_cli("index", "--tree", TREE, "--glossary", GLOSSARY,
                             "--cache", "newdir/cache.jsonl", "--out-dir", "newdir", cwd=run)
            assert result.returncode == 0, result.stderr
            outputs.append([(run / "newdir" / name).read_bytes()
                            for name in ("cache.jsonl", "index.bin")])
        assert outputs[0] == outputs[1] and outputs[0][0]

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
            "locate", "--index", built / "index.bin", "--reports", REPORTS,
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
            "locate", "--index", built / "index.bin", "--reports", REPORTS,
            "--no-translate", "--technique", "vsm",
            "--out-dir", tmp_path, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "run.vsm.notranslate.trec").exists()

    def test_query_subset(self, built, tmp_path):
        result = run_cli(
            "locate", "--index", built / "index.bin", "--reports", REPORTS,
            "--translator", "glossary", "--glossary", GLOSSARY,
            "--technique", "vsm", "--query", "SHOP-101",
            "--out-dir", tmp_path, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        lines = (tmp_path / "run.vsm.trec").read_text(encoding="utf-8").splitlines()
        assert {l.split()[0] for l in lines} == {"SHOP-101"}

    def test_repeated_query_ranked_once(self, built, tmp_path):
        result = run_cli(
            "locate", "--index", built / "index.bin", "--reports", REPORTS,
            "--translator", "glossary", "--glossary", GLOSSARY,
            "--technique", "vsm", "--query", "SHOP-102", "--query", "SHOP-101",
            "--query", "SHOP-102", "--out-dir", tmp_path, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        run = croloc.evalharness.read_run_file(str(tmp_path / "run.vsm.trec"))
        assert list(run) == ["SHOP-102", "SHOP-101"]

    def test_unknown_query_id(self, built, tmp_path):
        result = run_cli(
            "locate", "--index", built / "index.bin", "--reports", REPORTS,
            "--technique", "vsm", "--query", "SHOP-999",
            "--out-dir", tmp_path, cwd=tmp_path,
        )
        assert result.returncode == 1
        assert "SHOP-999" in result.stderr

    def test_bad_technique_is_usage_error(self, built, tmp_path):
        result = run_cli(
            "locate", "--index", built / "index.bin", "--reports", REPORTS,
            "--technique", "pagerank", cwd=tmp_path,
        )
        assert result.returncode == 2
        assert "invalid choice" in result.stderr

    def test_custom_tag(self, built, tmp_path):
        result = run_cli(
            "locate", "--index", built / "index.bin", "--reports", REPORTS,
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
            "locate", "--index", built / "index.bin", "--reports", REPORTS,
            "--glossary", GLOSSARY, "--technique", technique, "-o", out,
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        golden = FIXTURES / "golden" / f"run.{technique}.trec"
        assert out.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("bound", [1, 1 << 62])
    def test_run_files_match_golden_at_any_chunk_bound(self, built, tmp_path, monkeypatch,
                                                       bound):
        # One query a chunk, and all of them in one.
        monkeypatch.setattr(croloc.rank, "CHUNK_CELLS", bound)
        for technique in ("vsm", "rvsm", "buglocator"):
            out = tmp_path / f"run.{technique}.trec"
            assert cli.main([str(a) for a in (
                "locate", "--index", built / "index.bin", "--reports", REPORTS,
                "--glossary", GLOSSARY, "--technique", technique, "-o", out)]) == 0
            golden = FIXTURES / "golden" / f"run.{technique}.trec"
            assert out.read_bytes() == golden.read_bytes()

    def test_index_files_match_golden_digests(self, built, tmp_path):
        # index.sha256 pins the translated index the ``built`` fixture writes
        # and the untranslated one, in ``sha256sum`` format.
        result = run_cli("index", "--tree", TREE, "--no-translate", "--out-dir", tmp_path,
                         cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        written = {"index.bin": built / "index.bin",
                   "index.notranslate.bin": tmp_path / "index.notranslate.bin"}
        golden = (FIXTURES / "golden" / "index.sha256").read_text(encoding="utf-8")
        for line in golden.splitlines():
            digest, name = line.split()
            assert hashlib.sha256(written[name].read_bytes()).hexdigest() == digest, name


def _blocks(run):
    """The lines of the run file ``run``, grouped by query id."""
    by_query: dict[str, list[str]] = {}
    for line in run.read_text(encoding="utf-8").splitlines():
        by_query.setdefault(line.split()[0], []).append(line)
    return by_query


class TestInputOrder:
    """The order of an input's records or patterns changes no output."""

    def test_shuffled_reports_give_each_query_the_same_block(self, built, tmp_path):
        # Two groups of reports resolved at one instant each, every fix also
        # touching OrderController.java, so the later queries add shares
        # from rows that tie on resolution time.
        records = [json.loads(line) for line in REPORTS.read_text("utf-8").splitlines()]
        for i, record in enumerate(records[:8]):
            record["resolved_at"] = "2024-03-01T00:00:00Z" if i < 4 else "2024-04-30T00:00:00Z"
            record["fixed_files"].append("src/shop/OrderController.java")
        blocks = []
        for seed in (None, 1, 2):
            if seed is not None:
                random.Random(seed).shuffle(records)
            reports, run = tmp_path / f"reports.{seed}.jsonl", tmp_path / f"run.{seed}.trec"
            reports.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n"
                                       for r in records), encoding="utf-8")
            assert cli.main([str(a) for a in (
                "locate", "--index", built / "index.bin", "--reports", reports,
                "--glossary", GLOSSARY, "--technique", "buglocator", "-o", run)]) == 0
            blocks.append(_blocks(run))
        assert len(blocks[0]) > 4 and blocks[1] == blocks[0] and blocks[2] == blocks[0]

    def test_report_resolved_as_a_query_is_filed_is_not_its_history(self, built, tmp_path):
        # Acceptance criterion 9 through one locate run. H is resolved at the
        # instant SHOP-109 is filed, written with another offset, and
        # SHOP-190, filed a day later and ranked in the same run, may use it.
        records = [json.loads(line) for line in REPORTS.read_text("utf-8").splitlines()]
        q1 = next(r for r in records if r["id"] == "SHOP-109")
        q2 = {**q1, "id": "SHOP-190", "reported_at": "2024-05-02T09:00:00Z",
              "resolved_at": "2024-05-03T09:00:00Z"}
        h = {**q1, "id": "SHOP-180", "reported_at": "2024-04-28T09:00:00Z",
             "resolved_at": "2024-05-01T18:00:00+09:00",
             "fixed_files": ["src/shop/Gx09Price.java"]}
        blocks = []
        for name, extra in (("without", [q2]), ("with", [q2, h])):
            reports, run = tmp_path / f"reports.{name}.jsonl", tmp_path / f"run.{name}.trec"
            reports.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n"
                                       for r in records + extra), encoding="utf-8")
            assert cli.main([str(a) for a in (
                "locate", "--index", built / "index.bin", "--reports", reports,
                "--glossary", GLOSSARY, "--technique", "buglocator",
                "--query", "SHOP-109", "--query", "SHOP-190", "-o", run)]) == 0
            blocks.append(_blocks(run))
        without, with_h = blocks
        assert with_h["SHOP-109"] == without["SHOP-109"]
        assert with_h["SHOP-190"] != without["SHOP-190"]

    def test_include_order_gives_the_same_index_bytes(self, tmp_path):
        # Overlapping patterns, and one that matches nothing.
        patterns = ("**/*.java", "src/shop/Order*.java", "**/*.cs")
        written = set()
        for i, order in enumerate(itertools.permutations(patterns)):
            out = tmp_path / f"index.{i}.bin"
            includes = [a for pattern in order for a in ("--include", pattern)]
            assert cli.main([str(a) for a in (
                "index", "--tree", TREE, "--glossary", GLOSSARY, *includes, "-o", out)]) == 0
            written.add(out.read_bytes())
        assert len(written) == 1


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


# Code that must not load numpy: only locate works on numpy arrays. Each
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
    "index": lambda d: _runs(
        ("index", "--tree", TREE, "--glossary", GLOSSARY, "--cache", d / "cache.jsonl",
         "--out-dir", d)),
}


# Code for each command a perfbench iteration runs, none of which should load
# dataclasses: its import and building its classes took 3-7 ms a process.
DATACLASS_FREE = {
    "import": NUMPY_FREE["import"],
    "qrels": NUMPY_FREE["qrels"],
    "eval": NUMPY_FREE["eval"],
    "index": lambda d: _runs(
        ("index", "--tree", TREE, "--glossary", GLOSSARY, "--cache", d / "cache.jsonl",
         "--out-dir", d)),
    "locate": lambda d: _runs(
        ("index", "--tree", TREE, "--glossary", GLOSSARY, "--out-dir", d),
        ("locate", "--index", d / "index.bin", "--reports", REPORTS, "--glossary", GLOSSARY,
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
        # Only rank, and the index code that makes numpy arrays, work on
        # them; loading, extraction, translation, indexing and evaluation
        # should not pay for numpy's import.
        self._leaves_unloaded(tmp_path, "import croloc.corpus, croloc.evalharness, "
                              "croloc.extract, croloc.index, croloc.translate",
                              "numpy")

    @pytest.mark.parametrize("case", sorted(NUMPY_FREE))
    def test_array_free_commands_leave_numpy_unloaded(self, tmp_path, case):
        self._leaves_unloaded(tmp_path, NUMPY_FREE[case](tmp_path), "numpy")

    @pytest.mark.parametrize("case", sorted(DATACLASS_FREE))
    def test_commands_leave_dataclasses_unloaded(self, tmp_path, case):
        self._leaves_unloaded(tmp_path, DATACLASS_FREE[case](tmp_path), "dataclasses")

    def test_no_module_imports_dataclasses(self):
        # The records are named tuples and plain classes; an import of
        # dataclasses left in a module that no command runs is caught here.
        package = pathlib.Path(croloc.__file__).parent
        importers = []
        for source in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(source.read_bytes())):
                names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                         else [node.module] if isinstance(node, ast.ImportFrom) else [])
                if any(name and name.split(".")[0] == "dataclasses" for name in names):
                    importers.append(source.name)
        assert importers == []

    @pytest.mark.parametrize("chunks", [1, 2])
    def test_index_never_loads_numpy(self, tmp_path, chunks):
        # index builds and saves without numpy: an import of it fails in
        # this process and in a forked child, which inherits the blocker,
        # and each logs that it tokenized with numpy absent.
        log = tmp_path / "tokenized.txt"
        code = TOKENIZE_LOGGED.format(min_bytes=1 if chunks == 2 else 1 << 40, log=str(log))
        code += NUMPY_BLOCKED
        code += _runs(("index", "--tree", TREE, "--glossary", GLOSSARY,
                       "--cache", tmp_path / "cache.jsonl", "--out-dir", tmp_path))
        code += "sys.exit('numpy' in sys.modules and 'numpy loaded')\n"
        env = dict(os.environ, PYTHONPATH=CROLOC_ROOT)
        result = subprocess.run([sys.executable, "-c", code], cwd=str(tmp_path),
                                env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "index.bin").is_file()
        calls = log.read_text("utf-8").splitlines()
        assert sorted(set(calls)) == (["child no-numpy", "parent no-numpy"] if chunks == 2
                                      else ["parent no-numpy"])

    @pytest.mark.parametrize("module", ["multiprocessing", "concurrent.futures"])
    def test_index_leaves_process_pools_unloaded(self, tmp_path, module):
        # index forks with os.fork; a pool module would add its import time.
        code = _runs(("index", "--tree", TREE, "--glossary", GLOSSARY, "--out-dir", tmp_path))
        self._leaves_unloaded(tmp_path, code, module)

    def test_locate_child_never_loads_numpy(self, built, tmp_path):
        # locate's forked child reads, translates, tokenizes and weighs the
        # reports without numpy: an import of it fails there, and the child
        # logs that it tokenized with numpy absent. This process ranks.
        log = tmp_path / "tokenized.txt"
        code = TOKENIZE_LOGGED.format(min_bytes=1 << 40, log=str(log))
        code += NUMPY_BLOCKED_IN_CHILDREN
        code += _runs(("locate", "--index", built / "index.bin", "--reports", REPORTS,
                       "--glossary", GLOSSARY, "--cache", tmp_path / "cache.jsonl",
                       "--out-dir", tmp_path))
        code += "sys.exit('numpy' not in sys.modules and 'numpy not loaded')\n"
        env = dict(os.environ, PYTHONPATH=CROLOC_ROOT)
        result = subprocess.run([sys.executable, "-c", code], cwd=str(tmp_path),
                                env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "run.buglocator.trec").is_file()
        assert sorted(set(log.read_text("utf-8").splitlines())) == ["child no-numpy"]

    @pytest.mark.parametrize("module", ["multiprocessing", "concurrent.futures"])
    def test_locate_leaves_process_pools_unloaded(self, built, tmp_path, module):
        # locate forks with os.fork too, here on two usable CPUs.
        code = "import croloc.corpus\ncroloc.corpus._usable_cpus = lambda: 2\n" + _runs(
            ("locate", "--index", built / "index.bin", "--reports", REPORTS,
             "--glossary", GLOSSARY, "--out-dir", tmp_path))
        self._leaves_unloaded(tmp_path, code, module)

    @pytest.mark.parametrize("module", ["croloc.porter", "croloc.evalharness"])
    def test_index_leaves_unused_modules_unloaded(self, tmp_path, module):
        # Without --stemming, index neither stems nor evaluates; each module
        # it loads costs its compile time where no bytecode is written.
        code = _runs(("index", "--tree", TREE, "--glossary", GLOSSARY, "--out-dir", tmp_path))
        self._leaves_unloaded(tmp_path, code, module)


# Logs, for each text tokenized, which process tokenized it and whether numpy
# was loaded there; the tree is cut into one chunk for each of two CPUs once
# it has min_bytes of source.
TOKENIZE_LOGGED = """
import os, sys, croloc.corpus, croloc.index
croloc.corpus.MIN_CHUNK_BYTES = {min_bytes}
croloc.corpus._usable_cpus = lambda: 2
tokenize, parent = croloc.index.tokenize, os.getpid()

def logged(text, stemming=False):
    with open({log!r}, "a", encoding="utf-8") as fh:
        fh.write(("parent" if os.getpid() == parent else "child")
                 + (" numpy" if "numpy" in sys.modules else " no-numpy") + "\\n")
    return tokenize(text, stemming)
croloc.index.tokenize = logged
"""

# Makes every later import of numpy, or of a module of it, raise ImportError.
NUMPY_BLOCKED = """
class NumpyBlocked:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError("numpy imported")
sys.meta_path.insert(0, NumpyBlocked)
"""

# Makes every later import of numpy, or of a module of it, raise ImportError
# in any process but ``parent``, such as one it forks.
NUMPY_BLOCKED_IN_CHILDREN = """
class NumpyBlockedInChildren:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.partition(".")[0] == "numpy" and os.getpid() != parent:
            raise ImportError("numpy imported in a child")
sys.meta_path.insert(0, NumpyBlockedInChildren)
"""

# Writes to ``log`` the value OPENBLAS_NUM_THREADS has when numpy is first
# imported, which is when OpenBLAS reads it.
BLAS_THREADS_LOGGED = """
import os, sys
class BlasThreadsLogged:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "numpy" and not os.path.exists({log!r}):
            with open({log!r}, "w", encoding="utf-8") as fh:
                fh.write(str(os.environ.get("OPENBLAS_NUM_THREADS")))
sys.meta_path.insert(0, BlasThreadsLogged)
"""

# numpy functions that compute through BLAS.
BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot"}


class TestBlasThreads:
    """The commands run OpenBLAS with one thread, which is safe only while
    croloc makes no BLAS call."""

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")],
                             ids=["unset", "preset"])
    def test_locate_loads_numpy_with_one_blas_thread(self, built, tmp_path, preset,
                                                      expected):
        log = tmp_path / "blas_threads.txt"
        code = BLAS_THREADS_LOGGED.format(log=str(log)) + _runs(
            ("locate", "--index", built / "index.bin", "--reports", REPORTS,
             "--glossary", GLOSSARY, "--cache", tmp_path / "cache.jsonl",
             "--out-dir", tmp_path))
        env = dict(os.environ, PYTHONPATH=CROLOC_ROOT)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        result = subprocess.run([sys.executable, "-c", code], cwd=str(tmp_path),
                                env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert log.read_text("utf-8") == expected

    def test_no_module_calls_blas(self):
        package = pathlib.Path(croloc.__file__).parent
        found = []
        for source in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(source.read_bytes())):
                func = node.func if isinstance(node, ast.Call) else None
                if (isinstance(node, (ast.BinOp, ast.AugAssign))
                        and isinstance(node.op, ast.MatMult)):
                    found.append(f"{source.name}:{node.lineno}: @")
                elif (isinstance(node, ast.Attribute) and node.attr == "linalg"
                      or isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "")):
                    found.append(f"{source.name}:{node.lineno}: linalg")
                elif (isinstance(func, ast.Attribute) and func.attr in BLAS_CALLS
                      or isinstance(func, ast.Name) and func.id in BLAS_CALLS):
                    found.append(f"{source.name}:{node.lineno}: a BLAS call")
        assert found == []


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
    return _counted_forks(monkeypatch, n)


def _counted_forks(monkeypatch, cpus):
    """Give index ``cpus`` usable CPUs. Returns the list of pids os.fork
    gives."""
    monkeypatch.setattr(croloc.corpus, "_usable_cpus", lambda: cpus)
    forked, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted_fork)
    return forked


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
                out = tmp_path / f"{temperature}{n}.bin"
                assert self._index(small_project.tree, small_project.glossary, cache, out) == 0
                runs += [cache.read_bytes(), out.read_bytes()]
            assert len(forked) == 2 * (n - 1)
            assert_no_child_left()
            outputs[n] = runs
        assert outputs[1][0], "the cold run wrote no cache rows"
        assert outputs[2] == outputs[1] and outputs[3] == outputs[1]
        assert outputs[1][2] == outputs[1][0]  # the warm run added no row

    @pytest.mark.parametrize("chunks, failing", [(1, "parent"), (2, "parent"), (2, "child")])
    def test_failed_batch_keeps_the_rows_of_the_batches_before_it(
            self, small_project, tmp_path, monkeypatch, capsys, chunks, failing):
        # The second backend batch of one process fails. Its error is raised
        # in its chunk's turn, the cache keeps the rows of exactly the
        # batches that returned before it, in chunk order, and a rerun writes
        # the clean run's bytes.
        forked = _force_chunks(monkeypatch, chunks)
        clean_cache, clean_index = tmp_path / "clean.jsonl", tmp_path / "clean.bin"
        assert self._index(small_project.tree, small_project.glossary,
                           clean_cache, clean_index) == 0
        parent, logs = os.getpid(), tmp_path / "batches"
        logs.mkdir()
        translate_batch, calls = croloc.translate.GlossaryBackend.translate_batch, []

        def second_batch_fails(self, texts):
            # Each process counts its own batches and logs them to its own file.
            calls.append(texts)
            fails = len(calls) == 2 and (os.getpid() == parent) == (failing == "parent")
            with open(logs / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"texts": texts, "fails": fails}) + "\n")
            if fails:
                raise croloc.errors.TranslationError("batch 2 refused")
            return translate_batch(self, texts)
        monkeypatch.setattr(croloc.translate.GlossaryBackend, "translate_batch",
                            second_batch_fails)
        forked.clear()
        cache, out = tmp_path / "cache.jsonl", tmp_path / "index.bin"
        assert self._index(small_project.tree, small_project.glossary, cache, out) == 1
        assert capsys.readouterr().err == "error: batch 2 refused\n"
        assert len(forked) == chunks - 1 and not out.exists()
        assert_no_child_left()
        # The sources of the batches that returned, in chunk order, up to the
        # failing one; a source an earlier chunk translated gets no new row.
        expected = {}
        for pid in [parent, *forked]:
            path = logs / f"{pid}.jsonl"
            batches = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
            returned = [b["texts"] for b in itertools.takewhile(lambda b: not b["fails"], batches)]
            expected.update(dict.fromkeys(t for texts in returned for t in texts))
            if len(returned) < len(batches):
                break
        else:
            pytest.fail("no batch failed")
        assert expected, "no batch returned before the failing one"
        assert _sources(cache) == list(expected)
        monkeypatch.setattr(croloc.translate.GlossaryBackend, "translate_batch", translate_batch)
        assert self._index(small_project.tree, small_project.glossary, cache, out) == 0
        assert cache.read_bytes() == clean_cache.read_bytes()
        assert out.read_bytes() == clean_index.read_bytes()
        assert_no_child_left()

    def test_one_process_frees_the_cache_before_tokenizing(self, small_project, tmp_path,
                                                          monkeypatch):
        # With no child's rows left to adopt, the translation cache's entries
        # need not stay alive while the documents are tokenized.
        forked = _force_chunks(monkeypatch, 1)
        cache_class, tokenize = croloc.translate.TranslationCache, croloc.index.tokenize
        init = cache_class.__init__
        caches, loaded, at_tokenize = [], [], []

        def recorded_init(self, path):
            init(self, path)
            caches.append(self)
            loaded.append(len(self))

        def recorded_tokenize(text, stemming=False):
            at_tokenize.append([len(c) for c in caches])
            return tokenize(text, stemming)
        monkeypatch.setattr(cache_class, "__init__", recorded_init)
        monkeypatch.setattr(croloc.index, "tokenize", recorded_tokenize)
        for temperature in ("cold", "warm"):
            for recorded in (caches, loaded, at_tokenize):
                recorded.clear()
            assert self._index(small_project.tree, small_project.glossary,
                               tmp_path / "cache.jsonl", tmp_path / f"{temperature}.bin") == 0
            assert len(caches) == 1 and at_tokenize[0] == [0]
        assert loaded[0] > 0, "the warm run loaded no cache entries"
        assert forked == []

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_interrupt_in_a_child_never_leaves_main_there(self, small_project, tmp_path,
                                                          monkeypatch, interrupt):
        forked = _force_chunks(monkeypatch, 2)
        parent, tokenize = os.getpid(), croloc.index.tokenize

        def interrupted(text, stemming=False):
            if os.getpid() != parent:
                raise interrupt()
            return tokenize(text, stemming)
        monkeypatch.setattr(croloc.index, "tokenize", interrupted)
        escaped = tmp_path / "escaped"
        try:
            with pytest.raises(interrupt):
                self._index(small_project.tree, small_project.glossary,
                            tmp_path / "cache.jsonl", tmp_path / "index.bin")
        finally:
            if os.getpid() != parent:
                escaped.write_text("a child came back out of main", encoding="utf-8")
                os._exit(0)
        assert len(forked) == 1 and not escaped.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("short, processes", [(1, 1), (0, 2)],
                             ids=["one-byte-short", "twice-the-minimum"])
    def test_two_cpus_split_from_twice_the_shipped_minimum(self, tmp_path, monkeypatch,
                                                          short, processes):
        # The shipped MIN_CHUNK_BYTES, not a patched one: on two CPUs a tree
        # of twice it runs in two processes, and one a byte smaller in one.
        size = 2 * croloc.corpus.MIN_CHUNK_BYTES - short
        line, tree = b"// the stock count of each warehouse\n", tmp_path / "tree"
        tree.mkdir()
        for i, part in enumerate((size // 2, size - size // 2)):
            (tree / f"F{i}.java").write_bytes((line * (part // len(line) + 1))[:part - 1] + b"\n")
        assert sum(f.stat().st_size for f in tree.iterdir()) == size
        forked = _counted_forks(monkeypatch, 2)
        assert cli.main(["index", "--tree", str(tree), "--no-translate",
                         "-o", str(tmp_path / "index.bin")]) == 0
        assert len(forked) == processes - 1
        assert_no_child_left()

    @pytest.mark.parametrize("cpus, min_bytes", [(1, 1), (2, None)],
                             ids=["one-cpu", "tree-under-the-minimum"])
    def test_no_fork(self, tmp_path, monkeypatch, cpus, min_bytes):
        monkeypatch.setattr(croloc.corpus, "_usable_cpus", lambda: cpus)
        if min_bytes is not None:
            monkeypatch.setattr(croloc.corpus, "MIN_CHUNK_BYTES", min_bytes)

        def fork():
            raise AssertionError("os.fork called")
        monkeypatch.setattr(os, "fork", fork)
        assert self._index(TREE, GLOSSARY, tmp_path / "cache.jsonl",
                           tmp_path / "index.bin") == 0


# The CLI with {cpus} usable CPUs, numpy imported first if {numpy}, and the
# pid of each process os.fork makes appended to the file {forks}.
LOCATE_ENTRY = """
import os, sys, croloc.corpus
croloc.corpus._usable_cpus = lambda: {cpus}
if {numpy}:
    import numpy
fork = os.fork

def logged_fork():
    pid = fork()
    if pid:
        with open({forks!r}, "a", encoding="utf-8") as fh:
            fh.write(f"{{pid}}\\n")
    return pid
os.fork = logged_fork
from croloc.cli import main
sys.exit(main())
"""

# The ways locate can run: (usable CPUs, numpy imported first). Only two
# CPUs without numpy fork.
LOCATE_MODES = [(1, False), (2, False), (1, True), (2, True)]


def _pids(path):
    """The pids listed in file ``path``, one a line; none if it is missing."""
    return [int(line) for line in path.read_text("utf-8").split()] if path.exists() else []


def _locate(tmp_path, cpus, numpy, *args, prelude=""):
    """(result, number of forks) of a locate run under ``LOCATE_ENTRY``,
    with the code ``prelude`` run first."""
    forks = tmp_path / "forks.txt"
    forks.unlink(missing_ok=True)
    code = prelude + LOCATE_ENTRY.format(cpus=cpus, numpy=numpy, forks=str(forks))
    result = subprocess.run([sys.executable, "-c", code, "locate", *map(str, args)],
                            cwd=str(tmp_path), env=dict(os.environ, PYTHONPATH=CROLOC_ROOT),
                            capture_output=True, text=True, timeout=120)
    return result, len(_pids(forks))


def _torn_cache(path, built):
    """The built cache with the start of one more line, as a killed run leaves it."""
    path.write_bytes((built / "cache.jsonl").read_bytes() + b'{"backend": "glossary", "sha')
    return path


def _index_with(path, built, offset_from_end, value):
    """The built index with the int64 ``offset_from_end`` elements from the
    end of the file set to ``value``; its metadata line is untouched."""
    content = bytearray((built / "index.bin").read_bytes())
    at = len(content) - 8 * offset_from_end
    content[at:at + 8] = value.to_bytes(8, "little", signed=True)
    path.write_bytes(bytes(content))
    return path


def _reports_with(path, *lines):
    """The fixture's reports and then ``lines``."""
    path.write_text(REPORTS.read_text("utf-8") + "".join(lines), encoding="utf-8")
    return path


# Makes every later import of numpy, or of a module of it, fail as it does
# where numpy is not installed.
NUMPY_MISSING = """
import sys
class NumpyMissing:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
sys.meta_path.insert(0, NumpyMissing)
"""


NOT_FUNCTIONAL = json.dumps({"id": "N-1", "summary": "s", "reported_at": "2024-01-01T00:00:00Z",
                             "functional": False}) + "\n"

# Each case: the locate arguments of one failing run, given a scratch
# directory and the built fixture; and whether it fails before the fork.
LOCATE_ERRORS = {
    "bad-metadata": (lambda d, b: ("--index", _write(d / "index.bin", "{not json\n"),
                                   "--reports", REPORTS), True),
    "bad-arrays": (lambda d, b: ("--index", _index_with(d / "index.bin", b, 1, -1),
                                 "--reports", REPORTS), False),
    "bad-arrays-and-reports": (lambda d, b: (
        "--index", _index_with(d / "index.bin", b, 1, -1),
        "--reports", _reports_with(d / "r.jsonl", "{not json\n")), False),
    "bad-reports-line": (lambda d, b: ("--index", b / "index.bin", "--reports",
                                       _reports_with(d / "r.jsonl", "{not json\n")), False),
    "corrupt-cache-line": (lambda d, b: ("--index", b / "index.bin", "--reports", REPORTS,
                                         "--glossary", GLOSSARY,
                                         "--cache", _write(d / "c.jsonl", "{broken\n")), False),
    "unknown-query-id": (lambda d, b: ("--index", b / "index.bin", "--reports", REPORTS,
                                       "--glossary", GLOSSARY, "--cache", d / "c.jsonl",
                                       "--query", "SHOP-999"), False),
    "no-usable-reports": (lambda d, b: ("--index", b / "index.bin", "--reports",
                                        _write(d / "r.jsonl", NOT_FUNCTIONAL)), False),
}


class TestLocateFork:
    """With a second usable CPU and numpy not loaded, locate forks a child
    that weighs the reports while this process loads numpy and the index.
    Its run and cache files, and its errors, must be those of a run in one
    process."""

    @pytest.mark.parametrize("technique, extra, modes, torn", [
        ("vsm", (), LOCATE_MODES[:2], False),
        ("rvsm", (), LOCATE_MODES[:2], False),
        ("buglocator", (), LOCATE_MODES, False),
        ("buglocator", ("--query", "SHOP-103", "--query", "SHOP-101"), LOCATE_MODES[:2], False),
        ("buglocator", ("--no-translate",), LOCATE_MODES[:2], False),
        ("buglocator", (), LOCATE_MODES[:2], True),
    ], ids=["vsm", "rvsm", "buglocator", "query", "no-translate", "torn-cache"])
    def test_same_run_and_cache_bytes(self, built, tmp_path, technique, extra, modes, torn):
        # The cache starts with index's rows, and a torn last line if
        # ``torn``; the cold run adds the reports' rows, the warm one none.
        outputs, stderrs = [], set()
        for cpus, numpy in modes:
            cache = tmp_path / f"cache-{cpus}-{numpy}.jsonl"
            if torn:
                _torn_cache(cache, built)
            else:
                shutil.copy(built / "cache.jsonl", cache)
            written = []
            for temperature in ("cold", "warm"):
                run = tmp_path / f"run-{cpus}-{numpy}-{temperature}"
                result, forks = _locate(
                    tmp_path, cpus, numpy, "--index", built / "index.bin", "--reports", REPORTS,
                    "--glossary", GLOSSARY, "--cache", cache, "--technique", technique,
                    *extra, "-o", run)
                assert result.returncode == 0, result.stderr
                assert forks == (cpus == 2 and not numpy)
                stderrs.add((temperature, result.stderr.replace(str(cache), "CACHE")))
                written += [run.read_bytes(), cache.read_bytes()]
            assert_no_child_left()
            outputs.append(written)
        assert all(written == outputs[0] for written in outputs[1:])
        assert len(stderrs) == 2  # one for each temperature
        cold_run, cold_cache, warm_run, warm_cache = outputs[0]
        assert warm_run == cold_run and warm_cache == cold_cache
        rows = (built / "cache.jsonl").read_bytes()
        if "--no-translate" in extra:
            assert cold_cache == rows
        else:  # the cold run appended the reports' rows
            assert cold_cache.startswith(rows) and cold_cache.endswith(b"\n")
            assert len(cold_cache) > len(rows)

    @pytest.mark.parametrize("case", sorted(LOCATE_ERRORS))
    def test_same_error_either_way(self, built, tmp_path, case):
        # Each run has a directory of its own, and the files in it after
        # the run (a cache that took rows before the error, say) must match.
        make_args, before_fork = LOCATE_ERRORS[case]
        errors, files = {}, {}
        for cpus in (1, 2):
            d = tmp_path / f"cpus{cpus}"
            d.mkdir()
            result, forks = _locate(tmp_path, cpus, False, *make_args(d, built), "-o", d / "run")
            assert result.returncode == 1, result.stderr
            assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
            assert forks == (cpus == 2 and not before_fork)
            errors[cpus] = result.stderr.replace(str(d), "DIR")
            files[cpus] = _contents(d)
            assert not (d / "run").exists()
            assert_no_child_left()
        assert errors[1] == errors[2]
        assert ("index.bin" in errors[1]) == (case in ("bad-metadata", "bad-arrays",
                                                       "bad-arrays-and-reports"))
        assert files[1] == files[2]
        if case == "unknown-query-id":  # the rows translated before the error are kept
            assert _sources(tmp_path / "cpus1" / "c.jsonl")

    def test_duplicate_report_texts_rank_alike(self, built, tmp_path, monkeypatch):
        # SHOP-193 is SHOP-103 under another id. Each is weighed into a row
        # of its own, and the two rank alike, forked or not.
        records = [json.loads(line) for line in REPORTS.read_text("utf-8").splitlines()]
        twin = {**next(r for r in records if r["id"] == "SHOP-103"), "id": "SHOP-193"}
        reports = _write(tmp_path / "reports.jsonl", "".join(
            json.dumps(r, ensure_ascii=False) + "\n" for r in [*records, twin]))
        weighed, query_weights = [], cli.query_weights

        def counted(token_lists, index):
            weighed.append(len(token_lists))
            return query_weights(token_lists, index)
        monkeypatch.setattr(cli, "query_weights", counted)
        assert cli.main([str(a) for a in ("locate", "--index", built / "index.bin",
                                          "--reports", reports, "--glossary", GLOSSARY,
                                          "-o", tmp_path / "run")]) == 0
        assert weighed == [len(records) + 1]
        written = []
        for cpus in (1, 2):
            cache, run = tmp_path / f"cache{cpus}.jsonl", tmp_path / f"run{cpus}"
            shutil.copy(built / "cache.jsonl", cache)
            result, forks = _locate(tmp_path, cpus, False, "--index", built / "index.bin",
                                    "--reports", reports, "--glossary", GLOSSARY,
                                    "--cache", cache, "-o", run)
            assert result.returncode == 0, result.stderr
            assert forks == (cpus == 2)
            written.append((run.read_bytes(), cache.read_bytes()))
            assert_no_child_left()
        assert written[1] == written[0]
        assert written[0][0] == (tmp_path / "run").read_bytes()
        blocks = {query: [line.split(None, 1)[1] for line in lines]
                  for query, lines in _blocks(tmp_path / "run1").items()}
        assert blocks["SHOP-193"] and blocks["SHOP-193"] == blocks["SHOP-103"]

    def test_child_runs_on_a_cpu_of_its_own_and_the_mask_comes_back(self, built, tmp_path):
        # Forced to fork on a one-CPU mask, as CI's one-CPU step runs it,
        # locate leaves its child where it is; on more CPUs the child runs on
        # the second alone. This process gets its mask back either way.
        log = tmp_path / "child_mask.txt"
        code = (LOGGED_CHILD_MASK.format(log=str(log))
                + _runs(("locate", "--index", built / "index.bin", "--reports", REPORTS,
                         "--out-dir", tmp_path))
                + "sys.exit(os.sched_getaffinity(0) != before and 'mask not restored')\n")
        result = subprocess.run([sys.executable, "-c", code], cwd=str(tmp_path),
                                env=dict(os.environ, PYTHONPATH=CROLOC_ROOT),
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        usable = sorted(os.sched_getaffinity(0))
        child = json.loads(log.read_text("utf-8"))
        assert child == (usable[1:2] if len(usable) > 1 else usable)


class TestMissingNumpy:
    """Without numpy, locate, which alone needs it, ends in one error line."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_locate_either_way(self, built, tmp_path, cpus):
        # numpy's import fails in this process, which loads the arrays while
        # the child, if forked, weighs the reports; the child is stopped.
        result, forks = _locate(tmp_path, cpus, False, "--index", built / "index.bin",
                                "--reports", REPORTS, "--glossary", GLOSSARY,
                                "-o", tmp_path / "run", prelude=NUMPY_MISSING)
        assert result.returncode == 1, result.stderr
        assert result.stderr == "error: locate needs numpy, which is not installed\n"
        assert forks == (cpus == 2)
        assert all(_gone(pid) for pid in _pids(tmp_path / "forks.txt"))
        assert not (tmp_path / "run").exists()
        assert_no_child_left()

    @pytest.mark.parametrize("name, caught", [
        ("numpy", True), ("numpy.linalg", True), ("numpyx", False), ("yaml", False),
        (None, False)])
    def test_only_numpy_becomes_an_error_line(self, monkeypatch, capsys, name, caught):
        def missing(args):
            raise ModuleNotFoundError("no module", name=name)
        monkeypatch.setattr(cli, "cmd_locate", missing)
        if caught:
            assert cli.main(["locate"]) == 1
            assert capsys.readouterr().err == "error: locate needs numpy, which is not installed\n"
        else:
            with pytest.raises(ModuleNotFoundError):
                cli.main(["locate"])


# Forces two usable CPUs, keeps this process's mask as ``before``, and
# writes to {log} the mask of the process other than this one that tokenizes.
LOGGED_CHILD_MASK = """
import json, os, sys, croloc.corpus, croloc.index
croloc.corpus._usable_cpus = lambda: 2
tokenize, parent, before = croloc.index.tokenize, os.getpid(), os.sched_getaffinity(0)

def logged(text, stemming=False):
    if os.getpid() != parent:
        with open({log!r}, "w", encoding="utf-8") as fh:
            json.dump(sorted(os.sched_getaffinity(0)), fh)
    return tokenize(text, stemming)
croloc.index.tokenize = logged
"""


# The CLI, with any tree cut into one chunk for each of two CPUs however
# small it is, so that index runs in two processes.
FANNED_ENTRY = ("import sys, croloc.corpus; from croloc.cli import main\n"
                "croloc.corpus.MIN_CHUNK_BYTES = 1\n"
                "croloc.corpus._usable_cpus = lambda: 2\n"
                "sys.exit(main())")


# Makes the file {foreign} if any process but this one opens the --cache
# file for writing or truncates it; LOCATE_ENTRY follows it.
CACHE_WRITES_WATCHED = """
import os, sys
parent = os.getpid()
cache = os.path.abspath(sys.argv[sys.argv.index("--cache") + 1])
writes = os.O_WRONLY | os.O_RDWR | os.O_APPEND | os.O_TRUNC | os.O_CREAT

def audit(event, args):
    if os.getpid() == parent or event not in ("open", "os.truncate"):
        return
    if isinstance(args[0], int) or os.path.abspath(os.fsdecode(args[0])) != cache:
        return
    if event == "os.truncate" or args[2] & writes:
        with open({foreign!r}, "a", encoding="utf-8") as fh:
            fh.write(f"{{os.getpid()}}: {{event}} {{args}}\\n")
sys.addaudithook(audit)
"""


def _gone(pid):
    """Whether process ``pid``, not a child of this one, has exited: it is
    gone, or a zombie that its new parent has yet to reap."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rpartition(b")")[2].split()[0] == b"Z"
    except FileNotFoundError:  # exited since
        return True


def _cache_keys(path):
    """The (backend, sha256) key of each line of a translation cache file."""
    return [(row["backend"], row["sha256"])
            for row in map(json.loads, path.read_bytes().splitlines())]


def _size(path):
    return path.stat().st_size if path.exists() else -1


def _contents(path):
    """The bytes of file ``path``, or of each file under directory ``path``
    by relative path."""
    if path.is_dir():
        return {p.relative_to(path): p.read_bytes() for p in path.rglob("*") if p.is_file()}
    return path.read_bytes()


def _remove(path):
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink(missing_ok=True)


class TestKilledRuns:
    """A run killed at any point does not change what the next run writes:
    rerun, it exits 0 with a clean run's output bytes and cache keys."""

    KILLS = 6

    def _start(self, entry, args, cwd):
        return subprocess.Popen([sys.executable, "-c", entry, *map(str, args)],
                                cwd=str(cwd), env=dict(os.environ, PYTHONPATH=CROLOC_ROOT),
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def _clean(self, entry, args, cwd, watched):
        """(seconds until one of ``watched`` first changed, seconds until
        exit) of a run that is left alone."""
        before = list(map(_size, watched))
        proc = self._start(entry, args, cwd)
        started, first = time.monotonic(), None
        while proc.poll() is None and time.monotonic() - started < 60:
            if first is None and list(map(_size, watched)) != before:
                first = time.monotonic() - started
            time.sleep(0.001)
        wall = time.monotonic() - started
        try:
            assert proc.wait(timeout=1) == 0
        finally:
            proc.kill()  # one still running after a minute
        return first or wall, wall

    def _killed(self, entry, args, cwd, delay):
        """Whether a run was sent SIGKILL ``delay`` seconds after it started:
        it may have exited by then."""
        proc = self._start(entry, args, cwd)
        try:
            proc.wait(timeout=delay)
        except subprocess.TimeoutExpired:
            proc.send_signal(signal.SIGKILL)
        return proc.wait(timeout=60) == -signal.SIGKILL

    def _check(self, tmp_path, name, args, outs, cache=None, entry=FANNED_ENTRY,
               after_kill=None):
        """Run ``args`` clean, then kill it at seeded points, from shortly
        before its first write to halfway from there to its exit (the rest
        is mostly the interpreter's shutdown), and rerun it; each run starts
        from the cache as it is now, if there is one, and none of ``outs``
        (files or directories). ``after_kill``, if given, is called once
        each killed run is reaped."""
        start_cache = cache.read_bytes() if cache and cache.exists() else b""
        watched = [*outs, cache] if cache else outs

        def reset():
            for out in outs:
                _remove(out)
            if cache:
                cache.write_bytes(start_cache)

        def written():
            return [_contents(out) for out in outs], _cache_keys(cache) if cache else []

        # The fastest of three clean runs' times, the later ones with the
        # imports warm: one run slowed by a busy machine would otherwise set
        # every kill after the end of a run as short as index's.
        times = []
        for _ in range(3):
            reset()
            times.append(self._clean(entry, args, tmp_path, watched))
        first, wall = map(min, zip(*times))
        clean_outs, clean_keys = written()
        rng = random.Random(f"kill:{name}")
        killed = 0
        delays = sorted(rng.uniform(0.7 * first, (first + wall) / 2) for _ in range(self.KILLS))
        for delay in delays:
            reset()
            killed += self._killed(entry, args, tmp_path, delay)
            assert_no_child_left()
            if after_kill is not None:
                after_kill()
            rerun = self._start(entry, args, tmp_path)
            assert rerun.wait(timeout=60) == 0, f"rerun after a kill at {delay:.3f} s"
            assert_no_child_left()
            got_outs, keys = written()
            assert got_outs == clean_outs
            assert set(keys) == set(clean_keys) and len(keys) == len(clean_keys)
        assert killed, "every run ended before its kill"

    def test_index_and_locate_killed_at_seeded_points(self, small_project, tmp_path):
        cache, index, run = tmp_path / "cache.jsonl", tmp_path / "index.bin", tmp_path / "run"
        common = ["--glossary", small_project.glossary, "--cache", cache]
        self._check(tmp_path, "index", ["index", "--tree", small_project.tree, *common,
                                        "-o", index], [index], cache)
        self._check(tmp_path, "locate", ["locate", "--index", index, "--reports",
                                         small_project.reports, *common, "-o", run], [run], cache)

    def test_forked_locate_killed_on_a_cold_cache(self, small_project, tmp_path):
        # The cache starts empty, so locate appends a row for each report
        # text. Only the command's own process writes the cache, and the
        # child it forked is gone soon after the killed command is reaped.
        cache, index, run = tmp_path / "cache.jsonl", tmp_path / "index.bin", tmp_path / "run"
        forks, foreign = tmp_path / "forks.txt", tmp_path / "foreign_write.txt"
        assert cli.main(["index", "--tree", str(small_project.tree), "--glossary",
                         str(small_project.glossary), "-o", str(index)]) == 0
        cache.write_bytes(b"")

        def child_gone_and_no_foreign_write():
            deadline = time.monotonic() + 10
            for pid in _pids(forks):
                while not _gone(pid):
                    assert time.monotonic() < deadline, f"child {pid} outlived its parent"
                    time.sleep(0.01)
            forks.unlink(missing_ok=True)
            assert not foreign.exists(), foreign.read_text("utf-8")
        entry = (CACHE_WRITES_WATCHED.format(foreign=str(foreign))
                 + LOCATE_ENTRY.format(cpus=2, numpy=False, forks=str(forks)))
        self._check(tmp_path, "locate-forked-cold",
                    ["locate", "--index", index, "--reports", small_project.reports,
                     "--glossary", small_project.glossary, "--cache", cache, "-o", run],
                    [run], cache, entry, child_gone_and_no_foreign_write)
        assert _pids(forks), "no run forked"
        assert len(_cache_keys(cache)) > 0
        child_gone_and_no_foreign_write()

    def test_one_process_index_translate_qrels_and_eval_killed(self, small_project, tmp_path):
        # Under ENTRY, index keeps a tree this small in one process.
        assert sum(f.stat().st_size for f in small_project.tree.rglob("*")
                   if f.is_file()) < croloc.corpus.MIN_CHUNK_BYTES
        index, run = tmp_path / "index.bin", tmp_path / "run"
        qrels, report = tmp_path / "qrels", tmp_path / "eval.json"
        # Each command that writes a cache starts from none.
        index_cache, translate_cache = tmp_path / "index.jsonl", tmp_path / "translate.jsonl"
        translated = tmp_path / "translated"
        glossary = ["--glossary", str(small_project.glossary)]
        self._check(tmp_path, "index-one-process",
                    ["index", "--tree", small_project.tree, *glossary, "--cache", index_cache,
                     "-o", index], [index], index_cache, ENTRY)
        self._check(tmp_path, "translate",
                    ["translate", "--tree", small_project.tree, "--reports",
                     small_project.reports, *glossary, "--cache", translate_cache,
                     "--out-dir", translated],
                    [translated / "translated", translated / "reports.translated.jsonl"],
                    translate_cache, ENTRY)
        self._check(tmp_path, "qrels", ["qrels", "--reports", small_project.reports,
                                        "--commit-log", small_project.commit_log, "-o", qrels],
                    [qrels], entry=ENTRY)
        assert cli.main(["locate", "--index", str(index), "--reports",
                         str(small_project.reports), *glossary, "-o", str(run)]) == 0
        self._check(tmp_path, "eval", ["eval", "--run", run, "--qrels", qrels,
                                       "--json", report], [report], entry=ENTRY)


class _Echo:
    """Answers as the ``service`` fixture's "echo" does, without a request."""

    name = "service"

    def __init__(self):
        self.batches = []

    def translate_batch(self, texts):
        self.batches.append(list(texts))
        return [f"EN({t})" for t in texts]


def _sources(cache):
    """The sources of a translation cache file's rows; none if it is missing."""
    return [json.loads(line)["source"]
            for line in (cache.read_bytes().splitlines() if cache.exists() else [])]


class TestServiceRequests:
    """index, locate and translate --reports through a local service: each
    command sends each distinct text its cache lacks once, at most
    BATCH_SIZE texts a request, and writes what the per-document and
    per-report loops they replaced (tests/reference.py) write."""

    def test_requests_and_outputs_match_the_per_item_loops(self, small_project, service,
                                                          tmp_path):
        documents = load_source_tree(small_project.tree, list(cli.DEFAULT_INCLUDE)).documents
        reports = load_bug_reports(small_project.reports)
        # The oracle, with a cache of its own; and, with none, the texts each
        # command needs translated.
        oracle = tmp_path / "oracle"
        oracle.mkdir()
        with TranslationCache(str(oracle / "cache.jsonl")) as ref_cache:
            ref_docs = [ref_translate_document(d, _Echo(), ref_cache)[0] for d in documents]
            ref_reports = [ref_translate_report(r, _Echo(), ref_cache) for r in reports]
        needed_by_docs, needed_by_reports = _Echo(), _Echo()
        for d in documents:
            ref_translate_document(d, needed_by_docs)
        for r in reports:
            ref_translate_report(r, needed_by_reports)
        croloc.index.save_index(croloc.index.build_index(
            [croloc.index.tokenize(d.raw_text) for d in ref_docs], [d.path for d in documents],
            False), oracle / "index.bin")
        ref_translated = "".join(json.dumps(report_to_obj(r), ensure_ascii=False) + "\n"
                                 for r in ref_reports)
        (oracle / "reports.jsonl").write_text(ref_translated, encoding="utf-8")
        assert cli.main(["locate", "--index", str(oracle / "index.bin"), "--reports",
                         str(oracle / "reports.jsonl"), "--translator", "identity",
                         "-o", str(oracle / "run")]) == 0

        url, seen = service(["echo"])
        cache, index, run, out = (tmp_path / name for name in ("cache.jsonl", "index.bin",
                                                                "run", "out"))
        common = ["--translator", "service", "--service-url", url, "--cache", str(cache)]
        commands = [
            (["index", "--tree", str(small_project.tree), *common, "-o", str(index)],
             needed_by_docs),
            (["locate", "--index", str(index), "--reports", str(small_project.reports),
              *common, "-o", str(run)], needed_by_reports),
            (["translate", "--reports", str(small_project.reports), *common,
              "--out-dir", str(out)], needed_by_reports),
        ]
        for args, needed in commands:
            misses = {t for batch in needed.batches for t in batch} - set(_sources(cache))
            seen.clear()
            assert cli.main(args) == 0
            sent = [t for request in seen for t in request["body"]["texts"]]
            assert max(map(len, (r["body"]["texts"] for r in seen)), default=0) <= BATCH_SIZE
            assert len(sent) == len(set(sent)) and set(sent) == misses
            assert len(seen) == math.ceil(len(misses) / BATCH_SIZE)
        assert misses == set() and seen == []  # translate found every report cached
        assert index.read_bytes() == (oracle / "index.bin").read_bytes()
        assert run.read_bytes() == (oracle / "run").read_bytes()
        assert (out / "reports.translated.jsonl").read_text("utf-8") == ref_translated
        assert cache.read_bytes() == (oracle / "cache.jsonl").read_bytes()


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
                              "--glossary", GLOSSARY, "--index", tmp_path / "index.bin",
                              "--reports", REPORTS, "--out-dir", tmp_path)
        # index tokenizes each document once, through the same croloc.index
        # lookup as locate; the test tree is too small to fan out.
        documents = load_source_tree(TREE, list(cli.DEFAULT_INCLUDE)).documents
        assert calls.get("index.tokenize") == len(documents) == 20
        assert located.get("index.tokenize"), "locate's query texts were not tokenized"
        for name, n in located.items():
            calls[name] = calls.get(name, 0) + n
        spans = ("corpus.filter", "corpus.load", "corpus.reports_load",
                 "extract.segments", "extract.spans",
                 "index.build", "index.csr", "index.documents", "index.load",
                 "index.save", "index.tokenize", "kernels.cosine", "rank.history_before", "rank.history_build",
                 "rank.ranking", "rank.rvsm", "rank.score", "rank.simi",
                 "rank.write", "translate.backend", "translate.glossary_load",
                 "translate.texts")
        assert [s for s in spans if not calls.get(s)] == []
        # index and locate translate and weigh all their documents or reports
        # in one batched call, so the one-item spans record none, and index
        # splices its translations in without reembed's checks; the tracer
        # still finds the names it wraps.
        assert [s for s in ("translate.document", "translate.report", "index.vectorize",
                            "extract.reembed") if s in calls] == []
        assert all(map(callable, (cli.translate_document, cli.translate_report,
                                  cli.vectorize_query, croloc.translate.reembed)))

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
        # The reports are translated before the output opens; the second
        # report written fails.
        monkeypatch.setattr(cli, "report_to_obj", _fail_on_call(cli.report_to_obj, 2))
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

    def test_out_directory_is_made(self, tmp_path):
        args = ("qrels", "--reports", REPORTS, "--commit-log", COMMITS)
        result = run_cli(*args, "-o", "new/q.txt", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        stdout = run_cli(*args, cwd=tmp_path).stdout
        assert (tmp_path / "new" / "q.txt").read_text(encoding="utf-8") == stdout


class TestEvalCommand:
    def _locate(self, built, tmp_path, technique="buglocator"):
        result = run_cli(
            "locate", "--index", built / "index.bin", "--reports", REPORTS,
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

    def test_json_directory_is_made(self, built, tmp_path):
        result = run_cli("eval", "--run", GOLDEN_RUN, "--qrels", built / "qrels.txt",
                         "--json", "new3/e.json", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        payload = json.loads((tmp_path / "new3" / "e.json").read_text(encoding="utf-8"))
        assert payload["queries_evaluated"] > 0

    def test_run_with_a_byte_order_mark(self, tmp_path):
        # A two-line run that an editor saved with a leading byte order mark,
        # against clean qrels: the mark is not part of the first query id.
        run = tmp_path / "run.trec"
        run.write_text("\ufeffQ1 Q0 src/A.java 1 0.900000 t\n"
                       "Q1 Q0 src/B.java 2 0.500000 t\n", encoding="utf-8")
        result = run_cli("eval", "--run", run, "--qrels", _qrels_file(tmp_path / "q.txt"),
                         cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "MAP" in result.stdout

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
        assert (tmp_path / "index.bin").exists()

    def test_flag_overrides_config(self, built, tmp_path):
        cfg = tmp_path / "croloc.json"
        cfg.write_text(json.dumps({
            "reports": str(REPORTS),
            "technique": "vsm",
            "out_dir": str(tmp_path),
        }), encoding="utf-8")
        result = run_cli(
            "locate", "--config", cfg, "--index", built / "index.bin",
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
    @settings(max_examples=200)
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
            ("locate", "--index", tmp_path / "index.bin", "--reports", REPORTS,
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
