"""Pipeline benchmark for croloc: index -> locate -> qrels -> eval over a
generated bilingual Java/C# project, each command in its own process.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Inputs come from ``--seed`` alone (see genproject.py). Set-up builds them
SETUP_REPEATS times and reports the median as ``setup_s``. Then iterations of
the workload's commands repeat until ``--seconds`` have passed; timings are
medians over iterations. Every iteration's outputs are checked outside the
timed region: exit codes, the run file's shape, and for a seeded sample of
queries the scores and top-k against an independent reference
(runcheck.py). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. A traced run
alternates plain and traced iterations; the difference of their median walls
is ``trace.overhead_s``. The exit status is 1 when any check fails.

Child processes get the absolute ``src`` path on PYTHONPATH, so they import
this checkout's croloc whatever their working directory. Work files go to
``.perfbench_work`` at the checkout root.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
WORK = ROOT / ".perfbench_work"

TOP_K = 100
SETUP_REPEATS = 3
REFERENCE_SAMPLE = 12  # queries re-scored by the reference per iteration
COMMAND_TIMEOUT_S = 150
MIB = 1 << 20

sys.path.insert(0, str(SRC))

from genproject import Shape, generate, load_material  # noqa: E402
from runcheck import Reference, check_run, tie_order_violations  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    technique: str
    # "cold": the translation cache is deleted before each iteration. Otherwise
    # set-up indexes the tree and translates the reports through the cache;
    # "warm" iterations translate through it, "none" iterations read the
    # translated reports and do not translate.
    cache: str
    # Whether each iteration runs index; otherwise set-up builds it once.
    reindex: bool


# Sizes keep one run of every workload well inside the time limit on a
# 2-CPU machine while leaving each workload's dominant layer dominant.
WORKLOADS = {w.name: w for w in (
    # index dominates: extract, translation-cache writes, tokenize, build, save.
    Workload("triage-cold", Shape(files=1000, reports=150), "buglocator", "cold", True),
    # locate dominates: simi over a history that grows to ~500 reports;
    # translation only reads the cache.
    Workload("replay-warm", Shape(files=400, reports=500), "buglocator", "warm", True),
    # per-query kernel, full-corpus sort and run-file writing; no history,
    # no index build and no translation in the timed region.
    Workload("scan-rvsm", Shape(files=1500, reports=400), "rvsm", "none", False),
)}


@dataclass
class Done:
    """One finished command."""

    step: str
    wall_s: float
    rss_mib: float
    code: int
    trace: dict | None = None


class Runner:
    """Runs croloc commands as separate processes and records each one."""

    def __init__(self, log_path: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env
        self.log_path = log_path

    def run(self, step: str, args: list[str], trace_path: Path | None = None) -> Done:
        if trace_path is None:
            cmd = [sys.executable, "-m", "croloc.cli", step, *args]
        else:
            trace_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_path), step, *args]
        with open(self.log_path, "ab") as log:
            log.write(f"$ {' '.join(cmd)}\n".encode())
            log.flush()
            start = perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.log_path.parent, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=log)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        trace = None
        if trace_path is not None and trace_path.exists():
            trace = json.loads(trace_path.read_text("utf-8"))
        return Done(step, wall, usage.ru_maxrss / 1024, proc.returncode, trace)


@dataclass
class Tally:
    """Operations attempted and the ones that failed, with reasons."""

    attempted: int = 0
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    def command(self, done: Done) -> None:
        self.attempted += 1
        if done.code != 0:
            self.fail(f"cmd:{done.step}:{self.attempted}", f"{done.step} exited {done.code}")

    def fail(self, op: str, problem: str) -> None:
        self.failed.add(op)
        self.problems.append(problem)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Bench:
    """One workload at one seed: set-up, iterations, checks and metrics."""

    def __init__(self, workload: Workload, seed: int, trace: bool):
        self.w = workload
        self.seed = seed
        self.trace = trace
        self.dir = WORK / workload.name
        self.tally = Tally()
        self.setup_s: list[float] = []
        self.setup_index: list[Done] = []
        self.iterations: list[dict] = []
        self.reference: Reference | None = None
        self.reference_digest = None
        self.first_digests: dict = {}

    # paths inside the work directory
    def p(self, name: str) -> str:
        return str(self.dir / name)

    def index_args(self) -> list[str]:
        return ["--tree", str(self.project.tree), "--glossary", str(self.project.glossary),
                "--cache", self.p("cache.jsonl"), "-o", self.p("index.json")]

    def setup(self) -> None:
        for repeat in range(SETUP_REPEATS):
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir.mkdir(parents=True)
            self.runner = Runner(self.dir / "commands.log")
            last = repeat == SETUP_REPEATS - 1
            trace_path = self.dir / "trace-setup.json" if self.trace and last else None
            start = perf_counter()
            self.project = generate(self.dir / "project", load_material(FIXTURES),
                                    self.w.shape, f"{self.w.name}:{self.seed}")
            steps = []
            if self.w.cache != "cold":
                index = self.runner.run("index", self.index_args(),
                                        None if self.w.reindex else trace_path)
                steps = [index, self.runner.run("translate", [
                    "--reports", str(self.project.reports),
                    "--glossary", str(self.project.glossary),
                    "--cache", self.p("cache.jsonl"), "--out-dir", self.p("translated")])]
                if not self.w.reindex:
                    self.setup_index.append(index)
            self.setup_s.append(perf_counter() - start)
            for done in steps:
                self.tally.command(done)
        self.n_queries = len(self.project.usable_ids)

    def iterate(self, traced: bool) -> dict:
        project = self.project
        if self.w.cache == "cold":
            Path(self.p("cache.jsonl")).unlink(missing_ok=True)
        cache_args = ["--glossary", str(project.glossary), "--cache", self.p("cache.jsonl")]
        if self.w.cache == "none":
            reports_args = ["--reports", self.p("translated/reports.translated.jsonl"),
                            "--no-translate"]
        else:
            reports_args = ["--reports", str(project.reports)] + cache_args
        steps = []
        if self.w.reindex:
            steps.append(("index", self.index_args()))
        steps += [
            ("locate", ["--index", self.p("index.json"), *reports_args,
                        "--technique", self.w.technique, "--top-k", str(TOP_K),
                        "-o", self.p("run.trec")]),
            ("qrels", ["--reports", str(project.reports),
                       "--commit-log", str(project.commit_log), "-o", self.p("qrels.txt")]),
            ("eval", ["--run", self.p("run.trec"), "--qrels", self.p("qrels.txt"),
                      "--json", self.p("eval.json")]),
        ]
        for name in ("run.trec", "qrels.txt", "eval.json"):
            Path(self.p(name)).unlink(missing_ok=True)
        start = perf_counter()
        done = {step: self.runner.run(step, args,
                                      self.dir / f"trace-{step}.json" if traced else None)
                for step, args in steps}
        wall = perf_counter() - start
        it = {"wall_s": wall, "done": done, "traced": traced}
        self.check(it)
        self.iterations.append(it)
        return it

    def check(self, it: dict) -> None:
        tally = self.tally
        for done in it["done"].values():
            tally.command(done)
        usable = self.project.usable_ids
        tally.attempted += len(usable)
        n = len(self.iterations)
        run_path, index_path = Path(self.p("run.trec")), Path(self.p("index.json"))
        if not run_path.exists() or not index_path.exists():
            for qid in usable:
                tally.fail(f"{n}:{qid}", f"{qid}: no run file or index")
            return
        digests = {"index_sha256": sha256(index_path), "run_sha256": sha256(run_path)}
        for key, value in digests.items():
            first = self.first_digests.setdefault(key, value)
            if value != first:
                tally.fail(f"{n}:{key}", f"{key} differs from the first iteration's")
        it.update(digests)
        run = check_run(run_path, usable, min(TOP_K, self.project.n_files))
        it["tie_order_violations"] = tie_order_violations(run)
        if self.reference_digest != digests["index_sha256"]:
            self.reference = Reference(index_path, self.project.reports,
                                       self.project.glossary, self.w.technique)
            self.reference_digest = digests["index_sha256"]
        sample = random.Random(f"{self.seed}:{n}").sample(
            list(usable), min(REFERENCE_SAMPLE, len(usable)))
        for qid in sample:
            self.reference.check(run, qid)
        for qid, problems in run.problems.items():
            tally.fail(f"{n}:{qid}", f"{qid}: {'; '.join(problems)}")
        try:
            report = json.loads(Path(self.p("eval.json")).read_text("utf-8"))
            it["map"] = float(report["map"])
            if report["queries_evaluated"] != len(usable):
                tally.fail(f"{n}:eval", f"eval scored {report['queries_evaluated']} "
                                        f"queries, expected {len(usable)}")
        except (OSError, ValueError, KeyError) as exc:
            tally.fail(f"{n}:eval", f"eval report unreadable: {exc}")
        it["index_mib"] = index_path.stat().st_size / MIB

    def measure(self, seconds: float) -> None:
        deadline = perf_counter() + seconds
        while True:
            traced = self.trace and len(self.iterations) % 2 == 1
            self.iterate(traced)
            enough = not self.trace or len(self.iterations) >= 2
            if perf_counter() >= deadline and enough:
                break

    # ---- metrics -------------------------------------------------------

    def end_to_end(self) -> dict:
        its = [it for it in self.iterations if not it["traced"]]
        med = statistics.median
        if self.w.reindex:
            index_runs = [it["done"]["index"] for it in its]
        else:
            index_runs = self.setup_index
        return {
            "wall_s": (med(it["wall_s"] for it in its), "s"),
            "index_docs_per_s": (med(self.project.n_files / d.wall_s for d in index_runs), "1/s"),
            "locate_queries_per_s": (
                med(self.n_queries / it["done"]["locate"].wall_s for it in its), "1/s"),
            "peak_rss_mb": (med(max(d.rss_mib for d in it["done"].values())
                                for it in its), "MiB"),
            "index_mb": (med(it["index_mib"] for it in its), "MiB"),
            "map": (med(it.get("map", 0.0) for it in its), "ratio"),
            "setup_s": (med(self.setup_s), "s"),
        }

    def per_layer(self) -> dict:
        plain = [it["wall_s"] for it in self.iterations if not it["traced"]]
        traced = [it for it in self.iterations if it["traced"]]
        # scan-rvsm's index numbers come from its set-up build.
        setup = [d for d in self.setup_index[-1:] if d.trace]
        rows = [layer_metrics([d for d in it["done"].values() if d.trace] + setup,
                              it.get("tie_order_violations", 0)) for it in traced]
        out = {name: (statistics.median(r[name][0] for r in rows), rows[0][name][1])
               for name in rows[0]}
        out["trace.overhead_s"] = (statistics.median(it["wall_s"] for it in traced)
                                   - statistics.median(plain), "s")
        return out

    def record(self) -> dict:
        its = self.iterations
        return {
            "workload": self.w.name,
            "seed": self.seed,
            "inputs": self.project.digests,
            "index_sha256": its[0].get("index_sha256") if its else None,
            "run_sha256": its[0].get("run_sha256") if its else None,
            "sizes": {"files": self.project.n_files, "reports": self.w.shape.reports,
                      "queries": self.n_queries},
            "iteration_walls_s": [round(it["wall_s"], 4) for it in its],
            "setup_s": [round(t, 4) for t in self.setup_s],
            "machine": machine(),
        }


def layer_metrics(dones: list[Done], tie_violations: int) -> dict:
    """Per-layer numbers summed over traced commands."""
    total, self_s, calls, counts = {}, {}, {}, {}
    cli_self = 0.0
    queries: list[float] = []
    for done in dones:
        trace = done.trace
        cli_self += done.wall_s - trace["top_s"]
        for src, dst in ((trace["total"], total), (trace["self"], self_s),
                         (trace["calls"], calls), (trace["counts"], counts)):
            for key, value in src.items():
                dst[key] = dst.get(key, 0) + value
        samples = trace["samples"]
        if "score" in samples:
            parts = [samples[k] for k in ("vectorize", "before", "score", "ranking")
                     if k in samples]
            queries += [sum(xs) * 1000 for xs in zip(*parts)]

    def t(name):
        return total.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    hits, misses = c("translate.cache_hits"), c("translate.cache_misses")
    scanned = c("rank.history_scanned")
    cuts = statistics.quantiles(queries, n=10) if len(queries) > 1 else [0.0] * 9
    return {
        "corpus.load_s": (t("corpus.load"), "s"),
        "corpus.files": (c("corpus.files"), "count"),
        "corpus.mb": (c("corpus.bytes") / MIB, "MiB"),
        "corpus.reports_load_s": (t("corpus.reports_load"), "s"),
        "corpus.excluded_not_functional": (c("excluded:not a functional bug"), "count"),
        "corpus.excluded_fix_not_completed": (c("excluded:fix not completed"), "count"),
        "corpus.excluded_no_source_file": (c("excluded:no source file fixed"), "count"),
        "extract.spans_s": (t("extract.spans"), "s"),
        "extract.spans": (c("extract.spans"), "count"),
        "extract.segments_s": (t("extract.segments"), "s"),
        "extract.segments": (c("extract.segments"), "count"),
        "extract.reembed_s": (t("extract.reembed"), "s"),
        "translate.texts_s": (self_s.get("translate.texts", 0.0), "s"),
        "translate.backend_s": (t("translate.backend"), "s"),
        "translate.backend_batches": (calls.get("translate.backend", 0), "count"),
        "translate.cache_load_s": (t("translate.cache_load"), "s"),
        "translate.cache_write_s": (t("translate.cache_write"), "s"),
        "translate.cache_hits": (hits, "count"),
        "translate.cache_misses": (misses, "count"),
        "translate.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                                      "ratio"),
        "index.tokenize_s": (t("index.tokenize"), "s"),
        "index.tokens": (c("index.tokens"), "count"),
        "index.build_s": (t("index.build"), "s"),
        "index.save_s": (t("index.save"), "s"),
        "index.load_s": (t("index.load"), "s"),
        "index.csr_s": (t("index.csr"), "s"),
        "index.vectorize_s": (t("index.vectorize"), "s"),
        "index.vocab": (c("index.vocab"), "count"),
        "index.nnz": (c("index.nnz"), "count"),
        "index.mb": (c("index.bytes") / MIB, "MiB"),
        "rank.history_build_s": (t("rank.history_build"), "s"),
        "rank.history_filter_s": (t("rank.history_before"), "s"),
        "rank.history_scanned": (scanned, "count"),
        "rank.history_useful_ratio": (c("rank.cosine_nonzero") / scanned if scanned else 0.0,
                                      "ratio"),
        "rank.simi_s": (t("rank.simi"), "s"),
        "rank.rvsm_s": (self_s.get("rank.rvsm", 0.0), "s"),
        "rank.ranking_s": (t("rank.ranking"), "s"),
        "rank.kept_ratio": (c("rank.rows_kept") / max(1, c("rank.docs_sorted")), "ratio"),
        "rank.write_s": (t("rank.write"), "s"),
        "rank.query_p50_ms": (cuts[4], "ms"),
        "rank.query_p90_ms": (cuts[8], "ms"),
        "rank.tie_order_violations": (tie_violations, "count"),
        "kernels.cosine_s": (t("kernels.cosine"), "s"),
        "kernels.calls": (calls.get("kernels.cosine", 0), "count"),
        "kernels.nnz_touched": (c("kernels.nnz_touched"), "count"),
        "kernels.bytes_moved": (c("kernels.bytes_moved"), "B"),
        "eval.link_s": (t("eval.link"), "s"),
        "eval.read_run_s": (t("eval.read_run"), "s"),
        "eval.evaluate_s": (t("eval.evaluate"), "s"),
        "eval.queries": (c("eval.queries"), "count"),
        "cli.self_s": (cli_self, "s"),
    }


def breakdown(it: dict) -> list[str]:
    """Where each command's wall time went, by span self time."""
    lines = []
    for done in it["done"].values():
        if done.trace is None:
            continue
        top = sorted(done.trace["self"].items(), key=lambda kv: -kv[1])[:6]
        parts = [f"{name} {sec:.3f}s ({sec / done.wall_s:.0%})" for name, sec in top]
        cli = done.wall_s - done.trace["top_s"]
        lines.append(f"  {done.step} {done.wall_s:.3f}s: cli.self {cli:.3f}s "
                     f"({cli / done.wall_s:.0%}), " + ", ".join(parts))
    return lines


def machine() -> dict:
    import numpy

    try:
        import numba  # noqa: F401
    except ImportError:
        has_numba = False
    else:
        has_numba = True
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": has_numba,
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[Bench, dict]:
    bench = Bench(w, seed, trace)
    bench.setup()
    bench.measure(seconds)
    metrics = bench.per_layer() if trace else bench.end_to_end()
    return bench, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "croloc").is_dir() or not FIXTURES.is_dir():
        print(f"error: {ROOT} lacks src/croloc or tests/fixtures; run the benchmark "
              "from a croloc checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted, failed, correct, combined = 0, 0, True, {}
    for name in names:
        bench, metrics = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                      bool(args.trace))
        tally = bench.tally
        for problem in tally.problems[:20]:
            print(f"check failed: {name}: {problem}", file=sys.stderr)
        print(f"record {json.dumps(bench.record(), sort_keys=True)}")
        if args.trace:
            print(f"trace {name} (last traced iteration):")
            print("\n".join(breakdown([it for it in bench.iterations if it["traced"]][-1])))
        for metric, (value, unit) in metrics.items():
            print(f"{name} {metric} {value:.6g} {unit}")
        attempted += tally.attempted
        failed += len(tally.failed)
        correct = correct and not tally.failed
        prefix = "" if len(names) == 1 else f"{name}/"
        combined.update({prefix + m: {"value": v, "unit": u} for m, (v, u) in metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
