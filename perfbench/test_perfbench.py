"""Tests of the benchmark's own code: seeded inputs and the reference check."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from croloc.cli import main as croloc_main
from genproject import Shape, generate, load_material
from runcheck import Reference, check_run, read_run, tie_order_violations

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
SHAPE = Shape(files=40, reports=24)


@pytest.fixture(scope="module")
def material():
    return load_material(FIXTURES)


def test_same_seed_same_digests(material, tmp_path):
    a = generate(tmp_path / "a", material, SHAPE, "s:1")
    b = generate(tmp_path / "b", material, SHAPE, "s:1")
    assert a.digests == b.digests
    assert a.usable_ids == b.usable_ids


def test_other_seed_other_digests(material, tmp_path):
    a = generate(tmp_path / "a", material, SHAPE, "s:1")
    b = generate(tmp_path / "b", material, SHAPE, "s:2")
    for key in ("tree", "reports"):
        assert a.digests[key] != b.digests[key]


@pytest.fixture(scope="module")
def ranked(material, tmp_path_factory):
    """A generated project indexed and ranked by croloc in this process."""
    out = tmp_path_factory.mktemp("ranked")
    project = generate(out / "project", material, SHAPE, "s:3")
    index, run = out / "index.json", out / "run.trec"
    assert croloc_main(["index", "--tree", str(project.tree), "--glossary",
                        str(project.glossary), "-o", str(index)]) == 0
    assert croloc_main(["locate", "--index", str(index), "--reports", str(project.reports),
                        "--glossary", str(project.glossary), "--top-k", "10",
                        "-o", str(run)]) == 0
    reference = Reference(index, project.reports, project.glossary, "buglocator")
    return project, run, reference


def _checked(project, run_path, reference):
    run = check_run(run_path, project.usable_ids, 10)
    for qid in project.usable_ids:
        reference.check(run, qid)
    return run


def test_reference_accepts_croloc_run(ranked):
    project, run_path, reference = ranked
    assert _checked(project, run_path, reference).problems == {}


def _perturbed(run_path: Path, tmp_path: Path, edit) -> Path:
    lines = run_path.read_text("utf-8").splitlines()
    edit(lines)
    out = tmp_path / "perturbed.trec"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def _swap_first_distinct_paths(lines):
    for i in range(len(lines) - 1):
        a, b = lines[i].split(), lines[i + 1].split()
        if a[0] == b[0] and a[4] != b[4]:
            a[2], b[2] = b[2], a[2]
            lines[i], lines[i + 1] = " ".join(a), " ".join(b)
            return
    raise AssertionError("no adjacent rows with distinct scores")


def _nudge_score(lines):
    parts = lines[0].split()
    parts[4] = f"{float(parts[4]) - 1e-4:.6f}"
    lines[0] = " ".join(parts)


@pytest.mark.parametrize("edit", [_swap_first_distinct_paths, _nudge_score])
def test_reference_flags_perturbed_run(ranked, tmp_path, edit):
    project, run_path, reference = ranked
    run = _checked(project, _perturbed(run_path, tmp_path, edit), reference)
    assert len(run.problems) == 1


def test_tie_order_violations_counts_unsorted_equal_scores(tmp_path):
    path = tmp_path / "run.trec"
    path.write_text("q Q0 b.java 1 0.500000 t\nq Q0 a.java 2 0.500000 t\n"
                    "q Q0 c.java 3 0.400000 t\n", encoding="utf-8")
    assert tie_order_violations(read_run(path)) == 1


def test_benchmark_json_lists_every_per_layer_metric():
    from run import layer_metrics

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                      .read_text("utf-8"))
    measured = {**layer_metrics([], 0), "trace.overhead_s": (0.0, "s")}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in measured.items()}
