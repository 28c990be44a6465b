"""croloc runs on the standard library and numpy, and declares nothing else."""
import ast
import pathlib
import re
import sys

import pytest

import croloc

PACKAGE = pathlib.Path(croloc.__file__).resolve().parent
PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def _imported_packages(path):
    """The top-level package of each absolute import in the module at ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_modules_import_only_stdlib_and_numpy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = {f"{path.name}: {name}" for path in modules for name in _imported_packages(path)
               if name not in sys.stdlib_module_names and name != "numpy"}
    assert not foreign


def test_pyproject_declares_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in dependencies] == ["numpy"]
