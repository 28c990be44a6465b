import os
import pathlib
import sys

import pytest

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

sys.path.insert(0, str(pathlib.Path(__file__).parent))


@pytest.fixture(scope="session")
def lexer_corpus_dir() -> pathlib.Path:
    return FIXTURES / "lexer_corpus"


@pytest.fixture(scope="session")
def project_dir() -> pathlib.Path:
    return FIXTURES / "synthetic_project"


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
