import os
import pathlib
import sys
from datetime import datetime, timezone

import pytest

from croloc.index import vectorize_tokens
from croloc.rank import HistoryEntry

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

sys.path.insert(0, str(pathlib.Path(__file__).parent))


@pytest.fixture(scope="session")
def lexer_corpus_dir() -> pathlib.Path:
    return FIXTURES / "lexer_corpus"


@pytest.fixture(scope="session")
def project_dir() -> pathlib.Path:
    return FIXTURES / "synthetic_project"


# When a history entry was resolved, unless it says otherwise.
RESOLVED_AT = datetime(2020, 1, 1, tzinfo=timezone.utc)


def history_entries(index, history):
    """A ``HistoryEntry`` for each ``(tokens, fixed paths[, resolved_at])``
    of ``history``, vectorized over ``index``. Its fix counts each path once,
    and it was resolved at ``RESOLVED_AT`` unless it says otherwise."""
    doc_ids = {p: i for i, p in enumerate(index.paths)}
    entries = []
    for i, (tokens, fixed, *when) in enumerate(history):
        fixed = list(dict.fromkeys(fixed))
        entries.append(HistoryEntry(
            report_id=f"H{i}",
            resolved_at=when[0] if when else RESOLVED_AT,
            vector=vectorize_tokens(tokens, index),
            fixed_doc_ids=tuple(doc_ids[p] for p in fixed if p in doc_ids),
            n_fixed=len(fixed),
        ))
    return entries


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
