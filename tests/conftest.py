import json
import os
import pathlib
import sys
import threading
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from croloc.corpus import BugReport
from croloc.index import QueryRows, build_index, tokenize, vectorize_query, vectorize_tokens
from croloc.rank import HistorySet

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

sys.path.insert(0, str(pathlib.Path(__file__).parent))


@pytest.fixture(scope="session")
def lexer_corpus_dir() -> pathlib.Path:
    return FIXTURES / "lexer_corpus"


@pytest.fixture(scope="session")
def project_dir() -> pathlib.Path:
    return FIXTURES / "synthetic_project"


@pytest.fixture
def service():
    """Factory for a scripted local translation service.

    Each response spec is either "echo" (HTTP 200 with EN(...) translations),
    an int status code (error with a JSON body), ("mismatch",) for a 200 with
    the wrong number of translations, or ("garbage",) for a 200 non-JSON body.
    The last spec repeats once the script runs out.
    """
    servers = []

    def start(script):
        seen = []
        plan = list(script)

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                request = json.loads(self.rfile.read(length))
                seen.append({
                    "auth": self.headers.get("Authorization"),
                    "body": request,
                })
                spec = plan.pop(0) if len(plan) > 1 else plan[0]
                if spec == "echo":
                    payload = json.dumps(
                        {"translations": [f"EN({t})" for t in request["texts"]]}
                    ).encode("utf-8")
                    status = 200
                elif spec == ("mismatch",):
                    payload = json.dumps({"translations": ["only-one"]}).encode("utf-8")
                    status = 200
                elif spec == ("garbage",):
                    payload = b"<html>not json</html>"
                    status = 200
                else:
                    payload = json.dumps({"error": "scripted"}).encode("utf-8")
                    status = int(spec)
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        servers.append(httpd)
        url = f"http://127.0.0.1:{httpd.server_address[1]}/translate"
        return url, seen

    yield start
    for httpd in servers:
        httpd.shutdown()
        httpd.server_close()


# When a history report was resolved, unless it says otherwise.
RESOLVED_AT = datetime(2020, 1, 1, tzinfo=timezone.utc)
# A report time later than every resolution: a query filed then may use the
# whole history.
AFTER_ALL = datetime.max.replace(tzinfo=timezone.utc)


def index_texts(raw_texts, paths, stemming=False):
    """The index of ``raw_texts``, each tokenized with ``stemming``."""
    return build_index([tokenize(t, stemming) for t in raw_texts], paths, stemming)


def batch(*vectors):
    """The ``QueryRows`` of ``vectors``, one row each, in order."""
    return QueryRows.pack(vectors)


def history_set(index, history):
    """``HistorySet.build`` over a resolved report for each
    ``(tokens, fixed paths[, resolved_at])`` of ``history``, whose query
    vector is its tokens' over ``index``. Its fix counts each path once, and
    it was resolved at ``RESOLVED_AT`` unless it says otherwise."""
    reports = []
    for i, (_, fixed, *when) in enumerate(history):
        resolved_at = when[0] if when else RESOLVED_AT
        # Each report's query text is its own, and names its row.
        reports.append(BugReport(f"H{i}", f"H{i}", "", resolved_at, resolved_at, tuple(fixed)))
    rows = batch(*(vectorize_tokens(tokens, index) for tokens, *_ in history))
    return HistorySet.build(reports, index, rows)


def history_of(reports, index):
    """``HistorySet.build`` over ``reports``, each vectorized from its query
    text."""
    return HistorySet.build(reports, index,
                            batch(*(vectorize_query(r.query_text, index) for r in reports)))


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
