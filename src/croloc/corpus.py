"""Source tree and bug report loading, plus report usability filtering.

A corpus is an immutable snapshot of source files on disk; bug reports come
from a JSON Lines file (one object per report). Reports are filtered for
evaluation usability with the three criteria: functional bug, completed fix,
and at least one fixed source file present in the corpus.

The line-oriented readers and the run and index writers share this module's
text-file helpers, ``read_lines`` and ``write_atomically``, and every reader
of JSON input parses it with ``parse_json`` and checks its fields with ``typed``.
``run_tasks`` runs tasks at once in forked processes, each of which stops
once its parent is gone, and ``fan_out`` spreads independent per-document
work over the usable CPUs through it.
"""
from __future__ import annotations

import contextlib
import functools
import json
import logging
import math
import os
import re
import threading
import time
from bisect import bisect_left
from collections.abc import Callable, Collection, Iterator, Sequence
from datetime import datetime, timedelta, timezone
from enum import Enum
from itertools import accumulate, pairwise
from pathlib import Path
from typing import IO, NamedTuple, NoReturn, TypeVar

from .errors import CorpusError, CrolocError, ReportFormatError

log = logging.getLogger(__name__)

REASON_NOT_FUNCTIONAL = "not a functional bug"
REASON_FIX_NOT_COMPLETED = "fix not completed"
REASON_NO_SOURCE_FILE = "no source file fixed"


class Language(str, Enum):
    JAVA = "java"
    CSHARP = "csharp"
    GENERIC = "generic"


_LANGUAGES = {".java": Language.JAVA, ".cs": Language.CSHARP}


def normalize_path(path: str) -> str:
    """Normalize a repo-relative path: forward slashes, no leading './'."""
    p = path.replace("\\", "/")
    while p.startswith("./"):
        p = p[2:]
    return p


def read_lines(path: str | Path, error: type[CrolocError]) -> Iterator[tuple[int, str]]:
    """(line number, line) of a UTF-8 text file, numbered from 1, without
    the byte order mark that may start the file. A file that does not decode
    raises ``error`` naming it."""
    try:
        # utf-8-sig drops a leading U+FEFF once, and no other.
        with open(path, encoding="utf-8-sig") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8 ({exc})") from exc


@contextlib.contextmanager
def write_atomically(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """A UTF-8 text handle, or a binary one, whose content replaces ``path``
    only once the block completes. It writes to a temporary file beside
    ``path``, which a failure removes, so ``path`` holds either its old or
    all of its new content. It makes ``path``'s directory if need be."""
    if parent := os.path.dirname(path):
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with (open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# The least total size of the items that makes one more process worth it,
# with each process on a CPU of its own (see fan_out). Warm-cache index runs
# over the first files of perfbench's seed-1 replay-warm tree on a 2-CPU VM,
# in one process and in two (medians of 24 alternating runs): 64 KiB 73.4 /
# 79.0 ms, 128 KiB 88.3 / 91.4, 192 KiB 101.8 / 99.5, 256 KiB 116.9 / 114.7,
# 384 KiB 138.6 / 129.5, and the whole 0.46 MiB 147.2 / 135.5. Two processes
# pay off from a tree of about 192 KiB (they won 17 of 24 pairs there and 6
# at 128 KiB); chunks of at least 128 KiB leave a margin, so 2 CPUs split a
# tree from 256 KiB: every test project stays in one process, and both
# perfbench trees (0.46 and 1.16 MiB) split in two. Two processes sharing one
# CPU, as they did before fan_out placed them, lost to one at every size.
MIN_CHUNK_BYTES = 128 << 10

_T = TypeVar("_T")
_R = TypeVar("_R")


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def spare_cpu() -> bool:
    """Whether a process forked from this one could run beside it: this
    platform has ``os.fork``, and more than one CPU is usable."""
    return hasattr(os, "fork") and _usable_cpus() > 1


def _set_affinity(cpus: Collection[int]) -> None:
    """Hold this process to ``cpus``, as far as the platform lets it: without
    ``os.sched_setaffinity``, or where the kernel refuses, it stays where the
    kernel put it."""
    if hasattr(os, "sched_setaffinity"):
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, cpus)


def _chunks(sizes: Sequence[int]) -> list[tuple[int, int]]:
    """(start, end) of each of a few contiguous chunks of the items that
    ``sizes`` weighs, about equal in total size. There is one chunk per
    usable CPU, but at most one per ``MIN_CHUNK_BYTES`` of total size, at
    least one, and only one where ``os.fork`` is missing."""
    total = sum(sizes)
    n = max(1, min(_usable_cpus(), total // MIN_CHUNK_BYTES)) if hasattr(os, "fork") else 1
    # Chunk k ends at the item boundary nearest to k/n of the total.
    before = [0, *accumulate(sizes)]  # the total of the items before each boundary
    cuts = set()
    for k in range(1, n):
        target = total * k / n
        i = bisect_left(before, target)
        cuts.add(i if before[i] - target <= target - before[i - 1] else i - 1)
    return list(pairwise(sorted({0, len(sizes), *cuts})))


def _work_in_child(task: Callable[[], _R], pipe: int, cpu: int | None,
                   parent: int) -> NoReturn:
    """Send ``task()``, or the exception it raised, through ``pipe``,
    pickled, and exit, having run on ``cpu`` alone unless it is None; exit
    with 1 as soon as process ``parent`` is found gone. It never returns:
    whatever called ``run_tasks`` (a test runner, a tracer, atexit handlers)
    runs on in the parent alone."""
    import pickle

    def exit_once_orphaned() -> None:
        # A killed parent cannot kill its children, and a child that goes
        # on may keep calling a paid translation service.
        while os.getppid() == parent:
            time.sleep(0.1)
        os._exit(1)
    threading.Thread(target=exit_once_orphaned, daemon=True).start()
    status = 1
    try:
        if cpu is not None:
            _set_affinity({cpu})
        result = error = None
        try:
            result = task()
        # Every exception, KeyboardInterrupt and SystemExit too, goes to the
        # parent, which raises it where a serial run would have.
        except BaseException as exc:
            error = exc
            try:
                pickle.loads(pickle.dumps(error))
            except Exception:  # whatever stops it from pickling or unpickling
                error = CrolocError(f"{type(error).__name__}: {error}")
        payload = pickle.dumps((result, error), pickle.HIGHEST_PROTOCOL)
        with open(pipe, "wb") as fh:
            fh.write(payload)
        status = 0
    finally:
        os._exit(status)


def _stop(pid: int, kill: bool) -> int:
    """The exit code of child ``pid``, once it has exited (killed first if
    ``kill``)."""
    import signal

    if kill:
        os.kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def run_tasks(tasks: Sequence[Callable[[], _R]]) -> Iterator[_R]:
    """``task()`` of each of ``tasks``, in turn. This process runs the first,
    and a child forked from it each other one, at the same time. A child
    sends its result back pickled, so a task must return a picklable value,
    and a forked one must run only pure-Python code: a forked child has none
    of this process's other threads, such as BLAS's, so a numpy call could
    hang. A child checks every 0.1 s that this process lives, and exits once
    it is gone, so no child outlives a killed parent by more than that.

    While the children run, this process runs on the first CPU of its
    affinity mask alone, and each child on the next one, where one is left.
    A kernel that balances no load, as in a cpuset with
    ``cpuset.sched_load_balance`` 0 or on CPUs isolated with ``isolcpus``,
    never moves a forked child off its parent's CPU, so the processes would
    otherwise take turns on one CPU. Placing is best effort: where the
    platform or the kernel does not allow it, a process stays where it is.
    This process gets back the exact mask it had, however the generator ends.

    An exception in this process's task kills the children and propagates.
    One in a child's task is raised in its task's turn; one that does not
    pickle becomes a ``CrolocError`` with its message. A child that exits
    without sending raises a ``CrolocError`` naming its exit code. Close the
    generator (``contextlib.closing``) to kill and reap any child still
    running; none outlives it. Give more than one task only where
    ``os.fork`` exists.
    """
    # Imported where used, as numpy does anyway: other commands import this module.
    import pickle

    first, *rest = tasks
    parent = os.getpid()
    mask = os.sched_getaffinity(0) if rest and hasattr(os, "sched_getaffinity") else set()
    cpus = sorted(mask)  # task k runs on cpus[k], where there is one
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe), in task order
    try:
        for k, task in enumerate(rest, start=1):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _work_in_child(task, write, cpus[k] if k < len(cpus) else None, parent)
            os.close(write)
            children.append((pid, read))
        if mask:
            _set_affinity({cpus[0]})
        yield first()
        while children:
            pid, read = children.pop(0)
            payload = None
            try:
                with open(read, "rb") as fh:
                    payload = fh.read()
            finally:
                code = _stop(pid, kill=payload is None)
            # A child exits with 0 only once it has sent everything.
            if code != 0:
                raise CrolocError(f"a worker process exited without a result "
                                  f"(exit code {code})")
            result, error = pickle.loads(payload)
            if error is not None:
                raise error
            yield result
    finally:
        for pid, read in children:
            os.close(read)
            _stop(pid, kill=True)
        if mask:
            _set_affinity(mask)


def fan_out(work: Callable[[Sequence[_T]], _R], items: Sequence[_T],
            sizes: Sequence[int]) -> Iterator[_R]:
    """``work(chunk)`` for each contiguous chunk of ``items`` in turn, so
    that the results come in item order. ``sizes`` weighs each item, and
    ``_chunks`` sets the chunks; ``work`` gets a chunk as a slice of
    ``items``. The chunks are ``run_tasks``' tasks, so this process works
    through the first and a forked child through each other one, and a child
    stops as soon as this process is gone."""
    return run_tasks([functools.partial(work, items[start:end])
                      for start, end in _chunks(sizes) or [(0, 0)]])


class SourceDocument(NamedTuple):
    """One source file: repo-relative path, language and its UTF-8 bytes as
    read, which the lexer's and the splice's byte offsets index."""

    path: str
    language: Language
    raw_bytes: bytes

    @property
    def raw_text(self) -> str:
        return self.raw_bytes.decode("utf-8")

    @property
    def byte_len(self) -> int:
        return len(self.raw_bytes)


class BugReport(NamedTuple):
    """A bug report; resolved historical reports carry their fixed files."""

    id: str
    summary: str
    description: str
    reported_at: datetime
    resolved_at: datetime | None = None
    fixed_files: tuple[str, ...] | None = None
    functional: bool = True

    @property
    def query_text(self) -> str:
        """Query form of the report: summary + newline + description."""
        return self.summary + "\n" + self.description

    @property
    def fixed_paths(self) -> tuple[str, ...]:
        """The fixed files as normalized corpus paths, each once, in report
        order; empty when the report has no fix list."""
        return tuple(dict.fromkeys(map(normalize_path, self.fixed_files or ())))


class Corpus(NamedTuple):
    """Immutable set of source documents, each with its own path, and the
    (path, reason) of each file skipped."""

    documents: tuple[SourceDocument, ...]
    skipped: tuple[tuple[str, str], ...] = ()


# RFC 3339's date-time, whose offset may be left out.
_RFC3339 = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})[Tt ]([0-9]{2}):([0-9]{2}):([0-9]{2})"
                      r"(?:\.([0-9]+))?(?:[Zz]|([+-])([0-9]{2}):([0-9]{2}))?")


def parse_rfc3339(value: str) -> datetime:
    """Parse an RFC 3339 timestamp. One without an offset is taken as UTC,
    and fraction digits past the microsecond are cut off."""
    try:
        if (match := _RFC3339.fullmatch(value)) is None:
            raise ValueError("not YYYY-MM-DD[Tt ]HH:MM:SS[.digits][Zz|+HH:MM|-HH:MM]")
        *fields, fraction, sign, hours, minutes = match.groups()
        if sign and (int(hours) > 23 or int(minutes) > 59):
            raise ValueError("offset out of range")
        offset = timedelta(hours=int(hours or 0), minutes=int(minutes or 0))
        micros = int((fraction or "")[:6].ljust(6, "0"))
        return datetime(*map(int, fields), micros, timezone(-offset if sign == "-" else offset))
    except ValueError as exc:
        raise ReportFormatError(f"invalid RFC 3339 timestamp: {value!r}") from exc


def is_text(value) -> bool:
    """Whether ``value`` is a str that encodes as UTF-8: a JSON escape such
    as ``\\ud800`` can give a str a lone surrogate, which does not."""
    try:
        return isinstance(value, str) and (value.isascii() or bool(value.encode("utf-8")))
    except UnicodeEncodeError:
        return False


# Each kind of JSON field ``typed`` accepts, with its test and name: a list
# holds strings, a float is any finite number, and a datetime an RFC 3339 time.
_KINDS = {
    str: (is_text, "a UTF-8 string"),
    list: (lambda v: isinstance(v, list) and all(map(is_text, v)), "a list of UTF-8 strings"),
    bool: (lambda v: type(v) is bool, "true or false"),
    int: (lambda v: type(v) is int, "an integer"),
    float: (lambda v: type(v) is int or type(v) is float and math.isfinite(v), "a finite number"),
    datetime: (is_text, "an RFC 3339 time"),
}


def typed(value, kind: type):
    """``value`` if it is of ``kind`` (a ``_KINDS`` type), or the datetime it
    names; anything else raises ValueError. It coerces nothing."""
    test, name = _KINDS[kind]
    if test(value):
        if kind is not datetime:
            return value
        with contextlib.suppress(ReportFormatError):
            return parse_rfc3339(value)
    raise ValueError(f"must be {name}")


def check_record(obj, kinds: dict[str, type], required: Collection[str],
                 error: type[CrolocError], where: str) -> dict:
    """The fields of JSON object ``obj`` that ``kinds`` names, checked by ``typed``.
    An absent or null one is left out, or if ``required`` raises ``error``, as a
    bad one does; messages begin with ``where``."""
    if not isinstance(obj, dict):
        raise error(f"{where}: expected a JSON object")
    fields = {}
    for key, kind in kinds.items():
        value = obj.get(key)
        if value is None:
            if key in required:
                raise error(f"{where}: required field {key!r} is missing or null")
            continue
        try:
            fields[key] = typed(value, kind)
        except ValueError as exc:
            raise error(f"{where}: {key} {exc}") from None
    return fields


# \s matches exactly the characters for which str.isspace() holds.
_WHITESPACE = re.compile(r"\s")


def check_token(value: str, what: str, error: type[CrolocError]) -> None:
    """Reject an empty ``value`` or one with whitespace: run and qrels files
    are whitespace-delimited."""
    if not value or _WHITESPACE.search(value):
        raise error(f"{what} {value!r} is empty or contains whitespace; "
                    "run and qrels files are whitespace-delimited")


def parse_json(text: str | bytes, error: type[CrolocError], where: str):
    """The JSON value ``text`` holds; text that is not JSON, or nests too
    deep to parse, raises ``error`` with ``where`` in front."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: not valid JSON: {exc}") from exc


def read_json_lines(path: str | Path, error: type[CrolocError]) -> Iterator[tuple[int, object]]:
    """(line number, value) of each nonblank line of a UTF-8 JSON Lines
    file, as ``parse_json`` reads it, with ``{path}:{lineno}`` as ``where``."""
    for lineno, line in read_lines(path, error):
        if line.strip():
            yield lineno, parse_json(line, error, f"{path}:{lineno}")


def load_source_tree(
    root: str | Path,
    include_patterns: list[str],
    permissive: bool = False,
) -> Corpus:
    """Load every file under `root` matching one of `include_patterns`.

    Languages follow the file extension: .java and .cs (other
    extensions are GENERIC). Ordering is deterministic: lexicographic by
    normalized relative path. A file that does not decode as UTF-8 is a fatal
    error unless `permissive` is set, in which case it is skipped and recorded.
    """
    root_path = Path(root)
    if not root_path.is_dir():
        raise CorpusError(f"source root does not exist or is not a directory: {root}")

    matched: set[str] = set()
    for pattern in include_patterns:
        try:
            matched.update(str(hit) for hit in root_path.glob(pattern) if hit.is_file())
        except (ValueError, NotImplementedError) as exc:  # "", "**a", "/abs"
            raise CorpusError(f"unusable --include pattern {pattern!r}: {exc}") from None

    # Each hit is the root, a separator and its path below the root, except
    # under a root of ".", whose hits are their paths below it.
    base = str(root_path)
    skip = 0 if base == "." else len(os.path.join(base, ""))
    documents = []
    skipped = []
    for rel, file_path in sorted((normalize_path(p[skip:]), p) for p in matched):
        try:
            with open(file_path, "rb") as fh:
                data = fh.read()
            data.decode("utf-8")  # only checked: the document keeps the bytes
        except UnicodeDecodeError as exc:
            if not permissive:
                raise CorpusError(f"file is not valid UTF-8: {rel} ({exc})") from exc
            log.warning("skipping non-UTF-8 file %s: %s", rel, exc)
            skipped.append((rel, str(exc)))
            continue
        except OSError as exc:
            raise CorpusError(f"cannot read {rel}: {exc}") from exc
        documents.append(SourceDocument(rel, _language(file_path), data))
    # Sorted by path, two documents with one path are neighbours.
    for a, b in pairwise(documents):
        if a.path == b.path:
            raise CorpusError(f"duplicate document path: {a.path}")
    return Corpus(documents=tuple(documents), skipped=tuple(skipped))


def _language(path: str) -> Language:
    """The language of the file at ``path`` by its extension, as
    ``Path.suffix`` takes it: from the last dot of the name, unless that
    starts or ends the name."""
    name = os.path.basename(path)
    dot = name.rfind(".")
    suffix = name[dot:].lower() if 0 < dot < len(name) - 1 else ""
    return _LANGUAGES.get(suffix, Language.GENERIC)


_REPORT_FIELDS = {"id": str, "summary": str, "description": str, "reported_at": datetime,
                  "resolved_at": datetime, "fixed_files": list, "functional": bool}
_REQUIRED_REPORT_FIELDS = ("id", "summary", "reported_at")


def _report_from_obj(obj, where: str) -> BugReport:
    fields = check_record(obj, _REPORT_FIELDS, _REQUIRED_REPORT_FIELDS, ReportFormatError, where)
    if "fixed_files" in fields:
        fields["fixed_files"] = tuple(fields["fixed_files"])
    report = BugReport(**{"description": "", **fields})
    check_token(report.id, f"{where}: report id", ReportFormatError)
    if not all(report.fixed_files or ()):
        raise ReportFormatError(f"{where}: fixed_files must not hold an empty path")
    if report.resolved_at is not None and report.resolved_at < report.reported_at:
        raise ReportFormatError(f"{where}: resolved_at precedes reported_at for report {report.id!r}")
    return report


def report_to_obj(report: BugReport) -> dict:
    """JSON-serializable form of a report, matching the JSONL input schema."""
    obj: dict = {
        "id": report.id,
        "summary": report.summary,
        "description": report.description,
        "reported_at": report.reported_at.isoformat(),
    }
    if report.resolved_at is not None:
        obj["resolved_at"] = report.resolved_at.isoformat()
    if report.fixed_files is not None:
        obj["fixed_files"] = list(report.fixed_files)
    obj["functional"] = report.functional
    return obj


def load_bug_reports(path: str | Path) -> list[BugReport]:
    """Read bug reports from a JSON Lines file, one object per line."""
    reports: dict[str, BugReport] = {}
    for lineno, obj in read_json_lines(path, ReportFormatError):
        report = _report_from_obj(obj, f"{path}:{lineno}")
        if report.id in reports:
            raise ReportFormatError(f"{path}:{lineno}: duplicate report id {report.id!r}")
        reports[report.id] = report
    return list(reports.values())


class ExcludedReport(NamedTuple):
    report: BugReport
    reason: str


def filter_usable_reports(
    reports: list[BugReport],
    corpus_paths: Collection[str],
) -> tuple[list[BugReport], list[ExcludedReport]]:
    """Split reports into evaluation-usable and excluded (with the failed criterion).

    Usable iff: the report is tagged functional, its fix is completed
    (resolved with nonempty fixed_files), and at least one fixed file is one
    of the normalized ``corpus_paths``.
    """
    usable: list[BugReport] = []
    excluded: list[ExcludedReport] = []
    for report in reports:
        if not report.functional:
            excluded.append(ExcludedReport(report, REASON_NOT_FUNCTIONAL))
            continue
        if report.resolved_at is None or not report.fixed_files:
            excluded.append(ExcludedReport(report, REASON_FIX_NOT_COMPLETED))
            continue
        if not any(f in corpus_paths for f in report.fixed_paths):
            excluded.append(ExcludedReport(report, REASON_NO_SOURCE_FILE))
            continue
        usable.append(report)
    return usable, excluded
