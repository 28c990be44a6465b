"""Source tree and bug report loading, plus report usability filtering.

A corpus is an immutable snapshot of source files on disk; bug reports come
from a JSON Lines file (one object per report). Reports are filtered for
evaluation usability with the three criteria: functional bug, completed fix,
and at least one fixed source file present in the corpus.
"""
from __future__ import annotations

import json
import logging
from collections.abc import Collection
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

from .errors import CorpusError, ReportFormatError

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


@dataclass(frozen=True)
class SourceDocument:
    """One source file: repo-relative path, language, full text, stable id."""

    path: str
    language: Language
    raw_text: str
    doc_id: int
    byte_len: int = -1

    def __post_init__(self):
        if self.byte_len < 0:
            object.__setattr__(self, "byte_len", len(self.raw_text.encode("utf-8")))

    @property
    def raw_bytes(self) -> bytes:
        return self.raw_text.encode("utf-8")


@dataclass(frozen=True)
class BugReport:
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


@dataclass(frozen=True)
class Corpus:
    """Immutable set of source documents with contiguous doc_ids 0..n-1."""

    documents: tuple[SourceDocument, ...]
    root: str
    skipped: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        seen = set()
        for i, doc in enumerate(self.documents):
            if doc.doc_id != i:
                raise CorpusError(f"doc_ids must be contiguous; got {doc.doc_id} at position {i}")
            if doc.path in seen:
                raise CorpusError(f"duplicate document path: {doc.path}")
            seen.add(doc.path)

    def __len__(self) -> int:
        return len(self.documents)


def parse_rfc3339(value: str) -> datetime:
    """Parse an RFC 3339 timestamp; naive values are taken as UTC."""
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
    except ValueError as exc:
        raise ReportFormatError(f"invalid RFC 3339 timestamp: {value!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt


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

    matched: set[Path] = set()
    for pattern in include_patterns:
        for hit in root_path.glob(pattern):
            if hit.is_file():
                matched.add(hit)

    documents = []
    skipped = []
    for file_path in sorted(matched, key=lambda p: normalize_path(str(p.relative_to(root_path).as_posix()))):
        rel = normalize_path(file_path.relative_to(root_path).as_posix())
        try:
            raw = file_path.read_bytes()
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            if not permissive:
                raise CorpusError(f"file is not valid UTF-8: {rel} ({exc})") from exc
            log.warning("skipping non-UTF-8 file %s: %s", rel, exc)
            skipped.append((rel, str(exc)))
            continue
        except OSError as exc:
            raise CorpusError(f"cannot read {rel}: {exc}") from exc
        language = _LANGUAGES.get(file_path.suffix.lower(), Language.GENERIC)
        documents.append(
            SourceDocument(path=rel, language=language, raw_text=text, doc_id=len(documents))
        )
    return Corpus(documents=tuple(documents), root=str(root_path), skipped=tuple(skipped))


_REQUIRED_REPORT_FIELDS = ("id", "summary", "reported_at")


def _report_from_obj(obj: dict, line_no: int) -> BugReport:
    for key in _REQUIRED_REPORT_FIELDS:
        if key not in obj:
            raise ReportFormatError(f"line {line_no}: missing required field {key!r}")
    fixed_files = obj.get("fixed_files")
    if fixed_files is not None:
        if not isinstance(fixed_files, list) or any(not isinstance(f, str) or not f for f in fixed_files):
            raise ReportFormatError(f"line {line_no}: fixed_files must be a list of nonempty strings")
        fixed_files = tuple(fixed_files)
    reported_at = parse_rfc3339(str(obj["reported_at"]))
    resolved_raw = obj.get("resolved_at")
    resolved_at = parse_rfc3339(str(resolved_raw)) if resolved_raw is not None else None
    if resolved_at is not None and resolved_at < reported_at:
        raise ReportFormatError(f"line {line_no}: resolved_at precedes reported_at for report {obj['id']!r}")
    return BugReport(
        id=str(obj["id"]),
        summary=str(obj["summary"]),
        description=str(obj.get("description", "")),
        reported_at=reported_at,
        resolved_at=resolved_at,
        fixed_files=fixed_files,
        functional=bool(obj.get("functional", True)),
    )


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
    reports: list[BugReport] = []
    seen_ids: set[str] = set()
    file_path = Path(path)
    if not file_path.is_file():
        raise CorpusError(f"bug report file does not exist: {path}")
    with open(file_path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReportFormatError(f"line {line_no}: malformed JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise ReportFormatError(f"line {line_no}: expected a JSON object")
            report = _report_from_obj(obj, line_no)
            if report.id in seen_ids:
                raise ReportFormatError(f"line {line_no}: duplicate report id {report.id!r}")
            seen_ids.add(report.id)
            reports.append(report)
    return reports


@dataclass(frozen=True)
class ExcludedReport:
    report: BugReport
    reason: str


def filter_usable_reports(
    reports: list[BugReport],
    corpus_paths: Collection[str],
    source_extensions: set[str],
) -> tuple[list[BugReport], list[ExcludedReport]]:
    """Split reports into evaluation-usable and excluded (with the failed criterion).

    Usable iff: the report is tagged functional, its fix is completed
    (resolved with nonempty fixed_files), and at least one fixed file both
    has a source extension and is one of the normalized ``corpus_paths``.
    """
    extensions = {e.lower() for e in source_extensions}
    usable: list[BugReport] = []
    excluded: list[ExcludedReport] = []
    for report in reports:
        if not report.functional:
            excluded.append(ExcludedReport(report, REASON_NOT_FUNCTIONAL))
            continue
        if report.resolved_at is None or not report.fixed_files:
            excluded.append(ExcludedReport(report, REASON_FIX_NOT_COMPLETED))
            continue
        fixed = [normalize_path(f) for f in report.fixed_files]
        if not any(Path(f).suffix.lower() in extensions and f in corpus_paths for f in fixed):
            excluded.append(ExcludedReport(report, REASON_NO_SOURCE_FILE))
            continue
        usable.append(report)
    return usable, excluded
