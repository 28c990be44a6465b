"""Seeded generator of a bilingual Java/C# project for the pipeline benchmark.

The material comes from ``tests/fixtures``: the glossary's Japanese phrases,
the Japanese sentences of the fixture reports and sources, the bodies of the
fixture Java classes and of the well-formed C# files of the lexer corpus.
Around that material the generator adds seeded pseudo-word identifiers, so the
vocabulary grows with the number of files the way a real project's does.

Each report names identifiers of the file its fix touched, at one of four
levels of specificity, so MAP sits well above chance and a ranking fault shows
as a drop. A share of the files are byte-identical copies under another path,
which makes true score ties. A few reports fail each usability criterion.
"""
from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

ONSETS = ("b c d f g h j k l m n p r s t v w z ch sh th tr pl kr st gr br "
          "dr fl").split()
VOWELS = "a e i o u ai ou ea io".split()
CODAS = ("", "", "", "n", "r", "s", "x", "l", "t", "m", "k")
VERBS = ("get set load save update compute find apply resolve render parse "
         "sync validate build flush merge reset open close scan emit fetch "
         "store clear check").split()
TYPES = ("int", "long", "String", "boolean", "double", "List<String>")
PARTICLES = ("の", "を", "が", "で", "に", "と", "は")
ENDINGS = ("する", "します", "した", "できない", "しない", "中", "時", "後", "")
JAPANESE = re.compile(r"[぀-ヿ㐀-䶿一-鿿ｦ-ﾝ]")

START = datetime(2021, 1, 4, 9, 0, tzinfo=timezone(timedelta(hours=9)))


CS_SHARE = 0.15  # share of .cs files among the originals
DUP_SHARE = 0.05  # share of files that copy another file byte for byte
REPORT_GAP_H = 24.0  # hours between reports; fixes take 1 to 10 days


@dataclass(frozen=True)
class Shape:
    """Sizes of one generated project."""

    files: int
    reports: int


@dataclass(frozen=True)
class Project:
    """Paths of the generated inputs plus what the generator knows of them."""

    root: Path
    tree: Path
    reports: Path
    glossary: Path
    commit_log: Path
    n_files: int
    usable_ids: tuple[str, ...]
    digests: dict


@dataclass(frozen=True)
class Material:
    glossary_text: str
    phrases: tuple[str, ...]
    sentences: tuple[str, ...]
    java_bodies: tuple[tuple[str, str], ...]
    cs_bodies: tuple[str, ...]


def _sentences(text: str) -> list[str]:
    found = re.findall(r"//\s*(.+)", text) + re.findall(r"/\*\s*(.+?)\s*\*/", text, re.S)
    found += re.findall(r'"([^"\\\n]+)"', text)
    return [s.strip() for s in found if JAPANESE.search(s) and "*/" not in s]


def load_material(fixtures: Path) -> Material:
    """Read the fixture files the generator draws from."""
    project = fixtures / "synthetic_project"
    glossary_text = (project / "glossary.tsv").read_text("utf-8")
    phrases = tuple(line.split("\t")[0] for line in glossary_text.splitlines()
                    if line.strip() and not line.startswith("#"))
    sentences: list[str] = []
    for line in (project / "reports.jsonl").read_text("utf-8").splitlines():
        if line.strip():
            obj = json.loads(line)
            sentences += [obj["summary"], obj.get("description", "")]
    java_bodies = []
    for path in sorted((project / "src").rglob("*.java")):
        text = path.read_text("utf-8")
        sentences += _sentences(text)
        lines = text.splitlines()
        at = next(i for i, l in enumerate(lines) if " class " in f" {l}")
        header = "\n".join(l for l in lines[:at] if l.startswith("//"))
        java_bodies.append((header, "\n".join(lines[at + 1:-1])))
    cs_bodies = []
    for path in sorted((fixtures / "lexer_corpus").glob("*.cs")):
        if "Unterminated" in path.name:
            continue
        text = path.read_text("utf-8")
        sentences += _sentences(text)
        lines = text.rstrip("\n").splitlines()
        at = next(i for i, l in enumerate(lines) if l.lstrip().startswith("class "))
        cs_bodies.append("\n".join(lines[at + 1:-2]))
    for path in sorted((fixtures / "lexer_corpus").glob("*.java")):
        sentences += _sentences(path.read_text("utf-8"))
    if not phrases or not java_bodies or not cs_bodies:
        raise FileNotFoundError(f"fixture material missing under {fixtures}")
    return Material(glossary_text, phrases, tuple(s for s in sentences if s),
                     tuple(java_bodies), tuple(cs_bodies))


def _cap(word: str) -> str:
    return word[:1].upper() + word[1:]


class _Words:
    """Distinct seeded pseudo-words."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set[str] = set()

    def new(self) -> str:
        rng = self.rng
        while True:
            word = "".join(rng.choice(ONSETS) + rng.choice(VOWELS)
                           for _ in range(rng.randint(2, 3))) + rng.choice(CODAS)
            if word not in self.seen:
                self.seen.add(word)
                return word


@dataclass
class _File:
    path: str
    cls: str
    methods: list[str]
    fields: list[str]
    topic_jp: list[str]
    module: str
    text: str = ""


def _jp(rng: random.Random, topic: list[str], mat: Material) -> str:
    parts = [rng.choice(topic) if rng.random() < 0.7 else rng.choice(mat.phrases)
             for _ in range(rng.randint(2, 3))]
    out = parts[0]
    for part in parts[1:]:
        out += rng.choice(PARTICLES) + part
    return out + rng.choice(ENDINGS)


def _java(f: _File, rng: random.Random, mat: Material) -> str:
    header, body = rng.choice(mat.java_bodies)
    out = [f"package {f.module};", "", "import java.util.List;", "", header,
           f"// {_jp(rng, f.topic_jp, mat)}", f"public class {f.cls} {{", body]
    for name in f.fields:
        out.append(f"    private {rng.choice(TYPES)} {name};")
    for name in f.methods:
        arg = rng.choice(f.fields)
        out += [
            "",
            f"    /* {rng.choice(mat.sentences)} */",
            f"    public String {name}(int {arg}Count) {{",
            f'        return "{_jp(rng, f.topic_jp, mat)}: " + {arg}Count;',
            "    }",
        ]
    out.append("}")
    return "\n".join(out) + "\n"


def _csharp(f: _File, rng: random.Random, mat: Material) -> str:
    out = [f"namespace {_cap(f.module)} {{",
           f"    // {_jp(rng, f.topic_jp, mat)}",
           f"    class {f.cls} {{", rng.choice(mat.cs_bodies)]
    for name in f.fields:
        out.append(f'        string {name} = @"{_jp(rng, f.topic_jp, mat)} ""{name}""";')
    for name in f.methods:
        arg = rng.choice(f.fields)
        out += [
            "",
            f"        /// {_jp(rng, f.topic_jp, mat)}",
            f"        public string {_cap(name)}(int {arg}Count) {{",
            f'            return $"{_jp(rng, f.topic_jp, mat)} {{{arg}Count}} {{{{{name}}}}}";',
            "        }",
        ]
    out += ["    }", "}"]
    return "\n".join(out) + "\n"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digest(tree: Path) -> str:
    """sha256 over every file's relative path and content digest, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in tree.rglob("*") if p.is_file()):
        h.update(path.relative_to(tree).as_posix().encode() + b"\0")
        h.update(_sha256(path.read_bytes()).encode() + b"\n")
    return h.hexdigest()


def generate(out: Path, mat: Material, shape: Shape, seed: str) -> Project:
    """Write a project under ``out`` (which must not exist) from ``seed``."""
    rng = random.Random(f"perfbench:{seed}")
    words = _Words(rng)
    pool = [words.new() for _ in range(max(50, shape.files * 2))]
    modules = [words.new() for _ in range(max(4, int(shape.files ** 0.5) // 2))]
    # Skewed pool draws: a few words are shared widely, most by a handful.
    weights = [1.0 / (i + 1) ** 0.7 for i in range(len(pool))]

    files: list[_File] = []
    n_orig = shape.files - int(shape.files * DUP_SHARE)
    for _ in range(n_orig):
        topic = rng.choices(pool, weights, k=4)
        own = [words.new(), words.new()]
        module = rng.choice(modules)
        cls = _cap(own[0]) + _cap(topic[0])
        methods = [rng.choice(VERBS) + _cap(rng.choice(topic + own))
                   + (_cap(rng.choice(pool)) if rng.random() < 0.5 else "")
                   for _ in range(rng.randint(2, 5))]
        fields = [rng.choice(topic + own) + _cap(rng.choice(pool)) for _ in range(3)]
        ext = ".cs" if rng.random() < CS_SHARE else ".java"
        f = _File(f"src/{module}/{cls}{ext}", cls, list(dict.fromkeys(methods)),
                  fields, rng.sample(mat.phrases, 3), module)
        f.text = (_csharp if ext == ".cs" else _java)(f, rng, mat)
        files.append(f)
    originals = list(files)
    for i in range(shape.files - n_orig):
        src = rng.choice(originals)
        stem, ext = src.path.rsplit(".", 1)
        files.append(_File(f"{stem}V{i}.{ext}", src.cls, src.methods, src.fields,
                           src.topic_jp, src.module, src.text))

    out.mkdir(parents=True)
    tree = out / "tree"
    for f in files:
        dest = tree / f.path
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(f.text, encoding="utf-8")
    glossary = out / "glossary.tsv"
    glossary.write_text(mat.glossary_text, encoding="utf-8")

    # Fixes concentrate on a hot subset, so history repeats files.
    hot = [1.0 / (i + 1) ** 0.5 for i in range(len(originals))]
    reports, commits, usable = [], [], []
    for r in range(shape.reports):
        rid = f"P-{r:05d}"
        fixed = rng.choices(originals, hot, k=1)
        if rng.random() < 0.15:
            fixed.append(rng.choice(originals))
        target = fixed[0]
        specific = [target.cls] + target.methods
        rng.shuffle(specific)
        named = specific[:(3, 2, 1, 0)[r % 4]]
        noise = [rng.choice(rng.choice(originals).methods) for _ in range(2)]
        reported = START + timedelta(hours=r * REPORT_GAP_H + rng.uniform(0, 6))
        obj = {
            "id": rid,
            "summary": _jp(rng, target.topic_jp, mat) + (f" {named[0]}" if named else ""),
            "description": " ".join([rng.choice(mat.sentences), _jp(rng, target.topic_jp, mat)]
                                    + named[1:] + noise),
            "reported_at": reported.isoformat(),
            "resolved_at": (reported + timedelta(hours=rng.uniform(24, 240))).isoformat(),
            "fixed_files": list(dict.fromkeys(f.path for f in fixed)),
        }
        kind = r % 50
        if kind == 7:
            obj["functional"] = False
        elif kind == 19:
            del obj["resolved_at"], obj["fixed_files"]
        elif kind == 31:
            obj["fixed_files"] = [f"docs/{target.cls}.md", f"src/removed/{target.cls}.java"]
        else:
            usable.append(rid)
        reports.append(obj)
        if "fixed_files" in obj and rng.random() < 0.2:
            commits.append({"hash": _sha256(rid.encode())[:7],
                            "message": f"{rid}: fix {target.cls}",
                            "changed_files": obj["fixed_files"] + [rng.choice(originals).path]})
    reports_path = out / "reports.jsonl"
    reports_path.write_text("".join(json.dumps(o, ensure_ascii=False) + "\n" for o in reports),
                            encoding="utf-8")
    commit_log = out / "commit_log.jsonl"
    commit_log.write_text("".join(json.dumps(c) + "\n" for c in commits), encoding="utf-8")

    digests = {
        "tree": tree_digest(tree),
        "reports": _sha256(reports_path.read_bytes()),
        "glossary": _sha256(glossary.read_bytes()),
        "commit_log": _sha256(commit_log.read_bytes()),
    }
    return Project(out, tree, reports_path, glossary, commit_log, len(files),
                   tuple(usable), digests)
