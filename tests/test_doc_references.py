"""Every module the docs name exists, and so does every name they cite.

A backticked ``path.py`` in README.md, DESIGN.md or ROADMAP.md must be
the path, or the tail of the path, of a file under ``src/``, ``tests/``,
``benchmarks/`` or ``examples/``; a backticked ``path.py::Name`` must
also name a top-level definition of that file, and ``path.py::Cls.name``
a definition in the body of class ``Cls``.  Run it alone with::

    PYTHONPATH=src python -m pytest tests/test_doc_references.py
"""

from __future__ import annotations

import ast
import re
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "ROADMAP.md")
TREES = ("src", "tests", "benchmarks", "examples")
REFERENCE = re.compile(r"`([\w./-]+\.py)(?:::([\w.]+))?`")

#: Template placeholders: "a new plane lives in repro/x/plane.py".
PLACEHOLDERS = {
    "repro/x/plane.py", "repro/exporters/x_exporter.py", "path.py", "path.py::Name",
}


@cache
def _files() -> list[str]:
    return [
        path.relative_to(ROOT).as_posix()
        for tree in TREES
        for path in (ROOT / tree).rglob("*.py")
    ]


def _references() -> list[tuple[str, str, str | None]]:
    found = []
    for doc in DOCS:
        for match in REFERENCE.finditer((ROOT / doc).read_text()):
            if match.group(0).strip("`") not in PLACEHOLDERS:
                found.append((doc, *match.groups()))
    return found


@cache
def _definitions(path: str) -> set[str]:
    """Top-level names and ``Class.member`` names defined in ``path``."""
    names: set[str] = set()

    def bound(stmt) -> list[str]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return [stmt.name]
        if isinstance(stmt, ast.Assign):
            return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            return [stmt.target.id]
        return []

    for stmt in ast.parse((ROOT / path).read_text()).body:
        names.update(bound(stmt))
        if isinstance(stmt, ast.ClassDef):
            names.update(f"{stmt.name}.{name}" for s in stmt.body for name in bound(s))
    return names


def _dangling(doc: str, path: str, name: str | None) -> str | None:
    files = [f for f in _files() if f == path or f.endswith("/" + path)]
    if not files:
        return f"{doc}: `{path}` is no file"
    if name is not None and not any(name in _definitions(f) for f in files):
        return f"{doc}: `{path}::{name}` is defined in none of {files}"
    return None


def test_every_cited_path_and_name_resolves():
    references = _references()
    assert len(references) > 100  # the pattern still finds the docs' citations
    dangling = [d for d in (_dangling(*ref) for ref in references) if d]
    assert dangling == []
