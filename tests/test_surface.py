"""Guards against library surface that nothing in the package uses."""

import ast
import re
from pathlib import Path

import muskat

SRC = Path(__file__).resolve().parents[1] / "src" / "muskat"


def test_every_public_name_has_a_caller_in_the_package():
    # a caller is a word-boundary reference outside the definition and __init__.py
    texts = {p.name: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    uncalled = []
    for name, text in texts.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            rest = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            others = [t for n, t in texts.items() if n != name] + [rest]
            if not any(re.search(rf"\b{node.name}\b", t) for t in others):
                uncalled.append(f"{name}:{node.name}")
    assert uncalled == []


def test_every_exported_name_is_bound():
    assert [name for name in muskat.__all__ if not hasattr(muskat, name)] == []
