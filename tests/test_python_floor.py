"""The package promises the Python of pyproject.toml's requires-python: every
source file, test and demo must parse in that version's grammar."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent

# standard-library names added after 3.10 that a 3.10 parser still accepts:
# using one fails only when the line runs (math.cbrt did, in a test constant)
NEWER_ATTRIBUTES = {("math", "cbrt"), ("math", "exp2"), ("typing", "Self"), ("datetime", "UTC"), ("enum", "StrEnum")}
NEWER_MODULES = {"tomllib", "wsgiref.types"}


def test_every_file_parses_as_the_oldest_supported_python():
    pyproject = (ROOT / "pyproject.toml").read_text()
    major, minor = map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups())
    assert (major, minor) == (3, 10)
    files = sorted(path for top in ("src", "tests", "demos") for path in (ROOT / top).rglob("*.py"))
    assert len(files) > 20
    bad = []
    for path in files:
        where = path.relative_to(ROOT)
        try:
            tree = ast.parse(path.read_text(), filename=str(path), feature_version=(major, minor))
        except SyntaxError as err:
            bad.append(f"{where}:{err.lineno}: {err.msg}")
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if (node.value.id, node.attr) in NEWER_ATTRIBUTES:
                    bad.append(f"{where}:{node.lineno}: {node.value.id}.{node.attr}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module]
                bad += [f"{where}:{node.lineno}: import {name}" for name in names if name in NEWER_MODULES]
    assert not bad, bad
