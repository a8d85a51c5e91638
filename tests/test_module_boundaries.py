"""The package's modules use one another through public names only: no
module imports an underscore name from another.  They import one another
relatively, so a copy of the package under another name loads its own
modules."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "anisoflow"


def private_imports(source, filename):
    """'<file>:<line>: <name>' for each underscore name (not a dunder) that
    source imports from the package, relatively or by its absolute name."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "anisoflow"):
            names = [alias.name for alias in node.names]
            found += [f"{filename}:{node.lineno}: {name}" for name in names if name.startswith("_") and not name.startswith("__")]
    return found


def test_the_check_sees_a_private_import():
    source = "from .textform import ConfigError, _take\nfrom anisoflow.cli import _read_config\nfrom . import __version__\n"
    assert private_imports(source, "x.py") == ["x.py:1: _take", "x.py:2: _read_config"]


def test_no_module_imports_another_modules_private_name():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 5
    assert [found for path in files for found in private_imports(path.read_text(), path.name)] == []


def absolute_self_imports(source, filename):
    """'<file>:<line>: <module>' for each import of the package by its
    absolute name."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module or ""]
        else:
            continue
        found += [f"{filename}:{node.lineno}: {module}" for module in modules if module.split(".")[0] == "anisoflow"]
    return found


def test_the_check_sees_an_absolute_self_import():
    source = (
        "import numpy as np\nimport anisoflow.symfunc as sf\nfrom anisoflow import verify\n"
        "from . import symfunc\nimport anisoflowx\nimport os, anisoflow\n"
    )
    assert absolute_self_imports(source, "x.py") == [
        "x.py:2: anisoflow.symfunc", "x.py:3: anisoflow", "x.py:6: anisoflow",
    ]


def test_no_module_imports_the_package_by_its_absolute_name():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 5
    assert [found for path in files for found in absolute_self_imports(path.read_text(), path.name)] == []
