"""arquiver has no runtime dependency: each of its modules imports only the
standard library and, by relative imports, the package itself."""

import ast
import sys
from pathlib import Path

import arquiver

SOURCES = sorted(Path(arquiver.__file__).resolve().parent.glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    assert {path.name for path in SOURCES} >= {"__init__.py", "cli.py", "qaffine.py"}
    outside = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in _absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
