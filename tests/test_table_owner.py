"""Gamma_Q's pair, reading and oracle tables have one owner: no module but
``orders`` reads or writes them, and ``ar_quiver`` only declares them in
``ARQuiver.__init__``."""

import ast

from test_stdlib_only import SOURCES

TABLES = {"pairs_cache", "readings_cache", "oracle"}


def _mentions(tree):
    """Every attribute, or string (as getattr reads one), that names a table."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in TABLES:
            yield node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in TABLES:
            yield node


def _declarations(tree):
    """The ``self.<name>: ... = ...`` targets of ``ARQuiver.__init__``."""
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ARQuiver"]
    (init,) = [node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    return [
        stmt.target for stmt in init.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Attribute)
        and isinstance(stmt.target.value, ast.Name) and stmt.target.value.id == "self"
    ]


def test_only_orders_touches_the_tables_and_ar_quiver_declares_them():
    assert {path.name for path in SOURCES} >= {"ar_quiver.py", "orders.py", "qaffine.py", "verify.py"}
    outside, declared = [], []
    for path in SOURCES:
        if path.name == "orders.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        allowed = []
        if path.name == "ar_quiver.py":
            allowed = declared = [target for target in _declarations(tree) if target.attr in TABLES]
        outside += [
            f"{path.name}:{node.lineno}"
            for node in _mentions(tree)
            if not any(node is target for target in allowed)
        ]
    assert outside == []
    assert sorted(target.attr for target in declared) == sorted(TABLES)
