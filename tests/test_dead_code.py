"""No orphaned code in src/efxcheck.

Every module-level function or class must be read by other code of the
package, outside its own definition, or be a public name in
efxcheck.__all__.  A helper left behind when its last reader goes fails
here.  Reads are collected by name from the syntax tree: a bare name, an
attribute, or an imported name that the importing module then reads
under its bound name.  An import that nothing reads does not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

import efxcheck

SOURCE = Path(efxcheck.__file__).resolve().parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _loaded_names(node: ast.AST) -> set[str]:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def _reads(tree: ast.Module) -> set[str]:
    """Names the module reads, each top-level definition's own name left
    out of its own body, plus the names it imports and reads."""
    read = set()
    for top in tree.body:
        loaded = _loaded_names(top)
        if isinstance(top, DEFINITIONS):
            loaded.discard(top.name)
        read |= loaded
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if (alias.asname or alias.name) in read
    }
    return read | imported


def test_every_definition_is_read_or_public():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SOURCE.glob("*.py"))}
    read = set().union(*map(_reads, trees.values()))
    orphans = [
        f"{module}.{top.name}"
        for module, tree in trees.items()
        for top in tree.body
        if isinstance(top, DEFINITIONS) and top.name not in read and top.name not in efxcheck.__all__
    ]
    assert orphans == []


def test_the_scan_finds_an_orphan():
    tree = ast.parse(
        "from .core import lane_max, lane_table as table\n"
        "def kept(): return table(lane_max)\n"
        "def recursive(): return recursive()\n"
        "def unread(): return kept()\n"
    )
    read = _reads(tree)
    assert {"kept", "lane_max", "lane_table"} <= read
    assert "recursive" not in read and "unread" not in read
