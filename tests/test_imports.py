"""Every name a module of the package imports is read somewhere in it.

No linter runs on the suite, so an import left behind by a deletion would
otherwise go unseen.  ``__init__.py`` is left out: its imports are the
package's exports.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "longtail_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            yield node.returns
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
                yield arg and arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read(tree: ast.Module) -> set[str]:
    """Every name the module reads, those inside string annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= read(ast.parse(node.value, mode="eval"))
    return names


def test_the_check_sees_a_string_annotation():
    tree = ast.parse("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n"
                     "    from .heads import GroupLayout\n"
                     "def f(x: 'list[Dataset]') -> 'GroupLayout': pass\n")
    assert set(imported(tree)) - read(tree) == set()
    assert set(imported(ast.parse("import os.path\nfrom a import b as c\n"))) == {"os", "c"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = read(tree)
    unread = {name: line for name, line in imported(tree).items() if name not in names}
    assert not unread, f"{path.name} imports names it never reads: " + ", ".join(
        f"{name} (line {line})" for name, line in sorted(unread.items()))
