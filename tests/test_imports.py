"""Every imported name is used, checked with the standard library's ``ast``.

Covers the sources under ``src/`` and the tests.  A name listed in a
module's ``__all__`` counts as used (it is re-exported), and
``from __future__`` imports are exempt.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every imported name the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    files = [p for top in ("src", "tests") for p in sorted((ROOT / top).rglob("*.py"))]
    assert files
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files
        for line, name in unused_imports(path.read_text())
    ]
    assert unused == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path, sys\n"
        "from typing import Optional as Opt, Mapping\n"
        "__all__ = ['Mapping']\n"
        "def f(x: 'Opt') -> None:\n"
        "    print(os.sep)\n"
    )
    assert unused_imports(source) == [(2, "sys"), (3, "Opt")]
