"""Every imported name and every definition is used, checked with the
standard library's ``ast``.

Imports: covers the sources under ``src/`` and the tests.  A name listed
in a module's ``__all__`` counts as used (it is re-exported), and
``from __future__`` imports are exempt.

Definitions: every module-level function and class in ``src/stackext``
is used somewhere in ``src/``, ``tests/`` or ``perfbench/`` outside its
own definition, as a name, an attribute, an import or an ``__all__``
entry.  Functions a ``click`` ``command`` decorator registers are exempt.

Loading: a fresh ``import stackext`` does not load ``multiprocessing``.
"""

import ast
import os
import pathlib
import subprocess
import sys

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


def _uses(node: ast.AST) -> set[str]:
    # names, attributes, imported names and __all__ entries under node
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in sub.targets
        ):
            out.update(ast.literal_eval(sub.value))
    return out


def _is_command(node: ast.FunctionDef | ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr == "command"
        for d in node.decorator_list
    )


def dead_definitions(sources: dict[str, str], checked) -> list[str]:
    """``path:line: name`` of every module-level function or class in the
    ``checked`` paths that no source in ``sources`` uses outside its own
    definition."""
    defs = []
    used = set()
    for path, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                used |= _uses(node) - {node.name}
                if path in checked and not _is_command(node):
                    defs.append((path, node.lineno, node.name))
            else:
                used |= _uses(node)
    return [f"{path}:{line}: {name}" for path, line, name in defs if name not in used]


def test_no_dead_definitions():
    demo = {
        "m.py": (
            "def fact(n):\n"
            "    return 1 if n < 2 else n * fact(n - 1)\n"
            "class Used: pass\n"
            "@main.command('go')\n"
            "def cmd_go(): pass\n"
        ),
        "t.py": "from m import Used\n",
    }
    assert dead_definitions(demo, {"m.py"}) == ["m.py:1: fact"]
    sources = {
        str(p.relative_to(ROOT)): p.read_text()
        for top in ("src", "tests", "perfbench")
        for p in sorted((ROOT / top).rglob("*.py"))
    }
    checked = {p for p in sources if p.startswith("src/stackext/")}
    assert checked
    assert dead_definitions(sources, checked) == []


def test_import_loads_no_multiprocessing():
    # every CLI start and every benchmark set-up pays for what the import loads
    code = "import sys, stackext; print('multiprocessing' in sys.modules)"
    path = os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.strip() == "False"
