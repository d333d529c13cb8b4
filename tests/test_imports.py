"""Every imported name in src/, tests/ and demos/ is read somewhere."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests", "demos")
                 for path in (ROOT / top).rglob("*.py"))


def unused_imports(source):
    """Names a module imports and never reads.

    ``import a.b`` binds ``a``.  A module that assigns ``__all__``
    re-exports what it imports, so none of its imports count as unused.
    """
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name,
                                        node.lineno)
        elif isinstance(node, ast.Name):
            if node.id == "__all__" and isinstance(node.ctx, ast.Store):
                return []
            read.add(node.id)
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_sources_are_found():
    tops = {path.relative_to(ROOT).parts[0] for path in SOURCES}
    assert tops == {"src", "tests", "demos"}
    assert ROOT / "src" / "nkoszul" / "koszul.py" in SOURCES


def test_no_unused_imports():
    found = ["%s:%d: %s" % (path.relative_to(ROOT), line, name)
             for path in SOURCES
             for line, name in unused_imports(path.read_text())]
    assert found == []


def test_unused_import_scan_sees_each_form():
    source = ("import os\nimport a.b\nfrom x import y as z, w\n"
              "from __future__ import annotations\nprint(w, a.b)\n")
    assert unused_imports(source) == [(1, "os"), (3, "z")]
    assert unused_imports("import os\n__all__ = ['os']\n") == []
