"""Nothing in the sources is bound and never read.

Every imported name and every local variable in src/, tests/ and demos/
is read where it is bound, and so is every name the README's library
block imports.  Every function, class and method defined in src/ is read
somewhere in src/, demos/, bench/ or the README's library block (a
method as an attribute); an export from the package counts as no read,
so code that only tests call lives in tests/.  Every attribute a class
in src/ stores is read somewhere in src/, demos/, bench/ or tests/.  The
library imports only the standard library and itself.
"""

import ast
import sys
from pathlib import Path

from test_demos import readme_library_block

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests", "demos")
                 for path in (ROOT / top).rglob("*.py"))
LIBRARY = ROOT / "src" / "nkoszul"
READERS = sorted(path for top in ("src", "demos", "bench")
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
    found += ["README.md library block:%d: %s" % (line, name)
              for line, name in unused_imports(readme_library_block())]
    assert found == []


def test_unused_import_scan_sees_each_form():
    source = ("import os\nimport a.b\nfrom x import y as z, w\n"
              "from __future__ import annotations\nprint(w, a.b)\n")
    assert unused_imports(source) == [(1, "os"), (3, "z")]
    assert unused_imports("import os\n__all__ = ['os']\n") == []


def foreign_imports(source):
    """(line, module) for each import that is neither the standard
    library nor the package itself; a relative import is the package's."""
    tree = ast.parse(source)
    found = [(node.lineno, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names]
    found += [(node.lineno, node.module) for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    return sorted((line, module) for line, module in found
                  if module.split(".")[0] not in sys.stdlib_module_names
                  and module.split(".")[0] != "nkoszul")


def test_library_imports_only_stdlib_and_itself():
    # pyproject.toml declares no run-time dependencies, while the test
    # environment has numpy and tests/ at hand, so a foreign import would
    # pass every run-time test; this also sees an import inside a function
    # that no demo or CLI test reaches
    found = ["%s:%d: %s" % (path.relative_to(ROOT), line, module)
             for path in sorted(LIBRARY.rglob("*.py"))
             for line, module in foreign_imports(path.read_text())]
    assert found == []


def test_foreign_import_scan_sees_each_form():
    source = ("import os.path\nimport oracles\nfrom . import cli\n"
              "from .koszul import tor_dims\nfrom nkoszul.fields import QQ\n"
              "from test_demos import readme_library_block\n"
              "def f():\n    import numpy as np\n")
    assert foreign_imports(source) == [(2, "oracles"), (6, "test_demos"),
                                       (8, "numpy")]


def unused_locals(source):
    """Names a function assigns and never reads, as (line, name).

    Tuple targets count name by name.  A read in a nested function counts
    (a closure), names declared global or nonlocal are not locals, and
    names starting with "_" are exempt.
    """
    out = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store)}
        stored = {}
        todo = list(ast.iter_child_nodes(func))
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.AugAssign):
                read.update(n.id for n in ast.walk(node.target)
                            if isinstance(n, ast.Name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Store):
                stored.setdefault(node.id, node.lineno)
            # a nested function or class binds its own names
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda, ast.ClassDef)):
                todo.extend(ast.iter_child_nodes(node))
        out += [(line, name) for name, line in stored.items()
                if name not in read and not name.startswith("_")]
    return sorted(out)


def test_no_unused_locals():
    found = ["%s:%d: %s" % (path.relative_to(ROOT), line, name)
             for path in SOURCES
             for line, name in unused_locals(path.read_text())]
    assert found == []


def test_unused_local_scan_sees_each_form():
    source = ("def f(seq):\n"
              "    a, (b, c) = seq\n"
              "    total, _skip = 0, 1\n"
              "    total += 1\n"
              "    d = e = 2\n"
              "    def g():\n"
              "        h = 3\n"
              "        return c + d\n"
              "    return [x for x in seq if (y := x)], g\n")
    assert unused_locals(source) == [(2, "a"), (2, "b"), (5, "e"),
                                     (7, "h"), (9, "y")]
    assert unused_locals("def f():\n    global n\n    n = 1\n") == []


def definitions(source):
    """(line, name, is a method) for each function, class and method; a
    method is a ``def`` directly in a class body.

    Dunder methods are left out: Python itself calls them.
    """
    tree = ast.parse(source)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = {node for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, functions)}
    return sorted((node.lineno, node.name, node in methods)
                  for node in ast.walk(tree)
                  if isinstance(node, (*functions, ast.ClassDef))
                  and not (node.name.startswith("__")
                           and node.name.endswith("__")))


def names_read(source):
    """Every name a module reads, as a variable or as an attribute.

    A string constant that spells an identifier counts too, because
    getattr reads by string: bench/spans.py names the methods it wraps.
    """
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and not isinstance(node.ctx, ast.Store)):
            out.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out.add(node.value)
    return out


def unread_definitions(source, read, attributes):
    """(line, name) of each definition in source whose name is not read.

    read is every name read (``names_read``), attributes only the
    attribute reads and identifier strings (``attributes_read``).  A
    method counts as read only through attributes, since a bare name of
    its spelling is another binding.
    """
    return [(line, name) for line, name, method in definitions(source)
            if name not in (attributes if method else read)]


def test_no_dead_definitions():
    readers = [path.read_text() for path in READERS]
    readers.append(readme_library_block())
    read = set().union(*map(names_read, readers))
    attributes = set().union(*map(attributes_read, readers))
    found = ["%s:%d: %s" % (path.relative_to(ROOT), line, name)
             for path in sorted(LIBRARY.rglob("*.py"))
             for line, name in unread_definitions(path.read_text(), read,
                                                  attributes)]
    assert found == []


def test_dead_definition_scan_sees_each_form():
    source = ("class A:\n"
              "    def __init__(self):\n"
              "        self.used()\n"
              "    def used(self):\n"
              "        return getattr(self, 'named')\n"
              "    def named(self):\n"
              "        pass\n"
              "    def api(self):\n"
              "        pass\n"
              "def api():\n"
              "    def inner():\n"
              "        pass\n")
    read, attributes = names_read(source), attributes_read(source)
    assert unread_definitions(source, read, attributes) == [
        (1, "A"), (8, "api"), (10, "api"), (11, "inner")]
    # the package's import of a name reads nothing; a README-style block
    # that calls it does, and a method of that name stays unread
    export = "from .module import A, api\n"
    readme = "from nkoszul import A, api\nprint(A(), api())\n"
    assert unread_definitions(source, read | names_read(export),
                              attributes | attributes_read(export)) == [
        (1, "A"), (8, "api"), (10, "api"), (11, "inner")]
    assert unread_definitions(source, read | names_read(readme),
                              attributes | attributes_read(readme)) == [
        (8, "api"), (11, "inner")]
    assert "used" in names_read("x.used()\n")
    assert "used" not in names_read("x.used = 1\n")
    # a local of a method's name does not read the method, while a bare
    # name reads a module-level or nested function
    source = ("class B:\n"
              "    def sub(self, a):\n"
              "        sub = a\n"
              "        return sub\n"
              "def outer():\n"
              "    def inner():\n"
              "        pass\n"
              "    return inner\n"
              "outer()\n")
    assert unread_definitions(source, names_read(source),
                              attributes_read(source)) == [(1, "B"), (2, "sub")]


def _slot_lists(tree):
    """The ``__slots__ = (...)`` assignments under an ast node."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(target, ast.Name) and target.id == "__slots__"
                    for target in node.targets)]


def stored_attributes(source):
    """(line, class, name) for each attribute a class stores on ``self``
    or lists in its ``__slots__``, at the first line that names it."""
    first = {}
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        found = [(node.lineno, node.attr) for node in ast.walk(cls)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Store)
                 and isinstance(node.value, ast.Name)
                 and node.value.id == "self"]
        found += [(node.lineno, node.value)
                  for slots in _slot_lists(cls)
                  for node in ast.walk(slots.value)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, str)]
        for line, name in found:
            key = (cls.name, name)
            first[key] = min(line, first.get(key, line))
    return sorted((line, cls, name) for (cls, name), line in first.items())


def attributes_read(source):
    """Every name a module reads as an attribute or spells as a string.

    getattr reads by string, so an identifier string counts, except the
    strings of a ``__slots__`` list: they declare names, not read them.
    """
    tree = ast.parse(source)
    declared = {id(node) for slots in _slot_lists(tree)
                for node in ast.walk(slots.value)}
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and not isinstance(node.ctx, ast.Store)):
            out.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in declared):
            out.add(node.value)
    return out


def test_no_unread_attributes():
    """Each stored attribute has a reader.

    Tests count as readers: only they read exception fields such as
    ``DefinitionError.line``.  Like the dead-definition scan this matches
    names only, so a read of the same name on any other object, in any
    file, hides an unread attribute.
    """
    read = set().union(*(attributes_read(path.read_text())
                         for path in READERS + SOURCES))
    found = ["%s:%d: %s.%s" % (path.relative_to(ROOT), line, cls, name)
             for path in sorted(LIBRARY.rglob("*.py"))
             for line, cls, name in stored_attributes(path.read_text())
             if name not in read]
    assert found == []


def test_unread_attribute_scan_sees_each_form():
    source = ("class A:\n"
              "    __slots__ = ('slot', 'spare')\n"
              "    def __init__(self, seq):\n"
              "        self.plain = 1\n"
              "        self.pair, self.other = seq\n"
              "        self.count += 1\n"
              "        self.plain.strip()\n"
              "        getattr(self, 'pair')\n"
              "        other.slot = 2\n")
    assert stored_attributes(source) == [
        (2, "A", "slot"), (2, "A", "spare"), (4, "A", "plain"),
        (5, "A", "other"), (5, "A", "pair"), (6, "A", "count")]
    read = attributes_read(source)
    # a store is no read, and neither is a slot's own declaration
    assert read == {"strip", "plain", "pair"}
