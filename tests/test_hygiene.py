"""Source hygiene: no module imports a name it never uses, and no private
helper of the package is left unread.

No linter ships with the package, so this scans every module of
``src/hsfinite`` and ``tests`` with ``ast``.  A name counts as used when it
is read anywhere in the module, including inside a quoted annotation.  The
package ``__init__`` is skipped, since its imports are the public
re-exports.  A module-level private name (``_...``) of ``src/hsfinite``
must be read somewhere in the package outside its own definition; reads
from tests do not count, so a helper that only tests call is dead code.
"""

import ast
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "hsfinite")
TESTS = os.path.join(ROOT, "tests")


def modules():
    for directory in (PACKAGE, TESTS):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py") and not (directory == PACKAGE and name == "__init__.py"):
                yield os.path.relpath(os.path.join(directory, name), ROOT)


def imported_names(tree):
    """{bound name: line} of every import except ``__future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return used


def package_trees():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
                yield name, ast.parse(handle.read(), filename=name)


def defined_names(statement):
    """The names a module-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = getattr(statement, "targets", None) or [getattr(statement, "target", None)]
    return {node.id for target in targets if target is not None
            for node in ast.walk(target) if isinstance(node, ast.Name)}


def test_every_private_helper_is_read():
    defined = {}
    read = set()
    for name, tree in package_trees():
        for statement in tree.body:
            own = defined_names(statement)
            defined.update((n, "%s:%d" % (name, statement.lineno)) for n in own
                           if n.startswith("_") and not n.startswith("__"))
            read.update(node.id for node in ast.walk(statement)
                        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        and node.id not in own)
    dead = sorted("%s (%s)" % (n, where) for n, where in defined.items() if n not in read)
    assert not dead, "private names nothing in the package reads: %s" % ", ".join(dead)


@pytest.mark.parametrize("path", list(modules()))
def test_every_import_is_used(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    used = used_names(tree)
    unused = sorted("%s (line %d)" % (name, line)
                    for name, line in imported_names(tree).items() if name not in used)
    assert not unused, "%s imports names it never uses: %s" % (path, ", ".join(unused))
