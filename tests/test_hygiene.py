"""Source hygiene: no module imports a name it never uses, and no private
helper or class member of the package is left unread.

No linter ships with the package, so this scans every module of
``src/hsfinite`` and ``tests`` with ``ast``.  A name counts as used when it
is read anywhere in the module, including inside a quoted annotation.  The
package ``__init__`` is skipped, since its imports are the public
re-exports.  A module-level private name (``_...``) of ``src/hsfinite``
must be read somewhere in the package outside its own definition; reads
from tests do not count, so a helper that only tests call is dead code.
The same holds for every name the package ``__init__`` exports, unless the
benchmark's tracer wraps it by name (``bench/tracing.LAYERS``), and for
every method, property and dataclass field defined in a class body of the
package, which must be read as an attribute, or by ``getattr`` with its
name, on a receiver that can be of its class: not on ``cli``'s argparse
namespace, and on ``self`` only along inheritance.  A field is also read
where its class body names it in a string, as a table of field names does.
"""

import ast
import importlib
import importlib.util
import os
import textwrap

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


def _local_names(function):
    """The parameters of a function or lambda and every name assigned in
    its body, nested scopes included."""
    args = function.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a)
    names.update(node.id for node in ast.walk(function)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store))
    return names


def global_reads(node, shadowed=frozenset()):
    """The names that ``ast.Name`` loads under node read from the module
    scope: a local variable of an enclosing function shadows its name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        shadowed = shadowed | _local_names(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
            and node.id not in shadowed:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from global_reads(child, shadowed)


def traced_layers():
    path = os.path.join(ROOT, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


# ``binary_form`` is the one public constructor of a form from coefficients
# (it normalizes the zero form and refuses floats); the package itself builds
# forms from integer lists and never calls it.
UNREAD_EXPORTS = {"binary_form"}


def test_every_export_is_read():
    exports = {}
    read = set()
    for name, tree in package_trees():
        if name == "__init__.py":
            exports = {alias.asname or alias.name: node.module
                       for node in tree.body if isinstance(node, ast.ImportFrom)
                       for alias in node.names}
            continue
        bound = set(imported_names(tree))
        for statement in tree.body:
            bound |= defined_names(statement)
        for statement in tree.body:
            own = defined_names(statement)
            read.update(n for n in global_reads(statement) if n in bound and n not in own)
    traced = traced_layers()
    unread = sorted("%s.%s" % (module, n) for n, module in exports.items()
                    if n not in read | UNREAD_EXPORTS and n not in traced.get(module, ()))
    assert exports and not unread, \
        "exported names nothing in the package reads: %s" % ", ".join(unread)
    assert not UNREAD_EXPORTS & read, "the package reads a listed exception"


def overrides(module, cls_name, name):
    """Does the method ``name`` of the package class override one of a base
    class, which the base's own code may call?"""
    cls = getattr(importlib.import_module("hsfinite." + module[:-3]), cls_name)
    return any(name in vars(base) for base in cls.__mro__[1:])


def _attribute_reads(tree):
    """(name, node, receiver, class, function) for every attribute read in
    a module, ``getattr(r, "name")`` included: the receiver is the name the
    attribute is read on (``self``, ``args``, ...) or None for any other
    expression, the class the innermost class body around the read or
    None, and the function the module-level function around it or None."""
    reads = []

    def visit(node, cls, function):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and function is None:
            function = node.name
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            receiver = node.value.id if isinstance(node.value, ast.Name) else None
            reads.append((node.attr, node, receiver, cls, function))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and len(node.args) >= 2 \
                and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str):
            target = node.args[0]
            receiver = target.id if isinstance(target, ast.Name) else None
            reads.append((node.args[1].value, node, receiver, cls, function))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, function)

    visit(tree, None, None)
    return reads


def _ancestors(trees):
    """{class name: the names of its base classes, transitively} over the
    classes defined in ``trees``; a base defined elsewhere ends a chain."""
    bases = {node.name: {b.id if isinstance(b, ast.Name) else b.attr for b in node.bases
                         if isinstance(b, (ast.Name, ast.Attribute))}
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}

    def up(name, seen):
        for base in bases.get(name, ()):
            if base not in seen:
                seen.add(base)
                up(base, seen)
        return seen

    return {name: up(name, set()) for name in bases}


def _is_dataclass(node):
    """Is the class definition decorated with ``dataclass``, called or not?"""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _class_members(node):
    """(name, node) for the methods and properties of a class body, and its
    fields when it is a dataclass: the annotated names, each unless the
    class body names it in a string constant."""
    members = [(member.name, member) for member in node.body
               if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))]
    if _is_dataclass(node):
        named = {n.value for n in ast.walk(node) if isinstance(n, ast.Constant)}
        members += [(member.target.id, member) for member in node.body
                    if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)
                    and member.target.id not in named]
    return members


def unread_members(trees, overrides=lambda module, cls_name, name: False):
    """The methods, properties and dataclass fields of the classes in
    ``trees`` ({module file name: ast}) that nothing reads, as
    "Class.member (module:line)".  A read ``r.m`` or ``getattr(r, "m")``
    outside the member's own definition counts for ``C.m`` only when r can
    be a C: a read on ``args``, the argparse namespace of a ``cmd_*``
    function of ``cli.py``, never counts, and one on ``self`` or ``cls``
    only inside C or a class related to it by inheritance.  A field named
    in a string constant of its own class body counts as read.  Dunders are
    exempt, and so is a member for which ``overrides(module, class name,
    member name)`` holds."""
    ancestors = _ancestors(trees)
    members = []
    reads = []
    for module, tree in trees.items():
        reads += [(module, *read) for read in _attribute_reads(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                members += [(module, node.name, name, member)
                            for name, member in _class_members(node)
                            if not (name.startswith("__") and name.endswith("__"))]

    def may_be(owner, module, receiver, cls, function):
        if module == "cli.py" and receiver == "args" and (function or "").startswith("cmd_"):
            return False
        if receiver in ("self", "cls"):
            return cls is not None and (cls == owner or owner in ancestors[cls]
                                        or cls in ancestors[owner])
        return True

    unread = []
    for module, cls_name, name, member in members:
        own = {id(node) for node in ast.walk(member)}
        if not any(attr == name and id(node) not in own
                   and may_be(cls_name, where, *context)
                   for where, attr, node, *context in reads) \
                and not overrides(module, cls_name, name):
            unread.append("%s.%s (%s:%d)" % (cls_name, name, module, member.lineno))
    return unread


def test_every_class_member_is_read():
    """Every method, property (``cached_property`` too) and dataclass field
    defined in a class body of ``src/hsfinite``, private classes included,
    is read as an attribute somewhere in the package outside its own
    definition, on a receiver that can be of its class (see
    ``unread_members``).  Dunders are exempt, and so is a method that
    overrides a base class's.  Reads from tests do not count."""
    unread = unread_members(dict(package_trees()), overrides)
    assert not unread, "class members nothing in the package reads: %s" % ", ".join(unread)


def _snippet(text):
    return ast.parse(textwrap.dedent(text))


def test_a_namespace_read_is_no_read():
    # a property read only as an argparse destination of the same name is
    # flagged; read on any other value, it counts
    sequences = _snippet("""
        class HSSequence:
            @property
            def colength(self):
                return 0
    """)
    cli = _snippet("""
        def cmd_enumerate(args):
            return args.colength
    """)
    assert unread_members({"sequences.py": sequences, "cli.py": cli}) == \
        ["HSSequence.colength (sequences.py:4)"]
    catalog = _snippet("""
        def size(seq):
            return seq.colength
    """)
    assert unread_members({"sequences.py": sequences, "cli.py": cli,
                           "catalog.py": catalog}) == []


def test_a_self_read_counts_only_along_inheritance():
    # Child reads its base's ``shared`` and Base reads its subclass's
    # ``hook``; Stranger's ``self.lone`` names a member of an unrelated class
    tree = _snippet("""
        class Base:
            def shared(self):
                return self.hook
        class Child(Base):
            @property
            def hook(self):
                return self.shared
        class Lone:
            def lone(self):
                return 0
        class Stranger:
            def ask(self):
                return self.lone
        def use(stranger):
            return stranger.ask
    """)
    assert unread_members({"catalog.py": tree}) == ["Lone.lone (catalog.py:10)"]


def test_an_unread_dataclass_field_is_flagged():
    # ``label`` is read only on the argparse namespace and ``spare`` not at
    # all; ``ideal`` is read on an entry and ``provenance`` by getattr
    catalog = _snippet("""
        from dataclasses import dataclass
        @dataclass(frozen=True)
        class CatalogEntry:
            ideal: object
            provenance: str
            label: str
            spare: int = 0
        def show(entry):
            return entry.ideal, getattr(entry, "provenance")
    """)
    cli = _snippet("""
        def cmd_catalog(args):
            return args.label
    """)
    assert unread_members({"catalog.py": catalog, "cli.py": cli}) == \
        ["CatalogEntry.label (catalog.py:7)", "CatalogEntry.spare (catalog.py:8)"]


def test_a_field_named_in_its_class_body_is_read():
    # a table of field names in the class body reads them, as
    # ``StructuralInvariant._FIELD_ORDER`` does, but the same string outside
    # it does not; an annotation in a class that is no dataclass is no field
    tree = _snippet("""
        import dataclasses
        @dataclasses.dataclass
        class Invariant:
            sequence: tuple
            pattern: tuple
            _ORDER = ("sequence",)
        class Plain:
            loose: int
        NAMES = ("pattern",)
    """)
    assert unread_members({"catalog.py": tree}) == ["Invariant.pattern (catalog.py:6)"]


def test_a_self_read_of_a_field_counts_only_along_inheritance():
    # a subclass reads ``pairwise`` on self; ``self.label`` in an unrelated
    # class is no read of the field
    tree = _snippet("""
        from dataclasses import dataclass
        @dataclass
        class Report:
            pairwise: list
            label: str
        class Full(Report):
            def show(self):
                return self.pairwise
        class Stranger:
            def ask(self):
                return self.label
        def use(report, stranger):
            return report.show, stranger.ask
    """)
    assert unread_members({"catalog.py": tree}) == ["Report.label (catalog.py:6)"]
