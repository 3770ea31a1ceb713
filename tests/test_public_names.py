"""Every public name has a reader.

A name in a bornscat module's `__all__` counts as read when the package's
modules (`__init__.py` left out: its imports are the re-exports),
`perfbench/` or `tools/` read it, as a name or as an attribute, outside
the definition of that same name; or when `perfbench/spans.py` wraps or
counts it.  The tests are not readers: a name only they reach is dead
code with a test.  Names kept without a reader sit on KEEP with their
reason, and KEEP must be exactly the unread set, so an entry that gains
a reader comes off the list.

The same rule holds for the members of each class in an `__all__`: every
public method and property (dataclass fields and dunders are not members)
counts as read when the same readers load it as an attribute outside its
own definition.  The walk goes by name, so a read of another class's
member of that name counts too.  Members kept without a reader sit on
KEEP_MEMBERS, as "Class.member", with their reason.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bornscat"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
READERS = MODULES + sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))

KEEP = {
    "certify_materials": "the em3d support certificate that run's point report is to carry",
    "verify_convolution_support": "the paper's support-addition lemma, checked on its own",
    "potential_value": "the closed form the sampling tests compare against",
    "potential_spectrum": "the closed-form transform the spectrum tests compare against",
}

KEEP_MEMBERS = {}


def public_names(tree):
    """The strings of the module's `__all__`."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def public_members(tree):
    """"Class.member" for each public method and property of the classes in `__all__`."""
    public = public_names(tree)
    return {
        f"{node.name}.{item.name}"
        for node in tree.body if isinstance(node, ast.ClassDef) and node.name in public
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    }


def read_names(tree, attributes_only=False):
    """Names loaded as a name or an attribute, each outside the definition it names.

    With attributes_only, the names loaded as an attribute alone.
    """
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and not attributes_only:
            found.update({node.id} - inside)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.update({node.attr} - inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def span_targets():
    """The functions perfbench/spans.py wraps or counts."""
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {entry[1] for entry in module.SPANS + module.COUNTERS}


def unread_names():
    public = set().union(*(public_names(ast.parse(path.read_text())) for path in MODULES))
    read = set().union(*(read_names(ast.parse(path.read_text())) for path in READERS))
    return public - read - span_targets()


def unread_members(modules, readers):
    """The public members of the modules' trees that no reader's tree loads as an attribute."""
    read = set().union(*(read_names(tree, attributes_only=True) for tree in readers))
    members = set().union(*(public_members(tree) for tree in modules))
    return {member for member in members if member.split(".")[1] not in read}


def test_the_walk_sees_every_reader():
    assert {path.parent.name for path in READERS} == {"bornscat", "perfbench", "tools"}
    with_names = {path.stem for path in MODULES if public_names(ast.parse(path.read_text()))}
    assert with_names == {"em", "grids", "oracle", "potentials", "scalar"}


def test_a_name_read_only_inside_its_own_definition_is_unread():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\nclass C:\n    def g(self):\n"
                     "        return C, self.g, h\n\ndef h():\n    pass\n")
    assert read_names(tree) == {"n", "self", "h"}


def test_a_member_read_only_inside_its_own_definition_is_unread():
    tree = ast.parse('__all__ = ["C"]\n\nclass C:\n    n: int\n\n    def __len__(self):\n'
                     "        return self.n\n\n    def f(self):\n        return self.f, self.g\n\n"
                     "    @property\n    def g(self):\n        return 1\n\n    def _h(self):\n"
                     "        pass\n\nclass D:\n    def e(self):\n        pass\n")
    assert public_members(tree) == {"C.f", "C.g"}
    assert unread_members([tree], [tree]) == {"C.f"}


def test_every_public_name_has_a_reader_or_a_reason():
    assert sorted(unread_names()) == sorted(KEEP)


def test_every_public_member_has_a_reader_or_a_reason():
    trees = {path: ast.parse(path.read_text()) for path in READERS}
    unread = unread_members([trees[path] for path in MODULES], trees.values())
    assert sorted(unread) == sorted(KEEP_MEMBERS)
