"""Every public name has a reader.

A name in a bornscat module's `__all__` counts as read when the package's
modules (`__init__.py` left out: its imports are the re-exports),
`perfbench/` or `tools/` read it, as a name or as an attribute, outside
the definition of that same name; or when `perfbench/spans.py` wraps or
counts it.  The tests are not readers: a name only they reach is dead
code with a test.  Names kept without a reader sit on KEEP with their
reason, and KEEP must be exactly the unread set, so an entry that gains
a reader comes off the list.
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


def public_names(tree):
    """The strings of the module's `__all__`."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def read_names(tree):
    """Names loaded as a name or an attribute, each outside the definition it names."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def test_the_walk_sees_every_reader():
    assert {path.parent.name for path in READERS} == {"bornscat", "perfbench", "tools"}
    with_names = {path.stem for path in MODULES if public_names(ast.parse(path.read_text()))}
    assert with_names == {"em", "grids", "oracle", "potentials", "scalar"}


def test_a_name_read_only_inside_its_own_definition_is_unread():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\nclass C:\n    def g(self):\n"
                     "        return C, self.g, h\n\ndef h():\n    pass\n")
    assert read_names(tree) == {"n", "self", "h"}


def test_every_public_name_has_a_reader_or_a_reason():
    assert sorted(unread_names()) == sorted(KEEP)
