"""Every imported name is used.

No linter is part of the test dependencies, so this walks each module's
syntax tree with the standard library.  A name counts as used when the
module reads it anywhere or lists it in `__all__`.  The package's
`__init__.py` is left out: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for path in [
        *(ROOT / "src" / "bornscat").glob("*.py"),
        *(ROOT / "tests").glob("*.py"),
        *(ROOT / "tools").glob("*.py"),
    ]
    if path.name != "__init__.py"
)


def imported_names(tree):
    """The names the module's import statements bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names
                         if alias.name != "*")
    return names


def used_names(tree):
    """The names the module reads, and the strings of its `__all__`."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def test_the_walk_sees_every_tree():
    assert {path.parent.name for path in MODULES} == {"bornscat", "tests", "tools"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    assert sorted(imported_names(tree) - used_names(tree)) == []
