"""Static checks of the package source, in place of a linter.

An AST scan of every module of `dpg_elast` fails on an imported name the
module never uses (names listed in `__all__` count as used) and on a
module-level `_private` function that no module of the package refers to.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dpg_elast"


def parse_package():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def used_names(tree):
    """Names a module reads, its `__all__` entries included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names |= {elt.value for elt in node.value.elts}
    return names


def imported_names(tree):
    """(bound name, line) of every import, `__future__` ones left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def referenced_names(tree):
    """Names, attributes and imported names a module refers to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_no_unused_imports():
    unused = []
    for name, tree in parse_package().items():
        used = used_names(tree)
        unused += [f"{name}:{line} {bound}"
                   for bound, line in imported_names(tree) if bound not in used]
    assert unused == []


def test_no_unreferenced_private_functions():
    trees = parse_package()
    referenced = {ref for tree in trees.values()
                  for ref in referenced_names(tree)}
    unreferenced = [f"{name}:{node.lineno} {node.name}"
                    for name, tree in trees.items() for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and node.name not in referenced]
    assert unreferenced == []
