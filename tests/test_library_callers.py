"""Library code that only tests call: every function, class, method and
property defined in `src/femspde` has a reader in the package itself, or is
exported by `femspde.__all__`.

A module-level function or class counts as read where its name is loaded (a
bare name or a module attribute); a method or property where some attribute
of that name is read.  The scan is syntactic, so it sees neither hooks that a
library calls by name nor bindings made from outside the package: those are
the allowlist, each with its reason.
"""

import ast
from pathlib import Path

import femspde

PACKAGE = Path(femspde.__file__).resolve().parent

# (module, qualified name) -> why no reader in the package shows up in the scan
ALLOWED = {
    ("cli", "_Parser.error"): "argparse calls it on a parse error",
    ("richardson", "trajectory_error"): "the benchmark tracer binds it by name",
    ("assembly", "StencilOperator.apply"): "the benchmark's assembly3d partition check calls "
                                           "it, and its tracer binds it by name",
}


def definitions(tree: ast.Module):
    """(qualified name, is a module-level definition) of every function and
    class at module level and every non-dunder method or property of those
    classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, True
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", False


def unread_definitions() -> set[tuple[str, str]]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    unread = set()
    for module, tree in trees.items():
        for qualname, top in definitions(tree):
            name = qualname.rpartition(".")[2]
            read = (name in names or name in attributes or name in femspde.__all__
                    if top else name in attributes)
            if not read:
                unread.add((module, qualname))
    return unread


def test_no_library_code_is_only_for_tests():
    assert unread_definitions() == set(ALLOWED)
