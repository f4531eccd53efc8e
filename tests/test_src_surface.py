"""``src/amoebas`` holds only what the commands, scripts and benchmark run.

Every function, class, method and module constant defined in the
package must be referenced from the package itself, ``scripts/`` or
``perfbench/``.  A name that only tests reference is a test helper and
belongs under ``tests/``; a name nothing references is dead code.  References are matched by identifier: a
loaded name, an attribute, an imported name, or a string constant equal
to the identifier (perfbench looks names up by string).  The package's
``__init__`` re-exports do not count, and dunder names are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "amoebas"
USERS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _is_reexport(node):
    if isinstance(node, ast.ImportFrom):
        return True
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def defined_names(tree):
    """(qualified name, identifier) of the module's top-level definitions."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id


def referenced_identifiers(tree):
    """Every identifier the tree loads, reads as an attribute or imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
    return out


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(directory):
    out = set()
    for path in sorted(directory.rglob("*.py")):
        tree = _parse(path)
        if path.name == "__init__.py" and directory == PACKAGE:
            tree.body = [node for node in tree.body if not _is_reexport(node)]
        out |= referenced_identifiers(tree)
    return out


def unused_names():
    """Package names that nothing outside tests/ references, as module.name."""
    used = set().union(*map(_references, USERS))
    return [
        f"{path.stem}.{qualified}"
        for path in sorted(PACKAGE.glob("*.py"))
        for qualified, name in defined_names(_parse(path))
        if not _is_dunder(name) and name not in used
    ]


def test_src_defines_only_what_runs_outside_tests():
    found = unused_names()
    assert not found, "not referenced outside tests/: " + ", ".join(found)
