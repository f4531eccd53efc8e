"""``src/amoebas`` holds only what the commands, scripts and benchmark run.

Every function, class, method and module constant defined in the
package must be referenced from the package itself, ``scripts/`` or
``perfbench/``.  A name that only tests reference is a test helper and
belongs under ``tests/``; a name nothing references is dead code.  References are matched by identifier: a
loaded name, an attribute, an imported name, or a string constant equal
to the identifier (perfbench looks names up by string).  The package's
``__init__`` re-exports do not count, and dunder names are exempt.

Operators are not named where they run, so dunders get a second test:
every dunder a class body defines must be entered by the commands, run
under ``sys.setprofile``, or be on an allow-list with its reason.
"""

import ast
import importlib.util
import sys
import threading
from pathlib import Path

from amoebas import cli
from oracles import LINE

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


# -- dunders -----------------------------------------------------------------

# dunders that no command enters, each with the reason it stays
DUNDERS_NOT_RUN = {
    "gaussian.GaussianRational.__repr__": "assertion messages print coefficients",
    "poly.LaurentPoly.__repr__": "assertion messages print polynomials",
    "gaussian.GaussianRational.__bool__": "without it a zero coefficient would be truthy, silently",
    "poly.LaurentPoly.__hash__": "set to None: a polynomial holds a dict, so hashing one must fail",
}

# every subcommand in every format on tiny inputs, and one bad input
RUNS = [
    (["cres", "-f", LINE, "-k", "1"], 0),
    (["cres", "-f", "z1 +"], 2),
    *((["amoeba", "-f", LINE, "--step", "1/2", "--kmax", "2", "--format", fmt], 0)
      for fmt in ("csv", "jsonl", "svg", "ppm")),
    *((["semialg", "-f", LINE, "-k", "1", "--res", "8", "--format", fmt], 0)
      for fmt in ("json", "text", "svg", "ppm")),
    *((["bench", f"line={LINE}", "-k", "1", "--format", fmt], 0) for fmt in ("text", "csv")),
]


def defined_dunders():
    """(module.Class.name, (file, first line)) of each dunder a class body defines.

    A class-body alias (``__radd__ = __add__``, ``__hash__ = None``) runs
    another method's code or none, so no profile sees it entered: its
    place is None and it counts as never entered.
    """
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, ast.ClassDef):
                continue
            name = f"{path.stem}.{node.name}."
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_dunder(item.name):
                    first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                    yield name + item.name, (path.resolve(), first)
                elif isinstance(item, ast.Assign) and (
                    isinstance(item.value, ast.Name)
                    or isinstance(item.value, ast.Constant) and item.value.value is None
                ):
                    for target in item.targets:
                        if isinstance(target, ast.Name) and _is_dunder(target.id):
                            yield name + target.id, None


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entered_code(tmp_path):
    """(file, first line) of every function entered by RUNS and perfbench's hooks."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    spans = _load_spans()
    tracer = spans.Tracer()
    out = str(tmp_path / "out")
    previous = sys.getprofile(), threading.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        for argv, code in RUNS:
            assert cli.main(argv + ["-o", out]) == code, argv
        # the benchmark's tracer iterates grid verdicts and reads rasters
        with spans.traced(tracer):
            assert cli.main(["amoeba", "-f", LINE, "--step", "1/2", "--kmax", "2", "-o", out]) == 0
            assert cli.main(["semialg", "-f", LINE, "--format", "svg", "--res", "8", "-o", out]) == 0
        tracer.settle()
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
    return {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in codes}


def test_src_defines_only_dunders_that_run(tmp_path):
    dunders = dict(defined_dunders())
    assert set(DUNDERS_NOT_RUN) <= set(dunders), "allow-list names a dunder src no longer defines"
    entered = entered_code(tmp_path)
    found = [
        name for name, place in dunders.items()
        if name not in DUNDERS_NOT_RUN and place not in entered
    ]
    assert not found, "dunders no command enters: " + ", ".join(found)
