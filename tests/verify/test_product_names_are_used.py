"""Product code is what product paths run.

Every top-level function or class that a module of ``src/repro``
outside ``repro.verify`` defines must be referenced by another product
statement. A reference is a name, an attribute, an import, a string
constant that is an identifier (``getattr(obj, "plan")``) or a name in
a quoted annotation. Re-exports in ``__init__.py``, ``__all__`` entries
and docstrings do not count, and neither does a definition's reference
to itself. A reference that only a check needs belongs in
``repro.verify``; anything else without a caller is deleted.

Names are matched, not resolved: a definition counts as used when any
product statement mentions its name, even for an unrelated object.

``ALLOWLIST`` names the public entry points that only code outside
``src/`` calls, each with the file that calls it.
"""

from __future__ import annotations

import ast
import functools
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[2]
PACKAGE = REPO / "src" / "repro"

#: Entry points with no product caller -> the file outside ``src/``
#: that uses each one.
ALLOWLIST = {
    # The benchmark harness imports or wraps these.
    "make_store": "perfbench/runners.py",
    "ShardedCaptureStore": "perfbench/tracing.py",
    "shutdown_pools": "perfbench/runners.py",
    "ServiceClient": "perfbench/runners.py",
    # The examples are the library's documented entry points.
    "save_capture": "examples/capture_workflow.py",
    "threshold_for_quality": "examples/adaptive_quality.py",
    "AdaptiveThresholdController": "examples/adaptive_quality.py",
}


def _product_modules() -> "list[pathlib.Path]":
    return [
        path
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.relative_to(PACKAGE).parts[0] != "verify"
    ]


def _docstrings(tree: ast.AST) -> "set[int]":
    """``id()`` of every docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                found.add(id(body[0].value))
    return found


def _annotations(node: ast.AST):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args
        for arg in (
            args.posonlyargs + args.args + args.kwonlyargs
            + [args.vararg, args.kwarg]
        ):
            if arg is not None and arg.annotation is not None:
                yield arg.annotation
        if node.returns is not None:
            yield node.returns
    elif isinstance(node, ast.AnnAssign):
        yield node.annotation


def _references(
    stmt: ast.stmt, docstrings: "set[int]", *, count_imports: bool = True
) -> "set[str]":
    """Every name that ``stmt`` references, by the rules above."""
    names: "set[str]" = set()
    quoted: "set[int]" = set()
    for node in ast.walk(stmt):
        for annotation in _annotations(node):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    quoted.add(id(part))
                    try:
                        expr = ast.parse(part.value, mode="eval")
                    except SyntaxError:
                        continue
                    names.update(_plain_names(expr))
    for node in ast.walk(stmt):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if count_imports:
                names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
            and id(node) not in quoted
            and node.value.isidentifier()
        ):
            names.add(node.value)
    names.update(_plain_names(stmt))
    return names


def _plain_names(tree: ast.AST) -> "set[str]":
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _is_all(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in stmt.targets
    )


@functools.lru_cache(maxsize=None)
def _unreferenced() -> "dict[str, str]":
    """Top-level product definitions no other product statement names.

    Maps each name to ``file:line`` of its definition.
    """
    definitions = []
    referenced: "dict[str, set]" = {}
    for path in _product_modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        docstrings = _docstrings(tree)
        package_init = path.name == "__init__.py"
        for index, stmt in enumerate(tree.body):
            where = (path, index)
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                definitions.append((stmt.name, where, stmt.lineno))
            if package_init and _is_all(stmt):
                continue
            refs = _references(stmt, docstrings, count_imports=not package_init)
            for name in refs:
                referenced.setdefault(name, set()).add(where)
    return {
        name: f"{where[0].relative_to(REPO)}:{lineno}"
        for name, where, lineno in definitions
        if not referenced.get(name, set()) - {where}
    }


def _names_in(path: pathlib.Path) -> "set[str]":
    tree = ast.parse(path.read_text(), filename=str(path))
    names = _plain_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def test_every_product_definition_has_a_product_reference():
    unused = {
        name: where for name, where in _unreferenced().items()
        if name not in ALLOWLIST
    }
    assert not unused, (
        "product definitions that no product statement references "
        "(delete them, or move a check-only reference into repro.verify): "
        + ", ".join(f"{name} ({where})" for name, where in sorted(unused.items()))
    )


def test_allowlisted_names_have_no_product_caller():
    called = sorted(set(ALLOWLIST) - set(_unreferenced()))
    assert not called, (
        f"{called} now have a product reference (or no definition): "
        "drop them from the allowlist"
    )


def test_allowlisted_names_are_used_where_the_allowlist_says():
    missing = sorted(
        f"{name} ({user})"
        for name, user in ALLOWLIST.items()
        if name not in _names_in(REPO / user)
    )
    assert not missing, (
        f"no longer used outside src/: {missing}; delete them from the "
        "product and the allowlist"
    )
