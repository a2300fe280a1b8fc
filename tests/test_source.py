import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "zetagaps"


def test_src_validates_with_exceptions_not_assert():
    # `python -O` strips assert statements, so a check written as one vanishes there
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _import_findings(source: str) -> list[str]:
    """Names a module imports but never reads, except those in its __all__ (which covers
    __init__.py's re-exports) and those on a line marked `# noqa: F401`; and the names on
    such a line that it does read or export, which the mark should not cover."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {  # name: (line, on a noqa line)
        alias.asname or alias.name.split(".")[0]: (
            node.lineno, "# noqa: F401" in lines[node.lineno - 1]
        )
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [
        f"{name} (line {lineno}{', used on a noqa line' if noqa else ''})"
        for name, (lineno, noqa) in imported.items()
        if (name in used) == noqa
    ]


def test_src_imports_only_names_it_uses():
    found = {
        path.name: findings
        for path in sorted(SRC.glob("*.py"))
        if (findings := _import_findings(path.read_text()))
    }
    assert found == {}


def test_unused_import_check_flags_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "from os import path, sep\n"
        "from .a import hidden  # noqa: F401\n"
        "from .b import exported\n"
        "from .c import kept, called  # noqa: F401\n"
        "__all__ = ['exported']\n"
        "x = np.zeros(1) + len(sep) + called()\n"
    )
    assert _import_findings(source) == [
        "math (line 2)", "path (line 4)", "called (line 7, used on a noqa line)"
    ]
