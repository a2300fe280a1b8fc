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


def _imports(source: str) -> dict[str, tuple[int, bool]]:
    """{name: (line, on a line marked `# noqa: F401`)} for every name the module imports."""
    lines = source.splitlines()
    return {
        alias.asname or alias.name.split(".")[0]: (
            node.lineno, "# noqa: F401" in lines[node.lineno - 1]
        )
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }


def _import_findings(source: str) -> list[str]:
    """Names a module imports but never reads, except those in its __all__ (which covers
    __init__.py's re-exports) and those on a line marked `# noqa: F401`; and the names on
    such a line that it does read or export, which the mark should not cover."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [
        f"{name} (line {lineno}{', used on a noqa line' if noqa else ''})"
        for name, (lineno, noqa) in _imports(source).items()
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


def test_noqa_imports_are_traced(perfbench_worker):
    # an import marked `# noqa: F401` is kept only for `perfbench/run.py --trace 1` to patch
    # on its module; once trace_targets stops patching the name there, the import goes
    traced = {
        (owner.__name__, attr)
        for owner, attr, *_ in perfbench_worker.trace_targets(perfbench_worker.Bench(), set())
    }
    marked = {
        (f"zetagaps.{path.stem}", name)
        for path in sorted(SRC.glob("*.py"))
        for name, (_, noqa) in _imports(path.read_text()).items()
        if noqa
    }
    assert marked - traced == set()
