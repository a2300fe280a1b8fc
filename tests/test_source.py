import ast
import os
import pathlib
import subprocess
import sys

import zetagaps
from zetagaps import fracpoly, hfunc, optimizer, presets, quadcheck, sieve

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


def _src_all(module: str) -> list[str] | None:
    """__all__ of the src module `module` (as `from .module import *` reads it), or None."""
    path = SRC / f"{module}.py"
    return _declared_all(ast.parse(path.read_text()), _src_all) if path.exists() else None


def _declared_all(tree: ast.Module, all_of) -> list[str] | None:
    """The names a module's __all__ lists, or None if it has none: a literal assignment, and
    `__all__ += module.__all__` adding all_of(module)."""
    names = None
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names = list(ast.literal_eval(node.value))
        elif isinstance(node, ast.AugAssign) and getattr(node.target, "id", None) == "__all__":
            names += all_of(node.value.value.id)
    return names


def _imports(source: str, all_of=_src_all) -> dict[str, tuple[int, bool]]:
    """{name: (line, on a line marked `# noqa: F401`)} for every name the module imports;
    `from .x import *` imports the names all_of(x) lists, or the name `*` if x has no
    __all__ or is not relative."""
    lines = source.splitlines()
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
            getattr(node, "module", None) == "__future__"
        ):
            continue
        for alias in node.names:
            star = alias.name == "*" and node.level == 1 and all_of(node.module)
            for name in star or [alias.asname or alias.name.split(".")[0]]:
                found[name] = (node.lineno, "# noqa: F401" in lines[node.lineno - 1])
    return found


def _import_findings(source: str, all_of=_src_all) -> list[str]:
    """Names a module imports but never reads, except those in its __all__ (which covers
    __init__.py's re-exports) and those on a line marked `# noqa: F401`; and the names on
    such a line that it does read or export, which the mark should not cover."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(_declared_all(tree, all_of) or [])
    return [
        f"{name} (line {lineno}{', used on a noqa line' if noqa else ''})"
        for name, (lineno, noqa) in _imports(source, all_of).items()
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
        "from .d import *\n"
        "from .e import *\n"
        "from . import d\n"
        "__all__ = ['exported']\n"
        "__all__ += d.__all__\n"
        "x = np.zeros(1) + len(sep) + called()\n"
    )
    # .d's __all__ names are imported and re-exported by `__all__ += d.__all__`; .e has no
    # __all__, so its star import stays the one name `*`, which nothing reads
    all_of = {"d": ["public", "reexported"]}.get
    assert _import_findings(source, all_of) == [
        "math (line 2)", "path (line 4)", "called (line 7, used on a noqa line)", "* (line 9)"
    ]
    # a listed name the module neither reads nor re-exports is flagged at its star import
    assert _import_findings(source.replace("__all__ += d.__all__\n", ""), all_of) == [
        "math (line 2)", "path (line 4)", "called (line 7, used on a noqa line)",
        "public (line 8)", "reexported (line 8)", "* (line 9)", "d (line 10)",
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


def _names(source: str) -> list[tuple[str, int]]:
    """(name, line) of every name a module reads, binds, defines or imports, but numpy's
    attributes (np.convolve is not fracpoly's), and of every string constant (an __all__
    entry names what it lists)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if getattr(getattr(node, "value", None), "id", None) == "np":
            continue
        for field in ("id", "attr", "name", "asname", "arg"):
            if isinstance(value := getattr(node, field, None), str):
                found.append((value, node.lineno))
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append((node.value, node.lineno))
    return found


def test_fractional_algebra_is_named_only_in_fracpoly():
    # h runs on integer polynomials (CoeffScheme.kernels); the fractional-shift algebra is
    # kept for the benchmark's tracer, which patches hfunc's re-export of it, and no CLI
    # command, demo or quickstart line reaches it.  make, a second constructor, is gone.
    fractional = {"beta_convolve", "convolve", "integrate_weighted"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for name, line in _names(path.read_text()):
            reexport = path.name == "hfunc.py" and "# noqa: F401" in lines[line - 1]
            if name == "make" or (
                name in fractional and path.name != "fracpoly.py" and not reexport
            ):
                found.append(f"{path.name}:{line} {name}")
    assert found == []
    source = "from .f import make as m\nm(x.convolve, np.convolve, arg=1)\n__all__ = ['make']\n"
    assert sorted(_names(source)) == [
        ("__all__", 3), ("arg", 2), ("convolve", 2), ("m", 1), ("m", 2), ("make", 1),
        ("make", 3), ("np", 2), ("x", 2),
    ]


def test_package_reexports_each_module_all_in_order():
    # the public API is declared once, in the modules' __all__ lists
    modules = (fracpoly, hfunc, presets, quadcheck, sieve, optimizer)
    assert zetagaps.__all__ == [name for module in modules for name in module.__all__]
    for module in modules:
        for name in module.__all__:
            assert getattr(zetagaps, name) is getattr(module, name), (module.__name__, name)


def test_star_import_binds_every_public_name_without_the_cli():
    code = (
        "import sys; from zetagaps import *; import zetagaps; "
        "print(sorted(set(zetagaps.__all__) - set(globals())), 'zetagaps.cli' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] False"


def _process_spawners(source: str) -> list[str]:
    """What a module does that could start a process: an import of multiprocessing or
    subprocess, and ProcessPoolExecutor or os.fork imported or read."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            found += [
                f"{alias.name} (line {node.lineno})"
                for alias in node.names
                if alias.name in ("ProcessPoolExecutor", "fork")
            ]
        else:
            modules = []
        found += [
            f"import {m} (line {node.lineno})"
            for m in modules
            if m.split(".")[0] in ("multiprocessing", "subprocess")
        ]
        if isinstance(node, ast.Attribute) and (
            node.attr == "ProcessPoolExecutor"
            or (node.attr == "fork" and getattr(node.value, "id", None) == "os")
        ):
            found.append(f"{node.attr} (line {node.lineno})")
    return found


def test_src_starts_threads_only_never_processes():
    # the sieve's walk runs on threads, so no run can leave a process behind
    found = {
        path.name: spawners
        for path in sorted(SRC.glob("*.py"))
        if (spawners := _process_spawners(path.read_text()))
    }
    assert found == {}
    assert sorted(_process_spawners(
        "import subprocess\nfrom multiprocessing import Pool\n"
        "from concurrent.futures import ProcessPoolExecutor\nimport os\nos.fork()\n"
        "import concurrent.futures as cf\ncf.ProcessPoolExecutor()\nfrom os import fork\n"
    )) == sorted([
        "import subprocess (line 1)", "import multiprocessing (line 2)",
        "ProcessPoolExecutor (line 3)", "fork (line 5)", "ProcessPoolExecutor (line 7)",
        "fork (line 8)",
    ])


def test_cli_import_loads_no_executor():
    # concurrent.futures would add about 4 ms to every import of the package
    code = "import sys, zetagaps, zetagaps.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
