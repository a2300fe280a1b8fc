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
