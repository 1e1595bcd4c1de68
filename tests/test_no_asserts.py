"""No ``assert`` statement guards a result in the package: ``python -O``
strips them, so a check the package relies on must raise instead."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qca"


def assert_lines(path: Path) -> list[int]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statement(path):
    assert assert_lines(path) == []


def test_the_check_sees_an_assert(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def f(x):\n    assert x > 0, 'positive'\n    return x\n")
    assert assert_lines(src) == [2]
