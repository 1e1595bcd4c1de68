"""Every name a module of the package imports is read somewhere in it, and
no module imports another module's private (underscore) names."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qca"

# bench/test_bench.py checks that the benchmark tracer rebinds and restores
# the alias qca.cli.words_equal, so cli keeps the import though it never
# reads it
KEPT = {("cli", "words_equal")}


def unread_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):  # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts
                     if isinstance(elt, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read and (path.stem, name) not in KEPT)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path) == []


def private_imports(path: Path) -> list[str]:
    """Underscore names imported from another module of the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(
        f"{alias.name} from {'.' * node.level}{node.module or ''} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "qca")
        for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_is_imported(path):
    assert private_imports(path) == []
