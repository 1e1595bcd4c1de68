"""Every name a module of the package imports is read somewhere in it, no
module imports another module's private (underscore) names, and each layer
loads only when it is first used."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qca"


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
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


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


# ---------------------------------------------------------------------------
# Public names: each one is read outside the tests.

# read by no module of the package, of bench/ or of demos/, and kept on
# purpose: the paper's data in checks.py and three entry points
KEPT = {"EPSILONS", "classical_rows", "quantum_rows",
        "ScatteringDiagram.cross", "SkewLattice.make", "QScalar.rational"}


def public_definitions() -> list[str]:
    """The public module-level names and methods of the package, a method
    as Class.method."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out += [t.id for t in targets if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append(node.name)
            if isinstance(node, ast.ClassDef):
                out += [f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef)]
    return [name for name in out if not name.rsplit(".", 1)[-1].startswith("_")]


def names_read(paths) -> set[str]:
    """The identifiers that ``paths`` read, as names, attributes or
    imports, or as parts of a dotted string such as "Series.inverse"."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and all(part.isidentifier() for part in node.value.split(".")):
                read.update(node.value.split("."))
    return read


def test_every_public_name_is_read_outside_the_tests():
    import qca

    root = SRC.parent.parent
    read = names_read([*SRC.glob("*.py"), *(root / "bench").rglob("*.py"),
                       *(root / "demos").rglob("*.py")])
    unread = [name for name in public_definitions()
              if name.rsplit(".", 1)[-1] not in read and name not in KEPT
              and name not in qca.__all__ and not name.startswith("cmd_")]
    assert unread == []


# ---------------------------------------------------------------------------
# Import footprint: each case runs in a fresh interpreter.

def run_fresh(code: str) -> str:
    """The standard output of a fresh interpreter running ``code`` with the
    package's sources first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def loaded_after(code: str) -> set[str]:
    """The qca modules loaded after running ``code``."""
    out = run_fresh(code + "\nimport sys\nprint(sorted(m for m in sys.modules"
                           " if m == 'qca' or m.startswith('qca.')))")
    return set(ast.literal_eval(out.splitlines()[-1]))


def test_importing_the_package_and_cli_loads_only_seeds():
    assert loaded_after("import qca, qca.cli") == {"qca", "qca.cli", "qca.seeds"}


def test_a_classical_table_loads_no_other_layer():
    demo = SRC.parent.parent / "demos" / "seeds" / "a2.json"
    loaded = loaded_after(
        "from qca import cli\n"
        f"assert cli.main(['table', '--seed', {str(demo)!r}, '--sequence', '1,2',"
        " '--mode', 'x-classical']) == 0")
    assert "qca.mutation" in loaded
    assert not loaded & {f"qca.{m}" for m in (
        "scatter", "theta", "render", "duality", "poisson", "checks", "expansion")}


def test_the_tables_suite_loads_only_its_layers():
    loaded = loaded_after(
        "from qca import cli\n"
        "assert cli.main(['check', '--suite', 'tables']) == 0")
    assert "qca.checks" in loaded and "qca.mutation" in loaded
    assert not loaded & {f"qca.{m}" for m in (
        "scatter", "theta", "render", "duality", "poisson")}


def test_star_import_binds_every_public_name():
    out = run_fresh(
        "import qca\n"
        "namespace = {}\n"
        "exec('from qca import *', namespace)\n"
        "print(sorted(set(qca.__all__) - set(namespace)))\n"
        "print(sorted(set(qca.__all__) - set(dir(qca))))\n"
        "print(len(qca.__all__))")
    assert out.splitlines() == ["[]", "[]", "51"]


def test_unknown_names_raise_and_submodules_still_import():
    out = run_fresh(
        "import qca, qca.cli\n"
        "for module in (qca, qca.cli):\n"
        "    try:\n"
        "        module.no_such_name\n"
        "    except AttributeError as exc:\n"
        "        print(exc)\n"
        "from qca import cli, words\n"
        "print(cli.__name__, cli.words_equal is words.words_equal)\n"
        "import qca.scalars\n"
        "print(qca.QScalar is qca.scalars.QScalar)")
    assert out.splitlines() == [
        "module 'qca' has no attribute 'no_such_name'",
        "module 'qca.cli' has no attribute 'no_such_name'",
        "qca.cli True",
        "True"]
