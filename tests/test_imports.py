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
# Caches: every process-wide memo goes through qca._cache.memo.

FUNCTOOLS_CACHES = {"cache", "lru_cache", "cached_property"}
# cli._parser builds the argument parser once.  It holds no engine data, and
# registering it would load qca._cache on `import qca.cli`.
UNREGISTERED = {("cli.py", "_parser")}


def _empty_container(node) -> bool:
    """An empty {}, [], set(), dict() or list()."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "dict", "list")
            and not node.args and not node.keywords)


def unregistered_memos(name: str, source: str) -> list[str]:
    """The caches in the module ``name`` that do not go through memo: a
    functools cache, lru_cache or cached_property, imported or read as an
    attribute of functools, and a module-level name bound to an empty
    container, which can only be filled at run time."""
    tree = ast.parse(source, filename=name)
    exempt = {id(sub) for node in tree.body
              if isinstance(node, ast.FunctionDef) and (name, node.name) in UNREGISTERED
              for decorator in node.decorator_list for sub in ast.walk(decorator)}
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "functools"}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            out += [(node.lineno, f"functools.{alias.name}")
                    for alias in node.names if alias.name in FUNCTOOLS_CACHES]
        elif isinstance(node, ast.Attribute) and node.attr in FUNCTOOLS_CACHES \
                and isinstance(node.value, ast.Name) and node.value.id in aliases \
                and id(node) not in exempt:
            out.append((node.lineno, f"functools.{node.attr}"))
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
            continue
        for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
            # ROOTS, CHILDREN = {}, {} binds each name to its own value
            pairs = (zip(target.elts, node.value.elts)
                     if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                     else [(target, node.value)])
            out += [(node.lineno, ast.unparse(name)) for name, value in pairs
                    if _empty_container(value)]
    return [f"{what} (line {line})" for line, what in sorted(out)]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "_cache.py"),
                         ids=lambda p: p.name)
def test_every_cache_goes_through_memo(path):
    assert unregistered_memos(path.name, path.read_text()) == []


def test_the_cache_check_finds_each_kind():
    source = ("import functools\n"
              "import functools as ft\n"
              "from functools import cache, partial\n"
              "SEEN: dict = {}\n"
              "ROOTS, CHILDREN = [], set()\n"
              "TABLES = {'a': 1}\n"
              "@ft.lru_cache(maxsize=4)\n"
              "def _parser():\n"
              "    return dict()\n"
              "@functools.cache\n"
              "def _parser():\n"
              "    pass\n")
    assert unregistered_memos("other.py", source) == [
        "functools.cache (line 3)", "SEEN (line 4)", "CHILDREN (line 5)",
        "ROOTS (line 5)", "functools.lru_cache (line 7)", "functools.cache (line 10)"]
    assert unregistered_memos("cli.py", source) == [
        "functools.cache (line 3)", "SEEN (line 4)", "CHILDREN (line 5)", "ROOTS (line 5)"]


def test_clear_empties_every_memo(monkeypatch, cold_caches):
    from qca import _cache, fixtures
    from qca.duality import PStarHom
    from qca.mutation import quantum_x_table, quantum_x_variables
    from qca.seeds import Seed

    fd = fixtures.a23()
    quantum_x_table(fd, [0, 1, 0], True)
    assert all(ok for _, _, ok in PStarHom(fd).intertwining(4))
    for made in fixtures.ALL.values():
        made()
    names = sorted(f"{f.__module__}.{f.__name__}" for f in _cache._MEMOS)
    assert names == sorted(
        [f"qca.fixtures.{f.__name__}" for f in fixtures.ALL.values()]
        + [f"qca.mutation.{name}" for name in (
            "x_torus", "a_torus", "_root", "_child", "_step", "_variables")]
        + ["qca.duality.p1_star", "qca.duality.principal_compatible_pair"])
    assert all(f.cache_info().currsize > 0 for f in _cache._MEMOS)
    _cache.clear()
    assert [f.cache_info().currsize for f in _cache._MEMOS] == [0] * len(names)
    calls = []
    mutate = Seed.mutate

    def counted(seed, k):
        calls.append(k)
        return mutate(seed, k)

    monkeypatch.setattr(Seed, "mutate", counted)
    quantum_x_variables(fd, [0, 1], True)
    assert calls == [0, 1]


# ---------------------------------------------------------------------------
# Public names: each one is read outside the tests.

# read by no module of the package, of bench/ or of demos/, and kept on
# purpose: the paper's data in checks.py, three entry points and the one
# reset of every cache
KEPT = {"EPSILONS", "classical_rows", "quantum_rows",
        "ScatteringDiagram.cross", "SkewLattice.make", "QScalar.rational", "clear"}


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
