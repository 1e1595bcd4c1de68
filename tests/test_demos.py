"""Golden demo output: each script under ``demos/`` runs in a fresh working
directory, and its stdout and every SVG it writes there are compared byte
for byte with files under ``tests/golden/demos/``.

Regenerate the files only when an output change is intended and checked:

    PYTHONPATH=src python tests/test_demos.py --regen
"""

import os
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEMOS = os.path.join(ROOT, "demos")
GOLDEN = os.path.join(HERE, "golden", "demos")
SCRIPTS = sorted(f for f in os.listdir(DEMOS) if f.endswith(".py"))


def _run(script: str, cwd: str) -> dict[str, str]:
    """stdout and the SVGs one demo writes into ``cwd``, by golden file name."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, script)], cwd=cwd,
                          env=env, capture_output=True, text=True, check=True)
    stem = script[:-3]
    out = {f"{stem}.stdout.txt": proc.stdout}
    for name in sorted(os.listdir(cwd)):
        with open(os.path.join(cwd, name), encoding="utf-8") as fh:
            out[f"{stem}.{name}"] = fh.read()
    return out


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_output_matches_golden(script, tmp_path):
    got = _run(script, str(tmp_path))
    stem = script[:-3]
    want_names = sorted(f for f in os.listdir(GOLDEN) if f.startswith(stem + "."))
    assert sorted(got) == want_names
    for name in want_names:
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            assert got[name] == fh.read(), name


def _regenerate() -> None:
    os.makedirs(GOLDEN, exist_ok=True)
    for script in SCRIPTS:
        with tempfile.TemporaryDirectory() as cwd:
            for name, text in _run(script, cwd).items():
                with open(os.path.join(GOLDEN, name), "w", encoding="utf-8") as fh:
                    fh.write(text)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_demos.py --regen")
    _regenerate()
