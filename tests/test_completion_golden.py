"""Golden scattering completions: the walls of deeper completions than the
CLI golden files reach, compared byte for byte with JSON recorded under
``tests/golden/completions/``.

Completion solves and checks its walls on the generators only; each
completed diagram is also checked for consistency on the full grid(3), an
independent verification of the generator argument.  Regenerate the files
only when a wall change is intended and checked:

    PYTHONPATH=src python tests/test_completion_golden.py --regen
"""

import json
import os
import sys

import pytest

from qca.checks import grid
from qca.scatter import complete_to_order, initial_diagram
from qca.seeds import load_seed_file

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "completions")
SEEDS = os.path.join(os.path.dirname(HERE), "demos", "seeds")

# (demo seed, side, quantum, order)
CASES = [
    ("a2_scat", "A", False, 6),
    ("a23", "A", False, 4),
    ("a23", "A", True, 3),
    ("a2", "X", True, 3),
    ("a23", "X", True, 3),
]


def _name(seed, side, quantum, order) -> str:
    kind = "quantum" if quantum else "classical"
    return f"{seed}-{side}-{kind}-order{order}"


def _complete(seed, side, quantum, order):
    fd = load_seed_file(os.path.join(SEEDS, f"{seed}.json"))
    return complete_to_order(initial_diagram(fd, side=side, quantum=quantum,
                                             order=order), order)


def _dump(dg) -> str:
    return json.dumps(dg.to_json(), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("case", CASES, ids=[_name(*c) for c in CASES])
def test_completion_matches_golden(case):
    dg = _complete(*case)
    with open(os.path.join(GOLDEN, f"{_name(*case)}.json"), encoding="utf-8") as fh:
        assert _dump(dg) == fh.read()
    assert dg.is_consistent(grid(3), case[3])


def _regenerate() -> None:
    os.makedirs(GOLDEN, exist_ok=True)
    for case in CASES:
        with open(os.path.join(GOLDEN, f"{_name(*case)}.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(_dump(_complete(*case)))


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_completion_golden.py --regen")
    _regenerate()
