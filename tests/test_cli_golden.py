"""Golden CLI output: every case below is compared byte for byte with a file
under ``tests/golden/``.

The determinism tests compare a run with itself; these compare a run with
output recorded earlier, so a change to the arithmetic underneath the CLI
that alters a single rendered character fails here.  Regenerate the files
only when an output change is intended and checked:

    PYTHONPATH=src python tests/test_cli_golden.py --regen
"""

import contextlib
import io
import os
import sys

import pytest

from qca.cli import main
from qca.mutation import MODES

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
SEEDS = os.path.join(os.path.dirname(HERE), "demos", "seeds")

# Short sequences keep the quantum words (which grow exponentially with
# depth) small enough that the whole file runs in a few seconds.
# A-quantum words grow fastest, so each seed pins them on a one-step
# sequence; one mixed-direction A2 table is recorded once below.
TABLE_SEQ = {"a2": "2,1,2,1,2", "a23": "1,2,1", "a2_scat": "1,2,1",
             "rank3": "1,3,2", "rank3_frozen": "2,1"}
MUTATE_SEQ = {"a2": "1,2,1", "a23": "2,1", "a2_scat": "2,1", "rank3": "2,3",
              "rank3_frozen": "1,2"}
A_QUANTUM_SEQ = {"table": "1", "mutate": "2"}


def _cases():
    cases = []
    for name in sorted(TABLE_SEQ):
        seed = os.path.join(SEEDS, f"{name}.json")
        for verb, seq in (("table", TABLE_SEQ[name]), ("mutate", MUTATE_SEQ[name])):
            for mode in MODES:
                s = A_QUANTUM_SEQ[verb] if mode == "a-quantum" else seq
                for fmt in ("text", "json"):
                    cases.append((f"{verb}-{name}-{mode}-{fmt}",
                                  [verb, "--seed", seed, "--sequence", s,
                                   "--mode", mode, "--format", fmt]))
    cases.append(("table-a2-a-quantum-mixed-text",
                  ["table", "--seed", os.path.join(SEEDS, "a2.json"),
                   "--sequence", "1,2", "--mode", "a-quantum"]))
    for name in ("a2_scat", "a23"):
        seed = os.path.join(SEEDS, f"{name}.json")
        cases.append((f"scatter-{name}-classical-json",
                      ["scatter", "--seed", seed, "--order", "2", "--format", "json"]))
        cases.append((f"scatter-{name}-quantum-json",
                      ["scatter", "--seed", seed, "--order", "2", "--quantum",
                       "--format", "json"]))
    a23 = os.path.join(SEEDS, "a23.json")
    cases.append(("scatter-a23-quantum-text",
                  ["scatter", "--seed", a23, "--order", "2", "--quantum"]))
    cases.append(("theta-a23-text",
                  ["theta", "--seed", a23, "--gvector=-3,5", "--basepoint", "1,1",
                   "--order", "4", "--filter-exponent", "1,-1"]))
    cases.append(("theta-a23-json",
                  ["theta", "--seed", a23, "--gvector=1,1", "--basepoint", "1/2,1/3",
                   "--order", "2", "--format", "json"]))
    for name in ("a23", "rank3_frozen"):
        seed = os.path.join(SEEDS, f"{name}.json")
        cases.append((f"pstar-{name}-text",
                      ["pstar", "--seed", seed, "--check-intertwining",
                       "--order", "6"]))
    cases.append(("pstar-a2-json",
                  ["pstar", "--seed", os.path.join(SEEDS, "a2.json"),
                   "--check-intertwining", "--order", "6", "--format", "json"]))
    for name in ("a2", "a23", "rank3"):
        seed = os.path.join(SEEDS, f"{name}.json")
        cases.append((f"poisson-{name}-text", ["poisson", "--seed", seed]))
    cases.append(("poisson-a23-json",
                  ["poisson", "--seed", a23, "--k", "1", "--format", "json"]))
    cases.append(("check-all-text", ["check"]))
    return cases


CASES = _cases()


def _record(argv) -> str:
    """Exit code, stdout and stderr of one in-process call, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    # seed paths are absolute; keep the files independent of the checkout
    return (f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n"
            + err.getvalue().replace(SEEDS + os.sep, ""))


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, argv):
    with open(os.path.join(GOLDEN, f"{name}.txt"), encoding="utf-8") as fh:
        want = fh.read()
    assert _record(argv) == want


def _regenerate() -> None:
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in CASES:
        with open(os.path.join(GOLDEN, f"{name}.txt"), "w", encoding="utf-8") as fh:
            fh.write(_record(argv))


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_cli_golden.py --regen")
    _regenerate()
