"""Words reduced as they are built (``FactoredWord.reduced``).

The quantum tables print reduced words.  Two things are checked here:

- an inverse pair of atoms cancels across an atom that commutes with it
  and not across one that does not;
- mu_k mu_k = id is decided structurally: on every demo seed, after every
  prefix of length <= 2, with and without coefficients, each cluster
  variable times the inverse of its double mutation reduces to no atom
  and prefix 1;
- every quantum row that the golden files print (the CLI cases of
  test_cli_golden.py and the quantum table of demos/mutation_tables.py)
  equals, as an element, the row printed before words were reduced, both
  by ``words_equal`` and by the expansion of the unreduced quotient.  The
  rows printed then are rebuilt by the unreduced pipelines (the per-word
  oracle with its tidy for the X-side, the A-mutation steps without
  reduction for the A-side), and their renderings are pinned to the
  digest of those golden rows.
"""

import hashlib
import itertools
import os

import pytest

import x_mutation_oracle as oracle
from test_cli_golden import CASES, GOLDEN
from qca.checks import A2_SEQ
from qca.cli import _directions, _parse_list
from qca.fixtures import a2_tables
from qca.mutation import AMutationStep, TABLES, _steps, a_torus, quantum_x_variables, x_torus
from qca.qtorus import QTorusElement
from qca.scalars import ONE
from qca.seeds import load_seed_file
from qca.words import FactoredWord, choose_grading, words_equal

SEEDS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos", "seeds")
QUANTUM = ("x-quantum", "x-quantum-coeff", "a-quantum")
# sha256 of the rendered rows of every case of golden_cases(), in order, as
# the golden files held them before words were reduced
OLD_ROWS = "4f6344fdd05d46ae3adc57c6715fea517bf2699e18ac16c04af1b3afa33c4b62"
K = 6


def golden_cases():
    """(name, fixed data, 0-based sequence, mode) of every quantum table the
    golden files print, each once."""
    out, seen = [], set()
    for name, argv in CASES:
        if argv[0] not in ("table", "mutate") or argv[argv.index("--mode") + 1] not in QUANTUM:
            continue
        with open(os.path.join(GOLDEN, f"{name}.txt"), encoding="utf-8") as fh:
            if fh.readline() != "exit 0\n":
                continue  # a seed with no compatible pair prints no row
        key = (argv[2], argv[4], argv[6])  # seed, sequence, mode
        if key not in seen:
            seen.add(key)
            fd = load_seed_file(key[0])
            out.append((name, fd, _directions(_parse_list(key[1], int), fd), key[2]))
    out.append(("demo-mutation_tables", a2_tables(), list(A2_SEQ), "x-quantum-coeff"))
    return out


def unreduced_a_table(fd, sequence):
    """The A-side table with no word reduced: each row's f-basis monomials
    pulled back through the A-mutation steps as they come."""
    alg = a_torus(fd)
    seeds, steps = _steps(fd, sequence, AMutationStep, True)
    rows = []
    for i, seed in enumerate(seeds):
        words = []
        for v in seed.f_basis():
            w = FactoredWord.monomial(alg, v)
            for step in reversed(steps[:i]):
                w = step.apply(w)
            words.append(w)
        rows.append((seed, words))
    return rows


def old_table(fd, sequence, mode):
    if mode == "a-quantum":
        return unreduced_a_table(fd, sequence)
    return oracle.quantum_x_table(fd, sequence, mode == "x-quantum-coeff")


def test_changed_golden_rows_equal_the_old_rows():
    digest = hashlib.sha256()
    cases = golden_cases()
    assert len(cases) == 30
    for name, fd, seq, mode in cases:
        new, old = TABLES[mode](fd, seq), old_table(fd, seq, mode)
        assert len(new) == len(old) == len(seq) + 1
        for (seed, ws), (seed2, ws2) in zip(new, old):
            assert seed.history == seed2.history
            for w, w2 in zip(ws, ws2):
                digest.update(w2.render().encode() + b"\n")
                # structurally, and by the unreduced expansion at K
                assert words_equal(w, w2, K), (name, seed.history)
                assert oracle.words_equal(w, w2, K), (name, seed.history)
    assert digest.hexdigest() == OLD_ROWS


@pytest.mark.parametrize("seed_name", sorted(f[:-5] for f in os.listdir(SEEDS)))
def test_double_mutation_reduces_to_nothing(seed_name):
    fd = load_seed_file(os.path.join(SEEDS, f"{seed_name}.json"))
    prefixes = [list(p) for n in range(3) for p in itertools.product(fd.unfrozen, repeat=n)]
    for prefix, coeff in itertools.product(prefixes, (False, True)):
        _, before = quantum_x_variables(fd, prefix, coeff)
        for k in fd.unfrozen:
            _, after = quantum_x_variables(fd, prefix + [k, k], coeff)
            for w, w2 in zip(before, after):
                left = (w * w2.inverse()).reduced()
                assert not left.atoms and left.prefix.is_one(), (prefix, k, coeff)


def test_inverse_pair_cancels_only_across_commuting_atoms():
    # on A2, X1 and X1^2 commute and X1 and X2 do not
    alg = x_torus(a2_tables())

    def poly(*exps):
        return QTorusElement(alg, {n: ONE for n in ((0, 0),) + exps})

    a, x2 = poly((1, 0)), FactoredWord.monomial(alg, (0, 1))
    for b, commutes in ((poly((2, 0)), True), (poly((0, 1)), False)):
        for m in (FactoredWord.monomial(alg, (0, 0)), x2):
            ma = m * FactoredWord.from_element(a)
            w = ma * FactoredWord.from_element(b) * ma.inverse()
            r = w.reduced()
            assert len(r.atoms) == (1 if commutes else 3)
            assert words_equal(w, m * FactoredWord.from_element(b) * m.inverse(), K) == commutes
            dvec = choose_grading([w], alg.rank)
            assert r.expand(dvec, K) == w.expand(dvec, K)
