import itertools
import os

import pytest

import x_mutation_oracle as oracle
from qca import fixtures, mutation
from qca.checks import A2_SEQ, double_mutation_is_identity, q1_specializes
from qca.commutative import CPoly, CRational
from qca.duality import PStarHom
from qca.fixtures import a2_tables
from qca.mutation import (
    AMutationStep,
    XMutationStep,
    a_torus,
    apply_mutation_sequence,
    classical_a_table,
    classical_x_table,
    mutate_word,
    quantum_a_table,
    quantum_x_table,
    quantum_x_variables,
    word_to_classical,
    x_torus,
)
from qca.scalars import ONE
from qca.scatter import initial_diagram
from qca.seeds import Seed, load_seed_file, make_fixed_data
from qca.words import FactoredWord, dilog_pairings, words_equal


def crat(fd, num_terms, den_terms=None):
    num = CPoly(fd.n, num_terms)
    dens = [CPoly(fd.n, den_terms)] if den_terms else []
    return CRational(num, dens)


def test_mu_sharp_mu_prime_compose():
    # the reference mu# o mu' equals the one-step mutation on generators,
    # A2, every step
    fd = a2_tables()
    alg = x_torus(fd)
    seed = Seed(fd)
    for k in A2_SEQ:
        nxt = seed.mutate(k)
        for i in range(2):
            w = FactoredWord.monomial(alg, nxt.basis[i])
            via_parts = oracle.mu_sharp_word(oracle.mu_prime_word(w, k, seed), k, seed)
            direct = mutate_word(w, k, seed)
            assert words_equal(via_parts, direct, 10)
        seed = nxt


def test_mu_prime_identity_branch():
    # mu' at i=k in cluster coordinates is inversion: on the Weyl monomial
    # X^{e_{k;s'}} = X^{-e_k} it is the identity twist, also where c_k has
    # a negative entry
    fd = a2_tables()
    alg = x_torus(fd)
    for seed in (Seed(fd), Seed(fd).mutate(1)):
        step = XMutationStep(seed, 1, True)
        v = tuple(-x for x in seed.basis[1])
        # the twist exponent -{v, e_k} d_k is the conjugation's pairing p_v
        (p,) = dilog_pairings(alg, step.conjugation.h, seed.basis[1], [v]).values()
        assert p == 0 and step.twist(p, ONE) == ONE
        monomial = FactoredWord.monomial(alg, v)
        assert step.apply(monomial).render() == monomial.render()
    assert step.cminus is not None  # the second twist is not the identity


def test_involutivity_variables():
    # mutating twice restores every cluster variable (A2 rows 0 and 2)
    assert double_mutation_is_identity(a2_tables(), 0)
    assert double_mutation_is_identity(a2_tables(), 1)


def test_star_homomorphism():
    # star o mu = mu o star on generators
    fd = a2_tables()
    alg = x_torus(fd)
    seed = Seed(fd)
    for k in (0, 1):
        nxt = seed.mutate(k)
        for i in range(2):
            w = FactoredWord.monomial(alg, nxt.basis[i])
            assert words_equal(mutate_word(w, k, seed).star(),
                               mutate_word(w.star(), k, seed), 10)


def test_classical_a_table_laurent():
    # Laurent phenomenon: A-side rows have monomial denominators
    fd = a2_tables()
    for coeff in (False, True):
        rows = classical_a_table(fd, A2_SEQ, with_coefficients=coeff)
        for seed, vals in rows:
            for v in vals:
                # the reduced denominator is a monomial
                assert all(f.is_monomial() for f in v.den), v.render()


def test_a_classical_example():
    # eps = ((0,1),(-1,0)), no coefficients, mu_1: A1 -> (A2 + 1)/A1
    fd = make_fixed_data([[0, 1], [-1, 0]])
    rows = classical_a_table(fd, [0], with_coefficients=False)
    _, vals = rows[1]
    expect = crat(fd, {(0, 1): 1, (0, 0): 1}, {(1, 0): 1})
    assert vals[0] == expect
    assert vals[1] == CRational.variable(2, 1)


def test_aprin_reduces_to_a_classical_at_t1():
    fd = a2_tables()
    rows_t = classical_a_table(fd, A2_SEQ, with_coefficients=True)
    rows_0 = classical_a_table(fd, A2_SEQ, with_coefficients=False)
    for (s1, vt), (s2, v0) in zip(rows_t, rows_0):
        for a, b in zip(vt, v0):
            assert a.subs_t_one() == b


def test_apply_mutation_sequence_modes():
    fd = a2_tables()
    rows = apply_mutation_sequence(fd, A2_SEQ, "x-quantum-coeff")
    assert len(rows) == 6
    assert rows[5]["cvectors"] == [[0, 1], [1, 0]]
    assert rows[0]["variables"] == ["X1", "X2"]
    empty = apply_mutation_sequence(fd, [], "x-classical")
    assert len(empty) == 1
    with pytest.raises(ValueError):
        apply_mutation_sequence(fd, [1], "bogus-mode")


def test_apply_sequence_involution_rows():
    # row 2 equals row 0 after mutating twice in the same direction
    fd = a2_tables()
    rows = apply_mutation_sequence(fd, [1, 1], "x-quantum-coeff")
    assert rows[2]["epsilon"] == rows[0]["epsilon"]
    assert rows[2]["cvectors"] == rows[0]["cvectors"]
    assert double_mutation_is_identity(fd, 1, order=12)


SEEDS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos", "seeds")


def _seed_and_sequence(name, seq):
    """A demo seed and a 1-based CLI sequence, as the table commands read them."""
    fd = load_seed_file(os.path.join(SEEDS, f"{name}.json"))
    return fd, [int(k) - 1 for k in seq.split(",")]


@pytest.mark.parametrize("name,seq", [
    ("a2", "2,1,2,1,2"), ("a23", "1,2,1,2"), ("a23", "2,2,1"),
    ("a2_scat", "1,2,1,2,1"), ("rank3_frozen", "2,1,2")])
def test_a_quantum_table_at_q1_is_the_a_prin_table(name, seq):
    # mixed-direction sequences: atoms whose monomials sit at different
    # coordinates along the mutated direction
    fd, seq = _seed_and_sequence(name, seq)
    quantum = quantum_a_table(fd, seq)
    classical = classical_a_table(fd, seq, with_coefficients=True)
    assert len(quantum) == len(classical) == len(seq) + 1
    for (_, words), (_, variables) in zip(quantum, classical):
        assert [word_to_classical(w) for w in words] == variables


def short_sequences(fd, top=3):
    """Every mutation sequence of length <= ``top`` over the unfrozen
    directions, the empty one and repeated directions included."""
    return [list(seq) for length in range(top + 1)
            for seq in itertools.product(fd.unfrozen, repeat=length)]


@pytest.mark.parametrize("with_coefficients", [True, False])
@pytest.mark.parametrize("name", ["a2", "a23", "rank3", "rank3-frozen"])
def test_x_quantum_tables_at_q1_are_the_classical_tables(name, with_coefficients):
    fd = fixtures.ALL[name]()
    for seq in short_sequences(fd):
        quantum = quantum_x_table(fd, seq, with_coefficients)
        classical = classical_x_table(fd, seq, with_coefficients)
        assert len(quantum) == len(classical) == len(seq) + 1
        assert q1_specializes(quantum, classical), seq


@pytest.mark.parametrize("name", ["a2", "a23", "a2-scattering"])
def test_a_quantum_tables_at_q1_are_the_a_prin_tables(name):
    fd = fixtures.ALL[name]()
    for seq in short_sequences(fd):
        quantum = quantum_a_table(fd, seq)
        classical = classical_a_table(fd, seq, with_coefficients=True)
        assert len(quantum) == len(classical) == len(seq) + 1
        assert q1_specializes(quantum, classical), seq


def test_a2_quantum_pentagon_ends_in_the_swapped_initial_cluster():
    fd, seq = _seed_and_sequence("a2", "2,1,2,1,2")
    _, words = quantum_a_table(fd, seq)[-1]
    alg = words[0].algebra
    for w, e in zip(words, ((0, 1), (1, 0))):
        assert words_equal(w, FactoredWord.monomial(alg, e), 6)


@pytest.mark.parametrize("name", ["a2", "a23", "a2-scattering", "rank3-frozen"])
def test_a_side_double_mutation_is_the_identity(name):
    # for every prefix of length <= 2 and every direction k, the row after
    # prefix + [k, k] equals the row after prefix
    fd = fixtures.ALL[name]()
    failed = []
    for length in range(3):
        for prefix in itertools.product(fd.unfrozen, repeat=length):
            for k in fd.unfrozen:
                rows = quantum_a_table(fd, list(prefix) + [k, k])
                before, after = rows[length][1], rows[-1][1]
                if not all(words_equal(a, b, 6) for a, b in zip(after, before)):
                    failed.append((prefix, k))
    assert failed == []


def test_a_quantum_table_builds_one_binomial_per_mutation(monkeypatch, cold_caches):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return binomial(*args, **kwargs)

    binomial = mutation.a_mutation_binomial
    monkeypatch.setattr(mutation, "a_mutation_binomial", counted)
    fd, seq = _seed_and_sequence("a2", "2,1,2,1,2")
    quantum_a_table(fd, seq)
    assert calls == seq
    # the steps are shared: a second table builds no binomial
    quantum_a_table(fd, seq)
    assert calls == seq


def test_a_mutation_step_is_mutate_a_word():
    # one step serves every word as the one-call form does, powers included
    fd, seq = _seed_and_sequence("a23", "2,2,1")
    rows = quantum_a_table(fd, seq)
    seed = Seed(fd)
    for k in fd.unfrozen:
        step = AMutationStep(seed, k, True)
        for _, words in rows:
            for w in words:
                assert step.apply(w).render() == mutation.mutate_a_word(w, k, seed).render()


def test_tori_are_built_once_per_fixed_data(monkeypatch):
    # equal fixed data share one X-torus and one A-torus, and every layer
    # builds its words on them; the bundled fixture is one shared object,
    # so its twin is built afresh
    fd, twin = fixtures.a23(), make_fixed_data([[0, -1], [1, 0]], d=[2, 3])
    assert fd == twin and fd is not twin
    xalg, aalg = x_torus(fd), a_torus(fd)
    assert x_torus(twin) is xalg and a_torus(twin) is aalg
    _, words = quantum_x_variables(twin, [0, 1], True)
    assert {id(w.algebra) for w in words} == {id(xalg)}
    seed = Seed(twin)
    assert XMutationStep(seed, 0, True).algebra is xalg
    assert AMutationStep(seed, 0, True).algebra is aalg
    assert PStarHom(twin).atorus is aalg
    assert initial_diagram(twin, quantum=True).torus is aalg
    # a frozen direction is rejected before the A-torus, and so any
    # compatible pair, is asked for
    def unasked(fd):
        raise AssertionError("the A-torus was asked for")

    monkeypatch.setattr(mutation, "a_torus", unasked)
    with pytest.raises(ValueError, match="direction 2 is frozen"):
        AMutationStep(Seed(fixtures.rank3_frozen()), 2, True)
