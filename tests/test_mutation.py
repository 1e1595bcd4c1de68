import pytest

from qca.checks import A2_SEQ, double_mutation_is_identity
from qca.commutative import CPoly, CRational
from qca.fixtures import a2_tables
from qca.mutation import (
    apply_mutation_sequence,
    classical_a_table,
    mu_prime_word,
    mu_sharp_word,
    mutate_word,
    x_torus,
)
from qca.seeds import Seed, make_fixed_data
from qca.words import FactoredWord, words_equal


def crat(fd, num_terms, den_terms=None):
    num = CPoly(fd.n, num_terms)
    dens = [CPoly(fd.n, den_terms)] if den_terms else []
    return CRational(num, dens)


def test_mu_sharp_mu_prime_compose():
    # mu# o mu' equals the one-step mutation on generators, A2, every step
    fd = a2_tables()
    alg = x_torus(fd)
    seed = Seed(fd)
    for k in A2_SEQ:
        nxt = seed.mutate(k)
        for i in range(2):
            w = FactoredWord.monomial(alg, nxt.basis[i])
            via_parts = mu_sharp_word(mu_prime_word(w, k, seed), k, seed)
            direct = mutate_word(w, k, seed)
            assert words_equal(via_parts, direct, 10)
        seed = nxt


def test_mu_prime_identity_branch():
    # mu' at i=k in cluster coordinates is inversion: on the Weyl monomial
    # X^{e_{k;s'}} = X^{-e_k} it is the identity twist
    fd = a2_tables()
    alg = x_torus(fd)
    seed = Seed(fd)
    w = FactoredWord.monomial(alg, (0, -1))
    assert words_equal(mu_prime_word(w, 1, seed), w, 8)


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
                assert v.is_laurent_polynomial(), v.render()


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
