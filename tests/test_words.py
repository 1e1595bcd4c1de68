from fractions import Fraction

import pytest

from qca.qtorus import QTorusElement, SkewLattice
from qca.scalars import ONE, qpow, vpow
from qca.words import (
    DilogConjugation,
    ExpansionError,
    FactoredWord,
    Series,
    choose_grading,
    words_equal,
)


def x_lattice(w12=1):
    return SkewLattice.make([[0, w12], [-w12, 0]])


def a23_lattice():
    return SkewLattice.make(
        [[0, Fraction(1, 2)], [Fraction(-1, 2), 0]], labels=("A1", "A2"))


def binom(alg, n, coeff):
    return QTorusElement.one(alg) + QTorusElement.monomial(alg, n, coeff)


def test_geometric_expansion():
    # (1 + qX2)^{-1} = 1 - qX2 + q^2 X2^2 - ... in the cone spanned by e2
    alg = x_lattice(1)
    w = FactoredWord.from_element(binom(alg, (0, 1), qpow(1)), -1)
    s = w.expand((0, 1), 2)
    assert s.coefficient((0, 0)) == ONE
    assert s.coefficient((0, 1)) == -qpow(1)
    assert s.coefficient((0, 2)) == qpow(2)


def test_monomial_word_expansion():
    alg = x_lattice(1)
    w = FactoredWord.monomial(alg, (2, -1), qpow(Fraction(1, 2)))
    s = w.expand((1, 1), 3)
    assert s.terms == {(2, -1): qpow(Fraction(1, 2))}


def test_q_commutation_rewrite():
    # (1+qX2)^{-1} X1^{-1} == X1^{-1} (1+q^3 X2)^{-1} when {e1,e2}=1
    alg = x_lattice(1)
    lhs = FactoredWord.from_element(binom(alg, (0, 1), qpow(1)), -1) \
        * FactoredWord.monomial(alg, (-1, 0))
    rhs = FactoredWord.monomial(alg, (-1, 0)) \
        * FactoredWord.from_element(binom(alg, (0, 1), qpow(3)), -1)
    assert words_equal(lhs, rhs, 8)
    assert not words_equal(lhs, rhs.scale(qpow(1)), 8)


def test_word_inverse_and_star():
    alg = x_lattice(1)
    w = FactoredWord.monomial(alg, (1, 0), qpow(2)) \
        * FactoredWord.from_element(binom(alg, (0, 1), qpow(1)), -1)
    assert words_equal(w * w.inverse(), FactoredWord.one(alg), 10)
    # star(w)^{-1} == star(w^{-1})
    assert words_equal(w.inverse().star(), w.star().inverse(), 10)


def test_trivial_equalities():
    alg = x_lattice(1)
    w = FactoredWord.monomial(alg, (1, 0))
    assert words_equal(w, w, 6)
    assert not words_equal(w, w.scale(qpow(1)), 6)


def test_no_unique_leading_monomial():
    alg = x_lattice(1)
    # X1 + X2 has two degree-1 exponents under the (1,1) grading
    p = QTorusElement.generator(alg, 0) + QTorusElement.generator(alg, 1)
    w = FactoredWord.from_element(p, -1)
    with pytest.raises(ExpansionError):
        w.expand((1, 1), 4)
    # but a separating grading works
    s = w.expand((1, 2), 4)
    assert s.coefficient((-1, 0)) == ONE


def test_choose_grading_separates():
    alg = x_lattice(1)
    p = QTorusElement.generator(alg, 0) + QTorusElement.generator(alg, 1)
    w = FactoredWord.from_element(p, -1)
    dvec = choose_grading([w], 2)
    assert dvec[0] != dvec[1]


def test_choose_grading_gives_every_inverted_atom_a_unique_lowest_term():
    # under (1, 1) the atom is nonzero on the differences (1, -2), (2, -3)
    # from its lex-first exponent, but its two lowest terms tie at degree -1
    alg = x_lattice(1)
    p = QTorusElement(alg, {(0, 0): ONE, (1, -2): qpow(2), (2, -3): qpow(6)})
    w = FactoredWord.from_element(p, -1)
    with pytest.raises(ExpansionError):
        w.expand((1, 1), 4)
    assert choose_grading([w], 2) == (1, 2)
    assert words_equal(w, w, 4)
    assert not words_equal(w, w.scale(qpow(1)), 4)


def conjugation_oracle(alg, word, h, coeff, direction, action, dvec, order):
    """Series-level conjugation Psi^{action} . x . Psi^{-action}.

    Independent of the finite-product route: builds the dilogarithm as a
    truncated series and multiplies.
    """
    from qca.words import degree
    from test_qtorus import dilog_series_coefficients

    K = order + 6  # slack so the result is honestly exact to ``order``
    ddir = degree(dvec, direction)

    def dilog_series(hh):
        coeffs = dilog_series_coefficients(hh, K)
        return Series(alg, dvec, K * ddir, {
            tuple(l * d for d in direction): coeffs[l] * coeff ** l
            for l in range(K + 1)
        })

    psi = dilog_series(h)
    psi_inv = dilog_series(-h)  # Psi_{q^{-1}} = Psi_q^{-1}
    base = word.expand(dvec, 2 * K)
    if action == 1:
        res = psi * base * psi_inv
    else:
        res = psi_inv * base * psi
    assert res.cutoff is None or res.cutoff >= order
    return res.truncate(order)


def assert_series_match(got, want, floor):
    cuts = [c for c in (got.cutoff, want.cutoff) if c is not None]
    cut = min(cuts) if cuts else None
    assert cut is None or cut >= floor
    if cut is not None:
        got, want = got.truncate(cut), want.truncate(cut)
    assert got == want


def test_dilog_conjugation_matches_series():
    # the finite-product conjugation equals the series conjugation
    alg = x_lattice(1)
    direction = (0, 1)
    h = Fraction(1)
    for action in (1, -1):
        for n in [(1, 0), (-1, 0), (2, -1)]:
            w = FactoredWord.monomial(alg, n)
            conj = DilogConjugation(alg, h, ONE, direction, action).apply(w)
            dvec = (0, 1)
            got = conj.expand(dvec, 6)
            want = conjugation_oracle(alg, w, h, ONE, direction, action, dvec, 4)
            assert_series_match(got, want, 2)


def test_dilog_conjugation_binomial_atom():
    # conjugating an inverted binomial atom stays exact
    alg = x_lattice(1)
    direction = (1, 0)
    h = Fraction(1)
    p = binom(alg, (0, 1), qpow(1))
    for action in (1, -1):
        for power in (1, -1):
            w = FactoredWord.from_element(p, power)
            conj = DilogConjugation(alg, h, ONE, direction, action).apply(w)
            dvec = (1, 1)
            got = conj.expand(dvec, 6)
            want = conjugation_oracle(alg, w, h, ONE, direction, action, dvec, 4)
            assert_series_match(got, want, 2)


def test_eq_g2_form():
    # Psi_{v^3}(A2^{-3})^{-1} A^u Psi_{v^3}(A2^{-3}) for u = f1:
    # equals (1 + v^3 A2^{-3}) A^{f1}
    alg = a23_lattice()
    h = Fraction(-3, 2)  # Q = q_BZ^{-3/2} = v^3
    w = FactoredWord.monomial(alg, (1, 0))
    conj = DilogConjugation(alg, h, ONE, (0, -3), -1).apply(w)
    expect = FactoredWord.from_element(binom(alg, (0, -3), vpow(3))) \
        * FactoredWord.monomial(alg, (1, 0))
    assert words_equal(conj, expect, 8, dvec=(1, -1))


def test_eq_g1_form():
    # Psi_{v^2}(A1^2)^{-1} A^u Psi_{v^2}(A1^2) for u = f2:
    # equals (1 + v^2 A1^2) A^{f2}
    alg = a23_lattice()
    h = Fraction(-1)  # Q = q_BZ^{-1} = v^2
    w = FactoredWord.monomial(alg, (0, 1))
    conj = DilogConjugation(alg, h, ONE, (2, 0), -1).apply(w)
    expect = FactoredWord.from_element(binom(alg, (2, 0), vpow(2))) \
        * FactoredWord.monomial(alg, (0, 1))
    assert words_equal(conj, expect, 8, dvec=(1, -1))


def conjugation_factors(alg, u: int, direction, h):
    """The finite product with Psi^{-1} A^m Psi = (this word) * A^m on a
    monomial with pairing value u: the empty word for u = 0,
    (1+Qy)...(1+Q^{2u-1}y) for u > 0 and
    (1+Q^{-1}y)^{-1}...(1+Q^{1-2|u|}y)^{-1} for u < 0, with y = X^direction
    and Q = q^h.  This is the left-multiplied normal form; the engine's
    right-multiplied conjugation carries the opposite q-exponent signs, the
    two being equal after commuting past A^m."""
    s = 1 if u > 0 else -1
    binomials = DilogConjugation(alg, h, ONE, direction).factors(s, abs(u))
    return FactoredWord(alg, ONE, [(b, s) for b in binomials])


def test_dilog_conjugation_factors_spec_values():
    # u=1 with base v^3, A2^{-3}: single factor (1 + v^3 A2^{-3})
    alg = a23_lattice()
    h = Fraction(-3, 2)
    w = conjugation_factors(alg, 1, (0, -3), h)
    assert len(w.atoms) == 1 and w.atoms[0][1] == 1
    assert w.atoms[0][0] == binom(alg, (0, -3), vpow(3))
    # u=0: empty product
    assert conjugation_factors(alg, 0, (0, -3), h).atoms == ()
    # u=-2: (1+v^{-3}A2^{-3})^{-1} (1+v^{-9}A2^{-3})^{-1}
    w = conjugation_factors(alg, -2, (0, -3), h)
    assert [s for _, s in w.atoms] == [-1, -1]
    assert w.atoms[0][0] == binom(alg, (0, -3), vpow(-3))
    assert w.atoms[1][0] == binom(alg, (0, -3), vpow(-9))
    # oracle: A^{-2f1} (pairing value -2) conjugated by the truncated dilog
    # series; the factors multiply on the left in this normal form
    base = FactoredWord.monomial(alg, (-2, 0))
    got = (w * base).expand((1, -1), 8)
    want = conjugation_oracle(alg, base, h, ONE, (0, -3), -1, (1, -1), 4)
    assert_series_match(got, want, 2)


def test_anchor_check_raises_under_python_O(monkeypatch):
    # the anchor choice makes every shifted pairing agree in sign with the
    # action; the check is a raised error, not an assert, so it holds under
    # python -O as well.  Flipping the second pairing call breaks it.
    import qca.words as words

    alg = x_lattice(1)
    p = binom(alg, (1, 0), ONE)
    pairings = words.dilog_pairings
    calls = []

    def flipped(*args):
        calls.append(args)
        out = pairings(*args)
        return out if len(calls) == 1 else {v: -pv for v, pv in out.items()}

    monkeypatch.setattr(words, "dilog_pairings", flipped)
    with pytest.raises(ArithmeticError, match="anchor choice guarantees polynomial factors"):
        DilogConjugation(alg, Fraction(1), ONE, (0, 1), 1).apply(
            FactoredWord.from_element(p))
    monkeypatch.undo()
    conj = DilogConjugation(alg, Fraction(1), ONE, (0, 1), 1).apply(
        FactoredWord.from_element(p))
    assert len(conj.atoms) == 3


def test_conjugation_builds_each_binomial_once_per_call():
    alg = a23_lattice()
    h = Fraction(-3, 2)
    # A1 and A1^2 conjugate to (1 + v^3 A2^-3) and to that binomial times
    # (1 + v^9 A2^-3)
    w = FactoredWord.monomial(alg, (1, 0)) * FactoredWord.from_element(
        binom(alg, (1, 1), vpow(1)), -1) * FactoredWord.monomial(alg, (2, 0))
    direction = (0, -3)

    def binomials(word):
        return [p for p, _ in word.atoms
                if p.terms.keys() == {(0, 0), direction}]

    first = DilogConjugation(alg, h, ONE, direction, -1).apply(w)
    again = DilogConjugation(alg, h, ONE, direction, -1).apply(w)
    made = binomials(first)
    assert len(made) > len({id(p) for p in made})  # some binomial repeats
    assert len({id(p) for p in made}) == len({p.render() for p in made})
    assert not {id(p) for p in made} & {id(p) for p in binomials(again)}
    assert first.render() == again.render()
    # the same word as conjugating atom by atom
    for action in (1, -1):
        whole = DilogConjugation(alg, h, ONE, direction, action).apply(w)
        parts = FactoredWord.one(alg)
        for p, s in w.atoms:
            parts = parts * DilogConjugation(alg, h, ONE, direction, action).apply(
                FactoredWord(alg, ONE, ((p, s),)))
        assert whole.render() == parts.render()
        assert words_equal(whole, parts, 6)
