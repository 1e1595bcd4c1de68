"""Exact right division against the geometric-series inverse.

The oracle is the inverse the engine used to form: P^{-1} = M^{-1} sum_j
(-t)^j with M the unique lowest term of P and t = M^{-1} P - 1, multiplied
onto the dividend afterwards.  A truncated quotient is unique, so the kernels
must agree with it structurally: the same exponents, cutoff and coefficient
representations (``scale``, ``_num``, ``_den``).  Two kernels divide: the
QScalar bucket sweep ``Series.over``, and the flat-ring expansion behind
``FactoredWord.expand`` and ``words_equal``, which ``oracle_expand`` checks
through QScalar Series products and the geometric inverse.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qca.qtorus import QTorusElement, SkewLattice, vec_neg
from qca.scalars import ONE, QScalar, qpow, tpow, tvar
from qca.words import ExpansionError, FactoredWord, Series, degree, words_equal

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def min_degree(series: Series):
    """The lowest degree of a term of ``series``, None when it has none."""
    return min((degree(series.dvec, n) for n in series.terms), default=None)


def geometric_inverse(p: Series, rel_order: int) -> Series:
    """P^{-1} exact to relative order ``rel_order`` by the geometric series."""
    if not p.terms:
        raise ExpansionError("cannot invert zero series")
    mdeg = min(degree(p.dvec, n) for n in p.terms)
    anchors = [n for n in p.terms if degree(p.dvec, n) == mdeg]
    if len(anchors) > 1:
        raise ExpansionError("no unique leading monomial")
    n0 = anchors[0]
    minv = Series(p.algebra, p.dvec, None, {vec_neg(n0): p.terms[n0].inverse()})
    t = ((minv * p) - Series.one(p.algebra, p.dvec)).truncate(rel_order)
    out = Series.one(p.algebra, p.dvec, rel_order)
    power = Series.one(p.algebra, p.dvec, rel_order)
    sign = -1
    tmin = min_degree(t)
    j = 1
    while tmin is not None and j * tmin <= rel_order:
        power = (power * t).truncate(rel_order)
        if power.is_zero():
            break
        out = out + (power.scale(QScalar.integer(sign)) if sign < 0 else power)
        sign = -sign
        j += 1
    return out * minv


def oracle_expand(word: FactoredWord, dvec, order: int) -> Series:
    """FactoredWord.expand with each inverted atom multiplied by its
    geometric-series inverse."""
    out = Series.one(word.algebra, dvec).scale(word.prefix)
    anchor = 0
    for p, s in word.atoms:
        fact = Series(p.algebra, dvec, None, p.terms)
        fmin = min_degree(fact)
        if s == -1:
            fact = geometric_inverse(fact, order)
            fmin = -fmin
        out = (out * fact).truncate(anchor + fmin + order)
        anchor += fmin
    return out


def canonical(c: QScalar) -> bool:
    """True when the normal form of c is unique: its denominator is a
    monomial, or t-free with the gcd computed (under the degree cap).  Past
    the cap, or over a t-dependent sum, equal values may be stored as
    different fractions."""
    den = c.den
    if len(den) == 1 and len(next(iter(den.values())).terms) == 1:
        return True
    return all(ts.monomials().keys() <= {()} for ts in den.values()) \
        and not QScalar._past_gcd_cap(list(c.num), den)


def assert_structurally_equal(got: Series, want: Series):
    assert type(got) is Series and got.dvec == want.dvec
    assert got.cutoff == want.cutoff and got.terms.keys() == want.terms.keys()
    for n, c in got.terms.items():
        w = want.terms[n]
        if canonical(c) and canonical(w):
            assert (c.scale, c._num, c._den) == (w.scale, w._num, w._den)
        else:
            assert c == w


# ---------------------------------------------------------------------------
# Strategies: forms with denominators, gradings with negative and zero
# weights, coefficients with denominators.

@st.composite
def lattices(draw):
    rank = draw(st.sampled_from([2, 3]))
    form = [[Fraction(0)] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            x = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 6)))
            form[i][j], form[j][i] = x, -x
    return SkewLattice.make(form)


def vectors(rank, bound=2):
    return st.tuples(*[st.integers(-bound, bound)] * rank)


def monomials():
    """A nonzero c q^e t1^a with e in (1/6)Z."""
    return st.builds(lambda c, e, k, a: QScalar.term(Fraction(e, k), (a,), c),
                     st.sampled_from([-2, -1, 1, 2]), st.integers(-3, 3),
                     st.integers(1, 6), st.integers(0, 1))


@st.composite
def coefficients(draw):
    """A nonzero sum of one or two such monomials, sometimes divided by
    1 + q^{1/k}."""
    c = QScalar.integer(0)
    while c.is_zero():
        for _ in range(draw(st.integers(1, 2))):
            c = c + draw(monomials())
    if draw(st.integers(0, 3)) == 0:
        c = c / (1 + qpow(Fraction(1, draw(st.integers(1, 3)))))
    return c


@st.composite
def leads(draw):
    """A monomial, sometimes times or over 1 + q^{1/k}: the lowest
    coefficient of a divisor, whose powers make every quotient's
    denominator.  A t-dependent sum there is left to
    test_lowest_coefficient_with_a_t_variable: such fractions are not
    reduced, and their growth made 60 examples take minutes."""
    c = draw(monomials())
    pick = draw(st.integers(0, 3))
    if pick < 2:
        f = 1 + qpow(Fraction(1, draw(st.integers(1, 3))))
        c = c * f if pick else c / f
    return c


def gradings(rank):
    return st.tuples(*[st.integers(-1, 2)] * rank).filter(any)


@st.composite
def divisors(draw, alg, dvec, max_terms=3, lead=leads(), coeffs=coefficients()):
    """An exact series with a unique lowest-degree term: of the drawn
    exponents, those tied at the lowest degree are dropped but the first."""
    exps = draw(st.lists(vectors(alg.rank, 1), min_size=1, max_size=max_terms,
                         unique=True))
    low = min(degree(dvec, n) for n in exps)
    first = next(n for n in exps if degree(dvec, n) == low)
    return Series(alg, dvec, None, {n: draw(lead if n == first else coeffs)
                                    for n in exps if n == first or degree(dvec, n) > low})


@st.composite
def dividends(draw, alg, dvec):
    """A series of up to four terms, exact or truncated at or near a term's
    degree; sometimes with no terms at all (an exact or truncated zero)."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        terms[draw(vectors(alg.rank))] = draw(coefficients())
    cutoff = draw(st.one_of(st.none(), st.integers(-2, 8), st.sampled_from(
        [degree(dvec, n) + off for n in terms for off in (-1, 0, 1)] or [None])))
    return Series(alg, dvec, cutoff, terms)


@st.composite
def division_cases(draw):
    alg = draw(lattices())
    dvec = draw(gradings(alg.rank))
    return (draw(dividends(alg, dvec)), draw(divisors(alg, dvec)),
            draw(st.integers(0, 6)))


# ---------------------------------------------------------------------------
# The kernel.

@PROPERTY
@given(division_cases())
def test_over_matches_the_geometric_series_oracle(case):
    s, p, k = case
    got = s.over(p.terms, k)
    assert_structurally_equal(got, s * geometric_inverse(p, k))
    # the quotient times P gives back the dividend to the quotient's cutoff
    if got.cutoff is not None:
        mdeg = min(degree(p.dvec, n) for n in p.terms)
        back = got * p
        assert back.cutoff == got.cutoff + mdeg
        assert back == s.truncate(back.cutoff)


@PROPERTY
@given(st.data())
def test_inverse_matches_the_geometric_series_oracle(data):
    alg = data.draw(lattices())
    dvec = data.draw(gradings(alg.rank))
    p = data.draw(divisors(alg, dvec, max_terms=4))
    k = data.draw(st.integers(-1, 6))
    assert_structurally_equal(p.inverse(k), geometric_inverse(p, k))


def test_zero_dividend():
    alg = SkewLattice.make([[0, 1], [-1, 0]])
    p = Series(alg, (1, 2), None, {(0, 0): ONE, (1, 0): qpow(1), (0, 1): ONE})
    exact = Series(alg, (1, 2), None, {})
    got = exact.over(p.terms, 4)
    assert got.terms == {} and got.cutoff is None
    assert_structurally_equal(got, exact * geometric_inverse(p, 4))
    truncated = Series(alg, (1, 2), 3, {})
    got = truncated.over(p.terms, 4)
    assert got.terms == {} and got.cutoff == 3
    assert_structurally_equal(got, truncated * geometric_inverse(p, 4))
    # a zero prefix still checks the inverted atom
    word = FactoredWord(alg, QScalar.integer(0), ((QTorusElement(alg, p.terms), -1),))
    assert_structurally_equal(word.expand((1, 2), 4), oracle_expand(word, (1, 2), 4))
    tie = QTorusElement(alg, {(1, 0): ONE, (0, 1): ONE})
    with pytest.raises(ExpansionError):
        FactoredWord(alg, QScalar.integer(0), ((tie, -1),)).expand((1, 1), 4)


def test_monomial_divisor():
    alg = SkewLattice.make([[0, Fraction(1, 3)], [Fraction(-1, 3), 0]])
    c = qpow(Fraction(1, 2)) + tvar(0)
    p = Series(alg, (1, 1), None, {(2, -1): c})
    s = Series(alg, (1, 1), 5, {(0, 0): ONE, (1, 2): qpow(Fraction(-1, 6)),
                                (3, 0): 2 + qpow(1)})
    got = s.over(p.terms, 3)
    # the cutoff is min(5, 0 + 3) less the divisor's degree 1
    assert got.cutoff == 2 and len(got.terms) == 3
    assert_structurally_equal(got, s * geometric_inverse(p, 3))
    # X^m L^{-1} = c^{-1} q^{omega(n0, m)} X^{m - n0}
    assert got.terms[(-2, 1)] == c.inverse()
    assert got.terms[(-1, 3)] == qpow(Fraction(-1, 6)) * c.inverse() \
        * qpow(alg.omega((2, -1), (1, 2)))


def test_division_raises_past_the_packed_range():
    alg = SkewLattice.make([[0, 1], [-1, 0]])
    one = Series.one(alg, (0, 1))
    # q^{4 * 10^8 j} leaves the u-exponent range (below 2^30) at j = 3
    p = {(0, 0): ONE, (0, 1): qpow(4 * 10 ** 8)}
    assert one.over(p, 2).coefficient((0, 2)) == qpow(8 * 10 ** 8)
    with pytest.raises(OverflowError):
        one.over(p, 3)
    with pytest.raises(OverflowError):
        geometric_inverse(Series(alg, (0, 1), None, p), 3)
    # t1^{400 j} leaves the t-exponent range (below 2^10) at j = 3
    p = {(0, 0): ONE, (0, 1): QScalar.t_monomial((400,))}
    assert one.over(p, 2).coefficient((0, 2)) == QScalar.t_monomial((800,))
    with pytest.raises(OverflowError):
        one.over(p, 3)


# ---------------------------------------------------------------------------
# Expansion of words.

@st.composite
def words(draw):
    """Words of one to three atoms with monomial coefficients, as the
    engine's binomials have, and a prefix that may be zero."""
    alg = draw(lattices())
    dvec = draw(gradings(alg.rank))
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        p = draw(divisors(alg, dvec, lead=monomials(), coeffs=monomials()))
        atoms.append((QTorusElement(alg, p.terms), draw(st.sampled_from([1, -1]))))
    prefix = draw(st.one_of(coefficients(), st.just(QScalar.integer(0))))
    return FactoredWord(alg, prefix, atoms), dvec, draw(st.integers(0, 4))


@PROPERTY
@given(words())
def test_expand_matches_the_oracle_path(case):
    word, dvec, order = case
    assert_structurally_equal(word.expand(dvec, order), oracle_expand(word, dvec, order))



def test_lowest_coefficient_with_a_t_variable():
    # a t-dependent denominator is not reduced to a unique normal form, so
    # the two paths may store the X2 coefficient as different fractions
    alg = SkewLattice.make([[0, 1], [-1, 0]])
    two = QScalar.integer(2)
    s = Series(alg, (0, 1), None, {(0, 0): -two, (0, 1): -two})
    p = Series(alg, (0, 1), None, {(0, 0): -two - two * tvar(0), (0, 1): -two})
    got = s.over(p.terms, 1)
    assert_structurally_equal(got, s * geometric_inverse(p, 1))
    t = tvar(0)
    assert got.terms[(0, 1)] == t / ((1 + t) * (1 + t))


# ---------------------------------------------------------------------------
# The flat ring: words whose coefficients have t-exponents of both signs,
# scales whose lcm exceeds the form's denominator, leading coefficients that
# are not units (t-dependent ones included) and zero prefixes.

def signed_monomials(coeffs=(-1, 1)):
    """c q^{e/k} t1^a t2^b with a, b of either sign: tpow of a mixed vector."""
    return st.builds(lambda c, e, k, a: QScalar.term(Fraction(e, k), (), c) * tpow(a),
                     st.sampled_from(coeffs), st.integers(-3, 3),
                     st.sampled_from([1, 2, 3, 5]),
                     st.tuples(st.integers(-2, 2), st.integers(-2, 2)))


@st.composite
def signed_coefficients(draw):
    """A nonzero sum of one or two signed monomials, sometimes over 2 or
    over 1 + q^{1/k}."""
    c = QScalar.integer(0)
    while c.is_zero():
        for _ in range(draw(st.integers(1, 2))):
            c = c + draw(signed_monomials((-2, -1, 1, 2)))
    pick = draw(st.integers(0, 5))
    if pick == 0:
        c = c / 2
    elif pick == 1:
        c = c / (1 + qpow(Fraction(1, draw(st.integers(1, 3)))))
    return c


@st.composite
def any_leads(draw):
    """A unit +-q^e t^a, or a lead that is not one: an integer multiple, a
    t-dependent or q-dependent binomial multiple, or a monomial over
    1 + q^{1/k}."""
    c = draw(signed_monomials())
    pick = draw(st.integers(0, 5))
    if pick == 1:
        c = c * 2
    elif pick == 2:
        c = c * (1 + tvar(0))
    elif pick == 3:
        c = c * (1 + qpow(Fraction(1, draw(st.integers(1, 3)))))
    elif pick == 4:
        c = c / (1 + qpow(Fraction(1, draw(st.integers(1, 3)))))
    return c


@st.composite
def flat_word_on(draw, alg, dvec, zero_prefix=True):
    """One to three atoms whose coefficients are drawn from the above."""
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        p = draw(divisors(alg, dvec, max_terms=2 + len(atoms) % 2, lead=any_leads(),
                          coeffs=signed_coefficients()))
        atoms.append((QTorusElement(alg, p.terms), draw(st.sampled_from([1, -1]))))
    prefixes = signed_coefficients()
    if zero_prefix:
        prefixes = st.one_of(prefixes, st.just(QScalar.integer(0)))
    return FactoredWord(alg, draw(prefixes), atoms)


@st.composite
def flat_words(draw, zero_prefix=True):
    alg = draw(lattices())
    dvec = draw(gradings(alg.rank))
    return draw(flat_word_on(alg, dvec, zero_prefix)), dvec, draw(st.integers(0, 3))


@PROPERTY
@given(flat_words())
def test_flat_expansion_matches_the_oracle(case):
    word, dvec, order = case
    assert_structurally_equal(word.expand(dvec, order), oracle_expand(word, dvec, order))


@PROPERTY
@given(flat_words(zero_prefix=False), st.data())
def test_words_equal_rejects_every_perturbation(case, data):
    word, dvec, order = case
    alg = word.algebra
    assert words_equal(word, word, order, dvec)
    # a word times v v^{-1}, v another drawn word, is the word again
    other = data.draw(flat_word_on(alg, dvec, zero_prefix=False))
    assert words_equal(word * other * other.inverse(), word, order, dvec)
    d = data.draw(st.integers(1, 6))
    for factor in (qpow(Fraction(1, d)), qpow(Fraction(-1, d)), tvar(0), tvar(1),
                   tvar(0).inverse(), QScalar.integer(-1)):
        assert not words_equal(word, word.scale(factor), order, dvec)
        assert not words_equal(word.scale(factor), word, order, dvec)


def test_words_equal_matches_the_oracle_on_a_truncated_difference():
    # the words agree below degree 3 and differ at it: equal to order 2 only
    alg = SkewLattice.make([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])
    p = QTorusElement(alg, {(0, 0): ONE, (0, 1): qpow(Fraction(1, 3))})
    extra = QTorusElement(alg, {(0, 0): ONE, (0, 3): tpow((1, -1))})
    w1 = FactoredWord(alg, ONE, ((p, -1),))
    w2 = FactoredWord(alg, ONE, ((p, -1), (extra, 1)))
    for order in range(5):
        want = oracle_expand(w1 * w2.inverse(), (0, 1), order).truncate(order) \
            == Series.one(alg, (0, 1), order)
        assert words_equal(w1, w2, order, (0, 1)) is want is (order < 3)


def test_non_unit_leads_are_powers_of_one_denominator():
    alg = SkewLattice.make([[0, 1], [-1, 0]])
    # (2 + X2)^{-1} = sum_j (-1)^j X2^j / 2^{j+1}
    word = FactoredWord(alg, ONE, ((QTorusElement(alg, {(0, 0): 2, (0, 1): ONE}), -1),))
    got = word.expand((0, 1), 4)
    assert got.cutoff == 4
    for j in range(5):
        assert got.coefficient((0, j)) == QScalar.rational((-1) ** j, 2 ** (j + 1))
    assert_structurally_equal(got, oracle_expand(word, (0, 1), 4))
    # two inverted atoms with different non-unit leads, one t-dependent
    t = tvar(0)
    p2 = QTorusElement(alg, {(1, 0): 1 + t, (1, 1): qpow(1)})
    word = word * FactoredWord(alg, ONE, ((p2, -1),))
    assert_structurally_equal(word.expand((0, 1), 3), oracle_expand(word, (0, 1), 3))
    assert words_equal(word * FactoredWord.from_element(p2), FactoredWord(
        alg, ONE, ((QTorusElement(alg, {(0, 0): 2, (0, 1): ONE}), -1),)), 5, (0, 1))


def test_a_residual_can_carry_more_lead_powers_than_a_later_product():
    # under (1, 1) the residual at X1 X2 first receives a product of lead
    # power 3 and then one of lead power 2, which is lifted to power 3
    # before it is added
    alg = SkewLattice.make([[0, 1], [-1, 0]])
    p = QTorusElement(alg, {(0, 0): 2, (0, 1): ONE, (0, 2): ONE, (2, 1): ONE})
    s = QTorusElement(alg, {(0, -1): ONE, (-1, -2): ONE, (2, 2): ONE})
    word = FactoredWord(alg, ONE, ((s, 1), (p, -1)))
    assert_structurally_equal(word.expand((1, 1), 5), oracle_expand(word, (1, 1), 5))


def test_hand_built_t_dependent_lead():
    # the word form of test_lowest_coefficient_with_a_t_variable
    alg = SkewLattice.make([[0, 1], [-1, 0]])
    two, t = QScalar.integer(2), tvar(0)
    s = QTorusElement(alg, {(0, 0): -two, (0, 1): -two})
    p = QTorusElement(alg, {(0, 0): -two - two * t, (0, 1): -two})
    word = FactoredWord(alg, ONE, ((s, 1), (p, -1)))
    got = word.expand((0, 1), 1)
    assert got.terms.keys() == {(0, 0), (0, 1)} and got.cutoff == 1
    assert got.terms[(0, 0)] == (1 + t).inverse()
    assert got.terms[(0, 1)] == t / ((1 + t) * (1 + t))
    assert_structurally_equal(got, oracle_expand(word, (0, 1), 1))


def test_flat_range_raises():
    alg = SkewLattice.make([[0, 1], [-1, 0]])
    for sign in (1, -1):
        # t1^{+-300 j}: j = 2 fits the packed range (|exponent| <= 1024) in
        # the flat ring and as a QScalar, whose normal form moves the
        # negative case's t1^-600 into the denominator
        p = QTorusElement(alg, {(0, 0): ONE, (0, 1): tpow((300 * sign,))})
        word = FactoredWord.from_element(p, -1)
        assert words_equal(word, word, 2, (0, 1))
        assert not words_equal(word, word.scale(tvar(0)), 2, (0, 1))
        assert_structurally_equal(word.expand((0, 1), 2), oracle_expand(word, (0, 1), 2))
        # j = 4 is past the range: a quotient that reduces to no atom is
        # decided without expanding, one that keeps atoms overflows
        assert words_equal(word, word, 4, (0, 1)) is True
        assert not words_equal(word, word.inverse(), 2, (0, 1))
        with pytest.raises(OverflowError):
            words_equal(word, word.inverse(), 4, (0, 1))
        with pytest.raises(OverflowError):
            word.expand((0, 1), 4)


def test_mixed_scales_are_reduced_before_repacking():
    # the expansion runs at L = 210, where q^1300 is u^273000; each term is
    # stored at its own reduced scale, as the Series path does
    alg = SkewLattice.make([[0, 1], [-1, 0]])
    p = QTorusElement(alg, {(1, 0): qpow(1300), (0, 1): qpow(Fraction(1, 210))})
    for word in (FactoredWord.from_element(p),
                 FactoredWord(alg, tvar(0).inverse(), ((p, 1),)),
                 FactoredWord(alg, qpow(Fraction(-1, 6)), ((p, 1),))):
        got = word.expand((1, 1), 2)
        assert got.coefficient((1, 0)).scale in (1, 6)
        assert_structurally_equal(got, oracle_expand(word, (1, 1), 2))
    # a non-unit lead q^1300 (1 + q) over a form with denominator 210: the
    # central denominator is anchored at u^0 before the scale is reduced
    alg = SkewLattice.make([[0, Fraction(1, 210)], [Fraction(-1, 210), 0]])
    p = QTorusElement(alg, {(0, 0): qpow(1300) + qpow(1301), (0, 1): ONE})
    word = FactoredWord.from_element(p, -1)
    got = word.expand((1, 1), 2)
    assert got.coefficient((0, 2)) == qpow(-3900) / (1 + qpow(1)) ** 3
    assert_structurally_equal(got, oracle_expand(word, (1, 1), 2))
    # every quotient term is q^-100000 / (1 + q)^(j+1), but the central
    # denominator lead^4 starts at q^400000 until it is anchored
    alg = SkewLattice.make([[0, 1], [-1, 0]])
    p = QTorusElement(alg, {(0, 0): qpow(100000) + qpow(100001), (0, 1): qpow(100000)})
    word = FactoredWord.from_element(p, -1)
    got = word.expand((1, 1), 3)
    assert got.coefficient((0, 3)) == -qpow(-100000) / (1 + qpow(1)) ** 4
    assert_structurally_equal(got, oracle_expand(word, (1, 1), 3))


def test_zero_prefix_keeps_the_tie_check():
    alg = SkewLattice.make([[0, 1], [-1, 0]])
    tie = QTorusElement(alg, {(1, 0): 2 + tvar(0), (0, 1): tpow((-1,))})
    zero = FactoredWord(alg, QScalar.integer(0), ((tie, -1),))
    with pytest.raises(ExpansionError, match="no unique leading monomial"):
        zero.expand((1, 1), 3)
    # an exact zero takes the first truncation's cutoff, anchor -1 plus 3
    got = zero.expand((1, 2), 3)
    assert got.terms == {} and got.cutoff == 2
    assert_structurally_equal(got, oracle_expand(zero, (1, 2), 3))


# ---------------------------------------------------------------------------
# One denominator policy for every flat merge.

def test_flat_terms_put_integer_denominators_over_their_lcm():
    from qca.expansion import flat_terms

    half, quarter = ONE / QScalar.integer(2), ONE / QScalar.integer(4)
    terms, den = flat_terms({(1, 0): half, (0, 1): quarter}, 1)
    assert den == {0: 4}  # not their product, 8
    assert terms == {(1, 0): {0: 2}, (0, 1): {0: 1}}


def test_one_den_multiplies_distinct_non_constant_denominators():
    from qca.expansion import one_den
    from qca.scalars import FLAT_ONE

    a, b, c = {0: 1}, {1: 2}, {2: 3}
    p = {0: 1, 1: 1}  # 1 + u
    nums = [a, b, c]
    assert one_den(nums, [p, p, p]) == (nums, p)
    assert one_den(nums, [p, p, p])[0] is nums  # nothing is built
    got, den = one_den(nums, [FLAT_ONE, p, {0: 2}])
    assert den == {0: 2, 1: 2}  # (1 + u) * 2, each distinct one once
    assert got == [{0: 2, 1: 2}, {1: 4}, {2: 3, 3: 3}]
