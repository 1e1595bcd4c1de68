"""The integer skew form and the fused q-power shift against plain oracles.

``SkewLattice.omega_int`` is checked against a Fraction double sum,
``QScalar._qshift`` against an explicit multiplication by ``qpow``, and the
``Series`` product against a naive product that evaluates the form in
Fractions, multiplies by ``qpow`` and applies the cutoff rule afterwards,
``Series`` sums, negation, scaling and truncation against a coefficient-wise
sum cut at the lower cutoff; ``Series.inverse`` is checked to be a two-sided
inverse to its order.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qca.qtorus import QTorusElement, SkewLattice
from qca.scalars import ONE, QScalar, qpow, tvar
from qca.words import ExpansionError, FactoredWord, Series, degree

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def lattices(draw):
    """Rank-2 or rank-3 skew forms with entry denominators 1-6."""
    rank = draw(st.sampled_from([2, 3]))
    form = [[Fraction(0)] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            x = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 6)))
            form[i][j], form[j][i] = x, -x
    return SkewLattice.make(form)


def vectors(rank, bound=3):
    return st.tuples(*[st.integers(-bound, bound)] * rank)


def naive_omega(alg, n, m) -> Fraction:
    return sum((Fraction(a) * b * alg.form[i][j]
                for i, a in enumerate(n) for j, b in enumerate(m)), Fraction(0))


@st.composite
def scalars(draw):
    """Sums of terms with exponents in (1/6)Z, sometimes divided by a t-free
    or a t-dependent polynomial."""
    def poly(tvars):
        x = QScalar.integer(0)
        for _ in range(draw(st.integers(1, 3))):
            e = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 6)))
            texp = draw(st.lists(st.integers(0, 2), max_size=tvars))
            x = x + QScalar.term(e, texp, draw(st.integers(-3, 3)))
        return x

    x = poly(2)
    if draw(st.booleans()):
        y = poly(draw(st.sampled_from([0, 2])))
        if not y.is_zero():
            x = x / y
    return x


def parts(c: QScalar):
    return c.scale, c.num, c.den


# ---------------------------------------------------------------------------
# The integer form.

@PROPERTY
@given(st.data())
def test_omega_int_matches_fraction_double_sum(data):
    alg = data.draw(lattices())
    n = data.draw(vectors(alg.rank))
    m = data.draw(vectors(alg.rank))
    w = alg.omega_int(n, m)
    assert type(w) is int
    assert Fraction(w, alg.form_den) == alg.omega(n, m) == naive_omega(alg, n, m)
    assert sum(r * b for r, b in zip(alg.row_pairing(n), m)) == w
    units = [tuple(int(i == j) for j in range(alg.rank)) for i in range(alg.rank)]
    assert alg.row_pairing(n) == [alg.form_den * naive_omega(alg, n, e) for e in units]


def test_integer_form_is_not_part_of_equality():
    a = SkewLattice.make([[0, Fraction(1, 6)], [Fraction(-1, 6), 0]])
    b = SkewLattice.make([[0, Fraction(2, 12)], [Fraction(-2, 12), 0]])
    assert (a.form_den, a.iform) == (6, ((0, 1), (-1, 0)))
    assert [f.name for f in dataclasses.fields(SkewLattice)] == ["rank", "form", "labels"]
    assert a == b and hash(a) == hash(b)
    zero = SkewLattice.make([[0, 0], [0, 0]])
    assert (zero.form_den, zero.iform) == (1, ((0, 0), (0, 0)))


# ---------------------------------------------------------------------------
# The fused q-power shift.

@PROPERTY
@given(scalars(), st.integers(-30, 30), st.integers(1, 6))
def test_qshift_equals_multiplying_by_qpow(c, w, d):
    assert parts(c._qshift(w, d)) == parts(c * qpow(Fraction(w, d)))


def test_qshift_cancels_a_gcd_that_falls_under_the_cap():
    # at scale 2 the denominator q^49 - 1 spans 98 > cap in u = q^(1/2), so
    # the gcd with the numerator is not cancelled; times q^(1/2) the scale
    # coarsens to 1 and the full normal form cancels q - 1
    c = qpow(Fraction(1, 2)) * (qpow(2) - 1) / (qpow(49) - 1)
    assert c.scale == 2 and max(c.den) == 98
    got, want = c._qshift(1, 2), c * qpow(Fraction(1, 2))
    assert parts(got) == parts(want)
    assert got.scale == 1 and max(got.den) == 48


def test_qshift_raises_past_the_packed_range():
    big = qpow(2 ** 29)
    with pytest.raises(OverflowError):
        big._qshift(2 ** 29, 1)
    with pytest.raises(OverflowError):
        QScalar.integer(1)._qshift(2 ** 30, 1)
    with pytest.raises(OverflowError):   # would carry into the t-exponents
        QScalar.integer(1)._qshift(2 ** 32, 1)
    with pytest.raises(OverflowError):   # the rescale to q^(1/4) overflows
        qpow(2 ** 28)._qshift(1, 4)
    with pytest.raises(OverflowError):
        (tvar(0) * qpow(-(2 ** 29)))._qshift(-(2 ** 29) - 1, 1)
    # just inside the range
    assert big._qshift(2 ** 29 - 1, 1).render() == f"q^{2 ** 30 - 1}"
    assert qpow(2 ** 28 - 1)._qshift(1, 4).scale == 4
    assert (tvar(0) * qpow(-(2 ** 29)))._qshift(-(2 ** 29), 1).render() == f"t1*q^-{2 ** 30}"
    assert QScalar.integer(0)._qshift(2 ** 32, 1).is_zero()


# ---------------------------------------------------------------------------
# The Series product.

def naive_product(a: Series, b: Series):
    """(terms, cutoff) of a * b from the definitions."""
    def deg(n):
        return sum(x * y for x, y in zip(a.dvec, n))

    def lowest(s):
        # the least degree s can have: a known term, or just past the cutoff
        degs = [deg(n) for n in s.terms]
        if s.cutoff is not None:
            degs.append(s.cutoff)
        return min(degs) if degs else None

    if (not a.terms and a.cutoff is None) or (not b.terms and b.cutoff is None):
        return {}, None
    # unknown terms of a (degree > a.cutoff) times anything of b, and so on
    cands = []
    if a.cutoff is not None:
        cands.append(a.cutoff + lowest(b))
    if b.cutoff is not None:
        cands.append(b.cutoff + lowest(a))
    cut = min(cands) if cands else None
    out = {}
    for n, cn in a.terms.items():
        for m, cm in b.terms.items():
            k = tuple(x + y for x, y in zip(n, m))
            c = cn * cm * qpow(naive_omega(a.algebra, n, m))
            out[k] = out[k] + c if k in out else c
    out = {k: c for k, c in out.items()
           if not c.is_zero() and (cut is None or deg(k) <= cut)}
    return out, cut


@st.composite
def series_pairs(draw):
    alg = draw(lattices())
    dvec = draw(st.tuples(*[st.integers(1, 3)] * alg.rank))

    def series():
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            n = draw(vectors(alg.rank, 2))
            e = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 6)))
            terms[n] = QScalar.term(e, (), draw(st.integers(-2, 2)))
            if draw(st.integers(0, 3)) == 0:
                terms[n] = terms[n] / (1 + qpow(Fraction(1, draw(st.integers(1, 3)))))
        # a cutoff at or next to a term's degree tests the boundary
        cutoff = draw(st.one_of(st.none(), st.integers(-4, 8), st.sampled_from(
            [sum(x * y for x, y in zip(dvec, n)) + off
             for n in terms for off in (-1, 0, 1)] or [None])))
        return Series(alg, dvec, cutoff, terms)

    return series(), series()


@PROPERTY
@given(series_pairs())
def test_series_product_matches_naive_product(pair):
    a, b = pair
    got = a * b
    terms, cut = naive_product(a, b)
    assert got.cutoff == cut
    assert got.terms.keys() == terms.keys()
    for k, c in terms.items():
        assert got.terms[k] == c


def test_series_product_drops_cancelled_terms_and_keeps_the_cutoff_degree():
    alg = SkewLattice.make([[0, Fraction(1, 3)], [Fraction(-1, 3), 0]])
    x = qpow(Fraction(1, 3))
    a = Series(alg, (1, 1), None, {(0, 0): 1 + x, (1, 0): x})
    b = Series(alg, (1, 1), 1, {(0, 0): 1 + x, (1, 0): -x, (0, 1): ONE})
    got = a * b
    terms, cut = naive_product(a, b)
    assert got.cutoff == cut == 1
    # the X1 terms cancel; X2 sits exactly at the cutoff
    assert got.terms.keys() == terms.keys() == {(0, 0), (0, 1)}
    assert all(got.terms[k] == c for k, c in terms.items())


def test_series_product_of_torus_elements_matches_qtorus_product():
    alg = SkewLattice.make([[0, Fraction(1, 2), Fraction(-2, 3)],
                            [Fraction(-1, 2), 0, Fraction(1, 6)],
                            [Fraction(2, 3), Fraction(-1, 6), 0]])
    x = QTorusElement(alg, {(1, 0, 0): qpow(Fraction(1, 3)), (0, 1, -1): 2,
                            (1, 1, 1): 1 + qpow(Fraction(1, 2))})
    y = QTorusElement(alg, {(0, 0, 1): 1, (-1, 2, 0): qpow(Fraction(-5, 6))})
    got = Series(alg, (1, 1, 1), None, x.terms) * Series(alg, (1, 1, 1), None, y.terms)
    assert got.cutoff is None
    assert got == x * y


def lower(a, b):
    return b if a is None else a if b is None else min(a, b)


def naive_combination(parts, cutoff):
    """The terms of sum c * s over the (c, s) parts, added coefficient by
    coefficient, keeping the nonzero ones of degree <= cutoff."""
    out = {}
    for c, s in parts:
        for n, x in s.terms.items():
            out[n] = out.get(n, QScalar.integer(0)) + c * x
    dvec = parts[0][1].dvec
    return {n: x for n, x in out.items()
            if not x.is_zero() and (cutoff is None or degree(dvec, n) <= cutoff)}


@st.composite
def sum_operands(draw):
    """A series pair where b repeats some of a's exponents, some with the
    negated coefficient so that the sum cancels there, plus a scalar and a
    truncation degree."""
    a, b = draw(series_pairs())
    terms = dict(b.terms)
    for n, c in a.terms.items():
        pick = draw(st.integers(0, 2))
        if pick:
            terms[n] = -c if pick == 1 else draw(scalars())
    b = Series(b.algebra, b.dvec, b.cutoff, terms)
    return a, b, draw(scalars()), draw(st.integers(-4, 8))


@PROPERTY
@given(sum_operands())
def test_series_sums_keep_the_lower_cutoff(operands):
    a, b, c, k = operands
    one = QScalar.integer(1)
    cases = [
        (a + b, [(one, a), (one, b)], lower(a.cutoff, b.cutoff)),
        (a - b, [(one, a), (-one, b)], lower(a.cutoff, b.cutoff)),
        (-a, [(-one, a)], a.cutoff),
        (a.scale(c), [(c, a)], a.cutoff),
        (a.truncate(k), [(one, a)], lower(a.cutoff, k)),
    ]
    for got, parts, cut in cases:
        assert type(got) is Series and got.dvec == a.dvec
        assert got.cutoff == cut
        assert got.terms == naive_combination(parts, cut)


def test_series_has_no_torus_power():
    s = Series.one(SkewLattice.make([[0, 1], [-1, 0]]), (1, 1), 2)
    with pytest.raises(TypeError):
        s ** 2


@st.composite
def invertible_series(draw):
    """Exact series whose lowest-degree term is unique, under any grading."""
    alg = draw(lattices())
    dvec = draw(st.tuples(*[st.integers(-2, 3)] * alg.rank))
    n0 = draw(vectors(alg.rank, 2))
    terms = {n0: draw(scalars().filter(lambda c: not c.is_zero()))}
    for _ in range(draw(st.integers(0, 3))):
        n = draw(vectors(alg.rank, 2))
        if degree(dvec, n) > degree(dvec, n0):
            terms[n] = draw(scalars())
    return Series(alg, dvec, None, terms)


@PROPERTY
@given(invertible_series(), st.integers(0, 5))
def test_inverse_is_two_sided_to_its_relative_order(s, order):
    # Series.inverse relies on the unique lowest term: every term of the
    # remainder it expands then has positive degree
    one = Series.one(s.algebra, s.dvec, order)
    inv = s.inverse(order)
    for prod in (s * inv, inv * s):
        assert prod.cutoff == order
        assert prod == one


# ---------------------------------------------------------------------------
# The error label of an inverted atom is rendered only when raising.

def test_expansion_error_messages_are_unchanged():
    alg = SkewLattice.make([[0, 1], [-1, 0]])
    x1, x2 = QTorusElement.generator(alg, 0), QTorusElement.generator(alg, 1)
    word = FactoredWord.from_element(x1 + x2.scale(qpow(Fraction(1, 2))), -1)
    with pytest.raises(ExpansionError) as err:
        word.expand((1, 1), 4)
    assert str(err.value) == ("no unique leading monomial in q^{1/2}*X2+X1: "
                              "degree-1 exponents [(0, 1), (1, 0)]")
    with pytest.raises(ExpansionError) as err:
        Series(alg, (1, 1), 3, {}).inverse(3)
    assert str(err.value) == "cannot invert zero series"
