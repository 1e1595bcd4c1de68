import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qca.commutative import CPoly, CRational
from qca.scalars import TScalar

T = sympy.symbols("t1:4")


def ts(terms):
    return TScalar(terms)


def test_multi_term_coefficient_factor_divides_out():
    # the denominator factor is the constant 1 + t1, a coefficient with two
    # terms: it cancels by polynomial division in the t variables
    one_t1 = ts({(): 1, (1,): 1})
    num = CPoly(2, {(1, 0): one_t1 * one_t1, (0, 1): one_t1 * ts({(0, 1): 1})})
    r = CRational(num, [CPoly(2, {(0, 0): one_t1})])
    assert r.den == []
    assert r.render() == "t2*X2+(1+t1)*X1"


def test_multi_term_coefficient_factor_that_does_not_divide_stays():
    num = CPoly(2, {(1, 0): ts({(): 1, (1,): 1})})
    r = CRational(num, [CPoly(2, {(0, 0): ts({(): 1, (0, 1): 1})})])
    assert len(r.den) == 1
    assert r.render() == "(1+t1)*X1/(1+t2)"


def test_one_term_denominator_that_is_a_product_is_parenthesized():
    num = CPoly(2, {(1, 0): ts({(): 1, (1,): 1})})
    r = CRational(num, [CPoly(2, {(1, 0): ts({(1,): 1, (2,): 1})})])
    assert len(r.den) == 1
    assert r.render() == "(1+t1)*X1/((t1+t1^2)*X1)"
    r = CRational(CPoly(2, {(1, 0): ts({(): 1})}), [CPoly(2, {(1, 1): ts({(): 2})})])
    assert r.render() == "X1/(2*X1*X2)"


def test_single_term_coefficient_factor_needs_every_t_exponent():
    # t1 / t2 and t2 / t1 are not polynomials: the quotient of two packed
    # t-monomials must not borrow from one t-field into the next
    # (a quotient that borrowed can hold a negative key, which does not
    # render: only plain values are asserted before rendering)
    t1, t2 = ts({(1,): 1}), ts({(0, 1): 1})
    for a, b, want in ((t2, t1, "t2*X1/t1"), (t1, t2, "t1*X1/t2")):
        r = CRational(CPoly(2, {(1, 0): a}), [CPoly(2, {(0, 0): b})])
        kept = len(r.den)
        assert kept == 1
        assert r.render() == want
    r = CRational(CPoly(2, {(1, 0): t1 * t2 * t2}), [CPoly(2, {(0, 0): t2})])
    assert r.den == [] and r.render() == "t1*t2*X1"
    r = CRational(CPoly(2, {(1, 0): ts({(1,): 3})}), [CPoly(2, {(0, 0): ts({(): 2})})])
    assert len(r.den) == 1 and r.render() == "3*t1*X1/2"


def test_tscalar_views():
    x = ts({(1, 0, 0): 2, (0, 2): -1, (): 3, (1,): 1})
    assert x.monomials() == {(1,): 3, (0, 2): -1, (): 3}
    assert x.render() == "3-t2^2+3*t1"
    assert not x.monomials().keys() <= {()} and ts({(0, 0): 5}) == TScalar.integer(5)
    assert TScalar() == TScalar.integer(0)
    assert CPoly(1, {(0,): x}).subs_t_one() == CPoly(1, {(0,): 5})
    divides = x.divide(ts({(1,): 1})) is not None
    assert not divides
    assert (x * ts({(0, 1): -2})).divide(ts({(0, 1): -2})) == x


def test_monomial_factor_whose_coefficient_quotient_is_laurent_stays():
    # (1 + t1) X1 / ((t1 + t1^2) X1) is t1^-1: no polynomial quotient in t,
    # so the factor is kept
    one_t1 = ts({(): 1, (1,): 1})
    r = CRational(CPoly(2, {(1, 0): one_t1}),
                  [CPoly(2, {(1, 0): ts({(1,): 1, (2,): 1})})])
    assert len(r.den) == 1
    assert r * CRational(CPoly(2, {(0, 0): ts({(1,): 1})})) == CRational.one(2)


def test_divide_raises_overflow_past_the_packed_range():
    # t2^2 / (t2 + t1^512): the third working term is t1^1024, just past the
    # packed t-exponent range; one less and the quotient stops at a t-borrow
    with pytest.raises(OverflowError):
        ts({(0, 2): 1}).divide(ts({(0, 1): 1, (512,): 1}))
    assert ts({(0, 2): 1}).divide(ts({(0, 1): 1, (511,): 1})) is None


def tscalar_to_sympy(x: TScalar):
    return sum((c * sympy.Mul(*(T[i] ** a for i, a in enumerate(m)))
                for m, c in x.monomials().items()), sympy.Integer(0))


tscalars = st.dictionaries(
    st.lists(st.integers(0, 3), max_size=3).map(tuple),
    st.integers(-3, 3), max_size=4).map(TScalar)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tscalars, tscalars)
def test_tscalar_arithmetic_matches_sympy(x, y):
    sx, sy = tscalar_to_sympy(x), tscalar_to_sympy(y)
    for got, want in ((x + y, sx + sy), (x - y, sx - sy), (x * y, sx * sy),
                      (x.scale(-2), -2 * sx)):
        assert all(got.monomials().values())
        assert sympy.expand(tscalar_to_sympy(got) - want) == 0
    assert (x + y == y + x) and (x * y == y * x)


tmonomials = st.lists(st.integers(0, 2), max_size=3).map(
    lambda e: TScalar({tuple(e): 1}))


def sympy_quotient(x: TScalar, y: TScalar):
    """x / y as a sympy integer polynomial in t, or None when it is not one."""
    r = sympy.cancel(tscalar_to_sympy(x) / tscalar_to_sympy(y))
    if sympy.fraction(r)[1].free_symbols:
        return None
    if not all(c.is_integer for c in sympy.Poly(r, *T).coeffs()):
        return None
    return r


@settings(max_examples=80, deadline=None, derandomize=True)
@given(tscalars, tscalars.filter(lambda b: not b.is_zero()), tmonomials)
def test_divide_matches_sympy(a, b, m):
    # random quotients, exact ones, and ones that would need a negative
    # t-exponent: None exactly when sympy's quotient is no integer polynomial
    for x, y in ((a, b), (a * b, b), (a * m, b), (a * b * m, b), (a * b, b * m)):
        want = sympy_quotient(x, y)
        got = x.divide(y)
        if want is None:
            assert got is None
        else:
            assert got is not None and all(got.monomials().values())
            assert sympy.expand(tscalar_to_sympy(got) - want) == 0
    assert (a * b).divide(b) == a


# ---------------------------------------------------------------------------
# CPoly on the packed keys against sympy.

X = sympy.symbols("X1:4")


def cpoly_to_sympy(p: CPoly):
    return sum((tscalar_to_sympy(c) * sympy.Mul(*(X[i] ** a for i, a in enumerate(e)))
                for e, c in p.coefficients().items()), sympy.Integer(0))


def sympy_laurent_quotient(a, b, rank: int):
    """a / b as a sympy Laurent polynomial in X over Z[t], or None when it is
    not one."""
    shift = sympy.Mul(*(X[i] ** 30 for i in range(rank)))
    num, den = sympy.fraction(sympy.cancel(a * shift / b))
    if den.free_symbols:
        return None
    if not all(c.is_integer for c in sympy.Poly(num / den, *X[:rank], *T).coeffs()):
        return None
    return num / den / shift


@st.composite
def cpolys(draw, rank: int, nonzero: bool = False):
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(-2, 2)] * rank), tscalars,
        min_size=1 if nonzero else 0, max_size=3))
    p = CPoly(rank, terms)
    if nonzero and p.is_zero():
        p = CPoly.one(rank)
    return p


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_cpoly_matches_sympy(data):
    rank = data.draw(st.sampled_from([2, 3]))
    a, b = data.draw(cpolys(rank)), data.draw(cpolys(rank, nonzero=True))
    e = data.draw(st.tuples(*[st.integers(-3, 3)] * rank))
    c = data.draw(tscalars.filter(lambda c: not c.is_zero()))
    sa, sb = cpoly_to_sympy(a), cpoly_to_sympy(b)
    shift = CPoly.monomial(rank, e)
    const = CPoly(rank, {(0,) * rank: c})
    for got, want in ((a * b, sa * sb), (a + b, sa + sb), (a - b, sa - sb),
                      (a * shift, sa * cpoly_to_sympy(shift)),
                      (a.scale(c), sa * tscalar_to_sympy(c))):
        assert all(got.terms.values())
        assert sympy.expand(cpoly_to_sympy(got) - want) == 0
    # random pairs, exact quotients, Laurent-shift divisors, and constant
    # divisors whose t-coefficient need not divide
    for x, y in ((a, b), (a * b, b), (a * b, b * shift), (a, shift), (a, const),
                 (a * const, const), (a * b, b * const)):
        want = sympy_laurent_quotient(cpoly_to_sympy(x), cpoly_to_sympy(y), rank)
        got = x.exact_divide(y)
        if want is None:
            assert got is None
        else:
            assert got is not None and all(got.terms.values())
            assert sympy.expand(cpoly_to_sympy(got) - want) == 0
    assert (a * b).exact_divide(b) == a


def test_x_exponent_outside_the_packed_range_raises():
    with pytest.raises(OverflowError):
        CPoly(2, {(1024, 0): 1})
    with pytest.raises(OverflowError):
        CPoly(2, {(0, -1025): 1})
    big = CPoly.monomial(2, (0, 512))
    with pytest.raises(OverflowError):
        big * big
    assert (big * CPoly.monomial(2, (0, 511))).coefficients() == {(0, 1023): TScalar.integer(1)}
    assert CPoly(2, {(-1024, 0): 1}).exact_divide(CPoly.monomial(2, (-1024, 0))).is_one()
