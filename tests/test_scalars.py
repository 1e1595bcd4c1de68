import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from unittest import mock

from qca import scalars
from qca.scalars import (
    FLAT_ONE, ONE, QPoleError, QScalar, TScalar, _fields, _pack, _t_content,
    flat_divide, flat_mac, flat_pair, flat_qscalar, qpow, tpow, tvar, vpow)


def rand_scalar(rng, allow_fraction=True):
    """Random Laurent polynomial in q^{1/2} with small t-polynomial coeffs."""
    num = {}
    for _ in range(rng.randint(1, 4)):
        e = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
        c = TScalar({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)})
        if not c.is_zero():
            num[e] = num.get(e, TScalar()) + c
    s = QScalar(num)
    if allow_fraction and rng.random() < 0.3:
        s = s / (qpow(1) + QScalar.integer(2))
    return s


def test_polynomial_identities():
    q = qpow(1)
    qi = qpow(-1)
    assert (q - qi) * (q + qi) == qpow(2) - qpow(-2)
    assert qpow(Fraction(1, 2)).inverse() == qpow(Fraction(-1, 2))
    assert (qpow(3) - 1) * (q - 1).inverse() == qpow(2) + q + 1


def test_fraction_normalization_is_canonical():
    q = qpow(1)
    a = (qpow(3) - 1) / (q - 1)
    b = qpow(2) + q + 1
    assert a.num == b.num and a.den == b.den
    # common content and monomial factors cancel
    c = (2 * tvar(0) * q) / (4 * tvar(0) * (q + 1))
    assert c == 1 / (2 + 2 * qpow(-1))


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        QScalar.integer(0).inverse()
    with pytest.raises(ZeroDivisionError):
        QScalar({Fraction(0): TScalar.integer(1)}, {})


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - a == QScalar.integer(0)
        if not a.is_zero():
            assert a * a.inverse() == ONE


def test_bar_involution():
    assert qpow(Fraction(3, 2)).bar() == qpow(Fraction(-3, 2))
    s = 1 + tvar(0) * qpow(2)
    assert s.bar() == 1 + tvar(0) * qpow(-2)
    rng = random.Random(11)
    for _ in range(25):
        a, b = rand_scalar(rng), rand_scalar(rng)
        assert a.bar().bar() == a
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()


def test_limit_q1():
    assert qpow(2).limit_q1() == TScalar.integer(1)
    assert (qpow(2) + qpow(-2)).limit_q1() == TScalar.integer(2)
    val = (qpow(2) - qpow(-2)) / (qpow(1) - qpow(-1))
    assert val.limit_q1() == TScalar.integer(2)
    with pytest.raises(QPoleError) as exc:
        (1 / (qpow(1) - 1)).limit_q1()
    assert exc.value.order == 1


def test_divide_exact_qminus1():
    q = qpow(1)
    a = qpow(2) - qpow(-2)
    d = a.divide_exact_qminus1()
    assert d * (q - 1) == a
    assert (q - 1).divide_exact_qminus1() == ONE
    with pytest.raises(ValueError):
        (q + 1).divide_exact_qminus1()
    rng = random.Random(3)
    for _ in range(20):
        s = rand_scalar(rng)
        prod = s * (q - 1)
        assert prod.divide_exact_qminus1() == s


def test_t_one_specialization():
    s = tvar(0) * qpow(1) + tvar(1) * 2
    assert s.subs_t_one() == qpow(1) + 2
    assert (tvar(0) - 1).subs_t_one().is_zero()
    assert tpow([1, -2]) == tvar(0) / (tvar(1) * tvar(1))


def test_vpow_unit():
    # v = q^{-1/2}, so v^2 = q^{-1}
    assert vpow(2) == qpow(-1)
    assert vpow(-2) - 1 + vpow(2) == qpow(1) - 1 + qpow(-1)


def test_rendering_deterministic():
    s = qpow(Fraction(3, 2)) + tvar(0) * tvar(1) * qpow(-1) + 2
    r1 = s.render()
    r2 = (QScalar.integer(2) + tvar(1) * tvar(0) * qpow(-1) + qpow(Fraction(3, 2))).render()
    assert r1 == r2
    assert "q^{3/2}" in r1
    assert (tvar(0) ** 2 * tvar(1)).render() == "t1^2*t2"
    assert QScalar.rational(1, 2).render() == "1/2"


def test_pow():
    s = 1 + qpow(1)
    assert s ** 3 == s * s * s
    assert s ** 0 == ONE
    assert s ** -2 == (s * s).inverse()


# ---------------------------------------------------------------------------
# The gcd degree cap and the packed exponent range.

def test_fraction_past_gcd_cap_stays_unreduced():
    q = qpow(1)
    cap = QScalar._GCD_DEGREE_CAP
    assert cap < 98
    x = (qpow(2) - 1) / (qpow(98) - 1)
    # (q^98 - 1) = (q^2 - 1)(1 + q^2 + ... + q^96): reducible, but past the cap
    assert max(x.den) == 98 and max(x.num) == 2
    reduced = 1 / sum((qpow(2 * i) for i in range(49)), QScalar.integer(0))
    assert max(reduced.den) == 96 and reduced.num == ONE.num
    assert x.num != reduced.num
    assert x == reduced and reduced == x
    assert x != reduced * q
    assert x.render() == "(1-q^2)/(1-q^98)"
    again = QScalar({0: TScalar.integer(-1), 2: TScalar.integer(1)},
                    {98: TScalar.integer(1), 0: TScalar.integer(-1)})
    assert again.render() == x.render()


def test_exponents_outside_the_packed_range_raise():
    # the packed range: -2^30 <= q-exponent * scale < 2^30, t-exponents
    # below 2^10, at most 16 t-variables
    big = qpow(2 ** 29)
    with pytest.raises(OverflowError):
        big * big
    with pytest.raises(OverflowError):
        qpow(2 ** 30)
    with pytest.raises(OverflowError):
        qpow(-(2 ** 30) - 1)
    with pytest.raises(OverflowError):
        tvar(0) ** 1024
    with pytest.raises(OverflowError):
        tvar(16)
    with pytest.raises(OverflowError):
        qpow(Fraction(2 ** 28, 3)) * qpow(Fraction(1, 4))
    # just inside the range
    assert (qpow(2 ** 29 - 1) * qpow(2 ** 29)).render() == f"q^{2 ** 30 - 1}"
    assert qpow(-(2 ** 30)).render() == f"q^-{2 ** 30}"
    assert (tvar(0) ** 1023).render() == "t1^1023"
    assert tvar(15).render() == "t16"
    assert (qpow(Fraction(2 ** 28 - 2, 3)) * qpow(Fraction(1, 4))).scale == 12


# ---------------------------------------------------------------------------
# Property tests against sympy as an independent oracle.

S = sympy.Symbol("s")  # s = q^(1/6): every generated exponent is in (1/6)Z
T = sympy.symbols("t1:4")
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def to_sympy(x: QScalar):
    assert 6 % x.scale == 0

    def part(d):
        return sum((c * S ** (e * 6 // x.scale)
                    * sympy.Mul(*(T[i] ** a for i, a in enumerate(m)))
                    for e, ts in d.items() for m, c in ts.monomials().items()),
                   sympy.Integer(0))
    return part(x.num) / part(x.den)


def tscalar_to_sympy(ts: TScalar):
    return sum((c * sympy.Mul(*(T[i] ** a for i, a in enumerate(m)))
                for m, c in ts.monomials().items()), sympy.Integer(0))


def same(a, b) -> bool:
    return sympy.expand(sympy.fraction(sympy.together(a - b))[0]) == 0


def matches(x: QScalar, expr) -> bool:
    """x equals the sympy value expr and is stored without zero terms."""
    assert all(c for part in (x.num, x.den) for ts in part.values()
               for c in ts.terms.values())
    assert x.is_zero() == same(expr, 0)
    return same(to_sympy(x), expr)


@st.composite
def polys(draw, nvars, emax=6):
    terms = draw(st.lists(st.tuples(
        st.integers(-emax, emax), st.sampled_from([1, 2, 3]),
        st.lists(st.integers(0, 2), max_size=nvars),
        st.integers(-3, 3).filter(bool)), min_size=1, max_size=4))
    x, sx = QScalar.integer(0), sympy.Integer(0)
    for num, den, texp, c in terms:
        e = Fraction(num, den)
        x = x + QScalar.term(e, texp, c)
        sx += c * S ** (6 * e) * sympy.Mul(*(T[i] ** a for i, a in enumerate(texp)))
    return x, sx


@st.composite
def fractions(draw, t_free_den=False, emax=6):
    x, sx = draw(polys(3, emax))
    if draw(st.booleans()):
        y, sy = draw(polys(0 if t_free_den else 3, emax))
        if not y.is_zero():
            x, sx = x / y, sx / sy
    return x, sx


@PROPERTY
@given(fractions(), fractions())
def test_add_and_mul_match_sympy(a, b):
    (x, sx), (y, sy) = a, b
    assert matches(x, sx) and matches(y, sy)
    assert matches(x + y, sx + sy)
    assert matches(x - y, sx - sy)
    assert matches(x * y, sx * sy)


@PROPERTY
@given(fractions())
def test_inverse_bar_and_t_one_match_sympy(a):
    x, sx = a
    if not x.is_zero():
        assert matches(x.inverse(), 1 / sx)
    assert matches(x.bar(), sx.subs(S, 1 / S))
    ones = {t: 1 for t in T}
    num, den = (part.subs(ones) for part in sympy.fraction(sympy.together(sx)))
    if den != 0:
        assert matches(x.subs_t_one(), num / den)


def order_at_one(p) -> int:
    """The order of vanishing of the polynomial p at s = 1."""
    k = 0
    while sympy.expand(sympy.diff(p, S, k).subs(S, 1)) == 0:
        k += 1
    return k


def check_divide_exact_qminus1(y: QScalar, sy):
    """y vanishes at q = 1; so does sy, its sympy value."""
    assert matches(y.divide_exact_qminus1(), sy / (S ** 6 - 1))


@PROPERTY
@given(fractions())
def test_limit_q1_matches_sympy(a):
    x, sx = a
    num, den = sympy.fraction(sympy.cancel(sympy.together(sx)))
    pole = order_at_one(den)
    q = qpow(1)
    if pole:
        with pytest.raises(QPoleError) as exc:
            x.limit_q1_pair()
        assert exc.value.order == pole
        # times (q - 1)^(pole + 1) the value vanishes at q = 1
        check_divide_exact_qminus1(x * (q - 1) ** (pole + 1),
                                   sx * (S ** 6 - 1) ** (pole + 1))
        return
    # x - bar(x) and x * (q^(1/2) - 1) vanish at q = 1
    check_divide_exact_qminus1(x - x.bar(), sx - sx.subs(S, 1 / S))
    check_divide_exact_qminus1(x * (qpow(Fraction(1, 2)) - 1), sx * (S ** 3 - 1))
    if x.is_zero() or order_at_one(num):
        check_divide_exact_qminus1(x, sx)
    else:
        with pytest.raises(ValueError):
            x.divide_exact_qminus1()
    want = sympy.cancel(num.subs(S, 1) / den.subs(S, 1))
    n1, d1 = x.limit_q1_pair()
    assert same(tscalar_to_sympy(n1) / tscalar_to_sympy(d1), want)
    try:
        got = x.limit_q1()
    except ValueError:
        # refused only when the pair keeps a t-denominator or the limit is
        # not an integer polynomial in t
        assert not d1.monomials().keys() <= {()} or not want.is_polynomial(*T) or not all(
            c.is_integer for c in sympy.Poly(want, *T).coeffs())
    else:
        assert same(tscalar_to_sympy(got), want)


def test_kernel_division_keeps_u_exponents_nonnegative():
    # flat polynomials in u = q^(1/scale) and t1; TScalar only ever divides
    # u-free ones
    u, t1 = _pack(1, ()), _pack(0, (1,))
    assert flat_divide({2 * u: 1, 0: -1}, {u: 1, 0: -1}) == {u: 1, 0: 1}
    assert flat_divide({t1 + u: 2, t1: 2}, {u: 1, 0: 1}) == {t1: 2}
    # (1 + u) / u and t1 / u are Laurent in u
    assert flat_divide({u: 1, 0: 1}, {u: 1}) is None
    assert flat_divide({t1: 1}, {u: 1}) is None
    # t1^2 / (t1 + u^(2^29)): the third working term is u^(2^30), just past
    # the packed range; one less and the quotient stops at a t-borrow
    with pytest.raises(OverflowError):
        flat_divide({2 * t1: 1}, {t1: 1, 2 ** 29 * u: 1})
    assert flat_divide({2 * t1: 1}, {t1: 1, (2 ** 29 - 1) * u: 1}) is None


def test_limit_q1_divides_by_a_t_dependent_denominator():
    # (t1 + t1^2) / (1 + t1) is kept unreduced (its denominator depends on
    # t); its q = 1 value is the polynomial t1
    t1 = tvar(0)
    assert ((t1 + t1 ** 2) / (1 + t1)).limit_q1() == TScalar({(1,): 1})
    with pytest.raises(ValueError):
        (t1 / (1 + t1)).limit_q1()


@PROPERTY
@given(*[fractions(t_free_den=True, emax=2)] * 3)
def test_equal_values_are_structurally_equal(a, b, c):
    # t-free denominators, with exponents small enough that every numerator
    # and denominator stays below the gcd cap: the normal form is canonical
    x, y, z = a[0], b[0], c[0]
    pairs = [((x + y) * z, x * z + y * z), ((x * y) * z, x * (y * z)),
             (x - x, QScalar.integer(0))]
    if not y.is_zero() and all(ts.monomials().keys() <= {()} for ts in y.num.values()):
        pairs.append(((x * y) / y, x))
    for u, v in pairs:
        assert u == v
        assert (u.scale, u.num, u.den) == (v.scale, v.num, v.den)


def test_scale_is_reduced_after_gcd_cancellation():
    # (1 + q^(1/2)) / (1 + q^(1/2)) only coarsens to scale 1 once the gcd
    # is cancelled
    h = 1 + qpow(Fraction(1, 2))
    x = h / h
    assert (x.scale, x.num, x.den) == (ONE.scale, ONE.num, ONE.den)
    assert x.is_one() and x.is_polynomial()
    y = (qpow(Fraction(3, 2)) + qpow(2)) / h  # = q^(3/2)
    assert (y.scale, y.num, y.den) == (2, {3: TScalar.integer(1)}, ONE.den)


def test_scale_is_reduced_after_the_denominator_is_anchored():
    # q^(-1/2) t1 / (q^(1/2) t1 (1 + t1)) is q^-1 / (1 + t1): its exponents
    # coarsen to scale 1 only once the denominator is shifted to u^0
    t = TScalar({(1,): 1})
    x = QScalar({Fraction(-1, 2): t}, {Fraction(1, 2): t + TScalar({(2,): 1})})
    want = qpow(-1) / (1 + tvar(0))
    assert (x.scale, x.num, x.den) == (want.scale, want.num, want.den) == (
        1, {-1: TScalar.integer(1)}, {0: TScalar({(): 1, (1,): 1})})


# ---------------------------------------------------------------------------
# One key layout for QScalar and the flat ring.

def structure(x: QScalar):
    return x.scale, x._num, x._den


@PROPERTY
@given(fractions(), st.integers(1, 6))
def test_flat_pair_and_flat_qscalar_round_trip(a, k):
    x = a[0]
    scale = k * x.scale
    assert structure(flat_qscalar(*flat_pair(x, scale), scale)) == structure(x)


@PROPERTY
@given(fractions(), st.integers(1, 6))
def test_flat_kernel_never_writes_into_a_qscalar(a, k):
    x = a[0]
    before = dict(x._num), dict(x._den)
    num, den = flat_pair(x, k * x.scale)
    for acc in (num, den):
        if acc is not FLAT_ONE:
            flat_mac(acc, dict(acc), {0: 1}, 1)  # acc += u * acc
    assert (x._num, x._den) == before
    assert FLAT_ONE == {0: 1}


stored_keys = st.tuples(
    st.integers(-(2 ** 30), 2 ** 30 - 1),
    st.lists(st.integers(0, 2 ** 10 - 1), max_size=16))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stored_keys, stored_keys)
def test_key_order_is_lex_order_highest_field_first(a, b):
    def lex(e, mono):
        return (*reversed(mono + [0] * (16 - len(mono))), e)
    assert (_pack(*a) < _pack(*b)) == (lex(*a) < lex(*b))
    assert (_pack(*a) == _pack(*b)) == (lex(*a) == lex(*b))


@PROPERTY
@given(fractions(), st.sampled_from([-1, -2, 2, 3]))
def test_subs_q_matches_sympy(a, c):
    x, sx = a
    assert matches(x.subs_q(c), sx.subs(S, S ** c))


@PROPERTY
@given(fractions(), st.sampled_from([Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 4), 5]))
def test_subs_q_round_trips(a, c):
    x = a[0]
    assert structure(x.subs_q(c).subs_q(1 / Fraction(c))) == structure(x)


def test_subs_q_by_zero_is_refused():
    with pytest.raises(ValueError):
        qpow(1).subs_q(0)


# ---------------------------------------------------------------------------
# The t-content of the normal form, taken on the biased fields.

def decoded_t_content(ts) -> int:
    """The componentwise minimum of t-parts, decoding each one."""
    monos = [_fields(t)[1] for t in ts]
    width = max(map(len, monos))
    return _pack(0, [min(m[i] if i < len(m) else 0 for m in monos)
                     for i in range(width)])


signed_t_parts = st.lists(st.integers(-(2 ** 10), 2 ** 10 - 1), max_size=16).map(
    lambda mono: _pack(0, mono))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(signed_t_parts, min_size=1, max_size=6))
def test_t_content_is_the_componentwise_minimum(ts):
    assert _t_content(ts) == decoded_t_content(ts)


signed_flat = st.dictionaries(
    st.builds(_pack, st.integers(-6, 6), st.lists(st.integers(-3, 3), max_size=3)),
    st.integers(-3, 3).filter(bool), min_size=1, max_size=5)


@PROPERTY
@given(signed_flat, signed_flat, st.sampled_from([1, 2, 3, 6]))
def test_normal_form_of_signed_flat_input_is_unchanged(num, den, scale):
    got = QScalar._normalize(dict(num), dict(den), scale)
    with mock.patch.object(scalars, "_t_content", decoded_t_content):
        want = QScalar._normalize(dict(num), dict(den), scale)
    assert got == want


@PROPERTY
@given(st.lists(st.integers(-40, 40), max_size=16))
def test_tpow_is_the_quotient_of_two_t_monomials(vec):
    want = (QScalar.t_monomial([max(x, 0) for x in vec])
            / QScalar.t_monomial([max(-x, 0) for x in vec]))
    assert structure(tpow(vec)) == structure(want)
