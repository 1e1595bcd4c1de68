import random
from fractions import Fraction

from qca.qtorus import QTorusElement, SkewLattice
from qca.scalars import ONE, QScalar, qpow, vpow


def dilog_series_coefficients(h: Fraction, order: int) -> list[QScalar]:
    """Taylor coefficients c_0..c_K of Psi_Q(x) with Q = q^h.

    From the difference relation Psi(Q^2 x) = (1 + Qx) Psi(x):
    c_k = c_{k-1} * Q / (Q^{2k} - 1).
    """
    coeffs = [ONE]
    for k in range(1, order + 1):
        coeffs.append(coeffs[-1] * qpow(h) / (qpow(2 * k * h) - 1))
    return coeffs


def neg_li2_coefficients(h: Fraction, order: int) -> list[QScalar]:
    """Taylor coefficients of -Li2(-x; Q), Q = q^h: the logarithm of Psi_Q.

    coefficient of x^l is (-1)^{l+1} / (l (Q^l - Q^{-l})).
    """
    out = [QScalar.integer(0)]
    for l in range(1, order + 1):
        sign = 1 if l % 2 else -1
        out.append(QScalar.rational(sign, l) / (qpow(l * h) - qpow(-l * h)))
    return out


def is_central(alg: SkewLattice, n) -> bool:
    """omega(n, e_i) = 0 for every generator e_i."""
    return not any(alg.row_pairing(n))


def x_lattice(w12=1):
    return SkewLattice.make([[0, w12], [-w12, 0]])


def a23_lattice():
    # BZ torus for A(2,3): form = Lambda/2 with Lambda = ((0,1),(-1,0)),
    # labels A1, A2; q here is q_BZ (= v^{-2}).
    return SkewLattice.make(
        [[0, Fraction(1, 2)], [Fraction(-1, 2), 0]], labels=("A1", "A2"))


def test_defining_relation():
    alg = x_lattice(1)
    x1 = QTorusElement.generator(alg, 0)
    x2 = QTorusElement.generator(alg, 1)
    assert x1 * x2 == QTorusElement.monomial(alg, (1, 1), qpow(1))
    assert x2 * x1 == QTorusElement.monomial(alg, (1, 1), qpow(-1))


def test_a23_commutation():
    # A2 A1 = v^2 A1 A2 in the A(2,3) quantum torus
    alg = a23_lattice()
    a1 = QTorusElement.generator(alg, 0)
    a2 = QTorusElement.generator(alg, 1)
    assert a2 * a1 == (a1 * a2).scale(vpow(2))


def test_q_commutation_monomials():
    alg = x_lattice(1)
    rng = random.Random(5)
    for _ in range(20):
        n = (rng.randint(-3, 3), rng.randint(-3, 3))
        m = (rng.randint(-3, 3), rng.randint(-3, 3))
        xn = QTorusElement.monomial(alg, n)
        xm = QTorusElement.monomial(alg, m)
        w = alg.omega(n, m)
        assert xn * xm == (xm * xn).scale(qpow(2 * w))


def test_associativity_random():
    alg = x_lattice(1)
    rng = random.Random(9)

    def rand_elem():
        e = QTorusElement(alg, {})
        for _ in range(rng.randint(1, 3)):
            n = (rng.randint(-2, 2), rng.randint(-2, 2))
            e = e + QTorusElement.monomial(alg, n, QScalar.integer(rng.randint(-2, 2)))
        return e

    for _ in range(15):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)


def test_star():
    alg = x_lattice(1)
    x1 = QTorusElement.generator(alg, 0)
    x2 = QTorusElement.generator(alg, 1)
    prod = x1 * x2
    assert prod.star() == QTorusElement.monomial(alg, (1, 1), qpow(-1))
    # antiautomorphism: star(ab) = star(b) star(a)
    a = x1 + x2.scale(qpow(2))
    b = x1 * x2 + QTorusElement.one(alg)
    assert (a * b).star() == b.star() * a.star()
    assert a.star().star() == a


def test_is_central():
    alg = x_lattice(1)
    assert not is_central(alg, (1, 1))
    assert is_central(alg, (0, 0))
    alg3 = SkewLattice.make([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    assert is_central(alg3, (0, 0, 1))
    # central exponents commute with all generators
    z = QTorusElement.monomial(alg3, (0, 0, 2))
    for i in range(3):
        g = QTorusElement.generator(alg3, i)
        assert z * g == g * z


def test_dilog_order_zero():
    assert dilog_series_coefficients(Fraction(1), 0) == [ONE]


def test_dilog_x1_coefficient():
    # frozen derived value: coefficient of x is 1/(q - q^{-1})
    c = dilog_series_coefficients(Fraction(1), 1)[1]
    assert c == 1 / (qpow(1) - qpow(-1))
    # oracle: the partial product over l <= L satisfies
    # c1 * (1 - q^{2L}) = -(q + q^3 + ... + q^{2L-1}) for every L
    for L in (3, 7):
        partial = -sum((qpow(2 * l - 1) for l in range(1, L + 1)), QScalar.integer(0))
        assert c * (1 - qpow(2 * L)) == partial


def test_dilog_difference_relation():
    # Psi(q^2 x) = (1 + qx) Psi(x): q^{2k} c_k = c_k + q c_{k-1}
    K = 6
    c = dilog_series_coefficients(Fraction(1), K)
    for k in range(1, K + 1):
        assert c[k] * qpow(2 * k) == c[k] + qpow(1) * c[k - 1]


def _poly_mul(a, b, K):
    out = [QScalar.integer(0)] * (K + 1)
    for i, ca in enumerate(a):
        if i > K:
            break
        for j, cb in enumerate(b):
            if i + j > K:
                break
            out[i + j] = out[i + j] + ca * cb
    return out


def test_dilog_exp_li2():
    # Psi_q(x) = exp(-Li2(-x; q)) to order 4, computed independently
    K = 4
    psi = dilog_series_coefficients(Fraction(1), K)
    g = neg_li2_coefficients(Fraction(1), K)
    acc = [ONE] + [QScalar.integer(0)] * K
    power = list(acc)
    fact = 1
    for i in range(1, K + 1):
        power = _poly_mul(power, g, K)
        fact *= i
        inv = QScalar.rational(1, fact)
        acc = [a + p * inv for a, p in zip(acc, power)]
    for k in range(K + 1):
        assert acc[k] == psi[k]


def test_dilog_inverse_identity():
    # Psi_{q^{-1}}(x) = Psi_q(x)^{-1} to order 6
    K = 6
    a = dilog_series_coefficients(Fraction(1), K)
    b = dilog_series_coefficients(Fraction(-1), K)
    prod = _poly_mul(a, b, K)
    assert prod[0] == ONE
    for k in range(1, K + 1):
        assert prod[k].is_zero()
