import random

from hypothesis import given, settings, strategies as st

from qca.commutative import CPoly, CRational
from qca.fixtures import a2_tables
from qca.mutation import x_torus
from qca.poisson import (
    check_poisson_map,
    element_q1,
    poisson_bracket,
    semiclassical_bracket,
)
from qca.qtorus import QTorusElement
from qca.scalars import TScalar
from qca.seeds import Seed, make_fixed_data


def ets(n):
    return TScalar.integer(n)


def test_semiclassical_on_generators():
    fd = make_fixed_data([[0, 1], [-1, 0]])
    alg = x_torus(fd)
    x1 = QTorusElement.generator(alg, 0)
    x2 = QTorusElement.generator(alg, 1)
    got = semiclassical_bracket(x1, x2)
    assert got == CPoly(2, {(1, 1): 2})
    assert semiclassical_bracket(x1, x1).is_zero()


def test_semiclassical_jacobi():
    fd = make_fixed_data([[0, 1], [-1, 0]])
    alg = x_torus(fd)

    def m(n):
        return QTorusElement.monomial(alg, n)

    # Jacobi via the bivector route on the q=1 images
    s = Seed(fd)
    a, b, c = m((1, 0)), m((0, 1)), m((1, 1))
    lhs = poisson_bracket(CRational(semiclassical_bracket(a, b)),
                          CRational(element_q1(c)), s)
    terms = [
        poisson_bracket(CRational(semiclassical_bracket(a, b)),
                        CRational(element_q1(c)), s),
        poisson_bracket(CRational(semiclassical_bracket(b, c)),
                        CRational(element_q1(a)), s),
        poisson_bracket(CRational(semiclassical_bracket(c, a)),
                        CRational(element_q1(b)), s),
    ]
    total = terms[0] + terms[1] + terms[2]
    assert total == CRational(CPoly(2, {}))


def test_bracket_routes_agree_on_monomials():
    # semiclassical bracket equals bivector bracket on monomial grids
    fd = a2_tables()
    alg = x_torus(fd)
    s = Seed(fd)
    for a1 in range(-3, 4):
        for a2_ in range(-3, 4):
            for b1 in range(-2, 3):
                for b2 in range(-2, 3):
                    a = QTorusElement.monomial(alg, (a1, a2_))
                    b = QTorusElement.monomial(alg, (b1, b2))
                    lhs = CRational(semiclassical_bracket(a, b))
                    rhs = poisson_bracket(CRational(element_q1(a)),
                                          CRational(element_q1(b)), s)
                    assert lhs == rhs, ((a1, a2_), (b1, b2))


def test_bracket_on_products():
    fd = a2_tables()
    alg = x_torus(fd)
    s = Seed(fd)
    a = QTorusElement.monomial(alg, (1, 0)) + QTorusElement.monomial(alg, (0, 2))
    b = QTorusElement.monomial(alg, (1, 1)) + QTorusElement.monomial(alg, (-1, 0))
    lhs = CRational(semiclassical_bracket(a, b))
    rhs = poisson_bracket(CRational(element_q1(a)), CRational(element_q1(b)), s)
    assert lhs == rhs


def test_poisson_axioms():
    fd = a2_tables()
    s = Seed(fd)
    rng = random.Random(13)

    def rand_rational():
        num = CPoly(2, {(rng.randint(-2, 2), rng.randint(-2, 2)):
                        TScalar({(rng.randint(0, 1), 0): rng.randint(-2, 2)})
                        for _ in range(2)})
        if num.is_zero():
            num = CPoly.one(2)
        return CRational(num)

    one = CRational.one(2)
    for _ in range(10):
        f, g, h = rand_rational(), rand_rational(), rand_rational()
        assert poisson_bracket(f, one, s) == CRational(CPoly(2, {}))
        assert poisson_bracket(f, f, s) == CRational(CPoly(2, {}))
        # antisymmetry and Leibniz
        assert poisson_bracket(f, g, s) == -poisson_bracket(g, f, s)
        assert poisson_bracket(f, g * h, s) == \
            poisson_bracket(f, g, s) * h + g * poisson_bracket(f, h, s)
        # quotient rule {f, 1/g} = -(1/g^2) {f, g}
        if not g.is_zero():
            lhs = poisson_bracket(f, g.inverse(), s)
            rhs = -(g * g).inverse() * poisson_bracket(f, g, s)
            assert lhs == rhs


def test_jacobi_on_laurent_monomials():
    fd = a2_tables()
    s = Seed(fd)
    rng = random.Random(23)
    for _ in range(12):
        vals = []
        for _ in range(3):
            e = (rng.randint(-2, 2), rng.randint(-2, 2))
            vals.append(CRational(CPoly(2, {e: 1})))
        f, g, h = vals
        total = poisson_bracket(f, poisson_bracket(g, h, s), s) \
            + poisson_bracket(g, poisson_bracket(h, f, s), s) \
            + poisson_bracket(h, poisson_bracket(f, g, s), s)
        assert total == CRational(CPoly(2, {}))


def test_poisson_map_a2():
    fd = a2_tables()
    s = Seed(fd)
    for k in (0, 1):
        report = check_poisson_map(s, k)
        assert report["ok"], report
    # deeper chart
    s2 = s.mutate(1).mutate(0)
    report = check_poisson_map(s2, 1)
    assert report["ok"]


def test_poisson_map_rank3():
    fd = make_fixed_data([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
    s = Seed(fd)
    for k in range(3):
        report = check_poisson_map(s, k)
        assert report["ok"], (k, report)


def test_poisson_map_degenerate_pair():
    # eps_ik = eps_jk = 0 pair: both sides vanish
    fd = make_fixed_data([[0, 0, 1], [0, 0, 1], [-1, -1, 0]])
    s = Seed(fd)
    rank = 3
    gens = [CRational.variable(rank, i) for i in range(rank)]
    lhs = poisson_bracket(gens[0], gens[1], s.mutate(2))
    assert lhs == CRational(CPoly(3, {}))
    report = check_poisson_map(s, 2)
    assert report["ok"]


def test_coefficient_bilinearity():
    # t-coefficients are Casimir-like: the bracket is TScalar-bilinear
    fd = a2_tables()
    s = Seed(fd)
    t1x1 = CRational(CPoly(2, {(1, 0): TScalar({(1,): 1})}))
    x2 = CRational.variable(2, 1)
    got = poisson_bracket(t1x1, x2, s)
    want = _scale = poisson_bracket(CRational.variable(2, 0), x2, s)
    assert got == CRational(want.num.scale(TScalar({(1,): 1})), want.den)


@st.composite
def skew_forms(draw):
    """A skew-symmetric integer form of rank 2 or 3, entries in [-2, 2]."""
    n = draw(st.sampled_from((2, 3)))
    skew = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            skew[i][j] = draw(st.integers(-2, 2))
            skew[j][i] = -skew[i][j]
    return make_fixed_data(skew)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(skew_forms(), st.data())
def test_poisson_map_on_random_forms(fd, data):
    # every unfrozen mutation is a Poisson map, at the initial seed and
    # one mutation away
    first = data.draw(st.sampled_from(fd.unfrozen))
    for seed in (Seed(fd), Seed(fd).mutate(first)):
        for k in fd.unfrozen:
            assert check_poisson_map(seed, k)["ok"], (fd.skew, seed.history, k)
