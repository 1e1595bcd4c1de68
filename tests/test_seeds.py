import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qca.checks import A2_SEQ, CVECTORS, EPSILONS
from qca.fixtures import a23, a2_tables
from qca.seeds import (
    Seed,
    cluster_chamber,
    fixed_data_from_json,
    fixed_data_to_json,
    langlands_dual,
    make_fixed_data,
)
from x_mutation_oracle import form_int


def test_make_fixed_data_a2():
    fd = a2_tables()
    s = Seed(fd)
    assert s.epsilon() == ((0, -1), (1, 0))


def test_make_fixed_data_a23():
    fd = a23()
    s = Seed(fd)
    assert s.epsilon() == ((0, -3), (2, 0))
    assert fd.d_lcm == 6


def test_gcd_d_rejected():
    with pytest.raises(ValueError):
        make_fixed_data([[0, -1], [1, 0]], d=[2, 2])


def test_integrality_rejected():
    with pytest.raises(ValueError):
        make_fixed_data([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]], d=[1, 1])


def test_a2_mutation_table_data():
    # epsilon and C along the pentagon sequence 2,1,2,1,2
    s = Seed(a2_tables())
    for step in range(6):
        assert s.epsilon() == EPSILONS[step], step
        assert s.cvectors() == CVECTORS[step], step
        if step < 5:
            s = s.mutate(A2_SEQ[step])


def test_mutation_restores_epsilon_and_c():
    fd = a23()
    s = Seed(fd)
    for k in (0, 1):
        s2 = s.mutate(k).mutate(k)
        assert s2.epsilon() == s.epsilon()
        assert s2.cvectors() == s.cvectors()


def test_frozen_mutation_rejected():
    fd = make_fixed_data([[0, -1], [1, 0]], unfrozen=[0])
    s = Seed(fd)
    with pytest.raises(ValueError):
        s.mutate(1)


def test_langlands_dual():
    fd = a23()
    dual = langlands_dual(fd)
    assert dual.d == (3, 2)
    # abstract form scaled by 1/6, then written in the dual basis (2e1, 3e2)
    assert dual.skew[0][1] == Fraction(-1)
    s = Seed(dual)
    assert s.epsilon() == ((0, -2), (3, 0))
    # duality is an involution
    assert langlands_dual(dual) == fd
    # d = (1,1) is self-dual
    fd2 = a2_tables()
    assert langlands_dual(fd2).skew == fd2.skew
    assert langlands_dual(fd2).d == fd2.d


def test_sign_coherence_empirical():
    rng = random.Random(2)
    fixtures = [a2_tables(), a23(),
                make_fixed_data([[0, 1, -1], [-1, 0, 1], [1, -1, 0]]),
                make_fixed_data([[0, 2, 0], [-2, 0, 1], [0, -1, 0]])]
    for fd in fixtures:
        depth = 8 if fd.n == 2 else 4
        for _ in range(6):
            s = Seed(fd)
            prev = None
            for _ in range(depth):
                choices = [k for k in fd.unfrozen if k != prev]
                k = rng.choice(choices)
                s = s.mutate(k)
                prev = k
                for c in s.cvectors():
                    assert any(c), "zero c-vector"
                    assert all(x >= 0 for x in c) or all(x <= 0 for x in c), \
                        f"sign coherence fails: {c}"


def test_epsilon_integrality_along_mutations():
    fd = a23()
    s = Seed(fd)
    for k in (0, 1, 0, 1, 0):
        s = s.mutate(k)
        eps = s.epsilon()
        for i in range(2):
            for j in range(2):
                assert Fraction(eps[i][j]).denominator == 1


def test_cluster_chamber():
    fd = a2_tables()
    s = Seed(fd)
    ch = cluster_chamber(s)
    assert set(ch.gvectors) == {(1, 0), (0, 1)}
    s1 = s.mutate(1)
    ch1 = cluster_chamber(s1)
    assert set(ch1.dual_generators) == {(1, 0), (0, -1)}
    assert set(ch1.gvectors) == {(1, 0), (0, -1)}


def test_cluster_chamber_degenerate():
    fd = a2_tables()
    s = Seed(fd)

    class Fake(Seed):
        def cvector(self, k):
            return (1, 1)

    fake = Fake(fd)
    with pytest.raises(ValueError):
        cluster_chamber(fake)


def test_chamber_duality_along_pentagon():
    fd = a2_tables()
    s = Seed(fd)
    for k in (1, 0, 1, 0, 1):
        s = s.mutate(k)
        ch = cluster_chamber(s)
        for c in ch.dual_generators:
            for g in ch.gvectors:
                assert Fraction(c[0] * g[0], fd.d[0]) + Fraction(c[1] * g[1], fd.d[1]) >= 0


def test_json_roundtrip():
    fd = a23()
    data = fixed_data_to_json(fd)
    fd2 = fixed_data_from_json(data)
    assert fd2 == fd


def test_float_skew_entries_load_through_their_decimal_text():
    fd = fixed_data_from_json({"rank": 2, "skew": [[0, 0.5], [-0.5, 0]], "unfrozen": []})
    assert fd.form_den == 2 and fd.skew[0][1] == Fraction(1, 2)
    fd = fixed_data_from_json({"rank": 2, "skew": [[0, 0.1], [-0.1, 0]], "unfrozen": []})
    assert fd.form_den == 10 and fd.skew[1][0] == Fraction(-1, 10)


def test_f_basis_dual():
    fd = a23()
    s = Seed(fd).mutate(0).mutate(1)
    e = s.basis
    f = s.f_basis()
    for i in range(2):
        for j in range(2):
            # <d_i e_{i;s}, f_{j;s}> = delta_ij with <e_a, f_b> = delta/d_a
            val = sum(Fraction(fd.d[i] * e[i][a] * f[j][a], fd.d[a]) for a in range(2))
            assert val == (1 if i == j else 0)


def test_d_length_rejected():
    with pytest.raises(ValueError, match="one d_i per direction"):
        make_fixed_data([[0, -1], [1, 0]], d=[1])


@pytest.mark.parametrize("kwargs, message", [
    ({"d": [Fraction(3, 2), 1]}, "positive integers"),
    ({"d": [True, 1]}, "positive integers"),
    ({"unfrozen": [0, 0]}, "repeat"),
    ({"unfrozen": [0, 2]}, "out of range"),
    ({"labels": ["A"]}, "one string label"),
    ({"labels": [1, 2]}, "one string label"),
])
def test_malformed_fixed_data_rejected(kwargs, message):
    # each would otherwise load: a fractional d_i truncated to an integer,
    # a repeated unfrozen direction listed (and checked) twice
    with pytest.raises(ValueError, match=message):
        make_fixed_data([[0, -1], [1, 0]], **kwargs)


def test_integral_names_the_value():
    fd = make_fixed_data([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]], unfrozen=[])
    assert fd.form_den == 2 and fd.integral(-6, "probe") == -3
    with pytest.raises(ArithmeticError, match="non-integral probe: 1/2"):
        fd.integral(1, "probe")


# -- the integer principal form against the Fraction formula ------------------


@st.composite
def fixed_data(draw):
    """Rank 2-4 fixed data with random symmetrizers and frozen sets; pairs
    with an unfrozen index take {e_i, e_j} in Z/gcd(d_i, d_j), as integrality
    allows, and frozen pairs take any fraction."""
    n = draw(st.integers(2, 4))
    d = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    if gcd(*d) != 1:
        d[draw(st.integers(0, n - 1))] = 1
    unfrozen = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    skew = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            den = (gcd(d[i], d[j]) if i in unfrozen or j in unfrozen
                   else draw(st.integers(1, 3)))
            skew[i][j] = Fraction(draw(st.integers(-2, 2)), den)
            skew[j][i] = -skew[i][j]
    return make_fixed_data(skew, d=d, unfrozen=unfrozen)


def reference_form(fd, a, b) -> Fraction:
    """{(n1,m1),(n2,m2)} = {n1,n2} + <n1,m2> - <n2,m1>, <e_i, f_j> = delta_ij/d_i."""
    n = fd.n
    tot = Fraction(0)
    for i in range(n):
        for j in range(n):
            tot += a[i] * b[j] * fd.skew[i][j]
        tot += Fraction(a[i] * b[n + i] - b[i] * a[n + i], fd.d[i])
    return tot


def reference_mutate(fd, ext, k):
    ek = ext[k]
    out = []
    for i, row in enumerate(ext):
        c = max(reference_form(fd, row, ek) * fd.d[k], 0)
        assert c.denominator == 1
        out.append(tuple(-x for x in ek) if i == k
                   else tuple(x + int(c) * y for x, y in zip(row, ek)))
    return tuple(out)


def reference_f_basis(fd, ext):
    """The dual basis of {d_i e_i} over the rows e_i of ``ext``, in initial
    f-coordinates: F = D^-1 (E^-1)^T D, E^-1 by Fraction Gauss-Jordan."""
    n = fd.n
    m = [[Fraction(x) for x in row[:n]] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(ext[:n])]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c:
                m[r] = [x - m[r][c] * y for x, y in zip(m[r], m[c])]
    return tuple(tuple(m[j][n + i] * Fraction(fd.d[j], fd.d[i]) for j in range(n))
                 for i in range(n))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fixed_data(), st.data())
def test_seed_data_matches_the_fraction_form(fd, data):
    n = fd.n
    seq = data.draw(st.lists(st.sampled_from(fd.unfrozen), max_size=5))
    s = Seed(fd)
    ext = s.ext
    for step in range(len(seq) + 1):
        if step:
            s, ext = s.mutate(seq[step - 1]), reference_mutate(fd, ext, seq[step - 1])
        eh = [[reference_form(fd, ext[i], ext[j]) for j in range(n)] for i in range(n)]
        assert s.basis == tuple(row[:n] for row in ext[:n])
        assert s.epsilon_hat() == tuple(map(tuple, eh))
        assert s.epsilon() == tuple(tuple(x * dj for x, dj in zip(row, fd.d)) for row in eh)
        assert s.cvectors() == tuple(
            tuple(reference_form(fd, ext[k], ext[n + j]) * fd.d[j] for j in range(n))
            for k in fd.unfrozen)
        # the Gram matrix of the basis agrees with the mutated one
        assert tuple(tuple(form_int(fd, a, b) for b in s.ext) for a in s.ext) == s.gram
        # the carried integer f-basis is the dual basis of the reference one
        assert s.f_basis() == reference_f_basis(fd, ext)
        assert all(type(x) is int for row in s.f_basis() for x in row)
        for k in fd.unfrozen:
            assert s.mutate(k).mutate(k).gram == s.gram
    vectors = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    nv, mv = data.draw(vectors), data.draw(vectors)
    assert Fraction(fd.pair_int(nv, mv), fd.form_den) == \
        sum(Fraction(a * b, di) for a, b, di in zip(nv, mv, fd.d))
    a, b = data.draw(vectors) + mv, nv + data.draw(vectors)
    assert Fraction(form_int(fd, a, b), fd.form_den) == reference_form(fd, a, b)
