"""Acceptance suite: the six exact criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines."""

import time
from fractions import Fraction

import pytest

from paper_data import A2_SEQ, EXPECTED_C, EXPECTED_EPS, classical_rows, quantum_rows
from qca import fixtures
from qca.duality import PStarHom
from qca.mutation import (
    classical_x_table,
    mutate_a_word,
    mutate_word,
    quantum_x_table,
    quantum_x_variables,
    word_to_classical,
    x_torus,
)
from qca.commutative import CRational
from qca.poisson import (
    check_poisson_map,
    element_q1,
    poisson_bracket,
    semiclassical_bracket,
)
from qca.qtorus import QTorusElement, dilog_series_coefficients, neg_li2_coefficients
from qca.scalars import ONE, QScalar, qpow, vpow
from qca.scatter import appendix_b_closed_form, complete_to_order, initial_diagram
from qca.seeds import Seed
from qca.theta import enumerate_broken_lines, greedy_T, theta_coefficient
from qca.words import FactoredWord, words_equal


def _report(name: str, elapsed: float, budget: float):
    assert elapsed < budget, f"{name} exceeded its runtime budget"
    print(f"[PASS] {name}  ({elapsed:.2f}s < {budget:.0f}s)")


def test_criterion_1_table1():
    t0 = time.time()
    fd = fixtures.a2_tables()
    alg = x_torus(fd)
    # x-quantum: every row matches the published expressions at K=12
    rows = quantum_x_table(fd, A2_SEQ, with_coefficients=False)
    expected = quantum_rows(alg, t=False)
    for step, (seed, words) in enumerate(rows):
        assert seed.epsilon() == EXPECTED_EPS[step]
        for i in range(2):
            assert words_equal(words[i], expected[step][i], 12), (step, i)
    # x-classical
    crowse = classical_rows(t=False)
    for step, (seed, vals) in enumerate(
            classical_x_table(fd, A2_SEQ, with_coefficients=False)):
        for i in range(2):
            assert vals[i] == crowse[step][i], (step, i)
    # final row is (X2, X1)
    assert words_equal(rows[5][1][0], FactoredWord.monomial(alg, (0, 1)), 12)
    assert words_equal(rows[5][1][1], FactoredWord.monomial(alg, (1, 0)), 12)
    _report("criterion 1: Table 1 (A2 pentagon, classical and quantum)",
            time.time() - t0, 5.0)


def test_criterion_2_table2():
    t0 = time.time()
    fd = fixtures.a2_tables()
    alg = x_torus(fd)
    qrows = quantum_x_table(fd, A2_SEQ, with_coefficients=True)
    expected = quantum_rows(alg, t=True)
    for step, (seed, words) in enumerate(qrows):
        assert seed.cvectors() == EXPECTED_C[step], step
        for i in range(2):
            assert words_equal(words[i], expected[step][i], 12), (step, i)
    crows = classical_x_table(fd, A2_SEQ, with_coefficients=True)
    cexp = classical_rows(t=True)
    for step, (seed, vals) in enumerate(crows):
        for i in range(2):
            assert vals[i] == cexp[step][i], (step, i)
    # q = 1 specialization of the quantum family equals the classical family
    for (s1, words), (s2, vals) in zip(qrows, crows):
        for w, v in zip(words, vals):
            assert word_to_classical(w) == v
    # t = 1 recovers Table 1
    bare = quantum_rows(alg, t=False)
    for step, (seed, words) in enumerate(qrows):
        for i in range(2):
            assert words_equal(words[i].map_scalars(lambda s: s.subs_t_one()),
                               bare[step][i], 12)
    _report("criterion 2: Table 2 (principal coefficients, incl. C_s column)",
            time.time() - t0, 5.0)


def test_criterion_3_classical_a2_scattering():
    t0 = time.time()
    fd = fixtures.a2_scattering()
    grid = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
    for order in range(2, 7):
        dg = complete_to_order(initial_diagram(fd, quantum=False, order=order),
                               order)
        new = [w for w in dg.walls if not w.incoming]
        assert len(new) == 1, order
        assert new[0].ray == (1, -1)
        assert new[0].function == {1: ONE}          # 1 + A1^{-1} A2
        assert new[0].direction == (-1, 1)
        assert dg.is_consistent(grid, order)
    _report("criterion 3: classical A2 scattering (one wall, 1 + A1^-1 A2)",
            time.time() - t0, 2.0)


def test_criterion_4_quantum_a23_scattering():
    t0 = time.time()
    fd = fixtures.a23()
    dg = initial_diagram(fd, quantum=True, order=2)
    grid49 = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    m = (2, -3)

    def engine_coefficient(u):
        """Left-normal-form degree-2 coefficient of the engine's loop."""
        got = dg.path_ordered_product(u, 2)
        mm = tuple(a + b for a, b in zip(m, u))
        return got.coefficient(mm) * qpow(-dg.torus.omega(m, u))

    for u in grid49:
        if u == (0, 0):
            continue
        # p_gamma = ((p_gamma)^{-1})^{-1}: at this order the coefficient of
        # the loop is minus the closed form
        assert engine_coefficient(u) == -appendix_b_closed_form(u), u
    # coefficient groups, recovered from engine loop products alone
    g1 = engine_coefficient((1, 0)) * vpow(-3) * QScalar.integer(-1)
    assert g1 == vpow(-4) + 1 + vpow(4)
    g2 = engine_coefficient((0, 1)) * vpow(-2) * QScalar.integer(-1)
    assert g2 == vpow(-3) + vpow(3)
    g3 = (engine_coefficient((1, 1)) - engine_coefficient((1, 0))
          - engine_coefficient((0, 1))) * vpow(-5) * QScalar.integer(-1)
    assert g3 == vpow(6) - vpow(-6)
    # completion: exactly one new wall, on R>=0 (-2 f1 + 3 f2)
    done = complete_to_order(dg, 2)
    new = [w for w in done.walls if not w.incoming]
    assert len(new) == 1
    assert new[0].ray == (-2, 3)
    assert done.is_consistent([u for u in grid49 if u != (0, 0)], 2)
    # quantum positivity failure: a strictly negative integer coefficient
    val = appendix_b_closed_form((1, -1))
    assert val == vpow(-1) - vpow(1) + vpow(3)
    negs = [c for mono in val.num.values() for c in mono.terms.values() if c < 0]
    assert negs
    _report("criterion 4: quantum A(2,3) scattering at order 2 (49 cases)",
            time.time() - t0, 10.0)


def test_criterion_5_theta():
    t0 = time.time()
    fd = fixtures.a23()
    dg = complete_to_order(initial_diagram(fd, quantum=True, order=2), 2)
    Q = (Fraction(1), Fraction(1))
    target = vpow(-2) - 1 + vpow(2)
    lines = enumerate_broken_lines((-3, 5), Q, dg, 4, final_exponent=(1, -1))
    assert len(lines) == 1
    coeff = theta_coefficient((-3, 5), Q, dg, 4, (1, -1))
    assert coeff == target
    # equals the greedy value e(2,1) = v^2 - 1 + v^{-2} under v <-> v^{-1}
    assert coeff.bar() == coeff
    assert coeff == vpow(2) - 1 + vpow(-2)
    assert greedy_T((-3, 5), 2, 3) == (-3, -4)
    _report("criterion 5: theta coefficient v^-2 - 1 + v^2 (unique line)",
            time.time() - t0, 5.0)


def _depth2_seeds(fd):
    seeds = [Seed(fd)]
    for k1 in fd.unfrozen:
        seeds.append(Seed(fd).mutate(k1))
        for k2 in fd.unfrozen:
            seeds.append(Seed(fd).mutate(k1).mutate(k2))
    return seeds


def test_criterion_6_property_suites():
    t0 = time.time()
    # (a) involutivity and *-homomorphism, ranks 2-3, depth <= 2, K = 10
    for fd in (fixtures.a2_tables(), fixtures.a23(), fixtures.rank3_full()):
        alg = x_torus(fd)
        for seed in _depth2_seeds(fd):
            for k in fd.unfrozen:
                prefix = list(seed.history)
                _, before = quantum_x_variables(fd, prefix, True)
                _, after = quantum_x_variables(fd, prefix + [k, k], True)
                for w1, w2 in zip(before, after):
                    assert words_equal(w1, w2, 10)
                nxt = seed.mutate(k)
                for i in range(fd.n):
                    w = FactoredWord.monomial(alg, nxt.basis[i])
                    assert words_equal(mutate_word(w, k, seed).star(),
                                       mutate_word(w.star(), k, seed), 10)
    # (b) dilogarithm identities to K = 6
    K = 6
    for h in (Fraction(1), Fraction(1, 2), Fraction(-3, 2)):
        c = dilog_series_coefficients(h, K)
        for k in range(1, K + 1):  # difference relation
            assert c[k] * qpow(2 * k * h) == c[k] + qpow(h) * c[k - 1]
        cinv = dilog_series_coefficients(-h, K)  # Psi_{q^{-1}} = Psi_q^{-1}
        for n in range(1, K + 1):
            acc = QScalar.integer(0)
            for i in range(n + 1):
                acc = acc + c[i] * cinv[n - i]
            assert acc.is_zero()
        # product form = exp(-Li2(-x; q))
        g = neg_li2_coefficients(h, K)
        exp_coeffs = [ONE] + [QScalar.integer(0)] * K
        power = list(exp_coeffs)
        fact = 1
        for i in range(1, K + 1):
            nxt = [QScalar.integer(0)] * (K + 1)
            for a in range(K + 1):
                for b in range(1, K + 1 - a):
                    nxt[a + b] = nxt[a + b] + power[a] * g[b]
            power = nxt
            fact *= i
            inv = QScalar.rational(1, fact)
            exp_coeffs = [e + pp * inv for e, pp in zip(exp_coeffs, power)]
        for k in range(K + 1):
            assert exp_coeffs[k] == c[k]
    # (c) p* intertwining, A(2,3) and rank 3, all unfrozen k, K = 8
    for fd in (fixtures.a23(), fixtures.rank3_frozen()):
        hom = PStarHom(fd)
        alg = x_torus(fd)
        seed = Seed(fd)
        for k in fd.unfrozen:
            nxt = seed.mutate(k)
            for i in range(fd.n):
                w = FactoredWord.monomial(alg, nxt.basis[i])
                lhs = hom.apply(mutate_word(w, k, seed))
                aw = FactoredWord.monomial(hom.atorus, hom.pmap.apply(nxt.basis[i]))
                rhs = mutate_a_word(aw, k, seed)
                assert words_equal(lhs, rhs, 8), (fd.labels, k, i)
    # (d) semiclassical bracket = bivector bracket, |n| <= 3 grids
    fd = fixtures.a2_tables()
    alg = x_torus(fd)
    s = Seed(fd)
    rng = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    for a in rng:
        for b in rng:
            xa = QTorusElement.monomial(alg, a)
            xb = QTorusElement.monomial(alg, b)
            lhs = CRational(semiclassical_bracket(xa, xb))
            rhs = poisson_bracket(CRational(element_q1(xa)),
                                  CRational(element_q1(xb)), s)
            assert lhs == rhs, (a, b)
    # (e) Poisson-map identities, ranks 2-3, every unfrozen k
    for fd in (fixtures.a2_tables(), fixtures.a23(), fixtures.rank3_full(),
               fixtures.rank3_frozen()):
        seed = Seed(fd)
        for k in fd.unfrozen:
            assert check_poisson_map(seed, k)["ok"], (fd.labels, k)
    _report("criterion 6: property suites (mutation, dilog, p*, Poisson)",
            time.time() - t0, 60.0)
