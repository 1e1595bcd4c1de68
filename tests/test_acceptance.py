"""Acceptance suite: the six exact criteria, one pass/fail line each.

The paper's data and predicates live in `qca.checks`, which `qca check`
also runs; each criterion calls them at its own sizes and adds what has no
other home.  Run with `pytest tests/test_acceptance.py -s` to see the lines."""

import time
from fractions import Fraction

from qca import fixtures
from qca.checks import (
    A2_SEQ,
    CVECTORS,
    EPSILONS,
    adds_classical_a2_wall,
    adds_quantum_a23_wall,
    check_poisson,
    check_pstar,
    check_theta,
    classical_a2_diagram,
    classical_rows,
    ends_in_swap,
    grid,
    has_negative_coefficient,
    loop_coefficient,
    loop_matches_closed_form,
    mutations_are_poisson,
    new_walls,
    q1_specializes,
    quantum_rows,
)
from qca.mutation import (
    classical_x_table,
    mutate_word,
    quantum_x_table,
    quantum_x_variables,
    x_torus,
)
from qca.commutative import CRational
from qca.poisson import element_q1, poisson_bracket, semiclassical_bracket
from qca.qtorus import QTorusElement
from qca.scalars import ONE, QScalar, qpow, vpow
from qca.scatter import appendix_b_closed_form, complete_to_order, initial_diagram
from qca.seeds import Seed
from qca.words import FactoredWord, words_equal
from test_qtorus import dilog_series_coefficients, neg_li2_coefficients


def _report(name: str, elapsed: float, budget: float):
    assert elapsed < budget, f"{name} exceeded its runtime budget"
    print(f"[PASS] {name}  ({elapsed:.2f}s < {budget:.0f}s)")


def _assert_all(results):
    for name, ok, detail in results:
        assert ok, f"{name} {detail}"


def _differ(table, expected, equal):
    """(step, i) of each table entry that differs from the expected row."""
    return [(step, i) for step, (_, vals) in enumerate(table)
            for i, v in enumerate(vals) if not equal(v, expected[step][i])]


def _equal_to_order_12(a, b):
    return words_equal(a, b, 12)


def test_criterion_1_table1():
    t0 = time.time()
    fd = fixtures.a2_tables()
    rows = quantum_x_table(fd, A2_SEQ, with_coefficients=False)
    assert [seed.epsilon() for seed, _ in rows] == EPSILONS
    assert not _differ(rows, quantum_rows(x_torus(fd), t=False), _equal_to_order_12)
    crows = classical_x_table(fd, A2_SEQ, with_coefficients=False)
    assert not _differ(crows, classical_rows(t=False), CRational.__eq__)
    assert ends_in_swap(fd, rows)
    _report("criterion 1: Table 1 (A2 pentagon, classical and quantum)",
            time.time() - t0, 5.0)


def test_criterion_2_table2():
    t0 = time.time()
    fd = fixtures.a2_tables()
    alg = x_torus(fd)
    qrows = quantum_x_table(fd, A2_SEQ, with_coefficients=True)
    assert [seed.cvectors() for seed, _ in qrows] == CVECTORS
    assert not _differ(qrows, quantum_rows(alg, t=True), _equal_to_order_12)
    crows = classical_x_table(fd, A2_SEQ, with_coefficients=True)
    assert not _differ(crows, classical_rows(t=True), CRational.__eq__)
    assert q1_specializes(qrows, crows)
    # t = 1 recovers Table 1
    assert not _differ(qrows, quantum_rows(alg, t=False), lambda w, e: words_equal(
        w.transport(alg, lambda n: n, lambda s: s.subs_t_one()), e, 12))
    _report("criterion 2: Table 2 (principal coefficients, incl. C_s column)",
            time.time() - t0, 5.0)


def test_criterion_3_classical_a2_scattering():
    t0 = time.time()
    for order in range(2, 7):
        dg = classical_a2_diagram(order)
        assert adds_classical_a2_wall(dg), order
        assert new_walls(dg)[0].direction == (-1, 1)
        assert dg.is_consistent(grid(3), order)
    _report("criterion 3: classical A2 scattering (one wall, 1 + A1^-1 A2)",
            time.time() - t0, 2.0)


def test_criterion_4_quantum_a23_scattering():
    t0 = time.time()
    dg = initial_diagram(fixtures.a23(), quantum=True, order=2)
    # p_gamma = ((p_gamma)^{-1})^{-1}: at this order the coefficient of the
    # loop is minus the closed form, at every nonzero u with |u_i| <= 3
    assert loop_matches_closed_form(dg, 3)
    # coefficient groups, recovered from engine loop products alone
    g1 = loop_coefficient(dg, (1, 0)) * vpow(-3) * QScalar.integer(-1)
    assert g1 == vpow(-4) + 1 + vpow(4)
    g2 = loop_coefficient(dg, (0, 1)) * vpow(-2) * QScalar.integer(-1)
    assert g2 == vpow(-3) + vpow(3)
    g3 = (loop_coefficient(dg, (1, 1)) - loop_coefficient(dg, (1, 0))
          - loop_coefficient(dg, (0, 1))) * vpow(-5) * QScalar.integer(-1)
    assert g3 == vpow(6) - vpow(-6)
    assert adds_quantum_a23_wall(complete_to_order(dg, 2), 3)
    # quantum positivity failure: a strictly negative integer coefficient
    val = appendix_b_closed_form((1, -1))
    assert val == vpow(-1) - vpow(1) + vpow(3)
    assert has_negative_coefficient(val)
    _report("criterion 4: quantum A(2,3) scattering at order 2 (49 cases)",
            time.time() - t0, 10.0)


def test_criterion_5_theta():
    t0 = time.time()
    _assert_all(check_theta())
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
    _assert_all(check_pstar())
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
    _assert_all(check_poisson())
    for fd in (fixtures.a23(), fixtures.rank3_frozen()):
        assert mutations_are_poisson(fd), fd.labels
    _report("criterion 6: property suites (mutation, dilog, p*, Poisson)",
            time.time() - t0, 60.0)
