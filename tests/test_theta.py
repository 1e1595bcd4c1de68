from fractions import Fraction

import pytest

from qca.checks import fig3_coefficient
from qca.fixtures import a23
from qca.scalars import ONE, QScalar, TScalar
from qca.scatter import complete_to_order, initial_diagram
from qca.theta import enumerate_broken_lines, greedy_T, theta_function


def a23_diagram(quantum=True, order=2):
    return complete_to_order(
        initial_diagram(a23(), side="A", quantum=quantum, order=order), order)


M0 = (-3, 5)
TARGET = (1, -1)
Q = (Fraction(1), Fraction(1))
FIG3 = fig3_coefficient()


def theta_coefficient(m0, Q, diagram, order, exponent):
    """The coefficient of A^exponent in theta_m0: the sum of the final
    coefficients of the broken lines that end in that exponent."""
    lines = enumerate_broken_lines(m0, Q, diagram, order, final_exponent=exponent)
    return sum((bl.final_decoration.coeff for bl in lines), QScalar.integer(0))


def test_fig3_unique_line_and_coefficient():
    dg = a23_diagram()
    for budget in (4, 5, 6):
        lines = enumerate_broken_lines(M0, Q, dg, budget, final_exponent=TARGET)
        assert len(lines) == 1, budget
        line = lines[0]
        assert line.final_decoration.coeff == FIG3
        # decoration chain of Figure 3
        assert [s.exponent for s in line.segments] == \
            [(-3, 5), (-1, 2), (-1, -1), (1, -1)]
        for s in line.segments[1:]:
            assert s.coeff == FIG3
    for budget in (2, 3):
        assert enumerate_broken_lines(M0, Q, dg, budget,
                                      final_exponent=TARGET) == []


def test_fig3_geometry():
    dg = a23_diagram()
    (line,) = enumerate_broken_lines(M0, Q, dg, 4, final_exponent=TARGET)
    p1, p2, p3 = line.bend_points
    # first bend on the outgoing ray (-2,3), then the negative y-axis, then
    # the positive x-axis; segments direct as drawn in the figure
    assert p1[0] < 0 and p1[1] > 0 and p1[1] * 2 == -p1[0] * 3
    assert p2[0] == 0 and p2[1] < 0
    assert p3[1] == 0 and p3[0] > 0
    assert line.endpoint == Q


def test_theta_coefficient_value():
    dg = a23_diagram()
    coeff = theta_coefficient(M0, Q, dg, 4, TARGET)
    assert coeff == FIG3
    # bar symmetry: fixed under v -> v^{-1}
    assert coeff.bar() == coeff


def test_theta_in_own_chamber():
    dg = a23_diagram()
    for m0 in [(1, 1), (2, 1), (1, 2)]:
        th = theta_function(m0, Q, dg, 3)
        assert dict(th.terms) == {m0: ONE}


def test_straight_line_only_without_separating_walls():
    dg = a23_diagram()
    lines = enumerate_broken_lines((1, 1), Q, dg, 3)
    assert len(lines) == 1
    assert lines[0].segments == lines[0].segments[:1]


def test_endpoint_chamber_stability():
    dg = a23_diagram()
    for q2 in [(Fraction(2), Fraction(1)), (Fraction(1), Fraction(3)),
               (Fraction(1, 2), Fraction(5))]:
        assert theta_coefficient(M0, q2, dg, 4, TARGET) == FIG3


def test_basepoint_on_wall_rejected():
    dg = a23_diagram()
    with pytest.raises(ValueError):
        enumerate_broken_lines(M0, (Fraction(1), Fraction(0)), dg, 2)
    with pytest.raises(ValueError):
        enumerate_broken_lines(M0, (Fraction(-2), Fraction(3)), dg, 2)


def test_classical_limit_of_fig3():
    # on the classical diagram the same line counts with coefficient 1
    # (= the q->1 limit of v^{-2} - 1 + v^2)
    dg = a23_diagram(quantum=False)
    coeff = theta_coefficient(M0, Q, dg, 4, TARGET)
    assert coeff == QScalar.integer(1)
    assert FIG3.limit_q1() == TScalar.integer(1)


def test_greedy_T():
    # T(-3,5) is checked by qca.checks.check_theta
    assert greedy_T((2, 7), 2, 3) == (2, 7)
    assert greedy_T((-1, 0), 2, 3) == (-1, -3)
    assert greedy_T((0, 4), 2, 3) == (0, 4)


def test_crossing_checks_raise_under_python_O(monkeypatch):
    # the checks on a crossing are raised errors, not asserts: they hold
    # under python -O as well.  The search crosses on the flat ring, so the
    # faults are injected into ScatteringDiagram._cross, which returns the
    # crossed terms {exponent: flat coefficient} and a denominator
    from qca.words import degree

    dg = a23_diagram()
    cross = dg._cross

    def not_unipotent(wall, terms, sign, cutoff):
        out, den = cross(wall, terms, sign, cutoff)
        (m, _), = terms.items()
        # doubles the coefficient of the start term
        return {**out, m: {k: 2 * c for k, c in out[m].items()}}, den

    monkeypatch.setattr(dg, "_cross", not_unipotent)
    with pytest.raises(ArithmeticError, match="not unipotent"):
        enumerate_broken_lines(M0, Q, dg, 4, final_exponent=TARGET)

    def level_bend(wall, terms, sign, cutoff):
        out, den = cross(wall, terms, sign, cutoff)
        (m, c), = terms.items()
        a, b = dg.dvec
        level = (m[0] + b, m[1] - a)  # another exponent of the same degree
        assert degree(dg.dvec, level) == degree(dg.dvec, m)
        return {**out, level: c}, den

    monkeypatch.setattr(dg, "_cross", level_bend)
    with pytest.raises(ArithmeticError, match="bend cost 0 is not a positive multiple"):
        enumerate_broken_lines(M0, Q, dg, 4, final_exponent=TARGET)
