"""Each crossing factor against sympy, and each of its coefficients computed
once.

A crossing factor F is a power series in the wall's one monomial y = X^v:
f(y)^a on a classical wall, a product of |p| binomials 1 + x^{2k-1} y or its
inverse on a dilogarithm wall.  ``ScatteringDiagram`` builds its
coefficients one by one from a recurrence (Miller's power recurrence, the
q-binomial theorem); sympy expands the same series independently.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from qca import scatter
from qca.fixtures import a2_scattering, a23
from qca.scalars import QScalar, flat_pair
from qca.scatter import _DilogFactor, _PowerFactor, complete_to_order, initial_diagram
from qca.seeds import make_fixed_data

Y, X = sympy.symbols("y x")
ORDER = 10  # the highest power of y compared


def completed(fd, quantum, order, side="A"):
    return complete_to_order(initial_diagram(fd, side=side, quantum=quantum,
                                             order=order), order)


def coefficients(factor) -> list:
    """[C_0, ..., C_J] of a factor as (numerator, denominator) pairs of flat
    dicts, over its one denominator."""
    items, den = factor.flat()
    out = [({}, den)] * len(factor.R)
    for _, c, d in items:
        out[d // factor.dv] = (c, den)
    return out


def rational(num: dict, den: dict) -> Fraction:
    """A classical coefficient: flat dicts with the one key 0."""
    assert set(num) <= {0} and set(den) == {0}
    return Fraction(num.get(0, 0), den[0])


def classical_case(dg, wall, a: int, order: int) -> None:
    f = 1 + sum(sympy.Rational(str(rational(*flat_pair(c, 1)))) * Y ** j
                for j, c in wall.function.items())
    want = sympy.series(f ** a, Y, 0, order + 1).removeO()
    factor = dg._factor(wall, 1, a, order * degree_of(dg, wall))
    got = coefficients(factor)
    for j in range(order + 1):
        value = rational(*got[j]) if j < len(got) else 0
        assert value == Fraction(str(want.coeff(Y, j))), (wall.function, a, j)


def degree_of(dg, wall) -> int:
    return sum(a * b for a, b in zip(dg.dvec, wall.direction))


def test_completion_wall_powers_match_sympy():
    # every wall function of the A(2,3) order-4 and A2 order-6 completions,
    # at every power in [-8, 8]; the sign of the crossing is +1, so the
    # power is the pairing
    for dg in (completed(a23(), False, 4), completed(a2_scattering(), False, 6)):
        dg._flat_scale()
        for wall in dg.walls:
            for a in range(-8, 9):
                classical_case(dg, wall, a, ORDER)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.dictionaries(st.integers(1, 3),
                       st.fractions(min_value=-3, max_value=3, max_denominator=6)
                       .filter(lambda c: c != 0), min_size=1, max_size=3),
       st.integers(-8, 8))
def test_random_rational_powers_match_sympy(function, a):
    dg = initial_diagram(a23(), side="A", quantum=False, order=3)
    wall = dg.walls[0]
    wall.function = {j: QScalar.rational(c.numerator, c.denominator)
                     for j, c in function.items()}
    dg._flat_scale()
    classical_case(dg, wall, a, 8)


def dilog_oracle(n: int, inverse: bool, J: int) -> list:
    """The coefficients of y^0..y^J of prod_{k<=n} (1 + x^{2k-1} y)^{+-1},
    as sympy polynomials in x: the inverse of each binomial is its
    geometric series, and the products are truncated at y^J."""
    out, cut = sympy.Poly(1, Y, X), sympy.Poly(Y ** (J + 1), Y, X)
    for k in range(1, n + 1):
        x_pow = X ** (2 * k - 1)
        b = sum((-x_pow * Y) ** i for i in range(J + 1)) if inverse else 1 + x_pow * Y
        out = (out * sympy.Poly(b, Y, X)).rem(cut)
    return [sympy.Poly(out.as_expr().coeff(Y, j), X) for j in range(J + 1)]


def dilog_diagrams():
    return [initial_diagram(a23(), side="A", quantum=True, order=3),
            initial_diagram(a23(), side="X", quantum=True, order=3),
            initial_diagram(make_fixed_data([[0, 1], [-1, 0]]), side="X",
                            quantum=True, order=3)]


def test_dilogarithm_factors_match_sympy():
    # n <= 8 binomials, their product and its inverse, at x = u^E for the E
    # of each initial wall of the demo diagrams and both pairing signs
    oracle = {}
    for dg in dilog_diagrams():
        dg._flat_scale()
        for wall in dg.walls:
            for n in range(9):
                for s0 in (1, -1):
                    for sign in (1, -1):
                        p = s0 * n
                        J = n + 2
                        factor = dg._factor(wall, sign, p, J * degree_of(dg, wall))
                        inverse = sign * s0 > 0 and n > 0
                        key = (n, inverse, J)
                        if key not in oracle:
                            oracle[key] = dilog_oracle(n, inverse, J)
                        E = factor.ex if n else 1
                        got = coefficients(factor)
                        for j, want in enumerate(oracle[key]):
                            num, den = got[j] if j < len(got) else ({}, {0: 1})
                            assert den == {0: 1}
                            assert num == {e * E: int(c) for (e,), c in want.terms()
                                           if c}, (n, inverse, j)


def test_each_coefficient_is_computed_once(monkeypatch):
    # a classical and a quantum A-side completion of A(2,3): each step
    # computes one coefficient C_n of one factor, never twice, even for the
    # factors extended to a higher order more than once, and the steps are
    # exactly the coefficients left in the cache plus those of the entries a
    # changed wall dropped
    steps, dropped, extended = [], [], []
    for cls in (_PowerFactor, _DilogFactor):
        step = cls._step

        def counted(factor, n, step=step):
            steps.append((factor, n))
            return step(factor, n)

        monkeypatch.setattr(cls, "_step", counted)
    forget = scatter.ScatteringDiagram._forget

    def forgetting(dg, wall):
        dropped.extend(f for key, f in dg._fcache.items() if key[0] == id(wall))
        forget(dg, wall)

    monkeypatch.setattr(scatter.ScatteringDiagram, "_forget", forgetting)
    extend = scatter._Factor.extend

    def extending(factor, rel):
        extended.append(id(factor))
        extend(factor, rel)

    monkeypatch.setattr(scatter._Factor, "extend", extending)
    for quantum, order in ((False, 8), (True, 7)):
        steps.clear()
        dropped.clear()
        extended.clear()
        dg = completed(a23(), quantum, order)
        assert any(extended.count(i) > 1 for i in set(extended))
        made = [(id(f), n) for f, n in steps]
        assert len(set(made)) == len(made)
        entries = list(dg._fcache.values()) + dropped
        assert len(steps) == sum(len(f.R) - 1 for f in entries)
        assert {(id(f), n) for f in entries for n in range(1, len(f.R))} == set(made)
