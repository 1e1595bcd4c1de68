"""The paper's data and checks, stated once.

The expected A2 table columns, and one predicate per checkable fact: the
pentagon, the classical A2 and quantum A(2,3) walls, the Appendix-B loop
coefficient and its negative sign, the Figure-3 theta coefficient, the p*
intertwining and the Poisson property.  `qca check` runs the suites below
at desk-scale sizes; `tests/test_acceptance.py` calls the same predicates
at its own sizes.  Each suite returns (name, passed, detail) tuples."""

from __future__ import annotations

from fractions import Fraction

from . import fixtures
from .commutative import CPoly, CRational
from .mutation import (
    classical_x_table,
    quantum_x_table,
    quantum_x_variables,
    word_to_classical,
    x_torus,
)
from .qtorus import QTorusElement
from .scalars import ONE, QScalar, TScalar, qpow, tvar, vpow
from .seeds import Seed
from .words import FactoredWord, words_equal

# the other suites' layers are imported where they are used, so that the
# tables suite loads only the layers above

# ---------------------------------------------------------------------------
# The A2 tables (Tables 1 and 2): mu_2, mu_1, mu_2, mu_1, mu_2, 0-indexed.

A2_SEQ = (1, 0, 1, 0, 1)

CVECTORS = [
    ((1, 0), (0, 1)),
    ((1, 0), (0, -1)),
    ((-1, 0), (0, -1)),
    ((-1, -1), (0, 1)),
    ((1, 1), (-1, 0)),
    ((0, 1), (1, 0)),
]

# each mutation flips the sign of the exchange matrix
EPSILONS = [((0, -1), (1, 0)), ((0, 1), (-1, 0))] * 3


def _mono(alg, n, coeff=ONE):
    return FactoredWord.monomial(alg, n, coeff)


def _poly(alg, terms, power=1):
    return FactoredWord.from_element(QTorusElement(alg, terms), power)


def quantum_rows(alg, t=True):
    """The quantum columns of the A2 table with principal coefficients, as
    factored words over ``alg`` (t=False: the coefficient-free Table 1)."""
    t1 = tvar(0) if t else ONE
    t2 = tvar(1) if t else ONE
    q = qpow(1)

    def b(n, c):  # 1 + c X^n
        return _poly(alg, {(0, 0): ONE, n: c})

    trinom = {(-1, 0): ONE, (0, 0): t1 * q, (0, 1): t1 * t2 * q * q}
    return [
        [_mono(alg, (1, 0)), _mono(alg, (0, 1))],
        [_mono(alg, (1, 0)) * b((0, 1), t2 * q), _mono(alg, (0, -1))],
        [b((0, 1), t2 * q).inverse() * _mono(alg, (-1, 0)),
         _mono(alg, (-1, 1), qpow(1)).inverse() * _poly(alg, trinom)],
        [_mono(alg, (0, -1)) * _poly(alg, {(0, 0): t1, (-1, 0): qpow(-1)}),
         _poly(alg, trinom, -1) * _mono(alg, (-1, 1), qpow(1))],
        [_poly(alg, {(0, 0): t1, (-1, 0): qpow(-1)}, -1) * _mono(alg, (0, 1)),
         _mono(alg, (-1, 0))],
        [_mono(alg, (0, 1)), _mono(alg, (1, 0))],
    ]


def _crat(num_terms, den_terms=None):
    dens = [CPoly(2, den_terms)] if den_terms else []
    return CRational(CPoly(2, num_terms), dens)


def classical_rows(t=True):
    """The Xfam columns of Table 2 (t=False: the X columns of Table 1)."""
    t1 = TScalar({(1,): 1}) if t else TScalar.integer(1)
    t2 = TScalar({(0, 1): 1}) if t else TScalar.integer(1)
    t1t2 = TScalar({(1, 1): 1}) if t else TScalar.integer(1)
    return [
        [_crat({(1, 0): 1}), _crat({(0, 1): 1})],
        [_crat({(1, 0): 1, (1, 1): t2}), _crat({(0, -1): 1})],
        [_crat({(0, 0): 1}, {(1, 0): 1, (1, 1): t2}),
         _crat({(1, 1): t1t2, (1, 0): t1, (0, 0): 1}, {(0, 1): 1})],
        [_crat({(1, 0): t1, (0, 0): 1}, {(1, 1): 1}),
         _crat({(0, 1): 1}, {(1, 1): t1t2, (1, 0): t1, (0, 0): 1})],
        [_crat({(1, 1): 1}, {(1, 0): t1, (0, 0): 1}),
         _crat({(0, 0): 1}, {(1, 0): 1})],
        [_crat({(0, 1): 1}), _crat({(1, 0): 1})],
    ]


def ends_in_swap(fd, rows, order=12) -> bool:
    """The last row of a quantum table is (X2, X1)."""
    alg = x_torus(fd)
    last = rows[-1][1]
    return (words_equal(last[0], FactoredWord.monomial(alg, (0, 1)), order)
            and words_equal(last[1], FactoredWord.monomial(alg, (1, 0)), order))


def q1_specializes(qrows, crows) -> bool:
    """Every quantum entry at q = 1 is the classical entry."""
    return all(word_to_classical(w) == v
               for (_, ws), (_, vs) in zip(qrows, crows)
               for w, v in zip(ws, vs))


def double_mutation_is_identity(fd, k, order=10) -> bool:
    """mu_k mu_k returns every initial cluster variable."""
    alg = x_torus(fd)
    _, words = quantum_x_variables(fd, [k, k], with_coefficients=True)
    return all(words_equal(w, FactoredWord.monomial(alg, Seed(fd).basis[i]), order)
               for i, w in enumerate(words))


def check_tables():
    fd = fixtures.a2_tables()
    rows = quantum_x_table(fd, A2_SEQ, with_coefficients=True)
    swap = ends_in_swap(fd, rows)
    cs = [seed.cvectors() for seed, _ in rows]
    crows = classical_x_table(fd, A2_SEQ, with_coefficients=True)
    return [
        ("tables: pentagon ends in the swap (X2, X1)", swap, ""),
        ("tables: c-vector column", cs == CVECTORS, f"{cs}"),
        ("tables: q=1 specialization matches the classical family",
         q1_specializes(rows, crows), ""),
        ("tables: double mutation is the identity on variables",
         double_mutation_is_identity(fd, 0), ""),
    ]


# ---------------------------------------------------------------------------
# Scattering: the classical A2 diagram (Figure 1) and quantum A(2,3)
# (Appendix B).

def grid(radius):
    """The nonzero points of [-radius, radius]^2."""
    return [(a, b) for a in range(-radius, radius + 1)
            for b in range(-radius, radius + 1) if (a, b) != (0, 0)]


def new_walls(dg):
    return [w for w in dg.walls if not w.incoming]


def classical_a2_diagram(order):
    from .scatter import complete_to_order, initial_diagram

    return complete_to_order(initial_diagram(fixtures.a2_scattering(),
                                             quantum=False, order=order), order)


def adds_classical_a2_wall(dg) -> bool:
    """Completion adds the one wall 1 + A1^-1 A2, on the ray (1,-1)."""
    new = new_walls(dg)
    return len(new) == 1 and new[0].ray == (1, -1) and new[0].function == {1: ONE}


def loop_coefficient(dg, u):
    """The degree-2 coefficient of the A(2,3) loop on A^u, the A^{(2,-3)+u}
    term left-divided by A^u."""
    m = (2, -3)
    got = dg.path_ordered_product(u, 2)
    mm = tuple(a + b for a, b in zip(m, u))
    return got.coefficient(mm) * qpow(-dg.torus.omega(m, u))


def loop_matches_closed_form(dg, radius) -> bool:
    """On the initial quantum A(2,3) diagram the loop's coefficient is minus
    the Appendix-B closed form at every u in grid(radius)."""
    from .scatter import appendix_b_closed_form

    return all(loop_coefficient(dg, u) == -appendix_b_closed_form(u)
               for u in grid(radius))


def adds_quantum_a23_wall(dg, radius) -> bool:
    """The order-2 completion adds one wall, on R>=0 (-2 f1 + 3 f2), and is
    consistent on grid(radius)."""
    new = new_walls(dg)
    return len(new) == 1 and new[0].ray == (-2, 3) and dg.is_consistent(grid(radius), 2)


def has_negative_coefficient(val) -> bool:
    return any(c < 0 for mono in val.num.values() for c in mono.terms.values())


def check_scatter():
    from .scatter import appendix_b_closed_form, complete_to_order, initial_diagram

    dg = classical_a2_diagram(2)
    qdg = initial_diagram(fixtures.a23(), quantum=True, order=2)
    out = [
        ("scatter: classical A2 completion adds 1 + A1^-1 A2 on (1,-1)",
         adds_classical_a2_wall(dg), ""),
        ("scatter: completed classical diagram is consistent",
         dg.is_consistent(grid(2), 2), ""),
        ("scatter: quantum A(2,3) loop matches the closed form",
         loop_matches_closed_form(qdg, 2), ""),
        ("scatter: quantum A(2,3) completes with one wall on (-2,3)",
         adds_quantum_a23_wall(complete_to_order(qdg, 2), 2), ""),
    ]
    val = appendix_b_closed_form((1, -1))
    out.append(("scatter: quantum positivity fails (negative coefficient)",
                has_negative_coefficient(val), val.render_v()))
    return out


# ---------------------------------------------------------------------------
# Theta functions (Figure 3), p* and Poisson.

def fig3_coefficient():
    """The Figure-3 theta coefficient v^-2 - 1 + v^2."""
    return vpow(-2) - 1 + vpow(2)


def check_theta():
    from .scatter import complete_to_order, initial_diagram
    from .theta import enumerate_broken_lines, greedy_T

    dg = complete_to_order(initial_diagram(fixtures.a23(), quantum=True,
                                           order=2), 2)
    Q = (Fraction(1), Fraction(1))
    lines = enumerate_broken_lines((-3, 5), Q, dg, 4, final_exponent=(1, -1))
    coeff = sum((bl.final_decoration.coeff for bl in lines), QScalar.integer(0))
    return [
        ("theta: exactly one contributing broken line", len(lines) == 1, ""),
        ("theta: coefficient of A^{f1-f2} is v^-2 - 1 + v^2",
         coeff == fig3_coefficient(), coeff.render_v()),
        # equal to the greedy value e(2,1) = v^2 - 1 + v^-2 under v <-> v^-1
        ("theta: bar symmetry of the coefficient", coeff.bar() == coeff, ""),
        ("theta: T(-3,5) = (-3,-4)", greedy_T((-3, 5), 2, 3) == (-3, -4), ""),
    ]


def check_pstar():
    from .duality import PStarHom

    return [(f"pstar: mutation intertwining on {name}",
             all(ok for _, _, ok in PStarHom(fd).intertwining(8)), "")
            for name, fd in (("A(2,3)", fixtures.a23()),
                             ("rank 3", fixtures.rank3_frozen()))]


def mutations_are_poisson(fd) -> bool:
    """Classical family mutation in every unfrozen direction is a Poisson map."""
    from .poisson import check_poisson_map

    seed = Seed(fd)
    return all(check_poisson_map(seed, k)["ok"] for k in fd.unfrozen)


def check_poisson():
    return [(f"poisson: family mutation is a Poisson map on {name}",
             mutations_are_poisson(fd), "")
            for name, fd in (("A2", fixtures.a2_tables()),
                             ("rank 3", fixtures.rank3_full()))]


SUITES = {
    "tables": check_tables,
    "scatter": check_scatter,
    "theta": check_theta,
    "pstar": check_pstar,
    "poisson": check_poisson,
}


def run_suites(names):
    results = []
    for n in names:
        results.extend(SUITES[n]())
    return results
