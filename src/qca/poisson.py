"""Semi-classical limits of quantum commutators, the commutative Poisson
bracket from the bivector, and verification that classical mutation with
coefficients is a Poisson map.

Two independent routes to the same bracket: the exact limit
(ab - ba)/(q - 1) at q = 1 of quantum torus elements, and the bivector
pi = sum_{i,j} {e_i, e_j} X_i X_j d/dX_i wedge d/dX_j evaluated through
exact partial derivatives of rational functions.  On monomials both give
{X^a, X^b} = 2 {a, b} X^{a+b}.
"""

from __future__ import annotations

from fractions import Fraction

from .commutative import CPoly, CRational
from .mutation import mutate_x_family
from .qtorus import QTorusElement
from .scalars import TScalar
from .seeds import Seed


def semiclassical_bracket(a: QTorusElement, b: QTorusElement) -> CPoly:
    """lim_{q->1} (ab - ba)/(q - 1), exactly."""
    comm = a * b - b * a
    terms = {}
    for n, c in comm.terms.items():
        val = c.divide_exact_qminus1().limit_q1()
        if not val.is_zero():
            terms[n] = val
    return CPoly(a.algebra.rank, terms)


def element_q1(a: QTorusElement) -> CPoly:
    """q=1 image of a quantum torus element."""
    return CPoly(a.algebra.rank,
                 {n: c.limit_q1() for n, c in a.terms.items()})


def _scale_fraction(f: CRational, fr: Fraction) -> CRational:
    rank = f.rank
    num = f.num.scale(TScalar.integer(fr.numerator))
    dens = list(f.den)
    if fr.denominator != 1:
        dens.append(CPoly(rank, {(0,) * rank: fr.denominator}))
    return CRational(num, dens)


def poisson_bracket(f: CRational, g: CRational, seed: Seed) -> CRational:
    """{f, g} from the chart's bivector: the ordered double sum over (i, j)
    of {e_i, e_j} X_i X_j (d_i f d_j g - d_j f d_i g)."""
    rank = f.rank
    eh = seed.epsilon_hat()
    out = CRational(CPoly(rank, {}))
    dfs = [f.derivative(i) for i in range(rank)]
    dgs = [g.derivative(j) for j in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            w = eh[i][j]
            if w == 0:
                continue
            xij = CRational(CPoly.variable(rank, i) * CPoly.variable(rank, j))
            term = dfs[i] * dgs[j] - dfs[j] * dgs[i]
            out = out + _scale_fraction(xij * term, 2 * w)
    return out


def check_poisson_map(seed: Seed, k: int) -> dict:
    """Verify mu*{f,g}_{G'} = {mu*f, mu*g}_G for all generator pairs of the
    mutated chart, mu the family mutation with principal coefficients, as
    exact rational identities."""
    fd = seed.fixed
    rank = fd.n
    primed = seed.mutate(k)
    gens = [CRational.variable(rank, i) for i in range(rank)]
    images = mutate_x_family(gens, k, seed)  # pullbacks of the primed coordinates
    pairs = [(gens[i], gens[j]) for i in range(rank) for j in range(i + 1, rank)]
    report = {"pairs": [], "ok": True}
    for f, g in pairs:
        lhs = poisson_bracket(f, g, primed).substitute(images)
        rhs = poisson_bracket(f.substitute(images), g.substitute(images), seed)
        same = lhs == rhs
        report["pairs"].append({
            "f": f.render(fd.labels),
            "g": g.render(fd.labels),
            "ok": same,
            "difference": None if same else (lhs - rhs).render(fd.labels),
        })
        report["ok"] = report["ok"] and same
    return report
