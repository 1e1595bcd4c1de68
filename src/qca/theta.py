"""Rank-2 broken lines and quantum theta functions over a completed
scattering diagram, plus the greedy-basis index map T.

A broken line carries a decoration c A^m and travels with velocity -m; at a
transversal wall crossing it may either continue (the identity term of the
crossing operator) or bend, replacing the decoration by any single
non-identity term of the operator applied to it.  The initial decoration is
1 A^{m0}, the final segment ends at the basepoint Q, and theta_{m0}(Q) is
the sum of final decorations over all broken lines.

Enumeration is a depth-first search over bend sequences with a total bend
degree budget.  The geometry (bend points on their rays, in travel order,
reaching Q) prunes the search by the signs of integer determinants, each
bend point kept as an integer vector over a positive integer up to the one
scale the final segment fixes; the exact ``Fraction`` bend points are built
only for the lines returned.  Likewise each bend crosses one term on the
diagram's flat ring (``ScatteringDiagram._cross``) and the decorations stay
flat pairs (num, den); only the segments of the lines returned become
QScalars, once each.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .qtorus import QTorusElement, vec
from .scalars import FLAT_ONE, ONE, QScalar, flat_mul, flat_qscalar
from .scatter import ScatteringDiagram, Wall, cross2
from .words import degree


@dataclass(frozen=True)
class Segment:
    """One straight piece: decoration coeff * A^m travelling along -m."""

    coeff: QScalar
    exponent: tuple[int, int]


@dataclass(frozen=True)
class BrokenLine:
    """Segments from infinity to the endpoint, with exact bend points."""

    segments: tuple[Segment, ...]
    bend_points: tuple[tuple[Fraction, Fraction], ...]
    bend_walls: tuple[Wall, ...]
    endpoint: tuple[Fraction, Fraction]

    @property
    def final_decoration(self) -> Segment:
        return self.segments[-1]

    def to_json(self) -> dict:
        return {
            "segments": [
                {"coefficient": s.coeff.render(), "exponent": list(s.exponent)}
                for s in self.segments
            ],
            "bend_points": [[str(x), str(y)] for x, y in self.bend_points],
            "endpoint": [str(self.endpoint[0]), str(self.endpoint[1])],
        }


def _on_any_wall(diagram: ScatteringDiagram, Q) -> bool:
    for w in diagram.walls:
        for r in w.rays():
            if cross2(r, Q) == 0 and (Q[0] * r[0] + Q[1] * r[1]) > 0:
                return True
    return False


def _bend_options(diagram: ScatteringDiagram, wall: Wall, m, coeff, budget: int):
    """Non-identity terms of the crossing operator applied to c A^m, as
    (exponent, decoration, cost); a decoration is a flat pair (num, den) on
    the diagram's flat ring, c = num / den.

    The sign convention matches the path-ordered product: the travel
    velocity is -m, so -gamma' = m and s = sgn <n_wall, m>."""
    s = diagram.fd.pair_int(wall.normal, m)
    if s == 0:
        return []
    s = 1 if s > 0 else -1
    num, den = coeff
    dvec, dscale = diagram.dvec, diagram.dscale
    cutoff = degree(dvec, m) + budget * dscale
    out, d = diagram._cross(wall, {m: num}, s, cutoff)
    if out.get(m) != (num if d is FLAT_ONE else flat_mul(num, d)):
        raise ArithmeticError("crossing operator is not unipotent")
    if d is not FLAT_ONE:
        den = flat_mul(den, d)
    opts = []
    for m2, c2 in out.items():
        if m2 == m:
            continue
        cost = degree(dvec, m2) - degree(dvec, m)
        if cost <= 0 or cost % dscale:
            raise ArithmeticError(
                f"bend cost {cost} is not a positive multiple of {dscale}")
        opts.append((m2, (c2, den), cost // dscale))
    opts.sort(key=lambda o: (o[2], o[0]))
    return opts


def enumerate_broken_lines(m0, Q, diagram: ScatteringDiagram, order: int,
                           final_exponent=None) -> list[BrokenLine]:
    """All broken lines with initial decoration A^{m0}, endpoint Q, and
    total bend degree <= order; optionally filtered by final exponent."""
    m0 = vec(m0)
    Q = (Fraction(Q[0]), Fraction(Q[1]))
    # the picture is invariant under positive scaling: search towards
    # Qi = L Q in integers, and scale the bend points back by 1/L on output
    L = lcm(Q[0].denominator, Q[1].denominator)
    Qi = (int(Q[0] * L), int(Q[1] * L))
    if Qi == (0, 0) or _on_any_wall(diagram, Qi):
        raise ValueError("the basepoint must be generic (not on any wall)")
    rays = [(r, w) for w in diagram.walls for r in w.rays()]
    want = None if final_exponent is None else vec(final_exponent)
    results: list[BrokenLine] = []
    scale = diagram._flat_scale()
    converted: dict = {}  # id of a decoration -> (it, its QScalar)

    def coefficient(dec) -> QScalar:
        got = converted.get(id(dec))
        if got is None:
            got = converted[id(dec)] = dec, flat_qscalar(*dec, scale)
        return got[1]

    def dfs(m, coeff, budget, bends, N, D):
        # the last bend point is N / D, up to the scale the final segment
        # fixes; every test below is the sign of an integer determinant
        if not bends:
            # straight line: always exists (travel direction -m0 through Q)
            if want is None or want == m0:
                results.append(BrokenLine((Segment(ONE, m0),), (), (), Q))
        elif want is None or want == m:
            # stop here: Q = x1 N / D - t m needs x1 > 0 and t > 0
            det, x = cross2(N, m), cross2(Qi, m)
            if x * det > 0 and cross2(Qi, N) * det > 0:
                # x1 = x D / (L det), t = cross2(Qi, N) / (L det)
                pts = tuple((Fraction(x * D * nj[0], L * det * dj),
                             Fraction(x * D * nj[1], L * det * dj)) for *_, nj, dj in bends)
                segs = (Segment(ONE, m0),) + tuple(
                    Segment(coefficient(b[1]), b[0]) for b in bends)
                results.append(BrokenLine(segs, pts, tuple(b[2] for b in bends), Q))
        if budget <= 0:
            return
        for r, wall in rays:
            c = cross2(r, m)
            if c == 0:  # the segment runs parallel to the ray
                continue
            if bends:
                # reach alpha r = N / D - beta m with alpha > 0, beta > 0
                # alpha = a / (D c), beta = -b / (D c)
                a, b = cross2(N, m), cross2(N, r)
                if a * c <= 0 or b * c >= 0:
                    continue
                a, c = abs(a), D * abs(c)
                g = gcd(a, c)
                N2, D2 = (a // g * r[0], a // g * r[1]), c // g
            else:
                N2, D2 = r, 1
            for m2, c2, cost in _bend_options(diagram, wall, m, coeff, budget):
                if cost > budget:
                    continue
                dfs(m2, c2, budget - cost, bends + [(m2, c2, wall, N2, D2)], N2, D2)

    try:
        dfs(m0, (FLAT_ONE, FLAT_ONE), order, [], None, None)
    finally:
        del dfs  # the recursive closure refers to itself: free the diagram now
    results.sort(key=lambda bl: (len(bl.segments),
                                 [s.exponent for s in bl.segments]))
    return results


def theta_function(m0, Q, diagram: ScatteringDiagram, order: int) -> QTorusElement:
    """Sum of final decorations over all broken lines of total bend degree
    <= order."""
    return theta_of_lines(diagram.torus, enumerate_broken_lines(m0, Q, diagram, order))


def theta_of_lines(torus, lines) -> QTorusElement:
    """The sum of the final decorations of ``lines``."""
    out = QTorusElement(torus, {})
    for bl in lines:
        seg = bl.final_decoration
        out = out + QTorusElement(torus, {seg.exponent: seg.coeff})
    return out


def greedy_T(m, b: int, c: int) -> tuple[int, int]:
    """The g-vector -> d-vector reindexing map for the rank-2 algebra
    A(b,c): m -> m if m1 >= 0, else m + (0, c m1)."""
    m1, m2 = int(m[0]), int(m[1])
    if m1 >= 0:
        return (m1, m2)
    return (m1, m2 + c * m1)
