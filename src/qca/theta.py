"""Rank-2 broken lines and quantum theta functions over a completed
scattering diagram, plus the greedy-basis index map T.

A broken line carries a decoration c A^m and travels with velocity -m; at a
transversal wall crossing it may either continue (the identity term of the
crossing operator) or bend, replacing the decoration by any single
non-identity term of the operator applied to it.  The initial decoration is
1 A^{m0}, the final segment ends at the basepoint Q, and theta_{m0}(Q) is
the sum of final decorations over all broken lines.

Enumeration is a depth-first search over bend sequences with a total bend
degree budget; the geometry (bend points on their rays, in travel order,
reaching Q) is solved exactly in rational arithmetic and prunes the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .qtorus import QTorusElement, vec, vec_neg
from .scalars import ONE, QScalar
from .scatter import ScatteringDiagram, Wall, _cross2
from .words import Series, degree


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
            if _cross2(r, Q) == 0 and (Q[0] * r[0] + Q[1] * r[1]) > 0:
                return True
    return False


def _bend_options(diagram: ScatteringDiagram, wall: Wall, m, coeff, budget: int):
    """Non-identity terms of the crossing operator applied to coeff A^m.

    The sign convention matches the path-ordered product: the travel
    velocity is -m, so -gamma' = m and s = sgn <n_wall, m>."""
    s = diagram.pair_nm(wall.normal, m)
    if s == 0:
        return []
    s = 1 if s > 0 else -1
    cutoff = degree(diagram.dvec, m) + budget * diagram.dscale
    series = Series(diagram.torus, diagram.dvec, cutoff, {vec(m): coeff})
    out = diagram.cross(wall, series, s, cutoff)
    assert out.coefficient(m) == coeff, "crossing operator is not unipotent"
    opts = []
    for m2, c2 in out.terms.items():
        if m2 == vec(m):
            continue
        cost = (degree(diagram.dvec, m2) - degree(diagram.dvec, vec(m)))
        assert cost > 0 and cost % diagram.dscale == 0
        opts.append((m2, c2, cost // diagram.dscale))
    opts.sort(key=lambda o: (o[2], o[0]))
    return opts


def enumerate_broken_lines(m0, Q, diagram: ScatteringDiagram, order: int,
                           final_exponent=None) -> list[BrokenLine]:
    """All broken lines with initial decoration A^{m0}, endpoint Q, and
    total bend degree <= order; optionally filtered by final exponent."""
    m0 = vec(m0)
    Q = (Fraction(Q[0]), Fraction(Q[1]))
    if Q == (0, 0) or _on_any_wall(diagram, Q):
        raise ValueError("the basepoint must be generic (not on any wall)")
    rays = []
    for w in diagram.walls:
        for r in w.rays():
            rays.append((r, w))
    results: list[BrokenLine] = []

    def anchor(mJ, wvec):
        """Solve Q = x1 w - t mJ for (x1, t); None if infeasible."""
        det = _cross2(wvec, mJ)
        if det == 0:
            return None
        x1 = Fraction(_cross2(Q, mJ), det)
        t = Fraction(_cross2(Q, wvec), det)
        if x1 <= 0 or t <= 0:
            return None
        return x1, t

    def dfs(m, coeff, budget, bends, wvec):
        # try to stop here: final segment from the last bend to Q
        if bends:
            a = anchor(m, wvec)
            if a is not None:
                x1, _ = a
                pts = tuple((x1 * w[0], x1 * w[1]) for w in
                            [b[3] for b in bends])
                segs = tuple(Segment(c, vec(e)) for c, e in
                             [(ONE, m0)] + [(b[1], b[0]) for b in bends])
                walls = tuple(b[2] for b in bends)
                if final_exponent is None or vec(final_exponent) == m:
                    results.append(BrokenLine(segs, pts, walls, Q))
        else:
            # straight line: always exists (travel direction -m0 through Q)
            if final_exponent is None or vec(final_exponent) == m0:
                results.append(BrokenLine((Segment(ONE, m0),), (), (), Q))
        if budget <= 0:
            return
        for r, wall in rays:
            if bends:
                # reach ray r from the current anchored direction
                det = _cross2(r, m)
                if det == 0:
                    continue
                alpha = Fraction(_cross2(wvec, m), det)
                beta = Fraction(_cross2(wvec, r), _cross2(m, r))
                if alpha <= 0 or beta <= 0:
                    continue
                new_w = (alpha * r[0], alpha * r[1])
            else:
                new_w = (Fraction(r[0]), Fraction(r[1]))
                # the incoming straight segment must genuinely cross: skip
                # rays parallel to the travel direction
                if _cross2(r, m) == 0:
                    continue
            for m2, c2, cost in _bend_options(diagram, wall, m, coeff, budget):
                if cost > budget:
                    continue
                dfs(m2, c2, budget - cost,
                    bends + [(m2, c2, wall, new_w)], new_w)

    dfs(m0, ONE, order, [], None)
    results.sort(key=lambda bl: (len(bl.segments),
                                 [s.exponent for s in bl.segments]))
    return results


def theta_function(m0, Q, diagram: ScatteringDiagram, order: int) -> QTorusElement:
    """Sum of final decorations over all broken lines of total bend degree
    <= order."""
    lines = enumerate_broken_lines(m0, Q, diagram, order)
    out = QTorusElement(diagram.torus, {})
    for bl in lines:
        seg = bl.final_decoration
        out = out + QTorusElement(diagram.torus, {seg.exponent: seg.coeff})
    return out


def theta_coefficient(m0, Q, diagram: ScatteringDiagram, order: int,
                      exponent) -> QScalar:
    lines = enumerate_broken_lines(m0, Q, diagram, order, final_exponent=exponent)
    total = QScalar.integer(0)
    for bl in lines:
        total = total + bl.final_decoration.coeff
    return total


def greedy_T(m, b: int, c: int) -> tuple[int, int]:
    """The g-vector -> d-vector reindexing map for the rank-2 algebra
    A(b,c): m -> m if m1 >= 0, else m + (0, c m1)."""
    m1, m2 = int(m[0]), int(m[1])
    if m1 >= 0:
        return (m1, m2)
    return (m1, m2 + c * m1)
