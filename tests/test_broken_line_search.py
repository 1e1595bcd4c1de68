"""The integer broken-line search against the rational one it replaced.

``reference_broken_lines`` is the search as it was written with the bend
geometry in ``Fraction``s: each bend point solved on its ray, and the final
segment anchored at the basepoint by solving Q = x1 w - t m; its bends come
from the public QScalar crossing ``ScatteringDiagram.cross``
(``reference_bend_options``), where the engine's search crosses on the flat
ring with flat decorations.  The engine's search decides the same tests by
signs of integer determinants; both must return the same lines, in the same
order, with the same bend walls and decorations.
"""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from qca.fixtures import a2_scattering, a23
from qca.scatter import complete_to_order, cross2, initial_diagram
from qca.scalars import ONE
from qca.qtorus import vec
from qca.theta import BrokenLine, Segment, _on_any_wall, enumerate_broken_lines
from qca.words import Series, degree

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)


def reference_bend_options(diagram, wall, m, coeff, budget):
    """The non-identity terms of the crossing operator applied to coeff A^m,
    with QScalar coefficients, as (exponent, coefficient, cost)."""
    s = diagram.fd.pair_int(wall.normal, m)
    if s == 0:
        return []
    s = 1 if s > 0 else -1
    cutoff = degree(diagram.dvec, m) + budget * diagram.dscale
    series = Series(diagram.torus, diagram.dvec, cutoff, {vec(m): coeff})
    out = diagram.cross(wall, series, s, cutoff)
    assert out.coefficient(m) == coeff
    opts = []
    for m2, c2 in out.terms.items():
        if m2 != vec(m):
            cost = degree(diagram.dvec, m2) - degree(diagram.dvec, vec(m))
            assert cost > 0 and cost % diagram.dscale == 0
            opts.append((m2, c2, cost // diagram.dscale))
    opts.sort(key=lambda o: (o[2], o[0]))
    return opts


def reference_broken_lines(m0, Q, diagram, order, final_exponent=None):
    m0 = vec(m0)
    Q = (Fraction(Q[0]), Fraction(Q[1]))
    if Q == (0, 0) or _on_any_wall(diagram, Q):
        raise ValueError("the basepoint must be generic (not on any wall)")
    rays = []
    for w in diagram.walls:
        for r in w.rays():
            rays.append((r, w))
    results = []

    def anchor(mJ, wvec):
        """Solve Q = x1 w - t mJ for (x1, t); None if infeasible."""
        det = cross2(wvec, mJ)
        if det == 0:
            return None
        x1 = Fraction(cross2(Q, mJ), det)
        t = Fraction(cross2(Q, wvec), det)
        if x1 <= 0 or t <= 0:
            return None
        return x1, t

    def dfs(m, coeff, budget, bends, wvec):
        if bends:
            a = anchor(m, wvec)
            if a is not None:
                x1, _ = a
                pts = tuple((x1 * w[0], x1 * w[1]) for w in [b[3] for b in bends])
                segs = tuple(Segment(c, vec(e)) for c, e in
                             [(ONE, m0)] + [(b[1], b[0]) for b in bends])
                walls = tuple(b[2] for b in bends)
                if final_exponent is None or vec(final_exponent) == m:
                    results.append(BrokenLine(segs, pts, walls, Q))
        else:
            if final_exponent is None or vec(final_exponent) == m0:
                results.append(BrokenLine((Segment(ONE, m0),), (), (), Q))
        if budget <= 0:
            return
        for r, wall in rays:
            if bends:
                det = cross2(r, m)
                if det == 0:
                    continue
                alpha = Fraction(cross2(wvec, m), det)
                beta = Fraction(cross2(wvec, r), cross2(m, r))
                if alpha <= 0 or beta <= 0:
                    continue
                new_w = (alpha * r[0], alpha * r[1])
            else:
                new_w = (Fraction(r[0]), Fraction(r[1]))
                if cross2(r, m) == 0:
                    continue
            for m2, c2, cost in reference_bend_options(diagram, wall, m, coeff, budget):
                if cost > budget:
                    continue
                dfs(m2, c2, budget - cost, bends + [(m2, c2, wall, new_w)], new_w)

    dfs(m0, ONE, order, [], None)
    results.sort(key=lambda bl: (len(bl.segments), [s.exponent for s in bl.segments]))
    return results


def completed(fd, quantum, order):
    return complete_to_order(initial_diagram(fd, side="A", quantum=quantum,
                                             order=order), order)


DIAGRAMS = {
    "a23-quantum-3": (completed(a23(), True, 3), 6),
    "a23-classical-4": (completed(a23(), False, 4), 6),
    "a2-classical": (completed(a2_scattering(), False, 4), 7),
}


@st.composite
def searches(draw):
    """A diagram, its bend budget, a g-vector in [-4, 4]^2 and a generic
    rational basepoint."""
    dg, budget = DIAGRAMS[draw(st.sampled_from(sorted(DIAGRAMS)))]
    m0 = (draw(st.integers(-4, 4)), draw(st.integers(-4, 4)))
    Q = tuple(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 7)))
              for _ in range(2))
    assume(Q != (0, 0) and not _on_any_wall(dg, Q))
    return dg, budget, m0, Q


def assert_same_lines(got, want):
    assert [bl.to_json() for bl in got] == [bl.to_json() for bl in want]
    assert [bl.endpoint for bl in got] == [bl.endpoint for bl in want]
    for g, w in zip(got, want):
        assert len(g.bend_walls) == len(w.bend_walls)
        assert all(a is b for a, b in zip(g.bend_walls, w.bend_walls))


@PROPERTY
@given(searches(), st.data())
def test_integer_search_matches_the_rational_one(case, data):
    dg, budget, m0, Q = case
    want = reference_broken_lines(m0, Q, dg, budget)
    got = enumerate_broken_lines(m0, Q, dg, budget)
    assert_same_lines(got, want)
    # filtered by a final exponent that some line reaches, and by one drawn
    # at random (usually reached by none)
    finals = sorted({bl.final_decoration.exponent for bl in want})
    target = data.draw(st.sampled_from(finals)) if finals and data.draw(st.booleans()) \
        else (data.draw(st.integers(-4, 4)), data.draw(st.integers(-4, 4)))
    want = reference_broken_lines(m0, Q, dg, budget, final_exponent=target)
    got = enumerate_broken_lines(m0, Q, dg, budget, final_exponent=target)
    assert_same_lines(got, want)
    assert all(bl.final_decoration.exponent == vec(target) for bl in got)


def test_scaled_basepoints_give_the_scaled_picture():
    # the search runs towards the basepoint cleared to integers; a basepoint
    # with denominators must still give exact bend points for itself
    dg, budget = DIAGRAMS["a23-quantum-3"]
    lines = enumerate_broken_lines((-3, 5), (1, 1), dg, budget)
    scaled = enumerate_broken_lines((-3, 5), (Fraction(2, 7), Fraction(2, 7)), dg, budget)
    assert len(lines) == len(scaled) > 1
    for a, b in zip(lines, scaled):
        assert b.endpoint == (Fraction(2, 7), Fraction(2, 7))
        assert b.bend_points == tuple((x * Fraction(2, 7), y * Fraction(2, 7))
                                      for x, y in a.bend_points)
        assert [s.exponent for s in a.segments] == [s.exponent for s in b.segments]
