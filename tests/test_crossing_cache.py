"""The cached dilogarithm crossing factors against the word path.

Crossing a dilogarithm wall sends c X^m to c X^m F, with F the expanded
product of |p_m| binomials; ``ScatteringDiagram._cross_dilog`` keeps F per
(wall, sign, p_m, relative order).  The oracle conjugates each term as a
factored word and expands it, as the crossing did before the cache.
"""

from hypothesis import given, settings, strategies as st

from qca.fixtures import a23
from qca.scalars import QScalar, qpow
from qca.scatter import _complete_degree, initial_diagram
from qca.seeds import make_fixed_data
from qca.words import FactoredWord, Series, degree, dilog_pairings

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

# one diagram per case, shared by every example so that later examples hit
# entries cached by earlier ones
DIAGRAMS = {
    "a23-A": initial_diagram(a23(), side="A", quantum=True, order=3),
    "a2-X": initial_diagram(make_fixed_data([[0, 1], [-1, 0]]), side="X",
                            quantum=True, order=3),
}
BOX = [(a, b) for a in range(-4, 5) for b in range(-4, 5)]


def word_path(dg, wall, series, sign, cutoff) -> Series:
    h, coeff = wall.dilog
    out = Series(dg.torus, dg.dvec, cutoff, {})
    for m, c in series.terms.items():
        conj = FactoredWord.monomial(dg.torus, m, c).conjugate_by_dilog(
            h, coeff, wall.direction, action=-sign)
        rel = max(cutoff - degree(dg.dvec, m), 0)
        out = out + conj.expand(dg.dvec, rel).truncate(cutoff)
    return out


def pools(dg, wall):
    """The exponents of BOX with a positive, zero and negative pairing."""
    out = {1: [], 0: [], -1: []}
    pairings = dilog_pairings(dg.torus, wall.dilog[0], wall.direction, BOX)
    for m, p in pairings.items():
        out[(p > 0) - (p < 0)].append(m)
    return out


@st.composite
def crossings(draw):
    """A diagram, one of its walls, and a series holding a term of each
    pairing sign plus a few random terms, with a cutoff near its degrees."""
    dg = DIAGRAMS[draw(st.sampled_from(sorted(DIAGRAMS)))]
    wall = draw(st.sampled_from(dg.walls))
    by_sign = pools(dg, wall)
    exps = {draw(st.sampled_from(by_sign[s])) for s in (1, 0, -1)}
    exps |= set(draw(st.lists(st.sampled_from(BOX), max_size=3)))
    terms = {}
    for m in sorted(exps):
        c = QScalar.integer(draw(st.integers(1, 3)))
        terms[m] = c * qpow(draw(st.integers(-3, 3))) if draw(st.booleans()) else c
    lowest = min(degree(dg.dvec, m) for m in terms)
    cutoff = lowest + draw(st.integers(-1, 3)) * dg.dscale
    return dg, wall, Series(dg.torus, dg.dvec, cutoff, terms), cutoff


def assert_same(got: Series, want: Series):
    assert got.cutoff == want.cutoff
    assert got.terms == want.terms


@PROPERTY
@given(crossings())
def test_cached_crossing_matches_word_path(case):
    dg, wall, series, cutoff = case
    # both signs and two cutoffs on one cache: a key that dropped the sign
    # or the relative order would hand one of these calls a wrong factor
    for cut in (cutoff, cutoff + dg.dscale):
        for sign in (1, -1):
            got = dg._cross_dilog(wall, series, sign, cut)
            assert_same(got, word_path(dg, wall, series, sign, cut))


def test_cache_miss_then_hit():
    dg = initial_diagram(a23(), side="A", quantum=True, order=3)
    wall = dg.walls[0]
    terms = {m: QScalar.integer(1) for m in ((1, 0), (0, 1), (-1, 2), (2, -1))}
    cutoff = 3 * dg.dscale
    series = Series(dg.torus, dg.dvec, cutoff, terms)
    assert dg._fcache == {}
    first = dg._cross_dilog(wall, series, 1, cutoff)       # misses fill it
    entries = dict(dg._fcache)
    assert entries and all(key[:2] == (id(wall), 1) for key in entries)
    second = dg._cross_dilog(wall, series, 1, cutoff)      # hits reuse it
    assert dg._fcache.keys() == entries.keys()
    assert all(dg._fcache[k] is v for k, v in entries.items())
    assert_same(second, first)
    assert_same(first, word_path(dg, wall, series, 1, cutoff))


def test_wall_insertion_clears_the_cache():
    dg = initial_diagram(a23(), side="A", quantum=True, order=2)
    before = len(dg.walls)
    dg.path_ordered_product((1, 0), 2)
    assert dg._fcache
    _complete_degree(dg, 2)  # inserts the degree-2 wall
    assert len(dg.walls) == before + 1
    assert dg._fcache == {}
