"""The cached crossing factors of every wall kind against whole-series
oracles.

Crossing a wall sends each term c X^m to c X^m F, with F fixed by one
integer pairing p of m with the wall; ``ScatteringDiagram.cross`` keeps F
per (wall, sign, p) at the highest relative order asked for, as a
``FlatSeries`` on the diagram's flat ring (a log wall's F is one univariate
exponential).  The oracles compute each crossing without the cache and
with QScalar coefficients: per term f^{s p} on classical walls, each term
conjugated as a factored word and expanded on dilogarithm walls (as the
crossing did before the cache), and exp(-s g) S exp(s g) on the whole series
on log walls.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qca.fixtures import a23
from qca.qtorus import QTorusElement
from qca.scalars import ONE, QScalar, flat_pair, qpow
from qca.scatter import (
    ScatteringDiagram,
    _complete_degree,
    _insert_wall,
    complete_to_order,
    initial_diagram,
)
from qca.seeds import make_fixed_data
from test_division import min_degree
from qca.words import DilogConjugation, FactoredWord, Series, degree

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def completed(fd, quantum, order, side="A"):
    return complete_to_order(initial_diagram(fd, side=side, quantum=quantum,
                                             order=order), order)


# one diagram per case, shared by every example so that later examples hit
# entries cached by earlier ones
DIAGRAMS = {
    "a23-A": initial_diagram(a23(), side="A", quantum=True, order=3),
    "a2-X": initial_diagram(make_fixed_data([[0, 1], [-1, 0]]), side="X",
                            quantum=True, order=3),
    "a23-classical": completed(a23(), False, 4),   # a two-term wall function
    "a23-quantum": completed(a23(), True, 4),      # log walls, one with a_1, a_2
    # X side: dilogarithm walls at Q = q^{1/2}, q^{1/3}, and log factors
    # whose coefficients are not Laurent (denominators such as 1 - q^{1/3})
    "a23-X-quantum": completed(a23(), True, 3, side="X"),
}
BOX = [(a, b) for a in range(-4, 5) for b in range(-4, 5)]


def word_path(dg, wall, series, sign, cutoff) -> Series:
    h, coeff = wall.dilog
    out = Series(dg.torus, dg.dvec, cutoff, {})
    for m, c in series.terms.items():
        conj = DilogConjugation(dg.torus, h, coeff, wall.direction, -sign).apply(
            FactoredWord.monomial(dg.torus, m, c))
        rel = max(cutoff - degree(dg.dvec, m), 0)
        out = out + conj.expand(dg.dvec, rel).truncate(cutoff)
    return out


def function_power(dg, wall, power, rel) -> Series:
    """f^power for the wall function f, exact to degree rel."""
    f = Series(dg.torus, dg.dvec, rel, {
        dg.torus.zero(): ONE,
        **{tuple(j * x for x in wall.direction): c for j, c in wall.function.items()},
    })
    if power < 0:
        f, power = f.inverse(rel), -power
    out = Series.one(dg.torus, dg.dvec, rel)
    for _ in range(power):
        out = out * f
    return out


def classical_path(dg, wall, series, sign, cutoff) -> Series:
    """c A^m -> f^{s <n', m>} c A^m, term by term."""
    npr = dg.nprime(wall.normal)
    out = Series(dg.torus, dg.dvec, cutoff, {})
    for m, c in series.terms.items():
        p = sum(Fraction(a * b, d) for a, b, d in zip(npr, m, dg.fd.d))
        assert p.denominator == 1
        rel = max(cutoff - degree(dg.dvec, m), 0)
        mono = Series(dg.torus, dg.dvec, None, {m: c})
        out = out + (function_power(dg, wall, sign * int(p), rel) * mono).truncate(cutoff)
    return out


def exp_series(g: Series, cutoff) -> Series:
    """sum_k g^k / k! to degree cutoff, g of positive degree."""
    out = term = Series.one(g.algebra, g.dvec, cutoff)
    k = 1
    while k * min_degree(g) <= cutoff:
        term = (term * g).truncate(cutoff).scale(QScalar.rational(1, k))
        out = out + term
        k += 1
    return out


def log_path(dg, wall, series, sign, cutoff) -> Series:
    """exp(-s g) S exp(s g) on the whole series."""
    qq = (qpow(1) - qpow(-1)).inverse()
    g = Series(dg.torus, dg.dvec, None, {
        tuple(j * x for x in wall.direction): QScalar.integer(sign) * a * qq
        for j, a in wall.log_coeffs.items()})
    ecut = cutoff - min(min_degree(series) or 0, 0)  # None: no term below the cutoff
    exact = Series(dg.torus, dg.dvec, None, series.terms)
    return (exp_series(-g, ecut) * exact * exp_series(g, ecut)).truncate(cutoff)


ORACLES = {"classical": classical_path, "dilog": word_path, "log": log_path}


def oracle(dg, wall, series, sign, cutoff) -> Series:
    return ORACLES[wall.kind](dg, wall, series, sign, cutoff)


def pools(dg, wall):
    """The exponents of BOX with a positive, zero and negative pairing."""
    out = {1: [], 0: [], -1: []}
    for m, p in dg._pairings(wall, BOX).items():
        out[(p > 0) - (p < 0)].append(m)
    return out


@st.composite
def crossings(draw):
    """A diagram, one of its walls, and a series holding a term of each
    pairing sign plus a few random terms, with a cutoff near its degrees."""
    dg = DIAGRAMS[draw(st.sampled_from(sorted(DIAGRAMS)))]
    wall = draw(st.sampled_from(dg.walls))
    by_sign = pools(dg, wall)
    exps = {draw(st.sampled_from(by_sign[s])) for s in (1, 0, -1) if by_sign[s]}
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
def test_cached_crossing_matches_oracle(case):
    dg, wall, series, cutoff = case
    # both signs and two cutoffs on one cache: a key that dropped the sign,
    # or an entry served below the order asked for, would hand one of these
    # calls a wrong factor
    for cut in (cutoff, cutoff + dg.dscale):
        for sign in (1, -1):
            got = dg.cross(wall, series, sign, cut)
            assert_same(got, oracle(dg, wall, series, sign, cut))


def fresh(name):
    """A new diagram of the same case, with an empty cache."""
    dg = {
        "a23-A": lambda: initial_diagram(a23(), side="A", quantum=True, order=3),
        "a23-classical": lambda: completed(a23(), False, 4),
        "a23-quantum": lambda: completed(a23(), True, 4),
        "a23-X-quantum": lambda: completed(a23(), True, 3, side="X"),
    }[name]()
    dg._fcache.clear()
    return dg


CASES = [("a23-A", 0), ("a23-classical", 2), ("a23-quantum", 2), ("a23-X-quantum", 2)]


def as_series(dg, entry) -> Series:
    """A cached flat factor as a QScalar Series."""
    return entry.series(dg.torus, dg.dvec, dg._scale)


def sample(dg, cutoff):
    terms = {m: QScalar.integer(1) for m in ((1, 0), (0, 1), (-1, 2), (2, -1))}
    return Series(dg.torus, dg.dvec, cutoff, terms)


def test_cache_miss_then_hit():
    for name, index in CASES:
        dg = fresh(name)
        wall = dg.walls[index]
        cutoff = 3 * dg.dscale
        series = sample(dg, cutoff)
        first = dg.cross(wall, series, 1, cutoff)       # misses fill it
        entries = dict(dg._fcache)
        # one entry per (wall, sign, pairing), on every kind of wall
        assert entries and all(len(key) == 3 and key[:2] == (id(wall), 1)
                               for key in entries)
        pairings = set(dg._pairings(wall, series.terms).values())
        if wall.kind == "log":  # built whole per pairing, no intermediates
            assert {key[2] for key in entries} == pairings
        else:
            assert {key[2] for key in entries} >= pairings
        second = dg.cross(wall, series, 1, cutoff)      # hits reuse it
        assert dg._fcache.keys() == entries.keys()
        assert all(dg._fcache[k] is v for k, v in entries.items())
        assert_same(second, first)
        assert_same(first, oracle(dg, wall, series, 1, cutoff))


def test_non_laurent_log_factors_share_one_denominator():
    # the order-4 completion's wall on (6, -3) has a_1 =
    # (-q^{1/2} - q^{3/2}) / (1 + q + q^2): its factors for nonzero pairings
    # sit over a flat denominator that is not a constant, and a series with
    # terms of zero and nonzero pairings crosses over one common denominator
    dg = fresh("a23-quantum")
    wall = next(w for w in dg.walls if w.direction == (6, -3))
    assert not wall.log_coeffs[1].is_polynomial()
    by_sign = pools(dg, wall)
    low = {s: min(by_sign[s], key=lambda m: degree(dg.dvec, m)) for s in (1, 0, -1)}
    terms = {low[1]: ONE, low[0]: qpow(1), low[-1]: QScalar.integer(2)}
    cutoff = max(degree(dg.dvec, m) for m in terms) + degree(dg.dvec, wall.direction)
    series = Series(dg.torus, dg.dvec, cutoff, terms)
    for sign in (1, -1):
        got = dg.cross(wall, series, sign, cutoff)
        assert any(len(f.den) > 1 for key, f in dg._fcache.items() if key[1] == sign)
        assert len(got.terms) > len(terms)
        assert_same(got, oracle(dg, wall, series, sign, cutoff))


def test_lower_order_is_served_by_a_higher_entry():
    for name, index in CASES:
        dg = fresh(name)
        wall = dg.walls[index]
        high, low = 4 * dg.dscale, 2 * dg.dscale
        dg.cross(wall, sample(dg, high), -1, high)
        entries = dict(dg._fcache)
        series = sample(dg, low)
        got = dg.cross(wall, series, -1, low)
        # no entry rebuilt or added, none cut down to the lower order
        assert dg._fcache.keys() == entries.keys()
        assert all(dg._fcache[k] is v for k, v in entries.items())
        assert_same(got, oracle(dg, wall, series, -1, low))
        # a higher order than stored rebuilds the entries it needs
        top = 6 * dg.dscale
        series = sample(dg, top)
        got = dg.cross(wall, series, -1, top)
        assert any(dg._fcache[k] is not v for k, v in entries.items())
        assert max(f.cutoff for f in dg._fcache.values()) > max(
            f.cutoff for f in entries.values())
        assert_same(got, oracle(dg, wall, series, -1, top))


def word_factor(dg, wall, sign, p, rel) -> Series:
    """F for pairing p as the whole word of |p| binomials, expanded at once."""
    if wall.kind == "dilog":
        h, coeff = wall.dilog
        s0 = 1 if p > 0 else -1
        binomials = DilogConjugation(dg.torus, h, coeff, wall.direction).factors(s0, abs(p))
        word = FactoredWord(dg.torus, ONE, [(b, -sign * s0) for b in binomials])
    else:
        f = QTorusElement(dg.torus, {
            dg.torus.zero(): ONE,
            **{tuple(j * x for x in wall.direction): c for j, c in wall.function.items()},
        })
        word = FactoredWord(dg.torus, ONE, ((f, 1 if sign * p > 0 else -1),) * abs(p))
    return word.expand(dg.dvec, rel).truncate(rel)


def structure(series: Series):
    """The cutoff and every coefficient's stored form, not just its value."""
    return series.cutoff, {n: (c.scale, c.num, c.den) for n, c in series.terms.items()}


@PROPERTY
@given(st.data())
def test_incremental_factor_matches_the_whole_word(data):
    # F_p is built from F_{p -+ 1}; requests in ascending order build on
    # the entry just below, in descending order the later ones are served
    # by the intermediate entries the first one left behind
    dg = DIAGRAMS[data.draw(st.sampled_from(["a23-A", "a2-X", "a23-classical",
                                             "a23-X-quantum"]))]
    wall = data.draw(st.sampled_from([w for w in dg.walls if w.kind != "log"]))
    sign = data.draw(st.sampled_from((1, -1)))
    s0 = data.draw(st.sampled_from((1, -1)))
    sizes = data.draw(st.lists(st.integers(0, 12), min_size=1, max_size=4, unique=True))
    sizes.sort(reverse=data.draw(st.booleans()))
    dg._fcache.clear()
    dg._flat_scale()
    for size in sizes:
        rel = data.draw(st.integers(0, 4 * dg.dscale))
        got = dg._factor(wall, sign, s0 * size, rel)
        assert got.cutoff >= rel
        assert structure(as_series(dg, got).truncate(rel)) == structure(
            word_factor(dg, wall, sign, s0 * size, rel))
    # every entry left in the cache is the whole word at its own cutoff
    for (_, sign_k, k), entry in dg._fcache.items():
        assert structure(as_series(dg, entry)) == structure(
            word_factor(dg, wall, sign_k, k, entry.cutoff))


def test_factors_over_coefficients_that_are_not_laurent():
    # a classical wall function with rational coefficients and a
    # dilogarithm with coefficient 1/(1+q): each binomial of the chain sits
    # over a flat denominator, which a product moves into the factor's
    # denominator and a division (by a lead that is no unit) into its terms
    classical = initial_diagram(a23(), side="A", quantum=False, order=3)
    classical.walls[0].function = {1: QScalar.rational(1, 2), 2: QScalar.rational(-2, 3)}
    quantum = initial_diagram(a23(), side="A", quantum=True, order=3)
    h, _ = quantum.walls[1].dilog
    quantum.walls[1].dilog = (h, (ONE + qpow(1)).inverse())
    for dg, wall in ((classical, classical.walls[0]), (quantum, quantum.walls[1])):
        dg._flat_scale()
        for sign in (1, -1):
            for p in (3, -3, 1, -2):
                rel = 3 * dg.dscale
                got = dg._factor(wall, sign, p, rel)
                assert structure(as_series(dg, got).truncate(rel)) == structure(
                    word_factor(dg, wall, sign, p, rel))
        assert any(len(f.den) > 1 or f.den != {0: 1} for f in dg._fcache.values())


def test_is_consistent_compares_coefficients():
    # the loop is the identity only if its flat product is X^m over its own
    # denominator: a crossing that halves every term keeps the exponents
    # but not the value
    dg = completed(a23(), True, 3)
    assert dg.is_consistent([(1, 0), (-2, 1)], 3)
    cross = dg._cross

    def halving(wall, terms, sign, cutoff):
        out, den = cross(wall, terms, sign, cutoff)
        return out, {k: 2 * c for k, c in den.items()}

    dg._cross = halving
    assert not dg.is_consistent([(1, 0)], 3)


def factors_of(dg, wall):
    return {key: f for key, f in dg._fcache.items() if key[0] == id(wall)}


def fresh_build(dg, key, entry) -> Series:
    """The entry ``key`` rebuilt from nothing on a diagram with the same
    walls (and so the same wall ids) and an empty cache."""
    twin = ScatteringDiagram(dg.fd, dg.side, dg.quantum, dg.order)
    twin.walls = dg.walls
    twin._flat_scale()
    wall = next(w for w in dg.walls if id(w) == key[0])
    return as_series(twin, twin._factor(wall, key[1], key[2], entry.cutoff))


def test_wall_insertion_drops_only_that_walls_factors():
    dg = initial_diagram(a23(), side="A", quantum=True, order=3)
    _complete_degree(dg, 2)  # inserts the first log wall
    log_wall = dg.walls[-1]
    assert log_wall.kind == "log"
    dg.path_ordered_product((1, 0), 3)
    assert factors_of(dg, log_wall)
    assert all(factors_of(dg, w) for w in dg.walls)
    sequence = dg._seq_cache
    assert sequence

    # a second coefficient on the existing log wall: only its entries go,
    # and the crossing sequence stays (no wall was created)
    before = dict(dg._fcache)
    m = tuple(2 * x for x in log_wall.direction)
    _insert_wall(dg, m, 4, [((1, 0), ONE)])
    assert 2 in log_wall.log_coeffs and len(dg.walls) == 3
    assert not factors_of(dg, log_wall)
    kept = {key: f for key, f in before.items() if key[0] != id(log_wall)}
    assert kept and dg._fcache == kept
    assert all(dg._fcache[key] is f for key, f in kept.items())
    for key, f in kept.items():
        assert structure(as_series(dg, f)) == structure(fresh_build(dg, key, f))
    assert dg._seq_cache is sequence

    # a new wall (in a degree-3 direction of the completion): the crossing
    # sequence goes, every entry stays
    dg.path_ordered_product((0, 1), 3)
    before = dict(dg._fcache)
    _insert_wall(dg, (4, -3), 3, [((1, 0), ONE)])
    assert len(dg.walls) == 4 and dg.walls[-1].direction == (4, -3)
    assert dg._seq_cache is None
    assert dg._fcache == before
    assert all(dg._fcache[key] is f for key, f in before.items())


def test_a_finer_wall_rekeys_the_cache():
    # the flat ring's scale is the lcm of form_den and every wall
    # coefficient's scale; a wall at a finer scale re-keys every cached
    # factor to it, each keeping its value, and crossings still match
    dg = fresh("a23-A")
    wall = dg.walls[0]
    cutoff = 3 * dg.dscale
    dg.cross(wall, sample(dg, cutoff), 1, cutoff)
    old_scale = dg._scale
    before = {key: structure(as_series(dg, f)) for key, f in dg._fcache.items()}
    assert before
    _insert_wall(dg, (4, -3), 3, [((1, 0), qpow(Fraction(1, 5)))])
    finer = dg.walls[-1]
    assert finer.log_coeffs[1].scale % 5 == 0
    series = sample(dg, cutoff)
    got = dg.cross(wall, series, 1, cutoff)
    assert dg._scale % (5 * old_scale) == 0
    with pytest.raises(ValueError, match="not a multiple"):  # no silent rounding
        flat_pair(finer.log_coeffs[1], old_scale)
    assert {key: structure(as_series(dg, f)) for key, f in dg._fcache.items()} == before
    assert_same(got, oracle(dg, wall, series, 1, cutoff))
    for sign in (1, -1):
        series = sample(dg, 4 * dg.dscale)
        assert_same(dg.cross(finer, series, sign, series.cutoff),
                    oracle(dg, finer, series, sign, series.cutoff))
