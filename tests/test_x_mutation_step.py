"""Quantum X-mutation by one step object per mutation.

``XMutationStep`` (and the ``DilogConjugation`` it holds) against the
per-word algorithm it replaced, kept in ``x_mutation_oracle``: on random
rank-2 and rank-3 skew forms with symmetrizers d_i in {1, 2, 3}, with and
without coefficients, the table rows and ``quantum_x_variables`` agree atom
by atom with the oracle's words reduced after each step, and equal its
unreduced words as elements; ``DilogConjugation.apply`` on words with
inverted multi-term atoms agrees with the oracle atom by atom.  The
reduction itself is checked against expansion: a reduced word expands to
the same series, and ``words_equal`` answers as the unreduced
expand-and-compare does, also on words with an atom between an inverse
pair, which the reduction cancels only when that atom commutes with it.  On the same forms the mutation identities hold:
mu_k mu_k = id and the *-homomorphism, by ``words_equal`` at K = 6.
Finally, one step per mutation builds each binomial once and reuses its
running products across every word and every table row, and calls at
equal seeds share one step.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

import x_mutation_oracle as oracle
from qca import mutation, words
from qca.fixtures import a2_tables, a23
from qca.mutation import (
    mutate_word,
    quantum_x_table,
    quantum_x_variables,
    x_torus,
)
from qca.qtorus import QTorusElement
from qca.scalars import ONE, QScalar, tpow
from qca.seeds import Seed, make_fixed_data
from qca.words import FactoredWord, choose_grading, words_equal

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
IDENTITY = settings(max_examples=40, deadline=None, derandomize=True)
K = 6


@st.composite
def skew_forms(draw):
    """Rank 2 or 3, d_i in {1, 2, 3} with gcd 1, {e_i, e_j} = m / gcd(d_i, d_j)
    with |m| <= 1, so that every {e_i, d_j e_j} is an integer."""
    n = draw(st.sampled_from((2, 3)))
    d = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=n, max_size=n)
             .filter(lambda d: gcd(*d) == 1))
    skew = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m = draw(st.integers(-1, 1))
            skew[i][j], skew[j][i] = Fraction(m, gcd(d[i], d[j])), Fraction(-m, gcd(d[i], d[j]))
    return make_fixed_data(skew, d=d)


@st.composite
def sequences(draw, min_len=1, max_len=3):
    """(fixed data, mutation sequence, with_coefficients)."""
    fd = draw(skew_forms())
    seq = draw(st.lists(st.sampled_from(fd.unfrozen), min_size=min_len, max_size=max_len))
    return fd, seq, draw(st.booleans())


@st.composite
def atoms(draw, alg, multi_term=False, along=None):
    """A nonzero torus element with one to three terms and small q- and
    t-power coefficients; with ``along`` a nonzero vector, its exponents
    are multiples of it."""
    exps = st.tuples(*[st.integers(-2, 2)] * alg.rank)
    if along is not None:
        exps = st.integers(-2, 2).map(lambda k: tuple(k * x for x in along))
    count = draw(st.integers(2, 3)) if multi_term else draw(st.integers(1, 3))
    terms = {}
    for n in draw(st.lists(exps, min_size=count, max_size=count, unique=True)):
        terms[n] = QScalar.term(Fraction(draw(st.integers(-3, 3)), alg.form_den),
                                draw(st.sampled_from(((), (1,), (0, 2)))),
                                draw(st.sampled_from((1, -1, 2))))
    return QTorusElement(alg, terms)


@st.composite
def mixed_words(draw, alg):
    """A word with an inverted multi-term atom among random atoms."""
    out = [(draw(atoms(alg, multi_term=True)), -1)]
    for _ in range(draw(st.integers(0, 3))):
        out.insert(draw(st.integers(0, len(out))),
                   (draw(atoms(alg)), draw(st.sampled_from((1, -1)))))
    prefix = draw(st.sampled_from((ONE, QScalar.term(1, (1,)), QScalar.rational(-1, 2))))
    return FactoredWord(alg, prefix, out)


def spliced(w, cut, piece):
    """w with the word ``piece`` inserted before its atom ``cut``."""
    return FactoredWord(w.algebra, w.prefix, w.atoms[:cut]) * piece \
        * FactoredWord(w.algebra, ONE, w.atoms[cut:])


@st.composite
def sandwiches(draw, alg):
    """(m a) b (m a)^-1 for a monomial m and multi-term atoms a and b.
    Half the time b's exponents are multiples of the difference d of a's
    two least exponents, so that b commutes with the monic atom of a when
    a has two terms (and then a and a^-1 cancel across b), and may not
    when a has three."""
    a = draw(atoms(alg, multi_term=True))
    along = None
    if draw(st.booleans()):
        n0, n1 = sorted(a.terms)[:2]
        along = tuple(y - x for x, y in zip(n0, n1))
    b = draw(atoms(alg, multi_term=True, along=along))
    m = FactoredWord.monomial(alg, draw(st.tuples(*[st.integers(-2, 2)] * alg.rank)))
    ma = m * FactoredWord.from_element(a)
    return ma * FactoredWord.from_element(b) * ma.inverse()


@st.composite
def sandwiched_words(draw, alg):
    """A mixed word with a sandwich inserted."""
    w = draw(mixed_words(alg))
    return spliced(w, draw(st.integers(0, len(w.atoms))), draw(sandwiches(alg)))


def assert_same_word(got, want):
    """Same prefix and, atom by atom, the same terms and powers."""
    assert got.prefix == want.prefix
    assert len(got.atoms) == len(want.atoms)
    for (p, s), (p2, s2) in zip(got.atoms, want.atoms):
        assert s == s2
        assert p == p2
    assert got.render() == want.render()


# ---------------------------------------------------------------------------
# against the per-word oracle


@PROPERTY
@given(sequences())
def test_table_and_variables_match_oracle(case):
    fd, seq, coeff = case
    got = quantum_x_table(fd, seq, coeff)
    want = oracle.quantum_x_table(fd, seq, coeff, reduce=True)
    unreduced = oracle.quantum_x_table(fd, seq, coeff)
    assert len(got) == len(want) == len(unreduced) == len(seq) + 1
    for (seed, ws), (seed2, ws2), (_, ws3) in zip(got, want, unreduced):
        assert seed.history == seed2.history and seed.gram == seed2.gram
        assert len(ws) == len(ws2) == fd.n
        for w, w2, w3 in zip(ws, ws2, ws3):
            assert_same_word(w, w2)
            assert words_equal(w, w3, K)
    seed, ws = quantum_x_variables(fd, seq, coeff)
    assert seed.history == tuple(seq)
    for w, w2 in zip(ws, want[-1][1]):
        assert_same_word(w, w2)


@PROPERTY
@given(st.data())
def test_conjugation_matches_oracle_on_inverted_atoms(data):
    fd = data.draw(skew_forms())
    alg = x_torus(fd)
    k = data.draw(st.sampled_from(fd.unfrozen))
    sign = data.draw(st.sampled_from((1, -1)))
    direction = tuple(sign if i == k else 0 for i in range(fd.n))
    h = Fraction(data.draw(st.sampled_from((1, -1))), fd.d[k])
    coeff = data.draw(st.sampled_from((ONE, tpow((1,)), tpow((0, 1)))))
    w = data.draw(mixed_words(alg))
    for action in (1, -1):
        assert_same_word(words.DilogConjugation(alg, h, coeff, direction, action).apply(w),
                         oracle.conjugate_by_dilog(w, h, coeff, direction, action))


@PROPERTY
@given(st.data())
def test_mutate_word_matches_oracle_on_mixed_words(data):
    fd, prefix, coeff = data.draw(sequences(min_len=0, max_len=2))
    seed = Seed(fd).mutate_sequence(prefix)
    k = data.draw(st.sampled_from(fd.unfrozen))
    w = data.draw(mixed_words(x_torus(fd)))
    assert_same_word(mutate_word(w, k, seed, coeff),
                     oracle.mutate_word(w, k, seed, coeff))


# ---------------------------------------------------------------------------
# the reduction against expansion


@PROPERTY
@given(st.data())
def test_reduced_word_expands_to_the_same_series(data):
    alg = x_torus(data.draw(skew_forms()))
    w = data.draw(st.one_of(mixed_words(alg), sandwiched_words(alg)))
    dvec = choose_grading([w], alg.rank)
    got, want = w.reduced().expand(dvec, K), w.expand(dvec, K)
    assert got == want and got.cutoff == want.cutoff


@PROPERTY
@given(st.data())
def test_words_equal_answers_as_the_unreduced_expansion(data):
    alg = x_torus(data.draw(skew_forms()))
    w = data.draw(mixed_words(alg))
    kind = data.draw(st.sampled_from(("other", "reduced", "padded", "sandwiched")))
    if kind == "other":
        w2 = data.draw(mixed_words(alg))
    elif kind == "reduced":
        w2 = w.reduced()
    elif kind == "padded":
        # w with (m a) (m a)^-1 inserted, for a monomial m and an atom a
        m = FactoredWord.monomial(alg, data.draw(st.tuples(*[st.integers(-2, 2)] * alg.rank)))
        ma = m * FactoredWord.from_element(data.draw(atoms(alg)))
        w2 = spliced(w, data.draw(st.integers(0, len(w.atoms))), ma * ma.inverse())
    else:
        w2 = spliced(w, data.draw(st.integers(0, len(w.atoms))), data.draw(sandwiches(alg)))
    want = oracle.words_equal(w, w2, K)
    assert words_equal(w, w2, K) == want
    if kind in ("reduced", "padded"):
        assert want


# ---------------------------------------------------------------------------
# the mutation identities on random forms


@IDENTITY
@given(sequences(min_len=0, max_len=1), st.data())
def test_double_mutation_is_identity_on_random_forms(case, data):
    fd, prefix, coeff = case
    k = data.draw(st.sampled_from(fd.unfrozen))
    _, before = quantum_x_variables(fd, prefix, coeff)
    _, after = quantum_x_variables(fd, prefix + [k, k], coeff)
    for w, w2 in zip(before, after):
        assert words_equal(w, w2, K)


@IDENTITY
@given(sequences(min_len=0, max_len=2), st.data())
def test_star_homomorphism_on_random_forms(case, data):
    fd, prefix, coeff = case
    k = data.draw(st.sampled_from(fd.unfrozen))
    seed = Seed(fd).mutate_sequence(prefix)
    alg = x_torus(fd)
    for v in seed.mutate(k).basis:
        w = FactoredWord.monomial(alg, v)
        assert words_equal(mutate_word(w, k, seed, coeff).star(),
                           mutate_word(w.star(), k, seed, coeff), K)


# ---------------------------------------------------------------------------
# sharing


def record_builds(monkeypatch):
    """Record every step, every binomial built and the right-hand factor of
    every running-product multiplication made while conjugating."""
    made = {"steps": [], "binomials": [], "products": []}

    class Recorded(mutation.XMutationStep):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made["steps"].append(self)

    binomial, product = words.dilog_binomial, words.skew_product

    def built(*args):
        made["binomials"].append(binomial(*args))
        return made["binomials"][-1]

    def times(alg, left, right, *rest):
        made["products"].append(right)
        return product(alg, left, right, *rest)

    monkeypatch.setattr(mutation, "XMutationStep", Recorded)
    monkeypatch.setattr(words, "dilog_binomial", built)
    monkeypatch.setattr(words, "skew_product", times)
    return made


def assert_built_once(made):
    steps = made["steps"]
    cached = [b for st_ in steps for b in st_.conjugation._binomials.values()]
    # every binomial built is cached in one step, and built only once
    assert sorted(map(id, made["binomials"])) == sorted(map(id, cached))
    products = {id(p.terms) for st_ in steps
                for s in (1, -1) for p in st_.conjugation._products[s]}
    used = [id(terms) for terms in made["products"]]
    assert used and set(used) <= products
    assert len(used) > len(set(used))  # some running product is reused


def test_quantum_x_variables_builds_once_for_all_words(monkeypatch, cold_caches):
    made = record_builds(monkeypatch)
    seq = [0, 1, 0, 1]
    quantum_x_variables(a23(), seq, True)
    assert len(made["steps"]) == len(seq)
    assert_built_once(made)


def test_quantum_x_table_builds_once_for_all_rows(monkeypatch, cold_caches):
    made = record_builds(monkeypatch)
    seq = [0, 1, 0, 1, 0]
    rows = quantum_x_table(a2_tables(), seq, True)
    assert len(made["steps"]) == len(seq)  # one step per mutation, not per row
    assert_built_once(made)
    # and the rows equal the oracle's
    monkeypatch.undo()
    want = oracle.quantum_x_table(a2_tables(), seq, True, reduce=True)
    for (_, ws), (_, ws2) in zip(rows, want):
        for w, w2 in zip(ws, ws2):
            assert_same_word(w, w2)


def test_equal_seeds_share_one_step(monkeypatch, cold_caches):
    fd = a23()
    seed, twin = Seed(fd).mutate(0), Seed(fd).mutate(0)
    assert seed is not twin
    alg = x_torus(fd)
    w = FactoredWord.monomial(alg, (2, -1)) * FactoredWord.from_element(
        QTorusElement(alg, {(0, 0): ONE, (1, 1): ONE}), -1)
    made = record_builds(monkeypatch)
    first, again = mutate_word(w, 1, seed), mutate_word(w, 1, twin)
    assert len(made["steps"]) == 1
    monkeypatch.undo()
    fresh = mutation.XMutationStep(seed, 1, True).apply(w)
    assert first.render() == again.render() == fresh.render()
