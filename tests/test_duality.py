from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qca import duality, mutation
from qca.duality import (
    CompatibilityError,
    PStarHom,
    check_compatible_pair,
    p1_star,
    p1_star_injective,
    principal_compatible_pair,
)
from qca.fixtures import a23, rank3_frozen
from qca.mutation import mutate_a_word, mutate_word, x_torus
from qca.scalars import qpow
from qca.cli import main
from qca.seeds import Seed, make_fixed_data, save_seed_file
from qca.words import FactoredWord, words_equal


def test_p1_star_a23():
    fd = a23()
    pm = p1_star(fd)
    assert pm.rows[0] == (0, -3)   # p1*(e1) = -3 f2
    assert pm.rows[1] == (2, 0)    # p1*(e2) = 2 f1
    assert p1_star_injective(fd)


def test_p1_star_a2():
    fd = make_fixed_data([[0, 1], [-1, 0]])
    pm = p1_star(fd)
    assert pm.rows[0] == (0, 1)
    assert pm.rows[1] == (-1, 0)


def test_p1_star_names_a_non_integral_frozen_entry(tmp_path, capsys):
    # {e2, e3} = 1/2 between two frozen directions: fixed data allows it,
    # but p* row 2 is not integral
    fd = make_fixed_data([[0, 1, 0], [-1, 0, "1/2"], [0, "-1/2", 0]], unfrozen=[0])
    with pytest.raises(ArithmeticError) as info:
        p1_star(fd)
    assert type(info.value) is ArithmeticError
    assert str(info.value) == "non-integral p* entry {e2,e3}d3: 1/2"
    path = tmp_path / "frozen_half.json"
    save_seed_file(fd, path)
    # a failed computation on a seed that loads: exit 3, not a usage error
    assert main(["pstar", "--seed", str(path)]) == 3
    assert capsys.readouterr().err == "error: non-integral p* entry {e2,e3}d3: 1/2\n"


def test_zero_form_not_injective():
    fd = make_fixed_data([[0, 0], [0, 0]])
    assert not p1_star_injective(fd)


def test_check_compatible_pair_paper():
    Lam = ((0, 1), (-1, 0))
    Bt = ((0, 2), (-3, 0))
    assert check_compatible_pair(Lam, Bt) == (3, 2)
    with pytest.raises(CompatibilityError):
        check_compatible_pair(((0, 0), (0, 0)), Bt)


def test_principal_pair_a23():
    pair = principal_compatible_pair(a23())
    assert pair.Lambda == ((0, 1), (-1, 0))
    assert pair.Btilde == ((0, 2), (-3, 0))
    assert pair.Dprime == (3, 2)   # = d * D_uf^{-1} with d = 6


def test_principal_pair_rank3():
    fd = rank3_frozen()
    pair = principal_compatible_pair(fd)
    assert check_compatible_pair(pair.Lambda, pair.Btilde,
                                 unfrozen_cols=fd.unfrozen) == pair.Dprime
    assert PStarHom(fd).Lambda == pair.Lambda  # multiplicativity validated inside


def test_multiplicativity_check_raises_on_a_perturbed_lambda():
    fd = a23()
    Lambda = principal_compatible_pair(fd).Lambda
    duality._check_intertwines(fd, p1_star(fd), Lambda)
    perturbed = ((0, Lambda[0][1] + 1), (Lambda[1][0] - 1, 0))
    with pytest.raises(CompatibilityError) as info:
        duality._check_intertwines(fd, p1_star(fd), perturbed)
    assert info.value.entry == (0, 1)


def test_multiplicativity_is_checked_once_per_fixed_data(monkeypatch):
    fd = rank3_frozen()
    principal_compatible_pair(fd)  # cached before the count starts
    checked = []
    check = duality._check_intertwines
    monkeypatch.setattr(duality, "_check_intertwines",
                        lambda *args: checked.append(args[0]) or check(*args))
    pair = principal_compatible_pair.__wrapped__(fd)  # the solve, uncached
    assert checked == [fd]
    PStarHom(fd), PStarHom(fd)
    assert checked == [fd] and PStarHom(fd).Lambda == pair.Lambda


def test_q_translation():
    fd = a23()
    hom = PStarHom(fd)
    # q_FG^{1/d_k} -> q_BZ^{-d_k-dual/2}: d_1 = 2, dual 3 -> q^{-3/2} = v^3
    assert hom.scalar_map(qpow(Fraction(1, 2))) == qpow(Fraction(-3, 2))
    assert hom.scalar_map(qpow(Fraction(1, 3))) == qpow(Fraction(-1))


def test_generator_image():
    fd = a23()
    hom = PStarHom(fd)
    xalg = x_torus(fd)
    w = FactoredWord.monomial(xalg, (1, 0))
    img = hom.apply(w)
    assert img.atoms[0][0].terms.keys() == {(0, -3)}


def test_multiplicative_on_monomials():
    fd = a23()
    hom = PStarHom(fd)
    xalg = x_torus(fd)
    for n in [(1, 0), (0, 1), (2, -1)]:
        for m in [(1, 1), (-1, 2)]:
            a = FactoredWord.monomial(xalg, n)
            b = FactoredWord.monomial(xalg, m)
            lhs = hom.apply(a * b)
            rhs = hom.apply(a) * hom.apply(b)
            assert words_equal(lhs, rhs, 6)


def test_commutes_with_star():
    fd = a23()
    hom = PStarHom(fd)
    xalg = x_torus(fd)
    w = FactoredWord.monomial(xalg, (1, 0), qpow(Fraction(1, 2))) \
        * FactoredWord.monomial(xalg, (0, 1))
    assert words_equal(hom.apply(w.star()), hom.apply(w).star(), 6)


def _check_intertwining(fd):
    for k, i, ok in PStarHom(fd).intertwining(8):
        assert ok, (k, i)


def test_intertwining_a23():
    _check_intertwining(a23())


def test_intertwining_rank3():
    _check_intertwining(rank3_frozen())


def test_intertwining_coefficient_free():
    fd = a23()
    hom = PStarHom(fd)
    xalg = x_torus(fd)
    seed = Seed(fd)
    for k in fd.unfrozen:
        nxt = seed.mutate(k)
        for i in range(fd.n):
            w = FactoredWord.monomial(xalg, nxt.basis[i])
            lhs = hom.apply(mutate_word(w, k, seed, with_coefficients=False))
            aw = FactoredWord.monomial(hom.atorus, hom.pmap.apply(nxt.basis[i]))
            rhs = mutate_a_word(aw, k, seed, with_coefficients=False)
            assert words_equal(lhs, rhs, 8), (k, i)


def test_a_mutation_example_a23():
    # A(2,3), mu_1 at s0, c_1 = (1,0):
    # the mutated variable A_{1;s'} -> t1 A^{-f1} + A^{-f1 + 3 f2}
    fd = a23()
    hom = PStarHom(fd)
    seed = Seed(fd)
    fprime = seed.mutate(0).f_basis()[0]
    assert fprime == (-1, 3)
    aw = FactoredWord.monomial(hom.atorus, fprime)
    got = mutate_a_word(aw, 0, seed)
    from qca.mutation import a_mutation_binomial

    binom = a_mutation_binomial(hom.atorus, 0, seed)
    assert set(binom.terms) == {(-1, 0), (-1, 3)}
    from qca.scalars import tvar

    assert binom.terms[(-1, 0)] == tvar(0)
    assert binom.terms[(-1, 3)].is_one()
    assert words_equal(got, FactoredWord.from_element(binom), 8)
    # untouched directions stay fixed
    other = FactoredWord.monomial(hom.atorus, seed.mutate(0).f_basis()[1])
    assert words_equal(mutate_a_word(other, 0, seed), other, 8)


def test_no_compatible_pair_without_frozen_rank3():
    # an all-unfrozen rank-3 seed has a 3x3 skew Btilde: never full rank
    fd = make_fixed_data([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
    with pytest.raises(CompatibilityError):
        principal_compatible_pair(fd)


@st.composite
def fixed_data(draw):
    """Rank 2 or 3: an integer skew form with entries in [-2, 2], each d_i
    in {1, 2, 3} and a nonempty unfrozen set; None where make_fixed_data
    rejects the draw."""
    n = draw(st.sampled_from((2, 3)))
    skew = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            skew[i][j] = draw(st.integers(-2, 2))
            skew[j][i] = -skew[i][j]
    d = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=n, max_size=n))
    unfrozen = draw(st.lists(st.sampled_from(range(n)), min_size=1, unique=True))
    try:
        return make_fixed_data(skew, d=d, unfrozen=sorted(unfrozen))
    except ValueError:
        return None


def has_compatible_pair(fd) -> bool:
    try:
        principal_compatible_pair(fd)
    except (CompatibilityError, ArithmeticError):  # no pair, or no integral p*
        return False
    return True


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fixed_data())
def test_p_star_intertwines_mutation_on_random_fixed_data(fd):
    assume(fd is not None and has_compatible_pair(fd))
    assert all(ok for _, _, ok in PStarHom(fd).intertwining(6)), fd


def _fresh_words(fd, seed, k, coeff):
    """The monomials of the basis and of the f-basis of mu_k(seed), mutated
    by steps built afresh: X-side, and A-side where a compatible pair
    exists."""
    nxt = seed.mutate(k)
    xstep = mutation.XMutationStep(seed, k, coeff)
    out = [xstep.apply(FactoredWord.monomial(x_torus(fd), v)).render() for v in nxt.basis]
    if coeff and has_compatible_pair(fd):
        astep = mutation.AMutationStep(seed, k, True)
        out += [astep.apply(FactoredWord.monomial(mutation.a_torus(fd), v)).render()
                for v in nxt.f_basis()]
    return out


def _shared_words(fd, history, k, coeff):
    """As :func:`_fresh_words`, by the shared seeds and steps."""
    nxt = mutation._seed(fd, history + (k,))
    xstep = mutation._step(fd, history, k, mutation.XMutationStep, coeff)
    out = [xstep.apply(FactoredWord.monomial(x_torus(fd), v)).render() for v in nxt.basis]
    if coeff and has_compatible_pair(fd):
        astep = mutation._step(fd, history, k, mutation.AMutationStep, True)
        out += [astep.apply(FactoredWord.monomial(mutation.a_torus(fd), v)).render()
                for v in nxt.f_basis()]
    return out


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fixed_data(), st.data())
def test_shared_seeds_and_steps_are_the_fresh_ones(fd, data):
    assume(fd is not None)
    history = tuple(data.draw(st.lists(st.sampled_from(fd.unfrozen), max_size=5)))
    coeff = data.draw(st.booleans())
    fresh = Seed(fd)
    for i, k in enumerate(history):
        shared = mutation._seed(fd, history[:i])
        assert (shared.ext, shared.gram, shared.fbasis, shared.history) \
            == (fresh.ext, fresh.gram, fresh.fbasis, fresh.history)
        assert _shared_words(fd, history[:i], k, coeff) == _fresh_words(fd, fresh, k, coeff)
        fresh = fresh.mutate(k)
    shared = mutation._seed(fd, history)
    assert (shared.ext, shared.gram, shared.fbasis, shared.history) \
        == (fresh.ext, fresh.gram, fresh.fbasis, fresh.history)
