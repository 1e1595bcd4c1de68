"""Each node of the exchange graph has its quantum variables pulled back once
per process and shared: the shared words are the ones a fresh pull-back
builds, every call returns a new list over the same words, and a pull-back
that raises is not kept.  Each build-counting test starts from cold caches."""

import itertools

import pytest

from qca import fixtures, mutation
from qca.cli import main
from qca.duality import CompatibilityError, principal_compatible_pair
from qca.mutation import (
    AMutationStep,
    TABLES,
    XMutationStep,
    a_torus,
    mutation_row,
    quantum_a_table,
    quantum_a_variables,
    quantum_x_table,
    quantum_x_variables,
    x_torus,
)
from qca.seeds import Seed, make_fixed_data, save_seed_file


def histories(fd, top=3):
    """Every history of length <= ``top`` over the unfrozen directions."""
    return [h for length in range(top + 1)
            for h in itertools.product(fd.unfrozen, repeat=length)]


def sides(fd):
    """(variables, step kind, coefficients) for the X side with and without
    coefficients, and for the A side where a compatible pair exists."""
    out = [(lambda fd, h: quantum_x_variables(fd, h, False), XMutationStep, False),
           (lambda fd, h: quantum_x_variables(fd, h, True), XMutationStep, True)]
    try:
        principal_compatible_pair(fd)
    except (CompatibilityError, ArithmeticError):
        return out
    return out + [(quantum_a_variables, AMutationStep, True)]


def fresh_variables(fd, history, kind, coeff):
    """The variables of the node that ``history`` reaches, pulled back
    through steps built afresh on seeds built afresh."""
    seeds = [Seed(fd)]
    for k in history:
        seeds.append(seeds[-1].mutate(k))
    steps = [kind(seed, k, coeff) for seed, k in zip(seeds, history)]
    if kind is XMutationStep:
        alg, vectors = x_torus(fd), seeds[-1].basis
    else:
        alg, vectors = a_torus(fd), seeds[-1].f_basis()
    return [mutation._pull_back(alg, v, steps) for v in vectors]


def same_words(got, want) -> bool:
    """The two lists hold the same word objects, in order."""
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


@pytest.mark.parametrize("name", ["a2", "a23", "rank3-frozen"])
def test_shared_variables_are_the_fresh_ones(name, cold_caches):
    fd = fixtures.ALL[name]()
    for variables, kind, coeff in sides(fd):
        for history in histories(fd):
            want = [w.render() for w in fresh_variables(fd, history, kind, coeff)]
            # the first call pulls back, the second reads the shared words
            for _ in range(2):
                seed, words = variables(fd, history)
                assert seed.history == history
                assert [w.render() for w in words] == want, (kind.__name__, coeff, history)


def test_each_call_returns_a_new_list_over_the_shared_words(cold_caches):
    fd, seq = fixtures.a2_tables(), (1, 0, 1)
    seed, words = quantum_x_variables(fd, seq, True)
    rendered = [w.render() for w in words]
    words.reverse()
    words.append(None)
    again_seed, again = quantum_x_variables(fd, list(seq), True)
    assert again_seed is seed and again is not words
    assert [w.render() for w in again] == rendered
    rows = quantum_x_table(fd, seq, True)
    for i, (_, row) in enumerate(rows):
        assert same_words(row, quantum_x_variables(fd, seq[:i], True)[1])
    assert same_words(rows[-1][1], again)
    assert same_words(mutation_row(fd, seq, "x-quantum-coeff")[1], again)
    _, awords = quantum_a_variables(fd, seq)
    for shared in (quantum_a_table(fd, seq)[-1][1], mutation_row(fd, seq, "a-quantum")[1]):
        assert shared is not awords and same_words(shared, awords)


@pytest.mark.parametrize("mode", ["x-quantum", "x-quantum-coeff", "a-quantum"])
def test_a_repeated_table_pulls_nothing_back(mode, monkeypatch, cold_caches):
    pulled = []

    def recorded(algebra, v, steps):
        pulled.append((v, len(steps)))
        return pull_back(algebra, v, steps)

    pull_back = mutation._pull_back
    monkeypatch.setattr(mutation, "_pull_back", recorded)
    fd, seq = fixtures.a2_tables(), (1, 0, 1, 0, 1)
    first = [[w.render() for w in words] for _, words in TABLES[mode](fd, seq)]
    # one pull-back per variable of each row, through the steps before it
    seeds = [Seed(fd).mutate_sequence(seq[:i]) for i in range(len(seq) + 1)]
    want = [(v, i) for i, seed in enumerate(seeds)
            for v in (seed.f_basis() if mode == "a-quantum" else seed.basis)]
    assert pulled == want
    second = [[w.render() for w in words] for _, words in TABLES[mode](fd, seq)]
    assert pulled == want
    assert second == first


def test_a_pull_back_that_raises_raises_again(cold_caches):
    # no integral compatible pair: the A-torus cannot be built
    fd = make_fixed_data([[0, 2], [-2, 0]])
    messages = []
    for _ in range(2):
        with pytest.raises(CompatibilityError) as raised:
            quantum_a_variables(fd, [0])
        messages.append(str(raised.value))
    assert messages == ["compatible pair is not integral"] * 2
    assert mutation._variables.cache_info().currsize == 0


def test_a_mutate_call_that_fails_fails_again(tmp_path, capsys, cold_caches):
    path = tmp_path / "no_pair.json"
    save_seed_file(make_fixed_data([[0, 2], [-2, 0]]), path)
    argv = ["mutate", "--seed", str(path), "--sequence", "1,2", "--mode", "a-quantum"]
    results = []
    for _ in range(2):
        code = main(argv)
        results.append((code, capsys.readouterr().err))
    assert results == [(2, "error: compatible pair is not integral\n")] * 2
