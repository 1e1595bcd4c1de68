"""Mutation of cluster variables: classical and quantum, X- and A-side,
with and without principal coefficients.

Each quantum side has one step object per mutation, built once and applied
to any number of words.  An :class:`XMutationStep` holds mu = mu# o mu':
mu' is the coefficient twist X^v -> t^{-{v,e_k}d_k[-c_k]+} X^v (the exponent
is unchanged because X^v is Weyl-ordered), and mu# is conjugation by the
coefficient dilogarithm, evaluated with the finite factor-product formulas.
An :class:`AMutationStep` holds the Berenstein-Zelevinsky mutation: a
monomial A^m decomposes over the mutated chart's f-basis, and only f'_k
moves, to the exchange binomial B, whose powers the step builds once.  The
seed carries that f-basis as integers, updated at each mutation by the
dual-basis rule f'_k = -f_k + sum_j [-eps_kj]_+ f_j, f'_i = f_i (i != k).

One pull-back serves both sides: the seeds along a sequence, one step per
mutation, and each basis monomial of a seed (its basis on the X side, its
f-basis on the A side) pulled back through the steps before it, last step
first, gives that seed's cluster variables in the initial chart; each word
is reduced after every step.

The exchange graph of each fixed data is built once: every seed is a node
built once from its parent by one mutation, every step is built once per
(node, direction, side, coefficients), and each node's cluster variables
are pulled back once per process per (side, coefficients), so all calls
that walk through a seed share it, its steps and its variables.  All of
these are memos of :mod:`qca._cache`, which ``qca._cache.clear()`` frees.
Seeds, steps and words are never changed after they are built (a step
only memoizes what it derives from its seed: t-powers, binomials and their
products and powers; a word is a tuple of atoms), so sharing them is safe.
A pull-back that raises is not cached and raises again on the next call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from operator import mul

from ._cache import memo
from .commutative import CPoly, CRational
from .qtorus import QTorusElement, SkewLattice, vec
from .scalars import ONE, QScalar, tpow
from .seeds import FixedData, Seed
from .words import DilogConjugation, FactoredWord


@memo
def x_torus(fd: FixedData) -> SkewLattice:
    """The quantum X-torus: the form {.,.} itself is the q-exponent."""
    return SkewLattice(fd.n, fd.skew, fd.labels)


# the exchange graph of fd: _root(fd) is its initial seed and _child(seed, k)
# is mu_k(seed); a Seed hashes by identity, and every node stays in the graph
@memo
def _root(fd: FixedData) -> Seed:
    return Seed(fd)


@memo
def _child(seed: Seed, k: int) -> Seed:
    return seed.mutate(k)


def _path(fd: FixedData, history) -> list[Seed]:
    """The seeds along ``history``, initial seed first: the nodes of the
    exchange graph of ``fd``, each built once from its parent, so paths
    with a common prefix share its seeds.  A loop, not recursion, so any
    length of history is fine."""
    seeds = [_root(fd)]
    for k in history:
        seeds.append(_child(seeds[-1], k))
    return seeds


def shared_seed(fd: FixedData, history) -> Seed:
    """The shared ``Seed(fd).mutate_sequence(history)``: the node of the
    exchange graph of ``fd`` that ``history`` reaches."""
    return _path(fd, history)[-1]


@memo
def _step(seed: Seed, k: int, kind, with_coefficients: bool):
    """The one ``kind`` (XMutationStep or AMutationStep) at direction k of
    the graph node ``seed``."""
    return kind(seed, k, with_coefficients)


def _cvec_parts(seed: Seed, k: int, with_coefficients: bool):
    """t^{[c_k]_+} and t^{[-c_k]_+}, or 1 and 1 without coefficients."""
    if not with_coefficients:
        return ONE, ONE
    c = seed.cvector(k)
    return tpow([max(x, 0) for x in c]), tpow([max(-x, 0) for x in c])


# ---------------------------------------------------------------------------
# classical (commutative) mutation


def mutate_x_classical(vars: list[CRational], k: int, seed: Seed) -> list[CRational]:
    """eq:muX pullback: row expressions in the initial chart."""
    return _mutate_x_commutative(vars, k, seed, with_coefficients=False)


def mutate_x_family(vars: list[CRational], k: int, seed: Seed) -> list[CRational]:
    """eq:Xfammu: classical X-mutation with principal coefficients."""
    return _mutate_x_commutative(vars, k, seed, with_coefficients=True)


def _mutate_x_commutative(vars, k, seed, with_coefficients):
    fd = seed.fixed
    if k not in fd.unfrozen:
        raise ValueError(f"direction {k} is frozen")
    rank = fd.n
    zero = (0,) * rank
    tp, tm = (CPoly(rank, {zero: c.limit_q1()})
              for c in _cvec_parts(seed, k, with_coefficients))
    out = []
    for i in range(rank):
        if i == k:
            out.append(vars[k].inverse())
            continue
        e = seed.exchange(i, k)
        if e == 0:
            out.append(vars[i])
            continue
        s = 1 if e > 0 else -1
        tpos = tp if s > 0 else tm          # t^{[sgn(eps_ik) c_k]_+}
        tneg = tm if s > 0 else tp          # t^{[-sgn(eps_ik) c_k]_+}
        inner = CRational(tpos) + CRational(tneg) * vars[k] ** (-s)
        out.append(vars[i] * inner ** (-e))
    return out


def mutate_a_classical(vars: list[CRational], k: int, seed: Seed,
                       with_coefficients: bool = False) -> list[CRational]:
    """eq:muA / eq:Aprinmu: only the k-th variable moves."""
    fd = seed.fixed
    if k not in fd.unfrozen:
        raise ValueError(f"direction {k} is frozen")
    rank = fd.n
    zero = (0,) * rank
    plus, minus = (CRational(CPoly(rank, {zero: c.limit_q1()}))
                   for c in _cvec_parts(seed, k, with_coefficients))
    for j in range(rank):
        e = seed.exchange(k, j)
        if e > 0:
            plus = plus * vars[j] ** e
        elif e < 0:
            minus = minus * vars[j] ** (-e)
    out = list(vars)
    out[k] = vars[k].inverse() * (plus + minus)
    return out


# ---------------------------------------------------------------------------
# quantum X-mutation on factored words


class XMutationStep:
    """One quantum X-mutation mu = mu# o mu' at direction k of ``seed``,
    built once and applied to any number of words on the X-torus of the
    seed's fixed data.

    It holds the twist mu', X^v -> t^{m(v) [-c_k]_+} X^v, as the t-powers
    by multiplicity, and the conjugation mu# by Psi_{q_k}(t^{c_k} X^{e_k})
    as a :class:`DilogConjugation` (the pairing row of e_k, the binomials
    and their running products).  m(v) = -{v, e_k} d_k is the
    conjugation's pairing p_v, so :meth:`apply` twists and conjugates each
    atom in one pass.
    """

    __slots__ = ("algebra", "conjugation", "cminus", "_tpows")

    def __init__(self, seed: Seed, k: int, with_coefficients: bool):
        fd = seed.fixed
        if k not in fd.unfrozen:
            raise ValueError(f"direction {k} is frozen")
        self.algebra = x_torus(fd)
        coeff, cm = ONE, None
        if with_coefficients:
            c = seed.cvector(k)
            coeff = tpow(c)
            if any(x < 0 for x in c):
                cm = [max(-x, 0) for x in c]
        self.cminus = cm  # [-c_k]_+, None when the twist is the identity
        self._tpows: dict = {}  # m -> t^{m [-c_k]_+}
        self.conjugation = DilogConjugation(self.algebra, Fraction(1, fd.d[k]), coeff,
                                            seed.basis[k], 1)

    def twist(self, m: int, coeff: QScalar) -> QScalar:
        """mu' on the coefficient of an X^v with m(v) = m."""
        if m == 0:
            return coeff
        t = self._tpows.get(m)
        if t is None:
            t = self._tpows[m] = tpow([m * x for x in self.cminus])
        return coeff * t

    def apply(self, w: FactoredWord) -> FactoredWord:
        """mu(w) = mu#(mu'(w)), in one pass over the atoms of w."""
        return self.conjugation.apply(w, None if self.cminus is None else self.twist)


def mutate_word(w: FactoredWord, k: int, seed: Seed,
                with_coefficients: bool = True) -> FactoredWord:
    """One quantum X-mutation applied to a word: mu = mu# o mu'.  The step
    is the shared one of the graph node with the seed's fixed data and
    history, so calls at equal seeds build it once."""
    node = shared_seed(seed.fixed, seed.history)
    return _step(node, k, XMutationStep, with_coefficients).apply(w)


# ---------------------------------------------------------------------------
# quantum A-mutation (Berenstein-Zelevinsky with principal coefficients)


@memo
def a_torus(fd: FixedData) -> SkewLattice:
    """The quantum A-torus of the principal compatible pair: q-exponent of
    the defining relation is Lambda/2 (in q_BZ units)."""
    from .duality import principal_compatible_pair  # only the A side loads it

    Lambda = principal_compatible_pair(fd).Lambda
    form = tuple(tuple(Fraction(Lambda[i][j], 2) for j in range(fd.n))
                 for i in range(fd.n))
    labels = tuple(lbl.replace("X", "A") if "X" in lbl else f"A{i + 1}"
                   for i, lbl in enumerate(fd.labels))
    return SkewLattice(fd.n, form, labels)


def a_mutation_binomial(alg: SkewLattice, k: int, seed: Seed,
                        with_coefficients: bool = True) -> QTorusElement:
    """mu(A_{k;s'}) = t^{[c_k]+} A^{-f_k + sum_{eps_kj>0} eps_kj f_j}
                    + t^{[-c_k]+} A^{-f_k - sum_{eps_kj<0} eps_kj f_j}."""
    f = seed.f_basis()
    cplus, cminus = _cvec_parts(seed, k, with_coefficients)
    vplus = [-x for x in f[k]]
    vminus = list(vplus)
    for j, fj in enumerate(f):
        e = seed.exchange(k, j)
        if e > 0:
            vplus = [a + e * b for a, b in zip(vplus, fj)]
        elif e < 0:
            vminus = [a - e * b for a, b in zip(vminus, fj)]
    return QTorusElement(alg, {tuple(vplus): cplus}) \
        + QTorusElement(alg, {tuple(vminus): cminus})


class AMutationStep:
    """One quantum A-mutation at direction k of ``seed``, built once and
    applied to any number of words on the quantum A-torus of the seed's
    fixed data.

    A monomial A^m decomposes over the mutated chart's f-basis; only the
    generator f'_k = f_{k;mu_k(s)} moves, to the two-term element B of
    :func:`a_mutation_binomial`.  The step holds f'_k, the pairing row that
    reads off the coordinate a_k(m) = <d_k e'_k, m> of m along f'_k, B, and
    the powers B^j, each built the first time it is needed.  :meth:`apply`
    maps each atom in one pass.
    """

    __slots__ = ("fixed", "algebra", "binomial", "_arow", "_fkp", "_powers")

    def __init__(self, seed: Seed, k: int, with_coefficients: bool):
        fd = seed.fixed
        # the shared child node; reaching it raises on a frozen k first
        self._fkp = shared_seed(fd, seed.history + (k,)).f_basis()[k]
        self.fixed, self.algebra = fd, a_torus(fd)
        # form_den * <d_k e'_k, m> = arow . m, with e'_k = -e_{k;s}
        dk = fd.d[k]
        self._arow = [-dk * x * fd.prin[i][fd.n + i] for i, x in enumerate(seed.basis[k])]
        self.binomial = a_mutation_binomial(self.algebra, k, seed, with_coefficients)
        self._powers = [QTorusElement.one(self.algebra)]

    def _image(self, m, c):
        """c A^m = lead B^(a_k) as (lead, a_k)."""
        alg, fkp = self.algebra, self._fkp
        ak = self.fixed.integral(sum(map(mul, self._arow, m)), "A-mutation coordinate")
        if ak == 0:
            return QTorusElement(alg, {vec(m): c}), 0
        mbar = tuple(x - ak * y for x, y in zip(m, fkp))
        kappa = alg.omega_int(mbar, tuple(ak * y for y in fkp))
        return QTorusElement(alg, {mbar: c._qshift(-kappa, alg.form_den)}), ak

    def apply(self, w: FactoredWord) -> FactoredWord:
        """The mutation of w.  A polynomial atom whose monomials have
        different coordinates a_m along the mutated direction keeps the
        common power B^amin as separate atoms and expands the rest:
        sum_m lead_m B^(a_m) = (sum_m lead_m B^(a_m - amin)) B^amin."""
        alg, binom, powers = self.algebra, self.binomial, self._powers
        atoms = []
        for p, s in w.atoms:
            images = [self._image(m, c) for m, c in p.terms.items()]
            amin = min(ak for _, ak in images)
            mapped = QTorusElement(alg, {})
            for lead, ak in images:
                if ak != amin:
                    # B^j = (...((1 * B) * B)...) * B, built once each
                    while len(powers) <= ak - amin:
                        powers.append(powers[-1] * binom)
                    lead = lead * powers[ak - amin]
                mapped = mapped + lead
            piece = ((mapped, 1),) + ((binom, 1 if amin > 0 else -1),) * abs(amin)
            atoms.extend(piece if s == 1 else [(q, -e) for q, e in reversed(piece)])
        return FactoredWord(alg, w.prefix, atoms)


def mutate_a_word(w: FactoredWord, k: int, seed: Seed,
                  with_coefficients: bool = True) -> FactoredWord:
    """One quantum A-mutation applied to a word.  The step is the shared one
    of the graph node with the seed's fixed data and history, so calls at
    equal seeds build it once."""
    node = shared_seed(seed.fixed, seed.history)
    return _step(node, k, AMutationStep, with_coefficients).apply(w)


# ---------------------------------------------------------------------------
# cluster variables in the initial chart, X- and A-side


def _steps(fd: FixedData, sequence, kind, with_coefficients: bool):
    """The seeds along ``sequence`` (initial seed first) and the ``kind``
    (XMutationStep or AMutationStep) of each mutation, all shared."""
    seeds = _path(fd, sequence)
    return seeds, [_step(seed, k, kind, with_coefficients)
                   for seed, k in zip(seeds, sequence)]


def _pull_back(algebra: SkewLattice, v, steps) -> FactoredWord:
    """The monomial of exponent ``v`` pulled back through ``steps``, last
    step first: for a basis (X-side) or f-basis (A-side) vector of the seed
    that the steps reach, its cluster variable in the initial chart.  The
    word is reduced after every step (:meth:`FactoredWord.reduced`)."""
    w = FactoredWord.monomial(algebra, v)
    for step in reversed(steps):
        w = step.apply(w).reduced()
    return w


@memo
def _variables(fd: FixedData, history: tuple, kind, with_coefficients: bool):
    """The one tuple of cluster variables of the seed reached by
    ``history``, pulled back through the shared ``kind`` steps: its basis
    on the X side, its f-basis on the A side."""
    seeds, steps = _steps(fd, history, kind, with_coefficients)
    if kind is XMutationStep:
        alg, vectors = x_torus(fd), seeds[-1].basis
    else:
        alg, vectors = a_torus(fd), seeds[-1].f_basis()
    return tuple(_pull_back(alg, v, steps) for v in vectors)


def quantum_x_variables(fd: FixedData, sequence, with_coefficients: bool = True):
    """Cluster variables of the seed reached by ``sequence``, expressed in
    the initial chart as factored words.  Returns (seed, [words]): a new
    list over the words shared by every call at that seed."""
    history = tuple(sequence)
    return shared_seed(fd, history), list(
        _variables(fd, history, XMutationStep, with_coefficients))


def quantum_a_variables(fd: FixedData, sequence):
    """The A-side of :func:`quantum_x_variables`: the cluster variables of
    the seed reached by ``sequence`` on the quantum A-torus of the principal
    compatible pair, with principal coefficients.  Returns (seed, [words])."""
    history = tuple(sequence)
    return shared_seed(fd, history), list(_variables(fd, history, AMutationStep, True))


# ---------------------------------------------------------------------------
# mutation tables


def _classical_table(fd: FixedData, sequence, mutate):
    """Rows of (seed, [CRational variables in the initial chart]), one
    ``mutate(variables, k, seed)`` per step."""
    seeds = _path(fd, sequence)
    variables = [CRational.variable(fd.n, i) for i in range(fd.n)]
    rows = [(seeds[0], variables)]
    for seed, k, nxt in zip(seeds, sequence, seeds[1:]):
        variables = mutate(variables, k, seed)
        rows.append((nxt, variables))
    return rows


def classical_x_table(fd: FixedData, sequence, with_coefficients: bool):
    return _classical_table(fd, sequence, mutate_x_family if with_coefficients
                            else mutate_x_classical)


def classical_a_table(fd: FixedData, sequence, with_coefficients: bool):
    return _classical_table(fd, sequence, partial(
        mutate_a_classical, with_coefficients=with_coefficients))


def quantum_x_table(fd: FixedData, sequence, with_coefficients: bool):
    """Rows of (seed, [X-variable words in the initial chart]), one per
    prefix of ``sequence``; the rows share the seeds and steps."""
    sequence = tuple(sequence)
    return [quantum_x_variables(fd, sequence[:i], with_coefficients)
            for i in range(len(sequence) + 1)]


def quantum_a_table(fd: FixedData, sequence):
    """Rows of (seed, [A-variable words in the initial chart]) of
    :func:`quantum_a_variables`, one per prefix of ``sequence``; the rows
    share the seeds and steps."""
    sequence = tuple(sequence)
    return [quantum_a_variables(fd, sequence[:i]) for i in range(len(sequence) + 1)]


def word_to_classical(w: FactoredWord) -> CRational:
    """Exact q=1 specialization of a word into the commutative torus.

    Coefficients may pick up t-monomial denominators mid-word; each is split
    into an exact (numerator, denominator) pair of t-polynomials."""
    rank = w.algebra.rank
    zero = (0,) * rank
    out = _scalar_to_crational(w.prefix, rank)
    for p, s in w.atoms:
        piece = CRational(CPoly(rank, {}))
        for n, c in p.terms.items():
            cn, cd = c.limit_q1_pair()
            piece = piece + CRational(CPoly(rank, {vec(n): cn}),
                                      [CPoly(rank, {zero: cd})])
        out = out * (piece if s == 1 else piece.inverse())
    return out


def _scalar_to_crational(scalar: QScalar, rank: int) -> CRational:
    zero = (0,) * rank
    cn, cd = scalar.limit_q1_pair()
    return CRational(CPoly(rank, {zero: cn}), [CPoly(rank, {zero: cd})])


# mode -> its table, a function of (fixed data, sequence)
TABLES = {
    "x-classical": partial(classical_x_table, with_coefficients=False),
    "x-family": partial(classical_x_table, with_coefficients=True),
    "x-quantum": partial(quantum_x_table, with_coefficients=False),
    "x-quantum-coeff": partial(quantum_x_table, with_coefficients=True),
    "a-classical": partial(classical_a_table, with_coefficients=False),
    "a-prin": partial(classical_a_table, with_coefficients=True),
    "a-quantum": quantum_a_table,
}
MODES = tuple(TABLES)
# mode -> its last row alone: each quantum row is its own pull-back, while
# a classical row is built from the row before it
_LAST_ROWS = {
    "x-quantum": partial(quantum_x_variables, with_coefficients=False),
    "x-quantum-coeff": partial(quantum_x_variables, with_coefficients=True),
    "a-quantum": quantum_a_variables,
}


def _check_mode(fd: FixedData, mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
    # all but these modes print the principal coefficients t_i
    if mode not in ("x-classical", "x-quantum", "a-classical") and fd.coefficients != "principal":
        raise ValueError(f"mode {mode} requires principal coefficients")


def mutation_table(fd: FixedData, sequence, mode: str):
    """The rows (seed, variables) of the table of ``mode``, unrendered."""
    _check_mode(fd, mode)
    return TABLES[mode](fd, sequence)


def mutation_row(fd: FixedData, sequence, mode: str):
    """The last row (seed, variables) of the table of ``mode``, unrendered;
    a quantum mode pulls back that row alone."""
    _check_mode(fd, mode)
    last = _LAST_ROWS.get(mode)
    return last(fd, sequence) if last else TABLES[mode](fd, sequence)[-1]


def render_row(fd: FixedData, step: int, seed: Seed, variables) -> dict:
    """One table row, its variables rendered deterministically."""
    return {
        "step": step,
        "mutation": seed.history[-1] + 1 if seed.history else None,
        "epsilon": [[int(x) if x.denominator == 1 else str(x) for x in r]
                    for r in seed.epsilon()],
        "cvectors": [list(c) for c in seed.cvectors()],
        "variables": [v.render(fd.labels) if isinstance(v, CRational) else v.render()
                      for v in variables],
    }


def apply_mutation_sequence(fd: FixedData, sequence, mode: str):
    """Table rows for any mode; variables rendered deterministically."""
    return [render_row(fd, step, seed, variables)
            for step, (seed, variables) in enumerate(mutation_table(fd, sequence, mode))]
