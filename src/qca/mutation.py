"""Mutation of cluster variables: classical and quantum, X- and A-side,
with and without principal coefficients.

Quantum X-mutation acts on factored words through the decomposition
mu = mu# o mu': mu' is the coefficient twist X^v -> t^{-{v,e_k}d_k[-c_k]+} X^v
(the exponent is unchanged because X^v is Weyl-ordered), and mu# is
conjugation by the coefficient dilogarithm, evaluated with the finite
factor-product formulas.  One :class:`XMutationStep` per mutation holds
both parts (the twist's t-powers, the binomials and their running
products), built once and applied to every word; iterating the steps
backwards along a seed history expresses any chart's cluster variables in
the initial chart, and a mutation table shares one step per mutation
among all its rows.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .commutative import CPoly, CRational
from .qtorus import QTorusElement, SkewLattice, vec
from .scalars import ONE, QScalar, tpow
from .seeds import FixedData, Seed
from .words import DilogConjugation, FactoredWord

X_MODES = ("x-classical", "x-family", "x-quantum", "x-quantum-coeff")
A_MODES = ("a-classical", "a-prin", "a-quantum")
MODES = X_MODES + A_MODES


def x_torus(fd: FixedData) -> SkewLattice:
    """The quantum X-torus: the form {.,.} itself is the q-exponent."""
    return SkewLattice(fd.n, fd.skew, fd.labels)


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def _cvec_parts(seed: Seed, k: int, with_coefficients: bool):
    if not with_coefficients:
        return None, ONE, ONE
    c = seed.cvector(k)
    cplus = tpow([max(x, 0) for x in c])
    cminus = tpow([max(-x, 0) for x in c])
    return c, cplus, cminus


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
    eps = seed.epsilon()
    rank = fd.n
    _, cplus, cminus = _cvec_parts(seed, k, with_coefficients)
    tp = _scalar_to_cpoly(cplus, rank)
    tm = _scalar_to_cpoly(cminus, rank)
    out = []
    for i in range(rank):
        if i == k:
            out.append(vars[k].inverse())
            continue
        e = int(eps[i][k])
        if e == 0:
            out.append(vars[i])
            continue
        s = _sgn(e)
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
    eps = seed.epsilon()
    rank = fd.n
    _, cplus, cminus = _cvec_parts(seed, k, with_coefficients)
    plus = CRational(_scalar_to_cpoly(cplus, rank))
    minus = CRational(_scalar_to_cpoly(cminus, rank))
    for j in range(rank):
        e = int(eps[k][j])
        if e > 0:
            plus = plus * vars[j] ** e
        elif e < 0:
            minus = minus * vars[j] ** (-e)
    out = list(vars)
    out[k] = vars[k].inverse() * (plus + minus)
    return out


def _scalar_to_cpoly(s: QScalar, rank: int) -> CPoly:
    """A q-free polynomial scalar as a constant CPoly (t-monomials only)."""
    if not s.is_polynomial():
        raise ValueError(f"scalar {s.render()} is not polynomial")
    zero = (0,) * rank
    acc = CPoly(rank, {})
    for e, c in s.num.items():
        if e != 0:
            raise ValueError("classical mutation met a q-power")
        acc = acc + CPoly(rank, {zero: c})
    return acc


# ---------------------------------------------------------------------------
# quantum X-mutation on factored words


class XMutationStep:
    """One quantum X-mutation mu = mu# o mu' at direction k of ``seed``,
    built once and applied to any number of words on ``algebra``, the
    X-torus of the seed's fixed data.

    It holds the twist mu', X^v -> t^{m(v) [-c_k]_+} X^v with
    m(v) = -{v, e_k} d_k, as the row of m and the t-powers by multiplicity,
    and the conjugation mu# by Psi_{q_k}(t^{c_k} X^{e_k}) as a
    :class:`DilogConjugation` (the pairing row of e_k, the binomials and
    their running products).  :meth:`apply` twists and conjugates each atom
    in one pass.
    """

    __slots__ = ("seed", "algebra", "conjugation", "cminus", "_mrow", "_tpows")

    def __init__(self, seed: Seed, k: int, with_coefficients: bool,
                 algebra: SkewLattice):
        fd = seed.fixed
        if k not in fd.unfrozen:
            raise ValueError(f"direction {k} is frozen")
        self.seed, self.algebra = seed, algebra
        ek, dk = seed.basis[k], fd.d[k]
        coeff, cm = ONE, None
        if with_coefficients:
            c = seed.cvector(k)
            coeff = tpow(c)
            if any(x < 0 for x in c):
                cm = [max(-x, 0) for x in c]
        self.cminus = cm  # [-c_k]_+, None when the twist is the identity
        # form_den * {v, e_k} d_k = mrow . v
        self._mrow = [dk * sum(map(mul, row, ek)) for row in fd.prin[:fd.n]]
        self._tpows: dict = {}  # m -> t^{m [-c_k]_+}
        self.conjugation = DilogConjugation(algebra, Fraction(1, dk), coeff, ek, 1)

    def twist(self, v, coeff: QScalar) -> QScalar:
        """mu' on the coefficient of X^v."""
        fd = self.seed.fixed
        m = -fd.integral(sum(map(mul, self._mrow, v)), "coefficient twist exponent")
        if m == 0:
            return coeff
        t = self._tpows.get(m)
        if t is None:
            t = self._tpows[m] = tpow([m * x for x in self.cminus])
        return coeff * t

    def apply(self, w: FactoredWord) -> FactoredWord:
        """mu(w) = mu#(mu'(w)), in one pass over the atoms of w."""
        return self.conjugation.apply(w, None if self.cminus is None else self.twist)


def mu_prime_word(w: FactoredWord, k: int, seed: Seed,
                  with_coefficients: bool = True) -> FactoredWord:
    """The monomial change-of-coordinates part: a pure coefficient twist in
    Weyl coordinates, X^v -> t^{-{v,e_k}d_k [-c_k]_+} X^v."""
    step = XMutationStep(seed, k, with_coefficients, w.algebra)
    if step.cminus is None:
        return w
    return FactoredWord(w.algebra, w.prefix,
                        tuple((p.map_terms(step.twist), s) for p, s in w.atoms))


def mu_sharp_word(w: FactoredWord, k: int, seed: Seed,
                  with_coefficients: bool = True) -> FactoredWord:
    """Conjugation by the coefficient dilogarithm Psi_{q_k}(t^{c_k} X_k)."""
    return XMutationStep(seed, k, with_coefficients, w.algebra).conjugation.apply(w)


def mutate_word(w: FactoredWord, k: int, seed: Seed,
                with_coefficients: bool = True) -> FactoredWord:
    """One quantum X-mutation applied to a word: mu = mu# o mu'.  Each call
    builds its own step; a caller mutating many words builds one
    :class:`XMutationStep` and applies it to each."""
    return XMutationStep(seed, k, with_coefficients, w.algebra).apply(w)


def _x_steps(fd: FixedData, sequence, with_coefficients: bool):
    """The X-torus, the seeds along ``sequence`` (initial seed first) and
    one step per mutation."""
    alg = x_torus(fd)
    seeds = [Seed(fd)]
    for k in sequence:
        seeds.append(seeds[-1].mutate(k))
    return alg, seeds, [XMutationStep(s, k, with_coefficients, alg)
                        for s, k in zip(seeds, sequence)]


def _x_words(alg: SkewLattice, seed: Seed, steps) -> list[FactoredWord]:
    """The cluster variables of ``seed`` in the initial chart: each basis
    monomial pulled back through ``steps``, last step first."""
    out = []
    for v in seed.basis:
        w = FactoredWord.monomial(alg, v)
        for step in reversed(steps):
            w = step.apply(w)
        out.append(w.tidy())
    return out


def quantum_x_variables(fd: FixedData, sequence, with_coefficients: bool = True):
    """Cluster variables of the seed reached by ``sequence``, expressed in
    the initial chart as factored words.  Returns (seed, [words])."""
    alg, seeds, steps = _x_steps(fd, sequence, with_coefficients)
    return seeds[-1], _x_words(alg, seeds[-1], steps)


# ---------------------------------------------------------------------------
# quantum A-mutation (Berenstein-Zelevinsky with principal coefficients)


def a_torus(fd: FixedData, Lambda) -> SkewLattice:
    """The quantum A-torus: q-exponent of the defining relation is Lambda/2
    (in q_BZ units)."""
    form = tuple(tuple(Fraction(Lambda[i][j], 2) for j in range(fd.n))
                 for i in range(fd.n))
    labels = tuple(lbl.replace("X", "A") if "X" in lbl else f"A{i + 1}"
                   for i, lbl in enumerate(fd.labels))
    return SkewLattice(fd.n, form, labels)


def a_mutation_binomial(alg: SkewLattice, k: int, seed: Seed,
                        with_coefficients: bool = True) -> QTorusElement:
    """mu(A_{k;s'}) = t^{[c_k]+} A^{-f_k + sum_{eps_kj>0} eps_kj f_j}
                    + t^{[-c_k]+} A^{-f_k - sum_{eps_kj<0} eps_kj f_j}."""
    fd = seed.fixed
    eps = seed.epsilon()
    f = seed.f_basis()
    _, cplus, cminus = _cvec_parts(seed, k, with_coefficients)
    vplus = list(int(-x) for x in f[k])
    vminus = list(vplus)
    for j in range(fd.n):
        e = int(eps[k][j])
        if e > 0:
            vplus = [a + e * b for a, b in zip(vplus, f[j])]
        elif e < 0:
            vminus = [a - e * b for a, b in zip(vminus, f[j])]
    return QTorusElement(alg, {tuple(vplus): cplus}) \
        + QTorusElement(alg, {tuple(vminus): cminus})


def mutate_a_word(w: FactoredWord, k: int, seed: Seed,
                  with_coefficients: bool = True) -> FactoredWord:
    """BZ quantum A-mutation applied to a word.

    Monomials decompose over the mutated chart's f-basis; the only moving
    generator contributes powers of the two-term element B.  A polynomial
    atom whose monomials have different coordinates a_m along the mutated
    direction keeps the common power B^amin as separate atoms and expands
    the rest.
    """
    fd = seed.fixed
    if k not in fd.unfrozen:
        raise ValueError(f"direction {k} is frozen")
    alg = w.algebra
    new_seed = seed.mutate(k)
    ekp = new_seed.basis[k]    # e_{k;s'} = -e_{k;s}
    fkp = new_seed.f_basis()[k]
    dk = fd.d[k]
    binom = a_mutation_binomial(alg, k, seed, with_coefficients)

    def mono_image(m, c):
        """Image of c A^m as (element, list of binomial powers)."""
        # <d_k e_{k;s'}, m>, the coordinate of m along the mutated direction
        ak = fd.integral(fd.pair_int(ekp, m) * dk, "A-mutation coordinate")
        if ak == 0:
            return QTorusElement(alg, {vec(m): c}), 0
        mbar = tuple(x - ak * y for x, y in zip(m, fkp))
        kappa = alg.omega_int(mbar, tuple(ak * y for y in fkp))
        lead = QTorusElement(alg, {mbar: c._qshift(-kappa, alg.form_den)})
        return lead, ak

    # B^j = (...((1 * B) * B)...) * B, built once each, as B ** j builds it
    powers = [QTorusElement.one(alg)]
    out_atoms = []
    prefix = w.prefix
    for p, s in w.atoms:
        # sum_m lead_m B^(a_m) = (sum_m lead_m B^(a_m - amin)) B^amin
        images = [mono_image(m, c) for m, c in p.terms.items()]
        amin = min(ak for _, ak in images)
        mapped = QTorusElement(alg, {})
        for lead, ak in images:
            j = ak - amin
            if j:
                while len(powers) <= j:
                    powers.append(powers[-1] * binom)
                lead = lead * powers[j]
            mapped = mapped + lead
        piece = FactoredWord.from_element(mapped) * _power_word(binom, amin)
        if s == -1:
            piece = piece.inverse()
        prefix = prefix * piece.prefix
        out_atoms.extend(piece.atoms)
    return FactoredWord(alg, prefix, out_atoms)


def _power_word(elem: QTorusElement, k: int) -> FactoredWord:
    if k == 0:
        return FactoredWord.one(elem.algebra)
    sign = 1 if k > 0 else -1
    return FactoredWord(elem.algebra, ONE, ((elem, sign),) * abs(k))


# ---------------------------------------------------------------------------
# mutation tables


def classical_x_table(fd: FixedData, sequence, with_coefficients: bool):
    """Rows of (seed, [CRational variables in the initial chart])."""
    rank = fd.n
    seed = Seed(fd)
    vars_now = [CRational.variable(rank, i) for i in range(rank)]
    rows = [(seed, list(vars_now))]
    mut = mutate_x_family if with_coefficients else mutate_x_classical
    for k in sequence:
        vars_now = mut(vars_now, k, seed)
        seed = seed.mutate(k)
        rows.append((seed, list(vars_now)))
    return rows


def classical_a_table(fd: FixedData, sequence, with_coefficients: bool):
    rank = fd.n
    seed = Seed(fd)
    vars_now = [CRational.variable(rank, i) for i in range(rank)]
    rows = [(seed, list(vars_now))]
    for k in sequence:
        vars_now = mutate_a_classical(vars_now, k, seed, with_coefficients)
        seed = seed.mutate(k)
        rows.append((seed, list(vars_now)))
    return rows


def quantum_x_table(fd: FixedData, sequence, with_coefficients: bool):
    """Rows of (seed, [X-variable words in the initial chart]); the seeds
    and steps are built once and shared by every row."""
    alg, seeds, steps = _x_steps(fd, sequence, with_coefficients)
    return [(seed, _x_words(alg, seed, steps[:i])) for i, seed in enumerate(seeds)]


def quantum_a_table(fd: FixedData, sequence):
    """Rows of (seed, [A-variable words in the initial chart]) on the
    quantum A-torus of the principal compatible pair."""
    from .duality import principal_compatible_pair

    alg = a_torus(fd, principal_compatible_pair(fd).Lambda)
    seeds = [Seed(fd)]
    for k in sequence:
        seeds.append(seeds[-1].mutate(k))
    rows = []
    for step, s in enumerate(seeds):
        out = []
        for f in s.f_basis():
            w = FactoredWord.monomial(alg, f)
            for j in range(step - 1, -1, -1):
                w = mutate_a_word(w, sequence[j], seeds[j], True)
            out.append(w)
        rows.append((s, out))
    return rows


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


def apply_mutation_sequence(fd: FixedData, sequence, mode: str):
    """Table rows for any mode; variables rendered deterministically."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
    if mode in ("x-family", "a-prin") and fd.coefficients != "principal":
        raise ValueError(f"mode {mode} requires principal coefficients")
    rows = []
    if mode == "x-classical":
        data = classical_x_table(fd, sequence, with_coefficients=False)
    elif mode == "x-family":
        data = classical_x_table(fd, sequence, with_coefficients=True)
    elif mode == "a-classical":
        data = classical_a_table(fd, sequence, with_coefficients=False)
    elif mode == "a-prin":
        data = classical_a_table(fd, sequence, with_coefficients=True)
    elif mode in ("x-quantum", "x-quantum-coeff"):
        data = quantum_x_table(fd, sequence, mode == "x-quantum-coeff")
    else:  # a-quantum
        data = quantum_a_table(fd, sequence)
    for step, (seed, variables) in enumerate(data):
        rows.append({
            "step": step,
            "mutation": seed.history[-1] + 1 if seed.history else None,
            "epsilon": [[int(x) if x.denominator == 1 else str(x) for x in r]
                        for r in seed.epsilon()],
            "cvectors": [list(c) for c in seed.cvectors()],
            "variables": [
                v.render(fd.labels) if isinstance(v, CRational) else v.render()
                for v in variables
            ],
        })
    return rows
