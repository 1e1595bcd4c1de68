"""The per-word quantum X-mutation that ``XMutationStep`` and
``DilogConjugation`` replace, kept as an oracle for them.

Each conjugation call builds its binomials afresh (once per call), splits
every atom P as X^{v0} * (X^{-v0} P) with full torus products, and
multiplies each shifted term by its binomials one product at a time; each
mutation of each word twists and conjugates in two passes, and the table
re-mutates its seeds for every row.  :func:`words_equal` is equality as it
was decided before words were reduced.  With ``reduce`` set, each word is
reduced after every step, as the package's pull-back does, and the outputs
must agree with the package's atom by atom; without it, each word is only
tidied at the end, as the package printed it before words were reduced,
and the outputs must be equal to the package's as elements.
"""

from fractions import Fraction
from operator import mul

from qca.mutation import x_torus
from qca.qtorus import QTorusElement, vec, vec_add, vec_neg
from qca.scalars import ONE, tpow
from qca.seeds import Seed
from qca.words import FactoredWord, Series, choose_grading, dilog_binomial, dilog_pairings


def form_int(fd, a, b) -> int:
    """form_den * {a, b}_prin for a, b in N + M* (e- then f-coordinates),
    read off the fixed data's integer principal form; a vector of length n
    lies in N."""
    return sum(x * sum(map(mul, fd.prin[i], b)) for i, x in enumerate(a) if x)


def conjugate_by_dilog(word, h, coeff, direction, action=1):
    """Ad^{action} of Psi_{q^h}(coeff * X^direction) applied to ``word``."""
    alg = word.algebra
    w = vec(direction)
    made = {}  # e -> 1 + Q^e y, each built once per call

    def binomial(e):
        b = made.get(e)
        if b is None:
            b = made[e] = dilog_binomial(alg, h, coeff, w, e)
        return b

    out_atoms = []
    prefix = word.prefix
    for p, s in word.atoms:
        piece = conjugate_element(alg, p, h, w, action, binomial)
        if s == -1:
            piece = piece.inverse()
        prefix = prefix * piece.prefix
        out_atoms.extend(piece.atoms)
    return FactoredWord(alg, prefix, out_atoms)


def factors(binomial, exp_sign, count):
    return [binomial(exp_sign * (2 * ell - 1)) for ell in range(1, count + 1)]


def conjugate_element(alg, p, h, w, action, binomial):
    pairings = dilog_pairings(alg, h, w, p.terms)
    if action == 1:
        v0 = min(pairings, key=lambda v: (pairings[v], v))
    else:
        v0 = max(pairings, key=lambda v: (pairings[v], tuple(-x for x in v)))
    p0 = pairings[v0]

    s0 = 1 if p0 > 0 else -1
    head = FactoredWord(alg, ONE, [(QTorusElement.monomial(alg, v0), 1)] + [
        (b, action * s0) for b in factors(binomial, s0, abs(p0))])

    shifted = QTorusElement.monomial(alg, vec_neg(v0)) * p
    if shifted.is_monomial():
        n, c = shifted.monomial_parts()
        if n == alg.zero():
            return head.scale(c)
    tail = QTorusElement(alg, {})
    for v, pv in dilog_pairings(alg, h, w, shifted.terms).items():
        if action * pv < 0:
            raise ArithmeticError(f"exponent {v} has pairing {pv} against action {action}")
        piece = QTorusElement.monomial(alg, v, shifted.terms[v])
        for b in factors(binomial, 1 if pv > 0 else -1, abs(pv)):
            piece = piece * b
        tail = tail + piece
    return head * FactoredWord.from_element(tail)


def mu_prime_word(w, k, seed, with_coefficients=True):
    fd = seed.fixed
    if k not in fd.unfrozen:
        raise ValueError(f"direction {k} is frozen")
    if not with_coefficients:
        return w
    cm = [max(-x, 0) for x in seed.cvector(k)]
    if not any(cm):
        return w
    ek = seed.basis[k]
    dk = fd.d[k]

    def twist(v, coeff):
        m = -fd.integral(form_int(fd, v, ek) * dk, "coefficient twist exponent")
        if m == 0:
            return coeff
        return coeff * tpow([m * x for x in cm])

    return FactoredWord(w.algebra, w.prefix, tuple(
        (p._like({n: twist(n, c) for n, c in p.terms.items()}), s) for p, s in w.atoms))


def mu_sharp_word(w, k, seed, with_coefficients=True):
    fd = seed.fixed
    if k not in fd.unfrozen:
        raise ValueError(f"direction {k} is frozen")
    coeff = tpow(seed.cvector(k)) if with_coefficients else ONE
    return conjugate_by_dilog(w, Fraction(1, fd.d[k]), coeff, seed.basis[k], action=1)


def mutate_word(w, k, seed, with_coefficients=True):
    return mu_sharp_word(mu_prime_word(w, k, seed, with_coefficients),
                         k, seed, with_coefficients)


def tidy(w):
    """Merge adjacent single-term atoms into one monomial per run and fold
    their scalars into the prefix; the value is unchanged."""
    alg = w.algebra
    prefix = w.prefix
    atoms = []
    pending = None  # accumulated monomial exponent

    def flush():
        nonlocal pending
        if pending is not None and pending != alg.zero():
            atoms.append((QTorusElement.monomial(alg, pending), 1))
        pending = None

    for p, s in w.atoms:
        if len(p.terms) == 1:
            n, c = p.monomial_parts()
            if s == -1:
                n, c = vec_neg(n), c.inverse()
            if pending is None:
                pending = n
                prefix = prefix * c
            else:
                prefix = (prefix * c)._qshift(alg.omega_int(pending, n), alg.form_den)
                pending = vec_add(pending, n)
        else:
            flush()
            atoms.append((p, s))
    flush()
    return FactoredWord(alg, prefix, atoms)


def quantum_x_variables(fd, sequence, with_coefficients=True, reduce=False):
    alg = x_torus(fd)
    seeds = [Seed(fd)]
    for k in sequence:
        seeds.append(seeds[-1].mutate(k))
    final = seeds[-1]
    out = []
    for i in range(fd.n):
        w = FactoredWord.monomial(alg, final.basis[i])
        for j in range(len(sequence) - 1, -1, -1):
            w = mutate_word(w, sequence[j], seeds[j], with_coefficients)
            if reduce:
                w = w.reduced()
        out.append(w if reduce else tidy(w))
    return final, out


def quantum_x_table(fd, sequence, with_coefficients, reduce=False):
    return [quantum_x_variables(fd, sequence[:step], with_coefficients, reduce)
            for step in range(len(sequence) + 1)]


def words_equal(w1, w2, order):
    """Equality as it was decided before words were reduced: expand
    w1 * w2^{-1} under the chosen grading and compare with 1."""
    prod = w1 * w2.inverse()
    dvec = choose_grading([prod], w1.algebra.rank)
    return prod.expand(dvec, order).truncate(order) == Series.one(w1.algebra, dvec, order)
