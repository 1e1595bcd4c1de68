"""Skew-field elements as ordered factor words, and truncated expansions.

A :class:`FactoredWord` is a central scalar prefix times an ordered product
of atoms P^{+1} or P^{-1}, where each P is a finite quantum-torus element.
Words are closed under multiplication, inversion, the *-involution, and
conjugation by quantum dilogarithms (the finite-product formulas), which is
everything quantum mutation needs.  A :class:`DilogConjugation` is one such
conjugation, built once: it keeps the binomials 1 + Q^e y and their running
products and applies them to any number of words in one pass over their
atoms.

:meth:`FactoredWord.reduced` rewrites a word by identities of the skew
field: monomials gathered to the right, polynomial atoms made monic,
inverse pairs cancelled.  Equality of words is decided exactly when the
reduction of w1 * w2^{-1} has no atom left, and otherwise by expanding it
as a truncated series in a graded completion and comparing with 1.  The
expansion (:meth:`FactoredWord.expand`) runs in the flat Laurent ring of
scalars.py, in qca.expansion, and converts each surviving term to a QScalar
once; for
equal words only X^0 survives.  Inverted atoms are divided out exactly by
the bucket sweep of :meth:`Series.over` rather than inverted, so the
grading is any integer functional under which every inverted atom has a
unique lowest term.  :class:`Series`, the truncated torus element with
QScalar coefficients, keeps its own product and division; the engine's
products (word expansion, scattering crossings) run flat, and these serve
the tests as independent oracles.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, sub

from .qtorus import QTorusElement, SkewLattice, add_terms, skew_product, vec, vec_add, vec_neg
from .scalars import ONE, QScalar


class ExpansionError(ArithmeticError):
    """An atom cannot be inverted in the chosen completion: a failed
    computation, not bad input."""


def degree(dvec, n) -> int:
    return sum(map(mul, dvec, n))


def _within(terms: dict, dvec, cutoff) -> dict:
    return {n: c for n, c in terms.items() if degree(dvec, n) <= cutoff}


class Series(QTorusElement):
    """Truncated element of a graded completion of the quantum torus: a
    torus element with a grading ``dvec`` and a ``cutoff``.

    The series is exact on all degrees <= ``cutoff`` and holds no term above
    it (cutoff None means the element is exact).  Sums and products share
    the torus element's code; equality ignores the cutoff.
    """

    __slots__ = ("dvec", "cutoff")

    def __init__(self, algebra: SkewLattice, dvec, cutoff, terms):
        self.algebra = algebra
        self.dvec = tuple(dvec)
        self.cutoff = cutoff
        if cutoff is not None:
            terms = _within(terms, self.dvec, cutoff)
        self.terms = {n: c for n, c in terms.items() if not c.is_zero()}

    def _like(self, terms: dict) -> "Series":
        return self._cut(terms, self.cutoff)

    def _cut(self, terms: dict, cutoff) -> "Series":
        """A series on this one's grading holding ``terms`` as they are."""
        out = Series.__new__(Series)
        out.algebra, out.dvec, out.cutoff, out.terms = self.algebra, self.dvec, cutoff, terms
        return out

    @staticmethod
    def one(algebra: SkewLattice, dvec, cutoff=None) -> "Series":
        return Series(algebra, dvec, cutoff, {algebra.zero(): ONE})

    def truncate(self, cutoff) -> "Series":
        if self.cutoff is not None and self.cutoff <= cutoff:
            return self
        return self._cut(_within(self.terms, self.dvec, cutoff), cutoff)

    def __add__(self, other: "Series") -> "Series":
        a, b, cut = self.terms, other.terms, self.cutoff
        if cut != other.cutoff:  # drop the terms beyond the lower cutoff
            cut = _min_cut(cut, other.cutoff)
            if cut == other.cutoff:
                a = _within(a, self.dvec, cut)
            else:
                b = _within(b, self.dvec, cut)
        return self._cut(add_terms(dict(a), b.items()), cut)

    def __mul__(self, other: "Series") -> "Series":
        dvec = self.dvec
        ldeg = [sum(map(mul, dvec, n)) for n in self.terms]
        rdeg = [sum(map(mul, dvec, n)) for n in other.terms]
        m1 = min(ldeg, default=None)
        m2 = min(rdeg, default=None)
        if (m1 is None and self.cutoff is None) or (m2 is None and other.cutoff is None):
            return self._cut({}, None)  # exact zero factor
        cut = product_cut(m1, self.cutoff, m2, other.cutoff)
        return self._cut(skew_product(self.algebra, self.terms, other.terms,
                                      dvec, cut, ldeg, rdeg), cut)

    def __pow__(self, k):  # the torus power would drop the cutoff
        return NotImplemented

    def over(self, p_terms: dict, rel_order: int, what="series") -> "Series":
        """self * P^{-1} with P = sum of ``p_terms``, by exact right division.

        The result has the cutoff of the product self * P^{-1} with P^{-1}
        exact to relative order ``rel_order``, but P^{-1} is never formed.
        P needs a unique lowest-degree term L (the invertible leading
        monomial of the completion).  The residual self - Q * P is swept in
        degree buckets, lowest first: each residual term r X^m gives the
        quotient term r X^m * L^{-1}, whose product with P - L (all of
        higher degree) is subtracted back.  ``what`` names P in an
        ExpansionError: a string, or an element rendered only then."""
        if not p_terms:
            raise ExpansionError(f"cannot invert zero {_label(what)}")
        dvec = self.dvec
        pdeg = {n: sum(map(mul, dvec, n)) for n in p_terms}
        mdeg = min(pdeg.values())
        anchors = [n for n, d in pdeg.items() if d == mdeg]
        if len(anchors) > 1:
            raise ExpansionError(
                f"no unique leading monomial in {_label(what)}: "
                f"degree-{mdeg} exponents {sorted(anchors)}")
        sdeg = [sum(map(mul, dvec, n)) for n in self.terms]
        m1 = min(sdeg, default=None)
        if m1 is None and self.cutoff is None:
            return self._cut({}, None)  # exact zero dividend
        # P^{-1} has cutoff rel_order - mdeg and, unless that cuts all of
        # it, lowest degree -mdeg
        cut = product_cut(m1, self.cutoff, -mdeg if rel_order >= 0 else None,
                           rel_order - mdeg)
        top = cut + mdeg  # residual terms above it give quotients above cut
        alg = self.algebra
        den = alg.form_den
        n0 = anchors[0]
        linv = p_terms[n0].inverse()
        lrow = alg.row_pairing(n0)  # X^m L^{-1} carries q^{omega(n0, m)}
        neg_n0 = vec_neg(n0)
        # -(P - L) by degree above L; all those degrees are positive
        rest = sorted(((k, -c, pdeg[k] - mdeg) for k, c in p_terms.items() if k != n0),
                      key=lambda t: t[2])
        buckets: dict = {}
        for (m, r), d in zip(self.terms.items(), sdeg):
            if d <= top:
                buckets.setdefault(d, {})[m] = r
        out = {}
        while buckets:
            d = min(buckets)
            room = top - d
            for m, r in buckets.pop(d).items():
                c = r * linv
                w = sum(map(mul, lrow, m))
                if w:
                    c = c._qshift(w, den)
                mq = tuple(map(add, m, neg_n0))
                out[mq] = c
                row = alg.row_pairing(mq)
                for k, ck, dk in rest:
                    if dk > room:
                        break
                    t = c * ck
                    w = sum(map(mul, row, k))
                    if w:
                        t = t._qshift(w, den)
                    bucket = buckets.get(d + dk)
                    if bucket is None:
                        bucket = buckets[d + dk] = {}
                    key = tuple(map(add, mq, k))
                    if key in bucket:
                        t = bucket[key] + t
                        if t.is_zero():
                            del bucket[key]
                            continue
                    bucket[key] = t
        return self._cut(out, cut)

    def inverse(self, rel_order: int, what="series") -> "Series":
        """P^{-1} exact to relative order ``rel_order``: one divided by the
        terms of this series (its cutoff is not used); see :meth:`over`."""
        return Series.one(self.algebra, self.dvec).over(self.terms, rel_order, what)

    def coefficient(self, n) -> QScalar:
        return self.terms.get(vec(n), QScalar.integer(0))

    def __repr__(self):
        return f"Series({self.render()}; cutoff={self.cutoff})"


def _label(what) -> str:
    return what if isinstance(what, str) else what.render()


def product_cut(m1, c1, m2, c2):
    """The cutoff of a product of two series with lowest degrees m1, m2
    (None when a series holds no terms) and cutoffs c1, c2: the lowest
    degree an unknown term can reach.  Unknown terms come from error1 *
    known2, known1 * error2 and error1 * error2."""
    cands = []
    if c1 is not None:
        if m2 is not None:
            cands.append(c1 + m2)
        if c2 is not None:
            cands.append(c1 + c2)
    if c2 is not None and m1 is not None:
        cands.append(c2 + m1)
    return min(cands) if cands else None


def _min_cut(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class FactoredWord:
    """prefix * product of atoms (P, sign) with P a torus element, sign ±1."""

    __slots__ = ("algebra", "prefix", "atoms")

    def __init__(self, algebra: SkewLattice, prefix: QScalar = ONE, atoms=()):
        self.algebra = algebra
        self.prefix = prefix
        self.atoms = tuple(atoms)
        for p, s in self.atoms:
            if s not in (1, -1):
                raise ValueError("atom powers must be ±1")
            if p.is_zero():
                raise ValueError("zero atom")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def one(algebra: SkewLattice) -> "FactoredWord":
        return FactoredWord(algebra)

    @staticmethod
    def monomial(algebra: SkewLattice, n, coeff: QScalar = ONE) -> "FactoredWord":
        return FactoredWord(algebra, coeff,
                            ((QTorusElement.monomial(algebra, n), 1),))

    @staticmethod
    def from_element(elem: QTorusElement, power: int = 1) -> "FactoredWord":
        return FactoredWord(elem.algebra, ONE, ((elem, power),))

    # -- algebra ---------------------------------------------------------------
    def __mul__(self, other: "FactoredWord") -> "FactoredWord":
        if isinstance(other, (QScalar, int)):
            return self.scale(other)
        return FactoredWord(self.algebra, self.prefix * other.prefix,
                            self.atoms + other.atoms)

    def __rmul__(self, other):
        if isinstance(other, (QScalar, int)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "FactoredWord":
        if isinstance(c, int):
            c = QScalar.integer(c)
        return FactoredWord(self.algebra, self.prefix * c, self.atoms)

    def inverse(self) -> "FactoredWord":
        return FactoredWord(self.algebra, self.prefix.inverse(),
                            tuple((p, -s) for p, s in reversed(self.atoms)))

    def star(self) -> "FactoredWord":
        """*-involution: antiautomorphism, so atoms reverse."""
        return FactoredWord(self.algebra, self.prefix.bar(),
                            tuple((p.star(), s) for p, s in reversed(self.atoms)))

    def transport(self, algebra: SkewLattice, expmap, scalarmap) -> "FactoredWord":
        """Monomial-level algebra map: exponents through ``expmap``, scalar
        coefficients through ``scalarmap`` (the p* homomorphism; with the
        identity on exponents, a map of the scalars alone)."""
        atoms = []
        for p, s in self.atoms:
            atoms.append((QTorusElement(
                algebra, {vec(expmap(n)): scalarmap(c) for n, c in p.terms.items()}), s))
        return FactoredWord(algebra, scalarmap(self.prefix), atoms)

    # -- expansion ----------------------------------------------------------------
    def expand(self, dvec, order: int) -> Series:
        """Truncated series expansion, exact to relative order ``order``;
        inverted atoms are divided out.  The work runs in the flat ring
        (see qca.expansion); each surviving term is converted back to a
        QScalar once."""
        from .expansion import expand  # it imports this module
        return expand(self, dvec, order)

    def reduced(self) -> "FactoredWord":
        """The same element of the skew field, reduced in one left-to-right
        pass over the atoms:

        - single-term atoms are folded into the prefix and one trailing
          monomial X^M, which the atoms after it move past:
          X^M P = (X^M P X^-M) X^M, and X^M P X^-M is P with the
          coefficient of X^n times q^{2 omega(M, n)};
        - a multi-term atom is made monic: with v its lex-least exponent
          and c the coefficient there, P = P^ c X^v with P^ = P X^-v c^-1,
          and P^-1 = P^'^-1 X^-v c^-1 with P^' = c^-1 X^-v P, so that the
          monic atom holds 1 X^0 and the monomial joins X^M;
        - a monic atom cancels the nearest earlier copy of its inverse when
          every atom between them commutes with it, that is,
          omega(n, m) = 0 for every pair of their exponents.

        Each rewrite is an identity, so the value is unchanged, and words
        that differ by such rewrites reduce alike: mu_k mu_k(X^v) reduces
        to X^v itself."""
        alg, den = self.algebra, self.algebra.form_den
        zero = alg.zero()
        prefix = self.prefix
        m, mrow = zero, None  # the trailing monomial X^m and its pairing row
        out: list = []
        for p, s in self.atoms:
            terms = p.terms
            if len(terms) == 1:
                (v, c), = terms.items()
                if s == -1:
                    v, c = vec_neg(v), c.inverse()
            else:
                v = min(terms)
                c = terms[v]
                hat = _monic(p, s, v, c, mrow, den)
                if not _cancel(alg, out, hat, s):
                    out.append((hat, s))
                if s == -1:
                    v, c = vec_neg(v), c.inverse()
            # X^m c X^v = c q^{omega(m, v)} X^{m+v}
            if not c.is_one():
                prefix = prefix * c
            if mrow is not None:
                w = sum(map(mul, mrow, v))
                if w:
                    prefix = prefix._qshift(w, den)
            m = vec_add(m, v)
            mrow = alg.row_pairing(m) if m != zero else None
        if m != zero:
            out.append((QTorusElement(alg, {m: ONE}), 1))
        return FactoredWord(alg, prefix, out)

    # -- misc -----------------------------------------------------------------------
    def render(self, base: str = "q") -> str:
        if self.prefix.is_zero():
            return "0"
        parts = []
        if not self.prefix.is_one():
            parts.append(self.prefix.render(base))
        for p, s in self.atoms:
            inner = p.render(base)
            if len(p.terms) == 1 and s == 1:
                parts.append(inner)
            else:
                parts.append(f"({inner})" + ("^-1" if s == -1 else ""))
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        return f"FactoredWord({self.render()})"


def _monic(p: QTorusElement, s: int, v, c: QScalar, mrow, den: int) -> QTorusElement:
    """The monic atom of p^s behind the monomial X^M (pairing row ``mrow``,
    None when M = 0), pivot v and its coefficient c: the coefficient of
    X^{n-v} is c_n / c * q^{2 omega(M, n - v) + s omega(v, n)}."""
    alg = p.algebra
    row = alg.row_pairing(v)
    if s == -1:
        row = [-x for x in row]
    const = 0
    if mrow is not None:
        row = [x + 2 * y for x, y in zip(row, mrow)]
        const = -2 * sum(map(mul, mrow, v))
    inv = None if c.is_one() else c.inverse()
    terms = {}
    for n, cn in p.terms.items():
        if n == v:
            terms[tuple(map(sub, n, v))] = ONE
            continue
        if inv is not None:
            cn = cn * inv
        w = sum(map(mul, row, n)) + const
        if w:
            cn = cn._qshift(w, den)
        terms[tuple(map(sub, n, v))] = cn
    return p._like(terms)


def _cancel(alg: SkewLattice, out: list, hat: QTorusElement, s: int) -> bool:
    """Drop the nearest earlier hat^-s from ``out`` and return True when
    every atom after it commutes with ``hat``; else False.  Commutation is
    read off the pairing rows of hat's exponents, made once per call."""
    rows = None
    terms = hat.terms
    for i in range(len(out) - 1, -1, -1):
        a, t = out[i]
        if a.terms == terms:
            if t == -s:
                del out[i]
                return True
            continue
        if rows is None:
            rows = [alg.row_pairing(n) for n in terms if any(n)]
        if any(sum(map(mul, r, m)) for r in rows for m in a.terms):
            return False
    return False


def dilog_binomial(alg: SkewLattice, h: Fraction, coeff: QScalar, w,
                   e: int) -> QTorusElement:
    """1 + Q^e y with y = coeff * X^w and Q = q^h."""
    return QTorusElement.one(alg) + QTorusElement.monomial(
        alg, w, coeff._qshift(h.numerator * e, h.denominator))


def dilog_pairings(alg: SkewLattice, h: Fraction, w, exponents, row=None) -> dict:
    """The integer pairing p_v = omega(w, v) / h of each exponent v with the
    dilogarithm Psi_{q^h}(X^w), as {v: p_v}; ValueError if one is not an
    integer.  ``row`` is alg.row_pairing(w) when the caller has it."""
    # p_v = omega_int(w, v) / (form_den * h), in integers
    if row is None:
        row = alg.row_pairing(w)
    top, bottom = h.denominator, alg.form_den * h.numerator
    out = {}
    for v in exponents:
        pv = sum(map(mul, row, v)) * top
        if pv % bottom:
            raise ValueError(
                f"non-integral dilogarithm pairing {Fraction(pv, bottom)} "
                f"for exponent {v}")
        out[v] = pv // bottom
    return out


class DilogConjugation:
    """Ad^{action} of Psi_{q^h}(coeff X^w), built once and applied to any
    number of words; y = coeff X^w and Q = q^h below.  action=+1 is
    x -> Psi x Psi^{-1} (the mutation automorphism mu#); action=-1 is
    x -> Psi^{-1} x Psi (how scattering walls act).

    A monomial X^v with pairing p_v = omega(w, v)/h (an integer) conjugates
    to X^v * prod_{l<=|p_v|} (1 + Q^{sgn(p_v)(2l-1)} y)^{action sgn(p_v)}.
    A general P is split as X^{v0} * (X^{-v0} P), with v0 chosen so that
    every term c X^u of the shifted part has a pairing p_u of the sign of
    ``action`` (or 0); the shifted part then conjugates to the polynomial
    sum_u c X^u * P_{sgn(p_u), |p_u|}, with the running products
    P_{s,n} = P_{s,n-1} * (1 + Q^{s(2n-1)} y) and P_{s,0} = 1.

    Each binomial 1 + Q^e y and each running product is built once, on
    first use, and then shared by every atom of every word the conjugation
    is applied to.
    """

    __slots__ = ("algebra", "h", "coeff", "direction", "action", "row",
                 "_binomials", "_products")

    def __init__(self, alg: SkewLattice, h: Fraction, coeff: QScalar, direction,
                 action: int = 1):
        self.algebra = alg
        self.h = h
        self.coeff = coeff
        self.direction = vec(direction)
        self.action = action
        self.row = alg.row_pairing(self.direction)  # the pairing row of w
        self._binomials: dict = {}  # e -> 1 + Q^e y
        self._products: dict = {1: [], -1: []}  # s -> [P_{s,1}, P_{s,2}, ...]

    def binomial(self, e: int) -> QTorusElement:
        """1 + Q^e y."""
        b = self._binomials.get(e)
        if b is None:
            b = self._binomials[e] = dilog_binomial(
                self.algebra, self.h, self.coeff, self.direction, e)
        return b

    def factors(self, s: int, n: int) -> list:
        """The binomials 1 + Q^{s(2l-1)} y for l = 1..n."""
        return [self.binomial(s * (2 * ell - 1)) for ell in range(1, n + 1)]

    def product(self, s: int, n: int) -> QTorusElement:
        """The running product P_{s,n}, n >= 1."""
        ps = self._products[s]
        while len(ps) < n:
            b = self.binomial(s * (2 * len(ps) + 1))
            ps.append(ps[-1] * b if ps else b)
        return ps[n - 1]

    def apply(self, word: FactoredWord, twist=None) -> FactoredWord:
        """The conjugate of ``word``, in one pass over its atoms.  ``twist``,
        a map (pairing p_v, coefficient) -> coefficient, is applied to the
        terms c X^v of each atom first when given (mu' of a mutation)."""
        prefix = word.prefix
        atoms: list = []
        for p, s in word.atoms:
            c = self._atom(p, s, twist, atoms)
            if c is not None:
                prefix = prefix * c
        return FactoredWord(self.algebra, prefix, atoms)

    def _atom(self, p: QTorusElement, s: int, twist, out: list):
        """Append the atoms of the conjugate of p^s to ``out``; return its
        scalar factor, or None when that is 1."""
        alg, h, w, action = self.algebra, self.h, self.direction, self.action
        terms = p.terms
        pairings = dilog_pairings(alg, h, w, terms, self.row)
        if twist is not None:
            terms = {n: twist(pairings[n], c) for n, c in terms.items()}
        if action == 1:
            v0 = min(pairings, key=lambda v: (pairings[v], v))
        else:
            v0 = max(pairings, key=lambda v: (pairings[v], vec_neg(v)))
        p0 = pairings[v0]
        s0 = 1 if p0 > 0 else -1
        piece = [(p._like({v0: ONE}), 1)]
        piece += [(b, action * s0) for b in self.factors(s0, abs(p0))]
        scalar = None
        if len(terms) == 1:  # c X^v0: the conjugate is c times the piece
            scalar = terms[v0]
        else:
            # X^{-v0} X^v = q^{omega(-v0, v)} X^{v - v0}
            nrow, den = alg.row_pairing(vec_neg(v0)), alg.form_den
            shifted = {}
            for v, c in terms.items():
                e = sum(map(mul, nrow, v))
                shifted[tuple(map(sub, v, v0))] = c._qshift(e, den) if e else c
            # the shifted terms grouped by pairing: each group times one P_{s,n}
            groups: dict = {}
            for u, pu in dilog_pairings(alg, h, w, shifted, self.row).items():
                if action * pu < 0:
                    raise ArithmeticError(
                        "anchor choice guarantees polynomial factors, but exponent "
                        f"{u} has pairing {pu} against action {action}")
                groups.setdefault(pu, {})[u] = shifted[u]
            tail: dict = {}
            for pu, left in groups.items():
                if pu:
                    left = skew_product(alg, left, self.product(
                        1 if pu > 0 else -1, abs(pu)).terms, None, None)
                add_terms(tail, left.items())
            piece.append((p._like(tail), 1))
        if s == 1:
            out.extend(piece)
        else:
            out.extend((b, -k) for b, k in reversed(piece))
            if scalar is not None:
                scalar = scalar.inverse()
        return None if scalar is None or scalar.is_one() else scalar


def _unique_lowest(dvec, exponents) -> bool:
    degs = sorted(degree(dvec, n) for n in exponents)
    return degs[0] != degs[1]


def choose_grading(words, rank: int) -> tuple[int, ...]:
    """Deterministically pick an integer grading under which every inverted
    atom of more than one term has a unique lowest-degree term, which is
    what :meth:`FactoredWord.expand` needs to divide it out."""
    inverted = [tuple(p.terms) for w in words for p, s in w.atoms
                if s == -1 and len(p.terms) > 1]
    candidates = [tuple(1 for _ in range(rank))]
    for k in (2, 3, 5, 7, 11, 17, 29):
        for i in range(rank):
            candidates.append(tuple(k if j == i else 1 for j in range(rank)))
    # last resort: geometric weights give distinct small exponents distinct degrees
    candidates.append(tuple(97 ** i for i in range(rank)))
    for cand in candidates:
        if all(_unique_lowest(cand, exps) for exps in inverted):
            return cand
    raise ExpansionError("could not find a separating grading")


def words_equal(w1: FactoredWord, w2: FactoredWord, order: int = 12,
                dvec=None) -> bool:
    """True iff w1 * w2^{-1} equals 1: exactly when its reduction has no
    atom left (the reduced prefix is then the whole element), else when the
    reduction's expansion equals 1 up to the given relative order.  The
    grading is chosen on the unreduced product, so a truncated answer is
    the one the unreduced expansion gives."""
    if w1.algebra != w2.algebra:
        raise ValueError("words live on different algebras")
    prod = w1 * w2.inverse()
    reduced = prod.reduced()
    if not reduced.atoms:
        return reduced.prefix.is_one()
    if dvec is None:
        dvec = choose_grading([prod], w1.algebra.rank)
    series = reduced.expand(dvec, order).truncate(order)
    return series == Series.one(w1.algebra, dvec, order)
