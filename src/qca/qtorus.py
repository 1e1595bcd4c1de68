"""Quantum torus algebras over a lattice with a skew form.

Elements are normal-ordered noncommutative Laurent polynomials: the symbol
X^n is a single (Weyl-ordered) generator per lattice vector n, subject to

    X^n * X^m = q^{omega(n, m)} X^{n+m}.

One :class:`SkewLattice` serves both sides of the story: for the
Fock-Goncharov torus the stored form is {.,.} itself, for the
Berenstein-Zelevinsky torus it is Lambda/2 -- the form is always literally
the exponent of q in the defining relation.

The form may take fractional values (symmetrizers such as d = (2, 3) give
sixths), so each lattice also keeps it as an integer matrix
``iform = form * form_den``, form_den being the lcm of the entries'
denominators.  Products evaluate omega_int(n, m) = form_den * omega(n, m) in
integers and apply q^{omega_int / form_den} to the coefficient with the fused
shift ``QScalar._qshift``, which moves the numerator's q-exponents instead of
multiplying by a separately built power of q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul

from .scalars import QScalar, render_monomial, render_sum


@dataclass(frozen=True)
class SkewLattice:
    """Lattice Z^rank with a skew form given by its matrix on basis vectors.

    Besides the fields, a lattice stores ``form_den``, the lcm of the
    denominators of the form's entries, and ``iform``, the integer matrix
    form * form_den; equality and hashing use the fields only.
    """

    rank: int
    form: tuple[tuple[Fraction, ...], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.form) != self.rank or any(len(r) != self.rank for r in self.form):
            raise ValueError("form matrix has wrong shape")
        for i in range(self.rank):
            for j in range(self.rank):
                if self.form[i][j] != -self.form[j][i]:
                    raise ValueError(f"form is not antisymmetric at ({i},{j})")
        if len(self.labels) != self.rank:
            raise ValueError("need one label per generator")
        den = lcm(*(x.denominator for row in self.form for x in row))
        object.__setattr__(self, "form_den", den)
        object.__setattr__(self, "iform", tuple(
            tuple(int(x * den) for x in row) for row in self.form))

    @staticmethod
    def make(form_rows, labels=None) -> "SkewLattice":
        rows = tuple(tuple(Fraction(x) for x in r) for r in form_rows)
        n = len(rows)
        if labels is None:
            labels = tuple(f"X{i + 1}" for i in range(n))
        return SkewLattice(n, rows, tuple(labels))

    def omega(self, n, m) -> Fraction:
        """The form on a pair of lattice vectors."""
        return Fraction(self.omega_int(n, m), self.form_den)

    def omega_int(self, n, m) -> int:
        """form_den * omega(n, m), an integer."""
        return sum(map(mul, self.row_pairing(n), m))

    def row_pairing(self, n) -> list[int]:
        """The integer vector r with omega_int(n, m) = r . m for every m;
        products compute it once per left-hand exponent."""
        # iform is antisymmetric: its column j is minus its row j
        return [-sum(map(mul, row, n)) for row in self.iform]

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank


def vec(values) -> tuple[int, ...]:
    return tuple(int(x) for x in values)


def vec_add(a, b) -> tuple[int, ...]:
    return tuple(map(add, a, b))


def vec_neg(a) -> tuple[int, ...]:
    return tuple(-x for x in a)


def add_terms(d: dict, pairs) -> dict:
    """Add the (exponent, coefficient) pairs into the term dict ``d`` in
    place, dropping sums that cancel; returns ``d``.  The coefficients form
    a domain, so only a sum can be zero: callers pass nonzero coefficients."""
    for n, c in pairs:
        if n in d:
            c = d[n] + c
            if c.is_zero():
                del d[n]
                continue
        d[n] = c
    return d


def skew_product(alg: SkewLattice, left: dict, right: dict, dvec, cutoff,
                 ldeg=None, rdeg=None) -> dict:
    """The terms of (sum left) * (sum right), X^n X^m = q^{omega(n, m)} X^{n+m}.

    Unless ``cutoff`` is None, only the products of degree <= cutoff under
    the grading ``dvec`` are formed; a caller that has the degrees of the
    terms already passes them as ``ldeg`` and ``rdeg``, lists in the order
    of ``left`` and ``right``.  Terms are merged as they are formed, as in
    :func:`add_terms`."""
    den = alg.form_den
    out: dict = {}
    items = list(right.items())
    if cutoff is None:
        rows = ((n, cn, items) for n, cn in left.items())
    else:
        if ldeg is None:
            ldeg = [sum(map(mul, dvec, n)) for n in left]
        if rdeg is None:
            rdeg = [sum(map(mul, dvec, m)) for m in right]
        graded = list(zip(items, rdeg))
        rows = ((n, cn, [mc for mc, dm in graded if dm <= cutoff - dn])
                for (n, cn), dn in zip(left.items(), ldeg))
    for n, cn, todo in rows:
        row = alg.row_pairing(n)
        for m, cm in todo:
            c = cn * cm
            w = sum(map(mul, row, m))
            if w:
                c = c._qshift(w, den)
            k = tuple(map(add, n, m))
            if k in out:
                c = out[k] + c
                if c.is_zero():
                    del out[k]
                    continue
            out[k] = c
    return out


class QTorusElement:
    """Finite sum of terms c * X^n over a SkewLattice, c a nonzero QScalar."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: SkewLattice, terms=None):
        self.algebra = algebra
        pairs = []
        for n, c in (terms or {}).items():
            n = vec(n)
            if len(n) != algebra.rank:
                raise ValueError(f"exponent {n} has wrong rank")
            if isinstance(c, int):
                c = QScalar.integer(c)
            if not c.is_zero():
                pairs.append((n, c))
        self.terms = add_terms({}, pairs)

    def _like(self, terms: dict) -> "QTorusElement":
        """An element of this one's kind holding ``terms`` as they are."""
        out = QTorusElement.__new__(QTorusElement)
        out.algebra, out.terms = self.algebra, terms
        return out

    # -- constructors -------------------------------------------------------
    @staticmethod
    def monomial(algebra: SkewLattice, n, coeff: QScalar | int = 1) -> "QTorusElement":
        if isinstance(coeff, int):
            coeff = QScalar.integer(coeff)
        return QTorusElement(algebra, {vec(n): coeff})

    @staticmethod
    def one(algebra: SkewLattice) -> "QTorusElement":
        return QTorusElement.monomial(algebra, algebra.zero())

    @staticmethod
    def generator(algebra: SkewLattice, i: int) -> "QTorusElement":
        v = [0] * algebra.rank
        v[i] = 1
        return QTorusElement.monomial(algebra, v)

    # -- predicates ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def monomial_parts(self) -> tuple[tuple[int, ...], QScalar]:
        if not self.is_monomial():
            raise ValueError("not a monomial")
        return next(iter(self.terms.items()))

    # -- ring operations -------------------------------------------------------
    def _check(self, other: "QTorusElement"):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise ValueError("elements live on different quantum tori")

    def __add__(self, other: "QTorusElement") -> "QTorusElement":
        self._check(other)
        return self._like(add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "QTorusElement":
        return self._like({n: -c for n, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other) -> "QTorusElement":
        if isinstance(other, (QScalar, int)):
            return self.scale(other)
        self._check(other)
        return self._like(skew_product(self.algebra, self.terms, other.terms, None, None))

    def __rmul__(self, other):
        if isinstance(other, (QScalar, int)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: QScalar | int) -> "QTorusElement":
        if isinstance(c, int):
            c = QScalar.integer(c)
        return self._like({} if c.is_zero() else
                          {n: cv * c for n, cv in self.terms.items()})

    def __pow__(self, k: int) -> "QTorusElement":
        if k < 0:
            n, c = self.monomial_parts()  # only monomials are invertible
            inv = QTorusElement.monomial(self.algebra, vec_neg(n), c.inverse())
            return inv ** (-k)
        out = QTorusElement.one(self.algebra)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, QTorusElement):
            return NotImplemented
        return self.algebra == other.algebra and self.terms.keys() == other.terms.keys() and all(
            self.terms[n] == other.terms[n] for n in self.terms
        )

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is not hashable")

    # -- involution -------------------------------------------------------------
    def star(self) -> "QTorusElement":
        """The *-involution: bar on coefficients, Weyl monomials fixed."""
        return self._like({n: c.bar() for n, c in self.terms.items()})

    # -- misc --------------------------------------------------------------------
    def render(self, base: str = "q") -> str:
        """Deterministic rendering: terms sorted lexicographically by
        exponent; each monomial shown as generator powers in index order with
        the normal-ordering scalar folded into the coefficient."""
        alg = self.algebra
        terms = []
        for n in sorted(self.terms):
            # X^n = q^{-sum_{i<j} n_i n_j w_ij} X1^{n1} ... Xr^{nr}
            fold = sum(n[i] * n[j] * alg.iform[i][j]
                       for i in range(alg.rank) for j in range(i + 1, alg.rank))
            disp = self.terms[n]._qshift(-fold, alg.form_den)
            terms.append((disp.render(base), render_monomial(alg.labels, n),
                          not disp.is_monomial()))
        return render_sum(terms)

    def __repr__(self):
        return f"QTorusElement({self.render()})"
