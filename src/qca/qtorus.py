"""Quantum torus algebras over a lattice with a skew form.

Elements are normal-ordered noncommutative Laurent polynomials: the symbol
X^n is a single (Weyl-ordered) generator per lattice vector n, subject to

    X^n * X^m = q^{omega(n, m)} X^{n+m}.

One :class:`SkewLattice` serves both sides of the story: for the
Fock-Goncharov torus the stored form is {.,.} itself, for the
Berenstein-Zelevinsky torus it is Lambda/2 -- the form is always literally
the exponent of q in the defining relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import ONE, QScalar, qpow

_F0 = Fraction(0)


@dataclass(frozen=True)
class SkewLattice:
    """Lattice Z^rank with a skew form given by its matrix on basis vectors."""

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
        object.__setattr__(self, "zero_form",
                           all(not x for row in self.form for x in row))

    @staticmethod
    def make(form_rows, labels=None) -> "SkewLattice":
        rows = tuple(tuple(Fraction(x) for x in r) for r in form_rows)
        n = len(rows)
        if labels is None:
            labels = tuple(f"X{i + 1}" for i in range(n))
        return SkewLattice(n, rows, tuple(labels))

    def omega(self, n, m) -> Fraction:
        """The form on a pair of lattice vectors."""
        if self.zero_form:
            return _F0
        tot = Fraction(0)
        for i, a in enumerate(n):
            if not a:
                continue
            row = self.form[i]
            for j, b in enumerate(m):
                if b and row[j]:
                    tot += a * b * row[j]
        return tot

    def is_central(self, n) -> bool:
        """True iff omega(e_i, n) = 0 for every generator (generic q)."""
        return all(self.omega(ei, n) == 0 for ei in _unit_vectors(self.rank))

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank


def _unit_vectors(rank):
    for i in range(rank):
        v = [0] * rank
        v[i] = 1
        yield tuple(v)


def vec(values) -> tuple[int, ...]:
    return tuple(int(x) for x in values)


def vec_add(a, b) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def vec_neg(a) -> tuple[int, ...]:
    return tuple(-x for x in a)


class QTorusElement:
    """Finite sum of terms c * X^n over a SkewLattice, c a QScalar."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: SkewLattice, terms=None):
        self.algebra = algebra
        d = {}
        if terms:
            for n, c in terms.items():
                n = vec(n)
                if len(n) != algebra.rank:
                    raise ValueError(f"exponent {n} has wrong rank")
                if n in d:
                    c = d[n] + c
                if isinstance(c, int):
                    c = QScalar.integer(c)
                if not c.is_zero():
                    d[n] = c
                elif n in d:
                    del d[n]
        self.terms = d

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
        d = dict(self.terms)
        for n, c in other.terms.items():
            c = d[n] + c if n in d else c
            if c.is_zero():
                d.pop(n, None)
            else:
                d[n] = c
        out = QTorusElement.__new__(QTorusElement)
        out.algebra, out.terms = self.algebra, d
        return out

    def __neg__(self) -> "QTorusElement":
        out = QTorusElement.__new__(QTorusElement)
        out.algebra = self.algebra
        out.terms = {n: -c for n, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other) -> "QTorusElement":
        if isinstance(other, (QScalar, int)):
            return self.scale(other)
        self._check(other)
        alg = self.algebra
        d: dict[tuple[int, ...], QScalar] = {}
        for n, cn in self.terms.items():
            for m, cm in other.terms.items():
                w = alg.omega(n, m)
                c = cn * cm if w == 0 else cn * cm * qpow(w)
                k = vec_add(n, m)
                c = d[k] + c if k in d else c
                if c.is_zero():
                    d.pop(k, None)
                else:
                    d[k] = c
        out = QTorusElement.__new__(QTorusElement)
        out.algebra, out.terms = alg, d
        return out

    def __rmul__(self, other):
        if isinstance(other, (QScalar, int)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: QScalar | int) -> "QTorusElement":
        if isinstance(c, int):
            c = QScalar.integer(c)
        out = QTorusElement.__new__(QTorusElement)
        out.algebra = self.algebra
        out.terms = {} if c.is_zero() else {
            n: cc for n, cc in ((n, cv * c) for n, cv in self.terms.items()) if not cc.is_zero()
        }
        return out

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
        raise TypeError("QTorusElement is not hashable")

    # -- involution -------------------------------------------------------------
    def star(self) -> "QTorusElement":
        """The *-involution: bar on coefficients, Weyl monomials fixed."""
        out = QTorusElement.__new__(QTorusElement)
        out.algebra = self.algebra
        out.terms = {n: c.bar() for n, c in self.terms.items()}
        return out

    # -- misc --------------------------------------------------------------------
    def map_terms(self, f) -> "QTorusElement":
        """New element with coefficients f(n, c); drops zeros."""
        out = QTorusElement.__new__(QTorusElement)
        out.algebra = self.algebra
        out.terms = {}
        for n, c in self.terms.items():
            c2 = f(n, c)
            if not c2.is_zero():
                out.terms[n] = c2
        return out

    def exponents(self):
        return self.terms.keys()

    def render(self, base: str = "q") -> str:
        """Deterministic rendering: terms sorted lexicographically by
        exponent; each monomial shown as generator powers in index order with
        the normal-ordering scalar folded into the coefficient."""
        if not self.terms:
            return "0"
        alg = self.algebra
        parts = []
        for n in sorted(self.terms):
            c = self.terms[n]
            # X^n = q^{-sum_{i<j} n_i n_j w_ij} X1^{n1} ... Xr^{nr}
            fold = Fraction(0)
            for i in range(alg.rank):
                for j in range(i + 1, alg.rank):
                    fold += n[i] * n[j] * alg.form[i][j]
            disp = c * qpow(-fold) if fold else c
            mono = "*".join(
                alg.labels[i] if e == 1 else f"{alg.labels[i]}^{e}"
                for i, e in enumerate(n) if e
            )
            cs = disp.render(base)
            if not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                if not disp.is_monomial():
                    cs = f"({cs})"
                parts.append(f"{cs}*{mono}")
        s = parts[0]
        for p in parts[1:]:
            s += p if p.startswith("-") else "+" + p
        return s

    def __repr__(self):
        return f"QTorusElement({self.render()})"


def is_central(algebra: SkewLattice, n) -> bool:
    return algebra.is_central(vec(n))


def dilog_series_coefficients(h: Fraction, order: int) -> list[QScalar]:
    """Taylor coefficients c_0..c_K of Psi_Q(x) with Q = q^h.

    From the difference relation Psi(Q^2 x) = (1 + Qx) Psi(x):
    c_k = c_{k-1} * Q / (Q^{2k} - 1).
    """
    coeffs = [ONE]
    for k in range(1, order + 1):
        coeffs.append(coeffs[-1] * qpow(h) / (qpow(2 * k * h) - 1))
    return coeffs


def neg_li2_coefficients(h: Fraction, order: int) -> list[QScalar]:
    """Taylor coefficients of -Li2(-x; Q), Q = q^h: the logarithm of Psi_Q.

    coefficient of x^l is (-1)^{l+1} / (l (Q^l - Q^{-l})).
    """
    out = [QScalar.integer(0)]
    for l in range(1, order + 1):
        sign = 1 if l % 2 else -1
        out.append(QScalar.rational(sign, l) / (qpow(l * h) - qpow(-l * h)))
    return out
