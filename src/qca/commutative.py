"""Exact commutative Laurent polynomials and rational functions in the
cluster variables over the coefficient ring Z[t1, ..., tr].

Used for the classical mutation formulas (where everything commutes), for
q=1 specializations of quantum expressions, and for the Poisson bracket
verification.  Denominators are kept as factor lists so that the mutation
formulas' telescoping cancellations actually cancel.

A :class:`CPoly` is one flat dict on the packed keys of scalars.py, its
X-exponents (in [-1024, 1024), at most 16 variables) in the fields above the
t-fields.  Its sum, product, shift and exact quotient are the base ring's
``flat_add``, ``flat_mul``, ``flat_shift`` and ``flat_divide``, the one
division, and it prints through the one ``render_sum``.
"""

from __future__ import annotations

from .scalars import (TScalar, flat_add, flat_divide, flat_mul, flat_shift,
                      render_monomial, render_sum, x_content, x_exponents,
                      x_key, x_part)


class CPoly:
    """Laurent polynomial in X1, ..., X_rank over Z[t], one flat dict
    {packed key: int}.  The constructor takes {exponent tuple: TScalar or
    int}; :meth:`coefficients` decodes back to {exponent tuple: TScalar}."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None):
        self.rank = rank
        self.terms = {}
        for e, c in (terms or {}).items():
            if len(e) != rank:
                raise ValueError("exponent rank mismatch")
            c = TScalar.integer(c) if isinstance(c, int) else c
            self.terms = flat_add(self.terms, flat_shift(c.terms, x_key(e)))

    def _like(self, terms: dict) -> "CPoly":
        """A polynomial of this one's rank holding ``terms`` as they are."""
        out = CPoly.__new__(CPoly)
        out.rank, out.terms = self.rank, terms
        return out

    @staticmethod
    def monomial(rank, e, coeff=1) -> "CPoly":
        return CPoly(rank, {tuple(e): coeff})

    @staticmethod
    def one(rank) -> "CPoly":
        return CPoly(rank, {(0,) * rank: 1})

    @staticmethod
    def variable(rank, i) -> "CPoly":
        e = [0] * rank
        e[i] = 1
        return CPoly(rank, {tuple(e): 1})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {0: 1}

    def is_monomial(self):
        """One X-monomial, with any coefficient."""
        return len({x_part(k) for k in self.terms}) == 1

    def __add__(self, other):
        return self._like(flat_add(self.terms, other.terms))

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return self._like(flat_mul(self.terms, other.terms))

    def scale(self, c: TScalar) -> "CPoly":
        return self._like(flat_mul(self.terms, c.terms))

    def __eq__(self, other):
        return isinstance(other, CPoly) and self.rank == other.rank \
            and self.terms == other.terms

    def __hash__(self):
        raise TypeError("CPoly is not hashable")

    def coefficients(self) -> dict[tuple[int, ...], TScalar]:
        """The terms as {exponent tuple: TScalar}, each X-monomial decoded
        once."""
        parts: dict[int, TScalar] = {}
        for k, c in self.terms.items():
            x = x_part(k)
            ts = parts.get(x)
            if ts is None:
                ts = parts[x] = TScalar()
            ts.terms[k - x] = c
        return {x_exponents(x, self.rank): ts for x, ts in parts.items()}

    def derivative(self, i: int) -> "CPoly":
        unit = x_key([int(j == i) for j in range(self.rank)])
        d = {}
        for k, c in self.terms.items():
            a = x_exponents(x_part(k), self.rank)[i]
            if a:
                d[k] = a * c
        return self._like(flat_shift(d, -unit))

    def subs_t_one(self) -> "CPoly":
        return CPoly(self.rank, {e: sum(c.terms.values())
                                 for e, c in self.coefficients().items()})

    def exact_divide(self, g: "CPoly"):
        """self / g if g divides exactly (None otherwise): the base ring's
        division of the polynomial parts, after clearing the Laurent
        monomial shifts; a divisor X^e with coefficient 1 is such a shift
        itself."""
        if not g.terms:
            return None
        if len(g.terms) == 1:
            (k, c), = g.terms.items()
            if c == 1 and k == x_part(k):
                return self._like(flat_shift(self.terms, -k))
        if not self.terms:
            return self
        sa = x_content({x_part(k) for k in self.terms})
        sg = x_content({x_part(k) for k in g.terms})
        q = flat_divide(flat_shift(self.terms, -sa), flat_shift(g.terms, -sg))
        return None if q is None else self._like(flat_shift(q, sa - sg))

    def render(self, labels=None) -> str:
        labels = labels or tuple(f"X{i + 1}" for i in range(self.rank))
        terms = []
        for e, c in sorted(self.coefficients().items()):
            cs, mono, compound = c.render(), render_monomial(labels, e), len(c.terms) > 1
            # a constant that is a sum is parenthesized too
            terms.append((f"({cs})" if compound and not mono else cs, mono, compound))
        return render_sum(terms)

    def __repr__(self):
        return f"CPoly({self.render()})"


class CRational:
    """num / product(den factors); den factors are polynomials kept separate
    so mutation-formula cancellations stay visible."""

    __slots__ = ("rank", "num", "den")

    def __init__(self, num: CPoly, den=()):
        self.rank = num.rank
        self.num = num
        fs = []
        for f in den:
            if f.is_zero():
                raise ZeroDivisionError("zero denominator factor")
            if not f.is_one():
                fs.append(f)
        self.num, self.den = _reduce(num, fs)

    @staticmethod
    def variable(rank, i) -> "CRational":
        return CRational(CPoly.variable(rank, i))

    @staticmethod
    def one(rank) -> "CRational":
        return CRational(CPoly.one(rank))

    def is_zero(self):
        return self.num.is_zero()

    def den_poly(self) -> CPoly:
        p = CPoly.one(self.rank)
        for f in self.den:
            p = p * f
        return p

    def __add__(self, other):
        if isinstance(other, int):
            other = CRational(CPoly(self.rank, {(0,) * self.rank: other}))
        n = self.num * other.den_poly() + other.num * self.den_poly()
        return CRational(n, list(self.den) + list(other.den))

    __radd__ = __add__

    def __neg__(self):
        return CRational(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CRational(self.num.scale(TScalar.integer(other)), self.den)
        return CRational(self.num * other.num, list(self.den) + list(other.den))

    __rmul__ = __mul__

    def inverse(self) -> "CRational":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return CRational(self.den_poly() if self.den else CPoly.one(self.rank),
                         [self.num])

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = CRational.one(self.rank)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = CRational(CPoly(self.rank, {(0,) * self.rank: other}))
        if not isinstance(other, CRational):
            return NotImplemented
        return (self.num * other.den_poly()) == (other.num * self.den_poly())

    def __hash__(self):
        raise TypeError("CRational is not hashable")

    def derivative(self, i: int) -> "CRational":
        # d(n/prod f_j) = (n' prod f_j - n sum_j f_j' prod_{l != j} f_l) / prod f_j^2
        if not self.den:
            return CRational(self.num.derivative(i))
        dp = self.den_poly()
        top = self.num.derivative(i) * dp
        for j, f in enumerate(self.den):
            rest = CPoly.one(self.rank)
            for l, g in enumerate(self.den):
                if l != j:
                    rest = rest * g
            top = top - self.num * f.derivative(i) * rest
        return CRational(top, list(self.den) + list(self.den))

    def subs_t_one(self) -> "CRational":
        return CRational(self.num.subs_t_one(), [f.subs_t_one() for f in self.den])

    def substitute(self, values: list["CRational"]) -> "CRational":
        """Evaluate at X_i := values[i]."""
        zero = (0,) * self.rank

        def value(p: CPoly) -> CRational:
            out = CRational(CPoly(self.rank, {}))
            for e, c in p.coefficients().items():
                term = CRational(CPoly(self.rank, {zero: c}))
                for i, k in enumerate(e):
                    if k:
                        term = term * values[i] ** k
                out = out + term
            return out

        out = value(self.num)
        for f in self.den:
            out = out * value(f).inverse()
        return out

    def render(self, labels=None) -> str:
        n = self.num.render(labels)
        if not self.den:
            return n
        dp = self.den_poly()
        d = dp.render(labels)
        if not self.num.is_monomial():
            n = f"({n})"
        # a one-term denominator such as (1+t1)*X1 or X1*X2 is a product too
        if not dp.is_monomial() or "*" in d:
            d = f"({d})"
        return f"{n}/{d}"

    def __repr__(self):
        return f"CRational({self.render()})"


def _reduce(num: CPoly, factors: list[CPoly]):
    """Cancel denominator factors into the numerator where they divide
    exactly (a monomial factor with coefficient 1 as a Laurent shift)."""
    out = []
    for f in factors:
        if num.is_zero():
            break
        q = num.exact_divide(f)
        if q is not None:
            num = q
        else:
            out.append(f)
    if num.is_zero():
        return num, []
    return num, out
