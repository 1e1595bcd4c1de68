"""Exact commutative Laurent polynomials and rational functions in the
cluster variables over the coefficient ring Z[t1, ..., tr].

Used for the classical mutation formulas (where everything commutes), for
q=1 specializations of quantum expressions, and for the Poisson bracket
verification.  Denominators are kept as factor lists so that the mutation
formulas' telescoping cancellations actually cancel.
"""

from __future__ import annotations

from .qtorus import add_terms, vec, vec_add, vec_neg
from .scalars import TScalar

_T_ONE = TScalar.integer(1)


class CPoly:
    """Laurent polynomial: map {integer exponent tuple: TScalar}.  Sums and
    products merge terms with the torus elements' ``add_terms``."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None):
        self.rank = rank
        pairs = []
        for e, c in (terms or {}).items():
            e = vec(e)
            if len(e) != rank:
                raise ValueError("exponent rank mismatch")
            if isinstance(c, int):
                c = TScalar.integer(c)
            if not c.is_zero():
                pairs.append((e, c))
        self.terms = add_terms({}, pairs)

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
        return self.terms == {(0,) * self.rank: _T_ONE}

    def is_monomial(self):
        return len(self.terms) == 1

    def __add__(self, other):
        return self._like(add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        right = other.terms.items()
        return self._like(add_terms({}, (
            (vec_add(e1, e2), c1 * c2)
            for e1, c1 in self.terms.items() for e2, c2 in right)))

    def scale(self, c: TScalar) -> "CPoly":
        if c.is_zero():
            return self._like({})
        return self._like({e: cv * c for e, cv in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, CPoly) and self.rank == other.rank \
            and self.terms == other.terms

    def __hash__(self):
        raise TypeError("CPoly is not hashable")

    def shift(self, e) -> "CPoly":
        return self._like({vec_add(k, e): c for k, c in self.terms.items()})

    def min_exponents(self) -> tuple[int, ...]:
        if not self.terms:
            return (0,) * self.rank
        return tuple(min(e[i] for e in self.terms) for i in range(self.rank))

    def derivative(self, i: int) -> "CPoly":
        d = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                d[tuple(e2)] = c.scale(e[i])
        return self._like(d)

    def subs_t_one(self) -> "CPoly":
        return CPoly(self.rank, {e: c.coefficient_sum() for e, c in self.terms.items()})

    def exact_divide(self, g: "CPoly"):
        """self / g if g divides exactly (None otherwise).  Works on the
        polynomial parts after clearing Laurent monomial shifts; a monomial
        g with coefficient 1 is such a shift itself."""
        if g.is_zero():
            return None
        if g.is_monomial() and _T_ONE in g.terms.values():
            return self.shift(vec_neg(next(iter(g.terms))))
        sh_self, sh_g = self.min_exponents(), g.min_exponents()
        a = self.shift(vec_neg(sh_self))
        b = g.shift(vec_neg(sh_g))
        quot: dict[tuple, TScalar] = {}
        # leading term of b under lex
        lead = max(b.terms)
        lead_c = b.terms[lead]
        work = dict(a.terms)
        while work:
            e = max(work)
            diff = tuple(x - y for x, y in zip(e, lead))
            if any(x < 0 for x in diff):
                return None
            q = work[e].divide(lead_c)
            if q is None:
                return None
            quot[diff] = q
            add_terms(work, ((vec_add(diff, be), -(bc * q))
                             for be, bc in b.terms.items()))
        return CPoly(self.rank, quot).shift(tuple(x - y for x, y in zip(sh_self, sh_g)))

    def render(self, labels=None) -> str:
        if not self.terms:
            return "0"
        labels = labels or tuple(f"X{i + 1}" for i in range(self.rank))
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "*".join(
                labels[i] if p == 1 else f"{labels[i]}^{p}"
                for i, p in enumerate(e) if p
            )
            cs = c.render()
            if not mono:
                parts.append(f"({cs})" if ("+" in cs[1:] or "-" in cs[1:]) else cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                if "+" in cs[1:] or "-" in cs[1:]:
                    cs = f"({cs})"
                parts.append(f"{cs}*{mono}")
        s = parts[0]
        for p in parts[1:]:
            s += p if p.startswith("-") else "+" + p
        return s

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
        out = CRational(self.den_poly() if self.den else CPoly.one(self.rank),
                        [self.num])
        return out

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
            for e, c in p.terms.items():
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

    def is_laurent_polynomial(self) -> bool:
        """True iff the reduced denominator is a monomial."""
        return all(f.is_monomial() for f in self.den)

    def render(self, labels=None) -> str:
        n = self.num.render(labels)
        if not self.den:
            return n
        dp = self.den_poly()
        d = dp.render(labels)
        if len(self.num.terms) > 1:
            n = f"({n})"
        # a one-term denominator such as (1+t1)*X1 or X1*X2 is a product too
        if len(dp.terms) > 1 or "*" in d:
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
