"""Exact commutative Laurent polynomials and rational functions in the
cluster variables over the coefficient ring Z[t1, ..., tr].

Used for the classical mutation formulas (where everything commutes), for
q=1 specializations of quantum expressions, and for the Poisson bracket
verification.  Denominators are kept as factor lists so that the mutation
formulas' telescoping cancellations actually cancel.
"""

from __future__ import annotations

from .scalars import TScalar, tmono

_T_ONE = TScalar.integer(1)


class CPoly:
    """Laurent polynomial: map {integer exponent tuple: TScalar}."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None):
        self.rank = rank
        d = {}
        if terms:
            for e, c in terms.items():
                e = tuple(int(x) for x in e)
                if len(e) != rank:
                    raise ValueError("exponent rank mismatch")
                if isinstance(c, int):
                    c = TScalar.integer(c)
                if e in d:
                    c = d[e] + c
                if c.terms:
                    d[e] = c
                elif e in d:
                    del d[e]
        self.terms = d

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
        return self.terms == {(0,) * self.rank: _T_ONE} or (
            len(self.terms) == 1 and self.terms.get((0,) * self.rank) == _T_ONE)

    def is_monomial(self):
        return len(self.terms) == 1

    def __add__(self, other):
        d = dict(self.terms)
        for e, c in other.terms.items():
            v = d[e] + c if e in d else c
            if v.terms:
                d[e] = v
            elif e in d:
                del d[e]
        out = CPoly.__new__(CPoly)
        out.rank, out.terms = self.rank, d
        return out

    def __neg__(self):
        out = CPoly.__new__(CPoly)
        out.rank = self.rank
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        d = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                if e in d:
                    c = d[e] + c
                if c.terms:
                    d[e] = c
                elif e in d:
                    del d[e]
        out = CPoly.__new__(CPoly)
        out.rank, out.terms = self.rank, d
        return out

    def scale(self, c: TScalar) -> "CPoly":
        out = CPoly.__new__(CPoly)
        out.rank = self.rank
        out.terms = {e: cc for e, cc in ((e, cv * c) for e, cv in self.terms.items())
                     if cc.terms}
        return out

    def __eq__(self, other):
        return isinstance(other, CPoly) and self.rank == other.rank \
            and self.terms == other.terms

    def __hash__(self):
        raise TypeError("CPoly is not hashable")

    def shift(self, e) -> "CPoly":
        e = tuple(e)
        out = CPoly.__new__(CPoly)
        out.rank = self.rank
        out.terms = {tuple(a + b for a, b in zip(k, e)): c
                     for k, c in self.terms.items()}
        return out

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
        out = CPoly.__new__(CPoly)
        out.rank, out.terms = self.rank, d
        return out

    def subs_t_one(self) -> "CPoly":
        d = {}
        for e, c in self.terms.items():
            v = c.coefficient_sum()
            if v:
                d[e] = TScalar.integer(v)
        out = CPoly.__new__(CPoly)
        out.rank, out.terms = self.rank, d
        return out

    def exact_divide(self, g: "CPoly"):
        """self / g if g divides exactly (None otherwise).  Works on the
        polynomial parts after clearing Laurent monomial shifts."""
        if g.is_zero():
            return None
        sh_self, sh_g = self.min_exponents(), g.min_exponents()
        a = self.shift(tuple(-x for x in sh_self))
        b = g.shift(tuple(-x for x in sh_g))
        quot: dict[tuple, TScalar] = {}
        # leading term of b under lex
        lead = max(b.terms)
        lead_c = b.terms[lead]
        work = dict(a.terms)
        while work:
            e = max(work)
            c = work[e]
            diff = tuple(x - y for x, y in zip(e, lead))
            if any(x < 0 for x in diff):
                return None
            q = _tdiv(c, lead_c)
            if q is None:
                return None
            quot[diff] = q
            for be, bc in b.terms.items():
                ke = tuple(x + y for x, y in zip(diff, be))
                v = work.get(ke, TScalar()) - (bc * q)
                if v.terms:
                    work[ke] = v
                elif ke in work:
                    del work[ke]
        res = CPoly(self.rank, quot)
        return res.shift(tuple(x - y for x, y in zip(sh_self, sh_g)))

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


def _tdiv(a: TScalar, b: TScalar):
    """a / b for TScalars when exact (None otherwise); b a single term or
    constant covers everything the division algorithm meets here."""
    if b.is_constant():
        bc = b.constant_value()
        try:
            return a.divide_int(bc)
        except ValueError:
            return None
    if len(b.terms) == 1:
        (mono, bc), = b.terms.items()
        shifted = {}
        for k, c in a.terms.items():
            n = max(len(k), len(mono))
            kk = k + (0,) * (n - len(k))
            mm = mono + (0,) * (n - len(mono))
            diff = tuple(x - y for x, y in zip(kk, mm))
            if any(x < 0 for x in diff) or c % bc:
                return None
            shifted[tmono(diff)] = c // bc
        return TScalar(shifted)
    # multi-term coefficient divisor: fall back to full polynomial division
    # in the t variables via the recursive CPoly machinery
    ra = max((len(k) for k in a.terms), default=0)
    rb = max(len(k) for k in b.terms)
    r = max(ra, rb)
    pa = CPoly(r, {k + (0,) * (r - len(k)): TScalar.integer(c) for k, c in a.terms.items()})
    pb = CPoly(r, {k + (0,) * (r - len(k)): TScalar.integer(c) for k, c in b.terms.items()})
    q = pa.exact_divide(pb)
    if q is None:
        return None
    return TScalar({tmono(e): c.constant_value() for e, c in q.terms.items()})


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
        out = CRational(CPoly(self.rank, {}))
        for e, c in self.num.terms.items():
            term = CRational(CPoly(self.rank, {(0,) * self.rank: c}))
            for i, p in enumerate(e):
                if p:
                    term = term * values[i] ** p
            out = out + term
        for f in self.den:
            fe = CRational(CPoly(self.rank, {}))
            for e, c in f.terms.items():
                term = CRational(CPoly(self.rank, {(0,) * self.rank: c}))
                for i, p in enumerate(e):
                    if p:
                        term = term * values[i] ** p
                fe = fe + term
            out = out * fe.inverse()
        return out

    def is_laurent_polynomial(self) -> bool:
        """True iff the reduced denominator is a monomial."""
        return all(f.is_monomial() for f in self.den)

    def render(self, labels=None) -> str:
        n = self.num.render(labels)
        if not self.den:
            return n
        d = self.den_poly().render(labels)
        if len(self.num.terms) > 1:
            n = f"({n})"
        dp = self.den_poly()
        if len(dp.terms) > 1:
            d = f"({d})"
        return f"{n}/{d}"

    def __repr__(self):
        return f"CRational({self.render()})"


def _reduce(num: CPoly, factors: list[CPoly]):
    """Cancel denominator factors into the numerator where they divide
    exactly; pull the monomial content of the denominator into the numerator
    as a Laurent shift."""
    out = []
    for f in factors:
        if num.is_zero():
            break
        if f.is_monomial():
            (e, c), = f.terms.items()
            if len(c.terms) == 1 and c.lex_leading() == ((), 1):
                num = num.shift(tuple(-x for x in e))
                continue
            q = _monomial_divide(num, e, c)
            if q is not None:
                num = q
                continue
            out.append(f)
            continue
        q = num.exact_divide(f)
        if q is not None:
            num = q
        else:
            out.append(f)
    if num.is_zero():
        return num, []
    return num, out


def _monomial_divide(num: CPoly, e, c: TScalar):
    d = {}
    for k, cc in num.terms.items():
        q = _tdiv(cc, c)
        if q is None:
            return None
        d[tuple(a - b for a, b in zip(k, e))] = q
    return CPoly(num.rank, d)
