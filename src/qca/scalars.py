"""Exact base ring: fractions of Laurent polynomials in q (rational exponents)
whose coefficients are integer polynomials in coefficient variables t1, t2, ...

Everything downstream (quantum tori, mutation, scattering, theta functions)
stores its coefficients as :class:`QScalar`.  All arithmetic is exact; there
is no floating point anywhere in this package.

A QScalar is a numerator/denominator pair of Laurent polynomials in
u = q^{1/scale} (scale supplies the fractional powers q^{1/d} the formulas
need).  Each polynomial is one flat dict {packed key: int}, where the key is
a single int holding the u-exponent and the whole t-exponent vector (packed
exponent vectors in the manner of Monagan and Pearce), so a product of two
terms is one int addition and one int multiplication.  ``_divide`` is the
kernel's one division: by leading terms under the key order, it serves exact
t-polynomial quotients, the gcd cancellation and q = 1 limits.
:class:`TScalar`, the integer polynomials in t, is the same kind of dict
restricted to keys with u-exponent 0 and shares the kernel's sum, product
and division; it is the coefficient type of the commutative layer, of q = 1
limits and of the decoded ``QScalar.num`` / ``QScalar.den`` views, which are
key shifts of the flat pair.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm


# ---------------------------------------------------------------------------
# t-monomials: integer exponent tuples with trailing zeros trimmed, so that
# values built in contexts with different numbers of coefficient variables
# are directly comparable (the constant monomial is always ()).

def tmono(exponents) -> tuple[int, ...]:
    """Canonical t-monomial key: trim trailing zeros."""
    e = tuple(int(x) for x in exponents)
    while e and e[-1] == 0:
        e = e[:-1]
    if any(x < 0 for x in e):
        raise ValueError(f"t-exponents must be nonnegative, got {e}")
    return e


class TScalar:
    """Integer polynomial in the coefficient variables t1, t2, ...

    Stored as a flat packed polynomial (see below) whose keys all have
    u-exponent 0, so sums and products are the kernel's ``_add`` and
    ``_mul``.  The constructor takes {t-monomial tuple: int};
    :meth:`monomials` decodes back to that form.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d = {}
        for mono, c in (terms or {}).items():
            c = int(c)
            if c:
                d = _add(d, {_pack(0, tmono(mono)): c})
        self.terms = d

    @staticmethod
    def _of(d: dict) -> "TScalar":
        out = TScalar.__new__(TScalar)
        out.terms = d
        return out

    # -- constructors -----------------------------------------------------
    @staticmethod
    def integer(n: int) -> "TScalar":
        return TScalar._of({0: n} if n else {})

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return self.terms.keys() <= {0}

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.terms.get(0, 0)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "TScalar") -> "TScalar":
        return TScalar._of(_add(self.terms, other.terms))

    def __neg__(self) -> "TScalar":
        return TScalar._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "TScalar") -> "TScalar":
        return self + (-other)

    def __mul__(self, other: "TScalar") -> "TScalar":
        return TScalar._of(_mul(self.terms, other.terms))

    def scale(self, n: int) -> "TScalar":
        return TScalar._of({k: c * n for k, c in self.terms.items()} if n else {})

    def __eq__(self, other) -> bool:
        return isinstance(other, TScalar) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- structure -----------------------------------------------------------
    def monomials(self) -> dict[tuple[int, ...], int]:
        """The terms as {canonical t-monomial tuple: int}."""
        return {_t_mono(k >> _U_BITS): c for k, c in self.terms.items()}

    def coefficient_sum(self) -> int:
        """Value at t = 1."""
        return sum(self.terms.values())

    def divide(self, b: "TScalar"):
        """self / b when the quotient is a polynomial with integer
        coefficients, else None."""
        q = _divide(self.terms, b.terms)
        return None if q is None else TScalar._of(q)

    def __repr__(self):
        return f"TScalar({self.render()})"

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k, c in sorted(self.monomials().items()):
            mono = "*".join(
                f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}"
                for i, e in enumerate(k) if e
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        s = parts[0]
        for p in parts[1:]:
            s += p if p.startswith("-") else "+" + p
        return s


# ---------------------------------------------------------------------------
# Flat packed polynomials.  A Laurent polynomial in u = q^{1/scale} over Z[t]
# is one dict {key: nonzero int}; the term c * u^e * t1^a1 * t2^a2 * ... has
#
#     key = e + 2^20 * (a1 + 2^10 * a2 + 2^20 * a3 + ...)
#
# with the signed u-exponent e in the low 20 bits and one 10-bit field per
# t-exponent above it.  Since key is that integer, the key of a product of
# two terms is the sum of their keys.  Stored keys keep -2^18 <= e < 2^18 and
# every t-exponent below 2^9, so adding two keys never carries from one
# field into the next; each result is checked and leaving that range raises
# OverflowError instead of wrapping.

_U_BITS = 20
_U_HALF = 1 << (_U_BITS - 1)      # e is decoded from [-_U_HALF, _U_HALF)
_U_MASK = (1 << _U_BITS) - 1
_U_LIMIT = 1 << (_U_BITS - 2)     # stored keys: -_U_LIMIT <= e < _U_LIMIT
_T_BITS = 10
_T_MASK = (1 << _T_BITS) - 1
_T_LIMIT = 1 << (_T_BITS - 1)     # stored t-exponents are below _T_LIMIT
_T_VARS = 16
# For a sum of two stored keys, key + _U_LIMIT has none of these bits set
# exactly when the sum is a stored key again.
_GUARD = _U_HALF | sum(_T_LIMIT << (_U_BITS + _T_BITS * i) for i in range(_T_VARS))

_DEN1 = {0: 1}  # the shared denominator of every polynomial QScalar
_T_ONE = TScalar.integer(1)


def _overflow() -> OverflowError:
    return OverflowError(
        f"exponent outside the packed range (|q-exponent * scale| < {_U_LIMIT}, "
        f"t-exponents < {_T_LIMIT}, at most {_T_VARS} t-variables)")


def _u(key: int) -> int:
    """The u-exponent of a key."""
    return ((key + _U_HALF) & _U_MASK) - _U_HALF


def _pack(e: int, mono: tuple[int, ...]) -> int:
    if not -_U_LIMIT <= e < _U_LIMIT or len(mono) > _T_VARS:
        raise _overflow()
    t = 0
    for i, a in enumerate(mono):
        if not 0 <= a < _T_LIMIT:
            raise _overflow()
        t |= a << (_T_BITS * i)
    return e + (t << _U_BITS)


def _t_mono(t: int) -> tuple[int, ...]:
    """The canonical t-monomial of a key's t-part (key - e) >> _U_BITS."""
    out = []
    while t:
        out.append(t & _T_MASK)
        t >>= _T_BITS
    return tuple(out)


def _t_min(a: int, b: int) -> int:
    """Componentwise minimum of two t-parts."""
    out = shift = 0
    while a and b:
        out |= min(a & _T_MASK, b & _T_MASK) << shift
        a >>= _T_BITS
        b >>= _T_BITS
        shift += _T_BITS
    return out


def _checked(d: dict) -> dict:
    for k in d:
        if (k + _U_LIMIT) & _GUARD:
            raise _overflow()
    return d


def _encode(part: dict, mult: int = 1) -> dict:
    """{exponent: TScalar} -> flat: each TScalar key is shifted by its
    u-exponent, exponent * mult."""
    return {k + _pack(int(e * mult), ()): c
            for e, ts in part.items() for k, c in ts.terms.items()}


def _decode(d: dict) -> dict[int, TScalar]:
    """Flat -> {u-exponent: TScalar}, each key shifted back to u-exponent 0."""
    out: dict[int, TScalar] = {}
    for k, c in d.items():
        e = _u(k)
        ts = out.get(e)
        if ts is None:
            ts = out[e] = TScalar()
        ts.terms[k - e] = c
    return out


def _add(a: dict, b: dict) -> dict:
    if len(a) < len(b):
        a, b = b, a
    d = dict(a)
    get = d.get
    for k, c in b.items():
        v = get(k)
        if v is None:
            d[k] = c
        else:
            v += c
            if v:
                d[k] = v
            else:
                del d[k]
    return d


def _mul(a: dict, b: dict) -> dict:
    if len(a) < len(b):
        a, b = b, a
    d = {}
    get = d.get
    for kb, cb in b.items():
        for ka, ca in a.items():
            k = ka + kb
            v = get(k)
            if v is None:
                if (k + _U_LIMIT) & _GUARD:
                    raise _overflow()
                d[k] = ca * cb
            else:
                v += ca * cb
                if v:
                    d[k] = v
                else:
                    del d[k]
    return d


def _divide(a: dict, b: dict):
    """a / b for flat polynomials with nonnegative exponents, by leading
    terms under the key order (lex, highest field first): the quotient when
    it has nonnegative exponents and integer coefficients, else None.  The
    kernel's one division; a working key out of range raises OverflowError."""
    if not b:
        raise ZeroDivisionError("division by zero")
    kb = max(b)
    cb = b[kb]
    rest = [(k - kb, c) for k, c in b.items() if k != kb]
    work = dict(a)
    get = work.get
    q = {}
    while work:
        k = max(work)
        c = work.pop(k)
        # a quotient key is a stored key with nonnegative exponents exactly
        # when no t-field borrows and its u-exponent is not negative
        d = k - kb
        if (d + _U_LIMIT) & _GUARD or _u(d) < 0 or c % cb:
            return None
        f = q[d] = c // cb
        for r, cr in rest:
            kr = k + r
            v = get(kr)
            if v is None:
                if (kr + _U_LIMIT) & _GUARD:
                    raise _overflow()
                work[kr] = -f * cr
            else:
                v -= f * cr
                if v:
                    work[kr] = v
                else:
                    del work[kr]
    return q


def _rescale(d: dict, f: int) -> dict:
    """u -> u^f (a finer scale)."""
    if f == 1 or d is _DEN1:
        return d
    out = {}
    for k, c in d.items():
        e = _u(k)
        if not -_U_LIMIT <= e * f < _U_LIMIT:
            raise _overflow()
        out[k + e * (f - 1)] = c
    return out


def _reduce_scale(n: dict, d: dict, scale: int):
    """Divide every u-exponent and the scale by their common gcd."""
    g = scale
    for part in (n, d):
        for k in part:
            g = gcd(g, ((k + _U_HALF) & _U_MASK) - _U_HALF)  # _u(k), inlined
            if g == 1:
                return n, d, scale
    return _divide_u(n, g), _divide_u(d, g), scale // g


def _divide_u(d: dict, g: int) -> dict:
    """u^e -> u^(e/g) for every term; g divides every u-exponent."""
    if d is _DEN1:
        return d
    out = {}
    for k, c in d.items():
        e = _u(k)
        out[k - e + e // g] = c
    return out


# -- integer univariate gcd for gcd cancellation.

def _int_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd in Z[x] via primitive pseudo-remainder sequences.

    Coefficient lists are little-endian; result is primitive with positive
    leading coefficient.
    """

    def content(p):
        g = 0
        for c in p:
            g = gcd(g, c)
        return abs(g)

    def primitive(p):
        p = list(p)
        while p and p[-1] == 0:
            p.pop()
        c = content(p)
        if c > 1:
            p = [x // c for x in p]
        if p and p[-1] < 0:
            p = [-x for x in p]
        return p

    def pseudo_rem(p, q):
        p = list(p)
        dq = len(q) - 1
        lq = q[-1]
        while len(p) - 1 >= dq and p:
            dp = len(p) - 1
            lp = p[-1]
            p = [c * lq for c in p]
            for i, c in enumerate(q):
                p[dp - dq + i] -= lp * c
            while p and p[-1] == 0:
                p.pop()
        return p

    a, b = primitive(a), primitive(b)
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = primitive(pseudo_rem(a, b))
        a, b = b, r
    return primitive(a)


class QScalar:
    """Exact element of the fraction field of Laurent polynomials in q over
    Z[t1, ..., tr].

    The representation is a normalized numerator/denominator pair of flat
    packed polynomials in u = q^{1/scale} (see above): the scale is divided
    by the gcd of all u-exponents, the denominator has minimal u-exponent 0,
    num and den share no t-monomial or integer content, nontrivial t-free
    denominators are reduced by a polynomial gcd, and in the denominator's
    trailing coefficient the lex-first t-monomial has a positive
    coefficient.  Engine-produced equal values compare equal structurally;
    ``__eq__`` nevertheless cross-multiplies, so equality is exact
    regardless.  ``num`` and ``den`` decode the pair to
    {u-exponent: TScalar}.
    """

    __slots__ = ("_num", "_den", "scale")

    # PRS gcd cost explodes on very high degree polynomials; past this bound
    # the fraction is kept unreduced (still exact, equality by cross-multiply).
    _GCD_DEGREE_CAP = 96

    def __init__(self, num=None, den=None, scale: int = 1):
        """num/den: {Fraction or int exponent: TScalar} when scale == 1,
        or {int key: TScalar} with exponent key/scale."""
        if num is None:
            num = {}
        if den is None:
            den = {0: _T_ONE}
        mult = 1
        if scale == 1:
            mult = scale = lcm(*(e.denominator for e in (*num, *den)
                                 if isinstance(e, Fraction)))
        self._num, self._den, self.scale = self._normalize(
            _encode(num, mult), _encode(den, mult), scale)

    @staticmethod
    def _make(num: dict, den: dict, scale: int) -> "QScalar":
        out = QScalar.__new__(QScalar)
        out._num, out._den, out.scale = num, den, scale
        return out

    @staticmethod
    def _raw(num: dict, den: dict, scale: int) -> "QScalar":
        return QScalar._make(*QScalar._normalize(num, den, scale))

    @property
    def num(self) -> dict[int, TScalar]:
        return _decode(self._num)

    @property
    def den(self) -> dict[int, TScalar]:
        return _decode(self._den)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def integer(n: int) -> "QScalar":
        return QScalar._make({0: n} if n else {}, _DEN1, 1)

    @staticmethod
    def rational(p: int, q: int) -> "QScalar":
        return QScalar._raw({0: p} if p else {}, {0: q} if q else {}, 1)

    @staticmethod
    def q_power(e) -> "QScalar":
        return QScalar.term(e, ())

    @staticmethod
    def t_monomial(exponents, coeff: int = 1) -> "QScalar":
        return QScalar.term(0, exponents, coeff)

    @staticmethod
    def term(qexp, texp, coeff: int = 1) -> "QScalar":
        """coeff * q^qexp * t^texp"""
        e = Fraction(qexp)
        num = {_pack(e.numerator, tmono(texp)): coeff} if coeff else {}
        return QScalar._raw(num, _DEN1, e.denominator)

    # -- normalization ------------------------------------------------------
    @staticmethod
    def _normalize(num: dict, den: dict, scale: int):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return {}, _DEN1, 1
        if scale != 1:
            num, den, scale = _reduce_scale(num, den, scale)
        # fast path: denominator exactly 1 needs no content/gcd/sign work
        if den is _DEN1 or (len(den) == 1 and den.get(0) == 1):
            return num, _DEN1, scale

        # common t-monomial content
        tc = None
        for part in (num, den):
            for k in part:
                t = (k + _U_HALF) >> _U_BITS
                tc = t if tc is None else _t_min(tc, t)
                if not tc:
                    break
            if not tc:
                break
        if tc:
            tc <<= _U_BITS
            num = {k - tc: c for k, c in num.items()}
            den = {k - tc: c for k, c in den.items()}

        # anchor denominator at exponent 0
        shift = min(map(_u, den))
        if shift:
            num = _checked({k - shift: c for k, c in num.items()})
            den = _checked({k - shift: c for k, c in den.items()})

        # integer content
        g = gcd(*num.values(), *den.values())
        if g > 1:
            num = {k: c // g for k, c in num.items()}
            den = {k: c // g for k, c in den.items()}

        # polynomial gcd when the denominator is a nontrivial t-free poly
        # (a key is t-free exactly when it is below _U_HALF); cancelling can
        # coarsen the exponents, so the scale is then reduced again
        if len(den) > 1 and max(den) < _U_HALF:
            cancelled = QScalar._cancel_poly_gcd(num, den)
            if cancelled[1] is not den:
                num, den = cancelled
                if scale != 1:
                    num, den, scale = _reduce_scale(num, den, scale)

        # positive lex-first coefficient of the trailing (u^0) coefficient;
        # the constant t-monomial, key 0, is lex-first when present
        lead = den.get(0)
        if lead is None:
            lead = den[min((k for k in den if not _u(k)),
                           key=lambda k: _t_mono(k >> _U_BITS))]
        if lead < 0:
            num = {k: -c for k, c in num.items()}
            den = {k: -c for k, c in den.items()}
        if len(den) == 1 and den.get(0) == 1:
            den = _DEN1
        return num, den, scale

    @staticmethod
    def _past_gcd_cap(num_exps, den: dict) -> bool:
        """True when the gcd of a t-free denominator with a numerator whose
        u-exponents are num_exps is not computed: either one spans more than
        _GCD_DEGREE_CAP in u."""
        return max(den) > QScalar._GCD_DEGREE_CAP or \
            max(num_exps) - min(num_exps) > QScalar._GCD_DEGREE_CAP

    @staticmethod
    def _cancel_poly_gcd(num: dict, den: dict):
        """Cancel the gcd of a t-free denominator (whose keys are its
        u-exponents) with every t-monomial slice of the numerator."""
        es = {k: _u(k) for k in num}
        if QScalar._past_gcd_cap(es.values(), den):
            return num, den
        num_min = min(es.values())

        # slice the numerator per t-monomial, offset by its minimal exponent
        slices: dict[int, dict[int, int]] = {}
        for k, c in num.items():
            e = es[k]
            slices.setdefault(k - e, {})[e - num_min] = c
        g = [den.get(i, 0) for i in range(max(den) + 1)]
        for sl in slices.values():
            g = _int_poly_gcd(g, [sl.get(i, 0) for i in range(max(sl) + 1)])
            if len(g) <= 1:
                return num, den
        g = {i: c for i, c in enumerate(g) if c}
        # den has a nonzero constant term, so the quotient keeps one too;
        # the numerator is divided shifted to u-exponents >= 0
        new_den = _divide(den, g)
        new_num = _divide({k - num_min: c for k, c in num.items()}, g)
        if new_den is None or new_num is None:
            return num, den
        return {k + num_min: c for k, c in new_num.items()}, new_den

    # -- predicates ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        return self._num == self._den

    def is_polynomial(self) -> bool:
        return self._den is _DEN1

    def is_monomial(self) -> bool:
        """Single term c * q^e * t^mono over an integer denominator."""
        return len(self._num) == 1 and len(self._den) == 1 and 0 in self._den

    # -- arithmetic -----------------------------------------------------------
    def _aligned(self, other: "QScalar"):
        L = lcm(self.scale, other.scale)
        ka, kb = L // self.scale, L // other.scale
        return (_rescale(self._num, ka), _rescale(self._den, ka),
                _rescale(other._num, kb), _rescale(other._den, kb), L)

    def __add__(self, other):
        if other.__class__ is not QScalar:
            other = _coerce(other)
        if self.scale == other.scale:
            na, da, nb, db, L = self._num, self._den, other._num, other._den, self.scale
        else:
            na, da, nb, db, L = self._aligned(other)
        if da is db or da == db:
            return QScalar._raw(_add(na, nb), da, L)
        return QScalar._raw(_add(_mul(na, db), _mul(nb, da)), _mul(da, db), L)

    __radd__ = __add__

    def __neg__(self):
        return QScalar._raw({k: -c for k, c in self._num.items()}, self._den,
                            self.scale)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if other.__class__ is not QScalar:
            other = _coerce(other)
        if self.scale == other.scale:
            na, da, nb, db, L = self._num, self._den, other._num, other._den, self.scale
        else:
            na, da, nb, db, L = self._aligned(other)
        num = _mul(na, nb)
        if da is _DEN1 and db is _DEN1:
            if L == 1 or not num:
                return QScalar._make(num, _DEN1, L if num else 1)
            return QScalar._make(*_reduce_scale(num, _DEN1, L))
        return QScalar._raw(num, db if da is _DEN1 else
                            da if db is _DEN1 else _mul(da, db), L)

    __rmul__ = __mul__

    def _qshift(self, w: int, d: int) -> "QScalar":
        """self * q^(w/d), structurally equal to ``self * qpow(Fraction(w, d))``.

        Multiplying by a power of q only moves numerator exponents: the
        pair is rescaled to a common scale, the shift is added to every
        numerator key and the scale is re-reduced.  The denominator, the
        contents and the sign are unchanged."""
        if not w or not self._num:
            return self
        g = gcd(w, d)
        dw = d // g
        L = lcm(self.scale, dw)
        f = L // self.scale
        s = w // g * (L // dw)
        if not -_U_LIMIT <= s < _U_LIMIT:
            raise _overflow()
        num, den = self._num, self._den
        if f != 1:
            num, den = _rescale(num, f), _rescale(den, f)
        num = _checked({k + s: c for k, c in num.items()})
        if L == 1:
            return QScalar._make(num, den, 1)
        num, den, scale = _reduce_scale(num, den, L)
        # a pair left unreduced at the gcd cap may fall under it once the
        # scale coarsens; the full normalization then cancels the gcd
        if scale != L and len(den) > 1 and max(den) < _U_HALF \
                and QScalar._past_gcd_cap(list(map(_u, self._num)), self._den):
            return QScalar._raw(num, den, scale)
        return QScalar._make(num, den, scale)

    def inverse(self) -> "QScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return QScalar._raw(self._den, self._num, self.scale)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = QScalar.integer(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, (QScalar, int)):
            return NotImplemented
        other = _coerce(other)
        if self.scale == other.scale and self._num == other._num \
                and self._den == other._den:
            return True
        na, da, nb, db, _ = self._aligned(other)
        return _mul(na, db) == _mul(nb, da)

    def __hash__(self):
        raise TypeError("QScalar is not hashable")

    # -- involution and specializations ---------------------------------------
    def bar(self) -> "QScalar":
        """q -> q^{-1}, t fixed."""
        def flip(d):
            return _checked({k - 2 * _u(k): c for k, c in d.items()})
        return QScalar._raw(flip(self._num), flip(self._den), self.scale)

    def subs_t_one(self) -> "QScalar":
        def t_one(d):
            out = {}
            for k, c in d.items():
                e = _u(k)
                out[e] = out.get(e, 0) + c
            return {e: c for e, c in out.items() if c}
        return QScalar._raw(t_one(self._num), t_one(self._den), self.scale)

    def map_q_exponents(self, f) -> "QScalar":
        """Apply a relabeling e -> f(e) to every q-exponent (e a Fraction)."""
        parts = []
        for part in (self.num, self.den):
            out: dict[Fraction, TScalar] = {}
            for e, c in part.items():
                e2 = Fraction(f(Fraction(e, self.scale)))
                out[e2] = out[e2] + c if e2 in out else c
            parts.append(out)
        return QScalar(*parts)

    def limit_q1(self) -> TScalar:
        """Exact evaluation at q = 1 (every q-power goes to 1).

        Raises QPoleError carrying the pole order if the value has a pole at
        q = 1, and ValueError if the finite limit is not an integer
        polynomial in t.
        """
        nv, dv = self.limit_q1_pair()
        out = nv.divide(dv)
        if out is not None:
            return out
        raise ValueError(f"q=1 limit is not polynomial in t: {self.render()}")

    def limit_q1_pair(self) -> tuple[TScalar, TScalar]:
        """Exact q=1 limit as a ratio of t-polynomials (num, den)."""
        if self.is_zero():
            return TScalar(), _T_ONE
        on, nv = _q1_expansion(self._num)
        od, dv = _q1_expansion(self._den)
        if on < od:
            raise QPoleError(od - on)
        if on > od:
            return TScalar(), _T_ONE
        return nv, dv

    def divide_exact_qminus1(self) -> "QScalar":
        """Return self / (q - 1); requires self to vanish at q = 1."""
        if self.is_zero():
            return self
        if _q1_expansion(self._num)[0] <= _q1_expansion(self._den)[0]:
            raise ValueError("value does not vanish at q = 1")
        qm1 = {self.scale: 1, 0: -1}
        return QScalar._raw(self._num, _mul(self._den, qm1), self.scale)

    # -- rendering -------------------------------------------------------------
    def render(self, base: str = "q") -> str:
        if self.is_zero():
            return "0"
        n = _render_laurent(self.num, self.scale, base)
        if self.is_polynomial():
            return n
        d = _render_laurent(self.den, self.scale, base)
        if len(self._num) > 1:
            n = f"({n})"
        if len(self._den) > 1:
            d = f"({d})"
        return f"{n}/{d}"

    def render_v(self) -> str:
        """Render with v = q^{-1/2} as the display unit (BZ-side tori)."""
        return self.map_q_exponents(lambda e: -2 * e).render(base="v")

    def __repr__(self):
        return f"QScalar({self.render()})"

class QPoleError(ArithmeticError):
    """Raised when a q=1 limit hits a pole; carries the pole order."""

    def __init__(self, order: int):
        super().__init__(f"pole of order {order} at q = 1")
        self.order = order


def _q1_expansion(d: dict) -> tuple[int, TScalar]:
    """The order k at u = 1 of a nonzero flat polynomial d and g(1), where
    d = u^e_min (u - 1)^k g: by Taylor's formula at u = 1, g(1) is the sum of
    c_i * C(i - e_min, k) over the terms c_i u^i, the first such sum that is
    not zero."""
    es = [(k, _u(k), c) for k, c in d.items()]
    emin = min(e for _, e, _ in es)
    order = 0
    while True:
        value = {}
        for k, e, c in es:
            b = comb(e - emin, order)
            if b:
                value[k - e] = value.get(k - e, 0) + b * c
        value = {k: c for k, c in value.items() if c}
        if value:
            return order, TScalar._of(value)
        order += 1


def _render_laurent(part: dict, scale: int, base: str) -> str:
    pieces = []
    for k in sorted(part):
        c = part[k]
        e = Fraction(k, scale)
        if e == 0:
            pieces.append(c.render())
            continue
        if e.denominator == 1:
            pw = f"{base}" if e == 1 else f"{base}^{e}"
        else:
            pw = f"{base}^{{{e}}}"
        cs = c.render()
        if cs == "1":
            pieces.append(pw)
        elif cs == "-1":
            pieces.append(f"-{pw}")
        elif "+" in cs[1:] or "-" in cs[1:]:
            pieces.append(f"({cs})*{pw}")
        else:
            pieces.append(f"{cs}*{pw}")
    s = pieces[0]
    for p in pieces[1:]:
        s += p if p.startswith("-") else "+" + p
    return s


def _coerce(x) -> QScalar:
    if isinstance(x, QScalar):
        return x
    if isinstance(x, int):
        return QScalar.integer(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to QScalar")


ZERO = QScalar()
ONE = QScalar.integer(1)


def qpow(e) -> QScalar:
    """q^e for an integer or Fraction exponent."""
    return QScalar.q_power(Fraction(e))


def vpow(e) -> QScalar:
    """v^e with v = q^{-1/2}, the display unit of Berenstein-Zelevinsky tori."""
    return QScalar.q_power(Fraction(-e, 2))


def tvar(i: int) -> QScalar:
    """The coefficient variable t_{i+1} (0-indexed)."""
    exps = [0] * (i + 1)
    exps[i] = 1
    return QScalar.t_monomial(exps)


def tpow(vec) -> QScalar:
    """t^vec for a vector of (possibly negative) integer exponents: negative
    entries go to the denominator."""
    pos = [max(int(x), 0) for x in vec]
    neg = [max(-int(x), 0) for x in vec]
    out = QScalar.t_monomial(pos)
    if any(neg):
        out = out / QScalar.t_monomial(neg)
    return out
