"""Exact base ring: fractions of Laurent polynomials in q (rational exponents)
whose coefficients are integer polynomials in coefficient variables t1, t2, ...

Everything downstream (quantum tori, mutation, scattering, theta functions)
stores its coefficients as :class:`QScalar`.  All arithmetic is exact; there
is no floating point anywhere in this package.

Every polynomial here is a Laurent polynomial in u = q^{1/scale} over Z[t],
held as one flat dict {packed key: nonzero int}: the key is a single int
holding the u-exponent and the whole t-exponent vector (packed exponent
vectors in the manner of Monagan and Pearce), so a product of two terms is
one int addition and one int multiplication.  There is one key layout,
described below, for all of them:

- A :class:`QScalar` is a normalized numerator/denominator pair of such
  dicts; its normal form holds only nonnegative t-exponents.
- A :class:`TScalar`, an integer polynomial in t, is one such dict whose
  keys all have u-exponent 0; it is the coefficient type of q = 1 limits
  and of the decoded ``QScalar.num`` / ``QScalar.den`` views.
- The ``flat_*`` functions are the flat Laurent ring of word expansions
  and scattering crossings (expansion.py, scatter.py): the same dicts with
  signed t-exponents, at one scale per expansion or diagram, and no normal
  form.  ``flat_pair`` and ``flat_qscalar`` convert to and from
  QScalar without re-keying.
- A ``CPoly`` of commutative.py is one such dict with u-exponent 0 and its
  X-exponents in signed fields above the t-fields (``x_key``, ``x_part``).

``flat_add`` and ``flat_mul`` are the one sum and product; ``flat_divide`` is
the one division: by leading terms under the key order, it serves exact
t-polynomial and commutative quotients, the gcd cancellation and q = 1
limits.  ``render_sum`` is the one printer of a sum of terms, for all of the
above and for quantum torus elements.
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


# ---------------------------------------------------------------------------
# The key layout.  The term c * u^e * t1^a1 * ... * t16^a16 * X1^x1 * ... *
# Xr^xr has
#
#     key = e + 2^32 * (a1 + 2^12 * a2 + ... + 2^180 * a16)
#             + 2^224 * (xr + 2^12 * x(r-1) + ... + 2^(12 (r-1)) * x1)
#
# with -2^30 <= e < 2^30 and -2^10 <= a_i, x_i < 2^10 in stored keys, and
# r <= 16.  Each field is decoded from its balanced residue, so a key is that
# integer sum and the key of a product is the sum of the factors' keys.  For
# nonnegative exponents, integer order on keys is lex order on (x1, ..., xr,
# ..., a2, a1, e), highest field first.  The kernel adds at most three stored
# keys; in such a sum each field stays within three times its limit, so
# adding _OFFSET (each field's limit) leaves every field's guard bit (twice
# its limit) clear exactly when the sum is a stored key again, and leaving
# the range raises OverflowError instead of wrapping.

_U_BITS = 32
_U_HALF = 1 << (_U_BITS - 1)      # e is decoded from [-_U_HALF, _U_HALF)
_U_MASK = (1 << _U_BITS) - 1
_U_LIMIT = 1 << 30
_T_BITS = 12
_T_HALF = 1 << (_T_BITS - 1)
_T_MASK = (1 << _T_BITS) - 1
_T_LIMIT = 1 << 10
_T_VARS = 16
# an X-monomial's key is a t-monomial's key shifted up by _X_UP bits
_X_UP = _T_BITS * _T_VARS
_X_HALF = 1 << (_U_BITS + _X_UP - 1)
_X_LOW = 2 * _X_HALF - 1           # the u- and t-fields below the X-fields
_T_OFFSET = sum(_T_LIMIT << (_U_BITS + _T_BITS * i) for i in range(_T_VARS))
_OFFSET = _U_LIMIT + _T_OFFSET + (_T_OFFSET << _X_UP)
_GUARD = 2 * _OFFSET
_T_GUARD = 2 * _T_OFFSET

FLAT_ONE = {0: 1}  # the shared denominator 1; nothing writes into it


def _overflow() -> OverflowError:
    return OverflowError(
        f"exponent outside the packed range (-{_U_LIMIT} <= q-exponent * scale "
        f"< {_U_LIMIT}, -{_T_LIMIT} <= t- or X-exponent < {_T_LIMIT}, at most "
        f"{_T_VARS} t- and {_T_VARS} X-variables)")


def _u(key: int) -> int:
    """The u-exponent of a key."""
    return ((key + _U_HALF) & _U_MASK) - _U_HALF


def _fields(key: int) -> tuple[int, tuple[int, ...]]:
    """The u-exponent of a key and its t-exponents, the last nonzero."""
    e = _u(key)
    t = (key - e) >> _U_BITS
    mono = []
    while t:
        if len(mono) == _T_VARS:
            raise _overflow()
        a = ((t + _T_HALF) & _T_MASK) - _T_HALF
        mono.append(a)
        t = (t - a) >> _T_BITS
    return e, tuple(mono)


def _nonnegative(key: int) -> bool:
    """Whether a sum of at most three stored keys is a stored key with
    nonnegative exponents: every field of key + _OFFSET has its guard bit
    clear and its _OFFSET bit set."""
    return (key + _OFFSET) & (_GUARD | _OFFSET) == _OFFSET


def _t_content(ts) -> int:
    """The componentwise minimum of t-parts (stored keys with u-exponent 0,
    t-exponents of any sign), as a key.  Adding _T_OFFSET turns every field
    into its biased value a + 2^10, in [0, 2^11); in x + _T_GUARD - y each
    field is then x_i + 2^11 - y_i, in (0, 2^12), so no field borrows from
    the next and its guard bit is set exactly where x_i >= y_i."""
    it = iter(ts)
    low = next(it) + _T_OFFSET
    for t in it:
        t += _T_OFFSET
        ge = (low + _T_GUARD - t) & _T_GUARD
        # the value bits of every field where low >= t, taken from t
        low ^= (low ^ t) & (ge - (ge >> (_T_BITS - 1)))
    return low - _T_OFFSET


def _pack(e: int, mono) -> int:
    if not -_U_LIMIT <= e < _U_LIMIT or len(mono) > _T_VARS:
        raise _overflow()
    for i, a in enumerate(mono):
        if not -_T_LIMIT <= a < _T_LIMIT:
            raise _overflow()
        e += a << (_U_BITS + _T_BITS * i)
    return e


def x_key(exponents) -> int:
    """The key of the X-monomial X^exponents, X1 in the highest field."""
    return _pack(0, exponents[::-1]) << _X_UP


def x_part(key: int) -> int:
    """The key of a stored key's X-monomial."""
    return (key + _X_HALF) & ~_X_LOW


def x_exponents(xkey: int, rank: int) -> tuple[int, ...]:
    """The exponent tuple of an X-monomial's key in ``rank`` variables."""
    mono = _fields(xkey >> _X_UP)[1]
    return (mono + (0,) * (rank - len(mono)))[::-1]


def x_content(xkeys) -> int:
    """The componentwise minimum of X-monomials' keys, as a key."""
    return _t_content([x >> _X_UP for x in xkeys]) << _X_UP


# ---------------------------------------------------------------------------
# The printer of a sum of terms.

_T_LABELS = tuple(f"t{i + 1}" for i in range(_T_VARS))


def render_monomial(labels, exponents) -> str:
    """x1^e1*x2^e2*... over the nonzero exponents, "" for the monomial 1."""
    return "*".join(labels[i] if e == 1 else f"{labels[i]}^{e}"
                    for i, e in enumerate(exponents) if e)


def render_sum(terms) -> str:
    """The sum of (coefficient, monomial, compound) string terms, in order.
    A term with monomial "" is its coefficient; a coefficient 1 or -1 shows
    as its monomial's sign, and a compound one (a sum) is parenthesized
    before its monomial.  Terms are joined by their signs; no term is 0."""
    parts = []
    for c, mono, compound in terms:
        if not mono:
            parts.append(c)
        elif c == "1":
            parts.append(mono)
        elif c == "-1":
            parts.append("-" + mono)
        else:
            parts.append(f"({c})*{mono}" if compound else f"{c}*{mono}")
    if not parts:
        return "0"
    return parts[0] + "".join(p if p[0] == "-" else "+" + p for p in parts[1:])


class TScalar:
    """Integer polynomial in the coefficient variables t1, t2, ...

    Stored as a flat packed polynomial (see above) whose keys all have
    u-exponent 0, so sums and products are the kernel's ``flat_add`` and
    ``flat_mul``.  The constructor takes {t-monomial tuple: int};
    :meth:`monomials` decodes back to that form.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d = {}
        for mono, c in (terms or {}).items():
            c = int(c)
            if c:
                k = _pack(0, tmono(mono))
                c += d.get(k, 0)
                if c:
                    d[k] = c
                else:
                    del d[k]
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

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "TScalar") -> "TScalar":
        return TScalar._of(flat_add(self.terms, other.terms))

    def __neg__(self) -> "TScalar":
        return TScalar._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "TScalar") -> "TScalar":
        return self + (-other)

    def __mul__(self, other: "TScalar") -> "TScalar":
        return TScalar._of(flat_mul(self.terms, other.terms))

    def scale(self, n: int) -> "TScalar":
        return TScalar._of({k: c * n for k, c in self.terms.items()} if n else {})

    def __eq__(self, other) -> bool:
        return isinstance(other, TScalar) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- structure -----------------------------------------------------------
    def monomials(self) -> dict[tuple[int, ...], int]:
        """The terms as {canonical t-monomial tuple: int}."""
        return {_fields(k)[1]: c for k, c in self.terms.items()}

    def divide(self, b: "TScalar"):
        """self / b when the quotient is a polynomial with integer
        coefficients, else None."""
        q = flat_divide(self.terms, b.terms)
        return None if q is None else TScalar._of(q)

    def __repr__(self):
        return f"TScalar({self.render()})"

    def render(self) -> str:
        return render_sum((str(c), render_monomial(_T_LABELS, m), False)
                          for m, c in sorted(self.monomials().items()))


_T_ONE = TScalar.integer(1)


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


def flat_add(a: dict, b: dict) -> dict:
    """a + b, a new dict; a coefficient that cancels is removed."""
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


def flat_divide(a: dict, b: dict):
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
        d = k - kb
        if not _nonnegative(d) or c % cb:
            return None
        f = q[d] = c // cb
        for r, cr in rest:
            kr = k + r
            v = get(kr)
            if v is None:
                if (kr + _OFFSET) & _GUARD:
                    raise _overflow()
                work[kr] = -f * cr
            else:
                v -= f * cr
                if v:
                    work[kr] = v
                else:
                    del work[kr]
    return q


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
    if d is FLAT_ONE:
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
        mult = 1
        if scale == 1:
            mult = scale = lcm(*(e.denominator for e in (*num, *(den or ()))
                                 if isinstance(e, Fraction)))
        self._num, self._den, self.scale = self._normalize(
            _encode(num, mult), FLAT_ONE if den is None else _encode(den, mult), scale)

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
        return QScalar._make({0: n} if n else {}, FLAT_ONE, 1)

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
        return QScalar._raw(num, FLAT_ONE, e.denominator)

    # -- normalization ------------------------------------------------------
    @staticmethod
    def _normalize(num: dict, den: dict, scale: int):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return {}, FLAT_ONE, 1
        # fast path: the shared denominator 1, which comes only with
        # nonnegative t-exponents, needs no content/gcd/sign work
        if den is FLAT_ONE:
            if scale != 1:
                num, _, scale = _reduce_scale(num, FLAT_ONE, scale)
            return num, FLAT_ONE, scale

        # one monomial moves both: it strips the common t-content (the
        # componentwise minimum of the t-exponents, which flat input may
        # hold negative) and anchors the denominator at exponent 0
        m = min(map(_u, den))
        ts = {(k + _U_HALF) & ~_U_MASK for part in (num, den) for k in part}
        if 0 not in ts or not all(map(_nonnegative, ts)):
            m += _t_content(ts)
        if m:
            num, den = flat_shift(num, -m), flat_shift(den, -m)
        # the scale is reduced after the anchoring, which can coarsen it
        if scale != 1:
            num, den, scale = _reduce_scale(num, den, scale)

        # integer content
        g = gcd(*num.values(), *den.values())
        if g > 1:
            num = {k: c // g for k, c in num.items()}
            den = {k: c // g for k, c in den.items()}

        # polynomial gcd when the denominator is a nontrivial t-free poly
        # (a key is t-free exactly when it is below _U_LIMIT); cancelling can
        # coarsen the exponents, so the scale is then reduced again
        if len(den) > 1 and max(den) < _U_LIMIT:
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
                           key=lambda k: _fields(k)[1])]
        if lead < 0:
            num = {k: -c for k, c in num.items()}
            den = {k: -c for k, c in den.items()}
        if len(den) == 1 and den.get(0) == 1:
            den = FLAT_ONE
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
        new_den = flat_divide(den, g)
        new_num = flat_divide({k - num_min: c for k, c in num.items()}, g)
        if new_den is None or new_num is None:
            return num, den
        return {k + num_min: c for k, c in new_num.items()}, new_den

    # -- predicates ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        return self._num == self._den

    def is_polynomial(self) -> bool:
        return self._den is FLAT_ONE

    def is_monomial(self) -> bool:
        """Single term c * q^e * t^mono over an integer denominator."""
        return len(self._num) == 1 and len(self._den) == 1 and 0 in self._den

    # -- arithmetic -----------------------------------------------------------
    def _aligned(self, other: "QScalar"):
        L = lcm(self.scale, other.scale)
        ka, kb = L // self.scale, L // other.scale
        return (flat_rescale(self._num, ka), flat_rescale(self._den, ka),
                flat_rescale(other._num, kb), flat_rescale(other._den, kb), L)

    def __add__(self, other):
        if other.__class__ is not QScalar:
            other = _coerce(other)
        if self.scale == other.scale:
            na, da, nb, db, L = self._num, self._den, other._num, other._den, self.scale
        else:
            na, da, nb, db, L = self._aligned(other)
        if da is db or da == db:
            return QScalar._raw(flat_add(na, nb), da, L)
        return QScalar._raw(flat_add(flat_mul(na, db), flat_mul(nb, da)), flat_mul(da, db), L)

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
        num = flat_mul(na, nb)
        if da is FLAT_ONE and db is FLAT_ONE:
            if L == 1 or not num:
                return QScalar._make(num, FLAT_ONE, L if num else 1)
            return QScalar._make(*_reduce_scale(num, FLAT_ONE, L))
        return QScalar._raw(num, db if da is FLAT_ONE else
                            da if db is FLAT_ONE else flat_mul(da, db), L)

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
        num, den = flat_rescale(self._num, f), flat_rescale(self._den, f)
        num = flat_shift(num, 0, e=w // g * (L // dw))
        if L == 1:
            return QScalar._make(num, den, 1)
        num, den, scale = _reduce_scale(num, den, L)
        # a pair left unreduced at the gcd cap may fall under it once the
        # scale coarsens; the full normalization then cancels the gcd
        if scale != L and len(den) > 1 and max(den) < _U_LIMIT \
                and QScalar._past_gcd_cap(list(map(_u, self._num)), self._den):
            return QScalar._raw(num, den, scale)
        return QScalar._make(num, den, scale)

    def inverse(self) -> "QScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # a numerator 1 becomes the shared denominator 1 and its shortcut
        num = self._num
        return QScalar._raw(self._den, FLAT_ONE if num == FLAT_ONE else num, self.scale)

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
        return flat_mul(na, db) == flat_mul(nb, da)

    def __hash__(self):
        raise TypeError("QScalar is not hashable")

    # -- involution and specializations ---------------------------------------
    def bar(self) -> "QScalar":
        """q -> q^{-1}, t fixed."""
        return self.subs_q(-1)

    def subs_q(self, c) -> "QScalar":
        """q -> q^c, t fixed, for a nonzero Fraction or integer c: every
        u-exponent is multiplied by c's numerator and the scale by its
        denominator."""
        c = Fraction(c)
        if not c:
            raise ValueError("q -> q^0 is not a substitution of q-exponents")
        n = c.numerator
        return QScalar._raw(flat_rescale(self._num, n), flat_rescale(self._den, n),
                            self.scale * c.denominator)

    def subs_t_one(self) -> "QScalar":
        def t_one(d):
            out = {}
            for k, c in d.items():
                e = _u(k)
                out[e] = out.get(e, 0) + c
            return {e: c for e, c in out.items() if c}
        return QScalar._raw(t_one(self._num), t_one(self._den), self.scale)

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
        return QScalar._raw(self._num, flat_mul(self._den, qm1), self.scale)

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
        return self.subs_q(-2).render(base="v")

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
    terms = []
    for k in sorted(part):
        c = part[k]
        e = Fraction(k, scale)
        if e == 0:
            pw = ""
        elif e.denominator == 1:
            pw = f"{base}" if e == 1 else f"{base}^{e}"
        else:
            pw = f"{base}^{{{e}}}"
        terms.append((c.render(), pw, len(c.terms) > 1))
    return render_sum(terms)


def _coerce(x) -> QScalar:
    if isinstance(x, QScalar):
        return x
    if isinstance(x, int):
        return QScalar.integer(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to QScalar")


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
    den = {_pack(0, tmono(neg)): 1} if any(neg) else FLAT_ONE
    return QScalar._raw({_pack(0, tmono(pos)): 1}, den, 1)


# ---------------------------------------------------------------------------
# The flat Laurent ring Z[u^{+-1}, t1^{+-1}, t2^{+-1}, ...] of word expansions
# and scattering crossings (expansion.py).  One expansion or diagram fixes one
# scale L, u = q^{1/L}, and holds every coefficient as one dict in the key
# layout above, with signed t-exponents, so that a monomial t-denominator is
# a negative exponent and a product never leaves the ring.


def flat_pair(x: QScalar, scale: int) -> tuple[dict, dict]:
    """x = num / den in the flat ring at ``scale``, a multiple of x.scale.

    A monomial denominator c * u^e * t^a is moved into the numerator as the
    exponent -(e, a), leaving den = {0: c}, which is FLAT_ONE when c is 1;
    any other denominator is returned as it is.  num and den are new dicts,
    or den the shared FLAT_ONE, so that the flat kernel never writes into
    x's."""
    f, r = divmod(scale, x.scale)
    if r:
        raise ValueError(f"scale {scale} is not a multiple of {x.scale}")
    num, den = flat_rescale(x._num, f), flat_rescale(x._den, f)
    if len(den) == 1:
        (kd, c), = den.items()
        return flat_shift(num, -kd), (FLAT_ONE if c == 1 else {0: c})
    return (dict(num), dict(den)) if f == 1 else (num, den)


def flat_shift(a: dict, key: int, sign: int = 1, e: int = 0) -> dict:
    """sign * a * u^e * (the monomial with key ``key``, a stored key or the
    negative of one), a new dict."""
    if not -_U_LIMIT <= e < _U_LIMIT:
        raise _overflow()
    key += e
    out = {}
    for k, c in a.items():
        k += key
        if (k + _OFFSET) & _GUARD:
            raise _overflow()
        out[k] = c * sign
    return out


def flat_rescale(a: dict, r: int) -> dict:
    """a at r times its scale (u -> u^r): a new dict, or a itself when r
    is 1 or a is FLAT_ONE."""
    if r == 1 or a is FLAT_ONE:
        return a
    out = {}
    for k, c in a.items():
        e = _u(k)
        if not -_U_LIMIT <= e * r < _U_LIMIT:
            raise _overflow()
        out[k + e * (r - 1)] = c
    return out


def flat_quotient(a: dict, b: dict):
    """a / b when b divides a, for t-free a and b with lowest term 1 at
    u^0 (division from the lowest term up), else None; also None when a
    holds a t-exponent."""
    if not all(-_U_LIMIT <= k < _U_LIMIT for k in a):
        return None
    work, out = dict(a), {}
    top = max(a, default=0) - max(b)
    while work:
        k = min(work)
        if k > top:
            return None
        c = out[k] = work.pop(k)
        for kb, cb in b.items():
            if kb:
                v = work.get(k + kb, 0) - c * cb
                if v:
                    work[k + kb] = v
                else:
                    del work[k + kb]
    return out


def flat_mac(acc: dict, a: dict, b: dict, e: int = 0) -> dict:
    """acc += a * b * u^e, in place; a coefficient that cancels is removed.
    Returns acc."""
    if not -_U_LIMIT <= e < _U_LIMIT:
        raise _overflow()
    if len(a) < len(b):
        a, b = b, a
    get = acc.get
    for kb, cb in b.items():
        kb += e
        for ka, ca in a.items():
            k = ka + kb
            v = get(k)
            if v is None:
                if (k + _OFFSET) & _GUARD:
                    raise _overflow()
                acc[k] = ca * cb
            else:
                v += ca * cb
                if v:
                    acc[k] = v
                else:
                    del acc[k]
    return acc


def flat_mul(a: dict, b: dict, e: int = 0) -> dict:
    """a * b * u^e, a new dict."""
    return flat_mac({}, a, b, e)


def flat_qscalar(num: dict, den: dict, scale: int) -> QScalar:
    """The QScalar num / den of flat polynomials at ``scale`` (den nonzero),
    in QScalar's normal form, which moves both by the monomial that anchors
    den's u-exponents at 0 and makes every t-exponent nonnegative.  Both are
    copied, so that the flat kernel never writes into a QScalar's dicts; a
    denominator 1 keeps the normal form's shortcut only over t-free keys."""
    if den is FLAT_ONE and all(-_U_LIMIT <= k < _U_LIMIT for k in num):
        return QScalar._raw(dict(num), FLAT_ONE, scale)
    return QScalar._raw(dict(num), dict(den), scale)
