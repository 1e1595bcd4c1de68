"""Truncated products in the flat Laurent ring: factored words and
scattering crossings.

Both run at one scale L (u = q^{1/L}) and hold each coefficient as one dict
{packed key: int} of scalars.py's flat ring, with signed t-exponents, so
that monomial denominators are negative exponents.  :class:`FlatSeries` is
the one flat truncated series, over one central flat denominator.
:func:`times` and :func:`over` (the bucket sweep of :meth:`Series.over
<qca.words.Series.over>`) multiply or divide it on the right by an exact
one; :func:`accumulate` is the multiply-accumulate kernel of every product,
crossings included.  :func:`fold` applies a word of atoms P^{+-1} step by
step: :func:`expand`, behind :meth:`FactoredWord.expand
<qca.words.FactoredWord.expand>`, is its last value, and each value is one
of scatter.py's crossing factors.  :func:`one_den` is the one denominator
policy, and :meth:`FlatSeries.series` the one conversion back to QScalars,
of the terms that survive.  :func:`exp_terms` is the univariate exponential
of a log wall's factor.

words.py imports this module when it first expands a word and scatter.py
when it is loaded; importing the package loads neither.
"""

from __future__ import annotations

from functools import reduce
from math import gcd, inf, lcm
from operator import add, itemgetter, mul

from .qtorus import vec_neg
from .scalars import (
    FLAT_ONE, flat_mac, flat_mul, flat_pair, flat_qscalar, flat_quotient, flat_rescale, flat_shift)
from .words import ExpansionError, Series, degree, product_cut


def one_den(nums: list, dens: list):
    """(nums', den) with nums'[i] / den = nums[i] / dens[i], the one
    denominator policy of the flat ring: den is the lcm of the dens when
    each is an integer constant, else the product of the distinct ones.
    When all dens are equal, den is that one and nums' is nums itself."""
    den = dens[0] if dens else FLAT_ONE
    if dens.count(den) == len(dens):
        return nums, den
    distinct: list = []
    for d in dens:
        if d not in distinct:
            distinct.append(d)
    if all(d.keys() == {0} for d in distinct):
        top = lcm(*(d[0] for d in distinct))
        den, mults = {0: top}, [{0: top // d[0]} for d in distinct]
    else:
        den = reduce(flat_mul, distinct)
        mults = [reduce(flat_mul, distinct[:i] + distinct[i + 1:]) for i in range(len(distinct))]
    return [flat_mul(num, mults[distinct.index(d)]) for num, d in zip(nums, dens)], den


def flat_terms(terms: dict, scale: int):
    """QScalar ``terms`` {n: c} as flat terms over one denominator b at
    ``scale``, by :func:`one_den`: (the terms, b)."""
    pairs = [flat_pair(c, scale) for c in terms.values()]
    nums, den = one_den([num for num, _ in pairs], [d for _, d in pairs])
    return dict(zip(terms, nums)), den


def scaled(a: dict, k: int) -> dict:
    """k * a for an integer k, a new dict."""
    return {key: c * k for key, c in a.items()}


class FlatSeries:
    """(1 / den) * sum terms[n] X^n with flat coefficients, truncated: exact
    on degrees <= ``cutoff`` (None: exact), as :class:`Series`.  ``deg``
    holds each term's degree (None on a series that is only converted) and
    ``items`` the (n, c, degree) triples by degree, lowest first, sorted on
    first use."""

    __slots__ = ("terms", "deg", "cutoff", "den", "_items")

    def __init__(self, terms: dict, deg, cutoff, den: dict = FLAT_ONE):
        self.terms, self.deg, self.cutoff, self.den = terms, deg, cutoff, den
        self._items = None

    @staticmethod
    def exact(terms: dict, scale: int, dvec) -> "FlatSeries":
        """The exact series of QScalar ``terms`` {n: c} at ``scale``: an
        atom of a word, or a classical wall function."""
        flat, den = flat_terms(terms, scale)
        return FlatSeries(flat, {n: degree(dvec, n) for n in flat}, None, den)

    @property
    def items(self) -> list:
        if self._items is None:
            deg = self.deg
            self._items = sorted(((n, c, deg[n]) for n, c in self.terms.items()),
                                 key=itemgetter(2))
        return self._items

    def truncate(self, cutoff: int) -> "FlatSeries":
        if self.cutoff is not None and self.cutoff <= cutoff:
            return self
        terms, deg = self.terms, self.deg
        if any(d > cutoff for d in deg.values()):
            terms = {n: c for n, c in terms.items() if deg[n] <= cutoff}
            deg = {n: deg[n] for n in terms}
        return FlatSeries(terms, deg, cutoff, self.den)

    def rescale(self, r: int) -> "FlatSeries":
        """This series at r times its scale: u becomes u^r."""
        return FlatSeries({n: flat_rescale(c, r) for n, c in self.terms.items()},
                          self.deg, self.cutoff, flat_rescale(self.den, r))

    def series(self, alg, dvec, scale: int) -> Series:
        """This series as a Series at ``scale``: each term converted to a
        QScalar once."""
        den = self.den
        return Series(alg, dvec, self.cutoff, {
            n: flat_qscalar(c, den, scale) for n, c in self.terms.items()})


def accumulate(alg, f: int, coeffs, rows):
    """The multiply-accumulate kernel of every flat product: the nonzero
    terms, and their degrees, of the sum over ``coeffs`` c and ``rows``
    (n, dn, items, limit) of c X^n (of degree dn) times each (m, cm, dm) of
    ``items``, sorted by degree, with dn + dm <= limit.  u^f is
    q^{1/form_den}."""
    out: dict = {}
    odeg: dict = {}
    for c, (n, dn, items, limit) in zip(coeffs, rows):
        row = alg.row_pairing(n)
        for m, cm, dm in items:
            d = dn + dm
            if d > limit:
                break
            k = tuple(map(add, n, m))
            acc = out.get(k)
            if acc is None:
                acc = out[k] = {}
                odeg[k] = d
            flat_mac(acc, c, cm, sum(map(mul, row, m)) * f)
    for k in [k for k, c in out.items() if not c]:
        del out[k], odeg[k]
    return out, odeg


def times(alg, f: int, s: FlatSeries, p: FlatSeries) -> FlatSeries:
    """s * p for an exact p, with the cutoff of Series.__mul__: the product
    terms over s.den * p.den."""
    if not s.terms and s.cutoff is None:
        return s  # an exact zero stays one
    deg, items = s.deg, p.items
    cut = product_cut(min(deg.values(), default=None), s.cutoff, items[0][2], None)
    limit = inf if cut is None else cut
    rows = [(n, deg[n], items, limit) for n in s.terms]
    terms, odeg = accumulate(alg, f, s.terms.values(), rows)
    den = s.den if p.den is FLAT_ONE else flat_mul(s.den, p.den)
    return FlatSeries(terms, odeg, cut, den)


def over(alg, f: int, s: FlatSeries, p: FlatSeries, order: int, what) -> FlatSeries:
    """s * p^{-1} for an exact p = P' / b, as (s / P') * b: the bucket sweep
    of Series.over, with its cutoff, on flat coefficients.  A unit lead
    +-u^a t^b of P' is inverted by a key shift; any other lead L stays a
    denominator: each residual and quotient term carries its power of L,
    terms are brought to the larger power before they are added, and the
    quotient is put over L^J, J the largest power.  ``what`` names p in an
    ExpansionError."""
    items = p.items
    mdeg = items[0][2]
    anchors = [n for n, _, d in items if d == mdeg]
    if len(anchors) > 1:
        label = what if isinstance(what, str) else what.render()
        raise ExpansionError(
            f"no unique leading monomial in {label}: "
            f"degree-{mdeg} exponents {sorted(anchors)}")
    if not s.terms and s.cutoff is None:
        return s  # an exact zero stays one
    deg = s.deg
    cut = product_cut(min(deg.values(), default=None), s.cutoff,
                      -mdeg if order >= 0 else None, order - mdeg)
    top = cut + mdeg  # residual terms above it give quotients above cut
    n0 = anchors[0]
    lead = p.terms[n0]
    lrow = alg.row_pairing(n0)  # X^m L^{-1} carries q^{omega(n0, m)}
    neg_n0 = vec_neg(n0)
    # -(P' - L) by degree above L; all those degrees are positive
    rest = [(k, flat_shift(c, 0, -1), d - mdeg) for k, c, d in items if k != n0]
    unit = len(lead) == 1 and abs(next(iter(lead.values()))) == 1
    if unit:
        (lkey, lsign), = lead.items()
        lkey = -lkey  # 1 / (+-u^a t^b) = +-u^-a t^-b
    else:
        lkey, lsign = 0, 1
        powers = [FLAT_ONE]  # powers of the lead, as they are needed

        def lead_power(i):
            while len(powers) <= i:
                powers.append(flat_mul(powers[-1], lead))
            return powers[i]
    rpow: dict = {}  # lead power of a residual term other than 0
    qpow: dict = {}  # lead power of each quotient term
    j = 0  # the power of the quotient term being subtracted
    buckets: dict = {}
    for m, r in s.terms.items():
        d = deg[m]
        if d <= top:  # a copy: the sweep adds into bucket entries in place
            buckets.setdefault(d, {})[m] = dict(r)
    out: dict = {}
    odeg: dict = {}
    while buckets:
        d = min(buckets)
        room = top - d
        for m, r in buckets.pop(d).items():
            c = flat_shift(r, lkey, lsign, sum(map(mul, lrow, m)) * f)
            mq = tuple(map(add, m, neg_n0))
            out[mq] = c
            odeg[mq] = d - mdeg
            if not unit:
                j = qpow[mq] = rpow.pop(m, 0) + 1
            row = alg.row_pairing(mq)
            for k, ck, dk in rest:
                if dk > room:
                    break
                e = sum(map(mul, row, k)) * f
                bucket = buckets.get(d + dk)
                if bucket is None:
                    bucket = buckets[d + dk] = {}
                key = tuple(map(add, mq, k))
                acc = bucket.get(key)
                if acc is None:
                    bucket[key] = flat_mul(c, ck, e)
                    if j:
                        rpow[key] = j
                    continue
                je = j if unit else rpow.get(key, 0)
                if je < j:  # lift the residual to the quotient's power
                    acc = bucket[key] = flat_mul(acc, lead_power(j - je))
                    rpow[key] = je = j
                if je == j:
                    flat_mac(acc, c, ck, e)
                else:  # lift the product to the residual's power
                    flat_mac(acc, flat_mul(c, ck, e), lead_power(je - j))
                if not acc:
                    del bucket[key]
                    rpow.pop(key, None)
    den = s.den
    if qpow:
        J = max(qpow.values())
        out = {mq: c if qpow[mq] == J else flat_mul(c, lead_power(J - qpow[mq]))
               for mq, c in out.items()}
        den = flat_mul(den, lead_power(J))
    b = p.den
    if b is not FLAT_ONE:
        out = {mq: flat_mul(c, b) for mq, c in out.items()}
    return FlatSeries(out, odeg, cut, den)


def fold(alg, f: int, s: FlatSeries, atoms, order: int):
    """Yield s * P_1^{e_1}, then that times P_2^{e_2}, and so on, for the
    (P, e, what) of ``atoms``: P an exact FlatSeries, e = +-1, ``what`` its
    name in an ExpansionError.  Each step is :func:`times` or :func:`over`
    truncated to the running lowest degree plus ``order``, so each value has
    the terms and cutoff that Series.__mul__ and Series.over would give."""
    anchor = 0
    for p, e, what in atoms:
        low = p.items[0][2]
        if e == 1:
            s = times(alg, f, s, p)
            anchor += low
        else:
            s = over(alg, f, s, p, order, what)
            anchor -= low
        s = s.truncate(anchor + order)
        yield s


def expand(word, dvec, order: int) -> Series:
    """A factored word's expansion, exact to relative order ``order``: the
    last value of :func:`fold` from its prefix over its atoms, at the lcm
    L of form_den and of every coefficient's scale."""
    alg, dvec = word.algebra, tuple(dvec)
    scale = lcm(alg.form_den, word.prefix.scale, *(
        c.scale for p, _ in word.atoms for c in p.terms.values()))
    c0, den = flat_pair(word.prefix, scale)
    zero = alg.zero()
    terms = {zero: c0} if c0 else {}
    s = FlatSeries(terms, dict.fromkeys(terms, 0), None, den)
    made: dict = {}  # id of an atom -> its FlatSeries

    def atoms():
        for p, e in word.atoms:
            flat = made.get(id(p))
            if flat is None:
                flat = made[id(p)] = FlatSeries.exact(p.terms, scale, dvec)
            yield flat, e, p

    for s in fold(alg, scale // alg.form_den, s, atoms(), order):
        pass  # the last value; a word without atoms is its prefix
    return s.series(alg, dvec, scale)


def log_factor(v, dvec, coeffs: dict, A: int, scale: int, sign: int, rel: int) -> FlatSeries:
    """exp(sign sum_j a_j (1 - u^{jA}) y^j / (u^L - u^-L)) for y = X^v of
    positive degree and coeffs {j: a_j}, QScalars, at scale L: a log wall's
    crossing factor, with A = 2 p L / form_den, exact to relative order
    ``rel``.  The powers of y commute, so it is one univariate exponential."""
    top = rel // degree(dvec, v)
    powers, d = exp_terms({
        j: log_coefficient(flat_pair(a, scale), j * A, scale, sign)
        for j, a in coeffs.items() if j <= top and A}, top)
    terms = {tuple(n * x for x in v): c for n, c in powers.items()}
    return FlatSeries(terms, {n: degree(dvec, n) for n in terms}, rel, d)


def log_coefficient(a: tuple, A: int, L: int, sign: int):
    """sign * a * (1 - u^A) / (u^L - u^-L) as a flat pair, for a = (num,
    den) a flat pair at scale L and A != 0: the coefficient
    sign a_j (1 - q^{A/L}) / (q - q^{-1}) of a log wall's crossing factor.
    With g = gcd(A, 2L), u^|A| - 1 and u^{2L} - 1 are u^g - 1 times
    S_|A| and S_2L, S_k = sum_{i < k/g} u^{ig}, so the ratio is
    -u^L S_A / S_2L for A > 0 and u^{L+A} S_|A| / S_2L for A < 0, in lowest
    terms; S_2L is 1 when 2L divides A and is cancelled against a's
    numerator when it divides it."""
    num, den = a
    g = gcd(A, 2 * L)
    lift = L + min(A, 0)
    num = flat_mul(num, {i * g + lift: -sign if A > 0 else sign
                         for i in range(abs(A) // g)})
    if g != 2 * L:
        s = {i * g: 1 for i in range(2 * L // g)}
        quotient = flat_quotient(num, s)
        if quotient is None:
            den = flat_mul(den, s)
        else:
            num = quotient
    return num, den


def exp_terms(coeffs: dict, top: int):
    """exp(sum_j b_j y^j) up to y^top for a central y, b_j = num / den the
    flat pair ``coeffs[j]``: ({n: E_n}, den) with the exponential
    (1 / den) * sum_n E_n y^n.  With b_j = H_j / d over one common
    denominator d (:func:`one_den`), n e_n = sum_j j b_j e_{n-j} gives
    e_n = E'_n / (d^n n!) for E'_0 = 1 and
    E'_n = sum_j j (n-1)!/(n-j)! d^{j-1} H_j E'_{n-j}; then
    E_n = E'_n d^{N-n} N!/n! and den = d^N N!, N the highest n with
    E'_n != 0."""
    nums, d = one_den([num for num, _ in coeffs.values()], [d for _, d in coeffs.values()])
    h = dict(zip(coeffs, nums))  # H_j
    dpow = [FLAT_ONE]
    while len(dpow) <= top:
        dpow.append(dpow[-1] if d is FLAT_ONE else flat_mul(dpow[-1], d))
    E = [FLAT_ONE]
    for n in range(1, top + 1):
        acc: dict = {}
        for j, hj in h.items():
            if j <= n and E[n - j]:
                k = j
                for i in range(n - j + 1, n):
                    k *= i  # j (n-1)!/(n-j)!
                e = E[n - j] if j == 1 else flat_mul(E[n - j], dpow[j - 1])
                flat_mac(acc, scaled(hj, k), e)
        E.append(acc)
    while not E[top]:
        top -= 1
    out, k = {}, 1
    for n in range(top, -1, -1):  # k = top!/n!
        if E[n]:
            out[n] = scaled(E[n] if n == top else flat_mul(E[n], dpow[top - n]), k)
        k *= n or 1
    den = scaled(dpow[top], k)
    return out, FLAT_ONE if den == FLAT_ONE else den
