"""Truncated products in the flat Laurent ring: factored words and
scattering crossings.

Both run at one scale L (u = q^{1/L}) and hold each coefficient as one dict
{packed key: int} of scalars.py's flat ring, with signed t-exponents, so
that monomial denominators are negative exponents; denominators that are
not monomials are collected in one central flat polynomial.  A product of
two coefficients with its factor q^{omega(n, m)} is one fused
multiply-accumulate on keys.  The truncated product :func:`times` and the
exact right division :func:`over` (the bucket sweep of
:meth:`Series.over <qca.words.Series.over>` on flat coefficients) serve
:class:`WordExpansion`, behind :meth:`FactoredWord.expand
<qca.words.FactoredWord.expand>`, and the chain of crossing factors of
scatter.py, each kept as a :class:`FlatSeries`; :func:`exp_terms` is the
univariate exponential of a log wall's factor.  Only the terms that survive
are converted to QScalars, once each.

words.py and scatter.py import this module when they first expand a word
or cross a wall, so importing the package does not compile it.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add, mul

from .qtorus import vec_neg
from .scalars import (
    FLAT_ONE, flat_mac, flat_mul, flat_pair, flat_qscalar, flat_quotient, flat_rescale, flat_shift)
from .words import ExpansionError, FactoredWord, Series, degree, product_cut


def flat_terms(terms: dict, scale: int):
    """QScalar ``terms`` {n: c} as (sum of the returned flat terms) / b at
    ``scale``; b multiplies the denominators that are not monomials, each
    distinct one once."""
    pairs = [(n, *flat_pair(c, scale)) for n, c in terms.items()]
    dens: list = []
    for _, _, d in pairs:
        if d is not FLAT_ONE and d not in dens:
            dens.append(d)
    out = {}
    for n, a, d in pairs:
        for e in dens:
            if e != d:
                a = flat_mul(a, e)
        out[n] = a
    b = FLAT_ONE
    for e in dens:
        b = flat_mul(b, e)
    return out, b


def common_den(dens: list):
    """(den, multipliers) with den = dens[i] * multipliers[i] for each of
    the distinct flat polynomials ``dens``: their lcm when all are integer
    constants, else their product.  A multiplier of 1 is FLAT_ONE."""
    if all(len(d) == 1 and 0 in d for d in dens):
        top = lcm(*(d[0] for d in dens))
        return ({0: top} if top != 1 else FLAT_ONE,
                [{0: top // d[0]} if top != d[0] else FLAT_ONE for d in dens])
    mults = []
    for i in range(len(dens)):
        m = FLAT_ONE
        for j, d in enumerate(dens):
            if j != i:
                m = flat_mul(m, d)
        mults.append(m)
    return flat_mul(dens[0], mults[0]), mults


def scaled(a: dict, k: int) -> dict:
    """k * a for an integer k, a new dict."""
    return {key: c * k for key, c in a.items()}


class FlatSeries:
    """(1 / den) * sum terms[n] X^n with flat coefficients, truncated: exact
    on degrees <= ``cutoff`` (None: exact), as :class:`Series`.  ``deg``
    holds each term's degree and ``items`` the (n, c, degree) triples by
    degree, lowest first."""

    __slots__ = ("terms", "deg", "cutoff", "den", "items")

    def __init__(self, terms: dict, deg: dict, cutoff, den: dict = FLAT_ONE):
        self.terms, self.deg, self.cutoff, self.den = terms, deg, cutoff, den
        self.items = sorted(((n, c, deg[n]) for n, c in terms.items()),
                            key=lambda t: t[2])

    def truncate(self, cutoff: int) -> "FlatSeries":
        if self.cutoff is not None and self.cutoff <= cutoff:
            return self
        deg = self.deg
        terms = {n: c for n, c in self.terms.items() if deg[n] <= cutoff}
        return FlatSeries(terms, {n: deg[n] for n in terms}, cutoff, self.den)

    def rescale(self, r: int) -> "FlatSeries":
        """This series at r times its scale: u becomes u^r."""
        return FlatSeries({n: flat_rescale(c, r) for n, c in self.terms.items()},
                          self.deg, self.cutoff, flat_rescale(self.den, r))


def times(alg, f: int, terms: dict, deg: dict, cutoff, pterms: dict, pdeg: dict):
    """(sum terms) * (sum pterms) on the right, as Series.__mul__ with the
    right factor exact: the product terms, their degrees and the cutoff.
    Coefficients are flat at a scale where u^f is q^{1/form_den}."""
    if not terms and cutoff is None:
        return terms, deg, cutoff  # an exact zero stays one
    cut = product_cut(min(deg.values(), default=None), cutoff,
                      min(pdeg.values()), None)
    items = [(m, c, pdeg[m]) for m, c in pterms.items()]
    out: dict = {}
    odeg: dict = {}
    for n, cn in terms.items():
        dn = deg[n]
        row = alg.row_pairing(n)
        for m, cm, dm in items:
            d = dn + dm
            if cut is not None and d > cut:
                continue
            k = tuple(map(add, n, m))
            acc = out.get(k)
            if acc is None:
                acc = out[k] = {}
                odeg[k] = d
            flat_mac(acc, cn, cm, sum(map(mul, row, m)) * f)
    out = {k: c for k, c in out.items() if c}
    return out, {k: odeg[k] for k in out}, cut


def over(alg, f: int, terms: dict, deg: dict, cutoff, pterms: dict, pdeg: dict,
         order: int, what):
    """(sum terms) * P^{-1} for P = sum pterms, by exact right division: the
    bucket sweep of Series.over on flat coefficients, with its cutoff for
    P^{-1} exact to relative order ``order``.  Returns the quotient terms,
    their degrees, the cutoff and a denominator.  A unit leading coefficient
    +-u^a t^b is inverted by a key shift; any other lead L stays a
    denominator: each residual and quotient term carries its power of L,
    terms of different powers are brought to the larger one before they are
    added, and at the end the quotient is put over L^J, J its largest power,
    which is the returned denominator (else FLAT_ONE).  ``what`` names P in
    an ExpansionError, as in Series.over."""
    mdeg = min(pdeg.values())
    anchors = [n for n, d in pdeg.items() if d == mdeg]
    if len(anchors) > 1:
        label = what if isinstance(what, str) else what.render()
        raise ExpansionError(
            f"no unique leading monomial in {label}: "
            f"degree-{mdeg} exponents {sorted(anchors)}")
    if not terms and cutoff is None:
        return terms, deg, cutoff, FLAT_ONE  # an exact zero stays one
    cut = product_cut(min(deg.values(), default=None), cutoff,
                      -mdeg if order >= 0 else None, order - mdeg)
    top = cut + mdeg  # residual terms above it give quotients above cut
    n0 = anchors[0]
    lead = pterms[n0]
    lrow = alg.row_pairing(n0)  # X^m L^{-1} carries q^{omega(n0, m)}
    neg_n0 = vec_neg(n0)
    # -(P - L) by degree above L; all those degrees are positive
    rest = sorted(((k, flat_shift(c, 0, -1), pdeg[k] - mdeg)
                   for k, c in pterms.items() if k != n0), key=lambda t: t[2])
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
    for m, r in terms.items():
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
    den = FLAT_ONE
    if qpow:
        J = max(qpow.values())
        out = {mq: c if qpow[mq] == J else flat_mul(c, lead_power(J - qpow[mq]))
               for mq, c in out.items()}
        den = lead_power(J)
    return out, odeg, cut, den


def factor_chain(alg, f: int, dvec, factor: FlatSeries, binomials, rel: int):
    """Yield factor * B_1^{e_1}, then that times B_2^{e_2}, and so on, for
    the (flat terms, b, e) of ``binomials``, B = (sum of the terms) / b and
    e = +-1: a scattering wall's factors F_p = F_{p -+ 1} * B^{+-1}, each a
    product or an exact right division with the cutoffs of the factored
    word of |p| binomials expanded to relative order ``rel``."""
    terms, deg, cut, den = factor.terms, factor.deg, factor.cutoff, factor.den
    for bterms, b, e in binomials:
        bdeg = {n: degree(dvec, n) for n in bterms}
        if e == 1:
            terms, deg, cut = times(alg, f, terms, deg, cut, bterms, bdeg)
            lead = b
        else:  # F / (B' / b) = (F / B') * b
            terms, deg, cut, lead = over(alg, f, terms, deg, cut, bterms, bdeg,
                                         rel, "crossing binomial")
            if b is not FLAT_ONE:
                terms = {n: flat_mul(c, b) for n, c in terms.items()}
        if lead is not FLAT_ONE:
            den = flat_mul(den, lead)
        yield FlatSeries(terms, deg, cut, den)


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
    denominator d, n e_n = sum_j j b_j e_{n-j} gives e_n = E'_n / (d^n n!)
    for E'_0 = 1 and E'_n = sum_j j (n-1)!/(n-j)! d^{j-1} H_j E'_{n-j};
    then E_n = E'_n d^{N-n} N!/n! and den = d^N N!, N the highest n with
    E'_n != 0."""
    dens = []
    for _, dj in coeffs.values():
        if dj not in dens:
            dens.append(dj)
    d, mults = common_den(dens) if dens else (FLAT_ONE, [])
    h = {}  # H_j
    for j, (num, dj) in coeffs.items():
        m = mults[dens.index(dj)]
        h[j] = num if m is FLAT_ONE else flat_mul(num, m)
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


class WordExpansion:
    """The truncated expansion of a factored word at one scale L.

    The series is (num / den) * sum c_n X^n.  Each ``terms[n]`` = c_n is a
    flat polynomial in u = q^{1/L} with signed t-exponents, so monomial
    denominators are negative exponents; the central flat polynomials num
    and den collect every other denominator: the prefix's, each atom's
    common denominator, and the powers of a leading coefficient that is not
    a unit.  ``deg`` holds each term's degree and ``cutoff`` means what
    Series.cutoff means.  Each atom is a product (:func:`times`) or an exact
    right division (:func:`over`) followed by the truncation to the running
    anchor plus ``order``, with the cutoffs of Series.__mul__ and
    Series.over, so the expansion has the terms and cutoffs those would
    give."""

    __slots__ = ("alg", "dvec", "scale", "f", "terms", "deg", "cutoff", "num", "den")

    def __init__(self, word: FactoredWord, dvec, order: int):
        alg = self.alg = word.algebra
        self.dvec = tuple(dvec)
        scale = self.scale = lcm(alg.form_den, word.prefix.scale, *(
            c.scale for p, _ in word.atoms for c in p.terms.values()))
        f = self.f = scale // alg.form_den  # omega_int(n, m) * f is omega(n, m) * L
        c0, self.den = flat_pair(word.prefix, scale)
        self.num = FLAT_ONE
        self.terms, self.deg = ({alg.zero(): c0}, {alg.zero(): 0}) if c0 else ({}, {})
        self.cutoff = None
        atoms = {}  # id of an atom -> (flat terms, degrees, common denominator)
        anchor = 0
        for p, s in word.atoms:
            flat = atoms.get(id(p))
            if flat is None:
                pterms, b = flat_terms(p.terms, scale)
                flat = atoms[id(p)] = pterms, {n: degree(self.dvec, n) for n in pterms}, b
            pterms, pdeg, b = flat
            pmin = min(pdeg.values())
            if s == 1:
                self.terms, self.deg, self.cutoff = times(
                    alg, f, self.terms, self.deg, self.cutoff, pterms, pdeg)
                if b is not FLAT_ONE:
                    self.den = flat_mul(self.den, b)
            else:
                self.terms, self.deg, self.cutoff, lead = over(
                    alg, f, self.terms, self.deg, self.cutoff, pterms, pdeg, order, p)
                if lead is not FLAT_ONE:
                    self.den = flat_mul(self.den, lead)
                if b is not FLAT_ONE:
                    self.num = flat_mul(self.num, b)
                pmin = -pmin
            self._truncate(anchor + pmin + order)
            anchor += pmin

    def _truncate(self, cutoff: int):
        if self.cutoff is not None and self.cutoff <= cutoff:
            return
        deg = self.deg
        if any(d > cutoff for d in deg.values()):
            self.terms = {n: c for n, c in self.terms.items() if deg[n] <= cutoff}
            self.deg = {n: deg[n] for n in self.terms}
        self.cutoff = cutoff

    def series(self) -> Series:
        """The expansion as a Series: each term converted to a QScalar once."""
        num, den, scale = self.num, self.den, self.scale
        return Series(self.alg, self.dvec, self.cutoff, {
            n: flat_qscalar(c if num is FLAT_ONE else flat_mul(c, num), den, scale)
            for n, c in self.terms.items()})
