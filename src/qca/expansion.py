"""Truncated expansion of factored words in the flat Laurent ring.

:meth:`FactoredWord.expand <qca.words.FactoredWord.expand>` runs here.  One
expansion fixes one scale L (u = q^{1/L}, L the lcm of the form's
denominator and of every coefficient's scale) and holds each coefficient as
one dict {packed key: int} of scalars.py's flat ring, with signed
t-exponents, so that monomial denominators are negative exponents.  Every
product of two coefficients with its factor q^{omega(n, m)} is one fused
multiply-accumulate on keys; denominators that are not monomials are
collected in one central fraction.  Inverted atoms are divided out exactly
by the bucket sweep of :meth:`Series.over <qca.words.Series.over>`.  Only
the terms that survive are converted to QScalars, once each.

words.py imports this module when it first expands a word, so importing
the package does not compile it.
"""

from __future__ import annotations

from math import lcm
from operator import add, mul

from .qtorus import QTorusElement, vec_neg
from .scalars import FLAT_ONE, flat_mac, flat_mul, flat_pair, flat_qscalar, flat_shift
from .words import ExpansionError, FactoredWord, Series, degree, product_cut


class WordExpansion:
    """The truncated expansion of a factored word at one scale L.

    The series is (num / den) * sum c_n X^n.  Each ``terms[n]`` = c_n is a
    flat polynomial in u = q^{1/L} with signed t-exponents, so monomial
    denominators are negative exponents; the central flat polynomials num
    and den collect every other denominator: the prefix's, each atom's
    common denominator, and the powers of a leading coefficient that is not
    a unit.  ``deg`` holds each term's degree and ``cutoff`` means what
    Series.cutoff means.  Each atom is a product or an exact right division
    followed by the truncation to the running anchor plus ``order``, with
    the cutoffs of Series.__mul__ and Series.over, so the expansion has the
    terms and cutoffs those would give.  A product of two coefficients with
    the factor q^{omega(n, m)} is one fused multiply-accumulate on keys."""

    __slots__ = ("alg", "dvec", "scale", "f", "terms", "deg", "cutoff", "num", "den")

    def __init__(self, word: FactoredWord, dvec, order: int):
        alg = self.alg = word.algebra
        self.dvec = tuple(dvec)
        scale = self.scale = lcm(alg.form_den, word.prefix.scale, *(
            c.scale for p, _ in word.atoms for c in p.terms.values()))
        self.f = scale // alg.form_den  # omega_int(n, m) * f is omega(n, m) * L
        c0, self.den = flat_pair(word.prefix, scale)
        self.num = FLAT_ONE
        self.terms, self.deg = ({alg.zero(): c0}, {alg.zero(): 0}) if c0 else ({}, {})
        self.cutoff = None
        atoms = {}  # id of an atom -> (flat terms, degrees, common denominator)
        anchor = 0
        for p, s in word.atoms:
            flat = atoms.get(id(p))
            if flat is None:
                flat = atoms[id(p)] = self._atom(p)
            pterms, pdeg, b = flat
            pmin = min(pdeg.values())
            if s == 1:
                self._times(pterms, pdeg, pmin)
                if b is not FLAT_ONE:
                    self.den = flat_mul(self.den, b)
            else:
                self._over(p, pterms, pdeg, order)
                if b is not FLAT_ONE:
                    self.num = flat_mul(self.num, b)
                pmin = -pmin
            self._truncate(anchor + pmin + order)
            anchor += pmin

    def _atom(self, p: QTorusElement):
        """P = (sum of the returned terms) / b with flat coefficients, and the
        degree of each term; b multiplies the denominators that are not
        monomials, each distinct one once."""
        pairs = [(n, *flat_pair(c, self.scale)) for n, c in p.terms.items()]
        dens: list = []
        for _, _, d in pairs:
            if d is not FLAT_ONE and d not in dens:
                dens.append(d)
        terms = {}
        for n, a, d in pairs:
            for e in dens:
                if e != d:
                    a = flat_mul(a, e)
            terms[n] = a
        b = FLAT_ONE
        for e in dens:
            b = flat_mul(b, e)
        return terms, {n: degree(self.dvec, n) for n in terms}, b

    def _times(self, pterms: dict, pdeg: dict, pmin: int):
        """Multiply by the atom on the right, as Series.__mul__."""
        terms, deg = self.terms, self.deg
        if not terms and self.cutoff is None:
            return  # an exact zero stays one
        cut = product_cut(min(deg.values(), default=None), self.cutoff, pmin, None)
        alg, f = self.alg, self.f
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
        self.terms = {k: c for k, c in out.items() if c}
        self.deg = {k: odeg[k] for k in self.terms}
        self.cutoff = cut

    def _over(self, p: QTorusElement, pterms: dict, pdeg: dict, order: int):
        """Divide the atom out on the right, exactly: the bucket sweep of
        Series.over on flat coefficients.  A unit leading coefficient
        +-u^a t^b is inverted by a key shift; any other lead L stays a
        denominator: each residual and quotient term carries its power of
        L, terms of different powers are brought to the larger one before
        they are added, and at the end the quotient is put over L^J, J its
        largest power, which joins ``den``."""
        mdeg = min(pdeg.values())
        anchors = [n for n, d in pdeg.items() if d == mdeg]
        if len(anchors) > 1:
            raise ExpansionError(
                f"no unique leading monomial in {p.render()}: "
                f"degree-{mdeg} exponents {sorted(anchors)}")
        terms, deg = self.terms, self.deg
        if not terms and self.cutoff is None:
            return  # an exact zero stays one
        cut = product_cut(min(deg.values(), default=None), self.cutoff,
                           -mdeg if order >= 0 else None, order - mdeg)
        top = cut + mdeg  # residual terms above it give quotients above cut
        alg, f = self.alg, self.f
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
            if d <= top:
                buckets.setdefault(d, {})[m] = r
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
        if qpow:
            J = max(qpow.values())
            out = {mq: c if qpow[mq] == J else flat_mul(c, lead_power(J - qpow[mq]))
                   for mq, c in out.items()}
            self.den = flat_mul(self.den, lead_power(J))
        self.terms, self.deg, self.cutoff = out, odeg, cut

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
