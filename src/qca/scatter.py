"""Rank-2 scattering diagrams, classical and quantum: initial walls,
wall-crossing operators, path-ordered products around the origin, and
order-by-order consistency completion.

Supports live in the plane of the M*-lattice (f-coordinates); normals are
primitive vectors of N+.  Crossing a wall with sign s (the sign of
<n_wall, -gamma'>) is a ring automorphism sending each term c X^m to
c X^m F, where the factor F depends on m only through one integer pairing
p with the wall (Kontsevich-Soibelman; Gross-Hacking-Keel-Kontsevich):

  classical     p = <n', m>, n' the primitive N*-multiple of the normal,
                and F = f^{s p}, f the wall function;
  dilog         p = omega(v, m)/h for Psi_{q^h}(X^v), and F is the product
                of |p| binomials that realizes Ad^{-s} Psi_Q(X^v);
  log           p = form_den omega(v, m), and F = X^-m exp(-s g) X^m exp(s g)
                = exp(s sum_j a_j (1 - q^{2jp/form_den}) y^j/(q-q^{-1}))
                for g = sum_j a_j y^j/(q-q^{-1}), y = X^v: the powers of y
                commute, so F is one univariate exponential.

Crossings run on qca.expansion's flat Laurent ring at one scale L per
diagram, the lcm of form_den and of every wall coefficient's scale.  Each
factor is an expansion.FlatSeries cached per (wall, sign, p): on a
dilogarithm or classical wall, F_p is the value of expansion.fold that
multiplies F_{p -+ 1} by one more binomial.  A crossing puts its factors
over one denominator with expansion.one_den and multiplies through
expansion.accumulate.  Loops stay flat from the first wall to the last:
``path_ordered_product`` and ``cross`` convert the terms that come out once
(FlatSeries.series), and ``is_consistent`` compares without converting.

Generated walls are outgoing rays R>=0 (-p1*(n)); the loop is a full
counterclockwise circle starting inside the initial chamber.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .duality import p1_star, p1_star_injective
from .expansion import FlatSeries, accumulate, flat_terms, fold, log_factor, one_den
from .mutation import a_torus, x_torus
from .qtorus import SkewLattice, vec, vec_neg
from .scalars import FLAT_ONE, ONE, QScalar, flat_mul, flat_pair, flat_shift, qpow
from .seeds import FixedData, Seed, primitive
from .words import Series, degree, dilog_pairings


class ConsistencyError(ArithmeticError):
    """The order-by-order completion met an unresolvable discrepancy."""


@dataclass
class Wall:
    """A rank-2 wall.  ``ray`` is primitive in f-coordinates; full lines
    (initial walls) occupy both +-ray."""

    normal: tuple[int, int]          # primitive n0 in N+
    ray: tuple[int, int]             # support direction (f-coordinates)
    full_line: bool
    incoming: bool
    kind: str                        # "classical" | "dilog" | "log"
    direction: tuple[int, int]       # v: torus exponent of the wall monomial
    function: dict = field(default_factory=dict)   # classical: {j: c_j}
    log_coeffs: dict = field(default_factory=dict)  # log: {j: a_j}
    dilog: tuple | None = None       # (h, coeff QScalar)

    def rays(self):
        if self.full_line:
            return (self.ray, vec_neg(self.ray))
        return (self.ray,)


class ScatteringDiagram:
    """Rank-2 diagram over a seed, classical or quantum, A- or X-side."""

    def __init__(self, fd: FixedData, side: str = "A", quantum: bool = False,
                 order: int = 2):
        if fd.n != 2 or len(fd.unfrozen) != 2:
            raise ValueError("scattering diagrams are implemented in rank 2")
        if side not in ("A", "X"):
            raise ValueError("side must be 'A' or 'X'")
        if side == "X" and not quantum:
            raise ValueError("the classical X-side diagram is out of scope")
        self.fd = fd
        self.side = side
        self.quantum = quantum
        self.order = order
        self.pmap = p1_star(fd)
        if not p1_star_injective(fd):
            raise ValueError(
                "p1* is not injective on the unfrozen sublattice "
                "(known as the injectivity assumption)")
        if side == "A":
            self.dir_map = self.pmap.apply
            if quantum:
                self.torus = a_torus(fd)
            else:
                zero = tuple(tuple(Fraction(0) for _ in range(2)) for _ in range(2))
                labels = tuple(f"A{i + 1}" for i in range(2))
                self.torus = SkewLattice(2, zero, labels)
        else:
            self.dir_map = lambda n: vec(n)
            self.torus = x_torus(fd)
        # dir_map's matrix, inverted once: n = inv . m solves dir_map(n) = m,
        # and the degree n1 + n2 on N+ is the integer grading dvec . m / dscale
        (a, b), (c, d) = (self.dir_map(e) for e in ((1, 0), (0, 1)))
        det = a * d - b * c
        if det == 0:
            raise ValueError("p1* image is degenerate")
        self._inv = tuple(tuple(Fraction(x, det) for x in row) for row in ((d, -c), (-b, a)))
        grading = [x + y for x, y in zip(*self._inv)]
        self.dscale = lcm(*(x.denominator for x in grading))
        self.dvec = tuple(int(x * self.dscale) for x in grading)
        self.walls: list[Wall] = []
        # (wall id, sign, p) -> the crossing factor F, a FlatSeries at the
        # highest relative order asked for; a dilogarithm or classical F_p is
        # built from F_{p -+ 1}, cached too.  _forget drops a wall's entries
        self._fcache: dict = {}
        self._scale = self.torus.form_den  # L: u = q^{1/L} in _fcache
        self._f = 1                        # L / form_den
        self._seq_cache = None  # the crossing list of the loop

    def _forget(self, wall: Wall):
        """Drop the cached factors of ``wall``, whose function changed."""
        wid = id(wall)
        for key in [key for key in self._fcache if key[0] == wid]:
            del self._fcache[key]

    def _flat_scale(self, scales=()) -> int:
        """The flat ring's scale L, a multiple of form_den, of every wall's
        scale and of ``scales``; when it grows, the cached factors are re-keyed."""
        scale = lcm(self._scale, *scales, *map(_wall_scale, self.walls))
        if scale != self._scale:
            r = scale // self._scale
            self._fcache = {key: f.rescale(r) for key, f in self._fcache.items()}
            self._scale, self._f = scale, scale // self.torus.form_den
        return scale

    # -- pairings -----------------------------------------------------------------
    def nprime(self, n0) -> tuple[int, ...]:
        """Generator of R>=0 n0 intersect N*: the smallest c n0 with
        d_i | c n0_i for all i."""
        c = 1
        for i, a in enumerate(n0):
            if a:
                need = self.fd.d[i] // gcd(self.fd.d[i], abs(a))
                c = c * need // gcd(c, need)
        return tuple(c * a for a in n0)

    # -- crossing operators -----------------------------------------------------------
    def cross(self, wall: Wall, series: Series, sign: int, cutoff: int) -> Series:
        """Cross ``wall`` with sign ``sign``: each term c X^m becomes
        (c X^m F).truncate(cutoff), F the wall's factor for the integer
        pairing p of m with the wall."""
        scale = self._flat_scale(c.scale for c in series.terms.values())
        terms, den = flat_terms(series.terms, scale)
        terms, d = self._cross(wall, terms, sign, cutoff)
        return FlatSeries(terms, None, cutoff, den if d is FLAT_ONE else flat_mul(den, d)
                          ).series(self.torus, self.dvec, scale)

    def _cross(self, wall: Wall, terms: dict, sign: int, cutoff: int):
        """The one crossing loop, on the flat ring: the terms of sum_m (c_m X^m
        F).truncate(cutoff) over ``terms`` {m: c_m}, and a flat d: the crossing
        is those terms over d times the input's denominator."""
        if sign == 0:
            raise ValueError("tangential wall crossing")
        dvec = self.dvec
        pairings = self._pairings(wall, terms)
        rows, nums, dens = [], [], []
        for m, c in terms.items():
            dm = degree(dvec, m)
            if dm <= cutoff:
                factor = self._factor(wall, sign, pairings[m], cutoff - dm)
                rows.append((m, dm, factor.items, cutoff))
                nums.append(c)
                dens.append(factor.den)
        nums, den = one_den(nums, dens)
        out, _ = accumulate(self.torus, self._f, nums, rows)
        return out, den

    def _pairings(self, wall: Wall, exponents) -> dict:
        """{m: p}, the integer pairing of each exponent m with the wall."""
        if wall.kind == "dilog":
            return dilog_pairings(self.torus, wall.dilog[0], wall.direction, exponents)
        if wall.kind == "log":
            return {m: self.torus.omega_int(wall.direction, m) for m in exponents}
        npr, fd = self.nprime(wall.normal), self.fd
        return {m: fd.integral(fd.pair_int(npr, m), "classical crossing exponent")
                for m in exponents}

    def _factor(self, wall: Wall, sign: int, p: int, rel: int):
        """The crossing factor F for pairing p, a FlatSeries exact to
        relative order ``rel``: cached at the highest order asked for."""
        cache, wid = self._fcache, id(wall)
        factor = cache.get((wid, sign, p))
        if factor is not None and factor.cutoff >= rel:
            return factor
        if wall.kind == "log":
            if degree(self.dvec, wall.direction) <= 0:
                raise ConsistencyError("wall log element is not positively graded")
            factor = cache[(wid, sign, p)] = log_factor(
                wall.direction, self.dvec, wall.log_coeffs, 2 * p * self._f,
                self._scale, sign, rel)
            return factor
        # F_p = F_{p -+ 1} * B^{+-1} for one binomial B (the last atom of the
        # word of |p| binomials): walk up from the nearest entry below
        step = 1 if p > 0 else -1
        k, factor = p, None
        while k and factor is None:
            k -= step
            factor = cache.get((wid, sign, k))
            if factor is not None and factor.cutoff < rel:
                factor = None
        if factor is None:  # k == 0: start from F_0 = 1
            zero = self.torus.zero()
            factor = FlatSeries({zero: FLAT_ONE}, {zero: 0}, None)
        factor, ks = factor.truncate(rel), range(k + step, p + step, step)
        for k, factor in zip(ks, fold(self.torus, self._f, factor, (
                self._binomial(wall, sign, j) for j in ks), rel)):
            cache[(wid, sign, k)] = factor
        cache[(wid, sign, p)] = factor
        return factor

    def _binomial(self, wall: Wall, sign: int, k: int):
        """The |k|-th factor B^{+-1} of the crossing word for pairing k as
        (B, +-1, what), B an exact FlatSeries: 1 + Q^{+-(2|k|-1)} y on a
        dilogarithm wall, the wall function f on a classical wall."""
        s0, zero, v = 1 if k > 0 else -1, self.torus.zero(), wall.direction
        if wall.kind == "dilog":  # Q^e c y = u^{h e L} c y, c = num / den
            h, coeff = wall.dilog
            num, den = flat_pair(coeff, self._scale)
            e = s0 * (2 * abs(k) - 1) * h.numerator * (self._scale // h.denominator)
            b = FlatSeries({zero: den, v: flat_shift(num, 0, 1, e)},
                           {zero: 0, v: degree(self.dvec, v)}, None, den)
            return b, -sign * s0, "crossing binomial"
        f = {tuple(j * x for x in v): c for j, c in wall.function.items()}
        return (FlatSeries.exact({zero: ONE, **f}, self._scale, self.dvec),
                1 if sign * k > 0 else -1, "crossing binomial")

    # -- geometry of the standard loop ---------------------------------------------
    def base_direction(self) -> tuple[int, int]:
        """Interior direction of the initial seed's chamber (g-vector cone)."""
        from .seeds import cluster_chamber

        ch = cluster_chamber(Seed(self.fd))
        g1, g2 = ch.gvectors
        b = (g1[0] + g2[0], g1[1] + g2[1])
        if b == (0, 0):
            b = g1
        return b

    def crossing_sequence(self):
        """All (ray, wall, sign) crossings of the counterclockwise full loop
        in order, from the initial chamber's base direction."""
        if self._seq_cache is not None:
            return self._seq_cache
        base = self.base_direction()
        items = [(r, w) for w in self.walls for r in w.rays()]
        if any(cross2(base, r) == 0 for r, _ in items):
            raise ValueError("loop base point lies on a wall; move it")
        items.sort(key=lambda rw: _ccw_key(base, rw[0]))
        self._seq_cache = [(r, w, self._loop_sign(w.normal, r)) for r, w in items]
        return self._seq_cache

    def _loop_sign(self, normal, r) -> int:
        """The sign of <normal, -gamma'> where the ccw loop crosses ray r."""
        s = self.fd.pair_int(normal, (r[1], -r[0]))
        if s == 0:
            raise ConsistencyError(f"the loop is tangent to the wall on {r}")
        return 1 if s > 0 else -1

    def _loop(self, monomial, order):
        """The full-loop product applied to X^monomial on the flat ring, a
        FlatSeries (without degrees)."""
        order = order if order is not None else self.order
        m = vec(monomial)
        cutoff = degree(self.dvec, m) + order * self.dscale
        self._flat_scale()
        terms, den = {m: FLAT_ONE}, FLAT_ONE
        for _, wall, sgn in self.crossing_sequence():
            terms, d = self._cross(wall, terms, sgn, cutoff)
            if d is not FLAT_ONE:
                den = flat_mul(den, d)
        return FlatSeries(terms, None, cutoff, den)

    def path_ordered_product(self, monomial, order=None) -> Series:
        """The full-loop product applied to A^monomial, exact to the given
        order (in paper degrees) above the monomial's own degree."""
        return self._loop(monomial, order).series(self.torus, self.dvec, self._scale)

    def is_consistent(self, monomials, order=None) -> bool:
        """True iff the loop fixes each monomial to ``order``: its flat
        product is that monomial over its own denominator exactly."""
        for m in monomials:
            loop = self._loop(m, order)
            if loop.terms != {vec(m): loop.den}:
                return False
        return True

    # -- JSON ------------------------------------------------------------------------
    def to_json(self) -> dict:
        walls = []
        for w in self.walls:
            entry = {
                "ray": list(w.ray),
                "normal": list(w.normal),
                "kind": w.kind,
                "full_line": w.full_line,
                "incoming": w.incoming,
                "direction": list(w.direction),
            }
            if w.kind == "classical":
                entry["function_terms"] = {str(j): c.render()
                                           for j, c in sorted(w.function.items())}
            elif w.kind == "log":
                entry["log_coeffs"] = {str(j): c.render()
                                       for j, c in sorted(w.log_coeffs.items())}
            else:
                entry["dilog"] = {"base_exponent": str(w.dilog[0]),
                                  "coefficient": w.dilog[1].render()}
            walls.append(entry)
        return {"side": self.side, "quantum": self.quantum, "order": self.order,
                "walls": walls}


def _wall_scale(w: Wall) -> int:
    """The scale of a wall's coefficients: of the binomials of a
    dilogarithm wall, of the function of a classical or log wall."""
    if w.kind == "dilog":
        return lcm(w.dilog[0].denominator, w.dilog[1].scale)
    return lcm(*(c.scale for c in (w.function or w.log_coeffs).values()))


def cross2(a, b) -> int:
    """The determinant of the rank-2 vectors a, b."""
    return a[0] * b[1] - a[1] * b[0]


def _ccw_key(base, r):
    """Sort key: counterclockwise angle of r measured from just after base.
    Exact; r must not be collinear with base (the loop base point sits in a
    chamber interior)."""
    c = cross2(base, r)
    if c == 0:
        raise ValueError("ray collinear with the loop base direction")
    if c > 0:
        start, half = base, 0
    else:
        start, half = (-base[0], -base[1]), 1
    cc = cross2(start, r)
    dd = start[0] * r[0] + start[1] * r[1]
    # angle from start lies in [0, pi); it increases as cot = dd/cc decreases
    return (half, Fraction(-dd, cc))


def initial_diagram(fd: FixedData, side: str = "A", quantum: bool = False,
                    order: int = 2) -> ScatteringDiagram:
    """One full-line incoming wall per unfrozen direction."""
    dg = ScatteringDiagram(fd, side, quantum, order)
    d = fd.d_lcm
    for i in fd.unfrozen:
        n0 = (1 if i == 0 else 0, 1 if i == 1 else 0)
        direction = dg.dir_map(n0)
        ray = primitive(dg.pmap.apply(n0))  # support is n0-perp in M*_R
        if quantum:
            h = Fraction(1, fd.d[i]) if side == "X" else Fraction(-(d // fd.d[i]), 2)
            wall = Wall(normal=n0, ray=ray, full_line=True, incoming=True,
                        kind="dilog", direction=vec(direction), dilog=(h, ONE))
        else:
            wall = Wall(normal=n0, ray=ray, full_line=True, incoming=True,
                        kind="classical", direction=vec(direction),
                        function={1: ONE})
        dg.walls.append(wall)
    return dg


GENERATORS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def complete_to_order(diagram: ScatteringDiagram, order: int) -> ScatteringDiagram:
    """Insert outgoing walls degree by degree until every full-loop product
    is the identity mod degree > order (Kontsevich-Soibelman order-by-order
    construction, rank 2).

    Each degree is solved and the result checked on the generators
    ``GENERATORS`` only: every crossing is a ring automorphism, so the loop
    is the identity to a given order as soon as it fixes +-e1 and +-e2 to
    that order (Kontsevich-Soibelman; Gross-Pandharipande-Siebert)."""
    dg = ScatteringDiagram(diagram.fd, diagram.side, diagram.quantum, order)
    dg.walls = [_copy_wall(w) for w in diagram.walls]
    for k in range(2, order + 1):
        _complete_degree(dg, k)
    if not dg.is_consistent(GENERATORS, order):
        raise ConsistencyError(f"completion failed to reach order {order}")
    return dg


def _copy_wall(w: Wall) -> Wall:
    return Wall(w.normal, w.ray, w.full_line, w.incoming, w.kind, w.direction,
                dict(w.function), dict(w.log_coeffs), w.dilog)


def _complete_degree(dg: ScatteringDiagram, k: int) -> None:
    """Cancel the order-k discrepancy of the full loop by outgoing walls."""
    corrections: dict[tuple[int, int], list] = {}
    for u in GENERATORS:
        got = dg.path_ordered_product(u, k)
        for mm, c in got.terms.items():
            m = tuple(a - b for a, b in zip(mm, u))
            dm = degree(dg.dvec, m)
            if dm == 0:
                if m == (0, 0) and c == ONE:
                    continue
                raise ConsistencyError(f"loop changes the degree-0 part at {u}")
            deg_paper = Fraction(dm, dg.dscale)
            if deg_paper != k:
                if deg_paper < k:
                    raise ConsistencyError(
                        f"uncorrected discrepancy of degree {deg_paper} < {k}")
                continue
            # left normal form coefficient: c A^{m+u} = delta q^{w(m,u)} A^m A^u
            delta = c._qshift(-dg.torus.omega_int(m, u), dg.torus.form_den)
            corrections.setdefault(m, []).append((u, delta))
    for m, entries in sorted(corrections.items()):
        _insert_wall(dg, m, k, entries)


def _insert_wall(dg: ScatteringDiagram, m, k: int, entries) -> None:
    n = _normal_of_direction(dg, m)
    n0 = primitive(n)
    j = n[0] // n0[0] if n0[0] else n[1] // n0[1]
    ray = primitive(vec_neg(dg.pmap.apply(n)))  # outgoing: R>=0 (-p1*(n))
    wall = next((w for w in dg.walls
                 if not w.full_line and w.ray == ray and w.normal == n0), None)
    created = wall is None
    if created:
        kind = "log" if dg.quantum else "classical"
        wall = Wall(normal=n0, ray=ray, full_line=False, incoming=False,
                    kind=kind, direction=vec(dg.dir_map(n0)))
    s = dg._loop_sign(n0, ray)
    sols = []
    for u, delta in entries:
        if dg.quantum:
            wint = dg.torus.omega_int(m, vec(u))
            if wint == 0:
                continue
            wmu = Fraction(wint, dg.torus.form_den)
            beta = (qpow(wmu) - qpow(-wmu)) / (qpow(1) - qpow(-1))
            # crossing adds -s a beta(m,u) q^{-w(m,u)}: cancel delta exactly
            sols.append(delta._qshift(wint, dg.torus.form_den) / beta
                        * QScalar.integer(s))
        else:
            p = dg.fd.integral(dg.fd.pair_int(dg.nprime(n0), u),
                               "classical crossing exponent")
            if p == 0:
                continue
            # crossing adds s c <n', u>: cancel delta exactly
            sols.append(delta * QScalar.integer(-s) / QScalar.integer(p))
    if not sols:
        raise ConsistencyError(f"no test monomial determines the wall at {m}")
    first = sols[0]
    for other in sols[1:]:
        if other != first:
            raise ConsistencyError(
                f"inconsistent wall solution at direction {m}, degree {k}")
    coeffs = wall.log_coeffs if dg.quantum else wall.function
    coeffs[j] = first
    if first.is_zero():
        del coeffs[j]
    if created and (wall.function or wall.log_coeffs):
        dg.walls.append(wall)
        dg._seq_cache = None
    dg._forget(wall)


def _normal_of_direction(dg: ScatteringDiagram, m) -> tuple[int, int]:
    """Solve p1*(n) = m for n in N+, integral."""
    a, b = (sum(map(mul, row, m)) for row in dg._inv)
    if a.denominator != 1 or b.denominator != 1:
        raise ConsistencyError(f"direction {m} is not in the image of p1*")
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise ConsistencyError(f"direction {m} has normal outside N+")
    return (int(a), int(b))


def appendix_b_closed_form(u) -> QScalar:
    """The closed-form degree-2 coefficient of the A(2,3) loop automorphism:
    the coefficient of A^{2f1 - 3f2} in (p_gamma^1)^{-1}(A^u) left-divided by
    A^u, as an explicit Laurent polynomial in v = q_BZ^{-1/2}."""
    from .scalars import vpow

    u1, u2 = int(u[0]), int(u[1])
    s1, s2 = (u1 > 0) - (u1 < 0), (u2 > 0) - (u2 < 0)
    # sum_{l <= |u_i|} v^{s_i k (2l - 1)}, k = 3 for u1 and 2 for u2; the
    # mixed term's double sum over (l1, l2) is their product
    sum1, sum2 = (sum((vpow(s * k * (2 * l - 1)) for l in range(1, abs(x) + 1)),
                      QScalar.integer(0)) for s, k, x in ((s1, 3, u1), (s2, 2, u2)))
    return (QScalar.integer(s1) * (vpow(-4) + 1 + vpow(4)) * sum1
            + QScalar.integer(s2) * (vpow(-3) + vpow(3)) * sum2
            + QScalar.integer(s1 * s2) * (vpow(6) - vpow(-6)) * sum1 * sum2)
