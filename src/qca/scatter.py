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
                for g = sum_j a_j X^{j v}/(q-q^{-1}).

Generated walls are outgoing rays R>=0 (-p1*(n)); the loop is a full
counterclockwise circle starting inside the initial chamber.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .duality import p1_star, p1_star_injective, principal_compatible_pair
from .mutation import a_torus, x_torus
from .qtorus import SkewLattice, add_terms, skew_product, vec, vec_neg
from .scalars import ONE, QScalar, qpow
from .seeds import FixedData, Seed, primitive
from .words import Series, degree, dilog_binomial, dilog_pairings


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
                 order: int = 2, degree_weights=None, Lambda=None):
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
        if not p1_star_injective(fd, self.pmap):
            raise ValueError(
                "p1* is not injective on the unfrozen sublattice "
                "(known as the injectivity assumption)")
        self.delta = tuple(degree_weights or (1,) * fd.n)  # degree on N+
        if side == "A":
            self.dir_map = self.pmap.apply
            if quantum:
                if Lambda is None:
                    Lambda = principal_compatible_pair(fd).Lambda
                self.Lambda = Lambda
                self.torus = a_torus(fd, Lambda)
            else:
                self.Lambda = None
                zero = tuple(tuple(Fraction(0) for _ in range(2)) for _ in range(2))
                labels = tuple(f"A{i + 1}" for i in range(2))
                self.torus = SkewLattice(2, zero, labels)
        else:
            self.dir_map = lambda n: vec(n)
            self.Lambda = None
            self.torus = x_torus(fd)
        # integer grading on torus exponents: dvec . m = dscale * degree(n)
        # for m = dir_map(n)
        self.dvec, self.dscale = self._torus_grading()
        self.walls: list[Wall] = []
        # (wall id, sign, p) -> the crossing factor F of every kind, and
        # (wall id, sign) -> exp(sign g) of a log wall; each Series is kept
        # at the highest relative order asked for and truncated on use.  A
        # dilogarithm or classical F_p is built from F_{p -+ 1}, which stays
        # cached too; a wall's entries are dropped when its function changes
        self._fcache: dict = {}
        self._seq_cache: dict = {}  # (orientation, base) -> crossing list

    def _forget(self, wall: Wall):
        """Drop the cached factors of ``wall``, whose function changed."""
        wid = id(wall)
        for key in [key for key in self._fcache if key[0] == wid]:
            del self._fcache[key]

    # -- grading -------------------------------------------------------------
    def _torus_grading(self):
        cols = [self.dir_map(b) for b in ((1, 0), (0, 1))]
        det = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
        if det == 0:
            raise ValueError("p1* image is degenerate")
        # solve dvec . cols[i] = delta_i over Q, then clear denominators
        d1 = Fraction(self.delta[0] * cols[1][1] - self.delta[1] * cols[0][1], det)
        d2 = Fraction(self.delta[1] * cols[0][0] - self.delta[0] * cols[1][0], det)
        scale = d1.denominator
        scale = scale * d2.denominator // gcd(scale, d2.denominator)
        return (int(d1 * scale), int(d2 * scale)), scale

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
        if sign == 0:
            raise ValueError("tangential wall crossing")
        torus, dvec = self.torus, self.dvec
        pairings = self._pairings(wall, series.terms)
        terms: dict = {}
        for m, c in series.terms.items():
            rel = cutoff - degree(dvec, m)
            if rel >= 0:
                factor = self._factor(wall, sign, pairings[m], rel)
                add_terms(terms, skew_product(torus, {m: c}, factor.terms,
                                              dvec, cutoff).items())
        return Series(torus, dvec, cutoff, terms)

    def _pairings(self, wall: Wall, exponents) -> dict:
        """{m: p}, the integer pairing of each exponent m with the wall."""
        if wall.kind == "dilog":
            return dilog_pairings(self.torus, wall.dilog[0], wall.direction, exponents)
        if wall.kind == "log":
            return {m: self.torus.omega_int(wall.direction, m) for m in exponents}
        npr, fd = self.nprime(wall.normal), self.fd
        return {m: fd.integral(fd.pair_int(npr, m), "classical crossing exponent")
                for m in exponents}

    def _factor(self, wall: Wall, sign: int, p: int, rel: int) -> Series:
        """The crossing factor F for pairing p, exact to relative order
        ``rel``: cached at the highest order asked for."""
        cache, wid = self._fcache, id(wall)
        factor = cache.get((wid, sign, p))
        if factor is not None and factor.cutoff >= rel:
            return factor
        if wall.kind == "log":
            factor = cache[(wid, sign, p)] = self._log_factor(wall, sign, p, rel)
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
            factor = Series.one(self.torus, self.dvec)
        factor = factor.truncate(rel)
        while k != p:
            k += step
            binom, power = self._binomial(wall, sign, k)
            if power == 1:
                factor = factor * binom
            else:
                factor = factor.over(binom.terms, rel, what=binom)
            cache[(wid, sign, k)] = factor
        cache[(wid, sign, p)] = factor
        return factor

    def _binomial(self, wall: Wall, sign: int, k: int) -> tuple[Series, int]:
        """The |k|-th factor (B, +-1) of the crossing word for pairing k:
        on a dilogarithm wall B = 1 + Q^{+-(2|k|-1)} y, on a classical wall
        B = f, the wall function."""
        s0 = 1 if k > 0 else -1
        if wall.kind == "dilog":
            h, coeff = wall.dilog
            b = dilog_binomial(self.torus, h, coeff, wall.direction, s0 * (2 * abs(k) - 1))
            return Series(self.torus, self.dvec, None, b.terms), -sign * s0
        f = {tuple(j * x for x in wall.direction): c for j, c in wall.function.items()}
        return (Series(self.torus, self.dvec, None, {self.torus.zero(): ONE, **f}),
                1 if sign * k > 0 else -1)

    def _log_factor(self, wall: Wall, sign: int, p: int, rel: int) -> Series:
        """X^-m exp(-sign g) X^m exp(sign g) for pairing p."""
        # X^-m X^{jv} X^m = q^{2 j p / form_den} X^{jv}
        torus, v = self.torus, wall.direction
        i = 0 if v[0] else 1
        down = self._exp(wall, -sign, rel)
        down = Series(torus, self.dvec, rel, {
            n: c._qshift(2 * p * (n[i] // v[i]), torus.form_den)
            for n, c in down.terms.items()})
        return down * self._exp(wall, sign, rel)

    def _exp(self, wall: Wall, sign: int, rel: int) -> Series:
        """exp(sign g) of a log wall, g = sum_j a_j X^{jv}/(q - q^{-1}), exact
        to degree ``rel`` or beyond: cached at the highest order asked for."""
        key = (id(wall), sign)
        out = self._fcache.get(key)
        if out is None or out.cutoff < rel:
            qq = (qpow(1) - qpow(-1)).inverse()
            g = Series(self.torus, self.dvec, None, {
                tuple(j * x for x in wall.direction): a * qq
                for j, a in wall.log_coeffs.items()})
            if sign < 0:
                g = g.scale(QScalar.integer(-1))
            out = self._fcache[key] = _exp_series(g, rel, self.torus, self.dvec)
        return out

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

    def crossing_sequence(self, orientation: str = "ccw", base=None):
        """All (ray, wall, sign) crossings of the full loop in order."""
        base = base or self.base_direction()
        cached = self._seq_cache.get((orientation, base))
        if cached is not None:
            return cached
        items = []
        for w in self.walls:
            for r in w.rays():
                items.append((r, w))
        for r, w in items:
            if cross2(base, r) == 0:
                raise ValueError("loop base point lies on a wall; move it")

        def angle_key(rw):
            r, _ = rw
            return _ccw_key(base, r)

        items.sort(key=angle_key)
        out = []
        for r, w in items:
            mdir = (r[1], -r[0])  # -gamma' for the ccw loop at this ray
            s = self.fd.pair_int(w.normal, mdir)
            if s == 0:
                raise ConsistencyError("loop is tangent to a wall")
            out.append((r, w, 1 if s > 0 else -1))
        if orientation == "cw":
            out = [(r, w, -s) for r, w, s in reversed(out)]
        elif orientation != "ccw":
            raise ValueError("orientation must be 'ccw' or 'cw'")
        self._seq_cache[(orientation, base)] = out
        return out

    def path_ordered_product(self, monomial, order=None, orientation="ccw",
                             base=None) -> Series:
        """The full-loop product applied to A^monomial, exact to the given
        order (in paper degrees) above the monomial's own degree."""
        order = order if order is not None else self.order
        m = vec(monomial)
        cutoff = degree(self.dvec, m) + order * self.dscale
        series = Series(self.torus, self.dvec, cutoff,
                        {m: ONE})
        for _, wall, sgn in self.crossing_sequence(orientation, base):
            series = self.cross(wall, series, sgn, cutoff)
        return series

    def is_consistent(self, monomials, order=None, orientation="ccw") -> bool:
        order = order if order is not None else self.order
        for m in monomials:
            got = self.path_ordered_product(m, order, orientation)
            want = Series(self.torus, self.dvec, got.cutoff, {vec(m): ONE})
            if got != want:
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
        return {
            "side": self.side,
            "quantum": self.quantum,
            "order": self.order,
            "walls": walls,
        }


def _exp_series(g: Series, cutoff: int, torus, dvec) -> Series:
    out = Series.one(torus, dvec, cutoff)
    term = Series.one(torus, dvec, cutoff)
    k = 1
    gmin = g.min_degree()
    if gmin is None:
        return out
    if gmin <= 0:
        raise ConsistencyError("wall log element is not positively graded")
    while k * gmin <= cutoff:
        term = (term * g).truncate(cutoff).scale(QScalar.rational(1, k))
        if term.is_zero():
            break
        out = out + term
        k += 1
    return out


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
                    order: int = 2, degree_weights=None, Lambda=None) -> ScatteringDiagram:
    """One full-line incoming wall per unfrozen direction."""
    dg = ScatteringDiagram(fd, side, quantum, order, degree_weights, Lambda)
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


def wall_crossing(diagram: ScatteringDiagram, wall: Wall, monomial, sign: int,
                  order: int | None = None) -> Series:
    """The single-wall crossing operator applied to A^monomial."""
    order = order if order is not None else diagram.order
    m = vec(monomial)
    cutoff = degree(diagram.dvec, m) + order * diagram.dscale
    series = Series(diagram.torus, diagram.dvec, cutoff, {m: ONE})
    return diagram.cross(wall, series, sign, cutoff)


GENERATORS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def complete_to_order(diagram: ScatteringDiagram, order: int) -> ScatteringDiagram:
    """Insert outgoing walls degree by degree until every full-loop product
    is the identity mod degree > order (Kontsevich-Soibelman order-by-order
    construction, rank 2).

    Each degree is solved and the result checked on the generators
    ``GENERATORS`` only: every crossing is a ring automorphism, so the loop
    is the identity to a given order as soon as it fixes +-e1 and +-e2 to
    that order (Kontsevich-Soibelman; Gross-Pandharipande-Siebert)."""
    dg = ScatteringDiagram(diagram.fd, diagram.side, diagram.quantum, order,
                           diagram.delta, diagram.Lambda)
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
    wall = None
    for w in dg.walls:
        if not w.full_line and w.ray == ray and w.normal == n0:
            wall = w
            break
    created = False
    if wall is None:
        kind = "log" if dg.quantum else "classical"
        wall = Wall(normal=n0, ray=ray, full_line=False, incoming=False,
                    kind=kind, direction=_primitive_direction(dg, n0))
        created = True
    # crossing sign of the standard loop at this ray
    mdir = (ray[1], -ray[0])
    sgn_val = dg.fd.pair_int(n0, mdir)
    if sgn_val == 0:
        raise ConsistencyError("outgoing ray tangent to the loop")
    s = 1 if sgn_val > 0 else -1
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
    if dg.quantum:
        wall.log_coeffs[j] = first
        if first.is_zero():
            del wall.log_coeffs[j]
    else:
        wall.function[j] = first
        if first.is_zero():
            del wall.function[j]
    if created and (wall.function or wall.log_coeffs):
        dg.walls.append(wall)
        dg._seq_cache.clear()
    dg._forget(wall)


def _normal_of_direction(dg: ScatteringDiagram, m) -> tuple[int, int]:
    """Solve p1*(n) = m for n in N+, integral."""
    cols = [dg.dir_map(b) for b in ((1, 0), (0, 1))]
    det = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
    a = Fraction(m[0] * cols[1][1] - m[1] * cols[1][0], det)
    b = Fraction(m[1] * cols[0][0] - m[0] * cols[0][1], det)
    if a.denominator != 1 or b.denominator != 1:
        raise ConsistencyError(f"direction {m} is not in the image of p1*")
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise ConsistencyError(f"direction {m} has normal outside N+")
    return (int(a), int(b))


def _primitive_direction(dg: ScatteringDiagram, n0) -> tuple[int, int]:
    return vec(dg.dir_map(n0))


def appendix_b_closed_form(u) -> QScalar:
    """The closed-form degree-2 coefficient of the A(2,3) loop automorphism:
    the coefficient of A^{2f1 - 3f2} in (p_gamma^1)^{-1}(A^u) left-divided by
    A^u, as an explicit Laurent polynomial in v = q_BZ^{-1/2}."""
    from .scalars import vpow

    u1, u2 = int(u[0]), int(u[1])
    s1, s2 = (u1 > 0) - (u1 < 0), (u2 > 0) - (u2 < 0)
    total = QScalar.integer(0)
    if s1:
        ssum = sum((vpow(s1 * 3 * (2 * l - 1)) for l in range(1, abs(u1) + 1)),
                   QScalar.integer(0))
        total = total + QScalar.integer(s1) * (vpow(-4) + 1 + vpow(4)) * ssum
    if s2:
        ssum = sum((vpow(s2 * 2 * (2 * l - 1)) for l in range(1, abs(u2) + 1)),
                   QScalar.integer(0))
        total = total + QScalar.integer(s2) * (vpow(-3) + vpow(3)) * ssum
    if s1 and s2:
        dsum = QScalar.integer(0)
        for l1 in range(1, abs(u1) + 1):
            for l2 in range(1, abs(u2) + 1):
                dsum = dsum + vpow(s1 * 3 * (2 * l1 - 1) + s2 * 2 * (2 * l2 - 1))
        total = total + QScalar.integer(s1 * s2) * (vpow(6) - vpow(-6)) * dsum
    return total
