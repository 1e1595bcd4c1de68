"""Rank-2 scattering diagrams, classical and quantum: initial walls,
wall-crossing operators, path-ordered products around the origin, and
order-by-order consistency completion.

Supports live in the plane of the M*-lattice (f-coordinates); normals are
primitive vectors of N+.  Crossing a wall with sign s (the sign of
<n_wall, -gamma'>) applies, per kind:

  classical     A^u -> f^{s <n', u>} A^u, f the wall function, n' the
                primitive N*-multiple of the normal;
  dilog         Ad^{-s} of Psi_Q(X^v), evaluated by the exact finite
                factor products;
  log           x -> exp(-s g) x exp(s g) for g = sum_j a_j X^{j v}/(q-q^{-1}),
                expanded to the requested order.

Generated walls are outgoing rays R>=0 (-p1*(n)); the loop is a full
counterclockwise circle starting inside the initial chamber.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .duality import PStarMap, p1_star, p1_star_injective, principal_compatible_pair
from .mutation import a_torus, x_torus
from .qtorus import QTorusElement, SkewLattice, vec, vec_neg
from .scalars import ONE, QScalar, qpow
from .seeds import FixedData, Seed
from .words import FactoredWord, Series, degree


class ConsistencyError(ArithmeticError):
    """The order-by-order completion met an unresolvable discrepancy."""


def _primitive2(v):
    g = gcd(v[0], v[1])
    return (v[0] // g, v[1] // g) if g else v


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
        self._fcache: dict = {}    # (wall id, power, rel) -> Series
        self._seq_cache: dict = {}  # (orientation, base) -> crossing list

    def _invalidate(self):
        self._fcache.clear()
        self._seq_cache.clear()

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

    def pair_nm(self, n, m) -> Fraction:
        """<n, m> with n in e-coords, m in f-coords: sum n_i m_i / d_i."""
        return sum(Fraction(a * b, d) for a, b, d in zip(n, m, self.fd.d))

    # -- crossing operators -----------------------------------------------------------
    def cross(self, wall: Wall, series: Series, sign: int, cutoff=None) -> Series:
        if sign == 0:
            raise ValueError("tangential wall crossing")
        if wall.kind == "classical":
            return self._cross_classical(wall, series, sign, cutoff)
        if wall.kind == "dilog":
            return self._cross_dilog(wall, series, sign, cutoff)
        return self._cross_log(wall, series, sign, cutoff)

    def _function_series(self, wall: Wall, power: int, cutoff: int) -> Series:
        base = Series(self.torus, self.dvec, cutoff, {
            self.torus.zero(): ONE,
            **{tuple(j * x for x in wall.direction): c
               for j, c in wall.function.items()},
        })
        if power >= 0:
            out = Series.one(self.torus, self.dvec, cutoff)
            for _ in range(power):
                out = out * base
            return out
        inv = base.inverse(cutoff)
        out = Series.one(self.torus, self.dvec, cutoff)
        for _ in range(-power):
            out = out * inv
        return out

    def _cross_classical(self, wall, series, sign, cutoff):
        cutoff = cutoff if cutoff is not None else series.cutoff
        npr = self.nprime(wall.normal)
        mdeg = series.min_degree()
        rel = cutoff - mdeg if (cutoff is not None and mdeg is not None) \
            else self.order * self.dscale
        rel = max(rel, 0)
        out = Series(self.torus, self.dvec, cutoff, {})
        for m, c in series.terms.items():
            p = self.pair_nm(npr, m)
            if p.denominator != 1:
                raise ArithmeticError("non-integral classical crossing exponent")
            p = sign * int(p)
            key = (id(wall), p, rel)
            power = self._fcache.get(key)
            if power is None:
                power = self._fcache[key] = self._function_series(wall, p, rel)
            mono = Series(self.torus, self.dvec, None, {m: c})
            out = out + (power * mono).truncate(cutoff)
        return out

    def _cross_dilog(self, wall, series, sign, cutoff):
        cutoff = cutoff if cutoff is not None else series.cutoff
        h, coeff = wall.dilog
        out = Series(self.torus, self.dvec, cutoff, {})
        for m, c in series.terms.items():
            w = FactoredWord.monomial(self.torus, m, c)
            conj = w.conjugate_by_dilog(h, coeff, wall.direction, action=-sign)
            rel = (cutoff - degree(self.dvec, m)) if cutoff is not None \
                else self.order * self.dscale
            out = out + conj.expand(self.dvec, max(rel, 0)).truncate(cutoff)
        return out

    def _cross_log(self, wall, series, sign, cutoff):
        cutoff = cutoff if cutoff is not None else series.cutoff
        smin = series.min_degree()
        if smin is None or cutoff is None:
            return series
        g_terms = {}
        qq = (qpow(1) - qpow(-1)).inverse()
        for j, a in wall.log_coeffs.items():
            g_terms[tuple(j * x for x in wall.direction)] = a * qq
        g = Series(self.torus, self.dvec, None, g_terms)
        ecut = cutoff - min(smin, 0)
        expp = _exp_series(g, ecut, self.torus, self.dvec)
        expm = _exp_series(g.scale(QScalar.integer(-1)), ecut, self.torus, self.dvec)
        if sign > 0:
            return (expm * series * expp).truncate(cutoff)
        return (expp * series * expm).truncate(cutoff)

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
            if _cross2(base, r) == 0:
                raise ValueError("loop base point lies on a wall; move it")

        def angle_key(rw):
            r, _ = rw
            return _ccw_key(base, r)

        items.sort(key=angle_key)
        out = []
        for r, w in items:
            mdir = (r[1], -r[0])  # -gamma' for the ccw loop at this ray
            s = self.pair_nm(w.normal, mdir)
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
    if cutoff is None:
        raise ValueError("exponentials need an explicit truncation order")
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


def _cross2(a, b) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _ccw_key(base, r):
    """Sort key: counterclockwise angle of r measured from just after base.
    Exact; r must not be collinear with base (the loop base point sits in a
    chamber interior)."""
    c = _cross2(base, r)
    if c == 0:
        raise ValueError("ray collinear with the loop base direction")
    if c > 0:
        start, half = base, 0
    else:
        start, half = (-base[0], -base[1]), 1
    cc = _cross2(start, r)
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
        ray = _primitive2(dg.pmap.apply(n0))  # support is n0-perp in M*_R
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


def complete_to_order(diagram: ScatteringDiagram, order: int,
                      test_monomials=None) -> ScatteringDiagram:
    """Insert outgoing walls degree by degree until every full-loop product
    is the identity mod degree > order (Kontsevich-Soibelman order-by-order
    construction, rank 2)."""
    dg = ScatteringDiagram(diagram.fd, diagram.side, diagram.quantum, order,
                           diagram.delta, diagram.Lambda)
    dg.walls = [_copy_wall(w) for w in diagram.walls]
    if test_monomials is None:
        test_monomials = _default_test_monomials(dg)
    for k in range(2, order + 1):
        _complete_degree(dg, k, test_monomials)
    if not dg.is_consistent(test_monomials, order):
        raise ConsistencyError(f"completion failed to reach order {order}")
    return dg


def _copy_wall(w: Wall) -> Wall:
    return Wall(w.normal, w.ray, w.full_line, w.incoming, w.kind, w.direction,
                dict(w.function), dict(w.log_coeffs), w.dilog)


def _default_test_monomials(dg: ScatteringDiagram):
    out = []
    for a in range(-2, 3):
        for b in range(-2, 3):
            if (a, b) != (0, 0):
                out.append((a, b))
    return out


def _complete_degree(dg: ScatteringDiagram, k: int, test_monomials) -> None:
    """Cancel the order-k discrepancy of the full loop by outgoing walls."""
    corrections: dict[tuple[int, int], list] = {}
    for u in test_monomials:
        u = vec(u)
        got = dg.path_ordered_product(u, k)
        du = degree(dg.dvec, u)
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
            delta = c * qpow(-dg.torus.omega(m, u))
            corrections.setdefault(m, []).append((u, delta))
    for m, entries in sorted(corrections.items()):
        _insert_wall(dg, m, k, entries)


def _insert_wall(dg: ScatteringDiagram, m, k: int, entries) -> None:
    n = _normal_of_direction(dg, m)
    n0 = _primitive2(n)
    j = n[0] // n0[0] if n0[0] else n[1] // n0[1]
    ray = _primitive2(vec_neg(dg.pmap.apply(n)))  # outgoing: R>=0 (-p1*(n))
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
    sgn_val = dg.pair_nm(n0, mdir)
    if sgn_val == 0:
        raise ConsistencyError("outgoing ray tangent to the loop")
    s = 1 if sgn_val > 0 else -1
    sols = []
    for u, delta in entries:
        if dg.quantum:
            wmu = dg.torus.omega(m, vec(u))
            if wmu == 0:
                continue
            beta = (qpow(wmu) - qpow(-wmu)) / (qpow(1) - qpow(-1))
            # crossing adds -s a beta(m,u) q^{-w(m,u)}: cancel delta exactly
            sols.append(delta * qpow(wmu) / beta * QScalar.integer(s))
        else:
            p = dg.pair_nm(dg.nprime(n0), u)
            if p == 0:
                continue
            # crossing adds s c <n', u>: cancel delta exactly
            sols.append(delta * QScalar.integer(-s) / QScalar.integer(int(p)))
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
    dg._invalidate()


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
