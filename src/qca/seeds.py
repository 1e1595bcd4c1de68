"""Fixed data, seeds, seed mutation, c-vectors, chambers, Langlands duality.

A seed tracks the basis of the doubled lattice N + M* carrying the principal
form {(n1,m1),(n2,m2)} = {n1,n2} + <n1,m2> - <n2,m1>: mutating that extension
and reading off the mixed block of its exchange matrix is exactly how
c-vectors are defined, so no separate recurrence is needed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


@dataclass(frozen=True)
class FixedData:
    """Directions, skew form {e_i, e_j}, unfrozen subset, and d_i weights."""

    n: int
    unfrozen: tuple[int, ...]
    skew: tuple[tuple[Fraction, ...], ...]
    d: tuple[int, ...]
    labels: tuple[str, ...]
    coefficients: str = "principal"  # "principal" | "none"

    def __post_init__(self):
        uf = set(self.unfrozen)
        if not uf <= set(range(self.n)):
            raise ValueError("unfrozen indices out of range")
        for i in range(self.n):
            for j in range(self.n):
                if self.skew[i][j] != -self.skew[j][i]:
                    raise ValueError(f"skew form not antisymmetric at ({i},{j})")
        if any(di <= 0 for di in self.d):
            raise ValueError("the d_i must be positive")
        g = 0
        for di in self.d:
            g = gcd(g, di)
        if g != 1:
            raise ValueError(f"gcd of d is {g}, must be 1")
        # integrality: {e_i, d_j e_j} in Z whenever i or j is unfrozen
        for i in range(self.n):
            for j in range(self.n):
                if i in uf or j in uf:
                    v = self.skew[i][j] * self.d[j]
                    if v.denominator != 1:
                        raise ValueError(
                            f"integrality fails at ({i},{j}): "
                            f"{{e{i + 1},e{j + 1}}}*d{j + 1} = {v}")
        if self.coefficients not in ("principal", "none"):
            raise ValueError(f"unknown coefficients mode {self.coefficients!r}")

    @property
    def rank(self) -> int:
        return self.n

    @property
    def d_lcm(self) -> int:
        return lcm(*self.d) if self.n else 1

    def with_coefficients(self, mode: str) -> "FixedData":
        return FixedData(self.n, self.unfrozen, self.skew, self.d, self.labels, mode)


def make_fixed_data(skew, d=None, unfrozen=None, labels=None,
                    coefficients: str = "principal") -> FixedData:
    """Validated FixedData from a skew matrix {e_i,e_j} and d weights."""
    rows = tuple(tuple(Fraction(x) for x in r) for r in skew)
    n = len(rows)
    if d is None:
        d = (1,) * n
    if unfrozen is None:
        unfrozen = tuple(range(n))
    if labels is None:
        labels = tuple(f"X{i + 1}" for i in range(n))
    return FixedData(n, tuple(unfrozen), rows, tuple(int(x) for x in d),
                     tuple(labels), coefficients)


class Seed:
    """A seed of the fixed data: the current basis of N and of the principal
    extension, the exchange matrices, c-vectors, and the mutation history."""

    __slots__ = ("fixed", "ext", "history")

    def __init__(self, fixed: FixedData, ext=None, history=()):
        self.fixed = fixed
        n = fixed.n
        if ext is None:
            ext = tuple(tuple(1 if i == j else 0 for j in range(2 * n))
                        for i in range(2 * n))
        self.ext = ext
        self.history = tuple(history)

    # -- the principal form on the doubled lattice ---------------------------
    def _prin_form(self, a, b) -> Fraction:
        """{(n1,m1),(n2,m2)}_prin with n in e-coords, m in f-coords and
        <e_i, f_j> = delta_ij / d_i."""
        fd = self.fixed
        n = fd.n
        tot = Fraction(0)
        for i in range(n):
            ai = a[i]
            if ai:
                row = fd.skew[i]
                for j in range(n):
                    if b[j]:
                        tot += ai * b[j] * row[j]
                if b[n + i]:
                    tot += Fraction(ai * b[n + i], fd.d[i])
        for i in range(n):
            if a[n + i] and b[i]:
                tot -= Fraction(b[i] * a[n + i], fd.d[i])
        return tot

    # -- views ------------------------------------------------------------------
    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """Rows e_{i;s} in initial e-coordinates."""
        n = self.fixed.n
        return tuple(tuple(self.ext[i][:n]) for i in range(n))

    def epsilon_hat(self) -> tuple[tuple[Fraction, ...], ...]:
        n = self.fixed.n
        return tuple(tuple(self._prin_form(self.ext[i], self.ext[j])
                           for j in range(n)) for i in range(n))

    def epsilon(self) -> tuple[tuple[Fraction, ...], ...]:
        eh = self.epsilon_hat()
        d = self.fixed.d
        return tuple(tuple(eh[i][j] * d[j] for j in range(self.fixed.n))
                     for i in range(self.fixed.n))

    def cvector(self, k: int) -> tuple[int, ...]:
        """c_{k;s}: the k-th row of the mixed block of the extended exchange
        matrix (k unfrozen)."""
        fd = self.fixed
        n = fd.n
        out = []
        for j in range(n):
            v = self._prin_form(self.ext[k], self.ext[n + j]) * fd.d[j]
            if v.denominator != 1:
                raise ArithmeticError(f"non-integral c-vector entry {v}")
            out.append(int(v))
        return tuple(out)

    def cvectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.cvector(k) for k in self.fixed.unfrozen)

    def f_basis(self) -> tuple[tuple[int, ...], ...]:
        """Rows f_{i;s} in initial f-coordinates: the dual basis of
        {d_i e_{i;s}}, integral because both are bases of M*."""
        fd = self.fixed
        n = fd.n
        e = [[Fraction(x) for x in row[:n]] for row in self.ext[:n]]
        inv = _mat_inverse(e)
        # f_{i;s} coords: F = D^{-1} (E^{-1})^T D
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                v = inv[j][i] * Fraction(fd.d[j], fd.d[i])
                if v.denominator != 1:
                    raise ArithmeticError("f-basis is not integral")
                row.append(int(v))
            out.append(tuple(row))
        return tuple(out)

    # -- mutation ------------------------------------------------------------------
    def mutate(self, k: int) -> "Seed":
        fd = self.fixed
        if k not in fd.unfrozen:
            raise ValueError(f"direction {k} is frozen")
        n = fd.n
        ek = self.ext[k]
        new_rows = []
        for i in range(2 * n):
            if i == k:
                new_rows.append(tuple(-x for x in ek))
                continue
            # [eps~_{ik}]_+ with eps~_{ik} = {e~_i, e~_k}_prin d_k
            v = self._prin_form(self.ext[i], ek) * fd.d[k]
            if v.denominator != 1:
                raise ArithmeticError("non-integral extended exchange entry")
            c = max(int(v), 0)
            if c:
                new_rows.append(tuple(x + c * y for x, y in zip(self.ext[i], ek)))
            else:
                new_rows.append(self.ext[i])
        return Seed(fd, tuple(new_rows), self.history + (k,))

    def mutate_sequence(self, ks) -> "Seed":
        s = self
        for k in ks:
            s = s.mutate(k)
        return s

    def __repr__(self):
        return f"Seed(history={list(self.history)})"


def row_reduce(rows, ncols):
    """Gauss-Jordan elimination over Fraction, pivoting only in the first
    ``ncols`` columns: returns the reduced rows and the pivot columns, so
    augmented [A | b] and [M | I] reduce as well."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def _mat_inverse(m):
    n = len(m)
    a, pivots = row_reduce([list(row) + [Fraction(int(i == j)) for j in range(n)]
                            for i, row in enumerate(m)], n)
    if len(pivots) < n:
        raise ArithmeticError("singular matrix")
    return [row[n:] for row in a]


def langlands_dual(fd: FixedData) -> FixedData:
    """Dual fixed data: the form is {.,.}/lcm(d) and the dual seed basis is
    (d_i e_i), so in dual-seed coordinates the stored form picks up d_i d_j;
    the weights flip to lcm(d)/d_i."""
    m = fd.d_lcm
    skew = tuple(tuple(fd.skew[i][j] * fd.d[i] * fd.d[j] / m
                       for j in range(fd.n)) for i in range(fd.n))
    d = tuple(m // di for di in fd.d)
    return FixedData(fd.n, fd.unfrozen, skew, d, fd.labels, fd.coefficients)


# -- rank-2 chambers -------------------------------------------------------------


@dataclass(frozen=True)
class Chamber:
    """Rank-2 chamber: g-vector cone generators and the dual c-vector cone."""

    gvectors: tuple[tuple[int, int], tuple[int, int]]
    dual_generators: tuple[tuple[int, int], tuple[int, int]]


def primitive(v):
    """The primitive integer vector on the ray of the rank-2 vector v."""
    g = gcd(v[0], v[1])
    return (v[0] // g, v[1] // g) if g else v


def cluster_chamber(s: Seed) -> Chamber:
    """g-vectors as the dual cone of the c-vector cone (rank 2 only).

    The pairing between N-side c-vectors and M*-side g-vectors is
    <n, m> = sum n_i m_i / d_i.
    """
    fd = s.fixed
    if fd.n != 2 or len(fd.unfrozen) != 2:
        raise ValueError("chambers are only computed in rank 2")
    c1, c2 = (s.cvector(k) for k in fd.unfrozen)
    det = c1[0] * c2[1] - c1[1] * c2[0]
    if det == 0:
        raise ValueError("degenerate c-vector cone (collinear rows)")

    def pair(n, m):
        return Fraction(n[0] * m[0], fd.d[0]) + Fraction(n[1] * m[1], fd.d[1])

    gvecs = []
    for own, other in ((c1, c2), (c2, c1)):
        # g is orthogonal to the other c-vector, positive against its own
        cand = (other[1] * fd.d[0], -other[0] * fd.d[1])
        cand = primitive(cand)
        if pair(own, cand) < 0:
            cand = (-cand[0], -cand[1])
        gvecs.append(cand)
    for c in (c1, c2):
        for g in gvecs:
            if pair(c, g) < 0:
                raise AssertionError("chamber duality violated")
    return Chamber((gvecs[0], gvecs[1]), (tuple(c1), tuple(c2)))


# -- seed files ---------------------------------------------------------------------


def fixed_data_to_json(fd: FixedData) -> dict:
    return {
        "rank": fd.n,
        "unfrozen": list(fd.unfrozen),
        "d": list(fd.d),
        "skew": [[str(x) for x in row] for row in fd.skew],
        "coefficients": fd.coefficients,
        "labels": list(fd.labels),
    }


def fixed_data_from_json(data: dict) -> FixedData:
    if not isinstance(data, dict):
        raise ValueError("seed file must hold a JSON object")
    for key in ("rank", "skew"):
        if key not in data:
            raise ValueError(f"seed file is missing the required key {key!r}")
    n = int(data["rank"])
    skew = data["skew"]
    if len(skew) != n or any(len(row) != n for row in skew):
        raise ValueError("skew matrix does not match rank")
    return make_fixed_data(
        skew=[[Fraction(x) for x in row] for row in skew],
        d=data.get("d", [1] * n),
        unfrozen=data.get("unfrozen", list(range(n))),
        labels=data.get("labels"),
        coefficients=data.get("coefficients", "principal"),
    )


def load_seed_file(path) -> FixedData:
    with open(path, "r", encoding="utf-8") as fh:
        return fixed_data_from_json(json.load(fh))


def save_seed_file(fd: FixedData, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fixed_data_to_json(fd), fh, indent=2, sort_keys=True)
        fh.write("\n")
