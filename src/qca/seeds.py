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
    """Directions, skew form {e_i, e_j}, unfrozen subset, and d_i weights.

    Besides the fields, fixed data stores the principal form on N + M*, in
    e- and f-coordinates with <e_i, f_j> = delta_ij / d_i, as the integer
    matrix ``prin`` = form * form_den; ``form_den`` is the lcm of the d_i and
    of the skew entries' denominators.  Equality and hashing use the fields
    only; the hash is computed once, since every per-fixed-data cache hashes
    its key on each lookup.
    """

    n: int
    unfrozen: tuple[int, ...]
    skew: tuple[tuple[Fraction, ...], ...]
    d: tuple[int, ...]
    labels: tuple[str, ...]
    coefficients: str = "principal"  # "principal" | "none"

    def __post_init__(self):
        n = self.n
        if not all(type(i) is int and 0 <= i < n for i in self.unfrozen):
            raise ValueError("unfrozen indices out of range")
        uf = set(self.unfrozen)
        if len(uf) != len(self.unfrozen):
            raise ValueError(f"unfrozen indices repeat: {list(self.unfrozen)}")
        if len(self.labels) != n or not all(isinstance(x, str) for x in self.labels):
            raise ValueError(f"need one string label per direction, got {list(self.labels)}")
        if len(self.d) != n:
            raise ValueError(f"need one d_i per direction, got {len(self.d)} for rank {n}")
        for i in range(n):
            for j in range(n):
                if self.skew[i][j] != -self.skew[j][i]:
                    raise ValueError(f"skew form not antisymmetric at ({i},{j})")
        if not all(type(di) is int and di > 0 for di in self.d):
            raise ValueError(f"the d_i must be positive integers, got {list(self.d)}")
        g = 0
        for di in self.d:
            g = gcd(g, di)
        if g != 1:
            raise ValueError(f"gcd of d is {g}, must be 1")
        den = lcm(*self.d, *(x.denominator for row in self.skew for x in row))
        prin = [[int(x * den) for x in row] + [0] * n for row in self.skew]
        prin += [[0] * (2 * n) for _ in range(n)]
        for i, di in enumerate(self.d):
            prin[i][n + i], prin[n + i][i] = den // di, -(den // di)
        object.__setattr__(self, "form_den", den)
        object.__setattr__(self, "prin", tuple(map(tuple, prin)))
        # integrality: {e_i, d_j e_j} in Z whenever i or j is unfrozen
        for i in range(n):
            for j in range(n):
                v = prin[i][j] * self.d[j]
                if (i in uf or j in uf) and v % den:
                    raise ValueError(
                        f"integrality fails at ({i},{j}): "
                        f"{{e{i + 1},e{j + 1}}}*d{j + 1} = {Fraction(v, den)}")
        if self.coefficients not in ("principal", "none"):
            raise ValueError(f"unknown coefficients mode {self.coefficients!r}")
        object.__setattr__(self, "_hash", hash((self.n, self.unfrozen, self.skew, self.d,
                                                self.labels, self.coefficients)))

    def __hash__(self):
        return self._hash

    @property
    def rank(self) -> int:
        return self.n

    @property
    def d_lcm(self) -> int:
        return lcm(*self.d) if self.n else 1

    def pair_int(self, n, m) -> int:
        """form_den * <n, m> for n in N (e-coordinates) and m in M*
        (f-coordinates)."""
        rank = self.n
        return sum(a * b * self.prin[i][rank + i] for i, (a, b) in enumerate(zip(n, m)))

    def integral(self, value: int, what: str) -> int:
        """value / form_den, which must be an integer: the checked division
        behind every integer read off ``prin`` or ``pair_int``."""
        q, r = divmod(value, self.form_den)
        if r:
            raise ArithmeticError(f"non-integral {what}: {Fraction(value, self.form_den)}")
        return q


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
    return FixedData(n, tuple(unfrozen), rows, tuple(d), tuple(labels), coefficients)


class Seed:
    """A seed of the fixed data: the current basis of N and of the principal
    extension, the exchange matrices, c-vectors, the f-basis of M* and the
    mutation history.

    ``gram`` holds form_den * {e~_i, e~_j}_prin over the basis rows ``ext``;
    the exchange matrices and c-vectors are read off it.  ``fbasis`` holds the
    rows f_{i;s}, the dual basis of {d_i e_{i;s}}, carried along by mutation
    as integers."""

    __slots__ = ("fixed", "ext", "history", "gram", "fbasis")

    def __init__(self, fixed: FixedData, ext=None, history=(), gram=None, fbasis=None):
        """The initial seed of ``fixed``; ``mutate`` passes the mutated
        ``ext``, ``gram`` and ``fbasis``."""
        if ext is None:
            ext, gram, fbasis = _identity(2 * fixed.n), fixed.prin, _identity(fixed.n)
        self.fixed, self.ext, self.history = fixed, ext, tuple(history)
        self.gram, self.fbasis = gram, fbasis

    # -- views ------------------------------------------------------------------
    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """Rows e_{i;s} in initial e-coordinates."""
        n = self.fixed.n
        return tuple(tuple(self.ext[i][:n]) for i in range(n))

    def epsilon_hat(self) -> tuple[tuple[Fraction, ...], ...]:
        fd = self.fixed
        return tuple(tuple(Fraction(x, fd.form_den) for x in row[:fd.n])
                     for row in self.gram[:fd.n])

    def epsilon(self) -> tuple[tuple[Fraction, ...], ...]:
        """The exchange matrix for display: an entry between two frozen
        directions may be a fraction."""
        fd = self.fixed
        return tuple(tuple(Fraction(x * dj, fd.form_den) for x, dj in zip(row, fd.d))
                     for row in self.gram[:fd.n])

    def exchange(self, i: int, j: int) -> int:
        """eps~_ij = {e~_i, e~_j}_prin d_j (j < n), the integer exchange entry
        every mutation formula reads: integral whenever i or j is unfrozen."""
        fd = self.fixed
        return fd.integral(self.gram[i][j] * fd.d[j], "exchange matrix entry")

    def cvector(self, k: int) -> tuple[int, ...]:
        """c_{k;s}: the k-th row of the mixed block of the extended exchange
        matrix (k unfrozen)."""
        fd = self.fixed
        return tuple(fd.integral(x * dj, "c-vector entry")
                     for x, dj in zip(self.gram[k][fd.n:], fd.d))

    def cvectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.cvector(k) for k in self.fixed.unfrozen)

    def f_basis(self) -> tuple[tuple[int, ...], ...]:
        """Rows f_{i;s} in initial f-coordinates: the dual basis of
        {d_i e_{i;s}}, integral because both are bases of M*."""
        return self.fbasis

    # -- mutation ------------------------------------------------------------------
    def mutate(self, k: int) -> "Seed":
        fd = self.fixed
        if k not in fd.unfrozen:
            raise ValueError(f"direction {k} is frozen")
        # e~_i -> e~_i + a_i e~_k (i != k), e~_k -> -e~_k with
        # a_i = [eps~_ik]_+ (a_k = 0)
        g, gk, ek = self.gram, self.gram[k], self.ext[k]
        a = [max(self.exchange(i, k), 0) for i in range(len(g))]
        ext = tuple(tuple(-x for x in ek) if i == k
                    else tuple(x + ai * y for x, y in zip(row, ek)) if ai else row
                    for i, (row, ai) in enumerate(zip(self.ext, a)))
        # by antisymmetry G_ik = -G_ki, so off row and column k the Gram
        # matrix becomes G_ij + a_j G_ik + a_i G_kj; row and column k flip
        gram = tuple(tuple(-x if (i == k) != (j == k) else x - aj * gk[i] + ai * gk[j]
                           for j, (x, aj) in enumerate(zip(row, a)))
                     for i, (row, ai) in enumerate(zip(g, a)))
        # the dual basis: f_k -> -f_k + sum_j [-eps_kj]_+ f_j, f_i fixed (i != k)
        f = self.fbasis
        fk = [-x for x in f[k]]
        for j, fj in enumerate(f):
            b = max(-self.exchange(k, j), 0)
            if b:
                fk = [x + b * y for x, y in zip(fk, fj)]
        fbasis = f[:k] + (tuple(fk),) + f[k + 1:]
        return Seed(fd, ext, self.history + (k,), gram, fbasis)

    def mutate_sequence(self, ks) -> "Seed":
        s = self
        for k in ks:
            s = s.mutate(k)
        return s

    def __repr__(self):
        return f"Seed(history={list(self.history)})"


def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


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

    gvecs = []
    for own, other in ((c1, c2), (c2, c1)):
        # g is orthogonal to the other c-vector, positive against its own
        cand = (other[1] * fd.d[0], -other[0] * fd.d[1])
        cand = primitive(cand)
        if fd.pair_int(own, cand) < 0:
            cand = (-cand[0], -cand[1])
        gvecs.append(cand)
    for c in (c1, c2):
        for g in gvecs:
            if fd.pair_int(c, g) < 0:
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
    n = data["rank"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"rank must be a nonnegative integer, got {n!r}")
    skew = data["skew"]
    # exact types: a bool is no skew entry
    if not isinstance(skew, list) or len(skew) != n or any(
            not isinstance(row, list) or len(row) != n
            or not all(type(x) in (int, float, str) for x in row) for row in skew):
        raise ValueError(f"skew must be a list of {n} rows of {n} numbers")
    for key in ("d", "unfrozen", "labels"):
        if data.get(key) is not None and not isinstance(data[key], list):
            raise ValueError(f"{key!r} must be a list")
    return make_fixed_data(
        skew=[[_skew_entry(x) for x in row] for row in skew],
        d=data.get("d", [1] * n),
        unfrozen=data.get("unfrozen", list(range(n))),
        labels=data.get("labels"),
        coefficients=data.get("coefficients", "principal"),
    )


def _skew_entry(x) -> Fraction:
    """One skew entry of a seed file; a float through its decimal text, so
    that 0.1 is 1/10."""
    try:
        return Fraction(repr(x) if isinstance(x, float) else x)
    except ZeroDivisionError:  # bad input, not a failed computation
        raise ValueError(f"skew entry {x!r} has a zero denominator") from None


def load_seed_file(path) -> FixedData:
    with open(path, "r", encoding="utf-8") as fh:
        return fixed_data_from_json(json.load(fh))


def save_seed_file(fd: FixedData, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fixed_data_to_json(fd), fh, indent=2, sort_keys=True)
        fh.write("\n")
