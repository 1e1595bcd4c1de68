"""p* lattice maps, Berenstein-Zelevinsky compatible pairs, and the
dictionary between the two quantizations.

The translation identifies q_FG^{1/d} with q_BZ^{-1/2} (d = lcm of the
unfrozen d_i) and sends the Weyl monomial X^n to A^{p*(n)}.  For this to be
an algebra map the skew forms must match: Lambda(p* e_i, p* e_j) = -d
{e_i, e_j}, which is validated once per fixed data, with the principal
compatible pair (it holds automatically on unfrozen pairs for any
compatible pair with D' = d D_uf^{-1}).

Coefficients here are always central scalars; the degenerate regime where
eps restricted to the unfrozen block drops rank (so that honest principal
quantization would need non-commuting coefficient *variables*) is
representable only by adding frozen lattice directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .seeds import FixedData, Seed, row_reduce
from .words import FactoredWord, words_equal


class CompatibilityError(ValueError):
    """A pair (Lambda, Btilde) fails the compatibility shape; carries the
    offending entry."""

    def __init__(self, entry, value, message):
        super().__init__(message)
        self.entry = entry
        self.value = value


@dataclass(frozen=True)
class PStarMap:
    """Rows are p*(e_i) in (initial) f-coordinates of M*."""

    rows: tuple[tuple[int, ...], ...]

    def apply(self, n) -> tuple[int, ...]:
        rank = len(self.rows[0])
        out = [0] * rank
        for i, a in enumerate(n):
            if a:
                for j in range(rank):
                    out[j] += a * self.rows[i][j]
        return tuple(out)


@cache
def p1_star(fd: FixedData) -> PStarMap:
    """The default full extension n -> {n, .}: row i is ({e_i,e_j} d_j)_j,
    read off the integer principal form as prin_ij d_j / form_den.

    Restricted to the unfrozen sublattice this is p1*; the full rows are
    integral whenever {N, N*} pairs integrally (true for every shipped
    fixture).  An entry between two frozen directions may fail that, and
    ``FixedData.integral`` then raises an ArithmeticError naming it.
    """
    return PStarMap(tuple(
        tuple(fd.integral(fd.prin[i][j] * fd.d[j],
                          f"p* entry {{e{i + 1},e{j + 1}}}d{j + 1}")
              for j in range(fd.n))
        for i in range(fd.n)))


def p1_star_injective(fd: FixedData) -> bool:
    """Injectivity of p1* on the unfrozen sublattice (rank over Q)."""
    rows = [list(map(Fraction, p1_star(fd).rows[i])) for i in fd.unfrozen]
    return len(row_reduce(rows, fd.n)[1]) == len(fd.unfrozen)


@dataclass(frozen=True)
class CompatiblePair:
    """Lambda antisymmetric, Btilde = eps_{uf x I}^T, with
    Btilde^T Lambda = (D' 0) for positive diagonal D'."""

    Lambda: tuple[tuple[int, ...], ...]
    Btilde: tuple[tuple[int, ...], ...]
    Dprime: tuple[int, ...]


def btilde_of(fd: FixedData) -> tuple[tuple[int, ...], ...]:
    """Btilde (|I| x |I_uf|): column per unfrozen k with entries eps_kj."""
    seed = Seed(fd)
    return tuple(tuple(seed.exchange(k, j) for k in fd.unfrozen) for j in range(fd.n))


def check_compatible_pair(Lambda, Btilde, unfrozen_cols=None) -> tuple[int, ...]:
    """Validate Btilde^T Lambda = (D' 0); returns the diagonal of D'.

    Also checks antisymmetry of Lambda, full column rank of Btilde, and that
    D'B is skew-symmetric (B the principal block), via DB = Bt^T Lambda Bt.
    ``unfrozen_cols`` lists where the D' block sits (default: the leading
    columns, the Berenstein-Zelevinsky index convention).
    """
    n = len(Lambda)
    m = len(Btilde[0]) if Btilde else 0
    if unfrozen_cols is None:
        unfrozen_cols = tuple(range(m))
    for i in range(n):
        for j in range(n):
            if Lambda[i][j] != -Lambda[j][i]:
                raise CompatibilityError((i, j), Lambda[i][j],
                                         "Lambda is not antisymmetric")
    bt_rows = [[Fraction(x) for x in row] for row in _transpose(Btilde)]
    if len(row_reduce(bt_rows, len(Btilde))[1]) != m:
        raise CompatibilityError(None, None, "Btilde is not of full rank")
    prod = [[sum(Btilde[r][k] * Lambda[r][j] for r in range(n)) for j in range(n)]
            for k in range(m)]
    dprime = []
    for k in range(m):
        row = prod[k]
        jk = unfrozen_cols[k]
        for j in range(n):
            if j != jk and row[j] != 0:
                raise CompatibilityError((k, j), row[j],
                                         f"(Bt^T Lambda)[{k}][{j}] should vanish")
        if row[jk] <= 0:
            raise CompatibilityError((k, jk), row[jk], "D' entry not positive")
        dprime.append(row[jk])
    # D'B skew-symmetric check
    db = [[sum(prod[k][r] * Btilde[r][l] for r in range(n)) for l in range(m)]
          for k in range(m)]
    for k in range(m):
        for l in range(m):
            if db[k][l] != -db[l][k]:
                raise CompatibilityError((k, l), db[k][l],
                                         "D'B is not skew-symmetric")
    return tuple(dprime)


def _transpose(mat):
    return tuple(tuple(row[i] for row in mat) for i in range(len(mat[0])))


@cache
def principal_compatible_pair(fd: FixedData) -> CompatiblePair:
    """Solve for an integer antisymmetric Lambda with
    Btilde^T Lambda = (D' 0), D' = d * D_uf^{-1}, together with the
    homomorphism condition Lambda(p*e_i, p*e_j) = -d {e_i, e_j}.
    """
    n = fd.n
    d = fd.d_lcm
    pmap = p1_star(fd)
    unknowns = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {u: a for a, u in enumerate(unknowns)}

    def lam_coeff(i, j):
        """coefficient vector of Lambda[i][j] over the unknowns"""
        v = [Fraction(0)] * len(unknowns)
        if i < j:
            v[index[(i, j)]] = Fraction(1)
        elif j < i:
            v[index[(j, i)]] = Fraction(-1)
        return v

    rows, rhs = [], []
    bt = btilde_of(fd)
    for col, k in enumerate(fd.unfrozen):
        for j in range(n):
            # sum_i eps_ki Lambda[i][j] = delta (target)
            acc = [Fraction(0)] * len(unknowns)
            for i, row in enumerate(bt):
                if row[col]:
                    acc = [a + row[col] * b for a, b in zip(acc, lam_coeff(i, j))]
            target = Fraction(d, fd.d[k]) if j == k else Fraction(0)
            rows.append(acc)
            rhs.append(target)
    for i in range(n):
        for j in range(i + 1, n):
            acc = [Fraction(0)] * len(unknowns)
            for a in range(n):
                pa = pmap.rows[i][a]
                if not pa:
                    continue
                for b in range(n):
                    pb = pmap.rows[j][b]
                    if pb:
                        acc = [x + pa * pb * y for x, y in zip(acc, lam_coeff(a, b))]
            rows.append(acc)
            rhs.append(-d * fd.skew[i][j])
    sol = _solve(rows, rhs)
    if sol is None:
        raise CompatibilityError(None, None,
                                 "no compatible pair exists for this data")
    Lambda = [[0] * n for _ in range(n)]
    for (i, j), a in index.items():
        if sol[a].denominator != 1:
            raise CompatibilityError((i, j), sol[a],
                                     "compatible pair is not integral")
        Lambda[i][j] = int(sol[a])
        Lambda[j][i] = -int(sol[a])
    Lt = tuple(tuple(r) for r in Lambda)
    dprime = check_compatible_pair(Lt, bt, unfrozen_cols=fd.unfrozen)
    _check_intertwines(fd, pmap, Lt)
    return CompatiblePair(Lt, bt, dprime)


def _check_intertwines(fd: FixedData, pmap: PStarMap, Lambda) -> None:
    """Multiplicativity of p*: Lambda(p*e_i, p*e_j) = -d {e_i, e_j} for all
    i, j, without which X^n -> A^{p*(n)} is no *-algebra homomorphism."""
    d, rows = fd.d_lcm, pmap.rows
    for i in range(fd.n):
        for j in range(fd.n):
            lhs = sum(rows[i][a] * Lambda[a][b] * rows[j][b]
                      for a in range(fd.n) for b in range(fd.n))
            if lhs != -d * fd.skew[i][j]:
                raise CompatibilityError(
                    (i, j), lhs,
                    "p* does not intertwine the skew forms; no *-algebra "
                    "homomorphism for this (Lambda, p*)")


def _solve(rows, rhs):
    """Particular solution of rows * x = rhs over Q (free unknowns = 0)."""
    ncols = len(rows[0]) if rows else 0
    m, pivots = row_reduce([list(r) + [b] for r, b in zip(rows, rhs)], ncols)
    if any(row[ncols] != 0 for row in m[len(pivots):]):
        return None
    sol = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivots):
        sol[c] = m[row_idx][ncols]
    return sol


class PStarHom:
    """The *-algebra homomorphism X-torus-with-coefficients ->
    A-torus-with-coefficients induced by p*, on the Lambda of the
    principal compatible pair (whose solve checks multiplicativity once per
    fixed data)."""

    def __init__(self, fd: FixedData):
        self.fd = fd
        self.pmap = p1_star(fd)
        self.Lambda = principal_compatible_pair(fd).Lambda
        self.d = fd.d_lcm
        from .mutation import a_torus

        self.atorus = a_torus(fd)

    def scalar_map(self, s):
        # q_FG^e -> q_BZ^{-e d / 2}
        return s.subs_q(Fraction(-self.d, 2))

    def apply(self, w: FactoredWord) -> FactoredWord:
        return w.transport(self.atorus, self.pmap.apply, self.scalar_map)

    def intertwining(self, order: int) -> list[tuple[int, int, bool]]:
        """p* o mu_k = mu_k o p* on the generators of each adjacent seed:
        (k, i, ok) per unfrozen k and generator X_{i;mu_k(s)}, comparing the
        image of its X-side mutation with the A-side mutation of
        A^{p*(e_{i;mu_k(s)})} to the given order."""
        from .mutation import mutate_a_word, mutate_word, x_torus

        xalg = x_torus(self.fd)
        seed = Seed(self.fd)
        out = []
        for k in self.fd.unfrozen:
            for i, e in enumerate(seed.mutate(k).basis):
                lhs = self.apply(mutate_word(FactoredWord.monomial(xalg, e), k, seed))
                rhs = mutate_a_word(FactoredWord.monomial(self.atorus, self.pmap.apply(e)),
                                    k, seed)
                out.append((k, i, words_equal(lhs, rhs, order)))
        return out
