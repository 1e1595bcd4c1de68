"""Independent reference for the seed data the CLI prints.

Exchange matrices and c-vectors are recomputed here by mutating the Gram
matrix of the principal form on the doubled lattice N + M*, without any
qca code: for a basis change e_i -> e_i + [eps_ik]_+ e_k (i != k),
e_k -> -e_k, the Gram matrix G_ij = {e_i, e_j} becomes
G_ij + a_j G_ik + a_i G_kj for i, j != k and flips sign in row and column
k, where a_i = [G_ik d_k]_+.
"""

from __future__ import annotations

import json
from fractions import Fraction


def load_seed(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    n = int(data["rank"])
    return {
        "n": n,
        "skew": [[Fraction(x) for x in row] for row in data["skew"]],
        "d": [int(x) for x in data.get("d", [1] * n)],
        "unfrozen": [int(x) for x in data.get("unfrozen", range(n))],
    }


def _initial_gram(seed: dict):
    n, d = seed["n"], seed["d"]
    g = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            g[i][j] = seed["skew"][i][j]
        g[i][n + i] = Fraction(1, d[i])
        g[n + i][i] = Fraction(-1, d[i])
    return g


def _mutate_gram(g, k: int, dk: int):
    size = len(g)
    a = [max(g[i][k] * dk, 0) if i != k else 0 for i in range(size)]
    out = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if i == k and j == k:
                continue
            if i == k or j == k:
                out[i][j] = -g[i][j]
            else:
                out[i][j] = g[i][j] + a[j] * g[i][k] + a[i] * g[k][j]
    return out


def _as_int(x: Fraction) -> int:
    if x.denominator != 1:
        raise ArithmeticError(f"non-integral entry {x}")
    return int(x)


def seed_rows(seed: dict, sequence) -> list[dict]:
    """Per step of a 0-based mutation sequence: the exchange matrix
    eps_ij = {e_i, e_j} d_j and the c-vectors c_k (rows of the mixed block,
    k unfrozen), as the CLI's mutation tables print them."""
    n, d = seed["n"], seed["d"]
    g = _initial_gram(seed)
    rows = []
    for step in range(len(sequence) + 1):
        if step:
            k = sequence[step - 1]
            if k not in seed["unfrozen"]:
                raise ValueError(f"direction {k} is frozen")
            g = _mutate_gram(g, k, d[k])
        rows.append({
            "epsilon": [[_as_int(g[i][j] * d[j]) for j in range(n)]
                        for i in range(n)],
            "cvectors": [[_as_int(g[k][n + j] * d[j]) for j in range(n)]
                         for k in seed["unfrozen"]],
        })
    return rows
