"""Seeded benchmark inputs: catalog algebras under a unimodular change of basis.

Everything here is plain data (ints and rational strings), so the same
seed gives byte-identical inputs and the oracle can read them without
going through rnalg.  For each catalog algebra the seed picks an integer
matrix T = (I + E_{0,n-1}) D with D a diagonal sign matrix, so det T = +-1
and T^-1 = D (I - E_{0,n-1}).  The copy has basis
f_i = sum_a T[a][i] e_a; its structure constants and the conjugated
operators T^-1 P T are integral again, and every isomorphism invariant
(F_p solution counts, cohomology dimension tables, rigidity verdicts)
equals that of the original.

The transvection is fixed and only the signs are seeded: the copy is a
sign change of basis of one fixed copy.  Sign changes leave every zero
pattern, pivot choice and entry size of the exact linear algebra
unchanged, so every seed gives the same load.
A freely drawn T (random permutation and transvections) changed one pass
of the complex workload by up to 40 % between seeds.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

SEEDED_ALGEBRAS = ("leftunit2", "pair3", "trunc3", "mat2")


def change_of_basis(rng: random.Random, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """T = (I + E_{0,n-1}) D and its exact inverse, for seeded signs D."""
    d = [rng.choice((1, -1)) for _ in range(n)]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    uinv = [row[:] for row in u]
    if n > 1:
        u[0][n - 1] = 1
        uinv[0][n - 1] = -1
    t = [[u[i][j] * d[j] for j in range(n)] for i in range(n)]
    tinv = [[d[i] * uinv[i][j] for j in range(n)] for i in range(n)]
    return t, tinv


def conjugate_constants(dim: int, triples, t, tinv) -> list[list]:
    """Sparse structure constants of the algebra in the basis f_i = sum_a T[a][i] e_a."""
    c = {}
    for i, j, k, v in triples:
        c[(i, j, k)] = Fraction(v)
    out = []
    for i in range(dim):
        for j in range(dim):
            vec = [Fraction(0)] * dim
            for (x, y, z), v in c.items():
                w = t[x][i] * t[y][j]
                if w:
                    vec[z] += w * v
            for k in range(dim):
                val = sum(tinv[k][z] * vec[z] for z in range(dim))
                if val:
                    out.append([i, j, k, qstr(val)])
    return out


def conjugate_matrix(rows, t, tinv) -> list[list[str]]:
    """T^-1 M T for a matrix in the column convention."""
    n = len(rows)
    m = [[Fraction(x) for x in r] for r in rows]
    mt = [[sum(m[a][b] * t[b][j] for b in range(n)) for j in range(n)] for a in range(n)]
    return [[qstr(sum(tinv[i][a] * mt[a][j] for a in range(n))) for j in range(n)]
            for i in range(n)]


def qstr(x) -> str:
    """A rational as rnalg's JSON writes it: "3", "-7/2"."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def generate(seed: int, base: dict) -> dict:
    """Seeded copies of the base algebras and their operators.

    `base` maps an algebra name to {"dim", "c": [[i, j, k, coeff]], "operators":
    {label: rows}}.  The result keeps the originals and adds, per name in
    SEEDED_ALGEBRAS, the copy with the same operator labels.
    """
    originals = {}
    seeded = {}
    for name in sorted(base):
        entry = base[name]
        originals[name] = {
            "dim": entry["dim"],
            "c": [[i, j, k, qstr(v)] for i, j, k, v in entry["c"]],
            "operators": {label: [[qstr(x) for x in r] for r in rows]
                          for label, rows in entry["operators"].items()},
        }
    for name in SEEDED_ALGEBRAS:
        orig = originals[name]
        rng = random.Random(f"rnalg-bench:{seed}:{name}")
        t, tinv = change_of_basis(rng, orig["dim"])
        seeded[name] = {
            "dim": orig["dim"],
            "c": conjugate_constants(orig["dim"], orig["c"], t, tinv),
            "operators": {label: conjugate_matrix(rows, t, tinv)
                          for label, rows in orig["operators"].items()},
            "T": t,
            "Tinv": tinv,
        }
    return {"seed": seed, "originals": originals, "seeded": seeded}


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))
