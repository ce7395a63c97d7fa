"""Built-in fixture algebras, associativity-verified on construction."""

from __future__ import annotations

from .algebra import Algebra
from .exactlin import Matrix


def zero1() -> Algebra:
    """Dimension 1, identically zero product."""
    return Algebra.from_sparse(1, [], name="zero1")


def leftunit2() -> Algebra:
    """Dimension 2 with e0*e0 = e0 and e0*e1 = e1; e1 annihilates on the left."""
    return Algebra.from_sparse(2, [(0, 0, 0, 1), (0, 1, 1, 1)], name="leftunit2")


def pair3() -> Algebra:
    """Dimension 3 with e0*e2 = e1 = e2*e0; every other product is zero."""
    return Algebra.from_sparse(3, [(0, 2, 1, 1), (2, 0, 1, 1)], name="pair3")


def mat2() -> Algebra:
    """Full 2x2 matrix algebra; basis E00, E01, E10, E11 row-major."""
    def idx(r, c):
        return 2 * r + c

    triples = []
    for r in range(2):
        for s in range(2):
            for t in range(2):
                for u in range(2):
                    if s == t:
                        triples.append((idx(r, s), idx(t, u), idx(r, u), 1))
    return Algebra.from_sparse(4, triples,
                               basis=["E00", "E01", "E10", "E11"], name="mat2")


def trunc3() -> Algebra:
    """Polynomials in x truncated above degree 2; basis 1, x, x^2."""
    triples = [(0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1),
               (1, 0, 1, 1), (2, 0, 2, 1), (1, 1, 2, 1)]
    return Algebra.from_sparse(3, triples, basis=["1", "x", "x^2"], name="trunc3")


_BUILDERS = {
    "zero1": zero1,
    "leftunit2": leftunit2,
    "pair3": pair3,
    "mat2": mat2,
    "trunc3": trunc3,
}


def catalog() -> dict[str, Algebra]:
    """All fixture algebras, each verified associative."""
    out = {}
    for name, build in _BUILDERS.items():
        a = build()
        if not a.is_associative():
            raise AssertionError(f"catalog algebra {name} failed associativity")
        out[name] = a
    return out


def operator(rows) -> Matrix:
    return Matrix.from_rows(rows)
