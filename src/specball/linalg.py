"""Exact and modular sparse linear algebra over the rationals.

Row spaces are kept in echelon form keyed by pivot column.  Exact rows are
primitive integer vectors (denominators cleared, gcd divided out), so all
reductions stay in arbitrary-precision integers; every rank and membership
that a report certifies comes from them.  The modular variant runs the same
elimination over F_p.  No path in the package uses it: it stays because the
benchmark's traced run wraps its `reduce`, and because its rank is the
lower bound a one-prime certificate needs (integer vectors independent
mod p are independent over Q, while a vector it rejects may still be new
over Q).

`SparseMatrix` is the kernel oracle's slice matrix: integer rows (a
`Fraction` only where the derivation has a denominator), multiplied row by
row, with rank and nullity from the exact echelon.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .polyring import exact_coefficient


def clear_denominators(vec: dict[int, int | Fraction]) -> dict[int, int]:
    """Scale a rational vector to a primitive integer vector."""
    if all(type(c) is int for c in vec.values()):
        ints = {k: c for k, c in vec.items() if c}
    else:
        denom = lcm(*(Fraction(c).denominator for c in vec.values()))
        ints = {k: int(Fraction(c) * denom) for k, c in vec.items() if c != 0}
    if not ints:
        return {}
    g = gcd(*ints.values())
    if g > 1:
        ints = {k: c // g for k, c in ints.items()}
    lead = ints[min(ints)]
    if lead < 0:
        ints = {k: -c for k, c in ints.items()}
    return ints


class ExactRowSpace:
    """Integer row-echelon structure supporting insert and membership."""

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}   # pivot column -> row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict[int, int]) -> dict[int, int]:
        """Eliminate pivots from vec; returns the (primitive) remainder."""
        v = {k: c for k, c in vec.items() if c != 0}
        while v:
            p = min(v)
            row = self.rows.get(p)
            if row is None:
                break
            a, b = row[p], v[p]
            g = gcd(a, b)
            ma, mb = a // g, b // g
            new = {}
            for k, c in v.items():
                new[k] = c * ma
            for k, c in row.items():
                s = new.get(k, 0) - c * mb
                if s:
                    new[k] = s
                else:
                    new.pop(k, None)
            v = new
            if v:
                g = 0
                for c in v.values():
                    g = gcd(g, c)
                if g > 1:
                    v = {k: c // g for k, c in v.items()}
        if v and v[min(v)] < 0:
            v = {k: -c for k, c in v.items()}
        return v

    def insert(self, vec: dict[int, int]) -> bool:
        """Insert if independent; returns True when the rank grew."""
        rem = self.reduce(vec)
        if not rem:
            return False
        self.rows[min(rem)] = rem
        return True

    def contains(self, vec: dict[int, int]) -> bool:
        return not self.reduce(vec)


class ModularRowSpace:
    """Row echelon over F_p with unit pivots; mirrors ExactRowSpace."""

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict[int, int]) -> dict[int, int]:
        p = self.p
        v = {}
        for k, c in vec.items():
            c %= p
            if c:
                v[k] = c
        while v:
            col = min(v)
            row = self.rows.get(col)
            if row is None:
                break
            b = v[col]
            for k, c in row.items():
                s = (v.get(k, 0) - b * c) % p
                if s:
                    v[k] = s
                else:
                    v.pop(k, None)
        return v

    def insert(self, vec: dict[int, int]) -> bool:
        rem = self.reduce(vec)
        if not rem:
            return False
        col = min(rem)
        inv = pow(rem[col], -1, self.p)
        self.rows[col] = {k: (c * inv) % self.p for k, c in rem.items()}
        return True

    def contains(self, vec: dict[int, int]) -> bool:
        return not self.reduce(vec)


class SparseMatrix:
    """Sparse exact matrix stored by rows: `rows[i][j]` is the nonzero entry
    (i, j), an `int` when integral and a `Fraction` otherwise (the polyring
    convention).  It holds the slice matrices of the kernel oracle."""

    def __init__(self, nrows: int, ncols: int,
                 rows: dict[int, dict[int, int | Fraction]] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, dict[int, int | Fraction]] = {}
        for i, row in (rows or {}).items():
            clean = {j: exact_coefficient(c) for j, c in row.items() if c}
            if clean:
                self.rows[i] = clean

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError("matrix shapes do not align")
        other_rows = other.rows
        out: dict[int, dict[int, int | Fraction]] = {}
        for i, row in self.rows.items():
            acc: dict[int, int | Fraction] = {}
            for k, v in row.items():
                for j, w in other_rows.get(k, {}).items():
                    acc[j] = acc.get(j, 0) + v * w
            out[i] = acc
        return SparseMatrix(self.nrows, other.ncols, out)

    def rank(self) -> int:
        space = ExactRowSpace()
        for row in self.rows.values():
            space.insert(clear_denominators(row))
        return space.rank

    def nullity(self) -> int:
        return self.ncols - self.rank()
