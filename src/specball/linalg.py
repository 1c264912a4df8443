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
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable


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


def exact_rank(rows: Iterable[dict[int, Fraction | int]]) -> int:
    space = ExactRowSpace()
    for r in rows:
        space.insert(clear_denominators(r))
    return space.rank


class SparseMatrix:
    """Sparse exact matrix keyed (row, col), with product and rank."""

    def __init__(self, nrows: int, ncols: int, entries: dict[tuple[int, int], Fraction] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict[tuple[int, int], Fraction] = {}
        if entries:
            for k, v in entries.items():
                v = Fraction(v)
                if v != 0:
                    self.entries[k] = v

    def rows_sparse(self) -> list[dict[int, Fraction]]:
        rows: list[dict[int, Fraction]] = [dict() for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError("matrix shapes do not align")
        by_row: dict[int, dict[int, Fraction]] = {}
        for (i, k), v in self.entries.items():
            by_row.setdefault(i, {})[k] = v
        other_rows: dict[int, dict[int, Fraction]] = {}
        for (k, j), w in other.entries.items():
            other_rows.setdefault(k, {})[j] = w
        out: dict[tuple[int, int], Fraction] = {}
        for i, row in by_row.items():
            acc: dict[int, Fraction] = {}
            for k, v in row.items():
                orow = other_rows.get(k)
                if not orow:
                    continue
                for j, w in orow.items():
                    acc[j] = acc.get(j, 0) + v * w
            for j, s in acc.items():
                if s:
                    out[(i, j)] = s
        return SparseMatrix(self.nrows, other.ncols, out)

    def rank(self) -> int:
        return exact_rank(self.rows_sparse())

    def nullity(self) -> int:
        return self.ncols - self.rank()
