"""Exact and modular sparse linear algebra over the rationals.

Row spaces are kept in echelon form keyed by pivot column.  Exact rows are
primitive integer vectors (denominators cleared, gcd divided out), so all
reductions stay in arbitrary-precision integers; the kernel oracle and the
cross-image check rank with them.  The modular variant keeps a reduced
echelon over F_p.  The bracket closure keeps its vectors and relations in
it, because its rank is the lower bound a one-prime certificate needs
(integer vectors independent mod p are independent over Q, while a vector
it rejects may still be new over Q).  `BlockedRowSpace` splits such an
echelon by a grading of the columns, one `ModularRowSpace` per block.

`SparseMatrix` is the kernel oracle's slice matrix: integer rows (a
`Fraction` only where the derivation has a denominator), multiplied row by
row, with rank and nullity from the exact echelon.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

from .polyring import GradingError, exact_coefficient


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
    """Reduced row echelon over F_p: each row has a unit pivot at its first
    column and is zero at every other row's pivot.  Reducing a vector is
    then one pass over its pivot columns, with no fill-in at other pivots;
    an insert clears its pivot column from the rows already kept."""

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, dict[int, int]] = {}   # pivot column -> row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict[int, int]) -> dict[int, int]:
        """vec minus its pivot entries times their rows, mod p."""
        p, rows = self.p, self.rows
        out = dict(vec)
        get = out.get
        for col, b in vec.items():
            row = rows.get(col)
            if row is not None and b % p:
                for k, c in row.items():
                    out[k] = get(k, 0) - b * c
        return {k: r for k, c in out.items() if (r := c % p)}

    def insert(self, vec: dict[int, int]) -> bool:
        rem = self.reduce(vec)
        if not rem:
            return False
        p = self.p
        col = min(rem)
        inv = pow(rem[col], -1, p)
        new = {k: c * inv % p for k, c in rem.items()}
        for row in self.rows.values():
            b = row.get(col)
            if b:
                for k, c in new.items():
                    s = (row.get(k, 0) - b * c) % p
                    if s:
                        row[k] = s
                    else:
                        del row[k]
        self.rows[col] = new
        return True

    def contains(self, vec: dict[int, int]) -> bool:
        return not self.reduce(vec)


class BlockedRowSpace:
    """Reduced echelons over F_p, one `ModularRowSpace` per block of a
    column grading: `block_of[col]` is the block of each column.  A vector
    goes to the block of its columns, and one whose columns lie in two
    blocks raises `GradingError`.  Vectors of different blocks share no
    column, so an insert meets only rows of its own block, and `rank`, the
    sum of the block ranks, is the rank of all the vectors inserted."""

    def __init__(self, p: int, block_of: Sequence[int]):
        self.p = p
        self.block_of = block_of
        self.blocks: dict[int, ModularRowSpace] = {}   # block -> its echelon
        self.rank = 0

    def block(self, vec: dict[int, int]) -> int | None:
        """The block of vec's columns; None for the zero vector."""
        blocks = {self.block_of[col] for col in vec}
        if len(blocks) > 1:
            raise GradingError(f"vector spans the blocks {sorted(blocks)}")
        return blocks.pop() if blocks else None

    def block_rank(self, block: int) -> int:
        space = self.blocks.get(block)
        return 0 if space is None else space.rank

    def _space(self, vec: dict[int, int]) -> ModularRowSpace:
        block = self.block(vec)
        space = self.blocks.get(block)
        if space is None:
            space = self.blocks[block] = ModularRowSpace(self.p)
        return space

    def insert(self, vec: dict[int, int]) -> bool:
        inserted = self._space(vec).insert(vec)
        self.rank += inserted
        return inserted

    def contains(self, vec: dict[int, int]) -> bool:
        return self._space(vec).contains(vec)


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
