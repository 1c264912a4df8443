"""Exact and modular sparse linear algebra over the rationals.

Row spaces are kept in echelon form keyed by pivot column.  Exact rows are
primitive integer vectors (denominators cleared, gcd divided out), so all
reductions stay in arbitrary-precision integers; the kernel oracle and the
cross-image check rank with them.  The modular variant keeps a reduced
echelon over F_p, split by a grading of the columns into blocks that share
no column, and tracks which blocks are below full rank.  The bracket closure
keeps its vectors in it, graded by sl_n weight, because its
rank is the lower bound a one-prime certificate needs (integer vectors
independent mod p are independent over Q, while a vector it rejects may
still be new over Q).

`SparseMatrix` is the kernel oracle's slice matrix: integer rows (a
`Fraction` only where the derivation has a denominator), multiplied row by
row, with rank and nullity from the exact echelon.
"""

from __future__ import annotations

from collections import Counter
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
    """Reduced row echelon over F_p, split by a grading of the columns:
    `block_of[col]` is the block of each column (`[0] * ncols` is one block).

    Each row has a unit pivot at its first column and is zero at every other
    row's pivot, so reducing a vector is one pass over its pivot columns,
    with no fill-in at other pivots.  A vector goes to the block of its
    columns, and one whose columns lie in two blocks raises `GradingError`.
    An insert clears its pivot column from the rows that hold it, found
    through the column index `holders`: for each non-pivot column, the
    pivots of the rows that gained it, as a new row's column or as fill-in.
    An entry goes stale when its row loses the column, and a row that
    regains it is listed twice; the insert skips a row that no longer holds
    the column, so its work is the arithmetic alone (Gilbert and Peierls,
    SIAM J. Sci. Stat. Comput. 9, 1988).  Each row is updated from the new
    row alone, so the order of the visits does not matter.  `open_blocks`,
    the blocks whose rank is below their column count, is kept up to date
    on insert."""

    def __init__(self, p: int, block_of: Sequence[int]):
        self.p = p
        self.block_of = block_of
        self.rows: dict[int, dict[int, int]] = {}          # pivot column -> row
        self.blocks: dict[int, list[dict[int, int]]] = {}  # block -> its rows
        self.holders: dict[int, list[int]] = {}            # column -> pivots of its rows
        self.sizes = Counter(block_of)                     # block -> column count
        self.open_blocks = set(self.sizes)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def block(self, vec: dict[int, int]) -> int | None:
        """The block of vec's columns; None for the zero vector."""
        blocks = {self.block_of[col] for col in vec}
        if len(blocks) > 1:
            raise GradingError(f"vector spans the blocks {sorted(blocks)}")
        return blocks.pop() if blocks else None

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
        block = self.block(vec)
        rem = self.reduce(vec)
        if not rem:
            return False
        p = self.p
        col = min(rem)
        inv = pow(rem[col], -1, p)
        new = {k: c * inv % p for k, c in rem.items()}
        by_pivot, holders = self.rows, self.holders
        for k in new:
            if k != col:
                holders.setdefault(k, []).append(col)
        # only the rows holding the new pivot column change
        for pivot in holders.pop(col, ()):
            row = by_pivot[pivot]
            b = row.get(col)
            if b is None:
                continue
            for k, c in new.items():
                s = row.get(k)
                if s is None:
                    row[k] = -b * c % p
                    holders[k].append(pivot)
                elif s := (s - b * c) % p:
                    row[k] = s
                else:
                    del row[k]
        rows = self.blocks.setdefault(block, [])
        rows.append(new)
        by_pivot[col] = new
        if len(rows) == self.sizes[block]:
            self.open_blocks.discard(block)
        return True

    def contains(self, vec: dict[int, int]) -> bool:
        self.block(vec)
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
