import random
from fractions import Fraction
from math import gcd

import pytest

from specball import liegen
from specball.liegen import CLOSURE_PRIME, build_seeds, closure
from specball.linalg import ExactRowSpace, ModularRowSpace, clear_denominators
from specball.polyring import GradingError


def random_rows(rng, nrows, ncols, bound=3):
    return [{j: c for j in range(ncols) if (c := rng.randint(-bound, bound))}
            for _ in range(nrows)]


def test_modular_rank_never_exceeds_exact_rank():
    # the one-sided inequality a one-prime certificate rests on: rows
    # independent mod p are independent over Q
    rng = random.Random(5)
    drops = 0
    for _ in range(200):
        ncols = rng.randint(1, 5)
        rows = random_rows(rng, rng.randint(1, 5), ncols)
        exact = ExactRowSpace()
        for row in rows:
            exact.insert(row)
        for p in (2, 3, 5, 2**31 - 1):
            mod = ModularRowSpace(p, [0] * ncols)
            for row in rows:
                mod.insert(row)
            assert mod.rank <= exact.rank
            drops += mod.rank < exact.rank
    assert drops > 0


def _fraction_rank(rows, ncols):
    """Rank by Gauss-Jordan elimination over Fraction: the reference."""
    pivots = {}                                   # pivot column -> row, 1 there
    for row in rows:
        v = [Fraction(row.get(j, 0)) for j in range(ncols)]
        for col, prow in pivots.items():
            if v[col]:
                v = [a - v[col] * b for a, b in zip(v, prow)]
        lead = next((j for j, c in enumerate(v) if c), None)
        if lead is not None:
            pivots[lead] = [c / v[lead] for c in v]
            for col, prow in pivots.items():
                if col != lead and prow[lead]:
                    pivots[col] = [a - prow[lead] * b for a, b in zip(prow, pivots[lead])]
    return len(pivots)


def test_exact_rank_matches_fraction_elimination():
    # rows with zero entries, negative leads, common factors and Fractions
    rng = random.Random(3)
    for _ in range(300):
        ncols = rng.randint(1, 6)
        rows = [{j: rng.choice([0, 0, 1, -1, 2, -4, 6, Fraction(1, 2), Fraction(-2, 3)])
                 for j in range(ncols)} for _ in range(rng.randint(1, 6))]
        cleared, raw = ExactRowSpace(), ExactRowSpace()
        for row in rows:
            vec = clear_denominators(row)
            nonzero = {k: Fraction(c) for k, c in row.items() if c}
            assert vec.keys() == nonzero.keys()
            if vec:
                lead = min(vec)
                assert vec[lead] > 0 and gcd(*vec.values()) == 1
                assert all(vec[k] * nonzero[lead] == c * vec[lead] for k, c in nonzero.items())
            cleared.insert(vec)
            if all(type(c) is int for c in row.values()):
                raw.insert(row)
        assert cleared.rank == _fraction_rank(rows, ncols)
        int_rows = [r for r in rows if all(type(c) is int for c in r.values())]
        assert raw.rank == _fraction_rank(int_rows, ncols)


def test_modular_rank_drops_when_p_divides_the_determinant():
    # the second row is new over Q but already spanned mod 5
    rows = [{0: 2, 1: 3}, {0: 4, 1: 1}]          # determinant -10
    exact = ExactRowSpace()
    mod = ModularRowSpace(5, [0, 0])
    assert exact.insert(rows[0]) and mod.insert(rows[0])
    assert exact.insert(rows[1]) and not mod.insert(rows[1])
    assert exact.rank == 2 and mod.rank == 1


def test_modular_contains_agrees_with_insert():
    rng = random.Random(11)
    for p in (3, 101):
        space = ModularRowSpace(p, [0] * 6)
        for row in random_rows(rng, 40, 6):
            expected_new = not space.contains(row)
            rank = space.rank
            assert space.insert(row) == expected_new
            assert space.rank == rank + expected_new
            assert space.contains(row)


def test_graded_rank_is_the_rank_of_all_rows():
    # rows supported in one block each: the block ranks add up to the rank of
    # one single-block echelon over every row, membership is decided in the
    # row's block, and the open blocks are those below their column count
    rng = random.Random(7)
    block_of = [j % 3 for j in range(10)]
    graded, whole = ModularRowSpace(101, block_of), ModularRowSpace(101, [0] * 10)
    columns = {b: block_of.count(b) for b in range(3)}

    def block_rank(b):
        return len(graded.blocks.get(b, ()))

    assert graded.open_blocks == {0, 1, 2}
    for _ in range(60):
        b = rng.randrange(3)
        row = {j: c for j in range(b, 10, 3) if (c := rng.randint(-2, 2))}
        assert graded.contains(row) == whole.contains(row)
        assert graded.insert(row) == whole.insert(row)
        assert graded.rank == whole.rank == sum(block_rank(b) for b in range(3))
        assert graded.open_blocks == {b for b, size in columns.items()
                                      if block_rank(b) < size}
    assert graded.rank == 10 and not graded.open_blocks
    assert block_rank(0) == 4 and block_rank(1) == 3
    assert block_rank(5) == 0


def test_blocked_row_across_two_blocks_raises():
    space = ModularRowSpace(101, [0, 0, 1])
    assert space.insert({0: 1, 1: 2})
    for op in (space.insert, space.contains):
        with pytest.raises(GradingError):
            op({1: 1, 2: 1})
    assert space.rank == 1


class ScanRowSpace(ModularRowSpace):
    """The oracle: the echelon's insert before its column index, which scans
    every row of the block for the new pivot column."""

    def insert(self, vec):
        block = self.block(vec)
        rem = self.reduce(vec)
        if not rem:
            return False
        p = self.p
        col = min(rem)
        inv = pow(rem[col], -1, p)
        new = {k: c * inv % p for k, c in rem.items()}
        rows = self.blocks.setdefault(block, [])
        for row in [r for r in rows if col in r]:
            b = row[col]
            for k, c in new.items():
                s = (row.get(k, 0) - b * c) % p
                if s:
                    row[k] = s
                else:
                    del row[k]
        rows.append(new)
        self.rows[col] = new
        if len(rows) == self.sizes[block]:
            self.open_blocks.discard(block)
        return True


def _state(space):
    # rows with their key order, the row order of each block, open blocks, rank
    return ([(col, list(row.items())) for col, row in space.rows.items()],
            {b: [list(row.items()) for row in rows] for b, rows in space.blocks.items()},
            set(space.open_blocks), space.rank)


def _insert_both(indexed, scan, vec):
    """Insert vec into both echelons: the same return value or the same
    GradingError."""
    try:
        got = indexed.insert(dict(vec))
    except GradingError:
        with pytest.raises(GradingError):
            scan.insert(dict(vec))
        return
    assert got == scan.insert(dict(vec))


@pytest.mark.parametrize("p", [3, 5, 7, CLOSURE_PRIME])
def test_column_index_insert_matches_the_scan(p):
    # graded vectors, mostly in one block, some across two (GradingError),
    # zero vectors and repeats; the small primes cancel entries of a row
    # and fill them in again, which leaves stale and repeated index entries
    rng = random.Random(p)
    for trial in range(40):
        ncols, nblocks = rng.randint(4, 24), rng.randint(1, 3)
        block_of = [rng.randrange(nblocks) for _ in range(ncols)]
        indexed, scan = ModularRowSpace(p, block_of), ScanRowSpace(p, block_of)
        seen = []
        for _ in range(rng.randint(5, 2 * ncols)):
            roll = rng.random()
            if roll < 0.05:
                vec = {}
            elif roll < 0.15 and seen:
                vec = rng.choice(seen)
            else:
                b = rng.randrange(nblocks)
                cols = [j for j in range(ncols) if block_of[j] == b or roll < 0.2]
                vec = {j: c for j in cols if rng.random() < 0.6 and (c := rng.randint(-4, 4))}
                if roll > 0.9 and vec:
                    vec[min(vec)] += p      # zero mod p only at p = 3, 5, 7
            seen.append(vec)
            _insert_both(indexed, scan, vec)
            assert _state(indexed) == _state(scan)


def test_column_index_replays_a_closure(monkeypatch):
    # every insert of closure(build_seeds(4), 3), one echelon per grade,
    # replayed through both
    inserts = []

    class Recording(ModularRowSpace):
        def insert(self, vec):
            inserts.append((self.block_of, dict(vec)))
            return super().insert(vec)

    monkeypatch.setattr(liegen, "ModularRowSpace", Recording)
    closure(build_seeds(4), 3)
    spaces = {}
    for block_of, vec in inserts:
        if id(block_of) not in spaces:
            spaces[id(block_of)] = (ModularRowSpace(CLOSURE_PRIME, block_of),
                                    ScanRowSpace(CLOSURE_PRIME, block_of))
        _insert_both(*spaces[id(block_of)], vec)
    assert len(spaces) == 4 and len(inserts) > 1000
    for indexed, scan in spaces.values():
        assert _state(indexed) == _state(scan)
