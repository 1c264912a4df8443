import random

import pytest

from specball.linalg import ExactRowSpace, ModularRowSpace
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
