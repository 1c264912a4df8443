import random
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest

from specball.adjointfields import Theta, Xi, generator_field, generator_ids, make_theta, make_xi
from specball.kernelgrowth import (
    GradingError,
    GrowthRecord,
    KernelCountError,
    LinearDerivation,
    WeightSystem,
    _weight_counts,
    adjoin_bound_check,
    chain_kernel_dims,
    diagonal_kernel_series_formula,
    growth_table,
    jet_inequality,
    jordan_blocks_theta12,
    kernel_dim,
    kernel_dim_with_method,
    restrict,
    weight_kernel_dim,
    weight_kernel_table,
    xi1_weight_system,
)
from specball.polyring import HomSliceBasis, Polynomial


def test_restrict_theta12_n2_m1_nilpotent():
    op = restrict(make_theta(2, 1, 2), 1)
    assert op.nrows == 4
    sq = op @ op
    cube = sq @ op
    assert sq.rows and not cube.rows             # nilpotent of index 3


def test_restrict_xi_is_diagonal():
    for n in (2, 3):
        op = restrict(make_xi(n, 1), 1)
        assert all(set(row) == {i} for i, row in op.rows.items())


def test_restrict_rejects_nonlinear_field():
    from specball.adjointfields import scale_field
    v = scale_field(Polynomial.x(1, 1, 2), make_theta(2, 1, 2))
    with pytest.raises(GradingError):
        restrict(v, 2)


def test_one_grading_error_class():
    from specball import liegen, polyring
    assert GradingError is liegen.GradingError is polyring.GradingError


def test_restrict_zero_field():
    from specball.adjointfields import VectorField
    op = restrict(VectorField.zero(2), 2)
    assert op.rows == {}
    assert kernel_dim(op, 1) == op.nrows


def test_kernel_dim_examples():
    assert kernel_dim(restrict(make_xi(2, 1), 1), 1) == 2     # x11, x22
    assert kernel_dim(restrict(make_xi(2, 1), 2), 1) == 4     # x11^2, x11 x22, x22^2, x12 x21
    with pytest.raises(ValueError):
        kernel_dim(restrict(make_xi(2, 1), 1), 3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_xi1_weight_multiplicities(n):
    ws = xi1_weight_system(n)
    hist = {}
    for w in ws.weights:
        hist[w] = hist.get(w, 0) + 1
    assert hist.get(2, 0) == 1 and hist.get(-2, 0) == 1
    assert hist.get(1, 0) == 2 * (n - 2) and hist.get(-1, 0) == 2 * (n - 2)
    assert hist.get(0, 0) == (n - 2) ** 2 + 2


def test_weight_dp_examples():
    assert weight_kernel_dim(xi1_weight_system(2), 2) == 4
    assert weight_kernel_dim(xi1_weight_system(3), 1) == 3
    assert weight_kernel_dim(WeightSystem([5, -7]), 0) == 1


@pytest.mark.parametrize("n", [2, 3])
def test_weight_dp_equals_bruteforce_all_xi(n):
    for a in range(1, n):
        xi = make_xi(n, a)
        ws = WeightSystem.from_vector_field(xi)
        for m in range(5):
            assert weight_kernel_dim(ws, m) == kernel_dim(restrict(xi, m), 1)


def test_weight_table_consistent_with_single_calls():
    ws = xi1_weight_system(3)
    table = weight_kernel_table(ws, 6)
    assert table == [weight_kernel_dim(ws, m) for m in range(7)]


def _enumerated_counts(weights, m_max):
    # (W_0, W_1, W_2) per degree by listing every monomial as a multiset of
    # variables
    rows = []
    for d in range(m_max + 1):
        row = [0, 0, 0]
        for combo in combinations_with_replacement(weights, d):
            if 0 <= (s := sum(combo)) <= 2:
                row[s] += 1
        rows.append(tuple(row))
    return rows


def _random_weight_lists():
    rng = random.Random(38)
    lists = [[], [0], [3], [-4], [0, 0, 0], [2, 2, -2], [4, -6, 2, 0], [1, 1, -1, -1, 0, 0]]
    for _ in range(150):
        weights = [rng.randint(-6, 4) for _ in range(rng.randint(1, 6))]
        lists.append(weights)
        lists.append([2 * (w // 2) for w in weights])     # every weight even
    return lists


def test_weight_counts_match_enumeration_on_random_weights():
    rng = random.Random(7)
    for weights in _random_weight_lists():
        m_max = rng.randint(0, 7)
        assert _weight_counts(weights, m_max) == _enumerated_counts(weights, m_max), weights


@pytest.mark.parametrize("weights", [
    [5, -7], [1, 10**6], [-10**6, 1, 10**6],              # spread above N: one dict per degree
    [1, -1], [2, -2], [2, 0, -1], [6, -2, 0, 2],          # spread/g = N: packed rows
    [2, -1], [3, 0, -1], [3, 1, -2, 0],                   # spread/g = N + 1
])
def test_weight_counts_match_enumeration_on_both_sides_of_the_packing_rule(weights):
    assert _weight_counts(weights, 12) == _enumerated_counts(weights, 12)


def test_widely_spread_weights_are_not_packed():
    # packed rows for [1, 10**6] would hold about 10**6 fields per degree
    tracemalloc.start()
    try:
        _weight_counts([1, 10**6], 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_weight_count_field_holds_the_whole_slice():
    # nine zero weights put every monomial in one field, which must hold the
    # slice size C(1008, 8) at m = 1000
    assert _weight_counts([0] * 9, 1000)[1000] == (comb(1008, 8), 0, 0)


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_matches_dp_and_printed_variant_does_not(n):
    ws = xi1_weight_system(n)
    for m in range(31):
        assert diagonal_kernel_series_formula(n, m) == weight_kernel_dim(ws, m)
    # the variant with multiplicity 4n-4 and a repeated k index overcounts
    assert diagonal_kernel_series_formula(n, 2, printed=True) != weight_kernel_dim(ws, 2)


def test_chain_kernel_dims():
    records = chain_kernel_dims(200)
    dims = [r.dim_ker for r in records]
    # representation-theory oracle: the m-th symmetric power of a single
    # 3-dimensional Jordan block splits into floor(m/2)+1 blocks
    assert dims == [m // 2 + 1 for m in range(1, 201)]
    assert all(r.dim_ker <= 3 * r.m for r in records)
    assert dims[0] == 1        # kernel at m=1 is spanned by the last variable


def test_chain_m2_by_hand():
    # frozen by hand: kernel at degree 2 is span{y^2, x^2 - 2wy}
    assert chain_kernel_dims(2)[1].dim_ker == 2


@pytest.mark.parametrize("n,expected", [
    (2, [3, 1]),
    (3, [3, 2, 2, 1, 1]),
    (4, [3, 2, 2, 2, 2, 1, 1, 1, 1, 1]),
])
def test_jordan_blocks(n, expected):
    blocks = jordan_blocks_theta12(n)
    assert blocks == expected
    assert sum(blocks) == n * n


def test_jordan_formula_general():
    for n in (2, 3, 4):
        expected = sorted([3] + [2] * (2 * n - 4) + [1] * ((n - 2) ** 2 + 1), reverse=True)
        assert jordan_blocks_theta12(n) == expected


def test_adjoin_bound_degenerate():
    # a single variable killed by Psi: d = (1, 0, 0, ...) gives bound m + 1
    for m in range(6):
        assert adjoin_bound_check([1] + [0] * m, m) == m + 1
    assert adjoin_bound_check([7], 0) == 7


def test_adjoin_bound_dominates_bruteforce():
    chain = LinearDerivation.chain(3)
    d = [kernel_dim(chain.restrict(m), 1) for m in range(4)]
    adjoined = chain.adjoin_nilpotent_pair()
    assert adjoined.nvars == 5
    for m in range(4):
        brute = kernel_dim(adjoined.restrict(m), 1)
        assert brute <= adjoin_bound_check(d, m)


def test_growth_record_invariant():
    with pytest.raises(KernelCountError, match="degree 1: dim ker 3, dim ker\\^2 2"):
        GrowthRecord(m=1, slice_dim=4, dim_ker=3, dim_ker_sq=2, method="sl2")


def test_growth_table_xi1_n2():
    records, degree = growth_table(make_xi(2, 1), 8)
    ws = xi1_weight_system(2)
    assert [r.dim_ker for r in records] == [weight_kernel_dim(ws, m) for m in range(9)]
    assert all(r.dim_ker_sq == r.dim_ker for r in records)   # diagonal action
    assert degree == 2


def test_growth_table_theta12_sq_n2():
    records, degree = growth_table(make_theta(2, 1, 2), 200)
    # closed form derived from the sl2 decomposition: C(m+2, 2)
    assert [r.dim_ker_sq for r in records] == [comb(m + 2, 2) for m in range(201)]
    assert all(r.dim_ker_sq <= 2 * r.dim_ker for r in records)
    assert all(r.dim_ker_sq <= r.slice_dim for r in records)
    assert degree == 2


def test_jet_inequality_n2_k5():
    rep = jet_inequality(2, 5, 10)
    assert rep.rows[0].lhs == 1                      # binom(4,4)
    assert [r.lhs for r in rep.rows] == [comb(m + 4, 4) for m in range(11)]
    # rhs oracle: 5 * C(m+2,2), the square-kernel closed form above
    assert [r.rhs for r in rep.rows] == [5 * comb(m + 2, 2) for m in range(11)]
    assert rep.crossover_m == 5
    assert all(r.holds for r in rep.rows if r.m >= 5)
    assert not rep.rows[4].holds
    # n=3: the crossover moves to 8
    rep3 = jet_inequality(3, 5, 10)
    assert rep3.crossover_m == 8 and not rep3.rows[7].holds


def test_jet_lhs_is_degree_n2_polynomial():
    rep = jet_inequality(2, 1, 12)
    # C(m + 4, 4) has degree 4 in m: its fifth differences vanish, its fourth
    # are the constant 1
    diffs = [r.lhs for r in rep.rows]
    for _ in range(4):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    assert diffs == [1] * 9


def test_jet_inequality_cumulative_variant():
    # summing kernels over degrees <= m pushes the crossover out of the window
    rep = jet_inequality(2, 5, 10, cumulative=True)
    assert [r.rhs for r in rep.rows] == [5 * comb(m + 3, 3) for m in range(11)]
    assert rep.crossover_m is None


@pytest.mark.parametrize("der,degree", [
    (LinearDerivation.chain(3), 1),
    (LinearDerivation.diagonal([1, -1]), 0),
    (LinearDerivation.diagonal(xi1_weight_system(3).weights), 7),
    (LinearDerivation.from_vector_field(make_theta(3, 1, 2)), 7),
    (LinearDerivation.from_vector_field(make_theta(4, 1, 2)), 14),
    (LinearDerivation.diagonal([0, 1, 2]), None),      # one-signed
    (LinearDerivation.diagonal([-1, -1]), None),       # one-signed
    (LinearDerivation(3, {}), None),                   # D = 0: all weights 0
], ids=["chain", "balanced-pair", "xi1-n3", "theta12-n3", "theta12-n4",
        "nonnegative", "negative", "zero"])
def test_growth_degree_from_the_weights(der, degree):
    rows, _, got = kernel_dim_with_method(der, 40)
    assert got == degree
    if degree is not None:
        # the upper bounds of the lemma, with C = C(m + N - 2, N - 2)
        assert all(k1 <= 2 * comb(m + degree, degree) and k2 <= 4 * comb(m + degree, degree)
                   for m, (k1, k2) in enumerate(rows))


def test_linear_derivation_from_field_roundtrip():
    der = LinearDerivation.from_vector_field(make_theta(3, 1, 2))
    op = der.restrict(1)
    direct = restrict(make_theta(3, 1, 2), 1)
    assert op.rows == direct.rows


@pytest.mark.parametrize("der,m_max,method", [
    (LinearDerivation.from_vector_field(make_theta(2, 1, 2)), 7, "sl2"),
    (LinearDerivation.from_vector_field(make_theta(3, 1, 2)), 5, "sl2"),
    (LinearDerivation.from_vector_field(make_theta(3, 2, 1)), 3, "sl2"),
    (LinearDerivation.from_vector_field(make_theta(3, 1, 3)), 3, "sl2"),
    (LinearDerivation.from_vector_field(make_xi(2, 1)), 5, "weights"),
    (LinearDerivation.from_vector_field(make_xi(3, 1)), 5, "weights"),
    (LinearDerivation.chain(3), 8, "sl2"),
    (LinearDerivation.chain(3).adjoin_nilpotent_pair(), 4, "sl2"),
    (LinearDerivation.diagonal([1, -1]), 12, "weights"),
    (LinearDerivation(2, {(0, 0): 1, (1, 0): 1}), 4, None),   # neither kind
    (LinearDerivation(2, {(0, 1): 1, (1, 0): 1}), 4, None),   # invertible
], ids=["theta12-n2", "theta12-n3", "theta21-n3", "theta13-n3", "xi1-n2", "xi1-n3",
        "chain", "chain-adjoined", "balanced-pair", "non-nilpotent", "invertible"])
def test_kernel_table_agrees_with_elimination(der, m_max, method):
    if method is None:
        # a D of neither kind gets no table: elimination is its only oracle
        with pytest.raises(ValueError, match="neither diagonal"):
            kernel_dim_with_method(der, m_max)
        return
    rows, how, _ = kernel_dim_with_method(der, m_max)
    assert how == method
    assert len(rows) == m_max + 1
    for m, (k1, k2) in enumerate(rows):
        op = der.restrict(m)
        assert (k1, k2) == (kernel_dim(op, 1), kernel_dim(op, 2)), f"m={m}"


@pytest.mark.parametrize("der", [
    LinearDerivation.from_vector_field(make_theta(2, 1, 2)),
    LinearDerivation.from_vector_field(make_theta(3, 1, 2)),
    LinearDerivation.from_vector_field(make_xi(2, 1)),
    LinearDerivation.from_vector_field(make_xi(3, 1)),
    LinearDerivation.chain(3),
], ids=["theta12-n2", "theta12-n3", "xi1-n2", "xi1-n3", "chain"])
def test_integral_derivations_have_int_entries(der):
    # an integral derivation builds no Fraction, in the slice matrices or
    # their squares; the linear matrix is the slice matrix at m = 1
    mats = []
    for m in range(4):
        mat = der.restrict(m)
        mats += [mat, mat @ mat]
    for mat in mats:
        for row in mat.rows.values():
            assert all(type(c) is int for c in row.values())


def test_rational_derivation_matches_its_double():
    # diagonalisable with eigenvalues +-1/2 on x0, x1: weight zero exactly on
    # x0^k x1^k, so ker = ker^2 has dimension 1 on even degrees, 0 on odd ones
    half = LinearDerivation(2, {(0, 0): Fraction(1, 2), (1, 1): Fraction(-1, 2), (1, 0): 1})
    double = LinearDerivation(2, {(0, 0): 1, (1, 1): -1, (1, 0): 2})
    # neither diagonal nor nilpotent, so elimination is the only method
    def eliminated(der):
        return [(kernel_dim(op, 1), kernel_dim(op, 2)) for op in map(der.restrict, range(7))]
    assert eliminated(half) == eliminated(double)
    assert eliminated(half) == [(1, 1) if m % 2 == 0 else (0, 0) for m in range(7)]


def _slice_matrix_by_images(apply, nvars, m):
    """The degree-m slice matrix built column by column: the image of each
    basis monomial under `apply`, a Polynomial derivation, read off in the
    basis."""
    basis = HomSliceBasis(nvars, m)
    rows = {}
    for col, mono in enumerate(basis.monomials):
        for image, c in apply(Polynomial.from_monomial(nvars, mono)).terms.items():
            rows.setdefault(basis.index[image], {})[col] = c
    return rows


def _linear_apply(der):
    """D(p) = sum over the entries (i, j) of c * x_i * dp/dx_j, on Polynomials."""
    def apply(p):
        out = Polynomial.zero(der.nvars)
        for (i, j), c in der.entries.items():
            out = out + Polynomial.variable(der.nvars, i).scale(c) * p.partial(j)
        return out
    return apply


@pytest.mark.parametrize("n,gids,m_max", [
    (2, generator_ids(2), 4),
    (3, [Theta(1, 2), Theta(1, 3), Xi(1), Xi(2)], 3),
], ids=["n2-all", "n3"])
def test_restrict_matches_the_field_applied_to_each_monomial(n, gids, m_max):
    # restrict builds each column by its own loop on exponent tuples; the
    # oracle applies the Polynomial field of adjointfields to each basis
    # monomial
    for g in gids:
        field = generator_field(n, g)
        for m in range(m_max + 1):
            op = restrict(field, m)
            assert op.nrows == op.ncols == len(HomSliceBasis(n * n, m))
            assert op.rows == _slice_matrix_by_images(field.apply, n * n, m), (g, m)


@pytest.mark.parametrize("der", [
    LinearDerivation.chain(3),
    LinearDerivation(2, {(0, 0): Fraction(1, 2), (1, 1): Fraction(-1, 2), (1, 0): 1}),
], ids=["chain", "rational"])
def test_restrict_matches_the_leibniz_rule_on_each_monomial(der):
    for m in range(5):
        assert der.restrict(m).rows == _slice_matrix_by_images(_linear_apply(der), der.nvars, m)
