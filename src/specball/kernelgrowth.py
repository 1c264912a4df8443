"""Kernel dimensions of degree-preserving derivations on homogeneous slices.

A degree-preserving derivation is determined by a linear action on the
variables, so it is stored as the entries of a matrix A with
D(x_j) = sum_i A[i,j] x_i, each an `int` when integral and a `Fraction` only
when a denominator remains (the polyring convention).  Restriction to the
degree-m slice is the induced Leibniz action (`adjointfields.apply_moves`),
a `linalg.SparseMatrix` whose rows are integer for every integral derivation.

`kernel_dim_with_method` gives dim ker D and dim ker D^2 on every slice of
degree 0..m_max from weight counts, once the linear matrix is verified to be
of the right kind:

* diagonal with integer weights ("weights"): ker = ker^2 = W_0;
* nilpotent ("sl2"): the Jordan type, from ranks of powers of A, fixes the
  Jacobson-Morozov grading h, block k carrying h-weights k-1, k-3, ..., 1-k,
  and the sl2 decomposition of the slice gives ker = W_0 + W_1 and
  ker^2 = W_0 + 2 W_1 + W_2;
* anything else ("exact"): elimination of the slice matrices.

W_j counts the degree-m monomials of total weight j.  Elimination of the
slice matrices (`kernel_dim`: the rows of D, or of D^2 multiplied row by row,
inserted into `linalg.ExactRowSpace` with denominators cleared) is the one
kernel oracle; it serves the "exact" method and checks the other two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement
from math import comb

from .adjointfields import VectorField, apply_moves, make_theta, make_xi
from .linalg import SparseMatrix
from .polyring import GradingError, exact_coefficient


class LinearDerivation:
    """Degree-preserving derivation on nvars variables."""

    def __init__(self, nvars: int, entries: dict[tuple[int, int], int | Fraction]):
        self.nvars = nvars
        self.entries = {k: exact_coefficient(c) for k, c in entries.items() if c}

    @staticmethod
    def from_vector_field(v: VectorField) -> "LinearDerivation":
        nvars = v.n * v.n
        entries: dict[tuple[int, int], int | Fraction] = {}
        for var, poly in v.components.items():
            if not poly.is_homogeneous(1):
                raise GradingError("vector field is not degree-preserving "
                                   "(components must be linear)")
            for mono, c in poly.terms.items():
                (target, _e), = mono.powers
                entries[(target, var)] = entries.get((target, var), 0) + c
        return LinearDerivation(nvars, entries)

    @staticmethod
    def chain(length: int = 3) -> "LinearDerivation":
        """x_1 d/dx_0 + x_2 d/dx_1 + ... on `length` variables."""
        return LinearDerivation(length, {(j + 1, j): 1 for j in range(length - 1)})

    @staticmethod
    def diagonal(weights: list[int]) -> "LinearDerivation":
        return LinearDerivation(len(weights), {(i, i): w for i, w in enumerate(weights)})

    def is_diagonal(self) -> bool:
        return all(i == j for (i, j) in self.entries)

    def integer_weights(self) -> list[int] | None:
        """The weight of each variable when the derivation is diagonal with
        integer weights, else None."""
        if not self.is_diagonal():
            return None
        weights = [self.entries.get((j, j), 0) for j in range(self.nvars)]
        return weights if all(type(w) is int for w in weights) else None

    def adjoin_nilpotent_pair(self) -> "LinearDerivation":
        """The derivation y d/dx + self on two fresh variables plus the old ones."""
        entries = {(1, 0): 1}
        for (i, j), c in self.entries.items():
            entries[(i + 2, j + 2)] = c
        return LinearDerivation(self.nvars + 2, entries)

    def restrict(self, m: int) -> SparseMatrix:
        """Matrix of the induced action on the degree-m slice, indexed in the
        order of `HomSliceBasis(nvars, m)`, by degree-m exponent tuples."""
        nvars = self.nvars
        moves = tuple((j, i, c) for (i, j), c in self.entries.items())
        index = {tuple(map(combo.count, range(nvars))): i
                 for i, combo in enumerate(combinations_with_replacement(range(nvars), m))}
        rows: dict[int, dict[int, int | Fraction]] = {}
        for mono, col in index.items():
            for image, c in apply_moves({mono: 1}, moves).items():
                rows.setdefault(index[image], {})[col] = c
        return SparseMatrix(len(index), len(index), rows)


def restrict(v: VectorField, m: int) -> SparseMatrix:
    return LinearDerivation.from_vector_field(v).restrict(m)


def kernel_dim(mat: SparseMatrix, power: int = 1) -> int:
    """Nullity of a slice matrix (power 1) or of its square (power 2), by
    exact integer elimination."""
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")
    return (mat if power == 1 else mat @ mat).nullity()


def kernel_dim_with_method(der: LinearDerivation,
                           m_max: int) -> tuple[list[tuple[int, int]], str]:
    """(dim ker D, dim ker D^2) on the slices of degree 0..m_max, and the
    method that produced them: "weights", "sl2" or "exact" (module docstring).
    """
    if m_max < 0:
        raise ValueError("degree must be non-negative")
    weights = der.integer_weights()
    if weights is not None:
        return [(w0, w0) for w0 in weight_kernel_table(WeightSystem(weights), m_max)], "weights"
    blocks = jordan_type(der)
    if blocks is not None:
        h = [k - 1 - 2 * i for k in blocks for i in range(k)]
        counts = _weight_counts(h, m_max)
        rows = []
        for by_weight in counts:
            w0, w1, w2 = (by_weight.get(j, 0) for j in (0, 1, 2))
            rows.append((w0 + w1, w0 + 2 * w1 + w2))
        return rows, "sl2"
    rows = []
    for m in range(m_max + 1):
        mat = der.restrict(m)
        rows.append((kernel_dim(mat, 1), kernel_dim(mat, 2)))
    return rows, "exact"


def jordan_type(der: LinearDerivation) -> list[int] | None:
    """Jordan block sizes (descending) of the linear matrix when it is
    nilpotent, from the ranks of its powers; None when it is not nilpotent.
    The linear matrix is the degree-1 slice matrix, the variables in order."""
    mat = der.restrict(1)
    ranks = [der.nvars]
    power = mat
    while ranks[-1] > 0:
        r = power.rank()
        if r == ranks[-1]:
            return None          # the ranks stopped falling above zero
        ranks.append(r)
        if r > 0:
            power = power @ mat
    # blocks of size >= k: ranks[k-1] - ranks[k]
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))] + [0]
    blocks = []
    for k in range(1, len(at_least)):
        blocks.extend([k] * (at_least[k - 1] - at_least[k]))
    return sorted(blocks, reverse=True)


# ---------------------------------------------------------------------------
# weight systems


@dataclass
class WeightSystem:
    """Integer eigenvalue of each variable under a diagonal derivation."""
    weights: list[int]

    @staticmethod
    def from_vector_field(v: VectorField) -> "WeightSystem":
        weights = LinearDerivation.from_vector_field(v).integer_weights()
        if weights is None:
            raise GradingError("field is not diagonal with integer weights")
        return WeightSystem(weights)


def _weight_counts(weights: list[int], m_max: int) -> list[dict[int, int]]:
    """For each degree m = 0..m_max, the number of degree-m monomials of each
    total weight, in one pass over the variables."""
    counts: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(m_max)]
    for w in weights:
        # add the degree-d monomials divisible by the new variable: it times
        # each degree-(d-1) monomial, whose counts already include it
        for d in range(1, m_max + 1):
            cur = counts[d]
            for wt, c in counts[d - 1].items():
                cur[wt + w] = cur.get(wt + w, 0) + c
    return counts


def weight_kernel_table(ws: WeightSystem, m_max: int) -> list[int]:
    """Weight-zero monomial counts for every degree 0..m_max in one pass.

    Must agree with the nullity of the corresponding diagonal slice operator
    degree by degree.
    """
    if m_max < 0:
        raise ValueError("degree must be non-negative")
    return [by_weight.get(0, 0) for by_weight in _weight_counts(ws.weights, m_max)]


def weight_kernel_dim(ws: WeightSystem, m: int) -> int:
    """Number of degree-m monomials of total weight zero."""
    return weight_kernel_table(ws, m)[m]


def xi1_weight_system(n: int) -> WeightSystem:
    return WeightSystem.from_vector_field(make_xi(n, 1))


def diagonal_kernel_series_formula(n: int, m: int, printed: bool = False) -> int:
    """Closed-form count of weight-zero degree-m monomials for the first
    hyperbolic field: choose p and q factors of weight +-2, k and l factors
    of weight +-1 (multiplicity 2(n-2) each), fill with zero-weight factors
    (multiplicity (n-2)^2 + 2), subject to 2(p-q) + (k-l) = 0.

    printed=True evaluates the often-quoted variant that uses multiplicity
    4n-4 for the +-1 factors and repeats k in the second binomial; it is kept
    so that the tests can show that variant overcounts.
    """
    mult1 = (4 * n - 4) if printed else 2 * (n - 2)
    mult0 = (n - 2) ** 2 + 2
    total = 0
    for p in range(m + 1):
        for q in range(m + 1):
            if p + q > m:
                continue
            for k in range(m + 1):
                l = 2 * (p - q) + k
                if l < 0:
                    continue
                s = p + q + k + l
                if s > m:
                    continue
                c1 = comb(mult1 + k - 1, k) if mult1 + k - 1 >= 0 else (1 if k == 0 else 0)
                second_index = k if printed else l
                c2 = comb(mult1 + second_index - 1, second_index) \
                    if mult1 + second_index - 1 >= 0 else (1 if second_index == 0 else 0)
                c0 = comb(mult0 + (m - s) - 1, m - s)
                total += c1 * c2 * c0
    return total


# ---------------------------------------------------------------------------
# growth records and tables


@dataclass
class GrowthRecord:
    m: int
    slice_dim: int
    dim_ker: int
    dim_ker_sq: int
    method: str = "exact"

    def __post_init__(self):
        assert 0 <= self.dim_ker <= self.dim_ker_sq <= self.slice_dim


def finite_difference_degree(values: list[int]) -> int | None:
    """Least k with vanishing (k+1)-th finite differences on the window.

    Returns None when no such k is detectable (window too small, or the
    sequence is not polynomial on the window).
    """
    seq = values
    for k in range(len(values) - 1):
        diff = [seq[i + 1] - seq[i] for i in range(len(seq) - 1)]
        if all(x == 0 for x in diff):
            return k
        seq = diff
    return None


def slice_dim(nvars: int, m: int) -> int:
    """Number of degree-m monomials in nvars variables."""
    return comb(nvars + m - 1, m)


def _growth_records(der: LinearDerivation, m_min: int, m_max: int) -> list[GrowthRecord]:
    rows, method = kernel_dim_with_method(der, m_max)
    return [GrowthRecord(m=m, slice_dim=slice_dim(der.nvars, m), dim_ker=k1,
                         dim_ker_sq=k2, method=method)
            for m, (k1, k2) in enumerate(rows) if m >= m_min]


def chain_kernel_dims(m_max: int) -> list[GrowthRecord]:
    """Kernel dimensions of the length-3 chain derivation per degree 1..m_max."""
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    return _growth_records(LinearDerivation.chain(3), 1, m_max)


def jordan_blocks_theta12(n: int) -> list[int]:
    """Nilpotent block sizes of Theta_12 on the linear slice, from ranks of
    matrix powers; returned as a descending multiset."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return jordan_type(LinearDerivation.from_vector_field(make_theta(n, 1, 2)))


def adjoin_bound_check(psi_dims: list[int], m: int) -> int:
    """Upper bound sum_{k=0}^m (1+k) * d_{m-k} for the kernel of the
    derivation y d/dx + Psi on two extra variables."""
    if len(psi_dims) < m + 1:
        raise ValueError("need kernel dimensions for degrees 0..m")
    return sum((1 + k) * psi_dims[m - k] for k in range(m + 1))


# the longest quasi-polynomial period the degree estimates look for
MAX_STRIDE = 6


def strided_degree(values: list[int]) -> tuple[int | None, int]:
    """Empirical polynomial degree allowing a quasi-polynomial period.

    Tries strides 1..MAX_STRIDE; returns (degree, stride) for the smallest
    stride whose residue subsequences all show the same finite-difference
    degree, or (None, 0) when nothing is detectable on the window.
    """
    for stride in range(1, MAX_STRIDE + 1):
        degs = [finite_difference_degree(values[r::stride]) for r in range(stride)]
        if all(d is not None for d in degs):
            return max(degs), stride
    return None, 0


@dataclass
class GrowthSummary:
    empirical_degree: int | None     # of dim_ker_sq, allowing a quasi-period
    period: int                      # detected quasi-period (0 if undetermined)
    bound_degree: int                # n^2 - 1
    within_bound: bool | None


def growth_table(v: VectorField, m_max: int) -> tuple[list[GrowthRecord], GrowthSummary]:
    """Kernel dimensions for m = 0..m_max plus an empirical polynomial-degree
    estimate of the square-kernel sequence via exact finite differences."""
    records = _growth_records(LinearDerivation.from_vector_field(v), 0, m_max)
    deg, period = strided_degree([r.dim_ker_sq for r in records])
    bound = v.n * v.n - 1
    return records, GrowthSummary(
        empirical_degree=deg, period=period, bound_degree=bound,
        within_bound=(deg <= bound) if deg is not None else None)


# ---------------------------------------------------------------------------
# jet-dimension inequality


@dataclass
class JetRow:
    m: int
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs >= self.rhs


@dataclass
class JetReport:
    n: int
    k: int
    cumulative: bool
    rows: list[JetRow]
    crossover_m: int | None   # smallest m with the inequality holding onward


def jet_inequality(n: int, k: int, m_max: int, cumulative: bool = False) -> JetReport:
    """Table of binom(m + n^2, n^2) against k * max of the two square-kernel
    dimensions.  cumulative=True sums the homogeneous kernels over degrees
    <= m (the all-degrees-at-most-m reading); the default compares the
    degree-m slices."""
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    theta_rows, _ = kernel_dim_with_method(
        LinearDerivation.from_vector_field(make_theta(n, 1, 2)), m_max)
    xi_rows, _ = kernel_dim_with_method(LinearDerivation.from_vector_field(make_xi(n, 1)), m_max)
    theta_sq = [k2 for _, k2 in theta_rows]
    xi_sq = [k2 for _, k2 in xi_rows]
    if cumulative:
        theta_sq = list(accumulate(theta_sq))
        xi_sq = list(accumulate(xi_sq))
    rows = []
    for m in range(m_max + 1):
        lhs = comb(m + n * n, n * n)
        rhs = k * max(theta_sq[m], xi_sq[m])
        rows.append(JetRow(m=m, lhs=lhs, rhs=rhs))
    crossover = None
    for m in range(m_max, -1, -1):
        if rows[m].holds:
            crossover = m
        else:
            break
    return JetReport(n=n, k=k, cumulative=cumulative, rows=rows, crossover_m=crossover)


# ---------------------------------------------------------------------------
# conjecture probe


@dataclass
class ProbeReport:
    nvars: int
    dims: list[int]                  # kernel dims for m = 0..m_max
    empirical_degree: int | None     # max over quasi-period residue classes
    period: int                      # detected quasi-period (0 if undetermined)
    bound_degree: int                # N - 2
    consistent: bool | None          # None when the degree is undetermined


def conjecture_probe(der: LinearDerivation, m_max: int) -> ProbeReport:
    """Kernel-dimension window for a degree-preserving derivation plus an
    empirical polynomial-degree estimate.  Reports consistency with the
    degree bound N-2 on the window only; never a proof.

    Diagonal and nilpotent derivations are counted by weights, which reaches
    far larger degrees than the slice matrices; the growth sequences are often
    quasi-polynomial, so the degree search allows a small period.
    """
    dims = [k1 for k1, _ in kernel_dim_with_method(der, m_max)[0]]
    deg, period = strided_degree(dims)
    bound = der.nvars - 2
    consistent = (deg <= bound) if deg is not None else None
    return ProbeReport(nvars=der.nvars, dims=dims, empirical_degree=deg,
                       period=period, bound_degree=bound, consistent=consistent)
