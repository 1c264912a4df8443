"""Kernel dimensions of degree-preserving derivations on homogeneous slices.

A degree-preserving derivation is determined by a linear action on the
variables, so it is stored as the entries of a matrix A with
D(x_j) = sum_i A[i,j] x_i, each an `int` when integral and a `Fraction` only
when a denominator remains (the polyring convention).  Restriction to the
degree-m slice is the induced Leibniz action on exponent tuples
(`LinearDerivation.restrict`), a `linalg.SparseMatrix` whose rows are
integer for every integral derivation.

`kernel_dim_with_method` gives dim ker D and dim ker D^2 on every slice of
degree 0..m_max from weight counts, once the linear matrix is verified to be
of the right kind, and the growth degree of both in m:

* diagonal with integer weights ("weights"): ker = ker^2 = W_0;
* nilpotent ("sl2"): the Jordan type, from ranks of powers of A, fixes the
  Jacobson-Morozov grading h, block k carrying h-weights k-1, k-3, ..., 1-k,
  and the sl2 decomposition of the slice gives ker = W_0 + W_1 and
  ker^2 = W_0 + 2 W_1 + W_2.

Any other D is refused.  W_j counts the degree-m monomials of total weight
j (`_weight_counts`).  The counts of one degree are one packed `int`, a
fixed-width field per weight, so a variable updates each degree with one
shift-and-add and no field ever carries into the next; weights spread wider
than the number of variables keep one dict per degree.  Elimination of the
slice matrices (`kernel_dim`: the rows of D, or of D^2 multiplied row by
row, inserted into `linalg.ExactRowSpace` with denominators cleared) is the
one kernel oracle; the tests check both methods against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement, count
from math import comb, gcd

from .adjointfields import VectorField, make_theta, make_xi
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
        order of `HomSliceBasis(nvars, m)`, by degree-m exponent tuples: the
        column of x^e holds D(x^e) = sum over entries A[i,j] of
        e_j A[i,j] x^(e - 1_j + 1_i), terms that cancel dropped.  A loop of
        its own on tuples, faster here than `adjointfields.add_derivation`."""
        nvars = self.nvars
        entries = list(self.entries.items())
        index = {tuple(map(combo.count, range(nvars))): i
                 for i, combo in enumerate(combinations_with_replacement(range(nvars), m))}
        rows: dict[int, dict[int, int | Fraction]] = {}
        for mono, col in index.items():
            image: dict[tuple, int | Fraction] = {}
            for (i, j), c in entries:
                if e := mono[j]:
                    m2 = list(mono)
                    m2[j] -= 1
                    m2[i] += 1
                    m2 = tuple(m2)
                    image[m2] = image.get(m2, 0) + c * e
            for m2, c in image.items():
                if c:
                    rows.setdefault(index[m2], {})[col] = c
        return SparseMatrix(len(index), len(index), rows)


def restrict(v: VectorField, m: int) -> SparseMatrix:
    return LinearDerivation.from_vector_field(v).restrict(m)


def kernel_dim(mat: SparseMatrix, power: int = 1) -> int:
    """Nullity of a slice matrix (power 1) or of its square (power 2), by
    exact integer elimination."""
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")
    return (mat if power == 1 else mat @ mat).nullity()


def kernel_dim_with_method(der: LinearDerivation, m_max: int
                           ) -> tuple[list[tuple[int, int]], str, int | None]:
    """(dim ker D, dim ker D^2) on the slices of degree 0..m_max, the method
    that produced them, "weights" or "sl2" (module docstring), and the
    growth degree of both in m: N - 2 when the weights w (the integer
    weights, or the Jacobson-Morozov weights h) take both signs, with
    N = nvars, and None otherwise.  Every generator field and the chain take
    both signs; a D that is neither diagonal with integer weights nor
    nilpotent raises ValueError.

    The degree is N - 2 for every m, not on a window:

    * upper bound: two variables have different weights.  Fixing the
      exponents of the other N - 2 variables, the degree m and the weight j
      fix the remaining two, so W_j(m) <= C(m + N - 2, N - 2) =: C for every
      j; hence dim ker D <= 2 C and dim ker D^2 <= 4 C;
    * lower bound: dim ker D^2 >= dim ker D >= W_0(m), the number of lattice
      points of m P, P = {e >= 0, sum(e) = 1, w.e = 0}.  The weights take
      both signs, so w.e = 0 meets the relative interior of the simplex and
      P is a rational polytope of dimension N - 2.  With q a common
      denominator of its vertices, qP is a lattice polytope, and by
      Ehrhart's theorem (Ehrhart 1962; McMullen 1978 for rational P)
      W_0(qt) is a polynomial in t of degree N - 2: W_0(m) >= c m^(N-2),
      c > 0, on the multiples of q.
    """
    if m_max < 0:
        raise ValueError("degree must be non-negative")
    weights = der.integer_weights()
    if weights is not None:
        rows = [(w0, w0) for w0 in weight_kernel_table(WeightSystem(weights), m_max)]
        method = "weights"
    else:
        blocks = jordan_type(der)
        if blocks is None:
            raise ValueError("derivation is neither diagonal with integer weights nor "
                             "nilpotent; eliminate its slice matrices (kernel_dim)")
        weights = [k - 1 - 2 * i for k in blocks for i in range(k)]
        # lowering maps weight 2 injectively into weight 0 in an sl2-module,
        # so W_2 <= W_0 and dim ker D^2 <= 2 dim ker D at every m
        rows = []
        for w0, w1, w2 in _weight_counts(weights, m_max):
            rows.append((w0 + w1, w0 + 2 * w1 + w2))
        method = "sl2"
    both_signs = any(w < 0 for w in weights) and any(w > 0 for w in weights)
    return rows, method, der.nvars - 2 if both_signs else None


def jordan_type(der: LinearDerivation) -> list[int] | None:
    """Jordan block sizes (descending) of the linear matrix when it is
    nilpotent, from the ranks of its powers; None when it is not nilpotent.
    The linear matrix is A itself, read off `entries`, the variables in
    order (the degree-1 slice matrix)."""
    rows: dict[int, dict[int, int | Fraction]] = {}
    for (i, j), c in der.entries.items():
        rows.setdefault(i, {})[j] = c
    mat = SparseMatrix(der.nvars, der.nvars, rows)
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


def _weight_counts(weights: list[int], m_max: int) -> list[tuple[int, int, int]]:
    """(W_0, W_1, W_2) for each degree m = 0..m_max: the numbers of degree-m
    monomials of total weight 0, 1 and 2, in one pass over the variables.

    Each variable adds the degree-d monomials divisible by it: it times each
    degree-(d-1) monomial, whose counts already include it.  With g the gcd
    of the weights and lo = min w/g, the degree-d counts are packed into one
    int: the field at index s/g - d lo, `width` bits wide, holds the number
    of monomials of weight s, so a variable of weight w adds to every degree
    with one shift-and-add by (w/g - lo) fields.  No field carries into the
    next: only non-negative counts are added, and every field counts
    degree-d monomials, at most C(m_max + N - 1, m_max) < 2^width.  W_j is 0
    when g does not divide j or its index falls outside the row.

    A degree-d row has d (max w - min w)/g + 1 fields, so rows are packed
    only when that spread is at most N = len(weights); weights spread far
    wider than the variables (`[1, 10**6]`) leave most fields empty, and
    their counts stay in one dict per degree."""
    nvars = len(weights)
    g = gcd(*weights) or 1
    lo = min(weights, default=0) // g
    if not weights or max(weights) // g - lo > nvars:
        counts: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(m_max)]
        for w in weights:
            for d in range(1, m_max + 1):
                cur = counts[d]
                for wt, c in counts[d - 1].items():
                    cur[wt + w] = cur.get(wt + w, 0) + c
        return [(c.get(0, 0), c.get(1, 0), c.get(2, 0)) for c in counts]
    width = comb(m_max + nvars - 1, m_max).bit_length()
    rows = [1] + [0] * m_max
    for w in weights:
        shift = (w // g - lo) * width
        for d in range(1, m_max + 1):
            rows[d] += rows[d - 1] << shift
    mask = (1 << width) - 1

    def column(j):   # W_j of every degree: field j/g - d lo of row d
        if j % g:
            return [0] * (m_max + 1)
        return [row >> at & mask if at >= 0 else 0
                for row, at in zip(rows, count(j // g * width, -lo * width))]
    return list(zip(column(0), column(1), column(2)))


def weight_kernel_table(ws: WeightSystem, m_max: int) -> list[int]:
    """Weight-zero monomial counts for every degree 0..m_max in one pass.

    Must agree with the nullity of the corresponding diagonal slice operator
    degree by degree.
    """
    if m_max < 0:
        raise ValueError("degree must be non-negative")
    return [w0 for w0, _, _ in _weight_counts(ws.weights, m_max)]


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


class KernelCountError(ArithmeticError):
    """A kernel table row breaks 0 <= dim ker D <= dim ker D^2 <= slice size."""


@dataclass
class GrowthRecord:
    m: int
    slice_dim: int
    dim_ker: int
    dim_ker_sq: int
    method: str

    def __post_init__(self):
        if not 0 <= self.dim_ker <= self.dim_ker_sq <= self.slice_dim:
            raise KernelCountError(
                f"degree {self.m}: dim ker {self.dim_ker}, dim ker^2 {self.dim_ker_sq} and "
                f"slice size {self.slice_dim} break 0 <= dim ker <= dim ker^2 <= slice size "
                f"({self.method})")


def slice_dim(nvars: int, m: int) -> int:
    """Number of degree-m monomials in nvars variables."""
    return comb(nvars + m - 1, m)


def _growth_records(der: LinearDerivation, m_min: int,
                    m_max: int) -> tuple[list[GrowthRecord], int | None]:
    rows, method, degree = kernel_dim_with_method(der, m_max)
    return [GrowthRecord(m=m, slice_dim=slice_dim(der.nvars, m), dim_ker=k1,
                         dim_ker_sq=k2, method=method)
            for m, (k1, k2) in enumerate(rows) if m >= m_min], degree


def chain_kernel_dims(m_max: int) -> list[GrowthRecord]:
    """Kernel dimensions of the length-3 chain derivation per degree 1..m_max.

    The chain is one Jordan block of size 3, with sl2 weights 2, 0, -2, so at
    every m dim ker = W_0 = floor(m/2) + 1 (the exponents of the weight +-2
    variables are equal), which is at most 3m for m >= 1."""
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    return _growth_records(LinearDerivation.chain(3), 1, m_max)[0]


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


def growth_table(v: VectorField, m_max: int) -> tuple[list[GrowthRecord], int | None]:
    """Kernel dimensions for m = 0..m_max and their growth degree, n^2 - 2
    for every generator field (`kernel_dim_with_method`)."""
    return _growth_records(LinearDerivation.from_vector_field(v), 0, m_max)


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
    crossover_m: int | None   # smallest m from which it holds on the window m <= m_max


def jet_inequality(n: int, k: int, m_max: int, cumulative: bool = False) -> JetReport:
    """Table of binom(m + n^2, n^2) against k * max of the two square-kernel
    dimensions.  cumulative=True sums the homogeneous kernels over degrees
    <= m (the all-degrees-at-most-m reading); the default compares the
    degree-m slices.

    The crossover is read off the window m <= m_max: the smallest m from
    which the inequality holds up to m_max.  Holding for every m is left to
    the (k - 1) N threshold lemma, the proof still to come: with N = n^2,
    dim ker D^2 is at most the slice size C(m + N - 1, N - 1), and
    C(m + N, N) / C(m + N - 1, N - 1) = (m + N)/N, so the degree-m
    inequality holds for every m >= (k - 1) N.  The crossover is proved for
    every m once the table reaches that threshold (16 at n = 2 and 36 at
    n = 3, for k = 5); a window need not reach it."""
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    theta_rows, _, _ = kernel_dim_with_method(
        LinearDerivation.from_vector_field(make_theta(n, 1, 2)), m_max)
    xi_rows, _, _ = kernel_dim_with_method(
        LinearDerivation.from_vector_field(make_xi(n, 1)), m_max)
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
