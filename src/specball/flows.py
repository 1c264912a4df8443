"""Numeric engine for the spectral ball.

Matrices are dense complex numpy arrays at the public boundary.  The
fibration coordinates are the signed characteristic-polynomial
coefficients pi_j (the elementary symmetric functions of the eigenvalues),
for n <= 4 written out as sums of principal minors, above it computed from
power traces by Newton's identities; eigenvalue moduli come
from the roots of the characteristic polynomial (a closed form at degree
2; above it Aberth-Ehrlich sweeps, started at Cardano's or Ferrari's roots
at degree 3 or 4 and on a circle otherwise, each root stopping on its own
step), so no eigendecomposition is needed anywhere.

The matrices here are n x n with n of a few units, where numpy's per-call
cost would exceed the arithmetic, so the numerics run on rows of Python
`complex`: `_rows` checks an input once, the steps of a word or of an
iterate pass rows to each other, and an ndarray is built once, where a
public function returns.  The atoms, `apply_atom` and the flows of
`theta_flow` take rows and give rows, or take an ndarray and give one.
Every overshear runs on one in-place kernel, `_shear`.  Flows, their sums
and brackets are `Schedule`s, step lists of atoms with time factors, which
a call compiles at its t and `iterate_algorithm` once per call.  Moebius
maps and SL_n conjugations solve their linear systems by Gauss-Jordan
elimination.

Automorphism atoms: overshear/shear conjugations exp(s E_ab) with the exact
nilpotent exponential I + s E_ab (Theta_ab f and the test Theta_ab^2 f = 0
exact, by the generator table `adjointfields.generator_components` and the
kernel `adjointfields.add_derivation`; f and Theta_ab f compiled once for
evaluation), Moebius transformations
A -> gamma (A - alpha I)(I - conj(alpha) A)^{-1}, transposition, and
explicit SL_n conjugations.  `word_trajectory` evaluates a word atom by
atom.  A field value B A - A B takes B from `generator_matrix`.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Iterator, Sequence

import numpy as np

from .adjointfields import (
    GeneratorId, InvalidGenerator, Theta, add_derivation, generator_components,
    generator_matrix)
from .polyring import DimensionMismatch, Polynomial, PolyParseError, parse_poly


class NumericsError(RuntimeError):
    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


Matrix = np.ndarray
Rows = list    # rows of Python complex, as `_rows` returns them
Algorithm = Callable[[float, Matrix | Rows], Matrix | Rows]


def _rows(data, n: int | None = None) -> Rows:
    """The entries of a square (n x n, if n is given) matrix of finite
    numbers as rows of Python `complex`; anything else raises ValueError."""
    A = np.asarray(data, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    if n is not None and A.shape[0] != n:
        raise ValueError(f"expected a {n}x{n} matrix")
    rows = A.tolist()
    if not _finite(rows):
        raise ValueError("matrix entries must be finite")
    return rows


def as_matrix(data, n: int | None = None) -> Matrix:
    """`data` as a complex ndarray, after the checks of `_rows`."""
    A = np.asarray(data, dtype=complex)
    _rows(A, n)
    return A


def _size(z: complex) -> float:
    """|re| + |im|, BLAS izamax's measure of size, which cannot overflow."""
    return abs(z.real) + abs(z.imag)


def _finite(rows: Rows) -> bool:
    for row in rows:
        for x in row:
            if not cmath.isfinite(x):
                return False
    return True


def _matmul(X: Rows, Y: Rows) -> Rows:
    cols = list(zip(*Y))
    return [[sum(map(mul, r, c)) for c in cols] for r in X]


def _solve(B: Rows, C: Rows) -> tuple[Rows | None, complex]:
    """(X, det B) with B X = C, for rows B (n x n) and C (n x m), by
    Gauss-Jordan elimination with partial pivoting; (None, 0) when a pivot
    is exactly zero.  Each row drops its entry in the pivot column as the
    elimination passes it, so a row's first entry is in the current column
    and, at the end, the rows are X."""
    n = len(B)
    M = [b + c for b, c in zip(B, C)]
    det = 1.0 + 0j
    for k in range(n):
        p, largest = k, -1.0
        for i in range(k, n):
            size = _size(M[i][0])
            if size > largest:
                p, largest = i, size
        pivot = M[p][0]
        if pivot == 0:
            return None, 0j
        if p != k:
            M[k], M[p] = M[p], M[k]
            det = -det
        det *= pivot
        del M[k][0]
        row = M[k] = [x / pivot for x in M[k]]
        for i in range(n):
            if i != k:
                f = M[i].pop(0)
                M[i] = [x - f * y for x, y in zip(M[i], row)]
    return M, det


# ---------------------------------------------------------------------------
# characteristic polynomial and spectral radius


@dataclass(frozen=True)
class FibreCoordinates:
    """The vector (pi_1, ..., pi_n) with
    chi_A(t) = t^n + sum_j (-1)^j pi_j t^(n-j)."""
    pi: tuple[complex, ...]

    def monic_coefficients(self) -> list[complex]:
        """[1, c_1, ..., c_n] with c_j = (-1)^j pi_j."""
        return [1.0 + 0j] + [(-1) ** j * p for j, p in enumerate(self.pi, start=1)]

    def __len__(self):
        return len(self.pi)


def char_poly(A: Matrix) -> FibreCoordinates:
    """The fibre coordinates of A, with no eigendecomposition: at n <= 4
    written-out sums of principal minors (`_minor_sums`), above it
    Newton's identities on power traces (`_newton_sums`)."""
    rows = _rows(A)
    return FibreCoordinates(_minor_sums(rows) if len(rows) <= 4 else _newton_sums(rows))


def _minor_sums(rows: Rows) -> tuple:
    """(pi_1, ..., pi_n) for n <= 4: pi_j is the sum of the j x j principal
    minors.  At n = 4 the 2 x 2 minors of rows 1-2 (ab..) and of rows 3-4
    (cd..) serve pi_2, the 3 x 3 minors (each expanded along the row outside
    its pair) and det, by Laplace expansion along rows 1-2."""
    n = len(rows)
    if n <= 1:
        return tuple(row[0] for row in rows)
    if n == 2:
        (a, b), (c, d) = rows
        return a + d, a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        ei = e * i - f * h
        return (a + e + i,
                (a * e - b * d) + (a * i - c * g) + ei,
                a * ei - b * (d * i - f * g) + c * (d * h - e * g))
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
    ab01, ab02, ab03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
    ab12, ab13, ab23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
    cd01, cd02, cd03 = c0 * d1 - c1 * d0, c0 * d2 - c2 * d0, c0 * d3 - c3 * d0
    cd12, cd13, cd23 = c1 * d2 - c2 * d1, c1 * d3 - c3 * d1, c2 * d3 - c3 * d2
    return (a0 + b1 + c2 + d3,
            ab01 + cd23 + (a0 * c2 - a2 * c0) + (a0 * d3 - a3 * d0)
            + (b1 * c2 - b2 * c1) + (b1 * d3 - b3 * d1),
            (c0 * ab12 - c1 * ab02 + c2 * ab01) + (d0 * ab13 - d1 * ab03 + d3 * ab01)
            + (a0 * cd23 - a2 * cd03 + a3 * cd02) + (b1 * cd23 - b2 * cd13 + b3 * cd12),
            ab01 * cd23 - ab02 * cd13 + ab03 * cd12
            + ab12 * cd03 - ab13 * cd02 + ab23 * cd01)


def _newton_sums(rows: Rows) -> tuple:
    """(pi_1, ..., pi_n) by Newton's identities on the power traces
    p_k = tr(A^k), k = 1..n, of one running product, exact on `Fraction`
    entries: k pi_k = sum_{i=1..k} (-1)^(i-1) pi_{k-i} p_i, pi_0 = 1."""
    n = len(rows)
    P, p = rows, [sum(rows[i][i] for i in range(n))]
    for _ in range(1, n):
        P = _matmul(P, rows)
        p.append(sum(P[i][i] for i in range(n)))
    pi = [1]
    for k in range(1, n + 1):
        terms = [pi[k - i] * p[i - 1] for i in range(1, k + 1)]
        pi.append((sum(terms[0::2]) - sum(terms[1::2])) / k)
    return tuple(pi[1:])


def _aberth_sweep(coeffs: list[complex], z: list[complex], live: list[int]) -> list[int]:
    """One Aberth-Ehrlich sweep over the iterates z[i], i in `live`,
    updating them in place (Gauss-Seidel: each update reads the iterates
    already updated in this sweep), and the indices still moving.

    One Horner pass gives p (v) and p' (dv); a plain loop sums over the
    other iterates.  An iterate stops when its step is below `ROOT_TOL`
    relative to its new value.  It also stops, without taking the step,
    when |v| is within 2 d eps sum |c_k| |x|^k, the bound on the rounding
    error of v (Higham 2002, section 5.1): at a tight cluster of roots,
    whose attainable accuracy is worse than `ROOT_TOL`, such a step is
    rounding noise, and it can throw x out of the cluster."""
    rounding = 2 * (len(coeffs) - 1) * sys.float_info.epsilon
    moving = []
    for i in live:
        x = z[i]
        v = dv = 0j
        for c in coeffs:
            dv = dv * x + v
            v = v * x + c
        w = v / dv if dv != 0 else 0j
        s = 0j
        for j, y in enumerate(z):
            if j != i:
                s += 1.0 / (x - y)
        denom = 1.0 - w * s
        step = w / denom if denom != 0 else w
        new = x - step
        if abs(step) > ROOT_TOL * abs(new):
            ax, size = abs(x), 0.0
            for c in coeffs:
                size = size * ax + abs(c)
            if abs(v) <= rounding * size:
                continue
            moving.append(i)
        z[i] = new
    return moving


def _quadratic_roots(b: complex, c: complex) -> list[complex]:
    """The roots of t^2 + b t + c, c != 0: q = -(b +- sqrt(b^2 - 4c))/2 with
    the sign that avoids cancellation (the larger of b +- sqrt by `_size`),
    and c/q; q != 0 since c != 0."""
    r = cmath.sqrt(b * b - 4.0 * c)
    plus, minus = b + r, b - r
    q = -0.5 * (plus if _size(plus) >= _size(minus) else minus)
    return [q, c / q]


_CUBE_ROOTS_OF_ONE = (1.0, complex(-0.5, 0.5 * math.sqrt(3.0)),
                      complex(-0.5, -0.5 * math.sqrt(3.0)))


def _cubic_roots(b: complex, c: complex, d: complex) -> list[complex]:
    """The roots of t^3 + b t^2 + c t + d by Cardano: with t = y - b/3,
    y^3 + p y + q = 0 and y = C - p/(3C) over the three cube roots C of
    -q/2 +- sqrt(q^2/4 + p^3/27), the sign taken that makes |C| larger.
    C = 0 (a triple root) raises ZeroDivisionError."""
    s = b / 3.0
    p = c - 3.0 * s * s
    q = (2.0 * s * s - c) * s + d
    r = cmath.sqrt(0.25 * q * q + p * p * p / 27.0)
    plus, minus = r - 0.5 * q, -r - 0.5 * q
    C = (plus if _size(plus) >= _size(minus) else minus) ** (1.0 / 3.0)
    return [k * C - p / (3.0 * k * C) - s for k in _CUBE_ROOTS_OF_ONE]


def _quartic_roots(b: complex, c: complex, d: complex, e: complex) -> list[complex]:
    """The roots of t^4 + b t^3 + c t^2 + d t + e by Ferrari: with
    t = y - b/4, y^4 + p y^2 + q y + r = 0.  For a root m != 0 of the
    resolvent m^3 + p m^2 + (p^2/4 - r) m - q^2/8 (the largest by modulus)
    and u = sqrt(2m), the quartic is (y^2 + p/2 + m)^2 - (u y - q/(2u))^2,
    the product of two quadratics.  m = 0 (every resolvent root vanishes:
    p = q = r = 0, a quadruple root) raises ZeroDivisionError."""
    s = b / 4.0
    p = c - 6.0 * s * s
    q = d - (2.0 * c - 8.0 * s * s) * s
    r = e - (d - (c - 3.0 * s * s) * s) * s
    m = max(_cubic_roots(p, 0.25 * p * p - r, -0.125 * q * q), key=abs)
    u = cmath.sqrt(2.0 * m)
    h, g = 0.5 * p + m, 0.5 * q / u
    return [y - s for y in _quadratic_roots(-u, h + g) + _quadratic_roots(u, h - g)]


def _closed_form_starts(coeffs: list[complex]) -> list[complex] | None:
    """Cardano's roots of a cubic and Ferrari's of a quartic, as starting
    points for the sweeps; None at any other degree, or when the closed form
    raises, gives a non-finite value or two equal values."""
    try:
        if len(coeffs) == 4:
            z = _cubic_roots(*coeffs[1:])
        elif len(coeffs) == 5:
            z = _quartic_roots(*coeffs[1:])
        else:
            return None
    except (ZeroDivisionError, OverflowError):
        return None
    if not all(map(cmath.isfinite, z)) or len(set(z)) < len(z):
        return None
    return z


def _circle_starts(coeffs: list[complex], radius: float) -> list[complex]:
    """d points on a slightly perturbed circle of the given radius."""
    d = len(coeffs) - 1
    angles = [2 * math.pi * (k + 0.25) / d for k in range(d)]
    return [radius * cmath.exp(1j * a) * (1 + 0.05 * math.cos(7 * a)) for a in angles]


# Aberth-Ehrlich stops a root at a step below ROOT_TOL relative to it, and
# gives up after ROOT_MAX_ITER sweeps
ROOT_TOL = 1e-13
ROOT_MAX_ITER = 200


def poly_roots(monic: Sequence[complex]) -> np.ndarray:
    """All roots of a monic polynomial.

    Roots at zero are split off exactly first (they are exact for nilpotent
    characteristic polynomials).  A quadratic remainder takes the closed
    form of `_quadratic_roots`.  A cubic or quartic remainder starts at
    Cardano's or Ferrari's roots (`_closed_form_starts`), a higher degree,
    or a closed form that fails, on a circle at the Cauchy bound; in-place
    Aberth-Ehrlich sweeps then refine the starts.  Each root stops moving
    once its own step is below `ROOT_TOL` relative to it, or once p at it
    is rounding error (`_aberth_sweep`), and the sweeps end when every root
    has stopped, so the starts decide only how many sweeps are needed, and
    small roots are resolved next to large ones.
    """
    coeffs = [complex(c) for c in monic]
    if not coeffs or coeffs[0] != 1:
        raise ValueError("expected monic coefficients starting with 1")
    deg = len(coeffs) - 1
    if deg == 0:
        return np.zeros(0, dtype=complex)
    zeros_at_origin = 0
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
        zeros_at_origin += 1
    d = len(coeffs) - 1
    if d == 0:
        return np.zeros(zeros_at_origin, dtype=complex)
    if d == 1:
        return np.array([-coeffs[1]] + [0j] * zeros_at_origin, dtype=complex)
    if d == 2:
        z = _quadratic_roots(coeffs[1], coeffs[2])
        if not all(map(cmath.isfinite, z)):
            raise NumericsError("root iteration diverged", iteration=0, coefficients=coeffs)
        return np.array(z + [0j] * zeros_at_origin, dtype=complex)

    radius = 1.0 + max(abs(x) for x in coeffs[1:])
    z = _closed_form_starts(coeffs) or _circle_starts(coeffs, radius)
    live = list(range(d))
    for iteration in range(ROOT_MAX_ITER):
        try:
            live = _aberth_sweep(coeffs, z, live)
        except (ZeroDivisionError, OverflowError):   # coincident or unbounded iterates
            z = [complex(math.nan)]
        if not all(map(cmath.isfinite, z)):
            raise NumericsError("root iteration diverged",
                                iteration=iteration, coefficients=coeffs)
        if not live:
            break
    else:
        residual = float(np.abs(np.polyval(coeffs, z)).max())
        if residual > 1e-8 * (1.0 + radius) ** d:
            raise NumericsError("root finder did not converge",
                                iterations=ROOT_MAX_ITER, residual=residual,
                                coefficients=coeffs)
    return np.array(z + [0j] * zeros_at_origin, dtype=complex)


def _root_radius(monic: Sequence[complex]) -> float:
    """The largest modulus of a root of a monic polynomial; 0.0 without roots."""
    roots = poly_roots(monic)
    return float(np.abs(roots).max()) if len(roots) else 0.0


def spectral_radius(A: Matrix) -> float:
    """Modulus of the largest eigenvalue, via characteristic-polynomial roots."""
    return _root_radius(char_poly(A).monic_coefficients())


def in_spectral_ball(A: Matrix) -> bool:
    return spectral_radius(A) < 1.0


def in_symmetrized_polydisc(p: FibreCoordinates) -> bool:
    """True when all roots of the associated monic polynomial lie in the
    open unit disc."""
    return _root_radius(p.monic_coefficients()) < 1.0


# ---------------------------------------------------------------------------
# the entire function (e^z - 1)/z


def epsilon(z: complex) -> complex:
    """(e^z - 1)/z extended by 1 at 0, by one formula for every z = a + ib:
    e^z - 1 = expm1(a) cos b - 2 sin^2(b/2) + i e^a sin b, whose expm1 and
    sin^2 terms keep the small values that exp(z) - 1 loses to cancellation
    near 0.  An overflow of e^a or a z with an infinite part yields complex
    infinity rather than an exception, so that flow evaluations surface it
    through their finiteness checks; a nan propagates."""
    z = complex(z)
    if cmath.isinf(z):
        return complex(math.inf, math.inf)
    if not z:
        return 1 + 0j
    a, b = z.real, z.imag
    try:
        return complex(math.expm1(a) * math.cos(b) - 2 * math.sin(b / 2) ** 2,
                       math.exp(a) * math.sin(b)) / z
    except OverflowError:
        return complex(math.inf, math.inf)


# ---------------------------------------------------------------------------
# polynomial evaluation at a matrix point


# a polynomial compiled for evaluation: (complex coefficient,
# ((row, col, exponent), ...)) per term, 0-based, variables in flat order
Compiled = tuple


def _compiled(terms: dict, n: int, L: int = 1) -> Compiled:
    """The term dict of L times a polynomial on n x n matrices, compiled.
    Each coefficient is c / L: for integer terms int / int is correctly
    rounded, so it is the float of the rational coefficient, bit for bit."""
    return tuple([(complex(c / L), tuple([(v // n, v % n, e) for v, e in mono.powers]))
                  for mono, c in terms.items()])


def eval_poly_at_matrix(f: Polynomial | Compiled, A: Matrix | list) -> complex:
    """Direct monomial evaluation in Python `complex` at an ndarray or rows,
    of a Polynomial or of terms compiled once for an n x n matrix (as an
    `Overshear` holds them).  A power x^e takes O(log e) products
    (`_power`); an overflow gives inf or nan, as in numpy, where
    `complex ** e` would raise OverflowError."""
    rows = A.tolist() if isinstance(A, np.ndarray) else A
    if isinstance(f, Polynomial):
        n = len(rows)
        if f.nvars != n * n:
            raise ValueError("polynomial ring does not match the matrix size")
        f = _compiled(f.terms, n)
    total = 0j
    for c, factors in f:
        val = c
        for i, j, e in factors:
            val *= rows[i][j] if e == 1 else _power(rows[i][j], e)
        total += val
    return total


def _power(x: complex, e: int) -> complex:
    """x^e, e >= 1: the squares x^(2^k) at the set bits of e, lowest first."""
    result = None
    while e:
        if e & 1:
            result = x if result is None else result * x
        if e := e >> 1:
            x *= x
    return result


# ---------------------------------------------------------------------------
# automorphism atoms


@dataclass(frozen=True)
class Overshear:
    """Time-t map of the field f * Theta_ab, where Theta_ab^2(f) = 0.

    The flow is the conjugation by exp(s E_ab) = I + s E_ab with
    s = epsilon(t * (Theta_ab f)(A)) * t * f(A); for shears (Theta_ab f = 0)
    this collapses to s = t f(A).  Theta_ab f and the test Theta_ab^2 f = 0
    are exact: the table `generator_components(n, Theta(a, b))` applied by
    `add_derivation` to the integer terms of L f, L the least common
    denominator of f's coefficients.  f and Theta_ab f are compiled once for
    `eval_poly_at_matrix`; a coefficient too large for a double is refused.
    """
    n: int
    a: int
    b: int
    f: Polynomial
    t: complex
    _f_terms: Compiled = field(init=False, compare=False, repr=False)
    _theta_terms: Compiled = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not cmath.isfinite(self.t):
            raise ValueError("overshear 't' must be finite")
        theta = generator_components(self.n, Theta(self.a, self.b))
        if self.f.nvars != self.n * self.n:
            raise DimensionMismatch("polynomial ring does not match field dimension")
        L = math.lcm(*[c.denominator for c in self.f.terms.values()])
        f = {m: c.numerator * (L // c.denominator) for m, c in self.f.terms.items()}
        tf = add_derivation({}, theta, f)
        if add_derivation({}, theta, tf):
            raise ValueError("coefficient fails the overshear test Theta^2(f) = 0")
        try:
            object.__setattr__(self, "_f_terms", _compiled(f, self.n, L))
            object.__setattr__(self, "_theta_terms", _compiled(tf, self.n, L))
        except OverflowError:   # c / L too large for a double
            raise ValueError("overshear 'f' has a coefficient too large for a double") from None

    @property
    def theta_f(self) -> Polynomial:
        """Theta_ab f as a Polynomial, recomputed; the flow reads the
        compiled terms."""
        theta = generator_components(self.n, Theta(self.a, self.b))
        return Polynomial._of(self.f.nvars, add_derivation({}, theta, self.f.terms))


@dataclass(frozen=True)
class Moebius:
    alpha: complex
    gamma: complex

    def __post_init__(self):
        for name in ("alpha", "gamma"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"moebius '{name}' must be finite")
        if abs(self.alpha) >= 1:
            raise ValueError("Moebius atom needs |alpha| < 1")
        if abs(abs(self.gamma) - 1.0) > 1e-12:
            raise ValueError("Moebius atom needs |gamma| = 1")


@dataclass(frozen=True)
class Transpose:
    pass


class Conjugate:
    """Conjugation by a fixed G with det G = 1.  G is inverted once, here;
    the det = 1 check takes det G from the same elimination."""

    def __init__(self, G):
        self._g = _rows(G)
        self.n = len(self._g)
        eye = [[1.0 + 0j if i == j else 0j for j in range(self.n)] for i in range(self.n)]
        self._inverse, det = _solve(self._g, eye)
        if not cmath.isclose(det, 1.0, rel_tol=0.0, abs_tol=1e-10):
            raise ValueError("Conjugate atom needs det G = 1")

    def __repr__(self):
        return f"Conjugate(n={self.n})"


AutomorphismAtom = Overshear | Moebius | Transpose | Conjugate
AutomorphismWord = list


def _shear_s(atom: Overshear, tt: complex, X: Rows) -> complex:
    """s = epsilon(tt (Theta_ab f)(X)) tt f(X), the parameter of the
    conjugation; for a shear (Theta_ab f = 0), s = tt f(X) exactly."""
    s = tt * eval_poly_at_matrix(atom._f_terms, X)
    if atom._theta_terms:
        s *= epsilon(tt * eval_poly_at_matrix(atom._theta_terms, X))
    return s


def _shear(X: Rows, a: int, b: int, s: complex) -> None:
    """X <- (I + s E_ab) X (I - s E_ab) in place, 0-based a != b: row a +=
    s row b, then column b -= s column a; E_ab^2 = 0, so that is all."""
    row_a = X[a]
    for j, y in enumerate(X[b]):
        row_a[j] += s * y
    for row in X:
        row[b] -= s * row[a]


def overshear_flow(atom: Overshear, A: Matrix | Rows, t: complex | None = None) -> Matrix | Rows:
    """Evaluate the overshear/shear conjugation at the atom's time (or t).

    A is an ndarray, checked by `_rows`, and an ndarray is returned; or rows
    as `_rows` returns them, and new rows are returned.  `_shear` applies
    the conjugation to one copy of A; A itself is left as it is.
    """
    array = isinstance(A, np.ndarray)
    X = _rows(A, atom.n) if array else [row[:] for row in A]
    if len(X) != atom.n:
        raise ValueError(f"expected a {atom.n}x{atom.n} matrix")
    _shear(X, atom.a - 1, atom.b - 1, _shear_s(atom, atom.t if t is None else t, X))
    return np.array(X, dtype=complex) if array else X


def moebius(atom: Moebius, A: Matrix | Rows) -> Matrix | Rows:
    """gamma (I - conj(alpha) A)^{-1} (A - alpha I), which equals
    gamma (A - alpha I)(I - conj(alpha) A)^{-1} since both factors are
    polynomials in A, by one Gauss-Jordan solve.  A and the result are
    an ndarray or rows, as in `overshear_flow`."""
    array = isinstance(A, np.ndarray)
    X = _rows(A) if array else A
    alpha, gamma, beta = atom.alpha, atom.gamma, atom.alpha.conjugate()
    B, C = [], []                          # I - beta A and gamma (A - alpha I)
    for i, row in enumerate(X):
        b = [-beta * x for x in row]
        b[i] += 1.0
        c = [gamma * x for x in row]
        c[i] = gamma * (row[i] - alpha)
        B.append(b)
        C.append(c)
    out, _ = _solve(B, C)
    if out is None:
        raise NumericsError("I - conj(alpha) A is singular (point outside the ball?)",
                            alpha=atom.alpha)
    return np.array(out, dtype=complex) if array else out


def apply_atom(atom: AutomorphismAtom, A: Matrix | Rows) -> Matrix | Rows:
    """The atom at A; A and the result are an ndarray or rows, as in
    `overshear_flow`."""
    if isinstance(A, np.ndarray):
        return np.array(apply_atom(atom, _rows(A)), dtype=complex)
    if isinstance(atom, Overshear):
        return overshear_flow(atom, A)
    if isinstance(atom, Moebius):
        return moebius(atom, A)
    if isinstance(atom, Transpose):
        return [list(col) for col in zip(*A)]
    if isinstance(atom, Conjugate):
        if len(A) != atom.n:
            raise ValueError(f"conjugate G is {atom.n}x{atom.n}, the matrix {len(A)}x{len(A)}")
        return _matmul(_matmul(atom._g, A), atom._inverse)
    raise TypeError(f"unknown atom {atom!r}")


def _trajectory_rows(word: AutomorphismWord, X: Rows) -> Iterator[Rows]:
    yield X
    for i, atom in enumerate(word):
        X = apply_atom(atom, X)
        if not _finite(X):
            raise NumericsError("word evaluation produced non-finite entries", atom=i)
        yield X


def word_trajectory(word: AutomorphismWord, A: Matrix) -> Iterator[Matrix]:
    """A, then the matrix after each atom in turn (the first atom acts
    first); an atom that yields a non-finite entry raises NumericsError."""
    for X in _trajectory_rows(word, _rows(A)):
        yield np.array(X, dtype=complex)


def apply_word(word: AutomorphismWord, A: Matrix) -> Matrix:
    """Left-to-right composition: the first atom acts first."""
    for X in _trajectory_rows(word, _rows(A)):
        pass
    return np.array(X, dtype=complex)


# ---------------------------------------------------------------------------
# algorithm combinators (Euler-style approximants of flows)


@dataclass(frozen=True)
class Schedule:
    """A flow family as steps, the first applied first: each an `Overshear`
    or another flow family, run at k t for its factor k (at k sqrt(t), t >= 0,
    when `root` marks a bracket).  A call compiles the steps at t and runs
    them once on a copy of A, rows or an ndarray in and out as in
    `overshear_flow`; a flow family that is not a schedule is called on rows."""
    steps: tuple        # (Overshear | Algorithm, k) pairs
    root: bool = False

    def timed(self, t: float) -> list:
        """(step, its time) for each step at time t."""
        if self.root:
            if t < 0:
                raise ValueError("bracket algorithm is defined for t >= 0")
            t = math.sqrt(t)
        return [(step, k * t) for step, k in self.steps]

    def __call__(self, t: float, A: Matrix | Rows) -> Matrix | Rows:
        array = isinstance(A, np.ndarray)
        X = _rows(A) if array else [row[:] for row in A]
        X = _run(_compile(self, t, X), X)
        return np.array(X, dtype=complex) if array else X


def theta_flow(n: int, a: int, b: int, f: Polynomial | None = None) -> Schedule:
    """Flow family (t, A) -> overshear/shear conjugation of f * Theta_ab,
    the schedule of one atom; f defaults to the constant 1 (the plain
    one-parameter subgroup)."""
    if f is None:
        f = Polynomial.constant(n * n, 1)
    return Schedule(((Overshear(n=n, a=a, b=b, f=f, t=1.0), 1),))


def algorithm_sum(flow_a: Algorithm, flow_b: Algorithm) -> Schedule:
    """phi_t o psi_t, an algorithm for the sum of the two fields: the
    schedule psi at t, then phi at t."""
    return Schedule(((flow_b, 1), (flow_a, 1)))


def algorithm_symmetric_sum(flow_a: Algorithm, flow_b: Algorithm) -> Schedule:
    """psi_{t/2} o phi_t o psi_{t/2} (Strang 1968), a second-order
    algorithm for the sum of the two fields."""
    return Schedule(((flow_b, 0.5), (flow_a, 1), (flow_b, 0.5)))


def algorithm_bracket(flow_a: Algorithm, flow_b: Algorithm) -> Schedule:
    """Commutator word of the two flows, an algorithm for their bracket:
    with s = sqrt(t), psi at s, phi at s, psi at -s, then phi at -s.

    Orientation: the second flow is applied first, so the t-derivative at 0
    matches `adjointfields.bracket(field_a, field_b)` (for the generator
    flows, bracket(Theta12, Theta21) = Xi1).  Defined for t >= 0.
    """
    return Schedule(((flow_b, 1), (flow_a, 1), (flow_b, -1), (flow_a, -1)), root=True)


def _compile(alg: Algorithm, t: float, X: Rows) -> list:
    """The steps of `alg` at time t on rows X, flat, as (kind, a, b, value):
    (None, a, b, s) for a constant f (so Theta_ab f = 0), s = t f worked out
    once; (atom, a, b, time) for another atom; a call (alg, 0, 0, t) for a
    flow family that is not a schedule."""
    if not isinstance(alg, Schedule):
        return [(alg, 0, 0, t)]
    ops = []
    for step, time in alg.timed(t):
        if not isinstance(step, Overshear):
            ops += _compile(step, time, X)
            continue
        if len(X) != step.n:
            raise ValueError(f"expected a {step.n}x{step.n} matrix")
        if any(factors for _, factors in step._f_terms):
            ops.append((step, step.a - 1, step.b - 1, time))
        else:
            ops.append((None, step.a - 1, step.b - 1, _shear_s(step, time, X)))
    return ops


def _run(ops: list, X: Rows) -> Rows:
    """The compiled steps once on rows X: each shear through `_shear` in
    place, a call's result copied into new rows, which are returned."""
    for kind, a, b, s in ops:
        if kind is None:
            _shear(X, a, b, s)
        elif isinstance(kind, Overshear):
            _shear(X, a, b, _shear_s(kind, s, X))
        else:
            X = kind(s, X)
            X = X.tolist() if isinstance(X, np.ndarray) else [list(row) for row in X]
    return X


def iterate_algorithm(alg: Algorithm, t: float, n_steps: int, A: Matrix) -> Matrix:
    """The n-step iterate of the algorithm at step h = t/n_steps.  A
    schedule is compiled once at h (`_compile`); every step then runs it
    (`_run`) on one copy of A's rows.  Each step is checked for finiteness."""
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    h = t / n_steps
    X = _rows(A)
    ops = _compile(alg, h, X)
    for _ in range(n_steps):
        X = _run(ops, X)
        if not _finite(X):
            raise NumericsError("iterate diverged", step=h, n_steps=n_steps)
    return np.array(X, dtype=complex)


def field_at_point(f: Polynomial, gid: GeneratorId, A: Matrix) -> Matrix:
    """Value of the field f * V at the matrix A: f(A) * (B A - A B) where
    B is the generator's matrix."""
    A = as_matrix(A)
    B = np.array(generator_matrix(A.shape[0], gid), dtype=complex)
    return eval_poly_at_matrix(f, A) * (B @ A - A @ B)


# ---------------------------------------------------------------------------
# sampling


SAMPLE_RADIUS = 0.9
SAMPLE_COUPLING = 0.3


def sample_spectral_ball(rng: np.random.Generator, n: int) -> Matrix:
    """Random point of the spectral ball: a Schur form with eigenvalues
    uniform in the disc of radius SAMPLE_RADIUS and SAMPLE_COUPLING times
    normal entries above the diagonal, conjugated by a random unitary.  The
    spectral radius is below SAMPLE_RADIUS by construction and the samples
    are generically non-normal."""
    lam = SAMPLE_RADIUS * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    T = np.diag(lam).astype(complex)
    upper = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    T += SAMPLE_COUPLING * np.triu(upper, 1)
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    Q = Q @ np.diag(np.diag(R) / np.abs(np.diag(R)))
    return Q @ T @ Q.conj().T


# ---------------------------------------------------------------------------
# JSON interfaces


def matrix_to_json(A: Matrix) -> list:
    """Rows of [re, im] pairs of floats, read off a C-ordered complex copy
    viewed as floats, not entry by entry."""
    A = np.ascontiguousarray(A, dtype=complex)
    return A.view(float).reshape(*A.shape, 2).tolist()


def matrix_from_json(data) -> Matrix:
    """A matrix from a JSON array of rows of [re, im] pairs of numbers; a
    cell of any other form is refused, named by its row and column.  Each
    cell is checked and converted once; then a matrix that is not square
    (also one with rows of different lengths) or not finite is refused,
    with the messages of `_rows`, and a cell too large for a double as not
    finite as soon as it is read."""
    if not (isinstance(data, list) and all(isinstance(row, list) for row in data)):
        raise ValueError("matrix JSON must be an array of arrays of [re, im] pairs")
    rows = []
    try:
        for i, row in enumerate(data, 1):
            out = []
            for j, cell in enumerate(row, 1):
                if not _is_pair(cell):
                    raise ValueError(f"matrix entry ({i}, {j}) must be an [re, im] pair of numbers")
                out.append(complex(cell[0], cell[1]))
            rows.append(out)
    except OverflowError:       # an integer too large for a double
        raise ValueError("matrix entries must be finite") from None
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("expected a square matrix")
    if not _finite(rows):
        raise ValueError("matrix entries must be finite")
    return np.array(rows, dtype=complex)


def _is_number(x) -> bool:
    """A JSON number: json reads true and false as bool, a subclass of int.
    The exact types json gives are taken first, subclasses after."""
    return type(x) in (int, float) or isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_pair(x) -> bool:
    """An [re, im] pair of JSON numbers."""
    return isinstance(x, list) and len(x) == 2 and _is_number(x[0]) and _is_number(x[1])


def _complex_from_json(pair, name: str) -> complex:
    if not _is_pair(pair):
        raise ValueError(f"{name} must be an [re, im] pair of numbers")
    try:
        z = complex(pair[0], pair[1])
    except OverflowError:       # an integer too large for a double
        z = cmath.inf
    if not cmath.isfinite(z):
        raise ValueError(f"{name} must be finite")
    return z


_ATOM_KEYS = {"overshear": ("theta", "f", "t"), "moebius": ("alpha", "gamma"),
              "transpose": (), "conjugate": ("G",)}


def atom_from_json(obj: dict, n: int) -> AutomorphismAtom:
    """One atom of an n x n word; a malformed one raises ValueError naming
    the offending field."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError("each atom must be an object with exactly one key")
    kind, body = next(iter(obj.items()))
    if kind not in _ATOM_KEYS:
        raise ValueError(f"unknown atom kind {kind!r}")
    if not isinstance(body, dict):
        raise ValueError(f"{kind} atom: its value must be an object")
    missing = [key for key in _ATOM_KEYS[kind] if key not in body]
    if missing:
        raise ValueError(f"{kind} atom: missing {missing[0]!r}")
    if kind == "overshear":
        theta, f, t = body["theta"], body["f"], body["t"]
        if not (isinstance(theta, list) and len(theta) == 2
                and all(isinstance(i, int) and not isinstance(i, bool) for i in theta)):
            raise ValueError("overshear 'theta' must be a pair of integer indices")
        if not isinstance(f, str):
            raise ValueError("overshear 'f' must be a polynomial string")
        try:
            f = parse_poly(f, n)
        except PolyParseError as exc:
            raise ValueError(f"overshear 'f': {exc}") from exc
        if _is_number(t):
            t = [t, 0]
        elif not isinstance(t, list):
            raise ValueError("overshear 't' must be a number or an [re, im] pair")
        t = _complex_from_json(t, "overshear 't'")
        try:
            return Overshear(n=n, a=theta[0], b=theta[1], f=f, t=t)
        except InvalidGenerator as exc:
            raise ValueError(f"overshear 'theta': {exc}") from exc
    if kind == "moebius":
        return Moebius(alpha=_complex_from_json(body["alpha"], "moebius 'alpha'"),
                       gamma=_complex_from_json(body["gamma"], "moebius 'gamma'"))
    if kind == "transpose":
        return Transpose()
    try:
        G = matrix_from_json(body["G"])
        if len(G) != n:
            raise ValueError(f"expected a {n}x{n} matrix")
    except ValueError as exc:
        raise ValueError(f"conjugate 'G': {exc}") from exc
    return Conjugate(G)


def word_from_json(data: list, n: int) -> AutomorphismWord:
    if not isinstance(data, list):
        raise ValueError("word JSON must be a list of atom objects")
    return [atom_from_json(obj, n) for obj in data]
