"""Numeric engine for the spectral ball.

Matrices are dense complex numpy arrays.  The fibration coordinates are
the signed characteristic-polynomial coefficients pi_j (the elementary
symmetric functions of the eigenvalues), computed by Faddeev-LeVerrier
recursion; eigenvalue moduli come from an Aberth-Ehrlich simultaneous
root finder on the characteristic polynomial, so no eigendecomposition
is needed anywhere.

The matrices here are n x n with n of a few units, so the scalar kernels
avoid numpy's per-call cost where it would dominate the arithmetic: the
root finder iterates on a Python list of `complex`, and an overshear is
applied as one row and one column update instead of two dense products.

Automorphism atoms: overshear/shear conjugations exp(s E_ab) with the
exact nilpotent exponential I + s E_ab, Moebius transformations
A -> gamma (A - alpha I)(I - conj(alpha) A)^{-1}, transposition, and
explicit SL_n conjugations.  `word_trajectory` evaluates a word atom by
atom.  A field value B A - A B takes B from `generator_matrix`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .adjointfields import GeneratorId, Theta, generator_field, generator_matrix
from .polyring import Polynomial, PolyParseError, parse_poly, row_col


class NumericsError(RuntimeError):
    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


Matrix = np.ndarray
Algorithm = Callable[[float, Matrix], Matrix]


def as_matrix(data, n: int | None = None) -> Matrix:
    A = np.asarray(data, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    if n is not None and A.shape[0] != n:
        raise ValueError(f"expected a {n}x{n} matrix")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    return A


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
    """Faddeev-LeVerrier recursion; deterministic, no eigendecomposition.

    M_k = A M_{k-1} + c_k I with c_k = -tr(A M_{k-1}) / k, starting from
    M_0 = I; c_k is added on the diagonal of the fresh product in place.
    """
    A = as_matrix(A)
    n = A.shape[0]
    M = np.eye(n, dtype=complex)
    cs = []
    for k in range(1, n + 1):
        M = A @ M
        c = -M.trace() / k
        cs.append(c)
        M.flat[:: n + 1] += c
    pi = tuple((-1) ** j * cs[j - 1] for j in range(1, n + 1))
    return FibreCoordinates(pi)


def _horner(coeffs: list[complex], x: complex) -> complex:
    out = coeffs[0]
    for a in coeffs[1:]:
        out = out * x + a
    return out


def _aberth_sweep(coeffs: list[complex], dc: list[complex],
                  z: list[complex]) -> tuple[list[complex], float]:
    """One simultaneous Aberth-Ehrlich update of all iterates and the
    largest step taken; each update reads only the previous iterates."""
    newton = []
    for x in z:
        dp = _horner(dc, x)
        newton.append(_horner(coeffs, x) / dp if dp != 0 else 0j)
    new_z = []
    max_step = 0.0
    for i, (x, w) in enumerate(zip(z, newton)):
        s = sum(1.0 / (x - y) for j, y in enumerate(z) if j != i)
        denom = 1.0 - w * s
        step = w / denom if denom != 0 else w
        new_z.append(x - step)
        max_step = max(max_step, abs(step))
    return new_z, max_step


# Aberth-Ehrlich stops at a step below ROOT_TOL (relative) or after ROOT_MAX_ITER sweeps
ROOT_TOL = 1e-13
ROOT_MAX_ITER = 200


def poly_roots(monic: Sequence[complex]) -> np.ndarray:
    """All roots of a monic polynomial via Aberth-Ehrlich iteration.

    Roots at zero are split off exactly first (they are exact for nilpotent
    characteristic polynomials); the remaining roots start on a circle at
    the Cauchy bound and are refined simultaneously.  The degrees met here
    are a few units, so the iteration runs on a Python list of `complex`
    (numpy's per-call cost on arrays this small would exceed the
    arithmetic).
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

    radius = 1.0 + max(abs(x) for x in coeffs[1:])
    angles = [2 * math.pi * (k + 0.25) / d for k in range(d)]
    z = [radius * cmath.exp(1j * a) * (1 + 0.05 * math.cos(7 * a)) for a in angles]
    dc = [c * (d - i) for i, c in enumerate(coeffs[:-1])]

    for iteration in range(ROOT_MAX_ITER):
        try:
            z, max_step = _aberth_sweep(coeffs, dc, z)
            converged = max_step <= ROOT_TOL * (1.0 + max(map(abs, z)))
        except (ZeroDivisionError, OverflowError):   # coincident or unbounded iterates
            z, converged = [complex(math.nan)], False
        if not all(map(cmath.isfinite, z)):
            raise NumericsError("root iteration diverged",
                                iteration=iteration, coefficients=coeffs)
        if converged:
            break
    else:
        residual = float(np.max(np.abs([_horner(coeffs, x) for x in z])))
        if residual > 1e-8 * (1.0 + radius) ** d:
            raise NumericsError("root finder did not converge",
                                iterations=ROOT_MAX_ITER, residual=residual,
                                coefficients=coeffs)
    return np.array(z + [0j] * zeros_at_origin, dtype=complex)


def spectral_radius(A: Matrix) -> float:
    """Modulus of the largest eigenvalue, via characteristic-polynomial roots."""
    fc = char_poly(A)
    roots = poly_roots(fc.monic_coefficients())
    if len(roots) == 0:
        return 0.0
    return float(np.max(np.abs(roots)))


def in_spectral_ball(A: Matrix) -> bool:
    return spectral_radius(A) < 1.0


def in_symmetrized_polydisc(p: FibreCoordinates) -> bool:
    """True when all roots of the associated monic polynomial lie in the
    open unit disc."""
    roots = poly_roots(p.monic_coefficients())
    if len(roots) == 0:
        return True
    return bool(np.max(np.abs(roots)) < 1.0)


# ---------------------------------------------------------------------------
# the entire function (e^z - 1)/z


_EPS_SERIES_TERMS = 16
_EPS_SERIES_RADIUS = 0.25


def epsilon(z: complex) -> complex:
    """(e^z - 1)/z extended by 1 at 0; series below |z| = 0.25 to avoid the
    cancellation in the closed form (keeps relative error < 1e-14).
    Overflow of e^z yields complex infinity rather than an exception so
    that flow evaluations surface it through their finiteness checks."""
    z = complex(z)
    if abs(z) < _EPS_SERIES_RADIUS:
        total = 0j
        term = 1.0 + 0j
        for k in range(1, _EPS_SERIES_TERMS + 1):
            total += term
            term = term * z / (k + 1)
        return total
    try:
        return (cmath.exp(z) - 1.0) / z
    except OverflowError:
        return complex(math.inf, math.inf)


# ---------------------------------------------------------------------------
# polynomial evaluation at a matrix point


def eval_poly_at_matrix(f: Polynomial, A: Matrix) -> complex:
    """Direct monomial evaluation in floats (coefficient degrees are tiny)."""
    n = A.shape[0]
    if f.nvars != n * n:
        raise ValueError("polynomial ring does not match the matrix size")
    total = 0j
    for mono, c in f.terms.items():
        val = complex(c)
        for v, e in mono.powers:
            r, col = row_col(v, n)
            val *= A[r - 1, col - 1] ** e
        total += val
    return total


# ---------------------------------------------------------------------------
# automorphism atoms


@dataclass(frozen=True)
class Overshear:
    """Time-t map of the field f * Theta_ab, where Theta_ab^2(f) = 0.

    The flow is the conjugation by exp(s E_ab) = I + s E_ab with
    s = epsilon(t * (Theta_ab f)(A)) * t * f(A); for shears (Theta_ab f = 0)
    this collapses to s = t f(A).
    """
    n: int
    a: int
    b: int
    f: Polynomial
    t: complex
    theta_f: Polynomial = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not cmath.isfinite(self.t):
            raise ValueError("overshear 't' must be finite")
        theta = generator_field(self.n, Theta(self.a, self.b))
        tf = theta.apply(self.f)
        if not theta.apply(tf).is_zero():
            raise ValueError("coefficient fails the overshear test Theta^2(f) = 0")
        object.__setattr__(self, "theta_f", tf)


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
    """Conjugation by a fixed G with det G = 1."""

    def __init__(self, G):
        self.G = as_matrix(G)
        if abs(np.linalg.det(self.G) - 1.0) >= 1e-10:
            raise ValueError("Conjugate atom needs det G = 1")

    def __repr__(self):
        return f"Conjugate(n={self.G.shape[0]})"


AutomorphismAtom = Overshear | Moebius | Transpose | Conjugate
AutomorphismWord = list


def overshear_flow(atom: Overshear, A: Matrix, t: complex | None = None) -> Matrix:
    """Evaluate the overshear/shear conjugation at the atom's time (or t).

    The conjugation (I + s E_ab) A (I - s E_ab) is applied in its rank-one
    form: left multiplication by I + s E_ab adds s times row b to row a,
    and right multiplication by I - s E_ab then subtracts s times column a
    of that product from column b.  Since a != b, E_ab^2 = 0 and this is
    the whole product, with no dense matrix built.
    """
    A = as_matrix(A, atom.n)
    tt = atom.t if t is None else t
    fA = eval_poly_at_matrix(atom.f, A)
    tfA = eval_poly_at_matrix(atom.theta_f, A)
    s = epsilon(tt * tfA) * tt * fA
    a, b = atom.a - 1, atom.b - 1
    X = A.copy()
    X[a] += s * X[b]
    X[:, b] -= s * X[:, a]
    return X


def moebius(atom: Moebius, A: Matrix) -> Matrix:
    A = as_matrix(A)
    n = A.shape[0]
    I = np.eye(n, dtype=complex)
    B = I - np.conj(atom.alpha) * A
    try:
        inv = np.linalg.solve(B, I)
    except np.linalg.LinAlgError as exc:
        raise NumericsError("I - conj(alpha) A is singular (point outside the ball?)",
                            alpha=atom.alpha) from exc
    return atom.gamma * ((A - atom.alpha * I) @ inv)


def apply_atom(atom: AutomorphismAtom, A: Matrix) -> Matrix:
    if isinstance(atom, Overshear):
        return overshear_flow(atom, A)
    if isinstance(atom, Moebius):
        return moebius(atom, A)
    if isinstance(atom, Transpose):
        return np.array(A.T)
    if isinstance(atom, Conjugate):
        return atom.G @ A @ np.linalg.solve(atom.G, np.eye(atom.G.shape[0], dtype=complex))
    raise TypeError(f"unknown atom {atom!r}")


def word_trajectory(word: AutomorphismWord, A: Matrix) -> Iterator[Matrix]:
    """A, then the matrix after each atom in turn (the first atom acts
    first); an atom that yields a non-finite entry raises NumericsError."""
    A = as_matrix(A)
    yield A
    for i, atom in enumerate(word):
        A = apply_atom(atom, A)
        if not np.all(np.isfinite(A)):
            raise NumericsError("word evaluation produced non-finite entries", atom=i)
        yield A


def apply_word(word: AutomorphismWord, A: Matrix) -> Matrix:
    """Left-to-right composition: the first atom acts first."""
    return list(word_trajectory(word, A))[-1]


# ---------------------------------------------------------------------------
# algorithm combinators (Euler-style approximants of flows)


def theta_flow(n: int, a: int, b: int, f: Polynomial | None = None) -> Algorithm:
    """Flow family (t, A) -> overshear/shear conjugation of f * Theta_ab;
    f defaults to the constant 1 (the plain one-parameter subgroup)."""
    if f is None:
        f = Polynomial.constant(n * n, 1)
    atom = Overshear(n=n, a=a, b=b, f=f, t=1.0)
    return lambda t, A: overshear_flow(atom, A, t=t)


def algorithm_sum(flow_a: Algorithm, flow_b: Algorithm) -> Algorithm:
    """phi_t o psi_t, an algorithm for the sum of the two fields."""
    return lambda t, A: flow_a(t, flow_b(t, A))


def algorithm_bracket(flow_a: Algorithm, flow_b: Algorithm) -> Algorithm:
    """Commutator word of the two flows, an algorithm for their bracket.

    Orientation: the second flow is applied first, so the t-derivative at 0
    matches `adjointfields.bracket(field_a, field_b)` (for the generator
    flows, bracket(Theta12, Theta21) = Xi1).  Defined for t >= 0.
    """
    def alg(t: float, A: Matrix) -> Matrix:
        if t < 0:
            raise ValueError("bracket algorithm is defined for t >= 0")
        s = math.sqrt(t)
        X = flow_b(s, A)
        X = flow_a(s, X)
        X = flow_b(-s, X)
        X = flow_a(-s, X)
        return X
    return alg


def iterate_algorithm(alg: Algorithm, t: float, n_steps: int, A: Matrix) -> Matrix:
    """The n-step iterate of the algorithm at step t/n_steps."""
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    h = t / n_steps
    X = as_matrix(A)
    for _ in range(n_steps):
        X = alg(h, X)
        if not np.all(np.isfinite(X)):
            raise NumericsError("iterate diverged", step=h, n_steps=n_steps)
    return X


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
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(A, dtype=complex)]


def matrix_from_json(data) -> Matrix:
    """A matrix from a JSON array of rows of [re, im] pairs of numbers; a
    cell of any other form is refused, named by its row and column."""
    if not (isinstance(data, list) and all(isinstance(row, list) for row in data)):
        raise ValueError("matrix JSON must be an array of arrays of [re, im] pairs")
    for i, row in enumerate(data, 1):
        for j, cell in enumerate(row, 1):
            if not _is_pair(cell):
                raise ValueError(f"matrix entry ({i}, {j}) must be an [re, im] pair of numbers")
    return as_matrix([[complex(re, im) for re, im in row] for row in data])


def _is_number(x) -> bool:
    """A JSON number: json reads true and false as bool, a subclass of int."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_pair(x) -> bool:
    """An [re, im] pair of JSON numbers."""
    return isinstance(x, list) and len(x) == 2 and _is_number(x[0]) and _is_number(x[1])


def _complex_from_json(pair, name: str) -> complex:
    if not _is_pair(pair):
        raise ValueError(f"{name} must be an [re, im] pair of numbers")
    z = complex(pair[0], pair[1])
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
        if isinstance(t, list):
            t = _complex_from_json(t, "overshear 't'")
        elif not _is_number(t):
            raise ValueError("overshear 't' must be a number or an [re, im] pair")
        return Overshear(n=n, a=theta[0], b=theta[1], f=f, t=complex(t))
    if kind == "moebius":
        return Moebius(alpha=_complex_from_json(body["alpha"], "moebius 'alpha'"),
                       gamma=_complex_from_json(body["gamma"], "moebius 'gamma'"))
    if kind == "transpose":
        return Transpose()
    try:
        G = as_matrix(matrix_from_json(body["G"]), n)
    except ValueError as exc:
        raise ValueError(f"conjugate 'G': {exc}") from exc
    return Conjugate(G)


def word_from_json(data: list, n: int) -> AutomorphismWord:
    if not isinstance(data, list):
        raise ValueError("word JSON must be a list of atom objects")
    return [atom_from_json(obj, n) for obj in data]
