"""Numeric engine for the spectral ball.

Matrices are dense complex numpy arrays.  The fibration coordinates are
the signed characteristic-polynomial coefficients pi_j (the elementary
symmetric functions of the eigenvalues), computed by Faddeev-LeVerrier
recursion; eigenvalue moduli come from an Aberth-Ehrlich simultaneous
root finder on the characteristic polynomial, so no eigendecomposition
is needed anywhere.

Automorphism atoms: overshear/shear conjugations exp(s E_ab) with the
exact nilpotent exponential I + s E_ab, Moebius transformations
A -> gamma (A - alpha I)(I - conj(alpha) A)^{-1}, transposition, and
explicit SL_n conjugations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .adjointfields import Theta, Xi, generator_field
from .polyring import Polynomial, parse_poly, row_col


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
    if not np.all(np.isfinite(A)):
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
    """Faddeev-LeVerrier recursion; deterministic, no eigendecomposition."""
    A = as_matrix(A)
    n = A.shape[0]
    M = np.eye(n, dtype=complex)
    cs = []
    c = 1.0 + 0j
    for k in range(1, n + 1):
        AM = A @ M
        c = -np.trace(AM) / k
        cs.append(c)
        M = AM + c * np.eye(n, dtype=complex)
    pi = tuple((-1) ** j * cs[j - 1] for j in range(1, n + 1))
    return FibreCoordinates(pi)


def poly_roots(monic: Sequence[complex], tol: float = 1e-13, max_iter: int = 200) -> np.ndarray:
    """All roots of a monic polynomial via Aberth-Ehrlich iteration.

    Roots at zero are split off exactly first (they are exact for nilpotent
    characteristic polynomials); the remaining roots start on a circle at
    the Cauchy bound and are refined simultaneously.
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
        roots = np.array([-coeffs[1]], dtype=complex)
        return np.concatenate([roots, np.zeros(zeros_at_origin, dtype=complex)])

    c = np.array(coeffs, dtype=complex)
    radius = 1.0 + max(abs(x) for x in coeffs[1:])
    angles = 2 * np.pi * (np.arange(d) + 0.25) / d
    z = radius * np.exp(1j * angles) * (1 + 0.05 * np.cos(7 * angles))

    dc = c[:-1] * np.arange(d, 0, -1)

    def horner(vals, co):
        out = np.zeros_like(vals) + co[0]
        for a in co[1:]:
            out = out * vals + a
        return out

    for iteration in range(max_iter):
        p = horner(z, c)
        dp = horner(z, dc)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(dp != 0, p / dp, 0)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        s = inv.sum(axis=1)
        denom = 1.0 - newton * s
        step = np.where(denom != 0, newton / denom, newton)
        z = z - step
        if not np.all(np.isfinite(z)):
            raise NumericsError("root iteration diverged",
                                iteration=iteration, coefficients=coeffs)
        if np.max(np.abs(step)) <= tol * (1.0 + np.max(np.abs(z))):
            break
    else:
        residual = float(np.max(np.abs(horner(z, c))))
        if residual > 1e-8 * (1.0 + radius) ** d:
            raise NumericsError("root finder did not converge",
                                iterations=max_iter, residual=residual,
                                coefficients=coeffs)
    return np.concatenate([z, np.zeros(zeros_at_origin, dtype=complex)])


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


def elementary_matrix(n: int, a: int, b: int) -> Matrix:
    E = np.zeros((n, n), dtype=complex)
    E[a - 1, b - 1] = 1.0
    return E


def coroot_matrix(n: int, a: int) -> Matrix:
    H = np.zeros((n, n), dtype=complex)
    H[a - 1, a - 1] = 1.0
    H[a, a] = -1.0
    return H


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
        gid = Theta(self.a, self.b)
        gid.validate(self.n)
        theta = generator_field(self.n, gid)
        tf = theta.apply(self.f)
        if not theta.apply(tf).is_zero():
            raise ValueError("coefficient fails the overshear test Theta^2(f) = 0")
        object.__setattr__(self, "theta_f", tf)


@dataclass(frozen=True)
class Moebius:
    alpha: complex
    gamma: complex

    def __post_init__(self):
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
    """Evaluate the overshear/shear conjugation at the atom's time (or t)."""
    A = as_matrix(A, atom.n)
    tt = atom.t if t is None else t
    fA = eval_poly_at_matrix(atom.f, A)
    tfA = eval_poly_at_matrix(atom.theta_f, A)
    s = epsilon(tt * tfA) * tt * fA
    E = elementary_matrix(atom.n, atom.a, atom.b)
    I = np.eye(atom.n, dtype=complex)
    return (I + s * E) @ A @ (I - s * E)


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


def apply_word(word: AutomorphismWord, A: Matrix) -> Matrix:
    """Left-to-right composition: the first atom acts first."""
    A = as_matrix(A)
    for atom in word:
        A = apply_atom(atom, A)
        if not np.all(np.isfinite(A)):
            raise NumericsError("word evaluation produced non-finite entries")
    return A


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


def field_at_point(f: Polynomial, gid: Theta | Xi, A: Matrix) -> Matrix:
    """Value of the field f * V at the matrix A: f(A) * (B A - A B) where
    B is the generator matrix (E_ab or H_a)."""
    A = as_matrix(A)
    n = A.shape[0]
    if isinstance(gid, Theta):
        gid.validate(n)
        B = elementary_matrix(n, gid.a, gid.b)
    elif isinstance(gid, Xi):
        gid.validate(n)
        B = coroot_matrix(n, gid.a)
    else:
        raise TypeError(f"unknown generator {gid!r}")
    return eval_poly_at_matrix(f, A) * (B @ A - A @ B)


# ---------------------------------------------------------------------------
# sampling


def sample_spectral_ball(rng: np.random.Generator, n: int, radius: float = 0.9,
                         coupling: float = 0.3) -> Matrix:
    """Random point of the spectral ball: a Schur form with eigenvalues
    uniform in the disc of the given radius, conjugated by a random unitary.
    The spectral radius is below `radius` by construction and the samples
    are generically non-normal."""
    lam = radius * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    T = np.diag(lam).astype(complex)
    upper = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    T += coupling * np.triu(upper, 1)
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    Q = Q @ np.diag(np.diag(R) / np.abs(np.diag(R)))
    return Q @ T @ Q.conj().T


# ---------------------------------------------------------------------------
# JSON interfaces


def matrix_to_json(A: Matrix) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(A, dtype=complex)]


def matrix_from_json(data) -> Matrix:
    try:
        A = np.array([[complex(cell[0], cell[1]) for cell in row] for row in data])
    except (TypeError, IndexError) as exc:
        raise ValueError("matrix JSON must be an array of arrays of [re, im] pairs") from exc
    return as_matrix(A)


def _complex_from_json(pair) -> complex:
    return complex(pair[0], pair[1])


def atom_from_json(obj: dict, n: int) -> AutomorphismAtom:
    if len(obj) != 1:
        raise ValueError("atom object must have exactly one key")
    kind, body = next(iter(obj.items()))
    if kind == "overshear":
        a, b = body["theta"]
        f = parse_poly(body["f"], n)
        t = _complex_from_json(body["t"]) if isinstance(body["t"], list) else complex(body["t"])
        return Overshear(n=n, a=a, b=b, f=f, t=t)
    if kind == "moebius":
        return Moebius(alpha=_complex_from_json(body["alpha"]),
                       gamma=_complex_from_json(body["gamma"]))
    if kind == "transpose":
        return Transpose()
    if kind == "conjugate":
        return Conjugate(matrix_from_json(body["G"]))
    raise ValueError(f"unknown atom kind {kind!r}")


def word_from_json(data: list, n: int) -> AutomorphismWord:
    return [atom_from_json(obj, n) for obj in data]
