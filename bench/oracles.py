"""Expected values computed apart from specball.

Nothing here imports specball.  Every function is a closed form, a brute
enumeration, or a direct numpy computation; `selftest.py` checks each one
against brute force at tiny sizes.
"""

from __future__ import annotations

import cmath
import itertools
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np

# ---------------------------------------------------------------------------
# closure: ranks of the target spans


def target_rank(n: int, d: int) -> int:
    """Pairs (degree-d monomial in the n^2 - 1 traceless coordinates, basis
    generator): (n^2 - 1) * C(n^2 + d - 2, d)."""
    return (n * n - 1) * comb(n * n + d - 2, d)


def traceless_rank(n: int, d: int) -> int:
    """Component rank of the grade-d target span in traceless coordinates.

    The pair count minus the free relations [A^k, A] = 0, one family of
    C(n^2 + d - k - 2, d - k) relations for each k = 1 .. min(d, n - 1)."""
    return target_rank(n, d) - sum(comb(n * n + d - k - 2, d - k)
                                   for k in range(1, min(d, n - 1) + 1))


def generator_matrix(n: int, kind: str, a: int, b: int = 0) -> np.ndarray:
    """Integer matrix of a basis generator: E_ab for theta, E_aa - E_{a+1,a+1}
    for xi (1-based indices)."""
    B = np.zeros((n, n), dtype=object)
    if kind == "theta":
        B[a - 1, b - 1] = 1
    else:
        B[a - 1, a - 1] = 1
        B[a, a] = -1
    return B


def generator_labels(n: int) -> list[tuple[str, int, int]]:
    """(kind, a, b) for the n^2 - 1 basis generators."""
    out = [("theta", a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    return out + [("xi", a, 0) for a in range(1, n)]


def commutator_field(C: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Value at X of the field attached to the matrix C: C X - X C."""
    return C.dot(X) - X.dot(C)


# ---------------------------------------------------------------------------
# linear action of the generators on coordinates (used for the tables)


def generator_on_variable(n: int, kind: str, a: int, b: int, i: int, j: int) -> dict:
    """V(x_ij) as {flat variable index: integer coefficient}, for the field
    V(X) = B X - X B; (B X - X B)_ij = sum_k B_ik x_kj - x_ik B_kj."""
    B = generator_matrix(n, kind, a, b)
    out: dict[int, int] = {}
    for k in range(n):
        if B[i, k]:
            out[k * n + j] = out.get(k * n + j, 0) + int(B[i, k])
        if B[k, j]:
            out[i * n + k] = out.get(i * n + k, 0) - int(B[k, j])
    return {v: c for v, c in out.items() if c}


def parse_poly_text(text: str, n: int) -> dict:
    """Parse the polynomial grammar in its compact form (n <= 9: rational
    coefficients times xKL^e factors, terms joined by " + " / " - ") into
    {exponent tuple: Fraction}."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict[tuple, Fraction] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        term = term.strip()
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        coeff = Fraction(sign)
        exps = [0] * (n * n)
        for factor in term.split("*"):
            if factor.startswith("x"):
                name, _, e = factor.partition("^")
                r, c = int(name[1]), int(name[2])
                exps[(r - 1) * n + (c - 1)] += int(e) if e else 1
            else:
                coeff *= Fraction(factor)
        key = tuple(exps)
        out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# slices: kernel dimensions from weight counts


def variable_weights(n: int) -> list[int]:
    """Weight h_i - h_j of x_ij under h = e_1 - e_2 (flat order)."""
    h = [0] * n
    h[0], h[1] = 1, -1
    return [h[i] - h[j] for i in range(n) for j in range(n)]


def weight_counts(n: int, m: int) -> Counter:
    """W_j: the number of degree-m monomials in the n^2 matrix entries with
    total weight j, by enumerating every monomial."""
    w = variable_weights(n)
    return Counter(sum(w[v] for v in combo)
                   for combo in itertools.combinations_with_replacement(range(n * n), m))


def slice_kernels(field: str, n: int, m: int) -> tuple[int, int]:
    """(dim ker, dim ker^2) of theta12 or xi1 on the degree-m slice.

    theta12 is nilpotent with Jacobson-Morozov grading h = e_1 - e_2, so
    ker = W_0 + W_1 and ker^2 = W_0 + 2 W_1 + W_2; xi1 is diagonal with the
    same weights, so ker = ker^2 = W_0."""
    W = weight_counts(n, m)
    if field.startswith("theta"):
        return W[0] + W[1], W[0] + 2 * W[1] + W[2]
    return W[0], W[0]


def slice_dim(nvars: int, m: int) -> int:
    return comb(nvars + m - 1, m)


def chain_kernels(m: int) -> tuple[int, int]:
    """(dim ker, dim ker^2) of x1 d/dx0 + x2 d/dx1 on the degree-m slice."""
    return m // 2 + 1, 2 * (m // 2) + 2 - (1 if m % 2 == 0 else 0)


def jet_rows(n: int, k: int, m_max: int) -> list[tuple[int, int, int]]:
    """(m, C(m + n^2, n^2), k * max(ker^2 theta12, ker^2 xi1)) for m = 0..m_max."""
    rows = []
    for m in range(m_max + 1):
        rhs = k * max(slice_kernels("theta12", n, m)[1], slice_kernels("xi1", n, m)[1])
        rows.append((m, comb(m + n * n, n * n), rhs))
    return rows


def crossover(rows: list[tuple[int, int, int]]) -> int | None:
    """Smallest m from which lhs >= rhs holds through the end of the window."""
    m0 = None
    for m, lhs, rhs in reversed(rows):
        if lhs < rhs:
            break
        m0 = m
    return m0


# fixed by the weight counts above; recomputed and compared on every run
JET_CROSSOVERS = {(2, 5): 5, (3, 5): 8}

# ---------------------------------------------------------------------------
# flows: exact coefficient algebra and a separate word evaluator


def theta_apply(poly: dict, a: int, b: int, n: int) -> dict:
    """Theta_ab applied to {exponent tuple: Fraction}, exactly, with
    Theta_ab(x_ij) = [i == a] x_bj - [j == b] x_ia."""
    out: dict[tuple, Fraction] = {}
    for exps, c in poly.items():
        for v, e in enumerate(exps):
            if not e:
                continue
            i, j = divmod(v, n)
            images = []
            if i == a - 1:
                images.append(((b - 1) * n + j, 1))
            if j == b - 1:
                images.append((i * n + a - 1, -1))
            for w, s in images:
                new = list(exps)
                new[v] -= 1
                new[w] += 1
                key = tuple(new)
                out[key] = out.get(key, 0) + c * e * s
    return {k: v for k, v in out.items() if v}


def eval_poly(poly: dict, A: np.ndarray) -> complex:
    flat = A.reshape(-1)
    total = 0j
    for exps, c in poly.items():
        val = complex(c)
        for v, e in enumerate(exps):
            if e:
                val *= flat[v] ** e
        total += val
    return total


def poly_text(poly: dict, n: int) -> str:
    """Print {exponent tuple: Fraction} in the program's input grammar."""
    terms = []
    for exps, c in poly.items():
        factors = [f"x{v // n + 1}{v % n + 1}" + (f"^{e}" if e > 1 else "")
                   for v, e in enumerate(exps) if e]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        terms.append(("-" if c < 0 else "+", body))
    text = "".join(f" {s} {b}" for s, b in terms).strip()
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def epsilon(z: complex) -> complex:
    """(e^z - 1)/z, with its Taylor series near 0."""
    if abs(z) < 1e-3:
        return 1 + z / 2 + z * z / 6 + z ** 3 / 24 + z ** 4 / 120
    return (cmath.exp(z) - 1) / z


def overshear_map(A: np.ndarray, a: int, b: int, f: dict, t: complex) -> np.ndarray:
    """Time-t flow of f * Theta_ab when Theta_ab^2 f = 0: conjugation by
    I + s E_ab with s = epsilon(t Theta_ab f(A)) t f(A)."""
    n = A.shape[0]
    s = epsilon(t * eval_poly(theta_apply(f, a, b, n), A)) * t * eval_poly(f, A)
    E = np.zeros((n, n), dtype=complex)
    E[a - 1, b - 1] = 1
    I = np.eye(n, dtype=complex)
    return (I + s * E) @ A @ (I - s * E)


def apply_word(word: list, A: np.ndarray) -> np.ndarray:
    """Evaluate a JSON word (first atom acts first)."""
    n = A.shape[0]
    X = np.array(A, dtype=complex)
    for atom in word:
        (kind, body), = atom.items()
        if kind == "overshear":
            X = overshear_map(X, *body["theta"], parse_poly_text(body["f"], n),
                              complex(*body["t"]))
        elif kind == "moebius":
            alpha, gamma = complex(*body["alpha"]), complex(*body["gamma"])
            I = np.eye(n, dtype=complex)
            X = gamma * (X - alpha * I) @ np.linalg.inv(I - np.conj(alpha) * X)
        elif kind == "transpose":
            X = X.T.copy()
        else:
            G = matrix_from_pairs(body["G"])
            X = G @ X @ np.linalg.inv(G)
    return X


def matrix_from_pairs(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def matrix_to_pairs(A: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in A]


def spectral_radius(A: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def fibre_monic(A: np.ndarray) -> np.ndarray:
    """[1, c_1, ..., c_n] of det(t I - A), from numpy.poly."""
    return np.poly(A)


def generator_flow_matrix(n: int, kind: str, t: float) -> np.ndarray:
    """exp(t M) for the summed field M = E12 + E21 (kind "sum", M^3 = M) or
    the bracket field H = E11 - E22 (kind "bracket")."""
    if kind == "sum":
        M = np.zeros((n, n), dtype=complex)
        M[0, 1] = M[1, 0] = 1
        return np.eye(n) + np.sinh(t) * M + (np.cosh(t) - 1) * (M @ M)
    d = np.ones(n, dtype=complex)
    d[0], d[1] = np.exp(t), np.exp(-t)
    return np.diag(d)
