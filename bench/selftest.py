"""Checks every oracle in oracles.py against brute force at tiny sizes.

    python3 bench/selftest.py

Uses sympy for exact symbolic derivatives and ranks; does not import
specball.  Prints one line per oracle and exits non-zero on a mismatch.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from math import comb

import numpy as np
import sympy as sp

import oracles


def _symbols(n: int):
    xs = sp.symbols(f"x0:{n * n}")
    return xs, sp.Matrix(n, n, xs)


def _field(B, X) -> list:
    """Components (flat order) of the field X -> B X - X B."""
    M = sp.Matrix(B.tolist()) * X - X * sp.Matrix(B.tolist())
    return list(M)


def _derive(components, xs, g):
    return sp.expand(sum(c * sp.diff(g, x) for c, x in zip(components, xs)))


def _rank(rows: list[dict]) -> int:
    keys = sorted({k for r in rows for k in r})
    if not rows or not keys:
        return 0
    return sp.Matrix([[r.get(k, 0) for k in keys] for r in rows]).rank()


def check_target_ranks():
    for n in (2, 3, 4):
        for d in range(5):
            brute = (n * n - 1) * sum(1 for _ in itertools.combinations_with_replacement(
                range(n * n - 1), d))
            assert oracles.target_rank(n, d) == brute, (n, d)
    # values measured by exact elimination and quoted with the workloads
    assert [oracles.traceless_rank(2, d) for d in range(5)] == [3, 8, 15, 24, 35]
    assert [oracles.traceless_rank(3, d) for d in range(4)] == [8, 63, 279, 916]
    assert oracles.traceless_rank(3, 4) == 2484 and oracles.traceless_rank(4, 2) == 1784


def check_traceless_rank():
    """Rank of {f * V_B} restricted to trace zero, by symbolic expansion."""
    for n, d_max in ((2, 3), (3, 1)):
        xs, X = _symbols(n)
        last = xs[-1]
        sub = {last: -sum(xs[i * n + i] for i in range(n - 1))}
        gens = [oracles.generator_matrix(n, *g) for g in oracles.generator_labels(n)]
        fields = [[sp.expand(c.subs(sub)) for c in _field(B, X)][:-1] for B in gens]
        for d in range(d_max + 1):
            rows = []
            for combo in itertools.combinations_with_replacement(xs[:-1], d):
                f = sp.Mul(*combo)
                for comps in fields:
                    row = {}
                    for ci, c in enumerate(comps):
                        poly = sp.Poly(sp.expand(f * c), *xs[:-1])
                        for mono, coeff in poly.terms():
                            row[(ci, mono)] = coeff
                    rows.append(row)
            assert _rank(rows) == oracles.traceless_rank(n, d), (n, d)


def check_commutator_fields():
    """bracket(V_B, V_C)(x) = V_C(V_B(x)) - V_B(V_C(x)) equals V_[B,C]."""
    for n in (2, 3):
        xs, X = _symbols(n)
        labels = oracles.generator_labels(n)
        mats = [oracles.generator_matrix(n, *g) for g in labels]
        fields = [_field(B, X) for B in mats]
        for (B, vb), (C, vc) in itertools.product(zip(mats, fields), repeat=2):
            want = _field(B.dot(C) - C.dot(B), X)
            got = [sp.expand(_derive(vc, xs, vb[i]) - _derive(vb, xs, vc[i])) for i in range(n * n)]
            assert [sp.expand(w) for w in want] == got
            point = np.array([[3, -1, 2], [0, 5, -4], [7, 1, -2]], dtype=object)[:n, :n]
            values = oracles.commutator_field(B.dot(C) - C.dot(B), point).reshape(-1)
            subs = dict(zip(xs, point.reshape(-1)))
            assert [w.subs(subs) for w in want] == list(values)


def check_generator_action():
    for n in (2, 3):
        xs, X = _symbols(n)
        for g in oracles.generator_labels(n):
            comps = _field(oracles.generator_matrix(n, *g), X)
            for v in range(n * n):
                want = {mono.index(1): int(c) for mono, c in sp.Poly(comps[v], *xs).terms() if c}
                assert oracles.generator_on_variable(n, *g, v // n, v % n) == want, (g, v)


def _slice_nullities(components, xs, m) -> tuple[int, int]:
    basis = [sp.Mul(*c) for c in itertools.combinations_with_replacement(xs, m)]
    index = {sp.Poly(b, *xs).monoms()[0]: i for i, b in enumerate(basis)}
    D = sp.zeros(len(basis), len(basis))
    for j, b in enumerate(basis):
        image = _derive(components, xs, b)
        if image != 0:
            for mono, coeff in sp.Poly(image, *xs).terms():
                D[index[mono], j] = coeff
    return len(basis) - D.rank(), len(basis) - (D * D).rank()


def check_slice_kernels():
    for n, m_max in ((2, 6), (3, 2)):
        xs, X = _symbols(n)
        theta = _field(oracles.generator_matrix(n, "theta", 1, 2), X)
        xi = _field(oracles.generator_matrix(n, "xi", 1), X)
        for m in range(m_max + 1):
            assert _slice_nullities(theta, xs, m) == oracles.slice_kernels("theta12", n, m), (n, m)
            assert _slice_nullities(xi, xs, m) == oracles.slice_kernels("xi1", n, m), (n, m)
            brute = sum(1 for _ in itertools.combinations_with_replacement(range(n * n), m))
            assert brute == oracles.slice_dim(n * n, m)
    xs = sp.symbols("y0:3")
    chain = [xs[1], xs[2], 0]
    for m in range(1, 9):
        assert _slice_nullities(chain, xs, m) == oracles.chain_kernels(m), m


def check_jets():
    xs, X = _symbols(2)
    theta = _field(oracles.generator_matrix(2, "theta", 1, 2), X)
    xi = _field(oracles.generator_matrix(2, "xi", 1), X)
    rows = []
    for m in range(9):
        lhs = sum(1 for _ in itertools.combinations_with_replacement(range(5), m))
        rhs = 5 * max(_slice_nullities(theta, xs, m)[1], _slice_nullities(xi, xs, m)[1])
        rows.append((m, lhs, rhs))
    assert rows == oracles.jet_rows(2, 5, 8)
    assert oracles.crossover(rows) == oracles.JET_CROSSOVERS[(2, 5)]
    assert oracles.crossover(oracles.jet_rows(3, 5, 8)) == oracles.JET_CROSSOVERS[(3, 5)]
    assert all(comb(m + 4, 4) == lhs for m, lhs, _ in rows)


def check_theta_apply():
    rng = np.random.default_rng(0)
    for n in (2, 3):
        xs, X = _symbols(n)
        for _ in range(30):
            a, b = (int(v) for v in rng.choice(np.arange(1, n + 1), 2, replace=False))
            exps = [0] * (n * n)
            for v in rng.integers(0, n * n, size=3):
                exps[int(v)] += 1
            f = {tuple(exps): Fraction(-3, 2)}
            comps = _field(oracles.generator_matrix(n, "theta", a, b), X)
            expr = sp.Rational(-3, 2) * sp.Mul(*[x ** e for x, e in zip(xs, exps)])
            image = _derive(comps, xs, expr)
            want = sp.Poly(image, *xs).as_dict() if image != 0 else {}
            got = oracles.theta_apply(f, a, b, n)
            assert {k: sp.Rational(v.numerator, v.denominator) for k, v in got.items()} == want
            assert oracles.parse_poly_text(oracles.poly_text(f, n), n) == f


def check_flow_maps():
    """The overshear map against RK4 integration of dX/dt = f(X)(E X - X E)."""
    rng = np.random.default_rng(1)
    for n in (2, 3):
        for _ in range(5):
            A = 0.4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            # x11 * x21: Theta12 maps it to x21^2, which Theta12 kills
            f = {tuple(1 if v in (0, n) else 0 for v in range(n * n)): Fraction(1, 2)}
            assert not oracles.theta_apply(oracles.theta_apply(f, 1, 2, n), 1, 2, n)
            t = 0.7 - 0.3j
            E = np.zeros((n, n), dtype=complex)
            E[0, 1] = 1

            def rhs(Y):
                return t * oracles.eval_poly(f, Y) * (E @ Y - Y @ E)
            Y, steps = A.copy(), 2000
            for _ in range(steps):
                k1 = rhs(Y)
                k2 = rhs(Y + k1 / (2 * steps))
                k3 = rhs(Y + k2 / (2 * steps))
                k4 = rhs(Y + k3 / steps)
                Y = Y + (k1 + 2 * k2 + 2 * k3 + k4) / (6 * steps)
            assert np.abs(Y - oracles.overshear_map(A, 1, 2, f, t)).max() < 1e-10
    for n in (2, 3):
        for kind, M in (("sum", np.eye(n, k=1) + np.eye(n, k=-1)),
                        ("bracket", np.diag([1.0, -1.0] + [0.0] * (n - 2)))):
            if kind == "sum" and n == 3:
                M[1, 2] = M[2, 1] = 0
            series = sum(np.linalg.matrix_power(0.3 * M, k) / float(np.prod(range(1, k + 1)))
                         for k in range(30))
            assert np.abs(series - oracles.generator_flow_matrix(n, kind, 0.3)).max() < 1e-12


def check_numpy_oracles():
    M = sp.Matrix([[2, 1, 0], [-1, 3, 4], [1, 0, -2]]) / 7
    x = sp.Symbol("x")
    exact = [float(c) for c in M.charpoly(x).all_coeffs()]
    A = np.array(M.tolist(), dtype=float)
    assert np.abs(oracles.fibre_monic(A) - exact).max() < 1e-14
    T = np.array([[0.5, 2.0, 1.0], [0.0, -0.8j, 3.0], [0.0, 0.0, 0.1]])
    assert abs(oracles.spectral_radius(T) - 0.8) < 1e-14


def main() -> int:
    checks = [check_target_ranks, check_traceless_rank, check_commutator_fields,
              check_generator_action, check_slice_kernels, check_jets, check_theta_apply,
              check_flow_maps, check_numpy_oracles]
    failed = 0
    for check in checks:
        try:
            check()
            print(f"ok   {check.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__} {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
