import cmath
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from specball import flows
from specball.adjointfields import (
    Theta,
    Xi,
    commutator_field,
    generator_field,
    generator_ids,
    generator_matrix,
)
from specball.flows import (
    Conjugate,
    FibreCoordinates,
    Moebius,
    NumericsError,
    Overshear,
    Schedule,
    Transpose,
    algorithm_bracket,
    algorithm_sum,
    algorithm_symmetric_sum,
    apply_atom,
    apply_word,
    as_matrix,
    char_poly,
    epsilon,
    eval_poly_at_matrix,
    field_at_point,
    in_spectral_ball,
    in_symmetrized_polydisc,
    iterate_algorithm,
    matrix_from_json,
    matrix_to_json,
    moebius,
    overshear_flow,
    poly_roots,
    sample_spectral_ball,
    spectral_radius,
    theta_flow,
    word_from_json,
)
from specball.polyring import Monomial, Polynomial, parse_poly

from test_adjointfields import _oracle_apply


def matrix_unit(n, a, b):
    """E_ab, written here apart from specball's generator_matrix."""
    E = np.zeros((n, n))
    E[a - 1, b - 1] = 1.0
    return E


def sym_from_eigs(eigs):
    """Elementary symmetric functions, the independent fibre oracle."""
    n = len(eigs)
    out = []
    coeffs = np.array([1.0 + 0j])
    for lam in eigs:
        coeffs = np.convolve(coeffs, np.array([1.0, -lam]))
    for j in range(1, n + 1):
        out.append((-1) ** j * coeffs[j])
    return np.array(out)


def test_char_poly_trivial():
    assert np.allclose(char_poly(np.zeros((3, 3))).pi, 0)
    assert np.allclose(char_poly(np.eye(2)).pi, [2, 1])
    assert np.allclose(char_poly(np.array([[0, 1], [0, 0]])).pi, 0)


def test_char_poly_against_eigenvalue_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        A = sample_spectral_ball(rng, n)
        eigs = np.linalg.eigvals(A)
        assert np.allclose(char_poly(A).pi, sym_from_eigs(eigs), atol=1e-10)


def test_char_poly_against_numpy_poly_of_eigvals():
    # numpy.poly(eigvals) is independent of specball; the tolerance has the
    # form of the benchmark's fibre check, relative to the coefficient scale
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        for _ in range(6):
            for A in (sample_spectral_ball(rng, n),
                      rng.uniform(-10, 10, (n, n)),
                      rng.uniform(-10, 10, (n, n)) + 1j * rng.uniform(-10, 10, (n, n)),
                      np.triu(rng.uniform(-10, 10, (n, n)), 1) + np.diag(rng.uniform(-1, 1, n))):
                fc = char_poly(A)
                want = np.poly(np.linalg.eigvals(A))
                got = np.array(fc.monic_coefficients())
                assert len(fc) == n
                assert np.abs(got - want).max() <= 1e-9 * (1 + np.abs(want).max()), (n, A)


def test_char_poly_exact_cases():
    for n in range(1, 9):
        assert char_poly(np.zeros((n, n))).pi == (0,) * n
        assert char_poly(np.eye(n)).pi == tuple(math.comb(n, j) for j in range(1, n + 1))
        nilpotent = np.triu(np.arange(1.0, n * n + 1).reshape(n, n), 1)
        assert char_poly(nilpotent).pi == (0,) * n
    assert char_poly([[2.5 - 1j]]).pi == (2.5 - 1j,)
    assert char_poly(np.zeros((0, 0))).pi == ()
    assert spectral_radius(np.zeros((0, 0))) == 0.0


def test_minor_sums_equal_newton_sums_on_rationals():
    # the written-out minor sums serve n <= 4; Newton's identities, run on
    # Fraction entries, are their exact oracle
    rng = np.random.default_rng(5)
    for n in range(1, 5):
        for _ in range(60):
            rows = [[Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 13)))
                     for _ in range(n)] for _ in range(n)]
            assert flows._minor_sums(rows) == flows._newton_sums(rows), rows


def _pi_by_definition(rows):
    """pi_j as the sum of the j x j principal minors, each expanded over
    permutations with the sign of their inversion count."""
    n = len(rows)
    pi = []
    for j in range(1, n + 1):
        total = 0
        for S in itertools.combinations(range(n), j):
            for p in itertools.permutations(range(j)):
                inversions = sum(p[a] > p[b] for a, b in itertools.combinations(range(j), 2))
                total += (-1) ** inversions * math.prod(rows[S[i]][S[p[i]]] for i in range(j))
        pi.append(total)
    return tuple(pi)


def test_newton_sums_equal_minor_definition_on_rationals():
    # above n = 4 char_poly runs Newton's identities on power traces; on
    # Fraction entries they equal the definition exactly
    rng = np.random.default_rng(6)
    for n in (5, 6):
        for _ in range(6):
            rows = [[Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 13)))
                     for _ in range(n)] for _ in range(n)]
            assert flows._newton_sums(rows) == _pi_by_definition(rows), rows


def _fibre_stress_set(rng, n):
    """Complex normal matrices at scales 10^-3 and 10^3, 0.5 I + c N with
    N the nilpotent shift, and non-normal S D S^-1."""
    def normal():
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    for scale in (1e-3, 1e3):
        yield scale * normal()
    for c in (1.0, 1e3):
        yield 0.5 * np.eye(n) + c * complex(*rng.normal(size=2)) * np.eye(n, k=1)
    lam = 0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    S = np.eye(n) + 10.0 ** rng.uniform(0, 3) * normal()
    yield S @ np.diag(lam) @ np.linalg.inv(S)


def test_char_poly_accuracy_against_50_digit_minors():
    # error in pi_j relative to the sum of the moduli of the terms of the j x j
    # principal minors' expansions, the scale that rounding acts on.  On these
    # 405 matrices the worst was 1.6e-16 for the minor sums (2.4e-16 over ten
    # more seeds) and 8.5e-16 for Newton's identities; the bound is 4 eps
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    for _ in range(27):
        for n in (2, 3, 4):
            for A in _fibre_stress_set(rng, n):
                got = char_poly(A).pi
                B = np.abs(A)
                for j in range(1, n + 1):
                    subsets = list(itertools.combinations(range(n), j))
                    scale = sum(math.prod(B[S[i], S[p[i]]] for i in range(j))
                                for S in subsets for p in itertools.permutations(range(j)))
                    with mpmath.workdps(50):
                        want = sum(mpmath.det(mpmath.matrix([[complex(A[r, c]) for c in S]
                                                             for r in S]))
                                   for S in subsets)
                        error = float(abs(mpmath.mpc(got[j - 1]) - want))
                    assert error <= 4 * np.finfo(float).eps * scale, (A, j, error, scale)


def test_spectral_radius_examples():
    assert abs(spectral_radius(np.diag([0.5, -0.25])) - 0.5) < 1e-12
    assert spectral_radius(np.array([[0, 1], [0, 0]])) == 0.0
    assert abs(spectral_radius(np.array([[0, 4], [0.01, 0]])) - 0.2) < 1e-12


def test_spectral_radius_against_eigvals():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        A = sample_spectral_ball(rng, n)
        rho = np.max(np.abs(np.linalg.eigvals(A)))
        assert abs(spectral_radius(A) - rho) < 1e-9


@pytest.mark.parametrize("coeffs", [[1, 1e10, 0, 1], [1, 1e20, 1, 1], [1, 1e10, 0, 0, 1]])
def test_spectral_radius_of_widely_spread_roots(coeffs):
    # the largest modulus, through the companion matrix too
    rho = np.max(np.abs(np.roots(coeffs)))
    d = len(coeffs) - 1
    C = np.zeros((d, d))
    C[0] = [-c for c in coeffs[1:]]
    C[np.arange(1, d), np.arange(d - 1)] = 1
    assert abs(spectral_radius(C) - rho) <= 1e-12 * rho
    assert abs(np.max(np.abs(flows.poly_roots(coeffs))) - rho) <= 1e-12 * rho


@pytest.mark.parametrize("coeffs", [[1, 1e10, 0, 1], [1, 1e20, 1, 1], [1, 1e10, 0, 0, 1]])
def test_poly_roots_resolves_small_roots_next_to_large_ones(coeffs):
    # each root stops on its own step, relative to itself: the small roots
    # (+-1e-5 i; -5e-21 +- 1e-10 i; the cube roots of -1e-10) are resolved
    # as well as the one near -1e10 or -1e20.  np.roots is good to about
    # 6e-9 relative on these; a stop relative to the largest root left the
    # small ones wrong in their leading digit
    want = np.roots(coeffs)
    err = _match(flows.poly_roots(coeffs), want)
    assert (err / np.sort(np.abs(want))).max() <= 1e-7, err


def test_poly_roots_known_roots():
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        roots = rng.normal(size=d) + 1j * rng.normal(size=d)
        coeffs = np.array([1.0 + 0j])
        for r in roots:
            coeffs = np.convolve(coeffs, np.array([1.0, -r]))
        found = np.sort_complex(poly_roots(list(coeffs)))
        assert np.allclose(found, np.sort_complex(roots), atol=1e-8)


def _match(found, want):
    """Distance from each root of `want` to its own root of `found`, pairing
    greedily by nearness (both lists have the same length)."""
    found = list(found)
    out = []
    for w in sorted(want, key=abs):
        k = min(range(len(found)), key=lambda i: abs(found[i] - w))
        out.append(abs(found.pop(k) - w))
    return np.array(out)


@pytest.mark.parametrize("d", range(1, 9))
def test_poly_roots_matches_numpy_roots(d):
    rng = np.random.default_rng(100 + d)
    eps = np.finfo(float).eps
    cases = [rng.normal(size=d) + 1j * rng.normal(size=d)]
    # roots near the unit circle
    cases.append(np.exp(2j * np.pi * rng.uniform(size=d)) * (1 + 1e-6 * rng.normal(size=d)))
    if d >= 2:
        # exact roots at 0, split off before the iteration
        cases.append(np.concatenate([np.zeros(d // 2),
                                     rng.normal(size=d - d // 2) + 1j * rng.normal(size=d - d // 2)]))
    for roots in cases:
        coeffs = np.poly(roots)
        found = poly_roots(list(coeffs))
        assert isinstance(found, np.ndarray) and found.dtype == complex
        assert len(found) == d
        assert _match(found, np.roots(coeffs)).max() <= 1e-9 * (1.0 + np.abs(roots).max()), roots
    if d >= 2:
        # a double root, apart from the others: both finders split it by
        # about sqrt(eps) times the scale
        r = complex(*(0.5 * rng.normal(size=2)))
        others = 2.5 * np.exp(2j * np.pi * (np.arange(d - 2) + rng.uniform()) / max(d - 2, 1))
        roots = np.concatenate([[r, r], others])
        coeffs = np.poly(roots)
        err = _match(poly_roots(list(coeffs)), np.roots(coeffs))
        assert err.max() <= 4 * np.sqrt(eps) * (1.0 + np.abs(roots).max()), err


def test_poly_roots_exact_zeros():
    assert np.array_equal(poly_roots([1, 0, 0, 0]), np.zeros(3))
    found = poly_roots([1, -0.5, 0, 0])
    assert np.count_nonzero(found == 0) == 2 and abs(found[0] - 0.5) < 1e-15


def test_poly_roots_reports_non_convergence(monkeypatch):
    # a quintic starts on the circle at the Cauchy bound, 1 + 159390, far
    # outside its roots 10, ..., 12, so one sweep cannot converge
    coeffs = list(np.poly([10, 10.5, 11, 11.5, 12]))
    radius = 1 + max(abs(c) for c in coeffs[1:])
    assert np.allclose(np.sort(poly_roots(coeffs).real), [10, 10.5, 11, 11.5, 12])
    monkeypatch.setattr(flows, "ROOT_MAX_ITER", 1)
    with pytest.raises(NumericsError, match="did not converge") as exc:
        poly_roots(coeffs)
    assert exc.value.diagnostics["iterations"] == 1
    assert exc.value.diagnostics["residual"] > 1e-8 * radius ** 5
    with pytest.raises(NumericsError, match="diverged"):
        poly_roots([1, complex(math.nan), 1])


def test_poly_roots_validates_input():
    with pytest.raises(ValueError):
        poly_roots([2.0, 1.0])


def _by_size(z):
    return np.array(sorted(z, key=abs))


def test_poly_roots_quadratic_closed_form():
    eps = np.finfo(float).eps
    # |b|^2 >> |c|: the small root comes from c/q, not from b - sqrt(...)
    for coeffs in ([1, 1e8, 1], [1, 1e8 + 1e8j, 2 - 1j], [1, -3e7, 0.5], [1, 1e150, 1]):
        found = poly_roots(coeffs)
        assert isinstance(found, np.ndarray) and found.dtype == complex and len(found) == 2
        want = _by_size(np.roots(coeffs))
        rel = np.abs(_by_size(found) - want) / np.abs(want)
        assert rel.max() < 1e-14, (coeffs, found, want)
    # a double root, split by about sqrt(eps) times the scale, as numpy does
    rng = np.random.default_rng(31)
    for _ in range(20):
        r = complex(*(2 * rng.normal(size=2)))
        coeffs = [1, -2 * r, r * r]
        err = _match(poly_roots(coeffs), np.roots(coeffs))
        assert err.max() <= 4 * np.sqrt(eps) * (1.0 + abs(r)), err
    # zero roots are split off before the closed form
    found = poly_roots([1, 1e8, 1, 0, 0])
    assert np.count_nonzero(found == 0) == 2
    want = _by_size(np.roots([1, 1e8, 1]))
    assert (np.abs(_by_size(found[:2]) - want) / np.abs(want)).max() < 1e-14
    for bad in ([1, complex(math.nan), 1], [1, 1, complex(math.inf)], [1, 1e200, 1]):
        with pytest.raises(NumericsError, match="diverged"):
            poly_roots(bad)


def _first_sweep_starts(monkeypatch, coeffs):
    """The roots of `poly_roots(coeffs)`, the iterates its first Aberth
    sweep started from (None when no sweep ran), and the number of sweeps."""
    starts, sweeps = [], [0]
    real = flows._aberth_sweep

    def recording(c, z, live):
        if not starts:
            starts.append(list(z))
        sweeps[0] += 1
        return real(c, z, live)

    monkeypatch.setattr(flows, "_aberth_sweep", recording)
    roots = poly_roots(coeffs)
    return roots, (starts[0] if starts else None), sweeps[0]


def _circle(coeffs):
    c = [complex(x) for x in coeffs]
    return flows._circle_starts(c, 1.0 + max(abs(x) for x in c[1:]))


@pytest.mark.parametrize("n", [3, 4])
def test_closed_form_start_against_eigvals(monkeypatch, n):
    # Cardano (n = 3) and Ferrari (n = 4) starts on random ball matrices:
    # the radius matches eigvals, and one sweep confirms the starts
    rng = np.random.default_rng(40 + n)
    most = 0
    for _ in range(150):
        A = sample_spectral_ball(rng, n)
        coeffs = char_poly(A).monic_coefficients()
        roots, starts, sweeps = _first_sweep_starts(monkeypatch, coeffs)
        assert starts == flows._closed_form_starts(coeffs) is not None
        assert abs(np.abs(roots).max() - np.abs(np.linalg.eigvals(A)).max()) <= 1e-12
        most = max(most, sweeps)
    assert most == 1


def test_closed_form_start_cases(monkeypatch):
    eps = np.finfo(float).eps
    cases = [   # (matrix, largest eigenvalue modulus, multiplicity of that root)
        (0.5 * np.eye(3), 0.5, 3), (0.5 * np.eye(4), 0.5, 4),
        (np.zeros((3, 3)), 0.0, 3), (np.zeros((4, 4)), 0.0, 4),
        (np.diag([0.3, 0.3, -0.6]), 0.6, 1), (np.diag([0.3, -0.6, -0.6]), 0.6, 2),
        (np.diag([0.5, 0.5, -0.5, -0.5]), 0.5, 2), (np.diag([0.5, -0.5, 0.2j, -0.2j]), 0.5, 1),
        (np.diag([0.7, 0.1, 0.1, 0.1]), 0.7, 1)]
    for lam in (0.5, 0.3 - 0.4j):
        J = lam * np.eye(4) + np.diag(np.ones(3), 1)
        # Jordan blocks: one of size 3 or 4, and two of size 2 (a 4-fold root
        # of the characteristic polynomial all the same)
        cases += [(J[:3, :3], abs(lam), 3), (J, abs(lam), 4),
                  (np.kron(np.eye(2), J[:2, :2]), abs(lam), 4)]
    for A, rho, mult in cases:
        n = len(A)
        coeffs = char_poly(A).monic_coefficients()
        roots, starts, _ = _first_sweep_starts(monkeypatch, coeffs)
        # a root of multiplicity m is resolved to about (2 n eps)^(1/m)
        assert abs(np.abs(roots).max() - rho) <= 2 * (2 * n * eps) ** (1 / mult), (A, roots)
        if rho == 0:
            assert starts is None   # every root split off exactly
        else:
            assert starts == (flows._closed_form_starts(coeffs) or _circle(coeffs))


def test_closed_form_start_falls_back_to_the_circle(monkeypatch):
    # a triple root (Cardano's C = 0) and a quadruple one raise inside the
    # closed form; (t^2 - 1/4)^2 gives two pairs of equal starts; a quintic
    # has no closed form; each starts on the circle and still converges
    for roots in ([0.5, 0.5, 0.5], [0.5j] * 4, [0.5, 0.5, -0.5, -0.5], [0.5, 0.5, 0.5, -0.5],
                  [0.1, -0.2, 0.3j, 0.4, -0.5j], [0.5] * 5):
        coeffs = list(np.poly(roots))
        assert flows._closed_form_starts([complex(c) for c in coeffs]) is None, roots
        found, starts, _ = _first_sweep_starts(monkeypatch, coeffs)
        assert starts == _circle(coeffs)
        assert abs(np.abs(found).max() - max(map(abs, roots))) <= 1e-3
    # a closed form that overflows gives no starts (the circle at the Cauchy
    # bound overflows too for such coefficients, so poly_roots raises)
    assert flows._closed_form_starts([1, 1e200, 1e200, 1]) is None
    assert flows._closed_form_starts([1, 0, 1e200, 0, 1]) is None


def test_ball_membership():
    assert in_spectral_ball(np.zeros((2, 2)))
    assert not in_spectral_ball(np.diag([1.0, 0.0]))      # open ball
    assert in_symmetrized_polydisc(FibreCoordinates((0, 0.25)))   # roots +-0.5i
    assert not in_symmetrized_polydisc(FibreCoordinates((2.0, 1.0)))   # double root 1
    assert in_symmetrized_polydisc(FibreCoordinates(()))


def test_ball_and_polydisc_agree():
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = sample_spectral_ball(rng, 3)
        assert in_spectral_ball(A) == in_symmetrized_polydisc(char_poly(A))
        assert in_spectral_ball(A)


def test_epsilon_values():
    assert epsilon(0) == 1
    assert abs(epsilon(1) - (cmath.e - 1)) < 1e-15
    for z in [1e-9, 1e-4, 0.01, 0.2499, 0.2501, 1 + 2j, -3j, 5.0]:
        assert abs(epsilon(-z) * cmath.exp(z) - epsilon(z)) <= 1e-14 * max(1.0, abs(epsilon(z)))


def test_epsilon_series_closed_form_seam():
    # the two evaluation branches agree to full precision near the switch
    for r in (0.2499, 0.25, 0.2501):
        for ang in np.linspace(0, 2 * np.pi, 17):
            z = r * cmath.exp(1j * ang)
            exact = (cmath.exp(z) - 1) / z
            assert abs(epsilon(z) - exact) < 1e-13


def test_epsilon_accuracy_against_40_digits():
    # relative error on 2000 z with |z| log-uniform in [1e-9, 16] at uniform
    # arguments, and on both axes.  Over ten seeds of 2000 random z the
    # worst was 5.4e-16 (2.4 eps), and 5.5e-16 on 20 000; the former
    # series-or-closed-form evaluation reached 8.6e-16 (3.9 eps) on seed 0.
    # The bound is 3 eps
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    radii = 10.0 ** rng.uniform(-9, math.log10(16), 2000)
    zs = list(radii * np.exp(2j * np.pi * rng.uniform(size=2000)))
    zs += [r * u for r in (1e-9, 1e-5, 0.01, 0.25, 1.0, 7.5, 16.0) for u in (1, 1j, -1, -1j)]
    with mpmath.workdps(40):
        for z in map(complex, zs):
            want = mpmath.expm1(mpmath.mpc(z)) / z
            error = float(abs(mpmath.mpc(epsilon(z)) - want) / abs(want))
            assert error <= 3 * np.finfo(float).eps, (z, error)


def test_epsilon_contract_values():
    assert epsilon(0) == 1
    for z in (800, complex(0, math.inf), complex(math.inf, 0), complex(-math.inf, 1)):
        assert epsilon(z) == complex(math.inf, math.inf), z
    assert not cmath.isfinite(epsilon(math.nan))
    assert not cmath.isfinite(epsilon(complex(0, math.nan)))


def test_eval_poly_at_matrix():
    A = np.array([[1 + 1j, 2], [3, 4]], dtype=complex)
    f = parse_poly("x11^2*x22 - 1/2*x21", 2)
    assert abs(eval_poly_at_matrix(f, A) - ((1 + 1j) ** 2 * 4 - 1.5)) < 1e-14


def same_complex(x, y) -> bool:
    """Equal, with nan and signed zeros compared as they print."""
    return repr(complex(x)) == repr(complex(y))


def test_eval_poly_overflow_is_non_finite():
    # powers are repeated products: Python's complex ** 3 would raise
    f = parse_poly("x11^3", 2)
    value = eval_poly_at_matrix(f, [[1e200, 0], [0, 0]])
    assert not cmath.isfinite(value)
    A = np.array([[1e200, 0], [0, 0]], dtype=complex)
    assert not cmath.isfinite(eval_poly_at_matrix(f, A))
    rng = np.random.default_rng(12)
    for B in (A, sample_spectral_ball(rng, 2), 1e120 * sample_spectral_ball(rng, 2)):
        for g in (f, parse_poly("x11^2*x22 - 1/2*x21 + 3", 2), parse_poly("x12^4*x21^3", 2)):
            assert same_complex(eval_poly_at_matrix(g, B), eval_poly_at_matrix(g, B.tolist()))


def test_overshear_atom_validation():
    with pytest.raises(ValueError):
        Overshear(n=2, a=1, b=2, f=parse_poly("x12", 2), t=1.0)   # fails Theta^2(f)=0
    atom = Overshear(n=2, a=1, b=2, f=parse_poly("x21", 2), t=1.0)
    assert atom.theta_f.is_zero()


def test_overshear_builds_no_field(monkeypatch):
    # Theta_ab f and Theta_ab^2 f = 0 are computed from the generator table
    # by the term-dict kernel: no generator field is built and no field is
    # applied, for a valid coefficient or for one that fails the test
    from specball import adjointfields
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("generator_field", "commutator_field", "make_theta"):
        monkeypatch.setattr(adjointfields, name, counting(name, getattr(adjointfields, name)))
    monkeypatch.setattr(adjointfields.VectorField, "apply",
                        counting("apply", adjointfields.VectorField.apply))
    for n in (2, 3, 4):
        for f in ("x11", "x21", "x11*x21 + 2*x21^2", "1"):
            Overshear(n=n, a=1, b=2, f=parse_poly(f, n), t=0.5)
        with pytest.raises(ValueError, match="Theta\\^2"):
            Overshear(n=n, a=1, b=2, f=parse_poly("x12", n), t=0.5)
    assert calls == []


def _random_poly(rng, n, terms=4, degree=3, min_exp=1, max_exp=1):
    """Each of up to `degree` factors of a term draws a variable and an
    exponent in min_exp..max_exp."""
    from specball.polyring import Monomial
    out = Polynomial.zero(n * n)
    for _ in range(terms):
        powers = {}
        for _ in range(int(rng.integers(0, degree + 1))):
            v = int(rng.integers(0, n * n))
            powers[v] = powers.get(v, 0) + int(rng.integers(min_exp, max_exp + 1))
        out = out + Polynomial.from_monomial(n * n, Monomial(powers.items()),
                                             int(rng.integers(-3, 4)) or 1)
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_theta_on_exponent_tuples_matches_the_generator_field(n):
    # the generator table applied by the term-dict kernel, shared by the
    # flow's atoms and the seeds, against sum_v c_v df/dx_v, c_v the
    # components of commutator_field and df/dx_v by Polynomial.partial, on
    # random f with integer or rational coefficients: for every generator,
    # Xi_a included, through generator_field; for Theta_ab, through
    # Overshear.theta_f when Theta_ab^2 f = 0 and its refusal otherwise
    rng = np.random.default_rng(50 + n)
    gens = generator_ids(n)
    outcomes = set()
    for _ in range(60):
        g = gens[int(rng.integers(len(gens)))]
        field = commutator_field(generator_matrix(n, g))
        f = _random_poly(rng, n).scale(Fraction(int(rng.integers(1, 4)), int(rng.integers(1, 5))))
        want = _oracle_apply(field, f)
        assert generator_field(n, g).apply(f) == want
        if not isinstance(g, Theta):
            continue
        a, b = g.a, g.b
        if _oracle_apply(field, want).is_zero():
            assert Overshear(n=n, a=a, b=b, f=f, t=0.5).theta_f == want
            outcomes.add("accepted")
        else:
            with pytest.raises(ValueError, match="Theta\\^2"):
                Overshear(n=n, a=a, b=b, f=f, t=0.5)
            outcomes.add("refused")
        # an overshear coefficient x_aa (Theta_ab x_aa = x_ba, then 0)
        h = Polynomial.x(a, a, n) * Polynomial.x(b, a, n) * Fraction(1, 2) + Polynomial.x(a, a, n)
        assert Overshear(n=n, a=a, b=b, f=h, t=0.5).theta_f == _oracle_apply(field, h)
    assert outcomes == {"accepted", "refused"}


def test_overshear_rejects_what_the_field_rejected():
    from specball.adjointfields import InvalidGenerator
    from specball.polyring import DimensionMismatch
    for a, b in ((1, 1), (0, 2), (1, 3)):
        with pytest.raises(InvalidGenerator, match="is not a generator id for n=2"):
            Overshear(n=2, a=a, b=b, f=parse_poly("x11", 2), t=0.5)
    with pytest.raises(DimensionMismatch, match="polynomial ring does not match field dimension"):
        Overshear(n=2, a=1, b=2, f=parse_poly("x11", 3), t=0.5)


def test_compiled_terms_evaluate_as_the_polynomial():
    # the overshear flow evaluates compiled terms: bit for bit the values of
    # a plain loop over the Polynomial's terms, overflow to inf included.
    # Each power x^e is formed first, by squaring x^(2^k) and multiplying
    # in the set bits of e from the lowest, then multiplies the term.
    def power(x, e):
        squares = [x]
        while 2 ** len(squares) <= e:
            squares.append(squares[-1] * squares[-1])
        bits = [squares[k] for k in range(len(squares)) if e >> k & 1]
        out = bits[0]
        for b in bits[1:]:
            out *= b
        return out

    def direct(f, rows):
        n, total = len(rows), 0j
        for mono, c in f.terms.items():
            val = complex(c)
            for v, e in mono.powers:
                val *= power(rows[v // n][v % n], e)
            total += val
        return total

    rng = np.random.default_rng(52)
    for n in (2, 3, 4):
        for scale in (1.0, 1e120, 1e30):
            A = (scale * sample_spectral_ball(rng, n)).tolist()
            for f in (_random_poly(rng, n), _random_poly(rng, n, min_exp=2, max_exp=13)):
                compiled = flows._compiled(f.terms, n)
                assert same_complex(eval_poly_at_matrix(compiled, A), direct(f, A))
                assert same_complex(eval_poly_at_matrix(f, A), direct(f, A))
    # against e - 1 repeated products, within the rounding of e products
    for _ in range(200):
        x = complex(*rng.normal(size=2))
        e = int(rng.integers(2, 40))
        repeated = x
        for _ in range(e - 1):
            repeated *= x
        assert cmath.isclose(flows._power(x, e), repeated, rel_tol=4 * e * 2.0 ** -52)


@pytest.mark.parametrize("x", [0.999, -0.5 + 0.8j, 1e-200j, 1.001, -3 + 0.1j, 1e200])
def test_huge_exponent_is_evaluated_by_squaring(x):
    # x21^(2^62) takes 62 squarings: 0 inside the unit circle, not finite
    # outside it, and no OverflowError
    f = parse_poly(f"x21^{2 ** 62}", 2)
    value = eval_poly_at_matrix(f, [[0j, 0j], [complex(x), 0j]])
    if abs(x) < 1:
        assert value == 0
    else:
        assert not cmath.isfinite(value)


@pytest.mark.parametrize("n,a,b,text", [
    (3, 1, 2, "1/2*x21 - 2/3*x21*x13 + 3*x23"),
    (3, 1, 2, "1/3*x11 - 5/6*x21*x22 + 7/4"),
    # L = 63 and a numerator above 2^53, where float(L c) / L rounds twice
    # and misses the nearest float by one ulp
    (3, 1, 2, "1152921504606846985/9*x23 - 1/7*x11*x21 + 5/9*x21"),
    (4, 2, 3, "1/10*x32*x22 - 3/7*x33 + 1/3"),
])
def test_overshear_compiles_rational_coefficients_on_integers(n, a, b, text):
    # f and Theta_ab f run on integer terms of L f; each compiled coefficient
    # is the float of the rational coefficient, bit for bit, and theta_f is
    # the field's value
    f = parse_poly(text, n)
    atom = Overshear(n=n, a=a, b=b, f=f, t=0.5)
    tf = generator_field(n, Theta(a, b)).apply(f)
    assert atom.theta_f == tf
    for g, compiled in ((f, atom._f_terms), (tf, atom._theta_terms)):
        want = {tuple((v // n, v % n, e) for v, e in mono.powers): complex(c)
                for mono, c in g.terms.items()}
        assert any(type(c) is Fraction for c in g.terms.values())
        assert {factors: repr(c) for c, factors in compiled} == \
            {factors: repr(c) for factors, c in want.items()}


def test_overshear_rational_coefficient_failing_the_test_is_refused():
    for n in (2, 3):
        with pytest.raises(ValueError, match="coefficient fails the overshear test Theta\\^2\\(f\\) = 0"):
            Overshear(n=n, a=1, b=2, f=parse_poly("1/3*x12 - 2/5*x21 + 1/2", n), t=0.5)


def test_overshear_flow_matches_dense_product():
    # rank-one row/column update against (I + s E_ab) A (I - s E_ab)
    rng = np.random.default_rng(30)
    for n in (2, 3, 4):
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if a == b:
                    continue
                A = sample_spectral_ball(rng, n)
                # Theta_ab(x_aa) = x_ba and Theta_ab(x_ba) = 0, so Theta_ab^2(f) = 0
                x_aa, x_ba = Polynomial.x(a, a, n), Polynomial.x(b, a, n)
                p, q, r = (int(c) for c in rng.integers(-3, 4, size=3))
                f = (x_aa.scale(p) + (x_aa * x_ba).scale(q) + (x_ba * x_ba).scale(r)
                     + Polynomial.constant(n * n, 1))
                t = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                atom = Overshear(n=n, a=a, b=b, f=f, t=t)
                s = (epsilon(t * eval_poly_at_matrix(atom.theta_f, A))
                     * t * eval_poly_at_matrix(f, A))
                I, E = np.eye(n), matrix_unit(n, a, b)
                dense = (I + s * E) @ A @ (I - s * E)
                A0 = A.copy()
                got = overshear_flow(atom, A)
                assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max(), (n, a, b)
                assert np.array_equal(A, A0)   # the input is not written


def test_overshear_flow_identity_at_t0():
    rng = np.random.default_rng(4)
    A = sample_spectral_ball(rng, 2)
    atom = Overshear(n=2, a=1, b=2, f=parse_poly("x11", 2), t=0.0)
    assert np.allclose(overshear_flow(atom, A), A, atol=1e-15)


def test_shear_flow_explicit_matrix_form():
    rng = np.random.default_rng(5)
    A = sample_spectral_ball(rng, 2)
    t = 0.37 - 0.21j
    atom = Overshear(n=2, a=1, b=2, f=parse_poly("x21", 2), t=t)
    I, E = np.eye(2), matrix_unit(2, 1, 2)
    s = t * A[1, 0]
    expected = (I + s * E) @ A @ (I - s * E)
    assert np.allclose(overshear_flow(atom, A), expected, atol=1e-14)


def test_shear_shortcut(monkeypatch):
    # Theta_12 f = 0: s = t f(A) exactly, and epsilon is not called
    calls = []
    real_epsilon = flows.epsilon

    def counting(z):
        calls.append(z)
        return real_epsilon(z)

    monkeypatch.setattr(flows, "epsilon", counting)
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        A = sample_spectral_ball(rng, n)
        t = 0.8 - 0.35j
        shear = Overshear(n=n, a=1, b=2, f=parse_poly("x21^2 - 2*x21 + 3", n), t=t)
        assert shear.theta_f.is_zero()
        s = t * eval_poly_at_matrix(shear.f, A)
        I, E = np.eye(n), matrix_unit(n, 1, 2)
        dense = (I + s * E) @ A @ (I - s * E)
        calls.clear()
        got = overshear_flow(shear, A)
        assert calls == []
        assert np.abs(got - dense).max() <= 1e-14 * np.abs(dense).max()
        calls.clear()
        overshear_flow(Overshear(n=n, a=1, b=2, f=parse_poly("x11", n), t=t), A)
        assert len(calls) == 1


def test_overshear_flow_exponential_form():
    # for f = x11: s = (e^(t x21) - 1) x11 / x21 when x21 != 0
    rng = np.random.default_rng(6)
    A = sample_spectral_ball(rng, 2)
    t = 0.29
    atom = Overshear(n=2, a=1, b=2, f=parse_poly("x11", 2), t=t)
    I, E = np.eye(2), matrix_unit(2, 1, 2)
    s = (np.exp(t * A[1, 0]) - 1) * A[0, 0] / A[1, 0]
    expected = (I + s * E) @ A @ (I - s * E)
    assert np.allclose(overshear_flow(atom, A), expected, atol=1e-12)


def random_overshear_atom(rng, n):
    from specball.adjointfields import generator_field, OvershearClass, overshear_class
    from specball.polyring import Monomial
    while True:
        a, b = rng.integers(1, n + 1, size=2)
        if a == b:
            continue
        deg = int(rng.integers(1, 3))
        powers = {}
        for _ in range(deg):
            v = int(rng.integers(0, n * n))
            powers[v] = powers.get(v, 0) + 1
        f = Polynomial.from_monomial(n * n, Monomial(powers.items()))
        if overshear_class(f, Theta(int(a), int(b))) is OvershearClass.NEITHER:
            continue
        t = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return Overshear(n=n, a=int(a), b=int(b), f=f, t=t)


def test_semigroup_property_randomized():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(2, 4))
        A = sample_spectral_ball(rng, n)
        atom = random_overshear_atom(rng, n)
        t, s = rng.uniform(-1, 1), rng.uniform(-1, 1)
        lhs = overshear_flow(atom, A, t=t + s)
        rhs = overshear_flow(atom, overshear_flow(atom, A, t=s), t=t)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < 1e-9


def test_fibre_preservation():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(2, 4))
        A = sample_spectral_ball(rng, n)
        atom = random_overshear_atom(rng, n)
        drift = np.abs(np.array(char_poly(overshear_flow(atom, A)).pi)
                       - np.array(char_poly(A).pi)).max()
        assert drift < 1e-10


def test_moebius_examples():
    rng = np.random.default_rng(9)
    A = sample_spectral_ball(rng, 3)
    assert np.allclose(moebius(Moebius(0, 1), A), A)
    alpha = 0.3 + 0.1j
    assert np.allclose(moebius(Moebius(0, 1.0), np.zeros((2, 2))), np.zeros((2, 2)))
    assert np.allclose(moebius(Moebius(alpha, 1), np.zeros((2, 2))), -alpha * np.eye(2))


def test_moebius_group_inverse_on_samples():
    rng = np.random.default_rng(22)
    for _ in range(15):
        n = int(rng.integers(2, 4))
        A = sample_spectral_ball(rng, n)
        alpha = 0.6 * rng.uniform() * cmath.exp(2j * np.pi * rng.uniform())
        back = moebius(Moebius(-alpha, 1), moebius(Moebius(alpha, 1), A))
        assert np.abs(back - A).max() < 1e-10


def test_moebius_gamma_scales_fibre():
    rng = np.random.default_rng(10)
    A = sample_spectral_ball(rng, 3)
    g = cmath.exp(0.8j)
    pi0 = np.array(char_poly(A).pi)
    pi1 = np.array(char_poly(moebius(Moebius(0, g), A)).pi)
    scale = np.array([g, g ** 2, g ** 3])
    assert np.abs(pi1 - pi0 * scale).max() < 1e-10


def test_moebius_validation():
    with pytest.raises(ValueError):
        Moebius(alpha=1.2, gamma=1)
    with pytest.raises(ValueError):
        Moebius(alpha=0.2, gamma=1.5)


@pytest.mark.parametrize("alpha,gamma,field", [
    (complex(math.nan, 0), 1, "'alpha'"),
    (0.2, complex(math.nan, 0), "'gamma'"),
    (complex(0, math.inf), 1, "'alpha'"),
])
def test_moebius_rejects_non_finite_parameters(alpha, gamma, field):
    with pytest.raises(ValueError, match=field):
        Moebius(alpha=alpha, gamma=gamma)


@pytest.mark.parametrize("t", [math.nan, complex(0, math.inf), complex(-math.inf, 0)])
def test_overshear_rejects_non_finite_time(t):
    with pytest.raises(ValueError, match="'t' must be finite"):
        Overshear(n=2, a=1, b=2, f=parse_poly("x21", 2), t=t)


def test_conjugate_validation():
    with pytest.raises(ValueError):
        Conjugate(np.diag([2.0, 1.0]))
    atom = Conjugate(np.array([[1, 1], [0, 1]], dtype=complex))
    A = np.array([[0.1, 0.2], [0.3, 0.4]], dtype=complex)
    out = apply_atom(atom, A)
    drift = np.abs(np.array(char_poly(out).pi) - np.array(char_poly(A).pi)).max()
    assert drift < 1e-12


def _conjugator(rng, n):
    """A random G with det G = 1 that is far from unitary."""
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2 * np.eye(n)
    return G / np.linalg.det(G) ** (1.0 / n)


def _rel(X, ref):
    return np.abs(np.asarray(X) - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_solve_against_numpy(n):
    # Gauss-Jordan with partial pivoting: X and det against numpy, on
    # matrices whose first pivots must be swapped in
    rng = np.random.default_rng(60 + n)
    for k in range(20):
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B[0, 0] = 0 if k % 2 else 1e-12
        C = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        X, det = flows._solve(B.tolist(), C.tolist())
        assert _rel(X, np.linalg.solve(B, C)) < 1e-12
        assert abs(det - np.linalg.det(B)) < 1e-12 * abs(np.linalg.det(B))
    B = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=complex)
    assert flows._solve(B.tolist(), np.eye(3).tolist()) == (None, 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_moebius_and_conjugate_match_numpy_solve(n):
    rng = np.random.default_rng(70 + n)
    I = np.eye(n)
    for _ in range(20):
        A = sample_spectral_ball(rng, n)
        alpha = 0.9 * rng.uniform() * cmath.exp(2j * np.pi * rng.uniform())
        gamma = cmath.exp(2j * np.pi * rng.uniform())
        ref = gamma * ((A - alpha * I) @ np.linalg.solve(I - np.conj(alpha) * A, I))
        out = moebius(Moebius(alpha, gamma), A)
        assert isinstance(out, np.ndarray) and out.dtype == complex
        assert _rel(out, ref) < 1e-12
        assert _rel(moebius(Moebius(alpha, gamma), A.tolist()), ref) < 1e-12
        G = _conjugator(rng, n)
        ref = G @ A @ np.linalg.solve(G, I)
        assert _rel(apply_atom(Conjugate(G), A), ref) < 1e-12
        assert _rel(apply_atom(Conjugate(G), A.tolist()), ref) < 1e-12


def test_moebius_singular_point_raises_numerics_error():
    with pytest.raises(NumericsError, match="singular"):
        moebius(Moebius(0.5, 1), 2 * np.eye(3))
    with pytest.raises(NumericsError, match="singular"):
        apply_word([Moebius(0.5j, 1)], np.array([[0, 0], [0, 2j]]))


@pytest.mark.parametrize("m, n", [(3, 2), (2, 3), (2, 4)])
def test_conjugate_size_mismatch(m, n):
    atom = Conjugate(np.eye(m))
    A = sample_spectral_ball(np.random.default_rng(m + n), n)
    for X in (A, A.tolist()):
        with pytest.raises(ValueError, match=f"conjugate G is {m}x{m}"):
            apply_atom(atom, X)
    with pytest.raises(ValueError):
        apply_word([Transpose(), atom], A)
    with pytest.raises(ValueError, match="det G = 1"):
        Conjugate(np.full((2, 2), 1e200))


def test_atoms_on_rows_and_on_arrays():
    rng = np.random.default_rng(23)
    for n in (2, 3):
        A = sample_spectral_ball(rng, n)
        for atom in (random_overshear_atom(rng, n), Moebius(0.3 - 0.2j, 1j), Transpose(),
                     Conjugate(_conjugator(rng, n))):
            out = apply_atom(atom, A)
            rows = apply_atom(atom, A.tolist())
            assert isinstance(out, np.ndarray) and type(rows) is list
            assert np.array_equal(out, np.array(rows))
        for X in (A.tolist(), A):
            with pytest.raises(ValueError, match=f"expected a {n + 1}x{n + 1} matrix"):
                overshear_flow(random_overshear_atom(rng, n + 1), X)
        with pytest.raises(TypeError, match="unknown atom"):
            apply_atom(object(), A.tolist())


def test_apply_word():
    rng = np.random.default_rng(11)
    A = sample_spectral_ball(rng, 2)
    assert np.allclose(apply_word([], A), A)
    assert np.allclose(apply_word([Transpose(), Transpose()], A), A)


def test_word_ball_invariance():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        A = sample_spectral_ball(rng, n)
        word = [random_overshear_atom(rng, n), Transpose(),
                Moebius(alpha=0.4 * rng.uniform() * cmath.exp(2j * np.pi * rng.uniform()),
                        gamma=cmath.exp(2j * np.pi * rng.uniform())),
                random_overshear_atom(rng, n)]
        assert in_spectral_ball(apply_word(word, A))


def test_algorithm_sum_with_identity_flow():
    rng = np.random.default_rng(13)
    A = sample_spectral_ball(rng, 2)
    fl = theta_flow(2, 1, 2)
    ident = lambda t, X: X
    alg = algorithm_sum(fl, ident)
    for t in (0.1, 0.5):
        assert np.allclose(alg(t, A), fl(t, A))


def test_iterate_exact_flow_semigroup():
    rng = np.random.default_rng(14)
    A = sample_spectral_ball(rng, 2)
    fl = theta_flow(2, 1, 2, f=parse_poly("x21", 2))   # shear: exact flow
    for ns in (1, 4, 16):
        assert np.abs(iterate_algorithm(fl, 0.8, ns, A) - fl(0.8, A)).max() < 1e-12


def test_iterate_single_step():
    rng = np.random.default_rng(15)
    A = sample_spectral_ball(rng, 2)
    alg = algorithm_sum(theta_flow(2, 1, 2), theta_flow(2, 2, 1))
    assert np.allclose(iterate_algorithm(alg, 0.3, 1, A), alg(0.3, A))


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("kind", ["sum", "bracket"])
def test_iterate_on_rows_equals_array_steps(n, kind):
    # the rows passed between the steps give exactly the ndarray steps
    A = sample_spectral_ball(np.random.default_rng(50 + n), n)
    a, b = theta_flow(n, 1, 2), theta_flow(n, 2, 1)
    alg = algorithm_sum(a, b) if kind == "sum" else algorithm_bracket(a, b)
    t, steps = 0.7, 128
    X = A
    for _ in range(steps):
        X = alg(t / steps, X)
        assert isinstance(X, np.ndarray)
    out = iterate_algorithm(alg, t, steps, A)
    assert isinstance(out, np.ndarray) and out.dtype == complex
    assert np.array_equal(out, X)
    rows = alg(t / steps, A.tolist())
    assert type(rows) is list and np.array_equal(np.array(rows), alg(t / steps, A))


def test_iterate_and_bracket_refuse_their_domain_errors():
    # an iterate needs at least one step, and the commutator word takes
    # sqrt(t), so it is defined for t >= 0 only
    A = sample_spectral_ball(np.random.default_rng(17), 2)
    fl = theta_flow(2, 1, 2)
    with pytest.raises(ValueError, match="n_steps must be at least 1"):
        iterate_algorithm(fl, 0.5, 0, A)
    with pytest.raises(ValueError, match="t >= 0"):
        algorithm_bracket(fl, theta_flow(2, 2, 1))(-0.1, A)


def _iterate_cases(n):
    """Schedules of every kind of step: a shear with a constant f, a shear
    with f = x21, an overshear with Theta_12 f != 0 (f = x11), a sum inside
    a bracket, and a call that is not a schedule inside a sum."""
    t12, t21 = theta_flow(n, 1, 2), theta_flow(n, 2, 1)
    shear = theta_flow(n, 1, 2, f=parse_poly("x21", n))
    over = theta_flow(n, 1, 2, f=parse_poly("x11", n))
    opaque = lambda t, X: apply_atom(Transpose(), shear(2 * t, X))
    return {"shear": shear, "overshear": over,
            "sum in bracket": algorithm_bracket(algorithm_sum(t12, over), t21),
            "call in sum": algorithm_sum(opaque, over)}


def _atom_by_atom(alg, t, X):
    """One step of a schedule walked recursively, each atom through
    `overshear_flow` on an ndarray: a reference that shares no compiled step."""
    if not isinstance(alg, Schedule):
        return alg(t, X)
    for step, time in alg.timed(t):
        if isinstance(step, Overshear):
            X = overshear_flow(step, X, t=time)
        else:
            X = _atom_by_atom(step, time, X)
    return X


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("steps", [1, 128])
def test_compiled_iterate_equals_array_steps(n, steps):
    # the compiled iterate, and the schedule called step by step, give bit
    # for bit the result of stepping atom by atom on ndarrays
    A = sample_spectral_ball(np.random.default_rng(60 + n), n)
    t = 0.7
    for name, alg in _iterate_cases(n).items():
        X = Y = A
        for _ in range(steps):
            X = _atom_by_atom(alg, t / steps, X)
            Y = alg(t / steps, Y)
        assert isinstance(X, np.ndarray) and np.array_equal(Y, X), name
        assert np.array_equal(iterate_algorithm(alg, t, steps, A), X), name


def test_compiled_iterate_raises_the_bracket_error():
    # a negative time reaches a bracket at the top, and a bracket inside a
    # bracket at -sqrt(t); both raise as the schedule called step by step
    A = sample_spectral_ball(np.random.default_rng(63), 3)
    t12, t21 = theta_flow(3, 1, 2), theta_flow(3, 2, 1)
    top = algorithm_bracket(t12, algorithm_sum(t21, t12))
    nested = algorithm_bracket(t12, algorithm_bracket(t21, t12))
    for alg, t in ((top, -0.1), (nested, 0.1)):
        for steps in (1, 128):
            with pytest.raises(ValueError, match="bracket algorithm is defined for t >= 0"):
                alg(t / steps, A)
            with pytest.raises(ValueError, match="bracket algorithm is defined for t >= 0"):
                iterate_algorithm(alg, t, steps, A)


def test_flows_leave_their_input_unchanged():
    # the shear kernel works in place, on a copy: the caller's rows and
    # ndarray keep their values, through an atom, a word, a schedule's call
    # and an iterate
    n = 3
    A = sample_spectral_ball(np.random.default_rng(64), n)
    rows = A.tolist()
    saved_rows, saved_A = [row[:] for row in rows], A.copy()
    atom = Overshear(n=n, a=1, b=2, f=parse_poly("x11", n), t=0.3)
    assert overshear_flow(atom, rows) != saved_rows
    overshear_flow(atom, A)
    apply_word([atom, Transpose(), atom], rows)
    apply_word([atom, Transpose(), atom], A)
    for alg in _iterate_cases(n).values():
        alg(0.3, rows)
        alg(0.3, A)
        iterate_algorithm(alg, 0.7, 4, rows)
        iterate_algorithm(alg, 0.7, 4, A)
    assert rows == saved_rows and np.array_equal(A, saved_A)


def test_symmetric_sum_has_order_two():
    # criterion 11's setting: the Theta_12 and Theta_21 flows at t = 0.1,
    # against the exact flow of E12 + E21; the error of the symmetric sum
    # falls as n_steps^-2
    rng = np.random.default_rng(2)
    alg = algorithm_symmetric_sum(theta_flow(2, 1, 2), theta_flow(2, 2, 1))
    t = 0.1
    G = np.cosh(t) * np.eye(2) + np.sinh(t) * np.array([[0, 1], [1, 0]])
    for _ in range(20):
        A = sample_spectral_ball(rng, 2)
        ref = G @ A @ np.linalg.inv(G)
        errs = [float(np.abs(iterate_algorithm(alg, t, ns, A) - ref).max())
                for ns in (8, 16, 32, 64, 128)]
        orders = [math.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
        assert all(1.9 < p < 2.1 for p in orders), orders


def test_bracket_algorithm_commuting_flows():
    rng = np.random.default_rng(16)
    A = sample_spectral_ball(rng, 3)
    # Theta12 and Theta13 commute (common first index)
    alg = algorithm_bracket(theta_flow(3, 1, 2), theta_flow(3, 1, 3))
    for t in (0.04, 0.01):
        assert np.abs(alg(t, A) - A).max() < 40 * t ** 1.5


def test_bracket_algorithm_direction():
    rng = np.random.default_rng(17)
    A = sample_spectral_ball(rng, 2)
    alg = algorithm_bracket(theta_flow(2, 1, 2), theta_flow(2, 2, 1))
    t = 1e-10
    D = (alg(t, A) - A) / t
    ref = field_at_point(Polynomial.constant(4, 1), Xi(1), A)
    assert np.abs(D - ref).max() < 1e-4


def test_field_at_point_elementary():
    E21 = matrix_unit(2, 2, 1)
    H1 = field_at_point(Polynomial.constant(4, 1), Theta(1, 2), E21)
    assert np.allclose(H1, np.diag([1.0, -1.0]))
    # linear scaling in the coefficient
    rng = np.random.default_rng(18)
    A = sample_spectral_ball(rng, 2)
    f = parse_poly("x21", 2)
    v1 = field_at_point(f, Theta(1, 2), A)
    v2 = field_at_point(f.scale(3), Theta(1, 2), A)
    assert np.allclose(3 * v1, v2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_field_at_point_matches_generator_field(n):
    # the numeric field B A - A B against the polynomial components of the
    # same generator's field, evaluated at A
    A = sample_spectral_ball(np.random.default_rng(40 + n), n)
    one = Polynomial.constant(n * n, 1)
    for gid in generator_ids(n):
        V = field_at_point(one, gid, A)
        field = generator_field(n, gid)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert abs(V[i - 1, j - 1] - eval_poly_at_matrix(field.component(i, j), A)) < 1e-14


def test_flow_derivative_central_difference():
    rng = np.random.default_rng(19)
    h = 1e-5
    for _ in range(20):
        n = int(rng.integers(2, 4))
        A = sample_spectral_ball(rng, n)
        atom = random_overshear_atom(rng, n)
        D = (overshear_flow(atom, A, t=h) - overshear_flow(atom, A, t=-h)) / (2 * h)
        ref = field_at_point(atom.f, Theta(atom.a, atom.b), A)
        assert np.abs(D - ref).max() < 1e-6


def test_sampler_properties():
    rng = np.random.default_rng(20)
    for n in (2, 3, 5):
        A = sample_spectral_ball(rng, n)
        assert spectral_radius(A) < 0.9
    # deterministic under the seed
    a1 = sample_spectral_ball(np.random.default_rng(42), 3)
    a2 = sample_spectral_ball(np.random.default_rng(42), 3)
    assert np.array_equal(a1, a2)


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(21)
    A = sample_spectral_ball(rng, 3)
    assert np.allclose(matrix_from_json(matrix_to_json(A)), A)
    with pytest.raises(ValueError):
        matrix_from_json([[1, 2], [3, 4]])


@pytest.mark.parametrize("make", [
    lambda A: A, lambda A: A.T, lambda A: A[::2, ::2], lambda A: A.real.copy(),
    lambda A: np.arange(-8, 8).reshape(4, 4),
], ids=["c-ordered", "transposed", "strided", "real", "int"])
def test_matrix_to_json_matches_per_entry_conversion(make):
    # the whole-array conversion against the per-entry one, bit for bit
    # (floats compared by repr, so -0.0 and 0.0 differ)
    A = np.array([[-0.0, 5e-324, 1e300, 0.5], [1 - 0.0j, -5e-324j, -1e300 + 2j, 3],
                  [7j, -0.0 - 0.0j, 2.5, 1e-300], [4, 5, 6, -7]], dtype=complex)
    A = make(A)
    want = [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(A, dtype=complex)]
    got = matrix_to_json(A)
    assert repr(got) == repr(want)
    assert all(type(x) is float for row in got for cell in row for x in cell)


@pytest.mark.parametrize("data,message", [
    (5, "matrix JSON must be an array of arrays of \\[re, im\\] pairs"),
    ([[[1, 0, 3]]], "matrix entry \\(1, 1\\) must be an \\[re, im\\] pair of numbers"),
    ([[[1, 0], [0, 0]], [[0, 0], [False, 0]]], "matrix entry \\(2, 2\\)"),
    ([], "expected a square matrix"),
    ([[]], "expected a square matrix"),
    ([[[1, 0], [2, 0]]], "expected a square matrix"),
    ([[[1, 0]], [[1, 0], [2, 0]]], "expected a square matrix"),  # ragged
    ([[[math.inf, 0]]], "matrix entries must be finite"),
    ([[[math.inf, 0]], [[1, 0]]], "expected a square matrix"),  # the shape is checked first
    # an integer too large for a double, refused where its cell is read
    ([[[10 ** 400, 0]]], "matrix entries must be finite"),
    ([[[0, 0], [0, -10 ** 400]], [[1, 0], [2, 0]]], "matrix entries must be finite"),
])
def test_matrix_from_json_errors(data, message):
    # one pass over the cells, with the messages of the two-pass version
    with pytest.raises(ValueError, match=message):
        matrix_from_json(data)


def test_matrix_from_json_values():
    data = [[[0.5, -1], [2, 0]], [[-3, 0.25], [0, 1e-300]]]
    A = matrix_from_json(data)
    assert A.dtype == complex and A.shape == (2, 2)
    assert A.tolist() == [[0.5 - 1j, 2 + 0j], [-3 + 0.25j, 1e-300j]]


class _Float(float):
    pass


def test_matrix_from_json_matches_per_cell_conversion():
    # the one-pass decoder against np.array of complex(re, im) per cell, bit
    # for bit (-0.0 and subnormals included); a float subclass takes the
    # `_is_pair` path and converts alike
    rng = np.random.default_rng(20)
    special = [0, -0.0, 5e-324, -1e300, 3, -7, 0.5]
    for k in range(300):
        n = 2 + k % 3
        cells = []
        for _ in range(n * n):
            pair = []
            for _ in range(2):
                kind = rng.integers(0, 4)
                if kind == 0:
                    x = special[int(rng.integers(0, len(special)))]
                elif kind == 1:
                    x = int(rng.integers(-10 ** 6, 10 ** 6))
                else:
                    x = float(rng.normal() * 10.0 ** int(rng.integers(-20, 20)))
                pair.append(x)
            cells.append(pair)
        if k % 10 == 0:
            cells[0] = [_Float(cells[0][0]), cells[0][1]]
        data = [cells[i * n:(i + 1) * n] for i in range(n)]
        want = np.array([[complex(re, im) for re, im in row] for row in data])
        got = matrix_from_json(data)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _powers_compiled(terms, n, L=1):
    """The compile of terms through `Monomial.powers`, as `_compiled` did
    before it read packed keys itself."""
    return tuple([(complex(c / L), tuple([(v // n, v % n, e) for v, e in mono.powers]))
                  for mono, c in terms.items()])


def _overshear_text(rng, n, a, b):
    """A coefficient for Theta_ab with Theta_ab^2 f = 0, and its expected
    term dict: each term a product of variables outside row a and column b
    (Theta_ab kills them) and at most one x_aj with j != b (Theta_ab sends it
    to one of them), as repeated factors x21*x21^2, with exponents up to
    2^62 and Fraction coefficients."""
    killed = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1) if r != a and c != b]
    movers = [(a, c) for c in range(1, n + 1) if c != b]
    pieces, want = [], {}
    for _ in range(int(rng.integers(1, 4))):
        factors = [killed[int(i)] for i in rng.integers(0, len(killed), size=int(rng.integers(0, 4)))]
        if rng.integers(0, 2):
            factors.insert(int(rng.integers(0, len(factors) + 1)), movers[int(rng.integers(0, len(movers)))])
        exps = [1 << int(rng.integers(0, 63)) if rng.integers(0, 4) == 0 else int(rng.integers(1, 4))
                for _ in factors]
        coeff = Fraction(int(rng.integers(-5, 6)) or 1, int(rng.integers(1, 4)))
        head = [f"{coeff.numerator}/{coeff.denominator}" if rng.integers(0, 2) or coeff.denominator > 1
                else str(coeff.numerator)]
        text = "*".join(head + [f"x{r}{c}" + (f"^{e}" if e != 1 else "")
                                for (r, c), e in zip(factors, exps)])
        powers = {}
        for (r, c), e in zip(factors, exps):
            v = (r - 1) * n + c - 1
            powers[v] = powers.get(v, 0) + e
        if sum(powers.get((a - 1) * n + c - 1, 0) for c in range(1, n + 1)) > 1:
            continue        # a power of row a above 1: Theta^2 would not vanish
        if max(powers.values(), default=0) > 1 << 62:
            continue        # Theta_ab f could raise it past the limit
        mono = Monomial(powers.items())
        want[mono] = want[mono] + coeff if mono in want else coeff
        pieces.append(text)
    if not pieces:
        return _overshear_text(rng, n, a, b)
    want = {m: c.numerator if c.denominator == 1 else c for m, c in want.items() if c}
    return " + ".join(pieces).replace("+ -", "- "), want


def test_overshear_compile_matches_the_powers_compile():
    rng = np.random.default_rng(21)
    for k in range(300):
        n = 2 + k % 3
        a, b = (int(x) for x in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        text, want = _overshear_text(rng, n, a, b)
        f = parse_poly(text, n)
        # the parsed term dict: keys in first-appearance order, int
        # coefficients where integral
        assert list(f.terms.items()) == list(want.items()), text
        assert [type(c) for c in f.terms.values()] == [type(c) for c in want.values()], text
        if not want:
            continue
        atom = Overshear(n=n, a=a, b=b, f=f, t=0.5)
        L = math.lcm(*[c.denominator for c in f.terms.values()])
        ints = {m: c.numerator * (L // c.denominator) for m, c in f.terms.items()}
        theta = {m: (c * L).numerator for m, c in atom.theta_f.terms.items()}
        assert atom._f_terms == _powers_compiled(ints, n, L), text
        assert atom._theta_terms == _powers_compiled(theta, n, L), text
        assert repr(atom._f_terms) == repr(_powers_compiled(ints, n, L))


def test_word_json():
    word_json = [
        {"overshear": {"theta": [1, 2], "f": "x11", "t": [0.3, 0.0]}},
        {"moebius": {"alpha": [0.2, 0.1], "gamma": [1, 0]}},
        {"transpose": {}},
    ]
    word = word_from_json(word_json, 2)
    assert isinstance(word[0], Overshear) and word[0].t == 0.3
    assert isinstance(word[1], Moebius)
    assert isinstance(word[2], Transpose)
    with pytest.raises(ValueError):
        word_from_json([{"bogus": {}}], 2)


@pytest.mark.parametrize("atom,field", [
    ({"moebius": {"alpha": [math.nan, 0], "gamma": [1, 0]}}, "moebius 'alpha'"),
    ({"moebius": {"alpha": [0.2, 0], "gamma": [math.nan, 0]}}, "moebius 'gamma'"),
    ({"overshear": {"theta": [1, 2], "f": "x21", "t": math.nan}}, "overshear 't'"),
    ({"overshear": {"theta": [1, 2], "f": "x21", "t": [0.3, math.inf]}}, "overshear 't'"),
])
def test_word_json_rejects_non_finite_parameters(atom, field):
    # Python's json reads NaN and Infinity, so they reach atom construction
    parsed = json.loads(json.dumps([atom]))
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        word_from_json(parsed, 2)


@pytest.mark.parametrize("theta", [[1, 1], [0, 2]])
def test_word_json_names_a_theta_that_is_no_generator(theta):
    atom = {"overshear": {"theta": theta, "f": "x11", "t": 0.3}}
    with pytest.raises(ValueError, match=f"^overshear 'theta': Theta\\(a={theta[0]}, b={theta[1]}\\) "
                                         "is not a generator id for n=2$"):
        word_from_json([atom], 2)


def test_as_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0], [0, 0]]))


def test_iterate_divergence_raises_numerics_error():
    # e^(t x21) overflows for enormous times; the iterate reports it
    atom_flow = theta_flow(2, 1, 2, f=parse_poly("x11", 2))
    A = np.array([[5.0, 0.0], [800.0, -5.0]], dtype=complex)
    with pytest.raises(NumericsError):
        with np.errstate(over="ignore", invalid="ignore"):
            iterate_algorithm(atom_flow, 1e6, 2, A)
