import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from specball.adjointfields import (
    InvalidGenerator,
    OvershearClass,
    Theta,
    Xi,
    VectorField,
    bracket,
    commutator_field,
    divergence,
    emit_tables,
    generator_components,
    generator_field,
    generator_ids,
    generator_matrix,
    make_theta,
    make_xi,
    overshear_class,
    render_tables_text,
    scale_field,
)
from specball.polyring import Monomial, Polynomial, parse_poly

from test_polyring import random_poly


def x(r, c, n):
    return Polynomial.x(r, c, n)


def test_theta12_n3_matches_table_row():
    f = make_theta(3, 1, 2)
    expect = {
        (1, 1): "x21", (1, 2): "-x11 + x22", (1, 3): "x23",
        (2, 2): "-x21", (3, 2): "-x31",
    }
    assert {v: p for v, p in f.components.items()} == {
        (r - 1) * 3 + (c - 1): parse_poly(t, 3) for (r, c), t in expect.items()}


def test_theta32_n3_matches_table_row():
    f = make_theta(3, 3, 2)
    expect = {
        (1, 2): "-x13", (2, 2): "-x23", (3, 1): "x21",
        (3, 2): "x22 - x33", (3, 3): "x23",
    }
    assert {v: p for v, p in f.components.items()} == {
        (r - 1) * 3 + (c - 1): parse_poly(t, 3) for (r, c), t in expect.items()}


@pytest.mark.parametrize("a,row", [
    (1, {(1, 2): "2*x12", (1, 3): "x13", (2, 1): "-2*x21",
         (2, 3): "-x23", (3, 1): "-x31", (3, 2): "x32"}),
    (2, {(1, 2): "-x12", (1, 3): "x13", (2, 1): "x21",
         (2, 3): "2*x23", (3, 1): "-x31", (3, 2): "-2*x32"}),
])
def test_xi_n3_matches_table_rows(a, row):
    f = make_xi(3, a)
    assert {v: p for v, p in f.components.items()} == {
        (r - 1) * 3 + (c - 1): parse_poly(t, 3) for (r, c), t in row.items()}


def test_theta12_n2_component_by_hand():
    # expanding the defining sum for n=2 gives component x21 at (1,1)
    f = make_theta(2, 1, 2)
    assert f.component(1, 1) == parse_poly("x21", 2)
    assert f.component(1, 2) == parse_poly("-x11 + x22", 2)
    assert f.component(2, 1).is_zero()
    assert f.component(2, 2) == parse_poly("-x21", 2)


def test_invalid_generators():
    with pytest.raises(InvalidGenerator):
        make_theta(3, 2, 2)
    with pytest.raises(InvalidGenerator):
        make_xi(3, 3)
    with pytest.raises(InvalidGenerator):
        make_theta(3, 4, 1)


def test_generator_matrix():
    assert generator_matrix(3, Theta(3, 1)) == [[0, 0, 0], [0, 0, 0], [1, 0, 0]]
    assert generator_matrix(3, Xi(2)) == [[0, 0, 0], [0, 1, 0], [0, 0, -1]]
    for n in (2, 3, 4):
        assert all(sum(B[i][i] for i in range(n)) == 0     # traceless: in sl_n
                   for B in (generator_matrix(n, g) for g in generator_ids(n)))
    for bad in (Theta(2, 2), Theta(0, 1), Theta(1, 4), Xi(0), Xi(3), "theta12"):
        with pytest.raises(InvalidGenerator):
            generator_matrix(3, bad)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generator_moves_read_as_a_field_are_the_commutator_field(n):
    # the one table of the action, {v: sum_w k x_w} in flat order of v with
    # no zero component, against the independent Polynomial formula of
    # commutator_field; generator_field wraps it
    for g in generator_ids(n):
        comps = generator_components(n, g)
        assert list(comps) == sorted(comps) and all(not p.is_zero() for p in comps.values())
        assert VectorField(n, comps) == commutator_field(generator_matrix(n, g))
        assert generator_field(n, g).components is comps
    for bad in (Theta(2, 2), Xi(n)):
        with pytest.raises(InvalidGenerator):
            generator_components(n, bad)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_linear_action_closed_form(n):
    # Theta_ab(x_cd) = delta_ac x_bd - delta_bd x_ca;
    # Xi_a(x_cd) = (delta_ac - delta_{a+1,c} - delta_ad + delta_{a+1,d}) x_cd
    rng = range(1, n + 1)
    for a, b in itertools.product(rng, rng):
        if a == b:
            continue
        th = make_theta(n, a, b)
        for c, d in itertools.product(rng, rng):
            expect = Polynomial.zero(n * n)
            if a == c:
                expect = expect + x(b, d, n)
            if b == d:
                expect = expect - x(c, a, n)
            assert th.apply(x(c, d, n)) == expect
    for a in range(1, n):
        xi = make_xi(n, a)
        for c, d in itertools.product(rng, rng):
            w = (a == c) - (a + 1 == c) - (a == d) + (a + 1 == d)
            assert xi.apply(x(c, d, n)) == x(c, d, n).scale(w)


def test_apply_table_examples():
    t12 = make_theta(3, 1, 2)
    assert t12.apply(x(1, 1, 3)) == parse_poly("x21", 3)
    assert t12.apply(x(1, 2, 3)) == parse_poly("-x11 + x22", 3)
    assert make_xi(3, 1).apply(x(1, 2, 3)) == parse_poly("2*x12", 3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_trace_is_invariant(n):
    trace = Polynomial.zero(n * n)
    for a in range(1, n + 1):
        trace = trace + x(a, a, n)
    for g in generator_ids(n):
        assert generator_field(n, g).apply(trace).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_xi_from_theta_bracket(n):
    for a in range(1, n):
        assert bracket(make_theta(n, a, a + 1), make_theta(n, a + 1, a)) == make_xi(n, a)


def test_bracket_examples():
    assert bracket(make_theta(3, 1, 2), make_theta(3, 1, 3)).is_zero()
    v = make_theta(3, 2, 3)
    assert bracket(v, v).is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_commutation_pattern_small_n(n):
    # for n <= 3: [Theta_ab, Theta_cd] = 0 exactly when a = c or b = d
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    for (a, b), (c, d) in itertools.product(pairs, pairs):
        z = bracket(make_theta(n, a, b), make_theta(n, c, d)).is_zero()
        assert z == (a == c or b == d)


def test_commutation_pattern_n4():
    # for n >= 4 the sharp condition is (b != c and a != d): with all four
    # indices distinct the bracket vanishes even though a != c and b != d
    n = 4
    assert bracket(make_theta(n, 1, 2), make_theta(n, 3, 4)).is_zero()
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    for (a, b), (c, d) in itertools.product(pairs, pairs):
        z = bracket(make_theta(n, a, b), make_theta(n, c, d)).is_zero()
        assert z == (b != c and a != d)


def test_bracket_bilinear_antisymmetric():
    rng = random.Random(5)
    n = 2
    gens = [generator_field(n, g) for g in generator_ids(n)]
    for _ in range(15):
        v = scale_field(random_poly(rng, n, max_terms=3, max_degree=2), rng.choice(gens))
        w = scale_field(random_poly(rng, n, max_terms=3, max_degree=2), rng.choice(gens))
        assert bracket(v, w) == -bracket(w, v)
        u = rng.choice(gens)
        assert bracket(v + w, u) == bracket(v, u) + bracket(w, u)


def test_jacobi_identity_randomized():
    rng = random.Random(9)
    for n in (2, 3):
        gens = [generator_field(n, g) for g in generator_ids(n)]
        for _ in range(8):
            u, v, w = (scale_field(random_poly(rng, n, max_terms=2, max_degree=2), rng.choice(gens))
                       for _ in range(3))
            total = (bracket(u, bracket(v, w))
                     + bracket(v, bracket(w, u))
                     + bracket(w, bracket(u, v)))
            assert total.is_zero()


def test_leibniz_rule_randomized():
    rng = random.Random(13)
    for n in (2, 3):
        gens = [generator_field(n, g) for g in generator_ids(n)]
        for _ in range(12):
            v = scale_field(random_poly(rng, n, max_terms=3, max_degree=2), rng.choice(gens))
            p, q = random_poly(rng, n), random_poly(rng, n)
            assert v.apply(p * q) == v.apply(p) * q + p * v.apply(q)


def test_scale_field_examples():
    t12 = make_theta(2, 1, 2)
    shear = scale_field(x(2, 1, 2), t12)
    assert t12.apply(x(2, 1, 2)).is_zero()
    over = scale_field(x(1, 1, 2), t12)
    assert t12.apply(t12.apply(x(1, 1, 2))).is_zero()
    assert not over.is_zero() and not shear.is_zero()
    assert scale_field(Polynomial.zero(4), t12).is_zero()


def test_overshear_class_examples():
    assert overshear_class(x(2, 1, 3), Theta(1, 2)) is OvershearClass.SHEAR
    assert overshear_class(x(1, 1, 3), Theta(1, 2)) is OvershearClass.OVERSHEAR
    assert overshear_class(x(1, 2, 3), Theta(1, 2)) is OvershearClass.NEITHER


@pytest.mark.parametrize("n", [2, 3, 4])
def test_theta_powers_on_own_coordinate(n):
    # Theta_ab(x_ab) = x_bb - x_aa, Theta_ab^2(x_ab) = -2 x_ba, third power 0
    for a, b in itertools.product(range(1, n + 1), repeat=2):
        if a == b:
            continue
        th = make_theta(n, a, b)
        p1 = th.apply(x(a, b, n))
        assert p1 == x(b, b, n) - x(a, a, n)
        p2 = th.apply(p1)
        assert p2 == x(b, a, n).scale(-2)
        assert th.apply(p2).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_vanishing_conditions(n):
    for a, b in itertools.product(range(1, n + 1), repeat=2):
        if a == b:
            continue
        th = make_theta(n, a, b)
        for c, d in itertools.product(range(1, n + 1), repeat=2):
            xc = x(c, d, n)
            assert th.apply(xc).is_zero() == (a != c and b != d)
            assert th.apply(th.apply(xc)).is_zero() == (a != c or b != d)
    for a in range(1, n):
        xi = make_xi(n, a)
        for c, d in itertools.product(range(1, n + 1), repeat=2):
            vanish = (c == d) or not ({c, d} & {a, a + 1})
            assert xi.apply(x(c, d, n)).is_zero() == vanish


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generator_divergence_vanishes(n):
    for g in generator_ids(n):
        assert divergence(generator_field(n, g)).is_zero()


def test_overshear_divergence():
    t12 = make_theta(2, 1, 2)
    assert divergence(scale_field(x(1, 1, 2), t12)) == parse_poly("x21", 2)


def test_divergence_product_rule():
    rng = random.Random(21)
    for n in (2, 3):
        gens = [generator_field(n, g) for g in generator_ids(n)]
        for _ in range(10):
            f = random_poly(rng, n)
            v = rng.choice(gens)
            lhs = divergence(scale_field(f, v))
            rhs = f * divergence(v) + v.apply(f)
            assert lhs == rhs


def test_emit_tables_counts():
    rep2 = emit_tables(2)
    assert len(rep2["generators"]) == 3
    assert rep2["generator_order"] == ["theta12", "theta21", "xi1"]
    rep3 = emit_tables(3)
    assert len(rep3["generators"]) == 8
    assert len(rep3["action"]) == 9 and all(len(row) == 8 for row in rep3["action"])
    with pytest.raises(ValueError):
        emit_tables(1)
    text = render_tables_text(rep3)
    assert "theta12" in text and "xi2" in text


def test_emit_tables_bracketed_variables_for_large_n():
    rep = emit_tables(10)
    assert rep["variables"][0] == "x[1,1]"
    assert len(rep["generators"]) == 99
    assert any("x[" in c["poly"] for c in rep["generators"][0]["components"])


def test_generator_ids_are_their_field_tuples():
    # equal ids are equal and hash as the tuple of their fields, so dicts
    # and sets keyed by ids keep the order they had
    for n in (2, 3, 4):
        for g, h in itertools.product(generator_ids(n), repeat=2):
            assert (g == h) == (tuple(g) == tuple(h) and type(g) is type(h))
        for g in generator_ids(n):
            assert hash(g) == hash(tuple(g))
            assert type(g)(*g) == g and hash(type(g)(*g)) == hash(g)
    assert Theta(1, 2) == (1, 2) and Xi(1) == (1,) and Theta(1, 2) != Theta(2, 1)
    assert (Theta(1, 2).a, Theta(1, 2).b, Xi(3).a) == (1, 2, 3)
    assert (Theta(1, 2).label(), Theta(3, 10).label(), Xi(2).label()) == \
        ("theta12", "theta[3,10]", "xi2")


def test_generator_id_repr_and_immutability():
    with pytest.raises(InvalidGenerator) as exc:
        generator_matrix(3, Theta(2, 2))
    assert str(exc.value) == "Theta(a=2, b=2) is not a generator id for n=3"
    with pytest.raises(InvalidGenerator) as exc:
        generator_matrix(3, Xi(3))
    assert str(exc.value) == "Xi(a=3) is not a generator id for n=3"
    for g in (Theta(1, 2), Xi(1)):
        with pytest.raises(AttributeError):
            g.a = 2
        with pytest.raises(AttributeError):
            g.c = 0


def test_plain_tuple_is_no_generator_id():
    # a tuple equal to a cached id must not be answered from the id's entry
    for g in (Theta(1, 2), Xi(1)):
        generator_components(2, g)
        generator_field(2, g)
        with pytest.raises(InvalidGenerator):
            generator_components(2, tuple(g))
        with pytest.raises(InvalidGenerator):
            generator_field(2, tuple(g))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_overshear_moves_are_the_generator_moves(n):
    # each Theta_ab builds an Overshear of f = x_aa + 3 x_ba^2 (Theta_ab f =
    # x_ba, Theta_ab^2 f = 0) whose Theta_ab f, as a Polynomial and compiled,
    # is sum_v c_v df/dx_v, c_v the components of the commutator field
    from specball import flows

    for g in generator_ids(n):
        if not isinstance(g, Theta):
            continue
        f = x(g.a, g.a, n) + x(g.b, g.a, n) * x(g.b, g.a, n) * 3
        atom = flows.Overshear(n=n, a=g.a, b=g.b, f=f, t=0.5)
        want = _oracle_apply(commutator_field(generator_matrix(n, g)), f)
        assert atom.theta_f == want == x(g.b, g.a, n)
        assert atom._theta_terms == flows._compiled(want.terms, n)


# -- the field arithmetic against the derivation formula, term by term

_COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), Fraction(-1, 2))


def _random_field(rng, n):
    nvars = n * n
    comps = {}
    for var in rng.sample(range(nvars), rng.randrange(1, nvars + 1)):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            powers = Counter(rng.randrange(nvars) for _ in range(rng.randrange(0, 3)))
            terms[Monomial(powers.items())] = rng.choice(_COEFFS)
        comps[var] = Polynomial(nvars, terms)
    return VectorField(n, comps)


def _oracle_apply(v, p):
    out = Polynomial.zero(p.nvars)
    for var, comp in v.components.items():
        out = out + comp * p.partial(var)
    return out


def _oracle_bracket(v, w):
    zero = Polynomial.zero(v.n * v.n)
    return VectorField(v.n, {
        var: _oracle_apply(w, v.components.get(var, zero))
        - _oracle_apply(v, w.components.get(var, zero))
        for var in set(v.components) | set(w.components)})


def _oracle_combine(v, w, sign):
    zero = Polynomial.zero(v.n * v.n)
    return VectorField(v.n, {
        var: v.components.get(var, zero) + w.components.get(var, zero).scale(sign)
        for var in set(v.components) | set(w.components)})


def _assert_canonical(result):
    if isinstance(result, VectorField):
        polys = result.components.values()
        assert not any(p.is_zero() for p in polys)
    else:
        polys = [result]
    for p in polys:
        for c in p.terms.values():
            assert c != 0
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@pytest.mark.parametrize("n", [2, 3])
def test_field_arithmetic_matches_derivation_formula(n):
    # bracket, apply, scale_field, + and - against the formula built from
    # Polynomial.partial and products; Fraction, negative and cancelling
    # coefficients, and canonical results (no zero term or component, and
    # an int wherever the value is integral)
    rng = random.Random(31 + n)
    for _ in range(60):
        v, w = _random_field(rng, n), _random_field(rng, n)
        f = random_poly(rng, n, max_terms=3, max_degree=2).scale(rng.choice(_COEFFS))
        # w_neg cancels some of v's components exactly
        dropped = rng.sample(sorted(v.components), rng.randrange(len(v.components) + 1))
        w_neg = VectorField(n, {**w.components, **{var: -v.components[var] for var in dropped}})
        half = Polynomial.constant(n * n, Fraction(1, 2))
        cases = [
            (bracket(v, w), _oracle_bracket(v, w)),
            (bracket(v, w_neg), _oracle_bracket(v, w_neg)),
            (bracket(v, v), VectorField.zero(n)),
            (v.apply(f), _oracle_apply(v, f)),
            (w_neg.apply(f * f), _oracle_apply(w_neg, f * f)),
            (scale_field(f, v), VectorField(n, {var: f * p for var, p in v.components.items()})),
            (scale_field(half, 2 * v), v),
            (v + w_neg, _oracle_combine(v, w_neg, 1)),
            (v - w_neg, _oracle_combine(v, w_neg, -1)),
            (v - v, VectorField.zero(n)),
        ]
        for got, want in cases:
            assert got == want
            _assert_canonical(got)
