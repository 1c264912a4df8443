import itertools
import random
import sys
from fractions import Fraction
from math import comb

import pytest

from specball.polyring import (
    DimensionMismatch,
    HomSliceBasis,
    Monomial,
    Polynomial,
    PolyParseError,
    enumerate_slice,
    format_poly,
    parse_poly,
    substitute_trace,
)


def random_poly(rng, n, max_terms=5, max_degree=3, max_coeff=6):
    nvars = n * n
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        powers = {}
        for _ in range(rng.randrange(max_degree + 1)):
            v = rng.randrange(nvars)
            powers[v] = powers.get(v, 0) + 1
        c = Fraction(rng.randrange(-max_coeff, max_coeff + 1), rng.randrange(1, 4))
        mono = Monomial(powers.items())
        terms[mono] = terms.get(mono, Fraction(0)) + c
    return Polynomial(nvars, terms)


def test_difference_of_squares():
    a = parse_poly("x11 + x22", 2)
    b = parse_poly("x11 - x22", 2)
    assert a * b == parse_poly("x11^2 - x22^2", 2)


def test_additive_identity():
    p = parse_poly("3*x12^2*x21 - x11", 3)
    assert p + Polynomial.zero(9) == p


def test_monomial_product_degree():
    x12 = Polynomial.x(1, 2, 2)
    sq = x12 * x12
    assert sq == parse_poly("x12^2", 2)
    assert sq.degree() == 2


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        parse_poly("x11", 2) + parse_poly("x11", 3)


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.choice([2, 3])
        p, q, r = (random_poly(rng, n) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


@pytest.mark.parametrize("n,m,expected", [(2, 1, 4), (2, 2, 10), (3, 2, 45)])
def test_slice_sizes(n, m, expected):
    basis = enumerate_slice(n, m)
    assert len(basis) == expected == comb(n * n + m - 1, m)


def test_slice_against_stars_and_bars_oracle():
    # independent count: multisets of variables of size m
    for n, m in [(2, 3), (3, 2), (2, 5)]:
        oracle = sum(1 for _ in itertools.combinations_with_replacement(range(n * n), m))
        assert len(enumerate_slice(n, m)) == oracle


def test_slice_deterministic_and_indexed():
    b1 = enumerate_slice(3, 2)
    b2 = enumerate_slice(3, 2)
    assert b1.monomials == b2.monomials
    for i, mono in enumerate(b1.monomials):
        assert b1.index[mono] == i
    assert len(set(b1.monomials)) == len(b1.monomials)


def test_substitute_trace_examples():
    assert substitute_trace(parse_poly("x11 + x22", 2)).is_zero()
    assert substitute_trace(parse_poly("x22", 2)) == parse_poly("-x11", 2)
    # n=3: x11*x33 -> -x11^2 - x11*x22 by direct substitution
    assert substitute_trace(parse_poly("x11*x33", 3)) == parse_poly("-x11^2 - x11*x22", 3)


def test_substitute_trace_is_ring_hom_and_idempotent():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.choice([2, 3])
        p, q = random_poly(rng, n), random_poly(rng, n)
        sp, sq = substitute_trace(p), substitute_trace(q)
        assert substitute_trace(p * q) == sp * sq
        assert substitute_trace(p + q) == sp + sq
        assert substitute_trace(sp) == sp


def test_substitute_expands_term_by_term():
    # p(x_v = r) is the sum over the terms c * x^e of c * (x^e / x_v^e_v) * r^e_v
    rng = random.Random(13)
    for _ in range(40):
        n = rng.choice([2, 3])
        p, r = random_poly(rng, n), random_poly(rng, n)
        v = rng.randrange(n * n)
        expected = Polynomial.zero(n * n)
        for mono, c in p.terms.items():
            rest = Monomial((u, e) for u, e in mono.powers if u != v)
            expected = expected + c * Polynomial.from_monomial(n * n, rest) * r ** mono.exponent(v)
        assert p.substitute(v, r) == expected


def test_parse_examples():
    p = parse_poly("3*x12^2*x21 - x11", 3)
    assert len(p.terms) == 2
    assert parse_poly("0", 2).is_zero()
    assert format_poly(parse_poly("x11+x11", 2)) == "2*x11"


def test_parse_whitespace_and_fractions():
    assert parse_poly(" 1/2 * x11  +  x12 ", 2) == \
        Polynomial.x(1, 1, 2).scale(Fraction(1, 2)) + Polynomial.x(1, 2, 2)
    assert parse_poly("2*3*x11", 2) == Polynomial.x(1, 1, 2).scale(6)


def test_parse_errors():
    with pytest.raises(PolyParseError):
        parse_poly("", 2)
    with pytest.raises(PolyParseError):
        parse_poly("x13", 2)   # index out of range
    with pytest.raises(PolyParseError):
        parse_poly("x1", 2)
    with pytest.raises(PolyParseError):
        parse_poly("x11 + + x12", 2)
    err = None
    try:
        parse_poly("x11 @ x12", 2)
    except PolyParseError as exc:
        err = exc
    assert err is not None and err.position == 4


@pytest.mark.parametrize("text,n,message,position", [
    ("", 2, "empty input", 0),
    ("   ", 2, "empty input", 3),
    ("x12 x21", 2, "expected '+' or '-' between terms", 4),
    ("3x12", 2, "expected '+' or '-' between terms", 1),
    ("x12 +", 2, "expected coefficient or variable", 5),
    ("+", 2, "expected coefficient or variable", 1),
    ("x12*", 2, "expected coefficient or variable", 4),
    ("*x12", 2, "expected coefficient or variable", 0),
    ("x12 - - x21", 2, "expected coefficient or variable", 6),
    ("y12", 2, "expected coefficient or variable", 0),
    ("x1", 2, "malformed variable", 0),
    ("x33", 2, "variable index x[3,3] out of 1..2", 3),
    ("x[3,1]", 2, "variable index x[3,1] out of 1..2", 6),
    ("x[11,1]", 10, "variable index x[11,1] out of 1..10", 7),
    ("x11", 10, "compact xKL form is ambiguous for n >= 10; use x[k,l]", 0),
    ("x12^", 2, "expected integer exponent", 4),
    ("x12^1/2", 2, "expected integer exponent", 4),
    ("x12^-1", 2, "expected integer exponent", 4),
    ("1/0*x12", 2, "zero denominator", 0),
    ("2*1/ 0", 2, "zero denominator", 2),
])
def test_parse_error_messages_and_positions(text, n, message, position):
    with pytest.raises(PolyParseError) as info:
        parse_poly(text, n)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


@pytest.mark.parametrize("text,message,position", [
    ("x\u0661\u0662 + \u0663", "malformed variable", 0),        # Arabic-Indic digits
    ("x12 + \u0663", "expected coefficient or variable", 6),
    ("x12^\u0662", "expected integer exponent", 4),
    ("x11\u00a0+ x12", "expected '+' or '-' between terms", 3),   # no-break space
    ("\u00a0x11", "expected coefficient or variable", 0),
    ("2\u2003*x11", "expected '+' or '-' between terms", 1),      # em space
], ids=["digits", "digit-coefficient", "digit-exponent", "nbsp", "leading-nbsp", "em-space"])
def test_parse_grammar_is_ascii(text, message, position):
    # \d and \s of a str pattern would read other scripts' digits and spaces
    with pytest.raises(PolyParseError) as info:
        parse_poly(text, 2)
    assert str(info.value) == f"{message} (at position {position})"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit")
@pytest.mark.parametrize("text,position", [
    ("1" * 5000 + "*x11", 0),
    ("x11 + 1/" + "3" * 5000, 8),
    ("x11^" + "2" * 5000, 4),
    ("x[" + "1" * 5000 + ",1]", 2),
], ids=["numerator", "denominator", "exponent", "row"])
def test_parse_refuses_numbers_longer_than_int_converts(text, position):
    # int() raises a bare ValueError past its digit limit (4300 by default)
    with pytest.raises(PolyParseError) as info:
        parse_poly(text, 2)
    assert str(info.value) == f"number of 5000 digits is too long (at position {position})"
    assert info.value.position == position


def test_parse_integral_input_builds_no_fraction(monkeypatch):
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    p = parse_poly("3*x12^2*x21 - x11 + 2*x11", 3)
    assert not built
    assert parse_poly("-1/3*x12", 3).terms
    assert built
    monkeypatch.undo()
    assert p == parse_poly("3*x12^2*x21", 3) + parse_poly("x11", 3)
    assert all(type(c) is int for c in p.terms.values())


@pytest.mark.parametrize("text,n,expected", [
    ("x[ 1 , 2 ]", 2, "x12"),
    ("x12 ^ 3", 2, "x12^3"),
    ("1 / 2 * x11", 2, "1/2*x11"),
    ("x11*x11", 2, "x11^2"),
    ("x11^0", 2, "1"),
    ("x11*3", 2, "3*x11"),
    ("2*x11*1/2", 2, "x11"),
    ("x11 - x11", 2, "0"),
    ("-0", 2, "0"),
    ("007*x11", 2, "7*x11"),
    ("x11^007", 2, "x11^7"),
    ("\tx11\n+\nx22", 2, "x11 + x22"),
    ("x11", 1, "x11"),
    ("x[1,1]", 1, "x11"),
    ("x[1, 12]^2 - 3", 12, "x[1,12]^2 - 3"),
])
def test_parse_grammar_corners(text, n, expected):
    # spacing inside tokens, repeated and zero powers, factors in any order,
    # leading zeros and cancellation, each read as one canonical polynomial;
    # a coefficient is a Fraction exactly when a denominator remains
    p = parse_poly(text, n)
    assert format_poly(p) == expected
    assert parse_poly(expected, n) == p
    assert all((type(c) is Fraction) == ("/" in expected) for c in p.terms.values())


def test_bracketed_form_for_large_n():
    p = parse_poly("x[10,3]^2 - 2*x[1,12]", 12)
    assert format_poly(p) == "x[10,3]^2 - 2*x[1,12]"
    # compact form is rejected once indices become ambiguous
    with pytest.raises(PolyParseError):
        parse_poly("x11", 12)
    # bracketed form is accepted for small n too
    assert parse_poly("x[1,2]", 2) == parse_poly("x12", 2)


def test_roundtrip_randomized():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        p = random_poly(rng, n)
        assert parse_poly(format_poly(p), n) == p


def test_format_canonical_order():
    assert format_poly(parse_poly("x22 + x11^2 - x12*x21", 2)) == "x11^2 - x12*x21 + x22"


def test_partial_derivative():
    p = parse_poly("x11^3*x12 + 2*x12", 2)
    assert p.partial(0) == parse_poly("3*x11^2*x12", 2)
    assert p.partial(1) == parse_poly("x11^3 + 2", 2)
    assert p.partial(3).is_zero()


def test_power():
    x = parse_poly("x11 + 1", 2)
    assert x ** 0 == Polynomial.constant(4, 1)
    assert x ** 3 == x * x * x


def test_integral_coefficients_are_stored_as_int():
    m = Monomial([(1, 2), (3, 1)])
    p = Polynomial(4, {m: Fraction(6, 2)})
    assert type(p.terms[m]) is int and p.terms[m] == 3
    q = Polynomial(4, {m: 3})
    assert p == q and hash(p) == hash(q)
    # a Fraction that becomes integral in arithmetic is lowered to an int
    half = Polynomial(4, {m: Fraction(1, 2)})
    for r in (half + half, half.scale(2), half * Polynomial.constant(4, 2),
              Polynomial(4, {Monomial([(1, 2)]): Fraction(1, 2)}).partial(1)):
        assert all(type(c) is int for c in r.terms.values())


def test_fraction_coefficient_kept_and_roundtrips():
    text = "3*x12^2*x21 - 1/2*x11"
    p = parse_poly(text, 3)
    cubic, = parse_poly("x12^2*x21", 3).terms
    linear, = parse_poly("x11", 3).terms
    assert type(p.terms[cubic]) is int and p.terms[cubic] == 3
    assert type(p.terms[linear]) is Fraction and p.terms[linear] == Fraction(-1, 2)
    assert format_poly(p) == text
    assert parse_poly(format_poly(p), 3) == p


def test_bracket_keeps_integer_coefficients():
    from specball.adjointfields import bracket, generator_field, generator_ids, scale_field
    from specball.liegen import build_seeds

    def int_coefficients(v):
        return all(type(c) is int
                   for comp in v.components.values() for c in comp.terms.values())

    for n in (2, 3):
        fields = [generator_field(n, g) for g in generator_ids(n)]
        for x, y in itertools.product(fields, repeat=2):
            assert int_coefficients(bracket(x, y))
    # every seed field, each bracketed with the next one in the seed list
    seed_fields = [scale_field(s.coefficient, generator_field(3, s.generator))
                   for s in build_seeds(3)]
    products = [bracket(x, y) for x, y in itertools.pairwise(seed_fields)]
    assert sum(not w.is_zero() for w in products) > len(products) // 2
    assert all(int_coefficients(w) for w in products)


def _random_pairs(rng, nvars, max_vars=4, max_exp=5):
    """Unsorted (variable, exponent) pairs with distinct variables, zeros included."""
    variables = rng.sample(range(nvars), rng.randrange(max_vars + 1))
    return [(v, rng.randrange(max_exp + 1)) for v in variables]


def test_monomial_is_its_sorted_pair_tuple():
    # a monomial equals and hashes as the tuple of its sorted pairs with
    # positive exponents; the accessors read the same pairs
    rng = random.Random(11)
    nvars = 9
    for _ in range(300):
        pairs = _random_pairs(rng, nvars)
        ref = tuple(sorted((v, e) for v, e in pairs if e))
        mono = Monomial(pairs)
        assert isinstance(mono, tuple)
        assert mono == ref and hash(mono) == hash(ref)
        assert mono == Monomial(reversed(pairs)) and hash(mono) == hash(Monomial(reversed(pairs)))
        assert mono.powers == ref
        assert mono.degree == sum(e for _, e in ref)
        dense = [0] * nvars
        for v, e in ref:
            dense[v] = e
        assert mono.dense(nvars) == tuple(dense)
        assert all(mono.exponent(v) == dense[v] for v in range(nvars))
        assert mono.sort_key(nvars) == (sum(dense), tuple(dense))
        assert repr(mono) == f"Monomial({ref!r})"
    assert Monomial() == Monomial.one() == () and Monomial.one().degree == 0
    assert Monomial.variable(4) == ((4, 1),)


def test_unchecked_monomials_equal_the_checked_constructor():
    # products and partial derivatives wrap their pairs without the checks
    # of Monomial(): each must be exactly what the checked constructor builds
    rng = random.Random(12)
    nvars = 9
    for _ in range(200):
        m1, m2 = Monomial(_random_pairs(rng, nvars)), Monomial(_random_pairs(rng, nvars))
        product = m1 * m2
        dense = [a + b for a, b in zip(m1.dense(nvars), m2.dense(nvars))]
        checked = Monomial(enumerate(dense))
        assert type(product) is Monomial
        assert product == checked and tuple(product) == tuple(checked)
        assert product.degree == m1.degree + m2.degree
    for _ in range(40):
        p = random_poly(rng, 3, max_degree=6)
        for dp in (p.partial(v) for v in range(p.nvars)):
            for mono in dp.terms:
                assert type(mono) is Monomial
                assert tuple(mono) == tuple(Monomial(mono.powers))
                assert all(e > 0 for _, e in mono.powers)


def test_monomial_is_immutable_and_checked():
    mono = Monomial([(2, 1), (0, 3)])
    for name in ("powers", "degree", "other"):
        with pytest.raises(AttributeError):
            setattr(mono, name, ())
    with pytest.raises(ValueError, match="negative exponent"):
        Monomial([(1, 2), (3, -1)])
    # a repeated variable would read degree 3 but exponent 1, and print as
    # x11*x11^2, which parses back to another polynomial
    with pytest.raises(ValueError, match="variable 0 repeated"):
        Monomial([(0, 1), (0, 2)])
    assert Monomial([(1, 0), (3, 2), (0, 0)]) == ((3, 2),)
    assert Monomial([(0, 0)]) == Monomial.one()
