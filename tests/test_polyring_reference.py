"""Differential test of the packed polynomial and field kernels against a
dense reference written here: a polynomial is a dict from exponent tuples
(one entry per variable) to coefficients, in insertion order, and every
operation follows its definition term by term in the order the kernels
document.  The packed results must equal the reference in value, in the
type of each stored coefficient (int exactly when integral) and in the
order of their term dicts, and every packed key must be the documented
layout: the exponent of x_v in bits [64v, 64v + 64).  A field's components
come in increasing variable order."""

import random
from fractions import Fraction

import pytest

from specball.adjointfields import VectorField, bracket, scale_field
from specball.polyring import ExponentOverflow, Monomial, Polynomial, format_poly, parse_poly

LIMIT = 2 ** 63 - 1
BIG = (2 ** 62, 2 ** 62 - 1, 2 ** 61 + 5)
COEFFS = (1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))


class Overflow(Exception):
    """The reference met an exponent above LIMIT."""


def add_into(out, key, c):
    if max(key) > LIMIT:
        raise Overflow
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    else:
        del out[key]


def shifted(key, v, by):
    return key[:v] + (key[v] + by,) + key[v + 1:]


def ref_mul(p, q):
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            add_into(out, tuple(a + b for a, b in zip(k1, k2)), c1 * c2)
    return out


def ref_merge(p, q, sign):
    out = dict(p)
    for k, c in q.items():
        add_into(out, k, sign * c)
    return out


def ref_partial(p, v):
    return {shifted(k, v, -1): c * k[v] for k, c in p.items() if k[v]}


def ref_pow(r, e, nvars):
    # the square-and-multiply order of Polynomial.__pow__
    result, base = {(0,) * nvars: 1}, r
    while e:
        if e & 1:
            result = ref_mul(result, base)
        base = ref_mul(base, base) if e > 1 else base
        e >>= 1
    return result


def ref_substitute(p, v, r, nvars):
    powers, out = {}, {}
    for k, c in p.items():
        if k[v] not in powers:
            powers[k[v]] = ref_pow(r, k[v], nvars)
        rest = shifted(k, v, -k[v])
        for k2, c2 in powers[k[v]].items():
            add_into(out, tuple(a + b for a, b in zip(rest, k2)), c * c2)
    return out


def ref_derive(out, field, p, sign):
    """out += sign * sum_u field[u] * dp/dx_u, term by term, variables of
    each term in increasing index."""
    for k, c in p.items():
        for u, e in enumerate(k):
            if e and u in field:
                rest = shifted(k, u, -1)
                for k2, c2 in field[u].items():
                    add_into(out, tuple(a + b for a, b in zip(rest, k2)), sign * e * c * c2)
    return out


def ref_bracket(v, w):
    sums = {}
    for var, p in v.items():
        ref_derive(sums.setdefault(var, {}), w, p, 1)
    for var, p in w.items():
        ref_derive(sums.setdefault(var, {}), v, p, -1)
    return {var: sums[var] for var in sorted(sums) if sums[var]}


def ref_scale_field(p, v):
    return {var: t for var, comp in sorted(v.items()) if (t := ref_mul(p, comp))}


def ref_sorted(p):
    return dict(sorted(p.items(), key=lambda kc: (sum(kc[0]), kc[0]), reverse=True))


def ref_format(p, n):
    if not p:
        return "0"
    pieces = []
    for k, c in ref_sorted(p).items():
        c = normal(c)
        factors = [f"x{v // n + 1}{v % n + 1}" + (f"^{e}" if e > 1 else "")
                   for v, e in enumerate(k) if e]
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        pieces.append(("-" if c < 0 else "+") + body)
    text = pieces[0].lstrip("+")
    for piece in pieces[1:]:
        text += f" {piece[0]} {piece[1:]}"
    return text


def normal(c):
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def packed(p, nvars):
    return Polynomial(nvars, {Monomial(enumerate(k)): c for k, c in p.items()})


def packed_field(f, n):
    return VectorField(n, {var: packed(p, n * n) for var, p in f.items()})


def assert_same(P, R):
    R = {k: normal(c) for k, c in R.items()}
    assert all(type(m) is Monomial for m in P.terms)
    assert [int(m) for m in P.terms] == [sum(e << 64 * v for v, e in enumerate(k)) for k in R]
    assert [m.powers for m in P.terms] == [tuple((v, e) for v, e in enumerate(k) if e) for k in R]
    assert list(P.terms.values()) == list(R.values())
    assert [type(c) for c in P.terms.values()] == [type(c) for c in R.values()]


def assert_same_field(F, R):
    assert list(F.components) == list(R)
    for var, p in R.items():
        assert_same(F.components[var], p)


def random_poly(rng, nvars, big=False, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        k = [0] * nvars
        for _ in range(rng.randrange(4)):
            k[rng.randrange(nvars)] += 1
        if big and rng.random() < 0.7:
            k[rng.randrange(nvars)] = rng.choice(BIG)
        key = tuple(k)
        terms[key] = terms.get(key, 0) + rng.choice(COEFFS)
    return {k: c for k, c in terms.items() if c}


def random_field(rng, n, big=False):
    variables = rng.sample(range(n * n), rng.randrange(1, n * n + 1))
    return {v: p for v in variables if (p := random_poly(rng, n * n, big, max_terms=3))}


def compare(ref, op, same):
    """Run ref() and op(): either both meet an exponent above the limit, or
    same(op(), ref()) holds.  Returns whether they met one."""
    try:
        want = ref()
    except Overflow:
        with pytest.raises(ExponentOverflow):
            op()
        return True
    same(op(), want)
    return False


@pytest.mark.parametrize("n", [2, 3])
def test_kernels_equal_the_dense_reference(n):
    rng = random.Random(40 + n)
    nvars = n * n
    overflows = cases = 0
    for trial in range(150):
        big = trial % 2 == 0
        p, q = random_poly(rng, nvars, big), random_poly(rng, nvars, big)
        # an exact cancellation in the sum and the difference
        q.update({k: -c for k, c in list(p.items())[:2]})
        q = {k: c for k, c in q.items() if c}
        P, Q = packed(p, nvars), packed(q, nvars)
        assert_same(P, p)
        assert_same(P + Q, ref_merge(p, q, 1))
        assert_same(P - Q, ref_merge(p, q, -1))
        assert_same(P - P, {})
        for v in range(nvars):
            assert_same(P.partial(v), ref_partial(p, v))
        text = format_poly(P)
        assert text == ref_format(p, n)
        assert_same(parse_poly(text, n), ref_sorted(p))
        # substitution raises a small-exponent variable to its power
        small = {k: c for k, c in p.items() if max(k) <= 3}
        r, v = random_poly(rng, nvars, max_terms=3), rng.randrange(nvars)
        f, g = random_field(rng, n, big), random_field(rng, n, big)
        Fv, Gv = packed_field(f, n), packed_field(g, n)
        for ref, op, same in (
                (lambda: ref_mul(p, q), lambda: P * Q, assert_same),
                (lambda: ref_substitute(small, v, r, nvars),
                 lambda: packed(small, nvars).substitute(v, packed(r, nvars)), assert_same),
                (lambda: ref_derive({}, f, p, 1), lambda: Fv.apply(P), assert_same),
                (lambda: ref_bracket(f, g), lambda: bracket(Fv, Gv), assert_same_field),
                (lambda: ref_scale_field(p, f), lambda: scale_field(P, Fv), assert_same_field)):
            overflows += compare(ref, op, same)
            cases += 1
    # both sides of the exponent limit were exercised
    assert overflows >= 20 and cases - overflows >= 500
