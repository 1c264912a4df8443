"""Exact sparse multivariate polynomials over the rationals.

The coordinate ring is C[x_11, ..., x_nn] for an n x n matrix of
indeterminates.  Variables are addressed either as 1-based (row, col)
pairs or as flat indices (row-1)*n + (col-1).  All arithmetic is exact:
a coefficient is stored as an `int` when it is integral and as a
`fractions.Fraction` only when a denominator remains, so fields with
integer coefficients never build a `Fraction`.  The two types compare and
hash equal, so equality does not depend on which one a term holds.  A term
is keyed by its `Monomial`, a tuple subclass hashed and compared by
`tuple`.  Values are immutable after construction and safe to share.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import isqrt
from typing import Iterable, Iterator


class DimensionMismatch(ValueError):
    """Two operands live in coordinate rings of different sizes."""


class GradingError(ValueError):
    """A polynomial or field lies outside the homogeneous slice asked for."""


class PolyParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def flat_index(row: int, col: int, n: int) -> int:
    if not (1 <= row <= n and 1 <= col <= n):
        raise IndexError(f"variable x[{row},{col}] out of range for n={n}")
    return (row - 1) * n + (col - 1)


def row_col(flat: int, n: int) -> tuple[int, int]:
    return flat // n + 1, flat % n + 1


def var_name(flat: int, n: int) -> str:
    r, c = row_col(flat, n)
    if n <= 9:
        return f"x{r}{c}"
    return f"x[{r},{c}]"


def exact_coefficient(c) -> int | Fraction:
    """c as an int when it is integral, otherwise as a Fraction."""
    if type(c) is not int:
        c = Fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


def matrix_dim(nvars: int) -> int:
    """The n with n*n == nvars; raises if nvars is not a perfect square."""
    n = isqrt(nvars)
    if n * n != nvars:
        raise ValueError(f"ring with {nvars} variables is not a matrix coordinate ring")
    return n


class Monomial(tuple):
    """A power product: the tuple of its (variable, exponent) pairs, sorted,
    exponents positive.  `Monomial(pairs)` sorts, drops zero exponents and
    refuses a negative exponent or a repeated variable; products and
    derivatives wrap their canonical pairs with `tuple.__new__`."""

    __slots__ = ()

    def __new__(cls, powers: Iterable[tuple[int, int]] = ()):
        items = sorted((v, e) for v, e in powers if e != 0)
        for i, (v, e) in enumerate(items):
            if e < 0:
                raise ValueError("negative exponent in monomial")
            if i and v == items[i - 1][0]:
                raise ValueError(f"variable {v} repeated in monomial")
        return tuple.__new__(cls, items)

    @property
    def powers(self) -> tuple[tuple[int, int], ...]:
        """The sorted (variable, exponent) pairs: the monomial itself."""
        return self

    @property
    def degree(self) -> int:
        return sum(e for _, e in self)

    @staticmethod
    def one() -> "Monomial":
        return _MONOMIAL_ONE

    @staticmethod
    def variable(flat: int) -> "Monomial":
        return Monomial(((flat, 1),))

    def exponent(self, flat: int) -> int:
        for v, e in self:
            if v == flat:
                return e
        return 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not other:
            return self
        if not self:
            return other
        d = dict(self)
        for v, e in other:
            d[v] = d.get(v, 0) + e
        return tuple.__new__(Monomial, sorted(d.items()))

    def dense(self, nvars: int) -> tuple[int, ...]:
        out = [0] * nvars
        for v, e in self:
            out[v] = e
        return tuple(out)

    def sort_key(self, nvars: int) -> tuple:
        # graded lexicographic on flat variable index
        return (self.degree, self.dense(nvars))

    def __repr__(self):
        return f"Monomial({tuple(self)!r})"


_MONOMIAL_ONE = Monomial()


class Polynomial:
    """Sparse exact polynomial: a map Monomial -> coefficient without zeros.

    Each coefficient is an int when integral and a Fraction otherwise.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Monomial, int | Fraction] | None = None):
        clean = {}
        if terms:
            for m, c in terms.items():
                c = exact_coefficient(c)
                if c:
                    clean[m] = c
        _SET_NVARS(self, nvars)
        _SET_TERMS(self, clean)

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "Polynomial":
        """Wrap a zero-free term dict built by the arithmetic below, without
        copying it.  Only a Fraction can have become integral; it is lowered
        to an int here."""
        for m, c in terms.items():
            if type(c) is not int and c.denominator == 1:
                terms[m] = c.numerator
        p = object.__new__(cls)
        _SET_NVARS(p, nvars)
        _SET_TERMS(p, terms)
        return p

    def __setattr__(self, *args):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars)

    @staticmethod
    def constant(nvars: int, c) -> "Polynomial":
        return Polynomial(nvars, {Monomial.one(): c})

    @staticmethod
    def variable(nvars: int, flat: int) -> "Polynomial":
        if not (0 <= flat < nvars):
            raise IndexError(f"variable {flat} out of range")
        return Polynomial(nvars, {Monomial.variable(flat): 1})

    @staticmethod
    def x(row: int, col: int, n: int) -> "Polynomial":
        return Polynomial.variable(n * n, flat_index(row, col, n))

    @staticmethod
    def from_monomial(nvars: int, mono: Monomial, coeff=1) -> "Polynomial":
        return Polynomial(nvars, {mono: coeff})

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((m.degree for m in self.terms), default=-1)

    def is_homogeneous(self, m: int | None = None) -> bool:
        degs = {mono.degree for mono in self.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return m is None or degs == {m}

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise DimensionMismatch(
                f"rings differ: {self.nvars} vs {other.nvars} variables")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial._of(self.nvars, merge_terms(dict(self.terms), other.terms))

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial._of(self.nvars, merge_terms(dict(self.terms), other.terms, -1))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            return Polynomial._of(self.nvars, add_products({}, self.terms, other.terms))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        c = exact_coefficient(c)
        if not c:
            return Polynomial.zero(self.nvars)
        return Polynomial._of(self.nvars, {m: c * co for m, co in self.terms.items()})

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus ------------------------------------------------------

    def partial(self, flat: int) -> "Polynomial":
        """Exact partial derivative with respect to one variable: each term
        that holds x_flat, lowered by one in it."""
        # dividing by x_flat is injective on the monomials it divides, so no
        # two terms of the derivative share a monomial
        out: dict[Monomial, int | Fraction] = {}
        for mono, c in self.terms.items():
            for i, (v, e) in enumerate(mono):
                if v == flat:
                    rest = mono[:i] + ((v, e - 1),) * (e > 1) + mono[i + 1:]
                    out[tuple.__new__(Monomial, rest)] = c * e
                    break
        return Polynomial._of(self.nvars, out)

    def substitute(self, flat: int, replacement: "Polynomial") -> "Polynomial":
        """Replace one variable by a polynomial, exactly."""
        self._check(replacement)
        powers: dict[int, dict] = {}
        out: dict[Monomial, int | Fraction] = {}
        for mono, c in self.terms.items():
            e = mono.exponent(flat)
            if e not in powers:
                powers[e] = (replacement ** e).terms
            rest = Monomial([(v, ex) for v, ex in mono.powers if v != flat])
            add_products(out, {rest: c}, powers[e])
        return Polynomial._of(self.nvars, out)

    # -- printing ------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, int | Fraction]]:
        return sorted(self.terms.items(),
                      key=lambda kv: kv[0].sort_key(self.nvars), reverse=True)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Polynomial({format_poly(self)!r}, nvars={self.nvars})"


_SET_NVARS = Polynomial.nvars.__set__
_SET_TERMS = Polynomial.terms.__set__


def add_products(out: dict, terms: dict, other: dict) -> dict:
    """Add the product of the term dicts `terms` and `other` into the term
    dict `out` in place, dropping every monomial that cancels; returns `out`."""
    get = out.get
    for m1, c1 in terms.items():
        for m2, c2 in other.items():
            m = m1 * m2
            s = get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def merge_terms(out: dict, terms: dict, sign: int = 1) -> dict:
    """Add sign * `terms` (sign +1 or -1) into the term dict `out` in place,
    dropping every monomial that cancels; returns `out`."""
    get = out.get
    for m, c in terms.items():
        s = get(m, 0) + c if sign > 0 else get(m, 0) - c
        if s:
            out[m] = s
        else:
            del out[m]
    return out


# ---------------------------------------------------------------------------
# homogeneous slices


def slice_monomials(nvars: int, m: int) -> Iterator[Monomial]:
    """All degree-m monomials in nvars variables, graded-lex order."""
    for combo in itertools.combinations_with_replacement(range(nvars), m):
        # combo is sorted, so its runs are the canonical pairs
        yield tuple.__new__(Monomial, [(v, len(list(run))) for v, run in itertools.groupby(combo)])


class HomSliceBasis:
    """Ordered basis of the homogeneous polynomials of fixed total degree."""

    def __init__(self, nvars: int, m: int):
        if m < 0:
            raise ValueError("degree must be non-negative")
        self.nvars = nvars
        self.m = m
        self.monomials: list[Monomial] = list(slice_monomials(nvars, m))
        self.index: dict[Monomial, int] = {mo: i for i, mo in enumerate(self.monomials)}

    def __len__(self):
        return len(self.monomials)


def enumerate_slice(n: int, m: int) -> HomSliceBasis:
    """Basis of degree-m homogeneous polynomials in the n x n matrix entries."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return HomSliceBasis(n * n, m)


# ---------------------------------------------------------------------------
# trace substitution


def substitute_trace(p: Polynomial) -> Polynomial:
    """Eliminate x_nn via the trace relation x_nn = -(x_11 + ... + x_{n-1,n-1}).

    The result lives in the same ring but never mentions x_nn, so it can be
    read as an element of the coordinate ring of traceless matrices.  This is
    a ring homomorphism and idempotent.
    """
    n = matrix_dim(p.nvars)
    last = flat_index(n, n, n)
    replacement = Polynomial.zero(p.nvars)
    for a in range(1, n):
        replacement = replacement - Polynomial.x(a, a, n)
    return p.substitute(last, replacement)


# ---------------------------------------------------------------------------
# text format

# One token after optional whitespace; `lastgroup` names its kind.  `bad`
# matches the empty string, so every position yields a token.  ASCII: \d and
# \s take no other script's digits or spaces.
_TOKEN = re.compile(r"""\s*(?:
    (?P<number>(?P<numerator>\d+)(?:\s*/\s*(?P<denominator>\d+))?)
  | (?P<bracket>x\[\s*(?P<row>\d+)\s*,\s*(?P<col>\d+)\s*\])
  | (?P<compact>x(?P<crow>\d)(?P<ccol>\d))
  | (?P<bare>x)
  | (?P<sign>[-+]) | (?P<times>\*) | (?P<caret>\^)
  | (?P<end>\Z)
  | (?P<bad>))""", re.VERBOSE | re.ASCII)


def format_poly(p: Polynomial) -> str:
    """Canonical text form; parse(format(p)) == p."""
    if p.is_zero():
        return "0"
    n = matrix_dim(p.nvars)
    pieces = []
    for mono, coeff in p.sorted_terms():
        factors = []
        for v, e in sorted(mono.powers):
            name = var_name(v, n)
            factors.append(name if e == 1 else f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    out = body if sign == "+" else "-" + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def _int(tok: re.Match, group: str) -> int:
    """One digit group of a token as an int, or a PolyParseError at the group
    when it has more digits than `int` converts."""
    try:
        return int(tok[group])
    except ValueError:
        raise PolyParseError(f"number of {len(tok[group])} digits is too long",
                             tok.start(group)) from None


def parse_poly(text: str, n: int) -> Polynomial:
    """Parse the external polynomial grammar into an exact polynomial.

    Terms are joined by + or -; a term is an optional rational coefficient
    and *-separated variable powers xKL^e (compact, n <= 9) or x[k,l]^e
    (required once n >= 10).  Whitespace is insignificant.  The grammar is
    ASCII: digits are 0-9 and whitespace is ASCII whitespace.  A number longer
    than `int` converts (sys.get_int_max_str_digits) is refused at its token.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    match = _TOKEN.match
    tok = match(text)
    if tok.lastgroup == "end":
        raise PolyParseError("empty input", tok.end())
    terms: dict[Monomial, int | Fraction] = {}
    while tok.lastgroup != "end":
        coeff: int | Fraction = 1
        if tok.lastgroup == "sign":
            coeff = -1 if tok["sign"] == "-" else 1
            tok = match(text, tok.end())
        elif terms:  # only the first term may omit its sign
            raise PolyParseError("expected '+' or '-' between terms", tok.start(tok.lastgroup))
        powers: dict[int, int] = {}
        while True:
            kind = tok.lastgroup
            if kind == "number":
                coeff *= _int(tok, "numerator")
                if tok["denominator"]:
                    den = _int(tok, "denominator")
                    if den == 0:
                        raise PolyParseError("zero denominator", tok.start(kind))
                    coeff = Fraction(coeff, den)
                tok = match(text, tok.end())
            else:
                if kind == "bracket":
                    r, c = _int(tok, "row"), _int(tok, "col")
                elif kind in ("compact", "bare") and n >= 10:
                    raise PolyParseError(
                        "compact xKL form is ambiguous for n >= 10; use x[k,l]", tok.start(kind))
                elif kind == "compact":
                    r, c = int(tok["crow"]), int(tok["ccol"])
                elif kind == "bare":
                    raise PolyParseError("malformed variable", tok.start(kind))
                else:
                    raise PolyParseError("expected coefficient or variable", tok.start(kind))
                if not (1 <= r <= n and 1 <= c <= n):
                    raise PolyParseError(f"variable index x[{r},{c}] out of 1..{n}", tok.end())
                v = flat_index(r, c, n)
                tok = match(text, tok.end())
                e = 1
                if tok.lastgroup == "caret":
                    tok = match(text, tok.end())
                    if tok.lastgroup != "number" or tok["denominator"]:
                        raise PolyParseError("expected integer exponent", tok.start(tok.lastgroup))
                    e = _int(tok, "numerator")
                    tok = match(text, tok.end())
                powers[v] = powers.get(v, 0) + e
            if tok.lastgroup != "times":
                break
            tok = match(text, tok.end())
        mono = Monomial(powers.items())
        terms[mono] = terms[mono] + coeff if mono in terms else coeff
    return Polynomial._of(n * n, {m: c for m, c in terms.items() if c})
