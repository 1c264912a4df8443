"""Exact sparse multivariate polynomials over the rationals.

The coordinate ring is C[x_11, ..., x_nn] for an n x n matrix of
indeterminates.  Variables are addressed either as 1-based (row, col)
pairs or as flat indices (row-1)*n + (col-1).  All arithmetic is exact:
a coefficient is stored as an `int` when it is integral and as a
`fractions.Fraction` only when a denominator remains, so fields with
integer coefficients never build a `Fraction`.  The two types compare and
hash equal, so equality does not depend on which one a term holds.  Values
are immutable after construction and safe to share.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import comb, isqrt
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


class Monomial:
    """A power product, stored sparsely as sorted (variable, exponent) pairs."""

    __slots__ = ("powers", "degree", "_hash")

    def __init__(self, powers: Iterable[tuple[int, int]] = ()):
        items = tuple(sorted((v, e) for v, e in powers if e != 0))
        for v, e in items:
            if e < 0:
                raise ValueError("negative exponent in monomial")
        object.__setattr__(self, "powers", items)
        object.__setattr__(self, "degree", sum(e for _, e in items))
        object.__setattr__(self, "_hash", hash(items))

    def __setattr__(self, *args):
        raise AttributeError("Monomial is immutable")

    @classmethod
    def _of(cls, powers: tuple[tuple[int, int], ...], degree: int) -> "Monomial":
        """Wrap sorted (variable, exponent) pairs with positive exponents
        summing to degree, skipping the checks of __init__."""
        mono = object.__new__(cls)
        _SET_POWERS(mono, powers)
        _SET_DEGREE(mono, degree)
        _SET_HASH(mono, hash(powers))
        return mono

    @staticmethod
    def one() -> "Monomial":
        return _MONOMIAL_ONE

    @staticmethod
    def variable(flat: int) -> "Monomial":
        return Monomial(((flat, 1),))

    def exponent(self, flat: int) -> int:
        for v, e in self.powers:
            if v == flat:
                return e
        return 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not other.powers:
            return self
        if not self.powers:
            return other
        d = dict(self.powers)
        for v, e in other.powers:
            d[v] = d.get(v, 0) + e
        return Monomial._of(tuple(sorted(d.items())), self.degree + other.degree)

    def dense(self, nvars: int) -> tuple[int, ...]:
        out = [0] * nvars
        for v, e in self.powers:
            out[v] = e
        return tuple(out)

    def sort_key(self, nvars: int) -> tuple:
        # graded lexicographic on flat variable index
        return (self.degree, self.dense(nvars))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.powers == other.powers

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Monomial({self.powers!r})"


_SET_POWERS = Monomial.powers.__set__
_SET_DEGREE = Monomial.degree.__set__
_SET_HASH = Monomial._hash.__set__
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

    @staticmethod
    def sum_of_products(nvars: int, pairs: Iterable[tuple["Polynomial", "Polynomial"]]
                        ) -> "Polynomial":
        """The sum of p * q over the (p, q) pairs, accumulated in one term dict."""
        out: dict[Monomial, int | Fraction] = {}
        for p, q in pairs:
            if p.nvars != nvars or q.nvars != nvars:
                raise DimensionMismatch(
                    f"rings differ: {p.nvars} and {q.nvars} vs {nvars} variables")
            for m1, c1 in p.terms.items():
                for m2, c2 in q.terms.items():
                    m = m1 * m2
                    s = out.get(m, 0) + c1 * c2
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return Polynomial._of(nvars, out)

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
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                del out[m]
        return Polynomial._of(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial.sum_of_products(self.nvars, ((self, other),))
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
        """Exact partial derivative with respect to one variable."""
        return self.gradient().get(flat) or Polynomial.zero(self.nvars)

    def gradient(self) -> dict[int, "Polynomial"]:
        """The nonzero partial derivatives by variable, in one pass over the terms."""
        # dividing by x_v is injective on the monomials it divides, so no two
        # terms of one derivative share a monomial
        grads: dict[int, dict[Monomial, int | Fraction]] = {}
        for mono, c in self.terms.items():
            powers = mono.powers
            for i, (v, e) in enumerate(powers):
                if e > 1:
                    lowered = powers[:i] + ((v, e - 1),) + powers[i + 1:]
                else:
                    lowered = powers[:i] + powers[i + 1:]
                grads.setdefault(v, {})[Monomial._of(lowered, mono.degree - 1)] = c * e
        return {v: Polynomial._of(self.nvars, terms) for v, terms in grads.items()}

    def substitute(self, flat: int, replacement: "Polynomial") -> "Polynomial":
        """Replace one variable by a polynomial, exactly."""
        self._check(replacement)
        result = Polynomial.zero(self.nvars)
        powers_cache: dict[int, Polynomial] = {0: Polynomial.constant(self.nvars, 1)}
        for mono, c in self.terms.items():
            e = mono.exponent(flat)
            rest = Monomial([(v, ex) for v, ex in mono.powers if v != flat])
            if e not in powers_cache:
                powers_cache[e] = replacement ** e
            result = result + powers_cache[e] * Polynomial(self.nvars, {rest: c})
        return result

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


# ---------------------------------------------------------------------------
# homogeneous slices


def slice_monomials(nvars: int, m: int) -> Iterator[Monomial]:
    """All degree-m monomials in nvars variables, graded-lex order."""
    for combo in itertools.combinations_with_replacement(range(nvars), m):
        counts: dict[int, int] = {}
        for v in combo:
            counts[v] = counts.get(v, 0) + 1
        yield Monomial(counts.items())


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

    def size(self) -> int:
        return comb(self.nvars + self.m - 1, self.m) if self.m >= 0 else 0


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

_TOKEN_VAR_COMPACT = re.compile(r"x(\d)(\d)")
_TOKEN_VAR_BRACKET = re.compile(r"x\[\s*(\d+)\s*,\s*(\d+)\s*\]")
_TOKEN_NUMBER = re.compile(r"(\d+)(?:\s*/\s*(\d+))?")


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


def parse_poly(text: str, n: int) -> Polynomial:
    """Parse the external polynomial grammar into an exact polynomial.

    Terms are joined by + or -; a term is an optional rational coefficient
    and *-separated variable powers xKL^e (compact, n <= 9) or x[k,l]^e
    (required once n >= 10).  Whitespace is insignificant.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    nvars = n * n
    s = text
    pos = 0
    terms: dict[Monomial, int | Fraction] = {}

    def skip_ws(i):
        while i < len(s) and s[i].isspace():
            i += 1
        return i

    pos = skip_ws(pos)
    if pos == len(s):
        raise PolyParseError("empty input", pos)

    first = True
    while pos < len(s):
        pos = skip_ws(pos)
        coeff: int | Fraction = 1
        if pos < len(s) and s[pos] in "+-":
            coeff = -1 if s[pos] == "-" else 1
            pos = skip_ws(pos + 1)
        elif not first:
            raise PolyParseError("expected '+' or '-' between terms", pos)
        first = False

        powers: dict[int, int] = {}
        while True:
            pos = skip_ws(pos)
            if pos < len(s) and s[pos] == "x":
                mb = _TOKEN_VAR_BRACKET.match(s, pos)
                if mb:
                    r, c = int(mb.group(1)), int(mb.group(2))
                    pos = mb.end()
                else:
                    if n >= 10:
                        raise PolyParseError(
                            "compact xKL form is ambiguous for n >= 10; use x[k,l]", pos)
                    mc = _TOKEN_VAR_COMPACT.match(s, pos)
                    if not mc:
                        raise PolyParseError("malformed variable", pos)
                    r, c = int(mc.group(1)), int(mc.group(2))
                    pos = mc.end()
                if not (1 <= r <= n and 1 <= c <= n):
                    raise PolyParseError(f"variable index x[{r},{c}] out of 1..{n}", pos)
                e = 1
                pos = skip_ws(pos)
                if pos < len(s) and s[pos] == "^":
                    pos = skip_ws(pos + 1)
                    mnum = _TOKEN_NUMBER.match(s, pos)
                    if not mnum or mnum.group(2):
                        raise PolyParseError("expected integer exponent", pos)
                    e = int(mnum.group(1))
                    pos = mnum.end()
                v = flat_index(r, c, n)
                powers[v] = powers.get(v, 0) + e
            else:
                mnum = _TOKEN_NUMBER.match(s, pos)
                if not mnum:
                    raise PolyParseError("expected coefficient or variable", pos)
                coeff *= int(mnum.group(1))
                if mnum.group(2):
                    den = int(mnum.group(2))
                    if den == 0:
                        raise PolyParseError("zero denominator", pos)
                    coeff = Fraction(coeff, den)
                pos = mnum.end()
            pos = skip_ws(pos)
            if pos < len(s) and s[pos] == "*":
                pos += 1
                continue
            break
        mono = Monomial(powers.items())
        terms[mono] = terms.get(mono, 0) + coeff
        pos = skip_ws(pos)
    return Polynomial(nvars, terms)
