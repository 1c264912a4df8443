"""Exact sparse multivariate polynomials over the rationals.

The coordinate ring is C[x_11, ..., x_nn] for an n x n matrix of
indeterminates.  Variables are addressed either as 1-based (row, col)
pairs or as flat indices (row-1)*n + (col-1).  All arithmetic is exact:
a coefficient is stored as an `int` when it is integral and as a
`fractions.Fraction` only when a denominator remains, so fields with
integer coefficients never build a `Fraction`.  The two types compare and
hash equal, so equality does not depend on which one a term holds.  A term
is keyed by its `Monomial`, an int that packs the exponent of x_v into
bits [64v, 64v + 64), so a product of monomials is one integer addition.
Values are immutable after construction and safe to share.
"""

from __future__ import annotations

import itertools
import re
import threading
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


class ExponentOverflow(ValueError):
    """An exponent of a monomial reached 2^63, the limit of its packed field."""


# A monomial's exponent of x_v fills bits [64v, 64v + 64) of one int.  Bit 63
# of each field is a guard that stays 0, so an exponent is at most
# MAX_EXPONENT and the sum of two fields never carries into the next one: a
# product is one addition, and a guard bit set in the sum is an overflow.
MAX_EXPONENT = (1 << 63) - 1
_FIELD = (1 << 64) - 1
# the guard bits of the fields of every variable a monomial was built on;
# products and derivatives never set a field outside them
_GUARD = 0
_GUARD_LOCK = threading.Lock()


def _cover(nvars: int):
    """Widen `_GUARD` to the fields of the variables 0..nvars-1.  It only
    ever widens, under a lock, so every guard a kernel has read covers each
    monomial that existed when it read it."""
    global _GUARD
    if _GUARD.bit_length() < 64 * nvars:
        with _GUARD_LOCK:
            if _GUARD.bit_length() < 64 * nvars:
                _GUARD = (1 << 64 * nvars) // _FIELD << 63


def _overflow(m: int) -> ExponentOverflow:
    v = ((m & _GUARD).bit_length() - 1) >> 6
    return ExponentOverflow(f"exponent of variable {v} reaches 2^63 in a product "
                            f"(the limit is 2^63 - 1)")


class Monomial(int):
    """A power product, packed: the exponent of x_v in bits [64v, 64v + 64)
    of a non-negative int, each exponent at most MAX_EXPONENT.  It hashes
    and compares as that int.  `Monomial(pairs)` takes (variable, exponent)
    pairs in any order, drops zero exponents and refuses a negative variable
    or exponent, a repeated variable and an exponent above MAX_EXPONENT
    (`ExponentOverflow`); the kernels below wrap sums and differences of
    monomials with `int.__new__`."""

    __slots__ = ()

    def __new__(cls, powers: Iterable[tuple[int, int]] = ()):
        m = top = 0
        for v, e in powers:
            if not e:
                continue
            if e < 0:
                raise ValueError("negative exponent in monomial")
            if v < 0:
                raise ValueError(f"negative variable {v} in monomial")
            if e > MAX_EXPONENT:
                raise ExponentOverflow(f"exponent {e} of variable {v} is above the limit 2^63 - 1")
            if m >> (v << 6) & _FIELD:
                raise ValueError(f"variable {v} repeated in monomial")
            m |= e << (v << 6)
            top = max(top, v + 1)
        _cover(top)
        return int.__new__(cls, m)

    def __getnewargs__(self):
        return (self.powers,)

    @property
    def powers(self) -> tuple[tuple[int, int], ...]:
        """The (variable, exponent) pairs with positive exponents, sorted,
        read off the set fields only, from the highest."""
        out, m = (), self
        while m:
            shift = (m.bit_length() - 1) & -64
            e = m >> shift
            out = ((shift >> 6, e),) + out
            m ^= e << shift
        return out

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.powers)

    @staticmethod
    def one() -> "Monomial":
        return _MONOMIAL_ONE

    @staticmethod
    def variable(flat: int) -> "Monomial":
        return Monomial(((flat, 1),))

    def exponent(self, flat: int) -> int:
        return self >> (flat << 6) & _FIELD

    def __mul__(self, other: "Monomial") -> "Monomial":
        m = self + other
        if m & _GUARD:
            raise _overflow(m)
        return int.__new__(Monomial, m)

    def dense(self, nvars: int) -> tuple[int, ...]:
        if self >> (nvars << 6):
            raise IndexError(f"monomial has a variable outside 0..{nvars - 1}")
        return tuple([self >> (v << 6) & _FIELD for v in range(nvars)])

    def sort_key(self, nvars: int) -> tuple:
        # graded lexicographic on flat variable index
        dense = self.dense(nvars)
        return (sum(dense), dense)

    def __repr__(self):
        return f"Monomial({self.powers!r})"


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
            return Polynomial._of(self.nvars, add_multiples(
                {}, [(m, c, other.terms) for m, c in self.terms.items()]))
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
        shift = flat << 6
        unit = 1 << shift
        out: dict[Monomial, int | Fraction] = {}
        for mono, c in self.terms.items():
            if e := mono >> shift & _FIELD:
                out[int.__new__(Monomial, mono - unit)] = c * e
        return Polynomial._of(self.nvars, out)

    def substitute(self, flat: int, replacement: "Polynomial") -> "Polynomial":
        """Replace one variable by a polynomial, exactly."""
        self._check(replacement)
        shift = flat << 6
        powers: dict[int, dict] = {}
        multiples = []
        for mono, c in self.terms.items():
            e = mono >> shift & _FIELD
            if e not in powers:
                powers[e] = (replacement ** e).terms
            multiples.append((mono - (e << shift), c, powers[e]))
        return Polynomial._of(self.nvars, add_multiples({}, multiples))

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


def add_multiples(out: dict, multiples: Iterable[tuple[int, int | Fraction, dict]],
                  monomials: bool = True) -> dict:
    """Add c * x^m * q, for each (m, c, q) in `multiples`, c != 0 and q a
    zero-free term dict, into the term dict `out` in place, dropping every
    monomial that cancels; returns `out`.  The one product kernel: a product
    of monomials is the sum of their keys (m may be a plain int), one guard
    test, and a new key enters `out` as a `Monomial` when the caller builds
    a polynomial (`monomials`; q's own key when m is 1) and as that plain
    int sum otherwise (a vector field's flat keys)."""
    get, guard, new = out.get, _GUARD, int.__new__
    for m1, c1, other in multiples:
        for m2, c2 in other.items():
            m = m1 + m2
            if m & guard:
                raise _overflow(m)
            c = get(m)
            if c is None:
                out[(new(Monomial, m) if m1 else m2) if monomials else m] = c1 * c2
            elif s := c + c1 * c2:
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
    _cover(nvars)
    units = [1 << (v << 6) for v in range(nvars)]
    for combo in itertools.combinations_with_replacement(units, m):
        yield int.__new__(Monomial, sum(combo))


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
  | (?P<compact>x(?P<digits>\d\d))
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
        for v, e in mono.powers:
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
    than `int` converts (sys.get_int_max_str_digits) is refused at its token,
    and so is an exponent that makes a variable's power in its term exceed
    MAX_EXPONENT = 2^63 - 1.  Each term's packed `Monomial` is built as its
    variables are read: a power adds its exponent into the variable's field.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    match = _TOKEN.match
    tok = match(text)
    if tok.lastgroup == "end":
        raise PolyParseError("empty input", tok.end())
    terms: dict[Monomial, int | Fraction] = {}
    used = 0    # the fields set in any term
    while tok.lastgroup != "end":
        coeff: int | Fraction = 1
        if tok.lastgroup == "sign":
            coeff = -1 if tok["sign"] == "-" else 1
            tok = match(text, tok.end())
        elif terms:  # only the first term may omit its sign
            raise PolyParseError("expected '+' or '-' between terms", tok.start(tok.lastgroup))
        mono = 0
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
                    r, c = divmod(int(tok["digits"]), 10)
                elif kind == "bare":
                    raise PolyParseError("malformed variable", tok.start(kind))
                else:
                    raise PolyParseError("expected coefficient or variable", tok.start(kind))
                if not (1 <= r <= n and 1 <= c <= n):
                    raise PolyParseError(f"variable index x[{r},{c}] out of 1..{n}", tok.end())
                shift = ((r - 1) * n + c - 1) << 6
                at = tok.start(kind)
                tok = match(text, tok.end())
                e = 1
                if tok.lastgroup == "caret":
                    tok = match(text, tok.end())
                    if tok.lastgroup != "number" or tok["denominator"]:
                        raise PolyParseError("expected integer exponent", tok.start(tok.lastgroup))
                    e, at = _int(tok, "numerator"), tok.start("number")
                    tok = match(text, tok.end())
                total = e + (mono >> shift & _FIELD)
                if total > MAX_EXPONENT:
                    raise PolyParseError(f"exponent {total} of {var_name(shift >> 6, n)} "
                                         f"is above 2^63 - 1", at)
                mono += e << shift
            if tok.lastgroup != "times":
                break
            tok = match(text, tok.end())
        prev = terms.get(mono)
        if prev is None:
            terms[int.__new__(Monomial, mono)] = coeff
            used |= mono
        else:
            terms[mono] = prev + coeff
    # the guard widens to the fields the terms use, not to all n*n of them,
    # which would be an int of 64 n^2 bits for a large n
    _cover((used.bit_length() + 63) >> 6)
    if not all(terms.values()):
        terms = {m: c for m, c in terms.items() if c}
    return Polynomial._of(n * n, terms)
