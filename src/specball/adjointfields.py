"""Polynomial vector fields of the conjugation action on n x n matrices.

Each generator is the commutator field X -> BX - XB of an integer sl_n
matrix B, written down once, by `generator_matrix`: B = E_ab for
Theta(a, b), a != b, and B = H_a = E_aa - E_{a+1,a+1} for Xi(a).  The
field's d/dx_ij coefficient is sum_k (B_ik x_kj - x_ik B_kj); for Theta_ab
this is sum_k ( x_bk d/dx_ak - x_ka d/dx_kb ).

Bracket orientation: `bracket` is oriented so that the generator map
E_ab -> Theta_ab, H_a -> Xi_a is a Lie algebra homomorphism, i.e.
bracket(Theta_{a,a+1}, Theta_{a+1,a}) == Xi_a and, on coordinates,
bracket(v, w)(x) = w(v(x)) - v(w(x)).  This is the negative of the
operator-commutator orientation; spans and kernels are unaffected.

Storage: a field is one flat term dict, `VectorField.flat`, the term
c * x^m d/dx_v keyed by the plain int m + (v << 64 n^2): the packed
monomial m with the variable v above its n^2 fields.  Scaling, sums and
`bracket` are each one pass of the polyring kernels over it, and none of
them builds a `Monomial`; `components`, {v: Polynomial}, is a view built
on first use.
"""

from __future__ import annotations

import functools
from collections import Counter
from enum import Enum
from typing import NamedTuple

from .polyring import (
    DimensionMismatch,
    Monomial,
    Polynomial,
    add_multiples,
    exact_coefficient,
    flat_index,
    format_poly,
    merge_terms,
    var_name,
)


class InvalidGenerator(ValueError):
    pass


class Theta(NamedTuple):
    """Generator id for the field attached to the elementary matrix E_ab."""
    a: int
    b: int

    def label(self) -> str:
        return f"theta{self.a}{self.b}" if max(self.a, self.b) <= 9 else f"theta[{self.a},{self.b}]"


class Xi(NamedTuple):
    """Generator id for the hyperbolic (diagonal) field attached to H_a."""
    a: int

    def label(self) -> str:
        return f"xi{self.a}"


GeneratorId = Theta | Xi


def generator_ids(n: int) -> list[GeneratorId]:
    """The n^2 - 1 basis generators in canonical order."""
    thetas = [Theta(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    return thetas + [Xi(a) for a in range(1, n)]


class VectorField:
    """Polynomial derivation sum_v p_v d/dx_v, stored as one flat term dict:
    the term c * x^m d/dx_v is `flat[m + (v << 64 n^2)] = c`, a plain int
    key, the variable tag v packed above the n^2 exponent fields of the
    monomial m.  No term is zero, and each coefficient is an int when
    integral (the polyring convention).  `components`, {v: p_v} in
    increasing v with `Monomial` keys, is the public view, built from `flat`
    on first use."""

    __slots__ = ("n", "flat", "_components")

    def __init__(self, n: int, components: dict[int, Polynomial] | None = None):
        nvars = n * n
        flat, clean = {}, {}
        for v in sorted(components or ()):
            p = components[v]
            if p.nvars != nvars:
                raise DimensionMismatch("component ring does not match field dimension")
            if not 0 <= v < nvars:
                raise IndexError(f"component variable {v} out of range for n={n}")
            if p.terms:
                clean[v] = p
                tag = v << (nvars << 6)
                for m, c in p.terms.items():
                    flat[m + tag] = c
        _SET_N(self, n)
        _SET_FLAT(self, flat)
        _SET_COMPONENTS(self, clean)

    @classmethod
    def _of(cls, n: int, flat: dict) -> "VectorField":
        """Wrap a zero-free flat term dict built by the field arithmetic
        below, without copying it.  Only a Fraction can have become
        integral; it is lowered to an int here."""
        for k, c in flat.items():
            if type(c) is not int and c.denominator == 1:
                flat[k] = c.numerator
        f = object.__new__(cls)
        _SET_N(f, n)
        _SET_FLAT(f, flat)
        _SET_COMPONENTS(f, None)
        return f

    def __setattr__(self, *args):
        raise AttributeError("VectorField is immutable")

    @property
    def components(self) -> dict[int, Polynomial]:
        """{v: coefficient of d/dx_v}, nonzero ones in increasing v, read off
        `flat` in one pass the first time it is asked for.  Shared, so never
        mutated."""
        comps = self._components
        if comps is None:
            new = int.__new__
            comps = dict(sorted(self._grouped().items()))
            for p in comps.values():
                _SET_POLY_TERMS(p, {new(Monomial, m): c for m, c in p.terms.items()})
            _SET_COMPONENTS(self, comps)
        return comps

    def _grouped(self) -> dict[int, Polynomial]:
        """{v: p_v}: `flat` grouped by variable tag in one pass into term
        dicts keyed by the plain int monomial, each held as it is (`flat` is
        canonical) in a `Polynomial` for `add_derivation`, which reads only
        its terms; never handed out with these keys."""
        nvars = self.n * self.n
        shift = nvars << 6
        mask, new = (1 << shift) - 1, object.__new__
        groups: dict[int, dict] = {}
        for k, c in self.flat.items():
            terms = groups.get(v := k >> shift)
            if terms is None:
                terms = groups[v] = {}
            terms[k & mask] = c
        for v, terms in groups.items():
            p = groups[v] = new(Polynomial)
            _SET_POLY_NVARS(p, nvars)
            _SET_POLY_TERMS(p, terms)
        return groups

    @staticmethod
    def zero(n: int) -> "VectorField":
        return VectorField(n)

    def is_zero(self) -> bool:
        return not self.flat

    def component(self, row: int, col: int) -> Polynomial:
        return self.components.get(flat_index(row, col, self.n),
                                   Polynomial.zero(self.n * self.n))

    def _check(self, other: "VectorField"):
        if self.n != other.n:
            raise DimensionMismatch(f"fields on different rings: n={self.n} vs n={other.n}")

    def __add__(self, other: "VectorField") -> "VectorField":
        self._check(other)
        return VectorField._of(self.n, merge_terms(dict(self.flat), other.flat))

    def __neg__(self) -> "VectorField":
        return VectorField._of(self.n, {k: -c for k, c in self.flat.items()})

    def __sub__(self, other: "VectorField") -> "VectorField":
        self._check(other)
        return VectorField._of(self.n, merge_terms(dict(self.flat), other.flat, -1))

    def __rmul__(self, c) -> "VectorField":
        c = exact_coefficient(c)
        return VectorField._of(self.n, {k: c * co for k, co in self.flat.items()} if c else {})

    def __eq__(self, other):
        return isinstance(other, VectorField) and self.n == other.n and self.flat == other.flat

    def __hash__(self):
        return hash((self.n, frozenset(self.flat.items())))

    def apply(self, p: Polynomial) -> Polynomial:
        """Derivation action: sum of component * dp/dx over all coordinates,
        one call of `add_derivation`, the kernel `bracket` shares."""
        if p.nvars != self.n * self.n:
            raise DimensionMismatch("polynomial ring does not match field dimension")
        return Polynomial._of(p.nvars, add_derivation({}, self.components, p.terms))

    def __repr__(self):
        inner = ", ".join(
            f"{var_name(v, self.n)}: {format_poly(p)}" for v, p in self.components.items())
        return f"VectorField(n={self.n}, {{{inner}}})"


_SET_N = VectorField.n.__set__
_SET_FLAT = VectorField.flat.__set__
_SET_COMPONENTS = VectorField._components.__set__
_SET_POLY_NVARS = Polynomial.nvars.__set__
_SET_POLY_TERMS = Polynomial.terms.__set__


def add_derivation(out: dict, comps: dict[int, Polynomial], terms: dict,
                   sign: int = 1, mask: int = -1) -> dict:
    """Add sign * sum_u comps[u] * dp/dx_u, p the polynomial of the term dict
    `terms`, into the term dict `out` in place, dropping every monomial that
    cancels, and return it.  Term by term, each lowered only by the u in
    comps, with no Polynomial built on the way; only the terms of comps[u]
    are read, and their keys may be plain ints.  A key's bits above `mask`
    are a tag, not exponents: a field's `flat` keys carry their variable
    there, and each multiple keeps it, so a whole field is derived in one
    pass, into plain int keys; with no tag (`mask` -1) the new keys are
    `Monomial`s.  The one derivation kernel: the field arithmetic, the seeds
    and the overshear atoms apply a field through it."""
    multiples = []
    for key, c in terms.items():
        # the variables of the key's monomial from the last one, each
        # inserted before the ones after it, so the multiples of a term go in
        # increasing variable order
        k, m = len(multiples), key & mask
        while m:
            shift = (m.bit_length() - 1) & -64
            e = m >> shift
            m ^= e << shift
            if (u := shift >> 6) in comps:
                multiples.insert(k, (key - (1 << shift), sign * e * c, comps[u].terms))
    return add_multiples(out, multiples, mask < 0) if multiples else out


def generator_matrix(n: int, gid: GeneratorId) -> list[list[int]]:
    """The integer n x n matrix of a generator id: E_ab for Theta(a, b) with
    a != b in 1..n, and E_aa - E_{a+1,a+1} for Xi(a) with a in 1..n-1.  Any
    other id raises InvalidGenerator."""
    B = [[0] * n for _ in range(n)]
    if isinstance(gid, Theta) and gid.a != gid.b and 0 < gid.a <= n and 0 < gid.b <= n:
        B[gid.a - 1][gid.b - 1] = 1
    elif isinstance(gid, Xi) and 0 < gid.a < n:
        B[gid.a - 1][gid.a - 1], B[gid.a][gid.a] = 1, -1
    else:
        raise InvalidGenerator(f"{gid!r} is not a generator id for n={n}")
    return B


def commutator_field(B: list[list[int]]) -> VectorField:
    """The field X -> BX - XB of an n x n matrix B: its d/dx_ij coefficient
    is sum_k (B_ik x_kj - x_ik B_kj)."""
    n = len(B)
    comps = {}
    for i in range(n):
        for j in range(n):
            terms = Counter()
            for k in range(n):
                terms[Monomial.variable(k * n + j)] += B[i][k]
                terms[Monomial.variable(i * n + k)] -= B[k][j]
            comps[i * n + j] = Polynomial(n * n, terms)
    return VectorField(n, comps)


# typed: a plain tuple equals an id of the same fields but is no id
@functools.lru_cache(maxsize=None, typed=True)
def generator_components(n: int, gid: GeneratorId) -> dict[int, Polynomial]:
    """The one table of a generator's action: its components {v: sum_w k x_w},
    the coefficient of d/dx_v, in flat order of v, read off
    B = `generator_matrix(n, gid)` (an invalid id raises InvalidGenerator):
    each entry B_pq gives B_pq x_qj d/dx_pj and -B_pq x_jp d/dx_jq, and
    Xi_a's x_pp d/dx_pp cancel.  Shared, so never mutated.  Its oracle is
    `commutator_field`, which builds the field by its own formula."""
    B = generator_matrix(n, gid)
    comps: dict[int, dict] = {}
    for p in range(n):
        for q in range(n):
            if k := B[p][q]:
                for j in range(n):
                    for v, w, c in ((p * n + j, q * n + j, k), (j * n + q, j * n + p, -k)):
                        merge_terms(comps.setdefault(v, {}), {Monomial.variable(w): c})
    return {v: Polynomial._of(n * n, comps[v]) for v in sorted(comps) if comps[v]}


def make_theta(n: int, a: int, b: int) -> VectorField:
    """Theta_ab, the commutator field of E_ab (`generator_field`)."""
    return generator_field(n, Theta(a, b))


def make_xi(n: int, a: int) -> VectorField:
    """Xi_a, the commutator field of H_a = E_aa - E_{a+1,a+1} (`generator_field`)."""
    return generator_field(n, Xi(a))


# typed, as `generator_components`
@functools.lru_cache(maxsize=None, typed=True)
def generator_field(n: int, gid: GeneratorId) -> VectorField:
    """The field of a generator id, built once per (n, gid): its flat terms
    read off its table (`generator_components`), which is also its
    `components` view."""
    comps = generator_components(n, gid)
    field = VectorField(n, comps)
    _SET_COMPONENTS(field, comps)
    return field


def bracket(v: VectorField, w: VectorField) -> VectorField:
    """Lie bracket, oriented so bracket(Theta_{a,a+1}, Theta_{a+1,a}) = Xi_a.

    Componentwise: bracket(v, w)(x_kl) = w(v(x_kl)) - v(w(x_kl)).  Both
    halves are derived by `add_derivation`, the kernel of `VectorField.apply`,
    over the flat terms of one field with the other's components, keeping
    each term's variable tag, into one flat term dict: first w(v_x) over
    v.flat, then -v(w_x) over w.flat.  An operand's components are its
    `components` view when that exists (generator fields), and otherwise its
    flat terms grouped by tag with plain int keys, so no view is built and no
    key becomes a `Monomial`.  Bilinear, antisymmetric, satisfies
    Jacobi.  It must stay this derivation arithmetic and never use the
    Leibniz rule [fV, gW] = f V(g) W - g W(f) V + fg [V, W] or the structure
    constants: it is the independent check of `liegen._PairBrackets` and of
    the catalog's Leibniz identities.
    """
    v._check(w)
    mask = (1 << (v.n * v.n << 6)) - 1
    out = add_derivation({}, w._components or w._grouped(), v.flat, 1, mask)
    return VectorField._of(v.n, add_derivation(out, v._components or v._grouped(),
                                               w.flat, -1, mask))


def scale_field(p: Polynomial, v: VectorField) -> VectorField:
    """The field p * v: p times each component, all in one product pass over
    v's flat terms."""
    if p.nvars != v.n * v.n:
        raise DimensionMismatch("polynomial ring does not match field dimension")
    return VectorField._of(v.n, add_multiples({}, [(m, c, v.flat) for m, c in p.terms.items()],
                                              False))


class OvershearClass(Enum):
    SHEAR = "shear"
    OVERSHEAR = "overshear"
    NEITHER = "neither"


def overshear_class(f: Polynomial, g: GeneratorId) -> OvershearClass:
    """Classify f against the generator: Theta(f)=0, Theta^2(f)=0, or neither."""
    from .polyring import matrix_dim
    field = generator_field(matrix_dim(f.nvars), g)
    df = field.apply(f)
    if df.is_zero():
        return OvershearClass.SHEAR
    if field.apply(df).is_zero():
        return OvershearClass.OVERSHEAR
    return OvershearClass.NEITHER


def divergence(v: VectorField) -> Polynomial:
    """Sum over coordinates of d(component)/d(coordinate), each component's
    own partial added into one term dict by `add_derivation`."""
    nvars = v.n * v.n
    one = Polynomial.constant(nvars, 1)
    out: dict = {}
    for var, p in v.components.items():
        add_derivation(out, {var: one}, p.terms)
    return Polynomial._of(nvars, out)


# ---------------------------------------------------------------------------
# table emission


def emit_tables(n: int) -> dict:
    """Generator fields and the full action on linear monomials.

    Returns a dict with `generators` (componentwise text form) and `action`
    (rows indexed by linear monomial, columns by generator);
    `render_tables_text` renders it as aligned plain text.  For n >= 10 all
    variables use the bracketed x[k,l] form.
    """
    if n < 2:
        raise ValueError("table emission needs n >= 2")
    gens = generator_ids(n)
    fields = [(g, generator_field(n, g)) for g in gens]

    generators = []
    for g, field in fields:
        comps = []
        for var in sorted(field.components):
            comps.append({"var": var_name(var, n),
                          "poly": format_poly(field.components[var])})
        generators.append({"generator": g.label(), "components": comps})

    variables = [var_name(v, n) for v in range(n * n)]
    action = []
    for v in range(n * n):
        xv = Polynomial.variable(n * n, v)
        action.append([format_poly(field.apply(xv)) for _, field in fields])

    return {
        "n": n,
        "generator_order": [g.label() for g in gens],
        "generators": generators,
        "variables": variables,
        "action": action,
    }


def render_tables_text(report: dict) -> str:
    lines = [f"generator fields (n={report['n']})", ""]
    for entry in report["generators"]:
        parts = " ".join(
            f"{_signed(c['poly'])} d_{c['var'][1:]}" for c in entry["components"])
        lines.append(f"  {entry['generator']:<10} {parts}")
    lines.append("")
    lines.append("action on linear monomials")
    header = ["      "] + [f"{g:>12}" for g in report["generator_order"]]
    lines.append("".join(header))
    for var, row in zip(report["variables"], report["action"]):
        lines.append("".join([f"{var:<6}"] + [f"{p:>12}" for p in row]))
    return "\n".join(lines)


def _signed(poly_text: str) -> str:
    if " " in poly_text:
        return f"+({poly_text})"
    return poly_text if poly_text.startswith("-") else "+" + poly_text
