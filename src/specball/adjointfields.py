"""Polynomial vector fields of the conjugation action on n x n matrices.

The generators are

    Theta_ab = sum_k ( x_bk d/dx_ak - x_ka d/dx_kb ),  a != b
    Xi_a     = sum_k ( x_ak d/dx_ak - x_{a+1,k} d/dx_{a+1,k}
                       - x_ka d/dx_ka + x_{k,a+1} d/dx_{k,a+1} )

which realize the elementary matrices E_ab and the coroots
H_a = [E_{a,a+1}, E_{a+1,a}] as derivations of the coordinate ring.

Bracket orientation: `bracket` is oriented so that the generator map
E_ab -> Theta_ab, H_a -> Xi_a is a Lie algebra homomorphism, i.e.
bracket(Theta_{a,a+1}, Theta_{a+1,a}) == Xi_a and, on coordinates,
bracket(v, w)(x) = w(v(x)) - v(w(x)).  This is the negative of the
operator-commutator orientation; spans and kernels are unaffected.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

from .polyring import (
    DimensionMismatch,
    Polynomial,
    flat_index,
    format_poly,
    var_name,
)


class InvalidGenerator(ValueError):
    pass


@dataclass(frozen=True)
class Theta:
    """Generator id for the field attached to the elementary matrix E_ab."""
    a: int
    b: int

    def validate(self, n: int):
        if self.a == self.b:
            raise InvalidGenerator("Theta requires a != b")
        if not (1 <= self.a <= n and 1 <= self.b <= n):
            raise InvalidGenerator(f"Theta({self.a},{self.b}) out of range for n={n}")

    def label(self) -> str:
        return f"theta{self.a}{self.b}" if max(self.a, self.b) <= 9 else f"theta[{self.a},{self.b}]"


@dataclass(frozen=True)
class Xi:
    """Generator id for the hyperbolic (diagonal) field attached to H_a."""
    a: int

    def validate(self, n: int):
        if not (1 <= self.a <= n - 1):
            raise InvalidGenerator(f"Xi({self.a}) out of range for n={n}")

    def label(self) -> str:
        return f"xi{self.a}"


GeneratorId = Theta | Xi


def generator_ids(n: int) -> list[GeneratorId]:
    """The n^2 - 1 basis generators in canonical order."""
    gens: list[GeneratorId] = []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a != b:
                gens.append(Theta(a, b))
    for a in range(1, n):
        gens.append(Xi(a))
    return gens


class VectorField:
    """Polynomial derivation, stored componentwise: var -> coefficient of d/dx."""

    __slots__ = ("n", "components")

    def __init__(self, n: int, components: dict[int, Polynomial] | None = None):
        object.__setattr__(self, "n", n)
        clean = {}
        if components:
            for v, p in components.items():
                if p.nvars != n * n:
                    raise DimensionMismatch("component ring does not match field dimension")
                if not p.is_zero():
                    clean[v] = p
        object.__setattr__(self, "components", clean)

    def __setattr__(self, *args):
        raise AttributeError("VectorField is immutable")

    @staticmethod
    def zero(n: int) -> "VectorField":
        return VectorField(n)

    def is_zero(self) -> bool:
        return not self.components

    def component(self, row: int, col: int) -> Polynomial:
        return self.components.get(flat_index(row, col, self.n),
                                   Polynomial.zero(self.n * self.n))

    def _check(self, other: "VectorField"):
        if self.n != other.n:
            raise DimensionMismatch(f"fields on different rings: n={self.n} vs n={other.n}")

    def __add__(self, other: "VectorField") -> "VectorField":
        self._check(other)
        out = dict(self.components)
        for v, p in other.components.items():
            q = out.get(v)
            out[v] = p if q is None else q + p
        return VectorField(self.n, out)

    def __neg__(self) -> "VectorField":
        return VectorField(self.n, {v: -p for v, p in self.components.items()})

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def __rmul__(self, c) -> "VectorField":
        return VectorField(self.n, {v: p.scale(c) for v, p in self.components.items()})

    def __eq__(self, other):
        return (isinstance(other, VectorField)
                and self.n == other.n and self.components == other.components)

    def __hash__(self):
        return hash((self.n, frozenset(self.components.items())))

    def apply(self, p: Polynomial) -> Polynomial:
        """Derivation action: sum of component * dp/dx over all coordinates."""
        if p.nvars != self.n * self.n:
            raise DimensionMismatch("polynomial ring does not match field dimension")
        comps = self.components
        return Polynomial.sum_of_products(
            p.nvars, ((comps[v], dp) for v, dp in p.gradient().items() if v in comps))

    def __repr__(self):
        inner = ", ".join(
            f"{var_name(v, self.n)}: {format_poly(p)}"
            for v, p in sorted(self.components.items()))
        return f"VectorField(n={self.n}, {{{inner}}})"


def make_theta(n: int, a: int, b: int) -> VectorField:
    """Theta_ab = sum_k ( x_bk d/dx_ak - x_ka d/dx_kb )."""
    Theta(a, b).validate(n)
    comps: dict[int, Polynomial] = {}
    for k in range(1, n + 1):
        _add_term(comps, n, (a, k), Polynomial.x(b, k, n))
        _add_term(comps, n, (k, b), -Polynomial.x(k, a, n))
    return VectorField(n, comps)


def make_xi(n: int, a: int) -> VectorField:
    """Xi_a, the hyperbolic field of H_a = [E_{a,a+1}, E_{a+1,a}]."""
    Xi(a).validate(n)
    comps: dict[int, Polynomial] = {}
    for k in range(1, n + 1):
        _add_term(comps, n, (a, k), Polynomial.x(a, k, n))
        _add_term(comps, n, (a + 1, k), -Polynomial.x(a + 1, k, n))
        _add_term(comps, n, (k, a), -Polynomial.x(k, a, n))
        _add_term(comps, n, (k, a + 1), Polynomial.x(k, a + 1, n))
    return VectorField(n, comps)


def _add_term(comps: dict[int, Polynomial], n: int, var: tuple[int, int], p: Polynomial):
    v = flat_index(var[0], var[1], n)
    q = comps.get(v)
    comps[v] = p if q is None else q + p


@functools.cache
def generator_field(n: int, gid: GeneratorId) -> VectorField:
    """The field of a generator id, built once per (n, gid): fields are
    immutable, and there are n^2 - 1 ids for each n."""
    if isinstance(gid, Theta):
        return make_theta(n, gid.a, gid.b)
    if isinstance(gid, Xi):
        return make_xi(n, gid.a)
    raise InvalidGenerator(f"unknown generator id {gid!r}")


def bracket(v: VectorField, w: VectorField) -> VectorField:
    """Lie bracket, oriented so bracket(Theta_{a,a+1}, Theta_{a+1,a}) = Xi_a.

    Componentwise: bracket(v, w)(x_kl) = w(v(x_kl)) - v(w(x_kl)).  Bilinear,
    antisymmetric, satisfies Jacobi.
    """
    v._check(w)
    comps: dict[int, Polynomial] = {}
    for var, p in v.components.items():
        q = w.apply(p)
        if not q.is_zero():
            comps[var] = q
    for var, p in w.components.items():
        q = v.apply(p)
        if not q.is_zero():
            prev = comps.get(var)
            comps[var] = -q if prev is None else prev - q
    return VectorField(v.n, comps)


def scale_field(p: Polynomial, v: VectorField) -> VectorField:
    """The field p * v (componentwise product)."""
    if p.nvars != v.n * v.n:
        raise DimensionMismatch("polynomial ring does not match field dimension")
    return VectorField(v.n, {var: p * comp for var, comp in v.components.items()})


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
    """Sum over coordinates of d(component)/d(coordinate)."""
    out = Polynomial.zero(v.n * v.n)
    for var, p in v.components.items():
        out = out + p.partial(var)
    return out


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
