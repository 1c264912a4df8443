"""Degree-graded Lie-bracket generation for the adjoint fields.

The engine starts from the shear and overshear fields f*V with monomial
coefficients of degree at most two (V a basis generator, V^2(f) = 0) and
closes under brackets, grade by grade, where the grade of f*V is deg f.
The verification target at grade d is containment of f*V for every
degree-d monomial f in the traceless coordinates and every generator V.

The closure works in one coordinate system, the traceless one: x_nn is
replaced by -(x_11 + ... + x_{n-1,n-1}), which is the fibre tr = 0, and
exact integer elimination decides both which brackets are kept and the
certificate.  Keeping a bracket only when its traceless vector is new
loses nothing.  Every field here is tangent to the trace levels
(Y(tr) = 0), so restricting to tr = 0 is a Lie algebra homomorphism whose
kernel, the fields divisible by tr, is an ideal: [tr*A, Y] = tr*[A, Y].
A field whose traceless vector is already spanned therefore adds nothing
to any later grade either.  Because the generator fields satisfy
polynomial relations (e.g. 2*x12*Theta12 + 2*x21*Theta21 + (x11-x22)*Xi1 =
0 on 2x2 matrices), the component rank of the target space is lower than
the pair count; reports carry both numbers.
"""

from __future__ import annotations

import random
import time
from collections import Counter, deque
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .adjointfields import (
    GeneratorId,
    OvershearClass,
    Theta,
    VectorField,
    Xi,
    bracket,
    generator_field,
    generator_ids,
    overshear_class,
    scale_field,
)
from .linalg import ExactRowSpace, clear_denominators
from .polyring import (
    GradingError,
    HomSliceBasis,
    Monomial,
    Polynomial,
    flat_index,
    format_poly,
    matrix_dim,
    slice_monomials,
    substitute_trace,
    var_name,
)


class PreconditionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# seeds


@dataclass(frozen=True)
class Seed:
    coefficient: Polynomial      # monomial (or 1 for the generators themselves)
    generator: GeneratorId
    grade: int

    def field(self, n: int) -> VectorField:
        base = generator_field(n, self.generator)
        if self.grade == 0:
            return base
        return scale_field(self.coefficient, base)


def build_seeds(n: int) -> list[Seed]:
    """All overshear pairs (monomial f of degree <= 2, basis generator g)
    with g^2(f) = 0; the constant f = 1 gives the generators themselves."""
    if n < 2:
        raise PreconditionError("n must be at least 2")
    nvars = n * n
    seeds = []
    for d in (0, 1, 2):
        for mono in slice_monomials(nvars, d):
            f = Polynomial.from_monomial(nvars, mono)
            for g in generator_ids(n):
                if overshear_class(f, g) is not OvershearClass.NEITHER:
                    seeds.append(Seed(f, g, d))
    return seeds


# ---------------------------------------------------------------------------
# vectorization

def vectorize(v: VectorField, m: int) -> dict[int, Fraction]:
    """Flat sparse vector of a field whose components are homogeneous of
    degree m, over the basis (degree-m monomials) x (component index).

    Raw coordinates: `closure` uses the traceless ones (`_SlProjector`)."""
    n = v.n
    nvars = n * n
    basis = HomSliceBasis(nvars, m)
    out: dict[int, Fraction] = {}
    for comp, poly in v.components.items():
        if not poly.is_homogeneous(m):
            raise GradingError(
                f"component {var_name(comp, n)} is not homogeneous of degree {m}")
        for mono, c in poly.terms.items():
            idx = basis.index.get(mono)
            if idx is None:
                raise GradingError("monomial outside the slice basis")
            out[idx * nvars + comp] = c
    return out


class _SlProjector:
    """Projects fields to traceless coordinates and vectorizes them.

    Substitutes x_nn by -(x_11 + ... + x_{n-1,n-1}) in every component,
    drops the d/dx_nn component (it is determined by trace invariance),
    and indexes columns by (degree-(d+1) monomial in the first n^2 - 1
    variables) x (component).  The substitution is linear, so the image of
    each monomial is computed once and reused for every field.
    """

    def __init__(self, n: int, grade: int):
        self.n = n
        self.nvars = n * n
        self.ncomp = self.nvars - 1
        self.monomials = list(slice_monomials(self.nvars - 1, grade + 1))
        self.index = {mo: i for i, mo in enumerate(self.monomials)}
        # monomial -> [(column offset of its image term, coefficient)]
        self._images: dict[Monomial, list[tuple[int, int | Fraction]]] = {}

    def _image(self, mono: Monomial) -> list[tuple[int, int | Fraction]]:
        sub = substitute_trace(Polynomial.from_monomial(self.nvars, mono))
        image = []
        for m, c in sub.terms.items():
            idx = self.index.get(m)
            if idx is None:
                raise GradingError("substituted monomial outside the slice")
            image.append((idx * self.ncomp, c))
        self._images[mono] = image
        return image

    def vector(self, v: VectorField) -> dict[int, int]:
        out: dict[int, int | Fraction] = {}
        last = self.nvars - 1
        images = self._images
        for comp, poly in v.components.items():
            if comp == last:
                continue
            for mono, c in poly.terms.items():
                image = images.get(mono)
                if image is None:
                    image = self._image(mono)
                for offset, tc in image:
                    key = offset + comp
                    s = out.get(key, 0) + c * tc
                    if s:
                        out[key] = s
                    else:
                        del out[key]
        return clear_denominators(out)


# ---------------------------------------------------------------------------
# closure engine


@dataclass
class DegreeReport:
    n: int
    grade: int
    method: str                      # "exact": integer elimination certifies every grade
    target_rank: int                 # monomial x generator pair count (traceless)
    achieved_rank: int               # pairs inside the span
    missing_witnesses: list[str]
    sl_rank: int                     # component rank of the traceless projection
    sl_target_component_rank: int
    gl_rank: int                     # kept fields; equal to sl_rank
    brackets_evaluated: int
    complete: bool                   # fixed point or target reached within budget
    certified: bool                  # achieved_rank == target_rank, span inside the pairs


@dataclass
class ClosureResult:
    n: int
    max_degree: int
    spans: dict[int, list[VectorField]]  # grade -> kept fields
    reports: dict[int, DegreeReport]
    complete: bool


def _target_pairs(n: int, grade: int) -> list[tuple[Polynomial, GeneratorId]]:
    nvars = n * n
    gens = generator_ids(n)
    out = []
    for mono in slice_monomials(nvars - 1, grade):
        f = Polynomial.from_monomial(nvars, mono)
        for g in gens:
            out.append((f, g))
    return out


def closure(seeds: list[Seed], max_degree: int,
            budget_brackets: int | None = None, budget_ms: float | None = None,
            early_exit: bool = True) -> ClosureResult:
    """Bracket-closure of the seed set, graded by coefficient degree.

    Each grade keeps two exact echelons, both in traceless coordinates:
    one of the kept fields' vectors, which accepts a bracket exactly when
    its vector is new over Q and stops the grade early once it reaches the
    target rank, and one of the target pairs' vectors.  Together they
    certify the grade (`_certify_degree`).  A rejected bracket differs from
    a combination of kept fields by a multiple of tr, and multiples of tr
    form an ideal, so rejecting it changes no later grade's span (module
    docstring).

    When a budget runs out the closure stops after reporting that grade:
    later grades get no `spans` or `reports` entry, and `complete` is False.
    A grade that would start after `budget_ms` has passed is not started.
    """
    if not seeds:
        raise PreconditionError("empty seed set")
    n = matrix_dim(seeds[0].coefficient.nvars)
    deadline = time.monotonic() + budget_ms / 1000.0 if budget_ms is not None else None

    gen_fields = {g: generator_field(n, g) for g in generator_ids(n)}
    gens = list(gen_fields.values())
    spans: dict[int, list[VectorField]] = {}
    reports: dict[int, DegreeReport] = {}
    brackets_done = 0

    grade_of_seed: dict[int, list[Seed]] = {}
    for s in seeds:
        grade_of_seed.setdefault(s.grade, []).append(s)

    complete = True
    for d in range(max_degree + 1):
        if deadline is not None and time.monotonic() > deadline:
            complete = False
            break
        kept = spans[d] = []
        proj = _SlProjector(n, d)
        sl_space = ExactRowSpace()
        pairs = [(f, g, proj.vector(scale_field(f, gen_fields[g])))
                 for f, g in _target_pairs(n, d)]
        target_space = ExactRowSpace()
        for _, _, vec in pairs:
            target_space.insert(vec)

        # bracket queue: (a, index in grade a, index in grade d - a); a = 0
        # indexes the generators
        queue: deque[tuple[int, int, int]] = deque()

        def keep(v: VectorField):
            """Keep v if its traceless vector is new, and queue its brackets
            with the generators."""
            if sl_space.insert(proj.vector(v)):
                kept.append(v)
                queue.extend((0, gi, len(kept) - 1) for gi in range(len(gens)))

        brackets_at_start = brackets_done
        for s in grade_of_seed.get(d, ()):
            keep(s.field(n))
        for a in range(1, d // 2 + 1):
            b = d - a
            for i in range(len(spans[a])):
                for j in range(len(spans[b])):
                    if a == b and j <= i:
                        continue
                    queue.append((a, i, j))

        while queue and not (early_exit and sl_space.rank >= target_space.rank):
            if ((deadline is not None and time.monotonic() > deadline)
                    or (budget_brackets is not None and brackets_done >= budget_brackets)):
                complete = False
                break
            a, i, j = queue.popleft()
            if a == 0:
                x, y = gens[i], kept[j]
            else:
                x, y = spans[a][i], spans[d - a][j]
            keep(bracket(x, y))
            brackets_done += 1

        reports[d] = _certify_degree(n, d, sl_space, target_space, pairs,
                                     brackets_done - brackets_at_start, complete)
        if not complete:
            break

    return ClosureResult(n, max_degree, spans, reports, complete)


def _certify_degree(n: int, d: int, sl_space: ExactRowSpace, target_space: ExactRowSpace,
                    pairs: list[tuple[Polynomial, GeneratorId, dict[int, int]]],
                    brackets_done: int, complete: bool) -> DegreeReport:
    """Certify span equality with the pair span in traceless coordinates.

    `sl_space` is the exact echelon of the span's traceless vectors and
    `target_space` that of the target pairs f*V, listed with their vectors
    in `pairs`.  A pair outside `sl_space` is missing; the grade is
    certified when no pair is missing, the span lies inside the pair span
    and the closure completed.  Every kept field grew `sl_space`, so
    `gl_rank`, the kept-field count, is its rank.
    """
    missing = [(f, g) for f, g, vec in pairs if not sl_space.contains(vec)]
    sub_ok = all(target_space.contains(row) for row in sl_space.rows.values())
    achieved = len(pairs) - len(missing)
    return DegreeReport(
        n=n, grade=d, method="exact",
        target_rank=len(pairs), achieved_rank=achieved,
        missing_witnesses=[f"{format_poly(f)} * {g.label()}" for f, g in missing],
        sl_rank=sl_space.rank, sl_target_component_rank=target_space.rank,
        gl_rank=sl_space.rank,
        brackets_evaluated=brackets_done,
        complete=complete,
        certified=(achieved == len(pairs) and sub_ok and complete),
    )


# ---------------------------------------------------------------------------
# identity catalog

_DRAWS = 12


@dataclass
class IdentityResult:
    identity: str
    n: int
    holds: bool                # verified right-hand side matches exactly
    matches_printed: bool      # the commonly quoted form also matches
    verified_form: str
    printed_form: str
    residual_is_zero: bool
    notes: str = ""


_Instance = tuple[VectorField, VectorField, VectorField]


@dataclass(frozen=True)
class _Identity:
    build: Callable[[int, random.Random], _Instance]
    verified_form: str
    printed_form: str | None = None     # the commonly quoted form; None: the verified one
    randomized: bool = False            # checked on _DRAWS random instances, not once


def _theta_xi(n: int) -> tuple[VectorField, VectorField, VectorField, Polynomial]:
    """Theta12, Theta21, Xi1 and x12 on n x n matrices."""
    return (generator_field(n, Theta(1, 2)), generator_field(n, Theta(2, 1)),
            generator_field(n, Xi(1)), Polynomial.x(1, 2, n))


def _xi_bracket(n: int, rng: random.Random) -> _Instance:
    t12, t21, xi1, _ = _theta_xi(n)
    return bracket(t12, t21), xi1, xi1


def _d1_linear(n: int, rng: random.Random) -> _Instance:
    t12, t21, xi1, x12 = _theta_xi(n)
    x22 = Polynomial.x(2, 2, n)
    rhs = scale_field(x22, xi1) + scale_field(x12, t12)
    return bracket(scale_field(x22, t12), t21), rhs, rhs


def _d2_shear_detour(n: int, rng: random.Random) -> _Instance:
    t12, t21, xi1, x12 = _theta_xi(n)
    rhs = scale_field(2 * x12 * t12.apply(x12), t21) - scale_field(x12 * x12, xi1)
    return bracket(scale_field(x12 * x12, t21), t12), rhs, rhs


def _d2_hyperbolic(n: int, rng: random.Random) -> _Instance:
    t12, _, xi1, x12 = _theta_xi(n)
    lhs = (2 * bracket(scale_field(x12, xi1), scale_field(x12, t12))
           - bracket(scale_field(x12 * x12, xi1), t12))
    return lhs, scale_field((-2) * (x12 * x12), t12), scale_field(6 * (x12 * x12), t12)


def _general_step(deg: int) -> Callable[[int, random.Random], _Instance]:
    def build(n: int, rng: random.Random) -> _Instance:
        t12, _, xi1, x12 = _theta_xi(n)
        xpow, top = x12 ** deg, x12 ** (deg + 1)
        lhs = (deg * bracket(scale_field(x12, xi1), scale_field(xpow, t12))
               - bracket(scale_field(xpow, xi1), scale_field(x12, t12)))
        return (lhs, scale_field((-2 * deg * (deg - 1)) * top, t12),
                scale_field((2 * (deg * deg + deg - 2)) * top, t12))
    return build


def _random_monomial(rng: random.Random, n: int, max_degree: int) -> Polynomial:
    deg = rng.randrange(1, max_degree + 1)
    powers = Counter(rng.randrange(n * n) for _ in range(deg))
    return Polynomial.from_monomial(n * n, Monomial(powers.items()))


def _cross_term(n: int, rng: random.Random) -> _Instance:
    a = _random_monomial(rng, n, 1)
    f = _random_monomial(rng, n, 2)
    g = _random_monomial(rng, n, 2)
    gens = generator_ids(n)
    T = generator_field(n, rng.choice([gg for gg in gens if isinstance(gg, Theta)]))
    L = generator_field(n, rng.choice(gens))
    lhs = bracket(scale_field(a * f, T), scale_field(g, L)) \
        - bracket(scale_field(f, T), scale_field(a * g, L))
    rhs = scale_field(f * g * T.apply(a), L) + scale_field(f * g * L.apply(a), T)
    return lhs, rhs, -rhs


def _hyperbolic_step(n: int, rng: random.Random) -> _Instance:
    t12, t21, xi1, _ = _theta_xi(n)
    f = _random_monomial(rng, n, 3)
    shear = scale_field(t21.apply(f), t12)
    return (bracket(t21, scale_field(f, t12)),
            -scale_field(f, xi1) - shear, scale_field(f, xi1) - shear)


# Builders take (n, rng) and return (lhs, verified rhs, printed rhs); the
# printed rhs is the commonly quoted form where it differs.
_CATALOG: dict[str, _Identity] = {
    "xi-bracket": _Identity(_xi_bracket, "[Theta12, Theta21] = Xi1"),
    "d1-linear": _Identity(_d1_linear, "[x22*Theta12, Theta21] = x22*Xi1 + x12*Theta12"),
    "d2-shear-detour": _Identity(
        _d2_shear_detour, "[x12^2*Theta21, Theta12] = 2*x12*Theta12(x12)*Theta21 - x12^2*Xi1"),
    "d2-hyperbolic": _Identity(
        _d2_hyperbolic,
        "2[x12*Xi1, x12*Theta12] - [x12^2*Xi1, Theta12] = c*x12^2*Theta12; "
        "the bracket orientation fixes c = -2 (the often-quoted 6 mixes "
        "incompatible sign conventions)"),
    **{f"general-step-d{deg}": _Identity(
        _general_step(deg),
        f"d[x12*Xi1, x12^d*Theta12] - [x12^d*Xi1, x12*Theta12] = c*x12^(d+1)*Theta12, "
        f"d={deg}; orientation-consistent c = -2d(d-1)") for deg in range(2, 6)},
    "cross-term": _Identity(
        _cross_term, "[a*f*T, g*L] - [f*T, a*g*L] = +f*g*(T(a)*L + L(a)*T)",
        "same with a leading minus sign", randomized=True),
    "hyperbolic-step": _Identity(
        _hyperbolic_step, "[Theta21, f*Theta12] = -f*Xi1 - Theta21(f)*Theta12",
        "f*Xi1 - Theta21(f)*Theta12", randomized=True),
}


def identity_names() -> list[str]:
    return list(_CATALOG)


def verify_identity(name: str, n: int, seed: int = 0) -> IdentityResult:
    """Evaluate one catalog identity with exact arithmetic.

    `holds` refers to the orientation-consistent right-hand side; where a
    commonly quoted variant differs by sign or scalar, `matches_printed`
    reports whether that variant also matched.  A randomized identity must
    hold on each of `_DRAWS` (12) instances drawn from `random.Random(seed)`.
    """
    if name not in _CATALOG:
        raise KeyError(f"unknown identity {name!r}")
    entry = _CATALOG[name]
    rng = random.Random(seed)
    holds = matches_printed = True
    for _ in range(_DRAWS if entry.randomized else 1):
        lhs, verified, printed = entry.build(n, rng)
        holds = holds and (lhs - verified).is_zero()
        matches_printed = matches_printed and (lhs - printed).is_zero()
    return IdentityResult(
        identity=name, n=n, holds=holds, matches_printed=matches_printed,
        verified_form=entry.verified_form,
        printed_form=entry.printed_form or entry.verified_form,
        residual_is_zero=holds,
        notes="randomized monomial instances" if entry.randomized else "")


def verify_all_identities(n: int, seed: int = 0) -> list[IdentityResult]:
    return [verify_identity(name, n, seed=seed) for name in _CATALOG]


# ---------------------------------------------------------------------------
# cross-image span (the linear-monomial image lemma)


@dataclass
class CrossImageReport:
    n: int
    rank: int
    expected_rank: int
    x12_excluded: bool

    @property
    def ok(self) -> bool:
        return self.rank == self.expected_rank and self.x12_excluded


def verify_cross_image(n: int) -> CrossImageReport:
    """Rank of span{Theta_ab(x_cd) : Theta12(x_cd) = 0} in traceless
    coordinates; expected n^2 - 2 with x12 outside the span (needs n >= 3)."""
    if n < 3:
        raise PreconditionError("the cross-image span statement requires n >= 3")
    nvars = n * n
    t12 = generator_field(n, Theta(1, 2))
    space = ExactRowSpace()
    for gid in generator_ids(n):
        if not isinstance(gid, Theta):
            continue
        tab = generator_field(n, gid)
        for xcd in (Polynomial.variable(nvars, flat) for flat in range(nvars)):
            if not t12.apply(xcd).is_zero():
                continue
            img = substitute_trace(tab.apply(xcd))
            if img.is_zero():
                continue
            vec = {}
            for mono, coeff in img.terms.items():
                (v, e), = mono.powers
                vec[v] = coeff
            space.insert(clear_denominators(vec))
    rank = space.rank
    x12_vec = {flat_index(1, 2, n): 1}
    return CrossImageReport(n=n, rank=rank, expected_rank=nvars - 2,
                            x12_excluded=not space.contains(x12_vec))
