"""Degree-graded Lie-bracket generation for the adjoint fields.

The engine starts from the shear and overshear fields f*V with monomial
coefficients of degree at most two (V a basis generator, V^2(f) = 0) and
closes under brackets, grade by grade, where the grade of f*V is deg f.
The verification target at grade d is containment of f*V for every
degree-d monomial f in the traceless coordinates and every generator V.

The closure works on the hyperplane tr = 0, where x_nn is
-(x_11 + ... + x_{n-1,n-1}).  A field there is its components
0..n^2 - 2, each an integer polynomial in the first n^2 - 1 variables,
stored as one packed integer vector (`_TracelessFields`); brackets are
taken on these vectors, with no `Polynomial` in the loop.  Every field
here is tangent to the trace levels (Y(tr) = 0), so restricting to tr = 0
is a Lie algebra homomorphism whose kernel, the fields divisible by tr, is
an ideal: [tr*A, Y] = tr*[A, Y].  A field whose restricted vector is
already spanned therefore adds nothing to any later grade either.

Kept vectors go into echelons mod the prime `CLOSURE_PRIME`, and each
grade is certified with that one prime (`_certify_degree`): rank_p of the
kept vectors is at most their rank over Q, which is at most the pair
span's rank |F_d| - dim ker Phi, which is at most |F_d| - rank_p(Rel) for
explicit relations Rel checked exactly to lie in ker Phi.  Equal ends
prove that the kept fields span every f*V.  The relations come from
polynomial identities among the generator fields (e.g.
2*x12*Theta12 + 2*x21*Theta21 + (x11-x22)*Xi1 = 0 on 2x2 matrices), so the
component rank of the target space is lower than the pair count; reports
carry both numbers.

Every generator field, seed, bracket and pair is homogeneous for the
weights of the diagonal torus of SL_n (x_ij has weight e_i - e_j), and so
is every relation, because X^k commutes with X (Kostant 1963).  The
echelons and the bound therefore split into weight blocks, and a bracket
that lands in a block already at its bound is skipped, not computed
(`closure`).
"""
from __future__ import annotations

import random
import time
from collections import Counter, deque
from itertools import combinations_with_replacement
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .adjointfields import (
    GeneratorId,
    Theta,
    VectorField,
    Xi,
    bracket,
    generator_field,
    generator_ids,
    scale_field,
)
from .linalg import BlockedRowSpace, ExactRowSpace, clear_denominators
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
    with g^2(f) = 0; the constant f = 1 gives the generators themselves.

    Classified on exponent vectors (`adjointfields.overshear_class` is the
    oracle the tests compare with): Xi_a scales x^e by the pairing of its
    weight with H_a, so it shears x^e when that is 0 and is neither
    otherwise; Theta_ab is applied twice through `_theta_exponents`."""
    if n < 2:
        raise PreconditionError("n must be at least 2")
    nvars = n * n
    gens = generator_ids(n)
    seeds = []
    for d in (0, 1, 2):
        for mono in slice_monomials(nvars, d):
            e = mono.dense(nvars)
            for g in gens:
                if isinstance(g, Theta):
                    image = _theta_exponents(n, g, {e: 1})
                    keep = not image or not _theta_exponents(n, g, image)
                else:   # coordinates a and a + 1 of the weight of x^e agree
                    a = g.a - 1
                    weight = [sum(e[i * n:(i + 1) * n]) - sum(e[i::n]) for i in (a, a + 1)]
                    keep = weight[0] == weight[1]
                if keep:
                    seeds.append(Seed(Polynomial.from_monomial(nvars, mono), g, d))
    return seeds


def _theta_exponents(n: int, g: Theta,
                     poly: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """Theta_ab of a polynomial given as exponent tuple -> coefficient:
    Theta_ab(x^e) = sum_j e_aj x^(e - u_aj + u_bj) - sum_i e_ib x^(e - u_ib + u_ia),
    with u_ij the unit exponent of x_ij."""
    a, b = g.a - 1, g.b - 1
    out: dict[tuple[int, ...], int] = {}
    for e, c in poly.items():
        for j in range(n):
            for src, dst, coeff in ((a * n + j, b * n + j, c), (j * n + b, j * n + a, -c)):
                k = e[src]
                if k:
                    f = list(e)
                    f[src] -= 1
                    f[dst] += 1
                    f = tuple(f)
                    out[f] = out.get(f, 0) + coeff * k
    return {f: c for f, c in out.items() if c}


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
# integer fields on tr = 0

CLOSURE_PRIME = 2 ** 31 - 1     # the prime of every closure echelon

# a prepared field: (terms of d/dx_j of every component by j, terms by component)
_Prepared = tuple[dict[int, list[tuple[int, int]]], dict[int, list[tuple[int, int]]]]


def _sum(terms) -> dict[int, int]:
    """The combination sum c * p over (p, c) pairs of packed dicts."""
    out: dict[int, int] = {}
    for p, scale in terms:
        for k, c in p.items():
            out[k] = out.get(k, 0) + scale * c
    return {k: c for k, c in out.items() if c}


def _mul(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    """The product of two packed polynomials, or of a polynomial and a field."""
    return _sum(({k1 + k2: c2 for k2, c2 in q.items()}, c1) for k1, c1 in p.items())


def _bracket(v: _Prepared, w: _Prepared) -> dict[int, int]:
    """[v, w]_c = w(v_c) - v(w_c) on the hyperplane, the restriction of
    `adjointfields.bracket`: each term of d/dx_j v_c meets each term of w_j,
    and each term of d/dx_j w_c each term of v_j."""
    out: dict[int, int] = {}
    get = out.get
    for (grads, _), (_, comps), sign in ((v, w, 1), (w, v, -1)):
        for j, lowered in grads.items():
            terms = comps.get(j)
            if terms is None:
                continue
            for low, a in lowered:
                a *= sign
                for m, b in terms:
                    k = low + m
                    out[k] = get(k, 0) + a * b
    return {k: c for k, c in out.items() if c}


class _TracelessFields:
    """Integer polynomials and fields on the hyperplane tr = 0, packed.

    The coordinates are the first n^2 - 1 variables; x_nn stands for
    -(x_11 + ... + x_{n-1,n-1}).  A field is a dict key -> int, one entry
    per term c * x^e d/dx_comp: the key holds comp in its low `cbits` bits
    and each exponent e_j in `ebits` bits above them.  A polynomial is a
    field whose terms all have comp 0, so multiplying by a monomial adds its
    key and dividing by x_j subtracts `units[j]`.  Exponents in a grade-d
    field are at most d + 1, which `ebits` holds up to `max_degree`.
    """

    def __init__(self, n: int, max_degree: int):
        self.n = n
        self.nv = nv = n * n - 1
        self.cbits = (nv - 1).bit_length()
        self.ebits = (max_degree + 1).bit_length()
        self.units = [1 << (self.cbits + self.ebits * j) for j in range(nv)]
        self.trace_form = {self.units[a * (n + 1)]: -1 for a in range(n - 1)}
        # The sl_n weight e_i - e_j of x_ij, as the int B^i - B^j.  A term
        # c * x^e d/dx_comp has weight weight(x^e) - weight(x_comp); brackets
        # and products add weights, and substituting for x_nn (weight 0)
        # keeps them.  A grade-d term's weight has coordinates of size at
        # most d + 2 < B / 2, so the encoding is one-to-one on them.
        base = 2 * max_degree + 5
        self.var_weights = [base ** (v // n) - base ** (v % n) for v in range(nv)]
        ids = generator_ids(n)
        self.gens = [self.generator(g) for g in ids]
        # Theta_ab = sum_j x_bj d/dx_aj - ..., of weight e_b - e_a; Xi_a: 0
        self.gen_weights = [self.var_weights[(g.b - 1) * n + g.a - 1] if isinstance(g, Theta)
                            else 0 for g in ids]

    def _linear(self, values: list[int], degree: int) -> list[int]:
        """sum_v e_v * values[v] for the exponent vector e of each
        degree-`degree` monomial, in `slice_monomials` order."""
        return [sum(values[v] for v in combo)
                for combo in combinations_with_replacement(range(self.nv), degree)]

    def monomials(self, degree: int) -> list[int]:
        """Keys of the degree-`degree` monomials, in `slice_monomials` order."""
        return self._linear(self.units, degree)

    def columns(self, grade: int) -> dict[int, int]:
        """Key -> column for the fields of a grade, in the `_SlProjector`
        layout: (index of the degree-(grade+1) monomial) * (n^2 - 1) + comp."""
        nv = self.nv
        return {m + c: i * nv + c
                for i, m in enumerate(self.monomials(grade + 1)) for c in range(nv)}

    def column_weights(self, grade: int) -> list[int]:
        """The weight of each column of `columns(grade)`: that of its
        monomial minus that of its component's variable."""
        return [w - cw for w in self._linear(self.var_weights, grade + 1)
                for cw in self.var_weights]

    def pairs(self, d: int) -> tuple[list[dict[int, int]], list[int]]:
        """The grade-d target pairs f*V, indexed by monomial index * (n^2 - 1)
        + generator index, and the weight of each."""
        pairs = [{f + k: c for k, c in g.items()} for f in self.monomials(d) for g in self.gens]
        weights = [fw + gw for fw in self._linear(self.var_weights, d) for gw in self.gen_weights]
        return pairs, weights

    def restrict(self, p: Polynomial, comp: int = 0) -> dict[int, int]:
        """The field p * d/dx_comp on tr = 0; for comp = 0, also p itself."""
        terms = []
        for mono, c in p.terms.items():
            term = {comp + sum(e * self.units[v] for v, e in mono.powers if v < self.nv): c}
            for _ in range(mono.exponent(self.nv)):
                term = _mul(term, self.trace_form)
            terms.append((term, 1))
        return _sum(terms)

    def generator(self, gid: GeneratorId) -> dict[int, int]:
        """The generator field on tr = 0, components 0..n^2 - 2."""
        out: dict[int, int] = {}
        for comp, poly in generator_field(self.n, gid).components.items():
            if comp < self.nv:
                out.update(self.restrict(poly, comp))
        return out

    def prepare(self, field: dict[int, int]) -> _Prepared:
        """The two views `_bracket` reads: for each variable x_j the terms
        of d/dx_j of every component, and the terms of each component, keyed
        without the component."""
        cmask, ebits, units = (1 << self.cbits) - 1, self.ebits, self.units
        emask = (1 << ebits) - 1
        comps: dict[int, list[tuple[int, int]]] = {}
        grads: dict[int, list[tuple[int, int]]] = {}
        for key, c in field.items():
            comp = key & cmask
            comps.setdefault(comp, []).append((key - comp, c))
            exps, j = key >> self.cbits, 0
            while exps:
                e = exps & emask
                if e:
                    grads.setdefault(j, []).append((key - units[j], c * e))
                exps >>= ebits
                j += 1
        return grads, comps

    def relations(self, d: int) -> list[dict[int, int]]:
        """Relations among the grade-d target pairs, as vectors over the pair
        index (monomial index * (n^2 - 1) + generator index): for
        k = 1..min(d, n-1), n times the traceless part of X^k in generator
        coordinates, times each degree-(d-k) monomial.  X^k commutes with X,
        so the matching combination of the fields f*V vanishes."""
        n, nv, units = self.n, self.nv, self.units
        index = {m: i for i, m in enumerate(self.monomials(d))}
        X = [[{units[i * n + j]: 1} if i * n + j < nv else self.trace_form
              for j in range(n)] for i in range(n)]
        power = X
        out = []
        for k in range(1, min(d, n - 1) + 1):
            trace = _sum((power[i][i], 1) for i in range(n))
            coords = []
            for gid in generator_ids(n):
                if isinstance(gid, Theta):
                    coords.append(_sum([(power[gid.a - 1][gid.b - 1], n)]))
                else:
                    coords.append(_sum([(power[i][i], n) for i in range(gid.a)]
                                       + [(trace, -gid.a)]))
            for mu in self.monomials(d - k):
                out.append({index[mu + m] * nv + gi: c
                            for gi, coord in enumerate(coords) for m, c in coord.items()})
            power = [[_sum((_mul(power[i][l], X[l][j]), 1) for l in range(n))
                      for j in range(n)] for i in range(n)]
        return out


# ---------------------------------------------------------------------------
# closure engine


@dataclass
class DegreeReport:
    n: int
    grade: int
    method: str                      # "one-prime": the certificate of `_certify_degree`
    target_rank: int                 # |F_d|: monomial x generator pairs (traceless)
    achieved_rank: int               # pairs reached: all when certified, else those reached mod p
    missing_witnesses: list[str]     # pairs not reached mod p (unproven); [] when certified
    sl_rank: int                     # rank_p of the kept vectors
    sl_target_component_rank: int    # target_rank - relation_rank: the pair span's rank
                                     # when certified, an upper bound on it otherwise
    gl_rank: int                     # kept fields; equal to sl_rank
    brackets_evaluated: int          # brackets computed
    brackets_skipped: int            # queued brackets left out: their weight block was full
    complete: bool                   # fixed point or target reached within budget
    certified: bool                  # sl_rank == sl_target_component_rank
    prime: int                       # p of the kept-vector and relation echelons
    relation_rank: int               # rank_p of the relations checked to vanish


@dataclass
class ClosureResult:
    n: int
    max_degree: int
    spans: dict[int, list[dict[int, int]]]  # grade -> kept vectors, `_SlProjector` layout
    reports: dict[int, DegreeReport]
    complete: bool


def closure(seeds: list[Seed], max_degree: int,
            budget_brackets: int | None = None, budget_ms: float | None = None,
            early_exit: bool = True) -> ClosureResult:
    """Bracket-closure of the seed set, graded by coefficient degree.

    Fields are integer vectors on the hyperplane tr = 0 (`_TracelessFields`),
    bracketed there by `_bracket`.  Each grade keeps a bracket exactly when
    its vector is new mod `CLOSURE_PRIME`, and `spans[d]` lists the kept
    vectors in the `_SlProjector` column layout.  A rejected bracket differs
    from a combination of kept fields by a multiple of tr, or its vector is
    new over Q but not mod p; the first loses nothing, because multiples of
    tr form an ideal (module docstring), and the second can only leave
    grades short of their bounds and so uncertified.  Before the brackets, the
    grade's relations give the bound |F_d| - rank_p(Rel) on the pair span's
    rank; the grade stops early once the kept rank reaches it, and
    `_certify_degree` certifies the grade when it does.

    Weight blocks.  Every term, pair, relation and bracket is homogeneous
    for the sl_n torus weight (`_TracelessFields.var_weights`), so the kept
    vectors sit in one mod-p echelon per weight (`BlockedRowSpace`) and the
    bound splits: the weight-w pairs span T_w of rank at most
    bound_w = |F_d,w| - rank_p(Rel_w).  A queued bracket's weight, the sum
    of its operands' weights, is known before it is taken; when its block
    has rank_w >= bound_w the bracket is skipped (`brackets_skipped`).  The
    skip is exact: a bracket y of weight w lies in T_w, so
    rank_p(K_w + y) <= rank_Q(T_w) <= bound_w <= rank_p(K_w) and y would
    have been rejected; the kept vectors, their order and the point where
    the grade stops are those of the loop without skips.  Soundness does
    not rest on the predicted weight: a kept vector goes to the block its
    own columns name (across two blocks it raises `GradingError`), and the
    certificate compares the total rank with the global bound, so a wrong
    prediction could only skip a new vector and leave a grade uncertified.
    A kept field is prepared for `_bracket` when it is first bracketed.

    When a budget runs out the closure stops after reporting that grade:
    later grades get no `spans` or `reports` entry, and `complete` is False.
    A grade that would start after `budget_ms` has passed is not started.
    `budget_brackets` counts the brackets computed, not those skipped.
    """
    if not seeds:
        raise PreconditionError("empty seed set")
    n = matrix_dim(seeds[0].coefficient.nvars)
    deadline = time.monotonic() + budget_ms / 1000.0 if budget_ms is not None else None

    ring = _TracelessFields(n, max_degree)
    gen_fields = dict(zip(generator_ids(n), ring.gens))
    gens = [ring.prepare(f) for f in ring.gens]
    spans: dict[int, list[dict[int, int]]] = {}
    fields: dict[int, list[dict[int, int]]] = {}        # grade -> kept packed fields
    prepared: dict[int, list[_Prepared | None]] = {}    # None until first bracketed
    weights: dict[int, list[int]] = {}                  # grade -> weights of the kept fields
    reports: dict[int, DegreeReport] = {}
    brackets_done = 0

    def ready(a: int, i: int) -> _Prepared:
        field = prepared[a][i]
        if field is None:
            field = prepared[a][i] = ring.prepare(fields[a][i])
        return field

    grade_of_seed: dict[int, list[Seed]] = {}
    for s in seeds:
        grade_of_seed.setdefault(s.grade, []).append(s)

    complete = True
    for d in range(max_degree + 1):
        if deadline is not None and time.monotonic() > deadline:
            complete = False
            break
        cols = ring.columns(d)
        pairs, pair_weights = ring.pairs(d)
        relations = _relation_blocks(ring.relations(d), pairs, pair_weights)
        bounds = Counter(pair_weights)
        for w in bounds:
            bounds[w] -= relations.block_rank(w)
        bound = len(pairs) - relations.rank
        kept_space = BlockedRowSpace(CLOSURE_PRIME, ring.column_weights(d))
        kept = spans[d] = []
        fields[d], prepared[d], weights[d] = [], [], []

        # bracket queue: (a, index in grade a, index in grade d - a); a = 0
        # indexes the generators
        queue: deque[tuple[int, int, int]] = deque()

        def keep(field: dict[int, int]):
            """Keep a field if its vector is new mod p, and queue its
            brackets with the generators."""
            vec = {cols[k]: c for k, c in field.items()}
            if kept_space.insert(vec):
                kept.append(vec)
                fields[d].append(field)
                prepared[d].append(None)
                weights[d].append(kept_space.block_of[next(iter(vec))])
                queue.extend((0, gi, len(kept) - 1) for gi in range(len(gens)))

        evaluated = skipped = 0
        for s in grade_of_seed.get(d, ()):
            keep(_mul(ring.restrict(s.coefficient), gen_fields[s.generator]))
        for a in range(1, d // 2 + 1):
            b = d - a
            for i in range(len(spans[a])):
                for j in range(len(spans[b])):
                    if a == b and j <= i:
                        continue
                    queue.append((a, i, j))

        while queue and not (early_exit and kept_space.rank >= bound):
            a, i, j = queue.popleft()
            w = (ring.gen_weights[i] if a == 0 else weights[a][i]) + weights[d - a][j]
            if kept_space.block_rank(w) >= bounds[w]:
                skipped += 1
                continue
            if ((deadline is not None and time.monotonic() > deadline)
                    or (budget_brackets is not None and brackets_done >= budget_brackets)):
                complete = False
                break
            keep(_bracket(gens[i] if a == 0 else ready(a, i), ready(d - a, j)))
            evaluated += 1
            brackets_done += 1

        reports[d] = _certify_degree(n, d, kept_space, relations.rank, pairs, cols,
                                     evaluated, skipped, complete)
        if not complete:
            break

    return ClosureResult(n, max_degree, spans, reports, complete)


def _relation_blocks(relations: list[dict[int, int]], pairs: list[dict[int, int]],
                     pair_weights: list[int]) -> BlockedRowSpace:
    """The relations r whose image sum_i r_i * pairs[i] is exactly 0, in
    mod-p echelons by the weight of their pairs; a relation that failed the
    check would not enter the rank."""
    space = BlockedRowSpace(CLOSURE_PRIME, pair_weights)
    for r in relations:
        if not _sum((pairs[i], c) for i, c in r.items()):
            space.insert(r)
    return space


def _certify_degree(n: int, d: int, kept_space: BlockedRowSpace, relation_rank: int,
                    pairs: list[dict[int, int]], cols: dict[int, int],
                    evaluated: int, skipped: int, complete: bool) -> DegreeReport:
    """The one-prime certificate of a grade.

    K are the kept vectors, T the span of the target pairs F_d and Phi the
    map from pair coordinates to vectors; the relations Rel lie in ker Phi
    (checked exactly).  Then

        rank_p(K) <= rank_Q(K) <= rank_Q(T) = |F_d| - dim ker Phi
                  <= |F_d| - rank_p(Rel).

    K lies in T because the C[x]-span of the generators is closed under
    brackets: in the orientation of `bracket`,
    [fV, hW] = h W(f) V - f V(h) W + fh [V, W].  When the two ends
    are equal every inequality is an equality, so span K = T over Q and
    every pair f*V is reached.  An unlucky prime can only leave the ends
    apart: the grade is then not certified, and the pairs outside K mod p
    are listed as unproven in `missing_witnesses`.  rank_p(K) is the sum of
    the weight blocks' ranks, and a pair is looked up in its own block.
    """
    bound = len(pairs) - relation_rank
    certified = kept_space.rank == bound
    missing = []
    if not certified:
        nv = n * n - 1
        gens = generator_ids(n)
        monos = list(slice_monomials(nv, d))
        missing = [f"{format_poly(Polynomial.from_monomial(n * n, monos[i // nv]))} * "
                   f"{gens[i % nv].label()}"
                   for i, pair in enumerate(pairs)
                   if not kept_space.contains({cols[k]: c for k, c in pair.items()})]
    return DegreeReport(
        n=n, grade=d, method="one-prime",
        target_rank=len(pairs), achieved_rank=len(pairs) - len(missing),
        missing_witnesses=missing,
        sl_rank=kept_space.rank, sl_target_component_rank=bound,
        gl_rank=kept_space.rank,
        brackets_evaluated=evaluated, brackets_skipped=skipped,
        complete=complete, certified=certified,
        prime=kept_space.p, relation_rank=relation_rank,
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
