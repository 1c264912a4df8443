"""Degree-graded Lie-bracket generation for the adjoint fields.

The engine starts from the shear and overshear fields f*V with monomial
coefficients of degree at most one (V a basis generator, V^2(f) = 0) and
closes under brackets, grade by grade, where the grade of f*V is deg f.
The verification target at grade d is containment of every pair f*V, for
the degree-d monomials f in the traceless coordinates and the generators V,
in the Lie algebra L the seeds generate.

The closure works on the hyperplane tr = 0, where x_nn is
-(x_11 + ... + x_{n-1,n-1}).  Every field here is tangent to the trace
levels (Y(tr) = 0), so restricting to tr = 0 is a Lie algebra
homomorphism.  A vector is kept in pair coordinates (`_TracelessFields`):
one integer per pair f*V, standing for the sum of c * f * V.  Two pairs
bracket by a closed form (`_PairBrackets`), with no field in the loop.
Grades 0 and 1 close the seeds under the kept generators; a grade d >= 2
computes no bracket, as two lemmas prove it from grade 1.

The pair vectors with that closed form are the sections of the action Lie
algebroid C[sl_n] (x) sl_n of sl_n acting on itself (Mackenzie, 2005), and
its anchor Phi, from pair vectors to fields, is a Lie algebra
homomorphism.  So a formal bracket of pair vectors whose fields lie in L
stands for a field in L, and grades 0 and 1 are certified from the kept
brackets and seeds B alone, with one prime `CLOSURE_PRIME`
(`_certify_degree`): when B spans all pairs mod p, it spans them over Q,
so every pair is in L.  The rank of the target fields is the pair count
minus the dimension of ker Phi, which Kostant (1963) gives in closed form
(`relation_rank`); reports carry both numbers.

Every generator field, seed, bracket and pair is homogeneous for the
weights of the diagonal torus of SL_n (x_ij has weight e_i - e_j).  The
echelon is therefore one `linalg.ModularRowSpace` graded by weight, and the
certificate holds block by block.  At a grade d >= 2 a weight lemma proves
every block of nonzero weight from certified grades 1 and d - 1, and a
weight-0 lemma block 0, so by induction a grade d >= 2 is certified exactly
when grade 1 is (`closure`, `_certify_degree`).
"""
from __future__ import annotations

import random
import time
from itertools import combinations_with_replacement
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, isqrt

from .adjointfields import (
    GeneratorId,
    Theta,
    VectorField,
    Xi,
    add_derivation,
    bracket,
    generator_components,
    generator_field,
    generator_ids,
    generator_matrix,
    scale_field,
)
from .linalg import ExactRowSpace, ModularRowSpace, clear_denominators
from .polyring import (
    GradingError,
    HomSliceBasis,
    Monomial,
    Polynomial,
    _cover,
    flat_index,
    format_poly,
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


def build_seeds(n: int) -> list[Seed]:
    """All overshear pairs (monomial f of degree <= 1, basis generator g)
    with g^2(f) = 0: the constant f = 1, giving the generators themselves,
    then each variable in flat order with each generator.  Grade 2 and
    above come from brackets of grade-1 pairs (`closure`).

    g(x_v) is the component v of g's table (`generator_components`), so x_v
    is a seed for g iff g, applied to that component by `add_derivation`,
    leaves nothing.  The tests check the seeds against the matrix rule: the
    (i, j) entry of B^2 X - 2 B X B + X B^2 vanishes."""
    if n < 2:
        raise PreconditionError("n must be at least 2")
    nvars = n * n
    gens = generator_ids(n)
    tables = [(g, generator_components(n, g)) for g in gens]
    seeds = [Seed(Polynomial.constant(nvars, 1), g, 0) for g in gens]
    for v in range(nvars):
        for g, comps in tables:
            if v not in comps or not add_derivation({}, comps, comps[v].terms):
                seeds.append(Seed(Polynomial.variable(nvars, v), g, 1))
    return seeds


# ---------------------------------------------------------------------------
# vectorization

def vectorize(v: VectorField, m: int) -> dict[int, Fraction]:
    """Flat sparse vector of a field whose components are homogeneous of
    degree m, over the basis (degree-m monomials) x (component index).

    Raw coordinates, for the tests; `_SlProjector` gives traceless ones.
    `closure` uses neither: it works in pair coordinates (`_TracelessFields`)."""
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
# pair coordinates on tr = 0

CLOSURE_PRIME = 2 ** 31 - 1     # the prime of every closure echelon


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


def _sl_coordinates(n: int, C: dict[tuple[int, int], int]) -> list[tuple[int, int]]:
    """(generator index, coefficient) of a traceless integer n x n matrix,
    given by its entries C {(i, j): C_ij} (0-based, zeros may be left out),
    in the basis of `generator_matrix`: C_ab at Theta_ab, C_11 + ... + C_aa
    at Xi_a.  The index is that of `generator_ids`."""
    index = _generator_index(n)
    coords = [(index[Theta(i + 1, j + 1)], c) for (i, j), c in C.items() if i != j and c]
    diagonal = 0
    for a in range(1, n):
        diagonal += C.get((a - 1, a - 1), 0)
        if diagonal:
            coords.append((index[Xi(a)], diagonal))
    return sorted(coords)


@cache
def _generator_index(n: int) -> dict[GeneratorId, int]:
    return {g: gi for gi, g in enumerate(generator_ids(n))}


def _commutator_entries(A: list[tuple[int, int, int]],
                        B: list[tuple[int, int, int]]) -> dict[tuple[int, int], int]:
    """The entries of AB - BA, for matrices given by their nonzero entries
    (i, j, A_ij)."""
    C: dict[tuple[int, int], int] = {}
    for X, Y, sign in ((A, B, 1), (B, A, -1)):
        for i, k, x in X:
            for l, j, y in Y:
                if k == l:
                    C[i, j] = C.get((i, j), 0) + sign * x * y
    return C


class _TracelessFields:
    """Integer polynomials and fields on the hyperplane tr = 0, packed, and
    the pair coordinates of a grade.

    The coordinates are the first n^2 - 1 variables; x_nn stands for
    -(x_11 + ... + x_{n-1,n-1}).  A field is a dict key -> int, one entry
    per term c * x^e d/dx_comp: the key holds comp in its low `cbits` bits
    and each exponent e_j in `ebits` bits above them.  A polynomial is a
    field whose terms all have comp 0, so multiplying by a monomial adds its
    key.  Exponents at grade d are at most d, which `ebits` holds up to
    `max_degree`.  A pair vector of grade d is a dict over the pair index,
    (index of the degree-d monomial f) * (n^2 - 1) + (index of the
    generator V), and stands for the sum of c * f * V.
    """

    def __init__(self, n: int, max_degree: int):
        self.n = n
        self.nv = nv = n * n - 1
        self.cbits = (nv - 1).bit_length()
        self.ebits = (max_degree + 1).bit_length()
        self.units = units = [1 << (self.cbits + self.ebits * j) for j in range(nv)]
        self._slices: dict[int, tuple[list[int], dict[int, int], list[int]]] = {}
        self._restricted: dict[Monomial, dict[int, int]] = {}
        self.trace_form = {units[a * (n + 1)]: -1 for a in range(n - 1)}
        # The sl_n weight e_i - e_j of x_ij, as the int B^i - B^j.  A pair
        # f * V has weight weight(f) + weight(V); brackets and products add
        # weights, and substituting for x_nn (weight 0) keeps them.  A
        # grade-d weight has coordinates of size at most d + 2 < B / 2, so
        # the encoding is one-to-one on them.
        base = 2 * max_degree + 5
        self.var_weights = [base ** (v // n) - base ** (v % n) for v in range(nv)]
        ids = generator_ids(n)
        # Theta_ab = sum_j x_bj d/dx_aj - ..., of weight e_b - e_a; Xi_a: 0
        self.gen_weights = [self.var_weights[(g.b - 1) * n + g.a - 1] if isinstance(g, Theta)
                            else 0 for g in ids]
        # V(x_v) on tr = 0, the component v of each generator's table, by the
        # unit key of x_v
        tables = [generator_components(n, g) for g in ids]
        self.images = [{units[v]: self.restrict(t[v]) if v in t else {} for v in range(nv)}
                       for t in tables]
        # [W, V] = sum c * U, from [A_W, A_V] in the basis of the matrices,
        # each given by its at most two nonzero entries; once per unordered
        # pair, as [V, W] = -[W, V] and [V, V] = 0
        entries = [[(i, j, c) for i, row in enumerate(generator_matrix(n, g))
                    for j, c in enumerate(row) if c] for g in ids]
        self.structure = structure = [[[] for _ in ids] for _ in ids]
        for a, A in enumerate(entries):
            for b in range(a + 1, len(ids)):
                structure[a][b] = _sl_coordinates(n, _commutator_entries(A, entries[b]))
                structure[b][a] = [(u, -c) for u, c in structure[a][b]]

    def _slice(self, degree: int) -> tuple[list[int], dict[int, int], list[int]]:
        """The keys of the degree-`degree` monomials in `slice_monomials`
        order, the index of each key and the weight of each monomial, built
        once per degree."""
        got = self._slices.get(degree)
        if got is None:
            units, var_weights = self.units, self.var_weights
            combos = list(combinations_with_replacement(range(self.nv), degree))
            keys = [sum(units[v] for v in combo) for combo in combos]
            got = self._slices[degree] = (keys, {m: i for i, m in enumerate(keys)},
                                          [sum(var_weights[v] for v in combo) for combo in combos])
        return got

    def monomials(self, degree: int) -> list[int]:
        """Keys of the degree-`degree` monomials, in `slice_monomials` order."""
        return self._slice(degree)[0]

    def index(self, degree: int) -> dict[int, int]:
        """The index in `monomials(degree)` of each key there."""
        return self._slice(degree)[1]

    def weights(self, d: int) -> list[int]:
        """The weight of each grade-d target pair f*V, in pair-index order."""
        return [fw + gw for fw in self._slice(d)[2] for gw in self.gen_weights]

    def block_count(self, d: int) -> int:
        """The number of distinct weights of the grade-d pairs, with no pair
        listed.  The generators' weights, like the coordinates', are 0 and the
        roots, so a pair's weight is that of a degree-(d + 1) monomial: a sum
        of d + 1 coordinate weights."""
        steps, sums = set(self.var_weights), {0}
        for _ in range(d + 1):
            sums = {s + w for s in sums for w in steps}
        return len(sums)

    def factors(self, key: int) -> list[tuple[int, int]]:
        """(v, e_v) for the variables x_v of a packed monomial, e_v > 0."""
        mask, shift = (1 << self.ebits) - 1, self.cbits
        return [(v, e) for v in range(self.nv) if (e := key >> (shift + self.ebits * v) & mask)]

    def restrict(self, p: Polynomial) -> dict[int, int]:
        """The polynomial p on tr = 0; each monomial's image is computed once."""
        images = self._restricted
        terms = []
        for mono, c in p.terms.items():
            image = images.get(mono)
            if image is None:
                image = {sum(e * self.units[v] for v, e in mono.powers if v < self.nv): 1}
                for _ in range(mono.exponent(self.nv)):
                    image = _mul(image, self.trace_form)
                images[mono] = image
            terms.append((image, c))
        return _sum(terms)


class _PairBrackets:
    """The bracket of a grade-e pair h*W with a grade-(d-e) pair f*V, for
    e = 0 or 1, in the pair coordinates of grade d.  In the orientation of
    `adjointfields.bracket`,

        [h*W, f*V] = f*V(h)*W - h*W(f)*V + f*h*[W, V],

    with V(h) and W(f) taken on tr = 0 (`_TracelessFields.images`) and
    [W, V] from the structure constants of `generator_matrix`.

    W(f) is summed by the Leibniz rule on the packed keys, from W(x_v) on
    tr = 0 in `ring.images`; `adjointfields.add_derivation` would keep the
    x_nn terms.  The closure uses e = 0; the tests' reference step and lemma
    checks use e = 1.  `test_vector_bracket_matches_polynomial_bracket`
    checks the closed form against `adjointfields.bracket`."""

    def __init__(self, ring: _TracelessFields, e: int, d: int):
        self.ring, self.nv = ring, ring.nv
        self.left = ring.monomials(e)
        self.right = ring.monomials(d - e)
        self.offset = {m: i * ring.nv for i, m in enumerate(ring.monomials(d))}
        self.images, self.structure = ring.images, ring.structure
        # right monomial index j -> W(f) for each generator W, built when
        # a bracket first uses f = right[j]
        self.derivatives: dict[int, list[list[tuple[int, int]]]] = {}

    def _derive(self, j: int) -> list[list[tuple[int, int]]]:
        """W(f) for f = right[j] and each generator W: e_v (f / x_v) W(x_v)
        summed over the factors x_v^e_v of f."""
        f, units = self.right[j], self.ring.units
        factors = [(f - units[v], units[v], e) for v, e in self.ring.factors(f)]
        rows = self.derivatives[j] = []
        for image in self.images:
            row: dict[int, int] = {}
            for shift, unit, e in factors:
                for m, c in image[unit].items():
                    row[shift + m] = row.get(shift + m, 0) + e * c
            rows.append([(m, c) for m, c in row.items() if c])
        return rows

    def add(self, a: int, b: int, scale: int, out: dict[int, int]):
        """out += scale * [pair a, pair b], for a left and b right pair index."""
        nv, offset, get = self.nv, self.offset, out.get
        i, W = divmod(a, nv)
        j, V = divmod(b, nv)
        h, f = self.left[i], self.right[j]
        for m, c in self.images[V].get(h, {}).items():    # V(h), when h is a variable
            k = offset[f + m] + W
            out[k] = get(k, 0) + scale * c
        rows = self.derivatives.get(j)
        if rows is None:
            rows = self._derive(j)
        for m, c in rows[W]:
            k = offset[m + h] + V
            out[k] = get(k, 0) - scale * c
        base = offset[f + h]
        for U, c in self.structure[W][V]:
            k = base + U
            out[k] = get(k, 0) + scale * c


# ---------------------------------------------------------------------------
# closure engine


@dataclass
class DegreeReport:
    n: int
    grade: int
    method: str                      # "pair-coordinate", or "pair-coordinate/weight-lemma" (d >= 2)
    operands: str                    # "seeds" (grades 0-1) or "T_1 x T_{d-1}", the lemmas' brackets
    target_rank: int                 # |F_d|: monomial x generator pairs (traceless)
    achieved_rank: int               # pairs proved in L: all when certified
    missing_witnesses: list[str]     # pairs outside span(B) of open blocks (d >= 2: block 0's); count
    sl_rank: int | None              # certified: rank T_d = target_rank - relation_rank
    sl_target_component_rank: int    # target_rank - relation_rank: rank T_d by Kostant's count
    gl_rank: int                     # kept vectors B: rank_p(B) (d >= 2: the grade's own seeds)
    brackets_evaluated: int          # brackets computed (none at d >= 2)
    brackets_skipped: int            # brackets of the walk not computed, their block full
    blocks: int                      # weight blocks of the grade
    blocks_computed: int             # blocks the walk filled: all at grades 0-1, none above
    complete: bool                   # fixed point, full rank or operands exhausted within budget
    certified: bool                  # every pair in L and rank T_d proven (`_certify_degree`)
    prime: int                       # p of the echelon of B
    relation_rank: int               # dim ker Phi at grade d, Kostant's count (`_certify_degree`)


@dataclass
class ClosureResult:
    n: int
    max_degree: int
    spans: dict[int, list[dict[int, int]]]  # grade -> kept vectors B, in pair coordinates
    reports: dict[int, DegreeReport]
    complete: bool


def closure(seeds: list[Seed], max_degree: int, budget_brackets: int | None = None,
            budget_ms: float | None = None) -> ClosureResult:
    """Bracket-closure of the seed set, graded by coefficient degree, in pair
    coordinates (`_TracelessFields`): a vector of grade d stands for the sum
    of c * f * V over the degree-d monomials f and generators V, on tr = 0.

    Grades 0 and 1 put their seeds (checked by `_seed_ring`) and then
    brackets into one mod-p echelon over the pair coordinates, and keep a
    vector exactly when it is new there: `spans[d]` lists the kept vectors
    B, each a seed or a formal bracket of pair vectors whose fields lie in
    the algebra (a section of the action Lie algebroid, see
    `_certify_degree`), so its own field does too.  Nothing else goes in: a
    block is full when B alone has rank |F_w| there.  Every pair and bracket
    is homogeneous for the sl_n torus weight (`_TracelessFields.var_weights`),
    so the echelon is one `ModularRowSpace` graded by pair weight, whose
    `open_blocks` are the weights still below the rank of their pair count;
    a bracket's weight, the sum of its operands', is known before it is
    taken.  The walk goes over the growing list of kept vectors and brackets
    each with each kept grade-0 vector (at grade 0, each one kept before it),
    by the closed form of `_PairBrackets` with h = 1, linear in both
    operands.  It skips a bracket whose block is not open
    (`brackets_skipped`) and stops once no block is open.

    A grade d >= 2 takes no bracket: two lemmas of `_certify_degree` prove
    it from grade 1.  It builds an echelon only for its own seeds, or for
    its witnesses when grade 1 is not certified.

    Soundness does not rest on the weight prediction: a kept vector goes to
    the block its own coordinates name (across two blocks it raises
    `GradingError`).  The budgets bound grades 0 and 1, the only ones that
    take brackets.  When one runs out the closure stops after reporting
    that grade: later grades get no `spans` or `reports` entry, and
    `complete` is False.  A grade 0 or 1 that would start after `budget_ms`
    has passed is not started.  `budget_brackets` counts the brackets
    computed, not those skipped.
    """
    n = _seed_ring(seeds)
    deadline = time.monotonic() + budget_ms / 1000.0 if budget_ms is not None else None
    ring = _TracelessFields(n, max_degree)
    spans: dict[int, list[dict[int, int]]] = {}
    reports: dict[int, DegreeReport] = {}
    brackets_done = 0

    complete = True
    for d in range(max_degree + 1):
        if d <= 1 and deadline is not None and time.monotonic() > deadline:
            complete = False
            break
        proved = d <= 1 or reports[1].certified
        kept = spans[d] = []
        space = None
        if d <= 1 or not proved or any(s.grade == d for s in seeds):
            space = ModularRowSpace(CLOSURE_PRIME, ring.weights(d))
            index = ring.index(d)
            for s in seeds:
                if s.grade == d:
                    gi = _generator_index(n)[s.generator]
                    vec = {index[m] * ring.nv + gi: c for m, c in ring.restrict(s.coefficient).items()}
                    if space.insert(vec):
                        kept.append(vec)
        begun, skipped = brackets_done, 0
        if d <= 1:
            # the walk: `kept` grows as it is walked; a grade-0 pair's index is its
            # generator's.  Each weight is read once: the grade-0 operands' in
            # `zero_weights` (grown with `kept` at grade 0), the walked vector's in wx
            brackets = _PairBrackets(ring, 0, d)
            weights, open_blocks = space.block_of, space.open_blocks
            zero_weights = [ring.gen_weights[next(iter(u))] for u in spans[0]] if d else []
            for j, x in enumerate(kept):
                wx = weights[next(iter(x))]
                if not d:
                    zero_weights.append(wx)
                for u, wu in zip(spans[0] if d else kept[:j], zero_weights):
                    if not open_blocks:
                        break
                    if wu + wx not in open_blocks:
                        skipped += 1
                        continue
                    if ((deadline is not None and time.monotonic() > deadline)
                            or (budget_brackets is not None and brackets_done >= budget_brackets)):
                        complete = False
                        break
                    brackets_done += 1
                    out: dict[int, int] = {}
                    for a, ua in u.items():
                        for b, xb in x.items():
                            brackets.add(a, b, ua * xb, out)
                    out = {k: c for k, c in out.items() if c}
                    if space.insert(out):
                        kept.append(out)
                if not (complete and open_blocks):
                    break
        reports[d] = _certify_degree(ring, d, space, proved, len(kept), brackets_done - begun,
                                     skipped, complete)
        if not complete:
            break

    return ClosureResult(n, max_degree, spans, reports, complete)


def _seed_ring(seeds: list[Seed]) -> int:
    """The n of the seeds' n x n matrices, read off the first seed.  Raises
    `PreconditionError`, naming the seed, unless every seed is a pair f*V on
    n x n matrices with V one of n's generators and f homogeneous of its
    grade, which is not negative."""
    if not seeds:
        raise PreconditionError("empty seed set")
    n = isqrt(seeds[0].coefficient.nvars)
    gens = _generator_index(n)
    for i, s in enumerate(seeds):
        f = s.coefficient
        if f.nvars != n * n:
            problem = f"its coefficient has {f.nvars} variables, not {n * n}"
        elif s.generator not in gens:
            problem = f"{s.generator} is not a generator for n = {n}"
        elif s.grade < 0:
            problem = "its grade is negative"
        elif not f.is_homogeneous(s.grade):
            problem = f"{format_poly(f)} is not homogeneous of degree {s.grade}"
        else:
            continue
        raise PreconditionError(f"seed {i} ({s.generator}, grade {s.grade}): {problem}")
    return n


def _certify_degree(ring: _TracelessFields, d: int, space: ModularRowSpace | None,
                    proved: bool, gl_rank: int, evaluated: int, skipped: int,
                    complete: bool) -> DegreeReport:
    """The pair-coordinate certificate of a grade.

    F_d are the grade-d pairs f*V, Phi the map from pair coordinates to
    fields on tr = 0, T_d = Phi(Q^{F_d}) and L the Lie algebra the seeds
    generate.  The pair vectors, with the closed-form bracket of
    `_PairBrackets`, are the sections of the action Lie algebroid
    C[sl_n] (x) sl_n, and its anchor Phi is a Lie algebra homomorphism
    (`test_vector_bracket_matches_polynomial_bracket` checks the closed form
    against the bracket of fields).

    Grades 0 and 1.  B are the kept vectors: seeds, whose fields are in L,
    or formal brackets of two vectors whose fields are in L, so Phi(B) lies
    in L.  If

        rank_p(B) = |F_d|,

    then B spans F_p^{F_d}, hence Q^{F_d} (integer vectors independent mod p
    are independent over Q), so Phi(span B) = T_d lies in L: every pair is
    in L.  Everything is graded by weight, so this holds block by block:
    rank_p(B_w) = |F_w| gives Phi(span B_w) = T_{d,w}, and every pair of
    weight w is in L.  The converse fails: a seed set whose brackets reach
    T_{d,w} only modulo ker Phi (the Theta seeds alone, at grade 1) leaves
    the block open, unproven rather than disproved.

    Grades d >= 2 are certified exactly when grade 1 is (`proved`), by
    induction on d.  S_d is the span of the brackets of grade-1 pairs with
    grade-(d-1) pairs.  When grades 1 and d - 1 are certified, every pair of
    those grades is in L, so Phi(S_d) lies in L; the weight lemma and the
    weight-0 lemma below put every grade-d pair in S_d, so grade d is
    certified with no bracket computed.

    Notation: Xi_a(f) = lambda_f(a) * f for a monomial f on tr = 0 and
    [Xi_a, V] = mu_V(a) * V, in the orientation of `adjointfields.bracket`.
    Diagonal coordinates have lambda = 0; each off-diagonal x_ab has its own
    root weight lambda_ab = mu_{Theta_ab}, and no root is a multiple of
    another.  A pair f*V has block weight lambda_f - mu_V.  By the closed
    form, whose terms all have the weight of the bracket,

        [x_u*Xi_a, f*V] = (mu_V - lambda_f)(a) * x_u f*V + f*V(x_u)*Xi_a.

    The weight lemma: for d >= 2, every grade-d pair of nonzero weight w is
    in S_d.
    1. Root pairs g*Theta of weight w != 0.  Choose x_u | g with
       lambda_{g/x_u} != mu_Theta, and an a where the coefficient
       (mu_Theta - lambda_{g/x_u})(a) is nonzero.  The bracket
       [x_u*Xi_a, (g/x_u)*Theta] is a nonzero multiple of g*Theta plus
       Cartan-valued pairs h*Xi_c of weight w, so g*Theta is in S_d once
       they are.  No x_u works only when every x_u | g has lambda_u =
       lambda_g - mu_Theta = w: then g = x_ab^d with lambda_ab = w and
       mu_Theta = (d - 1) w, a root only for d = 2: the pair x_ab^2*Theta_ab.
    2. Cartan pairs h*Xi_b with lambda_h != 0.  Write f = h/x_u.  Then
       [x_u*Xi_a, f*Xi_b] = lambda_u(b) * h*Xi_a - lambda_f(a) * h*Xi_b.
       - A diagonal x_u | h gives -lambda_h(a) * h*Xi_b; take a with
         lambda_h(a) != 0.
       - Otherwise, a u with lambda_u != lambda_f makes these brackets span
         h (x) h: for c with lambda_u(c) != lambda_f(c), the (c, c) bracket
         gives h*Xi_c, and for a != c the (a, c) or the (c, a) bracket
         gives h*Xi_a modulo h*Xi_c, as lambda_u(c) and lambda_f(c) are not
         both 0.
       - This fails only when every x_u | h has 2 lambda_u = lambda_h != 0:
         h = x_ab^d with d lambda_ab = 2 lambda_ab, so d = 2 and h = x_ab^2.
    3. The d = 2 exceptions, for a != b.  Let x_dd = x_aa, or x_bb when
       a = n.  Theta_ba(x_ab) has weight 2 lambda_ab, no coordinate's, so it
       is 0; Theta_ba(x_dd) = +-x_ab; Theta_ab(x_ab) is diagonal.
       - [x_ab*Xi_c, x_dd*Theta_ba] = lambda_ba(c) * x_dd x_ab*Theta_ba, a
         single nonzero multiple for some c, because its Cartan term
         vanishes.
       - [x_dd*Xi_c, x_ab*Theta_ba] is +-x_ab^2*Xi_c plus a multiple of
         x_dd x_ab*Theta_ba, so it gives x_ab^2*Xi_c for every c.
       - [x_dd*Theta_ab, x_ab*Theta_ba] is +-x_ab^2*Theta_ab, plus root
         pairs x_dd x_ee*Theta_ba and Cartan pairs x_dd x_ab*Xi_c of weight
         lambda_ab, which steps 1-2 cover.
    Steps 2 and 3 put every Cartan pair of nonzero weight in S_d, step 1
    then every root pair but x_ab^2*Theta_ab, and step 3 those.  Checked
    against `_PairBrackets.add` up to n = 5 (`test_weight_lemma_family`).

    The weight-0 lemma: for d >= 2, every grade-d pair of weight 0 is in
    S_d.  Write y_a for x_aa on tr = 0 and alpha_ab = lambda_ab.
    a. Root pairs g*Theta of weight 0.  lambda_g = mu_Theta != 0, so g has an
       off-diagonal factor x_u, and the coefficient of g*Theta in
       [x_u*Xi_a, (g/x_u)*Theta] is lambda_u(a), nonzero for some a: the
       bracket reduces g*Theta to Cartan pairs of weight 0.
    b. Cartan pairs h*Xi_b with lambda_h = 0, h not diagonal.  An
       off-diagonal x_u | h has lambda_u != lambda_{h/x_u} = -lambda_u, so
       step 2's second bullet puts them in S_d.
    c. Diagonal Cartan pairs, n >= 3.  For K = sum k_c Xi_c in ker alpha_ab
       and a diagonal monomial f of degree d - 1, the first term vanishes:
       [x_ab*K, f*Theta_ab] = f*Theta_ab(x_ab)*K = +-(y_a - y_b)*f*K.  Every
       degree-d diagonal polynomial is a sum of products of d roots.
       - A product P with two non-proportional roots beta and gamma: the
         hyperplanes ker beta and ker gamma span the Cartan, so every
         K_beta + K_gamma, K_beta in ker beta and K_gamma in ker gamma,
         gives P * (K_beta + K_gamma).
       - A product beta^d, beta = y_a - y_b: beta = (y_a - y_c) + (y_c - y_b)
         for some c not in {a, b} (n >= 3) splits it into two products of
         the first kind (d >= 2).
    d. n = 2, the one diagonal Cartan pair x11^d*Xi1.  The bracket
       [x11*Theta12, x11^(d-1)*Theta21] is x11^d*Xi1 - x11^(d-1) x12*Theta12
       - (d - 1) x11^(d-1) x21*Theta21, and step a's brackets
       [x12*Xi1, x11^(d-1)*Theta12] = 2 x11^(d-1) x12*Theta12 - 2 x11^d*Xi1
       and [x21*Xi1, x11^(d-1)*Theta21] = 2 x11^d*Xi1 - 2 x11^(d-1) x21*Theta21
       reduce it to (1 - d) * x11^d*Xi1, nonzero for d >= 2.
    Steps c and d put the diagonal Cartan pairs in S_d, step b the other
    Cartan pairs of weight 0, and step a then the root pairs.  Checked
    against `_PairBrackets.add` up to n = 6 (`weight_zero_family` in the
    tests).

    The rank of T_d is |F_d| - dim ker Phi_d, and dim ker Phi_d is
    `relation_rank` = sum over k = 1..min(d, n-1) of C(n^2 + d - k - 2,
    d - k), the number of relations mu * R_k, R_k the generator coordinates
    of n X^k - tr(X^k) I and mu a degree-(d-k) monomial.  Spanning: by
    Kostant (1963), a polynomial map commuting with X is a combination of
    I, X, ..., X^(n-1) with polynomial coefficients, so these relations
    span ker Phi.  Independence: at a regular semisimple X the matrices
    I, X, ..., X^(n-1) are independent, so sum_k c_k(X) * (n X^k -
    tr(X^k) I) = 0 forces every c_k to vanish on a dense set, hence to be
    0.  So a certified grade has `sl_rank` = |F_d| - `relation_rank`.

    A grade 0 or 1 that is not certified lists in `missing_witnesses` the
    pairs of its open blocks outside span(B) mod p.  A grade d >= 2 that is
    not certified lists block 0's pairs outside the span of its own seeds,
    then a line counting the pairs of nonzero weight, unproven too.
    `achieved_rank` counts the rest.
    """
    n, nv = ring.n, ring.nv
    target = nv * comb(nv + d - 1, d)
    certified, witnessed, unproven = proved, (), 0
    if d <= 1:
        certified = not space.open_blocks
        witnessed = space.open_blocks
    elif not proved:
        witnessed = {0} & space.open_blocks
        unproven = target - space.sizes[0]
    missing = []
    if witnessed:
        gens = generator_ids(n)
        monos = list(slice_monomials(nv, d))
        missing = [f"{format_poly(Polynomial.from_monomial(n * n, monos[i // nv]))} * "
                   f"{gens[i % nv].label()}"
                   for i, w in enumerate(space.block_of)
                   if w in witnessed and not space.contains({i: 1})]
    achieved = target - len(missing) - unproven
    if unproven:
        missing.append(f"{unproven} pairs of nonzero weight are unproven: the weight lemma "
                       "needs grades 1 and d - 1 certified")
    relation_rank = sum(comb(n * n + d - k - 2, d - k) for k in range(1, min(d, n - 1) + 1))
    blocks = ring.block_count(d)
    return DegreeReport(
        n=n, grade=d,
        method="pair-coordinate" if d <= 1 else "pair-coordinate/weight-lemma",
        operands="seeds" if d <= 1 else "T_1 x T_{d-1}",
        target_rank=target, achieved_rank=achieved,
        missing_witnesses=missing,
        sl_rank=target - relation_rank if certified else None,
        sl_target_component_rank=target - relation_rank,
        gl_rank=gl_rank,
        brackets_evaluated=evaluated, brackets_skipped=skipped,
        blocks=blocks, blocks_computed=blocks if d <= 1 else 0,
        complete=complete, certified=certified,
        prime=CLOSURE_PRIME, relation_rank=relation_rank,
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
    build: Callable[[int, random.Random | None], _Instance]
    verified_form: str
    printed_form: str | None = None     # the commonly quoted form; None: the verified one
    randomized: bool = False            # checked on _DRAWS random instances, not once


def _theta_xi(n: int) -> tuple[VectorField, VectorField, VectorField, Polynomial]:
    """Theta12, Theta21, Xi1 and x12 on n x n matrices."""
    return (generator_field(n, Theta(1, 2)), generator_field(n, Theta(2, 1)),
            generator_field(n, Xi(1)), Polynomial.x(1, 2, n))


def _xi_bracket(n: int, rng: None) -> _Instance:
    t12, t21, xi1, _ = _theta_xi(n)
    return bracket(t12, t21), xi1, xi1


def _d1_linear(n: int, rng: None) -> _Instance:
    t12, t21, xi1, x12 = _theta_xi(n)
    x22 = Polynomial.x(2, 2, n)
    rhs = scale_field(x22, xi1) + scale_field(x12, t12)
    return bracket(scale_field(x22, t12), t21), rhs, rhs


def _d2_shear_detour(n: int, rng: None) -> _Instance:
    t12, t21, xi1, x12 = _theta_xi(n)
    rhs = scale_field(2 * x12 * t12.apply(x12), t21) - scale_field(x12 * x12, xi1)
    return bracket(scale_field(x12 * x12, t21), t12), rhs, rhs


def _d2_hyperbolic(n: int, rng: None) -> _Instance:
    t12, _, xi1, x12 = _theta_xi(n)
    lhs = (2 * bracket(scale_field(x12, xi1), scale_field(x12, t12))
           - bracket(scale_field(x12 * x12, xi1), t12))
    return lhs, scale_field((-2) * (x12 * x12), t12), scale_field(6 * (x12 * x12), t12)


def _general_step(deg: int) -> Callable[[int, None], _Instance]:
    def build(n: int, rng: None) -> _Instance:
        t12, _, xi1, x12 = _theta_xi(n)
        xpow, top = x12 ** deg, x12 ** (deg + 1)
        lhs = (deg * bracket(scale_field(x12, xi1), scale_field(xpow, t12))
               - bracket(scale_field(xpow, xi1), scale_field(x12, t12)))
        return (lhs, scale_field((-2 * deg * (deg - 1)) * top, t12),
                scale_field((2 * (deg * deg + deg - 2)) * top, t12))
    return build


def _random_monomial(rng: random.Random, n: int, max_degree: int) -> Polynomial:
    """x_v1 * ... * x_vk, k and each v drawn from rng, as one packed key."""
    deg = rng.randrange(1, max_degree + 1)
    key = sum(1 << (rng.randrange(n * n) << 6) for _ in range(deg))
    _cover(n * n)
    return Polynomial.from_monomial(n * n, int.__new__(Monomial, key))


@cache
def _draw_ids(n: int) -> tuple[tuple[GeneratorId, ...], tuple[Theta, ...]]:
    """The generator ids and the Theta ids among them, the lists a
    cross-term draw chooses from."""
    gens = tuple(generator_ids(n))
    return gens, tuple(g for g in gens if isinstance(g, Theta))


def _cross_term(n: int, rng: random.Random) -> _Instance:
    a = _random_monomial(rng, n, 1)
    f = _random_monomial(rng, n, 2)
    g = _random_monomial(rng, n, 2)
    gens, thetas = _draw_ids(n)
    T = generator_field(n, rng.choice(thetas))
    L = generator_field(n, rng.choice(gens))
    lhs = bracket(scale_field(a * f, T), scale_field(g, L)) \
        - bracket(scale_field(f, T), scale_field(a * g, L))
    fg = f * g
    rhs = scale_field(fg * T.apply(a), L) + scale_field(fg * L.apply(a), T)
    return lhs, rhs, -rhs


def _hyperbolic_step(n: int, rng: random.Random) -> _Instance:
    t12, t21, xi1, _ = _theta_xi(n)
    f = _random_monomial(rng, n, 3)
    shear = scale_field(t21.apply(f), t12)
    return (bracket(t21, scale_field(f, t12)),
            -scale_field(f, xi1) - shear, scale_field(f, xi1) - shear)


# Builders take (n, rng) and return (lhs, verified rhs, printed rhs); the
# printed rhs is the commonly quoted form where it differs.  Only randomized
# identities draw from rng; the others get None.
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
    if n < 2:
        raise ValueError(f"identity verification needs n >= 2, got n={n}")
    entry = _CATALOG[name]
    rng = random.Random(seed) if entry.randomized else None
    holds = matches_printed = True
    for _ in range(_DRAWS if entry.randomized else 1):
        lhs, verified, printed = entry.build(n, rng)
        # fields are canonical (no zero term or component), so == is exact
        holds = holds and lhs == verified
        matches_printed = matches_printed and lhs == printed
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
