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
brackets every grade-1 pair with every grade-(d-1) pair, which lie in L
once those grades are certified.

Each grade is certified with one prime `CLOSURE_PRIME` (`_certify_degree`):
when the kept vectors B and the relations Rel (checked exactly to vanish as
fields) span all pairs mod p, they span them over Q, so every pair is in L.
The relations are those of Kostant (1963): n times the traceless part of
X^k times a monomial, for k = 1..n-1.  They span the kernel of the map from
pairs to fields (e.g. 2*x12*Theta12 + 2*x21*Theta21 + (x11-x22)*Xi1 = 0 on
2x2 matrices), so, when none is lost mod p, the rank of the target fields
is the pair count minus the relation rank; reports carry both numbers.

Every generator field, seed, bracket and pair is homogeneous for the
weights of the diagonal torus of SL_n (x_ij has weight e_i - e_j), and so
is every relation, because X^k commutes with X.  The echelon therefore
splits into weight blocks, and a bracket that lands in a block already at
full rank is skipped, not computed (`closure`).
"""
from __future__ import annotations

import random
import time
from collections import Counter
from itertools import combinations, combinations_with_replacement, product
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
    generator_matrix,
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


def build_seeds(n: int) -> list[Seed]:
    """All overshear pairs (monomial f of degree <= 1, basis generator g)
    with g^2(f) = 0: the constant f = 1, giving the generators themselves,
    then each variable in flat order with each generator.  Grade 2 and
    above come from brackets of grade-1 pairs (`closure`).

    Read off the matrix B = `generator_matrix(n, g)`: g acts on the matrix
    X of coordinates as ad_B(X) = BX - XB, so g^2(x_ij) is the (i, j) entry
    of ad_B^2(X) = B^2 X - 2 BXB + X B^2, and x_ij is a seed for g iff
    each coefficient of x_kl there, S_ik [l = j] - 2 B_ik B_lj + [k = i] S_lj
    with S = B^2, is 0.  `adjointfields.overshear_class` is the oracle the
    tests compare with."""
    if n < 2:
        raise PreconditionError("n must be at least 2")
    nvars = n * n
    gens = generator_ids(n)
    seeds = [Seed(Polynomial.constant(nvars, 1), g, 0) for g in gens]
    mats = [generator_matrix(n, g) for g in gens]
    squares = [[[sum(B[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
               for B in mats]
    for i, j in product(range(n), repeat=2):
        for g, B, S in zip(gens, mats, squares):
            if not any(S[i][k] * (l == j) - 2 * B[i][k] * B[l][j] + (k == i) * S[l][j]
                       for k in range(n) for l in range(n)):
                seeds.append(Seed(Polynomial.variable(nvars, i * n + j), g, 1))
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


def _sl_coordinates(ids: list[GeneratorId], C: list[list[int]]) -> list[tuple[int, int]]:
    """(generator index, coefficient) of a traceless integer matrix C in the
    basis of `generator_matrix`: C_ab at Theta_ab, C_11 + ... + C_aa at Xi_a."""
    coords = [(gi, C[g.a - 1][g.b - 1] if isinstance(g, Theta)
               else sum(C[i][i] for i in range(g.a))) for gi, g in enumerate(ids)]
    return [(gi, c) for gi, c in coords if c]


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
        self.trace_form = {units[a * (n + 1)]: -1 for a in range(n - 1)}
        # the matrix X on tr = 0, entries as packed polynomials
        self.X = X = [[{units[i * n + j]: 1} if i * n + j < nv else self.trace_form
                       for j in range(n)] for i in range(n)]
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
        # V(x_ij) = (BX - XB)_ij on tr = 0 for the matrix B of each generator
        # V, by the unit key of x_ij; the generator fields, components 0..nv-1
        mats = [generator_matrix(n, g) for g in ids]
        self.images = [{units[v]: _sum([(X[k][v % n], B[v // n][k]) for k in range(n)]
                                       + [(X[v // n][k], -B[k][v % n]) for k in range(n)])
                        for v in range(nv)} for B in mats]
        self.gens = [{m + v: c for v in range(nv) for m, c in image[units[v]].items()}
                     for image in self.images]
        # [W, V] = sum c * U, from [A_W, A_V] in the basis of the matrices
        self.structure = [[_sl_coordinates(ids, [[sum(A[i][k] * B[k][j] - B[i][k] * A[k][j]
                                                      for k in range(n)) for j in range(n)]
                                                 for i in range(n)])
                           for B in mats] for A in mats]

    def _linear(self, values: list[int], degree: int) -> list[int]:
        """sum_v e_v * values[v] for the exponent vector e of each
        degree-`degree` monomial, in `slice_monomials` order."""
        return [sum(values[v] for v in combo)
                for combo in combinations_with_replacement(range(self.nv), degree)]

    def monomials(self, degree: int) -> list[int]:
        """Keys of the degree-`degree` monomials, in `slice_monomials` order."""
        return self._linear(self.units, degree)

    def pairs(self, d: int) -> tuple[list[dict[int, int]], list[int]]:
        """The grade-d target pairs f*V as packed fields, in pair-index
        order, and the weight of each."""
        pairs = [{f + k: c for k, c in g.items()} for f in self.monomials(d) for g in self.gens]
        weights = [fw + gw for fw in self._linear(self.var_weights, d) for gw in self.gen_weights]
        return pairs, weights

    def restrict(self, p: Polynomial) -> dict[int, int]:
        """The polynomial p on tr = 0."""
        terms = []
        for mono, c in p.terms.items():
            term = {sum(e * self.units[v] for v, e in mono.powers if v < self.nv): c}
            for _ in range(mono.exponent(self.nv)):
                term = _mul(term, self.trace_form)
            terms.append((term, 1))
        return _sum(terms)

    def relations(self, d: int) -> list[dict[int, int]]:
        """Relations among the grade-d target pairs, as pair vectors: for
        k = 1..min(d, n-1), n times the traceless part of X^k in generator
        coordinates, times each degree-(d-k) monomial.  X^k commutes with X,
        so the matching combination of the fields f*V vanishes."""
        n, nv, X = self.n, self.nv, self.X
        index = {m: i for i, m in enumerate(self.monomials(d))}
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


class _PairBrackets:
    """The bracket of a grade-e pair h*W with a grade-(d-e) pair f*V, for
    e = 0 or 1, in the pair coordinates of grade d.  In the orientation of
    `adjointfields.bracket`,

        [h*W, f*V] = f*V(h)*W - h*W(f)*V + f*h*[W, V],

    with V(h) and W(f) taken on tr = 0 (`_TracelessFields.images`) and
    [W, V] from the structure constants of `generator_matrix`."""

    def __init__(self, ring: _TracelessFields, e: int, d: int):
        nv = self.nv = ring.nv
        self.left = ring.monomials(e)
        self.right = ring.monomials(d - e)
        self.offset = {m: i * nv for i, m in enumerate(ring.monomials(d))}
        self.images, self.structure, units = ring.images, ring.structure, ring.units
        # W(f) for each right monomial f and generator W: (f / x_v) * W(x_v)
        # summed over the factors x_v of f, repeated ones included
        self.derivatives = [
            [list(_sum(({f - units[v] + m: c for m, c in image[units[v]].items()}, 1)
                       for v in combo).items()) for image in self.images]
            for f, combo in zip(self.right, combinations_with_replacement(range(nv), d - e))]

    def add(self, a: int, b: int, scale: int, out: dict[int, int]):
        """out += scale * [pair a, pair b], for a left and b right pair index."""
        nv, offset, get = self.nv, self.offset, out.get
        i, W = divmod(a, nv)
        j, V = divmod(b, nv)
        h, f = self.left[i], self.right[j]
        for m, c in self.images[V].get(h, {}).items():    # V(h), when h is a variable
            k = offset[f + m] + W
            out[k] = get(k, 0) + scale * c
        for m, c in self.derivatives[j][W]:
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
    method: str                      # "pair-coordinate": the certificate of `_certify_degree`
    operands: str                    # "seeds" (grades 0-1) or "T_1 x T_{d-1}"
    target_rank: int                 # |F_d|: monomial x generator pairs (traceless)
    achieved_rank: int               # pairs in span(B + Rel) mod p: all when certified
    missing_witnesses: list[str]     # pairs outside span(B + Rel) mod p (unproven)
    span_rank: int                   # rank_p(B + Rel) in pair coordinates
    sl_rank: int | None              # certified: rank T_d = span_rank - relation_rank
    sl_target_component_rank: int    # target_rank - relation_rank: an upper bound on rank T_d
    gl_rank: int                     # kept vectors B: span_rank - relation_rank
    brackets_evaluated: int          # brackets computed
    brackets_skipped: int            # brackets left out: their weight block was full
    complete: bool                   # fixed point, full rank or operands exhausted within budget
    certified: bool                  # every pair in L and rank T_d proven (`_certify_degree`)
    prime: int                       # p of the echelon of B and Rel
    relation_rank: int               # rank_p of the relations checked to vanish


@dataclass
class ClosureResult:
    n: int
    max_degree: int
    spans: dict[int, list[dict[int, int]]]  # grade -> kept vectors B, in pair coordinates
    reports: dict[int, DegreeReport]
    complete: bool


def closure(seeds: list[Seed], max_degree: int,
            budget_brackets: int | None = None, budget_ms: float | None = None) -> ClosureResult:
    """Bracket-closure of the seed set, graded by coefficient degree, in pair
    coordinates (`_TracelessFields`): a vector of grade d stands for the sum
    of c * f * V over the degree-d monomials f and generators V, on tr = 0.

    Each grade puts its relations Rel (`_relation_blocks`) and then the
    vectors B it keeps into one mod-p echelon over the pair coordinates, and
    keeps a vector exactly when it is new there.  The seeds of a grade come
    first.  Grades 0 and 1 then bracket each kept grade-0 vector with each
    kept vector of the grade, through the closed form of `_PairBrackets`
    with h = 1, which is linear in both operands.  A grade d >= 2 brackets
    every grade-1 pair with every grade-(d-1) pair (a < b at d = 2, where
    both have grade 1); it runs only when grades 1 and d - 1 are certified,
    because only then are these pairs in the Lie algebra.  `spans[d]` lists
    the kept vectors B: each is a pair-coordinate representative of a field
    in the algebra, and a grade stops once B and Rel have full rank.

    Weight blocks.  Every pair, relation and bracket is homogeneous for the
    sl_n torus weight (`_TracelessFields.var_weights`), so the echelon is
    one `BlockedRowSpace` keyed by pair weight.  A bracket's weight, the sum
    of its operands' weights, is known before it is taken; when that block
    already has the rank of its pair count, the bracket is skipped
    (`brackets_skipped`), which loses nothing.  Soundness does not rest on
    the prediction: a kept vector goes to the block its own coordinates
    name (across two blocks it raises `GradingError`).

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
    gen_index = {g: i for i, g in enumerate(generator_ids(n))}
    spans: dict[int, list[dict[int, int]]] = {}
    reports: dict[int, DegreeReport] = {}
    units: dict[int, list[tuple[int, dict[int, int]]]] = {}  # grade -> (weight, unit vector)
    brackets_done = 0

    complete = True
    for d in range(max_degree + 1):
        if deadline is not None and time.monotonic() > deadline:
            complete = False
            break
        pairs, weights = ring.pairs(d)
        units[d] = [(w, {i: 1}) for i, w in enumerate(weights)]
        relations = ring.relations(d)
        space = _relation_blocks(relations, pairs, weights)
        relation_rank = space.rank
        sizes = Counter(weights)
        open_blocks = {w for w, size in sizes.items() if space.block_rank(w) < size}
        kept = spans[d] = []
        weighted: list[tuple[int, dict[int, int]]] = []     # (weight, vector) of each kept
        queue: list = []     # grades 0-1: iterated while it grows

        def keep(vec: dict[int, int]):
            """Keep a vector if it is new mod p; at grades 0 and 1, queue its
            brackets with the kept grade-0 vectors."""
            vec = {k: c for k, c in vec.items() if c}
            if not vec or not space.insert(vec):
                return
            kept.append(vec)
            w = weights[next(iter(vec))]
            if space.block_rank(w) == sizes[w]:
                open_blocks.discard(w)
            if d <= 1:
                queue.extend((u, (w, vec)) for u in (grade0 if d else weighted))
                weighted.append((w, vec))

        if d <= 1:
            brackets, operands_ok, candidates = _PairBrackets(ring, 0, d), True, queue
        else:
            brackets = _PairBrackets(ring, 1, d)
            operands_ok = reports[1].certified and reports[d - 1].certified
            candidates = (() if not operands_ok
                          else combinations(units[1], 2) if d == 2
                          else product(units[1], units[d - 1]))
        for s in seeds:
            if s.grade == d:
                gi = gen_index[s.generator]
                keep({brackets.offset[m] + gi: c for m, c in ring.restrict(s.coefficient).items()})

        evaluated = skipped = 0
        target = len(pairs)
        for (wu, u), (wx, x) in candidates:
            if space.rank == target:
                break
            if wu + wx not in open_blocks:
                skipped += 1
                continue
            if ((deadline is not None and time.monotonic() > deadline)
                    or (budget_brackets is not None and brackets_done >= budget_brackets)):
                complete = False
                break
            out: dict[int, int] = {}
            for a, ua in u.items():
                for b, xb in x.items():
                    brackets.add(a, b, ua * xb, out)
            keep(out)
            evaluated += 1
            brackets_done += 1

        reports[d] = _certify_degree(n, d, space, relation_rank, len(relations), operands_ok,
                                     evaluated, skipped, complete)
        if not complete:
            break
        if d == 0:
            grade0 = weighted

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


def _certify_degree(n: int, d: int, space: BlockedRowSpace, relation_rank: int,
                    relation_count: int, operands_ok: bool, evaluated: int, skipped: int,
                    complete: bool) -> DegreeReport:
    """The pair-coordinate certificate of a grade.

    F_d are the grade-d pairs f*V, Phi the map from pair coordinates to
    fields on tr = 0, T_d = Phi(Q^{F_d}) and L the Lie algebra the seeds
    generate.  B are the kept vectors: seeds, or brackets of two elements of
    L, so Phi(B) lies in L; at grades d >= 2 this needs grades 1 and d - 1
    certified.  The relations Rel lie in ker Phi (checked exactly).  If

        rank_p(B + Rel) = |F_d|,

    then B + Rel spans F_p^{F_d}, hence Q^{F_d} (integer vectors independent
    mod p are independent over Q), so Phi(span B) = T_d: every pair is in L.
    The rank of T_d is |F_d| - dim ker Phi.  By Kostant (1963), a
    polynomial map commuting with X is a combination of I, X, ..., X^(n-1),
    so the relations span ker Phi and are independent over Q; when none is
    lost mod p (rank_p(Rel) = |Rel|), rank T_d = |F_d| - rank_p(Rel)
    (`sl_rank`).  The grade is certified when both hold.  Otherwise
    rank_p(B + Rel) bounds nothing, and the pair unit vectors outside
    span(B + Rel) mod p are listed as unproven in `missing_witnesses`.
    """
    target = len(space.block_of)
    certified = operands_ok and space.rank == target and relation_rank == relation_count
    missing = []
    if space.rank < target:
        nv = n * n - 1
        gens = generator_ids(n)
        monos = list(slice_monomials(nv, d))
        missing = [f"{format_poly(Polynomial.from_monomial(n * n, monos[i // nv]))} * "
                   f"{gens[i % nv].label()}"
                   for i in range(target) if not space.contains({i: 1})]
    return DegreeReport(
        n=n, grade=d, method="pair-coordinate",
        operands="seeds" if d <= 1 else "T_1 x T_{d-1}",
        target_rank=target, achieved_rank=target - len(missing),
        missing_witnesses=missing, span_rank=space.rank,
        sl_rank=space.rank - relation_rank if certified else None,
        sl_target_component_rank=target - relation_rank,
        gl_rank=space.rank - relation_rank,
        brackets_evaluated=evaluated, brackets_skipped=skipped,
        complete=complete, certified=certified,
        prime=space.p, relation_rank=relation_rank,
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
