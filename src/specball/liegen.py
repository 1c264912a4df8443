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
brackets grade-1 pairs with grade-(d-1) pairs, which lie in L once those
grades are certified.

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
is every relation, because X^k commutes with X.  The echelon is therefore
one `linalg.ModularRowSpace` graded by weight, and the certificate holds
block by block.  Conjugation by permutation matrices (S_n) and the
transpose tau permute the blocks and are Lie algebra automorphisms that
keep each grade and the relations, so a grade d >= 2 brackets only in the
block of one representative weight per orbit of S_n x <tau>, block by
block, and a full representative proves its whole orbit (`closure`,
`_certify_degree`).
"""
from __future__ import annotations

import random
import time
from collections import Counter
from itertools import combinations_with_replacement
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

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
        self.trace_form = {units[a * (n + 1)]: -1 for a in range(n - 1)}
        # the matrix X on tr = 0, entries as packed polynomials
        self.X = X = [[{units[i * n + j]: 1} if i * n + j < nv else self.trace_form
                       for j in range(n)] for i in range(n)]
        # The sl_n weight e_i - e_j of x_ij, as the int B^i - B^j.  A pair
        # f * V has weight weight(f) + weight(V); brackets and products add
        # weights, and substituting for x_nn (weight 0) keeps them.  A
        # grade-d weight has coordinates of size at most d + 2 < B / 2, so
        # the encoding is one-to-one on them.
        self.base = base = 2 * max_degree + 5
        self.var_weights = [base ** (v // n) - base ** (v % n) for v in range(nv)]
        ids = generator_ids(n)
        # Theta_ab = sum_j x_bj d/dx_aj - ..., of weight e_b - e_a; Xi_a: 0
        self.gen_weights = [self.var_weights[(g.b - 1) * n + g.a - 1] if isinstance(g, Theta)
                            else 0 for g in ids]
        # V(x_v) on tr = 0, the component v of each generator's table, by the
        # unit key of x_v; the generator fields, components 0..nv-1
        tables = [generator_components(n, g) for g in ids]
        self.images = [{units[v]: self.restrict(t[v]) if v in t else {} for v in range(nv)}
                       for t in tables]
        self.gens = [{m + v: c for v in range(nv) for m, c in image[units[v]].items()}
                     for image in self.images]
        # [W, V] = sum c * U, from [A_W, A_V] in the basis of the matrices,
        # each given by its at most two nonzero entries
        entries = [[(i, j, c) for i, row in enumerate(generator_matrix(n, g))
                    for j, c in enumerate(row) if c] for g in ids]
        self.structure = [[_sl_coordinates(n, _commutator_entries(A, B)) for B in entries]
                          for A in entries]

    def _linear(self, values: list[int], degree: int) -> list[int]:
        """sum_v e_v * values[v] for the exponent vector e of each
        degree-`degree` monomial, in `slice_monomials` order."""
        return [sum(values[v] for v in combo)
                for combo in combinations_with_replacement(range(self.nv), degree)]

    def monomials(self, degree: int) -> list[int]:
        """Keys of the degree-`degree` monomials, in `slice_monomials` order."""
        return self._linear(self.units, degree)

    def weights(self, d: int) -> list[int]:
        """The weight of each grade-d target pair f*V, in pair-index order."""
        return [fw + gw for fw in self._linear(self.var_weights, d) for gw in self.gen_weights]

    def weight_vector(self, w: int) -> tuple[int, ...]:
        """The weight encoded as the int w, as its coordinates in Z^n: the
        balanced base-B digits of w."""
        base, out = self.base, []
        for _ in range(self.n):
            r = w % base
            if r > base // 2:
                r -= base
            out.append(r)
            w = (w - r) // base
        return tuple(out)

    def orbits(self, weights: list[int]) -> dict[int, list[int]]:
        """The distinct weights grouped by orbit of S_n x <tau>, keyed by the
        orbit's representative.  S_n permutes the coordinates of a weight
        and tau negates it, so the representative is the sorted weight
        vector, or the sorted vector of its negation if that is smaller."""
        out: dict[int, list[int]] = {}
        for w in dict.fromkeys(weights):
            v = self.weight_vector(w)
            rep = min(sorted(v), sorted(-c for c in v))
            out.setdefault(sum(c * self.base ** i for i, c in enumerate(rep)), []).append(w)
        return out

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
        k = 1..min(d, n-1), the generator coordinates (`_sl_coordinates`) of
        n X^k - tr(X^k) I, one integer matrix per monomial key, times each
        degree-(d-k) monomial.  X^k commutes with X, so the matching
        combination of the fields f*V vanishes."""
        n, nv, X = self.n, self.nv, self.X
        index = {m: i for i, m in enumerate(self.monomials(d))}
        power = X
        out = []
        for k in range(1, min(d, n - 1) + 1):
            trace = _sum((power[i][i], 1) for i in range(n))
            coords = []
            for m in dict.fromkeys(m for row in power for p in row for m in p):
                C = {(i, j): n * p.get(m, 0) - (trace.get(m, 0) if i == j else 0)
                     for i, row in enumerate(power) for j, p in enumerate(row)}
                coords.append((m, _sl_coordinates(n, C)))
            for mu in self.monomials(d - k):
                out.append({index[mu + m] * nv + gi: c for m, cs in coords for gi, c in cs})
            power = [[_sum((_mul(power[i][l], X[l][j]), 1) for l in range(n))
                      for j in range(n)] for i in range(n)]
        return out


class _PairBrackets:
    """The bracket of a grade-e pair h*W with a grade-(d-e) pair f*V, for
    e = 0 or 1, in the pair coordinates of grade d.  In the orientation of
    `adjointfields.bracket`,

        [h*W, f*V] = f*V(h)*W - h*W(f)*V + f*h*[W, V],

    with V(h) and W(f) taken on tr = 0 (`_TracelessFields.images`) and
    [W, V] from the structure constants of `generator_matrix`.

    W(f) is summed here by the Leibniz rule on packed keys, not through
    `adjointfields.add_derivation`: that works on `Monomial` terms over all
    n^2 variables, so W(f) would keep its x_nn terms, while the substitution
    x_nn = -(x_11 + ... + x_{n-1,n-1}) of tr = 0 lives in `ring.images`.
    `test_vector_bracket_matches_polynomial_bracket` checks the closed form
    against `adjointfields.bracket` of the two pair fields."""

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
    method: str                      # "pair-coordinate", or "pair-coordinate/weyl-orbit" (d >= 2)
    operands: str                    # "seeds" (grades 0-1) or "T_1 x T_{d-1}"
    target_rank: int                 # |F_d|: monomial x generator pairs (traceless)
    achieved_rank: int               # pairs proved in L: all when certified
    missing_witnesses: list[str]     # pairs of open representatives outside span(B + Rel) mod p
    span_rank: int                   # rank_p(B + Rel) in pair coordinates
    sl_rank: int | None              # certified: rank T_d = target_rank - relation_rank
    sl_target_component_rank: int    # target_rank - relation_rank: an upper bound on rank T_d
    gl_rank: int                     # kept vectors B: span_rank - relation_rank
    brackets_evaluated: int          # brackets computed
    brackets_skipped: int            # brackets of the step not computed (`closure`)
    blocks: int                      # weight blocks of the grade
    blocks_computed: int             # blocks the brackets were computed for
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


def closure(seeds: list[Seed], max_degree: int, budget_brackets: int | None = None,
            budget_ms: float | None = None, all_blocks: bool = False) -> ClosureResult:
    """Bracket-closure of the seed set, graded by coefficient degree, in pair
    coordinates (`_TracelessFields`): a vector of grade d stands for the sum
    of c * f * V over the degree-d monomials f and generators V, on tr = 0.

    Each grade puts its relations Rel (`_relation_blocks`) and then the
    vectors B it keeps into one mod-p echelon over the pair coordinates, and
    keeps a vector exactly when it is new there.  The seeds of a grade come
    first.  Grades 0 and 1 then walk the growing list of kept vectors,
    bracketing each with each kept grade-0 vector (at grade 0, each one kept
    before it) through the closed form of `_PairBrackets` with h = 1, which
    is linear in both operands.  A grade d >= 2 is the step [T_1, T_{d-1}]:
    it brackets grade-1 pairs with grade-(d-1) pairs (a < b at d = 2, where
    both have grade 1), and runs only when grades 1 and d - 1 are
    certified, because only then are these pairs in the Lie algebra.  Both
    share one bracket, keep and budget loop.  `spans[d]` lists the kept
    vectors B: each is a pair-coordinate representative of a field in the
    algebra.

    Weight blocks.  Every pair, relation and bracket is homogeneous for the
    sl_n torus weight (`_TracelessFields.var_weights`), so the echelon is
    one `ModularRowSpace` graded by pair weight, and its `open_blocks` are
    the weights still below the rank of their pair count.  A bracket's
    weight, the sum of its operands' weights, is known before it is taken.
    At grades 0-1 a bracket whose block is not open is skipped
    (`brackets_skipped`), and the grade stops once no block is open.  At
    d >= 2 the step runs block by block, only for the representative w of
    each orbit of S_n x <tau> (`_TracelessFields.orbits`; the lemma of
    `_certify_degree` proves the rest of the orbit): it brackets the
    grade-1 pairs of weight u with the grade-(d-1) pairs of weight w - u
    until block w is full, and `brackets_skipped` counts the rest of the
    step.  `all_blocks=True` computes every block, the tests' reference,
    and so does a grade d >= 2 that keeps seeds of its own, which the
    symmetry need not map into the algebra.
    Soundness does not rest on the prediction: a kept vector goes to the
    block its own coordinates name (across two blocks it raises
    `GradingError`).

    When a budget runs out the closure stops after reporting that grade:
    later grades get no `spans` or `reports` entry, and `complete` is False.
    A grade that would start after `budget_ms` has passed is not started.
    `budget_brackets` counts the brackets computed, not those skipped.
    """
    if not seeds:
        raise PreconditionError("empty seed set")
    n = matrix_dim(seeds[0].coefficient.nvars)
    deadline = time.monotonic() + budget_ms / 1000.0 if budget_ms is not None else None

    def out_of_budget() -> bool:
        return ((deadline is not None and time.monotonic() > deadline)
                or (budget_brackets is not None and brackets_done >= budget_brackets))

    ring = _TracelessFields(n, max_degree)
    gen_index = _generator_index(n)
    spans: dict[int, list[dict[int, int]]] = {}
    reports: dict[int, DegreeReport] = {}
    by_weight: dict[int, dict[int, list[int]]] = {}     # grade -> weight -> its pair indices
    brackets_done = 0

    complete = True
    for d in range(max_degree + 1):
        if deadline is not None and time.monotonic() > deadline:
            complete = False
            break
        weights = ring.weights(d)
        groups = by_weight[d] = {}
        for i, w in enumerate(weights):
            groups.setdefault(w, []).append(i)
        relations = ring.relations(d)
        space = _relation_blocks(ring, d, relations, weights)
        relation_rank, open_blocks = space.rank, space.open_blocks
        kept = spans[d] = []

        def keep(vec: dict[int, int]):
            """Keep a vector if it is new mod p."""
            vec = {k: c for k, c in vec.items() if c}
            if vec and space.insert(vec):
                kept.append(vec)

        brackets = _PairBrackets(ring, 0 if d <= 1 else 1, d)
        for s in seeds:
            if s.grade == d:
                gi = gen_index[s.generator]
                keep({brackets.offset[m] + gi: c for m, c in ring.restrict(s.coefficient).items()})

        # the orbit lemma needs every kept vector to be a [T_1, T_{d-1}] bracket
        orbits = ({w: [w] for w in groups} if d <= 1 or all_blocks or kept
                  else ring.orbits(weights))
        if d <= 1:
            operands_ok, computed = True, len(groups)
            # a grade-0 pair's index is its generator's; `kept` grows as it is walked
            operands = ((ring.gen_weights[next(iter(u))] + weights[next(iter(x))], u, x)
                        for j, x in enumerate(kept) for u in (spans[0] if d else kept[:j]))
        else:
            operands_ok = reports[1].certified and reports[d - 1].certified
            computed = 0

            def step():
                """Each representative's block of [T_1, T_{d-1}], until it is full."""
                nonlocal computed
                for w in sorted(orbits) if operands_ok else ():
                    computed += 1
                    for a, b in _block_operands(by_weight[1], by_weight[d - 1], w, d == 2):
                        if w not in open_blocks:
                            break
                        yield w, {a: 1}, {b: 1}
            operands = step()

        evaluated = skipped = 0
        for w, u, x in operands:
            if w not in open_blocks:
                if not open_blocks:
                    break
                skipped += 1
                continue
            if out_of_budget():
                complete = False
                break
            out: dict[int, int] = {}
            for a, ua in u.items():
                for b, xb in x.items():
                    brackets.add(a, b, ua * xb, out)
            keep(out)
            evaluated += 1
            brackets_done += 1
        if d >= 2 and operands_ok:
            k, m = len(brackets.left) * ring.nv, len(brackets.right) * ring.nv
            skipped = (k * (k - 1) // 2 if d == 2 else k * m) - evaluated
        reports[d] = _certify_degree(ring, d, space, groups, orbits, relation_rank,
                                     len(relations), operands_ok, evaluated, skipped,
                                     computed, complete)
        if not complete:
            break

    return ClosureResult(n, max_degree, spans, reports, complete)


def _block_operands(ones: dict[int, list[int]], rest: dict[int, list[int]], w: int,
                    distinct: bool):
    """The brackets of weight w of the [T_1, T_{d-1}] step: (a, b) for the
    grade-1 pairs a of each weight u and the grade-(d-1) pairs b of weight
    w - u, b in the outer loop; only a < b when both grades are 1
    (`distinct`)."""
    for u, left in ones.items():
        for b in rest.get(w - u, ()):
            for a in left:
                if not distinct or a < b:
                    yield a, b


def _relation_blocks(ring: _TracelessFields, d: int, relations: list[dict[int, int]],
                     weights: list[int]) -> ModularRowSpace:
    """The relations r among the grade-d pairs whose field sum_i r_i * f_i *
    V_i on tr = 0 is exactly 0, in a mod-p echelon graded by the weight of
    their pairs; a relation that fails the check does not enter the rank."""
    nv, monomials, gens = ring.nv, ring.monomials(d), ring.gens
    space = ModularRowSpace(CLOSURE_PRIME, weights)
    for r in relations:
        if not _sum(({monomials[i // nv] + k: v for k, v in gens[i % nv].items()}, c)
                    for i, c in r.items()):
            space.insert(r)
    return space


def _certify_degree(ring: _TracelessFields, d: int, space: ModularRowSpace,
                    groups: dict[int, list[int]], orbits: dict[int, list[int]],
                    relation_rank: int, relation_count: int, operands_ok: bool,
                    evaluated: int, skipped: int, computed: int,
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
    Everything is graded by weight, so this holds block by block:
    rank_p(B_w + Rel_w) = |F_w| puts every pair of weight w in L.

    One block per orbit (d >= 2).  A permutation matrix P acts by
    X -> P X P^-1 and the transpose tau by X -> X^T; each pushes fields
    forward by a linear automorphism of tr = 0, so it is a Lie algebra
    automorphism sigma that maps T_k onto T_k, ker Phi onto ker Phi, and
    Q^{F_w} onto Q^{F_sigma(w)} (P permutes the coordinates of w, tau
    negates it).  Let grades 1 and d - 1 be certified and rank_p(B_w +
    Rel_w) = |F_w|.  Each b in B_w is a bracket [u, x] with u in T_1 and x
    in T_{d-1}, so sigma(b) = [sigma(u), sigma(x)] lies in L, and
    sigma(Rel_w) lies in ker Phi; their span is Q^{F_sigma(w)}, so every
    pair of weight sigma(w) is in L with nothing computed.  A grade needs
    only its orbit representatives full (`orbits`; at grades 0-1 and under
    `closure(all_blocks=True)` every block is its own).

    The rank of T_d is |F_d| - dim ker Phi.  By Kostant (1963), a
    polynomial map commuting with X is a combination of I, X, ..., X^(n-1),
    so the relations span ker Phi and are independent over Q; when none is
    lost mod p (rank_p(Rel) = |Rel|), rank T_d = |F_d| - rank_p(Rel)
    (`sl_rank`).  Every relation of every block is inserted and checked.
    The grade is certified when all representatives are full and no
    relation is lost.  Otherwise `missing_witnesses` lists, for each open
    representative, its pairs outside span(B + Rel) mod p as unproven,
    then a line for the other blocks of its orbit, which follow it and are
    unproven too; `achieved_rank` counts the rest.
    """
    n, open_blocks = ring.n, space.open_blocks
    target = len(space.block_of)
    open_reps = sorted(w for w in orbits if w in open_blocks)
    certified = operands_ok and not open_reps and relation_rank == relation_count
    missing, follow = [], []
    unproven = 0
    if open_reps:
        nv = ring.nv
        gens = generator_ids(n)
        monos = list(slice_monomials(nv, d))
        missing = [f"{format_poly(Polynomial.from_monomial(n * n, monos[i // nv]))} * "
                   f"{gens[i % nv].label()}"
                   for i in sorted(i for w in open_reps for i in groups[w])
                   if not space.contains({i: 1})]
        for w in open_reps:
            others = [v for v in orbits[w] if v != w]
            if others:
                count = sum(len(groups[v]) for v in others)
                unproven += count
                follow.append(f"weight {ring.weight_vector(w)} is open: {len(others)} more "
                              f"block(s) of its orbit ({count} pairs) follow it")
    return DegreeReport(
        n=n, grade=d,
        method="pair-coordinate" if len(orbits) == len(groups) else "pair-coordinate/weyl-orbit",
        operands="seeds" if d <= 1 else "T_1 x T_{d-1}",
        target_rank=target, achieved_rank=target - len(missing) - unproven,
        missing_witnesses=missing + follow, span_rank=space.rank,
        sl_rank=target - relation_rank if certified else None,
        sl_target_component_rank=target - relation_rank,
        gl_rank=space.rank - relation_rank,
        brackets_evaluated=evaluated, brackets_skipped=skipped,
        blocks=len(groups), blocks_computed=computed,
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
    if n < 2:
        raise ValueError(f"identity verification needs n >= 2, got n={n}")
    entry = _CATALOG[name]
    rng = random.Random(seed)
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
