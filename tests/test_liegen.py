import dataclasses
import functools
import hashlib
import itertools
import json
import random
import re
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from specball import cli, liegen
from specball.adjointfields import (
    Theta,
    VectorField,
    Xi,
    bracket,
    commutator_field,
    generator_field,
    generator_ids,
    generator_matrix,
    make_theta,
    make_xi,
    scale_field,
)
from specball.linalg import ExactRowSpace, ModularRowSpace, clear_denominators
from specball.liegen import (
    GradingError,
    PreconditionError,
    Seed,
    build_seeds,
    closure,
    identity_names,
    vectorize,
    verify_all_identities,
    verify_cross_image,
    verify_identity,
    _SlProjector,
)
from specball.polyring import Monomial, Polynomial, parse_poly, slice_monomials, substitute_trace


# matches_printed flags: the orientation-consistent evaluation reproduces
# some commonly quoted right-hand sides verbatim and corrects the rest
EXPECTED_PRINTED_MATCH = {
    "xi-bracket": True,
    "d1-linear": True,
    "d2-shear-detour": True,
    "d2-hyperbolic": False,
    "general-step-d2": False,
    "general-step-d3": False,
    "general-step-d4": False,
    "general-step-d5": False,
    "cross-term": False,
    "hyperbolic-step": False,
}


def in_span(fields, v, grade):
    """Traceless membership oracle: exact elimination over the
    `sl_vector_oracle` vectors of the grade's kept fields, independent of
    the echelons `closure` keeps.  The closure spans the target fields only
    modulo multiples of the trace, so raw vectors are not compared."""
    space = ExactRowSpace()
    for w in fields:
        space.insert(sl_vector_oracle(w, grade))
    return space.contains(sl_vector_oracle(v, grade))


def pair_field(vec, n, grade):
    """The field a pair vector stands for: the sum of c * f * V over its
    entries, f the degree-`grade` monomial in the first n^2 - 1 variables
    and V the generator that the pair index names."""
    nv = n * n - 1
    monomials = [Polynomial.from_monomial(n * n, m) for m in slice_monomials(nv, grade)]
    gens = [generator_field(n, g) for g in generator_ids(n)]
    return sum((scale_field(c * monomials[i // nv], gens[i % nv]) for i, c in vec.items()),
               VectorField.zero(n))


def kept_fields(res, d):
    """The kept vectors of grade d as fields."""
    return [pair_field(vec, res.n, d) for vec in res.spans[d]]


def weyl_tau(n):
    """The elements of S_n x <tau> as (permutation, transpose): X -> P X P^-1
    with P e_j = e_perm[j], then X -> X^T when `transpose`."""
    return [(perm, t) for perm in itertools.permutations(range(n)) for t in (False, True)]


class PairAction:
    """An element sigma of S_n x <tau> on the grade-d pair vectors:
    f*V -> sigma(f) * sigma(V), with x_ij -> x_sigma(i,j) in f (restricted
    to tr = 0, so x_nn becomes -(x_11 + ... + x_{n-1,n-1})) and V the field
    of a matrix B sent to that of P B P^-1, or of -B^T after the transpose.
    Each is the push-forward of fields by a linear automorphism of tr = 0."""

    def __init__(self, ring, d, perm, transpose):
        n, nv = ring.n, ring.nv
        self.nv = nv

        def move(v):
            i, j = perm[v // n], perm[v % n]
            return j * n + i if transpose else i * n + j
        self.gens = [liegen._sl_coordinates(n, {divmod(move(i * n + j), n): -c if transpose else c
                                                for i, row in enumerate(generator_matrix(n, g))
                                                for j, c in enumerate(row) if c})
                     for g in generator_ids(n)]
        index = {m: i for i, m in enumerate(ring.monomials(d))}
        self.monos = [{index[k]: c for k, c in ring.restrict(Polynomial.from_monomial(
                          n * n, Monomial((move(v), e) for v, e in m.powers))).items()}
                      for m in slice_monomials(nv, d)]

    def __call__(self, vec):
        out, nv = {}, self.nv
        for p, c in vec.items():
            i, V = divmod(p, nv)
            for mi, mc in self.monos[i].items():
                for U, gc in self.gens[V]:
                    k = mi * nv + U
                    out[k] = out.get(k, 0) + c * mc * gc
        return {k: c for k, c in out.items() if c}

    def moves_n(self):
        """Whether sigma sends some monomial through x_nn."""
        return any(len(m) > 1 for m in self.monos)


def proved_fields(res, d):
    """The fields the certificate of grade d puts in L: the kept vectors,
    and at d >= 2 their images under every element of S_n x <tau>, which
    the lemma of `_certify_degree` puts in L as well."""
    if d <= 1:
        return kept_fields(res, d)
    ring = liegen._TracelessFields(res.n, d)
    images = {}
    for perm, t in weyl_tau(res.n):
        act = PairAction(ring, d, perm, t)
        for vec in res.spans[d]:
            image = act(vec)
            images[tuple(sorted(image.items()))] = image
    return [pair_field(vec, res.n, d) for vec in images.values()]


def field_of(vec, n, m):
    """The field whose flat vector over (degree-m monomials) x (component)
    is `vec`: the inverse of `vectorize`."""
    nvars = n * n
    monomials = list(slice_monomials(nvars, m))
    comps = {}
    for idx, c in vec.items():
        comps.setdefault(idx % nvars, {})[monomials[idx // nvars]] = c
    return VectorField(n, {comp: Polynomial(nvars, terms) for comp, terms in comps.items()})


def test_seed_examples_n2():
    seeds = build_seeds(2)
    labels = {(str(s.coefficient), s.generator.label()) for s in seeds}
    assert ("x21", "theta12") in labels
    assert ("x11", "theta12") in labels
    assert ("x12", "theta12") not in labels          # Theta12^2(x12) = -2 x21
    assert ("1", "theta12") in labels and ("1", "xi1") in labels


def test_seed_example_n3_product_of_kernel_elements():
    # x21 and x31 are in the kernel of Theta12; their product times Theta12
    # is no seed (seeds stop at degree 1), and the closure reaches it at
    # grade 2 from brackets of grade-1 pairs
    seeds = build_seeds(3)
    labels = {(str(s.coefficient), s.generator.label()) for s in seeds}
    assert ("x21", "theta12") in labels and ("x31", "theta12") in labels
    assert {s.grade for s in seeds} == {0, 1}
    res = closure(seeds, 2)
    v = scale_field(parse_poly("x21*x31", 3), make_theta(3, 1, 2))
    assert in_span(proved_fields(res, 2), v, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_seeds_match_the_overshear_class_oracle(n):
    # the matrix rule, with no table, kernel or field: the field of B is
    # X -> BX - XB, so g^2(x_ij) is the (i, j) entry of B^2 X - 2 B X B + X B^2,
    # linear in X, and x_ij is a seed of B iff that entry vanishes at every
    # unit matrix E_kl.  The constant 1 is a seed of every generator.  n = 5
    # and 6 put Xi_a away from the corners of the matrix
    def mul(P, Q):
        return [[sum(P[i][k] * Q[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    nvars = n * n
    units = [[[int((i, j) == (k, l)) for j in range(n)] for i in range(n)]
             for k in range(n) for l in range(n)]
    vanishing = {}
    for g in generator_ids(n):
        B = generator_matrix(n, g)
        B2 = mul(B, B)
        images = [[[p - 2 * q + r for p, q, r in zip(*rows)]
                   for rows in zip(mul(B2, E), mul(mul(B, E), B), mul(E, B2))] for E in units]
        vanishing[g] = {i * n + j for i in range(n) for j in range(n)
                        if all(M[i][j] == 0 for M in images)}
    oracle = [Seed(Polynomial.constant(nvars, 1), g, 0) for g in generator_ids(n)]
    oracle += [Seed(Polynomial.variable(nvars, v), g, 1)
               for v in range(nvars) for g in generator_ids(n) if v in vanishing[g]]
    assert build_seeds(n) == oracle


def test_all_seeds_pass_overshear_test():
    for n in (2, 3):
        for s in build_seeds(n):
            g = generator_field(n, s.generator)
            df = g.apply(s.coefficient)
            assert df.is_zero() or g.apply(df).is_zero()


def test_vectorize_roundtrip_and_zero():
    n = 2
    t12 = make_theta(n, 1, 2)
    v = scale_field(Polynomial.x(2, 1, n), t12)
    vec = vectorize(v, 2)
    assert field_of(vec, n, 2) == v
    assert vectorize(scale_field(Polynomial.zero(4), t12), 2) == {}
    # component count is bounded by the term count of the generator times one
    assert len(vec) <= 6 * 4


def test_vectorize_grading_error():
    n = 2
    mixed = make_theta(n, 1, 2) + scale_field(Polynomial.x(1, 1, n), make_theta(n, 1, 2))
    with pytest.raises(GradingError):
        vectorize(mixed, 1)


def test_closure_degree0_full_sl2():
    res = closure(build_seeds(2), 0)
    rep = res.reports[0]
    assert rep.achieved_rank == rep.target_rank == 3
    assert rep.sl_rank == 3
    assert rep.certified


def test_closure_degree1_contains_x12_theta12():
    res = closure(build_seeds(2), 1)
    v = scale_field(Polynomial.x(1, 2, 2), make_theta(2, 1, 2))
    assert in_span(kept_fields(res, 1), v, 1)
    assert res.reports[1].certified


def test_closure_contains_zero_field():
    res = closure(build_seeds(2), 1)
    assert in_span(kept_fields(res, 1), VectorField.zero(2), 1)


def test_closure_n2_contains_x12_powers():
    res = closure(build_seeds(2), 3)
    t12 = make_theta(2, 1, 2)
    x12 = Polynomial.x(1, 2, 2)
    for d in (1, 2, 3):
        assert in_span(proved_fields(res, d), scale_field(x12 ** d, t12), d)
    for d in (0, 1, 2, 3):
        assert res.reports[d].certified


def test_closure_n3_degree1_contains_x11_xi1():
    res = closure(build_seeds(3), 1)
    v = scale_field(Polynomial.x(1, 1, 3), make_xi(3, 1))
    assert in_span(kept_fields(res, 1), v, 1)


def test_closure_n3_degree2_contains_x12sq_theta12():
    res = closure(build_seeds(3), 2)
    v = scale_field(parse_poly("x12^2", 3), make_theta(3, 1, 2))
    assert in_span(proved_fields(res, 2), v, 2)
    assert res.reports[2].certified


def test_closure_order_independent():
    # a certified grade spans the whole pair span T_d, so a shuffled seed
    # list keeps other vectors but reaches the same span, ranks and verdicts
    seeds = build_seeds(2)
    shuffled = list(seeds)
    random.Random(42).shuffle(shuffled)
    r1 = closure(seeds, 2)
    r2 = closure(shuffled, 2)
    for d in range(3):
        assert r1.reports[d].certified and r2.reports[d].certified
        assert r1.reports[d].sl_rank == r2.reports[d].sl_rank
        assert r1.reports[d].gl_rank == r2.reports[d].gl_rank
        # spans agree as subspaces: each basis field of one lies in the other
        for v in kept_fields(r1, d):
            assert in_span(kept_fields(r2, d), v, d)
        for v in kept_fields(r2, d):
            assert in_span(kept_fields(r1, d), v, d)


def test_closure_monotone_under_budget():
    # a tiny bracket budget yields a flagged partial result, never a wrong
    # one: 4 brackets run out in grade 1 (it needs 5), 8 in the orbit step
    # of grade 2, which leaves an open representative and its orbit unproven
    full = closure(build_seeds(2), 2)
    assert full.complete
    for budget, last in ((4, 1), (8, 2)):
        res = closure(build_seeds(2), 2, budget_brackets=budget)
        assert not res.complete
        assert max(res.reports) == max(res.spans) == last
        for d, rep in res.reports.items():
            assert rep.achieved_rank <= rep.target_rank
            assert rep.achieved_rank <= full.reports[d].achieved_rank
            for v in kept_fields(res, d):
                assert in_span(kept_fields(full, d), v, d)
        rep = res.reports[last]
        assert not rep.complete and not rep.certified and rep.missing_witnesses
        assert rep.achieved_rank < rep.target_rank
        assert sum(r.brackets_evaluated for r in res.reports.values()) == budget


def test_closure_stops_at_the_grade_that_ran_out():
    # grade 0 is complete without a bracket; grade 1 needs brackets, so a zero
    # budget ends the closure there and no later grade is started
    res = closure(build_seeds(3), 3, budget_brackets=0)
    assert set(res.reports) == set(res.spans) == {0, 1}
    assert res.reports[0].complete and not res.reports[1].complete
    assert res.reports[1].brackets_evaluated == 0
    assert not res.complete


def test_closure_starts_no_grade_after_the_deadline(monkeypatch):
    # the clock stands still until grade 0 is certified and then jumps past
    # the deadline, so grade 1 is never set up
    clock = [0.0]
    monkeypatch.setattr(liegen.time, "monotonic", lambda: clock[0])
    certify = liegen._certify_degree

    def certify_then_expire(*args):
        clock[0] = 1e9
        return certify(*args)

    monkeypatch.setattr(liegen, "_certify_degree", certify_then_expire)
    res = closure(build_seeds(2), 2, budget_ms=1)
    assert set(res.reports) == set(res.spans) == {0}
    assert res.reports[0].complete and res.reports[0].certified
    assert not res.complete


@pytest.mark.parametrize("grade,begun", [(1, 3), (2, 2)])
def test_closure_stops_inside_the_grade_the_deadline_passes(monkeypatch, grade, begun):
    # the clock jumps past the deadline while the grade's `begun`-th bracket
    # is summed: that bracket is finished and counted, the next one is not
    # begun, and no later grade is reported.  A bracket is the one `out`
    # dict its `_PairBrackets.add` calls sum into
    clock = [0.0]
    monkeypatch.setattr(liegen.time, "monotonic", lambda: clock[0])
    ring = liegen._TracelessFields(2, 3)
    grade_of = {len(ring.monomials(d)): d for d in range(4)}
    outs = {d: [] for d in range(4)}
    inner = liegen._PairBrackets.add

    def ticking(self, a, b, scale, out):
        started = outs[grade_of[len(self.offset)]]
        if not started or started[-1] is not out:
            started.append(out)
            if len(outs[grade]) == begun:
                clock[0] = 1e9
        inner(self, a, b, scale, out)

    monkeypatch.setattr(liegen._PairBrackets, "add", ticking)
    res = closure(build_seeds(2), 3, budget_ms=1)
    assert [len(outs[d]) for d in res.reports] == [
        rep.brackets_evaluated for rep in res.reports.values()]
    rep = res.reports[grade]
    assert rep.brackets_evaluated == len(outs[grade]) == begun
    assert not rep.complete and not rep.certified
    assert max(res.reports) == max(res.spans) == grade and not res.complete
    assert not any(outs[d] for d in range(grade + 1, 4))


def test_empty_seed_set_rejected():
    with pytest.raises(PreconditionError):
        closure([], 1)


def test_seed_on_other_matrices_is_rejected():
    # an n = 2 seed in an n = 3 set would be read in the wrong ring
    seeds = build_seeds(3)
    stray = Seed(parse_poly("x12", 2), Theta(1, 2), 1)
    with pytest.raises(PreconditionError, match=rf"^seed {len(seeds)} \(Theta\(a=1, b=2\), "
                       r"grade 1\): its coefficient has 4 variables, not 9$"):
        closure(seeds + [stray], 1)


def test_seed_with_a_generator_of_another_n_is_rejected():
    # placed first, an n = 2 seed sets n = 2, which has no theta13
    first = Seed(Polynomial.constant(4, 1), Theta(1, 3), 0)
    with pytest.raises(PreconditionError,
                       match=r"^seed 0 .*: Theta\(a=1, b=3\) is not a generator for n = 2$"):
        closure([first] + build_seeds(2), 1)


def test_seed_of_negative_grade_is_rejected():
    bad = Seed(Polynomial.constant(4, 1), Xi(1), -1)
    with pytest.raises(PreconditionError, match=r"\(Xi\(a=1\), grade -1\): its grade is negative$"):
        closure(build_seeds(2) + [bad], 1)


@pytest.mark.parametrize("text,grade", [("x12", 2), ("x12 + x12*x21", 1), ("x12*x21", 1)])
def test_seed_not_homogeneous_of_its_grade_is_rejected(text, grade):
    # a coefficient of another degree would be read at the wrong grade
    bad = Seed(parse_poly(text, 2), Theta(1, 2), grade)
    with pytest.raises(PreconditionError, match=f"is not homogeneous of degree {grade}$"):
        closure(build_seeds(2) + [bad], 2)


def test_generators_alone_do_not_certify_grade1():
    # brackets with the grade-0 generators never leave grade 0, so grade 1
    # stays empty: a complete closure whose every pair is missing
    seeds = [s for s in build_seeds(2) if s.grade == 0]
    rep = closure(seeds, 1).reports[1]
    assert rep.complete and not rep.certified
    assert rep.achieved_rank == rep.gl_rank == 0 and rep.sl_rank is None
    assert rep.relation_rank == 1
    assert len(rep.missing_witnesses) == rep.target_rank == 9
    assert "x12 * theta12" in rep.missing_witnesses


@pytest.mark.parametrize("n", [2, 3])
def test_identities_hold_exactly(n):
    results = verify_all_identities(n)
    assert [r.identity for r in results] == identity_names()
    for r in results:
        assert r.holds, r.identity
        assert r.residual_is_zero
        assert r.matches_printed == EXPECTED_PRINTED_MATCH[r.identity], r.identity


def _scaled_by_two(instance):
    lhs, verified, printed = instance
    return lhs, 2 * verified, 2 * printed


def _one_term_dropped(instance):
    def drop(field):
        if field.is_zero():     # some random draws of cross-term are 0 = 0
            return field
        var = min(field.components)
        p = field.components[var]
        top = p.sorted_terms()[0][0]
        comps = dict(field.components)
        comps[var] = Polynomial(p.nvars, {m: c for m, c in p.terms.items() if m != top})
        return VectorField(field.n, comps)
    lhs, verified, printed = instance
    return lhs, drop(verified), drop(printed)


@pytest.mark.parametrize("wrong", [_scaled_by_two, _one_term_dropped])
@pytest.mark.parametrize("name", ["d1-linear", "d2-hyperbolic", "cross-term"])
def test_verify_refutes_a_wrong_right_side(monkeypatch, capsys, name, wrong):
    # verify compares the two sides with ==; a right side scaled by 2 or
    # short of one term must still fail, in the library and as exit code 5
    entry = liegen._CATALOG[name]
    monkeypatch.setitem(liegen._CATALOG, name, dataclasses.replace(
        entry, build=lambda n, rng: wrong(entry.build(n, rng))))
    result = verify_identity(name, 3)
    assert not result.holds and not result.residual_is_zero
    assert not result.matches_printed
    assert cli.main(["verify", "--id", name, "--n", "3"]) == 5
    assert '"holds":false' in capsys.readouterr().out.replace(" ", "")


# the (a, f, g, T, L) of each cross-term draw for seed 0, recorded before
# the draw's id lists were hoisted out of it
CROSS_TERM_DRAWS = {
    2: [("x22", "x21", "x21*x22", "theta21", "theta21"),
        ("x12", "x11*x12", "x12*x21", "theta12", "xi1"),
        ("x21", "x11*x21", "x12*x21", "theta21", "theta21"),
        ("x11", "x11", "x11*x22", "theta21", "theta12"),
        ("x11", "x12", "x12", "theta21", "theta12"),
        ("x21", "x11*x21", "x11*x21", "theta12", "xi1"),
        ("x22", "x22", "x12*x21", "theta12", "theta12"),
        ("x11", "x11*x22", "x12", "theta12", "theta12"),
        ("x22", "x12^2", "x21*x22", "theta21", "xi1"),
        ("x11", "x11*x22", "x12^2", "theta12", "xi1"),
        ("x11", "x21", "x21", "theta21", "theta12"),
        ("x12", "x11", "x11", "theta12", "xi1")],
    3: [("x31", "x22", "x22*x31", "theta23", "theta32"),
        ("x33", "x22", "x12", "theta31", "theta31"),
        ("x22", "x12", "x32*x33", "theta12", "theta32"),
        ("x23", "x33", "x32*x33", "theta21", "theta12"),
        ("x12", "x11*x32", "x21*x23", "theta32", "theta13"),
        ("x21", "x13", "x12^2", "theta21", "xi2"),
        ("x22", "x12*x33", "x21*x33", "theta31", "theta31"),
        ("x12", "x21*x23", "x13*x21", "theta13", "theta12"),
        ("x32", "x12", "x13", "theta12", "theta13"),
        ("x33", "x21*x33", "x31", "theta31", "theta31"),
        ("x32", "x12*x23", "x32", "theta31", "theta32"),
        ("x21", "x22", "x21", "theta21", "theta21")],
}


@pytest.mark.parametrize("n", [2, 3])
def test_cross_term_draws_are_pinned(n, monkeypatch):
    # the instances verify checks for a seed are fixed: the same rng calls
    # in the same order draw the same monomials and generators
    drawn = []
    random_monomial, field = liegen._random_monomial, liegen.generator_field
    monkeypatch.setattr(liegen, "_random_monomial", lambda *args: drawn.append(
        str(p := random_monomial(*args))) or p)
    monkeypatch.setattr(liegen, "generator_field", lambda n, g: drawn.append(g.label())
                        or field(n, g))
    assert verify_identity("cross-term", n, seed=0).holds
    assert [tuple(drawn[i:i + 5]) for i in range(0, len(drawn), 5)] == CROSS_TERM_DRAWS[n]


def test_verify_identity_unknown_name():
    with pytest.raises(KeyError):
        verify_identity("nonsense", 2)


def test_hyperbolic_detour_value():
    # frozen by hand: 2[x12 Xi1, x12 Theta12] - [x12^2 Xi1, Theta12] = -2 x12^2 Theta12
    n = 2
    x12 = Polynomial.x(1, 2, n)
    xi1, t12 = make_xi(n, 1), make_theta(n, 1, 2)
    lhs = 2 * bracket(scale_field(x12, xi1), scale_field(x12, t12)) \
        - bracket(scale_field(x12 * x12, xi1), t12)
    assert lhs == scale_field((x12 * x12).scale(-2), t12)


@pytest.mark.parametrize("n,rank", [(3, 7), (4, 14)])
def test_cross_image(n, rank):
    rep = verify_cross_image(n)
    assert rep.rank == rank == n * n - 2
    assert rep.x12_excluded
    assert rep.ok


def test_cross_image_requires_n3():
    with pytest.raises(PreconditionError):
        verify_cross_image(2)


@pytest.fixture(scope="module")
def closure_n3():
    return closure(build_seeds(3), 2)


def sl_vector_oracle(v, grade):
    """Traceless vector of a field, substituting the trace in each whole
    component: the computation `_SlProjector.vector` does per monomial."""
    nvars = v.n * v.n
    ncomp = nvars - 1
    index = {mo: i for i, mo in enumerate(slice_monomials(nvars - 1, grade + 1))}
    out = {}
    for comp, poly in v.components.items():
        if comp == nvars - 1:
            continue
        for mono, c in substitute_trace(poly).terms.items():
            key = index[mono] * ncomp + comp
            out[key] = out.get(key, 0) + c
    return clear_denominators(out)


def test_sl_projection_matches_per_component_oracle(closure_n3):
    for d in range(3):
        proj = _SlProjector(3, d)
        fields = kept_fields(closure_n3, d)
        for v in fields:
            assert proj.vector(v) == sl_vector_oracle(v, d)
        # rational coefficients take the Fraction path
        for v in (Fraction(1, 2) * fields[-1], fields[0] + Fraction(1, 2) * fields[-1]):
            assert proj.vector(v) == sl_vector_oracle(v, d)


@pytest.mark.parametrize("n", [2, 3])
def test_multiples_of_trace_form_an_ideal(n):
    # why `closure` may reject a bracket whose traceless vector is spanned:
    # tr*V vanishes in traceless coordinates, and so does its bracket with
    # any field W, because W(tr) = 0 gives [tr*V, W] = tr*[V, W]
    tr = Polynomial.x(1, 1, n)
    for i in range(2, n + 1):
        tr = tr + Polynomial.x(i, i, n)
    seeds = [s for s in build_seeds(n) if s.grade <= 1]
    nonzero = 0
    for g in generator_ids(n):
        tv = scale_field(tr, generator_field(n, g))
        assert not tv.is_zero() and sl_vector_oracle(tv, 1) == {}
        for s in seeds:
            w = bracket(tv, scale_field(s.coefficient, generator_field(n, s.generator)))
            nonzero += not w.is_zero()
            assert sl_vector_oracle(w, 1 + s.grade) == {}
    assert nonzero > len(seeds)


@pytest.mark.parametrize("n,max_degree", [(2, 4), (3, 2)])
def test_kept_fields_are_traceless_independent(n, max_degree, closure_n3):
    # the certificate from brackets alone, checked over Q: the kept vectors
    # are independent as formal pair vectors (exact rank gl_rank), and the
    # fields they stand for, projected to tr = 0, have exact rank sl_rank,
    # the pair count minus Kostant's count.  When every block is computed,
    # B spans every pair; in the orbit step B fills the representatives,
    # and B with its images under S_n x <tau> stands for all of T_d
    for all_blocks in (True, False):
        res = (closure_n3 if n == 3 and not all_blocks
               else closure(build_seeds(n), max_degree, all_blocks=all_blocks))
        for d in range(max_degree + 1):
            rep = res.reports[d]
            target, relations = closed_form(n, d)
            pairs = ExactRowSpace()
            for vec in res.spans[d]:
                assert pairs.insert(vec)
            assert pairs.rank == rep.gl_rank == len(res.spans[d])
            if all_blocks:
                assert rep.gl_rank == target
            projector = _SlProjector(n, d)
            fields = ExactRowSpace()
            for v in kept_fields(res, d) if all_blocks else proved_fields(res, d):
                fields.insert(projector.vector(v))
            assert fields.rank == rep.sl_rank == target - relations


def closed_form(n, d):
    """(pair count, relation count) at grade d: the targets are f*V for the
    degree-d monomials f in the n^2 - 1 traceless coordinates and the
    n^2 - 1 generators V; their span loses, for each k = 1..n-1, the
    relation among the generator fields with degree-k coefficients (a
    generic matrix commutes with its k-th power) times each degree-(d-k)
    monomial."""
    target = (n * n - 1) * comb(n * n + d - 2, d)
    relations = sum(comb(n * n + d - k - 2, d - k) for k in range(1, min(d, n - 1) + 1))
    return target, relations


@functools.cache
def closure_of(n, max_degree, all_blocks=False):
    return closure(build_seeds(n), max_degree, all_blocks=all_blocks)


@pytest.mark.parametrize("n,max_degree", [(2, 4), (3, 2), (3, 3), (4, 2), (3, 4), (4, 3)])
def test_closure_ranks_closed_form(n, max_degree, closure_n3):
    # up to (3,3) and (4,2), the ranks, relation ranks, prime and verdicts are
    # those of the closure that bracketed field vectors in column coordinates
    # (one-prime certificate); (3,4) and (4,3) come from [T_1, T_{d-1}] alone.
    # Grades 0-1 fill every block; a grade d >= 2 fills one block per orbit
    # of S_n x <tau>.  Its echelon holds the kept vectors alone, and the
    # relation rank is Kostant's count
    res = closure_n3 if (n, max_degree) == (3, 2) else closure_of(n, max_degree)
    ring = liegen._TracelessFields(n, max_degree)
    for d in range(max_degree + 1):
        rep = res.reports[d]
        target, relations = closed_form(n, d)
        weights = ring.weights(d)
        assert rep.target_rank == target
        assert rep.sl_rank == rep.sl_target_component_rank == target - relations
        assert rep.relation_rank == relations
        assert rep.gl_rank == len(res.spans[d])
        assert rep.certified
        assert rep.prime == liegen.CLOSURE_PRIME
        assert rep.blocks == len(set(weights))
        if d <= 1:
            assert rep.method == "pair-coordinate" and rep.operands == "seeds"
            assert rep.gl_rank == target and rep.blocks_computed == rep.blocks
        else:
            assert rep.method == "pair-coordinate/weyl-orbit" and rep.operands == "T_1 x T_{d-1}"
            assert rep.blocks_computed == len(ring.orbits(weights)) < rep.blocks
    expected = {2: [3, 8, 15, 24, 35], 3: [8, 63, 279, 916, 2484], 4: [15, 224, 1784, 10064]}[n]
    assert [res.reports[d].sl_rank for d in range(max_degree + 1)] == expected[:max_degree + 1]


@pytest.mark.parametrize("n,max_degree", [(2, 6), (3, 4), (4, 3)])
def test_orbit_step_matches_every_block(n, max_degree):
    # the reference computes every weight block of the [T_1, T_{d-1}] step:
    # each block is full, and the certificates and ranks are those of the
    # orbit step, which computes one block per orbit of S_n x <tau>
    every = closure_of(n, max_degree, all_blocks=True)
    orbit = closure_of(n, max_degree)
    assert every.complete and orbit.complete
    for d in range(max_degree + 1):
        ref, rep = every.reports[d], orbit.reports[d]
        assert ref.certified and rep.certified
        assert ref.gl_rank == ref.target_rank and ref.blocks_computed == ref.blocks
        assert ref.method == "pair-coordinate"
        for key in ("certified", "sl_rank", "relation_rank", "target_rank", "achieved_rank",
                    "sl_target_component_rank", "blocks"):
            assert getattr(ref, key) == getattr(rep, key), (d, key)
        if d >= 2:
            assert rep.blocks_computed < rep.blocks
            assert rep.brackets_evaluated < ref.brackets_evaluated


def test_grade_with_its_own_seeds_computes_every_block():
    # a seed of grade 2 lies in L, but its images under S_n x <tau> need
    # not, so that grade drops the orbit rule and fills every block
    extra = Seed(parse_poly("x12*x21", 3), Theta(1, 2), 2)
    rep = closure(build_seeds(3) + [extra], 3).reports
    assert rep[2].method == "pair-coordinate" and rep[2].blocks_computed == rep[2].blocks
    assert rep[3].method == "pair-coordinate/weyl-orbit" and rep[3].blocks_computed < rep[3].blocks
    assert all(r.certified for r in rep.values())
    assert rep[2].sl_rank == closed_form(3, 2)[0] - closed_form(3, 2)[1]


@pytest.mark.parametrize("n,max_degree", [(2, 5), (3, 4), (4, 3), (5, 2)])
def test_orbit_representatives(n, max_degree):
    # weights decode to integer vectors summing to 0; each orbit is the set
    # of permutations of its representative and their negations, the
    # representative is the least sorted form, and the orbits partition the
    # blocks into sets of equal pair count
    ring = liegen._TracelessFields(n, max_degree)
    weights = ring.weights(max_degree)
    sizes = Counter(weights)
    orbits = ring.orbits(weights)
    assert sorted(w for ws in orbits.values() for w in ws) == sorted(sizes)
    for rep, ws in orbits.items():
        v = ring.weight_vector(rep)
        assert sum(v) == 0 and list(v) == sorted(v) <= sorted(-c for c in v)
        images = {tuple(c * s for c in p) for p in itertools.permutations(v) for s in (1, -1)}
        assert {ring.weight_vector(w) for w in ws} == images
        assert {sizes[w] for w in ws} == {sizes[rep]}
    for v, w in zip(range(ring.nv), ring.var_weights):
        i, j = divmod(v, n)
        assert ring.weight_vector(w) == tuple((k == i) - (k == j) for k in range(n))


def pair_brackets(n, max_degree):
    """Every bracket the closure may take up to `max_degree`, as (d, e, a,
    b): at grades d = 0 and 1 the grade-0 pair a (a generator) with each
    grade-d pair b; at d >= 2 each grade-1 pair a with each grade-(d-1)
    pair b."""
    nv = n * n - 1

    def size(d):
        return nv * comb(nv + d - 1, d)
    out = [(d, 0, a, b) for d in range(min(max_degree, 1) + 1)
           for a in range(nv) for b in range(size(d))]
    return out + [(d, 1, a, b) for d in range(2, max_degree + 1)
                  for a in range(size(1)) for b in range(size(d - 1))]


@pytest.mark.parametrize("n,max_degree,samples", [(2, 4, None), (3, 2, 300), (3, 3, 300)])
def test_vector_bracket_matches_polynomial_bracket(n, max_degree, samples):
    # Phi of the closed form in pair coordinates,
    # [h*W, f*V] = f*V(h)*W - h*W(f)*V + f*h*[W, V], equals `bracket` of the
    # two pair fields, both projected to tr = 0
    ring = liegen._TracelessFields(n, max_degree)
    todo = pair_brackets(n, max_degree)
    if samples is not None:
        todo = random.Random(3).sample(todo, samples)
    tables, projectors = {}, {}
    for d, e, a, b in todo:
        if (e, d) not in tables:
            tables[e, d] = liegen._PairBrackets(ring, e, d)
            projectors[d] = _SlProjector(n, d)
        out = {}
        tables[e, d].add(a, b, 1, out)
        want = bracket(pair_field({a: 1}, n, e), pair_field({b: 1}, n, d - e))
        assert projectors[d].vector(pair_field(out, n, d)) == projectors[d].vector(want)


def kostant_relations(ring, d):
    """Kostant's relations among the grade-d pairs, as pair vectors: mu * R_k
    for k = 1..min(d, n-1) and each degree-(d-k) monomial mu, where R_k
    gives, for each monomial m, the generator coordinates of the
    coefficient of m in n X^k - tr(X^k) I, X the matrix on tr = 0.  X^k
    commutes with X, so the matching combination of the fields f*V
    vanishes."""
    n, nv = ring.n, ring.nv
    X = [[{ring.units[i * n + j]: 1} if i * n + j < nv else ring.trace_form
          for j in range(n)] for i in range(n)]
    index = {m: i for i, m in enumerate(ring.monomials(d))}
    power, out = X, []
    for k in range(1, min(d, n - 1) + 1):
        if k > 1:
            power = [[liegen._sum((liegen._mul(power[i][l], X[l][j]), 1) for l in range(n))
                      for j in range(n)] for i in range(n)]
        entries = {}
        for i, row in enumerate(power):
            for j, p in enumerate(row):
                for m, c in p.items():
                    entries.setdefault(m, {})[i, j] = n * c
        coords = []
        for m, C in entries.items():
            trace = sum(C.get((i, i), 0) for i in range(n)) // n
            C.update({(i, i): C.get((i, i), 0) - trace for i in range(n)})
            coords.append((m, liegen._sl_coordinates(n, C)))
        for mu in ring.monomials(d - k):
            out.append({index[mu + m] * nv + gi: c for m, cs in coords for gi, c in cs})
    return out


@pytest.mark.parametrize("n,max_degree", [(2, 4), (3, 3), (4, 2)])
def test_relations_vanish_through_polynomials(n, max_degree):
    # Kostant's relations, built in the test: each relation r over the pairs
    # (monomial index, generator index), sum_i r_i * f_i * V_i as polynomial
    # fields, is nonzero but vanishes on tr = 0; the relations are
    # independent over Q, and there are exactly `relation_rank` of them, the
    # closed form the closure reports
    ring = liegen._TracelessFields(n, max_degree)
    res = closure_of(n, max_degree)
    for d in range(max_degree + 1):
        projector = _SlProjector(n, d)
        relations = kostant_relations(ring, d)
        space = ExactRowSpace()
        for r in relations:
            image = pair_field(r, n, d)
            assert not image.is_zero() and projector.vector(image) == {}
            assert space.insert(r)
        assert len(relations) == res.reports[d].relation_rank == closed_form(n, d)[1]


@pytest.mark.parametrize("n,max_degree", [(2, 4), (3, 3), (4, 2)])
def test_relation_ranks_split_by_weight(n, max_degree):
    # every relation lies in one weight block of the pairs (a vector across
    # two blocks raises GradingError), so an echelon split by weight has the
    # rank of one echelon over all the relations: the reported relation_rank
    ring = liegen._TracelessFields(n, max_degree)
    res = closure_of(n, max_degree)
    for d in range(max_degree + 1):
        weights = ring.weights(d)
        blocks = ModularRowSpace(liegen.CLOSURE_PRIME, weights)
        whole = ModularRowSpace(liegen.CLOSURE_PRIME, [0] * len(weights))
        for r in kostant_relations(ring, d):
            blocks.insert(r)
            whole.insert(r)
        assert sum(map(len, blocks.blocks.values())) == blocks.rank == whole.rank \
            == res.reports[d].relation_rank == closed_form(n, d)[1]


def random_monomial(rng, n, max_degree):
    powers = Counter(rng.randrange(n * n) for _ in range(rng.randrange(max_degree + 1)))
    return Polynomial.from_monomial(n * n, Monomial(powers.items()))


@pytest.mark.parametrize("n", [2, 3])
def test_brackets_stay_in_the_module_of_the_generators(n):
    # why the kept vectors lie in the pair span T: for monomials f, h and
    # generators V, W, in this orientation (bracket(v, w) = w v - v w as
    # operators), bracket(fV, hW) = h W(f) V - f V(h) W + fh bracket(V, W)
    rng = random.Random(17)
    gens = [generator_field(n, g) for g in generator_ids(n)]
    for _ in range(40):
        f, h = random_monomial(rng, n, 3), random_monomial(rng, n, 3)
        V, W = rng.choice(gens), rng.choice(gens)
        assert bracket(scale_field(f, V), scale_field(h, W)) == (
            scale_field(h * W.apply(f), V) - scale_field(f * V.apply(h), W)
            + scale_field(f * h, bracket(V, W)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generator_brackets_are_commutator_fields(n):
    # bracket(V_A, V_B) is the field of AB - BA, a combination of generators
    for g1, g2 in itertools.product(generator_ids(n), repeat=2):
        A, B = generator_matrix(n, g1), generator_matrix(n, g2)
        C = [[sum(A[i][k] * B[k][j] - B[i][k] * A[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
        assert bracket(generator_field(n, g1), generator_field(n, g2)) == commutator_field(C)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_structure_constants_are_the_dense_commutators(n):
    # the ring reads [W, V] off the at most two entries of each generator
    # matrix; the dense product AB - BA gives the same coordinates
    ring = liegen._TracelessFields(n, 1)
    mats = [generator_matrix(n, g) for g in generator_ids(n)]
    for A, row in zip(mats, ring.structure):
        for B, coords in zip(mats, row):
            C = {(i, j): sum(A[i][k] * B[k][j] - B[i][k] * A[k][j] for k in range(n))
                 for i in range(n) for j in range(n)}
            assert coords == liegen._sl_coordinates(n, C)


def equivariance_group(n):
    """(1 2), tau, and the n-cycle i -> i + 1, which moves n."""
    ident = list(range(n))
    swap = [1, 0] + ident[2:]
    return {"(12)": (swap, False), "tau": (ident, True),
            "cycle": ([(i + 1) % n for i in range(n)], False)}


@pytest.mark.parametrize("sigma", ["(12)", "tau", "cycle"])
@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_pair_brackets_commute_with_weyl_and_transpose(n, d, sigma):
    # the lemma of `_certify_degree`: sigma [a, b] = [sigma a, sigma b] for
    # every grade-1 pair a and grade-(d-1) pair b, in pair coordinates, for
    # generators of S_n x <tau>; the cycle sends x_{n-1,n-1} to x_nn, which
    # is -(x_11 + ... + x_{n-1,n-1}) on tr = 0
    perm, t = equivariance_group(n)[sigma]
    ring = liegen._TracelessFields(n, d)
    table = liegen._PairBrackets(ring, 1, d)
    left, right, out = (PairAction(ring, e, perm, t) for e in (1, d - 1, d))
    nv = ring.nv
    assert left.moves_n() == (sigma == "cycle")
    lefts = [left({a: 1}) for a in range(len(table.left) * nv)]
    for b in range(len(table.right) * nv):
        sb = right({b: 1})
        for a, sa in enumerate(lefts):
            lhs, rhs = {}, {}
            table.add(a, b, 1, lhs)
            for i, ci in sa.items():
                for j, cj in sb.items():
                    table.add(i, j, ci * cj, rhs)
            assert out(lhs) == {k: c for k, c in rhs.items() if c}


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_small_primes_never_certify_a_wrong_rank(prime, monkeypatch, capsys):
    # rank_p(B) <= rank_Q(B), so a prime that loses rank can only leave a
    # grade uncertified, and `generate` exits 5; a certified row has the
    # closed-form ranks.  The uncertified list is what a run gives: grade 2
    # stays open mod 2 at n = 2 and mod 3 at n = 3
    monkeypatch.setattr(liegen, "CLOSURE_PRIME", prime)
    uncertified = []
    for n, max_degree in ((2, 4), (3, 2)):
        code = cli.main(["generate", "--n", str(n), "--max-degree", str(max_degree)])
        rows = json.loads(capsys.readouterr().out)["degrees"]
        assert len(rows) == max_degree + 1
        for d, row in enumerate(rows):
            assert row["prime"] == prime and row["complete"]
            if row["certified"]:
                target, relations = closed_form(n, d)
                assert row["achieved_rank"] == row["target_rank"] == target
                assert row["sl_component_rank"] == row["sl_target_component_rank"] \
                    == target - relations
                assert row["relation_rank"] == relations and not row["missing_witnesses"]
        if all(row["certified"] for row in rows):
            assert code == 0
        else:
            assert code == 5
            uncertified.append(n)
    assert uncertified == {2: [2], 3: [3], 5: []}[prime]


@pytest.mark.parametrize("n,max_degree", [(3, 3), (4, 2)])
def test_closure_sets_up_only_what_the_representatives_use(n, max_degree, monkeypatch):
    # a pair-bracket table derives W(f) only for the right monomials f of
    # the brackets it takes
    used = {}
    add_bracket = liegen._PairBrackets.add

    def recording_add(self, a, b, scale, out):
        used.setdefault(self, set()).add(b // self.nv)
        add_bracket(self, a, b, scale, out)

    monkeypatch.setattr(liegen._PairBrackets, "add", recording_add)
    ring = liegen._TracelessFields(n, max_degree)
    for all_blocks in (False, True):
        used.clear()
        closure(build_seeds(n), max_degree, all_blocks=all_blocks)
        for table, js in used.items():
            assert set(table.derivatives) == js
        # at (4,2) the representatives use every variable; at (3,3) they
        # leave some degree-2 right monomials unused
        top = next(t for t in used if len(t.offset) == len(ring.monomials(max_degree)))
        assert (len(top.derivatives) < len(top.right)) == (max_degree == 3 and not all_blocks)


def weight_oracle(ring, key):
    """The sl_n weight of a packed term as a tuple: e_i - e_j for each
    x_ij in the monomial, e_j - e_i for the component d/dx_ij."""
    n, w = ring.n, [0] * ring.n
    comp = key & ((1 << ring.cbits) - 1)
    w[comp // n] -= 1
    w[comp % n] += 1
    exps = key >> ring.cbits
    for j in range(ring.nv):
        e = (exps >> (ring.ebits * j)) & ((1 << ring.ebits) - 1)
        w[j // n] += e
        w[j % n] -= e
    return tuple(w)


@pytest.mark.parametrize("n,max_degree", [(2, 4), (3, 2)])
def test_evaluated_brackets_lie_in_their_predicted_weight(n, max_degree, monkeypatch):
    # the closure predicts a bracket's block as the sum of its operands'
    # pair weights; every term of every pair bracket it takes has that
    # weight, and the encoding agrees with the weight tuples
    ring = liegen._TracelessFields(n, max_degree)
    grades = range(max_degree + 1)
    weights = {d: ring.weights(d) for d in grades}
    by_tuple = {}
    for d in grades:
        # each pair f*V as a packed field: f * V(x_v) at each component v
        pairs = [{f + m + v: c for v in range(ring.nv) for m, c in image[ring.units[v]].items()}
                 for f in ring.monomials(d) for image in ring.images]
        for field, w in zip(pairs, weights[d]):
            for key in field:
                assert by_tuple.setdefault(weight_oracle(ring, key), w) == w
    assert len(set(by_tuple.values())) == len(by_tuple)
    grade_of = {len(ring.monomials(d)): d for d in grades}

    calls = []
    inner = liegen._PairBrackets.add

    def recording(self, a, b, scale, out):
        term = {}
        inner(self, a, b, scale, term)
        e, d = grade_of[len(self.left)], grade_of[len(self.offset)]
        calls.append((weights[e][a] + weights[d - e][b], d, term))
        for k, c in term.items():
            out[k] = out.get(k, 0) + c

    monkeypatch.setattr(liegen._PairBrackets, "add", recording)
    res = closure(build_seeds(n), max_degree)
    assert len(calls) >= sum(rep.brackets_evaluated for rep in res.reports.values())
    assert sum(d >= 2 for _, d, _ in calls) == sum(
        rep.brackets_evaluated for d, rep in res.reports.items() if d >= 2)
    representatives = {d: ring.orbits(weights[d]) for d in grades}
    nonzero = 0
    for w, d, term in calls:
        assert {weights[d][k] for k, c in term.items() if c} <= {w}
        # the [T_1, T_{d-1}] step computes only the orbit representatives
        assert d <= 1 or w in representatives[d]
        nonzero += any(term.values())
    assert nonzero > len(calls) // 2


def add(u, v):
    return {k: u.get(k, 0) + v.get(k, 0) for k in u.keys() | v.keys()}


def test_vectors_across_weight_blocks_raise():
    # a sum of two kept vectors of different weights, or of two relations of
    # different weights, spans two blocks of the closure's echelon
    res = closure(build_seeds(2), 1)
    ring = liegen._TracelessFields(2, 1)
    space = ModularRowSpace(liegen.CLOSURE_PRIME, ring.weights(1))
    u = res.spans[1][0]
    v = next(vec for vec in res.spans[1] if space.block(vec) != space.block(u))
    with pytest.raises(GradingError):
        space.insert(add(u, v))
    ring = liegen._TracelessFields(3, 2)
    space = ModularRowSpace(liegen.CLOSURE_PRIME, ring.weights(2))
    relations = kostant_relations(ring, 2)
    r = relations[0]
    s = next(s for s in relations if space.block(s) != space.block(r))
    assert space.insert(r) and space.insert(s) and space.rank == 2
    with pytest.raises(GradingError):
        space.insert(add(r, s))
    assert space.rank == 2


def test_a_block_without_brackets_stays_open(monkeypatch, capsys):
    # with nothing written into one representative block of grade 2, whose
    # orbit has other blocks, only brackets could fill it: the grade is not
    # certified, its witnesses are that block's pairs and a line for the
    # rest of its orbit, and generate exits 5
    ring = liegen._TracelessFields(3, 2)
    weights = ring.weights(2)
    orbits = ring.orbits(weights)
    w = next(w for w in sorted(orbits) if len(orbits[w]) >= 2)
    top = len(ring.monomials(2))
    inner = liegen._PairBrackets.add

    def add_outside_w(self, a, b, scale, out):
        term = {}
        inner(self, a, b, scale, term)
        if len(self.offset) == top and any(weights[k] == w for k, c in term.items() if c):
            return
        for k, c in term.items():
            out[k] = out.get(k, 0) + c

    monkeypatch.setattr(liegen._PairBrackets, "add", add_outside_w)
    assert cli.main(["generate", "--n", "3", "--max-degree", "2"]) == 5
    rows = json.loads(capsys.readouterr().out)["degrees"]
    assert rows[0]["certified"] and rows[1]["certified"]
    row = rows[2]
    assert row["complete"] and not row["certified"] and row["sl_component_rank"] is None
    gens = generator_ids(3)
    monos = list(slice_monomials(ring.nv, 2))
    pairs = [f"{Polynomial.from_monomial(9, monos[i // ring.nv])} * {gens[i % ring.nv].label()}"
             for i, v in enumerate(weights) if v == w]
    others = [v for v in orbits[w] if v != w]
    count = sum(weights.count(v) for v in others)
    assert row["missing_witnesses"] == pairs + [
        f"weight {ring.weight_vector(w)} is open: {len(others)} more block(s) of its orbit "
        f"({count} pairs) follow it"]
    assert row["achieved_rank"] == row["target_rank"] - len(pairs) - count


@pytest.mark.parametrize("n,max_degree,digest", [
    pytest.param(2, 4, "3b24812941f1169e", id="2-4"),
    pytest.param(3, 2, "8be9687e7835e3e2", id="3-2"),
    pytest.param(3, 3, "7eb720615812c5d4", id="3-3")])
def test_kept_vectors_are_pinned(n, max_degree, digest, closure_n3):
    # the kept vectors B in pair coordinates and their order: seeds and
    # generator brackets at grades 0-1, [T_1, T_{d-1}] brackets of the orbit
    # representatives' blocks above
    res = closure_n3 if (n, max_degree) == (3, 2) else closure_of(n, max_degree)
    spans = [[sorted(v.items()) for v in res.spans[d]] for d in range(max_degree + 1)]
    assert hashlib.sha256(json.dumps(spans).encode()).hexdigest()[:16] == digest


def test_uncertified_operands_leave_later_grades_unproven():
    # a grade-1 seed set that leaves grade 1 short: the brackets of grade 2
    # would need every grade-1 pair in the algebra, so grade 2 runs none and
    # is not certified either.  Its witnesses are the pairs of the orbit
    # representatives, each open orbit followed by a line for its other
    # blocks, and no pair of the grade counts as achieved
    seeds = [s for s in build_seeds(2) if s.grade == 0]
    res = closure(seeds, 2)
    assert not res.reports[1].certified
    rep = res.reports[2]
    assert rep.complete and not rep.certified and rep.sl_rank is None
    assert rep.brackets_evaluated == rep.brackets_skipped == rep.blocks_computed == 0
    ring = liegen._TracelessFields(2, 2)
    weights = ring.weights(2)
    orbits = ring.orbits(weights)
    pairs = [w for w in rep.missing_witnesses if " * " in w]
    follow = [w for w in rep.missing_witnesses if " * " not in w]
    assert len(pairs) == sum(map(weights.count, orbits)) == 11
    assert len(follow) == sum(len(ws) > 1 for ws in orbits.values()) == 3
    assert follow[0] == "weight (-1, 1) is open: 1 more block(s) of its orbit (4 pairs) follow it"
    followers = sum(int(re.search(r"\((\d+) pairs\)", w).group(1)) for w in follow)
    assert rep.achieved_rank == rep.target_rank - len(pairs) - followers == 0


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("deg", [6, 7, 8])
def test_general_step_beyond_the_catalog(n, deg):
    # the x12^d general step d[x12*Xi1, x12^d*Theta12] - [x12^d*Xi1,
    # x12*Theta12] = -2d(d-1)*x12^(d+1)*Theta12 past the catalog's d = 2..5
    lhs, verified, printed = liegen._general_step(deg)(n, random.Random(0))
    assert (lhs - verified).is_zero()
    assert not (lhs - printed).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_structure_constants_match_the_double_loop(n):
    # the table is computed once per unordered pair and filled in by
    # antisymmetry; the direct double loop over ordered pairs is the oracle
    entries = [[(i, j, c) for i, row in enumerate(generator_matrix(n, g))
                for j, c in enumerate(row) if c] for g in generator_ids(n)]
    direct = [[liegen._sl_coordinates(n, liegen._commutator_entries(A, B)) for B in entries]
              for A in entries]
    assert liegen._TracelessFields(n, 1).structure == direct
