import dataclasses
import functools
import hashlib
import itertools
import json
import random
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
from specball.polyring import (
    Monomial, Polynomial, format_poly, parse_poly, slice_monomials, substitute_trace)


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
    and at d >= 2 every pair, which the weight lemma and the weight-0 lemma
    of `_certify_degree` put in L."""
    if d <= 1:
        return kept_fields(res, d)
    npairs = len(liegen._TracelessFields(res.n, d).weights(d))
    return kept_fields(res, d) + [pair_field({i: 1}, res.n, d) for i in range(npairs)]


def pair_labels(n, d):
    """The label `closure` gives each grade-d pair in its witnesses, by pair
    index."""
    gens = [g.label() for g in generator_ids(n)]
    return [f"{format_poly(Polynomial.from_monomial(n * n, m))} * {g}"
            for m in slice_monomials(n * n - 1, d) for g in gens]


def step_closure(seeds, max_degree):
    """The retired [T_1, T_{d-1}] step, the reference for grades d >= 2.

    Grades 0 and 1 are `closure`'s.  A grade d >= 2 puts its seeds, and,
    when grades 1 and d - 1 are certified, the brackets of each grade-1 pair
    a with each grade-(d-1) pair b (a < b at d = 2), through
    `_PairBrackets.add`, into a `ModularRowSpace` graded by weight; it skips
    a bracket whose block is full and computes every block.  It is certified
    when grades 1 and d - 1 are and every block is full; its witnesses are
    all pairs outside the span, by pair index."""
    res = closure(seeds, min(max_degree, 1))
    n, spans, reports = res.n, res.spans, res.reports
    ring = liegen._TracelessFields(n, max_degree)
    gens = liegen._generator_index(n)
    for d in range(2, max_degree + 1):
        weights = ring.weights(d)
        space = ModularRowSpace(liegen.CLOSURE_PRIME, weights)
        table = liegen._PairBrackets(ring, 1, d)
        kept = spans[d] = []
        for s in (s for s in seeds if s.grade == d):
            vec = {table.offset[m] + gens[s.generator]: c
                   for m, c in ring.restrict(s.coefficient).items()}
            if space.insert(vec):
                kept.append(vec)
        operands = reports[1].certified and reports[d - 1].certified
        evaluated = 0
        if operands:
            ones, rest = ring.weights(1), ring.weights(d - 1)
            for b, wb in enumerate(rest):
                for a, wa in enumerate(ones[:b] if d == 2 else ones):
                    if wa + wb in space.open_blocks:
                        out = {}
                        table.add(a, b, 1, out)
                        evaluated += 1
                        out = {k: c for k, c in out.items() if c}
                        if space.insert(out):
                            kept.append(out)
        labels = pair_labels(n, d)
        missing = [labels[i] for i in range(len(weights)) if not space.contains({i: 1})]
        certified = operands and not missing
        target, relations = closed_form(n, d)
        blocks = len(set(weights))
        reports[d] = liegen.DegreeReport(
            n=n, grade=d, method="pair-coordinate", operands="T_1 x T_{d-1}",
            target_rank=target, achieved_rank=target - len(missing), missing_witnesses=missing,
            sl_rank=target - relations if certified else None,
            sl_target_component_rank=target - relations, gl_rank=len(kept),
            brackets_evaluated=evaluated, brackets_skipped=0, blocks=blocks,
            blocks_computed=blocks if operands else 0, complete=True, certified=certified,
            prime=liegen.CLOSURE_PRIME, relation_rank=relations)
    return liegen.ClosureResult(n, max_degree, spans, reports, res.complete)


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
    res = step_closure(seeds, 2)
    v = scale_field(parse_poly("x21*x31", 3), make_theta(3, 1, 2))
    assert in_span(kept_fields(res, 2), v, 2)


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
    res = step_closure(build_seeds(2), 3)
    t12 = make_theta(2, 1, 2)
    x12 = Polynomial.x(1, 2, 2)
    for d in (1, 2, 3):
        assert in_span(kept_fields(res, d), scale_field(x12 ** d, t12), d)
    for d in (0, 1, 2, 3):
        assert res.reports[d].certified


def test_closure_n3_degree1_contains_x11_xi1():
    res = closure(build_seeds(3), 1)
    v = scale_field(Polynomial.x(1, 1, 3), make_xi(3, 1))
    assert in_span(kept_fields(res, 1), v, 1)


def test_closure_n3_degree2_contains_x12sq_theta12():
    res = step_closure(build_seeds(3), 2)
    v = scale_field(parse_poly("x12^2", 3), make_theta(3, 1, 2))
    assert in_span(kept_fields(res, 2), v, 2)
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
    # one: 4 and 5 brackets run out in grade 1 (it needs 6), which leaves
    # some of its pairs unproven.  Grades >= 2 take no bracket, so the 6 of
    # grade 1 complete the closure to any grade
    full = closure(build_seeds(2), 3)
    assert full.complete
    for budget in (4, 5):
        res = closure(build_seeds(2), 3, budget_brackets=budget)
        assert not res.complete
        assert max(res.reports) == max(res.spans) == 1
        for d, rep in res.reports.items():
            assert rep.achieved_rank <= rep.target_rank
            assert rep.achieved_rank <= full.reports[d].achieved_rank
            for v in kept_fields(res, d):
                assert in_span(kept_fields(full, d), v, d)
        rep = res.reports[1]
        assert not rep.complete and not rep.certified and rep.missing_witnesses
        assert rep.achieved_rank == rep.target_rank - len(rep.missing_witnesses)
        assert set(rep.missing_witnesses) < set(pair_labels(2, 1))
        assert sum(r.brackets_evaluated for r in res.reports.values()) == budget
    res = closure(build_seeds(2), 3, budget_brackets=6)
    assert res.complete and all(rep.certified for rep in res.reports.values())
    assert [rep.brackets_evaluated for rep in res.reports.values()] == [0, 6, 0, 0]


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


@pytest.mark.parametrize("grade,begun", [(1, 3), (1, 5)])
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


def test_budgets_bound_grades_0_and_1_only(monkeypatch):
    # grades >= 2 take no bracket, so no budget reaches them: a deadline
    # that passes once grade 1 is certified, or a bracket budget that grade 1
    # uses up, still reports every grade, certified
    clock = [0.0]
    monkeypatch.setattr(liegen.time, "monotonic", lambda: clock[0])
    certify = liegen._certify_degree

    def certify_then_expire(ring, d, *args):
        if d == 1:
            clock[0] = 1e9
        return certify(ring, d, *args)

    monkeypatch.setattr(liegen, "_certify_degree", certify_then_expire)
    for budget in ({"budget_ms": 1}, {"budget_brackets": 6}):
        res = closure(build_seeds(2), 4, **budget)
        assert res.complete and list(res.reports) == list(range(5))
        assert all(rep.certified and rep.complete for rep in res.reports.values())


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


@pytest.fixture(scope="module")
def step_n3():
    return step_closure(build_seeds(3), 2)


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


def test_sl_projection_matches_per_component_oracle(step_n3):
    for d in range(3):
        proj = _SlProjector(3, d)
        fields = kept_fields(step_n3, d)
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
    # the pair count minus Kostant's count.  In the reference step, which
    # computes every block, B spans every pair; `closure` keeps no vector at
    # d >= 2, where the lemmas put every pair in L
    step = step_closure(build_seeds(n), max_degree)
    for res in (step, closure_n3 if n == 3 else closure_of(n, max_degree)):
        for d in range(max_degree + 1):
            rep = res.reports[d]
            target, relations = closed_form(n, d)
            pairs = ExactRowSpace()
            for vec in res.spans[d]:
                assert pairs.insert(vec)
            assert pairs.rank == rep.gl_rank == len(res.spans[d])
            if res is step or d <= 1:
                assert rep.gl_rank == target
            projector = _SlProjector(n, d)
            fields = ExactRowSpace()
            for v in kept_fields(res, d) if res is step else proved_fields(res, d):
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
def closure_of(n, max_degree):
    return closure(build_seeds(n), max_degree)


@pytest.mark.parametrize("n,max_degree", [(2, 4), (3, 2), (3, 3), (4, 2), (3, 4), (4, 3)])
def test_closure_ranks_closed_form(n, max_degree, closure_n3):
    # up to (3,3) and (4,2), the ranks, relation ranks, prime and verdicts are
    # those of the closure that bracketed field vectors in column coordinates
    # (one-prime certificate); (3,4) and (4,3) those of the [T_1, T_{d-1}]
    # step.  Grades 0-1 fill every block; a grade d >= 2 takes no bracket and
    # keeps no vector, as the lemmas prove it from grade 1.  The relation
    # rank is Kostant's count, and the block count, read off no pair, is that
    # of the pairs' weights
    res = closure_n3 if (n, max_degree) == (3, 2) else closure_of(n, max_degree)
    ring = liegen._TracelessFields(n, max_degree)
    for d in range(max_degree + 1):
        rep = res.reports[d]
        target, relations = closed_form(n, d)
        weights = ring.weights(d)
        assert rep.target_rank == len(weights) == target
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
            assert rep.method == "pair-coordinate/weight-lemma" and rep.operands == "T_1 x T_{d-1}"
            assert rep.blocks_computed == rep.brackets_evaluated == rep.brackets_skipped == 0
            assert res.spans[d] == []
    expected = {2: [3, 8, 15, 24, 35], 3: [8, 63, 279, 916, 2484], 4: [15, 224, 1784, 10064]}[n]
    assert [res.reports[d].sl_rank for d in range(max_degree + 1)] == expected[:max_degree + 1]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_block_count_reads_no_pair(n):
    # the block count from sums of coordinate weights is the number of
    # distinct weights of the grade-d pairs, listed pair by pair
    ring = liegen._TracelessFields(n, 3)
    for d in range(4 if n <= 4 else 3):
        assert ring.block_count(d) == len(set(ring.weights(d))), d


@pytest.mark.parametrize("n,max_degree", [(2, 6), (3, 4), (4, 3)])
def test_step_closure_matches_closure(n, max_degree):
    # the retired step brackets every block of every grade d >= 2 and fills
    # it; its verdicts, achieved ranks and witnesses are those of `closure`,
    # which takes no bracket there.  On the Theta-only and grade-0-only seed
    # subsets grade 1 is not certified, so neither certifies a grade d >= 2:
    # the step lists every pair, `closure` block 0's, then a line counting
    # the pairs of nonzero weight
    seeds = build_seeds(n)
    ring = liegen._TracelessFields(n, max_degree)
    for subset in (seeds, [s for s in seeds if isinstance(s.generator, Theta)],
                   [s for s in seeds if s.grade == 0]):
        step, res = step_closure(subset, max_degree), closure(subset, max_degree)
        assert step.complete and res.complete
        for d in range(2, max_degree + 1):
            ref, rep = step.reports[d], res.reports[d]
            assert (ref.certified, ref.achieved_rank) == (rep.certified, rep.achieved_rank)
            assert ref.certified == (subset is seeds) == step.reports[1].certified
            if ref.certified:
                assert ref.gl_rank == ref.target_rank and ref.blocks_computed == ref.blocks
                assert ref.missing_witnesses == rep.missing_witnesses == []
                continue
            zero = {label for label, w in zip(pair_labels(n, d), ring.weights(d)) if not w}
            block0 = [label for label in ref.missing_witnesses if label in zero]
            assert rep.missing_witnesses == block0 + [
                f"{len(ref.missing_witnesses) - len(block0)} pairs of nonzero weight are "
                "unproven: the weight lemma needs grades 1 and d - 1 certified"]


def test_grade_with_its_own_seeds_fills_block_zero():
    # seeds of grade 2, one of nonzero weight and one in block 0, go into
    # that grade's echelon and are kept, and the grade is certified from
    # grade 1 whatever its seeds.  With grade 1 left open (the grade-0 seeds
    # alone), the block-0 seed fills its pair of block 0, which is then no
    # witness; the seed of nonzero weight is not read
    extra = [Seed(parse_poly("x12*x21", 3), Theta(1, 2), 2),
             Seed(parse_poly("x11*x22", 3), Xi(1), 2)]
    res = closure(build_seeds(3) + extra, 3)
    rep = res.reports
    for r in (rep[2], rep[3]):
        assert r.method == "pair-coordinate/weight-lemma" and r.blocks_computed == 0 < r.blocks
    assert all(r.certified for r in rep.values())
    assert rep[2].sl_rank == closed_form(3, 2)[0] - closed_form(3, 2)[1]
    ring = liegen._TracelessFields(3, 2)
    weights = ring.weights(2)
    assert [{weights[i] for i in vec} for vec in res.spans[2]] == [{ring.gen_weights[0]}, {0}]
    assert (rep[2].gl_rank, rep[3].gl_rank) == (2, 0)
    grade0 = [s for s in build_seeds(3) if s.grade == 0]
    alone, seeded = closure(grade0, 2).reports[2], closure(grade0 + extra, 2).reports[2]
    assert not alone.certified and not seeded.certified and seeded.gl_rank == 2
    assert "x11*x22 * xi1" in alone.missing_witnesses
    assert [w for w in alone.missing_witnesses if w != "x11*x22 * xi1"] == seeded.missing_witnesses
    assert (alone.achieved_rank, seeded.achieved_rank) == (0, 1)


def pair_brackets(n, max_degree):
    """Every bracket the closure, the reference step and the lemmas may take
    up to `max_degree`, as (d, e, a, b): at grades d = 0 and 1 the grade-0
    pair a (a generator) with each grade-d pair b; at d >= 2 each grade-1
    pair a with each grade-(d-1) pair b."""
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
    # the closed form is equivariant: sigma [a, b] = [sigma a, sigma b] for
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
    # closed-form ranks.  Only grades 0-1 have an echelon to lose rank in,
    # and they stay certified mod 2 and 3, as the lemmas prove grades >= 2
    # over Q.  The reference step, whose grade 2 brackets into an echelon,
    # leaves that grade open mod 2 at n = 2 and mod 3 at n = 3
    monkeypatch.setattr(liegen, "CLOSURE_PRIME", prime)
    step_open = [n for n in (2, 3) if not step_closure(build_seeds(n), 2).reports[2].certified]
    assert step_open == {2: [2], 3: [3], 5: []}[prime]
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
    assert uncertified == []


@pytest.mark.parametrize("n,max_degree", [(3, 3), (4, 2)])
def test_closure_sets_up_only_what_the_representatives_use(n, max_degree, monkeypatch):
    # a pair-bracket table derives W(f) only for the right monomials f of
    # the brackets it takes, in `closure` and in the reference step.
    # `closure` sets up tables for grades 0-1 alone, and its grade-1 walk
    # leaves some variables unused as right operands
    used = {}
    add_bracket = liegen._PairBrackets.add

    def recording_add(self, a, b, scale, out):
        used.setdefault(self, set()).add(b // self.nv)
        add_bracket(self, a, b, scale, out)

    monkeypatch.setattr(liegen._PairBrackets, "add", recording_add)
    ring = liegen._TracelessFields(n, max_degree)
    for run in (closure, step_closure):
        used.clear()
        run(build_seeds(n), max_degree)
        for table, js in used.items():
            assert set(table.derivatives) == js
        top = max(used, key=lambda t: len(t.offset))
        assert len(top.offset) == len(ring.monomials(1 if run is closure else max_degree))
        assert run is step_closure or len(top.derivatives) < len(top.right)


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
    nonzero = 0
    for w, d, term in calls:
        assert {weights[d][k] for k, c in term.items() if c} <= {w}
        # grades >= 2 take no bracket
        assert d <= 1
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
    # with no bracket written into block 0 of grade 1, that block stays
    # open: grade 1 is not certified, its witnesses are block 0's pairs
    # outside the span of its seeds, and the other blocks are full.  Grade
    # 2, proved from grade 1 only, is unproven too: its witnesses are block
    # 0's pairs, then the count of the rest.  generate exits 5
    ring = liegen._TracelessFields(3, 2)
    weights = {d: ring.weights(d) for d in (1, 2)}
    grade1 = len(ring.monomials(1))
    inner = liegen._PairBrackets.add

    def add_outside_block_0(self, a, b, scale, out):
        term = {}
        inner(self, a, b, scale, term)
        if len(self.offset) == grade1 and any(weights[1][k] == 0 for k, c in term.items() if c):
            return
        for k, c in term.items():
            out[k] = out.get(k, 0) + c

    monkeypatch.setattr(liegen._PairBrackets, "add", add_outside_block_0)
    assert cli.main(["generate", "--n", "3", "--max-degree", "2"]) == 5
    rows = json.loads(capsys.readouterr().out)["degrees"]
    assert rows[0]["certified"] and not rows[1]["certified"]
    for row in rows[1:]:
        assert row["complete"] and not row["certified"] and row["sl_component_rank"] is None
    # block 0 of grade 1: the seeds x_aa * xi_b fill its Cartan pairs, and
    # the root pairs x_ab * theta_ab are left
    row1, row2 = rows[1:]
    assert [p for p, w in zip(pair_labels(3, 1), weights[1]) if w == 0] == [
        "x11 * xi1", "x11 * xi2", "x12 * theta12", "x13 * theta13", "x21 * theta21",
        "x22 * xi1", "x22 * xi2", "x23 * theta23", "x31 * theta31", "x32 * theta32"]
    assert row1["missing_witnesses"] == ["x12 * theta12", "x13 * theta13", "x21 * theta21",
                                         "x23 * theta23", "x31 * theta31", "x32 * theta32"]
    assert row1["achieved_rank"] == row1["target_rank"] - 6
    assert row2["missing_witnesses"] == [p for p, w in zip(pair_labels(3, 2), weights[2]) if w == 0] + [
        "258 pairs of nonzero weight are unproven: the weight lemma needs grades 1 and d - 1 "
        "certified"]
    assert row2["achieved_rank"] == 0


@pytest.mark.parametrize("n,max_degree,digest", [
    pytest.param(2, 4, "3849e2fddb80e066", id="2-4"),
    pytest.param(3, 2, "36fea503d103cc7c", id="3-2"),
    pytest.param(3, 3, "36fea503d103cc7c", id="3-3")])
def test_kept_vectors_are_pinned(n, max_degree, digest, closure_n3):
    # the kept vectors B in pair coordinates and their order: seeds and
    # generator brackets at grades 0-1, and none above
    res = closure_n3 if (n, max_degree) == (3, 2) else closure_of(n, max_degree)
    assert all(res.spans[d] == [] for d in range(2, max_degree + 1))
    spans = [[sorted(v.items()) for v in res.spans[d]] for d in (0, 1)]
    assert hashlib.sha256(json.dumps(spans).encode()).hexdigest()[:16] == digest


def lemma_setting(n, d):
    """The grade-d setting of the lemmas of `_certify_degree`: the ring, the
    generator indices, those of the Xi_a, lambda_u(a) and mu_V(a)
    (Xi_a(x_u) = lambda_u(a) x_u, [Xi_a, V] = mu_V(a) V), the index of each
    degree-d monomial, the weight lambda_m of a monomial, and `take`, the
    bracket [x_u*W, f*V] of `_PairBrackets.add` for f of degree d - 1."""
    ring = liegen._TracelessFields(n, d)
    table = liegen._PairBrackets(ring, 1, d)
    nv, units = ring.nv, ring.units
    index = {g: gi for gi, g in enumerate(generator_ids(n))}
    xis = [index[Xi(a)] for a in range(1, n)]
    lam = [tuple(ring.images[xa][units[u]].get(units[u], 0) for xa in xis) for u in range(nv)]
    mu = [tuple(sum(c for _, c in ring.structure[xa][V]) for xa in xis) for V in range(nv)]
    right = ring.index(d - 1)

    def weight(m):
        return tuple(sum(e * lam[v][a] for v, e in ring.factors(m)) for a in range(n - 1))

    def take(u, W, f, V):
        out = {}
        table.add(u * nv + W, right[f] * nv + V, 1, out)
        return {k: c for k, c in out.items() if c}
    return ring, index, xis, lam, mu, ring.index(d), weight, take


def lemma_family(n, d, step3=True):
    """The brackets of the weight lemma's proof (`_certify_degree`) at grade
    d >= 2, as pair vectors from `_PairBrackets.add`, each checked against
    the closed form the proof reads off it: step 1 for the root pairs g*Theta
    of nonzero weight, step 2 for the Cartan pairs h*Xi_b with lambda_h != 0,
    and, when `step3`, step 3's brackets for the d = 2 exceptions."""
    ring, index, xis, lam, mu, top, weight, take = lemma_setting(n, d)
    nv, units = ring.nv, ring.units

    def is_exception(m):
        """Whether m is x_ab^2, a != b, at d = 2."""
        factors = ring.factors(m)
        return d == 2 and len(factors) == 1 and factors[0][1] == 2 and any(lam[factors[0][0]])

    family = []
    for g, gj in top.items():
        lg = weight(g)
        for V in range(nv):
            if V in xis or lg == mu[V]:
                continue                    # Cartan pairs below; weight 0
            # step 1: a split g = x_u f with lambda_f != mu_V, and an a where
            # the coefficient (mu_V - lambda_f)(a) is nonzero
            for u, _ in ring.factors(g):
                lf = tuple(x - y for x, y in zip(lg, lam[u]))
                a = next((a for a in range(n - 1) if mu[V][a] != lf[a]), None)
                if a is not None:
                    vec = take(u, xis[a], g - units[u], V)
                    assert {k: c for k, c in vec.items() if k % nv not in xis} == {
                        gj * nv + V: mu[V][a] - lf[a]}
                    family.append(vec)
                    break
            else:
                # only x_ab^2 * Theta_ab, at d = 2
                assert is_exception(g) and mu[V] == lam[ring.factors(g)[0][0]]
        if not any(lg):
            continue
        # step 2: the Cartan pairs h*Xi_b of h = g
        factors = ring.factors(g)
        diagonal = [u for u, _ in factors if not any(lam[u])]
        if diagonal:
            u = diagonal[0]
            a = next(a for a in range(n - 1) if lg[a])
            for b, xb in enumerate(xis):
                vec = take(u, xis[a], g - units[u], xb)
                assert vec == {gj * nv + xb: -lg[a]}
                family.append(vec)
            continue
        split = [u for u, _ in factors if lam[u] != tuple(x - y for x, y in zip(lg, lam[u]))]
        if not split:
            assert is_exception(g)
            continue
        u = split[0]
        lf = tuple(x - y for x, y in zip(lg, lam[u]))
        for a, xa in enumerate(xis):
            for b, xb in enumerate(xis):
                want = {gj * nv + xa: lam[u][b]}
                want[gj * nv + xb] = want.get(gj * nv + xb, 0) - lf[a]
                vec = take(u, xa, g - units[u], xb)
                assert vec == {k: c for k, c in want.items() if c}
                family.append(vec)
    if d == 2 and step3:
        # step 3: x_dd = x_aa, or x_bb when a = n
        for a, b in itertools.permutations(range(n), 2):
            ab, ba = a * n + b, b * n + a
            dd = (a if a < n - 1 else b) * (n + 1)
            t_ab, t_ba = index[Theta(a + 1, b + 1)], index[Theta(b + 1, a + 1)]
            for xc in xis:
                vec = take(ab, xc, units[dd], t_ba)
                assert set(vec) <= {top[units[dd] + units[ab]] * nv + t_ba}
                family += [vec, take(dd, xc, units[ab], t_ba)]
            family.append(take(dd, t_ab, units[ab], t_ba))
    return ring.weights(d), family


def weight_zero_family(n, d, steps="abcd"):
    """The brackets of the weight-0 lemma's proof (`_certify_degree`) at
    grade d >= 2, as pair vectors from `_PairBrackets.add`, each checked
    against the closed form the proof reads off it: step a for the root
    pairs g*Theta of weight 0, b for the Cartan pairs h*Xi_b with lambda_h = 0
    and h not diagonal, c for the diagonal Cartan pairs at n >= 3, and d for
    x11^d*Xi1 at n = 2.  `steps` names the steps taken."""
    ring, index, xis, lam, mu, top, weight, take = lemma_setting(n, d)
    nv, units = ring.nv, ring.units
    family = []
    for g, gj in top.items():
        lg = weight(g)
        off = [u for u, _ in ring.factors(g) if any(lam[u])]
        for V in range(nv) if "a" in steps else ():
            if V in xis or lg != mu[V]:
                continue
            # a: lambda_g = mu_V != 0, so g has an off-diagonal factor x_u
            u = off[0]
            a = next(a for a in range(n - 1) if lam[u][a])
            vec = take(u, xis[a], g - units[u], V)
            assert {k: c for k, c in vec.items() if k % nv not in xis} == {gj * nv + V: lam[u][a]}
            family.append(vec)
        if "b" in steps and off and not any(lg):
            # b: lambda_{g/x_u} = -lambda_u, so [x_u*Xi_a, (g/x_u)*Xi_b] =
            # lambda_u(b) * g*Xi_a + lambda_u(a) * g*Xi_b
            u = off[0]
            for a, xa in enumerate(xis):
                for b, xb in enumerate(xis):
                    want = {gj * nv + xa: lam[u][b]}
                    want[gj * nv + xb] = want.get(gj * nv + xb, 0) + lam[u][a]
                    vec = take(u, xa, g - units[u], xb)
                    assert vec == {k: c for k, c in want.items() if c}
                    family.append(vec)
    if "c" in steps and n >= 3:
        def y(a):
            return {units[a * (n + 1)]: 1} if a < n - 1 else ring.trace_form

        diagonal = [f for f in ring.monomials(d - 1)
                    if all(v % (n + 1) == 0 for v, _ in ring.factors(f))]
        for a, b in itertools.permutations(range(n), 2):
            ab, t_ab = a * n + b, index[Theta(a + 1, b + 1)]
            image = ring.images[t_ab][units[ab]]
            assert image in (liegen._sum([(y(a), 1), (y(b), -1)]),
                             liegen._sum([(y(a), -1), (y(b), 1)]))
            # c: K = sum k_c Xi_c in ker alpha_ab, and f diagonal:
            # [x_ab*K, f*Theta_ab] = f*Theta_ab(x_ab)*K
            for c, e in itertools.combinations(range(n - 1), 2):
                K = {xis[c]: lam[ab][e], xis[e]: -lam[ab][c]}
                for f in diagonal:
                    vec = liegen._sum((take(ab, xk, f, t_ab), k) for xk, k in K.items())
                    assert vec == {top[f + m] * nv + xk: k * cm
                                   for m, cm in image.items() for xk, k in K.items() if k}
                    family.append(vec)
    if "d" in steps and n == 2:
        # d: [x11*Theta12, x11^(d-1)*Theta21], reduced by the step-a brackets
        # [x12*Xi1, x11^(d-1)*Theta12] and [x21*Xi1, x11^(d-1)*Theta21]
        x11, x12, x21 = units[:3]
        t12, t21, xi1 = index[Theta(1, 2)], index[Theta(2, 1)], xis[0]
        f = (d - 1) * x11
        kx, k12, k21 = top[d * x11] * nv + xi1, top[f + x12] * nv + t12, top[f + x21] * nv + t21
        v0, v1, v2 = take(0, t12, f, t21), take(1, xi1, f, t12), take(2, xi1, f, t21)
        assert v0 == {kx: 1, k12: -1, k21: 1 - d}
        assert v1 == {kx: -2, k12: 2} and v2 == {kx: 2, k21: -2}
        # v0 + v1 / 2 - (d - 1) / 2 * v2 = (1 - d) * x11^d*Xi1
        vec = liegen._sum([(v0, 2), (v1, 1), (v2, 1 - d)])
        assert vec == {kx: 2 * (1 - d)}
        family.append(vec)
    return ring, family


@pytest.mark.parametrize("n,max_degree", [(2, 6), (3, 4), (4, 3), (5, 2)])
def test_weight_lemma_family(n, max_degree):
    # the explicit brackets of the weight lemma span every block of nonzero
    # weight, at every grade from 2 to max_degree; only block 0 stays open
    for d in range(2, max_degree + 1):
        weights, family = lemma_family(n, d)
        space = ModularRowSpace(liegen.CLOSURE_PRIME, weights)
        for vec in family:
            space.insert(vec)
        assert space.open_blocks == {0}, d
        assert space.rank - len(space.blocks.get(0, ())) == sum(1 for w in weights if w)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_weight_lemma_needs_step_3(n):
    # without step 3's brackets the family falls short at d = 2 by exactly
    # the n * n(n - 1) pairs x_ab^2 * Xi_c and x_ab^2 * Theta_ab
    weights, family = lemma_family(n, 2, step3=False)
    space = ModularRowSpace(liegen.CLOSURE_PRIME, weights)
    for vec in family:
        space.insert(vec)
    nonzero = space.rank - len(space.blocks.get(0, ()))
    assert sum(1 for w in weights if w) - nonzero == n * n * (n - 1)


def block_zero(ring, d, family):
    """The echelon of the family's vectors over the grade-d pairs."""
    space = ModularRowSpace(liegen.CLOSURE_PRIME, ring.weights(d))
    for vec in family:
        space.insert(vec)
    return space


@pytest.mark.parametrize("n,max_degree", [(2, 8), (3, 5), (4, 4), (5, 3), (6, 2)])
def test_weight_zero_family(n, max_degree):
    # the explicit brackets of the weight-0 lemma fill block 0, and no other
    # block, at every grade from 2 to max_degree
    for d in range(2, max_degree + 1):
        ring, family = weight_zero_family(n, d)
        space = block_zero(ring, d, family)
        assert list(space.blocks) == [0] and 0 not in space.open_blocks, d


@pytest.mark.parametrize("n,d", [(2, 4), (3, 3), (4, 2)])
def test_both_lemmas_fill_every_block(n, d):
    # S_d holds every grade-d pair: the two families together fill every block
    weights, lemma = lemma_family(n, d)
    ring, zero = weight_zero_family(n, d)
    assert not block_zero(ring, d, lemma + zero).open_blocks


def test_weight_zero_lemma_needs_step_d():
    # at n = 2, without step d the family falls short of block 0 by exactly
    # its one diagonal Cartan pair x11^d*Xi1, at every grade
    for d in range(2, 9):
        ring, family = weight_zero_family(2, d, steps="abc")
        space = block_zero(ring, d, family)
        assert space.sizes[0] - len(space.blocks[0]) == 1
        assert not space.contains({ring.index(d)[d * ring.units[0]] * ring.nv + 2: 1})


@pytest.mark.parametrize("n,d", [(3, 2), (3, 5), (4, 4), (5, 3), (6, 3)])
def test_step_c_alone_fills_the_diagonal_cartan_pairs(n, d):
    # at n >= 3 the brackets of step c lie among the diagonal Cartan pairs
    # f*Xi_b, f a diagonal monomial, and span all of them
    ring, family = weight_zero_family(n, d, steps="c")
    nv = ring.nv
    xis = [gi for gi, g in enumerate(generator_ids(n)) if isinstance(g, Xi)]
    pairs = [j * nv + xi for j, m in enumerate(ring.monomials(d))
             if all(v % (n + 1) == 0 for v, _ in ring.factors(m)) for xi in xis]
    assert len(pairs) == comb(n + d - 2, d) * (n - 1)
    column = {k: i for i, k in enumerate(pairs)}
    space = ModularRowSpace(liegen.CLOSURE_PRIME, [0] * len(pairs))
    for vec in family:
        space.insert({column[k]: c for k, c in vec.items()})
    assert space.rank == len(pairs)


def test_uncertified_operands_leave_later_grades_unproven():
    # a grade-1 seed set that leaves grade 1 short: the brackets of grade 2
    # would need every grade-1 pair in the algebra, so grade 2 runs none,
    # the weight lemma proves nothing, and the grade is not certified.  Its
    # witnesses are the pairs of block 0, then one line counting the pairs
    # of nonzero weight, and no pair of the grade counts as achieved
    seeds = [s for s in build_seeds(2) if s.grade == 0]
    res = closure(seeds, 2)
    assert not res.reports[1].certified
    rep = res.reports[2]
    assert rep.complete and not rep.certified and rep.sl_rank is None
    assert rep.brackets_evaluated == rep.brackets_skipped == rep.blocks_computed == 0
    weights = liegen._TracelessFields(2, 2).weights(2)
    assert rep.missing_witnesses == [
        "x11^2 * xi1", "x11*x12 * theta12", "x11*x21 * theta21", "x12*x21 * xi1",
        "14 pairs of nonzero weight are unproven: the weight lemma needs grades 1 and d - 1 "
        "certified"]
    assert weights.count(0) == 4 and len(weights) == 18
    assert rep.achieved_rank == 0


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
