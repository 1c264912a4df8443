import random
from fractions import Fraction
from math import comb

import pytest

from specball import liegen
from specball.adjointfields import (
    Theta,
    VectorField,
    Xi,
    bracket,
    generator_field,
    generator_ids,
    make_theta,
    make_xi,
    scale_field,
)
from specball.linalg import ExactRowSpace, clear_denominators
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
from specball.polyring import Polynomial, parse_poly, slice_monomials, substitute_trace


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
    seeds = build_seeds(3)
    labels = {(str(s.coefficient), s.generator.label()) for s in seeds}
    assert ("x21*x31", "theta12") in labels


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
    assert in_span(res.spans[1], v, 1)
    assert res.reports[1].certified


def test_closure_contains_zero_field():
    res = closure(build_seeds(2), 1)
    assert in_span(res.spans[1], VectorField.zero(2), 1)


def test_closure_n2_contains_x12_powers():
    res = closure(build_seeds(2), 3)
    t12 = make_theta(2, 1, 2)
    x12 = Polynomial.x(1, 2, 2)
    for d in (1, 2, 3):
        assert in_span(res.spans[d], scale_field(x12 ** d, t12), d)
    for d in (0, 1, 2, 3):
        assert res.reports[d].certified


def test_closure_n3_degree1_contains_x11_xi1():
    res = closure(build_seeds(3), 1)
    v = scale_field(Polynomial.x(1, 1, 3), make_xi(3, 1))
    assert in_span(res.spans[1], v, 1)


def test_closure_n3_degree2_contains_x12sq_theta12():
    res = closure(build_seeds(3), 2)
    v = scale_field(parse_poly("x12^2", 3), make_theta(3, 1, 2))
    assert in_span(res.spans[2], v, 2)
    assert res.reports[2].certified


def test_closure_order_independent():
    # the fixed-point span is a well-defined subspace, so running the closure
    # to completion (no early exit) from a shuffled seed list gives the same
    # span; with early exit only the certified verdicts are order-independent
    seeds = build_seeds(2)
    shuffled = list(seeds)
    random.Random(42).shuffle(shuffled)
    r1 = closure(seeds, 2, early_exit=False)
    r2 = closure(shuffled, 2, early_exit=False)
    for d in range(3):
        assert r1.reports[d].certified == r2.reports[d].certified
        assert r1.reports[d].sl_rank == r2.reports[d].sl_rank
        assert r1.reports[d].gl_rank == r2.reports[d].gl_rank
        # spans agree as subspaces: each basis field of one lies in the other
        for v in r1.spans[d]:
            assert in_span(r2.spans[d], v, d)
        for v in r2.spans[d]:
            assert in_span(r1.spans[d], v, d)
    e1 = closure(seeds, 2)
    e2 = closure(shuffled, 2)
    for d in range(3):
        assert e1.reports[d].certified == e2.reports[d].certified == r1.reports[d].certified


def test_closure_monotone_under_budget():
    # a tiny bracket budget yields a flagged partial result, never a wrong one
    res = closure(build_seeds(2), 2, budget_brackets=5)
    assert not res.complete
    assert 2 not in res.reports and 2 not in res.spans   # grade 1 ran out
    full = closure(build_seeds(2), 2)
    assert full.complete
    for d, rep in res.reports.items():
        assert rep.achieved_rank <= rep.target_rank
        assert rep.achieved_rank <= full.reports[d].achieved_rank
        for v in res.spans[d]:
            assert in_span(full.spans[d], v, d)


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


def test_empty_seed_set_rejected():
    with pytest.raises(PreconditionError):
        closure([], 1)


def test_generators_alone_do_not_certify_grade1():
    # brackets with the grade-0 generators never leave grade 0, so grade 1
    # stays empty: a complete closure whose every pair is missing
    seeds = [s for s in build_seeds(2) if s.grade == 0]
    rep = closure(seeds, 1).reports[1]
    assert rep.complete and not rep.certified
    assert rep.sl_rank == rep.achieved_rank == 0
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
        fields = closure_n3.spans[d]
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
            w = bracket(tv, s.field(n))
            nonzero += not w.is_zero()
            assert sl_vector_oracle(w, 1 + s.grade) == {}
    assert nonzero > len(seeds)


@pytest.mark.parametrize("n,max_degree", [(2, 4), (3, 2)])
def test_kept_fields_are_traceless_independent(n, max_degree, closure_n3):
    res = closure_n3 if n == 3 else closure(build_seeds(n), max_degree)
    for d in range(max_degree + 1):
        space = ExactRowSpace()
        for v in res.spans[d]:
            assert space.insert(sl_vector_oracle(v, d))
        rep = res.reports[d]
        assert len(res.spans[d]) == space.rank == rep.sl_rank == rep.gl_rank


@pytest.mark.parametrize("n,max_degree", [(2, 4), (3, 2)])
def test_closure_ranks_closed_form(n, max_degree, closure_n3):
    # the targets are f*V for the degree-d monomials f in the n^2 - 1
    # traceless coordinates and the n^2 - 1 generators V; their span loses,
    # for each k = 1..n-1, the relation among the generator fields with
    # degree-k coefficients (a generic matrix commutes with its k-th power)
    # times each degree-(d-k) monomial
    res = closure_n3 if n == 3 else closure(build_seeds(n), max_degree)
    for d in range(max_degree + 1):
        rep = res.reports[d]
        target = (n * n - 1) * comb(n * n + d - 2, d)
        relations = sum(comb(n * n + d - k - 2, d - k) for k in range(1, min(d, n - 1) + 1))
        assert rep.target_rank == target
        assert rep.sl_rank == rep.sl_target_component_rank == target - relations
        assert rep.certified
    expected = {2: [3, 8, 15, 24, 35], 3: [8, 63, 279]}[n]
    assert [res.reports[d].sl_rank for d in range(max_degree + 1)] == expected
