"""The integer Novikov kernel against its Fraction reference: term
lists, H_I(d), the one term list a certificate or pairing shares across
its subsets, and the integer apex pruning of the jump cone model."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from flagsheaf import pipeline
from flagsheaf.graded import GradedDims
from flagsheaf.pipeline import (
    DEFAULT_ACTION_WINDOW,
    DEFAULT_DEGREE_WINDOW,
    DIAGONAL,
    PROJECTIVE,
    TORUS,
    CertificateReport,
    NovikovElement,
    NovikovRecord,
    OrbitParams,
    build_cone_model,
    g_space_cached,
    h_graded,
    module_terms,
    pair_hom,
    so_factor,
    structure_map_nonzero,
    torus_factor,
)
from flagsheaf.root_system import CartanVector, CenterClass

from oracles import fraction_module_terms, profile_pruned_apexes


@st.composite
def module_queries(draw):
    n = draw(st.integers(2, 5))
    # lam >= 1 and windows inside the default degree window and [-6, 6]
    # keep the certified box small enough for the Fraction reference;
    # the windows straddle 0, where the terms are
    lam = Fraction(draw(st.integers(2, 12)), draw(st.integers(1, 2)))
    indices = tuple(sorted(draw(st.sets(st.integers(1, n - 1)))))
    degree_window = (draw(st.integers(-40, 0)), draw(st.integers(0, 40)))
    action_window = (
        Fraction(draw(st.integers(-24, 0)), 4),
        Fraction(draw(st.integers(0, 24)), 4),
    )
    d = Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 4)))
    return n, lam, indices, degree_window, action_window, d


@settings(max_examples=120, deadline=None)
@given(module_queries())
def test_integer_module_terms_match_fraction_reference(query):
    n, lam, indices, degree_window, action_window, d = query
    params = OrbitParams(n, lam)
    want = fraction_module_terms(n, lam, indices, degree_window, action_window)
    rec = module_terms(params, indices, degree_window, action_window)
    assert [(e.coords, e.action, e.degree) for e in rec.elements] == want
    assert rec.graded == GradedDims((deg, 1) for _, _, deg in want)
    kept = [t for t in want if t[1] + d >= 0]
    h = h_graded(params, indices, d, degree_window, action_window)
    assert h.d == d
    assert [(e.coords, e.action, e.degree) for e in h.elements] == kept
    assert h.graded == GradedDims((deg, 1) for _, _, deg in kept)


@pytest.mark.parametrize("n, lam", [(3, Fraction(1)), (4, Fraction(5, 2))])
def test_default_windows_match_fraction_reference(n, lam):
    params = OrbitParams(n, lam)
    for subset in pipeline._all_subsets(n):
        rec = module_terms(params, subset)
        want = fraction_module_terms(
            n, lam, subset, DEFAULT_DEGREE_WINDOW, DEFAULT_ACTION_WINDOW
        )
        assert want
        assert [(e.coords, e.action, e.degree) for e in rec.elements] == want


@pytest.mark.parametrize(
    "n, lam, degree_window, action_window",
    [
        (3, Fraction(1, 3), DEFAULT_DEGREE_WINDOW, DEFAULT_ACTION_WINDOW),
        (4, Fraction(7, 5), DEFAULT_DEGREE_WINDOW, DEFAULT_ACTION_WINDOW),
        (4, Fraction(4), DEFAULT_DEGREE_WINDOW, DEFAULT_ACTION_WINDOW),
        (4, Fraction(1, 3), (-24, 6), (Fraction(-1, 3), Fraction(2, 3))),
        (5, Fraction(1, 3), (-40, 10), (Fraction(-1, 3), Fraction(1, 3))),
        (5, Fraction(7, 5), (-40, 40), (Fraction(-3), Fraction(3))),
        (5, Fraction(4), (-40, 40), (Fraction(-4), Fraction(8))),
    ],
)
def test_integer_sort_key_matches_fraction_order(
    n, lam, degree_window, action_window
):
    # the list is sorted on N * action / lam, an int; small and odd lam
    # and narrow windows put many terms on one action, where the
    # degree and then the coordinates decide
    params = OrbitParams(n, lam)
    tied = 0
    for subset in pipeline._all_subsets(n):
        rec = module_terms(params, subset, degree_window, action_window)
        want = fraction_module_terms(
            n, lam, subset, degree_window, action_window
        )
        assert [(e.coords, e.action, e.degree) for e in rec.elements] == want
        tied += len(want) - len({action for _, action, _ in want})
    assert tied >= 50


def _oracle_record(n, lam, subset, d, degree_window, action_window):
    """H_I(d) from the Fraction box enumeration of I's own term list."""
    terms = [
        t for t in fraction_module_terms(
            n, lam, subset, degree_window, action_window
        )
        if t[1] + d >= 0
    ]
    return NovikovRecord(
        indices=subset,
        d=d,
        elements=tuple(NovikovElement(*t) for t in terms),
        graded=GradedDims((deg, 1) for _, _, deg in terms),
    )


@st.composite
def shared_walk_queries(draw):
    n = draw(st.integers(2, 5))
    lam = Fraction(draw(st.integers(2, 12)), draw(st.integers(1, 2)))
    # windows anywhere in the default degree window and [-6, 6], so that
    # some lie past every term: action_hi < 0 <= degree_lo leaves the
    # simplex empty
    dlo = draw(st.integers(-40, 40))
    degree_window = (dlo, draw(st.integers(dlo, 40)))
    alo = draw(st.integers(-24, 24))
    action_window = (Fraction(alo, 4), Fraction(draw(st.integers(alo, 24)), 4))
    grid = draw(st.sets(
        st.builds(Fraction, st.integers(0, 12), st.integers(1, 4)),
        min_size=1, max_size=3,
    ))
    sides = draw(st.sampled_from([DIAGONAL, TORUS, PROJECTIVE]))
    return n, lam, degree_window, action_window, tuple(grid), sides


@settings(max_examples=100, deadline=None, derandomize=True)
@given(shared_walk_queries())
@example((2, Fraction(3, 2), (-8, 8), (Fraction(-2), Fraction(2)),
          (Fraction(0), Fraction(1, 2)), TORUS))
@example((4, Fraction(2), (4, 12), (Fraction(-3), Fraction(-1, 4)),
          (Fraction(0), Fraction(5)), DIAGONAL))
@example((3, Fraction(5, 2), (0, 0), (Fraction(-1), Fraction(-1, 2)),
          (Fraction(1),), PROJECTIVE))
def test_shared_walk_matches_the_box_per_subset(query):
    # module_terms on every I, and the certificate and pairing that
    # derive every I from the one list for I = (), against a per-subset
    # assembly from the Fraction box enumeration
    n, lam, degree_window, action_window, grid, side = query
    params = OrbitParams(n, lam)
    for subset in pipeline._all_subsets(n):
        rec = module_terms(params, subset, degree_window, action_window)
        want = fraction_module_terms(
            n, lam, subset, degree_window, action_window
        )
        assert [(e.coords, e.action, e.degree) for e in rec.elements] == want
        assert rec.graded == GradedDims((deg, 1) for _, _, deg in want)
    nonvanishing, records, full = [], [], {}
    for d in sorted(grid):
        total = GradedDims.empty()
        for subset in pipeline._all_subsets(n):
            nonvanishing.append(structure_map_nonzero(params, subset, d))
            rec = _oracle_record(
                n, lam, subset, d, degree_window, action_window
            )
            records.append(rec)
            total = total + g_space_cached(n, subset).tensor(rec.graded)
        full[d] = total
    expected = CertificateReport(
        params=params,
        d_grid=tuple(sorted(grid)),
        nonvanishing=nonvanishing,
        h_records=records,
        full_hom=full,
        verdict=all(r.nonzero for r in nonvanishing),
    )
    report = pipeline.certificate(params, grid, degree_window, action_window)
    assert report.to_json() == expected.to_json()
    factor = {DIAGONAL: GradedDims.line(0), TORUS: torus_factor(n),
              PROJECTIVE: so_factor(n)}[side]
    for d in grid:
        assert pair_hom(
            params, DIAGONAL, side, d, degree_window, action_window,
            char_two=True,
        ) == full[d].tensor(factor)


def test_windows_past_every_term_list_nothing():
    # action_hi < 0 <= degree_lo: the simplex bound is negative and no
    # tail is walked; N = 2 has no tails and still lists its x_1 terms
    for n in (2, 3, 4, 5):
        params = OrbitParams(n, Fraction(2))
        for subset in pipeline._all_subsets(n):
            rec = module_terms(params, subset, (4, 12),
                               (Fraction(-3), Fraction(-1, 4)))
            assert rec.elements == () and rec.graded.is_zero()
    rec = module_terms(OrbitParams(2, Fraction(1)), (), (-8, 8),
                       (Fraction(-2), Fraction(2)))
    assert [e.coords for e in rec.elements] == [(-4,), (-2,), (0,), (2,), (4,)]


def test_module_terms_builds_no_cartan_vector(monkeypatch):
    # each listed term gets its action from one action_of call on its
    # integer coordinates, and no CartanVector is built on the way
    built, actions = [], []
    post_init = CartanVector.__post_init__
    action_of = pipeline.action_of

    def counted_post_init(self):
        built.append(self.coords)
        post_init(self)

    def counted_action(params, coords):
        actions.append(coords)
        return action_of(params, coords)

    monkeypatch.setattr(CartanVector, "__post_init__", counted_post_init)
    monkeypatch.setattr(pipeline, "action_of", counted_action)
    rec = module_terms(OrbitParams(4, Fraction(5, 2)), (1, 2))
    monkeypatch.undo()
    assert rec.elements
    assert built == []
    assert sorted(actions) == sorted(e.coords for e in rec.elements)


def test_certificate_builds_each_term_list_once(monkeypatch):
    # one module_terms call, for I = (), per certificate and per pairing
    params = OrbitParams(4, Fraction(3))
    calls = []
    original = pipeline.module_terms

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "module_terms", counted)
    report = pipeline.certificate(params)
    assert calls == [()]
    pair_hom(params, TORUS, DIAGONAL, Fraction(1, 2))
    monkeypatch.undo()
    assert calls == [(), ()]
    # the same report assembled from one h_graded call per (I, d)
    nonvanishing, records, full = [], [], {}
    for d in report.d_grid:
        total = GradedDims.empty()
        for subset in pipeline._all_subsets(4):
            nonvanishing.append(structure_map_nonzero(params, subset, d))
            rec = h_graded(params, subset, d)
            records.append(rec)
            total = total + g_space_cached(4, subset).tensor(rec.graded)
        full[d] = total
    expected = CertificateReport(
        params=params,
        d_grid=report.d_grid,
        nonvanishing=nonvanishing,
        h_records=records,
        full_hom=full,
        verdict=all(r.nonzero for r in nonvanishing),
    )
    assert report.to_json() == expected.to_json()


def test_certificate_shares_one_walk_across_subsets(monkeypatch):
    # one action_of call per point of the I = () list, where a walk per
    # subset made 1,638; every subset's record lists those very objects
    params = OrbitParams(4, Fraction(5, 2))
    actions = []
    action_of = pipeline.action_of

    def counted_action(params, coords):
        actions.append(coords)
        return action_of(params, coords)

    monkeypatch.setattr(pipeline, "action_of", counted_action)
    report = pipeline.certificate(params)
    monkeypatch.undo()
    points = [e.coords for e in module_terms(params, ()).elements]
    assert len(points) == len(set(points)) == 237
    # the rest are the witnesses of the non-vanishing checks
    witnesses = [r.witness for r in report.nonvanishing]
    assert sorted(actions) == sorted(points + witnesses)
    listed = [e for rec in report.h_records for e in rec.elements]
    assert len({id(e) for e in listed}) == len({e.coords for e in listed})
    for rec in report.h_records:
        (top,) = (r for r in report.h_records
                  if r.d == rec.d and r.indices == ())
        kept = {id(e) for e in top.elements}
        assert all(id(e) in kept for e in rec.elements)


def test_certificate_json_lists_one_dict_per_lattice_point():
    report = pipeline.certificate(OrbitParams(4, Fraction(5, 2)))
    records = report.to_json()["h_graded"]
    # the same records as each term rendered on its own
    assert [r["elements"] for r in records] == [
        [e.to_json() for e in rec.elements] for rec in report.h_records
    ]
    listed = [e for r in records for e in r["elements"]]
    points = {tuple(e["l"]) for e in listed}
    assert len({id(e) for e in listed}) == len(points) < len(listed)


@pytest.mark.parametrize(
    "n, window, u_bounds",
    [
        (3, ((-5, 5),) * 2, (-1, Fraction(3, 2))),
        (3, ((-9, 9),) * 2, (Fraction(-8, 3), Fraction(3, 2))),
        (3, ((-8, 8),) * 2, (Fraction(-11, 6), 2)),
        (3, ((-8, 8),) * 2, (Fraction(-7, 3), Fraction(5, 4))),
        (4, ((-5, 5),) * 3, (-1, Fraction(3, 2))),
        (4, ((-9, 9),) * 3, (-3, Fraction(4, 3))),
        (4, ((-8, 8),) * 3, (Fraction(-9, 4), Fraction(3, 2))),
    ],
)
def test_integer_apex_pruning_matches_profile_pruning(n, window, u_bounds):
    # the pairing bounds as a box of scaled profiles N<m, e_k>
    lo, hi = u_bounds
    profile_box = ((math.ceil(n * lo), math.floor(n * hi)),) * (n - 1)
    classes = [None, *(CenterClass(n, r) for r in range(n))]
    for z in classes if n == 3 else classes[:2]:
        model = build_cone_model(n, z, window, profile_box=profile_box)
        kept = {g.label[3] for g in model.generators}
        assert kept == profile_pruned_apexes(n, z, window, u_bounds)
