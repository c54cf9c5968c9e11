"""The integer Novikov kernel against its Fraction reference: term
lists, H_I(d), the one term list a certificate or pairing shares across
its subsets, and the integer apex pruning of the jump cone model."""

import contextlib
import dataclasses
import io
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from flagsheaf import cli, pipeline
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
    TermListing,
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


def _expanded(payload):
    """A JSON payload with every term listing expanded to its term
    dicts, as the pretty format prints it."""
    if isinstance(payload, TermListing):
        return payload.expand()
    if isinstance(payload, dict):
        return {k: _expanded(v) for k, v in payload.items()}
    if isinstance(payload, list):
        return [_expanded(v) for v in payload]
    return payload


def _assembled_report(params, grid, record):
    """The certificate of ``params`` over the sorted ``grid`` from the
    records ``record(I, d)``: a witness per I, checked equal for every d,
    and per d the sum over I of g(I) tensor H_I(d), one tensor at a
    time."""
    subsets = pipeline._all_subsets(params.n)
    witnesses = [structure_map_nonzero(params, s, Fraction(0))
                 for s in subsets]
    records, full = [], {}
    for d in grid:
        total = GradedDims.empty()
        for subset, witness in zip(subsets, witnesses):
            assert structure_map_nonzero(params, subset, d) == witness
            rec = record(subset, d)
            records.append(rec)
            total = total + g_space_cached(params.n, subset).tensor(
                rec.graded)
        full[d] = total
    return CertificateReport(
        params=params,
        d_grid=grid,
        witnesses=witnesses,
        h_records=records,
        full_hom=full,
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
    expected = _assembled_report(
        params, tuple(sorted(grid)),
        lambda subset, d: _oracle_record(
            n, lam, subset, d, degree_window, action_window
        ),
    )
    report = pipeline.certificate(params, grid, degree_window, action_window)
    assert _expanded(report.to_json()) == _expanded(expected.to_json())
    factor = {DIAGONAL: GradedDims.line(0), TORUS: torus_factor(n),
              PROJECTIVE: so_factor(n)}[side]
    for d in grid:
        assert pair_hom(
            params, DIAGONAL, side, d, degree_window, action_window,
            char_two=True,
        ) == expected.full_hom[d].tensor(factor)


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


def _first_of_each_action(elements):
    firsts = {}
    for e in elements:
        firsts.setdefault(e.action, e)
    return list(firsts.values())


def test_module_terms_builds_no_cartan_vector(monkeypatch):
    # one action_of call per distinct action, in ascending order, on the
    # integer coordinates of its first term; every term of that action
    # lists the same Fraction, and no CartanVector is built on the way
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
    firsts = _first_of_each_action(rec.elements)
    assert actions == [e.coords for e in firsts] and len(firsts) > 1
    shared = {e.action: e.action for e in firsts}
    assert all(e.action is shared[e.action] for e in rec.elements)


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
    expected = _assembled_report(
        params, report.d_grid,
        lambda subset, d: h_graded(params, subset, d),
    )
    assert _expanded(report.to_json()) == _expanded(expected.to_json())


def test_certificate_shares_one_walk_across_subsets(monkeypatch):
    # one action_of call per distinct action of the I = () list: 9 for
    # its 237 points, where a call per point made 237 and a walk per
    # subset 1,638; every subset's record lists those very objects
    params = OrbitParams(4, Fraction(5, 2))
    actions = []
    action_of = pipeline.action_of

    def counted_action(params, coords):
        actions.append(coords)
        return action_of(params, coords)

    monkeypatch.setattr(pipeline, "action_of", counted_action)
    report = pipeline.certificate(params)
    monkeypatch.undo()
    root = module_terms(params, ()).elements
    points = [e.coords for e in root]
    assert len(points) == len(set(points)) == 237
    # the witnesses of the non-vanishing checks come first
    witnesses = [r.witness for r in report.witnesses]
    firsts = _first_of_each_action(root)
    assert actions == witnesses + [e.coords for e in firsts]
    assert len(firsts) == 9
    listed = [e for rec in report.h_records for e in rec.elements]
    assert len({id(e) for e in listed}) == len({e.coords for e in listed})
    for rec in report.h_records:
        (top,) = (r for r in report.h_records
                  if r.d == rec.d and r.indices == ())
        kept = {id(e) for e in top.elements}
        assert all(id(e) in kept for e in rec.elements)


def test_certificate_json_lists_suffixes_of_one_block_per_mask():
    report = pipeline.certificate(OrbitParams(4, Fraction(5, 2)))
    records = report.to_json()["h_graded"]
    # the same records as each term rendered on its own
    assert [r["elements"].expand() for r in records] == [
        [e.to_json() for e in rec.elements] for rec in report.h_records
    ]
    # each record lists a suffix of its constraint mask's block, and I
    # and I + {1} share a mask: 4 blocks for the 8 subsets at N = 4
    for r, rec in zip(records, report.h_records):
        listing = r["elements"]
        assert listing.block.terms[listing.start:] == rec.elements
    assert len({id(r["elements"].block) for r in records}) == 4


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


def test_certificate_holds_each_fact_once(monkeypatch):
    # a witness per subset, not per (I, d), per d one graded sum in place
    # of a tensor and a sum per (I, d), and one graded count per (mask,
    # d) shared by I and I + {1}: at N = 4, 8 witnesses (40 per (I, d))
    # and at most 30 GradedDims (26: the walk's, 4 masks x 5 d and 5
    # sums; 54 with a count per (I, d), 134 with one tensor and one sum
    # per (I, d)); the g(I) caches are warm
    params = OrbitParams(4, Fraction(5, 2))
    pipeline.certificate(params)
    witnesses, built = [], []
    original = pipeline.structure_map_nonzero
    init = GradedDims.__init__

    def counted(params, indices, d):
        witnesses.append(tuple(indices))
        return original(params, indices, d)

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(pipeline, "structure_map_nonzero", counted)
    monkeypatch.setattr(GradedDims, "__init__", counted_init)
    report = pipeline.certificate(params)
    monkeypatch.undo()
    assert witnesses == pipeline._all_subsets(4)
    assert len(built) <= 30
    assert len(report.to_json()["records"]) == 40


_WINDOWS = [
    (DEFAULT_DEGREE_WINDOW, DEFAULT_ACTION_WINDOW),
    ((-12, 20), (Fraction(-4), Fraction(5, 2))),
    ((-30, 6), (Fraction(-1, 3), Fraction(7))),
]


def _nested(node, depth):
    for k in range(depth):
        node = [node] if k % 2 else {"x": node}
    return node


@pytest.mark.parametrize("degree_window, action_window", _WINDOWS)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_listed_terms_carry_their_json_text(n, degree_window, action_window):
    # every listing a certificate or a hom query prints, and the empty
    # suffix of each block: its text, printed by the writer at depths
    # 0 to 4, is json's text of the term dicts it expands to (keys in the
    # order the pretty format prints), and every action is action_of's
    rng = random.Random(f"listings:{n}:{degree_window}:{action_window}")
    listings = []
    for _ in range(3):
        lam = Fraction(rng.randint(2, 12), rng.randint(1, 2))
        params = OrbitParams(n, lam)
        grid = {Fraction(rng.randint(0, 12), rng.randint(1, 4))
                for _ in range(rng.randint(1, 4))}
        report = pipeline.certificate(params, grid, degree_window,
                                      action_window)
        records = list(report.h_records)
        for subset in pipeline._all_subsets(n):
            records.append(h_graded(params, subset, max(grid),
                                    degree_window, action_window))
        for rec in records:
            listing = rec.listing()
            listings.append(listing)
            block = listing.block
            listings.append(TermListing(block, len(block.terms)))
            assert all(e.action == pipeline.action_of(params, e.coords)
                       for e in rec.elements)
    assert any(listing.expand() for listing in listings)
    assert any(not listing.expand() for listing in listings)
    for listing in listings:
        terms = listing.expand()
        assert all(list(t) == ["l", "action", "degree"] for t in terms)
        for depth in range(5):
            assert cli._json_text(_nested(listing, depth)) == json.dumps(
                _nested(terms, depth), sort_keys=True, indent=2
            )


def test_listings_follow_a_replaced_term_list(monkeypatch):
    # the benchmark's smoke test drops the last term of module_terms'
    # record by dataclasses.replace: each printed listing must follow the
    # replaced list, so no block may be cached with that record
    original = pipeline.module_terms

    def dropped(*args, **kwargs):
        rec = original(*args, **kwargs)
        return dataclasses.replace(rec, elements=rec.elements[:-1])

    params = OrbitParams(3, Fraction(3, 2))
    last = original(params, ()).elements[-1]
    monkeypatch.setattr(pipeline, "module_terms", dropped)
    records = [*pipeline.certificate(params).h_records,
               h_graded(params, (), Fraction(5))]
    monkeypatch.undo()
    for rec in records:
        assert rec.elements and last not in rec.elements
        assert json.loads(cli._json_text(rec.listing())) == [
            e.to_json() for e in rec.elements
        ]


def test_certificate_builds_one_term_text_per_point(monkeypatch):
    # N = 4, lambda = 5/2: 7,412 listings of 230 lattice points, printed
    # at depth 3.  At that indent each point's item text is formatted once
    # and the items of each of the 4 constraint masks are joined once; no
    # listing text is re-indented, and the writer never encodes a term key
    formatted, joins, replaced, encoded = [], [], [], []

    class Watched(str):
        def replace(self, old, new, *count):
            replaced.append(len(self))
            return str.replace(self, old, new, *count)

    class CountedItem(str):
        def replace(self, old, new):
            return CountedItem(str.replace(self, old, new))

        def __mod__(self, values):
            formatted.append(values)
            return str.__mod__(self, values)

    class CountedSep(str):
        def replace(self, old, new):
            return CountedSep(str.replace(self, old, new))

        def join(self, items):
            joins.append(str(self))
            return Watched(str.join(self, items))

    json_text = TermListing.json_text
    encode = cli.encode_basestring_ascii

    def counted_encode(text):
        encoded.append(text)
        return encode(text)

    monkeypatch.setattr(pipeline, "_ITEM", CountedItem(pipeline._ITEM))
    monkeypatch.setattr(pipeline, "_SEP", CountedSep(pipeline._SEP))
    monkeypatch.setattr(TermListing, "json_text",
                        lambda self, pad: Watched(json_text(self, pad)))
    monkeypatch.setattr(cli, "encode_basestring_ascii", counted_encode)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["pipeline", "certificate", "--n", "4",
                         "--lambda", "5/2"]) == 0
    monkeypatch.undo()
    assert out.getvalue().count('"action": ') == 7412
    # (action text, degree, coordinate text) per formatted item
    assert len(formatted) == len({v[2] for v in formatted}) == 230
    assert joins == [",\n" + " " * 8] * 4
    assert replaced == []
    assert encoded.count("action") == 0
