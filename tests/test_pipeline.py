import importlib
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from flagsheaf.flag_schubert import FlagType, betti
from flagsheaf.graded import GradedDims
from flagsheaf.pipeline import (
    MarginError,
    OrbitParams,
    action_of,
    build_cone_model,
    certificate,
    crosscheck_stalks,
    model_jump,
    jump_required_box,
    h_graded,
    jump_spectrum,
    normalization_shift,
    pair_hom,
    required_stalk_box,
    sample_c_minus_interior,
    so_factor,
    stalk_flag_sum,
    structure_map_nonzero,
    torus_factor,
    module_terms,
)
from flagsheaf.root_system import (
    CenterClass,
    cartan,
    center_class,
    d_degree,
    i_set,
    in_c_minus,
    weyl_chamber,
    WeylPosition,
    zero,
)
from flagsheaf.sheaf_complex import (
    build_standard_complex,
    jump_complex,
    stalk_complex,
)

from oracles import so_betti_mod2


# -- cone model ----------------------------------------------------------------


def test_build_s_multiplicity_totals():
    s = build_cone_model(3, None, ((0, 0), (0, 0)))
    # the full cone J = {1,2} admits apex 0 for every I, so its
    # multiplicities sum to the full elementary count 3! = 6
    full_j_mult = sum(
        g.mult.total()
        for g in s.generators
        if g.region.indices == frozenset({1, 2})
    )
    assert full_j_mult == 6


def test_build_s_empty_window():
    with pytest.raises(ValueError):
        build_cone_model(2, None, ((1, -1),))


def test_stalk_crosscheck_example_n2():
    z = CenterClass(2, 0)
    p = cartan(2, (Q(-5, 2),))
    model = build_cone_model(2, z, required_stalk_box(p))
    got = stalk_complex(model, z, p).cohomology()
    assert got == GradedDims({0: 1, -2: 1, -4: 1})
    assert stalk_flag_sum(2, z, p) == got


def test_stalk_flag_sum_errors():
    z = CenterClass(2, 0)
    with pytest.raises(ValueError):
        stalk_flag_sum(2, z, cartan(2, (Q(1, 2),)))


@pytest.mark.parametrize("n", (2, 3))
def test_crosscheck_small(n):
    for z in range(n):
        report = crosscheck_stalks(n, CenterClass(n, z), 25, seed=7)
        assert report.ok, report.mismatches
        assert report.compared == 25


def test_crosscheck_excludes_out_of_margin_points():
    z = CenterClass(2, 0)
    deep = cartan(2, (Q(-7, 2),))
    shallow = cartan(2, (Q(-1, 2),))
    report = crosscheck_stalks(
        2, z, [deep, shallow], window=((-2, 0),)
    )
    assert report.excluded == 1 and report.compared == 1


def test_crosscheck_needs_points():
    for samples in (0, []):
        with pytest.raises(ValueError):
            crosscheck_stalks(2, CenterClass(2, 0), samples)


def test_crosscheck_window_excluding_every_point_fails():
    deep = cartan(2, (Q(-7, 2),))
    with pytest.raises(ValueError, match="excludes all 1 sample points"):
        crosscheck_stalks(2, CenterClass(2, 0), [deep], window=((-2, 0),))


def test_sampler_lands_in_open_chamber():
    rng = random.Random(3)
    for n in (2, 3, 4):
        for _ in range(20):
            p = sample_c_minus_interior(n, rng)
            assert weyl_chamber(p) is WeylPosition.INTERIOR_MINUS


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_sampler_is_the_benchmark_sampler(monkeypatch):
    # crosscheck and the benchmark's crosscheck workload draw points by
    # one rule: the same seed gives the same stream of points at every
    # depth the workload samples (the benchmark files are only read)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for n in (2, 3, 4, 5):
        for depth in workloads.CROSSCHECK_DEPTHS:
            for seed in (0, 1, 7, 1000 * n):
                ours, theirs = random.Random(seed), random.Random(seed)
                for _ in range(4):
                    assert sample_c_minus_interior(
                        n, ours, depth=depth
                    ) == workloads.sample_point(n, theirs, depth), (
                        n, depth, seed,
                    )


# -- jump of the model ----------------------------------------------------------


@pytest.mark.parametrize("n", (2, 3))
def test_delta_reproduces_flag_cohomology(n):
    from flagsheaf.flag_schubert import all_flag_types

    z = CenterClass(n, 0)
    for ft in all_flag_types(n):
        got = model_jump(n, z, ft.indices, zero(n))
        assert got == betti(ft), ft.indices


def test_delta_degree_bookkeeping_at_lattice_point():
    # jump at a chamber lattice point equals the jump at the origin
    # shifted by the point's degree
    n = 3
    m = cartan(3, (-1, -1))
    assert in_c_minus(m)
    z = center_class(m)
    idx = tuple(sorted(i_set(m)))
    got = model_jump(n, z, idx, m)
    base = betti(FlagType(n, idx))
    assert got == base.shifted(-d_degree(m))


def test_delta_window_stability():
    # recomputing on a much larger, unpruned window must not change
    # the jump: apexes outside the derived box contribute nothing; the
    # last two apexes are a lattice point off exp(m)'s class z and a
    # point off the lattice
    n, z = 3, CenterClass(3, 0)
    big = build_cone_model(n, z, ((-10, 10), (-10, 10)))
    queries = [
        (zero(n), ()),
        (zero(n), (1,)),
        (zero(n), (1, 2)),
        (cartan(n, (-1, -2)), ()),
        (cartan(n, (Q(-5, 2), -1)), (1,)),
    ]
    for m, idx in queries:
        auto = model_jump(n, z, idx, m)
        assert not auto.is_zero()
        assert jump_complex(big, idx, m).cohomology() == auto


def test_delta_margin_error():
    with pytest.raises(MarginError):
        model_jump(2, CenterClass(2, 0), (1,), zero(2), window=((0, 0),))


def test_delta_required_box_covers_origin_queries():
    box, profile_box = jump_required_box(3, zero(3))
    assert all(lo <= -1 and hi >= 1 for lo, hi in box)
    # scaled profiles N<m', e_k>: N (-1) = -3 and N (+1) = 3
    assert all(lo <= -3 and hi >= 3 for lo, hi in profile_box)


# -- one-parameter modules --------------------------------------------------------


def test_module_terms_n2():
    par = OrbitParams(2, Q(1))
    rec = module_terms(par, (), degree_window=(0, 8),
                        action_window=(Q(0), Q(2)))
    assert [(e.coords, e.action, e.degree) for e in rec.elements] == [
        ((0,), Q(0), 0),
        ((2,), Q(1), 4),
        ((4,), Q(2), 8),
    ]


def test_module_terms_n3_with_constraint():
    par = OrbitParams(3, Q(1))
    rec = module_terms(par, (2,), degree_window=(-12, 12),
                        action_window=(Q(-2), Q(2)))
    hit = [e for e in rec.elements if e.coords == (-1, -1)]
    assert len(hit) == 1
    assert hit[0].action == Q(-1)
    assert hit[0].degree == -8
    for e in rec.elements:
        assert e.coords[1] <= -1
        assert center_class(cartan(3, e.coords)).residue == 0


def test_module_terms_lambda_scales_action():
    rec1 = module_terms(OrbitParams(2, Q(1)), (), (0, 8), (Q(0), Q(2)))
    rec2 = module_terms(OrbitParams(2, Q(3, 2)), (), (0, 8), (Q(0), Q(3)))
    assert [e.coords for e in rec1.elements] == [e.coords for e in rec2.elements]
    for a, b in zip(rec1.elements, rec2.elements):
        assert b.action == Q(3, 2) * a.action


def test_h_graded_example_and_monotonicity():
    par = OrbitParams(2, Q(1))
    rec = h_graded(par, (), Q(0), degree_window=(0, 8),
                   action_window=(Q(-10), Q(10)))
    assert rec.graded == GradedDims({0: 1, 4: 1, 8: 1})
    prev = None
    for d in (Q(0), Q(1, 2), Q(1), Q(3)):
        cur = h_graded(par, (), d, degree_window=(-12, 12),
                       action_window=(Q(-5), Q(5))).graded
        if prev is not None:
            assert cur.dominates(prev)
        prev = cur
    with pytest.raises(ValueError):
        h_graded(par, (), Q(-1))


def test_h_graded_extra_terms_have_action_in_window():
    par = OrbitParams(2, Q(1))
    base = h_graded(par, (), Q(0), (-12, 12), (Q(-5), Q(5)))
    bigger = h_graded(par, (), Q(2), (-12, 12), (Q(-5), Q(5)))
    extra = [e for e in bigger.elements if e not in base.elements]
    assert extra and all(-Q(2) <= e.action < 0 for e in extra)


def test_empty_degree_window_gives_empty_record():
    par = OrbitParams(2, Q(1))
    rec = h_graded(par, (), Q(0), degree_window=(3, 3),
                   action_window=(Q(-1), Q(1)))
    assert rec.graded.is_zero()


# -- structure-map non-vanishing ---------------------------------------------------


def test_structure_map_witnesses():
    assert structure_map_nonzero(OrbitParams(2, Q(1)), (), Q(0)).witness == (0,)
    assert structure_map_nonzero(OrbitParams(2, Q(1)), (1,), Q(0)).witness == (0,)
    res = structure_map_nonzero(OrbitParams(3, Q(1)), (1, 2), Q(0))
    assert res.to_json()["structure_map_nonzero"] is True
    assert res.witness == (2, -1)
    assert res.action == Q(1)


def test_subsets_in_flag_type_order():
    # the one order of flag types, cone-model blocks and certificate
    # records: by size, then lexicographically
    from flagsheaf.pipeline import _all_subsets

    assert _all_subsets(4) == [
        (), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)
    ]


def test_structure_map_witness_satisfies_constraints():
    for n in (2, 3, 4):
        par = OrbitParams(n, Q(3, 2))
        from flagsheaf.pipeline import _all_subsets

        for subset in _all_subsets(n):
            res = structure_map_nonzero(par, subset, Q(5))
            assert res.to_json()["structure_map_nonzero"] is True
            l = cartan(n, res.witness)
            assert center_class(l).residue == 0
            assert action_of(par, res.witness) >= 0
            for j in range(2, n):
                bound = -1 if j in subset else 0
                assert int(l.coords[j - 1]) <= bound


def test_structure_map_rejects_negative_d():
    with pytest.raises(ValueError):
        structure_map_nonzero(OrbitParams(2, Q(1)), (), Q(-1))


# -- certificate -----------------------------------------------------------------


def test_certificate_verdict_true():
    for n in (2, 3):
        report = certificate(OrbitParams(n, Q(1)),
                             d_grid=(Q(0), Q(1, 2), Q(1), Q(10)))
        payload = report.to_json()
        assert payload["verdict"] is True
        assert all(r["structure_map_nonzero"] for r in payload["records"])
        assert payload["normalization_shift"] == n * n - n


def test_certificate_empty_grid():
    with pytest.raises(ValueError):
        certificate(OrbitParams(2, Q(1)), d_grid=())


def test_normalization_shift_value():
    assert normalization_shift(2) == 2
    assert normalization_shift(4) == 12


# -- pairings --------------------------------------------------------------------


def test_pair_hom_identity_and_torus():
    par = OrbitParams(2, Q(1))
    diag = pair_hom(par, "diagonal", "diagonal", Q(0), (0, 4),
                    (Q(-5), Q(5)))
    tt = pair_hom(par, "clifford_torus", "clifford_torus", Q(0), (0, 4),
                  (Q(-5), Q(5)))
    assert tt == diag.tensor(torus_factor(2)).tensor(torus_factor(2))
    assert torus_factor(3) == GradedDims({0: 1, 1: 2, 2: 1})


def test_pair_hom_characteristic_guard():
    par = OrbitParams(2, Q(1))
    with pytest.raises(ValueError):
        pair_hom(par, "real_projective", "diagonal", Q(0))
    diag = pair_hom(par, "diagonal", "diagonal", Q(0), (0, 0),
                    (Q(0), Q(0)))
    got = pair_hom(par, "real_projective", "diagonal", Q(0), (0, 0),
                   (Q(0), Q(0)), char_two=True)
    assert got == diag.tensor(so_factor(2))
    with pytest.raises(ValueError):
        pair_hom(par, "diagonal", "unknown", Q(0))


@pytest.mark.parametrize("n", (2, 3, 4))
def test_so_series_against_cellular_oracle(n):
    series = so_factor(n)
    cellular = so_betti_mod2(n)
    assert [series[d] for d in range(len(cellular))] == cellular
    assert series.total() == sum(cellular)


# -- spectra ---------------------------------------------------------------------


def test_jump_spectrum_examples():
    par = OrbitParams(2, Q(1))
    assert jump_spectrum(par, (), action_window=(Q(0), Q(1))) == [Q(0)]
    assert jump_spectrum(par, (), action_window=(Q(0), Q(3))) == [
        Q(0), Q(1), Q(2)
    ]
    scaled = jump_spectrum(OrbitParams(2, Q(3, 2)), (),
                           action_window=(Q(0), Q(9, 2)))
    assert scaled == [Q(0), Q(3, 2), Q(3)]
    assert jump_spectrum(par, (), action_window=(Q(0), Q(0))) == []


def test_jump_spectrum_window_stability():
    par = OrbitParams(3, Q(1))
    small = jump_spectrum(par, (2,), action_window=(Q(0), Q(2)),
                          degree_window=(-24, 24))
    large = jump_spectrum(par, (2,), action_window=(Q(0), Q(2)),
                          degree_window=(-48, 48))
    assert small == large


def test_jump_periodicity_step():
    # one lattice step along a cone direction drops the degree by
    # 2k(N-k) and twists the center class by k
    n = 3
    from flagsheaf.root_system import e_vec

    cases = [
        ((1,), zero(n), 1),
        ((1, 2), zero(n), 1),
        ((1, 2), zero(n), 2),
        ((2,), cartan(n, (0, -1)), 2),
    ]
    for idx, m, k in cases:
        assert k in idx
        d_k = 2 * k * (n - k)
        base_z = CenterClass(n, 0) if m.is_zero() else center_class(m)
        base = model_jump(n, base_z, idx, m)
        stepped_m = m - e_vec(n, k)
        stepped_z = CenterClass(n, base_z.residue + k)
        stepped = model_jump(n, stepped_z, idx, stepped_m)
        assert stepped == base.shifted(-d_k), (idx, m.coords, k)


def test_cone_model_multiplicities_n2():
    s = build_cone_model(2, None, ((-1, 0),))
    mults = {
        label[1]: gen.mult
        for gen, label in ((g, g.label) for g in s.generators)
    }
    assert mults[()] == GradedDims({0: 1})
    assert mults[(1,)] == GradedDims({2: 1})


@pytest.mark.parametrize("n", (2, 3, 4))
def test_standard_complex_is_empty_subset_block(n):
    window = ((-2, 1),) * (n - 1)
    y = build_standard_complex(n, window)
    model = build_cone_model(n, None, window)
    size = len(y.generators)
    assert all(g.label[1] == () for g in model.generators[:size])
    assert model.generators[size].label[1] != ()
    assert model.generators[:size] == y.generators
    assert [e for e in model.entries if e[0] < size] == list(y.entries)
