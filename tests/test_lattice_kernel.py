"""The integer lattice kernel against the Fraction rules it replaced.

``scaled_profile``, ``lattice_center`` and ``lattice_degree`` are
checked against the Gram pairing ``pair_e``, the scalar exponential of
the coroot diagonal and the Grassmannian dimensions; stalk and section
selection on int bounds against the Fraction rule one generator at a
time, at sampled points and at points whose scaled profile ties an
apex's; sections over UMinusOpen(x) (the chamber hull rule) against
Fourier-Motzkin feasibility; and ``stalk_flag_sum``,
``required_stalk_box``, ``jump_required_box`` and ``jump_bound``
against their Fraction forms.
"""

import itertools
import math
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagsheaf import root_system, sheaf_complex
from flagsheaf.flag_schubert import FlagType, betti
from flagsheaf.pipeline import (
    build_cone_model,
    crosscheck_stalks,
    jump_required_box,
    model_jump,
    required_stalk_box,
    sample_c_minus_interior,
    stalk_flag_sum,
)
from flagsheaf.root_system import (
    CenterClass,
    cartan,
    f_vec,
    in_c_minus,
    lattice_center,
    lattice_degree,
    pair_e,
    scaled_profile,
)
from flagsheaf.sheaf_complex import (
    KCone,
    SheafComplex,
    SheafGenerator,
    UMinusOpen,
    UOpen,
    _restrict,
    _sections_alive,
    jump_bound,
    stalk_complex,
)

from oracles import (
    coroot_diagonal,
    enumerate_lattice,
    fm_cone_meets_uminus,
    fraction_cone_alive,
    fraction_jump_bound,
    fraction_jump_required_box,
    fraction_required_stalk_box,
    fraction_stalk_flag_sum,
)


@st.composite
def rational_points(draw, lo=2, hi=6):
    n = draw(st.integers(lo, hi))
    coords = draw(
        st.lists(
            st.fractions(-6, 6, max_denominator=7),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    return n, coords


@st.composite
def lattice_points(draw, lo=2, hi=6):
    n = draw(st.integers(lo, hi))
    coords = draw(
        st.lists(st.integers(-9, 9), min_size=n - 1, max_size=n - 1)
    )
    return n, tuple(coords)


# -- the kernel ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(rational_points())
def test_scaled_profile_is_n_times_pair_e(point):
    n, coords = point
    v = cartan(n, coords)
    want = tuple(n * pair_e(v, k) for k in range(1, n))
    assert scaled_profile(n, v.coords) == want
    # and over the common denominator, on ints
    profile, d = v.integer_profile
    assert all(type(c) is int for c in profile)
    assert all(d % c.denominator == 0 for c in v.coords)
    assert tuple(Q(c, d) for c in profile) == want


@settings(max_examples=200, deadline=None)
@given(lattice_points())
def test_scaled_profile_is_int_on_the_lattice(point):
    n, coords = point
    prof = scaled_profile(n, coords)
    assert all(type(c) is int for c in prof)
    v = cartan(n, coords)
    assert prof == tuple(n * pair_e(v, k) for k in range(1, n))


@settings(max_examples=200, deadline=None)
@given(lattice_points())
def test_lattice_center_is_the_scalar_of_exp(point):
    # exp(l) = exp(2 pi i diag(l)) is the scalar exp(2 pi i r / N) iff
    # every diagonal entry is r / N mod 1
    n, coords = point
    r = lattice_center(n, coords)
    assert 0 <= r < n
    for i in range(n):
        entry = sum(
            x * coroot_diagonal(n, j)[i] for j, x in enumerate(coords, 1)
        )
        assert (entry - Q(r, n)).denominator == 1


@pytest.mark.parametrize("n", (2, 3, 4))
def test_lattice_center_matches_enumerate_lattice(n):
    box = ((-3, 2),) * (n - 1)
    for residue in range(n):
        listed = {
            tuple(int(c) for c in v.coords)
            for v in enumerate_lattice(CenterClass(n, residue), box)
        }
        combos = itertools.product(*[range(lo, hi + 1) for lo, hi in box])
        assert listed == {
            c for c in combos if lattice_center(n, c) == residue
        }


@settings(max_examples=200, deadline=None)
@given(lattice_points())
def test_lattice_degree_is_minus_the_d_k_sum(point):
    # D_k is the real dimension of Gr(k, N): the top degree of its Betti
    # numbers
    n, coords = point
    dk = [
        max(d for d, _ in betti(FlagType(n, (k,))).items())
        for k in range(1, n)
    ]
    assert lattice_degree(n, coords) == -sum(
        x * d for x, d in zip(coords, dk)
    )


@settings(max_examples=100, deadline=None)
@given(rational_points(), st.data())
def test_non_lattice_cone_apex_raises(point, data):
    n, coords = point
    k = data.draw(st.integers(0, n - 2))
    coords[k] = Q(coords[k].numerator * 2 + 1, 2)  # a half-integer
    with pytest.raises(ValueError):
        KCone(frozenset(), cartan(n, coords))


def test_cones_at_one_apex_in_two_center_classes_raise():
    # selection decides each apex's center class once, from its cones
    apex = cartan(3, (1, 0))
    first = SheafGenerator(KCone((), apex), CenterClass(3, 2), 0)
    SheafComplex(3, [first], [])
    other = SheafGenerator(KCone({1}, apex), CenterClass(3, 0), 1)
    with pytest.raises(ValueError):
        SheafComplex(3, [first, other], [])


# -- selection on int bounds --------------------------------------------------


def _probe_points(n, model, rng, samples=3):
    """Sampled points, apexes of the model, and apexes moved by +-1/3
    along one f_k, which keeps every other scaled pairing tied."""
    points = [sample_c_minus_interior(n, rng) for _ in range(samples)]
    apexes = {g.region.apex.coords: g.region.apex for g in model.generators}
    chosen = [apexes[c] for c in sorted(apexes)[:: max(1, len(apexes) // 3)]]
    for m in chosen:
        points.append(m)
        for k in range(1, n):
            for t in (Q(1, 3), Q(-1, 3)):
                points.append(m + f_vec(n, k).scale(t))
    return points


@pytest.mark.parametrize("n", (2, 3, 4))
def test_selection_matches_fraction_rule(n):
    rng = np.random.default_rng(n)
    window = ((-2, 1),) * (n - 1) if n < 4 else ((-2, 0),) * (n - 1)
    model = build_cone_model(n, None, window)
    ties = 0
    for p in _probe_points(n, model, rng):
        ties += p.is_integral()
        stalk = fraction_cone_alive(model, p, strict=False)
        sections = fraction_cone_alive(model, p, strict=True)
        for z in [None, *(CenterClass(n, r) for r in range(n))]:
            on_z = [z is None or g.center == z for g in model.generators]
            alive = [a and b for a, b in zip(stalk, on_z)]
            got = stalk_complex(model, z, p)
            want = _restrict(model, alive)
            assert (got.degrees, got.entries, got.mults) == (
                want.degrees, want.entries, want.mults
            )
            alive = [a and b for a, b in zip(sections, on_z)]
            assert _sections_alive(model, z, UOpen(p)) == alive
    assert ties


def _cone_zoo(n, box):
    """One generator KCone(J, l) for every lattice l of ``box`` and every
    J, in l's center class, with no entries."""
    gens = []
    for combo in itertools.product(*[range(lo, hi + 1) for lo, hi in box]):
        apex = cartan(n, combo)
        center = CenterClass(n, lattice_center(n, combo))
        for r in range(n):
            for j in itertools.combinations(range(1, n), r):
                gens.append(SheafGenerator(KCone(j, apex), center, 0))
    return SheafComplex(n, gens, [])


@pytest.mark.parametrize(
    "n, points, cones", [(2, 60, None), (3, 80, None), (4, 16, 192)]
)
def test_chamber_sections_match_fourier_motzkin(n, points, cones):
    # every cone over apexes in [-2, 1]^(N-1) (a seeded sample of them at
    # N = 4), at seeded rational x inside and outside C_-
    rng = np.random.default_rng(20 + n)
    zoo = _cone_zoo(n, ((-2, 1),) * (n - 1))
    picked = range(len(zoo.generators))
    if cones is not None:
        picked = sorted(rng.choice(len(zoo.generators), cones, replace=False))
    xs = [cartan(n, (1,) + (-2,) * (n - 2)), cartan(n, (-1,) * (n - 1))]
    for _ in range(points):
        d = int(rng.integers(1, 5))
        xs.append(cartan(n, [Q(int(rng.integers(-3 * d, 2 * d + 1)), d)
                             for _ in range(n - 1)]))
    assert any(in_c_minus(x) for x in xs) and not all(map(in_c_minus, xs))
    seen = set()
    for x in xs:
        alive = _sections_alive(zoo, None, UMinusOpen(x))
        for gi in picked:
            cone = zoo.generators[gi].region
            assert alive[gi] == fm_cone_meets_uminus(cone, x), (cone, x)
            seen.add(alive[gi])
    assert seen == {True, False}


# -- the direct sum -----------------------------------------------------------


@pytest.mark.parametrize("n", (2, 3, 4))
def test_stalk_flag_sum_matches_fraction_form(n):
    rng = np.random.default_rng(10 + n)
    points = [sample_c_minus_interior(n, rng) for _ in range(4)]
    base = cartan(n, (-1,) * (n - 1))
    points += [base, cartan(n, (-2,) + (-1,) * (n - 2))]
    points += [base + f_vec(n, k).scale(Q(1, 3)) for k in range(1, n)]
    for p in points:
        for r in range(n):
            z = CenterClass(n, r)
            assert stalk_flag_sum(n, z, p) == fraction_stalk_flag_sum(n, z, p)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_required_stalk_box_matches_fraction_form(n):
    # seeded points of C_-^o at several depths and denominators, points
    # whose scaled profile is an integer, and points outside C_-^o, which
    # both forms refuse
    rng = np.random.default_rng(30 + n)
    points = [
        sample_c_minus_interior(n, rng, depth=Q(depth, 2), denom=denom)
        for depth in (1, 3, 5, 8) for denom in (1, 3, 16) for _ in range(5)
    ]
    points += [cartan(n, (-1,) * (n - 1)), cartan(n, (-n,) * (n - 1))]
    for p in points:
        assert required_stalk_box(p) == fraction_required_stalk_box(p), p
    outside = [cartan(n, (0,) * (n - 1)), cartan(n, (Q(1, 3),) * (n - 1))]
    outside.append(cartan(n, (-1,) * (n - 2) + (0,)))
    for p in outside:
        for rule in (required_stalk_box, fraction_required_stalk_box):
            with pytest.raises(ValueError, match="inside C_-"):
                rule(p)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_jump_bounds_match_fraction_forms(n, monkeypatch):
    # seeded lattice and rational m, inside and outside C_-, with every I:
    # the coordinate box (which MarginError prints) is the Fraction
    # form's, the profile box its [ceil(N lo_u), floor(N hi_u)], and the
    # jump bound equal entry by entry; a lattice apex's bound is all int,
    # built without a Fraction
    built, rational = [], 0

    def fraction(*args):
        built.append(args)
        return Q(*args)

    monkeypatch.setattr(sheaf_complex, "Fraction", fraction)
    rng = np.random.default_rng(40 + n)
    ms = [cartan(n, (0,) * (n - 1)), cartan(n, (-1,) * (n - 1))]
    for denom in (1, 1, 2, 3, 5, 7):
        for _ in range(6):
            ms.append(cartan(n, [
                Q(int(rng.integers(-4 * denom, 2 * denom + 1)), denom)
                for _ in range(n - 1)
            ]))
    subsets = [
        c for r in range(n) for c in itertools.combinations(range(1, n), r)
    ]
    for m in ms:
        box, profile_box = jump_required_box(n, m)
        want_box, (lo_u, hi_u) = fraction_jump_required_box(n, m)
        assert box == want_box, m
        assert profile_box == ((math.ceil(n * lo_u), math.floor(n * hi_u)),) * (
            n - 1
        ), m
        for idx in subsets:
            built.clear()
            bound, exact = jump_bound(n, idx, m)
            assert (bound, exact) == fraction_jump_bound(n, idx, m), (m, idx)
            assert all(type(b) is int for j, b in enumerate(bound, 1)
                       if j not in exact or b == int(b)), (m, idx)
            if m.is_integral():
                assert not built, (m, idx)
                assert all(type(b) is int for b in bound), (m, idx)
            rational += bool(built)
    assert rational  # an exact M_k off the integers is a Fraction


def test_each_query_point_computes_its_profile_once(monkeypatch):
    # the integer profile is a cached property of the point: a crosscheck
    # point reads it in required_stalk_box, stalk_bound and stalk_flag_sum,
    # a jump in jump_required_box and jump_bound, and each computes it once
    rng = np.random.default_rng(7)
    points = [sample_c_minus_interior(3, rng) for _ in range(5)]
    computed = []
    scaled = root_system.scaled_profile

    def counted(n, coords):
        computed.append(tuple(coords))
        return scaled(n, coords)

    monkeypatch.setattr(root_system, "scaled_profile", counted)
    report = crosscheck_stalks(3, CenterClass(3, 1), points)
    assert report.compared == len(points)
    assert len(computed) == len(points)
    for coords, idx in [((0, 0), (1, 2)), ((-3, -3), (1,)),
                        ((Q(-1, 2), Q(-5, 3)), ())]:
        computed.clear()
        model_jump(3, CenterClass(3, 1), idx, cartan(3, coords))
        assert len(computed) == 1, (coords, idx)
