"""Cohomology of the unexpanded complexes against the oracles.

Stalk, section and jump complexes keep one basis line per generator
with its multiplicity space alongside.  The expanded oracle copies every
line once per dimension of that space and ranks each differential as
one Fraction matrix, with no component split; the component oracle is
the Bareiss path that unit-pivot reduction replaced.  d*d = 0 is
re-verified on every complex here, since production checks it once per
cone model and not per stalk or section.
"""

import itertools
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagsheaf import sheaf_complex
from flagsheaf.graded import GradedDims
from flagsheaf.linalg import rank_triplets
from flagsheaf.pipeline import (
    build_cone_model,
    jump_required_box,
    required_stalk_box,
    sample_c_minus_interior,
)
from flagsheaf.root_system import (
    CenterClass,
    IntegrityError,
    cartan,
    center_class,
    i_set,
)
from flagsheaf.sheaf_complex import (
    FiniteComplex,
    UMinusOpen,
    UOpen,
    jump_complex,
    region_contains,
    sections_complex,
    stalk_complex,
    verify_dd_zero,
)

from oracles import component_cohomology, expanded_cohomology, fraction_rank


def assert_matches_oracle(complex_):
    verify_dd_zero(complex_.entries)
    got = complex_.cohomology()
    assert got.to_json() == GradedDims(expanded_cohomology(complex_)).to_json()
    return got


@pytest.fixture
def rank_calls(monkeypatch):
    """Count the exact-rank calls cohomology makes on its residue."""
    calls = []

    def counted(*args):
        calls.append(args)
        return rank_triplets(*args)

    monkeypatch.setattr(sheaf_complex, "rank_triplets", counted)
    return calls


@pytest.mark.parametrize(
    "n,points,centers", [(3, 4, (0, 1, 2)), (4, 3, (0, 1, 2, 3))]
)
def test_stalks_match_expanded_oracle(n, points, centers, rank_calls):
    rng = np.random.default_rng(20)
    # lattice points put profiles of p and of apexes level, where the
    # closed cone conditions decide
    lattice = [cartan(n, (-1,) * (n - 1)), cartan(n, (-2,) + (-1,) * (n - 2))]
    sampled = [sample_c_minus_interior(n, rng) for _ in range(points)]
    for p in sampled + lattice:
        window = required_stalk_box(p)
        for residue in centers:
            z = CenterClass(n, residue)
            model = build_cone_model(n, z, window)
            stalk = stalk_complex(model, z, p)
            # per-apex selection keeps exactly the generators whose
            # region contains p
            assert len(stalk.degrees) == sum(
                g.center == z and region_contains(g.region, p)
                for g in model.generators
            )
            assert any(m.total() > 1 for m in stalk.mults)
            got = assert_matches_oracle(stalk)
            assert dict(got.items()) == component_cohomology(stalk)
    # every stalk reduces to lines without entries
    assert not rank_calls


@pytest.mark.parametrize("kind", (UOpen, UMinusOpen))
def test_sections_match_expanded_oracle(kind):
    window = ((-3, 0), (-3, 0))
    probes = [(-1, -1), (-2, 0), (0, 0), (Q(-1, 2), Q(-3, 2)), (1, -1)]
    for residue in range(3):
        z = CenterClass(3, residue)
        model = build_cone_model(3, z, window)
        for coords in probes:
            assert_matches_oracle(
                sections_complex(model, z, kind(cartan(3, coords)))
            )


def test_jumps_match_expanded_oracle(rank_calls):
    nonzero = 0
    for coords in itertools.product(range(-2, 1), repeat=2):
        m = cartan(3, coords)
        window, profile_box = jump_required_box(3, m)
        model = build_cone_model(3, center_class(m), window, profile_box)
        forced = i_set(m)
        for extra in ((), (1,), (2,), (1, 2)):
            indices = sorted(forced | set(extra))
            got = assert_matches_oracle(jump_complex(model, indices, m))
            nonzero += not got.is_zero()
    assert nonzero
    assert not rank_calls


def test_cone_model_with_a_flipped_sign_fails_at_build(monkeypatch):
    z, window = CenterClass(3, 0), ((-2, 0), (-2, 0))
    build_cone_model(3, z, window)
    original = sheaf_complex._subset_sign
    flipped = []

    def flip_first(j_small, added):
        sign = original(j_small, added)
        if flipped:
            return sign
        # the first entry, J = {} -> {1}, lies on a square of its block
        flipped.append((j_small, added))
        return -sign

    monkeypatch.setattr(sheaf_complex, "_subset_sign", flip_first)
    with pytest.raises(IntegrityError):
        build_cone_model(3, z, window)
    assert flipped


def test_mixed_multiplicities_in_one_component_fail():
    mixed = FiniteComplex(
        (0, 1), [(0, 1, 1)], [GradedDims.line(), GradedDims({0: 1, 2: 1})]
    )
    with pytest.raises(IntegrityError):
        mixed.cohomology()


def test_multiplicity_tensors_each_component():
    c = FiniteComplex(
        (0, 1, 3),
        [(0, 1, 1)],
        [GradedDims({0: 2}), GradedDims({0: 2}), GradedDims({0: 1, 2: 3})],
    )
    assert c.cohomology() == GradedDims({3: 1, 5: 3})


@pytest.mark.parametrize(
    "entries",
    [
        [(0, 2, 2), (0, 3, 4), (1, 2, 1), (1, 3, 2)],
        [(0, 2, 2), (0, 3, 1), (1, 2, 1), (1, 3, Q(1, 2))],
    ],
)
def test_singular_block_with_non_unit_pivots(entries):
    # det 0: the first unit pivot must cancel the remaining entry exactly
    c = FiniteComplex((0, 0, 1, 1), entries)
    assert c.cohomology() == GradedDims({0: 1, 1: 1})
    assert_matches_oracle(c)


def _whole_as_int(c: Q):
    return c.numerator if c.denominator == 1 else c


koszul_cubes = st.lists(
    st.tuples(
        st.lists(st.integers(-3, 3), max_size=3),  # weight per direction
        st.integers(-2, 2),  # degree of the empty corner
        st.sampled_from([{0: 1}, {0: 2}, {0: 1, 2: 1}]),
    ),
    min_size=1,
    max_size=3,
)
nonzero_scales = st.fractions(-4, 4, max_denominator=5).filter(bool)


@settings(max_examples=200, deadline=None)
@given(koszul_cubes, st.data())
def test_rescaled_koszul_cubes_match_expanded_oracle(cubes, data):
    """Koszul cubes d(J -> J + e) = +-w_e have d*d = 0; conjugating by
    a diagonal rescaling, d(i -> j) * s_j / s_i, keeps d*d = 0 and the
    cohomology but leaves non-unit int and Fraction pivots, so the
    residue is ranked too.  Lines are renumbered at random, which
    changes the pivot order."""
    degrees, mults, entries = [], [], []
    for weights, base, mult in cubes:
        mult = GradedDims(mult)  # equal spaces need not be one object
        corner = {}
        for r in range(len(weights) + 1):
            for subset in itertools.combinations(range(len(weights)), r):
                corner[frozenset(subset)] = len(degrees)
                degrees.append(base + r)
                mults.append(mult)
        for subset, i in corner.items():
            for e, w in enumerate(weights):
                if e not in subset and w:
                    sign = -1 if sum(1 for x in subset if x < e) % 2 else 1
                    entries.append((i, corner[subset | {e}], sign * w))
    size = len(degrees)
    scale = data.draw(st.lists(nonzero_scales, min_size=size, max_size=size))
    order = data.draw(st.permutations(range(size)))
    new_degrees, new_mults = [0] * size, [None] * size
    for i, k in enumerate(order):
        new_degrees[k], new_mults[k] = degrees[i], mults[i]
    rescaled = FiniteComplex(
        new_degrees,
        [
            (order[i], order[j], _whole_as_int(c * scale[j] / scale[i]))
            for i, j, c in entries
        ],
        new_mults,
    )
    got = assert_matches_oracle(rescaled)
    assert got == FiniteComplex(degrees, entries, mults).cohomology()


triplet_matrices = st.integers(1, 6).flatmap(
    lambda nrows: st.integers(1, 6).flatmap(
        lambda ncols: st.tuples(
            st.just(nrows),
            st.just(ncols),
            st.lists(
                st.tuples(
                    st.integers(0, nrows - 1),
                    st.integers(0, ncols - 1),
                    st.integers(-3, 3),
                ),
                max_size=20,
            ),
        )
    )
)


@settings(max_examples=200, deadline=None)
@given(triplet_matrices)
def test_rank_of_integer_triplets_matches_fraction_triplets(matrix):
    nrows, ncols, triplets = matrix
    as_fractions = [(r, c, Q(v)) for r, c, v in triplets]
    rank = rank_triplets(triplets, nrows, ncols)
    assert rank == rank_triplets(as_fractions, nrows, ncols)
    rows: dict[int, dict[int, Q]] = {}
    for r, c, v in as_fractions:
        rows.setdefault(r, {})
        rows[r][c] = rows[r].get(c, Q(0)) + v
    assert rank == fraction_rank(list(rows.values()))
