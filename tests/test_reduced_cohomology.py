"""Cohomology of the unexpanded complexes against the expanded oracle.

Stalk, section and jump complexes keep one basis line per generator
with its multiplicity space alongside; the oracle copies every line
once per dimension of that space and ranks each differential as one
Fraction matrix, with no component split.
"""

import itertools
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    _u_profile,
    jump_complex,
    region_contains,
    sections_complex,
    stalk_complex,
)

from oracles import expanded_cohomology, fraction_rank


def assert_matches_oracle(complex_):
    got = complex_.cohomology()
    assert got.to_json() == GradedDims(expanded_cohomology(complex_)).to_json()
    return got


@pytest.mark.parametrize(
    "n,points,centers", [(3, 4, (0, 1, 2)), (4, 3, (0, 1, 2, 3))]
)
def test_stalks_match_expanded_oracle(n, points, centers):
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
            assert_matches_oracle(stalk)


@pytest.mark.parametrize("kind", (UOpen, UMinusOpen))
def test_sections_match_expanded_oracle(kind):
    window = ((-3, 0), (-3, 0))
    probes = [(-1, -1), (-2, 0), (0, 0), (Q(-1, 2), Q(-3, 2))]
    for residue in range(3):
        z = CenterClass(3, residue)
        model = build_cone_model(3, z, window)
        for coords in probes:
            assert_matches_oracle(
                sections_complex(model, z, kind(cartan(3, coords)))
            )


def test_jumps_match_expanded_oracle():
    eps = Q(1, 2)
    nonzero = 0
    for coords in itertools.product(range(-2, 1), repeat=2):
        m = cartan(3, coords)
        window, u_bounds = jump_required_box(3, m, (1, 2), eps)
        model = build_cone_model(3, center_class(m), window, u_bounds)
        forced = i_set(m)
        for extra in ((), (1,), (2,), (1, 2)):
            indices = sorted(forced | set(extra))
            got = assert_matches_oracle(jump_complex(model, indices, m, eps))
            nonzero += not got.is_zero()
    assert nonzero


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


def test_profile_cache_is_bounded():
    # a whole N=4 crosscheck window (216 apexes) plus its points
    assert 216 + 64 <= _u_profile.cache_info().maxsize < 10**5


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
