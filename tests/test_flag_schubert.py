import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagsheaf.flag_schubert import (
    FlagPartition,
    FlagType,
    all_flag_types,
    betti,
    cell_count,
    g_space,
    inversions,
    is_elementary,
    partitions_of,
    refine,
    verify_free_decomposition,
)
from flagsheaf.graded import GradedDims, poincare_in_q

from certificate_checker import gaussian_multinomial


def test_flag_type_validation():
    ft = FlagType(4, (1, 3))
    assert ft.block_sizes() == (1, 2, 1)
    with pytest.raises(ValueError):
        FlagType(3, (0,))
    with pytest.raises(ValueError):
        FlagType(3, (2, 1))
    with pytest.raises(ValueError):
        FlagType(3, (3,))


def test_inversions_examples():
    assert inversions(FlagPartition(((1,), (2, 3)))) == 0
    assert inversions(FlagPartition(((2,), (1,)))) == 1
    assert inversions(FlagPartition(((3,), (1, 2)))) == 2


def test_betti_examples():
    assert betti(FlagType(3, ())) == GradedDims({0: 1})
    assert betti(FlagType(2, (1,))) == GradedDims({0: 1, 2: 1})
    full3 = betti(FlagType(3, (1, 2)))
    assert full3 == GradedDims({0: 1, 2: 2, 4: 2, 6: 1})
    assert full3.total() == 6


@pytest.mark.parametrize("n", range(2, 6))
def test_betti_matches_q_multinomial(n):
    for ft in all_flag_types(n):
        table = poincare_in_q(betti(ft))
        oracle = gaussian_multinomial(n, ft.block_sizes())
        assert [table[d] for d in range(len(oracle))] == oracle
        assert betti(ft).total() == cell_count(ft)


def test_refine_examples():
    ft_i = FlagType(3, (1, 2))
    ft_j = FlagType(3, (1,))
    a = FlagPartition(((2,), (1, 3)))
    assert refine(ft_j, a, ft_i).blocks == ((2,), (1,), (3,))
    assert refine(ft_i, refine(ft_j, a, ft_i), ft_i).blocks == refine(
        ft_j, a, ft_i
    ).blocks
    sorted_split = refine(FlagType(3, ()), FlagPartition(((1, 2, 3),)), ft_i)
    assert sorted_split.blocks == ((1,), (2,), (3,))
    with pytest.raises(ValueError):
        refine(FlagType(3, (2,)), FlagPartition(((1, 2), (3,))), ft_j)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.data())
def test_refine_preserves_inversions(n, data):
    fts = list(all_flag_types(n))
    fine = data.draw(st.sampled_from(fts))
    subsets = [
        tuple(i for i in fine.indices if data.draw(st.booleans()))
    ]
    coarse = FlagType(n, subsets[0])
    part = data.draw(st.sampled_from(list(partitions_of(coarse))))
    refined = refine(coarse, part, fine)
    assert inversions(refined) == inversions(part)


def test_elementary_examples():
    assert is_elementary(FlagPartition(((1, 2, 3),)))
    assert not is_elementary(FlagPartition(((1,), (2,))))
    assert is_elementary(FlagPartition(((2,), (1,))))
    elementary_full3 = [
        p for p in partitions_of(FlagType(3, (1, 2))) if is_elementary(p)
    ]
    assert [p.blocks for p in elementary_full3] == [((3,), (2,), (1,))]


def test_g_space_examples():
    assert g_space(FlagType(3, ())) == GradedDims({0: 1})
    assert g_space(FlagType(2, (1,))) == GradedDims({2: 1})
    assert g_space(FlagType(3, (1,))) == GradedDims({2: 1, 4: 1})
    assert g_space(FlagType(3, (1, 2))) == GradedDims({6: 1})


@pytest.mark.parametrize("n", range(2, 6))
def test_g_space_total_identity(n):
    # summing the elementary counts over every subset recovers the
    # full flag cell count
    total = sum(g_space(ft).total() for ft in all_flag_types(n))
    assert total == math.factorial(n)


@pytest.mark.parametrize("n", range(2, 6))
def test_free_decomposition(n):
    for ft in all_flag_types(n):
        report = verify_free_decomposition(ft)
        assert report.ok, report.first_mismatch
        assert report.image_total == cell_count(ft)


def test_free_decomposition_trivial_flag():
    report = verify_free_decomposition(FlagType(4, ()))
    assert report.ok and report.expected_total == 1


def test_partition_validation():
    with pytest.raises(ValueError):
        FlagPartition(((1,), (1, 2)))
    with pytest.raises(ValueError):
        FlagPartition(((1,), (3,)))
