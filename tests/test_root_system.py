from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagsheaf.root_system import (
    CartanVector,
    CenterClass,
    WeylPosition,
    cartan,
    center_class,
    d_degree,
    dominance_leq,
    dominance_ll,
    e_vec,
    f_vec,
    gram_e,
    i_set,
    in_c_minus,
    pair_e,
    pair_f,
    shevel_witness,
    weyl_chamber,
    zero,
)

from oracles import enumerate_lattice, oracle_pair_e


def lattice_vectors(n, lo=-4, hi=4):
    return st.tuples(
        *[st.integers(min_value=lo, max_value=hi) for _ in range(n - 1)]
    ).map(lambda t: cartan(n, t))


# -- pairings ----------------------------------------------------------------


def test_pair_e_examples():
    assert pair_e(e_vec(2, 1), 1) == Q(1, 2)
    assert pair_e(e_vec(3, 1), 1) == Q(2, 3)
    for n in (2, 3, 4, 5):
        assert all(pair_e(zero(n), k) == 0 for k in range(1, n))


@pytest.mark.parametrize("n", range(2, 9))
def test_pair_e_against_trace_oracle(n):
    for j in range(1, n):
        for k in range(1, n):
            assert gram_e(n, j, k) == oracle_pair_e(e_vec(n, j).coords, k)


def test_pair_f_examples():
    v = f_vec(3, 1)
    assert pair_f(v, 1) == 2
    assert pair_f(v, 2) == -1
    for n in range(2, 6):
        for j in range(1, n):
            for k in range(1, n):
                assert pair_f(e_vec(n, j), k) == (1 if j == k else 0)
                assert pair_e(f_vec(n, j), k) == (1 if j == k else 0)


@pytest.mark.parametrize("n", range(2, 9))
def test_f_expansion_coordinates(n):
    for k in range(1, n):
        expected = [0] * (n - 1)
        expected[k - 1] = 2
        if k >= 2:
            expected[k - 2] = -1
        if k <= n - 2:
            expected[k] = -1
        assert [int(c) for c in f_vec(n, k).coords] == expected


def test_pair_index_errors():
    with pytest.raises(ValueError):
        pair_e(zero(3), 0)
    with pytest.raises(ValueError):
        pair_f(zero(3), 3)
    with pytest.raises(ValueError):
        dominance_leq(zero(3), zero(4))


# -- dominance ----------------------------------------------------------------


def test_dominance_examples():
    assert dominance_leq(-e_vec(2, 1), zero(2))
    x = cartan(3, (1, -1))
    assert not dominance_leq(x, zero(3))
    assert not dominance_leq(zero(3), x)
    assert dominance_leq(x, x)
    assert not dominance_ll(x, x)


@settings(max_examples=150)
@given(lattice_vectors(3), lattice_vectors(3), lattice_vectors(3))
def test_dominance_partial_order(x, y, z):
    if dominance_leq(x, y) and dominance_leq(y, x):
        assert x.coords == y.coords
    if dominance_leq(x, y) and dominance_leq(y, z):
        assert dominance_leq(x, z)
    if dominance_ll(x, y):
        assert dominance_leq(x, y)


# -- chamber -------------------------------------------------------------------


def test_weyl_chamber_examples():
    assert weyl_chamber(zero(3)) is WeylPosition.BOUNDARY_MINUS
    assert i_set(zero(3)) == frozenset()
    assert weyl_chamber(-f_vec(2, 1)) is WeylPosition.INTERIOR_MINUS
    assert i_set(-f_vec(2, 1)) == {1}
    x = -e_vec(3, 1)
    assert weyl_chamber(x) is WeylPosition.BOUNDARY_MINUS
    assert i_set(x) == {1}
    assert pair_f(x, 2) == 0


# -- center class and degree ---------------------------------------------------


def test_center_class_examples():
    assert center_class(zero(4)).residue == 0
    assert center_class(e_vec(2, 1)).residue == 1
    assert center_class(cartan(3, (1, 1))).residue == 0
    with pytest.raises(ValueError):
        center_class(cartan(2, (Q(1, 2),)))


@settings(max_examples=100)
@given(lattice_vectors(4), lattice_vectors(4))
def test_center_class_additive(l, m):
    combined = center_class(l + m)
    assert combined.residue == (
        center_class(l).residue + center_class(m).residue
    ) % 4


def test_d_degree_examples():
    assert d_degree(zero(5)) == 0
    assert d_degree(-e_vec(2, 1)) == 2
    assert d_degree(cartan(3, (-2, -1))) == 12


@pytest.mark.parametrize("n", range(2, 7))
def test_d_degree_weights(n):
    for k in range(1, n):
        assert d_degree(-e_vec(n, k)) == 2 * k * (n - k)


@settings(max_examples=100)
@given(lattice_vectors(4), lattice_vectors(4))
def test_d_degree_additive(l, m):
    assert d_degree(l + m) == d_degree(l) + d_degree(m)


# -- lattice enumeration --------------------------------------------------------


def test_enumerate_lattice_examples():
    got = enumerate_lattice(CenterClass(2, 0), [(-4, 0)])
    assert [v.coords for v in got] == [(-4,), (-2,), (0,)]
    assert enumerate_lattice(CenterClass(2, 0), [(2, 1)]) == []
    got3 = enumerate_lattice(CenterClass(3, 0), [(-1, 0), (-1, 0)])
    # the residue criterion keeps 0 and -e1-e2
    assert [tuple(map(int, v.coords)) for v in got3] == [(-1, -1), (0, 0)]


def test_enumerate_lattice_unbounded():
    with pytest.raises(ValueError):
        enumerate_lattice(CenterClass(2, 0), [(None, 0)])


# -- chamber-walk witness --------------------------------------------------------


def test_shevel_examples():
    assert shevel_witness(cartan(2, (-2,)), zero(2)) == 1
    k = shevel_witness(cartan(3, (-1, -1)), zero(3))
    assert k in (1, 2)
    with pytest.raises(ValueError):
        shevel_witness(zero(2), zero(2))
    with pytest.raises(ValueError):
        shevel_witness(zero(2), cartan(2, (-2,)))  # dominance fails


@pytest.mark.parametrize("n", range(2, 7))
def test_shevel_random_pairs(n):
    import random

    rng = random.Random(n)
    box = [(-6, 0)] * (n - 1)
    pool = [
        v
        for z in range(n)
        for v in enumerate_lattice(CenterClass(n, z), box)
        if in_c_minus(v)
    ]
    trials = 0
    while trials < 1000:
        x = rng.choice(pool)
        y = rng.choice(pool)
        if x.coords == y.coords or not dominance_leq(x, y):
            continue
        k = shevel_witness(x, y)
        assert k in i_set(x) and pair_e(y - x, k) > 0
        trials += 1


def test_vector_validation():
    with pytest.raises(ValueError):
        CartanVector(1, ())
    with pytest.raises(ValueError):
        cartan(3, (1,))
    with pytest.raises(TypeError):
        cartan(2, (0.5,))
