import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagsheaf.graded import GradedDims, poincare_in_q

dims = st.dictionaries(
    st.integers(min_value=-10, max_value=10),
    st.integers(min_value=1, max_value=4),
    max_size=5,
).map(GradedDims)


def test_basics():
    g = GradedDims({2: 1, 0: 3, 5: 0})
    assert g[0] == 3 and g[2] == 1 and g[5] == 0
    assert g.total() == 4
    assert list(g.degrees()) == [0, 2]
    assert GradedDims.empty().is_zero()
    with pytest.raises(ValueError):
        GradedDims({0: -1})


@given(dims, dims)
def test_add_tensor_shift(a, b):
    assert (a + b).total() == a.total() + b.total()
    assert a.tensor(b).total() == a.total() * b.total()
    assert a.shifted(3).shifted(-3) == a
    assert a.tensor(GradedDims.line(0)) == a


def test_tensor_convolves():
    a = GradedDims({0: 1, 1: 1})
    assert a.tensor(a) == GradedDims({0: 1, 1: 2, 2: 1})


def test_json_round_trip():
    a = GradedDims({-4: 1, 0: 2})
    assert a.to_json() == {"-4": 1, "0": 2}


def test_poincare_in_q():
    assert poincare_in_q(GradedDims({0: 1, 2: 2})) == GradedDims({0: 1, 1: 2})
    with pytest.raises(ValueError):
        poincare_in_q(GradedDims({1: 1}))


def test_restricted_dominates():
    a = GradedDims({0: 2, 4: 1, 8: 1})
    assert a.dominates(GradedDims({0: 1}))
    assert not GradedDims({0: 1}).dominates(a)
