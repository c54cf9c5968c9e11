"""Randomized geometric invariants of the region layer."""

from fractions import Fraction as Q

import numpy as np
import pytest

from flagsheaf.root_system import CenterClass, cartan, zero
from flagsheaf.sheaf_complex import (
    KCone,
    SheafComplex,
    SheafGenerator,
    UMinusOpen,
    UOpen,
    _sections_alive,
    region_contains,
)


def _zoo(n):
    yield UMinusOpen(zero(n))
    yield UMinusOpen(cartan(n, (-1,) * (n - 1)))
    yield UOpen(cartan(n, (1,) + (0,) * (n - 2)))
    yield KCone(frozenset({1}), cartan(n, (-2,) + (0,) * (n - 2)))
    yield KCone(frozenset(range(1, n)), cartan(n, (-1,) * (n - 1)))


def _random_points(n, rng, count=200, denom=8, spread=4):
    for _ in range(count):
        yield cartan(
            n,
            tuple(
                Q(int(rng.integers(-spread * denom, spread * denom + 1)),
                  denom)
                for _ in range(n - 1)
            ),
        )


@pytest.mark.parametrize("n", (2, 3, 4))
def test_regions_are_convex_on_samples(n):
    rng = np.random.default_rng(n)
    points = list(_random_points(n, rng))
    for region in _zoo(n):
        members = [p for p in points if region_contains(region, p)]
        for a, b in zip(members, members[1:]):
            mid = (a + b).scale(Q(1, 2))
            assert region_contains(region, mid), (region, a.coords, b.coords)


@pytest.mark.parametrize("n", (2, 3))
def test_cone_chamber_feasibility_matches_sampling(n):
    rng = np.random.default_rng(10 + n)
    points = list(_random_points(n, rng, count=400))
    xs = [zero(n), cartan(n, (-1,) * (n - 1)), cartan(n, (2,) + (0,) * (n - 2))]
    cones = [
        KCone(frozenset({1}), cartan(n, (-2,) + (0,) * (n - 2))),
        KCone(frozenset(range(1, n)), zero(n)),
        KCone(frozenset(), cartan(n, (1,) * (n - 1))),
    ]
    for x in xs:
        chamber = UMinusOpen(x)
        for cone in cones:
            s = SheafComplex(
                n, [SheafGenerator(cone, CenterClass(n, 0), 0)], []
            )
            feasible = _sections_alive(s, None, chamber) == [True]
            witnesses = [
                p
                for p in points
                if region_contains(cone, p) and region_contains(chamber, p)
            ]
            if witnesses:
                assert feasible, (cone, x.coords, witnesses[0].coords)
            if not feasible:
                assert not witnesses
