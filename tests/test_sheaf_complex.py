import ast
import itertools
import pathlib
from fractions import Fraction as Q

import numpy as np
import pytest

from flagsheaf import sheaf_complex

from flagsheaf.graded import GradedDims
from flagsheaf.pipeline import build_cone_model, jump_required_box
from flagsheaf.root_system import (
    CenterClass,
    IntegrityError,
    cartan,
    center_class,
    d_degree,
    dominance_ll,
    e_vec,
    f_vec,
    i_set,
    in_c_minus,
    zero,
)
from flagsheaf.sheaf_complex import (
    FiniteComplex,
    KCone,
    SheafComplex,
    SheafGenerator,
    UMinusOpen,
    UOpen,
    _sections_alive,
    build_standard_complex,
    jump_complex,
    region_contains,
    sections_complex,
    stalk_complex,
    verify_dd_zero,
)

from oracles import (
    corner_jump_cohomology,
    enumerate_lattice,
    window_points,
)

Z2 = CenterClass(2, 0)
Z3 = CenterClass(3, 0)


# -- regions -------------------------------------------------------------------


def test_region_membership_examples():
    assert region_contains(UMinusOpen(zero(2)), -f_vec(2, 1))
    cone = KCone(frozenset({1}), zero(2))
    assert region_contains(cone, zero(2))
    with pytest.raises(ValueError):
        region_contains(cone, zero(3))


def _meets_uminus(cone, x):
    """Whether section selection keeps ``cone`` over UMinusOpen(x)."""
    n = cone.apex.n
    s = SheafComplex(n, [SheafGenerator(cone, CenterClass(n, 0), 0)], [])
    return _sections_alive(s, None, UMinusOpen(x)) == [True]


def test_cone_uminus_feasibility():
    assert not _meets_uminus(KCone(frozenset({1, 2}), zero(3)), zero(3))
    assert not _meets_uminus(KCone(frozenset({1}), zero(2)), zero(2))
    assert _meets_uminus(KCone(frozenset({1}), cartan(2, (-2,))), zero(2))


# -- construction and validation -------------------------------------------------


def test_build_y_example_counts():
    y = build_standard_complex(2, ((-2, 0),))
    assert len(y.generators) == 6
    assert len(y.entries) == 3
    y3 = build_standard_complex(3, ((-1, 0), (-1, 0)))
    empty_j = [
        g for g in y3.generators if isinstance(g.region, KCone)
        and not g.region.indices
    ]
    assert len(empty_j) == 4


@pytest.mark.parametrize("n", range(2, 6))
def test_build_y_differential_squares_to_zero(n):
    y = build_standard_complex(n, ((-1, 0),) * (n - 1))
    verify_dd_zero(y.entries)


def test_build_y_entries_stay_at_one_apex():
    y = build_standard_complex(3, ((-2, 1), (-2, 1)))
    for i, j, _ in y.entries:
        src, dst = y.generators[i].region, y.generators[j].region
        assert src.apex.coords == dst.apex.coords
        assert src.indices < dst.indices


def test_build_y_empty_window():
    with pytest.raises(ValueError):
        build_standard_complex(2, ((1, 0),))


def test_entry_validation():
    g0 = SheafGenerator(KCone(frozenset(), zero(2)), Z2, 0)
    g1 = SheafGenerator(KCone(frozenset({1}), zero(2)), Z2, 1)
    SheafComplex(2, [g0, g1], [(0, 1, Q(1))])
    with pytest.raises(ValueError):
        SheafComplex(2, [g0, g1], [(1, 0, Q(1))])  # degree step
    with pytest.raises(ValueError):
        SheafComplex(2, [g0, g1], [(0, 1, Q(0))])  # zero entry
    bad_center = SheafGenerator(KCone(frozenset({1}), zero(2)),
                                CenterClass(2, 1), 1)
    with pytest.raises(ValueError):
        SheafComplex(2, [g0, bad_center], [(0, 1, Q(1))])


def test_entry_direction_for_lower_sets():
    # the direction from the larger lower set supports no nonzero map
    wrong = [
        SheafGenerator(UMinusOpen(zero(2)), Z2, 0),
        SheafGenerator(UMinusOpen(cartan(2, (-2,))), Z2, 1),
    ]
    with pytest.raises(ValueError):
        SheafComplex(2, wrong, [(0, 1, Q(1))])


def test_dd_zero_integrity():
    gens = [
        SheafGenerator(KCone(frozenset(), zero(2)), Z2, 0),
        SheafGenerator(KCone(frozenset({1}), zero(2)), Z2, 1),
        SheafGenerator(KCone(frozenset({1}), zero(2)), Z2, 2),
    ]
    with pytest.raises(IntegrityError):
        SheafComplex(2, gens, [(0, 1, Q(1)), (1, 2, Q(1))])


# -- finite complexes --------------------------------------------------------------


def test_cohomology_zero_and_iso():
    assert FiniteComplex((), ()).cohomology().is_zero()
    iso = FiniteComplex((0, 1), [(0, 1, Q(1))])
    assert iso.cohomology().is_zero()
    lone = FiniteComplex((5,), ())
    assert lone.cohomology() == GradedDims({5: 1})


def test_cohomology_koszul_square():
    koszul = FiniteComplex(
        (0, 1, 1, 2),
        [(0, 1, Q(1)), (0, 2, Q(1)), (1, 3, Q(1)), (2, 3, Q(-1))],
    )
    assert koszul.cohomology().is_zero()


def test_cohomology_integrity_error():
    bad = FiniteComplex((0, 1, 2), [(0, 1, Q(1)), (1, 2, Q(1))])
    with pytest.raises(IntegrityError):
        bad.cohomology()


def test_cohomology_rational_entries():
    c = FiniteComplex((0, 1), [(0, 1, Q(3, 7))])
    assert c.cohomology().is_zero()


# -- stalks --------------------------------------------------------------------


def test_stalk_single_generator():
    gen = SheafGenerator(UMinusOpen(zero(2)), Z2, -3)
    s = SheafComplex(2, [gen], [])
    inside = cartan(2, (Q(-1, 2),))
    assert stalk_complex(s, Z2, inside).cohomology() == GradedDims({-3: 1})
    outside = cartan(2, (Q(1, 2),))
    assert stalk_complex(s, Z2, outside).cohomology().is_zero()
    assert stalk_complex(s, CenterClass(2, 1), inside).cohomology().is_zero()


def test_stalk_of_y_matches_lower_set_description():
    y = build_standard_complex(2, ((-4, 0),))
    p = cartan(2, (Q(-5, 2),))
    got = stalk_complex(y, Z2, p).cohomology()
    expected = GradedDims.empty()
    for l in enumerate_lattice(Z2, [(-4, 0)]):
        if in_c_minus(l) and dominance_ll(p, l):
            expected = expected + GradedDims({-d_degree(l): 1})
    assert got == expected == GradedDims({0: 1, -4: 1})


def test_stalk_acyclic_off_lower_lattice():
    # apex with a positive coordinate: stalks vanish on the open
    # negative chamber
    y = build_standard_complex(2, ((2, 2),))
    for num in (-1, -3, -5):
        p = cartan(2, (Q(num, 2),))
        assert stalk_complex(y, Z2, p).cohomology().is_zero()


# -- sections ------------------------------------------------------------------


def test_sections_examples():
    # a lower-set generator the probe does not dominate: no sections
    lone = SheafComplex(
        2, [SheafGenerator(UMinusOpen(cartan(2, (-2,))), Z2, 0)], []
    )
    assert sections_complex(lone, Z2, UOpen(zero(2))).cohomology().is_zero()
    gen = SheafGenerator(KCone(frozenset(), cartan(2, (-2,))), Z2, 0)
    s = SheafComplex(2, [gen], [])
    assert sections_complex(
        s, Z2, UOpen(cartan(2, (-6,)))
    ).cohomology() == GradedDims({0: 1})
    cone = SheafGenerator(KCone(frozenset({1}), zero(2)), Z2, 0)
    s2 = SheafComplex(2, [cone], [])
    assert sections_complex(
        s2, Z2, UOpen(-e_vec(2, 1))
    ).cohomology().is_zero()


def test_sections_unsupported_generator():
    gen = SheafGenerator(UOpen(zero(2)), Z2, 0)
    s = SheafComplex(2, [gen], [])
    with pytest.raises(ValueError):
        sections_complex(s, Z2, UOpen(zero(2)))


@pytest.mark.parametrize("n", (2, 3))
def test_sections_of_y_lower_form(n):
    """Sections over UOpen(x), x in C_-, recover one line in degree
    -D(l) for every windowed lattice l in C_- with x <= l."""
    window = ((-3, 0),) * (n - 1)
    y = build_standard_complex(n, window)
    probes = [
        cartan(n, coords)
        for coords in [
            (-1,) * (n - 1),
            (-2,) + (0,) * (n - 2),
            (0,) * (n - 1),
        ]
    ]
    from flagsheaf.root_system import dominance_leq

    for z in range(n):
        zc = CenterClass(n, z)
        for x in probes:
            got = sections_complex(y, zc, UOpen(x)).cohomology()
            expected = GradedDims.empty()
            for l in enumerate_lattice(zc, window):
                if in_c_minus(l) and dominance_leq(x, l):
                    expected = expected + GradedDims({-d_degree(l): 1})
            assert got == expected, (z, x.coords)


def test_sections_over_uminus_region():
    y = build_standard_complex(2, ((-2, 0),))
    got = sections_complex(y, Z2, UMinusOpen(zero(2))).cohomology()
    assert got == GradedDims({0: 1})
    # a lower-set generator UMinusOpen(y) over UMinusOpen(x), x outside
    # C_-: the domain is UMinusOpen(x^) for the largest x^ in C_- below
    # x, and sections are K iff x^ <= y (here x^ <= y, but not x <= y)
    cases = [
        (Z2, zero(2), cartan(2, (1,)), zero(2)),  # both {w < 0}
        (Z3, cartan(3, (0, -1)), cartan(3, (1, -2)),
         cartan(3, (0, Q(-3, 2)))),
    ]
    for z, y, x, x_hat in cases:
        assert not in_c_minus(x) and in_c_minus(x_hat)
        s = SheafComplex(z.n, [SheafGenerator(UMinusOpen(y), z, 0)], [])
        for u in (UMinusOpen(x), UMinusOpen(x_hat)):
            got = sections_complex(s, z, u).cohomology()
            assert got == GradedDims({0: 1}), (x, u)


# -- jumps ----------------------------------------------------------------------


def test_delta_jump_lower_set_branches():
    x = cartan(2, (-2,))
    for shift_degree in (0, -3, 5):
        s = SheafComplex(
            2, [SheafGenerator(UMinusOpen(x), Z2, shift_degree)], []
        )
        got = jump_complex(s, i_set(x), x).cohomology()
        assert got == GradedDims({shift_degree: 1})
    other = SheafComplex(2, [SheafGenerator(UMinusOpen(zero(2)), Z2, 0)], [])
    assert jump_complex(other, i_set(x), x).cohomology().is_zero()


def test_delta_jump_second_branch_off_interval():
    # k outside I_x with <y, e_k> < <x, e_k>
    x = -e_vec(3, 1)
    y = cartan(3, (0, -2))
    s = SheafComplex(3, [SheafGenerator(UMinusOpen(y), Z3, 0)], [])
    assert jump_complex(s, i_set(x), x).cohomology().is_zero()


def test_delta_jump_empty_index_set_is_sections():
    gen = SheafGenerator(KCone(frozenset(), cartan(2, (-2,))), Z2, 0)
    s = SheafComplex(2, [gen], [])
    assert jump_complex(s, (), zero(2)).cohomology() == GradedDims({0: 1})


def test_delta_complex_differential_squares_to_zero():
    y = build_standard_complex(3, ((-2, 0), (-2, 0)))
    comp = jump_complex(y, (1, 2), cartan(3, (-1, -1)))
    verify_dd_zero(comp.entries)
    comp2 = jump_complex(y, (2,), zero(3))
    verify_dd_zero(comp2.entries)


def _lower_set_zoo(n, chamber, base=None):
    """``base``'s generators (none when None), then one lower set
    UMinusOpen(y) for every y of ``chamber``, in degree -D(y)."""
    gens = [] if base is None else list(base.generators)
    gens += [
        SheafGenerator(UMinusOpen(y), center_class(y), -d_degree(y))
        for y in chamber
    ]
    return SheafComplex(n, gens, [] if base is None else base.entries)


def test_jump_is_the_corner_total_complex():
    # seeded queries against the 2^|I|-corner total complex: the
    # acceptance-5 lower sets, cone models at N = 2, 3 over apexes in
    # [-3, 1]^(N-1) in their own and another center class with every I,
    # N = 4 at the origin, rational m, and cone models mixed with lower
    # sets; d*d = 0 of each restriction is checked on its entries
    rng = np.random.default_rng(5)

    def subsets(n):
        return [
            c for r in range(n) for c in itertools.combinations(range(1, n), r)
        ]

    def check(s, idx, m):
        comp = jump_complex(s, idx, m)
        verify_dd_zero(comp.entries)
        got = comp.cohomology()
        assert got == corner_jump_cohomology(s, idx, m), (idx, m.coords)
        return not got.is_zero()

    nonzero = 0
    for n in (2, 3, 4):
        chamber = [
            cartan(n, c) for c in itertools.product(range(-3, 1), repeat=n - 1)
        ]
        for y in chamber:
            single = _lower_set_zoo(n, [y])
            for x in chamber:
                nonzero += check(single, i_set(x), x)
    queries = [(zero(4), CenterClass(4, 0))]
    for n in (2, 3):
        for c in itertools.product(range(-3, 2), repeat=n - 1):
            m = cartan(n, c)
            own = center_class(m).residue
            queries += [(m, CenterClass(n, own + k)) for k in (0, 1)]
    for n in (2, 3, 4):
        for _ in range(5):
            d = int(rng.integers(2, 4))
            c = [Q(int(rng.integers(-3 * d, d + 1)), d) for _ in range(n - 1)]
            z = CenterClass(n, int(rng.integers(n)))
            queries.append((cartan(n, c), z))
    for m, z in queries:
        n = m.n
        window, profile_box = jump_required_box(n, m)
        model = build_cone_model(n, z, window, profile_box)
        for idx in subsets(n):
            nonzero += check(model, idx, m)
    for n, window in ((2, ((-3, 1),)), (3, ((-2, 1), (-2, 1)))):
        base = build_standard_complex(n, window)
        chamber = [cartan(n, c) for c in window_points(n, window)]
        mixed = _lower_set_zoo(n, chamber[::2], base)
        for m in chamber[1::3] + [cartan(n, (Q(-1, 2),) * (n - 1))]:
            for idx in subsets(n):
                nonzero += check(mixed, idx, m)
    assert nonzero


def test_only_restrict_builds_finite_complexes():
    # every query complex of the package is a restriction of a validated
    # SheafComplex, so it inherits the d*d = 0 checked at build
    class Calls(ast.NodeVisitor):
        def __init__(self):
            self.scope, self.found = ["<module>"], set()

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "FiniteComplex":
                self.found.add((path.stem, self.scope[-1]))
            self.generic_visit(node)

    calls = Calls()
    package = pathlib.Path(sheaf_complex.__file__).parent
    for path in sorted(package.glob("*.py")):
        calls.visit(ast.parse(path.read_text()))
    assert calls.found == {("sheaf_complex", "_restrict")}
