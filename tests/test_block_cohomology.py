"""The closed-form block sums (``sheaf_complex.block_cohomology``) against
the engine they replace on every production path: the cone model built
as a ``SheafComplex``, restricted by ``stalk_complex``,
``sections_complex`` or ``jump_complex``, and reduced by
``FiniteComplex.cohomology``.  Seeded, never skipped."""

import ast
import contextlib
import io
import itertools
import json
import pathlib
from fractions import Fraction as Q

import numpy as np
import pytest

from flagsheaf import cli, pipeline, sheaf_complex
from flagsheaf.pipeline import (
    build_cone_model,
    cone_table,
    crosscheck_stalks,
    jump_required_box,
    model_jump,
    required_stalk_box,
    sample_c_minus_interior,
)
from flagsheaf.root_system import (
    CenterClass,
    cartan,
    center_class,
    lattice_center,
    scaled_profile,
    zero,
)
from flagsheaf.sheaf_complex import (
    FiniteComplex,
    SheafComplex,
    UMinusOpen,
    UOpen,
    apex_table,
    block_cohomology,
    build_standard_complex,
    jump_complex,
    lattice_points,
    sections_bound,
    sections_complex,
    stalk_bound,
    stalk_complex,
)

from oracles import class_points, filtered_class_points, window_points


def _subsets(n):
    return [c for r in range(n) for c in itertools.combinations(range(1, n), r)]


@pytest.mark.parametrize("n", (2, 3, 4))
def test_stalks_match_the_engine(n):
    # the points and windows of acceptance 4: 100 per center class, drawn
    # and windowed as crosscheck_stalks draws and windows them
    nonzero = 0
    for r in range(n):
        z = CenterClass(n, r)
        rng = np.random.default_rng(1000 * n + r)
        points = [sample_c_minus_interior(n, rng) for _ in range(100)]
        boxes = [required_stalk_box(p) for p in points]
        window = tuple(
            (min(b[j][0] for b in boxes), 0) for j in range(n - 1)
        )
        table = cone_table(n, z, window)
        model = build_cone_model(n, z, window)
        for p in points:
            got = block_cohomology(table, stalk_bound(n, p))
            assert got == stalk_complex(model, z, p).cohomology(), p.coords
            nonzero += not got.is_zero()
    assert nonzero


def _jump_queries():
    """(m, z) of acceptance 5 (the origin, class 0, N = 2, 3, 4) and of
    the cone-model grid of ``test_jump_is_the_corner_total_complex``:
    apexes in [-3, 1]^(N-1) at N = 2, 3 in their own and the next class,
    and five seeded rational m per N = 2, 3, 4, drawn as that test draws
    them."""
    queries = [(zero(n), CenterClass(n, 0)) for n in (2, 3, 4)]
    for n in (2, 3):
        for c in itertools.product(range(-3, 2), repeat=n - 1):
            m = cartan(n, c)
            own = center_class(m).residue
            queries += [(m, CenterClass(n, own + k)) for k in (0, 1)]
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        for _ in range(5):
            d = int(rng.integers(2, 4))
            c = [Q(int(rng.integers(-3 * d, d + 1)), d) for _ in range(n - 1)]
            z = CenterClass(n, int(rng.integers(n)))
            queries.append((cartan(n, c), z))
    return queries


def test_model_jump_matches_the_engine():
    nonzero = 0
    for m, z in _jump_queries():
        n = m.n
        window, profile_box = jump_required_box(n, m)
        model = build_cone_model(n, z, window, profile_box)
        for idx in _subsets(n):
            got = model_jump(n, z, idx, m)
            want = jump_complex(model, idx, m).cohomology()
            assert got == want, (idx, m.coords, z.residue)
            nonzero += not got.is_zero()
    assert nonzero


def _section_probes(n, points, cones):
    """The x of ``test_chamber_sections_match_fourier_motzkin``, drawn
    with its seed and in its order (at N = 4 it samples its cones
    first)."""
    rng = np.random.default_rng(20 + n)
    if cones is not None:
        rng.choice(4 ** (n - 1) * 2 ** (n - 1), cones, replace=False)
    xs = [cartan(n, (1,) + (-2,) * (n - 2)), cartan(n, (-1,) * (n - 1))]
    for _ in range(points):
        d = int(rng.integers(1, 5))
        xs.append(cartan(n, [Q(int(rng.integers(-3 * d, 2 * d + 1)), d)
                             for _ in range(n - 1)]))
    return xs


@pytest.mark.parametrize(
    "n, points, cones", [(2, 60, None), (3, 80, None), (4, 16, 192)]
)
def test_sections_match_the_engine(n, points, cones):
    # both section domains over the standard complex on [-2, 1]^(N-1)
    window = ((-2, 1),) * (n - 1)
    model = build_standard_complex(n, window)
    tables = [apex_table(n, CenterClass(n, r), window) for r in range(n)]
    seen = set()
    for x in _section_probes(n, points, cones):
        for u in (UOpen(x), UMinusOpen(x)):
            for r, table in enumerate(tables):
                got = block_cohomology(table, sections_bound(n, u))
                want = sections_complex(model, CenterClass(n, r), u)
                assert got == want.cohomology(), (u, r)
                seen.add(got.is_zero())
    assert seen == {True, False}


def test_apex_walk_is_the_class_filtered_window():
    # the class walk steps the last coordinate through one residue class
    # and keeps the lexicographic order of the filtered box
    for n, window in (
        (2, ((-5, 3),)), (3, ((-3, 1), (-4, 0))), (4, ((-2, 1),) * 3),
        (5, ((-1, 1), (0, 2), (-2, 0), (-3, 1))), (4, ((0, 0), (1, 1), (-1, 0))),
    ):
        box = list(window_points(n, window))
        for r in range(n):
            want = [c for c in box if lattice_center(n, c) == r]
            assert list(class_points(n, r, window)) == want
            rows = apex_table(n, CenterClass(n, r), window).rows
            assert [row.combo for row in rows] == want
        assert list(class_points(n, None, window)) == box


def _walk_cases(n, rng):
    """Seeded (window, profile box) pairs at rank n: random windows and
    degenerate ones (a point, a coordinate fixed), each with the window's
    own profile range, random sub-boxes, boxes pinned to the profile of
    a window point on random coordinates, and empty boxes."""
    def window():
        lo = rng.integers(-4, 2, size=n - 1)
        return tuple(
            (int(a), int(a + rng.integers(0, 5))) for a in lo
        )

    point = tuple((int(a), int(a)) for a in rng.integers(-2, 2, size=n - 1))
    fixed = list(window())
    fixed[int(rng.integers(n - 1))] = (0, 0)
    windows = [window() for _ in range(4)] + [point, tuple(fixed)]
    for win in windows:
        full = tuple(zip(*(scaled_profile(n, c) for c in zip(*win))))
        boxes = [full]
        for _ in range(3):
            box = []
            for lo, hi in full:
                a, b = sorted(int(v) for v in rng.integers(lo - 2, hi + 3, 2))
                box.append((a, b))
            boxes.append(tuple(box))
        pts = list(window_points(n, win))
        for _ in range(3):
            m = pts[int(rng.integers(len(pts)))]
            prof = scaled_profile(n, m)
            pins = rng.random(n - 1) < 0.5
            boxes.append(tuple(
                (c, c) if pin else span
                for c, pin, span in zip(prof, pins, full)
            ))
        k = int(rng.integers(n - 1))
        boxes.append(full[:k] + ((1, 0),) + full[k + 1:])
        boxes.append(full[:k] + ((full[k][1] + 1, full[k][1] + 9),)
                     + full[k + 1:])
        yield from ((win, box) for box in boxes)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_lattice_walk_is_the_filtered_box(n):
    # the triangular walk yields exactly the rows of the class walk plus
    # profile filter, in the same order, for every residue and None
    rng = np.random.default_rng(160 + n)
    kept = 0
    for window, box in _walk_cases(n, rng):
        for residue in (None, *range(n)):
            want = filtered_class_points(n, residue, window, box)
            assert lattice_points(n, residue, window, box) == want, (
                window, box, residue,
            )
            kept += len(want)
    assert kept
    for bad, message in (
        (((0, 1),) * n, "coordinate ranges"),
        (((0, 1),) * (n - 2) + ((1, 0),), "empty window"),
    ):
        for walk in (window_points, lambda n, w: lattice_points(
            n, 0, w, ((0, 0),) * (n - 1)
        )):
            with pytest.raises(ValueError, match=message):
                walk(n, bad)


def test_one_lattice_walk():
    # every lattice walk of src/ is triangular: lattice_points, and the
    # Novikov term list over its simplex of tails (module_terms).  No box
    # walk by itertools.product in sheaf_complex or pipeline, and no src/
    # path names the replaced walks
    package = pathlib.Path(sheaf_complex.__file__).parent
    products, named = set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            name = getattr(node, "id", getattr(node, "attr", None))
            if isinstance(node, (ast.alias, ast.FunctionDef)):
                name = node.name
            if name in ("class_points", "window_points"):
                named.add(path.stem)
        if path.stem not in ("sheaf_complex", "pipeline"):
            continue
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                products.update(
                    (path.stem, func.name) for node in ast.walk(func)
                    if getattr(node, "id", getattr(node, "attr", None))
                    == "product"
                )
    assert products == set()
    assert not named


def _refuse(*args, **kwargs):
    raise AssertionError("a production path built a complex")


def test_no_production_path_builds_a_model(monkeypatch, capsys):
    for owner in (sheaf_complex, pipeline):
        monkeypatch.setattr(owner, "cone_complex", _refuse)
    monkeypatch.setattr(SheafComplex, "__init__", _refuse)
    monkeypatch.setattr(FiniteComplex, "__init__", _refuse)

    report = crosscheck_stalks(3, CenterClass(3, 1), 6, seed=2)
    assert report.ok and report.compared == 6
    assert model_jump(3, CenterClass(3, 0), (1, 2), zero(3)).to_json() == {
        "0": 1, "2": 2, "4": 2, "6": 1,
    }
    cases = [
        ("sheaf stalk --n 2 --z 0 --point -5/2",
         "stalk", {"-4": 1, "-2": 1, "0": 1}),
        ("sheaf stalk --n 3 --z 1 --point -3/4,-5/4",
         "stalk", {"-4": 1, "-2": 1, "0": 1}),
        ("sheaf sections --n 3 --z 0 --point 3/2,1 --window -3:1",
         "sections", {"10": 1}),
        ("sheaf sections --n 3 --z 0 --point 3/2,1 --window -3:1 "
         "--u-kind uminus", "sections", {"0": 1}),
        ("sheaf sections --n 3 --z 1 --point 1,-5/2 --window -3:1 "
         "--u-kind uminus", "sections", {"-8": 1, "-4": 1}),
        ("sheaf delta --n 3 --i 1,2 --m 0,0",
         "delta", {"0": 1, "2": 2, "4": 2, "6": 1}),
        ("sheaf delta --n 3 --i 1 --m -1,-1",
         "delta", {"-8": 1, "-6": 2, "-4": 2, "-2": 1}),
        ("pipeline crosscheck --n 3 --samples 5 --seed 7", "ok", True),
    ]
    for argv, key, want in cases:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv.split())
        assert code == 0, argv
        assert json.loads(out.getvalue())[key] == want, argv
    assert capsys.readouterr().err == ""
