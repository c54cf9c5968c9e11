"""The closed-form block sums (``sheaf_complex.block_cohomology``) against
the engine they replace on every production path: the cone model built
as a ``SheafComplex``, restricted by ``stalk_complex``,
``sections_complex`` or ``jump_complex``, and reduced by
``FiniteComplex.cohomology``.  Seeded, never skipped."""

import ast
import contextlib
import dataclasses
import io
import itertools
import json
import pathlib
import random
from fractions import Fraction as Q

import numpy as np
import pytest

from flagsheaf import cli, pipeline, sheaf_complex
from flagsheaf.flag_schubert import FlagType, betti
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
    jump_bound,
    jump_complex,
    lattice_points,
    sections_bound,
    sections_complex,
    stalk_bound,
    stalk_complex,
    walk_cohomology,
)

from oracles import (
    class_points,
    filtered_class_points,
    scan_block_cohomology,
    scan_kept_rows,
    window_points,
)


def _subsets(n):
    return [c for r in range(n) for c in itertools.combinations(range(1, n), r)]


def _acceptance_4_windows(n):
    """(z, window, points) of acceptance 4: 100 points per center class,
    drawn and windowed as ``crosscheck_stalks`` draws and windows them."""
    for r in range(n):
        rng = random.Random(1000 * n + r)
        points = [sample_c_minus_interior(n, rng) for _ in range(100)]
        boxes = [required_stalk_box(p) for p in points]
        window = tuple(
            (min(b[j][0] for b in boxes), 0) for j in range(n - 1)
        )
        yield CenterClass(n, r), window, points


@pytest.mark.parametrize("n", (2, 3, 4))
def test_stalks_match_the_engine(n):
    nonzero = 0
    for z, window, points in _acceptance_4_windows(n):
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


def test_jump_profile_box_is_a_pure_optimisation():
    # both jump oracles are built inside the profile box the engine
    # walks, so this half of the margin is checked on its own: the walk
    # with the box and without it gives every jump of _jump_queries
    nonzero = 0
    for m, z in _jump_queries():
        n = m.n
        window, profile_box = jump_required_box(n, m)
        masks = pipeline.cone_blocks(n)[1]
        for idx in _subsets(n):
            bound, exact = jump_bound(n, idx, m)
            got = walk_cohomology(n, z, window, bound, exact, masks,
                                  profile_box)
            want = walk_cohomology(n, z, window, bound, exact, masks)
            assert got == want, (idx, m.coords, z.residue)
            nonzero += not got.is_zero()
    assert nonzero


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


def test_rows_match_subsets_without_block_sums(monkeypatch):
    # apex_table builds no GradedDims (no per-row or per-sign-pattern
    # sums), and block_cohomology builds exactly one per call, on a cone
    # table and on a standard table, both with zero coordinates
    n, window = 4, ((-2, 1),) * 3
    mults = {s: pipeline.g_space_cached(n, s) for s in _subsets(n)}
    bounds = [stalk_bound(n, cartan(n, c)) for c in (
        (Q(-1, 2), Q(-3, 2), Q(-1, 3)), (Q(-5, 4), Q(-2), Q(-3, 2)),
    )] + [sections_bound(n, UOpen(cartan(n, c))) for c in (
        (Q(1, 2), 0, Q(-1)), (0, Q(3, 2), Q(1, 4)),
    )]
    built = []
    init = sheaf_complex.GradedDims.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(sheaf_complex.GradedDims, "__init__", counted)
    tables = [apex_table(n, CenterClass(n, 1), window, mults),
              apex_table(n, None, window)]
    assert built == []
    nonzero = 0
    for table in tables:
        assert any(0 in row.combo for row in table.rows)
        for bound in bounds:
            got = block_cohomology(table, bound)
            assert built == [got]
            built.clear()
            nonzero += not got.is_zero()
    assert nonzero == 5


def test_bound_of_the_wrong_length_is_refused():
    # zip would cut a short bound, and (-2,) on an N = 4 table would read
    # as a full bound, on the index and on the walk; an exact index
    # outside 1..N-1 is refused by the walk, the one reader of exact
    z, window = CenterClass(4, 0), ((-2, 1),) * 3
    table = cone_table(4, z, window)
    masks = pipeline.cone_blocks(4)[1]
    assert not block_cohomology(table, (-2, -2, -2)).is_zero()
    walked = walk_cohomology(4, z, window, (-2, -2, -2), masks=masks)
    assert not walked.is_zero()
    for bound in ((-2,), (-2, -2), (-2, -2, -2, -2)):
        with pytest.raises(ValueError, match="bound needs 3 entries"):
            block_cohomology(table, bound)
        with pytest.raises(ValueError, match="bound needs 3 entries"):
            walk_cohomology(4, z, window, bound, masks=masks)
    for exact in ((0,), (4,), (1, 4)):
        with pytest.raises(ValueError, match="bound needs 3 entries"):
            walk_cohomology(4, z, window, (0, 0, 0), frozenset(exact), masks)


def _scan_cases(n, rows, rng):
    """(bound, exact) pairs for the tables of one window: stalks,
    sections over both lower sets and jumps at random rational points
    (jump bounds that are not integers on I included), jumps at the
    window's own apexes, and bounds below and above every profile."""
    subsets = _subsets(n)

    def point():
        d = int(rng.integers(1, 5))
        return cartan(n, [Q(int(rng.integers(-3 * d, 2 * d + 1)), d)
                          for _ in range(n - 1)])

    cases = []
    for _ in range(4):
        p = point()
        cases.append((stalk_bound(n, p), frozenset()))
        cases += [(sections_bound(n, u), frozenset())
                  for u in (UOpen(p), UMinusOpen(p))]
        cases.append(jump_bound(n, subsets[rng.integers(len(subsets))], p))
    for _ in range(4):
        m = cartan(n, rows[int(rng.integers(len(rows)))].combo)
        cases.append(jump_bound(n, subsets[rng.integers(len(subsets))], m))
    low = [min(col) - 1 for col in zip(*(row.profile for row in rows))]
    high = [max(col) + 1 for col in zip(*(row.profile for row in rows))]
    for bound in (low, high):
        cases += [(bound, frozenset()), (bound, frozenset({n - 1}))]
    return cases


def _scan_windows(n):
    """(window, cases) at rank n: three seeded windows that straddle 0,
    each with its ``_scan_cases``."""
    rng = np.random.default_rng(270 + n)
    widths = 1 if n == 5 else 2
    for _ in range(3):
        lows = rng.integers(-widths - 1, 0, size=n - 1)
        highs = rng.integers(1, widths + 1, size=n - 1)
        window = tuple((int(a), int(b)) for a, b in zip(lows, highs))
        yield window, _scan_cases(n, apex_table(n, None, window).rows, rng)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_index_matches_the_row_scan(n):
    # the column index against the scan of every row, on windows that
    # straddle 0, for every center class and None, on the cone model's
    # blocks and on the standard single block, for every case without an
    # exact index (the bounds the index serves)
    seen = {"nonzero": 0, "positive": 0, "kept": 0}
    for window, cases in _scan_windows(n):
        for z in (None, *(CenterClass(n, r) for r in range(n))):
            for table in (apex_table(n, z, window), cone_table(n, z, window)):
                for bound, exact in cases:
                    if exact:
                        continue
                    got = block_cohomology(table, bound)
                    assert got == scan_block_cohomology(table, bound), (
                        window, z, bound,
                    )
                    kept = scan_kept_rows(table, bound)
                    seen["nonzero"] += not got.is_zero()
                    seen["kept"] += len(kept)
                    seen["positive"] += any(
                        x > 0 for _, row, *_ in kept for x in row.combo
                    )
    assert all(seen.values()), seen


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_pruned_walk_yields_the_kept_rows(n):
    # on the cases of the index test, exact ones included: the
    # lemma-pruned walk yields the rows the row scan keeps, in table
    # order, and its block sums equal the scan's on the cone model and
    # on the standard complex
    seen = {"kept": 0, "empty": 0, "fraction": 0, "nonzero": 0}
    for window, cases in _scan_windows(n):
        for z in (None, *(CenterClass(n, r) for r in range(n))):
            residue = None if z is None else z.residue
            cone, plain = cone_table(n, z, window), apex_table(n, z, window)
            for bound, exact in cases:
                kept = scan_kept_rows(cone, bound, exact)
                want = [tuple(row) for _, row, *_ in kept]
                got = lattice_points(n, residue, window, None, bound, exact)
                assert got == want, (window, z, bound, exact)
                for dims, table in (
                    (walk_cohomology(n, z, window, bound, exact, cone.masks),
                     cone),
                    (walk_cohomology(n, z, window, bound, exact), plain),
                ):
                    assert dims == scan_block_cohomology(table, bound, exact)
                    seen["nonzero"] += not dims.is_zero()
                seen["kept"] += len(want)
                seen["empty"] += not want
                seen["fraction"] += any(
                    Q(bound[k - 1]).denominator > 1 for k in exact
                )
    assert all(seen.values()), seen


def _pinned_table_jump(n, z, indices, m):
    """The jump at (I, m) read off the cone table of its required window
    by the scan of every row, which pins P_k = M_k on I itself: no
    profile box and no lemma-pruned walk."""
    window, _ = jump_required_box(n, m)
    bound, exact = jump_bound(n, indices, m)
    return scan_block_cohomology(cone_table(n, z, window), bound, exact)


def test_walked_jump_matches_the_pinned_table():
    # acceptance 5's apex box [-3, 0]^2 at N = 3 in its own and the next
    # class, the origin at N = 2, 3, 4, every I; and a non-lattice m,
    # whose jump is empty for every nonempty I
    queries = [(zero(n), CenterClass(n, 0)) for n in (2, 3, 4)]
    for c in itertools.product(range(-3, 1), repeat=2):
        own = lattice_center(3, c)
        queries += [(cartan(3, c), CenterClass(3, own + k)) for k in (0, 1)]
    nonzero = 0
    for m, z in queries:
        for idx in _subsets(m.n):
            got = model_jump(m.n, z, idx, m)
            assert got == _pinned_table_jump(m.n, z, idx, m), (idx, m, z)
            nonzero += not got.is_zero()
    assert nonzero
    m = cartan(3, (Q(-1, 2), Q(-1, 2)))  # N<m, e_k> = -3/2, -3/2
    for r in range(3):
        for idx in _subsets(3)[1:]:
            got = model_jump(3, CenterClass(3, r), idx, m)
            assert got.is_zero()
            assert got == _pinned_table_jump(3, CenterClass(3, r), idx, m)


class _ReadLog(tuple):
    """Rows that log the index of every row read, and refuse a walk."""

    def __getitem__(self, i):
        self.read.append(i)
        return tuple.__getitem__(self, i)

    def __iter__(self):
        raise AssertionError("a stalk query walked every row")


def test_stalk_queries_read_only_the_rows_they_keep():
    # on the acceptance-4 tables at N = 4, a stalk query reads the rows
    # the row scan keeps, each once, and no other
    n = 4
    read = total = 0
    for z, window, points in _acceptance_4_windows(n):
        table = cone_table(n, z, window)
        rows = _ReadLog(table.rows)
        logged = dataclasses.replace(table, rows=rows)
        for p in points:
            bound = stalk_bound(n, p)
            rows.read = []
            got = block_cohomology(logged, bound)
            kept = [i for i, *_ in scan_kept_rows(table, bound)]
            assert sorted(rows.read) == kept, p.coords
            assert got == scan_block_cohomology(table, bound)
            read += len(kept)
            total += len(table.rows)
    assert 0 < 10 * read < total, (read, total)


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


def _imports(node, in_function=False):
    """(imported module names, inside a function body) for every import
    statement under ``node``; relative imports read as flagsheaf.*."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield [alias.name for alias in child.names], in_function
        elif isinstance(child, ast.ImportFrom) and child.level:
            yield ([f"flagsheaf.{child.module}"] if child.module else [
                f"flagsheaf.{alias.name}" for alias in child.names
            ]), in_function
        elif isinstance(child, ast.ImportFrom):  # from flagsheaf import x
            yield [child.module] + [f"{child.module}.{alias.name}"
                                    for alias in child.names], in_function
        yield from _imports(child, in_function or isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def _module_tree(stem):
    package = pathlib.Path(sheaf_complex.__file__).parent
    return ast.parse((package / f"{stem}.py").read_text())


def test_exact_engine_imports_neither_numpy_nor_numerics():
    # the exact engine stays on ints and Fractions: these modules import
    # numpy nowhere, lie_numerics nowhere, and of the package only each
    # other (and pipeline the package's __version__), so the guard covers
    # what they import in turn
    pure = {"sheaf_complex", "root_system", "graded", "flag_schubert",
            "linalg", "pipeline"}
    for stem in sorted(pure):
        for names, _ in _imports(_module_tree(stem)):
            for name in names:
                top, _, sub = name.partition(".")
                assert top != "numpy", (stem, name)
                if top == "flagsheaf":
                    module = sub.partition(".")[0]
                    assert module in pure or (stem, module) == (
                        "pipeline", "__version__"
                    ), (stem, name)


def test_cli_loads_numerics_only_inside_a_function():
    # cli imports numpy nowhere and lie_numerics only in a function body
    # (today run_trials), so every command but numerics starts without
    # numpy
    deferred = []
    for names, in_function in _imports(_module_tree("cli")):
        for name in names:
            assert name.partition(".")[0] != "numpy", name
            if name == "flagsheaf.lie_numerics":
                assert in_function, name
                deferred.append(name)
    assert deferred == ["flagsheaf.lie_numerics"]


def _refuse(*args, **kwargs):
    raise AssertionError("a production path built a complex")


def _refuse_table(*args, **kwargs):
    raise AssertionError("a one-shot query built an apex table")


def test_one_shot_queries_build_no_table(monkeypatch):
    # model_jump on acceptance 5's queries and the golden sheaf commands
    # print the same bytes and exit codes with every table build refused,
    # and the built-complex oracles still build from their walks
    from test_golden_bytes import CORPUS, GOLDEN, STDERR, _digest

    for owner in (sheaf_complex, pipeline):
        monkeypatch.setattr(owner, "apex_table", _refuse_table)
    monkeypatch.setattr(sheaf_complex.ApexTable, "__init__", _refuse_table)
    for n in (2, 3, 4):
        for subset in _subsets(n):
            got = model_jump(n, CenterClass(n, 0), subset, zero(n))
            assert got == betti(FlagType(n, subset)), subset
    m = cartan(3, (-1, -2))
    window, profile_box = jump_required_box(3, m)
    for model in (
        build_cone_model(3, CenterClass(3, 1), ((-2, 0),) * 2),
        build_cone_model(3, center_class(m), window, profile_box),
        build_standard_complex(3, ((-2, 1),) * 2),
    ):
        assert model.generators and model.entries
    commands = [c for c in CORPUS if c.startswith(
        ("sheaf stalk", "sheaf sections", "sheaf delta")
    )]
    assert len(commands) == 7
    for command in commands:
        assert _digest(command) == (GOLDEN[command], STDERR.get(command, ""))


def test_only_crosscheck_reads_the_index():
    # the apex table and its column index serve crosscheck's batches of
    # stalks alone: crosscheck_stalks is the one caller in src/ of
    # block_cohomology and cone_table, and cone_table of apex_table
    class Calls(ast.NodeVisitor):
        def __init__(self, stem):
            self.stem, self.scope = stem, ["<module>"]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in callers:
                callers[name].add((self.stem, self.scope[-1]))
            self.generic_visit(node)

    callers = {"block_cohomology": set(), "cone_table": set(),
               "apex_table": set()}
    package = pathlib.Path(sheaf_complex.__file__).parent
    for path in sorted(package.glob("*.py")):
        Calls(path.stem).visit(ast.parse(path.read_text()))
    crosscheck = {("pipeline", "crosscheck_stalks")}
    assert callers == {"block_cohomology": crosscheck,
                       "cone_table": crosscheck,
                       "apex_table": {("pipeline", "cone_table")}}


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
