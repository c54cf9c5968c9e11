"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
Every expected value is exact; tolerances appear only in the
floating-point lemma trials (1e-8) as stated.
"""

import contextlib
import io
import itertools
import json
import random
import time
from fractions import Fraction as Q

from flagsheaf.cli import _json_text, main
from flagsheaf.flag_schubert import (
    all_flag_types,
    betti,
    cell_count,
    verify_free_decomposition,
)
from flagsheaf.graded import GradedDims, poincare_in_q
from flagsheaf.pipeline import (
    OrbitParams,
    certificate,
    crosscheck_stalks,
    model_jump,
    sample_c_minus_interior,
    structure_map_nonzero,
    _all_subsets,
)
from flagsheaf.root_system import (
    CenterClass,
    cartan,
    center_class,
    d_degree,
    dominance_ll,
    e_vec,
    i_set,
    in_c_minus,
    pair_e,
    zero,
)
from flagsheaf.sheaf_complex import (
    SheafComplex,
    SheafGenerator,
    UMinusOpen,
    build_standard_complex,
    jump_complex,
    stalk_complex,
)
from flagsheaf.lie_numerics import run_trials

from certificate_checker import check_certificate_report, gaussian_multinomial


def _report(number, name, started):
    print(f"ACCEPTANCE {number} PASS  {name}  ({time.time() - started:.1f}s)")


def test_acceptance_1_flag_betti_oracle():
    started = time.time()
    for n in range(2, 7):
        for ft in all_flag_types(n):
            table = poincare_in_q(betti(ft))
            oracle = gaussian_multinomial(n, ft.block_sizes())
            assert [table[d] for d in range(len(oracle))] == oracle
            assert table.total() == cell_count(ft)
    _report(1, "flag Betti tables equal Gaussian multinomials (N <= 6)",
            started)


def test_acceptance_2_free_decomposition():
    started = time.time()
    for n in range(2, 6):
        for ft in all_flag_types(n):
            report = verify_free_decomposition(ft)
            assert report.ok, (ft.indices, report.first_mismatch)
    _report(2, "elementary refinement decomposition is bijective (N <= 5)",
            started)


def test_acceptance_3_y_acyclicity():
    started = time.time()
    radius = 3
    for n in (2, 3, 4):
        rng = random.Random(100 + n)
        points = [
            sample_c_minus_interior(n, rng, depth=Q(5, 2))
            for _ in range(50)
        ]
        for combo in itertools.product(
            range(-radius, radius + 1), repeat=n - 1
        ):
            l = cartan(n, combo)
            sub = build_standard_complex(n, tuple((c, c) for c in combo))
            zc = center_class(l)
            lower = in_c_minus(l)
            probes = list(points)
            if lower:
                # a guaranteed interior point of the lower set of l
                inward = sum(
                    (e_vec(n, k).scale(Q(1, 3)) for k in range(1, n)),
                    start=zero(n),
                )
                probes.append(l - inward)
            for p in probes:
                h = stalk_complex(sub, zc, p).cohomology()
                if not lower:
                    assert h.is_zero(), (combo, p.coords)
                elif dominance_ll(p, l):
                    assert h == GradedDims({-d_degree(l): 1})
                else:
                    assert h.is_zero()
    _report(3, "windowed complex is acyclic off the lower lattice "
               "(N in {2,3,4}, radius 3, 50 points)", started)


def test_acceptance_4_central_crosscheck():
    started = time.time()
    for n in (2, 3, 4):
        for z in range(n):
            report = crosscheck_stalks(
                n, CenterClass(n, z), 100, seed=1000 * n + z
            )
            assert report.compared == 100
            assert not report.mismatches, report.mismatches[:3]
    _report(4, "cone model stalks match the flag direct sum "
               "(N in {2,3,4}, all centers, 100 samples)", started)


def test_acceptance_5_jump_functor():
    started = time.time()
    for n in (2, 3, 4):
        chamber = [
            cartan(n, combo)
            for combo in itertools.product(range(-3, 1), repeat=n - 1)
        ]
        for x in chamber:
            idx = i_set(x)
            for y in chamber:
                gen = SheafGenerator(
                    UMinusOpen(y), center_class(y), -d_degree(y)
                )
                single = SheafComplex(n, [gen], [])
                got = jump_complex(single, idx, x).cohomology()
                # one line iff <y - x, e_k> = 0 on I and >= 0 off I
                on_line = all(
                    pair_e(y - x, k) == 0 if k in idx
                    else pair_e(y - x, k) >= 0
                    for k in range(1, n)
                )
                if on_line:
                    assert got == GradedDims({-d_degree(y): 1}), (
                        x.coords, y.coords,
                    )
                else:
                    assert got.is_zero(), (x.coords, y.coords)
    for n in (2, 3, 4):
        for subset in _all_subsets(n):
            got = model_jump(n, CenterClass(n, 0), subset, zero(n))
            from flagsheaf.flag_schubert import FlagType

            assert got == betti(FlagType(n, subset)), subset
    _report(5, "jump functor: both lower-set branches exhaustively and "
               "flag cohomology at the origin (N <= 4)", started)


def test_acceptance_6_certificate():
    started = time.time()
    grid = (Q(0), Q(1, 2), Q(1), Q(2), Q(5))
    for n in (2, 3, 4):
        for lam in (Q(1), Q(3, 2)):
            params = OrbitParams(n, lam)
            payload = certificate(params, grid).to_json()
            assert payload["verdict"] is True
            assert check_certificate_report(json.loads(_json_text(payload)))
            for subset in _all_subsets(n):
                for d in grid:
                    res = structure_map_nonzero(params, subset, d)
                    assert res.to_json()["structure_map_nonzero"] is True
                    assert res.witness is not None
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["pipeline", "certificate", "--n", "4", "--lambda",
                     "3/2"])
    assert code == 0
    payload = json.loads(buf.getvalue())
    assert payload["verdict"] is True
    assert check_certificate_report(payload)
    _report(6, "non-vanishing certificate with explicit witnesses "
               "(N in {2,3,4}, lambda in {1, 3/2})", started)


def test_acceptance_7_numeric_lemmas():
    started = time.time()
    per_rank = 200
    totals = {}
    for n in (2, 3, 4, 5, 6):
        for stat in run_trials(n, per_rank, seed=10 + n):
            agg = totals.setdefault(stat.name, [0, 0, 0.0])
            agg[0] += stat.trials
            agg[1] += stat.failures
            agg[2] = max(agg[2], stat.max_residual)
    for name, (trials, failures, worst) in totals.items():
        assert trials == 1000, name
        assert failures == 0, name
        assert worst <= 1e-8, (name, worst)
    _report(7, "matrix lemma trials: 1000 each, zero failures, "
               "residuals <= 1e-8 (N <= 6)", started)


def test_acceptance_8_reproducibility():
    started = time.time()
    for args in (
        ["pipeline", "certificate", "--n", "3", "--lambda", "3/2"],
        ["pipeline", "crosscheck", "--n", "3", "--samples", "25",
         "--seed", "9"],
        ["numerics", "--n", "4", "--trials", "25", "--seed", "2"],
    ):
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(list(args))
            assert code == 0
            outs.append(buf.getvalue())
        assert outs[0] == outs[1] and outs[0], args
    _report(8, "identical config and seed give byte-identical JSON",
            started)
