"""The standard-library v1 certificate checker (``certificate_checker``)
on every certificate of the golden corpus and on a seeded set of CLI
certificates, each with its own windows, and against corrupted reports,
each of which must fail one of its rules."""

import ast
import copy
import json
import random
import shlex
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from flagsheaf import pipeline

import certificate_checker
from certificate_checker import check_certificate_report, elementary_space
from test_golden_bytes import CORPUS, GOLDEN, _run


def _payload(command):
    code, out, _ = _run(command)
    assert code == 0
    return json.loads(out)


def _windows(argv):
    """The degree and action windows a certificate argv asks for, the
    CLI's defaults where it names none."""
    opts = dict(zip(argv, argv[1:]))
    dlo, dhi = opts.get("--degree-window", "-40:40").split(":")
    alo, ahi = opts.get("--action-window", "-10:10").split(":")
    return (int(dlo), int(dhi)), (Fraction(alo), Fraction(ahi))


def test_checker_imports_only_the_standard_library():
    # independent of the engine: no flagsheaf, numpy or oracles
    tree = ast.parse(Path(certificate_checker.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            names.add(node.module.split(".")[0])
        assert not (isinstance(node, ast.Name) and node.id == "__import__")
    assert names and names <= sys.stdlib_module_names, names
    assert "importlib" not in names


def test_elementary_space_matches_the_engine():
    for n in (2, 3, 4, 5):
        for subset in pipeline._all_subsets(n):
            want = dict(pipeline.g_space_cached(n, subset).items())
            assert elementary_space(n, subset) == want, (n, subset)


_GOLDEN_CERTIFICATES = [
    c for c in CORPUS
    if c.startswith("pipeline certificate") and "--format" not in c
    and GOLDEN[c].startswith("0 ")
]


@pytest.mark.parametrize("command", _GOLDEN_CERTIFICATES)
def test_golden_certificates_pass_the_checker(command):
    windows = _windows(shlex.split(command))
    assert check_certificate_report(_payload(command), *windows) > 0


def _seeded_queries(seed=24, count=18):
    """CLI certificates at N = 2..4 with unsorted grids that repeat a d,
    one-point grids and narrowed windows."""
    rng = random.Random(seed)
    queries = []
    for k in range(count):
        n = 2 + k % 3
        lam = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        grid = [Fraction(rng.randint(0, 16), rng.randint(1, 4))
                for _ in range(rng.randint(1, 4))]
        if k % 2:
            grid += [grid[0], Fraction(0)]  # a repeat, out of order
        argv = ["pipeline", "certificate", "--n", str(n),
                "--lambda", str(lam), "--d-grid", ",".join(map(str, grid))]
        if k % 3 == 0:
            lo = rng.randint(-40, 0)
            argv += ["--degree-window", f"{lo}:{rng.randint(lo, 40)}"]
        if k % 4 == 0:
            lo = rng.randint(-24, 4)
            argv += ["--action-window", f"{lo}/4:{rng.randint(lo, 24)}/4"]
        queries.append((argv, grid, _windows(argv)))
    return queries


def test_seeded_certificates_pass_the_checker():
    unsorted = 0
    listed = 0
    for argv, grid, windows in _seeded_queries():
        payload = _payload(shlex.join(argv))
        assert payload["d_grid"] == [str(d) for d in sorted(set(grid))]
        unsorted += grid != sorted(set(grid))
        listed += check_certificate_report(payload, *windows)
    assert unsorted >= 9 and listed > 1000


@pytest.fixture(scope="module")
def report():
    """An N = 3 report as parsed JSON: no dict is shared between
    records, so a corruption touches one listing."""
    return _payload("pipeline certificate --n 3 --lambda 3/2")


def _record(payload, key, i, d):
    (rec,) = (r for r in payload[key] if r["i"] == i and r["d"] == d)
    return rec


def _recount(rec):
    rec["graded"] = {}
    for e in rec["elements"]:
        deg = str(e["degree"])
        rec["graded"][deg] = rec["graded"].get(deg, 0) + 1


def _graded_count(payload):
    rec = _record(payload, "h_graded", "2", "1")
    deg = next(iter(rec["graded"]))
    rec["graded"][deg] += 1


def _dropped_term(payload):
    rec = _record(payload, "h_graded", "2", "1/2")
    del rec["elements"][len(rec["elements"]) // 2]
    _recount(rec)


def _term_below_the_cut(payload):
    rec = _record(payload, "h_graded", "", "0")
    top = _record(payload, "h_graded", "", "5")
    rec["elements"].insert(0, top["elements"][0])
    _recount(rec)


def _unconstrained_subset(payload):
    rec = _record(payload, "h_graded", "2", "1")
    rec["elements"] = _record(payload, "h_graded", "", "1")["elements"]
    _recount(rec)


def _later_witness(payload):
    for rec in payload["records"]:
        if rec["i"] == "1,2":
            # the next x_1 of center class 0: l = (x_1, -1) at N = 3
            x1 = int(rec["witness"][0]) + 3
            rec["witness"][0] = str(x1)
            rec["witness_action"] = str(Fraction(2 * x1 - 1, 2))
            rec["witness_degree"] = 4 * x1 - 4


def _full_hom(payload):
    graded = payload["full_hom"]["1/2"]
    graded[next(iter(graded))] += 1


def _printed_action(payload):
    e = _record(payload, "h_graded", "", "2")["elements"][3]
    e["action"] = str(Fraction(e["action"]) + 1)


def _truncated_tails(payload):
    # every listing cut where the smallest d cuts it, with graded and
    # full_hom recomputed: every rule that reads the JSON alone holds
    n, first = payload["params"]["n"], payload["d_grid"][0]
    for rec in payload["h_graded"]:
        rec["elements"] = _record(payload, "h_graded", rec["i"],
                                  first)["elements"]
        _recount(rec)
    for d in payload["d_grid"]:
        total = Counter()
        for rec in payload["h_graded"]:
            if rec["d"] == d:
                subset = tuple(int(j) for j in rec["i"].split(",") if j)
                for a, x in elementary_space(n, subset).items():
                    for b, y in rec["graded"].items():
                        total[str(a + int(b))] += x * y
        payload["full_hom"][d] = dict(total)


def _narrower_action_window(payload):
    # the same query's report with --action-window -5:5, checked
    # against the default windows
    payload.update(_payload("pipeline certificate --n 3 --lambda 3/2"
                            " --action-window -5:5"))


@pytest.mark.parametrize(
    "corrupt",
    [_graded_count, _dropped_term, _term_below_the_cut,
     _unconstrained_subset, _later_witness, _full_hom, _printed_action,
     _truncated_tails, _narrower_action_window],
)
def test_corrupted_reports_fail_the_checker(report, corrupt):
    assert check_certificate_report(report) > 0
    payload = copy.deepcopy(report)
    corrupt(payload)
    with pytest.raises(AssertionError):
        check_certificate_report(payload)
