#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at small size.

    python3 perfbench/selftest.py

Checks, from the root of a checkout:

1. a deliberately corrupted program result makes the oracle fail the op
   (``failed`` > 0), on every workload, and the same tasks pass clean;
2. two traced runs on one seed report identical counts (every per-layer
   metric that is not a time), and the counts expose the profile they
   are meant to (module-split zeros, ``module_terms`` reuse);
3. the end-to-end metric names printed are exactly those in
   BENCHMARK.json;
4. in a directory holding only BENCHMARK.json and the benchmark, the
   benchmark exits non-zero without printing a result.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from flagsheaf import lie_numerics, pipeline  # noqa: E402
from flagsheaf.graded import GradedDims  # noqa: E402

SEED = 7
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_tasks(tasks) -> int:
    tracer = Tracer()
    return sum(
        not op.ok for task in tasks for op in task(tracer, lambda: None).ops
    )


def _patched(owner, name, make):
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    return lambda: setattr(owner, name, original)


def _drop_last_term(module_terms):
    """A module_terms that loses its last term but stays self-consistent."""

    def dropped(*args, **kwargs):
        rec = module_terms(*args, **kwargs)
        kept = rec.elements[:-1]
        return dataclasses.replace(
            rec, elements=kept, graded=GradedDims((e.degree, 1) for e in kept)
        )

    return dropped


# (workload, what is corrupted, owner, attribute, wrapper factory)
CORRUPTIONS = [
    # every stalk of the direct-sum side moves up one degree
    ("crosscheck", "shifted stalk", pipeline, "stalk_flag_sum",
     lambda f: lambda *a, **k: f(*a, **k).shifted(1)),
    ("jump", "shifted jump", pipeline, "model_jump",
     lambda f: lambda *a, **k: f(*a, **k).shifted(2)),
    # every action the Novikov path reports is off by one
    ("certificate", "action", pipeline, "action_of",
     lambda f: lambda *a, **k: f(*a, **k) + 1),
    ("certificate", "missing term", pipeline, "module_terms",
     _drop_last_term),
    ("numerics", "residual", lie_numerics, "run_trials",
     lambda f: lambda n, t, s: f(n, t, s, corrupt=True)),
]


def check_corruption() -> None:
    for name, label, owner, attr, make in CORRUPTIONS:
        tasks = workloads.ROUNDS[name](SEED, 0)[:3]
        assert _run_tasks(tasks) == 0, f"{name}: clean tasks failed"
        restore = _patched(owner, attr, make)
        try:
            failed = _run_tasks(workloads.ROUNDS[name](SEED, 0)[:3])
        finally:
            restore()
        assert failed > 0, f"{name}: corrupted {label} passed its oracle"
        print(f"ok  {name}: corrupted {label} fails {failed} op(s)")


def check_module_terms_reuse() -> None:
    tracer = Tracer()
    layers.install(tracer)
    tracer.active = True
    try:
        argv = ["pipeline", "certificate", "--n", "4", "--lambda", "3"]
        task = workloads._cert_query(argv, None, lambda p: True)
        tracer.request += 1
        task(tracer, lambda: None)
    finally:
        tracer.active = False
        tracer.uninstall()
    ratio = layers.DERIVED["pipeline.module_terms.useful_ratio"](tracer.stats)
    assert ratio == 8 / 40, ratio
    print("ok  module_terms useful_ratio of one N=4 certificate is 8/40")


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def check_traced_counts() -> None:
    for name in run.WORKLOADS:
        args = ["--workload", name, "--seed", str(SEED), "--trace", "1",
                "--rounds", "1"]
        first, second = _result(_bench(*args)), _result(_bench(*args))
        assert first["correct"] and first["failed"] == 0
        metrics = {k: v["value"] for k, v in first["metrics"].items()}
        for key, value in metrics.items():
            if first["metrics"][key]["unit"] == "s":
                continue
            again = second["metrics"][key]["value"]
            assert value == again, f"{name}: {key} {value} != {again}"
        by_layer = lambda prefix: sum(  # noqa: E731
            v for k, v in metrics.items()
            if k.startswith(prefix) and first["metrics"][k]["unit"] == "count"
        )
        if name == "crosscheck":
            assert metrics["linalg.rank_triplets.calls"] > 0
            assert by_layer("lie_numerics.") == 0
        if name == "numerics":
            assert by_layer("sheaf_complex.") == 0
            assert by_layer("linalg.") == 0
        if name == "certificate":
            assert by_layer("sheaf_complex.") == 0
            assert by_layer("linalg.") == 0
        print(f"ok  {name}: traced counts repeat exactly on seed {SEED}")


def check_end_to_end_names() -> None:
    proc = _bench("--workload", "numerics", "--seed", str(SEED),
                  "--seconds", "1")
    result = _result(proc)
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names), result["metrics"]
    assert all(v["value"] > 0 for v in result["metrics"].values())
    print("ok  end-to-end metric names match BENCHMARK.json")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "jump", "--seed", "1", "--seconds", "1",
                  cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "ran without the package"
    assert not proc.stdout.strip(), "printed a result without the package"
    print("ok  without src/ the benchmark exits", proc.returncode)


def main() -> int:
    os.chdir(ROOT)
    check_corruption()
    check_module_terms_reuse()
    check_end_to_end_names()
    check_bare_directory()
    check_traced_counts()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
