"""Every flagsheaf name the benchmark under ``perfbench/`` wraps, patches
or calls still resolves, so a deletion in the package cannot silently
break a traced run (``perfbench/run.py --trace 1``) or the benchmark's
smoke test; and one traced round of each workload runs clean.  The
benchmark files are read, never changed."""

import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# attributes the workloads and the smoke test replace by wrappers
PATCHED = {
    ("pipeline", "stalk_flag_sum"),
    ("pipeline", "build_cone_model"),
    ("pipeline", "model_jump"),
    ("pipeline", "action_of"),
    ("pipeline", "module_terms"),
    ("lie_numerics", "run_trials"),
}


def _resolve(module: str, qualname: str):
    """The object ``perfbench/tracer.py`` would wrap: a module
    attribute, or a method from its class's own ``__dict__``."""
    owner = importlib.import_module(f"flagsheaf.{module}")
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
    return vars(owner).get(attr)


class RecordingTracer:
    """Stands in for ``perfbench/tracer.py``: records what it is asked
    to wrap and wraps nothing."""

    def __init__(self):
        self.stats = {}
        self.wrapped = []

    def wrap_span(self, module, qualname, after=None, before=None):
        self.wrapped.append((module, qualname))

    def wrap_count(self, module, qualname):
        self.wrapped.append((module, qualname))


def test_traced_functions_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = RecordingTracer()
    layers.install(tracer)
    assert ("pipeline", "module_terms") in tracer.wrapped
    missing = [
        f"{module}.{qualname}"
        for module, qualname in tracer.wrapped
        if not callable(_resolve(module, qualname))
    ]
    assert not missing


def _benchmark_references(path: Path) -> set[tuple[str, str]]:
    """(module, attribute) pairs of flagsheaf that a benchmark file
    imports, reads as ``module.attribute``, or names as a string right
    after a module (the smoke test's ``(owner, "attribute")`` pairs)."""
    tree = ast.parse(path.read_text())
    aliases: dict[str, str] = {}
    found: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "flagsheaf":
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and (
            node.module.startswith("flagsheaf.")
        ):
            module = node.module.removeprefix("flagsheaf.")
            found |= {(module, alias.name) for alias in node.names}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.Tuple):
            for owner, attr in zip(node.elts, node.elts[1:]):
                if (
                    isinstance(owner, ast.Name)
                    and owner.id in aliases
                    and isinstance(attr, ast.Constant)
                    and isinstance(attr.value, str)
                ):
                    found.add((aliases[owner.id], attr.value))
    return found


def test_patched_and_called_names_resolve():
    found = set()
    for name in ("workloads.py", "selftest.py"):
        found |= _benchmark_references(PERFBENCH / name)
    assert PATCHED <= found
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(found)
        if _resolve(module, attr) is None
    ]
    assert not missing


def test_patched_signatures():
    # layers.py binds these parameter names; selftest.py passes corrupt=
    module_terms = _resolve("pipeline", "module_terms")
    assert {"params", "degree_window", "action_window"} <= set(
        inspect.signature(module_terms).parameters
    )
    run_trials = _resolve("lie_numerics", "run_trials")
    assert "corrupt" in inspect.signature(run_trials).parameters


@pytest.mark.parametrize(
    "workload", ("crosscheck", "jump", "certificate", "numerics"))
def test_traced_round_runs_clean(workload):
    # a traced run imports the package as the benchmark does, so it
    # sees a dropped alias or a lost transitive import that resolving
    # names one module at a time cannot
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--trace", "1", "--rounds", "1"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    info, last = run.stdout.splitlines()[-2:]
    assert json.loads(info.removeprefix("info "))["fail_ratio"] == 0.0
    assert json.loads(last)["failed"] == 0


def test_benchmark_corruptions_fail_their_oracles(monkeypatch):
    # the smoke test's corruption check alone: a corrupted action_of or
    # module_terms must still reach the certificate outputs the oracle
    # reads (and each other workload's corruption its own); the smoke
    # test's other checks are left to a change of the benchmark
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py sets them on import
    selftest = importlib.import_module("selftest")
    selftest.check_corruption()
