#!/usr/bin/env python3
"""flagsheaf benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 18 --trace 0

Run from the root of a checkout; the package is imported from that
checkout's ``src/`` and nowhere else.  Ops run in this process, one at
a time, each issued after the previous one returns.

``--trace 0`` runs whole rounds of the workload until ``--seconds``
have passed (set-up probes not counted) and at least ``MIN_OPS`` ops
are done, and reports the end-to-end metrics.  ``--trace 1`` runs a fixed number of rounds with
spans and counters around the package's public functions, runs the
same rounds untraced in a fresh process to get the tracing overhead,
writes the spans to ``.bench_out/`` and reports the per-layer metrics.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

STARTED = time.perf_counter()  # set-up is timed from here to the first op

import os  # noqa: E402

# one BLAS thread: the box has 2 cores and the client is single
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("crosscheck", "jump", "certificate", "numerics")
MIN_OPS = 40
TAIL_PERCENTILE = 90
SETUP_PROBES = 21
# rounds in a traced run: fixed, so that every count repeats exactly
TRACE_ROUNDS = {"crosscheck": 3, "jump": 2, "certificate": 1, "numerics": 12}


def _import_package():
    """Import flagsheaf from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import flagsheaf
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import flagsheaf from {SRC}: {exc}")
    if Path(flagsheaf.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: flagsheaf was imported from {flagsheaf.__file__}")


def _child(args, *extra) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), *extra,
    ]
    return subprocess.run(
        cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
        timeout=170,
    )


def probe_setup(args) -> tuple[float, float]:
    """(set-up time, reference time) of a fresh process that imports the
    package, generates the first round's inputs and exits.  It times
    itself from the start of this script to the end of input
    generation, so interpreter start-up and process teardown, which the
    program does not control, are left out.  The reference is the mean
    of the set-up kernel's times just before and just after the
    process."""
    kernel = SETUP_REFERENCE[0]
    before = reference_time(kernel)
    setup = float(_child(args, "--setup-probe").stdout)
    return setup, (before + reference_time(kernel)) / 2


def _exact_kernel(size: int = 22) -> int:
    """Rank of a fixed rational matrix by clearing denominators and
    fraction-free elimination, like the exact workloads' rank step."""
    rows = [
        [Fraction((3 * i + 7 * j) % 5 - 2, 1 + (i * j) % 3) for j in range(size)]
        for i in range(size)
    ]
    m = []
    for row in rows:
        lcm = 1
        for x in row:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        m.append([int(x * lcm) for x in row])
    rank, prev = 0, 1
    for col in range(size):
        piv = next((r for r in range(rank, size) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, size):
            f = m[r][col]
            for c in range(col, size):
                m[r][c] = (p * m[r][c] - f * m[rank][c]) // prev
        prev, rank = p, rank + 1
    return rank


def _float_kernel():
    """Python-level 2x2 rotations of a small complex matrix, like the
    numerics workload's eigensolver loop."""
    import numpy as np

    a = np.arange(36, dtype=complex).reshape(6, 6)
    for _ in range(2):
        for p in range(5):
            for q in range(p + 1, 6):
                rot = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)
                a[:, [p, q]] = a[:, [p, q]] @ rot
                a[[p, q], :] = rot.conj().T @ a[[p, q], :]
    return a


# per workload: the kernel whose speed tracks the workload's, and its
# time in reference_time() on the baseline box at its usual speed
REFERENCE = {
    "crosscheck": (_exact_kernel, 0.002),
    "jump": (_exact_kernel, 0.002),
    "certificate": (_exact_kernel, 0.002),
    "numerics": (_float_kernel, 0.0008),
}
# set-up is interpreter work on every workload: importing and generating
# inputs
SETUP_REFERENCE = REFERENCE["certificate"]


def reference_time(kernel) -> float:
    """Median of four runs of a fixed kernel, with the collector off so
    that the program's heap cannot slow it down.  The median was found to
    scale op times more steadily than the best of two or four runs."""
    times = []
    gc.disable()
    try:
        for _ in range(4):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


def run_rounds(round_fn, kernel, seed, tracer, deadline=None, rounds=None,
               between=lambda: None):
    """Run whole rounds, closed loop, until ``rounds`` rounds are done or
    the deadline has passed with at least MIN_OPS ops, so that every run
    has the round mix exactly.

    ``between()`` runs after each task, and the deadline moves by the
    time it takes.  The reference kernel is timed after it (and by a
    task between its ops); each op's ``ref`` is the mean of the kernel
    times taken just before and just after it.  The speed drifts from
    op to op: a median over more kernel times was found to track it
    worse."""
    results, samples = [], []
    digest = hashlib.sha256()
    ops = 0
    k = 0

    def reference():
        start = time.perf_counter()
        samples.append((start, reference_time(kernel)))

    reference()
    while rounds is None or k < rounds:
        with tracer.paused():
            tasks = round_fn(seed, k)
        if rounds is None and ops >= MIN_OPS and time.perf_counter() >= deadline:
            break
        for task in tasks:
            tracer.request += 1
            with tracer.span("request"):
                result = task(tracer, reference)
            digest.update(result.output + b"\n")
            result.output = b""
            # each task starts with the previous tasks' garbage collected
            gc.collect()
            paused = time.perf_counter()
            between()
            if deadline is not None:
                deadline += time.perf_counter() - paused
            reference()
            results.append(result)
            ops += len(result.ops)
        k += 1
    times = [t for t, _ in samples]
    for result in results:
        for op in result.ops:
            after = bisect.bisect_left(times, op.end)
            op.ref = (samples[after - 1][1] + samples[after][1]) / 2
    return results, k, digest.hexdigest()


def repeat_share(keys) -> float:
    """Share of requests whose key repeats an earlier request's."""
    seen, repeats, total = set(), 0, 0
    for key in keys:
        total += 1
        if key is not None:
            repeats += key in seen
            seen.add(key)
    return repeats / total if total else 0.0


def summarize(results, digest: str) -> dict:
    ops = [op for r in results for op in r.ops]
    return {
        "ops": ops,
        "failed": sum(not op.ok for op in ops),
        "outputs_sha256": digest,
        "repeat_share": repeat_share(r.key for r in results),
    }


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) distribution over
    their ranks.  Where ops of two cost classes meet at the quantile it
    moves smoothly with their shares instead of jumping from one class
    to the other, as a single order statistic does."""
    import numpy as np

    n = len(values)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    # the Beta CDF at the rank edges i/n, by the midpoint rule on a grid
    # of 64 cells per rank
    mid = (np.arange(64 * n) + 0.5) / (64 * n)
    logpdf = (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(logpdf - logpdf.max()))])
    weights = np.diff(cdf[::64] / cdf[-1])
    return float(np.dot(weights, sorted(values)))


def latency_metrics(ops: list[tuple[float, bool]]) -> dict:
    """Throughput, p50 and p90 of (latency, ok) pairs; a failed op
    counts as the slowest op."""
    worst = max(lat for lat, _ in ops)
    lat = [t if ok else worst for t, ok in ops]
    return {
        "ops_per_s": (sum(ok for _, ok in ops) / sum(t for t, _ in ops), "1/s"),
        "op_p50_ms": (1000 * hd_quantile(lat, 0.5), "ms"),
        "op_tail_ms": (1000 * hd_quantile(lat, TAIL_PERCENTILE / 100), "ms"),
    }


def scaled(seconds: float, ref: float, nominal: float) -> float:
    """A time at the nominal machine speed: ``seconds`` times how much
    faster the reference kernel ran around it than ``nominal``."""
    return seconds * nominal / ref


def busy_scaled(ops, nominal: float) -> float:
    return sum(scaled(op.latency, op.ref, nominal) for op in ops)


def emit(summary, metrics: dict, info: dict) -> None:
    ops = summary["ops"]
    info = {
        **info,
        "fail_ratio": summary["failed"] / len(ops),
        "outputs_sha256": summary["outputs_sha256"],
        "repeat_share": summary["repeat_share"],
    }
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": len(ops),
        "failed": summary["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def untraced(args, round_fn, tracer) -> None:
    kernel, nominal = REFERENCE[args.workload]
    probes = []
    probing = [0.0]  # wall time spent in probes so far

    def spread_probes():
        """Set-up probes spread over the run, so that their median
        averages the machine's speed over the run, not one moment."""
        elapsed = time.perf_counter() - start - probing[0]
        due = min(SETUP_PROBES, 1 + int(SETUP_PROBES * elapsed / args.seconds))
        while not args.rounds and len(probes) < due:
            began = time.perf_counter()
            probes.append(probe_setup(args))
            probing[0] += time.perf_counter() - began

    start = time.perf_counter()
    results, rounds, digest = run_rounds(
        round_fn, kernel, args.seed, tracer,
        deadline=start + args.seconds, rounds=args.rounds,
        between=spread_probes,
    )
    wall = time.perf_counter() - start - probing[0]
    while not args.rounds and len(probes) < SETUP_PROBES:
        probes.append(probe_setup(args))
    summary = summarize(results, digest)
    ops = summary["ops"]
    raw = [(op.latency, op.ok) for op in ops]
    metrics = latency_metrics(
        [(scaled(op.latency, op.ref, nominal), op.ok) for op in ops]
    )
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = (rss, "MB")
    if probes:
        metrics["setup_s"] = (
            statistics.median(
                scaled(t, ref, SETUP_REFERENCE[1]) for t, ref in probes
            ),
            "s",
        )
    n = len(raw)
    emit(summary, metrics, {
        "busy_scaled_s": busy_scaled(ops, nominal),
        "ops": n,
        "rounds": rounds,
        "tail_percentile": TAIL_PERCENTILE,
        "tail_ops_beyond": n - math.ceil(TAIL_PERCENTILE / 100 * n),
        "loop_wall_s": wall,
        "busy_s": sum(t for t, _ in raw),
        "unscaled": {k: v for k, (v, _) in latency_metrics(raw).items()},
        "setup_probes_s": [t for t, _ in probes],
        "setup_unscaled_s": statistics.median(t for t, _ in probes) if probes else None,
        "reference_s": statistics.median(op.ref for op in ops),
    })


def traced(args, round_fn, tracer) -> None:
    import layers
    import workloads

    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    rounds = args.rounds or TRACE_ROUNDS[args.workload]
    child = _child(args, "--rounds", str(rounds), "--trace", "0")
    child_info = json.loads(child.stdout.splitlines()[-2].removeprefix("info "))
    kernel, nominal = REFERENCE[args.workload]
    layers.install(tracer)
    tracer.active = True
    start = time.perf_counter()
    try:
        results, _, digest = run_rounds(
            round_fn, kernel, args.seed, tracer, rounds=rounds,
        )
    finally:
        tracer.active = False
        tracer.uninstall()
    wall = time.perf_counter() - start
    summary = summarize(results, digest)
    stats = tracer.stats
    stats["workload.repeat_share"] = summary["repeat_share"]
    iid_keys = workloads.IID_KEYS.get(args.workload)
    if iid_keys:
        stats["workload.repeat_share_iid"] = repeat_share(
            iid_keys(args.seed, rounds)
        )
    # both runs' op times are scaled, so machine speed drift between
    # the two processes cancels
    stats["trace.overhead_s"] = (
        busy_scaled(summary["ops"], nominal) - child_info["busy_scaled_s"]
    )
    metrics = {}
    for metric in per_layer:
        name = metric["name"]
        derive = layers.DERIVED.get(name)
        metrics[name] = (derive(stats) if derive else stats[name], metric["unit"])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(path)
    emit(summary, metrics, {
        "rounds": rounds, "traced_wall_s": wall,
        "untraced_wall_s": child_info["loop_wall_s"],
        "untraced_busy_scaled_s": child_info["busy_scaled_s"],
        "untraced_outputs_sha256": child_info["outputs_sha256"],
        "spans": len(tracer.spans), "trace_file": str(path.relative_to(ROOT)),
    })


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds (no setup probes)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and generate inputs, then exit")
    args = parser.parse_args()

    _import_package()
    import workloads
    from tracer import Tracer

    round_fn = workloads.ROUNDS[args.workload]
    if args.setup_probe:
        round_fn(args.seed, 0)
        print(time.perf_counter() - STARTED)
        return 0
    tracer = Tracer()
    (traced if args.trace else untraced)(args, round_fn, tracer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
