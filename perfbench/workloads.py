"""The four benchmark workloads: seeded inputs, one op per program call
(or per stalk comparison), and an independent oracle for every answer.

A workload is a stream of *rounds*.  Round ``k`` of seed ``s`` holds a
fixed number of ops of each kind and rank; every other input (points,
apexes, center classes, lambda, d, I, pairing sides) is drawn from
generators seeded by the workload, ``s`` and ``k``, so the same seed
always gives the same inputs.  A round is a list of *tasks*; a task makes one program
call and returns one :class:`OpResult` per op it contains.

The oracles never call the program: expected values come from closed
formulas (Gaussian multinomials, the defining pairings of the root
system) or from brute-force enumeration (the Novikov module terms).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from flagsheaf import cli, lie_numerics, pipeline
from flagsheaf.root_system import CenterClass, cartan

RESIDUAL_LIMIT = 1e-8
D_GRID = ("0", "1/2", "1", "2", "5")


@dataclass
class OpResult:
    start: float  # time.perf_counter() around the program call
    end: float
    ok: bool
    ref: float = 0.0  # reference-kernel time around the op, set by run.py
    charge: float = 0.0  # time moved to or from the op's own interval

    @property
    def latency(self) -> float:
        return self.end - self.start + self.charge


@dataclass
class TaskResult:
    ops: list[OpResult]
    output: bytes  # canonical output bytes, hashed into the run's sha256
    key: tuple | None = None  # (N, lambda, I) of a certificate-stream query


# a task is called with the tracer and a ``reference()`` callable that
# times the reference kernel, which a task may call between its ops
Task = Callable[["object", Callable[[], None]], TaskResult]


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def _stratified(workload: str, seed: int, stream: str, j: int, grid):
    """Draw ``j`` of a stream of draws from ``grid`` that takes every
    value once, in a seeded order, before it takes any again: a run
    meets the values in about equal shares, so its cost does not swing
    with the seed (stratified sampling)."""
    order = random.Random(f"{workload}:{seed}:{stream}:{j // len(grid)}")
    return order.sample(list(grid), len(grid))[j % len(grid)]


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# closed-form references


def _gram(n: int, j: int, k: int) -> Fraction:
    return Fraction(min(j, k) * (n - max(j, k)), n)


def _profile(n: int, coords) -> list[Fraction]:
    return [
        sum((x * _gram(n, j, k) for j, x in enumerate(coords, 1)), Fraction(0))
        for k in range(1, n)
    ]


def _residue(n: int, coords) -> int:
    """Center class residue -(sum k x_k) mod N."""
    return -sum(k * int(x) for k, x in enumerate(coords, 1)) % n


def _degree(n: int, coords) -> int:
    """-D(l) = sum x_k * 2k(N-k)."""
    return sum(int(x) * 2 * k * (n - k) for k, x in enumerate(coords, 1))


def _action(n: int, lam: Fraction, coords) -> Fraction:
    """<l, lam e_1> = lam * sum x_k (N-k) / N."""
    return lam * sum(
        (Fraction(x) * (n - k) for k, x in enumerate(coords, 1)), Fraction(0)
    ) / n


def _poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for da, ma in a.items():
        for db, mb in b.items():
            out[da + db] = out.get(da + db, 0) + ma * mb
    return out


def _q_factorial(m: int) -> dict[int, int]:
    out = {0: 1}
    for i in range(1, m + 1):
        out = _poly_mul(out, {d: 1 for d in range(i)})
    return out


def _poly_div(num: dict[int, int], den: dict[int, int]) -> dict[int, int]:
    """Exact division of integer polynomials (den has constant term 1)."""
    rest = dict(num)
    top = max(den)
    out: dict[int, int] = {}
    while rest and max(rest) >= top:
        deg = max(rest)
        coef = rest[deg] // den[top]
        out[deg - top] = coef
        for d, m in den.items():
            rest[deg - top + d] = rest.get(deg - top + d, 0) - coef * m
        rest = {d: m for d, m in rest.items() if m}
    if rest:
        raise ArithmeticError("inexact polynomial division")
    return out


def flag_betti(n: int, indices) -> dict[int, int]:
    """Betti table of FL(I) as the Gaussian multinomial [N; blocks]_q,
    with q in cohomological degree 2."""
    cuts = (0,) + tuple(sorted(indices)) + (n,)
    den = {0: 1}
    for a, b in zip(cuts, cuts[1:]):
        den = _poly_mul(den, _q_factorial(b - a))
    q_poly = _poly_div(_q_factorial(n), den)
    return {2 * d: m for d, m in q_poly.items() if m}


def _as_json_dims(poly: dict[int, int]) -> dict[str, int]:
    return {str(d): m for d, m in sorted(poly.items()) if m}


# ---------------------------------------------------------------------------
# crosscheck: one model build, many stalk comparisons

# acceptance 4 samples at depth 5/2; a batch here holds the same number
# of points of each depth
CROSSCHECK_DEPTHS = (Fraction(3, 2), Fraction(2), Fraction(5, 2))
CROSSCHECK_PER_DEPTH = {3: 1, 4: 2}


def crosscheck_window(n: int):
    """Apex window of every batch: the required boxes of all points with
    profile at least -depth lie in [floor(-2 depth), 0] per coordinate.
    It is the window acceptance 4 derives from its 100 points per model,
    and unlike one derived from a few points it does not vary between
    batches."""
    return ((math.floor(-2 * max(CROSSCHECK_DEPTHS)), 0),) * (n - 1)


def sample_point(n: int, rng: random.Random, depth: Fraction, denom: int = 16):
    """Random rational point of the open negative chamber, drawn as
    ``pipeline.sample_c_minus_interior`` draws it: coordinates in
    [-2, -1/denom], rescaled to 15/16 of the depth only when the
    pairing profile dips below -depth."""
    coords = [-Fraction(rng.randint(1, 2 * denom), denom) for _ in range(n - 1)]
    low = min(_profile(n, coords))
    if low < -depth:
        coords = [c * (depth / -low) * Fraction(15, 16) for c in coords]
    return cartan(n, coords)


def _crosscheck_task(n: int, z: int, points) -> Task:
    def run(tracer, reference) -> TaskResult:
        bounds = [time.perf_counter()]
        build = []
        original, original_build = pipeline.stalk_flag_sum, pipeline.build_cone_model

        def marked(*args, **kwargs):
            result = original(*args, **kwargs)
            bounds.append(time.perf_counter())
            reference()
            bounds.append(time.perf_counter())
            return result

        def timed_build(*args, **kwargs):
            began = time.perf_counter()
            model = original_build(*args, **kwargs)
            build.append(time.perf_counter() - began)
            return model

        # the end of each comparison splits the batch into ops, and the
        # reference kernel runs between them
        pipeline.stalk_flag_sum = marked
        pipeline.build_cone_model = timed_build
        start = bounds[0]
        try:
            report = pipeline.crosscheck_stalks(
                n, CenterClass(n, z), points, window=crosscheck_window(n)
            )
        except Exception as exc:  # a raising batch fails all its ops
            report, error = None, repr(exc)
        finally:
            pipeline.stalk_flag_sum = original
            pipeline.build_cone_model = original_build
        end = time.perf_counter()
        if report is None or len(bounds) != 2 * len(points) + 1:
            detail = error if report is None else report.to_json()
            return TaskResult(
                [OpResult(start, end, False) for _ in points],
                _canonical(detail),
            )
        with tracer.paused():
            bad = {tuple(m["point"]) for m in report.mismatches}
            whole_ok = (
                report.compared == len(points) and report.excluded == 0
            )
            # the comparisons share the model, so each is charged an equal
            # share of its build, which falls in the first one's interval;
            # charged to the first alone, the builds would sit at the
            # 90th percentile
            share = sum(build) / len(points)
            ops = [
                OpResult(
                    t0, t1,
                    whole_ok and tuple(str(c) for c in p.coords) not in bad,
                    charge=share - (sum(build) if i == 0 else 0.0),
                )
                for i, (p, t0, t1) in enumerate(
                    zip(points, bounds[::2], bounds[1::2])
                )
            ]
            return TaskResult(ops, _canonical(report.to_json()))

    return run


def crosscheck_round(seed: int, k: int) -> list[Task]:
    """One N=4 batch and one N=3 batch, their center classes drawn; a
    batch holds ``CROSSCHECK_PER_DEPTH`` points of each depth."""
    rng = _rng("crosscheck", seed, k)
    batches = [
        (n, _stratified("crosscheck", seed, f"z{n}", k, range(n)))
        for n in (4, 3)
    ]
    tasks = []
    for n, z in batches:
        depths = list(CROSSCHECK_DEPTHS) * CROSSCHECK_PER_DEPTH[n]
        rng.shuffle(depths)
        points = [sample_point(n, rng, depth) for depth in depths]
        tasks.append(_crosscheck_task(n, z, points))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# jump: every query builds its own pruned cone model

# the apex box of acceptance 5
JUMP_N3_BOX = range(-3, 1)
JUMP_N3_PER_ROUND = 18


def _subsets(n: int) -> list[tuple[int, ...]]:
    return [
        s for r in range(n) for s in itertools.combinations(range(1, n), r)
    ]


def _jump_task(n: int, coords, indices) -> Task:
    m = cartan(n, coords)
    z = CenterClass(n, _residue(n, coords))
    expected = {
        d + _degree(n, coords): mult
        for d, mult in flag_betti(n, indices).items()
    }

    def run(tracer, reference) -> TaskResult:
        start = time.perf_counter()
        try:
            got = pipeline.model_jump(n, z, indices, m)
        except Exception as exc:
            return TaskResult(
                [OpResult(start, time.perf_counter(), False)],
                _canonical(repr(exc)),
            )
        end = time.perf_counter()
        with tracer.paused():
            got_json = got.to_json()
            ok = got_json == _as_json_dims(expected)
            return TaskResult([OpResult(start, end, ok)], _canonical(got_json))

    return run


def jump_round(seed: int, k: int) -> list[Task]:
    """18 N=3 queries, the apex drawn from [-3,0]^2 and I uniform over
    the subsets containing i_set(apex), and one N=4 query at the origin
    with I drawn from all eight subsets."""
    rng = _rng("jump", seed, k)
    apexes = list(itertools.product(JUMP_N3_BOX, repeat=2))
    tasks = []
    for i in range(JUMP_N3_PER_ROUND):
        m = _stratified("jump", seed, "apex", k * JUMP_N3_PER_ROUND + i, apexes)
        base = {j for j, x in enumerate(m, 1) if x < 0}
        subset = rng.choice([s for s in _subsets(3) if base <= set(s)])
        tasks.append(_jump_task(3, m, subset))
    # the full subset, whose corner complex is the largest, opens every
    # cycle of eight rounds, so that every run meets the workload's peak
    # memory
    full, others = _subsets(4)[-1], _subsets(4)[:-1]
    subset = full if k % 8 == 0 else _stratified(
        "jump", seed, "i4", k - 1 - k // 8, others
    )
    tasks.append(_jump_task(4, (0, 0, 0), subset))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# certificate: a stream of CLI queries on the Novikov path

# acceptance 6 runs lambda in {1, 3/2}; the stream draws from a wider grid
CERT_LAMBDAS = ("1", "3/2", "2", "5/2", "3")
# N=4 certificates draw lambda from a grid on which they cost about the
# same (0.8-1.7 s); below 5/2 one takes 1.9-4.8 s, a tenth to a quarter
# of a run, so one more or fewer in a run would move every metric
CERT_N4_LAMBDAS = ("5/2", "3", "7/2", "4")
PAIR_SIDES = ("diagonal", "clifford_torus", "real_projective")
# (kind, N) of the queries of one round: every class but the N=4
# certificate runs once at each lambda of the grid, and the N=4
# certificate once, its lambda cycling over rounds
CERT_CLASSES = [
    ("certificate", 2), ("certificate", 3), ("pair", 3),
    ("hom", 2), ("hom", 3), ("hom", 4),
    ("spectrum", 2), ("spectrum", 3), ("spectrum", 4),
]
CERT_ROUND = [("certificate", 4)] + [
    c for c in CERT_CLASSES for _ in CERT_LAMBDAS
]
# the CLI's default windows
DEGREE_WINDOW = (-40, 40)
ACTION_WINDOW = (Fraction(-10), Fraction(10))
SPECTRUM_WINDOW = (Fraction(-3), Fraction(0))

_H: dict = {}
_SPECTRUM: dict = {}
_G: dict = {}


def expected_terms(n: int, lam: Fraction, indices, action_window):
    """``(coords, action, degree)`` of every lattice point of center
    class 0 with x_j <= -[j in I] for j >= 2 whose action and degree lie
    in the windows, by brute force over a box that contains them all.

    With t_j = -x_j >= 0 (j >= 2), action <= hi and degree >= lo give
    sum_j t_j (N-j)(j-1) <= N hi / lam - lo / 2, so every t_j is at most
    the right-hand side; x_1 then ranges over the degree window."""
    alo, ahi = action_window
    dlo, dhi = DEGREE_WINDOW
    top = math.floor(n * ahi / lam - Fraction(dlo, 2))
    # action = lam * A / N with A = sum x_k (N-k), an integer
    a_lo, a_hi = math.ceil(n * alo / lam), math.floor(n * ahi / lam)
    step = 2 * (n - 1)  # degree of x_1
    out = []
    tails = [range(int(j in indices), top + 1) for j in range(2, n)]
    for tail in itertools.product(*tails):
        rest = tuple(-t for t in tail)
        deg_rest = sum(x * 2 * k * (n - k) for k, x in enumerate(rest, 2))
        a_rest = sum(x * (n - k) for k, x in enumerate(rest, 2))
        cls_rest = sum(k * x for k, x in enumerate(rest, 2))
        for x1 in range(-((deg_rest - dlo) // step),
                        (dhi - deg_rest) // step + 1):
            a = x1 * (n - 1) + a_rest
            if (x1 + cls_rest) % n == 0 and a_lo <= a <= a_hi:
                out.append(((x1,) + rest, lam * a / n, x1 * step + deg_rest))
    return out


def _terms_digest(lines) -> str:
    """Order-free digest of term lines ``coords|action|degree``."""
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def _expected_h(n: int, lam: Fraction, indices, d: Fraction):
    """(digest of the terms, graded dims) of the expected H_I(d): the
    terms with action + d >= 0.  Kept per run as digests only, so that
    the oracle adds little to the process's peak memory."""
    key = (n, lam, tuple(indices))
    if key not in _H:
        terms = expected_terms(n, lam, set(indices), ACTION_WINDOW)
        _H[key] = {}
        for grid_d in map(Fraction, D_GRID):
            kept = [t for t in terms if t[1] + grid_d >= 0]
            graded: dict[int, int] = {}
            for _, _, deg in kept:
                graded[deg] = graded.get(deg, 0) + 1
            _H[key][grid_d] = (
                _terms_digest(
                    f"{','.join(map(str, c))}|{a}|{deg}" for c, a, deg in kept
                ),
                graded,
            )
    return _H[key][d]


def _expected_spectrum(n: int, lam: Fraction, indices) -> list[Fraction]:
    key = (n, lam, tuple(indices))
    if key not in _SPECTRUM:
        terms = expected_terms(n, lam, set(indices), SPECTRUM_WINDOW)
        _SPECTRUM[key] = sorted({-a for _, a, _ in terms if 0 <= -a < 3})
    return _SPECTRUM[key]


def _g_dims(n: int, indices) -> dict[int, int]:
    """Graded dimension of G(I), by inverting the free decomposition
    H(FL(I)) = sum of G(J) over J inside I."""
    key = (n, tuple(indices))
    if key not in _G:
        out: dict[int, int] = {}
        for r in range(len(indices) + 1):
            for sub in itertools.combinations(indices, r):
                sign = (-1) ** (len(indices) - r)
                for deg, m in flag_betti(n, sub).items():
                    out[deg] = out.get(deg, 0) + sign * m
        _G[key] = {deg: m for deg, m in out.items() if m}
    return _G[key]


def _full_hom(n: int, lam: Fraction, d: Fraction) -> dict[int, int]:
    """Sum over I of G(I) tensor H_I(d)."""
    total: dict[int, int] = {}
    for sub in _subsets(n):
        graded = _expected_h(n, lam, sub, d)[1]
        for deg, m in _poly_mul(_g_dims(n, sub), graded).items():
            total[deg] = total.get(deg, 0) + m
    return total


def _term_line(obj):
    """``json.loads`` hook: a listed term becomes its line, so that a
    parsed 2 MB certificate stays small next to the program's memory."""
    if obj.keys() == {"l", "action", "degree"}:
        return f"{','.join(obj['l'])}|{obj['action']}|{obj['degree']}"
    return obj


def _check_h(n, lam, indices, d, lines, graded) -> bool:
    """The listed terms (as term lines) are exactly the expected ones,
    with their action and degree, and the graded answer counts them."""
    digest, want = _expected_h(n, lam, indices, d)
    return _terms_digest(lines) == digest and graded == _as_json_dims(want)


def _check_certificate(payload, n, lam) -> bool:
    grid = [Fraction(d) for d in D_GRID]
    ok = payload["verdict"] is True and payload["d_grid"] == list(D_GRID)
    ok = ok and len(payload["records"]) == len(grid) * 2 ** (n - 1)
    for rec in payload["records"]:
        w = [Fraction(c) for c in rec["witness"] or ()]
        ok = ok and (
            rec["structure_map_nonzero"] is True
            and len(w) == n - 1
            and _residue(n, w) == 0
            and _action(n, lam, w) >= 0
            and Fraction(rec["witness_action"]) == _action(n, lam, w)
        )
    seen = set()
    for rec in payload["h_graded"]:
        indices = tuple(int(i) for i in rec["i"].split(",") if i)
        d = Fraction(rec["d"])
        seen.add((indices, d))
        ok = ok and _check_h(
            n, lam, indices, d, rec["elements"], rec["graded"]
        )
    ok = ok and seen == {(s, d) for s in _subsets(n) for d in grid}
    full = {Fraction(d): g for d, g in payload["full_hom"].items()}
    return ok and full == {
        d: _as_json_dims(_full_hom(n, lam, d)) for d in grid
    }


def _side_factor(n: int, side: str) -> dict[int, int]:
    out = {0: 1}
    for i in range(1, n):
        if side == "clifford_torus":
            out = _poly_mul(out, {0: 1, 1: 1})
        elif side == "real_projective":
            out = _poly_mul(out, {0: 1, i: 1})
    return out


def _cert_query(argv: list[str], key: tuple, check) -> Task:
    def run(tracer, reference) -> TaskResult:
        rc, out, start, end = _run_cli(argv, tracer)
        with tracer.paused():
            try:
                ok = rc == 0 and check(json.loads(out, object_hook=_term_line))
            except (ValueError, KeyError, TypeError):
                ok = False
        return TaskResult([OpResult(start, end, ok)], out, key)

    return run


def _subset_arg(indices) -> str:
    return ",".join(str(i) for i in indices)


def _run_cli(argv: list[str], tracer) -> tuple[int, bytes, float, float]:
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a traceback is a failed op
            buf.write(repr(exc))
            rc = -1
    end = time.perf_counter()
    out = buf.getvalue().encode()
    tracer.add("cli.main.output_bytes", len(out))
    return rc, out, start, end


def _cert_task(kind: str, n: int, draw) -> Task:
    """One CLI query of the given kind and rank, checked against the
    brute-force term lists.  ``draw(stream, grid)`` draws its lambda, d,
    I and pairing sides."""
    lam = draw("lambda", CERT_N4_LAMBDAS if (kind, n) == ("certificate", 4)
               else CERT_LAMBDAS)
    lam_q = Fraction(lam)
    argv = ["pipeline", kind, "--n", str(n), "--lambda", lam]
    if kind == "certificate":
        return _cert_query(
            argv, (n, lam, "all"),
            lambda payload: _check_certificate(payload, n, lam_q),
        )
    d = draw("d", D_GRID)
    if kind == "pair":
        sides = draw("sides", list(itertools.product(PAIR_SIDES, repeat=2)))
        argv += ["--d", d, "--side-a", sides[0], "--side-b", sides[1]]
        if "real_projective" in sides:
            argv.append("--char2")

        def check(payload):
            want = _full_hom(n, lam_q, Fraction(d))
            for side in sides:
                want = _poly_mul(want, _side_factor(n, side))
            return payload["pair_hom"] == _as_json_dims(want)

        return _cert_query(argv, (n, lam, "all"), check)
    indices = draw("i", _subsets(n))
    argv += ["--i", _subset_arg(indices)]
    if kind == "hom":
        argv += ["--d", d]

        def check(payload):
            return _check_h(
                n, lam_q, indices, Fraction(d),
                payload["elements"], payload["h_graded"],
            )
    else:

        def check(payload):
            got = [Fraction(v) for v in payload["spectrum"]]
            return bool(got) and got == _expected_spectrum(n, lam_q, indices)

    return _cert_query(argv, (n, lam, indices), check)


def certificate_round(seed: int, k: int) -> list[Task]:
    """The 46 queries of ``CERT_ROUND`` in a seeded order.  Each (kind,
    N) class draws its lambda, d, I and sides stratified over the run."""
    per_round = {c: CERT_ROUND.count(c) for c in CERT_ROUND}
    drawn = {c: k * per_round[c] for c in per_round}
    tasks = []
    for kind, n in CERT_ROUND:
        j = drawn[(kind, n)]
        drawn[(kind, n)] += 1

        def draw(stream, grid, cls=f"{kind}{n}", j=j):
            return _stratified("certificate", seed, f"{cls}:{stream}", j, grid)

        tasks.append(_cert_task(kind, n, draw))
    _rng("certificate", seed, k).shuffle(tasks)
    return tasks


def certificate_iid_keys(seed: int, rounds: int) -> list[tuple]:
    """The ``(N, lambda, I)`` keys of a stream with the same (kind, N)
    sequence as ``rounds`` rounds, but lambda and I drawn independently
    per query: the unshaped stream that ``repeat_share`` is compared
    with."""
    rng = random.Random(f"certificate-iid:{seed}")
    keys = []
    for _ in range(rounds):
        for kind, n in CERT_ROUND:
            lams = (CERT_N4_LAMBDAS if (kind, n) == ("certificate", 4)
                    else CERT_LAMBDAS)
            indices = ("all" if kind in ("certificate", "pair")
                       else rng.choice(_subsets(n)))
            keys.append((n, rng.choice(lams), indices))
    return keys


# ---------------------------------------------------------------------------
# numerics: one trial of each matrix lemma per op

# four N=6 trials to one N=3: the median and the 90th percentile both
# fall inside the N=6 block
NUMERICS_RANKS = (6, 6, 3, 6, 6)


def _numerics_task(n: int, trial_seed: int) -> Task:
    def run(tracer, reference) -> TaskResult:
        start = time.perf_counter()
        try:
            stats = lie_numerics.run_trials(n, 1, trial_seed)
        except Exception as exc:
            return TaskResult(
                [OpResult(start, time.perf_counter(), False)],
                _canonical(repr(exc)),
            )
        end = time.perf_counter()
        with tracer.paused():
            ok = all(
                s.failures == 0 and s.max_residual <= RESIDUAL_LIMIT
                for s in stats
            )
            out = _canonical([s.to_json() for s in stats])
        return TaskResult([OpResult(start, end, ok)], out)

    return run


def numerics_round(seed: int, k: int) -> list[Task]:
    rng = _rng("numerics", seed, k)
    return [_numerics_task(n, rng.getrandbits(32)) for n in NUMERICS_RANKS]


ROUNDS = {
    "crosscheck": crosscheck_round,
    "jump": jump_round,
    "certificate": certificate_round,
    "numerics": numerics_round,
}

# workloads whose keys ``repeat_share`` counts, and their unshaped streams
IID_KEYS = {"certificate": certificate_iid_keys}
