import ast
import math
from pathlib import Path

import numpy as np
import pytest

from flagsheaf import lie_numerics
from flagsheaf.lie_numerics import (
    NonConvergenceError,
    check_interval_product,
    check_klyachko,
    check_pairing_bound,
    check_triangle,
    coroot_spectrum,
    eig_unitary,
    exp_skew,
    hermitian_eigs,
    jacobi_eigh,
    log_unitary_small,
    random_skew_hermitian,
    rescaled_to_bound,
    run_trials,
    sample_unitary_in_window,
)
from flagsheaf.lie_numerics import _round_robin
from oracles import aligned_partner, sequential_run_trials


def test_stack_validation_names_the_first_bad_member():
    good = 1j * np.diag([1.0, -1.0, 0.0])
    hermitian_eigs(np.array([good, good]))
    for bad, what in ((np.diag([1.0, -1.0, 0.0]), "skew-Hermitian"),
                      (1j * np.eye(3), "traceless")):
        with pytest.raises(ValueError, match=f"matrix 1 .* not {what}"):
            hermitian_eigs(np.array([good, bad, bad]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_stack_validation_rejects_non_finite_members(value):
    # NaN compares false against every tolerance, so a skew or trace
    # test alone lets it through
    good = 1j * np.diag([1.0, -1.0, 0.0])
    with pytest.raises(ValueError, match="matrix 0 .* not finite"):
        hermitian_eigs(np.full((1, 3, 3), value))
    bad = good.copy()
    bad[0, 2] = value
    with pytest.raises(ValueError, match="matrix 1 .* not finite"):
        hermitian_eigs(np.array([good, bad, bad]))
    # check_triangle stacks xs, ys and xs + ys in one call
    with pytest.raises(ValueError, match="matrix 0 .* not finite"):
        check_triangle(np.full((1, 3, 3), value), good[None])
    with pytest.raises(ValueError, match="matrix 3 .* not finite"):
        check_triangle(np.array([good, good]), np.array([good, bad]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_eig_unitary_residual_gate_fails_on_non_finite_entries(value):
    rng = np.random.default_rng(46)
    p = exp_skew(np.array([random_skew_hermitian(3, rng) for _ in range(2)]))
    eig_unitary(p)
    p[1, 0, 2] = value
    with pytest.raises(NonConvergenceError, match="residual"):
        eig_unitary(p)


def test_stack_validation_rejects_a_single_matrix():
    with pytest.raises(ValueError, match="stack"):
        hermitian_eigs(1j * np.diag([1.0, -1.0]))


def test_bound_spectrum_validation():
    rng = np.random.default_rng(10)
    xs = np.array([random_skew_hermitian(3, rng) for _ in range(2)])
    unsorted = np.array([0.0, 1e-3, -1e-3])
    nonzero_sum = np.array([1e-3, 0.0, 0.0])
    for bound, message in ((unsorted, "descending"), (nonzero_sum, "zero")):
        with pytest.raises(ValueError, match=message):
            rescaled_to_bound(xs, bound)
        with pytest.raises(ValueError, match=message):
            check_klyachko(xs[:1], xs[1:], bound)


def test_klyachko_validates_inputs_when_handed_their_decomposition():
    n = 3
    bound = coroot_spectrum(n, 1) * (0.9 / (100 * n))
    x = 1j * np.diag([1.5e-3, -0.6e-3, -0.9e-3])
    eigs = hermitian_eigs(np.array([x, x]))
    not_skew = np.diag([1.5e-3, -0.6e-3, -0.9e-3]) + 0j
    with pytest.raises(ValueError, match="matrix 1 .* not skew-Hermitian"):
        check_klyachko(x[None], not_skew[None], bound, eigs=eigs)


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5, 8):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (m + m.conj().T) / 2
        (w,), (u,) = jacobi_eigh(h[None])
        assert np.abs(h @ u - u @ np.diag(w)).max() < 1e-9
        assert np.abs(np.sort(w) - np.linalg.eigvalsh(h)).max() < 1e-10


@pytest.mark.parametrize("n", range(1, 13))
def test_round_robin_sweep_covers_every_pair_once(n):
    seen = []
    for ps, qs, _ in _round_robin(n):
        # pairs of one round are disjoint
        assert len(set(ps) | set(qs)) == 2 * len(ps)
        seen += [(int(p), int(q)) for p, q in zip(ps, qs)]
    assert sorted(seen) == [
        (p, q) for p in range(n) for q in range(p + 1, n)
    ]


def _jacobi_inputs(n, rng):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    diag = np.diag(rng.normal(size=n))
    frame, _ = np.linalg.qr(
        rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    )
    repeated = np.resize([1.0, 1.0, -1.0, -1.0, 0.0, 0.0], n)
    return {
        "random": (m + m.conj().T) / 2,
        "zero": np.zeros((n, n)),
        "diagonal": diag,
        "diagonal+1e-200": diag + 1e-200 * (np.ones((n, n)) - np.eye(n)),
        "repeated": frame @ np.diag(repeated) @ frame.conj().T,
    }


@pytest.mark.parametrize("n", range(1, 13))
def test_jacobi_matches_eigvalsh_oracle(n):
    rng = np.random.default_rng(100 + n)
    for kind, h in _jacobi_inputs(n, rng).items():
        (w,), (u,) = jacobi_eigh(h[None])
        assert np.all(np.diff(w) <= 0), kind
        assert np.abs(w - np.linalg.eigvalsh(h)[::-1]).max() < 1e-10, kind
        assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-12, kind


def test_jacobi_sweep_limit_raises(monkeypatch):
    rng = np.random.default_rng(9)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    monkeypatch.setattr(lie_numerics, "MAX_SWEEPS", 1)
    with pytest.raises(NonConvergenceError):
        jacobi_eigh(((m + m.conj().T) / 2)[None])


@pytest.mark.parametrize("n", range(1, 13))
def test_jacobi_stack_matches_each_slice_and_eigvalsh(n):
    # the kinds converge at different speeds; zero and diagonal members
    # are converged before the first sweep
    rng = np.random.default_rng(200 + n)
    inputs = _jacobi_inputs(n, rng)
    w, u = jacobi_eigh(np.array(list(inputs.values()), dtype=complex))
    for i, (kind, h) in enumerate(inputs.items()):
        (alone,), _ = jacobi_eigh(h[None])
        assert np.abs(w[i] - alone).max() < 1e-10, kind
        assert np.abs(w[i] - np.linalg.eigvalsh(h)[::-1]).max() < 1e-10, kind
        assert np.abs(u[i].conj().T @ u[i] - np.eye(n)).max() < 1e-12, kind
        assert np.abs(h @ u[i] - u[i] * w[i]).max() < 1e-9, kind
    # a member converged before the first sweep gets identity rotations
    # while the others turn: its frame stays a permutation matrix
    assert np.count_nonzero(u[list(inputs).index("diagonal+1e-200")]) == n


def test_jacobi_stack_with_one_stalled_member_raises(monkeypatch):
    rng = np.random.default_rng(9)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    converged = [np.zeros((6, 6)), np.diag(np.arange(6.0))]
    monkeypatch.setattr(lie_numerics, "MAX_SWEEPS", 1)
    jacobi_eigh(np.array(converged))
    with pytest.raises(NonConvergenceError):
        jacobi_eigh(np.array(converged + [(m + m.conj().T) / 2]))


def test_verified_path_calls_no_external_eigensolver():
    tree = ast.parse(Path(lie_numerics.__file__).read_text())
    solvers = {"eig", "eigh", "eigvals", "eigvalsh", "svd"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert node.attr not in solvers, ast.unparse(node)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names]
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            assert not solvers & set(names), ast.unparse(node)
            assert not any(name.split(".")[0] == "scipy" for name in names)


def test_no_tolerance_literal_outside_the_constant_table():
    # a threshold written inline escapes the table that every caller
    # decides by; the 1e-300 divide floors are not thresholds
    tree = ast.parse(Path(lie_numerics.__file__).read_text())
    table = {
        id(node)
        for stmt in tree.body if isinstance(stmt, ast.Assign)
        for node in ast.walk(stmt)
    }
    inline = [
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and id(node) not in table
        and isinstance(node.value, float) and 1e-15 <= node.value <= 1e-5
    ]
    assert not inline


def test_no_function_takes_a_tolerance_parameter():
    # every tolerance is a module constant: a knob on one function would
    # let one caller decide differently from all the others
    knobs = {"max_sweeps", "slack", "branch_guard"}
    tree = ast.parse(Path(lie_numerics.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            for param in [*a.posonlyargs, *a.args, *a.kwonlyargs]:
                name = param.arg
                assert not (name.endswith("tol") or name in knobs), (
                    f"{node.name}({name})")


def _count_jacobi(monkeypatch):
    """Record the shape of every jacobi_eigh call, (b, n, n) for a
    stack, and how many calls each eig_unitary call made."""
    calls, inside = [], []
    jacobi, unitary = lie_numerics.jacobi_eigh, lie_numerics.eig_unitary

    def counted_jacobi(h, *args, **kwargs):
        calls.append(np.shape(h))
        return jacobi(h, *args, **kwargs)

    def counted_unitary(p, *args, **kwargs):
        before = len(calls)
        out = unitary(p, *args, **kwargs)
        inside.append(len(calls) - before)
        return out

    monkeypatch.setattr(lie_numerics, "jacobi_eigh", counted_jacobi)
    monkeypatch.setattr(lie_numerics, "eig_unitary", counted_unitary)
    return calls, inside


def test_pairing_bound_decomposes_each_matrix_once(monkeypatch):
    rng = np.random.default_rng(60)
    omega = random_skew_hermitian(6, rng)
    x = random_skew_hermitian(6, rng)
    calls, _ = _count_jacobi(monkeypatch)
    assert check_pairing_bound([omega], [x])[0].ok
    # x and omega in one stacked call
    assert calls == [(2, 6, 6)]


def test_triangle_and_interval_product_stack_their_matrices(monkeypatch):
    rng = np.random.default_rng(62)
    x, y = random_skew_hermitian(5, rng), random_skew_hermitian(5, rng)
    w1, w2 = (-0.4, 0.4), (-0.3, 0.3)
    g1 = sample_unitary_in_window(5, w1, rng)
    g2 = sample_unitary_in_window(5, w2, rng)
    calls, inside = _count_jacobi(monkeypatch)
    assert check_triangle([x], [y])[0].ok
    assert check_interval_product(g1[None], g2[None], [w1], [w2])[0].ok
    # x, y, x + y in one call; g1, g2, g1 g2 in one eig_unitary pass
    assert calls == [(3, 5, 5), (3, 5, 5)]
    assert inside == [1]


def test_klyachko_decomposes_each_matrix_once(monkeypatch):
    n = 6
    rng = np.random.default_rng(61)
    bound = coroot_spectrum(n, 1) * (0.9 / (100 * n))
    (x, y), _ = rescaled_to_bound(
        np.array([random_skew_hermitian(n, rng),
                  random_skew_hermitian(n, rng)]), bound)
    calls, inside = _count_jacobi(monkeypatch)
    assert check_klyachko(x[None], y[None], bound)[0].ok
    # x and y in one call, the product in one, z in one: turned onto
    # the imaginary axis, the small phases of e^X e^Y have distinct
    # cosines, so eig_unitary needs no cluster pass
    assert calls == [(2, n, n), (1, n, n), (1, n, n)]
    assert inside == [1]


def test_klyachko_without_clusters_makes_four_jacobi_runs(monkeypatch):
    # commuting diagonal inputs whose product has well-separated cosines:
    # four matrices decomposed, in three stacked calls
    n = 3
    bound = coroot_spectrum(n, 1) * (0.9 / (100 * n))
    x = 1j * np.diag([1.5e-3, -0.6e-3, -0.9e-3])
    calls, inside = _count_jacobi(monkeypatch)
    assert check_klyachko(x[None], x[None], bound)[0].ok
    assert inside == [1]
    assert calls == [(2, 3, 3), (1, 3, 3), (1, 3, 3)]


def _reference_draws(n, trials, seed):
    """The inputs of each lemma drawn one trial at a time: the triangle,
    pairing and (unscaled) log-product pairs, then the interval trials
    (g1, g2, w1, w2)."""
    rng = np.random.default_rng(seed)
    draw = lambda: random_skew_hermitian(n, rng)  # noqa: E731
    triangle = [(draw(), draw()) for _ in range(trials)]
    pairing = [(draw(), draw()) for _ in range(trials)]
    log = [(draw(), draw()) for _ in range(trials)]
    interval = []
    for _ in range(trials):
        k1, k2 = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
        width1 = rng.uniform(0.2, 1.2)
        width2 = rng.uniform(0.2, 1.2)
        c1, c2 = 2 * math.pi * k1 / n, 2 * math.pi * k2 / n
        w1 = (c1 - width1 / 2, c1 + width1 / 2)
        w2 = (c2 - width2 / 2, c2 + width2 / 2)
        g1 = sample_unitary_in_window(n, w1, rng)
        g2 = sample_unitary_in_window(n, w2, rng)
        interval.append((g1, g2, w1, w2))
    return triangle, pairing, log, interval


def _record_stages(monkeypatch):
    """Record the stack handed to every hermitian_eigs and eig_unitary
    call, and the windows handed to the interval rule."""
    stages, windows = [], []
    for name in ("hermitian_eigs", "eig_unitary"):
        def recorded(xs, _f=getattr(lie_numerics, name), _name=name):
            stages.append((_name, np.array(xs)))
            return _f(xs)
        monkeypatch.setattr(lie_numerics, name, recorded)
    rule = lie_numerics._interval_rule

    def recorded_rule(*args):
        windows.append((list(args[3]), list(args[4])))
        return rule(*args)

    monkeypatch.setattr(lie_numerics, "_interval_rule", recorded_rule)
    return stages, windows


def test_each_lemma_checks_the_inputs_a_loop_of_single_trials_draws(
    monkeypatch,
):
    n, trials, seed = 4, 5, 21
    drawn = []
    draw = lie_numerics.random_skew_hermitian

    def recorded_draw(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(lie_numerics, "random_skew_hermitian", recorded_draw)
    stages, windows = _record_stages(monkeypatch)
    stats = run_trials(n, trials, seed)
    monkeypatch.undo()

    assert all(s.trials == trials and s.failures == 0 and s.rejected == 0
               for s in stats)
    triangle, pairing, log, interval = _reference_draws(n, trials, seed)
    # three generators per pair lemma trial, two per interval trial
    assert len(drawn) == 2 * 3 * trials + 2 * trials
    # all 4 * trials trials fit one unit: stages A, B and C
    assert [name for name, _ in stages] == [
        "hermitian_eigs", "eig_unitary", "hermitian_eigs"]
    (_, a), (_, b), _ = stages
    t = trials

    def same(stack, mats, tol=0.0):
        return len(stack) == len(mats) and all(
            np.abs(p - q).max() <= tol for p, q in zip(stack, mats))

    assert same(a[:t], [x for x, _ in triangle])
    assert same(a[t:2 * t], [y for _, y in triangle])
    assert same(a[2 * t:3 * t], [x + y for x, y in triangle])
    assert same(a[3 * t:4 * t], [w for w, _ in pairing])
    assert same(a[4 * t:5 * t], [x for _, x in pairing])
    assert same(a[5 * t:6 * t], [x for x, _ in log])
    assert same(a[6 * t:7 * t], [y for _, y in log])
    assert len(a) == 9 * t  # and the two interval frame generators each
    # stage B: the products of the rescaled log-product pairs, then the
    # interval factors and their products
    bound = coroot_spectrum(n, 1) * (0.9 / (100.0 * n))
    for i, (x, y) in enumerate(log):
        scaled, _ = rescaled_to_bound(np.array([x, y]), bound)
        ex, ey = exp_skew(scaled)
        assert np.abs(b[i] - ex @ ey).max() < 1e-12
    g1 = np.array([t_[0] for t_ in interval])
    g2 = np.array([t_[1] for t_ in interval])
    assert np.abs(b[t:2 * t] - g1).max() < 1e-12
    assert np.abs(b[2 * t:3 * t] - g2).max() < 1e-12
    assert np.abs(b[3 * t:] - g1 @ g2).max() < 1e-12
    assert windows == [([t_[2] for t_ in interval],
                        [t_[3] for t_ in interval])]

    # the bound keeps every eigenvalue of e^X e^Y near 1, so a pair
    # flagged at the branch cut means a broken decomposition: an error,
    # not a pair to redraw
    logs = lie_numerics._log_in_frame

    def flag_first(eig, u):
        z, at_cut = logs(eig, u)
        at_cut[:1] = True  # as if the product had an eigenvalue at -1
        return z, at_cut

    monkeypatch.setattr(lie_numerics, "_log_in_frame", flag_first)
    with pytest.raises(NonConvergenceError, match="branch cut"):
        run_trials(n, trials, seed)


@pytest.mark.parametrize("n", range(2, 9))
def test_run_trials_makes_three_stacked_calls_per_unit(monkeypatch, n):
    calls, inside = _count_jacobi(monkeypatch)
    for seed in (1, 2):
        calls.clear()
        run_trials(n, 1, seed)
        # A: 3 triangle + 2 pairing + 2 log-product + 2 interval frames;
        # B: 1 log-product + 3 interval unitaries; C: 1 logarithm
        assert calls == [(9, n, n), (4, n, n), (1, n, n)], seed


@pytest.mark.parametrize("n", range(2, 9))
def test_run_trials_matches_the_sequential_oracle(monkeypatch, n):
    # units of 3 trials straddle the lemmas' boundaries
    for trials, seed in ((1, 3), (2, 4), (7, 5), (40, 6)):
        want = [s.to_json() for s in sequential_run_trials(n, trials, seed)]
        assert [s.to_json() for s in run_trials(n, trials, seed)] == want
        with monkeypatch.context() as m:
            m.setattr(lie_numerics, "_CHUNK", 3)
            got = [s.to_json() for s in run_trials(n, trials, seed)]
        assert got == want, (n, trials)
    bad = [s.to_json() for s in sequential_run_trials(n, 7, 8, corrupt=True)]
    assert bad[1]["failures"] == 1
    with monkeypatch.context() as m:
        m.setattr(lie_numerics, "_CHUNK", 5)
        assert [s.to_json() for s in run_trials(n, 7, 8, True)] == bad


def _bitwise_stacks(n, rng):
    """Hermitian inputs for jacobi_eigh and unitary inputs for
    eig_unitary: random members, an already diagonal one and a zero
    (or identity) one, which converge before the first sweep."""
    hs, us = [], []
    for _ in range(3):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        hs.append((m + m.conj().T) / 2)
    hs += [np.diag(rng.normal(size=n)), np.zeros((n, n))]
    gens = np.array([random_skew_hermitian(n, rng) for _ in range(3)])
    us = list(exp_skew(gens))
    us += [np.diag(np.exp(1j * rng.normal(size=n))), np.eye(n)]
    return np.array(hs, dtype=complex), np.array(us, dtype=complex)


@pytest.mark.parametrize("n", range(2, 9))
def test_stack_members_get_the_bits_they_get_alone(n):
    # the fused stages keep the bytes only because a member's (w, u)
    # does not depend on the stack it is decomposed in
    rng = np.random.default_rng(300 + n)
    hs, us = _bitwise_stacks(n, rng)
    order = rng.permutation(len(hs))
    for solve, stack in ((jacobi_eigh, hs), (eig_unitary, us)):
        whole = solve(stack)
        shuffled = solve(stack[order])
        for i, member in enumerate(stack):
            alone = solve(member[None])
            for part, w_alone in zip(whole, alone):
                assert np.array_equal(part[i], w_alone[0]), (solve, i)
            j = int(np.flatnonzero(order == i)[0])
            for part, w_alone in zip(shuffled, alone):
                assert np.array_equal(part[j], w_alone[0]), (solve, i)


def test_empty_stacks_give_empty_results():
    n, empty = 3, np.zeros((0, 3, 3), dtype=complex)
    bound = coroot_spectrum(n, 1) * (0.9 / (100 * n))
    w, u = jacobi_eigh(empty)
    assert w.shape == (0, n) and u.shape == (0, n, n)
    for spectra, frames in (hermitian_eigs(empty), eig_unitary(empty)):
        assert spectra.shape == (0, n) and frames.shape == (0, n, n)
    assert exp_skew(empty).shape == (0, n, n)
    z, at_cut = log_unitary_small(empty)
    assert z.shape == (0, n, n) and at_cut.shape == (0,)
    scaled, (spectra, frames) = rescaled_to_bound(empty, bound)
    assert scaled.shape == (0, n, n) and spectra.shape == (0, n)
    assert check_triangle(empty, empty) == []
    assert check_pairing_bound(empty, empty) == []
    assert check_klyachko(empty, empty, bound) == []
    assert check_interval_product(empty, empty, [], []) == []


def test_run_trials_rank_12():
    stats = run_trials(12, 3, seed=12)
    assert all(s.failures == 0 for s in stats)
    assert all(s.max_residual <= 1e-8 for s in stats)


def test_hermitian_eigs_zero_and_diagonal():
    z = np.zeros((3, 3))
    a = 1j * np.diag([0.5, -0.5]) * 2 * math.pi
    (spec,), _ = hermitian_eigs(z[None])
    assert np.allclose(spec, 0.0)
    (spec,), _ = hermitian_eigs(a[None])
    assert np.allclose(spec, [math.pi, -math.pi])


def test_norm_conjugation_invariance():
    rng = np.random.default_rng(5)
    for n in (3, 5):
        a = random_skew_hermitian(n, rng)
        (u,) = exp_skew(random_skew_hermitian(n, rng)[None])
        b = u @ a @ u.conj().T
        (sa, sb), _ = hermitian_eigs(np.array([a, b]))
        drift = np.abs(sa - sb).max()
        assert drift < 1e-8


def test_triangle_trivia():
    rng = np.random.default_rng(1)
    x = random_skew_hermitian(4, rng)
    zero = np.zeros((4, 4))
    r, r2 = check_triangle(np.array([x, x]), np.array([zero, -x]))
    assert r.ok and r.residual <= 1e-9
    assert r2.ok


def test_pairing_bound_cases():
    rng = np.random.default_rng(2)
    x = random_skew_hermitian(4, rng)
    (self_pair,) = check_pairing_bound(x[None], x[None])
    assert self_pair.ok
    (sx,), _ = hermitian_eigs(x[None])
    assert abs(float(np.real(-np.trace(x @ x))) - np.dot(sx, sx)) < 1e-9
    omega = random_skew_hermitian(4, rng)
    aligned = aligned_partner(omega, sx)
    (r,) = check_pairing_bound(omega[None], aligned[None])
    assert r.ok


def test_klyachko_trivial_cases():
    rng = np.random.default_rng(3)
    n = 3
    bound = coroot_spectrum(n, 1) * (0.9 / (100 * n))
    (x,), _ = rescaled_to_bound(random_skew_hermitian(n, rng)[None], bound)
    zero = np.zeros((n, n))
    # commuting diagonal case: Z = X + Y
    d1 = 1j * np.diag([1e-3, 0, -1e-3])
    d2 = 1j * np.diag([5e-4, -5e-4, 0])
    r, r2 = check_klyachko(np.array([x, d1]), np.array([zero, d2]), bound)
    assert r.ok
    assert r2.ok


def test_klyachko_precondition():
    rng = np.random.default_rng(4)
    n = 3
    bound = coroot_spectrum(n, 1) * (0.9 / (100 * n))
    big = random_skew_hermitian(n, rng)[None]
    with pytest.raises(ValueError):
        check_klyachko(big, big, bound)
    with pytest.raises(ValueError):
        check_klyachko(big, big, coroot_spectrum(n, 1))  # bound too large


def test_log_unitary_branch_guard():
    at_cut = np.diag([-1.0 + 0j, -1.0 + 0j, 1.0 + 0j])
    small = np.diag(np.exp(1j * np.array([0.01, -0.01, 0.0])))
    z, rejected = log_unitary_small(np.array([at_cut, small]))
    assert rejected.tolist() == [True, False]
    assert np.abs(np.trace(z[1])) < 1e-12


def test_eig_unitary_clusters():
    rng = np.random.default_rng(6)
    # conjugate phases share a cosine: the cluster pass must separate
    phis = np.array([0.3, -0.3, 0.0, 0.0])
    (frame,) = exp_skew(random_skew_hermitian(4, rng)[None])
    g = frame @ np.diag(np.exp(1j * phis)) @ frame.conj().T
    (eig,), _ = eig_unitary(g[None])
    assert np.abs(np.sort(np.angle(eig)) - np.sort(phis)).max() < 1e-8


def test_eig_unitary_separates_near_conjugate_pairs():
    # e^{i theta} and e^{i (eps - theta)} share their cosine to within
    # eps sin(theta); turned onto the imaginary axis they do not
    rng = np.random.default_rng(65)
    n, b = 6, 200
    phis = rng.uniform(-0.6, 0.6, size=(b, n))
    theta = rng.uniform(0.01, 0.6, size=b)
    phis[:, 0] = theta
    phis[:, 1] = 10 ** rng.uniform(-9, -4, size=b) - theta
    frames = exp_skew(
        np.array([random_skew_hermitian(n, rng) for _ in range(b)]))
    g = (frames * np.exp(1j * phis)[:, None, :]) @ (
        frames.conj().swapaxes(1, 2))
    eig, u = eig_unitary(g)
    d = u.conj().swapaxes(1, 2) @ g @ u
    assert np.abs(d - eig[:, :, None] * np.eye(n)).max() < 1e-12
    assert np.abs(np.sort(np.angle(eig)) - np.sort(phis)).max() < 1e-12


def test_interval_product_trivia():
    rng = np.random.default_rng(7)
    n = 3
    g = sample_unitary_in_window(n, (-0.4, 0.4), rng)
    ident = np.eye(n, dtype=complex)
    # commuting diagonal: arguments add exactly
    d1 = np.diag(np.exp(1j * np.array([0.2, -0.1, -0.1])))
    d2 = np.diag(np.exp(1j * np.array([0.1, 0.1, -0.2])))
    r, r2, wide = check_interval_product(
        np.array([g, d1, g]), np.array([ident, d2, g]),
        [(-0.4, 0.4), (-0.1, 0.2), (-4.0, 4.0)],
        [(0.0, 0.0), (-0.2, 0.1), (-4.0, 4.0)])
    assert r.ok
    assert r2.ok
    assert wide.ok and wide.residual == 0.0


@pytest.mark.parametrize("sign", (1, -1))
def test_interval_window_tolerance_is_symmetric(sign):
    # 1.5e-8 outside the window is beyond WINDOW_TOL on either side
    phi = sign * (0.2 + 1.5e-8)
    g = np.diag(np.exp(1j * np.array([phi, 0.0, 0.0])))
    ident = np.eye(3, dtype=complex)
    with pytest.raises(ValueError, match="factor violates"):
        check_interval_product(g[None], ident[None], [(-0.2, 0.2)],
                               [(0.0, 0.0)])
    # within WINDOW_TOL on either side the factor is accepted
    inside = np.diag(np.exp(1j * np.array([sign * (0.2 + 0.5e-8), 0, 0])))
    (r,) = check_interval_product(inside[None], ident[None], [(-0.2, 0.2)],
                                  [(0.0, 0.0)])
    assert r.ok


def test_interval_sampler_feasibility_guard():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        # no multiple of 2*pi inside [N*lo, N*hi]
        sample_unitary_in_window(5, (-1.63, -1.35), rng)


def test_run_trials_small_all_pass():
    for n in (2, 4):
        stats = run_trials(n, 25, seed=n)
        assert all(s.failures == 0 for s in stats)
        assert {s.name for s in stats} == {
            "triangle", "pairing", "log_product", "interval_product"
        }


@pytest.mark.parametrize("n", (2, 3, 6))
def test_run_trials_across_chunk_boundaries(monkeypatch, n):
    # chunks of 3 split 7 trials 3 + 3 + 1: draws and results must not
    # depend on where a chunk ends
    for seed in (1, 2, 3):
        default = [s.to_json() for s in run_trials(n, 7, seed)]
        monkeypatch.setattr(lie_numerics, "_CHUNK", 3)
        chunked = [s.to_json() for s in run_trials(n, 7, seed)]
        monkeypatch.undo()
        assert chunked == default, (n, seed)


def test_run_trials_corrupt_fixture_fails():
    stats = run_trials(3, 5, seed=1, corrupt=True)
    assert sum(s.failures for s in stats) >= 1
