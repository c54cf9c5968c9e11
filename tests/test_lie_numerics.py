import ast
import collections
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from flagsheaf import lie_numerics
from flagsheaf.lie_numerics import (
    NonConvergenceError,
    check_interval_product,
    check_klyachko,
    check_pairing_bound,
    check_triangle,
    coroot_spectrum,
    eig_unitary,
    eigh_stack,
    exp_skew,
    hermitian_eigs,
    log_unitary_small,
    random_skew_hermitian,
    rescaled_to_bound,
    run_trials,
    sample_unitary_in_window,
)
from oracles import (
    _round_robin,
    aligned_in_frame,
    aligned_partner,
    interval_rule_per_product,
    jacobi_eigh,
    pairing_rule_per_pair,
    random_skew_hermitian_alone,
    sequential_run_trials,
)


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
    monkeypatch.setattr(oracles, "MAX_SWEEPS", 1)
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
    monkeypatch.setattr(oracles, "MAX_SWEEPS", 1)
    jacobi_eigh(np.array(converged))
    with pytest.raises(NonConvergenceError):
        jacobi_eigh(np.array(converged + [(m + m.conj().T) / 2]))


@pytest.mark.parametrize("n", range(2, 13))
def test_spectra_and_verdicts_match_the_jacobi_oracle(monkeypatch, n):
    rng = np.random.default_rng(400 + n)
    hs = np.array(list(_jacobi_inputs(n, rng).values()), dtype=complex)
    xs = np.array([random_skew_hermitian(n, rng) for _ in range(4)])
    ps = exp_skew(np.array([random_skew_hermitian(n, rng) for _ in range(4)]))

    def observed():
        trials = [(s.trials, s.failures, s.rejected)
                  for s in run_trials(n, 50, seed=n)]
        phases = np.sort(np.angle(eig_unitary(ps)[0]), axis=1)
        return hermitian_eigs(xs)[0], phases, trials

    spectra, phases, trials = observed()
    assert np.abs(eigh_stack(hs)[0] - jacobi_eigh(hs)[0]).max() < 1e-10
    monkeypatch.setattr(lie_numerics, "eigh_stack", jacobi_eigh)
    want_spectra, want_phases, want_trials = observed()
    assert np.abs(spectra - want_spectra).max() < 1e-10
    assert np.abs(phases - want_phases).max() < 1e-10
    assert trials == want_trials


def test_gates_reject_a_bent_frame_or_eigenvalue(monkeypatch):
    rng = np.random.default_rng(47)
    xs = np.array([random_skew_hermitian(4, rng) for _ in range(2)])
    ps = exp_skew(xs)
    eigh = np.linalg.eigh
    turn = np.eye(4)
    turn[:2, :2] = [[np.cos(1e-4), -np.sin(1e-4)],
                    [np.sin(1e-4), np.cos(1e-4)]]
    bends = {
        # not orthonormal: caught by eigh_stack itself
        "orthogonality": (lambda w, u: (w, u * (1 + 1e-9)),
                          (hermitian_eigs, xs), (eig_unitary, ps)),
        # a wrong eigenvalue in a true frame
        "eigenpair residual": (lambda w, u: (w + [1e-6, 0, 0, 0], u),
                               (hermitian_eigs, xs)),
        # a unitary frame that does not diagonalize
        "unitary diagonalization": (lambda w, u: (w, u @ turn),
                                    (eig_unitary, ps)),
    }
    for message, (bend, *cases) in bends.items():
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda h, bend=bend: bend(*eigh(h)))
        for decompose, stack in cases:
            with pytest.raises(NonConvergenceError, match=message):
                decompose(stack)
    monkeypatch.undo()
    for decompose, stack in ((hermitian_eigs, xs), (eig_unitary, ps)):
        decompose(stack)


def test_one_gated_eigensolver_call():
    # any solver may propose a frame, but only behind the gates: the
    # module's one solver attribute is eigh_stack's LAPACK call, the
    # decompositions reach it through eigh_stack alone, and no solver
    # comes in by import, by name or from scipy
    tree = ast.parse(Path(lie_numerics.__file__).read_text())
    solvers = {"eig", "eigh", "eigvals", "eigvalsh", "svd"}
    found = [
        (getattr(stmt, "name", None), ast.unparse(node))
        for stmt in tree.body for node in ast.walk(stmt)
        if isinstance(node, ast.Attribute) and node.attr in solvers
    ]
    assert found == [("eigh_stack", "np.linalg.eigh")]
    functions = {stmt.name: stmt for stmt in tree.body
                 if isinstance(stmt, ast.FunctionDef)}

    def called(name):
        return {ast.unparse(node.func) for node in ast.walk(functions[name])
                if isinstance(node, ast.Call)}

    gate = {node.id for node in ast.walk(functions["eigh_stack"])
            if isinstance(node, ast.Name)}
    assert {"ORTHO_TOL", "NonConvergenceError"} <= gate
    for name in ("hermitian_eigs", "eig_unitary"):
        assert "eigh_stack" in called(name), name
    # the alias the benchmark traces is the gate itself, not a bypass
    assert lie_numerics.jacobi_eigh is eigh_stack
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            assert node.value not in solvers, ast.unparse(node)
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


def _count_solver(monkeypatch):
    """Record the shape of every eigh_stack call, (b, n, n) for a
    stack, and how many calls each eig_unitary call made."""
    calls, inside = [], []
    solver, unitary = lie_numerics.eigh_stack, lie_numerics.eig_unitary

    def counted_solver(h, *args, **kwargs):
        calls.append(np.shape(h))
        return solver(h, *args, **kwargs)

    def counted_unitary(p, *args, **kwargs):
        before = len(calls)
        out = unitary(p, *args, **kwargs)
        inside.append(len(calls) - before)
        return out

    monkeypatch.setattr(lie_numerics, "eigh_stack", counted_solver)
    monkeypatch.setattr(lie_numerics, "eig_unitary", counted_unitary)
    return calls, inside


def test_pairing_bound_decomposes_each_matrix_once(monkeypatch):
    rng = np.random.default_rng(60)
    omega = random_skew_hermitian(6, rng)
    x = random_skew_hermitian(6, rng)
    calls, _ = _count_solver(monkeypatch)
    assert check_pairing_bound([omega], [x])[0].ok
    # x and omega in one stacked call
    assert calls == [(2, 6, 6)]


def test_triangle_and_interval_product_stack_their_matrices(monkeypatch):
    rng = np.random.default_rng(62)
    x, y = random_skew_hermitian(5, rng), random_skew_hermitian(5, rng)
    w1, w2 = (-0.4, 0.4), (-0.3, 0.3)
    g1 = sample_unitary_in_window(5, w1, rng)
    g2 = sample_unitary_in_window(5, w2, rng)
    calls, inside = _count_solver(monkeypatch)
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
    calls, inside = _count_solver(monkeypatch)
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
    calls, inside = _count_solver(monkeypatch)
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
    stages, windows = _record_stages(monkeypatch)
    stats = run_trials(n, trials, seed)
    monkeypatch.undo()

    assert all(s.trials == trials and s.failures == 0 and s.rejected == 0
               for s in stats)
    triangle, pairing, log, interval = _reference_draws(n, trials, seed)
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
    calls, inside = _count_solver(monkeypatch)
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
    """Hermitian inputs for eigh_stack and unitary inputs for
    eig_unitary: random members, an already diagonal one and a zero
    (or identity) one."""
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
    for solve, stack in ((eigh_stack, hs), (eig_unitary, us)):
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
    for solve in (eigh_stack, jacobi_eigh):
        w, u = solve(empty)
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


def test_klyachko_branch_cut_is_an_error(monkeypatch):
    # the bound keeps every eigenvalue of e^X e^Y near 1, so a pair
    # flagged at the branch cut means a broken decomposition, as in
    # run_trials: an error, not a missing result
    rng = np.random.default_rng(5)
    n = 3
    bound = coroot_spectrum(n, 1) * (0.9 / (100 * n))
    xs, _ = rescaled_to_bound(
        np.array([random_skew_hermitian(n, rng) for _ in range(4)]), bound)
    assert all(r.ok for r in check_klyachko(xs[:2], xs[2:], bound))
    logs = lie_numerics._log_in_frame

    def flag_last(eig, u):
        z, at_cut = logs(eig, u)
        at_cut[-1:] = True  # as if the product had an eigenvalue at -1
        return z, at_cut

    monkeypatch.setattr(lie_numerics, "_log_in_frame", flag_last)
    with pytest.raises(NonConvergenceError, match="branch cut"):
        check_klyachko(xs[:2], xs[2:], bound)


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


@pytest.mark.parametrize("n", range(2, 13))
def test_stacked_skew_projection_matches_one_matrix_at_a_time(n):
    # one (b, 2, n, n) draw holds the values, in order, of 2b draws of
    # (n, n), and its projection the bits of the per-matrix projection
    stacked, alone = np.random.default_rng(n), np.random.default_rng(n)
    for b in (1, 2, 7):
        xs = lie_numerics._skew_from_normals(
            stacked.normal(size=(b, 2, n, n)))
        want = [random_skew_hermitian_alone(n, alone) for _ in range(b)]
        assert xs.shape == (b, n, n)
        assert all(np.array_equal(x, w) for x, w in zip(xs, want))
        assert np.array_equal(random_skew_hermitian(n, stacked),
                              random_skew_hermitian_alone(n, alone))
        assert stacked.bit_generator.state == alone.bit_generator.state


@pytest.mark.parametrize("n", range(2, 13))
def test_stacked_pairing_rule_matches_the_per_pair_rule(n):
    rng = np.random.default_rng(700 + n)
    omegas = np.array([random_skew_hermitian(n, rng) for _ in range(6)])
    xs = np.array([random_skew_hermitian(n, rng) for _ in range(6)])
    s_omega, f_omega = hermitian_eigs(omegas)
    s_x, _ = hermitian_eigs(xs)
    aligned = lie_numerics._aligned_in_frame(f_omega, s_x)
    assert all(np.array_equal(a, aligned_in_frame(f, s))
               for a, f, s in zip(aligned, f_omega, s_x))
    # random partners, then the aligned ones, which meet the bound with
    # equality, and a corrupted one that breaks it
    xs = np.concatenate([xs, aligned, aligned[:1] * 2.0])
    s_x = np.concatenate([s_x, s_x, s_x[:1]])
    args = (np.concatenate([omegas, omegas, omegas[:1]]), xs,
            np.concatenate([s_omega, s_omega, s_omega[:1]]), s_x,
            np.concatenate([f_omega, f_omega, f_omega[:1]]))
    got = lie_numerics._pairing_rule(*args)
    want = pairing_rule_per_pair(*args)
    assert [(r.ok, r.residual) for r in got] == [
        (r.ok, r.residual) for r in want]
    assert not got[-1].ok and all(r.ok for r in got[:-1])


@pytest.mark.parametrize("n", range(2, 13))
def test_stacked_interval_rule_matches_the_per_product_rule(n):
    rng = np.random.default_rng(800 + n)
    b = 9
    lo1, lo2 = rng.uniform(-1.0, 0.0, size=(2, b))
    w1 = np.stack([lo1, lo1 + rng.uniform(0.0, 1.5, size=b)], axis=1)
    w2 = np.stack([lo2, lo2 + rng.uniform(0.0, 1.5, size=b)], axis=1)
    w1[0], w2[0] = (-3.5, 3.5), (-1.0, 2.0)  # a sum window of a full turn
    phis1 = rng.uniform(w1[:, :1], w1[:, 1:], size=(b, n))
    phis2 = rng.uniform(w2[:, :1], w2[:, 1:], size=(b, n))
    # products inside, near and far outside the sum window, wrapped
    phis12 = rng.uniform(w1[:, :1] + w2[:, :1] - 0.5,
                         w1[:, 1:] + w2[:, 1:] + 0.5, size=(b, n))
    phis12 = np.angle(np.exp(1j * phis12))
    windows1, windows2 = list(map(tuple, w1)), list(map(tuple, w2))
    args = (phis1, phis2, phis12, windows1, windows2)
    got = lie_numerics._interval_rule(*args)
    want = interval_rule_per_product(*args)
    assert [(r.ok, r.residual) for r in got] == [
        (r.ok, r.residual) for r in want]
    assert got[0].ok and got[0].residual == 0.0
    assert any(not r.ok for r in got)
    # a factor argument past its window's upper or lower end
    bad1, bad2 = phis1.copy(), phis2.copy()
    bad1[-1, 0], bad2[-1, 0] = w1[-1, 1] + 1e-6, w2[-1, 0] - 1e-6
    for factors in ((bad1, phis2), (phis1, bad2)):
        for rule in (lie_numerics._interval_rule, interval_rule_per_product):
            with pytest.raises(ValueError, match="factor violates"):
                rule(*factors, phis12, windows1, windows2)


@pytest.mark.parametrize("n, window, k", [
    (12, (2 * math.pi / 12 - 0.6, 2 * math.pi / 12 + 0.6), 1),
    (11, (-2 * math.pi / 11 - 0.6, -2 * math.pi / 11 + 0.6), -1),
    (3, (0.0, 1.8 * math.pi), 1),
])
def test_window_draws_center_on_the_target_nearest_the_midpoint(n, window, k):
    # the widest margin comes from the feasible 2*pi*k/N nearest the
    # window's midpoint: a draw centres there and uses 98% of the margin
    lo, hi = window
    center = 2 * math.pi * k / n
    phi, _ = lie_numerics._draw_in_window(n, window, np.random.default_rng(n))
    assert abs(phi.mean() - center) < 1e-12
    margin = min(center - lo, hi - center)
    assert abs(np.abs(phi - center).max() - 0.98 * margin) < 1e-12


@pytest.mark.parametrize("n", range(2, 13))
def test_run_trials_windows_admit_one_target_up_to_rank_10(n):
    # run_trials centres its windows on 2*pi*k/N, k in {-1, 0, 1}, with
    # half-widths up to 0.6: only from N = 11 on does a second target
    # 2*pi*k'/N fit, so only there did the centring rule decide
    rng = np.random.default_rng(n)
    for k in (-1, 0, 1):
        c = 2 * math.pi * k / n
        lo, hi = c - 0.6, c + 0.6
        k_lo = math.ceil(n * lo / (2 * math.pi) - 1e-12)
        k_hi = math.floor(n * hi / (2 * math.pi) + 1e-12)
        assert (k_hi > k_lo) == (n >= 11)
        phi, _ = lie_numerics._draw_in_window(n, (lo, hi), rng)
        assert abs(phi.mean() - c) < 1e-12


def _entries(run):
    """The lie_numerics functions entered while run() runs, in order,
    generator and comprehension frames included."""
    names = []

    def profile(frame, event, arg):
        if (event == "call"
                and frame.f_code.co_filename == lie_numerics.__file__):
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return names


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_a_unit_makes_a_fixed_number_of_calls(monkeypatch, seed):
    # a unit's calls do not grow with its triangle, pairing and
    # log-product trials; each interval trial adds its two window draws
    one = collections.Counter(_entries(lambda: run_trials(6, 1, seed)))
    many = collections.Counter(_entries(lambda: run_trials(6, 60, seed)))
    assert many - one == collections.Counter({"_draw_in_window": 2 * 59})
    assert not one - many
    # the bound and its cap are checked once per call, before any unit
    monkeypatch.setattr(lie_numerics, "_CHUNK", 3)
    names = _entries(lambda: run_trials(6, 7, seed))
    # ten units, each validating stage A, the rescaled log-product pairs
    # and stage C
    assert names.count("hermitian_eigs") == 2 * 10
    assert names.count("_skew_stack") == 3 * 10
    for check in ("_capped_bound", "_bound_spectrum"):
        assert names.count(check) == 1
        assert names.index(check) < names.index("_skew_from_normals")


def test_klyachko_checks_the_cap_on_its_bound():
    # inputs well inside a bound that itself exceeds e_1 / (100 N)
    n = 3
    x = 1j * np.diag([1e-4, 0.0, -1e-4])
    for bound in (coroot_spectrum(n, 1), coroot_spectrum(n, 2) / 50):
        with pytest.raises(ValueError, match="strictly below"):
            check_klyachko(x[None], x[None], bound)
    assert check_klyachko(x[None], x[None],
                          coroot_spectrum(n, 1) * (0.9 / (100 * n)))[0].ok


def test_eig_unitary_runs_the_cluster_pass_on_every_cluster(monkeypatch):
    # two phases this close give turned cosines closer than CLUSTER_TOL
    # (a cluster) or not (none); the pass runs once per cluster, and a
    # matrix without one skips it
    rng = np.random.default_rng(66)
    n, gaps = 5, (0.0, 3e-8, 5e-6)
    frames = exp_skew(np.array([random_skew_hermitian(n, rng)
                                for _ in gaps]))
    phis = np.array([[0.4, 0.4 + gap, -0.1, -0.3, -0.4 - gap]
                     for gap in gaps])
    g = (frames * np.exp(1j * phis)[:, None, :]) @ (
        frames.conj().swapaxes(1, 2))
    calls, inside = _count_solver(monkeypatch)
    eig, _ = lie_numerics.eig_unitary(g)
    assert inside == [1 + 2]
    assert calls[1:] == [(1, 2, 2), (1, 2, 2)]
    assert np.abs(np.sort(np.angle(eig)) - np.sort(phis)).max() < 1e-9
