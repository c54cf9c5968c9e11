import math

import numpy as np
import pytest

from flagsheaf import lie_numerics
from flagsheaf.lie_numerics import (
    BranchAmbiguityError,
    NonConvergenceError,
    SkewHermitian,
    SpectrumVector,
    aligned_partner,
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
    norm_spectrum,
    random_skew_hermitian,
    rescaled_to_bound,
    run_trials,
    sample_unitary_in_window,
    spectrum_pairing,
)
from flagsheaf.lie_numerics import _round_robin


def test_skew_hermitian_validation():
    with pytest.raises(ValueError):
        SkewHermitian(np.eye(3))  # Hermitian, not skew
    with pytest.raises(ValueError):
        SkewHermitian(1j * np.eye(3))  # nonzero trace
    SkewHermitian(1j * np.diag([1.0, -1.0]))


def test_spectrum_vector_validation():
    with pytest.raises(ValueError):
        SpectrumVector(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        SpectrumVector(np.array([1.0, 0.0]))
    s = SpectrumVector(np.array([1.0, 0.0, -1.0]))
    assert np.allclose(s.partial_sums(), [1.0, 1.0])


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5, 8):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (m + m.conj().T) / 2
        w, u = jacobi_eigh(h)
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
        w, u = jacobi_eigh(h)
        assert np.all(np.diff(w) <= 0), kind
        assert np.abs(w - np.linalg.eigvalsh(h)[::-1]).max() < 1e-10, kind
        assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-12, kind


def test_jacobi_sweep_limit_raises():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    with pytest.raises(NonConvergenceError):
        jacobi_eigh((m + m.conj().T) / 2, max_sweeps=1)


def _count_jacobi(monkeypatch):
    """Record the matrix order of every jacobi_eigh call, and how many
    of them each eig_unitary call made."""
    calls, inside = [], []
    jacobi, unitary = lie_numerics.jacobi_eigh, lie_numerics.eig_unitary

    def counted_jacobi(h, *args, **kwargs):
        calls.append(len(h))
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
    assert check_pairing_bound(omega, x).ok
    assert calls == [6, 6]


def test_klyachko_decomposes_each_matrix_once(monkeypatch):
    n = 6
    rng = np.random.default_rng(61)
    bound = coroot_spectrum(n, 1).scale(0.9 / (100 * n))
    x = rescaled_to_bound(random_skew_hermitian(n, rng), bound)
    y = rescaled_to_bound(random_skew_hermitian(n, rng), bound)
    calls, inside = _count_jacobi(monkeypatch)
    assert check_klyachko(x, y, bound).ok
    # x, y and z once each; eig_unitary adds one run per cosine cluster,
    # and under this bound at N = 6 the cosines of e^X e^Y always cluster
    assert len(inside) == 1
    assert len(calls) - inside[0] == 3


def test_klyachko_without_clusters_makes_four_jacobi_runs(monkeypatch):
    # commuting diagonal inputs whose product has well-separated cosines
    n = 3
    bound = coroot_spectrum(n, 1).scale(0.9 / (100 * n))
    x = SkewHermitian(1j * np.diag([1.5e-3, -0.6e-3, -0.9e-3]))
    calls, inside = _count_jacobi(monkeypatch)
    assert check_klyachko(x, x, bound).ok
    assert inside == [1]
    assert calls == [3, 3, 3, 3]


def test_run_trials_rank_12():
    stats = run_trials(12, 3, seed=12)
    assert all(s.failures == 0 for s in stats)
    assert all(s.max_residual <= 1e-8 for s in stats)


def test_hermitian_eigs_zero_and_diagonal():
    z = SkewHermitian(np.zeros((3, 3)))
    spec, _ = hermitian_eigs(z)
    assert np.allclose(spec.lambdas, 0.0)
    a = SkewHermitian(1j * np.diag([0.5, -0.5]) * 2 * math.pi)
    spec, _ = hermitian_eigs(a)
    assert np.allclose(spec.lambdas, [math.pi, -math.pi])


def test_norm_conjugation_invariance():
    rng = np.random.default_rng(5)
    for n in (3, 5):
        a = random_skew_hermitian(n, rng)
        u = exp_skew(random_skew_hermitian(n, rng))
        b = SkewHermitian(u @ a.entries @ u.conj().T)
        drift = np.abs(
            norm_spectrum(a).lambdas - norm_spectrum(b).lambdas
        ).max()
        assert drift < 1e-8


def test_triangle_trivia():
    rng = np.random.default_rng(1)
    x = random_skew_hermitian(4, rng)
    zero = SkewHermitian(np.zeros((4, 4)))
    r = check_triangle(x, zero)
    assert r.ok and r.residual <= 1e-9
    r2 = check_triangle(x, SkewHermitian(-x.entries))
    assert r2.ok


def test_pairing_bound_cases():
    rng = np.random.default_rng(2)
    x = random_skew_hermitian(4, rng)
    self_pair = check_pairing_bound(x, x)
    assert self_pair.ok
    sx = norm_spectrum(x)
    assert abs(
        float(np.real(-np.trace(x.entries @ x.entries)))
        - spectrum_pairing(sx, sx)
    ) < 1e-9
    omega = random_skew_hermitian(4, rng)
    aligned = aligned_partner(omega, sx)
    r = check_pairing_bound(omega, aligned)
    assert r.ok


def test_klyachko_trivial_cases():
    rng = np.random.default_rng(3)
    n = 3
    bound = coroot_spectrum(n, 1).scale(0.9 / (100 * n))
    x = rescaled_to_bound(random_skew_hermitian(n, rng), bound)
    zero = SkewHermitian(np.zeros((n, n)))
    r = check_klyachko(x, zero, bound)
    assert r.ok
    # commuting diagonal case: Z = X + Y
    d1 = SkewHermitian(1j * np.diag([1e-3, 0, -1e-3]))
    d2 = SkewHermitian(1j * np.diag([5e-4, -5e-4, 0]))
    r2 = check_klyachko(d1, d2, bound)
    assert r2.ok


def test_klyachko_precondition():
    rng = np.random.default_rng(4)
    n = 3
    bound = coroot_spectrum(n, 1).scale(0.9 / (100 * n))
    big = random_skew_hermitian(n, rng)
    with pytest.raises(ValueError):
        check_klyachko(big, big, bound)
    with pytest.raises(ValueError):
        check_klyachko(big, big, coroot_spectrum(n, 1))  # bound too large


def test_log_unitary_branch_guard():
    with pytest.raises(BranchAmbiguityError):
        log_unitary_small(np.diag([-1.0 + 0j, -1.0 + 0j, 1.0 + 0j]))
    z = log_unitary_small(np.diag(np.exp(1j * np.array([0.01, -0.01, 0.0]))))
    assert np.abs(np.trace(z.entries)) < 1e-12


def test_eig_unitary_clusters():
    rng = np.random.default_rng(6)
    # conjugate phases share a cosine: the cluster pass must separate
    phis = np.array([0.3, -0.3, 0.0, 0.0])
    frame = exp_skew(random_skew_hermitian(4, rng))
    g = frame @ np.diag(np.exp(1j * phis)) @ frame.conj().T
    eig, u = eig_unitary(g)
    assert np.abs(np.sort(np.angle(eig)) - np.sort(phis)).max() < 1e-8


def test_interval_product_trivia():
    rng = np.random.default_rng(7)
    n = 3
    g = sample_unitary_in_window(n, (-0.4, 0.4), rng)
    ident = np.eye(n, dtype=complex)
    r = check_interval_product(g, ident, (-0.4, 0.4), (0.0, 0.0))
    assert r.ok
    # commuting diagonal: arguments add exactly
    d1 = np.diag(np.exp(1j * np.array([0.2, -0.1, -0.1])))
    d2 = np.diag(np.exp(1j * np.array([0.1, 0.1, -0.2])))
    r2 = check_interval_product(d1, d2, (-0.1, 0.2), (-0.2, 0.1))
    assert r2.ok
    wide = check_interval_product(g, g, (-4.0, 4.0), (-4.0, 4.0))
    assert wide.ok and wide.detail == "window >= full turn"


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


def test_run_trials_corrupt_fixture_fails():
    stats = run_trials(3, 5, seed=1, corrupt=True)
    assert sum(s.failures for s in stats) >= 1
