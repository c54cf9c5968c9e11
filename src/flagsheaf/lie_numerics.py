"""Floating-point verification of the matrix lemmas on su(N).

Everything here works with genuine complex matrices: skew-Hermitian
traceless X with the invariant product <X, Y> = -Tr(XY), the dominant
representative ||X|| (the descending spectrum of -iX), and products of
special-unitary exponentials.  Eigendecompositions use a self-contained
round-robin (parallel-ordered) cyclic Jacobi iteration (Brent-Luk, 1985,
intended for N <= 12), once per matrix per check; unitary matrices are
diagonalized by two Hermitian Jacobi passes (Hermitian part for the
frame, skew part inside clusters), so no external eigensolver is
involved in the verified path.

Checked statements, each with an explicit tolerance:

* triangle:  ||X + Y|| <= ||X|| + ||Y||   (partial sums of spectra);
* pairing:   <w, X> <= <||w||, ||X||>, with equality on conjugation-
  aligned pairs;
* products:  if g_k ~ [a_k, b_k] then g_1 g_2 ~ [a_1+a_2, b_1+b_2]
  (eigenvalue arguments, window smaller than 2*pi);
* logarithms: for ||X||, ||Y|| small, e^X e^Y = e^Z with
  ||Z|| <= ||X|| + ||Y||, Z produced by the principal branch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class NonConvergenceError(RuntimeError):
    """Jacobi iteration failed to reach the target off-diagonal norm."""


class BranchAmbiguityError(ValueError):
    """An eigenvalue of a unitary product sits too close to -1 for the
    principal logarithm; the sample must be rejected."""


# ---------------------------------------------------------------------------
# matrix containers


@dataclass(frozen=True)
class SkewHermitian:
    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("square matrix required")
        scale = max(1.0, float(np.abs(a).max()))
        if np.abs(a + a.conj().T).max() > 1e-12 * scale:
            raise ValueError("matrix is not skew-Hermitian within 1e-12")
        if abs(np.trace(a)) > 1e-12 * scale:
            raise ValueError("matrix is not traceless within 1e-12")

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectrumVector:
    """Descending spectrum of -iX for traceless skew-Hermitian X."""

    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        if np.any(np.diff(lam) > 1e-12):
            raise ValueError("spectrum must be sorted descending")
        if abs(lam.sum()) > 1e-9 * max(1.0, np.abs(lam).max()):
            raise ValueError("spectrum must sum to zero")

    @property
    def n(self) -> int:
        return self.lambdas.shape[0]

    def partial_sums(self) -> np.ndarray:
        """<., e_k> for k = 1..N-1: top-k sums of the spectrum."""
        return np.cumsum(self.lambdas)[:-1]

    def __add__(self, other: "SpectrumVector") -> "SpectrumVector":
        return SpectrumVector(self.lambdas + other.lambdas)

    def scale(self, c: float) -> "SpectrumVector":
        if c < 0:
            raise ValueError("scaling a dominant spectrum by c < 0")
        return SpectrumVector(self.lambdas * c)


def dominated_by(a: SpectrumVector, b: SpectrumVector, tol: float) -> bool:
    """a <= b in dominance order, within tol on every partial sum."""
    return bool(np.all(a.partial_sums() <= b.partial_sums() + tol))


def spectrum_pairing(a: SpectrumVector, b: SpectrumVector) -> float:
    """<||a||, ||b||> = sum of products of aligned sorted spectra."""
    return float(np.dot(a.lambdas, b.lambdas))


def coroot_spectrum(n: int, k: int) -> SpectrumVector:
    """Spectrum of the k-th coroot matrix: (N-k)/N (k times), then
    -k/N."""
    lam = np.concatenate(
        [np.full(k, (n - k) / n), np.full(n - k, -k / n)]
    )
    return SpectrumVector(lam)


# ---------------------------------------------------------------------------
# round-robin cyclic Jacobi for Hermitian matrices


@functools.lru_cache(maxsize=32)
def _round_robin(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """One sweep of the circle-method tournament on n indices: rounds
    of disjoint pairs (p, q), p < q, covering every pair once.  Odd n
    is padded with a phantom index whose pair sits out the round."""
    m = n + n % 2
    rounds = []
    for r in range(m - 1):
        seats = [0] + [1 + (k + r) % (m - 1) for k in range(m - 1)]
        pairs = zip(seats[: m // 2], seats[::-1])
        ps, qs = np.array(
            [sorted(pq) for pq in pairs if max(pq) < n], dtype=int
        ).reshape(-1, 2).T
        # flat offsets of the (p,p), (q,q), (p,q), (q,p) entries
        put = np.concatenate([ps * (n + 1), qs * (n + 1), ps * n + qs,
                              qs * n + ps])
        rounds.append((ps, qs, put))
    return tuple(rounds)


def jacobi_eigh(
    h: np.ndarray, tol: float = 1e-13, max_sweeps: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and unitary frame of a Hermitian
    matrix by round-robin (parallel-ordered) cyclic Jacobi rotations
    (Brent-Luk, 1985): each round rotates up to floor(n/2) disjoint
    pairs at once, as one unitary g with a <- g^H a g and u <- u g.

    Returns (w, u) with h  =  u @ diag(w) @ u^H.  Raises
    :class:`NonConvergenceError` when the off-diagonal norm does not
    fall below tol * ||h||_F within ``max_sweeps`` sweeps.
    """
    a = np.array(h, dtype=complex)
    n = a.shape[0]
    scale = max(np.linalg.norm(a), 1e-300)
    eye = np.eye(n, dtype=complex)
    u = eye
    rounds = _round_robin(n)
    for _ in range(max_sweeps):
        off = np.linalg.norm(a - np.diag(np.diag(a)))
        if off <= tol * scale:
            break
        for ps, qs, put in rounds:
            apq = a[ps, qs]
            mag = np.abs(apq)
            live = mag > 1e-300
            mag = np.where(live, mag, 1.0)
            diag = a.diagonal().real
            tau = (diag[ps] - diag[qs]) / (2.0 * mag)
            sign = np.where(tau != 0, np.copysign(1.0, tau), 1.0)
            # skipped pairs get t = 0, the identity rotation
            t = np.where(live, sign / (np.abs(tau) + np.hypot(1.0, tau)), 0)
            c = 1.0 / np.hypot(1.0, t)
            s_phase = t * c * (apq / mag)
            g = eye.copy()
            g.flat[put] = np.concatenate([c, c, -s_phase, s_phase.conj()])
            a = g.conj().T @ a @ g
            u = u @ g
    else:
        off = np.linalg.norm(a - np.diag(np.diag(a)))
        raise NonConvergenceError(
            f"Jacobi iteration stalled with off-diagonal residual {off:.3e}"
        )
    w = np.diag(a).real
    order = np.argsort(-w)
    return w[order], u[:, order]


def hermitian_eigs(
    x: SkewHermitian, residual_tol: float = 1e-9
) -> tuple[SpectrumVector, np.ndarray]:
    """Spectrum of -iX (descending) and a diagonalizing frame, with a
    per-pair residual check."""
    h = -1j * x.entries
    w, u = jacobi_eigh(h)
    res = np.abs(h @ u - u @ np.diag(w)).max()
    if res > residual_tol:
        raise NonConvergenceError(f"eigenpair residual {res:.3e}")
    lam = w - w.sum() / len(w)  # exact tracelessness drifted by rounding
    return SpectrumVector(np.sort(lam)[::-1]), u


def norm_spectrum(x: SkewHermitian) -> SpectrumVector:
    """The dominant representative ||X||."""
    return hermitian_eigs(x)[0]


def exp_skew(x: SkewHermitian) -> np.ndarray:
    """e^X via the Jacobi eigendecomposition of -iX."""
    return _exp_in_frame(x, hermitian_eigs(x)[1])


def _exp_in_frame(x: SkewHermitian, u: np.ndarray) -> np.ndarray:
    """e^X in a frame u diagonalizing -iX."""
    # hermitian_eigs re-centers; use the raw frame eigenvalues instead
    h = -1j * x.entries
    w = np.real(np.diag(u.conj().T @ h @ u))
    return u @ np.diag(np.exp(1j * w)) @ u.conj().T


def eig_unitary(
    p: np.ndarray, cluster_tol: float = 1e-7, residual_tol: float = 1e-8
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and frame of a unitary matrix.

    The Hermitian part fixes the frame up to clusters of equal
    cosines; the skew part separates conjugate phases inside each
    cluster.  Two Jacobi passes in total.
    """
    n = p.shape[0]
    h = (p + p.conj().T) / 2.0
    _, u = jacobi_eigh(h)
    d = u.conj().T @ p @ u
    cos = np.real(np.diag(d))
    # cluster indices of (numerically) equal cosines
    order = np.argsort(-cos)
    u = u[:, order]
    d = u.conj().T @ p @ u
    cos = np.real(np.diag(d))
    start = 0
    for stop in range(1, n + 1):
        if stop < n and abs(cos[stop] - cos[start]) <= cluster_tol:
            continue
        if stop - start > 1:
            block = d[start:stop, start:stop]
            k = (block - block.conj().T) / 2j
            _, v = jacobi_eigh(k)
            u[:, start:stop] = u[:, start:stop] @ v
        start = stop
    d = u.conj().T @ p @ u
    eig = np.diag(d)
    off = np.abs(d - np.diag(eig)).max()
    if off > residual_tol:
        raise NonConvergenceError(
            f"unitary diagonalization residual {off:.3e}"
        )
    return eig, u


def log_unitary_small(
    p: np.ndarray, branch_guard: float = 1e-6
) -> SkewHermitian:
    """Principal logarithm of a special-unitary matrix, guarding the
    branch cut: samples with an eigenvalue within ``branch_guard`` of
    -1 are rejected."""
    eig, u = eig_unitary(p)
    if np.abs(eig + 1.0).min() < branch_guard:
        raise BranchAmbiguityError("eigenvalue at the branch cut")
    phi = np.angle(eig)
    phi = phi - phi.sum() / len(phi)
    z = u @ np.diag(1j * phi) @ u.conj().T
    z = (z - z.conj().T) / 2.0
    z = z - np.trace(z) / len(phi) * np.eye(len(phi))
    return SkewHermitian(z)


# ---------------------------------------------------------------------------
# the checks


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    residual: float
    detail: str = ""


def check_triangle(
    x: SkewHermitian, y: SkewHermitian, tol: float = 1e-9
) -> CheckResult:
    """Partial-sum comparison of ||X+Y|| against ||X|| + ||Y||."""
    sx = norm_spectrum(x)
    sy = norm_spectrum(y)
    sxy = norm_spectrum(SkewHermitian(x.entries + y.entries))
    gap = sxy.partial_sums() - (sx.partial_sums() + sy.partial_sums())
    worst = float(gap.max()) if len(gap) else 0.0
    return CheckResult(ok=worst <= tol, residual=max(worst, 0.0))


def aligned_partner(
    omega: SkewHermitian, spectrum: SpectrumVector
) -> SkewHermitian:
    """The conjugate of i*diag(spectrum) in a frame diagonalizing
    omega; realizes equality in the pairing bound."""
    return _aligned_in_frame(omega, hermitian_eigs(omega)[1], spectrum)


def _aligned_in_frame(
    omega: SkewHermitian, u: np.ndarray, spectrum: SpectrumVector
) -> SkewHermitian:
    """aligned_partner in a frame u diagonalizing -i omega, columns in
    descending eigenvalue order."""
    x = u @ np.diag(1j * spectrum.lambdas) @ u.conj().T
    x = (x - x.conj().T) / 2.0
    x = x - np.trace(x) / omega.n * np.eye(omega.n)
    return SkewHermitian(x)


def check_pairing_bound(
    omega: SkewHermitian,
    x: SkewHermitian,
    tol: float = 1e-9,
    equality_tol: float = 1e-8,
) -> CheckResult:
    """<w, X> = -Tr(wX) <= <||w||, ||X||>; on the aligned partner of
    w with the spectrum of X, equality within ``equality_tol``."""
    lhs = float(np.real(-np.trace(omega.entries @ x.entries)))
    sx = norm_spectrum(x)
    so, uo = hermitian_eigs(omega)
    rhs = spectrum_pairing(so, sx)
    gap = lhs - rhs
    aligned = _aligned_in_frame(omega, uo, sx)
    lhs_eq = float(np.real(-np.trace(omega.entries @ aligned.entries)))
    eq_gap = abs(lhs_eq - rhs)
    ok = gap <= tol and eq_gap <= equality_tol
    return CheckResult(
        ok=ok,
        residual=max(gap, eq_gap, 0.0),
        detail=f"lhs={lhs:.6e} rhs={rhs:.6e} aligned_gap={eq_gap:.3e}",
    )


def check_klyachko(
    x: SkewHermitian,
    y: SkewHermitian,
    bound: SpectrumVector,
    tol: float = 1e-8,
) -> CheckResult:
    """e^X e^Y = e^Z with ||Z|| <= ||X|| + ||Y||, for ||X||, ||Y||
    below a dominant bound that is itself below e_1 / (100 N)."""
    n = x.n
    cap = coroot_spectrum(n, 1).scale(1.0 / (100.0 * n))
    if not dominated_by(bound, cap, 0.0):
        raise ValueError("bound must lie strictly below e_1 / (100 N)")
    (sx, ux), (sy, uy) = hermitian_eigs(x), hermitian_eigs(y)
    if not (dominated_by(sx, bound, 1e-12) and dominated_by(sy, bound, 1e-12)):
        raise ValueError("inputs exceed the stated norm bound")
    prod = _exp_in_frame(x, ux) @ _exp_in_frame(y, uy)
    z = log_unitary_small(prod)
    sz, uz = hermitian_eigs(z)
    recon = np.abs(_exp_in_frame(z, uz) - prod).max()
    trace_res = abs(np.trace(z.entries))
    gap = sz.partial_sums() - (sx.partial_sums() + sy.partial_sums())
    worst = float(gap.max()) if len(gap) else 0.0
    ok = recon <= tol and worst <= tol and trace_res <= 1e-9
    return CheckResult(
        ok=ok,
        residual=max(recon, worst, trace_res, 0.0),
        detail=f"recon={recon:.3e} dominance_gap={worst:.3e}",
    )


def _arg_in_window(phi: float, lo: float, hi: float, tol: float) -> bool:
    """Whether some 2*pi-translate of phi lies in [lo - tol, hi + tol]."""
    if hi - lo >= TWO_PI:
        return True
    shifted = (phi - lo) % TWO_PI
    return shifted <= (hi - lo) + 2 * tol or shifted >= TWO_PI - tol


def check_interval_product(
    g1: np.ndarray,
    g2: np.ndarray,
    window1: tuple[float, float],
    window2: tuple[float, float],
    tol: float = 1e-8,
) -> CheckResult:
    """All eigenvalue arguments of g1 g2 lie in the sum window, taken
    in the unique short interval when the sum window is shorter than a
    full turn."""
    for g, (lo, hi) in ((g1, window1), (g2, window2)):
        eig, _ = eig_unitary(g)
        for phi in np.angle(eig):
            if not _arg_in_window(float(phi), lo, hi, tol):
                raise ValueError("factor violates its stated window")
    lo = window1[0] + window2[0]
    hi = window1[1] + window2[1]
    if hi - lo >= TWO_PI:
        return CheckResult(ok=True, residual=0.0, detail="window >= full turn")
    eig, _ = eig_unitary(g1 @ g2)
    worst = 0.0
    for phi in np.angle(eig):
        if not _arg_in_window(float(phi), lo, hi, tol):
            shifted = (float(phi) - lo) % TWO_PI
            worst = max(worst, min(shifted - (hi - lo), TWO_PI - shifted))
    return CheckResult(ok=worst == 0.0, residual=worst)


# ---------------------------------------------------------------------------
# sampling


def random_skew_hermitian(n: int, rng: np.random.Generator) -> SkewHermitian:
    """Gaussian entries, skew-symmetrized and trace-projected."""
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = (m - m.conj().T) / 2.0
    a = a - np.trace(a) / n * np.eye(n)
    return SkewHermitian(a)


def rescaled_to_bound(
    x: SkewHermitian, bound: SpectrumVector, slack: float = 0.95
) -> SkewHermitian:
    """Scale X so that ||cX|| <= bound in dominance order."""
    ps = norm_spectrum(x).partial_sums()
    pb = bound.partial_sums()
    ratios = [pb[k] / ps[k] for k in range(len(ps)) if ps[k] > 1e-300]
    c = slack * min(ratios) if ratios else 1.0
    return SkewHermitian(x.entries * min(c, 1.0))


def sample_unitary_in_window(
    n: int,
    window: tuple[float, float],
    rng: np.random.Generator,
) -> np.ndarray:
    """Special-unitary matrix whose eigenvalue arguments all lie in the
    window.

    det = 1 forces the argument representatives to sum to an exact
    multiple of 2*pi, so the window is feasible only when some
    2*pi*k lies in [N*lo, N*hi]; arguments are drawn around 2*pi*k/N
    with zero-sum deviations confined to the window.
    """
    lo, hi = window
    if hi < lo:
        raise ValueError("empty window")
    k_lo = math.ceil(n * lo / TWO_PI - 1e-12)
    k_hi = math.floor(n * hi / TWO_PI + 1e-12)
    if k_lo > k_hi:
        raise ValueError(
            f"window {window} admits no special-unitary spectrum for N={n}"
        )
    k = min(range(k_lo, k_hi + 1), key=lambda kk: abs(kk - n * (lo + hi) / 2))
    center = TWO_PI * k / n
    margin = min(center - lo, hi - center)
    dev = rng.uniform(-1.0, 1.0, size=n)
    dev = dev - dev.mean()
    peak = np.abs(dev).max()
    if peak > 0 and margin > 0:
        dev = dev * (0.98 * margin / peak)
    else:
        dev = np.zeros(n)
    phis = center + dev
    frame = exp_skew(random_skew_hermitian(n, rng))
    return frame @ np.diag(np.exp(1j * phis)) @ frame.conj().T


# ---------------------------------------------------------------------------
# trial runners


@dataclass
class LemmaStats:
    name: str
    trials: int
    failures: int
    rejected: int
    max_residual: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "failures": self.failures,
            "rejected": self.rejected,
            "max_residual": f"{self.max_residual:.6e}",
        }


def run_trials(
    n: int, trials: int, seed: int, corrupt: bool = False
) -> list[LemmaStats]:
    """Randomized verification of the four matrix lemmas.

    ``corrupt`` swaps one pairing-bound input for a non-aligned
    deliberate violation of the equality branch, to exercise the
    failure path end to end.
    """
    rng = np.random.default_rng(seed)
    stats: list[LemmaStats] = []

    failures = rejected = 0
    worst = 0.0
    for _ in range(trials):
        r = check_triangle(
            random_skew_hermitian(n, rng), random_skew_hermitian(n, rng)
        )
        worst = max(worst, r.residual)
        failures += not r.ok
    stats.append(LemmaStats("triangle", trials, failures, 0, worst))

    failures = 0
    worst = 0.0
    for t in range(trials):
        omega = random_skew_hermitian(n, rng)
        x = random_skew_hermitian(n, rng)
        r = check_pairing_bound(omega, x)
        if corrupt and t == 0:
            # break the aligned-equality branch on purpose
            bad = spectrum_pairing(norm_spectrum(omega), norm_spectrum(x))
            r = CheckResult(ok=False, residual=abs(bad) + 1.0,
                            detail="corrupted fixture")
        worst = max(worst, r.residual)
        failures += not r.ok
    stats.append(LemmaStats("pairing", trials, failures, 0, worst))

    failures = rejected = 0
    worst = 0.0
    bound = coroot_spectrum(n, 1).scale(0.9 / (100.0 * n))
    done = 0
    while done < trials:
        x = rescaled_to_bound(random_skew_hermitian(n, rng), bound)
        y = rescaled_to_bound(random_skew_hermitian(n, rng), bound)
        try:
            r = check_klyachko(x, y, bound)
        except BranchAmbiguityError:
            rejected += 1
            continue
        worst = max(worst, r.residual)
        failures += not r.ok
        done += 1
    stats.append(LemmaStats("log_product", trials, failures, rejected, worst))

    failures = 0
    worst = 0.0
    for _ in range(trials):
        # windows centered on feasible determinant targets 2*pi*k/N
        k1, k2 = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
        width1 = rng.uniform(0.2, 1.2)
        width2 = rng.uniform(0.2, 1.2)
        w1 = (TWO_PI * k1 / n - width1 / 2, TWO_PI * k1 / n + width1 / 2)
        w2 = (TWO_PI * k2 / n - width2 / 2, TWO_PI * k2 / n + width2 / 2)
        g1 = sample_unitary_in_window(n, w1, rng)
        g2 = sample_unitary_in_window(n, w2, rng)
        r = check_interval_product(g1, g2, w1, w2)
        worst = max(worst, r.residual)
        failures += not r.ok
    stats.append(LemmaStats("interval_product", trials, failures, 0, worst))
    return stats
