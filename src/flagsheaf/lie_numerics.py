"""Floating-point verification of the matrix lemmas on su(N).

Everything here works with genuine complex matrices: skew-Hermitian
traceless X with the invariant product <X, Y> = -Tr(XY), the dominant
representative ||X|| (the descending spectrum of -iX), and products of
special-unitary exponentials.  Eigendecompositions use a self-contained
round-robin (parallel-ordered) cyclic Jacobi iteration (Brent-Luk, 1985,
intended for N <= 12).  Unitary matrices are diagonalized by Hermitian
Jacobi passes (Hermitian part for the frame, skew part inside
clusters), so no external eigensolver is involved in the verified path.

Plain arrays, one result per input: matrices are complex (b, n, n)
stacks and spectra float (b, n) stacks, each row descending.  Every
decomposition and every check takes stacks and returns b results, so a
check decomposes all of its matrices in one stacked call per stage, and
run_trials a unit of trials of all four lemmas in three, read by the
checks' own rules; each stack is validated once, as a whole, and so is
a caller's bound spectrum (n,).  Only the constructors
(random_skew_hermitian, sample_unitary_in_window) make one (n, n)
matrix.  Every tolerance the decisions use is a module constant in the
table below; none is a parameter.

Checked statements:

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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# ---------------------------------------------------------------------------
# tolerances: every threshold the input validation, the kernel, the
# decompositions, the checks and the sampler decide by.  None is a
# parameter, so every caller decides alike.
#
# input validation
SKEW_TOL = 1e-12          # |X + X^H| of an input, relative to max(1, |X|)
TRACELESS_TOL = 1e-12     # |tr X| of an input, relative to max(1, |X|)
ORDER_TOL = 1e-12         # ascent allowed between bound spectrum entries
ZERO_SUM_TOL = 1e-9       # |sum| of a bound spectrum, relative likewise
# Jacobi kernel
JACOBI_TOL = 1e-13        # stop at off-diagonal norm <= JACOBI_TOL * ||h||_F
MAX_SWEEPS = 100          # sweeps before NonConvergenceError
# decompositions
EIG_RESIDUAL = 1e-9       # max |h u - u w| of a Hermitian decomposition
CLUSTER_TOL = 1e-7        # cosines this close share an eig_unitary cluster
UNITARY_RESIDUAL = 1e-8   # max off-diagonal entry of u^H p u
BRANCH_GUARD = 1e-6       # reject a logarithm this close to the cut at -1
# checks
TRIANGLE_TOL = 1e-9       # partial-sum excess of ||X+Y|| over ||X|| + ||Y||
PAIRING_TOL = 1e-9        # excess of <w, X> over <||w||, ||X||>
EQUALITY_TOL = 1e-8       # |gap| of the pairing bound on the aligned partner
KLYACHKO_TOL = 1e-8       # e^Z reconstruction and ||Z|| dominance excess
TRACE_TOL = 1e-9          # |tr Z| of a principal logarithm
BOUND_MARGIN = 1e-12      # how far check_klyachko inputs may exceed the bound
WINDOW_TOL = 1e-8         # arguments may lie this far outside a window
# sampling
RESCALE_SLACK = 0.95      # rescaled_to_bound lands this far inside the bound
FEASIBILITY_SLACK = 1e-12  # N * window / 2pi widened by this before rounding


class NonConvergenceError(RuntimeError):
    """Jacobi iteration failed to reach the target off-diagonal norm."""


# ---------------------------------------------------------------------------
# spectra and input validation


def dominance_gap(a: np.ndarray, *bs: np.ndarray) -> np.ndarray:
    """Largest excess of a partial sum of a over that of the sum of bs,
    one per row of the broadcast spectra (..., n): a <= b_1 + ... + b_k
    in dominance order iff the gap is <= 0; -inf for N = 1."""
    gap = np.cumsum(a, axis=-1)[..., :-1] - sum(
        np.cumsum(b, axis=-1)[..., :-1] for b in bs)
    return gap.max(axis=-1, initial=-np.inf)


def coroot_spectrum(n: int, k: int) -> np.ndarray:
    """Spectrum of the k-th coroot matrix: (N-k)/N (k times), then
    -k/N."""
    return np.concatenate([np.full(k, (n - k) / n), np.full(n - k, -k / n)])


def _skew_stack(xs: np.ndarray) -> np.ndarray:
    """xs as a complex (b, n, n) stack, every member finite,
    skew-Hermitian within SKEW_TOL and traceless within TRACELESS_TOL,
    both relative to max(1, its largest entry)."""
    a = np.asarray(xs, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("a (b, n, n) stack of square matrices required")
    finite = np.isfinite(a).all(axis=(1, 2))  # NaN passes every test below
    if not finite.all():
        i = np.argmin(finite)
        raise ValueError(f"matrix {i} of the stack is not finite")
    scale = np.maximum(np.abs(a).max(axis=(1, 2)), 1.0)
    herm = np.abs(a + a.conj().swapaxes(1, 2)).max(axis=(1, 2))
    trace = np.abs(np.trace(a, axis1=1, axis2=2))
    skew = herm > SKEW_TOL * scale
    bad = skew | (trace > TRACELESS_TOL * scale)
    if bad.any():
        i = int(np.argmax(bad))
        what = "skew-Hermitian" if skew[i] else "traceless"
        raise ValueError(f"matrix {i} of the stack is not {what}")
    return a


def _bound_spectrum(bound: np.ndarray) -> np.ndarray:
    """bound as a float spectrum (n,), descending within ORDER_TOL and
    summing to zero within ZERO_SUM_TOL relative to max(1, max |bound|)."""
    lam = np.asarray(bound, dtype=float)
    if np.any(np.diff(lam) > ORDER_TOL):
        raise ValueError("bound spectrum must be sorted descending")
    if abs(lam.sum()) > ZERO_SUM_TOL * max(1.0, np.abs(lam).max()):
        raise ValueError("bound spectrum must sum to zero")
    return lam


# ---------------------------------------------------------------------------
# round-robin cyclic Jacobi for stacks of Hermitian matrices


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


def jacobi_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and unitary frames of a stack (b, n, n)
    of Hermitian matrices by round-robin (parallel-ordered) cyclic
    Jacobi rotations (Brent-Luk, 1985): each round rotates up to
    floor(n/2) disjoint pairs at once, as one unitary g with
    a <- g^H a g and u <- u g.

    Every matrix goes through the same rounds at once, with
    ``np.matmul`` over the stack; a matrix whose off-diagonal norm is
    already at most JACOBI_TOL * ||h||_F at the start of a sweep gets
    the identity rotation.

    Returns (w, u), shaped (b, n) and (b, n, n), with
    h[i]  =  u[i] @ diag(w[i]) @ u[i]^H.  Raises
    :class:`NonConvergenceError` when the off-diagonal norm of some
    matrix does not fall below JACOBI_TOL * ||h||_F within MAX_SWEEPS
    sweeps.
    """
    h = np.asarray(h, dtype=complex)
    b, n, _ = h.shape
    scale = np.maximum(np.linalg.norm(h, axis=(1, 2)), 1e-300)
    # a on top of u, so that one product rotates the columns of both
    m = np.concatenate([h, np.broadcast_to(np.eye(n), h.shape)], axis=1)
    eye = np.broadcast_to(np.eye(n, dtype=complex), h.shape)
    off_diagonal = ~np.eye(n, dtype=bool)
    k = n // 2  # pairs per round
    entries = np.empty((b, 4 * k), dtype=complex)

    def off_norm():
        # from the off-diagonal entries themselves: total minus diagonal
        # cancels and stops sweeps early
        return np.linalg.norm(m[:, :n] * off_diagonal, axis=(1, 2))

    for _ in range(MAX_SWEEPS):
        live = off_norm() > JACOBI_TOL * scale
        if not live.any():
            break
        keep = None if live.all() else live[:, None]
        for _, _, put in _round_robin(n):
            flat = m.reshape(b, -1)
            diag = flat.real.take(put[: 2 * k], axis=1)
            apq = flat.take(put[2 * k: 3 * k], axis=1)
            if keep is not None:
                apq *= keep  # converged matrices get the identity rotation
            r = 0.5 * (diag[:, :k] - diag[:, k:])
            mag = np.abs(apq)
            # skipped pairs (a_pq = 0) get c = 1, s = 0
            den = np.maximum(np.abs(r) + np.hypot(r, mag), 1e-300)
            hyp = np.hypot(den, mag)
            c = den / hyp
            s = apq / np.copysign(hyp, r)
            entries[:, :k] = c
            entries[:, k: 2 * k] = c
            np.negative(s, out=entries[:, 2 * k: 3 * k])
            np.conjugate(s, out=entries[:, 3 * k:])
            g = eye.copy()
            g.reshape(b, -1)[:, put] = entries
            m = m @ g
            m[:, :n] = g.conj().swapaxes(1, 2) @ m[:, :n]
    else:
        raise NonConvergenceError(
            "Jacobi iteration stalled with off-diagonal residual "
            f"{off_norm().max():.3e}"
        )
    w = m[:, :n].diagonal(axis1=1, axis2=2).real
    order = np.argsort(-w, axis=1)
    w = np.take_along_axis(w, order, axis=1)
    u = np.take_along_axis(m[:, n:], order[:, None, :], axis=2)
    return w, u


def hermitian_eigs(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra (b, n) of -iX, each descending, and a (b, n, n) stack of
    diagonalizing frames of a (b, n, n) stack of skew-Hermitian
    traceless X, validated at once, from one stacked Jacobi call, with
    a per-pair residual check on every matrix."""
    h = -1j * _skew_stack(xs)
    w, u = jacobi_eigh(h)
    res = np.abs(h @ u - u * w[:, None, :]).max(initial=0.0)
    if not res <= EIG_RESIDUAL:  # NaN fails too
        raise NonConvergenceError(f"eigenpair residual {res:.3e}")
    # exact tracelessness drifted by rounding; the shift keeps the order
    return w - w.mean(axis=1, keepdims=True), u


def exp_skew(xs: np.ndarray) -> np.ndarray:
    """The (b, n, n) stack of e^X, via the Jacobi eigendecompositions of
    -iX."""
    return _exp_in_frame(xs, hermitian_eigs(xs)[1])


def _exp_in_frame(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """e^A for each skew-Hermitian A of a stack, in frames u
    diagonalizing -iA."""
    # hermitian_eigs re-centers; use the raw frame eigenvalues instead
    w = np.real(np.sum(u.conj() * (-1j * a @ u), axis=1))
    return (u * np.exp(1j * w)[:, None, :]) @ u.conj().swapaxes(1, 2)


def eig_unitary(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (b, n) and frames (b, n, n) of a stack of unitary
    matrices.

    Each matrix is first turned by the phase i e^{-i arg tr p}, which
    centres its spectrum on the imaginary axis, where the cosine of
    the argument is strictly decreasing.  The Hermitian part of the
    turned matrix thus tells apart any two eigenvalues within a quarter
    turn of arg tr p, conjugate pairs of the unturned matrix included;
    one stacked Jacobi call on it fixes the frame up to clusters of
    equal cosines.  The skew part separates the phases inside each
    cluster, one call per cluster of each matrix.
    """
    b, n, _ = p.shape
    turn = 1j * np.exp(-1j * np.angle(np.trace(p, axis1=1, axis2=2)))
    q = p * turn[:, None, None]
    cos, u = jacobi_eigh((q + q.conj().swapaxes(1, 2)) / 2.0)
    for i in range(b):
        start = 0
        for stop in range(1, n + 1):
            # cosines descend; a cluster is a run within CLUSTER_TOL of
            # its first cosine
            if stop < n and cos[i, start] - cos[i, stop] <= CLUSTER_TOL:
                continue
            if stop - start > 1:
                f = u[i, :, start:stop]
                block = f.conj().T @ q[i] @ f
                _, v = jacobi_eigh((block - block.conj().T)[None] / 2j)
                u[i, :, start:stop] = f @ v[0]
            start = stop
    d = u.conj().swapaxes(1, 2) @ p @ u
    eig = d.diagonal(axis1=1, axis2=2)
    off = np.abs(d - eig[:, :, None] * np.eye(n)).max(initial=0.0)
    if not off <= UNITARY_RESIDUAL:  # NaN fails too
        raise NonConvergenceError(
            f"unitary diagonalization residual {off:.3e}"
        )
    return eig, u


def log_unitary_small(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal logarithms (b, n, n) of a stack (b, n, n) of
    special-unitary matrices, and a (b,) mask guarding the branch cut:
    True for a matrix with an eigenvalue within BRANCH_GUARD of -1,
    whose logarithm is not principal."""
    return _log_in_frame(*eig_unitary(p))


def _log_in_frame(eig: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """log_unitary_small from the eigenvalues and frames of eig_unitary."""
    n = u.shape[-1]
    phi = np.angle(eig)
    phi = phi - phi.mean(axis=1, keepdims=True)
    z = (u * (1j * phi)[:, None, :]) @ u.conj().swapaxes(1, 2)
    z = (z - z.conj().swapaxes(1, 2)) / 2.0
    z = z - (np.trace(z, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
    return z, np.abs(eig + 1.0).min(axis=1) < BRANCH_GUARD


# ---------------------------------------------------------------------------
# the checks
#
# Each check takes (b, n, n) stacks, checked together with one stacked
# Jacobi call per stage, and gives one result per input, from the rule
# that run_trials applies to its shared stages.


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    residual: float


def check_triangle(xs: np.ndarray, ys: np.ndarray) -> list[CheckResult]:
    """Partial-sum comparison of ||X+Y|| against ||X|| + ||Y||, one
    result per pair; xs and ys are stacks or lists of (n, n) matrices."""
    b = len(xs)
    spectra, _ = hermitian_eigs(np.concatenate([xs, ys, np.add(xs, ys)]))
    return _triangle_rule(spectra[:b], spectra[b:2 * b], spectra[2 * b:])


def _triangle_rule(sx, sy, s_sum) -> list[CheckResult]:
    """check_triangle's verdicts from the spectra of X, Y and X + Y."""
    return [CheckResult(ok=worst <= TRIANGLE_TOL, residual=max(worst, 0.0))
            for worst in dominance_gap(s_sum, sx, sy).tolist()]


def _aligned_in_frame(u: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """The conjugate of i*diag(spectrum) in a frame u diagonalizing
    -i omega, columns in descending eigenvalue order: the partner that
    realizes equality in the pairing bound."""
    x = u @ np.diag(1j * spectrum) @ u.conj().T
    x = (x - x.conj().T) / 2.0
    return x - np.trace(x) / len(u) * np.eye(len(u))


def check_pairing_bound(
    omegas: np.ndarray, xs: np.ndarray
) -> list[CheckResult]:
    """<w, X> = -Tr(wX) <= <||w||, ||X||>; on the aligned partner of
    w with the spectrum of X, equality within EQUALITY_TOL.  One result
    per pair of the stacks (b, n, n)."""
    b = len(xs)
    spectra, frames = hermitian_eigs(np.concatenate([xs, omegas]))
    return _pairing_rule(omegas, xs, spectra[b:], spectra[:b], frames[b:])


def _pairing_rule(omegas, xs, s_omega, s_x, f_omega) -> list[CheckResult]:
    """check_pairing_bound's verdicts from ||w||, ||X|| and w's frames."""
    results = []
    for w, v, so, sx, f in zip(omegas, xs, s_omega, s_x, f_omega):
        rhs = float(np.dot(so, sx))  # <||w||, ||X||>
        gap = float(np.real(-np.trace(w @ v))) - rhs
        aligned = _aligned_in_frame(f, sx)
        eq_gap = abs(float(np.real(-np.trace(w @ aligned))) - rhs)
        results.append(CheckResult(
            ok=gap <= PAIRING_TOL and eq_gap <= EQUALITY_TOL,
            residual=max(gap, eq_gap, 0.0),
        ))
    return results


def check_klyachko(
    xs: np.ndarray,
    ys: np.ndarray,
    bound: np.ndarray,
    eigs: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[CheckResult | None]:
    """e^X e^Y = e^Z with ||Z|| <= ||X|| + ||Y||, for pairs of the
    stacks (b, n, n) with ||X||, ||Y|| below a dominant bound (n,) that
    is itself below e_1 / (100 N).

    A pair whose product has an eigenvalue at the branch cut gets None
    in place of a result.  ``eigs`` is the (spectra, frames)
    decomposition of [*xs, *ys] when the caller already has it; the
    inputs are validated either way.
    """
    b, a = len(xs), np.concatenate([xs, ys])
    spectra, frames = hermitian_eigs(a) if eigs is None else eigs
    if eigs is not None:
        a = _skew_stack(a)  # hermitian_eigs validates it otherwise
    prods = _klyachko_products(a, spectra, frames, bound)
    logs, at_cut = log_unitary_small(prods)
    kept, zs = ~at_cut, logs[~at_cut]
    checked = iter(_klyachko_rule(zs, *hermitian_eigs(zs), prods[kept],
                                  spectra[:b][kept], spectra[b:][kept]))
    return [None if cut else next(checked) for cut in at_cut]


def _klyachko_products(a: np.ndarray, spectra: np.ndarray,
                       frames: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """e^X e^Y for the pairs of a = [*xs, *ys], once checked in bound."""
    n, bound = a.shape[-1], _bound_spectrum(bound)
    cap = coroot_spectrum(n, 1) * (1.0 / (100.0 * n))
    if dominance_gap(bound, cap) > 0.0:
        raise ValueError("bound must lie strictly below e_1 / (100 N)")
    if (dominance_gap(spectra, bound) > BOUND_MARGIN).any():
        raise ValueError("inputs exceed the stated norm bound")
    e = _exp_in_frame(a, frames)
    return e[: len(a) // 2] @ e[len(a) // 2:]


def _klyachko_rule(zs, sz, uz, prods, sx, sy) -> list[CheckResult]:
    """check_klyachko's verdicts on the logarithms zs of the products,
    from the spectra sz and frames uz of zs and ||X||, ||Y||."""
    recon = np.abs(_exp_in_frame(zs, uz) - prods).max(axis=(1, 2))
    traces = [abs(np.trace(z)) for z in zs]
    return [CheckResult(ok=(res <= KLYACHKO_TOL and worst <= KLYACHKO_TOL
                            and tr <= TRACE_TOL),
                        residual=max(res, worst, tr, 0.0))
            for res, worst, tr in zip(recon.tolist(),
                                      dominance_gap(sz, sx, sy).tolist(),
                                      traces)]


def _window_excess(phis: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """How far each argument lies outside [lo, hi] modulo 2*pi; 0 for
    one that some 2*pi-translate puts in [lo - WINDOW_TOL,
    hi + WINDOW_TOL]."""
    width = hi - lo
    if width >= TWO_PI:
        return np.zeros_like(phis)
    shifted = (phis - lo) % TWO_PI
    inside = (shifted <= width + WINDOW_TOL) | (shifted >= TWO_PI - WINDOW_TOL)
    return np.where(inside, 0.0,
                    np.minimum(shifted - width, TWO_PI - shifted))


def check_interval_product(
    g1: np.ndarray,
    g2: np.ndarray,
    windows1: Sequence[tuple[float, float]],
    windows2: Sequence[tuple[float, float]],
) -> list[CheckResult]:
    """All eigenvalue arguments of each product g1[i] g2[i] of two
    stacks (b, n, n) lie in the sum of the windows, taken in the unique
    short interval when the sum window is shorter than a full turn.
    One result per product."""
    eig, _ = eig_unitary(np.concatenate([g1, g2, g1 @ g2]))
    return _interval_rule(*np.split(np.angle(eig), 3), windows1, windows2)


def _interval_rule(phis1, phis2, phis12, windows1, windows2):
    """check_interval_product's verdicts from the eigenvalue arguments
    of g1, g2 and g1 g2."""
    results = []
    for phi1, phi2, phi12, w1, w2 in zip(phis1, phis2, phis12, windows1,
                                         windows2):
        for phi, (lo, hi) in ((phi1, w1), (phi2, w2)):
            if _window_excess(phi, lo, hi).any():
                raise ValueError("factor violates its stated window")
        # a sum window of a full turn or more admits every argument
        worst = float(_window_excess(phi12, w1[0] + w2[0], w1[1] + w2[1])
                      .max())
        results.append(CheckResult(ok=worst == 0.0, residual=worst))
    return results


# ---------------------------------------------------------------------------
# sampling


def random_skew_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """One (n, n) matrix: Gaussian entries, skew-symmetrized and
    trace-projected."""
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = (m - m.conj().T) / 2.0
    return a - np.trace(a) / n * np.eye(n)


def rescaled_to_bound(
    xs: np.ndarray, bound: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Each X of a stack (b, n, n) scaled by c <= 1 so that
    ||cX|| <= RESCALE_SLACK * bound in dominance order, with the
    decomposition (spectra, frames) of the results: cX keeps X's frame,
    and its spectrum is c times X's."""
    return _rescaled(xs, *hermitian_eigs(xs), bound)


def _rescaled(xs, spectra, frames, bound) -> tuple[np.ndarray, tuple]:
    """rescaled_to_bound from the (spectra, frames) of xs."""
    pb = np.cumsum(_bound_spectrum(bound))[:-1]
    ps = np.cumsum(spectra, axis=1)[:, :-1]
    ratios = np.divide(pb, ps, out=np.full_like(ps, np.inf),
                       where=ps > 1e-300)
    c = np.minimum(RESCALE_SLACK * ratios.min(axis=1, initial=np.inf), 1.0)
    if (c < 0).any():
        raise ValueError("scaling a dominant spectrum by c < 0")
    return xs * c[:, None, None], (spectra * c[:, None], frames)


def _draw_in_window(
    n: int, window: tuple[float, float], rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalue arguments of a sample_unitary_in_window draw, then
    the generator X of its frame e^X, drawn in that order."""
    lo, hi = window
    if hi < lo:
        raise ValueError("empty window")
    k_lo = math.ceil(n * lo / TWO_PI - FEASIBILITY_SLACK)
    k_hi = math.floor(n * hi / TWO_PI + FEASIBILITY_SLACK)
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
    return center + dev, random_skew_hermitian(n, rng)


def _unitaries(phis: np.ndarray, xs: np.ndarray, frames: np.ndarray
               ) -> np.ndarray:
    """e^X diag(e^{i phi}) e^{-X} for each row phi of phis (b, n) and
    generator X of xs (b, n, n), in frames diagonalizing -iX."""
    e = _exp_in_frame(xs, frames)
    return (e * np.exp(1j * phis)[:, None, :]) @ e.conj().swapaxes(1, 2)


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
    phi, x = _draw_in_window(n, window, rng)
    return _unitaries(phi[None], x[None], hermitian_eigs(x[None])[1])[0]


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


# trials decomposed at once: enough to amortize the per-call cost of
# the stacked kernel, few enough that memory stays flat however many
# trials are asked for
_CHUNK = 256


def _tally(stats: LemmaStats, results: list[CheckResult]) -> None:
    """Add a unit's results to a lemma's running counts."""
    # the maximum folds left, as max over all the lemma's residuals would
    seen = [stats.max_residual] if stats.trials else []
    stats.max_residual = max([*seen, *(r.residual for r in results)],
                             default=0.0)
    stats.trials += len(results)
    stats.failures += sum(not r.ok for r in results)


def run_trials(
    n: int, trials: int, seed: int, corrupt: bool = False
) -> list[LemmaStats]:
    """Randomized verification of the four matrix lemmas.

    The trials form one lemma-major stream, ``trials`` of each lemma in
    turn, drawn in the order a loop of single trials draws them, and
    cut into units of at most ``_CHUNK`` trials; a unit may hold the
    tail of one lemma and the head of the next.  The checks' rules read
    three stacked calls per unit: stage A, hermitian_eigs of the
    triangle's X, Y and X + Y, the pairing's w and X, the log-product's
    X and Y (to rescale them) and the interval frames' generators;
    stage B, eig_unitary of the log-product's e^X e^Y and the
    interval's g1, g2 and g1 g2; stage C, hermitian_eigs of the
    logarithms Z.

    No log-product pair reaches the branch cut: its bound lies below
    e_1 / (100 N), so X and Y have operator norm below 0.01 and every
    eigenvalue of e^X e^Y lies within e^{0.02} - 1 of 1, far from -1.
    A pair flagged at the cut means a broken decomposition and raises
    NonConvergenceError; ``rejected`` is always 0.  ``corrupt`` swaps
    the first pairing result for a deliberate violation of the equality
    branch, to exercise the failure path end to end.
    """
    rng = np.random.default_rng(seed)
    bound = coroot_spectrum(n, 1) * (0.9 / (100.0 * n))
    stats = [LemmaStats(name, 0, 0, 0, 0.0) for name in
             ("triangle", "pairing", "log_product", "interval_product")]
    for start in range(0, 4 * trials, _CHUNK):
        stop = min(start + _CHUNK, 4 * trials)
        counts = [max(0, min(stop, (k + 1) * trials) - max(start, k * trials))
                  for k in range(4)]
        # pairs (count, 2, n, n), x drawn before y
        tri, pair, log = [np.array(
            [random_skew_hermitian(n, rng) for _ in range(2 * count)],
            dtype=complex).reshape(count, 2, n, n) for count in counts[:3]]
        windows, draws = [], []
        for _ in range(counts[3]):
            # windows centered on feasible determinant targets 2*pi*k/N
            ks = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
            widths = rng.uniform(0.2, 1.2), rng.uniform(0.2, 1.2)
            windows += [(TWO_PI * k / n - w / 2, TWO_PI * k / n + w / 2)
                        for k, w in zip(ks, widths)]
            draws += [_draw_in_window(n, w, rng) for w in windows[-2:]]
        gens = np.reshape([x for _, x in draws], (-1, n, n))
        log_xy = log.swapaxes(0, 1).reshape(-1, n, n)  # [*xs, *ys]
        parts = [tri[:, 0], tri[:, 1], tri[:, 0] + tri[:, 1], pair[:, 0],
                 pair[:, 1], log_xy, gens]
        cuts = np.cumsum([len(part) for part in parts])[:-1]
        sa, fa = (np.split(a, cuts)
                  for a in hermitian_eigs(np.concatenate(parts)))
        pairing = _pairing_rule(pair[:, 0], pair[:, 1], sa[3], sa[4], fa[3])
        if corrupt and pairing and not stats[1].trials:
            # break the aligned-equality branch on purpose
            bad = float(abs(np.dot(sa[3][0], sa[4][0]))) + 1.0
            pairing[0] = CheckResult(ok=False, residual=bad)
        scaled, (s_log, f_log) = _rescaled(log_xy, sa[5], fa[5], bound)
        prods = _klyachko_products(_skew_stack(scaled), s_log, f_log, bound)
        g = _unitaries(np.reshape([p for p, _ in draws], (-1, n)), gens,
                       fa[6])
        g1, g2, b = g[0::2], g[1::2], len(prods)
        eig, u = eig_unitary(np.concatenate([prods, g1, g2, g1 @ g2]))
        zs, at_cut = _log_in_frame(eig[:b], u[:b])
        if at_cut.any():
            raise NonConvergenceError("log product at the branch cut")
        verdicts = [_triangle_rule(sa[0], sa[1], sa[2]), pairing,
                    _klyachko_rule(zs, *hermitian_eigs(zs), prods,
                                   s_log[:b], s_log[b:]),
                    _interval_rule(*np.split(np.angle(eig[b:]), 3),
                                   windows[0::2], windows[1::2])]
        for lemma, results in zip(stats, verdicts):
            _tally(lemma, results)
    return stats
