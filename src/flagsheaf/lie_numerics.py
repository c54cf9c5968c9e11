"""Floating-point verification of the matrix lemmas on su(N).

Everything here works with genuine complex matrices: skew-Hermitian
traceless X with the invariant product <X, Y> = -Tr(XY), the dominant
representative ||X|| (the descending spectrum of -iX), and products of
special-unitary exponentials.  Eigendecompositions make one LAPACK
call (``np.linalg.eigh``) per stack, in eigh_stack; unitary matrices
are diagonalized by Hermitian passes (Hermitian part for the frame,
skew part inside clusters).  No frame is trusted: every decomposition
passes its residual and orthogonality gates.

Plain arrays, one result per input: matrices are complex (b, n, n)
stacks and spectra float (b, n) stacks, each row descending.  Every
decomposition and every check takes stacks and returns b results, so a
check decomposes all of its matrices in one stacked call per stage, and
run_trials a unit of trials of all four lemmas in three, read by the
checks' own rules, each one stacked expression; each stack is validated
once, as a whole, and a bound spectrum (n,) once per call.  A unit draws
its pair lemmas' Gaussians in one call and skew-projects them with the
interval frames' in one more (_skew_from_normals); only an interval
window draws alone.  Every tolerance the decisions use is a module
constant in the table below; none is a parameter.

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

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .root_system import NonConvergenceError  # cli catches it without numpy

TWO_PI = 2.0 * math.pi

# ---------------------------------------------------------------------------
# tolerances: every threshold the input validation, the decompositions,
# the checks and the sampler decide by.  None is a parameter, so every
# caller decides alike.
#
# input validation
SKEW_TOL = 1e-12          # |X + X^H| of an input, relative to max(1, |X|)
TRACELESS_TOL = 1e-12     # |tr X| of an input, relative to max(1, |X|)
ORDER_TOL = 1e-12         # ascent allowed between bound spectrum entries
ZERO_SUM_TOL = 1e-9       # |sum| of a bound spectrum, relative likewise
# decompositions
ORTHO_TOL = 1e-12         # max |u^H u - I| of an eigensolver frame
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
# the gated eigensolver


def eigh_stack(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and unitary frames of a stack (b, n, n)
    of Hermitian matrices, from one LAPACK call on the whole stack.

    Returns (w, u), shaped (b, n) and (b, n, n), with
    h[i]  =  u[i] @ diag(w[i]) @ u[i]^H.  The frames are gated: a
    solver failure, or a frame with max |u^H u - I| above ORTHO_TOL,
    raises :class:`NonConvergenceError`.  With the callers' residual
    gates this bounds every eigenvalue's error whichever solver proposed
    the frame (Weyl and Kahan residual bounds; Parlett, The Symmetric
    Eigenvalue Problem, 1998).
    """
    try:
        w, u = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # a ValueError, read as bad input
        raise NonConvergenceError(f"eigenpair residual undefined: {exc}"
                                  ) from exc
    w, u = w[:, ::-1], u[:, :, ::-1]
    eye = np.eye(u.shape[-1])
    ortho = np.abs(u.conj().swapaxes(1, 2) @ u - eye).max(initial=0.0)
    if not ortho <= ORTHO_TOL:  # NaN fails too
        raise NonConvergenceError(f"frame orthogonality residual {ortho:.3e}")
    return w, u


jacobi_eigh = eigh_stack  # the name perfbench/layers.py traces


def hermitian_eigs(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra (b, n) of -iX, each descending, and a (b, n, n) stack of
    diagonalizing frames of a (b, n, n) stack of skew-Hermitian
    traceless X, validated at once, from one stacked eigh_stack call,
    with a per-pair residual check on every matrix."""
    h = -1j * _skew_stack(xs)
    w, u = eigh_stack(h)
    res = np.abs(h @ u - u * w[:, None, :]).max(initial=0.0)
    if not res <= EIG_RESIDUAL:  # NaN fails too
        raise NonConvergenceError(f"eigenpair residual {res:.3e}")
    # exact tracelessness drifted by rounding; the shift keeps the order
    return w - w.mean(axis=1, keepdims=True), u


def exp_skew(xs: np.ndarray) -> np.ndarray:
    """The (b, n, n) stack of e^X, via the eigendecompositions of
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
    one stacked eigh_stack call on it fixes the frame up to clusters of
    equal cosines.  The skew part separates the phases inside each
    cluster, one call per cluster of each matrix.
    """
    n = p.shape[-1]
    turn = 1j * np.exp(-1j * np.angle(np.trace(p, axis1=1, axis2=2)))
    q = p * turn[:, None, None]
    cos, u = eigh_stack((q + q.conj().swapaxes(1, 2)) / 2.0)
    # cosines descend; a cluster is a run within CLUSTER_TOL of its first
    # cosine, so only a matrix with two neighbours that close has one
    for i in np.flatnonzero((cos[:, :-1] - cos[:, 1:] <= CLUSTER_TOL).any(1)):
        start = 0
        for stop in range(1, n + 1):
            if stop < n and cos[i, start] - cos[i, stop] <= CLUSTER_TOL:
                continue
            if stop - start > 1:
                f = u[i, :, start:stop]
                block = f.conj().T @ q[i] @ f
                _, v = eigh_stack((block - block.conj().T)[None] / 2j)
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
# eigensolver call per stage, and gives one result per input, from the rule
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


def _aligned_in_frame(u: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """The conjugates of i*diag(spectrum) in frames u (b, n, n)
    diagonalizing -i omega, columns in descending eigenvalue order: the
    partners that realize equality in the pairing bound."""
    n = u.shape[-1]
    d = np.zeros_like(u)  # u @ d keeps np.diag's bits; u * row might not
    d[:, range(n), range(n)] = 1j * spectra
    x = u @ d @ u.conj().swapaxes(1, 2)
    x = (x - x.conj().swapaxes(1, 2)) / 2.0
    return x - (np.trace(x, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)


def check_pairing_bound(
    omegas: np.ndarray, xs: np.ndarray
) -> list[CheckResult]:
    """<w, X> = -Tr(wX) <= <||w||, ||X||>; on the aligned partner of
    w with the spectrum of X, equality within EQUALITY_TOL.  One result
    per pair of the stacks (b, n, n)."""
    b, a = len(xs), np.concatenate([xs, omegas])
    spectra, frames = hermitian_eigs(a)
    return _pairing_rule(a[b:], a[:b], spectra[b:], spectra[:b], frames[b:])


def _pairing_rule(omegas, xs, s_omega, s_x, f_omega) -> list[CheckResult]:
    """check_pairing_bound's verdicts from ||w||, ||X|| and w's frames."""
    rhs = (s_omega[:, None, :] @ s_x[:, :, None])[:, 0, 0]  # <||w||, ||X||>
    gaps = (np.real(-np.trace(omegas @ xs, axis1=1, axis2=2)) - rhs).tolist()
    aligned = _aligned_in_frame(f_omega, s_x)
    eq_gaps = np.abs(np.real(-np.trace(omegas @ aligned, axis1=1, axis2=2))
                     - rhs).tolist()
    return [CheckResult(ok=gap <= PAIRING_TOL and eq_gap <= EQUALITY_TOL,
                        residual=max(gap, eq_gap, 0.0))
            for gap, eq_gap in zip(gaps, eq_gaps)]


def check_klyachko(
    xs: np.ndarray,
    ys: np.ndarray,
    bound: np.ndarray,
) -> list[CheckResult]:
    """e^X e^Y = e^Z with ||Z|| <= ||X|| + ||Y||, for pairs of the
    stacks (b, n, n) with ||X||, ||Y|| below a dominant bound (n,) that
    is itself below e_1 / (100 N).

    Under that bound no product reaches the branch cut (``run_trials``),
    so a pair flagged there means a broken decomposition and raises
    NonConvergenceError.
    """
    b, a = len(xs), np.concatenate([xs, ys])
    spectra, frames = hermitian_eigs(a)
    prods = _klyachko_products(a, spectra, frames, _capped_bound(bound))
    zs, at_cut = log_unitary_small(prods)
    if at_cut.any():
        raise NonConvergenceError("log product at the branch cut")
    return _klyachko_rule(zs, *hermitian_eigs(zs), prods, spectra[:b],
                          spectra[b:])


def _capped_bound(bound: np.ndarray) -> np.ndarray:
    """A checked bound spectrum (_bound_spectrum) below e_1 / (100 N)."""
    bound = _bound_spectrum(bound)
    cap = coroot_spectrum(len(bound), 1) * (1.0 / (100.0 * len(bound)))
    if dominance_gap(bound, cap) > 0.0:
        raise ValueError("bound must lie strictly below e_1 / (100 N)")
    return bound


def _klyachko_products(a: np.ndarray, spectra: np.ndarray,
                       frames: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """e^X e^Y for the pairs of a = [*xs, *ys], once checked in bound."""
    if (dominance_gap(spectra, bound) > BOUND_MARGIN).any():
        raise ValueError("inputs exceed the stated norm bound")
    e = _exp_in_frame(a, frames)
    return e[: len(a) // 2] @ e[len(a) // 2:]


def _klyachko_rule(zs, sz, uz, prods, sx, sy) -> list[CheckResult]:
    """check_klyachko's verdicts on the logarithms zs of the products,
    from the spectra sz and frames uz of zs and ||X||, ||Y||."""
    recon = np.abs(_exp_in_frame(zs, uz) - prods).max(axis=(1, 2))
    traces = np.abs(np.trace(zs, axis1=1, axis2=2)).tolist()
    return [CheckResult(ok=(res <= KLYACHKO_TOL and worst <= KLYACHKO_TOL
                            and tr <= TRACE_TOL),
                        residual=max(res, worst, tr, 0.0))
            for res, worst, tr in zip(recon.tolist(),
                                      dominance_gap(sz, sx, sy).tolist(),
                                      traces)]


def _window_excess(phis, lo, hi) -> np.ndarray:
    """How far each argument of a row phis[i] lies outside [lo[i], hi[i]]
    modulo 2*pi; 0 if some 2*pi-translate puts it in [lo - WINDOW_TOL,
    hi + WINDOW_TOL], as it puts every argument for a full-turn window."""
    lo, width = lo[:, None], (hi - lo)[:, None]
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
    w1 = np.array(windows1, dtype=float).reshape(-1, 2)
    w2 = np.array(windows2, dtype=float).reshape(-1, 2)
    ws, b = np.concatenate([w1, w2, w1 + w2]), len(phis12)
    excess = _window_excess(np.concatenate([phis1, phis2, phis12]), *ws.T)
    if excess[:2 * b].any():
        raise ValueError("factor violates its stated window")
    return [CheckResult(ok=r == 0.0, residual=r)
            for r in excess[2 * b:].max(axis=1).tolist()]


# ---------------------------------------------------------------------------
# sampling


def _skew_from_normals(g: np.ndarray) -> np.ndarray:
    """A (b, n, n) stack from Gaussian draws g (b, 2, n, n), real parts
    before imaginary: each matrix skew-symmetrized and trace-projected."""
    n = g.shape[-1]
    m = g[:, 0] + 1j * g[:, 1]
    a = (m - m.conj().swapaxes(1, 2)) / 2.0
    return a - (np.trace(a, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)


def random_skew_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """One (n, n) matrix: Gaussian entries, skew-symmetrized and
    trace-projected."""
    return _skew_from_normals(rng.normal(size=(1, 2, n, n)))[0]


def rescaled_to_bound(
    xs: np.ndarray, bound: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Each X of a stack (b, n, n) scaled by c <= 1 so that
    ||cX|| <= RESCALE_SLACK * bound in dominance order, with the
    decomposition (spectra, frames) of the results: cX keeps X's frame,
    and its spectrum is c times X's."""
    return _rescaled(xs, *hermitian_eigs(xs), _bound_spectrum(bound))


def _rescaled(xs, spectra, frames, bound) -> tuple[np.ndarray, tuple]:
    """rescaled_to_bound from the (spectra, frames) of xs."""
    pb = np.cumsum(bound)[:-1]
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
    the Gaussian draws (1, 2, n, n) of its frame's generator, in order."""
    lo, hi = window
    if hi < lo:
        raise ValueError("empty window")
    k_lo = math.ceil(n * lo / TWO_PI - FEASIBILITY_SLACK)
    k_hi = math.floor(n * hi / TWO_PI + FEASIBILITY_SLACK)
    if k_lo > k_hi:
        raise ValueError(
            f"window {window} admits no special-unitary spectrum for N={n}"
        )
    # the feasible 2*pi*k/N nearest the window's midpoint
    k = min(max(round(n * (lo + hi) / (4 * math.pi)), k_lo), k_hi)
    center = TWO_PI * k / n
    margin = min(center - lo, hi - center)
    dev = rng.uniform(-1.0, 1.0, size=n)
    dev = dev - dev.mean()
    peak = np.abs(dev).max()
    if peak > 0 and margin > 0:
        dev = dev * (0.98 * margin / peak)
    else:
        dev = np.zeros(n)
    return center + dev, rng.normal(size=(1, 2, n, n))


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
    phi, g = _draw_in_window(n, window, rng)
    x = _skew_from_normals(g)
    return _unitaries(phi[None], x, hermitian_eigs(x)[1])[0]


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
# the stacked solver, few enough that memory stays flat however many
# trials are asked for
_CHUNK = 256


def _tally(stats: LemmaStats, results: list[CheckResult]) -> None:
    """Add a unit's results to a lemma's running counts."""
    # the maximum folds left, as max over all the lemma's residuals would
    seen = [stats.max_residual] if stats.trials else []
    stats.max_residual = max(seen + [r.residual for r in results],
                             default=0.0)
    stats.trials += len(results)
    stats.failures += [r.ok for r in results].count(False)


def run_trials(
    n: int, trials: int, seed: int, corrupt: bool = False
) -> list[LemmaStats]:
    """Randomized verification of the four matrix lemmas.

    The trials form one lemma-major stream, ``trials`` of each lemma in
    turn, drawn in the order a loop of single trials draws them, and
    cut into units of at most ``_CHUNK`` trials; a unit may hold the
    tail of one lemma and the head of the next.  A unit draws all its
    triangle, pairing and log-product Gaussians in one call, then per
    interval trial its windows, arguments and frame Gaussians.  Its
    rules, each one stacked expression, read three stacked calls:
    stage A, hermitian_eigs of the triangle's X, Y and X + Y, the
    pairing's w and X, the log-product's X and Y (to rescale them) and
    the interval frames' generators; stage B, eig_unitary of the
    log-product's e^X e^Y and the interval's g1, g2 and g1 g2; stage C,
    hermitian_eigs of the logarithms Z.  The bound is checked once per
    call, before the first unit.

    No log-product pair reaches the branch cut: its bound lies below
    e_1 / (100 N), so X and Y have operator norm below 0.01 and every
    eigenvalue of e^X e^Y lies within e^{0.02} - 1 of 1, far from -1.
    A pair flagged at the cut means a broken decomposition and raises
    NonConvergenceError; ``rejected`` is always 0.  ``corrupt`` swaps
    the first pairing result for a deliberate violation of the equality
    branch, to exercise the failure path end to end.
    """
    rng = np.random.default_rng(seed)
    bound = _capped_bound(coroot_spectrum(n, 1) * (0.9 / (100.0 * n)))
    stats = [LemmaStats(name, 0, 0, 0, 0.0) for name in
             ("triangle", "pairing", "log_product", "interval_product")]
    for start in range(0, 4 * trials, _CHUNK):
        stop = min(start + _CHUNK, 4 * trials)
        # the unit's triangle, pairing, log-product and interval trials
        t, p, q, m = [max(0, min(stop, (k + 1) * trials)
                          - max(start, k * trials)) for k in range(4)]
        # the pair lemmas' (x, y) pairs in one draw, x drawn before y
        normals = rng.normal(size=(2 * (t + p + q), 2, n, n))
        windows, draws = [], []
        for _ in range(m):
            ks = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
            widths = rng.uniform(0.2, 1.2), rng.uniform(0.2, 1.2)
            for k, w in zip(ks, widths):
                # windows centered on feasible determinant targets 2*pi*k/N
                c = TWO_PI * k / n
                windows.append((c - w / 2, c + w / 2))
                draws.append(_draw_in_window(n, windows[-1], rng))
        mats = _skew_from_normals(
            np.concatenate([normals] + [d[1] for d in draws]))
        xs, ys, tp = mats[:len(normals):2], mats[1:len(normals):2], t + p
        # stage A: triangle X, Y, X + Y at 0, t, 2t; pairing w, X at w0,
        # w0 + p; log-product X, Y at l0, l0 + q; interval generators at g0
        a = np.concatenate([xs[:t], ys[:t], xs[:t] + ys[:t], xs[t:tp],
                            ys[t:tp], xs[tp:], ys[tp:], mats[len(normals):]])
        w0, l0, g0 = 3 * t, 3 * t + 2 * p, 3 * t + 2 * p + 2 * q
        sa, fa = hermitian_eigs(a)
        pairing = _pairing_rule(a[w0:w0 + p], a[w0 + p:l0], sa[w0:w0 + p],
                                sa[w0 + p:l0], fa[w0:w0 + p])
        if corrupt and pairing and not stats[1].trials:
            # break the aligned-equality branch on purpose
            bad = float(abs(np.dot(sa[w0], sa[w0 + p]))) + 1.0
            pairing[0] = CheckResult(ok=False, residual=bad)
        scaled, (s_log, f_log) = _rescaled(a[l0:g0], sa[l0:g0], fa[l0:g0],
                                           bound)
        prods = _klyachko_products(_skew_stack(scaled), s_log, f_log, bound)
        g = _unitaries(np.reshape([phi for phi, _ in draws], (-1, n)),
                       a[g0:], fa[g0:])
        g1, g2 = g[0::2], g[1::2]
        eig, u = eig_unitary(np.concatenate([prods, g1, g2, g1 @ g2]))
        zs, at_cut = _log_in_frame(eig[:q], u[:q])
        if at_cut.any():
            raise NonConvergenceError("log product at the branch cut")
        phis = np.angle(eig[q:])
        verdicts = [_triangle_rule(sa[:t], sa[t:2 * t], sa[2 * t:w0]),
                    pairing,
                    _klyachko_rule(zs, *hermitian_eigs(zs), prods,
                                   s_log[:q], s_log[q:]),
                    _interval_rule(phis[:m], phis[m:2 * m], phis[2 * m:],
                                   windows[0::2], windows[1::2])]
        for lemma, results in zip(stats, verdicts):
            _tally(lemma, results)
    return stats
