"""End-to-end assembly: the two models of the central-fiber sheaf, the
stalk cross-check between them, Novikov-type graded modules H_I(d)
with their structure maps, and the non-vanishing certificate.

Degree normalization: every graded answer is reported without the
overall shift [dim G - dim h] = [N^2 - N]; relative gradings and
non-vanishing are shift-invariant, and the omitted constant is carried
in report metadata as ``normalization_shift``.

Window semantics: lattice direct sums are truncated to a coordinate
box on the apex coordinates.  For each query the *required box* (the
set of lattice summands that can contribute a nonzero term) is derived
from the query data; a user-supplied window that does not contain the
required box raises :class:`MarginError`, and ``None`` selects the
required box itself.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from . import __version__ as _package_version
from .flag_schubert import FlagType, _all_subsets, betti, g_space
from .graded import GradedDims
from .root_system import (
    CartanVector,
    CenterClass,
    IntegrityError,
    cartan,
    e_profile,
    integer_profile,
    lattice_center,
    lattice_degree,
    weyl_chamber,
    WeylPosition,
)
from .sheaf_complex import (
    ApexTable,
    LatticeBox,
    SheafComplex,
    apex_table,
    block_cohomology,
    cone_complex,
    jump_bound,
    lattice_points,
    stalk_bound,
)


class MarginError(ValueError):
    """A window does not contain the certified required box."""


@dataclass(frozen=True)
class OrbitParams:
    """Coadjoint-orbit scale: the moment value is lam * e_1, lam > 0."""

    n: int
    lam: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        if self.n < 2:
            raise ValueError(f"rank parameter must be >= 2, got {self.n}")
        if self.lam <= 0:
            raise ValueError("orbit scale must be positive")


NORMALIZATION_NOTE = (
    "graded answers omit the overall shift [dim G - dim h] = [N^2 - N]"
)


def normalization_shift(n: int) -> int:
    return n * n - n


# ---------------------------------------------------------------------------
# graded caches

_betti_cache: dict[tuple[int, tuple[int, ...]], GradedDims] = {}
_g_cache: dict[tuple[int, tuple[int, ...]], GradedDims] = {}


def betti_cached(n: int, indices: Iterable[int]) -> GradedDims:
    key = (n, tuple(sorted(indices)))
    if key not in _betti_cache:
        _betti_cache[key] = betti(FlagType(n, key[1]))
    return _betti_cache[key]


def g_space_cached(n: int, indices: Iterable[int]) -> GradedDims:
    key = (n, tuple(sorted(indices)))
    if key not in _g_cache:
        _g_cache[key] = g_space(FlagType(n, key[1]))
    return _g_cache[key]


# ---------------------------------------------------------------------------
# the cone model of the central-fiber sheaf


def cone_table(
    n: int,
    z: CenterClass | None,
    window: LatticeBox,
    profile_box: LatticeBox | None = None,
) -> ApexTable:
    """Apex table of the cone model: one windowed standard complex per
    subset I, shifted by -e_I in both position and degree and weighted
    by the elementary graded space of I.

    A generator is indexed by (I, J, m): region KCone(J, m), center
    exp(m), total degree |J| - D(m), multiplicity g(I); the apex m runs
    over lattice points of the window with m + e_I in the J-admissible
    sublattice.  ``profile_box`` optionally bounds the apexes' scaled
    profiles N<m, e_k> on ints (a pure optimization: outside any box
    that contains the query's required profile range the summands
    cancel); the walk then visits only what it keeps.
    """
    mults = {subset: g_space_cached(n, subset) for subset in _all_subsets(n)}
    return apex_table(n, z, window, mults, profile_box)


def build_cone_model(
    n: int,
    z: CenterClass | None,
    window: LatticeBox,
    profile_box: LatticeBox | None = None,
) -> SheafComplex:
    """The cone model of ``cone_table`` as a validated complex: the
    oracle that ``block_cohomology`` on the same table is tested
    against."""
    return cone_complex(cone_table(n, z, window, profile_box))


# ---------------------------------------------------------------------------
# required boxes (certified truncation margins)


def _require_interior(p: CartanVector):
    if weyl_chamber(p) is not WeylPosition.INTERIOR_MINUS:
        raise ValueError("stalk margins are certified only inside C_-^o")


def required_stalk_box(p: CartanVector) -> LatticeBox:
    """Box containing every lattice apex that can contribute to the
    stalk at p, for p in the open negative chamber.

    Contributing apexes m satisfy p << m and m in C_-, so their
    pairing profile lies in (u_j(p), 0]; the box below converts those
    profile bounds to coordinate bounds.
    """
    _require_interior(p)
    # on ints: s = d N u, so floor(2 u_j) = 2 s_j // dN and
    # ceil(-u_{j-1} - u_{j+1}) = -((s_{j-1} + s_{j+1}) // dN)
    profile, d = integer_profile(p)
    s, dn = (0, *profile, 0), d * p.n
    return tuple(
        (2 * s[j] // dn, min(-((s[j - 1] + s[j + 1]) // dn), 0))
        for j in range(1, p.n)
    )


def jump_required_box(
    n: int, m: CartanVector
) -> tuple[LatticeBox, LatticeBox]:
    """Box, and box of scaled profiles N<m', e_k>, containing every apex
    m' that can contribute to the jump complex at (I, m), for every I.

    In a block (I', m') the jump keeps the J with Q <= J <= allowed,
    Q = forced(I', m') | I (``jump_complex``), acyclic unless allowed =
    Q: then u(m') = u(m) on I, < u(m) on Q - I and >= u(m) off Q.  The
    coordinates of m' are >= 0 on forced and <= 0 off it, so a minimum
    of u(m') below min(0, min u(m)) would spread through forced - I to
    u_0 = u_N = 0 or to where u(m') >= u(m), and a maximum above max(0,
    max u(m)) off Q likewise: the profile stays inside [min(0, min
    u(m)) - 1, max(0, max u(m)) + 1] = [lo_u, hi_u], and <m', f_k> in
    [2 lo_u - 2 hi_u, 2 hi_u - 2 lo_u]; on ints via ``integer_profile``.
    """
    s, d = integer_profile(m)
    low, high = min(0, *s), max(0, *s)
    lo_x = 2 * (low - high) // (d * m.n) - 4
    profile = (-(-low // d) - m.n, high // d + m.n)
    return ((lo_x, -lo_x),) * (n - 1), (profile,) * (n - 1)


def box_contains(outer: LatticeBox, inner: LatticeBox) -> bool:
    return all(
        lo_o <= lo_i and hi_o >= hi_i
        for (lo_o, hi_o), (lo_i, hi_i) in zip(outer, inner)
    )


def resolve_window(
    window: LatticeBox | None, required: LatticeBox, what: str
) -> LatticeBox:
    if window is None:
        return required
    if not box_contains(window, required):
        raise MarginError(
            f"window {window} does not contain the required box "
            f"{required} for {what}"
        )
    return window


# ---------------------------------------------------------------------------
# the direct-sum description of stalks


def stalk_flag_sum(
    n: int,
    z: CenterClass,
    p: CartanVector,
    window: LatticeBox | None = None,
) -> GradedDims:
    """Stalk at p of the center-z fiber in the second description: one
    flag-cohomology summand, shifted down by D(l), for every lattice
    l in C_- (every x_k <= 0) with exp(l) = z and p << l, that is
    N<l, e_k> >= floor(N<p, e_k>) + 1 for every k: one ``lattice_points``
    walk over x <= 0 with the profile P in [floor(N<p, e_k>) + 1, 0], where
    x_k = (2 P_k - P_{k-1} - P_{k+1}) / N >= 2 P_k / N bounds it below.
    A given window must contain ``required_stalk_box``, and so every l."""
    _require_interior(p)
    if window is not None:
        resolve_window(window, required_stalk_box(p), f"stalk at {p}")
    profile, d = integer_profile(p)
    lower = [c // d + 1 for c in profile]
    coord_box = tuple((-(-2 * b // n), 0) for b in lower)
    profile_box = tuple((b, 0) for b in lower)
    out = GradedDims.empty()
    for combo, _ in lattice_points(n, z.residue, coord_box, profile_box):
        iset = tuple(k for k, x in enumerate(combo, 1) if x < 0)
        out = out + betti_cached(n, iset).shifted(-lattice_degree(n, combo))
    return out


def sample_c_minus_interior(
    n: int, rng, depth: Fraction = Fraction(5, 2), denom: int = 16
) -> CartanVector:
    """Random rational point of the open negative chamber with pairing
    profile bounded below by -depth.

    Sampling is exact: the coordinates are negative rationals, which
    lands in the open chamber automatically, and the point is rescaled
    when its profile dips below the requested depth.
    """
    coords = [
        -Fraction(int(rng.integers(1, 2 * denom + 1)), denom)
        for _ in range(n - 1)
    ]
    p = cartan(n, coords)
    low = min(e_profile(p))
    if low < -depth:
        p = p.scale(Fraction(depth) / -low).scale(Fraction(15, 16))
    return p


@dataclass
class CrosscheckReport:
    n: int
    z: int
    requested: int
    compared: int
    excluded: int
    mismatches: list[dict] = field(default_factory=list)
    window: LatticeBox | None = None

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.compared > 0

    def to_json(self) -> dict:
        return {
            "schema": "flagsheaf/crosscheck-report/1",
            "n": self.n,
            "z": self.z,
            "requested": self.requested,
            "compared": self.compared,
            "excluded": self.excluded,
            "mismatches": self.mismatches,
            "window": [list(b) for b in (self.window or ())],
            "ok": self.ok,
        }


def crosscheck_stalks(
    n: int,
    z: CenterClass,
    samples: int | Sequence[CartanVector],
    seed: int = 0,
    window: LatticeBox | None = None,
    depth: Fraction = Fraction(5, 2),
) -> CrosscheckReport:
    """Compare cone-model stalk cohomology, read off the model's apex
    table as block sums (``block_cohomology``), against the direct-sum
    description at random (or given) points of the open chamber.

    Points whose required box is not inside the window are excluded
    from the comparison, not failed.  No points, or a window that
    excludes every point, is a ``ValueError``: it would check nothing.
    """
    if isinstance(samples, int):
        import numpy as np

        rng = np.random.default_rng(seed)
        points = [
            sample_c_minus_interior(n, rng, depth=depth)
            for _ in range(samples)
        ]
    else:
        points = list(samples)
    if not points:
        raise ValueError("crosscheck needs at least one sample point")
    required_boxes = [required_stalk_box(p) for p in points]
    if window is None:
        window = tuple(
            (min(b[j][0] for b in required_boxes), 0)
            for j in range(n - 1)
        )
    inside = [box_contains(window, req) for req in required_boxes]
    if not any(inside):
        raise ValueError(
            f"window {window} excludes all {len(points)} sample points"
        )
    table = cone_table(n, z, window)
    report = CrosscheckReport(
        n=n, z=z.residue, requested=len(points), compared=0, excluded=0,
        window=window,
    )
    for p, kept in zip(points, inside):
        if not kept:
            report.excluded += 1
            continue
        lhs = block_cohomology(table, stalk_bound(n, p))
        rhs = stalk_flag_sum(n, z, p)
        report.compared += 1
        if lhs != rhs:
            report.mismatches.append(
                {
                    "point": [str(c) for c in p.coords],
                    "cone_model": lhs.to_json(),
                    "direct_sum": rhs.to_json(),
                }
            )
    return report


def model_jump(
    n: int,
    z: CenterClass,
    indices: Iterable[int],
    m: CartanVector,
    window: LatticeBox | None = None,
) -> GradedDims:
    """Jump of the cone model at (I, m), windowed with certified
    margins, as a block sum (``block_cohomology``), which keeps only the
    apexes with N<m', e_k> = M_k on I: the walk pins them there."""
    required, profile_box = jump_required_box(n, m)
    window = resolve_window(window, required, f"jump at {m}")
    bound, exact = jump_bound(n, indices, m)
    pinned = tuple(
        (math.ceil(b), math.floor(b)) if j in exact else box
        for j, (b, box) in enumerate(zip(bound, profile_box), 1)
    )
    table = cone_table(n, z, window, pinned)
    return block_cohomology(table, bound, exact, -len(exact))


# ---------------------------------------------------------------------------
# Novikov records


@dataclass(frozen=True)
class NovikovElement:
    coords: tuple[int, ...]
    action: Fraction
    degree: int  # -D(l)

    def to_json(self) -> dict:
        return {
            "l": [str(c) for c in self.coords],
            "action": str(self.action),
            "degree": self.degree,
        }


@dataclass(frozen=True)
class NovikovRecord:
    indices: tuple[int, ...]
    d: Fraction
    elements: tuple[NovikovElement, ...]
    graded: GradedDims

    def to_json(self, shared: dict[tuple, dict] | None = None) -> dict:
        """``shared`` maps a term's coordinates to its JSON dict, so that
        the records of one ``OrbitParams``, where the coordinates fix
        action and degree, list each lattice point as one dict."""
        shared = {} if shared is None else shared
        for e in self.elements:
            if e.coords not in shared:
                shared[e.coords] = e.to_json()
        return {
            "i": ",".join(str(k) for k in self.indices),
            "d": str(self.d),
            "elements": [shared[e.coords] for e in self.elements],
            "graded": self.graded.to_json(),
        }


def action_of(params: OrbitParams, coords: Sequence[int]) -> Fraction:
    """<l, lam * e_1> = lam * sum_k x_k (N - k) / N for the lattice
    point l with integer coordinates ``coords``, as one Fraction."""
    n, lam = params.n, params.lam
    scaled = sum(x * (n - k) for k, x in enumerate(coords, 1))
    return Fraction(lam.numerator * scaled, lam.denominator * n)


DegreeWindow = tuple[int, int]
ActionWindow = tuple[Fraction, Fraction]

DEFAULT_DEGREE_WINDOW: DegreeWindow = (-40, 40)
DEFAULT_ACTION_WINDOW: ActionWindow = (Fraction(-10), Fraction(10))
DEFAULT_D_GRID = (
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(5),
)


def module_terms(
    params: OrbitParams,
    indices: Iterable[int],
    degree_window: DegreeWindow = DEFAULT_DEGREE_WINDOW,
    action_window: ActionWindow = DEFAULT_ACTION_WINDOW,
) -> NovikovRecord:
    """Windowed term list of the one-parameter module for I: lattice
    points l of center class 0 with x_j <= -[j in I] for every j != 1,
    listed with action <l, L> and degree -D(l).

    The walk runs on ints, with t_j = -x_j for j >= 2 and the int
    a = N * action / lam = x_1 (N - 1) - sum_j t_j (N - j).  Simplex
    bound: D_1 a - (N - 1) degree = sum_j w_j t_j with every w_j =
    2 (N - 1)(N - j)(j - 1) > 0, so a listed term has sum_j w_j t_j <=
    D_1 a_hi - (N - 1) degree_lo.  One triangular walk visits exactly
    those tails, t_j from [j in I] up, keeping running sums of degree,
    a and class; x_1 then steps through the residue class mod N that
    makes the center class 0, inside the range both windows allow.

    Nesting lemma: I constrains x_j for j >= 2 only, so the list for I
    is the list for I = () filtered by x_j <= -1 on I minus {1}, in the
    same order; I and I + {1} give equal lists (``_subset_records``).

    Terms are listed by (action, degree, coords), sorted on the int a in
    place of the action: lam > 0 (``OrbitParams``), so the two order the
    terms alike.  The action of each listed term then comes from one
    ``action_of`` call on its integer coordinates.
    """
    n = params.n
    idx = frozenset(indices)
    if any(not 1 <= k <= n - 1 for k in idx):
        raise ValueError("subset indices out of range")
    dlo, dhi = degree_window
    alo, ahi = (Fraction(a) for a in action_window)
    if dlo > dhi or alo > ahi:
        raise ValueError("empty window")
    dk = [2 * k * (n - k) for k in range(1, n)]
    d1 = dk[0]
    a_lo = math.ceil(n * alo / params.lam)
    a_hi = math.floor(n * ahi / params.lam)
    w = [(n - 1) * dk[j - 1] - d1 * (n - j) for j in range(2, n)]
    keyed = []  # (N * action / lam, degree, coords)

    def walk(j, left, sum_td, sum_ta, cls, rest):
        if j == n:
            # dlo <= x1 D_1 - sum_td <= dhi, a_lo <= x1 (N-1) - sum_ta <= a_hi
            x1_lo = max(-(-(dlo + sum_td) // d1),
                        -(-(a_lo + sum_ta) // (n - 1)))
            x1_hi = min((dhi + sum_td) // d1, (a_hi + sum_ta) // (n - 1))
            x1_lo += (cls - x1_lo) % n
            for x1 in range(x1_lo, x1_hi + 1, n):
                keyed.append(
                    (x1 * (n - 1) - sum_ta, x1 * d1 - sum_td, (x1, *rest))
                )
            return
        t = 1 if j in idx else 0
        left -= t * w[j - 2]
        while left >= 0:
            walk(j + 1, left, sum_td + t * dk[j - 1], sum_ta + t * (n - j),
                 cls + j * t, (*rest, -t))
            t += 1
            left -= w[j - 2]

    walk(2, d1 * a_hi - (n - 1) * dlo, 0, 0, 0, ())
    keyed.sort()
    return NovikovRecord(
        indices=tuple(sorted(idx)),
        d=Fraction(0),
        elements=tuple(
            NovikovElement(coords, action_of(params, coords), degree)
            for _, degree, coords in keyed
        ),
        graded=GradedDims(Counter(degree for _, degree, _ in keyed)),
    )


def _subset_records(base: NovikovRecord, subsets) -> list[NovikovRecord]:
    """The record of every subset I from the record for I = () by the
    nesting lemma of ``module_terms``: the terms with x_j <= -1 for j in
    I, j >= 2, in the base's order, as the base's element objects."""
    # bit j of a term's mask: x_j <= -1, for j >= 2
    masks = [
        sum(1 << j for j, x in enumerate(e.coords, 1) if j > 1 and x < 0)
        for e in base.elements
    ]
    kept = {}  # by constraint mask: I and I + {1} share their terms
    records = []
    for subset in subsets:
        need = sum(1 << j for j in subset if j > 1)
        if need not in kept:
            kept[need] = tuple(
                e for e, m in zip(base.elements, masks) if m & need == need
            )
        graded = GradedDims(Counter(e.degree for e in kept[need]))
        records.append(NovikovRecord(subset, base.d, kept[need], graded))
    return records


def h_graded(
    params: OrbitParams,
    indices: Iterable[int],
    d: Fraction,
    degree_window: DegreeWindow = DEFAULT_DEGREE_WINDOW,
    action_window: ActionWindow = DEFAULT_ACTION_WINDOW,
) -> NovikovRecord:
    """Graded dimensions of H_I(d): the terms of the module with
    action + d >= 0, in degree -D(l)."""
    return _terms_at(
        module_terms(params, indices, degree_window, action_window), d
    )


def _terms_at(base: NovikovRecord, d: Fraction) -> NovikovRecord:
    """H_I(d) from the module's term list: the terms with
    action + d >= 0, a tail of the list, which is sorted by action."""
    d = Fraction(d)
    if d < 0:
        raise ValueError("the structure maps exist for d >= 0 only")
    start = bisect_left(base.elements, -d, key=lambda e: e.action)
    kept = base.elements[start:]
    return NovikovRecord(
        indices=base.indices,
        d=d,
        elements=kept,
        graded=GradedDims(Counter(e.degree for e in kept)),
    )


@dataclass(frozen=True)
class NonvanishingResult:
    indices: tuple[int, ...]
    d: Fraction
    nonzero: bool
    witness: tuple[int, ...] | None
    action: Fraction | None
    degree: int | None
    certified_empty: bool = False

    def to_json(self) -> dict:
        return {
            "i": ",".join(str(k) for k in self.indices),
            "d": str(self.d),
            "structure_map_nonzero": self.nonzero,
            "witness": None
            if self.witness is None
            else [str(c) for c in self.witness],
            "witness_action": None if self.action is None else str(self.action),
            "witness_degree": self.degree,
            "certified_empty": self.certified_empty,
        }


def structure_map_nonzero(
    params: OrbitParams, indices: Iterable[int], d: Fraction
) -> NonvanishingResult:
    """Non-vanishing of the structure map H_I(0) -> H_I(d), with an
    explicit witness in S_I(0).

    The map is induced by the inclusion of term sets, so it is nonzero
    exactly when S_I(0) is nonempty.  The search is certified: fixing
    x_j = -[j in I] for j >= 2 maximizes the action over the
    constraint set, the action bound forces x_1 >= ceil(sum of
    (N-j)/(N-1) over j in I), and exactly one x_1 in any N consecutive
    integers has center class 0 -- so scanning N values either yields
    a witness or proves the canonical family (hence S_I(0), by
    monotonicity of the action in every coordinate) empty.
    """
    d = Fraction(d)
    if d < 0:
        raise ValueError("the structure maps exist for d >= 0 only")
    n = params.n
    idx = tuple(sorted(set(indices)))
    if any(not 1 <= k <= n - 1 for k in idx):
        raise ValueError("subset indices out of range")
    tail = {j: (-1 if j in idx else 0) for j in range(2, n)}
    need = sum(n - j for j in idx if j >= 2)
    x1_lo = math.ceil(Fraction(need, n - 1))
    target = sum(j for j in idx if j >= 2) % n
    for x1 in range(x1_lo, x1_lo + n):
        if x1 % n == target:
            coords = (x1,) + tuple(tail[j] for j in range(2, n))
            act = action_of(params, coords)
            if lattice_center(n, coords) != 0 or act < 0:
                raise IntegrityError(
                    "canonical witness construction produced an invalid "
                    f"element {coords}"
                )
            return NonvanishingResult(
                indices=idx,
                d=d,
                nonzero=True,
                witness=coords,
                action=act,
                degree=-lattice_degree(n, coords),
            )
    return NonvanishingResult(
        indices=idx, d=d, nonzero=False, witness=None, action=None,
        degree=None, certified_empty=True,
    )


@dataclass
class CertificateReport:
    params: OrbitParams
    d_grid: tuple[Fraction, ...]
    nonvanishing: list[NonvanishingResult]
    h_records: list[NovikovRecord]
    full_hom: dict[Fraction, GradedDims]
    verdict: bool

    def to_json(self) -> dict:
        shared: dict[tuple, dict] = {}  # one dict per lattice point
        return {
            "schema": "flagsheaf/certificate-report/1",
            "params": {
                "group": f"SU({self.params.n})",
                "n": self.params.n,
                "lambda": str(self.params.lam),
            },
            "normalization_shift": normalization_shift(self.params.n),
            "normalization_note": NORMALIZATION_NOTE,
            "d_grid": [str(d) for d in self.d_grid],
            "records": [t.to_json() for t in self.nonvanishing],
            "h_graded": [r.to_json(shared) for r in self.h_records],
            "full_hom": {
                str(d): g.to_json() for d, g in self.full_hom.items()
            },
            "verdict": self.verdict,
            "versions": {"flagsheaf": _package_version},
        }


def certificate(
    params: OrbitParams,
    d_grid: Sequence[Fraction] = DEFAULT_D_GRID,
    degree_window: DegreeWindow = DEFAULT_DEGREE_WINDOW,
    action_window: ActionWindow = DEFAULT_ACTION_WINDOW,
) -> CertificateReport:
    """Run the non-vanishing check for every subset I and every d in
    the grid; aggregate the full graded answer as the direct sum over
    I of g(I) tensor H_I(d).  Every subset's term list is derived from
    the one for I = () (``_subset_records``) and filtered by every d.
    An empty grid is a ``ValueError``."""
    n = params.n
    grid = tuple(sorted({Fraction(d) for d in d_grid}))
    if not grid:
        raise ValueError("certificate needs a nonempty d grid")
    root = module_terms(params, (), degree_window, action_window)
    bases = {r.indices: r for r in _subset_records(root, _all_subsets(n))}
    nonvanishing_results: list[NonvanishingResult] = []
    hs: list[NovikovRecord] = []
    full: dict[Fraction, GradedDims] = {}
    for d in grid:
        total = GradedDims.empty()
        for subset, base in bases.items():
            nonvanishing_results.append(structure_map_nonzero(params, subset, d))
            rec = _terms_at(base, d)
            hs.append(rec)
            total = total + g_space_cached(n, subset).tensor(rec.graded)
        full[d] = total
    return CertificateReport(
        params=params,
        d_grid=grid,
        nonvanishing=nonvanishing_results,
        h_records=hs,
        full_hom=full,
        verdict=all(t.nonzero for t in nonvanishing_results),
    )


# ---------------------------------------------------------------------------
# pairings with the torus / real-form sides


TORUS = "clifford_torus"
PROJECTIVE = "real_projective"
DIAGONAL = "diagonal"

def torus_factor(n: int) -> GradedDims:
    """H of the maximal torus: (1 + t)^(N-1)."""
    out = GradedDims.line(0)
    step = GradedDims({0: 1, 1: 1})
    for _ in range(n - 1):
        out = out.tensor(step)
    return out


def so_factor(n: int) -> GradedDims:
    """Mod-2 series of SO(N): product of (1 + t^i), i = 1..N-1, a
    simple system of generators in degrees 1..N-1 (checked against
    cellular computations for N <= 4 in the test suite)."""
    out = GradedDims.line(0)
    for i in range(1, n):
        out = out.tensor(GradedDims({0: 1, i: 1}))
    return out


def pair_hom(
    params: OrbitParams,
    side_a: str,
    side_b: str,
    d: Fraction,
    degree_window: DegreeWindow = DEFAULT_DEGREE_WINDOW,
    action_window: ActionWindow = DEFAULT_ACTION_WINDOW,
    char_two: bool = False,
) -> GradedDims:
    """Graded pairing answer: the diagonal answer times one factor per
    non-diagonal side (torus: (1+t)^(N-1); real form: the mod-2 SO(N)
    series, requiring characteristic 2).  Every subset's H_I(d) is
    derived from the one for I = () (``_subset_records``)."""
    sides = (side_a, side_b)
    for side in sides:
        if side not in (DIAGONAL, TORUS, PROJECTIVE):
            raise ValueError(f"unknown side {side!r}")
    if PROJECTIVE in sides and not char_two:
        raise ValueError(
            "the real-projective side requires coefficient characteristic 2"
        )
    n = params.n
    root = module_terms(params, (), degree_window, action_window)
    total = GradedDims.empty()
    for rec in _subset_records(_terms_at(root, d), _all_subsets(n)):
        total = total + g_space_cached(n, rec.indices).tensor(rec.graded)
    for side in sides:
        if side == TORUS:
            total = total.tensor(torus_factor(n))
        elif side == PROJECTIVE:
            total = total.tensor(so_factor(n))
    return total


def jump_spectrum(
    params: OrbitParams,
    indices: Iterable[int],
    action_window: tuple[Fraction, Fraction] = (Fraction(0), Fraction(3)),
    degree_window: DegreeWindow = DEFAULT_DEGREE_WINDOW,
) -> list[Fraction]:
    """Sorted distinct nonnegative actions -a(l) of the module's terms
    inside [lo, hi): the filtration values where H_I(d) grows."""
    lo, hi = (Fraction(a) for a in action_window)
    base = module_terms(
        params,
        indices,
        degree_window=degree_window,
        action_window=(-hi, -lo),
    )
    values = sorted(
        {-e.action for e in base.elements if lo <= -e.action < hi}
    )
    return values
