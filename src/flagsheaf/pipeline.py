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
import operator
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, compress
from typing import Iterable, NamedTuple, Sequence

from . import __version__ as _package_version
from .flag_schubert import FlagType, _all_subsets, betti, g_space
from .graded import GradedDims
from .root_system import (
    CartanVector,
    CenterClass,
    IntegrityError,
    cartan,
    e_profile,
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
    subset_masks,
    walk_cohomology,
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
_cone_blocks: dict[int, tuple[dict[tuple[int, ...], GradedDims], tuple]] = {}


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


def cone_blocks(n: int) -> tuple[dict[tuple[int, ...], GradedDims], tuple]:
    """The cone model's g(I) per subset I and their ``subset_masks``,
    built once per N."""
    if n not in _cone_blocks:
        mults = {s: g_space_cached(n, s) for s in _all_subsets(n)}
        _cone_blocks[n] = mults, subset_masks(mults)
    return _cone_blocks[n]


def cone_table(
    n: int, z: CenterClass | None, window: LatticeBox
) -> ApexTable:
    """Apex table of the cone model (``build_cone_model``) over the
    lattice points of the window in class z, with its column index: the
    batch of stalks of ``crosscheck_stalks`` reads it."""
    return apex_table(n, z, window, cone_blocks(n)[0])


def build_cone_model(
    n: int,
    z: CenterClass | None,
    window: LatticeBox,
    profile_box: LatticeBox | None = None,
) -> SheafComplex:
    """The cone model as a validated complex: one windowed standard
    complex per subset I, shifted by -e_I in both position and degree
    and weighted by the elementary graded space of I.

    A generator is indexed by (I, J, m): region KCone(J, m), center
    exp(m), total degree |J| - D(m), multiplicity g(I); the apex m runs
    over the lattice points of the window in class z (every class when
    None) whose scaled profile N<m, e_k> lies in ``profile_box``, with m
    + e_I in the J-admissible sublattice.  Its apexes come from one
    plain ``lattice_points`` walk, never from an apex table, so the
    oracle shares no index with the block sums it checks."""
    residue = None if z is None else z.residue
    return cone_complex(
        n, cone_blocks(n)[0], lattice_points(n, residue, window, profile_box)
    )


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
    profile, d = p.integer_profile
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
    [2 lo_u - 2 hi_u, 2 hi_u - 2 lo_u]; on ints via ``m.integer_profile``.
    """
    s, d = m.integer_profile
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
) -> GradedDims:
    """Stalk at p of the center-z fiber in the second description: one
    flag-cohomology summand, shifted down by D(l), for every lattice
    l in C_- (every x_k <= 0) with exp(l) = z and p << l, that is
    N<l, e_k> >= floor(N<p, e_k>) + 1 for every k: one ``lattice_points``
    walk over x <= 0 with the profile P in [floor(N<p, e_k>) + 1, 0], where
    x_k = (2 P_k - P_{k-1} - P_{k+1}) / N >= 2 P_k / N bounds it below."""
    _require_interior(p)
    lower = [b + 1 for b in stalk_bound(n, p)]
    coord_box = tuple((-(-2 * b // n), 0) for b in lower)
    profile_box = tuple((b, 0) for b in lower)
    terms: list[tuple[int, int]] = []
    for combo, _ in lattice_points(n, z.residue, coord_box, profile_box):
        iset = tuple(k for k, x in enumerate(combo, 1) if x < 0)
        shift, betti_l = lattice_degree(n, combo), betti_cached(n, iset)
        terms.extend((deg - shift, dim) for deg, dim in betti_l.items())
    return GradedDims(terms)


def sample_c_minus_interior(
    n: int, rng, depth: Fraction = Fraction(5, 2), denom: int = 16
) -> CartanVector:
    """Random rational point of the open negative chamber with pairing
    profile bounded below by -depth, drawn from a ``random.Random``.

    Sampling is exact: coordinates k = 1..N-1 are
    -rng.randint(1, 2 * denom) / denom, drawn in that order, negative
    rationals, which land in the open chamber automatically; the point
    is scaled by 15/16 of depth / -min profile when its profile dips
    below -depth.  Python does not promise to keep ``randint``'s stream
    across versions; the golden crosscheck bytes pin it.
    """
    coords = [
        -Fraction(rng.randint(1, 2 * denom), denom) for _ in range(n - 1)
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
) -> CrosscheckReport:
    """Compare cone-model stalk cohomology, read off the model's apex
    table as block sums (``block_cohomology``), against the direct-sum
    description at points of the open chamber: the given ones, or
    ``samples`` points that ``sample_c_minus_interior`` draws one after
    another from ``random.Random(seed)``.

    Points whose required box is not inside the window are excluded
    from the comparison, not failed.  No points, or a window that
    excludes every point, is a ``ValueError``: it would check nothing.
    """
    if isinstance(samples, int):
        rng = random.Random(seed)
        points = [sample_c_minus_interior(n, rng) for _ in range(samples)]
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
    margins, as a block sum over the apexes one lemma-pruned walk keeps
    (``walk_cohomology``): no apex table."""
    required, profile_box = jump_required_box(n, m)
    window = resolve_window(window, required, f"jump at {m}")
    bound, exact = jump_bound(n, indices, m)
    return walk_cohomology(n, z, window, bound, exact, cone_blocks(n)[1],
                           profile_box)


# ---------------------------------------------------------------------------
# Novikov records


class NovikovElement(NamedTuple("_Term", [
    ("coords", tuple[int, ...]), ("action", Fraction), ("degree", int),
])):
    """A listed term, a tuple (coords, action, degree = -D(l))."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"l": [str(c) for c in self.coords],
                "action": str(self.action), "degree": self.degree}


# json.dumps(sort_keys=True, indent=2) text of a term as an item of a list
# at depth 0 (no string to escape), of the separator of its coordinates,
# and of the separator of two items; "\n" + "  " * depth indents them
_ITEM = ('{\n    "action": "%s",\n    "degree": %d,\n    "l": [\n      "%s"'
         '\n    ]\n  }')
_COORD = '",\n      "'
_SEP = ",\n  "


class TermBlock:
    """The v1 listings of the suffixes of the action-sorted ``terms`` (the
    records of one constraint mask, ``_h_records``), printed at the indent
    ``pad``: per pad, one item text per term of the root block, which a
    block cut from it (the terms whose ``keep`` flag is set) shares, one
    join of the block's items and their prefix sums."""

    def __init__(self, terms: tuple, root=None, keep=None):
        self.terms, self._root, self._keep = terms, root, keep
        self._at = {}  # pad -> (item texts, their join, prefix sums)

    def text_at(self, pad: str) -> tuple[list[str], str, list[int]]:
        if pad not in self._at:
            if self._root is not None:
                items = list(compress(self._root.text_at(pad)[0], self._keep))
            else:
                item, coord = (t.replace("\n", pad) for t in (_ITEM, _COORD))
                items, action = [], None
                for e in self.terms:
                    if e.action is not action:  # a run of terms shares it
                        action, shown = e.action, str(e.action)
                    items.append(item % (
                        shown, e.degree, coord.join(map(str, e.coords))))
            self._at[pad] = (items, _SEP.replace("\n", pad).join(items),
                             list(accumulate(map(len, items), initial=0)))
        return self._at[pad]


class TermListing(NamedTuple):
    """``block.terms[start:]`` as v1 lists it: the CLI writer prints
    ``json_text(pad)``, its ``json.dumps(sort_keys=True, indent=2)`` text
    at the indent ``pad`` (a slice of the block's join there), and
    ``pretty`` prints the term dicts of ``expand``."""

    block: TermBlock
    start: int

    def json_text(self, pad: str) -> str:
        if self.start == len(self.block.terms):
            return "[]"
        _, joined, before = self.block.text_at(pad)
        at = before[self.start] + (len(pad) + 3) * self.start  # separators
        return "[" + pad + "  " + joined[at:] + pad + "]"

    def expand(self) -> list[dict]:
        return [e.to_json() for e in self.block.terms[self.start:]]


@dataclass(frozen=True)
class NovikovRecord:
    indices: tuple[int, ...]
    d: Fraction
    elements: tuple[NovikovElement, ...]
    graded: GradedDims
    block: TermBlock | None = field(default=None, compare=False, repr=False)

    def listing(self) -> TermListing:
        block = self.block or TermBlock(self.elements)
        return TermListing(block, len(block.terms) - len(self.elements))

    def to_json(self) -> dict:
        return {
            "i": ",".join(str(k) for k in self.indices),
            "d": str(self.d),
            "elements": self.listing(),
            "graded": self.graded.to_json(),
        }


def action_of(params: OrbitParams, coords: Sequence[int]) -> Fraction:
    """<l, lam * e_1> = lam * sum_k x_k (N - k) / N for the lattice
    point l with integer coordinates ``coords``, as one Fraction."""
    n, lam = params.n, params.lam
    scaled = sum(map(operator.mul, coords, range(n - 1, 0, -1)))
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
DEFAULT_SPECTRUM_WINDOW: ActionWindow = (Fraction(0), Fraction(3))


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
    same order; I and I + {1} give equal lists (``_h_records``).

    Terms are listed by (action, degree, coords), sorted on the int a in
    place of the action: lam > 0 (``OrbitParams``), so the two order the
    terms alike.  Each distinct a takes its action from one ``action_of``
    call on its first term's integer coordinates; its terms share it.
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
    elements, last = [], None
    for a, degree, coords in keyed:
        if a != last:
            last, action = a, action_of(params, coords)
        elements.append(NovikovElement(coords, action, degree))
    return NovikovRecord(
        indices=tuple(sorted(idx)),
        d=Fraction(0),
        elements=tuple(elements),
        graded=GradedDims(Counter(degree for _, degree, _ in keyed)),
    )


def h_graded(
    params: OrbitParams,
    indices: Iterable[int],
    d: Fraction,
    degree_window: DegreeWindow = DEFAULT_DEGREE_WINDOW,
    action_window: ActionWindow = DEFAULT_ACTION_WINDOW,
) -> NovikovRecord:
    """Graded dimensions of H_I(d): the terms of the module with
    action + d >= 0, in degree -D(l)."""
    base = module_terms(params, indices, degree_window, action_window)
    (record,) = _h_records(params, base, (base.indices,), (Fraction(d),))
    return record


def _h_records(
    params: OrbitParams,
    base: NovikovRecord,
    subsets: Sequence[tuple[int, ...]],
    grid: Sequence[Fraction],
) -> list[NovikovRecord]:
    """H_I(d) for every d of the ascending ``grid`` and every subset I
    that contains ``base.indices``, by d and then by subset: the terms of
    ``base`` with action + d >= 0, a tail of the list (it is sorted by
    action), and x_j <= -1 on I - base.indices, j >= 2 (the nesting
    lemma of ``module_terms``).  Tails are cut on the int key a = N *
    action / lam = sum_k x_k (N - k) of ``module_terms``: action + d >= 0
    iff a >= ceil(-N d / lam).  The tail of the largest d is filtered
    once per constraint mask, which I and I + {1} share (mask 0 keeps
    it whole), by per-coordinate lists of x_j < 0 built once per j; each
    smaller d keeps a suffix, counted as the previous d's counts plus
    the terms between the two cuts.  A mask builds a ``GradedDims`` only
    when its cut moves: a d with the previous d's cut shares its table.
    The records of one mask share one ``TermBlock`` over its filtered
    tail."""
    if grid[0] < 0:
        raise ValueError("the structure maps exist for d >= 0 only")
    n, lam, weights = params.n, params.lam, range(params.n - 1, 0, -1)

    def cut(terms, d):  # the first term with a >= ceil(-N d / lam)
        a = -(n * d.numerator * lam.denominator
              // (d.denominator * lam.numerator))
        return bisect_left(terms, a, key=lambda e: sum(
            map(operator.mul, e.coords, weights)))

    tail = base.elements[cut(base.elements, grid[-1]):]
    needs = [tuple(j for j in subset if j > 1 and j not in base.indices)
             for subset in subsets]
    negative = {j: [e.coords[j - 1] < 0 for e in tail]
                for j in {j for need in needs for j in need}}
    by_mask = {}  # per constraint mask, per d: (elements, graded, block)
    root = TermBlock(tail)
    for need in dict.fromkeys(needs):
        keep = negative[need[0]] if need else None
        for j in need[1:]:
            keep = list(map(operator.and_, keep, negative[j]))
        kept = tuple(compress(tail, keep)) if need else tail
        block = TermBlock(kept, root, keep) if need else root
        rows, counts, end, graded = [], Counter(), len(kept), None
        for d in grid:
            start = cut(kept, d)
            if graded is None or start < end:
                counts.update(e.degree for e in kept[start:end])
                graded = GradedDims(counts)
            rows.append((kept[start:], graded, block))
            end = start
        by_mask[need] = rows
    return [NovikovRecord(subset, d, *by_mask[need][k])
            for k, d in enumerate(grid)
            for subset, need in zip(subsets, needs)]


@dataclass(frozen=True)
class NonvanishingResult:
    indices: tuple[int, ...]
    witness: tuple[int, ...]
    action: Fraction
    degree: int

    def to_json(self) -> dict:
        return {
            "i": ",".join(str(k) for k in self.indices),
            "structure_map_nonzero": True,
            "witness": [str(c) for c in self.witness],
            "witness_action": str(self.action),
            "witness_degree": self.degree,
            # a witness always exists, so both flags are constant; they
            # stay until the schema's next version
            "certified_empty": False,
        }


def structure_map_nonzero(
    params: OrbitParams, indices: Iterable[int], d: Fraction
) -> NonvanishingResult:
    """Non-vanishing of the structure map H_I(0) -> H_I(d), with an
    explicit witness in S_I(0), which does not depend on d.

    The map is induced by the inclusion of term sets, so it is nonzero
    exactly when S_I(0) is nonempty.  The search is certified: fixing
    x_j = -[j in I] for j >= 2 maximizes the action over the
    constraint set, the action bound forces x_1 >= ceil(sum of
    (N-j)/(N-1) over j in I), and exactly one x_1 in any N consecutive
    integers has center class 0: the least such x_1 gives the witness.
    """
    if Fraction(d) < 0:
        raise ValueError("the structure maps exist for d >= 0 only")
    n = params.n
    idx = tuple(sorted(set(indices)))
    if any(not 1 <= k <= n - 1 for k in idx):
        raise ValueError("subset indices out of range")
    need = sum(n - j for j in idx if j >= 2)
    x1_lo = math.ceil(Fraction(need, n - 1))
    target = sum(j for j in idx if j >= 2) % n
    x1 = x1_lo + (target - x1_lo) % n
    coords = (x1,) + tuple(-1 if j in idx else 0 for j in range(2, n))
    act = action_of(params, coords)
    if lattice_center(n, coords) != 0 or act < 0:
        raise IntegrityError(
            "canonical witness construction produced an invalid "
            f"element {coords}"
        )
    return NonvanishingResult(
        indices=idx,
        witness=coords,
        action=act,
        degree=-lattice_degree(n, coords),
    )


def _flag_sum(n: int, records: Iterable[NovikovRecord]) -> GradedDims:
    """The direct sum over the records of g(I) tensor H_I(d), tensored
    once per distinct table object: the records that share a table sum
    their g(I) first, as sum g(I) tensor H = (sum g(I)) tensor H."""
    shared = {}  # id of a table -> (the table, the sum of its g(I))
    for rec in records:
        _, mult = shared.setdefault(id(rec.graded), (rec.graded, Counter()))
        for deg, dim in g_space_cached(n, rec.indices).items():
            mult[deg] += dim
    return GradedDims((a + b, x * y) for table, mult in shared.values()
                      for a, x in mult.items() for b, y in table.items())


@dataclass
class CertificateReport:
    params: OrbitParams
    d_grid: tuple[Fraction, ...]
    witnesses: list[NonvanishingResult]  # one per subset
    h_records: list[NovikovRecord]  # per d, one per subset
    full_hom: dict[Fraction, GradedDims]

    def to_json(self) -> dict:
        witnesses = [w.to_json() for w in self.witnesses]
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
            # v1 repeats the witness per d; "pretty" keeps this key order
            "records": [{"i": w["i"], "d": str(d), **w}
                        for d in self.d_grid for w in witnesses],
            "h_graded": [r.to_json() for r in self.h_records],
            "full_hom": {
                str(d): g.to_json() for d, g in self.full_hom.items()
            },
            "verdict": True,  # structure_map_nonzero raises otherwise
            "versions": {"flagsheaf": _package_version},
        }


def certificate(
    params: OrbitParams,
    d_grid: Sequence[Fraction] = DEFAULT_D_GRID,
    degree_window: DegreeWindow = DEFAULT_DEGREE_WINDOW,
    action_window: ActionWindow = DEFAULT_ACTION_WINDOW,
) -> CertificateReport:
    """Run the non-vanishing check once for every subset I (its witness
    does not depend on d); per d in the grid, sum g(I) tensor H_I(d)
    over I.  Every H_I(d) is derived from the term list for I = ()
    (``_h_records``); a d whose tables are all the previous d's objects
    shares its sum.  An empty grid is a ``ValueError``."""
    n = params.n
    grid = tuple(sorted({Fraction(d) for d in d_grid}))
    if not grid:
        raise ValueError("certificate needs a nonempty d grid")
    subsets = _all_subsets(n)
    witnesses = [structure_map_nonzero(params, s, 0) for s in subsets]
    root = module_terms(params, (), degree_window, action_window)
    hs = _h_records(params, root, subsets, grid)
    k, full, last = len(subsets), {}, None
    for i, d in enumerate(grid):
        rows = hs[i * k:(i + 1) * k]
        tables = [r.graded for r in rows]
        if last is None or any(map(operator.is_not, tables, last)):
            total = _flag_sum(n, rows)
        full[d], last = total, tables
    return CertificateReport(
        params=params,
        d_grid=grid,
        witnesses=witnesses,
        h_records=hs,
        full_hom=full,
    )


# ---------------------------------------------------------------------------
# pairings with the torus / real-form sides


TORUS = "clifford_torus"
PROJECTIVE = "real_projective"
DIAGONAL = "diagonal"

def torus_factor(n: int) -> GradedDims:
    """H of the maximal torus: (1 + t)^(N-1)."""
    return GradedDims({k: math.comb(n - 1, k) for k in range(n)})


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
    derived from the term list for I = () (``_h_records``)."""
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
    total = _flag_sum(
        n, _h_records(params, root, _all_subsets(n), (Fraction(d),)))
    for side in sides:
        if side == TORUS:
            total = total.tensor(torus_factor(n))
        elif side == PROJECTIVE:
            total = total.tensor(so_factor(n))
    return total


def jump_spectrum(
    params: OrbitParams,
    indices: Iterable[int],
    action_window: ActionWindow = DEFAULT_SPECTRUM_WINDOW,
    degree_window: DegreeWindow = DEFAULT_DEGREE_WINDOW,
) -> list[Fraction]:
    """Sorted distinct values -a(l) of the module's terms inside
    [max(lo, 0), hi): the filtration values d >= 0 where H_I(d) grows."""
    lo, hi = (Fraction(a) for a in action_window)
    base = module_terms(
        params,
        indices,
        degree_window=degree_window,
        action_window=(-hi, -lo),
    )
    lo = max(lo, 0)  # the structure maps exist for d >= 0 only
    # terms ascend in action, and a run of equal actions shares one
    # Fraction (module_terms): one value per run, read in descending order
    values, action = [], None
    for e in base.elements:
        if e.action is not action:
            action = e.action
            if lo <= (value := -action) < hi:
                values.append(value)
    return values[::-1]
