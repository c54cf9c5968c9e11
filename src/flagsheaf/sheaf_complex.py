"""Formal complexes of constant sheaves on polyhedral regions of the
Cartan algebra, with a center-class label on every summand.

A ``SheafComplex`` is a finite list of generators; each generator is a
constant sheaf on one region, placed in one total complex degree,
tensored with a graded multiplicity space.  Differential entries are
rational multiples of canonical maps (restrictions onto smaller closed
cones), so stalks and sections turn the complex into an ordinary
finite complex of K-vector spaces with the same coefficients.  That
finite complex keeps one basis line per alive generator, carrying the
generator's multiplicity space: taking cohomology commutes with
tensoring by it.  Coefficients with denominator 1 are kept as ``int``
throughout.

Cohomology is computed by unit-pivot (algebraic Morse) reduction
(Kaczynski-Mischaikow-Mrozek, Computational Homology, 2004; Skoldberg,
Trans. AMS 2006): every entry d(i->j) = +-1 cancels the lines i and j,
and exact rank runs only on what is left.  d*d = 0 is checked once per
``SheafComplex`` when it is built; stalks, sections and jumps are all
restrictions of it and inherit it (see ``_restrict``), while a
``FiniteComplex`` built by hand checks its own entries.

Cone complexes (the standard complex Y and the cone model) need no
complex at all: their stalks, sections and jumps are closed-form block
sums (``_block_sum``, whose docstring has the proof), over the apexes
of one lemma-pruned lattice walk for a one-shot query
(``walk_cohomology``), or read off the column index of an ``ApexTable``
for a batch of stalks (``block_cohomology``).  The built
``SheafComplex`` (``cone_complex`` on the rows of a plain walk), its
restrictions and their unit-pivot cohomology stay as the oracle both
are tested against, and as the engine for hand-built complexes with
lower-set generators.

Supported regions (parameters are exact rational Cartan vectors):

* ``UMinusOpen(x)``  {y in interior(C_-) : y << x}
* ``UOpen(x)``       {y : y << x}
* ``KCone(J, l)``    {y : <y - l, e_j> >= 0 for all j in J}, at a
  lattice apex l, so its bounds N<l, e_j> are integers

Windowed direct sums over the central lattice truncate to a finite
coordinate box, and queries are exact for every lattice summand inside
it.  Certified margins for specific queries are derived in
:mod:`flagsheaf.pipeline`.

Soundness contract for sections: for a generator which is a cone
``KCone(J, l)``, sections over a convex open U are K exactly when the
cone meets U (the intersection is closed in U and convex).  Each
lower set U has a top x^: x itself for ``UOpen(x)``, and for
``UMinusOpen(x)`` the largest point of C_- below x, as UMinusOpen(x) =
UMinusOpen(x^) (``_chamber_hull``).  For a generator ``UMinusOpen(y)``,
sections over U are K exactly when x^ <= y in dominance order; this
encodes the propagation of such sheaves across the lower boundary and
is the one place where the model imports a sheaf-theoretic fact
instead of re-deriving it.  Higher section cohomology of a single
generator over these sets vanishes (convexity), so the rules above
determine the section complex entirely.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .flag_schubert import _all_subsets
from .graded import GradedDims
from .linalg import Scalar, Triplet, rank_triplets
from .root_system import (
    CartanVector,
    CenterClass,
    IntegrityError,
    cartan,
    lattice_center,
    lattice_degree,
    scaled_profile,
)

# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class UMinusOpen:
    x: CartanVector


@dataclass(frozen=True)
class UOpen:
    x: CartanVector


@dataclass(frozen=True)
class KCone:
    indices: frozenset[int]
    apex: CartanVector

    def __post_init__(self):
        object.__setattr__(self, "indices", frozenset(self.indices))
        if not self.apex.is_integral():
            raise ValueError(f"cone apex {self.apex} is not a lattice point")
        for j in self.indices:
            if not 1 <= j <= self.apex.n - 1:
                raise ValueError(f"cone index {j} out of range")


Region = UMinusOpen | UOpen | KCone


def region_rank(region: Region) -> int:
    if isinstance(region, KCone):
        return region.apex.n
    return region.x.n


def region_contains(region: Region, p: CartanVector) -> bool:
    """Exact membership via the defining pairings (scaled by N)."""
    n = region_rank(region)
    if p.n != n:
        raise ValueError(f"rank mismatch: region has N={n}, point N={p.n}")
    pu = scaled_profile(n, p.coords)
    if isinstance(region, (UMinusOpen, UOpen)):
        xu = scaled_profile(n, region.x.coords)
        inside = isinstance(region, UOpen) or all(c < 0 for c in p.coords)
        return inside and all(a < b for a, b in zip(pu, xu))
    if isinstance(region, KCone):
        au = scaled_profile(n, region.apex.coords)
        return all(pu[j - 1] >= au[j - 1] for j in region.indices)
    raise TypeError(f"unknown region kind {type(region).__name__}")


# ---------------------------------------------------------------------------
# the complex

def _exact(c) -> Scalar:
    """``c`` as an int when its denominator is 1, else as a Fraction."""
    c = c if type(c) is int else Fraction(c)
    return c.numerator if c.denominator == 1 else c


def verify_dd_zero(entries: Iterable[Triplet]):
    """Symbolic d*d = 0 on the (src, dst, coeff) entries of a
    differential; raises IntegrityError on a nonzero composite."""
    outgoing: dict[int, list[tuple[int, Scalar]]] = {}
    for i, j, c in entries:
        outgoing.setdefault(i, []).append((j, c))
    square: dict[tuple[int, int], Scalar] = {}
    for i, firsts in outgoing.items():
        for j, c1 in firsts:
            for k, c2 in outgoing.get(j, ()):
                square[i, k] = square.get((i, k), 0) + c1 * c2
    bad = {k: v for k, v in square.items() if v != 0}
    if bad:
        raise IntegrityError(f"d*d != 0 on index pairs {bad}")


@dataclass(frozen=True)
class SheafGenerator:
    """One summand: (constant sheaf on region) placed in total complex
    degree ``degree``, tensored with the graded space ``mult``.

    Wherever the generator is alive it gives one basis line carrying
    ``mult``: a multiplicity entry {delta: m} stands for m lines in
    total degree ``degree + delta``.  Cones at one apex share a center.
    """

    region: Region
    center: CenterClass
    degree: int
    mult: GradedDims = field(default_factory=GradedDims.line)
    label: tuple = ()


def _check_entry_regions(src: SheafGenerator, dst: SheafGenerator):
    """Accept only entries proportional to a canonical nonzero map:
    the restriction of a closed cone onto a smaller cone (same apex, a
    larger index set), the identity on every stalk both contain.
    """
    rs, rd = src.region, dst.region
    if isinstance(rs, KCone) and isinstance(rd, KCone):
        if rs.apex.coords == rd.apex.coords and rs.indices <= rd.indices:
            return
    raise ValueError(
        f"no canonical sheaf map supports the entry {rs} -> {rd}"
    )


class SheafComplex:
    """Immutable windowed complex of labelled constant sheaves, checked
    when it is built, d*d = 0 included."""

    def __init__(
        self,
        n: int,
        generators: Sequence[SheafGenerator],
        entries: Sequence[tuple[int, int, Fraction]],
    ):
        self.n = n
        self.generators = tuple(generators)
        self.entries = tuple(
            (int(i), int(j), _exact(c)) for i, j, c in entries
        )
        apex_center: dict[int, int] = {}  # id(apex) -> its cones' residue
        for gen in self.generators:
            region, residue = gen.region, gen.center.residue
            if region_rank(region) != n or gen.center.n != n:
                raise ValueError("generator rank mismatch")
            if isinstance(region, KCone):
                shared = apex_center.setdefault(id(region.apex), residue)
                if shared != residue:
                    raise ValueError("cones at one apex in two center classes")
        for i, j, c in self.entries:
            src, dst = self.generators[i], self.generators[j]
            if src.center != dst.center:
                raise ValueError("differential entry mixes center classes")
            if dst.degree != src.degree + 1:
                raise ValueError("differential entry is not of degree +1")
            if dst.mult != src.mult:
                raise ValueError("differential entry mixes multiplicities")
            if c == 0:
                raise ValueError("zero differential entry")
            _check_entry_regions(src, dst)
        verify_dd_zero(self.entries)


# ---------------------------------------------------------------------------
# the apex table: one walk over the window's lattice apexes

LatticeBox = tuple[tuple[int, int], ...]


def lattice_points(
    n: int, residue: int | None, coord_box: LatticeBox,
    profile_box: LatticeBox | None = None,
    bound: Sequence | None = None, exact: frozenset[int] = frozenset(),
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(m, P) for the lattice points m of ``coord_box`` in center class
    ``residue`` (every class when None) with scaled profile P_k =
    N<m, e_k> inside ``profile_box`` (default: the window's range), in
    lexicographic order of m; given a ``bound``, only the apexes the
    row lemma of ``_block_sum`` keeps for (``bound``, ``exact``).

    A triangular walk (Cohen, A Course in Computational Algebraic Number
    Theory, 1993, 2.4) in the unimodular coordinates (P_1, x_1, ..,
    x_{N-2}), on ints: P_1 = sum_j (N - j) x_j = -sum_j j x_j mod N steps
    by N through the class; <m, f_k> = x_k gives P_{k+1} = 2 P_k -
    P_{k-1} - N x_k, so each x_k takes one range keeping P_{k+1} in its
    box; and x_{N-1} = (2 P_{N-1} - P_{N-2}) / N = c - 2 x_{N-2}, c an
    integer, is kept in the window by the innermost range.

    Given a bound, the walk yields exactly the rows that lemma keeps, in
    the same order.  Each of its conditions reads one coordinate.  On
    ``exact``, P_k = b_k is, for an int P_k, P_k in [ceil b_k, floor
    b_k], which meets P_k's box before the walk (empty off the
    integers).  Off it, x_k = 0, or x_k > 0 exactly when P_k <= b_k:
    P_k is fixed once x_1, .., x_{k-1} are, so a partial point that
    breaks the rule at x_k has no kept completion and is dropped where
    x_k is chosen; x_{N-2} and x_{N-1}, chosen together, are checked
    per point.  Dropping keeps the order."""
    if len(coord_box) != n - 1:
        raise ValueError(f"window must have {n - 1} coordinate ranges")
    if any(lo > hi for lo, hi in coord_box):
        raise ValueError("empty window")
    if profile_box is None:  # P_k is increasing in every coordinate
        profile_box = tuple(
            zip(*(scaled_profile(n, c) for c in zip(*coord_box)))
        )
    signs = None  # k -> b_k off exact: x_k's sign rule
    if bound is not None:
        profile_box = tuple(  # P_k = b_k on exact
            (max(lo, math.ceil(b)), min(hi, math.floor(b))) if k in exact
            else (lo, hi)
            for k, (lo, hi), b in zip(range(1, n), profile_box, bound)
        )
        signs = {k: b for k, b in enumerate(bound, 1) if k not in exact}
    lo, hi = profile_box[0]  # P_1 = sum_j (N - j) x_j, also in the window
    lo = max(lo, sum((n - j) * a for j, (a, _) in enumerate(coord_box, 1)))
    hi = min(hi, sum((n - j) * b for j, (_, b) in enumerate(coord_box, 1)))
    step = 1 if residue is None else n
    if residue is not None:  # from the class's first value
        lo += (residue - lo) % n
    if n == 2:
        points = [((p,), (p,)) for p in range(lo, hi + 1, step)]
    else:
        # (P_{k-1}, P_k, (x_1, .., x_{k-1}), (P_1, .., P_k))
        level = [(0, p, (), (p,)) for p in range(lo, hi + 1, step)]
        for (x_lo, x_hi), (p_lo, p_hi) in zip(
            coord_box[:-2], profile_box[1:-1]
        ):
            level = [
                (cur, t - n * x, combo + (x,), prof + (t - n * x,))
                for prev, cur, combo, prof in level
                for t in (2 * cur - prev,)
                for x in range(
                    max(x_lo, -((p_hi - t) // n)),
                    min(x_hi, (t - p_lo) // n) + 1,
                )
            ]
            if signs and level and len(level[0][2]) in signs:
                b = signs[len(level[0][2])]  # x_k = combo[-1], P_k = prev
                level = [v for v in level
                         if (x := v[2][-1]) == 0 or (x > 0) == (v[0] <= b)]
        (x_lo, x_hi), (y_lo, y_hi) = coord_box[-2:]
        p_lo, p_hi = profile_box[-1]
        points = []
        for prev, cur, combo, prof in level:
            t = 2 * cur - prev
            c = (2 * t - cur) // n
            for x in range(
                max(x_lo, -((p_hi - t) // n), -((y_hi - c) // 2)),
                min(x_hi, (t - p_lo) // n, (c - y_lo) // 2) + 1,
            ):
                points.append((combo + (x, c - 2 * x), prof + (t - n * x,)))
        points.sort()
    for k in (n - 2, n - 1) if signs else ():  # x_{N-2}, x_{N-1}
        if k in signs:
            b = signs[k]
            points = [q for q in points if (x := q[0][k - 1]) == 0
                      or (x > 0) == (q[1][k - 1] <= b)]
    return points


class ApexRow(NamedTuple):
    """One lattice apex m = (x_1, .., x_{N-1}) of an ``ApexTable``: its
    coordinates and scaled profile N<m, e_j> (ints)."""

    combo: tuple[int, ...]
    profile: tuple[int, ...]


class ApexColumn(NamedTuple):
    """Bit-sliced index of an ``ApexTable`` on coordinate k (O'Neil and
    Quass, SIGMOD 1997): bit i stands for rows[i].  ``values`` ascend, and
    at_most[i] holds the rows with P_k = N<m, e_k> <= values[i - 1], so
    P_k <= b on at_most[bisect_right(values, b)]."""

    positive: int  # rows with x_k > 0
    negative: int  # rows with x_k < 0
    values: tuple[int, ...]
    at_most: tuple[int, ...]


@dataclass(frozen=True)
class ApexTable:
    """The blocks of a cone complex (``cone_complex``): one per (subset
    I, apex m of ``rows``), with ``masks`` pairing the bitmask of each I
    (bit j - 1 for index j) with its weight g(I), and ``columns[k - 1]``
    the index on coordinate k."""

    n: int
    rows: tuple[ApexRow, ...]
    masks: tuple[tuple[int, GradedDims], ...]
    columns: tuple[ApexColumn, ...]


def subset_masks(mults: dict[tuple[int, ...], GradedDims]) -> tuple:
    """(bitmask of I, bit j - 1 for index j, mults[I]) per subset I."""
    return tuple((sum(1 << (k - 1) for k in s), g) for s, g in mults.items())


_STANDARD_MULTS = {(): GradedDims.line()}  # the single block I = ()
_STANDARD_MASKS = subset_masks(_STANDARD_MULTS)


def apex_table(
    n: int,
    z: CenterClass | None,
    window: LatticeBox,
    mults: dict[tuple[int, ...], GradedDims] | None = None,
) -> ApexTable:
    """Table of the lattice apexes of ``window`` in class z (every class
    when None), in lexicographic order, with one block per subset of
    ``mults`` (default: the standard complex's single block I = () of
    multiplicity one line), and its column index, from one
    ``lattice_points`` walk: linear in the rows, and one sort of each
    column's distinct values."""
    if mults is None:
        mults = _STANDARD_MULTS
    residue = None if z is None else z.residue
    rows = []
    positive, negative = [0] * (n - 1), [0] * (n - 1)
    levels: list[dict[int, int]] = [{} for _ in range(n - 1)]  # P_k -> rows
    for combo, profile in lattice_points(n, residue, window):
        bit = 1 << len(rows)
        for k, (x, p) in enumerate(zip(combo, profile)):
            levels[k][p] = levels[k].get(p, 0) | bit
            if x > 0:
                positive[k] |= bit
            elif x < 0:
                negative[k] |= bit
        rows.append(ApexRow(combo, profile))
    columns = []
    for pos, neg, level in zip(positive, negative, levels):
        values, at_most = sorted(level), [0]
        for p in values:
            at_most.append(at_most[-1] | level[p])
        columns.append(ApexColumn(pos, neg, tuple(values), tuple(at_most)))
    return ApexTable(n, tuple(rows), subset_masks(mults), tuple(columns))


# ---------------------------------------------------------------------------
# closed-form block cohomology


def _check_bound(n: int, bound: Sequence, exact: frozenset[int]):
    if len(bound) != n - 1 or not exact.issubset(range(1, n)):
        raise ValueError(
            f"a bound needs {n - 1} entries and exact indices in 1..{n - 1}"
        )


def _block_sum(
    n: int, rows: Iterable, bound: Sequence, exact: frozenset[int], masks
) -> GradedDims:
    """Cohomology of a cone complex (``cone_complex``) restricted to the
    cones K(J, m) with exact <= J, N<m, e_j> <= bound[j - 1] on J and
    N<m, e_k> = bound[k - 1] on ``exact``, moved down by |exact| (the
    ``_select`` -> ``_restrict`` rule), without building the complex.
    ``rows`` are the apexes (x, P), P_j = N<m, e_j>, that the row lemma
    below keeps, and ``masks`` the ``subset_masks`` of the complex's
    blocks.  Two row sources feed it: the column index of an
    ``ApexTable`` (``block_cohomology``) and the lemma-pruned walk
    (``walk_cohomology``).

    The stalk at p takes bound floor(N<p, e_j>) (``stalk_bound``), the
    sections over a lower set of top x^ take ceil(N<x^, e_j>) - 1 on the
    standard complex (``sections_bound``), and the jump at (I, m) takes
    exact = I, bound N<m, e_k> on I and ceil(N<m, e_j>) - 1 off it
    (``jump_bound``), so it is moved down by |I|; no integer profile
    equals a bound that is not an integer, so then no cone is kept.

    Proof.  ``cone_complex`` has differential entries only inside a
    block (I, m): the signed restrictions K(J, m) -> K(J + {e}, m) with
    multiplicity g(I), over the J containing F = forced(I, m).  So the
    restriction is the direct sum of its blocks.  Per block the kept J
    are those with F | exact <= J <= A, A = {j : P_j <= bound[j - 1]},
    when P = bound on exact, and none otherwise (then exact <= A).  The
    interval [F | exact, A] with the signs (-1)^#{j in J : j < e} is the
    tensor product, over e in A - (F | exact), of the complexes K -> K
    (the identity), each acyclic, so by Kuenneth the block is acyclic
    unless F | exact = A.  Then it is the one line J = A, in degree
    |A| - D(m) - |exact|, carrying g(I).  As F = positive | (zeros & I),
    an apex keeps a block only if positive | exact <= A <= positive |
    zeros | exact.

    Lemma (the row filter, per coordinate).  That condition, with P =
    bound on exact, holds iff for every k: P_k = bound[k - 1] when k is
    in exact, and otherwise neither (x_k > 0 and P_k > bound[k - 1]) nor
    (x_k < 0 and P_k <= bound[k - 1]).  For k in exact both inclusions
    hold at k (k is in A).  For k off exact, k in positive must be in A,
    and k in A must be in positive | zeros, that is k is not negative.
    So a row source drops the other rows one coordinate at a time, and
    only the kept rows reach the subset match here.

    D(m) = -sum_j x_j 2j(N - j) is -4 sum_k P_k / N: P solves 2 P_k -
    P_{k-1} - P_{k+1} = N x_k with P_0 = P_N = 0, whose Green's function
    min(j, k)(N - max(j, k)) / N sums to j(N - j) / 2."""
    exact_mask = sum(1 << (k - 1) for k in exact)
    terms: list[tuple[int, int]] = []
    for combo, profile in rows:
        allowed, base, zeros = 0, exact_mask, 0
        for j, (x, a, b) in enumerate(zip(combo, profile, bound)):
            allowed |= (a <= b) << j
            base |= (x > 0) << j
            zeros |= (x == 0) << j
        offset = allowed.bit_count() + 4 * sum(profile) // n - len(exact)
        for mask, mult in masks:
            if base | (zeros & mask) == allowed:
                terms.extend((d + offset, dim) for d, dim in mult.items())
    return GradedDims(terms)


def block_cohomology(table: ApexTable, bound: Sequence) -> GradedDims:
    """``_block_sum`` of the cone complex of ``table`` under ``bound``, a
    bound with no exact index (a stalk's or the sections'), over the rows
    the column index keeps: by the row lemma, column k drops the rows
    with x_k > 0 and P_k > bound[k - 1] and those with x_k < 0 and P_k <=
    bound[k - 1], so one bisection per coordinate narrows a bitset of
    rows, and only the rows left are read.  ``bound`` has one entry per
    index 1..N-1; anything else is a ``ValueError``."""
    _check_bound(table.n, bound, frozenset())
    keep = (1 << len(table.rows)) - 1
    for b, column in zip(bound, table.columns):
        below = column.at_most[bisect_right(column.values, b)]  # P_k <= b
        keep &= ~(column.positive & ~below | column.negative & below)
    rows, kept = table.rows, []
    while keep:
        low = keep & -keep
        keep ^= low
        kept.append(rows[low.bit_length() - 1])
    return _block_sum(table.n, kept, bound, frozenset(), table.masks)


def walk_cohomology(
    n: int, z: CenterClass | None, window: LatticeBox, bound: Sequence,
    exact: frozenset[int] = frozenset(), masks: tuple = _STANDARD_MASKS,
    profile_box: LatticeBox | None = None,
) -> GradedDims:
    """``_block_sum`` of the cone complex with blocks ``masks`` (default:
    the standard complex's) on the lattice apexes of ``window`` in class
    z whose profile lies in ``profile_box``, with no table: one
    ``lattice_points`` walk yields only the rows the row lemma keeps."""
    _check_bound(n, bound, exact)
    residue = None if z is None else z.residue
    rows = lattice_points(n, residue, window, profile_box, bound, exact)
    return _block_sum(n, rows, bound, exact, masks)


# ---------------------------------------------------------------------------
# cone complexes: the windowed standard complex Y and the cone model


def _subset_sign(j_small: frozenset[int], added: int) -> int:
    """(-1)**(number of elements of the larger subset below ``added``)."""
    sigma = sum(1 for x in j_small if x < added)
    return -1 if sigma % 2 else 1


def cone_complex(
    n: int, mults: dict[tuple[int, ...], GradedDims], rows: Iterable
) -> SheafComplex:
    """Complex of constant sheaves on closed cones (Kashiwara-Schapira,
    Sheaves on Manifolds, 1990), one block per (subset I of ``mults``,
    apex m of ``rows``), subsets outermost: a generator KCone(J, m) for
    every J containing forced(I, m) = {k : <m, f_k> + [k in I] > 0}, in
    total degree |J| - D(m) at center exp(m), with multiplicity g(I) =
    ``mults[I]``, labelled ("cone", I, J, m), with differential the
    signed restrictions J -> J + {e} inside the block.  ``rows`` are
    (m, P) pairs as ``lattice_points`` yields them.  The result is
    validated, d*d = 0 included."""
    all_indices = range(1, n)
    subsets = [(jc, frozenset(jc)) for jc in _all_subsets(n)]
    apexes = [
        (combo, cartan(n, combo), CenterClass(n, lattice_center(n, combo)),
         lattice_degree(n, combo))
        for combo, _ in rows
    ]
    generators: list[SheafGenerator] = []
    entries: list[Triplet] = []
    cones: dict[tuple[int, frozenset[int]], KCone] = {}  # one per (m, J)
    blocks = ((i, g, apex) for i, g in mults.items() for apex in apexes)
    for subset, mult, (combo, m, cc, dm) in blocks:
        forced = frozenset(
            k for k in all_indices if combo[k - 1] + (k in subset) > 0
        )
        local: dict[frozenset[int], int] = {}
        for jc, j in subsets:
            if forced <= j:
                local[j] = len(generators)
                cone = cones.get((id(m), j))
                if cone is None:
                    cone = cones[id(m), j] = KCone(j, m)
                generators.append(
                    SheafGenerator(
                        region=cone,
                        center=cc,
                        degree=len(j) - dm,
                        mult=mult,
                        label=("cone", subset, jc, combo),
                    )
                )
        for j1, gi in local.items():
            for added in all_indices:
                if added in j1:
                    continue
                j2 = j1 | {added}
                if j2 in local:
                    entries.append((gi, local[j2], _subset_sign(j2, added)))
    return SheafComplex(n, generators, entries)


def build_standard_complex(n: int, window: LatticeBox) -> SheafComplex:
    """Windowed standard complex: the I = () block of the cone model,
    one line per cone K(J, l) for every lattice l in the window and
    every J containing {k : <l, f_k> > 0}."""
    return cone_complex(n, _STANDARD_MULTS, lattice_points(n, None, window))


# ---------------------------------------------------------------------------
# finite complexes and exact cohomology


def _cancel_unit_pivots(
    out: list[dict[int, Scalar]], inc: list[dict[int, Scalar]]
) -> list[bool]:
    """Unit-pivot reduction in place (see ``FiniteComplex.cohomology``):
    ``out[i]`` maps the targets of line i to their entries, ``inc[j]``
    the sources of line j.  Returns which lines are left."""
    left = [True] * len(out)
    for i, targets in enumerate(out):
        for j, c in targets.items():
            if c == 1 or c == -1:
                break
        else:
            continue
        del targets[j]
        sources = inc[j]
        del sources[i]
        for b in targets:
            del inc[b][i]
        for a in inc[i]:
            del out[a][i]
        for b in out[j]:
            del inc[b][j]
        for a in sources:
            del out[a][j]
        # d(a->b) -= d(a->j) * c * d(i->b)
        for a, a_j in sources.items():
            row, factor = out[a], a_j * c
            for b, i_b in targets.items():
                v = row.get(b, 0) - factor * i_b
                if v:
                    row[b] = inc[b][a] = v
                else:
                    del row[b], inc[b][a]
        out[i] = inc[i] = out[j] = inc[j] = {}
        left[i] = left[j] = False
    return left


class FiniteComplex:
    """Finite complex of K-vector spaces with rational differentials,
    one basis line per alive generator.

    Basis line i sits in total degree ``degrees[i]`` and carries the
    graded multiplicity space ``mults[i]`` (default: one line); entries
    (src, dst, coeff) have degree(dst) = degree(src) + 1 and act as
    coeff times the identity of the shared multiplicity space.
    ``dd_zero_known`` skips the d*d = 0 check of ``cohomology``; only
    restrictions of a ``SheafComplex`` set it.
    """

    def __init__(
        self,
        degrees: Sequence[int],
        entries: Iterable[Triplet],
        mults: Sequence[GradedDims] | None = None,
        *,
        dd_zero_known: bool = False,
    ):
        self.degrees = tuple(int(d) for d in degrees)
        self.entries = tuple(entries)
        self.mults = tuple(mults or [GradedDims.line()] * len(self.degrees))
        self.dd_zero_known = dd_zero_known
        if len(self.mults) != len(self.degrees):
            raise ValueError("expected one multiplicity per basis line")
        for i, j, _ in self.entries:
            if self.degrees[j] != self.degrees[i] + 1:
                raise ValueError("entry is not of degree +1")

    def cohomology(self) -> GradedDims:
        """Cohomology dimensions, each line's part tensored with its
        multiplicity space, by unit-pivot reduction.

        d*d = 0 is verified first unless ``dd_zero_known``.  Each entry
        d(i->j) = c = +-1 met in line order cancels lines i and j: for
        every other source a of j and target b of i, d(a->b) -=
        d(a->j) * c * d(i->b) (c is its own inverse), and all entries
        of i and j go.  The reduced complex is homotopy equivalent to
        the old one, and ``int`` entries stay ``int``.  An entry between
        lines of unequal multiplicity raises IntegrityError, so every
        fill-in joins equal multiplicities too.  What is left is ranked
        exactly per (multiplicity, degree): dim H^k = dim_k - rank d_k -
        rank d_{k-1}.  Cone-model stalks and jump complexes reduce to
        lines without entries, so they need no rank at all.
        """
        if not self.dd_zero_known:
            verify_dd_zero(self.entries)
        degrees, mults = self.degrees, self.mults
        size = len(degrees)
        out: list[dict[int, Scalar]] = [{} for _ in range(size)]
        inc: list[dict[int, Scalar]] = [{} for _ in range(size)]
        for i, j, c in self.entries:
            if mults[i] != mults[j]:
                raise IntegrityError(f"entry {i} -> {j} mixes multiplicities")
            c += out[i].get(j, 0)
            if c:
                out[i][j] = inc[j][i] = c
            else:
                out[i].pop(j, None)
                inc[j].pop(i, None)
        left = _cancel_unit_pivots(out, inc)
        # the residue, ranked per (multiplicity, degree)
        pos: dict[int, int] = {}
        dims: dict[tuple[GradedDims, int], int] = {}
        for i in range(size):
            if left[i]:
                key = (mults[i], degrees[i])
                pos[i] = dims.get(key, 0)
                dims[key] = pos[i] + 1
        mats: dict[tuple[GradedDims, int], list[Triplet]] = {}
        for i, p in pos.items():
            if out[i]:
                mats.setdefault((mults[i], degrees[i]), []).extend(
                    (p, pos[j], c) for j, c in out[i].items()
                )
        ranks = {
            (mult, d): rank_triplets(t, dims[mult, d], dims[mult, d + 1])
            for (mult, d), t in mats.items()
        }
        by_mult: dict[GradedDims, dict[int, int]] = {}
        for (mult, d), dim in dims.items():
            h = dim - ranks.get((mult, d), 0) - ranks.get((mult, d - 1), 0)
            if h:
                by_mult.setdefault(mult, {})[d] = h
        result = GradedDims.empty()
        for mult, h in by_mult.items():
            result = result + GradedDims(h).tensor(mult)
        return result


# ---------------------------------------------------------------------------
# stalks, sections, jumps: one selection, one restriction


def _select(
    s: SheafComplex, z: CenterClass | None, bound: Sequence, fallback,
    exact: frozenset[int] = frozenset(),
) -> list[bool]:
    """Alive flags of the generators of ``s`` in center class ``z``
    (every class when None).

    A cone KCone(J, l) is alive iff ``exact`` <= J, N<l, e_j> <=
    bound[j - 1] for every j in J and N<l, e_k> = bound[k - 1] for
    every k in ``exact``, compared exactly with the integers N<l, e_j>:
    the bound is floor(N<p, e_j>) for the stalk at p and ceil(X^_j) - 1
    for the sections over a lower set of top x^; the jump at (I, m)
    (``jump_complex``) sets ``exact`` = I, with N<m, e_k> on I.  Each
    apex object's center class (shared by its cones), equality on
    ``exact`` and allowed indices are decided together, once;
    ``fallback(region)`` decides every other generator.
    """
    residue = None if z is None else z.residue
    alive: list[bool] = []
    # id(apex) -> allowed indices, None when none of its cones is alive
    allowed_at: dict[int, set[int] | None] = {}
    for gen in s.generators:
        region = gen.region
        if isinstance(region, KCone):
            key = id(region.apex)
            if key not in allowed_at:
                coords = [c.numerator for c in region.apex.coords]
                profile = scaled_profile(s.n, coords)
                allowed_at[key] = (
                    {j for j, a in enumerate(profile, 1) if a <= bound[j - 1]}
                    if residue in (None, gen.center.residue)
                    and all(profile[k - 1] == bound[k - 1] for k in exact)
                    else None
                )
            allowed = allowed_at[key]
            alive.append(
                allowed is not None and exact <= region.indices <= allowed
            )
        else:
            alive.append(
                (residue is None or gen.center.residue == residue)
                and fallback(region)
            )
    return alive


def _restrict(
    s: SheafComplex, alive: Sequence[bool], shift: int = 0
) -> FiniteComplex:
    """Complex of the alive generators, the cones' degrees moved by
    ``shift``.

    It inherits d*d = 0, checked when ``s`` was built, when for every
    i -> j -> k in ``s`` with i and k alive, j is alive too: the (i, k)
    entry of d*d then sums over the same j before and after.  Validated
    entries restrict a cone K(J, l) onto a smaller cone K(J', l), J <=
    J', of the same apex and center, and per apex ``_select`` keeps the
    J with exact <= J <= allowed, an interval: J_i <= J_j <= J_k with
    both ends in it puts J_j in it.  No other generator has entries.
    """
    pos = [-1] * len(s.generators)
    alive_gens = []
    for gi, gen in enumerate(s.generators):
        if alive[gi]:
            pos[gi] = len(alive_gens)
            alive_gens.append(gen)
    entries = [
        (pos[i], pos[j], c)
        for i, j, c in s.entries
        if pos[i] >= 0 and pos[j] >= 0
    ]
    degrees = [
        g.degree + shift if shift and isinstance(g.region, KCone) else g.degree
        for g in alive_gens
    ]
    mults = [g.mult for g in alive_gens]
    return FiniteComplex(degrees, entries, mults, dd_zero_known=True)


def stalk_bound(n: int, p: CartanVector) -> list[int]:
    """Int bound of the stalk at p: a cone KCone(J, l) contains p iff
    <p, e_j> >= <l, e_j> for j in J, that is iff N<l, e_j> <=
    floor(N<p, e_j>)."""
    if p.n != n:
        raise ValueError("rank mismatch")
    profile, d = p.integer_profile
    return [c // d for c in profile]


def stalk_complex(
    s: SheafComplex, z: CenterClass, p: CartanVector
) -> FiniteComplex:
    """Stalk at p of the center-z part: keep generators whose region
    contains p (``stalk_bound`` for cones); restriction entries become
    identity scalars."""
    bound = stalk_bound(s.n, p)
    return _restrict(s, _select(s, z, bound, lambda r: region_contains(r, p)))


def _lower_set_alive(
    n: int, region: Region, profile: Sequence,
    exact: frozenset[int] = frozenset(),
) -> bool:
    """Whether UMinusOpen(y) has sections over the lower set of top x^,
    given by its scaled profile X^_j = N<x^, e_j>: iff x^ <= y in
    dominance order, Y_j >= X^_j (module soundness contract); the jump
    asks for Y_j = X^_j on ``exact``."""
    if not isinstance(region, UMinusOpen):
        raise ValueError(
            f"unsupported generator region {type(region).__name__} "
            "in sections"
        )
    y_profile = scaled_profile(n, region.x.coords)
    return all(
        y == x if j in exact else y >= x
        for j, (x, y) in enumerate(zip(profile, y_profile), 1)
    )


def _chamber_hull(profile: Sequence) -> list:
    """Scaled profile X^ of x^, the largest point of C_- below x, from
    X = N<x, e_k>: the greatest convex sequence under (0, X_1, .., X_{N-1},
    0), whose value at k is the lowest chord over k between two of its
    points, exact on ints and Fractions.

    UMinusOpen(x) = UMinusOpen(x^), so its sections follow the UOpen(x^)
    rule.  As <y, f_k> = (2 W_k - W_{k-1} - W_{k+1}) / N for the profile
    W of y (W_0 = W_N = 0), y lies in interior(C_-) iff W is strictly
    convex.  A strictly convex W < X lies under X^, strictly at every
    inner k: where X^ is linear between hull vertices a < k < b, W_k is
    below its chord, which is at most X^'s; X^ <= X gives the converse.
    So a cone K(J, l) meets UMinusOpen(x) iff N<l, e_j> < X^_j for every
    j in J, and then W = X^ - eps k (N - k), eps > 0 small, is a witness.
    """
    values = (0, *profile, 0)
    return [
        min(
            values[a] + Fraction(values[b] - values[a]) * (k - a) / (b - a)
            for a in range(k + 1)
            for b in range(max(k, a + 1), len(values))
        )
        for k in range(1, len(values) - 1)
    ]


def _section_top(n: int, u: UOpen | UMinusOpen) -> list:
    """Scaled profile X^ of the top x^ of U: x for UOpen(x), the chamber
    hull of x for UMinusOpen(x)."""
    if not isinstance(u, (UOpen, UMinusOpen)):
        raise ValueError("sections are supported over UOpen/UMinusOpen only")
    if region_rank(u) != n:
        raise ValueError("rank mismatch")
    profile = scaled_profile(n, u.x.coords)
    return _chamber_hull(profile) if isinstance(u, UMinusOpen) else profile


def sections_bound(n: int, u: UOpen | UMinusOpen) -> list[int]:
    """Int bound of the sections over U: a cone K(J, l) meets U iff
    N<l, e_j> < X^_j, that is <= ceil(X^_j) - 1, for every j in J."""
    return [math.ceil(x) - 1 for x in _section_top(n, u)]


def _sections_alive(
    s: SheafComplex, z: CenterClass | None, u: UOpen | UMinusOpen
) -> list[bool]:
    """Generators with RGamma(U; K_region) = K (degree 0), per the
    module soundness contract, at U's top x^ of scaled profile X^: cones
    by ``sections_bound``, lower sets by ``_lower_set_alive``."""
    top = _section_top(s.n, u)
    return _select(
        s, z, sections_bound(s.n, u),
        lambda r: _lower_set_alive(s.n, r, top),
    )


def sections_complex(
    s: SheafComplex, z: CenterClass, u: UOpen | UMinusOpen
) -> FiniteComplex:
    """Sections over a lower set U of the center-z part: a cone K(J, l)
    is alive iff N<l, e_j> < X^_j on J and a lower set UMinusOpen(y) iff
    x^ <= y, for the top x^ of U (x for UOpen(x), the chamber hull of x
    for UMinusOpen(x))."""
    return _restrict(s, _sections_alive(s, z, u))


def jump_bound(
    n: int, indices: Iterable[int], m: CartanVector
) -> tuple[list, frozenset[int]]:
    """Bound and exact set I of the jump at (I, m) (``jump_complex``), on
    ints where it can be: M_k = N<m, e_k> on I, ceil(M_j) - 1 off I."""
    if m.n != n:
        raise ValueError("rank mismatch")
    exact = frozenset(indices)
    for k in exact:
        if not 1 <= k <= n - 1:
            raise ValueError(f"index {k} out of range")
    profile, d = m.integer_profile
    bound = [
        (s // d if s % d == 0 else Fraction(s, d)) if j in exact
        else -(-s // d) - 1
        for j, s in enumerate(profile, 1)
    ]
    return bound, exact


def jump_complex(
    s: SheafComplex, indices: Iterable[int], m: CartanVector
) -> FiniteComplex:
    """Complex computing the jump functor at (I, m): one restriction.

    The jump is the total complex, over corners L inside I placed in
    degree -|L| with Koszul signs, of sections over UOpen(m + eps
    sum_{k in L} f_k) as eps -> 0.  With M_j = N<m, e_j>, a cone K(J, l)
    of profile P is alive at L iff P_j <= floor(M_j) on J & L and <=
    ceil(M_j) - 1 on J - L; a lower set UMinusOpen(y) of profile Y iff
    Y_j > M_j on L and >= M_j off L.  So the corners of a generator
    form an interval: [Q, I] for a cone, Q = {j in J : P_j > ceil(M_j) -
    1}, and [{}, {j in I : Y_j > M_j}] for a lower set, and on it the
    corner maps are its Koszul complex, acyclic unless it is one corner.
    Filter by generator degree (Weibel, An Introduction to Homological
    Algebra, 1994, 5.6): E_1 keeps the generators alive at exactly one
    corner, with the model's differential.  These are the cones with
    I <= J, P_k = M_k on I and P_j <= ceil(M_j) - 1 on J - I, all at
    L = I (none if some M_k, k in I, is not an integer), and the lower
    sets with Y_k = M_k on I and Y_j >= M_j off I, all at L = {}.  No
    entry joins a cone to a lower set, and d_r, r >= 2, changes |L|, so
    the sequence stops at E_2: the jump is the restriction to those
    generators, cones moved to degree -|I|, and it inherits d*d = 0.
    """
    bound, exact = jump_bound(s.n, indices, m)
    profile = scaled_profile(s.n, m.coords)
    alive = _select(
        s, None, bound,
        lambda r: _lower_set_alive(s.n, r, profile, exact), exact,
    )
    return _restrict(s, alive, -len(exact))
