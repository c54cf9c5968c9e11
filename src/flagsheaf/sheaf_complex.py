"""Formal complexes of constant sheaves on polyhedral regions of the
Cartan algebra, with a center-class label on every summand.

A ``SheafComplex`` is a finite list of generators; each generator is a
constant sheaf on one region, placed in one total complex degree,
tensored with a graded multiplicity space.  Differential entries are
rational multiples of canonical maps (restrictions onto smaller closed
cones, extensions into larger open lower sets), so stalks and sections
turn the complex into an ordinary finite complex of K-vector spaces
with the same coefficients.  That finite complex keeps one basis line
per alive generator, carrying the generator's multiplicity space:
taking cohomology commutes with tensoring by it.  Coefficients with
denominator 1 are kept as ``int`` throughout.

Cohomology is computed by unit-pivot (algebraic Morse) reduction
(Kaczynski-Mischaikow-Mrozek, Computational Homology, 2004; Skoldberg,
Trans. AMS 2006): every entry d(i->j) = +-1 cancels the lines i and j,
and exact rank runs only on what is left.  d*d = 0 is checked once per
``SheafComplex`` when it is built; stalks and sections restricted from
a validated complex inherit it (see ``_restrict``), while every other
``FiniteComplex``, jump complexes included, checks its own entries.

Supported regions (parameters are exact rational Cartan vectors):

* ``UMinusOpen(x)``  {y in interior(C_-) : y << x}
* ``UOpen(x)``       {y : y << x}
* ``KCone(J, l)``    {y : <y - l, e_j> >= 0 for all j in J}

Windowed direct sums over the central lattice truncate to a finite
coordinate box, and queries are exact for every lattice summand inside
it.  Certified margins for specific queries are derived in
:mod:`flagsheaf.pipeline`.

Soundness contract for sections: for a generator which is a cone
``KCone(J, l)``, sections over a convex open U are K exactly when the
cone meets U (the intersection is closed in U and convex).  For a
generator ``UMinusOpen(y)``, sections over ``UOpen(x)`` or
``UMinusOpen(x)`` are K exactly when x <= y in dominance order; this
encodes the propagation of such sheaves across the lower boundary and
is the one place where the model imports a sheaf-theoretic fact
instead of re-deriving it.  Higher section cohomology of a single
generator over these sets vanishes (convexity), so the rules above
determine the section complex entirely.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .flag_schubert import _all_subsets
from .graded import GradedDims
from .linalg import Scalar, Triplet, rank_triplets
from .root_system import (
    CartanVector,
    CenterClass,
    IntegrityError,
    cartan,
    center_class,
    d_degree,
    dominance_leq,
    e_profile,
    f_vec,
    i_set,
    in_c_minus,
    pair_e,
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
        for j in self.indices:
            if not 1 <= j <= self.apex.n - 1:
                raise ValueError(f"cone index {j} out of range")


Region = UMinusOpen | UOpen | KCone


def region_rank(region: Region) -> int:
    if isinstance(region, KCone):
        return region.apex.n
    return region.x.n


# holds a whole crosscheck window (216 apexes at N=4) and its points
_PROFILE_CACHE_SIZE = 4096


@lru_cache(maxsize=_PROFILE_CACHE_SIZE)
def _u_profile(v: CartanVector) -> tuple[Fraction, ...]:
    return e_profile(v)


def region_contains(region: Region, p: CartanVector) -> bool:
    """Exact membership via the defining pairings."""
    n = region_rank(region)
    if p.n != n:
        raise ValueError(f"rank mismatch: region has N={n}, point N={p.n}")
    pu = _u_profile(p)
    if isinstance(region, UMinusOpen):
        xu = _u_profile(region.x)
        return all(c < 0 for c in p.coords) and all(
            pu[k] < xu[k] for k in range(n - 1)
        )
    if isinstance(region, UOpen):
        xu = _u_profile(region.x)
        return all(pu[k] < xu[k] for k in range(n - 1))
    if isinstance(region, KCone):
        au = _u_profile(region.apex)
        return all(pu[j - 1] >= au[j - 1] for j in region.indices)
    raise TypeError(f"unknown region kind {type(region).__name__}")


# ---------------------------------------------------------------------------
# rational feasibility (used for cone-vs-UMinusOpen sections)

Constraint = tuple[tuple[Fraction, ...], Fraction, bool]  # coeffs . u (<|<=) rhs


def _feasible(constraints: list[Constraint], nvars: int) -> bool:
    """Fourier-Motzkin feasibility of strict/non-strict inequalities."""
    system = [
        (tuple(Fraction(c) for c in coeffs), Fraction(rhs), strict)
        for coeffs, rhs, strict in constraints
    ]
    for var in range(nvars):
        uppers, lowers, rest = [], [], []
        for coeffs, rhs, strict in system:
            c = coeffs[var]
            if c > 0:
                uppers.append((coeffs, rhs, strict, c))
            elif c < 0:
                lowers.append((coeffs, rhs, strict, c))
            else:
                rest.append((coeffs, rhs, strict))
        for (uc, ur, us, cu), (lc, lr, ls, cl) in itertools.product(
            uppers, lowers
        ):
            coeffs = tuple(
                a / cu - b / cl for a, b in zip(uc, lc)
            )
            rest.append((coeffs, ur / cu - lr / cl, us or ls))
        system = rest
    for _, rhs, strict in system:
        if rhs < 0 or (strict and rhs == 0):
            return False
    return True


def _cone_meets_uminus(cone: KCone, x: CartanVector) -> bool:
    """Nonemptiness of KCone(J, l) & interior(C_-) & {u << x}, exactly."""
    n = cone.apex.n
    au = _u_profile(cone.apex)
    xu = _u_profile(x)
    cons: list[Constraint] = []
    for j in cone.indices:  # u_j >= apex_j
        coeffs = tuple(
            Fraction(-1 if k == j - 1 else 0) for k in range(n - 1)
        )
        cons.append((coeffs, -au[j - 1], False))
    for k in range(n - 1):  # u_k < x_k
        coeffs = tuple(Fraction(1 if i == k else 0) for i in range(n - 1))
        cons.append((coeffs, xu[k], True))
    for m in range(1, n):  # <y, f_m> < 0 in u-coordinates
        coeffs = [Fraction(0)] * (n - 1)
        coeffs[m - 1] += 2
        if m - 2 >= 0:
            coeffs[m - 2] -= 1
        if m < n - 1:
            coeffs[m] -= 1
        cons.append((tuple(coeffs), Fraction(0), True))
    return _feasible(cons, n - 1)


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
    total degree ``degree + delta``.
    """

    region: Region
    center: CenterClass
    degree: int
    mult: GradedDims = field(default_factory=GradedDims.line)
    label: tuple = ()


def _check_entry_regions(src: SheafGenerator, dst: SheafGenerator):
    """Accept only entries proportional to a canonical nonzero map.

    Closed cones map by restriction onto smaller cones (same apex, a
    larger index set); open lower sets map by extension into larger
    ones (dominance of the parameters).  Either way the map is the
    identity on every stalk both regions contain.
    """
    rs, rd = src.region, dst.region
    if isinstance(rs, KCone) and isinstance(rd, KCone):
        if rs.apex.coords == rd.apex.coords and rs.indices <= rd.indices:
            return
    if isinstance(rs, UMinusOpen) and isinstance(rd, UMinusOpen):
        if dominance_leq(rs.x, rd.x):
            return
    raise ValueError(
        f"no canonical sheaf map supports the entry {rs} -> {rd}"
    )


class SheafComplex:
    """Immutable windowed complex of labelled constant sheaves."""

    def __init__(
        self,
        n: int,
        generators: Sequence[SheafGenerator],
        entries: Sequence[tuple[int, int, Fraction]],
        check: bool = True,
    ):
        self.n = n
        self.generators = tuple(generators)
        self.entries = tuple(
            (int(i), int(j), _exact(c)) for i, j, c in entries
        )
        # d*d = 0 is known (and inherited by restrictions) once validated
        self.validated = False
        if check:
            self.validate()

    def validate(self):
        for gen in self.generators:
            if region_rank(gen.region) != self.n or gen.center.n != self.n:
                raise ValueError("generator rank mismatch")
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
        self.validated = True


# ---------------------------------------------------------------------------
# cone complexes: the windowed standard complex Y and the cone model

LatticeBox = tuple[tuple[int, int], ...]
# a lattice apex m: integer coordinates, the vector, exp(m) and D(m)
Apex = tuple[tuple[int, ...], CartanVector, CenterClass, int]


def window_points(n: int, window: LatticeBox) -> Iterable[tuple[int, ...]]:
    """Integer coordinate tuples of the window box, in lexicographic
    order; the window is checked before the walk starts."""
    if len(window) != n - 1:
        raise ValueError(f"window must have {n - 1} coordinate ranges")
    ranges = [range(lo, hi + 1) for lo, hi in window]
    if any(len(r) == 0 for r in ranges):
        raise ValueError("empty window")
    return itertools.product(*ranges)


def lattice_apex(n: int, combo: tuple[int, ...]) -> Apex:
    m = cartan(n, combo)
    return combo, m, center_class(m), d_degree(m)


def _subset_sign(j_small: frozenset[int], added: int) -> int:
    """(-1)**(number of elements of the larger subset below ``added``)."""
    sigma = sum(1 for x in j_small if x < added)
    return -1 if sigma % 2 else 1


def cone_complex(
    n: int, blocks: Iterable[tuple[tuple[int, ...], GradedDims, Apex]]
) -> SheafComplex:
    """Complex of constant sheaves on closed cones (Kashiwara-Schapira,
    Sheaves on Manifolds, 1990), one block per (subset I, multiplicity,
    apex m): a generator KCone(J, m) for every J containing
    forced(I, m) = {k : <m, f_k> + [k in I] > 0}, in total degree
    |J| - D(m) at center exp(m), labelled ("cone", I, J, m), with
    differential the signed restrictions J -> J + {e} inside the
    block.  The result is validated, d*d = 0 included."""
    all_indices = range(1, n)
    subsets = [(jc, frozenset(jc)) for jc in _all_subsets(n)]
    generators: list[SheafGenerator] = []
    entries: list[Triplet] = []
    for subset, mult, (combo, m, cc, dm) in blocks:
        forced = frozenset(
            k for k in all_indices if combo[k - 1] + (k in subset) > 0
        )
        local: dict[frozenset[int], int] = {}
        for jc, j in subsets:
            if forced <= j:
                local[j] = len(generators)
                generators.append(
                    SheafGenerator(
                        region=KCone(j, m),
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
    line = GradedDims.line()
    blocks = [((), line, lattice_apex(n, c)) for c in window_points(n, window)]
    return cone_complex(n, blocks)


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
    restrictions of a validated ``SheafComplex`` set it.
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
# stalks, sections, corner complexes


def _select(
    s: SheafComplex, z: CenterClass | None, profile, compare, fallback
) -> list[bool]:
    """Alive flags of the generators of ``s`` in center class ``z``
    (every class when None).

    With ``compare``, a cone KCone(J, apex) is alive iff J lies in
    {j : compare(profile_j, apex_j)}, computed once per apex object;
    ``fallback(region)`` decides for every other generator.
    """
    alive: list[bool] = []
    allowed_at: dict[int, set[int]] = {}  # id(apex) -> allowed indices
    for gen in s.generators:
        region = gen.region
        if z is not None and gen.center != z:
            alive.append(False)
        elif compare is not None and isinstance(region, KCone):
            allowed = allowed_at.get(id(region.apex))
            if allowed is None:
                pairs = enumerate(zip(profile, _u_profile(region.apex)), 1)
                allowed = {j for j, (a, b) in pairs if compare(a, b)}
                allowed_at[id(region.apex)] = allowed
            alive.append(region.indices <= allowed)
        else:
            alive.append(fallback(region))
    return alive


def _restrict(
    s: SheafComplex, alive: Sequence[bool], shift: int = 0
) -> tuple[FiniteComplex, list[int]]:
    """Complex of the alive generators (degrees moved by ``shift``),
    and each generator's basis position in it (-1 when dead).

    It inherits d*d = 0 from a validated ``s`` when, for every i -> j
    -> k in ``s`` with i and k alive, j is alive too: the (i, k) entry
    of d*d then sums over the same j before and after.  That holds for
    the stalk and sections rules, whose flags are monotone in the
    region: a generator on a larger region is alive whenever one on a
    smaller region is.  Validated entries join nested regions.  A lower
    set extends into a larger one, so i alive makes j alive.  A cone
    restricts onto the smaller cone K(J + {e}) of the same apex, so k
    alive makes j alive; within a block (I, apex) the alive J are the
    interval of subsets of the allowed indices that contain forced(I,
    apex).  Jump complexes glue several restrictions with corner maps
    and check their own d*d = 0.
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
    degrees = [g.degree + shift for g in alive_gens]
    mults = [g.mult for g in alive_gens]
    return FiniteComplex(
        degrees, entries, mults, dd_zero_known=s.validated
    ), pos


def stalk_complex(
    s: SheafComplex, z: CenterClass, p: CartanVector
) -> FiniteComplex:
    """Stalk at p of the center-z part: keep generators whose region
    contains p; restriction entries become identity scalars.  A cone
    KCone(J, apex) contains p iff u_j(p) >= u_j(apex) for j in J."""
    if p.n != s.n:
        raise ValueError("rank mismatch")
    alive = _select(
        s, z, _u_profile(p), operator.ge, lambda r: region_contains(r, p)
    )
    return _restrict(s, alive)[0]


def _sections_alive(
    s: SheafComplex, z: CenterClass | None, u: UOpen | UMinusOpen
) -> list[bool]:
    """Generators with RGamma(U; K_region) = K (degree 0), per the
    module soundness contract.  A cone meets UOpen(x) iff
    u_j(x) > u_j(apex) on its index set, decided once per apex."""

    def has_sections(region: Region) -> bool:
        if isinstance(region, UMinusOpen):
            return dominance_leq(u.x, region.x)
        if isinstance(region, KCone) and isinstance(u, UMinusOpen):
            return _cone_meets_uminus(region, u.x)
        raise ValueError(
            f"unsupported generator region {type(region).__name__} "
            "in sections"
        )

    compare = operator.gt if isinstance(u, UOpen) else None
    return _select(s, z, _u_profile(u.x), compare, has_sections)


def sections_complex(
    s: SheafComplex, z: CenterClass, u: UOpen | UMinusOpen
) -> FiniteComplex:
    """Sections over a lower set U of the center-z part."""
    if not isinstance(u, (UOpen, UMinusOpen)):
        raise ValueError("sections are supported over UOpen/UMinusOpen only")
    if region_rank(u) != s.n:
        raise ValueError("rank mismatch")
    return _restrict(s, _sections_alive(s, z, u))[0]


def select_epsilon(points: Sequence[CartanVector], l: CartanVector) -> Fraction:
    """Return the verified corner width 1/2 for a finite lattice family
    in C_- with one fixed center class.

    For every other member l', either some k in I_l has
    <l' - l, e_k> outside [0, eps], or some k off I_l has
    <l', e_k> < <l, e_k>.  Differences within a center class lie in
    the root lattice, so their coroot pairings are integers and any
    eps in (0, 1) works; the disjunction is re-verified and a failure
    is an internal contradiction, not an input error.
    """
    eps = Fraction(1, 2)
    if not any(p.coords == l.coords for p in points):
        raise ValueError("base point is not a member of the family")
    for p in points:
        if not (p.is_integral() and in_c_minus(p)):
            raise ValueError("family must consist of lattice points in C_-")
        if center_class(p) != center_class(l):
            raise ValueError("family must have a single center class")
    il = i_set(l)
    off = [k for k in range(1, l.n) if k not in il]
    for q in points:
        if q.coords == l.coords:
            continue
        first = any(
            not 0 <= pair_e(q - l, k) <= eps for k in sorted(il)
        )
        second = any(pair_e(q, k) < pair_e(l, k) for k in off)
        if not (first or second):
            raise IntegrityError(
                f"corner separation failed for l={l}, l'={q}"
            )
    return eps


def rhom_generators(g1: UMinusOpen, g2: UMinusOpen) -> GradedDims:
    """Morphisms between lower-set generators: one line in degree 0
    when the sources dominate, nothing otherwise."""
    if dominance_leq(g1.x, g2.x):
        return GradedDims.line(0)
    return GradedDims.empty()


def jump_complex(
    s: SheafComplex,
    indices: Iterable[int],
    m: CartanVector,
    eps: Fraction = Fraction(1, 2),
) -> FiniteComplex:
    """Corner complex computing the jump functor at (I, m).

    Total complex over corners L inside I of sections over
    UOpen(m + eps * sum_{k in L} f_k), the corner placed in degree
    -|L| (the |I|-shift of the jump functor is already folded in).
    Koszul signs on the corner cube, (-1)^{|L|} on the inner
    differential.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(
            f"corner width {eps} outside the verified range (0, 1)"
        )
    if m.n != s.n:
        raise ValueError("rank mismatch")
    idx = sorted(set(indices))
    for k in idx:
        if not 1 <= k <= s.n - 1:
            raise ValueError(f"index {k} out of range")
    corners = [
        frozenset(c)
        for r in range(len(idx) + 1)
        for c in itertools.combinations(idx, r)
    ]
    # per corner: the basis position of every generator (-1 when dead)
    pos: dict[frozenset[int], list[int]] = {}
    degrees: list[int] = []
    entries: list[Triplet] = []
    mults: list[GradedDims] = []
    for corner in corners:
        point = sum((f_vec(s.n, k).scale(eps) for k in corner), start=m)
        alive = _sections_alive(s, None, UOpen(point))
        part, part_pos = _restrict(s, alive, -len(corner))
        base = len(degrees)
        sign_inner = -1 if len(corner) % 2 else 1
        degrees += part.degrees
        mults += part.mults
        entries += [
            (base + a, base + b, c * sign_inner) for a, b, c in part.entries
        ]
        pos[corner] = [base + q if q >= 0 else -1 for q in part_pos]
    for corner in corners:
        for k in sorted(corner):
            sign = -1 if sum(1 for x in corner if x < k) % 2 else 1
            src, dst = pos[corner], pos[corner - {k}]
            entries += [
                (a, b, sign) for a, b in zip(src, dst) if a >= 0 and b >= 0
            ]
    return FiniteComplex(degrees, entries, mults)

