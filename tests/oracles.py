"""Independent oracles used by the test suite.

Deliberately separate code paths: polynomial q-factorials for cell
counts, literal diagonal matrices for the invariant pairing, GF(2)
cellular chain complexes for the mod-2 series of small SO(N), and, for
finite-complex cohomology, multiplicity-expanded complexes ranked by
Fraction Gaussian elimination and the component-split Bareiss ranks
that unit-pivot reduction replaced; Fourier-Motzkin feasibility for
cones meeting the chamber set UMinusOpen(x), the solver the chamber
hull rule of section selection replaced; and the jump as the total
complex over 2^|I| corners, which one restriction replaced; and the
box walks (``window_points``, ``class_points`` plus a profile filter,
``enumerate_lattice``) that the triangular ``sheaf_complex.lattice_points``
replaced in src/; the scan of every apex row (``scan_block_cohomology``)
that the column index of the apex table replaced; the lemma-by-lemma
matrix-lemma runner that ``lie_numerics.run_trials``'s shared
decomposition units replaced, with the per-matrix skew projection,
aligned partner and rules that its stacked expressions replaced; and
the round-robin cyclic Jacobi kernel that the gated LAPACK call
``lie_numerics.eigh_stack`` replaced; and a checker of v1 certificate
reports that reads their JSON alone (``check_certificate_report``).
Lemma code that no command reaches lives here too: the chamber-walk
witness and the aligned partner of the pairing bound.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from flagsheaf.lie_numerics import NonConvergenceError


# -- polynomial helpers (dense integer coefficient lists) -------------------


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divexact(num: list[int], den: list[int]) -> list[int]:
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        coeff, rem = divmod(num[shift + len(den) - 1], den[-1])
        assert rem == 0, "inexact polynomial division"
        out[shift] = coeff
        for j, y in enumerate(den):
            num[shift + j] -= coeff * y
    assert all(c == 0 for c in num), "inexact polynomial division"
    return out


def q_int(n: int) -> list[int]:
    return [1] * n


def q_factorial(n: int) -> list[int]:
    out = [1]
    for k in range(1, n + 1):
        out = poly_mul(out, q_int(k))
    return out


def gaussian_multinomial(n: int, sizes: tuple[int, ...]) -> list[int]:
    """[n]_q! / prod [s]_q!, exact."""
    assert sum(sizes) == n
    num = q_factorial(n)
    for s in sizes:
        num = poly_divexact(num, q_factorial(s))
    return num


# -- diagonal-matrix pairing oracle -----------------------------------------


def coroot_diagonal(n: int, k: int) -> list[Fraction]:
    """Imaginary parts of the k-th coroot matrix diagonal."""
    return [
        Fraction(n - k, n) if i < k else Fraction(-k, n) for i in range(n)
    ]


def trace_pairing(diag_a: list[Fraction], diag_b: list[Fraction]) -> Fraction:
    """-Tr(AB) for A = i diag(a), B = i diag(b)."""
    return sum((a * b for a, b in zip(diag_a, diag_b)), Fraction(0))


def oracle_pair_e(coords: tuple[Fraction, ...], k: int) -> Fraction:
    n = len(coords) + 1
    diag_v = [
        sum(
            (x * coroot_diagonal(n, j)[i] for j, x in enumerate(coords, 1)),
            Fraction(0),
        )
        for i in range(n)
    ]
    return trace_pairing(diag_v, coroot_diagonal(n, k))


# -- GF(2) cellular homology -------------------------------------------------


def gf2_rank(rows: list[list[int]]) -> int:
    m = [row[:] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = next(
            (r for r in range(rank, len(m)) if m[r][col] % 2), None
        )
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] % 2:
                m[r] = [(a + b) % 2 for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


class CellComplex:
    """Finite CW chain complex over the integers: cells per degree and
    integer boundary matrices d_k: C_k -> C_{k-1}."""

    def __init__(self, dims: list[int], boundaries: dict[int, list[list[int]]]):
        self.dims = dims
        self.boundaries = boundaries  # k -> matrix with dims[k] columns

    def betti_mod2(self) -> list[int]:
        out = []
        for k, dim in enumerate(self.dims):
            dk = self.boundaries.get(k)
            rk = gf2_rank(dk) if dk and dim else 0
            dk1 = self.boundaries.get(k + 1)
            rk1 = gf2_rank(dk1) if dk1 else 0
            out.append(dim - rk - rk1)
        return out

    def product(self, other: "CellComplex") -> "CellComplex":
        """Product CW structure with the Leibniz boundary."""
        cells_self = [
            (k, i) for k, d in enumerate(self.dims) for i in range(d)
        ]
        cells_other = [
            (k, i) for k, d in enumerate(other.dims) for i in range(d)
        ]
        pairs = list(itertools.product(cells_self, cells_other))
        top = (len(self.dims) - 1) + (len(other.dims) - 1)
        dims = [0] * (top + 1)
        index = {}
        by_degree: dict[int, list] = {}
        for pair in pairs:
            deg = pair[0][0] + pair[1][0]
            index[pair] = dims[deg]
            dims[deg] += 1
            by_degree.setdefault(deg, []).append(pair)
        boundaries = {}
        for deg in range(1, top + 1):
            rows = len(by_degree.get(deg - 1, []))
            cols = len(by_degree.get(deg, []))
            mat = [[0] * cols for _ in range(rows)]
            for col, ((ka, ia), (kb, ib)) in enumerate(by_degree.get(deg, [])):
                da = self.boundaries.get(ka)
                if da:
                    for ja in range(self.dims[ka - 1]):
                        coeff = da[ja][ia]
                        if coeff:
                            row = index[((ka - 1, ja), (kb, ib))]
                            mat[row][col] += coeff
                db = other.boundaries.get(kb)
                if db:
                    sign = -1 if ka % 2 else 1
                    for jb in range(other.dims[kb - 1]):
                        coeff = db[jb][ib]
                        if coeff:
                            row = index[((ka, ia), (kb - 1, jb))]
                            mat[row][col] += sign * coeff
            boundaries[deg] = mat
        return CellComplex(dims, boundaries)


def circle_complex() -> CellComplex:
    return CellComplex([1, 1], {1: [[0]]})


def rp_complex(n: int) -> CellComplex:
    """Real projective n-space: one cell per degree, boundary
    alternating 0 and 2."""
    dims = [1] * (n + 1)
    boundaries = {
        k: [[0 if k % 2 else 2]] for k in range(1, n + 1)
    }
    return CellComplex(dims, boundaries)


def sphere_complex(n: int) -> CellComplex:
    dims = [1] + [0] * (n - 1) + [1]
    return CellComplex(dims, {})


def so_betti_mod2(n: int) -> list[int]:
    """Mod-2 Betti numbers of SO(N) for N <= 4 from explicit cell
    structures: SO(2) = circle, SO(3) = RP^3, SO(4) = S^3 x RP^3."""
    if n == 2:
        return circle_complex().betti_mod2()
    if n == 3:
        return rp_complex(3).betti_mod2()
    if n == 4:
        return sphere_complex(3).product(rp_complex(3)).betti_mod2()
    raise ValueError("cell structures provided for N <= 4 only")


# -- expanded cohomology by Fraction Gaussian elimination --------------------


def expand_multiplicities(complex_):
    """The finite complex with every basis line copied once per
    dimension of its multiplicity space: lists of degrees and of
    (src, dst, Fraction) entries, one entry per pair of matching
    copies."""
    copies: list[list[int]] = []
    degrees: list[int] = []
    for degree, mult in zip(complex_.degrees, complex_.mults):
        ids = []
        for delta, count in mult.items():
            for _ in range(count):
                ids.append(len(degrees))
                degrees.append(degree + delta)
        copies.append(ids)
    entries = []
    for i, j, c in complex_.entries:
        assert len(copies[i]) == len(copies[j]), "mixed multiplicities"
        for a, b in zip(copies[i], copies[j]):
            entries.append((a, b, Fraction(c)))
    return degrees, entries


def fraction_rank(rows: list[dict[int, Fraction]]) -> int:
    """Rank of a sparse matrix (rows as column -> value maps) by
    Gaussian elimination over Fraction."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                lead = row[col]
                pivots[col] = {c: v / lead for c, v in row.items()}
                break
            factor = row[col]
            for c, v in pivot.items():
                value = row.get(c, Fraction(0)) - factor * v
                if value:
                    row[c] = value
                else:
                    row.pop(c, None)
    return len(pivots)


def expanded_cohomology(complex_) -> dict[int, int]:
    """Cohomology dimensions of the expanded complex, ranking every
    differential d_k as one matrix (no component split)."""
    degrees, entries = expand_multiplicities(complex_)
    dims: dict[int, int] = {}
    for d in degrees:
        dims[d] = dims.get(d, 0) + 1
    rows: dict[int, dict[int, dict[int, Fraction]]] = {}
    for i, j, c in entries:
        row = rows.setdefault(degrees[i], {}).setdefault(i, {})
        row[j] = row.get(j, Fraction(0)) + c
    ranks = {d: fraction_rank(list(r.values())) for d, r in rows.items()}
    out = {}
    for d, dim in dims.items():
        h = dim - ranks.get(d, 0) - ranks.get(d - 1, 0)
        if h:
            out[d] = h
    return dict(sorted(out.items()))


def component_cohomology(complex_) -> dict[int, int]:
    """Cohomology dimensions by the former production path: d*d = 0
    checked, the lines split into connected components, each component
    ranked per degree by fraction-free (Bareiss) elimination and
    tensored with its one multiplicity space."""
    from flagsheaf.graded import GradedDims
    from flagsheaf.linalg import connected_components, rank_triplets
    from flagsheaf.sheaf_complex import verify_dd_zero

    verify_dd_zero(complex_.entries)
    degrees, mults = complex_.degrees, complex_.mults
    comps = connected_components(
        len(degrees), [(i, j) for i, j, _ in complex_.entries]
    )
    by_node = {node: ci for ci, comp in enumerate(comps) for node in comp}
    comp_entries: dict[int, list] = {}
    for i, j, c in complex_.entries:
        comp_entries.setdefault(by_node[i], []).append((i, j, c))
    result = GradedDims.empty()
    for ci, comp in enumerate(comps):
        mult = mults[comp[0]]
        assert all(mults[node] == mult for node in comp), "mixed multiplicities"
        local_dims: dict[int, int] = {}
        local_pos: dict[int, int] = {}
        for node in comp:
            d = degrees[node]
            local_pos[node] = local_dims.get(d, 0)
            local_dims[d] = local_dims.get(d, 0) + 1
        mats: dict[int, list] = {}
        for i, j, c in comp_entries.get(ci, ()):
            mats.setdefault(degrees[i], []).append(
                (local_pos[i], local_pos[j], c)
            )
        ranks = {
            d: rank_triplets(t, local_dims[d], local_dims.get(d + 1, 0))
            for d, t in mats.items()
        }
        dims = {
            d: dim - ranks.get(d, 0) - ranks.get(d - 1, 0)
            for d, dim in local_dims.items()
        }
        result = result + GradedDims(dims).tensor(mult)
    return dict(result.items())


# -- Fraction reference for the Novikov term lists ---------------------------


def fraction_module_terms(n, lam, indices, degree_window, action_window):
    """Terms (coords, action, degree) of the one-parameter module for I,
    sorted by (action, degree, coords): the Fraction enumeration the
    integer kernel replaced.  Every candidate of the certified box
    becomes a CartanVector and is tested with ``center_class``; the
    action is the Gram pairing with lam * e_1 and the degree is
    -``d_degree``."""
    from flagsheaf.root_system import cartan, center_class, d_degree, gram_e

    def floor(x):
        return x.numerator // x.denominator

    def ceil(x):
        return -((-x.numerator) // x.denominator)

    lam = Fraction(lam)
    idx = frozenset(indices)
    dlo, dhi = degree_window
    alo, ahi = (Fraction(a) for a in action_window)
    dk = [2 * k * (n - k) for k in range(1, n)]
    ck = [Fraction(n - k, n) for k in range(1, n)]
    w = {
        j: ck[0] * dk[j - 1] - Fraction(dk[0]) * ck[j - 1]
        for j in range(2, n)
    }
    m_hi = Fraction(dk[0]) * ahi / lam - ck[0] * Fraction(dlo)
    t_ranges = []
    for j in range(2, n):
        t_min = 1 if j in idx else 0
        t_max = floor(m_hi / w[j]) if m_hi >= 0 else t_min - 1
        t_ranges.append(range(t_min, max(t_min - 1, t_max) + 1))
    terms = []
    for tail in itertools.product(*t_ranges):
        sum_td = sum(t * dk[j - 1] for j, t in zip(range(2, n), tail))
        sum_tc = sum(t * ck[j - 1] for j, t in zip(range(2, n), tail))
        x1_lo = ceil(Fraction(dlo + sum_td, dk[0]))
        x1_hi = floor(Fraction(dhi + sum_td, dk[0]))
        x1_lo = max(x1_lo, ceil((alo / lam + sum_tc) / ck[0]))
        x1_hi = min(x1_hi, floor((ahi / lam + sum_tc) / ck[0]))
        for x1 in range(x1_lo, x1_hi + 1):
            coords = (x1,) + tuple(-t for t in tail)
            l = cartan(n, coords)
            if center_class(l).residue != 0:
                continue
            action = lam * sum(
                (x * gram_e(n, k, 1) for k, x in enumerate(l.coords, 1)),
                Fraction(0),
            )
            terms.append((coords, action, -d_degree(l)))
    terms.sort(key=lambda t: (t[1], t[2], t[0]))
    return terms


# -- a v1 certificate checker that reads the JSON alone ----------------------


def elementary_space(n, subset):
    """g(I) as {degree: dim}, by Moebius inversion of the free
    decomposition H(I) = sum over J inside I of g(J), where the Betti
    table of FL(J) is the Gaussian multinomial of its block sizes in
    q = t^2."""
    out = {}
    for r in range(len(subset) + 1):
        for sub in itertools.combinations(subset, r):
            cuts = (0, *sub, n)
            sizes = tuple(b - a for a, b in zip(cuts, cuts[1:]))
            sign = (-1) ** (len(subset) - r)
            for k, dim in enumerate(gaussian_multinomial(n, sizes)):
                out[2 * k] = out.get(2 * k, 0) + sign * dim
    return {deg: dim for deg, dim in out.items() if dim}


def check_certificate_report(payload: dict) -> int:
    """Check a ``flagsheaf/certificate-report/1`` payload from its JSON
    alone, with no term walk, and return the number of listed terms.
    A broken rule raises ``AssertionError``.  The rules:

    * each term l listed in H_I(d) has center class 0, x_j <= -[j in I]
      for j >= 2, its printed action <l, lam e_1> and degree -D(l), and
      action + d >= 0; a list runs in (action, degree, coords) order;
    * nesting: H_I(d) is H_()(d) filtered by x_j <= -1 on I - {1}, in
      the same order;
    * tail: H_I(d) is H_I(d_max) filtered by action + d >= 0;
    * each ``graded`` is the degree count of its listed terms;
    * ``full_hom[d]`` is the sum over I of g(I) tensor graded(I, d), with
      g(I) from ``elementary_space``;
    * each witness follows the residue rule: x_j = -[j in I] for j >= 2,
      and x_1 the least integer with action >= 0 and center class 0,
      repeated for every d.
    """
    assert payload["schema"] == "flagsheaf/certificate-report/1"
    params = payload["params"]
    n, lam = params["n"], Fraction(params["lambda"])
    assert params == {"group": f"SU({n})", "n": n, "lambda": str(lam)}
    assert lam > 0 and payload["normalization_shift"] == n * n - n
    assert payload["verdict"] is True
    grid = [Fraction(d) for d in payload["d_grid"]]
    assert payload["d_grid"] == [str(d) for d in grid]
    assert grid and grid == sorted(set(grid)) and grid[0] >= 0, grid
    subsets = [
        c for r in range(n) for c in itertools.combinations(range(1, n), r)
    ]
    labels = [",".join(map(str, s)) for s in subsets]
    order = [(str(d), label) for d in grid for label in labels]

    def action(coords):
        return lam * sum(Fraction(x * (n - k), n)
                         for k, x in enumerate(coords, 1))

    def degree(coords):  # -D(l)
        return sum(x * 2 * k * (n - k) for k, x in enumerate(coords, 1))

    def center(coords):
        return -sum(k * x for k, x in enumerate(coords, 1)) % n

    records = payload["records"]
    assert [(r["d"], r["i"]) for r in records] == order
    for subset, label in zip(subsets, labels):
        tail = tuple(-1 if j in subset else 0 for j in range(2, n))
        x1 = math.ceil(-action((0, *tail)) * n / lam / (n - 1))
        while center((x1, *tail)) != 0:
            x1 += 1
        coords = (x1, *tail)
        assert action(coords) >= 0 > action((x1 - n, *tail)), coords
        witness = {
            "structure_map_nonzero": True,
            "witness": [str(c) for c in coords],
            "witness_action": str(action(coords)),
            "witness_degree": degree(coords),
            "certified_empty": False,
        }
        for d in payload["d_grid"]:
            got = records[order.index((d, label))]
            assert got == {"i": label, "d": d, **witness}, got

    listed, graded = {}, {}
    facts = {}  # per listed point: (action, degree, coords), checked once
    assert [(r["d"], r["i"]) for r in payload["h_graded"]] == order
    for r, subset in zip(payload["h_graded"], subsets * len(grid)):
        d, terms, counts = Fraction(r["d"]), [], {}
        for e in r["elements"]:
            assert set(e) == {"l", "action", "degree"}, e
            point = tuple(e["l"])
            if point not in facts:
                coords = tuple(int(c) for c in point)
                assert point == tuple(map(str, coords)), e
                assert len(coords) == n - 1 and center(coords) == 0, e
                facts[point] = (action(coords), degree(coords), coords)
            term = facts[point]
            act, deg, coords = term
            assert all(coords[j - 1] <= -(j in subset)
                       for j in range(2, n)), (subset, e)
            assert e["action"] == str(act) and e["degree"] == deg, e
            assert act + d >= 0, (d, e)
            terms.append(term)
            counts[deg] = counts.get(deg, 0) + 1
        assert terms == sorted(terms), (r["i"], r["d"])
        assert r["graded"] == {str(k): v for k, v in counts.items()}, r["i"]
        listed[r["d"], r["i"]], graded[r["d"], r["i"]] = terms, counts

    top = str(grid[-1])
    for d in grid:
        for subset, label in zip(subsets, labels):
            terms = listed[str(d), label]
            assert terms == [
                t for t in listed[str(d), ""]
                if all(t[2][j - 1] <= -1 for j in subset if j >= 2)
            ], ("nesting", label, d)
            assert terms == [
                t for t in listed[top, label] if t[0] + d >= 0
            ], ("tail", label, d)

    assert set(payload["full_hom"]) == {str(d) for d in grid}
    for d in payload["d_grid"]:
        total = {}
        for subset, label in zip(subsets, labels):
            for a, x in elementary_space(n, subset).items():
                for b, y in graded[d, label].items():
                    total[a + b] = total.get(a + b, 0) + x * y
        assert payload["full_hom"][d] == {
            str(k): v for k, v in total.items()
        }, ("full_hom", d)
    return sum(map(len, listed.values()))


# -- the box walk the triangular lattice walk replaced ------------------------


def window_points(n, window):
    """Integer coordinate tuples of the window box, in lexicographic
    order; the window is checked before the walk starts."""
    if len(window) != n - 1:
        raise ValueError(f"window must have {n - 1} coordinate ranges")
    ranges = [range(lo, hi + 1) for lo, hi in window]
    if any(len(r) == 0 for r in ranges):
        raise ValueError("empty window")
    return itertools.product(*ranges)


def class_points(n, residue, window):
    """The points of ``window_points`` in center class ``residue``
    (every point when None), in the same order.  The last coordinate
    steps through one residue class mod N: its weight N - 1 in the class
    -(sum_k k x_k) is -1 mod N, so x_{N-1} = residue + sum_{k<N-1} k x_k
    mod N, and walking it innermost keeps the order lexicographic."""
    points = window_points(n, window)
    if residue is None:
        return points
    head = [range(lo, hi + 1) for lo, hi in window[:-1]]
    lo, hi = window[-1]

    def walk():
        for prefix in itertools.product(*head):
            target = residue + sum(k * x for k, x in enumerate(prefix, 1))
            for last in range(lo + (target - lo) % n, hi + 1, n):
                yield prefix + (last,)

    return walk()


def enumerate_lattice(z, bounds):
    """All integral vectors in the closed coordinate box with the given
    center class, as ``CartanVector``s in lexicographic coordinate
    order, by a box walk and ``center_class`` per point.

    ``bounds`` gives one (lo, hi) pair per coordinate; the box must be
    finite.
    """
    from flagsheaf.root_system import cartan, center_class

    n = z.n
    if len(bounds) != n - 1:
        raise ValueError(f"expected {n - 1} bound pairs, got {len(bounds)}")
    ranges = []
    for lo, hi in bounds:
        if lo is None or hi is None:
            raise ValueError("unbounded box")
        lo_i, hi_i = math.ceil(Fraction(lo)), math.floor(Fraction(hi))
        ranges.append(range(lo_i, hi_i + 1))
    vectors = (cartan(n, combo) for combo in itertools.product(*ranges))
    return [v for v in vectors if center_class(v) == z]


def filtered_class_points(n, residue, window, profile_box):
    """(m, N<m, e_k>) for the points of ``class_points`` whose scaled
    profile lies in ``profile_box``: the rows ``lattice_points`` must
    yield, in its order."""
    from flagsheaf.root_system import scaled_profile

    out = []
    for combo in class_points(n, residue, window):
        profile = scaled_profile(n, combo)
        if all(lo <= c <= hi for c, (lo, hi) in zip(profile, profile_box)):
            out.append((combo, profile))
    return out


# -- the row scan the column index of the apex table replaced ----------------


def scan_kept_rows(table, bound, exact=frozenset()):
    """(index, row, allowed, base, zeros) for every row of ``table`` that
    keeps a block under ``bound`` and ``exact``, reading every row: P =
    bound on ``exact`` and positive | exact <= allowed <= positive | zeros
    | exact, with allowed = {j : P_j <= bound[j - 1]}, base = positive |
    exact and the sign masks taken from the row's coordinates."""
    exact_mask = sum(1 << (k - 1) for k in exact)
    kept = []
    for i, row in enumerate(table.rows):
        profile = row.profile
        if any(profile[k - 1] != bound[k - 1] for k in exact):
            continue
        allowed = sum(
            1 << j for j, (a, b) in enumerate(zip(profile, bound)) if a <= b
        )
        signs = list(enumerate(row.combo))
        base = exact_mask | sum(1 << j for j, x in signs if x > 0)
        zeros = sum(1 << j for j, x in signs if x == 0)
        if base & ~allowed or allowed & ~(base | zeros):
            continue
        kept.append((i, row, allowed, base, zeros))
    return kept


def scan_block_cohomology(table, bound, exact=frozenset()):
    """``sheaf_complex.block_cohomology`` by a scan of every row
    (``scan_kept_rows``), D(m) from ``lattice_degree`` and each subset I
    decoded from its bitmask in ``table.masks``: a kept row adds g(I) in
    degree |allowed| - D(m) - |exact| for every I with base | (zeros &
    I) = allowed, as sets of indices."""
    from flagsheaf.graded import GradedDims
    from flagsheaf.root_system import lattice_degree

    def indices(bits):
        return {k for k in range(1, table.n) if bits >> (k - 1) & 1}

    subsets = [(indices(mask), mult) for mask, mult in table.masks]
    terms = []
    for _, row, allowed, base, zeros in scan_kept_rows(table, bound, exact):
        degree = lattice_degree(table.n, row.combo)
        offset = allowed.bit_count() - degree - len(exact)
        base, zeros, allowed = indices(base), indices(zeros), indices(allowed)
        for subset, mult in subsets:
            if base | (zeros & subset) == allowed:
                terms.extend((d + offset, dim) for d, dim in mult.items())
    return GradedDims(terms)


# -- apex pruning by Fraction pairing profiles --------------------------------


def profile_pruned_apexes(n, z, window, u_bounds):
    """Lattice points of the window whose Gram pairings ``pair_e`` lie
    inside ``u_bounds`` (inclusive) and whose center class is z (any
    class for z None), as coordinate tuples."""
    from flagsheaf.root_system import cartan, center_class, pair_e

    lo, hi = u_bounds
    out = set()
    for combo in itertools.product(
        *[range(a, b + 1) for a, b in window]
    ):
        m = cartan(n, combo)
        if any(not lo <= pair_e(m, k) <= hi for k in range(1, n)):
            continue
        if z is None or center_class(m) == z:
            out.add(combo)
    return out


# -- Fraction references for the lattice selection rules ----------------------


def fraction_cone_alive(s, x, strict):
    """Alive flags of the cone generators of ``s``, every center class,
    by the Fraction rule one generator at a time: KCone(J, l) is alive
    iff <x, e_j> >= <l, e_j> for every j in J (the stalk at x), or >
    when ``strict`` (the sections over UOpen(x)), each pairing taken
    through ``pair_e``."""
    from flagsheaf.root_system import pair_e

    alive = []
    for gen in s.generators:
        cone = gen.region
        ok = True
        for j in cone.indices:
            a, b = pair_e(x, j), pair_e(cone.apex, j)
            ok = ok and (a > b if strict else a >= b)
        alive.append(ok)
    return alive


# -- Fourier-Motzkin feasibility for cones meeting UMinusOpen(x) --------------

Constraint = tuple[tuple[Fraction, ...], Fraction, bool]  # coeffs . u (<|<=) rhs


def fm_feasible(constraints: list[Constraint], nvars: int) -> bool:
    """Fourier-Motzkin feasibility of strict/non-strict inequalities
    (Schrijver, Theory of Linear and Integer Programming, 1986, 12.2)."""
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
            coeffs = tuple(a / cu - b / cl for a, b in zip(uc, lc))
            rest.append((coeffs, ur / cu - lr / cl, us or ls))
        system = rest
    for _, rhs, strict in system:
        if rhs < 0 or (strict and rhs == 0):
            return False
    return True


def fm_cone_meets_uminus(cone, x) -> bool:
    """Nonemptiness of KCone(J, l) & interior(C_-) & {u << x}, exactly,
    as a linear system in the pairings u_k = <y, e_k>."""
    from flagsheaf.root_system import e_profile, f_vec

    n = cone.apex.n
    au, xu = e_profile(cone.apex), e_profile(x)
    unit = [tuple(int(i == k) for i in range(n - 1)) for k in range(n - 1)]
    # u_j >= apex_j on J, u_k < x_k, and <y, f_m> < 0, whose coefficients
    # in u-coordinates are the coroot coordinates of f_m
    cons: list[Constraint] = [
        (tuple(-c for c in unit[j - 1]), -au[j - 1], False)
        for j in cone.indices
    ]
    cons += [(unit[k], xu[k], True) for k in range(n - 1)]
    cons += [(f_vec(n, m).coords, Fraction(0), True) for m in range(1, n)]
    return fm_feasible(cons, n - 1)


# -- the jump as the corner total complex -------------------------------------


def corner_jump_cohomology(s, indices, m):
    """Jump of ``s`` at (I, m) as the total complex over the corners L
    inside I, the construction ``jump_complex`` replaced: corner L, in
    degree -|L|, holds the sections over UOpen(m + eps sum_{k in L} f_k)
    as eps -> 0, read straight from the scaled profiles (M = N<m, e_j>):
    a cone K(J, l) iff N<l, e_j> <= floor(M_j) on J & L and <= ceil(M_j)
    - 1 on J - L, a lower set UMinusOpen(y) iff N<y, e_j> > M_j on L and
    >= M_j off L.  Koszul signs on the corner cube and (-1)^|L| on the
    inner differential; d*d = 0 is verified on the glued entries."""
    from flagsheaf.root_system import scaled_profile
    from flagsheaf.sheaf_complex import (
        FiniteComplex,
        KCone,
        UMinusOpen,
        verify_dd_zero,
    )

    def profile(x):  # on ints where x is a lattice point
        ints = x.is_integral()
        coords = [c.numerator if ints else c for c in x.coords]
        return scaled_profile(n, coords)

    n, idx = s.n, sorted(set(indices))
    big_m = profile(m)
    by_id: dict = {}  # id(apex or lower-set top) -> its scaled profile
    profiles = []
    for gen in s.generators:
        region = gen.region
        assert isinstance(region, (KCone, UMinusOpen)), region
        x = region.apex if isinstance(region, KCone) else region.x
        if id(x) not in by_id:
            by_id[id(x)] = profile(x)
        profiles.append(by_id[id(x)])

    def alive(region, prof, bound, corner):
        if isinstance(region, KCone):
            return all(prof[j - 1] <= bound[j - 1] for j in region.indices)
        return all(
            y > x if j in corner else y >= x
            for j, (x, y) in enumerate(zip(big_m, prof), 1)
        )

    corners = [
        frozenset(c)
        for r in range(len(idx) + 1)
        for c in itertools.combinations(idx, r)
    ]
    pos: dict = {}  # corner -> {generator: basis position}
    degrees, mults, entries = [], [], []
    for corner in corners:
        here = pos[corner] = {}
        bound = [
            math.floor(x) if j in corner else math.ceil(x) - 1
            for j, x in enumerate(big_m, 1)
        ]
        for gi, gen in enumerate(s.generators):
            if alive(gen.region, profiles[gi], bound, corner):
                here[gi] = len(degrees)
                degrees.append(gen.degree - len(corner))
                mults.append(gen.mult)
        inner = -1 if len(corner) % 2 else 1
        entries += [
            (here[i], here[j], inner * c)
            for i, j, c in s.entries
            if i in here and j in here
        ]
    for corner in corners:
        for k in corner:
            sign = -1 if sum(1 for x in corner if x < k) % 2 else 1
            dst = pos[corner - {k}]
            entries += [
                (a, dst[gi], sign)
                for gi, a in pos[corner].items()
                if gi in dst
            ]
    verify_dd_zero(entries)
    return FiniteComplex(
        degrees, entries, mults, dd_zero_known=True
    ).cohomology()


def fraction_stalk_flag_sum(n, z, p, window=None):
    """Stalk at p of the center-z fiber in the second description: one
    flag-cohomology summand, shifted down by D(l), for every lattice
    l in C_- with exp(l) = z and p << l.  The Fraction path the integer
    rule of ``pipeline.stalk_flag_sum`` replaced: a ``CartanVector``,
    ``center_class``, ``weyl_chamber`` and ``dominance_ll`` per point."""
    from flagsheaf.graded import GradedDims
    from flagsheaf.pipeline import (
        betti_cached,
        required_stalk_box,
        resolve_window,
    )
    from flagsheaf.root_system import (
        WeylPosition,
        cartan,
        center_class,
        d_degree,
        dominance_ll,
        pair_f,
        weyl_chamber,
    )
    required = required_stalk_box(p)
    window = resolve_window(window, required, f"stalk at {p}")
    out = GradedDims.empty()
    for combo in window_points(n, window):
        l = cartan(n, combo)
        if center_class(l) != z:
            continue
        if weyl_chamber(l) is WeylPosition.OUTSIDE:
            continue
        if not dominance_ll(p, l):
            continue
        iset = tuple(sorted(k for k in range(1, n) if pair_f(l, k) < 0))
        out = out + betti_cached(n, iset).shifted(-d_degree(l))
    return out


def fraction_required_stalk_box(p):
    """Box of every lattice apex that can contribute to the stalk at p,
    from the Fraction pairing profile u = e_profile(p): the form the
    integer rule of ``pipeline.required_stalk_box`` replaced."""
    from flagsheaf.root_system import WeylPosition, e_profile, weyl_chamber

    if weyl_chamber(p) is not WeylPosition.INTERIOR_MINUS:
        raise ValueError("stalk margins are certified only inside C_-^o")
    u = (Fraction(0),) + e_profile(p) + (Fraction(0),)
    box = []
    for j in range(1, p.n):
        lo = math.floor(2 * u[j])
        hi = min(math.ceil(-u[j - 1] - u[j + 1]), 0)
        box.append((lo, hi))
    return tuple(box)


def fraction_jump_required_box(n, m):
    """Box and Fraction pairing bounds (lo_u, hi_u) of the apexes that
    can contribute to the jump at m, from u = e_profile(m): the form the
    integer rule of ``pipeline.jump_required_box`` replaced."""
    from flagsheaf.root_system import e_profile

    prof = e_profile(m)
    lo_u = min([Fraction(0), *prof]) - 1
    hi_u = max([Fraction(0), *prof]) + 1
    lo_x = math.floor(2 * lo_u - 2 * hi_u)
    hi_x = math.ceil(2 * hi_u - 2 * lo_u)
    return tuple((lo_x, hi_x) for _ in range(n - 1)), (lo_u, hi_u)


def fraction_jump_bound(n, indices, m):
    """Bound and exact set of the jump at (I, m) from the Fraction
    profile M = N<m, e_j>: M_k on I, ceil(M_j) - 1 off I; the form the
    integer rule of ``sheaf_complex.jump_bound`` replaced."""
    from flagsheaf.root_system import scaled_profile

    exact = frozenset(indices)
    profile = scaled_profile(n, m.coords)
    bound = [
        x if j in exact else math.ceil(x) - 1 for j, x in enumerate(profile, 1)
    ]
    return bound, exact


def sequential_run_trials(n, trials, seed, corrupt=False, chunk=256):
    """``lie_numerics.run_trials`` lemma by lemma: the runner that the
    shared decomposition units replaced.  Each lemma draws its trials in
    chunks of at most ``chunk``, in the order a loop of single trials
    draws them, and checks a chunk with the public checks; a pair
    flagged at the branch cut raises NonConvergenceError, as in
    ``check_klyachko``."""
    from flagsheaf import lie_numerics as ln

    rng = np.random.default_rng(seed)
    stats = []

    def lemma_stats(name, results):
        return ln.LemmaStats(
            name, len(results), sum(not r.ok for r in results), 0,
            max((r.residual for r in results), default=0.0),
        )

    def pairs(done):
        size = min(chunk, trials - len(done))
        drawn = [ln.random_skew_hermitian(n, rng) for _ in range(2 * size)]
        return drawn[0::2], drawn[1::2]

    results = []
    while len(results) < trials:
        results += ln.check_triangle(*pairs(results))
    stats.append(lemma_stats("triangle", results))

    results = []
    while len(results) < trials:
        omegas, xs = pairs(results)
        checked = ln.check_pairing_bound(omegas, xs)
        if corrupt and not results:
            spectra, _ = ln.hermitian_eigs(np.stack([omegas[0], xs[0]]))
            bad = np.dot(*spectra)
            checked[0] = ln.CheckResult(False, float(abs(bad)) + 1.0)
        results += checked
    stats.append(lemma_stats("pairing", results))

    results = []
    bound = ln.coroot_spectrum(n, 1) * (0.9 / (100.0 * n))
    while len(results) < trials:
        xs, ys = pairs(results)
        scaled, (spectra, frames) = ln.rescaled_to_bound(
            np.concatenate([xs, ys]), bound)
        # check_klyachko on the rescaled decomposition, which keeps X's
        # frame, as run_trials hands it over: no second eigh of cX
        prods = ln._klyachko_products(scaled, spectra, frames, bound)
        logs, at_cut = ln.log_unitary_small(prods)
        if at_cut.any():
            raise ln.NonConvergenceError("log product at the branch cut")
        b = len(xs)
        results += ln._klyachko_rule(logs, *ln.hermitian_eigs(logs), prods,
                                     spectra[:b], spectra[b:])
    stats.append(lemma_stats("log_product", results))

    results = []
    while len(results) < trials:
        windows, draws = [], []
        for _ in range(min(chunk, trials - len(results))):
            k1, k2 = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
            width1 = rng.uniform(0.2, 1.2)
            width2 = rng.uniform(0.2, 1.2)
            c1, c2 = 2 * math.pi * k1 / n, 2 * math.pi * k2 / n
            w1 = (c1 - width1 / 2, c1 + width1 / 2)
            w2 = (c2 - width2 / 2, c2 + width2 / 2)
            windows += [w1, w2]
            draws += [ln._draw_in_window(n, w1, rng),
                      ln._draw_in_window(n, w2, rng)]
        phis = np.array([phi for phi, _ in draws])
        frames = ln.exp_skew(np.array([skew_from_normals(*g[0])
                                       for _, g in draws]))
        g = (frames * np.exp(1j * phis)[:, None, :]) @ (
            frames.conj().swapaxes(1, 2))
        results += ln.check_interval_product(
            g[0::2], g[1::2], windows[0::2], windows[1::2])
    stats.append(lemma_stats("interval_product", results))
    return stats


# -- the matrix-lemma code that works one matrix at a time ---------------
#
# lie_numerics projects, pairs and windows whole stacks; these are the
# per-matrix forms those stacked expressions must match bit for bit.


def skew_from_normals(re, im):
    """The skew-Hermitian traceless (n, n) matrix of Gaussian draws re
    and im, as random_skew_hermitian built it one matrix at a time."""
    n = len(re)
    m = re + 1j * im
    a = (m - m.conj().T) / 2.0
    return a - np.trace(a) / n * np.eye(n)


def random_skew_hermitian_alone(n, rng):
    """A skew-Hermitian traceless (n, n) matrix from two (n, n) draws of
    rng, real parts first."""
    return skew_from_normals(rng.normal(size=(n, n)), rng.normal(size=(n, n)))


def aligned_in_frame(u, spectrum):
    """The conjugate of i*diag(spectrum) in a frame u (n, n)
    diagonalizing -i omega: the partner that realizes equality in the
    pairing bound."""
    x = u @ np.diag(1j * spectrum) @ u.conj().T
    x = (x - x.conj().T) / 2.0
    return x - np.trace(x) / len(u) * np.eye(len(u))


def pairing_rule_per_pair(omegas, xs, s_omega, s_x, f_omega):
    """``lie_numerics._pairing_rule`` one pair at a time."""
    from flagsheaf import lie_numerics as ln

    results = []
    for w, v, so, sx, f in zip(omegas, xs, s_omega, s_x, f_omega):
        rhs = float(np.dot(so, sx))  # <||w||, ||X||>
        gap = float(np.real(-np.trace(w @ v))) - rhs
        aligned = aligned_in_frame(f, sx)
        eq_gap = abs(float(np.real(-np.trace(w @ aligned))) - rhs)
        results.append(ln.CheckResult(
            ok=gap <= ln.PAIRING_TOL and eq_gap <= ln.EQUALITY_TOL,
            residual=max(gap, eq_gap, 0.0),
        ))
    return results


def window_excess_alone(phis, lo, hi):
    """How far each argument of phis (n,) lies outside [lo, hi] modulo
    2*pi, as ``lie_numerics._window_excess`` reads one row."""
    from flagsheaf import lie_numerics as ln

    width = hi - lo
    if width >= ln.TWO_PI:
        return np.zeros_like(phis)
    shifted = (phis - lo) % ln.TWO_PI
    inside = ((shifted <= width + ln.WINDOW_TOL)
              | (shifted >= ln.TWO_PI - ln.WINDOW_TOL))
    return np.where(inside, 0.0,
                    np.minimum(shifted - width, ln.TWO_PI - shifted))


def interval_rule_per_product(phis1, phis2, phis12, windows1, windows2):
    """``lie_numerics._interval_rule`` one product at a time."""
    from flagsheaf import lie_numerics as ln

    results = []
    for phi1, phi2, phi12, w1, w2 in zip(phis1, phis2, phis12, windows1,
                                         windows2):
        for phi, (lo, hi) in ((phi1, w1), (phi2, w2)):
            if window_excess_alone(phi, lo, hi).any():
                raise ValueError("factor violates its stated window")
        worst = float(window_excess_alone(phi12, w1[0] + w2[0],
                                          w1[1] + w2[1]).max())
        results.append(ln.CheckResult(ok=worst == 0.0, residual=worst))
    return results


# -- round-robin cyclic Jacobi ----------------------------------------------

JACOBI_TOL = 1e-13        # stop at off-diagonal norm <= JACOBI_TOL * ||h||_F
MAX_SWEEPS = 100          # sweeps before NonConvergenceError


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


# -- lemma code no command reaches ------------------------------------------


def shevel_witness(x, y) -> int:
    """Some k in I_x with <y - x, e_k> > 0, for x, y in C_- with y > x.

    The search is total: for valid inputs a witness always exists, and
    an exhausted search is reported as an internal invariant violation
    rather than a user error.
    """
    from flagsheaf.root_system import (
        IntegrityError,
        _check_same_rank,
        _require_integral,
        dominance_leq,
        i_set,
        in_c_minus,
        pair_e,
    )

    _check_same_rank(x, y)
    _require_integral(x)
    _require_integral(y)
    if not in_c_minus(x) or not in_c_minus(y):
        raise ValueError("both arguments must lie in C_-")
    if x.coords == y.coords:
        raise ValueError("arguments must be distinct")
    if not dominance_leq(x, y):
        raise ValueError("dominance y >= x violated")
    for k in sorted(i_set(x)):
        if pair_e(y - x, k) > 0:
            return k
    raise IntegrityError(
        f"no witness index for x={x}, y={y}; "
        "this contradicts the chamber-walk lemma"
    )


def aligned_partner(omega, spectrum):
    """The conjugate of i*diag(spectrum) in a frame diagonalizing the
    (n, n) matrix omega; realizes equality in the pairing bound."""
    from flagsheaf import lie_numerics as ln

    return aligned_in_frame(ln.hermitian_eigs(omega[None])[1][0], spectrum)
