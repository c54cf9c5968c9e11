"""Independent oracles used by the test suite.

Deliberately separate code paths: polynomial q-factorials for cell
counts, literal diagonal matrices for the invariant pairing, GF(2)
cellular chain complexes for the mod-2 series of small SO(N), and
multiplicity-expanded complexes ranked by Fraction Gaussian elimination
for finite-complex cohomology.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


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
