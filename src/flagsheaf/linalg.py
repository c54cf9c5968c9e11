"""Exact rank computation for sparse rational matrices.

Ranks are computed by fraction-free (Bareiss) elimination on integer
matrices obtained by clearing denominators row by row; row scaling by
nonzero rationals does not change the rank, so the result is exact.
Integer entries stay ``int`` throughout, so an integer matrix never
builds a ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable

Scalar = int | Fraction
Triplet = tuple[int, int, Scalar]


def rank_dense_int(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by Bareiss elimination with pivoting."""
    m = [row[:] for row in rows if any(row)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    col = 0
    while rank < len(m) and col < ncols:
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, len(m)):
            factor = m[r][col]
            for c in range(col, ncols):
                m[r][c] = (pivot * m[r][c] - factor * m[rank][c]) // prev
        prev = pivot
        rank += 1
        col += 1
    return rank


def _clear_denominators(rows: list[list[Scalar]]) -> list[list[int]]:
    out = []
    for row in rows:
        lcm = 1
        for x in row:
            if x:
                lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        out.append([int(x * lcm) for x in row])
    return out


def rank_triplets(entries: Iterable[Triplet], nrows: int, ncols: int) -> int:
    """Rank of the sparse matrix given by (row, col, value) triplets."""
    if nrows == 0 or ncols == 0:
        return 0
    rows = [[0] * ncols for _ in range(nrows)]
    for r, c, v in entries:
        rows[r][c] += v
    return rank_dense_int(_clear_denominators(rows))


def connected_components(
    node_count: int, edges: Iterable[tuple[int, int]]
) -> list[list[int]]:
    """Union-find components; isolated nodes form singleton components.

    Cohomology no longer splits complexes into components; the
    component-split reference oracle of the test suite does."""
    parent = list(range(node_count))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for node in range(node_count):
        groups.setdefault(find(node), []).append(node)
    return list(groups.values())
