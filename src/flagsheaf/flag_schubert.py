"""Schubert-cell combinatorics of partial flag varieties FL(I).

A flag type I = {i_1 < .. < i_r} inside {1..N-1} fixes block sizes
(i_1 - i_0, .., i_{r+1} - i_r) with i_0 = 0 and i_{r+1} = N, so every
cell of FL(I) is an ordered set partition of {1..N} into r+1 blocks of
those sizes.  The cell attached to a partition A has real dimension
2 * inv(A), where inv(A) counts pairs (a, b) with a < b placed in
blocks in descending order, and the dual cohomology class sits in
degree 2 * inv(A).

The pullback along FL(I) -> FL(J) (J inside I) on basis classes is the
refinement map: each J-block is sorted ascending and cut into
consecutive runs of the I-block sizes falling inside it.

A partition is *elementary* when no two adjacent blocks are fully
ascending (max of the left block below min of the right block);
equivalently the relation identifying block indices j1 ~ j2 whenever
all blocks between them are pairwise fully increasing is trivial.  The
span G(I) of elementary partitions gives the free decomposition
H(I) = direct sum of G(J) over J inside I, realized by refinement;
``verify_free_decomposition`` checks this bijectively for a given I.
If that check ever failed, the alternative reading of ~ (a relation on
the elements of I rather than on block indices) would have to be
revisited; with the block-index reading the decomposition closes up
for every rank this package enumerates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .graded import GradedDims


@dataclass(frozen=True)
class FlagType:
    """Strictly increasing subspace dimensions I inside {1..N-1}."""

    n: int
    indices: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"rank parameter must be >= 2, got {self.n}")
        idx = tuple(self.indices)
        if any(not 1 <= i <= self.n - 1 for i in idx):
            raise ValueError(f"indices {idx} outside 1..{self.n - 1}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"indices {idx} are not strictly increasing")
        object.__setattr__(self, "indices", idx)

    def block_sizes(self) -> tuple[int, ...]:
        cuts = (0,) + self.indices + (self.n,)
        return tuple(b - a for a, b in zip(cuts, cuts[1:]))

    def contains(self, other: "FlagType") -> bool:
        return self.n == other.n and set(other.indices) <= set(self.indices)


def _all_subsets(n: int) -> list[tuple[int, ...]]:
    """Subsets of {1..N-1} by size, then lexicographically: the one
    order of flag types, cone-model blocks and certificate records."""
    return [c for r in range(n) for c in itertools.combinations(range(1, n), r)]


def all_flag_types(n: int) -> Iterator[FlagType]:
    for combo in _all_subsets(n):
        yield FlagType(n, combo)


@dataclass(frozen=True)
class FlagPartition:
    """Ordered set partition of {1..N}; blocks are kept sorted inside."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(sorted(b)) for b in self.blocks)
        seen = [a for b in blocks for a in b]
        n = len(seen)
        if sorted(seen) != list(range(1, n + 1)):
            raise ValueError(f"blocks {blocks} do not partition 1..{n}")
        if any(not b for b in blocks):
            raise ValueError("empty block")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    def block_index(self) -> dict[int, int]:
        return {a: j for j, block in enumerate(self.blocks) for a in block}


def partitions_of(ft: FlagType) -> Iterator[FlagPartition]:
    """All ordered set partitions with the block sizes of ``ft``."""
    sizes = ft.block_sizes()

    def rec(remaining: frozenset[int], level: int):
        if level == len(sizes):
            yield ()
            return
        for combo in itertools.combinations(sorted(remaining), sizes[level]):
            for rest in rec(remaining - set(combo), level + 1):
                yield (combo,) + rest

    for blocks in rec(frozenset(range(1, ft.n + 1)), 0):
        yield FlagPartition(blocks)


def inversions(p: FlagPartition) -> int:
    """Pairs a < b with a in a later block than b."""
    idx = p.block_index()
    n = p.n
    return sum(
        1
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        if idx[a] > idx[b]
    )


def cell_count(ft: FlagType) -> int:
    num = math.factorial(ft.n)
    for s in ft.block_sizes():
        num //= math.factorial(s)
    return num


def betti(ft: FlagType) -> GradedDims:
    """Graded cell counts: degree 2d -> number of partitions with d
    inversions."""
    out: dict[int, int] = {}
    for p in partitions_of(ft):
        deg = 2 * inversions(p)
        out[deg] = out.get(deg, 0) + 1
    return GradedDims(out)


def refine(coarse: FlagType, p: FlagPartition, fine: FlagType) -> FlagPartition:
    """Refinement V(J) -> V(I) for J inside I: sort each J-block and cut
    it into consecutive runs of the I-block sizes inside it."""
    if not fine.contains(coarse):
        raise ValueError(
            f"flag type {coarse.indices} is not coarser than {fine.indices}"
        )
    coarse_cuts = (0,) + coarse.indices + (coarse.n,)
    fine_cuts = [0, *fine.indices, fine.n]
    new_blocks: list[tuple[int, ...]] = []
    for t, block in enumerate(p.blocks):
        lo, hi = coarse_cuts[t], coarse_cuts[t + 1]
        inner = [c - lo for c in fine_cuts if lo <= c <= hi]
        ordered = sorted(block)
        for a, b in zip(inner, inner[1:]):
            new_blocks.append(tuple(ordered[a:b]))
    return FlagPartition(tuple(new_blocks))


def is_elementary(p: FlagPartition) -> bool:
    """No adjacent pair of blocks is fully ascending."""
    return not any(
        max(left) < min(right)
        for left, right in zip(p.blocks, p.blocks[1:])
    )


def g_space(ft: FlagType) -> GradedDims:
    """Graded span of the elementary partitions of V(I)."""
    out: dict[int, int] = {}
    for p in partitions_of(ft):
        if is_elementary(p):
            deg = 2 * inversions(p)
            out[deg] = out.get(deg, 0) + 1
    return GradedDims(out)


@dataclass(frozen=True)
class DecompositionReport:
    flag: FlagType
    ok: bool
    expected_total: int
    image_total: int
    graded_expected: GradedDims
    graded_image: GradedDims
    first_mismatch: str | None


def verify_free_decomposition(ft: FlagType) -> DecompositionReport:
    """Check that refinement of elementary partitions over all J inside
    I hits every partition of V(I) exactly once, degree-preserving."""
    expected = betti(ft)
    seen: dict[FlagPartition, tuple[int, ...]] = {}
    image: dict[int, int] = {}
    mismatch = None
    for r in range(len(ft.indices) + 1):
        for sub in itertools.combinations(ft.indices, r):
            coarse = FlagType(ft.n, sub)
            for p in partitions_of(coarse):
                if not is_elementary(p):
                    continue
                q = refine(coarse, p, ft)
                if inversions(q) != inversions(p) and mismatch is None:
                    mismatch = (
                        f"refinement of {p.blocks} from J={sub} changed the "
                        f"inversion count"
                    )
                if q in seen and mismatch is None:
                    mismatch = (
                        f"partition {q.blocks} hit from both J={seen[q]} "
                        f"and J={sub}"
                    )
                seen[q] = sub
                deg = 2 * inversions(q)
                image[deg] = image.get(deg, 0) + 1
    graded_image = GradedDims(image)
    ok = mismatch is None and graded_image == expected
    if not ok and mismatch is None:
        mismatch = (
            f"graded counts differ: expected {expected!r}, "
            f"got {graded_image!r}"
        )
    return DecompositionReport(
        flag=ft,
        ok=ok,
        expected_total=expected.total(),
        image_total=graded_image.total(),
        graded_expected=expected,
        graded_image=graded_image,
        first_mismatch=None if ok else mismatch,
    )
