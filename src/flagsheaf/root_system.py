"""Exact type-A root-system combinatorics on the Cartan algebra of su(N).

Conventions (fixed once, used by every module):

* The Cartan algebra h of su(N) is modelled as Q^{N-1} in coroot
  coordinates: a vector with coords (x_1, .., x_{N-1}) stands for
  2*pi * sum_k x_k e_k, so the central lattice is exactly the set of
  integral coordinate vectors.  All arithmetic is exact rational.
* e_1, .., e_{N-1} are the coroots, f_k = 2 e_k - e_{k-1} - e_{k+1}
  the simple roots (e_0 = e_N = 0), and <f_k, e_l> = delta_{kl}.
* <e_j, e_k> = min(j,k) * (N - max(j,k)) / N, in units of 2*pi, so
  on the lattice the scaled pairings N<l, e_k> are integers
  (``scaled_profile``); lattice rules compare those integers.
* Dominance: x <= y iff <y - x, e_k> >= 0 for every k; "<<" is the
  strict variant.
* The negative Weyl chamber C_- is the locus <x, f_k> <= 0 for all k
  (interior: strict).
* exp(2*pi*e_k) is the central element exp(-2*pi*i*k/N) * Id, so an
  integral vector l has center class  -(sum_k k * x_k) mod N.
* Degree weights D_k = 2k(N-k), the real dimension of Gr(k, N), and
  D(l) = -sum_k x_k D_k (the cross-checks in the pipeline only close
  up with this normalization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Sequence


class IntegrityError(RuntimeError):
    """An internal invariant failed; indicates an implementation bug."""


class NonConvergenceError(RuntimeError):
    """A decomposition in ``lie_numerics`` failed its gates."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact Cartan coordinates")
    return Fraction(value)


@dataclass(frozen=True)
class CartanVector:
    """Point of the Cartan algebra in rescaled coroot coordinates."""

    n: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"rank parameter must be >= 2, got {self.n}")
        if len(self.coords) != self.n - 1:
            raise ValueError(
                f"expected {self.n - 1} coordinates, got {len(self.coords)}"
            )
        object.__setattr__(
            self, "coords", tuple(_as_fraction(c) for c in self.coords)
        )

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self.coords)) + ")"

    def __add__(self, other: "CartanVector") -> "CartanVector":
        _check_same_rank(self, other)
        return CartanVector(
            self.n, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "CartanVector") -> "CartanVector":
        _check_same_rank(self, other)
        return CartanVector(
            self.n, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "CartanVector":
        return CartanVector(self.n, tuple(-a for a in self.coords))

    def scale(self, c) -> "CartanVector":
        c = _as_fraction(c)
        return CartanVector(self.n, tuple(c * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    @cached_property
    def integer_profile(self) -> tuple[tuple[int, ...], int]:
        """(S, d) with N<v, e_k> = S_k / d, computed once: d is the least
        common denominator of the coordinates and S the scaled profile of
        the lattice vector d v, so N<v, e_k> rounds by int division."""
        d = math.lcm(*(c.denominator for c in self.coords))
        coords = [c.numerator * (d // c.denominator) for c in self.coords]
        return scaled_profile(self.n, coords), d

    def is_integral(self) -> bool:
        """Lattice membership: the exponential is central iff all
        coordinates are integers."""
        return all(a.denominator == 1 for a in self.coords)


def cartan(n: int, coords: Sequence) -> CartanVector:
    return CartanVector(n, tuple(coords))


def zero(n: int) -> CartanVector:
    return CartanVector(n, (Fraction(0),) * (n - 1))


def e_vec(n: int, k: int) -> CartanVector:
    _check_index(n, k)
    return CartanVector(
        n, tuple(Fraction(1 if j == k else 0) for j in range(1, n))
    )


def f_vec(n: int, k: int) -> CartanVector:
    """f_k = 2 e_k - e_{k-1} - e_{k+1}, with e_0 = e_N = 0."""
    _check_index(n, k)
    coords = [Fraction(0)] * (n - 1)
    coords[k - 1] = Fraction(2)
    if k - 2 >= 0:
        coords[k - 2] = Fraction(-1)
    if k < n - 1:
        coords[k] = Fraction(-1)
    return CartanVector(n, tuple(coords))


def _check_index(n: int, k: int):
    if not 1 <= k <= n - 1:
        raise ValueError(f"index {k} out of range 1..{n - 1}")


def _check_same_rank(x: CartanVector, y: CartanVector):
    if x.n != y.n:
        raise ValueError(f"rank mismatch: {x.n} != {y.n}")


def gram_e(n: int, j: int, k: int) -> Fraction:
    """<e_j, e_k> = min(j,k) * (N - max(j,k)) / N."""
    _check_index(n, j)
    _check_index(n, k)
    return Fraction(min(j, k) * (n - max(j, k)), n)


def pair_e(v: CartanVector, k: int) -> Fraction:
    """<v, e_k> in units of 2*pi."""
    _check_index(v.n, k)
    return sum(
        (x * gram_e(v.n, j, k) for j, x in enumerate(v.coords, start=1)),
        Fraction(0),
    )


def pair_f(v: CartanVector, k: int) -> Fraction:
    """<v, f_k> in units of 2*pi; equals the k-th coroot coordinate."""
    _check_index(v.n, k)
    return v.coords[k - 1]


def scaled_profile(n: int, coords: Sequence) -> tuple:
    """N<v, e_k> = sum_j x_j min(j,k) (N - max(j,k)), k = 1..N-1, by
    running sums: ints for integer coordinates."""
    low, high, out = 0, sum((n - j) * x for j, x in enumerate(coords, 1)), []
    for k, x in enumerate(coords, 1):
        low, high = low + k * x, high - (n - k) * x
        out.append((n - k) * low + k * high)
    return tuple(out)


def e_profile(v: CartanVector) -> tuple[Fraction, ...]:
    """All pairings (<v,e_1>, .., <v,e_{N-1}>) at once."""
    return tuple(c / v.n for c in scaled_profile(v.n, v.coords))


def dominance_leq(x: CartanVector, y: CartanVector) -> bool:
    """x <= y iff <y - x, e_k> >= 0 for all k."""
    _check_same_rank(x, y)
    d = y - x
    return all(pair_e(d, k) >= 0 for k in range(1, x.n))


def dominance_ll(x: CartanVector, y: CartanVector) -> bool:
    """Strict dominance x << y: <y - x, e_k> > 0 for all k."""
    _check_same_rank(x, y)
    d = y - x
    return all(pair_e(d, k) > 0 for k in range(1, x.n))


class WeylPosition(Enum):
    INTERIOR_MINUS = "interior_minus"
    BOUNDARY_MINUS = "boundary_minus"
    OUTSIDE = "outside"


def weyl_chamber(x: CartanVector) -> WeylPosition:
    """Position of x relative to the negative chamber C_-.

    ``interior_minus``: every <x, f_k> < 0; ``boundary_minus``: every
    <x, f_k> <= 0 with at least one zero; ``outside`` otherwise.
    """
    signs = [pair_f(x, k) for k in range(1, x.n)]
    if all(s < 0 for s in signs):
        return WeylPosition.INTERIOR_MINUS
    if all(s <= 0 for s in signs):
        return WeylPosition.BOUNDARY_MINUS
    return WeylPosition.OUTSIDE


def in_c_minus(x: CartanVector) -> bool:
    return weyl_chamber(x) is not WeylPosition.OUTSIDE


def i_set(x: CartanVector) -> frozenset[int]:
    """I_x = indices with <x, f_k> < 0."""
    return frozenset(k for k in range(1, x.n) if pair_f(x, k) < 0)


@dataclass(frozen=True)
class CenterClass:
    """Central element exp(2*pi*i*residue/N) * Id of SU(N)."""

    n: int
    residue: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"rank parameter must be >= 2, got {self.n}")
        object.__setattr__(self, "residue", self.residue % self.n)


def _require_integral(l: CartanVector) -> list[int]:
    """The integer coordinates of l, which must be a lattice point."""
    if not l.is_integral():
        raise ValueError(f"lattice operation on non-integral vector {l}")
    return [x.numerator for x in l.coords]


def lattice_center(n: int, coords: Sequence[int]) -> int:
    """Residue -(sum_k k x_k) mod N of exp(l), for integer ``coords``."""
    return -sum(k * x for k, x in enumerate(coords, 1)) % n


def lattice_degree(n: int, coords: Sequence[int]) -> int:
    """D(l) = -sum_k x_k D_k, D_k = 2k(N-k), for integer ``coords``."""
    return -sum(x * 2 * k * (n - k) for k, x in enumerate(coords, 1))


def center_class(l: CartanVector) -> CenterClass:
    """Center class of exp(l), for integral l."""
    return CenterClass(l.n, lattice_center(l.n, _require_integral(l)))


def d_degree(l: CartanVector) -> int:
    """D(l), for integral l."""
    return lattice_degree(l.n, _require_integral(l))
