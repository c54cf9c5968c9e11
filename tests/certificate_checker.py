"""A checker of ``flagsheaf/certificate-report/1`` payloads on the
standard library alone, with the closed forms it needs: a certifying
algorithm's checker should be simpler than the algorithm and independent
of it (McConnell, Mehlhorn, Naeher and Schweitzer, "Certifying
algorithms", Computer Science Review 5(2), 2011).  v1 does not echo its
degree and action windows, so the caller passes them (the CLI's by
default)."""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

DEGREE_WINDOW = (-40, 40)
ACTION_WINDOW = (Fraction(-10), Fraction(10))


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


def q_factorial(n: int) -> list[int]:
    out = [1]
    for k in range(1, n + 1):
        out = poly_mul(out, [1] * k)  # [k]_q = 1 + q + .. + q^(k-1)
    return out


def gaussian_multinomial(n: int, sizes: tuple[int, ...]) -> list[int]:
    """[n]_q! / prod [s]_q!, exact, as a list of coefficients."""
    assert sum(sizes) == n
    num = q_factorial(n)
    for s in sizes:
        num = poly_divexact(num, q_factorial(s))
    return num


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


def expected_terms(n, lam, indices, degree_window=DEGREE_WINDOW,
                   action_window=ACTION_WINDOW):
    """(coords, action, degree) of every lattice point l of center class
    0 (sum_k k x_k = 0 mod N) with x_j <= -[j in I] for j >= 2 whose
    action <l, lam e_1> = lam a / N, a = sum_k x_k (N - k), and degree
    -D(l) = sum_k x_k 2k(N - k) lie in the windows, sorted by (action,
    degree, coords), by enumeration of a box that holds them all.

    With t_j = -x_j >= 0 for j >= 2, 2a - degree = sum_j t_j 2(N - j)
    (j - 1), all terms >= 0, so t_j 2(N - j)(j - 1) <= 2 a_hi - degree_lo
    for every j; x_1 ranges over what both windows allow."""
    lam = Fraction(lam)
    dlo, dhi = degree_window
    alo, ahi = (Fraction(a) for a in action_window)
    a_lo, a_hi = math.ceil(n * alo / lam), math.floor(n * ahi / lam)
    step, top = 2 * (n - 1), 2 * a_hi - dlo  # step: the degree of x_1
    terms = []
    for tail in itertools.product(*(
            range(int(j in indices), top // (2 * (n - j) * (j - 1)) + 1)
            for j in range(2, n))):
        rest = tuple(-t for t in tail)
        deg = sum(x * 2 * k * (n - k) for k, x in enumerate(rest, 2))
        a = sum(x * (n - k) for k, x in enumerate(rest, 2))
        cls = sum(k * x for k, x in enumerate(rest, 2))
        x1_lo = max(-((deg - dlo) // step), -((a - a_lo) // (n - 1)))
        x1_hi = min((dhi - deg) // step, (a_hi - a) // (n - 1))
        for x1 in range(x1_lo, x1_hi + 1):
            if (x1 + cls) % n == 0:
                terms.append((x1 * (n - 1) + a, x1 * step + deg, (x1, *rest)))
    terms.sort()  # lam > 0, so a orders the terms as the action does
    return [(coords, lam * a / n, deg) for a, deg, coords in terms]


def check_certificate_report(payload: dict, degree_window=DEGREE_WINDOW,
                             action_window=ACTION_WINDOW) -> int:
    """Check a v1 payload made with the given windows and return the
    number of listed terms; a broken rule raises ``AssertionError``:

    * each listing H_I(d) is, in order and as printed, the terms of
      ``expected_terms`` for I with action + d >= 0;
    * each ``graded`` is the degree count of its listing, and
      ``full_hom[d]`` the sum over I of g(I) tensor graded(I, d);
    * each witness follows the residue rule: x_j = -[j in I] for j >= 2,
      and x_1 the least integer with action >= 0 and center class 0,
      repeated for every d."""
    assert payload["schema"] == "flagsheaf/certificate-report/1"
    params = payload["params"]
    n, lam = params["n"], Fraction(params["lambda"])
    assert params == {"group": f"SU({n})", "n": n, "lambda": str(lam)}
    assert lam > 0 and payload["normalization_shift"] == n * n - n
    assert payload["verdict"] is True
    grid = [Fraction(d) for d in payload["d_grid"]]
    assert payload["d_grid"] == [str(d) for d in grid]
    assert grid and grid == sorted(set(grid)) and grid[0] >= 0, grid
    subsets = [c for r in range(n)
               for c in itertools.combinations(range(1, n), r)]
    labels = [",".join(map(str, s)) for s in subsets]

    witnesses = []
    for subset, label in zip(subsets, labels):
        tail = [-(j in subset) for j in range(2, n)]
        a = sum(x * (n - k) for k, x in enumerate(tail, 2))  # a at x_1 = 0
        x1 = -(a // (n - 1))  # the least x_1 with a >= 0, then class 0
        x1 += -(x1 + sum(k * x for k, x in enumerate(tail, 2))) % n
        a += x1 * (n - 1)
        assert 0 <= a < n * (n - 1), (label, x1)
        witnesses.append({
            "i": label, "structure_map_nonzero": True,
            "witness": [str(x) for x in (x1, *tail)],
            "witness_action": str(lam * Fraction(a, n)),
            "witness_degree": sum(x * 2 * k * (n - k)
                                  for k, x in enumerate((x1, *tail), 1)),
            "certified_empty": False})
    assert payload["records"] == [
        {**w, "d": d} for d in payload["d_grid"] for w in witnesses]

    # I's module is the I = () list filtered by x_j <= -1 on I, j >= 2
    terms = expected_terms(n, lam, (), degree_window, action_window)
    printed = [{"l": [str(x) for x in c], "action": str(act), "degree": deg}
               for c, act, deg in terms]
    mine = {s: [k for k, (c, _, _) in enumerate(terms)
                if all(c[j - 1] < 0 for j in s if j > 1)] for s in subsets}
    listed, graded = 0, {}
    assert [(r["d"], r["i"]) for r in payload["h_graded"]] == [
        (d, label) for d in payload["d_grid"] for label in labels]
    for r, subset in zip(payload["h_graded"], subsets * len(grid)):
        keep = mine[subset]  # the terms with action + d >= 0 are a tail
        keep = keep[bisect_left(keep, -Fraction(r["d"]),
                                key=lambda k: terms[k][1]):]
        assert r["elements"] == [printed[k] for k in keep], (r["i"], r["d"])
        counts = Counter(terms[k][2] for k in keep)
        assert r["graded"] == {str(k): v for k, v in counts.items()}, r["i"]
        listed += len(keep)
        graded[r["d"], r["i"]] = counts

    assert set(payload["full_hom"]) == {str(d) for d in grid}
    spaces = [elementary_space(n, s) for s in subsets]
    for d in payload["d_grid"]:
        total = Counter()
        for space, label in zip(spaces, labels):
            for (a, x), (b, y) in itertools.product(
                    space.items(), graded[d, label].items()):
                total[a + b] += x * y
        assert payload["full_hom"][d] == {
            str(k): v for k, v in total.items()
        }, d
    return listed
