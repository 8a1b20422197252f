"""Exact shortest-vector and closest-vector computations by enumeration.

Decisions here feed exact-threshold robustness arguments, so nothing is
approximated: L2 comparisons happen on squared rationals, L1/Linf on
exact sums, and the enumerator provably covers a ball around the seed.
The seed comes from Babai's nearest-plane walk over an exact rational
Gram-Schmidt basis; the achieved seed distance then bounds a coefficient
box through the rows of the inverse basis, and the box is swept
exhaustively.

Intended for the small dimensions of this problem domain (D <= 6 by
default); there is deliberately no basis reduction or approximation.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, isqrt
from typing import Sequence

from .errors import EnumerationCapError, ShapeError, SingularMatrixError
from .intmat import (
    IntMat,
    IntVec,
    det_adjugate,
    exact_left_quotient,
    is_unimodular,
    solve_integer,
)
from .residue import default_enum_cap

__all__ = [
    "Norm",
    "min_distance",
    "cvp",
    "lattices_equal",
    "lattice_member",
]

MAX_ENUM_DIM = 6


class Norm(enum.Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"

    @staticmethod
    def from_string(s: str) -> "Norm":
        return Norm(s.lower())


def _norm_value(diff: Sequence, norm: Norm):
    """Exact magnitude of a vector of ints/Fractions; squared for L2."""
    if norm is Norm.L2:
        return sum(x * x for x in diff)
    if norm is Norm.L1:
        return sum(abs(x) for x in diff)
    return max(abs(x) for x in diff)


def _check_basis(b: IntMat, max_dim: int) -> int:
    if not b.is_square:
        raise ShapeError("lattice basis must be square")
    d, _ = det_adjugate(b)
    if d == 0:
        raise SingularMatrixError("lattice basis is singular")
    if b.rows > max_dim:
        raise EnumerationCapError(
            f"dimension {b.rows} exceeds enumeration limit {max_dim}"
        )
    return d


def _frac_sqrt_upper(x: Fraction) -> Fraction:
    """A rational t with t >= sqrt(x), for x >= 0."""
    if x <= 0:
        return Fraction(0)
    n, d = x.numerator, x.denominator
    return Fraction(isqrt(n * d) + 1, d)


@lru_cache(maxsize=256)
def _gram_schmidt(b: IntMat):
    """Exact Gram-Schmidt over the columns; returns (b*, |b*|^2) tuples."""
    n = b.rows
    cols = [[Fraction(b[i, j]) for i in range(n)] for j in range(n)]
    stars: list[list[Fraction]] = []
    norms2: list[Fraction] = []
    for j in range(n):
        v = list(cols[j])
        for k in range(j):
            mu = sum(a * c for a, c in zip(cols[j], stars[k])) / norms2[k]
            v = [x - mu * y for x, y in zip(v, stars[k])]
        stars.append(v)
        norms2.append(sum(x * x for x in v))
    return tuple(tuple(s) for s in stars), tuple(norms2)


def _round_half_up(x: Fraction) -> int:
    return floor(x + Fraction(1, 2))


def _nearest_plane(b: IntMat, target: Sequence[Fraction]) -> tuple[int, ...]:
    """Babai coefficient seed; the walk's output distance is the box radius."""
    stars, norms2 = _gram_schmidt(b)
    n = b.rows
    t = list(target)
    coeffs = [0] * n
    for j in reversed(range(n)):
        mu = sum(a * c for a, c in zip(t, stars[j])) / norms2[j]
        cj = _round_half_up(mu)
        coeffs[j] = cj
        if cj:
            t = [x - cj * b[i, j] for i, x in enumerate(t)]
    return tuple(coeffs)


def _coeff_box(
    b: IntMat, center: Sequence[Fraction], radius2: Fraction, cap: int
):
    """All integer coefficient vectors c with b @ c possibly within the
    L2 ball of squared radius ``radius2`` around the target."""
    d, adj = det_adjugate(b)
    n = b.rows
    d2 = d * d
    ranges = []
    total = 1
    for i in range(n):
        u = sum(Fraction(adj[i, j]) * center[j] for j in range(n)) / d
        s2 = sum(adj[i, j] ** 2 for j in range(n))
        t = _frac_sqrt_upper(radius2 * s2 / d2)
        lo = ceil(u - t)
        hi = floor(u + t)
        ranges.append(range(lo, hi + 1))
        total *= max(hi - lo + 1, 0)
        if total > cap:
            raise EnumerationCapError(
                f"enumeration box of {total} points exceeds cap {cap}"
            )
    return itertools.product(*ranges)


def _search_radius2(dist, norm: Norm, dim: int) -> Fraction:
    """Squared L2 radius of a ball containing the norm ball of ``dist``."""
    if norm is Norm.L2:
        return Fraction(dist)
    if norm is Norm.L1:
        return Fraction(dist) ** 2
    return dim * Fraction(dist) ** 2


def min_distance(
    b: IntMat,
    norm: Norm = Norm.L2,
    max_dim: int = MAX_ENUM_DIM,
    cap: int | None = None,
):
    """Exact minimum over LAT(b) minus the origin.

    Returns the squared distance (an integer) for L2 and the plain
    integer distance for L1/Linf. The shortest basis column seeds the
    search radius; the minimizer must lie inside the resulting box.
    """
    _check_basis(b, max_dim)
    cap = default_enum_cap() if cap is None else cap
    n = b.rows
    seed = min(
        _norm_value([b[i, j] for i in range(n)], norm) for j in range(n)
    )
    zero_center = [Fraction(0)] * n
    best = seed
    for coeffs in _coeff_box(b, zero_center, _search_radius2(seed, norm, n), cap):
        if not any(coeffs):
            continue
        point = [
            sum(b[i, j] * coeffs[j] for j in range(n)) for i in range(n)
        ]
        val = _norm_value(point, norm)
        if val < best:
            best = val
    return best


def cvp(
    b: IntMat,
    target: Sequence,
    norm: Norm = Norm.L2,
    max_dim: int = MAX_ENUM_DIM,
    cap: int | None = None,
) -> IntVec:
    """A closest lattice point of LAT(b) to the target (ints or Fractions).

    Exact: the nearest-plane seed bounds the search, every candidate in
    the covering box is compared under the requested norm, and ties are
    broken toward the lexicographically smallest coefficient vector.
    """
    _check_basis(b, max_dim)
    cap = default_enum_cap() if cap is None else cap
    n = b.rows
    if len(target) != n:
        raise ShapeError("target dimension does not match the basis")
    t = [Fraction(x) for x in target]

    seed_coeffs = _nearest_plane(b, t)
    seed_diff = [
        sum(b[i, j] * seed_coeffs[j] for j in range(n)) - t[i]
        for i in range(n)
    ]
    seed_val = _norm_value(seed_diff, norm)

    best_val = seed_val
    best_coeffs = seed_coeffs
    if seed_val > 0:
        for coeffs in _coeff_box(b, t, _search_radius2(seed_val, norm, n), cap):
            diff = [
                sum(b[i, j] * coeffs[j] for j in range(n)) - t[i]
                for i in range(n)
            ]
            val = _norm_value(diff, norm)
            if val < best_val or (val == best_val and coeffs < best_coeffs):
                best_val = val
                best_coeffs = coeffs
    return IntVec(
        sum(b[i, j] * best_coeffs[j] for j in range(n)) for i in range(n)
    )


def lattices_equal(b1: IntMat, b2: IntMat) -> bool:
    """True iff the two bases generate the same lattice, that is iff
    b2^{-1} @ b1 is an integer unimodular matrix."""
    if det_adjugate(b1)[0] == 0:
        raise SingularMatrixError("lattice basis is singular")
    q = exact_left_quotient(b2, b1)
    return q is not None and is_unimodular(q)


def lattice_member(b: IntMat, w: IntVec) -> bool:
    """Exact membership test of an integer vector in LAT(b)."""
    return solve_integer(b, w) is not None
