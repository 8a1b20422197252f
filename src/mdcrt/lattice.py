"""Exact shortest-vector and closest-vector computations by sphere decoding.

Decisions here feed exact-threshold robustness arguments, so nothing is
approximated: every comparison is between integers, and the search
provably covers a ball around the best point found so far.

- Gram-Schmidt data. Each basis gets its exact Gram-Schmidt
  decomposition once (cached), scaled to integers, so that the squared
  L2 distance from b @ c to a rational target, times a fixed integer, is
  an integer quadratic form in c with one term per Gram-Schmidt
  direction. A target of plain ints is used as it is; any other goes
  through ``Fraction``. Dot products use the kernel of ``intmat``.
- Babai seed. Nearest-plane rounding, from level n-1 down to 0, gives a
  seed point. Its distance d under the requested norm fixes the first
  search radius: the L2 ball of squared radius d (L2, where distances
  are squared), d^2 (L1) or n*d^2 (Linf) holds every point at least as
  close.
- Certificate. Every nonzero lattice vector is at least as long as the
  shortest Gram-Schmidt vector b*_k. When twice the search radius is
  below that length, no other lattice point is as close as the seed,
  and the seed is returned without a search.
- Sphere decoding. Otherwise a depth-first Schnorr-Euchner enumeration
  visits each level's coefficients in order of distance from the level's
  centre and leaves the level at the first one whose partial squared
  distance exceeds the radius. The radius shrinks with every strict
  improvement. Every minimizer lies inside every radius used, so ties go
  to the lexicographically smallest coefficient vector whatever the
  visit order. ``min_distance`` runs the same search around the origin,
  seeded by the shortest basis column, skipping the origin itself.
- Cap. Before any search, the axis-aligned coefficient box that covers
  the first radius is sized through the rows of the adjugate; a box of
  more than the enumeration cap raises EnumerationCapError. Every
  coefficient the search keeps lies inside that box, and each level
  overshoots it at most once, so the cap bounds the work.

Intended for the small dimensions of this problem domain: a basis of
more than ``MAX_ENUM_DIM`` (6) rows is rejected. There is deliberately no
basis reduction or approximation.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul
from typing import NamedTuple, Sequence

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


def _norm_value(diff: Sequence, norm: Norm):
    """Exact magnitude of a vector of ints/Fractions; squared for L2."""
    if norm is Norm.L2:
        return sum(x * x for x in diff)
    if norm is Norm.L1:
        return sum(abs(x) for x in diff)
    return max(abs(x) for x in diff)


def _check_basis(b: IntMat) -> int:
    if not b.is_square:
        raise ShapeError("lattice basis must be square")
    d, _ = det_adjugate(b)
    if d == 0:
        raise SingularMatrixError("lattice basis is singular")
    if b.rows > MAX_ENUM_DIM:
        raise EnumerationCapError(
            f"dimension {b.rows} exceeds enumeration limit {MAX_ENUM_DIM}"
        )
    return d


def _sqrt_upper(n: int, d: int) -> tuple[int, int]:
    """Lowest terms (p, q), q > 0, of a rational p / q >= sqrt(n / d), for
    n >= 0 and d > 0: (isqrt(n d) + 1) / d with n / d in lowest terms."""
    if n <= 0:
        return 0, 1
    g = gcd(n, d)
    n, d = n // g, d // g
    s = isqrt(n * d) + 1
    g = gcd(s, d)
    return s // g, d // g


class _GramSchmidt(NamedTuple):
    """Exact Gram-Schmidt data of a basis, scaled to integers.

    ``w[k]`` is the primitive integer multiple of b*_k with positive
    scale and ``g[k][j] = <b_j, w[k]>`` (zero for j < k). With
    ``a[k] = m // |w[k]|^2``, the squared distance of b @ c to t = tq / q is

        sum_k a[k] * (q * sum_{j >= k} g[k][j] * c[j] - <tq, w[k]>)^2 / (m q^2),

    one term per level. ``gmin = m * min_k |b*_k|^2``.
    """

    w: tuple[tuple[int, ...], ...]
    g: tuple[tuple[int, ...], ...]
    a: tuple[int, ...]
    m: int
    gmin: int


@lru_cache(maxsize=256)
def _gram_schmidt(b: IntMat) -> _GramSchmidt:
    n = b.rows
    cols = [[Fraction(b[i, j]) for i in range(n)] for j in range(n)]
    stars: list[list[Fraction]] = []
    for col in cols:
        v = col
        for s in stars:
            mu = sum(x * y for x, y in zip(col, s)) / sum(y * y for y in s)
            v = [x - mu * y for x, y in zip(v, s)]
        stars.append(v)
    w = []
    for s in stars:
        den = lcm(*(x.denominator for x in s))
        scaled = [x.numerator * (den // x.denominator) for x in s]
        k = gcd(*scaled)
        w.append(tuple(x // k for x in scaled))
    g = tuple(
        tuple(sum(b[i, j] * wk[i] for i in range(n)) for j in range(n))
        for wk in w
    )
    norms = [sum(x * x for x in wk) for wk in w]
    m = lcm(*norms)
    a = tuple(m // x for x in norms)
    gmin = min(g[k][k] ** 2 * a[k] for k in range(n))
    return _GramSchmidt(tuple(w), g, a, m, gmin)


def _project(gs: _GramSchmidt, tq: Sequence[int]) -> list[int]:
    """<tq, w[k]> for every level k."""
    return [sum(map(mul, tq, wk)) for wk in gs.w]


def _babai(gs: _GramSchmidt, tq: Sequence[int], q: int) -> list[int]:
    """Nearest-plane coefficients for t = tq / q: each level rounds its
    centre half up."""
    tw = _project(gs, tq)
    n = len(tw)
    c = [0] * n
    for k in reversed(range(n)):
        row = gs.g[k]
        # c[j] is still 0 for j <= k, so the full row sums levels above k
        e = tw[k] - q * sum(map(mul, row, c))
        qg = q * row[k]
        c[k] = (2 * e + qg) // (2 * qg)
    return c


def _scaled_diff(b: IntMat, c: Sequence[int], tq: Sequence[int], q: int):
    """q * (b @ c - t), an integer vector, for t = tq / q."""
    return [q * sum(map(mul, row, c)) - t for row, t in zip(b.entries, tq)]


def _check_box(b: IntMat, tq: Sequence[int], q: int, r2: int, cap: int) -> None:
    """Raise EnumerationCapError when the axis-aligned coefficient box
    covering the L2 ball of squared radius r2 / q^2 around t = tq / q
    holds more than ``cap`` points.

    Coefficient i of a point in the ball lies within t_i = sqrt(r2 * s2)
    / (q |d|) of u_i = (adj @ tq)_i / (q d), where s2 is the squared norm
    of row i of adj(b); t_i is rounded up to a rational tn / td. Every
    range holds a coefficient of a point in the ball, so the running
    product never shrinks and no range is swept.
    """
    d, adj = det_adjugate(b)
    qd = q * d
    total = 1
    for row in adj.entries:
        u = sum(map(mul, row, tq))
        tn, td = _sqrt_upper(r2 * sum(map(mul, row, row)), qd * qd)
        den = qd * td
        centre, reach = u * td, tn * abs(qd)
        if den < 0:
            den, centre = -den, -centre
        total *= (centre + reach) // den + (reach - centre) // den + 1
        if total > cap:
            raise EnumerationCapError(
                f"enumeration box of {total} points exceeds cap {cap}"
            )


def _search_radius2(dist, norm: Norm, dim: int):
    """Squared L2 radius of a ball containing the norm ball of ``dist``."""
    if norm is Norm.L2:
        return dist
    if norm is Norm.L1:
        return dist * dist
    return dim * dist * dist


def _sphere_decode(
    b: IntMat,
    tq: Sequence[int],
    q: int,
    norm: Norm,
    best_val: int,
    best_coeffs: tuple[int, ...],
    skip_zero: bool = False,
) -> tuple[int, tuple[int, ...]]:
    """Depth-first Schnorr-Euchner search for t = tq / q.

    ``best_val`` is the scaled norm value (of q * (b @ c - t)) of the
    coefficient vector ``best_coeffs``. Returns the least scaled value
    and the lexicographically smallest coefficient vector attaining it.
    Each level visits its coefficients in order of distance from the
    level's centre, so the first one past the radius ends the level.
    """
    gs = _gram_schmidt(b)
    g, a, m = gs.g, gs.a, gs.m
    n = b.rows
    tw = _project(gs, tq)
    bound = m * _search_radius2(best_val, norm, n)
    c = [0] * n

    def visit(k: int, partial: int) -> None:
        nonlocal best_val, best_coeffs, bound
        row = g[k]
        e = tw[k] - q * sum(row[j] * c[j] for j in range(k + 1, n))
        qg = q * row[k]
        x = (2 * e + qg) // (2 * qg)
        step = 1 if qg * x <= e else -1
        while True:
            y = qg * x - e
            p = partial + a[k] * y * y
            if p > bound:
                return
            c[k] = x
            if k:
                visit(k - 1, p)
            elif not (skip_zero and not any(c)):
                val = _norm_value(_scaled_diff(b, c, tq, q), norm)
                coeffs = tuple(c)
                if val < best_val:
                    best_val, best_coeffs = val, coeffs
                    bound = m * _search_radius2(val, norm, n)
                elif val == best_val and coeffs < best_coeffs:
                    best_coeffs = coeffs
            x += step
            step = -step - 1 if step > 0 else 1 - step

    visit(n - 1, 0)
    return best_val, best_coeffs


def min_distance(
    b: IntMat,
    norm: Norm = Norm.L2,
    cap: int | None = None,
) -> int:
    """Exact minimum over LAT(b) minus the origin.

    Returns the squared distance (an integer) for L2 and the plain
    integer distance for L1/Linf. The shortest basis column seeds the
    search radius; sphere decoding around the origin, skipping it, finds
    every shorter vector.
    """
    _check_basis(b)
    cap = default_enum_cap() if cap is None else cap
    n = b.rows
    lengths = [_norm_value(b.col(j), norm) for j in range(n)]
    seed = min(lengths)
    _check_box(b, [0] * n, 1, _search_radius2(seed, norm, n), cap)
    shortest = lengths.index(seed)
    unit = tuple(int(j == shortest) for j in range(n))
    best, _ = _sphere_decode(b, [0] * n, 1, norm, seed, unit, skip_zero=True)
    return best


def cvp(
    b: IntMat,
    target: Sequence,
    norm: Norm = Norm.L2,
    cap: int | None = None,
) -> IntVec:
    """A closest lattice point of LAT(b) to the target (ints or Fractions).

    Exact: the Babai seed fixes the first radius, and either the
    certificate shows it is the unique closest point or sphere decoding
    compares every lattice point within the radius under the requested
    norm. Ties go to the lexicographically smallest coefficient vector.
    """
    _check_basis(b)
    cap = default_enum_cap() if cap is None else cap
    n = b.rows
    if len(target) != n:
        raise ShapeError("target dimension does not match the basis")
    if all(type(x) is int for x in target):
        q, tq = 1, list(target)
    else:
        t = [Fraction(x) for x in target]
        q = lcm(*(x.denominator for x in t))
        tq = [int(x.numerator) * (q // x.denominator) for x in t]

    gs = _gram_schmidt(b)
    coeffs = _babai(gs, tq, q)
    val = _norm_value(_scaled_diff(b, coeffs, tq, q), norm)
    if val:
        r2 = _search_radius2(val, norm, n)
        _check_box(b, tq, q, r2, cap)
        # any other lattice point is at least sqrt(min |b*_k|^2) from the
        # seed, so the seed is the unique closest once 2r is below that
        if 4 * r2 * gs.m >= q * q * gs.gmin:
            _, coeffs = _sphere_decode(b, tq, q, norm, val, tuple(coeffs))
    return b @ IntVec._of(tuple(coeffs))


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
