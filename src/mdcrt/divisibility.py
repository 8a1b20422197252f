"""Divisibility of nonsingular integer matrices.

Greatest common left/right divisors come with Bezout certificates read off
the Smith form of the concatenated block (m | n); least common right/left
multiples come from an integer kernel basis of the stacked map (m | -n).
Outputs that are only unique up to a unimodular factor are canonicalized
to a column-style Hermite form (lower triangular, positive diagonal) so
they can be compared directly; pass ``canonical=False`` for the raw form.

All functions are pure; inputs must be nonsingular (the notions are not
defined otherwise and singular inputs are rejected).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import ConditionViolatedError, ShapeError, SingularMatrixError
from .intmat import (
    IntMat,
    SmithForm,
    det,
    exact_left_quotient,
    is_unimodular,
    smith,
)

__all__ = [
    "BezoutCert",
    "GcrdCert",
    "xgcd",
    "hermite_canonical",
    "gcld",
    "gcrd",
    "lcrm",
    "lclm",
    "lcrm_list",
    "is_left_coprime",
    "is_right_coprime",
    "left_divides",
    "commutes",
    "circulant2_coprime",
    "exact_left_quotient",
]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b == g == gcd(a, b), g >= 0 for a or b nonzero."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def _check_nonsingular(*ms: IntMat) -> None:
    for m in ms:
        if not m.is_square:
            raise ShapeError("square matrix required")
        if det(m) == 0:
            raise SingularMatrixError("nonsingular matrix required")


def _block_smith(m: IntMat, n: IntMat) -> SmithForm:
    """Smith form of the D x 2D block (m | n) of two nonsingular D x D
    matrices; v's D x D blocks hold the gcld cofactors (left column) and
    an integer kernel basis of (m | n) (right column)."""
    _check_nonsingular(m, n)
    if m.shape != n.shape:
        raise ShapeError("matrix shapes differ")
    return smith(IntMat.hstack(m, n))


def _v_block(v: IntMat, i: int, j: int, d: int) -> IntMat:
    """The (i, j) D x D block of a 2D x 2D matrix."""
    return IntMat._of(
        tuple(row[j * d : (j + 1) * d] for row in v.entries[i * d : (i + 1) * d])
    )


def _intersection(c: IntMat, canonical: bool = True) -> IntMat:
    """The lcrm spanned by c == m @ kx, kx the x-part of an integer
    kernel basis of (m | n) or of (m | -n)."""
    if det(c) == 0:
        raise SingularMatrixError("intersection lattice is degenerate")
    return _hermite(c) if canonical else c


def left_divides(a: IntMat, m: IntMat) -> bool:
    return exact_left_quotient(a, m) is not None


def hermite_canonical(a: IntMat) -> IntMat:
    """Column-style Hermite form of a nonsingular matrix.

    Returns h == a @ w for some unimodular w, with h lower triangular,
    positive diagonal, and each row reduced modulo its diagonal entry to
    the left. This is the canonical representative used for every
    result that is unique only up to a right unimodular factor.
    """
    _check_nonsingular(a)
    return _hermite(a)


def _hermite(a: IntMat) -> IntMat:
    """hermite_canonical of a matrix already checked to be nonsingular."""
    n = a.rows
    h = [list(row) for row in a]

    def combine_cols(i, j, x, y, zn, zd):
        # col_i, col_j <- x*col_i + y*col_j, zn*col_i + zd*col_j
        for row in h:
            ci, cj = row[i], row[j]
            row[i] = x * ci + y * cj
            row[j] = zn * ci + zd * cj

    for i in range(n):
        for j in range(i + 1, n):
            if h[i][j] == 0:
                continue
            g, x, y = xgcd(h[i][i], h[i][j])
            combine_cols(i, j, x, y, -(h[i][j] // g), h[i][i] // g)
        if h[i][i] < 0:
            for row in h:
                row[i] = -row[i]
        if h[i][i] == 0:
            raise SingularMatrixError("matrix is singular")
        for j in range(i):
            q = h[i][j] // h[i][i]
            if q:
                for row in h:
                    row[j] -= q * row[i]
    return IntMat._of(tuple(map(tuple, h)))


@dataclass(frozen=True)
class BezoutCert:
    """Greatest common left divisor with cofactors: m @ p + n @ q == l."""

    l: IntMat
    p: IntMat
    q: IntMat


@dataclass(frozen=True)
class GcrdCert:
    """Greatest common right divisor with cofactors: p @ m + q @ n == l."""

    l: IntMat
    p: IntMat
    q: IntMat


def gcld(m: IntMat, n: IntMat, canonical: bool = True) -> BezoutCert:
    """gcld of two nonsingular matrices with its Bezout certificate.

    The Smith form u @ (m | n) @ v == (lam | 0) gives the cofactors as
    the top and bottom left D x D blocks of v, and the divisor as the
    Bezout combination m @ p + n @ q, which equals u^{-1} @ lam. The
    certificate survives canonicalization because a right unimodular
    factor can be pushed into both cofactors.
    """
    d = m.rows
    v = _block_smith(m, n).v
    p, q = _v_block(v, 0, 0, d), _v_block(v, 1, 0, d)
    l = m @ p + n @ q
    if canonical:
        h = hermite_canonical(l)
        w = exact_left_quotient(l, h)
        l, p, q = h, p @ w, q @ w
    return BezoutCert(l, p, q)


def gcrd(m: IntMat, n: IntMat, canonical: bool = True) -> GcrdCert:
    """gcrd by transpose duality from gcld(m.T, n.T)."""
    cert = gcld(m.T, n.T, canonical=canonical)
    return GcrdCert(cert.l.T, cert.p.T, cert.q.T)


def lcrm(m: IntMat, n: IntMat, canonical: bool = True) -> IntMat:
    """Least common right multiple: a basis of LAT(m) & LAT(n).

    The integer kernel of the stacked map (m | -n) is read off the Smith
    form; m times the x-part of the kernel basis generates the
    intersection lattice exactly.
    """
    d = m.rows
    # kernel basis = last d columns of v (the zero columns of (lam | 0))
    kx = _v_block(_block_smith(m, -n).v, 0, 1, d)
    return _intersection(m @ kx, canonical)


def lclm(m: IntMat, n: IntMat, canonical: bool = True) -> IntMat:
    """Least common left multiple, the transpose dual of lcrm.

    The canonical form is the transpose of the column Hermite form of the
    transposed problem (upper triangular, positive diagonal).
    """
    return lcrm(m.T, n.T, canonical=canonical).T


def lcrm_list(ms, canonical: bool = True) -> IntMat:
    """lcrm of a list by pairwise folding (order does not change the lattice)."""
    ms = list(ms)
    if not ms:
        raise ShapeError("empty modulus list")
    _check_nonsingular(*ms)
    acc = ms[0]
    for m in ms[1:]:
        acc = lcrm(acc, m, canonical=False)
    return hermite_canonical(acc) if canonical else acc


def is_left_coprime(m: IntMat, n: IntMat) -> bool:
    return is_unimodular(gcld(m, n, canonical=False).l)


def is_right_coprime(m: IntMat, n: IntMat) -> bool:
    return is_unimodular(gcrd(m, n, canonical=False).l)


def commutes(m: IntMat, n: IntMat) -> bool:
    if m.shape != n.shape or not m.is_square:
        raise ShapeError("commutation needs equal square shapes")
    return m @ n == n @ m


def circulant2_coprime(p1: int, q1: int, p2: int, q2: int) -> bool:
    """Coprimeness test for 2x2 circulants ((p, q), (q, p)).

    Holds iff p1+q1 is coprime with p2+q2 and p1-q1 with p2-q2. Circulants
    with all equal entries are singular and rejected.
    """
    if p1 == q1 or p2 == q2:
        raise ConditionViolatedError("degenerate circulant with equal entries")
    return gcd(p1 + q1, p2 + q2) == 1 and gcd(p1 - q1, p2 - q2) == 1

