"""Exact integer matrices and vectors, and the Smith normal form.

Everything in this module is arbitrary-precision and exact: entries are
Python ints, rational results are `fractions.Fraction`, and no floating
point appears anywhere. Values are immutable after construction and all
operations are pure, so they are safe to share between threads.

The determinant and the adjugate come together from one fraction-free
(Bareiss) Gauss-Jordan pass over [a | I], whose every division is exact;
only singular input falls back to cofactor expansion, since a rank n-1
matrix still has a nonzero adjugate. The public constructors check every
entry; results of arithmetic on already-checked values are built through
the unchecked ``_of`` constructors. Matrix products compute each dot
product as ``sum(map(mul, row, col))``, the cheapest exact form for the
small dimensions here; the lattice and residue kernels use the same one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Sequence

from .errors import ShapeError, SingularMatrixError

__all__ = [
    "IntVec",
    "IntMat",
    "SmithForm",
    "det",
    "adjugate",
    "det_adjugate",
    "is_unimodular",
    "inv_unimodular",
    "inv_rational",
    "solve_integer",
    "exact_left_quotient",
    "smith",
]


def _as_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"integer entry expected, got {x!r}")
    return x


class IntVec:
    """Immutable integer vector of dimension >= 1."""

    __slots__ = ("_e",)

    def __init__(self, entries: Iterable[int]):
        e = tuple(_as_int(x) for x in entries)
        if not e:
            raise ShapeError("vector must have dimension >= 1")
        object.__setattr__(self, "_e", e)

    @classmethod
    def _of(cls, e: tuple[int, ...]) -> "IntVec":
        """Wrap a nonempty tuple of ints without checking it."""
        v = object.__new__(cls)
        object.__setattr__(v, "_e", e)
        return v

    @property
    def dim(self) -> int:
        return len(self._e)

    @property
    def entries(self) -> tuple[int, ...]:
        return self._e

    def __len__(self) -> int:
        return len(self._e)

    def __iter__(self):
        return iter(self._e)

    def __getitem__(self, i: int) -> int:
        return self._e[i]

    def __add__(self, other: "IntVec") -> "IntVec":
        if len(self._e) != len(other):
            raise ShapeError("vector dimensions differ")
        e = tuple(a + b for a, b in zip(self._e, other))
        return IntVec._of(e) if isinstance(other, IntVec) else IntVec(e)

    def __sub__(self, other: "IntVec") -> "IntVec":
        if len(self._e) != len(other):
            raise ShapeError("vector dimensions differ")
        e = tuple(a - b for a, b in zip(self._e, other))
        return IntVec._of(e) if isinstance(other, IntVec) else IntVec(e)

    def __neg__(self) -> "IntVec":
        return IntVec._of(tuple(-a for a in self._e))

    def __rmul__(self, c: int) -> "IntVec":
        return IntVec(c * a for a in self._e)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntVec) and self._e == other._e

    def __hash__(self) -> int:
        return hash(self._e)

    def __repr__(self) -> str:
        return f"IntVec({list(self._e)!r})"


class IntMat:
    """Immutable integer matrix in row-major order."""

    __slots__ = ("_r",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        r = tuple(tuple(_as_int(x) for x in row) for row in rows)
        if not r or not r[0]:
            raise ShapeError("matrix must be at least 1x1")
        w = len(r[0])
        if any(len(row) != w for row in r):
            raise ShapeError("ragged rows")
        object.__setattr__(self, "_r", r)

    @classmethod
    def _of(cls, r: tuple[tuple[int, ...], ...]) -> "IntMat":
        """Wrap a nonempty rectangular tuple of int tuples, unchecked."""
        m = object.__new__(cls)
        object.__setattr__(m, "_r", r)
        return m

    @property
    def rows(self) -> int:
        return len(self._r)

    @property
    def cols(self) -> int:
        return len(self._r[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self._r), len(self._r[0]))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return self._r

    def row(self, i: int) -> IntVec:
        return IntVec(self._r[i])

    def col(self, j: int) -> IntVec:
        return IntVec(row[j] for row in self._r)

    def __iter__(self):
        return iter(self._r)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self._r[i][j]

    @property
    def T(self) -> "IntMat":
        return IntMat._of(tuple(zip(*self._r)))

    def __matmul__(self, other):
        if isinstance(other, IntVec):
            if self.cols != other.dim:
                raise ShapeError("matrix/vector dimensions differ")
            e = other._e
            return IntVec._of(tuple(sum(map(mul, row, e)) for row in self._r))
        if isinstance(other, IntMat):
            if self.cols != other.rows:
                raise ShapeError("matrix dimensions differ")
            cols = tuple(zip(*other._r))
            return IntMat._of(
                tuple(
                    tuple(sum(map(mul, row, col)) for col in cols)
                    for row in self._r
                )
            )
        return NotImplemented

    def __add__(self, other: "IntMat") -> "IntMat":
        if self.shape != other.shape:
            raise ShapeError("matrix shapes differ")
        return IntMat._of(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self._r, other._r)
            )
        )

    def __sub__(self, other: "IntMat") -> "IntMat":
        if self.shape != other.shape:
            raise ShapeError("matrix shapes differ")
        return IntMat._of(
            tuple(
                tuple(a - b for a, b in zip(r1, r2))
                for r1, r2 in zip(self._r, other._r)
            )
        )

    def __neg__(self) -> "IntMat":
        return IntMat._of(tuple(tuple(-a for a in row) for row in self._r))

    def __rmul__(self, c: int) -> "IntMat":
        return IntMat((c * a for a in row) for row in self._r)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMat) and self._r == other._r

    def __hash__(self) -> int:
        return hash(self._r)

    def __repr__(self) -> str:
        return f"IntMat({[list(r) for r in self._r]!r})"

    @staticmethod
    def identity(n: int) -> "IntMat":
        return IntMat(
            (1 if i == j else 0 for j in range(n)) for i in range(n)
        )

    @staticmethod
    def diag(entries: Sequence[int]) -> "IntMat":
        n = len(entries)
        return IntMat(
            (entries[i] if i == j else 0 for j in range(n)) for i in range(n)
        )

    @staticmethod
    def hstack(a: "IntMat", b: "IntMat") -> "IntMat":
        if a.rows != b.rows:
            raise ShapeError("row counts differ")
        return IntMat._of(tuple(ra + rb for ra, rb in zip(a._r, b._r)))


def det(a: IntMat) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if not a.is_square:
        raise ShapeError("determinant needs a square matrix")
    n = a.rows
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _minor_det(a: IntMat, drop_i: int, drop_j: int) -> int:
    return det(IntMat(
        [x for j, x in enumerate(row) if j != drop_j]
        for i, row in enumerate(a) if i != drop_i
    ))


def _cofactor_adjugate(a: IntMat) -> IntMat:
    n = a.rows
    if n == 1:
        return IntMat([[1]])
    return IntMat(
        (
            (-1) ** (i + j) * _minor_det(a, j, i)
            for j in range(n)
        )
        for i in range(n)
    )


def _det_adj(a: IntMat) -> tuple[int, IntMat]:
    """(det, adjugate) from one fraction-free Gauss-Jordan pass on [a | I].

    Pivot k replaces every other row i by
    (row_i * p - row_i[k] * row_k) // prev, an exact division, so the
    left block ends as prev * I with prev == sign * det(a), and the right
    block is then sign * adj(a). A pivot column without a nonzero entry
    means a is singular; its adjugate comes from cofactor expansion.
    """
    if not a.is_square:
        raise ShapeError("determinant and adjugate need a square matrix")
    n = a.rows
    m = [
        list(row) + [1 if j == i else 0 for j in range(n)]
        for i, row in enumerate(a._r)
    ]
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0, _cofactor_adjugate(a)
        rk = m[k]
        p = rk[k]
        for i in range(n):
            if i != k:
                ri = m[i]
                c = ri[k]
                m[i] = [(x * p - c * y) // prev for x, y in zip(ri, rk)]
        prev = p
    if sign == 1:
        return prev, IntMat._of(tuple(tuple(row[n:]) for row in m))
    return -prev, IntMat._of(tuple(tuple(-x for x in row[n:]) for row in m))


def adjugate(a: IntMat) -> IntMat:
    """Adjugate matrix: a @ adjugate(a) == det(a) * I, also for singular a.

    One fraction-free Gauss-Jordan pass, with cofactor expansion only for
    singular a. Uncached, like det.
    """
    return _det_adj(a)[1]


@lru_cache(maxsize=4096)
def det_adjugate(a: IntMat) -> tuple[int, IntMat]:
    """Cached (det, adjugate) from the same single pass as adjugate;
    values are immutable so sharing is safe."""
    return _det_adj(a)


def solve_integer(a: IntMat, v: IntVec) -> IntVec | None:
    """x with a @ x == v when an integer solution exists, else None."""
    d, adj = det_adjugate(a)
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    y = adj @ v
    if any(e % d for e in y):
        return None
    return IntVec._of(tuple(e // d for e in y))


def exact_left_quotient(a: IntMat, m: IntMat) -> IntMat | None:
    """a^{-1} @ m when it is an integer matrix, else None."""
    d, adj = det_adjugate(a)
    if d == 0:
        raise SingularMatrixError("left factor is singular")
    x = adj @ m
    if any(e % d for row in x for e in row):
        return None
    return IntMat._of(tuple(tuple(e // d for e in row) for row in x))


def is_unimodular(a: IntMat) -> bool:
    return a.is_square and det(a) in (1, -1)


def inv_unimodular(a: IntMat) -> IntMat:
    """Exact integer inverse of a unimodular matrix."""
    d, adj = _det_adj(a)
    if d not in (1, -1):
        raise SingularMatrixError("matrix is not unimodular")
    return adj if d == 1 else -adj


def inv_rational(a: IntMat) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse as a matrix of reduced Fractions."""
    d, adj = _det_adj(a)
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    return tuple(tuple(Fraction(x, d) for x in row) for row in adj)


@dataclass(frozen=True)
class SmithForm:
    """Decomposition u @ a @ v == lam with u, v unimodular.

    ``lam`` has the shape of the input: a diagonal block of positive
    invariant factors (each dividing the next), padded with zeros when the
    input is rectangular or rank-deficient.
    """

    u: IntMat
    lam: IntMat
    v: IntMat

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        r = min(self.lam.rows, self.lam.cols)
        return tuple(
            self.lam[i, i] for i in range(r) if self.lam[i, i] != 0
        )


def smith(a: IntMat) -> SmithForm:
    """Smith normal form of an arbitrary (possibly rectangular) matrix.

    Elementary row/column reduction with a smallest-pivot sweep; after a
    pivot clears its cross it is forced to divide every entry of the
    trailing block, which yields the divisibility chain directly.
    """
    nr, nc = a.rows, a.cols
    s = [list(row) for row in a]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    for t in range(min(nr, nc)):
        while True:
            # smallest nonzero entry of the trailing block becomes the pivot
            best = None
            pos = None
            for i in range(t, nr):
                for j in range(t, nc):
                    e = s[i][j]
                    if e != 0 and (best is None or abs(e) < best):
                        best = abs(e)
                        pos = (i, j)
            if pos is None:
                return _smith_form(u, s, v)
            pi, pj = pos
            if pi != t:
                s[t], s[pi] = s[pi], s[t]
                u[t], u[pi] = u[pi], u[t]
            if pj != t:
                for row in s:
                    row[t], row[pj] = row[pj], row[t]
                for row in v:
                    row[t], row[pj] = row[pj], row[t]
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
                u[t] = [-x for x in u[t]]
            p = s[t][t]

            clean = True
            for i in range(t + 1, nr):
                q = s[i][t] // p
                if q:
                    s[i] = [x - q * y for x, y in zip(s[i], s[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                if s[i][t]:
                    clean = False
            for j in range(t + 1, nc):
                q = s[t][j] // p
                if q:
                    for row in s:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                if s[t][j]:
                    clean = False
            if not clean:
                continue

            # pivot must divide the whole trailing block; if not, fold the
            # offending row into row t and reduce again
            bad = next(
                (
                    (i, j)
                    for i in range(t + 1, nr)
                    for j in range(t + 1, nc)
                    if s[i][j] % p
                ),
                None,
            )
            if bad is None:
                break
            bi = bad[0]
            s[t] = [x + y for x, y in zip(s[t], s[bi])]
            u[t] = [x + y for x, y in zip(u[t], u[bi])]

    return _smith_form(u, s, v)


def _smith_form(u, s, v) -> SmithForm:
    # every entry is int arithmetic on the checked input's entries
    return SmithForm(*(IntMat._of(tuple(map(tuple, m))) for m in (u, s, v)))
