"""Remainder arithmetic modulo a nonsingular integer matrix.

The residue of m modulo M is the unique representative of m's class in
the integer points of the fundamental parallelepiped of LAT(M). The
production reduction path is the all-integer identity
``r = M * ((adj(M) m mod det M) / det M)``; ``folding_vector`` is the
rational floor ``n = floor(M^{-1} m)``, so that ``m == M n + r``. Python's
``%``/``//`` with a signed divisor give exactly the half-open conventions
both formulas need, so no sign fixups appear anywhere.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import lru_cache

from .errors import EnumerationCapError, SingularMatrixError
from .intmat import IntMat, IntVec, det_adjugate, inv_unimodular, smith

__all__ = [
    "Residue",
    "mod_reduce",
    "folding_vector",
    "residue_set",
    "uniform_residue",
    "in_fpd",
    "default_enum_cap",
]

_DEFAULT_CAP = 10**6


def default_enum_cap() -> int:
    """Residue/lattice enumeration cap; MDCRT_ENUM_CAP overrides."""
    raw = os.environ.get("MDCRT_ENUM_CAP")
    return int(raw) if raw else _DEFAULT_CAP


def _reduce_ctx(m: IntMat) -> tuple[int, IntMat]:
    d, adj = det_adjugate(m)
    if d == 0:
        raise SingularMatrixError("modulus is singular")
    return d, adj


@dataclass(frozen=True)
class Residue:
    """A remainder together with its modulus; value lies in N(modulus)."""

    modulus: IntMat
    value: IntVec


def mod_reduce(m: IntVec, modulus: IntMat) -> Residue:
    """Reduce m into N(modulus) using only integer arithmetic."""
    d, adj = _reduce_ctx(modulus)
    y = [e % d for e in adj @ m]
    value = []
    for row in modulus:
        num = sum(a * b for a, b in zip(row, y))
        q, rem = divmod(num, d)
        if rem:
            raise AssertionError("non-integral residue; broken invariant")
        value.append(q)
    return Residue(modulus, IntVec(value))


def folding_vector(m: IntVec, modulus: IntMat) -> IntVec:
    """Exact floor of modulus^{-1} m, so that m == modulus @ n + r."""
    d, adj = _reduce_ctx(modulus)
    return IntVec(e // d for e in adj @ m)


def in_fpd(m: IntVec, modulus: IntMat) -> bool:
    """Exact test for membership of m in the fundamental parallelepiped."""
    d, adj = _reduce_ctx(modulus)
    return all(e % d == e for e in adj @ m)


@lru_cache(maxsize=1024)
def _digit_plan(modulus: IntMat) -> tuple[IntMat, tuple[int, ...]]:
    """Unimodular map and grid sizes putting N(modulus) in bijection with
    the digit box of its Smith diagonal."""
    d, _ = _reduce_ctx(modulus)
    sf = smith(modulus)
    lambdas = sf.invariant_factors
    assert len(lambdas) == modulus.rows
    return inv_unimodular(sf.u), lambdas


def residue_set(modulus: IntMat, cap: int | None = None) -> list[IntVec]:
    """All |det| residues, enumerated through the Smith digit grid."""
    d, _ = _reduce_ctx(modulus)
    cap = default_enum_cap() if cap is None else cap
    if abs(d) > cap:
        raise EnumerationCapError(
            f"|det| = {abs(d)} exceeds enumeration cap {cap}"
        )
    u_inv, lambdas = _digit_plan(modulus)
    out = []
    for digits in itertools.product(*(range(l) for l in lambdas)):
        out.append(mod_reduce(u_inv @ IntVec(digits), modulus).value)
    return out


def uniform_residue(rng, modulus: IntMat) -> IntVec:
    """Exactly uniform draw from N(modulus) (no enumeration needed)."""
    u_inv, lambdas = _digit_plan(modulus)
    digits = IntVec(rng.randrange(l) for l in lambdas)
    return mod_reduce(u_inv @ digits, modulus).value
