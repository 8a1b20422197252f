"""Reconstruction of an integer vector from remainders under matrix moduli.

Two routes are provided. The general cascade merges two congruences at a
time and carries the partial solution modulo a least common right
multiple; it works for arbitrary nonsingular moduli and detects
inconsistent systems exactly. Each merge reads the gcld cofactor, the
consistency test with its quotient, and the lcrm off one Smith form of
the block (m1 | m2). For moduli built from pairwise commuting, pairwise
coprime factors there is also a closed-form weighted sum (the matrix
analogue of the classic Garner/Lagrange formula) whose weights can be
precomputed once per modulus family and reused.

A merge's Bezout certificate, the cascade's output region and the
closed form's Bezout inverses are injectable: gclds and lcrms are only
unique up to unimodular factors, so intermediate values depend on which
certificate is used, and callers replaying a worked computation can pass
the exact matrices it used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd
from operator import matmul
from typing import Sequence

from .divisibility import (
    BezoutCert,
    _block_smith,
    _intersection,
    _v_block,
    commutes,
    gcld,
    is_left_coprime,
    lcrm,
    lcrm_list,
    left_divides,
)
from .errors import (
    ConditionViolatedError,
    InconsistentSystemError,
    ShapeError,
    SingularMatrixError,
)
from .intmat import (
    IntMat,
    IntVec,
    det,
    exact_left_quotient,
    inv_unimodular,
    is_unimodular,
    solve_integer,
)
from .lattice import lattices_equal
from .residue import in_fpd, mod_reduce

__all__ = [
    "ResidueSystem",
    "CrtSolution",
    "CcSolver",
    "crt_pair",
    "crt_general",
    "crt_explicit",
    "crt_cc",
    "scalar_crt",
    "crt_diagonalized",
]


@dataclass(frozen=True)
class ResidueSystem:
    """An ordered congruence system: one (modulus, remainder) per entry."""

    entries: tuple[tuple[IntMat, IntVec], ...]

    def __post_init__(self):
        if not self.entries:
            raise ShapeError("a system needs at least one congruence")
        for modulus, remainder in self.entries:
            if not in_fpd(remainder, modulus):
                raise ConditionViolatedError(
                    "remainder is not reduced modulo its modulus"
                )

    @staticmethod
    def of(moduli: Sequence[IntMat], remainders: Sequence[IntVec]) -> "ResidueSystem":
        if len(moduli) != len(remainders):
            raise ShapeError("moduli and remainders differ in length")
        return ResidueSystem(tuple(zip(moduli, remainders)))

    @property
    def moduli(self) -> tuple[IntMat, ...]:
        return tuple(m for m, _ in self.entries)

    @property
    def remainders(self) -> tuple[IntVec, ...]:
        return tuple(r for _, r in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class CrtSolution:
    """Solution vector inside the fundamental region of ``modulus``.

    ``canonical`` records whether the region came from the canonical lcrm
    (True) or was supplied/derived some other way. ``raw`` is the value
    before the final reduction (the cascade's last merge output or the
    weighted sum), kept so worked examples can be replayed exactly.
    """

    m: IntVec
    modulus: IntMat
    canonical: bool
    raw: IntVec


def crt_pair(
    r1: IntVec,
    m1: IntMat,
    r2: IntVec,
    m2: IntMat,
    cert: BezoutCert | None = None,
) -> tuple[IntVec, IntMat]:
    """Solve a two-congruence system; returns (solution, canonical lcrm).

    The solution is r1 + m1 p (l^{-1} (r2 - r1)) for a Bezout certificate
    (l, p, q) of the pair, left unreduced. The divisibility of r2 - r1 by
    the gcld is exactly the consistency criterion; its failure raises.

    Without a certificate every quantity comes from one Smith form
    u @ (m1 | m2) @ v == (lam | 0): p is the top-left D x D block of v;
    since l == u^{-1} lam, l^{-1} (r2 - r1) is the diagonal division
    lam^{-1} u (r2 - r1), integral exactly when the system is consistent;
    and the top-right block kx of v spans the kernel's x-part, so m1 kx
    generates LAT(m1) & LAT(m2).

    A caller-provided certificate is used verbatim (intermediates depend
    on it) after checking it really certifies a gcld: the Bezout identity
    plus common left divisibility already imply greatestness. The
    quotient then comes from solve_integer and the modulus from lcrm.
    """
    if cert is None:
        d = m1.rows
        sf = _block_smith(m1, m2)
        p, kx = _v_block(sf.v, 0, 0, d), _v_block(sf.v, 0, 1, d)
        y = sf.u @ (r2 - r1)
        lam = sf.invariant_factors
        x = (
            None
            if any(e % g for e, g in zip(y, lam))
            else IntVec._of(tuple(e // g for e, g in zip(y, lam)))
        )
    else:
        if m1 @ cert.p + m2 @ cert.q != cert.l:
            raise ConditionViolatedError("certificate identity does not hold")
        if not (left_divides(cert.l, m1) and left_divides(cert.l, m2)):
            raise ConditionViolatedError(
                "certificate is not a common left divisor"
            )
        p = cert.p
        x = solve_integer(cert.l, r2 - r1)
    if x is None:
        raise InconsistentSystemError(
            "r2 - r1 is not divisible by the gcld of the moduli"
        )
    solution = r1 + (m1 @ p) @ x
    return solution, (_intersection(m1 @ kx) if cert is None else lcrm(m1, m2))


def crt_general(
    system: ResidueSystem,
    modulus: IntMat | None = None,
) -> CrtSolution:
    """Cascade reconstruction for arbitrary nonsingular moduli.

    Congruences are merged in input order, reducing after each merge; the
    final result is reduced into N(modulus). ``modulus`` must generate the
    intersection lattice of all moduli and defaults to the canonical lcrm.
    """
    entries = system.entries
    acc_m, acc_r = entries[0]
    raw = acc_r
    for j, (mj, rj) in enumerate(entries[1:], start=1):
        try:
            raw, merged = crt_pair(acc_r, acc_m, rj, mj)
        except InconsistentSystemError as exc:
            raise InconsistentSystemError(
                f"congruence {j} is inconsistent with the merge of 0..{j - 1}",
                index=j,
            ) from exc
        acc_r = mod_reduce(raw, merged).value
        acc_m = merged

    if modulus is None:
        # acc_m is the canonical lcrm after any merge; a single-entry
        # system keeps its own modulus so the remainder comes back as is
        out_mod = acc_m
        canonical = len(entries) > 1
    else:
        if not lattices_equal(modulus, acc_m):
            raise ConditionViolatedError(
                "supplied modulus does not generate the intersection lattice"
            )
        out_mod = modulus
        canonical = False
    return CrtSolution(
        m=mod_reduce(acc_r, out_mod).value,
        modulus=out_mod,
        canonical=canonical,
        raw=raw,
    )


def _bezout_inverse(w: IntMat, companion: IntMat) -> IntMat:
    """h with w @ h == I  (mod companion on the left).

    Concretely: integer h and q with w @ h + companion @ q == I, read off
    the gcld certificate of (w, companion), which must be unimodular.
    """
    cert = gcld(w, companion, canonical=False)
    if not is_unimodular(cert.l):
        raise ConditionViolatedError(
            "weight and companion modulus are not left coprime"
        )
    return cert.p @ inv_unimodular(cert.l)


class CcSolver:
    """Precomputed weighted-sum solver for one family of factor moduli.

    Checks that the ``factors`` are nonsingular, commute pairwise and are
    pairwise coprime (or, with supplied ``w_hats``, that each inverse
    satisfies its Bezout identity) and that ``prefix`` is unimodular; it
    then solves any system whose i-th modulus is prefix @ factors[i]. Its
    weights do not depend on the remainders, so one instance amortizes.
    """

    def __init__(
        self,
        factors: Sequence[IntMat],
        prefix: IntMat | None = None,
        w_hats: Sequence[IntMat] | None = None,
    ):
        factors = list(factors)
        if not factors:
            raise ShapeError("at least one factor required")
        if prefix is None:
            prefix = IntMat.identity(factors[0].rows)
        elif not is_unimodular(prefix):
            raise ConditionViolatedError("prefix must be unimodular")
        for f in factors:
            if det(f) == 0:
                raise SingularMatrixError("factor is singular")
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                if not commutes(factors[i], factors[j]):
                    raise ConditionViolatedError(
                        f"factors {i} and {j} do not commute"
                    )
        if w_hats is None:
            for i in range(len(factors)):
                for j in range(i + 1, len(factors)):
                    if not is_left_coprime(factors[i], factors[j]):
                        raise ConditionViolatedError(
                            f"factors {i} and {j} are not coprime"
                        )
        elif len(w_hats) != len(factors):
            raise ShapeError("one w_hat per factor required")
        self._build(factors, prefix, w_hats)

    def _with_prefix(self, prefix: IntMat) -> "CcSolver":
        """Solver for the moduli prefix @ factors[i] over the same factors.

        Only the new prefix is checked: the commute and coprime checks
        this instance passed at construction depend on the factors alone.
        """
        if not is_unimodular(prefix):
            raise ConditionViolatedError("prefix must be unimodular")
        solver = object.__new__(CcSolver)
        solver._build(self.factors, prefix, None)
        return solver

    def _build(
        self,
        factors: list[IntMat],
        prefix: IntMat,
        w_hats: Sequence[IntMat] | None,
    ) -> None:
        dim = prefix.rows
        self.prefix = prefix
        self.factors = factors
        self.moduli = [prefix @ f for f in factors]

        self.factor_product = reduce(matmul, factors)
        self.modulus = prefix @ self.factor_product
        # other_products[i]: the product of every factor but the i-th
        self.other_products = [
            reduce(matmul, factors[:i] + factors[i + 1 :], IntMat.identity(dim))
            for i in range(len(factors))
        ]

        if w_hats is not None:
            self.w_hats = list(w_hats)
            for i, wh in enumerate(self.w_hats):
                residual = IntMat.identity(dim) - self._weight_matrix(i) @ wh
                if exact_left_quotient(self.moduli[i], residual) is None:
                    raise ConditionViolatedError(
                        f"supplied inverse {i} fails its Bezout identity"
                    )
        else:
            self.w_hats = [
                IntMat([[0] * dim for _ in range(dim)])
                if is_unimodular(f)
                else _bezout_inverse(self._weight_matrix(i), self.moduli[i])
                for i, f in enumerate(factors)
            ]
        self.weights = [
            self._weight_matrix(i) @ self.w_hats[i]
            for i in range(len(factors))
        ]

    def _weight_matrix(self, i: int) -> IntMat:
        return self.prefix @ self.other_products[i]

    def solve(
        self, remainders: Sequence[IntVec], tail: IntMat | None = None
    ) -> CrtSolution:
        """Weighted-sum solution reduced into N(modulus @ tail)."""
        if len(remainders) != len(self.factors):
            raise ShapeError("one remainder per congruence required")
        products = [(w @ r).entries for w, r in zip(self.weights, remainders)]
        raw = IntVec._of(tuple(map(sum, zip(*products))))
        out_mod = self.modulus if tail is None else self.modulus @ tail
        return CrtSolution(
            m=mod_reduce(raw, out_mod).value,
            modulus=out_mod,
            canonical=False,
            raw=raw,
        )


def crt_explicit(
    system: ResidueSystem,
    factors: Sequence[IntMat],
    w_hats: Sequence[IntMat] | None = None,
) -> CrtSolution:
    """Closed-form reconstruction through a commuting coprime factorization.

    factors[i] must left-divide the i-th modulus, the factors must be
    pairwise commuting and coprime, and their product must generate the
    same lattice as the lcrm of the moduli; each violation is reported
    separately. The solution region is N(prod(factors)). ``w_hats``
    replaces the computed Bezout inverses; each is checked against its
    identity instead of the coprimality and lcrm checks.
    """
    factors = list(factors)
    if len(factors) != len(system):
        raise ShapeError("one factor per congruence required")
    for f, m in zip(factors, system.moduli):
        if not left_divides(f, m):
            raise ConditionViolatedError(
                "factor does not left-divide its modulus"
            )
    solver = CcSolver(factors, w_hats=w_hats)
    if w_hats is None and not lattices_equal(
        solver.factor_product, lcrm_list(system.moduli, canonical=False)
    ):
        raise ConditionViolatedError(
            "product of factors is not an lcrm of the moduli"
        )
    return solver.solve(system.remainders)


def crt_cc(system: ResidueSystem) -> CrtSolution:
    """Reconstruction for pairwise commuting, pairwise coprime moduli.

    Each modulus is its own factor of the closed-form weighted sum; the
    solution region is N(product of the moduli).
    """
    return CcSolver(system.moduli).solve(system.remainders)


def scalar_crt(congruences: Sequence[tuple[int, int]]) -> int:
    """CRT for integers with arbitrary positive moduli.

    Returns the unique solution in [0, lcm of the moduli); raises when
    some pair of congruences is contradictory. Implemented as the scalar
    cascade: merge two congruences at a time via the extended gcd.
    """
    if not congruences:
        raise ShapeError("at least one congruence required")
    a, mod = 0, 1
    for i, (r, m) in enumerate(congruences):
        if m < 1:
            raise ConditionViolatedError("scalar moduli must be positive")
        r %= m
        g = gcd(mod, m)
        if (r - a) % g:
            raise InconsistentSystemError(
                f"scalar congruence {i} is inconsistent", index=i
            )
        step = m // g
        t = ((r - a) // g * pow(mod // g, -1, step)) % step
        a += mod * t
        mod *= step
        a %= mod
    return a


def crt_diagonalized(
    system: ResidueSystem,
    u: IntMat,
    lambdas: Sequence[IntMat],
) -> CrtSolution:
    """Reconstruction for simultaneously diagonalizable moduli u lam_i v.

    The common right factor v is derived from the first modulus and
    verified against the rest. Transforming by u^{-1} decouples the
    coordinates, each of which is solved by the scalar CRT; the solution
    lives in N(u @ diag(per-coordinate lcms)).
    """
    if not is_unimodular(u):
        raise ConditionViolatedError("u must be unimodular")
    lambdas = list(lambdas)
    if len(lambdas) != len(system):
        raise ShapeError("one diagonal factor per congruence required")
    dim = u.rows
    for lam in lambdas:
        if any(lam[i, j] for i in range(dim) for j in range(dim) if i != j):
            raise ConditionViolatedError("factors must be diagonal")
        if det(lam) == 0:
            raise SingularMatrixError("diagonal factor is singular")

    v = exact_left_quotient(u @ lambdas[0], system.moduli[0])
    if v is None:
        raise ConditionViolatedError(
            "first modulus does not factor through u and its diagonal"
        )
    if not is_unimodular(v):
        raise ConditionViolatedError("derived right factor is not unimodular")
    for mi, lam in zip(system.moduli, lambdas):
        if u @ lam @ v != mi:
            raise ConditionViolatedError(
                "modulus does not match u @ lam @ v for the common u, v"
            )

    u_inv = inv_unimodular(u)
    zetas = [
        mod_reduce(u_inv @ r, lam).value
        for (_, r), lam in zip(system.entries, lambdas)
    ]
    coords = []
    lcms = []
    for j in range(dim):
        mods = [abs(lam[j, j]) for lam in lambdas]
        coords.append(scalar_crt([(z[j], m) for z, m in zip(zetas, mods)]))
        acc = 1
        for m in mods:
            acc = acc // gcd(acc, m) * m
        lcms.append(acc)
    solution = u @ IntVec(coords)
    out_mod = u @ IntMat.diag(lcms)
    return CrtSolution(
        m=solution, modulus=out_mod, canonical=False, raw=solution
    )
