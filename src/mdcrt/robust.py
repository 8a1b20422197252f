"""Robust reconstruction from erroneous remainders.

Moduli share a common left factor: moduli[i] == common @ cofactors[i],
with the cofactors pairwise commuting and coprime. One kernel recovers
the folding vectors from any decomposition row @ common @ col == lam with
row and col unimodular: each remainder difference against the reference
is mapped through ``row`` and snapped to LAT(lam) with an exact CVP, one
commuting-coprime reconstruction over the moduli col^{-1} @ cofactor_i
aggregates the snapped coefficients, and back-substitution yields every
folding vector. The two variants of the paper are two decompositions:

* the lattice variant, (I, common, I), snaps r~_i - r~_ref to LAT(common);
* the smith variant, a Smith decomposition of ``common``, snaps inside
  the diagonal lattice. Because Smith transforms are not unique, the
  decomposition is injectable, and the two variants can succeed on
  disjoint error patterns.

Back-substitution is integral for every input; a violated snap condition
yields integral but wrong folding vectors. When the folding vectors are
right, averaging the per-modulus reconstructions keeps the output within
the remainder error bound.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import floor, isqrt, sqrt
from typing import Iterator, Sequence

from .crt import CcSolver
from .divisibility import commutes, is_left_coprime
from .errors import (
    ConditionViolatedError,
    EnumerationCapError,
    ShapeError,
    SingularMatrixError,
)
from .intmat import (
    IntMat,
    IntVec,
    SmithForm,
    det,
    inv_unimodular,
    is_unimodular,
    smith,
    solve_integer,
)
from .lattice import Norm, cvp, min_distance
from .residue import (
    default_enum_cap,
    folding_vector,
    in_fpd,
    mod_reduce,
    uniform_residue,
)

__all__ = [
    "RobustModuli",
    "RobustTrace",
    "ErrorModel",
    "range_contains",
    "folding_vectors_lattice",
    "folding_vectors_smith",
    "recover_folding_vectors",
    "error_bound_lattice",
    "error_bound_smith",
    "operator_norm_upper",
    "robust_reconstruct",
    "sample_in_range",
    "sample_error",
    "robustness_trials",
    "robustness_sweep",
    "default_robust_cases",
]


class RobustModuli:
    """Moduli common @ cofactors[i] with commuting, coprime cofactors.

    Validates the structure once and caches what the per-trial hot path
    needs: the weighted-sum solvers and the Smith form of the common
    factor.
    """

    def __init__(self, common: IntMat, cofactors: Sequence[IntMat]):
        cofactors = tuple(cofactors)
        if not cofactors:
            raise ShapeError("at least one cofactor required")
        if det(common) == 0:
            raise SingularMatrixError("common factor is singular")
        for g in cofactors:
            if g.shape != common.shape:
                raise ShapeError("cofactor shape differs from common factor")
            if det(g) == 0:
                raise SingularMatrixError("cofactor is singular")
        for i in range(len(cofactors)):
            for j in range(i + 1, len(cofactors)):
                if not commutes(cofactors[i], cofactors[j]):
                    raise ConditionViolatedError(
                        f"cofactors {i} and {j} do not commute"
                    )
                if not is_left_coprime(cofactors[i], cofactors[j]):
                    raise ConditionViolatedError(
                        f"cofactors {i} and {j} are not coprime"
                    )
        self.common = common
        self.cofactors = cofactors
        self._smith_solvers: dict[IntMat, CcSolver] = {}

    @property
    def dim(self) -> int:
        return self.common.rows

    def __len__(self) -> int:
        return len(self.cofactors)

    @cached_property
    def moduli(self) -> tuple[IntMat, ...]:
        return tuple(self.common @ g for g in self.cofactors)

    def cofactor_product_except(self, index: int) -> IntMat:
        acc = None
        for j, g in enumerate(self.cofactors):
            if j == index:
                continue
            acc = g if acc is None else acc @ g
        return IntMat.identity(self.dim) if acc is None else acc

    @cached_property
    def smith_form(self) -> SmithForm:
        return smith(self.common)

    def smith_solver(self, v: IntMat) -> CcSolver:
        """Solver for moduli v^{-1} @ cofactor_i, cached per v."""
        solver = self._smith_solvers.get(v)
        if solver is None:
            solver = CcSolver(list(self.cofactors), prefix=inv_unimodular(v))
            self._smith_solvers[v] = solver
        return solver


@dataclass(frozen=True)
class RobustTrace:
    """Intermediate state of one folding-vector recovery.

    ``cvp_points`` are the snapped remainder differences (zero at the
    reference), ``factor_residues`` the residues fed to the
    commuting-coprime step, ``aggregate`` its solution.
    """

    cvp_points: tuple[IntVec, ...]
    factor_residues: tuple[IntVec, ...]
    aggregate: IntVec
    folding_vectors: tuple[IntVec, ...]


@lru_cache(maxsize=None)
def _identity(dim: int) -> IntMat:
    return IntMat.identity(dim)


def _recover(
    rtilde: Sequence[IntVec],
    rm: RobustModuli,
    norm: Norm,
    u: IntMat | None,
    ref: int,
    row: IntMat,
    lam: IntMat,
    col: IntMat,
) -> RobustTrace:
    """Folding vectors through the decomposition row @ common @ col == lam.

    The snapped coefficient t_i = lam^{-1} cvp(lam, row (r~_i - r~_ref))
    equals col^{-1} (G_ref n_ref - G_i n_i) when the snap is right. The
    commuting-coprime solve over the moduli col^{-1} G_i, pinned to zero
    at ``ref``, yields x = col^{-1} G_ref n_ref, and each folding vector
    solves col^{-1} G_i n_i = x - t_i, which is integral by construction.
    """
    if len(rtilde) != len(rm):
        raise ShapeError("one erroneous remainder per modulus required")
    if not 0 <= ref < len(rm):
        raise IndexError("reference index out of range")
    tail = _identity(rm.dim) if u is None else u
    if not is_unimodular(tail):
        raise ConditionViolatedError("range transform must be unimodular")
    solver = rm.smith_solver(col)
    zero = IntVec.zero(rm.dim)
    points, coeffs, residues = [zero] * len(rm), [zero] * len(rm), [zero] * len(rm)
    for i, r in enumerate(rtilde):
        if i != ref:
            points[i] = cvp(lam, (row @ (r - rtilde[ref])).entries, norm)
            coeffs[i] = solve_integer(lam, points[i])
            assert coeffs[i] is not None
            residues[i] = mod_reduce(coeffs[i], solver.moduli[i]).value
    aggregate = solver.solve(residues, tail=tail).m
    foldings = []
    for modulus, t in zip(solver.moduli, coeffs):
        n = solve_integer(modulus, aggregate - t)
        if n is None:
            raise AssertionError("non-integral folding vector; broken invariant")
        foldings.append(n)
    return RobustTrace(
        cvp_points=tuple(points),
        factor_residues=tuple(residues),
        aggregate=aggregate,
        folding_vectors=tuple(foldings),
    )


def folding_vectors_lattice(
    rtilde: Sequence[IntVec],
    rm: RobustModuli,
    norm: Norm = Norm.L2,
    u: IntMat | None = None,
    ref: int = 0,
) -> RobustTrace:
    """Recover folding vectors by snapping differences to LAT(common).

    Steps: closest point of LAT(common) to each difference against the
    reference remainder; residues of the coefficient vectors modulo the
    cofactors; one commuting-coprime solve pinned to zero at the
    reference; back-substitution. ``ref`` re-anchors the subtraction (the
    recoverable range is the one indexed by it).
    """
    identity = _identity(rm.dim)
    return _recover(rtilde, rm, norm, u, ref, identity, rm.common, identity)


def _validated_smith(rm: RobustModuli, smith_form: SmithForm | None) -> SmithForm:
    if smith_form is None:
        return rm.smith_form
    sf = smith_form
    if not (is_unimodular(sf.u) and is_unimodular(sf.v)):
        raise ConditionViolatedError("smith transforms must be unimodular")
    if sf.u @ rm.common @ sf.v != sf.lam:
        raise ConditionViolatedError(
            "supplied decomposition does not match the common factor"
        )
    n = sf.lam.rows
    if any(sf.lam[i, j] for i in range(n) for j in range(n) if i != j):
        raise ConditionViolatedError("diagonal middle factor required")
    return sf


def folding_vectors_smith(
    rtilde: Sequence[IntVec],
    rm: RobustModuli,
    norm: Norm = Norm.L2,
    u: IntMat | None = None,
    smith_form: SmithForm | None = None,
    ref: int = 0,
) -> RobustTrace:
    """Recover folding vectors by snapping inside the Smith diagonal.

    Differences are first mapped through the row transform of a Smith
    decomposition of the common factor and snapped to the diagonal
    lattice; the commuting-coprime solve then runs over the moduli
    v^{-1} @ cofactor_i. Any valid decomposition may be supplied; the
    choice changes which error patterns are recoverable.
    """
    sf = _validated_smith(rm, smith_form)
    return _recover(rtilde, rm, norm, u, ref, sf.u, sf.lam, sf.v)


def recover_folding_vectors(
    rtilde: Sequence[IntVec],
    rm: RobustModuli,
    algorithm: int = 1,
    norm: Norm = Norm.L2,
    u: IntMat | None = None,
    smith_form: SmithForm | None = None,
    ref: int = 0,
) -> RobustTrace:
    if algorithm == 1:
        return folding_vectors_lattice(rtilde, rm, norm, u, ref)
    if algorithm == 2:
        return folding_vectors_smith(rtilde, rm, norm, u, smith_form, ref)
    raise ValueError("algorithm must be 1 or 2")


def range_contains(
    m: IntVec, rm: RobustModuli, index: int = 0, u: IntMat | None = None
) -> bool:
    """Membership of m in the recoverable range anchored at ``index``."""
    if not 0 <= index < len(rm):
        raise IndexError("modulus index out of range")
    tail = _identity(rm.dim) if u is None else u
    region = rm.cofactor_product_except(index) @ tail
    return in_fpd(folding_vector(m, rm.moduli[index]), region)


def _charpoly(a: IntMat) -> list[int]:
    """Integer characteristic polynomial coefficients c0..cn (monic)."""
    n = a.rows
    c = [0] * (n + 1)
    c[n] = 1
    mk = None
    for k in range(1, n + 1):
        mk = a if mk is None else a @ (mk + c[n - k + 1] * IntMat.identity(n))
        tr = sum(mk[i, i] for i in range(n))
        q, rem = divmod(-tr, k)
        assert rem == 0
        c[n - k] = q
    return c


def _poly_eval(coeffs: Sequence[int], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _max_eig_upper(s: IntMat, tol: Fraction = Fraction(1, 10**9)) -> Fraction:
    """Rational upper bound on the largest eigenvalue of a symmetric
    integer matrix, certified by sign conditions on the characteristic
    polynomial and all its derivatives (valid since all roots are real).
    """
    n = s.rows
    polys = [_charpoly(s)]
    while len(polys[-1]) > 2:
        p = polys[-1]
        polys.append([i * p[i] for i in range(1, len(p))])

    def above_all_roots(x: Fraction) -> bool:
        return all(_poly_eval(p, x) > 0 for p in polys)

    hi = Fraction(max(sum(abs(s[i, j]) for j in range(n)) for i in range(n)))
    while not above_all_roots(hi):
        hi += 1
    lo = Fraction(0)
    while hi - lo > tol:
        mid = (hi + lo) / 2
        if above_all_roots(mid):
            hi = mid
        else:
            lo = mid
    return hi


def operator_norm_upper(a: IntMat, norm: Norm) -> Fraction:
    """Induced operator norm; exact for L1/Linf, a certified rational
    upper bound (within 1e-9) for L2."""
    n = a.rows
    if norm is Norm.L1:
        return Fraction(max(sum(abs(a[i, j]) for i in range(n)) for j in range(n)))
    if norm is Norm.LINF:
        return Fraction(max(sum(abs(a[i, j]) for j in range(n)) for i in range(n)))
    lam_up = _max_eig_upper(a.T @ a)
    num, den = lam_up.numerator, lam_up.denominator
    return Fraction(isqrt(num * den) + 1, den)


def error_bound_lattice(rm: RobustModuli, norm: Norm = Norm.L2) -> float:
    """Remainder error bound: a quarter of the minimum distance of
    LAT(common)."""
    md = min_distance(rm.common, norm)
    if norm is Norm.L2:
        return sqrt(md) / 4.0
    return md / 4.0


def error_bound_smith(
    rm: RobustModuli,
    norm: Norm = Norm.L2,
    smith_form: SmithForm | None = None,
) -> float:
    """Remainder error bound for the smith variant: a quarter of the
    diagonal lattice's minimum distance, shrunk by the operator norm of
    the row transform."""
    sf = _validated_smith(rm, smith_form)
    md = min_distance(sf.lam, norm)
    dist = sqrt(md) if norm is Norm.L2 else float(md)
    return dist / (4.0 * float(operator_norm_upper(sf.u, norm)))


def robust_reconstruct(
    trace: RobustTrace, rtilde: Sequence[IntVec], rm: RobustModuli
) -> tuple[tuple[Fraction, ...], IntVec]:
    """Average the per-modulus reconstructions.

    Returns the exact rational average and its coordinatewise
    round-half-up companion. With correct folding vectors the error of
    the average is bounded by the remainder error bound.
    """
    count = len(rm)
    totals = [0] * rm.dim
    for i in range(count):
        est = rm.moduli[i] @ trace.folding_vectors[i] + rtilde[i]
        totals = [t + e for t, e in zip(totals, est)]
    average = tuple(Fraction(t, count) for t in totals)
    rounded = IntVec(floor(f + Fraction(1, 2)) for f in average)
    return average, rounded


@dataclass(frozen=True)
class ErrorModel:
    """Bounded remainder noise: integer vectors with magnitude <= tau."""

    tau: int | Fraction
    norm: Norm = Norm.L2

    def __post_init__(self):
        if self.tau < 0:
            raise ConditionViolatedError("error bound must be nonnegative")


@lru_cache(maxsize=256)
def _error_ball(tau: Fraction, norm: Norm, dim: int) -> tuple[IntVec, ...]:
    reach = floor(tau)
    side = 2 * reach + 1
    if side**dim > default_enum_cap():
        raise EnumerationCapError("error ball too large to enumerate")
    pts = []
    for c in itertools.product(range(-reach, reach + 1), repeat=dim):
        if norm is Norm.L2:
            ok = sum(x * x for x in c) <= tau * tau
        elif norm is Norm.L1:
            ok = sum(abs(x) for x in c) <= tau
        else:
            ok = max(abs(x) for x in c) <= tau
        if ok:
            pts.append(IntVec(c))
    return tuple(pts)


def sample_error(rng: random.Random, model: ErrorModel, dim: int) -> IntVec:
    """Uniform draw from the integer ball of radius tau."""
    ball = _error_ball(Fraction(model.tau), model.norm, dim)
    return ball[rng.randrange(len(ball))]


def sample_in_range(
    rng: random.Random, rm: RobustModuli, index: int = 0, u: IntMat | None = None
) -> IntVec:
    """Exactly uniform draw from the recoverable range anchored at index.

    The range is parametrized bijectively by a folding vector in the
    residue set of the other cofactors' product and a remainder of the
    anchored modulus; both parts are sampled uniformly by Smith digits.
    """
    if not 0 <= index < len(rm):
        raise IndexError("modulus index out of range")
    tail = _identity(rm.dim) if u is None else u
    region = rm.cofactor_product_except(index) @ tail
    n = uniform_residue(rng, region)
    r = uniform_residue(rng, rm.moduli[index])
    return rm.moduli[index] @ n + r


@dataclass(frozen=True)
class TrialRecord:
    m: IntVec
    folding_true: tuple[IntVec, ...]
    rtilde: tuple[IntVec, ...]
    trace: RobustTrace
    correct: bool
    reconstruction: tuple[Fraction, ...]


def _trial_rng(seed: int, case_index: int, tau_index: int, trial: int) -> random.Random:
    # string seeding hashes via sha512, stable across platforms and runs
    return random.Random(f"{seed}:{case_index}:{tau_index}:{trial}")


def robustness_trials(
    rm: RobustModuli,
    tau: int | Fraction,
    trials: int,
    seed: int,
    algorithm: int = 1,
    norm: Norm = Norm.L2,
    u: IntMat | None = None,
    stream: tuple[int, int] = (0, 0),
) -> Iterator[TrialRecord]:
    """Independent trials of draw / perturb / recover / reconstruct.

    Per-trial RNGs are derived from (seed, case index, tau index, trial
    index), so results do not depend on evaluation order.
    """
    model = ErrorModel(tau, norm)
    truth_cache: dict[IntVec, tuple[IntVec, ...]] = {}
    for k in range(trials):
        rng = _trial_rng(seed, stream[0], stream[1], k)
        m = sample_in_range(rng, rm, 0, u)
        folding_true = truth_cache.get(m)
        if folding_true is None:
            folding_true = tuple(folding_vector(m, mi) for mi in rm.moduli)
            truth_cache[m] = folding_true
        rtilde = tuple(
            mod_reduce(m, mi).value + sample_error(rng, model, rm.dim)
            for mi in rm.moduli
        )
        trace = recover_folding_vectors(rtilde, rm, algorithm, norm, u)
        correct = trace.folding_vectors == folding_true
        reconstruction, _ = robust_reconstruct(trace, rtilde, rm)
        yield TrialRecord(m, folding_true, rtilde, trace, correct, reconstruction)


def robustness_sweep(
    cases: Sequence[tuple[str, RobustModuli]],
    taus: Sequence[int],
    trials: int,
    seed: int,
    algorithm: int = 1,
    norm: Norm = Norm.L2,
) -> list[tuple[str, int, float, float]]:
    """Mean reconstruction error and success rate per (case, tau).

    Deterministic for a given seed under any evaluation schedule; rows
    are (case, tau, mean L2 error, success rate).
    """
    rows = []
    for ci, (name, rm) in enumerate(cases):
        for ti, tau in enumerate(taus):
            total_err = 0.0
            hits = 0
            for rec in robustness_trials(
                rm, tau, trials, seed, algorithm, norm, stream=(ci, ti)
            ):
                err2 = sum(
                    (Fraction(a) - b) ** 2
                    for a, b in zip(rec.m, rec.reconstruction)
                )
                total_err += sqrt(float(err2))
                hits += rec.correct
            rows.append((name, tau, total_err / trials, hits / trials))
    return rows


def default_robust_cases() -> list[tuple[str, RobustModuli]]:
    """The two benchmark cases: a reference common factor and its double."""
    base = IntMat([[48, 17], [8, 46]])
    cofactors = [IntMat([[1, 3], [3, 1]]), IntMat([[3, 4], [4, 3]])]
    return [
        ("base", RobustModuli(base, cofactors)),
        ("doubled", RobustModuli(2 * base, cofactors)),
    ]
