"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the package's computation paths: the
cofactor determinant and adjugate are textbook recursive expansions,
invariant factors come from gcds of minors, residue enumeration scans a
box, closest and shortest lattice vectors come from sweeping the whole
coefficient box around a rational Babai seed, and the L2 operator norm
bisects on the characteristic polynomial, and the multidimensional DFT
is the direct O(|det|^2) sum over every (bin, point) pair with exactly
reduced integer phases. Four oracles reuse package primitives along a
different route: the remainder through the rational floor,
folding-vector recovery re-anchored by permuting the moduli, the gcld
divisor through the inverted Smith row transform, and the CRT cascade
through gcld certificates, solve_integer and lcrm. The slow routes that
fast paths replaced stay here too: the generator-expression matrix
product, the Fraction-rounded CVP box count, Fraction rounding and the
Fraction-sum squared error of the sweep.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from mdcrt import IntMat, IntVec


def cofactor_det(rows) -> int:
    """Recursive cofactor expansion; oracle for det()."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [
            [row[c] for c in range(n) if c != j] for row in rows[1:]
        ]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def cofactor_adjugate(rows) -> list[list[int]]:
    """Transposed cofactor matrix by cofactor_det; oracle for adjugate()."""
    n = len(rows)
    if n == 1:
        return [[1]]

    def minor(i, j):
        return [
            [x for c, x in enumerate(row) if c != j]
            for r, row in enumerate(rows) if r != i
        ]

    return [
        [(-1) ** (i + j) * cofactor_det(minor(j, i)) for j in range(n)]
        for i in range(n)
    ]


def minors_gcd_invariant_factors(a: IntMat) -> tuple[int, ...]:
    """Invariant factors via gcds of k x k minors; oracle for smith()."""
    nr, nc = a.rows, a.cols
    out = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for ri in itertools.combinations(range(nr), k):
            for ci in itertools.combinations(range(nc), k):
                sub = [[a[i, j] for j in ci] for i in ri]
                g = gcd(g, cofactor_det(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def charpoly(a: IntMat) -> list[int]:
    """Integer characteristic polynomial coefficients c0..cn (monic), by
    the Faddeev-LeVerrier recursion."""
    n = a.rows
    c = [0] * (n + 1)
    c[n] = 1
    mk = None
    for k in range(1, n + 1):
        mk = a if mk is None else a @ (mk + c[n - k + 1] * IntMat.identity(n))
        q, rem = divmod(-sum(mk[i, i] for i in range(n)), k)
        assert rem == 0
        c[n - k] = q
    return c


def charpoly_operator_norm_l2(a: IntMat, tol: Fraction = Fraction(1, 10**9)) -> Fraction:
    """Certified rational bound on the L2 operator norm of a; oracle for
    operator_norm_upper.

    Bisects for the largest eigenvalue of a.T @ a on the sign of its
    characteristic polynomial and all the derivatives: since every root
    is real, all are positive at x iff x lies above every eigenvalue.
    """
    s = a.T @ a
    n = s.rows
    polys = [charpoly(s)]
    while len(polys[-1]) > 2:
        p = polys[-1]
        polys.append([i * p[i] for i in range(1, len(p))])

    def above_all_roots(x: Fraction) -> bool:
        return all(sum(c * x**i for i, c in enumerate(p)) > 0 for p in polys)

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
    return Fraction(isqrt(hi.numerator * hi.denominator) + 1, hi.denominator)


def random_matrix(rng: random.Random, n: int, lo: int = -20, hi: int = 20) -> IntMat:
    return IntMat(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    )


def random_nonsingular(rng: random.Random, n: int, lo: int = -20, hi: int = 20) -> IntMat:
    while True:
        a = random_matrix(rng, n, lo, hi)
        if cofactor_det(a.entries) != 0:
            return a


def random_unimodular(rng: random.Random, n: int, ops: int = 8) -> IntMat:
    """Product of elementary row additions and swaps; |det| is 1."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        if rng.random() < 0.2:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            c = rng.randint(-3, 3)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return IntMat(rows)


def circulant(p: int, q: int) -> IntMat:
    return IntMat([[p, q], [q, p]])


def random_coprime_circulants(rng: random.Random, count: int, lo: int = -9, hi: int = 9):
    """Pairwise coprime nonsingular 2x2 circulants."""
    out: list[tuple[int, int]] = []
    while len(out) < count:
        p, q = rng.randint(lo, hi), rng.randint(lo, hi)
        if p == q or p == -q:
            continue
        ok = all(
            gcd(p + q, p2 + q2) == 1 and gcd(p - q, p2 - q2) == 1
            for p2, q2 in out
        )
        if ok:
            out.append((p, q))
    return [circulant(p, q) for p, q in out]


def random_vector(rng: random.Random, n: int, lo: int = -50, hi: int = 50) -> IntVec:
    return IntVec([rng.randint(lo, hi) for _ in range(n)])


def brute_force_residues(m: IntMat, reach: int = 12) -> set:
    """Distinct residues of all vectors in a box; oracle for residue_set."""
    from mdcrt import mod_reduce

    seen = set()
    for coords in itertools.product(range(-reach, reach + 1), repeat=m.rows):
        seen.add(mod_reduce(IntVec(coords), m).value)
    return seen


def mod_reduce_floor(m: IntVec, modulus: IntMat) -> IntVec:
    """Remainder via the rational-floor route m - M floor(M^{-1} m);
    cross-check oracle for mod_reduce's all-integer route."""
    from mdcrt import folding_vector

    return m - modulus @ folding_vector(m, modulus)


def _norm_value(diff, norm):
    from mdcrt import Norm

    if norm is Norm.L2:
        return sum(x * x for x in diff)
    if norm is Norm.L1:
        return sum(abs(x) for x in diff)
    return max(abs(x) for x in diff)


def _search_radius2(dist, norm, dim: int) -> Fraction:
    from mdcrt import Norm

    if norm is Norm.L2:
        return Fraction(dist)
    if norm is Norm.L1:
        return Fraction(dist) ** 2
    return dim * Fraction(dist) ** 2


def _check_box_basis(b: IntMat, max_dim: int) -> None:
    from mdcrt import EnumerationCapError, ShapeError, SingularMatrixError

    if not b.is_square:
        raise ShapeError("lattice basis must be square")
    if cofactor_det(b.entries) == 0:
        raise SingularMatrixError("lattice basis is singular")
    if b.rows > max_dim:
        raise EnumerationCapError("dimension exceeds enumeration limit")


def gram_schmidt_norms2(b: IntMat):
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


def babai_coeffs(b: IntMat, target) -> tuple[int, ...]:
    """Nearest-plane coefficients, rounding each level half up."""
    stars, norms2 = gram_schmidt_norms2(b)
    n = b.rows
    t = [Fraction(x) for x in target]
    coeffs = [0] * n
    for j in reversed(range(n)):
        mu = sum(a * c for a, c in zip(t, stars[j])) / norms2[j]
        cj = math.floor(mu + Fraction(1, 2))
        coeffs[j] = cj
        if cj:
            t = [x - cj * b[i, j] for i, x in enumerate(t)]
    return tuple(coeffs)


def _coeff_box(b: IntMat, center, radius2: Fraction, cap: int):
    """All integer coefficient vectors c with b @ c possibly within the
    L2 ball of squared radius ``radius2`` around ``center``: an
    axis-aligned box sized through the rows of the adjugate."""
    from mdcrt import EnumerationCapError, adjugate

    d = cofactor_det(b.entries)
    adj = adjugate(b)
    n = b.rows
    ranges = []
    total = 1
    for i in range(n):
        u = sum(Fraction(adj[i, j]) * center[j] for j in range(n)) / d
        s2 = sum(adj[i, j] ** 2 for j in range(n))
        x = radius2 * s2 / (d * d)
        t = Fraction(isqrt(x.numerator * x.denominator) + 1, x.denominator) if x > 0 else 0
        lo = math.ceil(u - t)
        hi = math.floor(u + t)
        ranges.append(range(lo, hi + 1))
        total *= max(hi - lo + 1, 0)
        if total > cap:
            raise EnumerationCapError(
                f"enumeration box of {total} points exceeds cap {cap}"
            )
    return itertools.product(*ranges)


def box_cvp(b: IntMat, target, norm, cap: int = 10**6, max_dim: int = 6) -> IntVec:
    """Closest point by sweeping the whole coefficient box around the
    Babai seed; ties go to the lexicographically smallest coefficient
    vector. Oracle for cvp, raising the same error classes."""
    from mdcrt import ShapeError

    _check_box_basis(b, max_dim)
    n = b.rows
    if len(target) != n:
        raise ShapeError("target dimension does not match the basis")
    t = [Fraction(x) for x in target]
    best_coeffs = babai_coeffs(b, t)

    def value(coeffs):
        return _norm_value(
            [sum(b[i, j] * coeffs[j] for j in range(n)) - t[i] for i in range(n)],
            norm,
        )

    best_val = value(best_coeffs)
    if best_val > 0:
        for coeffs in _coeff_box(b, t, _search_radius2(best_val, norm, n), cap):
            val = value(coeffs)
            if val < best_val or (val == best_val and coeffs < best_coeffs):
                best_val, best_coeffs = val, coeffs
    return b @ IntVec(best_coeffs)


def box_min_distance(b: IntMat, norm, cap: int = 10**6, max_dim: int = 6) -> int:
    """Minimum over LAT(b) minus the origin by sweeping the coefficient
    box around the origin that the shortest basis column bounds. Oracle
    for min_distance, raising the same error classes."""
    _check_box_basis(b, max_dim)
    n = b.rows
    best = min(_norm_value(b.col(j), norm) for j in range(n))
    zero = [Fraction(0)] * n
    for coeffs in _coeff_box(b, zero, _search_radius2(best, norm, n), cap):
        if any(coeffs):
            best = min(best, _norm_value(b @ IntVec(coeffs), norm))
    return best


def recover_by_reordering(rtilde, rm, algorithm, norm, u=None, ref=0):
    """Folding-vector recovery re-anchored by permutation: move ``ref`` to
    the front, recover at reference 0, restore the order. Oracle for the
    direct anchoring of recover_folding_vectors."""
    from mdcrt import RobustModuli, RobustTrace, recover_folding_vectors

    perm = [ref] + [i for i in range(len(rm)) if i != ref]
    permuted = RobustModuli(rm.common, [rm.cofactors[i] for i in perm])
    trace = recover_folding_vectors(
        [rtilde[i] for i in perm], permuted, algorithm, norm, u
    )

    def back(seq):
        return tuple(seq[perm.index(i)] for i in range(len(perm)))

    return RobustTrace(
        cvp_points=back(trace.cvp_points),
        factor_residues=back(trace.factor_residues),
        aggregate=trace.aggregate,
        folding_vectors=back(trace.folding_vectors),
    )


def gcld_by_inverse(m: IntMat, n: IntMat, canonical: bool = True):
    """gcld certificate with the divisor read as inv(u) @ lam from the
    Smith form of (m | n); oracle for gcld's Bezout combination."""
    from mdcrt import BezoutCert, hermite_canonical, inv_unimodular, smith
    from mdcrt.intmat import exact_left_quotient

    d = m.rows
    sf = smith(IntMat([list(a) + list(b) for a, b in zip(m, n)]))
    lam = IntMat([[sf.lam[i, j] for j in range(d)] for i in range(d)])
    l = inv_unimodular(sf.u) @ lam
    p = IntMat([[sf.v[i, j] for j in range(d)] for i in range(d)])
    q = IntMat([[sf.v[i + d, j] for j in range(d)] for i in range(d)])
    if canonical:
        h = hermite_canonical(l)
        w = exact_left_quotient(l, h)
        l, p, q = h, p @ w, q @ w
    return BezoutCert(l, p, q)


def cascade_crt(system, modulus=None):
    """crt_general along the route through a gcld certificate: each merge
    solves l x = r_j - r with solve_integer and takes its modulus from
    lcrm. Oracle for the merges read off one Smith form."""
    from mdcrt import (
        ConditionViolatedError,
        CrtSolution,
        InconsistentSystemError,
        gcld,
        lattices_equal,
        lcrm,
        mod_reduce,
        solve_integer,
    )

    acc_m, acc_r = system.entries[0]
    raw = acc_r
    for j, (mj, rj) in enumerate(system.entries[1:], start=1):
        cert = gcld(acc_m, mj, canonical=False)
        x = solve_integer(cert.l, rj - acc_r)
        if x is None:
            raise InconsistentSystemError(f"congruence {j}", index=j)
        raw = acc_r + acc_m @ (cert.p @ x)
        acc_m = lcrm(acc_m, mj)
        acc_r = mod_reduce(raw, acc_m).value
    if modulus is None:
        out_mod, canonical = acc_m, len(system) > 1
    elif lattices_equal(modulus, acc_m):
        out_mod, canonical = modulus, False
    else:
        raise ConditionViolatedError("modulus does not span the intersection")
    return CrtSolution(
        m=mod_reduce(acc_r, out_mod).value,
        modulus=out_mod,
        canonical=canonical,
        raw=raw,
    )


def matmul_genexpr(a: IntMat, other):
    """a @ other with each dot product as a generator of pairwise
    products; oracle for the map-based kernel of IntMat.__matmul__."""
    if isinstance(other, IntVec):
        return IntVec(sum(x * y for x, y in zip(row, other)) for row in a)
    cols = list(zip(*other.entries))
    return IntMat(
        [sum(x * y for x, y in zip(row, col)) for col in cols] for row in a
    )


def check_box_fraction(b: IntMat, tq, q: int, r2: int, cap: int) -> int:
    """The coefficient box count of lattice._check_box, with each reach
    rounded up through Fraction; returns the count. Oracle for the int
    route of _check_box, raising the same error at the same row."""
    from mdcrt import EnumerationCapError
    from mdcrt.intmat import det_adjugate

    d, adj = det_adjugate(b)
    qd = q * d
    total = 1
    for row in adj.entries:
        u = sum(x * y for x, y in zip(row, tq))
        f = Fraction(r2 * sum(x * x for x in row), qd * qd)
        t = Fraction(isqrt(f.numerator * f.denominator) + 1, f.denominator) if f else f
        den = qd * t.denominator
        centre, reach = u * t.denominator, t.numerator * abs(qd)
        if den < 0:
            den, centre = -den, -centre
        total *= (centre + reach) // den + (reach - centre) // den + 1
        if total > cap:
            raise EnumerationCapError(
                f"enumeration box of {total} points exceeds cap {cap}"
            )
    return total


def round_half_up(f: Fraction) -> int:
    """floor(f + 1/2); oracle for the integer rounding in robust_reconstruct."""
    return math.floor(f + Fraction(1, 2))


def err2_fraction(m, reconstruction) -> Fraction:
    """Squared L2 error as a sum of Fraction squares; oracle for the
    single-Fraction error of robustness_sweep."""
    return sum((Fraction(a) - b) ** 2 for a, b in zip(m, reconstruction))


class CallCounter:
    """Context manager counting calls of the given functions, however they
    were imported, through sys.setprofile. ``counts[name]`` holds the
    calls of the function under ``name``; ``IntMat.__matmul__`` calls are
    counted as "matvec" or "matmat" by the type of the right operand."""

    def __init__(self, **functions):
        self._names = {f.__code__: name for name, f in functions.items()}
        self.counts = Counter()

    def _profile(self, frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in self._names:
            self.counts[self._names[code]] += 1
        elif code is IntMat.__matmul__.__code__:
            other = frame.f_locals["other"]
            self.counts["matmat" if isinstance(other, IntMat) else "matvec"] += 1

    def __enter__(self):
        self._previous = sys.getprofile()
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(self._previous)
        return False


# ---------------------------------------------------------------------------
# invariant suites shared between the module tests (small counts) and the
# acceptance gate (full counts)


def run_matrix_invariants(count: int, seed: int) -> None:
    from mdcrt import IntMat as _IM
    from mdcrt import adjugate, det, is_unimodular, smith

    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n)
        b = random_matrix(rng, n)
        assert det(a @ b) == det(a) * det(b)
        assert a @ adjugate(a) == det(a) * _IM.identity(n)
        sf = smith(a)
        assert is_unimodular(sf.u) and is_unimodular(sf.v)
        assert sf.u @ a @ sf.v == sf.lam
        facs = sf.invariant_factors
        assert all(x > 0 for x in facs)
        for x, y in zip(facs, facs[1:]):
            assert y % x == 0
        assert facs == minors_gcd_invariant_factors(a)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert sf.lam[i, j] == 0


def run_bezout_invariants(count: int, seed: int) -> None:
    from mdcrt import gcld, left_divides

    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 3)
        m1 = random_nonsingular(rng, n, -9, 9)
        m2 = random_nonsingular(rng, n, -9, 9)
        cert = gcld(m1, m2)
        assert m1 @ cert.p + m2 @ cert.q == cert.l
        assert left_divides(cert.l, m1)
        assert left_divides(cert.l, m2)


def run_lcrm_lattice_invariants(count: int, seed: int) -> None:
    from mdcrt import det, lattice_member, lcrm

    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 3)
        m1 = random_nonsingular(rng, n, -6, 6)
        m2 = random_nonsingular(rng, n, -6, 6)
        c = lcrm(m1, m2)
        for _ in range(4):
            point = c @ random_vector(rng, n, -4, 4)
            assert lattice_member(m1, point) and lattice_member(m2, point)
        for _ in range(30):
            point = m1 @ random_vector(rng, n, -8, 8)
            if lattice_member(m2, point):
                assert lattice_member(c, point)
        sure = det(m2) * (m1 @ random_vector(rng, n, -3, 3))
        assert lattice_member(m2, sure) and lattice_member(c, sure)


def run_commuting_pair_invariants(count: int, seed: int) -> None:
    from mdcrt import (
        commutes,
        det,
        gcld,
        is_left_coprime,
        is_right_coprime,
        lattices_equal,
        lclm,
        lcrm,
    )

    rng = random.Random(seed)
    for _ in range(count):
        a, b = random_coprime_circulants(rng, 2)
        assert commutes(a, b)
        assert is_left_coprime(a, b) == is_right_coprime(a, b)
        assert abs(det(gcld(a, b).l) * det(lcrm(a, b))) == abs(det(a) * det(b))
        if is_left_coprime(a, b):
            assert lattices_equal(lcrm(a, b), a @ b)
            assert lattices_equal(lclm(a, b).T, (a @ b).T)


def run_product_coprimeness(count: int, seed: int) -> None:
    from mdcrt import is_left_coprime, is_right_coprime

    rng = random.Random(seed)
    for _ in range(count):
        n1, n2, n3 = random_coprime_circulants(rng, 3)
        assert is_right_coprime(n1 @ n2, n3)
        assert is_left_coprime(n1 @ n2, n3)


def run_left_factor_lcrm(count: int, seed: int) -> None:
    from mdcrt import lattices_equal, lcrm_list

    rng = random.Random(seed)
    for _ in range(count):
        m = random_nonsingular(rng, 2, -6, 6)
        gs = random_coprime_circulants(rng, 2)
        assert lattices_equal(lcrm_list([m @ g for g in gs]), m @ lcrm_list(gs))


def unitarity_defect(mod: IntMat) -> float:
    """Largest deviation of the DFT kernel-sum identity over probe bins."""
    import numpy as np

    from mdcrt import adjugate, det, mod_reduce, residue_set

    rng = random.Random(abs(hash(mod.entries)) % (2**31))
    d = abs(det(mod))
    points = residue_set(mod)
    n_arr = np.array([p.entries for p in points], dtype=np.int64)
    dim = mod.rows
    probes = [
        IntVec([rng.randint(-40, 40) for _ in range(dim)]) for _ in range(6)
    ]
    probes += [mod.T @ IntVec([1] * dim), IntVec([0] * dim)]
    adj = adjugate(mod)
    dd = det(mod)
    worst = 0.0
    for k in probes:
        ka = np.array((adj.T @ k).entries, dtype=np.int64)
        phases = (n_arr @ ka) % dd
        total = np.sum(np.exp(-2j * np.pi * phases / dd))
        want = d if mod_reduce(k, mod.T).value == IntVec([0] * dim) else 0.0
        worst = max(worst, abs(total - want))
    return worst


def reference_sample_signal(model, modulus: IntMat, rng=None):
    """``sample_signal`` by the direct route: a fresh tone per call, two
    ``normal(0, sigma)`` draws (real part first) and one complex add."""
    import numpy as np

    from mdcrt import ConditionViolatedError, SignalSamples, sampling_plan

    plan = sampling_plan(modulus)
    digits = plan.digits_of_bin(model.freq)
    vals = np.complex128(model.amplitude)
    for s, l in zip(digits, plan.lambdas):
        vals = np.multiply.outer(vals, np.exp(2j * np.pi * s * np.arange(l) / l))
    vals = vals.reshape(plan.shape)
    if model.sigma > 0:
        if rng is None:
            raise ConditionViolatedError("noisy synthesis needs a generator")
        noise = rng.normal(0.0, model.sigma, plan.shape) + 1j * rng.normal(
            0.0, model.sigma, plan.shape
        )
        vals = vals + noise
    return SignalSamples(plan, vals)


def reference_peak(spectrum) -> IntVec:
    """``DftSpectrum.peak`` through ``argwhere``: every bin of maximal
    magnitude, the lexicographically smallest bin vector among them."""
    import numpy as np

    mags = np.abs(spectrum.values)
    tied = [
        spectrum.plan.bin_of_digits(tuple(int(i) for i in idx))
        for idx in np.argwhere(mags == mags.max())
    ]
    return min(tied, key=lambda k: k.entries)


# ---------------------------------------------------------------------------
# the sample-point side of a SamplingPlan's digit grid and the direct DFT
# over it; the package itself only ever transforms by FFT


@lru_cache(maxsize=128)
def _point_transform(modulus: IntMat):
    """(u, u^-1) of the Smith form of modulus^T, which ``sampling_plan``
    also factors: a point n has grid digits <u n> mod the invariant
    factors."""
    from mdcrt import inv_unimodular, smith

    u = smith(modulus.T).u
    return u, inv_unimodular(u)


def point_of_digits(plan, t) -> IntVec:
    from mdcrt import mod_reduce

    u_inv = _point_transform(plan.modulus)[1]
    return mod_reduce(u_inv @ IntVec(t), plan.modulus.T).value


def digits_of_point(plan, n: IntVec) -> tuple[int, ...]:
    y = _point_transform(plan.modulus)[0] @ n
    return tuple(e % l for e, l in zip(y, plan.lambdas))


def _grid_digits(plan):
    return itertools.product(*(range(l) for l in plan.lambdas))


def sample_points(plan) -> list[IntVec]:
    """All of N(modulus^T) in grid (row-major digit) order."""
    return [point_of_digits(plan, t) for t in _grid_digits(plan)]


def bins(plan) -> list[IntVec]:
    """All of N(modulus) in grid order."""
    return [plan.bin_of_digits(s) for s in _grid_digits(plan)]


def value_at(samples, n: IntVec) -> complex:
    """The sample at point n of a ``SignalSamples`` record."""
    return complex(samples.values[digits_of_point(samples.plan, n)])


def peak_to_mean(spectrum) -> float:
    import numpy as np

    mags = np.abs(spectrum.values)
    return float(mags.max() / mags.mean())


DIRECT_DFT_CAP = 4096


def direct_dft(samples, cap: int = DIRECT_DFT_CAP):
    """X(k) = sum_n x(n) exp(-j2pi k^T M^-T n) as one kernel matrix of
    exactly reduced phases k^T adj(M^T) n mod det(M); bins in grid order.
    Oracle for ``md_dft``."""
    import numpy as np

    from mdcrt import EnumerationCapError

    plan = samples.plan
    if plan.size > cap:
        raise EnumerationCapError(
            f"direct transform of size {plan.size} exceeds cap {cap}"
        )
    d = cofactor_det(plan.modulus.entries)
    adj_t = cofactor_adjugate(plan.modulus.T.entries)
    points = sample_points(plan)
    ks = bins(plan)
    dim = plan.modulus.rows
    max_k = max(max(abs(e) for e in k) for k in ks)
    max_n = max(max(abs(e) for e in n) for n in points)
    max_adj = max(abs(e) for row in adj_t for e in row)
    # k^T adj(M^T) n stays exact in int64 when this product bound holds
    if dim * dim * max_k * max_adj * max(max_n, 1) < 2**62:
        dtype = np.int64
    else:
        dtype = object
    k_arr = np.array([k.entries for k in ks], dtype=dtype)
    n_arr = np.array([n.entries for n in points], dtype=dtype)
    adj_arr = np.array(adj_t, dtype=dtype)
    phases = k_arr.dot(adj_arr).dot(n_arr.T) % d
    kernel = np.exp(-2j * np.pi * phases.astype(np.float64) / d)
    x = samples.values.reshape(-1)
    return (kernel @ x).reshape(plan.shape)
