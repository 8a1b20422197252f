"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the package's computation paths: the
cofactor determinant is a textbook recursive expansion, invariant factors
come from gcds of minors, and residue enumeration scans a box. Two
oracles reuse package primitives along a different route: the remainder
through the rational floor, and folding-vector recovery re-anchored by
permuting the moduli.
"""

from __future__ import annotations

import itertools
import random
from math import gcd

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
        gcld_equivalent,
        is_left_coprime,
        is_right_coprime,
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
            assert gcld_equivalent(lcrm(a, b), a @ b)
            assert gcld_equivalent(lclm(a, b).T, (a @ b).T)


def run_product_coprimeness(count: int, seed: int) -> None:
    from mdcrt import is_left_coprime, is_right_coprime

    rng = random.Random(seed)
    for _ in range(count):
        n1, n2, n3 = random_coprime_circulants(rng, 3)
        assert is_right_coprime(n1 @ n2, n3)
        assert is_left_coprime(n1 @ n2, n3)


def run_left_factor_lcrm(count: int, seed: int) -> None:
    from mdcrt import gcld_equivalent, lcrm_list

    rng = random.Random(seed)
    for _ in range(count):
        m = random_nonsingular(rng, 2, -6, 6)
        gs = random_coprime_circulants(rng, 2)
        assert gcld_equivalent(lcrm_list([m @ g for g in gs]), m @ lcrm_list(gs))


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
