import itertools
import math
import random
from fractions import Fraction

import pytest

from mdcrt import (
    EnumerationCapError,
    IntMat,
    IntVec,
    Norm,
    ShapeError,
    SingularMatrixError,
    cvp,
    inv_rational,
    lattice_member,
    lattices_equal,
    lcrm,
    min_distance,
    mod_reduce,
)
from helpers import random_nonsingular, random_unimodular, random_vector

BENCH = IntMat([[48, 17], [8, 46]])


def oracle_box(b, target, radius):
    """Coefficient box guaranteed to contain all lattice points within
    ``radius`` of target (float bound with a safety margin)."""
    n = b.rows
    inv = inv_rational(b)
    center = [
        sum(float(inv[i][j]) * float(target[j]) for j in range(n))
        for i in range(n)
    ]
    ranges = []
    for i in range(n):
        row_norm = math.sqrt(sum(float(inv[i][j]) ** 2 for j in range(n)))
        reach = int(math.ceil(radius * row_norm)) + 2
        base = int(round(center[i]))
        ranges.append(range(base - reach, base + reach + 1))
    return itertools.product(*ranges)


def oracle_min_distance_sq(b):
    n = b.rows
    shortest = min(
        sum(b[i, j] ** 2 for i in range(n)) for j in range(n)
    )
    best = shortest
    for coeffs in oracle_box(b, [0] * n, math.sqrt(shortest)):
        if not any(coeffs):
            continue
        val = sum(
            sum(b[i, j] * coeffs[j] for j in range(n)) ** 2 for i in range(n)
        )
        best = min(best, val)
    return best


def test_min_distance_identity():
    assert min_distance(IntMat.identity(3)) == 1


def test_min_distance_bench_values():
    assert min_distance(BENCH) == 2368
    assert min_distance(2 * BENCH) == 9472
    assert round(math.sqrt(2368), 2) == 48.66
    assert round(math.sqrt(9472), 2) == 97.32


def test_min_distance_scaling():
    rng = random.Random(3)
    for _ in range(20):
        b = random_nonsingular(rng, 2, -9, 9)
        base = min_distance(b)
        assert min_distance(3 * b) == 9 * base


def test_min_distance_matches_oracle():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 3)
        b = random_nonsingular(rng, n, -9, 9)
        assert min_distance(b) == oracle_min_distance_sq(b)


def test_min_distance_other_norms():
    b = IntMat.diag([3, 5])
    assert min_distance(b, Norm.L1) == 3
    assert min_distance(b, Norm.LINF) == 3
    # the skewed basis contains (1, -1) = col1 - col2
    skew = IntMat([[2, 1], [1, 2]])
    assert min_distance(skew, Norm.L1) == 2
    assert min_distance(skew, Norm.LINF) == 1


def test_min_distance_dimension_guard():
    with pytest.raises(EnumerationCapError):
        min_distance(IntMat.identity(7))


def test_cvp_lattice_point_returns_itself():
    b = IntMat([[5, 1], [2, 3]])
    w = b @ IntVec([2, -1])
    assert cvp(b, w.entries) == w


def test_cvp_worked_cases():
    assert cvp(IntMat([[8, -8], [-8, 16]]), [5, -8]) == IntVec([8, -8])
    assert cvp(IntMat.diag([8, 8]), [6, 3]) == IntVec([8, 0])


def test_cvp_rational_target():
    got = cvp(IntMat.identity(2), [Fraction(3, 4), Fraction(1, 4)])
    assert got == IntVec([1, 0])


def test_cvp_tie_break_lexicographic():
    # four corners equidistant; smallest coefficient vector wins
    got = cvp(IntMat.diag([2, 2]), [1, 1])
    assert got == IntVec([0, 0])


def test_cvp_optimality_oracle():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(2, 3)
        b = random_nonsingular(rng, n, -7, 7)
        w = random_vector(rng, n, -30, 30)
        got = cvp(b, w.entries)
        got_d2 = sum((a - t) ** 2 for a, t in zip(got, w))
        radius = math.sqrt(float(got_d2)) + 1.0
        for coeffs in oracle_box(b, list(w), radius):
            point = [
                sum(b[i, j] * coeffs[j] for j in range(n)) for i in range(n)
            ]
            d2 = sum((a - t) ** 2 for a, t in zip(point, w))
            assert got_d2 <= d2


def test_cvp_half_minimum_ball():
    rng = random.Random(17)
    b = BENCH
    lam_sq = min_distance(b)
    for _ in range(50):
        v0 = b @ random_vector(rng, 2, -3, 3)
        while True:
            delta = random_vector(rng, 2, -12, 12)
            if 4 * sum(x * x for x in delta) < lam_sq:
                break
        assert cvp(b, (v0 + delta).entries) == v0


def test_cvp_other_norms_small():
    b = IntMat.diag([4, 4])
    assert cvp(b, [2, 1], Norm.L1) == IntVec([0, 0]) or cvp(
        b, [2, 1], Norm.L1
    ) == IntVec([4, 0])
    assert cvp(b, [3, 1], Norm.LINF) == IntVec([4, 0])


def test_cvp_l1_linf_match_brute_force():
    rng = random.Random(23)

    def norm_of(diff, norm):
        if norm is Norm.L1:
            return sum(abs(x) for x in diff)
        return max(abs(x) for x in diff)

    for norm in (Norm.L1, Norm.LINF):
        for _ in range(60):
            b = random_nonsingular(rng, 2, -6, 6)
            w = random_vector(rng, 2, -25, 25)
            got = cvp(b, w.entries, norm)
            got_val = norm_of([a - t for a, t in zip(got, w)], norm)
            radius = float(got_val) + 1.0
            for coeffs in oracle_box(b, list(w), radius * 2):
                point = [
                    sum(b[i, j] * coeffs[j] for j in range(2))
                    for i in range(2)
                ]
                val = norm_of([a - t for a, t in zip(point, w)], norm)
                assert got_val <= val


def test_min_distance_l1_linf_match_brute_force():
    rng = random.Random(27)

    def norm_of(v, norm):
        if norm is Norm.L1:
            return sum(abs(x) for x in v)
        return max(abs(x) for x in v)

    for norm in (Norm.L1, Norm.LINF):
        for _ in range(40):
            b = random_nonsingular(rng, 2, -6, 6)
            got = min_distance(b, norm)
            seed = min(norm_of([b[i, j] for i in range(2)], norm) for j in range(2))
            best = seed
            for coeffs in oracle_box(b, [0, 0], float(seed) * 2):
                if not any(coeffs):
                    continue
                point = [
                    sum(b[i, j] * coeffs[j] for j in range(2))
                    for i in range(2)
                ]
                best = min(best, norm_of(point, norm))
            assert got == best


def test_lattices_equal():
    b = IntMat([[5, 1], [2, 3]])
    rng = random.Random(19)
    assert lattices_equal(b, b @ random_unimodular(rng, 2))
    assert not lattices_equal(IntMat.identity(2), 2 * IntMat.identity(2))
    m = IntMat([[4, 1], [0, 3]])
    assert lattices_equal(m, lcrm(m, IntMat.identity(2)))
    singular = IntMat([[1, 2], [2, 4]])
    for b1, b2 in ((singular, b), (b, singular)):
        with pytest.raises(SingularMatrixError):
            lattices_equal(b1, b2)
    wide = IntMat([[1, 0, 0], [0, 1, 0]])
    for b1, b2 in ((wide, b), (b, wide), (IntMat.identity(3), b)):
        with pytest.raises(ShapeError):
            lattices_equal(b1, b2)


def test_lattice_member():
    b = IntMat([[5, 1], [2, 3]])
    for j in range(2):
        assert lattice_member(b, b.col(j))
    assert not lattice_member(b, IntVec([1, 0]))
    # remainder differences of a shared-factor system live in the factor lattice
    common = BENCH
    m1 = common @ IntMat([[1, 3], [3, 1]])
    m2 = common @ IntMat([[3, 4], [4, 3]])
    m = IntVec([1645, 1373])
    diff = mod_reduce(m, m2).value - mod_reduce(m, m1).value
    assert lattice_member(common, diff)
