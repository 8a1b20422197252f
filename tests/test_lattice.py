import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from mdcrt import lattice
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
    smith,
)
from helpers import (
    babai_coeffs,
    box_cvp,
    box_min_distance,
    check_box_fraction,
    gram_schmidt_norms2,
    random_nonsingular,
    random_unimodular,
    random_vector,
)

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


def outcome(f, *args, **kwargs):
    """The result of a call, or the class of the exception it raised."""
    try:
        return f(*args, **kwargs)
    except Exception as exc:  # compared by class against the oracle
        return type(exc)


def differential_targets(rng, b):
    """A rational target, a lattice point, a point half a basis column
    off one, and an all-half-integer target."""
    n = b.rows
    point = b @ random_vector(rng, n, -3, 3)
    j = rng.randrange(n)
    return [
        [Fraction(rng.randint(-40, 40), rng.randint(1, 4)) for _ in range(n)],
        list(point),
        [point[i] + Fraction(b[i, j], 2) for i in range(n)],
        [Fraction(2 * rng.randint(-20, 20) + 1, 2) for _ in range(n)],
    ]


@pytest.mark.parametrize("norm", list(Norm))
def test_sphere_decoding_matches_box_oracle(norm):
    rng = random.Random({"l1": 31, "l2": 37, "linf": 41}[norm.value])
    raised = 0
    for trial in range(150):
        n = rng.randint(1, 4)
        if trial % 3 == 0:  # diagonal bases: exact ties in every norm
            b = IntMat.diag([rng.choice([1, 2, 2, 3, 4, 6]) for _ in range(n)])
        else:
            b = random_nonsingular(rng, n, -6, 6)
        cap = rng.choice([50, 500, 3000])
        for t in differential_targets(rng, b):
            got = outcome(cvp, b, t, norm, cap=cap)
            assert got == outcome(box_cvp, b, t, norm, cap=cap), (b, t, cap)
            raised += got is EnumerationCapError
        got = outcome(min_distance, b, norm, cap=cap)
        assert got == outcome(box_min_distance, b, norm, cap=cap), (b, cap)
    assert raised > 0
    bad_inputs = [
        (IntMat([[1, 2], [2, 4]]), [1, 1]),
        (IntMat([[1, 0, 0], [0, 1, 0]]), [1, 1]),
        (IntMat.identity(7), [1] * 7),
        (IntMat.identity(2), [1, 2, 3]),
    ]
    for b, t in bad_inputs:
        want = outcome(box_cvp, b, t, norm)
        assert isinstance(want, type) and outcome(cvp, b, t, norm) is want
    for b, _ in bad_inputs[:3]:
        want = outcome(box_min_distance, b, norm)
        assert isinstance(want, type) and outcome(min_distance, b, norm) is want


def test_min_distance_returns_int():
    rng = random.Random(43)
    bases = [BENCH, 2 * BENCH, smith(BENCH).lam, IntMat.diag([3, 5])]
    bases += [random_nonsingular(rng, rng.randint(1, 4), -6, 6) for _ in range(10)]
    for b in bases:
        for norm in Norm:
            assert type(min_distance(b, norm)) is int, (b, norm)


def test_enum_cap_trips_as_before_on_bench_pair(monkeypatch):
    monkeypatch.setenv("MDCRT_ENUM_CAP", "60")
    rng = random.Random(47)
    bases = [BENCH, 2 * BENCH, smith(BENCH).lam, smith(2 * BENCH).lam]
    seen = set()
    for b in bases:
        for norm in Norm:
            want = outcome(box_min_distance, b, norm, cap=60)
            assert outcome(min_distance, b, norm) == want
            for _ in range(25):
                t = [rng.randint(-3000, 3000), Fraction(rng.randint(-9000, 9000), 3)]
                got = outcome(cvp, b, t, norm)
                assert got == outcome(box_cvp, b, t, norm, cap=60), (b, t, norm)
                seen.add(got is EnumerationCapError)
    assert seen == {True, False}


def test_certificate_skips_search_only_inside_certified_ball(monkeypatch):
    calls = []
    search = lattice._sphere_decode

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(lattice, "_sphere_decode", counting)
    rng = random.Random(53)
    skew = IntMat([[9, 7], [1, 1]])  # Babai is often not optimal here
    inside = outside = 0
    for b in (BENCH, smith(BENCH).lam, skew):
        gmin = min(gram_schmidt_norms2(b)[1])
        n = b.rows
        for norm in Norm:
            for _ in range(60):
                v0 = b @ random_vector(rng, n, -3, 3)
                t = [x + rng.randint(-30, 30) for x in v0]
                seed = babai_coeffs(b, t)
                seed_point = b @ IntVec(seed)
                diff = [p - x for p, x in zip(seed_point, t)]
                if norm is Norm.L2:
                    r2 = sum(x * x for x in diff)
                elif norm is Norm.L1:
                    r2 = sum(abs(x) for x in diff) ** 2
                else:
                    r2 = n * max(abs(x) for x in diff) ** 2
                calls.clear()
                got = cvp(b, t, norm)
                if r2 == 0:
                    assert got == seed_point and not calls
                elif 4 * r2 < gmin:
                    inside += 1
                    assert got == seed_point and not calls, (b, t, norm)
                    assert got == box_cvp(b, t, norm)
                else:
                    outside += 1
                    assert len(calls) == 1, (b, t, norm)
                    assert got == box_cvp(b, t, norm)
    assert inside > 50 and outside > 50
    # on the boundary 4 r2 == gmin the search runs and finds the tie
    calls.clear()
    assert babai_coeffs(IntMat.diag([2, 2]), [1, 0]) == (1, 0)
    assert cvp(IntMat.diag([2, 2]), [1, 0]) == IntVec([0, 0])
    assert len(calls) == 1


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


def _scaled_target(rng, n, rational):
    """(tq, q) with tq / q a random int or Fraction target."""
    if not rational:
        return [rng.randint(-300, 300) for _ in range(n)], 1
    t = [Fraction(rng.randint(-300, 300), rng.randint(1, 12)) for _ in range(n)]
    q = math.lcm(*(x.denominator for x in t))
    return [x.numerator * (q // x.denominator) for x in t], q


@pytest.mark.parametrize("norm", list(Norm), ids=lambda n: n.value)
def test_check_box_matches_fraction_route(norm):
    """The int-rounded box count of _check_box against the Fraction
    route: the same count (it passes at that cap and
    raises just below it) and the same message at the same row."""
    rng = random.Random(73)
    for trial in range(150):
        n = rng.randint(1, 4)
        b = random_nonsingular(rng, n, -12, 12)
        tq, q = _scaled_target(rng, n, rational=trial % 2 == 1)
        gs = lattice._gram_schmidt(b)
        coeffs = lattice._babai(gs, tq, q)
        val = lattice._norm_value(lattice._scaled_diff(b, coeffs, tq, q), norm)
        # a radius at least the seed's holds a lattice point, so no range
        # of the box is empty and the running count never falls
        seed_r2 = lattice._search_radius2(val, norm, n)
        for r2 in (seed_r2, seed_r2 + rng.randint(0, 10**6)):
            total = check_box_fraction(b, tq, q, r2, math.inf)
            lattice._check_box(b, tq, q, r2, total)
            with pytest.raises(EnumerationCapError) as want:
                check_box_fraction(b, tq, q, r2, total - 1)
            with pytest.raises(EnumerationCapError) as got:
                lattice._check_box(b, tq, q, r2, total - 1)
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("norm", list(Norm), ids=lambda n: n.value)
def test_cvp_int_target_matches_fraction_target(norm):
    """The int-target route of cvp (denominator 1, no Fraction) against
    the Fraction route on the same target; numpy ints take the Fraction
    route and agree too."""
    def outcome(b, t):
        try:
            return cvp(b, t, norm)
        except EnumerationCapError as exc:  # both routes size the same box
            return str(exc)

    rng = random.Random(79)
    for _ in range(150):
        n = rng.randint(1, 4)
        b = random_nonsingular(rng, n, -12, 12)
        t = [rng.randint(-500, 500) for _ in range(n)]
        got = outcome(b, t)
        assert got == outcome(b, [Fraction(x) for x in t])
        assert got == outcome(b, np.array(t, dtype=np.int64))
        if isinstance(got, IntVec):
            assert all(type(e) is int for e in got)
