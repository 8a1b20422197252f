import random
from collections import Counter

import pytest

from mdcrt import (
    EnumerationCapError,
    IntMat,
    IntVec,
    SingularMatrixError,
    det,
    folding_vector,
    in_fpd,
    mod_reduce,
    residue_set,
    uniform_residue,
)
from helpers import (
    brute_force_residues,
    mod_reduce_floor,
    random_nonsingular,
    random_vector,
)

M_I = IntMat([[4, 3], [3, 4]])
M_II = IntMat([[2, 3], [4, 5]])
G1 = IntMat([[4, -1], [-1, 4]])
G2 = IntMat([[7, 4], [4, 7]])


def test_mod_reduce_worked_values():
    m1 = M_I @ G1
    assert mod_reduce(IntVec([328, 288]), m1).value == IntVec([14, 14])
    m2 = M_II @ G2
    assert mod_reduce(IntVec([285, 505]), m2).value == IntVec([27, 49])
    assert mod_reduce(IntVec([0, 0]), m1).value == IntVec([0, 0])


def test_mod_reduce_rejects_singular():
    with pytest.raises(SingularMatrixError):
        mod_reduce(IntVec([1, 2]), IntMat([[1, 2], [2, 4]]))


def test_folding_vector():
    m1 = M_I @ G1
    r = mod_reduce(IntVec([5, 3]), m1).value
    assert folding_vector(r, m1) == IntVec([0, 0])
    m = IntVec([328, 288])
    n = folding_vector(m, m1)
    assert m1 @ n + mod_reduce(m, m1).value == m
    # scalar case
    assert folding_vector(IntVec([7]), IntMat([[3]])) == IntVec([2])


def test_residue_set_diagonal():
    got = residue_set(IntMat.diag([2, 3]))
    assert sorted(v.entries for v in got) == [
        (x, y) for x in range(2) for y in range(3)
    ]


def test_residue_set_circulant():
    m = IntMat([[1, 3], [3, 1]])
    got = residue_set(m)
    assert len(got) == 8
    assert len(set(got)) == 8
    assert all(in_fpd(v, m) for v in got)
    assert set(got) == brute_force_residues(m)


def test_residue_set_unimodular():
    assert residue_set(IntMat([[2, 1], [1, 1]])) == [IntVec([0, 0])]


def test_residue_set_cap():
    with pytest.raises(EnumerationCapError):
        residue_set(IntMat.diag([100, 100]), cap=50)


def test_enum_cap_env_override(monkeypatch):
    monkeypatch.setenv("MDCRT_ENUM_CAP", "10")
    with pytest.raises(EnumerationCapError):
        residue_set(IntMat.diag([4, 5]))
    monkeypatch.setenv("MDCRT_ENUM_CAP", "100")
    assert len(residue_set(IntMat.diag([4, 5]))) == 20


def test_in_fpd():
    r = IntMat([[402, 522], [522, 402]])
    assert in_fpd(IntVec([0, 0]), r)
    assert in_fpd(IntVec([328, 288]), r)
    for j in range(2):
        assert not in_fpd(r.col(j), r)


def test_round_trip_and_floor_agreement():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 3)
        mod = random_nonsingular(rng, n, -9, 9)
        m = random_vector(rng, n, -200, 200)
        r = mod_reduce(m, mod).value
        f = folding_vector(m, mod)
        assert mod @ f + r == m
        assert in_fpd(r, mod)
        assert mod_reduce_floor(m, mod) == r


def test_partition_property():
    m = IntMat([[3, 1], [1, 3]])
    size = abs(det(m))
    reps = set(residue_set(m))
    counts = Counter()
    reach = 12
    for x in range(-reach, reach + 1):
        for y in range(-reach, reach + 1):
            r = mod_reduce(IntVec([x, y]), m).value
            assert r in reps
            counts[r] += 1
    total = (2 * reach + 1) ** 2
    for rep in reps:
        assert abs(counts[rep] - total / size) < 2 * reach + 2


def test_diagonal_reduces_coordinatewise():
    rng = random.Random(37)
    mod = IntMat.diag([5, 9, 4])
    for _ in range(100):
        m = random_vector(rng, 3, -100, 100)
        r = mod_reduce(m, mod).value
        assert r == IntVec([m[0] % 5, m[1] % 9, m[2] % 4])


def test_uniform_residue_hits_all_classes():
    rng = random.Random(41)
    m = IntMat([[1, 3], [3, 1]])
    reps = set(residue_set(m))
    seen = Counter(uniform_residue(rng, m) for _ in range(4000))
    assert set(seen) == reps
    for rep in reps:
        assert 350 < seen[rep] < 650
