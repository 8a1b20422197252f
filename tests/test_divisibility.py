import random
from math import gcd, lcm

import pytest

from mdcrt import (
    ConditionViolatedError,
    IntMat,
    SingularMatrixError,
    circulant2_coprime,
    commutes,
    det,
    gcld,
    gcrd,
    hermite_canonical,
    is_left_coprime,
    is_right_coprime,
    is_unimodular,
    lattices_equal,
    lclm,
    lcrm,
    lcrm_list,
    left_divides,
)
from mdcrt import divisibility, intmat
from helpers import (
    CallCounter,
    gcld_by_inverse,
    random_nonsingular,
    random_unimodular,
    run_bezout_invariants,
    run_commuting_pair_invariants,
    run_lcrm_lattice_invariants,
    run_left_factor_lcrm,
    run_product_coprimeness,
)

M_II = IntMat([[2, 3], [4, 5]])
G1 = IntMat([[4, -1], [-1, 4]])
G2 = IntMat([[7, 4], [4, 7]])
G3 = IntMat([[-2, 6], [6, -2]])


def test_hermite_canonical_shape():
    rng = random.Random(1)
    for _ in range(100):
        a = random_nonsingular(rng, rng.randint(1, 4), -9, 9)
        h = hermite_canonical(a)
        n = a.rows
        for i in range(n):
            assert h[i, i] > 0
            for j in range(i + 1, n):
                assert h[i, j] == 0
            for j in range(i):
                assert 0 <= h[i, j] < h[i, i]
        assert lattices_equal(h, a)
        assert hermite_canonical(h) == h


def test_hermite_canonical_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form, invariant_factors

    def same_lattice(x, y):
        q = x.inv() * y
        return all(e.is_integer for e in q) and abs(q.det()) == 1

    rng = random.Random(61)
    for _ in range(80):
        a = random_nonsingular(rng, rng.randint(1, 4), -9, 9)
        h = sympy.Matrix(hermite_canonical(a).entries)
        ref = hermite_normal_form(sympy.Matrix(a.entries))
        assert same_lattice(ref, h) and same_lattice(sympy.Matrix(a.entries), h), a
        assert invariant_factors(h, domain=sympy.ZZ) == invariant_factors(
            ref, domain=sympy.ZZ
        )


def test_gcld_identity_pair():
    cert = gcld(IntMat.identity(2), IntMat.identity(2))
    assert is_unimodular(cert.l)


def test_gcld_worked_pair():
    m1, m2 = M_II @ G1, M_II @ G2
    cert = gcld(m1, m2)
    assert m1 @ cert.p + m2 @ cert.q == cert.l
    assert lattices_equal(cert.l, M_II)
    # published cofactors are one admissible certificate for the raw gcld
    p1 = IntMat([[3, 11], [1, 4]])
    p2 = IntMat([[-2, -8], [1, 4]])
    assert m1 @ p1 + m2 @ p2 == M_II


def test_gcld_scalar_coprime_diagonals():
    cert = gcld(2 * IntMat.identity(2), 3 * IntMat.identity(2))
    assert is_unimodular(cert.l)
    # per-coordinate extended gcd: 2x + 3y = 1 is solvable
    assert gcd(2, 3) == 1


def test_gcld_rejects_singular():
    with pytest.raises(SingularMatrixError):
        gcld(IntMat([[1, 2], [2, 4]]), IntMat.identity(2))


@pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "raw"])
def test_gcld_matches_inverse_oracle(canonical):
    """The divisor m @ p + n @ q equals inv(u) @ lam of the same Smith
    form, so l, p and q all agree with the oracle that inverts u."""
    rng = random.Random(89)
    for _ in range(80):
        n = rng.randint(1, 4)
        left = random_nonsingular(rng, n, -3, 3) if rng.random() < 0.5 else IntMat.identity(n)
        m1 = left @ random_nonsingular(rng, n, -6, 6)
        m2 = m1 if rng.random() < 0.1 else left @ random_nonsingular(rng, n, -6, 6)
        assert gcld(m1, m2, canonical=canonical) == gcld_by_inverse(m1, m2, canonical)


def test_gcrd_examples():
    assert is_unimodular(gcrd(IntMat.identity(2), IntMat.identity(2)).l)
    cert = gcrd(IntMat.diag([4, 6]), IntMat.diag([6, 4]))
    assert abs(det(cert.l)) == gcd(4, 6) * gcd(6, 4)
    assert cert.p @ IntMat.diag([4, 6]) + cert.q @ IntMat.diag([6, 4]) == cert.l
    assert is_unimodular(gcrd(G1, G2).l)


def test_lcrm_examples():
    m = M_II
    assert lattices_equal(lcrm(m, IntMat.identity(2)), m)
    assert lattices_equal(lcrm(m @ G1, m @ G2), m @ G1 @ G2)
    got = lcrm(IntMat.diag([4, 6]), IntMat.diag([6, 4]))
    assert lattices_equal(got, IntMat.diag([lcm(4, 6), lcm(6, 4)]))


def test_lclm_examples():
    def lclm_equivalent(a, b):
        return lattices_equal(a.T, b.T)

    assert lclm_equivalent(lclm(IntMat.identity(2), M_II), M_II)
    assert lclm_equivalent(
        lclm(IntMat.diag([4, 6]), IntMat.diag([6, 4])), IntMat.diag([12, 12])
    )
    # transpose duals of the lcrm examples
    assert lclm_equivalent(
        lclm((M_II @ G1).T, (M_II @ G2).T), (M_II @ G1 @ G2).T
    )
    # commuting coprime pair: the product is both an lcrm and an lclm
    assert lclm_equivalent(lclm(G1, G2), G1 @ G2)
    assert lattices_equal(lcrm(G1, G2), G1 @ G2)


def test_lcrm_list_examples():
    single = lcrm_list([M_II])
    assert lattices_equal(single, M_II)
    m_i = IntMat([[4, 3], [3, 4]])
    mods_i = [m_i @ G1, m_i @ G2, m_i @ G3]
    assert lattices_equal(lcrm_list(mods_i), IntMat([[402, 522], [522, 402]]))
    mods_ii = [M_II @ G1, M_II @ G2, M_II @ G3]
    assert lattices_equal(lcrm_list(mods_ii), IntMat([[390, 270], [654, 534]]))


def test_coprimeness_predicates():
    assert is_left_coprime(G1, G2) and is_right_coprime(G1, G2)
    assert not is_left_coprime(M_II, M_II)
    assert not is_left_coprime(2 * IntMat.identity(2), 4 * IntMat.identity(2))


def test_commutes():
    assert commutes(G1, G2)
    assert not commutes(M_II, G1)
    assert M_II @ G1 != G1 @ M_II
    assert commutes(IntMat.identity(2), M_II)


def test_circulant2_coprime():
    assert circulant2_coprime(4, -1, 7, 4)
    assert circulant2_coprime(1, 3, 3, 4)
    assert not circulant2_coprime(2, 0, 4, 0)
    with pytest.raises(ConditionViolatedError):
        circulant2_coprime(2, 2, 1, 0)


def test_gcld_equivalent():
    b = IntMat([[5, 1], [2, 3]])
    assert lattices_equal(b, b)
    assert lattices_equal(b, b @ IntMat([[1, 1], [0, 1]]))
    assert not lattices_equal(IntMat.identity(2), 2 * IntMat.identity(2))


def test_bezout_invariants_random():
    run_bezout_invariants(120, seed=7)


def test_lcrm_lattice_invariants_random():
    run_lcrm_lattice_invariants(60, seed=9)


def test_commuting_pair_invariants_random():
    run_commuting_pair_invariants(80, seed=13)


def test_product_coprimeness_random():
    run_product_coprimeness(60, seed=17)


def test_left_factor_lcrm_random():
    run_left_factor_lcrm(60, seed=19)


def test_gcrd_certificate_invariants_random():
    rng = random.Random(25)
    for _ in range(100):
        n = rng.randint(2, 3)
        m1 = random_nonsingular(rng, n, -9, 9)
        m2 = random_nonsingular(rng, n, -9, 9)
        cert = gcrd(m1, m2)
        assert cert.p @ m1 + cert.q @ m2 == cert.l
        # right divisibility of both inputs
        assert left_divides(cert.l.T, m1.T)
        assert left_divides(cert.l.T, m2.T)


def test_unimodular_factors_do_not_change_results():
    rng = random.Random(21)
    for _ in range(25):
        a = random_nonsingular(rng, 2, -8, 8)
        w = random_unimodular(rng, 2)
        assert lattices_equal(a, a @ w)
        assert hermite_canonical(a) == hermite_canonical(a @ w)


def test_hermite_core_matches_hermite_canonical():
    """The unchecked Hermite core that the lcrm intersection calls equals
    the checked public form on nonsingular matrices of dimension 1 to 4."""
    rng = random.Random(89)
    for _ in range(200):
        a = random_nonsingular(rng, rng.randint(1, 4))
        assert divisibility._hermite(a) == hermite_canonical(a)


def test_lcrm_takes_one_det_per_intersection():
    """lcrm checks the determinants of its two inputs and of the
    intersection basis, each once."""
    m, n = IntMat([[4, 1], [0, 3]]), IntMat([[2, 1], [1, 5]])
    lcrm(m, n)
    with CallCounter(det=intmat.det) as calls:
        lcrm(m, n)
    assert calls.counts["det"] == 3
