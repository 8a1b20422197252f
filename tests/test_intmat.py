import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdcrt import (
    IntMat,
    IntVec,
    ShapeError,
    SingularMatrixError,
    adjugate,
    det,
    hermite_canonical,
    inv_rational,
    inv_unimodular,
    is_unimodular,
    mod_reduce,
    smith,
    solve_integer,
)
from mdcrt.intmat import det_adjugate, exact_left_quotient
from helpers import (
    cofactor_adjugate,
    cofactor_det,
    matmul_genexpr,
    minors_gcd_invariant_factors,
    mod_reduce_floor,
    random_matrix,
    random_nonsingular,
    random_unimodular,
    run_matrix_invariants,
)


def test_value_types_validate():
    with pytest.raises(ShapeError):
        IntMat([[1, 2], [3]])
    with pytest.raises(ShapeError):
        IntVec([])
    with pytest.raises(TypeError):
        IntMat([[1.5]])


def test_det_examples():
    assert det(IntMat.identity(2)) == 1
    assert det(IntMat([[48, 17], [8, 46]])) == 2072
    # |det| of the combined modulus equals the product of factor |det|s
    m = IntMat([[4, 3], [3, 4]])
    g1 = IntMat([[4, -1], [-1, 4]])
    g2 = IntMat([[7, 4], [4, 7]])
    g3 = IntMat([[-2, 6], [6, -2]])
    r = IntMat([[402, 522], [522, 402]])
    assert m @ g1 @ g2 @ g3 == r
    assert abs(det(r)) == abs(det(m) * det(g1) * det(g2) * det(g3))
    assert det(r) == cofactor_det(r.entries)


def test_det_matches_cofactor_oracle():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n)
        assert det(a) == cofactor_det(a.entries)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(-30, 30), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.lists(
                st.lists(st.integers(-30, 30), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
        )
    )
)
def test_det_multiplicative(pair):
    a, b = IntMat(pair[0]), IntMat(pair[1])
    assert det(a @ b) == det(a) * det(b)


def test_adjugate_examples():
    assert adjugate(IntMat.identity(3)) == IntMat.identity(3)
    assert adjugate(IntMat([[2, 3], [4, 5]])) == IntMat([[5, -3], [-4, 2]])
    rank1 = IntMat([[2, 4], [1, 2]])
    assert rank1 @ adjugate(rank1) == IntMat([[0, 0], [0, 0]])


def test_adjugate_identity_random():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n)
        d = det(a)
        assert a @ adjugate(a) == d * IntMat.identity(n)


def test_is_unimodular():
    assert is_unimodular(IntMat([[2, 1], [1, 1]]))
    assert not is_unimodular(IntMat([[2, 0], [0, 2]]))
    assert is_unimodular(IntMat.identity(4))


def test_smith_already_diagonal():
    sf = smith(IntMat.diag([1, 2]))
    assert sf.lam == IntMat.diag([1, 2])
    assert sf.invariant_factors == (1, 2)


def test_smith_small_example():
    a = IntMat([[2, 3], [4, 5]])
    sf = smith(a)
    assert sf.lam == IntMat.diag([1, 2])
    assert minors_gcd_invariant_factors(a) == (1, 2)


def test_smith_rectangular_block_shape():
    # 2 x 4 concatenation reduces to (diag | 0)
    a = IntMat.hstack(IntMat([[2, 3], [4, 5]]), IntMat([[7, 0], [1, 3]]))
    sf = smith(a)
    assert sf.u @ a @ sf.v == sf.lam
    for i in range(2):
        for j in range(4):
            if i != j:
                assert sf.lam[i, j] == 0
    assert all(x > 0 for x in sf.invariant_factors)


def test_smith_zero_matrix():
    sf = smith(IntMat([[0, 0], [0, 0]]))
    assert sf.lam == IntMat([[0, 0], [0, 0]])
    assert is_unimodular(sf.u) and is_unimodular(sf.v)


def test_matrix_invariants_random():
    run_matrix_invariants(150, seed=23)


def test_smith_large_entries():
    rng = random.Random(29)
    for _ in range(40):
        a = IntMat(
            [[rng.randint(-1000, 1000) for _ in range(3)] for _ in range(3)]
        )
        sf = smith(a)
        assert is_unimodular(sf.u) and is_unimodular(sf.v)
        assert sf.u @ a @ sf.v == sf.lam
        assert sf.invariant_factors == minors_gcd_invariant_factors(a)


def test_smith_rectangular_random():
    rng = random.Random(31)
    for _ in range(60):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        a = IntMat(
            [[rng.randint(-15, 15) for _ in range(nc)] for _ in range(nr)]
        )
        sf = smith(a)
        assert is_unimodular(sf.u) and is_unimodular(sf.v)
        assert sf.u @ a @ sf.v == sf.lam
        facs = sf.invariant_factors
        for x, y in zip(facs, facs[1:]):
            assert y % x == 0
        assert facs == minors_gcd_invariant_factors(a)
        for i in range(nr):
            for j in range(nc):
                if i != j:
                    assert sf.lam[i, j] == 0


def test_smith_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors, smith_normal_form

    rng = random.Random(59)
    mats = [random_matrix(rng, rng.randint(1, 4), -15, 15) for _ in range(30)]
    for _ in range(30):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        a = IntMat([[rng.randint(-15, 15) for _ in range(nc)] for _ in range(nr)])
        col = IntMat([[rng.randint(-6, 6)] for _ in range(nr)])
        mats += [a, col @ IntMat([a.row(0).entries])]  # full and rank <= 1
    mats.append(IntMat([[0, 0], [0, 0]]))
    for a in mats:
        m = sympy.Matrix(a.entries)
        factors = tuple(int(x) for x in invariant_factors(m, domain=sympy.ZZ) if x)
        snf = smith_normal_form(m, domain=sympy.ZZ)
        diag = tuple(abs(int(snf[i, i])) for i in range(min(a.shape)) if snf[i, i])
        assert smith(a).invariant_factors == factors == diag, a


def test_inv_rational():
    ident = inv_rational(IntMat.identity(2))
    assert ident == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    diag = inv_rational(IntMat.diag([2, 4]))
    assert diag[0][0] == Fraction(1, 2) and diag[1][1] == Fraction(1, 4)
    a = IntMat([[2, 3], [4, 5]])
    inv = inv_rational(a)
    for i in range(2):
        for j in range(2):
            acc = sum(Fraction(a[i, k]) * inv[k][j] for k in range(2))
            assert acc == (1 if i == j else 0)
    with pytest.raises(SingularMatrixError):
        inv_rational(IntMat([[1, 2], [2, 4]]))


def test_inv_unimodular_and_solve():
    u = IntMat([[2, 1], [1, 1]])
    assert u @ inv_unimodular(u) == IntMat.identity(2)
    rng = random.Random(3)
    for _ in range(50):
        a = random_nonsingular(rng, 3, -9, 9)
        x = IntVec([rng.randint(-5, 5) for _ in range(3)])
        assert solve_integer(a, a @ x) == x


def _oracle_cases():
    """Square matrices that reach every branch of the one-pass kernel."""
    cases = [
        [[5]], [[0]], [[-3]],  # 1x1, including the singular one
        [[0, 1], [1, 0]],  # zero first pivot
        [[0, 2, 3], [4, 5, 6], [7, 8, 10]],
        [[1, 2, 3], [2, 4, 5], [3, 7, 9]],  # swap needed at the second pivot
        [[2, 1, 1, 0], [4, 2, 3, 1], [2, 3, 1, 1], [0, 1, 1, 5]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],  # rank n-1: nonzero adjugate
        [[0, 1], [0, 2]],  # rank n-1 with a zero first column
        [[1, 2, 0], [2, 4, 0], [0, 0, 3]],  # rank n-1, singular at a later pivot
        [[1, 2, 3], [2, 4, 6], [3, 6, 9]],  # rank 1: zero adjugate
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    ]
    rng = random.Random(71)
    for n in (6, 6, 5):
        cases.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
    for _ in range(300):
        n = rng.randint(1, 6)
        hi = 2**70 if rng.random() < 0.3 else 9
        rows = [
            [0 if rng.random() < 0.3 else rng.randint(-hi, hi) for _ in range(n)]
            for _ in range(n)
        ]
        if n > 1 and rng.random() < 0.2:
            rows[rng.randrange(n)] = list(rows[rng.randrange(n)])
        cases.append(rows)
    for _ in range(20):
        n = rng.randint(1, 6)
        cases.append([list(r) for r in random_unimodular(rng, n, 3 * n).entries])
    return cases


def test_det_adjugate_matches_cofactor_oracle():
    cases = _oracle_cases()
    assert any(abs(x) > 2**64 for rows in cases for row in rows for x in row)
    for rows in cases:
        a = IntMat(rows)
        d, adj = cofactor_det(rows), IntMat(cofactor_adjugate(rows))
        # uncached, then cached twice (a miss and a hit)
        assert (det(a), adjugate(a)) == (d, adj), rows
        assert det_adjugate(a) == (d, adj), rows
        assert det_adjugate(a) == (d, adj), rows
        if d == 0:
            with pytest.raises(SingularMatrixError):
                inv_rational(a)
        else:
            assert inv_rational(a) == tuple(
                tuple(Fraction(x, d) for x in row) for row in adj.entries
            )
        if d in (1, -1):
            assert inv_unimodular(a) == d * adj
            assert a @ inv_unimodular(a) == IntMat.identity(a.rows)
        else:
            with pytest.raises(SingularMatrixError):
                inv_unimodular(a)


def test_constructors_still_check_outside_input():
    for bad in ([True, 2], [1.0], [1, 2.5], [None]):
        with pytest.raises(TypeError):
            IntVec(bad)
        with pytest.raises(TypeError):
            IntMat([bad])
    for bad in ([], [[]], [[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ShapeError):
            IntMat(bad)
    with pytest.raises(ShapeError):
        IntVec([])
    with pytest.raises(TypeError):
        IntVec([1, 2]) + (0.5, 1)
    with pytest.raises(TypeError):
        IntVec([1, 2]) - (0.5, 1)
    with pytest.raises(TypeError):
        2.5 * IntMat([[1]])
    with pytest.raises(TypeError):
        2.5 * IntVec([1])
    with pytest.raises(TypeError):
        IntMat([[1]]) @ [1.5]
    assert IntVec([1, 2]) + (3, 4) == IntVec([4, 6])


def test_arithmetic_results_equal_checked_construction():
    """Results built unchecked equal, and hash like, the same values built
    from plain lists through the checked constructors."""
    rng = random.Random(79)
    for _ in range(60):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        hi = 2**70 if rng.random() < 0.3 else 9

        def draw(r, c):
            return [[rng.randint(-hi, hi) for _ in range(c)] for _ in range(r)]

        a, b, c = draw(n, k), draw(n, k), draw(k, n)
        x, y = draw(1, k)[0], draw(1, k)[0]
        am, bm, cm, xv, yv = IntMat(a), IntMat(b), IntMat(c), IntVec(x), IntVec(y)
        def dot(r, s):
            return sum(p * q for p, q in zip(r, s))

        pairs = [
            (am @ cm, IntMat([[dot(r, col) for col in zip(*c)] for r in a])),
            (am @ xv, IntVec([dot(r, x) for r in a])),
            (am + bm, IntMat([[p + q for p, q in zip(r, s)] for r, s in zip(a, b)])),
            (am - bm, IntMat([[p - q for p, q in zip(r, s)] for r, s in zip(a, b)])),
            (am.T, IntMat([list(col) for col in zip(*a)])),
            (-am, IntMat([[-p for p in r] for r in a])),
            (IntMat.hstack(am, bm), IntMat([r + s for r, s in zip(a, b)])),
            (xv + yv, IntVec([p + q for p, q in zip(x, y)])),
            (xv - yv, IntVec([p - q for p, q in zip(x, y)])),
            (-xv, IntVec([-p for p in x])),
        ]
        if n == k:
            pairs.append((adjugate(am), IntMat(cofactor_adjugate(a))))
        if n == k and cofactor_det(a):
            h = hermite_canonical(am)
            pairs += [
                (exact_left_quotient(am, am @ cm), IntMat(c)),
                (solve_integer(am, am @ xv), IntVec(x)),
                (mod_reduce(xv, am).value, IntVec(list(mod_reduce_floor(xv, am)))),
                (h, IntMat([list(r) for r in h.entries])),
            ]
        sf = smith(am)
        pairs += [
            (m, IntMat([list(r) for r in m.entries])) for m in (sf.u, sf.lam, sf.v)
        ]
        for got, want in pairs:
            assert got == want and hash(got) == hash(want)
            flat = got.entries if isinstance(got, IntVec) else sum(got.entries, ())
            assert all(type(e) is int for e in flat)


def test_matmul_matches_genexpr_product():
    """The map-based dot product of IntMat @ against the generator
    product, on vectors and on non-square matrices with entries up to
    2^70 of either sign."""
    rng = random.Random(71)
    big = 2**70
    for _ in range(300):
        r, k, c = (rng.randint(1, 5) for _ in range(3))
        lo, hi = rng.choice([(-9, 9), (-big, big), (-big, -big + 9)])
        a = IntMat([[rng.randint(lo, hi) for _ in range(k)] for _ in range(r)])
        b = IntMat([[rng.randint(lo, hi) for _ in range(c)] for _ in range(k)])
        x = IntVec([rng.randint(lo, hi) for _ in range(k)])
        for got, want in ((a @ b, matmul_genexpr(a, b)), (a @ x, matmul_genexpr(a, x))):
            assert got == want
            flat = got.entries if isinstance(got, IntVec) else sum(got.entries, ())
            assert all(type(e) is int for e in flat)
        with pytest.raises(ShapeError):
            a @ IntVec([1] * (k + 1))
