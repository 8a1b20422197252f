import random
from types import ModuleType

import pytest

import mdcrt
from mdcrt import (
    BezoutCert,
    ConditionViolatedError,
    InconsistentSystemError,
    IntMat,
    IntVec,
    MdcrtError,
    ResidueSystem,
    crt_cc,
    crt_diagonalized,
    crt_explicit,
    crt_general,
    crt_pair,
    det,
    gcld,
    inv_unimodular,
    lattice_member,
    lattices_equal,
    lcrm_list,
    mod_reduce,
    residue_set,
    scalar_crt,
    solve_integer,
    uniform_residue,
)
from helpers import (
    cascade_crt,
    random_coprime_circulants,
    random_nonsingular,
    random_unimodular,
    random_vector,
)

M_I = IntMat([[4, 3], [3, 4]])
M_II = IntMat([[2, 3], [4, 5]])
G1 = IntMat([[4, -1], [-1, 4]])
G2 = IntMat([[7, 4], [4, 7]])
G3 = IntMat([[-2, 6], [6, -2]])


def _system_for(common, m):
    mods = [common @ G1, common @ G2, common @ G3]
    return ResidueSystem.of(mods, [mod_reduce(m, x).value for x in mods])


def test_crt_pair_worked_cascade():
    m1, m2, m3 = M_II @ G1, M_II @ G2, M_II @ G3
    r1 = IntVec([5, 9])
    r2 = IntVec([27, 49])
    r3 = IntVec([3, 7])
    cert1 = BezoutCert(M_II, IntMat([[3, 11], [1, 4]]), IntMat([[-2, -8], [1, 4]]))
    sol1, _ = crt_pair(r1, m1, r2, m2, cert=cert1)
    assert sol1 == IntVec([510, 994])
    assert mod_reduce(sol1, m1).value == r1
    assert mod_reduce(sol1, m2).value == r2

    r_12 = M_II @ G1 @ G2
    nu1 = mod_reduce(sol1, r_12).value
    assert nu1 == IntVec([30, 52])

    cert2 = BezoutCert(M_II, IntMat([[8, -21], [-7, 18]]), IntMat([[10, -24], [-18, 49]]))
    sol2, _ = crt_pair(nu1, r_12, r3, m3, cert=cert2)
    assert sol2 == IntVec([-375, 1429])
    final = mod_reduce(sol2, M_II @ G1 @ G2 @ G3).value
    assert final == IntVec([285, 505])


def test_crt_pair_identical_moduli():
    r = mod_reduce(IntVec([9, 4]), M_II).value
    sol, merged = crt_pair(r, M_II, r, M_II)
    assert mod_reduce(sol, M_II).value == r
    assert lattices_equal(merged, M_II)


def test_crt_pair_random_consistency():
    rng = random.Random(43)
    for _ in range(60):
        m1 = random_nonsingular(rng, 2, -8, 8)
        m2 = random_nonsingular(rng, 2, -8, 8)
        m = IntVec([rng.randint(-400, 400), rng.randint(-400, 400)])
        r1 = mod_reduce(m, m1).value
        r2 = mod_reduce(m, m2).value
        sol, merged = crt_pair(r1, m1, r2, m2)
        assert mod_reduce(sol, m1).value == r1
        assert mod_reduce(sol, m2).value == r2
        assert lattice_member(merged, sol - mod_reduce(m, merged).value)


def test_crt_pair_detects_inconsistency():
    # shared non-unimodular left factor forces a divisibility constraint
    m1, m2 = M_II @ G1, M_II @ G2
    r1 = mod_reduce(IntVec([285, 505]), m1).value
    r2 = mod_reduce(IntVec([285, 505]), m2).value
    cert = gcld(m1, m2, canonical=False)
    bad = None
    for delta in ([1, 0], [0, 1], [1, 1], [2, 1]):
        cand = r2 + IntVec(delta)
        if solve_integer(cert.l, cand - r1) is None:
            bad = cand
            break
    assert bad is not None
    with pytest.raises(InconsistentSystemError):
        crt_pair(r1, m1, bad, m2)


def test_crt_pair_rejects_bogus_certificate():
    m1, m2 = M_II @ G1, M_II @ G2
    r1 = mod_reduce(IntVec([285, 505]), m1).value
    r2 = mod_reduce(IntVec([285, 505]), m2).value
    broken = BezoutCert(M_II, IntMat.identity(2), IntMat.identity(2))
    with pytest.raises(ConditionViolatedError):
        crt_pair(r1, m1, r2, m2, cert=broken)
    # identity holds but the "divisor" does not divide the moduli
    not_divisor = BezoutCert(
        m1 @ IntMat.identity(2) + m2 @ IntMat.identity(2),
        IntMat.identity(2),
        IntMat.identity(2),
    )
    with pytest.raises(ConditionViolatedError):
        crt_pair(r1, m1, r2, m2, cert=not_divisor)


def _outcome(fn):
    """fn()'s value, or the class of the domain error it raised."""
    try:
        return fn()
    except MdcrtError as exc:
        return type(exc)


def _random_moduli(rng, n, count):
    """count moduli of dimension n: random, sharing a left factor,
    identical or unimodular."""
    kind = rng.choice(["random", "shared", "identical", "unimodular"])
    if kind == "unimodular":
        return [random_unimodular(rng, n) if rng.random() < 0.7
                else random_nonsingular(rng, n, -5, 5) for _ in range(count)]
    left = IntMat.identity(n) if kind == "random" else random_nonsingular(rng, n, -3, 3)
    mods = [left @ random_nonsingular(rng, n, -4, 4) for _ in range(count)]
    return [mods[0]] * count if kind == "identical" else mods


def _remainders(rng, mods):
    """Remainders of one vector, or (one time in two) of independent ones,
    which are inconsistent whenever the moduli share a proper divisor."""
    m = random_vector(rng, mods[0].rows, -10**4, 10**4)
    independent = rng.random() < 0.5
    return [
        mod_reduce(random_vector(rng, x.rows, -10**4, 10**4) if independent else m, x).value
        for x in mods
    ]


def test_crt_pair_smith_route_matches_certified_route():
    """Without a certificate, crt_pair reads the cofactor, the quotient and
    the lcrm off one Smith form; with the raw gcld certificate it runs
    solve_integer and lcrm. Both give the same solution and modulus, or
    raise the same error."""
    rng = random.Random(97)
    seen = set()
    for _ in range(240):
        n = rng.randint(1, 4)
        m1, m2 = _random_moduli(rng, n, 2)
        r1, r2 = _remainders(rng, [m1, m2])
        fast = _outcome(lambda: crt_pair(r1, m1, r2, m2))
        cert = gcld(m1, m2, canonical=False)
        slow = _outcome(lambda: crt_pair(r1, m1, r2, m2, cert=cert))
        assert fast == slow
        seen.add(fast if isinstance(fast, type) else "solved")
    assert seen == {"solved", InconsistentSystemError}


def test_crt_general_matches_cascade_oracle():
    """crt_general agrees with the cascade through gcld certificates on
    solution, modulus, raw value, canonical flag and offending index."""
    rng = random.Random(101)
    seen = set()
    for _ in range(160):
        n = rng.randint(1, 4)
        mods = _random_moduli(rng, n, rng.randint(1, 4))
        sys_ = ResidueSystem.of(mods, _remainders(rng, mods))
        modulus = None
        if rng.random() < 0.3:
            modulus = (
                IntMat.identity(n)
                if rng.random() < 0.3
                else lcrm_list(mods) @ random_unimodular(rng, n)
            )
        try:
            want = cascade_crt(sys_, modulus)
        except MdcrtError as exc:
            with pytest.raises(type(exc)) as got:
                crt_general(sys_, modulus)
            assert getattr(got.value, "index", None) == getattr(exc, "index", None)
            seen.add(type(exc))
            continue
        sol = crt_general(sys_, modulus)
        assert (sol.m, sol.modulus, sol.raw, sol.canonical) == (
            want.m, want.modulus, want.raw, want.canonical
        )
        seen.add("solved")
    assert seen == {"solved", InconsistentSystemError, ConditionViolatedError}


def test_crt_general_merges_with_one_smith_form_each(monkeypatch):
    """A consistent three-congruence cascade makes one Smith form per merge
    and no gcld, lcrm or solve_integer call."""
    sys_ = _system_for(M_II, IntVec([285, 505]))
    calls = dict.fromkeys(["smith", "gcld", "lcrm", "solve_integer"], 0)
    modules = [m for m in vars(mdcrt).values() if isinstance(m, ModuleType)]
    for name in calls:
        orig = getattr(mdcrt, name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
    sol = crt_general(sys_)
    assert sol.m == mod_reduce(IntVec([285, 505]), sol.modulus).value
    assert calls == {"smith": 2, "gcld": 0, "lcrm": 0, "solve_integer": 0}


def test_crt_general_scalar_case_matches_scalar_solver():
    rng = random.Random(79)
    for _ in range(40):
        a, b = rng.randint(2, 20), rng.randint(2, 20)
        m = rng.randrange(a * b)
        sys_ = ResidueSystem.of(
            [IntMat([[a]]), IntMat([[b]])],
            [IntVec([m % a]), IntVec([m % b])],
        )
        sol = crt_general(sys_)
        want = scalar_crt([(m % a, a), (m % b, b)])
        assert sol.m[0] % (det(sol.modulus)) == want % det(sol.modulus)
        assert sol.m[0] == want


def test_crt_diagonalized_negative_diagonals():
    u = IntMat([[1, 1], [0, 1]])
    lam1, lam2 = IntMat.diag([-3, 5]), IntMat.diag([4, -7])
    mods = [u @ lam1, u @ lam2]
    rng = random.Random(83)
    big = u @ IntMat.diag([12, 35])
    for _ in range(20):
        m = uniform_residue(rng, big)
        sys_ = ResidueSystem.of(mods, [mod_reduce(m, x).value for x in mods])
        sol = crt_diagonalized(sys_, u, [lam1, lam2])
        assert sol.m == m


def test_crt_general_worked_examples():
    sys_i = _system_for(M_I, IntVec([328, 288]))
    sol = crt_general(sys_i, modulus=IntMat([[402, 522], [522, 402]]))
    assert sol.m == IntVec([328, 288])

    sys_ii = _system_for(M_II, IntVec([285, 505]))
    sol = crt_general(sys_ii, modulus=IntMat([[390, 270], [654, 534]]))
    assert sol.m == IntVec([285, 505])


def test_crt_general_single_entry():
    r = mod_reduce(IntVec([7, 5]), M_II).value
    sol = crt_general(ResidueSystem.of([M_II], [r]))
    assert sol.m == r
    assert sol.modulus == M_II


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("supplied", [False, True], ids=["lcrm", "supplied"])
def test_crt_general_raw_and_canonical(count, supplied):
    """``raw`` is the last merge's unreduced value (the remainder itself
    for one congruence); ``canonical`` holds only for a merged system
    reduced modulo the canonical lcrm."""
    full = _system_for(M_II, IntVec([285, 505]))
    sys_ = ResidueSystem(full.entries[:count])
    modulus = lcrm_list(sys_.moduli) @ IntMat([[1, 1], [0, 1]]) if supplied else None
    sol = crt_general(sys_, modulus=modulus)

    acc_m, acc_r = sys_.entries[0]
    raw = acc_r
    for mj, rj in sys_.entries[1:]:
        raw, acc_m = crt_pair(acc_r, acc_m, rj, mj)
        acc_r = mod_reduce(raw, acc_m).value
    assert sol.raw == raw
    assert sol.canonical is (count > 1 and not supplied)
    assert sol.m == mod_reduce(raw, sol.modulus).value


def test_crt_general_order_invariance():
    sys_ = _system_for(M_II, IntVec([285, 505]))
    forward = crt_general(sys_)
    backward = crt_general(ResidueSystem(tuple(reversed(sys_.entries))))
    assert forward.m == backward.m
    assert forward.modulus == backward.modulus


def test_crt_general_reports_offending_index():
    m1, m2 = M_II @ G1, M_II @ G2
    r1 = mod_reduce(IntVec([285, 505]), m1).value
    cert = gcld(m1, m2, canonical=False)
    r2 = mod_reduce(IntVec([285, 505]), m2).value
    for delta in ([1, 0], [0, 1], [1, 1], [2, 1]):
        cand = r2 + IntVec(delta)
        if solve_integer(cert.l, cand - r1) is None:
            r2 = cand
            break
    bad = mod_reduce(r2, m2).value
    assert solve_integer(cert.l, bad - r1) is None
    with pytest.raises(InconsistentSystemError) as err:
        crt_general(ResidueSystem.of([m1, m2], [r1, bad]))
    assert err.value.index == 1


def test_crt_general_validates_modulus():
    sys_ = _system_for(M_II, IntVec([285, 505]))
    with pytest.raises(ConditionViolatedError):
        crt_general(sys_, modulus=IntMat.identity(2))


def test_crt_explicit_single():
    r = mod_reduce(IntVec([3, 8]), G1).value
    sol = crt_explicit(ResidueSystem.of([G1], [r]), [G1])
    assert sol.m == r


def test_crt_explicit_matches_general_on_random_triples():
    rng = random.Random(47)
    for _ in range(25):
        gs = random_coprime_circulants(rng, 3)
        r_prod = gs[0] @ gs[1] @ gs[2]
        m = uniform_residue(rng, r_prod)
        sys_ = ResidueSystem.of(gs, [mod_reduce(m, g).value for g in gs])
        exp = crt_explicit(sys_, gs)
        gen = crt_general(sys_, modulus=r_prod)
        assert exp.m == gen.m == mod_reduce(m, r_prod).value


def test_crt_explicit_unimodular_factor_contributes_nothing():
    # a unimodular factor pins nothing (its residues are all zero), so its
    # weight is the zero matrix and the other congruences determine m
    unim = IntMat([[2, 1], [1, 1]])
    moduli = [unim, G1]
    rng = random.Random(77)
    for _ in range(20):
        m = uniform_residue(rng, G1)
        sys_ = ResidueSystem.of(
            moduli, [mod_reduce(m, unim).value, mod_reduce(m, G1).value]
        )
        sol = crt_explicit(sys_, [IntMat.identity(2), G1])
        assert mod_reduce(sol.m, G1).value == mod_reduce(m, G1).value
        assert lattices_equal(sol.modulus, G1)


def test_crt_explicit_validates_preconditions():
    sys_ = _system_for(M_II, IntVec([285, 505]))
    with pytest.raises(ConditionViolatedError):
        crt_explicit(sys_, [M_II, G2, G3])  # M_II does not commute
    gs = [M_II @ G1, G2, 2 * G3]
    with pytest.raises(ConditionViolatedError):
        crt_explicit(sys_, gs)  # 2*G3 does not left-divide M_II @ G3
    bad_cop = ResidueSystem.of(
        [2 * IntMat.identity(2), 4 * IntMat.identity(2)],
        [IntVec([0, 0]), IntVec([0, 0])],
    )
    with pytest.raises(ConditionViolatedError):
        crt_explicit(bad_cop, [2 * IntMat.identity(2), 4 * IntMat.identity(2)])


def test_crt_cc_diagonal_matches_scalar():
    rng = random.Random(53)
    mods = [IntMat.diag([3, 5]), IntMat.diag([4, 7])]
    for _ in range(40):
        m = IntVec([rng.randrange(12), rng.randrange(35)])
        sys_ = ResidueSystem.of(mods, [mod_reduce(m, x).value for x in mods])
        sol = crt_cc(sys_)
        for j, (a, b) in enumerate([(3, 4), (5, 7)]):
            want = scalar_crt([(m[j] % a, a), (m[j] % b, b)])
            assert sol.m[j] == want


def test_crt_cc_single_modulus():
    r = mod_reduce(IntVec([5, -2]), G1).value
    sol = crt_cc(ResidueSystem.of([G1], [r]))
    assert sol.m == r
    assert lattices_equal(sol.modulus, G1)


def test_crt_cc_matches_general():
    rng = random.Random(59)
    for _ in range(20):
        gs = random_coprime_circulants(rng, 3)
        r_prod = gs[0] @ gs[1] @ gs[2]
        m = uniform_residue(rng, r_prod)
        sys_ = ResidueSystem.of(gs, [mod_reduce(m, g).value for g in gs])
        assert crt_cc(sys_).m == crt_general(sys_, modulus=r_prod).m


def test_crt_cc_four_factor_systems():
    rng = random.Random(89)
    for _ in range(10):
        gs = random_coprime_circulants(rng, 4, lo=-5, hi=5)
        r_prod = gs[0] @ gs[1] @ gs[2] @ gs[3]
        m = uniform_residue(rng, r_prod)
        sys_ = ResidueSystem.of(gs, [mod_reduce(m, g).value for g in gs])
        assert crt_cc(sys_).m == mod_reduce(m, r_prod).value
        assert crt_general(sys_, modulus=r_prod).m == mod_reduce(m, r_prod).value


def test_scalar_crt():
    assert scalar_crt([(2, 3), (3, 5)]) == 8
    assert [x for x in range(15) if x % 3 == 2 and x % 5 == 3] == [8]
    assert scalar_crt([(1, 4), (3, 6)]) == 9
    assert [x for x in range(12) if x % 4 == 1 and x % 6 == 3] == [9]
    assert scalar_crt([(0, 1), (5, 7)]) == 5
    with pytest.raises(InconsistentSystemError):
        scalar_crt([(1, 4), (2, 6)])
    with pytest.raises(ConditionViolatedError):
        scalar_crt([(1, 0)])


def test_crt_diagonalized_identical_factors():
    u = IntMat([[2, 1], [1, 1]])
    lam = IntMat.diag([4, 6])
    mods = [u @ lam @ IntMat.identity(2)] * 2
    m = u @ IntVec([3, 5])
    sys_ = ResidueSystem.of(mods, [mod_reduce(m, x).value for x in mods])
    sol = crt_diagonalized(sys_, u, [lam, lam])
    assert mod_reduce(m, sol.modulus).value == sol.m


def test_crt_diagonalized_round_trip():
    rng = random.Random(61)
    u = IntMat([[2, 1], [1, 1]])
    lam1, lam2 = IntMat.diag([2, 3]), IntMat.diag([3, 2])
    for _ in range(40):
        mods = [u @ lam1, u @ lam2]
        big = u @ IntMat.diag([6, 6])
        m = uniform_residue(rng, big)
        sys_ = ResidueSystem.of(mods, [mod_reduce(m, x).value for x in mods])
        sol = crt_diagonalized(sys_, u, [lam1, lam2])
        assert sol.m == m
        assert lattices_equal(sol.modulus, big)


def test_crt_diagonalized_agrees_with_cc():
    rng = random.Random(67)
    u = IntMat([[3, 2], [1, 1]])
    u_inv = inv_unimodular(u)
    lam1, lam2 = IntMat.diag([3, 5]), IntMat.diag([4, 7])
    mods = [u @ lam1 @ u_inv, u @ lam2 @ u_inv]
    for _ in range(20):
        big = u @ IntMat.diag([12, 35]) @ u_inv
        m = uniform_residue(rng, big)
        sys_ = ResidueSystem.of(mods, [mod_reduce(m, x).value for x in mods])
        diag = crt_diagonalized(sys_, u, [lam1, lam2])
        cc = crt_cc(sys_)
        assert lattices_equal(diag.modulus, cc.modulus)
        assert mod_reduce(diag.m, cc.modulus).value == cc.m


def test_solution_reduces_to_every_remainder():
    rng = random.Random(71)
    for _ in range(30):
        mods = [random_nonsingular(rng, 2, -6, 6) for _ in range(3)]
        m = IntVec([rng.randint(-500, 500), rng.randint(-500, 500)])
        sys_ = ResidueSystem.of(mods, [mod_reduce(m, x).value for x in mods])
        sol = crt_general(sys_)
        for mod, r in sys_.entries:
            assert mod_reduce(sol.m, mod).value == r


def test_uniqueness_small_exhaustive():
    rng = random.Random(73)
    done = 0
    while done < 3:
        m1 = random_nonsingular(rng, 2, -4, 4)
        m2 = random_nonsingular(rng, 2, -4, 4)
        r = lcrm_list([m1, m2])
        if abs(det(r)) > 400:
            continue
        done += 1
        for m in residue_set(r):
            sys_ = ResidueSystem.of(
                [m1, m2], [mod_reduce(m, m1).value, mod_reduce(m, m2).value]
            )
            assert crt_general(sys_, modulus=r).m == m
