import random
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

from mdcrt import (
    ConditionViolatedError,
    ErrorModel,
    IntMat,
    IntVec,
    Norm,
    RobustModuli,
    SmithForm,
    circulant2_coprime,
    cvp,
    error_bound_lattice,
    error_bound_smith,
    folding_vector,
    folding_vectors_lattice,
    folding_vectors_smith,
    inv_unimodular,
    min_distance,
    mod_reduce,
    operator_norm_upper,
    range_contains,
    recover_folding_vectors,
    residue_set,
    robust_reconstruct,
    robustness_sweep,
    robustness_trials,
    sample_error,
    sample_in_range,
)
from helpers import recover_by_reordering

BENCH = IntMat([[48, 17], [8, 46]])
COFS = [IntMat([[1, 3], [3, 1]]), IntMat([[3, 4], [4, 3]])]


def bench_case():
    return RobustModuli(BENCH, COFS)


def make_instance(rng, rm, u=None):
    m = sample_in_range(rng, rm, 0, u)
    truth = tuple(folding_vector(m, mi) for mi in rm.moduli)
    rs = [mod_reduce(m, mi).value for mi in rm.moduli]
    return m, truth, rs


def test_robust_moduli_validation():
    with pytest.raises(ConditionViolatedError):
        RobustModuli(BENCH, [COFS[0], IntMat([[2, 3], [4, 5]])])  # no commute
    with pytest.raises(ConditionViolatedError):
        RobustModuli(BENCH, [COFS[0], 2 * COFS[0]])  # not coprime


def test_range_contains():
    rm = bench_case()
    assert range_contains(IntVec([0, 0]), rm, 0)
    assert range_contains(IntVec([0, 0]), rm, 1)
    # the benchmark frequency lies in the range for both scalings
    f = IntVec([1645, 1373])
    assert range_contains(f, rm, 0)
    assert range_contains(f, RobustModuli(2 * BENCH, COFS), 0)
    # a folding vector outside the allowed residue set breaks membership
    outside = rm.moduli[0] @ IntVec([50, 50]) + IntVec([1, 1])
    assert not range_contains(outside, rm, 0)


def test_sample_in_range_always_in_range():
    rng = random.Random(3)
    rm = bench_case()
    for _ in range(200):
        m = sample_in_range(rng, rm)
        assert range_contains(m, rm, 0)


def test_sample_in_range_uniform_on_small_instance():
    rng = random.Random(5)
    rm = RobustModuli(IntMat.diag([1, 2]), COFS)
    points = [
        rm.moduli[0] @ n + r
        for n in residue_set(rm.cofactors[1])
        for r in residue_set(rm.moduli[0])
    ]
    assert len(points) == len(set(points))
    counts = Counter(sample_in_range(rng, rm) for _ in range(len(points) * 40))
    assert set(counts) == set(points)
    expect = 40.0
    for p in points:
        assert abs(counts[p] - expect) < 6 * (expect**0.5)


def test_sample_error():
    rng = random.Random(7)
    assert sample_error(rng, ErrorModel(0), 2) == IntVec([0, 0])
    pts = {sample_error(rng, ErrorModel(1), 2) for _ in range(200)}
    assert pts == {
        IntVec([0, 0]),
        IntVec([1, 0]),
        IntVec([-1, 0]),
        IntVec([0, 1]),
        IntVec([0, -1]),
    }
    for _ in range(100):
        e = sample_error(rng, ErrorModel(9), 2)
        assert sum(x * x for x in e) <= 81


def test_zero_errors_recover_exactly():
    rng = random.Random(11)
    rm = bench_case()
    for _ in range(20):
        m, truth, rs = make_instance(rng, rm)
        t1 = folding_vectors_lattice(rs, rm)
        t2 = folding_vectors_smith(rs, rm)
        assert t1.folding_vectors == truth
        assert t2.folding_vectors == truth
        exact, rounded = robust_reconstruct(t1, rs, rm)
        assert rounded == m
        assert all(f == x for f, x in zip(exact, m))


def test_pairwise_difference_under_half_minimum_succeeds():
    # sufficient condition on differences alone: under half the minimum
    # distance (24.33 for the benchmark), recovery cannot fail
    rng = random.Random(12)
    rm = bench_case()
    model = ErrorModel(24)
    for _ in range(40):
        m, truth, rs = make_instance(rng, rm)
        base_err = sample_error(rng, ErrorModel(30), 2)
        diff = sample_error(rng, model, 2)
        rtilde = [rs[0] + base_err, rs[1] + base_err + diff]
        trace = folding_vectors_lattice(rtilde, rm)
        assert trace.folding_vectors == truth


def test_reference_reindexing():
    # smallest circulant coprime to both benchmark cofactors
    p, q = next(
        (p, q)
        for p in range(1, 9)
        for q in range(p + 1, 9)
        if all(circulant2_coprime(p, q, a[0, 0], a[0, 1]) for a in COFS)
    )
    cases = [bench_case(), RobustModuli(BENCH, COFS + [IntMat([[p, q], [q, p]])])]
    tail = IntMat([[1, 1], [0, 1]])
    rng = random.Random(15)
    for rm in cases:
        for ref in range(len(rm)):
            for k in range(12):
                u = tail if k >= 6 else None
                norm = (Norm.L2, Norm.L1, Norm.LINF)[k % 3]
                m = sample_in_range(rng, rm, index=ref, u=u)
                assert range_contains(m, rm, ref, u)
                truth = tuple(folding_vector(m, mi) for mi in rm.moduli)
                tau = (0, 6, 12, 30)[k % 4]
                rtilde = [
                    mod_reduce(m, mi).value + sample_error(rng, ErrorModel(tau, norm), 2)
                    for mi in rm.moduli
                ]
                for algorithm in (1, 2):
                    trace = recover_folding_vectors(
                        rtilde, rm, algorithm, norm, u, ref=ref
                    )
                    assert trace == recover_by_reordering(
                        rtilde, rm, algorithm, norm, u, ref
                    )
                    assert trace.cvp_points[ref] == IntVec([0, 0])
                    assert trace.factor_residues[ref] == IntVec([0, 0])
                    if tau == 0:
                        assert trace.folding_vectors == truth


def test_sampler_seed_reproducibility():
    rm = bench_case()

    def draws(seed):
        rng = random.Random(seed)
        return [sample_in_range(rng, rm) for _ in range(5)]

    assert draws(101) == draws(101)
    assert draws(101) != draws(202)


def test_bounded_errors_recover_below_threshold():
    # 16 tau^2 < 2368 holds up to tau = 12
    rng = random.Random(13)
    rm = bench_case()
    model = ErrorModel(12)
    for _ in range(50):
        m, truth, rs = make_instance(rng, rm)
        rtilde = [r + sample_error(rng, model, 2) for r in rs]
        trace = folding_vectors_lattice(rtilde, rm)
        assert trace.folding_vectors == truth
        exact, _ = robust_reconstruct(trace, rtilde, rm)
        err2 = sum((Fraction(a) - b) ** 2 for a, b in zip(m, exact))
        assert err2 <= 144


def divergence_smith_form():
    u = IntMat([[2, 1], [1, 1]])
    lam = IntMat.diag([8, 8])
    return SmithForm(u=u, lam=lam, v=inv_unimodular(u))


def test_variant_divergence():
    sf = divergence_smith_form()
    common = inv_unimodular(sf.u) @ sf.lam @ sf.u
    rm = RobustModuli(common, COFS)
    rng = random.Random(17)
    m, truth, rs = make_instance(rng, rm)

    skew = IntVec([5, -8])
    rtilde = [rs[0], rs[1] + skew]
    assert folding_vectors_lattice(rtilde, rm).folding_vectors != truth
    assert (
        folding_vectors_smith(rtilde, rm, smith_form=sf).folding_vectors
        == truth
    )

    axis = IntVec([3, 0])
    rtilde = [rs[0], rs[1] + axis]
    assert folding_vectors_lattice(rtilde, rm).folding_vectors == truth
    assert (
        folding_vectors_smith(rtilde, rm, smith_form=sf).folding_vectors
        != truth
    )


def test_smith_form_validation():
    rm = bench_case()
    bad = SmithForm(
        u=IntMat.identity(2), lam=IntMat.diag([1, 1]), v=IntMat.identity(2)
    )
    with pytest.raises(ConditionViolatedError):
        folding_vectors_smith(
            [IntVec([0, 0]), IntVec([0, 0])], rm, smith_form=bad
        )


def test_snap_condition_is_exact_iff():
    """Recovery succeeds exactly when every snapped difference is the true
    one; both sides constructed explicitly."""
    rng = random.Random(19)
    rm = bench_case()
    lam_sq = min_distance(rm.common)
    small = ErrorModel(Fraction(isqrt(lam_sq // 4)))  # under lambda/2

    hold = fail = 0
    while hold < 60 or fail < 60:
        m, truth, rs = make_instance(rng, rm)
        delta = sample_error(rng, small, 2)
        if hold <= fail:
            rtilde = [rs[0], rs[1] + delta]
            expect = True
            hold += 1
        else:
            v = rm.common @ IntVec([rng.choice([-1, 1]), rng.randint(-1, 1)])
            rtilde = [rs[0], rs[1] + v + delta]
            expect = False
            fail += 1
        offset = rtilde[1] - rs[1]
        assert (cvp(rm.common, offset.entries) == IntVec([0, 0])) == expect
        trace = folding_vectors_lattice(rtilde, rm)
        assert (trace.folding_vectors == truth) == expect


def test_error_bounds():
    rm = bench_case()
    assert round(error_bound_lattice(rm), 2) == 12.17
    assert round(error_bound_lattice(RobustModuli(2 * BENCH, COFS)), 2) == 24.33
    ident = RobustModuli(IntMat.identity(2), COFS)
    assert error_bound_lattice(ident) == 0.25

    sf = divergence_smith_form()
    common = inv_unimodular(sf.u) @ sf.lam @ sf.u
    rm8 = RobustModuli(common, COFS)
    got = error_bound_smith(rm8, Norm.LINF, smith_form=sf)
    assert got == pytest.approx(2 / 3)
    assert error_bound_smith(rm8, Norm.L1, smith_form=sf) == pytest.approx(2 / 3)


def test_operator_norm_upper():
    u = IntMat([[2, 1], [1, 1]])
    assert operator_norm_upper(u, Norm.L1) == 3
    assert operator_norm_upper(u, Norm.LINF) == 3
    sigma = operator_norm_upper(u, Norm.L2)
    import numpy as np

    true = np.linalg.svd(np.array([[2, 1], [1, 1]], dtype=float))[1][0]
    assert float(sigma) >= true
    assert float(sigma) == pytest.approx(true, abs=1e-6)


def test_single_modulus_case():
    rm = RobustModuli(IntMat.diag([5, 5]), [COFS[0]])
    r = mod_reduce(IntVec([7, 9]), rm.moduli[0]).value
    trace = folding_vectors_lattice([r], rm)
    exact, rounded = robust_reconstruct(trace, [r], rm)
    assert rounded == rm.moduli[0] @ trace.folding_vectors[0] + r


def test_scalar_reduction_matches_interval_condition():
    # one-dimensional moduli: success iff |offset| < common/2, boundary avoided
    common = IntMat([[10]])
    rm = RobustModuli(common, [IntMat([[3]]), IntMat([[7]])])
    rng = random.Random(29)
    for _ in range(100):
        m, truth, rs = make_instance(rng, rm)
        offset = rng.choice([-7, -4, -3, -2, -1, 0, 1, 2, 3, 4, 6, 8])
        if abs(offset) == 5:
            continue
        rtilde = [rs[0], rs[1] + IntVec([offset])]
        trace = folding_vectors_lattice(rtilde, rm)
        assert (trace.folding_vectors == truth) == (abs(offset) < 5)


def test_smith_variant_conditions():
    rm = bench_case()
    sf = rm.smith_form
    rng = random.Random(31)
    lam_min_sq = min_distance(sf.lam)
    hold = fail = 0
    while hold < 40 or fail < 40:
        m, truth, rs = make_instance(rng, rm)
        if hold <= fail:
            # u-image of the offset must snap to zero: offset in
            # v-direction scaled below half the diagonal minimum
            b = rng.randint(-(isqrt(lam_min_sq) // 2), isqrt(lam_min_sq) // 2)
            target = IntVec([0, b]) if sf.lam[0, 0] == 1 else IntVec([0, 0])
            offset = inv_unimodular(sf.u) @ target
            expect = (
                cvp(sf.lam, (sf.u @ offset).entries) == IntVec([0, 0])
            )
            hold += 1
        else:
            offset = IntVec([rng.randint(1, 3), rng.randint(-2, 2)])
            expect = (
                cvp(sf.lam, (sf.u @ offset).entries) == IntVec([0, 0])
            )
            fail += 1
        rtilde = [rs[0], rs[1] + offset]
        trace = folding_vectors_smith(rtilde, rm)
        assert (trace.folding_vectors == truth) == expect


def test_smith_variant_error_bound_sufficient():
    # a common factor whose diagonal form is large and whose row transform
    # is mild, so the smith-variant bound admits nontrivial error radii
    rm = RobustModuli(IntMat([[50, 0], [50, 100]]), COFS)
    sf = rm.smith_form
    lam_sq = min_distance(sf.lam)
    sigma = operator_norm_upper(sf.u, Norm.L2)
    tau = 0
    while 16 * (tau + 1) ** 2 * sigma**2 < lam_sq:
        tau += 1
    assert tau >= 5
    rng = random.Random(43)
    model = ErrorModel(tau)
    for _ in range(40):
        m, truth, rs = make_instance(rng, rm)
        rtilde = [r + sample_error(rng, model, 2) for r in rs]
        trace = folding_vectors_smith(rtilde, rm)
        assert trace.folding_vectors == truth


def test_both_variants_agree_when_both_succeed():
    # offsets small both directly and under the row transform, so the two
    # variants must both succeed and hence agree
    sf = divergence_smith_form()
    common = inv_unimodular(sf.u) @ sf.lam @ sf.u
    rm = RobustModuli(common, COFS)
    rng = random.Random(37)
    for offset in (IntVec([1, -1]), IntVec([1, -2]), IntVec([-1, 2]), IntVec([2, -3])):
        assert cvp(rm.common, offset.entries) == IntVec([0, 0])
        assert cvp(sf.lam, (sf.u @ offset).entries) == IntVec([0, 0])
        for _ in range(10):
            m, truth, rs = make_instance(rng, rm)
            rtilde = [rs[0], rs[1] + offset]
            t1 = folding_vectors_lattice(rtilde, rm)
            t2 = folding_vectors_smith(rtilde, rm, smith_form=sf)
            assert t1.folding_vectors == truth
            assert t2.folding_vectors == truth
            assert t1.folding_vectors == t2.folding_vectors


def test_three_cofactor_recovery():
    # [[1,2],[2,1]] completes a pairwise commuting, coprime triple
    rm = RobustModuli(BENCH, COFS + [IntMat([[1, 2], [2, 1]])])
    rng = random.Random(47)
    model = ErrorModel(12)
    for _ in range(25):
        m, truth, rs = make_instance(rng, rm)
        rtilde = [r + sample_error(rng, model, 2) for r in rs]
        t1 = folding_vectors_lattice(rtilde, rm)
        assert t1.folding_vectors == truth
        exact, _ = robust_reconstruct(t1, rtilde, rm)
        err2 = sum((Fraction(a) - b) ** 2 for a, b in zip(m, exact))
        assert err2 <= 144
    # an offset inside the third modulus's own lattice spoils only that
    # folding vector; the other congruences still resolve correctly
    m, truth, rs = make_instance(rng, rm)
    big = rm.moduli[2] @ IntVec([1, 0])
    rtilde = [rs[0], rs[1], rs[2] + big + sample_error(rng, model, 2)]
    trace = folding_vectors_lattice(rtilde, rm)
    assert trace.folding_vectors != truth
    assert trace.folding_vectors[0] == truth[0]
    assert trace.folding_vectors[1] == truth[1]
    assert trace.folding_vectors[2] != truth[2]


def test_robustness_sweep_deterministic():
    cases = [("bench", bench_case())]
    a = robustness_sweep(cases, [0, 8], 40, seed=99)
    b = robustness_sweep(cases, [0, 8], 40, seed=99)
    assert a == b
    assert a[0] == ("bench", 0, 0.0, 1.0)


def test_robustness_sweep_fails_above_bound():
    # error radius 30 is well past the 12.17 threshold; failures must show
    cases = [("bench", bench_case())]
    rows = robustness_sweep(cases, [30], 120, seed=7)
    _, _, mean_err, rate = rows[0]
    assert rate < 1.0
    assert mean_err > 30.0


def test_robustness_trials_error_bounded_on_success():
    rm = bench_case()
    for rec in robustness_trials(rm, 12, 60, seed=4):
        assert rec.correct
        err2 = sum(
            (Fraction(a) - b) ** 2 for a, b in zip(rec.m, rec.reconstruction)
        )
        assert err2 <= 144
