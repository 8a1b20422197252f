import math
import random

import numpy as np
import pytest

from mdcrt import (
    IntMat,
    IntVec,
    SignalModel,
    default_sweep_cases,
    det,
    detect_remainder,
    estimate_frequency,
    folding_vector,
    md_dft,
    mod_reduce,
    residue_set,
    sample_in_range,
    sample_signal,
    sampling_plan,
    snr_sweep,
)
from mdcrt import ConditionViolatedError, freqest
from helpers import (
    bins,
    digits_of_point,
    direct_dft,
    peak_to_mean,
    point_of_digits,
    random_nonsingular,
    reference_peak,
    reference_sample_signal,
    sample_points,
    unitarity_defect,
    value_at,
)

SMALL = IntMat([[5, 1], [2, 7]])  # |det| = 33


def test_plan_bijections():
    plan = sampling_plan(SMALL)
    points = sample_points(plan)
    assert len(points) == plan.size == 33
    assert len(set(points)) == 33
    ks = bins(plan)
    assert len(set(ks)) == 33
    for s, k in zip(
        [(0,) * len(plan.lambdas)], [ks[0]]
    ):
        assert plan.bin_of_digits(s) == k
    for n in points[:5]:
        assert point_of_digits(plan, digits_of_point(plan, n)) == n


def test_constant_signal_cases():
    model = SignalModel(IntVec([0, 0]), amplitude=2.5 + 0j)
    samples = sample_signal(model, SMALL)
    assert np.allclose(samples.values, 2.5)
    # an aliased-to-zero frequency also yields a constant record
    f = SMALL @ IntVec([3, -2])
    samples = sample_signal(SignalModel(f), SMALL)
    assert np.allclose(samples.values, 1.0)


def test_samples_depend_only_on_remainder():
    f1 = IntVec([12, 91])
    f2 = f1 + SMALL @ IntVec([4, -7])
    s1 = sample_signal(SignalModel(f1), SMALL)
    s2 = sample_signal(SignalModel(f2), SMALL)
    assert np.array_equal(s1.values, s2.values)


def test_value_at_matches_definition():
    f = IntVec([7, 3])
    samples = sample_signal(SignalModel(f), SMALL)
    d = det(SMALL)
    adj_t = [[7, -2], [-1, 5]]  # adjugate of SMALL transpose
    for n in sample_points(samples.plan)[:10]:
        num = sum(f[i] * sum(adj_t[i][j] * n[j] for j in range(2)) for i in range(2))
        want = complex(
            math.cos(2 * math.pi * (num % d) / d),
            math.sin(2 * math.pi * (num % d) / d),
        )
        assert value_at(samples, n) == pytest.approx(want, abs=1e-9)


def test_dft_peak_noiseless():
    f = IntVec([12, 91])
    spec = md_dft(sample_signal(SignalModel(f, amplitude=1.5), SMALL))
    r = mod_reduce(f, SMALL).value
    assert spec.magnitude(r) == pytest.approx(1.5 * 33, rel=1e-12)
    for k in residue_set(SMALL):
        if k != r:
            assert spec.magnitude(k) <= 1e-6 * 1.5 * 33
    assert detect_remainder(spec) == r


def test_dft_all_ones():
    spec = md_dft(sample_signal(SignalModel(IntVec([0, 0])), SMALL))
    assert spec.magnitude(IntVec([0, 0])) == pytest.approx(33.0)
    total = np.sum(np.abs(spec.values) ** 2)
    assert total == pytest.approx(33.0**2)


def test_parseval():
    rng = np.random.default_rng(5)
    model = SignalModel(IntVec([12, 91]), amplitude=0.7 + 0.2j, sigma=1.0)
    samples = sample_signal(model, SMALL, rng)
    spec = md_dft(samples)
    lhs = np.sum(np.abs(samples.values) ** 2) * 33
    rhs = np.sum(np.abs(spec.values) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_direct_vs_separable():
    rng = np.random.default_rng(7)
    for mod in (SMALL, IntMat([[6, 1], [-2, 9]]), IntMat([[4, 1], [1, 4]])):
        model = SignalModel(IntVec([31, -17]), amplitude=1.1 - 0.4j, sigma=0.5)
        samples = sample_signal(model, mod, rng)
        direct = direct_dft(samples)
        fast = md_dft(samples, method="separable").values
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(direct - fast)) <= 1e-6 * scale


def test_md_dft_fft_is_the_only_route():
    rng = np.random.default_rng(37)
    model = SignalModel(IntVec([31, -17]), amplitude=1.1 - 0.4j, sigma=0.5)
    for mod in (SMALL, _default_moduli()[2]):
        samples = sample_signal(model, mod, rng)
        default = md_dft(samples).values
        named = md_dft(samples, method="separable").values
        assert default.tobytes() == named.tobytes()
        with pytest.raises(ValueError):
            md_dft(samples, method="direct")


def test_unitarity_small_sample():
    rng = random.Random(13)
    done = 0
    while done < 10:
        mod = random_nonsingular(rng, 2, -9, 9)
        if abs(det(mod)) > 500:
            continue
        assert unitarity_defect(mod) <= 1e-9 * abs(det(mod))
        done += 1


def test_detection_probability_high_snr():
    mod = IntMat([[20, 1], [2, 21]])  # |det| = 418
    f = IntVec([123, 456])
    r = mod_reduce(f, mod).value
    sigma = math.sqrt(10.0 / 2.0)  # -10 dB at unit amplitude
    hits = 0
    trials = 200
    for k in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([17, k]))
        spec = md_dft(
            sample_signal(SignalModel(f, sigma=sigma), mod, rng),
            method="separable",
        )
        hits += detect_remainder(spec) == r
    assert hits / trials >= 0.99


def test_pure_noise_flagged_by_peak_to_mean():
    rng = np.random.default_rng(19)
    noise_only = md_dft(
        sample_signal(SignalModel(IntVec([5, 5]), amplitude=0, sigma=1.0), SMALL, rng),
        method="separable",
    )
    signal = md_dft(sample_signal(SignalModel(IntVec([5, 5])), SMALL))
    assert peak_to_mean(signal) > 5 * peak_to_mean(noise_only)


def test_estimate_frequency_noiseless():
    f, cases = default_sweep_cases()
    for _, rm in cases:
        spectra = [
            md_dft(sample_signal(SignalModel(f), mi), method="separable")
            for mi in rm.moduli
        ]
        est = estimate_frequency(spectra, rm)
        assert est.freq == f
        assert est.remainders == tuple(
            mod_reduce(f, mi).value for mi in rm.moduli
        )
        truth = tuple(folding_vector(f, mi) for mi in rm.moduli)
        assert est.trace.folding_vectors == truth


def test_noiseless_round_trip_random_frequencies():
    rng = random.Random(23)
    _, cases = default_sweep_cases()
    _, rm = cases[0]
    for _ in range(10):
        f = sample_in_range(rng, rm)
        spectra = [
            md_dft(sample_signal(SignalModel(f), mi), method="separable")
            for mi in rm.moduli
        ]
        est = estimate_frequency(spectra, rm)
        assert est.freq == f


def test_snr_sweep_deterministic():
    f = IntVec([1645, 1373])
    _, cases = default_sweep_cases()
    one = snr_sweep(f, cases[:1], [-20.0], trials=5, seed=3)
    two = snr_sweep(f, cases[:1], [-20.0], trials=5, seed=3)
    assert one == two
    name, snr, p, err = one[0]
    assert name == "base" and snr == -20.0
    assert 0.0 <= p <= 1.0 and err >= 0.0


def test_snr_sweep_overflowing_noise_level_is_a_domain_error():
    f, cases = default_sweep_cases()
    with pytest.raises(ConditionViolatedError):
        snr_sweep(f, cases[:1], [-7000.0], 1, 0)


def _default_moduli():
    _, cases = default_sweep_cases()
    return [mi for _, rm in cases for mi in rm.moduli]


@pytest.mark.parametrize("sigma", [-1.0, math.inf, math.nan])
def test_noise_level_must_be_finite_and_nonnegative(sigma):
    # a nan level would otherwise pass for noiseless, an infinite one
    # would leave the spectrum without a peak
    with pytest.raises(ConditionViolatedError):
        SignalModel(IntVec([1, 2]), sigma=sigma)


def test_sample_signal_matches_reference_bytes_and_stream():
    """The cached tone plus one 2N draw equals a fresh tone plus two
    ``normal`` draws byte for byte, and leaves the generator in the same
    state."""
    f, _ = default_sweep_cases()
    for mi in _default_moduli() + [SMALL]:
        for seed, sigma in enumerate((0.0, 1e-3, 0.3, 17.0)):
            for amplitude in (1.0, 1.5, 0.0, 0.6 - 0.8j):
                model = SignalModel(f, amplitude, sigma)
                rng = np.random.default_rng(seed)
                ref_rng = np.random.default_rng(seed)
                got = sample_signal(model, mi, rng)
                want = reference_sample_signal(model, mi, ref_rng)
                assert got.values.dtype == want.values.dtype
                assert got.values.tobytes() == want.values.tobytes()
                assert rng.integers(2**62) == ref_rng.integers(2**62)


def test_noiseless_tone_is_cached_and_read_only():
    f1 = IntVec([12, 91])
    f2 = f1 + SMALL @ IntVec([4, -7])  # same remainder, so same digits
    s1 = sample_signal(SignalModel(f1), SMALL)
    assert sample_signal(SignalModel(f2), SMALL).values is s1.values
    with pytest.raises(ValueError):
        s1.values[0, 0] = 0
    assert isinstance(freqest._tone.cache_info().maxsize, int)


def test_tone_cache_returns_no_stale_tone():
    f = IntVec([12, 91])
    models = [
        SignalModel(f),
        SignalModel(f + IntVec([1, 0])),  # other digits
        SignalModel(f, amplitude=2.0),
        SignalModel(f, amplitude=0.0),
        SignalModel(f, amplitude=complex(-0.0, 0.0)),  # equal to 0, other bits
    ]
    for _ in range(2):  # the second pass reads the cache
        tones = [sample_signal(m, SMALL).values for m in models]
        for model, tone in zip(models, tones):
            want = reference_sample_signal(model, SMALL).values
            assert tone.tobytes() == want.tobytes()
    assert len({t.tobytes() for t in tones}) == len(models)


def _spectrum(plan, values):
    return freqest.DftSpectrum(plan, np.asarray(values, dtype=np.complex128))


def test_peak_matches_argwhere_oracle_on_random_spectra():
    rng = np.random.default_rng(29)
    plans = [sampling_plan(m) for m in (SMALL, IntMat([[20, 1], [2, 21]]))]
    plans.append(sampling_plan(_default_moduli()[2]))  # grid (2, 33152)
    for plan in plans:
        for _ in range(5):
            values = rng.standard_normal(plan.shape) + 1j * rng.standard_normal(plan.shape)
            spectrum = _spectrum(plan, values)
            assert spectrum.peak() == reference_peak(spectrum)


def test_peak_ties_break_to_smallest_bin_vector():
    # a constant spectrum ties every bin
    for mod in (SMALL, IntMat([[20, 1], [2, 21]])):
        plan = sampling_plan(mod)
        spectrum = _spectrum(plan, np.full(plan.shape, 2.5 - 1j))
        assert spectrum.peak() == reference_peak(spectrum) == min(
            bins(plan), key=lambda k: k.entries
        )
    # two or three tied bins on the (2, N) grid whose digit order and bin
    # vector order disagree, with equal magnitudes from unequal values
    plan = sampling_plan(_default_moduli()[2])
    assert plan.shape[0] == 2
    pick = random.Random(31)
    rng = np.random.default_rng(31)
    for count in (2, 3, 2, 3):
        while True:
            digits = sorted(
                {tuple(pick.randrange(l) for l in plan.shape) for _ in range(count)}
            )
            tied = [plan.bin_of_digits(s) for s in digits]
            if len(digits) == count and tied[0].entries > min(b.entries for b in tied):
                break
        values = 4.9 * rng.random(plan.shape) * np.exp(2j * np.pi * rng.random(plan.shape))
        for s, v in zip(digits, (3 + 4j, -5.0, 5j)):
            values[s] = v  # |v| = 5 exactly
        spectrum = _spectrum(plan, values)
        want = min(tied, key=lambda k: k.entries)
        assert spectrum.peak() == reference_peak(spectrum) == want
        assert want != tied[0]  # the first tied digit tuple loses


@pytest.mark.parametrize("trials", [0, -1])
def test_snr_sweep_needs_a_trial(trials):
    with pytest.raises(ConditionViolatedError, match="trials"):
        snr_sweep(IntVec([1645, 1373]), default_sweep_cases(), [-20.0], trials, seed=1)
