"""Sinusoidal frequency estimation under nonseparable sub-Nyquist sampling.

A single complex exponential with integer frequency f is sampled on the
points of N(modulus^T); its DFT over N(modulus) peaks exactly at the
remainder of f, so each sampler contributes one erroneous remainder and
the robust reconstruction unwraps them back to f.

Floating point is confined to this module. All indexing over the residue
sets is exact: the Smith form of modulus^T puts both N(modulus^T) and
N(modulus) in bijection with a rectangular digit grid on which the DFT
kernel is separable, so the transform reduces to ``numpy.fft.fftn``.

A trial's cost is synthesis, FFT and peak pick. The noiseless tone
depends only on (modulus, remainder digits, amplitude), so it is built
once and kept, read-only, in a small LRU cache; a noisy record is that
tone plus one draw of 2N standard normals scaled by sigma, which is the
same random stream and the same bits as separate real and imaginary
``normal(0, sigma)`` draws. The peak pick is one linear scan.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConditionViolatedError, EnumerationCapError, ShapeError
from .intmat import IntMat, IntVec, det, inv_unimodular, smith
from .residue import default_enum_cap, folding_vector, mod_reduce
from .robust import (
    RobustModuli,
    RobustTrace,
    default_robust_cases,
    recover_folding_vectors,
    robust_reconstruct,
)

__all__ = [
    "SignalModel",
    "SamplingPlan",
    "SignalSamples",
    "DftSpectrum",
    "sampling_plan",
    "sample_signal",
    "md_dft",
    "detect_remainder",
    "estimate_frequency",
    "FrequencyEstimate",
    "snr_sweep",
    "default_sweep_cases",
]

@dataclass(frozen=True)
class SignalModel:
    """Complex exponential exp(j 2 pi f.t) with amplitude and noise level.

    ``sigma`` is the standard deviation per real/imaginary component, so
    the complex noise variance is 2 sigma^2.
    """

    freq: IntVec
    amplitude: complex = 1.0 + 0.0j
    sigma: float = 0.0

    def __post_init__(self):
        if not 0 <= self.sigma < math.inf:
            raise ConditionViolatedError("noise level must be finite and nonnegative")

    @property
    def snr_db(self) -> float:
        if self.sigma == 0:
            return math.inf
        return 10.0 * math.log10(
            abs(self.amplitude) ** 2 / (2.0 * self.sigma**2)
        )


class SamplingPlan:
    """Digit-grid bijections for one sampling modulus.

    Built from the Smith form of modulus^T: sample points n in
    N(modulus^T) correspond to grid digits t = <u n> mod diag, spectrum
    bins k in N(modulus) to digits s = <v^T k> mod diag, and the DFT
    kernel exp(-j2pi k^T modulus^-T n) becomes the separable grid kernel
    exp(-j2pi sum s_d t_d / diag_d).
    """

    def __init__(self, modulus: IntMat):
        d = det(modulus)
        if d == 0:
            raise ConditionViolatedError("sampling modulus is singular")
        self.modulus = modulus
        self.size = abs(d)
        sf = smith(modulus.T)
        self.lambdas = sf.invariant_factors
        self.shape = tuple(self.lambdas)
        self._vt = sf.v.T
        self._vt_inv = inv_unimodular(sf.v).T

    def digits_of_bin(self, k: IntVec) -> tuple[int, ...]:
        """Grid digits of bin k; for a frequency, its peak location."""
        y = self._vt @ k
        return tuple(e % l for e, l in zip(y, self.lambdas))

    def bin_of_digits(self, s: Sequence[int]) -> IntVec:
        return mod_reduce(self._vt_inv @ IntVec(s), self.modulus).value


@lru_cache(maxsize=128)
def sampling_plan(modulus: IntMat) -> SamplingPlan:
    return SamplingPlan(modulus)


@dataclass(frozen=True, eq=False)
class SignalSamples:
    """Complex samples over N(modulus^T), stored in grid order."""

    plan: SamplingPlan
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class DftSpectrum:
    """DFT values over N(modulus), stored in grid order."""

    plan: SamplingPlan
    values: np.ndarray

    def value(self, k: IntVec) -> complex:
        return complex(self.values[self.plan.digits_of_bin(k)])

    def magnitude(self, k: IntVec) -> float:
        return abs(self.value(k))

    def peak(self) -> IntVec:
        """Bin of maximal magnitude; exact ties break to the
        lexicographically smallest bin vector."""
        mags = np.abs(self.values)
        tied = np.flatnonzero(mags == mags.max())
        best = None
        for idx in zip(*np.unravel_index(tied, mags.shape)):
            k = self.plan.bin_of_digits(tuple(int(i) for i in idx))
            if best is None or k.entries < best.entries:
                best = k
        return best


@lru_cache(maxsize=8)
def _tone(modulus: IntMat, digits: tuple[int, ...], amplitude_bits: bytes) -> np.ndarray:
    """Read-only noiseless record for a remainder with grid ``digits``.

    The amplitude is keyed by its complex128 bit pattern, so amplitudes
    that compare equal but differ in the sign of a zero keep their own
    (bitwise different) tones.
    """
    plan = sampling_plan(modulus)
    vals = np.frombuffer(amplitude_bits, dtype=np.complex128)[0]
    for s, l in zip(digits, plan.lambdas):
        vals = np.multiply.outer(vals, np.exp(2j * np.pi * s * np.arange(l) / l))
    vals = vals.reshape(plan.shape)
    vals.flags.writeable = False
    return vals


def sample_signal(
    model: SignalModel, modulus: IntMat, rng: np.random.Generator | None = None
) -> SignalSamples:
    """Synthesize one undersampled record over N(modulus^T).

    The noiseless sample at point n is amplitude * exp(j2pi f^T M^-T n),
    which depends on f only through its remainder; on the digit grid the
    phase is separable per axis. That tone comes from an 8-entry cache
    keyed by (modulus, remainder digits, amplitude), which holds at most
    8 x 16 bytes x ``plan.size``: at the default enumeration cap of 10^6
    points, at most 16 MB per tone. A noiseless record is the cached
    array itself, read-only.

    Noise adds independent Gaussians of variance sigma^2 to each of the
    real and imaginary parts: one ``standard_normal`` draw of shape
    (2,) + grid shape, real part first, scaled by sigma. That consumes
    the generator exactly as two ``normal(0, sigma, shape)`` draws would
    and gives the same bits, because ``normal(0, sigma)`` is 0 + sigma*z.
    """
    plan = sampling_plan(modulus)
    if plan.size > default_enum_cap():
        raise EnumerationCapError("sampling modulus too large")
    tone = _tone(
        modulus,
        plan.digits_of_bin(model.freq),
        np.complex128(model.amplitude).tobytes(),
    )
    if not model.sigma > 0:
        return SignalSamples(plan, tone)
    if rng is None:
        raise ConditionViolatedError("noisy synthesis needs a generator")
    z = rng.standard_normal((2,) + plan.shape)
    z *= model.sigma
    vals = np.empty(plan.shape, dtype=np.complex128)
    np.add(tone.real, z[0], out=vals.real)
    np.add(tone.imag, z[1], out=vals.imag)
    return SignalSamples(plan, vals)


def md_dft(samples: SignalSamples, method: str = "separable") -> DftSpectrum:
    """DFT of one record: X(k) = sum_n x(n) exp(-j2pi k^T M^-T n), by
    ``numpy.fft.fftn`` over the Smith digit grid; bins in grid order.

    ``method`` accepts only ``"separable"``; the direct O(|det|^2) sum
    is the test suite's oracle for this transform.
    """
    if method != "separable":
        raise ValueError("method must be 'separable'")
    return DftSpectrum(samples.plan, np.fft.fftn(samples.values))


def detect_remainder(spectrum: DftSpectrum) -> IntVec:
    """Aliased frequency: the location of the spectral magnitude peak."""
    return spectrum.peak()


@dataclass(frozen=True)
class FrequencyEstimate:
    freq: IntVec
    freq_exact: tuple[Fraction, ...]
    remainders: tuple[IntVec, ...]
    trace: RobustTrace


def estimate_frequency(
    spectra: Sequence[DftSpectrum],
    rm: RobustModuli,
    algorithm: int = 1,
) -> FrequencyEstimate:
    """Peak detection per sampler, folding-vector recovery, averaging."""
    if len(spectra) != len(rm):
        raise ShapeError("one spectrum per modulus required")
    for sp, mi in zip(spectra, rm.moduli):
        if sp.plan.modulus != mi:
            raise ConditionViolatedError("spectrum/modulus order mismatch")
    rtilde = tuple(detect_remainder(sp) for sp in spectra)
    trace = recover_folding_vectors(rtilde, rm, algorithm)
    exact, rounded = robust_reconstruct(trace, rtilde, rm)
    return FrequencyEstimate(rounded, exact, rtilde, trace)


def _sigma_for_snr(snr_db: float) -> float:
    """Noise level per component of a unit-amplitude tone at ``snr_db``."""
    try:
        return 10.0 ** (-snr_db / 20.0) / math.sqrt(2.0)
    except OverflowError:
        raise ConditionViolatedError(
            f"noise level for {snr_db} dB overflows a float"
        ) from None


def snr_sweep(
    freq: IntVec,
    cases: Sequence[tuple[str, RobustModuli]],
    snrs_db: Sequence[float],
    trials: int,
    seed: int,
    algorithm: int = 1,
) -> list[tuple[str, float, float, float]]:
    """Detection probability and mean relative error per (case, SNR) of a
    unit-amplitude tone.

    Detection means every folding vector was recovered exactly. Per-trial
    generators are seeded from (seed, case index, SNR index, trial), so
    the output is schedule independent. Rows are
    (case, snr_db, p_detect, mean relative L2 error).
    """
    if trials < 1:
        raise ConditionViolatedError(f"trials must be at least 1, got {trials}")
    f2 = sum(x * x for x in freq)
    # |f - estimate|^2 <= 2|f|^2 + 2|estimate|^2 must also convert to float
    if not 0 < f2 <= sys.float_info.max / 4:
        raise ConditionViolatedError(
            "relative error needs a nonzero frequency with |f|^2 below 2^1022"
        )
    fnorm = math.sqrt(f2)
    sigmas = [_sigma_for_snr(snr) for snr in snrs_db]
    rows = []
    for ci, (name, rm) in enumerate(cases):
        truth = tuple(folding_vector(freq, mi) for mi in rm.moduli)
        for si, (snr, sigma) in enumerate(zip(snrs_db, sigmas)):
            model = SignalModel(freq, sigma=sigma)
            detected = 0
            rel_sum = 0.0
            for k in range(trials):
                rng = np.random.default_rng(
                    np.random.SeedSequence([seed, ci, si, k])
                )
                spectra = [
                    md_dft(sample_signal(model, mi, rng), method="separable")
                    for mi in rm.moduli
                ]
                est = estimate_frequency(spectra, rm, algorithm)
                if est.trace.folding_vectors == truth:
                    detected += 1
                diff2 = sum((a - b) ** 2 for a, b in zip(freq, est.freq))
                rel_sum += math.sqrt(float(diff2)) / fnorm
            rows.append((name, snr, detected / trials, rel_sum / trials))
    return rows


def default_sweep_cases() -> tuple[IntVec, list[tuple[str, RobustModuli]]]:
    """Benchmark frequency and the base/doubled sampling cases."""
    return IntVec([1645, 1373]), default_robust_cases()
