"""Sinusoidal frequency estimation under nonseparable sub-Nyquist sampling.

A single complex exponential with integer frequency f is sampled on the
points of N(modulus^T); its DFT over N(modulus) peaks exactly at the
remainder of f, so each sampler contributes one erroneous remainder and
the robust reconstruction unwraps them back to f.

Floating point is confined to this module. All indexing over the residue
sets is exact: the Smith form of modulus^T puts both N(modulus^T) and
N(modulus) in bijection with a rectangular digit grid on which the DFT
kernel is separable, so the transform reduces to ``numpy.fft.fftn``.
A direct O(|det|^2) summation is kept for cross-validation (same grid
layout, different arithmetic route) and used by the unitarity checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConditionViolatedError, EnumerationCapError, ShapeError
from .intmat import IntMat, IntVec, adjugate, det, inv_unimodular, smith
from .lattice import Norm
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

_DIRECT_DFT_CAP = 4096


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
        if self.sigma < 0:
            raise ConditionViolatedError("noise level must be nonnegative")

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
        self._u = sf.u
        self._u_inv = inv_unimodular(sf.u)
        self._vt = sf.v.T
        self._vt_inv = inv_unimodular(sf.v).T

    def digits_of_bin(self, k: IntVec) -> tuple[int, ...]:
        """Grid digits of bin k; for a frequency, its peak location."""
        y = self._vt @ k
        return tuple(e % l for e, l in zip(y, self.lambdas))

    def bin_of_digits(self, s: Sequence[int]) -> IntVec:
        return mod_reduce(self._vt_inv @ IntVec(s), self.modulus).value

    def point_of_digits(self, t: Sequence[int]) -> IntVec:
        return mod_reduce(self._u_inv @ IntVec(t), self.modulus.T).value

    def digits_of_point(self, n: IntVec) -> tuple[int, ...]:
        y = self._u @ n
        return tuple(e % l for e, l in zip(y, self.lambdas))

    def sample_points(self) -> list[IntVec]:
        """All of N(modulus^T) in grid (row-major digit) order."""
        return [
            self.point_of_digits(t)
            for t in itertools.product(*(range(l) for l in self.lambdas))
        ]

    def bins(self) -> list[IntVec]:
        """All of N(modulus) in grid order."""
        return [
            self.bin_of_digits(s)
            for s in itertools.product(*(range(l) for l in self.lambdas))
        ]


@lru_cache(maxsize=128)
def sampling_plan(modulus: IntMat) -> SamplingPlan:
    return SamplingPlan(modulus)


@dataclass(frozen=True, eq=False)
class SignalSamples:
    """Complex samples over N(modulus^T), stored in grid order."""

    plan: SamplingPlan
    values: np.ndarray

    def value_at(self, n: IntVec) -> complex:
        return complex(self.values[self.plan.digits_of_point(n)])


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
        top = mags.max()
        tied = np.argwhere(mags == top)
        best = None
        for idx in tied:
            k = self.plan.bin_of_digits(tuple(int(i) for i in idx))
            if best is None or k.entries < best.entries:
                best = k
        return best

    def peak_to_mean(self) -> float:
        mags = np.abs(self.values)
        return float(mags.max() / mags.mean())


def sample_signal(
    model: SignalModel, modulus: IntMat, rng: np.random.Generator | None = None
) -> SignalSamples:
    """Synthesize one undersampled record over N(modulus^T).

    The noiseless sample at point n is amplitude * exp(j2pi f^T M^-T n),
    which depends on f only through its remainder; on the digit grid the
    phase is separable per axis. Noise adds independent Gaussians of
    variance sigma^2 to each of the real and imaginary parts.
    """
    plan = sampling_plan(modulus)
    if plan.size > default_enum_cap():
        raise EnumerationCapError("sampling modulus too large")
    digits = plan.digits_of_bin(model.freq)
    axes = [
        np.exp(2j * np.pi * s * np.arange(l) / l)
        for s, l in zip(digits, plan.lambdas)
    ]
    vals = np.complex128(model.amplitude)
    for ax in axes:
        vals = np.multiply.outer(vals, ax)
    vals = vals.reshape(plan.shape)
    if model.sigma > 0:
        if rng is None:
            raise ConditionViolatedError("noisy synthesis needs a generator")
        noise = rng.normal(0.0, model.sigma, plan.shape) + 1j * rng.normal(
            0.0, model.sigma, plan.shape
        )
        vals = vals + noise
    return SignalSamples(plan, vals)


def _direct_dft(samples: SignalSamples, cap: int) -> np.ndarray:
    plan = samples.plan
    if plan.size > cap:
        raise EnumerationCapError(
            f"direct transform of size {plan.size} exceeds cap {cap}"
        )
    d = det(plan.modulus)
    adj_t = adjugate(plan.modulus.T)
    points = plan.sample_points()
    bins = plan.bins()
    dim = plan.modulus.rows
    max_k = max(max(abs(e) for e in k) for k in bins)
    max_n = max(max(abs(e) for e in n) for n in points)
    max_adj = max(abs(e) for row in adj_t for e in row)
    # k^T adj(M^T) n stays exact in int64 when this product bound holds
    if dim * dim * max_k * max_adj * max(max_n, 1) < 2**62:
        dtype = np.int64
    else:
        dtype = object
    k_arr = np.array([k.entries for k in bins], dtype=dtype)
    n_arr = np.array([n.entries for n in points], dtype=dtype)
    adj_arr = np.array(adj_t.entries, dtype=dtype)
    phases = k_arr.dot(adj_arr).dot(n_arr.T) % d
    kernel = np.exp(-2j * np.pi * phases.astype(np.float64) / d)
    x = samples.values.reshape(-1)
    return (kernel @ x).reshape(plan.shape)


def md_dft(samples: SignalSamples, method: str = "direct") -> DftSpectrum:
    """DFT of one record: X(k) = sum_n x(n) exp(-j2pi k^T M^-T n).

    ``direct`` evaluates the double sum with exactly reduced integer
    phases (capped size); ``separable`` runs the equivalent FFT over the
    Smith digit grid. Both return bins in the same grid order.
    """
    if method == "separable":
        return DftSpectrum(samples.plan, np.fft.fftn(samples.values))
    if method == "direct":
        return DftSpectrum(
            samples.plan, _direct_dft(samples, _DIRECT_DFT_CAP)
        )
    raise ValueError("method must be 'direct' or 'separable'")


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
    norm: Norm = Norm.L2,
    u: IntMat | None = None,
) -> FrequencyEstimate:
    """Peak detection per sampler, folding-vector recovery, averaging."""
    if len(spectra) != len(rm):
        raise ShapeError("one spectrum per modulus required")
    for sp, mi in zip(spectra, rm.moduli):
        if sp.plan.modulus != mi:
            raise ConditionViolatedError("spectrum/modulus order mismatch")
    rtilde = tuple(detect_remainder(sp) for sp in spectra)
    trace = recover_folding_vectors(rtilde, rm, algorithm, norm, u)
    exact, rounded = robust_reconstruct(trace, rtilde, rm)
    return FrequencyEstimate(rounded, exact, rtilde, trace)


def _sigma_for_snr(snr_db: float, amplitude: complex) -> float:
    return abs(amplitude) * 10.0 ** (-snr_db / 20.0) / math.sqrt(2.0)


def snr_sweep(
    freq: IntVec,
    cases: Sequence[tuple[str, RobustModuli]],
    snrs_db: Sequence[float],
    trials: int,
    seed: int,
    algorithm: int = 1,
    norm: Norm = Norm.L2,
    amplitude: complex = 1.0 + 0.0j,
) -> list[tuple[str, float, float, float]]:
    """Detection probability and mean relative error per (case, SNR).

    Detection means every folding vector was recovered exactly. Per-trial
    generators are seeded from (seed, case index, SNR index, trial), so
    the output is schedule independent. Rows are
    (case, snr_db, p_detect, mean relative L2 error).
    """
    rows = []
    fnorm = math.sqrt(sum(x * x for x in freq))
    for ci, (name, rm) in enumerate(cases):
        truth = tuple(folding_vector(freq, mi) for mi in rm.moduli)
        for si, snr in enumerate(snrs_db):
            sigma = _sigma_for_snr(snr, amplitude)
            model = SignalModel(freq, amplitude, sigma)
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
                est = estimate_frequency(spectra, rm, algorithm, norm)
                if est.trace.folding_vectors == truth:
                    detected += 1
                diff2 = sum((a - b) ** 2 for a, b in zip(freq, est.freq))
                rel_sum += math.sqrt(float(diff2)) / fnorm
            rows.append((name, snr, detected / trials, rel_sum / trials))
    return rows


def default_sweep_cases() -> tuple[IntVec, list[tuple[str, RobustModuli]]]:
    """Benchmark frequency and the base/doubled sampling cases."""
    return IntVec([1645, 1373]), default_robust_cases()
