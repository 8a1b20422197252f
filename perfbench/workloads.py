"""The benchmark's workloads: inputs made from a seed, one timed op, checks.

A workload's constructor is its set-up (building the cases and warming
the library's lazy caches); ``make`` draws the input of op ``i``
(untimed), ``run`` is the timed call into the library, and ``check``
verifies one op's output, untimed, right after the op. Op ``i`` of a run
with seed ``s`` always gets the same input. ``ROUND`` ops make one round:
one op of every grid cell. ``TAIL_PERCENTILE`` is the highest latency
percentile that keeps at least ten ops beyond it in a 12 s run.

The sweep workloads call the public sweep functions one grid cell and
one trial at a time, cycling over the grid in sweep order, so every
trial is timed on its own and still runs through ``robustness_sweep`` or
``snr_sweep``. Each call gets its own seed, so no two trials share a
random stream.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from mdcrt import crt, errors, freqest, intmat, lattice, residue, robust

TAUS = tuple(range(0, 31, 2))
SNRS_DB = tuple(float(s) for s in range(-38, -19, 2))


def op_seed(seed: int, i: int) -> int:
    """Seed handed to the library for op ``i``; non-negative, distinct per op."""
    return (seed % 2**31) * 1_000_000 + i


def _err2(a, b) -> Fraction:
    return sum((Fraction(x) - y) ** 2 for x, y in zip(a, b))


class Fig1:
    """fig1 robustness sweep: both default cases, taus 0:30:2, L2."""

    ROUND = 2 * len(TAUS)

    def __init__(self, algorithm: int):
        self.algorithm = algorithm
        # ~21,000 ops in 12 s with algorithm 1, ~700 with algorithm 2
        self.TAIL_PERCENTILE = 99 if algorithm == 1 else 98
        self.cases = robust.default_robust_cases()
        self.cells = [(ci, tau) for ci in range(len(self.cases)) for tau in TAUS]
        # one noiseless trial per case builds the Smith forms, CC solvers,
        # digit plans and Gram-Schmidt data; then every error ball
        robust.robustness_sweep(self.cases, [0], 1, 0, algorithm)
        rng = random.Random(0)
        for _, rm in self.cases:
            for tau in TAUS:
                robust.sample_error(rng, robust.ErrorModel(tau), rm.dim)
        self._bounds = None

    def op_class(self, inp) -> str:
        return self.cases[inp[0]][0]

    def make(self, seed: int, i: int):
        ci, tau = self.cells[i % len(self.cells)]
        return ci, tau, op_seed(seed, i)

    def run(self, inp):
        ci, tau, s = inp
        return robust.robustness_sweep([self.cases[ci]], [tau], 1, s, self.algorithm)[0]

    def _in_bound(self, ci: int, errs) -> bool:
        """Every remainder error strictly inside the theorem's radius:
        a quarter of the minimum distance of LAT(common) for algorithm 1,
        of the Smith diagonal shrunk by the row transform's operator norm
        (a certified upper bound) for algorithm 2. Exact arithmetic."""
        if self._bounds is None:
            self._bounds = []
            for _, rm in self.cases:
                if self.algorithm == 1:
                    self._bounds.append((lattice.min_distance(rm.common), 1))
                else:
                    sf = rm.smith_form
                    scale = robust.operator_norm_upper(sf.u, lattice.Norm.L2)
                    self._bounds.append((lattice.min_distance(sf.lam), scale * scale))
        md, scale2 = self._bounds[ci]
        return all(16 * scale2 * sum(x * x for x in e) < md for e in errs)

    def check(self, inp, row) -> str | None:
        """An in-bound trial must recover and stay within tau.

        A row that reports recovery within tau meets that already. Any
        other row is replayed through ``robustness_trials``: the replay
        must reproduce the row, and its errors must not be in bound.
        """
        ci, tau, s = inp
        name, rm = self.cases[ci]
        if row[:2] != (name, tau):
            return "row"
        if row[3] == 1.0 and row[2] <= tau:
            return None
        rec = next(robust.robustness_trials(rm, tau, 1, s, self.algorithm))
        err2 = _err2(rec.m, rec.reconstruction)
        if row != (name, tau, math.sqrt(float(err2)), float(rec.correct)):
            return "row"
        errs = [
            rt - residue.mod_reduce(rec.m, mi).value
            for rt, mi in zip(rec.rtilde, rm.moduli)
        ]
        if self._in_bound(ci, errs) and not (rec.correct and err2 <= tau * tau):
            return "in_bound"
        return None


class Freqest:
    """freqest SNR sweep: algorithm 1, both cases, f = (1645, 1373),
    SNR -38:-20:2 dB, separable DFT."""

    ROUND = 2 * len(SNRS_DB)
    TAIL_PERCENTILE = 98  # ~1,000 ops in 12 s

    def __init__(self):
        self.freq, self.cases = freqest.default_sweep_cases()
        self.cells = [(ci, snr) for ci in range(len(self.cases)) for snr in SNRS_DB]
        self.truth = []
        self.reference_ok = True
        self._fnorm = math.sqrt(sum(x * x for x in self.freq))
        self._md = None
        # the noiseless reference builds the sampling plans and CC solvers
        for _, rm in self.cases:
            spectra = [
                freqest.md_dft(
                    freqest.sample_signal(freqest.SignalModel(self.freq), mi),
                    method="separable",
                )
                for mi in rm.moduli
            ]
            est = freqest.estimate_frequency(spectra, rm)
            folding = tuple(residue.folding_vector(self.freq, mi) for mi in rm.moduli)
            self.reference_ok &= (
                est.freq == self.freq and est.trace.folding_vectors == folding
            )
            self.truth.append(
                (folding, tuple(residue.mod_reduce(self.freq, mi).value for mi in rm.moduli))
            )

    def op_class(self, inp) -> str:
        return self.cases[inp[0]][0]

    def make(self, seed: int, i: int):
        ci, snr = self.cells[i % len(self.cells)]
        return ci, snr, op_seed(seed, i)

    def run(self, inp):
        ci, snr, s = inp
        return freqest.snr_sweep(self.freq, [self.cases[ci]], [snr], 1, s)[0]

    def _replay(self, ci: int, snr: float, s: int):
        """The trial ``snr_sweep`` runs for one cell and one trial,
        rebuilt from the public functions and its seed derivation."""
        sigma = 10.0 ** (-snr / 20.0) / math.sqrt(2.0)
        model = freqest.SignalModel(self.freq, 1.0 + 0.0j, sigma)
        rng = np.random.default_rng(np.random.SeedSequence([s, 0, 0, 0]))
        spectra = [
            freqest.md_dft(freqest.sample_signal(model, mi, rng), method="separable")
            for mi in self.cases[ci][1].moduli
        ]
        return freqest.estimate_frequency(spectra, self.cases[ci][1])

    def classify(self, ci: int, est) -> tuple[int, bool, bool]:
        """(exact peaks, every peak in bound, folding vectors recovered).

        A peak is in bound when it misses the true remainder by less than
        a quarter of the minimum distance of LAT(common), the radius of
        ``error_bound_lattice``, compared exactly.
        """
        folding, rems = self.truth[ci]
        if self._md is None:
            self._md = [lattice.min_distance(rm.common) for _, rm in self.cases]
        errs = [r - t for r, t in zip(est.remainders, rems)]
        exact = sum(not any(e) for e in errs)
        in_bound = all(16 * sum(x * x for x in e) < self._md[ci] for e in errs)
        return exact, in_bound, est.trace.folding_vectors == folding

    def check(self, inp, row) -> str | None:
        """A trial whose peaks all lie in bound must recover its folding
        vectors. A row that reports recovery meets that already; any other
        row is replayed, the replay must reproduce the row, and some peak
        of it must lie out of bound."""
        ci, snr, s = inp
        if row[:2] != (self.cases[ci][0], snr) or row[2] not in (0.0, 1.0):
            return "row"
        if row[2] == 1.0:
            return None
        est = self._replay(ci, snr, s)
        _, in_bound, recovered = self.classify(ci, est)
        rel = math.sqrt(float(sum((a - b) ** 2 for a, b in zip(self.freq, est.freq))))
        if row != (self.cases[ci][0], snr, float(recovered), rel / self._fnorm):
            return "row"
        return "in_bound" if in_bound else None


def _reduce(m: intmat.IntVec, a: intmat.IntMat) -> intmat.IntVec:
    """Remainder of m modulo a, m - a floor(a^-1 m), from the uncached
    det and adjugate, so making inputs does not warm the library's
    det/adjugate cache."""
    d = intmat.det(a)
    return m - a @ intmat.IntVec(e // d for e in intmat.adjugate(a) @ m)


class CrtGeneral:
    """Cold congruence systems solved by ``crt_general``.

    Op ``i`` has dimension 2 or 3 (alternating) and three moduli
    L @ G_k with fresh random matrices and a fresh non-unimodular left
    factor L, so no matrix repeats between ops. In one pair of ops out of
    every four, one remainder is moved off LAT(L), which contains every
    difference of consistent remainders, so the system must be rejected.
    """

    MODULI = 3
    ROUND = 32
    TAIL_PERCENTILE = 99  # ~8,000 ops in 12 s

    def op_class(self, inp) -> str:
        return f"d{inp[0][0].rows}"

    def make(self, seed: int, i: int):
        rng = random.Random(f"{seed}:{i}")
        dim = 2 + i % 2
        inconsistent = (i // 2) % 4 == 3

        def draw(lo, hi, ok):
            while True:
                a = intmat.IntMat(
                    [[rng.randint(lo, hi) for _ in range(dim)] for _ in range(dim)]
                )
                if ok(abs(intmat.det(a))):
                    return a

        left = draw(-3, 3, lambda d: 2 <= d <= 9)
        moduli = [left @ draw(-4, 4, lambda d: d >= 2) for _ in range(self.MODULI)]
        m = intmat.IntVec(rng.randint(-10**6, 10**6) for _ in range(dim))
        rems = [_reduce(m, a) for a in moduli]
        if inconsistent:
            j = rng.randrange(1, self.MODULI)
            dl, adj_l = intmat.det(left), intmat.adjugate(left)
            k = next(k for k in range(dim) if any(row[k] % dl for row in adj_l))
            unit = intmat.IntVec(int(c == k) for c in range(dim))
            rems[j] = _reduce(rems[j] + unit, moduli[j])
        return moduli, rems, m, inconsistent

    def run(self, inp):
        moduli, rems, _, _ = inp
        try:
            return crt.crt_general(crt.ResidueSystem.of(moduli, rems))
        except errors.InconsistentSystemError as exc:
            return exc

    def check(self, inp, sol) -> str | None:
        _, _, m, inconsistent = inp
        if inconsistent:
            return None if isinstance(sol, errors.InconsistentSystemError) else "accepted"
        if not isinstance(sol, crt.CrtSolution):
            return "rejected"
        return None if sol.m == residue.mod_reduce(m, sol.modulus).value else "wrong"


WORKLOADS = {
    "fig1-alg1": lambda: Fig1(1),
    "fig1-alg2": lambda: Fig1(2),
    "freqest": Freqest,
    "crt-general": CrtGeneral,
}
