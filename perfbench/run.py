"""mdcrt benchmark: one workload, one closed-loop client, checked outputs.

    python3 perfbench/run.py --workload fig1-alg1 --seed 1 --seconds 12 --trace 0

Each op starts only after the previous one has finished. ``--trace 0``
measures the end-to-end metrics with the library as shipped; ``--trace 1``
runs half the time untraced and half with span wrappers installed, and
reports the per-layer metrics and the tracing overhead. A host probe
runs before every op, and timings are scaled to a reference host speed.
The last line of standard output is the result object; the line before
it is a record of the machine, sample counts, unscaled figures and output
digest. See perfbench/README.md.
"""

import os

# one BLAS/OpenMP thread for this process and its set-up processes; must be
# set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
# host probes run before and after each set-up process
SETUP_PROBES = 20
# what the host probe takes on a quiet host; timings are scaled to it
PROBE_REF_S = 0.5e-3
# the first DIGEST_OPS ops always run, and their outputs are hashed
DIGEST_OPS = 64


def measure_setup(workload: str) -> tuple[float, float]:
    """Set-up seconds of the workload in a fresh process: as read, and
    scaled to the reference host speed by probes run on either side."""
    before = [host_probe() for _ in range(SETUP_PROBES)]
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    after = [host_probe() for _ in range(SETUP_PROBES)]
    raw = float(out.stdout.strip().splitlines()[-1])
    return raw, raw * PROBE_REF_S * 2 * SETUP_PROBES / sum(before + after)


class Raised:
    """Result of an op that raised; the op counts as failed."""

    def __init__(self, exc: Exception):
        self.exc = exc


class Tally:
    """Checks every op's output and hashes the first DIGEST_OPS outputs."""

    def __init__(self, wl):
        self.wl = wl
        self.ops = 0
        self.reasons: dict[str, int] = {}
        self._sha = hashlib.sha256()

    def add(self, inp, res) -> None:
        if self.ops < DIGEST_OPS:
            self._sha.update(_digest_line(res).encode() + b"\n")
        self.ops += 1
        if isinstance(res, Raised):
            why = f"raised {type(res.exc).__name__}"
        else:
            why = self.wl.check(inp, res)
        if why:
            self.reasons[why] = self.reasons.get(why, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())

    @property
    def digest(self) -> str:
        return self._sha.hexdigest()


def _digest_line(res) -> str:
    if isinstance(res, Raised):
        return f"raised {type(res.exc).__name__}"
    if isinstance(res, Exception):
        return f"{type(res).__name__}:{getattr(res, 'index', None)}"
    if hasattr(res, "modulus"):
        return f"{res.m.entries}|{res.modulus.entries}"
    return ",".join(repr(x) for x in res)


def host_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work (~0.5 ms) made
    of what the library's ops are made of: integer arithmetic, Fractions,
    a sort and a dict. It does not touch the library, so a slow reading
    means the host, not the code under test, was slow."""
    t0 = perf_counter()
    acc = 0
    for k in range(3000):
        acc += k * k % 7
    x = Fraction(1, 3)
    rows = []
    for k in range(60):
        x = x * Fraction(k + 2, k + 1) - Fraction(1, k + 3)
        rows.append((x.numerator % 97, k))
    {r: i for i, r in enumerate(sorted(rows))}
    return perf_counter() - t0


class Series:
    """Per op: its time in seconds, its input class, and the host probe
    reading taken just before it. Ops come in whole rounds."""

    def __init__(self, size: int):
        self.size = size
        self.times, self.classes, self.probes = [], [], []

    def scaled(self) -> list[float]:
        """Op times scaled to the reference host speed: each op's time
        times PROBE_REF_S over the mean probe reading of its round."""
        out, n = [], self.size
        for r in range(0, len(self.times), n):
            f = PROBE_REF_S * n / sum(self.probes[r : r + n])
            out += [t * f for t in self.times[r : r + n]]
        return out

    @property
    def factor(self) -> float:
        """PROBE_REF_S over the mean probe reading of the whole series."""
        return PROBE_REF_S * len(self.probes) / sum(self.probes)


def drive(wl, seed, first, seconds, min_ops, after_op, series, tracer=None):
    """Closed loop of whole rounds from op ``first`` until ``seconds`` of
    op time have passed and at least ``min_ops`` ops ran, appending to
    ``series``. A host probe runs before each op. ``after_op(inp,
    result)`` runs untimed after each op. Returns the number of ops."""
    busy = 0.0
    i = first
    while busy < seconds or i - first < min_ops:
        for _ in range(wl.ROUND):
            inp = wl.make(seed, i)
            series.probes.append(host_probe())
            with tracer.op(i) if tracer else nullcontext():
                t0 = perf_counter()
                try:
                    res = wl.run(inp)
                except Exception as exc:  # counted as a failed op
                    res = Raised(exc)
                dt = perf_counter() - t0
            after_op(inp, res)
            series.times.append(dt)
            series.classes.append(wl.op_class(inp))
            busy += dt
            i += 1
    return i - first


def e2e_figures(times, classes, tail) -> dict[str, float]:
    """ops_per_s, the median latency of the slowest input class, and the
    ``tail`` percentile latency over all ops, from op times in seconds."""
    by_class = {}
    for c, t in zip(classes, times):
        by_class.setdefault(c, []).append(t)
    return {
        "ops_per_s": len(times) / sum(times),
        "op_ms.p50": max(statistics.median(v) for v in by_class.values()) * 1e3,
        "op_ms.tail": statistics.quantiles(times, n=100)[tail - 1] * 1e3,
    }


def machine() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class TracedSegments:
    """Segments run with the span wrappers installed, and what the
    per-layer metrics need from them."""

    def __init__(self, wl, tally):
        import tracing
        from mdcrt import freqest, intmat

        self.wl, self.tally = wl, tally
        self.tracer = tracing.Tracer(keep_returns=("freqest.estimate_frequency",))
        # hot one-liners read through cache_info() rather than wrapped
        self.caches = {
            "intmat.det_adjugate": intmat.det_adjugate,
            "freqest.sampling_plan": freqest.sampling_plan,
        }
        self.lookups = {label: [0, 0] for label in self.caches}  # hits, lookups
        self.inputs = {}
        self.series = Series(wl.ROUND)

    def run(self, seed, first, seconds) -> int:
        pending = []
        before = {label: c.cache_info() for label, c in self.caches.items()}
        with self.tracer.installed():
            ops = drive(self.wl, seed, first, seconds, 1,
                        lambda inp, res: pending.append((inp, res)),
                        self.series, self.tracer)
        for label, cache in self.caches.items():
            b, a = before[label], cache.cache_info()
            self.lookups[label][0] += a.hits - b.hits
            self.lookups[label][1] += a.hits + a.misses - b.hits - b.misses
        # checks run after the wrappers are gone, so they leave no spans
        for i, (inp, res) in enumerate(pending):
            self.inputs[first + i] = inp
            self.tally.add(inp, res)
        return ops

    def metrics(self) -> dict:
        """Per-layer metrics; times scaled to the reference host speed."""
        import tracing

        ops = len(self.series.times)
        us = 1e6 * self.series.factor / ops
        totals = self.tracer.layer_totals()
        out = {}
        for label in tracing.LABELS:
            calls, self_s = totals.get(label, (0, 0.0))
            out[f"{label}.calls_per_op"] = (calls / ops, "calls/op")
            out[f"{label}.self_us_per_op"] = (self_s * us, "us/op")
        out["op.unattributed_us_per_op"] = (totals[tracing.OP][1] * us, "us/op")
        for label, (hits, lookups) in self.lookups.items():
            out[f"{label}.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")

        # freqest failure attribution, from the estimates the wrapper kept
        exact = peaks = 0
        causes = {"peak": 0, "snap": 0}
        for op_id, est in self.tracer.returns["freqest.estimate_frequency"]:
            hit, in_bound, recovered = self.wl.classify(self.inputs[op_id][0], est)
            exact += hit
            peaks += len(est.remainders)
            if not recovered:
                causes["snap" if in_bound else "peak"] += 1
        out["freqest.peak.exact_ratio"] = (exact / peaks if peaks else 0.0, "ratio")
        out["freqest.fail.peak"] = (causes["peak"] / ops, "ratio")
        out["freqest.fail.snap"] = (causes["snap"] / ops, "ratio")
        out["robust.in_bound_failures"] = (self.tally.reasons.get("in_bound", 0), "count")
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mdcrt" / "__init__.py").is_file():
        print("error: mdcrt sources not found under src/", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    record = {"workload": args.workload, "seed": args.seed, "machine": machine()}
    wl = workloads.WORKLOADS[args.workload]()
    tally = Tally(wl)
    untraced = Series(wl.ROUND)
    traced = TracedSegments(wl, tally) if args.trace else None
    setup = []
    # The run is cut into segments so that host noise, which comes in
    # periods of seconds, reaches every kind of measurement alike: with
    # --trace 0 one set-up sample precedes each segment; with --trace 1
    # untraced and traced segments alternate.
    plan = (False, True, False, True) if args.trace else (False,) * SETUP_SAMPLES
    first = 0
    for j, with_spans in enumerate(plan):
        seconds = args.seconds / len(plan)
        if with_spans:
            first += traced.run(args.seed, first, seconds)
            continue
        if not args.trace:
            setup.append(measure_setup(args.workload))
        first += drive(wl, args.seed, first, seconds,
                       DIGEST_OPS if j == 0 else 1, tally.add, untraced)

    scaled = untraced.scaled()
    rate = len(scaled) / sum(scaled)
    if args.trace:
        metrics = traced.metrics()
        traced_scaled = traced.series.scaled()
        traced_rate = len(traced_scaled) / sum(traced_scaled)
        metrics["trace.ops_per_s_ratio"] = (traced_rate / rate, "ratio")
        spans_path = HERE / "out" / f"spans-{args.workload}.jsonl"
        traced.tracer.write(spans_path)
        record["trace"] = {
            "traced_ops": len(traced_scaled),
            "untraced_ops_per_s": rate,
            "traced_ops_per_s": traced_rate,
            "spans": len(traced.tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "cache_hits_lookups": traced.lookups,
        }
    else:
        tail = wl.TAIL_PERCENTILE
        units = {"ops_per_s": "1/s", "op_ms.p50": "ms", "op_ms.tail": "ms"}
        figures = e2e_figures(scaled, untraced.classes, tail)
        metrics = {k: (v, units[k]) for k, v in figures.items()}
        metrics["setup_s"] = (statistics.median(s for _, s in setup), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        unscaled = e2e_figures(untraced.times, untraced.classes, tail)
        unscaled["setup_s"] = statistics.median(r for r, _ in setup)
        record["latency"] = {
            "samples": len(scaled),
            "class_samples": {c: untraced.classes.count(c) for c in set(untraced.classes)},
            "tail_percentile": tail,
            "tail_samples_beyond": len(scaled) * (100 - tail) // 100,
            "host_probe_ms_median": statistics.median(untraced.probes) * 1e3,
            "unscaled": unscaled,
        }
        record["setup_samples_s"] = [r for r, _ in setup]

    reference_ok = getattr(wl, "reference_ok", True)
    record.update(
        ops=tally.ops,
        round_ops=wl.ROUND,
        error_rate=tally.failed / tally.ops,
        failures=tally.reasons,
        reference_ok=reference_ok,
        digest_ops=DIGEST_OPS,
        digest_sha256=tally.digest,
    )
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": tally.failed == 0 and reference_ok,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
