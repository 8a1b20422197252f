"""Command-line front end.

Inputs are JSON files whose integer entries are decimal strings (so
arbitrary precision survives any JSON parser):

* matrix: array of rows, e.g. [["48","17"],["8","46"]]
* vector: flat array, e.g. ["328","288"]
* congruence system: {"moduli": [matrix...], "remainders": [vector...]}

Exit codes: 0 success, 1 usage/parse errors, 2 domain errors (the latter
emit one structured JSON object on stderr with a stable error code).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .crt import ResidueSystem, crt_cc, crt_diagonalized, crt_explicit, crt_general
from .divisibility import gcld, gcrd, is_left_coprime, is_right_coprime, lclm, lcrm
from .errors import MdcrtError
from .freqest import default_sweep_cases, snr_sweep
from .intmat import IntMat, IntVec, is_unimodular, smith
from .lattice import Norm, cvp, min_distance
from .residue import folding_vector, mod_reduce
from .robust import (
    RobustModuli,
    default_robust_cases,
    recover_folding_vectors,
    robust_reconstruct,
    robustness_sweep,
)

__all__ = ["main", "emit_csv", "parse_matrix_file"]


# most points an SNR or tau grid may have; a finer grid is a usage error
MAX_GRID_POINTS = 10_000

# largest |SNR| in dB: keeps the noise level 10^(-snr/20) and the spectra
# of noisy records far inside the float range
MAX_ABS_SNR_DB = 1000.0


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; the contract here is 1
    def error(self, message):
        raise UsageError(message)


def _decode_int(x) -> int:
    if isinstance(x, str):
        return int(x.strip(), 10)
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise UsageError(f"not an integer entry: {x!r}")


def _matrix_from_json(obj) -> IntMat:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise UsageError("matrix must be a JSON array of rows")
    width = len(obj[0])
    if not width:
        raise UsageError("matrix rows must be nonempty")
    for i, row in enumerate(obj):
        if len(row) != width:
            raise UsageError(f"ragged row {i}: expected {width} entries, got {len(row)}")
    try:
        return IntMat([[_decode_int(x) for x in row] for row in obj])
    except ValueError as exc:
        raise UsageError(f"bad matrix entry: {exc}") from exc


def _vector_from_json(obj) -> IntVec:
    if not isinstance(obj, list) or not obj:
        raise UsageError("vector must be a nonempty JSON array")
    try:
        return IntVec([_decode_int(x) for x in obj])
    except ValueError as exc:
        raise UsageError(f"bad vector entry: {exc}") from exc


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: malformed JSON at line {exc.lineno}") from exc
    except RecursionError:
        raise UsageError(f"{path}: JSON nested too deeply") from None


def _json_object(obj, what: str, keys=(), arrays=()) -> dict:
    """``obj`` checked to be a JSON object that holds every key in
    ``keys`` and, as JSON arrays, every key in ``arrays``."""
    if not isinstance(obj, dict):
        raise UsageError(f"{what} must be a JSON object")
    for key in (*keys, *arrays):
        if key not in obj:
            raise UsageError(f"{what} needs '{key}'")
        if key in arrays and not isinstance(obj[key], list):
            raise UsageError(f"'{key}' of {what} must be a JSON array")
    return obj


def parse_matrix_file(path: str) -> IntMat:
    return _matrix_from_json(_load_json(path))


def parse_vector_file(path: str) -> IntVec:
    return _vector_from_json(_load_json(path))


def _mat_json(m: IntMat):
    return [[str(e) for e in row] for row in m]


def _vec_json(v) -> list[str]:
    return [str(e) for e in v]


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _fmt_cell(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def emit_csv(rows, header, out, meta: dict) -> None:
    """CSV with '\\n' endings; a '# meta:' line with seed and version
    precedes the header so outputs are self-describing."""
    meta = {"version": __version__, **meta}
    lines = ["# meta: " + " ".join(f"{k}={v}" for k, v in meta.items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt_cell(c) for c in row))
    text = "\n".join(lines) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _number(kind, low=-math.inf, high=math.inf):
    """argparse type: a finite number of ``kind`` in [low, high]."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not (-math.inf < value < math.inf and low <= value <= high):
            raise argparse.ArgumentTypeError(f"out of range: {text!r}")
        return value

    return parse


def _int_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}")
    return values


def _parse_taus(spec: str) -> list[int]:
    if ":" not in spec:
        return _int_list(spec)
    parts = spec.split(":")
    if len(parts) == 2:
        parts.append("1")
    try:
        start, stop, step = map(int, parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range must be start:stop[:step] of integers, got {spec!r}"
        ) from None
    if step == 0:
        raise argparse.ArgumentTypeError("range step must be nonzero")
    taus = range(start, stop + 1, step)
    if not 0 < len(taus) <= MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"range {spec!r} must hold 1 to {MAX_GRID_POINTS} values"
        )
    return list(taus)


def _robust_moduli(cfg: dict) -> RobustModuli:
    """The moduli of a robust config or case that holds 'common' and 'cofactors'."""
    return RobustModuli(
        _matrix_from_json(cfg["common"]),
        [_matrix_from_json(g) for g in cfg["cofactors"]],
    )


def _robust_cases_from_file(path: str):
    cfg = _json_object(_load_json(path), "config", arrays=("cases",))
    cases = []
    for c in cfg["cases"]:
        _json_object(c, "each case", ("common",), ("cofactors",))
        cases.append((str(c.get("name", f"case{len(cases)}")), _robust_moduli(c)))
    return cases


def _build_parser() -> _Parser:
    p = _Parser(prog="mdcrt", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("smith", help="Smith normal form of a matrix")
    sp.add_argument("matrix")

    for name in ("gcld", "gcrd", "lcrm", "lclm"):
        sp = sub.add_parser(name, help=f"{name} of two matrices")
        sp.add_argument("left")
        sp.add_argument("right")
        sp.add_argument("--raw", action="store_true", help="skip canonicalization")

    sp = sub.add_parser("coprime", help="left/right coprimeness of two matrices")
    sp.add_argument("left")
    sp.add_argument("right")

    sp = sub.add_parser("mod", help="remainder and folding vector of m modulo M")
    sp.add_argument("matrix")
    sp.add_argument("vector")

    sp = sub.add_parser("crt", help="reconstruct from a congruence system")
    sp.add_argument("system")
    sp.add_argument(
        "--method",
        choices=("general", "cc", "explicit", "diag"),
        default="general",
    )

    sp = sub.add_parser("lattice", help="exact SVP/CVP on an integer lattice")
    sp.add_argument("basis")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--mindist", action="store_true")
    group.add_argument("--cvp", metavar="TARGET", help="vector file; entries may be 'p/q'")
    sp.add_argument("--norm", choices=("l1", "l2", "linf"), default="l2")

    sp = sub.add_parser("robust", help="recover folding vectors from noisy remainders")
    sp.add_argument("config")
    sp.add_argument("--algorithm", type=int, choices=(1, 2), default=1)
    sp.add_argument("--norm", choices=("l1", "l2", "linf"), default="l2")

    sp = sub.add_parser("fig1", help="robustness sweep over error bounds (CSV)")
    sp.add_argument("--config", help="JSON with custom cases")
    sp.add_argument("--taus", type=_parse_taus, default="0:30:2")
    sp.add_argument("--trials", type=_number(int, 1), default=500)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--algorithm", type=int, choices=(1, 2), default=1)
    sp.add_argument("--norm", choices=("l1", "l2", "linf"), default="l2")
    sp.add_argument("--out", help="output path (default stdout)")

    sp = sub.add_parser("freqest", help="SNR sweep of sub-Nyquist frequency estimation (CSV)")
    snr_db = _number(float, -MAX_ABS_SNR_DB, MAX_ABS_SNR_DB)
    sp.add_argument("--snr-start", type=snr_db, default=-38.0)
    sp.add_argument("--snr-stop", type=snr_db, default=-20.0)
    # the smallest positive float as the floor keeps the step above 0
    sp.add_argument(
        "--snr-step", type=_number(float, math.nextafter(0.0, 1.0)), default=2.0
    )
    sp.add_argument("--trials", type=_number(int, 1), default=300)
    # numpy's SeedSequence takes nonnegative seeds only
    sp.add_argument("--seed", type=_number(int, 0), default=0)
    sp.add_argument(
        "--case",
        action="append",
        choices=("base", "doubled", "custom"),
        help="repeatable; default runs base and doubled",
    )
    sp.add_argument("--custom-file", help="JSON cases file for --case custom")
    sp.add_argument(
        "--freq", type=_int_list, help="comma-separated frequency, default 1645,1373"
    )
    sp.add_argument("--algorithm", type=int, choices=(1, 2), default=1)
    sp.add_argument("--out", help="output path (default stdout)")
    return p


def _cmd_smith(args) -> int:
    a = parse_matrix_file(args.matrix)
    sf = smith(a)
    _print_json(
        {
            "u": _mat_json(sf.u),
            "lambda": _mat_json(sf.lam),
            "v": _mat_json(sf.v),
            "invariant_factors": [str(x) for x in sf.invariant_factors],
            "check": sf.u @ a @ sf.v == sf.lam,
        }
    )
    return 0


def _cmd_gcd_lcm(args) -> int:
    a = parse_matrix_file(args.left)
    b = parse_matrix_file(args.right)
    canonical = not args.raw
    if args.command in ("gcld", "gcrd"):
        left = args.command == "gcld"
        cert = (gcld if left else gcrd)(a, b, canonical=canonical)
        combo = a @ cert.p + b @ cert.q if left else cert.p @ a + cert.q @ b
        _print_json(
            {
                "l": _mat_json(cert.l),
                "p": _mat_json(cert.p),
                "q": _mat_json(cert.q),
                "identity_holds": combo == cert.l,
                "coprime": is_unimodular(cert.l),
            }
        )
    else:
        fn = lcrm if args.command == "lcrm" else lclm
        _print_json({args.command: _mat_json(fn(a, b, canonical=canonical))})
    return 0


def _cmd_coprime(args) -> int:
    a = parse_matrix_file(args.left)
    b = parse_matrix_file(args.right)
    _print_json(
        {
            "left_coprime": is_left_coprime(a, b),
            "right_coprime": is_right_coprime(a, b),
        }
    )
    return 0


def _cmd_mod(args) -> int:
    modulus = parse_matrix_file(args.matrix)
    m = parse_vector_file(args.vector)
    r = mod_reduce(m, modulus)
    n = folding_vector(m, modulus)
    _print_json({"remainder": _vec_json(r.value), "folding": _vec_json(n)})
    return 0


def _cmd_crt(args) -> int:
    cfg = _json_object(_load_json(args.system), "system", arrays=("moduli", "remainders"))
    moduli = [_matrix_from_json(m) for m in cfg["moduli"]]
    remainders = [_vector_from_json(v) for v in cfg["remainders"]]
    system = ResidueSystem.of(moduli, remainders)
    if args.method == "general":
        sol = crt_general(system)
    elif args.method == "cc":
        sol = crt_cc(system)
    elif args.method == "explicit":
        _json_object(cfg, "explicit method", arrays=("factors",))
        sol = crt_explicit(system, [_matrix_from_json(f) for f in cfg["factors"]])
    else:
        _json_object(cfg, "diag method", ("u",), ("lambdas",))
        sol = crt_diagonalized(
            system,
            _matrix_from_json(cfg["u"]),
            [_matrix_from_json(l) for l in cfg["lambdas"]],
        )
    _print_json(
        {
            "solution": _vec_json(sol.m),
            "modulus": _mat_json(sol.modulus),
            "canonical": sol.canonical,
        }
    )
    return 0


def _cmd_lattice(args) -> int:
    basis = parse_matrix_file(args.basis)
    norm = Norm(args.norm)
    if args.mindist:
        val = min_distance(basis, norm)
        key = "min_distance_sq" if norm is Norm.L2 else "min_distance"
        _print_json({key: str(val), "norm": norm.value})
    else:
        raw = _load_json(args.cvp)
        if not isinstance(raw, list) or not raw:
            raise UsageError("target must be a nonempty JSON array")
        try:
            target = [Fraction(str(x)) for x in raw]
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad target entry: {exc}") from exc
        point = cvp(basis, target, norm)
        _print_json({"closest": _vec_json(point), "norm": norm.value})
    return 0


def _cmd_robust(args) -> int:
    cfg = _json_object(
        _load_json(args.config), "robust config", ("common",), ("cofactors", "rtilde")
    )
    rm = _robust_moduli(cfg)
    rtilde = [_vector_from_json(v) for v in cfg["rtilde"]]
    u = _matrix_from_json(cfg["u1"]) if "u1" in cfg else None
    trace = recover_folding_vectors(
        rtilde, rm, args.algorithm, Norm(args.norm), u
    )
    exact, rounded = robust_reconstruct(trace, rtilde, rm)
    _print_json(
        {
            "folding_vectors": [_vec_json(n) for n in trace.folding_vectors],
            "cvp_points": [_vec_json(v) for v in trace.cvp_points],
            "aggregate": _vec_json(trace.aggregate),
            "reconstruction_exact": [str(f) for f in exact],
            "reconstruction": _vec_json(rounded),
        }
    )
    return 0


def _cmd_fig1(args) -> int:
    cases = (
        _robust_cases_from_file(args.config)
        if args.config
        else default_robust_cases()
    )
    rows = robustness_sweep(
        cases, args.taus, args.trials, args.seed, args.algorithm, Norm(args.norm)
    )
    emit_csv(
        rows,
        ["case", "tau", "mean_error", "success_rate"],
        args.out,
        {
            "seed": args.seed,
            "trials": args.trials,
            "algorithm": args.algorithm,
            "norm": args.norm,
        },
    )
    return 0


def _snr_grid(start: float, stop: float, step: float) -> list[float]:
    """start + k * step up to stop (1e-9 slack), rounded to 10 decimals;
    an integer count k keeps large or fine grids from stalling."""
    span = (stop - start + 1e-9) / step
    if span < 0:
        raise UsageError("empty SNR grid: --snr-stop is below --snr-start")
    if span >= MAX_GRID_POINTS:
        raise UsageError(f"SNR grid exceeds {MAX_GRID_POINTS} points")
    return [round(start + k * step, 10) for k in range(math.floor(span) + 1)]


def _cmd_freqest(args) -> int:
    snrs = _snr_grid(args.snr_start, args.snr_stop, args.snr_step)
    default_freq, all_cases = default_sweep_cases()
    lookup = dict(all_cases)
    names = args.case or ["base", "doubled"]
    cases = []
    for n in names:
        if n == "custom":
            if not args.custom_file:
                raise UsageError("--case custom needs --custom-file")
            cases.extend(_robust_cases_from_file(args.custom_file))
        else:
            cases.append((n, lookup[n]))
    freq = IntVec(args.freq) if args.freq else default_freq
    rows = snr_sweep(freq, cases, snrs, args.trials, args.seed, args.algorithm)
    emit_csv(
        rows,
        ["case", "snr_db", "p_detect", "mean_rel_error"],
        args.out,
        {
            "seed": args.seed,
            "trials": args.trials,
            "algorithm": args.algorithm,
            "freq": "/".join(str(x) for x in freq),
        },
    )
    return 0


_HANDLERS = {
    "smith": _cmd_smith,
    "gcld": _cmd_gcd_lcm,
    "gcrd": _cmd_gcd_lcm,
    "lcrm": _cmd_gcd_lcm,
    "lclm": _cmd_gcd_lcm,
    "coprime": _cmd_coprime,
    "mod": _cmd_mod,
    "crt": _cmd_crt,
    "lattice": _cmd_lattice,
    "robust": _cmd_robust,
    "fig1": _cmd_fig1,
    "freqest": _cmd_freqest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MdcrtError as exc:
        payload = {"error": {"code": exc.code, "message": str(exc)}}
        print(json.dumps(payload), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
