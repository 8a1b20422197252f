import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdcrt
from mdcrt.cli import emit_csv, main, parse_matrix_file
from mdcrt import (
    IntMat,
    IntVec,
    Norm,
    RobustModuli,
    circulant2_coprime,
    recover_folding_vectors,
    robust_reconstruct,
)


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def mat_strings(rows):
    return [[str(x) for x in row] for row in rows]


@pytest.fixture
def bench(tmp_path):
    return write_json(tmp_path / "m.json", mat_strings([[48, 17], [8, 46]]))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_matrix_file_round_trip(tmp_path, bench):
    m = parse_matrix_file(bench)
    assert m == IntMat([[48, 17], [8, 46]])
    one = write_json(tmp_path / "one.json", [["1"]])
    assert parse_matrix_file(one) == IntMat([[1]])
    big = write_json(
        tmp_path / "big.json", [["123456789012345678901234567890"]]
    )
    assert parse_matrix_file(big)[0, 0] == 123456789012345678901234567890


def test_parse_errors(tmp_path, capsys):
    code, _, err = run(capsys, "smith", str(tmp_path / "missing.json"))
    assert code == 1
    ragged = write_json(tmp_path / "r.json", [["1", "2"], ["3"]])
    code, _, err = run(capsys, "smith", ragged)
    assert code == 1 and "ragged row 1" in err
    bad = tmp_path / "bad.json"
    bad.write_text("[[1,", encoding="utf-8")
    code, _, err = run(capsys, "smith", str(bad))
    assert code == 1 and "line" in err
    notint = write_json(tmp_path / "t.json", [["1.5"]])
    code, _, err = run(capsys, "smith", notint)
    assert code == 1


def test_smith_output_reparses(tmp_path, bench, capsys):
    code, out, _ = run(capsys, "smith", bench)
    assert code == 0
    doc = json.loads(out)
    assert doc["check"] is True
    reparsed = write_json(tmp_path / "lam.json", doc["lambda"])
    assert parse_matrix_file(reparsed) == IntMat([[1, 0], [0, 2072]])


def test_gcld_and_coprime(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", mat_strings([[4, -1], [-1, 4]]))
    b = write_json(tmp_path / "b.json", mat_strings([[7, 4], [4, 7]]))
    code, out, _ = run(capsys, "gcld", a, b)
    assert code == 0
    doc = json.loads(out)
    assert doc["identity_holds"] is True and doc["coprime"] is True
    code, out, _ = run(capsys, "coprime", a, b)
    doc = json.loads(out)
    assert doc["left_coprime"] and doc["right_coprime"]


def test_gcrd_subcommand(tmp_path, capsys):
    from mdcrt import gcrd, is_unimodular

    pairs = [
        ([[4, -1], [-1, 4]], [[7, 4], [4, 7]]),  # coprime
        ([[4, 0], [0, 6]], [[6, 0], [0, 4]]),  # common right divisor
        ([[2, 1], [0, 3]], [[4, 2], [1, 6]]),
    ]
    for ra, rb in pairs:
        a = write_json(tmp_path / "a.json", mat_strings(ra))
        b = write_json(tmp_path / "b.json", mat_strings(rb))
        for raw in (False, True):
            code, out, _ = run(capsys, "gcrd", a, b, *(["--raw"] if raw else []))
            assert code == 0
            doc = json.loads(out)
            cert = gcrd(IntMat(ra), IntMat(rb), canonical=not raw)
            assert doc["l"] == mat_strings(cert.l)
            assert doc["p"] == mat_strings(cert.p)
            assert doc["q"] == mat_strings(cert.q)
            assert doc["identity_holds"] is True
            assert doc["coprime"] is is_unimodular(cert.l)


def test_lcrm_lclm_subcommands(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", mat_strings([[4, 0], [0, 6]]))
    b = write_json(tmp_path / "b.json", mat_strings([[6, 0], [0, 4]]))
    code, out, _ = run(capsys, "lcrm", a, b)
    assert code == 0
    assert json.loads(out)["lcrm"] == [["12", "0"], ["0", "12"]]
    code, out, _ = run(capsys, "lclm", a, b)
    assert code == 0
    assert json.loads(out)["lclm"] == [["12", "0"], ["0", "12"]]


def test_mod_subcommand(tmp_path, capsys):
    mat = write_json(tmp_path / "m1.json", mat_strings([[13, 8], [8, 13]]))
    vec = write_json(tmp_path / "v.json", ["328", "288"])
    code, out, _ = run(capsys, "mod", mat, vec)
    assert code == 0
    doc = json.loads(out)
    assert doc["remainder"] == ["14", "14"]
    assert doc["folding"] == ["18", "10"]


def test_crt_subcommand_worked_example(tmp_path, capsys):
    m = [[4, 3], [3, 4]]
    gs = [[[4, -1], [-1, 4]], [[7, 4], [4, 7]], [[-2, 6], [6, -2]]]

    def matmul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]

    mods = [matmul(m, g) for g in gs]
    system = write_json(
        tmp_path / "sys.json",
        {
            "moduli": [mat_strings(x) for x in mods],
            "remainders": [["14", "14"], ["39", "38"], ["14", "14"]],
        },
    )
    code, out, _ = run(capsys, "crt", system)
    assert code == 0
    doc = json.loads(out)
    sol = [int(x) for x in doc["solution"]]
    # same residue class as the known answer under every modulus
    from mdcrt import IntVec, mod_reduce

    for mod in mods:
        mm = IntMat(mod)
        assert (
            mod_reduce(IntVec(sol), mm).value
            == mod_reduce(IntVec([328, 288]), mm).value
        )


def test_crt_inconsistent_exit_code(tmp_path, capsys):
    system = write_json(
        tmp_path / "sys.json",
        {
            "moduli": [mat_strings([[4, 0], [0, 4]]), mat_strings([[6, 0], [0, 6]])],
            "remainders": [["1", "0"], ["2", "0"]],
        },
    )
    code, out, err = run(capsys, "crt", system)
    assert code == 2
    doc = json.loads(err)
    assert doc["error"]["code"] == "CRT_INCONSISTENT"


def test_lattice_subcommand(tmp_path, bench, capsys):
    code, out, _ = run(capsys, "lattice", bench, "--mindist")
    assert code == 0
    assert json.loads(out)["min_distance_sq"] == "2368"
    target = write_json(tmp_path / "t.json", ["5", "-8"])
    basis = write_json(tmp_path / "b.json", mat_strings([[8, -8], [-8, 16]]))
    code, out, _ = run(capsys, "lattice", basis, "--cvp", target)
    assert json.loads(out)["closest"] == ["8", "-8"]
    frac = write_json(tmp_path / "f.json", ["3/4", "1/4"])
    ident = write_json(tmp_path / "i.json", mat_strings([[1, 0], [0, 1]]))
    code, out, _ = run(capsys, "lattice", ident, "--cvp", frac)
    assert json.loads(out)["closest"] == ["1", "0"]
    for entry in ("1/0", "x"):
        bad = write_json(tmp_path / "bad.json", [entry, "0"])
        code, _, err = run(capsys, "lattice", ident, "--cvp", bad)
        assert code == 1 and err.startswith("error: bad target entry")


def test_robust_subcommand(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "cfg.json",
        {
            "common": mat_strings([[48, 17], [8, 46]]),
            "cofactors": [
                mat_strings([[1, 3], [3, 1]]),
                mat_strings([[3, 4], [4, 3]]),
            ],
            "rtilde": [["10", "5"], ["22", "11"]],
        },
    )
    code, out, _ = run(capsys, "robust", cfg, "--algorithm", "1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["folding_vectors"]) == 2
    assert len(doc["reconstruction"]) == 2


def test_fig1_deterministic_bytes(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["fig1", "--taus", "0,4", "--trials", "20", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    lines = text.strip().split("\n")
    assert lines[0].startswith("# meta: version=")
    assert "seed=5" in lines[0]
    assert lines[1] == "case,tau,mean_error,success_rate"
    assert len(lines) == 2 + 2 * 2
    assert text.endswith("\n") and "\r" not in text


# SHA-256 of the CSV bytes, meta line included, at a fixed seed. The
# freqest rows are floats from numpy's FFT and generators, so they are
# pinned for one numpy build; the fig1 rows are exact up to the final
# float conversions.
GOLDEN_CSV = {
    ("fig1", "1", "l2"): "218d1555b41b229362e7fb792f367984c43a162dd16c1bf26f6afbfd0e97ebab",
    ("fig1", "1", "l1"): "3a38074f341709c138e333601b6a29b03166083c5c1cc043a99d256516274863",
    ("fig1", "1", "linf"): "c7b94b1e21bd82e91d0c2467a5c22a3d9789818b94b71bed25e06638cc3b633f",
    ("fig1", "2", "l2"): "674d354b42fef21289e5b29818deb3cc0a38e955f9b28a594af7faf542e19124",
    ("fig1", "2", "l1"): "f9b550b2b303db34004913fb14aa8ba784f328c9a5c6cef53d28c0afc3938d07",
    ("fig1", "2", "linf"): "aecc780e183ff89b604132d967d2a22d0c9772618067ba1f1a2c079c0d5f21c7",
    ("freqest",): "27627f6076ddb31799e42298162cd53d8899ebcc60061c410125d9ca11fcb31b",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_CSV), ids="-".join)
def test_csv_bytes_match_golden_digest(tmp_path, capsys, key):
    if key[0] == "fig1":
        args = ["fig1", "--trials", "8", "--seed", "7",
                "--algorithm", key[1], "--norm", key[2]]
    else:
        args = ["freqest", "--trials", "5", "--seed", "3"]
    out = tmp_path / "out.csv"
    assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CSV[key]


# Inputs from the README: the library sketch's circulants G_k and moduli
# [[4,3],[3,4]] @ G_k with the remainders of m = (328, 288), and the
# default fig1 sampler [[48,17],[8,46]] times its two cofactors.
_SKETCH = [[[13, 8], [8, 13]], [[40, 37], [37, 40]], [[10, 18], [18, 10]]]
_CIRCULANTS = [[[4, -1], [-1, 4]], [[7, 4], [4, 7]], [[-2, 6], [6, -2]]]
_SAMPLERS = [[[99, 161], [146, 70]], [[212, 243], [208, 170]]]
_DIVISOR_PAIRS = [_SKETCH[:2], _CIRCULANTS[:2], _SAMPLERS]
_CRT_SYSTEMS = {
    "general": {"moduli": _SKETCH, "remainders": [[14, 14], [39, 38], [14, 14]]},
    "cc": {"moduli": _CIRCULANTS, "remainders": [[2, 2], [6, 5], [2, 2]]},
    "explicit": {
        "moduli": _SKETCH,
        "remainders": [[14, 14], [39, 38], [14, 14]],
        "factors": [_SKETCH[0], *_CIRCULANTS[1:]],
    },
    "diag": {
        "moduli": [[[4, 3], [2, 3]], [[6, 2], [3, 2]]],
        "remainders": [[4, 3], [1, 1]],
        "u": [[2, 1], [1, 1]],
        "lambdas": [[[2, 0], [0, 3]], [[3, 0], [0, 2]]],
    },
}


def _strings(obj):
    return [_strings(x) for x in obj] if isinstance(obj, list) else str(obj)


def cli_output_bytes(tmp_path, key) -> bytes:
    """Standard output of the CLI runs behind one GOLDEN_CLI key."""
    if key[0] == "crt":
        cfg = {k: _strings(v) for k, v in _CRT_SYSTEMS[key[1]].items()}
        runs = [["crt", write_json(tmp_path / "sys.json", cfg), "--method", key[1]]]
    else:
        runs = [
            [
                key[0],
                write_json(tmp_path / f"a{i}.json", _strings(a)),
                write_json(tmp_path / f"b{i}.json", _strings(b)),
                *key[1:],
            ]
            for i, (a, b) in enumerate(_DIVISOR_PAIRS)
        ]
    out = io.StringIO()
    with redirect_stdout(out):
        for argv in runs:
            assert main(argv) == 0
    return out.getvalue().encode()


# SHA-256 of the JSON the CLI prints for exact results, taken at 576401b:
# every certificate byte of gcld/gcrd, the canonical and raw bases of
# lcrm/lclm, and each crt method's solution and modulus.
GOLDEN_CLI = {
    ("crt", "general"): "32d095c1f2857c1c1662c454eb512567ef5924b8a30baf72c9cf94376148dcf8",
    ("crt", "cc"): "eb2d8d348ae8171fad80dac7c0f0e6f501339a2fc7832fbc3a83a153497e16e5",
    ("crt", "explicit"): "49886467818e3f30314f9c0a123c2a68fa89cc3cf5a6fe00f236a3b27d798b10",
    ("crt", "diag"): "8f7305b5fba74b57604f5d147db51cff4289c7418d44a5323e747de47fd08588",
    ("gcld",): "e817761c862d70d35c2f2a0cb3f759cab4fe4710e95b67504593d3970df9fe71",
    ("gcld", "--raw"): "4a290cdcaf66ab5ca4c0e94421c16ccfc32586873e461be48ba8019abae68e87",
    ("gcrd",): "a4b49170c1f1538b5ac5e15ef220b8e1664b1af07280118f282f19707f479dee",
    ("gcrd", "--raw"): "776346d0365110204bc9f68dc130ad6ab54582e29c1dc4129f6dc6cdde2fad86",
    ("lcrm",): "179616960447e4c24c47bb61da16c17a1e556ee6526c84143abfc6dc276241aa",
    ("lcrm", "--raw"): "843680322b4bb3fbb0ff6674dd327de41cf4e12ed9f95327d7ff5a6466014ab9",
    ("lclm",): "87ba89d6889de12981408f2bf540268498d280c3b53dfea49ceaf13fcd2bd1c7",
    ("lclm", "--raw"): "81461996df765868f62323007d16e1b89cb4d91ff7aa137d1da949efd68af1cf",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_CLI), ids="".join)
def test_cli_json_bytes_match_golden_digest(tmp_path, key):
    digest = hashlib.sha256(cli_output_bytes(tmp_path, key)).hexdigest()
    assert digest == GOLDEN_CLI[key]


def test_freqest_csv(tmp_path, capsys):
    out = tmp_path / "f.csv"
    code = main(
        [
            "freqest",
            "--snr-start", "-20", "--snr-stop", "-20", "--snr-step", "2",
            "--trials", "3",
            "--seed", "7",
            "--case", "base",
            "--out", str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[1] == "case,snr_db,p_detect,mean_rel_error"
    row = lines[2].split(",")
    assert row[0] == "base" and float(row[1]) == -20.0


def test_emit_csv_empty_rows(tmp_path):
    out = tmp_path / "empty.csv"
    emit_csv([], ["a", "b"], str(out), {"seed": 1})
    lines = out.read_text().split("\n")
    assert lines[0].startswith("# meta:")
    assert lines[1] == "a,b"
    assert lines[2] == ""


def test_usage_error_exit_code(capsys):
    assert main(["lattice"]) == 1
    capsys.readouterr()


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_cli_subprocess(argv, **env):
    """``python -m mdcrt`` in a subprocess with a 30 s timeout and a 1 GiB
    address-space limit, so that an input that loops or grows without end
    fails the test instead of hanging the suite or filling host memory."""
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(mdcrt.__file__).parents[1]),
        OPENBLAS_NUM_THREADS="1",  # per-thread BLAS buffers count against the limit
        **env,
    )
    return subprocess.run(
        [sys.executable, "-m", "mdcrt", *argv],
        capture_output=True,
        text=True,
        timeout=30,
        env=env,
        preexec_fn=_limit_address_space,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["fig1", "--trials", "0"],
        ["freqest", "--trials", "0"],
        ["fig1", "--taus", "a"],
        ["fig1", "--taus", "0:4:0"],
        ["freqest", "--freq", "1,x"],
        ["freqest", "--snr-step", "0"],
        ["freqest", "--snr-start", "1e17", "--snr-stop", "2e17", "--snr-step", "1"],
        ["freqest", "--snr-stop", "inf"],
        ["freqest", "--snr-stop", "nan"],
        ["freqest", "--snr-start=-inf"],
        ["freqest", "--snr-step", "inf"],
        ["freqest", "--snr-start", "0", "--snr-stop", "1", "--snr-step", "1e-6"],
        ["freqest", "--snr-step", "5e-324"],
        ["freqest", "--seed", "-1"],
        ["freqest", "--snr-start=-1e308", "--snr-stop=-1e308"],
        ["freqest", "--snr-start", "-20", "--snr-stop", "-30"],
        ["fig1", "--taus", "4:0:1"],
        ["fig1", "--taus", "0:1000000000000"],
    ],
    ids=" ".join,
)
def test_bad_numeric_arguments_rejected_at_parse_time(argv):
    proc = run_cli_subprocess(argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_bad_enum_cap_is_a_domain_error():
    argv = ["fig1", "--trials", "1", "--taus", "0"]
    proc = run_cli_subprocess(argv, MDCRT_ENUM_CAP="abc")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stderr)
    assert payload["error"]["code"] == "CONDITION_VIOLATED"
    assert "MDCRT_ENUM_CAP" in payload["error"]["message"]


@pytest.mark.parametrize(
    "freq", ["0,0", f"{10**200},1", "1,-1,0"], ids=["zero", "huge", "3-d"]
)
def test_degenerate_frequency_is_a_domain_error(capsys, freq):
    """A zero frequency has no relative error and a huge one overflows
    it; both, like a wrong dimension, are domain errors."""
    argv = ["freqest", "--freq", freq, "--trials", "1", "--case", "base",
            "--snr-start", "0", "--snr-stop", "0"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "code" in json.loads(err)["error"]


# argument values that are not finite, or not numbers, or far out of range
_WILD = ["inf", "-inf", "nan", "1e308", "-1e308", "x", ""]


def _mostly(valid):
    """``valid`` three times in four, else a wild value."""
    return st.one_of(valid, valid, valid, st.sampled_from(_WILD))


_SEEDS = _mostly(st.one_of(st.integers(-3, 3), st.sampled_from([-(10**30), 10**30])))
_TRIALS = st.one_of(st.integers(1, 2), st.integers(-2, 2))


@st.composite
def _taus(draw):
    values = st.sampled_from([-3, 0, 2, 30, 10**7, 10**30])
    if draw(st.booleans()):
        return ",".join(map(str, draw(st.lists(values, max_size=3))))
    start = draw(values)
    step = draw(st.sampled_from([-2, -1, 0, 1, 2]))
    k = draw(st.integers(-1, 2))  # at most 3 values
    return f"{start}:{start + (k - 1) * step}:{step}"


@st.composite
def _snr_grid(draw):
    start = draw(st.sampled_from(
        [-38.0, -20.0, 0.0, 20.0, -1000.0, 1000.0, -1e308, 1e308, 5e-324]
    ))
    step = draw(st.sampled_from([2.0, 0.5, 1e308, 5e-324, -2.0, 0.0]))
    k = draw(st.integers(-1, 2))  # at most 3 points
    return [repr(start), repr(start + k * step), repr(step)]


_FREQS = st.lists(
    st.sampled_from([0, 1, -1645, 1645, 1373, 10**155, -(10**200)]),
    min_size=1,
    max_size=3,
).map(lambda f: ",".join(map(str, f)))


@st.composite
def _fig1_argv(draw):
    return [
        "fig1",
        f"--taus={draw(_mostly(_taus()))}",
        f"--trials={draw(_TRIALS)}",
        f"--seed={draw(_SEEDS)}",
        f"--algorithm={draw(st.sampled_from([1, 2]))}",
    ]


@st.composite
def _freqest_argv(draw):
    start, stop, step = draw(_snr_grid())
    argv = [
        "freqest",
        f"--snr-start={draw(_mostly(st.just(start)))}",
        f"--snr-stop={draw(_mostly(st.just(stop)))}",
        f"--snr-step={draw(_mostly(st.just(step)))}",
        f"--trials={draw(_TRIALS)}",
        f"--seed={draw(_SEEDS)}",
        "--case=base",  # one case keeps each run short
    ]
    if draw(st.booleans()):
        argv.append(f"--freq={draw(_mostly(_FREQS))}")
    return argv


@settings(max_examples=60, deadline=timedelta(seconds=10), derandomize=True, database=None)
@given(argv=st.one_of(_fig1_argv(), _freqest_argv()))
def test_cli_contract_on_generated_numbers(argv):
    """Every run exits 0, 1 or 2 without an escaping exception."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


_BENCH = mat_strings([[48, 17], [8, 46]])


@pytest.mark.parametrize(
    "command, payload",
    [
        (["robust"], 5),
        (["fig1", "--trials", "1", "--config"], {"cases": [5]}),
        (["fig1", "--trials", "1", "--config"], {"cases": 5}),
        (["freqest", "--trials", "1", "--case", "custom", "--custom-file"], {"cases": [5]}),
        (["crt"], {"moduli": 5, "remainders": []}),
        (["robust"], {"common": _BENCH, "cofactors": 5, "rtilde": [["1", "2"]]}),
        (["smith"], "[" * 100_000),
    ],
    ids=["robust-5", "fig1-cases-[5]", "fig1-cases-5", "freqest-cases-[5]",
         "crt-moduli-5", "robust-cofactors-5", "smith-deep-nesting"],
)
def test_json_of_the_wrong_shape_is_a_usage_error(tmp_path, command, payload):
    path = tmp_path / "payload.json"
    if isinstance(payload, str):
        path.write_text(payload, encoding="utf-8")
    else:
        write_json(path, payload)
    proc = run_cli_subprocess([*command, str(path)])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("rows", [[[]], [[], []]], ids=["[[]]", "[[],[]]"])
@pytest.mark.parametrize("command", ["smith", "lattice", "crt"])
def test_empty_matrix_rows_are_a_usage_error(tmp_path, command, rows):
    """A matrix of empty rows is malformed input, like the empty array."""
    path = tmp_path / "m.json"
    if command == "crt":
        write_json(path, {"moduli": [rows], "remainders": [["1"]]})
        argv = ["crt", str(path)]
    else:
        write_json(path, rows)
        argv = [command, str(path)] + (["--mindist"] if command == "lattice" else [])
    proc = run_cli_subprocess(argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


# an integer entry is a decimal string, small or huge, or a JSON integer
_INT = st.one_of(
    st.integers(-9, 9).map(str),
    st.integers(-(10**30), 10**30).map(str),
    st.integers(-9, 9),
)
# JSON values that are not integer entries
_NOT_INT = st.one_of(st.floats(), st.booleans(), st.none(), st.just("1.5"))


def _rarely(draw) -> bool:
    """True one time in ten; False is the simplest draw."""
    return draw(st.sampled_from([False] * 9 + [True]))


@st.composite
def _entries(draw, count):
    """``count`` integer entries, one of them rarely of the wrong type."""
    values = [draw(_INT) for _ in range(count)]
    if values and _rarely(draw):
        values[draw(st.integers(0, count - 1))] = draw(_NOT_INT)
    return values


@st.composite
def _vector(draw, dim):
    if draw(st.booleans()):
        return ["0"] * dim  # reduced modulo every modulus
    return draw(_entries(dim))


@st.composite
def _matrix(draw, dim):
    kind = draw(st.sampled_from(
        ["dense"] * 4 + ["diagonal"] * 3 + ["ragged", "singular", "empty"]
    ))
    if kind == "empty":
        return draw(st.sampled_from([[], [[]]]))
    if kind == "diagonal":
        return [[str(draw(st.integers(1, 9)) * (i == j)) for j in range(dim)]
                for i in range(dim)]
    flat = draw(_entries(dim * dim))
    rows = [flat[i * dim : (i + 1) * dim] for i in range(dim)]
    if kind == "ragged":
        rows[-1] = rows[-1][:-1]
    elif kind == "singular":
        rows[-1] = list(rows[0]) if dim > 1 else ["0"]
    return rows


def _some(strategy, count):
    """A JSON array of ``count`` draws, rarely one too few or too many."""
    n = st.sampled_from([count] * 8 + [count - 1, count + 1])
    return n.flatmap(lambda k: st.lists(strategy, min_size=k, max_size=k))


class _File(NamedTuple):
    """An argument that is the path of a file holding ``payload`` as JSON."""

    payload: object


@st.composite
def _payload(draw, fields):
    """A JSON object of ``fields`` (name -> strategy); each key is rarely
    dropped or given a value of the wrong type, and the whole payload is
    rarely not an object."""
    if _rarely(draw):
        return _File(draw(st.sampled_from([5, "x", None, []])))
    obj = {}
    for name, strategy in fields.items():
        if not _rarely(draw):
            obj[name] = draw(strategy)
        elif draw(st.booleans()):
            obj[name] = draw(st.sampled_from([5, "x", {}]))
    return _File(obj)


@st.composite
def _crt_argv(draw):
    dim, count = draw(st.integers(1, 7)), draw(st.integers(1, 3))
    fields = {
        "moduli": _some(_matrix(dim), count),
        "remainders": _some(_vector(dim), count),
        "factors": _some(_matrix(dim), count),
        "u": _matrix(dim),
        "lambdas": _some(_matrix(dim), count),
    }
    method = draw(st.sampled_from(["general", "cc", "explicit", "diag"]))
    return ["crt", f"--method={method}", draw(_payload(fields))]


@st.composite
def _lattice_argv(draw):
    dim = draw(st.integers(1, 7))
    argv = ["lattice", f"--norm={draw(st.sampled_from(['l1', 'l2', 'linf']))}"]
    argv.append(_File(draw(_matrix(dim))))
    if draw(st.booleans()):
        return argv + ["--mindist"]
    target = draw(_entries(dim + _rarely(draw)))
    if draw(st.booleans()):  # a rational entry, or one over zero
        p, q = draw(st.integers(-99, 99)), draw(st.integers(-3, 9))
        target[-1] = f"{p}/{q}"
    return argv + ["--cvp", _File(target)]


def _circulant_robust_config(rng: random.Random) -> dict:
    """A robust config whose 1 to 3 cofactors are nonsingular 2x2
    circulants that pass circulant2_coprime pairwise (circulants always
    commute), so that most such configs are valid and recover."""
    pairs: list[tuple[int, int]] = []
    count = rng.randint(1, 3)
    while len(pairs) < count:
        p, q = rng.randint(-9, 9), rng.randint(-9, 9)
        if abs(p) != abs(q) and all(circulant2_coprime(p, q, *pq) for pq in pairs):
            pairs.append((p, q))
    return {
        "common": mat_strings([[rng.randint(-60, 60) for _ in range(2)] for _ in range(2)]),
        "cofactors": [mat_strings([[p, q], [q, p]]) for p, q in pairs],
        "rtilde": [[str(rng.randint(-99, 99)) for _ in range(2)] for _ in pairs],
    }


@st.composite
def _robust_argv(draw):
    dim, count = draw(st.integers(1, 7)), draw(st.integers(1, 3))
    fields = {
        "common": _matrix(dim),
        "cofactors": _some(_matrix(dim), count),
        "rtilde": _some(_vector(dim), count),
        "u1": _matrix(dim),
    }
    circulants = st.randoms(use_true_random=False).map(
        lambda rng: _File(_circulant_robust_config(rng))
    )
    algorithm = draw(st.sampled_from([1, 2]))
    norm = draw(st.sampled_from(["l1", "l2", "linf"]))
    payload = draw(st.one_of(_payload(fields), circulants))
    return ["robust", f"--algorithm={algorithm}", f"--norm={norm}", payload]


@settings(max_examples=60, deadline=timedelta(seconds=10), derandomize=True, database=None)
@given(argv=st.one_of(_crt_argv(), _lattice_argv(), _robust_argv()))
def test_cli_contract_on_generated_payloads(argv):
    """JSON payloads of every shape exit 0, 1 or 2 without an escaping
    exception; exit 2 comes with one JSON error object on stderr."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        args = [
            write_json(Path(tmp) / f"{i}.json", a.payload) if isinstance(a, _File) else a
            for i, a in enumerate(argv)
        ]
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(args)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "code" in json.loads(err.getvalue())["error"]


def test_generated_circulant_payloads_recover(tmp_path):
    """Of 20 seeded circulant payloads at least one recovers (exit 0), and
    every printed reconstruction equals a direct robust_reconstruct."""
    recovered = 0
    for seed in range(20):
        rng = random.Random(seed)
        cfg = _circulant_robust_config(rng)
        algorithm, norm = rng.choice([1, 2]), rng.choice(list(Norm))
        path = write_json(tmp_path / f"{seed}.json", cfg)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["robust", f"--algorithm={algorithm}", f"--norm={norm.value}", path])
        assert code in (0, 2), err.getvalue()
        if code:
            continue
        recovered += 1
        rm = RobustModuli(
            IntMat([[int(x) for x in row] for row in cfg["common"]]),
            [IntMat([[int(x) for x in row] for row in g]) for g in cfg["cofactors"]],
        )
        rtilde = [IntVec([int(x) for x in v]) for v in cfg["rtilde"]]
        trace = recover_folding_vectors(rtilde, rm, algorithm, norm)
        exact, rounded = robust_reconstruct(trace, rtilde, rm)
        printed = json.loads(out.getvalue())
        assert printed["reconstruction"] == [str(x) for x in rounded]
        assert printed["reconstruction_exact"] == [str(f) for f in exact]
    assert recovered >= 1
