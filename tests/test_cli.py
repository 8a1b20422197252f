import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mdcrt
from mdcrt.cli import emit_csv, main, parse_matrix_file
from mdcrt import IntMat


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


@pytest.mark.parametrize(
    "argv",
    [
        ["fig1", "--trials", "0"],
        ["freqest", "--trials", "0"],
        ["fig1", "--taus", "a"],
        ["fig1", "--taus", "0:4:0"],
        ["freqest", "--freq", "1,x"],
        ["freqest", "--snr-step", "0"],
    ],
    ids=" ".join,
)
def test_bad_numeric_arguments_rejected_at_parse_time(argv):
    # a subprocess with a timeout, so that an input that loops forever
    # fails the test instead of hanging the suite
    env = dict(os.environ, PYTHONPATH=str(Path(mdcrt.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "mdcrt", *argv],
        capture_output=True,
        text=True,
        timeout=30,
        env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
