import csv
import hashlib
import json
import math

import numpy as np
import pytest

from chaoslab import (
    InvalidInputError,
    PeriodicLaw,
    Word,
    build_report,
    doubling_law,
    load_law,
    load_system,
    save_law,
)
from chaoslab.cli import main
from chaoslab.specfiles import write_csv, write_json

DIAG_SYSTEM = {
    "dim": 2,
    "matrices": {
        "1": [[0.5, 0.0], [0.0, 0.5]],
        "2": [[2.0, 0.0], [0.0, 2.0]],
    },
}

SHEAR_SYSTEM = {
    "dim": 2,
    "matrices": {
        "1": [[0.6, 0.6], [0.0, 0.6]],
        "2": [[0.6, 0.0], [0.6, 0.6]],
    },
}


@pytest.fixture
def diag_file(tmp_path):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(DIAG_SYSTEM))
    return str(path)


@pytest.fixture
def shear_file(tmp_path):
    path = tmp_path / "shear.json"
    path.write_text(json.dumps(SHEAR_SYSTEM))
    return str(path)


# ---------------------------------------------------------------------------
# system files


def test_load_system_round_trip(diag_file):
    system, digest = load_system(diag_file)
    assert system.dim == 2
    assert system.alphabet_size == 2
    assert np.allclose(system.generator(2), np.diag([2.0, 2.0]))
    raw = open(diag_file, "rb").read()
    assert digest == hashlib.sha256(raw).hexdigest()


def test_load_system_rejects_bad_labels(tmp_path):
    bad = dict(DIAG_SYSTEM, matrices={"1": DIAG_SYSTEM["matrices"]["1"], "3": DIAG_SYSTEM["matrices"]["2"]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError) as err:
        load_system(str(path))
    assert "labels" in str(err.value)


def test_load_system_rejects_malformed(tmp_path):
    cases = [
        "{",  # not JSON
        json.dumps([1, 2]),  # not an object
        json.dumps({"dim": 2}),  # missing matrices
        json.dumps({"dim": 0, "matrices": {"1": [[1.0]]}}),
        json.dumps({"dim": 2, "matrices": {"1": [[1.0, 0.0]]}}),  # wrong rows
        json.dumps({"dim": 1, "matrices": {"1": [["x"]]}}),  # non-number
        json.dumps({"dim": 1, "matrices": {"1": [[True]]}}),  # bool is not a number
        json.dumps({"dim": 1, "matrices": {"1": [[0.0]]}}),  # singular
    ]
    for i, body in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        path.write_text(body)
        with pytest.raises(InvalidInputError) as err:
            load_system(str(path))
        assert path.name in str(err.value)


def test_load_system_missing_file(tmp_path):
    with pytest.raises(InvalidInputError):
        load_system(str(tmp_path / "nope.json"))


# ---------------------------------------------------------------------------
# law files


def test_save_and_load_law(tmp_path):
    path = str(tmp_path / "law.json")
    law = PeriodicLaw(Word((1, 2, 2), 2))
    save_law(law, path)
    back = load_law(path)
    assert back.sequence(30) == law.sequence(30)


def test_save_and_load_doubling(tmp_path):
    path = str(tmp_path / "law.json")
    save_law(doubling_law(), path)
    back = load_law(path)
    assert back.sequence(130) == doubling_law().sequence(130)


def test_load_law_error_names_file(tmp_path):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"type": "periodic", "alphabet": 2}))
    with pytest.raises(InvalidInputError) as err:
        load_law(str(path))
    assert "law.json" in str(err.value)


@pytest.mark.parametrize(
    "spec",
    [
        {"type": "blocks", "alphabet": 2, "blocks": [[1, 2.5]]},  # length
        {"type": "blocks", "alphabet": 2, "blocks": [["1", True]]},  # symbol
        {"type": "blocks", "alphabet": 2, "blocks": [[True, 2]]},  # bool symbol
        {"type": "constructed", "alphabet": 2, "prefix": [], "i": [1], "j": [2],
         "schedule": [[1.9, 2.2]]},  # exponents
        {"type": "constructed", "alphabet": 2, "prefix": [], "i": [1], "j": [2],
         "schedule": [[1, True]]},  # bool exponent
        {"type": "explicit", "alphabet": 2, "prefix": [1], "fallback": True},
        {"type": "explicit", "alphabet": 2, "prefix": [1], "fallback": 1.5},
    ],
)
def test_law_file_rejects_non_integer_numbers(spec, diag_file, tmp_path, capsys):
    path = tmp_path / "law.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(InvalidInputError):
        load_law(str(path))
    rc = main(["simulate", "--system", diag_file, "--law", str(path), "--horizon", "5"])
    assert rc == 2
    assert "law.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# writers and reports


def test_write_json_is_sorted_and_ends_with_newline(tmp_path):
    path = str(tmp_path / "out.json")
    write_json(path, {"b": np.float64(1.5), "a": np.int64(2), "c": (1, 2)})
    body = open(path).read()
    assert body.endswith("\n")
    assert body.index('"a"') < body.index('"b"')
    assert json.loads(body) == {"a": 2, "b": 1.5, "c": [1, 2]}


def test_write_csv(tmp_path):
    path = str(tmp_path / "out.csv")
    write_csv(path, ["n", "v"], [[1, 0.5], [2, 0.25]])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["n", "v"], ["1", "0.5"], ["2", "0.25"]]


def test_build_report_is_deterministic():
    a = build_report("jsr", {"gap": 0.01}, {"lower": 1.0}, system_digest="ab")
    b = build_report("jsr", {"gap": 0.01}, {"lower": 1.0}, system_digest="ab")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert "timings" not in a


# ---------------------------------------------------------------------------
# CLI


def test_cli_analyze_and_simulate(diag_file, tmp_path, capsys):
    report = str(tmp_path / "analyze.json")
    law_path = str(tmp_path / "law.json")
    rc = main([
        "analyze", "--system", diag_file, "--word-len", "3",
        "--kmax", "2", "--json", report, "--out", law_path,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "chaotic-law-constructed" in out
    data = json.load(open(report))
    assert data["results"]["certificate"]["schedule"] == [[1, 2], [3, 4]]
    assert data["tool_version"]

    csv_path = str(tmp_path / "traj.csv")
    rc = main([
        "simulate", "--system", diag_file, "--law", law_path,
        "--x0", "1,0", "--horizon", "10", "--csv", csv_path,
    ])
    assert rc == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "symbol", "log10_magnitude", "u1", "u2"]
    assert len(rows) == 11
    # first step of the constructed law halves the state
    assert float(rows[1][2]) == pytest.approx(math.log10(0.5), abs=1e-12)


def test_cli_construct_refusal_exit_code(shear_file, capsys):
    rc = main([
        "construct", "--system", shear_file, "--i", "2", "--j", "1", "--kmax", "1",
    ])
    assert rc == 2
    assert "refused" in capsys.readouterr().err


def test_cli_construct_writes_law(diag_file, tmp_path, capsys):
    law_path = str(tmp_path / "law.json")
    rc = main([
        "construct", "--system", diag_file, "--i", "1", "--j", "2",
        "--prefix", "2-2", "--kmax", "2", "--out", law_path,
    ])
    assert rc == 0
    law = load_law(law_path)
    assert law.sequence(2) == [2, 2]


def test_cli_jsr_report(shear_file, tmp_path, capsys):
    report = str(tmp_path / "jsr.json")
    rc = main(["jsr", "--system", shear_file, "--gap", "0.008", "--json", report])
    assert rc == 0
    data = json.load(open(report))
    assert data["results"]["lower"] == pytest.approx(0.970820393249937, abs=1e-9)
    assert data["results"]["converged"]
    assert "jsr in [" in capsys.readouterr().out


def test_cli_jsr_budget_exit_code(tmp_path, capsys):
    single = {"dim": 2, "matrices": {"1": [[1.0, 1.0], [0.0, 1.0]]}}
    path = tmp_path / "single.json"
    path.write_text(json.dumps(single))
    rc = main(["jsr", "--system", str(path), "--nodes", "40", "--gap", "0.001"])
    assert rc == 3


def test_cli_stability(shear_file, capsys):
    rc = main(["stability", "--system", shear_file, "--max-len", "6"])
    assert rc == 0
    assert "stable up to length 6" in capsys.readouterr().out


def test_cli_stability_truncation_exit_code(shear_file, capsys):
    rc = main(["stability", "--system", shear_file, "--max-len", "10", "--budget", "5"])
    assert rc == 3


def test_cli_growth_with_probe(tmp_path, capsys):
    single = {"dim": 2, "matrices": {"1": [[1.0, 1.0], [0.0, 1.0]]}}
    path = tmp_path / "single.json"
    path.write_text(json.dumps(single))
    csv_path = str(tmp_path / "growth.csv")
    rc = main([
        "growth", "--system", str(path), "--nmax", "10",
        "--probe", "--csv", csv_path,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "growing" in out
    assert "bounded-so-far" in out
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "log10_max_norm", "argmax_word"]
    assert len(rows) == 11


def test_cli_runs(diag_file, tmp_path, capsys):
    law_path = str(tmp_path / "law.json")
    save_law(doubling_law(), law_path)
    rc = main(["runs", "--law", law_path, "--horizon", "126", "--max-run", "20"])
    assert rc == 0
    assert "consistent-with-run-nonchaotic" in capsys.readouterr().out
    rc = main([
        "runs", "--law", law_path, "--system", diag_file,
        "--horizon", "200", "--max-run", "5",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "decay:" in out


def test_cli_lyapunov(diag_file, capsys):
    rc = main(["lyapunov", "--system", diag_file, "--samples", "20",
               "--horizon", "50", "--seed", "3"])
    assert rc == 0
    assert "lyapunov estimate" in capsys.readouterr().out


def test_cli_invalid_system_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    rc = main(["jsr", "--system", str(path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_word_exit_code(diag_file, capsys):
    rc = main(["construct", "--system", diag_file, "--i", "1-x", "--j", "2"])
    assert rc == 2


def test_cli_report_reproducible(shear_file, tmp_path):
    a_path = str(tmp_path / "a.json")
    b_path = str(tmp_path / "b.json")
    assert main(["jsr", "--system", shear_file, "--json", a_path]) == 0
    assert main(["jsr", "--system", shear_file, "--json", b_path]) == 0
    a = json.load(open(a_path))
    b = json.load(open(b_path))
    a.pop("timings")
    b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "chaoslab" in capsys.readouterr().out
