import csv
import hashlib
import json
import math
import os
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("spec", [
    {"type": "periodic", "alphabet": 2, "word": []},
    {"type": "constructed", "alphabet": 2, "prefix": [], "i": [], "j": [2],
     "schedule": [[1, 1]]},
    {"type": "constructed", "alphabet": 2, "prefix": [], "i": [1], "j": [],
     "schedule": [[1, 1]]},
], ids=["empty-word", "empty-i", "empty-j"])
def test_load_law_refuses_empty_words(spec, tmp_path):
    path = tmp_path / "law.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(InvalidInputError) as err:
        load_law(str(path))
    assert str(err.value).startswith(f"{path}: ")


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
        {"type": "periodic", "alphabet": 2, "word": [1.0]},
        {"type": "explicit", "alphabet": 2, "prefix": [1, 1.0]},
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


# Zeros, subnormals, infinities, NaN, the largest float and both sides of
# the 1e16 and 1e-4 switches between positional and exponent notation.
_CSV_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf,
              math.nan, 1.7976931348623157e308, 1e16, math.nextafter(1e16, 0.0),
              1e-4, math.nextafter(1e-4, 0.0)]


@settings(max_examples=200, deadline=None)
@example(values=_CSV_EDGES)
@given(values=st.lists(st.integers(0, 2**64 - 1).map(
    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]), min_size=1, max_size=40))
def test_write_csv_writes_numpy_and_python_floats_alike(values):
    # Both write the shortest decimal that parses back to the same float64.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        bodies = []
        for row in ([np.float64(v) for v in values], values):
            write_csv(path, ["v"] * len(values), [row])
            with open(path, "rb") as fh:
                bodies.append(fh.read())
    assert bodies[0] == bodies[1]
    fields = bodies[1].decode().splitlines()[1].split(",")
    assert [struct.pack("<d", float(f)) for f in fields if f != "nan"] == [
        struct.pack("<d", v) for v in values if not math.isnan(v)]


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


def test_cli_simulate_horizon_zero_reports_the_start_magnitude(diag_file, tmp_path, capsys):
    # The orbit's only state is x0 = (3, 4), of magnitude 5.
    law_path, report, csv_path = (str(tmp_path / name) for name in ("law.json", "r.json", "t.csv"))
    save_law(doubling_law(), law_path)
    rc = main(["simulate", "--system", diag_file, "--law", law_path, "--x0", "3,4",
               "--horizon", "0", "--json", report, "--csv", csv_path])
    assert rc == 0
    assert "log10 |x| final 0.6990, min 0.6990, max 0.6990" in capsys.readouterr().out
    summary = json.load(open(report))["results"]["summary"]
    assert summary == {"zero_input": False,
                       "final_log10_magnitude": math.log(5.0) / math.log(10.0),
                       "min_log10_magnitude": math.log(5.0) / math.log(10.0),
                       "max_log10_magnitude": math.log(5.0) / math.log(10.0)}
    assert summary["final_log10_magnitude"] == pytest.approx(math.log10(5.0), abs=1e-15)
    with open(csv_path, newline="") as fh:
        assert list(csv.reader(fh)) == [["n", "symbol", "log10_magnitude", "u1", "u2"]]


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


def test_cli_stability_zero_budget_report_is_strict_json(shear_file, tmp_path, capsys):
    report = tmp_path / "r.json"
    assert main(["stability", "--system", shear_file, "--budget", "0",
                 "--json", str(report)]) == 3

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    results = json.loads(report.read_text(), parse_constant=refuse)["results"]
    assert results["worst_word"] is None and results["worst_radius"] is None
    assert capsys.readouterr().out == "not certified stable: checked nothing [truncated]\n"


def test_cli_growth_probe_finds_no_subspace_at_large_scale(tmp_path, capsys):
    # {1e200 U, L} is irreducible, as {U, L} is.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 2, "matrices": {
        "1": [[1e200, 1e200], [0.0, 1e200]], "2": [[1.0, 0.0], [1.0, 1.0]]}}))
    report = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["growth", "--system", str(path), "--nmax", "3", "--probe",
                   "--json", str(report)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert json.loads(report.read_text())["results"]["restrictions"] == []


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


def test_cli_lyapunov_negative_seed_exit_code(diag_file, capsys):
    rc = main(["lyapunov", "--system", diag_file, "--seed", "-1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: seed must be a nonnegative integer")


# Squaring an entry of 1e200 overflows, so the 2x2 closed forms hand these
# generators to LAPACK.
BIG_SYSTEM = {
    "dim": 2,
    "matrices": {
        "1": [[1e200, 0.0], [0.0, 1e200]],
        "2": [[1.0, 0.0], [0.0, 1.0]],
    },
}


@pytest.fixture
def big_file(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(BIG_SYSTEM))
    return str(path)


@pytest.mark.parametrize("argv, key", [
    (["stability", "--max-len", "3"], "worst_radius"),
    (["jsr"], "lower"),
    (["lyapunov", "--samples", "2", "--horizon", "5"], None),
], ids=["stability", "jsr", "lyapunov"])
def test_cli_handles_entries_past_the_closed_forms_range(argv, key, big_file, tmp_path, capsys):
    report = tmp_path / "r.json"
    rc = main([*argv, "--system", big_file, "--json", str(report)])
    assert rc == 0, capsys.readouterr().err
    if key is not None:
        assert json.loads(report.read_text())["results"][key] == pytest.approx(1e200, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["simulate", "--law", "doubling.json", "--horizon", "300"],
    ["analyze", "--word-len", "3"],
], ids=["simulate", "analyze"])
def test_cli_handled_overflow_prints_no_numpy_warning(argv, big_file, tmp_path,
                                                      monkeypatch, capsys):
    (tmp_path / "doubling.json").write_text(json.dumps({"type": "doubling"}))
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([*argv, "--system", big_file])
    assert rc == 0
    assert capsys.readouterr().err == ""


def test_cli_growth_handles_products_past_float_range(big_file, tmp_path, capsys):
    # The length-3 maximum is 1e600, past the float range.
    report = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["growth", "--system", big_file, "--nmax", "3", "--json", str(report)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    results = json.loads(report.read_text())["results"]
    assert results["log10_max_norms"] == pytest.approx([200.0, 400.0, 600.0], rel=1e-12)
    assert results["argmax_words"] == ["1", "1-1", "1-1-1"]


def test_cli_simulate_horizon_past_the_step_budget(diag_file, tmp_path, capsys):
    from chaoslab.chaos import SIMULATE_BUDGET

    law_path = str(tmp_path / "law.json")
    save_law(doubling_law(), law_path)
    rc = main(["simulate", "--system", diag_file, "--law", law_path,
               "--horizon", str(SIMULATE_BUDGET + 1)])
    assert rc == 3
    assert "exceeds the step budget" in capsys.readouterr().err


def test_cli_invalid_system_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    rc = main(["jsr", "--system", str(path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_word_exit_code(diag_file, capsys):
    rc = main(["construct", "--system", diag_file, "--i", "1-x", "--j", "2"])
    assert rc == 2


UNWRITABLE = {
    "json": ["stability", "--system", "{shear}", "--max-len", "4", "--json", "{missing}/r.json"],
    "out": ["construct", "--system", "{diag}", "--i", "1", "--j", "2", "--out",
            "{missing}/law.json"],
    "csv": ["simulate", "--system", "{diag}", "--law", "{law}", "--horizon", "5", "--csv",
            "{missing}/t.csv"],
}


@pytest.mark.parametrize("argv", UNWRITABLE.values(), ids=UNWRITABLE.keys())
def test_cli_unwritable_output_exit_code(argv, diag_file, shear_file, tmp_path, capsys):
    law_path = str(tmp_path / "law.json")
    save_law(doubling_law(), law_path)
    paths = {"diag": diag_file, "shear": shear_file, "law": law_path,
             "missing": str(tmp_path / "missing")}
    rc = main([arg.format(**paths) for arg in argv])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / 'missing'}")
    assert not list(tmp_path.rglob(".chaoslab-*.tmp"))


@pytest.mark.parametrize("write", [
    lambda path: write_json(path, {"a": 1}),
    lambda path: write_csv(path, ["n"], [[1]]),
], ids=["json", "csv"])
def test_failed_rename_removes_the_temporary_file(write, tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(InvalidInputError, match="cannot write"):
        write(str(target))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_cli_analyze_tol(tmp_path, capsys):
    # (1 - 5e-14) I contracts only for tol below 5e-14.
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"dim": 2, "matrices": {
        "1": [[1.0 - 5e-14, 0.0], [0.0, 1.0 - 5e-14]], "2": [[2.0, 0.0], [0.0, 2.0]]}}))
    argv = ["analyze", "--system", str(path), "--word-len", "1", "--kmax", "1", "--tol"]
    assert main(argv + ["0"]) == 0
    assert "chaotic-law-constructed (contracting 1, expanding 2" in capsys.readouterr().out
    for bad in ("-0.5", "nan"):
        assert main(argv + [bad]) == 2
        assert capsys.readouterr().err == "error: tol must lie in [0, 1)\n"


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


PERIODIC_SPEC = {"alphabet": 2, "type": "periodic", "word": [1, 2, 2]}

# Report parameters of every subcommand: every option except the input and
# output paths, with --law as the law's description, construct's words
# normalized and simulate's x0 as the vector used.
REPORT_PARAMETERS = {
    "analyze": (["analyze", "--system", "{diag}", "--word-len", "3"],
                {"budget": 4194304, "kmax": 2, "tol": 1e-12, "word_len": 3}),
    "construct-normalized": (["construct", "--system", "{diag}", "--i", "01", "--j", "2-02",
                              "--prefix", "02-2-1", "--kmax", "3"],
                             {"i": "1", "j": "2-2", "kmax": 3, "prefix": "2-2-1"}),
    "construct-defaults": (["construct", "--system", "{diag}", "--i", "1", "--j", "2"],
                           {"i": "1", "j": "2", "kmax": 2, "prefix": ""}),
    "simulate-default-x0": (["simulate", "--system", "{diag}", "--law", "{periodic}",
                             "--horizon", "7"],
                            {"horizon": 7, "law": PERIODIC_SPEC, "x0": [1.0, 0.0]}),
    "simulate-x0": (["simulate", "--system", "{diag}", "--law", "{periodic}", "--x0", "3,-0.5"],
                    {"horizon": 10000, "law": PERIODIC_SPEC, "x0": [3.0, -0.5]}),
    "jsr": (["jsr", "--system", "{shear}", "--gap", "0.008"],
            {"gap": 0.008, "nodes": 1000000}),
    "stability": (["stability", "--system", "{shear}", "--max-len", "6"],
                  {"budget": 4194304, "max_len": 6, "tol": 1e-09}),
    "growth-probe": (["growth", "--system", "{shear}", "--nmax", "5", "--probe"],
                     {"budget": 4194304, "nmax": 5, "probe": True}),
    "growth-defaults": (["growth", "--system", "{shear}"],
                        {"budget": 4194304, "nmax": 14, "probe": False}),
    "runs": (["runs", "--law", "{doubling}", "--horizon", "126"],
             {"horizon": 126, "law": {"alphabet": 2, "type": "doubling"}, "max_run": 20}),
    "runs-system": (["runs", "--law", "{periodic}", "--system", "{diag}", "--max-run", "5"],
                    {"horizon": 10000, "law": PERIODIC_SPEC, "max_run": 5}),
    "lyapunov": (["lyapunov", "--system", "{diag}", "--samples", "20", "--seed", "3"],
                 {"horizon": 400, "samples": 20, "seed": 3}),
}


@pytest.mark.parametrize("argv, parameters", REPORT_PARAMETERS.values(),
                         ids=REPORT_PARAMETERS.keys())
def test_cli_report_parameters(argv, parameters, diag_file, shear_file, tmp_path, capsys):
    paths = {"diag": diag_file, "shear": shear_file,
             "periodic": str(tmp_path / "periodic.json"),
             "doubling": str(tmp_path / "doubling.json")}
    save_law(PeriodicLaw(Word((1, 2, 2), 2)), paths["periodic"])
    save_law(doubling_law(), paths["doubling"])
    report = str(tmp_path / "report.json")
    assert main([a.format(**paths) for a in argv] + ["--json", report]) == 0
    data = json.load(open(report))
    assert data["command"] == argv[0]
    assert data["parameters"] == parameters


def test_cli_analyze_budget_exhausted_report(shear_file, tmp_path, capsys):
    report = str(tmp_path / "report.json")
    rc = main(["analyze", "--system", shear_file, "--word-len", "8",
               "--budget", "10", "--json", report])
    assert rc == 3
    assert "budget exhausted after 11 products" in capsys.readouterr().err
    data = json.load(open(report))
    assert data["results"] == {"verdict": "budget-exhausted", "products_formed": 11}
    assert data["parameters"] == {"budget": 10, "kmax": 2, "tol": 1e-12, "word_len": 8}
    assert data["system_digest"]


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "chaoslab" in capsys.readouterr().out
