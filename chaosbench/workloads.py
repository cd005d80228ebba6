"""Workload inputs and job lists.

A job is one ``chaoslab`` command line plus the oracle check of its output.
Random systems, target prefixes, initial states and Monte Carlo seeds are
drawn from the workload seed; the fixed systems (ROADMAP item 1's
reproducer, the diagonal pair, the 0.6 shear pair and its 4x4 block system)
are the same for every seed.  Why each workload exists is recorded in BENCHMARK.json and
README.md.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

REPRODUCER = np.array([[[0.6, 0.6], [0.0, 0.6]], [[1.3, 0.1], [0.2, 1.4]]])
DIAGONAL = np.array([np.diag([0.5, 0.5]), np.diag([2.0, 2.0])])
SHEAR = np.array([[[0.6, 0.6], [0.0, 0.6]], [[0.6, 0.0], [0.6, 0.6]]])
# Joint spectral radius of the 0.6 shear pair: 0.6 times the golden ratio.
RHO_SHEAR = 0.6 * (1.0 + math.sqrt(5.0)) / 2.0


def shear_block() -> np.ndarray:
    """[[F, F], [0, F]] over the shear pair scaled to joint spectral radius 1."""
    zero = np.zeros((2, 2))
    return np.array([np.block([[g, g], [zero, g]]) for g in SHEAR / RHO_SHEAR])


def random_system(rng: np.random.Generator, dim: int = 4, k: int = 3) -> np.ndarray:
    """Gaussian generators scaled so the largest normalized spectral radius of
    words up to length 4 is 1.  The joint spectral radius is then at least 1
    and near it, and no generator has |det| > 1, so no product expands in
    co-norm and the witness scan always runs to its full length."""
    while True:
        gens = rng.standard_normal((k, dim, dim))
        if np.linalg.cond(gens).max() < 1e4:
            break
    worst = max(float(r.max()) for r in oracle.radii_by_length(gens, 4))
    return gens / worst


def word_text(symbols) -> str:
    return "-".join(str(int(s)) for s in symbols)


@dataclass
class Job:
    """One command line.

    ``check(report, exit_code, reports)`` raises ``oracle.Mismatch`` when the
    output is wrong; ``reports`` holds the reports of earlier jobs in the
    pass.  ``steps(report)`` counts the generator applications the job made,
    from its inputs and outputs.
    """

    name: str
    argv: list[str]
    check: Callable[[dict, int, dict], None]
    steps: Callable[[dict], int]
    seeded: bool
    csv: str | None = None


@dataclass
class Workload:
    name: str
    systems: dict[str, np.ndarray]
    jobs: list[Job]
    smoke: list[Job]


def write_system(path: str, gens: np.ndarray) -> None:
    spec = {"dim": int(gens.shape[1]),
            "matrices": {str(i + 1): g.tolist() for i, g in enumerate(gens)}}
    with open(path, "w") as fh:
        json.dump(spec, fh)


def _exit(expected: int, check):
    def wrapped(report, exit_code, reports):
        oracle.expect(exit_code == expected, f"exit code {exit_code}, expected {expected}")
        check(report, exit_code, reports)
    return wrapped


def _final_time(results: dict) -> int:
    cert = results.get("certificate")
    return cert["crossings"][-1][2] if cert and cert["crossings"] else 0


def _steps(report: dict, k: int) -> int:
    """Generator applications along laws and words, from the command's inputs
    and its certificate; never from counts the program makes of its own work,
    which a better search would lower."""
    command, params, results = report["command"], report["parameters"], report["results"]
    if command == "analyze":  # the construction walk; the witness scan is a search
        return _final_time(results)
    if command == "construct":  # the construction walk, then the recheck walk
        return 2 * _final_time(results)
    if command in ("simulate", "runs"):
        return params["horizon"]
    if command == "stability":  # one product per necklace, one factor per letter
        return sum(n * oracle.necklace_count(k, n) for n in range(1, params["max_len"] + 1))
    if command == "lyapunov":
        return params["samples"] * params["horizon"]
    return 0  # jsr and growth are searches whose work depends on pruning


def _job(name, argv, out, check, seeded, csv_file=False, expected_exit=0, alphabet=2):
    argv = list(argv) + ["--json", os.path.join(out, f"{name}.json")]
    csv_path = None
    if csv_file:
        csv_path = os.path.join(out, f"{name}.csv")
        argv += ["--csv", csv_path]
    if expected_exit is not None:
        check = _exit(expected_exit, check)
    return Job(name, argv, check, lambda report: _steps(report, alphabet), seeded, csv_path)


def _analyze(gens):
    return lambda r, code, reports: oracle.check_analyze(gens, r["parameters"], r["results"])


def _construct(gens):
    return lambda r, code, reports: oracle.check_construct(gens, r["parameters"], r["results"])


def _stability(gens):
    return lambda r, code, reports: oracle.check_stability(gens, r["parameters"], r["results"])


def _jsr(gens):
    return lambda r, code, reports: oracle.check_jsr(gens, r["parameters"], r["results"], code)


def _lyapunov(gens):
    return lambda r, code, reports: oracle.check_lyapunov(gens, r["parameters"], r["results"])


def _law_of(reports: dict, job: str, used: dict) -> dict:
    oracle.expect(job in reports, f"no report from {job}, whose law this job reads")
    law = reports[job]["results"]["law"]
    oracle.expect(used == law, f"law differs from the one {job} wrote")
    return law


def _simulate(gens, x0, law_job, csv_path):
    def check(r, code, reports):
        law = _law_of(reports, law_job, r["parameters"]["law"])
        return oracle.check_simulate(gens, law, x0, r["parameters"]["horizon"],
                                     r["results"], csv_path)
    return check


def _runs(gens, law_job):
    def check(r, code, reports):
        law = _law_of(reports, law_job, r["parameters"]["law"])
        return oracle.check_runs(gens, law, r["parameters"], r["results"])
    return check


def _growth(gens, csv_path):
    return lambda r, code, reports: oracle.check_growth(gens, r["parameters"], r["results"], csv_path)


def _smoke(inp: str, out: str) -> list[Job]:
    """Every subcommand once on a tiny input.  Runs untimed before the timed
    passes, and at the start of every pass of the traced run, so that every
    traced layer has measured spans on every workload."""
    diag, shear = os.path.join(inp, "diag.json"), os.path.join(inp, "shear.json")
    law = os.path.join(out, "smoke-law.json")
    ok = lambda r, code, reports: None  # noqa: E731 - exit code only
    return [
        _job("smoke-analyze", ["analyze", "--system", diag, "--word-len", "2", "--kmax", "1"], out, ok, False),
        _job("smoke-construct", ["construct", "--system", diag, "--i", "1", "--j", "2", "--kmax", "2",
                                 "--out", law], out, ok, False),
        _job("smoke-simulate", ["simulate", "--system", diag, "--law", law, "--horizon", "50"],
             out, ok, False, csv_file=True),
        _job("smoke-runs", ["runs", "--system", diag, "--law", law, "--horizon", "40"], out, ok, False),
        _job("smoke-stability", ["stability", "--system", shear, "--max-len", "3"], out, ok, False),
        _job("smoke-jsr", ["jsr", "--system", shear, "--gap", "0.01", "--nodes", "50"], out, ok, False),
        _job("smoke-growth", ["growth", "--system", shear, "--nmax", "3", "--probe"], out, ok, False,
             csv_file=True),
        _job("smoke-lyapunov", ["lyapunov", "--system", shear, "--samples", "2", "--horizon", "10"],
             out, ok, False),
    ]


def build(name: str, seed: int, inp: str, out: str) -> Workload:
    """The workload's systems and jobs; input files go to ``inp``, outputs to ``out``."""
    rng = np.random.default_rng(seed)
    path = lambda system: os.path.join(inp, f"{system}.json")  # noqa: E731
    systems = {"diag": DIAGONAL, "shear": SHEAR}
    if name == "walk":
        systems["repro"] = REPRODUCER
        prefix_repro = word_text(rng.integers(1, 3, size=6))
        prefix_diag = word_text(rng.integers(1, 3, size=6))
        x0 = rng.standard_normal(2)
        law = os.path.join(out, "diag-law.json")
        orbit = os.path.join(out, "simulate.csv")
        jobs = [
            _job("analyze-repro", ["analyze", "--system", path("repro"), "--word-len", "6",
                                   "--kmax", "6"], out, _analyze(REPRODUCER), False),
            _job("construct-repro", ["construct", "--system", path("repro"), "--i", "1", "--j", "2",
                                     "--prefix", prefix_repro, "--kmax", "10"],
                 out, _construct(REPRODUCER), True),
            _job("construct-diag", ["construct", "--system", path("diag"), "--i", "1", "--j", "2",
                                    "--prefix", prefix_diag, "--kmax", "200", "--out", law],
                 out, _construct(DIAGONAL), True),
            _job("simulate", ["simulate", "--system", path("diag"), "--law", law,
                              "--x0=" + ",".join(repr(float(v)) for v in x0), "--horizon", "30000"],
                 out, _simulate(DIAGONAL, x0, "construct-diag", orbit), True, csv_file=True),
            _job("runs", ["runs", "--system", path("diag"), "--law", law, "--horizon", "10000",
                          "--max-run", "8"],
                 out, _runs(DIAGONAL, "construct-diag"), True),
        ]
    elif name == "tree":
        rand = random_system(rng)
        block, pair = shear_block(), SHEAR / RHO_SHEAR
        systems.update(rand=rand, block=block, pair=pair)
        growth_csv = os.path.join(out, "growth-block.csv")
        jobs = [
            _job("stability-shear", ["stability", "--system", path("shear"), "--max-len", "14"],
                 out, _stability(SHEAR), False),
            _job("stability-rand", ["stability", "--system", path("rand"), "--max-len", "8"],
                 out, _stability(rand), True, alphabet=3),
            _job("analyze-rand", ["analyze", "--system", path("rand"), "--word-len", "7"],
                 out, _analyze(rand), True),
            _job("jsr-shear", ["jsr", "--system", path("shear"), "--gap", "0.001", "--nodes", "2000"],
                 out, _jsr(SHEAR), False, expected_exit=None),
            # A gap this tight never closes on these systems, so the job always
            # spends its whole node budget.
            _job("jsr-rand", ["jsr", "--system", path("rand"), "--gap", "1e-6", "--nodes", "2000"],
                 out, _jsr(rand), True, expected_exit=None),
            _job("growth-block", ["growth", "--system", path("block"), "--nmax", "12", "--probe"],
                 out, _growth(block, growth_csv), False, csv_file=True),
            _job("growth-pair", ["growth", "--system", path("pair"), "--nmax", "16"],
                 out, _growth(pair, None), False),
        ]
    elif name == "mc":
        rand, block = random_system(rng), shear_block()
        systems.update(rand=rand, block=block, repro=REPRODUCER)
        jobs = [
            _job("lyapunov-shear", ["lyapunov", "--system", path("shear"), "--samples", "40",
                                    "--horizon", "400", "--seed", "0"], out, _lyapunov(SHEAR), False),
            _job("lyapunov-rand", ["lyapunov", "--system", path("rand"), "--samples", "30",
                                   "--horizon", "400", "--seed", str(seed)], out, _lyapunov(rand), True),
            _job("lyapunov-block", ["lyapunov", "--system", path("block"), "--samples", "15",
                                    "--horizon", "400", "--seed", str(seed)], out, _lyapunov(block), True),
            _job("lyapunov-repro", ["lyapunov", "--system", path("repro"), "--samples", "15",
                                    "--horizon", "400", "--seed", str(seed)],
                 out, _lyapunov(REPRODUCER), True),
            _job("lyapunov-diag", ["lyapunov", "--system", path("diag"), "--samples", "8",
                                   "--horizon", "400", "--seed", str(seed)], out, _lyapunov(DIAGONAL), True),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, systems, jobs, _smoke(inp, out))
