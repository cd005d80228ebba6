#!/usr/bin/env python3
"""chaoslab benchmark: drives ``chaoslab.cli.main`` in process and checks every output.

    python3 chaosbench/run.py --workload walk --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures per-layer metrics from spans around the calls into
each module, the kernel microbenchmarks and the tracing overhead.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every job, its
latency, digest and oracle verdict.

Timings are reported in reference seconds.  On a shared machine the speed
of a core drifts by up to 2x over tens of seconds (CPU time tracks wall
time, so the process is not descheduled; it runs slower), and a plain
wall-clock median over one run is not steady.  So each job is bracketed by
the calibration loop of ``calibration.py``, which runs no chaoslab code, and
its wall time is scaled by ``REFERENCE_S / calibration time``: the time the
job would take where that loop takes 9.4 ms.  Raw wall times are printed on
the lines before the result.

A job fails when it raises, returns an unexpected exit code, or its output
disagrees with the oracle (``oracle.py``, which shares no code with
chaoslab); failures are counted in ``failed`` and in ``ok_frac``.
``correct`` is false when an output could not be checked at all or changed
between passes of one run.  Report digests are compared with the fixed
``reference_digests.json``, recorded on the seed commit; the jobs whose
digest differs from it are counted, not failed.
"""

from __future__ import annotations

import os

# One process, no helper threads: BLAS pools would only add noise on 2x2 and
# 4x4 matrices.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import oracle  # noqa: E402
from calibration import REFERENCE_S, calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".chaosbench"
REFERENCE = BENCH / "reference_digests.json"

WORKLOADS = ("walk", "tree", "mc")
# Set-ups per run, spread over the run so that their median spans the
# machine's speed drifts rather than one moment of them.
SETUP_REPS = 15
# Stop starting passes after this long, so a run ends well inside 180 s.
RUN_CAP_S = 120.0
# On walk, the library layers' self times must cover the traced job time to
# within this share; a traced walk run below it is flagged.
COVERAGE_SLACK = 0.05

# Times the import in the fresh interpreter, then calibrates there, since
# the child may run on the other core than the parent.
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import chaoslab\n"
    "t = time.perf_counter() - t\n"
    "assert chaoslab.__file__.startswith(sys.argv[1])\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from calibration import calibrate\n"
    "print(t, (calibrate() + calibrate()) / 2)\n"
)


def reference_seconds(raw: float, calibration: float) -> float:
    return raw * REFERENCE_S / calibration


def timed(fn):
    """(result, raw seconds, reference seconds) of ``fn()``, bracketed by calibrations."""
    before = calibrate()
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    return result, raw, reference_seconds(raw, (before + calibrate()) / 2.0)


def fail_setup(message: str) -> None:
    print(f"chaosbench: {message}", file=sys.stderr)
    sys.exit(2)


def digest(report: dict) -> str:
    """sha256 of the report without its nondeterministic fields."""
    body = {k: v for k, v in report.items() if k != "timings"}
    if isinstance(body.get("parameters"), dict):
        body["parameters"] = {k: v for k, v in body["parameters"].items() if k != "threads"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# running jobs


class JobRun:
    __slots__ = ("job", "raw", "latency", "exit_code", "error", "report", "digest", "ok",
                 "reason", "steps")

    def __init__(self, job, raw, latency, exit_code, error):
        self.job, self.raw, self.latency = job, raw, latency
        self.exit_code, self.error = exit_code, error
        self.report = self.digest = self.reason = None
        self.ok = False
        self.steps = 0


def call_main(cli, argv) -> tuple[int | None, str | None]:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv), None
        except SystemExit as exc:
            return exc.code, None
        except Exception as exc:  # a job that raises is a failed job, not a crashed run
            return None, f"raised {type(exc).__name__}: {exc}"


def run_job(cli, job) -> JobRun:
    (exit_code, error), raw, latency = timed(lambda: call_main(cli, job.argv))
    return JobRun(job, raw, latency, exit_code, error)


def clear(directory: Path) -> None:
    for entry in directory.iterdir():
        entry.unlink()


def run_pass(cli, jobs, out: Path) -> list[JobRun]:
    clear(out)
    return [run_job(cli, job) for job in jobs]


def job_digest(run: JobRun) -> str | None:
    path = run.job.argv[run.job.argv.index("--json") + 1]
    try:
        with open(path) as fh:
            run.report = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    d = digest(run.report)
    if run.job.csv:
        try:
            d += "+" + file_digest(run.job.csv)
        except OSError:
            return None
    return d


class Checker:
    """Oracle verdicts per job; later passes reuse the verdict of an identical output."""

    def __init__(self):
        self.first: dict[str, tuple[str | None, bool, str | None, int]] = {}
        self.unchecked: set[str] = set()
        self.changed: set[str] = set()

    def check_pass(self, runs: list[JobRun]) -> None:
        reports: dict[str, dict] = {}
        for run in runs:
            name = run.job.name
            run.digest = job_digest(run)
            if run.error is not None:
                run.reason = run.error
            elif run.digest is None:
                run.reason = f"no readable output (exit code {run.exit_code})"
                self.unchecked.add(name)
            elif name in self.first and self.first[name][0] == run.digest:
                _, run.ok, run.reason, run.steps = self.first[name]
            else:
                try:
                    run.steps = run.job.steps(run.report)
                    run.job.check(run.report, run.exit_code, reports)
                    run.ok = True
                except oracle.Mismatch as exc:
                    run.reason = str(exc)
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    run.reason = f"output not checkable: {type(exc).__name__}: {exc}"
                    self.unchecked.add(name)
            if name in self.first and self.first[name][0] != run.digest:
                self.changed.add(name)
            self.first.setdefault(name, (run.digest, run.ok, run.reason, run.steps))
            if run.report is not None:
                reports[name] = run.report


# ---------------------------------------------------------------------------
# set-up


def fresh_import() -> float:
    """Reference seconds a fresh interpreter takes to import chaoslab from this checkout."""
    out = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC), str(BENCH)],
                         capture_output=True, text=True, check=True, cwd=ROOT, timeout=60)
    raw, calibration = (float(v) for v in out.stdout.split())
    return reference_seconds(raw, calibration)


def write_and_load(chaoslab, workload, inp: Path) -> None:
    for name, gens in workload.systems.items():
        path = str(inp / f"{name}.json")
        workloads.write_system(path, gens)
        chaoslab.load_system(path)


def setup_seconds(chaoslab, workload, inp: Path) -> float:
    """Reference seconds of one set-up: a fresh import plus writing and loading inputs."""
    _, _, loaded = timed(lambda: write_and_load(chaoslab, workload, inp))
    return fresh_import() + loaded


# ---------------------------------------------------------------------------
# kernel microbenchmarks


def microbench(chaoslab, seed: int) -> dict[str, float]:
    """Median microseconds per call over repeated timed loops."""
    rng = np.random.default_rng([seed, 7])
    lsm = chaoslab.LogScaledMatrix
    m2, g2 = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    m4, g4 = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    a2, a4 = lsm.from_matrix(m2), lsm.from_matrix(m4)
    u2 = a2.unit
    cases = {
        "linalg.left_multiply_us.d2": (lambda: a2.left_multiply(g2), 2000),
        "linalg.left_multiply_us.d4": (lambda: a4.left_multiply(g4), 2000),
        "linalg.matmul_us.d2": (lambda: g2 @ u2, 20000),
        "linalg.op_norm_us.d2": (lambda: chaoslab.op_norm(m2), 4000),
        "linalg.spectral_radius_us.d4": (lambda: chaoslab.spectral_radius(m4), 2000),
    }
    result = {}
    for name, (fn, number) in cases.items():
        times = timeit.repeat(fn, number=number, repeat=7)
        result[name] = statistics.median(times) / number * 1e6
    return result


# ---------------------------------------------------------------------------
# reporting


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def load_reference() -> dict[str, str]:
    try:
        with open(REFERENCE) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def digest_key(workload: str, job, seed: int) -> str:
    return f"{workload}/{job.name}" + (f"@{seed}" if job.seeded else "")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = time.perf_counter()

    if not (SRC / "chaoslab" / "__init__.py").is_file():
        fail_setup(f"no chaoslab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    try:
        import chaoslab
        from chaoslab import cli
    except ImportError as exc:
        fail_setup(f"cannot import chaoslab from {SRC}: {exc}")
    if not Path(chaoslab.__file__).resolve().is_relative_to(SRC):
        fail_setup(f"chaoslab imported from {chaoslab.__file__}, not from {SRC}")

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        inp, out = tmp / "in", tmp / "out"
        inp.mkdir()
        out.mkdir()
        workload = workloads.build(args.workload, args.seed, str(inp), str(out))
        return measure(args, began, chaoslab, cli, workload, inp, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, began, chaoslab, cli, workload, inp, out) -> int:
    metrics: dict[str, dict] = {}
    setups: list[float] = []
    if args.trace == 0:
        setups.append(setup_seconds(chaoslab, workload, inp))
    else:
        write_and_load(chaoslab, workload, inp)
        micro = microbench(chaoslab, args.seed)

    checker, smoke_checker = Checker(), Checker()
    if args.trace == 0:
        smoke_checker.check_pass(run_pass(cli, workload.smoke, out))
    # Each pass as (traced, runs); in the traced run every pass starts with the smoke list.
    passes: list[tuple[bool, list[JobRun]]] = []
    tracer = tracing.Tracer()
    smoke = len(workload.smoke) if args.trace == 1 else 0
    measured = 0.0
    traced = False
    while True:
        if traced:
            tracer.install()
        try:
            runs = run_pass(cli, workload.smoke[:smoke] + workload.jobs, out)
        finally:
            tracer.uninstall()
        smoke_checker.check_pass(runs[:smoke])
        checker.check_pass(runs[smoke:])
        passes.append((traced, runs))
        measured += sum(r.raw for r in runs)
        if args.trace == 0:
            due = min(SETUP_REPS, 1 + int(measured / args.seconds * (SETUP_REPS - 1)))
            setups += [setup_seconds(chaoslab, workload, inp) for _ in range(due - len(setups))]
        traced = args.trace == 1 and not traced
        done = measured >= args.seconds and (args.trace == 0 or len(passes) >= 2)
        if done or time.perf_counter() - began > RUN_CAP_S:
            break

    if args.trace == 0:
        setups += [setup_seconds(chaoslab, workload, inp) for _ in range(SETUP_REPS - len(setups))]
        metrics["setup_s"] = metric(statistics.median(setups), "s")

    job_runs = [r for _, runs in passes for r in runs[smoke:]]
    attempted = len(job_runs)
    failed = sum(1 for r in job_runs if not r.ok)
    smoke_bad = [(name, entry[2]) for name, entry in smoke_checker.first.items() if not entry[1]]
    correct = not checker.unchecked and not checker.changed and not smoke_bad

    reference = load_reference()
    compared = changed = 0
    for job in workload.jobs:
        key = digest_key(workload.name, job, args.seed)
        if key in reference:
            compared += 1
            changed += reference[key] != checker.first[job.name][0]

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{attempted} jobs in {len(passes)} passes")
    for job in workload.jobs:
        mine = [r for r in job_runs if r.job.name == job.name]
        d, ok, reason, steps = checker.first[job.name]
        print(f"  {job.name:16s} n={len(mine):3d} median {statistics.median(r.latency for r in mine):.4f} s "
              f"(raw {statistics.median(r.raw for r in mine):.4f} s) steps {steps:9d} digest {d} "
              f"{'ok' if ok else 'FAILED: ' + str(reason)}")
    for name, reason in smoke_bad:
        print(f"  smoke job {name} FAILED: {reason}")
    if checker.changed:
        print(f"  outputs changed between passes: {sorted(checker.changed)}")
    print(f"  digests compared with the reference: {compared}, changed: {changed}")

    if args.trace == 0:
        latencies = [r.latency for r in job_runs]
        wall = statistics.median(sum(r.latency for r in runs) for _, runs in passes)
        steps = statistics.median(sum(r.steps for r in runs) for _, runs in passes)
        metrics["wall_s"] = metric(wall, "s")
        metrics["job_s.p50"] = metric(statistics.median(latencies), "s")
        metrics["job_s.p90"] = metric(p90(latencies), "s")
        metrics["jobs_per_s"] = metric(len(workload.jobs) / wall, "1/s")
        metrics["steps_per_s"] = metric(steps / wall, "1/s")
        metrics["ok_frac"] = metric((attempted - failed) / attempted, "frac")
        metrics["peak_rss_mb"] = metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        raw_wall = statistics.median(sum(r.raw for r in runs) for _, runs in passes)
        print(f"  job latency samples: {len(latencies)}; failed_frac {failed / attempted:.4f}; "
              f"raw wall per pass {raw_wall:.4f} s")
    else:
        layers, cli_share = layer_metrics(tracer, passes, micro)
        metrics.update(layers)
        metrics["digests.compared"] = metric(compared, "count")
        metrics["digests.changed"] = metric(changed, "count")
        spans = WORK / f"spans-{workload.name}.npz"
        tracer.save(str(spans))
        coverage = metrics["trace.coverage"]["value"]
        print(f"  {len(tracer.start)} spans; those of the last traced pass written to "
              f"{spans.relative_to(ROOT)}; library layers cover {coverage:.4f} of the "
              f"traced job time, cli.main's own work {cli_share:.4f}")
        if workload.name == "walk" and coverage < 1.0 - COVERAGE_SLACK:
            flag = (f"trace coverage {coverage:.4f} on walk is below the stated "
                    f"{1.0 - COVERAGE_SLACK:.2f}: the traced layers miss part of the job time")
            print(f"  FLAG: {flag}")
            print(f"chaosbench: {flag}", file=sys.stderr)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_metrics(tracer, passes, micro) -> tuple[dict[str, dict], float]:
    """Per-layer metrics, and cli.main's self time as a share of the traced job time."""
    traced = [runs for is_traced, runs in passes if is_traced]
    untraced = [runs for is_traced, runs in passes if not is_traced]
    n = len(traced)
    own = tracer.self_times()
    own["switching.enumerate_necklaces"] = (own.get("switching.enumerate_necklaces", 0.0)
                                            + own.pop("switching.enumerate_necklaces.next", 0.0))
    m: dict[str, dict] = {}
    for name in tracing.REPORTED:
        m[f"{name}.calls"] = metric(tracer.calls.get(name, 0) / n, "count")
        m[f"{name}.self_s"] = metric(own.get(name, 0.0) / n, "s")
    for module in tracing.MODULES[:-1]:
        total = sum(v for k, v in own.items() if k.split(".")[0] == module)
        m[f"{module}.self_s"] = metric(total / n, "s")
    c = tracer.counters
    m["linalg.renorm_frac"] = metric(c["renorm"] / max(tracer.calls["linalg.left_multiply"], 1), "frac")
    m["linalg.max_unit_cond"] = metric(tracer.max_cond, "ratio")
    m["switching.necklace_yield_ratio"] = metric(
        c["necklace.yielded"] / max(c["necklace.candidates"], 1), "frac")
    m["chaos.find_witness.nodes"] = metric(c["nodes.find_witness"] / n, "count")
    m["stability.jsr_bracket.nodes"] = metric(c["nodes.jsr_bracket"] / n, "count")
    m["specfiles.write_json.bytes"] = metric(c["bytes.write_json"] / n, "bytes")
    m["specfiles.write_csv.bytes"] = metric(c["bytes.write_csv"] / n, "bytes")
    for name, value in micro.items():
        m[name] = metric(value, "us")
    traced_wall = statistics.median(sum(r.latency for r in runs) for runs in traced)
    untraced_wall = statistics.median(sum(r.latency for r in runs) for runs in untraced)
    m["trace.wall_s"] = metric(traced_wall, "s")
    m["trace_overhead_frac"] = metric(traced_wall / untraced_wall - 1.0, "frac")
    # cli.main's self time is kept out: its span encloses every job, so with it
    # the sum would account for the job time whatever the layers below cover.
    raw_traced = sum(r.raw for runs in traced for r in runs)
    library = sum(v for k, v in own.items() if k.split(".")[0] in tracing.MODULES[:-1])
    m["trace.coverage"] = metric(library / raw_traced, "frac")
    return m, own.get("cli.main", 0.0) / raw_traced


if __name__ == "__main__":
    sys.exit(main())
