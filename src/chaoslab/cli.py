"""Command line interface.

``main`` loads a subcommand's system and law files, calls its handler, and
writes the JSON report (--json) once the handler returns.  Each handler runs
one library entry point, prints a one-line summary, and optionally writes a
law (--out) or CSV table (--csv).  Exit codes: 0 success, 2 invalid input
(including an output path that cannot be written), 3 a search budget ran
out; in the budget case whatever partial results exist are still written
before exiting.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import chaos, runs, specfiles, stability, switching
from ._version import __version__
from .errors import BudgetExceededError, InvalidInputError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3

LOG10 = math.log(10.0)


def _parse_word(text: str, alphabet_size: int, what: str) -> switching.Word:
    try:
        symbols = tuple(int(tok) for tok in text.split("-"))
    except ValueError:
        raise InvalidInputError(
            f"{what}: cannot parse '{text}'; expected dash-separated symbols like 1-2-2"
        )
    return switching.Word(symbols, alphabet_size)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError:
        raise InvalidInputError(
            f"cannot parse vector '{text}'; expected comma-separated numbers"
        )


def _word_text(word: switching.Word | None) -> str | None:
    return word.text() if word is not None else None


# Parsed names that are not report parameters: the subcommand itself and
# the input and output paths.
_NOT_PARAMETERS = frozenset({"command", "func", "system", "law", "json", "out", "csv"})


# ---------------------------------------------------------------------------
# subcommands
#
# Each handler takes the parsed arguments, the loaded system and law (None
# when not given) and the report parameters, prints its summary line, writes
# any law or CSV file, and returns (exit code, report results).


def cmd_analyze(args, system, law, parameters):
    try:
        search = chaos.find_witness(
            system, max_len=args.word_len, budget=args.budget, tol=args.tol
        )
    except BudgetExceededError as exc:
        print(f"budget exhausted after {exc.spent} products; no verdict", file=sys.stderr)
        return EXIT_BUDGET, {"verdict": "budget-exhausted", "products_formed": exc.spent}
    if search.witness is None:
        print(f"verdict: no witness pair up to length {args.word_len}")
        return EXIT_OK, {
            "verdict": f"no-witness-up-to-length-{args.word_len}",
            "contracting_word": _word_text(search.contracting[0]) if search.contracting else None,
            "expanding_word": _word_text(search.expanding[0]) if search.expanding else None,
            "products_formed": search.nodes,
        }
    pair = search.witness
    cert, law = chaos.construct_chaotic_law(
        system, pair, switching.Word((), system.alphabet_size), args.kmax
    )
    if args.out:
        specfiles.save_law(law, args.out)
    print(
        "verdict: chaotic-law-constructed "
        f"(contracting {pair.contracting.text()}, expanding {pair.expanding.text()}, "
        f"k up to {cert.k_max} by time {cert.final_time})"
    )
    return EXIT_OK, {
        "verdict": "chaotic-law-constructed",
        "contracting_word": pair.contracting.text(),
        "contracting_norm": pair.contracting_norm,
        "expanding_word": pair.expanding.text(),
        "expanding_conorm": pair.expanding_conorm,
        "products_formed": search.nodes,
        "certificate": cert.to_dict(),
        "law": switching.law_to_spec(law),
    }


def cmd_construct(args, system, law, parameters):
    i_word = _parse_word(args.i, system.alphabet_size, "--i")
    j_word = _parse_word(args.j, system.alphabet_size, "--j")
    prefix = (
        _parse_word(args.prefix, system.alphabet_size, "--prefix")
        if args.prefix
        else switching.Word((), system.alphabet_size)
    )
    parameters.update(i=i_word.text(), j=j_word.text(), prefix=prefix.text())
    outcome = chaos.verify_witness(system, i_word, j_word)
    if isinstance(outcome, chaos.Refusal):
        print(f"refused: {outcome.message}", file=sys.stderr)
        return EXIT_INVALID, {"verdict": "refused", "reason": outcome.message}
    cert, law = chaos.construct_chaotic_law(system, outcome, prefix, args.kmax)
    results = {
        "verdict": "constructed",
        "certificate": cert.to_dict(),
        "law": switching.law_to_spec(law),
        "recheck_passed": chaos.recheck_certificate(system, cert),
    }
    if args.out:
        specfiles.save_law(law, args.out)
    schedule = ", ".join(f"{l}/{L}" for l, L in cert.schedule)
    print(f"constructed law with exponents l/L: {schedule} (final time {cert.final_time})")
    return EXIT_OK, results


def cmd_simulate(args, system, law, parameters):
    x0 = _parse_vector(args.x0) if args.x0 else np.eye(system.dim)[0]
    traj = chaos.simulate(system, law, x0, args.horizon)
    parameters["x0"] = x0.tolist()
    logs10 = traj.log10_magnitudes()
    if traj.zero_input:
        summary = {"zero_input": True}
    else:
        # With horizon 0 the orbit's only state is x0.
        seen = logs10 if traj.horizon else [math.log(np.linalg.norm(x0)) / math.log(10.0)]
        summary = {
            "zero_input": False,
            "final_log10_magnitude": float(seen[-1]),
            "min_log10_magnitude": float(np.min(seen)),
            "max_log10_magnitude": float(np.max(seen)),
        }
    if args.csv:
        header = ["n", "symbol", "log10_magnitude"] + [
            f"u{i}" for i in range(1, system.dim + 1)
        ]
        # Python floats format as csv's shortest round-trip decimals, the same
        # bytes numpy's scalars give, in less time.  Rows convert one at a
        # time, so the orbit is never held as Python objects.
        rows = (
            [n + 1, sym, float(logs10[n]), *traj.units[n].tolist()]
            for n, sym in enumerate(memoryview(traj.symbols))
        )
        specfiles.write_csv(args.csv, header, rows)
    if traj.zero_input:
        print(f"simulated {traj.horizon} steps from the zero state (orbit stays zero)")
    else:
        print(
            f"simulated {traj.horizon} steps; log10 |x| final "
            f"{summary['final_log10_magnitude']:.4f}, "
            f"min {summary['min_log10_magnitude']:.4f}, "
            f"max {summary['max_log10_magnitude']:.4f}"
        )
    return EXIT_OK, {"summary": summary}


def cmd_jsr(args, system, law, parameters):
    bracket = stability.jsr_bracket(system, budget=args.nodes, target_gap=args.gap)
    state = "converged" if bracket.converged else "budget exhausted"
    print(
        f"jsr in [{bracket.lower:.9f}, {bracket.upper:.9f}] "
        f"after {bracket.nodes} products ({state})"
    )
    return EXIT_OK if bracket.converged else EXIT_BUDGET, {
        "lower": bracket.lower,
        "upper": bracket.upper,
        "lower_witness": _word_text(bracket.lower_witness),
        "products_formed": bracket.nodes,
        "depth_reached": bracket.depth_reached,
        "converged": bracket.converged,
    }


def cmd_stability(args, system, law, parameters):
    verdict = stability.periodic_stability(
        system, max_len=args.max_len, tol=args.tol, budget=args.budget
    )
    worst = _word_text(verdict.worst_word)
    if verdict.stable:
        print(
            f"stable up to length {verdict.checked_up_to} "
            f"(worst {verdict.worst_radius:.9f} at word {worst})"
        )
    elif worst is None:  # the budget covered no length, so the sweep is truncated
        print("not certified stable: checked nothing [truncated]")
    else:
        print(
            f"not certified stable: stable up to {verdict.stable_up_to}, "
            f"checked {verdict.checked_up_to}, worst {verdict.worst_radius:.9f} "
            f"at word {worst}" + (" [truncated]" if verdict.truncated else "")
        )
    return EXIT_BUDGET if verdict.truncated else EXIT_OK, {
        "stable": verdict.stable,
        "checked_up_to": verdict.checked_up_to,
        "stable_up_to": verdict.stable_up_to,
        "worst_word": worst,
        "worst_radius": None if worst is None else verdict.worst_radius,
        "truncated": verdict.truncated,
    }


def cmd_growth(args, system, law, parameters):
    if args.probe:
        report = stability.product_unbounded_probe(
            system, n_max=args.nmax, budget=args.budget
        )
        curve = report.full_curve
    else:
        report = None
        curve = stability.growth_curve(system, n_max=args.nmax, budget=args.budget)
    fitted = curve.fitted_exponent() if curve.n_max >= 2 else None
    results = {
        "n_max": curve.n_max,
        "log10_max_norms": (curve.log_max_norms / LOG10).tolist(),
        "argmax_words": [w.text() for w in curve.argmax_words],
        "fitted_exponent": fitted,
        "geometric_flag": curve.geometric_flag,
        "truncated": curve.truncated,
    }
    if report is not None:
        results["full_verdict"] = report.full_verdict
        results["restrictions"] = [
            {
                "axis": r.axis,
                "subspace_dim": r.subspace_dim,
                "verdict": r.verdict,
                "log10_max_norms": (r.curve.log_max_norms / LOG10).tolist(),
            }
            for r in report.restrictions
        ]
    if args.csv:
        rows = (
            [n + 1, curve.log_max_norms[n] / LOG10, curve.argmax_words[n].text()]
            for n in range(curve.n_max)
        )
        specfiles.write_csv(args.csv, ["n", "log10_max_norm", "argmax_word"], rows)
    flag = curve.geometric_flag or "none"
    line = (
        f"growth to n={curve.n_max}: log10 max norm "
        f"{curve.log_max_norms[-1] / LOG10:.4f}, fitted exponent "
        + (f"{fitted:.4f}" if fitted is not None else "n/a")
        + f", flag {flag}"
    )
    if report is not None:
        line += f", full verdict {report.full_verdict}"
        for r in report.restrictions:
            line += f"; axis {r.axis} subspace dim {r.subspace_dim}: {r.verdict}"
    print(line + (" [truncated]" if curve.truncated else ""))
    return EXIT_BUDGET if curve.truncated else EXIT_OK, results


def cmd_runs(args, system, law, parameters):
    evidence = runs.run_evidence(law, horizon=args.horizon, max_run=args.max_run)
    results = {
        "run_verdict": evidence.verdict,
        "run_symbol": evidence.symbol,
        "run_thresholds": [list(t) for t in evidence.thresholds],
    }
    line = f"runs: {evidence.verdict}"
    if evidence.symbol is not None:
        line += f" (symbol {evidence.symbol} has runs up to {evidence.max_run})"
    if system is not None:
        decay = runs.decay_check(system, law, horizon=args.horizon)
        results["decay_verdict"] = decay.verdict
        results["head_min_log_norm"] = decay.head_min
        results["tail_max_log_norm"] = decay.tail_max
        line += f"; decay: {decay.verdict}"
        if decay.warning:
            results["warning"] = decay.warning
            line += " [stability warning]"
    print(line)
    return EXIT_OK, results


def cmd_lyapunov(args, system, law, parameters):
    estimate = stability.lyapunov_mc(
        system, samples=args.samples, horizon=args.horizon, seed=args.seed
    )
    print(
        f"lyapunov estimate {estimate.value:.6f} +/- {estimate.stderr:.6f} "
        f"({estimate.samples} samples, horizon {estimate.horizon}, "
        f"measure {estimate.measure})"
    )
    return EXIT_OK, {
        "value": estimate.value,
        "stderr": estimate.stderr,
        "measure": estimate.measure,
    }


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaoslab",
        description="Analysis of discrete-time linear inclusion systems.",
    )
    parser.add_argument("--version", action="version", version=f"chaoslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, system_required=True):
        p.add_argument(
            "--system",
            required=system_required,
            help="path to a JSON system file",
        )
        p.add_argument("--json", help="write a JSON report to this path")

    p = sub.add_parser("analyze", help="search for a witness pair and build a chaotic law")
    add_common(p)
    p.add_argument("--word-len", type=int, default=12, help="maximum witness word length")
    p.add_argument("--kmax", type=int, default=2, help="certificate depth")
    p.add_argument("--tol", type=float, default=chaos.ABS_TOL,
                   help="strictness margin on the norm tests")
    p.add_argument("--budget", type=int, default=chaos.DEFAULT_SEARCH_BUDGET,
                   help="matrix product budget for the scan")
    p.add_argument("--out", help="write the constructed law to this path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("construct", help="build a chaotic law from given witness words")
    add_common(p)
    p.add_argument("--i", required=True, help="contracting word, dash-separated")
    p.add_argument("--j", required=True, help="expanding word, dash-separated")
    p.add_argument("--prefix", default="", help="target prefix, dash-separated")
    p.add_argument("--kmax", type=int, default=2, help="certificate depth")
    p.add_argument("--out", help="write the constructed law to this path")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("simulate", help="run one orbit of a law")
    add_common(p)
    p.add_argument("--law", required=True, help="path to a JSON law file")
    p.add_argument("--x0", default=None, help="initial state, comma-separated")
    p.add_argument("--horizon", type=int, default=10000, help="number of steps")
    p.add_argument("--csv", help="write the trajectory as CSV to this path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("jsr", help="bracket the joint spectral radius")
    add_common(p)
    p.add_argument("--nodes", type=int, default=stability.DEFAULT_JSR_BUDGET,
                   help="matrix product budget")
    p.add_argument("--gap", type=float, default=stability.DEFAULT_JSR_GAP,
                   help="target relative gap between the bounds")
    p.set_defaults(func=cmd_jsr)

    p = sub.add_parser("stability", help="decide contraction of all short periodic products")
    add_common(p)
    p.add_argument("--max-len", type=int, default=10, help="longest period to check")
    p.add_argument("--tol", type=float, default=stability.DEFAULT_STABILITY_TOL,
                   help="contraction threshold slack")
    p.add_argument("--budget", type=int, default=stability.DEFAULT_ENUM_BUDGET,
                   help="cyclic word budget")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("growth", help="exact max-norm growth curve")
    add_common(p)
    p.add_argument("--nmax", type=int, default=stability.DEFAULT_GROWTH_NMAX,
                   help="longest word length")
    p.add_argument("--budget", type=int, default=stability.DEFAULT_ENUM_BUDGET,
                   help="matrix product budget")
    p.add_argument("--probe", action="store_true",
                   help="also probe growth on invariant subspaces")
    p.add_argument("--csv", help="write the curve as CSV to this path")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("runs", help="run-structure evidence and decay measurement for a law")
    add_common(p, system_required=False)
    p.add_argument("--law", required=True, help="path to a JSON law file")
    p.add_argument("--horizon", type=int, default=10000, help="symbols to scan")
    p.add_argument("--max-run", type=int, default=20, help="longest run length to require")
    p.set_defaults(func=cmd_runs)

    p = sub.add_parser("lyapunov", help="Monte Carlo top Lyapunov exponent")
    add_common(p)
    p.add_argument("--samples", type=int, default=200, help="number of random words")
    p.add_argument("--horizon", type=int, default=400, help="length of each word")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_lyapunov)

    return parser


def main(argv=None) -> int:
    """Run one subcommand: load its system and law, call its handler, and
    write the JSON report when --json is given."""
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        system, digest = specfiles.load_system(args.system) if args.system else (None, None)
        law = specfiles.load_law(args.law) if getattr(args, "law", None) else None
        parameters = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
        if law is not None:
            parameters["law"] = switching.law_to_spec(law)
        code, results = args.func(args, system, law, parameters)
        if args.json:
            report = specfiles.build_report(
                command=args.command,
                parameters=parameters,
                results=results,
                system_digest=digest,
                timings={"seconds": round(time.perf_counter() - started, 6)},
            )
            specfiles.write_json(args.json, report)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    return code


if __name__ == "__main__":
    sys.exit(main())
