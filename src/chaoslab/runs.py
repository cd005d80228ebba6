"""Run-structure evidence against chaos, and cocycle decay measurement.

A law whose tail keeps producing arbitrarily long constant runs of some
symbol cannot be chaotic for a periodically stable system: each long run
multiplies the state by a high power of a single generator whose spectral
radius is below 1, forcing decay.  Over a finite horizon this property can
only be sampled, so the functions here report evidence, never proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import require_int
from .linalg import walk
from .stability import periodic_stability
from .switching import SwitchingLaw

CONSISTENT = "consistent-with-run-nonchaotic"
INCONSISTENT = "inconsistent-up-to-horizon"

DECAYING = "decaying"
NOT_DECAYING = "not-decaying"

# Decay must clear this log-space gap between head and tail quartiles.
_DECAY_GAP = math.log(2.0)

_QUICK_STABILITY_LEN = 4


@dataclass
class RunEvidence:
    """Latest tail-half runs per length, and whether some symbol has them all.

    ``thresholds`` holds pairs (l, n_l) for the witnessing symbol: the law is
    constant on times n_l + 1 .. n_l + l, and that run starts after
    horizon // 2.  ``per_symbol`` keeps the same map for every symbol.
    """

    verdict: str
    symbol: int | None
    thresholds: tuple[tuple[int, int], ...]
    per_symbol: dict[int, dict[int, int]]
    horizon: int
    max_run: int


def run_evidence(law: SwitchingLaw, horizon: int, max_run: int) -> RunEvidence:
    """Scan the tail half of the first ``horizon`` symbols for long runs.

    For each symbol and each run length l <= max_run, records the latest
    start (as the predecessor index n_l) of a constant run of length l that
    begins after horizon // 2.  The verdict is consistent when some single
    symbol achieves every length up to max_run.
    """
    horizon = require_int(horizon, 2, "horizon must be an integer >= 2")
    max_run = require_int(max_run, 1, "max_run must be a positive integer")
    seq = law.sequence(horizon)
    half = horizon // 2
    per_symbol: dict[int, dict[int, int]] = {
        sym: {} for sym in range(1, law.alphabet_size + 1)
    }
    idx = 0
    while idx < horizon:
        sym = seq[idx]
        run_start = idx + 1  # 1-based
        while idx < horizon and seq[idx] == sym:
            idx += 1
        run_end = idx  # 1-based inclusive
        first_tail_start = max(run_start, half + 1)
        if first_tail_start > run_end:
            continue
        table = per_symbol[sym]
        longest = run_end - first_tail_start + 1
        for length in range(1, min(longest, max_run) + 1):
            start = run_end - length + 1  # latest start of a sub-run this long
            table[length] = max(table.get(length, -1), start - 1)
    lengths = range(1, max_run + 1)
    witness = next((sym for sym, table in per_symbol.items()
                    if all(length in table for length in lengths)), None)
    return RunEvidence(
        verdict=INCONSISTENT if witness is None else CONSISTENT,
        symbol=witness,
        thresholds=() if witness is None else tuple(
            (length, per_symbol[witness][length]) for length in lengths),
        per_symbol=per_symbol,
        horizon=horizon,
        max_run=max_run,
    )


@dataclass(eq=False)
class DecayReport:
    """Log op-norms of the running product along one law, with a decay verdict.

    Decaying means the largest log-norm over the final quarter of the horizon
    sits at least log 2 below the smallest log-norm over the first quarter.
    """

    verdict: str
    log_norms: np.ndarray
    head_min: float
    tail_max: float
    horizon: int
    warning: str | None


def decay_check(system, law: SwitchingLaw, horizon: int) -> DecayReport:
    """Measure whether the cocycle product along ``law`` is heading to zero.

    Intended for systems whose periodic products all contract; when
    ``periodic_stability`` finds a short periodic word that does not, the
    report names the worst one in a warning instead of refusing, since the
    measurement itself is still well defined.
    """
    system._require_alphabet(law, "law")
    horizon = require_int(horizon, 4, "horizon must be an integer >= 4")
    warning = None
    periodic = periodic_stability(system, _QUICK_STABILITY_LEN)
    if not periodic.stable:
        warning = (
            "system is not periodically stable up to word length "
            f"{_QUICK_STABILITY_LEN} (word {periodic.worst_word.symbols} has normalized "
            f"radius {periodic.worst_radius:.6f}); decay is not expected"
        )
    logs = np.empty(horizon)
    for n, prod in enumerate(walk(system.generators, law.sequence(horizon))):
        logs[n] = prod.log_op_norm
    quarter = horizon // 4
    head_min = float(np.min(logs[:quarter]))
    tail_max = float(np.max(logs[horizon - quarter:]))
    verdict = DECAYING if tail_max < head_min - _DECAY_GAP else NOT_DECAYING
    return DecayReport(
        verdict=verdict,
        log_norms=logs,
        head_min=head_min,
        tail_max=tail_max,
        horizon=horizon,
        warning=warning,
    )
