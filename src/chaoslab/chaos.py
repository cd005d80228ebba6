"""Chaotic switching laws for systems x_n = S_{sigma(n)} x_{n-1}.

A law is chaotic when every nonzero initial state has magnitude liminf 0 and
limsup infinity.  The constructive route implemented here needs one word
whose product contracts in operator norm and one whose product expands in
co-norm; alternating sufficiently long powers of the two then drives the
running product below 1/k and above k for k = 1, 2, 3, ...  The certificate
records the exponent schedule and the norm crossings so every inequality can
be re-verified independently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InvalidInputError, require_int
from .linalg import (
    ABS_TOL,
    SINGULARITY_RTOL,
    LogScaledMatrix,
    _singular_extremes,
    as_matrix,
    walk,
    word_product,
)
from .switching import ConstructedLaw, ExplicitLaw, SwitchingLaw, Word

# Node cap for the length-increasing witness scan.
DEFAULT_SEARCH_BUDGET = 1 << 22

# Application cap for the greedy exponent search.
DEFAULT_GREEDY_BUDGET = 10 ** 6

# Certified strict inequalities must hold with this log-space margin.
LOG_MARGIN = 1e-9

CONTRACTING = "contracting"
EXPANDING_OR_NEUTRAL = "nonchaotic-expanding-or-neutral"


class MatrixSystem:
    """A finite set of invertible generators of one dimension, labeled 1..K."""

    def __init__(self, generators):
        gens = [as_matrix(g) for g in generators]
        if not gens:
            raise InvalidInputError("a system needs at least one generator")
        dim = gens[0].shape[0]
        frozen = []
        for label, g in enumerate(gens, start=1):
            if g.shape[0] != dim:
                raise InvalidInputError(
                    f"generator {label} has dimension {g.shape[0]}, expected {dim}"
                )
            top, bottom = _singular_extremes(g)
            if bottom <= SINGULARITY_RTOL * top:
                raise InvalidInputError(
                    f"generator {label} is singular within tolerance "
                    f"(smallest singular value {bottom:.3e} against largest {top:.3e}); "
                    "every generator must be invertible"
                )
            copy = g.copy()
            copy.setflags(write=False)
            frozen.append(copy)
        self._generators = tuple(frozen)
        self._dim = dim

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def alphabet_size(self) -> int:
        return len(self._generators)

    @property
    def generators(self) -> tuple[np.ndarray, ...]:
        return self._generators

    def generator(self, label: int) -> np.ndarray:
        if not 1 <= label <= len(self._generators):
            raise InvalidInputError(
                f"label {label} outside alphabet 1..{len(self._generators)}"
            )
        return self._generators[label - 1]

    def word_product(self, word) -> LogScaledMatrix:
        """Log-scaled product along a word (rightmost factor first in time)."""
        return word_product(self._generators, word)

    def word(self, symbols) -> Word:
        return Word(tuple(symbols), self.alphabet_size)

    def __repr__(self) -> str:
        return f"MatrixSystem(dim={self._dim}, generators={len(self._generators)})"


@dataclass(frozen=True)
class WitnessPair:
    """Words certifying op_norm(product(contracting)) < 1 < co_norm(product(expanding))."""

    contracting: Word
    expanding: Word
    contracting_norm: float
    expanding_conorm: float


@dataclass(frozen=True)
class RefusalReason:
    side: str  # "contracting" or "expanding"
    word: Word
    value: float


@dataclass(frozen=True)
class Refusal:
    """Outcome when candidate words fail the norm inequalities."""

    failures: tuple[RefusalReason, ...]

    @property
    def message(self) -> str:
        parts = []
        for f in self.failures:
            if f.side == "contracting":
                parts.append(f"op_norm(product({f.word.symbols})) = {f.value:.6f} is not < 1")
            else:
                parts.append(f"co_norm(product({f.word.symbols})) = {f.value:.6f} is not > 1")
        return "; ".join(parts)


def verify_witness(system: MatrixSystem, contract_word: Word, expand_word: Word,
                   tol: float = ABS_TOL) -> WitnessPair | Refusal:
    """Check a candidate pair of words against the strict norm thresholds.

    Returns a WitnessPair when op_norm of the contracting product is below
    1 - tol and co_norm of the expanding product is above 1 + tol; otherwise
    a Refusal naming every failing side with its computed value.
    """
    for name, word in (("contracting", contract_word), ("expanding", expand_word)):
        if word.alphabet_size != system.alphabet_size:
            raise InvalidInputError(f"{name} word alphabet does not match the system")
        if len(word) == 0:
            raise InvalidInputError(f"{name} word must be nonempty")
    top = math.exp(system.word_product(contract_word).log_op_norm)
    bottom = math.exp(system.word_product(expand_word).log_co_norm)
    failures = []
    if not top < 1.0 - tol:
        failures.append(RefusalReason("contracting", contract_word, top))
    if not bottom > 1.0 + tol:
        failures.append(RefusalReason("expanding", expand_word, bottom))
    if failures:
        return Refusal(tuple(failures))
    return WitnessPair(
        contracting=contract_word,
        expanding=expand_word,
        contracting_norm=top,
        expanding_conorm=bottom,
    )


@dataclass
class WitnessSearch:
    """Result of the length-increasing witness scan.

    ``witness`` is None when no pair was confirmed up to ``max_len``; that is
    evidence of absence only up to the scanned length, never a proof.  The
    partial sides record the first contracting or expanding word found even
    when the other side never showed up.
    """

    witness: WitnessPair | None
    contracting: tuple[Word, float] | None
    expanding: tuple[Word, float] | None
    nodes: int
    max_len: int


def _iter_products_of_length(gens, length: int, counter: list[int], budget: int):
    """Yield (symbols, product) for every word of one length, lexicographically.

    Products are reused across the shared prefix of consecutive words, so the
    cost is amortized O(1) matrix multiplications per word.  ``counter[0]``
    counts multiplications and trips the budget.
    """
    k = len(gens)
    dim = gens[0].shape[0]
    partial = [np.eye(dim)]
    prev: tuple[int, ...] | None = None
    for tup in itertools.product(range(1, k + 1), repeat=length):
        common = 0
        if prev is not None:
            while common < length and tup[common] == prev[common]:
                common += 1
        del partial[common + 1 :]
        for depth in range(common, length):
            counter[0] += 1
            if counter[0] > budget:
                raise BudgetExceededError(
                    "witness scan exceeded its node budget",
                    spent=counter[0],
                    budget=budget,
                )
            partial.append(gens[tup[depth] - 1] @ partial[depth])
        yield tup, partial[length]
        prev = tup


def find_witness(system: MatrixSystem, max_len: int = 12,
                 budget: int = DEFAULT_SEARCH_BUDGET, tol: float = ABS_TOL) -> WitnessSearch:
    """Scan words by increasing length for a contracting / expanding pair.

    Norms are not invariant under cyclic rotation, so the scan enumerates
    every word of each length in lexicographic order; the first qualifying
    word on each side is kept.  The budget counts matrix multiplications and
    aborts the scan with a resource error when exhausted.
    """
    max_len = require_int(max_len, 1, "max_len must be a positive integer")
    counter = [0]
    found_contract: tuple[Word, float] | None = None
    found_expand: tuple[Word, float] | None = None
    for length in range(1, max_len + 1):
        for tup, prod in _iter_products_of_length(system.generators, length, counter, budget):
            top, bottom = _singular_extremes(prod)
            if found_contract is None and top < 1.0 - tol:
                found_contract = (system.word(tup), top)
            if found_expand is None and bottom > 1.0 + tol:
                found_expand = (system.word(tup), bottom)
            if found_contract is not None and found_expand is not None:
                break
        if found_contract is not None and found_expand is not None:
            break
    witness = None
    if found_contract is not None and found_expand is not None:
        witness = WitnessPair(
            contracting=found_contract[0],
            expanding=found_expand[0],
            contracting_norm=found_contract[1],
            expanding_conorm=found_expand[1],
        )
    return WitnessSearch(
        witness=witness,
        contracting=found_contract,
        expanding=found_expand,
        nodes=counter[0],
        max_len=max_len,
    )


@dataclass(frozen=True)
class ChaosCertificate:
    """Finite-horizon witness that the constructed law alternates correctly.

    For each k = 1..k_max the running product of the law's first
    ``crossings[k-1][1]`` symbols has operator norm below 1/k and the first
    ``crossings[k-1][2]`` symbols have co-norm above k, both strict with
    log-space margin; ``block_log_norms`` stores the achieved log norms.
    ``ordering_violations`` lists any k where the contracting exponent was
    not strictly smaller than the expanding one (harmless, but recorded).
    """

    prefix: Word
    i_word: Word
    j_word: Word
    schedule: tuple[tuple[int, int], ...]
    crossings: tuple[tuple[int, int, int], ...]
    block_log_norms: tuple[tuple[float, float], ...]
    ordering_violations: tuple[int, ...]
    margin: float

    @property
    def k_max(self) -> int:
        return len(self.schedule)

    @property
    def final_time(self) -> int:
        if not self.crossings:
            return len(self.prefix)
        return self.crossings[-1][2]

    def to_dict(self) -> dict:
        return {
            "prefix": list(self.prefix.symbols),
            "i": list(self.i_word.symbols),
            "j": list(self.j_word.symbols),
            "schedule": [list(p) for p in self.schedule],
            "crossings": [list(c) for c in self.crossings],
            "block_log_norms": [list(b) for b in self.block_log_norms],
            "ordering_violations": list(self.ordering_violations),
            "margin": self.margin,
        }


def construct_chaotic_law(system: MatrixSystem, witness: WitnessPair, target_prefix: Word,
                          k_max: int, margin: float = LOG_MARGIN,
                          budget: int = DEFAULT_GREEDY_BUDGET
                          ) -> tuple[ChaosCertificate, SwitchingLaw]:
    """Greedily extend a target prefix into a law with certified oscillation.

    After the arbitrary prefix, block k applies the contracting word until
    the running product's log op-norm drops below -log(k) - margin (minimal
    exponent l_k), then the expanding word until the log co-norm exceeds
    log(k) + margin (minimal exponent L_k).  Both loops terminate because the
    witness inequalities give geometric decay and growth per application.

    The witness is re-verified against the system first; a stale witness is
    an invalid input.  k_max = 0 returns an empty-schedule certificate with
    the prefix as an explicit law.
    """
    k_max = require_int(k_max, 0, "k_max must be a nonnegative integer")
    if target_prefix.alphabet_size != system.alphabet_size:
        raise InvalidInputError("target prefix alphabet does not match the system")
    check = verify_witness(system, witness.contracting, witness.expanding)
    if isinstance(check, Refusal):
        raise InvalidInputError(f"stale witness: {check.message}")

    if k_max == 0:
        cert = ChaosCertificate(
            prefix=target_prefix,
            i_word=witness.contracting,
            j_word=witness.expanding,
            schedule=(),
            crossings=(),
            block_log_norms=(),
            ordering_violations=(),
            margin=margin,
        )
        if len(target_prefix) > 0:
            law: SwitchingLaw = ExplicitLaw(target_prefix)
        else:
            law = ExplicitLaw(target_prefix, fallback=1)
        return cert, law

    i_word, j_word = witness.contracting, witness.expanding
    running = system.word_product(target_prefix)
    position = len(target_prefix)
    applications = 0
    schedule: list[tuple[int, int]] = []
    crossings: list[tuple[int, int, int]] = []
    block_norms: list[tuple[float, float]] = []
    violations: list[int] = []

    def apply_word(state: LogScaledMatrix, word: Word) -> LogScaledMatrix:
        nonlocal applications
        applications += 1
        if applications > budget:
            raise BudgetExceededError(
                "greedy exponent search exceeded its application budget",
                spent=applications,
                budget=budget,
            )
        for state in walk(system.generators, word.symbols, state):
            pass
        return state

    for k in range(1, k_max + 1):
        low_target = -math.log(k) - margin
        high_target = math.log(k) + margin
        l_count = 0
        while True:
            running = apply_word(running, i_word)
            l_count += 1
            if running.log_op_norm <= low_target:
                break
        position += l_count * len(i_word)
        time_below = position
        log_op_end = running.log_op_norm
        big_count = 0
        while True:
            running = apply_word(running, j_word)
            big_count += 1
            if running.log_co_norm >= high_target:
                break
        position += big_count * len(j_word)
        time_above = position
        schedule.append((l_count, big_count))
        crossings.append((k, time_below, time_above))
        block_norms.append((log_op_end, running.log_co_norm))
        if not l_count < big_count:
            violations.append(k)

    cert = ChaosCertificate(
        prefix=target_prefix,
        i_word=i_word,
        j_word=j_word,
        schedule=tuple(schedule),
        crossings=tuple(crossings),
        block_log_norms=tuple(block_norms),
        ordering_violations=tuple(violations),
        margin=margin,
    )
    law = ConstructedLaw(target_prefix, i_word, j_word, schedule)
    return cert, law


def certificate_law(cert: ChaosCertificate) -> SwitchingLaw:
    """The switching law a certificate describes."""
    if cert.schedule:
        return ConstructedLaw(cert.prefix, cert.i_word, cert.j_word, cert.schedule)
    if len(cert.prefix) > 0:
        return ExplicitLaw(cert.prefix)
    return ExplicitLaw(cert.prefix, fallback=1)


def recheck_certificate(system: MatrixSystem, cert: ChaosCertificate) -> bool:
    """Recompute every certified inequality from scratch.

    Walks the certificate's law symbol by symbol with a fresh log-scaled
    product and confirms that at each recorded crossing time the op-norm or
    co-norm clears its threshold with the certificate's margin.
    """
    if cert.prefix.alphabet_size != system.alphabet_size:
        raise InvalidInputError("certificate alphabet does not match the system")
    symbols = certificate_law(cert).sequence(cert.final_time)
    below = {t: k for k, t, _ in cert.crossings}
    above = {t: k for k, _, t in cert.crossings}
    for n, prod in enumerate(walk(system.generators, symbols), start=1):
        if n in below:
            k = below[n]
            if not prod.log_op_norm <= -math.log(k) - cert.margin:
                return False
        if n in above:
            k = above[n]
            if not prod.log_co_norm >= math.log(k) + cert.margin:
                return False
    return True


@dataclass
class Trajectory:
    """A simulated orbit stored as unit directions plus log magnitudes.

    ``log_magnitudes[n-1]`` is the natural log of |x_n| including the initial
    magnitude, so growth by 2**42 stays finite.  A zero initial state is
    allowed but flagged: all magnitudes are zero and the logs are -inf.
    """

    x0: np.ndarray
    symbols: np.ndarray
    units: np.ndarray
    log_magnitudes: np.ndarray
    zero_input: bool

    @property
    def horizon(self) -> int:
        return len(self.symbols)

    def log10_magnitudes(self) -> np.ndarray:
        return self.log_magnitudes / math.log(10.0)


def simulate(system: MatrixSystem, law: SwitchingLaw, x0, horizon: int,
             budget: int = 10 ** 7) -> Trajectory:
    """Apply the law's generators to x0 for ``horizon`` steps in log scale."""
    if law.alphabet_size != system.alphabet_size:
        raise InvalidInputError("law alphabet does not match the system")
    horizon = require_int(horizon, 0, "horizon must be a nonnegative integer")
    if horizon > budget:
        raise BudgetExceededError(
            f"horizon {horizon} exceeds the step budget {budget}",
            spent=0,
            budget=budget,
        )
    x = np.asarray(x0, dtype=float)
    if x.shape != (system.dim,):
        raise InvalidInputError(f"x0 must be a vector of length {system.dim}")
    if not np.isfinite(x).all():
        raise InvalidInputError("x0 entries must be finite")
    syms = np.asarray(law.sequence(horizon), dtype=int)
    units = np.zeros((horizon, system.dim))
    logs = np.full(horizon, float("-inf"))
    mag = float(np.linalg.norm(x))
    zero_input = mag == 0.0
    if not zero_input:
        u = x / mag
        log_mag = math.log(mag)
        gens = system.generators
        for idx in range(horizon):
            u = gens[syms[idx] - 1] @ u
            step = float(np.linalg.norm(u))
            u = u / step
            log_mag += math.log(step)
            units[idx] = u
            logs[idx] = log_mag
    return Trajectory(x0=x, symbols=syms, units=units, log_magnitudes=logs,
                      zero_input=zero_input)


@dataclass(frozen=True)
class CrossingEntry:
    k: int
    time_below: int | None
    time_above: int | None


@dataclass
class CrossingTable:
    """Earliest times the running product clears 1/k and k thresholds.

    Norms are matrix-level: a time with op-norm below 1/k bounds every
    orbit's magnitude ratio from above, and co-norm above k bounds every
    orbit from below, so each crossing transfers to all nonzero states.
    """

    entries: tuple[CrossingEntry, ...]
    k_max: int
    horizon: int
    margin: float

    @property
    def all_reached(self) -> bool:
        return all(e.time_below is not None and e.time_above is not None
                   for e in self.entries)

    def entry(self, k: int) -> CrossingEntry:
        return self.entries[k - 1]


def chaos_scan(system: MatrixSystem, law: SwitchingLaw, k_max: int, horizon: int,
               margin: float = LOG_MARGIN) -> CrossingTable:
    """Walk the running product and record first crossings for k = 1..k_max."""
    if law.alphabet_size != system.alphabet_size:
        raise InvalidInputError("law alphabet does not match the system")
    k_max = require_int(k_max, 1, "k_max must be a positive integer")
    horizon = require_int(horizon, 1, "horizon must be a positive integer")
    low_targets = [-math.log(k) - margin for k in range(1, k_max + 1)]
    high_targets = [math.log(k) + margin for k in range(1, k_max + 1)]
    below: list[int | None] = [None] * k_max
    above: list[int | None] = [None] * k_max
    pending = 2 * k_max
    for n, prod in enumerate(walk(system.generators, law.sequence(horizon)), start=1):
        lo = prod.log_op_norm
        hi = prod.log_co_norm
        for k_idx in range(k_max):
            if below[k_idx] is None and lo <= low_targets[k_idx]:
                below[k_idx] = n
                pending -= 1
            if above[k_idx] is None and hi >= high_targets[k_idx]:
                above[k_idx] = n
                pending -= 1
        if pending == 0:
            break
    entries = tuple(
        CrossingEntry(k=k_idx + 1, time_below=below[k_idx], time_above=above[k_idx])
        for k_idx in range(k_max)
    )
    return CrossingTable(entries=entries, k_max=k_max, horizon=horizon, margin=margin)


@dataclass(frozen=True)
class PeriodicVerdict:
    kind: str  # CONTRACTING or EXPANDING_OR_NEUTRAL
    radius: float
    word: Word


def classify_periodic(system: MatrixSystem, word: Word) -> PeriodicVerdict:
    """Classify the periodic law repeating ``word`` by its product's radius.

    Radius below 1 means every orbit of the periodic law decays to zero
    (contracting); radius 1 or larger means orbits along the dominant
    eigendirection do not decay, which rules the law out as chaotic but
    leaves it expanding or neutral.
    """
    if word.alphabet_size != system.alphabet_size:
        raise InvalidInputError("word alphabet does not match the system")
    if len(word) == 0:
        raise InvalidInputError("the periodic word must be nonempty")
    radius = math.exp(system.word_product(word).log_spectral_radius)
    kind = CONTRACTING if radius < 1.0 - ABS_TOL else EXPANDING_OR_NEUTRAL
    return PeriodicVerdict(kind=kind, radius=radius, word=word)
