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

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BudgetExceededError, InvalidInputError, _require, require_fraction,
                     require_int, require_positive)
from .linalg import (ABS_TOL, SINGULARITY_RTOL, LogScaledMatrix, as_matrix, co_norm, op_norm, walk,
                     word_tree)
from .switching import ConstructedLaw, ExplicitLaw, SwitchingLaw, Word

# Node cap for the length-increasing witness scan.
DEFAULT_SEARCH_BUDGET = 1 << 22

# Application cap for the greedy exponent search.
DEFAULT_GREEDY_BUDGET = 10 ** 6

# Step cap for simulate's horizon.
SIMULATE_BUDGET = 10 ** 7

# Certified strict inequalities must hold with this log-space margin.
LOG_MARGIN = 1e-9


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
            top, bottom = op_norm(g), co_norm(g)
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
        (label,) = self.word((label,)).symbols
        return self._generators[label - 1]

    def word_product(self, word) -> LogScaledMatrix:
        """Log-scaled product along a word of labels.

        The rightmost factor corresponds to the first symbol, matching the
        convention that the symbol applied at time 1 acts on the state first:
        word (w1, ..., wn) yields S_{wn} ... S_{w1}.  The empty word gives the
        identity with log_scale 0.
        """
        prod = LogScaledMatrix.identity(self._dim)
        for prod in walk(self._generators, self.word(word).symbols, prod):
            pass
        return prod

    def word(self, symbols) -> Word:
        return Word(tuple(symbols), self.alphabet_size)

    def _require_alphabet(self, item, what: str) -> None:
        """Refuse ``item``, a word or law, unless its alphabet is the system's."""
        _require(lambda v: v.alphabet_size == self.alphabet_size, item,
                 f"{what} alphabet does not match the system")

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


def _witness_sides(log_top: float, log_bottom: float, tol: float) -> tuple[bool, bool]:
    """The one witness rule, read on log norms: whether an op-norm
    exp(log_top) contracts below 1 - tol and whether a co-norm
    exp(log_bottom) expands above 1 + tol."""
    return log_top < math.log(1.0 - tol), log_bottom > math.log(1.0 + tol)


def verify_witness(system: MatrixSystem, contract_word: Word, expand_word: Word,
                   tol: float = ABS_TOL) -> WitnessPair | Refusal:
    """Check a candidate pair of words against the strict norm thresholds.

    Returns a WitnessPair when op_norm of the contracting product is below
    1 - tol and co_norm of the expanding product is above 1 + tol; otherwise
    a Refusal naming every failing side with its computed value.
    """
    tol = require_fraction(tol, "tol must lie in [0, 1)")
    for name, word in (("contracting", contract_word), ("expanding", expand_word)):
        system._require_alphabet(word, f"{name} word")
        if len(word) == 0:
            raise InvalidInputError(f"{name} word must be nonempty")
    log_top = system.word_product(contract_word).log_op_norm
    log_bottom = system.word_product(expand_word).log_co_norm
    contracts, expands = _witness_sides(log_top, log_bottom, tol)
    top, bottom = math.exp(log_top), math.exp(log_bottom)
    failures = []
    if not contracts:
        failures.append(RefusalReason("contracting", contract_word, top))
    if not expands:
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


def find_witness(system: MatrixSystem, max_len: int = 12,
                 budget: int = DEFAULT_SEARCH_BUDGET, tol: float = ABS_TOL) -> WitnessSearch:
    """Scan words by increasing length for a contracting / expanding pair.

    Norms are not invariant under cyclic rotation, so the scan enumerates
    every word of each length in lexicographic order, walking the word tree
    afresh for each length; the first qualifying word on each side is kept.
    The budget counts matrix multiplications and aborts the scan with a
    resource error when exhausted.
    """
    max_len = require_int(max_len, 1, "max_len must be a positive integer")
    budget = require_int(budget, 0, "budget must be a nonnegative integer")
    tol = require_fraction(tol, "tol must lie in [0, 1)")
    scan = ((length, symbols, prod) for length in range(1, max_len + 1)
            for symbols, prod in word_tree(system.generators, length))
    found_contract: tuple[Word, float] | None = None
    found_expand: tuple[Word, float] | None = None
    for nodes, (length, symbols, prod) in enumerate(scan, start=1):
        if nodes > budget:
            raise BudgetExceededError(
                "witness scan exceeded its node budget", spent=nodes, budget=budget
            )
        if len(symbols) < length:
            continue
        log_top, log_bottom = prod.log_norms
        contracts, expands = _witness_sides(log_top, log_bottom, tol)
        if found_contract is None and contracts:
            found_contract = (system.word(symbols), math.exp(log_top))
        if found_expand is None and expands:
            found_expand = (system.word(symbols), math.exp(log_bottom))
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
        nodes=nodes,
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

    The witness is re-verified with tol 0, which any pair ``find_witness``
    returns passes; a stale witness is an invalid input.  k_max = 0 returns
    an empty-schedule certificate with the prefix as an explicit law.
    """
    k_max = require_int(k_max, 0, "k_max must be a nonnegative integer")
    margin = require_positive(margin, "margin must be a positive finite number")
    system._require_alphabet(target_prefix, "target prefix")
    check = verify_witness(system, witness.contracting, witness.expanding, tol=0.0)
    if isinstance(check, Refusal):
        raise InvalidInputError(f"stale witness: {check.message}")

    i_word, j_word = witness.contracting, witness.expanding
    running = system.word_product(target_prefix)
    position = len(target_prefix)
    applications = 0
    schedule: list[tuple[int, int]] = []
    crossings: list[tuple[int, int, int]] = []
    block_norms: list[tuple[float, float]] = []
    violations: list[int] = []

    def cross(word: Word, norm: str, reached) -> tuple[int, float]:
        """Apply ``word`` to the running product until ``reached`` holds for
        its log norm ``norm``; return the applications and that log norm."""
        nonlocal running, applications
        count = 0
        while True:
            applications += 1
            if applications > budget:
                raise BudgetExceededError("greedy exponent search exceeded its application budget",
                                          spent=applications, budget=budget)
            for running in walk(system.generators, word.symbols, running):
                pass
            count += 1
            value = getattr(running, norm)
            if reached(value):
                return count, value

    for k in range(1, k_max + 1):
        low_target = -math.log(k) - margin
        high_target = math.log(k) + margin
        l_count, log_op_end = cross(i_word, "log_op_norm", lambda v: v <= low_target)
        time_below = position + l_count * len(i_word)
        big_count, log_co_end = cross(j_word, "log_co_norm", lambda v: v >= high_target)
        position = time_below + big_count * len(j_word)
        schedule.append((l_count, big_count))
        crossings.append((k, time_below, position))
        block_norms.append((log_op_end, log_co_end))
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
    return cert, certificate_law(cert)


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
    co-norm clears its threshold with the certificate's margin.  A margin
    that is not a positive finite number certifies nothing.
    """
    system._require_alphabet(cert.prefix, "certificate")
    try:
        require_positive(cert.margin, "margin must be a positive finite number")
    except InvalidInputError:
        return False
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


def simulate(system: MatrixSystem, law: SwitchingLaw, x0, horizon: int) -> Trajectory:
    """Apply the law's generators to x0 for ``horizon`` steps in log scale;
    a horizon past SIMULATE_BUDGET steps is refused as a budget error."""
    system._require_alphabet(law, "law")
    horizon = require_int(horizon, 0, "horizon must be a nonnegative integer")
    if horizon > SIMULATE_BUDGET:
        raise BudgetExceededError(
            f"horizon {horizon} exceeds the step budget {SIMULATE_BUDGET}",
            spent=0,
            budget=SIMULATE_BUDGET,
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
        # sqrt(v . v) is np.linalg.norm's own computation for a real vector,
        # without its call overhead; each unit is divided straight into its
        # row, and the memoryview yields the symbols as Python ints, no list.
        with np.errstate(over="ignore", invalid="ignore"):
            for idx, sym in enumerate(memoryview(syms)):
                v = gens[sym - 1] @ u
                step = math.sqrt(v.dot(v))
                if not 0.0 < step < math.inf:
                    # The squares under the norm overflowed or underflowed.
                    peak = float(np.max(np.abs(v)))
                    v = v / peak
                    log_mag += math.log(peak)
                    step = math.sqrt(v.dot(v))
                u = np.divide(v, step, out=units[idx])
                log_mag += math.log(step)
                logs[idx] = log_mag
    return Trajectory(x0=x, symbols=syms, units=units, log_magnitudes=logs,
                      zero_input=zero_input)
