"""Switching laws: infinite symbol sequences over a finite alphabet.

A law assigns to each time n >= 1 a generator label in 1..K.  Laws are total
functions; the finite descriptions below (periodic words, block schedules,
constructed alternating schedules, explicit prefixes) all extend to infinity
by a documented convention so that evaluation never runs off the end.

Also provided: finite words, the weighted-disagreement metric on laws,
lexicographic word and necklace enumeration, and run-length profiling.
"""

from __future__ import annotations

import abc
import itertools
import math
from dataclasses import dataclass, field

from .errors import BudgetExceededError, InvalidInputError, require_int

# Node cap for exhaustive word enumeration.
DEFAULT_ENUM_BUDGET = 1 << 22

# Truncation depth for the law metric; 2**-53 is below double resolution
# relative to the leading term, so longer tails cannot change comparisons.
DEFAULT_METRIC_PRECISION = 53


@dataclass(frozen=True)
class Word:
    """A finite word of 1-based symbols over the alphabet 1..alphabet_size."""

    symbols: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self):
        if self.alphabet_size < 1:
            raise InvalidInputError("alphabet size must be at least 1")
        syms = tuple(int(s) for s in self.symbols)
        object.__setattr__(self, "symbols", syms)
        for s in syms:
            if not 1 <= s <= self.alphabet_size:
                raise InvalidInputError(
                    f"symbol {s} outside alphabet 1..{self.alphabet_size}"
                )

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, idx):
        return self.symbols[idx]

    def times(self, count: int) -> "Word":
        """The word repeated ``count`` times (count >= 0)."""
        if count < 0:
            raise InvalidInputError("repetition count must be nonnegative")
        return Word(self.symbols * count, self.alphabet_size)

    def __add__(self, other: "Word") -> "Word":
        if other.alphabet_size != self.alphabet_size:
            raise InvalidInputError("cannot concatenate words over different alphabets")
        return Word(self.symbols + other.symbols, self.alphabet_size)

    def text(self) -> str:
        """Dash-joined rendering, e.g. ``1-2-2``; empty word gives ''."""
        return "-".join(str(s) for s in self.symbols)


class SwitchingLaw(abc.ABC):
    """An infinite sequence of generator labels, evaluated at times n >= 1.

    Each law describes itself as a stream of ``(symbols, count)`` segments:
    the nonempty tuple ``symbols`` repeated ``count`` times, where the last
    segment a law yields has count ``math.inf``.
    """

    @property
    @abc.abstractmethod
    def alphabet_size(self) -> int: ...

    @abc.abstractmethod
    def _segments(self):
        """Yield the law's (symbols, count) segments in time order."""

    def symbol(self, n: int) -> int:
        """Symbol at time n >= 1, found by skipping whole segments."""
        n = require_int(n, 1, f"law times are integers starting at 1, got {n!r}")
        for symbols, count in self._segments():
            span = len(symbols) * count
            if n <= span:
                return symbols[(n - 1) % len(symbols)]
            n -= span

    def shift(self, steps: int = 1) -> "SwitchingLaw":
        """The law with the first ``steps`` symbols dropped."""
        steps = require_int(steps, 0, "shift steps must be a nonnegative integer")
        return _ShiftedLaw(self, steps) if steps else self

    def sequence(self, horizon: int) -> list[int]:
        """Symbols at times 1..horizon as a list."""
        horizon = require_int(horizon, 0, "horizon must be a nonnegative integer")
        out: list[int] = []
        for symbols, count in self._segments():
            need = horizon - len(out)
            if need <= 0:
                break
            out.extend(symbols * min(count, -(-need // len(symbols))))
        del out[horizon:]
        return out

    def spec_dict(self) -> dict:
        """JSON-ready description; raises for laws with no file form."""
        raise InvalidInputError(f"{type(self).__name__} has no file representation")


class _ShiftedLaw(SwitchingLaw):
    """View of another law with the first ``offset`` symbols dropped."""

    def __init__(self, base: SwitchingLaw, offset: int):
        self._base = base
        self._offset = offset

    @property
    def alphabet_size(self) -> int:
        return self._base.alphabet_size

    def _segments(self):
        skip = self._offset
        for symbols, count in self._base._segments():
            if skip >= len(symbols) * count:
                skip -= len(symbols) * count
                continue
            whole, part = divmod(skip, len(symbols))
            skip = 0
            if part:
                yield symbols[part:], 1
                whole += 1
            if count > whole:
                yield symbols, count - whole


class PeriodicLaw(SwitchingLaw):
    """Endless repetition of a fixed nonempty word."""

    def __init__(self, word: Word):
        if len(word) == 0:
            raise InvalidInputError("periodic laws need a nonempty word")
        self._word = word

    @property
    def alphabet_size(self) -> int:
        return self._word.alphabet_size

    @property
    def word(self) -> Word:
        return self._word

    def _segments(self):
        yield self._word.symbols, math.inf

    def sequence(self, horizon: int) -> list[int]:
        horizon = require_int(horizon, 0, "horizon must be a nonnegative integer")
        reps = (horizon + len(self._word) - 1) // len(self._word)
        return list(self._word.symbols * reps)[:horizon]

    def spec_dict(self) -> dict:
        return {
            "type": "periodic",
            "alphabet": self.alphabet_size,
            "word": list(self._word.symbols),
        }


class ExplicitLaw(SwitchingLaw):
    """A finite prefix followed by a constant fallback symbol.

    The fallback defaults to the last prefix symbol; an empty prefix must
    name one explicitly.
    """

    def __init__(self, prefix: Word, fallback: int | None = None):
        if fallback is None:
            if len(prefix) == 0:
                raise InvalidInputError("an empty prefix needs an explicit fallback")
            fallback = prefix[-1]
        message = f"fallback {fallback!r} outside alphabet 1..{prefix.alphabet_size}"
        fallback = require_int(fallback, 1, message)
        if fallback > prefix.alphabet_size:
            raise InvalidInputError(message)
        self._prefix = prefix
        self._fallback = fallback

    @property
    def alphabet_size(self) -> int:
        return self._prefix.alphabet_size

    @property
    def prefix(self) -> Word:
        return self._prefix

    @property
    def fallback(self) -> int:
        return self._fallback

    def _segments(self):
        if len(self._prefix) > 0:
            yield self._prefix.symbols, 1
        yield (self._fallback,), math.inf

    def sequence(self, horizon: int) -> list[int]:
        horizon = require_int(horizon, 0, "horizon must be a nonnegative integer")
        head = list(self._prefix.symbols[:horizon])
        return head + [self._fallback] * (horizon - len(head))

    def spec_dict(self) -> dict:
        return {
            "type": "explicit",
            "alphabet": self.alphabet_size,
            "prefix": list(self._prefix.symbols),
            "fallback": self._fallback,
        }


def _block(sym, length, alphabet_size: int, message: str) -> tuple[int, int]:
    """A validated (symbol, length) block."""
    sym = require_int(sym, 1, message)
    if sym > alphabet_size:
        raise InvalidInputError(message)
    return sym, require_int(length, 1, message)


class BlockLaw(SwitchingLaw):
    """Constant runs given by (symbol, length) blocks, plus an optional rule.

    The rule, when present, supplies block m (1-based) for every m past the
    explicit list, so the law is total.  Without a rule the final block's
    symbol repeats forever, mirroring the explicit-law fallback convention.
    """

    def __init__(self, blocks, alphabet_size: int, rule=None, rule_name: str | None = None):
        if alphabet_size < 1:
            raise InvalidInputError("alphabet size must be at least 1")
        clean = tuple(
            _block(sym, length, alphabet_size, f"invalid block ({sym!r}, {length!r}): "
                   f"symbols lie in 1..{alphabet_size} and lengths are at least 1")
            for sym, length in blocks
        )
        if not clean and rule is None:
            raise InvalidInputError("a block law needs blocks or a generating rule")
        self._blocks = clean
        self._rule = rule
        self._rule_name = rule_name
        self._alphabet = alphabet_size

    def _segments(self):
        for sym, length in self._blocks:
            yield (sym,), length
        if self._rule is None:
            yield (self._blocks[-1][0],), math.inf
            return
        for m in itertools.count(len(self._blocks) + 1):
            sym, length = self._rule(m)
            sym, length = _block(sym, length, self._alphabet,
                                 f"rule produced invalid block ({sym}, {length})")
            yield (sym,), length

    @property
    def alphabet_size(self) -> int:
        return self._alphabet

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        return self._blocks

    def spec_dict(self) -> dict:
        if self._rule_name == "doubling":
            return {"type": "doubling", "alphabet": self.alphabet_size}
        if self._rule is not None:
            raise InvalidInputError(
                "block laws with a custom rule have no file representation"
            )
        return {
            "type": "blocks",
            "alphabet": self.alphabet_size,
            "blocks": [list(b) for b in self._blocks],
        }


def doubling_law() -> BlockLaw:
    """Alternating blocks over {1, 2} with block m of length 2**m.

    Block 1 is two 1s, block 2 is four 2s, block 3 is eight 1s, and so on;
    run lengths double forever, so each symbol recurs with ever longer runs.
    """
    return BlockLaw(
        blocks=[],
        alphabet_size=2,
        rule=lambda m: (1 if m % 2 == 1 else 2, 2 ** m),
        rule_name="doubling",
    )


class ConstructedLaw(SwitchingLaw):
    """Prefix followed by alternating word powers i^l_1 j^L_1 i^l_2 j^L_2 ...

    ``schedule`` holds the exponent pairs (l_k, L_k) actually computed; past
    the last pair the final (i^l_K, j^L_K) super-block repeats forever, a
    deterministic convention that keeps the law total and makes serialized
    copies reproduce evaluation exactly.
    """

    def __init__(self, prefix: Word, i_word: Word, j_word: Word, schedule):
        k = prefix.alphabet_size
        if i_word.alphabet_size != k or j_word.alphabet_size != k:
            raise InvalidInputError("prefix and witness words must share one alphabet")
        if len(i_word) == 0 or len(j_word) == 0:
            raise InvalidInputError("witness words must be nonempty")
        message = "exponents must be integers of at least 1"
        sched = tuple((require_int(l, 1, message), require_int(L, 1, message))
                      for l, L in schedule)
        if not sched:
            raise InvalidInputError(
                "constructed laws need at least one exponent pair; "
                "use an explicit law for an empty schedule"
            )
        self._prefix = prefix
        self._i = i_word
        self._j = j_word
        self._schedule = sched

    def _segments(self):
        if len(self._prefix) > 0:
            yield self._prefix.symbols, 1
        for l, L in self._schedule:
            yield self._i.symbols, l
            yield self._j.symbols, L
        l, L = self._schedule[-1]
        yield self._i.symbols * l + self._j.symbols * L, math.inf

    @property
    def alphabet_size(self) -> int:
        return self._prefix.alphabet_size

    @property
    def prefix(self) -> Word:
        return self._prefix

    @property
    def i_word(self) -> Word:
        return self._i

    @property
    def j_word(self) -> Word:
        return self._j

    @property
    def schedule(self) -> tuple[tuple[int, int], ...]:
        return self._schedule

    def spec_dict(self) -> dict:
        return {
            "type": "constructed",
            "alphabet": self.alphabet_size,
            "prefix": list(self._prefix.symbols),
            "i": list(self._i.symbols),
            "j": list(self._j.symbols),
            "schedule": [list(p) for p in self._schedule],
        }


def law_metric(a: SwitchingLaw, b: SwitchingLaw, precision: int = DEFAULT_METRIC_PRECISION) -> float:
    """Weighted disagreement sum_{n=1}^{precision} min(1, |a(n)-b(n)|) / 2^n.

    A pseudometric on laws truncated at ``precision`` terms; two laws agree
    on their first N symbols exactly when the metric is below 2**-N.
    """
    if a.alphabet_size != b.alphabet_size:
        raise InvalidInputError("laws must share one alphabet")
    precision = require_int(precision, 1, "precision must be a positive integer")
    sa = a.sequence(precision)
    sb = b.sequence(precision)
    total = 0.0
    for n in range(precision, 0, -1):
        total += min(1.0, abs(sa[n - 1] - sb[n - 1])) * 2.0 ** (-n)
    return total


def _check_enumeration_budget(alphabet_size: int, length: int, budget: int) -> int:
    """The validated word length, once the K^length words fit the budget."""
    if alphabet_size < 1:
        raise InvalidInputError("alphabet size must be at least 1")
    length = require_int(length, 0, "word length must be a nonnegative integer")
    count = alphabet_size ** length
    if count > budget:
        raise BudgetExceededError(
            f"{count} words of length {length} over {alphabet_size} symbols "
            f"exceed the budget of {budget}",
            spent=0,
            budget=budget,
        )
    return length


def enumerate_words(alphabet_size: int, length: int, budget: int = DEFAULT_ENUM_BUDGET):
    """All words of the given length in lexicographic order.

    The budget is checked before any word is produced.
    """
    length = _check_enumeration_budget(alphabet_size, length, budget)

    def generate():
        for tup in itertools.product(range(1, alphabet_size + 1), repeat=length):
            yield Word(tup, alphabet_size)

    return generate()


def enumerate_necklaces(alphabet_size: int, length: int, budget: int = DEFAULT_ENUM_BUDGET):
    """Lexicographically minimal representatives of cyclic word classes.

    A word is kept iff it is <= every rotation of itself, so exactly one
    word per necklace appears, in lexicographic order.
    """
    length = _check_enumeration_budget(alphabet_size, length, budget)

    def generate():
        for tup in itertools.product(range(1, alphabet_size + 1), repeat=length):
            if all(tup <= tup[i:] + tup[:i] for i in range(1, length)):
                yield Word(tup, alphabet_size)

    return generate()


@dataclass
class RunProfile:
    """Longest constant runs per symbol inside consecutive windows.

    ``windows`` maps each window start time to {symbol: longest run fully
    inside the window}; every alphabet symbol appears, with 0 when absent.
    """

    horizon: int
    window_width: int
    windows: list[tuple[int, dict[int, int]]] = field(default_factory=list)


def run_profile(law: SwitchingLaw, horizon: int, window_width: int) -> RunProfile:
    """Profile constant runs of ``law`` in windows of stride ``window_width``."""
    message = "need integers horizon >= window width >= 1"
    window_width = require_int(window_width, 1, message)
    horizon = require_int(horizon, window_width, message)
    seq = law.sequence(horizon)
    profile = RunProfile(horizon=horizon, window_width=window_width)
    start = 1
    while start + window_width - 1 <= horizon:
        chunk = seq[start - 1 : start - 1 + window_width]
        runs = {sym: 0 for sym in range(1, law.alphabet_size + 1)}
        run_sym, run_len = chunk[0], 0
        for sym in chunk:
            if sym == run_sym:
                run_len += 1
            else:
                runs[run_sym] = max(runs[run_sym], run_len)
                run_sym, run_len = sym, 1
        runs[run_sym] = max(runs[run_sym], run_len)
        profile.windows.append((start, runs))
        start += window_width
    return profile


def law_to_spec(law: SwitchingLaw) -> dict:
    """JSON-ready dictionary describing ``law``; inverse of law_from_spec."""
    return law.spec_dict()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidInputError(message)


def law_from_spec(spec: dict) -> SwitchingLaw:
    """Build a law from its dictionary form, validating every field."""
    _require(isinstance(spec, dict), "law spec must be an object")
    kind = spec.get("type")
    _require(isinstance(kind, str), "law spec needs a string 'type'")
    alphabet = spec.get("alphabet", 2 if kind == "doubling" else None)
    _require(
        isinstance(alphabet, int) and not isinstance(alphabet, bool) and alphabet >= 1,
        "law spec field 'alphabet' must be a positive integer",
    )

    def word_field(name: str, allow_empty: bool) -> Word:
        raw = spec.get(name)
        _require(isinstance(raw, list), f"law spec field '{name}' must be a list")
        if not allow_empty:
            _require(len(raw) > 0, f"law spec field '{name}' must be nonempty")
        for s in raw:
            _require(
                isinstance(s, int) and not isinstance(s, bool) and 1 <= s <= alphabet,
                f"law spec field '{name}' has symbol {s!r} outside 1..{alphabet}",
            )
        return Word(tuple(raw), alphabet)

    def pairs_field(name: str, shape: str) -> list:
        raw = spec.get(name)
        _require(isinstance(raw, list) and len(raw) > 0,
                 f"law spec field '{name}' must be a nonempty list")
        for entry in raw:
            _require(isinstance(entry, list) and len(entry) == 2,
                     f"law spec field '{name}' entries must be {shape} pairs")
        return [tuple(entry) for entry in raw]

    # The law constructors reject non-integer and bool numbers in the fields
    # checked here only for shape: fallback, block entries and exponents.
    if kind == "periodic":
        return PeriodicLaw(word_field("word", allow_empty=False))
    if kind == "explicit":
        return ExplicitLaw(word_field("prefix", allow_empty=True), spec.get("fallback"))
    if kind == "blocks":
        return BlockLaw(pairs_field("blocks", "[symbol, length]"), alphabet)
    if kind == "doubling":
        _require(alphabet == 2, "doubling laws use alphabet 2")
        return doubling_law()
    if kind == "constructed":
        prefix = word_field("prefix", allow_empty=True)
        i_word = word_field("i", allow_empty=False)
        j_word = word_field("j", allow_empty=False)
        return ConstructedLaw(prefix, i_word, j_word, pairs_field("schedule", "[l, L]"))
    raise InvalidInputError(f"unknown law type {kind!r}")
