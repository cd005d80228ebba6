"""Switching laws: infinite symbol sequences over a finite alphabet.

A law assigns to each time n >= 1 a generator label in 1..K.  Laws are total
functions; the finite descriptions below (periodic words, block schedules,
constructed alternating schedules, explicit prefixes) all extend to infinity
by a documented convention so that evaluation never runs off the end.

Also provided: finite words and the weighted-disagreement metric on laws.
"""

from __future__ import annotations

import abc
import itertools
import math
from dataclasses import dataclass

from .errors import _BOOLS, InvalidInputError, _require, require_int

# Truncation depth for the law metric; 2**-53 is below double resolution
# relative to the leading term, so longer tails cannot change comparisons.
DEFAULT_METRIC_PRECISION = 53


def _label(value, size: int) -> int:
    """``value`` as an int: an integer-valued number in 1..size, not a bool
    (Python's or numpy's).

    Every symbol a word, law or system takes is checked here.  Words are
    checked symbol by symbol, so the message is formatted only on failure.
    """
    try:
        if not isinstance(value, _BOOLS) and int(value) == value and 1 <= value <= size:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidInputError(f"symbols are integers in 1..{size}, got {value!r}")


@dataclass(frozen=True)
class Word:
    """A finite word of 1-based symbols over the alphabet 1..alphabet_size."""

    symbols: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self):
        size = require_int(self.alphabet_size, 1, "alphabet size must be an integer of at least 1")
        object.__setattr__(self, "alphabet_size", size)
        object.__setattr__(self, "symbols", tuple(_label(s, size) for s in self.symbols))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, idx):
        return self.symbols[idx]

    def text(self) -> str:
        """Dash-joined rendering, e.g. ``1-2-2``; empty word gives ''."""
        return "-".join(str(s) for s in self.symbols)


class SwitchingLaw(abc.ABC):
    """An infinite sequence of generator labels, evaluated at times n >= 1.

    Each law describes itself as a stream of ``(symbols, count)`` segments:
    the nonempty sequence ``symbols`` repeated ``count`` times.  The stream
    never ends, or its last segment has count ``math.inf``; it is advanced
    only as far as the times asked for.
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

    def sequence(self, horizon: int) -> list[int]:
        """Symbols at times 1..horizon as a list."""
        horizon = require_int(horizon, 0, "horizon must be a nonnegative integer")
        out: list[int] = []
        segments = self._segments()
        while len(out) < horizon:
            symbols, count = next(segments)
            span = min(len(symbols) * count, horizon - len(out))
            out.extend(itertools.islice(itertools.cycle(symbols), span))
        return out

    @abc.abstractmethod
    def spec_dict(self) -> dict:
        """JSON-ready description; ``law_from_spec`` rebuilds the law from it."""


class PeriodicLaw(SwitchingLaw):
    """Endless repetition of a fixed nonempty word."""

    def __init__(self, word: Word):
        if len(word) == 0:
            raise InvalidInputError("periodic laws need a nonempty word")
        self._word = word

    @property
    def alphabet_size(self) -> int:
        return self._word.alphabet_size

    def _segments(self):
        yield self._word.symbols, math.inf

    def sequence(self, horizon: int) -> list[int]:
        horizon = require_int(horizon, 0, "horizon must be a nonnegative integer")
        return list(itertools.islice(itertools.cycle(self._word.symbols), horizon))

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
        self._prefix = prefix
        self._fallback = _label(fallback, prefix.alphabet_size)

    @property
    def alphabet_size(self) -> int:
        return self._prefix.alphabet_size

    def _segments(self):
        if len(self._prefix) > 0:
            yield self._prefix.symbols, 1
        yield (self._fallback,), math.inf

    def sequence(self, horizon: int) -> list[int]:
        horizon = require_int(horizon, 0, "horizon must be a nonnegative integer")
        head = list(itertools.islice(self._prefix.symbols, horizon))
        head.extend(itertools.repeat(self._fallback, horizon - len(head)))
        return head

    def spec_dict(self) -> dict:
        return {
            "type": "explicit",
            "alphabet": self.alphabet_size,
            "prefix": list(self._prefix.symbols),
            "fallback": self._fallback,
        }


class BlockLaw(SwitchingLaw):
    """Constant runs given by a nonempty list of (symbol, length) blocks.

    The final block's symbol repeats forever, mirroring the explicit-law
    fallback convention, so the law is total.
    """

    def __init__(self, blocks, alphabet_size: int):
        alphabet_size = require_int(alphabet_size, 1,
                                    "alphabet size must be an integer of at least 1")
        clean = []
        for sym, length in blocks:
            clean.append((_label(sym, alphabet_size),
                          require_int(length, 1, f"block lengths are at least 1, got {length!r}")))
        if not clean:
            raise InvalidInputError("a block law needs at least one block")
        self._blocks = tuple(clean)
        self._alphabet = alphabet_size

    def _segments(self):
        for sym, length in self._blocks:
            yield (sym,), length
        yield (self._blocks[-1][0],), math.inf

    @property
    def alphabet_size(self) -> int:
        return self._alphabet

    def spec_dict(self) -> dict:
        return {
            "type": "blocks",
            "alphabet": self.alphabet_size,
            "blocks": [list(b) for b in self._blocks],
        }


class _DoublingLaw(SwitchingLaw):
    """The law ``doubling_law`` returns."""

    @property
    def alphabet_size(self) -> int:
        return 2

    def _segments(self):
        for m in itertools.count(1):
            yield (1 if m % 2 else 2,), 2 ** m

    def spec_dict(self) -> dict:
        return {"type": "doubling", "alphabet": 2}


def doubling_law() -> SwitchingLaw:
    """Alternating blocks over {1, 2} with block m of length 2**m.

    Block 1 is two 1s, block 2 is four 2s, block 3 is eight 1s, and so on;
    run lengths double forever, so each symbol recurs with ever longer runs.
    """
    return _DoublingLaw()


class _SuperBlock:
    """The symbols ``i * l + j * L``, indexed arithmetically and iterated
    lazily, so a segment of huge exponents is never built as a tuple."""

    def __init__(self, i: tuple[int, ...], j: tuple[int, ...], l: int, L: int):
        self._parts = ((i, l * len(i)), (j, L * len(j)))

    def __len__(self) -> int:
        return self._parts[0][1] + self._parts[1][1]

    def __getitem__(self, r: int) -> int:
        (i, head), (j, _) = self._parts
        return i[r % len(i)] if r < head else j[(r - head) % len(j)]

    def __iter__(self):
        return itertools.chain.from_iterable(
            itertools.islice(itertools.cycle(word), span) for word, span in self._parts)


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
        yield _SuperBlock(self._i.symbols, self._j.symbols, *self._schedule[-1]), math.inf

    @property
    def alphabet_size(self) -> int:
        return self._prefix.alphabet_size

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


def law_to_spec(law: SwitchingLaw) -> dict:
    """JSON-ready dictionary describing ``law``; inverse of law_from_spec.
    This is how a law's fields are read: laws expose no field accessors."""
    return law.spec_dict()


def law_from_spec(spec: dict) -> SwitchingLaw:
    """Build a law from its dictionary form, validating every field."""
    _require(lambda v: isinstance(v, dict), spec, "law spec must be an object")
    kind = spec.get("type")
    _require(lambda v: isinstance(v, str), kind, "law spec needs a string 'type'")
    alphabet = spec.get("alphabet", 2 if kind == "doubling" else None)
    _require(lambda v: isinstance(v, int) and v >= 1, alphabet,
             "law spec field 'alphabet' must be a positive integer")

    def word_field(name: str) -> Word:
        # A file's symbols are JSON integers; Word checks their range.
        raw = spec.get(name)
        _require(lambda v: isinstance(v, list) and all(type(s) is int for s in v), raw,
                 f"law spec field '{name}' must be a list of integers")
        return Word(tuple(raw), alphabet)

    def pairs_field(name: str, shape: str) -> list:
        raw = spec.get(name)
        _require(lambda v: isinstance(v, list) and len(v) > 0, raw,
                 f"law spec field '{name}' must be a nonempty list")
        for entry in raw:
            _require(lambda v: isinstance(v, list) and len(v) == 2, entry,
                     f"law spec field '{name}' entries must be {shape} pairs")
        return [tuple(entry) for entry in raw]

    # The law constructors reject non-integer and bool numbers in the fields
    # checked here only for shape: fallback, block entries and exponents.
    if kind == "periodic":
        return PeriodicLaw(word_field("word"))
    if kind == "explicit":
        return ExplicitLaw(word_field("prefix"), spec.get("fallback"))
    if kind == "blocks":
        return BlockLaw(pairs_field("blocks", "[symbol, length]"), alphabet)
    if kind == "doubling":
        _require(lambda v: v == 2, alphabet, "doubling laws use alphabet 2")
        return doubling_law()
    if kind == "constructed":
        prefix = word_field("prefix")
        i_word = word_field("i")
        j_word = word_field("j")
        return ConstructedLaw(prefix, i_word, j_word, pairs_field("schedule", "[l, L]"))
    raise InvalidInputError(f"unknown law type {kind!r}")
