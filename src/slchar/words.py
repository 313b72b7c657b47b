"""Words in a free group of declared rank.

A letter is a signed integer: ``k`` is the k-th generator, ``-k`` its
inverse (1-based, ``1 <= k <= rank``).  Two notations are parsed:

* compact, case-sensitive letters ``X Y Z`` for generators 1-3, with
  lowercase meaning the inverse, and
* indexed tokens ``X1``, ``X2^-1`` for arbitrary rank.

The canonical printer always emits the indexed form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "Word",
    "WordSyntaxError",
    "parse_word",
    "MAX_WORD_LETTERS",
]


#: The compact letters and their generator indices; lowercase is the inverse.
_COMPACT = {"X": 1, "Y": 2, "Z": 3}

#: Longest word, counted after exponent expansion, that ``parse_word``
#: accepts; exponents are expanded letter by letter, so an unbounded one
#: would exhaust memory.
MAX_WORD_LETTERS = 100_000


class WordSyntaxError(ValueError):
    """Raised on malformed word text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for g in letters:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def _cyclic_reduce(letters: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The letters of :meth:`Word.cyclic_reduce`'s core and conjugator."""
    w = _free_reduce(letters)
    k = 0  # matching end pairs: w[k] is inverse to w[-1 - k]
    while len(w) - 2 * k >= 2 and w[k] == -w[-1 - k]:
        k += 1
    return w[k:len(w) - k], w[:k]


@dataclass(frozen=True)
class Word:
    """A word in the free group of rank ``rank``.

    Letters are stored as given; use :meth:`reduce` for the freely
    reduced representative.  Instances are immutable and hashable, so
    they are safe to share between threads and to use as cache keys.
    """

    rank: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for g in self.letters:
            if g == 0 or abs(g) > self.rank:
                raise ValueError(
                    f"letter {g} out of range for rank {self.rank}"
                )

    # -- basic structure ------------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.reduce().letters

    @property
    def is_reduced(self) -> bool:
        return all(
            self.letters[i] != -self.letters[i + 1]
            for i in range(len(self.letters) - 1)
        )

    @property
    def is_cyclically_reduced(self) -> bool:
        w = self.letters
        return self.is_reduced and (len(w) < 2 or w[0] != -w[-1])

    # -- group operations ------------------------------------------------

    def reduce(self) -> "Word":
        """Freely reduced representative; idempotent."""
        return Word(self.rank, _free_reduce(self.letters))

    def inverse(self) -> "Word":
        return Word(self.rank, tuple(-g for g in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise ValueError(
                f"rank mismatch: {self.rank} != {other.rank}"
            )
        return Word(self.rank, _free_reduce(self.letters + other.letters))

    def __invert__(self) -> "Word":
        return self.inverse()

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.rank, _free_reduce(self.letters * n))

    def cyclic_reduce(self) -> tuple["Word", "Word"]:
        """Return ``(core, conjugator)`` with self = conjugator * core * conjugator^-1.

        The core is cyclically reduced: its first letter is not inverse
        to its last.
        """
        core, conjugator = _cyclic_reduce(self.letters)
        return Word(self.rank, core), Word(self.rank, conjugator)

    @staticmethod
    def identity(rank: int) -> "Word":
        return Word(rank, ())

    @staticmethod
    def generator(rank: int, index: int, inverted: bool = False) -> "Word":
        if not 1 <= index <= rank:
            raise ValueError(f"generator index {index} exceeds rank {rank}")
        return Word(rank, (-index if inverted else index,))

    # -- printing ---------------------------------------------------------

    def canonical(self) -> str:
        """Canonical indexed form, e.g. ``X1 X2^-1``; empty for the identity."""
        return " ".join(
            f"X{abs(g)}" if g > 0 else f"X{abs(g)}^-1" for g in self.letters
        )

    def __str__(self) -> str:
        return self.canonical() or "<identity>"

    def __repr__(self) -> str:
        return f"Word(rank={self.rank}, {self.canonical()!r})"


_TOKEN = re.compile(r"\s*([A-Za-z])(\d+)?(?:\^(-?\d+))?")


def _parse_int(text: str, limit: int, what: str, pos: int) -> int:
    """``int(text)`` for an optionally signed digit string.  A string with
    more significant digits than ``limit`` raises WordSyntaxError before
    any conversion: its value is over the limit, and ``int()`` refuses
    strings of more than 4,300 digits."""
    digits = text.lstrip("-").lstrip("0") or "0"
    if len(digits) > len(str(limit)):
        raise WordSyntaxError(f"{what} of {len(digits)} digits exceeds {limit}", pos)
    return -int(digits) if text.startswith("-") else int(digits)


def parse_word(text: str, rank: int) -> Word:
    """Parse ``text`` as a word of the given rank and return it reduced.

    The compact letters ``X, Y, Z`` are generators 1, 2, 3 and lowercase
    their inverses; indexed tokens ``X<k>`` and ``X<k>^-1`` work for any
    rank.  A generator above the rank is an error.  Exponents ``^n`` are
    accepted on any token; a word that would expand to more than
    ``MAX_WORD_LETTERS`` letters raises :class:`WordSyntaxError`.

    >>> parse_word("X Y", 2).canonical()
    'X1 X2'
    >>> parse_word("X x", 2).is_identity
    True
    >>> parse_word("X1 X2^-1 X3", 3).canonical()
    'X1 X2^-1 X3'
    """
    out: list[int] = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise WordSyntaxError(f"unexpected character {text[pos]!r}", pos)
        letter, digits, exponent = m.group(1), m.group(2), m.group(3)
        if digits is not None:
            if letter != "X":
                raise WordSyntaxError(
                    f"indexed tokens must use 'X', got {letter!r}", pos
                )
            index = _parse_int(digits, rank, "generator index", pos)
            inverted = False
        else:
            index = _COMPACT.get(letter.upper())
            if index is None:
                raise WordSyntaxError(f"unknown letter {letter!r}", pos)
            inverted = letter.islower()
        if not 1 <= index <= rank:
            raise WordSyntaxError(
                f"generator index {index} exceeds rank {rank}", pos
            )
        power = 1
        if exponent is not None:
            power = _parse_int(exponent, MAX_WORD_LETTERS, "exponent", pos)
        if inverted:
            power = -power
        g = index if power > 0 else -index
        if len(out) + abs(power) > MAX_WORD_LETTERS:
            raise WordSyntaxError(
                f"word longer than {MAX_WORD_LETTERS} letters after "
                "expanding exponents", pos
            )
        out.extend([g] * abs(power))
        pos = m.end()
    return Word(rank, _free_reduce(out))
