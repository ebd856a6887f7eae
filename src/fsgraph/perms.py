"""Permutations of [n] in one-line notation.

A permutation is a ``bytes`` subclass holding its one-line word (values
1..n), which makes instances compact, hashable in C, and ordered exactly
by the lexicographic order on one-line words.  That order is the canonical
order used for component representatives everywhere downstream.

This module also owns the n! one-line words themselves, as plain
``bytes`` in lexicographic order (``lex_words``).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from functools import partial

from .errors import InvalidArgumentError

MAX_N = 20


class Permutation(bytes):
    """A bijection of [n], immutable and hashable.

    The instance is its one-line word, so hashing, ordering, ``len`` and
    iteration are those of the word's bytes and run in C.  A Permutation
    never equals a plain ``bytes``, though the two hash alike.
    """

    __slots__ = ()

    def __new__(cls, images: Iterable[int]) -> "Permutation":
        try:
            values = list(images)
        except TypeError as exc:
            raise InvalidArgumentError(
                f"permutation images must be an iterable of integers, got {type(images).__name__}"
            ) from exc
        n = len(values)
        if n == 0 or n > MAX_N:
            raise InvalidArgumentError(f"permutation length must be in 1..{MAX_N}, got {n}")
        try:
            word = bytes(values)
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(
                f"permutation images must be integers in 1..{n}, got {values}"
            ) from exc
        if sorted(word) != list(range(1, n + 1)):
            raise InvalidArgumentError(f"not a bijection of [{n}]: {values}")
        return bytes.__new__(cls, word)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if n < 1 or n > MAX_N:
            raise InvalidArgumentError(f"n must be in 1..{MAX_N}, got {n}")
        return cls._from_word(bytes(range(1, n + 1)))

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse a one-line word like "53142" (n <= 9) or "5,3,1,4,2"."""
        text = text.strip()
        if "," in text:
            parts = text.split(",")
        else:
            if not text.isdigit():
                raise InvalidArgumentError(f"cannot parse permutation {text!r}")
            parts = list(text)
        try:
            images = [int(p) for p in parts]
        except ValueError as exc:
            raise InvalidArgumentError(f"cannot parse permutation {text!r}") from exc
        return cls(images)

    @property
    def word(self) -> bytes:
        """The one-line word as a plain ``bytes``."""
        return bytes(self)

    @property
    def n(self) -> int:
        return len(self)

    @property
    def images(self) -> tuple[int, ...]:
        return tuple(self)

    def __call__(self, i: int) -> int:
        """Value at position i (1-indexed)."""
        if not 1 <= i <= len(self):
            raise InvalidArgumentError(f"position {i} out of range 1..{len(self)}")
        return self[i - 1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and bytes.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    # Defining __eq__ would drop the inherited hash; bytes' own keeps it in C.
    __hash__ = bytes.__hash__

    def __repr__(self) -> str:
        return f"Permutation({self})"

    def __str__(self) -> str:
        if len(self) <= 9:
            return "".join(str(v) for v in self)
        return ",".join(str(v) for v in self)

    def compose(self, other: "Permutation") -> "Permutation":
        """Return self after other: result(i) = self(other(i))."""
        if len(self) != len(other):
            raise InvalidArgumentError("cannot compose permutations of different lengths")
        return Permutation._from_word(bytes(self[v - 1] for v in other))

    def inverse(self) -> "Permutation":
        out = bytearray(len(self))
        for pos, value in enumerate(self, start=1):
            out[value - 1] = pos
        return Permutation._from_word(bytes(out))

    def apply_transposition(self, i: int, j: int) -> "Permutation":
        """Swap the entries at positions i < j; equals compose with (i j)."""
        n = len(self)
        if not (1 <= i < j <= n):
            raise InvalidArgumentError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
        out = bytearray(self)
        out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
        return Permutation._from_word(bytes(out))

    def sign(self) -> int:
        """+1 for even permutations, -1 for odd, by cycle counting."""
        n = len(self)
        seen = bytearray(n)
        cycles = 0
        for start in range(n):
            if seen[start]:
                continue
            cycles += 1
            v = start
            while not seen[v]:
                seen[v] = 1
                v = self[v] - 1
        return 1 if (n - cycles) % 2 == 0 else -1

    def cyclic_shift(self) -> "Permutation":
        """Precompose with i -> i+1 (mod n): the word rotates left by one."""
        return Permutation._from_word(self[1:] + self[:1])


# Trusted fast path: callers guarantee `word` is a valid one-line word.  It
# is bytes.__new__ itself, so building a Permutation runs no Python frame.
Permutation._from_word = staticmethod(partial(bytes.__new__, Permutation))


# The word tables, and orientations' Permutation and key tables, are kept
# for n up to this bound: 8! words of 8 bytes take about 2.4 MB.
_ORDER_TABLE_MAX_N = 8
_WORD_TABLES: dict[int, tuple[bytes, ...]] = {}


def lex_words(n: int, keep: bool = True) -> Iterable[bytes]:
    """The n! one-line words of [n] as plain ``bytes``, in lexicographic
    order.

    For n <= _ORDER_TABLE_MAX_N every call returns the same tuple, built
    once per process; a kept word caches its hash on its first set lookup,
    so later lookups of it hash nothing.  Keeping them pays only in a
    process that looks the words up at the same n more than once.  Past
    the bound, or with ``keep=False`` before the table exists, the result
    is a one-shot iterator over itertools.permutations and nothing is kept.
    """
    table = _WORD_TABLES.get(n)
    if table is not None:
        return table
    words = map(bytes, itertools.permutations(range(1, n + 1)))
    if keep and n <= _ORDER_TABLE_MAX_N:
        table = _WORD_TABLES[n] = tuple(words)
        return table
    return words
