"""Alphabets, letters, words, and the basic word operations shared by every
other module: the order-reversing involution theta and supports.

Letters are 1-based integers carrying the natural total order; the display
layer maps 1..26 to a..z.  All values are immutable and all operations pure.

Internally a column, an N-tableau row and a partition block are each a
bitmask int in which letter x is bit x - 1; `mask_of` and `letters_of`
convert between the two forms.  N-tableaux and set partitions store only
masks; frozensets and tuples of letters are derived at the public boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

Letter = int
Word = tuple[int, ...]
LetterSet = frozenset[int]

# Word-level operations accept alphabets up to this size; monoid enumeration
# enforces much tighter limits of its own.
MAX_ALPHABET = 12


@dataclass(frozen=True)
class Alphabet:
    """The totally ordered alphabet {1, ..., n}."""

    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_ALPHABET:
            raise ValueError(f"alphabet size must be in 1..{MAX_ALPHABET}, got {self.n}")

    @property
    def letters(self) -> range:
        return range(1, self.n + 1)

    def __contains__(self, x: int) -> bool:
        return 1 <= x <= self.n

    def check_letter(self, x: int) -> None:
        if x not in self:
            raise ValueError(f"letter {x!r} outside alphabet of size {self.n}")

    def check_word(self, w: Word) -> None:
        """One range test on the entire word; the letters are walked one by
        one only to name the first that fails."""
        if w and not (1 <= min(w) and max(w) <= self.n):
            for x in w:
                self.check_letter(x)

    def theta_letter(self, x: int) -> int:
        self.check_letter(x)
        return self.n + 1 - x

    def subsets(self) -> Iterator[LetterSet]:
        """All 2^n subsets of the alphabet, in bitmask order."""
        for mask in range(1 << self.n):
            yield frozenset(letters_of(mask))

    @property
    def full_set(self) -> LetterSet:
        return frozenset(self.letters)


def mask_of(letters: Iterable[int]) -> int:
    """The bitmask of a set of letters: letter x is bit x - 1."""
    mask = 0
    for x in letters:
        mask |= 1 << (x - 1)
    return mask


def letters_of(mask: int) -> Word:
    """The letters of a bitmask, increasing."""
    out: list[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _not_a_letter(x: object) -> ValueError:
    return ValueError(f"{x!r} is not a letter: letters are positive integers")


def _check_least_letter(x: int) -> None:
    """Refuse the least entry of a word, row or block when it is below 1:
    it is not a letter and has no bit in a mask.  The mask kernels skip
    this test: a letter below 1 makes their shifts raise, and they name
    their least letter then."""
    if x < 1:
        raise _not_a_letter(x)


def theta(w: Word, alphabet: Alphabet) -> Word:
    """Reverse the word and replace each letter x by n+1-x.

    This is an involutive anti-automorphism: theta(uv) = theta(v) theta(u).
    """
    alphabet.check_word(w)
    return tuple(map((alphabet.n + 1).__sub__, reversed(w)))


def support(w: Word) -> LetterSet:
    """The set of distinct letters appearing in w."""
    return frozenset(w)


def shift_down_word(w: Word) -> Word:
    """Send each letter to the one preceding it (all letters must be >= 2)."""
    if any(x <= 1 for x in w):
        raise ValueError("cannot shift down a word containing the smallest letter")
    return tuple(x - 1 for x in w)


def decreasing_word(s: LetterSet) -> Word:
    return tuple(sorted(s, reverse=True))


# ---------------------------------------------------------------------------
# Text formats.  Words render as lowercase letters without separators
# ("cabd"); the dotted numeric form "3.1.2.4" is accepted on input as well.


def render_letter(x: int) -> str:
    if 1 <= x <= 26:
        return chr(ord("a") + x - 1)
    return str(x)


def render_word(w: Word) -> str:
    if all(1 <= x <= 26 for x in w):
        return "".join(render_letter(x) for x in w)
    return ".".join(str(x) for x in w)


def parse_word(text: str) -> Word:
    """Parse "cabd" or dotted numeric "3.1.2.4"; the empty string is the
    empty word."""
    text = text.strip()
    if not text:
        return ()
    if "." in text:
        return tuple(_parse_int_letter(part) for part in text.split("."))
    if text.isascii() and text.isdigit():
        return tuple(_parse_int_letter(ch) for ch in text)
    return tuple(parse_alpha_letter(ch) for ch in text)


def parse_letter(token: str) -> int:
    """One letter: a lowercase a-z, or a positive number in ASCII digits
    ("10" is the letter 10)."""
    if token.isascii() and token.isdigit():
        return _parse_int_letter(token)
    return parse_alpha_letter(token)


def parse_alpha_letter(ch: str) -> int:
    if len(ch) == 1 and "a" <= ch <= "z":
        return ord(ch) - ord("a") + 1
    raise ValueError(f"{ch!r} is not a letter: expected a lowercase letter a-z")


def _parse_int_letter(token: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"{token!r} is not a letter: expected ASCII digits")
    value = int(token)
    if value < 1:
        raise ValueError(f"{token!r} is not a letter: letters are positive integers")
    return value
