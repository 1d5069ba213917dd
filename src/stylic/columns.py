"""The column state space and the left action of words on columns.

A column is a subset of the alphabet, equivalently the strictly decreasing
word of its elements; the empty column is the identity state and renders as
"1".  The action of a letter is the closed form
    x . gamma = (gamma \\ y) | {x},   y = min{z in gamma : z >= x},
with a plain union when no such y exists.  `act_masks`, the action of a
whole word on a column mask in one loop, is the single implementation of
it; `act_letter`, `act_word` and the moves of the enumerated monoid all
call it.  The tests cross-check it against the first column of the
insertion tableau.  The column order extends both the alphabet order on
singletons and reverse inclusion; `leq_masks` decides it on masks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Alphabet,
    LetterSet,
    Word,
    _not_a_letter,
    letters_of,
    mask_of,
    parse_alpha_letter,
    render_letter,
    support,
)


def act_masks(w: Word, mask: int) -> int:
    """Left action of a word on a column mask, its letters applied right to
    left so that (uv).gamma = u.(v.gamma): each letter x takes the place of
    the least letter y >= x, or joins the column when there is none."""
    for x in reversed(w):
        bit = 1 << (x - 1)
        at_least_x = mask & -bit
        mask = mask ^ (at_least_x & -at_least_x) | bit  # the bumped bit is 0 when no y
    return mask


def act_letter(x: int, column: LetterSet) -> LetterSet:
    """Column insertion of a single letter; the result always contains x."""
    return act_word((x,), column)


def act_word(w: Word, column: LetterSet) -> LetterSet:
    """Left action of a word: letters applied right to left, so that
    (uv).gamma = u.(v.gamma)."""
    try:
        mask = act_masks(w, mask_of(column))
    except ValueError:  # a shift by a letter below 1
        raise _not_a_letter(min((*w, *column))) from None
    return frozenset(letters_of(mask))


def leq_masks(c1: int, c2: int) -> bool:
    """The column order on masks: c1 <= c2 when the two columns can stand
    side by side in a tableau, with every column below the empty one.
    Concretely: c2 empty, or both nonempty with |c1| >= |c2| and the i-th
    smallest letter of c1 at most the i-th smallest of c2."""
    while c2:
        if not c1 or c1 & -c1 > c2 & -c2:
            return False
        c1 &= c1 - 1
        c2 &= c2 - 1
    return True


def column_leq(c1: LetterSet, c2: LetterSet) -> bool:
    """The column order on frozenset columns, by `leq_masks`."""
    return leq_masks(mask_of(c1), mask_of(c2))


@dataclass(frozen=True)
class KernelInterval:
    """The fibre of an idempotent action over one of its fixpoints."""

    minimum: LetterSet
    maximum: LetterSet
    members: frozenset[LetterSet]

    @property
    def size(self) -> int:
        return len(self.members)


def kernel_interval(w: Word, delta: LetterSet, alphabet: Alphabet) -> KernelInterval:
    """All columns gamma with w.gamma = delta, for a strictly decreasing w
    and a fixpoint delta of w.

    The fibre is scanned over the entire column space and certified to be the
    interval [delta, maximum] of the column order.
    """
    if any(a <= b for a, b in zip(w, w[1:])):
        raise ValueError("w must be a strictly decreasing word")
    if not support(w) <= delta:
        raise ValueError("delta must be a fixpoint of w (it must contain Supp(w))")
    if not delta <= alphabet.full_set:  # no column over the alphabet is delta
        raise ValueError("fibre does not contain its fixpoint")
    target, columns = mask_of(delta), range(1 << alphabet.n)
    members = [g for g in columns if act_masks(w, g) == target]
    if target not in members:
        raise ValueError("fibre does not contain its fixpoint")
    if not all(leq_masks(target, g) for g in members):
        raise ValueError("fixpoint is not the minimum of its fibre")
    maximal = [g for g in members if not any(leq_masks(g, h) and g != h for h in members)]
    if len(maximal) != 1:
        raise ValueError(f"fibre has {len(maximal)} maximal elements, expected 1")
    maximum = maximal[0]
    if members != [g for g in columns if leq_masks(target, g) and leq_masks(g, maximum)]:
        raise ValueError("fibre is not an interval of the column order")
    columns_of = frozenset(frozenset(letters_of(g)) for g in members)
    return KernelInterval(delta, frozenset(letters_of(maximum)), columns_of)


def render_column(column: LetterSet) -> str:
    """Strictly decreasing letter string; the empty column renders as "1"."""
    if not column:
        return "1"
    return "".join(render_letter(x) for x in sorted(column, reverse=True))


def parse_column(text: str) -> LetterSet:
    """Parse a strictly decreasing letter string; "1" or "" is the empty
    column."""
    text = text.strip()
    if text in ("", "1"):
        return frozenset()
    letters = [parse_alpha_letter(ch) for ch in text]
    if letters != sorted(letters, reverse=True):
        raise ValueError(f"column {text!r} is not strictly decreasing")
    return frozenset(letters)
