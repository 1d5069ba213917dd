"""Relation systems and rewriting.

Two layers: bounded congruence closure over plain words (the Knuth relations,
plus the idempotent relations x^2 = x), and the quadratic rewriting system on
words of columns, whose normal forms are exactly the column factorizations of
insertion tableaux.

The column rewriting runs on tuples of column masks (letter x is bit x - 1)
through a `PairTable`: a check builds one, and it computes the rule for
each adjacent pair of columns once, from the mask kernels `leq_masks` and
`reduce_masks`.  `column_pair_reduce` and `normalize_column_word` take
frozenset columns and convert at the boundary into the same kernels.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .core import Alphabet, LetterSet, Word, _check_least_letter, letters_of, mask_of
from .columns import act_masks, leq_masks, render_column
from .tableaux import Tableau

Relation = tuple[Word, Word]
ColumnWord = tuple[LetterSet, ...]


def knuth_relations(alphabet: Alphabet) -> list[Relation]:
    """All instances of the four cubic relations over the alphabet."""
    rels: list[Relation] = []
    letters = list(alphabet.letters)
    for a, b, c in combinations(letters, 3):
        rels.append(((b, a, c), (b, c, a)))
        rels.append(((a, c, b), (c, a, b)))
    for a, b in combinations(letters, 2):
        rels.append(((b, a, a), (a, b, a)))
        rels.append(((b, b, a), (b, a, b)))
    return rels


def stylic_relations(alphabet: Alphabet) -> list[Relation]:
    """The cubic relations together with x^2 = x for every letter."""
    rels = knuth_relations(alphabet)
    for x in alphabet.letters:
        rels.append(((x, x), (x,)))
    return rels


def _bfs(
    start: Word,
    relations: Iterable[Relation],
    maxlen: int,
    targets: Optional[set[bytes]] = None,
) -> tuple[set[bytes], bool]:
    """Breadth-first closure under relation moves in both directions,
    pruning words longer than maxlen.  Stops early once every target has
    been reached.  Returns (reached set, whether pruning occurred)."""
    if len(start) > maxlen:
        raise ValueError(f"start word longer than the cap {maxlen}")
    rules: list[tuple[bytes, bytes]] = []
    for l, r in relations:
        lb, rb = bytes(l), bytes(r)
        rules.append((lb, rb))
        rules.append((rb, lb))
    origin = bytes(start)
    seen: set[bytes] = {origin}
    queue: deque[bytes] = deque([origin])
    remaining = set(targets) - seen if targets is not None else None
    pruned = False
    while queue:
        if remaining is not None and not remaining:
            break
        s = queue.popleft()
        for l, r in rules:
            if len(s) - len(l) + len(r) > maxlen:
                if l in s:
                    pruned = True
                continue
            i = s.find(l)
            while i != -1:
                t = s[:i] + r + s[i + len(l):]
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
                    if remaining is not None:
                        remaining.discard(t)
                i = s.find(l, i + 1)
    return seen, pruned


def congruence_equal(u: Word, v: Word, relations: Iterable[Relation], maxlen: int) -> bool:
    """Bounded decision: can u be rewritten into v by relation moves without
    ever exceeding maxlen letters?  Sound, and complete only within the cap."""
    if len(v) > maxlen:
        raise ValueError(f"target word longer than the cap {maxlen}")
    if u == v:
        return True
    seen, _ = _bfs(u, relations, maxlen, targets={bytes(v)})
    return bytes(v) in seen


def congruence_reaches(
    u: Word, targets: Iterable[Word], relations: Iterable[Relation], maxlen: int
) -> tuple[set[Word], bool]:
    """The subset of targets reachable from u within the cap (early exit as
    soon as all are found), plus a pruning flag."""
    wanted = {bytes(t) for t in targets}
    seen, pruned = _bfs(u, relations, maxlen, targets=set(wanted))
    return {tuple(t) for t in wanted if t in seen}, pruned


# ---------------------------------------------------------------------------
# The column rewriting system.


def reduce_masks(c1: int, c2: int) -> tuple[int, int]:
    """Reduce an adjacent pair of column masks: the first column absorbs
    what it can (by acting on the second), the multiset leftover forms the
    new second column, and a letter left over twice is refused.  Fixed
    point exactly when the pair already sits in a tableau."""
    reduced = act_masks(letters_of(c1)[::-1], c2)
    twice = c1 & c2 & ~reduced
    if twice:
        x = (twice & -twice).bit_length()
        raise ValueError(f"multiset leftover holds {x} 2 times, not at most once")
    return reduced, (c1 ^ c2) & ~reduced | c1 & c2 & reduced


def column_pair_reduce(c1: LetterSet, c2: LetterSet) -> tuple[LetterSet, LetterSet]:
    """The rule on frozenset columns, by `reduce_masks`."""
    _check_least_letter(min(c1 | c2, default=1))
    return _columns(reduce_masks(mask_of(c1), mask_of(c2)))


def check_column_word(word: ColumnWord) -> None:
    for c in word:
        if not c:
            raise ValueError("column words may not contain the empty column")


class PairTable(dict):
    """The rewriting rules on column masks, filled as pairs are met.

    (c1, c2) maps to None when c1 <= c2 in the column order, so that no rule
    applies, and otherwise to the one or two masks that replace the pair.
    Each entry comes from `leq_masks` and `reduce_masks` once, so the
    multiset check runs on every reducible pair a check meets.  Callers
    build a table for a check or a suite; there is no module-level table,
    so none outlives the rules it was filled from.
    """

    def __missing__(self, pair: tuple[int, int]) -> Optional[tuple[int, ...]]:
        rule = None
        if not leq_masks(*pair):
            reduced, leftover = reduce_masks(*pair)
            rule = (reduced, leftover) if leftover else (reduced,)
        self[pair] = rule
        return rule


def _masks(word: ColumnWord) -> tuple[int, ...]:
    return tuple(mask_of(c) for c in word)


def _columns(word: tuple[int, ...]) -> ColumnWord:
    return tuple(frozenset(letters_of(c)) for c in word)


def _redexes(word: tuple[int, ...], table: PairTable) -> list[int]:
    return [i for i in range(len(word) - 1) if table[word[i], word[i + 1]] is not None]


def _rewrite(word: tuple[int, ...], i: int, table: PairTable) -> tuple[int, ...]:
    return word[:i] + table[word[i], word[i + 1]] + word[i + 2:]


def _measure_less(after: tuple[int, ...], before: tuple[int, ...], table: PairTable) -> bool:
    """The termination measure: first by length, then columnwise at the
    first difference in the column order."""
    if len(after) != len(before):
        return len(after) < len(before)
    for a, b in zip(after, before):
        if a != b:
            return table[a, b] is None
    return False


def _normalize(word: tuple[int, ...], table: PairTable) -> tuple[int, ...]:
    """Rewrite at the leftmost redex until none is left."""
    while slots := _redexes(word, table):
        word = _rewrite(word, slots[0], table)
    return word


def normalize_column_word(word: ColumnWord) -> ColumnWord:
    """Apply rules, leftmost first, until none applies.  The normal form is
    the column word of P(w), for w the word read column by column, whatever
    the order of rewriting: `verify confluence` certifies this pair by pair."""
    check_column_word(word)
    return _columns(_normalize(_masks(word), PairTable()))


def tableau_column_word(tableau: Tableau) -> ColumnWord:
    """The columns of a tableau, left to right, as a column word."""
    return tuple(frozenset(col) for col in tableau.columns())


@dataclass
class ConfluenceReport:
    """The peaks whose two reducts reach different normal forms, the rules
    that do not decrease the termination measure, as column words, and the
    pairs whose rule `reduce_masks` refused, each with its message."""

    triples: int
    overlapping: int
    nonjoinable: list[str]
    measure_violations: list[str]
    refused: list[str]

    @property
    def ok(self) -> bool:
        return not self.nonjoinable and not self.measure_violations and not self.refused


def local_confluence_check(
    alphabet: Alphabet, table: Optional[PairTable] = None
) -> ConfluenceReport:
    """Confluence by critical pairs (Knuth-Bendix, then Newman's lemma).
    First every rule must strictly decrease the termination measure, which
    is well founded and compatible with context, so that rewriting
    terminates.  Then, for
    every triple of nonempty columns whose two pairs both reduce, the
    reducts at position 0 and 1 must reach the same leftmost normal form.
    The peaks are counted either way, but normalized only once the measure
    holds, since a rule that does not decrease it can make rewriting cycle.
    The other triples count as scanned.  A pair whose rule cannot be built
    is reported, counts as irreducible, and stops the normalizing too."""
    table = PairTable() if table is None else table
    columns = range(1, 1 << alphabet.n)
    report = ConfluenceReport(len(columns) ** 3, 0, [], [], [])
    for c1 in columns:
        for c2 in columns:
            try:
                rule = table[c1, c2]
                if rule is not None and not _measure_less(rule, (c1, c2), table):
                    report.measure_violations.append(render_column_word(_columns((c1, c2))))
            except ValueError as exc:
                report.refused.append(f"{render_column_word(_columns((c1, c2)))}: {exc}")
    terminates = not report.measure_violations and not report.refused
    # `get` reads a pair whose rule was refused, and so left out of the
    # table, as irreducible.
    for c1 in columns:
        for c2 in columns:
            if table.get((c1, c2)) is None:
                continue
            for c3 in columns:
                if table.get((c2, c3)) is None:
                    continue
                report.overlapping += 1
                if terminates:
                    peak = (c1, c2, c3)
                    left, right = (_rewrite(peak, i, table) for i in (0, 1))
                    if _normalize(left, table) != _normalize(right, table):
                        report.nonjoinable.append(render_column_word(_columns(peak)))
    return report


def render_column_word(word: ColumnWord) -> str:
    if not word:
        return "1"
    return "".join(f"({render_column(c)})" for c in word)
