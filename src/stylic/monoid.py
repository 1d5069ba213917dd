"""N-tableaux, the N-insertion algorithm, left insertion, the bijection with
set partitions, and the enumerated finite monoid of column transformations.

An N-tableau has strictly increasing rows, each row containing the row above
it; it is the canonical form of the congruence class of a word under the
column action.  Classes of words biject with partitions of subsets of the
alphabet, so the monoid on n letters has Bell(n+1) elements.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from math import comb
from itertools import accumulate
from operator import ge, itemgetter, or_
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO

from .columns import act_masks
from .core import (
    Alphabet,
    LetterSet,
    Word,
    _check_least_letter,
    _not_a_letter,
    decreasing_word,
    letters_of,
    mask_of,
    parse_word,
    render_letter,
    render_word,
)
from .tableaux import Tableau

# The largest alphabet the closure enumerates: Bell(8) = 4140 elements at
# n = 7, against Bell(9) = 21147 at n = 8.
ENUMERATION_CEILING = 7


def bell_number(k: int) -> int:
    """Number of partitions of a k-element set (Peirce triangle)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def _check_row_masks(rows: Sequence[int]) -> None:
    """The N-tableau invariant on row masks, bottom row first: every row is
    nonempty, lies inside the row below it, and has a larger minimum."""
    below, below_low = -1, 0  # the bottom row may hold any letter
    for row in rows:
        if row < 1:
            raise ValueError("N-tableau rows must be nonempty")
        if row & ~below:
            raise ValueError("each row must be contained in the row below")
        low = row & -row
        if low <= below_low:
            raise ValueError("row minima must strictly increase")
        below, below_low = row, low


def _check_block_masks(blocks: Sequence[int]) -> None:
    """The set-partition invariant on block masks: every block is nonempty,
    disjoint from the blocks before it, and has a larger minimum."""
    seen = prev_low = 0
    for block in blocks:
        if block < 1:
            raise ValueError("partition blocks must be nonempty")
        if block & seen:
            raise ValueError("partition blocks must be disjoint")
        low = block & -block
        if low <= prev_low:
            raise ValueError("partition blocks must be ordered by their minima")
        seen |= block
        prev_low = low


def _check_letter_types(word: Iterable) -> None:
    """Refuse an entry whose type is not int: 1.5 has no bit in a mask, and
    True would pass for the letter 1."""
    for x in word:
        if type(x) is not int:
            raise _not_a_letter(x)


@dataclass(frozen=True, init=False)
class NTableau(Tableau):
    """Nested rows whose minima strictly increase force strictly increasing
    columns, so every N-tableau is a semistandard `Tableau`.

    An N-tableau is its row masks, bottom row first: equality and hashing
    read them, and `rows` derives the letters on each call.  The kernels
    build N-tableaux from row masks through `_from_masks`, which runs only
    the mask-level check."""

    def __init__(self, rows: Sequence[Word]) -> None:
        masks: list[int] = []
        for row in rows:
            if not row or any(type(x) is not int for x in row) or any(map(ge, row, row[1:])):
                _check_row_masks(masks)  # a fault in an earlier row comes first
                if not row:
                    raise ValueError("N-tableau rows must be nonempty")
                _check_letter_types(row)
                raise ValueError(f"row {row} is not strictly increasing")
            _check_least_letter(row[0])
            masks.append(mask_of(row))
        _check_row_masks(masks)
        object.__setattr__(self, "_masks", tuple(masks))

    @classmethod
    def _from_masks(cls, rows: Sequence[int]) -> NTableau:
        _check_row_masks(rows)
        tableau = object.__new__(cls)
        object.__setattr__(tableau, "_masks", tuple(rows))
        return tableau

    @property
    def rows(self) -> tuple[Word, ...]:
        return tuple(map(letters_of, self._masks))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NTableau) and self._masks == other._masks

    def __hash__(self) -> int:
        return hash(self._masks)

    def masks(self) -> list[int]:
        """The rows as bitmasks, bottom row first."""
        return list(self._masks)

    def shape(self) -> tuple[int, ...]:
        return tuple(map(int.bit_count, self._masks))

    def boxes(self) -> int:
        return sum(map(int.bit_count, self._masks))

    def supp(self) -> LetterSet:
        return frozenset(letters_of(self._masks[0])) if self._masks else frozenset()


EMPTY_NTABLEAU = NTableau(())


@dataclass(frozen=True, init=False)
class SetPartition:
    """Partition of a subset of the alphabet into blocks ordered by their
    minima, held as its block masks: equality and hashing read them, and
    `blocks` derives the sorted letters on each call.  The kernels build a
    partition from block masks through `_from_masks`, which runs only the
    mask-level check and sorts nothing."""

    _masks: tuple[int, ...]

    def __init__(self, blocks: Sequence[Word]) -> None:
        if any(not b for b in blocks):
            raise ValueError("partition blocks must be nonempty")
        masks = []
        for b in blocks:
            _check_letter_types(b)
            _check_least_letter(min(b))
            mask = mask_of(b)
            if mask.bit_count() != len(b):
                raise ValueError("partition blocks must be disjoint")
            masks.append(mask)
        masks.sort(key=lambda mask: mask & -mask)
        _check_block_masks(masks)
        object.__setattr__(self, "_masks", tuple(masks))

    @classmethod
    def _from_masks(cls, blocks: Sequence[int]) -> SetPartition:
        _check_block_masks(blocks)
        partition = object.__new__(cls)
        object.__setattr__(partition, "_masks", tuple(blocks))
        return partition

    @property
    def blocks(self) -> tuple[Word, ...]:
        return tuple(map(letters_of, self._masks))

    def __repr__(self) -> str:
        return f"SetPartition(blocks={self.blocks!r})"

    def masks(self) -> list[int]:
        """The blocks as bitmasks, in order."""
        return list(self._masks)

    def ground(self) -> LetterSet:
        return frozenset(letters_of(sum(self._masks)))  # disjoint: sum is union

    def shape(self) -> tuple[int, ...]:
        """Block sizes in min-order; the ideal underlying the partition."""
        return tuple(map(int.bit_count, self._masks))

    def block_count(self) -> int:
        return len(self._masks)

    def render(self, digits: bool = False) -> str:
        """Letters a-z, or with digits one digit per letter when every
        letter is at most 9; either text parses back to the partition."""
        if not self._masks:
            return "(empty)"
        show = str if digits and sum(self._masks) < 1 << 9 else render_letter
        return "/".join("".join(map(show, b)) for b in self.blocks)

    def to_json(self) -> list[list[str]]:
        return [[render_letter(x) for x in b] for b in self.blocks]


EMPTY_PARTITION = SetPartition(())


def parse_partition(text: str, alphabet: Alphabet | None = None) -> SetPartition:
    """Parse slash-separated blocks: "ac/b/de", "13/28/457/6" or "1.10/2".
    A partition is written all in letters a-z or all in positive numbers,
    one digit each unless a block separates them with dots.  Given an
    alphabet, the letters are checked against it before any block mask is
    built: a mask is as wide as its largest letter."""
    text = text.strip()
    if not text or text == "(empty)":
        return EMPTY_PARTITION
    letter = next((ch for ch in text if ch.isalpha()), None)
    if letter is not None and any(ch.isdigit() for ch in text):
        raise ValueError(f"{letter!r} is not a letter of a partition written in numbers")
    blocks = [parse_word(token) for token in text.split("/")]
    if not all(blocks):
        raise ValueError("empty partition block")
    if alphabet is not None:
        letters = [x for b in blocks for x in b]
        if len(set(letters)) < len(letters):  # reported before the alphabet
            raise ValueError("partition blocks must be disjoint")
        alphabet.check_word(letters)
    return SetPartition(tuple(blocks))


def all_set_partitions(letters: Iterable[int]) -> Iterator[SetPartition]:
    """All partitions of the given ground set, built on block masks that a
    repeated letter would corrupt: the letters are checked once, up front."""
    items = sorted(letters)
    _check_least_letter(min(items, default=1))
    if len(set(items)) < len(items):
        raise ValueError("partition blocks must be disjoint")
    blocks: list[int] = []

    def rec(i: int) -> Iterator[SetPartition]:
        if i == len(items):
            yield SetPartition._from_masks(blocks)
            return
        bit = 1 << (items[i] - 1)
        for j in range(len(blocks)):
            blocks[j] |= bit
            yield from rec(i + 1)
            blocks[j] ^= bit
        blocks.append(bit)
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(0)


def all_partitions_of_subsets(alphabet: Alphabet) -> Iterator[SetPartition]:
    for subset in alphabet.subsets():
        yield from all_set_partitions(subset)


# ---------------------------------------------------------------------------
# The N-algorithm.


def up(x: int, row: int) -> int:
    """The lowest bit of the row mask above letter x: the smallest letter of
    the row strictly greater than x, as a bit, or 0 when there is none."""
    above = row >> x << x
    return above & -above


def _n_insert(rows: list[int], w: Word) -> None:
    """N-insert the letters of a word into row masks, bottom row first: each
    row absorbs the carried letter and passes up a copy of its least larger
    letter.  A letter equal to the one before it changes nothing (a.a = a):
    the copies it would pass up are already in place, so it is skipped."""
    last = None
    try:
        for x in w:
            if x == last:
                continue
            last = x
            bit = 1 << (x - 1)
            i = 0
            for row in rows:
                rows[i] = row | bit
                above = row & -(bit << 1)
                if not above:
                    break
                bit = above & -above
                i += 1
            else:
                rows.append(bit)
    except ValueError:  # a shift by a letter below 1
        raise _not_a_letter(min(w)) from None


def delta_word(w: Word) -> Word:
    """The word of letters bumped out of the first row by the N-algorithm:
    each letter contributes the least strictly larger letter already seen."""
    seen = 0
    out: list[int] = []
    try:
        for x in w:
            bumped = up(x, seen)
            if bumped:
                out.append(bumped.bit_length())
            seen |= 1 << (x - 1)
    except ValueError:  # a shift by a letter below 1
        raise _not_a_letter(min(w)) from None
    return tuple(out)


def n_insert_rows(rows: Sequence[int], x: int) -> list[int]:
    """The row masks, bottom row first, after N-inserting the letter x;
    the given rows are left as they are."""
    inserted = list(rows)
    _n_insert(inserted, (x,))
    return inserted


def n_insert(tableau: NTableau, x: int) -> NTableau:
    """N-insertion of a letter, bottom row first; bumped copies cascade up."""
    return NTableau._from_masks(n_insert_rows(tableau._masks, x))


def n_tableau(w: Word) -> NTableau:
    """The N-tableau of a word, by N-inserting its letters left to right."""
    rows: list[int] = []
    _n_insert(rows, w)
    return NTableau._from_masks(rows)


def left_insert(x: int, tableau: NTableau) -> NTableau:
    """Left insertion of a letter into an N-tableau; corresponds to
    multiplying the class of the tableau by x on the left."""
    bit = 1 << (x - 1)
    rows = tableau.masks()
    # x joins rows r..t.  Rows nest, so the r rows containing x come first;
    # row t is the first whose minimum is not below x, or a new top row.
    t = sum(1 for row in rows if row & -row < bit)
    if t < len(rows) and rows[t] & -rows[t] == bit:
        return tableau
    r = sum(1 for row in rows if row & bit)
    bumps = [up(x, row) for row in rows] + [0]
    if t == len(rows):
        rows.append(0)
    for i in range(r, t + 1):
        rows[i] |= bit
        if i > r and bumps[i] and bumps[i] == bumps[i - 1]:
            rows[i] &= ~bumps[i]
    return NTableau._from_masks(rows)


def _partition_of(rows: Sequence[int]) -> SetPartition:
    """The row differences, bottom row first: each keeps its row's minimum,
    so they come out ordered by their minima."""
    blocks = [row & ~above for row, above in zip(rows, rows[1:])]
    blocks.extend(rows[-1:])
    return SetPartition._from_masks(blocks)


def to_partition(tableau: NTableau) -> SetPartition:
    """The partition whose blocks are the successive row differences, the
    bottom row first."""
    return _partition_of(tableau._masks)


def from_partition(partition: SetPartition) -> NTableau:
    """Rows are the unions of the block tails: row i = B_i | B_{i+1} | ..."""
    rows = list(accumulate(reversed(partition._masks), or_))
    return NTableau._from_masks(rows[::-1])


def pi(w: Word) -> SetPartition:
    """The set partition of Supp(w) canonically attached to the class of w:
    the row differences of its N-tableau, read off the row masks."""
    rows: list[int] = []
    _n_insert(rows, w)
    return _partition_of(rows)


# ---------------------------------------------------------------------------
# The enumerated monoid of column transformations.


@dataclass(frozen=True)
class StylicElement:
    """One element of the monoid: its BFS word, its N-tableau, and the
    transformation of the column space it induces.  Entry m of `transform`
    is the column mask word.m, so the transformation is a byte string of
    2^n bytes.  A child's transform is the move of its letter, the bytes
    x.m, translated through its parent's: (w.x).m = w.(x.m).  That takes
    every mask to fit in a byte, 2^n <= 256, which the ceiling of 7 letters
    keeps."""

    index: int
    word: Word
    transform: bytes
    tableau: NTableau
    parent: int
    via_letter: int

    def render_word(self) -> str:
        return render_word(self.word) or "1"


class DownSet(int):
    """The elements below v in the ideal order, as an int bitset: bit u is
    set when u <= v.  `len` and `in` read it as the set it encodes."""

    def __contains__(self, u: int) -> bool:
        return self >> u & 1 == 1

    def __len__(self) -> int:
        return self.bit_count()


@dataclass
class JOrder:
    """The two-sided-ideal order of the monoid, with its grading data.
    hasse_edges holds the covers (u, v), u below v, sorted by (v, u)."""

    down_sets: list[DownSet]
    hasse_edges: list[tuple[int, int]]
    coranks: list[int]
    height: int

    def leq(self, u: int, v: int) -> bool:
        return u in self.down_sets[v]

    def by_corank(self) -> list[list[int]]:
        """The elements of each co-rank 0..height, in index order."""
        ranks: list[list[int]] = [[] for _ in range(self.height + 1)]
        for i, corank in enumerate(self.coranks):
            ranks[corank].append(i)
        return ranks


class _IdealWalk(NamedTuple):
    """One walk of the ideal order: the order it builds, and the text of
    its first faults, or None.  antisymmetry names the first one-letter
    step that adds no boxes; grading names the first cover that adds more
    than one box, or else co-ranks that do not run from 0 to the height."""

    order: JOrder
    antisymmetry: Optional[str]
    grading: Optional[str]


class StylicMonoid:
    """The finite monoid of transformations of the column space induced by
    the left action of words, enumerated by closure over the generators."""

    def __init__(self, alphabet: Alphabet):
        if alphabet.n > ENUMERATION_CEILING:
            raise ValueError(
                f"enumeration limited to alphabets of size {ENUMERATION_CEILING} "
                f"(requested {alphabet.n})"
            )
        self.alphabet = alphabet
        n = alphabet.n
        size = 1 << n
        elements: list[StylicElement] = [
            StylicElement(0, (), bytes(range(size)), EMPTY_NTABLEAU, -1, 0)
        ]
        index: dict[bytes, int] = {elements[0].transform: 0}

        # Breadth-first closure: `elements` is the queue, so right[x][i] is
        # appended in index order, as the child of element i by letter x.
        # A child's transform is its letter's move translated through the
        # parent's, padded to the 256 bytes that bytes.translate takes.
        # A child's N-tableau is its parent's row masks with x N-inserted.
        moves = {x: bytes(act_masks((x,), m) for m in range(size)) for x in alphabet.letters}
        padding = bytes(256 - size)
        right: dict[int, list[int]] = {x: [] for x in alphabet.letters}
        i = 0
        while i < len(elements):
            e = elements[i]
            through = e.transform + padding
            for x in alphabet.letters:
                child = moves[x].translate(through)
                j = index.get(child)
                if j is None:
                    j = index[child] = len(elements)
                    tableau = NTableau._from_masks(n_insert_rows(e.tableau._masks, x))
                    elements.append(StylicElement(j, e.word + (x,), child, tableau, i, x))
                right[x].append(j)
            i += 1

        self.elements = elements
        self.identity = 0

        expected = sum(comb(n, k) * bell_number(k) for k in range(n + 1))
        if not len(elements) == expected == bell_number(n + 1):
            raise ValueError(
                f"closure found {len(elements)} transformations, "
                f"expected Bell({n + 1}) = {bell_number(n + 1)}"
            )

        # x.(p.y) = (x.p).y, and a parent precedes its children.
        left: dict[int, list[int]] = {}
        for x in alphabet.letters:
            row = left[x] = [right[x][0]] * len(elements)
            for e in elements[1:]:
                row[e.index] = right[e.via_letter][row[e.parent]]
        self.right_by_letter = right
        self.left_by_letter = left
        self.zero = self.class_of_word(decreasing_word(alphabet.full_set))

    def __len__(self) -> int:
        return len(self.elements)

    def _times(self, m: int, w: Word) -> int:
        """The element m.w, read along the right Cayley graph: the monoid's
        one product."""
        for x in w:
            m = self.right_by_letter[x][m]
        return m

    def class_of_word(self, w: Word) -> int:
        self.alphabet.check_word(w)
        return self._times(self.identity, w)

    def _rows(self, first: tuple) -> Iterator[tuple]:
        """The multiplication-table rows in index order, each without its
        column 0, given row 0's (the identity's row, j -> j).  Column 0 of
        row i is i, because element 0 is the identity.  Row q.y is row q
        read through left multiplication by y: (q.y).j = q.(y.j).  No left
        step reaches the identity, since every step adds boxes, so y.j is
        never column 0 and each gather reads only columns 1..N-1.  Row i is
        read off its latest source, the largest q < i with q.y = i for some
        letter y (the BFS parent is one), and a row is kept only until its
        last use."""
        size = len(self.elements)
        # Later q overwrite earlier ones, so each i keeps its largest source.
        source = {
            i: (q, y)
            for q in range(size)
            for y, step in self.right_by_letter.items()
            if (i := step[q]) > q
        }
        last_use = {source[i][0]: i for i in range(1, size)}
        # Column j is at position j - 1, the index of element j - 1: the
        # gathers hold the elements' ints, where a fresh j - 1 for each
        # column and letter would take 0.9 MB at n = 7.
        elements = self.elements
        through = {}
        for y, step in self.left_by_letter.items():
            # Column 0 would be read at index -1: the wrong cell, silently.
            if 0 in step:
                raise ValueError(f"left multiplication by {render_letter(y)} reaches the identity")
            gather = itemgetter(*[elements[j - 1].index for j in step[1:]])
            # itemgetter of one index returns the cell, not a 1-tuple (n = 1).
            through[y] = gather if size > 2 else lambda row, gather=gather: (gather(row),)
        kept: dict[int, tuple] = {}
        for i in range(size):
            if i == 0:
                row = first
            else:
                q, y = source[i]
                row = through[y](kept[q])
                if last_use[q] == i:
                    del kept[q]
            if i in last_use:
                kept[i] = row
            yield row

    def multiplication_table(self) -> list[tuple[int, ...]]:
        """table[i][j] = index of the product element_i * element_j, derived
        afresh on each call."""
        rows = self._rows(tuple(range(1, len(self.elements))))
        return [(i, *row) for i, row in enumerate(rows)]

    def multiply(self, i: int, j: int) -> int:
        return self._times(i, self.elements[j].word)

    def idempotents(self) -> list[int]:
        return [i for i in range(len(self.elements)) if self.multiply(i, i) == i]

    def j_order(self) -> JOrder:
        """The two-sided-ideal order, from the walk that `verify graded`
        certifies; raises ValueError on the walk's first fault: a step that
        adds no boxes, then a cover that adds more than one, then co-ranks
        that do not run from 0 to n(n+1)/2."""
        walk = self._ideal_walk()
        if walk.antisymmetry or walk.grading:
            raise ValueError(walk.antisymmetry or walk.grading)
        return walk.order

    def _ideal_walk(self) -> _IdealWalk:
        """The ideal order by one walk along both Cayley graphs, naming its
        faults instead of raising.

        Every cover is a one-letter left or right step (Froidure & Pin), so
        elements are visited in decreasing box count.  down[v] is v with the
        down-sets of the children that add exactly one box, and those steps
        are the covers.  This is the whole order when every step that moves
        v adds boxes (antisymmetry) and every child that adds k > 1 boxes
        lies in that reach (grading).  The first faults: a step that adds
        no boxes, and a child that adds more than one box outside the
        reach -- the one with the fewest boxes is a cover, since a step
        between would be another such."""
        size = len(self.elements)
        boxes = [e.tableau.boxes() for e in self.elements]
        word = lambda i: self.elements[i].render_word()
        labelled = [
            (side, x, step)
            for side, graph in (("left", self.left_by_letter), ("right", self.right_by_letter))
            for x, step in graph.items()
        ]
        down: list[DownSet] = [DownSet()] * size
        covers: list[tuple[int, int]] = []
        antisymmetry = grading = None
        for v in sorted(range(size), key=boxes.__getitem__, reverse=True):
            children = {step[v] for _, _, step in labelled}
            children.discard(v)
            one_box = boxes[v] + 1
            below = 1 << v
            for u in children:
                if boxes[u] == one_box:
                    below |= down[u]
                    covers.append((u, v))
            down[v] = DownSet(below)
            if antisymmetry is None and any(boxes[u] < one_box for u in children):
                side, x, u = next(
                    (side, x, step[v])
                    for side, x, step in labelled
                    if step[v] != v and boxes[step[v]] < one_box
                )
                antisymmetry = (
                    f"{render_letter(x)} on the {side} takes {word(v)!r} to {word(u)!r}, "
                    f"{boxes[v]} -> {boxes[u]} boxes"
                )
            if grading is None:
                far = [u for u in children if boxes[u] > one_box and not below >> u & 1]
                if far:
                    u = min(far, key=boxes.__getitem__)
                    grading = f"{word(u)!r} covers {word(v)!r} with {boxes[u] - boxes[v]} boxes more"
        covers.sort(key=lambda edge: (edge[1], edge[0]))

        n = self.alphabet.n
        height = n * (n + 1) // 2
        if grading is None and (boxes[self.identity] != 0 or boxes[self.zero] != height):
            grading = (
                f"co-ranks run from {boxes[self.identity]} to {boxes[self.zero]}, "
                f"expected 0 to {height}"
            )
        order = JOrder(down_sets=down, hasse_edges=covers, coranks=boxes, height=height)
        return _IdealWalk(order, antisymmetry, grading)

    def to_json(self) -> dict:
        """The entire export as one dict, table included: `write_json`'s
        text, parsed."""
        out = io.StringIO()
        self.write_json(out)
        return json.loads(out.getvalue())

    def write_json(self, out: TextIO) -> None:
        """Write the export as json.dumps would, one element record and one
        table row at a time as each is derived; neither the element list,
        the table nor their text is held.  Every cell of the table is its
        index with the ", " before it, so writing row i joins them after i
        with no separator."""
        size = len(self.elements)
        out.write(
            f'{{"n": {self.alphabet.n}, "size": {size}, "identity": {self.identity}, '
            f'"zero": {self.zero}, "elements": ['
        )
        self._write_records(out)
        rows = self._rows(tuple(f", {j}" for j in range(1, size)))
        first = next(rows)  # checks the left graph before any of the table
        out.write(f'], "table": [[0{"".join(first)}]')
        for i, row in enumerate(rows, 1):
            out.write(f", [{i}{''.join(row)}]")
        out.write("]}")

    def _write_records(self, out: TextIO) -> None:
        """The element records, each one f-string over pieces made once and
        let go before the table: the JSON of each row mask and each support,
        by mask, and each element's word, its BFS parent's plus its letter.
        The ceiling keeps every letter in a..z, which JSON writes as it is."""
        idem = set(self.idempotents())
        masks = range(1 << self.alphabet.n)
        row_text = [json.dumps([render_letter(x) for x in letters_of(m)]) for m in masks]
        support_text = [json.dumps("".join(map(render_letter, letters_of(m)))) for m in masks]
        words = [""]
        for e in self.elements[1:]:
            words.append(words[e.parent] + render_letter(e.via_letter))
        words[0] = "1"  # the identity, as render_word gives it
        separator = ""
        for e in self.elements:
            row_masks = e.tableau._masks
            out.write(
                f'{separator}{{"index": {e.index}, "word": "{words[e.index]}", '
                f'"support": {support_text[row_masks[0] if row_masks else 0]}, '
                f'"rows": [{", ".join(map(row_text.__getitem__, row_masks))}], '
                f'"corank": {e.tableau.boxes()}, '
                f'"idempotent": {"true" if e.index in idem else "false"}}}'
            )
            separator = ", "

    def jorder_dot(self) -> str:
        """DOT digraph of the ideal-order Hasse diagram, ranked by co-rank."""
        order = self.j_order()
        lines = [
            "digraph jorder {",
            "  rankdir=BT;",
            '  node [shape=box, fontname="monospace"];',
        ]
        for e in self.elements:
            lines.append(f'  e{e.index} [label="{e.render_word()}"];')
        for rank in order.by_corank():
            if rank:
                nodes = " ".join(f"e{i};" for i in rank)
                lines.append(f"  {{ rank=same; {nodes} }}")
        for u, v in order.hasse_edges:
            lines.append(f"  e{u} -> e{v};")
        lines.append("}")
        return "\n".join(lines)


def enumerate_styl(alphabet: Alphabet) -> StylicMonoid:
    """Enumerate the monoid of column transformations on the given alphabet."""
    return StylicMonoid(alphabet)
