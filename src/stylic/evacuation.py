"""Set-partition evacuation via jeu de taquin and growth pyramids.

The plane is ordered so that going right inside a row and going up inside the
first column are the covering moves; finite lower ideals of that order are
exactly the compositions.  A partition of a subset of the alphabet is an
increasing labelling of such an ideal, one block per row.  Removing the
smallest letter and sliding (the delta operator), together with the
order-reversing involution of the alphabet, produce an evacuation map that is
an involution on partitions; the growth pyramid recomputes it purely at the
level of composition chains.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import Alphabet, Word, _check_least_letter, letters_of, parse_letter, render_letter
from .monoid import SetPartition, _check_letter_types
from .tableaux import young_leq

Composition = tuple[int, ...]
Point = tuple[int, int]  # (x, y), both 1-based

# The largest outer ideal `skew_from_json` reads.  On a single column of this
# height, the slowest case, `styl compute jdt -n 12` takes about 0.6 s on a
# 2-vCPU x86 host, interpreter start included: 0.53-0.67 s with 1 label and
# 0.41-0.46 s with 12 labels over 5 runs each.  A slide costs O(1) off the
# first column, but finding its corners reads every inner row, so the time
# grows with the square of the height.
SKEW_CEILING = 4000


def check_composition(comp: Composition) -> None:
    if any(part < 1 for part in comp):
        raise ValueError(f"composition parts must be positive: {comp}")


def ideal_points(comp: Composition) -> frozenset[Point]:
    check_composition(comp)
    return frozenset(
        (x, y) for y, part in enumerate(comp, start=1) for x in range(1, part + 1)
    )


def point_covers(p: Point) -> list[Point]:
    """The plane order by its covers: the at most two points covering p are
    its right neighbour, and the point above when p sits in the first
    column.  Every point but (1, 1) covers exactly one point, so an
    interval of the order is a chain."""
    x, y = p
    covers = [(x + 1, y)]
    if x == 1:
        covers.append((1, y + 1))
    return covers


def _cover_row(lower: Composition, upper: Composition) -> int:
    """The row, counted from 1, of the point that upper adds to lower when
    upper covers lower (one part bumped, or a part 1 appended), else 0.
    Compares parts and builds no cover; the caller vouches that lower is a
    composition."""
    k = len(lower)
    if len(upper) == k + 1:
        return k + 1 if upper[k] == 1 and upper[:k] == lower else 0
    if len(upper) != k:
        return 0
    for i, part in enumerate(lower):
        if upper[i] != part:
            bumped = upper[i] == part + 1 and upper[i + 1 :] == lower[i + 1 :]
            return i + 1 if bumped else 0
    return 0


def interval_middles(c1: Composition, c3: Composition) -> set[Composition]:
    """The middle compositions of a length-2 interval; always one or two.
    A middle bumps c1 in a row where c3 differs from c1, so only those rows
    are tried, by comparing parts; the caller vouches that c1 is a
    composition."""
    k = len(c1)
    middles = set()
    for i in range(min(len(c3), k + 1)):
        part = c1[i] if i < k else 0
        if c3[i] != part:
            middle = c1[:i] + (part + 1,) + c1[i + 1 :]
            if _cover_row(middle, c3):
                middles.add(middle)
    if not middles:
        raise ValueError(f"{c1} -> .. -> {c3} is not a length-2 interval")
    return middles


@dataclass(frozen=True)
class SkewPartition:
    """An increasing labelling of outer minus inner by distinct letters,
    checked where it enters the package.  Each row increases, so its mask
    of letters is the whole row: jeu de taquin and the row word read the
    row masks."""

    outer: Composition
    inner: Composition = ()
    labels: tuple[tuple[Point, int], ...] = ()

    def __post_init__(self) -> None:
        check_composition(self.outer)
        check_composition(self.inner)
        if not young_leq(self.inner, self.outer):
            raise ValueError("inner ideal must be contained in the outer ideal")
        values = [v for _, v in self.labels]
        _check_letter_types(values)
        object.__setattr__(self, "labels", tuple(sorted(self.labels)))
        region = self.region()
        got = [p for p, _ in self.labels]
        if set(got) != region or len(got) != len(region):
            raise ValueError("labels must cover the shape, once each")
        if values:
            _check_least_letter(min(values))
        if len(set(values)) != len(values):
            raise ValueError("labels must be distinct letters")
        # Labels increase along every cover; the region is convex, so this
        # orders every comparable pair.
        label = dict(self.labels)
        for p, v in self.labels:
            for q in point_covers(p):
                if q in label and v >= label[q]:
                    raise ValueError(f"labelling is not increasing: {p}:{v} vs {q}:{label[q]}")

    def region(self) -> frozenset[Point]:
        return ideal_points(self.outer) - ideal_points(self.inner)

    def label_map(self) -> dict[Point, int]:
        return dict(self.labels)

    def _row_masks(self) -> list[int]:
        """One letter mask per row of the outer ideal, bottom row first."""
        rows = [0] * len(self.outer)
        for (_, y), v in self.labels:
            rows[y - 1] |= 1 << (v - 1)
        return rows

    def row_word(self) -> Word:
        """Top row, then each longer suffix of rows rearranged increasing."""
        out: list[int] = []
        tail = 0
        for row in reversed(self._row_masks()):
            tail |= row
            out.extend(letters_of(tail))
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "outer": list(self.outer),
            "inner": list(self.inner),
            "labels": [[list(p), render_letter(v)] for p, v in self.labels],
        }


def _int_tuple(value: object, what: str, length: Optional[int] = None) -> tuple[int, ...]:
    if (
        not isinstance(value, list)
        or any(type(v) is not int for v in value)
        or length is not None and len(value) != length
    ):
        count = "" if length is None else f"{length} "
        raise ValueError(f"{what} must be a list of {count}integers, got {value!r}")
    return tuple(value)


def skew_from_json(data: object) -> SkewPartition:
    """Read {"outer": [...], "inner": [...], "labels": [[[x, y], letter],
    ...]}, the form `SkewPartition.to_json` writes; inner may be left out.
    A letter is a positive JSON integer or a string holding one letter,
    such as "b" or "10".  Raises ValueError on any other shape, on an outer
    ideal above SKEW_CEILING points, and when outer minus inner does not
    hold one point per label."""
    if not isinstance(data, dict):
        raise ValueError(f"skew shape must be a JSON object, got {data!r}")
    keys = {"outer", "inner", "labels"}
    if not {"outer", "labels"} <= data.keys() <= keys:
        raise ValueError(f"skew shape needs outer and labels, and takes only {sorted(keys)}")
    if not isinstance(data["labels"], list):
        raise ValueError(f"labels must be a list, got {data['labels']!r}")
    labels = []
    for item in data["labels"]:
        if not isinstance(item, list) or len(item) != 2:
            raise ValueError(f"a label must be [[x, y], letter], got {item!r}")
        point, letter = item
        if isinstance(letter, str):
            letter = parse_letter(letter.strip())
        elif type(letter) is not int or letter < 1:
            raise ValueError(f"label {letter!r} is not a positive integer or a string")
        labels.append((_int_tuple(point, "a label point", 2), letter))
    outer = _int_tuple(data["outer"], "outer")
    inner = _int_tuple(data.get("inner", []), "inner")
    check_composition(outer)
    check_composition(inner)
    if sum(outer) > SKEW_CEILING:
        raise ValueError(f"outer ideal of size {sum(outer)} exceeds the ceiling {SKEW_CEILING}")
    if sum(outer) - sum(inner) != len(labels):
        raise ValueError(
            f"outer minus inner has {sum(outer) - sum(inner)} points, "
            f"but the labels fill {len(labels)}"
        )
    return SkewPartition(outer, inner, tuple(labels))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Jeu de taquin.


def _slide(inner: list[int], rows: list[int], y: int) -> None:
    """One slide, in place, from the last inner point of row y (counted from
    0), a maximal point of the inner ideal.  Off the first column the empty
    cell runs right along its row and out: the row keeps its letters.  A
    corner in the first column ends the top inner row; there the smaller of
    the row's least letter and the least letter of the row above moves in,
    and while it comes from above, the empty cell climbs a row, as in
    `_delta_step`.  A top row left empty leaves the shape."""
    if inner[y] > 1:
        inner[y] -= 1
        return
    inner.pop()
    while y + 1 < len(rows):
        row, above = rows[y], rows[y + 1]
        low = above & -above
        if 0 < row & -row < low:
            return
        rows[y], rows[y + 1] = row | low, above ^ low
        y += 1
    if not rows[y]:
        rows.pop()


def _corners(inner: Sequence[int]) -> list[int]:
    """The rows, counted from 0, whose last inner point is maximal: each row
    with a part above 1, and the top row; ordered by their points (x, y)."""
    top = len(inner) - 1
    return [y for _, y in sorted((part, y) for y, part in enumerate(inner) if part > 1 or y == top)]


def jdt(skew: SkewPartition, strategy: str = "first", rng: Optional[random.Random] = None) -> SetPartition:
    """Slide until no inner shape remains; the resulting partition does not
    depend on the choice of starting corners ("first", "last" or "random")."""
    if strategy not in ("first", "last", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    inner, rows = list(skew.inner), skew._row_masks()
    while inner:
        choices = _corners(inner)
        if strategy == "first":
            pick = choices[0]
        elif strategy == "last":
            pick = choices[-1]
        else:
            pick = (rng or random).choice(choices)
        _slide(inner, rows, pick)
    return SetPartition._from_masks(rows)


def _jdt_results(
    inner: tuple[int, ...], rows: tuple[int, ...], memo: dict[tuple, tuple[tuple[int, ...], ...]]
) -> tuple[tuple[int, ...], ...]:
    """The row masks of the distinct end states of sliding the state (inner,
    row masks) out over every sequence of corner choices, by dynamic
    programming over the states that slides reach: memo maps each state
    with an inner shape to its results, so that a state reached from
    several others is slid once.  The caller checks each distinct end
    state, once."""
    if not inner:
        return (rows,)
    key = (inner, rows)
    results = memo.get(key)
    if results is None:
        out: set[tuple[int, ...]] = set()
        for pick in _corners(inner):
            moved_inner, moved_rows = list(inner), list(rows)
            _slide(moved_inner, moved_rows, pick)
            out.update(_jdt_results(tuple(moved_inner), tuple(moved_rows), memo))
        results = memo[key] = tuple(out)
    return results


def jdt_all_results(
    skew: SkewPartition, memo: Optional[dict[tuple, tuple[tuple[int, ...], ...]]] = None
) -> set[SetPartition]:
    """Results over every sequence of corner choices.  memo maps each state
    (inner, row masks) with an inner shape to the row masks of its end
    states; pass one dict across many skews so that a state reached from
    several of them is slid once."""
    ends = _jdt_results(skew.inner, tuple(skew._row_masks()), {} if memo is None else memo)
    return set(map(SetPartition._from_masks, ends))


# ---------------------------------------------------------------------------
# The delta operator and evacuation.


def _delta_step(blocks: list[int]) -> int:
    """delta in place on nonempty block masks ordered by their minima, in
    one pass; returns the block index e, counted from 0.

    Each block before e trades its minimum for that of the next block, and
    block e loses its minimum.  Block e is the first that is the last one,
    or whose second-smallest letter lies below the minimum of the next
    block: the block reached by repeatedly jumping to the smallest letter
    to the right, as long as that letter is a block minimum.  By the choice
    of e the blocks stay ordered by their minima, and only a last block
    can empty out.
    """
    low = blocks[0] & -blocks[0]
    last = len(blocks) - 1
    for j in range(last):
        rest = blocks[j] ^ low
        following = blocks[j + 1]
        next_low = following & -following
        if rest & (next_low - 1):
            blocks[j] = rest
            return j
        blocks[j] = rest | next_low
        low = next_low
    if blocks[last] == low:
        blocks.pop()
    else:
        blocks[last] ^= low
    return last


def delta_direct(partition: SetPartition) -> SetPartition:
    """Remove the global minimum and shift the minima of the first e blocks
    down one block."""
    if not partition.block_count():
        raise ValueError("empty partition")
    blocks = partition.masks()
    _delta_step(blocks)
    return SetPartition._from_masks(blocks)


def delta_jdt(partition: SetPartition) -> SetPartition:
    """Remove the minimum label from the origin cell and slide; agrees with
    delta_direct."""
    if not partition.block_count():
        raise ValueError("empty partition")
    rows = partition.masks()
    rows[0] &= rows[0] - 1  # the least letter: the blocks are ordered by their minima
    _slide([1], rows, 0)  # the origin cell, emptied, is the inner ideal
    return SetPartition._from_masks(rows)


def evac(partition: SetPartition, alphabet: Alphabet) -> SetPartition:
    """Evacuation: recursively evacuate delta of the partition, then place
    the reversal of the removed minimum into the block the delta jump chose.

    The result lives on the image of the ground set under the order
    reversal of the alphabet, has the same shape, and the map is an
    involution.
    """
    blocks = partition.masks()
    if sum(blocks) >> alphabet.n:  # the blocks are disjoint: sum is union
        for x in partition.ground():
            alphabet.check_letter(x)
    shape = partition.shape()
    # Walk the delta iterates, then unwind the recursion.  The removed minima
    # increase, so each reversed letter is the largest placed so far and
    # never changes the order of the blocks by their minima.
    steps = []
    while blocks:
        smallest = blocks[0] & -blocks[0]
        steps.append((smallest, _delta_step(blocks)))
    for smallest, e in reversed(steps):
        replaced = 1 << (alphabet.n - smallest.bit_length())  # theta(b) = n + 1 - b
        if e == len(blocks):
            blocks.append(replaced)
        else:
            blocks[e] |= replaced
    result = SetPartition._from_masks(blocks)
    if result.shape() != shape:
        raise ValueError(f"evacuation changed the shape {shape} to {result.shape()}")
    return result


# ---------------------------------------------------------------------------
# Composition chains and the growth pyramid.


def partition_chain(partition: SetPartition) -> list[Composition]:
    """Shapes of the sub-labellings by the j smallest letters, j = 1..m."""
    row_of = {}  # letter bit -> block index, counted from 0
    for y, block in enumerate(partition.masks()):
        while block:
            low = block & -block
            row_of[low] = y
            block ^= low
    chain: list[Composition] = []
    current: list[int] = []
    for low in sorted(row_of):
        y = row_of[low]
        if y == len(current):
            current.append(1)
        else:
            current[y] += 1
        chain.append(tuple(current))
    return chain


def partition_from_chain(chain: Sequence[Composition], letters: list[int]) -> SetPartition:
    """Inverse of partition_chain: rebuild the partition from its chain of
    shapes and the sorted list of letters to place."""
    steps = [()] + list(chain) if not chain or chain[0] != () else list(chain)
    if len(steps) - 1 != len(letters):
        raise ValueError("chain length does not match the number of letters")
    blocks: dict[int, int] = {}
    # steps[0] is (), so each accepted step leaves a composition behind.
    # Rows open in order, each at its least letter: blocks ordered by minima.
    for j in range(1, len(steps)):
        prev, cur = steps[j - 1], steps[j]
        y = _cover_row(prev, cur)
        if not y:
            raise ValueError(f"chain step {prev} -> {cur} is not a covering move")
        blocks[y] = blocks.get(y, 0) | 1 << (letters[j - 1] - 1)
    return SetPartition._from_masks([blocks[y] for y in sorted(blocks)])


@dataclass(frozen=True)
class EvacuationPyramid:
    """Triangular array of composition chains: row i is the chain of the
    i-th delta iterate, prefixed by the empty composition; the anti-diagonal
    read bottom-to-top is the chain of the evacuated partition."""

    chains: tuple[tuple[Composition, ...], ...]

    @property
    def size(self) -> int:
        return len(self.chains) - 1

    def right_side(self) -> list[Composition]:
        m = self.size
        return [self.chains[m - j][j] for j in range(m + 1)]

    def validate_covers(self) -> None:
        """Every arrow is a covering move.  Each chain starts at (), so the
        lower end of each arrow has been accepted as a composition."""
        m = self.size
        for i in range(m + 1):
            _check_row_arrows(self.chains[i], self.chains[i + 1] if i < m else (), i)


def _check_row_arrows(chain: Sequence[Composition], lower: Sequence[Composition], i: int) -> None:
    """The arrows new at row i of a pyramid: each step of its chain, and each
    cross arrow from lower, the row below it, into the chain.  Raises
    ValueError naming the first that is not a covering move."""
    for j in range(len(chain) - 1):
        if not _cover_row(chain[j], chain[j + 1]):
            raise ValueError(f"chain {i} step {j} is not a covering move")
    for j, below in enumerate(lower):
        if not _cover_row(below, chain[j + 1]):
            raise ValueError(f"cross arrow ({i + 1},{j}) -> ({i},{j + 1}) is not a covering move")


def build_pyramid(partition: SetPartition) -> EvacuationPyramid:
    """Pyramid of the chains of the delta iterates, validated so that every
    arrow in both directions is a covering move."""
    chains = []
    current = partition
    m = sum(partition.shape())
    for _ in range(m + 1):
        chains.append(((),) + tuple(partition_chain(current)))
        if current.block_count():
            current = delta_direct(current)
    pyramid = EvacuationPyramid(tuple(chains))
    pyramid.validate_covers()
    return pyramid


def complete_rhombus(c1: Composition, c2: Composition, c3: Composition) -> Composition:
    """Missing corner of a rhombus: the other middle of the interval when
    there are two, the same middle when it is unique."""
    middles = interval_middles(c1, c3)
    if c2 not in middles:
        raise ValueError(f"{c2} is not a middle of [{c1}, {c3}]")
    if len(middles) == 2:
        (other,) = middles - {c2}
        return other
    return c2


def completion_row(chain: Sequence[Composition]) -> tuple[Composition, ...]:
    """The next row of a pyramid from one row alone, one rhombus at a time:
    from the chain of a partition (starting at ()), the chain of its delta."""
    row: list[Composition] = [()]
    for j in range(1, len(chain) - 1):
        row.append(complete_rhombus(row[j - 1], chain[j], chain[j + 1]))
    return tuple(row)


def pyramid_by_completion(partition: SetPartition) -> EvacuationPyramid:
    """Rebuild the entire pyramid from its leftmost chain alone, one row at
    a time; agrees with build_pyramid."""
    rows = [((),) + tuple(partition_chain(partition))]
    for _ in range(sum(partition.shape())):
        rows.append(completion_row(rows[-1]))
    return EvacuationPyramid(tuple(rows))


def evac_from_right_side(
    right_side: Sequence[Composition], partition: SetPartition, alphabet: Alphabet
) -> SetPartition:
    """Read the evacuated partition off the right side of its pyramid."""
    letters = sorted(alphabet.theta_letter(x) for x in partition.ground())
    return partition_from_chain(right_side, letters)


def evac_via_pyramid(partition: SetPartition, alphabet: Alphabet) -> SetPartition:
    """Read the evacuated partition off the right side of the pyramid."""
    if not partition.block_count():
        return partition
    return evac_from_right_side(build_pyramid(partition).right_side(), partition, alphabet)


# ---------------------------------------------------------------------------
# Removing the largest letter.


def remove_from_partition(partition: SetPartition, z: int) -> SetPartition:
    """Drop the largest letter of the ground set from its block."""
    blocks = partition.masks()
    ground = sum(blocks)  # the blocks are disjoint: sum is union
    if not ground or z != ground.bit_length():
        raise ValueError("only the largest letter of the ground set can be removed")
    top = 1 << (z - 1)  # a block {z} is the last block, and it empties out
    return SetPartition._from_masks([block & ~top for block in blocks if block != top])
