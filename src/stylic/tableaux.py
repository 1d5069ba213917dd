"""Semistandard Young tableaux and Schensted insertion.

Rows are stored bottom-up (index 0 is the bottom row).  Rows weakly increase
left to right, columns strictly increase bottom to top, and row lengths
weakly decrease going up.  P(w) is computed by row insertion, with column
insertion kept as an independent cross-check.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .core import LetterSet, Word, render_letter

Shape = tuple[int, ...]


@dataclass(frozen=True)
class Tableau:
    rows: tuple[Word, ...]

    def __post_init__(self) -> None:
        rows = self.rows
        for i, row in enumerate(rows):
            if not row:
                raise ValueError("tableau rows must be nonempty")
            if any(row[j] > row[j + 1] for j in range(len(row) - 1)):
                raise ValueError(f"row {i + 1} is not weakly increasing: {row}")
        for i in range(len(rows) - 1):
            below, above = rows[i], rows[i + 1]
            if len(above) > len(below):
                raise ValueError("row lengths must weakly decrease bottom to top")
            if any(above[j] <= below[j] for j in range(len(above))):
                raise ValueError("columns must strictly increase bottom to top")

    def shape(self) -> Shape:
        return tuple(len(row) for row in self.rows)

    def row_word(self) -> Word:
        """Rows read left to right, topmost row first."""
        out: list[int] = []
        for row in reversed(self.rows):
            out.extend(row)
        return tuple(out)

    def column_word(self) -> Word:
        """Columns read left to right, each top to bottom."""
        out: list[int] = []
        for col in self.columns():
            out.extend(reversed(col))
        return tuple(out)

    def columns(self) -> list[Word]:
        """The columns, left to right, each read bottom to top."""
        width = len(self.rows[0]) if self.rows else 0
        return [
            tuple(row[j] for row in self.rows if len(row) > j)
            for j in range(width)
        ]

    def first_column(self) -> LetterSet:
        return frozenset(row[0] for row in self.rows)

    def render(self) -> str:
        """Top row first, letters space-separated."""
        if not self.rows:
            return "(empty tableau)"
        return "\n".join(
            " ".join(render_letter(x) for x in row) for row in reversed(self.rows)
        )

    def to_json(self) -> dict:
        return {"rows": [[render_letter(x) for x in row] for row in self.rows]}


EMPTY_TABLEAU = Tableau(())


def _row_insert(rows: list[list[int]], x: int) -> None:
    """Row-insert a letter into plain rows, bottom row first, in place: each
    row takes the carried letter in place of its least strictly larger one
    and passes that one up."""
    for row in rows:
        j = bisect_right(row, x)
        if j == len(row):
            row.append(x)
            return
        row[j], x = x, row[j]
    rows.append([x])


def row_insert_into_row(row: Word, x: int) -> tuple[Word, Optional[int]]:
    """Insert x into a weakly increasing row, bumping the smallest element
    strictly greater than x, or appending when there is none."""
    rows = [list(row)]
    _row_insert(rows, x)
    return tuple(rows[0]), rows[1][0] if len(rows) > 1 else None


def row_insert(tableau: Tableau, x: int) -> Tableau:
    """Schensted row insertion of a letter, starting from the bottom row."""
    rows = [list(row) for row in tableau.rows]
    _row_insert(rows, x)
    return Tableau(tuple(map(tuple, rows)))


def column_insert(tableau: Tableau, x: int) -> Tableau:
    """Schensted column insertion of a letter, starting from the first column."""
    rows = [list(row) for row in tableau.rows]
    carry: Optional[int] = x
    j = 0
    while carry is not None:
        heights = [i for i, row in enumerate(rows) if len(row) > j]
        bumped_at = None
        for i in heights:
            if rows[i][j] >= carry:
                bumped_at = i
                break
        if bumped_at is None:
            # carry exceeds the whole column: it lands on top.
            top = len(heights)
            if top == len(rows):
                rows.append([])
            if len(rows[top]) != j:
                raise ValueError("column insertion must add a corner cell")
            rows[top].append(carry)
            carry = None
        else:
            rows[bumped_at][j], carry = carry, rows[bumped_at][j]
            j += 1
    return Tableau(tuple(tuple(row) for row in rows))


def p_tableau(w: Word) -> Tableau:
    """The insertion tableau P(w), by row insertion of the letters in order."""
    rows: list[list[int]] = []
    for x in w:
        _row_insert(rows, x)
    return Tableau(tuple(map(tuple, rows)))


def p_tableau_by_columns(w: Word) -> Tableau:
    """P(w) by column insertion of the letters from right to left; agrees
    with p_tableau and serves as its oracle."""
    t = EMPTY_TABLEAU
    for x in reversed(w):
        t = column_insert(t, x)
    return t


def longest_strictly_decreasing(w: Word) -> int:
    """Length of the longest strictly decreasing subsequence of w.

    Dynamic programming over best-ending-letter; equals the number of rows
    of P(w).
    """
    best: dict[int, int] = {}
    for x in w:
        best[x] = max(best.get(x, 0), 1 + max((v for y, v in best.items() if y > x), default=0))
    return max(best.values(), default=0)


def longest_strictly_decreasing_bruteforce(w: Word) -> int:
    """Exponential enumeration of all subsequences; oracle for small words."""
    if len(w) > 12:
        raise ValueError("brute-force subsequence scan is gated to length <= 12")
    best = 0
    for k in range(len(w), 0, -1):
        if k <= best:
            break
        for positions in combinations(range(len(w)), k):
            seq = [w[p] for p in positions]
            if all(seq[i] > seq[i + 1] for i in range(k - 1)):
                best = k
                break
    return best


def young_leq(lam: Shape, mu: Shape) -> bool:
    """Containment of integer partitions: every part of lam is at most the
    corresponding part of mu."""
    if len(lam) > len(mu):
        return False
    return all(a <= b for a, b in zip(lam, mu))
