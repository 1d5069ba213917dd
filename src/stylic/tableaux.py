"""Semistandard Young tableaux and Schensted insertion.

Rows are stored bottom-up (index 0 is the bottom row).  Rows weakly increase
left to right, columns strictly increase bottom to top, and row lengths
weakly decrease going up.  P(w) is computed by row insertion; the tests
cross-check it against column insertion.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import gt, le

from .core import LetterSet, Word, _check_least_letter, render_letter

Shape = tuple[int, ...]


@dataclass(frozen=True)
class Tableau:
    rows: tuple[Word, ...]

    def __post_init__(self) -> None:
        rows = self.rows
        for i, row in enumerate(rows):
            if not row:
                raise ValueError("tableau rows must be nonempty")
            if any(map(gt, row, row[1:])):
                raise ValueError(f"row {i + 1} is not weakly increasing: {row}")
        for below, above in zip(rows, rows[1:]):
            if len(above) > len(below):
                raise ValueError("row lengths must weakly decrease bottom to top")
            if any(map(le, above, below)):
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


def _row_insert(rows: list[list[int]], w: Word) -> None:
    """Row-insert the letters of a word into plain rows, bottom row first,
    in place: each row takes the carried letter in place of its least
    strictly larger one and passes that one up."""
    for x in w:
        for row in rows:
            j = bisect_right(row, x)
            if j == len(row):
                row.append(x)
                break
            row[j], x = x, row[j]
        else:
            rows.append([x])


def p_tableau(w: Word) -> Tableau:
    """The insertion tableau P(w), by row insertion of the letters in order."""
    if w:
        _check_least_letter(min(w))
    rows: list[list[int]] = []
    _row_insert(rows, w)
    return Tableau(tuple(map(tuple, rows)))


def longest_strictly_decreasing(w: Word) -> int:
    """Length of the longest strictly decreasing subsequence of w.

    Dynamic programming over best-ending-letter; equals the number of rows
    of P(w).
    """
    best: dict[int, int] = {}
    for x in w:
        best[x] = max(best.get(x, 0), 1 + max((v for y, v in best.items() if y > x), default=0))
    return max(best.values(), default=0)


def young_leq(lam: Shape, mu: Shape) -> bool:
    """Containment of integer partitions: every part of lam is at most the
    corresponding part of mu."""
    if len(lam) > len(mu):
        return False
    return all(a <= b for a, b in zip(lam, mu))
