"""Slow reference implementations that several test modules compare the
package's kernels against, each served as a session fixture."""

from typing import Optional

import pytest

from stylic.core import decreasing_word
from stylic.evacuation import SkewPartition, _corners, _move, remove_point
from stylic.monoid import EMPTY_NTABLEAU, NTableau, SetPartition, delta_word
from stylic.tableaux import EMPTY_TABLEAU, Tableau, p_tableau


def act_word_via_tableau(w, column):
    """w.gamma is the first column of P(w r(gamma))."""
    return p_tableau(w + decreasing_word(column)).first_column()


def n_tableau_recursive(w):
    """The first row is Supp(w) and the rest is the N-tableau of the
    bumped-letter word."""
    if not w:
        return EMPTY_NTABLEAU
    rest = n_tableau_recursive(delta_word(w))
    return NTableau((tuple(sorted(set(w))),) + rest.rows)


def column_insert(tableau, x):
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


def p_tableau_by_columns(w):
    """P(w) by column insertion of the letters from right to left."""
    t = EMPTY_TABLEAU
    for x in reversed(w):
        t = column_insert(t, x)
    return t


def flatten_column_word(word):
    """The letters of a column word, each column strictly decreasing."""
    return tuple(x for c in word for x in decreasing_word(c))


def downward_move(skew):
    """One hole move as a validated SkewPartition: an upper hole leaves the
    shape; otherwise the smaller of the labels covering the hole slides
    into it."""
    if skew.hole is None:
        raise ValueError("downward_move needs a hole")
    label = skew.label_map()
    hole = _move(label, skew.hole)
    outer = skew.outer if hole is not None else remove_point(skew.outer, skew.hole)
    return SkewPartition(outer, skew.inner, tuple(label.items()), hole)


def walk_of_downward_moves(skew, strategy):
    """jdt as a walk of downward_move steps, each one a validated
    SkewPartition, opening every hole at the first or the last inner corner."""
    state = skew
    while state.inner:
        choices = _corners(state.inner)
        pick = choices[0] if strategy == "first" else choices[-1]
        state = SkewPartition(state.outer, remove_point(state.inner, pick), state.labels, pick)
        while state.hole is not None:
            state = downward_move(state)
    rows: list[list[int]] = [[] for _ in state.outer]
    for (x, y), v in state.labels:  # sorted by point: each row left to right
        rows[y - 1].append(v)
    return SetPartition(tuple(map(tuple, rows)))


@pytest.fixture(scope="session", name="act_word_via_tableau")
def act_word_via_tableau_oracle():
    return act_word_via_tableau


@pytest.fixture(scope="session", name="n_tableau_recursive")
def n_tableau_recursive_oracle():
    return n_tableau_recursive


@pytest.fixture(scope="session", name="column_insert")
def column_insert_oracle():
    return column_insert


@pytest.fixture(scope="session", name="p_tableau_by_columns")
def p_tableau_by_columns_oracle():
    return p_tableau_by_columns


@pytest.fixture(scope="session", name="flatten_column_word")
def flatten_column_word_oracle():
    return flatten_column_word


@pytest.fixture(scope="session", name="downward_move")
def downward_move_oracle():
    return downward_move


@pytest.fixture(scope="session")
def jdt_by_moves():
    return walk_of_downward_moves
