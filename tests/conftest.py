"""Slow reference implementations that several test modules compare the
package's kernels against, and the lemma helpers that several test modules
state the paper's lemmas with, each served as a session fixture."""

from dataclasses import dataclass
from functools import cache
from operator import itemgetter
from typing import Optional

import pytest

from stylic.columns import act_word
from stylic.core import decreasing_word, letters_of
from stylic.evacuation import check_composition, ideal_points, point_covers
from stylic.monoid import EMPTY_NTABLEAU, NTableau, SetPartition, delta_word
from stylic.rewriting import _measure_less, _redexes, _rewrite
from stylic.tableaux import Tableau, p_tableau, young_leq


def act_word_via_tableau(w, column):
    """w.gamma is the first column of P(w r(gamma))."""
    return p_tableau(w + decreasing_word(column)).first_column()


def column_leq_sorted(c1, c2):
    """The column order on frozensets: c2 empty, or both nonempty with
    |c1| >= |c2| and the i-th smallest letter of c1 at most the i-th
    smallest of c2, read off the sorted letters."""
    if not c2:
        return True
    if not c1 or len(c1) < len(c2):
        return False
    return all(a <= b for a, b in zip(sorted(c1), sorted(c2)))


def column_pair_reduce_multiset(c1, c2):
    """The rule on frozensets: the first column acts on the second, and
    each letter of c1 + c2 - reduced, counted as a multiset, is left over
    once; a letter counted twice is refused."""
    reduced = act_word(decreasing_word(c1), c2)
    leftover = set()
    for x in c1 | c2:
        count = (x in c1) + (x in c2) - (x in reduced)
        if not 0 <= count <= 1:
            raise ValueError(f"multiset leftover holds {x} {count} times, not at most once")
        if count:
            leftover.add(x)
    return reduced, frozenset(leftover)


def n_tableau_recursive(w):
    """The first row is Supp(w) and the rest is the N-tableau of the
    bumped-letter word."""
    if not w:
        return EMPTY_NTABLEAU
    rest = n_tableau_recursive(delta_word(w))
    return NTableau((tuple(sorted(set(w))),) + rest.rows)


def e_of_blocks(blocks):
    """The block index e of delta on block masks ordered by their minima,
    counted from 0: the first block that is the last one, or whose
    second-smallest letter lies below the minimum of the next block."""
    for j in range(len(blocks) - 1):
        below_next = (blocks[j + 1] & -blocks[j + 1]) - 1
        if blocks[j] & (blocks[j] - 1) & below_next:
            return j
    return len(blocks) - 1


def delta_by_copy(blocks, e):
    """delta on block masks given e, on a copy: each block before e trades
    its minimum for that of the next block, and block e loses its minimum."""
    out = list(blocks)
    for j in range(e):
        out[j] ^= (blocks[j] & -blocks[j]) | (blocks[j + 1] & -blocks[j + 1])
    out[e] &= out[e] - 1
    if not out[e]:
        out.pop()
    return out


def evac_by_delta_copies(partition, alphabet):
    """Evacuation by its recursion: evacuate delta of the partition, a
    copy, then place the reversal of the removed minimum into block e."""

    def rec(blocks):
        if not blocks:
            return []
        e = e_of_blocks(blocks)
        out = rec(delta_by_copy(blocks, e))
        replaced = 1 << (alphabet.n - (blocks[0] & -blocks[0]).bit_length())
        if e == len(out):
            out.append(replaced)
        else:
            out[e] |= replaced
        return out

    return SetPartition(tuple(map(letters_of, rec(partition.masks()))))


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
    t = Tableau(())
    for x in reversed(w):
        t = column_insert(t, x)
    return t


def flatten_column_word(word):
    """The letters of a column word, each column strictly decreasing."""
    return tuple(x for c in word for x in decreasing_word(c))


def all_normal_forms(word, table):
    """Explore every rewrite order from a word of column masks; returns the
    set of normal forms (a singleton, by confluence) and the steps (before,
    position, after) that do not decrease the termination measure."""
    seen = {word}
    stack = [word]
    normal_forms = set()
    violations = []
    while stack:
        w = stack.pop()
        slots = _redexes(w, table)
        if not slots:
            normal_forms.add(w)
            continue
        for i in slots:
            w2 = _rewrite(w, i, table)
            if not _measure_less(w2, w, table):
                violations.append((w, i, w2))
            if w2 not in seen:
                seen.add(w2)
                stack.append(w2)
    return normal_forms, violations


def normalize_by(word, pick, table):
    """Rewrite a word of column masks at the redex that `pick` chooses
    among all of them, until none is left."""
    while slots := _redexes(word, table):
        word = _rewrite(word, pick(slots), table)
    return word


def three_strategy_normal_forms(word, rng, table):
    """The normal forms of a word of column masks under leftmost,
    rightmost and random rewriting: one form, by confluence.  The rules
    must lower the measure, or rewriting may cycle."""
    return {normalize_by(word, pick, table) for pick in (itemgetter(0), itemgetter(-1), rng.choice)}


@cache
def skew_region(outer, inner):
    """The points of outer minus inner, once both are checked; a walk meets
    each (outer, inner) many times."""
    check_composition(outer)
    check_composition(inner)
    if not young_leq(inner, outer):
        raise ValueError("inner ideal must be contained in the outer ideal")
    return ideal_points(outer) - ideal_points(inner)


@dataclass(frozen=True)
class HoledSkew:
    """A state of a slide: an increasing labelling of outer minus inner by
    distinct letters, leaving out one point of the shape, the hole (None
    when there is none).  Checked in full on construction."""

    outer: tuple
    inner: tuple = ()
    labels: tuple = ()
    hole: Optional[tuple] = None

    def __post_init__(self):
        region = skew_region(self.outer, self.inner)
        object.__setattr__(self, "labels", tuple(sorted(self.labels)))
        expected = set(region)
        if self.hole is not None:
            if self.hole not in region:
                raise ValueError("hole must lie in the skew shape")
            expected.discard(self.hole)
        got = [p for p, _ in self.labels]
        if set(got) != expected or len(got) != len(expected):
            raise ValueError("labels must cover the shape minus the hole, once each")
        values = [v for _, v in self.labels]
        if len(set(values)) != len(values):
            raise ValueError("labels must be distinct letters")
        # Labels increase along every cover, and across the hole from the
        # point it covers to the points covering it; the region is convex,
        # so this orders every comparable pair.
        label = dict(self.labels)
        for p, v in self.labels:
            for c in point_covers(p):
                for q in point_covers(c) if c == self.hole else (c,):
                    if q in label and v >= label[q]:
                        raise ValueError(
                            f"labelling is not increasing: {p}:{v} vs {q}:{label[q]}"
                        )

    def label_map(self):
        return dict(self.labels)


def gamma_minus(column, alphabet):
    """Shift every letter down by one, dropping the smallest letter."""
    for x in column:
        alphabet.check_letter(x)
    return frozenset(x - 1 for x in column if x > 1)


# Canonical inflation exponents double per position; cap the word length so
# the inflated word stays around a million letters.
MAX_INFLATION_LENGTH = 20


def inflate(w, exponents):
    """Repeat the i-th letter of w exponents[i] times, in order."""
    if len(exponents) != len(w):
        raise ValueError(f"need {len(w)} exponents, got {len(exponents)}")
    out = []
    for x, e in zip(w, exponents):
        if e < 1:
            raise ValueError(f"inflation exponents must be positive, got {e}")
        out.extend([x] * e)
    return tuple(out)


def canonical_inflation_exponents(length):
    """Exponents x_i = 2^(length-i), the minimal solution of
    x_i - sum(x_j for j > i) >= 1 with equality throughout."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if length > MAX_INFLATION_LENGTH:
        raise ValueError(f"inflation length capped at {MAX_INFLATION_LENGTH}")
    return tuple(1 << (length - i) for i in range(1, length + 1))


def remove_point(comp, p):
    """Remove a maximal point from an ideal, keeping it an ideal."""
    x, y = p
    if y > len(comp) or comp[y - 1] != x:
        raise ValueError(f"{p} is not at the end of its row in {comp}")
    if x == 1 and y != len(comp):
        raise ValueError(f"{p} is not a maximal point of {comp}")
    parts = list(comp)
    parts[y - 1] -= 1
    if parts[y - 1] == 0:
        parts.pop()
    return tuple(parts)


def point_corners(comp):
    """The maximal points of an ideal, in order: each row's last point,
    except a first-column point with a row above it."""
    return sorted((part, y) for y, part in enumerate(comp, start=1) if part > 1 or y == len(comp))


def move_hole(label, hole):
    """One hole move on a label map, in place: the smaller label covering
    the hole moves into it, and its own cell is the new hole; None when no
    label covers the hole."""
    covers = [p for p in point_covers(hole) if p in label]
    if not covers:
        return None
    mover = min(covers, key=label.__getitem__)
    label[hole] = label.pop(mover)
    return mover


def downward_move(state):
    """One hole move as a validated HoledSkew: an upper hole leaves the
    shape; otherwise the smaller of the labels covering the hole slides
    into it."""
    if state.hole is None:
        raise ValueError("downward_move needs a hole")
    label = state.label_map()
    hole = move_hole(label, state.hole)
    outer = state.outer if hole is not None else remove_point(state.outer, state.hole)
    return HoledSkew(outer, state.inner, tuple(label.items()), hole)


def walk_of_downward_moves(skew, strategy):
    """jdt as a walk of downward_move steps, each one a validated HoledSkew,
    opening every hole at the first or the last inner corner."""
    state = skew
    while state.inner:
        choices = point_corners(state.inner)
        pick = choices[0] if strategy == "first" else choices[-1]
        state = HoledSkew(state.outer, remove_point(state.inner, pick), state.labels, pick)
        while state.hole is not None:
            state = downward_move(state)
    rows: list[list[int]] = [[] for _ in state.outer]
    for (x, y), v in state.labels:  # sorted by point: each row left to right
        rows[y - 1].append(v)
    return SetPartition(tuple(map(tuple, rows)))


@pytest.fixture(scope="session", name="act_word_via_tableau")
def act_word_via_tableau_oracle():
    return act_word_via_tableau


@pytest.fixture(scope="session", name="column_leq_sorted")
def column_leq_sorted_oracle():
    return column_leq_sorted


@pytest.fixture(scope="session", name="column_pair_reduce_multiset")
def column_pair_reduce_multiset_oracle():
    return column_pair_reduce_multiset


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


@pytest.fixture(scope="session", name="all_normal_forms")
def all_normal_forms_oracle():
    return all_normal_forms


@pytest.fixture(scope="session", name="three_strategy_normal_forms")
def three_strategy_normal_forms_oracle():
    return three_strategy_normal_forms


@pytest.fixture(scope="session", name="holed_skew")
def holed_skew_type():
    return HoledSkew


@pytest.fixture(scope="session", name="downward_move")
def downward_move_oracle():
    return downward_move


@pytest.fixture(scope="session")
def jdt_by_moves():
    return walk_of_downward_moves


@pytest.fixture(scope="session", name="gamma_minus")
def gamma_minus_helper():
    return gamma_minus


@pytest.fixture(scope="session", name="inflate")
def inflate_helper():
    return inflate


@pytest.fixture(scope="session", name="canonical_inflation_exponents")
def canonical_inflation_exponents_helper():
    return canonical_inflation_exponents


@pytest.fixture(scope="session", name="e_of_blocks")
def e_of_blocks_oracle():
    return e_of_blocks


@pytest.fixture(scope="session", name="delta_by_copy")
def delta_by_copy_oracle():
    return delta_by_copy


@pytest.fixture(scope="session", name="evac_by_delta_copies")
def evac_by_delta_copies_oracle():
    return evac_by_delta_copies
