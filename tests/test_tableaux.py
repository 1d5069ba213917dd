from itertools import combinations, product

import pytest

from stylic.columns import act_letter
from stylic.core import parse_word
from stylic.tableaux import (
    Tableau,
    _row_insert,
    longest_strictly_decreasing,
    p_tableau,
    young_leq,
)

EMPTY_TABLEAU = Tableau(())
FIGURE_TABLEAU = Tableau(((1, 1, 3), (2, 2), (4,)))  # rows aac / bb / d


def words_up_to(n, maxlen):
    for length in range(maxlen + 1):
        yield from product(range(1, n + 1), repeat=length)


def longest_strictly_decreasing_bruteforce(w):
    """Exponential enumeration of all subsequences, for small words."""
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


def test_column_insert_into_column(column_insert):
    def column_insert_into_column(column, x):
        """Insert x into a single column: the new column and the letter it
        bumps (None when x lands on top). The new column is x.column."""
        t = column_insert(Tableau(tuple((y,) for y in sorted(column))), x)
        assert t.first_column() == act_letter(x, column)
        rest = t.columns()[1:]
        return t.first_column(), (rest[0][0] if rest else None)

    assert column_insert_into_column(frozenset({3, 1}), 2) == (frozenset({2, 1}), 3)
    assert column_insert_into_column(frozenset({3, 1}), 4) == (frozenset({4, 3, 1}), None)
    assert column_insert_into_column(frozenset({1}), 1) == (frozenset({1}), 1)


def test_row_insert_into_row():
    # the row takes x in place of its least strictly larger letter, which
    # starts a new row above; with none larger, x is appended
    for row, x, expected in [
        ((1, 1, 3), 2, [[1, 1, 2], [3]]),
        ((1, 1, 2), 2, [[1, 1, 2, 2]]),
        ((), 1, [[1]]),
    ]:
        rows = [list(row)]
        _row_insert(rows, (x,))
        assert rows == expected


def test_p_tableau_examples():
    assert p_tableau(parse_word("dbbaac")) == FIGURE_TABLEAU
    assert p_tableau(()) == EMPTY_TABLEAU
    assert p_tableau(parse_word("cdab")) == Tableau(((1, 2), (3, 4)))
    assert p_tableau(parse_word("cabd")) == Tableau(((1, 2, 4), (3,)))


def test_row_and_column_words():
    assert FIGURE_TABLEAU.row_word() == parse_word("dbbaac")
    assert FIGURE_TABLEAU.column_word() == parse_word("dbabac")
    assert EMPTY_TABLEAU.row_word() == ()
    column = Tableau(((1,), (2,), (4,)))
    assert column.row_word() == column.column_word() == (4, 2, 1)


def test_shapes():
    assert FIGURE_TABLEAU.shape() == (3, 2, 1)
    assert EMPTY_TABLEAU.shape() == ()
    assert p_tableau(parse_word("cabd")).shape() == (3, 1)


def test_row_and_column_insertion_agree(p_tableau_by_columns):
    for w in words_up_to(3, 6):
        assert p_tableau(w) == p_tableau_by_columns(w)


def test_insertion_words_recover_tableau():
    seen = set()
    for w in words_up_to(3, 6):
        t = p_tableau(w)
        if t in seen:
            continue
        seen.add(t)
        assert p_tableau(t.row_word()) == t
        assert p_tableau(t.column_word()) == t


def test_two_sided_insertion_of_products(column_insert):
    words = list(words_up_to(3, 3))
    for u in words:
        for v in words:
            expected = p_tableau(u + v)
            by_columns = p_tableau(v)
            for x in reversed(u):
                by_columns = column_insert(by_columns, x)
            by_rows = [list(row) for row in p_tableau(u).rows]
            _row_insert(by_rows, v)
            assert by_columns == expected
            assert Tableau(tuple(map(tuple, by_rows))) == expected


def test_longest_strictly_decreasing_examples():
    assert longest_strictly_decreasing(()) == 0
    assert longest_strictly_decreasing(parse_word("abc")) == 1
    assert longest_strictly_decreasing(parse_word("dbbaac")) == 3


def test_longest_strictly_decreasing_cross_checks():
    for w in words_up_to(3, 6):
        dp = longest_strictly_decreasing(w)
        assert dp == len(p_tableau(w).rows)
        assert dp == longest_strictly_decreasing_bruteforce(w)


def test_bruteforce_is_gated():
    with pytest.raises(ValueError):
        longest_strictly_decreasing_bruteforce((1,) * 13)


def test_young_leq():
    assert young_leq((2, 1), (3, 1))
    assert young_leq((2, 2), (2, 2))
    assert not young_leq((2, 2), (3, 1))
    assert young_leq((), (1,))
    assert not young_leq((1, 1), (2,))


def test_tableau_validation():
    with pytest.raises(ValueError):
        Tableau(((2, 1),))  # row decreasing
    with pytest.raises(ValueError):
        Tableau(((1, 1), (1,)))  # column not strict
    with pytest.raises(ValueError):
        Tableau(((1,), (2, 2)))  # upper row longer
    with pytest.raises(ValueError):
        Tableau(((),))


def test_render_and_json():
    assert FIGURE_TABLEAU.render().splitlines() == ["d", "b b", "a a c"]
    assert FIGURE_TABLEAU.to_json() == {"rows": [["a", "a", "c"], ["b", "b"], ["d"]]}
    assert EMPTY_TABLEAU.render() == "(empty tableau)"
