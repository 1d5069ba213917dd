import random
from itertools import permutations, product

import pytest

from stylic.columns import (
    EMPTY_COLUMN,
    act_letter,
    act_word,
    all_columns,
    column_leq,
    kernel_interval,
    parse_column,
    render_column,
)
from stylic.core import Alphabet, parse_word, support
from stylic.tableaux import p_tableau


def words_up_to(n, maxlen):
    for length in range(maxlen + 1):
        yield from product(range(1, n + 1), repeat=length)


def col(text):
    return parse_column(text)


def gamma_plus(column, alphabet):
    """Shift every letter up by one; the column must avoid the largest
    letter of the alphabet."""
    if alphabet.n in column:
        raise ValueError("cannot shift up a column containing the largest letter")
    for x in column:
        alphabet.check_letter(x)
    return frozenset(x + 1 for x in column)


def fixpoints(w, alphabet):
    """The columns fixed by w: exactly those containing Supp(w)."""
    supp = support(w)
    alphabet.check_word(w)
    rest = sorted(alphabet.full_set - supp)
    out = set()
    for mask in range(1 << len(rest)):
        extra = frozenset(rest[i] for i in range(len(rest)) if mask >> i & 1)
        out.add(supp | extra)
    return out


def column_leq_bruteforce(c1, c2):
    """c1 <= c2 iff there is a regressive injection from c2 into c1
    (f(x) <= x for all x); exhaustive search."""
    if not c2:
        return True
    if len(c1) < len(c2):
        return False
    targets = sorted(c2)
    for image in permutations(sorted(c1), len(targets)):
        if all(f <= x for f, x in zip(image, targets)):
            return True
    return False


def below(column, x):
    """The elements of the column strictly smaller than x."""
    return frozenset(y for y in column if y < x)


def above(column, x):
    """The elements of the column strictly larger than x."""
    return frozenset(y for y in column if y > x)


def split_action_check(w, column, pivot):
    """For a letter in w.gamma but not in Supp(w), the action splits at that
    letter:  w.gamma = w_< . gamma_< + {pivot} + w_> . gamma_>."""
    image = act_word(w, column)
    if pivot not in image or pivot in support(w):
        raise ValueError("pivot must lie in w.gamma but not in Supp(w)")
    lower = act_word(tuple(x for x in w if x < pivot), below(column, pivot))
    upper = act_word(tuple(x for x in w if x > pivot), above(column, pivot))
    return image == lower | upper | {pivot}


def test_act_letter_examples():
    assert act_letter(1, EMPTY_COLUMN) == col("a")
    assert act_letter(2, col("a")) == col("ba")
    for gamma in all_columns(Alphabet(4)):
        for x in gamma:
            assert act_letter(x, gamma) == gamma
        for x in Alphabet(4).letters:
            assert x in act_letter(x, gamma)


def test_act_word_examples():
    assert act_word(parse_word("acbd"), col("a")) == col("cba")
    assert act_word((), col("ba")) == col("ba")
    assert act_word(parse_word("cabd"), EMPTY_COLUMN) == col("ca")


def test_act_word_is_action():
    a3 = Alphabet(3)
    words = list(words_up_to(3, 3))
    for gamma in all_columns(a3):
        for u in words:
            for v in words:
                assert act_word(u + v, gamma) == act_word(u, act_word(v, gamma))


def test_act_word_matches_tableau_insertion(act_word_via_tableau):
    a3 = Alphabet(3)
    for gamma in all_columns(a3):
        for w in words_up_to(3, 4):
            assert act_word(w, gamma) == act_word_via_tableau(w, gamma)


def test_first_column_of_insertion_tableau():
    for w in words_up_to(3, 6):
        expected = p_tableau(w).first_column() if w else frozenset()
        assert act_word(w, EMPTY_COLUMN) == expected


def test_column_leq_examples():
    assert column_leq(col("dba"), col("ba"))
    assert column_leq(col("ba"), col("c"))
    assert all(column_leq(g, EMPTY_COLUMN) for g in all_columns(Alphabet(4)))
    assert not column_leq(col("b"), col("a"))
    assert not column_leq(EMPTY_COLUMN, col("a"))


def test_column_leq_matches_regressive_injections():
    columns = all_columns(Alphabet(5))
    for c1 in columns:
        for c2 in columns:
            assert column_leq(c1, c2) == column_leq_bruteforce(c1, c2)


def test_gamma_shifts(gamma_minus):
    a4 = Alphabet(4)
    assert gamma_minus(col("cba"), a4) == col("ba")
    assert gamma_minus(EMPTY_COLUMN, a4) == EMPTY_COLUMN
    assert gamma_plus(col("ba"), a4) == col("cb")
    with pytest.raises(ValueError):
        gamma_plus(col("da"), a4)
    for gamma in all_columns(Alphabet(3)):
        if 3 not in gamma:
            assert gamma_minus(gamma_plus(gamma, Alphabet(3)), Alphabet(3)) == gamma


def test_below_above():
    dba = col("dba")
    assert below(dba, 3) == col("ba")
    assert below(EMPTY_COLUMN, 2) == EMPTY_COLUMN
    assert above(dba, 2) == col("d")


def test_fixpoints():
    a2 = Alphabet(2)
    assert fixpoints((), a2) == set(all_columns(a2))
    assert fixpoints(parse_word("ba"), a2) == {col("ba")}
    assert len(fixpoints((2,), Alphabet(3))) == 4
    # against a direct fixed-point scan
    a4 = Alphabet(4)
    rng = random.Random(11)
    for _ in range(25):
        w = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 5)))
        scan = {g for g in all_columns(a4) if act_word(w, g) == g}
        assert fixpoints(w, a4) == scan


def test_monotone_contraction_and_order_preservation():
    a4 = Alphabet(4)
    columns = all_columns(a4)
    comparable = [
        (g1, g2) for g1 in columns for g2 in columns if column_leq(g1, g2)
    ]
    # acting can only move a column down, and it preserves the order
    for w in words_up_to(4, 4):
        images = {g: act_word(w, g) for g in columns}
        for g in columns:
            assert column_leq(images[g], g)
        for g1, g2 in comparable:
            assert column_leq(images[g1], images[g2])


def test_recursive_action_properties():
    a4 = Alphabet(4)
    rng = random.Random(3)
    for _ in range(200):
        w = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 6)))
        gamma = frozenset(x for x in a4.letters if rng.random() < 0.5)
        if support(w) <= gamma:
            assert act_word(w, gamma) == gamma
        for pivot in a4.letters:
            lower = frozenset(range(1, pivot + 1))
            if lower <= gamma:
                assert lower <= act_word(w, gamma)


def test_insert_preserves_part_below_inserted_letter():
    a4 = Alphabet(4)
    for gamma in all_columns(a4):
        for x in a4.letters:
            assert below(act_letter(x, gamma), x) == below(gamma, x)


def test_kernel_interval_worked_example():
    # w = fba on a..g with fixpoint feba: the fibre is the 18-member family
    # built from S = {e}, the six 2-subsets of {a,b,c,d} dominating {a,b},
    # and the three choices {f}, {g}, {} at the top.
    a7 = Alphabet(7)
    interval = kernel_interval(parse_word("fba"), col("feba"), a7)
    assert interval.minimum == col("feba")
    assert interval.maximum == col("edc")
    y1s = [frozenset(s) for s in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]]
    y2s = [frozenset({6}), frozenset({7}), frozenset()]
    family = {frozenset({5}) | y1 | y2 for y1 in y1s for y2 in y2s}
    assert set(interval.members) == family
    assert interval.size == 18


def test_kernel_interval_small_cases():
    a1 = Alphabet(1)
    interval = kernel_interval((1,), col("a"), a1)
    assert set(interval.members) == {EMPTY_COLUMN, col("a")}
    a3 = Alphabet(3)
    full = kernel_interval((3, 2, 1), col("cba"), a3)
    assert set(full.members) == set(all_columns(a3))


def test_kernel_interval_errors():
    a2 = Alphabet(2)
    with pytest.raises(ValueError):
        kernel_interval((1, 2), col("ba"), a2)  # not decreasing
    with pytest.raises(ValueError):
        kernel_interval((2,), col("a"), a2)  # not a fixpoint


def test_split_action():
    assert split_action_check((), col("b"), 2)
    a4 = Alphabet(4)
    rng = random.Random(9)
    checked = 0
    for _ in range(500):
        w = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 5)))
        gamma = frozenset(x for x in a4.letters if rng.random() < 0.5)
        image = act_word(w, gamma)
        for pivot in image - support(w):
            assert split_action_check(w, gamma, pivot)
            checked += 1
    assert checked > 100


def test_column_text_round_trip():
    assert render_column(EMPTY_COLUMN) == "1"
    assert parse_column("1") == EMPTY_COLUMN
    assert render_column(col("dba")) == "dba"
    with pytest.raises(ValueError):
        parse_column("abc")  # increasing, not a column
