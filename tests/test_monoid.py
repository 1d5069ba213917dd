import dataclasses
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

from stylic import rewriting, syntactic, verify
from stylic.cli import main
from stylic.columns import act_word
from stylic.core import (
    Alphabet,
    decreasing_word,
    letters_of,
    mask_of,
    parse_word,
    render_letter,
    shift_down_word,
    support,
    theta,
)
from stylic.monoid import (
    EMPTY_NTABLEAU,
    ENUMERATION_CEILING,
    NTableau,
    SetPartition,
    StylicMonoid,
    all_partitions_of_subsets,
    bell_number,
    delta_word,
    enumerate_styl,
    from_partition,
    left_insert,
    n_insert,
    n_tableau,
    parse_partition,
    pi,
    to_partition,
    up,
)
from stylic.rewriting import stylic_relations
from stylic.tableaux import Tableau, p_tableau, young_leq

SRC = str(Path(__file__).resolve().parent.parent / "src")

FIVE_ROW_TABLEAU = NTableau(((1, 2, 3, 4, 5), (2, 4, 5), (4, 5)))  # abcde/bde/de


def words_up_to(n, maxlen):
    for length in range(maxlen + 1):
        yield from product(range(1, n + 1), repeat=length)


def d_operator(target, source):
    """{up(c, target) : c in source, defined}; a subset of target."""
    row = mask_of(target)
    image = 0
    for c in source:
        image |= up(c, row)
    return frozenset(letters_of(image))


def zero_tableau(alphabet):
    """The class of the full decreasing word: a staircase with n(n+1)/2
    boxes, the absorbing element of the monoid."""
    return n_tableau(decreasing_word(alphabet.full_set))


def theta_tableau(tableau, alphabet):
    """The image of a class under the order-reversing anti-automorphism."""
    return n_tableau(theta(tableau.row_word(), alphabet))


def complete_elements_bijection_check(alphabet, gamma_minus):
    """Elements with full support number Bell(n), and dropping the first
    bumped-letter word one alphabet step down intertwines the two actions:
    u = shift_down(delta(w)) satisfies u.g = (w.g)^- on columns avoiding the
    largest letter."""
    n = alphabet.n
    monoid = enumerate_styl(alphabet)
    full = alphabet.full_set
    complete = [e for e in monoid.elements if e.tableau.supp() == full]
    if len(complete) != bell_number(n):
        return False
    if n == 1:
        return True

    small = Alphabet(n - 1)
    small_monoid = enumerate_styl(small)
    small_columns = list(small.subsets())
    images = set()
    for e in complete:
        u = shift_down_word(delta_word(e.word))
        for g in small_columns:
            if act_word(u, g) != gamma_minus(act_word(e.word, g), alphabet):
                return False
        images.add(small_monoid.class_of_word(u))
    return len(images) == len(complete) == len(small_monoid)


def test_bell_numbers():
    assert [bell_number(k) for k in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_up():
    assert up(2, 0b1101) == 0b0100  # row {a, c, d}: c is the least letter above b
    assert up(4, 0b0011) == 0
    assert up(1, 0b0010) == 0b0010
    assert up(3, 0b0100) == 0  # the letter itself is not above it


def test_delta_word():
    assert delta_word(parse_word("acbd")) == parse_word("c")
    assert delta_word(()) == ()
    assert delta_word(parse_word("aa")) == ()
    assert delta_word(parse_word("cabd")) == parse_word("cc")


def test_d_operator():
    assert d_operator(frozenset(), frozenset({1, 2})) == frozenset()
    assert d_operator(frozenset({2, 4}), frozenset({1, 2, 3})) == frozenset({2, 4})
    # a subset with a larger minimum maps onto the whole target
    rng = random.Random(2)
    for _ in range(100):
        c = frozenset(x for x in range(1, 8) if rng.random() < 0.6)
        b = frozenset(x for x in c if rng.random() < 0.6)
        if b and c and b < c and min(b) > min(c):
            assert d_operator(b, c) == b


def test_n_insert_examples():
    assert n_insert(EMPTY_NTABLEAU, 1) == NTableau(((1,),))
    t = NTableau(((1, 2, 4),))
    assert n_insert(t, 4) == t  # largest letter already present
    t = EMPTY_NTABLEAU
    for x in parse_word("cabd"):
        t = n_insert(t, x)
    assert t == NTableau(((1, 2, 3, 4), (3,)))


def test_n_tableau_examples():
    target = NTableau(((1, 2, 3, 4), (3,)))
    assert n_tableau(parse_word("cabd")) == target
    assert n_tableau(parse_word("cdab")) == target
    assert n_tableau(()) == EMPTY_NTABLEAU
    assert n_tableau(FIVE_ROW_TABLEAU.row_word()) == FIVE_ROW_TABLEAU


def test_n_tableau_recursive_agrees(n_tableau_recursive):
    for w in words_up_to(3, 6):
        assert n_tableau(w) == n_tableau_recursive(w)


def test_ntableau_validation():
    with pytest.raises(ValueError):
        NTableau(((1, 1),))
    with pytest.raises(ValueError):
        NTableau(((1, 2), (3,)))  # upper row not contained in lower
    with pytest.raises(ValueError):
        NTableau(((1, 2), (1,)))  # minima not increasing


def test_every_n_tableau_is_a_semistandard_tableau():
    for n in range(1, 6):
        for e in enumerate_styl(Alphabet(n)).elements:
            plain = Tableau(e.tableau.rows)  # runs the semistandard checks
            assert isinstance(e.tableau, Tableau) and e.tableau != plain
            assert (e.tableau.shape(), e.tableau.row_word()) == (plain.shape(), plain.row_word())
            assert e.tableau.render() == plain.render()
            assert e.tableau.to_json() == plain.to_json()


@pytest.mark.parametrize("n", range(1, 7))
def test_closure_tableaux_are_the_tableaux_of_their_words(n):
    # The closure N-inserts one letter into the parent's tableau.
    for e in enumerate_styl(Alphabet(n)).elements:
        assert e.tableau == n_tableau(e.word)


def test_left_insert_examples():
    assert left_insert(1, NTableau(((2,),))) == NTableau(((1, 2),))
    t = NTableau(((1, 2), (2,)))
    assert left_insert(2, t) == t
    assert left_insert(1, NTableau(((2, 3), (3,)))) == NTableau(((1, 2, 3), (3,)))


def test_left_insert_duplicate_bumps_are_removed():
    # inserting b into rows {a,c,d} / {c,d}: b joins both rows, and the
    # shared bump target c is removed from the upper row
    t = NTableau(((1, 3, 4), (3, 4)))
    assert left_insert(2, t) == NTableau(((1, 2, 3, 4), (2, 4)))
    assert left_insert(2, t) == n_tableau((2,) + t.row_word())


def test_left_insert_into_empty():
    assert left_insert(3, NTableau(())) == NTableau(((3,),))


def test_left_insert_matches_reinsertion_of_the_row_word():
    # Reinsertion is the oracle for left insertion, on every N-tableau at
    # n <= 5; the graded suite checks left insertion on the Cayley graph.
    for n in range(1, 6):
        alphabet = Alphabet(n)
        for e in enumerate_styl(alphabet).elements:
            for x in alphabet.letters:
                assert left_insert(x, e.tableau) == n_tableau((x,) + e.tableau.row_word())


def test_graded_names_the_first_wrong_left_insertion(monkeypatch, capsys):
    monoid = enumerate_styl(Alphabet(3))
    element = monoid.elements[5]

    def broken(x, tableau):
        wrong = x == 2 and tableau == element.tableau
        return EMPTY_NTABLEAU if wrong else left_insert(x, tableau)

    monkeypatch.setattr(verify, "left_insert", broken)
    result = verify.verify_graded(monoid)
    failed = [line for line in result.lines if line.startswith("FAIL ")]
    assert failed == result.lines[:1]
    assert failed[0].startswith("FAIL n=3: left insertion follows all 45 left Cayley edges")
    assert failed[0].endswith(
        f" (first counterexample: left insertion of b into {element.render_word()!r})"
    )
    assert main(["verify", "graded", "-n", "3"]) == 1
    assert "[graded] FAIL" in capsys.readouterr().out


def n_tableau_refuses_a_row_word_with_c(monkeypatch):
    def refusing(w):
        if 3 in w:
            raise ValueError("broken n_tableau")
        return n_tableau(w)

    monkeypatch.setattr(verify, "n_tableau", refusing)


def from_partition_refuses_a_partition_of_c(monkeypatch):
    def refusing(partition):
        if 3 in partition.ground():
            raise ValueError("broken from_partition")
        return from_partition(partition)

    monkeypatch.setattr(verify, "from_partition", refusing)


def from_partition_drops_c(monkeypatch):
    def dropping(partition):
        return EMPTY_NTABLEAU if 3 in partition.ground() else from_partition(partition)

    monkeypatch.setattr(verify, "from_partition", dropping)


def left_insert_refuses_b(monkeypatch):
    def refusing(x, tableau):
        if x == 2 and tableau.boxes() == 2:
            raise ValueError("broken left_insert")
        return left_insert(x, tableau)

    monkeypatch.setattr(verify, "left_insert", refusing)


def p_tableau_refuses_c(monkeypatch):
    def refusing(w):
        if 3 in w:
            raise ValueError("broken p_tableau")
        return p_tableau(w)

    monkeypatch.setattr(verify, "p_tableau", refusing)


def bell_number_grows_at_4(monkeypatch):
    monkeypatch.setattr(verify, "bell_number", lambda k: bell_number(k) + (k == 4))


# The five families of defining relations, told apart by the left side of
# each instance, with a < b < c.
RELATION_FAMILIES = {
    "bac=bca": lambda l, r: len(set(l)) == 3 and l[1] < l[0] < l[2],
    "acb=cab": lambda l, r: len(set(l)) == 3 and l[0] < l[2] < l[1],
    "baa=aba": lambda l, r: len(l) == 3 and len(set(l)) == 2 and l[1] == l[2],
    "bba=bab": lambda l, r: len(l) == 3 and len(set(l)) == 2 and l[0] == l[1],
    "aa=a": lambda l, r: len(l) == 2,
}


def relations_without_at_n3(family):
    """stylic_relations with one family left out at n = 3."""
    def kept(alphabet):
        relations = stylic_relations(alphabet)
        if alphabet.n != 3:
            return relations
        return [(l, r) for l, r in relations if not RELATION_FAMILIES[family](l, r)]

    return kept


def bac_equal_to_bca_dropped_at_n3(monkeypatch):
    # Only n = 3 has instances of the family and drops them: every relation
    # left still holds, and only the n = 3 descent fails.
    monkeypatch.setattr(verify, "stylic_relations", relations_without_at_n3("bac=bca"))


def separating_words_are_empty(monkeypatch):
    monkeypatch.setattr(syntactic, "column_separating_word", lambda c1, c2: ())


def no_shape_separator_with_c(monkeypatch):
    separator = syntactic._separator

    def missing(u, pu, v, pv, alphabet):
        return None if 3 in u + v else separator(u, pu, v, pv, alphabet)

    monkeypatch.setattr(syntactic, "_separator", missing)


def normalize_stops_at_c(monkeypatch):
    normalize = rewriting._normalize
    monkeypatch.setattr(
        rewriting, "_normalize", lambda word, table: word if word[0] == 4 else normalize(word, table)
    )


def idempotents_miss_the_last_at_n3(monkeypatch):
    idempotents = StylicMonoid.idempotents

    def missing(monoid):
        found = idempotents(monoid)
        return found[:-1] if monoid.alphabet.n == 3 else found

    monkeypatch.setattr(StylicMonoid, "idempotents", missing)


def idempotents_take_in_c_at_n3(monkeypatch):
    idempotents = StylicMonoid.idempotents

    def extra(monoid):
        found = idempotents(monoid)
        if monoid.alphabet.n == 3:
            found.append(monoid.class_of_word((1, 3, 2)))  # acb is not idempotent
        return found

    monkeypatch.setattr(StylicMonoid, "idempotents", extra)


def a_false_relation_at_n3(monkeypatch):
    def with_c_equal_to_ac(alphabet):
        return stylic_relations(alphabet) + ([((3,), (1, 3))] if alphabet.n == 3 else [])

    monkeypatch.setattr(verify, "stylic_relations", with_c_equal_to_ac)


def ideals_of_ab_and_ba_coincide_at_n3(monkeypatch):
    ideal_walk = StylicMonoid._ideal_walk

    def merged(monoid):
        walk = ideal_walk(monoid)
        if monoid.alphabet.n == 3:
            ab, ba = monoid.class_of_word((1, 2)), monoid.class_of_word((2, 1))
            walk.order.down_sets[ba] = walk.order.down_sets[ab]
        return walk

    monkeypatch.setattr(StylicMonoid, "_ideal_walk", merged)


# One step of a Cayley graph moved: (graph, letter, word, the word it now reaches).
ZERO_TIMES_A_IS_THE_IDENTITY = ("right_by_letter", 1, (3, 2, 1), ())
A_TIMES_B_IS_A = ("right_by_letter", 2, (1,), (1,))


def corrupt(monoid, side, x, word, target):
    graph = getattr(monoid, side)
    graph[x][monoid.class_of_word(word)] = monoid.class_of_word(target)


def corrupt_steps_at_n3(monkeypatch, *steps):
    # `styl verify` builds the monoid with these steps of its Cayley graphs moved.
    build = verify.enumerate_styl

    def corrupted(alphabet):
        monoid = build(alphabet)
        if alphabet.n == 3:
            for step in steps:
                corrupt(monoid, *step)
        return monoid

    monkeypatch.setattr(verify, "enumerate_styl", corrupted)


def the_zero_times_a_is_the_identity_at_n3(monkeypatch):
    corrupt_steps_at_n3(monkeypatch, ZERO_TIMES_A_IS_THE_IDENTITY)


def a_times_b_is_a_at_n3(monkeypatch):
    corrupt_steps_at_n3(monkeypatch, A_TIMES_B_IS_A)


def every_tableau_counts_one_box_more(monkeypatch):
    # Every step still adds boxes, one per cover; only the ends move.
    boxes = NTableau.boxes
    monkeypatch.setattr(NTableau, "boxes", lambda tableau: boxes(tableau) + 1)


def congruence_merges_ab_and_ba_at_n3(monkeypatch):
    congruence = syntactic.syntactic_congruence

    def merged(monoid, stat):
        classes = congruence(monoid, stat)
        if monoid.alphabet.n == 3:
            ab, ba = monoid.class_of_word((1, 2)), monoid.class_of_word((2, 1))
            classes[ba] = classes[ab]
        return classes

    monkeypatch.setattr(syntactic, "syntactic_congruence", merged)


def tableaux_of_ac_and_bc_compare_equal(monkeypatch):
    # Only equality and hashing merge the two: the masks, which the
    # N-insertion line compares, stay apart.
    alias = {n_tableau((2, 3))._masks: n_tableau((1, 3))._masks}

    def key(tableau):
        return alias.get(tableau._masks, tableau._masks)

    monkeypatch.setattr(NTableau, "__eq__", lambda t, u: isinstance(u, NTableau) and key(t) == key(u))
    monkeypatch.setattr(NTableau, "__hash__", lambda t: hash(key(t)))


def ab_times_b_is_ac_at_n3(monkeypatch):
    corrupt_steps_at_n3(monkeypatch, ("right_by_letter", 2, (1, 2), (1, 3)))


# One row per way to break a kernel: the suite and the index of the one line
# it turns to FAIL at n = 3, and the counterexample that line names.
WRONG_KERNELS = [
    (
        "bijection", 14, n_tableau_refuses_a_row_word_with_c,
        "the row word of 'c': broken n_tableau",
    ),
    ("bijection", 12, bell_number_grows_at_4, "|Styl(A)| = 15"),
    ("bijection", 13, tableaux_of_ac_and_bc_compare_equal, "'ac' and 'bc' share a tableau"),
    ("bijection", 15, ab_times_b_is_ac_at_n3, "N-insertion along 'ab'.b"),
    ("bijection", 16, from_partition_refuses_a_partition_of_c, "c: broken from_partition"),
    ("bijection", 16, from_partition_drops_c, "no partition gives the tableau of 'c'"),
    (
        "bijection", 17, idempotents_miss_the_last_at_n3,
        "'cba', the class of a strictly decreasing word, is not idempotent",
    ),
    (
        "bijection", 17, idempotents_take_in_c_at_n3,
        "'acb' is idempotent, but no strictly decreasing word's class",
    ),
    ("presentation", 4, a_false_relation_at_n3, "'c' = 'ac'"),
    ("presentation", 5, bac_equal_to_bca_dropped_at_n3, "'bca' -> 'bac'"),
    ("graded", 0, left_insert_refuses_b, "left insertion of b into 'ab': broken left_insert"),
    (
        "graded", 1, the_zero_times_a_is_the_identity_at_n3,
        "a on the right takes 'cba' to '1', 6 -> 0 boxes",
    ),
    ("graded", 2, a_times_b_is_a_at_n3, "'ba' covers 'a' with 2 boxes more"),
    ("graded", 2, every_tableau_counts_one_box_more, "co-ranks run from 1 to 7, expected 0 to 6"),
    ("graded", 3, ideals_of_ab_and_ba_coincide_at_n3, "'ab' and 'ba' share a down-set"),
    (
        "syntactic", 0, separating_words_are_empty,
        "context '' fails to separate 'a' and 'b'",
    ),
    ("syntactic", 1, congruence_merges_ab_and_ba_at_n3, "'ab' and 'ba' share a class"),
    ("syntactic", 2, no_shape_separator_with_c, "no separator found for '' vs 'c'"),
    ("confluence", 0, normalize_stops_at_c, "non-joinable peak (c)(a)(ba)"),
    ("confluence", 1, p_tableau_refuses_c, "(a)(c): broken p_tableau"),
]
WRONG_KERNEL_IDS = [
    "row-word", "bijection-count", "distinct-tableaux", "class-function",
    "from-partition-refuses", "from-partition-misses",
    "idempotents-missed", "idempotents-extra", "relations", "presentation-descent",
    "left-insertion", "antisymmetric", "graded", "co-ranks", "distinct-ideals",
    "left-classes", "two-sided-congruence", "plactic-separators", "confluence-scan",
    "normal-forms",
]


@pytest.mark.parametrize("suite, line, mutate, counterexample", WRONG_KERNELS, ids=WRONG_KERNEL_IDS)
def test_a_wrong_kernel_fails_its_line_and_names_the_counterexample(
    monkeypatch, capsys, suite, line, mutate, counterexample
):
    mutate(monkeypatch)
    (result,) = verify.run_suite(suite, 3)
    failed = [i for i, text in enumerate(result.lines) if text.startswith("FAIL ")]
    assert failed == [line]
    assert result.lines[line].endswith(f" (first counterexample: {counterexample})")
    assert main(["verify", suite, "-n", "3"]) == 1
    out, err = capsys.readouterr()
    assert f"[{suite}] FAIL" in out and err == ""


def check_kind(line):
    """A check line without its verdict, alphabet sizes and counts: the
    lines that one check prints for each n read alike."""
    return re.sub(r"\d+", "#", line[5:])


def test_every_suite_line_has_a_forced_fail_row():
    # The rows of the table above and of the evacuation table, against the
    # lines of a passing run at n = 3, where every suite prints every line.
    from test_evacuation import EVACUATION_BREAKS

    lines = {result.name: result.lines for result in verify.run_suite("all", 3)}
    rows = [(suite, line) for suite, line, _, _ in WRONG_KERNELS]
    rows += [("evacuation", line) for line, _ in EVACUATION_BREAKS]
    covered = {(suite, check_kind(lines[suite][line])) for suite, line in rows}
    missing = [
        (suite, text)
        for suite, texts in lines.items()
        for text in texts
        if (suite, check_kind(text)) not in covered
    ]
    assert missing == []


@pytest.mark.parametrize(
    "family, rule",
    [
        ("bac=bca", "'bca' -> 'bac'"),
        ("acb=cab", "'cab' -> 'acb'"),
        ("baa=aba", "'aba' -> 'ba'"),
        ("bba=bab", "'bab' -> 'ba'"),
        ("aa=a", "'aa' -> 'a'"),
    ],
)
def test_each_relation_family_is_needed_by_the_descent(monkeypatch, family, rule):
    # Without any one family the relations left still hold, and the n = 3
    # descent names the first rule it cannot derive.
    monkeypatch.setattr(verify, "stylic_relations", relations_without_at_n3(family))
    result = verify.verify_presentation([enumerate_styl(Alphabet(3))])
    assert [line[:5] for line in result.lines] == ["PASS ", "FAIL "]
    assert result.lines[1].startswith("FAIL n=3: the relations derive all 31 Froidure-Pin rules")
    assert result.lines[1].endswith(f" (first counterexample: {rule})")


@pytest.mark.parametrize("n, longest", enumerate([1, 2, 2, 4, 6, 6, 22], start=1))
def test_the_descent_has_one_rule_per_edge_off_the_bfs_tree(n, longest):
    # Each element but the identity is reached by one edge of the BFS tree.
    monoid = enumerate_styl(Alphabet(n))
    rules = len(monoid) * n - (len(monoid) - 1)
    assert verify.presentation_counterexample(monoid, stylic_relations(monoid.alphabet)) == (
        rules, longest, None
    )


@pytest.mark.parametrize("n", range(1, 5))
def test_each_bfs_word_is_the_shortlex_least_word_of_its_class(n):
    monoid = enumerate_styl(Alphabet(n))
    longest = max(len(e.word) for e in monoid.elements)
    least = {}
    for w in sorted(syntactic.all_words(monoid.alphabet, longest), key=lambda w: (len(w), w)):
        least.setdefault(monoid.class_of_word(w), w)
    assert least == {e.index: e.word for e in monoid.elements}


@pytest.mark.parametrize("n", range(1, 8))
def test_the_bfs_words_are_closed_under_prefixes(n):
    # Each word is its parent's and one letter, and the right Cayley graph
    # takes the parent there by that letter.
    monoid = enumerate_styl(Alphabet(n))
    words = {e.word for e in monoid.elements}
    assert all(e.word[:i] in words for e in monoid.elements for i in range(len(e.word)))
    for e in monoid.elements[1:]:
        assert e.word == monoid.elements[e.parent].word + (e.via_letter,)
        assert monoid.right_by_letter[e.via_letter][e.parent] == e.index


def test_a_flat_step_and_a_thick_cover_fail_their_own_lines(monkeypatch):
    # Both faults in one monoid: each order line names its own, and with no
    # order to read, the distinct-ideals line is left out.
    corrupt_steps_at_n3(monkeypatch, ZERO_TIMES_A_IS_THE_IDENTITY, A_TIMES_B_IS_A)
    (result,) = verify.run_suite("graded", 3)
    assert [line[:5] for line in result.lines] == ["PASS ", "FAIL ", "FAIL "]
    assert result.lines[1].endswith(
        " (first counterexample: a on the right takes 'cba' to '1', 6 -> 0 boxes)"
    )
    assert result.lines[2].endswith(" (first counterexample: 'ba' covers 'a' with 2 boxes more)")


@pytest.mark.parametrize(
    "mutate, line",
    [
        (lambda patch: corrupt_steps_at_n3(patch, ZERO_TIMES_A_IS_THE_IDENTITY), 1),
        (lambda patch: corrupt_steps_at_n3(patch, A_TIMES_B_IS_A), 2),
        (
            lambda patch: corrupt_steps_at_n3(patch, ZERO_TIMES_A_IS_THE_IDENTITY, A_TIMES_B_IS_A),
            1,
        ),
        (every_tableau_counts_one_box_more, 2),
    ],
    ids=["flat", "thick", "flat-first", "co-ranks"],
)
def test_j_order_raises_the_walks_first_fault(monkeypatch, mutate, line):
    # j_order raises the counterexample of the first failing order line of
    # `verify graded`, word for word.
    mutate(monkeypatch)
    (result,) = verify.run_suite("graded", 3)
    failed = [i for i, text in enumerate(result.lines) if text.startswith("FAIL ")]
    assert failed[0] == line
    with pytest.raises(ValueError) as raised:
        verify.enumerate_styl(Alphabet(3)).j_order()
    assert result.lines[line].endswith(f" (first counterexample: {raised.value})")


def test_j_order_raises_on_co_ranks_that_miss_the_height(monkeypatch):
    every_tableau_counts_one_box_more(monkeypatch)
    with pytest.raises(ValueError, match=r"^co-ranks run from 1 to 7, expected 0 to 6$"):
        enumerate_styl(Alphabet(3)).j_order()


def test_the_distinct_tableaux_line_names_two_elements_that_share_one(monkeypatch, capsys):
    build = verify.enumerate_styl

    def sharing(alphabet):
        # The class of bc takes the tableau of ac; `styl verify` builds it so.
        monoid = build(alphabet)
        if alphabet.n == 3:
            ac, bc = monoid.class_of_word((1, 3)), monoid.class_of_word((2, 3))
            tableau = monoid.elements[ac].tableau
            monoid.elements[bc] = dataclasses.replace(monoid.elements[bc], tableau=tableau)
        return monoid

    monkeypatch.setattr(verify, "enumerate_styl", sharing)
    (result,) = verify.run_suite("bijection", 3)
    assert result.lines[13] == (
        "FAIL n=3: canonical tableaux are pairwise distinct"
        " (first counterexample: 'ac' and 'bc' share a tableau)"
    )
    assert all(line.startswith("PASS ") for line in result.lines[:13])
    assert main(["verify", "bijection", "-n", "3"]) == 1
    assert "[bijection] FAIL" in capsys.readouterr().out


def test_partition_bijection_examples():
    assert to_partition(FIVE_ROW_TABLEAU) == parse_partition("ac/b/de")
    assert to_partition(EMPTY_NTABLEAU) == SetPartition(())
    assert from_partition(SetPartition(())) == EMPTY_NTABLEAU
    assert to_partition(NTableau(((1, 2),))) == parse_partition("ab")
    assert from_partition(parse_partition("ab")) == NTableau(((1, 2),))


def test_partition_bijection_is_inverse():
    for alphabet in (Alphabet(3), Alphabet(4)):
        for r in all_partitions_of_subsets(alphabet):
            assert to_partition(from_partition(r)) == r
    for w in words_up_to(3, 5):
        t = n_tableau(w)
        assert from_partition(to_partition(t)) == t


def test_pi_examples():
    assert pi(parse_word("cabd")) == parse_partition("abd/c")
    assert pi(()) == SetPartition(())
    assert pi(FIVE_ROW_TABLEAU.row_word()) == parse_partition("ac/b/de")


def test_partition_text_and_validation():
    assert parse_partition("13/28/457/6").render(digits=True) == "13/28/457/6"
    assert parse_partition("ac/b/de").render() == "ac/b/de"
    assert parse_partition("b/ac").blocks == ((1, 3), (2,))  # reordered by minima
    with pytest.raises(ValueError):
        SetPartition(((1, 2), (2, 3)))


def test_parse_partition_numbers_and_letters():
    assert parse_partition("1.10/2").blocks == ((1, 10), (2,))
    assert parse_partition(" ab / c ").blocks == ((1, 2), (3,))
    assert parse_partition("(empty)") == SetPartition(())


@pytest.mark.parametrize("text", ["AB", "1.2/x", "a1", "a.b", "1..2", "0", "1.-2", "a$"])
def test_parse_partition_rejects_non_letters(text):
    with pytest.raises(ValueError, match="is not a letter"):
        parse_partition(text)


def parse_partition_by_pieces(text):
    """The partition reader with its own letter rules, which `parse_partition`
    replaced by one check for mixed letters and digits and `parse_word` on
    each block: digits anywhere make every block numeric."""
    text = text.strip()
    if not text or text == "(empty)":
        return SetPartition(())
    numeric = any(ch.isdigit() for ch in text)
    blocks = []
    for token in text.split("/"):
        token = token.strip()
        if not token:
            raise ValueError("empty partition block")
        pieces = token.split(".") if numeric and "." in token else list(token)
        for piece in pieces:
            if numeric:
                valid = piece.isascii() and piece.isdigit() and int(piece) > 0
            else:
                valid = "a" <= piece <= "z"
            if not valid:
                raise ValueError(f"{piece!r} in partition block {token!r} is not a letter")
        blocks.append(tuple(int(p) if numeric else ord(p) - ord("a") + 1 for p in pieces))
    return SetPartition(tuple(blocks))


def read_partition(parse, text):
    try:
        return parse(text)
    except ValueError:
        return None


def test_parse_partition_matches_the_piecewise_reader():
    # 111,111 strings: every text of length <= 5 over ten characters that
    # mix letters, digits, zero, dots, slashes, a blank and an upper case.
    chars = "ab19./ 0xA"
    for length in range(6):
        for chars_of in product(chars, repeat=length):
            text = "".join(chars_of)
            expected = read_partition(parse_partition_by_pieces, text)
            assert read_partition(parse_partition, text) == expected, text


def test_enumerate_small_sizes():
    assert len(enumerate_styl(Alphabet(1))) == 2
    assert len(enumerate_styl(Alphabet(2))) == 5
    assert len(enumerate_styl(Alphabet(3))) == 15


def test_enumeration_limit():
    with pytest.raises(ValueError, match="limited to alphabets of size 7"):
        enumerate_styl(Alphabet(8))


def test_every_column_mask_fits_in_a_byte():
    # The closure translates bytes through a 256-byte table indexed by
    # column masks; an alphabet of 9 letters or more would not fit.
    assert 1 << ENUMERATION_CEILING <= 256


@pytest.mark.parametrize("n", range(1, 7))
def test_closure_transforms_are_the_column_action(n):
    # Entry m of each transform against the element's word acting on the
    # column m directly, with no closure involved.
    monoid = enumerate_styl(Alphabet(n))
    for e in monoid.elements:
        expected = bytes(mask_of(act_word(e.word, letters_of(m))) for m in range(1 << n))
        assert e.transform == expected, e.word
    assert len({e.transform for e in monoid.elements}) == len(monoid)


def test_multiplication():
    a4 = Alphabet(4)
    monoid = enumerate_styl(a4)
    cabd = monoid.class_of_word(parse_word("cabd"))
    cdab = monoid.class_of_word(parse_word("cdab"))
    assert cabd == cdab
    for i in range(len(monoid)):
        assert monoid.multiply(monoid.identity, i) == i
        assert monoid.multiply(i, monoid.identity) == i
        assert monoid.multiply(monoid.zero, i) == monoid.zero
        assert monoid.multiply(i, monoid.zero) == monoid.zero


def test_multiplication_matches_word_concatenation():
    a3 = Alphabet(3)
    monoid = enumerate_styl(a3)
    words = list(words_up_to(3, 3))
    for u in words:
        for v in words:
            assert monoid.multiply(
                monoid.class_of_word(u), monoid.class_of_word(v)
            ) == monoid.class_of_word(u + v)


def test_zero_element():
    assert zero_tableau(Alphabet(1)) == NTableau(((1,),))
    z4 = zero_tableau(Alphabet(4))
    assert z4.boxes() == 10
    assert z4 == n_tableau(parse_word("dcba"))


def test_idempotents():
    a2 = Alphabet(2)
    monoid = enumerate_styl(a2)
    idem = monoid.idempotents()
    assert len(idem) == 4
    assert monoid.identity in idem
    assert monoid.class_of_word(parse_word("ba")) in idem
    assert monoid.class_of_word(parse_word("ab")) not in idem
    expected = {monoid.class_of_word(decreasing_word(s)) for s in a2.subsets()}
    assert set(idem) == expected


def test_j_order_small():
    monoid = enumerate_styl(Alphabet(3))
    order = monoid.j_order()
    assert len(monoid) == 15
    assert order.coranks[monoid.identity] == 0
    assert order.coranks[monoid.zero] == 6 == order.height
    assert len(set(order.down_sets)) == len(monoid)
    # every element sits between zero and the identity
    for i in range(len(monoid)):
        assert order.leq(monoid.zero, i)
        assert order.leq(i, monoid.identity)
    ranks = order.by_corank()
    assert len(ranks) == order.height + 1
    assert sorted(i for rank in ranks for i in rank) == list(range(len(monoid)))
    for corank, rank in enumerate(ranks):
        assert rank == [i for i in range(len(monoid)) if order.coranks[i] == corank]


def j_order_oracle(monoid):
    """Down-sets by one search per element over both Cayley graphs, covers
    as the elements below v that lie below nothing else below v."""
    down = []
    for v in range(len(monoid)):
        seen = {v}
        stack = [v]
        while stack:
            m = stack.pop()
            for x in monoid.alphabet.letters:
                for nb in (monoid.left_by_letter[x][m], monoid.right_by_letter[x][m]):
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
        down.append(frozenset(seen))
    hasse = set()
    for v in range(len(monoid)):
        strict = down[v] - {v}
        dominated = set()
        for w in strict:
            dominated |= down[w] - {w}
        hasse |= {(u, v) for u in strict - dominated}
    return down, hasse


@pytest.mark.parametrize("n", range(1, 6))
def test_j_order_matches_search_oracle(n):
    monoid = enumerate_styl(Alphabet(n))
    order = monoid.j_order()
    down, hasse = j_order_oracle(monoid)
    members = [frozenset(u for u in range(len(monoid)) if order.leq(u, v)) for v in range(len(monoid))]
    assert members == down
    assert [len(d) for d in order.down_sets] == [len(d) for d in down]
    assert set(order.hasse_edges) == hasse
    assert len(order.hasse_edges) == len(hasse)
    assert order.hasse_edges == sorted(order.hasse_edges, key=lambda edge: (edge[1], edge[0]))
    assert order.coranks == [e.tableau.boxes() for e in monoid.elements]
    assert order.height == n * (n + 1) // 2


def composer(monoid):
    """(i, j) -> index of element_i * element_j, from the transforms: a word
    acts on a column by its last letter first, so t_uv = t_u o t_v."""
    index = {e.transform: e.index for e in monoid.elements}

    def compose(i, j):
        ti, tj = monoid.elements[i].transform, monoid.elements[j].transform
        return index[bytes(ti[m] for m in tj)]

    return compose


@pytest.mark.parametrize("n", range(1, 6))
def test_cayley_graphs_match_composed_transforms(n):
    monoid = enumerate_styl(Alphabet(n))
    compose = composer(monoid)
    for x in monoid.alphabet.letters:
        gen = monoid.class_of_word((x,))
        assert monoid.right_by_letter[x] == [compose(i, gen) for i in range(len(monoid))]
        assert monoid.left_by_letter[x] == [compose(gen, i) for i in range(len(monoid))]


@pytest.mark.parametrize("n", range(1, 5))
def test_multiplication_table_matches_composed_transforms(n):
    monoid = enumerate_styl(Alphabet(n))
    size = len(monoid)
    compose = composer(monoid)
    table = monoid.multiplication_table()
    assert all(type(row) is tuple and len(row) == size for row in table)
    assert table == [tuple(compose(i, j) for j in range(size)) for i in range(size)]
    assert all(monoid.multiply(i, j) == compose(i, j) for i in range(size) for j in range(size))


@pytest.mark.parametrize("n", range(1, 6))
def test_idempotents_match_the_transform_oracle(n):
    monoid = enumerate_styl(Alphabet(n))
    expected = []
    for e in monoid.elements:
        t = e.transform
        if all(t[t[m]] == t[m] for m in range(1 << n)):
            expected.append(e.index)
    assert monoid.idempotents() == expected


def test_one_product_allocates_no_table():
    monoid = enumerate_styl(Alphabet(6))
    tracemalloc.start()
    try:
        monoid.multiply(3, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize(
    "fewer, fault",
    [
        (True, "b on the right takes 'a' to '1', 1 -> 0 boxes"),
        (False, "b on the right takes 'a' to 'b', 1 -> 1 boxes"),
    ],
    ids=["True", "False"],
)
def test_j_order_rejects_a_step_that_does_not_add_boxes(fewer, fault):
    # Point one right-multiplication edge at the identity (fewer boxes), or
    # at another element with as many boxes.
    monoid = enumerate_styl(Alphabet(3))
    boxes = [e.tableau.boxes() for e in monoid.elements]
    v = next(i for i in range(len(monoid)) if boxes[i] > 0)
    target = monoid.identity if fewer else next(
        i for i in range(len(monoid)) if i != v and boxes[i] == boxes[v]
    )
    monoid.right_by_letter[2][v] = target
    with pytest.raises(ValueError) as raised:
        monoid.j_order()
    assert str(raised.value) == fault


def test_word_equals_reinserted_row_word():
    a3 = Alphabet(3)
    monoid = enumerate_styl(a3)
    for w in words_up_to(3, 5):
        assert monoid.class_of_word(w) == monoid.class_of_word(n_tableau(w).row_word())


def test_both_tableaux_share_their_first_column():
    for w in words_up_to(3, 6):
        first = act_word(w, frozenset())
        assert n_tableau(w).first_column() == first
        assert p_tableau(w).first_column() == first


def test_knuth_classes_refine_stylic_classes():
    a3 = Alphabet(3)
    monoid = enumerate_styl(a3)
    by_tableau = {}
    for w in words_up_to(3, 5):
        by_tableau.setdefault(p_tableau(w), set()).add(monoid.class_of_word(w))
    assert all(len(classes) == 1 for classes in by_tableau.values())


def test_support_is_a_class_invariant():
    a3 = Alphabet(3)
    monoid = enumerate_styl(a3)
    seen = {}
    for w in words_up_to(3, 5):
        i = monoid.class_of_word(w)
        assert seen.setdefault(i, support(w)) == support(w)


def test_small_letter_absorption():
    # a letter below everything in u satisfies (a u a) = (u a) in the monoid
    rng = random.Random(4)
    a4 = Alphabet(4)
    monoid = enumerate_styl(a4)
    for _ in range(200):
        a = rng.randint(1, 4)
        u = tuple(rng.randint(a, 4) for _ in range(rng.randint(0, 5)))
        assert monoid.class_of_word((a,) + u + (a,)) == monoid.class_of_word(u + (a,))


def test_inflation_simulates_n_algorithm(inflate, canonical_inflation_exponents):
    for n in (2, 3):
        for w in words_up_to(n, 5):
            if not w:
                continue
            inflated = inflate(w, canonical_inflation_exponents(len(w)))
            nt = n_tableau(w)
            pt = p_tableau(inflated)
            assert len(nt.rows) == len(pt.rows)
            for nrow, prow in zip(nt.rows, pt.rows):
                assert frozenset(nrow) == frozenset(prow)


def test_delta_of_decreasing_row_words():
    # bumped letters of x u_k ... u_1, for nested increasing rows, reduce to
    # the images of each row in the next one up
    rng = random.Random(8)
    a5 = Alphabet(5)
    monoid = enumerate_styl(a5)
    for _ in range(150):
        sets: list[frozenset] = []
        current = frozenset(x for x in a5.letters if rng.random() < 0.7)
        while current:
            sets.append(current)
            current = frozenset(x for x in current if rng.random() < 0.5)
        if not sets:
            continue
        k = len(sets)
        x = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 3)))
        xs = support(x)
        # the word x u_k ... u_1, supports nested downward from sets[0]
        word = x + tuple(
            letter for i in range(k - 1, -1, -1) for letter in sorted(sets[i])
        )
        rhs = delta_word(x)
        for i in range(k - 1, -1, -1):
            target = (sets[i + 1] if i + 1 < k else frozenset()) | xs
            rhs = rhs + tuple(sorted(d_operator(target, sets[i])))
        assert monoid.class_of_word(delta_word(word)) == monoid.class_of_word(rhs)


def test_shape_monotone_under_insertions():
    a3 = Alphabet(3)
    monoid = enumerate_styl(a3)
    for e in monoid.elements:
        for x in a3.letters:
            for s in (n_insert(e.tableau, x), left_insert(x, e.tableau)):
                if s != e.tableau:
                    assert young_leq(e.tableau.shape(), s.shape())
                    assert e.tableau.shape() != s.shape()


def test_theta_compatibility():
    a3 = Alphabet(3)
    for w in words_up_to(3, 5):
        assert n_tableau(theta(w, a3)) == theta_tableau(n_tableau(w), a3)
    monoid = enumerate_styl(a3)
    for e in monoid.elements:
        for x in a3.letters:
            left = theta_tableau(left_insert(x, e.tableau), a3)
            right = n_insert(theta_tableau(e.tableau, a3), a3.theta_letter(x))
            assert left == right


def test_subalphabet_embedding():
    big = Alphabet(4)
    monoid = enumerate_styl(big)
    small_monoid = enumerate_styl(Alphabet(2))
    for u in words_up_to(2, 4):
        for v in words_up_to(2, 3):
            small_equal = small_monoid.class_of_word(u) == small_monoid.class_of_word(v)
            big_equal = monoid.class_of_word(u) == monoid.class_of_word(v)
            assert small_equal == big_equal


def test_complete_elements(gamma_minus):
    for n in (1, 2, 3, 4):
        assert complete_elements_bijection_check(Alphabet(n), gamma_minus)


def test_complete_element_worked_example(gamma_minus):
    a4 = Alphabet(4)
    w = parse_word("acbd")
    assert delta_word(w) == (3,)
    u = shift_down_word(delta_word(w))
    assert u == (2,)
    gamma = frozenset({1})
    assert act_word(w, gamma) == frozenset({3, 2, 1})
    assert act_word(u, gamma) == frozenset({2, 1})
    assert act_word(u, gamma) == gamma_minus(act_word(w, gamma), a4)


def write_json_text(monoid):
    out = io.StringIO()
    monoid.write_json(out)
    return out.getvalue()


def element_json(e, idem):
    """One element record as a dict, each field derived from the element
    alone: the oracle of the text `write_json` builds from per-mask pieces."""
    return {
        "index": e.index,
        "word": e.render_word(),
        "support": "".join(render_letter(x) for x in sorted(e.tableau.supp())),
        "rows": e.tableau.to_json()["rows"],
        "corank": e.tableau.boxes(),
        "idempotent": e.index in idem,
    }


@pytest.mark.parametrize("n", range(1, 7))
def test_write_json_matches_json_dumps(n):
    monoid = enumerate_styl(Alphabet(n))
    text = write_json_text(monoid)
    idem = set(monoid.idempotents())
    expected = {
        "n": n,
        "size": len(monoid),
        "identity": monoid.identity,
        "zero": monoid.zero,
        "elements": [element_json(e, idem) for e in monoid.elements],
        "table": monoid.multiplication_table(),
    }
    assert text == json.dumps(expected)
    assert monoid.to_json() == json.loads(text)


@pytest.mark.parametrize("n", range(1, 6))
def test_the_exported_table_is_the_multiplication_table(n):
    monoid = enumerate_styl(Alphabet(n))
    table = json.loads(write_json_text(monoid))["table"]
    compose = composer(monoid)
    size = len(monoid)
    assert len(table) == size  # two rows at n = 1
    assert table == [list(row) for row in monoid.multiplication_table()]
    assert table == [[compose(i, j) for j in range(size)] for i in range(size)]


@pytest.mark.parametrize("n", range(1, ENUMERATION_CEILING + 1))
def test_no_left_step_reaches_the_identity(n):
    # The export leaves column 0 out of every gather on this fact.
    monoid = enumerate_styl(Alphabet(n))
    assert all(monoid.identity not in step for step in monoid.left_by_letter.values())


@pytest.mark.parametrize("n", (1, 3))
def test_a_left_step_to_the_identity_stops_the_export_before_its_table(n):
    monoid = enumerate_styl(Alphabet(n))
    monoid.left_by_letter[1][monoid.zero] = monoid.identity
    out = io.StringIO()
    with pytest.raises(ValueError, match="left multiplication by a reaches the identity"):
        monoid.write_json(out)
    assert '"table"' not in out.getvalue()
    with pytest.raises(ValueError, match="reaches the identity"):
        monoid.multiplication_table()


class NullWriter:
    def write(self, text: str) -> None:
        pass


def test_write_json_holds_little_beyond_the_monoid():
    # Holding the element dicts and the BFS frontier of rows took 1.99 MB.
    monoid = enumerate_styl(Alphabet(6))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        monoid.write_json(NullWriter())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 1.2e6


# Runs a command and prints its exit code and peak RSS as wait4 reports
# them.  A fresh interpreter keeps the high-water mark that the command
# inherits small, where pytest's own could be large.
WAIT4_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_streamed_n7_json_stays_small():
    # Holding the 4140 x 4140 table and its 103 MB of text took about 375 MB;
    # holding the element list, the BFS frontier of rows and tuple
    # transforms took about 46 MB.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    command = [sys.executable, "-m", "stylic.cli", "enumerate", "monoid", "-n", "7", "--force", "--json"]
    out = subprocess.run(
        [sys.executable, "-c", WAIT4_LAUNCHER, *command],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    code, peak = map(int, out.split())
    assert code == 0
    peak_bytes = peak * (1 if sys.platform == "darwin" else 1024)
    assert peak_bytes < 40e6


def test_monoid_json_export():
    monoid = enumerate_styl(Alphabet(2))
    data = monoid.to_json()
    assert data["size"] == 5
    assert len(data["table"]) == 5
    words = [e["word"] for e in data["elements"]]
    assert "1" in words  # the identity renders as 1
    dot = monoid.jorder_dot()
    assert dot.startswith("digraph") and dot.count("->") == len(monoid.j_order().hasse_edges)
