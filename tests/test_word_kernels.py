"""The one-loop word kernels and the column mask kernels: each against the
oracle it replaced and the slow oracles, exhaustively on short words,
small partitions and every pair of small columns; a guard that every
public caller goes through its one kernel, and that the suites' column
paths never leave the masks; and the message a letter below 1 gets at
each kernel's boundary."""

import sys
from itertools import product

import pytest

from stylic import columns, evacuation, monoid, rewriting, tableaux
from stylic.cli import main
from stylic.columns import (
    act_letter,
    act_masks,
    act_word,
    column_leq,
    kernel_interval,
    leq_masks,
    parse_column,
)
from stylic.core import Alphabet, letters_of, mask_of, parse_word
from stylic.evacuation import delta_direct, evac
from stylic.monoid import (
    EMPTY_NTABLEAU,
    SetPartition,
    StylicMonoid,
    all_partitions_of_subsets,
    delta_word,
    n_insert,
    n_tableau,
    parse_partition,
    pi,
    to_partition,
)
from stylic.rewriting import PairTable, column_pair_reduce, reduce_masks
from stylic.tableaux import p_tableau

LETTERS = 4
WORDS = [w for length in range(7) for w in product(range(1, LETTERS + 1), repeat=length)]
COLUMNS = [frozenset(letters_of(mask)) for mask in range(1 << LETTERS)]
PARTITIONS = [(n, r) for n in range(1, 7) for r in all_partitions_of_subsets(Alphabet(n))]


def without_repeats(w):
    """The word with each run of a repeated letter cut to one letter."""
    return tuple(x for i, x in enumerate(w) if i == 0 or x != w[i - 1])


# ---------------------------------------------------------------------------
# Exhaustive differential tests.


def test_insertion_kernels_match_the_oracles_on_every_short_word(
    p_tableau_by_columns, n_tableau_recursive
):
    for w in WORDS:
        assert p_tableau(w) == p_tableau_by_columns(w)
        t = n_tableau(w)
        assert t == n_tableau_recursive(w) == n_tableau(without_repeats(w))
        assert pi(w) == to_partition(t)
        rows = [set(row) for row in t.rows] + [set()]
        assert pi(w) == SetPartition(tuple(tuple(sorted(a - b)) for a, b in zip(rows, rows[1:])))


def test_the_column_kernel_matches_the_tableau_on_every_short_word(act_word_via_tableau):
    for w in WORDS:
        for column in COLUMNS:
            expected = act_word_via_tableau(w, column)
            assert act_word(w, column) == expected
            assert act_masks(w, mask_of(column)) == mask_of(expected)
        if w:
            assert act_letter(w[0], frozenset(w)) == act_word(w[:1], frozenset(w))


def test_the_delta_step_matches_the_copying_delta_on_every_small_partition(
    e_of_blocks, delta_by_copy, evac_by_delta_copies
):
    for n, r in PARTITIONS:
        if r.blocks:
            blocks = r.masks()
            e = e_of_blocks(blocks)
            assert evacuation._delta_step(blocks) == e
            assert blocks == delta_by_copy(r.masks(), e)
            assert delta_direct(r) == SetPartition._from_masks(blocks)
        assert evac(r, Alphabet(n)) == evac_by_delta_copies(r, Alphabet(n))


# The column actions the pair rule is compared under: the kernel, and two
# that drop letters, so that some pairs are refused.
ACTIONS = {
    "kernel": act_masks,
    "keeps nothing": lambda w, mask: 0,
    "drops a": lambda w, mask: act_masks(w, mask) & ~1,
}


@pytest.mark.parametrize("action", ACTIONS)
def test_the_column_order_and_rule_match_the_oracles_on_every_pair(
    monkeypatch, column_leq_sorted, column_pair_reduce_multiset, action
):
    # Every pair of columns over 6 letters, empty columns included.
    monkeypatch.setattr(columns, "act_masks", ACTIONS[action])
    monkeypatch.setattr(rewriting, "act_masks", ACTIONS[action])
    refused = 0
    for c1, c2 in product(range(1 << 6), repeat=2):
        f1, f2 = frozenset(letters_of(c1)), frozenset(letters_of(c2))
        assert leq_masks(c1, c2) == column_leq_sorted(f1, f2) == column_leq(f1, f2)
        expected = outcome(lambda: tuple(map(mask_of, column_pair_reduce_multiset(f1, f2))))
        assert outcome(reduce_masks, c1, c2) == expected
        refused += isinstance(expected, str)
    assert (refused > 0) == (action != "kernel")


def test_the_pair_table_matches_the_oracles(column_leq_sorted, column_pair_reduce_multiset):
    table = PairTable()
    for c1, c2 in product(range(1 << 5), repeat=2):
        f1, f2 = frozenset(letters_of(c1)), frozenset(letters_of(c2))
        rule = None
        if not column_leq_sorted(f1, f2):
            reduced, leftover = map(mask_of, column_pair_reduce_multiset(f1, f2))
            rule = (reduced, leftover) if leftover else (reduced,)
        assert table[c1, c2] == rule


def test_the_column_paths_of_the_suites_build_no_frozenset(monkeypatch, capsys):
    # The frozenset forms raise wherever a module holds them.
    def refuse(*args):
        raise AssertionError("a frozenset form was called")

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "stylic"]:
        for name in ("act_word", "column_leq", "column_pair_reduce"):
            if name in vars(module):
                monkeypatch.setattr(module, name, refuse)
    assert main(["verify", "confluence", "-n", "4"]) == 0
    assert main(["verify", "syntactic", "-n", "4"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    interval = kernel_interval(parse_word("fba"), parse_column("feba"), Alphabet(7))
    assert (interval.size, interval.maximum) == (18, parse_column("edc"))


# ---------------------------------------------------------------------------
# One kernel per operation: breaking it changes every public caller.


def outcome(f, *args):
    """The value of f on args, or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def changes(f, cases, breaks):
    """Whether f gives another outcome on some case once `breaks` has run."""
    before = [outcome(f, *args) for args in cases]
    breaks()
    return any(outcome(f, *args) != old for args, old in zip(cases, before))


SAMPLE_WORDS = [w for w in WORDS if len(w) <= 3]
SAMPLE_PARTITIONS = [(r, Alphabet(n)) for n, r in PARTITIONS if n == 4 and r.blocks]


@pytest.mark.parametrize(
    "caller, cases",
    [
        (act_word, [(w, c) for w in SAMPLE_WORDS for c in COLUMNS[:4]]),
        (act_letter, [(x, c) for x in range(1, LETTERS + 1) for c in COLUMNS]),
        (lambda n: [e.transform for e in StylicMonoid(Alphabet(n)).elements], [(2,), (3,)]),
    ],
    ids=["act_word", "act_letter", "monoid_moves"],
)
def test_every_column_action_goes_through_act_masks(monkeypatch, caller, cases):
    def union_only(w, mask):  # forgets to bump
        return mask | mask_of(w)

    def breaks():
        monkeypatch.setattr(columns, "act_masks", union_only)
        monkeypatch.setattr(monoid, "act_masks", union_only)

    assert changes(caller, cases, breaks)


@pytest.mark.parametrize(
    "caller", [lambda r, alphabet: delta_direct(r), evac], ids=["delta_direct", "evac"]
)
def test_every_delta_goes_through_the_delta_step(monkeypatch, caller):
    def minimum_only(blocks):  # never trades minima
        blocks[0] &= blocks[0] - 1
        if not blocks[0]:
            blocks.pop(0)
        return 0

    def breaks():
        monkeypatch.setattr(evacuation, "_delta_step", minimum_only)

    assert changes(caller, SAMPLE_PARTITIONS, breaks)


def test_p_tableau_goes_through_the_row_insertion(monkeypatch):
    row_insert = tableaux._row_insert

    def reversed_word(rows, w):
        row_insert(rows, w[::-1])

    def breaks():
        monkeypatch.setattr(tableaux, "_row_insert", reversed_word)

    assert changes(p_tableau, [(w,) for w in SAMPLE_WORDS], breaks)


@pytest.mark.parametrize(
    "caller, cases",
    [
        (n_tableau, [(w,) for w in SAMPLE_WORDS]),
        (n_insert, [(n_tableau(w), x) for w in SAMPLE_WORDS for x in (1, 2)]),
        (pi, [(w,) for w in SAMPLE_WORDS]),
    ],
    ids=["n_tableau", "n_insert", "pi"],
)
def test_every_n_insertion_goes_through_the_kernel(monkeypatch, caller, cases):
    n_insert_kernel = monoid._n_insert

    def shifted(rows, w):  # inserts each letter one too high
        n_insert_kernel(rows, tuple(x + 1 for x in w))

    def breaks():
        monkeypatch.setattr(monoid, "_n_insert", shifted)

    assert changes(caller, cases, breaks)


# ---------------------------------------------------------------------------
# A letter below 1 at the word kernels' boundary.

BELOW_ONE = [(0,), (2, 0, 1), (3, -1), (1, 1, -2, 0)]


@pytest.mark.parametrize(
    "kernel",
    [
        p_tableau,
        n_tableau,
        pi,
        delta_word,
        lambda w: act_word(w, frozenset()),
        lambda w: act_word((w[-1],), frozenset(w)),
        lambda w: act_letter(w[-1], frozenset(w)),
        lambda w: n_insert(EMPTY_NTABLEAU, min(w)),
        lambda w: column_pair_reduce(frozenset(w), frozenset({1})),
    ],
    ids=[
        "p_tableau",
        "n_tableau",
        "pi",
        "delta_word",
        "act_word",
        "act_word_column",
        "act_letter",
        "n_insert",
        "column_pair_reduce",
    ],
)
@pytest.mark.parametrize("w", BELOW_ONE)
def test_a_letter_below_one_is_named_at_the_boundary(kernel, w):
    with pytest.raises(ValueError) as refused:
        kernel(w)
    assert str(refused.value) == f"{min(w)} is not a letter: letters are positive integers"


def test_valid_words_pass_the_boundary_unchanged():
    w = (2, 2, 1, 3, 3, 1)
    assert p_tableau(w).rows == ((1, 1, 3, 3), (2, 2))
    assert n_tableau(w) == n_tableau((2, 1, 3, 1))
    assert pi(w) == parse_partition("13/2")
    assert act_word(w, frozenset()) == frozenset({1, 2})
