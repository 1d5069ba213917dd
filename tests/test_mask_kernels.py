"""Differential tests: the bitmask kernels against the oracles they replaced,
on random words, partitions and column words over alphabets larger than the
exhaustive tests reach."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from stylic.columns import act_word
from stylic.core import Alphabet
from stylic.evacuation import (
    _check_row_arrows,
    build_pyramid,
    completion_row,
    delta_direct,
    delta_jdt,
    evac,
    evac_from_right_side,
    evac_via_pyramid,
    jdt,
    pyramid_by_completion,
)
from stylic.monoid import SetPartition, left_insert, n_tableau, pi, to_partition
from stylic.rewriting import (
    PairTable,
    _masks,
    normalize_column_word,
    tableau_column_word,
)
from stylic.tableaux import p_tableau
from stylic.verify import _delta_steps, random_labelled_skew

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def words(draw):
    """A word of up to 40 letters over 8 <= n <= 12, drawn as runs of a
    repeated letter: the a.a = a skip of N-insertion and deep rows both
    come up."""
    n = draw(st.integers(8, 12))
    runs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, 4)), max_size=40))
    return n, tuple(x for x, repeat in runs for _ in range(repeat))[:40]


@st.composite
def partitions(draw, top=12):
    """A partition of a random subset of {1..n}, 8 <= n <= top: each letter
    gets a block label, 0 leaving it out."""
    n = draw(st.integers(8, top))
    labels = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    blocks: dict[int, list[int]] = {}
    for x, label in enumerate(labels, start=1):
        if label:
            blocks.setdefault(label, []).append(x)
    return n, SetPartition(tuple(tuple(b) for b in blocks.values()))


@SETTINGS
@given(words(), st.data())
def test_act_word_matches_tableau(act_word_via_tableau, case, data):
    n, w = case
    column = frozenset(data.draw(st.sets(st.integers(1, n))))
    assert act_word(w, column) == act_word_via_tableau(w, column)


@SETTINGS
@given(words())
def test_n_tableau_matches_recursive(n_tableau_recursive, case):
    _, w = case
    assert n_tableau(w) == n_tableau_recursive(w)


@SETTINGS
@given(words())
def test_p_tableau_matches_column_insertion(p_tableau_by_columns, case):
    _, w = case
    assert p_tableau(w) == p_tableau_by_columns(w)


@SETTINGS
@given(words())
def test_pi_matches_n_tableau_row_differences(n_tableau_recursive, case):
    _, w = case
    assert pi(w) == to_partition(n_tableau(w))
    rows = [set(row) for row in n_tableau_recursive(w).rows] + [set()]
    assert pi(w) == SetPartition(tuple(tuple(a - b) for a, b in zip(rows, rows[1:])))


@SETTINGS
@given(st.integers(8, 12), st.integers(0, 2**32 - 1), st.sampled_from(["first", "last"]))
def test_jdt_matches_a_walk_of_downward_moves(jdt_by_moves, n, seed, strategy):
    skew = random_labelled_skew(random.Random(seed), n)
    assert jdt(skew, strategy) == jdt_by_moves(skew, strategy)


@SETTINGS
@given(words(), st.data())
def test_left_insert_matches_reinsertion(case, data):
    n, w = case
    x = data.draw(st.integers(1, n))
    t = n_tableau(w)
    assert left_insert(x, t) == n_tableau((x,) + t.row_word())


@SETTINGS
@given(partitions())
def test_delta_direct_matches_jdt(case):
    _, r = case
    if r.blocks:
        assert delta_direct(r) == delta_jdt(r)


@SETTINGS
@given(partitions())
def test_evac_matches_pyramid_and_is_involution(case):
    n, r = case
    alphabet = Alphabet(n)
    image = evac(r, alphabet)
    assert image == evac_via_pyramid(r, alphabet)
    assert evac(image, alphabet) == r


@SETTINGS
@given(partitions(top=10))
def test_the_induction_along_delta_rebuilds_the_whole_pyramid(case):
    # The delta orbit of r is closed under delta: its steps, read from r
    # down, are the rows of r's pyramid, each completing to the next.
    n, r = case
    orbit = [r]
    while orbit[-1].block_count():
        orbit.append(delta_direct(orbit[-1]))
    steps = list(_delta_steps(reversed(orbit), delta_direct))[::-1]
    assert [step[0] for step in steps] == orbit[:-1]
    if not steps:
        return
    pyramid = build_pyramid(r)
    assert tuple(chain for _, chain, _, _ in steps) + (((),),) == pyramid.chains
    assert pyramid_by_completion(r).chains == pyramid.chains
    for _, chain, lower, _ in steps:
        _check_row_arrows(chain, lower, 0)
        assert completion_row(chain) == lower
    right = steps[0][3]
    assert right == tuple(pyramid.right_side())
    assert evac_from_right_side(right, r, Alphabet(n)) == evac(r, Alphabet(n))


@SETTINGS
@given(st.integers(5, 8), st.data())
def test_column_rewriting_matches_tableau_columns(
    flatten_column_word, all_normal_forms, three_strategy_normal_forms, n, data
):
    column = st.frozensets(st.integers(1, n), min_size=1)
    word = tuple(data.draw(st.lists(column, min_size=1, max_size=5)))
    expected = tableau_column_word(p_tableau(flatten_column_word(word)))
    assert all_normal_forms(_masks(word), PairTable()) == ({_masks(expected)}, [])
    assert normalize_column_word(word) == expected
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    assert three_strategy_normal_forms(_masks(word), rng, PairTable()) == {_masks(expected)}
