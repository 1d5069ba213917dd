import ast
import json
import operator
import random
from collections import Counter
from itertools import permutations, product, takewhile
from pathlib import Path

import pytest

from stylic import evacuation, verify
from stylic.cli import main
from stylic.core import Alphabet, letters_of, parse_word, render_word, support, theta
from stylic.evacuation import (
    SkewPartition,
    _corners,
    _cover_row,
    _slide,
    build_pyramid,
    check_composition,
    completion_row,
    delta_direct,
    delta_jdt,
    evac,
    evac_from_right_side,
    evac_via_pyramid,
    ideal_points,
    interval_middles,
    jdt,
    jdt_all_results,
    partition_chain,
    partition_from_chain,
    pyramid_by_completion,
    remove_from_partition,
    skew_from_json,
)
from stylic.monoid import (
    NTableau,
    SetPartition,
    all_partitions_of_subsets,
    all_set_partitions,
    enumerate_styl,
    n_tableau,
    parse_partition,
    pi,
)
from stylic.tableaux import young_leq
from stylic.verify import (
    all_labelled_skews,
    compositions_up_to,
    random_labelled_skew,
    theta_on_classes,
    verify_bijection,
    verify_evacuation,
)

# the running example: a skew shape with outer (4,3,3,1), inner (2,1)
SKEW_LABELS = (
    ((3, 1), 2), ((4, 1), 6), ((2, 2), 4), ((3, 2), 5),
    ((1, 3), 1), ((2, 3), 3), ((3, 3), 8), ((1, 4), 7),
)
SKEW = SkewPartition(outer=(4, 3, 3, 1), inner=(2, 1), labels=SKEW_LABELS)


def words_up_to(n, maxlen):
    for length in range(maxlen + 1):
        yield from product(range(1, n + 1), repeat=length)


def partition_to_skew(partition):
    """The partition as a skew shape with no inner ideal: block y fills row y."""
    labels = []
    for y, block in enumerate(partition.blocks, start=1):
        for x, letter in enumerate(block, start=1):
            labels.append(((x, y), letter))
    return SkewPartition(outer=partition.shape(), labels=tuple(labels))


def downward_slide(state, start):
    """Open a hole at the maximal point start = (x, y) of the inner ideal of
    a slide state (inner, row masks) and move it until it leaves the shape;
    the state after the slide."""
    inner, rows = list(state[0]), list(state[1])
    x, y = start
    if y - 1 not in _corners(inner) or inner[y - 1] != x:
        raise ValueError(f"{start} is not a maximal point of the inner ideal")
    _slide(inner, rows, y - 1)
    return tuple(inner), tuple(rows)


def state_rows(state):
    """The outer ideal of a slide state and the letters of each row."""
    inner, rows = state
    parts = [*inner, *[0] * (len(rows) - len(inner))]
    outer = tuple(part + row.bit_count() for part, row in zip(parts, rows))
    return outer, [letters_of(row) for row in rows]


def remove_letter(w, x):
    """The word with every occurrence of x removed."""
    return tuple(y for y in w if y != x)


def shift_down_partition(partition):
    if any(x <= 1 for x in partition.ground()):
        raise ValueError("cannot shift down a partition containing the smallest letter")
    return SetPartition(tuple(tuple(x - 1 for x in b) for b in partition.blocks))


def shift_up_partition(partition):
    return SetPartition(tuple(tuple(x + 1 for x in b) for b in partition.blocks))


def e_of(partition):
    """The block index reached by repeatedly jumping to the smallest letter
    to the right, as long as it is a block minimum."""
    if not partition.block_count():
        raise ValueError("empty partition")
    return evacuation._delta_step(partition.masks()) + 1


def composition_covers(comp):
    """All compositions covering this one: bump one part, or append a part 1."""
    check_composition(comp)
    out = [comp[:i] + (comp[i] + 1,) + comp[i + 1 :] for i in range(len(comp))]
    out.append(comp + (1,))
    return out


def test_composition_covers():
    covers = composition_covers((2, 2, 3, 1))
    assert (2, 3, 3, 1) in covers and (2, 2, 3, 1, 1) in covers
    assert len(covers) == 5  # one more than the number of parts
    assert composition_covers(()) == [(1,)]
    assert set(composition_covers((1,))) == {(2,), (1, 1)}


def test_interval_middles():
    assert interval_middles((1,), (2, 1)) == {(2,), (1, 1)}
    assert interval_middles((1,), (3,)) == {(2,)}
    assert interval_middles((), (1, 1)) == {(1,)}
    assert interval_middles((1,), (1, 1, 1)) == {(1, 1)}
    with pytest.raises(ValueError):
        interval_middles((2,), (1, 1, 2))  # ideals are not even nested
    for c1, c3 in [((1,), (1,)), ((1,), (2,)), ((1,), (4,)), ((2, 1), (1, 1, 1)), ((), ())]:
        with pytest.raises(ValueError, match="is not a length-2 interval"):
            interval_middles(c1, c3)


def test_interval_middles_match_the_covers_of_covers():
    # The middles as the covers of c1 that c3 covers, for every c1 of size
    # <= 6 and every c3 two covers above it.
    middle_counts = Counter()
    for c1 in compositions_up_to(6):
        covers = composition_covers(c1)
        for c3 in {c3 for c2 in covers for c3 in composition_covers(c2)}:
            expected = {c2 for c2 in covers if c3 in composition_covers(c2)}
            assert interval_middles(c1, c3) == expected, (c1, c3)
            middle_counts[len(expected)] += 1
    assert set(middle_counts) == {1, 2}


def test_cover_row_accepts_exactly_the_composition_covers():
    comps = compositions_up_to(6)
    odd = [(0,), (-1,), (1, 0), (2, -1), (0, 1), (1, 0, 1), (-2, 3)]
    accepted = 0
    for lower in comps + odd:
        try:
            covers = composition_covers(lower)
        except ValueError:
            continue  # lower is no composition: nothing to compare
        for upper in comps + odd:
            row = _cover_row(lower, upper)
            assert bool(row) == (upper in covers), (lower, upper)
            if row:
                accepted += 1
                bumped = list(lower) + [0] * (len(upper) - len(lower))
                bumped[row - 1] += 1
                assert tuple(bumped) == upper, (lower, upper, row)
    # every cover of a composition of size <= 5 is a composition of size <= 6
    assert accepted == sum(len(c) + 1 for c in comps if sum(c) <= 5)


def test_partition_chain_examples():
    chain = partition_chain(parse_partition("15/23/46"))
    assert chain == [(1,), (1, 1), (1, 2), (1, 2, 1), (2, 2, 1), (2, 2, 2)]
    assert partition_chain(parse_partition("a")) == [(1,)]
    figure = parse_partition("13/28/457/6")
    assert partition_chain(figure) == [
        (1,), (1, 1), (2, 1), (2, 1, 1), (2, 1, 2), (2, 1, 2, 1), (2, 1, 3, 1), (2, 2, 3, 1),
    ]


def test_partition_chain_round_trip():
    for alphabet in (Alphabet(4), Alphabet(5)):
        for r in all_partitions_of_subsets(alphabet):
            if not r.blocks:
                continue
            chain = partition_chain(r)
            letters = sorted(r.ground())
            assert partition_from_chain(chain, letters) == r


def test_e_and_delta_direct_worked_example():
    r = parse_partition("13/28/457/6")
    assert e_of(r) == 3
    assert delta_direct(r) == parse_partition("23/48/57/6")


def test_delta_direct_small_cases():
    assert e_of(parse_partition("a")) == 1
    assert delta_direct(parse_partition("a")) == SetPartition(())
    assert e_of(parse_partition("ab")) == 1
    assert delta_direct(parse_partition("ab")) == parse_partition("b")
    with pytest.raises(ValueError):
        delta_direct(SetPartition(()))
    with pytest.raises(ValueError):
        e_of(SetPartition(()))


def test_downward_move_swaps_hole_with_smaller_cover(downward_move, holed_skew):
    # hole in the first column with two labels covering it: the smaller one
    # (here 3, not the 7 above) slides into the hole
    with_hole = holed_skew(
        outer=(4, 3, 3, 1),
        inner=(2,),
        labels=(
            ((3, 1), 2), ((4, 1), 6), ((1, 2), 1), ((2, 2), 4), ((3, 2), 5),
            ((2, 3), 3), ((3, 3), 8), ((1, 4), 7),
        ),
        hole=(1, 3),
    )
    moved = downward_move(with_hole)
    assert moved.hole == (2, 3)
    assert moved.label_map()[(1, 3)] == 3


def test_downward_move_upper_hole_is_removed(downward_move, holed_skew):
    upper = holed_skew(outer=(2,), labels=(((1, 1), 1),), hole=(2, 1))
    done = downward_move(upper)
    assert done.hole is None and done.outer == (1,)
    assert done.label_map() == {(1, 1): 1}


def test_downward_move_single_cover(downward_move, holed_skew):
    single = holed_skew(outer=(2,), labels=(((2, 1), 2),), hole=(1, 1))
    moved = downward_move(single)
    assert moved.hole == (2, 1) and moved.label_map() == {(1, 1): 2}


def test_downward_slides_follow_the_trails():
    # Each row increases, so with the inner part before it a row's letters
    # place every label: (1, 3) holds the least letter of row 3 once its
    # inner part is 0.
    state = (SKEW.inner, tuple(SKEW._row_masks()))
    assert state_rows(state) == ((4, 3, 3, 1), [(2, 6), (4, 5), (1, 3, 8), (7,)])
    # first slide: trail 1, 3, 8 leaves through the third row
    state = downward_slide(state, (1, 2))
    assert state[0] == (2,)
    assert state_rows(state) == ((4, 3, 2, 1), [(2, 6), (1, 4, 5), (3, 8), (7,)])
    # second slide: trail 2, 6 leaves through the first row
    state = downward_slide(state, (2, 1))
    assert state[0] == (1,)
    assert state_rows(state) == ((3, 3, 2, 1), [(2, 6), (1, 4, 5), (3, 8), (7,)])
    # final slide: trail 1, 3, 7 up the first column, and the top row leaves
    state = downward_slide(state, (1, 1))
    assert state[0] == ()
    assert state_rows(state) == ((3, 3, 2), [(1, 2, 6), (3, 4, 5), (7, 8)])
    assert SetPartition._from_masks(state[1]) == jdt(SKEW) == parse_partition("126/345/78")


def test_downward_slide_rejects_bad_start():
    state = (SKEW.inner, tuple(SKEW._row_masks()))
    for start in ((1, 1), (2, 2), (3, 1)):  # not maximal, or not an inner point
        with pytest.raises(ValueError):
            downward_slide(state, start)
    assert _corners(SKEW.inner) == [1, 0]  # the rows of (1, 2) and (2, 1)


def test_jdt_worked_example_and_strategies():
    expected = parse_partition("126/345/78")
    assert jdt(SKEW) == expected
    assert jdt(SKEW, "last") == expected
    assert jdt(SKEW, "random", random.Random(0)) == expected
    assert jdt_all_results(SKEW) == {expected}


def test_jdt_matches_a_walk_of_downward_moves_exhaustive_small(jdt_by_moves):
    # The walk moves labelled points and checks every state it passes; the
    # kernels slide row masks and check only the end.
    count = 0
    for skew in all_labelled_skews(4, outer_cap=7):
        first, last = jdt_by_moves(skew, "first"), jdt_by_moves(skew, "last")
        assert (jdt(skew), jdt(skew, "last"), jdt_all_results(skew)) == (first, last, {first})
        count += 1
    assert count == 7697


def test_the_slide_oracle_shares_no_code_with_the_slides():
    # The walk in conftest moves labelled points with its own hole move,
    # corners and point removal; from the package it reads only the plane
    # order, so the differential tests above compare two implementations.
    tree = ast.parse(Path(__file__).with_name("conftest.py").read_text())
    from_evacuation = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.startswith("stylic") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "stylic", "conftest imports from the package root"
            if node.module == "stylic.evacuation":
                from_evacuation.update(alias.name for alias in node.names)
    assert from_evacuation <= {"check_composition", "ideal_points", "point_covers"}


def test_jdt_rejects_an_unknown_strategy():
    with pytest.raises(ValueError, match="unknown strategy"):
        jdt(SKEW, "middle")


def test_jdt_on_partition_is_identity():
    r = parse_partition("15/23/46")
    assert jdt(partition_to_skew(r)) == r


def test_jdt_strategy_independence_exhaustive_small():
    count = 0
    for skew in all_labelled_skews(3, outer_cap=5):
        assert len(jdt_all_results(skew)) == 1
        count += 1
    assert count == 394


@pytest.mark.parametrize("n, outer_cap, count", [(3, 5, 394), (4, 6, 2675)])
def test_a_shared_memo_gives_the_fresh_memo_results(n, outer_cap, count):
    shared: dict = {}
    skews = list(all_labelled_skews(n, outer_cap))
    for skew in skews:
        assert jdt_all_results(skew, shared) == jdt_all_results(skew) == {jdt(skew)}
    # Slides never leave the set, so its skews are exactly the states.
    assert len(skews) == len(shared) == count


# The exhaustive jeu de taquin line that `verify evacuation` ran before its
# window line, kept as an oracle: every labelled skew with at most n letters
# and an outer ideal of at most outer_cap points, held as a state (outer,
# inner, row masks), checked as `SkewPartition` would check it, and searched
# over every order of corners, with one memo across all skews.


def check_skew_state(state):
    """Raises ValueError unless the row masks label outer minus inner
    increasingly by distinct letters, as `SkewPartition` requires of its
    labels: the rows are disjoint, each holds as many letters as its row has
    points, and the minima of the rows above the inner ideal rise.  A mask
    lists its row's letters increasing, so nothing else can fail."""
    outer, inner, rows = state
    if tuple(map(int.bit_count, rows)) != (*map(operator.sub, outer, inner), *outer[len(inner) :]):
        raise ValueError("the rows do not hold one letter per point of outer minus inner")
    seen = 0
    for row in rows:
        if row & seen:
            raise ValueError("a letter lies in two rows")
        seen |= row
    low = 0
    for row in rows[len(inner) :]:
        if row & -row < low:
            raise ValueError("the first column does not increase")
        low = row & -row


def state_json(state):
    """A state named by the JSON of its skew, the form `styl compute jdt`
    reads, or by its masks when they label no skew."""
    outer, inner, rows = state
    try:
        skew = SkewPartition(outer, inner, verify._state_labels(state))
    except ValueError:
        return f"outer {list(outer)}, inner {list(inner)}, row masks {list(rows)}"
    return json.dumps(skew.to_json())


def exhaustive_jdt_line(n, outer_cap=6, states=None):
    """The count of skew states checked and the first that fails, named by
    `state_json`, or None.  A state fails when the mask check refuses it,
    when its slides end in more than one state, or when an end state is no
    partition; the partition check runs once per distinct end state."""
    memo, checked = {}, set()

    def choice_free(state):
        check_skew_state(state)
        results = evacuation._jdt_results(state[1], state[2], memo)
        for rows in results:
            if rows not in checked:
                SetPartition._from_masks(rows)
                checked.add(rows)
        return len(results) == 1

    instances = 0

    def streamed():  # and counted past a failure
        nonlocal instances
        for state in verify._labelled_skew_states(n, outer_cap) if states is None else states:
            instances += 1
            yield state

    (failure,) = verify._first_counterexamples(streamed(), [choice_free], state_json)
    return instances, failure


def test_the_jdt_check_slides_each_state_and_corner_once(monkeypatch):
    skews = list(all_labelled_skews(4, outer_cap=6))
    state_corners = sum(len(evacuation._corners(skew.inner)) for skew in skews)
    slide, search = evacuation._slide, evacuation._jdt_results
    slides, memos, searching = [0], set(), [False]
    calls = Counter()

    def counted_slide(inner, rows, y):
        slides[0] += searching[0]
        return slide(inner, rows, y)

    def counted_search(inner, rows, memo):
        memos.add(id(memo))
        searching[0] = True
        try:
            return search(inner, rows, memo)
        finally:
            searching[0] = False

    def counted(function, key):
        def call(*args):
            calls[key] += 1
            return function(*args)

        return call

    monkeypatch.setattr(evacuation, "_slide", counted_slide)
    monkeypatch.setattr(evacuation, "_jdt_results", counted_search)
    monkeypatch.setattr(SkewPartition, "__post_init__", counted(SkewPartition.__post_init__, "skew"))
    monkeypatch.setitem(globals(), "check_skew_state", counted(check_skew_state, "state"))
    assert exhaustive_jdt_line(4) == (2675, None)
    assert len(memos) == 1
    assert 0 < slides[0] <= state_corners
    # Each skew is checked once as row masks, and none is built.
    assert calls == {"state": 2675}


def test_the_jdt_check_fails_when_the_search_drops_a_corner(monkeypatch):
    corners, search = evacuation._corners, evacuation._jdt_results

    def dropping(comp):
        return corners(comp)[1:]

    def search_without_one_corner(inner, rows, memo):
        # Only the exhaustive search sees the mutation.
        evacuation._corners = dropping
        try:
            return search(inner, rows, memo)
        finally:
            evacuation._corners = corners

    monkeypatch.setattr(evacuation, "_jdt_results", search_without_one_corner)
    assert exhaustive_jdt_line(3) == (
        1088, '{"outer": [1, 1], "inner": [1], "labels": [[[1, 2], "a"]]}'
    )


def test_the_one_end_state_is_pi_of_the_row_word():
    # Differential: on every skew the exhaustive line covers, the search
    # over all orders of corners finds one end state, the one that the
    # window line proves for every skew.
    count = 0
    for skew in all_labelled_skews(4, outer_cap=6):
        assert jdt_all_results(skew) == {pi(skew.row_word())}
        count += 1
    assert count == 2675


@pytest.mark.parametrize(
    "n, windows", enumerate([3, 10, 37, 151, 674, 3263, 17007], start=1)
)
def test_the_window_line_passes_on_every_window(n, windows):
    assert verify.slide_window_counterexample(enumerate_styl(Alphabet(n))) == (windows, None)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_windows_are_the_skews_over_one_inner_point(
    n, labelled_skews_by_permutations, holed_skew, downward_move
):
    # The window line's count and verdict by the point walk: each skew with
    # inner ideal (1,) over letters <= n, and the one with no label, slid
    # once by hole moves, each a checked state, keeps the class of its row
    # word.
    monoid = enumerate_styl(Alphabet(n))
    windows = [((1,), ())] + [
        (outer, labels)
        for outer, inner, labels in labelled_skews_by_permutations(n, n + 1)
        if inner == (1,)
    ]
    for outer, labels in windows:
        state = holed_skew(outer, (), labels, (1, 1))
        while state.hole is not None:
            state = downward_move(state)
        before = SkewPartition(outer, (1,), labels).row_word()
        after = SkewPartition(state.outer, (), state.labels).row_word()
        assert monoid.class_of_word(before) == monoid.class_of_word(after)
    assert verify.slide_window_counterexample(monoid) == (len(windows), None)


def named_window(failure):
    """The skew that a window line's counterexample names, and its reason."""
    named, _, reason = failure.partition("}: ")
    return skew_from_json(json.loads(named + "}")), reason


def test_a_slide_of_the_larger_letter_fails_the_window_line_naming_a_window(monkeypatch):
    monkeypatch.setattr(verify, "_slide", slide_the_larger_cover)
    monoid = enumerate_styl(Alphabet(3))
    count, failure = verify.slide_window_counterexample(monoid)
    skew, reason = named_window(failure)
    assert count == 37 and reason == "the slide changes the class of the row word"
    assert skew.inner == (1,) and render_word(skew.row_word()) == "bcabc"
    rows = skew._row_masks()
    slide_the_larger_cover([1], rows, 0)
    slid = partition_to_skew(SetPartition._from_masks(rows))
    assert monoid.class_of_word(skew.row_word()) != monoid.class_of_word(slid.row_word())


@pytest.mark.parametrize(
    "slide, outer, reason",
    [
        # The hole is dropped and no letter moves: the empty window keeps
        # an empty row, where a partition has none.
        (lambda inner, rows, y: inner.pop(), (1,), "partition blocks must be nonempty"),
        # Nothing moves and the hole stays.
        (lambda inner, rows, y: None, (3,), "the slide leaves the inner point"),
        # A right slide, then an empty row on top: the row word, and so its
        # class, stay the same, and only the check on the rows fails.
        (
            lambda inner, rows, y: (_slide(inner, rows, y), rows.append(0)),
            (3,),
            "partition blocks must be nonempty",
        ),
    ],
    ids=["empty-row", "hole-stays", "empty-top-row"],
)
def test_a_slide_that_leaves_no_skew_fails_the_window_line(monkeypatch, slide, outer, reason):
    monkeypatch.setattr(verify, "_slide", slide)
    count, failure = verify.slide_window_counterexample(enumerate_styl(Alphabet(2)))
    skew, named_reason = named_window(failure)
    assert count == 10 and named_reason == reason
    assert (skew.outer, skew.inner) == (outer, (1,))


def test_skew_row_words():
    assert render_word(SKEW.row_word()) == "gacghacdeghabcdefgh"


def test_row_word_of_partition_matches_tableau():
    from stylic.monoid import from_partition

    for r in all_partitions_of_subsets(Alphabet(4)):
        assert partition_to_skew(r).row_word() == from_partition(r).row_word()


def test_jdt_preserves_the_class_of_the_row_word():
    monoid = enumerate_styl(Alphabet(4))
    rng = random.Random(12)
    for _ in range(60):
        skew = random_labelled_skew(rng, 4, outer_cap=7)
        settled = jdt(skew, "random", rng)
        assert monoid.class_of_word(skew.row_word()) == monoid.class_of_word(
            partition_to_skew(settled).row_word()
        )


def test_delta_jdt_matches_delta_direct():
    fig = parse_partition("13/28/457/6")
    assert delta_jdt(fig) == delta_direct(fig) == parse_partition("23/48/57/6")
    assert delta_jdt(parse_partition("a")) == SetPartition(())
    for n in range(1, 7):
        for r in all_set_partitions(range(1, n + 1)):
            assert delta_jdt(r) == delta_direct(r)


def test_evac_small_cases():
    a1 = Alphabet(1)
    assert evac(SetPartition(()), a1) == SetPartition(())
    assert evac(parse_partition("a"), a1) == parse_partition("a")


def test_evac_is_shape_preserving_involution_on_theta_ground():
    a5 = Alphabet(5)
    for r in all_partitions_of_subsets(a5):
        image = evac(r, a5)
        assert image.shape() == r.shape()
        assert image.ground() == frozenset(a5.theta_letter(x) for x in r.ground())
        assert evac(image, a5) == r


def test_evac_agrees_with_pyramid():
    for alphabet in (Alphabet(3), Alphabet(4)):
        for r in all_partitions_of_subsets(alphabet):
            assert evac(r, alphabet) == evac_via_pyramid(r, alphabet)


def test_evacuation_matches_word_reversal():
    for n in (1, 2, 3):
        alphabet = Alphabet(n)
        for w in words_up_to(n, 6):
            assert pi(theta(w, alphabet)) == evac(pi(w), alphabet)


def test_pyramid_structure():
    r = parse_partition("15/23/46")
    pyramid = build_pyramid(r)  # validates every arrow is a covering move
    assert pyramid.size == 6
    assert pyramid.chains[0][-1] == (2, 2, 2)
    assert pyramid.right_side()[0] == ()
    assert pyramid.right_side()[-1] == (2, 2, 2)
    assert pyramid_by_completion(r).chains == pyramid.chains
    assert pyramid.chains[0][1] == (1,)


def test_pyramid_of_singleton():
    pyramid = build_pyramid(parse_partition("a"))
    assert pyramid.chains == (((), (1,)), ((),))


@pytest.mark.parametrize("n", range(1, 6))
def test_the_induction_along_delta_reads_the_whole_pyramids(n):
    # Each step holds the first two rows and the right side of its
    # partition's pyramid, so the suite's pyramid lines check the rows that
    # build_pyramid and pyramid_by_completion hold.
    alphabet = Alphabet(n)
    partitions = list(all_partitions_of_subsets(alphabet))
    steps = list(verify._delta_steps(partitions))
    assert sorted(r.masks() for r, *_ in steps) == sorted(r.masks() for r in partitions[1:])
    sizes = [sum(r.shape()) for r, *_ in steps]
    assert sizes == sorted(sizes)
    for r, chain, lower, right in steps:
        pyramid = build_pyramid(r)
        assert (chain, lower, right) == (*pyramid.chains[:2], tuple(pyramid.right_side()))
        assert completion_row(chain) == pyramid_by_completion(r).chains[1] == lower
        evacuation._check_row_arrows(chain, lower, 0)
        assert evac_from_right_side(right, r, alphabet) == evac(r, alphabet)


def whole_pyramid_lines(alphabet):
    """The two pyramid lines as the suite checked them on whole pyramids:
    each nonempty partition's pyramid built and validated, evacuation read
    off its right side, and the pyramid rebuilt by completion.  A kernel
    that refuses fails the line."""

    def holds(check, r):
        try:
            return check(r)
        except ValueError:
            return False

    nonempty = [r for r in all_partitions_of_subsets(alphabet) if r.block_count()]
    return (
        all(holds(lambda r: evac_via_pyramid(r, alphabet) == evac(r, alphabet), r) for r in nonempty),
        all(holds(lambda r: pyramid_by_completion(r).chains == build_pyramid(r).chains, r) for r in nonempty),
    )


def the_other_middle_only_below_two_letters(monkeypatch):
    complete = evacuation.complete_rhombus
    monkeypatch.setattr(
        evacuation, "complete_rhombus", lambda c1, c2, c3: c2 if sum(c1) >= 2 else complete(c1, c2, c3)
    )


def no_cover_onto_three_rows(monkeypatch):
    cover_row = evacuation._cover_row
    monkeypatch.setattr(
        evacuation, "_cover_row", lambda lower, upper: 0 if len(upper) == 3 else cover_row(lower, upper)
    )


def chains_of_three_blocks_end_early(monkeypatch):
    chain = evacuation.partition_chain

    def early(partition):
        steps = chain(partition)
        return steps[:-2] + steps[-1:] * 2 if partition.block_count() == 3 else steps

    monkeypatch.setattr(evacuation, "partition_chain", early)
    monkeypatch.setattr(verify, "partition_chain", early)


def right_sides_of_three_letters_read_backwards(monkeypatch):
    read = evacuation.partition_from_chain
    monkeypatch.setattr(
        evacuation,
        "partition_from_chain",
        lambda chain, letters: read(chain, letters[::-1] if len(letters) == 3 else letters),
    )


@pytest.mark.parametrize(
    "mutate",
    [
        lambda monkeypatch: None,
        the_other_middle_only_below_two_letters,
        no_cover_onto_three_rows,
        chains_of_three_blocks_end_early,
        right_sides_of_three_letters_read_backwards,
    ],
    ids=["unchanged", "one-middle", "refused-cover", "early-chain", "backward-reading"],
)
def test_the_inductive_pyramid_lines_pass_where_the_whole_pyramids_do(monkeypatch, mutate):
    monoid = enumerate_styl(Alphabet(4))
    mutate(monkeypatch)
    lines = verify_evacuation(monoid).lines
    inductive = tuple(lines[i].startswith("PASS ") for i in (3, 4))
    assert inductive == whole_pyramid_lines(Alphabet(4))


def test_a_cross_arrow_that_is_no_cover_fails_the_right_side_line(monkeypatch):
    # The chain of delta(a/b) handed over as ((), (2,)): r's own chain and
    # right side stay right, and (2,) -> (1, 1) covers nothing.
    steps, r = verify._delta_steps, parse_partition("a/b")

    def one_wrong_lower_chain(partitions):
        for step in steps(partitions):
            yield (r, step[1], ((), (2,)), step[3]) if step[0] == r else step

    monkeypatch.setattr(verify, "_delta_steps", one_wrong_lower_chain)
    lines = verify_evacuation(enumerate_styl(Alphabet(3))).lines
    assert [i for i, line in enumerate(lines) if line.startswith("FAIL ")] == [3, 4]
    assert lines[3].endswith(
        " (first counterexample: a/b: cross arrow (1,1) -> (0,2) is not a covering move)"
    )


def test_removing_top_letter_commutes_with_evacuation():
    a4 = Alphabet(4)
    for r in all_partitions_of_subsets(a4):
        if not r.blocks:
            continue
        z = max(r.ground())
        assert evac(remove_from_partition(r, z), a4) == delta_direct(evac(r, a4))


def test_partitions_determined_by_top_removal_and_delta():
    for n in (3, 4, 5):
        groups = {}
        for r in all_set_partitions(range(1, n + 1)):
            key = (r.block_count(), remove_from_partition(r, n), delta_direct(r))
            assert groups.setdefault(key, r) == r


def test_evac_alphabet_shift_compatibility():
    for n in (2, 3, 4):
        big, small = Alphabet(n), Alphabet(n - 1)
        for r in all_partitions_of_subsets(small):
            # ground avoids n: reversing over the big alphabet shifts the image up
            assert evac(r, big) == shift_up_partition(evac(r, small))
            if not r.blocks:
                continue
            shifted = shift_up_partition(r)  # ground avoids 1
            assert evac(shifted, big) == evac(r, small)


def test_removing_letters_from_words_and_partitions():
    assert remove_letter(parse_word("cabda"), 1) == parse_word("cbd")
    assert remove_letter(parse_word("cbd"), 1) == parse_word("cbd")  # absent letter
    fig = parse_partition("13/28/457/6")
    assert remove_from_partition(fig, 8) == parse_partition("13/2/457/6")
    with pytest.raises(ValueError):
        remove_from_partition(fig, 7)  # not the maximum


def test_removal_lemma_on_words():
    a4 = Alphabet(4)
    monoid = enumerate_styl(a4)
    rng = random.Random(21)
    classes = {}
    for w in words_up_to(3, 5):
        classes.setdefault(monoid.class_of_word(w), []).append(w)
    for members in classes.values():
        rep = members[0]
        if not rep:
            continue
        a = min(support(rep))
        for other in members[1:8]:
            assert monoid.class_of_word(remove_letter(rep, a)) == monoid.class_of_word(
                remove_letter(other, a)
            )
    for _ in range(300):
        w = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 7)))
        a, z = min(support(w)), max(support(w))
        assert pi(remove_letter(w, a)) == delta_direct(pi(w))
        if pi(w).blocks:
            assert pi(remove_letter(w, z)) == remove_from_partition(pi(w), z)


def test_skew_validation_and_json():
    with pytest.raises(ValueError):
        SkewPartition(outer=(1,), inner=(2,), labels=())
    with pytest.raises(ValueError):  # labelling must increase along rows
        SkewPartition(outer=(2,), labels=(((1, 1), 2), ((2, 1), 1)))
    data = SKEW.to_json()
    assert skew_from_json(data) == SKEW


def test_every_small_skew_round_trips_through_its_json(capsys):
    # The JSON a counterexample line prints can be pasted into `compute jdt`.
    skews = list(all_labelled_skews(3, outer_cap=5))
    assert len(skews) == 394
    for skew in skews:
        assert skew_from_json(json.loads(json.dumps(skew.to_json()))) == skew
    for skew in skews[::13]:
        assert main(["compute", "jdt", json.dumps(skew.to_json()), "-n", "3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == jdt(skew).to_json()


@pytest.mark.parametrize(
    "outer, inner, labels, letter",
    [
        ((2,), (1,), (((2, 1), 0),), "0"),
        ((2, 1), (1,), (((2, 1), 3), ((1, 2), -2)), "-2"),
    ],
)
def test_skew_partition_refuses_letters_below_one(outer, inner, labels, letter):
    # The constructor is the boundary: it refuses them as SetPartition does,
    # before any slide could meet them.
    with pytest.raises(ValueError) as refused:
        SkewPartition(outer, inner, labels)
    assert str(refused.value) == f"{letter} is not a letter: letters are positive integers"
    with pytest.raises(ValueError, match=f"^{letter} is not a letter"):
        SetPartition(tuple((v,) for _, v in labels))


@pytest.mark.parametrize("letter", [1.5, True, "a"], ids=["float", "bool", "str"])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: SkewPartition((2,), (1,), (((2, 1), x),)),
        lambda x: SkewPartition((2, 1), (1,), (((2, 1), 3), ((1, 2), x))),
        lambda x: SetPartition(((x,),)),
        lambda x: SetPartition(((1, 3), (2, x))),
        lambda x: NTableau(((x,),)),
        lambda x: NTableau(((1, 2), (1, x))),
    ],
    ids=["skew", "skew-second", "partition", "partition-second", "ntableau", "ntableau-second"],
)
def test_constructors_refuse_letters_that_are_not_ints(build, letter):
    # 1.5 has no bit in a mask and True would pass for the letter 1, so each
    # public constructor refuses both, as skew_from_json does, before any
    # kernel meets them.
    with pytest.raises(ValueError) as refused:
        build(letter)
    assert str(refused.value) == f"{letter!r} is not a letter: letters are positive integers"


def preceq(p, q):
    """The plane order pair by pair: within a row move right, within the
    first column move up.  The package reads it only through its covers."""
    return (p[1] == q[1] and p[0] <= q[0]) or (p[0] == 1 and p[1] <= q[1])


def increasing_by_all_pairs(labels):
    return all(u < v for (p, u), (q, v) in permutations(labels, 2) if preceq(p, q))


def random_composition(rng, size):
    parts = []
    while size > 0:
        parts.append(rng.randint(1, size))
        size -= parts[-1]
    return tuple(parts)


def test_the_cover_check_matches_the_all_pairs_check(holed_skew):
    # Skews without a hole go through the package's check, skews with one
    # through the slide oracle's.
    rng = random.Random(7)
    verdicts = Counter()
    for trial in range(3000):
        outer = random_composition(rng, rng.randint(1, 7))
        inner = tuple(takewhile(bool, (rng.randint(0, part) for part in outer)))
        region = sorted(ideal_points(outer) - ideal_points(inner))
        hole = rng.choice(region) if trial % 2 and region else None
        points = [p for p in region if p != hole]
        letters = rng.sample(range(1, 10), len(points))
        labels = tuple(zip(points, letters))
        try:
            if hole is None:
                SkewPartition(outer, inner, labels)
            else:
                holed_skew(outer, inner, labels, hole)
            accepted = True
        except ValueError as exc:
            assert "not increasing" in str(exc)
            accepted = False
        assert accepted == increasing_by_all_pairs(labels), (outer, inner, labels, hole)
        verdicts[accepted, hole is not None] += 1
    assert len(verdicts) == 4 and min(verdicts.values()) > 100


def test_increasing_labellings_match_the_all_pairs_filter(increasing_labellings):
    for outer in compositions_up_to(5):
        for inner in compositions_up_to(sum(outer)):
            if not young_leq(inner, outer):
                continue
            region = ideal_points(outer) - ideal_points(inner)
            letters = tuple(range(1, len(region) + 1))
            points = sorted(region)
            expected = [
                tuple(zip(points, perm))
                for perm in permutations(letters)
                if increasing_by_all_pairs(tuple(zip(points, perm)))
            ]
            assert list(increasing_labellings(region, letters)) == expected


@pytest.mark.parametrize("n, outer_cap, count", [(3, 5, 394), (4, 6, 2675), (4, 7, 7697)])
def test_the_mask_states_are_the_permutation_filters_skews(
    labelled_skews_by_permutations, n, outer_cap, count
):
    # The same skews in the same order, by outer ideal, inner ideal and
    # letter subset and then by labels, each passing the mask check and
    # named by its skew's JSON.
    expected = list(labelled_skews_by_permutations(n, outer_cap))
    states = list(verify._labelled_skew_states(n, outer_cap))
    skews = list(all_labelled_skews(n, outer_cap))
    assert len(expected) == len(states) == len(skews) == count
    assert [(s[0], s[1], tuple(sorted(verify._state_labels(s)))) for s in states] == expected
    assert [(skew.outer, skew.inner, skew.labels) for skew in skews] == expected
    for state, skew in zip(states, skews):
        check_skew_state(state)
        assert list(state[2]) == skew._row_masks()
        assert state_json(state) == json.dumps(skew.to_json())


def test_the_mask_check_refuses_what_skew_partition_refuses():
    # Valid states with a letter moved to another row, swapped with one of
    # another row, or dropped.
    rng = random.Random(5)
    states = list(verify._labelled_skew_states(4, 6))
    verdicts = Counter()
    for trial in range(3000):
        outer, inner, rows = rng.choice(states)
        rows = list(rows)
        y, z = rng.randrange(len(rows)), rng.randrange(len(rows))
        letter = rng.choice(letters_of(sum(rows)))
        bit = 1 << (letter - 1)
        if trial % 3 == 0:
            rows[y] &= ~bit
            rows[z] |= bit
        elif trial % 3 == 1 and rows[z]:
            other = 1 << (rng.choice(letters_of(rows[z])) - 1)
            owner = next(i for i, row in enumerate(rows) if row & bit)
            rows[owner] ^= bit | other
            rows[z] ^= bit | other
        else:
            rows[y] &= ~bit
        state = (outer, inner, tuple(rows))
        try:
            SkewPartition(outer, inner, verify._state_labels(state))
            built = True
        except ValueError:
            built = False
        try:
            check_skew_state(state)
            checked = True
        except ValueError:
            checked = False
        assert checked == built, state
        verdicts[built] += 1
    assert min(verdicts[True], verdicts[False]) > 300


def test_a_state_that_labels_no_skew_fails_the_jdt_line():
    # b sits below a in the first column, above the inner ideal.
    bad = ((1, 1, 1), (1,), (0, 0b10, 0b01))
    assert exhaustive_jdt_line(3, states=[bad]) == (
        1, "outer [1, 1, 1], inner [1], row masks [0, 2, 1]: the first column does not increase"
    )


def random_labelled_skew_by_all_pairs(rng, n, outer_cap=10):
    """`random_labelled_skew` finding each minimal point by comparing every
    pair of remaining points."""
    while True:
        size = rng.randint(2, outer_cap)
        outer = []
        while size > 0:
            part = rng.randint(1, size)
            outer.append(part)
            size -= part
        inner = tuple(rng.randint(0, part) for part in outer)
        while inner and inner[-1] == 0:
            inner = inner[:-1]
        if any(p == 0 for p in inner):
            continue
        region = ideal_points(tuple(outer)) - ideal_points(inner)
        if not inner or not 1 <= len(region) <= n:
            continue
        letters = sorted(rng.sample(range(1, n + 1), len(region)))
        remaining = set(region)
        labels = {}
        for letter in letters:
            minimal = [
                p for p in remaining if not any(q != p and preceq(q, p) for q in remaining)
            ]
            p = rng.choice(minimal)
            remaining.discard(p)
            labels[p] = letter
        return SkewPartition(tuple(outer), inner, tuple(sorted(labels.items())))


@pytest.mark.parametrize("n, outer_cap", [(6, 10), (4, 7)])
def test_random_skews_are_the_all_pairs_draws(n, outer_cap):
    for seed in range(100):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            skew = random_labelled_skew(rng, n, outer_cap)
            assert skew == random_labelled_skew_by_all_pairs(oracle_rng, n, outer_cap), seed


def test_skew_json_bounds_the_shape_before_building_it():
    size = evacuation.SKEW_CEILING
    column = {"outer": [1] * size, "inner": [1] * (size - 1), "labels": [[[1, size], 1]]}
    assert skew_from_json(column).outer == (1,) * size
    for data in (
        {"outer": [size + 1], "inner": [size], "labels": [[[size + 1, 1], 1]]},
        {"outer": [100000000], "inner": [99999999], "labels": [[[100000000, 1], 1]]},
    ):
        with pytest.raises(ValueError, match="exceeds the ceiling"):
            skew_from_json(data)
    for data in (
        {"outer": [3], "inner": [1], "labels": [[[3, 1], 1]]},
        {"outer": [2], "inner": [3], "labels": []},
    ):
        with pytest.raises(ValueError, match="points"):
            skew_from_json(data)


def test_skew_json_reads_string_labels_as_one_letter():
    data = {"outer": [3], "inner": [1], "labels": [[[2, 1], "b"], [[3, 1], "10"]]}
    assert skew_from_json(data).label_map() == {(2, 1): 2, (3, 1): 10}
    for letter in ("0", "ab", "1.2", "B", ""):
        with pytest.raises(ValueError, match="is not a letter"):
            skew_from_json({"outer": [2], "inner": [1], "labels": [[[2, 1], letter]]})


def test_shift_partition_guards():
    with pytest.raises(ValueError):
        shift_down_partition(parse_partition("a"))
    assert shift_down_partition(parse_partition("b/c")) == parse_partition("a/b")


# ---------------------------------------------------------------------------
# The evacuation certificate over the monoid, against the word ball it
# replaced and against broken inputs it must reject.


def evacuation_by_word_ball(n, maxlen=6, evac=evac):
    """Oracle: the evacuation identity on every word of length <= maxlen."""
    alphabet = Alphabet(n)
    return all(
        pi(theta(w, alphabet)) == evac(pi(w), alphabet) for w in words_up_to(n, maxlen)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_certificate_agrees_with_the_word_ball(n):
    alphabet = Alphabet(n)
    monoid = enumerate_styl(alphabet)
    phi = theta_on_classes(monoid)
    reached = set()
    for w in words_up_to(n, 6):
        m = monoid.class_of_word(w)
        reached.add(m)
        assert monoid.class_of_word(theta(w, alphabet)) == phi[m]
        assert n_tableau(w) == monoid.elements[m].tableau
    assert len(reached) == len(monoid)  # at n <= 4 the ball covers the monoid
    assert evacuation_by_word_ball(n)
    assert verify_evacuation(monoid).lines[0] == (
        f"PASS n={n}: evacuation of the partition matches the reversed word on all "
        f"{len(monoid)} elements, by induction over {len(monoid) * n} right Cayley edges"
    )


def break_one_left_edge(monoid):
    row = monoid.left_by_letter[1]
    row[5] = row[6] if row[5] != row[6] else row[7]
    return monoid


def corrupt_one_left_edge(monkeypatch, monoid):
    # The suite is handed the broken monoid; `styl verify` builds it broken.
    break_one_left_edge(monoid)
    build = verify.enumerate_styl
    monkeypatch.setattr(verify, "enumerate_styl", lambda alphabet: break_one_left_edge(build(alphabet)))
    return "theta along"


def reverse_without_complement(monkeypatch, monoid):
    monkeypatch.setattr(verify, "theta", lambda w, alphabet: tuple(reversed(w)))
    return "theta along"


def evac_broken_on_one_partition(monkeypatch, monoid):
    target = parse_partition("a/b")  # evacuates to b/c at n = 3

    def broken(partition, alphabet):
        return target if partition == target else evac(partition, alphabet)

    monkeypatch.setattr(verify, "evac", broken)
    return "evac at"


@pytest.mark.parametrize(
    "mutate", [corrupt_one_left_edge, reverse_without_complement, evac_broken_on_one_partition]
)
def test_certificate_fails_on_a_broken_input(monkeypatch, capsys, mutate):
    monoid = enumerate_styl(Alphabet(3))
    reason = mutate(monkeypatch, monoid)
    result = verify_evacuation(monoid)
    assert not result.ok and result.render().startswith("[evacuation] FAIL")
    assert result.lines[0].startswith("FAIL n=3: ")
    assert f"(first counterexample: {reason}" in result.lines[0]
    if mutate is not evac_broken_on_one_partition:
        # Only the certificate reads the monoid and theta.
        assert all(line.startswith("PASS ") for line in result.lines[1:])
    assert main(["verify", "evacuation", "-n", "3"]) == 1
    assert "[evacuation] FAIL" in capsys.readouterr().out


def test_word_ball_agrees_with_the_certificate_on_a_broken_evac(monkeypatch):
    evac_broken_on_one_partition(monkeypatch, None)
    assert not evacuation_by_word_ball(3, evac=verify.evac)
    assert verify_evacuation(enumerate_styl(Alphabet(3))).lines[0].startswith("FAIL ")


def test_the_suite_evacuates_each_partition_once_and_builds_each_chain_once(monkeypatch):
    # n = 5 has 203 partitions, 202 of them nonempty: one table of evac
    # serves the certificate and the involution, pyramid and delta lines,
    # and the pyramid lines build and complete each chain once, by induction
    # along delta, with no whole pyramid.  Both modules are patched, so
    # hidden calls count too.
    names = ["evac", "partition_chain", "completion_row", "build_pyramid", "pyramid_by_completion"]
    calls = dict.fromkeys(names, 0)

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)

        return call

    for name in calls:
        wrapped = counted(name, getattr(evacuation, name))
        monkeypatch.setattr(evacuation, name, wrapped)
        if hasattr(verify, name):
            monkeypatch.setattr(verify, name, wrapped)
    assert verify_evacuation(enumerate_styl(Alphabet(5))).ok
    assert 0 < calls["evac"] <= 203
    assert calls["partition_chain"] == calls["completion_row"] == 202
    assert calls["build_pyramid"] == calls["pyramid_by_completion"] == 0


def test_bijection_certifies_that_the_n_tableau_is_a_class_function():
    line = "PASS n=3: N-insertion follows all 45 right Cayley edges, so the N-tableau depends only on the class"
    monoids = [enumerate_styl(Alphabet(k)) for k in (1, 2, 3)]
    assert line in verify_bijection(monoids).lines
    row = monoids[2].right_by_letter[2]
    row[4] = row[4] + 1
    result = verify_bijection(monoids)
    assert not result.ok
    failed = [line for line in result.lines if line.startswith("FAIL ")]
    assert len(failed) == 1 and "first counterexample: N-insertion along" in failed[0]


# ---------------------------------------------------------------------------
# The one check that ends a slide run, and the letters of the enumeration.


def row_masks(labels, height):
    rows = [0] * height
    for (_, y), v in labels.items():
        rows[y - 1] |= 1 << (v - 1)
    return rows


# A row of masks is increasing and holds no cell outside the outer ideal, so
# what the end check can still meet is an empty row, a letter in two rows and
# rows out of order by their minima.
@pytest.mark.parametrize(
    "outer, labels, message",
    [
        ((1, 1), {(1, 1): 2, (1, 2): 1}, "ordered by their minima"),
        ((2, 1), {(1, 1): 1, (2, 1): 2}, "must be nonempty"),
        ((2, 1), {(1, 1): 1, (2, 1): 2, (1, 2): 2}, "must be disjoint"),
    ],
    ids=["first-column", "missing-cell", "repeated-letter"],
)
def test_the_end_check_refuses_what_skew_partition_refuses(outer, labels, message):
    with pytest.raises(ValueError, match=message):
        SetPartition._from_masks(row_masks(labels, len(outer)))
    with pytest.raises(ValueError):
        SkewPartition(outer, (), tuple(labels.items()))


@pytest.mark.parametrize(
    "outer, labels, message",
    [
        ((2,), {(1, 1): 2, (2, 1): 1}, "labelling is not increasing"),
        ((2,), {(1, 1): 1, (2, 1): 2, (1, 2): 3}, "labels must cover the shape, once each"),
    ],
    ids=["row", "extra-cell"],
)
def test_skew_partition_refuses_what_no_row_mask_can_hold(outer, labels, message):
    # A decreasing row, or a label outside the outer ideal, has no row-mask
    # form for the end check to meet: the boundary is the only check.
    with pytest.raises(ValueError, match=message):
        SkewPartition(outer, (), tuple(labels.items()))


def test_the_end_check_returns_the_partition_of_the_rows():
    labels = {(1, 1): 1, (2, 1): 5, (1, 2): 2, (2, 2): 3, (1, 3): 4}
    skew = SkewPartition((2, 2, 1), (), tuple(labels.items()))
    assert skew._row_masks() == row_masks(labels, 3) == [0b10001, 0b00110, 0b01000]
    assert jdt(skew) == SetPartition._from_masks(skew._row_masks()) == parse_partition("15/23/4")


def slide_the_larger_cover(inner, rows, y):
    """A broken slide: in the first column the larger of the two least
    letters moves into the empty cell."""
    if inner[y] > 1:
        inner[y] -= 1
        return
    inner.pop()
    while y + 1 < len(rows):
        row, above = rows[y], rows[y + 1]
        low = above & -above
        if row & -row > low:
            return
        rows[y], rows[y + 1] = row | low, above ^ low
        y += 1
    if not rows[y]:
        rows.pop()


def refused(function, skew):
    try:
        function(skew)
    except ValueError:
        return True
    return False


def test_a_slide_of_the_larger_cover_fails_the_end_check(monkeypatch, jdt_by_moves):
    skews = list(all_labelled_skews(4, outer_cap=6))
    monkeypatch.setattr(evacuation, "_slide", slide_the_larger_cover)
    by_jdt, wrong = [], 0
    for skew in skews:
        if refused(jdt, skew):
            by_jdt.append(skew)
        else:
            wrong += jdt(skew) != jdt_by_moves(skew, "first")
    assert len(skews) == 2675 and len(by_jdt) == 942
    # The search tries the first corner at every step among its choices.
    assert all(refused(jdt_all_results, skew) for skew in by_jdt)
    # The end check passes the others, and the walk that
    # test_jdt_matches_a_walk_of_downward_moves_exhaustive_small compares
    # with tells 570 of them apart.
    assert wrong == 570
    # The suite fails its delta line and both jeu de taquin lines.
    monkeypatch.setattr(verify, "_slide", slide_the_larger_cover)
    result = verify_evacuation(enumerate_styl(Alphabet(3)))
    failed = [i for i, line in enumerate(result.lines) if line.startswith("FAIL ")]
    assert failed == [2, 6, 7]


def set_partitions_by_lists(letters):
    """The enumeration order: each letter joins every open block in turn,
    then opens a block of its own."""
    items = sorted(letters)
    out, blocks = [], []

    def rec(i):
        if i == len(items):
            out.append(SetPartition(tuple(map(tuple, blocks))))
            return
        for b in blocks:
            b.append(items[i])
            rec(i + 1)
            b.pop()
        blocks.append([items[i]])
        rec(i + 1)
        blocks.pop()

    rec(0)
    return out


@pytest.mark.parametrize("letters", [(), (3,), (1, 2), (2, 5, 7), (4, 1, 3, 6, 2), range(1, 7)])
def test_all_set_partitions_keeps_its_order(letters):
    assert list(all_set_partitions(letters)) == set_partitions_by_lists(letters)


@pytest.mark.parametrize("letters", [(1, 1), (0, 1), (2, 0, 2), (-1,), (3, 1, 3)])
def test_all_set_partitions_refuses_letters_as_the_constructor_does(letters):
    with pytest.raises(ValueError) as enumerated:
        next(all_set_partitions(letters))
    with pytest.raises(ValueError) as built:
        SetPartition((tuple(sorted(letters)),))
    assert str(enumerated.value) == str(built.value)


def test_the_suites_build_no_public_partition_and_check_each_skew_once(monkeypatch):
    # The window line builds a skew only to name a failing window, so only
    # the random skews go through the constructor.
    calls = Counter()

    def counted(owner, name, key):
        function = getattr(owner, name)

        def call(*args):
            calls[key] += 1
            return function(*args)

        monkeypatch.setattr(owner, name, call)

    counted(SetPartition, "__init__", "SetPartition")
    counted(SkewPartition, "__post_init__", "SkewPartition")
    assert all(result.ok for result in verify.run_suite("all", 4))
    assert calls["SetPartition"] == 0
    assert calls["SkewPartition"] == verify.RANDOM_SKEWS == 200


# ---------------------------------------------------------------------------
# A failing evacuation line names its first counterexample, and a kernel that
# refuses its input fails the line instead of the command.


def fix_theta_on_classes(monkeypatch):
    monkeypatch.setattr(verify, "theta_on_classes", lambda monoid: list(range(len(monoid))))


def evac_refuses_its_own_output(monkeypatch):
    made = {}  # holds each output, so that no id is reused

    def refusing(partition, alphabet):
        if id(partition) in made:
            raise ValueError("evac met its own output")
        out = evac(partition, alphabet)
        made[id(out)] = out
        return out

    monkeypatch.setattr(verify, "evac", refusing)


def delta_jdt_keeps_the_partition(monkeypatch):
    monkeypatch.setattr(verify, "delta_jdt", lambda partition: partition)


def pyramid_reads_the_partition_back(monkeypatch):
    monkeypatch.setattr(verify, "evac_from_right_side", lambda right, partition, alphabet: partition)


def rhombus_completion_refuses(monkeypatch):
    def refusing(c1, c2, c3):
        raise ValueError(f"{c2} is not a middle of [{c1}, {c3}]")

    monkeypatch.setattr(evacuation, "complete_rhombus", refusing)


def removal_keeps_the_partition(monkeypatch):
    monkeypatch.setattr(verify, "remove_from_partition", lambda partition, z: partition)


def window_slide_moves_the_larger_letter_in(monkeypatch):
    # Only the window line sees it: delta_jdt and jdt slide in evacuation.
    monkeypatch.setattr(verify, "_slide", slide_the_larger_cover)


def random_strategy_refuses(monkeypatch):
    def refusing(skew, strategy="first", rng=None):
        if strategy == "random":
            raise ValueError("the slid labels do not increase along row 1")
        return jdt(skew, strategy)

    monkeypatch.setattr(verify, "jdt", refusing)


# One row per way to break a kernel: the index of the one line it turns to
# FAIL at n = 3.
EVACUATION_BREAKS = [
    (0, fix_theta_on_classes),
    (1, evac_refuses_its_own_output),
    (2, delta_jdt_keeps_the_partition),
    (3, pyramid_reads_the_partition_back),
    (4, rhombus_completion_refuses),
    (5, removal_keeps_the_partition),
    (6, window_slide_moves_the_larger_letter_in),
    (7, random_strategy_refuses),
]


@pytest.mark.parametrize("line, mutate", EVACUATION_BREAKS)
def test_each_evacuation_line_fails_alone_and_names_a_counterexample(
    monkeypatch, capsys, line, mutate
):
    mutate(monkeypatch)
    result = verify_evacuation(enumerate_styl(Alphabet(3)))
    failed = [i for i, text in enumerate(result.lines) if text.startswith("FAIL ")]
    assert failed == [line]
    counterexample = result.lines[line].partition(" (first counterexample: ")[2]
    assert counterexample.endswith(")") and len(counterexample) > 1
    if line >= 6:  # a skew is named by the JSON that `styl compute jdt` reads
        named = counterexample[: counterexample.index("}") + 1]
        assert skew_from_json(json.loads(named)).inner
    assert main(["verify", "evacuation", "-n", "3"]) == 1
    out, err = capsys.readouterr()
    assert "[evacuation] FAIL" in out and err == ""


def test_a_refused_cover_fails_the_evacuation_lines_not_the_command(monkeypatch, capsys):
    cover_row = evacuation._cover_row
    monkeypatch.setattr(
        evacuation, "_cover_row", lambda lower, upper: 0 if len(upper) == 2 else cover_row(lower, upper)
    )
    assert main(["verify", "evacuation", "-n", "3"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert "FAIL n=3: pyramid right side reproduces evacuation (first counterexample: " in out
    assert "is not a covering move" in out
