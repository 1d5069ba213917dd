"""The value types' invariant checks: the mask-level checks against the
tuple-level validators they replaced, kept here as oracles; every kernel
result against the value those oracles build; and a count showing that the
canonical forms of a word pass through the tuple-level path not at all."""

import subprocess
import sys
from functools import cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stylic
from stylic import monoid
from stylic.columns import act_word
from stylic.core import Alphabet, mask_of, theta
from stylic.evacuation import delta_direct, delta_jdt, evac, evac_via_pyramid
from stylic.monoid import (
    NTableau,
    SetPartition,
    delta_word,
    from_partition,
    left_insert,
    n_insert,
    n_tableau,
    pi,
    to_partition,
)
from stylic.tableaux import Tableau, p_tableau

SRC = str(Path(__file__).resolve().parent.parent / "src")
SETTINGS = settings(max_examples=200, deadline=None)


# ---------------------------------------------------------------------------
# Oracles: the tuple-level validators the mask-level checks replaced.


def ntableau_rows_oracle(rows):
    """Raise ValueError unless the rows form an N-tableau: nonempty,
    strictly increasing, each inside the row below, minima increasing."""
    prev = prev_min = None
    for row in rows:
        if not row:
            raise ValueError("N-tableau rows must be nonempty")
        if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
            raise ValueError(f"row {row} is not strictly increasing")
        s = frozenset(row)
        if prev is not None:
            if not s <= prev:
                raise ValueError("each row must be contained in the row below")
            if row[0] <= prev_min:
                raise ValueError("row minima must strictly increase")
        prev, prev_min = s, row[0]


def partition_blocks_oracle(blocks):
    """The blocks sorted, and ordered by their minima; ValueError unless
    they are nonempty and pairwise disjoint."""
    if any(not b for b in blocks):
        raise ValueError("partition blocks must be nonempty")
    normalized = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
    seen: set[int] = set()
    for b in normalized:
        if len(set(b)) != len(b) or seen & set(b):
            raise ValueError("partition blocks must be disjoint")
        seen |= set(b)
    return normalized


def tableau_rows_oracle(rows):
    """Raise ValueError unless the rows form a semistandard tableau."""
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


def oracle_ntableau(rows):
    """An N-tableau validated by the oracle alone, past the constructor."""
    ntableau_rows_oracle(rows)
    tableau = object.__new__(NTableau)
    object.__setattr__(tableau, "_masks", tuple(map(mask_of, rows)))
    return tableau


def oracle_partition(blocks):
    """A partition normalized and validated by the oracle alone."""
    partition = object.__new__(SetPartition)
    object.__setattr__(partition, "_masks", tuple(map(mask_of, partition_blocks_oracle(blocks))))
    return partition


def outcome(build, value):
    """What building a value does: ("ok", result) or ("error", message)."""
    try:
        return "ok", build(value)
    except ValueError as exc:
        return "error", str(exc)


# ---------------------------------------------------------------------------
# The public constructors accept and reject exactly what the oracles do.

letters = st.integers(1, 9) | st.integers(60, 70)
lines = st.lists(letters, max_size=6).map(tuple)


@st.composite
def near(draw, tableau_of):
    """The rows of the tableau of a random word, often with one change: a
    letter added to a row or dropped from it, a row reversed, two rows
    swapped, or all rows reversed."""
    rows = list(tableau_of(tuple(draw(st.lists(st.integers(1, 9), max_size=12)))).rows)
    change = draw(st.sampled_from(["none", "add", "drop", "reverse", "swap", "upside down"]))
    if rows and change in ("add", "drop", "reverse"):
        i = draw(st.integers(0, len(rows) - 1))
        row = list(rows[i])
        if change == "add":
            row.insert(draw(st.integers(0, len(row))), draw(letters))
        elif change == "drop":
            del row[draw(st.integers(0, len(row) - 1))]
        else:
            row.reverse()
        rows[i] = tuple(row)
    elif len(rows) > 1 and change == "swap":
        i = draw(st.integers(0, len(rows) - 2))
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
    elif change == "upside down":
        rows.reverse()
    return tuple(rows)


@SETTINGS
@given(st.lists(lines, max_size=5).map(tuple) | near(n_tableau))
def test_ntableau_constructor_matches_the_oracle(rows):
    expected = outcome(oracle_ntableau, rows)
    got = outcome(NTableau, rows)
    assert got == expected


@SETTINGS
@given(st.lists(lines, max_size=5).map(tuple))
def test_partition_constructor_matches_the_oracle(blocks):
    expected = outcome(oracle_partition, blocks)
    got = outcome(SetPartition, blocks)
    assert got == expected
    if got[0] == "ok":
        assert got[1].blocks == expected[1].blocks
        assert got[1].masks() == [mask_of(b) for b in expected[1].blocks]


@SETTINGS
@given(st.lists(st.lists(st.integers(1, 6), max_size=5).map(tuple), max_size=4).map(tuple) | near(p_tableau))
def test_tableau_constructor_matches_the_oracle(rows):
    expected = outcome(tableau_rows_oracle, rows)
    got = outcome(Tableau, rows)
    assert got[0] == expected[0]
    if got[0] == "error":
        assert got[1] == expected[1]


@pytest.mark.parametrize(
    "build, value",
    [
        (NTableau, ((0, 1),)),
        (NTableau, ((1, 2), (-3, 2))),
        (SetPartition, ((2, 0),)),
        (SetPartition, ((1,), (-1,))),
    ],
)
def test_letters_below_one_are_refused(build, value):
    with pytest.raises(ValueError, match="is not a letter: letters are positive integers"):
        build(value)


# ---------------------------------------------------------------------------
# The private from-masks constructors.

MALFORMED_ROWS = [
    ([0], "N-tableau rows must be nonempty"),
    ([0b11, 0], "N-tableau rows must be nonempty"),
    ([-1], "N-tableau rows must be nonempty"),
    ([0b011, 0b100], "each row must be contained in the row below"),
    ([0b011, 0b011], "row minima must strictly increase"),
    ([0b110, 0b111], "each row must be contained in the row below"),
]
MALFORMED_BLOCKS = [
    ([0], "partition blocks must be nonempty"),
    ([0b01, -4], "partition blocks must be nonempty"),
    ([0b011, 0b110], "partition blocks must be disjoint"),
    ([0b10, 0b01], "partition blocks must be ordered by their minima"),
    ([0b0110, 0b0001], "partition blocks must be ordered by their minima"),
]


@pytest.mark.parametrize("masks, message", MALFORMED_ROWS)
def test_malformed_row_masks_are_refused(masks, message):
    with pytest.raises(ValueError, match=message):
        NTableau._from_masks(masks)


@pytest.mark.parametrize("masks, message", MALFORMED_BLOCKS)
def test_malformed_block_masks_are_refused_not_sorted(masks, message):
    with pytest.raises(ValueError, match=message):
        SetPartition._from_masks(masks)


def test_malformed_masks_are_refused_under_optimize():
    script = f"""
from stylic.monoid import NTableau, SetPartition
for build, cases in ((NTableau._from_masks, {MALFORMED_ROWS!r}),
                     (SetPartition._from_masks, {MALFORMED_BLOCKS!r})):
    for masks, message in cases:
        try:
            build(masks)
        except ValueError as exc:
            print(exc)
        else:
            print("accepted", masks)
"""
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={"PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.splitlines() == [message for _, message in MALFORMED_ROWS + MALFORMED_BLOCKS]


def test_from_masks_values_equal_and_hash_like_public_ones():
    t = NTableau._from_masks([0b1111, 0b0100])
    assert t == NTableau(((1, 2, 3, 4), (3,))) and hash(t) == hash(NTableau(((1, 2, 3, 4), (3,))))
    r = SetPartition._from_masks([0b1011, 0b0100])
    assert r == SetPartition(((4, 2, 1), (3,))) and hash(r) == hash(SetPartition(((3,), (1, 2, 4))))
    assert r.masks() == [0b1011, 0b0100]


# ---------------------------------------------------------------------------
# The masks are the values: nothing else is stored, nothing can be assigned,
# and the kernels never derive letters.

MASK_VALUES = [
    (NTableau(((1, 2, 3), (2,))), (0b111, 0b010)),
    (NTableau(()), ()),
    (SetPartition(((3,), (2, 1))), (0b011, 0b100)),
    (SetPartition(()), ()),
]


@pytest.mark.parametrize("value, masks", MASK_VALUES)
def test_values_store_only_their_masks_and_refuse_assignment(value, masks):
    assert vars(value) == {"_masks": masks}
    before = hash(value)
    for name in ("_masks", "rows", "blocks", "shape", "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, ())
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert vars(value) == {"_masks": masks} and hash(value) == before


def test_kernels_never_derive_letters(monkeypatch):
    # Each result is compared with the one built before letters_of breaks.
    alphabet, letters = Alphabet(7), (1, 4, 7)
    words = [(3, 1, 2, 4), (7, 6, 1, 1, 5, 7, 2), (1,), (), (2, 5, 2, 1, 4)]
    longer = [v for w in words for x in letters for v in (w + (x,), (x,) + w)]
    tableaux = {w: n_tableau(w) for w in words + longer}
    partitions = {w: pi(w) for w in words}
    images = {w: (evac(r, alphabet), r.block_count() and delta_direct(r)) for w, r in partitions.items()}

    def refuse(mask):
        raise RuntimeError(f"letters_of({mask}) called")

    monkeypatch.setattr(monoid, "letters_of", refuse)
    assert len(monoid.StylicMonoid(Alphabet(4))) == 52
    for w, r in partitions.items():
        t = tableaux[w]
        assert n_tableau(w) == t and pi(w) == r
        assert to_partition(t) == r and from_partition(r) == t
        for x in letters:
            assert n_insert(t, x) == tableaux[w + (x,)]
            assert left_insert(x, t) == tableaux[(x,) + w]
        assert (evac(r, alphabet), r.block_count() and delta_direct(r)) == images[w]
    with pytest.raises(RuntimeError, match="letters_of"):
        n_tableau((2, 1)).rows


# ---------------------------------------------------------------------------
# Every kernel result, exhaustively at n <= 5 on words of length <= 6.


def rows_oracle(w):
    """The N-tableau rows of w: its support, then those of its bumped-letter
    word."""
    rows = []
    while w:
        rows.append(tuple(sorted(set(w))))
        w = delta_word(w)
    return tuple(rows)


def row_differences(rows):
    sets = [set(row) for row in rows] + [set()]
    return tuple(tuple(a - b) for a, b in zip(sets, sets[1:]))


def same_value(got, expected):
    return got == expected and hash(got) == hash(expected)


@pytest.mark.parametrize("n", range(1, 6))
def test_every_kernel_result_is_the_oracle_built_value(n):
    alphabet = Alphabet(n)
    words = [w for length in range(7) for w in product(range(1, n + 1), repeat=length)]
    tableaux = {w: n_tableau(w) for w in words}

    @cache
    def partition_facts(r):
        image = evac(r, alphabet)
        assert same_value(image, oracle_partition(evac_via_pyramid(r, alphabet).blocks))
        if r.blocks:
            assert same_value(delta_direct(r), oracle_partition(delta_jdt(r).blocks))
        return image

    for w, t in tableaux.items():
        tableau_rows_oracle(p_tableau(w).rows)
        rows = rows_oracle(w)
        assert same_value(t, oracle_ntableau(rows))
        r = to_partition(t)
        expected = oracle_partition(row_differences(rows))
        assert same_value(r, expected) and same_value(pi(w), expected)
        assert same_value(from_partition(r), t)
        assert partition_facts(r) == pi(theta(w, alphabet))
        if len(w) < 6:
            for x in alphabet.letters:
                assert same_value(n_insert(t, x), tableaux[w + (x,)])
                assert same_value(left_insert(x, t), tableaux[(x,) + w])


# ---------------------------------------------------------------------------
# Validated once: the canonical forms never take the tuple-level path.


def test_canonical_forms_skip_the_public_constructors(monkeypatch):
    calls = {"NTableau": 0, "SetPartition": 0, "Tableau": 0, "rows": 0, "blocks": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for name, cls in (("NTableau", NTableau), ("SetPartition", SetPartition)):
        monkeypatch.setattr(cls, "__init__", counting(name, cls.__init__))
    monkeypatch.setattr(Tableau, "__post_init__", counting("Tableau", Tableau.__post_init__))
    monkeypatch.setattr(monoid, "_check_row_masks", counting("rows", monoid._check_row_masks))
    monkeypatch.setattr(monoid, "_check_block_masks", counting("blocks", monoid._check_block_masks))

    alphabet, empty = Alphabet(10), frozenset()
    words = [(3, 1, 2, 4), (10, 9, 1, 1, 5, 7, 2), (1,), ()]
    for w in words:
        p = stylic.p_tableau(w)
        t = stylic.n_tableau(w)
        r = stylic.to_partition(t)
        stylic.theta(w, alphabet)
        stylic.evac(r, alphabet)
        act_word(w, empty)
        assert p.first_column() == act_word(w, empty)
    # One check per value built: P, N, pi and evac of each word.
    assert calls == {
        "NTableau": 0,
        "SetPartition": 0,
        "Tableau": len(words),
        "rows": len(words),
        "blocks": 2 * len(words),
    }
