import random
from itertools import combinations

import pytest

from stylic import syntactic
from stylic.columns import act_masks, act_word
from stylic.core import Alphabet, decreasing_word, letters_of, parse_word, render_word
from stylic.monoid import enumerate_styl
from stylic.syntactic import (
    all_words,
    column_separating_word,
    lambda_shape,
    left_syntactic_check,
    plactic_left_syntactic_check,
    plactic_separator,
    syntactic_congruence,
    syntactic_monoid_check,
)
from stylic.tableaux import longest_strictly_decreasing as f_decr, p_tableau


def test_f_decr_examples():
    assert f_decr(()) == 0
    assert f_decr(parse_word("dcba")) == 4
    assert f_decr(parse_word("cabd")) == 2


def test_lambda_shape_examples():
    assert lambda_shape(parse_word("cabd")) == (3, 1)
    assert lambda_shape(()) == ()
    assert lambda_shape(parse_word("cdab")) == (2, 2)


def test_column_separating_words_all_pairs():
    for n in (2, 3, 4):
        for c1, c2 in combinations(range(1 << n), 2):
            x = column_separating_word(c1, c2)
            assert act_masks(x, c1).bit_count() != act_masks(x, c2).bit_count()
    with pytest.raises(ValueError):
        column_separating_word(0, 0)


def test_separator_statistic_evaluates_differently():
    # the separating context really changes the subsequence statistic of
    # representing words, not just the abstract action
    for c1, c2 in combinations(range(1 << 3), 2):
        u, v = decreasing_word(letters_of(c1)), decreasing_word(letters_of(c2))
        x = column_separating_word(c1, c2)
        assert f_decr(x + u) != f_decr(x + v)


def bounded_context_disagreements(alphabet, maxlen, context_maxlen):
    """Oracle: the pairs of words of length <= maxlen on which bucketing by
    column and the partition by statistic profiles over every left context
    of length <= context_maxlen disagree."""
    words = all_words(alphabet, maxlen)
    contexts = all_words(alphabet, context_maxlen)
    signature = {w: tuple(f_decr(x + w) for x in contexts) for w in words}
    return [
        (w1, w2)
        for w1, w2 in combinations(words, 2)
        if (act_word(w1, frozenset()) == act_word(w2, frozenset()))
        != (signature[w1] == signature[w2])
    ]


def test_left_syntactic_check():
    report = left_syntactic_check(Alphabet(2), 6)
    assert report.ok
    assert report.classes == 4
    assert report.pairs_checked == 6
    assert bounded_context_disagreements(Alphabet(2), 6, 4) == []


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_left_check_matches_bucketing_the_word_ball(monkeypatch, n):
    # Oracle: the first word, in shortlex order, reaching each column.  At
    # length <= max(6, n) every column is reached, first by its decreasing
    # word, so both routes check the same pairs with the same words.
    alphabet = Alphabet(n)
    buckets = {}
    for w in all_words(alphabet, max(6, n)):
        buckets.setdefault(act_word(w, frozenset()), w)
    assert buckets == {s: decreasing_word(s) for s in alphabet.subsets()}
    separate = syntactic.column_separating_word
    pairs, depth = [], 0

    def recording(c1, c2):
        # The separator recurses through the module name; keep the
        # outermost call, the pair the check asks about.
        nonlocal depth
        if not depth:
            pairs.append((frozenset(letters_of(c1)), frozenset(letters_of(c2))))
        depth += 1
        try:
            return separate(c1, c2)
        finally:
            depth -= 1

    monkeypatch.setattr(syntactic, "column_separating_word", recording)
    report = left_syntactic_check(alphabet, 0)
    assert report.ok and report.classes == len(buckets)
    assert report.pairs_checked == len(buckets) * (len(buckets) - 1) // 2 == len(pairs)
    assert {(render_word(buckets[c1]), render_word(buckets[c2])) for c1, c2 in pairs} == {
        (render_word(buckets[c1]), render_word(buckets[c2]))
        for c1, c2 in combinations(sorted(buckets, key=sorted), 2)
    }


def test_left_check_fails_when_a_column_is_not_reached(monkeypatch):
    import stylic.syntactic

    monkeypatch.setattr(stylic.syntactic, "decreasing_word", lambda s: tuple(sorted(s)))
    report = left_syntactic_check(Alphabet(3), 6)
    assert not report.ok and report.classes < 8
    assert "'ab' does not reach its own column" in report.failures


def test_left_classes_examples():
    assert act_word(parse_word("ab"), frozenset()) == frozenset({1})
    assert act_word(parse_word("ba"), frozenset()) == frozenset({1, 2})
    # equal words land in the same class by construction
    w = parse_word("abab")
    assert act_word(w, frozenset()) == act_word(w, frozenset())


def test_left_statistic_depends_only_on_the_column():
    a3 = Alphabet(3)
    words = all_words(a3, 4)
    by_column = {}
    for w in words:
        by_column.setdefault(act_word(w, frozenset()), []).append(w)
    contexts = all_words(a3, 3)
    for members in by_column.values():
        rep = members[0]
        for w in members[1:6]:
            assert all(f_decr(x + rep) == f_decr(x + w) for x in contexts)


def signature_classes(monoid, stat):
    """Oracle, O(|M|^3): i ~ j iff stat[p.i.q] == stat[p.j.q] for every
    context pair (p, q), read off the multiplication table.  Classes are
    numbered by first occurrence."""
    table = monoid.multiplication_table()
    size = len(monoid)
    pairs = [(p, q) for p in range(size) for q in range(size)]
    ids = {}
    return [
        ids.setdefault(tuple(stat[table[table[p][i]][q]] for p, q in pairs), len(ids))
        for i in range(size)
    ]


def column_sizes(monoid):
    return [e.transform[0].bit_count() for e in monoid.elements]


STATISTICS = {
    "column size": column_sizes,
    "column size >= 2": lambda m: [s >= 2 for s in column_sizes(m)],
    "full column": lambda m: [s == m.alphabet.n for s in column_sizes(m)],
    "constant": lambda m: [0] * len(m),
}


@pytest.mark.parametrize("name", STATISTICS)
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_syntactic_congruence_matches_signature_oracle(n, name):
    monoid = enumerate_styl(Alphabet(n))
    stat = STATISTICS[name](monoid)
    classes = syntactic_congruence(monoid, stat)
    assert classes == signature_classes(monoid, stat)
    count = len(set(classes))
    if name == "column size":
        assert count == len(monoid)
    elif name == "constant":
        assert count == 1
    elif n >= 3:
        # refinement splits the kernel of stat but stops short of equality
        assert len(set(stat)) < count < len(monoid)


def test_syntactic_monoid_check():
    for n in (1, 2, 3):
        assert syntactic_monoid_check(Alphabet(n))


def test_bounded_contexts_recover_the_congruence_on_words():
    # two short words have the same action exactly when no bounded context
    # pair tells their statistics apart
    a2 = Alphabet(2)
    monoid = enumerate_styl(a2)
    words = all_words(a2, 4)
    contexts = all_words(a2, 3)
    signatures = {
        w: tuple(f_decr(x + w + y) for x in contexts for y in contexts)
        for w in words
    }
    for u, v in combinations(words, 2):
        same_class = monoid.class_of_word(u) == monoid.class_of_word(v)
        assert same_class == (signatures[u] == signatures[v])


def test_syntactic_monoid_check_accepts_prebuilt_monoid():
    monoid = enumerate_styl(Alphabet(2))
    assert syntactic_monoid_check(Alphabet(2), monoid)


def test_shifting_action_on_almost_equal_columns():
    # acting with the middle letters a_{n-1}..a_2 of a strictly decreasing
    # column swaps its top letter pattern one step down
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(2, 5)
        letters = sorted(rng.sample(range(1, 10), n), reverse=True)
        spare = [x for x in range(1, letters[-1]) ]
        tail = tuple(sorted(rng.sample(spare, min(len(spare), rng.randint(0, 2))), reverse=True))
        gamma = frozenset(letters[:-2] + [letters[-1]]) | frozenset(tail)
        w = tuple(letters[1:-1])
        expected = frozenset(letters[1:]) | frozenset(tail)
        assert act_word(w, gamma) == expected


def test_plactic_separator_examples():
    a4 = Alphabet(4)
    assert plactic_separator(parse_word("cabd"), parse_word("cdab"), a4) == ()
    a3 = Alphabet(3)
    x = plactic_separator(parse_word("acb"), parse_word("bac"), a3)
    assert x is not None
    assert lambda_shape(x + parse_word("acb")) != lambda_shape(x + parse_word("bac"))
    with pytest.raises(ValueError):
        plactic_separator(parse_word("baa"), parse_word("aba"), a3)


def test_plactic_left_syntactic_check():
    report2 = plactic_left_syntactic_check(Alphabet(2), 5)
    assert report2.ok
    report3 = plactic_left_syntactic_check(Alphabet(3), 4)
    assert report3.ok
    assert report3.classes == 71


def test_equivalent_pair_never_separated():
    a2 = Alphabet(2)
    u, v = parse_word("baa"), parse_word("aba")
    assert p_tableau(u) == p_tableau(v)
    for x in all_words(a2, 4):
        assert lambda_shape(x + u) == lambda_shape(x + v)


def test_verify_syntactic_runs_the_two_sided_check_at_n7(monkeypatch):
    # The left and plactic checks take seconds at n = 7; stub them so that
    # only the two-sided check on the n = 7 monoid runs.
    from stylic import verify
    from stylic.syntactic import CongruenceReport

    monkeypatch.setattr(
        verify, "left_syntactic_check",
        lambda alphabet, maxlen: CongruenceReport(classes=2 ** alphabet.n, pairs_checked=0),
    )
    monkeypatch.setattr(
        verify, "plactic_left_syntactic_check",
        lambda alphabet, maxlen: CongruenceReport(classes=0, pairs_checked=0),
    )
    result = verify.verify_syntactic(enumerate_styl(Alphabet(7)))
    assert result.ok
    assert result.lines[1] == "PASS n=7: two-sided congruence of the statistic on the monoid is equality"
