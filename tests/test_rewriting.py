import os
import random
import re
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from stylic import rewriting, verify
from stylic.cli import main
from stylic.columns import column_leq, parse_column
from stylic.core import Alphabet, parse_word
from stylic.monoid import enumerate_styl
from stylic.rewriting import (
    PairTable,
    _bfs,
    _columns,
    _masks,
    _measure_less,
    _redexes,
    _rewrite,
    check_column_word,
    column_pair_reduce,
    congruence_equal,
    congruence_reaches,
    knuth_relations,
    local_confluence_check,
    normalize_column_word,
    render_column_word,
    stylic_relations,
    tableau_column_word,
)
from stylic.tableaux import p_tableau


def words_up_to(n, maxlen):
    for length in range(maxlen + 1):
        yield from product(range(1, n + 1), repeat=length)


def test_relation_counts():
    assert len(knuth_relations(Alphabet(1))) == 0
    assert len(stylic_relations(Alphabet(1))) == 1
    assert len(knuth_relations(Alphabet(2))) == 2
    assert len(knuth_relations(Alphabet(3))) == 8
    assert len(stylic_relations(Alphabet(3))) == 11


def test_knuth_relations_preserve_the_tableau():
    for n in (2, 3, 4):
        for l, r in knuth_relations(Alphabet(n)):
            assert p_tableau(l) == p_tableau(r)


def test_stylic_relations_preserve_the_action():
    for n in (2, 3):
        monoid = enumerate_styl(Alphabet(n))
        for l, r in stylic_relations(Alphabet(n)):
            assert monoid.class_of_word(l) == monoid.class_of_word(r)


def test_congruence_equal_worked_example():
    a4 = Alphabet(4)
    cabd, cdab = parse_word("cabd"), parse_word("cdab")
    assert congruence_equal(cabd, cdab, stylic_relations(a4), 6)
    assert not congruence_equal(cabd, cdab, knuth_relations(a4), 10)
    assert congruence_equal(cabd, cabd, stylic_relations(a4), 4)


def test_congruence_class_small():
    a1 = Alphabet(1)
    reached, pruned = _bfs((1, 1), stylic_relations(a1), 4)
    assert {tuple(s) for s in reached} == {(1,), (1, 1), (1, 1, 1), (1, 1, 1, 1)}
    assert pruned  # the idempotent relation could have grown past the cap


def test_congruence_reaches_early_exit():
    a2 = Alphabet(2)
    targets = [(1,), (1, 1, 1)]
    reached, _ = congruence_reaches((1, 1), targets, stylic_relations(a2), 5)
    assert reached == {(1,), (1, 1, 1)}


def test_congruence_cap_guard():
    with pytest.raises(ValueError):
        congruence_equal((1,) * 5, (1,), stylic_relations(Alphabet(1)), 4)


def col(text):
    return parse_column(text)


def parse_column_word(text):
    """Read "(dba)(ba)(c)"; "1" or "" is the empty column word."""
    text = text.strip()
    if text in ("", "1"):
        return ()
    groups = re.findall(r"\(([^()]*)\)", text)
    if "".join(f"({g})" for g in groups) != text:
        raise ValueError(f"bad column word {text!r}: expected (..)(..) groups")
    word = tuple(parse_column(g) for g in groups)
    check_column_word(word)
    return word


def test_column_pair_reduce_examples():
    assert column_pair_reduce(col("b"), col("a")) == (col("ba"), frozenset())
    assert column_pair_reduce(col("ca"), col("b")) == (col("ca"), col("b"))
    assert column_pair_reduce(col("a"), col("a")) == (col("a"), col("a"))


def test_column_pair_reduce_properties(flatten_column_word):
    a4 = Alphabet(4)
    nonempty = [c for c in a4.subsets() if c]
    for c1 in nonempty:
        for c2 in nonempty:
            reduced, leftover = column_pair_reduce(c1, c2)
            assert c1 <= reduced
            assert column_leq(reduced, c1)
            if leftover:
                assert column_leq(reduced, leftover)
            fixed = (reduced, leftover) == (c1, c2)
            assert fixed == column_leq(c1, c2)
            # the flattened words stay in the same insertion class
            before = flatten_column_word((c1, c2))
            after = flatten_column_word((reduced, leftover) if leftover else (reduced,))
            assert p_tableau(before) == p_tableau(after)


def test_normalize_examples():
    assert normalize_column_word((col("b"), col("a"))) == (col("ba"),)
    already_sorted = (col("dba"), col("ba"), col("c"))
    assert normalize_column_word(already_sorted) == already_sorted
    t = p_tableau(parse_word("cab"))
    assert normalize_column_word(tableau_column_word(t)) == tableau_column_word(t)
    letters = tuple(frozenset({x}) for x in parse_word("cab"))
    assert normalize_column_word(letters) == tableau_column_word(t)


def test_normal_forms_match_tableau_columns(three_strategy_normal_forms):
    rng, table = random.Random(3), PairTable()
    for w in words_up_to(3, 5):
        if not w:
            continue
        letters = tuple(frozenset({x}) for x in w)
        expected = tableau_column_word(p_tableau(w))
        assert normalize_column_word(letters) == expected
        assert three_strategy_normal_forms(_masks(letters), rng, table) == {_masks(expected)}


def test_rewrite_steps_decrease_the_measure_and_preserve_the_class(flatten_column_word):
    rng = random.Random(5)
    nonempty = [c for c in Alphabet(3).subsets() if c]
    table = PairTable()
    for _ in range(300):
        columns = tuple(rng.choice(nonempty) for _ in range(rng.randint(1, 4)))
        word = _masks(columns)
        for i in _redexes(word, table):
            after = _rewrite(word, i, table)
            assert _measure_less(after, word, table)
            assert p_tableau(flatten_column_word(_columns(after))) == p_tableau(
                flatten_column_word(columns)
            )


def test_local_confluence():
    report2 = local_confluence_check(Alphabet(2))
    assert report2.ok and report2.triples == 27
    report3 = local_confluence_check(Alphabet(3))
    assert report3.ok and report3.triples == 343
    assert report3.nonjoinable == [] and report3.measure_violations == []


def test_all_normal_forms_unique(all_normal_forms):
    nonempty = [c for c in Alphabet(3).subsets() if c]
    rng = random.Random(1)
    for _ in range(100):
        word = tuple(rng.choice(nonempty) for _ in range(rng.randint(1, 4)))
        forms, violations = all_normal_forms(_masks(word), PairTable())
        assert len(forms) == 1 and not violations


def exhaustive_confluence(alphabet, all_normal_forms):
    """The scan by every rewrite order: each overlapping peak must reach one
    normal form, and every step on the way must decrease the measure.
    Returns the verdict, the counts and the peaks that do not rejoin."""
    table = PairTable()
    columns = range(1, 1 << alphabet.n)
    overlapping, nonjoinable, violations = 0, [], []
    for peak in product(columns, repeat=3):
        if table[peak[:2]] is None or table[peak[1:]] is None:
            continue
        overlapping += 1
        forms, steps = all_normal_forms(peak, table)
        violations += steps
        if len(forms) != 1:
            nonjoinable.append(render_column_word(_columns(peak)))
    ok = not nonjoinable and not violations
    return ok, len(columns) ** 3, overlapping, nonjoinable


# The rule fakes below are keyed by column masks: (a) is 1, (b) 2, (ba) 3
# and (c) 4.
# (b)(a) -> (c)(a) -> (b)(a): the first rule raises the measure, since (c)
# comes after (b) in the column order.
TWO_CYCLE = {(2, 1): (4, 1), (4, 1): (2, 1)}

# Each change of rules, and the least n at which the system stops being
# confluent (None: it stays confluent).
RULE_CHANGES = {
    "none": ({}, None),
    "stray (a)": ({(2, 1): (3, 1)}, 3),
    "two-cycle": (TWO_CYCLE, 2),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("change", RULE_CHANGES)
def test_critical_pairs_agree_with_every_rewrite_order(monkeypatch, all_normal_forms, change, n):
    reduce = rewriting.reduce_masks
    rules, fails_from = RULE_CHANGES[change]
    monkeypatch.setattr(
        rewriting, "reduce_masks", lambda c1, c2: rules.get((c1, c2)) or reduce(c1, c2)
    )
    report = local_confluence_check(Alphabet(n))
    ok, triples, overlapping, nonjoinable = exhaustive_confluence(Alphabet(n), all_normal_forms)
    assert (report.ok, report.triples, report.overlapping) == (ok, triples, overlapping)
    # Two reducts with different leftmost normal forms are two normal forms
    # of their peak.
    assert set(report.nonjoinable) <= set(nonjoinable)
    assert ok == (fails_from is None or n < fails_from)
    if change == "two-cycle" and not ok:
        assert report.measure_violations == ["(b)(a)"] and report.nonjoinable == []


def test_a_rule_that_does_not_decrease_the_measure_fails_its_line(monkeypatch):
    reduce = rewriting.reduce_masks
    monkeypatch.setattr(
        rewriting, "reduce_masks", lambda c1, c2: TWO_CYCLE.get((c1, c2)) or reduce(c1, c2)
    )
    result = verify.verify_confluence(3)
    assert result.lines[0] == (
        "FAIL n=3: 343 column triples scanned, 42 overlapping peaks, all joinable, "
        "measure strictly decreasing (first counterexample: measure violation at (b)(a))"
    )


# `styl verify confluence -n 3` with TWO_CYCLE in place of the rules.
CYCLING_VERIFY = """
import sys
from stylic import rewriting
from stylic.cli import main
b, c, a = 2, 4, 1
reduce, cycle = rewriting.reduce_masks, {(b, a): (c, a), (c, a): (b, a)}
rewriting.reduce_masks = lambda c1, c2: cycle.get((c1, c2)) or reduce(c1, c2)
sys.exit(main(["verify", "confluence", "-n", "3"]))
"""


def test_a_cycling_rule_table_fails_verify_without_normalizing():
    # In a subprocess with a timeout, so that a normalization that cycles
    # fails the test instead of hanging it.
    src = str(Path(rewriting.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", CYCLING_VERIFY], capture_output=True, text=True, env=env, timeout=60
    )
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout.splitlines() == [
        "[confluence] FAIL",
        "  FAIL n=3: 343 column triples scanned, 42 overlapping peaks, all joinable, "
        "measure strictly decreasing (first counterexample: measure violation at (b)(a))",
        "  FAIL n=3: normal forms equal tableau columns under every rewriting order, "
        "certified on all 49 column pairs (first counterexample: (b)(a))",
    ]


def test_column_word_text_round_trip():
    word = (col("dba"), col("ba"), col("c"))
    assert render_column_word(word) == "(dba)(ba)(c)"
    assert parse_column_word("(dba)(ba)(c)") == word
    assert parse_column_word("1") == ()
    with pytest.raises(ValueError):
        parse_column_word("(dba")
    with pytest.raises(ValueError):
        parse_column_word("()")


def test_no_rule_applies_to_a_pair_in_column_order():
    word = _masks((col("ba"), col("b")))
    assert PairTable()[word] is None
    assert _redexes(word, PairTable()) == []


def test_mask_kernel_matches_tableau_columns_on_all_short_column_words(
    flatten_column_word, all_normal_forms, three_strategy_normal_forms
):
    # Every column word of length <= 4 over 3 letters, against P of its
    # flattened word.
    nonempty = [c for c in Alphabet(3).subsets() if c]
    rng = random.Random(11)
    table = rewriting.PairTable()
    count = 0
    for length in range(1, 5):
        for word in product(nonempty, repeat=length):
            count += 1
            expected = tableau_column_word(p_tableau(flatten_column_word(word)))
            assert all_normal_forms(_masks(word), table) == ({_masks(expected)}, [])
            assert normalize_column_word(word) == expected
            assert three_strategy_normal_forms(_masks(word), rng, table) == {_masks(expected)}
    assert count == 7 + 7**2 + 7**3 + 7**4


def test_confluence_reduces_each_column_pair_once(monkeypatch):
    reduce = rewriting.reduce_masks
    calls = []

    def counted(c1, c2):
        calls.append((c1, c2))
        return reduce(c1, c2)

    monkeypatch.setattr(rewriting, "reduce_masks", counted)
    assert verify.verify_confluence(5).ok
    assert calls and len(calls) == len(set(calls))
    assert len(calls) <= 31 * 31  # pairs of nonempty columns at n = 5


def test_confluence_fails_on_one_wrong_pair(monkeypatch, capsys):
    reduce = rewriting.reduce_masks

    def wrong(c1, c2):
        # (b)(a) should become (ba); keep a stray (a) behind instead.
        if (c1, c2) == (2, 1):
            return 3, 1
        return reduce(c1, c2)

    monkeypatch.setattr(rewriting, "reduce_masks", wrong)
    result = verify.verify_confluence(3)
    assert not result.ok
    assert result.lines[0].startswith("FAIL n=3: ")
    assert "(first counterexample: non-joinable peak " in result.lines[0]
    assert result.lines[1].startswith("FAIL n=3: normal forms ")
    assert main(["verify", "confluence", "-n", "3"]) == 1
    assert "[confluence] FAIL" in capsys.readouterr().out


# Changes of rules, each breaking one or two of the certificate's three
# facts: the kernel changed, its changed values, and the pair the
# certificate names.
B, A = 2, 1
CERTIFICATE_BREAKS = {
    # (b)(a) is no tableau, yet no rule applies to it (fact 1 alone).
    "irreducible non-tableau": ("leq_masks", {(B, A): True}, "(b)(a)"),
    # (a)(b) is a tableau, yet it rewrites to itself (facts 1 and 3).
    "reducible tableau": ("leq_masks", {(A, B): False}, "(a)(b)"),
    # A stray (a) stays behind, so P changes (fact 2 alone).
    "wrong": ("reduce_masks", {(B, A): (3, A)}, "(b)(a)"),
    # The rule keeps (b)(a) as it is, so the measure stays (fact 3 alone).
    "loop": ("reduce_masks", {(B, A): (B, A)}, "(b)(a)"),
    # Facts 2 and 3 both fail at (b)(a).
    "two-cycle": ("reduce_masks", TWO_CYCLE, "(b)(a)"),
}


def change_rules(monkeypatch, name, changed):
    kernel = getattr(rewriting, name)
    monkeypatch.setattr(
        rewriting, name, lambda c1, c2: changed[c1, c2] if (c1, c2) in changed else kernel(c1, c2)
    )


@pytest.mark.parametrize("change", CERTIFICATE_BREAKS)
def test_each_broken_fact_fails_the_normal_form_line_and_names_the_pair(monkeypatch, capsys, change):
    name, changed, pair = CERTIFICATE_BREAKS[change]
    change_rules(monkeypatch, name, changed)
    result = verify.verify_confluence(3)
    assert result.lines[1] == (
        "FAIL n=3: normal forms equal tableau columns under every rewriting order, "
        f"certified on all 49 column pairs (first counterexample: {pair})"
    )
    assert main(["verify", "confluence", "-n", "3"]) == 1
    out, err = capsys.readouterr()
    assert "[confluence] FAIL" in out and err == ""


def test_a_reduction_refused_above_the_scan_fails_the_normal_form_line(monkeypatch, capsys):
    # The scan stops at n = 4; the certificate reads every pair at n = 5.
    reduce = rewriting.reduce_masks

    def refusing(c1, c2):
        if (c1 | c2) & 1 << 4:  # the letter e
            raise ValueError("broken reduce")
        return reduce(c1, c2)

    monkeypatch.setattr(rewriting, "reduce_masks", refusing)
    result = verify.verify_confluence(5)
    assert result.lines[0].startswith("PASS n=4: ")
    assert result.lines[1].startswith("FAIL n=5: ")
    assert result.lines[1].endswith(" (first counterexample: (a)(ea): broken reduce)")
    assert main(["verify", "confluence", "-n", "5"]) == 1
    out, err = capsys.readouterr()
    assert "[confluence] FAIL" in out and err == ""


def test_a_reduction_refused_inside_the_scan_fails_both_lines(monkeypatch, capsys):
    # At n <= 4 the scan meets the refused pair first, and names it as the
    # certificate does.
    reduce = rewriting.reduce_masks

    def refusing(c1, c2):
        if (c1 | c2) & 1 << 2:  # the letter c
            raise ValueError("broken reduce")
        return reduce(c1, c2)

    monkeypatch.setattr(rewriting, "reduce_masks", refusing)
    report = local_confluence_check(Alphabet(3))
    assert not report.ok and report.refused[0] == "(a)(ca): broken reduce"
    result = verify.verify_confluence(3)
    assert [line[:5] for line in result.lines] == ["FAIL ", "FAIL "]
    for line in result.lines:
        assert line.endswith(" (first counterexample: (a)(ca): broken reduce)")
    assert main(["verify", "confluence", "-n", "3"]) == 1
    out, err = capsys.readouterr()
    assert "[confluence] FAIL" in out and err == ""


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("change", ["rules", "wrong"])
def test_the_pair_certificate_agrees_with_the_word_loop(
    monkeypatch, three_strategy_normal_forms, change, n
):
    # The word loop normalizes every word of length <= 6 three ways, as
    # `verify confluence` did before it certified pairs.
    changed = {} if change == "rules" else CERTIFICATE_BREAKS[change][1]
    change_rules(monkeypatch, "reduce_masks", changed)
    certified = verify.normal_form_counterexample(n, PairTable()) is None
    rng, table = random.Random(7), PairTable()
    looped = all(
        three_strategy_normal_forms(_masks(tuple(frozenset({x}) for x in w)), rng, table)
        == {_masks(tableau_column_word(p_tableau(w)))}
        for w in words_up_to(n, 6)
        if w
    )
    assert certified == looped == (not changed or n < 2)  # (b)(a) needs two letters
