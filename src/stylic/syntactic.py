"""Syntactic congruences of word statistics.

Two statistics matter here: the length of the longest strictly decreasing
subsequence (whose left congruence classes are indexed by the columns, and
whose syntactic monoid is the enumerated monoid of column transformations),
and the shape of the insertion tableau (whose left syntactic congruence is
the tableau congruence itself, certified by constructed separating contexts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Hashable, Iterable, Optional, Sequence

from .columns import EMPTY_COLUMN, act_word
from .core import Alphabet, LetterSet, Word, decreasing_word, render_word
from .monoid import StylicMonoid, enumerate_styl
from .tableaux import Shape, Tableau, longest_strictly_decreasing, p_tableau


def lambda_shape(w: Word) -> Shape:
    """The shape of the insertion tableau of w."""
    return p_tableau(w).shape()


@dataclass
class CongruenceReport:
    classes: int
    pairs_checked: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def all_words(alphabet: Alphabet, maxlen: int) -> list[Word]:
    out: list[Word] = [()]
    frontier: list[Word] = [()]
    for _ in range(maxlen):
        frontier = [w + (x,) for w in frontier for x in alphabet.letters]
        out.extend(frontier)
    return out


def column_separating_word(c1: LetterSet, c2: LetterSet, alphabet: Alphabet) -> Word:
    """A word x whose action sends the two distinct columns to columns of
    different sizes, built the way the left-congruence classes are told
    apart: by size, then by largest letter, then by shifting the prefix
    above the first disagreement."""
    if c1 == c2:
        raise ValueError("columns are equal; no separating word exists")
    if len(c1) != len(c2):
        return ()
    d1, d2 = decreasing_word(c1), decreasing_word(c2)
    if d1[0] != d2[0]:
        return (max(d1[0], d2[0]),)
    p = next(i for i in range(len(d1)) if d1[i] != d2[i])
    bigger = max(d1[p], d2[p])
    w = d1[1:p] + (bigger,)
    rest = column_separating_word(act_word(w, c1), act_word(w, c2), alphabet)
    x = rest + w
    if len(act_word(x, c1)) == len(act_word(x, c2)):
        raise ValueError(f"{render_word(x)!r} does not separate the two columns")
    return x


def left_syntactic_check(alphabet: Alphabet, maxlen: int) -> CongruenceReport:
    """Certify that the left syntactic classes of the decreasing-subsequence
    statistic are the 2^n columns.  A word's class is the column its action
    produces from the empty column, and the statistic is that column's size,
    so words reaching the same column are equivalent.  Each column S is
    reached by decreasing_word(S), and a separating context is constructed
    and verified (with the statistic evaluated directly) for every pair of
    distinct columns.  This covers every word, so maxlen bounds nothing;
    the callers pass their word-length cap and it is not read.
    """
    buckets: dict[LetterSet, Word] = {}
    failures: list[str] = []
    for column in alphabet.subsets():
        w = decreasing_word(column)
        if act_word(w, EMPTY_COLUMN) == column:
            buckets[column] = w
        else:
            failures.append(f"{render_word(w)!r} does not reach its own column")
    report = CongruenceReport(classes=len(buckets), pairs_checked=0, failures=failures)
    for c1, c2 in combinations(sorted(buckets, key=sorted), 2):
        report.pairs_checked += 1
        u, v = buckets[c1], buckets[c2]
        x = column_separating_word(c1, c2, alphabet)
        if longest_strictly_decreasing(x + u) == longest_strictly_decreasing(x + v):
            report.failures.append(
                f"context {render_word(x)!r} fails to separate "
                f"{render_word(u)!r} and {render_word(v)!r}"
            )
    return report


def syntactic_congruence(monoid: StylicMonoid, stat: Sequence[Hashable]) -> list[int]:
    """The two-sided syntactic congruence of a statistic on the monoid's
    elements: i ~ j iff stat[p.i.q] == stat[p.j.q] for all p, q.  It is the
    coarsest partition that refines the kernel of stat and is stable under
    the 2n one-letter right and left multiplications, found by Moore
    refinement: re-key every element by its class and the classes of its
    one-letter neighbours until the number of classes stops growing.
    Returns the class of each element, numbered by first occurrence."""
    steps = [*monoid.right_by_letter.values(), *monoid.left_by_letter.values()]
    classes = _first_occurrence_ids(stat)
    while True:
        refined = _first_occurrence_ids(
            (c, *(classes[step[i]] for step in steps)) for i, c in enumerate(classes)
        )
        if max(refined) == max(classes):
            return classes
        classes = refined


def _first_occurrence_ids(keys: Iterable[Hashable]) -> list[int]:
    ids: dict = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


def _statistic_congruence(monoid: StylicMonoid) -> list[int]:
    """The two-sided syntactic congruence of the induced statistic
    m -> |m . empty| on the monoid, as `syntactic_congruence` numbers it."""
    return syntactic_congruence(monoid, [e.transform[0].bit_count() for e in monoid.elements])


def syntactic_monoid_check(alphabet: Alphabet, monoid: Optional[StylicMonoid] = None) -> bool:
    """The two-sided syntactic congruence of the induced statistic
    m -> |m . empty| on the enumerated monoid is equality."""
    m = monoid if monoid is not None else enumerate_styl(alphabet)
    return len(set(_statistic_congruence(m))) == len(m)


def plactic_separator(u: Word, v: Word, alphabet: Alphabet) -> Optional[Word]:
    """For words with distinct insertion tableaux, a left context x with
    lambda_shape(xu) != lambda_shape(xv): the empty word when the shapes
    already differ, otherwise a power of the decreasing word of all letters
    at least the larger of the first disagreeing column letters.

    Every candidate is verified by direct evaluation before being returned;
    None signals an exhausted search (which would falsify the statement
    being exercised).
    """
    return _separator(u, p_tableau(u), v, p_tableau(v), alphabet)


def _separator(u: Word, pu: Tableau, v: Word, pv: Tableau, alphabet: Alphabet) -> Optional[Word]:
    """plactic_separator given the insertion tableaux pu of u and pv of v."""
    if pu == pv:
        raise ValueError("words have the same insertion tableau")
    if pu.shape() != pv.shape():
        return ()
    cols_u = [frozenset(c) for c in pu.columns()]
    cols_v = [frozenset(c) for c in pv.columns()]
    nc = next(i for i in range(len(cols_u)) if cols_u[i] != cols_v[i])
    du = decreasing_word(cols_u[nc])
    dv = decreasing_word(cols_v[nc])
    p = next(i for i in range(len(du)) if du[i] != dv[i])
    b = max(du[p], dv[p])
    y = tuple(x for x in sorted(alphabet.letters, reverse=True) if x >= b)
    cap = nc + 1 + alphabet.n
    for m in range(1, cap + 1):
        x = y * m
        if lambda_shape(x + u) != lambda_shape(x + v):
            return x
    return None


def plactic_left_syntactic_check(alphabet: Alphabet, maxlen: int) -> CongruenceReport:
    """Bounded-scale certification that the tableau congruence is the left
    syntactic congruence of the shape statistic: separators are found and
    verified for every pair of distinct tableaux, and sampled contexts never
    separate words with equal tableaux."""
    words = all_words(alphabet, maxlen)
    buckets: dict = {}
    for w in words:
        buckets.setdefault(p_tableau(w), []).append(w)
    report = CongruenceReport(classes=len(buckets), pairs_checked=0)
    reps = [(t, ws[0]) for t, ws in buckets.items()]
    for (t1, u), (t2, v) in combinations(reps, 2):
        report.pairs_checked += 1
        x = _separator(u, t1, v, t2, alphabet)
        if x is None:
            report.failures.append(
                f"no separator found for {render_word(u)!r} vs {render_word(v)!r}"
            )
    contexts = all_words(alphabet, 2)
    for t, ws in buckets.items():
        rep, rest = ws[0], ws[1:]
        rep_shapes = [lambda_shape(x + rep) for x in contexts] if rest else []
        for w in rest:
            report.pairs_checked += 1
            for x, shape in zip(contexts, rep_shapes):
                if shape != lambda_shape(x + w):
                    report.failures.append(
                        f"equivalent words {render_word(rep)!r}, {render_word(w)!r} "
                        f"separated by {render_word(x)!r}"
                    )
                    break
    return report
