"""Verification suites: each theorem of the library backed by an executable
check at small alphabet sizes, with counterexamples reported in the text
formats of the owning modules.

These functions drive both the `styl verify` command and the acceptance
tests; every suite returns a SuiteResult whose lines carry one PASS/FAIL
entry per check.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, product
from operator import sub
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .core import Alphabet, Word, decreasing_word, letters_of, render_letter, render_word, theta
from .evacuation import (
    Composition,
    Point,
    SkewPartition,
    _check_row_arrows,
    _jdt_results,
    completion_row,
    delta_direct,
    delta_jdt,
    evac,
    evac_from_right_side,
    ideal_points,
    jdt,
    partition_chain,
    point_covers,
    remove_from_partition,
)
from .monoid import (
    EMPTY_PARTITION,
    SetPartition,
    StylicMonoid,
    all_partitions_of_subsets,
    bell_number,
    enumerate_styl,
    from_partition,
    left_insert,
    n_insert_rows,
    n_tableau,
    to_partition,
)
from .rewriting import (
    PairTable,
    _columns,
    _measure_less,
    congruence_reaches,
    local_confluence_check,
    render_column_word,
    stylic_relations,
    tableau_column_word,
)
from .syntactic import (
    _statistic_congruence,
    all_words,
    left_syntactic_check,
    plactic_left_syntactic_check,
    syntactic_monoid_check,
)
from .tableaux import p_tableau, young_leq

# The alphabet size at which the presentation suite connects equal-action
# words by rewriting, and the number of random skews on which the evacuation
# suite compares jeu de taquin strategies.
PRESENTATION_SLICE = 3
RANDOM_SKEWS = 200


@dataclass
class SuiteResult:
    name: str
    ok: bool = True
    lines: list[str] = field(default_factory=list)

    def add_first(self, message: str, failure: Optional[str]) -> None:
        """A check line: PASS, or FAIL naming the first counterexample."""
        if failure is None:
            self.lines.append("PASS " + message)
        else:
            self.lines.append(f"FAIL {message} (first counterexample: {failure})")
            self.ok = False

    def render(self) -> str:
        head = f"[{self.name}] {'pass' if self.ok else 'FAIL'}"
        return "\n".join([head] + ["  " + line for line in self.lines])


def _first_counterexamples(items: Iterable, checks: Sequence[Callable], name: Callable) -> list:
    """The checks run side by side over the items: for each, the name of the
    first item on which it is false, or None.  A kernel under check that
    raises ValueError on an item fails there, its message after the name."""
    first: list[Optional[str]] = [None] * len(checks)
    for item in items:
        for i, holds in enumerate(checks):
            if first[i] is None:
                try:
                    if not holds(item):
                        first[i] = name(item)
                except ValueError as exc:
                    first[i] = f"{name(item)}: {exc}"
    return first


def _shared(monoid: StylicMonoid, keys: Iterable, what: str) -> Optional[str]:
    """Names the first element whose key an earlier element has, and the
    earliest element with that key; None when the keys are distinct."""
    first: dict = {}
    for v, key in enumerate(keys):
        u = first.setdefault(key, v)
        if u != v:
            u_word, v_word = monoid.elements[u].render_word(), monoid.elements[v].render_word()
            return f"{u_word!r} and {v_word!r} share {what}"
    return None


def _skew_json(skew: SkewPartition) -> str:
    return json.dumps(skew.to_json())


# ---------------------------------------------------------------------------
# Shared enumeration helpers.


def compositions_up_to(total: int) -> list[tuple[int, ...]]:
    """All compositions of every size from 0 to total."""
    out: list[tuple[int, ...]] = [()]

    def rec(prefix: tuple[int, ...], remaining: int) -> None:
        for part in range(1, remaining + 1):
            comp = prefix + (part,)
            out.append(comp)
            rec(comp, remaining - part)

    rec((), total)
    return out


# A labelled skew as the exhaustive jeu de taquin line holds it: (outer,
# inner, row masks), one mask of letters per row of the outer ideal.
SkewState = tuple[Composition, Composition, tuple[int, ...]]


def _rank_labellings(outer: Composition, inner: Composition) -> list[tuple[int, ...]]:
    """The increasing labellings of outer minus inner by the ranks 1..m of
    its letters, one mask per row (rank r is bit r - 1), ordered by their
    labels read point by point in (x, y) order, as a filter over the
    permutations of the ranks meets them.  The ranks are placed smallest
    first, and a row above the inner ideal opens only after the row below
    it, so that the minima of those rows rise."""
    sizes = [part - (inner[y] if y < len(inner) else 0) for y, part in enumerate(outer)]
    m, rows, found = sum(sizes), [0] * len(sizes), []

    def place(rank: int) -> None:
        if rank == m:
            found.append(tuple(rows))
            return
        for y, size in enumerate(sizes):
            if rows[y].bit_count() < size and (y <= len(inner) or rows[y - 1]):
                rows[y] |= 1 << rank
                place(rank + 1)
                rows[y] ^= 1 << rank

    place(0)
    points = sorted((x, y) for y, part in enumerate(outer) for x in range(part - sizes[y], part))

    def reading(masks: tuple[int, ...]) -> list[int]:
        row_letters = [letters_of(mask) for mask in masks]
        return [row_letters[y][x - outer[y] + sizes[y]] for x, y in points]

    return sorted(found, key=reading)


def _labelled_skew_states(n: int, outer_cap: int) -> Iterator[SkewState]:
    """The skews of `all_labelled_skews`, in its order, as states.  Each
    region's labellings by ranks are worked out once, and each subset of
    the letters scatters them through its table: the mask of the letters
    of each mask of ranks."""
    comps = [(c, sum(c)) for c in compositions_up_to(outer_cap)[1:]]  # the nonempty ones
    tables: dict[int, list[list[int]]] = {}  # size -> a table per subset, in order
    for outer, outer_size in comps:
        for inner, inner_size in comps:
            m = outer_size - inner_size
            if not 1 <= m <= n or not young_leq(inner, outer):
                continue
            if m not in tables:
                tables[m] = []
                for letters in combinations(range(1, n + 1), m):
                    table = [0]
                    for x in letters:
                        table += [mask | 1 << (x - 1) for mask in table]
                    tables[m].append(table)
            labellings = _rank_labellings(outer, inner)
            for table in tables[m]:
                for ranks in labellings:
                    yield outer, inner, tuple(map(table.__getitem__, ranks))


def _check_skew_state(state: SkewState) -> None:
    """Raises ValueError unless the row masks label outer minus inner
    increasingly by distinct letters, as `SkewPartition` requires of its
    labels: the rows are disjoint, each holds as many letters as its row has
    points, and the minima of the rows above the inner ideal rise.  A mask
    lists its row's letters increasing, so nothing else can fail."""
    outer, inner, rows = state
    if tuple(map(int.bit_count, rows)) != (*map(sub, outer, inner), *outer[len(inner) :]):
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


def _state_labels(state: SkewState) -> tuple[tuple[Point, int], ...]:
    """The labels of a state: each row's letters, increasing, at its points
    right of the inner ideal."""
    _, inner, rows = state
    return tuple(
        ((x, y), letter)
        for y, row in enumerate(rows, start=1)
        for x, letter in enumerate(letters_of(row), start=(inner[y - 1] if y <= len(inner) else 0) + 1)
    )


def _state_json(state: SkewState) -> str:
    """A state named by the JSON of its skew, the form `styl compute jdt`
    reads, or by its masks when they label no skew."""
    outer, inner, rows = state
    try:
        skew = SkewPartition(outer, inner, _state_labels(state))
    except ValueError:
        return f"outer {list(outer)}, inner {list(inner)}, row masks {list(rows)}"
    return _skew_json(skew)


def all_labelled_skews(n: int, outer_cap: int) -> Iterator[SkewPartition]:
    """Every skew partition with outer ideal of size <= outer_cap, a
    nonempty inner ideal, and labels drawn from subsets of {1..n}: by outer
    ideal, inner ideal and letter subset, then by the labels read point by
    point in (x, y) order."""
    for state in _labelled_skew_states(n, outer_cap):
        yield SkewPartition(state[0], state[1], _state_labels(state))


def random_labelled_skew(rng: random.Random, n: int, outer_cap: int = 10) -> SkewPartition:
    """A random skew partition labelled by a subset of {1..n}: random outer
    ideal, random inner sub-ideal, letters placed along a random linear
    extension of the region."""
    while True:
        size = rng.randint(2, outer_cap)
        outer: list[int] = []
        while size > 0:
            part = rng.randint(1, size)
            outer.append(part)
            size -= part
        inner = tuple(
            rng.randint(0, part) for part in outer
        )
        while inner and inner[-1] == 0:
            inner = inner[:-1]
        if not inner or 0 in inner or not 1 <= sum(outer) - sum(inner) <= n:
            continue
        region = ideal_points(tuple(outer)) - ideal_points(inner)
        letters = sorted(rng.sample(range(1, n + 1), len(region)))
        remaining = set(region)
        labels = {}
        for letter in letters:
            covered = {q for p in remaining for q in point_covers(p)}
            minimal = [p for p in remaining if p not in covered]
            p = rng.choice(minimal)
            remaining.discard(p)
            labels[p] = letter
        return SkewPartition(
            outer=tuple(outer), inner=inner, labels=tuple(sorted(labels.items()))
        )


# ---------------------------------------------------------------------------
# Certificates over the enumerated monoid.  Each is an induction along the
# Cayley graphs (Froidure & Pin): a fact checked at the identity and on every
# one-letter step m -> m.x holds for every word, whatever its length.


def _edge(monoid: StylicMonoid, m: int, x: int) -> str:
    return f"{monoid.elements[m].render_word()!r}.{render_letter(x)}"


def class_function_counterexample(monoid: StylicMonoid) -> Optional[str]:
    """The first right Cayley edge m -> m.x on which N-inserting x into the
    tableau of m misses the tableau of m.x, or None.  None proves that the
    N-tableau of every word is the tableau of its class.  The tableaux are
    compared as row masks, which determine them."""
    elements = monoid.elements
    if elements[monoid.identity].tableau != n_tableau(()):
        return "the identity's tableau is not empty"
    rows = [e.tableau.masks() for e in elements]
    for m, source in enumerate(rows):
        for x, step in monoid.right_by_letter.items():
            if n_insert_rows(source, x) != rows[step[m]]:
                return f"N-insertion along {_edge(monoid, m, x)}"
    return None


def theta_on_classes(monoid: StylicMonoid) -> list[int]:
    """phi[m]: the class of theta(u_m), with u_m the BFS word of element m."""
    return [monoid.class_of_word(theta(e.word, monoid.alphabet)) for e in monoid.elements]


def theta_counterexample(monoid: StylicMonoid, phi: list[int]) -> Optional[str]:
    """The first place where phi fails to be the class map of theta, or None.
    The checks: phi fixes the identity, phi(m.x) = (n+1-x).phi(m) on every
    right Cayley edge, read through the left Cayley graph, and phi is an
    involution.  None proves, by induction on length, that theta(w) lies in
    class phi(m) for every word w of class m, so theta induces an involutive
    anti-automorphism of the monoid."""
    n = monoid.alphabet.n
    left = monoid.left_by_letter
    if phi[monoid.identity] != monoid.identity:
        return "theta does not fix the identity"
    for e in monoid.elements:
        m = e.index
        for x, step in monoid.right_by_letter.items():
            if phi[step[m]] != left[n + 1 - x][phi[m]]:
                return f"theta along {_edge(monoid, m, x)}"
        if phi[phi[m]] != m:
            return f"theta is not an involution at {e.render_word()!r}"
    return None


def evacuation_counterexample(
    monoid: StylicMonoid, phi: list[int], evacuated: Callable[[SetPartition], SetPartition]
) -> Optional[str]:
    """The first element m with evacuated(pi_m) != pi_phi(m), or None.  Given
    the two certificates above, None proves pi(theta(w)) = evac(pi(w)) for
    every word w, where `evacuated` is evac on the monoid's alphabet."""
    partitions = [to_partition(e.tableau) for e in monoid.elements]
    return _first_counterexamples(
        monoid.elements,
        [lambda e: evacuated(partitions[e.index]) == partitions[phi[e.index]]],
        lambda e: f"evac at {e.render_word()!r}",
    )[0]


Chain = tuple[Composition, ...]


def _delta_steps(
    partitions: Iterable[SetPartition],
) -> Iterator[tuple[SetPartition, Chain, Optional[Chain], Optional[Chain]]]:
    """Each nonempty r of a set of partitions closed under delta, by letter
    count, with its chain from (), the chain of delta r, and the right side
    of r's pyramid; None for the last two when delta r is missing from the
    layer below.  Row i of r's pyramid is the chain of the i-th delta
    iterate, so the pyramid is r's chain over the pyramid of delta r, and
    its right side is that of delta r followed by the shape of r.  A check
    of what is new at r, for every r, is thus a check of every pyramid, by
    induction on the letter count; only the layer one letter down is kept."""
    layer: dict[SetPartition, tuple[Chain, Optional[Chain]]] = {EMPTY_PARTITION: (((),), ((),))}
    below: dict[SetPartition, tuple[Chain, Optional[Chain]]] = {}
    size = 0
    for r in sorted(partitions, key=lambda r: sum(r.shape())):
        m = sum(r.shape())
        if not m:
            continue
        if m > size:
            below, layer, size = layer, {}, m
        chain = ((),) + tuple(partition_chain(r))
        lower, lower_right = below.get(delta_direct(r), (None, None))
        right = lower_right and lower_right + chain[-1:]
        layer[r] = chain, right
        yield r, chain, lower, right


# ---------------------------------------------------------------------------
# Suites.


def verify_bijection(monoids: Sequence[StylicMonoid]) -> SuiteResult:
    """Cardinality Bell(n+1), canonical tableaux, and the 2^n idempotents, on
    the monoids for the alphabet sizes 1..n."""
    result = SuiteResult("bijection")
    for monoid in monoids:
        alphabet = monoid.alphabet
        k = alphabet.n
        expected = bell_number(k + 1)
        result.add_first(
            f"n={k}: {len(monoid)} elements, expected Bell({k + 1}) = {expected}",
            None if len(monoid) == expected else f"|Styl(A)| = {len(monoid)}",
        )
        failure = _shared(monoid, (e.tableau for e in monoid.elements), "a tableau")
        result.add_first(f"n={k}: canonical tableaux are pairwise distinct", failure)
        (failure,) = _first_counterexamples(
            monoid.elements,
            [lambda e: n_tableau(e.tableau.row_word()) == e.tableau],
            lambda e: f"the row word of {e.render_word()!r}",
        )
        result.add_first(f"n={k}: reinserting each row word returns its tableau", failure)
        failure = class_function_counterexample(monoid)
        result.add_first(
            f"n={k}: N-insertion follows all {len(monoid) * k} right Cayley edges, "
            "so the N-tableau depends only on the class",
            failure,
        )
        tableaux = {e.tableau for e in monoid.elements}
        reached: set = set()

        def lands_on_a_class(r: SetPartition) -> bool:
            tableau = from_partition(r)
            reached.add(tableau)
            return tableau in tableaux

        partitions = list(all_partitions_of_subsets(alphabet))
        (failure,) = _first_counterexamples(partitions, [lands_on_a_class], SetPartition.render)
        missed = next((e for e in monoid.elements if e.tableau not in reached), None)
        if failure is None and missed is not None:
            failure = f"no partition gives the tableau of {missed.render_word()!r}"
        result.add_first(
            f"n={k}: tableaux coincide with those of the {len(partitions)} "
            "partitions of subsets",
            failure,
        )
        idem = monoid.idempotents()
        expected_idem = {
            monoid.class_of_word(decreasing_word(s)) for s in alphabet.subsets()
        }
        odd = min(expected_idem.symmetric_difference(idem), default=None)
        failure = None
        if odd is not None:
            word = monoid.elements[odd].render_word()
            failure = (
                f"{word!r} is idempotent, but no strictly decreasing word's class"
                if odd in idem
                else f"{word!r}, the class of a strictly decreasing word, is not idempotent"
            )
        elif len(idem) != 2 ** k:
            failure = f"the {2 ** k} strictly decreasing words give {len(idem)} classes"
        result.add_first(
            f"n={k}: {len(idem)} idempotents, all classes of strictly decreasing words", failure
        )
    return result


def verify_presentation(monoids: Sequence[StylicMonoid], maxlen: int) -> SuiteResult:
    """The defining relations hold in the monoids for the alphabet sizes
    1..n, and at desk scale the bounded rewriting closure connects every
    pair of equal-action words."""
    result = SuiteResult("presentation")
    for monoid in monoids:
        alphabet = monoid.alphabet
        k = alphabet.n
        relations = stylic_relations(alphabet)
        bad = next(
            (
                f"{render_word(l)!r} = {render_word(r)!r}"
                for l, r in relations
                if monoid.class_of_word(l) != monoid.class_of_word(r)
            ),
            None,
        )
        result.add_first(
            f"n={k}: all {len(relations)} defining relations hold in the enumerated monoid", bad
        )
    monoid = monoids[min(len(monoids), PRESENTATION_SLICE) - 1]
    alphabet = monoid.alphabet
    k = alphabet.n
    classes: dict[int, list[Word]] = {}
    for w in all_words(alphabet, maxlen):
        classes.setdefault(monoid.class_of_word(w), []).append(w)
    relations = stylic_relations(alphabet)
    gaps: list[str] = []
    pruned_any = False
    for words in classes.values():
        rep = min(words, key=lambda w: (len(w), w))
        cap = 2 * max(len(w) for w in words) + 2
        reached, pruned = congruence_reaches(rep, words, relations, cap)
        pruned_any = pruned_any or pruned
        gaps.extend(f"{render_word(rep)!r}~{render_word(w)!r}" for w in words if w not in reached)
    result.add_first(
        f"n={k}, len<={maxlen}: {len(classes)} classes, all words connected "
        f"under the relations within cap 2*len+2",
        next(iter(gaps), None),
    )
    if pruned_any:
        result.lines.append("  note: the length cap pruned some rewriting moves")
    return result


def verify_evacuation(monoid: StylicMonoid, seed: int = 0) -> SuiteResult:
    """Evacuation intertwines the word involution; delta agrees with jeu de
    taquin; the pyramid reconstructs evacuation; sliding is choice-free.

    The pyramid lines take the partitions by letter count and check, at
    each r, only the rows new to r's pyramid: the arrows of r's chain and
    the cross arrows from the chain of delta r, that completing r's chain
    by rhombi gives the chain of delta r, and that the right side of delta
    r's pyramid followed by the shape of r reads off evac(r).  Row i of r's
    pyramid is the chain of the i-th delta iterate, and delta removes one
    letter, so by induction on the letter count this proves every pyramid
    valid, rebuilt by completion and read off as evac, as whole pyramids
    would.  The exhaustive jeu de taquin line holds its skews as row masks,
    checks each as `SkewPartition` would, and searches the slides of the
    masks directly; a skew is built only to name a counterexample."""
    result = SuiteResult("evacuation")
    alphabet = monoid.alphabet
    n = alphabet.n

    # One table of evac serves every line.  The involution line fills it
    # first, so evac also runs on its own outputs, where those come first.
    partitions = list(all_partitions_of_subsets(alphabet))
    evacuated = cache(lambda r: evac(r, alphabet))
    (involution,) = _first_counterexamples(
        partitions, [lambda r: evacuated(evacuated(r)) == r], SetPartition.render
    )
    phi = theta_on_classes(monoid)
    failure = (
        class_function_counterexample(monoid)
        or theta_counterexample(monoid, phi)
        or evacuation_counterexample(monoid, phi, evacuated)
    )
    result.add_first(
        f"n={n}: evacuation of the partition matches the reversed word on all "
        f"{len(monoid)} elements, by induction over {len(monoid) * n} right Cayley edges",
        failure,
    )
    result.add_first(
        f"n={n}: evacuation is an involution on {len(partitions)} partitions", involution
    )

    # The pyramid lines check only what is new at each partition, by
    # induction along delta: its chain's arrows and the cross arrows from
    # the chain of delta r, the completion of its chain, and its right side.
    def right_side_evacuates(step: tuple) -> bool:
        r, chain, lower, right = step
        _check_row_arrows(chain, lower or (), 0)
        return right is not None and evac_from_right_side(right, r, alphabet) == evacuated(r)

    def completes_to_delta(step: tuple) -> bool:
        _, chain, lower, _ = step
        return completion_row(chain) == lower

    def top_removal_commutes(step: tuple) -> bool:
        r = step[0]
        return evacuated(remove_from_partition(r, max(r.ground()))) == delta_direct(evacuated(r))

    lines = {
        f"n={n}: block-surgery delta equals jeu-de-taquin delta": (
            lambda step: delta_direct(step[0]) == delta_jdt(step[0])
        ),
        f"n={n}: pyramid right side reproduces evacuation": right_side_evacuates,
        f"n={n}: rhombus completion rebuilds the pyramid from its left chain": completes_to_delta,
        f"n={n}: removing the top letter then evacuating equals delta of the evacuation": (
            top_removal_commutes
        ),
    }
    failures = _first_counterexamples(
        _delta_steps(partitions), list(lines.values()), lambda step: step[0].render()
    )
    for message, failure in zip(lines, failures):
        result.add_first(message, failure)

    k = min(n, 4)
    memo: dict = {}  # slides stay inside the set, so each state is slid once
    checked: set = set()  # end states whose partition check has run

    def choice_free(state: SkewState) -> bool:
        _check_skew_state(state)
        results = _jdt_results(state[1], state[2], memo)
        for rows in results:
            if rows not in checked:
                SetPartition._from_masks(rows)  # the partition check, once per end state
                checked.add(rows)
        return len(results) == 1

    instances = 0

    def streamed() -> Iterator[SkewState]:  # and counted past a failure
        nonlocal instances
        for state in _labelled_skew_states(k, outer_cap=6):
            instances += 1
            yield state

    (failure,) = _first_counterexamples(streamed(), [choice_free], _state_json)
    result.add_first(
        f"jeu de taquin is choice-independent on all {instances} labelled "
        f"skews (letters<={k}, outer<=6)",
        failure,
    )
    rng = random.Random(seed)
    (failure,) = _first_counterexamples(
        (random_labelled_skew(rng, 6) for _ in range(RANDOM_SKEWS)),
        [lambda s: len({jdt(s, "first"), jdt(s, "last"), jdt(s, "random", rng)}) == 1],
        _skew_json,
    )
    result.add_first(
        f"jeu de taquin strategies agree on {RANDOM_SKEWS} random skews (seed {seed})", failure
    )
    return result


def verify_graded(monoid: StylicMonoid) -> SuiteResult:
    """Left insertion follows the left Cayley graph; the ideal order is a
    graded partial order ranked by box count.  The order lines read the
    walk that `j_order` ships, and name its faults where `j_order` raises."""
    result = SuiteResult("graded")
    alphabet = monoid.alphabet
    n = alphabet.n
    tableaux = [e.tableau for e in monoid.elements]

    def follows(step: tuple) -> bool:
        e, x = step
        return left_insert(x, e.tableau) == tableaux[monoid.left_by_letter[x][e.index]]

    (failure,) = _first_counterexamples(
        ((e, x) for e in monoid.elements for x in alphabet.letters),
        [follows],
        lambda step: f"left insertion of {render_letter(step[1])} into {step[0].render_word()!r}",
    )
    result.add_first(
        f"n={n}: left insertion follows all {len(monoid) * n} left Cayley edges", failure
    )
    walk = monoid._ideal_walk()
    boxes, word = walk.order.coranks, lambda i: monoid.elements[i].render_word()
    failure = None
    if walk.flat:
        side, x, v, u = walk.flat
        failure = (
            f"{render_letter(x)} on the {side} takes {word(v)!r} to {word(u)!r}, "
            f"{boxes[v]} -> {boxes[u]} boxes"
        )
    result.add_first(f"n={n}: ideal order is antisymmetric on {len(monoid)} elements", failure)
    failure = walk.ends
    if walk.thick:
        u, v = walk.thick
        failure = f"{word(u)!r} covers {word(v)!r} with {boxes[u] - boxes[v]} boxes more"
    result.add_first(
        f"n={n}: order is graded by box count, height {walk.order.height} "
        f"= n(n+1)/2, {len(walk.order.hasse_edges)} covering pairs",
        failure,
    )
    # The walk's down-sets are the order's only when both lines pass.
    if not (walk.flat or walk.thick or walk.ends):
        result.add_first(
            f"n={n}: distinct elements generate distinct ideals",
            _shared(monoid, walk.order.down_sets, "a down-set"),
        )
    return result


def verify_syntactic(monoid: StylicMonoid, maxlen: int = 6) -> SuiteResult:
    """Left classes of the decreasing-subsequence statistic are the columns,
    with constructed separators; the two-sided congruence on the enumerated
    monoid is equality; the shape statistic separates distinct tableaux."""
    result = SuiteResult("syntactic")
    alphabet = monoid.alphabet
    n = alphabet.n
    report = left_syntactic_check(alphabet, maxlen)
    result.add_first(
        f"n={n}: {report.classes} left classes (expected {2 ** n}), "
        f"{report.pairs_checked} separators constructed and verified",
        next(iter(report.failures), None if report.classes == 2 ** n else "a column is missed"),
    )
    # The verdict comes from syntactic_monoid_check, the function the
    # benchmark times; the classes are computed again only to name a FAIL.
    ok = syntactic_monoid_check(alphabet, monoid)
    result.add_first(
        f"n={n}: two-sided congruence of the statistic on the monoid is equality",
        None if ok else _shared(monoid, _statistic_congruence(monoid), "a class"),
    )
    k = min(n, 3)
    plactic = plactic_left_syntactic_check(Alphabet(k), min(maxlen, 4))
    result.add_first(
        f"n={k}, len<={min(maxlen, 4)}: shape separators found for all "
        f"{plactic.pairs_checked} pairs over {plactic.classes} tableau classes",
        next(iter(plactic.failures), None),
    )
    return result


def normal_form_counterexample(n: int, table: PairTable) -> Optional[str]:
    """The first pair c1 c2 of nonempty column masks over n letters on which
    one of three facts fails, or None: (1) no rule applies to c1 c2 exactly
    when c1, c2 are the columns of P(r), for r the pair's reading word (each
    column read downward); (2) each rule keeps P of the reading word; (3)
    each rule lowers the termination measure.

    None proves that every word of these columns, rewritten in any order,
    ends at the column word of P of its reading word.  By (3), rewriting
    terminates: the measure is well founded and compatible with context.
    By (2), and since P-equality is a congruence (Knuth 1970), no step
    changes P of the whole reading word.  Where no rule applies, by (1),
    each two adjacent columns stand side by side in a tableau.  Being a
    tableau is a condition on adjacent columns, so the word is the column
    word of a tableau T, and its reading word, T's column word, inserts to T."""
    columns = range(1, 1 << n)
    downward = [decreasing_word(c) for c in _columns(range(1 << n))]

    def reading(word: tuple[int, ...]) -> Word:
        return sum((downward[c] for c in word), ())

    def holds(pair: tuple[int, int]) -> bool:
        tableau = p_tableau(reading(pair))
        irreducible = _columns(pair) == tableau_column_word(tableau)
        rule = table[pair]
        if rule is None:
            return irreducible
        return (
            not irreducible
            and p_tableau(reading(rule)) == tableau
            and _measure_less(rule, pair, table)
        )

    (failure,) = _first_counterexamples(
        product(columns, repeat=2), [holds], lambda pair: render_column_word(_columns(pair))
    )
    return failure


def verify_confluence(n: int) -> SuiteResult:
    """Local confluence of the column rewriting system, and normal forms
    equal to tableau column factorizations."""
    result = SuiteResult("confluence")
    table = PairTable()  # both checks read the same rules
    k = min(n, 4)
    report = local_confluence_check(Alphabet(k), table)
    failure = None
    if report.refused:
        failure = report.refused[0]
    elif report.nonjoinable:
        failure = f"non-joinable peak {report.nonjoinable[0]}"
    elif report.measure_violations:
        failure = f"measure violation at {report.measure_violations[0]}"
    result.add_first(
        f"n={k}: {report.triples} column triples scanned, "
        f"{report.overlapping} overlapping peaks, all joinable, "
        "measure strictly decreasing",
        failure,
    )
    result.add_first(
        f"n={n}: normal forms equal tableau columns under every rewriting order, "
        f"certified on all {(2 ** n - 1) ** 2} column pairs",
        normal_form_counterexample(n, table),
    )
    return result


# Each entry runs one suite at alphabet size n, taking the monoids it
# certifies from `build`.
SUITES = {
    "bijection": lambda build, n, maxlen, seed: verify_bijection(
        [build(k) for k in range(1, n + 1)]
    ),
    "presentation": lambda build, n, maxlen, seed: verify_presentation(
        [build(k) for k in range(1, n + 1)], maxlen
    ),
    "evacuation": lambda build, n, maxlen, seed: verify_evacuation(build(n), seed),
    "graded": lambda build, n, maxlen, seed: verify_graded(build(n)),
    "syntactic": lambda build, n, maxlen, seed: verify_syntactic(build(n), maxlen),
    "confluence": lambda build, n, maxlen, seed: verify_confluence(n),
}


def run_suite(name: str, n: int, maxlen: int = 6, seed: int = 0) -> list[SuiteResult]:
    """Run one suite, or every suite in order for "all".  The run owns the
    monoids: it enumerates each alphabet size at most once, when a suite
    first needs it, and every suite reads that same monoid."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")

    @cache
    def build(k: int) -> StylicMonoid:
        return enumerate_styl(Alphabet(k))

    names = SUITES if name == "all" else [name]
    return [SUITES[s](build, n, maxlen, seed) for s in names]
