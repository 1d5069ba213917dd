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
from bisect import insort
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, permutations, product
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .core import Alphabet, Word, decreasing_word, letters_of, render_letter, render_word, theta
from .evacuation import (
    Composition,
    Point,
    SkewPartition,
    _check_row_arrows,
    _slide,
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
    _check_block_masks,
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
    Relation,
    _columns,
    _measure_less,
    local_confluence_check,
    render_column_word,
    stylic_relations,
)
from .syntactic import (
    _statistic_congruence,
    left_syntactic_check,
    plactic_left_syntactic_check,
    syntactic_monoid_check,
)
from .tableaux import p_tableau, young_leq

# The number of random skews on which the evacuation suite compares jeu de
# taquin strategies.
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


def increasing_labellings(
    region: frozenset[Point], letters: Sequence[int]
) -> Iterator[tuple[tuple[Point, int], ...]]:
    """All bijective labellings of the region by the letters that increase
    for the plane order, that is along each cover inside the region (a skew
    region is convex): every permutation of the letters over the sorted
    points, filtered, so ordered by their labels read point by point."""
    points = sorted(region)
    covers = [(p, q) for p in points for q in point_covers(p) if q in region]
    for perm in permutations(letters):
        label = dict(zip(points, perm))
        if all(label[p] < label[q] for p, q in covers):
            yield tuple(zip(points, perm))


def _state_labels(inner: Composition, rows: Sequence[int]) -> tuple[tuple[Point, int], ...]:
    """The labels of a skew given by its row masks: each row's letters,
    increasing, at its points right of the inner ideal."""
    return tuple(
        ((x, y), letter)
        for y, row in enumerate(rows, start=1)
        for x, letter in enumerate(letters_of(row), start=(inner[y - 1] if y <= len(inner) else 0) + 1)
    )


def all_labelled_skews(n: int, outer_cap: int) -> Iterator[SkewPartition]:
    """Every skew partition with outer ideal of size <= outer_cap, a
    nonempty inner ideal, and labels drawn from subsets of {1..n}: by outer
    ideal, inner ideal and letter subset, then by the labels read point by
    point in (x, y) order."""
    comps = compositions_up_to(outer_cap)[1:]  # the nonempty ones
    for outer in comps:
        for inner in comps:
            if not young_leq(inner, outer):
                continue
            region = ideal_points(outer) - ideal_points(inner)
            if not 1 <= len(region) <= n:
                continue
            for letters in combinations(range(1, n + 1), len(region)):
                for labels in increasing_labellings(region, letters):
                    yield SkewPartition(outer, inner, labels)


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
    """phi[m]: the class of theta(u_m), with u_m the BFS word of element m.
    theta checks each word against the alphabet, so the walk does not."""
    alphabet = monoid.alphabet
    return [monoid._times(monoid.identity, theta(e.word, alphabet)) for e in monoid.elements]


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


def _descent_depth(
    left: bytes, moves: dict[bytes, list[bytes]], lengths: list[int]
) -> Optional[int]:
    """The fewest moves that take the word `left` to a shortlex-smaller
    word, or None.  A move replaces a factor that is a pattern of `moves`
    by one of its replacements; `lengths` lists the pattern lengths,
    increasing.  The search keeps to words of at most |left| letters, and
    then, if it finds none, of at most |left| + 1."""
    bound = (len(left), left)
    for cap in (len(left), len(left) + 1):
        seen, layer, depth = {left}, [left], 0
        while layer:
            depth += 1
            reached = []
            for s in layer:
                for i in range(len(s)):
                    for k in lengths:
                        if i + k > len(s):
                            break
                        for r in moves.get(s[i : i + k], ()):
                            t = s[:i] + r + s[i + k :]
                            if len(t) > cap or t in seen:
                                continue
                            if (len(t), t) < bound:
                                return depth
                            seen.add(t)
                            reached.append(t)
            layer = reached
    return None


def presentation_counterexample(
    monoid: StylicMonoid, relations: Sequence[Relation]
) -> tuple[int, int, Optional[str]]:
    """The Froidure-Pin rules of the monoid, derived from the relations by
    shortlex descent: the number of rules, the most moves a derivation
    took, and the first rule with no derivation, or None.

    Each right Cayley edge m -> m.x whose word u_m.x is not the BFS word
    of m.x gives the rule u_m.x -> u_{m.x}.  In shortlex order of their
    left sides, each rule must move to a shortlex-smaller word, applying
    the relations either way and the rules derived before it forward.

    None proves, given that the relations hold, that they generate the
    whole congruence: every word w is equivalent to u_[w], the BFS word of
    its class.  By strong induction on w in shortlex order.  A word that
    holds no left side of a rule is a BFS word, read prefix by prefix: the
    BFS words are closed under prefixes, each being its parent's word and
    one letter, so the BFS word u_m followed by x is u_{m.x} or a left
    side.  Otherwise w = s.l.t for a rule l -> u, and the derivation takes
    l to a smaller word v by relations and by rules whose left sides are
    smaller than l, which the induction covers.  So w is equivalent to the
    smaller word s.v.t, of the same class, and so to u_[w]."""
    moves: dict[bytes, list[bytes]] = {}
    for l, r in relations:
        moves.setdefault(bytes(l), []).append(bytes(r))
        moves.setdefault(bytes(r), []).append(bytes(l))
    lengths = sorted(set(map(len, moves)))
    words = [bytes(e.word) for e in monoid.elements]
    rules = []
    for x, step in monoid.right_by_letter.items():
        for m, j in enumerate(step):
            left = words[m] + bytes((x,))
            if left != words[j]:
                rules.append((left, words[j]))
    rules.sort(key=lambda rule: (len(rule[0]), rule[0]))
    longest = 0
    for left, right in rules:
        depth = _descent_depth(left, moves, lengths)
        if depth is None:
            rule = f"{render_word(tuple(left))!r} -> {render_word(tuple(right))!r}"
            return len(rules), longest, rule
        longest = max(longest, depth)
        moves.setdefault(left, []).append(right)
        if len(left) not in lengths:
            insort(lengths, len(left))
    return len(rules), longest, None


def slide_window_counterexample(monoid: StylicMonoid) -> tuple[int, Optional[str]]:
    """One jeu de taquin slide on every window over the monoid's alphabet:
    the number of windows, and the first on which the slide fails, named
    by its skew's JSON, or None.

    A window is a skew with inner ideal (1,): row 1, possibly empty, right
    of the inner point, and above it rows that are nonempty and disjoint,
    with rising minima.  The slide must empty the inner ideal, leave rows
    that are nonempty and disjoint, with rising minima, and keep the class
    of the row word.

    None proves that jeu de taquin takes every skew s labelled by letters
    <= n, of any size, to pi(row_word(s)), whatever the corners.  A slide
    off the first column only shortens an inner row, so no row mask moves.
    A slide in the first column starts at the top inner row y, whose one
    inner point is (1, y); it changes only rows y and above, which form a
    window, and keeps their union, so the rest of the row word stays and,
    the class being a congruence, the class of the whole word stays.  The
    slid rows are again those of a skew, so every slide keeps the class,
    until the rows are the blocks of a partition r.  The rows of the
    N-tableau of r are the unions of the tails of its blocks, so the row
    word of r is that tableau's, and the bijection suite's reinsertion line
    checks that N-inserting it gives the tableau back: pi(row_word(r)) = r.
    pi is a function of the class, by the bijection suite's N-insertion
    line, so r = pi(row_word(s)).

    The windows are built from the top row down, each new row below with
    a smaller minimum, and the class of the row word of the rows so far
    is carried down the recursion, so a window's class is one walk of its
    last union along the right Cayley graph.  A window whose slide moves
    no mask keeps its class, and its class is not walked."""
    n = monoid.alphabet.n
    full = (1 << n) - 1
    right = monoid.right_by_letter
    # The right Cayley steps of each mask's letters, increasing.
    paths = [[right[x] for x in letters_of(mask)] for mask in range(full + 1)]
    count, first = 0, None

    def times(m: int, mask: int) -> int:
        for step in paths[mask]:
            m = step[m]
        return m

    def row_word_class(rows: list[int]) -> int:  # rows bottom first
        m, union = monoid.identity, 0
        for row in reversed(rows):
            union |= row
            m = times(m, union)
        return m

    def visit(above: list[int], before: int, union: int, low: int) -> None:
        # above: the rows over row 1, bottom first; before: the class of
        # their row word; low: the least letter of the lowest, as a bit.
        nonlocal count, first
        free = full & ~union
        count += 1 << free.bit_count()
        moved: Optional[list[int]] = None
        row = free
        while True:  # every row 1 inside free, the empty one last
            window = [row, *above]
            slid, inner = window.copy(), [1]
            try:
                _slide(inner, slid, 0)
                if inner:
                    raise ValueError("the slide leaves the inner point")
                if slid == window:
                    # The rows over row 1 are a window's, so the rows fail
                    # the check only when row 1 is empty or not below them.
                    if not 0 < row & -row < low:
                        _check_block_masks(slid)
                else:
                    _check_block_masks(slid)
                    if slid[1:] != moved:
                        moved = slid[1:]
                        after = row_word_class(moved)
                    # The rows are disjoint, so their sum is their union.
                    if times(before, union | row) != times(after, sum(slid)):
                        raise ValueError("the slide changes the class of the row word")
            except ValueError as exc:
                if first is None:
                    outer = (row.bit_count() + 1, *map(int.bit_count, above))
                    skew = SkewPartition(outer, (1,), _state_labels((1,), window))
                    first = f"{_skew_json(skew)}: {exc}"
            if not row:
                break
            row = (row - 1) & free
        below = free
        while below:
            if below & -below < low:
                grown = union | below
                visit([below, *above], times(before, grown), grown, below & -below)
            below = (below - 1) & free

    visit([], monoid.identity, 0, 1 << n)
    return count, first


Chain = tuple[Composition, ...]


def _delta_steps(
    partitions: Iterable[SetPartition], delta: Callable[[SetPartition], SetPartition]
) -> Iterator[tuple[SetPartition, Chain, Optional[Chain], Optional[Chain]]]:
    """Each nonempty r of a set of partitions closed under delta, by letter
    count, with its chain from (), the chain of delta r, and the right side
    of r's pyramid; None for the last two when delta r is missing from the
    layer below.  delta is the caller's, so that a cached one computes
    each partition's delta once.  Row i of r's pyramid is the chain of the
    i-th delta iterate, so the pyramid is r's chain over the pyramid of
    delta r, and its right side is that of delta r followed by the shape of
    r.  A check of what is new at r, for every r, is thus a check of every
    pyramid, by induction on the letter count; only the layer one letter
    down is kept."""
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
        lower, lower_right = below.get(delta(r), (None, None))
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


def verify_presentation(monoids: Sequence[StylicMonoid]) -> SuiteResult:
    """The defining relations hold in the monoids for the alphabet sizes
    1..n, and they generate the whole congruence: they derive every
    Froidure-Pin rule of each monoid by shortlex descent."""
    result = SuiteResult("presentation")
    for monoid in monoids:
        k = monoid.alphabet.n
        relations = stylic_relations(monoid.alphabet)
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
        rules, longest, failure = presentation_counterexample(monoid, relations)
        result.add_first(
            f"n={k}: the relations derive all {rules} Froidure-Pin rules by shortlex descent "
            f"(longest derivation {longest}), so they present the monoid",
            failure,
        )
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
    would.  The jeu de taquin line checks one slide on every window, which
    proves every skew over the alphabet choice-free, and the random skews
    compare the strategies of `jdt` itself."""
    result = SuiteResult("evacuation")
    alphabet = monoid.alphabet
    n = alphabet.n

    # One table of evac serves every line.  The involution line fills it
    # first, so evac also runs on its own outputs, where those come first.
    # One table of delta serves the pyramid steps and the delta and
    # top-removal lines.
    partitions = list(all_partitions_of_subsets(alphabet))
    evacuated = cache(lambda r: evac(r, alphabet))
    delta = cache(delta_direct)
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
        top = sum(r.masks()).bit_length()  # the blocks are disjoint: sum is union
        return evacuated(remove_from_partition(r, top)) == delta(evacuated(r))

    lines = {
        f"n={n}: block-surgery delta equals jeu-de-taquin delta": (
            lambda step: delta(step[0]) == delta_jdt(step[0])
        ),
        f"n={n}: pyramid right side reproduces evacuation": right_side_evacuates,
        f"n={n}: rhombus completion rebuilds the pyramid from its left chain": completes_to_delta,
        f"n={n}: removing the top letter then evacuating equals delta of the evacuation": (
            top_removal_commutes
        ),
    }
    failures = _first_counterexamples(
        _delta_steps(partitions, delta), list(lines.values()), lambda step: step[0].render()
    )
    for message, failure in zip(lines, failures):
        result.add_first(message, failure)

    windows, failure = slide_window_counterexample(monoid)
    result.add_first(
        f"n={n}: a jeu de taquin slide keeps the class of the row word on all {windows} "
        "windows, so every order of slides ends at pi of the row word",
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
    walk that `j_order` ships, and name its faults in the text that
    `j_order` raises."""
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
    result.add_first(
        f"n={n}: ideal order is antisymmetric on {len(monoid)} elements", walk.antisymmetry
    )
    result.add_first(
        f"n={n}: order is graded by box count, height {walk.order.height} "
        f"= n(n+1)/2, {len(walk.order.hasse_edges)} covering pairs",
        walk.grading,
    )
    # The walk's down-sets are the order's only when both lines pass.
    if not (walk.antisymmetry or walk.grading):
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
    downward = [letters_of(c)[::-1] for c in range(1 << n)]

    def reading(word: tuple[int, ...]) -> Word:
        return sum((downward[c] for c in word), ())

    def holds(pair: tuple[int, int]) -> bool:
        tableau = p_tableau(reading(pair))
        irreducible = pair == tableau._column_masks()
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
        [build(k) for k in range(1, n + 1)]
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
