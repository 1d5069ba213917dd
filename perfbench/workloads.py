"""What each workload runs, the inputs it derives from the seed, and the
checks its outputs must pass.

The checks compare against facts computed here, not by stylic: Bell
numbers, 2^n idempotents, the height n(n+1)/2 of the J-order, and the
shape of the multiplication table.  A checker takes the output of one
operation as byte chunks, so the 100 MB monoid JSON is never held in
memory.
"""

from __future__ import annotations

import json
import random
import re

ENUMERATE_N = 7
CERTIFY_N = 5
CANONICAL_N = 10
CANONICAL_WORDS = 10_000
CANONICAL_MAX_LENGTH = 40

WORKLOADS = ("enumerate", "canonical", "certify")


def bell(k: int) -> int:
    """Bell number B(k) by the Bell triangle."""
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def commands(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """The `styl` commands one pass of a subprocess workload runs, in order."""
    n = str(ENUMERATE_N)
    if workload == "enumerate":
        return [
            ("monoid", ["enumerate", "monoid", "-n", n, "--force", "--json"]),
            ("jorder", ["enumerate", "jorder", "-n", n, "--force"]),
        ]
    if workload == "certify":
        return [("verify", ["verify", "all", "-n", str(CERTIFY_N), "--seed", str(seed)])]
    raise ValueError(f"{workload!r} runs no commands")


def checker(name: str) -> "Check":
    return {"monoid": MonoidJsonCheck, "jorder": JorderTextCheck, "verify": VerifyCheck}[name]()


def corpus(seed: int) -> list[tuple[int, ...]]:
    """The canonical workload's words: lengths 1..40 over n = 10 letters."""
    rng = random.Random(seed)
    return [
        tuple(rng.randint(1, CANONICAL_N) for _ in range(rng.randint(1, CANONICAL_MAX_LENGTH)))
        for _ in range(CANONICAL_WORDS)
    ]


class Check:
    """Collects one operation's stdout and reports what is wrong with it."""

    def __init__(self) -> None:
        self.size = 0
        self._text = bytearray()

    def feed(self, chunk: bytes) -> None:
        self.size += len(chunk)
        self._text += chunk

    def errors(self, exit_code: int) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        return self._errors(self._text.decode(errors="replace"))

    def _errors(self, text: str) -> list[str]:
        raise NotImplementedError


class MonoidJsonCheck(Check):
    """`enumerate monoid --json`: Bell(n+1) elements, 2^n idempotents, and a
    square table.  Everything before the table is parsed; the table is only
    counted, as brackets and commas, while it streams past."""

    MARKER = b', "table": '
    MAX_HEAD = 32 << 20

    def __init__(self) -> None:
        super().__init__()
        self._head: dict | None = None
        self._counts = {b"[": 0, b"]": 0, b",": 0}
        self._tail = b""

    def feed(self, chunk: bytes) -> None:
        self.size += len(chunk)
        if self._head is not None:
            self._count(chunk)
            return
        if self._counts is None:
            return
        self._text += chunk
        at = self._text.find(self.MARKER)
        if at < 0:
            if len(self._text) > self.MAX_HEAD:
                self._text = bytearray()
                self._counts = None
            return
        head, rest = bytes(self._text[:at]) + b"}", bytes(self._text[at + len(self.MARKER):])
        self._text = bytearray()
        try:
            self._head = json.loads(head)
        except ValueError:
            self._counts = None
            return
        self._count(rest)

    def _count(self, chunk: bytes) -> None:
        for token in self._counts:
            self._counts[token] += chunk.count(token)
        self._tail = (self._tail + chunk)[-8:]

    def errors(self, exit_code: int) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        if self._head is None:
            return ["no parsable monoid JSON before a multiplication table"]
        n = ENUMERATE_N
        size = bell(n + 1)
        head = self._head
        elements = head.get("elements", [])
        errors = []
        if head.get("size") != size or len(elements) != size:
            errors.append(f"{head.get('size')} / {len(elements)} elements, expected Bell({n + 1}) = {size}")
        idempotents = sum(1 for e in elements if e.get("idempotent") is True)
        if idempotents != 2 ** n:
            errors.append(f"{idempotents} idempotents, expected 2^{n}")
        if max((e.get("corank", -1) for e in elements), default=-1) != n * (n + 1) // 2:
            errors.append("largest co-rank is not n(n+1)/2")
        # "[[r0], [r1], ...]": size + 1 brackets of each kind and size^2 - 1 commas.
        c = self._counts
        if c[b"["] != size + 1 or c[b"]"] != size + 1 or c[b","] != size * size - 1:
            errors.append(f"table is not {size}x{size}: counted {c[b'[']} rows-plus-one, {c[b',']} commas")
        if not self._tail.rstrip().endswith(b"]]}"):
            errors.append("output does not end with the table")
        return errors


class JorderTextCheck(Check):
    """`enumerate jorder`: height n(n+1)/2 and co-rank rows covering every
    one of the Bell(n+1) elements exactly once."""

    HEADER = re.compile(r"graded order on (\d+) elements, height (\d+), (\d+) covering pairs")
    ROW = re.compile(r"co-rank\s+(\d+): (.*)")

    def _errors(self, text: str) -> list[str]:
        n = ENUMERATE_N
        size = bell(n + 1)
        height = n * (n + 1) // 2
        lines = text.splitlines()
        head = self.HEADER.fullmatch(lines[0]) if lines else None
        if head is None:
            return ["missing J-order header"]
        errors = []
        if int(head[1]) != size or int(head[2]) != height:
            errors.append(f"header says {head[1]} elements, height {head[2]}; expected {size}, {height}")
        ranks, words = set(), []
        for line in lines[1:]:
            row = self.ROW.fullmatch(line)
            if row is None:
                errors.append(f"unexpected line {line[:60]!r}")
                continue
            ranks.add(int(row[1]))
            words.extend(row[2].split())
        if ranks != set(range(height + 1)):
            errors.append(f"co-ranks {sorted(ranks)} are not 0..{height}")
        if len(words) != size or len(set(words)) != size:
            errors.append(f"co-rank rows hold {len(words)} words ({len(set(words))} distinct), expected {size}")
        return errors


class VerifyCheck(Check):
    """`verify all`: every suite reports pass and runs at least one check,
    and every check line is PASS.  Other lines, such as notes, are allowed."""

    SUITES = ("bijection", "presentation", "evacuation", "graded", "syntactic", "confluence")

    def _errors(self, text: str) -> list[str]:
        errors = []
        headers: dict[str, str] = {}
        passes: dict[str, int] = {}
        suite = None
        for line in text.splitlines():
            head = re.fullmatch(r"\[(\w+)\] (\w+)", line)
            if head:
                suite = head[1]
                headers[suite] = head[2]
                continue
            status = line.split(maxsplit=1)[:1]
            if status == ["PASS"]:
                passes[suite] = passes.get(suite, 0) + 1
            elif status == ["FAIL"]:
                errors.append(line.strip()[:120])
        if headers != {s: "pass" for s in self.SUITES}:
            errors.append(f"suite headers {headers}")
        if sorted(passes) != sorted(self.SUITES):
            errors.append(f"suites with PASS lines: {sorted(map(str, passes))}")
        return errors[:5]


def canonical_ops(stylic, w, alphabet, empty):
    """The six canonical forms of one word, in the order a caller would ask."""
    p = stylic.p_tableau(w)
    nt = stylic.n_tableau(w)
    r = stylic.to_partition(nt)
    t = stylic.theta(w, alphabet)
    e = stylic.evac(r, alphabet)
    c = stylic.act_word(w, empty)
    return p, nt, r, t, e, c


def canonical_errors(stylic, w, results) -> list[str]:
    p, nt, _, t, e, c = results
    errors = []
    if e != stylic.pi(t):
        errors.append("evac(pi(w)) != pi(theta(w))")
    if c != p.first_column():
        errors.append("act_word(w, {}) != first column of P(w)")
    if tuple(nt.rows[0]) != tuple(sorted(set(w))):
        errors.append("first row of the N-tableau is not the sorted support")
    if len(p.rows) != stylic.longest_strictly_decreasing(w):
        errors.append("rows of P(w) != longest strictly decreasing subsequence")
    return errors
