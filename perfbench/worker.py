"""The benchmark's child process: the canonical workload's word loop, and
the traced pass of every workload.  `run.py` starts it with `src/` on
PYTHONPATH and reads one JSON object from its stdout.

    python3 perfbench/worker.py canonical --seed N
    python3 perfbench/worker.py trace WORKLOAD --seed N --spans PATH
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter, process_time

import stylic
import stylic.cli

from spans import Hook, Tracer
from workloads import (
    CANONICAL_N,
    canonical_errors,
    canonical_ops,
    checker,
    commands,
    corpus,
)

# Span name -> (module, attribute path) of each public function timed in a
# traced pass.  evacuation.jdt is watched only to count the skews it slides.
WATCHED = {
    "monoid.enumerate_styl": ("stylic.monoid", "enumerate_styl"),
    "monoid.multiplication_table": ("stylic.monoid", "StylicMonoid.multiplication_table"),
    "monoid.to_json": ("stylic.monoid", "StylicMonoid.to_json"),
    "monoid.idempotents": ("stylic.monoid", "StylicMonoid.idempotents"),
    "monoid.j_order": ("stylic.monoid", "StylicMonoid.j_order"),
    "monoid.n_tableau": ("stylic.monoid", "n_tableau"),
    "monoid.to_partition": ("stylic.monoid", "to_partition"),
    "evacuation.evac": ("stylic.evacuation", "evac"),
    "evacuation.jdt": ("stylic.evacuation", "jdt"),
    "evacuation.jdt_all_results": ("stylic.evacuation", "jdt_all_results"),
    "evacuation.build_pyramid": ("stylic.evacuation", "build_pyramid"),
    "tableaux.p_tableau": ("stylic.tableaux", "p_tableau"),
    "core.theta": ("stylic.core", "theta"),
    "columns.act_word": ("stylic.columns", "act_word"),
    "syntactic.syntactic_monoid_check": ("stylic.syntactic", "syntactic_monoid_check"),
    "rewriting.local_confluence_check": ("stylic.rewriting", "local_confluence_check"),
    "cli.json_dumps": ("json", "dumps"),
    **{
        f"verify.{suite}": ("stylic.verify", f"verify_{suite}")
        for suite in ("bijection", "presentation", "evacuation", "graded", "syntactic", "confluence")
    },
}
SELF_TIMED = [name for name in WATCHED if name != "evacuation.jdt"] + ["cli"]
ALLOCATING = ("monoid.multiplication_table", "monoid.to_json")
CHUNK = 1 << 20


def resolve(module: str, path: str):
    target = importlib.import_module(module)
    for part in path.split("."):
        target = getattr(target, part)
    return target


class Counts(Hook):
    """Adds `count(value)` to a counter for every call that returns."""

    def __init__(self, totals: dict, count):
        self.totals, self.count = totals, count

    def exit(self, state, value) -> None:
        if value is not None:
            for key, amount in self.count(value).items():
                self.totals[key] += amount


class Words(Hook):
    """The words n_tableau is asked about: how many, how long, how many
    distinct classes, and how many boxes their tableaux have."""

    def __init__(self, totals: dict):
        self.totals = totals
        self.classes: set = set()

    def enter(self, frame):
        return frame.f_locals[frame.f_code.co_varnames[0]]

    def exit(self, word, tableau) -> None:
        if tableau is None:
            return
        self.totals["words"] += 1
        self.totals["letters"] += len(word)
        self.totals["monoid.n_tableau.boxes"] += tableau.boxes()
        self.classes.add(tableau)


class Allocation(Hook):
    """tracemalloc peak of each call of one function, less what was live when
    the call started.  Hooks sharing `open_calls` nest in one tracemalloc
    session, so a table built inside to_json counts towards both."""

    def __init__(self, name: str, open_calls: list, peak_mb: dict):
        self.name, self.open_calls, self.peak_mb = name, open_calls, peak_mb

    def _fold(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for call in self.open_calls:
            call[1] = max(call[1], peak)
        tracemalloc.reset_peak()

    def enter(self, frame):
        if tracemalloc.is_tracing():
            self._fold()
        else:
            tracemalloc.start()
        current = tracemalloc.get_traced_memory()[0]
        self.open_calls.append([current, current])

    def exit(self, state, value) -> None:
        self._fold()
        base, peak = self.open_calls.pop()
        self.peak_mb[self.name] = max(self.peak_mb[self.name], (peak - base) / 1e6)
        if not self.open_calls:
            tracemalloc.stop()


class Sink(io.TextIOBase):
    """Stands in for stdout: hashes, counts and checks text as it is written."""

    def __init__(self, check):
        self.check = check
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        for i in range(0, len(text), CHUNK):
            data = text[i : i + CHUNK].encode()
            self.sha.update(data)
            self.check.feed(data)
        return len(text)


def word_problems(w, results) -> list[str]:
    """What is wrong with one word's canonical forms, or the exception that
    computing them raised."""
    if isinstance(results, Exception):
        return [repr(results)]
    try:
        return canonical_errors(stylic, w, results)
    except Exception as exc:  # a failing check is counted, not fatal
        return [repr(exc)]


def canonical_pass(seed: int) -> dict:
    """Untraced: time the six canonical forms of every word, then check them."""
    alphabet, empty = stylic.Alphabet(CANONICAL_N), frozenset()
    latencies, cpu, errors, failed = [], 0.0, [], 0
    for w in corpus(seed):
        c0, t0 = process_time(), perf_counter()
        try:
            results = canonical_ops(stylic, w, alphabet, empty)
        except Exception as exc:  # a failing word is counted, not fatal
            results = exc
        t1, c1 = perf_counter(), process_time()
        latencies.append(t1 - t0)
        cpu += c1 - c0
        problems = word_problems(w, results)
        if problems:
            failed += 1
            errors.extend(f"{w}: {p}" for p in problems[: 5 - len(errors)])
    return {"latencies": latencies, "cpu": cpu, "attempted": len(latencies), "failed": failed, "errors": errors}


def traced_pass(workload: str, seed: int, spans_path: str) -> dict:
    watched, missing = {}, []
    for name, (module, path) in WATCHED.items():
        try:
            watched[name] = resolve(module, path)
        except (ImportError, AttributeError):
            missing.append(name)

    totals: dict[str, float] = defaultdict(float)
    words = Words(totals)
    open_calls: list = []
    peak_mb: dict[str, float] = defaultdict(float)
    hooks: dict[str, Hook] = {
        "monoid.n_tableau": words,
        "monoid.enumerate_styl": Counts(totals, lambda m: {"monoid.elements": len(m)}),
        "monoid.j_order": Counts(
            totals,
            lambda order: {
                "monoid.j_order.comparable_pairs": sum(len(d) - 1 for d in order.down_sets),
                "monoid.j_order.covers": len(order.hasse_edges),
            },
        ),
        "rewriting.local_confluence_check": Counts(
            totals,
            lambda report: {
                "rewriting.confluence.triples": report.triples,
                "rewriting.confluence.peaks": report.overlapping,
            },
        ),
        **{name: Allocation(name, open_calls, peak_mb) for name in ALLOCATING},
    }
    tracer = Tracer(watched, {k: v for k, v in hooks.items() if k in watched})

    ops = []
    if workload == "canonical":
        alphabet, empty = stylic.Alphabet(CANONICAL_N), frozenset()
        for w in corpus(seed):
            try:
                with tracer.active(), tracer.span("canonical.word", op=True):
                    results = canonical_ops(stylic, w, alphabet, empty)
            except Exception as exc:  # a failing word is counted, not fatal
                results = exc
            ops.append({"name": "word", "errors": word_problems(w, results)[:1]})
        wall = sum(e - s for name, s, e, _, _ in tracer.spans if name == "canonical.word")
    else:
        for name, argv in commands(workload, seed):
            check = checker(name)
            sink = Sink(check)
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                    with tracer.active(), tracer.span("cli", op=True):
                        code = stylic.cli.main(argv)
                problems = check.errors(code)
            except Exception as exc:  # a failing command is counted, not fatal
                problems = [repr(exc)]
            ops.append({"name": name, "errors": problems, "sha256": sink.sha.hexdigest(), "bytes": check.size})
        wall = sum(e - s for name, s, e, _, _ in tracer.spans if name == "cli")

    self_times = tracer.self_times()
    calls = tracer.calls()
    layers = {f"{name}.s" if name != "cli" else "cli.self.s": self_times.get(name, 0.0) for name in SELF_TIMED}
    layers.update(
        {
            "monoid.elements": totals["monoid.elements"],
            "monoid.j_order.comparable_pairs": totals["monoid.j_order.comparable_pairs"],
            "monoid.j_order.covers": totals["monoid.j_order.covers"],
            "monoid.table_alloc_mb": peak_mb["monoid.multiplication_table"],
            "monoid.to_json_alloc_mb": peak_mb["monoid.to_json"],
            "evacuation.jdt.skews": calls["evacuation.jdt"] + calls["evacuation.jdt_all_results"],
            "rewriting.confluence.triples": totals["rewriting.confluence.triples"],
            "rewriting.confluence.peaks": totals["rewriting.confluence.peaks"],
            "cli.output_bytes": sum(op.get("bytes", 0) for op in ops),
            "words": totals["words"],
            "letters": totals["letters"],
            "distinct_share": len(words.classes) / totals["words"] if totals["words"] else 0.0,
            "monoid.n_tableau.boxes": totals["monoid.n_tableau.boxes"],
        }
    )
    tracer.write(spans_path, run_id=f"{workload}-seed{seed}")
    failed = sum(1 for op in ops if op["errors"])
    return {
        "wall": wall,
        "layers": layers,
        "spans": len(tracer.spans),
        "missing": missing,
        "ops": [op for op in ops if op["name"] != "word"],
        "attempted": len(ops),
        "failed": failed,
        "errors": [e for op in ops for e in op["errors"]][:5],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("canonical", "trace"))
    parser.add_argument("workload", nargs="?", default="canonical")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    if args.mode == "canonical":
        result = canonical_pass(args.seed)
    else:
        result = traced_pass(args.workload, args.seed, args.spans)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
