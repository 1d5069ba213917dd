"""Benchmark harness for stylic.

    python3 perfbench/run.py --workload enumerate|canonical|certify \\
        --seed N --seconds S --trace 0|1

Run it from anywhere; it benchmarks the `src/stylic` next to this
directory.  Workloads (closed loop, one client, one operation at a time):

  enumerate  `styl enumerate monoid -n 7 --force --json`, then
             `styl enumerate jorder -n 7 --force`, as subprocesses.
  canonical  10,000 seeded random words over n = 10, lengths 1..40; per
             word P, N, pi, theta, evac and w.{} in one worker process.
  certify    `styl verify all -n 5 --seed N` as a subprocess.

One pass runs a workload's whole batch.  With --trace 0 the harness times
interpreter start-up (setup_s) before and after the passes, repeats passes
while the next one is expected to end within --seconds (at least one), and
prints the end-to-end metrics as medians over passes.  With --trace 1 it
ignores --seconds: it runs one untraced pass and one traced pass in a
worker, and prints the per-layer metrics; spans go to
.perfbench/spans-<workload>.json.  Every output is checked; a failed
check counts in `failed` and does not stop the run.  The last stdout line
is the JSON result; the full record, with the machine description, goes to
.perfbench/<workload>-seed<N>-trace<T>.json.

At most one child process runs at a time, and peak RSS is read per child
with os.wait4.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, checker, commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PYTHON = sys.executable
SETUP_SAMPLES = 20
RUN_LIMIT_S = 170.0
CHUNK = 1 << 20


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    sha256: str


@dataclass
class Pass:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)

    def add(self, name: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{name}: {e}" for e in errors[: 5 - len(self.errors)])


def run_child(argv: list[str], feed, timeout: float) -> Child:
    """Run one child to completion, streaming its stdout into `feed`; wall
    time spans spawn to exit, and CPU time and peak RSS are the child's own."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    sha = hashlib.sha256()
    with open(OUT / "stderr.txt", "ab") as stderr:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr, cwd=ROOT, env=env)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            while chunk := proc.stdout.read(CHUNK):
                sha.update(chunk)
                feed(chunk)
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
            timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss * 1024 / 1e6,
        sha256=sha.hexdigest(),
    )


def worker_json(args: list[str], timeout: float) -> tuple[Child, dict | None]:
    out = bytearray()
    child = run_child([PYTHON, str(HERE / "worker.py"), *args], out.extend, timeout)
    try:
        return child, json.loads(out.decode().splitlines()[-1])
    except (IndexError, ValueError):
        return child, None


def command_pass(workload: str, seed: int, deadline: float) -> Pass:
    result = Pass()
    for name, args in commands(workload, seed):
        check = checker(name)
        child = run_child([PYTHON, "-m", "stylic.cli", *args], check.feed, deadline - perf_counter())
        result.wall += child.wall
        result.cpu += child.cpu
        result.rss_mb = max(result.rss_mb, child.rss_mb)
        result.latencies.append(child.wall)
        result.outputs[name] = child.sha256
        result.add(name, check.errors(child.code))
    return result


def canonical_pass(seed: int, deadline: float) -> Pass:
    child, data = worker_json(["canonical", "--seed", str(seed)], deadline - perf_counter())
    result = Pass(rss_mb=child.rss_mb)
    if data is None:
        result.add("canonical worker", [f"exit code {child.code}, no result"])
        return result
    result.wall = sum(data["latencies"])
    result.cpu = data["cpu"]
    result.latencies = data["latencies"]
    result.attempted, result.failed, result.errors = data["attempted"], data["failed"], data["errors"]
    return result


def one_pass(workload: str, seed: int, deadline: float) -> Pass:
    if workload == "canonical":
        return canonical_pass(seed, deadline)
    return command_pass(workload, seed, deadline)


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    at = q * (len(ordered) - 1)
    low = int(at)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (at - low)


def probe_import(deadline: float) -> Child:
    """Start an interpreter that only imports stylic.cli; refuse to go on
    unless the stylic it imports is the one under src/."""
    path = bytearray()
    child = run_child([PYTHON, "-c", "import stylic.cli; print(stylic.__file__)"], path.extend, deadline - perf_counter())
    if child.code != 0 or Path(path.decode().strip()).resolve() != SRC / "stylic" / "__init__.py":
        raise SystemExit(f"perfbench: cannot import stylic from {SRC}")
    return child


def end_to_end(workload: str, seed: int, seconds: int, start: float) -> tuple[dict, list[Pass], dict]:
    deadline = start + RUN_LIMIT_S
    probe_import(deadline)  # untimed warm-up: .pyc files and the file cache
    # Half the set-up samples before the passes and half after, so that one
    # slow spell of a shared machine does not decide the median.
    setup = [probe_import(deadline).wall for _ in range(SETUP_SAMPLES // 2)]
    passes: list[Pass] = []
    begin = perf_counter()
    while True:
        pass_start = perf_counter()
        passes.append(one_pass(workload, seed, deadline))
        now = perf_counter()
        if now + (now - pass_start) > min(begin + seconds, deadline):
            break
    setup += [probe_import(deadline).wall for _ in range(SETUP_SAMPLES - len(setup))]
    latencies = [x for p in passes for x in p.latencies] or [0.0]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": max(p.rss_mb for p in passes),
        "op_p50_ms": percentile(latencies, 0.50) * 1e3,
        "op_p99_ms": percentile(latencies, 0.99) * 1e3,
    }
    samples = {
        "setup_s": len(setup),
        "passes": len(passes),
        "operations": len(latencies),
        "pass_wall_s": [p.wall for p in passes],
        "pass_cpu_s": [p.cpu for p in passes],
    }
    return metrics, passes, samples


def traced(workload: str, seed: int, start: float) -> tuple[dict, list[Pass], dict]:
    deadline = start + RUN_LIMIT_S
    probe_import(deadline)
    plain = one_pass(workload, seed, deadline)
    spans_path = OUT / f"spans-{workload}.json"
    child, data = worker_json(["trace", workload, "--seed", str(seed), "--spans", str(spans_path)], deadline - perf_counter())
    traced_pass = Pass()
    if data is None:
        traced_pass.add("trace worker", [f"exit code {child.code}, no result"])
        return {}, [plain, traced_pass], {}
    traced_pass.attempted, traced_pass.failed, traced_pass.errors = data["attempted"], data["failed"], data["errors"]
    for op in data["ops"]:
        if not op["errors"] and op["sha256"] != plain.outputs.get(op["name"]):
            traced_pass.failed += 1
            traced_pass.errors.append(f"{op['name']}: traced output differs from the untraced command's")
    metrics = dict(data["layers"], **{"trace.overhead_s": data["wall"] - plain.wall})
    info = {"spans": data["spans"], "spans_file": str(spans_path.relative_to(ROOT)), "not_found": data["missing"]}
    return metrics, [plain, traced_pass], info


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def declared(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stylic" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no stylic sources under {SRC}, or no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    units = declared(args.trace)
    OUT.mkdir(exist_ok=True)
    (OUT / "stderr.txt").write_bytes(b"")

    start = perf_counter()
    if args.trace:
        metrics, passes, info = traced(args.workload, args.seed, start)
    else:
        metrics, passes, info = end_to_end(args.workload, args.seed, args.seconds, start)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors][:10]
    if metrics and set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 3

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **machine(),
        **info,
        "error_rate": failed / attempted if attempted else 1.0,
        "errors": errors,
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} git={record['git_sha'][:12]} "
        f"python={record['python']} nproc={record['nproc']} cpu={record['cpu_model']!r}"
    )
    for key in ("setup_s", "passes", "operations", "spans", "spans_file", "not_found"):
        if info.get(key):
            print(f"  {key}: {info[key]}{' samples' if key == 'setup_s' else ''}")
    for name, unit in units.items():
        value = metrics.get(name)
        print(f"  {name:36s} {'-' if value is None else f'{value:.6g}':>14} {unit}")
    print(f"  {'error_rate':36s} {record['error_rate']:>14.6g} ({failed} of {attempted} operations failed)")
    for error in errors:
        print(f"  error: {error}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and bool(metrics),
                "attempted": max(attempted, 1),
                "failed": failed if attempted else 1,
                "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
