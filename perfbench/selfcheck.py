"""Self-check: one short run of every workload, untraced and traced.

    python3 perfbench/selfcheck.py [--seed N]

Runs `run.py --seconds 1` for each workload with --trace 0 and --trace 1,
prints every metric with its unit and the error rate, and exits 1 unless
every run succeeds, passes its checks, and reports exactly the metrics and
units that BENCHMARK.json declares.  Takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    problems = []
    if tuple(w["name"] for w in SPEC["workloads"]) != WORKLOADS:
        problems.append(f"BENCHMARK.json lists workloads other than {WORKLOADS}")
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        results = {}
        for workload in WORKLOADS:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True)
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}, no result; {proc.stderr[-300:]}")
                continue
            reported = {name: m["unit"] for name, m in result["metrics"].items()}
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}, {result['failed']} failed")
            if reported != declared:
                problems.append(f"{workload} trace={trace}: names or units differ from BENCHMARK.json: "
                                f"{sorted(set(reported.items()) ^ set(declared.items()))}")
            results[workload] = result
        print(f"{section} (--trace {trace})")
        print(f"  {'metric':36s} {'unit':6s}" + "".join(f"{w:>14s}" for w in results))
        for name, unit in list(declared.items()) + [("error_rate", "share")]:
            row = []
            for r in results.values():
                value = r["failed"] / r["attempted"] if name == "error_rate" else r["metrics"].get(name, {}).get("value")
                row.append(f"{value:>14.6g}" if isinstance(value, (int, float)) else f"{'-':>14s}")
            print(f"  {name:36s} {unit:6s}" + "".join(row))
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
