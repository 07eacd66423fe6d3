"""Self-test of the benchmark at the tiny input size.

Runs every workload with ``--trace 0`` and ``--trace 1`` and fails
unless each run is correct, reports exactly the metrics BENCHMARK.json
names, with their units, and every value is finite.  Across the
workloads every per-layer metric must be non-zero somewhere, failure
counts excepted, so a misnamed span cannot hide as a bypassed layer.
Last, the benchmark must refuse to run, without a result line, in a
directory that holds only BENCHMARK.json and the benchmark's own files.

Usage, from the repository root: python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAY_BE_ZERO = {"runlog.parse_run_log.line_errors", "factuality.judge_documents.failures"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--size", "tiny",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    problems: list[str] = []
    seen_nonzero: set[str] = set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{where}: no result line (exit {proc.returncode}): {proc.stderr[-500:]}")
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{where}: exit {proc.returncode}, {result['failed']} failed ops")
            units = {m["name"]: m["unit"] for m in wanted}
            metrics = result["metrics"]
            if metrics.keys() != units.keys():
                problems.append(f"{where}: metric names differ: {sorted(metrics.keys() ^ units.keys())}")
            for name, m in metrics.items():
                if m["unit"] != units.get(name) or not math.isfinite(m["value"]):
                    problems.append(f"{where}: {name} = {m}")
                if m["value"] != 0:
                    seen_nonzero.add(name)
            print(f"{where}: {result['attempted']} ops, {result['failed']} failed", flush=True)

    never = {m["name"] for m in spec["per_layer"]} - seen_nonzero - MAY_BE_ZERO
    if never:
        problems.append(f"per-layer metrics zero in every workload: {sorted(never)}")

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, spec["workloads"][0]["name"], 0)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        problems.append(f"without the program: exit {proc.returncode}, last line {last!r}")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
