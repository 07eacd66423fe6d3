"""poollab benchmark: two workloads through the real CLI, checked for correctness.

Run from the repository root:

    python3 perfbench/run.py --workload curation --seed 1 --seconds 50 --trace 0

Workloads (BENCHMARK.json says why each exists):

    curation   pool-chain:    sample -> filter -> inject shuffled_docs
                              -> inject random_strings -> filter
               judge-mock:    judge --mock --aggregate
    analysis   runlog-chain:  ingest -> report -> pareto -> crossing
                              -> scaling-law tpp -> scaling-law epoch -> extrapolate
               theory-verify: verify-theory --prop1 --filter-fact

Load is closed-loop with one client: one ``python -m poollab.cli`` child
at a time, with ``PYTHONPATH=src`` and every flag the chain does not need
left at its default (``filter`` runs at ``--threads`` = cpu count).

``--trace 0`` repeats two timed ``poollab --version`` set-up runs and one
chain until ``--seconds`` have passed; the end-to-end metrics are medians
over those repetitions.  ``--trace 1`` runs the chain once
untraced, then ``replay.py`` replays it in-process with spans for the
per-layer metrics and the layer table.  Inputs come from ``inputs.py``
under ``--seed``.  The correctness gate runs outside every timed region;
a failed step or check counts in ``failed``.

Everything is written under ``.perfbench/`` in the repository root.  The
last line of stdout is the JSON result; the lines above it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from statistics import median
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
SETUP_RUNS = 7
DEADLINE_S = 170.0  # the whole run; a step still running then is killed
DIGESTS = HERE / "digests.json"


@dataclass
class StepResult:
    command: str
    wall: float
    maxrss_kb: int
    exit_code: int
    traceback: bool

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.traceback


class Runner:
    """Runs children one at a time and keeps every result as an attempted op."""

    def __init__(self, logs: Path, deadline: float):
        self.logs = logs
        self.deadline = deadline
        self.results: list[StepResult] = []
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + ([path] if path else [])
        ))

    def run(self, argv: list[str], command: str, program: list[str] | None = None) -> StepResult:
        base = self.logs / f"{len(self.results):03d}-{command}"
        cmd = [sys.executable, *(program or ["-m", "poollab.cli"]), *argv]
        with open(f"{base}.out", "wb") as out, open(f"{base}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                # wait4 gives this child's own max RSS, unlike RUSAGE_CHILDREN
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = StepResult(
            command=command,
            wall=wall,
            maxrss_kb=usage.ru_maxrss,
            exit_code=proc.returncode,
            traceback=b"Traceback" in Path(f"{base}.err").read_bytes(),
        )
        self.results.append(result)
        return result


def artifact_digests(out: Path) -> dict[str, str]:
    """sha256 of every deterministic artifact: all files but manifests."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and not p.name.endswith(".manifest.json")
    }


def environment() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "machine": platform.machine(),
    }


def provenance(args, desc: dict) -> dict:
    commit = dirty = None
    if shutil.which("git") and (ROOT / ".git").exists():
        def git(*argv):
            return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True).stdout.strip()

        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain"))
    return {
        "nproc": os.cpu_count(),
        **environment(),
        "git_commit": commit,
        "git_dirty": dirty,
        "workload": args.workload,
        "workload_seed": args.seed,
        "theory_trial_seed": inputs.THEORY_TRIAL_SEED,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": {part: d["sizes"] for part, d in desc.items()},
    }


def gate(workload, ctx, reps, runner: Runner, args) -> list[tuple[str, bool, str]]:
    """The correctness checks; reps after the first must match it byte for byte."""
    out0 = reps[0]
    try:
        checks = workload.check(ctx, out0, lambda argv: runner.run(argv, argv[0]))
    except Exception:  # a check that cannot read the outputs has failed
        checks = [("outputs readable by the checks", False, traceback.format_exc(limit=2))]
    digests = artifact_digests(out0)
    for out in reps[1:]:
        checks.append((f"{out.name} artifacts identical to {out0.name}", artifact_digests(out) == digests, ""))
        shutil.rmtree(out)
    if args.seed == DEFAULT_SEED and args.size == "full":
        recorded = json.loads(DIGESTS.read_text("utf-8")) if DIGESTS.exists() else {}
        if args.record_digests:
            recorded.setdefault("environment", environment())
            recorded.setdefault("workloads", {})[workload.name] = digests
            DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", "utf-8")
        elif recorded.get("environment") == environment():
            want = recorded["workloads"].get(workload.name)
            changed = sorted(k for k in set(digests) | set(want or {}) if digests.get(k) != (want or {}).get(k))
            checks.append(("artifact sha256 equals the recorded digests", not changed, " ".join(changed)))
        else:
            print(f"note: digests were recorded under {recorded.get('environment')}, not checked here")
    return checks


def run_chain(workload, ctx, runner: Runner, out: Path) -> list[StepResult]:
    out.mkdir(parents=True)
    return [runner.run(argv, command) for command, argv in workload.steps(ctx, out)]


def end_to_end(workload, ctx, runner: Runner, work: Path, args):
    """Set-up runs, then chain repetitions for ``args.seconds``."""
    # Set-up runs alternate with the chain, so that both sample the
    # machine's speed over the same stretch of time.
    setup: list[StepResult] = []
    reps: list[tuple[Path, list[StepResult]]] = []
    started = time.monotonic()
    while not reps or time.monotonic() - started < args.seconds:
        setup += [runner.run(["--version"], "version") for _ in range(2)]
        out = work / f"rep{len(reps)}"
        reps.append((out, run_chain(workload, ctx, runner, out)))
    while len(setup) < SETUP_RUNS:
        setup.append(runner.run(["--version"], "version"))
    rates = {}
    if all(r.ok for r in reps[0][1]):
        for part in workload.parts:
            units = part.hot_units(workload.part_ctx(ctx, part), reps[0][0])
            rates[part.rate_label] = [
                units / sum(r.wall for r in results if r.command == part.hot_step)
                for _, results in reps
            ]
    checks = gate(workload, ctx, [out for out, _ in reps], runner, args)
    walls = [sum(r.wall for r in results) for _, results in reps]
    metrics = {
        "setup_s": median(r.wall for r in setup),
        "wall_s": median(walls),
        "peak_rss_mb": median(max(r.maxrss_kb for r in results) / 1024 for _, results in reps),
    }
    print(f"\n{len(reps)} repetitions of the chain, {len(setup)} set-up runs")
    print(f"  chain wall s: {' '.join(f'{w:.3f}' for w in walls)}")
    # Printed, not gated: timing one step spreads more than the chain.
    for label, values in rates.items():
        print(f"  {label}: median {median(values):.6g} 1/s of {' '.join(f'{r:.4g}' for r in values)}")
    print(f"  setup s: {' '.join(f'{r.wall:.3f}' for r in setup)}")
    for i, result in enumerate(reps[0][1]):
        print(f"  step {i + 1} {result.command:<13} {result.wall:8.3f} s {result.maxrss_kb / 1024:7.1f} MB exit {result.exit_code}")
    samples = {"wall_s": walls, "setup_s": [r.wall for r in setup], **rates}
    return metrics, checks, {"samples": samples}


def per_layer(workload, ctx, runner: Runner, work: Path, args):
    """One untraced chain, then the traced in-process replay."""
    results = run_chain(workload, ctx, runner, work / "rep0")
    untraced = sum(r.wall for r in results)
    checks = gate(workload, ctx, [work / "rep0"], runner, args)

    trace_dir = work / "trace"
    context = work / "trace-context.json"
    context.write_text(json.dumps({
        "root": str(ROOT),
        "workload": workload.name,
        "inputs": str(ctx.inputs),
        "desc": ctx.desc,
        "trace_dir": str(trace_dir),
        "seconds": args.seconds,
    }), "utf-8")
    spans_file = work / "spans.json"
    child = runner.run(["--context", str(context), "--out", str(spans_file)], "replay", [str(HERE / "replay.py")])
    if not child.ok:
        checks.append(("traced replay completes", False, f"exit {child.exit_code}"))
        return {}, checks, {}
    data = json.loads(spans_file.read_text("utf-8"))
    checks.append(("traced replay steps all exit 0", not any(data["exit_codes"]), str(data["exit_codes"])))
    checks.append((
        "traced replay reproduces the CLI artifacts",
        artifact_digests(trace_dir / "run1") == artifact_digests(work / "rep0"),
        "",
    ))

    spans = data["spans"]
    selfs = tracing.self_times(spans)
    roots = {s["run"]: i for i, s in enumerate(spans) if s["name"] == "replay"}
    per_run = []
    for run in data["runs"]:
        m = tracing.run_metrics(spans, selfs, run)
        m["filters.scorer.calls"] = sum(v for k, v in m.items() if k.endswith(".scorer_calls"))
        root = spans[roots[run]]
        m["trace.wall_s"] = root["end"] - root["start"]
        for name, key, scale, where in (
            ("scaling.crossing_point", "extrapolated_p50_ms", 1e3, lambda s: s["counts"]["extrapolated"]),
            ("scaling.fit_power_law", "p50_ms", 1e3, None),
            ("theory.empirical_min_loss", "p50_ms", 1e3, None),
        ):
            m[f"{name}.{key}"] = scale * tracing.percentile(tracing.durations(spans, name, run, where), 50)
        per_run.append(m)
    layer = tracing.median_metrics(per_run)
    layer.update(tracing.run_metrics(spans, selfs, "import"))
    layer.update(tracing.run_metrics(spans, selfs, "probe"))
    fractions = tracing.durations(spans, "filters.repetition_fractions", "probe")
    layer["filters.repetition_fractions.p50_us"] = 1e6 * tracing.percentile(fractions, 50)
    layer["filters.repetition_fractions.p99_us"] = 1e6 * tracing.percentile(fractions, 99)
    # The replay skips the interpreter start every CLI step pays, so the
    # tracing overhead is taken against the same replay run untraced.
    layer["trace.overhead_s"] = layer["trace.wall_s"] - data["untraced_replay_s"]

    first = roots[data["runs"][0]]
    wall = spans[first]["end"] - spans[first]["start"]
    rows = tracing.layer_table(spans, selfs, first)
    print(
        f"\nlayers by self time, traced replay 1 of {len(data['runs'])} "
        f"(in-process untraced {data['untraced_replay_s']:.3f} s, CLI chain {untraced:.3f} s)"
    )
    for layer_name, seconds in rows:
        print(f"  {layer_name:<14} {seconds:9.4f} s {100 * seconds / wall:6.1f}%")
    print(f"  {'total':<14} {sum(s for _, s in rows):9.4f} s = traced wall {wall:.4f} s")
    return layer, checks, {
        "traced_replays": len(data["runs"]),
        "untraced_replay_s": data["untraced_replay_s"],
        "cli_chain_s": untraced,
        "layer_table": rows,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description="poollab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(inputs.SIZES), default="full")
    parser.add_argument(
        "--record-digests", action="store_true",
        help=f"store the default seed's artifact digests in {DIGESTS.name} instead of checking them",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "poollab" / "cli.py").is_file():
        print(f"error: no poollab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    runner = Runner(work / "logs", time.monotonic() + DEADLINE_S)
    desc = {
        part.name: inputs.make_inputs(part.name, args.seed, args.size, work / "inputs")
        for part in workload.parts
    }
    ctx = SimpleNamespace(root=ROOT, inputs=work / "inputs", desc=desc)
    prov = provenance(args, desc)
    print(f"poollab benchmark: {args.workload}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    measure = per_layer if args.trace else end_to_end
    values, checks, details = measure(workload, ctx, runner, work, args)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted
    }

    failed_steps = sum(not r.ok for r in runner.results)
    failed_checks = sum(not ok for _, ok, _ in checks)
    attempted = len(runner.results) + len(checks)
    print(f"\nchecks ({failed_checks} failed of {len(checks)})")
    for name, ok, detail in checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}" + (f"  [{detail}]" if detail and not ok else ""))
    print(f"failed_ops_ratio {(failed_steps + failed_checks) / attempted:.4g} "
          f"({failed_steps} failed steps + {failed_checks} failed checks of {attempted} ops)")
    print("\nmetrics")
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")

    result = {
        "correct": failed_steps + failed_checks == 0 and all(math.isfinite(m["value"]) for m in metrics.values()),
        "attempted": attempted,
        "failed": failed_steps + failed_checks,
        "metrics": metrics,
    }
    (work / "result.json").write_text(
        json.dumps({"provenance": prov, "checks": checks, **details, **result}, indent=2) + "\n", "utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
