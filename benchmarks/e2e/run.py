"""End-to-end benchmark of the COMMUTER pipeline.

    python benchmarks/e2e/run.py [--workload NAME]... [--seed N]
                                 [--seconds S] [--trace 0|1] [--out DIR]
    python benchmarks/e2e/run.py --compare A/runs.json B/runs.json

Each workload runs in a child process of its own (started with
``PYTHONHASHSEED=0``, all scratch files in a temporary directory under
``--out``), so a cold run is cold and peak memory is per workload.  The
parent prints every metric by name with its unit, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``; it appends the same
record to ``<out>/runs.json`` and exits non-zero if any operation failed.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` records
spans around each layer, prints the per-layer table and metrics, and
writes ``<out>/trace_<workload>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import metrics
import reference

#: Fresh child processes a run sets up to take the median ``setup_s`` of.
SETUP_RUNS = 5
#: Seconds after which a workload's children are killed; the run then
#: fails with WorkloadTimeout instead of hanging.
GUARD_SECONDS = 170.0


class WorkloadTimeout(RuntimeError):
    """A workload's child did not finish within the guard."""


class WorkloadCrashed(RuntimeError):
    """A workload's child exited without reporting a result."""


# ----------------------------------------------------------------------
# Child: one workload, in this process


def child_main(args: argparse.Namespace) -> int:
    spawned_at = float(os.environ["E2E_SPAWNED_AT"])
    import tracing  # puts src/ on sys.path; imports the program
    import workloads

    fixture = reference.load_fixture(Path(args.fixture))
    reference.check_fixture_fresh(fixture)
    tracer = tracing.Tracer(args.child) if args.trace else None
    run = workloads.Run(args.seed, args.seconds, Path(args.scratch), fixture, tracer)
    workload = workloads.WORKLOADS[args.child](run)
    try:
        workload.prepare()
        setup_s = time.time() - spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        workload.measure()
    finally:
        workload.close()

    completed = len(workload.log.latencies)
    failed = min(workload.attempted, workload.log.failed + workload.attempted - completed)
    for problem in workload.problems:
        print(f"{workload.name}: {problem}", file=sys.stderr)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": failed == 0 and not workload.problems,
        "attempted": workload.attempted,
        "failed": failed,
        "samples": completed,
        "tail_percentile": metrics.tail_percentile(completed),
        "wall_s": workload.wall,
    }
    spec = metrics.benchmark_spec()
    if tracer is None:
        values = metrics.end_to_end(workload, setup_s)
        record["metrics"] = metrics.with_units(values, spec["end_to_end"])
    else:
        values = metrics.per_layer(workload, args.untraced_wall)
        record["metrics"] = metrics.with_units(values, spec["per_layer"])
        record["table"] = metrics.blocking_path(workload)
        with open(Path(args.out) / f"trace_{workload.name}.json", "w") as f:
            json.dump(tracer.to_dict(), f)
    print(json.dumps(record))
    return 0


# ----------------------------------------------------------------------
# Parent: children, guard, reporting


def spawn_child(name: str, args, scratch: Path, deadline: float, extra: list[str]) -> dict:
    """Run one child to completion and return the record it printed.
    The child leads its own process group, which is killed on every
    exit path so no server, coordinator or worker outlives the run."""
    scratch.mkdir()
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--child", name, "--scratch", str(scratch), "--out", str(args.out),
        "--fixture", str(args.fixture),
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        *extra,
    ]  # fmt: skip
    env = {
        **os.environ,
        "PYTHONHASHSEED": "0",
        "TMPDIR": str(scratch),
        "E2E_SPAWNED_AT": repr(time.time()),
    }
    child = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkloadTimeout(f"{name}: no result within {GUARD_SECONDS:.0f}s") from None
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    lines = stdout.decode().strip().splitlines()
    if child.returncode != 0 or not lines:
        raise WorkloadCrashed(f"{name}: child exited with code {child.returncode}")
    return json.loads(lines[-1])


def untraced_wall(runs: list[dict], name: str, args) -> float:
    """``wall_s`` of the latest untraced run of the same inputs, the base
    of ``trace.overhead_share``; 0 when there is none."""
    for run in reversed(runs):
        same = (run["workload"], run["seed"], run["seconds"]) == (name, args.seed, args.seconds)
        if same and not run["trace"]:
            return run["wall_s"]
    return 0.0


def run_workload(name: str, args, runs: list[dict]) -> dict:
    deadline = time.monotonic() + GUARD_SECONDS
    with tempfile.TemporaryDirectory(dir=args.out, prefix=f"tmp-{name}-") as tmp:
        if args.trace:
            extra = ["--untraced-wall", repr(untraced_wall(runs, name, args))]
            return spawn_child(name, args, Path(tmp) / "run", deadline, extra)
        setups = [
            spawn_child(name, args, Path(tmp) / f"setup-{i}", deadline, ["--setup-only"])["setup_s"]
            for i in range(SETUP_RUNS - 1)
        ]
        record = spawn_child(name, args, Path(tmp) / "run", deadline, [])
        setups.append(record["metrics"]["setup_s"]["value"])
        record["metrics"]["setup_s"]["value"] = statistics.median(setups)
        return record


def report(record: dict) -> None:
    name = record["workload"]
    print(
        f"== {name}: seed {record['seed']}, {record['attempted']} ops, {record['failed']} failed, "
        f"{record['samples']} latency samples, tail = p{record['tail_percentile']}"
    )
    if "table" in record:
        print(f"   {'span (blocking path)':<32}{'self s':>10}{'share':>8}")
        for span, seconds, share in record["table"]:
            print(f"   {span:<32}{seconds:>10.3f}{share:>8.1%}")
        covered = sum(row[1] for row in record["table"])
        share = covered / record["wall_s"]
        print(f"   {'sum':<32}{covered:>10.3f}{share:>8.1%} of the traced wall")
    for metric, entry in record["metrics"].items():
        print(f"   {metric:<34}{entry['value']:>16.6g} {entry['unit']}")


def result_line(record: dict) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({key: record[key] for key in keys})


def load_runs(path: Path) -> list[dict]:
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return []


def compare_main(a_path: str, b_path: str) -> int:
    runs = load_runs(Path(a_path)), load_runs(Path(b_path))
    lines, breaches = metrics.compare(*runs, metrics.benchmark_spec())
    print("\n".join(lines))
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


def main(argv=None) -> int:
    spec = metrics.benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names, help="default: all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="results/e2e")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    for internal in ("--child", "--scratch"):
        parser.add_argument(internal, help=argparse.SUPPRESS)
    # The self-tests point this at a corrupted copy.
    parser.add_argument("--fixture", default=str(reference.FIXTURE_PATH), help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--untraced-wall", type=float, default=0.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if args.compare:
        return compare_main(*args.compare)

    args.out = Path(args.out).resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    runs_path = args.out / "runs.json"
    runs = load_runs(runs_path)
    status = 0
    for name in args.workload or names:
        record = run_workload(name, args, runs)
        runs.append(record)
        with open(runs_path, "w") as f:
            json.dump(runs, f, indent=1)
        report(record)
        print(result_line(record))
        if not record["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
