"""``python -m repro testgen``: concrete test cases per pair."""

from __future__ import annotations

from repro.cli.common import (
    BATCH_OPTIONS,
    CLUSTER_OPTIONS,
    add_options,
    add_params,
    cli_backend,
    progress,
    request_params,
)
from repro.kinds import (
    EXECUTION,
    MATRIX,
    TESTS_PER_PATH,
    check_params,
    interface_artifact_path,
    matrix,
)

DEFAULT_TESTGEN_OUT = "results/testgen.json"
PARAMS = MATRIX + (TESTS_PER_PATH,) + EXECUTION


def cmd_testgen(args) -> int:
    from functools import partial

    from repro.bench.report import write_artifact
    from repro.pipeline.backends import get_backend
    from repro.pipeline.jobs import run_testgen_job
    from repro.pipeline.sweep import build_pair_jobs

    p = check_params(PARAMS, request_params(PARAMS, args))
    ops, pair_filter = matrix(p)
    jobs = build_pair_jobs(
        ops=ops, tests_per_path=p["tests_per_path"], pair_filter=pair_filter,
        solver_cache_size=args.solver_cache_size, interface=p["interface"],
    )
    report = progress(args)

    def on_result(job, result):
        if report is not None:
            report(f"{result['op0']}/{result['op1']}: "
                   f"{result['cases']} cases")

    results = get_backend(cli_backend(args), args.workers).map(
        partial(run_testgen_job, render=args.render), jobs,
        on_result=on_result,
    )
    if args.render:
        for result in results:
            for text in result.get("rendered", []):
                print(text)
                print()
    payload = {
        "schema": "repro.testgen/1",
        "ops": [op.name for op in ops],
        "total": sum(r["cases"] for r in results),
        "pairs": [
            {k: v for k, v in r.items() if k != "rendered"} for r in results
        ],
    }
    if p["interface"] != "posix":
        payload["interface"] = p["interface"]
    path = write_artifact(
        args.out
        or interface_artifact_path(DEFAULT_TESTGEN_OUT, p["interface"]),
        payload,
    )
    print(f"{payload['total']} test cases across {len(results)} pairs "
          f"-> {path}")
    return 0


def register(sub) -> None:
    p = sub.add_parser("testgen", help="concrete test cases per pair")
    add_params(p, PARAMS)
    add_options(p, CLUSTER_OPTIONS + BATCH_OPTIONS)
    p.add_argument("--out", default=None, metavar="PATH",
                   help=f"artifact path (default {DEFAULT_TESTGEN_OUT}, "
                        "interface-suffixed for non-posix runs)")
    p.add_argument("--render", action="store_true",
                   help="print Figure-5-style C for every case")
    p.set_defaults(fn=cmd_testgen)
