"""``python -m repro bench`` (the Figure 7 microbenchmarks) and
``bench-gate`` (the regression gate over their reports)."""

from __future__ import annotations

from repro.cli.common import split_names

def cmd_bench(args) -> int:
    from repro.bench.mailserver import run_mailserver
    from repro.bench.openbench import (
        run_openbench,
        run_openbench_linux_baseline,
    )
    from repro.bench.report import bench_to_dict, render_series, \
        write_artifact
    from repro.bench.statbench import (
        run_statbench,
        run_statbench_linux_baseline,
    )

    cores = tuple(int(n) for n in split_names(args.cores) or ())
    if not cores:
        cores = (1, 4, 16)
    suites = (
        ("statbench", "openbench", "mailserver")
        if args.suite == "all" else (args.suite,)
    )
    for suite in suites:
        if suite == "statbench":
            series = [
                run_statbench(mode, cores=cores, duration=args.duration)
                for mode in ("fstatx", "fstat-shared", "fstat-refcache")
            ]
            payload = bench_to_dict(suite, series)
            payload["linux_baseline_1core"] = run_statbench_linux_baseline(
                duration=args.duration
            )
        elif suite == "openbench":
            series = [
                run_openbench(mode, cores=cores, duration=args.duration)
                for mode in ("anyfd", "lowest")
            ]
            payload = bench_to_dict(suite, series)
            payload["linux_baseline_1core"] = run_openbench_linux_baseline(
                duration=args.duration
            )
        else:
            series = [
                run_mailserver(mode, cores=cores, duration=args.duration)
                for mode in ("commutative", "regular")
            ]
            payload = bench_to_dict(suite, series,
                                    unit="emails/Mcycle/core")
        out = args.out or f"results/bench_{suite}.json"
        path = write_artifact(out, payload)
        print(render_series(f"{suite} (cores={list(cores)})", series,
                            unit=payload["unit"]))
        print(f"-> {path}\n")
    return 0


def cmd_bench_gate(args) -> int:
    from repro.bench import regression

    return regression.main(
        ["--reports", args.reports, "--baseline", args.baseline]
    )


def register(sub) -> None:
    p = sub.add_parser("bench", help="Figure 7 microbenchmarks")
    p.add_argument("--suite", default="all",
                   choices=("statbench", "openbench", "mailserver", "all"))
    p.add_argument("--cores", default="1,4,16", metavar="a,b,c")
    p.add_argument("--duration", type=float, default=30_000.0)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="artifact path (default results/bench_<suite>.json)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "bench-gate",
        help="compare BENCH_*.json reports against the committed baseline",
    )
    p.add_argument("--reports", default="results", metavar="DIR")
    p.add_argument("--baseline", default="benchmarks/bench_baseline.json",
                   metavar="PATH")
    p.set_defaults(fn=cmd_bench_gate)
