"""The unified ``python -m repro`` command line.

Subcommands mirror the toolchain's stages (see the package docstring for
the artifact schemas): ``analyze``, ``heatmap``, ``testgen``, ``bench``,
``compare``, and ``browse``.  Every stage writes a machine-readable JSON
artifact under ``results/`` and prints a human summary.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

DEFAULT_HEATMAP_OUT = "results/fig6_heatmap.json"
DEFAULT_PARTIAL_OUT = "results/heatmap_partial.json"
DEFAULT_ANALYZE_OUT = "results/analyze.json"
DEFAULT_TESTGEN_OUT = "results/testgen.json"
DEFAULT_CACHE = "results/pipeline-cache.json"


def interface_artifact_path(default: str, interface: str,
                            ncores: int = 4) -> str:
    """Suffixed default artifact path: the historical POSIX 4-core
    artifacts keep their names; other interfaces get ``_<interface>``
    and non-default core counts ``_ncores<N>``, so no run silently
    clobbers an artifact produced under different parameters.  The
    browser resolves ``--interface``/``--ncores`` through the same
    helper, so it always finds what the pipeline wrote."""
    stem, ext = default.rsplit(".", 1)
    if interface != "posix":
        stem = f"{stem}_{interface}"
    if ncores != 4:
        stem = f"{stem}_ncores{ncores}"
    return f"{stem}.{ext}"


def scaling_artifact_path(interface: str, ladder) -> str:
    """Default ``scaling`` artifact path: always interface-suffixed
    (the sweep is inherently per-interface); non-default ladders get an
    ``_ncores<a-b-c>`` suffix so they never clobber the committed
    default-ladder artifact."""
    from repro.pipeline.scaling import DEFAULT_LADDER

    stem = f"results/scaling_{interface}"
    if tuple(ladder) != DEFAULT_LADDER:
        stem += "_ncores" + "-".join(str(n) for n in ladder)
    return f"{stem}.json"


#: Minimum crosscheck precision per interface → kernel that
#: ``lint --gate`` enforces: the unordered-sockets redesign is the
#: claim the static analyzer exists to prove, so the scalable kernel
#: must get at least half of MTRACE's conflict-free pairs right there.
LINT_PRECISION_FLOORS = {"sockets-unordered": {"scalefs": 0.5}}


def staticpredict_artifact_path(interface: str) -> str:
    """Default ``lint`` conflict-map artifact path (always
    interface-suffixed: the map is inherently per-interface)."""
    return f"results/staticpredict_{interface}.json"


def _parse_names(raw: Optional[str]) -> Optional[list[str]]:
    if raw is None:
        return None
    names = [part.strip() for part in raw.split(",") if part.strip()]
    return names or None


def _parse_pairs(raw: Optional[Sequence[str]]) -> Optional[list[tuple[str, str]]]:
    if not raw:
        return None
    pairs = []
    for item in raw:
        parts = [p.strip() for p in item.split(",") if p.strip()]
        if len(parts) != 2:
            raise SystemExit(
                f"--pairs expects 'op0,op1' (e.g. open,rename), got {item!r}"
            )
        pairs.append((parts[0], parts[1]))
    return pairs


def _resolve_interface(name: str):
    from repro.model.registry import UnknownInterfaceError, get_interface

    try:
        return get_interface(name)
    except UnknownInterfaceError as exc:
        raise SystemExit(str(exc.args[0])) from exc


def _resolve_matrix(args):
    """Interface, ops list, and pair filter from --interface/--ops/--pairs
    (all names validated against the interface's registry entry)."""
    from repro.model.registry import UnknownOperationError, resolve_ops
    from repro.pipeline.sweep import make_pair_filter

    iface = _resolve_interface(getattr(args, "interface", "posix"))
    pairs = _parse_pairs(getattr(args, "pairs", None))
    op_names = _parse_names(getattr(args, "ops", None))
    if op_names is None and pairs is not None:
        seen: list[str] = []
        for a, b in pairs:
            for name in (a, b):
                if name not in seen:
                    seen.append(name)
        op_names = seen
    try:
        ops = resolve_ops(iface.name, op_names)
    except UnknownOperationError as exc:
        raise SystemExit(str(exc.args[0])) from exc
    pair_filter = make_pair_filter(pairs) if pairs is not None else None
    return iface, ops, pair_filter


def _worker_count(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = all cores), got {value}"
        )
    return value


def _progress(args):
    if getattr(args, "quiet", False):
        return None
    return lambda line: print("  " + line, flush=True)


def _ncores(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _ladder(raw: str) -> tuple:
    from repro.pipeline.scaling import parse_ladder

    try:
        return parse_ladder(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_backend_options(parser, cluster: bool = True):
    """``--backend`` (the execution-backend registry) plus ``--workers``
    (kept as a compatible alias: ``--workers N`` alone still means
    serial for 1, the process pool otherwise — see docs/backends.md
    for the 0/None/1 semantics table).  ``cluster`` adds the flags that
    only make sense with ``--backend cluster`` (docs/cluster.md)."""
    from repro.pipeline.backends import backend_names

    parser.add_argument(
        "--backend", default=None, choices=backend_names(), metavar="NAME",
        help="execution backend: " + ", ".join(backend_names())
             + " (default: serial, or pool when --workers selects "
             "parallelism)",
    )
    parser.add_argument(
        "--workers", type=_worker_count, default=None, metavar="N",
        help="worker count for the backend (0 = all cores; default: all "
             "cores with --backend, otherwise 1 = serial; --workers N "
             "alone selects the process pool)",
    )
    if cluster:
        parser.add_argument(
            "--spawn-local", type=_worker_count, default=None, metavar="N",
            help="with --backend cluster: fork N localhost workers "
                 "(0 = all cores) instead of waiting for external ones",
        )
        parser.add_argument(
            "--cluster-listen", default=None, metavar="HOST:PORT",
            help="with --backend cluster: accept external workers "
                 "(repro cluster worker --connect) on this address",
        )


def _cli_backend(args):
    """``--backend`` plus the cluster-only flags, resolved to what the
    pipeline's ``get_backend`` accepts: a registry name, ``None``,
    or (for ``cluster``, which needs its spawn/listen configuration) a
    prebuilt backend instance."""
    from repro.pipeline.backends import ExecutionBackend

    backend = getattr(args, "backend", None)
    if isinstance(backend, ExecutionBackend):
        return backend
    spawn = getattr(args, "spawn_local", None)
    listen = getattr(args, "cluster_listen", None)
    if backend != "cluster":
        if spawn is not None or listen is not None:
            raise SystemExit(
                "--spawn-local/--cluster-listen require --backend cluster"
            )
        return backend
    from repro.cluster.backend import ClusterBackend

    return ClusterBackend(
        workers=args.workers, spawn_local=spawn, listen=listen
    )


def _add_ncores_option(parser):
    # Only meaningful for stages that run MTRACE (heatmap, compare):
    # per-core kernel structures change sharing behavior with the count.
    parser.add_argument(
        "--ncores", type=_ncores, default=4, metavar="N",
        help="core count for the kernels under test (default 4; changes "
             "sharing behavior of per-core structures)",
    )


def _add_matrix_options(parser, cache: bool = False,
                        interface_option: bool = True,
                        backend_options: bool = True):
    if interface_option:
        parser.add_argument(
            "--interface", default="posix", metavar="NAME",
            help="registered interface to analyze (posix, posix-ext, proc, "
                 "sockets-ordered, sockets-unordered, sockets-stream; "
                 "default posix)",
        )
    parser.add_argument(
        "--ops", metavar="a,b,c",
        help="restrict the matrix to these operations",
    )
    parser.add_argument(
        "--pairs", metavar="a,b", action="append",
        help="restrict to one pair (repeatable; order-insensitive)",
    )
    if backend_options:
        _add_backend_options(parser)
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-pair progress lines")
    parser.add_argument(
        "--solver-cache-size", type=int, default=None, metavar="N",
        help="bound each pair's solver memo caches to N entries "
             "(0 = unbounded; default: the solver's built-in bound)",
    )
    if cache:
        parser.add_argument(
            "--cache", default=DEFAULT_CACHE, metavar="PATH",
            help=f"persistent result cache (default {DEFAULT_CACHE})",
        )
        parser.add_argument("--no-cache", action="store_true",
                            help="recompute every pair")


def cmd_analyze(args) -> int:
    from repro.bench.report import write_artifact
    from repro.pipeline.sweep import run_analysis

    iface, ops, pair_filter = _resolve_matrix(args)
    result = run_analysis(
        ops=ops,
        workers=args.workers,
        backend=_cli_backend(args),
        pair_filter=pair_filter,
        on_progress=_progress(args),
        condition_chars=args.condition_chars,
        solver_cache_size=args.solver_cache_size,
        interface=iface.name,
    )
    payload = {
        "schema": "repro.analyze/1",
        "ops": result.op_names,
        "elapsed": result.elapsed_seconds,
        "workers": result.workers,
        "backend": result.backend,
        "pairs": [s.to_dict() for s in result.summaries],
        "solver_totals": result.solver_totals,
    }
    if iface.name != "posix":
        payload["interface"] = iface.name
    if args.out is None:
        args.out = interface_artifact_path(DEFAULT_ANALYZE_OUT, iface.name)
    path = write_artifact(args.out, payload)
    print(
        f"[{iface.name}] {len(result.summaries)} pairs analyzed "
        f"({result.commutative_pairs} with commutative paths) "
        f"in {result.elapsed_seconds:.1f}s -> {path}"
    )
    return 0


def cmd_heatmap(args) -> int:
    from repro.bench.heatmap import run_heatmap
    from repro.bench.report import heatmap_to_dict, render_heatmap, \
        render_residues, write_artifact

    iface, ops, pair_filter = _resolve_matrix(args)
    if args.out is None:
        # A filtered run must not clobber the full-matrix artifact that
        # the browser and Figure 6 benchmark read by default.
        filtered = args.ops is not None or args.pairs
        default = DEFAULT_PARTIAL_OUT if filtered else DEFAULT_HEATMAP_OUT
        args.out = interface_artifact_path(default, iface.name, args.ncores)
    cache = None if args.no_cache else args.cache
    result = run_heatmap(
        ops=ops,
        tests_per_path=args.tests_per_path,
        on_progress=_progress(args),
        workers=args.workers,
        backend=_cli_backend(args),
        cache=cache,
        pair_filter=pair_filter,
        solver_cache_size=args.solver_cache_size,
        interface=iface.name,
        ncores=args.ncores,
    )
    path = write_artifact(args.out, heatmap_to_dict(result))
    if args.render:
        for kernel in result.kernels:
            print(render_heatmap(result, kernel))
            print(render_residues(result, kernel))
            print()
    print(result.summary())
    print(
        f"{result.computed_pairs} pairs computed, "
        f"{result.cached_pairs} cached, workers={result.workers}, "
        f"backend={result.backend}, "
        f"{result.elapsed_seconds:.1f}s -> {path}"
    )
    _print_backend_stats(result.backend, result.backend_stats)
    return 0


def cmd_scaling(args) -> int:
    """Conflict-fraction-vs-ncores scaling curve (the many-core sweep):
    ANALYZER/TESTGEN once per pair, MTRACE replayed across the ladder."""
    from repro.bench.report import write_artifact
    from repro.pipeline.scaling import (
        DEFAULT_LADDER,
        conflict_free_monotonic,
        run_scaling_sweep,
        scaling_to_dict,
    )

    iface, ops, pair_filter = _resolve_matrix(args)
    ladder = args.ncores if args.ncores is not None else DEFAULT_LADDER
    if args.out is None:
        args.out = scaling_artifact_path(iface.name, ladder)
    cache = None if args.no_cache else args.cache
    result = run_scaling_sweep(
        interface=iface.name,
        ladder=ladder,
        ops=ops,
        pair_filter=pair_filter,
        tests_per_path=args.tests_per_path,
        workers=args.workers,
        backend=_cli_backend(args),
        cache=cache,
        on_progress=_progress(args),
        solver_cache_size=args.solver_cache_size,
    )
    path = write_artifact(args.out, scaling_to_dict(result))
    total = result.total_tests
    print(f"[{iface.name}] scaling ladder "
          + ",".join(str(n) for n in result.ladder)
          + f": {len(result.cells)} pairs, {total} tests per rung")
    for entry in result.curve():
        cf = ", ".join(
            f"{k} {entry['conflict_free'][k]}/{total} "
            f"({100 * entry['conflict_free_fraction'][k]:.0f}%)"
            for k in result.kernels
        )
        print(f"  ncores {entry['ncores']:>3}: conflict-free {cf}")
    exit_code = 0
    for kernel in args.gate_monotonic or ():
        if kernel not in result.kernels:
            raise SystemExit(
                f"--gate-monotonic: unknown kernel {kernel!r} "
                f"(kernels: {', '.join(result.kernels)})"
            )
        verdict = conflict_free_monotonic(result, kernel)
        mark = "ok " if verdict["nondecreasing"] else "FAIL"
        print(f"    [{mark}] {kernel} conflict-free fraction "
              "nondecreasing with ncores")
        if not verdict["nondecreasing"]:
            exit_code = 1
    print(
        f"{result.computed_pairs} pairs computed, "
        f"{result.cached_pairs} cached, workers={result.workers}, "
        f"backend={result.backend}, "
        f"{result.elapsed_seconds:.1f}s -> {path}"
    )
    _print_backend_stats(result.backend, result.backend_stats)
    return exit_code


def cmd_testgen(args) -> int:
    from functools import partial

    from repro.bench.report import write_artifact
    from repro.pipeline.backends import get_backend
    from repro.pipeline.jobs import PairJob, run_testgen_job
    from repro.pipeline.sweep import iter_pairs

    iface, ops, pair_filter = _resolve_matrix(args)
    jobs = [
        PairJob(a, b, tests_per_path=args.tests_per_path,
                solver_cache_size=args.solver_cache_size,
                build_state=iface.build_state, state_equal=iface.state_equal,
                kernels=tuple(iface.kernels), interface=iface.name)
        for a, b in iter_pairs(ops, pair_filter)
    ]
    progress = _progress(args)

    def report(job, result):
        if progress is not None:
            progress(f"{result['op0']}/{result['op1']}: "
                     f"{result['cases']} cases")

    results = get_backend(_cli_backend(args), args.workers).map(
        partial(run_testgen_job, render=args.render), jobs, on_result=report
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
    if iface.name != "posix":
        payload["interface"] = iface.name
    if args.out is None:
        args.out = interface_artifact_path(DEFAULT_TESTGEN_OUT, iface.name)
    path = write_artifact(args.out, payload)
    print(f"{payload['total']} test cases across {len(results)} pairs "
          f"-> {path}")
    return 0


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

    cores = tuple(int(n) for n in _parse_names(args.cores) or ())
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


def _print_backend_stats(backend: str, stats: dict) -> None:
    """One indented line of execution accounting for a non-serial run
    (jobs stolen, shard balance, queue depth — the knobs the backend
    registry exists to expose)."""
    from repro.pipeline.backends import format_backend_stats

    if backend == "serial" or not stats:
        return
    print(f"  backend[{backend}]: {format_backend_stats(stats)}")


def _summary_line(summary: dict) -> str:
    """One side's totals, as the comparison commands print them."""
    cf = ", ".join(
        f"{k} {summary['conflict_free'][k]}/{summary['total_tests']} "
        f"({100 * summary['conflict_free_fraction'][k]:.0f}%)"
        for k in sorted(summary["conflict_free"])
    )
    return (
        f"commutative paths "
        f"{summary['commutative_paths']}/{summary['explored_paths']} "
        f"({100 * summary['commutative_fraction']:.0f}%); "
        f"conflict-free: {cf}"
    )


def cmd_compare(args) -> int:
    from repro.bench.report import write_artifact
    from repro.compare import (
        UnknownRedesignError,
        compare_to_dict,
        get_redesign,
        redesign_names,
        run_compare,
    )

    if args.list:
        for name in redesign_names():
            print(f"{name:18s} {get_redesign(name).description}")
        return 0
    if args.name is None:
        raise SystemExit(
            "compare: a comparison name (or --list) is required; "
            f"registered comparisons: {', '.join(redesign_names())}"
        )
    try:
        redesign = get_redesign(args.name)
    except UnknownRedesignError as exc:
        raise SystemExit(str(exc.args[0])) from exc
    result = run_compare(
        redesign,
        tests_per_path=args.tests_per_path,
        workers=args.workers,
        backend=_cli_backend(args),
        cache=None if args.no_cache else args.cache,
        ncores=args.ncores,
        on_progress=_progress(args),
        solver_cache_size=args.solver_cache_size,
    )
    if args.out is None:
        # Non-default core counts get their own artifact, like heatmap.
        args.out = interface_artifact_path(
            f"results/compare_{redesign.name}.json", "posix", args.ncores
        )
    path = write_artifact(args.out, compare_to_dict(result))
    print(f"{redesign.name}: {redesign.description}")
    print("  (baseline vs redesigned, ANALYZER → TESTGEN → MTRACE)")
    for side_name in ("baseline", "redesigned"):
        summary = result.summaries[side_name]
        print(f"  {side_name:10s} [{summary['interface']}] "
              + _summary_line(summary))
    for check in result.claim["checks"]:
        mark = "ok " if check["holds"] else "FAIL"
        params = ", ".join(
            f"{k}={v}" for k, v in check.items()
            if k not in ("kind", "holds")
        )
        print(f"    [{mark}] {check['kind']}"
              + (f" ({params})" if params else ""))
    verdict = "HOLDS" if result.holds else "DOES NOT HOLD"
    _print_backend_stats(result.backend, result.backend_stats)
    print(f"  claim {verdict} -> {path}")
    return 0 if result.holds else 1


def _lint_heatmaps(names, explicit):
    """Heatmap artifacts for the soundness cross-check, keyed by
    interface: explicit ``--heatmap`` paths (the interface is read from
    the artifact), or each linted interface's default committed
    artifact when one exists on disk."""
    import json
    import os

    out: dict[str, list] = {}
    if explicit:
        for path in explicit:
            try:
                with open(path) as f:
                    payload = json.load(f)
            except (OSError, ValueError) as exc:
                raise SystemExit(f"--heatmap {path}: {exc}")
            out.setdefault(payload.get("interface", "posix"), []).append(
                (path, payload))
        return out
    for name in names:
        path = interface_artifact_path(DEFAULT_HEATMAP_OUT, name)
        if os.path.exists(path):
            with open(path) as f:
                out[name] = [(path, json.load(f))]
    return out


def _render_crosscheck(name: str, path: str, result: dict) -> str:
    precision = ", ".join(
        f"{kernel} "
        + ("n/a" if st["precision"] is None else
           f"{st['precision']:.2f} ({st['agree_cf']}/{st['dynamic_cf']})")
        for kernel, st in result["kernels"].items()
    )
    verdict = ("sound" if result["sound"]
               else f"UNSOUND ({', '.join(result['violations'])})")
    return (f"crosscheck [{name}] vs {path}: {verdict}; "
            f"precision {precision}")


def cmd_lint(args) -> int:
    """Spec/model lint rules + the static sharing analyzer, with the
    predicted conflict maps cross-checked against MTRACE heatmaps."""
    import json

    from repro.bench.report import write_artifact
    from repro.model.registry import interface_names
    from repro.staticcheck.analyzer import ANALYZABLE_KERNELS
    from repro.staticcheck.crosscheck import (
        crosscheck_heatmap,
        gate_crosscheck,
    )
    from repro.staticcheck.linter import run_lint_rules
    from repro.staticcheck.predict import staticpredict_payload

    names = (list(args.interface) if args.interface
             else list(interface_names()))
    for name in names:
        _resolve_interface(name)
    kernels = list(args.kernel) if args.kernel else None
    if kernels:
        unknown = [k for k in kernels if k not in ANALYZABLE_KERNELS]
        if unknown:
            raise SystemExit(
                f"--kernel: not statically analyzable: "
                f"{', '.join(unknown)} "
                f"(known: {', '.join(sorted(ANALYZABLE_KERNELS))})")
    try:
        findings = run_lint_rules(
            interfaces=names if args.interface else None,
            rules=_parse_names(args.rules))
    except ValueError as exc:
        raise SystemExit(str(exc))

    predictions = {}
    artifacts = {}
    for name in names:
        payload = staticpredict_payload(name, kernels)
        predictions[name] = payload
        artifacts[name] = write_artifact(
            staticpredict_artifact_path(name), payload)

    failures = [f.render() for f in findings if not f.waived]
    crosschecks: dict[str, list] = {}
    for name, entries in _lint_heatmaps(names, args.heatmap).items():
        payload = predictions.get(name)
        if payload is None:
            continue  # a --heatmap for an interface outside this run
        for path, heatmap in entries:
            result = crosscheck_heatmap(payload, heatmap)
            crosschecks.setdefault(name, []).append(
                {"heatmap": path, **result})
            failures.extend(gate_crosscheck(
                result, LINT_PRECISION_FLOORS.get(name)))

    report = {
        "schema": "repro.lint/1",
        "interfaces": names,
        "findings": [
            {"rule": f.rule, "subject": f.subject, "message": f.message,
             "waived": f.waived, "waive_reason": f.waive_reason}
            for f in findings
        ],
        "staticpredict": {
            n: {"artifact": artifacts[n],
                "summary": predictions[n]["summary"]}
            for n in names
        },
        "crosscheck": crosschecks,
        "gate": {"enabled": bool(args.gate), "failures": failures},
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        waived = sum(1 for f in findings if f.waived)
        print(f"lint: {len(findings)} finding(s), {waived} waived, "
              f"across {len(names)} interface(s)")
        for f in findings:
            print("  " + f.render())
        for name in names:
            summary = predictions[name]["summary"]
            parts = ", ".join(
                f"{k} {s['conflict_free_balanced']}/{s['pairs']} "
                f"balanced-CF ({s['conflict_free_strict']} strict)"
                for k, s in summary.items())
            print(f"staticpredict [{name}]: {parts} -> {artifacts[name]}")
        for name, entries in crosschecks.items():
            for entry in entries:
                print(_render_crosscheck(name, entry["heatmap"], entry))
        if args.gate:
            for msg in failures:
                print(f"  [FAIL] {msg}")
            print("gate: " + ("FAIL" if failures else "PASS"))
    return 1 if args.gate and failures else 0


def cmd_docs(args) -> int:
    """Generate (or ``--check``) ``docs/cli.md`` from the argparse tree,
    so the CLI reference can never silently drift from the CLI."""
    from repro.docsgen import render_cli_md

    text = render_cli_md()
    if args.check:
        try:
            with open(args.out) as f:
                current = f.read()
        except OSError:
            current = None
        if current != text:
            print(
                f"{args.out} is missing or stale; regenerate with "
                "`python -m repro docs`",
                file=sys.stderr,
            )
            return 1
        print(f"{args.out} is up to date")
        return 0
    import os

    directory = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(directory, exist_ok=True)
    with open(args.out, "w") as f:
        f.write(text)
    print(f"wrote {args.out}")
    return 0


def cmd_bench_gate(args) -> int:
    from repro.bench import regression

    return regression.main(
        ["--reports", args.reports, "--baseline", args.baseline]
    )


def cmd_serve(args) -> int:
    """Boot the COMMUTER service (see docs/service.md): an asyncio
    HTTP/JSON job server sharing one result cache and one
    content-addressed artifact store across jobs."""
    import os

    from repro.service import ArtifactStore, JobManager, ServiceServer

    # The service builds one backend per job from its name, so cluster
    # configuration travels by environment (the same REPRO_CLUSTER_*
    # variables the flags set; see docs/cluster.md).
    if args.backend == "cluster":
        if args.spawn_local is not None:
            os.environ["REPRO_CLUSTER_SPAWN_LOCAL"] = str(args.spawn_local)
        if args.cluster_listen is not None:
            os.environ["REPRO_CLUSTER_LISTEN"] = args.cluster_listen
    elif args.spawn_local is not None or args.cluster_listen is not None:
        raise SystemExit(
            "--spawn-local/--cluster-listen require --backend cluster"
        )

    manager = JobManager(
        cache=None if args.no_cache else args.cache,
        store=ArtifactStore(args.store),
        workers=args.jobs,
        backend=args.backend,
        backend_workers=args.workers,
    )
    server = ServiceServer(manager, host=args.host, port=args.port)
    server.start_background()
    print(
        f"repro service listening on http://{args.host}:{server.port} "
        f"(store {args.store}, {args.jobs} concurrent jobs)",
        flush=True,
    )
    try:
        server.wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop_background()
    return 0


def _submit_params(args) -> dict:
    """The submit CLI's flags as a job-parameters object (only the keys
    meaningful for the requested kind; the server validates)."""
    params: dict = {}
    if args.kind != "compare":
        params["interface"] = args.interface
        ops = _parse_names(args.ops)
        if ops is not None:
            params["ops"] = ops
        pairs = _parse_pairs(args.pairs)
        if pairs is not None:
            params["pairs"] = [list(p) for p in pairs]
    else:
        if args.name is None:
            raise SystemExit("submit compare: --name is required")
        params["name"] = args.name
    if args.kind in ("heatmap", "compare"):
        params["ncores"] = args.ncores
    if args.kind == "scaling" and args.ladder is not None:
        params["ladder"] = list(args.ladder)
    if args.kind != "analyze":
        params["tests_per_path"] = args.tests_per_path
    if args.backend is not None:
        params["backend"] = args.backend
    if args.workers is not None:
        params["workers"] = args.workers
    return params


def _print_event(event: dict) -> None:
    kind = event.get("event")
    if kind == "status":
        print(f"  status: {event['status']}", flush=True)
    elif kind == "pair":
        suffix = " (cached)" if event.get("cached") \
            else f" ({event.get('elapsed', 0.0):.2f}s)"
        detail = (
            f"{event['total']} tests" if "total" in event
            else f"{event.get('commutative_paths', 0)}"
                 f"/{event.get('explored_paths', 0)} paths commute"
        )
        print(f"  {event['pair']}: {event['verdict']}, {detail}{suffix}",
              flush=True)
    elif kind == "progress":
        print(f"  {event['line']}", flush=True)
    elif kind == "store":
        print(f"  served from store: {event['artifact']}", flush=True)


def cmd_submit(args) -> int:
    """Submit one job to a running ``repro serve``, stream its NDJSON
    events, and report the final artifact digest."""
    import json

    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(host=args.host, port=args.port)
    try:
        job = client.submit(args.kind, _submit_params(args))
        print(f"job {job['id']} ({args.kind}) submitted "
              f"to http://{args.host}:{args.port}", flush=True)
        if args.no_wait:
            print(json.dumps(job, indent=2, sort_keys=True))
            return 0
        for event in client.events(job["id"]):
            _print_event(event)
        final = client.job(job["id"])
    except (ServiceError, OSError) as exc:
        raise SystemExit(f"submit: {exc}") from None
    print(f"{final['computed_pairs']} pairs computed, "
          f"{final['cached_pairs']} cached"
          + (" (served from store)" if final["store_hit"] else ""))
    if final.get("artifact"):
        print(f"artifact {final['artifact']}")
        if args.out is not None:
            import os

            blob = client.artifact_bytes(final["artifact"])
            directory = os.path.dirname(os.path.abspath(args.out))
            os.makedirs(directory, exist_ok=True)
            with open(args.out, "wb") as f:
                f.write(blob)
            print(f"-> {args.out}")
    if final["status"] == "error":
        print(final.get("error") or "job failed", file=sys.stderr)
        return 1
    if final["status"] == "cancelled":
        print("job cancelled")
        return 1
    return 0


def cmd_store(args) -> int:
    """Inspect (``ls``) or garbage-collect (``gc``) the service's
    content-addressed artifact store."""
    from repro.service import ArtifactStore

    store = ArtifactStore(args.store)
    if args.action == "ls":
        records = store.ls()
        print(f"store {args.store}: {len(records)} artifact(s)")
        for r in records:
            missing = "" if r["present"] else "  MISSING"
            print(f"  {r['digest'][:16]}  {r['kind'] or '?':8s} "
                  f"{r['bytes']:>8d}B  seq {r['seq']:>3d}  "
                  f"{r['requests']} request(s){missing}")
        return 0
    removed = store.gc(keep_last=args.keep_last)
    print(f"store {args.store}: removed {len(removed)} "
          f"unreferenced artifact(s)"
          + (f" (kept last {args.keep_last})" if args.keep_last else ""))
    for digest in removed:
        print(f"  {digest}")
    return 0


def cmd_cluster_worker(args) -> int:
    """Run one cluster worker against a coordinator (docs/cluster.md)."""
    from repro.cluster.worker import run_worker

    try:
        return run_worker(
            args.connect,
            slots=args.slots,
            heartbeat_interval=args.heartbeat,
            reconnect=args.reconnect,
            name=args.name,
            quiet=args.quiet,
        )
    except ValueError as exc:
        raise SystemExit(f"cluster worker: {exc}") from None


def cmd_cluster_coordinator(args) -> int:
    """Listen for workers and drive a heatmap sweep across the fleet:
    the explicit-deployment spelling of ``heatmap --backend cluster``
    (same artifacts, same cache; see docs/cluster.md)."""
    from repro.cluster.backend import ClusterBackend
    from repro.cluster.faults import parse_fault

    try:
        fault = parse_fault(args.fault) if args.fault else None
    except ValueError as exc:
        raise SystemExit(f"cluster coordinator: {exc}") from None
    verbose = None if args.quiet else (
        lambda line: print(f"  [coordinator] {line}", flush=True)
    )
    args.backend = ClusterBackend(
        listen=args.listen,
        spawn_local=args.spawn_local,
        min_workers=args.min_workers,
        slots=args.slots,
        fault=fault,
        on_event=verbose,
        on_listening=lambda host, port: print(
            f"cluster coordinator listening on {host}:{port}", flush=True
        ),
    )
    args.workers = None
    return cmd_heatmap(args)


def cmd_browse(argv: Sequence[str]) -> int:
    from repro import browser

    return browser.main(list(argv))


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="COMMUTER reproduction pipeline "
                    "(ANALYZER / TESTGEN / MTRACE / benchmarks)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="commutativity conditions per pair")
    _add_matrix_options(p)
    p.add_argument("--out", default=None, metavar="PATH",
                   help=f"artifact path (default {DEFAULT_ANALYZE_OUT}, "
                        "interface-suffixed for non-posix runs)")
    p.add_argument("--condition-chars", type=int, default=4000,
                   help="truncate rendered conditions (<=0: unlimited)")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("heatmap",
                       help="full Figure 6 pipeline (analyze+testgen+mtrace)")
    _add_matrix_options(p, cache=True)
    _add_ncores_option(p)
    p.add_argument("--out", default=None, metavar="PATH",
                   help=f"artifact path (default {DEFAULT_HEATMAP_OUT}; "
                        f"{DEFAULT_PARTIAL_OUT} for --ops/--pairs runs)")
    p.add_argument("--tests-per-path", type=int, default=1)
    p.add_argument("--render", action="store_true",
                   help="print the ASCII matrix and residue tables")
    p.set_defaults(fn=cmd_heatmap)

    p = sub.add_parser(
        "scaling",
        help="conflict-fraction-vs-ncores scaling curve: ANALYZER/TESTGEN "
             "once per pair, MTRACE replayed across an ncores ladder "
             "(batched many-core sweep; exit 1 if a --gate-monotonic "
             "kernel's curve decreases)",
    )
    p.add_argument("interface", nargs="?", default="posix",
                   help="registered interface to sweep (default posix)")
    _add_matrix_options(p, cache=True, interface_option=False)
    p.add_argument(
        # The default ladder lives in repro.pipeline.scaling
        # (DEFAULT_LADDER); the help text mirrors it so the parser needs
        # no heavyweight import (tests pin the two against each other).
        "--ncores", type=_ladder, default=None, metavar="a,b,c",
        help="ncores ladder for the kernels under test "
             "(default 2,4,16,64,128,480)",
    )
    p.add_argument(
        "--gate-monotonic", action="append", default=None, metavar="KERNEL",
        help="exit 1 unless KERNEL's conflict-free fraction is "
             "nondecreasing along the ladder (repeatable)",
    )
    p.add_argument("--out", default=None, metavar="PATH",
                   help="artifact path (default results/scaling_"
                        "<interface>.json, ncores-suffixed for "
                        "non-default ladders)")
    p.add_argument("--tests-per-path", type=int, default=1)
    p.set_defaults(fn=cmd_scaling)

    p = sub.add_parser("testgen", help="concrete test cases per pair")
    _add_matrix_options(p)
    p.add_argument("--out", default=None, metavar="PATH",
                   help=f"artifact path (default {DEFAULT_TESTGEN_OUT}, "
                        "interface-suffixed for non-posix runs)")
    p.add_argument("--tests-per-path", type=int, default=1)
    p.add_argument("--render", action="store_true",
                   help="print Figure-5-style C for every case")
    p.set_defaults(fn=cmd_testgen)

    p = sub.add_parser("bench", help="Figure 7 microbenchmarks")
    p.add_argument("--suite", default="all",
                   choices=("statbench", "openbench", "mailserver", "all"))
    p.add_argument("--cores", default="1,4,16", metavar="a,b,c")
    p.add_argument("--duration", type=float, default=30_000.0)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="artifact path (default results/bench_<suite>.json)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "compare",
        help="§4-style redesign comparison: baseline vs redesigned "
             "interface through ANALYZER/TESTGEN/MTRACE, with the "
             "claim checked (exit 1 if it fails)",
    )
    p.add_argument("name", nargs="?", default=None,
                   help="registered comparison (see --list)")
    p.add_argument("--list", action="store_true",
                   help="list the registered comparisons and exit")
    # The matrix is fixed by the redesign spec, so only the execution
    # knobs here (no --interface/--ops/--pairs).
    _add_ncores_option(p)
    _add_backend_options(p)
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-pair progress lines")
    p.add_argument("--tests-per-path", type=int, default=1)
    p.add_argument(
        "--solver-cache-size", type=int, default=None, metavar="N",
        help="bound each pair's solver memo caches to N entries",
    )
    p.add_argument(
        "--cache", default=DEFAULT_CACHE, metavar="PATH",
        help=f"persistent result cache (default {DEFAULT_CACHE})",
    )
    p.add_argument("--no-cache", action="store_true",
                   help="recompute every pair")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="artifact path (default results/compare_<name>.json, "
                        "ncores-suffixed for non-default --ncores)")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser(
        "lint",
        help="static sharing analyzer + spec/model linter: predicted "
             "conflict maps per interface (repro.staticpredict/1), "
             "cross-checked for soundness against committed MTRACE "
             "heatmaps",
    )
    p.add_argument("--interface", action="append", default=None,
                   metavar="NAME",
                   help="lint only this interface (repeatable; default: "
                        "every registered interface)")
    p.add_argument("--kernel", action="append", default=None,
                   metavar="NAME",
                   help="restrict the sharing analysis to this kernel "
                        "(repeatable; default: each interface's "
                        "analyzable kernel bindings)")
    p.add_argument("--rules", metavar="a,b,c",
                   help="run only these lint rules (default: all; "
                        "see docs/lint.md)")
    p.add_argument("--heatmap", action="append", default=None,
                   metavar="PATH",
                   help="heatmap artifact for the soundness cross-check "
                        "(repeatable; default: each linted interface's "
                        "committed default artifact, when present)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout "
                        "(schema repro.lint/1)")
    p.add_argument("--gate", action="store_true",
                   help="exit 1 on any unwaived finding, soundness "
                        "violation, or crosscheck precision below the "
                        "floor")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "docs",
        help="generate docs/cli.md from this argparse tree "
             "(--check verifies it instead; tests and CI gate on it)",
    )
    p.add_argument("--out", default="docs/cli.md", metavar="PATH",
                   help="reference path (default docs/cli.md)")
    p.add_argument("--check", action="store_true",
                   help="exit 1 if the file is missing or stale "
                        "instead of writing it")
    p.set_defaults(fn=cmd_docs)

    p = sub.add_parser(
        "bench-gate",
        help="compare BENCH_*.json reports against the committed baseline",
    )
    p.add_argument("--reports", default="results", metavar="DIR")
    p.add_argument("--baseline", default="benchmarks/bench_baseline.json",
                   metavar="PATH")
    p.set_defaults(fn=cmd_bench_gate)

    p = sub.add_parser(
        "serve",
        help="COMMUTER-as-a-service: asyncio HTTP/JSON job server over "
             "the pipeline (jobs, NDJSON event streams, content-"
             "addressed artifacts; see docs/service.md)",
    )
    p.add_argument("--host", default="127.0.0.1", metavar="HOST",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8321, metavar="PORT",
                   help="bind port (default 8321; 0 = ephemeral, printed "
                        "on startup)")
    p.add_argument("--jobs", type=int, default=2, metavar="N",
                   help="how many jobs run concurrently (default 2; each "
                        "job fans pairs out through its own backend)")
    _add_backend_options(p)
    p.add_argument(
        "--cache", default=DEFAULT_CACHE, metavar="PATH",
        help=f"shared persistent result cache (default {DEFAULT_CACHE})",
    )
    p.add_argument("--no-cache", action="store_true",
                   help="recompute every pair in every job")
    p.add_argument("--store", default="results/store", metavar="DIR",
                   help="content-addressed artifact store directory "
                        "(default results/store)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a job to a running `repro serve`, stream its "
             "per-pair NDJSON events, and print the artifact digest",
    )
    p.add_argument("kind",
                   choices=("analyze", "heatmap", "compare", "scaling"),
                   help="job kind")
    p.add_argument("--host", default="127.0.0.1", metavar="HOST",
                   help="service address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8321, metavar="PORT",
                   help="service port (default 8321)")
    p.add_argument("--interface", default="posix", metavar="NAME",
                   help="registered interface (non-compare kinds; "
                        "default posix)")
    p.add_argument("--ops", metavar="a,b,c",
                   help="restrict the matrix to these operations")
    p.add_argument("--pairs", metavar="a,b", action="append",
                   help="restrict to one pair (repeatable)")
    p.add_argument("--name", default=None, metavar="NAME",
                   help="registered comparison (compare jobs)")
    _add_ncores_option(p)
    p.add_argument("--ladder", type=_ladder, default=None, metavar="a,b,c",
                   help="ncores ladder (scaling jobs; default "
                        "2,4,16,64,128,480)")
    p.add_argument("--tests-per-path", type=int, default=1)
    # No cluster flags here: spawn/listen configuration belongs to the
    # server process (`repro serve --backend cluster` or REPRO_CLUSTER_*).
    _add_backend_options(p, cluster=False)
    p.add_argument("--no-wait", action="store_true",
                   help="print the job record and exit without streaming")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the artifact's canonical bytes to PATH "
                        "after completion")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser(
        "store",
        help="inspect (ls) or garbage-collect (gc) the service's "
             "content-addressed artifact store",
    )
    p.add_argument("action", choices=("ls", "gc"))
    p.add_argument("--store", default="results/store", metavar="DIR",
                   help="store directory (default results/store)")
    p.add_argument("--keep-last", type=int, default=0, metavar="N",
                   help="gc: keep the N most recently stored "
                        "unreferenced artifacts (default 0 = drop all)")
    p.set_defaults(fn=cmd_store)

    p = sub.add_parser(
        "cluster",
        help="distributed fleet: a coordinator driving TCP workers on N "
             "hosts, with heartbeat failure detection and requeue "
             "(see docs/cluster.md; `--backend cluster` on any command "
             "uses the same machinery)",
    )
    csub = p.add_subparsers(dest="cluster_command", required=True)

    c = csub.add_parser(
        "coordinator",
        help="listen for workers and run a heatmap sweep across the "
             "fleet (artifacts byte-identical to --backend serial)",
    )
    c.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                   help="bind address for worker connections (default "
                        "127.0.0.1:0 = ephemeral, printed on startup)")
    c.add_argument("--min-workers", type=int, default=1, metavar="N",
                   help="wait for N connected workers before dispatching "
                        "(default 1)")
    c.add_argument("--spawn-local", type=_worker_count, default=None,
                   metavar="N",
                   help="also fork N localhost workers (0 = all cores)")
    c.add_argument("--slots", type=int, default=1, metavar="K",
                   help="jobs in flight per spawned local worker "
                        "(default 1)")
    c.add_argument("--fault", default=None, metavar="SPEC",
                   help="deterministic fault injection, e.g. "
                        "kill-after-result=2 (tests/CI; docs/cluster.md)")
    _add_matrix_options(c, cache=True, backend_options=False)
    _add_ncores_option(c)
    c.add_argument("--out", default=None, metavar="PATH",
                   help=f"artifact path (default {DEFAULT_HEATMAP_OUT}; "
                        f"{DEFAULT_PARTIAL_OUT} for --ops/--pairs runs)")
    c.add_argument("--tests-per-path", type=int, default=1)
    c.add_argument("--render", action="store_true",
                   help="print the ASCII matrix and residue tables")
    c.set_defaults(fn=cmd_cluster_coordinator)

    w = csub.add_parser(
        "worker",
        help="connect to a coordinator and execute dispatched pair jobs "
             "until it shuts the fleet down",
    )
    w.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="coordinator address")
    w.add_argument("--slots", type=int, default=1, metavar="K",
                   help="max jobs in flight on this worker (default 1)")
    w.add_argument("--heartbeat", type=float, default=0.5, metavar="SECS",
                   help="heartbeat interval (default 0.5)")
    w.add_argument("--reconnect", type=float, default=0.0, metavar="SECS",
                   help="retry cadence when the coordinator is missing "
                        "(default 0 = exit instead)")
    w.add_argument("--name", default=None, metavar="NAME",
                   help="worker name in coordinator logs/stats "
                        "(default host:pid)")
    w.add_argument("--quiet", action="store_true",
                   help="suppress stderr progress lines")
    w.set_defaults(fn=cmd_cluster_worker)

    sub.add_parser(
        "browse", add_help=False,
        help="terminal browser over a heatmap JSON (args pass through "
             "to repro.browser)",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # argparse.REMAINDER cannot forward a leading option flag, so the
    # browser passthrough dispatches before parsing.
    if argv and argv[0] == "browse":
        return cmd_browse(argv[1:])
    args = build_parser().parse_args(argv)
    if getattr(args, "condition_chars", None) is not None \
            and args.command == "analyze" and args.condition_chars <= 0:
        args.condition_chars = None
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
