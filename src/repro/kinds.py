"""The sweep-kind registry: one declaration per kind of sweep.

COMMUTER is one pipeline — ANALYZER → TESTGEN → MTRACE — swept four
ways: ``analyze``, ``heatmap``, ``scaling`` and ``compare``.  Each kind
is declared here once, as a frozen :class:`SweepKind` registered by
name (the way backends, interfaces and redesigns are): its request
parameters with their validators, defaults and command-line flags, how
to run it, its artifact and stable projection, its record summary, its
default ``--out`` path, and its terminal report.  Everything that
offers the kinds reads this table and declares nothing of its own:

* the batch command ``python -m repro <kind>`` (:mod:`repro.cli.sweeps`),
* the client command ``python -m repro submit <kind>``
  (:mod:`repro.cli.service`), whose flags are the same :class:`Param`\\ s,
* the service's :class:`~repro.service.jobs.JobManager`, which
  validates with :func:`normalize` and runs with :attr:`SweepKind.run`.

This module sits above :mod:`repro.pipeline`, :mod:`repro.compare` and
:mod:`repro.bench.report` and below :mod:`repro.cli` and
:mod:`repro.service` (see ``docs/architecture.md``).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional

from repro.bench.report import (
    analyze_to_dict,
    heatmap_to_dict,
    render_heatmap,
    render_residues,
    strip_volatile_analyze,
    strip_volatile_heatmap,
)
from repro.compare import (
    compare_to_dict,
    get_redesign,
    redesign_names,
    run_compare,
    strip_volatile_compare,
)
from repro.model.registry import get_interface, resolve_ops
from repro.pipeline.backends import backend_names, format_backend_stats
from repro.pipeline.cache import DEFAULT_CACHE
from repro.pipeline.scaling import (
    DEFAULT_LADDER,
    conflict_free_monotonic,
    parse_ladder,
    run_scaling_sweep,
    scaling_to_dict,
    strip_volatile_scaling,
)
from repro.pipeline.sweep import (
    build_analysis_jobs,
    build_pair_jobs,
    make_pair_filter,
    run_analysis,
    run_sweep,
)

DEFAULT_HEATMAP_OUT = "results/fig6_heatmap.json"
DEFAULT_PARTIAL_OUT = "results/heatmap_partial.json"
DEFAULT_ANALYZE_OUT = "results/analyze.json"


class BadRequest(ValueError):
    """Invalid sweep request (unknown kind/interface/op/...): an HTTP
    400 from the service, a usage error from the batch CLI."""


# ----------------------------------------------------------------------
# Request parameters


@dataclass(frozen=True)
class Param:
    """One request parameter, as JSON and as a command-line flag."""

    #: the JSON key, and the argparse ``dest``
    name: str
    #: ``--flag``, or a bare name for an optional positional
    flag: str
    #: (value, normalized-so-far) -> canonical value; raises BadRequest
    check: Callable
    #: used when the request leaves the parameter out; a parameter that
    #: is still ``None`` is left out of the normalized request
    default: object = None
    #: ``check`` also sees a missing value (and rejects it)
    required: bool = False
    #: the remaining ``add_argument`` keywords
    arg: Mapping = field(default_factory=dict)


def _lookup(fn, *args):
    """A registry lookup whose unknown-name error is the request error."""
    try:
        return fn(*args)
    except KeyError as exc:
        raise BadRequest(str(exc.args[0])) from None


def _at_least(name: str, minimum: int) -> Callable:
    def check(value, out):
        # A bool is not a count: as ``"ncores": true`` it would key and
        # store a second copy of the ``"ncores": 1`` artifact.
        count = isinstance(value, int) and not isinstance(value, bool)
        if not count or value < minimum:
            raise BadRequest(
                f"{name} must be an int >= {minimum}, got {value!r}"
            )
        return value

    return check


def _check_interface(value, out):
    return _lookup(get_interface, value).name


def _check_ops(value, out):
    if isinstance(value, str):
        value = [o.strip() for o in value.split(",") if o.strip()]
    if not isinstance(value, list) or not all(
        isinstance(o, str) for o in value
    ):
        raise BadRequest("ops must be a list of operation names")
    _lookup(resolve_ops, out["interface"], value)
    return list(value)


def _check_pairs(value, out):
    try:
        pairs = [[str(a), str(b)] for a, b in value]
    except (TypeError, ValueError):
        raise BadRequest("pairs must be a list of [op0, op1] pairs") from None
    if "ops" not in out:
        # Pairs alone restrict the matrix to the ops they name.
        out["ops"] = list(dict.fromkeys(op for pair in pairs for op in pair))
        _lookup(resolve_ops, out["interface"], out["ops"])
    return pairs


def _check_ladder(value, out):
    try:
        return list(parse_ladder(value))
    except (TypeError, ValueError) as exc:
        raise BadRequest(
            f"ladder must be ints >= 1 (a list or 'a,b,c'): {exc}"
        ) from None


def _check_name(value, out):
    if not isinstance(value, str):
        raise BadRequest(
            "compare jobs need a 'name' parameter "
            f"(registered comparisons: {', '.join(redesign_names())})"
        )
    return _lookup(get_redesign, value).name


def _check_backend(value, out):
    if value not in backend_names():
        raise BadRequest(
            f"unknown backend {value!r} "
            f"(backends: {', '.join(backend_names())})"
        )
    return value


def _pair(raw: str) -> list:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expects 'op0,op1' (e.g. open,rename), got {raw!r}"
        )
    return parts


def worker_count(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = all cores), got {value}"
        )
    return value


INTERFACE = Param(
    "interface", "--interface", _check_interface, default="posix",
    arg=dict(
        metavar="NAME",
        help="registered interface to analyze (posix, posix-ext, proc, "
             "sockets-ordered, sockets-unordered, sockets-stream; "
             "default posix)",
    ),
)
OPS = Param(
    "ops", "--ops", _check_ops,
    arg=dict(metavar="a,b,c", help="restrict the matrix to these operations"),
)
PAIRS = Param(
    "pairs", "--pairs", _check_pairs,
    arg=dict(
        metavar="a,b", action="append", type=_pair,
        help="restrict to one pair (repeatable; order-insensitive)",
    ),
)
MATRIX = (INTERFACE, OPS, PAIRS)
# Only the kinds that run MTRACE take a core count: per-core kernel
# structures change sharing behavior with it.
NCORES = Param(
    "ncores", "--ncores", _at_least("ncores", 1), default=4,
    arg=dict(
        type=int, metavar="N",
        help="core count for the kernels under test (default 4; changes "
             "sharing behavior of per-core structures)",
    ),
)
LADDER = Param(
    "ladder", "--ncores", _check_ladder, default=DEFAULT_LADDER,
    arg=dict(
        metavar="a,b,c",
        help="ncores ladder for the kernels under test (default "
             + ",".join(str(n) for n in DEFAULT_LADDER) + ")",
    ),
)
TESTS_PER_PATH = Param(
    "tests_per_path", "--tests-per-path", _at_least("tests_per_path", 1),
    default=1, arg=dict(type=int),
)
NAME = Param(
    "name", "name", _check_name, required=True,
    arg=dict(help="registered comparison (see `compare --list`)"),
)
#: The execution knobs every kind takes.  They never change results, so
#: they stay out of request keys (docs/backends.md has the
#: ``--workers`` 0/None/1 semantics table).
EXECUTION = (
    Param(
        "backend", "--backend", _check_backend,
        arg=dict(
            choices=backend_names(), metavar="NAME",
            help="execution backend: " + ", ".join(backend_names())
                 + " (default: serial, or pool when --workers selects "
                 "parallelism)",
        ),
    ),
    Param(
        "workers", "--workers", _at_least("workers", 0),
        arg=dict(
            type=worker_count, metavar="N",
            help="worker count for the backend (0 = all cores; default: "
                 "all cores with --backend, otherwise 1 = serial; "
                 "--workers N alone selects the process pool)",
        ),
    ),
)


def check_params(params, raw: Mapping) -> dict:
    """``raw`` validated and canonicalized against ``params``, in order
    (a later check may read what an earlier one normalized)."""
    out: dict = {}
    for param in params:
        value = raw.get(param.name, param.default)
        if value is not None or param.required:
            out[param.name] = param.check(value, out)
    return out


def matrix(p: Mapping) -> tuple:
    """``(ops, pair_filter)`` of a normalized request."""
    pair_filter = make_pair_filter(p["pairs"]) if p.get("pairs") else None
    return resolve_ops(p["interface"], p.get("ops")), pair_filter


# ----------------------------------------------------------------------
# Default artifact paths (the browser resolves through the same helpers,
# so it always finds what a sweep wrote)


def interface_artifact_path(default: str, interface: str,
                            ncores: int = 4) -> str:
    """Suffixed default artifact path: the historical POSIX 4-core
    artifacts keep their names; other interfaces get ``_<interface>``
    and non-default core counts ``_ncores<N>``, so no run silently
    clobbers an artifact produced under different parameters."""
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
    stem = f"results/scaling_{interface}"
    if tuple(ladder) != DEFAULT_LADDER:
        stem += "_ncores" + "-".join(str(n) for n in ladder)
    return f"{stem}.json"


# ----------------------------------------------------------------------
# The kind record and its registry


@dataclass(frozen=True)
class SweepKind:
    """Everything the batch CLI, ``submit`` and the service know about
    one kind of sweep.  ``p`` is a normalized request; ``opts`` holds
    the batch command's parsed options (empty in the service)."""

    name: str
    help: str
    #: the request parameters (``EXECUTION`` rides along with every kind)
    params: tuple
    #: (p, opts, cache=, backend=, workers=, on_progress=, on_pair=) ->
    #: result.  Either callback may raise to stop the sweep: it fires
    #: after the finished pair is in the cache.
    run: Callable
    #: result -> the full artifact; artifact -> its stable projection
    #: (what the service stores and parity checks compare)
    to_dict: Callable
    strip: Callable
    #: stable projection -> the job record's ``summary``
    summary: Callable
    #: p -> the batch command's default ``--out``
    default_out: Callable
    out_help: str
    #: (result, p, path, opts) -> exit code, after printing the report
    report: Callable
    #: the batch command's own ``(flag, add_argument keywords)`` pairs
    options: tuple = ()
    #: p -> the jobs whose fingerprints key a memoized request; ``None``
    #: for kinds the service does not memoize
    build_jobs: Optional[Callable] = None
    #: (job, cell) -> the ``pair`` event's verdict and details; kinds
    #: without one narrate through ``progress`` events instead
    event: Optional[Callable] = None


_KINDS: dict[str, SweepKind] = {}


def register_kind(kind: SweepKind) -> SweepKind:
    _KINDS[kind.name] = kind
    return kind


def kind_names() -> tuple:
    """Registered kind names, in registration order."""
    return tuple(_KINDS)


def get_kind(name: str) -> SweepKind:
    try:
        return _KINDS[name]
    except (KeyError, TypeError):
        raise BadRequest(
            f"unknown job kind {name!r} (kinds: {', '.join(_KINDS)})"
        ) from None


def normalize(kind: str, params: Mapping) -> dict:
    """Validate and canonicalize one request's parameters.

    The normalized dict is what a job record reports *and* what the
    service's request key hashes — minus the execution knobs
    (``backend``, ``workers``), which never change results and
    therefore must not break request-level memoization.  A parameter
    that only another kind declares is accepted and ignored.
    """
    entry = get_kind(kind)
    known = {p.name for k in _KINDS.values() for p in k.params + EXECUTION}
    unknown = sorted(set(params) - known)
    if unknown:
        raise BadRequest(f"unknown parameter(s): {', '.join(unknown)}")
    out = check_params(entry.params + EXECUTION, params)
    for param in EXECUTION:
        out.setdefault(param.name, None)
    return out


# ----------------------------------------------------------------------
# Terminal reports


def _print_execution(result, path: str) -> None:
    """The cache/backend accounting line, plus one indented line of
    backend stats for a non-serial run (jobs stolen, shard balance,
    requeues — the knobs the backend registry exists to expose)."""
    print(
        f"{result.computed_pairs} pairs computed, "
        f"{result.cached_pairs} cached, workers={result.workers}, "
        f"backend={result.backend}, "
        f"{result.elapsed_seconds:.1f}s -> {path}"
    )
    _print_backend_stats(result)


def _print_backend_stats(result) -> None:
    if result.backend != "serial" and result.backend_stats:
        print(f"  backend[{result.backend}]: "
              + format_backend_stats(result.backend_stats))


def _check_mark(ok: bool) -> str:
    return "ok " if ok else "FAIL"


CACHE_OPTIONS = (
    ("--cache", dict(
        default=DEFAULT_CACHE, metavar="PATH",
        help=f"persistent result cache (default {DEFAULT_CACHE})")),
    ("--no-cache", dict(action="store_true", help="recompute every pair")),
)


# ----------------------------------------------------------------------
# analyze


def _run_analyze(p, opts, cache=None, **how):
    # ANALYZER summaries are not cached (only the service memoizes them,
    # by request).
    ops, pair_filter = matrix(p)
    chars = opts.get("condition_chars", 4000)
    return run_analysis(
        ops=ops, pair_filter=pair_filter, interface=p["interface"],
        condition_chars=chars if chars > 0 else None,
        solver_cache_size=opts.get("solver_cache_size"), **how,
    )


def _report_analyze(result, p, path, opts) -> int:
    print(
        f"[{result.interface}] {len(result.summaries)} pairs analyzed "
        f"({result.commutative_pairs} with commutative paths) "
        f"in {result.elapsed_seconds:.1f}s -> {path}"
    )
    return 0


register_kind(SweepKind(
    name="analyze",
    help="commutativity conditions per pair",
    params=MATRIX,
    options=(
        ("--condition-chars", dict(
            type=int, default=4000,
            help="truncate rendered conditions (<=0: unlimited)")),
    ),
    build_jobs=lambda p: build_analysis_jobs(
        *matrix(p), interface=p["interface"]),
    run=_run_analyze,
    to_dict=analyze_to_dict,
    strip=strip_volatile_analyze,
    summary=lambda payload: {
        "pairs": len(payload["pairs"]),
        "commutative_pairs": sum(
            1 for s in payload["pairs"] if s["commutative_paths"]),
    },
    default_out=lambda p: interface_artifact_path(
        DEFAULT_ANALYZE_OUT, p["interface"]),
    out_help=f"artifact path (default {DEFAULT_ANALYZE_OUT}, "
             "interface-suffixed for non-posix runs)",
    report=_report_analyze,
    event=lambda job, summary: (
        "commutes" if summary.commutative_paths else "never",
        {"commutative_paths": summary.commutative_paths,
         "explored_paths": summary.explored_paths},
    ),
))


# ----------------------------------------------------------------------
# heatmap


def _build_heatmap_jobs(p):
    ops, pair_filter = matrix(p)
    return build_pair_jobs(
        ops=ops, tests_per_path=p["tests_per_path"], pair_filter=pair_filter,
        interface=p["interface"], ncores=p["ncores"],
    )


def _run_heatmap(p, opts, **how):
    ops, pair_filter = matrix(p)
    return run_sweep(
        ops=ops, tests_per_path=p["tests_per_path"], pair_filter=pair_filter,
        solver_cache_size=opts.get("solver_cache_size"),
        interface=p["interface"], ncores=p["ncores"], **how,
    )


def _heatmap_out(p) -> str:
    # A filtered run must not clobber the full-matrix artifact that the
    # browser and the Figure 6 benchmark read by default.
    filtered = "ops" in p or "pairs" in p
    return interface_artifact_path(
        DEFAULT_PARTIAL_OUT if filtered else DEFAULT_HEATMAP_OUT,
        p["interface"], p["ncores"],
    )


def _heatmap_event(job, cell):
    fails = {k: cell.not_conflict_free.get(k, 0) for k, _ in job.kernels}
    return (
        "clean" if not any(fails.values()) else "conflicts",
        {"total": cell.total, "fails": fails},
    )


def _report_heatmap(result, p, path, opts) -> int:
    if opts.get("render"):
        for kernel in result.kernels:
            print(render_heatmap(result, kernel))
            print(render_residues(result, kernel))
            print()
    print(result.summary())
    _print_execution(result, path)
    return 0


register_kind(SweepKind(
    name="heatmap",
    help="full Figure 6 pipeline (analyze+testgen+mtrace)",
    params=MATRIX + (NCORES, TESTS_PER_PATH),
    options=CACHE_OPTIONS + (
        ("--render", dict(
            action="store_true",
            help="print the ASCII matrix and residue tables")),
    ),
    build_jobs=_build_heatmap_jobs,
    run=_run_heatmap,
    to_dict=heatmap_to_dict,
    strip=strip_volatile_heatmap,
    summary=lambda payload: {
        "pairs": len(payload["cells"]),
        "total_tests": payload["total"],
        "conflict_free": dict(payload["conflict_free"]),
    },
    default_out=_heatmap_out,
    out_help=f"artifact path (default {DEFAULT_HEATMAP_OUT}; "
             f"{DEFAULT_PARTIAL_OUT} for --ops/--pairs runs)",
    report=_report_heatmap,
    event=_heatmap_event,
))


# ----------------------------------------------------------------------
# compare


def _run_compare(p, opts, on_pair=None, **how):
    return run_compare(
        p["name"], tests_per_path=p["tests_per_path"], ncores=p["ncores"],
        solver_cache_size=opts.get("solver_cache_size"), **how,
    )


def _list_redesigns(args) -> int:
    for name in redesign_names():
        print(f"{name:18s} {get_redesign(name).description}")
    return 0


def _summary_line(summary: dict) -> str:
    """One side's totals, as the comparison report prints them."""
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


def _report_compare(result, p, path, opts) -> int:
    print(f"{result.redesign.name}: {result.redesign.description}")
    print("  (baseline vs redesigned, ANALYZER → TESTGEN → MTRACE)")
    for side_name, summary in result.summaries.items():
        print(f"  {side_name:10s} [{summary['interface']}] "
              + _summary_line(summary))
    for check in result.claim["checks"]:
        params = ", ".join(
            f"{k}={v}" for k, v in check.items()
            if k not in ("kind", "holds")
        )
        print(f"    [{_check_mark(check['holds'])}] {check['kind']}"
              + (f" ({params})" if params else ""))
    _print_backend_stats(result)
    verdict = "HOLDS" if result.holds else "DOES NOT HOLD"
    print(f"  claim {verdict} -> {path}")
    return 0 if result.holds else 1


register_kind(SweepKind(
    name="compare",
    help="§4-style redesign comparison: baseline vs redesigned "
         "interface through ANALYZER/TESTGEN/MTRACE, with the "
         "claim checked (exit 1 if it fails)",
    # The matrix is fixed by the redesign spec, so only the sweep knobs
    # here (no interface/ops/pairs).
    params=(NAME, NCORES, TESTS_PER_PATH),
    options=CACHE_OPTIONS + (
        ("--list", dict(
            action="store_const", dest="fn", const=_list_redesigns,
            help="list the registered comparisons and exit")),
    ),
    run=_run_compare,
    to_dict=compare_to_dict,
    strip=strip_volatile_compare,
    summary=lambda payload: {
        "name": payload["name"], "holds": payload["claim"]["holds"]},
    # Non-default core counts get their own artifact, like heatmap.
    default_out=lambda p: interface_artifact_path(
        f"results/compare_{p['name']}.json", "posix", p["ncores"]),
    out_help="artifact path (default results/compare_<name>.json, "
             "ncores-suffixed for non-default --ncores)",
    report=_report_compare,
))


# ----------------------------------------------------------------------
# scaling


def _run_scaling(p, opts, on_pair=None, **how):
    ops, pair_filter = matrix(p)
    return run_scaling_sweep(
        interface=p["interface"], ladder=p["ladder"], ops=ops,
        pair_filter=pair_filter, tests_per_path=p["tests_per_path"],
        solver_cache_size=opts.get("solver_cache_size"), **how,
    )


def _report_scaling(result, p, path, opts) -> int:
    total = result.total_tests
    print(f"[{result.interface}] scaling ladder "
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
    for kernel in opts.get("gate_monotonic") or ():
        if kernel not in result.kernels:
            raise SystemExit(
                f"--gate-monotonic: unknown kernel {kernel!r} "
                f"(kernels: {', '.join(result.kernels)})"
            )
        holds = conflict_free_monotonic(result, kernel)["nondecreasing"]
        print(f"    [{_check_mark(holds)}] {kernel} conflict-free fraction "
              "nondecreasing with ncores")
        if not holds:
            exit_code = 1
    _print_execution(result, path)
    return exit_code


register_kind(SweepKind(
    name="scaling",
    help="conflict-fraction-vs-ncores scaling curve: ANALYZER/TESTGEN "
         "once per pair, MTRACE replayed across an ncores ladder "
         "(batched many-core sweep; exit 1 if a --gate-monotonic "
         "kernel's curve decreases)",
    params=(replace(INTERFACE, flag="interface"), OPS, PAIRS, LADDER,
            TESTS_PER_PATH),
    options=CACHE_OPTIONS + (
        ("--gate-monotonic", dict(
            action="append", default=None, metavar="KERNEL",
            help="exit 1 unless KERNEL's conflict-free fraction is "
                 "nondecreasing along the ladder (repeatable)")),
    ),
    run=_run_scaling,
    to_dict=scaling_to_dict,
    strip=strip_volatile_scaling,
    summary=lambda payload: {
        "interface": payload["interface"],
        "ladder": payload["ladder"],
        "pairs": payload["pairs"],
    },
    default_out=lambda p: scaling_artifact_path(p["interface"], p["ladder"]),
    out_help="artifact path (default results/scaling_<interface>.json, "
             "ncores-suffixed for non-default ladders)",
    report=_report_scaling,
))
