"""What the command modules share: attaching the kinds table's
parameters and options to a parser, reading them back, and resolving
``--backend`` (with its cluster-only flags) to what the pipeline's
``get_backend`` accepts."""

from __future__ import annotations

from repro.kinds import worker_count

#: Batch flags every pair-matrix command takes besides its parameters.
BATCH_OPTIONS = (
    ("--quiet", dict(
        action="store_true", help="suppress per-pair progress lines")),
    ("--solver-cache-size", dict(
        type=int, default=None, metavar="N",
        help="bound each pair's solver memo caches to N entries "
             "(0 = unbounded; default: the solver's built-in bound)")),
)

#: Flags that only make sense with ``--backend cluster`` (docs/cluster.md).
CLUSTER_OPTIONS = (
    ("--spawn-local", dict(
        type=worker_count, default=None, metavar="N",
        help="with --backend cluster: fork N localhost workers "
             "(0 = all cores) instead of waiting for external ones")),
    ("--cluster-listen", dict(
        default=None, metavar="HOST:PORT",
        help="with --backend cluster: accept external workers "
             "(repro cluster worker --connect) on this address")),
)


def split_names(raw) -> list | None:
    """``"a, b,c"`` -> ``["a", "b", "c"]``; ``None`` for nothing."""
    names = [part.strip() for part in (raw or "").split(",") if part.strip()]
    return names or None


def add_params(parser, params) -> None:
    """One argument per :class:`repro.kinds.Param`: its flag (or
    optional positional), its default, its argparse keywords."""
    for param in params:
        spec = dict(param.arg, default=param.default)
        if param.flag.startswith("-"):
            spec["dest"] = param.name
        else:  # shown by its own name, not the flag's value placeholder
            spec.update(nargs="?", metavar=None)
        parser.add_argument(param.flag, **spec)


def add_options(parser, options) -> None:
    for flag, spec in options:
        parser.add_argument(flag, **spec)


def request_params(params, args) -> dict:
    """The parsed flags as a request-parameters object (what ``submit``
    posts and what the batch commands normalize)."""
    values = ((param.name, getattr(args, param.name)) for param in params)
    return {name: value for name, value in values if value is not None}


def progress(args):
    if args.quiet:
        return None
    return lambda line: print("  " + line, flush=True)


def cluster_flags(args) -> dict:
    """``--spawn-local``/``--cluster-listen`` as :class:`ClusterBackend`
    keywords; either one without ``--backend cluster`` is a usage error."""
    flags = {"spawn_local": args.spawn_local, "listen": args.cluster_listen}
    if args.backend != "cluster" and any(v is not None for v in flags.values()):
        raise SystemExit(
            "--spawn-local/--cluster-listen require --backend cluster"
        )
    return flags


def cli_backend(args):
    """``--backend`` plus the cluster-only flags: a registry name,
    ``None``, or (for ``cluster``, which needs its spawn/listen
    configuration) a prebuilt backend instance.  ``--cluster-listen`` is
    the explicit deployment: it names the bound address and narrates the
    coordinator, so external workers can be pointed at it."""
    flags = cluster_flags(args)
    if args.backend != "cluster":
        return args.backend
    from repro.cluster.backend import ClusterBackend

    if flags["listen"] is not None:
        flags["on_listening"] = lambda host, port: print(
            f"cluster coordinator listening on {host}:{port}", flush=True
        )
        if not args.quiet:
            flags["on_event"] = lambda line: print(
                f"  [coordinator] {line}", flush=True
            )
    try:
        return ClusterBackend(workers=args.workers, **flags)
    except ValueError as exc:  # a bad REPRO_CLUSTER_* value
        raise SystemExit(f"--backend cluster: {exc}") from None
