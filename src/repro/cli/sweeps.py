"""The batch sweep commands: one ``python -m repro <kind>`` per entry
of the kinds table (:mod:`repro.kinds`), all run by one function."""

from __future__ import annotations

from functools import partial

from repro.cli.common import (
    BATCH_OPTIONS,
    CLUSTER_OPTIONS,
    add_options,
    add_params,
    cli_backend,
    progress,
    request_params,
)
from repro.kinds import EXECUTION, SweepKind, get_kind, kind_names, normalize


def run_kind(kind: SweepKind, args) -> int:
    """Validate the flags, run the sweep, write the artifact, report."""
    from repro.bench.report import write_artifact

    opts = vars(args)
    p = normalize(kind.name, request_params(kind.params + EXECUTION, args))
    result = kind.run(
        p, opts,
        # (kinds without --cache/--no-cache run uncached)
        cache=None if opts.get("no_cache", True) else args.cache,
        backend=cli_backend(args), workers=args.workers,
        on_progress=progress(args), on_pair=None,
    )
    path = write_artifact(
        args.out or kind.default_out(p), kind.to_dict(result)
    )
    return kind.report(result, p, path, opts)


def register(sub) -> None:
    for kind in map(get_kind, kind_names()):
        parser = sub.add_parser(kind.name, help=kind.help)
        add_params(parser, kind.params + EXECUTION)
        add_options(parser, CLUSTER_OPTIONS + BATCH_OPTIONS + kind.options)
        parser.add_argument("--out", default=None, metavar="PATH",
                            help=kind.out_help)
        parser.set_defaults(fn=partial(run_kind, kind))
