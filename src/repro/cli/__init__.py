"""The unified ``python -m repro`` command line.

One module per command family, each with a ``register(subparsers)``;
:func:`build_parser` loops over them.  The sweep commands (and
``submit``'s per-kind flags) are generated from the kinds table in
:mod:`repro.kinds`; the full reference is ``docs/cli.md``, generated
from this parser by ``python -m repro docs``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.cli import bench, cluster, docs, lint, service, sweeps, testgen
from repro.kinds import BadRequest

COMMANDS = (sweeps, testgen, bench, lint, docs, service, cluster)


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="COMMUTER reproduction pipeline "
                    "(ANALYZER / TESTGEN / MTRACE / benchmarks)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for module in COMMANDS:
        module.register(sub)
    sub.add_parser(
        "browse", add_help=False,
        help="terminal browser over a heatmap JSON (args pass through "
             "to repro.browser)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse.REMAINDER cannot forward a leading option flag, so the
    # browser passthrough dispatches before parsing.
    if argv and argv[0] == "browse":
        from repro import browser

        return browser.main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BadRequest as exc:  # on the command line, a usage error
        raise SystemExit(str(exc)) from None
