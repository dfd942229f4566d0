"""``python -m repro docs``: generate or check ``docs/cli.md``."""

from __future__ import annotations

import sys


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


def register(sub) -> None:
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
