"""Generated CLI reference (``docs/cli.md``) from the live argparse tree.

:func:`render_cli_md` walks :func:`repro.cli.build_parser` —
every subcommand, positional, and flag, in registration order — and
renders one deterministic markdown document.  ``python -m repro docs``
writes it; ``python -m repro docs --check`` (and
``tests/test_docs.py``) fail when the file on disk no longer matches,
so the reference cannot drift from the CLI.

The walker renders from the parser's action objects directly instead of
``format_help()``: help-text line wrapping varies with Python version
and terminal width, while the action metadata (option strings, metavar,
choices, default, help) is stable.
"""

from __future__ import annotations

import argparse

HEADER = (
    "<!-- Generated by `python -m repro docs` from repro.cli."
    " Do not edit by hand: `python -m repro docs --check` gates CI. -->"
)


def _placeholder(action: argparse.Action) -> str:
    """The value placeholder shown after an option (metavar, choices,
    or the uppercased dest), empty for flags that take no value."""
    if action.nargs == 0:
        return ""
    if action.metavar is not None:
        return str(action.metavar)
    if action.choices is not None:
        return "{" + ",".join(str(c) for c in action.choices) + "}"
    return action.dest.upper()


def _describe(action: argparse.Action) -> str:
    """One bullet line for one action."""
    if action.option_strings:
        name = ", ".join(action.option_strings)
        placeholder = _placeholder(action)
        if placeholder:
            name += f" {placeholder}"
    else:
        name = _placeholder(action) or action.dest
        if action.nargs in ("?", "*"):
            name = f"[{name}]"
    parts = [f"`{name}`"]
    help_text = (action.help or "").strip()
    if help_text:
        parts.append(f" — {help_text}")
    if (
        action.default is not None
        and action.default is not argparse.SUPPRESS
        and action.nargs != 0
        and "default" not in help_text.lower()
    ):
        parts.append(f" (default: `{action.default}`)")
    return "- " + "".join(parts)


def _walk_actions(parser: argparse.ArgumentParser):
    """The parser's positionals then options, skipping help actions and
    the subcommand dispatcher itself."""
    skip = (argparse._HelpAction, argparse._SubParsersAction)
    for action in parser._actions:
        if isinstance(action, skip):
            continue
        yield action


def _subparsers_action(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action
    return None


def _choice_help(sub: argparse._SubParsersAction, name: str) -> str:
    for choice_action in sub._choices_actions:
        if choice_action.dest == name:
            return (choice_action.help or "").strip()
    return ""


def _render_command(title: str, help_text: str, parser, level: int) -> list:
    """One command's section, then one section a level down for each
    nested command (``submit heatmap``, ``cluster worker``)."""
    lines = ["", f"{'#' * level} {title}", ""]
    if help_text:
        lines += [help_text, ""]
    nested = _subparsers_action(parser)
    actions = list(_walk_actions(parser))
    if not actions and nested is None:
        lines.append("_No options; arguments pass through verbatim._")
    lines.extend(_render_actions(actions))
    if nested is not None:
        for name, child in nested.choices.items():
            lines += _render_command(
                f"{title} {name}", _choice_help(nested, name), child,
                level + 1,
            )
    return lines


def render_cli_md() -> str:
    """The full ``docs/cli.md`` text for the current CLI."""
    from repro.cli import build_parser

    parser = build_parser()
    lines = [
        HEADER,
        "",
        "# `python -m repro` — CLI reference",
        "",
        (parser.description or "").strip(),
        "",
        "Every subcommand prints a human summary and (where noted) "
        "writes a schema-versioned JSON artifact under `results/` "
        "(see [artifacts.md](artifacts.md)).  Execution-backend "
        "selection (`--backend`/`--workers`) is documented in "
        "[backends.md](backends.md).",
        "",
        "## Global options",
        "",
    ]
    for action in _walk_actions(parser):
        lines.append(_describe(action))
    sub = _subparsers_action(parser)
    lines += ["", "## Subcommands", ""]
    for name in sub.choices:
        lines.append(f"- [`{name}`](#{name}) — {_choice_help(sub, name)}")
    for name, child in sub.choices.items():
        lines += _render_command(name, _choice_help(sub, name), child, 2)
    lines.append("")
    return "\n".join(lines)


def _render_actions(actions: list) -> list:
    """The **Arguments**/**Options** bullet blocks for one command."""
    lines: list = []
    positionals = [a for a in actions if not a.option_strings]
    options = [a for a in actions if a.option_strings]
    if positionals:
        lines.append("**Arguments**")
        lines.append("")
        lines.extend(_describe(a) for a in positionals)
        if options:
            lines.append("")
    if options:
        lines.append("**Options**")
        lines.append("")
        lines.extend(_describe(a) for a in options)
    return lines


__all__ = ["render_cli_md"]
