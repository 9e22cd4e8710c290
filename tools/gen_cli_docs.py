#!/usr/bin/env python3
"""Generate docs/cli.md from the argparse tree — or verify it is fresh.

The CLI reference is *derived*, never hand-edited: this script walks
``repro.cli.build_parser()`` and renders every subcommand with its
positionals and options into ``docs/cli.md``. CI runs ``--check``,
which regenerates the document in memory and fails if the committed
file differs — so a flag added to the parser without regenerating the
docs breaks the build instead of silently drifting.

Usage:
    python tools/gen_cli_docs.py            # (re)write docs/cli.md
    python tools/gen_cli_docs.py --check    # exit 1 if docs/cli.md is stale

The renderer is deliberately hand-rolled instead of using
``parser.format_help()``: argparse's output depends on the terminal
width, which would make the freshness check environment-sensitive.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

OUT_PATH = REPO / "docs" / "cli.md"

HEADER = """\
# CLI reference

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: python tools/gen_cli_docs.py
     CI checks freshness with: python tools/gen_cli_docs.py --check -->

Every entry point is a subcommand of `python -m repro`. This page is
generated from the argparse tree by `tools/gen_cli_docs.py`; the
prose documents live next door (see [architecture.md](architecture.md)
for the map).
"""


def _iter_subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {
                pseudo.dest: " ".join((pseudo.help or "").split())
                for pseudo in action._choices_actions
            }
            seen = {}
            for name, sub in action.choices.items():
                # aliases share the parser object; keep the first name
                seen.setdefault(id(sub), (name, sub))
            for name, sub in seen.values():
                yield name, sub, helps.get(name, "")


def _format_invocation(action) -> str:
    if not action.option_strings:  # positional
        name = action.metavar or action.dest
        if action.nargs == "?":
            return f"[{name}]"
        if action.nargs == "*":
            return f"[{name} ...]"
        return f"{name}"
    parts = []
    metavar = None
    if action.nargs != 0:
        metavar = action.metavar or action.dest.upper()
    for opt in action.option_strings:
        parts.append(f"{opt} {metavar}" if metavar else opt)
    return ", ".join(parts)


def _format_help(action) -> str:
    text = " ".join((action.help or "").split())
    if "%(default)s" in text:
        text = text % {"default": action.default}
    return text


def _render_actions(parser, lines: list[str]) -> None:
    positionals = [
        a for a in parser._actions
        if not a.option_strings
        and not isinstance(a, argparse._SubParsersAction)
    ]
    options = [
        a for a in parser._actions
        if a.option_strings and not isinstance(a, argparse._HelpAction)
    ]
    if positionals:
        lines.append("")
        lines.append("| positional | description |")
        lines.append("|---|---|")
        for action in positionals:
            lines.append(
                f"| `{_format_invocation(action)}` | {_format_help(action)} |"
            )
    if options:
        lines.append("")
        lines.append("| option | description |")
        lines.append("|---|---|")
        for action in options:
            lines.append(
                f"| `{_format_invocation(action)}` | {_format_help(action)} |"
            )


def render() -> str:
    from repro.cli import build_parser

    parser = build_parser()
    lines = [HEADER]
    desc = " ".join((parser.description or "").split())
    if desc:
        lines.append(desc)
    subparsers = sorted(_iter_subparsers(parser))
    lines.append("")
    lines.append("| subcommand | summary |")
    lines.append("|---|---|")
    for name, _sub, summary in subparsers:
        lines.append(f"| [`{name}`](#{name}) | {summary} |")
    for name, sub, summary in subparsers:
        lines.append("")
        lines.append(f"## {name}")
        sub_desc = " ".join((sub.description or "").split()) or summary
        if sub_desc:
            lines.append("")
            lines.append(sub_desc)
        _render_actions(sub, lines)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args_parser = argparse.ArgumentParser(description=__doc__)
    args_parser.add_argument(
        "--check", action="store_true",
        help="do not write; exit 1 if docs/cli.md is out of date",
    )
    args = args_parser.parse_args(argv)

    text = render()
    if args.check:
        on_disk = OUT_PATH.read_text() if OUT_PATH.exists() else ""
        if on_disk != text:
            print(
                "docs/cli.md is stale — regenerate with "
                "`python tools/gen_cli_docs.py`",
                file=sys.stderr,
            )
            return 1
        print(f"{OUT_PATH.relative_to(REPO)} is up to date")
        return 0
    OUT_PATH.write_text(text)
    print(f"wrote {OUT_PATH.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
