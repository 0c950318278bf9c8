"""Reference argv reader: argparse over the same `Param` table.

`groundlab.cli` reads argv in one pass over `COMMANDS`; this builds the
argparse parser that did the job before, one subparser per command with
`--config` and every `Param` as a string option, and says how it reads an
argv, so a test can hold the two to the same outcome.
"""

import argparse
import contextlib
import io

from groundlab.cli import COMMANDS


def parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="groundlab")
    sub = top.add_subparsers(dest="command", metavar="command")
    for name, (params, _) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        for param in params:
            p.add_argument(f"--{param.name}", default=None, help=param.help)
    return top


def read(argv):
    """"help" when argparse prints help and exits 0, "error" when it exits
    2 or finds no command, else (command, {name: raw value}).  argparse
    strips a "--" from an option's values, so `--out=--` reads as [] there;
    it is returned as the "--" it was given."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parser().parse_args(argv)
        except SystemExit as exc:
            return "help" if exc.code in (0, None) else "error"
    if args.command is None:
        return "error"
    values = {key: "--" if value == [] else value
              for key, value in vars(args).items()
              if key != "command" and value is not None}
    return args.command, values
