#!/usr/bin/env python3
"""Digest of the CLI's answers on the committed germ files.

usage: PYTHONPATH=src python scripts/cli_digest.py

Runs `frsurf.cli.main` in-process on every `germs/*.dgf` with `bstar --p
7,11,13 --e-max 6`, `complement`, `classify`, `discrepancies` and `negdef`,
each in text and json (110 commands), and prints one line: a SHA-256 over
(argv, exit code, stdout) in order, followed by the tally of exit codes.
Two versions of the code that print the same line answer every command
byte for byte the same.
"""

import contextlib
import hashlib
import io
import json
import os
from collections import Counter
from pathlib import Path

from frsurf.cli import main as main_cli

COMMANDS = (["bstar", "--p", "7,11,13", "--e-max", "6"], ["complement"], ["classify"],
            ["discrepancies"], ["negdef"])


def main():
    os.chdir(Path(__file__).resolve().parent.parent)
    sha, tally = hashlib.sha256(), Counter()
    for germ in sorted(Path("germs").glob("*.dgf")):
        for command in COMMANDS:
            for fmt in ("text", "json"):
                argv = [command[0], germ.as_posix(), *command[1:], "--format", fmt]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main_cli(argv)
                sha.update(json.dumps([argv, code, out.getvalue()]).encode() + b"\n")
                tally[code] += 1
    print(sha.hexdigest(), " ".join(f"exit{code}:{n}" for code, n in sorted(tally.items())))


if __name__ == "__main__":
    main()
