#!/usr/bin/env python3
"""Digest of the CLI's answers on the committed germ files.

usage: PYTHONPATH=src python scripts/cli_digest.py

Runs `frsurf.cli.main` in-process on every `germs/*.dgf` with `bstar --p
7,11,13 --e-max 6`, `complement`, `classify`, `discrepancies` and `negdef`,
then on the germ-free commands: `fregular-p1` on a fixed list of triples
with `--p 7,11,13,101 --e-max 12`, `hara`, and `lucas` with k a multiple of
a power of p.  Each runs in text and json (110 + 36 = 146 commands), and the
script prints one line: a SHA-256 over (argv, exit code, stdout) in order,
followed by the tally of exit codes.  Two versions of the code that print
the same line answer every command byte for byte the same.
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
# Triples with no witness at any e (1/6,7/8,7/8 at p = 7), the degree
# bound, a toric pair, c2 + c3 below, at and above 1, and p in a denominator.
TRIPLES = ("1/2,2/3,3/4", "2/5,2/3,5/6", "1/3,3/4,3/4", "1/6,7/8,7/8", "1/2,2/3,5/6",
           "1/2,1/2", "1/3,1/3,1/2", "1/2,1/2,1/2", "4/5,6/7,1/3", "10/11,1/2,1/2")
GERM_FREE = (
    *(["fregular-p1", "--coeffs", t, "--p", "7,11,13,101", "--e-max", "12"] for t in TRIPLES),
    ["hara"],
    ["hara", "--p", "31,37"],
    *(["lucas", "--n", str(n), "--k", str(k), "--p", str(p)] for n, k, p in (
        (10**40 + 12345, 3 * 7**30, 7), (13**25 - 1, 5 * 13**12, 13),
        (2 * 101**9, 101**9, 101), (0, 0, 11), (11**20, 11**20, 11), (7**30 - 1, 0, 7))),
)


def run(argv, sha, tally):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main_cli(argv)
    sha.update(json.dumps([argv, code, out.getvalue()]).encode() + b"\n")
    tally[code] += 1


def main():
    os.chdir(Path(__file__).resolve().parent.parent)
    sha, tally = hashlib.sha256(), Counter()
    for germ in sorted(Path("germs").glob("*.dgf")):
        for command in COMMANDS:
            for fmt in ("text", "json"):
                run([command[0], germ.as_posix(), *command[1:], "--format", fmt], sha, tally)
    for command in GERM_FREE:
        for fmt in ("text", "json"):
            run([*command, "--format", fmt], sha, tally)
    print(sha.hexdigest(), " ".join(f"exit{code}:{n}" for code, n in sorted(tally.items())))


if __name__ == "__main__":
    main()
