#!/usr/bin/env python3
"""Digest of every pipeline outcome over the germ corpus.

usage: PYTHONPATH=src python scripts/corpus_digest.py [count] [seeds] [primes]

For each seed (comma-separated, default 20240817,1,2,3) it runs
`gfr_certificate` at e_max 6 on every germ of `random_corpus(seed, count)`
(default 400) at every prime (comma-separated, default 7,11,13), and prints
one line: a SHA-256 over the outcomes in order (the JSON of
`certificate_to_payload`, or the stage, kind and message of the
`PipelineError`), followed by the tally of outcomes.  Two versions of the
code that print the same lines built the same certificates and failed the
same way.
"""

import hashlib
import json
import sys
from collections import Counter

from frsurf.bstar import PipelineError, certificate_to_payload, gfr_certificate
from frsurf.corpus import random_corpus

E_MAX = 6


def digest(seed: int, count: int, primes) -> tuple[str, Counter]:
    sha = hashlib.sha256()
    tally: Counter = Counter()
    for pair in random_corpus(seed, count):
        for p in primes:
            try:
                cert = gfr_certificate(pair, p, E_MAX)
            except PipelineError as err:
                outcome = [err.stage, err.kind, str(err)]
                tally[f"{err.stage}/{err.kind}"] += 1
            else:
                outcome = certificate_to_payload(cert)
                tally[f"{cert.case} N={cert.level}"] += 1
            sha.update(json.dumps(outcome, sort_keys=True).encode())
            sha.update(b"\n")
    return sha.hexdigest(), tally


def main(argv):
    count = int(argv[0]) if argv else 400
    seeds = [int(s) for s in argv[1].split(",")] if len(argv) > 1 else [20240817, 1, 2, 3]
    primes = [int(p) for p in argv[2].split(",")] if len(argv) > 2 else [7, 11, 13]
    for seed in seeds:
        sha, tally = digest(seed, count, primes)
        counts = " ".join(f"{key}:{tally[key]}" for key in sorted(tally))
        print(f"seed {seed}: {sha} {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
