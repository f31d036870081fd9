"""The benchmark's workloads: seeded inputs, the timed op, and output checks.

Every workload builds a pool of inputs from the seed during set-up, without
ever running the program on them to decide what to keep.  ``run`` is the
timed op; it only calls the program and captures what it returns or raises.
``check`` runs untimed and turns that into a ``Checked`` record: the
canonical outcome (hashed into ``outputs_digest``), one status per
(germ, prime) or per search, the output checks that failed, and a replay
record for every failure.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from frsurf import bstar, dgf, fedder
from frsurf.corpus import random_corpus

# The pipeline reports these as honest negatives, not failures.
NO_COMPLEMENT = ("complement", "search")

# Every stage `frsurf.bstar` raises a PipelineError from, plus the
# benchmark's own: "check" (an output failed a check) and "error" (an
# exception other than PipelineError).  An unknown stage counts as "other".
PIPELINE_STAGES = (
    "hypotheses",
    "complement",
    "plt-center",
    "reduced-chain",
    "chain-search",
    "chain-extension",
    "surgery",
    "nonplt-split",
    "nonplt-solve",
    "epsilon",
    "different",
    "pfreg",
    "fedder",
)
FAIL_STAGES = PIPELINE_STAGES + ("check", "error", "other")


@dataclass
class Checked:
    outcome: dict
    # One (stage, kind) per sub-run; ("certificate", "<case> N=<level>") or
    # ("test_at", "witness") for a success.
    statuses: list[tuple[str, str]] = field(default_factory=list)
    failed_runs: list[dict] = field(default_factory=list)
    check_errors: list[str] = field(default_factory=list)
    honest: int = 0  # sub-runs that ended in an honest negative

    @property
    def failed(self) -> bool:
        return bool(self.failed_runs or self.check_errors)


def payload_roundtrip(cert):
    """certificate_to_payload -> JSON text -> certificate_from_payload."""
    payload = bstar.certificate_to_payload(cert)
    back = bstar.certificate_from_payload(json.loads(json.dumps(payload)))
    return payload, back


def _error_record(exc: BaseException) -> dict:
    if isinstance(exc, bstar.PipelineError):
        return {"stage": exc.stage, "kind": exc.kind, "message": str(exc)}
    return {
        "stage": "error",
        "kind": type(exc).__name__,
        "message": "".join(traceback.format_exception(exc)).strip(),
    }


def fail_stage(stage: str) -> str:
    return stage if stage in FAIL_STAGES else "other"


class Workload:
    """A pool of inputs built from the seed; ``quick`` shrinks it for tests."""

    pool_size = 0
    quick_pool_size = 0
    germs_per_op = 1
    pass_seconds = 1.0  # one pass over the pool on the reference machine

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.size = self.quick_pool_size if quick else self.pool_size
        self.items: list = []
        self.exc_sizes: list[int] = []  # exceptional curves of each germ in the pool
        self.random_corpus_s = 0.0  # set-up time spent in frsurf.corpus


class CorpusPipeline(Workload):
    """One op: parse a germ's DGF text, then for each prime build the
    certificate, round-trip it through JSON and re-verify it.

    The germs come from ``random_corpus(seed, 601)``: the 11 engineered
    families, then random small germs.  The 601st is the warm-up's input.
    """

    primes = (7, 11, 13)
    e_max = 6
    pool_size = 600
    quick_pool_size = 12
    pass_seconds = 8.0

    def setup(self) -> None:
        start = perf_counter()
        pairs = random_corpus(self.seed, self.size + 1)
        self.random_corpus_s = perf_counter() - start
        texts = [
            dgf.render_germ(dgf.GermFile(graph=pair.graph, coeff=dict(pair.coeff)))
            for pair in pairs
        ]
        self.items = texts[:-1]
        self.exc_sizes = [len(dgf.parse_germ(t).graph.exceptional_ids) for t in self.items]
        self.run(texts[-1])

    def input_bytes(self, item: str) -> bytes:
        return item.encode()

    def run(self, text: str):
        try:
            pair = dgf.parse_germ(text).pair()
        except Exception as exc:  # noqa: BLE001 - recorded as a failure
            return None, exc
        runs = []
        for p in self.primes:
            try:
                cert = bstar.gfr_certificate(pair, p, self.e_max)
                payload, back = payload_roundtrip(cert)
                runs.append((p, cert, payload, back, bstar.reverify_certificate(pair, back)))
            except Exception as exc:  # noqa: BLE001 - recorded as a failure
                runs.append((p, exc, None, None, None))
        return pair, runs

    def check(self, index: int, text: str, raw) -> Checked:
        pair, runs = raw
        if pair is None:
            rec = _error_record(runs)
            rec.update(stage="error", op=index, dgf=text)
            return Checked(
                outcome={"parse_error": rec["kind"]},
                statuses=[("error", rec["kind"])],
                failed_runs=[rec],
            )
        checked = Checked(outcome={"runs": []})
        for p, cert, payload, back, problems in runs:
            if isinstance(cert, BaseException):
                rec = _error_record(cert)
                status = (rec["stage"], rec["kind"])
                checked.statuses.append(status)
                checked.outcome["runs"].append({"p": p, "stage": status[0], "kind": status[1]})
                if status == NO_COMPLEMENT:
                    checked.honest += 1
                    continue
                # Generated germs carry no named boundaries, so render_germ's
                # trouble with all-zero named boundaries cannot make this text
                # unreadable: `frsurf bstar - --p <p> --e-max 6` replays it.
                rec.update(op=index, p=p, dgf=text)
                checked.failed_runs.append(rec)
                continue
            checked.outcome["runs"].append({"p": p, "certificate": payload})
            errors = []
            if back != cert:
                errors.append("certificate changed in its JSON round trip")
            if back.prime != p:
                errors.append(f"certificate names prime {back.prime}")
            if problems:
                errors.append("reverify_certificate: " + "; ".join(problems))
            checked.statuses.append(
                ("check", "check") if errors else ("certificate", f"{cert.case} N={cert.level}")
            )
            for err in errors:
                checked.check_errors.append(f"op {index} p={p}: {err}")
            if errors:
                checked.failed_runs.append(
                    {"stage": "check", "kind": "check", "message": "; ".join(errors),
                     "op": index, "p": p, "dgf": text}
                )
        return checked

    def replay_hint(self) -> str:
        primes = ",".join(str(p) for p in self.primes)
        return f"PYTHONPATH=src python -m frsurf.cli bstar - --p {primes} --e-max {self.e_max} < germ.dgf"


FEDDER_COEFFS = tuple(
    Fraction(c) for c in ("1/2", "2/3", "3/4", "4/5", "5/6", "2/5", "1/3")
)
FEDDER_PRIMES = (7, 11, 13, 101)


class FedderDeep(Workload):
    """One op: fedder_exponents, test_at, and verify_witness on the witness.

    The cost of an op hinges on c2 + c3.  At most 1, the witness search
    starts at k = 0 and verify_witness is cheap; above 1, k has about e
    digits and verify_witness is quadratic in e.  Two thirds of the triples
    with sum < 2 lie above 1, so the pool holds 17 triples above and 8 at
    or below for each prime, drawn at random within each group, with e
    stratified over [4000, 12000] in each (group, prime) cell.  Every seed
    then runs the same mix of costs; a plain random draw moved the median
    op by a factor of two from seed to seed.  e stops at 12000 so that a
    pass over 100 ops takes about 5 s.
    """

    pool_size = 100
    quick_pool_size = 4
    pass_seconds = 5.5
    e_range = (4000, 12000)
    germs_per_op = 0
    warmup = ((Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)), 7, 4000)

    def setup(self) -> None:
        rng = random.Random(self.seed)
        triples = [t for t in itertools.product(FEDDER_COEFFS, repeat=3) if sum(t) < 2]
        slow = [t for t in triples if t[1] + t[2] > 1]
        fast = [t for t in triples if t[1] + t[2] <= 1]
        per_prime = self.size // len(FEDDER_PRIMES)
        n_slow = round(per_prime * len(slow) / len(triples))
        lo, hi = self.e_range
        items = []
        for group, count in ((slow, n_slow), (fast, per_prime - n_slow)):
            for p in FEDDER_PRIMES:
                es = [lo + int((hi - lo) * (k + rng.random()) / count) for k in range(count)]
                items += [(rng.choice(group), p, e) for e in es]
        rng.shuffle(items)
        self.items = items
        self.run(self.warmup)

    def input_bytes(self, item) -> bytes:
        coeffs, p, e = item
        return (",".join(str(c) for c in coeffs) + f" p={p} e={e}").encode()

    def run(self, item):
        coeffs, p, e = item
        try:
            pair = fedder.P1Pair.from_coeffs(coeffs)
            a = fedder.fedder_exponents(pair, p, e)
            cert = fedder.test_at(pair, p, e)
            ok = None
            if cert is not None:
                ok = fedder.verify_witness(cert.a, cert.witness[0], cert.witness[1], p, e)
            return a, cert, ok
        except Exception as exc:  # noqa: BLE001 - recorded as a failure
            return exc, None, None

    def check(self, index: int, item, raw) -> Checked:
        coeffs, p, e = item
        a, cert, ok = raw
        outcome = {"coeffs": [str(c) for c in coeffs], "p": p, "e": e}
        if isinstance(a, BaseException):
            rec = _error_record(a)
            rec.update(op=index, p=p, e=e, coeffs=outcome["coeffs"])
            outcome["error"] = rec["kind"]
            return Checked(outcome=outcome, statuses=[("error", rec["kind"])], failed_runs=[rec])
        # Hexadecimal keeps the 10^4-digit integers cheap to print.
        outcome["a"] = [format(x, "x") for x in a]
        if cert is None:
            outcome["witness"] = None
            return Checked(outcome=outcome, statuses=[("test_at", "no_witness")], honest=1)
        outcome["witness"] = [format(x, "x") for x in cert.witness]
        checked = Checked(outcome=outcome)
        if not ok:
            checked.check_errors.append(f"op {index}: witness fails verify_witness")
        if cert.a != a or cert.p != p or cert.e != e:
            checked.check_errors.append(f"op {index}: certificate disagrees with its search")
        checked.statuses.append(("check", "check") if checked.check_errors else ("test_at", "witness"))
        if checked.check_errors:
            checked.failed_runs.append(
                {"stage": "check", "kind": "check", "message": "; ".join(checked.check_errors),
                 "op": index, "p": p, "e": e, "coeffs": outcome["coeffs"]}
            )
        return checked

    def replay_hint(self) -> str:
        return "frsurf.fedder.test_at(P1Pair.from_coeffs(coeffs), p, e)"


class CliCold(Workload):
    """One op: a fresh `python -m frsurf.cli bstar <germ> --p 7,11 --format
    json` process on one of the committed germs.  The pool repeats seeded
    permutations of the germs, so that a pass has 100 ops."""

    pool_size = 100
    quick_pool_size = 3
    pass_seconds = 12.5
    primes = (7, 11)

    def __init__(self, seed: int, quick: bool, root: str):
        super().__init__(seed, quick)
        self.root = root
        self.texts: dict[str, str] = {}  # germ path -> DGF text
        self.pairs: dict[str, object] = {}
        self.verified: dict[bytes, Checked] = {}  # checked outputs, by output bytes
        # Set by the traced run: the command that replaces `-m frsurf.cli`.
        self.traced_argv: list[str] | None = None
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def setup(self) -> None:
        germ_dir = os.path.join(self.root, "germs")
        names = sorted(f for f in os.listdir(germ_dir) if f.endswith(".dgf"))
        if not names:
            raise RuntimeError(f"no germs/*.dgf under {self.root}")
        for name in names:
            path = os.path.join("germs", name)
            with open(os.path.join(self.root, path), encoding="utf-8") as fh:
                self.texts[path] = fh.read()
            self.pairs[path] = dgf.parse_germ(self.texts[path]).pair()
        rng = random.Random(self.seed)
        items = []
        while len(items) < self.size:
            perm = list(self.texts)
            rng.shuffle(perm)
            items += perm
        self.items = items[: self.size]
        self.exc_sizes = [len(self.pairs[p].graph.exceptional_ids) for p in self.items]
        self.run(min(self.texts))

    def input_bytes(self, path: str) -> bytes:
        return path.encode() + b"\n" + self.texts[path].encode()

    def command(self, path: str) -> list[str]:
        prog = self.traced_argv or [sys.executable, "-m", "frsurf.cli"]
        primes = ",".join(str(p) for p in self.primes)
        return prog + ["bstar", path, "--p", primes, "--format", "json"]

    def run(self, path: str):
        proc = subprocess.run(
            self.command(path),
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(self, index: int, path: str, raw) -> Checked:
        code, out = raw
        key = path.encode() + b"\0" + bytes([code & 0xFF]) + out
        if key in self.verified:
            return self.verified[key]
        checked = self._check(index, path, code, out)
        self.verified[key] = checked
        return checked

    def _check(self, index: int, path: str, code: int, out: bytes) -> Checked:
        cmd = " ".join(self.command(path)[1:])
        try:
            results = json.loads(out)["results"]
        except (ValueError, KeyError, TypeError):
            rec = {"stage": "error", "kind": f"exit {code}", "message": out.decode(errors="replace"),
                   "op": index, "germ": path, "command": cmd}
            return Checked(outcome={"germ": path, "exit": code}, statuses=[("error", f"exit {code}")],
                           failed_runs=[rec])
        checked = Checked(outcome={"germ": path, "exit": code, "results": results})
        all_ok = all(r.get("ok") for r in results)
        if [r.get("p") for r in results] != list(self.primes):
            checked.check_errors.append(f"op {index}: results for primes {[r.get('p') for r in results]}")
        if all_ok != (code == 0):
            checked.check_errors.append(
                f"op {index}: exit code {code} but {'all' if all_ok else 'not all'} results are certificates"
            )
        for r in results:
            if r.get("ok"):
                cert = bstar.certificate_from_payload(r["certificate"])
                problems = bstar.reverify_certificate(self.pairs[path], cert)
                if cert.prime != r["p"]:
                    problems.append(f"certificate names prime {cert.prime}")
                checked.statuses.append(
                    ("check", "check") if problems else ("certificate", f"{cert.case} N={cert.level}")
                )
                if problems:
                    checked.check_errors.append(f"op {index} p={r['p']}: " + "; ".join(problems))
            elif code == 1:
                # Exit 1 is the CLI's code for an honest "no complement".
                checked.statuses.append(NO_COMPLEMENT)
                checked.honest += 1
            else:
                checked.statuses.append((r.get("stage", "error"), f"exit {code}"))
                checked.failed_runs.append(
                    {"stage": r.get("stage", "error"), "kind": f"exit {code}", "message": r.get("error"),
                     "op": index, "p": r.get("p"), "germ": path, "command": cmd}
                )
        if checked.check_errors:
            checked.failed_runs.append(
                {"stage": "check", "kind": "check", "message": "; ".join(checked.check_errors),
                 "op": index, "germ": path, "command": cmd}
            )
        return checked

    def replay_hint(self) -> str:
        return "PYTHONPATH=src python -m frsurf.cli bstar <germ> --p 7,11 --format json"


WORKLOADS = ("corpus_pipeline", "fedder_deep", "cli_cold")


def make(name: str, seed: int, quick: bool, root: str):
    if name == "corpus_pipeline":
        return CorpusPipeline(seed, quick)
    if name == "fedder_deep":
        return FedderDeep(seed, quick)
    if name == "cli_cold":
        return CliCold(seed, quick, root)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
