"""Command-line surface.

Exit codes: 0 = pass / answer, 1 = definite negative, 2 = inconclusive,
3 = input error, usage errors and unreadable germ paths included.  Output
is deterministic: vertices sorted by id, tables sorted by (p, e).  Each
command builds one payload, which --format json prints; --format text is
rendered from that payload alone, so every value it prints is the payload's.
The text leaves out bstar's diff_anchors and e_max and each verdict's toric
flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import bstar as bstar_mod
from . import complements as comp_mod
from .dgf import GermFile, parse_germ
from .fedder import P1Pair, hara_table, is_globally_F_regular, verdict_to_payload
from .graphs import GraphError, classify
from .padic import binom_mod_p
from .rationals import format_rational, parse_rational

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3

_LEVELS = ",".join(map(str, comp_mod.LEVELS))

_PIPELINE_EXITS = {
    "hypothesis": EXIT_INPUT,
    "structure": EXIT_INPUT,
    "search": EXIT_NEGATIVE,
    "inconclusive": EXIT_INCONCLUSIVE,
}
_VERDICT_EXITS = {"regular": EXIT_OK, "not_regular": EXIT_NEGATIVE, "inconclusive": EXIT_INCONCLUSIVE}


def _read_germ(path: str) -> GermFile:
    if path == "-":
        return parse_germ(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_germ(fh.read())


def _parse_primes(text: str) -> list[int]:
    primes = [int(tok) for tok in text.split(",") if tok.strip()]
    if not primes:
        raise ValueError(f"no prime in --p {text!r}")
    return primes


def _coeff_map(d) -> dict[str, str]:
    return {k: format_rational(v) for k, v in sorted(d.items())}


def _verdict_text(v: dict) -> str:
    """One line for a verdict payload (`verdict_to_payload`)."""
    if v["status"] == "regular":
        if "certificate" in v:
            c = v["certificate"]
            a, w = c["a"], c["witness"]
            return f"regular (e={c['e']}, a=({a[0]},{a[1]},{a[2]}), witness=x^{w[0]} y^{w[1]})"
        return f"regular ({v['reason']})"
    if v["status"] == "not_regular":
        return f"not regular ({v['reason']})"
    return f"inconclusive (no witness up to e={v['e_max_tried']})"


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_classify(args) -> tuple[dict, int]:
    cls = classify(_read_germ(args.germ).pair(args.boundary))
    payload = {
        "class": cls.label,
        "is_klt": cls.is_klt,
        "is_plt": cls.is_plt,
        "is_lc": cls.is_lc,
        "b": _coeff_map(cls.b),
        "max_b": format_rational(cls.max_b) if cls.max_b is not None else None,
        "max_b_vertex": cls.max_b_vertex,
        "lc_centers": list(cls.lc_centers),
    }
    return payload, EXIT_OK


def _text_classify(d: dict) -> list[str]:
    lines = [f"class: {d['class']}"]
    lines.append(f"klt: {_yes(d['is_klt'])}  plt: {_yes(d['is_plt'])}  lc: {_yes(d['is_lc'])}")
    lines += [f"  {vid} b={b}" for vid, b in d["b"].items()]
    if d["max_b"] is not None:
        lines.append(f"max b: {d['max_b']} at {d['max_b_vertex']}")
    lines.append("lc centers: " + (", ".join(d["lc_centers"]) if d["lc_centers"] else "none"))
    return lines


def _cmd_discrepancies(args) -> tuple[dict, int]:
    b = classify(_read_germ(args.germ).pair(args.boundary)).b
    return {"b": _coeff_map(b), "a": _coeff_map({vid: -v for vid, v in b.items()})}, EXIT_OK


def _text_discrepancies(d: dict) -> list[str]:
    return ["vertex  b  a", *(f"{vid}  {b}  {d['a'][vid]}" for vid, b in d["b"].items())]


def _cmd_negdef(args) -> tuple[dict, int]:
    germ = _read_germ(args.germ)
    ok = germ.graph.lattice(germ.graph.exceptional_ids).definite
    return {"negative_definite": ok}, EXIT_OK if ok else EXIT_NEGATIVE


def _text_negdef(d: dict) -> list[str]:
    return [f"negative definite: {_yes(d['negative_definite'])}"]


def _cmd_complement(args) -> tuple[dict, int]:
    pair = _read_germ(args.germ).pair(args.boundary)
    if args.n is not None:
        cert, tried = comp_mod.search_complement(pair, args.n), str(args.n)
    else:
        cert, tried = comp_mod.minimal_complement(pair), _LEVELS
    if cert is None:
        return {"found": False, "levels_tried": tried}, EXIT_NEGATIVE
    coeffs = _coeff_map(cert.coeffs)
    return {"found": True, "level": cert.level, "plt_case": cert.plt_case, "coeffs": coeffs}, EXIT_OK


def _text_complement(d: dict) -> list[str]:
    if not d["found"]:
        return [f"no complement found (levels tried: {d['levels_tried']})"]
    lines = [f"complement: N={d['level']} {'plt' if d['plt_case'] else 'non-plt'}"]
    return lines + [f"  {vid} = {c}" for vid, c in d["coeffs"].items()]


def _cmd_bstar(args) -> tuple[dict, int]:
    germ = _read_germ(args.germ)
    pair = germ.pair(args.boundary)
    primes = _parse_primes(args.p) if args.p is not None else germ.primes
    if not primes:
        raise GraphError("no primes: pass --p or add a prime line to the germ file")
    results = []
    worst = EXIT_OK
    for p in sorted(set(primes)):
        try:
            cert = bstar_mod.gfr_certificate(pair, p, args.e_max)
        except bstar_mod.PipelineError as exc:
            worst = max(worst, _PIPELINE_EXITS[exc.kind])
            results.append({"p": p, "ok": False, "stage": exc.stage, "error": str(exc)})
            continue
        results.append({"p": p, "ok": True, "certificate": bstar_mod.certificate_to_payload(cert)})
    return {"results": results}, worst


def _text_bstar(d: dict) -> list[str]:
    lines = []
    for r in d["results"]:
        if not r["ok"]:
            lines.append(f"p={r['p']}: failed at stage {r['stage']}: {r['error']}")
            continue
        c = r["certificate"]
        lines.append(f"p={r['p']}: certificate")
        lines.append(f"  case: {c['case']}  level: {c['level']}  center: {c['center']}")
        if c["gamma0"]:
            lines.append("  gamma0: " + " ".join(c["gamma0"]))
        if c["gamma_prime"]:
            lines.append("  gamma': " + " ".join(c["gamma_prime"]))
        if c["epsilon"] is not None:
            lines.append(f"  epsilon: {c['epsilon']}")
        lines.append("  Bc: " + " ".join(f"{v}={x}" for v, x in c["bc"].items()))
        lines.append("  B*: " + " ".join(f"{v}={x}" for v, x in c["bstar"].items()))
        lines.append("  diff at center: " + ", ".join(c["diff"]))
        lines.append("  fedder: " + _verdict_text(c["fedder"]))
    return lines


def _cmd_fregular(args) -> tuple[dict, int]:
    coeffs = [parse_rational(tok) for tok in args.coeffs.split(",") if tok.strip()]
    pair = P1Pair.from_coeffs([c for c in coeffs if c != 0])  # a zero marks no point
    results = []
    worst = EXIT_OK
    for p in sorted(set(_parse_primes(args.p))):
        verdict = is_globally_F_regular(pair, p, args.e_max)
        results.append({"p": p, **verdict_to_payload(verdict)})
        worst = max(worst, _VERDICT_EXITS[verdict.status])
    return {"results": results}, worst


def _text_fregular(d: dict) -> list[str]:
    return [f"p={r['p']}: {_verdict_text(r)}" for r in d["results"]]


def _cmd_hara(args) -> tuple[dict, int]:
    rows = hara_table(_parse_primes(args.p) if args.p is not None else None)
    all_ok = all(r.reference_ok is not False and r.witness is not None for r in rows)
    return {"rows": [dataclasses.asdict(r) for r in rows]}, EXIT_OK if all_ok else EXIT_NEGATIVE


def _text_hara(d: dict) -> list[str]:
    def pair(w):
        return f"({w[0]},{w[1]})" if w else "-"

    lines = [f"{'case':4} {'p':>3} {'e':>2} {'a1':>4} {'a2':>4} {'a3':>4}  "
             f"{'witness':>12}  {'reference':>12}  ok"]
    for r in d["rows"]:
        ok = {True: "yes", False: "NO", None: "-"}[r["reference_ok"]]
        a = r["a"]
        lines.append(
            f"{r['case']:4} {r['p']:>3} {r['e']:>2} {a[0]:>4} {a[1]:>4} {a[2]:>4}  "
            f"{pair(r['witness']):>12}  {pair(r['reference_witness']):>12}  {ok}"
        )
    return lines


def _cmd_lucas(args) -> tuple[dict, int]:
    value = binom_mod_p(args.n, args.k, args.p)
    return {"n": args.n, "k": args.k, "p": args.p, "residue": value}, EXIT_OK


def _text_lucas(d: dict) -> list[str]:
    return [f"binom({d['n']}, {d['k']}) mod {d['p']} = {d['residue']}"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frsurf",
        description="Exact calculator for log surface germs: dual graphs, "
        "complements, and Frobenius-splitting certificates.",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name, fn, render, *, germ=False, boundary=False, help=None):
        p = sub.add_parser(name, help=help)
        if germ:
            p.add_argument("germ", help="germ file path, or - for stdin")
        if boundary:
            p.add_argument("--boundary", default=None, help="named boundary vector to use as B")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(fn=fn, render=render)
        return p

    add("classify", _cmd_classify, _text_classify, germ=True, boundary=True, help="singularity class of the germ")
    add("discrepancies", _cmd_discrepancies, _text_discrepancies, germ=True, boundary=True,
        help="crepant pullback and discrepancies")
    add("negdef", _cmd_negdef, _text_negdef, germ=True, help="negative definiteness of the exceptional lattice")
    c = add("complement", _cmd_complement, _text_complement, germ=True, boundary=True,
            help="search for an N-complement")
    c.add_argument("--n", type=int, choices=comp_mod.LEVELS, help="fixed level (default: the minimal one)")
    bs = add("bstar", _cmd_bstar, _text_bstar, germ=True, boundary=True,
             help="full F-regularity certificate pipeline")
    bs.add_argument("--p", default=None, help="comma-separated primes (default: the germ file's prime line)")
    bs.add_argument("--e-max", type=int, default=4, dest="e_max")
    fr = add("fregular-p1", _cmd_fregular, _text_fregular, help="monomial-criterion test for (P1, D)")
    fr.add_argument("--coeffs", required=True, help="comma-separated exact fractions, up to three nonzero")
    fr.add_argument("--p", required=True, help="comma-separated primes")
    fr.add_argument("--e-max", type=int, default=4, dest="e_max")
    h = add("hara", _cmd_hara, _text_hara, help="e=2 verification table for the two benchmark boundaries")
    h.add_argument("--p", default=None, help="comma-separated primes (default 7,11,13,17,19,23,29)")
    lu = add("lucas", _cmd_lucas, _text_lucas, help="binomial coefficient modulo a prime")
    lu.add_argument("--n", type=int, required=True)
    lu.add_argument("--k", type=int, required=True)
    lu.add_argument("--p", type=int, required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error (exit 2) or the help (exit 0).
        return EXIT_INPUT if exc.code else EXIT_OK
    if getattr(args, "command", None) is None:
        parser.print_usage()
        return EXIT_INPUT
    try:
        payload, code = args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return EXIT_INPUT
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("\n".join(args.render(payload)))
    return code


if __name__ == "__main__":
    sys.exit(main())
