"""Command-line surface.

Exit codes: 0 = pass / answer, 1 = definite negative, 2 = inconclusive,
3 = input error, usage errors and unreadable germ paths included.  Output
is deterministic: vertices sorted by id, tables sorted by (p, e); --format
json mirrors the text report field for field.
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


def _emit(payload: dict, lines: list[str], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2)
    return "\n".join(lines)


def _verdict_text(verdict) -> str:
    if verdict.status == "regular":
        if verdict.certificate is not None:
            c = verdict.certificate
            return (
                f"regular (e={c.e}, a=({c.a[0]},{c.a[1]},{c.a[2]}), "
                f"witness=x^{c.witness[0]} y^{c.witness[1]})"
            )
        return f"regular ({verdict.reason})"
    if verdict.status == "not_regular":
        return f"not regular ({verdict.reason})"
    return f"inconclusive (no witness up to e={verdict.e_tried})"


def _cmd_classify(args) -> tuple[str, int]:
    germ = _read_germ(args.germ)
    pair = germ.pair(args.boundary)
    cls = classify(pair)
    lines = [f"class: {cls.label}"]
    lines.append(
        "klt: %s  plt: %s  lc: %s"
        % tuple("yes" if x else "no" for x in (cls.is_klt, cls.is_plt, cls.is_lc))
    )
    for vid in sorted(cls.b):
        lines.append(f"  {vid} b={format_rational(cls.b[vid])}")
    if cls.max_b is not None:
        lines.append(f"max b: {format_rational(cls.max_b)} at {cls.max_b_vertex}")
    lines.append(
        "lc centers: " + (", ".join(cls.lc_centers) if cls.lc_centers else "none")
    )
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
    return _emit(payload, lines, args.format), EXIT_OK


def _cmd_discrepancies(args) -> tuple[str, int]:
    germ = _read_germ(args.germ)
    pair = germ.pair(args.boundary)
    b = classify(pair).b
    a = {vid: -v for vid, v in b.items()}
    lines = ["vertex  b  a"]
    for vid in sorted(b):
        lines.append(f"{vid}  {format_rational(b[vid])}  {format_rational(a[vid])}")
    payload = {"b": _coeff_map(b), "a": _coeff_map(a)}
    return _emit(payload, lines, args.format), EXIT_OK


def _cmd_negdef(args) -> tuple[str, int]:
    germ = _read_germ(args.germ)
    ok = germ.graph.lattice(germ.graph.exceptional_ids).definite
    payload = {"negative_definite": ok}
    return (
        _emit(payload, [f"negative definite: {'yes' if ok else 'no'}"], args.format),
        EXIT_OK if ok else EXIT_NEGATIVE,
    )


def _cmd_complement(args) -> tuple[str, int]:
    germ = _read_germ(args.germ)
    pair = germ.pair(args.boundary)
    if args.n is not None:
        cert = comp_mod.search_complement(pair, args.n)
        tried = str(args.n)
    else:
        cert = comp_mod.minimal_complement(pair)
        tried = _LEVELS
    if cert is None:
        payload = {"found": False, "levels_tried": tried}
        return (
            _emit(payload, [f"no complement found (levels tried: {tried})"], args.format),
            EXIT_NEGATIVE,
        )
    lines = [f"complement: N={cert.level} {'plt' if cert.plt_case else 'non-plt'}"]
    for vid in sorted(cert.coeffs):
        lines.append(f"  {vid} = {format_rational(cert.coeffs[vid])}")
    payload = {
        "found": True,
        "level": cert.level,
        "plt_case": cert.plt_case,
        "coeffs": _coeff_map(cert.coeffs),
    }
    return _emit(payload, lines, args.format), EXIT_OK


def _cmd_bstar(args) -> tuple[str, int]:
    germ = _read_germ(args.germ)
    pair = germ.pair(args.boundary)
    primes = _parse_primes(args.p) if args.p is not None else germ.primes
    if not primes:
        raise GraphError("no primes: pass --p or add a prime line to the germ file")
    lines = []
    results = []
    worst = EXIT_OK
    for p in sorted(set(primes)):
        try:
            cert = bstar_mod.gfr_certificate(pair, p, args.e_max)
        except bstar_mod.PipelineError as exc:
            code = _PIPELINE_EXITS[exc.kind]
            worst = max(worst, code)
            lines.append(f"p={p}: failed at stage {exc.stage}: {exc}")
            results.append({"p": p, "ok": False, "stage": exc.stage, "error": str(exc)})
            continue
        lines.append(f"p={p}: certificate")
        lines.append(
            f"  case: {cert.case}  level: {cert.level}  center: {cert.center}"
        )
        if cert.gamma0:
            lines.append("  gamma0: " + " ".join(cert.gamma0))
        if cert.gamma_prime:
            lines.append("  gamma': " + " ".join(cert.gamma_prime))
        if cert.epsilon is not None:
            lines.append(f"  epsilon: {format_rational(cert.epsilon)}")
        lines.append(
            "  Bc: "
            + " ".join(f"{v}={format_rational(c)}" for v, c in sorted(cert.bc.items()))
        )
        lines.append(
            "  B*: "
            + " ".join(f"{v}={format_rational(c)}" for v, c in sorted(cert.bstar.items()))
        )
        lines.append(
            "  diff at center: " + ", ".join(format_rational(v) for v in cert.diff)
        )
        lines.append("  fedder: " + _verdict_text(cert.fedder))
        results.append(
            {"p": p, "ok": True, "certificate": bstar_mod.certificate_to_payload(cert)}
        )
    return _emit({"results": results}, lines, args.format), worst


def _cmd_fregular(args) -> tuple[str, int]:
    coeffs = [parse_rational(tok) for tok in args.coeffs.split(",") if tok.strip()]
    pair = P1Pair.from_coeffs(coeffs)
    primes = _parse_primes(args.p)
    lines = []
    results = []
    worst = EXIT_OK
    for p in sorted(set(primes)):
        verdict = is_globally_F_regular(pair, p, args.e_max)
        lines.append(f"p={p}: {_verdict_text(verdict)}")
        results.append({"p": p, **verdict_to_payload(verdict)})
        if verdict.status == "not_regular":
            worst = max(worst, EXIT_NEGATIVE)
        elif verdict.status == "inconclusive":
            worst = max(worst, EXIT_INCONCLUSIVE)
    return _emit({"results": results}, lines, args.format), worst


def _cmd_hara(args) -> tuple[str, int]:
    primes = _parse_primes(args.p) if args.p is not None else None
    rows = hara_table(primes)
    header = f"{'case':4} {'p':>3} {'e':>2} {'a1':>4} {'a2':>4} {'a3':>4}  {'witness':>12}  {'reference':>12}  ok"
    lines = [header]
    all_ok = True
    for r in rows:
        wit = f"({r.witness[0]},{r.witness[1]})" if r.witness else "-"
        ref = (
            f"({r.reference_witness[0]},{r.reference_witness[1]})"
            if r.reference_witness
            else "-"
        )
        ok = {True: "yes", False: "NO", None: "-"}[r.reference_ok]
        if r.reference_ok is False or r.witness is None:
            all_ok = False
        lines.append(
            f"{r.case:4} {r.p:>3} {r.e:>2} {r.a[0]:>4} {r.a[1]:>4} {r.a[2]:>4}  "
            f"{wit:>12}  {ref:>12}  {ok}"
        )
    return (
        _emit({"rows": [dataclasses.asdict(r) for r in rows]}, lines, args.format),
        EXIT_OK if all_ok else EXIT_NEGATIVE,
    )


def _cmd_lucas(args) -> tuple[str, int]:
    value = binom_mod_p(args.n, args.k, args.p)
    payload = {"n": args.n, "k": args.k, "p": args.p, "residue": value}
    return (
        _emit(payload, [f"binom({args.n}, {args.k}) mod {args.p} = {value}"], args.format),
        EXIT_OK,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frsurf",
        description="Exact calculator for log surface germs: dual graphs, "
        "complements, and Frobenius-splitting certificates.",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name, fn, *, germ=False, boundary=False, help=None):
        p = sub.add_parser(name, help=help)
        if germ:
            p.add_argument("germ", help="germ file path, or - for stdin")
        if boundary:
            p.add_argument("--boundary", default=None, help="named boundary vector to use as B")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(fn=fn)
        return p

    add("classify", _cmd_classify, germ=True, boundary=True, help="singularity class of the germ")
    add("discrepancies", _cmd_discrepancies, germ=True, boundary=True, help="crepant pullback and discrepancies")
    add("negdef", _cmd_negdef, germ=True, help="negative definiteness of the exceptional lattice")
    c = add("complement", _cmd_complement, germ=True, boundary=True, help="search for an N-complement")
    c.add_argument("--n", type=int, choices=comp_mod.LEVELS, help="fixed level (default: the minimal one)")
    bs = add("bstar", _cmd_bstar, germ=True, boundary=True, help="full F-regularity certificate pipeline")
    bs.add_argument("--p", default=None, help="comma-separated primes (default: the germ file's prime line)")
    bs.add_argument("--e-max", type=int, default=4, dest="e_max")
    fr = add("fregular-p1", _cmd_fregular, help="monomial-criterion test for (P1, D)")
    fr.add_argument("--coeffs", required=True, help="comma-separated exact fractions, up to three")
    fr.add_argument("--p", required=True, help="comma-separated primes")
    fr.add_argument("--e-max", type=int, default=4, dest="e_max")
    h = add("hara", _cmd_hara, help="e=2 verification table for the two benchmark boundaries")
    h.add_argument("--p", default=None, help="comma-separated primes (default 7,11,13,17,19,23,29)")
    lu = add("lucas", _cmd_lucas, help="binomial coefficient modulo a prime")
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
        text, code = args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return EXIT_INPUT
    except bstar_mod.PipelineError as exc:
        print(f"error: {exc}")
        return _PIPELINE_EXITS[exc.kind]
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
