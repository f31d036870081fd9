"""Certificate pipeline for global F-regularity of klt standard germs.

From a klt pair with standard coefficients and -(K+B) nef over the base the
pipeline produces a checkable certificate chain, split at the prime.  The
prime-free half, `surgery(pair)`, runs once per pair and is kept on it:
minimal complement Bc, the center as the first curve of one walk for both
cases (`_center_and_chain`: the coefficient-1 chain of Bc, extended through
Supp(Bc - B) to a non-exceptional curve), the coefficient surgery
m/N -> (m-1)/(N-1) along the rest of that walk (plt case; none when the
rest is empty) or the convex mix toward the trivial-pairing solution off
the center, bounded by dominance alone as the lattice is monotone (non-plt
case), and the different of B* along the center as a `P1Pair`.  The
per-prime half, `gfr_certificate(pair, p)`, runs only the monomial test on
that different and the checks of its witness.  `reverify_certificate` is
the one definition of a valid certificate: it checks the complement, that
the recorded chain is a path from the center and B* the recorded surgery of
Bc along it, anti-nefness of K + B*, the sandwich Bc >= B* >= B, plt-ness
of (graph, B*) and the different with its anchors, then the witness on
the recomputed different; `gfr_certificate` returns only certificates that
pass these checks.  Both read the prime-free verdict from
`_prime_free_verdict`, which the pair keeps for the last content checked,
so a germ's certificates at several primes, built or reverified, share one
prime-free check.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .complements import LEVELS, ComplementHypothesisError, minimal_complement, verify_complement
from .fedder import (
    FRegCertificate,
    FRegVerdict,
    P1Pair,
    fedder_exponents,
    is_globally_F_regular,
    verdict_from_payload,
    verdict_to_payload,
    verify_witness,
)
from .graphs import GraphError, LogPair, classify, diff_on_component, dot_against_exceptionals, numerators
from .padic import is_prime
from .rationals import format_rational, parse_rational, std_replace


class PipelineError(RuntimeError):
    """Staged diagnostic: every failure names its stage and kind."""

    def __init__(self, stage: str, kind: str, message: str):
        self.stage = stage
        self.kind = kind  # "hypothesis" | "structure" | "search" | "inconclusive"
        super().__init__(f"[{stage}] {message}")


@dataclass(frozen=True)
class NonPltSurgery:
    center: str
    gamma_prime: tuple[str, ...]
    bsharp: dict[str, Fraction]
    bstar: dict[str, Fraction]
    epsilon: Fraction


@dataclass(frozen=True)
class GfrCertificate:
    case: str  # "plt" | "non_plt"
    level: int
    center: str
    gamma0: tuple[str, ...]
    gamma_prime: tuple[str, ...]
    bc: dict[str, Fraction]
    bstar: dict[str, Fraction]
    epsilon: Fraction | None
    diff: tuple[Fraction, ...]
    diff_anchors: tuple
    fedder: FRegVerdict
    prime: int
    e_max: int


def construct_bstar_plt(bc, level: int, gamma0) -> dict[str, Fraction]:
    """Replace each chain coefficient m/level by (m-1)/(level-1), rest unchanged.

    An empty chain (a non-exceptional center) needs no surgery: Bc itself.
    """
    if gamma0 and level < 2:
        raise PipelineError("surgery", "structure", "surgery needs level >= 2")
    out = dict(bc)
    for v in gamma0:
        num, den = out[v].as_integer_ratio()
        if level * num % den:
            raise PipelineError(
                "surgery",
                "structure",
                f"{v!r} carries {format_rational(out[v])}, not on the 1/{level} grid",
            )
        out[v] = std_replace(level * num // den, level)
    return out


def _center_and_chain(pair: LogPair, bc) -> list[str]:
    """The coefficient-1 chain of Bc, oriented and extended through
    Supp(Bc - B) to end at a non-exceptional curve; its first vertex is the
    center, in the plt and non-plt cases alike.

    The chain is walked from its smaller end id.  The far end is the first
    chain end (smaller id first) that is non-exceptional or extends; the
    extension is the lexicographically least path through Supp(Bc - B) off
    the chain whose interior curves are exceptional.
    """
    graph = pair.graph
    ones = sorted(v for v in graph.ids if bc[v] == 1)
    if not ones:
        raise PipelineError("reduced-chain", "structure", "no coefficient-1 vertex")
    link = {v: [n for n, _m in graph.neighbors(v) if n in ones] for v in ones}
    gamma = [v for v in ones if len(link[v]) <= 1][:1]
    while gamma:
        step = [n for n in link[gamma[-1]] if n not in gamma]
        if len(step) != 1:
            break
        gamma += step
    # A locus of degrees at most 2 is a simple chain exactly when the walk
    # from one of its ends covers it.
    if len(gamma) != len(ones) or any(len(ns) > 2 for ns in link.values()):
        raise PipelineError(
            "reduced-chain",
            "structure",
            "coefficient-1 locus is not a simple chain: " + ", ".join(ones),
        )
    support = {v for v in graph.ids if bc[v] > pair.coeff[v]} - set(gamma)

    def extend(path):
        if not graph.vertex(path[-1]).exceptional:
            return path
        for nbr, _m in graph.neighbors(path[-1]):
            if nbr in support and nbr not in path:
                found = extend(path + [nbr])
                if found is not None:
                    return found
        return None

    for oriented in (gamma[::-1], gamma) if len(gamma) > 1 else (gamma,):
        path = extend(oriented)
        if path is not None:
            return path
    # Connectedness: when -(K+B) is nef over the base, the component of
    # Supp(Bc - B) through the chain reaches a non-exceptional curve, so a
    # missing extension means the input violates that hypothesis.
    raise PipelineError(
        "chain-extension",
        "hypothesis",
        "the coefficient-1 chain admits no non-exceptional extension inside Supp(Bc - B)",
    )


def _bsharp(graph, bc, gamma_prime) -> dict[str, Fraction]:
    """Bc zeroed on the chain gamma_prime, whose exceptional curves are then
    solved by trivial pairing (non-exceptional ones stay 0)."""
    gp = set(gamma_prime)
    zero = Fraction(0)
    b2 = {v: (zero if v in gp else bc[v]) for v in graph.ids}
    exc_gp = [v for v in gamma_prime if graph.vertex(v).exceptional]
    return {**b2, **graph.lattice(exc_gp).solve(b2)}


def construct_bstar_nonplt(pair: LogPair, bc) -> NonPltSurgery:
    """The walk, Bsharp off its center, and B* = (1-eps) Bc + eps Bsharp at
    eps = eps_max / 2, eps_max = min(1, min over Bsharp(v) < Bc(v) of
    (Bc(v) - B(v)) / (Bc(v) - Bsharp(v))): dominance B* >= B alone.

    Minus the exceptional pairing matrix is a nonsingular M-matrix, so its
    inverse is >= 0: lowering fixed coefficients lowers the solved ones.  Bc
    pairs to zero with every exceptional curve, and Bsharp lowers the
    non-exceptional curves of gamma' (the walk minus the center) to 0.  So
    (1) Bsharp <= Bc; (2) K + Bsharp pairs with an exceptional E off gamma'
    as the sum over v in gamma' of (Bsharp - Bc)(v) C_v.E <= 0: anti-nef;
    (3) the pullback of Bsharp is <= Bc, and (4) < Bc where Bc = 1, as such
    a curve is joined through exceptional curves of the walk to one lowered
    to 0; (5) Bsharp < Bc only on gamma', where Bc > B (klt), so eps_max > 0.
    Hence B* lies in [0, 1], K + B* is anti-nef and its solved exceptional
    coefficients stay below 1.  `reverify_certificate` checks all of this
    again, and plt-ness of (graph, B*).
    """
    path = _center_and_chain(pair, bc)
    center, gamma_prime = path[0], tuple(path[1:])
    if not gamma_prime:
        raise PipelineError("nonplt-split", "structure", "chain minus the center is empty")
    bsharp = _bsharp(pair.graph, bc, gamma_prime)
    bounds = [
        (bc[v] - pair.coeff[v]) / (bc[v] - bsharp[v]) for v in pair.graph.ids if bsharp[v] < bc[v]
    ]
    eps = min([Fraction(1), *bounds]) / 2
    return NonPltSurgery(
        center=center,
        gamma_prime=gamma_prime,
        bsharp=bsharp,
        bstar=_mix(bc, bsharp, eps),
        epsilon=eps,
    )


def _mix(bc, bsharp, eps) -> dict[str, Fraction]:
    """(1 - eps) Bc + eps Bsharp on every vertex of Bsharp, one Fraction each."""
    en, ed = eps.as_integer_ratio()
    out = {}
    for v, s in bsharp.items():
        cn, cd = bc[v].as_integer_ratio()
        sn, sd = s.as_integer_ratio()
        out[v] = Fraction((ed - en) * cn * sd + en * sn * cd, ed * cd * sd)
    return out


def _different(pair: LogPair, bstar, center: str) -> tuple[tuple, P1Pair]:
    """The different of B* along the center: its anchors, and its P1 pair."""
    anchors = tuple(diff_on_component(pair.with_coeff(bstar), center))
    try:
        return anchors, P1Pair.from_coeffs([val for _a, val in anchors if val != 0])
    except ValueError as exc:
        raise PipelineError(
            "different", "structure", f"the different at {center!r} is not a P1 pair: {exc}"
        )


def verify_pfreg(
    pair: LogPair, bstar, center: str, p: int, e_max: int
) -> tuple[tuple, FRegVerdict]:
    """Clause (3): the anchors of the different of B* along the center, and
    its F-regularity verdict at p (clauses (1) and (2): `reverify_certificate`)."""
    anchors, p1 = _different(pair, bstar, center)
    return anchors, is_globally_F_regular(p1, p, e_max)


def surgery(pair: LogPair) -> tuple[GfrCertificate, P1Pair]:
    """The prime-free half of the pipeline, run once per pair and kept on it:
    the certificate without its prime (fedder, prime and e_max are None) and
    its different as a `P1Pair`.  A `PipelineError` on the way is kept and
    re-raised, with a fresh traceback, for every prime."""
    if pair._surgery is None:
        try:
            memo = _prime_free_half(pair)
        except PipelineError as exc:
            memo = exc
        object.__setattr__(pair, "_surgery", memo)
    if isinstance(pair._surgery, PipelineError):
        raise pair._surgery.with_traceback(None)
    return pair._surgery


def _prime_free_half(pair: LogPair):
    try:
        comp = minimal_complement(pair)
    except ComplementHypothesisError as exc:
        raise PipelineError("hypotheses", "hypothesis", "; ".join(exc.failures))
    if comp is None:
        raise PipelineError(
            "complement",
            "search",
            f"no complement of level {', '.join(map(str, LEVELS[:-1]))} or {LEVELS[-1]} "
            "on the coefficient grid",
        )
    bc = comp.coeffs
    gamma0 = gamma_prime = ()
    epsilon = None
    if comp.plt_case:
        center, *chain = _center_and_chain(pair, bc)
        gamma0 = tuple(chain)
        bstar = construct_bstar_plt(bc, comp.level, gamma0)
    else:
        mix = construct_bstar_nonplt(pair, bc)
        center, gamma_prime, bstar, epsilon = mix.center, mix.gamma_prime, mix.bstar, mix.epsilon
    anchors, p1 = _different(pair, bstar, center)
    cert = GfrCertificate(
        case="plt" if comp.plt_case else "non_plt",
        level=comp.level,
        center=center,
        gamma0=gamma0,
        gamma_prime=gamma_prime,
        bc=bc,
        bstar=bstar,
        epsilon=epsilon,
        diff=tuple(val for _a, val in anchors),
        diff_anchors=anchors,
        fedder=None,
        prime=None,
        e_max=None,
    )
    return cert, p1


def gfr_certificate(pair: LogPair, p: int, e_max: int = 4) -> GfrCertificate:
    """Run the pipeline at p; every failure raises a staged diagnostic.

    Only the monomial test and the checks of its witness run per prime; the
    rest is `surgery(pair)`.  The certificate, which owns its coefficient
    maps, is returned only when it passes the checks of `reverify_certificate`.
    """
    if not (isinstance(p, int) and is_prime(p) and p > 5):
        raise PipelineError(
            "hypotheses", "hypothesis", f"characteristic must be a prime > 5, got {p}"
        )
    if not (_is_int(e_max) and e_max >= 1):
        raise PipelineError(
            "hypotheses", "hypothesis", f"e_max must be a positive integer, got {e_max}"
        )
    cert, p1 = surgery(pair)
    problems, values = _prime_free_verdict(pair, cert)
    verdict = is_globally_F_regular(p1, p, e_max)
    if verdict.status == "inconclusive" and not problems:
        raise PipelineError(
            "fedder",
            "inconclusive",
            f"monomial test exhausted e <= {e_max} at p = {p}",
        )
    cert = replace(
        cert, bc=dict(cert.bc), bstar=dict(cert.bstar), fedder=verdict, prime=p, e_max=e_max
    )
    problems = [*problems, *_witness_problems(cert, values)]
    if problems:
        raise PipelineError("pfreg", "structure", "; ".join(problems))
    return cert


def certificate_to_payload(cert: GfrCertificate) -> dict:
    """JSON-ready form; `certificate_from_payload` restores the certificate."""
    return {
        "case": cert.case,
        "level": cert.level,
        "center": cert.center,
        "gamma0": list(cert.gamma0),
        "gamma_prime": list(cert.gamma_prime),
        "bc": {v: format_rational(c) for v, c in sorted(cert.bc.items())},
        "bstar": {v: format_rational(c) for v, c in sorted(cert.bstar.items())},
        "epsilon": format_rational(cert.epsilon) if cert.epsilon is not None else None,
        "diff": [format_rational(v) for v in cert.diff],
        "diff_anchors": [[list(a), format_rational(v)] for a, v in cert.diff_anchors],
        "fedder": verdict_to_payload(cert.fedder),
        "p": cert.prime,
        "e_max": cert.e_max,
    }


def certificate_from_payload(payload: dict) -> GfrCertificate:
    """The certificate `certificate_to_payload` wrote.  Chains and scalars of
    the wrong type are kept for `reverify_certificate` to report; a field
    that is missing or cannot be read raises one ValueError naming it."""

    def read(name, parse=lambda value: value):
        try:
            return parse(payload[name])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"certificate field {name!r} cannot be read: {exc!r}") from exc

    def chain(value):
        return tuple(value) if isinstance(value, list) else value

    def coeffs(value):
        return {v: parse_rational(c) for v, c in value.items()}

    return GfrCertificate(
        case=read("case"),
        level=read("level"),
        center=read("center"),
        gamma0=read("gamma0", chain),
        gamma_prime=read("gamma_prime", chain),
        bc=read("bc", coeffs),
        bstar=read("bstar", coeffs),
        epsilon=read("epsilon", lambda eps: None if eps is None else parse_rational(eps)),
        diff=read("diff", lambda diff: tuple(map(parse_rational, diff))),
        diff_anchors=read(
            "diff_anchors", lambda anchors: tuple((tuple(a), parse_rational(v)) for a, v in anchors)
        ),
        fedder=read("fedder", verdict_from_payload),
        prime=read("p"),
        e_max=read("e_max"),
    )


def reverify_certificate(pair: LogPair, cert: GfrCertificate) -> list[str]:
    """Re-check a certificate with graph and monomial primitives only.

    Returns a new list of discrepancies (empty means the certificate
    stands); a tampered field is reported, not raised.  The prime-free half
    the pair keeps (`surgery`) is never read, but its verdict on equal
    content is (`_prime_free_verdict`): on the pair that built the
    certificate no prime-free check runs again.  Then the witness is checked.
    """
    mistyped = _type_problems(cert)
    if mistyped:
        return mistyped
    problems, values = _prime_free_verdict(pair, cert)
    return [*problems, *_witness_problems(cert, values)]


def _prime_free_verdict(pair: LogPair, cert: GfrCertificate) -> tuple[tuple[str, ...], tuple | None]:
    """`_prime_free_problems` of well-typed content, kept on the pair for the
    last content checked (`LogPair._verdict`), keyed by every field it reads.
    `_type_problems` fixes the type of each of them but case, which is only
    compared, with ==, to strings: a list there always gives a rejection, so
    an edit in place can never turn that into an accepting hit."""
    key = (cert.case, cert.level, cert.center, cert.gamma0, cert.gamma_prime,
           tuple(cert.bc.items()), tuple(cert.bstar.items()), cert.epsilon, cert.diff,
           cert.diff_anchors)
    kept = pair._verdict  # read once: another thread may replace it
    if kept is None or kept[0] != key:
        problems, values = _prime_free_problems(pair, cert)
        kept = (key, tuple(problems), values)
        object.__setattr__(pair, "_verdict", kept)
    return kept[1], kept[2]


def _prime_free_problems(pair: LogPair, cert: GfrCertificate) -> tuple[list[str], tuple | None]:
    """Every check of a well-typed certificate but its witness: the
    complement, the recorded chain a path from the center, the recorded
    surgery, K + B* anti-nef, the sandwich, plt-ness of (graph, B*) and the
    different with its anchors.  Returns the problems and the recomputed
    different, None when a field stops the check early."""
    graph = pair.graph
    bc = cert.bc
    bs = cert.bstar

    if set(bc) != set(graph.ids) or set(bs) != set(graph.ids):
        return ["coefficient vectors do not cover the graph"], None
    if cert.center not in bc:
        return [f"center {cert.center!r} is not a vertex of the graph"], None
    if cert.case not in ("plt", "non_plt"):
        return [f"unknown case {cert.case!r}"], None
    # a step to an unknown vertex fails before its neighbors are read
    walk = (cert.center, *cert.gamma0, *cert.gamma_prime)
    steps = zip(walk, walk[1:])
    if len(set(walk)) < len(walk) or any(b not in dict(graph.neighbors(a)) for a, b in steps):
        return ["the recorded chain is not a path from the center"], None
    bs_den, bs_num = numerators(bs)
    outside = sorted(v for v, n in bs_num.items() if not 0 <= n <= bs_den)
    if outside:
        return ["B* leaves [0, 1] at " + ", ".join(outside)], None
    if bc[cert.center] != 1 or bs[cert.center] != 1:
        return ["center does not carry coefficient 1"], None
    report = verify_complement(pair, bc, cert.level)
    problems = list(report.details)
    # A failed lc_not_klt check already rejects the certificate.
    if report.checks["lc_not_klt"] and (cert.case == "plt") != report.classification.is_plt:
        problems.append("recorded case disagrees with the classification")

    problems.extend(_surgery_problems(graph, cert))
    if any(val > 0 for val in dot_against_exceptionals(graph, bs_den, bs_num).values()):
        problems.append("K + B* pairs positively against some exceptional curve")
    bc_den, bc_num = numerators(bc)
    for v in graph.ids:
        s = bs_num[v]
        if not (bc_num[v] * bs_den >= s * bc_den and s * pair.den >= pair.num[v] * bs_den):
            problems.append(f"sandwich Bc >= B* >= B fails at {v}")
    bs_pair = pair.with_coeff(bs)
    try:
        if not classify(bs_pair).is_plt:
            problems.append("pair with B* is not plt")
    except GraphError as exc:
        problems.append(f"classification of the pair with B* failed: {exc}")

    anchors = tuple(diff_on_component(bs_pair, cert.center))
    if anchors != cert.diff_anchors:
        problems.append("recorded anchors disagree with the recomputation")
    values = tuple(val for _a, val in anchors)
    if values != cert.diff:
        problems.append("recorded different disagrees with the recomputation")
    return problems, values


def _witness_problems(cert: GfrCertificate, values: tuple | None) -> list[str]:
    """The checks at the certificate's prime: the characteristic, the
    verdict, and its witness against the recomputed different `values`
    (none when the prime-free checks stopped early)."""
    if values is None:
        return []
    problems = []
    nonzero = [val for val in values if val != 0]
    verdict = cert.fedder
    fc = verdict.certificate
    prime_ok = is_prime(cert.prime) and cert.prime > 5
    if not prime_ok:
        problems.append(f"characteristic {cert.prime} is not a prime > 5")
    if not verdict.is_regular:
        problems.append("stored verdict is not regular")
    elif fc is None:
        if len(nonzero) > 2:
            problems.append("toric verdict with more than two marked points")
    elif fc.p != cert.prime or not 1 <= fc.e <= cert.e_max:
        problems.append(
            f"stored witness is for p={fc.p}, e={fc.e}; "
            f"the certificate claims p={cert.prime}, e <= {cert.e_max}"
        )
    elif prime_ok:
        try:
            p1 = P1Pair.from_coeffs(nonzero)
        except ValueError as exc:
            # A coefficient 1 or a fourth marked point: no Fedder test applies.
            problems.append(f"the different is not a P1 pair: {exc}")
        else:
            if fedder_exponents(p1, fc.p, fc.e) != fc.a:
                problems.append("stored exponents disagree with the different")
            elif not verify_witness(fc.a, *fc.witness, fc.p, fc.e):
                problems.append("stored witness monomial fails verification")
    return problems


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_rational(value) -> bool:
    return _is_int(value) or isinstance(value, Fraction)


def _is_anchor(value) -> bool:
    """Whether value is ((vertex name, index), exact rational)."""
    return (type(value) is tuple and len(value) == 2 and type(value[0]) is tuple
            and tuple(map(type, value[0])) == (str, int) and _is_rational(value[1]))


def _type_problems(cert: GfrCertificate) -> list[str]:
    """Fields of the wrong type (scalars, chains, coefficient maps, the
    verdict's fields), and an e_max or e_tried below 1: the checks of
    `reverify_certificate` would raise on them or misread them rather than
    report them."""
    problems = [
        f"{name} {getattr(cert, name)!r} is not an integer"
        for name in ("level", "prime", "e_max")
        if not _is_int(getattr(cert, name))
    ]
    if _is_int(cert.e_max) and cert.e_max < 1:
        problems.append(f"e_max {cert.e_max} is below 1")
    if not isinstance(cert.center, str):
        problems.append(f"center {cert.center!r} is not a vertex name")
    for name in ("gamma0", "gamma_prime"):
        value = getattr(cert, name)
        if not (isinstance(value, tuple) and all(isinstance(v, str) for v in value)):
            problems.append(f"{name} {value!r} is not a tuple of vertex names")
    for name in ("bc", "bstar"):
        value = getattr(cert, name)
        if not isinstance(value, dict):
            problems.append(f"{name} {value!r} is not a coefficient map")
            continue
        problems.extend(
            f"{name} at {v!r} is {c!r}, not an exact rational"
            for v, c in value.items()
            if not _is_rational(c)
        )
    if not (cert.epsilon is None or _is_rational(cert.epsilon)):
        problems.append(f"epsilon {cert.epsilon!r} is not an exact rational")
    if not (isinstance(cert.diff, tuple) and all(map(_is_rational, cert.diff))):
        problems.append(f"diff {cert.diff!r} is not a tuple of exact rationals")
    if not (isinstance(cert.diff_anchors, tuple) and all(map(_is_anchor, cert.diff_anchors))):
        problems.append(f"diff_anchors {cert.diff_anchors!r} is not a tuple of anchors")
    if not isinstance(cert.fedder, FRegVerdict):
        return [*problems, f"fedder {cert.fedder!r} is not a verdict"]
    verdict = cert.fedder
    if not isinstance(verdict.toric, bool):
        problems.append(f"verdict toric={verdict.toric!r} is not a bool")
    if not (verdict.reason is None or isinstance(verdict.reason, str)):
        problems.append(f"verdict reason {verdict.reason!r} is not a string")
    if not (verdict.e_tried is None or (_is_int(verdict.e_tried) and verdict.e_tried >= 1)):
        problems.append(f"verdict e_tried={verdict.e_tried!r} is not a positive integer")
    fc = verdict.certificate
    if not (fc is None or isinstance(fc, FRegCertificate)):
        problems.append(f"stored witness {fc!r} is not a witness")
    elif fc is not None:
        for name in ("p", "e"):
            if not _is_int(getattr(fc, name)):
                problems.append(f"stored witness {name}={getattr(fc, name)!r} is not an integer")
        for name, label, size in (("a", "exponents", 3), ("witness", "witness monomial", 2)):
            value = getattr(fc, name)
            if not (isinstance(value, tuple) and len(value) == size and all(map(_is_int, value))):
                problems.append(f"stored {label} {value!r} is not {size} integers")
    return problems


def _surgery_problems(graph, cert: GfrCertificate) -> list[str]:
    """Whether B* is the surgery of Bc that the certificate records: the
    chain replacement along gamma0 (plt), or the mix at epsilon with the
    trivial-pairing solve off gamma_prime (non-plt)."""
    bc = cert.bc
    try:
        if cert.case == "plt":
            if cert.epsilon is not None or cert.gamma_prime:
                return ["a plt certificate records a mix"]
            expected = construct_bstar_plt(bc, cert.level, cert.gamma0)
        else:
            eps = cert.epsilon
            if cert.gamma0 or eps is None or eps <= 0:
                return ["a non-plt certificate needs an empty gamma0 and epsilon > 0"]
            expected = _mix(bc, _bsharp(graph, bc, cert.gamma_prime), eps)
    except (PipelineError, ValueError, TypeError) as exc:
        return [f"the recorded surgery cannot be replayed: {exc}"]
    if expected != cert.bstar:
        return ["B* is not the recorded surgery of Bc"]
    return []
