"""Reference bodies of the exact kernels, written in `Fraction` arithmetic.

`graphs`, `complements` and `rationals` compute these on integer numerators
over a common denominator; the formulas below are the `Fraction` versions
they replaced, kept unchanged so that tests can require equal results.
"""

import math
from fractions import Fraction

from frsurf.complements import LEVELS, ComplementReport
from frsurf.graphs import GraphError, NotNegativeDefiniteError, canonical_dot
from frsurf.graphs import Classification


def log_pair_coeff(graph, coeff):
    """The coefficient map `LogPair` keeps, or the GraphError it raises."""
    full = {}
    for vid in graph.ids:
        full[vid] = Fraction(coeff.get(vid, 0))
        if not 0 <= full[vid] <= 1:
            raise GraphError(f"coefficient of {vid!r} outside [0, 1]: {full[vid]}")
    for vid in coeff:
        if vid not in graph:
            raise GraphError(f"coefficient for unknown vertex {vid!r}")
    return full


def solve(lattice, coeff):
    """`PairingLattice.solve`."""
    if lattice.x0 is None:
        raise GraphError("singular linear system")
    x = lattice.x0
    for vid, col in lattice.columns.items():
        c = coeff.get(vid, 0)
        if c:
            x = [a + c * b for a, b in zip(x, col)]
    return {u: Fraction(a, lattice.den) for u, a in zip(lattice.unknowns, x)}


def dot_against_exceptionals(graph, coeff=None):
    """Pairing of K + sum coeff(v) . C_v with each exceptional curve."""
    coeff = coeff or {}
    out = {}
    for j in graph.exceptional_ids:
        val = Fraction(canonical_dot(graph, j))
        cj = Fraction(coeff.get(j, 0))
        if cj:
            val += cj * graph.vertex(j).self_int
        for nbr, mult in graph.neighbors(j):
            c = Fraction(coeff.get(nbr, 0))
            if c:
                val += c * mult
        out[j] = val
    return out


def label(graph, coeff, b):
    """`graphs.label`."""
    edges = graph.edges()
    ones = {v for v, c in coeff.items() if c == 1}
    ones_adjacent = any(u in ones and w in ones for (u, w, _m) in edges)
    coeff_lt1 = all(c < 1 for c in coeff.values())
    all_b_neg = all(v < 0 for v in b.values())
    all_b_le0 = all(v <= 0 for v in b.values())
    all_b_lt1 = all(v < 1 for v in b.values())
    all_b_le1 = all(v <= 1 for v in b.values())
    plt_b_ok = all(v < 1 or (v == 1 and coeff[j] == 1) for j, v in b.items())
    point_mult_ok = all(coeff[u] + coeff[w] < 1 for (u, w, _m) in edges)
    # Blowing up a crossing of two non-exceptional curves gives discrepancy
    # 1 - c_u - c_w; a crossing on an exceptional curve with b <= 0 gives
    # at least 1 - c >= 0.
    crossings_ok = all(
        coeff[u] + coeff[w] <= 1 for (u, w, _m) in edges if u not in b and w not in b
    )

    is_terminal = all_b_neg and coeff_lt1 and point_mult_ok
    is_canonical = all_b_le0 and crossings_ok
    is_klt = all_b_lt1 and coeff_lt1
    is_plt = plt_b_ok and all_b_le1 and not ones_adjacent
    is_lc = all_b_le1

    if is_terminal:
        name = "terminal"
    elif is_canonical:
        name = "canonical"
    elif is_klt:
        name = "klt"
    elif is_plt:
        name = "plt"
    elif is_lc:
        name = "lc"
    else:
        name = "not_lc"

    max_b = max_v = None
    if b:
        max_v = max(b, key=lambda j: (b[j], j))
        max_b = b[max_v]
    centers = sorted(ones) + sorted(j for j, v in b.items() if v == 1 and j not in ones)
    return Classification(
        label=name,
        b=b,
        max_b=max_b,
        max_b_vertex=max_v,
        lc_centers=tuple(centers),
        is_terminal=is_terminal,
        is_canonical=is_canonical,
        is_klt=is_klt,
        is_plt=is_plt,
        is_lc=is_lc,
    )


def classify(pair):
    """`graphs.classify`: the crepant pullback by `solve`, then `label`."""
    lattice = pair.graph.lattice(pair.graph.exceptional_ids)
    if not lattice.definite:
        raise NotNegativeDefiniteError(
            "exceptional intersection lattice is not negative definite"
        )
    return label(pair.graph, pair.coeff, solve(lattice, pair.coeff))


def grid(level, b):
    """`complements._grid`."""
    return range(max(math.ceil(level * b), math.floor((level + 1) * b)), level + 1)


def is_standard(c):
    """`rationals.is_standard`."""
    c = Fraction(c)
    if c < 0 or c > 1:
        raise ValueError(f"coefficient out of range [0, 1]: {c}")
    return c == 1 or c.numerator == c.denominator - 1


def verify_complement(pair, bc, level):
    """`complements.verify_complement`, which always classified by the full
    solve, with the dominance, integrality and floor-bound checks above."""
    graph = pair.graph
    if set(bc) != set(graph.ids):
        raise GraphError("complement vector must cover exactly the graph's vertices")
    bc = {v: Fraction(c) for v, c in bc.items()}
    b = pair.coeff
    checks: dict[str, bool] = {}
    details: list[str] = []

    checks["level"] = level in LEVELS
    if not checks["level"]:
        details.append(f"level {level} is not in {{{','.join(map(str, LEVELS))}}}")

    bad = sorted(v for v in bc if bc[v] < b[v])
    checks["dominates"] = not bad
    if bad:
        details.append("complement drops below the boundary at " + ", ".join(bad))

    bad = sorted(v for v in bc if (level * bc[v]).denominator != 1)
    checks["integral"] = not bad
    if bad:
        details.append(f"{level} * coefficient not integral at " + ", ".join(bad))

    dots = dot_against_exceptionals(graph, bc)
    bad = sorted(j for j, val in dots.items() if val != 0)
    checks["trivial_pairing"] = not bad
    if bad:
        details.append("(K + Bc) pairs nonzero against " + ", ".join(bad))

    try:
        cls = classify(pair.with_coeff(bc))
        checks["lc_not_klt"] = cls.is_lc and not cls.is_klt
        if not checks["lc_not_klt"]:
            details.append(f"pair with Bc classifies {cls.label}, need lc but not klt")
    except GraphError as exc:
        cls = None
        checks["lc_not_klt"] = False
        details.append(f"classification failed: {exc}")

    bad = sorted(v for v in bc if level * bc[v] < math.floor((level + 1) * b[v]))
    checks["floor_bound"] = not bad
    if bad:
        details.append(
            f"{level}*Bc < floor({level + 1}*B) at " + ", ".join(bad)
        )

    return ComplementReport(checks=checks, details=tuple(details), classification=cls)
