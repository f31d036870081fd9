"""Reference bodies of the exact kernels, written in `Fraction` arithmetic,
and the graph helpers that only tests use.

`graphs`, `complements` and `rationals` compute these on integer numerators
over a common denominator; the formulas below are the `Fraction` versions
they replaced, kept unchanged so that tests can require equal results.
`fraction_dots` and `fraction_pullback` are no references: they call the
`graphs` kernels on `Fraction` maps, for tests that check those kernels on
hand examples.
"""

import math
from fractions import Fraction

from frsurf.complements import LEVELS, ComplementReport
from frsurf.graphs import (
    Classification,
    DualGraph,
    GraphError,
    NotNegativeDefiniteError,
    Vertex,
    diff_on_component,
    dot_against_exceptionals as dots_kernel,
    numerators,
    pullback_coefficients,
)


def fraction_dots(graph, coeff=None):
    """`graphs.dot_against_exceptionals` on a `Fraction` map, as `Fraction`s."""
    den, num = numerators(coeff or {})
    return {j: Fraction(n, den) for j, n in dots_kernel(graph, den, num).items()}


def fraction_pullback(pair):
    """`graphs.pullback_coefficients` as a map to `Fraction`s."""
    den, b = pullback_coefficients(pair)
    return {u: Fraction(n, den) for u, n in b.items()}


def intersection_matrix(graph, subset=None):
    """Symmetric pairing matrix over sorted(subset) (all vertices if None)."""
    ids = graph.ids if subset is None else tuple(sorted(subset))
    for vid in ids:
        graph.vertex(vid)
    return [[graph.pairing(u, w) for w in ids] for u in ids]


def canonical_dot(graph, vid):
    """K . C for a rational curve C: adjunction gives -2 - C^2."""
    return -2 - graph.vertex(vid).self_int


def adjunction_degree(pair, component):
    """Sum of the induced coefficients along an exceptional reduced curve.

    When K + B pairs to zero against the curve, the sum must equal 2;
    returns (sum, sum == 2).
    """
    if not pair.graph.vertex(component).exceptional:
        raise GraphError(f"{component!r} is not exceptional")
    total = sum((val for _a, val in diff_on_component(pair, component)), Fraction(0))
    return total, total == 2


def _tree(adjacency: dict[str, list[str]]) -> DualGraph:
    ids = sorted(set(adjacency) | {w for ws in adjacency.values() for w in ws})
    vs = [Vertex(i, -2, True) for i in ids]
    es = []
    seen = set()
    for u, ws in adjacency.items():
        for w in ws:
            key = (u, w) if u <= w else (w, u)
            if key not in seen:
                seen.add(key)
                es.append((u, w, 1))
    return DualGraph(vs, es)


def ade_graph(kind: str, n: int = 0) -> DualGraph:
    """Du Val dual graph: all (-2)-curves, kind in A/D/E."""
    if kind == "A":
        return _tree({f"v{i}": [f"v{i+1}"] for i in range(1, n)} if n > 1 else {"v1": []})
    if kind == "D":
        if n < 4:
            raise ValueError("D_n needs n >= 4")
        adj = {f"v{i}": [f"v{i+1}"] for i in range(1, n - 2)}
        adj[f"v{n-2}"] = adj.get(f"v{n-2}", []) + [f"v{n-1}", f"v{n}"]
        return _tree(adj)
    if kind == "E":
        if n not in (6, 7, 8):
            raise ValueError("E_n needs n in {6, 7, 8}")
        spine = n - 1
        adj = {f"v{i}": [f"v{i+1}"] for i in range(1, spine)}
        adj["b"] = ["v3"]
        return _tree(adj)
    raise ValueError(f"unknown kind {kind!r}")


def affine_ade_graph(kind: str, n: int = 0) -> DualGraph:
    """One extra (-2)-curve making the lattice degenerate (determinant 0)."""
    if kind == "A":
        if n == 1:
            # two (-2)-curves meeting twice
            return DualGraph(
                [Vertex("v1", -2, True), Vertex("v2", -2, True)], [("v1", "v2", 2)]
            )
        adj = {f"v{i}": [f"v{i+1}"] for i in range(1, n + 1)}
        adj[f"v{n+1}"] = ["v1"]  # close the cycle
        return _tree(adj)
    if kind == "D":
        if n < 4:
            raise ValueError("affine D_n needs n >= 4")
        adj = {f"v{i}": [f"v{i+1}"] for i in range(1, n - 2)}
        adj[f"v{n-2}"] = adj.get(f"v{n-2}", []) + [f"v{n-1}", f"v{n}"]
        adj["w1"] = ["v2"]  # second fork, giving the degenerate diagram
        return _tree(adj)
    if kind == "E":
        if n == 6:
            adj = {f"v{i}": [f"v{i+1}"] for i in range(1, 5)}
            adj["b"] = ["v3"]
            adj["b2"] = ["b"]
            return _tree(adj)
        if n == 7:
            adj = {f"v{i}": [f"v{i+1}"] for i in range(1, 7)}
            adj["b"] = ["v4"]
            return _tree(adj)
        if n == 8:
            adj = {f"v{i}": [f"v{i+1}"] for i in range(1, 8)}
            adj["b"] = ["v3"]
            return _tree(adj)
        raise ValueError("affine E_n needs n in {6, 7, 8}")
    raise ValueError(f"unknown kind {kind!r}")


def blowup_chain(n: int) -> DualGraph:
    """Tower over a smooth point: (-2, ..., -2, -1), the (-1)-curve last."""
    vs = [Vertex(f"v{i}", -2 if i < n else -1, True) for i in range(1, n + 1)]
    es = [(f"v{i}", f"v{i+1}", 1) for i in range(1, n)]
    return DualGraph(vs, es)



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
    """`complements.verify_complement` in `Fraction`s, with the dominance,
    integrality and floor-bound checks above."""
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
