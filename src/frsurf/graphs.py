"""Weighted dual graphs of surface germs and their exact intersection theory.

A graph models the resolution of a normal surface germ: vertices are smooth
rational curves with self-intersection weights, edges carry intersection
multiplicities, and a subset of vertices is marked exceptional (contracted
over the base).  A log pair attaches a boundary coefficient in [0, 1] to
every vertex.  All solves are exact; negative definiteness is decided by
fraction-free (Bareiss) elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from .rationals import format_rational


class GraphError(ValueError):
    pass


class NotNegativeDefiniteError(GraphError):
    pass


def _as_weight(x):
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


@dataclass(frozen=True)
class Vertex:
    id: str
    self_int: int | Fraction
    exceptional: bool


class DualGraph:
    """Immutable weighted intersection graph; no self-loops, symmetric edges."""

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[tuple] = ()):
        vs: dict[str, Vertex] = {}
        for v in vertices:
            if v.id in vs:
                raise GraphError(f"duplicate vertex id {v.id!r}")
            vs[v.id] = Vertex(v.id, _as_weight(v.self_int), bool(v.exceptional))
        adj: dict[str, dict] = {vid: {} for vid in vs}
        emap: dict[tuple[str, str], object] = {}
        for u, w, mult in edges:
            if u == w:
                raise GraphError(f"self-loop at {u!r}")
            if u not in vs or w not in vs:
                raise GraphError(f"edge {u!r}-{w!r} references an unknown vertex")
            mult = _as_weight(mult)
            if mult <= 0:
                raise GraphError(f"edge {u!r}-{w!r} must have positive multiplicity")
            key = (u, w) if u <= w else (w, u)
            if key in emap:
                raise GraphError(f"duplicate edge {key[0]!r}-{key[1]!r}")
            emap[key] = mult
            adj[u][w] = mult
            adj[w][u] = mult
        self._vertices = vs
        self._edges = emap
        self._adj = adj

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._vertices))

    @property
    def exceptional_ids(self) -> tuple[str, ...]:
        return tuple(v for v in self.ids if self._vertices[v].exceptional)

    def vertex(self, vid: str) -> Vertex:
        try:
            return self._vertices[vid]
        except KeyError:
            raise GraphError(f"unknown vertex {vid!r}") from None

    def __contains__(self, vid: str) -> bool:
        return vid in self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def edges(self):
        """Edges as (u, w, mult), sorted."""
        return [(u, w, self._edges[(u, w)]) for (u, w) in sorted(self._edges)]

    def neighbors(self, vid: str):
        self.vertex(vid)
        return sorted(self._adj[vid].items())

    def pairing(self, u: str, w: str):
        """Intersection number of the curve classes u and w."""
        if u == w:
            return self.vertex(u).self_int
        self.vertex(u)
        self.vertex(w)
        return self._adj[u].get(w, 0)


@dataclass(frozen=True)
class LogPair:
    """A dual graph with a boundary coefficient in [0, 1] on every vertex."""

    graph: DualGraph
    coeff: Mapping[str, Fraction]

    def __post_init__(self):
        full = {}
        for vid in self.graph.ids:
            full[vid] = Fraction(self.coeff.get(vid, 0))
            if not 0 <= full[vid] <= 1:
                raise GraphError(f"coefficient of {vid!r} outside [0, 1]: {full[vid]}")
        for vid in self.coeff:
            if vid not in self.graph:
                raise GraphError(f"coefficient for unknown vertex {vid!r}")
        object.__setattr__(self, "coeff", full)

    def with_coeff(self, coeff: Mapping[str, Fraction]) -> "LogPair":
        return LogPair(self.graph, coeff)


@dataclass(frozen=True)
class PullbackSolution:
    """Crepant-pullback coefficients b on the exceptional curves; a = -b."""

    b: dict[str, Fraction]
    a: dict[str, Fraction]


@dataclass(frozen=True)
class Classification:
    label: str
    b: dict[str, Fraction]
    max_b: Fraction | None
    max_b_vertex: str | None
    lc_centers: tuple[str, ...]
    is_terminal: bool
    is_canonical: bool
    is_klt: bool
    is_plt: bool
    is_lc: bool


def intersection_matrix(graph: DualGraph, subset=None) -> list[list]:
    """Symmetric pairing matrix over sorted(subset) (all vertices if None)."""
    ids = graph.ids if subset is None else tuple(sorted(subset))
    for vid in ids:
        graph.vertex(vid)
    return [[graph.pairing(u, w) for w in ids] for u in ids]


def is_negative_definite(matrix) -> bool:
    """Exact test: all leading principal minors of -M positive.

    Denominators are cleared with a positive scale (signs of minors are
    unchanged), then Bareiss fraction-free elimination produces the minors
    as pivots; a nonpositive pivot ends the test.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise GraphError("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if Fraction(matrix[i][j]) != Fraction(matrix[j][i]):
                raise GraphError("matrix is not symmetric")
    if n == 0:
        return True
    scale = 1
    for row in matrix:
        for x in row:
            scale = lcm(scale, Fraction(x).denominator)
    m = [[int(Fraction(-x) * scale) for x in row] for row in matrix]
    prev = 1
    for k in range(n):
        piv = m[k][k]
        if piv <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * piv - m[i][k] * m[k][j]) // prev
        prev = piv
    return True


def canonical_dot(graph: DualGraph, vid: str):
    """K . C for a rational curve C: adjunction gives -2 - C^2."""
    return _as_weight(-2 - Fraction(graph.vertex(vid).self_int))


def _solve_linear(matrix, rhs) -> list[Fraction]:
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise GraphError("singular linear system")
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / pv
                for c in range(col, n + 1):
                    m[r][c] -= f * m[col][c]
    return [m[i][n] / m[i][i] for i in range(n)]


def solve_trivial_pairing(
    graph: DualGraph, coeff: Mapping[str, Fraction], unknowns: Iterable[str]
) -> dict[str, Fraction]:
    """Coefficients on the exceptional curves `unknowns` that make
    (K + sum coeff(v) C_v) . E_j = 0 for every E_j in `unknowns`.

    `coeff` is held fixed on every other vertex (a missing vertex counts as
    0); its values may lie outside [0, 1], and its values on `unknowns` are
    ignored.  The system's matrix is the pairing matrix on `unknowns`.
    """
    unknowns = tuple(sorted(unknowns))
    if not unknowns:
        return {}
    solving = set(unknowns)
    rhs = []
    for j in unknowns:
        val = -Fraction(canonical_dot(graph, j))
        for nbr, mult in graph.neighbors(j):
            if nbr not in solving:
                val -= coeff.get(nbr, 0) * mult
        rhs.append(val)
    return dict(zip(unknowns, _solve_linear(intersection_matrix(graph, unknowns), rhs)))


def pullback_coefficients(pair: LogPair) -> PullbackSolution:
    """Solve (K + sum b_i E_i + non-exceptional boundary) . E_j = 0 for all j.

    Uniqueness needs the exceptional lattice to be negative definite; each
    discrepancy is a_E = -b_E.
    """
    graph = pair.graph
    exc = graph.exceptional_ids
    if not is_negative_definite(intersection_matrix(graph, exc)):
        raise NotNegativeDefiniteError(
            "exceptional intersection lattice is not negative definite"
        )
    b = solve_trivial_pairing(graph, pair.coeff, exc)
    return PullbackSolution(b=b, a={k: -v for k, v in b.items()})


def classify(pair: LogPair) -> Classification:
    """Singularity class of the germ modeled by the pair.

    b is the crepant-pullback solution from the non-exceptional boundary.
    A vertex that carries coefficient 1 in the boundary is a marked log
    canonical center; a solved b = 1 there does not spoil plt-ness (the
    pair on the model keeps that curve reduced), whereas an unmarked b = 1
    does.
    """
    graph = pair.graph
    sol = pullback_coefficients(pair)
    b = sol.b
    coeff = pair.coeff
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
        label = "terminal"
    elif is_canonical:
        label = "canonical"
    elif is_klt:
        label = "klt"
    elif is_plt:
        label = "plt"
    elif is_lc:
        label = "lc"
    else:
        label = "not_lc"

    max_b = max_v = None
    if b:
        max_v = max(b, key=lambda j: (b[j], j))
        max_b = b[max_v]
    centers = sorted(ones) + sorted(j for j, v in b.items() if v == 1 and j not in ones)
    return Classification(
        label=label,
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


def diff_on_component(pair: LogPair, component: str):
    """Boundary induced on a reduced component by adjunction.

    On a smooth model with transverse crossings the induced coefficient at
    each intersection point equals the meeting component's coefficient; an
    edge of multiplicity m contributes m separate anchors.  Anchors are
    (neighbor id, index) in deterministic order.
    """
    if pair.coeff[component] != 1:
        raise GraphError(
            f"the different is taken along a coefficient-1 component, "
            f"but {component!r} has coefficient {format_rational(pair.coeff[component])}"
        )
    out = []
    for nbr, mult in pair.graph.neighbors(component):
        if Fraction(mult).denominator != 1:
            raise GraphError("different needs integral intersection multiplicities")
        for idx in range(int(mult)):
            out.append(((nbr, idx), pair.coeff[nbr]))
    return out


def adjunction_degree(pair: LogPair, component: str):
    """Sum of the induced coefficients along an exceptional reduced curve.

    When K + B pairs to zero against the curve, the sum must equal 2;
    returns (sum, sum == 2).
    """
    if not pair.graph.vertex(component).exceptional:
        raise GraphError(f"{component!r} is not exceptional")
    total = sum((val for _a, val in diff_on_component(pair, component)), Fraction(0))
    return total, total == 2


def dot_against_exceptionals(
    graph: DualGraph, coeff: Mapping[str, Fraction] | None = None
) -> dict[str, Fraction]:
    """Pairing of K + sum coeff(v) . C_v with each exceptional curve."""
    coeff = coeff or {}
    out = {}
    for j in graph.exceptional_ids:
        val = Fraction(canonical_dot(graph, j))
        cj = Fraction(coeff.get(j, 0))
        if cj:
            val += cj * Fraction(graph.vertex(j).self_int)
        for nbr, mult in graph.neighbors(j):
            c = Fraction(coeff.get(nbr, 0))
            if c:
                val += c * mult
        out[j] = val
    return out


def anti_nef_over_base(dots: Mapping[str, Fraction]) -> bool:
    return all(v <= 0 for v in dots.values())


def contract_vertex(graph: DualGraph, vid: str) -> DualGraph:
    """Blow down one curve of negative self-intersection.

    The remaining pairings are updated by (u.w)' = u.w - (u.v)(w.v)/(v.v),
    which stays exact but may leave rational weights.
    """
    v = graph.vertex(vid)
    s = Fraction(v.self_int)
    if s >= 0:
        raise GraphError(
            f"only a curve of negative self-intersection contracts, "
            f"{vid!r} has {format_rational(s)}"
        )
    rest = [u for u in graph.ids if u != vid]
    vertices = []
    for u in rest:
        corr = Fraction(graph.pairing(u, vid)) ** 2 / s
        vertices.append(
            Vertex(u, _as_weight(Fraction(graph.vertex(u).self_int) - corr), graph.vertex(u).exceptional)
        )
    edges = []
    for i, u in enumerate(rest):
        for w in rest[i + 1 :]:
            new = Fraction(graph.pairing(u, w)) - Fraction(graph.pairing(u, vid)) * Fraction(
                graph.pairing(w, vid)
            ) / s
            if new != 0:
                edges.append((u, w, _as_weight(new)))
    return DualGraph(vertices, edges)


def terminalization_support(pair: LogPair) -> dict[str, Fraction]:
    """Exceptional curves kept on the terminal model, with their coefficients.

    These are exactly the divisors with b_E >= 0 (equivalently discrepancy
    a_E <= 0); each survives with boundary coefficient b_E in [0, 1).
    """
    cls = classify(pair)
    if not cls.is_klt:
        raise GraphError(f"terminalization needs a klt pair, classified {cls.label}")
    return {j: v for j, v in cls.b.items() if v >= 0}
