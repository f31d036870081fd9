"""Weighted dual graphs of surface germs and their exact intersection theory.

A graph models the resolution of a normal surface germ: vertices are smooth
rational curves with self-intersection weights, edges carry intersection
multiplicities, and a subset of vertices is marked exceptional (contracted
over the base).  On a resolution every self-intersection and every
multiplicity is an integer, and `DualGraph` rejects any other weight.  A
log pair attaches a boundary coefficient in [0, 1] to every vertex.  All
solves are exact.  The pairing matrix on a set of curves is factored once
per graph shape (the ids with their self-intersections, and the edges) by
one symmetric elimination M = L D L^T (leaves first, so trees cause no
fill-in): its pivots decide negative definiteness, and every
trivial-pairing solve on that set is then an affine map in the fixed
coefficients (`PairingLattice`).  The process-wide memo `_factored` keeps
the last `_LATTICE_BOUND` of them, so graphs parsed apart share one
factorization when their shapes agree.  `label` reads terminal / canonical /
klt / plt / lc off the boundary and the crepant-pullback coefficients;
`classify` solves for those and labels, and only the complement search,
which solves on its own grid, calls `label` itself.

`Fraction`s are the interface of log pairs, `classify` (its `b`) and
`PairingLattice.solve`: coefficient maps come in and results go out as
exact `Fraction`s.  The graph kernels speak integers: the pairing with the
exceptional curves (`dot_against_exceptionals`), the crepant pullback
(`pullback_coefficients`) and the labels (`label`) take and return
numerators over a denominator.  A `LogPair` computes those of its
boundary once, as `den` and `num`; `numerators` gives them for any other
`Fraction` map.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, NamedTuple

from .rationals import format_rational


_LATTICE_BOUND = 512


class GraphError(ValueError):
    pass


class NotNegativeDefiniteError(GraphError):
    pass


def _integer(x, what: str) -> int:
    if type(x) is int:
        return x
    f = Fraction(x)
    if f.denominator != 1:
        raise GraphError(f"{what} must be an integer, got {format_rational(f)}")
    return f.numerator


@dataclass(frozen=True)
class Vertex:
    id: str
    self_int: int
    exceptional: bool


class DualGraph:
    """Immutable intersection graph with integer weights (an integral
    Fraction is stored as an int); no self-loops, symmetric edges."""

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[tuple] = ()):
        vs: dict[str, Vertex] = {}
        for v in vertices:
            if v.id in vs:
                raise GraphError(f"duplicate vertex id {v.id!r}")
            self_int = _integer(v.self_int, f"self-intersection of {v.id!r}")
            vs[v.id] = Vertex(v.id, self_int, bool(v.exceptional))
        adj: dict[str, dict[str, int]] = {vid: {} for vid in vs}
        emap: dict[tuple[str, str], int] = {}
        for u, w, mult in edges:
            if u == w:
                raise GraphError(f"self-loop at {u!r}")
            if u not in vs or w not in vs:
                raise GraphError(f"edge {u!r}-{w!r} references an unknown vertex")
            mult = _integer(mult, f"multiplicity of edge {u!r}-{w!r}")
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
        self._edge_list = tuple((u, w, emap[(u, w)]) for (u, w) in sorted(emap))
        self._ids = tuple(sorted(vs))
        self._exceptional_ids = tuple(v for v in self._ids if vs[v].exceptional)
        self._neighbors = {vid: tuple(sorted(adj[vid].items())) for vid in self._ids}
        # All that a factored lattice reads: the memo key of `lattice`.
        self._shape = (tuple((vid, vs[vid].self_int) for vid in self._ids), self._edge_list)

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def exceptional_ids(self) -> tuple[str, ...]:
        return self._exceptional_ids

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
        return list(self._edge_list)

    def neighbors(self, vid: str) -> tuple[tuple[str, int], ...]:
        """(neighbor id, multiplicity) pairs, sorted by id."""
        try:
            return self._neighbors[vid]
        except KeyError:
            raise GraphError(f"unknown vertex {vid!r}") from None

    def pairing(self, u: str, w: str) -> int:
        """Intersection number of the curve classes u and w."""
        if u == w:
            return self.vertex(u).self_int
        self.vertex(u)
        self.vertex(w)
        return self._edges.get((u, w) if u <= w else (w, u), 0)

    def lattice(self, unknowns: Iterable[str]) -> "PairingLattice":
        """The factored pairing matrix on `unknowns`, built once per graph
        shape and set of curves (`_factored`)."""
        return _factored(self._shape, tuple(sorted(set(unknowns))))


@dataclass(frozen=True)
class LogPair:
    """A dual graph with a boundary coefficient in [0, 1] on every vertex."""

    graph: DualGraph
    coeff: Mapping[str, Fraction]
    # The boundary in integers, as `numerators` gives it, set once below.
    den: int = field(init=False, compare=False, repr=False)
    num: dict[str, int] = field(init=False, compare=False, repr=False)
    # The prime-free half of the certificate pipeline with its verdict
    # (`bstar.surgery`), set once on first use; `reverify_certificate` reads
    # only the verdict, for a certificate of equal prime-free content.
    _surgery: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        full, den = {}, 1
        for vid in self.graph.ids:
            c = self.coeff.get(vid, 0)
            if type(c) is not Fraction:
                c = Fraction(c)
            n, d = c.as_integer_ratio()
            if not 0 <= n <= d:
                raise GraphError(f"coefficient of {vid!r} outside [0, 1]: {c}")
            full[vid] = c
            den = lcm(den, d)
        for vid in self.coeff:
            if vid not in self.graph:
                raise GraphError(f"coefficient for unknown vertex {vid!r}")
        object.__setattr__(self, "coeff", full)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "num", {v: c.numerator * (den // c.denominator) for v, c in full.items()})

    def with_coeff(self, coeff: Mapping[str, Fraction]) -> "LogPair":
        return LogPair(self.graph, coeff)


class Classification(NamedTuple):
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


def _ldl(diag: list, off: dict[int, dict[int, object]]):
    """Exact symmetric elimination P M P^T = L D L^T, without pivoting.

    M is given by its diagonal and its nonzero off-diagonal entries
    (off[i][j] = M[i][j], both triangles).  Each step eliminates a row of
    fewest remaining off-diagonal entries, lowest index first; on a tree
    that is always a leaf, so L has no fill-in.  Returns
    (order, pivots, below): the index eliminated at step t, the pivot D[t],
    and the entries (i, L[i][t]) below it.  A zero pivot (a vanishing
    leading minor in that order) ends the elimination before its step, so
    fewer pivots than rows are returned exactly then.
    """
    diag = list(diag)
    rest = {i: dict(row) for i, row in off.items()}
    order, pivots, below = [], [], []
    while rest:
        k = min(rest, key=lambda i: (len(rest[i]), i))
        row_k = rest.pop(k)
        d = Fraction(diag[k])
        if d == 0:
            break
        col = [(i, x / d) for i, x in row_k.items()]
        order.append(k)
        pivots.append(d)
        below.append(col)
        for i, li in col:
            row_i = rest[i]
            del row_i[k]
            xi = row_k[i]
            diag[i] -= xi * li
            for j, lj in col:
                if j != i:
                    v = row_i.get(j, 0) - xi * lj
                    if v:
                        row_i[j] = v
                    else:
                        row_i.pop(j, None)
    return order, pivots, below


def is_negative_definite(matrix) -> bool:
    """Exact test: every pivot of the symmetric elimination is negative.

    The pivots are ratios of consecutive leading principal minors (in the
    elimination order), so this is Sylvester's criterion; a zero pivot
    ends the test.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise GraphError("matrix is not square")
    m = [[Fraction(x) for x in row] for row in matrix]
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise GraphError("matrix is not symmetric")
    off = {i: {j: x for j, x in enumerate(row) if x and j != i} for i, row in enumerate(m)}
    _order, pivots, _below = _ldl([m[i][i] for i in range(n)], off)
    return len(pivots) == n and all(d < 0 for d in pivots)


class PairingLattice:
    """The pairing matrix M on a set of curves, factored once.

    It answers the trivial-pairing system of `solve`:
    x = M^-1 (r0 - sum_v coeff(v) n_v), where r0_j = -K.E_j and n_v is
    the column of multiplicities of an outside neighbour v against the
    curves.  That is the affine map x = (x0 + sum_v coeff(v) col_v) / den,
    with x0 = den M^-1 r0 and each col_v = -den M^-1 n_v integral
    (`columns` maps v to col_v); the factor solves for them once and is
    then dropped.  Built from a graph's shape (its ids with their
    self-intersections, and its edges) by `_factored`, the memo behind
    `DualGraph.lattice`.
    """

    __slots__ = ("unknowns", "definite", "den", "x0", "columns")

    def __init__(self, shape: tuple, unknowns: tuple[str, ...]):
        selfs, edges = shape
        self_int = dict(selfs)
        n = len(unknowns)
        index = {v: i for i, v in enumerate(unknowns)}
        for v in unknowns:
            if v not in self_int:
                raise GraphError(f"unknown vertex {v!r}")
        diag = [self_int[v] for v in unknowns]
        off: dict[int, dict[int, int]] = {i: {} for i in range(n)}
        outside: dict[str, list] = {}
        for u, w, mult in edges + tuple((w, u, m) for u, w, m in edges):
            if u in index:
                if w in index:
                    off[index[u]][index[w]] = mult
                else:
                    outside.setdefault(w, [0] * n)[index[u]] = -mult
        order, pivots, below = _ldl(diag, off)
        self.unknowns = unknowns
        self.definite = len(pivots) == n and all(d < 0 for d in pivots)
        # x0 stays None when the elimination meets a zero pivot.
        self.den, self.x0, self.columns = 1, None, {}
        if len(pivots) < n:
            return

        def solve(rhs: list) -> list[Fraction]:
            y = list(rhs)
            for k, col in zip(order, below):
                if y[k]:
                    for i, l in col:
                        y[i] -= l * y[k]
            for k, d in zip(order, pivots):
                y[k] /= d
            for k, col in zip(reversed(order), reversed(below)):
                for i, l in col:
                    y[k] -= l * y[i]
            return y

        x0 = solve([2 + v for v in diag])
        cols = {w: solve(rhs) for w, rhs in outside.items()}
        den = lcm(*(x.denominator for c in (x0, *cols.values()) for x in c))
        self.den = den
        self.x0 = tuple(x.numerator * (den // x.denominator) for x in x0)
        self.columns = {
            w: tuple(x.numerator * (den // x.denominator) for x in c) for w, c in cols.items()
        }

    def numerators(self, den: int, num: Mapping[str, int]) -> tuple[int, list[int]]:
        """The solve in integers, for the fixed coefficients given as
        numerators `num` over `den`: a denominator and, for each unknown in
        order, its value times that denominator (not reduced)."""
        if self.x0 is None:
            raise GraphError("singular linear system")
        x = [den * a for a in self.x0]
        for vid, col in self.columns.items():
            k = num.get(vid, 0)
            if k:
                x = [a + k * c for a, c in zip(x, col)]
        return den * self.den, x

    def solve(self, coeff: Mapping[str, Fraction]) -> dict[str, Fraction]:
        """Coefficients on the curves `unknowns` that make
        (K + sum coeff(v) C_v) . E_j = 0 for every E_j in `unknowns`.

        `coeff` is held fixed on every other vertex (a missing vertex counts
        as 0); its values may lie outside [0, 1], and its values on
        `unknowns` are ignored.  Raises GraphError("singular linear system")
        when the elimination meets a zero pivot, that is a vanishing leading
        principal minor; a negative-definite matrix, or a principal
        submatrix of one, never has one.
        """
        den, x = self.numerators(*numerators(coeff))
        return {u: Fraction(a, den) for u, a in zip(self.unknowns, x)}


@functools.lru_cache(maxsize=_LATTICE_BOUND)
def _factored(shape: tuple, unknowns: tuple[str, ...]) -> PairingLattice:
    """The lattice of `PairingLattice(shape, unknowns)`, a pure function of
    its arguments, so graphs of one shape share it."""
    return PairingLattice(shape, unknowns)


def pullback_coefficients(pair: LogPair) -> tuple[int, dict[str, int]]:
    """Solve (K + sum b_i E_i + non-exceptional boundary) . E_j = 0 for all j:
    a denominator, and the numerator of each b_E over it.

    Uniqueness needs the exceptional lattice to be negative definite; each
    discrepancy is a_E = -b_E.
    """
    lattice = pair.graph.lattice(pair.graph.exceptional_ids)
    if not lattice.definite:
        raise NotNegativeDefiniteError(
            "exceptional intersection lattice is not negative definite"
        )
    den, x = lattice.numerators(pair.den, pair.num)
    return den, dict(zip(lattice.unknowns, x))


def classify(pair: LogPair) -> Classification:
    """Singularity class of the germ modeled by the pair."""
    return label(pair.graph, pair.den, pair.num, *pullback_coefficients(pair))


def numerators(coeff: Mapping[str, Fraction]) -> tuple[int, dict[str, int]]:
    """The lcm D of the denominators of the values, and each value times D."""
    ratios = [c.as_integer_ratio() for c in coeff.values()]
    den = lcm(*{d for _n, d in ratios})
    return den, dict(zip(coeff, [n * (den // d) for n, d in ratios]))


def label(graph: DualGraph, cden: int, c: dict, bden: int, bn: dict) -> Classification:
    """Singularity class from the boundary on every vertex, numerators `c`
    over `cden`, and the crepant-pullback coefficients on the exceptional
    curves, numerators `bn` over `bden`.  The classification keeps the
    latter as `Fraction`s (its `b`), built here once.

    A vertex that carries coefficient 1 in the boundary is a marked log
    canonical center; a solved b = 1 there does not spoil plt-ness (the
    pair on the model keeps that curve reduced), whereas an unmarked b = 1
    does.  c_u + c_w < 1 reads c[u] + c[w] < cden.
    """
    ones = [v for v, n in c.items() if n == cden]
    coeff_lt1 = not ones and max(c.values(), default=0) < cden
    ones_adjacent = False
    point_mult_ok = crossings_ok = True
    for u, w, _m in graph._edge_list:
        total = c[u] + c[w]
        if total >= cden:
            point_mult_ok = False
            ones_adjacent = ones_adjacent or c[u] == c[w] == cden
            # Blowing up a crossing of two non-exceptional curves gives
            # discrepancy 1 - c_u - c_w; a crossing on an exceptional curve
            # with b <= 0 gives at least 1 - c >= 0.
            if total > cden and u not in bn and w not in bn:
                crossings_ok = False
    # The largest b (largest id among equals) decides the four bounds on b.
    max_v = max(bn, key=lambda j: (bn[j], j)) if bn else None
    top = -1 if max_v is None else bn[max_v]
    all_b_lt1 = top < bden
    all_b_le1 = top <= bden
    plt_b_ok = all_b_lt1 or all(n < bden or (n == bden and c[j] == cden) for j, n in bn.items())

    is_terminal = top < 0 and coeff_lt1 and point_mult_ok
    is_canonical = top <= 0 and crossings_ok
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

    centers = sorted(ones)
    if top >= bden:
        centers += sorted(j for j, n in bn.items() if n == bden and j not in ones)
    b = {j: Fraction(n, bden) for j, n in bn.items()}
    return Classification(
        label=name,
        b=b,
        max_b=None if max_v is None else b[max_v],
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
        for idx in range(mult):
            out.append(((nbr, idx), pair.coeff[nbr]))
    return out


def dot_against_exceptionals(graph: DualGraph, den: int, num: Mapping[str, int]) -> dict[str, int]:
    """Pairing of K + sum (num(v) / den) C_v with each exceptional curve,
    times den (a missing vertex counts as 0)."""
    out = {}
    for j in graph.exceptional_ids:
        self_int = graph._vertices[j].self_int
        val = (-2 - self_int) * den + num.get(j, 0) * self_int
        for nbr, mult in graph._neighbors[j]:
            val += num.get(nbr, 0) * mult
        out[j] = val
    return out
