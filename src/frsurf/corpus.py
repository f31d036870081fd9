"""Germ corpus: engineered families plus a seeded randomized generator.

The engineered germs realize each complement type the pipeline must handle:
plt fork centers at every level in {2, 3, 4, 6}, plt complements whose
center is a non-exceptional curve germ, and non-plt chains at levels 1 and
2.  The randomized generator produces small negative-definite germs with
standard coefficients that satisfy the search hypotheses (klt, -(K+B) nef
over the base); complements may or may not exist on them.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .complements import ComplementHypothesisError, _require_hypotheses
from .graphs import DualGraph, GraphError, LogPair, Vertex

F = Fraction

STANDARD_POOL = (F(0), F(1, 2), F(2, 3), F(3, 4), F(4, 5), F(5, 6))


def _pair(vertices, edges, coeff):
    return LogPair(DualGraph(vertices, edges), coeff)


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


def a1_tail(boundary=None) -> LogPair:
    """A1 germ with a transversal carrier curve."""
    return _pair(
        [Vertex("E", -2, True), Vertex("L", 0, False)],
        [("E", "L", 1)],
        boundary or {},
    )


def chain_tail(n: int, boundary=None) -> LogPair:
    """A_n chain of (-2)-curves with a transversal at one end."""
    vs = [Vertex(f"E{i}", -2, True) for i in range(1, n + 1)]
    vs.append(Vertex("L", 0, False))
    es = [(f"E{i}", f"E{i+1}", 1) for i in range(1, n)]
    es.append((f"E{n}", "L", 1))
    return _pair(vs, es, boundary or {})


def plt_fork_level2() -> LogPair:
    """Fork whose minimal complement is the four-half-points case at level 2."""
    vs = [
        Vertex("C", -3, True),
        Vertex("A1", -2, True),
        Vertex("A2", -2, True),
        Vertex("A3", -2, True),
        Vertex("D", -1, True),
        Vertex("L", 0, False),
    ]
    es = [("C", "A1", 1), ("C", "A2", 1), ("C", "A3", 1), ("C", "D", 1), ("D", "L", 1)]
    b = {"C": F(5, 6), "A1": F(1, 2), "A2": F(1, 2), "A3": F(1, 2)}
    return _pair(vs, es, b)


def plt_fork_level3() -> LogPair:
    """Fork realizing the (2/3, 2/3, 2/3) different at level 3."""
    vs = [
        Vertex("C", -2, True),
        Vertex("A", -3, True),
        Vertex("B", -3, True),
        Vertex("D", -2, True),
        Vertex("L", 0, False),
    ]
    es = [("C", "A", 1), ("C", "B", 1), ("C", "D", 1), ("D", "L", 1)]
    b = {"C": F(11, 12), "A": F(2, 3), "B": F(2, 3), "D": F(1, 2)}
    return _pair(vs, es, b)


def plt_fork_level4() -> LogPair:
    """Fork realizing the (1/2, 3/4, 3/4) different at level 4."""
    vs = [
        Vertex("C", -2, True),
        Vertex("A", -2, True),
        Vertex("B", -4, True),
        Vertex("D", -2, True),
        Vertex("L", 0, False),
    ]
    es = [("C", "A", 1), ("C", "B", 1), ("C", "D", 1), ("D", "L", 1)]
    b = {"C": F(11, 12), "A": F(1, 2), "B": F(3, 4), "D": F(1, 2)}
    return _pair(vs, es, b)


def plt_fork_level6() -> LogPair:
    """Fork realizing the (1/2, 2/3, 5/6) different at level 6."""
    vs = [
        Vertex("C", -2, True),
        Vertex("A", -2, True),
        Vertex("B", -3, True),
        Vertex("D", -3, True),
        Vertex("L", 0, False),
    ]
    es = [("C", "A", 1), ("C", "B", 1), ("C", "D", 1), ("D", "L", 1)]
    b = {"C": F(11, 12), "A": F(1, 2), "B": F(2, 3), "D": F(2, 3)}
    return _pair(vs, es, b)


def nonplt_fork() -> LogPair:
    """Fork whose minimal complement is non-plt at level 2."""
    vs = [
        Vertex("C", -2, True),
        Vertex("E1", -2, True),
        Vertex("E2", -2, True),
        Vertex("E3", -2, True),
        Vertex("L1", 0, False),
        Vertex("L2", 0, False),
        Vertex("L3", 0, False),
    ]
    es = [
        ("C", "E1", 1),
        ("C", "E2", 1),
        ("C", "E3", 1),
        ("E1", "L1", 1),
        ("E2", "L2", 1),
        ("E3", "L3", 1),
    ]
    b = {"C": F(3, 4), "E1": F(1, 2), "E2": F(1, 2), "E3": F(1, 2)}
    return _pair(vs, es, b)


def nonplt_line() -> LogPair:
    """Two carrier curves through one (-2)-curve: non-plt complement at level 1."""
    vs = [Vertex("E", -2, True), Vertex("L1", 0, False), Vertex("L2", 0, False)]
    es = [("E", "L1", 1), ("E", "L2", 1)]
    return _pair(vs, es, {})


def nonplt_h() -> LogPair:
    """Two adjacent exceptional curves, each with two half-coefficient tails.

    The minimal complement puts coefficient 1 on both exceptional curves, so
    the reduced chain is a 2-chain with an exceptional center after the
    re-choice.
    """
    vs = [
        Vertex("E1", -2, True),
        Vertex("E2", -2, True),
        Vertex("L1a", 0, False),
        Vertex("L1b", 0, False),
        Vertex("L2a", 0, False),
        Vertex("L2b", 0, False),
    ]
    es = [
        ("E1", "E2", 1),
        ("E1", "L1a", 1),
        ("E1", "L1b", 1),
        ("E2", "L2a", 1),
        ("E2", "L2b", 1),
    ]
    return _pair(vs, es, {})


def deliberate_families() -> list[tuple[str, LogPair]]:
    return [
        ("a1_tail", a1_tail()),
        ("a1_tail_half", a1_tail({"E": F(1, 2), "L": F(1, 2)})),
        ("a2_tail", chain_tail(2)),
        ("a3_tail", chain_tail(3)),
        ("plt_fork_level2", plt_fork_level2()),
        ("plt_fork_level3", plt_fork_level3()),
        ("plt_fork_level4", plt_fork_level4()),
        ("plt_fork_level6", plt_fork_level6()),
        ("nonplt_fork", nonplt_fork()),
        ("nonplt_line", nonplt_line()),
        ("nonplt_h", nonplt_h()),
    ]


def _random_candidate(rng: random.Random) -> LogPair:
    kind = rng.choice(("chain", "chain", "fork", "family_jitter"))
    if kind == "family_jitter":
        name, base = rng.choice(deliberate_families())
        coeff = dict(base.coeff)
        # jitter one tail coefficient downward within the standard pool
        tails = [v for v in base.graph.ids if not base.graph.vertex(v).exceptional]
        if tails:
            v = rng.choice(tails)
            coeff[v] = rng.choice((F(0), F(1, 2)))
        return LogPair(base.graph, coeff)
    n = rng.randint(1, 4)
    selfs = [rng.choice((-1, -2, -2, -2, -3)) for _ in range(n)]
    vs = [Vertex(f"E{i}", selfs[i - 1], True) for i in range(1, n + 1)]
    es = []
    if kind == "chain":
        es = [(f"E{i}", f"E{i+1}", 1) for i in range(1, n)]
    else:
        es = [("E1", f"E{i}", 1) for i in range(2, n + 1)]
    n_tails = rng.randint(1, 2)
    for t in range(1, n_tails + 1):
        anchor = rng.choice([v.id for v in vs if v.exceptional])
        vs.append(Vertex(f"L{t}", 0, False))
        if (anchor, f"L{t}") not in [(u, w) for u, w, _ in es]:
            es.append((anchor, f"L{t}", 1))
    coeff = {}
    for v in vs:
        if rng.random() < 0.4:
            coeff[v.id] = rng.choice(STANDARD_POOL)
    return _pair(vs, es, coeff)


def _admissible(pair: LogPair) -> bool:
    try:
        _require_hypotheses(pair)
    except ComplementHypothesisError:
        return False
    return True


def random_corpus(seed: int, count: int) -> list[LogPair]:
    """Deterministic corpus of germs satisfying the search hypotheses."""
    rng = random.Random(seed)
    out = [pair for _name, pair in deliberate_families()]
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 100000:
            raise RuntimeError("corpus generator stalled")
        try:
            cand = _random_candidate(rng)
        except GraphError:
            continue
        if _admissible(cand):
            out.append(cand)
    return out[:count]
