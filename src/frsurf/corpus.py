"""Germ corpus: engineered families plus a seeded randomized generator.

The engineered germs realize each complement type the pipeline must handle:
plt fork centers at every level in {2, 3, 4, 6}, plt complements whose
center is a non-exceptional curve germ, and non-plt chains at levels 1 and
2.  They are the files ``germs/<name>.dgf`` in this package:

    a1_tail          A1 germ with a transversal carrier curve
    a1_tail_half     the same with coefficient 1/2 on both curves
    a2_tail, a3_tail A_n chain of (-2)-curves with a transversal at one end
    plt_fork_level2  fork whose minimal complement is four half-points at level 2
    plt_fork_level3  fork realizing the (2/3, 2/3, 2/3) different at level 3
    plt_fork_level4  fork realizing the (1/2, 3/4, 3/4) different at level 4
    plt_fork_level6  fork realizing the (1/2, 2/3, 5/6) different at level 6
    nonplt_fork      fork whose minimal complement is non-plt at level 2
    nonplt_line      two carrier curves through one (-2)-curve: non-plt at level 1
    nonplt_h         two adjacent (-2)-curves with two carrier curves each; the
                     minimal complement puts 1 on both, a 2-chain with an
                     exceptional center

The randomized generator produces small negative-definite germs with
standard coefficients that satisfy the search hypotheses (klt, -(K+B) nef
over the base); complements may or may not exist on them.  It rejects a
candidate that fails the nef test of `_require_hypotheses`
(`complements._positive_dots`, an integer pairing that needs no lattice)
before `_require_hypotheses` classifies it.  For the length of one call
it keeps one `DualGraph` per drawn shape (self-intersections and edge
list) whose candidate passed the nef test, so returned pairs may share a
`DualGraph`, as a family and its jittered copies always have.  Each
shape's lattice is factored once by the process-wide memo behind
`DualGraph.lattice` in any case, so this per-call memo saves only graph
construction: `random_corpus(111, 601)` takes about 65 ms with it and
73 ms without (best of seven, 2-vCPU x86_64 host).
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from .complements import ComplementHypothesisError, _positive_dots, _require_hypotheses
from .dgf import parse_germ
from .graphs import DualGraph, LogPair, Vertex

F = Fraction

STANDARD_POOL = (F(0), F(1, 2), F(2, 3), F(3, 4), F(4, 5), F(5, 6))

GERMS = Path(__file__).parent / "germs"

# Corpus order: the corpus digests depend on it.
FAMILIES = (
    "a1_tail",
    "a1_tail_half",
    "a2_tail",
    "a3_tail",
    "plt_fork_level2",
    "plt_fork_level3",
    "plt_fork_level4",
    "plt_fork_level6",
    "nonplt_fork",
    "nonplt_line",
    "nonplt_h",
)


def family(name: str) -> LogPair:
    """The engineered germ ``name``, read from ``germs/<name>.dgf``."""
    return parse_germ((GERMS / f"{name}.dgf").read_text(encoding="utf-8")).pair()


def deliberate_families() -> list[tuple[str, LogPair]]:
    return [(name, family(name)) for name in FAMILIES]


def _random_candidate(
    rng: random.Random, families: list[LogPair], graphs: dict
) -> tuple[tuple | None, LogPair]:
    """One draw: the key of its drawn shape (None for a jittered family)
    and the pair, on the graph `graphs` keeps for that key if there is one."""
    kind = rng.choice(("chain", "chain", "fork", "family_jitter"))
    if kind == "family_jitter":
        base = rng.choice(families)
        coeff = dict(base.coeff)
        # jitter one tail coefficient downward within the standard pool
        tails = [v for v in base.graph.ids if not base.graph.vertex(v).exceptional]
        if tails:
            v = rng.choice(tails)
            coeff[v] = rng.choice((F(0), F(1, 2)))
        return None, LogPair(base.graph, coeff)
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
        es.append((anchor, f"L{t}", 1))
    coeff = {}
    for v in vs:
        if rng.random() < 0.4:
            coeff[v.id] = rng.choice(STANDARD_POOL)
    # Every tail has an edge, so the self-intersections and the edges fix the graph.
    key = (tuple(selfs), tuple(es))
    graph = graphs.get(key)
    return key, LogPair(graph if graph is not None else DualGraph(vs, es), coeff)


def _admissible(pair: LogPair) -> bool:
    try:
        _require_hypotheses(pair)
    except ComplementHypothesisError:
        return False
    return True


def random_corpus(seed: int, count: int) -> list[LogPair]:
    """Deterministic corpus of germs satisfying the search hypotheses."""
    rng = random.Random(seed)
    # The per-call graph memo: one DualGraph per drawn shape.
    graphs: dict = {}
    families = [pair for _name, pair in deliberate_families()]
    out = list(families)
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 100000:
            raise RuntimeError("corpus generator stalled")
        key, cand = _random_candidate(rng, families, graphs)
        if _positive_dots(cand):
            continue
        if key is not None:
            graphs[key] = cand.graph
        if _admissible(cand):
            out.append(cand)
    return out[:count]
