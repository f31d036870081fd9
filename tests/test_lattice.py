"""The factored pairing lattice against an independent exact oracle (sympy),
and the promise that each lattice is factored once per graph shape."""

import random
from fractions import Fraction as F

import pytest

from frsurf import bstar, graphs
from frsurf.complements import minimal_complement
from frsurf.corpus import family
from frsurf.graphs import (
    DualGraph,
    GraphError,
    LogPair,
    Vertex,
    is_negative_definite,
)

sympy = pytest.importorskip("sympy")


def to_fraction(r):
    return F(int(r.p), int(r.q))


def random_symmetric(rng, n, fractional):
    def entry():
        x = rng.randint(-4, 4)
        return F(x, rng.randint(1, 4)) if fractional else x

    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = entry() - rng.randint(0, 6)
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = entry() if rng.random() < 0.5 else 0
    return m


def test_negative_definite_agrees_with_sympy():
    rng = random.Random(5)
    cases = [[[0, 1], [1, 0]], [[-1, 1], [1, -1]], [[-2, 2], [2, -2]], [[-1, 0], [0, 1]]]
    for _ in range(400):
        n = rng.randint(1, 6)
        m = random_symmetric(rng, n, rng.random() < 0.5)
        if rng.random() < 0.2:
            # a repeated row and column make it singular
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            for k in range(n):
                m[j][k] = m[i][k]
            for k in range(n):
                m[k][j] = m[k][i]
        cases.append(m)
    verdicts = set()
    for m in cases:
        expect = bool(sympy.Matrix(m).is_negative_definite)
        assert is_negative_definite(m) == expect, m
        verdicts.add(expect)
    assert verdicts == {True, False}


def random_tree(rng, n, kind):
    """A chain or a fork of n exceptional curves plus two non-exceptional
    tails.  Each weight is at most -max(degree, 2), so the exceptional
    lattice is irreducibly diagonally dominant, hence negative definite."""
    ids = [f"E{i}" for i in range(1, n + 1)]
    if kind == "chain":
        edges = [(ids[i], ids[i + 1], 1) for i in range(n - 1)]
    else:
        arms = [1 + i * n // 3 for i in range(3)]
        edges = [(ids[i], ids[i + 1], 1) for i in range(n - 1) if i + 1 not in arms]
        edges += [(ids[0], ids[a], 1) for a in arms]
    edges += [(ids[0], "L1", 1), (ids[-1], "L2", 1)]
    degree = {v: 0 for v in ids}
    for u, w, _m in edges:
        for v in (u, w):
            if v in degree:
                degree[v] += 1
    vs = [Vertex(v, -max(degree[v], 2) - rng.choice((0, 0, 1)), True) for v in ids]
    vs += [Vertex("L1", 0, False), Vertex("L2", 0, False)]
    return DualGraph(vs, edges)


def sympy_trivial_pairing(graph, coeff, unknowns):
    unknowns = sorted(unknowns)
    matrix = sympy.Matrix([[graph.pairing(u, w) for w in unknowns] for u in unknowns])
    rhs = []
    for j in unknowns:
        val = sympy.Integer(2) + graph.vertex(j).self_int
        for v in graph.ids:
            if v not in unknowns:
                val -= sympy.sympify(coeff.get(v, 0)) * graph.pairing(j, v)
        rhs.append(val)
    x = matrix.LUsolve(sympy.Matrix(rhs))
    return {j: to_fraction(x[i]) for i, j in enumerate(unknowns)}


def test_trivial_pairing_agrees_with_sympy():
    rng = random.Random(7)
    for n in (10, 17, 25, 40):
        for kind in ("chain", "fork"):
            g = random_tree(rng, n, kind)
            exc = g.exceptional_ids
            subset = sorted(rng.sample(exc, n // 2))
            coeff = {v: F(rng.randint(0, 6), 6) for v in g.ids if rng.random() < 0.7}
            for unknowns in (exc, subset):
                got = g.lattice(unknowns).solve(coeff)
                assert got == sympy_trivial_pairing(g, coeff, unknowns), (n, kind)
                assert all(type(x) is F for x in got.values())


def test_zero_leading_minor_is_singular():
    # [[0, 1], [1, 0]] is nonsingular, but its leading minor vanishes
    g = DualGraph([Vertex("a", 0, True), Vertex("b", 0, True)], [("a", "b", 1)])
    with pytest.raises(GraphError, match="singular linear system"):
        g.lattice(["a", "b"]).solve({})
    assert not g.lattice(["a", "b"]).definite


@pytest.mark.parametrize("name, factorizations", [("plt_fork_level6", 1), ("nonplt_fork", 2)])
def test_each_lattice_is_factored_once(monkeypatch, name, factorizations):
    calls = []
    real = graphs._ldl

    def counting(diag, off):
        calls.append(len(diag))
        return real(diag, off)

    # the shape memo outlives calls: start it empty, whatever ran before
    graphs._factored.cache_clear()
    monkeypatch.setattr(graphs, "_ldl", counting)
    pair = family(name)
    assert minimal_complement(pair) is not None
    for p in (7, 11, 13):
        bstar.gfr_certificate(pair, p, 6)
    assert len(calls) == graphs._factored.cache_info().currsize == factorizations
    # a freshly parsed graph of the same shape factors nothing
    fresh = family(name).graph
    assert fresh is not pair.graph
    minimal_complement(LogPair(fresh, pair.coeff))
    assert len(calls) == factorizations
    # a graph that differs in one self-intersection factors its own lattice
    lowered = fresh.exceptional_ids[0]
    changed = DualGraph(
        [Vertex(v, fresh.vertex(v).self_int - (v == lowered), fresh.vertex(v).exceptional) for v in fresh.ids],
        fresh.edges(),
    )
    assert changed.lattice(changed.exceptional_ids).definite
    assert len(calls) == factorizations + 1
