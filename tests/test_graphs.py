import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frsurf.graphs import (
    DualGraph,
    GraphError,
    LogPair,
    NotNegativeDefiniteError,
    Vertex,
    classify,
    diff_on_component,
    is_negative_definite,
    pullback_coefficients,
)
from kernel_reference import (
    adjunction_degree,
    ade_graph,
    affine_ade_graph,
    blowup_chain,
    canonical_dot,
    fraction_dots,
    fraction_pullback,
    intersection_matrix,
)


def chain(self_ints, exceptional=True):
    vs = [Vertex(f"v{i+1}", s, exceptional) for i, s in enumerate(self_ints)]
    es = [(f"v{i}", f"v{i+1}", 1) for i in range(1, len(self_ints))]
    return DualGraph(vs, es)


def solve_dense(matrix, rhs):
    # independent exact solve by Cramer elimination on Fractions
    n = len(matrix)
    m = [[F(x) for x in row] + [F(rhs[i])] for i, row in enumerate(matrix)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                for k in range(c, n + 1):
                    m[r][k] -= f * m[c][k]
    return [m[i][n] / m[i][i] for i in range(n)]


def test_graph_validation():
    with pytest.raises(GraphError):
        DualGraph([Vertex("a", -2, True), Vertex("a", -2, True)])
    with pytest.raises(GraphError):
        DualGraph([Vertex("a", -2, True)], [("a", "a", 1)])
    with pytest.raises(GraphError):
        DualGraph([Vertex("a", -2, True)], [("a", "b", 1)])
    with pytest.raises(GraphError):
        DualGraph(
            [Vertex("a", -2, True), Vertex("b", -2, True)],
            [("a", "b", 1), ("b", "a", 1)],
        )


def test_graph_weights_are_integers():
    with pytest.raises(GraphError, match="self-intersection"):
        DualGraph([Vertex("a", F(-3, 2), True)])
    with pytest.raises(GraphError, match="multiplicity"):
        DualGraph([Vertex("a", -2, True), Vertex("b", -2, True)], [("a", "b", F(1, 2))])
    g = DualGraph([Vertex("a", F(-2), True), Vertex("b", -2, True)], [("a", "b", F(1))])
    assert type(g.vertex("a").self_int) is int and g.vertex("a").self_int == -2
    assert type(g.pairing("a", "b")) is int and g.pairing("a", "b") == 1


def test_intersection_matrix_rejects_unknown_ids():
    g = chain([-2, -2])
    with pytest.raises(GraphError):
        intersection_matrix(g, ["v1", "nope"])


def test_logpair_validation():
    g = chain([-2])
    with pytest.raises(GraphError):
        LogPair(g, {"v1": F(3, 2)})
    with pytest.raises(GraphError):
        LogPair(g, {"ghost": F(1, 2)})
    pair = LogPair(g, {})
    assert pair.coeff == {"v1": F(0)}


def test_intersection_matrix_examples():
    g = DualGraph([Vertex("a", -1, True)])
    assert intersection_matrix(g) == [[-1]]
    g = chain([-2, -2])
    assert intersection_matrix(g) == [[-2, 1], [1, -2]]
    g = DualGraph(
        [Vertex("a", -2, True), Vertex("b", -2, True)], [("a", "b", 2)]
    )
    assert intersection_matrix(g) == [[-2, 2], [2, -2]]


def test_negative_definite_examples():
    assert is_negative_definite([[-1]])
    assert is_negative_definite([[-2, 1], [1, -2]])
    assert not is_negative_definite([[-2, 2], [2, -2]])
    assert not is_negative_definite([[0]])
    assert not is_negative_definite([[1]])
    assert is_negative_definite([])
    assert is_negative_definite([[F(-3, 2)]])
    with pytest.raises(GraphError):
        is_negative_definite([[1, 2], [3, 4]])
    with pytest.raises(GraphError):
        is_negative_definite([[1, 2, 3], [4, 5, 6]])


def test_canonical_dot():
    g = chain([-1, -2, -3])
    assert canonical_dot(g, "v1") == -1
    assert canonical_dot(g, "v2") == 0
    assert canonical_dot(g, "v3") == 1


def test_pullback_single_minus_one():
    pair = LogPair(chain([-1]), {})
    assert pullback_coefficients(pair) == (1, {"v1": -1})
    assert fraction_pullback(pair) == {"v1": -1}


def test_pullback_du_val_chain_is_crepant():
    for n in range(1, 8):
        b = fraction_pullback(LogPair(chain([-2] * n), {}))
        assert all(v == 0 for v in b.values())


def test_pullback_two_curve_chain():
    b = fraction_pullback(LogPair(chain([-2, -1]), {}))
    assert b == {"v1": -1, "v2": -2}


def test_pullback_matches_independent_solve():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 5)
        self_ints = [rng.choice([-2, -3, -4]) for _ in range(n)]
        g = chain(self_ints)
        coeff = {}
        pair = LogPair(g, coeff)
        b = fraction_pullback(pair)
        m = intersection_matrix(g)
        rhs = [-canonical_dot(g, f"v{i+1}") for i in range(n)]
        expect = solve_dense(m, rhs)
        assert [b[f"v{i+1}"] for i in range(n)] == expect


def test_pullback_substitution_yields_zero():
    g = DualGraph(
        [Vertex("E", -2, True), Vertex("L", 0, False)], [("E", "L", 1)]
    )
    pair = LogPair(g, {"L": 1})
    b = fraction_pullback(pair)
    assert b["E"] == F(1, 2)
    dots = fraction_dots(g, {**{"L": F(1)}, **b})
    assert all(v == 0 for v in dots.values())

    # a strict subset of the exceptional curves is solved, the rest held fixed
    g2 = DualGraph(
        [Vertex("A", -2, True), Vertex("B", -3, True), Vertex("C", -2, True), Vertex("L", 0, False)],
        [("A", "B", 1), ("B", "C", 1), ("C", "L", 1)],
    )
    # and a fixed coefficient outside [0, 1], as the non-plt surgery's Bsharp has
    for coeff in ({"A": F(1, 2), "L": F(2, 3)}, {"A": F(-1, 2), "L": F(3, 2)}):
        solved = g2.lattice(["C", "B"]).solve(coeff)
        assert set(solved) == {"B", "C"}
        dots = fraction_dots(g2, {**coeff, **solved})
        assert dots["B"] == 0 and dots["C"] == 0


def test_pullback_rejects_degenerate_lattice():
    g = DualGraph(
        [Vertex("a", -2, True), Vertex("b", -2, True)], [("a", "b", 2)]
    )
    with pytest.raises(NotNegativeDefiniteError):
        pullback_coefficients(LogPair(g, {}))


def test_classify_examples():
    assert classify(LogPair(chain([-2]), {})).label == "canonical"
    assert classify(LogPair(chain([-1]), {})).label == "terminal"
    g = DualGraph([Vertex("E", -2, True), Vertex("L", 0, False)], [("E", "L", 1)])
    cls = classify(LogPair(g, {"L": 1}))
    assert cls.label == "plt"
    assert cls.b["E"] == F(1, 2)
    assert cls.is_plt and cls.is_lc and not cls.is_klt
    assert cls.lc_centers == ("L",)
    # blowing up the crossing of A and B gives discrepancy 1 - 2/3 - 2/3 < 0
    crossing = DualGraph(
        [Vertex("E", -2, True), Vertex("A", 0, False), Vertex("B", 0, False)], [("A", "B", 1)]
    )
    cls = classify(LogPair(crossing, {"A": F(2, 3), "B": F(2, 3)}))
    assert not cls.is_canonical and cls.label == "klt"
    assert classify(LogPair(crossing, {"A": F(1, 3), "B": F(2, 3)})).label == "canonical"


def test_classify_lc_and_not_lc():
    g = DualGraph(
        [Vertex("E", -2, True), Vertex("L1", 0, False), Vertex("L2", 0, False)],
        [("E", "L1", 1), ("E", "L2", 1)],
    )
    cls = classify(LogPair(g, {"L1": 1, "L2": 1}))
    assert cls.label == "lc"
    # E carries solved b = 1 without being marked in the boundary: a hidden
    # lc center, so the pair is lc but not plt
    assert not cls.is_plt
    assert cls.b["E"] == 1
    assert "E" in cls.lc_centers
    # push beyond lc
    g2 = DualGraph(
        [Vertex("E", -1, True), Vertex("L1", 0, False), Vertex("L2", 0, False), Vertex("L3", 0, False)],
        [("E", "L1", 1), ("E", "L2", 1), ("E", "L3", 1)],
    )
    cls2 = classify(LogPair(g2, {"L1": 1, "L2": 1, "L3": 1}))
    assert cls2.label == "not_lc"


def test_classify_marked_center_keeps_plt():
    # numerically trivial complement vector: solved b equals the marked 1
    g = DualGraph(
        [
            Vertex("C", -2, True),
            Vertex("A", -2, True),
            Vertex("B", -3, True),
            Vertex("D", -3, True),
            Vertex("L", 0, False),
        ],
        [("C", "A", 1), ("C", "B", 1), ("C", "D", 1), ("D", "L", 1)],
    )
    bc = {"C": 1, "A": F(1, 2), "B": F(2, 3), "D": F(5, 6), "L": F(1, 2)}
    cls = classify(LogPair(g, bc))
    assert cls.b["C"] == 1
    assert cls.is_plt and not cls.is_klt
    assert cls.label == "plt"


def test_diff_and_adjunction():
    g = DualGraph(
        [
            Vertex("C", -2, True),
            Vertex("P", 0, False),
            Vertex("Q", 0, False),
            Vertex("R", 0, False),
        ],
        [("C", "P", 1), ("C", "Q", 1), ("C", "R", 1)],
    )
    pair = LogPair(g, {"C": 1, "P": F(1, 2), "Q": F(2, 3), "R": F(5, 6)})
    anchors = diff_on_component(pair, "C")
    assert [val for _a, val in anchors] == [F(1, 2), F(2, 3), F(5, 6)]
    total, balanced = adjunction_degree(pair, "C")
    assert total == 2 and balanced

    with pytest.raises(GraphError):
        diff_on_component(LogPair(g, {"C": F(1, 2)}), "C")
    with pytest.raises(GraphError):
        adjunction_degree(LogPair(g, {"P": 1}), "P")  # not exceptional


def test_diff_multiplicity_two_edge():
    g = DualGraph(
        [Vertex("C", -2, True), Vertex("W", -2, True)], [("C", "W", 2)]
    )
    pair = LogPair(g, {"C": 1, "W": F(1, 2)})
    anchors = diff_on_component(pair, "C")
    assert [val for _a, val in anchors] == [F(1, 2), F(1, 2)]
    assert [a for a, _v in anchors] == [("W", 0), ("W", 1)]


def test_diff_isolated_component():
    g = DualGraph([Vertex("C", -2, True)])
    assert diff_on_component(LogPair(g, {"C": 1}), "C") == []
    total, balanced = adjunction_degree(LogPair(g, {"C": 1}), "C")
    assert total == 0 and not balanced


def test_adjunction_single_neighbor_unbalanced():
    g = DualGraph(
        [Vertex("C", -2, True), Vertex("P", 0, False)], [("C", "P", 1)]
    )
    total, balanced = adjunction_degree(LogPair(g, {"C": 1, "P": F(1, 2)}), "C")
    assert total == F(1, 2) and not balanced


def test_dot_against_exceptionals():
    g = chain([-2])
    assert fraction_dots(g, {})["v1"] == 0
    g2 = chain([-3])
    dots = fraction_dots(g2, {"v1": F(1, 3)})
    assert dots["v1"] == 0  # (K + C/3) . C = 1 - 1 = 0
    assert all(v <= 0 for v in dots.values())


def test_du_val_sweep():
    kinds = [("A", n) for n in range(1, 11)] + [("D", n) for n in range(4, 11)]
    kinds += [("E", 6), ("E", 7), ("E", 8)]
    for kind, n in kinds:
        g = ade_graph(kind, n)
        assert is_negative_definite(intersection_matrix(g)), (kind, n)
        cls = classify(LogPair(g, {}))
        assert all(v == 0 for v in cls.b.values()), (kind, n)
        assert cls.label == "canonical"
        aff = affine_ade_graph(kind, n)
        assert not is_negative_definite(intersection_matrix(aff)), (kind, n)


def test_blowup_tower_discrepancies():
    for n in range(1, 9):
        g = blowup_chain(n)
        b = fraction_pullback(LogPair(g, {}))
        assert [-b[f"v{i}"] for i in range(1, n + 1)] == list(range(1, n + 1))


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(0, 3))
def test_negative_definite_on_scaled_chains(n, shift):
    m = intersection_matrix(chain([-2 - shift] * n))
    assert is_negative_definite(m)
