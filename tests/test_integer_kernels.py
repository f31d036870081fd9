"""The integer kernels against their `Fraction` reference bodies.

`kernel_reference` keeps the `Fraction` formulas that the solve, the
pairing with the exceptional curves, the labels, the complement grid, the
standard-coefficient test and the complement checks used to run; every
result here, errors included, must be equal.
"""

from fractions import Fraction as F
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from frsurf.complements import LEVELS, _grid, verify_complement
from frsurf.corpus import random_corpus
from frsurf.graphs import (
    DualGraph,
    GraphError,
    LogPair,
    Vertex,
    classify,
    label,
    numerators,
)
from frsurf.rationals import is_standard

# Germs that meet the search hypotheses, and three exceptional lattices that
# are not negative definite: a positive curve, a singular pair of (-1)-curves,
# and a nonsingular indefinite pair.
GRAPHS = [pair.graph for pair in random_corpus(seed=5, count=80)] + [
    DualGraph([Vertex("E", 1, True), Vertex("L", 0, False)], [("E", "L", 1)]),
    DualGraph(
        [Vertex("E", -1, True), Vertex("F", -1, True), Vertex("L", 0, False)],
        [("E", "F", 1), ("F", "L", 1)],
    ),
    DualGraph(
        [Vertex("E", -1, True), Vertex("F", -2, True), Vertex("L", -1, False)],
        [("E", "F", 2), ("E", "L", 1)],
    ),
]


def unit_values():
    """Rationals in [0, 1] with denominators up to 12, 0 and 1 among them."""
    return st.one_of(
        st.sampled_from([0, 1, F(0), F(1)]),
        st.integers(1, 12).flatmap(lambda d: st.integers(0, d).map(lambda n: F(n, d))),
    )


def any_values():
    """Rationals in [-2, 2] with denominators up to 12."""
    return st.one_of(
        st.sampled_from([0, 1, -1, 2]),
        st.integers(1, 12).flatmap(lambda d: st.integers(-2 * d, 2 * d).map(lambda n: F(n, d))),
    )


@st.composite
def graph_and_map(draw, values, every_vertex=False):
    graph = draw(st.sampled_from(GRAPHS))
    ids = graph.ids if every_vertex else draw(st.lists(st.sampled_from(graph.ids), unique=True))
    return graph, {v: draw(values) for v in ids}


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (GraphError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None)
@given(graph_and_map(any_values()), st.data())
def test_solve_and_dot_match_reference(drawn, data):
    graph, coeff = drawn
    unknowns = data.draw(st.lists(st.sampled_from(graph.ids), unique=True))
    lattice = graph.lattice(unknowns)
    got = outcome(lattice.solve, coeff)
    assert got == outcome(ref.solve, lattice, coeff)
    if got[0] == "value":
        assert all(type(x) is F for x in got[1].values())
    assert ref.fraction_dots(graph, coeff) == ref.dot_against_exceptionals(graph, coeff)


@settings(max_examples=200, deadline=None)
@given(graph_and_map(unit_values(), every_vertex=True), st.data())
def test_label_and_classify_match_reference(drawn, data):
    graph, coeff = drawn
    b = {j: data.draw(any_values()) for j in graph.exceptional_ids}
    assert label(graph, *numerators(coeff), *numerators(b)) == ref.label(graph, coeff, b)
    pair = LogPair(graph, coeff)
    got = outcome(classify, pair)
    assert got == outcome(ref.classify, pair)
    if got[0] == "value":
        assert type(got[1].max_b) in (F, type(None))


@settings(max_examples=200, deadline=None)
@given(any_values(), st.sampled_from(LEVELS))
def test_grid_and_standard_match_reference(c, level):
    assert outcome(is_standard, c) == outcome(ref.is_standard, c)
    if 0 <= c <= 1:
        assert _grid(level, c) == ref.grid(level, c)


@settings(max_examples=200, deadline=None)
@given(graph_and_map(unit_values()))
def test_log_pair_holds_its_boundary_in_integers(drawn):
    graph, coeff = drawn
    pair = LogPair(graph, coeff)
    assert pair.den == lcm(*(c.denominator for c in pair.coeff.values()))
    assert all(F(pair.num[v], pair.den) == pair.coeff[v] for v in graph.ids)
    # den and num are derived state: equality and repr ignore them
    twin = LogPair(graph, dict(coeff))
    assert twin == pair == pair.with_coeff(coeff)
    assert repr(twin) == repr(pair)
    assert "den=" not in repr(pair) and "num=" not in repr(pair)


def test_pair_kernels_read_the_pair_numerators(monkeypatch):
    # classify, the crepant pullback and the hypothesis check take B in
    # integers from the pair; none converts the Fraction map again.
    from frsurf import bstar, complements, graphs

    pairs = random_corpus(seed=5, count=80)
    calls = []
    real = graphs.numerators

    def counting(coeff):
        calls.append(coeff)
        return real(coeff)

    for module in (graphs, complements, bstar):
        monkeypatch.setattr(module, "numerators", counting)
    for pair in pairs:
        classify(pair)
        graphs.pullback_coefficients(pair)
        complements._require_hypotheses(pair)
    assert calls == []
    # the counter sees the conversions that remain (of Bc, here)
    verify_complement(pairs[0], dict(pairs[0].coeff), 1)
    assert len(calls) == 1


@settings(max_examples=200, deadline=None)
@given(graph_and_map(any_values()), st.booleans())
def test_log_pair_validation_matches_reference(drawn, unknown_vertex):
    graph, coeff = drawn
    if unknown_vertex:
        coeff = {**coeff, "no such curve": F(1, 2)}
    got = outcome(lambda: LogPair(graph, coeff).coeff)
    assert got == outcome(ref.log_pair_coeff, graph, coeff)
    if got[0] == "value":
        assert all(type(x) is F for x in got[1].values())


@settings(max_examples=200, deadline=None)
@given(
    graph_and_map(unit_values(), every_vertex=True),
    st.data(),
    st.sampled_from((*LEVELS, 5)),
)
def test_verify_complement_matches_reference(drawn, data, level):
    graph, b = drawn
    pair = LogPair(graph, b)
    # Bc on the 1/level grid where it can be, and anywhere in [-2, 2] elsewhere;
    # solving its exceptional values makes K + Bc pair trivially, so that the
    # case where the solve returns Bc itself is compared too.
    on_grid = st.integers(0, level).map(lambda m: F(m, level))
    bc = {v: data.draw(st.one_of(on_grid, any_values())) for v in graph.ids}
    lattice = graph.lattice(graph.exceptional_ids)
    if data.draw(st.booleans()) and lattice.x0 is not None:
        bc.update(lattice.solve(bc))
    got, want = verify_complement(pair, bc, level), ref.verify_complement(pair, bc, level)
    assert (got.checks, got.details, got.classification) == (
        want.checks, want.details, want.classification
    )
