import itertools
import math
from fractions import Fraction as F

import kernel_reference
import pytest

from frsurf.complements import (
    LEVELS,
    ComplementHypothesisError,
    minimal_complement,
    search_complement,
    verify_complement,
)
from frsurf.corpus import deliberate_families, family, random_corpus
from frsurf.graphs import GraphError, LogPair, classify
from kernel_reference import adjunction_degree


def test_verify_a1_examples():
    pair = family("a1_tail")
    bc = {"E": F(1, 2), "L": F(1)}
    report = verify_complement(pair, bc, 2)
    assert report.passed

    report3 = verify_complement(pair, bc, 3)
    assert not report3.passed
    assert report3.checks["integral"] is False
    assert all(
        report3.checks[name]
        for name in ("level", "dominates", "trivial_pairing", "lc_not_klt", "floor_bound")
    )

    # Bc below B somewhere
    pair_half = family("a1_tail_half")
    report_low = verify_complement(pair_half, {"E": F(0), "L": F(1)}, 2)
    assert report_low.checks["dominates"] is False

    with pytest.raises(GraphError):
        verify_complement(pair, {"E": F(1, 2)}, 2)  # id mismatch


def test_verify_rejects_bad_level():
    pair = family("a1_tail")
    report = verify_complement(pair, {"E": F(1, 2), "L": F(1)}, 5)
    assert report.checks["level"] is False
    assert not report.passed


def test_search_a1():
    pair = family("a1_tail")
    cert = search_complement(pair, 2)
    assert cert is not None
    assert cert.coeffs == {"E": F(1, 2), "L": F(1)}
    assert cert.plt_case
    assert search_complement(pair, 1) is None
    for level in (0, 5, -1):  # outside {1, 2, 3, 4, 6}
        assert search_complement(pair, level) is None


def test_search_no_carrier_returns_absent():
    # germ with no non-exceptional curves: trivial pairing forces the klt
    # crepant solution, never lc-not-klt
    from frsurf.graphs import DualGraph, Vertex

    pair = LogPair(DualGraph([Vertex("E", -2, True)]), {})
    assert search_complement(pair, 2) is None
    assert minimal_complement(pair) is None


def test_minimal_a1():
    cert = minimal_complement(family("a1_tail"))
    assert cert is not None and cert.level == 2
    assert cert.coeffs == {"E": F(1, 2), "L": F(1)}


def test_minimal_fork_level3():
    cert = minimal_complement(family("plt_fork_level3"))
    assert cert is not None
    assert cert.level == 3 and cert.plt_case
    pair = family("plt_fork_level3").with_coeff(cert.coeffs)
    total, balanced = adjunction_degree(pair, "C")
    assert balanced
    values = sorted(cert.coeffs[v] for v in ("A", "B", "D"))
    assert values == [F(2, 3), F(2, 3), F(2, 3)]


def test_minimal_level6_fork():
    cert = minimal_complement(family("plt_fork_level6"))
    assert cert is not None
    assert cert.level == 6 and cert.plt_case
    assert cert.coeffs["C"] == 1
    assert sorted(cert.coeffs[v] for v in ("A", "B", "D")) == [
        F(1, 2),
        F(2, 3),
        F(5, 6),
    ]


def test_minimal_rejects_non_klt():
    from frsurf.graphs import DualGraph, Vertex

    g = DualGraph(
        [Vertex("E", -2, True), Vertex("L", 0, False)], [("E", "L", 1)]
    )
    with pytest.raises(ComplementHypothesisError):
        minimal_complement(LogPair(g, {"L": 1}))  # plt but not klt


def test_minimal_rejects_non_standard():
    from frsurf.graphs import DualGraph, Vertex

    g = DualGraph(
        [Vertex("E", -2, True), Vertex("L", 0, False)], [("E", "L", 1)]
    )
    with pytest.raises(ComplementHypothesisError) as err:
        minimal_complement(LogPair(g, {"L": F(3, 5)}))
    assert any("standard" in f for f in err.value.failures)


def test_nonplt_families_have_small_level():
    for pair, expected in ((family("nonplt_fork"), 2), (family("nonplt_line"), 1)):
        cert = minimal_complement(pair)
        assert cert is not None
        assert not cert.plt_case
        assert cert.level == expected


def test_every_family_certificate_reverifies():
    for name, pair in deliberate_families():
        cert = minimal_complement(pair)
        assert cert is not None, name
        assert verify_complement(pair, cert.coeffs, cert.level).passed, name
        assert cert.plt_case == classify(pair.with_coeff(cert.coeffs)).is_plt


def test_small_random_corpus_consistency():
    for pair in random_corpus(seed=99, count=25):
        cert = minimal_complement(pair)
        if cert is None:
            continue
        assert verify_complement(pair, cert.coeffs, cert.level).passed
        if not cert.plt_case:
            assert cert.level in (1, 2)
        for v, val in cert.coeffs.items():
            # equality with B only happens on the level grid
            if val == pair.coeff[v]:
                assert (cert.level * val).denominator == 1


def solve_dense(matrix, rhs):
    # independent exact solve: Gauss-Jordan on Fractions with row pivoting
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


def brute_force_complement(pair, level):
    """First complement on the unpruned grid ceil(N*b)..N, in lexicographic
    order of the non-exceptional vertices; exceptional values come from a
    dense solve of (K + Bc) . E = 0."""
    g = pair.graph
    exc = sorted(v for v in g.ids if g.vertex(v).exceptional)
    nonexc = sorted(v for v in g.ids if not g.vertex(v).exceptional)
    matrix = [[g.pairing(u, w) for w in exc] for u in exc]
    ranges = [range(math.ceil(level * pair.coeff[v]), level + 1) for v in nonexc]
    for combo in itertools.product(*ranges):
        bc = {v: F(m, level) for v, m in zip(nonexc, combo)}
        rhs = [
            2 + g.vertex(j).self_int - sum(bc[v] * g.pairing(j, v) for v in nonexc)
            for j in exc
        ]
        bc.update(zip(exc, solve_dense(matrix, rhs)))
        if verify_complement(pair, bc, level).passed:
            return bc
    return None


def test_search_matches_brute_force_reference():
    found = 0
    for pair in random_corpus(seed=1, count=150):
        first = None
        for level in (1, 2, 3, 4, 6):
            expect = brute_force_complement(pair, level)
            cert = search_complement(pair, level)
            assert (cert and cert.coeffs) == expect, level
            if first is None and expect is not None:
                first = (level, expect)
        cert = minimal_complement(pair)
        assert (cert and (cert.level, cert.coeffs)) == first
        found += cert is not None
    assert found > 50


def test_search_labels_agree_with_verify_complement(monkeypatch):
    # The search labels each on-grid candidate from the values it solved;
    # verify_complement, re-deriving all six checks, must reach the same
    # accept and plt decisions on every one of them, and so must the full
    # solve.  With one exceptional coefficient raised by 1/level, K + Bc no
    # longer pairs trivially, and the report must be the one the full solve
    # gives (`kernel_reference.verify_complement`).
    from frsurf import complements

    labelled = []
    real_label = complements.label

    def recording(graph, cden, c, bden, bn):
        cls = real_label(graph, cden, c, bden, bn)
        labelled.append(({v: F(n, cden) for v, n in c.items()}, cls))
        return cls

    verified = []
    real_verify = complements.verify_complement

    def counting(*args):
        verified.append(args)
        return real_verify(*args)

    monkeypatch.setattr(complements, "label", recording)
    monkeypatch.setattr(complements, "verify_complement", counting)
    accepted = rejected = 0
    for pair in random_corpus(seed=2, count=60):
        for level in LEVELS:
            labelled.clear()
            cert = search_complement(pair, level)
            searched = list(labelled)
            for bc, cls in searched:
                report = real_verify(pair, bc, level)
                assert report.passed == (cls.is_lc and not cls.is_klt), (bc, level)
                # the whole classification, b included, not just the flags
                assert report.classification == cls, (bc, level)
                assert report.classification == classify(pair.with_coeff(bc)), (bc, level)
                accepted += report.passed
                rejected += not report.passed
                first = pair.graph.exceptional_ids[0]
                raised = {**bc, first: bc[first] + F(1, level)}
                report = real_verify(pair, raised, level)
                want = kernel_reference.verify_complement(pair, raised, level)
                assert not report.checks["trivial_pairing"], (raised, level)
                assert (report.checks, report.details, report.classification) == (
                    want.checks, want.details, want.classification
                ), (raised, level)
            # verify_complement classifies; it never calls `label` itself
            assert labelled == searched
            if cert is not None:
                assert searched[-1][0] == cert.coeffs
                assert cert.plt_case == searched[-1][1].is_plt
        minimal_complement(pair)
    assert verified == []
    assert accepted > 60 and rejected > 60


def test_verify_complement_solves_when_the_lattice_is_not_definite():
    # K + Bc pairs trivially, but the exceptional lattice [[-1, 2], [2, -2]]
    # is indefinite: Bc is no unique pullback, and classification fails.
    from frsurf.graphs import DualGraph, Vertex

    graph = DualGraph(
        [Vertex("E", -1, True), Vertex("F", -2, True), Vertex("L", -1, False)],
        [("E", "F", 2), ("E", "L", 1)],
    )
    pair = LogPair(graph, {})
    bc = {"L": F(1, 2), **graph.lattice(["E", "F"]).solve({"L": F(1, 2)})}
    assert bc == {"E": F(1, 2), "F": F(1, 2), "L": F(1, 2)}
    report = verify_complement(pair, bc, 2)
    assert report.checks["trivial_pairing"] and report.classification is None
    assert "classification failed: exceptional intersection lattice is not negative definite" in (
        report.details
    )
    want = kernel_reference.verify_complement(pair, bc, 2)
    assert (report.checks, report.details) == (want.checks, want.details)


def test_search_reads_only_its_own_solve(monkeypatch):
    from frsurf import complements

    def forbidden(*args, **kwargs):
        raise AssertionError("the search re-derives what it solved")

    pairs = [pair for _name, pair in deliberate_families()]
    pairs += random_corpus(seed=3, count=40)
    for name in ("verify_complement", "classify", "dot_against_exceptionals", "LogPair"):
        monkeypatch.setattr(complements, name, forbidden)
    found = sum(complements._search(pair, level) is not None for pair in pairs for level in LEVELS)
    assert found > 40


def test_complement_is_its_own_pullback():
    # Bc pairs trivially with every exceptional curve and the exceptional
    # lattice is negative definite, so the crepant pullback of Bc is Bc.
    pairs = [pair for _name, pair in deliberate_families()]
    pairs += random_corpus(seed=1, count=150)
    found = 0
    for pair in pairs:
        cert = minimal_complement(pair)
        if cert is None:
            continue
        found += 1
        exc = pair.graph.exceptional_ids
        expect = {j: cert.coeffs[j] for j in exc}
        assert classify(pair.with_coeff(cert.coeffs)).b == expect
        assert pair.graph.lattice(exc).solve(cert.coeffs) == expect
    assert found > 60
