"""Acceptance suite: one criterion per test, one pass/fail line printed each.

Budgets are wall-clock upper bounds; all numeric checks are exact.
"""

import math
import random
import time
from fractions import Fraction as F

from frsurf import bstar as bstar_mod
from frsurf import fedder
from frsurf.complements import minimal_complement, verify_complement
from frsurf.corpus import family, random_corpus
from frsurf.fedder import (
    CASE_D1,
    CASE_D2,
    P1Pair,
    hara_table,
    is_globally_F_regular,
    verify_witness,
)
from frsurf.graphs import LogPair, classify, diff_on_component, is_negative_definite
from frsurf.padic import (
    binom_mod_p,
    ceil_mul,
    exists_dominated_in_interval,
    is_prime,
)
from kernel_reference import (
    ade_graph,
    adjunction_degree,
    affine_ade_graph,
    blowup_chain,
    fraction_dots,
    fraction_pullback,
    intersection_matrix,
)

CORPUS_SEED = 20240817

EXPECTED_EXPONENTS = {
    ("D1", 7): (20, 32, 40),
    ("D1", 11): (48, 80, 100),
    ("D1", 13): (68, 112, 140),
    ("D1", 17): (116, 192, 240),
    ("D1", 19): (144, 240, 300),
    ("D1", 23): (212, 352, 440),
    ("D1", 29): (336, 560, 700),
    ("D2", 7): (16, 36, 36),
    ("D2", 11): (40, 90, 90),
}

N6_LISTS = [
    sorted([F(2, 5), F(2, 3), F(5, 6)]),
    sorted([F(1, 2), F(1, 2), F(5, 6)]),
    sorted([F(1, 2), F(2, 3), F(4, 5)]),
]
N4_LISTS = [
    sorted([F(1, 3), F(3, 4), F(3, 4)]),
    sorted([F(1, 2), F(2, 3), F(3, 4)]),
]
N3_LIST = sorted([F(1, 2), F(2, 3), F(2, 3)])
N2_LIST = sorted([F(1, 2), F(1, 2), F(1, 2)])


def _report(num, desc, dt, budget):
    print(f"ACCEPTANCE {num} [{desc}]: PASS ({dt:.2f}s, budget {budget}s)")


def _primes_to(limit):
    return [p for p in range(2, limit + 1) if is_prime(p)]


def test_criterion_1_golden_table():
    t0 = time.perf_counter()
    rows = hara_table((7, 11, 13, 17, 19, 23, 29))
    assert len(rows) == 9
    for row in rows:
        assert row.a == EXPECTED_EXPONENTS[(row.case, row.p)]
        assert row.reference_witness is not None
        assert row.reference_ok is True
        assert verify_witness(row.a, *row.reference_witness, row.p, row.e)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _report(1, "benchmark table, 9 witnesses", dt, 1)


def test_criterion_2_e1_shortcut():
    t0 = time.perf_counter()
    primes = [p for p in _primes_to(1000) if p > 5]
    for p in primes:
        if p == 31 or p > 34:
            assert fedder.test_at(CASE_D1, p, 1) is not None, p
        if p in (13, 17, 19) or p > 20:
            assert fedder.test_at(CASE_D2, p, 1) is not None, p
    dt = time.perf_counter() - t0
    assert dt < 5.0
    _report(2, "e=1 shortcut regime to p=1000", dt, 5)


def test_criterion_3_desk_instance():
    t0 = time.perf_counter()
    triples = [CASE_D1, CASE_D2]
    for d in range(1, 21):
        triples.append(P1Pair.from_coeffs([F(1, 2), F(1, 2), F(d - 1, d)]))
    for d1, d2, d3 in ((2, 3, 3), (2, 3, 4), (2, 3, 5)):
        triples.append(
            P1Pair.from_coeffs([F(d1 - 1, d1), F(d2 - 1, d2), F(d3 - 1, d3)])
        )
    primes = [p for p in _primes_to(100) if p > 5]
    for pair in triples:
        for p in primes:
            verdict = is_globally_F_regular(pair, p, e_max=6)
            assert verdict.is_regular, (pair.coeffs, p)
    log_cy = P1Pair.from_coeffs([F(1, 2), F(2, 3), F(5, 6)])
    for p in primes:
        assert is_globally_F_regular(log_cy, p, e_max=6).status == "not_regular"
    dt = time.perf_counter() - t0
    assert dt < 30.0
    _report(3, "standard triples regular, log-CY negative", dt, 30)


def test_criterion_4_oracle_equivalences():
    t0 = time.perf_counter()
    mismatches = 0
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(301):
            for k in range(n + 1):
                if binom_mod_p(n, k, p) != math.comb(n, k) % p:
                    mismatches += 1
    assert mismatches == 0

    rng = random.Random(CORPUS_SEED)
    for _ in range(500):
        p = rng.choice((2, 3, 5))
        e = rng.randint(1, 4)
        cap = p**e - 1
        a = rng.randint(0, cap)
        lo = rng.randint(-2, cap + 2)
        hi = rng.randint(-2, cap + 2)
        got = exists_dominated_in_interval(a, lo, hi, p, e)
        want = next(
            (
                k
                for k in range(max(lo, 0), min(hi, cap) + 1)
                if binom_mod_p(a, k, p) != 0
            ),
            None,
        )
        assert got == want, (a, lo, hi, p, e)
    dt = time.perf_counter() - t0
    _report(4, "Lucas and digit-DP against brute force", dt, "-")


def test_criterion_5_performance():
    p = 7
    timings = {}
    # (e, search budget, witness-check budget)
    for e, budget, check_budget in ((10**4, 1.0, 1.0), (10**5, 15.0, 3.0)):
        m = p**e - 1
        a3 = ceil_mul(F(5, 6), m)
        a1 = ceil_mul(F(2, 5), m)
        a2 = ceil_mul(F(2, 3), m)
        t0 = time.perf_counter()
        k = exists_dominated_in_interval(a3, a2 + a3 - (m - 1), m - 1 - a1, p, e)
        dt = time.perf_counter() - t0
        assert k is not None
        assert dt < budget, f"e={e} took {dt:.2f}s"
        t0 = time.perf_counter()
        assert verify_witness((a1, a2, a3), a1 + k, a2 + a3 - k, p, e)
        check = time.perf_counter() - t0
        assert check < check_budget, f"verify_witness at e={e} took {check:.2f}s"
        timings[e] = (dt, check)
    _report(
        5,
        f"dominance search e=1e4 ({timings[10**4][0]:.3f}s) and e=1e5 "
        f"({timings[10**5][0]:.3f}s); witness check e=1e4 ({timings[10**4][1]:.3f}s) "
        f"and e=1e5 ({timings[10**5][1]:.3f}s)",
        sum(dt + check for dt, check in timings.values()),
        "1 + 15 + 1 + 3",
    )


def test_criterion_6_dual_graph_classics():
    t0 = time.perf_counter()
    kinds = [("A", n) for n in range(1, 11)] + [("D", n) for n in range(4, 11)]
    kinds += [("E", 6), ("E", 7), ("E", 8)]
    for kind, n in kinds:
        g = ade_graph(kind, n)
        assert is_negative_definite(intersection_matrix(g)), (kind, n)
        cls = classify(LogPair(g, {}))
        assert all(v == 0 for v in cls.b.values()), (kind, n)
        assert cls.label == "canonical", (kind, n)
        aff = affine_ade_graph(kind, n)
        assert not is_negative_definite(intersection_matrix(aff)), (kind, n)
    for n in range(1, 9):
        b = fraction_pullback(LogPair(blowup_chain(n), {}))
        assert [-b[f"v{i}"] for i in range(1, n + 1)] == list(range(1, n + 1))
    dt = time.perf_counter() - t0
    _report(6, "ADE lattices, affine degenerations, blow-up towers", dt, "-")


def test_criterion_7_complement_corpus():
    t0 = time.perf_counter()
    cert = minimal_complement(family("a1_tail"))
    assert cert is not None and cert.level == 2
    assert cert.coeffs == {"E": F(1, 2), "L": F(1)}

    corpus = random_corpus(seed=CORPUS_SEED, count=100)
    assert len(corpus) == 100
    found = 0
    for pair in corpus:
        c = minimal_complement(pair)
        if c is None:
            continue
        found += 1
        assert verify_complement(pair, c.coeffs, c.level).passed
        if not c.plt_case:
            assert c.level in (1, 2), c
        bc_pair = pair.with_coeff(c.coeffs)
        for v, val in c.coeffs.items():
            if val == 1 and pair.graph.vertex(v).exceptional:
                total, balanced = adjunction_degree(bc_pair, v)
                assert balanced, (v, total)
    assert found >= 20, f"only {found} certificates in the corpus"
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(7, f"complement corpus ({found}/100 certificates)", dt, 60)


def test_criterion_8_bstar_pipeline_corpus():
    t0 = time.perf_counter()
    corpus = random_corpus(seed=CORPUS_SEED, count=100)
    produced = 0
    plt_levels = set()
    saw_nonplt = False
    for pair in corpus:
        for p in (7, 11):
            try:
                cert = bstar_mod.gfr_certificate(pair, p, e_max=6)
            except bstar_mod.PipelineError as err:
                # an absent complement is the only honest negative on this
                # corpus: every germ meets the hypotheses, and neither a
                # structural failure nor an inconclusive monomial test is
                # acceptable
                assert (err.stage, err.kind) == ("complement", "search"), (
                    pair.coeff,
                    p,
                    str(err),
                )
                continue
            produced += 1
            graph = pair.graph
            dots = fraction_dots(graph, cert.bstar)
            assert all(v <= 0 for v in dots.values())
            for v in graph.ids:
                assert cert.bc[v] >= cert.bstar[v] >= pair.coeff[v]
            assert classify(pair.with_coeff(cert.bstar)).is_plt
            nonzero = sorted(v for v in cert.diff if v != 0)
            assert len(nonzero) <= 3
            assert cert.fedder.is_regular
            assert bstar_mod.reverify_certificate(pair, cert) == []
            if cert.case == "plt":
                plt_levels.add(cert.level)
                if graph.vertex(cert.center).exceptional:
                    total, balanced = adjunction_degree(
                        pair.with_coeff(cert.bc), cert.center
                    )
                    assert balanced
                    anchors_bc = [
                        val
                        for _a, val in diff_on_component(
                            pair.with_coeff(cert.bc), cert.center
                        )
                        if val != 0
                    ]
                    assert len(anchors_bc) == 3 or (
                        len(anchors_bc) == 4
                        and all(v == F(1, 2) for v in anchors_bc)
                        and cert.level == 2
                    )
                    if cert.level == 6:
                        assert nonzero in N6_LISTS
                    elif cert.level == 4:
                        assert nonzero in N4_LISTS
                    elif cert.level == 3:
                        assert nonzero == N3_LIST
                    elif cert.level == 2:
                        assert nonzero == N2_LIST
            else:
                saw_nonplt = True
                if len(nonzero) == 3:
                    assert nonzero[0] <= F(1, 2) and nonzero[1] <= F(1, 2)
                    assert nonzero[2] < 1
                else:
                    assert all(v < 1 for v in nonzero)
    assert produced >= 30, f"only {produced} certificates produced"
    assert {2, 3, 4, 6}.issubset(plt_levels), plt_levels
    assert saw_nonplt
    dt = time.perf_counter() - t0
    assert dt < 120.0
    _report(8, f"pipeline corpus ({produced} certificates)", dt, 120)


def test_criterion_9_monotonicity_sweep():
    t0 = time.perf_counter()
    violations = 0
    for j in range(1, 51):
        bound = F(j - 1, j)
        for q in range(2, 51):
            for p in range(0, q + 1):
                if bound < F(p, q) and p >= 1:
                    if bound > F(p - 1, q - 1):
                        violations += 1
    assert violations == 0
    dt = time.perf_counter() - t0
    _report(9, "coefficient replacement monotonicity sweep", dt, "-")
