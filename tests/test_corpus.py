"""The seeded corpus generator: its germs, and how little it factors."""

import hashlib
import random

import pytest

from frsurf import complements, corpus, graphs
from frsurf.dgf import GermFile, render_germ

# SHA-256 over the concatenated `render_germ` texts of random_corpus(seed, 601);
# seed 111 is the pool of the benchmark's corpus_pipeline workload.
CORPUS_TEXT_SHAS = {
    111: "5f44fc53751f8bea949107f3c0b5b9e5903d5f74f2a4c9013ab4d841e9f17366",
    1: "510a25b5ac15809967e562bb29f970063325241c2a885ec5cef9e78438c76c16",
}


@pytest.mark.parametrize("seed", sorted(CORPUS_TEXT_SHAS))
def test_random_corpus_germs_are_pinned(seed):
    sha = hashlib.sha256()
    for pair in corpus.random_corpus(seed, 601):
        sha.update(render_germ(GermFile(graph=pair.graph, coeff=dict(pair.coeff))).encode())
    assert sha.hexdigest() == CORPUS_TEXT_SHAS[seed]


def test_nef_pretest_rejects_only_inadmissible_candidates():
    families = [pair for _name, pair in corpus.deliberate_families()]
    rng = random.Random(2024)
    rejected = admitted = 0
    for _ in range(2400):
        _key, cand = corpus._random_candidate(rng, families, {})
        if not complements._positive_dots(cand):
            admitted += corpus._admissible(cand)
        else:
            rejected += 1
            assert not corpus._admissible(cand), cand
    # both outcomes occur often, so the comparison means something
    assert rejected > 500 and admitted > 500


def test_random_corpus_factors_each_shape_once(monkeypatch):
    made = []

    class Counting(graphs.PairingLattice):
        __slots__ = ()

        def __init__(self, shape, unknowns):
            made.append(shape)
            super().__init__(shape, unknowns)

    # the shape memo outlives calls: start it empty, whatever ran before
    graphs._factored.cache_clear()
    monkeypatch.setattr(graphs, "PairingLattice", Counting)
    assert len(corpus.random_corpus(1, 601)) == 601
    # one factorization per nef-passing shape (117 here), not one per
    # candidate that reaches the hypotheses check (1,244 without the memo),
    # and never two from graphs with equal vertices and edges
    assert len(made) <= 130
    assert len(set(made)) == len(made)
